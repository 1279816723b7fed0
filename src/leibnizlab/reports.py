"""Structured pass/fail reports for inequality and identity checks, one at a
time (``VerificationReport``) or as the columns of a block (``ReportBlock``)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .serialize import block_lines, block_rows


@dataclass
class VerificationReport:
    """One checked inequality: lhs <= rhs + tolerance.

    ``slack`` is rhs - lhs, so ``passed`` holds iff ``slack >= -tolerance``.
    Identity checks report their maximal absolute deviation as ``lhs`` with
    ``rhs = 0``.  ``instance`` echoes the full inputs so any failure can be
    replayed from the serialized report alone.
    """

    name: str
    lhs: float
    rhs: float
    slack: float
    passed: bool
    tolerance: float
    instance: dict = field(default_factory=dict)
    seed: int | None = None

    @classmethod
    def from_values(
        cls,
        name: str,
        lhs: float,
        rhs: float,
        tolerance: float,
        instance: dict | None = None,
        seed: int | None = None,
    ) -> "VerificationReport":
        lhs = float(lhs)
        rhs = float(rhs)
        slack = rhs - lhs
        return cls(
            name=name,
            lhs=lhs,
            rhs=rhs,
            slack=slack,
            passed=bool(slack >= -tolerance),
            tolerance=float(tolerance),
            instance=dict(instance or {}),
            seed=seed,
        )

    @property
    def violation(self) -> float:
        """lhs - rhs; positive means the inequality is violated."""
        return -self.slack

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "pass": self.passed,
            "tolerance": self.tolerance,
            "instance": self.instance,
            "seed": self.seed,
        }

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"[{verdict}] {self.name}: lhs={self.lhs:.12g} rhs={self.rhs:.12g} slack={self.slack:.3g}"


class ReportBlock:
    """The reports of one statement on the rows of a block, as columns keyed
    as in ``VerificationReport.to_dict`` (the column format is in
    ``serialize.block_lines``).  A plain class, as ``kernels.Block`` is."""

    def __init__(self, name, lhs, rhs, slack, passed, tolerance, instance: dict, seed=None):
        self.columns = {"name": name, "lhs": lhs, "rhs": rhs, "slack": slack, "pass": passed,
                        "tolerance": tolerance, "instance": instance, "seed": seed}

    @classmethod
    def from_values(cls, name, lhs, rhs, tolerance, instance: dict, seed=None) -> "ReportBlock":
        """``VerificationReport.from_values`` row by row: slack = rhs - lhs, passing iff slack >= -tolerance."""
        slack = rhs - lhs
        tolerance = tolerance if type(tolerance) is np.ndarray else float(tolerance)
        return cls(name, lhs, rhs, slack, slack >= -tolerance, tolerance, instance, seed)

    def __len__(self) -> int:
        return len(self.columns["lhs"])

    def reports(self) -> list[VerificationReport]:
        return [VerificationReport(*row) for row in block_rows(self.columns, len(self))]

    def lines(self, layout=None) -> list[str]:
        """Each row's JSON line: ``serialize.dumps(report.to_dict())``, byte for byte;
        ``layout`` is the block's entry of one ``serialize.lay_out`` of several blocks."""
        return block_lines(self.columns, len(self), layout)
