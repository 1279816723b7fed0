"""Checkers for the product-rule and chain-rule inequalities and their kin.

Every checker returns a VerificationReport with the full instance echoed, so
a failing report is replayable from its JSON serialization alone.  Inequality
checks pass within ``kernels.inequality_tolerance``, max(tol, 64 eps
max(|lhs|, |rhs|)), tol 1e-9 by default; exact linear-algebra identities
within ``kernels.rounding_tolerance`` at the floor 1e-10.

The replication map turns a rational-weight measure (r_1/m, ..., r_n/m) into
the uniform measure on m points by repeating the i-th coordinate r_i times;
weighted norms and centered products are preserved exactly, which is how
statements proved for uniform measures extend to rational (and by continuity
to arbitrary) measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels, sampling
from .core import (IDENTITY_TOL, INEQUALITY_TOL, HolderTriple, ProbVector, _integer, as_pair, center, check_exponent,
                   exponent_tag, exponent_tags, lp_norm, paired)
from .kernels import Block
from .operators import PiecewiseLinearFn, phi_echo, theta_matrix
from .reports import ReportBlock, VerificationReport

#: Largest admissible common denominator for replication.
REPLICATION_CAP = 100_000

#: Smallest |f_i| accepted as invertible.
INVERTIBILITY_FLOOR = 1e-6


@dataclass(frozen=True)
class RationalProbVector:
    """A probability measure with weights r_i / m for positive integers r_i."""

    numerators: tuple[int, ...]
    denominator: int

    def __post_init__(self):
        nums = tuple(_integer(r, "each numerator") for r in self.numerators)
        m = _integer(self.denominator, "denominator")
        if len(nums) < 1:
            raise ValueError("need at least one atom")
        if any(r < 1 for r in nums):
            raise ValueError("numerators must be positive integers")
        if sum(nums) != m:
            raise ValueError(f"numerators sum to {sum(nums)}, expected denominator {m}")
        if m > REPLICATION_CAP:
            raise ValueError(f"denominator {m} exceeds replication cap {REPLICATION_CAP}")
        object.__setattr__(self, "numerators", nums)
        object.__setattr__(self, "denominator", m)

    @property
    def n(self) -> int:
        return len(self.numerators)

    def weights(self) -> np.ndarray:
        return np.asarray(self.numerators, dtype=float) / self.denominator

    def to_prob_vector(self) -> ProbVector:
        return ProbVector(self.weights())


def check_holder_theta(x, y, triple: HolderTriple, tol: float = INEQUALITY_TOL) -> VerificationReport:
    """||Theta_x (y - Ey)||_r <= ||x||_p ||y - Ey||_q under the uniform measure;
    ValueError if Theta_x (y - Ey) overflows."""
    xv, yv = as_pair(x, y)
    mu = ProbVector.uniform(xv.size)
    yc = center(yv, mu)
    with np.errstate(over="ignore", invalid="ignore"):
        image = theta_matrix(xv) @ yc
    if not np.isfinite(image).all():
        raise ValueError("Theta_x (y - Ey) overflows the float range")
    lhs = lp_norm(image, mu, triple.r)
    rhs = lp_norm(xv, mu, triple.p) * lp_norm(yc, mu, triple.q)
    instance = {
        "x": xv.tolist(),
        "y": yv.tolist(),
        "exponents": {"r": exponent_tag(triple.r), "p": exponent_tag(triple.p), "q": exponent_tag(triple.q)},
    }
    return VerificationReport.from_values("holder_theta_bound", lhs, rhs, kernels.inequality_tolerance(tol, lhs, rhs),
                                          instance)


# -- one report per row of a block; the checkers below are their one-row case --

class Statement:
    """One inequality on a measure, written once for the checkers, the suites
    and the search.

    ``kernel(block, *exponents)`` returns each row's left-hand side, then the
    terms whose sum is its right-hand side (two for the product rule, one
    otherwise).  ``exponents`` names the exponents the kernel takes, in
    order.  The statement owns its domain: an instance carries phi (a
    piecewise-linear function) if ``phi`` and g if ``g``, else ``sides``
    refuses it, and if ``invertible`` no |f_i| falls below
    INVERTIBILITY_FLOOR (``outside``), else ``reports`` refuses it and the
    search scores it -inf.  Its instance is laid out here once: ``draw``
    reads it from rows of uniforms (``columns`` of them) for the suites and
    the search, ``check`` from the arguments of ``check_<name>``.  A plain
    class, as ``kernels.Block`` is.
    """

    def __init__(self, name: str, kernel, exponents=(), phi=False, g=False, invertible=False):
        self.name, self.kernel, self.exponents = name, kernel, exponents
        self.phi, self.g, self.invertible = phi, g, invertible

    def columns(self, width: int, phi: int = 0) -> int:
        """The uniforms ``draw`` reads at segment width ``width``, phi taking ``phi``."""
        return (2 + self.invertible + self.g) * width - 1 + phi * self.phi

    def draw(self, u: np.ndarray, n: int, width: int, floor: float, phi: int = 0, monotone=False, signed=False,
             at: int = 0) -> tuple[dict, int]:
        """The ``Block`` fields of n-atom instances laid out in the rows of
        uniforms ``u`` from column ``at``, and the first column after them:
        segments ``width`` wide, of which an instance reads the head, for the
        measure (width - 1, ``kernels.measures`` above ``floor``), f
        (``kernels.signed_uniforms``, or ``sampling.invertible``'s magnitudes
        and then signs), g, and phi (``phi`` uniforms, ``kernels.sample_phi``)."""
        def take(size, head):  # the head of the next segment
            nonlocal at
            at += size
            return u[:, at - size:at - size + head]
        fields = {"mu": kernels.measures(take(width - 1, n - 1), floor)}
        f = take(width, n)
        fields["f"] = sampling.invertible(f, take(width, n)) if self.invertible else kernels.signed_uniforms(f)
        if self.g:
            fields["g"] = kernels.signed_uniforms(take(width, n))
        if self.phi:
            fields.update(kernels.sample_phi(take(phi, phi), monotone, signed))
        return fields, at

    def outside(self, f: np.ndarray):
        """Per row of f, whether it lies outside the domain; None if no f can."""
        return (np.abs(f) < INVERTIBILITY_FLOOR).any(axis=1) if self.invertible else None

    def sides(self, b: Block, exponents=()) -> tuple:
        """Each row's lhs, rhs and the terms of rhs.  ``exponents`` holds, per
        name in ``self.exponents``, one float or an array of one per row.
        ValueError if ``b`` lacks a field the statement needs."""
        for name, needed, value in (("phi", self.phi, b.bp), ("g", self.g, b.g)):
            if needed and value is None:
                raise ValueError(f"{self.name} needs {name}, and the instance has none")
        lhs, *terms = self.kernel(b, *exponents)
        return lhs, sum(terms[1:], terms[0]), terms

    def reports(self, b: Block, exponents=(), tol: float = INEQUALITY_TOL) -> ReportBlock:
        """The reports of the rows of ``b`` as one block, each row's instance
        echoed in full; ValueError if a row lies outside the domain."""
        outside = self.outside(b.f)
        if outside is not None and outside.any():
            raise ValueError(f"f is not invertible: some |f_i| < {INVERTIBILITY_FLOOR}")
        lhs, rhs, terms = self.sides(b, exponents)
        instance = {"mu": b.mu, "f": b.f}
        if b.g is not None:
            instance["g"] = b.g
        if self.phi:
            instance["phi"], monotone = phi_echo(b)
        if self.exponents:
            instance["exponents"] = {name: exponent_tags(np.full(len(b), x, dtype=float))
                                     for name, x in zip(self.exponents, exponents)}
        if len(terms) > 1:
            instance["rhs_terms"] = np.stack(terms, axis=1)
        if self.phi:
            instance["lipschitz"], instance["monotone"] = b.lipschitz, monotone
        return ReportBlock.from_values(self.name, lhs, rhs, kernels.inequality_tolerance(tol, lhs, rhs), instance)

    def check(self, mu, f, g=None, phi=None, exponents=(), tol: float = INEQUALITY_TOL) -> VerificationReport:
        """The report of one instance, as ``check_<name>`` reads it: f and g by
        ``as_pair`` (if the statement has g), f and mu by ``paired``, each
        exponent by ``check_exponent``; ValueError as ``reports`` refuses it."""
        if self.g:
            f, g = as_pair(f, g)
        fv, w = paired(f, mu)
        exponents = tuple(map(check_exponent, exponents))
        return self.reports(Block.one(w, fv, g, phi), exponents, tol).reports()[0]


#: The five statements on a measure, by the name of their checker, ``check_<name>``.
STATEMENTS = {
    "leibniz": Statement("leibniz_inequality", kernels.leibniz, ("r", "p1", "q1", "p2", "q2"), g=True),
    "chain_rule": Statement("chain_rule", kernels.chain_rule, ("p",), phi=True),
    "markov_variance": Statement("markov_variance", kernels.markov_variance, phi=True),
    "strong_leibniz": Statement("strong_leibniz", kernels.strong_leibniz, ("p",), invertible=True),
    "square_bound": Statement("square_function_bound", kernels.square_bound, ("p",)),
}


def decomposition_reports(f: np.ndarray, g: np.ndarray, tol: float = IDENTITY_TOL) -> ReportBlock:
    tolerance = kernels.rounding_tolerance(tol, f.shape[1], kernels.product_scale(f, g))
    return ReportBlock.from_values("centered_product_decomposition", np.maximum(*kernels.decomposition(f, g)),
                                   0.0, tolerance, {"f": f, "g": g})


def check_decomposition(f, g, tol: float = IDENTITY_TOL) -> VerificationReport:
    """fg - E(fg) = -Theta_f (g - Eg) - Theta_g (f - Ef) under the uniform measure.

    Also checks the uncentered form -Theta_f g - Theta_g f; reports the larger
    of the two maximal deviations, within the tolerance
    ``kernels.rounding_tolerance(tol, n, kernels.product_scale(f, g))``, which
    the report echoes.
    """
    fv, gv = as_pair(f, g)
    return decomposition_reports(fv[None, :], gv[None, :], tol).reports()[0]


def check_leibniz(mu: ProbVector, f, g, t1: HolderTriple, t2: HolderTriple,
                  tol: float = INEQUALITY_TOL) -> VerificationReport:
    """||fg - E(fg)||_r <= ||f||_p1 ||g - Eg||_q1 + ||g||_p2 ||f - Ef||_q2."""
    if t1.r != t2.r:
        raise ValueError(f"the two triples must share r, got {t1.r} and {t2.r}")
    return STATEMENTS["leibniz"].check(mu, f, g, exponents=(t1.r, t1.p, t1.q, t2.p, t2.q), tol=tol)


def check_chain_rule(mu: ProbVector, f, phi: PiecewiseLinearFn, p: float,
                     tol: float = INEQUALITY_TOL) -> VerificationReport:
    """||phi(f) - E phi(f)||_p <= Lip(phi) ||f - Ef||_p.

    Monotonicity of phi is recorded in the instance but not required; probing
    non-monotone phi is exactly how counterexamples are found.
    """
    return STATEMENTS["chain_rule"].check(mu, f, phi=phi, exponents=(p,), tol=tol)


def check_strong_leibniz(mu: ProbVector, f, p: float, tol: float = INEQUALITY_TOL) -> VerificationReport:
    """||f^-1 - E f^-1||_p <= ||f^-1||_inf^2 ||f - Ef||_p for invertible f."""
    return STATEMENTS["strong_leibniz"].check(mu, f, exponents=(p,), tol=tol)


def check_markov_variance(mu: ProbVector, f, phi: PiecewiseLinearFn,
                          tol: float = INEQUALITY_TOL) -> VerificationReport:
    """Var(phi(f)) <= Lip(phi)^2 Var(f); holds for every Lipschitz phi."""
    return STATEMENTS["markov_variance"].check(mu, f, phi=phi, tol=tol)


def check_square_bound(mu: ProbVector, f, p: float, tol: float = INEQUALITY_TOL) -> VerificationReport:
    """||f^2 - E f^2||_p <= 2 ||f||_inf ||f - Ef||_p."""
    return STATEMENTS["square_bound"].check(mu, f, exponents=(p,), tol=tol)


def replicate(x, mu: RationalProbVector) -> np.ndarray:
    """Repeat x_i exactly r_i times, mapping (x, mu) to length-m uniform data.

    Preserves weighted norms and centered products exactly: the i-th weight
    r_i/m contributes the same mass as r_i uniform atoms of mass 1/m.
    """
    xv, _ = paired(x, mu.weights())
    return np.repeat(xv, mu.numerators)


def rationalize(mu: ProbVector, max_denominator: int) -> RationalProbVector:
    """Approximate mu by a rational measure with common denominator <= max_denominator.

    Exactly representable measures are returned exactly.  Otherwise the
    weights are apportioned by the largest-remainder method at the full
    denominator, which is deterministic and keeps every per-atom error below
    1/max_denominator (ties broken by atom index).
    """
    m_cap = _integer(max_denominator, "max_denominator")
    if m_cap < mu.n:
        raise ValueError(f"max_denominator {m_cap} cannot carry {mu.n} positive atoms")
    if m_cap > REPLICATION_CAP:
        raise ValueError(f"max_denominator {m_cap} exceeds replication cap {REPLICATION_CAP}")

    fracs = [Fraction(float(w)).limit_denominator(m_cap) for w in mu.weights]
    if sum(fracs) == 1:
        m = math.lcm(*(fr.denominator for fr in fracs))
        if m <= m_cap and all(fr * m >= 1 for fr in fracs):
            return RationalProbVector(tuple(int(fr * m) for fr in fracs), m)

    scaled = mu.weights * m_cap
    base = np.floor(scaled).astype(int)
    remainders = scaled - base
    missing = m_cap - int(base.sum())
    order = np.lexsort((np.arange(mu.n), -remainders))
    for i in order[:missing]:
        base[i] += 1
    # every atom must keep positive mass
    for i in range(mu.n):
        if base[i] == 0:
            donor = int(np.argmax(base))
            base[donor] -= 1
            base[i] += 1
    return RationalProbVector(tuple(int(r) for r in base), m_cap)
