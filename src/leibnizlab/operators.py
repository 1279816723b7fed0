"""Zero-row-sum matrix constructions behind the centered-product calculus.

Three families of symmetric matrices with vanishing row and column sums:

* ``theta_matrix(x)`` with off-diagonal entries (x_i + x_j) / (2n), which
  turns centered products under the uniform measure into matrix-vector
  products: fg - E(fg) = -Theta_f g - Theta_g f.
* graph-style Laplacians (non-negative off-diagonal, -L positive
  semi-definite) with the bound ||Lx|| <= n (max off-diag) ||x - Ex|| for
  every symmetric norm and every x (zero row sums: L maps x as x - Ex).
* divided-difference matrices with off-diagonal
  (phi(x_i) - phi(x_j)) / (x_i - x_j), Laplacian whenever phi is monotone
  increasing; they convert centering of phi(x) into centering of x.

The derivation d with (df)_ij = (f_i - f_j)/sqrt(2) ties the first family to
the uniform Laplacian via -L = d* d; ``derivation_checks`` verifies the whole
dictionary numerically.  The derivation and its adjoint are
``kernels.derivation`` and ``kernels.derivation_adjoint``.

Each matrix and checker here is the one-instance case of a stacked kernel in
``kernels``, evaluated on a one-row block; the ``*_reports`` builders give
one report per row of a block, for the suites and the checkers alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .core import IDENTITY_TOL, INEQUALITY_TOL, DimensionMismatchError, as_number, as_pair, as_vector
from .kernels import Block, DegenerateInputError
from .reports import ReportBlock, VerificationReport


@dataclass(frozen=True, eq=False)
class PiecewiseLinearFn:
    """A continuous piecewise-linear function on the real line.

    ``slopes`` has one more entry than ``breakpoints``: slopes[0] applies left
    of the first breakpoint, slopes[t] between breakpoints t-1 and t, and
    slopes[-1] to the right of the last one.  ``anchor`` is the value at the
    first breakpoint.  The Lipschitz constant is exactly max |slope|; the
    function is monotone iff all slopes share a sign (zeros allowed).
    """

    breakpoints: np.ndarray
    slopes: np.ndarray
    anchor: float = 0.0

    def __post_init__(self):
        bp = as_vector(self.breakpoints)
        sl = as_vector(self.slopes)
        if sl.size != bp.size + 1:
            raise ValueError(f"need {bp.size + 1} slopes for {bp.size} breakpoints, got {sl.size}")
        if bp.size > 1 and np.any(np.diff(bp) <= 0.0):
            raise ValueError("breakpoints must be strictly increasing")
        anchor = as_number(self.anchor)
        if not np.isfinite(anchor):
            raise ValueError(f"anchor must be finite, got {anchor!r}")
        bp = bp.copy()
        sl = sl.copy()
        bp.setflags(write=False)
        sl.setflags(write=False)
        # values at the interior knots, anchored at the first breakpoint
        knots = np.empty(bp.size)
        knots[0] = anchor
        if bp.size > 1:
            knots[1:] = knots[0] + np.cumsum(sl[1:-1] * np.diff(bp))
        knots.setflags(write=False)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "slopes", sl)
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "_knot_values", knots)

    def __call__(self, x) -> np.ndarray:
        xv = np.asarray(x, dtype=float)
        scalar = xv.ndim == 0
        xv = np.atleast_1d(xv)
        idx = np.searchsorted(self.breakpoints, xv, side="right")
        left = np.maximum(idx - 1, 0)
        base = self._knot_values[left]
        ref = self.breakpoints[left]
        out = base + self.slopes[idx] * (xv - ref)
        return float(out[0]) if scalar else out

    @property
    def lipschitz(self) -> float:
        return float(np.max(np.abs(self.slopes)))

    @property
    def is_monotone(self) -> bool:
        return bool(np.all(self.slopes >= 0.0) or np.all(self.slopes <= 0.0))

    @classmethod
    def identity(cls) -> "PiecewiseLinearFn":
        return cls(np.array([0.0]), np.array([1.0, 1.0]), 0.0)

    @classmethod
    def constant(cls, value: float) -> "PiecewiseLinearFn":
        return cls(np.array([0.0]), np.array([0.0, 0.0]), float(value))

    def to_dict(self) -> dict:
        return {
            "breakpoints": [float(b) for b in self.breakpoints],
            "slopes": [float(s) for s in self.slopes],
            "anchor": self.anchor,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PiecewiseLinearFn":
        if not isinstance(d, dict) or not {"breakpoints", "slopes"} <= d.keys():
            raise ValueError(f"phi must be an object with breakpoints and slopes, got {d!r}")
        try:
            return cls(d["breakpoints"], d["slopes"], d.get("anchor", 0.0))
        except ValueError as exc:
            raise ValueError(f"phi {d!r} is malformed: {exc}") from None


def phi_echo(b: Block) -> tuple[dict, np.ndarray]:
    """The columns of each row's ``phi.to_dict()`` (``reports.ReportBlock``), and whether it is monotone."""
    counts = np.isfinite(b.bp).sum(axis=1)
    monotone = (b.slopes >= 0.0).all(axis=1) | (b.slopes <= 0.0).all(axis=1)
    return {"breakpoints": (b.bp, counts), "slopes": (b.slopes, counts + 1), "anchor": b.anchor}, monotone


def _on_rows(fn):
    """A function of one vector as a function of a one-row block: (1, n) -> (1, ...)."""
    return lambda rows: np.asarray(fn(rows[0]), dtype=float)[None]


def theta_matrix(x) -> np.ndarray:
    """Symmetric zero-sum matrix with off-diagonal (x_i + x_j) / (2n)."""
    return kernels.theta(as_vector(x)[None, :])[0]


def deflated_theta(x) -> np.ndarray:
    """theta_matrix(x) - (1/n) * outer(ones, x); kills the constant shift of x."""
    xv = as_vector(x)
    return theta_matrix(xv) - xv / xv.size


def divided_difference_matrix(x, phi) -> np.ndarray:
    """Symmetric zero-sum matrix of divided differences of phi at the points x.

    Requires pairwise distinct sample points: the minimal gap must be at least
    ``kernels.MIN_RELATIVE_GAP`` * (1 + max |x_i|), otherwise
    DegenerateInputError is raised (no silent regularization).  If phi is
    monotone increasing the result is a Laplacian.
    """
    return kernels.divided_differences(as_vector(x)[None, :], _on_rows(phi))[0]


def monotone_laplacian(x, phi) -> np.ndarray:
    """Divided-difference matrix of a monotone phi, sign-normalized to a Laplacian."""
    return kernels.monotone_laplacians(divided_difference_matrix(x, phi)[None])[0]


def max_offdiagonal(L) -> float:
    """max_{i != j} L_ij (0 for the 1x1 matrix)."""
    return float(kernels.max_offdiagonal(np.asarray(L, dtype=float)[None])[0])


def validate_laplacian(L) -> np.ndarray:
    """Check the Laplacian contract: symmetric, zero sums, off-diag >= 0, -L PSD.

    The one PSD certificate is the smallest eigenvalue of -L.  The tolerances
    are those of ``kernels.validate_laplacians``.
    """
    M = np.asarray(L, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    kernels.validate_laplacians(M[None])
    return M


# -- one report per row of a block; the checkers below are their one-row case --

def centering_reports(x: np.ndarray, phi, echo: dict | None, tol: float = IDENTITY_TOL) -> ReportBlock:
    """Centering identity of each row of points x (B, n); ``phi`` maps the rows
    to their values, and ``echo`` is the column of their ``phi.to_dict()``
    (``phi_echo``, or one shared dict), or None.  Each row's deviation is
    judged by ``kernels.rounding_tolerance`` at the scale that
    ``kernels.centering_identity`` gives, and its report echoes that tolerance."""
    instance = {"x": x} if echo is None else {"x": x, "phi": echo}
    deviation, scale = kernels.centering_identity(x, phi)
    return ReportBlock.from_values("centering_identity", deviation, 0.0,
                                   kernels.rounding_tolerance(tol, x.shape[1], scale), instance)


def derivation_reports(f: np.ndarray, g: np.ndarray, tol: float = IDENTITY_TOL) -> ReportBlock:
    """The derivation dictionary on each row of f, g (B, n), each deviation
    judged by ``kernels.rounding_tolerance`` at ``kernels.product_scale(f, g)``."""
    names = ("laplacian_factorization", "left_product", "right_product", "symmetric_form")
    devs = kernels.derivation_identities(f, g)
    tolerance = kernels.rounding_tolerance(tol, f.shape[1], kernels.product_scale(f, g))
    return ReportBlock.from_values("derivation_identities", np.maximum.reduce(devs), 0.0, tolerance,
                                   {"f": f, "g": g, "deviations": dict(zip(names, devs))})


def laplacian_bound_reports(L: np.ndarray, x: np.ndarray, norm, tol: float = INEQUALITY_TOL):
    """The laplacian_norm_bound reports of the rows of validated Laplacians L
    (B, n, n) and any x (B, n), as one block; ``norm`` maps rows to their
    norms.  Each row is checked at x - Ex, which L maps as it maps x, and
    echoes x as given, so that its report replays bit for bit.  Returns the
    block and each row's ||x - Ex||."""
    n = L.shape[1]
    if x.shape[1] != n:
        raise DimensionMismatchError(f"matrix is {n}x{n}, vector has {x.shape[1]} entries")
    lhs, rhs, top, size = kernels.laplacian_norm_bound(L, x - x.mean(axis=1)[:, None], norm)
    return ReportBlock.from_values("laplacian_norm_bound", lhs, rhs, kernels.inequality_tolerance(tol, lhs, rhs),
                                   {"n": n, "max_offdiag": top, "x": x}), size


def centering_identity_check(x, phi, tol: float = IDENTITY_TOL) -> VerificationReport:
    """Verify -(1/n) Theta[x; phi] (x - mean(x) 1) = phi(x) - mean(phi(x)) 1."""
    echo = phi.to_dict() if isinstance(phi, PiecewiseLinearFn) else None
    return centering_reports(as_vector(x)[None, :], _on_rows(phi), echo, tol).reports()[0]


def laplacian_norm_bound_check(L, x, norm, tol: float = INEQUALITY_TOL) -> VerificationReport:
    """Check ||Lx|| <= n (max off-diag) ||x - Ex|| for any x and symmetric norm."""
    M = validate_laplacian(L)
    reports, _ = laplacian_bound_reports(M[None], as_vector(x)[None, :], _on_rows(norm), tol)
    return reports.reports()[0]


def lhat_row_col_bounds(L) -> tuple[float, float]:
    """(max column abs sum, max row abs sum) of L - x_inf (x) 1.

    Here x_inf(i) = max_{j != i} L_ij; both returned operator norms are
    bounded by n * max off-diagonal entry of L.
    """
    col, row = kernels.hat_bounds(validate_laplacian(L)[None])
    return float(col[0]), float(row[0])


def derivation_checks(f, g, tol: float = IDENTITY_TOL) -> VerificationReport:
    """Verify the derivation dictionary on a pair of vectors.

    Four identities, all entrywise:
      1. -L = d* d                 (on f)
      2. d*(f dg)   = -Theta_f g   (left module action)
      3. d*((df) g) = -Theta_g f   (right module action)
      4. d*(f dg)   = -(L(fg) - g Lf + f Lg) / 2
    """
    fv, gv = as_pair(f, g)
    return derivation_reports(fv[None, :], gv[None, :], tol).reports()[0]
