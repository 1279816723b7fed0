"""Zero-row-sum matrix constructions behind the centered-product calculus.

Three families of symmetric matrices with vanishing row and column sums:

* ``theta_matrix(x)`` with off-diagonal entries (x_i + x_j) / (2n), which
  turns centered products under the uniform measure into matrix-vector
  products: fg - E(fg) = -Theta_f g - Theta_g f.
* graph-style Laplacians (non-negative off-diagonal, -L positive
  semi-definite) with the conditional bound ||Lx|| <= n (max off-diag) ||x||
  for every symmetric norm and every mean-zero x.
* divided-difference matrices with off-diagonal
  (phi(x_i) - phi(x_j)) / (x_i - x_j), Laplacian whenever phi is monotone
  increasing; they convert centering of phi(x) into centering of x.

The derivation d with (df)_ij = (f_i - f_j)/sqrt(2) ties the first family to
the uniform Laplacian via -L = d* d; ``derivation_checks`` verifies the whole
dictionary numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import IDENTITY_TOL, INEQUALITY_TOL, STRUCT_TOL, DimensionMismatchError, as_pair, as_vector
from .reports import VerificationReport


class DegenerateInputError(ValueError):
    """Sample points too close for a stable divided-difference matrix."""


#: Relative gap below which divided differences are refused.
MIN_RELATIVE_GAP = 1e-9


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
        bp = bp.copy()
        sl = sl.copy()
        bp.setflags(write=False)
        sl.setflags(write=False)
        # values at the interior knots, anchored at the first breakpoint
        knots = np.empty(bp.size)
        knots[0] = float(self.anchor)
        if bp.size > 1:
            knots[1:] = knots[0] + np.cumsum(sl[1:-1] * np.diff(bp))
        knots.setflags(write=False)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "slopes", sl)
        object.__setattr__(self, "anchor", float(self.anchor))
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
            return cls(np.asarray(d["breakpoints"], dtype=float),
                       np.asarray(d["slopes"], dtype=float),
                       float(d.get("anchor", 0.0)))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"phi {d!r} is malformed: {exc}") from None


def theta_matrix(x) -> np.ndarray:
    """Symmetric zero-sum matrix with off-diagonal (x_i + x_j) / (2n)."""
    xv = as_vector(x)
    n = xv.size
    T = (xv[:, None] + xv[None, :]) / (2.0 * n)
    np.fill_diagonal(T, 0.0)
    np.fill_diagonal(T, -T.sum(axis=1))
    return T


def deflated_theta(x) -> np.ndarray:
    """theta_matrix(x) - (1/n) * outer(ones, x); kills the constant shift of x."""
    xv = as_vector(x)
    n = xv.size
    return theta_matrix(xv) - np.outer(np.ones(n), xv) / n


def divided_difference_matrix(x, phi) -> np.ndarray:
    """Symmetric zero-sum matrix of divided differences of phi at the points x.

    Requires pairwise distinct sample points: the minimal gap must be at least
    MIN_RELATIVE_GAP * (1 + max |x_i|), otherwise DegenerateInputError is
    raised (no silent regularization).  If phi is monotone increasing the
    result is a Laplacian.
    """
    xv = as_vector(x)
    n = xv.size
    threshold = MIN_RELATIVE_GAP * (1.0 + float(np.max(np.abs(xv))))
    if n > 1:
        gaps = np.abs(xv[:, None] - xv[None, :]) + np.diag(np.full(n, np.inf))
        if float(gaps.min()) < threshold:
            raise DegenerateInputError(
                f"sample points too close (min gap {gaps.min():.3e} < {threshold:.3e})"
            )
    values = np.asarray(phi(xv), dtype=float)
    diff_x = xv[:, None] - xv[None, :]
    np.fill_diagonal(diff_x, 1.0)
    T = (values[:, None] - values[None, :]) / diff_x
    np.fill_diagonal(T, 0.0)
    np.fill_diagonal(T, -T.sum(axis=1))
    return T


def monotone_laplacian(x, phi) -> np.ndarray:
    """Divided-difference matrix of a monotone phi, sign-normalized to a Laplacian."""
    T = divided_difference_matrix(x, phi)
    off = T[~np.eye(T.shape[0], dtype=bool)]
    if off.size and float(off.min()) < -STRUCT_TOL:
        if float(off.max()) > STRUCT_TOL:
            raise ValueError("phi is not monotone: off-diagonal entries change sign")
        return -T
    return T


def max_offdiagonal(L) -> float:
    """max_{i != j} L_ij (0 for the 1x1 matrix)."""
    M = np.asarray(L, dtype=float)
    n = M.shape[0]
    if n == 1:
        return 0.0
    off = M[~np.eye(n, dtype=bool)]
    return float(off.max())


def validate_zero_sum_symmetric(M, tol: float = STRUCT_TOL) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if float(np.max(np.abs(M - M.T), initial=0.0)) > tol:
        raise ValueError("matrix is not symmetric")
    if float(np.max(np.abs(M.sum(axis=1)), initial=0.0)) > tol:
        raise ValueError("row sums are not zero")
    if float(np.max(np.abs(M.sum(axis=0)), initial=0.0)) > tol:
        raise ValueError("column sums are not zero")
    return M


def validate_laplacian(L, tol: float = STRUCT_TOL, psd_tol: float = 1e-9) -> np.ndarray:
    """Check the Laplacian contract: symmetric, zero sums, off-diag >= 0, -L PSD.

    The PSD certificate is the smallest eigenvalue of -L; for n <= 3 the
    leading principal minors of -L are cross-checked as a second certificate.
    """
    M = validate_zero_sum_symmetric(L, tol)
    n = M.shape[0]
    off = M[~np.eye(n, dtype=bool)]
    if off.size and float(off.min()) < -tol:
        raise ValueError("off-diagonal entries must be non-negative")
    neg = -M
    if n > 1 and float(np.linalg.eigvalsh(neg)[0]) < -psd_tol:
        raise ValueError("-L is not positive semi-definite")
    if n <= 3:
        for m in range(1, n + 1):
            if float(np.linalg.det(neg[:m, :m])) < -psd_tol:
                raise ValueError(f"leading principal minor {m} of -L is negative")
    return M


def centering_identity_check(x, phi, tol: float = IDENTITY_TOL) -> VerificationReport:
    """Verify -(1/n) Theta[x; phi] (x - mean(x) 1) = phi(x) - mean(phi(x)) 1."""
    xv = as_vector(x)
    n = xv.size
    T = divided_difference_matrix(xv, phi)
    centered = xv - float(xv.mean())
    left = -(T @ centered) / n
    values = np.asarray(phi(xv), dtype=float)
    right = values - float(values.mean())
    deviation = float(np.max(np.abs(left - right), initial=0.0))
    instance = {"x": [float(v) for v in xv]}
    if isinstance(phi, PiecewiseLinearFn):
        instance["phi"] = phi.to_dict()
    return VerificationReport.from_values("centering_identity", deviation, 0.0, tol, instance)


def laplacian_norm_bound_check(L, x, norm, tol: float = INEQUALITY_TOL) -> VerificationReport:
    """Check ||Lx|| <= n (max off-diag) ||x|| for a mean-zero x and symmetric norm."""
    M = validate_laplacian(L)
    xv = as_vector(x)
    n = M.shape[0]
    if xv.size != n:
        raise DimensionMismatchError(f"matrix is {n}x{n}, vector has {xv.size} entries")
    if abs(float(xv.sum())) > 1e-10:
        raise ValueError("x must have zero coordinate sum (center it first)")
    lhs = float(norm(M @ xv))
    rhs = n * max_offdiagonal(M) * float(norm(xv))
    instance = {"n": n, "max_offdiag": max_offdiagonal(M), "x": [float(v) for v in xv]}
    return VerificationReport.from_values("laplacian_norm_bound", lhs, rhs, tol, instance)


def lhat_row_col_bounds(L) -> tuple[float, float]:
    """(max column abs sum, max row abs sum) of L - x_inf (x) 1.

    Here x_inf(i) = max_{j != i} L_ij; both returned operator norms are
    bounded by n * max off-diagonal entry of L.
    """
    M = validate_laplacian(L)
    n = M.shape[0]
    if n == 1:
        return 0.0, 0.0
    off = M + np.diag(np.full(n, -np.inf))
    x_inf = off.max(axis=1)
    Lhat = M - np.outer(x_inf, np.ones(n))
    col = float(np.max(np.abs(Lhat).sum(axis=0)))
    row = float(np.max(np.abs(Lhat).sum(axis=1)))
    return col, row


def pairwise_difference(f) -> np.ndarray:
    """The derivation: matrix with entries (f_i - f_j) / sqrt(2)."""
    fv = as_vector(f)
    return (fv[:, None] - fv[None, :]) / math.sqrt(2.0)


def derivation_adjoint(A) -> np.ndarray:
    """Adjoint of the derivation w.r.t. uniform inner products on vectors/matrices.

    For <u, v> = (1/n) sum u_i v_i and <A, B> = (1/n^2) sum A_ij B_ij the
    adjoint evaluates to (row sums - column sums) / (sqrt(2) n).
    """
    M = np.asarray(A, dtype=float)
    n = M.shape[0]
    return (M.sum(axis=1) - M.sum(axis=0)) / (math.sqrt(2.0) * n)


def uniform_laplacian(n: int) -> np.ndarray:
    """L = (1/n) ones - identity, so that -Lf = f - mean(f)."""
    return np.full((n, n), 1.0 / n) - np.eye(n)


def derivation_checks(f, g, tol: float = IDENTITY_TOL) -> VerificationReport:
    """Verify the derivation dictionary on a pair of vectors.

    Four identities, all entrywise:
      1. -L = d* d                 (on f)
      2. d*(f dg)   = -Theta_f g   (left module action)
      3. d*((df) g) = -Theta_g f   (right module action)
      4. d*(f dg)   = -(L(fg) - g Lf + f Lg) / 2
    """
    fv, gv = as_pair(f, g)
    n = fv.size
    L = uniform_laplacian(n)
    df = pairwise_difference(fv)
    dg = pairwise_difference(gv)

    dev = {
        "laplacian_factorization": float(np.max(np.abs(derivation_adjoint(df) - (-L @ fv)))),
        "left_product": float(np.max(np.abs(
            derivation_adjoint(fv[:, None] * dg) - (-(theta_matrix(fv) @ gv))))),
        "right_product": float(np.max(np.abs(
            derivation_adjoint(df * gv[None, :]) - (-(theta_matrix(gv) @ fv))))),
        "symmetric_form": float(np.max(np.abs(
            derivation_adjoint(fv[:, None] * dg)
            + 0.5 * (L @ (fv * gv) - gv * (L @ fv) + fv * (L @ gv))))),
    }
    instance = {"f": [float(v) for v in fv], "g": [float(v) for v in gv], "deviations": dev}
    return VerificationReport.from_values("derivation_identities", max(dev.values()), 0.0, tol, instance)
