"""Row-wise kernels: both sides of each inequality for a block of instances,
and the per-trial random streams, read a block at a time.

A ``Block`` holds instances as the rows of arrays.  Each kernel maps a block,
and its exponents (one float, one per row, or a grid of exponents by rows,
as ``lp`` takes them), to the arrays of the two sides of one statement.  It
repeats, row by row, the floating-point operations of evaluating one
instance alone, in the same order, so a row's values do not depend on the
other rows of its block, nor on the other exponents of a grid: the suites,
the search and the one-instance checkers in ``verify`` and ``operators`` all
call these kernels, and each inequality is written here once.

The statements about n x n matrices (the centered-product decomposition, the
centering and derivation identities, the Laplacian norm bound) take their
rows as plain (B, n) arrays and build one (B, n, n) matrix per row:
Theta (``theta``), divided differences, random Laplacians.  An identity's
kernel returns each row's largest deviation.  Stacked matmul, reductions
over the same axis and elementwise operations reproduce the one-matrix
computation bit for bit, and ``validate_laplacians`` makes the Laplacian
checks on every matrix of a block at once.

Streams (the v2 rule): the suites (streams 0-8) and the search
(``SEARCH_STREAM``) each draw from ``Philox(key=(seed, stream))``, the
counter-based generator Philox4x64-10 (Salmon et al., SC 2011), and trial t
reads the W words at counter t W / 4, W being the consumer's layout width
(``trial_words``).  The words are computed here in numpy integer
arithmetic, each of the four counter words one 1-D array and each
64 x 64 -> 128-bit product taken from 32-bit halves, bit for bit as numpy's
``Philox`` gives them after ``advance(t W / 4)``, which the tests check.  No command imports
numpy's random module, which spares each about 6 MB of resident memory
(numpy's generators and, through ``secrets`` and ``hashlib``, OpenSSL).  Access is by
counter, so any list of trials is one vectorized call and a trial alone is a
block of one.  Both consumers turn words into numbers with the samplers
below, with no rejection and no libm call.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from itertools import repeat

import numpy as np

from .core import STRUCT_TOL

#: Trials seeded, sampled and scored together by the suites; no result depends
#: on it.  The search takes 2048 (``search.BLOCK``); the suites at 2048, with
#: ``suites.WORD_BLOCK`` kept at 2**19 words, raised the peak ru_maxrss of
#: ``verify --suite all --trials 8000 --seed 7`` from 37.0 to 38.0 MiB.
BLOCK = 1024


class Block:
    """Instances stored as the rows of arrays.

    ``mu``, ``f`` and ``g`` have shape (B, n); ``mu`` is None where a
    statement has no measure (divided differences keep their points in
    ``f``).  phi (chain rule, markov and divided differences) is
    kept as breakpoints (B, M) padded with +inf, slopes (B, M + 1) padded
    with 0 and anchors (B,); its knot values and Lipschitz constants are
    derived here exactly as ``PiecewiseLinearFn`` derives them, and its
    values at f (``phi_f``) once, for all the kernels a block meets.  A plain
    class, because creating a dataclass adds about 2 ms to the start-up of
    every command.
    """

    FIELDS = ("mu", "f", "g", "bp", "slopes", "anchor")

    def __init__(self, mu, f, g=None, bp=None, slopes=None, anchor=None):
        self.mu, self.f, self.g = mu, f, g
        self.bp, self.slopes, self.anchor = bp, slopes, anchor
        if bp is None:
            return
        self.knots = np.empty_like(bp)
        self.knots[:, 0] = anchor
        if bp.shape[1] > 1:
            # the padding only reaches knots past each row's last breakpoint
            with np.errstate(invalid="ignore"):
                steps = slopes[:, 1:-1] * (bp[:, 1:] - bp[:, :-1])
            self.knots[:, 1:] = anchor[:, None] + row_cumsum(steps)
        self.lipschitz = row_maxima(np.abs(slopes))

    @classmethod
    def one(cls, mu, f, g=None, phi=None, **fields) -> "Block":
        """The one-row block of a measure's weights, vectors and a ``PiecewiseLinearFn``."""
        return cls(
            mu=np.asarray(mu, dtype=float)[None, :],
            f=np.asarray(f, dtype=float)[None, :],
            g=None if g is None else np.asarray(g, dtype=float)[None, :],
            bp=None if phi is None else phi.breakpoints[None, :],
            slopes=None if phi is None else phi.slopes[None, :],
            anchor=None if phi is None else np.array([phi.anchor]),
            **fields,
        )

    def arrays(self) -> dict:
        return {name: getattr(self, name) for name in self.FIELDS}

    @functools.cached_property
    def phi_f(self) -> np.ndarray:
        """phi of each row at its own f, computed once, on first use: the
        block's arrays are not changed after it is built."""
        return phi(self, self.f)

    def __len__(self) -> int:
        return self.f.shape[0]


# -- row helpers ---------------------------------------------------------------

def rowdot(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row-wise dot products.  matmul on stacked rows calls the same BLAS dot
    as ``np.dot`` on each pair; a reduction by ``sum`` would round differently."""
    return (w[..., None, :] @ x[..., None])[..., 0, 0]


def row_maxima(a: np.ndarray, initial: float = -math.inf) -> np.ndarray:
    """``a.max(axis=1, initial=initial)`` of a 2-D array, a column at a
    time: numpy reduces a short row in a loop of its own for each row, about
    14 times slower at 2048 rows of 4.  The same bits where no entry is
    -0.0, as in |x| (between 0.0 and -0.0, numpy's max keeps one that
    depends on the row width)."""
    out = np.full(len(a), initial, dtype=a.dtype)
    for column in a.T:
        np.maximum(out, column, out=out)
    return out


def row_cumsum(a: np.ndarray) -> np.ndarray:
    """``np.cumsum(a, axis=1)`` of a 2-D array, bit for bit, a column at a
    time, as ``row_maxima`` reduces."""
    out = np.empty(a.shape, dtype=a.dtype)
    if a.shape[1]:
        out[:, 0] = a[:, 0]
    for j in range(1, a.shape[1]):
        np.add(out[:, j - 1], a[:, j], out=out[:, j])
    return out


def center(x: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Row-wise ``core.center``."""
    return x - rowdot(mu, x)[:, None]


def pypow(x: np.ndarray, e) -> np.ndarray:
    """x ** e of each entry of a 1-D array as Python's float ``**`` gives it:
    the C library's pow, which ``math.pow`` calls too, here mapped over the
    entries in one pass; ``e`` is one exponent or an array of one per entry.
    numpy's vectorised power may round differently."""
    return np.fromiter(map(math.pow, x.tolist(), repeat(e) if np.ndim(e) == 0 else e.tolist()), float, len(x))


def lp(x: np.ndarray, w: np.ndarray | None, p) -> np.ndarray:
    """Row-wise ``core.lp_norm``: max |x| factored out; 0 for a zero row.

    ``w`` holds each row's weights, or is None for the counting measure (a
    plain sum).  ``p`` broadcasts against the rows: one exponent, an array
    of one per row, or a grid, (E, 1) for E exponents of every row or (E, B)
    for one per exponent and row, which gives (E, B) norms.  |x|, the row
    maxima and the ratios are computed once.  One exponent, and each of an
    (E, 1) column's, takes its power, sum and root over every row; an array
    of one exponent per row whose entries all agree counts as one exponent.
    Exponents that vary by row take theirs in one pass: every power in one
    ``ratios ** p``, every sum in one reduction and every root in one
    ``pypow`` map.  p = inf is the maximum, p = 1 takes no power and no
    root (x ** 1.0 is x), and p = 2 squares, as numpy's ``x ** 2.0`` does
    (its power at an array of exponents may round the square differently).
    """
    a = np.abs(x)
    m = row_maxima(a, 0.0)
    ratios = a / np.where(m == 0.0, 1.0, m)[:, None]
    if np.shape(p) == m.shape and m.size and (p == p[0]).all():
        p = float(p[0])
    if np.ndim(p) == 0 or np.shape(p)[-1:] != m.shape:  # every row takes each exponent
        def norm(e):  # the norms of every row at e
            if math.isinf(e):
                return m
            powers = ratios if e == 1.0 else ratios ** e
            total = powers.sum(axis=1) if w is None else rowdot(w, powers)
            return m * (total if e == 1.0 else pypow(total, 1.0 / e))
        if np.ndim(p) == 0:
            return norm(p)
        return np.array([norm(e) for e in np.ravel(p).tolist()]).reshape(np.broadcast_shapes(np.shape(p), m.shape))
    p = np.asarray(p, dtype=float)
    e = p[..., None]
    powers = ratios ** e
    np.copyto(powers, np.square(ratios), where=e == 2.0)
    np.copyto(powers, ratios, where=e == 1.0)
    total = powers.sum(axis=-1) if w is None else rowdot(w, powers)
    root = (p != 1.0) & (p != math.inf)
    total[root] = pypow(total[root], 1.0 / p[root])
    return np.where(p == math.inf, m, m * total)


def phi(b: Block, x: np.ndarray) -> np.ndarray:
    """phi of each row applied to the same row of x, as ``PiecewiseLinearFn.__call__``."""
    bp, slopes = b.bp, b.slopes
    idx = np.zeros(x.shape, dtype=np.intp)  # the breakpoints at or left of x, a column at a time
    for j in range(bp.shape[1]):
        idx += bp[:, j:j + 1] <= x
    left = np.maximum(idx - 1, 0)
    # flat indices into the (B, M) knots and breakpoints and the (B, M + 1) slopes
    left += np.arange(0, bp.size, bp.shape[1])[:, None]
    idx += np.arange(0, slopes.size, slopes.shape[1])[:, None]
    return np.take(b.knots, left) + np.take(slopes, idx) * (x - np.take(bp, left))


def _variance(x: np.ndarray, mu: np.ndarray) -> np.ndarray:
    d = center(x, mu)
    return rowdot(mu, d * d)


# -- kernels: (lhs, rhs) of each row -----------------------------------------

def leibniz(b: Block, r, p1, q1, p2, q2):
    """||fg - E(fg)||_r against ||f||_p1 ||g - Eg||_q1 + ||g||_p2 ||f - Ef||_q2;
    returns lhs and the two terms of the right-hand side."""
    mu, f, g = b.mu, b.f, b.g
    lhs = lp(center(f * g, mu), mu, r)
    term_f = lp(f, mu, p1) * lp(center(g, mu), mu, q1)
    term_g = lp(g, mu, p2) * lp(center(f, mu), mu, q2)
    return lhs, term_f, term_g


def chain_rule(b: Block, p):
    """||phi(f) - E phi(f)||_p against Lip(phi) ||f - Ef||_p."""
    lhs = lp(center(b.phi_f, b.mu), b.mu, p)
    rhs = b.lipschitz * lp(center(b.f, b.mu), b.mu, p)
    return lhs, rhs


def markov_variance(b: Block):
    """Var phi(f) against Lip(phi)^2 Var f; ValueError if Lip(phi)^2 overflows."""
    try:
        square = pypow(b.lipschitz, 2)
    except OverflowError:
        raise ValueError("Lip(phi)^2 overflows the float range") from None
    return _variance(b.phi_f, b.mu), square * _variance(b.f, b.mu)


def strong_leibniz(b: Block, p):
    """||f^-1 - E f^-1||_p against ||f^-1||_inf^2 ||f - Ef||_p; f must be invertible."""
    inv = 1.0 / b.f
    lhs = lp(center(inv, b.mu), b.mu, p)
    rhs = pypow(row_maxima(np.abs(inv)), 2) * lp(center(b.f, b.mu), b.mu, p)
    return lhs, rhs


def square_bound(b: Block, p):
    """||f^2 - E f^2||_p against 2 ||f||_inf ||f - Ef||_p."""
    lhs = lp(center(b.f * b.f, b.mu), b.mu, p)
    rhs = 2.0 * row_maxima(np.abs(b.f)) * lp(center(b.f, b.mu), b.mu, p)
    return lhs, rhs


# -- stacked n x n matrices: (B, n, n), one matrix per row -------------------------

class DegenerateInputError(ValueError):
    """Sample points too close for a stable divided-difference matrix."""


#: Relative gap below which divided differences are refused.
MIN_RELATIVE_GAP = 1e-9


def matvec(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Each M @ v.  Stacked matmul calls the same BLAS gemv as one matrix times
    one vector; a single gemm over all rows would round differently."""
    return np.matmul(M, v[:, :, None])[:, :, 0]


def _zero_sum_diagonal(T: np.ndarray) -> np.ndarray:
    """Set each diagonal to minus its off-diagonal row sum, in place."""
    d = np.arange(T.shape[1])
    T[:, d, d] = 0.0
    T[:, d, d] = -T.sum(axis=2)
    return T


def theta(x: np.ndarray) -> np.ndarray:
    """``operators.theta_matrix`` of each row: off-diagonal (x_i + x_j) / (2n), zero row sums."""
    return _zero_sum_diagonal((x[:, :, None] + x[:, None, :]) / (2.0 * x.shape[1]))


def divided_differences(x: np.ndarray, phi) -> np.ndarray:
    """Divided differences (phi(x_i) - phi(x_j)) / (x_i - x_j) of each row, zero row sums.

    ``phi`` maps the (B, n) points to their values; it is called after every
    row has passed the gap check: a row whose minimal gap is below
    MIN_RELATIVE_GAP * (1 + max |x_i|) raises DegenerateInputError.
    """
    n = x.shape[1]
    d = np.arange(n)
    threshold = MIN_RELATIVE_GAP * (1.0 + np.abs(x).max(axis=1))
    diff = x[:, :, None] - x[:, None, :]
    if n > 1:
        gaps = np.abs(diff)
        gaps[:, d, d] = np.inf
        least = gaps.min(axis=(1, 2))
        bad = np.flatnonzero(least < threshold)
        if bad.size:
            i = bad[0]
            raise DegenerateInputError(
                f"sample points too close (min gap {least[i]:.3e} < {threshold[i]:.3e})")
    values = phi(x)
    diff[:, d, d] = 1.0
    return _zero_sum_diagonal((values[:, :, None] - values[:, None, :]) / diff)


def _offdiagonal(M: np.ndarray) -> np.ndarray:
    """The off-diagonal entries of each matrix, row-major: (B, n (n - 1))."""
    return M[:, ~np.eye(M.shape[1], dtype=bool)]


def monotone_laplacians(T: np.ndarray) -> np.ndarray:
    """Divided-difference matrices of monotone phi, each negated in place where
    phi decreases, so every one is a Laplacian; ValueError where phi is not monotone."""
    if T.shape[1] > 1:
        off = _offdiagonal(T)
        flip = off.min(axis=1) < -STRUCT_TOL
        if np.any(flip & (off.max(axis=1) > STRUCT_TOL)):
            raise ValueError("phi is not monotone: off-diagonal entries change sign")
        T[flip] = -T[flip]
    return T


def max_offdiagonal(L: np.ndarray) -> np.ndarray:
    """max_{i != j} L_ij of each matrix (0 for 1 x 1 matrices)."""
    if L.shape[1] == 1:
        return np.zeros(L.shape[0])
    return _offdiagonal(L).max(axis=1)


#: Most negative eigenvalue of -L that ``validate_laplacians`` accepts in a
#: matrix of small entries; the bound grows with the matrix's norm.
PSD_TOL = 1e-9


def rounding_tolerance(floor, n: int, scale):
    """max(floor, n eps scale): a sum of n terms of magnitude up to ``scale``
    (one per row, or one in all) rounds by up to about n eps scale.  A
    negative floor asks for a margin, and is kept as it is."""
    if floor < 0:
        return floor
    return np.maximum(floor, n * np.finfo(float).eps * scale)


def _held(scale):
    """``scale`` held at the largest float, so that a deviation or a side that
    overflows is never within the tolerance taken at it."""
    return np.minimum(scale, sys.float_info.max)


#: The rounding errors an inequality's two sides may carry, in eps times the
#: larger side: ulps per power, root and sum, times the terms.  It clears the
#: worst slack measured on a theorem-backed suite, -26.4 eps max(|lhs|, |rhs|)
#: (the chain rule), by a factor of 2.4.
INEQUALITY_ERRORS = 64


def inequality_tolerance(floor, lhs, rhs):
    """The tolerance of lhs <= rhs: ``rounding_tolerance`` of INEQUALITY_ERRORS
    terms at scale max(|lhs|, |rhs|), ``_held``, so a lhs that overflows fails
    against a finite rhs, and a nan side fails as nan does."""
    return rounding_tolerance(floor, INEQUALITY_ERRORS, _held(np.maximum(np.abs(lhs), np.abs(rhs))))


def product_scale(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The largest of max |f|, max |g| and their product in each row: the
    scale of the terms of an identity in f, g and their products, ``_held``."""
    a, b = np.abs(f).max(axis=1, initial=0.0), np.abs(g).max(axis=1, initial=0.0)
    with np.errstate(over="ignore"):
        return _held(np.maximum(np.maximum(a, b), a * b))


def validate_laplacians(L: np.ndarray) -> None:
    """Check the Laplacian contract of each matrix: finite, symmetric, zero row and
    column sums, off-diagonal >= 0, -L positive semi-definite (its smallest
    eigenvalue, the one certificate).

    Symmetry and signs are checked to STRUCT_TOL.  A sum of n entries rounds
    by up to about n eps max |L_ij|, so each matrix's sums are checked to
    max(STRUCT_TOL, n eps max |L_ij|).  The smallest eigenvalue rounds by
    about eps ||L||, ||L|| being at most the largest absolute row sum, so PSD
    is checked to max(PSD_TOL, n eps ||L||).  Raises ValueError with
    ``operators.validate_laplacian``'s message for the first of these checks
    that some matrix fails.
    """
    finite = np.isfinite(L)
    if not finite.all():  # every check below is a comparison, and nan passes each
        raise ValueError(f"matrix entries must be finite, got {', '.join(sorted(set(map(str, L[~finite].tolist()))))}")
    n = L.shape[1]
    if np.any(np.abs(L - L.swapaxes(1, 2)).max(axis=(1, 2), initial=0.0) > STRUCT_TOL):
        raise ValueError("matrix is not symmetric")
    sum_tol = rounding_tolerance(STRUCT_TOL, n, np.abs(L).max(axis=(1, 2), initial=0.0))
    if np.any(np.abs(L.sum(axis=2)).max(axis=1, initial=0.0) > sum_tol):
        raise ValueError("row sums are not zero")
    if np.any(np.abs(L.sum(axis=1)).max(axis=1, initial=0.0) > sum_tol):
        raise ValueError("column sums are not zero")
    if n > 1 and np.any(_offdiagonal(L).min(axis=1) < -STRUCT_TOL):
        raise ValueError("off-diagonal entries must be non-negative")
    norm = np.abs(L).sum(axis=2).max(axis=1, initial=0.0)
    if n > 1 and np.any(np.linalg.eigvalsh(-L)[:, 0] < -rounding_tolerance(PSD_TOL, n, norm)):
        raise ValueError("-L is not positive semi-definite")


def norms(x: np.ndarray, names) -> np.ndarray:
    """The symmetric norm of each row named in ``names``: "l<p>" (p a number or
    "inf") as ``knorms.lp_evaluator(p)``, "k<k>" as ``knorms.k_norm(., k)``.
    The l rows take one ``lp`` call at their exponents, and the k rows are
    taken together by k."""
    out, names = np.empty(x.shape[0]), np.asarray(names)
    listed = names.tolist()
    distinct = set(listed)
    exponents = {name: float(name[1:]) if name[0] == "l" else math.nan for name in distinct}
    p = np.fromiter(map(exponents.get, listed), float, len(listed))
    lrows = p == p  # not nan: an l name
    if lrows.any():
        out[lrows] = lp(x[lrows], None, p[lrows])
    for name in distinct:
        if name[0] == "k":  # the k largest of |x|
            rows = names == name
            out[rows] = np.sort(np.abs(x[rows]), axis=1)[:, ::-1][:, :int(name[1:])].sum(axis=1)
    return out


# -- kernels on stacked matrices ---------------------------------------------------

def decomposition(f: np.ndarray, g: np.ndarray):
    """fg - E(fg) against -Theta_f (g - Eg) - Theta_g (f - Ef) and against
    -Theta_f g - Theta_g f, uniform measure; the largest deviation from each."""
    uniform = np.full(f.shape, 1.0 / f.shape[1])
    fg = f * g
    lhs = fg - rowdot(uniform, fg)[:, None]
    neg_tf, tg = -theta(f), theta(g)
    centered = (matvec(neg_tf, g - rowdot(uniform, g)[:, None])
                - matvec(tg, f - rowdot(uniform, f)[:, None]))
    plain = matvec(neg_tf, g) - matvec(tg, f)
    return (np.abs(lhs - centered).max(axis=1, initial=0.0),
            np.abs(lhs - plain).max(axis=1, initial=0.0))


def centering_identity(x: np.ndarray, phi) -> np.ndarray:
    """-(1/n) T (x - mean x) against phi(x) - mean phi(x), where T holds the
    divided differences of ``phi`` (as ``divided_differences`` takes it) at
    each row of points x; the largest deviation of each row, and its scale
    (``rounding_tolerance``): the larger of max |T| max |x| and max |phi(x)|, ``_held``."""
    n = x.shape[1]
    T = divided_differences(x, phi)
    left = -matvec(T, x - x.mean(axis=1)[:, None]) / n
    values = phi(x)
    with np.errstate(over="ignore"):
        scale = _held(np.maximum(np.abs(T).max(axis=(1, 2), initial=0.0) * np.abs(x).max(axis=1, initial=0.0),
                                 np.abs(values).max(axis=1, initial=0.0)))
    return np.abs(left - (values - values.mean(axis=1)[:, None])).max(axis=1, initial=0.0), scale


def uniform_laplacian(n: int) -> np.ndarray:
    """L = (1/n) ones - identity, so that -Lf = f - mean(f)."""
    return np.full((n, n), 1.0 / n) - np.eye(n)


def derivation(f: np.ndarray) -> np.ndarray:
    """The derivation of each row: (f_i - f_j) / sqrt(2)."""
    return (f[:, :, None] - f[:, None, :]) / math.sqrt(2.0)


def derivation_adjoint(A: np.ndarray) -> np.ndarray:
    """The derivation's adjoint of each n x n matrix for the uniform inner
    products <u, v> = (1/n) sum u_i v_i on vectors and <A, B> = (1/n^2) sum
    A_ij B_ij on matrices: (row sums - column sums) / (sqrt(2) n)."""
    return (A.sum(axis=2) - A.sum(axis=1)) / (math.sqrt(2.0) * A.shape[1])


def derivation_identities(f: np.ndarray, g: np.ndarray) -> list[np.ndarray]:
    """The largest deviation of each row from each identity of the derivation
    dictionary (``operators.derivation_checks``), in its order."""
    L = uniform_laplacian(f.shape[1])
    df, dg = derivation(f), derivation(g)
    left = derivation_adjoint(f[:, :, None] * dg)
    Lf = matvec(L, f)
    deviations = (
        derivation_adjoint(df) - matvec(-L, f),
        left - (-matvec(theta(f), g)),
        derivation_adjoint(df * g[:, None, :]) - (-matvec(theta(g), f)),
        left + 0.5 * (matvec(L, f * g) - g * Lf + f * matvec(L, g)),
    )
    return [np.abs(d).max(axis=1) for d in deviations]


def laplacian_norm_bound(L: np.ndarray, x: np.ndarray, norm):
    """||Lx|| against n (max off-diagonal of L) ||x|| for mean-zero rows x;
    ``norm`` maps (B, n) rows to their (B,) symmetric norms.  Returns lhs,
    rhs, the max off-diagonal entries and ||x||."""
    top, size = max_offdiagonal(L), norm(x)
    return norm(matvec(L, x)), x.shape[1] * top * size, top, size


def hat_bounds(L: np.ndarray):
    """(max column abs sum, max row abs sum) of each L - x_inf 1^T, where
    x_inf(i) = max_{j != i} L_ij; both bounded by n (max off-diagonal of L)."""
    B, n, _ = L.shape
    if n == 1:
        return np.zeros(B), np.zeros(B)
    x_inf = (L + np.diag(np.full(n, -np.inf))).max(axis=2)
    hat = np.abs(L - x_inf[:, :, None])
    return hat.sum(axis=1).max(axis=1), hat.sum(axis=2).max(axis=1)


# -- block sampling ------------------------------------------------------------

def spread(rows: np.ndarray, gap: float) -> np.ndarray:
    """Sorted rows in place: each entry, left to right, raised to at least ``gap`` above its predecessor."""
    with np.errstate(invalid="ignore"):  # inf - inf in the padding
        for j in range(1, rows.shape[1]):
            close = rows[:, j] - rows[:, j - 1] < gap
            rows[close, j] = rows[close, j - 1] + gap
    return rows


def sample_phi(u: np.ndarray, monotone, signed=False) -> dict:
    """Padded phi arrays from each row's uniforms, as the scalar reference
    ``Trial.phi`` (``tests/scalar_reference.py``) builds phi.

    ``u`` is a 2-D array of width 2 mmax + 3 or 2 mmax + 4, where mmax is
    the largest breakpoint count; ``monotone`` and ``signed`` are one bool or
    one per row.  A row reads its breakpoint count m, 1 + the integer of u[0]
    in [0, mmax), then 2m + 2 uniforms (2m + 3 if ``signed``): m breakpoints,
    m + 1 slopes, the sign of a monotone phi if ``signed`` (otherwise it
    increases), and the anchor, all but the sign mapped to [-1, 1).  The rest
    of the row is ignored.  Slopes are normalised to unit Lipschitz constant;
    the returned ``bp`` has mmax columns, padded with +inf.
    """
    size, mmax = u.shape[0], (u.shape[1] - 3) // 2
    counts, knot_u = 1 + integers(u[:, 0], mmax), u[:, 1:]
    cols = np.arange(mmax + 1)
    m = counts[:, None]
    bp = spread(np.sort(np.where(cols[:mmax] < m, signed_uniforms(knot_u[:, :mmax]), np.inf), axis=1), 1e-6)
    live = cols <= m
    slopes = np.where(live, signed_uniforms(np.take_along_axis(knot_u, m + cols, axis=1)), 0.0)
    rows = np.arange(size)
    monotone, signed = np.broadcast_to(monotone, size), np.broadcast_to(signed, size)
    slopes = np.where(monotone[:, None], np.abs(slopes), slopes)
    slopes *= np.where(monotone & signed & (knot_u[rows, 2 * counts + 1] >= 0.5), -1.0, 1.0)[:, None]
    peak = row_maxima(np.abs(slopes))
    flat = peak < 1e-12
    slopes[flat] = live[flat].astype(float)
    peak[flat] = 1.0
    anchor = signed_uniforms(knot_u[rows, 2 * counts + 1 + signed])
    return dict(bp=bp, slopes=slopes / peak[:, None], anchor=anchor)


def sample_laplacian(u: np.ndarray, n: int) -> np.ndarray:
    """Random n x n Laplacians from each row's n (n - 1) / 2 uniforms on [0, 1):
    the strict upper triangle, row by row, mirrored, with the diagonal forced
    to zero row sums."""
    W = np.zeros((len(u), n, n))
    i, j = np.triu_indices(n, 1)
    W[:, i, j] = u
    return _zero_sum_diagonal(W + W.swapaxes(1, 2))


# -- per-trial streams ----------------------------------------------------------

#: Stream id of the search; the suites take 0-8 (``suites._run``).
SEARCH_STREAM = 9

#: Philox4x64-10: the multipliers of counter words 0 and 2, each with its
#: 32-bit halves, as 0-d arrays, which a ufunc takes faster than numpy
#: scalars; and the Weyl increments of the two key words, a row per round.
_LOW32, _32 = np.array(0xFFFFFFFF, dtype=np.uint64), np.array(32, dtype=np.uint64)
_PHILOX_MUL = tuple(tuple(np.array(v, dtype=np.uint64) for v in (m, m & 0xFFFFFFFF, m >> 32))
                    for m in (0xD2E7470EE14C6C93, 0xCA5A826395121157))
_PHILOX_BUMPS = np.arange(10, dtype=np.uint64)[:, None] * np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B],
                                                                    dtype=np.uint64)

#: Philox blocks (4 words each) computed at once, so that a search block
#: (``search.BLOCK`` trials of up to 8 blocks) is one chunk.  A chunk's four
#: counter words are four 1-D arrays of 128 kB, and the rounds hold at most
#: four temporaries more (``_mulhi``); each chunk pays the ~0.1 ms of the
#: rounds' 323 ufunc calls.
_PHILOX_CHUNK = 16384


def _word(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not 0 <= value < 2 ** 64:
        raise ValueError(f"{name} must be an integer in [0, 2**64), got {value!r}")
    return int(value)


def check_seed(seed) -> int:
    """The seed as a Philox key word: an integer in [0, 2**64), else ValueError."""
    return _word(seed, "seed")


def _mulhi(x: np.ndarray, low_m: np.ndarray, high_m: np.ndarray) -> np.ndarray:
    """The high words of the 128-bit products of the words x with the
    multiplier of 32-bit halves low_m and high_m (Hacker's Delight, 8-2)."""
    low, high = x & _LOW32, x >> _32
    t = low * low_m
    t >>= _32
    t += high * low_m
    u = t & _LOW32
    low *= high_m
    u += low
    high *= high_m
    t >>= _32
    high += t
    u >>= _32
    high += u
    return high


def _philox(key: tuple[int, int], lo: np.ndarray, hi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The 4 words of Philox4x64-10 under ``key`` (two words) at each counter
    (lo, hi, 0, 0), lo and hi being uint64 arrays: (len(lo), 4), written to
    ``out`` if given.  Each counter word is one 1-D array, so every product
    is an array times a 0-d multiplier."""
    (m0, *halves0), (m2, *halves2) = _PHILOX_MUL
    keys = [(k[0, ...], k[1, ...]) for k in np.array(key, dtype=np.uint64) + _PHILOX_BUMPS]
    # round 1: counter words 2 and 3 are 0, so only word 0's product is taken
    x0, x1, x2, x3 = hi ^ keys[0][0], np.zeros_like(lo), _mulhi(lo, *halves0), lo * m0
    x2 ^= keys[0][1]
    for k0, k1 in keys[1:]:  # each new word takes the place of one it no longer needs
        x1 ^= _mulhi(x2, *halves2)
        x1 ^= k0
        x2 *= m2
        x3 ^= _mulhi(x0, *halves0)
        x3 ^= k1
        x0 *= m0
        x0, x1, x2, x3 = x1, x2, x3, x0
    return np.stack((x0, x1, x2, x3), axis=1, out=out)


def trial_words(seed: int, stream: int, trials, width: int) -> np.ndarray:
    """The words of each trial of ``trials`` (a range, or a sequence of trial
    indices, which may repeat) as rows of W words, where W is ``width``
    rounded up to a multiple of 4: trial t reads the W words of
    ``Philox(key=(seed, stream))`` that start at counter t W / 4.  As numpy
    counts them after ``advance(t W / 4)``, words 4j to 4j + 3 are the block
    at the 128-bit counter t W / 4 + 1 + j.  ValueError for a trial index
    that is not an integer in [0, 2**64)."""
    if isinstance(trials, range) and trials.step == 1 and trials:
        for end in trials[0], trials[-1]:
            _word(end, "trial index")
        t = np.arange(len(trials), dtype=np.uint64) + np.uint64(trials.start)
    else:
        t = np.array([_word(value, "trial index") for value in trials], dtype=np.uint64)
    blocks = -(-width // 4)
    key = (check_seed(seed), stream)
    # t W / 4 as a low and a high word, the high from 32-bit halves of t (blocks < 2**32)
    low = t * blocks
    high = ((t >> _32) * blocks + ((t & _LOW32) * blocks >> _32)) >> _32
    j = np.arange(1, blocks + 1, dtype=np.uint64)
    out = np.empty((len(t), 4 * blocks), dtype=np.uint64)
    step = max(1, _PHILOX_CHUNK // blocks)
    for a in range(0, len(t), step):
        lo = low[a:a + step, None] + j
        hi = high[a:a + step, None] + (lo < j)  # the carry out of the low word
        _philox(key, lo.ravel(), hi.ravel(), out[a:a + step].reshape(-1, 4))
    return out


def uniforms(words: np.ndarray) -> np.ndarray:
    """The uniform on [0, 1) of each word w: (w >> 11) 2**-53.  Consumes
    ``words``: the uniforms take their place, so a draw holds one array."""
    words >>= np.uint64(11)
    return np.multiply(words, 2.0 ** -53, out=words.view(np.float64))


def integers(u: np.ndarray, span) -> np.ndarray:
    """The integer ((w >> 32) span) >> 32 in [0, span) of each word w, from its
    uniform u (floor(u 2**32) is w >> 32); span < 2**31.  No rejection: a
    value's chance is off 1 / span by less than 2**-32."""
    return (u * 2.0 ** 32).astype(np.int64) * span >> 32


def signed_uniforms(u: np.ndarray) -> np.ndarray:
    """``uniform(-1, 1)``: -1 + 2u of each uniform u on [0, 1)."""
    return -1.0 + 2.0 * u


def spacings(u: np.ndarray) -> np.ndarray:
    """Uniform Dirichlet measures: the n spacings of each row's n - 1 sorted
    uniforms between 0 and 1, exact (multiples of 2**-53), so each sums to 1."""
    edges = np.empty((len(u), u.shape[1] + 2))  # np.diff's prepend and append, without its concatenate
    edges[:, 0], edges[:, -1] = 0.0, 1.0
    edges[:, 1:-1] = np.sort(u, axis=1)
    return edges[:, 1:] - edges[:, :-1]


def measures(u: np.ndarray, floor: float) -> np.ndarray:
    """floor + (1 - n floor) ``spacings(u)``, each weight >= floor; ValueError where n floor >= 1."""
    n = u.shape[1] + 1
    if n * floor >= 1.0:
        raise ValueError(f"mass floor {floor} infeasible for {n} atoms")
    return floor + (1.0 - n * floor) * spacings(u)


def permutations(u: np.ndarray) -> np.ndarray:
    """The permutation of each row of uniforms: its stable argsort."""
    return np.argsort(u, axis=1, kind="stable")
