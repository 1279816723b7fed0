"""Scalar references, independent of ``kernels``, for the statements the
suites, the search and the checkers evaluate as stacked blocks.

Each builds the report(s) of one instance, as the checkers and suites
computed them before they moved to the block kernels of ``leibnizlab.kernels``:
the five measure statements with ``core``'s scalar norms, and the
centered-product decomposition, the laplacian suite's three report kinds and
the identities suite's two with one n x n matrix at a time (the matrix
constructions, the Laplacian validator and the two samplers the laplacian
suite drew with are copied here).

``Trial`` reads one trial's words of a stream by the v2 stream rule, with its
own ``Philox``, and parses the documented layouts in plain Python: the suites
and the search must draw exactly these values.  The ``sample_*`` functions
below draw one instance at a time from any numpy generator, for tests of the
checkers on random instances.
"""

import math

import numpy as np

from leibnizlab.core import (
    HolderTriple, ProbVector, center, expectation, lp_norm, reciprocal_exponent, sup_norm, variance)
from leibnizlab.operators import DegenerateInputError, PiecewiseLinearFn
from leibnizlab.reports import VerificationReport
from leibnizlab.sampling import EXPONENT_GRID, MASS_FLOOR


# -- one trial of a stream, by the v2 rule -------------------------------------------

class Trial:
    """Trial t of the stream (seed, stream) whose layout is ``width`` words:
    the W words (``width`` rounded up to a multiple of 4) that start at counter
    t W / 4 of ``Philox(key=(seed, stream))``, as Python ints.  Each reader
    takes the column ``at`` where its segment starts."""

    def __init__(self, seed, stream, t, width):
        W = -(-width // 4) * 4
        gen = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))
        gen.advance(t * W // 4)
        self.words = [int(w) for w in gen.random_raw(W)]

    def uniforms(self, at, k):
        """(w >> 11) 2**-53 of k words."""
        return [(w >> 11) * 2.0 ** -53 for w in self.words[at:at + k]]

    def integer(self, at, span):
        """((w >> 32) span) >> 32 of one word: an integer in [0, span)."""
        return (self.words[at] >> 32) * span >> 32

    def vector(self, at, k):
        """``uniform(-1, 1)``: -1 + 2 u."""
        return np.array([-1.0 + 2.0 * u for u in self.uniforms(at, k)])

    def size(self, low, n_max):
        """n from word 0: low + an integer in [0, n_max - low + 1)."""
        return low + self.integer(0, n_max - low + 1)

    def measure(self, at, n, floor=MASS_FLOOR):
        """The spacings of n - 1 sorted uniforms, lifted to the mass floor."""
        cuts = [0.0] + sorted(self.uniforms(at, n - 1)) + [1.0]
        return ProbVector(np.array([floor + (1.0 - n * floor) * (b - a) for a, b in zip(cuts, cuts[1:])]))

    def permutation(self, at, n):
        """The stable argsort of n uniforms."""
        u = self.uniforms(at, n)
        return sorted(range(n), key=u.__getitem__)

    def distinct_points(self, at, at_perm, n):
        """n points in [-1, 1] with pairwise gaps at least 1e-3 (unsorted):
        n vectors sorted and spread, point i the perm[i]-th of them."""
        base = sorted(self.vector(at, n).tolist())
        for i in range(1, n):
            if base[i] - base[i - 1] < 1e-3:
                base[i] = base[i - 1] + 1e-3
        return np.array([base[i] for i in self.permutation(at_perm, n)])

    def phi(self, at, max_breakpoints, monotone, signed):
        """The breakpoint count m = 1 + an integer in [0, max_breakpoints), then
        m breakpoints, m + 1 slopes, a sign if ``signed`` and the anchor, all
        but the sign ``uniform(-1, 1)``; a monotone phi takes |slopes|,
        negated where ``signed`` and the sign is >= 0.5.  Unit Lipschitz."""
        m = 1 + self.integer(at, max_breakpoints)
        u = self.uniforms(at + 1, 2 * m + 3)
        bp = sorted(-1.0 + 2.0 * v for v in u[:m])
        for i in range(1, m):
            if bp[i] - bp[i - 1] < 1e-6:
                bp[i] = bp[i - 1] + 1e-6
        slopes = [-1.0 + 2.0 * v for v in u[m:2 * m + 1]]
        if monotone:
            sign = -1.0 if signed and u[2 * m + 1] >= 0.5 else 1.0
            slopes = [abs(v) * sign for v in slopes]
        peak = max(abs(v) for v in slopes)
        if peak < 1e-12:
            slopes, peak = [1.0] * (m + 1), 1.0
        anchor = -1.0 + 2.0 * u[2 * m + 1 + bool(signed)]
        return PiecewiseLinearFn(np.array(bp), np.array([v / peak for v in slopes]), anchor)

    def holder_pair(self, at):
        """Two triples sharing r: (p1, q1) the integer of word ``at`` over the
        grid pairs with 1/p + 1/q <= 1, p2 that of the next word over the grid
        exponents p with 1/p <= 1/r, and 1/q2 = 1/r - 1/p2."""
        pairs = [(p, q) for p in EXPONENT_GRID for q in EXPONENT_GRID
                 if reciprocal_exponent(p) + reciprocal_exponent(q) <= 1.0 + 1e-15]
        t1 = HolderTriple.from_pq(*pairs[self.integer(at, len(pairs))])
        u = reciprocal_exponent(t1.r)
        options = [p for p in EXPONENT_GRID if reciprocal_exponent(p) <= u + 1e-15]
        p2 = options[self.integer(at + 1, len(options))]
        uq = u - reciprocal_exponent(p2)
        return t1, HolderTriple(t1.r, p2, math.inf if uq <= 1e-15 else 1.0 / uq)


# -- samplers, one instance at a time from any generator ------------------------------

def sample_prob_vector(rng, n):
    """Dirichlet draw pushed away from the boundary: min weight >= MASS_FLOOR."""
    if n * MASS_FLOOR >= 1.0:
        raise ValueError(f"mass floor {MASS_FLOOR} infeasible for {n} atoms")
    d = rng.dirichlet(np.ones(n))
    return ProbVector(MASS_FLOOR + (1.0 - n * MASS_FLOOR) * d)


def sample_vector(rng, n):
    return rng.uniform(-1.0, 1.0, n)


def sample_piecewise_linear(rng, max_breakpoints, monotone=False):
    """Random piecewise-linear function on [-1, 1], Lipschitz constant normalized to 1."""
    m = int(rng.integers(1, max_breakpoints + 1))
    bp = np.sort(rng.uniform(-1.0, 1.0, m))
    for i in range(1, m):
        if bp[i] - bp[i - 1] < 1e-6:
            bp[i] = bp[i - 1] + 1e-6
    slopes = rng.uniform(-1.0, 1.0, m + 1)
    if monotone:
        slopes = np.abs(slopes) * (1.0 if rng.random() < 0.5 else -1.0)
    peak = float(np.max(np.abs(slopes)))
    if peak < 1e-12:
        slopes = np.ones(m + 1)
        peak = 1.0
    return PiecewiseLinearFn(bp, slopes / peak, float(rng.uniform(-1.0, 1.0)))


# -- the five measure statements ------------------------------------------------------


def sample_distinct_points(rng, n):
    """n points in [-1, 1] with pairwise gaps at least 1e-3 (unsorted)."""
    base = np.sort(rng.uniform(-1.0, 1.0, n))
    for i in range(1, n):
        if base[i] - base[i - 1] < 1e-3:
            base[i] = base[i - 1] + 1e-3
    return rng.permutation(base)


def _tag(p):
    return "inf" if math.isinf(p) else float(p)


def _floats(x):
    return [float(v) for v in x]


def scalar_leibniz(mu, f, g, t1, t2, tol):
    lhs = lp_norm(f * g - expectation(f * g, mu), mu, t1.r)
    term_f = lp_norm(f, mu, t1.p) * lp_norm(center(g, mu), mu, t1.q)
    term_g = lp_norm(g, mu, t2.p) * lp_norm(center(f, mu), mu, t2.q)
    return VerificationReport.from_values("leibniz_inequality", lhs, term_f + term_g, tol, {
        "mu": mu.to_list(), "f": _floats(f), "g": _floats(g),
        "exponents": {"r": _tag(t1.r), "p1": _tag(t1.p), "q1": _tag(t1.q),
                      "p2": _tag(t2.p), "q2": _tag(t2.q)},
        "rhs_terms": [term_f, term_g]})


def scalar_chain_rule(mu, f, phi, p, tol):
    lhs = lp_norm(center(np.asarray(phi(f), dtype=float), mu), mu, p)
    rhs = phi.lipschitz * lp_norm(center(f, mu), mu, p)
    return VerificationReport.from_values("chain_rule", lhs, rhs, tol, {
        "mu": mu.to_list(), "f": _floats(f), "phi": phi.to_dict(), "exponents": {"p": _tag(p)},
        "lipschitz": phi.lipschitz, "monotone": phi.is_monotone})


def scalar_markov(mu, f, phi, tol):
    lhs = variance(np.asarray(phi(f), dtype=float), mu)
    rhs = phi.lipschitz ** 2 * variance(f, mu)
    return VerificationReport.from_values("markov_variance", lhs, rhs, tol, {
        "mu": mu.to_list(), "f": _floats(f), "phi": phi.to_dict(),
        "lipschitz": phi.lipschitz, "monotone": phi.is_monotone})


def scalar_strong_leibniz(mu, f, p, tol):
    inv = 1.0 / f
    lhs = lp_norm(center(inv, mu), mu, p)
    rhs = sup_norm(inv) ** 2 * lp_norm(center(f, mu), mu, p)
    return VerificationReport.from_values("strong_leibniz", lhs, rhs, tol, {
        "mu": mu.to_list(), "f": _floats(f), "exponents": {"p": _tag(p)}})


def scalar_square(mu, f, p, tol):
    lhs = lp_norm(center(f * f, mu), mu, p)
    rhs = 2.0 * sup_norm(f) * lp_norm(center(f, mu), mu, p)
    return VerificationReport.from_values("square_function_bound", lhs, rhs, tol, {
        "mu": mu.to_list(), "f": _floats(f), "exponents": {"p": _tag(p)}})


# -- n x n matrices, one instance at a time ------------------------------------------

def sample_mean_zero(rng, n):
    v = rng.uniform(-1.0, 1.0, n)
    return v - v.mean()


def sample_laplacian(rng, n):
    return laplacian_of(rng.uniform(0.0, 1.0, (n, n)))


def laplacian_of(W):
    """The strict upper triangle of the n x n weights W, mirrored, with zero row sums."""
    W = np.triu(W, 1)
    L = W + W.T
    np.fill_diagonal(L, -L.sum(axis=1))
    return L


def theta_matrix(x):
    n = x.size
    T = (x[:, None] + x[None, :]) / (2.0 * n)
    np.fill_diagonal(T, 0.0)
    np.fill_diagonal(T, -T.sum(axis=1))
    return T


def divided_difference_matrix(x, phi):
    n = x.size
    threshold = 1e-9 * (1.0 + float(np.max(np.abs(x))))
    if n > 1:
        gaps = np.abs(x[:, None] - x[None, :]) + np.diag(np.full(n, np.inf))
        if float(gaps.min()) < threshold:
            raise DegenerateInputError(
                f"sample points too close (min gap {gaps.min():.3e} < {threshold:.3e})")
    values = np.asarray(phi(x), dtype=float)
    diff_x = x[:, None] - x[None, :]
    np.fill_diagonal(diff_x, 1.0)
    T = (values[:, None] - values[None, :]) / diff_x
    np.fill_diagonal(T, 0.0)
    np.fill_diagonal(T, -T.sum(axis=1))
    return T


def monotone_laplacian(x, phi):
    T = divided_difference_matrix(x, phi)
    off = T[~np.eye(T.shape[0], dtype=bool)]
    if off.size and float(off.min()) < -1e-12:
        if float(off.max()) > 1e-12:
            raise ValueError("phi is not monotone: off-diagonal entries change sign")
        return -T
    return T


def validate_laplacian(M, tol=1e-12, psd_tol=1e-9):
    n = M.shape[0]
    # a sum of n entries rounds by up to about n eps max |M_ij|
    sum_tol = max(tol, n * np.finfo(float).eps * float(np.max(np.abs(M), initial=0.0)))
    if float(np.max(np.abs(M - M.T), initial=0.0)) > tol:
        raise ValueError("matrix is not symmetric")
    if float(np.max(np.abs(M.sum(axis=1)), initial=0.0)) > sum_tol:
        raise ValueError("row sums are not zero")
    if float(np.max(np.abs(M.sum(axis=0)), initial=0.0)) > sum_tol:
        raise ValueError("column sums are not zero")
    off = M[~np.eye(n, dtype=bool)]
    if off.size and float(off.min()) < -tol:
        raise ValueError("off-diagonal entries must be non-negative")
    # eigvalsh rounds by about eps ||M||, ||M|| at most the largest absolute row sum
    norm = float(np.max(np.abs(M).sum(axis=1), initial=0.0))
    if n > 1 and float(np.linalg.eigvalsh(-M)[0]) < -max(psd_tol, n * np.finfo(float).eps * norm):
        raise ValueError("-L is not positive semi-definite")
    return M


def max_offdiagonal(M):
    n = M.shape[0]
    if n == 1:
        return 0.0
    return float(M[~np.eye(n, dtype=bool)].max())


def hat_bounds(L):
    M = validate_laplacian(L)
    n = M.shape[0]
    if n == 1:
        return 0.0, 0.0
    off = M + np.diag(np.full(n, -np.inf))
    x_inf = off.max(axis=1)
    Lhat = M - np.outer(x_inf, np.ones(n))
    return float(np.max(np.abs(Lhat).sum(axis=0))), float(np.max(np.abs(Lhat).sum(axis=1)))


def scalar_decomposition(f, g, tol):
    n = f.size
    uniform = np.full(n, 1.0 / n)
    lhs = f * g - float(np.dot(uniform, f * g))
    Tf, Tg = theta_matrix(f), theta_matrix(g)
    centered = -Tf @ (g - float(np.dot(uniform, g))) - Tg @ (f - float(np.dot(uniform, f)))
    plain = -Tf @ g - Tg @ f
    deviation = max(float(np.max(np.abs(lhs - centered), initial=0.0)),
                    float(np.max(np.abs(lhs - plain), initial=0.0)))
    return VerificationReport.from_values("centered_product_decomposition", deviation, 0.0, tol,
                                          {"f": _floats(f), "g": _floats(g)})


def scalar_laplacian_bound(L, x, norm, tol):
    """The bound at x - mean(x), which L maps as it maps x; the report echoes x."""
    M = validate_laplacian(L)
    n = M.shape[0]
    centered = x - x.mean()
    lhs = float(norm(M @ centered))
    rhs = n * max_offdiagonal(M) * float(norm(centered))
    return VerificationReport.from_values("laplacian_norm_bound", lhs, rhs, tol, {
        "n": n, "max_offdiag": max_offdiagonal(M), "x": _floats(x)})


def scalar_laplacian(L, x, norm_name, norm, points, phi, tol):
    """The laplacian suite's reports of one trial: the norm bound, for a
    divided-difference matrix its Lip(phi) corollary, and the hat-matrix bounds."""
    n = L.shape[0]
    rep = scalar_laplacian_bound(L, x, norm, tol)
    rep.instance["norm"] = norm_name
    reports = [rep]
    if phi is not None:
        reports.append(VerificationReport.from_values(
            "monotone_divided_difference_bound", rep.lhs, n * phi.lipschitz * float(norm(x - x.mean())), tol,
            {"n": n, "lipschitz": phi.lipschitz, "norm": norm_name, "x": _floats(x),
             "points": _floats(points), "phi": phi.to_dict()}))
    col, row = hat_bounds(L)
    reports.append(VerificationReport.from_values(
        "hat_matrix_operator_bounds", max(col, row), n * max_offdiagonal(L), tol,
        {"n": n, "col": col, "row": row}))
    return reports


def scalar_centering(x, phi, tol):
    n = x.size
    T = divided_difference_matrix(x, phi)
    left = -(T @ (x - float(x.mean()))) / n
    values = np.asarray(phi(x), dtype=float)
    deviation = float(np.max(np.abs(left - (values - float(values.mean()))), initial=0.0))
    instance = {"x": _floats(x)}
    if isinstance(phi, PiecewiseLinearFn):
        instance["phi"] = phi.to_dict()
    return VerificationReport.from_values("centering_identity", deviation, 0.0, tol, instance)


def scalar_derivation(f, g, tol):
    n = f.size
    L = np.full((n, n), 1.0 / n) - np.eye(n)
    df = (f[:, None] - f[None, :]) / math.sqrt(2.0)
    dg = (g[:, None] - g[None, :]) / math.sqrt(2.0)

    def adjoint(A):
        return (A.sum(axis=1) - A.sum(axis=0)) / (math.sqrt(2.0) * n)

    dev = {
        "laplacian_factorization": float(np.max(np.abs(adjoint(df) - (-L @ f)))),
        "left_product": float(np.max(np.abs(adjoint(f[:, None] * dg) - (-(theta_matrix(f) @ g))))),
        "right_product": float(np.max(np.abs(adjoint(df * g[None, :]) - (-(theta_matrix(g) @ f))))),
        "symmetric_form": float(np.max(np.abs(
            adjoint(f[:, None] * dg) + 0.5 * (L @ (f * g) - g * (L @ f) + f * (L @ g))))),
    }
    return VerificationReport.from_values("derivation_identities", max(dev.values()), 0.0, tol,
                                          {"f": _floats(f), "g": _floats(g), "deviations": dev})


def scalar_identities(points, phi, f, g, tol):
    """The identities suite's two reports of one trial."""
    return [scalar_centering(points, phi, tol), scalar_derivation(f, g, tol)]
