"""Seeded samplers shared by the property suites and the counterexample search.

Determinism contract: every sampler is a pure function of the generator
state, and generators are derived as ``np.random.default_rng((seed, *stream))``,
so each trial's draws depend only on the seed and the trial's stream id, not
on the order in which trials run.
"""

from __future__ import annotations

import math

import numpy as np

from .core import HolderTriple, ProbVector, reciprocal_exponent
from .operators import PiecewiseLinearFn

#: Exponent grid used by randomized suites; includes the endpoint.
EXPONENT_GRID = (1.0, 1.25, 1.5, 2.0, 3.0, 4.0, 8.0, math.inf)

#: Default minimal atom mass for sampled measures.
MASS_FLOOR = 1e-3

#: (p, q) pairs from the grid admitting a valid r (1/p + 1/q <= 1).
_VALID_PQ = tuple(
    (p, q)
    for p in EXPONENT_GRID
    for q in EXPONENT_GRID
    if reciprocal_exponent(p) + reciprocal_exponent(q) <= 1.0 + 1e-15
)


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng((int(seed),) + tuple(int(s) for s in stream))


def sample_prob_vector(rng: np.random.Generator, n: int, floor: float = MASS_FLOOR) -> ProbVector:
    """Dirichlet draw pushed away from the boundary: min weight >= floor."""
    if n * floor >= 1.0:
        raise ValueError(f"mass floor {floor} infeasible for {n} atoms")
    d = rng.dirichlet(np.ones(n))
    return ProbVector(floor + (1.0 - n * floor) * d)


def sample_vector(rng: np.random.Generator, n: int, lo: float = -1.0, hi: float = 1.0) -> np.ndarray:
    return rng.uniform(lo, hi, n)


def sample_mean_zero(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.uniform(-1.0, 1.0, n)
    return v - v.mean()


def sample_distinct_points(rng: np.random.Generator, n: int, min_gap: float = 1e-3) -> np.ndarray:
    """n points in [-1, 1] with pairwise gaps at least min_gap (unsorted)."""
    base = np.sort(rng.uniform(-1.0, 1.0, n))
    for i in range(1, n):
        if base[i] - base[i - 1] < min_gap:
            base[i] = base[i - 1] + min_gap
    return rng.permutation(base)


def sample_piecewise_linear(
    rng: np.random.Generator,
    max_breakpoints: int,
    monotone: bool = False,
    span: tuple[float, float] = (-1.0, 1.0),
) -> PiecewiseLinearFn:
    """Random piecewise-linear function, Lipschitz constant normalized to 1."""
    m = int(rng.integers(1, max_breakpoints + 1))
    bp = np.sort(rng.uniform(span[0], span[1], m))
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


def sample_holder_triple(rng: np.random.Generator) -> HolderTriple:
    p, q = _VALID_PQ[rng.integers(len(_VALID_PQ))]
    return HolderTriple.from_pq(p, q)


def sample_holder_triple_pair(rng: np.random.Generator) -> tuple[HolderTriple, HolderTriple]:
    """Two triples sharing the same r, both drawn from the exponent grid."""
    t1 = sample_holder_triple(rng)
    u = reciprocal_exponent(t1.r)
    options = [p for p in EXPONENT_GRID if reciprocal_exponent(p) <= u + 1e-15]
    p2 = options[rng.integers(len(options))]
    uq = u - reciprocal_exponent(p2)
    q2 = math.inf if uq <= 1e-15 else 1.0 / uq
    return t1, HolderTriple(t1.r, p2, q2)


def sample_laplacian(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random Laplacian: symmetric non-negative off-diagonal, forced diagonal."""
    W = rng.uniform(0.0, 1.0, (n, n))
    W = np.triu(W, 1)
    L = W + W.T
    np.fill_diagonal(L, -L.sum(axis=1))
    return L
