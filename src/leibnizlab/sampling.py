"""Seeded samplers shared by the property suites and the counterexample search.

Determinism contract: every sampler is a pure function of the generator
state, and generators are derived as ``np.random.default_rng((seed, *stream))``,
so each trial's draws depend only on the seed and the trial's stream id, not
on the order in which trials run.  The suites and the search derive their
per-trial generators a block of trials at a time (``kernels.streams``), equal
to ``default_rng((seed, *stream, t))`` bit for bit; where a numpy seeds
differently, ``kernels.streams`` falls back to calling ``default_rng``.  The
five suites that sample a measure draw the same values as the samplers here
into arrays.
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

#: Largest n that ``sample_prob_vector`` accepts at MASS_FLOOR (it refuses n * floor >= 1).
MAX_ATOMS = max(n for n in range(1, int(1.0 / MASS_FLOOR) + 2) if not n * MASS_FLOOR >= 1.0)

#: (p, q) pairs from the grid admitting a valid r (1/p + 1/q <= 1).
_VALID_PQ = tuple(
    (p, q)
    for p in EXPONENT_GRID
    for q in EXPONENT_GRID
    if reciprocal_exponent(p) + reciprocal_exponent(q) <= 1.0 + 1e-15
)


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng((int(seed),) + tuple(int(s) for s in stream))


def sample_prob_vector(rng: np.random.Generator, n: int) -> ProbVector:
    """Dirichlet draw pushed away from the boundary: min weight >= MASS_FLOOR."""
    if n * MASS_FLOOR >= 1.0:
        raise ValueError(f"mass floor {MASS_FLOOR} infeasible for {n} atoms")
    d = rng.dirichlet(np.ones(n))
    return ProbVector(MASS_FLOOR + (1.0 - n * MASS_FLOOR) * d)


def sample_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, n)


def sample_distinct_points(rng: np.random.Generator, n: int) -> np.ndarray:
    """n points in [-1, 1] with pairwise gaps at least 1e-3 (unsorted)."""
    base = np.sort(rng.uniform(-1.0, 1.0, n))
    for i in range(1, n):
        if base[i] - base[i - 1] < 1e-3:
            base[i] = base[i - 1] + 1e-3
    return rng.permutation(base)


def sample_piecewise_linear(
    rng: np.random.Generator,
    max_breakpoints: int,
    monotone: bool = False,
) -> PiecewiseLinearFn:
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
