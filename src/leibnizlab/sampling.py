"""Seeded samplers and sampling constants of the property suites.

Every sampler is a pure function of the generator it is given.  The suites
derive the generator of trial t as ``default_rng((seed, stream, t))``, a
block of trials at a time (``kernels.streams``), so each trial's draws depend
only on the seed, the suite's stream id and t.  Measures, vectors and
piecewise-linear functions are drawn into arrays by the suites and the
search themselves (``suites._measure``, ``kernels.sample_phi``), and distinct
points by ``distinct_points``; the scalar samplers that drew them one instance
at a time are the references in ``tests/scalar_reference.py``.
"""

from __future__ import annotations

import math

import numpy as np

from .core import HolderTriple, reciprocal_exponent
from .kernels import spread

#: Exponent grid used by randomized suites; includes the endpoint.
EXPONENT_GRID = (1.0, 1.25, 1.5, 2.0, 3.0, 4.0, 8.0, math.inf)

#: Default minimal atom mass for sampled measures.
MASS_FLOOR = 1e-3

#: Largest n that a measure with MASS_FLOOR admits (``suites._measure`` refuses n * floor >= 1).
MAX_ATOMS = max(n for n in range(1, int(1.0 / MASS_FLOOR) + 2) if not n * MASS_FLOOR >= 1.0)

#: (p, q) pairs from the grid admitting a valid r (1/p + 1/q <= 1).
_VALID_PQ = tuple(
    (p, q)
    for p in EXPONENT_GRID
    for q in EXPONENT_GRID
    if reciprocal_exponent(p) + reciprocal_exponent(q) <= 1.0 + 1e-15
)


def distinct_points(u: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Rows of n points in [-1, 1], pairwise gaps at least 1e-3 (unsorted), from each
    row's draws ``rng.uniform(-1, 1, n)`` and ``rng.permutation(n)``: row by row the
    scalar ``sample_distinct_points`` (``tests/scalar_reference.py``), gaps fixed by ``kernels.spread``."""
    return np.take_along_axis(spread(np.sort(u, axis=1), 1e-3), perm, axis=1)


def sample_holder_triple_pair(rng: np.random.Generator) -> tuple[HolderTriple, HolderTriple]:
    """Two triples sharing the same r, both drawn from the exponent grid."""
    t1 = HolderTriple.from_pq(*_VALID_PQ[rng.integers(len(_VALID_PQ))])
    u = reciprocal_exponent(t1.r)
    options = [p for p in EXPONENT_GRID if reciprocal_exponent(p) <= u + 1e-15]
    p2 = options[rng.integers(len(options))]
    uq = u - reciprocal_exponent(p2)
    q2 = math.inf if uq <= 1e-15 else 1.0 / uq
    return t1, HolderTriple(t1.r, p2, q2)
