"""Sampling constants, and the samplers not in ``kernels``.

Every sampler is a function of uniforms, which the suites and the search
read from the words of each trial's stream (``kernels.trial_words``, the v2
stream rule), so a trial's draws depend only on the seed, the stream id, t
and the consumer's layout.  Both draw measures, ``uniform(-1, 1)`` vectors
and phi by ``kernels.measures``, ``kernels.signed_uniforms`` and
``kernels.sample_phi``, and the inverse bound's f by ``invertible``, a
statement's instance through ``verify.Statement.draw``; the suites'
distinct points and exponents come from ``distinct_points`` and
``sample_holder_triple_pair``.  ``tests/scalar_reference.py`` reads one
trial's words in plain Python and parses the same layouts.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import HolderTriple, reciprocal_exponent
from .kernels import integers, spread

#: Exponent grid used by randomized suites; includes the endpoint.
EXPONENT_GRID = (1.0, 1.25, 1.5, 2.0, 3.0, 4.0, 8.0, math.inf)

#: Default minimal atom mass for sampled measures.
MASS_FLOOR = 1e-3

#: Largest n that a measure with MASS_FLOOR admits (``kernels.measures`` refuses n * floor >= 1).
MAX_ATOMS = max(n for n in range(1, int(1.0 / MASS_FLOOR) + 2) if not n * MASS_FLOOR >= 1.0)

#: (p, q) pairs from the grid admitting a valid r (1/p + 1/q <= 1).
_VALID_PQ = tuple(
    (p, q)
    for p in EXPONENT_GRID
    for q in EXPONENT_GRID
    if reciprocal_exponent(p) + reciprocal_exponent(q) <= 1.0 + 1e-15
)


def invertible(mag: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """The inverse bound's f, bounded away from 0: magnitudes ``uniform(0.05, 1)``
    from ``mag``, negative where the uniform ``sign`` is below 0.5."""
    return (0.05 + (1.0 - 0.05) * mag) * np.where(sign < 0.5, -1.0, 1.0)


def distinct_points(u: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Rows of n points in [-1, 1], pairwise gaps at least 1e-3 (unsorted), from each
    row's n uniforms on [-1, 1) and a permutation of n: the uniforms sorted, each
    raised to at least 1e-3 above its predecessor (``kernels.spread``), then
    placed by the permutation (point i is the perm[i]-th smallest)."""
    return np.take_along_axis(spread(np.sort(u, axis=1), 1e-3), perm, axis=1)


@functools.cache
def _pair_table() -> tuple[np.ndarray, np.ndarray]:
    """The exponents (r, p1, q1, p2, q2) of every pair of triples: row i for
    the i-th (p1, q1) of _VALID_PQ, column j for the j-th grid exponent p2 with
    1/p2 <= 1/r (the last repeated as padding); and the count of those p2 per row."""
    table, counts = [], []
    for p, q in _VALID_PQ:
        t1 = HolderTriple.from_pq(p, q)
        u = reciprocal_exponent(t1.r)
        pairs = []
        for p2 in EXPONENT_GRID:
            if reciprocal_exponent(p2) <= u + 1e-15:
                uq = u - reciprocal_exponent(p2)
                t2 = HolderTriple(t1.r, p2, math.inf if uq <= 1e-15 else 1.0 / uq)
                pairs.append((t1.r, t1.p, t1.q, t2.p, t2.q))
        counts.append(len(pairs))
        table.append(pairs + pairs[-1:] * (len(EXPONENT_GRID) - len(pairs)))
    return np.array(table), np.array(counts)


def sample_holder_triple_pair(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Two triples sharing the same r per row, both drawn from the exponent
    grid, as (B, 5) exponents (r, p1, q1, p2, q2): (p1, q1) is the
    ``kernels.integers`` of u1 over _VALID_PQ, p2 that of u2 over the grid
    exponents p with 1/p <= 1/r, and 1/q2 = 1/r - 1/p2."""
    table, counts = _pair_table()
    first = integers(u1, len(_VALID_PQ))
    return table[first, integers(u2, counts[first])]
