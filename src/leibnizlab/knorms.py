"""Vector k-norms, weighted k-norms, their duals, and Ky Fan dominance.

The weighted vector k-norm for a decreasing positive weight vector w is

    ||x||_(k)^w = sum_{i<=k} w_i |x|i-th-largest.

Its dual norm has the closed form

    max( ||x||_(1)/w_1, ||x||_(2)/(w_1+w_2), ..., ||x||_(k-1)/(w_1+...+w_{k-1}),
         ||x||_(n)/(w_1+...+w_k) ),

which for k = 1 degenerates to the single term ||x||_1 / w_1.  The formula is
validated against a brute-force oracle that maximizes <x, y> over an explicit
candidate superset of the extreme points of the unit ball: all sign patterns
supported on a set S with |S| in {1, ..., k-1} or |S| = n, scaled so the
weighted k-norm equals one.  Candidate enumeration is exponential and capped
at n <= 12; beyond that only the closed formula is available.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Callable, Sequence

import numpy as np

from .core import INEQUALITY_TOL, DimensionMismatchError, _integer, as_pair, as_vector, weak_majorizes

#: Largest dimension for which extreme-point candidates are enumerated.
ENUMERATION_CAP = 12

NormEvaluator = Callable[[np.ndarray], float]


class KyFanDominanceError(AssertionError):
    """A claimed symmetric norm violated Ky Fan dominance."""


def check_weight_vector(w) -> np.ndarray:
    """Validate a weight vector: positive and non-increasing."""
    wv = as_vector(w)
    if np.any(wv <= 0.0):
        raise ValueError("weights must be strictly positive")
    if np.any(np.diff(wv) > 0.0):
        raise ValueError("weights must be non-increasing")
    return wv


def _check_k(k: int, n: int) -> int:
    k = _integer(k, "k")
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    return k


def _weight_sums(wv: np.ndarray, k: int) -> np.ndarray:
    """w_1 + ... + w_j for j = 1..k, the dual norm's divisors; refused when
    they overflow, since dividing by inf would give a wrong finite norm."""
    with np.errstate(over="ignore"):
        wsum = np.cumsum(wv[:k])
    if not np.isfinite(wsum[-1]):
        raise ValueError(f"the weights' partial sums overflow: w_1 + ... + w_{k} is {wsum[-1]}")
    return wsum


def k_norm(x, k: int) -> float:
    """Sum of the k largest absolute entries (k=1: sup norm, k=n: l1 norm)."""
    xv = as_vector(x)
    k = _check_k(k, xv.size)
    a = np.sort(np.abs(xv))[::-1]
    return float(a[:k].sum())


def weighted_k_norm(x, w, k: int) -> float:
    """sum_{i<=k} w_i |x|^down_i for the validated weight vector w."""
    xv, wv = as_pair(x, check_weight_vector(w))
    k = _check_k(k, xv.size)
    a = np.sort(np.abs(xv))[::-1]
    return float(np.dot(wv[:k], a[:k]))


def dual_weighted_k_norm(x, w, k: int) -> float:
    """Closed-form dual of the weighted vector k-norm."""
    xv, wv = as_pair(x, check_weight_vector(w))
    n = xv.size
    k = _check_k(k, n)
    a = np.sort(np.abs(xv))[::-1]
    partial = np.cumsum(a)
    wsum = _weight_sums(wv, k)
    terms = [partial[j - 1] / wsum[j - 1] for j in range(1, k)]
    terms.append(partial[n - 1] / wsum[k - 1])
    return float(max(terms))


def extreme_point_candidates(w, k: int) -> np.ndarray:
    """The signed, scaled indicator candidates for the unit ball, one per row (m, n).

    Supports S range over subsets with |S| in {1, ..., k-1} union {n}; each
    is scaled by 1 / (w_1 + ... + w_min(k,|S|)).  Requires n <= ENUMERATION_CAP.
    The candidates are a superset of the true extreme-point set; every one
    has weighted k-norm exactly one, which is all that maximizing a linear
    functional over the ball requires.
    """
    wv = check_weight_vector(w)
    n = wv.size
    k = _check_k(k, n)
    if n > ENUMERATION_CAP:
        raise ValueError(f"candidate enumeration capped at n <= {ENUMERATION_CAP}, got {n}")
    wsum = _weight_sums(wv, k)
    sizes = sorted(set(range(1, k)) | {n})
    points = []
    for s in sizes:
        scale = 1.0 / wsum[min(k, s) - 1]
        for support in combinations(range(n), s):
            idx = np.array(support)
            for signs in product((-1.0, 1.0), repeat=s):
                v = np.zeros(n)
                v[idx] = np.asarray(signs) * scale
                points.append(v)
    return np.array(points)


def dual_norm_bruteforce(x, w, k: int) -> float:
    """Oracle for the dual norm: max of <x, y> over the candidate extreme points."""
    xv = as_vector(x)
    points = extreme_point_candidates(w, k)
    if points.shape[1] != xv.size:
        raise DimensionMismatchError("weight vector and x have different lengths")
    return float(np.max(points @ xv))


def lp_evaluator(p: float) -> NormEvaluator:
    """Unweighted l_p norm on R^n as a symmetric-norm evaluator."""
    p = float(p)
    if np.isinf(p):
        return lambda v: float(np.max(np.abs(v)))
    if p < 1.0:
        raise ValueError("p must be >= 1")

    def _norm(v: np.ndarray) -> float:
        a = np.abs(np.asarray(v, dtype=float))
        m = float(a.max(initial=0.0))
        if m == 0.0:
            return 0.0
        return m * float(np.sum((a / m) ** p)) ** (1.0 / p)

    return _norm


def k_norm_evaluator(k: int) -> NormEvaluator:
    """Vector k-norm as a symmetric-norm evaluator."""
    return lambda v: k_norm(v, k)


def ky_fan_dominates(y, x, norms: Sequence[NormEvaluator] = (), tol: float = INEQUALITY_TOL) -> bool:
    """Whether |x| <_w |y|; if so, every supplied symmetric norm must agree.

    Returns the weak-majorization verdict on the absolute values.  When the
    verdict is positive, each evaluator in ``norms`` is checked for
    ``norm(x) <= norm(y) + tol``; a violation means the evaluator is not a
    symmetric norm and raises KyFanDominanceError.
    """
    xv, yv = as_pair(x, y)
    dominates = weak_majorizes(np.abs(yv), np.abs(xv), tol)
    if dominates:
        for norm in norms:
            nx, ny = float(norm(xv)), float(norm(yv))
            if nx > ny + tol:
                raise KyFanDominanceError(
                    f"evaluator {norm!r} breaks dominance: {nx} > {ny} despite majorization"
                )
    return dominates
