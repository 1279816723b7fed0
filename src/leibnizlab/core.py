"""Finite probability measures, weighted L^p norms, centering and weak majorization.

Everything in this package lives on an n-point state space carrying a strictly
positive probability measure.  The conventions used throughout:

* ``lp_norm(x, mu, p)`` is the weighted norm ``(sum_i mu_i |x_i|^p)^(1/p)``,
  with ``p = math.inf`` meaning the plain maximum of ``|x_i|`` (every atom has
  positive mass, so the essential supremum is the maximum).
* ``downward_rearrange`` sorts non-increasingly; callers pass ``abs(x)`` when
  they need the rearrangement of absolute values.
* ``weak_majorizes(y, x)`` is the submajorization relation ``x <_w y``: every
  partial sum of the decreasing rearrangement of ``x`` is dominated by the
  corresponding partial sum for ``y``.

All functions are pure and operate on immutable inputs; they are safe to call
concurrently.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

#: Default absolute slack tolerance for inequality checks.
INEQUALITY_TOL = 1e-9

#: Default absolute tolerance for exact linear-algebra identities.
IDENTITY_TOL = 1e-10

#: Tolerance for structural invariants (measure normalization, zero sums).
STRUCT_TOL = 1e-12


class DimensionMismatchError(ValueError):
    """Vectors/measures of incompatible lengths were combined."""


def _is_number(v) -> bool:
    """An int (of any size) or a float, Python's or numpy's; not a bool."""
    return isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)


def _integer(value, name: str) -> int:
    """An integer argument, Python's or numpy's, as an int; ValueError naming
    it for a bool, a float, a string or anything else."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_number(x) -> float:
    """An int or a float as a float (ValueError for anything else)."""
    if not _is_number(x):
        raise ValueError(f"expected a number, got {x!r:.80}")
    try:
        return float(x)
    except OverflowError:
        raise ValueError("a number is too large for a float") from None


def as_vector(x) -> np.ndarray:
    """Coerce to a 1-D float array and require every entry to be finite (ValueError).

    Ints (of any size) and floats read as floats.  Strings, bytes, booleans,
    None and other objects are refused, not parsed: a quoted number in a
    hand-edited witness is an error, not a number.
    """
    arr = x if isinstance(x, np.ndarray) else np.array(x, dtype=object)
    kind = arr.dtype.kind
    if not (kind in "fiu" or kind == "O" and all(map(_is_number, arr.flat))):
        raise ValueError(f"expected a vector of numbers, got {x!r:.80}")
    try:
        arr = np.asarray(arr, dtype=float)
    except OverflowError:  # an int beyond the float range
        raise ValueError("a number is too large for a float") from None
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {arr.shape}")
    if arr.size < 1:
        raise ValueError("empty vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector entries must be finite")
    return arr


@dataclass(frozen=True, eq=False)
class ProbVector:
    """A strictly positive probability measure on an n-point state space.

    Zero-mass atoms are rejected; drop them before constructing the measure.
    This keeps ``p = inf`` semantics equal to the plain maximum.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = as_vector(self.weights)
        if np.any(w <= 0.0):
            raise ValueError("all probability weights must be strictly positive")
        total = float(w.sum())
        if abs(total - 1.0) > STRUCT_TOL:
            raise ValueError(f"weights sum to {total!r}, expected 1 within {STRUCT_TOL}")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.size

    @classmethod
    def uniform(cls, n: int) -> "ProbVector":
        return cls(np.full(n, 1.0 / n))

    def to_list(self) -> list[float]:
        return [float(v) for v in self.weights]


def _weights(mu) -> np.ndarray:
    """The weights of a ProbVector, or of a raw weight array read through ``ProbVector``."""
    return (mu if isinstance(mu, ProbVector) else ProbVector(mu)).weights


def as_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Two vectors of equal length, each read by ``as_vector``."""
    xv = as_vector(x)
    yv = as_vector(y)
    if xv.size != yv.size:
        raise DimensionMismatchError(f"lengths differ: {xv.size} vs {yv.size}")
    return xv, yv


def paired(x, mu) -> tuple[np.ndarray, np.ndarray]:
    """x read by ``as_vector`` and the weights of mu, one entry per atom."""
    xv = as_vector(x)
    w = _weights(mu)
    if xv.size != w.size:
        raise DimensionMismatchError(f"vector has {xv.size} entries, measure has {w.size} atoms")
    return xv, w


def expectation(x, mu) -> float:
    """E_mu(x) = sum_i mu_i x_i."""
    xv, w = paired(x, mu)
    return float(np.dot(w, xv))


def center(x, mu) -> np.ndarray:
    """x - E_mu(x) * 1; the result has expectation 0 under mu."""
    xv, w = paired(x, mu)
    return xv - float(np.dot(w, xv))


def variance(x, mu) -> float:
    """Var_mu(x) = E_mu(|x - E_mu x|^2)."""
    xv, w = paired(x, mu)
    d = xv - float(np.dot(w, xv))
    return float(np.dot(w, d * d))


def check_exponent(p: float) -> float:
    """Validate an exponent in [1, inf]; inf is a distinguished exact value."""
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise ValueError(f"exponent must lie in [1, inf], got {p!r}")
    return p


def reciprocal_exponent(p: float) -> float:
    """1/p with the convention 1/inf = 0 (exact in IEEE arithmetic)."""
    p = check_exponent(p)
    return 0.0 if math.isinf(p) else 1.0 / p


def exponent_tag(p: float):
    """An exponent as reports and witnesses write it: "inf", else the float."""
    return "inf" if math.isinf(p) else float(p)


def exponent_tags(p: np.ndarray) -> np.ndarray:
    """``exponent_tag`` of each entry of a float array, as an object array."""
    tags = p.astype(object)
    tags[np.isinf(p)] = "inf"
    return tags


def conjugate_exponent(p: float) -> float:
    """The dual exponent p* with 1/p + 1/p* = 1."""
    p = check_exponent(p)
    if math.isinf(p):
        return 1.0
    if p == 1.0:
        return math.inf
    return p / (p - 1.0)


def lp_norm(x, mu, p: float) -> float:
    """Weighted norm ``(sum_i mu_i |x_i|^p)^(1/p)``; the max of |x_i| for p = inf.

    The finite-p branch factors out ``max |x_i|`` so large exponents neither
    overflow nor underflow.
    """
    xv, w = paired(x, mu)
    p = check_exponent(p)
    scale = float(np.max(np.abs(xv)))
    if scale == 0.0 or math.isinf(p):
        return scale
    ratios = np.abs(xv) / scale
    return scale * float(np.dot(w, ratios**p)) ** (1.0 / p)


def sup_norm(x) -> float:
    """max_i |x_i|; on strictly positive measures this is the L^inf norm."""
    return float(np.max(np.abs(as_vector(x))))


def downward_rearrange(x) -> np.ndarray:
    """Non-increasing rearrangement of x (stable: ties keep original order)."""
    xv = as_vector(x)
    return xv[np.argsort(-xv, kind="stable")]


def weak_majorizes(y, x, tol: float = INEQUALITY_TOL) -> bool:
    """True iff x <_w y: partial sums of x-decreasing are dominated by y's.

    Both arguments are read through their non-increasing rearrangements;
    callers interested in the absolute-value relation pass abs(x), abs(y).
    """
    xv, yv = as_pair(x, y)
    xs = np.cumsum(np.sort(xv)[::-1])
    ys = np.cumsum(np.sort(yv)[::-1])
    return bool(np.all(xs <= ys + tol))


@dataclass(frozen=True)
class HolderTriple:
    """Exponents (r, p, q) in [1, inf] with 1/r = 1/p + 1/q (1/inf = 0)."""

    r: float
    p: float
    q: float

    def __post_init__(self):
        r = check_exponent(self.r)
        p = check_exponent(self.p)
        q = check_exponent(self.q)
        if abs(reciprocal_exponent(r) - reciprocal_exponent(p) - reciprocal_exponent(q)) > STRUCT_TOL:
            raise ValueError(f"not a Holder triple: 1/{r} != 1/{p} + 1/{q}")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @classmethod
    def from_pq(cls, p: float, q: float) -> "HolderTriple":
        """Build the triple with r determined by p and q (requires 1/p + 1/q <= 1)."""
        u = reciprocal_exponent(p) + reciprocal_exponent(q)
        if u > 1.0 + STRUCT_TOL:
            raise ValueError(f"1/{p} + 1/{q} exceeds 1; no valid r")
        r = math.inf if u <= 0.0 else 1.0 / min(u, 1.0)
        return cls(r, p, q)

    @classmethod
    def split(cls, r: float, t: float) -> "HolderTriple":
        """Split 1/r as t/r + (1-t)/r for t in [0, 1]."""
        if not 0.0 <= t <= 1.0:
            raise ValueError("split fraction must lie in [0, 1]")
        u = reciprocal_exponent(r)
        up, uq = t * u, (1.0 - t) * u
        p = math.inf if up <= 0.0 else 1.0 / up
        q = math.inf if uq <= 0.0 else 1.0 / uq
        return cls(check_exponent(r), p, q)
