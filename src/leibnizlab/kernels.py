"""Row-wise kernels: both sides of each inequality for a block of instances,
and the per-trial random streams, seeded a block at a time.

A ``Block`` holds instances as the rows of arrays.  Each kernel maps a block,
and its exponents (one float, or one per row), to the arrays of the two sides
of one statement.  It repeats, row by row, the floating-point operations of
evaluating one instance alone, in the same order, so a row's values do not
depend on the other rows of its block: the suites, the search and the
one-instance checkers in ``verify`` all call these kernels, and each
inequality is written here once.

``streams`` yields the generator of each trial t, equal bit for bit to
``np.random.default_rng((*prefix, t))``.  It computes numpy's ``SeedSequence``
hash and PCG64 seeding for a whole block of trials in numpy, then replays each
trial on one reused ``Generator`` by setting its state.  The first call in a
process checks this against ``default_rng``; if they ever differ (a numpy
that seeds differently), every stream is built by ``default_rng`` instead.
"""

from __future__ import annotations

import functools
import math

import numpy as np

#: Trials seeded, sampled and scored together; no result depends on it.
BLOCK = 1024


class Block:
    """Instances stored as the rows of arrays.

    ``mu``, ``f`` and ``g`` have shape (B, n).  phi (chain rule and markov) is
    kept as breakpoints (B, M) padded with +inf, slopes (B, M + 1) padded
    with 0 and anchors (B,); its knot values and Lipschitz constants are
    derived here exactly as ``PiecewiseLinearFn`` derives them.  A plain
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
                steps = slopes[:, 1:-1] * np.diff(bp, axis=1)
            self.knots[:, 1:] = anchor[:, None] + np.cumsum(steps, axis=1)
        self.lipschitz = np.abs(slopes).max(axis=1)

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

    def __len__(self) -> int:
        return self.mu.shape[0]

    def rows(self, idx) -> "Block":
        return type(self)(**{name: None if a is None else a[idx] for name, a in self.arrays().items()})


# -- row helpers ---------------------------------------------------------------

def rowdot(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row-wise dot products.  matmul on stacked rows calls the same BLAS dot
    as ``np.dot`` on each pair; a reduction by ``sum`` would round differently."""
    return (w[:, None, :] @ x[:, :, None])[:, 0, 0]


def center(x: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Row-wise ``core.center``."""
    return x - rowdot(mu, x)[:, None]


def pypow(x: np.ndarray, e: float) -> np.ndarray:
    """x ** e in Python floats.  numpy's vectorised power may round
    differently from the C library's pow, which Python's ``**`` calls."""
    return np.array([v ** e for v in x.tolist()])


def lp(x: np.ndarray, w: np.ndarray, p) -> np.ndarray:
    """Row-wise ``core.lp_norm``: max |x| factored out; 0 for a zero row.

    ``p`` is one exponent, or an array of one per row; rows are then taken
    together by exponent.
    """
    if np.ndim(p):
        exponents = set(p.tolist())
        if len(exponents) != 1:
            out = np.empty(x.shape[0])
            for e in exponents:
                rows = p == e
                out[rows] = lp(x[rows], w[rows], e)
            return out
        (p,) = exponents
    a = np.abs(x)
    m = a.max(axis=1)
    if math.isinf(p):
        return m
    ratios = a / np.where(m == 0.0, 1.0, m)[:, None]
    return m * pypow(rowdot(w, ratios ** p), 1.0 / p)


def phi(b: Block, x: np.ndarray) -> np.ndarray:
    """phi of each row applied to the same row of x, as ``PiecewiseLinearFn.__call__``."""
    idx = np.count_nonzero(b.bp[:, None, :] <= x[:, :, None], axis=2)
    left = np.maximum(idx - 1, 0)
    rows = np.arange(x.shape[0])[:, None]
    return b.knots[rows, left] + b.slopes[rows, idx] * (x - b.bp[rows, left])


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
    lhs = lp(center(phi(b, b.f), b.mu), b.mu, p)
    rhs = b.lipschitz * lp(center(b.f, b.mu), b.mu, p)
    return lhs, rhs


def markov_variance(b: Block):
    """Var phi(f) against Lip(phi)^2 Var f."""
    return _variance(phi(b, b.f), b.mu), pypow(b.lipschitz, 2) * _variance(b.f, b.mu)


def strong_leibniz(b: Block, p):
    """||f^-1 - E f^-1||_p against ||f^-1||_inf^2 ||f - Ef||_p; f must be invertible."""
    inv = 1.0 / b.f
    lhs = lp(center(inv, b.mu), b.mu, p)
    rhs = pypow(np.abs(inv).max(axis=1), 2) * lp(center(b.f, b.mu), b.mu, p)
    return lhs, rhs


def square_bound(b: Block, p):
    """||f^2 - E f^2||_p against 2 ||f||_inf ||f - Ef||_p."""
    lhs = lp(center(b.f * b.f, b.mu), b.mu, p)
    rhs = 2.0 * np.abs(b.f).max(axis=1) * lp(center(b.f, b.mu), b.mu, p)
    return lhs, rhs


# -- block sampling ------------------------------------------------------------

def dirichlet_rows(expo: np.ndarray) -> np.ndarray:
    """``dirichlet(ones(n))`` of each row's n standard exponentials: each
    divided by their sequential sum, as numpy computes it."""
    return expo * (1.0 / np.cumsum(expo, axis=1)[:, -1])[:, None]


def sample_phi(knot_u: np.ndarray, counts: np.ndarray, monotone: bool, signed: bool = False) -> dict:
    """Padded phi arrays from each row's uniforms, as ``sampling.sample_piecewise_linear``.

    ``knot_u`` is a 2-D array of width 2 mmax + 2 (2 mmax + 3 if ``signed``),
    where mmax is the largest breakpoint count; a row with m breakpoints
    reads its first 2m + 2 uniforms (2m + 3 if ``signed``): m breakpoints,
    m + 1 slopes, the sign of a monotone phi if ``signed`` (otherwise it
    increases), and the anchor, all but the sign mapped to [-1, 1).  The
    rest of the row is ignored.  Slopes are normalised to unit Lipschitz
    constant; the returned ``bp`` has mmax columns, padded with +inf.
    """
    size, mmax = knot_u.shape[0], (knot_u.shape[1] - 2 - signed) // 2
    cols = np.arange(mmax + 1)
    m = counts[:, None]
    bp = np.sort(np.where(cols[:mmax] < m, -1.0 + 2.0 * knot_u[:, :mmax], np.inf), axis=1)
    with np.errstate(invalid="ignore"):
        close = np.diff(bp, axis=1) < 1e-6
    for i in np.flatnonzero(close.any(axis=1)):
        row = bp[i]
        for j in range(1, counts[i]):
            if row[j] - row[j - 1] < 1e-6:
                row[j] = row[j - 1] + 1e-6
    live = cols <= m
    slopes = np.where(live, -1.0 + 2.0 * np.take_along_axis(knot_u, m + cols, axis=1), 0.0)
    rows = np.arange(size)
    if monotone:
        slopes = np.abs(slopes)
        if signed:
            slopes *= np.where(knot_u[rows, 2 * counts + 1] < 0.5, 1.0, -1.0)[:, None]
    peak = np.abs(slopes).max(axis=1)
    flat = peak < 1e-12
    slopes[flat] = live[flat].astype(float)
    peak[flat] = 1.0
    anchor = -1.0 + 2.0 * knot_u[rows, 2 * counts + 1 + signed]
    return dict(bp=bp, slopes=slopes / peak[:, None], anchor=anchor)


# -- block seeding -------------------------------------------------------------

# numpy's SeedSequence constants (pool of four 32-bit words) and PCG64's multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _words(v: int) -> list[int]:
    """A non-negative integer as SeedSequence reads it: 32-bit words, least significant first."""
    if v < 0:
        raise ValueError(f"seed entropy must be non-negative, got {v}")
    out = [v & _M32]
    while v > _M32:
        v >>= 32
        out.append(v & _M32)
    return out


def _pcg64_states(prefix: tuple, start: int, stop: int) -> list[tuple[int, int]]:
    """(state, inc) of ``default_rng((*prefix, t)).bit_generator`` for t in
    [start, stop), where every t has the same number of 32-bit words."""
    t = np.arange(start, stop, dtype=np.uint64)
    entropy = [np.full(len(t), w, dtype=np.uint32) for v in prefix for w in _words(v)]
    entropy += [((t >> np.uint64(32 * k)) & np.uint64(_M32)).astype(np.uint32)
                for k in range(len(_words(stop - 1)))]
    const = _INIT_A

    def hashmix(x):
        nonlocal const
        x = x ^ np.uint32(const)
        const = const * _MULT_A & _M32
        x = x * np.uint32(const)
        return x ^ (x >> np.uint32(16))

    def mix(x, y):
        z = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return z ^ (z >> np.uint32(16))

    # mix_entropy: hash the first four words into the pool, mix every pool
    # word into every other, then mix in the remaining words
    zero = np.zeros(len(t), dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(4, len(entropy)):
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(entropy[src]))
    # generate_state(4, uint64): eight words cycling over the pool
    const, words = _INIT_B, []
    for i in range(8):
        x = pool[i % 4] ^ np.uint32(const)
        const = const * _MULT_B & _M32
        x = x * np.uint32(const)
        words.append((x ^ (x >> np.uint32(16))).astype(np.uint64))
    seeds = [words[k] | (words[k + 1] << np.uint64(32)) for k in range(0, 8, 2)]
    out = []
    # pcg64_set_seed: inc = 2 * seq + 1; state = (inc + seed) * MULT + inc, mod 2^128
    for s_hi, s_lo, i_hi, i_lo in zip(*(s.tolist() for s in seeds)):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
        out.append((((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _M128, inc))
    return out


def _state(state: int, inc: int) -> dict:
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


@functools.cache
def _seeding_matches() -> bool:
    """Whether ``_pcg64_states`` reproduces ``default_rng`` in this process."""
    cases = (((0,), 0), ((7, 3), 2 ** 32 - 1), ((2 ** 40 + 3, 8), 2 ** 32), ((2 ** 32 - 1, 0), 5))
    return all(_state(*_pcg64_states(prefix, t, t + 1)[0])
               == np.random.default_rng((*prefix, t)).bit_generator.state
               for prefix, t in cases)


def streams(prefix: tuple, start: int, stop: int):
    """Yield the generator of each trial t in [start, stop): ``default_rng((*prefix, t))``.

    The states are computed a block at a time and one ``Generator`` is reused:
    each yield moves it to the next trial, so draw from it before the next.
    """
    prefix = tuple(int(v) for v in prefix)
    if not _seeding_matches():
        for t in range(start, stop):
            yield np.random.default_rng((*prefix, t))
        return
    for v in (*prefix, start):
        _words(v)  # refuses negative entropy, as SeedSequence does
    gen = np.random.default_rng(0)
    bitgen = gen.bit_generator
    lo = start
    while lo < stop:
        # a block ends early where t gains a 32-bit word
        hi = min(stop, lo + BLOCK, 1 << (32 * len(_words(lo))))
        for state, inc in _pcg64_states(prefix, lo, hi):
            bitgen.state = _state(state, inc)
            yield gen
        lo = hi
