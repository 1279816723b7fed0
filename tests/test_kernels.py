"""Block seeding: ``kernels.streams`` and ``kernels.trial_words`` against
``default_rng``, the ziggurat table and Lemire rejection of ``trial_draws``,
and their fallbacks; ``kernels.sample_phi`` with its modes set per row, and the
gap rule of ``kernels.spread`` against the sequential rule, alone and through
its two callers."""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import leibnizlab.kernels as kernels
from leibnizlab.sampling import distinct_points
from leibnizlab.search import SearchConfig, search

SEEDS = (0, 7, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 3)


@pytest.mark.parametrize("seed", SEEDS)
def test_streams_match_default_rng(seed):
    # the suites' (seed, stream, t) for streams 0-8, and the search's (seed, t)
    for prefix in [(seed, stream) for stream in range(9)] + [(seed,)]:
        got = [rng.bit_generator.state for rng in kernels.streams(prefix, 0, 3000)]
        assert got == [np.random.default_rng((*prefix, t)).bit_generator.state for t in range(3000)]


@pytest.mark.parametrize("seed", SEEDS)
def test_streams_cross_the_32_bit_boundary_of_t(seed):
    # t = 2^32 - 1 is the last one-word trial index; the block ends there
    for prefix in ((seed, 8), (seed,)):
        ts = range(2 ** 32 - 3, 2 ** 32 + 2)
        rngs = kernels.streams(prefix, ts.start, ts.stop)
        for t, rng in zip(ts, rngs):
            ref = np.random.default_rng((*prefix, t))
            assert rng.bit_generator.state == ref.bit_generator.state
            assert np.array_equal(rng.random(4), ref.random(4))
            assert rng.integers(0, 10, 3).tolist() == ref.integers(0, 10, 3).tolist()


def test_streams_refuse_negative_entropy():
    for prefix, start in (((-1, 0), 0), ((3,), -2)):
        with pytest.raises(ValueError):
            next(kernels.streams(prefix, start, start + 1))


def test_seeding_is_checked_on_first_use_not_at_import():
    # importing leibnizlab and building the CLI parser checks no seeding
    # and probes no ziggurat table
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import leibnizlab, leibnizlab.kernels as k; "
            "import leibnizlab.cli as cli; cli.build_parser(); "
            "lazy = (k._seeding_matches, k._ziggurat); "
            "a = [f.cache_info().currsize for f in lazy]; next(k.streams((1,), 0, 1)); "
            "print(*a, k._seeding_matches.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0", "1"]


def test_fallback_builds_each_stream_with_default_rng(monkeypatch):
    cfg = SearchConfig(target="chain_rule", n=4, p_grid=(1.0, 3.0, math.inf), trials=1100,
                       refine_steps=2, seed=21)
    seeded = search(cfg)
    trials = [*range(0, 300), 2 ** 32 - 1, 2 ** 32, 7, 7]
    drawn = kernels.trial_draws((21,), trials, 4, 4, 4, 1, 10)
    assert len({id(rng) for rng in list(kernels.streams((5, 1), 0, 3))}) == 1
    monkeypatch.setattr(kernels, "_seeding_matches", lambda: False)
    assert len({id(rng) for rng in list(kernels.streams((5, 1), 0, 3))}) == 3
    # every row of trial_draws drawn by default_rng: the same rows
    for a, b in zip(kernels.trial_draws((21,), trials, 4, 4, 4, 1, 10), drawn):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    fallback = search(cfg)
    assert (fallback.witness, fallback.per_p, fallback.history) == (
        seeded.witness, seeded.per_p, seeded.history)


@pytest.mark.parametrize("seed", SEEDS)
def test_trial_words_match_random_raw(seed):
    # one-word and two-word trial indices in one array, in any order and
    # repeated; with the prefix (seed, 8), t's high word is the fifth or
    # sixth entropy word, mixed in only where t >= 2**32
    t = [5, 2 ** 32 + 1, 0, 2 ** 32 - 1, 5, 2 ** 32, 2 ** 40 + 7, *range(100, 160)]
    for prefix in ((seed,), (seed, 8)):
        words, _ = kernels.trial_words(prefix, np.array(t, dtype=np.uint64), 21)
        ref = [np.random.default_rng((*prefix, v)).bit_generator.random_raw(21) for v in t]
        assert np.array_equal(words, np.array(ref))


def _before(word: int) -> dict:
    """The PCG64 state, with inc 1, whose next output is ``word``: the step
    leads to the state (0, word), whose output is the word itself."""
    state = (word - 1) * pow(kernels._PCG_MULT, -1, 2 ** 128) % 2 ** 128
    return kernels._state(state >> 64, state & (2 ** 64 - 1), 0, 1)


def test_ziggurat_estimates_lie_within_the_guard_band():
    # numpy's ke[idx], found by binary search on ri: the least ri whose
    # exponential reads more than its own word (2**53 where none does)
    gen = np.random.default_rng(0)
    we, below = kernels._ziggurat()
    for idx in range(256):
        lo, hi = 0, 2 ** 53
        while lo < hi:
            mid = (lo + hi) // 2
            word = mid << 11 | idx << 3
            gen.bit_generator.state = _before(word)
            gen.standard_exponential()
            if gen.bit_generator.state["state"]["state"] == word:
                lo = mid + 1
            else:
                hi = mid
        if idx < 2:
            assert below[idx] == 0  # always slow; ke[1] is 0
            assert idx == 0 or lo == 0
        else:
            assert abs(lo - (int(below[idx]) + 2 ** 10)) <= 3  # the guard band is 2**10
            assert int(below[idx]) < lo
        # ri = 1 draws we[idx] (for idx 1 through the slow path's first test)
        gen.bit_generator.state = _before(1 << 11 | idx << 3)
        assert gen.standard_exponential() == we[idx]


def test_lemire_rejection_goes_to_the_generator(monkeypatch):
    # a row whose integer word has low half 0, which Lemire rejects for span
    # 5: numpy takes the first integer from the high half and the second
    # from the next word, so trial_draws must draw that row on the Generator
    n, head, span, count, tail = 3, 2, 5, 2, 3
    kernels._seeding_matches()  # cached before the patch below
    a, c = 1, 0
    for _ in range(n + head + 1):
        a, c = a * kernels._PCG_MULT % 2 ** 128, (c * kernels._PCG_MULT + 1) % 2 ** 128
    gen = np.random.default_rng(0)
    for high in range(2 ** 32 - 1, 0, -1):
        # the state after n + head + 1 steps is (0, word): its output is the word
        state = ((high << 32) - c) * pow(a, -1, 2 ** 128) % 2 ** 128
        gen.bit_generator.state = kernels._state(state >> 64, state & (2 ** 64 - 1), 0, 1)
        if kernels._exponentials(gen.bit_generator.random_raw((1, n)))[1][0]:
            break  # the exponentials read one word each, so the integers read that word
    seeded = np.array([[state >> 64], [state & (2 ** 64 - 1)], [0], [1]], dtype=np.uint64)
    monkeypatch.setattr(kernels, "_pcg64_states", lambda prefix, t: np.repeat(seeded, len(t), axis=1))
    got = kernels.trial_draws((0,), [0, 1], n, head, span, count, tail)
    gen.bit_generator.state = kernels._state(state >> 64, state & (2 ** 64 - 1), 0, 1)
    ref = (gen.standard_exponential(n), gen.random(head), [gen.integers(span) for _ in range(count)],
           gen.random(tail))
    assert got[2][0, 0] == (high * span) >> 32 == 4
    for rows, want in zip(got, ref):
        assert np.array_equal(rows[0], want) and np.array_equal(rows[1], want)


@pytest.mark.parametrize("width", [2, 3])
@pytest.mark.parametrize("mb", range(1, 7))
def test_sample_phi_modes_per_row_match_scalar_calls(mb, width):
    # one call with a monotone and a signed flag per row gives each row, bit
    # for bit, what a call with its flags as scalars gives; rows of width
    # 2 mb + 2 have no room for the sign of an m = mb row, so they are unsigned
    modes = [(mono, sign) for mono in (False, True) for sign in (False, True)[:width - 1]]
    rows = [(m, mono, sign) for m in range(1, mb + 1) for mono, sign in modes]
    rows.append((mb, True, width == 3))  # its slopes all flat
    rng = np.random.default_rng(mb)
    knot_u = rng.random((len(rows), 2 * mb + width))
    knot_u[-1, mb:2 * mb + 1] = 0.5
    counts, monotone, signed = (np.array(col) for col in zip(*rows))
    got = kernels.sample_phi(knot_u, counts, monotone, signed=signed)
    assert np.all(got["slopes"][-1] == 1.0)
    for i, (_, mono, sign) in enumerate(rows):
        alone = kernels.sample_phi(knot_u[i:i + 1], counts[i:i + 1], bool(mono), signed=bool(sign))
        for key, a in alone.items():
            assert [v.hex() for v in got[key][i].ravel().tolist()] == [v.hex() for v in a[0].ravel().tolist()]


def _clustered_rows(gap, padded, rows=200, width=8, seed=5):
    """Sorted rows in [-1, 1) with a cluster of 3-5 values closer than ``gap``
    and, if ``padded``, in all but the first 20 rows a +inf tail of 1 to
    width - 1 entries; also each row's count of finite entries."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, (rows, width))
    for row in x:
        k = int(rng.integers(3, 6))
        at = int(rng.integers(0, width - k + 1))
        row[at:at + k] = row[at] + rng.uniform(0.0, gap, k)
    x.sort(axis=1)
    live = np.concatenate([np.full(20, width), rng.integers(1, width, rows - 20)]) if padded else np.full(rows, width)
    x[np.arange(width) >= live[:, None]] = np.inf
    return x, live


def _spread_alone(row, gap):
    """The gap rule one row at a time, in Python floats."""
    out = list(row)
    for j in range(1, len(out)):
        if out[j] - out[j - 1] < gap:
            out[j] = out[j - 1] + gap
    return out


def _hex(rows):
    return [[v.hex() for v in row] for row in np.asarray(rows).tolist()]


@pytest.mark.parametrize("caller", ["spread", "sample_phi", "distinct_points"])
def test_spread_matches_the_sequential_rule(caller):
    gap = 1e-3 if caller == "distinct_points" else 1e-6
    x, live = _clustered_rows(gap, padded=caller != "distinct_points")
    if caller == "spread":
        got, sorted_rows = kernels.spread(x.copy(), gap), x
    elif caller == "sample_phi":  # breakpoints -1 + 2u; the rest of each row is its slopes and anchor
        knot_u = np.random.default_rng(9).random((len(x), 2 * x.shape[1] + 2))
        knot_u[:, :x.shape[1]] = np.where(np.isfinite(x), (x + 1.0) / 2.0, 0.5)
        got = kernels.sample_phi(knot_u, live, False)["bp"]
        sorted_rows = np.sort(np.where(np.isfinite(x), -1.0 + 2.0 * knot_u[:, :x.shape[1]], np.inf), axis=1)
    else:  # each row's points reversed in, and read out in a random order
        perm = np.argsort(np.random.default_rng(3).random(x.shape), axis=1)
        got, sorted_rows = distinct_points(x[:, ::-1].copy(), perm), x
    want = np.array([_spread_alone(row, gap) for row in sorted_rows.tolist()])
    assert np.count_nonzero((want != sorted_rows).any(axis=1)) >= 100  # the rule moves at least half the rows
    if caller == "distinct_points":
        want = np.take_along_axis(want, perm, axis=1)
    assert _hex(got) == _hex(want)
