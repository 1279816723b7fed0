"""The v2 stream rule: ``kernels.trial_words`` against numpy's ``Philox``,
one-trial replay, the seed's domain and the conversions pinned by their
bits; ``kernels.sample_phi`` with its modes set per row, the gap rule of
``kernels.spread`` against the sequential rule, alone and through its two
callers; ``kernels.lp`` on a grid of exponents against one call per
exponent and at exponents per row against one call per row, bit for bit,
and ``kernels.norms`` against each row's norm alone; ``kernels.pypow``
against Python's ``**``; ``kernels.phi`` against
``PiecewiseLinearFn.__call__``, and the row reductions a column at a time
against numpy's, bit for bit."""

import hashlib
import importlib
import math
import random

import numpy as np
import pytest
from scalar_reference import Trial

import leibnizlab.kernels as kernels
import leibnizlab.suites as suites
from leibnizlab.knorms import k_norm
from leibnizlab.operators import PiecewiseLinearFn
from leibnizlab.sampling import EXPONENT_GRID, MASS_FLOOR, MAX_ATOMS, distinct_points, sample_holder_triple_pair
from leibnizlab.search import SearchConfig, random_instance

search_mod = importlib.import_module("leibnizlab.search")

SEEDS = (0, 7, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 3)


def _philox(seed, stream, t, W):
    """Trial t's W words as the rule states it, with a generator of its own."""
    gen = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))
    gen.advance(t * W // 4)
    return gen.random_raw(W)


@pytest.mark.parametrize("seed", SEEDS)
def test_streams_match_philox(seed):
    # the suites' streams 0-8 and the search's 9, each read as a range of
    # trials; a width is padded to a multiple of 4
    for stream in range(10):
        for width, W in ((5, 8), (8, 8), (1, 4)):
            ref = np.array([_philox(seed, stream, t, W) for t in range(40)])
            assert np.array_equal(kernels.trial_words(seed, stream, range(0, 40), width), ref)


@pytest.mark.parametrize("seed", SEEDS)
def test_trial_words_match_random_raw(seed):
    # trials as a list in any order and repeated, on both sides of t = 2**32
    picks = [5, 2 ** 32 + 1, 0, 2 ** 32 - 1, 5, 2 ** 32, 2 ** 40 + 7, *range(100, 110)]
    for stream in (0, 8, kernels.SEARCH_STREAM):
        for width, W in ((21, 24), (8, 8)):
            ref = np.array([_philox(seed, stream, t, W) for t in picks])
            assert np.array_equal(kernels.trial_words(seed, stream, picks, width), ref)


@pytest.mark.parametrize("seed", SEEDS)
def test_streams_cross_the_32_bit_boundary_of_t(seed):
    # one block across t = 2**32, and each of its rows read alone
    for stream in (8, kernels.SEARCH_STREAM):
        ts = range(2 ** 32 - 3, 2 ** 32 + 2)
        block = kernels.trial_words(seed, stream, ts, 20)
        for row, t in zip(block, ts):
            assert np.array_equal(row, _philox(seed, stream, t, 20))
            assert np.array_equal(row, kernels.trial_words(seed, stream, [t], 20)[0])


@pytest.mark.parametrize("t", [0, 5, 1023, 1024, 2 ** 40])
def test_one_trial_replays_its_row(t):
    # a trial read alone is its row of any block that holds it: the words,
    # a search instance, and the plain-Python reader of the reference
    ts = range(max(0, t - 3), t + 3)
    block = kernels.trial_words(11, 4, ts, 30)
    assert np.array_equal(kernels.trial_words(11, 4, range(t, t + 1), 30)[0], block[t - ts.start])
    assert Trial(11, 4, t, 30).words == block[t - ts.start].tolist()
    cfg = SearchConfig(target="chain_rule", n=4, seed=11)
    rows = search_mod._sample(cfg, ts)
    alone = random_instance(cfg, t).to_dict()
    assert alone == rows.row(t - ts.start).to_dict()


def test_streams_refuse_negative_entropy():
    # the seed is one Philox key word: an integer in [0, 2**64)
    assert kernels.check_seed(2 ** 64 - 1) == 2 ** 64 - 1
    assert kernels.trial_words(2 ** 64 - 1, 0, range(0, 1), 4).shape == (1, 4)
    for bad in (-1, 2 ** 64, 1.0, True, "3"):
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
            kernels.check_seed(bad)
    for bad in (-1, 2 ** 64):
        with pytest.raises(ValueError):
            kernels.trial_words(bad, 0, range(0, 1), 4)
        with pytest.raises(ValueError):
            suites.suite_decomposition(trials=2, seed=bad)
        with pytest.raises(ValueError):
            SearchConfig(target="chain_rule", seed=bad)
    assert suites.suite_decomposition(trials=2, seed=2 ** 64 - 1).trials == 2


def _numpy_blocks(key0, key1, start, count):
    """``count`` blocks of numpy's C Philox under the key (key0, key1) after ``advance(start)``."""
    gen = np.random.Philox(key=np.array([key0, key1], dtype=np.uint64))
    gen.advance(start)
    return gen.random_raw(4 * count).reshape(count, 4)


def _blocks(key0, key1, start, count):
    """The same blocks from ``kernels._philox``: counters start + 1 to start + count, 128 bits each."""
    counters = range(start + 1, start + count + 1)
    lo = np.array([c % 2 ** 64 for c in counters], dtype=np.uint64)
    hi = np.array([c >> 64 for c in counters], dtype=np.uint64)
    return kernels._philox((key0, key1), lo, hi)


def test_philox_matches_numpy_on_random_keys_and_counters():
    # keys up to 2**64 - 1; counters anywhere below 2**65, and often just
    # below a multiple of 2**64, where the carry reaches the second word
    rng = random.Random(24)
    for _ in range(200):
        key0, key1 = rng.choice([0, 2 ** 64 - 1, rng.getrandbits(64)]), rng.getrandbits(64)
        count = rng.randint(1, 40)
        low = rng.choice([rng.getrandbits(64), 2 ** 64 - rng.randint(1, 45)])
        start = rng.randint(0, 1) * 2 ** 64 + low
        assert np.array_equal(_blocks(key0, key1, start, count), _numpy_blocks(key0, key1, start, count))


def test_philox_counter_wraps_into_its_second_word():
    # advance(2**64 - 2) then 4 blocks: counters 2**64 - 1, 2**64, 2**64 + 1, 2**64 + 2
    for key in ((0, 0), (7, 0), (2 ** 64 - 1, kernels.SEARCH_STREAM)):
        assert np.array_equal(_blocks(*key, 2 ** 64 - 2, 4), _numpy_blocks(*key, 2 ** 64 - 2, 4))


def test_trial_list_with_repeats_is_one_call():
    # repeats, the last trial index and a width of many blocks, so one call
    # spans several chunks of counters
    picks = [3, 3, 0, 2 ** 64 - 1, 3, 17, 2 ** 63, 0]
    for width in (4, 4 * kernels._PHILOX_CHUNK // 3 + 1):
        words = kernels.trial_words(9, 2, picks, width)
        assert words.shape == (len(picks), -(-width // 4) * 4)
        for row, t in zip(words, picks):
            assert np.array_equal(row, _philox(9, 2, t, words.shape[1]))
    # a range of trials that spans several chunks is the same as numpy's one draw
    ts = range(2 ** 64 - 40, 2 ** 64)
    assert np.array_equal(kernels.trial_words(5, 1, ts, 1000).ravel(),
                          _numpy_blocks(5, 1, ts.start * 250, 40 * 250).ravel())


def test_trial_indices_refused_outside_the_counter_range():
    # a trial index is an integer in [0, 2**64), as a seed is
    assert kernels.trial_words(0, 0, range(2 ** 64 - 1, 2 ** 64), 4).shape == (1, 4)
    assert kernels.trial_words(0, 0, range(5, 5), 4).shape == (0, 4)
    for bad in ([-1], [2 ** 64], [0, 1.0], [True], ["3"], range(-1, 2), range(2 ** 64 - 1, 2 ** 64 + 1)):
        with pytest.raises(ValueError, match=r"trial index must be an integer in \[0, 2\*\*64\)"):
            kernels.trial_words(0, 0, bad, 4)


def test_conversions_are_pinned_by_their_bits():
    # trial 0 of the stream (7, 0): its first words pin numpy's Philox, then
    # the uniform, Dirichlet (spacings), integer and permutation rules
    words = kernels.trial_words(7, 0, range(0, 1), 8)
    assert words[0, :4].tolist() == [16086915834549238692, 5448529601018347655,
                                     7749434361382612120, 7478167007443709522]
    u = kernels.uniforms(words.copy())  # uniforms consumes its words
    assert [v.hex() for v in u[0, :4].tolist()] == [
        "0x1.be80697053d3fp-1", "0x1.2e744337e3990p-2", "0x1.ae2e15f941aaap-2", "0x1.9f1f2516c6e9ap-2"]
    assert [(w >> 11) * 2.0 ** -53 for w in words[0].tolist()] == u[0].tolist()
    mu = kernels.spacings(u[:, :3])
    assert [v.hex() for v in mu[0].tolist()] == [
        "0x1.2e744337e3990p-2", "0x1.fee74b0578468p-4", "0x1.ced2bce765fd4p-2", "0x1.05fe5a3eb0b04p-3"]
    assert math.fsum(mu[0].tolist()) == mu[0].sum() == 1.0
    assert kernels.integers(u[0], 5).tolist() == [4, 1, 2, 2, 0, 3, 1, 3]
    assert kernels.integers(u[0], 1000).tolist() == [872, 295, 420, 405, 82, 696, 296, 620]
    for span in (1, 5, 1000, 2 ** 30):
        assert kernels.integers(u[0], span).tolist() == [(w >> 32) * span >> 32 for w in words[0].tolist()]
    assert kernels.permutations(u).tolist() == [[4, 1, 6, 3, 2, 7, 5, 0]]
    # the extremes: word 0 reads 0, the largest word reads just below 1 and span - 1
    top = kernels.uniforms(np.array([[0, 2 ** 64 - 1]], dtype=np.uint64))
    assert top.tolist() == [[0.0, 1.0 - 2.0 ** -53]] and kernels.integers(top, 7).tolist() == [[0, 6]]


@pytest.mark.parametrize("n", [2, 3, 8, 100, MAX_ATOMS])
def test_suites_and_search_share_one_measure_rule(n):
    # spacings of multiples of 2**-53 add up to exactly 1.0, so the search's
    # projection divides by 1.0 and gives the suites' floored measures bit for bit
    u = kernels.uniforms(kernels.trial_words(n, 0, range(50), n - 1))[:, :n - 1]
    assert kernels.spacings(u).sum(axis=1).tolist() == [1.0] * 50
    for floor in (MASS_FLOOR, 0.2 / n):
        drawn = kernels.measures(u, floor)
        projected = search_mod._floored_simplex(kernels.spacings(u), floor)
        assert list(map(float.hex, drawn.ravel().tolist())) == list(map(float.hex, projected.ravel().tolist()))


def _phi_uniforms(counts, mmax, knot_u):
    """``sample_phi``'s input: a first column whose integer over mmax is each
    count less 1 (the middle of its share of [0, 1)), then the knot uniforms."""
    return np.column_stack([(np.asarray(counts) - 0.5) / mmax, knot_u])


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
    u = _phi_uniforms(counts, mb, knot_u)
    got = kernels.sample_phi(u, monotone, signed=signed)
    assert np.all(got["slopes"][-1] == 1.0)
    assert np.isfinite(got["bp"]).sum(axis=1).tolist() == counts.tolist()
    for i, (_, mono, sign) in enumerate(rows):
        alone = kernels.sample_phi(u[i:i + 1], bool(mono), signed=bool(sign))
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
        got = kernels.sample_phi(_phi_uniforms(live, x.shape[1], knot_u), False)["bp"]
        sorted_rows = np.sort(np.where(np.isfinite(x), -1.0 + 2.0 * knot_u[:, :x.shape[1]], np.inf), axis=1)
    else:  # each row's points reversed in, and read out in a random order
        perm = np.argsort(np.random.default_rng(3).random(x.shape), axis=1)
        got, sorted_rows = distinct_points(x[:, ::-1].copy(), perm), x
    want = np.array([_spread_alone(row, gap) for row in sorted_rows.tolist()])
    assert np.count_nonzero((want != sorted_rows).any(axis=1)) >= 100  # the rule moves at least half the rows
    if caller == "distinct_points":
        want = np.take_along_axis(want, perm, axis=1)
    assert _hex(got) == _hex(want)


# -- kernels.lp: one pass over a grid of exponents ------------------------------

LP_GRID = (1.0, 1.25, 2.0, 3.0, 8.0, math.inf)


def _lp_rows():
    """Random rows, all-zero rows, rows of subnormals and rows that mix them
    with normal entries, 5 atoms each; and a measure per row."""
    rng = np.random.default_rng(5)
    x = rng.uniform(-1.0, 1.0, (70, 5))
    x[::7] = 0.0
    x[1::7] *= 1e-310
    x[2::7, :2] = [4e-320, -5e-324]
    return x, rng.dirichlet(np.ones(5), len(x))


@pytest.mark.parametrize("weighted", [False, True], ids=["counting", "weights"])
def test_lp_grid_is_one_call_per_exponent(weighted):
    x, w = _lp_rows()
    w = w if weighted else None
    grid = kernels.lp(x, w, np.array(LP_GRID)[:, None])
    assert grid.shape == (len(LP_GRID), len(x))
    assert _hex(grid) == _hex([kernels.lp(x, w, p) for p in LP_GRID])
    # an exponent per grid cell, or per row: each value as its row alone at its exponent
    cells = np.random.default_rng(6).choice(LP_GRID, (3, len(x)))
    alone = [[kernels.lp(x[[i]], None if w is None else w[[i]], e)[0] for i, e in enumerate(row)] for row in cells]
    assert _hex(kernels.lp(x, w, cells)) == _hex(alone)
    assert _hex([kernels.lp(x, w, cells[0])]) == _hex(alone[:1])


def _suite_exponents():
    """Every exponent the suites give a row: the grid, and the Hoelder splits
    that ``sample_holder_triple_pair`` draws."""
    u = np.random.default_rng(7).random((2, 4000))
    return sorted(set(sample_holder_triple_pair(u[0], u[1]).ravel().tolist()) | set(EXPONENT_GRID))


@pytest.mark.parametrize("weighted", [False, True], ids=["counting", "weights"])
def test_lp_per_row_exponents_are_one_call_per_row(weighted):
    # every row of _lp_rows at every exponent, as one array of per-row
    # exponents and shuffled into an (E, B) grid; p = 2 must square, as the
    # one-exponent call does, where numpy's power at an array of exponents
    # may round the square differently
    x, w = _lp_rows()
    exponents = _suite_exponents()
    assert len(exponents) >= 15 and {1.0, 2.0, math.inf} <= set(exponents)
    rows, p = np.tile(x, (len(exponents), 1)), np.repeat(exponents, len(x))
    weights = None if not weighted else np.tile(w, (len(exponents), 1))
    alone = {(e, i % len(x)): kernels.lp(rows[[i]], None if weights is None else weights[[i]], e)[0]
             for i, e in enumerate(p.tolist())}
    assert _hex([kernels.lp(rows, weights, p)]) == _hex([list(alone.values())])
    cells = np.random.default_rng(11).permutation(p).reshape(len(exponents), len(x))
    want = [[alone[e, i] for i, e in enumerate(row)] for row in cells.tolist()]
    assert _hex(kernels.lp(x, w if weighted else None, cells)) == _hex(want)


def test_norms_take_each_row_as_its_name_alone():
    x, _ = _lp_rows()
    names = np.random.default_rng(12).choice(list(suites.NORM_FAMILY) + ["l1.25", "l8", "k1", "k3", "k5"], len(x))
    want = [kernels.norms(x[[i]], [name])[0] for i, name in enumerate(names.tolist())]
    assert _hex([kernels.norms(x, names)]) == _hex([want])
    assert _hex([kernels.norms(x, ["k2"] * len(x))]) == _hex([[k_norm(row, 2) for row in x]])


@pytest.mark.parametrize("weighted", [False, True], ids=["counting", "weights"])
def test_lp_at_1_is_the_power_and_root_form_without_either(monkeypatch, weighted):
    # 10**5 rows whose entries span every binade, subnormals and zeros included
    rng = np.random.default_rng(8)
    x = np.ldexp(rng.uniform(-1.0, 1.0, (100_000, 4)), rng.integers(-1080, 3, (100_000, 4)))
    x[::50] = 0.0
    w = rng.dirichlet(np.ones(4), len(x)) if weighted else None
    a = np.abs(x)
    m = a.max(axis=1)
    ratios = a / np.where(m == 0.0, 1.0, m)[:, None]
    powers = ratios ** 1.0
    total = powers.sum(axis=1) if w is None else kernels.rowdot(w, powers)
    expected = m * kernels.pypow(total, 1.0)

    def no_root(*args):
        raise AssertionError("p = 1 took a root")
    monkeypatch.setattr(kernels, "pypow", no_root)
    got = kernels.lp(x, w, 1.0)
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


# -- kernels.pypow: the C library's pow, as Python's float ** calls it -------------

#: sha256 of ``kernels.lp`` on the benchmark sweep's grid (2, 3, inf) over the
#: rows of ``_sweep_rows``, counting measure then weights, recorded while
#: ``pypow`` took each root with Python's ``**``.
LP_SWEEP_SHA256 = ("bafaf70a333481b16916f942721bfa27bdf844cef3e5ef373fd6d9b173001b64",
                   "e3bf31d37eff2e7575fd88d789131a4f03480a35795fa05b19238f44359a6f6e")


def _python_pow(x, e):
    """[v ** e for v in x], or the exception the first such power raises."""
    try:
        return np.array([v ** e for v in x.tolist()])
    except ArithmeticError as exc:
        return type(exc)


@pytest.mark.parametrize("e", [1.0 / p for p in EXPONENT_GRID] + [2], ids=lambda e: f"{e:.4g}")
def test_pypow_is_python_pow_bit_for_bit(e):
    # random totals and the edges: zero, the least subnormal, one, near the
    # largest float (whose square overflows), inf and nan
    rng = np.random.default_rng(9)
    edges = np.array([0.0, 5e-324, 1.0, 1e308, math.inf, math.nan])
    totals = np.concatenate([rng.uniform(0.0, 5.0, 300), np.ldexp(rng.uniform(0.5, 1.0, 50), rng.integers(-1070, 1000, 50))])
    for x in (np.concatenate([totals, edges]), np.concatenate([totals, np.delete(edges, 3)])):
        want = _python_pow(x, e)
        if isinstance(want, type):
            with pytest.raises(want):
                kernels.pypow(x, e)
        else:
            for exponent in e, np.full(len(x), e):  # one exponent, or one per entry
                got = kernels.pypow(x, exponent)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _sweep_rows():
    rng = np.random.default_rng(17)
    x = np.ldexp(rng.uniform(-1.0, 1.0, (2000, 5)), rng.integers(-1080, 3, (2000, 5)))
    x[::40] = 0.0
    return x, rng.dirichlet(np.ones(5), len(x))


def test_lp_on_the_sweep_grid_keeps_its_pinned_bits():
    x, w = _sweep_rows()
    grid = np.array([2.0, 3.0, math.inf])[:, None]
    got = tuple(hashlib.sha256(kernels.lp(x, weights, grid).tobytes()).hexdigest() for weights in (None, w))
    assert got == LP_SWEEP_SHA256


# -- kernels.phi: PiecewiseLinearFn.__call__, row by row ---------------------------

def test_phi_is_piecewise_linear_fn_bit_for_bit():
    # rows of 1 to 8 breakpoints padded with +inf to 8, each read on its
    # breakpoints, one ulp either side of each, and beyond both ends: the
    # interval index counts a breakpoint equal to x, as searchsorted's
    # side="right" does
    rng = np.random.default_rng(30)
    fns = []
    for m in range(1, 9):
        for _ in range(5):
            bp = np.sort(rng.uniform(-1.0, 1.0, m))
            fns.append(PiecewiseLinearFn(bp, rng.uniform(-1.0, 1.0, m + 1), rng.uniform(-1.0, 1.0)))
    bp, slopes = np.full((len(fns), 8), np.inf), np.zeros((len(fns), 9))
    x = np.empty((len(fns), 3 * 8 + 4))
    for i, fn in enumerate(fns):
        m, at = len(fn.breakpoints), np.resize(fn.breakpoints, 8)
        bp[i, :m], slopes[i, :m + 1] = fn.breakpoints, fn.slopes
        x[i] = np.concatenate([at, np.nextafter(at, -np.inf), np.nextafter(at, np.inf),
                               [fn.breakpoints[0] - 1.5, -1e300, fn.breakpoints[-1] + 1.5, 1e300]])
    block = kernels.Block(None, x, bp=bp, slopes=slopes, anchor=np.array([fn.anchor for fn in fns]))
    got = kernels.phi(block, x)
    want = np.array([fn(row) for fn, row in zip(fns, x)])
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    for row, fn in zip(block.knots, fns):  # the knots up to each row's last breakpoint
        assert row[:len(fn.breakpoints)].tobytes() == fn._knot_values.tobytes()


# -- row reductions a column at a time ------------------------------------------

@pytest.mark.parametrize("width", range(0, 10))
def test_row_reductions_are_numpys_bit_for_bit(width):
    # row_maxima and row_cumsum against numpy's reductions along axis 1, on
    # rows that mix nan, the infinities, zeros, subnormals and huge values,
    # and on random rows, each contiguous and as a strided view (no -0.0:
    # which zero numpy's own max keeps varies with the row width)
    rng = np.random.default_rng(width)
    a = np.concatenate([rng.choice([np.nan, np.inf, -np.inf, 0.0, 5e-324, -1.5, 2.0, 1e308], (500, width)),
                        rng.uniform(-1.0, 1.0, (500, width))])
    for rows in a, np.repeat(a, 2, axis=1)[:, ::2]:
        if width:
            assert kernels.row_maxima(rows).tobytes() == rows.max(axis=1).tobytes()
        assert kernels.row_maxima(rows, 0.0).tobytes() == rows.max(axis=1, initial=0.0).tobytes()
        with np.errstate(invalid="ignore", over="ignore"):
            assert kernels.row_cumsum(rows).tobytes() == np.cumsum(rows, axis=1).tobytes()
