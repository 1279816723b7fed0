"""The batched search kernel: sampler, evaluation and block-size invariance."""

import importlib
import math
import sys
import tracemalloc

import numpy as np
import pytest
from scalar_reference import Trial, scalar_chain_rule, scalar_leibniz, scalar_square, scalar_strong_leibniz

from leibnizlab import kernels
from leibnizlab.core import INEQUALITY_TOL, HolderTriple, ProbVector
from leibnizlab.operators import PiecewiseLinearFn
from leibnizlab.search import (
    TARGETS,
    SearchConfig,
    random_instance,
    refine,
    search,
    violation,
)

search_mod = importlib.import_module("leibnizlab.search")

EXPONENTS = (1.0, 1.5, 2.0, 3.0, math.inf)


#: The search's stream id, after the suites' 0-8.
SEARCH_STREAM = 9


def scalar_instance(config: SearchConfig, t: int) -> dict:
    """Reference sampler: trial t read alone and parsed by the search's
    documented layout (``search._sample``): the measure's n - 1 uniforms, f,
    then signs (strong leibniz), g and two splits (leibniz) or phi (chain rule)."""
    n, mmax, target = config.n, config.max_breakpoints, config.target
    extra = {"strong_leibniz": n, "leibniz": n + 2, "chain_rule": 2 * mmax + 3}.get(target, 0)
    trial = Trial(config.seed, SEARCH_STREAM, t, 2 * n - 1 + extra)
    mu = trial.measure(0, n, config.mass_floor).weights
    rest = 2 * n - 1
    if target == "strong_leibniz":
        mag = [0.05 + (1.0 - 0.05) * u for u in trial.uniforms(n - 1, n)]
        f = np.array([m * (-1.0 if s < 0.5 else 1.0) for m, s in zip(mag, trial.uniforms(rest, n))])
    else:
        f = trial.vector(n - 1, n)
    out = {"mu": mu, "f": f}
    if target == "leibniz":
        choices = (0.0, 0.25, 0.5, 0.75, 1.0)
        out["g"] = trial.vector(rest, n)
        out["split1"], out["split2"] = choices[trial.integer(rest + n, 5)], choices[trial.integer(rest + n + 1, 5)]
    if target == "chain_rule":
        out["phi"] = trial.phi(rest, mmax, monotone=config.monotone, signed=False)
    return out


def assert_same_draws(inst: dict, ref: dict, target: str):
    assert np.array_equal(inst["mu"], ref["mu"])
    assert np.array_equal(inst["f"], ref["f"])
    if target == "leibniz":
        assert np.array_equal(inst["g"], ref["g"])
        assert (inst["split1"], inst["split2"]) == (ref["split1"], ref["split2"])
    if target == "chain_rule":
        assert inst["phi"] == ref["phi"].to_dict()


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("monotone", [False, True])
def test_block_sampler_matches_scalar_draws(target, monotone):
    cfg = SearchConfig(target=target, n=5, seed=123, monotone=monotone, max_breakpoints=8)
    block = search_mod._sample(cfg, range(40, 100))
    for i, t in enumerate(range(40, 100)):
        ref = scalar_instance(cfg, t)
        for inst in (block.row(i).to_dict(), random_instance(cfg, t).to_dict()):
            assert_same_draws(inst, ref, target)


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("monotone", [False, True])
@pytest.mark.parametrize("seed, trials", [(123, range(0, 2048)),
                                          (2 ** 40 + 3, range(2 ** 32 - 1024, 2 ** 32 + 1024))])
def test_word_path_matches_scalar_draws(target, monotone, seed, trials):
    # two blocks of trials drawn from their words as arrays, each row against
    # its trial read alone, in plain Python, also across t = 2**32
    cfg = SearchConfig(target=target, n=5, seed=seed, monotone=monotone, max_breakpoints=8)
    block = search_mod._sample(cfg, trials)
    for i, t in enumerate(trials):
        assert_same_draws(block.row(i).to_dict(), scalar_instance(cfg, t), target)


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("monotone", [False, True])
def test_sampled_trial_list_matches_range(target, monotone):
    # leaders are re-drawn from a list of trials: the rows equal those of the
    # same trials drawn as a range, bit for bit, also for a repeated trial
    # (one trial can lead two exponents) and on both sides of 2**32
    cfg = SearchConfig(target=target, n=4, seed=77, monotone=monotone, max_breakpoints=8)
    for trials, picks in ((range(0, 50), [5, 5, 0, 49, 17]),
                          (range(2 ** 32 - 3, 2 ** 32 + 3), [4, 4, 0, 5, 2, 3])):
        block = search_mod._sample(cfg, trials)
        listed = search_mod._sample(cfg, [trials[i] for i in picks])
        assert len(listed) == len(picks)
        for name, a in block.arrays().items():
            b = getattr(listed, name)
            assert (a is None and b is None) or same_bits(a[picks], b)


def test_sampled_breakpoints_keep_a_minimal_gap():
    # four breakpoints within 1e-6 of each other (rare in random draws):
    # each is pushed 1e-6 past its predecessor, in sorted order
    # (the first uniform reads a count of 4 of at most 4)
    u = np.array([[0.9, 0.5, 0.5 + 2e-7, 0.2, 0.5 - 1e-7, 0.3, 0.1, 0.2, 0.3, 0.4, 0.5]])
    phi = kernels.sample_phi(u, False)
    ref = np.sort(-1.0 + 2.0 * u[0, 1:5])
    for i in range(1, 4):
        if ref[i] - ref[i - 1] < 1e-6:
            ref[i] = ref[i - 1] + 1e-6
    assert np.array_equal(phi["bp"][0], ref)
    assert np.all(np.diff(ref[1:]) >= 1e-6 * (1 - 1e-9))


def scalar_report(inst, target: str, p: float):
    """The target's report from the scalar formulas, which do not use ``kernels``."""
    d = inst.to_dict()
    mu, f = ProbVector(np.asarray(d["mu"])), np.asarray(d["f"])
    if target == "chain_rule":
        return scalar_chain_rule(mu, f, PiecewiseLinearFn.from_dict(d["phi"]), p, INEQUALITY_TOL)
    if target == "strong_leibniz":
        return scalar_strong_leibniz(mu, f, p, INEQUALITY_TOL)
    if target == "square_bound":
        return scalar_square(mu, f, p, INEQUALITY_TOL)
    return scalar_leibniz(mu, f, np.asarray(d["g"]), HolderTriple.split(p, d["split1"]),
                          HolderTriple.split(p, d["split2"]), INEQUALITY_TOL)


@pytest.mark.parametrize("target", TARGETS)
def test_kernel_matches_checkers(target):
    # each row of the batch against the scalar formula of its instance
    for n in (3, 4, 6):
        cfg = SearchConfig(target=target, n=n, seed=1000 + n)
        block = search_mod._sample(cfg, range(0, 200))
        instances = [block.row(i) for i in range(len(block))]
        for p in EXPONENTS:
            batch = search_mod._violations(block, target, p)
            assert batch.shape == (200,)
            for inst, v in zip(instances, batch):
                rep = scalar_report(inst, target, p)
                assert abs(v - rep.violation) <= 1e-12 * max(abs(rep.lhs), abs(rep.rhs), 1.0)
                # one instance alone gives its row's value bit for bit
                assert violation(inst, target, p) == v


def test_kernel_marks_singular_f_for_strong_leibniz():
    cfg = SearchConfig(target="strong_leibniz", n=3, seed=2)
    block = search_mod._sample(cfg, range(0, 4))
    f = block.f.copy()
    f[1, 2] = 0.0
    f[2, 0] = 1e-13
    with np.errstate(all="raise"):
        v = search_mod._violations(search_mod.Instance(block.mu, f), "strong_leibniz", 2.0)
    assert v[1] == v[2] == -math.inf
    assert np.all(np.isfinite(v[[0, 3]]))


@pytest.mark.parametrize("target", TARGETS)
def test_search_does_not_depend_on_block_size(monkeypatch, target):
    # 40 trials fit one block at every size but 1 and 7; 2 500 cross blocks
    # at every size, the search's own among them
    for trials, top, sizes in ((40, 3, (1, 7, search_mod.BLOCK)), (40, 10, (1, 7, search_mod.BLOCK)),
                              (2500, 5, (7, 1024, 2048))):
        cfg = SearchConfig(target=target, n=3, p_grid=(1.0, 2.0, math.inf), trials=trials,
                           refine_steps=2, refine_top=top, seed=8)
        results = []
        for size in sizes:
            monkeypatch.setattr(search_mod, "BLOCK", size)
            results.append(search(cfg))
        for res in results[1:]:
            assert res.witness == results[0].witness
            assert res.per_p == results[0].per_p
            assert res.history == results[0].history


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("target", TARGETS)
def test_grid_scores_are_the_scores_at_each_exponent(target):
    # a block scored at every exponent in one pass (leibniz with mixed splits,
    # strong leibniz with singular rows) equals one pass per exponent, bit for bit
    block = search_mod._sample(SearchConfig(target=target, n=4, seed=12), range(0, 300))
    if target == "strong_leibniz":
        block.f[5, 1] = 0.0
    scores = search_mod._violations(block, target, np.array(EXPONENTS)[:, None])
    assert scores.shape == (len(block), len(EXPONENTS))
    for j, p in enumerate(EXPONENTS):
        assert same_bits(np.ascontiguousarray(scores[:, j]), search_mod._violations(block, target, p))


#: Exponents where 1/p is exact, inexact, near 1, tiny and 0.
SPLIT_EXPONENTS = (1.0, 1.0000001, 1.25, 1.5, 2.0, 3.0, 7.3, 1e300, math.inf)


def test_leibniz_exponents_are_the_holder_splits():
    # the array arithmetic of _exponents gives HolderTriple.split's (p, q),
    # float hex for float hex, both as an (E, 1) grid and as one p per row
    splits = np.array(search_mod._SPLIT_CHOICES)
    s1, s2 = (a.ravel() for a in np.meshgrid(splits, splits))
    block = search_mod.Instance(np.full((s1.size, 2), 0.5), np.zeros((s1.size, 2)), split1=s1, split2=s2)
    r, p1, q1, p2, q2 = search_mod._exponents(block, "leibniz", np.array(SPLIT_EXPONENTS)[:, None])
    assert r.shape == (len(SPLIT_EXPONENTS), 1) and p1.shape == (len(SPLIT_EXPONENTS), s1.size)
    for i, p in enumerate(SPLIT_EXPONENTS):
        for j in range(s1.size):
            want = [(t.p, t.q) for t in (HolderTriple.split(p, s1[j]), HolderTriple.split(p, s2[j]))]
            got = [(float(p1[i, j]), float(q1[i, j])), (float(p2[i, j]), float(q2[i, j]))]
            assert [float.hex(x) for pair in got for x in pair] == [float.hex(x) for pair in want for x in pair]
    rng = np.random.default_rng(5)
    rows = rng.integers(0, s1.size, 5000)
    per_row = np.array(SPLIT_EXPONENTS)[rng.integers(0, len(SPLIT_EXPONENTS), 5000)]
    block = search_mod.Instance(np.full((5000, 2), 0.5), np.zeros((5000, 2)), split1=s1[rows], split2=s2[rows])
    _, p1, q1, p2, q2 = search_mod._exponents(block, "leibniz", per_row)
    for k in range(5000):
        t1, t2 = HolderTriple.split(per_row[k], s1[rows[k]]), HolderTriple.split(per_row[k], s2[rows[k]])
        assert [x.hex() for x in (p1[k], q1[k], p2[k], q2[k])] == [x.hex() for x in (t1.p, t1.q, t2.p, t2.q)]


def test_chain_rule_search_evaluates_phi_once_per_block(monkeypatch):
    # the scores at every exponent and the reach read one phi(f) per sampled block
    calls, original = [], kernels.phi

    def counted(b, x):
        calls.append(len(x))
        return original(b, x)
    for name, module in list(sys.modules.items()):  # every name bound to kernels.phi
        if name.startswith("leibnizlab"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    cfg = SearchConfig(target="chain_rule", n=4, p_grid=(1.5, 3.0, math.inf), trials=2 * search_mod.BLOCK + 100,
                       refine_top=0, seed=5)
    result = search(cfg)
    assert calls == [search_mod.BLOCK, search_mod.BLOCK, 100]
    monkeypatch.undo()
    assert search(cfg) == result


@pytest.mark.parametrize("seed", [7, 1618])
def test_chain_rule_reach_is_rounding_at_2_and_inf(seed):
    # the chain rule holds at p = 2 and inf for every 1-Lipschitz phi, so the
    # reach there stays below INEQUALITY_TOL and the ranking keys it 0: the
    # scored block takes it at the other exponents only
    cfg = SearchConfig(target="chain_rule", n=4, p_grid=(2.0, 3.0, math.inf), trials=10_000, seed=seed)
    block = search_mod._sample(cfg, range(cfg.trials))
    assert search_mod._reach(block, np.array([[2.0], [math.inf]])).max() <= 1e-12
    column, head = np.array(cfg.p_grid)[:, None], search_mod._sample(cfg, range(search_mod.BLOCK))
    scores, reach = search_mod._scored(cfg, range(search_mod.BLOCK), column)
    assert scores.tobytes() == search_mod._violations(head, "chain_rule", column).tobytes()
    assert not reach[:, [0, 2]].any()
    assert reach[:, 1].tobytes() == search_mod._reach(head, column[1:2])[:, 0].tobytes()


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("monotone", [False, True])
def test_leaders_climb_together_as_alone(target, monotone):
    # leaders with 1 to 8 breakpoints (phi padded to 8), mixed exponents and
    # mixed leibniz splits climb as one block; each ends, bit for bit, where
    # refine takes it alone with its phi unpadded
    cfg = SearchConfig(target=target, n=3, seed=31, monotone=monotone, max_breakpoints=8)
    block = search_mod._sample(cfg, range(0, 64))
    if target == "chain_rule":
        assert set(np.isfinite(block.bp).sum(axis=1).tolist()) == set(range(1, 9))
        # every other phi decreasing: a monotone climb keeps each row's own sign
        slopes = block.slopes * np.resize([1.0, -1.0], len(block))[:, None]
        block = search_mod.Instance(**{**block.arrays(), "slopes": slopes})
    if target == "leibniz":
        assert len(set(zip(block.split1.tolist(), block.split2.tolist()))) >= 10
    p = np.resize([1.0, 1.5, 2.0, math.inf], len(block))
    start = search_mod._violations(block, target, p)
    tuned, values = search_mod._climb(block, target, 4, p, start, monotone, cfg.mass_floor)
    assert len(tuned) == len(block)
    for i in range(len(block)):
        alone, v = refine(block.row(i), target, 4, float(p[i]), monotone, cfg.mass_floor)
        assert same_bits(v, values[i])
        together = tuned.row(i)
        for name, a in alone.arrays().items():
            assert (a is None and getattr(together, name) is None) or same_bits(a, getattr(together, name))
    # most leaders move, so the climbs are not trivially equal
    assert np.count_nonzero(values > start) > len(block) // 2


def per_pass_moves(layout, counts):
    """The neighbours' tables of rows with ``counts`` breakpoints as each
    climb pass built them before the climb kept them while its rows stay:
    owner, move, each kind's first row (and the end), flat column."""
    kinds, cols, live = layout[1], layout[2], layout[4]
    move, owner = np.divmod(np.arange(len(kinds) * len(counts)), len(counts))
    exists = live[counts[owner], move]
    owner, move = owner[exists], move[exists]
    runs = np.searchsorted(kinds[move], np.arange(search_mod._ANCHOR + 2)).tolist()
    return owner, move, runs, cols[move]


@pytest.mark.parametrize("n, width, pair, phi", [(3, 8, False, True), (4, 4, False, True), (2, 0, True, False),
                                                 (5, 0, False, False)])
def test_move_tables_are_the_per_pass_tables(n, width, pair, phi):
    # random breakpoint-count patterns, and active sets that shrink as rows
    # stop climbing, down to one row
    layout = search_mod._layout(n, width, pair, phi)
    rng = np.random.default_rng(width + n)
    for _ in range(20):
        rows = int(rng.integers(1, 40))
        counts = rng.integers(1, width + 1, rows) if phi else np.zeros(rows, dtype=np.intp)
        active = np.arange(rows)
        while active.size:
            got, want = search_mod._moves(layout, counts[active]), per_pass_moves(layout, counts[active])
            assert got[2] == want[2]
            for a, b in (got[0], want[0]), (got[1], want[1]), (got[3], want[3]):
                assert np.array_equal(a, b)
            active = active[rng.random(active.size) < 0.7]


def whole_column_leaders(scores, reach, k):
    """The k leaders of one exponent from its whole columns, as the search
    ranked them before it streamed: the first of the largest score (a nan
    last), then the others by reach above INEQUALITY_TOL (else 0), score and
    trial."""
    best = np.argsort(-scores, kind="stable")[:1]
    rest = np.lexsort((-scores, -np.where(reach > INEQUALITY_TOL, reach, 0.0)))
    return np.concatenate([best, rest[rest != best[0]]])[:k]


def ranking_columns(trials):
    """Scores with few distinct values and -inf and nan rows, an all-nan
    column and a column of -inf and nan rows that starts with nan; reach
    mostly at or below INEQUALITY_TOL, with ties above it."""
    rng = np.random.default_rng(4)
    scores = rng.choice([-0.5, -0.25, 0.0, 1e-3, 2e-3], (trials, 4))
    scores[rng.random(trials) < 0.2, 1] = -np.inf
    scores[rng.random(trials) < 0.2, 1] = np.nan
    scores[:, 2] = np.nan
    scores[:, 3] = np.where(rng.random(trials) < 0.3, np.nan, -np.inf)
    scores[:2, 3] = np.nan  # the best of this column is its first -inf, not trial 0
    reach = rng.choice([-1.0, 0.0, 5e-10, INEQUALITY_TOL, 2e-9, 0.01, 0.02], (trials, 4))
    return scores, reach


@pytest.mark.parametrize("chain_rule", [True, False], ids=["reach", "scores"])
@pytest.mark.parametrize("block", [1, 7, 1024])
def test_streamed_ranking_equals_whole_columns(block, chain_rule):
    # the leaders, their scores and the history of a ranking fed a block at a
    # time equal the whole-column sorts, for k from 1 to past the trials
    trials = 90
    columns, reach_columns = ranking_columns(trials)
    # the first column alone keeps a finite history; any nan makes it nan from there
    for cols in ([0], [0, 1, 2, 3]):
        scores = columns[:, cols]
        reach = reach_columns[:, cols] if chain_rule else scores
        for k in (1, 2, 5, 31, trials - 1, trials, trials + 5):
            ranking = search_mod._Ranking(len(cols), k)
            for start in range(0, trials, block):
                ranking.add(scores[start:start + block], reach[start:start + block])
            leaders, values = ranking.leaders()
            want = np.concatenate([whole_column_leaders(scores[:, j], reach[:, j], k) for j in range(len(cols))])
            assert leaders.tolist() == want.tolist()
            assert values.tobytes() == scores[want, np.repeat(np.arange(len(cols)), min(k, trials))].tobytes()
            history = np.maximum.accumulate(scores.max(axis=1))
            assert np.array(ranking.history).tobytes() == history.tobytes()
    # the all-nan column leads with its first trial
    assert whole_column_leaders(columns[:, 2], columns[:, 2], 1).tolist() == [0]


def test_search_memory_grows_with_the_trials_by_its_history_alone():
    # the traced peak of a 10-exponent chain-rule search grows by the returned
    # history, a float object and a list slot per trial (about 32 bytes), and
    # by nothing else: whole (trials, exponents) score and reach matrices
    # would add 160 bytes per trial
    grid = (1.0, 1.25, 1.5, 1.75, 1.9, 2.0, 2.5, 3.0, 4.0, math.inf)
    peaks = []
    for trials in (2 ** 13, 2 ** 16):
        cfg = SearchConfig(target="chain_rule", n=4, p_grid=grid, trials=trials, refine_top=0, seed=2)
        tracemalloc.start()
        try:
            search(cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / (2 ** 16 - 2 ** 13) <= 40


#: Winners of small searches, recorded when the streams moved to Philox words
#: (the v2 stream rule); a change of the per-trial streams or of the
#: evaluation moves them.
STREAM_PINS = [
    ("chain_rule", 7, 124, 1.6653345369377348e-16),
    ("strong_leibniz", 7, 142, -0.03264381485669382),
    ("leibniz", 1, 70, -0.016752785678778692),
    ("square_bound", 5, 143, -0.017408309920450768),
]


@pytest.mark.parametrize("target, seed, trial, best", STREAM_PINS, ids=[pin[0] for pin in STREAM_PINS])
def test_stream_pin(target, seed, trial, best):
    cfg = SearchConfig(target=target, n=4, p_grid=(1.0, 2.0), trials=200, refine_steps=0, seed=seed)
    res = search(cfg)
    assert res.witness["trial"] == trial
    assert res.best_violation == pytest.approx(best, abs=1e-12)
    assert res.best_p == 1.0
