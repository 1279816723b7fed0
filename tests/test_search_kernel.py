"""The batched search kernel: sampler, evaluation and block-size invariance."""

import importlib
import math

import numpy as np
import pytest

from leibnizlab.operators import PiecewiseLinearFn
from leibnizlab.search import (
    TARGETS,
    SearchConfig,
    random_instance,
    replay,
    search,
    violation,
)

search_mod = importlib.import_module("leibnizlab.search")

EXPONENTS = (1.0, 1.5, 2.0, 3.0, math.inf)


def scalar_instance(config: SearchConfig, t: int) -> dict:
    """Reference sampler: the draws of trial t, one call per quantity."""
    rng = np.random.default_rng((config.seed, t))
    n = config.n
    raw = rng.dirichlet(np.ones(n))
    mu = config.mass_floor + (1.0 - n * config.mass_floor) * raw / float(raw.sum())
    if config.target == "strong_leibniz":
        mag = rng.uniform(0.05, 1.0, n)
        f = mag * np.where(rng.random(n) < 0.5, -1.0, 1.0)
    else:
        f = rng.uniform(-1.0, 1.0, n)
    out = {"mu": mu, "f": f}
    if config.target == "leibniz":
        out["g"] = rng.uniform(-1.0, 1.0, n)
    if config.target == "chain_rule":
        m = int(rng.integers(1, config.max_breakpoints + 1))
        bp = np.sort(rng.uniform(-1.0, 1.0, m))
        for i in range(1, m):
            if bp[i] - bp[i - 1] < 1e-6:
                bp[i] = bp[i - 1] + 1e-6
        slopes = rng.uniform(-1.0, 1.0, m + 1)
        if config.monotone:
            slopes = np.abs(slopes)
        peak = float(np.max(np.abs(slopes)))
        if peak < 1e-12:
            slopes, peak = np.ones(m + 1), 1.0
        out["phi"] = PiecewiseLinearFn(bp, slopes / peak, float(rng.uniform(-1.0, 1.0)))
    choices = (0.0, 0.25, 0.5, 0.75, 1.0)
    out["split1"] = choices[rng.integers(5)]
    out["split2"] = choices[rng.integers(5)]
    return out


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("monotone", [False, True])
def test_block_sampler_matches_scalar_draws(target, monotone):
    cfg = SearchConfig(target=target, n=5, seed=123, monotone=monotone, max_breakpoints=8)
    block = search_mod._sample(cfg, 40, 100)
    for i, t in enumerate(range(40, 100)):
        ref = scalar_instance(cfg, t)
        for inst in (block.instance(i), random_instance(cfg, t)):
            assert np.array_equal(inst.mu, ref["mu"])
            assert np.array_equal(inst.f, ref["f"])
            if target == "leibniz":
                assert np.array_equal(inst.g, ref["g"])
                assert (inst.split1, inst.split2) == (ref["split1"], ref["split2"])
            if target == "chain_rule":
                assert inst.phi.to_dict() == ref["phi"].to_dict()


def test_sampled_breakpoints_keep_a_minimal_gap():
    # four breakpoints within 1e-6 of each other (rare in random draws):
    # each is pushed 1e-6 past its predecessor, in sorted order
    u = np.array([[0.5, 0.5 + 2e-7, 0.2, 0.5 - 1e-7, 0.3, 0.1, 0.2, 0.3, 0.4, 0.5]])
    phi = search_mod._sample_phi(u, np.array([4]), False)
    ref = np.sort(-1.0 + 2.0 * u[0, :4])
    for i in range(1, 4):
        if ref[i] - ref[i - 1] < 1e-6:
            ref[i] = ref[i - 1] + 1e-6
    assert np.array_equal(phi["bp"][0], ref)
    assert np.all(np.diff(ref[1:]) >= 1e-6 * (1 - 1e-9))


@pytest.mark.parametrize("target", TARGETS)
def test_kernel_matches_checkers(target):
    for n in (3, 4, 6):
        cfg = SearchConfig(target=target, n=n, seed=1000 + n)
        block = search_mod._sample(cfg, 0, 200)
        instances = [block.instance(i) for i in range(len(block))]
        for p in EXPONENTS:
            batch = search_mod._violations(block, target, p)
            assert batch.shape == (200,)
            for inst, v in zip(instances, batch):
                rep = replay(inst, target, p)
                assert abs(v - rep.violation) <= 1e-12 * max(abs(rep.lhs), abs(rep.rhs), 1.0)
                # one instance alone gives its row's value bit for bit
                assert violation(inst, target, p) == v


def test_kernel_marks_singular_f_for_strong_leibniz():
    cfg = SearchConfig(target="strong_leibniz", n=3, seed=2)
    block = search_mod._sample(cfg, 0, 4)
    f = block.f.copy()
    f[1, 2] = 0.0
    f[2, 0] = 1e-13
    with np.errstate(all="raise"):
        v = search_mod._violations(search_mod._Block(block.mu, f, block.split1, block.split2),
                                   "strong_leibniz", 2.0)
    assert v[1] == v[2] == -math.inf
    assert np.all(np.isfinite(v[[0, 3]]))


@pytest.mark.parametrize("target", TARGETS)
def test_search_does_not_depend_on_block_size(monkeypatch, target):
    cfg = SearchConfig(target=target, n=3, p_grid=(1.0, 2.0, math.inf), trials=40,
                       refine_steps=2, refine_top=3, seed=8)
    results = []
    for size in (1, 7, search_mod.BLOCK):
        monkeypatch.setattr(search_mod, "BLOCK", size)
        results.append(search(cfg))
    for res in results[1:]:
        assert res.witness == results[0].witness
        assert res.per_p == results[0].per_p
        assert res.history == results[0].history


#: Winners of small searches, recorded before the batched kernel; a change of
#: the per-trial streams or of the evaluation moves them.
STREAM_PINS = [
    ("chain_rule", 7, 177, 0.00805208570661027),
    ("strong_leibniz", 7, 111, -0.006664975270973317),
    ("leibniz", 1, 198, -0.015254046640724855),
    ("square_bound", 5, 19, -0.004214501250672083),
]


@pytest.mark.parametrize("target, seed, trial, best", STREAM_PINS)
def test_stream_pin(target, seed, trial, best):
    cfg = SearchConfig(target=target, n=4, p_grid=(1.0, 2.0), trials=200, refine_steps=0, seed=seed)
    res = search(cfg)
    assert res.witness["trial"] == trial
    assert res.best_violation == pytest.approx(best, abs=1e-12)
    assert res.best_p == 1.0
