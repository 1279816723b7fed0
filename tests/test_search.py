"""Counterexample search: determinism, feasibility, refinement, controls."""

import math

import numpy as np
import pytest

from leibnizlab.core import ProbVector
from leibnizlab.search import (
    RECIPROCAL_WITNESS,
    VSHAPE_WITNESS,
    Instance,
    SearchConfig,
    random_instance,
    refine,
    replay,
    reproduce_known_counterexamples,
    search,
    violation,
    vshape_function,
)


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(target="nonsense")
    with pytest.raises(ValueError):
        SearchConfig(target="chain_rule", trials=0)
    with pytest.raises(ValueError):
        SearchConfig(target="chain_rule", n=1)
    with pytest.raises(ValueError):
        SearchConfig(target="chain_rule", max_breakpoints=9)
    with pytest.raises(ValueError):
        SearchConfig.from_dict({"target": "chain_rule", "bogus": 1})
    cfg = SearchConfig.from_dict({"target": "chain_rule", "p_grid": [1, math.inf]})
    assert cfg.p_grid == (1.0, math.inf)


@pytest.mark.parametrize("n, floor", [(10, 0.2), (4, 0.25), (3, -0.1), (3, 0.0), (3, math.nan)])
def test_config_rejects_mass_floor_outside_open_interval(n, floor):
    # n * floor >= 1 forces negative "weights"; a floor <= 0 admits them
    for target in ("chain_rule", "leibniz"):
        with pytest.raises(ValueError, match="mass_floor"):
            SearchConfig(target=target, n=n, mass_floor=floor)
    assert SearchConfig(target="chain_rule", n=4, mass_floor=0.2499).mass_floor == 0.2499


def test_config_rejects_empty_p_grid():
    with pytest.raises(ValueError, match="p_grid"):
        SearchConfig(target="chain_rule", p_grid=())
    with pytest.raises(ValueError, match="p_grid"):
        SearchConfig.from_dict({"target": "chain_rule", "p_grid": []})


@pytest.mark.parametrize("key", ["seed", "n", "trials", "refine_steps", "refine_top"])
@pytest.mark.parametrize("value", [1.5, 3.0, True, "3"])
def test_config_rejects_non_integer_counts(key, value):
    with pytest.raises(ValueError, match=key):
        SearchConfig.from_dict({"target": "chain_rule", key: value})


@pytest.mark.parametrize("key", ["refine_steps", "refine_top"])
def test_config_rejects_negative_refinement_budget(key):
    with pytest.raises(ValueError, match=key):
        SearchConfig.from_dict({"target": "chain_rule", key: -1})
    assert getattr(SearchConfig.from_dict({"target": "chain_rule", key: 0}), key) == 0


def test_random_instance_deterministic():
    cfg = SearchConfig(target="chain_rule", n=4, trials=10, seed=99)
    a = random_instance(cfg, 3)
    b = random_instance(cfg, 3)
    assert np.array_equal(a.mu, b.mu)
    assert np.array_equal(a.f, b.f)
    assert np.array_equal(a.phi.breakpoints, b.phi.breakpoints)
    assert np.array_equal(a.phi.slopes, b.phi.slopes)
    c = random_instance(cfg, 4)
    assert not np.array_equal(a.mu, c.mu)


def test_random_instance_feasibility():
    cfg = SearchConfig(target="chain_rule", n=5, trials=10, seed=1)
    for t in range(200):
        inst = random_instance(cfg, t)
        ProbVector(inst.mu)  # valid measure
        assert float(inst.mu.min()) >= cfg.mass_floor - 1e-15
        assert np.all(np.abs(inst.f) <= 1.0)
        assert inst.phi.lipschitz == pytest.approx(1.0)
    cfg = SearchConfig(target="strong_leibniz", n=3, trials=10, seed=1)
    for t in range(200):
        inst = random_instance(cfg, t)
        assert float(np.min(np.abs(inst.f))) >= 0.05 - 1e-15


def test_refine_zero_steps_is_identity():
    cfg = SearchConfig(target="chain_rule", n=3, trials=1, seed=5)
    inst = random_instance(cfg, 0)
    out = refine(inst, "chain_rule", 0, 1.0)
    assert out is inst


def test_refine_never_decreases_violation():
    cfg = SearchConfig(target="chain_rule", n=3, trials=1, seed=21)
    for t in range(10):
        inst = random_instance(cfg, t)
        v0 = violation(inst, "chain_rule", 1.0)
        out = refine(inst, "chain_rule", 2, 1.0)
        assert violation(out, "chain_rule", 1.0) >= v0


def test_refine_from_vshape_witness_exceeds_published_gap():
    inst = Instance(mu=np.asarray(VSHAPE_WITNESS["mu"]),
                    f=np.asarray(VSHAPE_WITNESS["f"]),
                    phi=vshape_function())
    assert violation(inst, "chain_rule", 1.0) == pytest.approx(0.26 - 11 / 45, abs=1e-12)
    tuned = refine(inst, "chain_rule", 10, 1.0)
    assert violation(tuned, "chain_rule", 1.0) >= 0.016


def test_search_deterministic():
    cfg = SearchConfig(target="chain_rule", n=3, p_grid=(1.0,), trials=300,
                       refine_steps=3, seed=77)
    a, b = search(cfg), search(cfg)
    assert a.best_violation == b.best_violation
    assert a.witness == b.witness
    assert a.history == b.history
    assert a.per_p == b.per_p


def test_search_witness_replays_through_checkers():
    cfg = SearchConfig(target="chain_rule", n=3, p_grid=(1.0,), trials=500,
                       refine_steps=5, seed=3)
    res = search(cfg)
    assert res.best_violation > 0.01
    inst = Instance.from_dict(res.witness)
    rep = replay(inst, "chain_rule", res.best_p)
    assert rep.violation == pytest.approx(res.best_violation, abs=1e-9)
    assert not rep.passed


def test_search_strong_leibniz_p1_reaches_published_gap():
    cfg = SearchConfig(target="strong_leibniz", n=3, p_grid=(1.0,), trials=10_000,
                       refine_steps=5, seed=424242)
    res = search(cfg)
    assert res.best_violation >= 0.036
    inst = Instance.from_dict(res.witness)
    rep = replay(inst, "strong_leibniz", 1.0)
    assert rep.violation == pytest.approx(res.best_violation, abs=1e-9)


def test_search_monotone_negative_control():
    cfg = SearchConfig(target="chain_rule", n=3, p_grid=(1.0, 2.0, math.inf),
                       trials=1000, refine_steps=3, seed=7, monotone=True)
    res = search(cfg)
    assert res.best_violation <= 1e-9
    assert res.verdict().startswith("no violation found")


def test_search_leibniz_negative_control():
    cfg = SearchConfig(target="leibniz", n=4, p_grid=(1.0, 2.0, math.inf),
                       trials=1000, refine_steps=2, seed=11)
    res = search(cfg)
    assert res.best_violation <= 1e-9


def test_search_square_bound_negative_control():
    cfg = SearchConfig(target="square_bound", n=4, p_grid=(1.0, 2.0, math.inf),
                       trials=1000, refine_steps=2, seed=13)
    res = search(cfg)
    assert res.best_violation <= 1e-9


def test_search_history_is_running_best():
    cfg = SearchConfig(target="chain_rule", n=3, p_grid=(1.0,), trials=200,
                       refine_steps=0, seed=15)
    res = search(cfg)
    assert len(res.history) == 200
    assert all(a <= b + 1e-15 for a, b in zip(res.history, res.history[1:]))
    assert res.history[-1] == max(res.history)


def test_reproduce_known_counterexamples():
    rep_inv, rep_vshape = reproduce_known_counterexamples()
    assert rep_inv.name == "strong_leibniz_reciprocal_witness"
    assert not rep_inv.passed
    assert rep_inv.instance["mu"] == pytest.approx(list(RECIPROCAL_WITNESS["mu"]))
    assert rep_vshape.name == "chain_rule_vshape_witness"
    assert not rep_vshape.passed
    assert rep_vshape.lhs == pytest.approx(0.26, abs=1e-3)
    assert rep_vshape.rhs == pytest.approx(0.244, abs=1e-3)
    assert rep_vshape.instance["lipschitz"] == 1.0


def test_vshape_function_has_exact_unit_lipschitz():
    phi = vshape_function()
    assert phi.lipschitz == 1.0
    assert np.array_equal(phi.slopes, [-1.0, 0.6])
