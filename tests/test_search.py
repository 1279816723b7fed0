"""Counterexample search: determinism, feasibility, refinement, controls."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from leibnizlab.core import HolderTriple, ProbVector, center, exponent_tag, lp_norm
from leibnizlab.operators import PiecewiseLinearFn
from leibnizlab.search import (
    RECIPROCAL_WITNESS,
    TARGETS,
    VSHAPE_WITNESS,
    WITNESSES,
    Instance,
    SearchConfig,
    random_instance,
    refine,
    replay,
    reproduce_known_counterexamples,
    search,
    tent_witness,
    violation,
    witness_report,
)
from leibnizlab.serialize import dumps
from leibnizlab.verify import (INVERTIBILITY_FLOOR, check_chain_rule, check_leibniz, check_square_bound,
                              check_strong_leibniz)


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


@pytest.mark.parametrize("key, value", [("p_grid", "12"), ("p_grid", [True]), ("p_grid", ["1.5"]),
                                        ("p_grid", 2.0), ("p_grid", [1, 1]), ("p_grid", [1, "inf", "inf"]),
                                        ("p_grid", [2, 2.0]), ("monotone", "false"), ("monotone", 0)])
def test_config_rejects_malformed_grid_and_monotone(key, value):
    with pytest.raises(ValueError, match=key):
        SearchConfig.from_dict({"target": "chain_rule", key: value})


def test_config_reads_inf_in_p_grid():
    cfg = SearchConfig.from_dict({"target": "chain_rule", "p_grid": [1, 2.5, "inf"], "monotone": True})
    assert cfg.p_grid == (1.0, 2.5, math.inf) and cfg.monotone is True


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
    assert np.array_equal(a.bp, b.bp)
    assert np.array_equal(a.slopes, b.slopes)
    c = random_instance(cfg, 4)
    assert not np.array_equal(a.mu, c.mu)


def test_random_instance_feasibility():
    cfg = SearchConfig(target="chain_rule", n=5, trials=10, seed=1)
    for t in range(200):
        inst = random_instance(cfg, t)
        ProbVector(inst.mu[0])  # valid measure
        assert float(inst.mu.min()) >= cfg.mass_floor - 1e-15
        assert np.all(np.abs(inst.f) <= 1.0)
        assert inst.lipschitz[0] == pytest.approx(1.0)
        assert np.all(np.isfinite(inst.bp))  # no +inf padding
    cfg = SearchConfig(target="strong_leibniz", n=3, trials=10, seed=1)
    for t in range(200):
        inst = random_instance(cfg, t)
        assert float(np.min(np.abs(inst.f))) >= 0.05 - 1e-15


def test_refine_zero_steps_is_identity():
    cfg = SearchConfig(target="chain_rule", n=3, trials=1, seed=5)
    inst = random_instance(cfg, 0)
    out, v = refine(inst, "chain_rule", 0, 1.0)
    assert out is inst
    assert v == violation(inst, "chain_rule", 1.0)


def test_refine_never_decreases_violation():
    cfg = SearchConfig(target="chain_rule", n=3, trials=1, seed=21)
    for t in range(10):
        inst = random_instance(cfg, t)
        v0 = violation(inst, "chain_rule", 1.0)
        out, v = refine(inst, "chain_rule", 2, 1.0)
        assert v == violation(out, "chain_rule", 1.0)
        assert violation(out, "chain_rule", 1.0) >= v0


def test_refine_from_vshape_witness_exceeds_published_gap():
    phi = PiecewiseLinearFn.from_dict(VSHAPE_WITNESS["phi"])
    inst = Instance.one(VSHAPE_WITNESS["mu"], VSHAPE_WITNESS["f"], phi=phi)
    assert violation(inst, "chain_rule", 1.0) == pytest.approx(0.26 - 11 / 45, abs=1e-12)
    tuned, v = refine(inst, "chain_rule", 10, 1.0)
    assert v == violation(tuned, "chain_rule", 1.0)
    assert violation(tuned, "chain_rule", 1.0) >= 0.016


def test_the_climb_never_takes_an_infeasible_neighbour():
    # the strong-leibniz climb's first f move lands on 0.0, outside the domain, and the
    # chain-rule climb meets 12 phi neighbours whose breakpoints close up; both results
    # were recorded while the climb dropped such neighbours instead of scoring them -inf
    tuned, v = refine(Instance.one((0.2, 0.3, 0.5), (0.1, 0.5, -0.7)), "strong_leibniz", 6, 1.0)
    assert (v, tuned.to_dict()["f"]) == (0.0, [0.5, 0.5, -0.5])
    assert np.all(np.abs(tuned.f) >= INVERTIBILITY_FLOOR) and violation(tuned, "strong_leibniz", 1.0) == v
    phi = PiecewiseLinearFn([0.0, 0.001], [1.0, -1.0, 0.5], 0.0)
    tuned, v = refine(Instance.one((0.25, 0.25, 0.5), (-0.5, 0.0005, 0.6), None, phi), "chain_rule", 6, 1.0)
    assert v == -0.0004281259882241706
    assert tuned.to_dict()["phi"] == {"breakpoints": [0.0, 0.001], "slopes": [1.0, -1.0, 0.9999999999999999],
                                      "anchor": 0.0}
    assert np.all(np.diff(tuned.bp[0]) > 1e-9) and violation(tuned, "chain_rule", 1.0) == v


def test_search_refine_top_zero_is_no_refinement():
    # refine_top 0 keeps only each exponent's best trial, and refines nothing
    cfg = SearchConfig(target="chain_rule", n=3, p_grid=(1.0, 2.0), trials=1500,
                       refine_steps=5, refine_top=0, seed=9)
    a, b = search(cfg), search(dataclasses.replace(cfg, refine_steps=0))
    assert (a.best_violation, a.best_p, a.witness, a.per_p, a.history.tolist()) == \
        (b.best_violation, b.best_p, b.witness, b.per_p, b.history.tolist())


def test_search_deterministic():
    cfg = SearchConfig(target="chain_rule", n=3, p_grid=(1.0,), trials=300,
                       refine_steps=3, seed=77)
    a, b = search(cfg), search(cfg)
    assert a.best_violation == b.best_violation
    assert a.witness == b.witness
    assert a.history.tolist() == b.history.tolist()
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


@pytest.mark.parametrize("anchor", [math.inf, -math.inf, math.nan])
def test_witness_with_non_finite_anchor_is_refused(anchor):
    # such a witness would replay to a false verdict on lhs = nan
    phi = {"breakpoints": [0.0], "slopes": [1.0, 1.0], "anchor": anchor}
    witness = {"mu": [0.5, 0.5], "f": [0.0, 1.0], "phi": phi}
    with pytest.raises(ValueError, match="anchor must be finite"):
        Instance.from_dict(witness)


@pytest.mark.parametrize("witness, message", [
    ({"mu": [0.7, 0.7], "f": [1.0, 0.0]}, "weights sum to"),  # violation() read -0.7 on it
    ({"mu": [0.5, 0.5], "f": [math.inf, 0.0]}, "must be finite"),  # violation() read nan on it
    # HolderTriple.split refused these only when the witness was scored
    ({"mu": [0.5, 0.5], "f": [0.0, 1.0], "g": [1.0, 0.5], "split1": 2.0}, "split fraction"),
    ({"mu": [0.5, 0.5], "f": [0.0, 1.0], "g": [1.0, 0.5], "split2": -0.1}, "split fraction"),
    ({"mu": [0.5, 0.5], "f": [0.0, 1.0], "g": [1.0, 0.5], "split1": math.nan}, "split fraction"),
    # numpy's matmul refused these only when the witness was scored
    ({"mu": [0.5, 0.5], "f": [0.0, 1.0, 0.5]}, "measure has 2 atoms"),
    ({"mu": [0.5, 0.5], "f": [0.0, 1.0], "g": [1.0]}, "lengths differ"),
    # KeyError and TypeError escaped on these
    ({"mu": [1.0]}, "an object with mu and f"),
    ({"f": [1.0]}, "an object with mu and f"),
    ([1], "an object with mu and f"),
])
def test_witness_with_invalid_measure_or_vector_is_refused(witness, message):
    with pytest.raises(ValueError, match=message):
        Instance.from_dict(witness)


QUOTED_WITNESS = {"mu": ["0.5", "0.5"], "f": ["0.1", "0.2"],
                  "phi": {"breakpoints": ["0"], "slopes": [1, "0.5"], "anchor": 0}}


@pytest.mark.parametrize("witness", [
    QUOTED_WITNESS,  # it used to replay as a chain-rule PASS
    {**QUOTED_WITNESS, "mu": [0.5, 0.5], "f": [0.1, 0.2]},
    {"mu": [0.5, 0.5], "f": [0.1, 0.2], "phi": {"breakpoints": [0], "slopes": [1, 0.5], "anchor": "0"}},
    {"mu": [0.5, 0.5], "f": [0.1, 0.2], "phi": {"breakpoints": [0], "slopes": [1, 0.5], "anchor": None}},
    {"mu": [0.5, 0.5], "f": [0.0, 1.0], "g": [1.0, 0.5], "split1": "0.5"},
    {"mu": [0.5, 0.5], "f": [0.0, 1.0], "g": [1.0, 0.5], "split2": True},
    {"mu": [0.5, 0.5], "f": [0.0, 1.0], "g": [True, 0.5]},
], ids=["quoted", "quoted-phi", "quoted-anchor", "none-anchor", "quoted-split", "bool-split", "bool-g"])
def test_witness_with_quoted_numbers_is_refused(witness):
    with pytest.raises(ValueError, match="expected a (vector of )?number"):
        Instance.from_dict(witness)


def test_replay_refuses_quoted_numbers():
    # an instance holding the quoted witness's mu and f as strings, as a hand-built block would
    inst = Instance(np.array([QUOTED_WITNESS["mu"]]), np.array([QUOTED_WITNESS["f"]]))
    with pytest.raises(ValueError, match="expected a vector of numbers"):
        replay(inst, "square_bound", 2.0)


@pytest.mark.parametrize("target", TARGETS)
def test_search_witness_codec_and_replay(target):
    # the witness form round-trips (g and the splits for leibniz, phi for the
    # chain rule) and replays through the checkers to the reported violation
    cfg = SearchConfig(target=target, n=4, p_grid=(1.0, 2.0), trials=300, refine_steps=2, seed=5)
    res = search(cfg)
    inst = Instance.from_dict(res.witness)
    keys = {"mu", "f", "g", "phi", "split1", "split2"}
    assert inst.to_dict() == {k: v for k, v in res.witness.items() if k in keys}
    rep = replay(inst, target, res.best_p)
    assert rep.violation == pytest.approx(res.best_violation, abs=1e-9)


def checker_report(inst, target, p):
    """The report of the target's ``verify.check_*``, one branch per target."""
    mu, f = ProbVector(inst.mu[0]), inst.f[0]
    if target == "chain_rule":
        return check_chain_rule(mu, f, PiecewiseLinearFn(inst.bp[0], inst.slopes[0], inst.anchor[0]), p)
    if target == "strong_leibniz":
        return check_strong_leibniz(mu, f, p)
    if target == "square_bound":
        return check_square_bound(mu, f, p)
    assert target == "leibniz"
    return check_leibniz(mu, f, inst.g[0], HolderTriple.split(p, float(inst.split1[0])),
                         HolderTriple.split(p, float(inst.split2[0])))


@pytest.mark.parametrize("target, monotone", [(t, False) for t in TARGETS] + [("chain_rule", True)])
def test_replay_equals_the_checker(target, monotone):
    # the search's witness (a refined leader), a leader refined here, and raw
    # trials, each at every exponent of the grid
    cfg = SearchConfig(target=target, n=4, p_grid=(1.0, 1.5, 2.0, math.inf), trials=300, refine_steps=3,
                       refine_top=3, seed=21, monotone=monotone)
    res = search(cfg)
    leader = random_instance(cfg, res.witness["trial"])
    witness = Instance.from_dict(res.witness)
    assert res.witness["violation"] > violation(leader, target, res.best_p)
    tuned, _ = refine(leader, target, 3, res.best_p, monotone)
    assert tuned is not leader
    for inst in [witness, tuned, leader] + [random_instance(cfg, t) for t in range(5)]:
        for p in cfg.p_grid:
            assert dumps(replay(inst, target, p).to_dict()) == dumps(checker_report(inst, target, p).to_dict())


@pytest.mark.parametrize("target, missing", [("chain_rule", "phi"), ("leibniz", "g")])
def test_instance_without_a_needed_field_is_refused(target, missing):
    # each of the three once died with a TypeError deep in the kernel
    inst = Instance.one([0.25, 0.75], [0.5, -0.5])
    with pytest.raises(ValueError, match=f"needs {missing}"):
        violation(inst, target, 1.5)
    with pytest.raises(ValueError, match=f"needs {missing}"):
        refine(inst, target, 2, 1.5)
    with pytest.raises(ValueError, match=f"needs {missing}"):
        replay(inst, target, 1.5)


def test_singular_f_reads_minus_inf_and_is_not_replayed():
    inst = Instance.one([0.25, 0.75], [0.0, 0.5])
    assert violation(inst, "strong_leibniz", 2.0) == -math.inf
    with pytest.raises(ValueError, match=r"f is not invertible: some \|f_i\| < 1e-06"):
        replay(inst, "strong_leibniz", 2.0)


@pytest.mark.parametrize("target", ["markov_variance", "nonsense"])
def test_unknown_target_is_refused(target):
    inst = Instance.one([0.25, 0.75], [0.5, -0.5], phi=PiecewiseLinearFn.from_dict(VSHAPE_WITNESS["phi"]))
    for call in (violation, replay):
        with pytest.raises(ValueError, match="unknown target"):
            call(inst, target, 1.5)


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


def reference_reach(inst, p):
    """A chain-rule instance's reach, in scalar steps: its atoms sorted, phi's
    increments between them replaced by their signs times the gaps, and the
    violation of that function."""
    d = inst.to_dict()
    phi = PiecewiseLinearFn.from_dict(d["phi"])
    atoms = sorted(zip(d["f"], d["mu"]))
    x, mu = [a for a, _ in atoms], ProbVector([m for _, m in atoms])
    z = [0.0]
    for a, b in zip(x, x[1:]):
        z.append(z[-1] + (b - a) * float(np.sign(phi(b) - phi(a))))
    return lp_norm(center(z, mu), mu, p) - lp_norm(center(x, mu), mu, p)


def reference_search(cfg):
    """``search`` one trial and one leader at a time, from public calls only."""
    insts = [random_instance(cfg, t) for t in range(cfg.trials)]
    scores = [[violation(inst, cfg.target, p) for p in cfg.p_grid] for inst in insts]
    reach = scores if cfg.target != "chain_rule" else [
        [reference_reach(inst, p) for p in cfg.p_grid] for inst in insts]
    steps = cfg.refine_steps if cfg.refine_top else 0
    best = []  # each exponent's (climbed value, trial, climbed instance)
    for j, p in enumerate(cfg.p_grid):
        # the best trial, then the others by reach above 1e-9, score and trial
        first = min(range(cfg.trials), key=lambda t: (-scores[t][j], t))
        others = sorted(set(range(cfg.trials)) - {first},
                        key=lambda t: (-reach[t][j] if reach[t][j] > 1e-9 else 0.0, -scores[t][j], t))
        leaders = [first, *others][:max(cfg.refine_top, 1)]
        climbed = []
        for t in leaders:
            tuned, value = refine(insts[t], cfg.target, steps, p, cfg.monotone, cfg.mass_floor)
            climbed.append((value, t, tuned))
        top = max(value for value, _, _ in climbed)
        best.append(next(c for c in climbed if c[0] == top))
    j = min(range(len(cfg.p_grid)), key=lambda j: (-best[j][0], best[j][1]))
    value, trial, tuned = best[j]
    witness = {**tuned.to_dict(), "p": exponent_tag(cfg.p_grid[j]), "target": cfg.target,
               "trial": trial, "violation": value}
    history, running = [], -math.inf
    for row in scores:
        running = max(running, *row)
        history.append(running)
    return {"per_p": {p: v for p, (v, _, _) in zip(cfg.p_grid, best)}, "best_p": cfg.p_grid[j],
            "best_violation": value, "witness": witness, "history": history}


GRIDS = {"chain_rule": (1, 3, "inf"), "strong_leibniz": (1, "inf"), "leibniz": (1.5, 2, "inf"),
         "square_bound": (1, 4, "inf")}


@pytest.mark.parametrize("refine_top", [0, 1, 5, 60])
@pytest.mark.parametrize("target", TARGETS)
def test_search_equals_one_at_a_time_reference(target, refine_top):
    # leaders: the best trial, then the others by reach and score, each refined
    # alone; an exponent's result is the first best climbed value, its head's
    # included; 60 > 40 trials
    cfg = SearchConfig(target=target, n=3, p_grid=GRIDS[target], trials=40, refine_steps=4,
                       refine_top=refine_top, max_breakpoints=3, seed=23)
    res = search(cfg)
    got = {"per_p": res.per_p, "best_p": res.best_p, "best_violation": res.best_violation,
           "witness": res.witness, "history": res.history.tolist()}
    assert got == reference_search(cfg)


def test_a_search_result_is_unequal_to_a_non_result():
    res = search(SearchConfig(target="chain_rule", n=3, p_grid=(1.0,), trials=4, refine_steps=1, seed=3))
    assert res == dataclasses.replace(res, history=res.history.copy())
    assert res.__eq__(vars(res)) is NotImplemented and res != vars(res) and res != 0


def test_chain_rule_leaders_follow_reach():
    # trial 37 alone has a phi that turns where a turn can violate at p = 1;
    # it scores below the five best, leads by its reach and climbs to a
    # violation; the search equals the one-at-a-time reference
    cfg = SearchConfig(target="chain_rule", n=3, p_grid=(1.0, 2.0), trials=60, refine_steps=2, seed=3)
    insts = [random_instance(cfg, t) for t in range(cfg.trials)]
    reach = [reference_reach(inst, 1.0) for inst in insts]
    scores = [violation(inst, "chain_rule", 1.0) for inst in insts]
    assert [t for t in range(cfg.trials) if reach[t] > 1e-9] == [37]
    assert 37 not in sorted(range(cfg.trials), key=lambda t: (-scores[t], t))[:5]
    res = search(cfg)
    assert res.witness["trial"] == 37 and res.best_violation > 0.01
    got = {"per_p": res.per_p, "best_p": res.best_p, "best_violation": res.best_violation,
           "witness": res.witness, "history": res.history.tolist()}
    assert got == reference_search(cfg)


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


# each target's checker on a witness's instance, as a caller would write it
CHECKERS = {
    "chain_rule": lambda mu, f, inst, tol: check_chain_rule(mu, f, PiecewiseLinearFn.from_dict(inst["phi"]), 1.0, tol),
    "strong_leibniz": lambda mu, f, inst, tol: check_strong_leibniz(mu, f, 1.0, tol),
}


@pytest.mark.parametrize("name", list(WITNESSES))
def test_witness_report_is_its_checkers_report(name):
    witness = WITNESSES[name]
    inst = witness["instance"]
    for tol in (0.0, 1e-9):
        expected = CHECKERS[witness["target"]](ProbVector(np.asarray(inst["mu"])), np.asarray(inst["f"]), inst, tol)
        expected.name = name
        rep = witness_report(name, tol)
        assert dumps(rep.to_dict()) == dumps(expected.to_dict())
        assert not rep.passed  # at tol 0 too: each witness fails its target


def test_witness_table_feeds_the_named_reports():
    assert list(WITNESSES)[:2] == [r.name for r in reproduce_known_counterexamples()]
    adjusted = witness_report("strong_leibniz_reciprocal_witness_adjusted")
    assert adjusted.instance["f"] == [-0.36, 0.28, 0.38]
    reference = WITNESSES[adjusted.name]["reference"]
    assert abs(adjusted.lhs - reference["lhs"]) <= reference["tol"]
    assert abs(adjusted.rhs - reference["rhs"]) <= reference["tol"]


def test_reciprocal_witness_exact_fractions():
    # criterion 1's stated rationals; the witness's floats are their nearest doubles
    mu = (Fraction(1, 36), Fraction(3, 4), Fraction(2, 9))
    f = (Fraction(-3, 10), Fraction(7, 25), Fraction(19, 50))
    assert [float(v) for v in mu] == list(RECIPROCAL_WITNESS["mu"])
    assert [float(v) for v in f] == list(RECIPROCAL_WITNESS["f"])

    def spread(x):  # E|x - Ex| at p = 1
        mean = sum(m * v for m, v in zip(mu, x))
        return sum(m * abs(v - mean) for m, v in zip(mu, x))

    inv = [1 / v for v in f]
    lhs = spread(inv)
    rhs = max(abs(v) for v in inv) ** 2 * spread(f)
    assert (lhs, rhs) == (Fraction(5755, 9576), Fraction(4225, 7938))
    rep = witness_report("strong_leibniz_reciprocal_witness")
    assert abs(rep.lhs - float(lhs)) <= 1e-15 * float(lhs)
    assert abs(rep.rhs - float(rhs)) <= 1e-15 * float(rhs)


#: (p, t) of the tent: t = 2**-k is the largest power of two where the certificate holds at p = a/b.
TENT_CERTIFICATES = [(Fraction(1), Fraction(1, 4)), (Fraction(5, 4), Fraction(1, 4)), (Fraction(3, 2), Fraction(1, 8)),
                     (Fraction(7, 4), Fraction(1, 16)), (Fraction(19, 10), Fraction(1, 2 ** 10)),
                     (Fraction(39, 20), Fraction(1, 2 ** 20)), (Fraction(199, 100), Fraction(1, 2 ** 100))]


@pytest.mark.parametrize("p, t", TENT_CERTIFICATES, ids=[str(p) for p, _ in TENT_CERTIFICATES])
def test_the_tent_breaks_the_non_monotone_chain_rule_below_2(p, t):
    # mu = (t/2, 1 - t, t/2), f = (-1, 0, 1), phi = -|x|: (lhs / rhs)^p = (1 - t)^p + (1 - t) t^(p-1), and
    # Bernoulli's (1 - t)^p >= 1 - p t puts it above 1 - p t + (1 - t) t^(p-1), which exceeds 1 iff
    # (1 - t) t^(p-2) > p, that is (1 - t)^b b^b > a^b t^(2b-a) at p = a/b
    mu, f = (t / 2, 1 - t, t / 2), (-1, 0, 1)
    assert sum(m * v for m, v in zip(mu, f)) == 0 and sum(m * abs(v) for m, v in zip(mu, f)) == t  # |f| is 0 or 1
    values = [-abs(v) for v in f]
    mean = sum(m * v for m, v in zip(mu, values))
    assert [v - mean for v in values] == [t - 1, t, t - 1]
    a, b = p.numerator, p.denominator

    def certified(t):
        return (1 - t) ** b * b ** b > a ** b * t ** (2 * b - a)
    assert certified(t) and not certified(2 * t)
    if p <= Fraction(39, 20):  # 1 - t is exact in float, and the replay sees the violation
        phi = PiecewiseLinearFn([0.0], [1.0, -1.0], 0.0)
        assert phi(np.array([float(v) for v in f])).tolist() == values
        rep = check_chain_rule(ProbVector(np.array([float(m) for m in mu])), [float(v) for v in f], phi, float(p),
                               tol=0.0)
        assert not rep.passed, rep.summary()


def test_the_tent_at_39_20_passes_the_default_floor():
    # the slack, -2.0e-11, is far above the scale's rounding but within the absolute 1e-9 floor
    t = 2.0 ** -20
    rep = check_chain_rule(ProbVector(np.array([t / 2, 1 - t, t / 2])), [-1.0, 0.0, 1.0],
                           PiecewiseLinearFn([0.0], [1.0, -1.0], 0.0), 39 / 20)
    assert rep.passed and -1e-10 < rep.slack < -1e-11, rep.summary()


@pytest.mark.parametrize("p, t", TENT_CERTIFICATES, ids=[str(p) for p, _ in TENT_CERTIFICATES])
def test_tent_witness_finds_the_certified_t(p, t):
    witness = tent_witness(p)
    assert witness["t"] == t
    inst = Instance.from_dict(witness)
    assert inst.to_dict() == {"mu": [float(t / 2), float(1 - t), float(t / 2)], "f": [-1.0, 0.0, 1.0],
                              "phi": {"breakpoints": [0.0], "slopes": [1.0, -1.0], "anchor": 0.0}}
    if p <= Fraction(39, 20):  # as the certificate test replays it
        rep = check_chain_rule(witness["mu"], witness["f"], PiecewiseLinearFn.from_dict(witness["phi"]), float(p),
                               tol=0.0)
        assert not rep.passed, rep.summary()


@pytest.mark.parametrize("p", [2, Fraction(1, 2), Fraction(1.9), math.inf, math.nan, None, "abc"],
                         ids=["2", "1/2", "Fraction(1.9)", "inf", "nan", "None", "abc"])
def test_tent_witness_refuses_p_outside_1_2_or_past_denominator_100(p):
    with pytest.raises(ValueError, match=r"^the tent takes p = a/b in \[1, 2\) with b <= 100"):
        tent_witness(p)


def test_vshape_function_has_exact_unit_lipschitz():
    phi = PiecewiseLinearFn.from_dict(VSHAPE_WITNESS["phi"])
    assert phi.lipschitz == 1.0
    assert np.array_equal(phi.slopes, [-1.0, 0.6])
