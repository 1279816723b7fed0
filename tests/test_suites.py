"""Property suites: the block suites against the one-instance computation,
the suites' size limits, and the strong-Leibniz open-region note."""

import functools
import inspect
import itertools
import re
import weakref

import numpy as np
import pytest
import scalar_reference as ref
from scalar_reference import (
    Trial,
    laplacian_of,
    sample_distinct_points,
    sample_piecewise_linear,
    sample_prob_vector,
    sample_vector,
    scalar_chain_rule,
    scalar_centering,
    scalar_decomposition,
    scalar_derivation,
    scalar_identities,
    scalar_laplacian,
    scalar_laplacian_bound,
    scalar_leibniz,
    scalar_markov,
    scalar_square,
    scalar_strong_leibniz,
)

import leibnizlab.kernels as kernels
import leibnizlab.operators as operators
import leibnizlab.serialize as serialize
import leibnizlab.suites as suites
from leibnizlab import verify
from leibnizlab.core import IDENTITY_TOL, INEQUALITY_TOL, HolderTriple, weak_majorizes
from leibnizlab.knorms import k_norm_evaluator, lp_evaluator
from leibnizlab.operators import DegenerateInputError, PiecewiseLinearFn, deflated_theta
from leibnizlab.reports import ReportBlock, VerificationReport
from leibnizlab.sampling import EXPONENT_GRID, MASS_FLOOR, MAX_ATOMS, sample_holder_triple_pair
from leibnizlab.search import witness_report
from leibnizlab.serialize import dumps


def _scalar_report(x, y, tol, seed=None):
    """One instance at a time, as the suite computed it before block evaluation."""
    image = np.abs(deflated_theta(x) @ y)
    bound = np.sort(np.abs(x))[::-1] * np.sort(np.abs(y))[::-1]
    ok = weak_majorizes(bound, image, tol)
    worst = float(np.max(np.cumsum(np.sort(image)[::-1]) - np.cumsum(np.sort(bound)[::-1])))
    return VerificationReport(
        name="deflated_theta_majorization",
        lhs=worst, rhs=0.0, slack=-worst, passed=ok, tolerance=tol,
        instance={"x": [float(v) for v in x], "y": [float(v) for v in y]},
        seed=seed,
    )


def _scalar_suite(trials, n_max, seed, tol, exhaustive_n):
    reports = []
    for t in range(trials):
        trial = Trial(seed, 2, t, 1 + 2 * n_max)  # n, x, y
        n = trial.size(1, n_max)
        reports.append(_scalar_report(trial.vector(1, n), trial.vector(1 + n_max, n), tol, seed=t))
    for n in range(1, exhaustive_n + 1):
        patterns = list(itertools.product((-1.0, 0.0, 1.0), repeat=n))
        for xs in patterns:
            for ys in patterns:
                reports.append(_scalar_report(np.array(xs), np.array(ys), tol))
    return reports


def _bits(value):
    """A report field with every float replaced by its exact hex form (keeps -0.0)."""
    if isinstance(value, float):
        return ("float", value.hex())
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_bits(v) for v in value]
    return (type(value).__name__, value)


def _fields(reports):
    return [_bits(r.to_dict()) for r in reports]


@pytest.mark.parametrize("tol", [IDENTITY_TOL, -0.25])
def test_block_suite_matches_scalar_reference(tol):
    outcome = suites.suite_majorization(trials=400, n_max=8, seed=11, tol=tol)
    reference = _scalar_suite(400, 8, 11, tol, 4)
    assert {len(r.instance["x"]) for r in reference[:400]} == set(range(1, 9))
    assert len(outcome.reports) == 400 + sum(9 ** n for n in range(1, 5))
    assert _fields(outcome.reports) == _fields(reference)
    if tol < 0:  # the negative tolerance exercises both verdicts
        assert {r.passed for r in outcome.reports} == {True, False}


def test_outcome_holds_one_chunks_lines_at_a_time(monkeypatch):
    # the rows of a draw's two blocks interleave, as a draw's blocks of different n do
    def block(seeds):
        return ReportBlock.from_values("x", np.zeros(len(seeds)), np.ones(len(seeds)), 0.0, {}, seed=np.array(seeds))
    chunks = [([block([0, 2, 3]), block([1, 4])], np.array([0, 3, 1, 2, 4])), ([block([5, 6])], None),
              ([block([7]), block([8])], np.array([0, 1]))]
    outcome = suites.SuiteOutcome("x", chunks)
    held = []  # (chunk, weak reference) of every line formatted

    class Line(str):  # a line a weakref can follow
        pass

    original = ReportBlock.lines

    def lines(b, layout=None):
        k = next(i for i, (blocks, _) in enumerate(chunks) if any(b is c for c in blocks))
        assert all(ref() is None for j, ref in held if j < k), "an earlier chunk's lines are still held"
        out = [Line(line) for line in original(b, layout)]
        held.extend((k, weakref.ref(line)) for line in out)
        return out
    monkeypatch.setattr(ReportBlock, "lines", lines)
    monkeypatch.setattr(suites, "LINES_PER_TEXT", 2)
    texts = list(outcome.lines())
    monkeypatch.undo()
    assert len(held) == 9 and all(ref() is None for _, ref in held)
    assert [len(t.split("\n")) for t in texts] == [2, 2, 1, 2, 2]
    assert "\n".join(texts).split("\n") == [dumps(r.to_dict()) for r in outcome.reports]
    assert [r.seed for r in outcome.reports] == list(range(9))


def test_outcome_formats_each_chunks_floats_in_one_pass(monkeypatch):
    # laplacian draws one chunk of 21 blocks; strong-leibniz a witness chunk and a draw
    for name, chunks in (("laplacian", 1), ("strong-leibniz", 2)):
        outcome = suites.SUITES[name](trials=300, seed=7)
        calls = []
        digits = serialize._digits
        monkeypatch.setattr(serialize, "_digits", lambda values: calls.append(len(values)) or digits(values))
        lines = "\n".join(outcome.lines()).split("\n")
        monkeypatch.undo()
        assert len(outcome.chunks) == len(calls) == chunks and min(calls) > 0
        assert lines == [dumps(r.to_dict()) for r in outcome.reports]


# every suite as verify runs it, and two whose negative tolerance gives both verdicts
OUTCOME_CASES = [(name, {}) for name in suites.SUITES] + [
    ("majorization", {"tol": -0.25}), ("strong-leibniz", {"p": 1.0, "tol": -0.25})]


@pytest.mark.parametrize("seed", [7, 3])
@pytest.mark.parametrize("name, kwargs", OUTCOME_CASES,
                         ids=[name + "".join(f"-{k}={v}" for k, v in kw.items()) for name, kw in OUTCOME_CASES])
def test_outcome_counts_from_columns_match_the_reports(name, kwargs, seed):
    outcome = suites.SUITES[name](trials=60, seed=seed, **kwargs)
    failed, worst, summary = outcome.failed, outcome.worst_slack, outcome.summary()
    reports = outcome.reports
    expected = [r for r in reports if not r.passed and not r.instance.get("expected_failure", False)]
    least = min(r.slack for r in reports)
    assert (outcome.trials, failed, _bits(worst)) == (len(reports), len(expected), _bits(least))
    assert _fields(outcome.failures) == _fields(expected)
    verdict = "PASS" if not outcome.theorem_backed or not expected else "FAIL"
    kind = "theorem" if outcome.theorem_backed else "evidence"
    assert summary == (f"[{verdict}] suite {name} ({kind}): {len(reports)} checks, {len(expected)} failures, "
                       f"worst slack {least:.3g}, {outcome.elapsed:.2f}s")
    if name == "strong-leibniz":  # the fixed witness fails, and is not counted
        assert not reports[0].passed and reports[0].instance["expected_failure"] and reports[0].seed is None
    if name == "majorization":  # the sign patterns come last, with no trial index
        assert len(reports) == 60 + sum(9 ** n for n in range(1, 5)) and reports[-1].seed is None
    if kwargs:
        assert expected and len(expected) < len(reports)


def test_block_size_does_not_change_reports(monkeypatch):
    runs = []
    # entries per block: one row at a time, 7 entries (7 rows at n = 1, one
    # row above), 7 rows at n = 4, and the default
    for size in (1, 7, 7 * 16, suites.MAJORIZATION_BLOCK):
        monkeypatch.setattr(suites, "MAJORIZATION_BLOCK", size)
        runs.append(_fields(suites.suite_majorization(trials=120, n_max=8, seed=3).reports))
    assert runs[0] == runs[1] == runs[2] == runs[3]


@pytest.mark.parametrize("name", list(suites.SUITES))
def test_scalar_suites_do_not_depend_on_the_block(monkeypatch, name):
    # draws of 1, 7 and BLOCK trials, and of as many as fit 40 words (one or
    # two trials of each layout at n_max 8); a group at n = n_max is also
    # evaluated as soon as it holds as many trials (MAJORIZATION_BLOCK // n**2)
    runs = []
    for size, words in ((1, suites.WORD_BLOCK), (7, suites.WORD_BLOCK), (suites.BLOCK, suites.WORD_BLOCK),
                        (suites.BLOCK, 40)):
        monkeypatch.setattr(suites, "BLOCK", size)
        monkeypatch.setattr(suites, "WORD_BLOCK", words)
        monkeypatch.setattr(suites, "MAJORIZATION_BLOCK", size * 8 ** 2)
        runs.append(_fields(suites.SUITES[name](trials=60, n_max=8, seed=3).reports))
    assert runs[0] == runs[1] == runs[2] == runs[3]
    # only the majorization sign patterns and the strong-leibniz witness have no trial
    seeds = {r.seed for r in suites.SUITES[name](trials=60, n_max=8, seed=3).reports}
    assert (seeds - {None} if name in ("majorization", "strong-leibniz") else seeds) == set(range(60))


def test_square_blocks_hold_at_most_majorization_block_entries(monkeypatch):
    # every block the matrix suites evaluate has (rows, n) with rows * n**2 <=
    # MAJORIZATION_BLOCK, or one row (n >= 63); batching still happens below that
    seen = []

    def spy(real):
        def call(first, *args, **kwargs):
            seen.append(first.shape[:2])
            return real(first, *args, **kwargs)
        return call
    for module, name in ((kernels, "validate_laplacians"), (operators, "centering_reports"),
                         (verify, "decomposition_reports")):
        monkeypatch.setattr(module, name, spy(getattr(module, name)))
    for name in ("laplacian", "identities", "decomposition"):
        suites.SUITES[name](trials=300, n_max=30, seed=4)
    suites.suite_laplacian(trials=20, n_max=300, seed=5)
    assert len(seen) > 3 and max(rows for rows, _ in seen) > 1 and max(n for _, n in seen) >= 63
    assert all(rows * n ** 2 <= suites.MAJORIZATION_BLOCK or rows == 1 for rows, n in seen)


def test_measure_suites_stop_where_the_mass_floor_does():
    rng = np.random.default_rng(0)
    assert len(sample_prob_vector(rng, MAX_ATOMS).weights) == MAX_ATOMS
    with pytest.raises(ValueError):
        sample_prob_vector(rng, MAX_ATOMS + 1)
    assert kernels.measures(rng.random((1, MAX_ATOMS - 1)), MASS_FLOOR).shape == (1, MAX_ATOMS)
    with pytest.raises(ValueError):
        kernels.measures(rng.random((1, MAX_ATOMS)), MASS_FLOOR)
    assert {name for name, (_, hi) in suites.N_MAX_BOUNDS.items() if hi == MAX_ATOMS} == {
        "leibniz", "chain-rule", "markov", "square", "strong-leibniz"}


@pytest.mark.parametrize("call", [
    functools.partial(suites.suite_leibniz, trials=3, n_max=1),
    functools.partial(suites.suite_majorization, n_max=0),
    functools.partial(suites.suite_square, trials=3, n_max=1000),
], ids=["leibniz-1", "majorization-0", "square-1000"])
def test_suites_refuse_n_max_outside_their_bounds(monkeypatch, call):
    # refused before any draw: a too-small n_max would read the wrong columns,
    # a too-large one would stop part-way at the mass floor
    def no_draw(*args):
        raise AssertionError("drew before checking n_max")
    monkeypatch.setattr(kernels, "trial_words", no_draw)
    with pytest.raises(ValueError, match="n_max must lie in"):
        call()


@pytest.mark.parametrize("call, message", [
    (functools.partial(suites.suite_square, trials=-5), "trials must be at least 1, got -5"),
    (functools.partial(suites.suite_square, trials=3, n_max=5.0), "n_max must be an integer, got 5.0"),
    (functools.partial(suites.suite_square, trials=2.5), "trials must be an integer, got 2.5"),
    (functools.partial(suites.suite_leibniz, trials=0), "trials must be at least 1, got 0"),
    (functools.partial(suites.suite_leibniz, trials=True), "trials must be an integer, got True"),
    (functools.partial(suites.suite_majorization, trials=3, n_max=True), "n_max must be an integer, got True"),
], ids=["trials-negative", "n_max-float", "trials-float", "trials-0", "trials-bool", "n_max-bool"])
def test_suites_refuse_trials_and_n_max_of_the_wrong_kind(monkeypatch, call, message):
    # refused before any draw: no trials would give a verdict on no work, and a
    # float would stop deep in the samplers with a bare TypeError
    def no_draw(*args):
        raise AssertionError("drew before checking trials and n_max")
    monkeypatch.setattr(kernels, "trial_words", no_draw)
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("n_max", ["5", None, 5.0, True], ids=["str", "None", "float", "bool"])
@pytest.mark.parametrize("name", list(suites.SUITES))
def test_every_suite_refuses_an_n_max_that_is_not_an_integer(monkeypatch, name, n_max):
    # refused before the suite lays anything out from n_max: its own offsets
    # or its statement's instance (``verify.Statement.columns`` and ``draw``)
    def no_layout(*args, **kwargs):
        raise AssertionError("computed a layout before checking n_max")
    monkeypatch.setattr(suites, "_offsets", no_layout)
    monkeypatch.setattr(verify.Statement, "columns", no_layout)
    monkeypatch.setattr(verify.Statement, "draw", no_layout)
    with pytest.raises(ValueError, match=re.escape(f"n_max must be an integer, got {n_max!r}")):
        suites.SUITES[name](trials=3, n_max=n_max)


def test_strong_leibniz_open_region_note():
    # a negative tolerance forces failures; the note counts them without the
    # fixed p = 1 witness, and the evidence suite stays ok
    outcome = suites.suite_strong_leibniz(trials=200, seed=0, p=2.0, tol=-0.01)
    failed = [r for r in outcome.reports if not r.passed]
    witness = outcome.reports[0]
    assert witness.instance["expected_failure"] and not witness.passed
    assert len(outcome.failures) == len(failed) - 1 > 0
    assert outcome.notes == [
        f"UNEXPECTED: {len(outcome.failures)} violations at p=2.0 (conjectured safe region)"]
    assert outcome.ok

    control = suites.suite_strong_leibniz(trials=200, seed=0, p=1.0, tol=-0.01)
    assert control.failures and control.notes == [] and control.ok


# -- the five suites that sample a measure, against a scalar reference -----------
#
# The scalar formulas of ``scalar_reference``, and each suite's trial loop as
# it was written one trial at a time: one ``Trial`` reader, parsing the
# suite's documented layout (``suites`` module docstring), and one checker
# call per trial.

#: Stream id and layout width at n_max N of each suite.
STREAMS = {"leibniz": 0, "chain-rule": 4, "markov": 5, "square": 6, "strong-leibniz": 8}
WIDTHS = {"leibniz": lambda N: 3 * N + 2, "chain-rule": lambda N: 2 * N + 17, "markov": lambda N: 2 * N + 16,
          "square": lambda N: 2 * N + 1, "strong-leibniz": lambda N: 3 * N,
          "decomposition": lambda N: 2 * N + 1, "laplacian": lambda N: 4 + N + max(2 * N + 12, N * (N - 1) // 2),
          "identities": lambda N: 18 + 4 * N}


def _scalar_trial(name, trial, n, N, tol, p):
    # column 0 holds n, the measure the next N - 1 columns, f (or the
    # magnitudes) the N after them
    mu = trial.measure(1, n)
    if name == "strong-leibniz":
        mag = [0.05 + (1.0 - 0.05) * u for u in trial.uniforms(N, n)]
        signs = [-1.0 if u < 0.5 else 1.0 for u in trial.uniforms(2 * N, n)]
        return scalar_strong_leibniz(mu, np.array(mag) * np.array(signs), p, tol)
    f = trial.vector(N, n)
    if name == "leibniz":
        return scalar_leibniz(mu, f, trial.vector(2 * N, n), *trial.holder_pair(3 * N), tol)
    if name == "markov":
        return scalar_markov(mu, f, trial.phi(2 * N, 6, monotone=False, signed=False), tol)
    if name == "chain-rule":
        phi = trial.phi(2 * N, 6, monotone=True, signed=True)
        return scalar_chain_rule(mu, f, phi, EXPONENT_GRID[trial.integer(2 * N + 16, len(EXPONENT_GRID))], tol)
    return scalar_square(mu, f, EXPONENT_GRID[trial.integer(2 * N, len(EXPONENT_GRID))], tol)


def _scalar_measure_suite(name, trials, n_max, seed, tol, p=2.0):
    reports = []
    for t in range(trials):
        trial = Trial(seed, STREAMS[name], t, WIDTHS[name](n_max))
        rep = _scalar_trial(name, trial, trial.size(2, n_max), n_max, tol, p)
        rep.seed = t
        reports.append(rep)
    if name == "strong-leibniz":
        witness = witness_report("strong_leibniz_reciprocal_witness", tol)
        witness.instance["expected_failure"] = True
        reports.insert(0, witness)
    return reports


def _run_suite(name, trials, n_max, seed, tol, p=2.0):
    kwargs = {"p": p} if name == "strong-leibniz" else {}
    return suites.SUITES[name](trials=trials, n_max=n_max, seed=seed, tol=tol, **kwargs)


@pytest.mark.parametrize("name", sorted(STREAMS))
@pytest.mark.parametrize("n_max, seed, tol", [(2, 0, INEQUALITY_TOL), (8, 5, INEQUALITY_TOL),
                                              (12, 11, -1e-3)])
def test_measure_suite_matches_scalar_reference(name, n_max, seed, tol):
    outcome = _run_suite(name, 130, n_max, seed, tol)
    reference = _scalar_measure_suite(name, 130, n_max, seed, tol)
    assert _fields(outcome.reports) == _fields(reference)
    assert {len(r.instance["f"]) for r in reference if r.seed is not None} == set(range(2, n_max + 1))


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_measure_suite_matches_scalar_reference_across_blocks(monkeypatch, name):
    # blocks of 50 drawn and evaluated trials: 130 trials cross two boundaries
    monkeypatch.setattr(suites, "BLOCK", 50)
    outcome = _run_suite(name, 130, 8, 3, INEQUALITY_TOL, p=1.0)
    assert _fields(outcome.reports) == _fields(_scalar_measure_suite(name, 130, 8, 3, INEQUALITY_TOL, p=1.0))


def test_checkers_match_scalar_reference():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(2, 10))
        mu = sample_prob_vector(rng, n)
        f, g = sample_vector(rng, n), sample_vector(rng, n)
        r, p1, q1, p2, q2 = sample_holder_triple_pair(rng.random(1), rng.random(1))[0].tolist()
        t1, t2 = HolderTriple(r, p1, q1), HolderTriple(r, p2, q2)
        phi = sample_piecewise_linear(rng, 6, monotone=bool(rng.random() < 0.5))
        p = EXPONENT_GRID[rng.integers(len(EXPONENT_GRID))]
        inv_f = np.where(np.abs(f) < 0.05, 0.5, f)
        pairs = [
            (verify.check_leibniz(mu, f, g, t1, t2), scalar_leibniz(mu, f, g, t1, t2, INEQUALITY_TOL)),
            (verify.check_chain_rule(mu, f, phi, p), scalar_chain_rule(mu, f, phi, p, INEQUALITY_TOL)),
            (verify.check_markov_variance(mu, f, phi), scalar_markov(mu, f, phi, INEQUALITY_TOL)),
            (verify.check_strong_leibniz(mu, inv_f, p), scalar_strong_leibniz(mu, inv_f, p, INEQUALITY_TOL)),
            (verify.check_square_bound(mu, f, p), scalar_square(mu, f, p, INEQUALITY_TOL)),
        ]
        for got, want in pairs:
            assert _bits(got.to_dict()) == _bits(want.to_dict())


# -- the three suites that build n x n matrices, against a scalar reference ------
#
# The scalar formulas of ``scalar_reference``, and each suite's trial loop as
# it was written one trial at a time, with the laplacian suite's norm pool
# as evaluators; ``Trial`` readers parse the documented layouts.

MATRIX_STREAMS = {"decomposition": 1, "laplacian": 3, "identities": 7}
DEFAULT_TOL = {"decomposition": IDENTITY_TOL, "laplacian": INEQUALITY_TOL, "identities": IDENTITY_TOL}
NORM_POOL = (("l1", lp_evaluator(1.0)), ("l1.5", lp_evaluator(1.5)), ("l2", lp_evaluator(2.0)),
             ("l3", lp_evaluator(3.0)), ("linf", lp_evaluator(np.inf)))


def _scalar_norm(rng, n):
    name, norm = NORM_POOL[rng.integers(len(NORM_POOL))]
    if rng.random() < 0.4:
        k = int(rng.integers(1, n + 1))
        return f"k{k}", k_norm_evaluator(k)
    return name, norm


def _trial_norm(trial, at, n):
    """The laplacian suite's norm: with the second uniform < 0.4 the k-norm of
    k = 1 + the integer of the third word over n, else the pool's entry of the first."""
    if trial.uniforms(at + 1, 1)[0] < 0.4:
        k = 1 + trial.integer(at + 2, n)
        return f"k{k}", k_norm_evaluator(k)
    return NORM_POOL[trial.integer(at, len(NORM_POOL))]


def _scalar_matrix_trial(name, trial, n, N, t, tol):
    if name == "decomposition":  # f, g
        return [scalar_decomposition(trial.vector(1, n), trial.vector(1 + N, n), tol)]
    if name == "identities":  # points, permutation, monotone, phi, f, g
        points = trial.distinct_points(1, 1 + N, n)
        monotone = trial.uniforms(1 + 2 * N, 1)[0] < 0.5
        phi = trial.phi(2 + 2 * N, 6, monotone=monotone, signed=monotone)
        return scalar_identities(points, phi, trial.vector(18 + 2 * N, n), trial.vector(18 + 3 * N, n), tol)
    # laplacian: norm, x, then points, permutation and phi (odd t) or the
    # weights' strict upper triangle, row by row (even t), from one column
    norm_name, norm = _trial_norm(trial, 1, n)
    x = trial.vector(4, n)
    if t % 2:
        points = trial.distinct_points(4 + N, 4 + 2 * N, n)
        phi = trial.phi(4 + 3 * N, 4, monotone=True, signed=True)
        return scalar_laplacian(ref.monotone_laplacian(points, phi), x, norm_name, norm, points, phi, tol)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    weights = np.zeros((n, n))
    for (i, j), w in zip(pairs, trial.uniforms(4 + N, len(pairs))):
        weights[i, j] = w
    return scalar_laplacian(laplacian_of(weights), x, norm_name, norm, None, None, tol)


def _scalar_matrix_suite(name, trials, n_max, seed, tol):
    reports = []
    for t in range(trials):
        trial = Trial(seed, MATRIX_STREAMS[name], t, WIDTHS[name](n_max))
        for rep in _scalar_matrix_trial(name, trial, trial.size(2, n_max), n_max, t, tol):
            rep.seed = t
            reports.append(rep)
    return reports


@pytest.mark.parametrize("name", sorted(MATRIX_STREAMS))
@pytest.mark.parametrize("n_max, seed, tol", [(2, 0, None), (8, 5, None), (12, 11, -1e-3)])
def test_matrix_suite_matches_scalar_reference(name, n_max, seed, tol):
    tol = DEFAULT_TOL[name] if tol is None else tol
    outcome = suites.SUITES[name](trials=130, n_max=n_max, seed=seed, tol=tol)
    reference = _scalar_matrix_suite(name, 130, n_max, seed, tol)
    assert _fields(outcome.reports) == _fields(reference)
    assert {len(r.instance.get("f", r.instance.get("x", []))) for r in reference} - {0} == set(
        range(2, n_max + 1))


@pytest.mark.parametrize("name", sorted(MATRIX_STREAMS))
def test_matrix_suite_matches_scalar_reference_across_blocks(monkeypatch, name):
    # blocks of 50 drawn and held trials: 130 trials cross two boundaries
    monkeypatch.setattr(suites, "BLOCK", 50)
    outcome = suites.SUITES[name](trials=130, n_max=8, seed=3)
    assert _fields(outcome.reports) == _fields(_scalar_matrix_suite(name, 130, 8, 3, DEFAULT_TOL[name]))


def test_matrix_checkers_match_scalar_reference():
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = int(rng.integers(1, 10))
        f, g = sample_vector(rng, n), sample_vector(rng, n)
        points = sample_distinct_points(rng, n)
        phi = sample_piecewise_linear(rng, 6, monotone=bool(rng.random() < 0.5))
        ramp = sample_piecewise_linear(rng, 4, monotone=True)
        L = ref.sample_laplacian(rng, n) if rng.random() < 0.5 else ref.monotone_laplacian(points, ramp)
        x = ref.sample_mean_zero(rng, n)
        _, norm = _scalar_norm(rng, n)
        pairs = [
            (verify.check_decomposition(f, g), scalar_decomposition(f, g, IDENTITY_TOL)),
            (operators.centering_identity_check(points, phi), scalar_centering(points, phi, IDENTITY_TOL)),
            (operators.derivation_checks(f, g), scalar_derivation(f, g, IDENTITY_TOL)),
            (operators.laplacian_norm_bound_check(L, x, norm), scalar_laplacian_bound(L, x, norm, INEQUALITY_TOL)),
        ]
        for got, want in pairs:
            assert _bits(got.to_dict()) == _bits(want.to_dict())
        assert _bits(list(operators.lhat_row_col_bounds(L))) == _bits(list(ref.hat_bounds(L)))
        for got, want in [(operators.theta_matrix(f), ref.theta_matrix(f)),
                          (operators.divided_difference_matrix(points, phi),
                           ref.divided_difference_matrix(points, phi)),
                          (operators.monotone_laplacian(points, ramp), ref.monotone_laplacian(points, ramp))]:
            assert got.tobytes() == want.tobytes()


def _laplacians(count, n, seed=5):
    rng = np.random.default_rng(seed)
    return np.array([ref.sample_laplacian(rng, n) for _ in range(count)])


@pytest.mark.parametrize("row, fault", [(0, "asymmetric"), (4, "row-sum"), (5, "negative")])
def test_laplacian_block_refuses_as_the_one_matrix_validator(row, fault):
    block = _laplacians(6, 3)
    bad = block[row].copy()
    if fault == "asymmetric":
        bad[0, 1] += 0.1
    elif fault == "row-sum":
        bad[1, 1] += 0.1
    else:
        bad[:] = [[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0]]
    block[row] = bad
    with pytest.raises(ValueError) as want:
        ref.validate_laplacian(bad)
    with pytest.raises(ValueError) as got:
        kernels.validate_laplacians(block)
    assert str(got.value) == str(want.value)
    kernels.validate_laplacians(np.delete(block, row, axis=0))  # the other rows pass


def test_laplacians_with_large_entries_pass_every_validator():
    # eigvalsh rounds by about eps ||L||, so an absolute PSD tolerance refuses
    # about half of these; the bound scales with the matrix
    rng = np.random.default_rng(0)
    block = []
    for _ in range(200):
        w = np.triu(rng.uniform(0, 1, (6, 6)), 1)
        w += w.T
        block.append((w - np.diag(w.sum(axis=1))) * 1e9)
    block = np.array(block)
    assert np.count_nonzero(np.linalg.eigvalsh(-block)[:, 0] < -kernels.PSD_TOL) > 50
    kernels.validate_laplacians(block)
    for L in block:
        operators.validate_laplacian(L)
        ref.validate_laplacian(L)


def test_monotone_laplacians_refuse_a_non_monotone_row():
    points = np.array([[-0.5, 0.0, 0.5], [-0.7, 0.1, 0.9], [0.2, 0.4, 0.6]])
    vshape = PiecewiseLinearFn(np.array([0.0]), np.array([-1.0, 1.0]), 0.0)
    with pytest.raises(ValueError) as want:
        ref.monotone_laplacian(points[1], vshape)
    T = kernels.divided_differences(points, lambda x: np.where(np.arange(3)[:, None] == 1, np.abs(x), x))
    with pytest.raises(ValueError) as got:
        kernels.monotone_laplacians(T)
    assert str(got.value) == str(want.value)


def test_divided_differences_refuse_close_points_in_any_row():
    points = np.array([[0.1, 0.5, -0.3], [0.2, 0.2 + 1e-12, 0.9], [0.0, 0.4, 0.8]])
    identity = PiecewiseLinearFn.identity()
    block = kernels.Block(None, points, bp=np.zeros((3, 1)), slopes=np.ones((3, 2)), anchor=np.zeros(3))
    with pytest.raises(DegenerateInputError) as want:
        ref.divided_difference_matrix(points[1], identity)
    with pytest.raises(DegenerateInputError) as got:
        kernels.divided_differences(points, functools.partial(kernels.phi, block))
    assert str(got.value) == str(want.value)
    assert kernels.divided_differences(points[[0, 2]], lambda x: x).shape == (2, 3, 3)


def test_only_the_strong_leibniz_sweep_is_evidence():
    for name, suite in suites.SUITES.items():
        assert suite(trials=3, seed=1).theorem_backed == (name != "strong-leibniz")
    for fn in (suites._run, suites._measure):
        assert "theorem_backed" not in inspect.signature(fn).parameters
