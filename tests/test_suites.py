"""Property suites: the block majorization suite against the one-instance
computation, the suites' size limits, and the strong-Leibniz open-region note."""

import itertools

import numpy as np
import pytest

import leibnizlab.suites as suites
from leibnizlab.core import IDENTITY_TOL, weak_majorizes
from leibnizlab.operators import deflated_theta
from leibnizlab.reports import VerificationReport
from leibnizlab.sampling import MAX_ATOMS, rng_for, sample_prob_vector


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
        rng = rng_for(seed, 2, t)
        n = int(rng.integers(1, n_max + 1))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        reports.append(_scalar_report(x, y, tol, seed=t))
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
    outcome = suites.suite_majorization(trials=400, n_max=8, seed=11, tol=tol, exhaustive_n=4)
    reference = _scalar_suite(400, 8, 11, tol, 4)
    assert {len(r.instance["x"]) for r in reference[:400]} == set(range(1, 9))
    assert len(outcome.reports) == 400 + sum(9 ** n for n in range(1, 5))
    assert _fields(outcome.reports) == _fields(reference)
    if tol < 0:  # the negative tolerance exercises both verdicts
        assert {r.passed for r in outcome.reports} == {True, False}


def test_block_size_does_not_change_reports(monkeypatch):
    runs = []
    # entries per block: one row at a time, 7 entries (7 rows at n = 1, one
    # row above), 7 rows at n = 4, and the default
    for size in (1, 7, 7 * 16, suites.MAJORIZATION_BLOCK):
        monkeypatch.setattr(suites, "MAJORIZATION_BLOCK", size)
        runs.append(_fields(suites.suite_majorization(trials=120, n_max=8, seed=3,
                                                      exhaustive_n=4).reports))
    assert runs[0] == runs[1] == runs[2] == runs[3]


def test_measure_suites_stop_where_the_mass_floor_does():
    rng = rng_for(0, 0)
    assert len(sample_prob_vector(rng, MAX_ATOMS).weights) == MAX_ATOMS
    with pytest.raises(ValueError):
        sample_prob_vector(rng, MAX_ATOMS + 1)
    assert {name for name, (_, hi) in suites.N_MAX_BOUNDS.items() if hi == MAX_ATOMS} == {
        "leibniz", "chain-rule", "markov", "square", "strong-leibniz"}


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
