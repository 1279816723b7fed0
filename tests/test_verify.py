"""Inequality checkers, replication, and rationalization."""

import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scalar_reference import sample_prob_vector

from leibnizlab.core import HolderTriple, ProbVector, expectation, lp_norm
from leibnizlab.knorms import lp_evaluator
from leibnizlab.operators import (PiecewiseLinearFn, centering_identity_check, derivation_checks,
                                  laplacian_norm_bound_check)
from leibnizlab.sampling import sample_holder_triple_pair
from leibnizlab.verify import (
    RationalProbVector,
    check_chain_rule,
    check_decomposition,
    check_holder_theta,
    check_leibniz,
    check_markov_variance,
    check_square_bound,
    check_strong_leibniz,
    rationalize,
    replicate,
)

VSHAPE = PiecewiseLinearFn(np.array([1 / 15]), np.array([-1.0, 0.6]), -0.8)


# -- decomposition ---------------------------------------------------------------

def test_decomposition_trivial():
    rep = check_decomposition(np.zeros(4), np.zeros(4))
    assert rep.passed and rep.lhs == 0.0
    rep = check_decomposition(np.full(5, 2.0), np.array([1.0, -1.0, 0.5, 2.0, 0.0]))
    assert rep.passed and rep.lhs < 1e-14


def test_decomposition_random():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(2, 11))
        rep = check_decomposition(rng.normal(size=n), rng.normal(size=n))
        assert rep.passed
        assert rep.lhs <= 1e-10


# -- Holder-type bound for theta -----------------------------------------------------

@pytest.mark.parametrize("r,p,q", [(1, math.inf, 1), (2, 2, math.inf),
                                   (2, 4, 4), (1, 2, 2), (1.5, 3, 3)])
def test_holder_theta_grid(r, p, q):
    triple = HolderTriple(r, p, q)
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        rep = check_holder_theta(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n), triple)
        assert rep.passed, rep.summary()


def test_holder_theta_trivial():
    t = HolderTriple(2, 4, 4)
    rep = check_holder_theta(np.array([0.5, -0.5]), np.array([3.0, 3.0]), t)
    assert rep.passed and rep.lhs == 0.0
    rep = check_holder_theta(np.zeros(3), np.array([1.0, 2.0, -1.0]), t)
    assert rep.passed and rep.lhs == 0.0 and rep.rhs == 0.0


# -- product-rule inequality -----------------------------------------------------------

def test_leibniz_constant_factor():
    mu = ProbVector([0.2, 0.3, 0.5])
    g = np.array([1.0, -2.0, 0.7])
    t1 = HolderTriple(1.5, 3, 3)
    t2 = HolderTriple(1.5, 3, 3)
    for c in (0.0, 1.0, -4.0):
        rep = check_leibniz(mu, np.full(3, c), g, t1, t2)
        assert rep.passed


def test_leibniz_seminorm_endpoint():
    # p1 = p2 = inf, q = r: the plain seminorm product rule
    rng = np.random.default_rng(2)
    for r in (1.0, 2.0, math.inf):
        t = HolderTriple(r, math.inf, r)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            mu = sample_prob_vector(rng, n)
            rep = check_leibniz(mu, rng.uniform(-1, 1, n), rng.uniform(-1, 1, n), t, t)
            assert rep.passed


def test_leibniz_requires_matching_r():
    mu = ProbVector([0.5, 0.5])
    with pytest.raises(ValueError):
        check_leibniz(mu, [1.0, 2.0], [0.5, 1.5],
                      HolderTriple(1, 2, 2), HolderTriple(2, 4, 4))


def test_leibniz_random_suite():
    rng = np.random.default_rng(3)
    for t in range(1000):
        trial = np.random.default_rng((12345, 99, t))
        n = int(trial.integers(2, 9))
        mu = sample_prob_vector(trial, n)
        r, p1, q1, p2, q2 = sample_holder_triple_pair(trial.random(1), trial.random(1))[0].tolist()
        t1, t2 = HolderTriple(r, p1, q1), HolderTriple(r, p2, q2)
        rep = check_leibniz(mu, trial.uniform(-1, 1, n), trial.uniform(-1, 1, n), t1, t2)
        assert rep.passed, rep.instance
        assert len(rep.instance["rhs_terms"]) == 2
        assert rep.rhs == pytest.approx(sum(rep.instance["rhs_terms"]))


# -- chain rule ---------------------------------------------------------------------

def test_chain_rule_identity_is_equality():
    mu = ProbVector([0.1, 0.6, 0.3])
    f = np.array([0.2, -0.8, 0.5])
    rep = check_chain_rule(mu, f, PiecewiseLinearFn.identity(), 2.0)
    assert rep.passed
    assert rep.lhs == pytest.approx(rep.rhs, abs=1e-14)


def test_chain_rule_vshape_failure_at_p1():
    mu = ProbVector([1 / 6, 9 / 12, 1 / 12])
    f = np.array([-11 / 15, 1 / 15, 13 / 15])
    rep = check_chain_rule(mu, f, VSHAPE, 1.0)
    assert not rep.passed
    assert rep.lhs == pytest.approx(0.26, abs=1e-12)
    assert rep.rhs == pytest.approx(11 / 45, abs=1e-12)
    assert rep.violation == pytest.approx(0.016, abs=1e-3)
    assert rep.instance["monotone"] is False
    assert rep.instance["lipschitz"] == 1.0


def test_chain_rule_monotone_random():
    rng = np.random.default_rng(4)
    for _ in range(500):
        n = int(rng.integers(2, 9))
        mu = sample_prob_vector(rng, n)
        f = rng.uniform(-1, 1, n)
        m = int(rng.integers(1, 5))
        bp = np.sort(rng.uniform(-1, 1, m)) + np.arange(m) * 1e-6
        sign = 1.0 if rng.random() < 0.5 else -1.0
        phi = PiecewiseLinearFn(bp, sign * np.abs(rng.normal(size=m + 1)), 0.0)
        p = (1.0, 1.5, 2.0, 3.0, math.inf)[int(rng.integers(5))]
        rep = check_chain_rule(mu, f, phi, p)
        assert rep.passed, rep.instance


# -- strong Leibniz (inverse bound) ----------------------------------------------------

def test_strong_leibniz_reciprocal_instance_exact_values():
    # exact fractions for the fixed witness: lhs = 5755/9576, rhs = 4225/7938
    mu = ProbVector([1 / 36, 3 / 4, 2 / 9])
    f = np.array([-0.3, 0.28, 0.38])
    rep = check_strong_leibniz(mu, f, 1.0)
    assert not rep.passed
    assert rep.lhs == pytest.approx(float(Fraction(5755, 9576)), abs=1e-12)
    assert rep.rhs == pytest.approx(float(Fraction(4225, 7938)), abs=1e-12)
    assert rep.violation == pytest.approx(0.0687316837, abs=1e-9)


def test_strong_leibniz_adjusted_instance_matches_reference_digits():
    # the nearby instance with first coordinate -0.36 lands on the
    # quoted reference values 0.57783 / 0.5417
    mu = ProbVector([1 / 36, 3 / 4, 2 / 9])
    rep = check_strong_leibniz(mu, np.array([-0.36, 0.28, 0.38]), 1.0)
    assert not rep.passed
    assert rep.lhs == pytest.approx(0.57783, abs=5e-4)
    assert rep.rhs == pytest.approx(0.5417, abs=5e-4)


def test_strong_leibniz_constant_and_errors():
    mu = ProbVector([0.5, 0.5])
    rep = check_strong_leibniz(mu, np.array([2.0, 2.0]), 1.0)
    assert rep.passed and rep.lhs == 0.0 and rep.rhs == 0.0
    with pytest.raises(ValueError):
        check_strong_leibniz(mu, np.array([1.0, 1e-9]), 1.0)


def test_strong_leibniz_random_p2_sweep():
    # conjectured safe region: no violations expected at p = 2
    rng = np.random.default_rng(5)
    worst = -math.inf
    for _ in range(2000):
        n = int(rng.integers(2, 9))
        mu = sample_prob_vector(rng, n)
        f = rng.uniform(0.05, 1.0, n) * np.where(rng.random(n) < 0.5, -1.0, 1.0)
        rep = check_strong_leibniz(mu, f, 2.0)
        worst = max(worst, rep.violation)
        assert rep.passed, f"unexpected violation at p=2: {rep.instance}"
    assert worst <= 1e-9


# -- Markov variance bound --------------------------------------------------------------

def test_markov_identity_equality():
    mu = ProbVector([0.25, 0.25, 0.5])
    f = np.array([1.0, 2.0, -0.5])
    rep = check_markov_variance(mu, f, PiecewiseLinearFn.identity())
    assert rep.passed and rep.lhs == pytest.approx(rep.rhs)


def test_markov_vshape_passes_despite_p1_failure():
    mu = ProbVector([1 / 6, 9 / 12, 1 / 12])
    f = np.array([-11 / 15, 1 / 15, 13 / 15])
    rep = check_markov_variance(mu, f, VSHAPE)
    assert rep.passed


def test_markov_random_lipschitz():
    rng = np.random.default_rng(6)
    for _ in range(500):
        n = int(rng.integers(2, 9))
        mu = sample_prob_vector(rng, n)
        f = rng.uniform(-1, 1, n)
        m = int(rng.integers(1, 7))
        bp = np.sort(rng.uniform(-1, 1, m)) + np.arange(m) * 1e-6
        phi = PiecewiseLinearFn(bp, rng.uniform(-1, 1, m + 1), float(rng.normal()))
        assert check_markov_variance(mu, f, phi).passed


def test_markov_refuses_a_lipschitz_square_beyond_the_float_range():
    phi = PiecewiseLinearFn([0.0], [1e200, -1e200], 0.0)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match=r"^Lip\(phi\)\^2 overflows the float range$"):
        check_markov_variance(ProbVector([0.5, 0.5]), [0.1, 0.2], phi)


def test_holder_theta_names_an_overflow_of_theta_and_warns_nothing():
    # the inputs are finite: Theta_x (y - Ey) overflows inside the checker
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^Theta_x \(y - Ey\) overflows the float range$"):
            check_holder_theta([1e308, 1e308], [1.0, -1.0], HolderTriple(2.0, 4.0, 4.0))


# -- square-function bound ---------------------------------------------------------------

def test_square_bound_trivial():
    mu = ProbVector([0.5, 0.5])
    rep = check_square_bound(mu, np.array([3.0, 3.0]), 1.0)
    assert rep.passed and rep.lhs == 0.0
    rep = check_square_bound(mu, np.array([1.0, -1.0]), 7.0)
    assert rep.passed and rep.lhs == 0.0


def test_square_bound_random():
    rng = np.random.default_rng(7)
    for _ in range(500):
        n = int(rng.integers(2, 9))
        mu = sample_prob_vector(rng, n)
        f = rng.uniform(-1, 1, n)
        p = (1.0, 1.5, 2.0, 4.0, math.inf)[int(rng.integers(5))]
        assert check_square_bound(mu, f, p).passed


# -- replication ----------------------------------------------------------------------

def test_replicate_identity_and_simple():
    uni = RationalProbVector((1, 1, 1), 3)
    x = np.array([4.0, -1.0, 0.5])
    assert np.array_equal(replicate(x, uni), x)
    third = RationalProbVector((1, 2), 3)
    y = replicate(np.array([5.0, 7.0]), third)
    assert np.array_equal(y, [5.0, 7.0, 7.0])
    assert expectation([5.0, 7.0], third.to_prob_vector()) == pytest.approx(np.mean(y))


def test_replicate_preserves_norms_and_products():
    rng = np.random.default_rng(8)
    grid = (1.0, 1.5, 2.0, 3.0, 8.0, math.inf)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        nums = tuple(int(v) for v in rng.integers(1, 200, n))
        mu_q = RationalProbVector(nums, sum(nums))
        mu = mu_q.to_prob_vector()
        lam = ProbVector.uniform(mu_q.denominator)
        x, y = rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)
        phi_x, phi_y = replicate(x, mu_q), replicate(y, mu_q)
        assert phi_x.size == mu_q.denominator  # injective: every repeat accounted for
        for p in grid:
            assert lp_norm(x, mu, p) == pytest.approx(lp_norm(phi_x, lam, p), abs=1e-12)
            lhs = lp_norm(x * y - expectation(x * y, mu), mu, p)
            rhs = lp_norm(phi_x * phi_y - expectation(phi_x * phi_y, lam), lam, p)
            assert lhs == pytest.approx(rhs, abs=1e-12)


T22 = HolderTriple(2.0, 4.0, 4.0)
RAW_WEIGHT_CALLS = {
    "check_leibniz": lambda w: check_leibniz(w, [1.0, 0.0], [0.0, 1.0], T22, T22),
    "check_chain_rule": lambda w: check_chain_rule(w, [1.0, 0.0], PiecewiseLinearFn.identity(), 2.0),
    "check_strong_leibniz": lambda w: check_strong_leibniz(w, [1.0, 2.0], 2.0),
    "check_markov_variance": lambda w: check_markov_variance(w, [1.0, 0.0], PiecewiseLinearFn.identity()),
    "check_square_bound": lambda w: check_square_bound(w, [1.0, 0.0], 2.0),
    "lp_norm": lambda w: lp_norm([1.0, 0.0], w, 2.0),
    "expectation": lambda w: expectation([1.0, 2.0], w),
}


@pytest.mark.parametrize("weights", [[0.7, 0.7], [1.5, -0.5], [0.5, math.nan]], ids=["heavy", "negative", "nan"])
@pytest.mark.parametrize("name", RAW_WEIGHT_CALLS)
def test_raw_weight_arrays_are_validated(name, weights):
    # a raw array is read through ProbVector: a "measure" of mass 1.4, one
    # with a negative weight and one with a nan weight are all refused
    with pytest.raises(ValueError):
        RAW_WEIGHT_CALLS[name](np.array(weights))


def test_rational_prob_vector_validation():
    with pytest.raises(ValueError):
        RationalProbVector((0, 3), 3)
    with pytest.raises(ValueError):
        RationalProbVector((1, 1), 3)
    with pytest.raises(ValueError):
        RationalProbVector((1, 200_000), 200_001)


def test_rational_prob_vector_refuses_no_atoms():
    with pytest.raises(ValueError, match="^need at least one atom$"):
        RationalProbVector((), 0)


def test_rational_prob_vector_counts_its_atoms():
    assert RationalProbVector((1, 2), 3).n == 2


# -- rationalization ---------------------------------------------------------------------

def test_rationalize_refuses_a_denominator_above_the_replication_cap():
    with pytest.raises(ValueError, match="^max_denominator 200000 exceeds replication cap 100000$"):
        rationalize(ProbVector([0.3, 0.7]), 200_000)


def test_rationalize_exact_cases():
    got = rationalize(ProbVector([1 / 3, 2 / 3]), 3)
    assert got.numerators == (1, 2) and got.denominator == 3
    got = rationalize(ProbVector([0.25, 0.25, 0.5]), 100)
    assert got.weights() == pytest.approx([0.25, 0.25, 0.5], abs=0.0)


def test_rationalize_error_bound_and_continuity():
    rng = np.random.default_rng(9)
    cap = 10_000
    for _ in range(100):
        n = int(rng.integers(2, 7))
        mu = sample_prob_vector(rng, n)
        approx = rationalize(mu, cap)
        assert sum(approx.numerators) == approx.denominator
        assert np.max(np.abs(approx.weights() - mu.weights)) <= 1e-4
        # checker values move by at most O(n) times the per-atom error
        f, g = rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)
        t1 = HolderTriple(1.0, 2.0, 2.0)
        a = check_leibniz(mu, f, g, t1, t1)
        b = check_leibniz(approx.to_prob_vector(), f, g, t1, t1)
        assert abs(a.lhs - b.lhs) <= 10 * n * 1e-4
        assert abs(a.rhs - b.rhs) <= 10 * n * 1e-4


def test_rational_prob_vector_takes_integers_only():
    # (1.5, 1.5) was truncated to (1, 1), then refused for its sum
    with pytest.raises(ValueError, match=re.escape("each numerator must be an integer, got 1.5")):
        RationalProbVector((1.5, 1.5), 3)
    for m in (3.0, True, "3"):
        with pytest.raises(ValueError, match=re.escape(f"denominator must be an integer, got {m!r}")):
            RationalProbVector((1, 2), m)
    got = RationalProbVector((np.int64(1), np.int32(2)), np.int64(3))
    assert got.numerators == (1, 2) and got.denominator == 3 and type(got.denominator) is int


def test_rationalize_takes_an_integer_denominator():
    # 10.9 was read as 10
    mu = ProbVector([0.25, 0.75])
    for cap in (10.9, 10.0, True, "10"):
        with pytest.raises(ValueError, match=re.escape(f"max_denominator must be an integer, got {cap!r}")):
            rationalize(mu, cap)
    assert rationalize(mu, np.int64(10)) == rationalize(mu, 10)


def test_rationalize_keeps_every_atom_positive():
    # an atom that rounds to no mass takes one unit from the largest
    got = rationalize(ProbVector([0.001, 0.999]), 10)
    assert (got.numerators, got.denominator) == ((1, 9), 10)
    got = rationalize(ProbVector([0.004, 0.004, 0.992]), 10)
    assert (got.numerators, got.denominator) == ((1, 1, 8), 10)


def test_report_summary():
    rep = check_square_bound(ProbVector([0.5, 0.5]), [1.0, -1.0], 2.0)
    assert rep.summary() == "[PASS] square_function_bound: lhs=0 rhs=2 slack=2"
    rep = check_strong_leibniz(ProbVector([1 / 36, 3 / 4, 2 / 9]), [-0.3, 0.28, 0.38], 1.0)
    assert rep.summary() == "[FAIL] strong_leibniz: lhs=0.600981620718 rhs=0.532249937012 slack=-0.0687"


def test_rationalize_infeasible_cap():
    with pytest.raises(ValueError):
        rationalize(ProbVector([0.2, 0.3, 0.5]), 2)


# -- no report passes on a nan ----------------------------------------------------------------

#: Magnitudes of the sweep's inputs: each vector, matrix and phi takes its own.
NAN_SWEEP_SCALES = (1.0, 1e100, 1e200, 1e300, 1e308)


def _nan_sweep_calls(rng):
    """One call of each one-instance checker on finite inputs: entries of
    either sign and magnitude in [s / 2, s), s drawn from NAN_SWEEP_SCALES,
    so that sums and differences at the top scale overflow."""
    n = int(rng.integers(2, 6))

    def draw(*shape):
        return float(rng.choice(NAN_SWEEP_SCALES)) * rng.choice([-1.0, 1.0], shape) * rng.uniform(0.5, 1.0, shape)
    mu = sample_prob_vector(rng, n)
    f, g, x = draw(n), draw(n), draw(n)
    phi = PiecewiseLinearFn(np.sort(np.abs(draw(2))) * [-1.0, 1.0], draw(3), draw()[()])
    p = float(rng.choice([1.0, 1.5, 2.0, 3.0, math.inf]))
    t1, t2 = HolderTriple.split(p, float(rng.uniform())), HolderTriple.split(p, float(rng.uniform()))
    w = np.abs(np.triu(draw(n, n), 1))
    L = w + w.T - np.diag((w + w.T).sum(axis=1))
    return [
        lambda: check_leibniz(mu, f, g, t1, t2),
        lambda: check_chain_rule(mu, f, phi, p),
        lambda: check_markov_variance(mu, f, phi),
        lambda: check_strong_leibniz(mu, f, p),
        lambda: check_square_bound(mu, f, p),
        lambda: check_decomposition(f, g),
        lambda: check_holder_theta(f, g, t1),
        lambda: derivation_checks(f, g),
        lambda: centering_identity_check(f, phi),
        lambda: laplacian_norm_bound_check(L, x - x.mean(), lp_evaluator(p)),
    ]


def test_no_report_passes_on_a_nan():
    # a report whose lhs, rhs or an echoed deviation is nan must fail; an inf
    # rhs beside a finite lhs may pass, since the true rhs is beyond the float range
    rng = np.random.default_rng(34)
    reports = refused = 0
    with np.errstate(all="ignore"):
        for _ in range(60):
            for call in _nan_sweep_calls(rng):
                try:
                    rep = call()
                except ValueError:
                    refused += 1
                    continue
                reports += 1
                values = [rep.lhs, rep.rhs, *rep.instance.get("deviations", {}).values()]
                assert not (any(map(math.isnan, values)) and rep.passed), rep
    assert reports > 300 and refused > 0

