"""Acceptance gate: every criterion at its stated tolerance and budget.

Each test covers one numbered criterion and prints a single pass/fail line
(visible with ``pytest -s``); the test name itself carries the criterion
number for the ``pytest -v`` listing.

Criterion 1 note: the quoted reference values (0.57783 / 0.5417) are not
attained by the stated instance f = (-0.3, 0.28, 0.38); exact-fraction
recomputation gives 5755/9576 = 0.600982 and 4225/7938 = 0.532250.  The
nearby instance with first coordinate -0.36 reproduces the quoted digits
exactly (see test_verify.py).  The criterion is asserted as stated and is
expected to fail on those two value pins; the violation verdict itself holds
either way.
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from leibnizlab.core import ProbVector, expectation, lp_norm, weak_majorizes
from leibnizlab.knorms import (
    dual_norm_bruteforce,
    dual_weighted_k_norm,
    k_norm,
    weighted_k_norm,
)
from leibnizlab.operators import deflated_theta
from leibnizlab.search import SearchConfig, reproduce_known_counterexamples, search
from leibnizlab.suites import (
    suite_chain_rule,
    suite_decomposition,
    suite_identities,
    suite_laplacian,
    suite_leibniz,
    suite_majorization,
    suite_markov,
    suite_square,
)
from leibnizlab.verify import RationalProbVector, replicate


@contextmanager
def criterion(num: int, label: str, limit_s: float):
    started = time.perf_counter()
    try:
        elapsed = lambda: time.perf_counter() - started  # noqa: E731
        yield elapsed
    except AssertionError:
        print(f"[FAIL] criterion {num:2d}: {label} ({time.perf_counter() - started:.2f}s)")
        raise
    took = time.perf_counter() - started
    print(f"[PASS] criterion {num:2d}: {label} ({took:.2f}s)")
    assert took < limit_s, f"criterion {num} exceeded its {limit_s}s budget: {took:.1f}s"


def _no_failures(outcome):
    bad = outcome.failures
    assert not bad, f"{len(bad)} failures in suite {outcome.name}; first: {bad[0].to_dict()}"


def test_criterion_01_reciprocal_witness_values():
    with criterion(1, "reciprocal witness reproduction", 1.0):
        started = time.perf_counter()
        rep, _ = reproduce_known_counterexamples()
        assert time.perf_counter() - started < 1.0
        assert not rep.passed  # the inverse bound is violated at p = 1
        assert rep.lhs == pytest.approx(0.57783, abs=5e-4), (
            f"computed lhs {rep.lhs:.6f} does not match the quoted 0.57783 "
            f"(the stated instance yields 5755/9576; f1 = -0.36 matches the quote)")
        assert rep.rhs == pytest.approx(0.5417, abs=5e-4), (
            f"computed rhs {rep.rhs:.6f} does not match the quoted 0.5417")


def test_criterion_02_vshape_witness_values():
    with criterion(2, "v-shape witness reproduction", 1.0):
        started = time.perf_counter()
        _, rep = reproduce_known_counterexamples()
        assert time.perf_counter() - started < 1.0
        assert not rep.passed  # chain rule fails at p = 1 for this phi
        assert rep.rhs == pytest.approx(0.244, abs=1e-3)  # Lip = 1 exactly
        assert rep.lhs == pytest.approx(0.26, abs=1e-3)
        assert rep.instance["lipschitz"] == 1.0


def test_criterion_03_product_rule_suite():
    with criterion(3, "product-rule inequality, 10^4 instances", 30.0):
        outcome = suite_leibniz(trials=10_000, n_max=8, seed=20260809, tol=1e-9)
        _no_failures(outcome)
        assert outcome.trials == 10_000


def test_criterion_04_decomposition_identity():
    with criterion(4, "centered-product decomposition, 10^3 instances", 5.0):
        outcome = suite_decomposition(trials=1000, n_max=10, seed=101, tol=1e-10)
        _no_failures(outcome)
        assert max(r.lhs for r in outcome.reports) <= 1e-10


def test_criterion_05_deflated_theta_majorization():
    with criterion(5, "deflated-theta majorization, random + exhaustive", 60.0):
        outcome = suite_majorization(trials=1000, n_max=8, seed=202, tol=1e-10)
        _no_failures(outcome)
        # exhaustive sign patterns are part of the suite; spot-check directly
        for n in (2, 3):
            for xs in itertools.product((-1.0, 0.0, 1.0), repeat=n):
                for ys in itertools.product((-1.0, 0.0, 1.0), repeat=n):
                    x, y = np.array(xs), np.array(ys)
                    image = np.abs(deflated_theta(x) @ y)
                    bound = np.sort(np.abs(x))[::-1] * np.sort(np.abs(y))[::-1]
                    assert weak_majorizes(bound, image, 1e-10)


def test_criterion_06_dual_norm_formula_vs_oracle():
    with criterion(6, "dual-norm formula vs brute-force oracle", 60.0):
        rng = np.random.default_rng(303)
        checked = 0
        for _ in range(1000):
            n = int(rng.integers(1, 7))
            w = np.sort(rng.uniform(0.05, 3.0, n))[::-1]
            x = rng.normal(size=n) * float(rng.uniform(0.1, 5.0))
            for k in range(1, n + 1):
                formula = dual_weighted_k_norm(x, w, k)
                oracle = dual_norm_bruteforce(x, w, k)
                assert abs(formula - oracle) <= 1e-9, (n, k, w, x)
                checked += 1
        assert checked >= 1000


def test_criterion_07_constant_weight_extremes_and_duality():
    with criterion(7, "constant-weight candidates and max-form duality", 5.0):
        for n in range(3, 6):
            for k in range(2, n):
                for signs in itertools.product((-1.0, 1.0), repeat=n):
                    assert k_norm(np.array(signs) / k, k) == pytest.approx(1.0, abs=1e-12)
                for i in range(n):
                    for sgn in (-1.0, 1.0):
                        e = np.zeros(n)
                        e[i] = sgn
                        assert weighted_k_norm(e, np.ones(n), k) == pytest.approx(1.0, abs=1e-12)
        rng = np.random.default_rng(404)
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, n + 1))
            x = rng.normal(size=n)
            expected = max(k_norm(x, 1), k_norm(x, n) / k)
            assert abs(dual_weighted_k_norm(x, np.ones(n), k) - expected) <= 1e-12


def test_criterion_08_laplacian_bound_suite():
    with criterion(8, "Laplacian norm bound and hat-matrix bounds", 30.0):
        outcome = suite_laplacian(trials=1000, n_max=8, seed=505, tol=1e-9)
        _no_failures(outcome)
        hat = [r for r in outcome.reports if r.name == "hat_matrix_operator_bounds"]
        assert len(hat) == 1000 and all(r.passed for r in hat)


def test_criterion_09_centering_and_derivation_identities():
    with criterion(9, "centering + derivation identities, 10^3 instances", 10.0):
        outcome = suite_identities(trials=1000, n_max=8, seed=606, tol=1e-10)
        _no_failures(outcome)
        assert max(r.lhs for r in outcome.reports) <= 1e-10


def test_criterion_10_chain_markov_square_suites():
    with criterion(10, "chain rule / variance / square bound, 10^4 each", 60.0):
        for fn, seed in ((suite_chain_rule, 707), (suite_markov, 808), (suite_square, 909)):
            outcome = fn(trials=10_000, n_max=8, seed=seed, tol=1e-9)
            _no_failures(outcome)


def test_criterion_11_replication_preserves_norms():
    with criterion(11, "replication map norm/product preservation", 10.0):
        rng = np.random.default_rng(111)
        grid = (1.0, 1.5, 2.0, 3.0, 8.0, math.inf)
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            nums = tuple(int(v) for v in rng.integers(1, 160, n))
            if sum(nums) > 1000:
                nums = tuple(1 + int(v) % 100 for v in nums)
            mu_q = RationalProbVector(nums, sum(nums))
            mu = mu_q.to_prob_vector()
            lam = ProbVector.uniform(mu_q.denominator)
            x, y = rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)
            px, py = replicate(x, mu_q), replicate(y, mu_q)
            p = grid[int(rng.integers(len(grid)))]
            assert abs(lp_norm(x, mu, p) - lp_norm(px, lam, p)) <= 1e-12
            lhs = lp_norm(x * y - expectation(x * y, mu), mu, p)
            rhs = lp_norm(px * py - expectation(px * py, lam), lam, p)
            assert abs(lhs - rhs) <= 1e-12


def test_criterion_12_open_question_sweep():
    with criterion(12, "non-monotone chain-rule sweep: p in {2,3,inf} clean, p=1 violated", 600.0):
        sweep = SearchConfig(target="chain_rule", n=4, p_grid=(2.0, 3.0, math.inf),
                             trials=100_000, refine_steps=10, seed=1618, monotone=False)
        result = search(sweep)
        for p, best in result.per_p.items():
            assert best <= 1e-9, (
                f"unexpected violation {best} at p={p}: evidence against the "
                f"conjectured safe region, witness {result.witness}")
        assert result.verdict().startswith("no violation found")

        control = SearchConfig(target="chain_rule", n=4, p_grid=(1.0,),
                               trials=100_000, refine_steps=10, seed=1618, monotone=False)
        found = search(control)
        assert found.best_violation >= 0.01
