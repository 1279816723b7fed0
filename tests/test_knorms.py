"""Weighted k-norms, the dual-norm formula, and the brute-force oracle."""

import itertools
import math
import re
import warnings

import numpy as np
import pytest

from leibnizlab.core import DimensionMismatchError
from leibnizlab.knorms import (
    ENUMERATION_CAP,
    KyFanDominanceError,
    dual_norm_bruteforce,
    dual_weighted_k_norm,
    extreme_point_candidates,
    k_norm,
    check_weight_vector,
    ky_fan_dominates,
    lp_evaluator,
    weighted_k_norm,
)


def test_k_norm_examples():
    assert k_norm([3.0, -1.0, 2.0], 2) == pytest.approx(5.0)
    x = np.array([0.5, -2.5, 1.0, 0.1])
    assert k_norm(x, 1) == pytest.approx(np.max(np.abs(x)))
    assert k_norm(x, 4) == pytest.approx(np.sum(np.abs(x)))
    with pytest.raises(ValueError):
        k_norm(x, 0)
    with pytest.raises(ValueError):
        k_norm(x, 5)


def test_k_norm_nondecreasing_in_k():
    rng = np.random.default_rng(5)
    for _ in range(100):
        x = rng.normal(size=int(rng.integers(1, 10)))
        vals = [k_norm(x, k) for k in range(1, x.size + 1)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


def test_weighted_k_norm_examples():
    x = np.array([0.5, -2.5, 1.0])
    for k in range(1, 4):
        assert weighted_k_norm(x, np.ones(3), k) == pytest.approx(k_norm(x, k))
    assert weighted_k_norm([3.0, 1.0], [2.0, 1.0], 2) == pytest.approx(7.0)
    with pytest.raises(ValueError):
        weighted_k_norm(x, [1.0, 2.0, 3.0], 2)  # increasing weights rejected


def test_weighted_k_norm_is_a_norm():
    rng = np.random.default_rng(9)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        w = np.sort(rng.uniform(0.1, 2.0, n))[::-1]
        k = int(rng.integers(1, n + 1))
        x, y = rng.normal(size=n), rng.normal(size=n)
        c = float(rng.normal())
        nx = weighted_k_norm(x, w, k)
        assert weighted_k_norm(x + y, w, k) <= nx + weighted_k_norm(y, w, k) + 1e-12
        assert weighted_k_norm(c * x, w, k) == pytest.approx(abs(c) * nx, abs=1e-12)
        assert nx >= 0.0


def test_dual_norm_examples():
    # constant weights: the dual of the k-norm is max(sup-norm, l1-norm / k)
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        x = rng.normal(size=n)
        k = int(rng.integers(1, n + 1))
        expected = max(k_norm(x, 1), k_norm(x, n) / k)
        assert dual_weighted_k_norm(x, np.ones(n), k) == pytest.approx(expected, abs=1e-12)
    # k = 1 degenerates to l1 / w_1
    w = np.array([3.0, 2.0, 0.5])
    x = np.array([1.0, -4.0, 2.0])
    assert dual_weighted_k_norm(x, w, 1) == pytest.approx(7.0 / 3.0)
    assert dual_weighted_k_norm([3.0, 1.0], [2.0, 1.0], 2) == pytest.approx(1.5)


def test_dual_norm_matches_bruteforce():
    rng = np.random.default_rng(101)
    for _ in range(400):
        n = int(rng.integers(1, 7))
        w = np.sort(rng.uniform(0.05, 3.0, n))[::-1]
        k = int(rng.integers(1, n + 1))
        x = rng.normal(size=n) * float(rng.uniform(0.1, 10))
        assert dual_weighted_k_norm(x, w, k) == pytest.approx(
            dual_norm_bruteforce(x, w, k), abs=1e-9)


def test_bruteforce_basics():
    w = np.ones(4)
    assert dual_norm_bruteforce(np.zeros(4), w, 2) == 0.0
    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    for k in range(1, 5):
        assert dual_norm_bruteforce(e1, w, k) == pytest.approx(1.0)


def test_candidates_have_unit_norm():
    rng = np.random.default_rng(29)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        w = np.sort(rng.uniform(0.1, 2.0, n))[::-1]
        k = int(rng.integers(1, n + 1))
        for pt in extreme_point_candidates(w, k):
            assert weighted_k_norm(pt, w, k) == pytest.approx(1.0, abs=1e-12)


def test_candidates_k1_only_full_support():
    w = np.array([2.0, 1.5, 1.0])
    cand = extreme_point_candidates(w, 1)
    assert cand.shape == (8, 3)  # 2^n sign patterns, support size n only
    assert np.all(np.abs(cand) == pytest.approx(0.5))  # scaled by 1/w_1


def test_candidates_constant_weight_contain_known_extremes():
    for n in (3, 4):
        for k in range(2, n):
            pts = extreme_point_candidates(np.ones(n), k)
            known = [np.array(s) / k for s in itertools.product((-1, 1), repeat=n)]
            known += [sgn * e for e in np.eye(n) for sgn in (-1.0, 1.0)]
            for target in known:
                assert any(np.allclose(pt, target, atol=1e-12) for pt in pts)


def test_candidates_cap():
    n = ENUMERATION_CAP + 1
    with pytest.raises(ValueError):
        extreme_point_candidates(np.ones(n), 2)


def test_constant_weight_candidates_are_extreme():
    # each known extreme point exposes a direction strictly separating it
    # from the convex hull of all the others
    for n in range(3, 6):
        for k in range(2, n):
            sign_pts = [np.array(s) / k for s in itertools.product((-1, 1), repeat=n)]
            unit_pts = [sgn * e for e in np.eye(n) for sgn in (-1.0, 1.0)]
            pts = sign_pts + unit_pts
            for v in pts:
                d = np.sign(v) if np.count_nonzero(v) == n else v
                own = float(d @ v)
                others = max(float(d @ u) for u in pts if not np.allclose(u, v))
                assert own > others + 1e-9


def test_duality_identity_constant_weights_random():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n + 1))
        x = rng.normal(size=n)
        assert dual_weighted_k_norm(x, np.ones(n), k) == pytest.approx(
            max(k_norm(x, 1), k_norm(x, n) / k), abs=1e-12)


def test_generalized_cauchy_schwarz():
    rng = np.random.default_rng(37)
    for _ in range(300):
        n = int(rng.integers(1, 7))
        w = np.sort(rng.uniform(0.1, 2.0, n))[::-1]
        k = int(rng.integers(1, n + 1))
        x, y = rng.normal(size=n), rng.normal(size=n)
        assert abs(np.dot(x, y)) <= (
            weighted_k_norm(x, w, k) * dual_weighted_k_norm(y, w, k) + 1e-9)


def test_norms_invariant_under_signed_permutations():
    rng = np.random.default_rng(41)
    for n in (2, 3, 4):
        w = np.sort(rng.uniform(0.2, 2.0, n))[::-1]
        x = rng.normal(size=n)
        for k in range(1, n + 1):
            base = weighted_k_norm(x, w, k)
            base_dual = dual_weighted_k_norm(x, w, k)
            for perm in itertools.permutations(range(n)):
                for signs in itertools.product((-1.0, 1.0), repeat=n):
                    y = np.array(signs) * x[list(perm)]
                    assert weighted_k_norm(y, w, k) == pytest.approx(base, abs=1e-12)
                    assert dual_weighted_k_norm(y, w, k) == pytest.approx(base_dual, abs=1e-12)


def test_bidual_recovers_primal_coarsely():
    # sample the dual unit sphere (random directions plus signed weight
    # placements) and maximize <x, y>; this recovers the primal norm from
    # below, within a couple percent
    rng = np.random.default_rng(43)
    for _ in range(15):
        n = int(rng.integers(2, 5))
        w = np.sort(rng.uniform(0.2, 2.0, n))[::-1]
        k = int(rng.integers(1, n + 1))
        x = rng.normal(size=n)
        directions = list(rng.normal(size=(4000, n)))
        padded = np.zeros(n)
        padded[:k] = w[:k]
        for perm in itertools.permutations(range(n)):
            for signs in itertools.product((-1.0, 1.0), repeat=n):
                directions.append(np.array(signs) * padded[list(perm)])
        best = 0.0
        for y in directions:
            ny = dual_weighted_k_norm(y, w, k)
            if ny > 1e-12:
                best = max(best, float(np.dot(x, y)) / ny)
        exact = weighted_k_norm(x, w, k)
        assert best <= exact + 1e-9
        assert best >= 0.98 * exact


def test_ky_fan_dominance():
    x = np.array([0.5, -1.0, 0.25])
    norms = [lp_evaluator(p) for p in (1.0, 1.5, 2.0, 3.0, math.inf)]
    assert ky_fan_dominates(x, x, norms)
    assert not ky_fan_dominates([1.0, 1.0, 1.0], [2.0, 0.0, 0.0], norms)
    rng = np.random.default_rng(47)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        y = rng.normal(size=n)
        x = rng.uniform(0.0, 1.0, n) * y  # |x| <= |y| entrywise implies dominance
        assert ky_fan_dominates(y, x, norms)


def test_ky_fan_flags_fake_norm():
    fake = lambda v: abs(float(np.asarray(v)[-1]))  # not symmetric
    with pytest.raises(KyFanDominanceError):
        ky_fan_dominates([2.0, 0.0], [1.0, 1.0], [fake])


#: Each function that takes k, on a three-atom instance.
K_CALLS = {
    "k_norm": lambda k: k_norm([3.0, 1.0, 2.0], k),
    "weighted_k_norm": lambda k: weighted_k_norm([3.0, 1.0, 2.0], [2.0, 1.0, 1.0], k),
    "dual_weighted_k_norm": lambda k: dual_weighted_k_norm([3.0, 1.0, 2.0], [2.0, 1.0, 1.0], k),
    "extreme_point_candidates": lambda k: extreme_point_candidates([2.0, 1.0, 1.0], k),
}


@pytest.mark.parametrize("name", list(K_CALLS))
def test_k_must_be_an_integer(name):
    # k was read by int(): 2.7 as 2, True as 1 and "2" as 2; numpy integers pass
    call = K_CALLS[name]
    for k in (2.7, 2.0, True, "2", None):
        with pytest.raises(ValueError, match=re.escape(f"k must be an integer, got {k!r}")):
            call(k)
    assert np.array_equal(call(np.int64(2)), call(2))


def test_lp_evaluator_refuses_p_below_1():
    with pytest.raises(ValueError, match="p must be >= 1"):
        lp_evaluator(0.5)


def test_bruteforce_refuses_lengths_that_differ():
    with pytest.raises(DimensionMismatchError, match="weight vector and x have different lengths"):
        dual_norm_bruteforce([1.0, 2.0, 3.0], [2.0, 1.0], 1)


@pytest.mark.parametrize("call", [dual_weighted_k_norm, dual_norm_bruteforce, extreme_point_candidates],
                         ids=["formula", "oracle", "candidates"])
def test_dual_paths_refuse_weights_whose_partial_sums_overflow(call):
    # w_1 + w_2 is inf: both paths divided by it and gave 1e-308, not the true 1.5e-308
    args = ([1.0, 1.0, 1.0], [1e308] * 3, 2) if call is not extreme_point_candidates else ([1e308] * 3, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape("the weights' partial sums overflow: w_1 + ... + w_2 is inf")):
            call(*args)


def test_dual_paths_keep_weights_whose_first_k_sums_are_finite():
    # only w_1 + ... + w_k divide the norms: at k = 1 the same weights are kept
    x, w = [1.0, 1.0, 1.0], [1e308] * 3
    assert dual_weighted_k_norm(x, w, 1) == dual_norm_bruteforce(x, w, 1) == 3.0 / 1e308


def test_weight_vector_refuses_a_zero_weight():
    with pytest.raises(ValueError, match="^weights must be strictly positive$"):
        check_weight_vector([1.0, 0.0])
