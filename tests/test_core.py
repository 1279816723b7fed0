"""Measure, norm, and majorization primitives, and their refusal of non-numeric input."""

import math

import numpy as np
import pytest

from leibnizlab.core import (
    DimensionMismatchError,
    HolderTriple,
    ProbVector,
    center,
    conjugate_exponent,
    downward_rearrange,
    expectation,
    exponent_tag,
    exponent_tags,
    lp_norm,
    as_number,
    as_vector,
    sup_norm,
    variance,
    weak_majorizes,
)
from leibnizlab.knorms import k_norm
from leibnizlab.operators import PiecewiseLinearFn, theta_matrix
from leibnizlab.search import Instance
from leibnizlab.verify import check_square_bound


def test_prob_vector_invariants():
    mu = ProbVector([0.25, 0.25, 0.5])
    assert mu.n == 3
    with pytest.raises(ValueError):
        ProbVector([0.5, 0.5, 0.0])  # zero-mass atoms must be dropped by the caller
    with pytest.raises(ValueError):
        ProbVector([0.4, 0.4])
    with pytest.raises(ValueError):
        ProbVector([1.5, -0.5])
    uni = ProbVector.uniform(7)
    assert np.allclose(uni.weights, 1 / 7)


def test_prob_vector_is_immutable():
    mu = ProbVector([0.5, 0.5])
    with pytest.raises(ValueError):
        mu.weights[0] = 0.9


def test_expectation_examples():
    assert expectation([1.0, 1.0, 1.0], ProbVector([0.2, 0.5, 0.3])) == pytest.approx(1.0)
    assert expectation([1.0, -1.0], ProbVector([0.5, 0.5])) == pytest.approx(0.0)
    # direct summation oracle on a fixed 3-point instance
    mu = ProbVector([1 / 6, 9 / 12, 1 / 12])
    x = [-11 / 15, 1 / 15, 13 / 15]
    oracle = sum(m * v for m, v in zip(mu.weights, x))
    assert expectation(x, mu) == pytest.approx(oracle, abs=1e-15)


def test_expectation_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        expectation([1.0, 2.0], ProbVector([1.0]))


def test_center():
    mu = ProbVector([0.3, 0.7])
    assert np.allclose(center([5.0, 5.0], mu), 0.0)
    assert np.allclose(center([1.0, -1.0], ProbVector([0.5, 0.5])), [1.0, -1.0])
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        mu = ProbVector(rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n)
        x = rng.normal(size=n)
        assert abs(expectation(center(x, mu), mu)) < 1e-12


def test_lp_norm_examples():
    mu = ProbVector([1 / 36, 3 / 4, 2 / 9])
    assert lp_norm([-0.3, 0.28, 0.38], mu, math.inf) == pytest.approx(0.38)
    for p in (1.0, 2.0, 7.5, math.inf):
        assert lp_norm([1.0, 1.0], ProbVector([0.5, 0.5]), p) == pytest.approx(1.0)
    assert lp_norm([3.0, 4.0], ProbVector([0.5, 0.5]), 2.0) == pytest.approx(math.sqrt(25 / 2))
    with pytest.raises(ValueError):
        lp_norm([1.0], ProbVector([1.0]), 0.5)


def test_lp_norm_monotone_in_p():
    rng = np.random.default_rng(7)
    grid = [1.0, 1.3, 2.0, 3.0, 8.0, 64.0, math.inf]
    for _ in range(100):
        n = int(rng.integers(1, 9))
        mu = ProbVector(rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n)
        x = rng.uniform(-2, 2, n)
        values = [lp_norm(x, mu, p) for p in grid]
        for lo, hi in zip(values, values[1:]):
            assert lo <= hi + 1e-12


def test_lp_norm_approaches_sup_norm():
    # within 5% at p = 64 once atom masses are bounded below by 0.05:
    # the maximizing atom alone contributes at least (0.05)^(1/64) > 0.95
    rng = np.random.default_rng(11)
    floor = 0.05
    for _ in range(50):
        n = int(rng.integers(1, 9))
        mu = ProbVector(floor + (1 - n * floor) * rng.dirichlet(np.ones(n)))
        x = rng.uniform(-2, 2, n)
        if sup_norm(x) == 0.0:
            continue
        top = lp_norm(x, mu, math.inf)
        assert 0.95 * top <= lp_norm(x, mu, 64.0) <= top + 1e-12


def test_lp_norm_extreme_exponent_is_stable():
    mu = ProbVector([0.5, 0.5])
    assert lp_norm([0.5, 0.25], mu, 1e12) == pytest.approx(0.5)


def test_variance():
    mu = ProbVector([0.5, 0.5])
    assert variance([1.0, -1.0], mu) == pytest.approx(1.0)
    assert variance([3.0, 3.0], mu) == 0.0


def test_downward_rearrange():
    assert np.array_equal(downward_rearrange([1.0, 3.0, 2.0]), [3.0, 2.0, 1.0])
    assert np.array_equal(downward_rearrange([-5.0, 2.0]), [2.0, -5.0])
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.normal(size=int(rng.integers(1, 10)))
        once = downward_rearrange(x)
        assert np.array_equal(downward_rearrange(once), once)


def test_weak_majorizes_basics():
    x = np.array([0.3, -1.2, 0.8])
    assert weak_majorizes(x, x)
    assert weak_majorizes([2.0, 0.0], [1.0, 1.0])
    assert not weak_majorizes([1.0, 1.0], [2.0, 0.5])
    with pytest.raises(DimensionMismatchError):
        weak_majorizes([1.0], [1.0, 2.0])


def test_weak_majorizes_matches_k_norm_comparison():
    # |x| <_w |y| iff the k-norm of x is dominated for every k
    rng = np.random.default_rng(17)
    for _ in range(300):
        n = int(rng.integers(1, 8))
        x, y = np.abs(rng.normal(size=n)), np.abs(rng.normal(size=n))
        by_partial_sums = weak_majorizes(y, x, 1e-12)
        by_k_norms = all(k_norm(x, k) <= k_norm(y, k) + 1e-12 for k in range(1, n + 1))
        assert by_partial_sums == by_k_norms


def test_mutual_weak_majorization_forces_equality():
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        x = np.abs(rng.normal(size=n))
        y = np.abs(rng.permutation(x)) if rng.random() < 0.5 else np.abs(rng.normal(size=n))
        if weak_majorizes(y, x, 1e-12) and weak_majorizes(x, y, 1e-12):
            assert np.allclose(np.sort(x), np.sort(y), atol=1e-11)


def test_conjugate_exponent():
    assert conjugate_exponent(1.0) == math.inf
    assert conjugate_exponent(math.inf) == 1.0
    assert conjugate_exponent(2.0) == pytest.approx(2.0)
    assert conjugate_exponent(4.0) == pytest.approx(4 / 3)


def test_exponent_tags_are_the_tag_of_each_entry():
    column = np.array([1.0, 1.25, math.inf, 2.0, math.inf, 1e300])
    tags = exponent_tags(column)
    want = [exponent_tag(p) for p in column.tolist()]
    assert tags.dtype == object and tags.tolist() == want
    assert [type(t) for t in tags] == [type(t) for t in want]


def test_holder_triple_validation():
    HolderTriple(1.0, math.inf, 1.0)
    HolderTriple(2.0, 2.0, math.inf)
    HolderTriple(2.0, 4.0, 4.0)
    HolderTriple(1.5, 3.0, 3.0)
    with pytest.raises(ValueError):
        HolderTriple(1.0, 2.0, 3.0)
    with pytest.raises(ValueError):
        HolderTriple(0.5, 1.0, 1.0)
    t = HolderTriple.from_pq(3.0, 6.0)
    assert t.r == pytest.approx(2.0)
    s = HolderTriple.split(2.0, 0.0)
    assert s.p == math.inf and s.q == pytest.approx(2.0)


NON_NUMERIC_CALLS = {
    "instance_from_dict": lambda: Instance.from_dict({"mu": {"a": 1}, "f": [1]}),
    "prob_vector": lambda: ProbVector({"a": 1}),
    "check_square_bound": lambda: check_square_bound(ProbVector([0.5, 0.5]), {"a": 1}, 2.0),
    "k_norm": lambda: k_norm({"a": 1}, 1),
    "lp_norm_weights": lambda: lp_norm([1.0, 2.0], [{}, {}], 2.0),
    "piecewise_linear_fn": lambda: PiecewiseLinearFn({"a": 1}, [1.0]),
    "theta_matrix": lambda: theta_matrix(object()),
}


@pytest.mark.parametrize("name", NON_NUMERIC_CALLS)
def test_non_numeric_container_raises_value_error(name):
    # each passes a dict or a bare object through as_vector, which let numpy's TypeError out
    with pytest.raises(ValueError, match="expected a vector of numbers"):
        NON_NUMERIC_CALLS[name]()


@pytest.mark.parametrize("x", ["1", b"1", True, None, ["0.5", "0.5"], [0.5, None], [True, 1.0],
                               np.array(["1"]), np.array([True, False])],
                         ids=["str", "bytes", "bool", "none", "quoted-list", "none-entry", "bool-entry",
                              "str-array", "bool-array"])
def test_quoted_numbers_booleans_and_none_are_refused(x):
    # numpy would parse '1' and read True as 1.0; a vector must hold numbers
    with pytest.raises(ValueError, match="expected a vector of numbers"):
        ProbVector(x)


def test_ints_of_any_size_read_as_floats():
    assert ProbVector([1]).weights.tolist() == [1.0]
    assert lp_norm([10 ** 30, np.int8(2)], [0.5, 0.5], math.inf) == 1e30
    with pytest.raises(ValueError, match="too large for a float"):
        sup_norm([10 ** 400])


def test_as_number_refuses_an_int_beyond_the_float_range():
    with pytest.raises(ValueError, match="^a number is too large for a float$"):
        as_number(10**400)


def test_as_vector_reads_a_lone_number_as_one_entry():
    got = as_vector(3.0)
    assert got.shape == (1,) and got.tolist() == [3.0]


def test_holder_triple_refuses_a_pair_without_r():
    with pytest.raises(ValueError, match=r"^1/1\.5 \+ 1/1\.5 exceeds 1; no valid r$"):
        HolderTriple.from_pq(1.5, 1.5)


def test_holder_triple_refuses_a_split_outside_0_1():
    with pytest.raises(ValueError, match=r"^split fraction must lie in \[0, 1\]$"):
        HolderTriple.split(2.0, 1.5)
