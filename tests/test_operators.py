"""Matrix constructions: theta, divided differences, Laplacian bounds, derivation."""

import math

import numpy as np
import pytest

from leibnizlab import kernels
from leibnizlab.core import IDENTITY_TOL, INEQUALITY_TOL, STRUCT_TOL, DimensionMismatchError
from leibnizlab.knorms import k_norm_evaluator, lp_evaluator
from leibnizlab.operators import (
    DegenerateInputError,
    PiecewiseLinearFn,
    centering_identity_check,
    deflated_theta,
    derivation_checks,
    divided_difference_matrix,
    laplacian_norm_bound_check,
    lhat_row_col_bounds,
    max_offdiagonal,
    monotone_laplacian,
    theta_matrix,
    validate_laplacian,
)
from leibnizlab.kernels import uniform_laplacian
from leibnizlab.reports import ReportBlock
from leibnizlab.verify import check_decomposition


# -- piecewise-linear functions ------------------------------------------------

def test_piecewise_linear_two_piece():
    phi = PiecewiseLinearFn(np.array([1 / 15]), np.array([-1.0, 0.6]), -0.8)
    xs = np.array([-11 / 15, 1 / 15, 13 / 15])
    assert phi(xs) == pytest.approx([0.0, -0.8, -0.32])
    assert phi(1 / 15) == pytest.approx(-0.8)
    assert phi.lipschitz == 1.0
    assert not phi.is_monotone


def test_piecewise_linear_identity_and_constant():
    ident = PiecewiseLinearFn.identity()
    xs = np.linspace(-3, 3, 11)
    assert np.allclose(ident(xs), xs)
    assert ident.is_monotone and ident.lipschitz == 1.0
    const = PiecewiseLinearFn.constant(2.5)
    assert np.allclose(const(xs), 2.5)
    assert const.is_monotone and const.lipschitz == 0.0


def test_piecewise_linear_multi_knot_continuity():
    rng = np.random.default_rng(2)
    for _ in range(20):
        m = int(rng.integers(1, 7))
        bp = np.sort(rng.uniform(-1, 1, m))
        bp += np.arange(m) * 1e-3  # enforce strict increase
        phi = PiecewiseLinearFn(bp, rng.uniform(-2, 2, m + 1), float(rng.normal()))
        for b in bp:  # continuity across every knot
            assert phi(b - 1e-9) == pytest.approx(phi(b + 1e-9), abs=1e-7)
        # slope check in each open piece
        grid = np.concatenate([[bp[0] - 1.0], bp, [bp[-1] + 1.0]])
        for i in range(len(grid) - 1):
            mid = 0.5 * (grid[i] + grid[i + 1])
            h = 0.25 * (grid[i + 1] - grid[i])
            slope = (phi(mid + h) - phi(mid - h)) / (2 * h)
            assert slope == pytest.approx(phi.slopes[i], abs=1e-9)


def test_piecewise_linear_bad_inputs():
    with pytest.raises(ValueError):
        PiecewiseLinearFn(np.array([0.0, 0.0]), np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        PiecewiseLinearFn(np.array([0.0]), np.array([1.0]))


# -- theta matrices --------------------------------------------------------------

def test_theta_matrix_small():
    T = theta_matrix([1.0, 1.0])
    assert T == pytest.approx(np.array([[-0.5, 0.5], [0.5, -0.5]]))


def test_theta_matrix_entrywise_formula():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        x = rng.normal(size=n)
        T = theta_matrix(x)
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert T[i, j] == pytest.approx((x[i] + x[j]) / (2 * n))
        assert np.max(np.abs(T - T.T)) < 1e-15
        assert np.max(np.abs(T @ np.ones(n))) < 1e-12
        assert np.max(np.abs(T.T @ np.ones(n))) < 1e-12


def test_deflated_theta():
    assert np.allclose(deflated_theta(np.zeros(3)), 0.0)
    rng = np.random.default_rng(6)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        x, y = rng.normal(size=n), rng.normal(size=n)
        lhs = deflated_theta(x) @ y
        rhs = theta_matrix(x) @ y - (np.dot(x, y) / n) * np.ones(n)
        assert np.max(np.abs(lhs - rhs)) < 1e-12
    assert np.allclose(deflated_theta([1.0, -2.0]) @ np.zeros(2), 0.0)


# -- divided differences ---------------------------------------------------------

def test_divided_difference_identity_and_constant():
    x = np.array([0.3, -0.5, 1.1, 2.0])
    T = divided_difference_matrix(x, PiecewiseLinearFn.identity())
    off = T[~np.eye(4, dtype=bool)]
    assert np.allclose(off, 1.0)
    assert np.allclose(np.diag(T), -3.0)
    assert np.allclose(divided_difference_matrix(x, PiecewiseLinearFn.constant(7.0)), 0.0)


def test_divided_difference_two_piece_entries():
    phi = PiecewiseLinearFn(np.array([1 / 15]), np.array([-1.0, 0.6]), -0.8)
    x = np.array([-11 / 15, 1 / 15, 13 / 15])
    T = divided_difference_matrix(x, phi)
    vals = phi(x)
    for i in range(3):
        for j in range(3):
            if i != j:
                assert T[i, j] == pytest.approx((vals[i] - vals[j]) / (x[i] - x[j]))
    assert T[0, 1] == pytest.approx(-1.0)
    assert T[1, 2] == pytest.approx(0.6)
    assert T[0, 2] == pytest.approx(-0.2)


def test_divided_difference_rejects_near_coincident_points():
    with pytest.raises(DegenerateInputError):
        divided_difference_matrix([1.0, 1.0 + 1e-12], PiecewiseLinearFn.identity())


def test_monotone_gives_laplacian():
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        x = np.sort(rng.normal(size=n))
        x += np.arange(n) * 1e-2
        slopes = np.abs(rng.normal(size=4))
        sign = 1.0 if rng.random() < 0.5 else -1.0
        phi = PiecewiseLinearFn(np.sort(rng.normal(size=3)) + [0, 1e-2, 2e-2],
                                sign * slopes, float(rng.normal()))
        L = monotone_laplacian(x, phi)
        validate_laplacian(L)  # symmetry, zero sums, sign, PSD of -L


def test_validate_laplacian_rejects_bad_matrices():
    with pytest.raises(ValueError):
        validate_laplacian(np.array([[1.0, -1.0], [-1.0, 1.0]]))  # negative off-diagonal
    with pytest.raises(ValueError):
        validate_laplacian(np.array([[0.0, 1.0], [1.0, 1.0]]))  # row sums


def test_validate_laplacian_refuses_a_non_square_matrix():
    with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
        validate_laplacian(np.ones((2, 3)))


@pytest.mark.parametrize("L, named", [
    ([[math.nan, 0.0], [0.0, 0.0]], "nan"),
    ([[-math.inf, math.inf], [math.inf, -math.inf]], "-inf, inf"),
    ([[-1.0, 1.0], [1.0, math.inf]], "inf"),
], ids=["nan", "inf-pairs", "plus-inf"])
def test_validate_laplacian_refuses_non_finite_entries(L, named):
    # each check of the contract is a comparison, and a comparison with nan is
    # false: these matrices were accepted, and lhat_row_col_bounds gave (nan, nan)
    with pytest.raises(ValueError, match=f"^matrix entries must be finite, got {named}$"):
        validate_laplacian(L)
    with pytest.raises(ValueError, match="must be finite"):
        lhat_row_col_bounds(L)


def test_laplacian_norm_bound_check_refuses_a_vector_of_another_length():
    with pytest.raises(DimensionMismatchError, match="^matrix is 3x3, vector has 2 entries$"):
        laplacian_norm_bound_check(uniform_laplacian(3), [1.0, -1.0], lp_evaluator(2.0))


def test_derivation_checks_fail_on_a_nan_deviation():
    # the first identity is finite and the other three overflow to nan: the
    # largest deviation is nan, and the report fails
    with np.errstate(all="ignore"):
        rep = derivation_checks([1, 2, 3], [1e308, -1e308, 1e308])
    deviations = list(rep.instance["deviations"].values())
    assert math.isfinite(deviations[0]) and all(map(math.isnan, deviations[1:]))
    assert math.isnan(rep.lhs) and not rep.passed


# -- centering identity -----------------------------------------------------------

def test_centering_identity_exact_cases():
    x = np.array([0.1, 0.5, -0.7])
    rep = centering_identity_check(x, PiecewiseLinearFn.identity())
    assert rep.passed and rep.lhs < 1e-14
    rep = centering_identity_check(x, PiecewiseLinearFn.constant(3.0))
    assert rep.passed and rep.lhs == 0.0


def test_centering_identity_random():
    rng = np.random.default_rng(10)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        x = np.sort(rng.uniform(-1, 1, n)) + np.arange(n) * 1e-2
        m = int(rng.integers(1, 5))
        bp = np.sort(rng.uniform(-1, 1, m)) + np.arange(m) * 1e-3
        phi = PiecewiseLinearFn(bp, np.abs(rng.normal(size=m + 1)), float(rng.normal()))
        rep = centering_identity_check(x, phi)
        assert rep.passed, rep.summary()
        assert rep.lhs <= 1e-10


# -- Laplacian norm bound ----------------------------------------------------------

def test_laplacian_bound_equality_at_n2():
    for a in (0.5, 1.0, 3.0):
        L = np.array([[-a, a], [a, -a]])
        x = np.array([1.0, -1.0])
        rep = laplacian_norm_bound_check(L, x, lp_evaluator(1.0))
        assert rep.passed
        assert rep.lhs == pytest.approx(rep.rhs)  # equality case


def test_laplacian_bound_zero_matrix():
    rep = laplacian_norm_bound_check(np.zeros((3, 3)), np.array([1.0, -0.5, -0.5]),
                                     lp_evaluator(2.0))
    assert rep.passed and rep.lhs == 0.0 and rep.rhs == 0.0


def test_laplacian_bound_requires_mean_zero():
    with pytest.raises(ValueError):
        laplacian_norm_bound_check(np.zeros((2, 2)), np.array([1.0, 1.0]), lp_evaluator(1.0))


def test_laplacian_bound_random_suite():
    rng = np.random.default_rng(12)
    norms = [lp_evaluator(p) for p in (1.0, 1.5, 2.0, 3.0, math.inf)]
    for _ in range(150):
        n = int(rng.integers(2, 9))
        W = np.triu(rng.uniform(0, 1, (n, n)), 1)
        L = W + W.T
        np.fill_diagonal(L, -L.sum(axis=1))
        x = rng.uniform(-1, 1, n)
        x -= x.mean()
        evaluators = norms + [k_norm_evaluator(int(rng.integers(1, n + 1)))]
        for norm in evaluators:
            assert laplacian_norm_bound_check(L, x, norm).passed


def test_corollary_bound_for_monotone_divided_differences():
    # with Lip(phi) on the right-hand side instead of the off-diagonal max
    rng = np.random.default_rng(14)
    for _ in range(100):
        n = int(rng.integers(2, 8))
        pts = np.sort(rng.uniform(-1, 1, n)) + np.arange(n) * 1e-2
        m = int(rng.integers(1, 5))
        bp = np.sort(rng.uniform(-1, 1, m)) + np.arange(m) * 1e-3
        phi = PiecewiseLinearFn(bp, np.abs(rng.normal(size=m + 1)), 0.0)
        L = monotone_laplacian(pts, phi)
        u = rng.uniform(-1, 1, n)
        u -= u.mean()
        norm = lp_evaluator(2.0)
        assert float(norm(L @ u)) <= n * phi.lipschitz * float(norm(u)) + 1e-9
        assert max_offdiagonal(L) <= phi.lipschitz + 1e-12


# -- hat-matrix operator bounds ------------------------------------------------------

def test_lhat_bounds_zero_and_n2():
    assert lhat_row_col_bounds(np.zeros((3, 3))) == (0.0, 0.0)
    a = 0.7
    L = np.array([[-a, a], [a, -a]])
    col, row = lhat_row_col_bounds(L)
    assert col == pytest.approx(2 * a)
    assert row == pytest.approx(2 * a)


def test_lhat_bounds_random():
    rng = np.random.default_rng(16)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        W = np.triu(rng.uniform(0, 1, (n, n)), 1)
        L = W + W.T
        np.fill_diagonal(L, -L.sum(axis=1))
        col, row = lhat_row_col_bounds(L)
        cap = n * max_offdiagonal(L)
        assert col <= cap + 1e-10
        assert row <= cap + 1e-10


# -- derivation dictionary -------------------------------------------------------------

def _adjoint_oracle(A: np.ndarray) -> np.ndarray:
    # transpose the standard-coordinates matrix of the derivation and undo the
    # uniform inner-product scalings: d* A = (1/n) D^T vec(A)
    n = A.shape[0]
    D = np.zeros((n * n, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        D[:, k] = kernels.derivation(e[None, :])[0].reshape(-1)
    return D.T @ A.reshape(-1) / n


def test_derivation_adjoint_against_matrix_oracle():
    rng = np.random.default_rng(18)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        A = rng.normal(size=(n, n))
        assert np.max(np.abs(kernels.derivation_adjoint(A[None])[0] - _adjoint_oracle(A))) < 1e-12


def test_derivation_checks_trivial_cases():
    ones = np.ones(4)
    rep = derivation_checks(ones, ones)
    assert rep.passed and rep.lhs < 1e-14
    g = np.array([0.4, -1.0, 0.2, 3.0])
    rep = derivation_checks(ones, g)
    assert rep.passed
    # with f = 1 the factorization reduces to -Lg = g - mean(g)
    L = uniform_laplacian(4)
    assert np.allclose(-L @ g, g - g.mean())


def test_derivation_checks_random():
    rng = np.random.default_rng(20)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        rep = derivation_checks(rng.normal(size=n), rng.normal(size=n))
        assert rep.passed, rep.instance["deviations"]
        assert rep.lhs <= 1e-10


# -- identity tolerances that scale with the inputs ----------------------------------

def _large_identity_draws(scale, count=200):
    """``count`` seeded (f, g, kinked phi) of magnitude ``scale``, n from 2 to 8."""
    rng = np.random.default_rng(int(math.log10(scale)))
    for _ in range(count):
        n, k = int(rng.integers(2, 9)), int(rng.integers(1, 5))
        f, g = scale * rng.uniform(-1, 1, n), scale * rng.uniform(-1, 1, n)
        phi = PiecewiseLinearFn(np.sort(scale * rng.uniform(-1, 1, k)), rng.uniform(-2, 2, k + 1),
                                scale * rng.uniform(-1, 1))
        yield f, g, phi


@pytest.mark.parametrize("scale", [1e4, 1e6, 1e8])
def test_exact_identities_at_large_magnitudes_read_pass(scale):
    # with an absolute 1e-10 bound most of these read FAIL on rounding alone
    for f, g, phi in _large_identity_draws(scale):
        for rep in (check_decomposition(f, g), derivation_checks(f, g), centering_identity_check(f, phi)):
            assert rep.passed and rep.lhs <= rep.tolerance, rep.summary()
            assert rep.tolerance >= IDENTITY_TOL


def test_identity_reports_echo_the_tolerance_they_applied():
    f, g = [1e4, -2e4, 3.3e4], [1e4, 5e3, -1.1e4]
    for rep in (check_decomposition(f, g), derivation_checks(f, g)):
        assert rep.passed and rep.lhs > IDENTITY_TOL
        assert rep.tolerance == 3 * np.finfo(float).eps * 3.3e4 * 1.1e4
    # a negative tolerance asks for a margin: it gets no rounding allowance
    assert check_decomposition(f, g, tol=-1e-3).tolerance == -1e-3
    assert not derivation_checks(f, g, tol=-1e-3).passed
    # inputs of size 1 keep the absolute bound
    assert check_decomposition([0.5, -1.0], [0.25, 1.0]).tolerance == IDENTITY_TOL
    assert centering_identity_check([0.1, 0.5], PiecewiseLinearFn.identity()).tolerance == IDENTITY_TOL


def test_an_overflowing_identity_never_passes():
    # T (x - mean x) overflows to inf: the scale is held at the largest float, so the inf deviation fails
    x = [-8.207567947528017e+99, 6.904907696465438e+99, 6.9074646631996e+99, 7.519014750972648e+99,
         5.083614108176886e+99]
    phi = PiecewiseLinearFn([-6.310733980949947e+149, 9.995129411619687e+149],
                            [9.030178537635618e+99, -8.151588777217391e+99, 6.813484285289242e+99],
                            5.132422744519863e+307)
    with np.errstate(all="ignore"):
        rep = centering_identity_check(x, phi)
    assert rep.lhs == math.inf and math.isfinite(rep.tolerance) and not rep.passed


def test_laplacian_bound_accepts_large_centered_vectors():
    # |sum x| of a centered x rounds with sum |x|; an absolute 1e-10 refused 244 of these 400
    rng = np.random.default_rng(5)
    L = uniform_laplacian(5)
    for scale in (1e6, 1e7):
        for _ in range(200):
            x = scale * rng.uniform(-1, 1, 5)
            rep = laplacian_norm_bound_check(L, x - x.mean(), lp_evaluator(2.0))
            assert rep.instance["x"] == (x - x.mean()).tolist()
    with pytest.raises(ValueError, match=r"^x must have zero coordinate sum \(center it first\)$"):
        laplacian_norm_bound_check(uniform_laplacian(3), [1.0, 1.0, -1.0], lp_evaluator(2.0))


def test_exact_laplacian_bounds_at_large_magnitudes_read_pass():
    # the uniform Laplacian meets the bound with equality; an absolute 1e-9 read 49 of these 400 as FAIL
    L = uniform_laplacian(5)
    for scale in (1e6, 1e7):
        for seed in range(200):
            x = np.random.default_rng(seed).uniform(-1, 1, 5) * scale
            rep = laplacian_norm_bound_check(L, x - x.mean(), lp_evaluator(2.0))
            assert rep.passed and rep.tolerance > INEQUALITY_TOL, rep.summary()


def test_an_overflowing_inequality_never_passes():
    # a lhs of inf against a finite rhs: the scale is held at the largest float, so the tolerance is finite
    lhs, rhs = np.array([math.inf, math.nan, 1.0]), np.array([1.0, 1.0, 1.0])
    tolerance = kernels.inequality_tolerance(INEQUALITY_TOL, lhs, rhs)
    assert math.isfinite(tolerance[0]) and tolerance[2] == INEQUALITY_TOL
    assert ReportBlock.from_values("bound", lhs, rhs, tolerance, {}).columns["pass"].tolist() == [False, False, True]


def test_validate_laplacian_refuses_unequal_column_sums():
    # symmetric within STRUCT_TOL with zero row sums, but column 0 sums to 1.8e-12
    L = np.ones((3, 3)) - 3 * np.eye(3)
    L[1:, 0] += 0.9e-12
    np.fill_diagonal(L, 0.0)
    np.fill_diagonal(L, -L.sum(axis=1))
    assert np.abs(L - L.T).max() <= STRUCT_TOL and np.abs(L.sum(axis=1)).max() <= STRUCT_TOL
    assert L.sum(axis=0)[0] == pytest.approx(1.8e-12, rel=1e-3)
    with pytest.raises(ValueError, match="^column sums are not zero$"):
        validate_laplacian(L)


def test_validate_laplacians_and_the_identities_share_one_rounding_rule(monkeypatch):
    calls = []
    rule = kernels.rounding_tolerance
    monkeypatch.setattr(kernels, "rounding_tolerance", lambda *a: calls.append(a[0]) or rule(*a))
    validate_laplacian(uniform_laplacian(3))
    check_decomposition([1.0, 2.0], [3.0, 4.0])
    derivation_checks([1.0, 2.0], [3.0, 4.0])
    centering_identity_check([0.1, 0.5], PiecewiseLinearFn.identity())
    laplacian_norm_bound_check(uniform_laplacian(2), [1.0, -1.0], lp_evaluator(2.0))
    # the sums, the eigenvalue and the n leading minors of each Laplacian, then one call per identity, the sum of x
    # and the bound
    laplacian = [STRUCT_TOL, kernels.PSD_TOL, kernels.PSD_TOL]
    assert calls == (laplacian + [kernels.PSD_TOL] * 2 + [IDENTITY_TOL] * 3
                     + laplacian + [kernels.PSD_TOL] + [1e-10, INEQUALITY_TOL])
