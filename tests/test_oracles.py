import numpy as np
import pytest
from oracles import (
    RateEstimate,
    _eigvals_analytic,
    brute_projection,
    estimate_rate,
    fd_curve_derivative,
    fd_phi_dir,
)
from reference import dir_derivative_phi, stratum_differential
from support import random_point, random_problem, random_tangent, stratum_matrix

from sgnsdp.kkt import residual
from sgnsdp.spectral import frob, make_ied, project_psd, sym

OFFDIAG = np.array([[0.0, 1.0], [1.0, 0.0]])


class TestAnalyticEigenvalues:
    def test_matches_lapack(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3):
            for _ in range(50):
                a = sym(rng.standard_normal((n, n))) * rng.uniform(0.1, 10)
                mine = np.sort(_eigvals_analytic(a))[::-1]
                ref = np.sort(np.linalg.eigvalsh(a))[::-1]
                assert np.allclose(mine, ref, atol=1e-10 * max(1.0, frob(a)))

    def test_repeated_eigenvalues(self):
        assert np.allclose(_eigvals_analytic(2.0 * np.eye(3)), [2.0, 2.0, 2.0])

    def test_order_limit(self):
        with pytest.raises(ValueError):
            _eigvals_analytic(np.eye(4))


class TestBruteProjection:
    def test_diagonal(self):
        out = brute_projection(np.diag([2.0, -1.0]))
        assert np.allclose(out, np.diag([2.0, 0.0]), atol=1e-6)

    def test_offdiagonal_cross_check(self):
        out = brute_projection(OFFDIAG)
        assert np.allclose(out, 0.5 * np.ones((2, 2)), atol=1e-6)
        spectral = project_psd(make_ied(OFFDIAG))
        assert np.allclose(out, spectral, atol=1e-6)

    def test_psd_fixed_point(self):
        a = np.array([[2.0, 0.3], [0.3, 1.0]])
        assert np.allclose(brute_projection(a), a, atol=1e-6)

    def test_random_agreement_with_spectral_formula(self):
        # the fixed-point contraction halves the error per sweep, so a
        # shorter budget is already converged far beyond the tolerance
        rng = np.random.default_rng(1)
        for n in (1, 2, 3):
            for _ in range(10):
                a = sym(rng.standard_normal((n, n))) * rng.uniform(0.2, 3)
                mine = brute_projection(a, iterations=500)
                ref = project_psd(make_ied(a))
                assert np.allclose(mine, ref, atol=1e-6)

    def test_order_limit(self):
        with pytest.raises(ValueError):
            brute_projection(np.eye(4))


class TestCurveDerivativeOracle:
    def test_hand_case(self):
        ied = make_ied(np.diag([2.0, -1.0]))
        target = np.array([[0.0, 2.0 / 3.0], [2.0 / 3.0, 0.0]])
        (quotient,) = fd_curve_derivative(ied, OFFDIAG, [1e-5])
        assert frob(quotient - target) <= 1e-4

    def test_zero_direction(self):
        ied = make_ied(np.diag([2.0, -1.0]))
        for quotient in fd_curve_derivative(ied, np.zeros((2, 2)), [1e-4, 1e-6]):
            assert frob(quotient) == 0.0

    def test_definite_matrix_gives_direction_back(self):
        rng = np.random.default_rng(2)
        ied = make_ied(np.diag([3.0, 1.0]))
        h = sym(rng.standard_normal((2, 2)))
        (quotient,) = fd_curve_derivative(ied, h, [1e-6])
        assert frob(quotient - h) <= 1e-9

    def test_first_order_decay(self):
        rng = np.random.default_rng(3)
        a = stratum_matrix(rng, 5, 2, 2)
        ied = make_ied(a)
        h = random_tangent(rng, ied)
        target = stratum_differential(ied, h)
        errs = [
            frob(q - target)
            for q in fd_curve_derivative(ied, h, [1e-3, 1e-4, 1e-5])
        ]
        assert errs[0] > errs[1] > errs[2]


class TestPhiDirectionOracle:
    def test_zero_direction(self):
        rng = np.random.default_rng(4)
        problem = random_problem(rng, 3, 4)
        z = random_point(rng, problem)
        quotients = fd_phi_dir(problem, z, np.zeros(4), np.zeros((3, 3)), [1e-4])
        assert quotients == [0.0]

    def test_smooth_point_two_sided(self):
        rng = np.random.default_rng(5)
        problem = random_problem(rng, 3, 4)
        z = random_point(rng, problem)
        assert residual(problem, z).ied.n_beta == 0
        v_x = rng.standard_normal(4)
        v_y = sym(rng.standard_normal((3, 3)))
        (forward,) = fd_phi_dir(problem, z, v_x, v_y, [1e-6])
        (backward,) = fd_phi_dir(problem, z, -v_x, -v_y, [1e-6])
        assert abs(forward + backward) <= 1e-4 * max(1.0, abs(forward))

    def test_matches_directional_derivative(self):
        rng = np.random.default_rng(6)
        problem = random_problem(rng, 4, 4)
        z = random_point(rng, problem)
        v_x = rng.standard_normal(4)
        v_y = sym(rng.standard_normal((4, 4)))
        val = dir_derivative_phi(problem, z, v_x, v_y)
        quotients = fd_phi_dir(problem, z, v_x, v_y, [1e-4, 1e-5, 1e-6])
        errs = [abs(q - val) for q in quotients]
        assert errs[-1] <= 1e-3 * max(1.0, abs(val))


class TestRateEstimate:
    def test_doubly_exponential_is_quadratic(self):
        distances = [10.0 ** (-(2.0**k)) for k in range(1, 6)]
        est = estimate_rate(distances)
        assert est.verdict == "quadratic"

    def test_geometric_is_linear(self):
        distances = [2.0**-k for k in range(1, 30)]
        est = estimate_rate(distances)
        assert est.verdict == "linear"

    def test_short_noisy_tail_inconclusive(self):
        est = estimate_rate([1e-15, 1e-16, 1e-17, 1e-18, 1e-19])
        assert est.verdict == "inconclusive"

    def test_returns_ratios(self):
        est = estimate_rate([1e-1, 1e-2, 1e-4, 1e-8, 1e-16])
        assert isinstance(est, RateEstimate)
        assert est.linear_ratios.shape[0] == est.distances.shape[0] - 1
        assert np.allclose(est.quadratic_ratios[0], 1.0)
