import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import dir_derivative_phi, xi_matrix
from support import (
    coeffs_from_matrix,
    corrected_random_point,
    degenerate_fixture_curve,
    from_coords,
    haar_orthogonal,
    point,
    random_point,
    random_problem,
    scaled,
    to_coords,
)

from sgnsdp.kkt import (
    TangentFrame,
    TangentVector,
    assemble_dF,
    big_g,
    residual,
)
from sgnsdp.model import (
    AffineQuadraticProblem,
    PrimalDualPoint,
    degenerate_fixture,
)
from sgnsdp.solver import normal_dirs, retract_point
from sgnsdp.spectral import frob, make_ied, sym, tangent_layout

# smallest singular value of the assembled differential at the reference
# fixture's solution; computed once and pinned as a regression constant
SIGMA_MIN_REFERENCE = 0.40753645318366233


def scalar_quadratic():
    """n = m = 1, f = x^2/2, g(x) = x + 1, evaluated at z = (0, 1)."""
    problem = AffineQuadraticProblem(
        c=[0.0], a0=np.array([[1.0]]), a_list=[np.array([[1.0]])],
        quad=np.array([[1.0]]),
    )
    return problem, point([0.0], [[1.0]])


def scalar_boundary():
    """n = m = 1, f = x, g(x) = x, evaluated at z = (0, 0): G sits at zero."""
    problem = AffineQuadraticProblem(
        c=[1.0], a0=np.array([[0.0]]), a_list=[np.array([[1.0]])]
    )
    return problem, point([0.0], [[0.0]])


class TestResidual:
    def test_big_g(self):
        problem, z_bar = degenerate_fixture()
        assert np.array_equal(big_g(problem, z_bar), np.diag([1.0, 0.0, 0.0, -1.0]))
        z = PrimalDualPoint(x=z_bar.x, y=-problem.eval_g(z_bar.x))
        assert np.allclose(big_g(problem, z), 0.0)

    def test_reference_solution(self):
        problem, z_bar = degenerate_fixture()
        res = residual(problem, z_bar)
        assert res.norm == 0.0 and res.phi == 0.0

    def test_scalar_quadratic_values(self):
        problem, z = scalar_quadratic()
        res = residual(problem, z)
        assert np.allclose(res.f1, [1.0]) and np.allclose(res.f2, [[1.0]])
        assert res.phi == 1.0

    def test_norm_phi_relation(self):
        rng = np.random.default_rng(0)
        problem = random_problem(rng, 4, 5)
        z = random_point(rng, problem)
        res = residual(problem, z)
        assert np.isclose(res.norm**2, 2.0 * res.phi, rtol=1e-13)

    def test_perturbed_curve_quadratic_decay(self):
        problem, _ = degenerate_fixture()
        norms = [residual(problem, degenerate_fixture_curve(t)).norm for t in (1e-2, 1e-3)]
        assert 0.1 <= norms[0] / 1e-4 <= 10.0
        assert 50.0 <= norms[0] / norms[1] <= 200.0  # Theta(t^2)


class TestFrame:
    def test_pure_dual_direction(self):
        rng = np.random.default_rng(1)
        problem = random_problem(rng, 3, 4)
        z = random_point(rng, problem)
        res = residual(problem, z)
        frame = TangentFrame(problem, z, res.ied)
        v_y = sym(rng.standard_normal((3, 3)))
        _, h = to_coords(frame, np.zeros(4), v_y)
        assert np.allclose(h, v_y)

    def test_kernel_direction_has_zero_matrix_part(self):
        rng = np.random.default_rng(2)
        problem = random_problem(rng, 3, 4)
        z = random_point(rng, problem)
        frame = TangentFrame(problem, z, residual(problem, z).ied)
        v_x = rng.standard_normal(4)
        v_y = -problem.apply_dg(z.x, v_x)
        _, h = to_coords(frame, v_x, v_y)
        assert frob(h) <= 1e-12

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        problem = random_problem(rng, 4, 3)
        z = random_point(rng, problem)
        frame = TangentFrame(problem, z, residual(problem, z).ied)
        for _ in range(20):
            v_x = rng.standard_normal(3)
            v_y = sym(rng.standard_normal((4, 4)))
            vx2, h = to_coords(frame, v_x, v_y)
            vx3, vy2 = from_coords(frame, vx2, h)
            assert np.allclose(vx3, v_x, atol=1e-12)
            assert frob(vy2 - v_y) <= 1e-12 * max(1.0, frob(v_y))

    def test_frame_reads_the_cached_stratum_layout(self):
        # G at the fixture's solution is diag(1, 0, 0, -1): (n, p, q) = (4, 1, 1)
        problem, z_bar = degenerate_fixture()
        frame = TangentFrame(problem, z_bar, residual(problem, z_bar).ied)
        layout = tangent_layout(4, 1, 1)
        assert frame.layout is layout
        assert not frame.layout.rows.flags.writeable

    def test_coeff_reconstruction(self):
        problem, z = scalar_boundary()
        frame = TangentFrame(problem, z, residual(problem, z).ied)
        assert frame.dim_tangent == 0  # all-beta matrix has trivial tangent space


class TestAssembledJacobian:
    def test_scalar_quadratic_matrix(self):
        problem, z = scalar_quadratic()
        frame = TangentFrame(problem, z, residual(problem, z).ied)
        jac = assemble_dF(frame)
        assert np.allclose(jac.matrix, np.array([[0.0, 1.0], [-1.0, 1.0]]), atol=1e-14)

    def test_m_zero_reduces_to_xi_block(self):
        problem = AffineQuadraticProblem(
            c=[], a0=np.diag([2.0, -1.0]), a_list=[]
        )
        z = PrimalDualPoint(x=np.zeros(0), y=np.zeros((2, 2)))
        frame = TangentFrame(problem, z, residual(problem, z).ied)
        jac = assemble_dF(frame)
        assert jac.matrix.shape == (3, 3)
        # columns are xi applied to the tangent basis: weight 1 on the
        # alpha-alpha pair, the difference quotient 2/3 on alpha-gamma,
        # and annihilation of the gamma-gamma pair
        sv = np.linalg.svd(jac.matrix, compute_uv=False)
        assert np.allclose(sv, [1.0, 2.0 / 3.0, 0.0], atol=1e-12)

    def test_m_zero_invertible_xi_block(self):
        problem = AffineQuadraticProblem(c=[], a0=np.diag([2.0, 0.0]), a_list=[])
        z = PrimalDualPoint(x=np.zeros(0), y=np.zeros((2, 2)))
        frame = TangentFrame(problem, z, residual(problem, z).ied)
        jac = assemble_dF(frame)
        # no gamma block: xi acts as the identity on the tangent pairs
        assert np.isclose(jac.sigma_min(), 1.0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.sampled_from([-2.0, -0.5, 0.0, 0.5, 2.0, 3.0]), min_size=1, max_size=7),
        st.integers(0, 2**31),
    )
    @example([3.0], 0)               # n = 1
    @example([0.0, 0.0, 0.0], 1)     # all beta: no tangent pairs
    @example([0.0, -0.5, -2.0], 2)   # p = 0
    @example([3.0, 0.5, 0.0], 3)     # q = 0
    def test_xi_t_is_the_xi_matrix_at_the_tangent_pairs(self, lam, seed):
        # eigenvalues drawn from a few values, zero among them, so ties
        # within alpha, beta and gamma are common; a0 = 0 makes G(z) = y
        rng = np.random.default_rng(seed)
        n = len(lam)
        basis = haar_orthogonal(rng, n)
        problem = AffineQuadraticProblem(
            c=np.zeros(2), a0=np.zeros((n, n)),
            a_list=[sym(rng.standard_normal((n, n))) for _ in range(2)],
        )
        z = point(np.zeros(2), basis @ (np.array(lam)[:, None] * basis.T))
        frame = TangentFrame(problem, z, make_ied(big_g(problem, z)))
        jac = assemble_dF(frame)
        k, l = frame.layout.pairs.T
        assert jac.xi_t.tobytes() == xi_matrix(frame.ied)[k, l].tobytes()
        assert jac.c_mat is frame.c_mat

    def test_reference_sigma_min_frozen(self):
        problem, z_bar = degenerate_fixture()
        frame = TangentFrame(problem, z_bar, residual(problem, z_bar).ied)
        jac = assemble_dF(frame)
        assert np.isclose(jac.sigma_min(), SIGMA_MIN_REFERENCE, rtol=1e-9)
        assert jac.sigma_min() > 1e-6

    def test_adjoint_identity_exact(self):
        rng = np.random.default_rng(4)
        problem = random_problem(rng, 4, 5)
        z = random_point(rng, problem)
        res = residual(problem, z)
        frame = TangentFrame(problem, z, res.ied)
        jac = assemble_dF(frame)
        u = rng.standard_normal(jac.matrix.shape[1])
        w = rng.standard_normal(jac.matrix.shape[0])
        assert (jac.matrix @ u @ w) == pytest.approx(u @ jac.apply_adjoint(w), rel=1e-13)

    def test_matches_finite_differences_along_retraction(self):
        rng = np.random.default_rng(5)
        for trial in range(5):
            problem, z = corrected_random_point(rng, 4, 5, n_zero=1)
            res = residual(problem, z)
            frame = TangentFrame(problem, z, res.ied)
            jac = assemble_dF(frame)
            base = frame.coords(res)
            idx = int(rng.integers(0, frame.dim))
            u = np.zeros(frame.dim)
            u[idx] = 1.0
            v = TangentVector(frame=frame, v_x=u[: problem.m], coeffs=u[problem.m :])
            column = jac.matrix @ u
            # the quotient error obeys C*t; exactly linear coordinates sit
            # at the cancellation noise floor instead, which also passes
            for t in (1e-4, 1e-5, 1e-6):
                moved = retract_point(scaled(v, t))
                quotient = (frame.coords(residual(problem, moved)) - base) / t
                err = np.linalg.norm(quotient - column)
                assert err <= 100.0 * t + 1e-9 / t * 1e-6


class TestDirectionalDerivative:
    def test_zero_direction(self):
        rng = np.random.default_rng(6)
        problem = random_problem(rng, 3, 4)
        z = random_point(rng, problem)
        val = dir_derivative_phi(problem, z, np.zeros(4), np.zeros((3, 3)))
        assert val == 0.0

    def test_smooth_case_matches_gradient_pairing(self):
        # with an empty beta block the derivative is <F, dF v> exactly
        rng = np.random.default_rng(7)
        problem = random_problem(rng, 3, 4)
        z = random_point(rng, problem)
        res = residual(problem, z)
        assert res.ied.n_beta == 0
        frame = TangentFrame(problem, z, res.ied)
        jac = assemble_dF(frame)
        for _ in range(10):
            v_x = rng.standard_normal(4)
            v_y = sym(rng.standard_normal((3, 3)))
            val = dir_derivative_phi(problem, z, v_x, v_y, res, jac)
            _, h = to_coords(frame, v_x, v_y)
            u = np.concatenate([v_x, coeffs_from_matrix(frame, h)])
            expected = frame.coords(res) @ (jac.matrix @ u)
            assert val == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(8)
        problem, z = corrected_random_point(rng, 3, 4, n_zero=1)
        v_x = rng.standard_normal(4)
        v_y = sym(rng.standard_normal((3, 3)))
        base = dir_derivative_phi(problem, z, v_x, v_y)
        for s in (0.5, 2.0, 7.0):
            scaled = dir_derivative_phi(problem, z, s * v_x, s * v_y)
            assert scaled == pytest.approx(s * base, rel=1e-9, abs=1e-12)

    def test_one_sided_difference_agreement(self):
        rng = np.random.default_rng(9)
        for trial in range(10):
            if trial % 2:
                problem, z = corrected_random_point(rng, 4, 4, n_zero=1)
            else:
                problem = random_problem(rng, 4, 4)
                z = random_point(rng, problem)
            res = residual(problem, z)
            v_x = rng.standard_normal(4)
            v_y = sym(rng.standard_normal((4, 4)))
            val = dir_derivative_phi(problem, z, v_x, v_y, res)
            errs = []
            for t in (1e-4, 1e-5, 1e-6):
                shifted = PrimalDualPoint(x=z.x + t * v_x, y=sym(z.y + t * v_y))
                quotient = (residual(problem, shifted).phi - res.phi) / t
                errs.append(abs(quotient - val))
            assert errs[-1] <= 1e-3 * max(1.0, abs(val))

    def test_matrix_branch_on_boundary_fixture(self):
        # at the all-beta scalar point the derivative picks the cone branches
        problem, z = scalar_boundary()
        res = residual(problem, z)
        for w in (1.5, -2.0):
            val = dir_derivative_phi(problem, z, np.zeros(1), np.array([[w]]), res)
            assert val == pytest.approx(w, abs=1e-14)  # phi' = v_y here

    def test_sampled_nonnegativity_at_solution(self):
        problem, z_bar = degenerate_fixture()
        res = residual(problem, z_bar)
        frame = TangentFrame(problem, z_bar, res.ied)
        jac = assemble_dF(frame)
        assert np.linalg.norm(jac.apply_adjoint(frame.coords(res))) == 0.0
        w1, w2 = normal_dirs(frame, res)
        assert frob(w1) == 0.0 and frob(w2) == 0.0
        rng = np.random.default_rng(10)
        for _ in range(1000):
            v_x = rng.standard_normal(5)
            v_y = sym(rng.standard_normal((4, 4)))
            scale = np.sqrt(np.sum(v_x**2) + np.sum(v_y**2))
            val = dir_derivative_phi(
                problem, z_bar, v_x / scale, v_y / scale, res, jac
            )
            assert val >= -1e-9
