import warnings
from collections import deque

import numpy as np
import pytest
import scipy.linalg
from reference import dir_derivative_phi
from support import (
    Oscillatory,
    OverflowingConstraint,
    corrected_random_point,
    normal_project_pi2,
    point,
    point_distance,
    point_on_stratum,
    random_point,
    random_problem,
)

import sgnsdp.solver
from sgnsdp.errors import InertiaViolation, LineSearchFailure
from sgnsdp.kkt import AssembledJacobian, TangentFrame, assemble_dF, big_g, residual
from sgnsdp.model import (
    AffineQuadraticProblem,
    PrimalDualPoint,
    degenerate_fixture,
    synth_nondegenerate,
)
from sgnsdp.solver import (
    CONVERGED,
    MAX_ITER,
    STALLED,
    SolverConfig,
    _point_state,
    armijo_search,
    correct,
    delta_lower_modulus,
    lm_direction,
    normal_dirs,
    normal_step,
    retract_point,
    sgn_solve,
    slmn,
    stationarity_measure,
)
from sgnsdp.spectral import frob, make_ied, sym


def scalar_boundary():
    problem = AffineQuadraticProblem(
        c=[1.0], a0=np.array([[0.0]]), a_list=[np.array([[1.0]])]
    )
    return problem, point([0.0], [[0.0]])


class BrokenAdjoint(AffineQuadraticProblem):
    """A broken problem whose adjoint vanishes: the provably nonzero W1
    step-size denominator measures zero."""

    def adjoint_dg(self, x, s):
        return np.zeros(self.m)


def broken_scalar_boundary():
    base, z = scalar_boundary()
    return BrokenAdjoint(c=[1.0], a0=base.a0, a_list=[np.array([[1.0]])]), z


class TestConfig:
    def test_defaults_valid(self):
        config = SolverConfig()
        assert config.tol == 1e-8 and config.delta == 1e-4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eta": 0.5},
            {"eta": 1.0},
            {"rho": 0.0},
            {"rho": 1.0},
            {"delta": 0.0},
            {"tol": -1.0},
            {"max_iter": 0},
            {"mu_min": 0.0},
            {"mu_min": 1.0, "mu_max": 0.5},
            {"tol": float("nan")},
            {"delta": float("nan")},
            {"zero_tol": float("nan")},
            {"tol": float("inf")},
            {"delta": float("inf")},
            {"zero_tol": float("inf")},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestDeltaModulus:
    def test_mixed(self):
        assert delta_lower_modulus(make_ied(np.diag([1.0, 0.0, -0.3]))) == pytest.approx(0.3)

    def test_all_zero_sentinel(self):
        assert delta_lower_modulus(make_ied(np.zeros((2, 2)))) == np.inf

    def test_reference(self):
        problem, z_bar = degenerate_fixture()
        ied = make_ied(big_g(problem, z_bar))
        assert delta_lower_modulus(ied) == pytest.approx(1.0)


class TestNormalDirections:
    def test_zero_at_solution(self):
        problem, z_bar = degenerate_fixture()
        res = residual(problem, z_bar)
        w1, w2 = normal_dirs(TangentFrame(problem, z_bar, res.ied), res)
        assert frob(w1) == 0.0 and frob(w2) == 0.0

    def test_scalar_boundary_values(self):
        problem, z = scalar_boundary()
        res = residual(problem, z)
        w1, w2 = normal_dirs(TangentFrame(problem, z, res.ied), res)
        assert np.allclose(w1, [[-1.0]]) and np.allclose(w2, [[0.0]])

    def test_zero_without_beta(self):
        rng = np.random.default_rng(0)
        problem = random_problem(rng, 3, 4)
        z = random_point(rng, problem)
        res = residual(problem, z)
        assert res.ied.n_beta == 0
        w1, w2 = normal_dirs(TangentFrame(problem, z, res.ied), res)
        assert frob(w1) == 0.0 and frob(w2) == 0.0

    def test_cone_membership_and_normality(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            problem, z = corrected_random_point(rng, 4, 5, n_zero=2)
            res = residual(problem, z)
            w1, w2 = normal_dirs(TangentFrame(problem, z, res.ied), res)
            for w in (w1, w2):
                assert frob(normal_project_pi2(res.ied, w) - w) <= 1e-12
            assert np.max(np.linalg.eigvalsh(w1)) <= 1e-12
            assert np.min(np.linalg.eigvalsh(w2)) >= -1e-12


class TestNormalStep:
    def test_scalar_boundary_jumps_to_solution(self):
        problem, z = scalar_boundary()
        res = residual(problem, z)
        assert res.phi == 0.5
        frame = TangentFrame(problem, z, res.ied)
        w1, _ = normal_dirs(frame, res)
        cand = normal_step(frame, w1, 1)
        assert np.allclose(cand.x, [0.0]) and np.allclose(cand.y, [[-1.0]])
        after = residual(problem, cand)
        assert after.phi == 0.0  # KKT pair of: minimize x subject to x >= 0

    def test_absent_when_zero(self):
        problem, z = scalar_boundary()
        res = residual(problem, z)
        frame = TangentFrame(problem, z, res.ied)
        _, w2 = normal_dirs(frame, res)
        assert normal_step(frame, w2, 2) is None

    def test_inconsistent_adjoint_is_signalled(self):
        from sgnsdp.errors import NumericalInconsistency

        broken, z = broken_scalar_boundary()
        res = residual(broken, z)
        frame = TangentFrame(broken, z, res.ied)
        w1, _ = normal_dirs(frame, res)
        with pytest.raises(NumericalInconsistency):
            normal_step(frame, w1, 1)

    def test_decrease_identities(self):
        rng = np.random.default_rng(2)
        seen = 0
        while seen < 20:
            problem, z = corrected_random_point(rng, 4, 5, n_zero=2)
            res = residual(problem, z)
            frame = TangentFrame(problem, z, res.ied)
            w1, w2 = normal_dirs(frame, res)
            for which, w in ((1, w1), (2, w2)):
                if frob(w) == 0.0:
                    continue
                cand = normal_step(frame, w, which)
                drop = res.phi - residual(problem, cand).phi
                w_sq = float(np.sum(w * w))
                dg_sq = float(np.sum(problem.adjoint_dg(z.x, w) ** 2))
                if which == 1:
                    predicted = 0.5 * w_sq**2 / dg_sq
                else:
                    predicted = 0.5 * w_sq**2 / (w_sq + dg_sq)
                assert abs(drop - predicted) <= 1e-10 * max(1.0, predicted)
                seen += 1


class TestLmDirection:
    def test_scalar_quadratic_fixture(self):
        problem = AffineQuadraticProblem(
            c=[0.0], a0=np.array([[1.0]]), a_list=[np.array([[1.0]])],
            quad=np.array([[1.0]]),
        )
        z = point([0.0], [[1.0]])
        res = residual(problem, z)
        frame = TangentFrame(problem, z, res.ied)
        jac = assemble_dF(frame)
        v, mu = lm_direction(jac, res, SolverConfig(), jac.apply_adjoint(frame.coords(res)))
        assert mu == 2.0
        assert np.allclose(v.as_vec(), [2.0 / 11.0, -5.0 / 11.0], atol=1e-14)

    def test_scalar_boundary_fixture(self):
        problem, z = scalar_boundary()
        res = residual(problem, z)
        frame = TangentFrame(problem, z, res.ied)
        jac = assemble_dF(frame)
        v, mu = lm_direction(jac, res, SolverConfig(), jac.apply_adjoint(frame.coords(res)))
        assert mu == 1.0
        assert np.allclose(v.as_vec(), [1.0 / 3.0], atol=1e-14)

    def test_zero_residual_gives_zero_direction(self):
        problem, z_bar = degenerate_fixture()
        res = residual(problem, z_bar)
        frame = TangentFrame(problem, z_bar, res.ied)
        jac = assemble_dF(frame)
        v, _ = lm_direction(jac, res, SolverConfig(), jac.apply_adjoint(frame.coords(res)))
        assert v.norm == 0.0


def _far_start(problem, z_bar, seed):
    """``z_bar`` plus a random perturbation of norm in [0.5, 2]."""
    rng = np.random.default_rng(seed)
    dx = rng.standard_normal(problem.m)
    dy = sym(rng.standard_normal((problem.n, problem.n)))
    scale = rng.uniform(0.5, 2.0) / np.sqrt(np.sum(dx**2) + np.sum(dy**2))
    return PrimalDualPoint(x=z_bar.x + scale * dx, y=z_bar.y + scale * dy)


FAR_SOLVES = [
    *[(degenerate_fixture, start) for start in range(5)],
    *[(lambda seed=seed: synth_nondegenerate(seed=seed, n=5, m=6), seed) for seed in range(3)],
    (lambda: synth_nondegenerate(seed=3000, n=30, m=40), 3000),
]


class TestStructuredNormalEquations:
    @pytest.mark.parametrize(
        "build, start", FAR_SOLVES,
        ids=[*[f"fixture{i}" for i in range(5)], *[f"synth5x6-{i}" for i in range(3)],
             "synth30x40"],
    )
    def test_late_directions_match_a_qr_solve(self, build, start, monkeypatch):
        # the LM direction from the block Gram is within 10x of the error
        # of a Cholesky solve on the dense matrix.T @ matrix, both measured
        # against a QR solve of [J; sqrt(mu) I] u = [-r; 0]
        problem, z_bar = build()
        late = deque(maxlen=6)
        original = lm_direction

        def recording(jac, res, config, *args):
            out = original(jac, res, config, *args)
            late.append((jac, res, out))
            return out

        monkeypatch.setattr(sgnsdp.solver, "lm_direction", recording)
        assert sgn_solve(problem, _far_start(problem, z_bar, start)).status == CONVERGED
        assert len(late) == 6
        for jac, res, (v, mu) in late:
            dense, r_vec = jac.matrix, jac.frame.coords(res)
            dim = dense.shape[1]
            qmat, rmat = np.linalg.qr(np.vstack([dense, np.sqrt(mu) * np.eye(dim)]))
            exact = scipy.linalg.solve_triangular(
                rmat, qmat.T @ np.concatenate([-r_vec, np.zeros(dim)])
            )
            cho = scipy.linalg.cho_factor(dense.T @ dense + mu * np.eye(dim))
            by_dense = scipy.linalg.cho_solve(cho, -(dense.T @ r_vec))
            scale = np.linalg.norm(exact)
            if scale == 0.0:
                continue
            err = np.linalg.norm(v.as_vec() - exact) / scale
            err_dense = np.linalg.norm(by_dense - exact) / scale
            assert err <= 10.0 * max(err_dense, np.finfo(float).eps), (mu, err, err_dense)

    @pytest.mark.parametrize(
        "build, start", [FAR_SOLVES[0], FAR_SOLVES[5]], ids=["fixture", "synth5x6"]
    )
    def test_solve_never_builds_the_dense_matrix(self, build, start, monkeypatch):
        def refuse(jac):
            raise AssertionError("the dense Jacobian was built")

        monkeypatch.setattr(AssembledJacobian, "matrix", property(refuse))
        problem, z_bar = build()
        assert sgn_solve(problem, _far_start(problem, z_bar, start)).status == CONVERGED


class TestRetractPoint:
    def test_zero_vector_is_identity(self):
        rng = np.random.default_rng(3)
        problem = random_problem(rng, 3, 4)
        z = random_point(rng, problem)
        res = residual(problem, z)
        frame = TangentFrame(problem, z, res.ied)
        from sgnsdp.kkt import TangentVector

        v = TangentVector(frame=frame, v_x=np.zeros(4), coeffs=np.zeros(frame.dim_tangent))
        back = retract_point(v)
        assert np.allclose(back.x, z.x)
        assert frob(back.y - z.y) <= 1e-12 * max(1.0, frob(z.y))

    def test_inertia_preserved_on_reference_stratum(self):
        rng = np.random.default_rng(4)
        problem, z_bar = degenerate_fixture()
        for k in range(5):
            z = point_on_stratum(rng, problem, z_bar, 1e-2)
            ied = make_ied(big_g(problem, z))
            assert (ied.p, ied.q) == (1, 1)

    def test_full_inertia_is_additive(self):
        # nothing is truncated when the matrix has no zero eigenvalues
        rng = np.random.default_rng(5)
        problem = random_problem(rng, 3, 4)
        z = random_point(rng, problem)
        res = residual(problem, z)
        frame = TangentFrame(problem, z, res.ied)
        from sgnsdp.kkt import TangentVector

        raw = 1e-3 * rng.standard_normal(frame.dim)
        v = TangentVector(frame=frame, v_x=raw[:4], coeffs=raw[4:])
        moved = retract_point(v)
        expected = big_g(problem, z) + v.matrix
        assert frob(big_g(problem, moved) - expected) <= 1e-11


class TestArmijo:
    def test_unit_step_near_solution(self):
        rng = np.random.default_rng(6)
        problem, z_star = synth_nondegenerate(seed=5, n=5, m=6)
        z = point_on_stratum(rng, problem, z_star, 1e-3)
        res = residual(problem, z)
        frame = TangentFrame(problem, z, res.ied)
        jac = assemble_dF(frame)
        pulled = jac.apply_adjoint(frame.coords(res))
        v, _ = lm_direction(jac, res, SolverConfig(), pulled)
        dphi = float(pulled @ v.as_vec())
        _, _, j = armijo_search(res, v, dphi, SolverConfig())
        assert j == 0

    def test_nondescent_rejected(self):
        problem, z = scalar_boundary()
        res = residual(problem, z)
        frame = TangentFrame(problem, z, res.ied)
        from sgnsdp.kkt import TangentVector

        v = TangentVector(frame=frame, v_x=np.zeros(1), coeffs=np.zeros(0))
        with pytest.raises(LineSearchFailure):
            armijo_search(res, v, 0.0, SolverConfig())

    def test_backtracking_on_curved_problem(self):
        problem = Oscillatory()
        config = SolverConfig()
        seen_positive_j = False
        z = point([0.3], [[0.7]])
        for _ in range(40):
            res = residual(problem, z)
            frame = TangentFrame(problem, z, res.ied)
            jac = assemble_dF(frame)
            pulled = jac.apply_adjoint(frame.coords(res))
            v, _ = lm_direction(jac, res, config, pulled)
            dphi = float(pulled @ v.as_vec())
            if not dphi < 0:
                break
            z_new, res_new, j = armijo_search(res, v, dphi, config)
            assert res_new.phi < res.phi
            seen_positive_j = seen_positive_j or j >= 1
            z = z_new
        assert seen_positive_j

    def test_accepted_step_bounds(self):
        # the accepted j is minimal, the accepted decrease clears the
        # threshold, and the threshold itself is at least the pure
        # regularizer share eta/2 * rho^j * mu ||v||^2
        problem = Oscillatory()
        config = SolverConfig()
        z = point([0.3], [[0.7]])
        checked = 0
        for _ in range(30):
            res = residual(problem, z)
            frame = TangentFrame(problem, z, res.ied)
            jac = assemble_dF(frame)
            pulled = jac.apply_adjoint(frame.coords(res))
            v, mu = lm_direction(jac, res, config, pulled)
            dphi = float(pulled @ v.as_vec())
            if not dphi < 0:
                break
            z_new, res_new, j = armijo_search(res, v, dphi, config)
            step = config.rho**j
            decrease = res.phi - res_new.phi
            assert decrease >= -0.5 * config.eta * step * dphi
            assert decrease >= 0.5 * config.eta * step * mu * v.norm**2 * (1 - 1e-12)
            if j >= 1:
                checked += 1
                prev = config.rho ** (j - 1)
                try:
                    trial = retract_point(v.scaled(prev))
                except InertiaViolation:
                    pass  # the larger trial failed by leaving the stratum
                else:
                    trial_phi = residual(problem, trial).phi
                    assert trial_phi - res.phi > 0.5 * config.eta * prev * dphi
            z = z_new
        assert checked >= 1


class TestSlmn:
    def test_stall_at_solution(self):
        problem, z_bar = degenerate_fixture()
        outcome = slmn(_point_state(problem, z_bar, SolverConfig()), SolverConfig())
        assert outcome.stalled and outcome.kind == "stall"
        assert stationarity_measure(problem, z_bar) == 0.0

    def test_picks_normal_candidate_on_boundary(self):
        problem, z = scalar_boundary()
        outcome = slmn(_point_state(problem, z, SolverConfig()), SolverConfig())
        assert outcome.kind == "normal1"
        assert outcome.res.phi == 0.0

    def test_lm_only_without_beta(self):
        rng = np.random.default_rng(7)
        problem = random_problem(rng, 3, 4)
        z = random_point(rng, problem)
        assert residual(problem, z).ied.n_beta == 0
        outcome = slmn(_point_state(problem, z, SolverConfig()), SolverConfig())
        assert outcome.kind == "lm"
        assert not outcome.stalled

    def test_lm_candidate_preserves_inertia(self):
        rng = np.random.default_rng(12)
        for trial in range(5):
            problem, z = corrected_random_point(rng, 4, 6, n_zero=1)
            ied = make_ied(big_g(problem, z))
            before = (ied.p, ied.q)
            outcome = slmn(_point_state(problem, z, SolverConfig()), SolverConfig())
            if outcome.kind != "lm":
                continue
            after = make_ied(big_g(problem, outcome.z))
            assert (after.p, after.q) == before


    def test_reads_the_normal_directions_once(self, monkeypatch):
        # the normal steps take W1 and W2 from the point state
        import sgnsdp.solver

        original = sgnsdp.solver.normal_dirs
        calls = []

        def counting(*args):
            calls.append(args)
            return original(*args)

        problem, z = corrected_random_point(np.random.default_rng(1), 4, 5, n_zero=2)
        res = residual(problem, z)
        assert all(frob(w) > 0.0 for w in original(TangentFrame(problem, z, res.ied), res))
        monkeypatch.setattr(sgnsdp.solver, "normal_dirs", counting)
        slmn(_point_state(problem, z, SolverConfig()), SolverConfig())
        assert len(calls) == 1


class TestCorrect:
    def test_diagonal_band(self):
        ied = make_ied(np.diag([1.0, 0.05, -0.03]))
        z = point(np.zeros(0), np.diag([1.0, 0.05, -0.03]))
        z_hat = correct(z, ied, delta=0.1)
        assert np.allclose(z_hat.y, np.diag([1.0, 0.0, 0.0]), atol=1e-15)

    def test_identity_outside_band(self):
        ied = make_ied(np.diag([1.0, -2.0]))
        z = point(np.zeros(0), np.diag([1.0, -2.0]))
        z_hat = correct(z, ied, delta=0.1)
        assert np.array_equal(z_hat.y, z.y)

    def test_zero_matrix_fixed(self):
        ied = make_ied(np.zeros((2, 2)))
        z = point(np.zeros(0), np.zeros((2, 2)))
        z_hat = correct(z, ied, delta=0.1)
        assert np.allclose(z_hat.y, 0.0, atol=1e-15)

    def test_idempotence(self):
        rng = np.random.default_rng(8)
        problem = random_problem(rng, 4, 3)
        z = random_point(rng, problem)
        delta = 0.5
        ied1 = make_ied(big_g(problem, z))
        once = correct(z, ied1, delta)
        ied2 = make_ied(big_g(problem, once))
        # the corrected eigenvalues land at zero, clearing the band check
        assert np.all(
            (np.abs(ied2.eigenvalues) <= 1e-12 * max(1.0, frob(z.y)))
            | (np.abs(ied2.eigenvalues) > delta)
        )
        twice = correct(once, ied2, delta)
        assert frob(twice.y - once.y) <= 1e-12 * max(1.0, frob(once.y))

    def test_invalid_delta(self):
        problem, z_bar = degenerate_fixture()
        ied = make_ied(big_g(problem, z_bar))
        with pytest.raises(ValueError):
            correct(z_bar, ied, delta=0.0)


class TestStationarity:
    def test_scalar_boundary_value(self):
        problem, z = scalar_boundary()
        # max over ||W1|| = 1, ||W2|| = 0, ||v_LM|| = 1/3
        assert stationarity_measure(problem, z) == pytest.approx(1.0)

    def test_zero_at_solution(self):
        problem, z_bar = degenerate_fixture()
        assert stationarity_measure(problem, z_bar) == 0.0


class TestSgnSolve:
    def test_starts_at_solution(self):
        problem, z_bar = degenerate_fixture()
        result = sgn_solve(problem, z_bar)
        assert result.status == CONVERGED
        assert len(result.trace) == 0 and result.phi == 0.0

    def test_perturbed_reference_start(self):
        problem, z_bar = degenerate_fixture()
        y0 = z_bar.y.copy()
        y0[1, 1] += 0.5
        result = sgn_solve(problem, PrimalDualPoint(x=z_bar.x.copy(), y=y0))
        assert result.status == CONVERGED
        assert result.phi <= 1e-16

    def test_monotone_trace(self):
        rng = np.random.default_rng(9)
        problem, z_bar = degenerate_fixture()
        dx = rng.standard_normal(5)
        dy = sym(rng.standard_normal((4, 4)))
        scale = 0.8 / np.sqrt(np.sum(dx**2) + np.sum(dy**2))
        z0 = PrimalDualPoint(x=z_bar.x + scale * dx, y=z_bar.y + scale * dy)
        result = sgn_solve(problem, z0)
        phis = [rec.phi for rec in result.trace]
        assert all(b <= a for a, b in zip(phis, phis[1:]))
        assert result.status == CONVERGED

    def test_max_iter_status(self):
        rng = np.random.default_rng(10)
        problem, z_bar = degenerate_fixture()
        z0 = PrimalDualPoint(
            x=z_bar.x + rng.standard_normal(5),
            y=z_bar.y + sym(rng.standard_normal((4, 4))),
        )
        result = sgn_solve(problem, z0, SolverConfig(max_iter=1, tol=1e-14))
        assert result.status == MAX_ITER
        assert len(result.trace) == 1

    def test_inconsistent_normal_step_is_skipped(self):
        # the only candidate at the broken boundary point is the W1 step,
        # whose closed form is undefined; the solve ends with a status
        broken, z = broken_scalar_boundary()
        result = sgn_solve(broken, z)
        assert result.status == STALLED
        assert result.phi == 0.5
        assert [rec.step_kind for rec in result.trace] == ["stall"]

    def test_stalled_status_with_exhausted_backtracking(self):
        result = sgn_solve(
            Oscillatory(), point([0.3], [[0.7]]),
            SolverConfig(max_backtracks=0, max_iter=30),
        )
        assert result.status == STALLED
        assert result.stationarity > 1e-8

    def test_nonlinear_problem_reaches_d_stationarity(self):
        result = sgn_solve(Oscillatory(), point([0.3], [[0.7]]), SolverConfig(max_iter=300))
        assert result.status == CONVERGED
        assert result.stationarity <= 1e-8

    def test_nonkkt_limit_is_directionally_stationary(self):
        # the oscillatory instance has a merit local minimum that is not a
        # KKT pair; the limit must still have nonnegative derivatives in
        # every direction, which is what the stationarity measure certifies
        problem = Oscillatory()
        result = sgn_solve(problem, point([0.3], [[0.7]]), SolverConfig(max_iter=300))
        z = result.z
        res = residual(problem, z)
        assert res.phi > 1e-6  # genuinely not a KKT pair
        frame = TangentFrame(problem, z, res.ied)
        jac = assemble_dF(frame)

        rng = np.random.default_rng(0)
        for _ in range(500):
            v_x = rng.standard_normal(1)
            v_y = sym(rng.standard_normal((1, 1)))
            scale = np.sqrt(v_x[0] ** 2 + v_y[0, 0] ** 2)
            val = dir_derivative_phi(problem, z, v_x / scale, v_y / scale, res, jac)
            assert val >= -1e-9

    def test_nonfinite_trial_residual_is_a_rejected_step(self):
        # g overflows at the far Armijo trials; each is a failed trial
        # instead of a NumericalError escaping the solve
        with np.errstate(invalid="ignore"):  # inf - inf at those trials
            result = sgn_solve(
                OverflowingConstraint(), point([1.5], [[0.5]]), SolverConfig(max_iter=20)
            )
        assert result.status in (CONVERGED, MAX_ITER, STALLED)
        phis = [rec.phi for rec in result.trace] + [result.phi]
        assert all(b <= a for a, b in zip(phis, phis[1:]))

    def test_overflowing_trials_raise_no_warning(self):
        # the residual rejects the overflowed g(x) before forming
        # G = g + y = inf + (-inf), so no RuntimeWarning reaches the caller
        # even when warnings are errors; every far trial is still rejected
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = sgn_solve(
                OverflowingConstraint(), point([1.5], [[0.5]]), SolverConfig(max_iter=20)
            )
        assert result.status == MAX_ITER
        assert [(rec.step_kind, rec.backtracks) for rec in result.trace] == [("lm", 48)] * 20
        assert result.trace[0].phi == 4.625
        assert result.phi == pytest.approx(4.624999999999922, rel=1e-14)

    def test_stratum_identification_near_solution(self):
        rng = np.random.default_rng(11)
        problem, z_star = synth_nondegenerate(seed=6, n=6, m=8)
        ied_star = make_ied(big_g(problem, z_star))
        target = (ied_star.p, ied_star.q)
        z0 = point_on_stratum(rng, problem, z_star, 1e-2)
        result = sgn_solve(problem, z0, SolverConfig(tol=1e-12))
        assert result.status == CONVERGED
        tail = result.trace[-3:]
        assert len(tail) == 3 or len(result.trace) < 3
        for rec in tail:
            assert (rec.p, rec.q) == target
        assert point_distance(result.z, z_star) <= 1e-8

    def test_correction_event_from_adjacent_stratum(self):
        # an eigenvalue inside the band but classified nonzero must trigger
        # the corrected branch and land on the reference stratum
        problem, z_bar = degenerate_fixture()
        y0 = z_bar.y.copy()
        y0[1, 1] += 5e-5  # inside the default delta band
        result = sgn_solve(problem, PrimalDualPoint(x=z_bar.x.copy(), y=y0))
        assert result.status == CONVERGED
        assert result.trace[0].step_kind in (
            "correction", "corrected-lm", "corrected-normal1", "corrected-normal2",
        )
        assert result.phi <= 1e-20

    def test_no_zero_progress_correction_cycle(self):
        # a correction that changes nothing must not be accepted over the
        # plain descent step: from this start the solver used to repeat a
        # corrected-normal2 step at constant merit until max-iter
        problem, z_star = synth_nondegenerate(seed=1, n=5, m=6)
        rng = np.random.default_rng(0)
        x0 = z_star.x + 0.3 * rng.standard_normal(6)
        y0 = sym(z_star.y + 0.03 * rng.standard_normal((5, 5)))
        result = sgn_solve(
            problem, PrimalDualPoint(x=x0, y=y0), SolverConfig(tol=1e-10, max_iter=500)
        )
        assert result.status == CONVERGED
        assert len(result.trace) < 200
        phis = [rec.phi for rec in result.trace]
        assert all(b < a for a, b in zip(phis, phis[1:]))
        assert residual(problem, result.z).norm <= 1e-12
