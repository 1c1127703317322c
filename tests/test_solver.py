import warnings
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference import dir_derivative_phi, lm_solve_errors, normal_dirs_stacked, slmn_unscreened
from support import (
    Oscillatory,
    OverflowingConstraint,
    corrected_random_point,
    normal_project_pi2,
    point,
    point_distance,
    point_on_stratum,
    psd_part,
    random_point,
    random_problem,
    rotate_within_eigenspaces,
    scaled,
    stratum_matrix,
)

import sgnsdp.solver
from sgnsdp.errors import InertiaViolation, LineSearchFailure, NumericalError
from sgnsdp.kkt import (
    AssembledJacobian,
    KktResidual,
    TangentFrame,
    assemble_dF,
    big_g,
    residual,
)
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
from sgnsdp.spectral import default_zero_tol, eig_sym, frob, make_ied, nsd_part, sym, vec_to_sym


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


class NanHessian(AffineQuadraticProblem):
    """A broken problem whose Hessian of the Lagrangian is NaN."""

    def apply_hess_lagrangian(self, x, y, v):
        return np.full(self.m, np.nan)

    def hess_lagrangian(self, x, y):
        return np.full((self.m, self.m), np.nan)


def broken_scalar_boundary():
    base, z = scalar_boundary()
    return BrokenAdjoint(c=[1.0], a0=base.a0, a_list=[np.array([[1.0]])]), z


class TestConfig:
    def test_defaults_valid(self):
        config = SolverConfig()
        assert config.tol == 1e-8 and config.delta == 1e-4
        assert SolverConfig(max_iter=np.int64(3)).max_iter == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"delta": 0.0},
            {"tol": -1.0},
            {"max_iter": 0},
            {"max_iter": 10.0},
            {"max_iter": True},
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

    @pytest.mark.parametrize(
        "spectrum",
        [
            [0.0, -0.3, -2.0],          # p = 0
            [3.0, 0.5, 0.0, 0.0],       # q = 0
            [0.0, 0.0, 0.0],            # every eigenvalue in beta
            [1e-13, -1e-13, 0.0],       # every eigenvalue in beta, not exact zeros
            [-0.2, -7.0],               # p = 0 and no beta
            [5.0, 0.1],                 # q = 0 and no beta
            [4.0, 0.0, -0.25, -9.0],
            [0.25, -4.0],
        ],
    )
    def test_ends_equal_the_whole_spectrum_formulas(self, spectrum):
        # both read only the ends of the sorted spectrum; they equal the
        # formulas over every eigenvalue to the bit
        rng = np.random.default_rng(len(spectrum))
        q, _ = np.linalg.qr(rng.standard_normal((len(spectrum), len(spectrum))))
        ied = make_ied(sym(q @ np.diag(spectrum) @ q.T))
        lam = ied.eigenvalues
        nonzero = np.concatenate([lam[: ied.p], lam[ied.n - ied.q :]])
        modulus = float(np.min(np.abs(nonzero))) if nonzero.size else np.inf
        assert delta_lower_modulus(ied) == modulus
        assert default_zero_tol(lam) == 1e-10 * max(1.0, float(np.max(np.abs(lam))))
        assert default_zero_tol(lam[::-1].copy()) == default_zero_tol(lam)
        assert ied.p + ied.q + ied.n_beta == len(spectrum)

    def test_zero_tol_of_an_empty_spectrum(self):
        assert default_zero_tol(np.zeros(0)) == 1e-10


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

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 6), st.integers(0, 2**31))
    def test_stacked_parts_equal_separate_parts_bit_for_bit(self, n_beta, n_rest, m, seed):
        # W1 and W2 each equal the NSD or PSD part of its block taken on
        # its own
        rng = np.random.default_rng(seed)
        problem, z = corrected_random_point(rng, n_beta + n_rest, m, n_zero=n_beta)
        res = residual(problem, z)
        ied = res.ied
        assume(ied.n_beta == n_beta)
        frame = TangentFrame(problem, z, ied)
        p, r = ied.p, ied.n - ied.q
        pb = ied.basis[:, p:r]
        block1 = -vec_to_sym(frame.c_mat @ res.f1, ied.n)[p:r, p:r]
        block2 = block1 - pb.T @ res.f2 @ pb
        w1, w2 = normal_dirs(frame, res)
        assert np.array_equal(w1, sym(pb @ nsd_part(block1) @ pb.T))
        assert np.array_equal(w2, sym(pb @ psd_part(block2) @ pb.T))

    @pytest.mark.parametrize("n_beta, eig_calls", [(1, 0), (2, 2), (3, 2)])
    def test_scalar_blocks_take_no_eigendecomposition(self, monkeypatch, n_beta, eig_calls):
        # at |beta| = 1 the blocks are clipped at zero, which is what a
        # 1 x 1 dsyevd gives; larger blocks take one dsyevd each
        problem, z = corrected_random_point(np.random.default_rng(5), n_beta + 2, 4, n_zero=n_beta)
        res = residual(problem, z)
        assert res.ied.n_beta == n_beta
        calls = []

        def counting(a):
            calls.append(a.shape)
            return eig_sym(a)

        monkeypatch.setattr(sgnsdp.solver, "eig_sym", counting)
        normal_dirs(TangentFrame(problem, z, res.ied), res)
        assert calls == [(n_beta, n_beta)] * eig_calls

    @pytest.mark.parametrize("scale", [np.inf, 1e308])
    def test_a_scalar_block_that_is_not_finite_raises(self, scale):
        # an infinite block, or one whose symmetrization overflows, still
        # reaches eig_sym and raises there
        problem, z = corrected_random_point(np.random.default_rng(5), 3, 4, n_zero=1)
        res = residual(problem, z)
        frame = TangentFrame(problem, z, res.ied)
        entries = vec_to_sym(frame.c_mat.T, res.ied.n)[:, res.ied.p, res.ied.p]
        f1 = np.zeros(4)
        f1[np.argmax(np.abs(entries))] = scale / np.abs(entries).max()
        with pytest.raises(NumericalError), np.errstate(over="ignore", invalid="ignore"):
            normal_dirs(frame, KktResidual(f1=f1, f2=res.f2, ied=res.ied))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 4), st.integers(1, 3), st.integers(1, 6), st.integers(0, 2**31))
    def test_equal_the_stacked_decomposition_bit_for_bit(self, n_beta, n_rest, m, seed):
        # two single decompositions give what one stacked np.linalg.eigh gave
        rng = np.random.default_rng(seed)
        problem, z = corrected_random_point(rng, n_beta + n_rest, m, n_zero=n_beta)
        res = residual(problem, z)
        frame = TangentFrame(problem, z, res.ied)
        w1, w2 = normal_dirs(frame, res)
        ref1, ref2 = normal_dirs_stacked(frame, res)
        assert np.array_equal(w1, ref1) and np.array_equal(w2, ref2)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 4), st.integers(1, 3), st.integers(1, 6), st.booleans(),
        st.integers(0, 2**31),
    )
    def test_blocks_match_the_unrotated_callback(self, n_beta, n_rest, m, rotate, seed):
        # the beta-beta block read from C is that of pb^T dg(F1) pb, with
        # dg(F1) from the problem's own apply_dg, in the IED's eigenbasis
        # or one re-drawn within its eigenspaces
        rng = np.random.default_rng(seed)
        problem, z = corrected_random_point(rng, n_beta + n_rest, m, n_zero=n_beta)
        res = residual(problem, z)
        ied = res.ied
        assume(ied.n_beta == n_beta)
        if rotate:
            ied = rotate_within_eigenspaces(ied, seed=seed)
        p, r = ied.p, ied.n - ied.q
        pb = ied.basis[:, p:r]
        block1 = -sym(pb.T @ problem.apply_dg(z.x, res.f1) @ pb)
        block2 = block1 - sym(pb.T @ res.f2 @ pb)
        w1, w2 = normal_dirs(TangentFrame(problem, z, ied), res)
        tol = 1e-12 * max(1.0, frob(block1), frob(block2))
        assert frob(w1 - pb @ nsd_part(block1) @ pb.T) <= tol
        assert frob(w2 - pb @ psd_part(block2) @ pb.T) <= tol


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
        jac, r = assemble_dF(frame), frame.coords(res)
        v, mu = lm_direction(jac, res, r, jac.apply_adjoint(r))
        assert mu == 2.0
        assert np.allclose(v.as_vec(), [2.0 / 11.0, -5.0 / 11.0], atol=1e-14)

    def test_scalar_boundary_fixture(self):
        problem, z = scalar_boundary()
        res = residual(problem, z)
        frame = TangentFrame(problem, z, res.ied)
        jac, r = assemble_dF(frame), frame.coords(res)
        v, mu = lm_direction(jac, res, r, jac.apply_adjoint(r))
        assert mu == 1.0
        assert np.allclose(v.as_vec(), [1.0 / 3.0], atol=1e-14)

    def test_zero_residual_gives_zero_direction(self):
        problem, z_bar = degenerate_fixture()
        res = residual(problem, z_bar)
        frame = TangentFrame(problem, z_bar, res.ied)
        jac, r = assemble_dF(frame), frame.coords(res)
        v, _ = lm_direction(jac, res, r, jac.apply_adjoint(r))
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
    (lambda: synth_nondegenerate(seed=2000, n=20, m=30), 2000),
]
FAR_SOLVE_IDS = [
    *[f"fixture{i}" for i in range(5)], *[f"synth5x6-{i}" for i in range(3)],
    "synth30x40", "synth20x30",
]


class TestStructuredNormalEquations:
    @pytest.mark.parametrize("build, start", FAR_SOLVES, ids=FAR_SOLVE_IDS)
    def test_late_directions_match_a_qr_solve(self, build, start, monkeypatch):
        # the LM direction from the block Gram is within 10x of the error
        # of a Cholesky solve on the dense matrix.T @ matrix, both measured
        # against a QR solve of [J; sqrt(mu) I] u = [-r; 0]
        problem, z_bar = build()
        late = deque(maxlen=6)
        original = lm_direction

        def recording(jac, res, *args):
            out = original(jac, res, *args)
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


class TestStructuredSolve:
    @pytest.mark.parametrize("build, start", FAR_SOLVES, ids=FAR_SOLVE_IDS)
    def test_every_far_solve_frame_matches_a_qr_solve(self, build, start, monkeypatch):
        # solve_regularized, called directly at each frame and mu that
        # lm_direction saw, is within 10x of the dense Cholesky error
        problem, z_bar = build()
        seen = []
        original = lm_direction

        def recording(jac, res, *args):
            out = original(jac, res, *args)
            seen.append((jac, res, out[1]))
            return out

        monkeypatch.setattr(sgnsdp.solver, "lm_direction", recording)
        assert sgn_solve(problem, _far_start(problem, z_bar, start)).status == CONVERGED
        assert seen
        for jac, res, mu in seen:
            errors = lm_solve_errors(jac, jac.frame.coords(res), mu)
            if errors is None:
                continue
            err, err_dense, _ = errors
            assert err <= 10.0 * max(err_dense, np.finfo(float).eps), (mu, err, err_dense)

    def test_large_solve_forms_neither_gram_nor_matrix(self, monkeypatch):
        # a (30, 40) and a (20, 30) solve, whose orders all lie above the
        # constant
        def refuse(jac):
            raise AssertionError("a dense (m + T) array was formed")

        monkeypatch.setattr(AssembledJacobian, "gram", property(refuse))
        monkeypatch.setattr(AssembledJacobian, "matrix", property(refuse))
        for build, start in FAR_SOLVES[-2:]:
            problem, z_bar = build()
            assert sgn_solve(problem, _far_start(problem, z_bar, start)).status == CONVERGED

    @pytest.mark.parametrize("offset, dense", [(-1, True), (0, False)], ids=["below", "at"])
    def test_the_constant_is_the_first_structured_order(self, offset, dense, monkeypatch):
        # n = 15 with no zero eigenvalue has T = 120 tangent pairs, so m
        # sets the order m + T to one below the constant or to it
        order = sgnsdp.solver.STRUCTURED_MIN_ORDER + offset
        n = 15
        rng = np.random.default_rng(order)
        problem = random_problem(rng, n, order - n * (n + 1) // 2)
        x = rng.standard_normal(problem.m)
        z = point(x, stratum_matrix(rng, n, 8, 7) - problem.eval_g(x))
        res = residual(problem, z)
        frame = TangentFrame(problem, z, res.ied)
        assert frame.dim == order
        formed = []
        gram = AssembledJacobian.gram.func
        monkeypatch.setattr(
            AssembledJacobian, "gram", property(lambda jac: formed.append(jac) or gram(jac))
        )
        jac, r = assemble_dF(frame), frame.coords(res)
        v, mu = lm_direction(jac, res, r, jac.apply_adjoint(r))
        assert len(formed) == (1 if dense else 0)
        # either way the direction is the one both solvers give
        by_gram = np.linalg.solve(gram(jac) + mu * np.eye(order), -jac.apply_adjoint(r))
        for u in (by_gram, jac.solve_regularized(r, mu)):
            assert np.allclose(v.as_vec(), u, rtol=1e-8, atol=1e-10)

    def test_order_picks_the_solver(self, monkeypatch):
        # with the crossover lowered to 1 the fixture's directions come from
        # solve_regularized, and agree with the dense path's
        problem, z_bar = degenerate_fixture()
        z = _far_start(problem, z_bar, 0)
        res = residual(problem, z)
        frame = TangentFrame(problem, z, res.ied)
        jac = assemble_dF(frame)
        r = frame.coords(res)
        pulled = jac.apply_adjoint(r)
        dense, mu = lm_direction(jac, res, r, pulled)

        def refuse(jac):
            raise AssertionError("the Gram was formed")

        monkeypatch.setattr(sgnsdp.solver, "STRUCTURED_MIN_ORDER", 1)
        monkeypatch.setattr(AssembledJacobian, "gram", property(refuse))
        fresh = assemble_dF(TangentFrame(problem, z, res.ied))
        structured, mu_structured = lm_direction(fresh, res, r, pulled)
        assert mu_structured == mu
        assert np.allclose(structured.as_vec(), dense.as_vec(), rtol=1e-10, atol=1e-12)


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
        r = frame.coords(res)
        pulled = jac.apply_adjoint(r)
        v, _ = lm_direction(jac, res, r, pulled)
        dphi = float(pulled @ v.as_vec())
        _, _, j, _ = armijo_search(res, v, dphi, SolverConfig())
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
            r = frame.coords(res)
            pulled = jac.apply_adjoint(r)
            v, _ = lm_direction(jac, res, r, pulled)
            dphi = float(pulled @ v.as_vec())
            if not dphi < 0:
                break
            z_new, res_new, j, _ = armijo_search(res, v, dphi, config)
            assert res_new.phi < res.phi
            seen_positive_j = seen_positive_j or j >= 1
            z = z_new
        assert seen_positive_j

    def test_accepted_step_bounds(self):
        # the accepted j is minimal, the accepted decrease clears the
        # threshold, and the threshold itself is at least the pure
        # regularizer share eta/2 * rho^j * mu ||v||^2; as rho is a power
        # of two, the accepted point is the retraction along rho^j v bit
        # for bit (at the far fixture start a non-power-of-two rho breaks
        # that in the last bits)
        eta, rho = sgnsdp.solver.ETA, sgnsdp.solver.RHO
        fixture, z_bar = degenerate_fixture()
        starts = [(Oscillatory(), point([0.3], [[0.7]])),
                  (fixture, _far_start(fixture, z_bar, 1))]
        config = SolverConfig()
        for problem, z in starts:
            checked = 0
            for _ in range(30):
                res = residual(problem, z)
                frame = TangentFrame(problem, z, res.ied)
                jac = assemble_dF(frame)
                r = frame.coords(res)
                pulled = jac.apply_adjoint(r)
                v, mu = lm_direction(jac, res, r, pulled)
                dphi = float(pulled @ v.as_vec())
                if not dphi < 0:
                    break
                z_new, res_new, j, _ = armijo_search(res, v, dphi, config)
                step = rho**j
                direct = retract_point(scaled(v, step))
                for name in ("x", "y", "g"):
                    assert getattr(z_new, name).tobytes() == getattr(direct, name).tobytes()
                decrease = res.phi - res_new.phi
                assert decrease >= -0.5 * eta * step * dphi
                assert decrease >= 0.5 * eta * step * mu * v.norm**2 * (1 - 1e-12)
                if j >= 1:
                    checked += 1
                    prev = rho ** (j - 1)
                    try:
                        trial = retract_point(scaled(v, prev))
                    except InertiaViolation:
                        pass  # the larger trial failed by leaving the stratum
                    else:
                        trial_phi = residual(problem, trial).phi
                        assert trial_phi - res.phi > 0.5 * eta * prev * dphi
                z = z_new
            assert checked >= 1

    @pytest.mark.parametrize("case", ["overflow", "synth30x40"])
    def test_flags_a_search_that_left_the_stratum(self, case):
        # the flag is set exactly when a rejected trial raised
        # InertiaViolation: the overflowing start rejects each far trial
        # for its non-finite g and leaves it unset
        if case == "overflow":
            problem, z = OverflowingConstraint(), point([1.5], [[0.5]])
        else:
            problem, z_star = synth_nondegenerate(seed=3001, n=30, m=40)
            z = _far_start(problem, z_star, 3101)
        config = SolverConfig()
        state = _point_state(problem, z, config)
        v = state.v_lm
        with np.errstate(invalid="ignore"):  # inf - inf at the overflowing trials
            _, _, j, left = armijo_search(state.res, v, float(state.pulled @ v.as_vec()), config)
            rejected = []
            for i in range(j):
                try:
                    trial = retract_point(scaled(v, sgnsdp.solver.RHO**i))
                    residual(problem, trial, None, trial.g)
                except (InertiaViolation, NumericalError) as exc:
                    rejected.append(type(exc))
                else:
                    rejected.append(None)  # failed the Armijo test
        assert j >= 1
        assert left == (InertiaViolation in rejected)
        assert left == (case == "synth30x40")
        if case == "overflow":
            assert rejected == [NumericalError] * j


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

    def test_ties_go_to_lm_then_normal1_then_normal2(self, monkeypatch):
        # the three candidates get merits from stubs; among equal merits
        # the earlier candidate in the order lm, normal1, normal2 wins.
        # The normal candidates' merits also reach the F1 screen, either
        # as its bound, so that the screen drops each normal candidate that
        # ties, or with a zero bound, so that every candidate reaches the
        # selection by merit
        problem, z = corrected_random_point(np.random.default_rng(1), 4, 5, n_zero=2)
        config = SolverConfig()
        state = _point_state(problem, z, config)
        assert state.v_lm.norm > 0.0 and frob(state.w1) > 0.0 and frob(state.w2) > 0.0
        low = 0.5 * state.res.phi

        def run(lm_phi, normal_phis, screened):
            lm_res = SimpleNamespace(phi=lm_phi)
            normal_res = [SimpleNamespace(phi=phi) for phi in normal_phis]
            queue = deque(normal_res)

            def search(res, v, dphi, cfg):
                if lm_phi is None:
                    raise LineSearchFailure("stubbed")
                return z, lm_res, 0, False

            def f1_merit(problem, z):
                # the stubbed residual stands in for F1 and comes back from residual
                stub = queue.popleft()
                return stub, stub.phi if screened else 0.0

            monkeypatch.setattr(sgnsdp.solver, "armijo_search", search)
            monkeypatch.setattr(sgnsdp.solver, "_f1_merit", f1_merit)
            monkeypatch.setattr(sgnsdp.solver, "residual", lambda *args, f1: f1)
            outcome = slmn(state, config)
            assert not queue
            return outcome, lm_res, normal_res

        for screened in (True, False):
            outcome, lm_res, _ = run(low, (low, low), screened)
            assert outcome.kind == "lm" and outcome.res is lm_res
            outcome, lm_res, _ = run(low, (2.0 * low, low), screened)
            assert outcome.kind == "lm" and outcome.res is lm_res
            outcome, _, normal_res = run(2.0 * low, (low, low), screened)
            assert outcome.kind == "normal1" and outcome.res is normal_res[0]
            outcome, _, normal_res = run(None, (low, low), screened)
            assert outcome.kind == "normal1" and outcome.res is normal_res[0]
            outcome, _, normal_res = run(2.0 * low, (2.0 * low, low), screened)
            assert outcome.kind == "normal2" and outcome.res is normal_res[1]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 3), st.integers(1, 3), st.integers(1, 6), st.integers(0, 2**31))
    def test_screen_picks_what_the_unscreened_loop_picks(self, n_beta, n_rest, m, seed):
        # the F1 screen only drops candidates that cannot win, so the
        # outcome is the unscreened loop's to the bit
        problem, z = corrected_random_point(
            np.random.default_rng(seed), n_beta + n_rest, m, n_zero=n_beta
        )
        config = SolverConfig()
        state = _point_state(problem, z, config)
        got, want = slmn(state, config), slmn_unscreened(state, config)
        assert (got.kind, got.backtracks, got.step_norm) == (want.kind, want.backtracks, want.step_norm)
        for a, b in ((got.z.x, want.z.x), (got.z.y, want.z.y), (got.res.f1, want.res.f1),
                     (got.res.f2, want.res.f2), (got.res.ied.basis, want.res.ied.basis)):
            assert a.tobytes() == b.tobytes()


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

    def test_stalled_status_with_exhausted_backtracking(self, monkeypatch):
        monkeypatch.setattr(sgnsdp.solver, "MAX_BACKTRACKS", 0)
        result = sgn_solve(Oscillatory(), point([0.3], [[0.7]]), SolverConfig(max_iter=30))
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

    def test_nonfinite_hessian_fails_the_lm_step_not_the_solve(self):
        # the dense LM system is not checked for non-finite entries: every
        # factorization attempt fails, so the LM candidate is skipped and
        # the normal steps still run
        base, _ = degenerate_fixture()
        problem = NanHessian(c=base.c, a0=base.a0, a_list=list(base.a), quad=base.quad)
        result = sgn_solve(problem, point(np.zeros(5), np.zeros((4, 4))), SolverConfig(max_iter=5))
        assert result.status == STALLED
        assert [rec.step_kind for rec in result.trace] == ["normal1", "stall"]
        assert all(np.isnan(rec.mu) for rec in result.trace)

    def test_failed_dpotrs_fails_the_lm_step_not_the_solve(self, monkeypatch):
        # a dpotrs that reports an illegal argument is a failed attempt
        # like a failed factorization, so the LM candidate is skipped
        monkeypatch.setattr(
            scipy.linalg.lapack, "dpotrs", lambda factor, rhs, **kwargs: (rhs, -1)
        )
        problem, _ = degenerate_fixture()
        z0 = point(np.zeros(5), np.zeros((4, 4)))
        assert stationarity_measure(problem, z0) == np.inf
        result = sgn_solve(problem, z0, SolverConfig(max_iter=5))
        assert result.status in (CONVERGED, MAX_ITER, STALLED)
        assert all(np.isnan(rec.mu) for rec in result.trace)

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


TRIGGER_SOLVES = [
    *[(5, 6, seed, seed) for seed in range(4)],
    (20, 30, 5000, 5100),
    (30, 40, 3001, 3101),
]


class TestCorrectionTrigger:
    @pytest.mark.parametrize("n, m, inst, start", TRIGGER_SOLVES)
    def test_a_search_that_left_the_stratum_is_followed_by_a_correction(
        self, n, m, inst, start, monkeypatch
    ):
        # every uncorrected lm step whose search rejected a trial for
        # leaving the stratum is followed by a correction attempt; the
        # events of each iteration are an optional correct() and one or
        # two slmn() calls, the second when the correction is rejected
        events = []
        real_correct, real_slmn = sgnsdp.solver.correct, sgnsdp.solver.slmn

        def counting_correct(z, ied, delta):
            events.append(("correct", delta))
            return real_correct(z, ied, delta)

        def recording_slmn(state, config):
            outcome = real_slmn(state, config)
            events.append(("slmn", outcome))
            return outcome

        monkeypatch.setattr(sgnsdp.solver, "correct", counting_correct)
        monkeypatch.setattr(sgnsdp.solver, "slmn", recording_slmn)
        problem, z_star = synth_nondegenerate(seed=inst, n=n, m=m)
        result = sgn_solve(problem, _far_start(problem, z_star, start))

        stream = iter(events)
        attempted, left = [], []
        for rec in result.trace:
            tag, item = next(stream)
            tried = tag == "correct"
            if tried:
                tag, item = next(stream)
                if not (rec.step_kind.startswith("corrected-") or rec.step_kind == "correction"):
                    tag, item = next(stream)
            assert tag == "slmn"
            attempted.append(tried)
            left.append(rec.step_kind == "lm" and item.left_stratum)
        assert next(stream, None) is None
        followed = [attempted[k + 1] for k in range(len(left) - 1) if left[k]]
        assert all(followed)
        assert result.status == CONVERGED
        phis = [rec.phi for rec in result.trace] + [result.phi]
        assert all(b <= a for a, b in zip(phis, phis[1:]))
        if (n, m, inst) == (30, 40, 3001):
            # the first search leaves the stratum and the correction that
            # follows is accepted at once
            assert left[0] and result.trace[1].step_kind.startswith("corrected-")
            assert len(result.trace) == 8
