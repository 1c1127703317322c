"""The constraint stack against the slow reference constructions.

Everything the Jacobian and the regularity checks read from the rotated
stack is compared with the column-by-column and loop-by-entry versions
in :mod:`reference`, over random problems, random strata with a
populated beta block and random eigenbases within clusters.  The SRCQ
probe, which iterates on the trailing block alone, is compared with the
full-matrix alternation.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference import (
    assemble_dF_by_columns,
    constraint_rows,
    lm_solve_errors,
    second_order_margin,
    span_margin,
    srcq_probe,
)
from support import (
    Oscillatory,
    corrected_random_point,
    haar_orthogonal,
    point,
    random_point,
    random_problem,
    residual_vec,
    rotate_within_eigenspaces,
    stratum_matrix,
)

import sgnsdp.regularity
import sgnsdp.spectral
from sgnsdp.kkt import (
    LARGE_XI_SQ,
    TangentFrame,
    assemble_dF,
    big_g,
    residual,
)
from sgnsdp.errors import ConstructionFailure
from sgnsdp.model import (
    AffineQuadraticProblem,
    NlsdpProblem,
    degenerate_fixture,
    synth_nondegenerate,
)
from sgnsdp.regularity import (
    DEFAULT_MARGIN_TOL,
    FAILS,
    HEURISTIC_HOLDS,
    HOLDS,
    NOT_APPLICABLE,
    SAMPLING_SEED,
    SRCQ_ITERATIONS,
    _constraint_rows,
    check_cn,
    check_sonc_heuristic,
    check_srcq_heuristic,
    check_ssosc,
    check_wsoc,
    check_wsrcq,
    diagnose,
    injectivity_margin,
)
from sgnsdp.solver import (
    SolverConfig,
    _point_state,
    armijo_search,
    correct,
    sgn_solve,
    slmn,
)
from sgnsdp.spectral import make_ied, sym, sym_to_vec, vec_to_sym

REL = 1e-12


class CountingProblem(NlsdpProblem):
    """Forwards to an inner problem and counts every callback."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = dict.fromkeys(
            ("eval_g", "apply_dg", "adjoint_dg", "apply_hess_lagrangian"), 0
        )

    @property
    def m(self):
        return self.inner.m

    @property
    def n(self):
        return self.inner.n

    def eval_f(self, x):
        return self.inner.eval_f(x)

    def grad_f(self, x):
        return self.inner.grad_f(x)

    def eval_g(self, x):
        self.calls["eval_g"] += 1
        return self.inner.eval_g(x)

    def apply_dg(self, x, v):
        self.calls["apply_dg"] += 1
        return self.inner.apply_dg(x, v)

    def adjoint_dg(self, x, s):
        self.calls["adjoint_dg"] += 1
        return self.inner.adjoint_dg(x, s)

    def apply_hess_lagrangian(self, x, y, v):
        self.calls["apply_hess_lagrangian"] += 1
        return self.inner.apply_hess_lagrangian(x, y, v)


def _close(value, ref):
    if np.isinf(ref):
        return value == ref
    return abs(value - ref) <= REL * max(1.0, abs(ref))


def _verdict(margin):
    return HOLDS if margin > DEFAULT_MARGIN_TOL else FAILS


@st.composite
def stratum_points(draw):
    """(problem, z, ied): a point whose G(z) has a nonempty beta block."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        n = draw(st.integers(2, 6))
        m = draw(st.integers(0, 7))
        n_zero = draw(st.integers(1, n))
        problem, z = corrected_random_point(rng, n, m, n_zero=n_zero)
    else:
        problem = Oscillatory()
        x = rng.uniform(-1.0, 1.0, size=1)
        z = point(x, -problem.eval_g(x))
    ied = make_ied(big_g(problem, z))
    if draw(st.booleans()):
        ied = rotate_within_eigenspaces(ied, draw(st.integers(0, 2**16)))
    return problem, z, ied


def _near_beta_start():
    """A start near the fixture's solution whose G(z0) has a 5e-5
    eigenvalue, inside the correction band."""
    _, z_bar = degenerate_fixture()
    y = z_bar.y.copy()
    y[1, 1] += 5e-5
    y[0, 0] += 0.1
    return point(z_bar.x + 0.01, y)


class TestCallbackBudget:
    def test_assembly_reads_the_problem_through_the_stack_only(self):
        rng = np.random.default_rng(3)
        for n, m in ((4, 5), (6, 3)):
            problem, z = corrected_random_point(rng, n, m, n_zero=2)
            counting = CountingProblem(problem)
            frame = TangentFrame(counting, z, residual(problem, z).ied)
            assemble_dF(frame)
            assert counting.calls == {
                "eval_g": 0, "apply_dg": m, "adjoint_dg": 0, "apply_hess_lagrangian": m,
            }

    @pytest.mark.parametrize(
        "build",
        [degenerate_fixture, lambda: synth_nondegenerate(seed=4000, n=5, m=6)],
        ids=["fixture", "synth4000"],
    )
    def test_diagnose_builds_exactly_one_stack_and_one_hess(self, build):
        # the checks and the Jacobian of injectivity_margin share one
        # frame, hence one constraint stack and one Hess L
        problem, z = build()
        counting = CountingProblem(problem)
        diagnose(counting, z)
        assert counting.calls["apply_dg"] == problem.m
        assert counting.calls["apply_hess_lagrangian"] == problem.m

    @pytest.mark.parametrize(
        "build",
        [degenerate_fixture, lambda: synth_nondegenerate(seed=4000, n=5, m=6)],
        ids=["fixture", "synth4000"],
    )
    def test_diagnose_evaluates_g_once(self, build):
        # the SRCQ probe reads g(x) = G(z) - y from the frame
        problem, z = build()
        counting = CountingProblem(problem)
        report = diagnose(counting, z)
        assert counting.calls["eval_g"] == 1
        assert report.to_dict() == diagnose(problem, z).to_dict()

    @pytest.mark.parametrize(
        "start, kind, calls",
        [
            ("zeros", "normal1",
             {"eval_g": 3, "apply_dg": 5, "adjoint_dg": 4, "apply_hess_lagrangian": 10}),
            ("near-beta", "corrected-lm",
             {"eval_g": 4, "apply_dg": 10, "adjoint_dg": 5, "apply_hess_lagrangian": 15}),
        ],
    )
    def test_one_solver_iteration_reads_each_frame_once(self, start, kind, calls):
        # one frame per point state: at the start, at the corrected point
        # when the correction is tried, and at the accepted point; each
        # reads m apply_hess_lagrangian, and m apply_dg unless it keeps
        # the x of the frame before it (the corrected point and a normal
        # step's point do).  normal_dirs reads dg(F1) from the frame's
        # stack, not from the problem.  g is evaluated once per point: a
        # line-search trial's residual reuses the g(x) of its retraction
        problem, z_bar = degenerate_fixture()
        z0 = point(np.zeros(5), np.zeros((4, 4))) if start == "zeros" else _near_beta_start()
        counting = CountingProblem(problem)
        result = sgn_solve(counting, z0, SolverConfig(max_iter=1))
        assert [rec.step_kind for rec in result.trace] == [kind]
        assert counting.calls == calls

    def test_correction_attempt_reads_no_apply_dg(self):
        # the corrected point keeps x, so its frame rotates the start
        # frame's unrotated stack instead of calling apply_dg again, and
        # gets the stack a fresh read gives, bit for bit
        problem, _ = degenerate_fixture()
        counting = CountingProblem(problem)
        config = SolverConfig()
        state = _point_state(counting, _near_beta_start(), config)
        z_hat = correct(state.jac.frame.z, state.res.ied, config.delta)
        before = counting.calls["apply_dg"]
        corrected = _point_state(counting, z_hat, config, prior=state.jac.frame)
        assert counting.calls["apply_dg"] == before
        fresh = _point_state(problem, z_hat, config)
        assert np.array_equal(corrected.jac.frame.stack, fresh.jac.frame.stack)
        # over a whole solve only the start and the LM steps, which move
        # x, read the stack
        counting = CountingProblem(problem)
        kinds = [rec.step_kind for rec in sgn_solve(counting, _near_beta_start()).trace]
        assert kinds[0] == "corrected-lm"
        moves = sum(kind in ("lm", "corrected-lm") for kind in kinds)
        assert counting.calls["apply_dg"] == problem.m * (1 + moves)

    def test_armijo_search_evaluates_g_once_per_trial(self):
        # j backtracks make j + 1 trials; each retraction evaluates g once
        # and hands it to the trial's residual
        counting = CountingProblem(Oscillatory())
        config = SolverConfig()
        z = point([0.3], [[0.7]])
        backtracks = []
        for _ in range(40):
            res = residual(counting, z)
            state = _point_state(counting, z, config, res)
            dphi = float(state.pulled @ state.v_lm.as_vec())
            if not dphi < 0:
                break
            counting.calls["eval_g"] = 0
            z, _, j = armijo_search(res, state.v_lm, dphi, config)
            assert counting.calls["eval_g"] == j + 1
            backtracks.append(j)
        assert max(backtracks) >= 2

    def test_frame_reads_no_apply_dg_after_its_stack(self):
        # the Jacobian, J^T r, the LM and normal steps and every check
        # read the rotated stack; none goes back to apply_dg
        problem, z = corrected_random_point(np.random.default_rng(5), 4, 5, n_zero=2)
        counting = CountingProblem(problem)
        state = _point_state(counting, z, SolverConfig())
        frame = state.jac.frame
        assert counting.calls["apply_dg"] == problem.m
        assert state.jac.matrix.shape[1] == frame.dim
        for check in (check_wsoc, check_wsrcq, check_cn, check_ssosc,
                      check_sonc_heuristic, check_srcq_heuristic, injectivity_margin):
            check(frame)
        slmn(state, SolverConfig())
        assert counting.calls["apply_dg"] == problem.m

    def test_second_assembly_on_a_frame_reads_nothing(self):
        problem, z = corrected_random_point(np.random.default_rng(4), 4, 5, n_zero=2)
        counting = CountingProblem(problem)
        frame = TangentFrame(counting, z, residual(problem, z).ied)
        first = assemble_dF(frame).matrix
        before = dict(counting.calls)
        assert np.array_equal(assemble_dF(frame).matrix, first)
        assert counting.calls == before


class TestStack:
    @pytest.mark.parametrize("n, m", [(3, 0), (5, 4)])
    def test_affine_stack_is_the_default_stack(self, n, m):
        # the affine override returns A_1..A_m, bit for bit what the
        # default's m apply_dg calls give
        problem, z = corrected_random_point(np.random.default_rng(n + m), n, m)
        stack = problem.dg_stack(z.x)
        assert stack.shape == (m, n, n)
        assert np.array_equal(stack, NlsdpProblem.dg_stack(problem, z.x))
        ied = make_ied(big_g(problem, z))
        assert np.array_equal(
            TangentFrame(problem, z, ied).stack,
            TangentFrame(CountingProblem(problem), z, ied).stack,
        )

    def test_m_zero(self):
        problem, z = corrected_random_point(np.random.default_rng(0), 3, 0)
        at = TangentFrame(problem, z, make_ied(big_g(problem, z))).stack
        assert at.shape == (0, 3, 3)

    def test_rotation_and_symmetry(self):
        problem, z = corrected_random_point(np.random.default_rng(1), 5, 4)
        ied = make_ied(big_g(problem, z))
        at = TangentFrame(problem, z, ied).stack
        for i in range(problem.m):
            a_i = problem.apply_dg(z.x, np.eye(problem.m)[i])
            assert np.allclose(at[i], ied.basis.T @ a_i @ ied.basis, atol=1e-14)
        assert np.array_equal(at, at.transpose(0, 2, 1))


@settings(max_examples=60, deadline=None)
@given(stratum_points())
def test_coords_are_an_isometry(case):
    # the residual in the frame's rows has the norm of F, whichever
    # eigenbasis the frame drew
    problem, z, ied = case
    res = residual(problem, z)
    coords = TangentFrame(problem, z, ied).coords(res)
    norm = np.linalg.norm(residual_vec(res))
    assert coords.shape == (problem.m + ied.n * (ied.n + 1) // 2,)
    assert abs(np.linalg.norm(coords) - norm) <= 1e-14 * max(1.0, norm)
    assert abs(res.norm - norm) <= 1e-14 * max(1.0, norm)


@settings(max_examples=60, deadline=None)
@given(stratum_points())
def test_jacobian_matches_column_reference(case):
    problem, z, ied = case
    assert ied.n_beta > 0
    frame = TangentFrame(problem, z, ied)
    jac = assemble_dF(frame).matrix
    ref = assemble_dF_by_columns(problem, z, frame).matrix
    # the reference's matrix rows, rotated into the frame's eigenbasis
    m, basis = problem.m, ied.basis
    mats = vec_to_sym(ref[m:].T, ied.n)
    ref = np.vstack([ref[:m], sym_to_vec(basis.T @ mats @ basis).T])
    assert jac.shape == ref.shape
    assert np.linalg.norm(jac - ref) <= REL * max(1.0, np.linalg.norm(ref))


def _assert_blocks_match_dense(jac, seed):
    dense = jac.matrix
    gram = dense.T @ dense
    assert jac.gram.shape == gram.shape
    assert np.linalg.norm(jac.gram - gram) <= REL * max(1.0, np.linalg.norm(gram))
    w = np.random.default_rng(seed).standard_normal(dense.shape[0])
    pulled = dense.T @ w
    assert np.linalg.norm(jac.apply_adjoint(w) - pulled) <= REL * max(
        1.0, np.linalg.norm(pulled)
    )


@settings(max_examples=60, deadline=None)
@given(stratum_points(), st.integers(0, 2**16))
def test_normal_equations_match_dense_products(case, seed):
    problem, z, ied = case
    _assert_blocks_match_dense(assemble_dF(TangentFrame(problem, z, ied)), seed)


def _point_with_g(problem, target, seed):
    """A point at a random x whose G(z) is ``target``."""
    x = np.random.default_rng(seed).standard_normal(problem.m)
    return point(x, target - problem.eval_g(x))


@pytest.mark.parametrize(
    "n, m, p, q",
    [(4, 0, 1, 1), (3, 4, 0, 0), (5, 6, 0, 2), (5, 6, 2, 0), (4, 3, 4, 0), (4, 3, 0, 4)],
    ids=["m-zero", "T-zero", "p-zero", "q-zero", "no-beta", "all-gamma"],
)
def test_normal_equations_match_dense_products_at_the_edges(n, m, p, q):
    rng = np.random.default_rng(n + 10 * m + 100 * p + 1000 * q)
    problem = random_problem(rng, n, m)
    z = _point_with_g(problem, stratum_matrix(rng, n, p, q), seed=m)
    frame = TangentFrame(problem, z, make_ied(big_g(problem, z)))
    assert (frame.ied.p, frame.ied.q) == (p, q)
    if (p, q) == (0, 0):
        assert frame.dim_tangent == 0
    _assert_blocks_match_dense(assemble_dF(frame), seed=0)


def _assert_structured_solve_matches_qr(jac, r, mu):
    # within 10x of the dense Cholesky solve's error against QR, or of the
    # problem's first-order error bound, which the QR reference itself
    # only meets: where J is rank deficient the dense solve and QR can
    # share an error the structured solve does not make
    errors = lm_solve_errors(jac, r, mu)
    if errors is not None:
        err, err_dense, bound = errors
        assert err <= 10.0 * max(err_dense, bound), (mu, err, err_dense, bound)


@settings(max_examples=60, deadline=None)
@given(stratum_points(), st.sampled_from([1e-12, 1e-8, 1e-4, 1.0, 1e4]))
def test_structured_solve_matches_qr(case, mu):
    problem, z, ied = case
    frame = TangentFrame(problem, z, ied)
    assume(frame.dim > 0)
    try:
        _assert_structured_solve_matches_qr(
            assemble_dF(frame), frame.coords(residual(problem, z)), mu
        )
    except np.linalg.LinAlgError:
        assume(False)  # no dense error to compare with


@pytest.mark.parametrize(
    "m, eigenvalues",
    [
        (0, [1.0, 0.0, -0.5, -2.0]),
        (4, [0.0, 0.0, 0.0]),
        (6, [2.0, 1.0, 0.5, 0.0, 0.0]),
        (6, [0.0, 0.0, -0.7, -1.5, -2.0]),
        (3, [-0.5, -1.0, -1.5, -2.0]),
        (3, [0.5, 1.0, 1.5, 2.0]),
        (5, [2.0, 0.01, 0.003, 0.0, -1.0, -3.0]),
    ],
    ids=["m-zero", "T-zero", "no-zero-xi", "no-large-xi", "all-gamma", "all-alpha",
         "small-xi-core"],
)
def test_structured_solve_at_the_edges(m, eigenvalues):
    n = len(eigenvalues)
    rng = np.random.default_rng(n + 10 * m)
    problem = random_problem(rng, n, m)
    basis = haar_orthogonal(rng, n)
    target = sym(basis @ (np.array(eigenvalues)[:, None] * basis.T))
    z = _point_with_g(problem, target, seed=m)
    frame = TangentFrame(problem, z, make_ied(big_g(problem, z)))
    jac = assemble_dF(frame)
    if jac.xi_t.size:
        assert np.any(jac.xi_t**2 > LARGE_XI_SQ) == (eigenvalues[0] > 0)
        assert np.any(jac.xi_t == 0.0) == (eigenvalues[-1] < 0)
    r = frame.coords(residual(problem, z))
    for mu in (1e-12, 1e-8, 1e-4, 1.0, 1e4):
        _assert_structured_solve_matches_qr(jac, r, mu)


@settings(max_examples=60, deadline=None)
@given(stratum_points())
def test_regularity_margins_match_loop_reference(case):
    problem, z, ied = case
    frame = TangentFrame(problem, z, ied)
    for include_bb in (True, False):
        rows = _constraint_rows(frame, include_bb)
        ref_rows = constraint_rows(problem, z, ied, include_bb)
        assert rows.shape == ref_rows.shape
        scale = max(1.0, np.abs(ref_rows).max(initial=0.0))
        assert np.allclose(rows, ref_rows, rtol=0.0, atol=REL * scale)
    pairs = [
        (check_wsrcq(frame), span_margin(problem, z, ied, include_bb=True)),
        (check_cn(frame), span_margin(problem, z, ied, include_bb=False)),
        (check_wsoc(frame), second_order_margin(problem, z, ied, True, True)),
        (check_ssosc(frame), second_order_margin(problem, z, ied, False, False)),
    ]
    for result, ref in pairs:
        assert _close(result.margin, ref), (result.margin, ref)
        assert result.verdict == _verdict(ref)


def _equal_constraints(rng, n, m):
    """``random_problem`` with its first two constraint matrices equal."""
    problem = random_problem(rng, n, m)
    mats = problem.a.copy()
    mats[1] = mats[0]
    return AffineQuadraticProblem(c=problem.c, a0=problem.a0, a_list=mats, quad=problem.quad)


@pytest.mark.parametrize(
    "n, m, p, q, build",
    [
        (4, 1, 1, 2, random_problem),       # k > m for both checks
        (3, 6, 0, 2, random_problem),       # |F| <= m: C_F is the core's top block
        (4, 3, 4, 0, random_problem),       # G positive definite, |F| > m: margin 1
        (4, 3, 2, 1, _equal_constraints),   # rank-deficient C_F
    ],
    ids=["k-above-m", "free-at-most-m", "positive-definite", "equal-constraints"],
)
def test_regularity_margins_match_loop_reference_at_the_edges(n, m, p, q, build):
    rng = np.random.default_rng(n + 10 * m + 100 * p + 1000 * q)
    problem = build(rng, n, m)
    z = _point_with_g(problem, stratum_matrix(rng, n, p, q), seed=m)
    ied = make_ied(big_g(problem, z))
    assert (ied.p, ied.q) == (p, q)
    test_regularity_margins_match_loop_reference.hypothesis.inner_test((problem, z, ied))
    if p == n:
        frame = TangentFrame(problem, z, ied)
        assert check_wsrcq(frame).margin == check_cn(frame).margin == 1.0


def test_regularity_margins_match_loop_reference_without_constraints():
    # m = 0: the core is empty for W-SRCQ (margin 1), and CN has k = 1 > m
    problem, z = _no_constraints()
    ied = make_ied(big_g(problem, z))
    test_regularity_margins_match_loop_reference.hypothesis.inner_test((problem, z, ied))
    frame = TangentFrame(problem, z, ied)
    assert (check_wsrcq(frame).margin, check_cn(frame).margin) == (1.0, 0.0)


def _off_complementarity():
    rng = np.random.default_rng(7)
    problem = random_problem(rng, 4, 5)
    return problem, random_point(rng, problem)


def _no_constraints():
    # m = 0: G = A0 = diag(2, 0) is PSD, so the point is complementary
    problem = AffineQuadraticProblem(c=np.zeros(0), a0=np.diag([2.0, 0.0]), a_list=[])
    return problem, point(np.zeros(0), np.zeros((2, 2)))


def _zero_constraints():
    # m > 0 with every constraint matrix zero: the range has rank 0
    problem = AffineQuadraticProblem(
        c=np.zeros(2), a0=np.diag([2.0, 0.0, 0.0]), a_list=[np.zeros((3, 3))] * 2
    )
    return problem, point(np.zeros(2), np.zeros((3, 3)))


@pytest.mark.parametrize(
    "build, rotation",
    [
        (degenerate_fixture, None),
        (degenerate_fixture, 0),
        (degenerate_fixture, 1),
        (lambda: synth_nondegenerate(seed=4000, n=5, m=6), None),
        (lambda: synth_nondegenerate(seed=4001, n=5, m=6), 2),
        (lambda: synth_nondegenerate(seed=3, n=5, m=6), 3),
        (_off_complementarity, None),
        (_no_constraints, None),
        (_zero_constraints, None),
        (_zero_constraints, 0),
        (lambda: synth_nondegenerate(seed=5013, n=5, m=6), None),
        (lambda: synth_nondegenerate(seed=4003, n=5, m=6), None),
        (lambda: synth_nondegenerate(seed=4101, n=20, m=30), None),
        (lambda: synth_nondegenerate(seed=5200, n=5, m=6), None),
    ],
    ids=["fixture", "fixture-rot0", "fixture-rot1", "synth4000", "synth4001-rot2",
         "synth3-rot3", "not-applicable", "m-zero", "zero-constraints",
         "zero-constraints-rot0", "synth5013-decisive-at-1", "synth4003-decisive-at-0",
         "synth4101-n20", "synth5200-decisive-together"],
)
def test_srcq_probe_matches_full_matrix_reference(build, rotation, monkeypatch):
    problem, z = build()
    ied = make_ied(big_g(problem, z))
    if rotation is not None:
        ied = rotate_within_eigenspaces(ied, rotation)
    # the beta-beta projections count the alternations each probe runs: a
    # stacked projection counts one per block, the reference logs each
    # restart's projections
    stacks, log = [], []
    original = sgnsdp.regularity.nsd_part

    def counted(block):
        stacks.append(block.shape[0])
        return original(block)

    monkeypatch.setattr(sgnsdp.regularity, "nsd_part", counted)
    result = check_srcq_heuristic(TangentFrame(problem, z, ied))
    verdict, margin = srcq_probe(problem, z, ied, seed=SAMPLING_SEED, log=log)
    assert result.verdict == verdict
    if verdict == NOT_APPLICABLE:
        assert np.isnan(result.margin) and np.isnan(margin)
    else:
        assert abs(result.margin - margin) <= 1e-12, (result.margin, margin)
    if ied.n_beta == 0:
        assert stacks == []
        return
    # the stack runs while the longest restart of the sequential probe runs
    assert len(stacks) == max(log, default=0)
    if verdict == HEURISTIC_HOLDS:
        # no restart was decisive: each ran exactly its sequential alternations
        assert sum(stacks) == sum(log)
    else:
        # restarts after the decisive one ran until it was found, then dropped
        assert sum(stacks) >= sum(log)


def test_srcq_probe_decomposes_once_per_alternation(monkeypatch):
    problem, z = synth_nondegenerate(seed=4101, n=20, m=30)
    calls = []
    original = sgnsdp.spectral.eig_sym

    def counted(a):
        calls.append(np.shape(a))
        return original(a)

    monkeypatch.setattr(sgnsdp.spectral, "eig_sym", counted)
    ied = make_ied(big_g(problem, z))
    calls.clear()
    result = check_srcq_heuristic(TangentFrame(problem, z, ied))
    assert result.verdict == HEURISTIC_HOLDS
    assert len(calls) <= SRCQ_ITERATIONS + 1
    assert calls[0] == (20, ied.n_beta, ied.n_beta)  # all 20 restarts in one stack


@st.composite
def kkt_pairs(draw):
    """(problem, z, ied): a synth (n, m) reference pair, n <= 6, in a
    random eigenbasis within clusters half the time."""
    n = draw(st.integers(3, 6))
    m = draw(st.integers(n, 2 * n + 2))
    try:
        problem, z = synth_nondegenerate(seed=draw(st.integers(0, 2**31)), n=n, m=m)
    except ConstructionFailure:
        assume(False)
    ied = make_ied(big_g(problem, z))
    if draw(st.booleans()):
        ied = rotate_within_eigenspaces(ied, draw(st.integers(0, 2**16)))
    return problem, z, ied


@settings(max_examples=15, deadline=None)
@given(kkt_pairs())
def test_srcq_probe_matches_reference_on_random_instances(case):
    problem, z, ied = case
    result = check_srcq_heuristic(TangentFrame(problem, z, ied))
    verdict, margin = srcq_probe(problem, z, ied, seed=SAMPLING_SEED)
    assert result.verdict == verdict
    if verdict != NOT_APPLICABLE:
        assert abs(result.margin - margin) <= 1e-12, (result.margin, margin)


def _beta_block_in_range():
    """KKT pair with G = Q diag(1, 0, 0) Q^T whose constraints span exactly
    the rotated beta-beta block: m = 3 < n(n+1)/2 = 6."""
    basis = haar_orthogonal(np.random.default_rng(0), 3)
    mats = []
    for k, l in ((1, 1), (1, 2), (2, 2)):
        e = np.zeros((3, 3))
        e[k, l] = e[l, k] = 1.0
        mats.append(basis @ e @ basis.T)
    a0 = basis @ np.diag([1.0, 0.0, 0.0]) @ basis.T
    problem = AffineQuadraticProblem(c=np.zeros(3), a0=a0, a_list=mats, quad=np.eye(3))
    return problem, point(np.zeros(3), np.zeros((3, 3)))


@pytest.mark.parametrize(
    "build",
    [_beta_block_in_range, lambda: synth_nondegenerate(seed=1, n=3, m=6)],
    ids=["beta-block-in-range", "range-is-everything"],
)
def test_srcq_alignment_is_zero_when_the_range_holds_the_polar_cone(build):
    # the null space meets the polar cone only at 0, so the alignment is 0
    # up to rounding, not the 1e-8 that sqrt(1 - |c|^2) would leave
    problem, z = build()
    ied = make_ied(big_g(problem, z))
    result = check_srcq_heuristic(TangentFrame(problem, z, ied))
    verdict, margin = srcq_probe(problem, z, ied, seed=SAMPLING_SEED)
    assert result.verdict == verdict == HEURISTIC_HOLDS
    assert 0.0 <= result.margin <= 1e-12 and margin <= 1e-12
    if margin == 0.0:  # a trivial null space reads exactly 0
        assert result.margin == 0.0
