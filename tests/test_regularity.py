import numpy as np
import pytest
import scipy.linalg.lapack
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from support import (
    degenerate_fixture_curve,
    error_bound_probe,
    frame_at,
    haar_orthogonal,
    pair_mask,
    point_distance,
    random_point,
    random_problem,
    rotate_within_eigenspaces,
)

import sgnsdp.regularity
from sgnsdp.errors import ConstructionFailure
from sgnsdp.kkt import TangentFrame, assemble_dF, big_g, residual
from sgnsdp.model import (
    AffineQuadraticProblem,
    PrimalDualPoint,
    degenerate_fixture,
    synth_nondegenerate,
)
from sgnsdp.regularity import (
    DEFAULT_MARGIN_TOL,
    FAILS,
    HEURISTIC_FAILS,
    HEURISTIC_HOLDS,
    HOLDS,
    NOT_APPLICABLE,
    RANK_TOL,
    SRCQ_ALIGNMENT_TOL,
    ConditionResult,
    app_basis,
    appl_basis,
    check_cn,
    check_sonc,
    check_sonc_heuristic,
    check_srcq,
    check_srcq_heuristic,
    check_ssosc,
    check_wsoc,
    check_wsrcq,
    diagnose,
    injectivity_margin,
    quad_form_matrix,
)
from sgnsdp.spectral import make_ied, sym, sym_to_vec, vec_to_sym

# pinned after first computation at the degenerate fixture's solution
SIGMA_MIN_REFERENCE = 0.40753645318366233
ERROR_BOUND_REFERENCE = 1.063920967319316  # radius 1e-3, 500 samples, seed 0


def constant_g_fixture(quad_diag, n=4, p=1, q=1, seed=0):
    """KKT pair of a constant-constraint problem: dg vanishes identically.

    A0 is PSD of rank p, the multiplier is NSD of rank q on A0's kernel,
    so beta and gamma are nonempty and every span condition fails.
    """
    rng = np.random.default_rng(seed)
    basis = haar_orthogonal(rng, n)
    lam_a0 = np.zeros(n)
    lam_a0[:p] = rng.uniform(0.5, 2.0, size=p)
    a0 = sym(basis @ (lam_a0[:, None] * basis.T))
    lam_y = np.zeros(n)
    lam_y[n - q :] = -rng.uniform(0.5, 2.0, size=q)
    y_star = sym(basis @ (lam_y[:, None] * basis.T))
    m = len(quad_diag)
    problem = AffineQuadraticProblem(
        c=np.zeros(m),
        a0=a0,
        a_list=[np.zeros((n, n)) for _ in range(m)],
        quad=np.diag(quad_diag),
    )
    return problem, PrimalDualPoint(x=np.zeros(m), y=y_star)


class TestSubspaces:
    def test_reference_dimensions(self):
        problem, z_bar = degenerate_fixture()
        assert appl_basis(frame_at(problem, z_bar)).shape == (5, 1)
        assert app_basis(frame_at(problem, z_bar)).shape == (5, 2)

    def test_reference_appl_direction(self):
        problem, z_bar = degenerate_fixture()
        basis = appl_basis(frame_at(problem, z_bar))
        target = np.array([0.0, 0.0, 0.0, 1.0, 1.0]) / np.sqrt(2.0)
        overlap = abs(basis[:, 0] @ target)
        assert np.isclose(overlap, 1.0, atol=1e-12)

    def test_full_rank_point_gives_full_space(self):
        rng = np.random.default_rng(1)
        problem = random_problem(rng, 4, 3)
        z = random_point(rng, problem)
        assert residual(problem, z).ied.n_beta == 0 or True
        ied = make_ied(big_g(problem, z))
        if ied.n_beta == 0 and ied.q == 0:
            assert appl_basis(TangentFrame(problem, z, ied)).shape == (3, 3)

    def test_vanishing_dg_gives_full_space(self):
        problem, z = constant_g_fixture([1.0, 1.0])
        assert appl_basis(frame_at(problem, z)).shape == (2, 2)
        assert app_basis(frame_at(problem, z)).shape == (2, 2)

    def test_app_contains_appl(self):
        rng = np.random.default_rng(2)
        for seed in range(5):
            problem, z_star = synth_nondegenerate(seed=seed, n=5, m=7)
            small = appl_basis(frame_at(problem, z_star))
            big = app_basis(frame_at(problem, z_star))
            assert small.shape[1] <= big.shape[1]
            # each appl direction lies in the span of app
            proj = big @ (big.T @ small)
            assert np.allclose(proj, small, atol=1e-10)


class TestQuadForm:
    def test_constant_g_identity(self):
        problem, z = constant_g_fixture([1.0, 1.0])
        ied = make_ied(big_g(problem, z))
        frame = TangentFrame(problem, z, ied)
        form = quad_form_matrix(frame, appl_basis(frame))
        assert np.allclose(form, np.eye(2), atol=1e-12)

    def test_reference_value(self):
        problem, z_bar = degenerate_fixture()
        ied = make_ied(big_g(problem, z_bar))
        frame = TangentFrame(problem, z_bar, ied)
        form = quad_form_matrix(frame, appl_basis(frame))
        assert form.shape == (1, 1)
        assert np.isclose(form[0, 0], 4.0, atol=1e-12)

    def test_no_curvature_term_without_gamma(self):
        rng = np.random.default_rng(3)
        problem, z_star = synth_nondegenerate(seed=1, n=4, m=4)
        big = big_g(problem, z_star)
        shifted = PrimalDualPoint(x=z_star.x, y=z_star.y - big)  # G = 0: alpha empty
        ied = make_ied(np.zeros((4, 4)))
        basis = np.eye(4)[:, :2]
        form = quad_form_matrix(TangentFrame(problem, shifted, ied), basis)
        expected = basis.T @ problem.quad @ basis
        assert np.allclose(form, expected, atol=1e-12)


class TestConditionCheckers:
    def test_reference_verdicts(self):
        problem, z_bar = degenerate_fixture()
        frame = frame_at(problem, z_bar)
        assert check_wsoc(frame).verdict == HOLDS
        assert check_wsrcq(frame).verdict == HOLDS
        assert check_cn(frame).verdict == FAILS
        assert check_ssosc(frame).verdict == FAILS

    def test_vacuous_holds_with_sentinel(self):
        # the gamma-gamma constraint pins the only primal direction down
        problem = AffineQuadraticProblem(
            c=[0.0], a0=np.diag([1.0, -1.0]), a_list=[np.diag([0.0, 1.0])]
        )
        z = PrimalDualPoint(x=np.zeros(1), y=np.zeros((2, 2)))
        assert appl_basis(frame_at(problem, z)).shape == (1, 0)
        result = check_wsoc(frame_at(problem, z))
        assert result.verdict == HOLDS and result.margin == np.inf
        assert check_ssosc(frame_at(problem, z)).margin == np.inf

    def test_mixed_signs_fail_wsoc(self):
        problem, z = constant_g_fixture([1.0, -1.0])
        result = check_wsoc(frame_at(problem, z))
        assert result.verdict == FAILS
        assert result.margin < 0

    def test_negative_definite_still_holds_wsoc(self):
        # sign-definiteness, not positivity, is what the weak form asks
        problem, z = constant_g_fixture([-1.0, -2.0])
        assert check_wsoc(frame_at(problem, z)).verdict == HOLDS
        assert check_ssosc(frame_at(problem, z)).verdict == FAILS

    def test_constant_g_fails_span_conditions(self):
        problem, z = constant_g_fixture([1.0, 1.0])
        assert check_wsrcq(frame_at(problem, z)).verdict == FAILS
        assert check_cn(frame_at(problem, z)).verdict == FAILS

    def test_full_rank_g_matches_cn_and_wsrcq(self):
        # with an empty beta block the two span conditions coincide
        rng = np.random.default_rng(4)
        for _ in range(5):
            problem = random_problem(rng, 3, 7)
            z = random_point(rng, problem)
            ied = make_ied(big_g(problem, z))
            if ied.n_beta:
                continue
            a = check_wsrcq(TangentFrame(problem, z, ied))
            b = check_cn(TangentFrame(problem, z, ied))
            assert a.verdict == b.verdict
            assert np.isclose(a.margin, b.margin, rtol=1e-10)

    def test_surjective_dg_everything_holds(self):
        rng = np.random.default_rng(5)
        n = 2
        mats = []
        for k in range(n):
            for l in range(k, n):
                e = np.zeros((n, n))
                e[k, l] = e[l, k] = 1.0
                mats.append(e)
        problem = AffineQuadraticProblem(
            c=np.zeros(3), a0=np.diag([1.0, 0.0]), a_list=mats, quad=np.eye(3)
        )
        z = PrimalDualPoint(x=np.zeros(3), y=np.zeros((n, n)))
        assert check_wsrcq(frame_at(problem, z)).verdict == HOLDS
        assert check_cn(frame_at(problem, z)).verdict == HOLDS

    def test_ssosc_holds_on_definite_interior(self):
        # Q positive definite, G positive definite: app = R^m, form = Q
        rng = np.random.default_rng(6)
        problem = random_problem(rng, 3, 4, spd_quad=True)
        z = PrimalDualPoint(
            x=np.zeros(4), y=np.eye(3) * 5.0 - problem.eval_g(np.zeros(4))
        )
        ied = make_ied(big_g(problem, z))
        assert ied.q == 0 and ied.n_beta == 0
        assert check_ssosc(frame_at(problem, z)).verdict == HOLDS

    def test_span_checks_factor_cores_of_order_at_most_2m(self, monkeypatch):
        # at (30, 40) X = [C | E_F] has 465 rows; the margins must come
        # from SVDs of order at most 2m = 80
        problem, z = synth_nondegenerate(seed=4200, n=30, m=40)
        frame = frame_at(problem, z)
        assert frame.stack.shape == (40, 30, 30)  # built outside the spies
        shapes = []
        for owner, name in ((np.linalg, "svd"), (scipy.linalg.lapack, "dgesdd")):
            def spy(a, *args, _real=getattr(owner, name), **kwargs):
                shapes.append(np.shape(a))
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(owner, name, spy)
        results = [check_wsrcq(frame), check_cn(frame)]
        assert all(result.verdict == HOLDS for result in results)
        assert len(shapes) >= 2
        assert all(rows <= 2 * problem.m and cols <= 2 * problem.m for rows, cols in shapes)


class TestHeuristics:
    def test_sonc_convex_case(self):
        problem, z = constant_g_fixture([1.0, 2.0], q=0)
        result = check_sonc_heuristic(frame_at(problem, z))
        assert result.verdict == HEURISTIC_HOLDS
        assert result.margin >= 0.0

    def test_sonc_zero_form(self):
        problem, z = constant_g_fixture([0.0, 0.0], q=0)
        result = check_sonc_heuristic(frame_at(problem, z))
        assert result.verdict == HEURISTIC_HOLDS
        assert result.margin == pytest.approx(0.0, abs=1e-12)

    def test_sonc_detects_negative_curvature(self):
        problem, z = constant_g_fixture([-1.0, -1.0], q=0)
        result = check_sonc_heuristic(frame_at(problem, z))
        assert result.verdict == HEURISTIC_FAILS

    def test_srcq_reference_fails(self):
        problem, z_bar = degenerate_fixture()
        result = check_srcq_heuristic(frame_at(problem, z_bar))
        assert result.verdict == HEURISTIC_FAILS

    def test_srcq_synth_holds(self):
        problem, z_star = synth_nondegenerate(seed=3, n=5, m=6)
        result = check_srcq_heuristic(frame_at(problem, z_star))
        assert result.verdict == HEURISTIC_HOLDS
        assert result.margin < 1.0 - 1e-4

    def test_srcq_not_applicable_off_complementarity(self):
        rng = np.random.default_rng(7)
        problem = random_problem(rng, 4, 5)
        z = random_point(rng, problem)
        assert residual(problem, z).norm > 1e-3
        result = check_srcq_heuristic(frame_at(problem, z))
        assert result.verdict == NOT_APPLICABLE


class TestInjectivity:
    def test_reference_frozen(self):
        problem, z_bar = degenerate_fixture()
        margin = injectivity_margin(frame_at(problem, z_bar))
        assert margin == pytest.approx(SIGMA_MIN_REFERENCE, rel=1e-9)
        assert margin > 1e-6

    def test_degenerate_point_near_zero(self):
        problem, z = constant_g_fixture([1.0, 1.0])
        assert injectivity_margin(frame_at(problem, z)) <= 1e-8

    def test_consistency_with_weak_pair(self):
        # injectivity of the on-stratum differential iff W-SOC plus W-SRCQ
        margin_tol = 1e-8
        checked = 0
        fixtures = []
        for seed in range(12):
            fixtures.append(synth_nondegenerate(seed=100 + seed, n=5, m=6))
        fixtures.append(constant_g_fixture([1.0, 1.0]))
        fixtures.append(constant_g_fixture([1.0, -1.0]))
        fixtures.append(constant_g_fixture([-1.0, -1.0]))
        for problem, z in fixtures:
            frame = frame_at(problem, z)
            wsoc = check_wsoc(frame)
            wsrcq = check_wsrcq(frame)
            sigma = injectivity_margin(frame)
            margins = [abs(wsoc.margin), wsrcq.margin, sigma]
            if any(margin_tol / 10 <= m <= margin_tol * 10 for m in margins):
                continue
            checked += 1
            assert (wsoc.holds and wsrcq.holds) == (sigma > margin_tol)
        assert checked >= 12


class TestLapackCalls:
    """The diagnose factorizations call LAPACK with the workspace it asks
    for, which gives numpy's results to the bit."""

    def test_right_singular_equals_numpy_svd(self):
        rng = np.random.default_rng(0)
        for cols in range(1, 50, 4):
            for rows in (1, cols, cols + 3, 2 * cols + 5):
                mat = rng.standard_normal((rows, cols))
                for full in (True, False):
                    vt, rank = sgnsdp.regularity._right_singular(mat, full)
                    _, svals, vt_np = np.linalg.svd(mat, full_matrices=full)
                    assert np.array_equal(vt, vt_np)
                    assert rank == np.sum(svals > RANK_TOL * svals[0])

    def test_eigenvalues_equal_numpy_eigvalsh(self):
        rng = np.random.default_rng(1)
        for n in range(1, 50, 2):
            mat = sym(rng.standard_normal((n, n)))
            assert np.array_equal(sgnsdp.regularity._eigvalsh(mat), np.linalg.eigvalsh(mat))

    def test_sigma_min_equals_numpy_svd(self):
        for seed, (n, m) in enumerate([(4, 5), (5, 6), (20, 30)]):
            problem, z = synth_nondegenerate(seed=300 + seed, n=n, m=m)
            jac = assemble_dF(frame_at(problem, z))
            assert jac.sigma_min() == np.linalg.svd(jac.matrix, compute_uv=False)[-1]


class TestStructuralImplications:
    def test_cn_implies_wsrcq_and_ssosc_implies_wsoc(self):
        rng = np.random.default_rng(8)
        fixtures = [synth_nondegenerate(seed=s, n=5, m=6) for s in range(4)]
        fixtures += [
            (random_problem(rng, 4, 5), None) for _ in range(6)
        ]
        for problem, z in fixtures:
            if z is None:
                z = random_point(rng, problem)
            report = diagnose(problem, z)
            if report.constraint_nondegeneracy.holds:
                assert report.w_srcq.holds
            if report.s_sosc.holds:
                assert report.w_soc.holds


class TestSynthReport:
    def test_all_conditions_hold_at_construction(self):
        problem, z_star = synth_nondegenerate(seed=3, n=6, m=8)
        report = diagnose(problem, z_star)
        assert report.w_soc.verdict == HOLDS
        assert report.w_srcq.verdict == HOLDS
        assert report.constraint_nondegeneracy.verdict == HOLDS
        assert report.s_sosc.verdict == HOLDS
        # settled exactly: CN certifies SRCQ, the form on app certifies SONC
        assert report.sonc.verdict == HOLDS
        assert report.srcq.verdict == HOLDS
        assert report.sigma_min_dF > 1e-6


def complementary_pair(rng, n, p, n_beta, m, spd_quad):
    """Affine problem and a complementary pair z = (0, y) with G(z) of
    inertia (p, n_beta, n - p - n_beta) in a random eigenbasis.

    The objective data are random, so z need not be a KKT pair: only
    complementarity, which SRCQ asks for, holds.
    """
    basis = haar_orthogonal(rng, n)
    lam = np.zeros(n)
    lam[:p] = rng.uniform(0.5, 2.0, size=p)
    lam[p + n_beta :] = -rng.uniform(0.5, 2.0, size=n - p - n_beta)
    g_star = sym(basis @ (np.maximum(lam, 0.0)[:, None] * basis.T))
    y_star = sym(basis @ (np.minimum(lam, 0.0)[:, None] * basis.T))
    shape = random_problem(rng, n, m, spd_quad=spd_quad)
    problem = AffineQuadraticProblem(
        c=shape.c, a0=g_star, a_list=list(shape.a), quad=shape.quad
    )
    return problem, PrimalDualPoint(x=np.zeros(m), y=y_star)


@st.composite
def regularity_cases(draw):
    """(problem, z): a synth (n, m) KKT pair, n <= 6, or a complementary
    pair with |beta| <= 2, possibly indefinite Q, and m at most the
    number of trailing-block entries, so that CN often fails."""
    seed = draw(st.integers(0, 2**31))
    if draw(st.booleans()):
        n = draw(st.integers(3, 6))
        m = draw(st.integers(n, 2 * n + 2))
        try:
            return synth_nondegenerate(seed=seed, n=n, m=m)
        except ConstructionFailure:
            assume(False)
    n = draw(st.integers(2, 6))
    n_beta = draw(st.integers(0, min(2, n)))
    p = draw(st.integers(0, n - n_beta))
    trailing = n - p
    m = draw(st.integers(1, max(1, trailing * (trailing + 1) // 2)))
    spd_quad = draw(st.booleans())
    return complementary_pair(np.random.default_rng(seed), n, p, n_beta, m, spd_quad)


def settled(frame):
    """(W-SRCQ, CN, S-SOSC, SRCQ, SONC) at ``frame``, as diagnose forms them."""
    w_srcq, cn, s_sosc = check_wsrcq(frame), check_cn(frame), check_ssosc(frame)
    return w_srcq, cn, s_sosc, check_srcq(frame, w_srcq, cn), check_sonc(frame, s_sosc)


class TestSettledVerdicts:
    @pytest.fixture
    def sampler_calls(self, monkeypatch):
        calls = []
        for name in ("check_srcq_heuristic", "check_sonc_heuristic"):
            original = getattr(sgnsdp.regularity, name)

            def spy(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(sgnsdp.regularity, name, spy)
        return calls

    def test_no_sampler_runs_where_cn_and_the_form_decide(self, sampler_calls):
        problem, z_star = synth_nondegenerate(seed=3, n=6, m=8)
        report = diagnose(problem, z_star)
        assert sampler_calls == []
        assert report.srcq == report.constraint_nondegeneracy
        assert report.sonc == ConditionResult(HOLDS, report.s_sosc.margin)

    def test_the_probe_still_runs_at_the_fixture(self, sampler_calls):
        # CN fails with |beta| = 2 and W-SRCQ holds: no span check decides
        problem, z_bar = degenerate_fixture()
        report = diagnose(problem, z_bar)
        assert sampler_calls == ["check_srcq_heuristic"]
        assert report.srcq.verdict == HEURISTIC_FAILS
        assert report.sonc == ConditionResult(HOLDS, 0.0)  # lambda_min = 0 on app

    @pytest.mark.parametrize("seed, cn_margin", [(5011, 0.0033), (6014, 0.0101)])
    def test_cn_settles_srcq_where_the_probe_misreads_it(self, seed, cn_margin):
        # the probe reports heuristic-fails at these pairs, with alignments
        # 0.99999 and 0.99990: its sets meet almost tangentially
        problem, z_star = synth_nondegenerate(seed=seed, n=5, m=6)
        report = diagnose(problem, z_star)
        assert report.constraint_nondegeneracy.margin == pytest.approx(cn_margin, abs=1e-4)
        assert report.srcq.verdict == HOLDS
        assert report.srcq.margin == report.constraint_nondegeneracy.margin

    def test_srcq_not_applicable_off_complementarity(self):
        rng = np.random.default_rng(7)
        problem = random_problem(rng, 4, 5)
        z = random_point(rng, problem)
        srcq = settled(frame_at(problem, z))[3]
        assert srcq.verdict == NOT_APPLICABLE and np.isnan(srcq.margin)

    def test_report_echoes_its_tolerances(self):
        problem, z_star = synth_nondegenerate(seed=3, n=6, m=8)
        expected = {
            "margin_tol": DEFAULT_MARGIN_TOL,
            "rank_tol": RANK_TOL,
            "srcq_alignment_tol": SRCQ_ALIGNMENT_TOL,
        }
        doc = diagnose(problem, z_star, zero_tol=1e-7).to_dict()
        assert doc["tolerances"] == {"zero_tol": 1e-7, **expected}
        adaptive = make_ied(big_g(problem, z_star)).zero_tol
        doc = diagnose(problem, z_star).to_dict()
        assert doc["tolerances"] == {"zero_tol": adaptive, **expected}


@settings(max_examples=60, deadline=None)
@given(regularity_cases())
def test_settled_verdicts_follow_the_classical_implications(case):
    problem, z = case
    w_srcq, cn, s_sosc, srcq, sonc = settled(frame_at(problem, z))
    assert srcq.verdict != NOT_APPLICABLE  # every case is complementary
    if cn.holds:
        assert srcq.verdict == HOLDS
    if not w_srcq.holds:
        assert srcq.verdict == FAILS
    if s_sosc.holds:
        assert sonc.verdict == HOLDS


@settings(max_examples=40, deadline=None)
@given(regularity_cases(), st.integers(0, 2**16))
def test_settled_verdicts_do_not_change_under_rotation(case, rotation):
    problem, z = case
    ied = make_ied(big_g(problem, z))
    base = settled(TangentFrame(problem, z, ied))
    alt = settled(TangentFrame(problem, z, rotate_within_eigenspaces(ied, rotation)))
    for one, other in zip(base, alt):
        if one.verdict in (HEURISTIC_HOLDS, HEURISTIC_FAILS):
            continue
        assert one.verdict == other.verdict
        if np.isfinite(one.margin):
            assert np.isclose(one.margin, other.margin, atol=1e-8)


@st.composite
def small_beta_cn_failures(draw):
    """Complementary pairs with |beta| <= 1 and fewer constraints than
    trailing-block entries, so that CN fails."""
    n = draw(st.integers(2, 6))
    n_beta = draw(st.integers(0, 1))
    p = draw(st.integers(0, n - 2))
    trailing = n - p
    m = draw(st.integers(1, trailing * (trailing + 1) // 2 - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    return complementary_pair(rng, n, p, n_beta, m, draw(st.booleans()))


@settings(max_examples=60, deadline=None)
@given(small_beta_cn_failures())
def test_small_beta_failures_carry_a_certificate(case):
    # a nonzero D with dg* D = 0, zero alpha rows and D_bb <= 0 refutes SRCQ
    problem, z = case
    frame = frame_at(problem, z)
    ied = frame.ied
    trailing = pair_mask(ied, ("bb", "bg", "gg"))
    _, _, vt = np.linalg.svd(sym_to_vec(frame.stack)[:, trailing])
    coords = np.zeros(trailing.size)
    coords[trailing] = vt[-1]  # m < trailing.sum(): a null vector
    rotated = vec_to_sym(coords, ied.n)
    p, r = ied.p, ied.n - ied.q
    if r > p and rotated[p, p] > 0:
        rotated = -rotated
    d = ied.basis @ rotated @ ied.basis.T
    assert np.linalg.norm(d) == pytest.approx(1.0)
    assert np.linalg.norm(problem.adjoint_dg(z.x, d)) <= 1e-10
    assert np.linalg.norm(d @ ied.basis[:, :p]) <= 1e-12
    beta = ied.basis[:, p:r]
    assert np.all(np.linalg.eigvalsh(beta.T @ d @ beta) <= 1e-12)
    w_srcq, cn, _, srcq, _ = settled(frame)
    assert not cn.holds
    assert srcq.verdict == FAILS
    assert srcq.margin == (cn.margin if w_srcq.holds else w_srcq.margin)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 6), st.integers(0, 1), st.integers(0, 6), st.integers(1, 8),
    st.integers(0, 2**31),
)
def test_small_beta_sonc_failures_carry_a_direction(n, n_beta, p, m, seed):
    # with |beta| <= 1 the form's bottom eigenvector on app, signed to a
    # PSD beta-beta image, lies in the SONC cone and refutes SONC
    problem, z = complementary_pair(
        np.random.default_rng(seed), n, min(p, n - n_beta), n_beta, m, spd_quad=False
    )
    frame = frame_at(problem, z)
    s_sosc = check_ssosc(frame)
    sonc = check_sonc(frame, s_sosc)
    assert sonc.margin == s_sosc.margin
    assert sonc.verdict == (HOLDS if s_sosc.margin >= -DEFAULT_MARGIN_TOL else FAILS)
    if sonc.verdict == FAILS:
        p, r = frame.ied.p, frame.ied.n - frame.ied.q
        basis = app_basis(frame)
        v = basis @ np.linalg.eigh(quad_form_matrix(frame, basis))[1][:, 0]
        image = np.tensordot(v, frame.stack[:, p:r, p:r], axes=1)
        if np.any(image < 0):  # a scalar beta-beta block
            v, image = -v, -image
        assert np.all(image >= 0)
        assert quad_form_matrix(frame, v[:, None])[0, 0] < -DEFAULT_MARGIN_TOL


class TestIedInvariance:
    def test_verdicts_and_margins(self):
        problem, z_bar = degenerate_fixture()
        ied = make_ied(big_g(problem, z_bar))
        for seed in range(5):
            rotated = rotate_within_eigenspaces(ied, seed=seed)
            for checker in (check_wsoc, check_wsrcq, check_cn, check_ssosc):
                base = checker(TangentFrame(problem, z_bar, ied))
                alt = checker(TangentFrame(problem, z_bar, rotated))
                assert base.verdict == alt.verdict
                if np.isfinite(base.margin):
                    assert np.isclose(base.margin, alt.margin, atol=1e-8)
            assert np.isclose(
                injectivity_margin(TangentFrame(problem, z_bar, ied)),
                injectivity_margin(TangentFrame(problem, z_bar, rotated)),
                atol=1e-8,
            )

    def test_heuristic_verdicts_stable(self):
        # sampled margins move with the basis; the verdicts must not
        problem, z_bar = degenerate_fixture()
        ied = make_ied(big_g(problem, z_bar))
        base_sonc = check_sonc_heuristic(TangentFrame(problem, z_bar, ied))
        base_srcq = check_srcq_heuristic(TangentFrame(problem, z_bar, ied))
        for seed in range(3):
            rotated = rotate_within_eigenspaces(ied, seed=seed)
            alt_sonc = check_sonc_heuristic(TangentFrame(problem, z_bar, rotated))
            alt_srcq = check_srcq_heuristic(TangentFrame(problem, z_bar, rotated))
            assert alt_sonc.verdict == base_sonc.verdict
            assert alt_srcq.verdict == base_srcq.verdict


class TestErrorBoundProbe:
    def test_reference_constant_frozen_and_seed_stable(self):
        problem, z_bar = degenerate_fixture()
        first = error_bound_probe(problem, z_bar, radius=1e-3, samples=500, seed=0)
        assert first == pytest.approx(ERROR_BOUND_REFERENCE, rel=1e-9)
        for seed in (1, 2, 3):
            other = error_bound_probe(problem, z_bar, radius=1e-3, samples=500, seed=seed)
            assert 0.8 * ERROR_BOUND_REFERENCE <= other <= 1.2 * ERROR_BOUND_REFERENCE

    def test_ambient_curve_defeats_classical_bound(self):
        problem, z_bar = degenerate_fixture()
        ratios = []
        for t in (1e-1, 1e-2, 1e-3):
            z = degenerate_fixture_curve(t)
            ratios.append(residual(problem, z).norm / point_distance(z, z_bar))
        assert ratios[0] > ratios[1] > ratios[2]
        assert ratios[2] <= 0.01 * ratios[0] * 2.0

    def test_ratio_converges_along_fixed_direction(self):
        problem, z_bar = degenerate_fixture()
        vals = [
            error_bound_probe(problem, z_bar, radius=r, samples=40, seed=11)
            for r in (1e-3, 1e-4, 1e-5)
        ]
        assert abs(vals[2] - vals[1]) <= abs(vals[1] - vals[0]) + 1e-6
        assert all(v > 0.1 for v in vals)
