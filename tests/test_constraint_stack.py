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
import reference
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    assemble_dF_by_columns,
    constraint_rows,
    second_order_margin,
    span_margin,
    srcq_probe,
)
from support import (
    Oscillatory,
    corrected_random_point,
    haar_orthogonal,
    random_point,
    random_problem,
)

import sgnsdp.regularity
from sgnsdp.kkt import (
    assemble_dF,
    big_g,
    constraint_stack,
    residual,
    tangent_coords,
)
from sgnsdp.model import (
    AffineQuadraticProblem,
    NlsdpProblem,
    degenerate_fixture,
    point,
    synth_nondegenerate,
)
from sgnsdp.regularity import (
    DEFAULT_MARGIN_TOL,
    FAILS,
    HEURISTIC_HOLDS,
    HOLDS,
    NOT_APPLICABLE,
    _constraint_rows,
    check_cn,
    check_srcq_heuristic,
    check_ssosc,
    check_wsoc,
    check_wsrcq,
)
from sgnsdp.spectral import make_ied, rotate_within_eigenspaces

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


class TestCallbackBudget:
    def test_assembly_reads_the_problem_through_the_stack_only(self):
        rng = np.random.default_rng(3)
        for n, m in ((4, 5), (6, 3)):
            problem, z = corrected_random_point(rng, n, m, n_zero=2)
            counting = CountingProblem(problem)
            frame = tangent_coords(counting, z, residual(problem, z).ied)
            assemble_dF(counting, z, frame)
            assert counting.calls == {
                "eval_g": 0, "apply_dg": m, "adjoint_dg": 0, "apply_hess_lagrangian": m,
            }


class TestStack:
    def test_m_zero(self):
        problem, z = corrected_random_point(np.random.default_rng(0), 3, 0)
        a, at = constraint_stack(problem, z.x, make_ied(big_g(problem, z)))
        assert a.shape == at.shape == (0, 3, 3)

    def test_rotation_and_symmetry(self):
        problem, z = corrected_random_point(np.random.default_rng(1), 5, 4)
        ied = make_ied(big_g(problem, z))
        a, at = constraint_stack(problem, z.x, ied)
        for i in range(problem.m):
            e = np.eye(problem.m)[i]
            assert np.array_equal(a[i], problem.apply_dg(z.x, e))
            assert np.allclose(at[i], ied.basis.T @ a[i] @ ied.basis, atol=1e-14)
        assert np.array_equal(at, at.transpose(0, 2, 1))


@settings(max_examples=60, deadline=None)
@given(stratum_points())
def test_jacobian_matches_column_reference(case):
    problem, z, ied = case
    assert ied.n_beta > 0
    frame = tangent_coords(problem, z, ied)
    jac = assemble_dF(problem, z, frame).matrix
    ref = assemble_dF_by_columns(problem, z, frame).matrix
    assert jac.shape == ref.shape
    assert np.linalg.norm(jac - ref) <= REL * max(1.0, np.linalg.norm(ref))


@settings(max_examples=60, deadline=None)
@given(stratum_points())
def test_regularity_margins_match_loop_reference(case):
    problem, z, ied = case
    for include_bb in (True, False):
        rows = _constraint_rows(problem, z, ied, include_bb)
        ref_rows = constraint_rows(problem, z, ied, include_bb)
        assert rows.shape == ref_rows.shape
        scale = max(1.0, np.abs(ref_rows).max(initial=0.0))
        assert np.allclose(rows, ref_rows, rtol=0.0, atol=REL * scale)
    pairs = [
        (check_wsrcq(problem, z, ied), span_margin(problem, z, ied, include_bb=True)),
        (check_cn(problem, z, ied), span_margin(problem, z, ied, include_bb=False)),
        (check_wsoc(problem, z, ied), second_order_margin(problem, z, ied, True, True)),
        (check_ssosc(problem, z, ied), second_order_margin(problem, z, ied, False, False)),
    ]
    for result, ref in pairs:
        assert _close(result.margin, ref), (result.margin, ref)
        assert result.verdict == _verdict(ref)


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
    ],
    ids=["fixture", "fixture-rot0", "fixture-rot1", "synth4000", "synth4001-rot2",
         "synth3-rot3", "not-applicable", "m-zero", "zero-constraints",
         "zero-constraints-rot0"],
)
def test_srcq_probe_matches_full_matrix_reference(build, rotation, monkeypatch):
    problem, z = build()
    ied = make_ied(big_g(problem, z))
    if rotation is not None:
        ied = rotate_within_eigenspaces(ied, rotation)
    # the beta-beta projections count the alternations each probe runs
    projections = {}
    for module in (sgnsdp.regularity, reference):
        def counted(block, module=module, original=module.nsd_part):
            projections[module] = projections.get(module, 0) + 1
            return original(block)
        monkeypatch.setattr(module, "nsd_part", counted)
    result = check_srcq_heuristic(problem, z, seed=0, ied=ied)
    verdict, margin = srcq_probe(problem, z, ied, seed=0)
    assert projections.get(sgnsdp.regularity) == projections.get(reference)
    assert result.verdict == verdict
    if verdict == NOT_APPLICABLE:
        assert np.isnan(result.margin) and np.isnan(margin)
    else:
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
    result = check_srcq_heuristic(problem, z, seed=0, ied=ied)
    verdict, margin = srcq_probe(problem, z, ied, seed=0)
    assert result.verdict == verdict == HEURISTIC_HOLDS
    assert 0.0 <= result.margin <= 1e-12 and margin <= 1e-12
    if margin == 0.0:  # a trivial null space reads exactly 0
        assert result.margin == 0.0
