"""The constraint stack against the slow reference constructions.

Everything the Jacobian and the regularity checks read from the rotated
stack is compared with the column-by-column and loop-by-entry versions
in :mod:`reference`, over random problems, random strata with a
populated beta block and random eigenbases within clusters.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    assemble_dF_by_columns,
    constraint_rows,
    second_order_margin,
    span_margin,
)
from support import Oscillatory, corrected_random_point

from sgnsdp.kkt import (
    assemble_dF,
    big_g,
    constraint_stack,
    residual,
    tangent_coords,
)
from sgnsdp.model import NlsdpProblem, point
from sgnsdp.regularity import (
    DEFAULT_MARGIN_TOL,
    FAILS,
    HOLDS,
    _constraint_rows,
    check_cn,
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
