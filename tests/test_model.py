import json

import numpy as np
import pytest
from support import degenerate_fixture_curve, frame_at, random_point, random_problem

import sgnsdp.model
from sgnsdp.errors import ConstructionFailure, InputError
from sgnsdp.kkt import big_g, residual
from sgnsdp.model import (
    AffineQuadraticProblem,
    PrimalDualPoint,
    degenerate_fixture,
    load_point,
    load_problem,
    point_from_dict,
    point_to_dict,
    problem_from_dict,
    problem_to_dict,
    save_problem,
    synth_nondegenerate,
)
from sgnsdp.regularity import check_wsoc, check_wsrcq
from sgnsdp.spectral import make_ied, sym


def central_diff(fun, x, i, h):
    e = np.zeros_like(x)
    e[i] = h
    return (fun(x + e) - fun(x - e)) / (2.0 * h)


class TestAffineQuadratic:
    def test_adjointness(self):
        rng = np.random.default_rng(0)
        problem = random_problem(rng, 4, 6)
        x = rng.standard_normal(6)
        for _ in range(20):
            v = rng.standard_normal(6)
            s = sym(rng.standard_normal((4, 4)))
            lhs = np.sum(problem.apply_dg(x, v) * s)
            rhs = v @ problem.adjoint_dg(x, s)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_hessian_symmetric(self):
        rng = np.random.default_rng(1)
        problem = random_problem(rng, 3, 5)
        x, y = rng.standard_normal(5), sym(rng.standard_normal((3, 3)))
        u, v = rng.standard_normal(5), rng.standard_normal(5)
        huv = u @ problem.apply_hess_lagrangian(x, y, v)
        hvu = v @ problem.apply_hess_lagrangian(x, y, u)
        assert abs(huv - hvu) <= 1e-12 * max(1.0, abs(huv))

    def test_apply_dg_state_independent(self):
        rng = np.random.default_rng(2)
        problem = random_problem(rng, 3, 4)
        v = rng.standard_normal(4)
        a = problem.apply_dg(rng.standard_normal(4), v)
        b = problem.apply_dg(rng.standard_normal(4), v)
        assert np.array_equal(a, b)

    def test_derivative_consistency(self):
        rng = np.random.default_rng(3)
        problem = random_problem(rng, 4, 5)
        x = rng.standard_normal(5)
        y = sym(rng.standard_normal((4, 4)))
        h = 1e-6 * (1.0 + np.linalg.norm(x))
        grad = problem.grad_f(x)
        for i in range(5):
            fd = central_diff(problem.eval_f, x, i, h)
            assert abs(fd - grad[i]) <= 1e-6 * max(1.0, abs(grad[i]))
        for i in range(5):
            e = np.zeros(5)
            e[i] = 1.0
            fd = (problem.eval_g(x + h * e) - problem.eval_g(x - h * e)) / (2 * h)
            assert np.allclose(fd, problem.apply_dg(x, e), atol=1e-6)

        def grad_lag(xx):
            return problem.grad_f(xx) + problem.adjoint_dg(xx, y)

        for i in range(5):
            fd = central_diff(grad_lag, x, i, h)
            e = np.zeros(5)
            e[i] = 1.0
            assert np.allclose(fd, problem.apply_hess_lagrangian(x, y, e), atol=1e-5)

    def test_shape_validation(self):
        with pytest.raises(InputError):
            AffineQuadraticProblem(
                c=[1.0, 2.0], a0=np.eye(2), a_list=[np.eye(2)]
            )
        with pytest.raises(InputError):
            AffineQuadraticProblem(
                c=[1.0], a0=np.eye(2), a_list=[np.eye(3)]
            )


class TestDocuments:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        problem = random_problem(rng, 3, 4)
        path = tmp_path / "problem.json"
        save_problem(problem, path)
        loaded = load_problem(path)
        assert np.array_equal(loaded.c, problem.c)
        assert np.array_equal(loaded.quad, problem.quad)
        assert np.array_equal(loaded.a0, problem.a0)
        assert np.array_equal(loaded.a, problem.a)
        x = rng.standard_normal(4)
        assert loaded.eval_f(x) == problem.eval_f(x)
        assert np.array_equal(loaded.eval_g(x), problem.eval_g(x))

    def test_point_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        z = random_point(rng, random_problem(rng, 3, 4))
        path = tmp_path / "point.json"
        with open(path, "w") as handle:
            json.dump(point_to_dict(z), handle)
        back = load_point(path, 4, 3)
        assert np.array_equal(back.x, z.x) and np.array_equal(back.y, z.y)

    def test_missing_field_named(self):
        with pytest.raises(InputError) as err:
            problem_from_dict({"n": 2, "m": 1, "objective": {"c": [1.0]}})
        assert "constraint" in str(err.value)

    def test_wrong_packed_length_named(self):
        doc = {
            "n": 2,
            "m": 1,
            "objective": {"c": [1.0]},
            "constraint": {"A0": [1.0, 0.0, 1.0], "A": [[1.0, 0.0]]},
        }
        with pytest.raises(InputError) as err:
            problem_from_dict(doc)
        assert err.value.field == "constraint.A[0]"

    def test_non_numeric_rejected(self):
        doc = {
            "n": 1,
            "m": 1,
            "objective": {"c": ["x"]},
            "constraint": {"A0": [1.0], "A": [[1.0]]},
        }
        with pytest.raises(InputError) as err:
            problem_from_dict(doc)
        assert err.value.field == "objective.c"

    @pytest.mark.parametrize("field", ["constraint.A0", "constraint.A", "objective.Q"])
    def test_overflow_in_symmetrizing_named(self, field):
        # 1e308 + 1e308 overflows in (M + M^T) / 2, a 1 x 1 M included
        doc = {
            "n": 1,
            "m": 1,
            "objective": {"c": [1.0], "Q": [1.0]},
            "constraint": {"A0": [1.0], "A": [[1.0]]},
        }
        section, key = field.split(".")
        doc[section][key] = [[1e308]] if key == "A" else [1e308]
        with pytest.raises(InputError) as err:
            problem_from_dict(doc)
        assert err.value.field == field

    def test_m_zero_document(self):
        doc = {
            "n": 2,
            "m": 0,
            "objective": {"c": []},
            "constraint": {"A0": [1.0, 0.5, -1.0], "A": []},
        }
        problem = problem_from_dict(doc)
        assert problem.m == 0
        z = PrimalDualPoint(x=np.zeros(0), y=np.zeros((2, 2)))
        res = residual(problem, z)
        # with no primal variables the residual is the projection gap alone
        assert res.f1.size == 0
        ied = make_ied(problem.a0)
        from sgnsdp.spectral import project_psd

        assert np.allclose(res.f2, -problem.a0 + project_psd(ied), atol=1e-13)

    def test_point_dimension_mismatch(self):
        with pytest.raises(InputError):
            point_from_dict({"x": [0.0], "y": [1.0, 0.0, 1.0]}, m=2, n=2)

    def test_q_omitted_when_zero(self):
        rng = np.random.default_rng(6)
        problem = AffineQuadraticProblem(
            c=[1.0], a0=np.eye(2), a_list=[sym(rng.standard_normal((2, 2)))]
        )
        doc = problem_to_dict(problem)
        assert "Q" not in doc["objective"]
        again = problem_from_dict(doc)
        assert np.array_equal(again.quad, np.zeros((1, 1)))


class TestReferenceFixture:
    def test_matrix_layout(self):
        problem, _ = degenerate_fixture()
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        g = problem.eval_g(x)
        expected = np.array(
            [
                [1.0, 0.0, 0.0, 9.0],
                [0.0, -1.0, 0.0, 3.0],
                [0.0, 0.0, 0.0, 2.0],
                [9.0, 3.0, 2.0, 1.0],
            ]
        )
        assert np.array_equal(g, expected)

    def test_solution_pair(self):
        problem, z_bar = degenerate_fixture()
        assert problem.eval_f(z_bar.x) == 0.0
        res = residual(problem, z_bar)
        assert res.norm == 0.0
        big = big_g(problem, z_bar)
        assert np.array_equal(big, np.diag([1.0, 0.0, 0.0, -1.0]))
        assert (res.ied.p, res.ied.q) == (1, 1)

    def test_perturbed_curve_band(self):
        problem, _ = degenerate_fixture()
        t = 1e-2
        z = degenerate_fixture_curve(t)
        ratio = residual(problem, z).norm / t**2
        assert 0.1 <= ratio <= 10.0


class TestSynth:
    def test_residual_and_margins(self):
        for seed in (0, 1, 2):
            problem, z_star = synth_nondegenerate(seed=seed, n=5, m=6)
            assert residual(problem, z_star).norm <= 1e-12
            assert check_wsoc(frame_at(problem, z_star)).margin > 1e-6
            assert check_wsrcq(frame_at(problem, z_star)).margin > 1e-6

    def test_retry_exhaustion(self, monkeypatch):
        monkeypatch.setattr(sgnsdp.model, "SYNTH_RETRIES", 0)
        with pytest.raises(ConstructionFailure):
            synth_nondegenerate(seed=0, n=5, m=6)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            synth_nondegenerate(seed=0, n=1, m=2)
