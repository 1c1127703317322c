import json

import numpy as np
import pytest

from sgnsdp import __version__, cli
from sgnsdp.cli import TRACE_HEADER, main
from sgnsdp.model import (
    degenerate_fixture,
    point_to_dict,
    save_problem,
)
from sgnsdp.solver import SolverConfig


@pytest.fixture
def reference_files(tmp_path):
    problem, z_bar = degenerate_fixture()
    problem_path = tmp_path / "problem.json"
    point_path = tmp_path / "solution.json"
    save_problem(problem, problem_path)
    with open(point_path, "w") as handle:
        json.dump(point_to_dict(z_bar), handle)
    return problem_path, point_path


def _overflow_files(tmp_path, entry, x):
    """An n = m = 1 problem with A0 = A_1 = [entry], and the point x, y = 0."""
    problem_path = tmp_path / "overflow.json"
    problem_path.write_text(json.dumps({
        "n": 1, "m": 1,
        "objective": {"c": [1.0]},
        "constraint": {"A0": [entry], "A": [[entry]]},
    }))
    point_path = tmp_path / "point.json"
    point_path.write_text(json.dumps({"x": [x], "y": [0.0]}))
    return problem_path, point_path


class TestSolve:
    def test_default_start_converges(self, reference_files, tmp_path, capsys):
        problem_path, _ = reference_files
        out = tmp_path / "result.json"
        trace = tmp_path / "trace.csv"
        code = main(
            ["solve", str(problem_path), "--tol", "1e-10",
             "--out", str(out), "--trace", str(trace)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["status"] == "converged"
        assert doc["phi"] <= 1e-16
        assert doc["version"] == __version__
        assert doc["config"]["tol"] == 1e-10
        assert "delta_final" in doc
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == TRACE_HEADER
        assert len(lines) == doc["iterations"] + 1

    def test_result_to_stdout(self, reference_files, capsys):
        problem_path, _ = reference_files
        code = main(["solve", str(problem_path)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "converged"

    def test_start_point_file(self, reference_files, tmp_path, capsys):
        problem_path, point_path = reference_files
        code = main(["solve", str(problem_path), "--point", str(point_path)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["iterations"] == 0

    def test_max_iter_exhaustion(self, reference_files, tmp_path, capsys):
        problem_path, _ = reference_files
        far = tmp_path / "far.json"
        rng = np.random.default_rng(0)
        y = rng.standard_normal((4, 4))
        y = 0.5 * (y + y.T)
        from sgnsdp.model import PrimalDualPoint

        with open(far, "w") as handle:
            json.dump(point_to_dict(PrimalDualPoint(x=rng.standard_normal(5), y=y)), handle)
        code = main(
            ["solve", str(problem_path), "--point", str(far),
             "--max-iter", "1", "--tol", "1e-14"]
        )
        assert code == 1

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        assert main(["solve", str(bad)]) == 3
        assert "error" in capsys.readouterr().err

    def test_schema_violation_names_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "n": 2, "m": 1,
            "objective": {"c": [1.0]},
            "constraint": {"A0": [1.0, 0.0], "A": [[1.0, 0.0, 0.0]]},
        }))
        assert main(["solve", str(bad)]) == 3
        assert "constraint.A0" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["solve", "/nonexistent/problem.json"]) == 3

    def test_invalid_config_rejected_before_compute(self, reference_files, capsys):
        problem_path, _ = reference_files
        assert main(["solve", str(problem_path), "--delta", "0"]) == 3
        assert main(["solve", str(problem_path), "--zero-tol", "-1"]) == 3
        for flag in ("--tol", "--delta", "--zero-tol"):
            for value in ("nan", "inf"):
                assert main(["solve", str(problem_path), flag, value]) == 3

    def test_default_flags_echo_solver_config(self, reference_files, capsys):
        problem_path, _ = reference_files
        assert main(["solve", str(problem_path)]) == 0
        config = SolverConfig()
        assert json.loads(capsys.readouterr().out)["config"] == {
            "tol": config.tol,
            "delta": config.delta,
            "max_iter": config.max_iter,
            "zero_tol": config.zero_tol,
        }

    def test_usage_error_exits_3(self, reference_files, capsys):
        problem_path, _ = reference_files
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(problem_path), "--tol", "half"])
        assert exc.value.code == 3
        assert "usage: sgnsdp solve" in capsys.readouterr().err

    def test_seed_is_a_usage_error(self, reference_files, capsys):
        # the solver draws no random numbers, so solve takes no seed
        problem_path, _ = reference_files
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(problem_path), "--seed", "-5"])
        assert exc.value.code == 3
        assert "--seed" in capsys.readouterr().err

    def test_deterministic_outputs(self, reference_files, tmp_path):
        problem_path, _ = reference_files
        payloads = []
        for tag in ("a", "b"):
            out = tmp_path / f"result_{tag}.json"
            trace = tmp_path / f"trace_{tag}.csv"
            code = main(
                ["solve", str(problem_path),
                 "--out", str(out), "--trace", str(trace)]
            )
            assert code == 0
            payloads.append(out.read_bytes() + trace.read_bytes())
        assert payloads[0] == payloads[1]


class TestFileErrors:
    """A file that cannot be read or written is an input error: exit 3."""

    @staticmethod
    def _not_utf8(tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"n": 1, "m": 0, "name": "caf\xe9"}'.encode("latin-1"))
        return path

    def _assert_input_error(self, argv, capsys):
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_problem_path_is_a_directory(self, tmp_path, capsys):
        self._assert_input_error(["solve", str(tmp_path)], capsys)

    def test_point_path_is_a_directory(self, reference_files, tmp_path, capsys):
        problem_path, _ = reference_files
        self._assert_input_error(["diagnose", str(problem_path), str(tmp_path)], capsys)

    def test_problem_file_not_utf8(self, tmp_path, capsys):
        self._assert_input_error(["solve", str(self._not_utf8(tmp_path))], capsys)

    def test_point_file_not_utf8(self, reference_files, tmp_path, capsys):
        problem_path, _ = reference_files
        self._assert_input_error(
            ["diagnose", str(problem_path), str(self._not_utf8(tmp_path))], capsys
        )

    def test_out_path_is_a_directory(self, reference_files, tmp_path, capsys):
        problem_path, point_path = reference_files
        self._assert_input_error(["solve", str(problem_path), "--out", str(tmp_path)], capsys)
        self._assert_input_error(
            ["diagnose", str(problem_path), str(point_path), "--out", str(tmp_path)], capsys
        )

    def test_trace_path_is_a_directory(self, reference_files, tmp_path, capsys):
        problem_path, _ = reference_files
        out = tmp_path / "result.json"
        self._assert_input_error(
            ["solve", str(problem_path), "--out", str(out), "--trace", str(tmp_path)], capsys
        )

    def test_output_paths_are_checked_before_the_solve(
        self, reference_files, tmp_path, capsys, monkeypatch
    ):
        def refuse(*args):
            raise AssertionError("solved before the output paths were checked")

        monkeypatch.setattr(cli, "sgn_solve", refuse)
        problem_path, _ = reference_files
        out, trace = tmp_path / "result.json", tmp_path / "trace.csv"
        self._assert_input_error(
            ["solve", str(problem_path), "--out", str(out), "--trace", str(tmp_path)], capsys
        )
        assert not out.exists() or out.read_text() == ""
        self._assert_input_error(
            ["solve", str(problem_path), "--out", str(tmp_path), "--trace", str(trace)], capsys
        )
        assert not trace.exists() or trace.read_text() == ""

    def test_failed_solve_leaves_no_output_files(self, tmp_path, capsys):
        problem_path, point_path = _overflow_files(tmp_path, 1e307, 100.0)
        out, trace = tmp_path / "result.json", tmp_path / "trace.csv"
        argv = ["solve", str(problem_path), "--point", str(point_path),
                "--out", str(out), "--trace", str(trace)]
        with np.errstate(over="ignore"):  # g(x) = 1e307 + 100 * 1e307
            assert main(argv) == 4
        assert not out.exists() and not trace.exists()
        # an existing file is left as it was
        out.write_text("kept")
        with np.errstate(over="ignore"):
            assert main(argv) == 4
        assert out.read_text() == "kept" and not trace.exists()


class TestDiagnose:
    def test_reference_report(self, reference_files, tmp_path):
        problem_path, point_path = reference_files
        out = tmp_path / "report.json"
        code = main(["diagnose", str(problem_path), str(point_path), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["w_soc"]["verdict"] == "holds"
        assert doc["w_srcq"]["verdict"] == "holds"
        assert doc["constraint_nondegeneracy"]["verdict"] == "fails"
        assert doc["s_sosc"]["verdict"] == "fails"
        assert doc["srcq"]["verdict"] == "heuristic-fails"
        assert doc["sigma_min_dF"] > 1e-6
        assert doc["ied"]["p"] == 1 and doc["ied"]["q"] == 1
        assert doc["version"] == __version__

    def test_dimension_mismatch(self, reference_files, tmp_path, capsys):
        problem_path, _ = reference_files
        short = tmp_path / "short.json"
        short.write_text(json.dumps({"x": [0.0, 0.0], "y": [0.0, 0.0, 0.0]}))
        assert main(["diagnose", str(problem_path), str(short)]) == 3

    def test_solver_flags_are_usage_errors(self, reference_files, capsys):
        problem_path, point_path = reference_files
        with pytest.raises(SystemExit) as exc:
            main(["diagnose", str(problem_path), str(point_path), "--tol", "1e-3"])
        assert exc.value.code == 3
        assert "--tol" in capsys.readouterr().err

    def test_invalid_point_flags_rejected(self, reference_files, capsys):
        problem_path, point_path = reference_files
        assert main(["diagnose", str(problem_path), str(point_path), "--zero-tol", "-1"]) == 3
        assert main(["diagnose", str(problem_path), str(point_path), "--zero-tol", "nan"]) == 3
        assert main(["diagnose", str(problem_path), str(point_path), "--zero-tol", "inf"]) == 3

    def test_seed_is_a_usage_error(self, reference_files, capsys):
        # the samplers draw from a fixed seed, so diagnose takes none
        problem_path, point_path = reference_files
        with pytest.raises(SystemExit) as exc:
            main(["diagnose", str(problem_path), str(point_path), "--seed", "0"])
        assert exc.value.code == 3
        assert "--seed" in capsys.readouterr().err

    def test_numerical_failure_exits_4(self, tmp_path, capsys):
        problem_path, point_path = _overflow_files(tmp_path, 1e307, 100.0)
        with np.errstate(over="ignore"):  # g(x) = 1e307 + 100 * 1e307
            assert main(["diagnose", str(problem_path), str(point_path)]) == 4
        assert "non-finite" in capsys.readouterr().err

    def test_entries_that_overflow_when_symmetrized_exit_3(self, tmp_path, capsys):
        # 1e308 + 1e308 overflows in (A + A^T) / 2: the file is at fault
        problem_path, point_path = _overflow_files(tmp_path, 1e308, 10.0)
        for argv in (["solve", str(problem_path)],
                     ["diagnose", str(problem_path), str(point_path)]):
            assert main(argv) == 3
            assert "(field: constraint.A0)" in capsys.readouterr().err

    def test_deterministic_report(self, reference_files, tmp_path):
        problem_path, point_path = reference_files
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / f"report_{tag}.json"
            assert main(
                ["diagnose", str(problem_path), str(point_path), "--out", str(out)]
            ) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]


class TestDemo:
    def test_runs_clean(self, capsys):
        assert main(["demo"]) == 0
        captured = capsys.readouterr().out
        assert "converged" in captured
