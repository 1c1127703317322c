"""Tests of the benchmark harness itself: python3 -m pytest bench -q"""

import json
import sys
import time
from pathlib import Path

import pytest
import scipy.linalg

import run  # first: puts the library sources on sys.path
import sgnsdp
import workloads
from tracing import Span, Tracer, covered, self_times


def test_self_times_of_nested_spans():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]
    spans = [
        Span("root", 0.0, 10.0, None, 0, children=[1, 2]),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 5.0, 9.0, 0, 0, children=[3]),
        Span("c", 6.0, 7.0, 2, 0),
    ]
    assert self_times(spans) == [3.0, 3.0, 3.0, 1.0]
    assert sum(self_times(spans)) == spans[0].duration


def test_covered_counts_overlaps_once():
    assert covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert covered([(0.0, 4.0), (1.0, 2.0)]) == 4.0
    assert covered([]) == 0.0


def test_inputs_are_byte_identical_for_a_seed():
    for name, build in workloads.WORKLOADS.items():
        first = workloads.input_bytes(build(3))
        assert workloads.input_bytes(build(3)) == first, name
        assert workloads.input_bytes(build(4)) != first, name


def test_seed_shifts_every_range():
    for prefix in ("fixture/", "synth("):
        base = [c.label for c in workloads.build_solve_small(0) if c.label.startswith(prefix)]
        shifted = [c.label for c in workloads.build_solve_small(1) if c.label.startswith(prefix)]
        assert len(base) == 160
        assert shifted[:-1] == base[1:]


def _library_attributes():
    owners = [mod for key, mod in sys.modules.items()
              if key == "sgnsdp" or key.startswith("sgnsdp.")]
    snapshot = {(id(mod), key): value for mod in owners for key, value in vars(mod).items()}
    classes = [sgnsdp.AffineQuadraticProblem, workloads.GenericProblem]
    for cls in classes:
        snapshot.update({(id(cls), key): value for key, value in vars(cls).items()})
    snapshot[(id(scipy.linalg), "cho_factor")] = scipy.linalg.cho_factor
    return snapshot


def test_tracer_restores_every_wrapped_function():
    before = _library_attributes()
    problem, z_bar = sgnsdp.degenerate_fixture()
    start = workloads.fixture_solves(0, 1, 0)[0].z
    original = sgnsdp.kkt.assemble_dF
    with Tracer([type(problem)]) as tracer:
        for module in (sgnsdp.kkt, sgnsdp.solver, sgnsdp.regularity):
            assert module.assemble_dF is not original
        result = sgnsdp.solver.sgn_solve(problem, start, workloads.CONFIG)
        tracer.call_id = 1
        sgnsdp.regularity.diagnose(problem, z_bar)
    after = _library_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    names = {span.name for span in tracer.spans}
    assert {"solver.sgn_solve", "kkt.assemble_dF", "model.adjoint_dg",
            "regularity.check_srcq_heuristic", "linalg.cho_factor"} <= names
    roots = [span for span in tracer.spans if span.parent is None]
    assert [span.name for span in roots] == ["solver.sgn_solve", "regularity.diagnose"]
    assert run.self_time_error(tracer.spans) < 1e-9
    assert sum(span.name == "solver.sgn_solve" for span in tracer.spans) == 1
    assert result.status == "converged"


def test_tracer_restores_after_an_exception():
    before = _library_attributes()
    with pytest.raises(RuntimeError), Tracer([sgnsdp.AffineQuadraticProblem]):
        raise RuntimeError("boom")
    after = _library_attributes()
    assert all(after[key] is before[key] for key in before)


def test_benchmark_json_matches_the_harness():
    doc = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.LAYER_UNITS


def test_converged_off_kkt_is_a_failure_not_a_wrong_answer():
    # A (5, 6) instance on which the solver stops with s ~ 3e-9 <= tol
    # but |F| ~ 4e-6: a stationary point of the merit, not a KKT point.
    seed = 1438465101
    call = next(c for c in workloads.build_solve_small(seed)
                if c.label == f"synth(5,6)/{seed + 18}")
    result = sgnsdp.solver.sgn_solve(call.problem, call.z, workloads.CONFIG)
    assert result.status == "converged"
    verdict = workloads.check_solve(call, result)
    assert not verdict.ok and verdict.correct
    assert verdict.reason.startswith("converged to a non-KKT point")


def test_speed_probe_samples_outside_the_calls():
    probe = run.SpeedProbe()
    probe.between(0.0)
    assert len(probe.samples) == 1
    start = time.perf_counter()
    probe.between(1.0)  # 2% of a one-second call
    assert time.perf_counter() - start >= 0.02
    assert len(probe.samples) > 2
    assert probe.scale(20) == pytest.approx(run.SpeedProbe.REF_S * len(probe.samples) / sum(probe.samples))
    assert probe.scale(19) == 1.0
