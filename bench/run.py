"""Benchmark of the sgnsdp solver and regularity diagnostics.

Run from the root of a source checkout:

    python3 bench/run.py --workload solve-large --seed 0 --seconds 20 --trace 0

Each run builds its workload's inputs from ``--seed`` (several times,
to time set-up and to check the inputs are byte-identical), then
repeats the workload's pass of calls for about ``--seconds`` seconds,
checks every returned answer and prints one JSON object as the last
line of standard output.  The line before it holds the details: the
environment, per-call outcomes and the counts behind each metric.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
same passes untraced and then traced, checks that tracing changed no
call's status or iteration count, and reports per-layer metrics.
"""

import os

# Pin every BLAS/OpenMP pool to one thread before numpy is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import time  # noqa: E402

_T_IMPORT = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "sgnsdp" / "__init__.py").is_file():
    sys.exit(f"sgnsdp sources not found under {ROOT / 'src'}; run from a source checkout")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import sgnsdp.regularity  # noqa: E402
import sgnsdp.solver  # noqa: E402
from sgnsdp.errors import SgnsdpError  # noqa: E402
from tracing import CALLBACKS, EXTERNAL, FUNCTIONS, Tracer, self_times  # noqa: E402
from workloads import (  # noqa: E402
    CONFIG,
    WORKLOADS,
    Verdict,
    check_diagnose,
    check_solve,
    input_bytes,
)

IMPORT_S = time.perf_counter() - _T_IMPORT
SETUP_REPEATS = 3
STEP_KINDS = ["lm", "normal1", "normal2", "corrected-lm", "corrected-normal1",
              "corrected-normal2", "correction", "stall"]
# Every span name; each gets a calls and a self_s metric.
TIMED_LAYERS = ([name for name, _, _ in FUNCTIONS + EXTERNAL]
                + [f"model.{name}" for name in CALLBACKS])


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# running passes
# ---------------------------------------------------------------------------

def invoke(call):
    # Looked up at call time so that a tracer's wrappers are used.
    if call.kind == "solve":
        return sgnsdp.solver.sgn_solve(call.problem, call.z, CONFIG)
    return sgnsdp.regularity.diagnose(call.problem, call.z)


class SpeedProbe:
    """Measures how fast the host runs during a run.

    The host this benchmark was written on shares its cores with other
    machines, and its speed changed by up to a factor of two within
    minutes, which no statistic of the calls alone removes.  Between
    calls, outside their timing, the probe times a fixed mix of the kinds
    of work the library does: interpreter loops, small numpy calls, a 6x6
    eigendecomposition, an einsum contraction, a 100x100 Cholesky
    factorization and a sum over an 8 MB block, larger than that host's
    L2 cache and far smaller than its shared L3 cache, where the other
    machines contend.  An untimed round first brings the probe's data back
    into cache, so that what the library left there does not change the
    samples.  REF_S over the mean sample is the factor that takes the
    run's times to a reference host speed.
    """

    REF_S = 1.5e-3  # a round figure near the mean sample on that host
    SHARE = 0.02    # timed probe rounds per call, as a share of the previous call's time
    # The probe samples the host only between calls.  With fewer calls
    # than this in a pass, its samples come from too few moments to follow
    # the host: on solve-large, then 12 calls of 2 to 12 seconds, the
    # scaled spread over nine seeds was 26%, against 17% unscaled.
    MIN_CALLS = 20

    def __init__(self):
        rng = np.random.default_rng(0)
        sym6 = rng.standard_normal((6, 6))
        self.sym6 = sym6 + sym6.T
        self.tensor = rng.standard_normal((40, 30, 30))
        self.mat = rng.standard_normal((30, 30))
        gram = rng.standard_normal((100, 100))
        self.spd = gram @ gram.T + 100.0 * np.eye(100)
        self.block = rng.standard_normal(1 << 20)
        self.samples = []

    def work(self):
        total = 0
        for k in range(300):
            total += k * k
        v = self.sym6[0]
        for _ in range(40):
            w = v * 2.0 + 1.0
            float(w @ v)
            np.outer(w, v)[1:3, :].sum()
        np.linalg.eigh(self.sym6)
        np.einsum("ijk,jk->i", self.tensor, self.mat)
        np.linalg.cholesky(self.spd)
        self.block.sum()

    def between(self, last_call_s):
        """One untimed round, then timed rounds for SHARE of the last call's time, at least one."""
        until = time.perf_counter() + self.SHARE * last_call_s
        self.work()
        while True:
            start = time.perf_counter()
            self.work()
            self.samples.append(time.perf_counter() - start)
            if start >= until:
                return

    def scale(self, calls_per_pass):
        if calls_per_pass < self.MIN_CALLS:
            return 1.0
        return self.REF_S / statistics.mean(self.samples)


def run_pass(calls, tracer=None, probe=None):
    """Make the pass's calls in order; returns (seconds, result or exception) per call.

    With a probe, the probe runs before each call, outside its timing.
    """
    out = []
    for index, call in enumerate(calls):
        if tracer is not None:
            tracer.call_id = index
        if probe is not None:
            probe.between(out[-1][0] if out else 0.0)
        start = time.perf_counter()
        try:
            result = invoke(call)
        except SgnsdpError as exc:
            result = exc
        out.append((time.perf_counter() - start, result))
    return out


def run_passes(calls, seconds, probe):
    """As many whole passes as fit in ``seconds``, at least one."""
    passes = [run_pass(calls, probe=probe)]
    count = max(1, int(seconds // sum(t for t, _ in passes[0])))
    while len(passes) < count:
        passes.append(run_pass(calls, probe=probe))
    return passes


def fingerprint(result):
    """What must repeat exactly between passes of the same call."""
    if isinstance(result, Exception):
        return ("error", type(result).__name__)
    if hasattr(result, "status"):
        return (result.status, len(result.trace), result.phi,
                result.z.x.tobytes(), result.z.y.tobytes())
    return ("report", json.dumps(result.to_dict()))


def verify(calls, passes):
    """Check the first pass's answers; later passes must repeat them exactly."""
    verdicts = []
    for call, (_, result) in zip(calls, passes[0]):
        if isinstance(result, Exception):
            verdicts.append(Verdict(False, True, f"raised {type(result).__name__}"))
        elif call.kind == "solve":
            verdicts.append(check_solve(call, result))
        else:
            verdicts.append(check_diagnose(call, result))
    return verdicts, repeats(passes[0], passes[1:])


def repeats(first, later):
    """Whether every pass in ``later`` gave the same answers as ``first``."""
    return all(fingerprint(a) == fingerprint(b)
               for run in later for (_, a), (_, b) in zip(first, run))


def iterations(result):
    return len(result.trace) if hasattr(result, "trace") else 0


def tail_percentile(samples):
    """Highest of the usual percentiles with at least ten samples beyond it."""
    best = None
    for pct in (50, 75, 90, 95, 99, 99.9):
        if len(samples) * (1 - pct / 100) >= 10:
            best = pct
    if best is None:
        return None
    cuts = np.percentile(samples, best)
    return {"percentile": best, "value": float(cuts), "samples": len(samples)}


def summarize(calls, passes, verdicts):
    """End-to-end figures of a run.

    Each call is repeated once per pass, and its time is the median of
    its repeats: on a shared host, neighbours slow the same work by up to
    a factor of two for seconds at a time.
    """
    ok = [v.ok for v in verdicts]
    per_call = [statistics.median(run[i][0] for run in passes) for i in range(len(calls))]
    iters = [iterations(r) for _, r in passes[0]]
    if any(call.kind == "solve" for call in calls):
        # The mean over converged solves of each solve's time per iteration.
        # Per solve, so that a seed whose largest instance needs more
        # iterations does not weigh that size more; converged only, so that
        # one 500-iteration cycle does not set the figure (ok_frac counts it).
        ms_per_iter = 1000.0 * statistics.mean(
            t / i for t, i, good in zip(per_call, iters, ok) if good and i)
    else:
        # diagnose has no outer loop, so each call counts as one iteration;
        # the median, because a heuristic that stops early makes some calls
        # twenty times faster than the rest.
        ms_per_iter = 1000.0 * statistics.median(per_call)
    samples = [t for run in passes for t, _ in run]
    return {
        "attempted": len(samples),
        "ok_calls": sum(ok) * len(passes),
        "call_s_p50": statistics.median(per_call),
        "call_s_tail": tail_percentile(samples),
        "ms_per_iter": ms_per_iter,
        "ok_frac": sum(ok) / len(ok),
        "ok_calls_per_s": sum(ok) * len(passes) / sum(samples),
        "iterations": sum(iters),
    }


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(spans, passes, traced_iterations):
    """Per-pass counts and self seconds of every traced layer."""
    n_pass = len(passes)
    selfs = self_times(spans)
    by_name = {}
    for span, self_s in zip(spans, selfs):
        entry = by_name.setdefault(span.name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += self_s
    out = {}
    for name in TIMED_LAYERS:
        entry = by_name.get(name, {"calls": 0, "self_s": 0.0})
        out[f"{name}.calls"] = entry["calls"] / n_pass
        out[f"{name}.self_s"] = entry["self_s"] / n_pass

    def named(name):
        return [s for s in spans if s.name == name]

    def parent_is(span, name):
        return span.parent is not None and spans[span.parent].name == name

    def under(span, name):
        while span.parent is not None:
            span = spans[span.parent]
            if span.name == name:
                return True
        return False

    assembled = named("kkt.assemble_dF")
    lm = named("solver.lm_direction")
    armijo = named("solver.armijo_search")
    trials = sum(parent_is(s, "solver.armijo_search") for s in named("solver.retract_point"))
    armijo_failures = sum(s.error == "LineSearchFailure" for s in armijo)
    kinds = [rec.step_kind for run in passes for _, r in run if hasattr(r, "trace") for rec in r.trace]
    out.update({
        "kkt.assemble_dF.cols": sum(s.size or 0 for s in assembled) / n_pass,
        "kkt.assemble_dF.per_iter": len(assembled) / traced_iterations if traced_iterations else 0.0,
        "solver.lm_direction.factorizations":
            sum(parent_is(s, "solver.lm_direction") for s in named("linalg.cho_factor")) / n_pass,
        "solver.lm_direction.failures": sum(s.error == "LinearSolveFailure" for s in lm) / n_pass,
        "solver.lm_direction.system_dim": float(np.mean([s.size for s in lm if s.size] or [0])),
        "spectral.retract_fixed_inertia.rejects":
            sum(s.error == "InertiaViolation" for s in named("spectral.retract_fixed_inertia")) / n_pass,
        "solver.armijo_search.trials": trials / n_pass,
        "solver.armijo_search.failures": armijo_failures / n_pass,
        "solver.armijo_search.accept_ratio": (len(armijo) - armijo_failures) / max(1, trials),
        "solver.correct.accepted":
            sum(k.startswith("corrected-") or k == "correction" for k in kinds) / n_pass,
        "regularity.check_srcq_heuristic.eig_sym_calls":
            sum(under(s, "regularity.check_srcq_heuristic") for s in named("spectral.eig_sym")) / n_pass,
        "solver.iterations": traced_iterations / n_pass,
    })
    for kind in STEP_KINDS:
        out[f"solver.step_kind.{kind}"] = kinds.count(kind) / n_pass
    return out


def self_time_error(spans):
    """Largest gap, over public calls, between the self times of the
    call's spans summed and the duration of its root span."""
    totals, durations = {}, {}
    for span, self_s in zip(spans, self_times(spans)):
        totals[span.call_id] = totals.get(span.call_id, 0.0) + self_s
        if span.parent is None:
            durations[span.call_id] = durations.get(span.call_id, 0.0) + span.duration
    return max(abs(totals[key] - durations[key]) for key in durations)


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

END_TO_END = {
    "setup_s": "s", "call_s_p50": "s", "ms_per_iter": "ms",
    "ok_frac": "ratio", "peak_rss_mb": "MB",
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")

    build = WORKLOADS[args.workload]
    gen_s, blobs = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        calls = build(args.seed)
        gen_s.append(time.perf_counter() - start)
        blobs.append(input_bytes(calls))
    if any(blob != blobs[0] for blob in blobs):
        sys.exit("workload inputs differ between builds from the same seed")
    setup_s = IMPORT_S + statistics.median(gen_s)

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment(),
        "sizes": sorted({call.size for call in calls}),
        "calls_per_pass": len(calls),
        "setup": {"import_s": IMPORT_S, "generate_s": gen_s},
    }
    # A traced run splits its time between untraced and traced passes.
    probe = SpeedProbe()
    passes = run_passes(calls, args.seconds / 2 if args.trace else args.seconds, probe)
    verdicts, repeatable = verify(calls, passes)
    summary = summarize(calls, passes, verdicts)
    correct = repeatable and all(v.correct for v in verdicts)
    detail["passes"] = len(passes)
    detail["probe"] = {"mean_s": statistics.mean(probe.samples), "samples": len(probe.samples),
                       "total_s": sum(probe.samples), "scale": probe.scale(len(calls))}
    detail["call_seconds"] = [[t for t, _ in run] for run in passes]
    detail["summary"] = summary
    detail["calls"] = [
        {"label": call.label, "seconds": t, "iterations": iterations(r), **vars(v)}
        for call, (t, r), v in zip(calls, passes[0], verdicts)
    ]

    if args.trace:
        problem_classes = [type(call.problem) for call in calls]
        with Tracer(problem_classes) as tracer:
            traced = [run_pass(calls, tracer) for _ in passes]
        # Tracing must not change an answer: same status, iterations and bits.
        same = repeats(passes[0], traced)
        sum_error = self_time_error(tracer.spans)
        correct = correct and same and sum_error < 1e-6
        traced_summary = summarize(calls, traced, verdicts)
        layers = layer_metrics(tracer.spans, traced,
                               sum(iterations(r) for run in traced for _, r in run))
        layers["trace.ok_calls_per_s_ratio"] = (
            traced_summary["ok_calls_per_s"] / summary["ok_calls_per_s"]
        )
        detail["traced"] = {"same_answers": same, "self_time_sum_error_s": sum_error,
                            "summary": traced_summary}
        metrics = {name: {"value": value, "unit": LAYER_UNITS[name]}
                   for name, value in layers.items()}
    else:
        # The summary in the details line keeps the unscaled times.  Set-up
        # is not scaled: it runs before the probe, and its import reads files.
        values = {
            "setup_s": setup_s,
            "call_s_p50": summary["call_s_p50"] * probe.scale(len(calls)),
            "ms_per_iter": summary["ms_per_iter"] * probe.scale(len(calls)),
            "ok_frac": summary["ok_frac"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    print(json.dumps(detail))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": summary["attempted"],
        "failed": summary["attempted"] - summary["ok_calls"],
        "metrics": metrics,
    }))


def _layer_units():
    units = {}
    for name in TIMED_LAYERS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({
        "kkt.assemble_dF.cols": "count", "kkt.assemble_dF.per_iter": "ratio",
        "solver.lm_direction.factorizations": "count", "solver.lm_direction.failures": "count",
        "solver.lm_direction.system_dim": "count", "spectral.retract_fixed_inertia.rejects": "count",
        "solver.armijo_search.trials": "count", "solver.armijo_search.failures": "count",
        "solver.armijo_search.accept_ratio": "ratio", "solver.correct.accepted": "count",
        "regularity.check_srcq_heuristic.eig_sym_calls": "count", "solver.iterations": "count",
        "trace.ok_calls_per_s_ratio": "ratio",
    })
    for kind in STEP_KINDS:
        units[f"solver.step_kind.{kind}"] = "count"
    return units


LAYER_UNITS = _layer_units()

if __name__ == "__main__":
    main()
