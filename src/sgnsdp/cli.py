"""Command-line front end.

Three subcommands: ``solve`` runs the stratified Gauss-Newton solver on
a problem file, ``diagnose`` evaluates the regularity report at a given
point, ``demo`` exercises the built-in fixtures.  Identical invocations
produce byte-identical outputs.

Exit codes: 0 converged / success, 1 iteration budget exhausted,
2 stalled, 3 input error (a usage error, a rejected value or document, a
file that cannot be read or written), 4 numerical failure.
"""

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__
from .errors import InputError, SgnsdpError
from .kkt import big_g, residual
from .model import (
    PrimalDualPoint,
    degenerate_fixture,
    load_point,
    load_problem,
    synth_nondegenerate,
)
from .regularity import diagnose
from .solver import (
    CONVERGED,
    MAX_ITER,
    STALLED,
    SolverConfig,
    delta_lower_modulus,
    sgn_solve,
)
from .spectral import make_ied, pack_sym

_STATUS_CODES = {CONVERGED: 0, MAX_ITER: 1, STALLED: 2}

TRACE_HEADER = "iter,phi,normF1,normF2,s,p,q,step_kind,j,mu,step_norm"


class _Parser(argparse.ArgumentParser):
    """Exits 3, the input-error code, on a usage error instead of
    argparse's 2, which a stalled solve returns; subparsers inherit it."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _seed(value: int) -> int:
    if value < 0:
        raise InputError("seed must be nonnegative")
    return value


def _config(**fields) -> SolverConfig:
    """A validated ``SolverConfig``; a rejected value is an input error."""
    try:
        return SolverConfig(**fields)
    except ValueError as exc:
        raise InputError(str(exc))


def _emit(doc: dict, path: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if path is None:
        print(text)
    else:
        with open(path, "w") as handle:
            handle.write(text + "\n")


def _write_trace(trace, path: str) -> None:
    lines = [TRACE_HEADER]
    for rec in trace:
        lines.append(
            f"{rec.index},{rec.phi!r},{rec.norm_f1!r},{rec.norm_f2!r},"
            f"{rec.stationarity!r},{rec.p},{rec.q},{rec.step_kind},"
            f"{rec.backtracks},{rec.mu!r},{rec.step_norm!r}"
        )
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def run_solve(args) -> int:
    config = _config(tol=args.tol, delta=args.delta, max_iter=args.max_iter,
                     zero_tol=args.zero_tol)
    problem = load_problem(args.problem)
    if args.point is not None:
        z0 = load_point(args.point, problem.m, problem.n)
    else:
        z0 = PrimalDualPoint(
            x=np.zeros(problem.m), y=np.zeros((problem.n, problem.n))
        )
    # an output path that cannot be written is an input error before the
    # solve, not after it; append mode leaves an existing file as it is,
    # and a file the probe creates goes again, so a failed solve leaves none
    for path in (args.out, args.trace):
        if path is not None:
            created = not os.path.lexists(path)
            open(path, "a").close()
            if created:
                os.remove(path)
    result = sgn_solve(problem, z0, config)
    final_ied = make_ied(big_g(problem, result.z), config.zero_tol)
    doc = {
        "version": __version__,
        "status": result.status,
        "x": list(result.z.x),
        "y": list(pack_sym(result.z.y)),
        "phi": result.phi,
        "s": result.stationarity,
        "iterations": len(result.trace),
        # Infinity when G has no nonzero eigenvalues; round-trips via json
        "delta_final": float(delta_lower_modulus(final_ied)),
        "config": dataclasses.asdict(config),
    }
    _emit(doc, args.out)
    if args.trace is not None:
        _write_trace(result.trace, args.trace)
    return _STATUS_CODES[result.status]


def run_diagnose(args) -> int:
    config = _config(zero_tol=args.zero_tol)
    problem = load_problem(args.problem)
    z = load_point(args.point, problem.m, problem.n)
    report = diagnose(problem, z, zero_tol=config.zero_tol)
    doc = report.to_dict()
    doc["version"] = __version__
    _emit(doc, args.out)
    return 0


def run_demo(args) -> int:
    seed = _seed(args.seed)
    problem, z_bar = degenerate_fixture()
    z0 = PrimalDualPoint(x=np.zeros(problem.m), y=np.zeros((problem.n, problem.n)))
    result = sgn_solve(problem, z0)
    print(f"degenerate 4x4 fixture: {result.status} after "
          f"{len(result.trace)} iterations, phi = {result.phi:.3e}")
    report = diagnose(problem, z_bar)
    for name in ("w_soc", "w_srcq", "constraint_nondegeneracy", "s_sosc"):
        cond = report.to_dict()[name]
        print(f"  {name} at the reference pair: {cond['verdict']}")
    synth_problem, z_star = synth_nondegenerate(seed=seed, n=5, m=6)
    rng = np.random.default_rng(seed)
    z_far = PrimalDualPoint(
        x=z_star.x + rng.standard_normal(synth_problem.m),
        y=z_star.y + 0.1 * rng.standard_normal((synth_problem.n, synth_problem.n)),
    )
    synth_result = sgn_solve(synth_problem, z_far)
    print(f"random nondegenerate instance: {synth_result.status} after "
          f"{len(synth_result.trace)} iterations, phi = {synth_result.phi:.3e}")
    print(f"residual at its reference solution: "
          f"{residual(synth_problem, z_star).norm:.3e}")
    if args.out is not None:
        _emit({"version": __version__, "demo": "ok"}, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sgnsdp",
        description="KKT solver for nonlinear semidefinite programs "
        "via stratified Gauss-Newton, plus regularity diagnostics",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve a problem file")
    solve.add_argument("problem", help="problem JSON file")
    solve.add_argument("--point", default=None, help="start point JSON (default zeros)")
    solve.add_argument("--out", default=None, help="result JSON path (default stdout)")
    solve.add_argument("--trace", default=None, help="iteration trace CSV path")
    defaults = SolverConfig()
    solve.add_argument("--tol", type=float, default=defaults.tol, help="stationarity stop")
    solve.add_argument("--delta", type=float, default=defaults.delta, help="correction band")
    solve.add_argument("--max-iter", type=int, default=defaults.max_iter)
    solve.set_defaults(handler=run_solve)

    diag = sub.add_parser("diagnose", help="regularity report at a point")
    diag.add_argument("problem", help="problem JSON file")
    diag.add_argument("point", help="point JSON file")
    diag.add_argument("--out", default=None, help="report JSON path (default stdout)")
    diag.set_defaults(handler=run_diagnose)
    for cmd in (solve, diag):
        cmd.add_argument("--zero-tol", type=float, default=None,
                         help="eigenvalue zero threshold (default: adaptive)")

    demo = sub.add_parser("demo", help="run the built-in fixtures")
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--out", default=None)
    demo.set_defaults(handler=run_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (InputError, OSError) as exc:
        field = f" (field: {exc.field})" if getattr(exc, "field", None) else ""
        print(f"error: {exc}{field}", file=sys.stderr)
        return 3
    except SgnsdpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
