"""Workload inputs and output checks for the sgnsdp benchmark.

Every workload is a closed loop: one caller makes sequential
``sgn_solve`` / ``diagnose`` calls and waits for each result.  A
workload's *pass* is a fixed list of calls built from ``--seed``: each
input group draws its instances and start points from the contiguous
seed range ``base + seed, base + seed + 1, ...`` with nothing skipped,
so the same seed always gives byte-identical inputs and another seed
shifts every range.
"""

from dataclasses import dataclass

import numpy as np

from sgnsdp.kkt import residual
from sgnsdp.model import (
    NlsdpProblem,
    PrimalDualPoint,
    degenerate_fixture,
    synth_nondegenerate,
)
from sgnsdp.regularity import FAILS, HOLDS
from sgnsdp.solver import SolverConfig, stationarity_measure
from sgnsdp.spectral import sym

CONFIG = SolverConfig()
# A converged point must also have a small KKT residual, not just a small
# stationarity proxy: s(z) <= tol bounds the LM step, and the residual
# at the reference solutions is below 1e-12.
RESIDUAL_TOL = 1e-6
# Far starts: perturbation norm uniform in this range (the range that
# acceptance criterion 7 uses for synthetic instances).
FAR = (0.5, 2.0)

FIXTURE_VERDICTS = {
    "w_soc": HOLDS,
    "w_srcq": HOLDS,
    "constraint_nondegeneracy": FAILS,
    "s_sosc": FAILS,
}
SYNTH_VERDICTS = {"w_soc": HOLDS, "w_srcq": HOLDS}


@dataclass(frozen=True)
class Call:
    """One public call of a pass: a solve from ``z`` or a diagnose at ``z``."""

    label: str
    kind: str                   # "solve" | "diagnose"
    size: tuple                 # (n, m)
    problem: NlsdpProblem
    z: PrimalDualPoint
    expect: dict | None = None  # diagnose verdicts that must hold


class GenericProblem(NlsdpProblem):
    """An affine-quadratic problem written as a user would write it.

    Implements only the abstract callbacks of :class:`NlsdpProblem` and
    does not inherit :class:`AffineQuadraticProblem`, so it exercises the
    default callback path that a fast path for affine problems would skip.
    """

    def __init__(self, affine):
        self._c = affine.c.copy()
        self._quad = affine.quad.copy()
        self._a0 = affine.a0.copy()
        self._a = affine.a.copy()

    @property
    def m(self):
        return self._c.shape[0]

    @property
    def n(self):
        return self._a0.shape[0]

    def eval_f(self, x):
        return float(self._c @ x + 0.5 * x @ self._quad @ x)

    def grad_f(self, x):
        return self._c + self._quad @ x

    def eval_g(self, x):
        return self._a0 + np.tensordot(x, self._a, axes=1)

    def apply_dg(self, x, v):
        return np.tensordot(v, self._a, axes=1)

    def adjoint_dg(self, x, s):
        return np.einsum("ijk,jk->i", self._a, s)

    def apply_hess_lagrangian(self, x, y, v):
        return self._quad @ v


def perturbed(rng, z: PrimalDualPoint, norm_range) -> PrimalDualPoint:
    """``z`` plus a random symmetric perturbation with norm drawn from the range."""
    dx = rng.standard_normal(z.x.shape[0])
    dy = sym(rng.standard_normal(z.y.shape))
    scale = rng.uniform(*norm_range) / np.sqrt(np.sum(dx**2) + np.sum(dy**2))
    return PrimalDualPoint(x=z.x + scale * dx, y=z.y + scale * dy)


def fixture_solves(seed, count, start_base):
    problem, z_bar = degenerate_fixture()
    return [
        Call(f"fixture/start{start_base + seed + i}", "solve", (4, 5), problem,
             perturbed(np.random.default_rng(start_base + seed + i), z_bar, FAR))
        for i in range(count)
    ]


def synth_solves(seed, n, m, count, inst_base, start_base, wrap=None):
    calls = []
    for i in range(count):
        problem, z_star = synth_nondegenerate(seed=inst_base + seed + i, n=n, m=m)
        if wrap is not None:
            problem = wrap(problem)
        z0 = perturbed(np.random.default_rng(start_base + seed + i), z_star, FAR)
        calls.append(Call(f"synth({n},{m})/{inst_base + seed + i}", "solve", (n, m), problem, z0))
    return calls


def synth_refs(seed, n, m, count, inst_base):
    calls = []
    for i in range(count):
        problem, z_star = synth_nondegenerate(seed=inst_base + seed + i, n=n, m=m)
        calls.append(Call(f"synth({n},{m})/{inst_base + seed + i}", "diagnose", (n, m),
                          problem, z_star, SYNTH_VERDICTS))
    return calls


# Pass sizes: a seed draws a new sample of instances and starts, and
# iteration counts vary widely between them (fixture starts need either
# about 7 or about 30 iterations), so the seed-to-seed spread of a run's
# median call time falls as one over the square root of its call count.
# Each pass is sized to take 15 to 20 seconds on one core (solve-large
# about 45), so that the runs of all four workloads fit the benchmark's
# time budget.


def build_solve_small(seed):
    # Alternate the two groups, so that a change of host speed during the
    # pass slows both alike and does not shift their mixture's median.
    pairs = zip(fixture_solves(seed, 160, 0), synth_solves(seed, 5, 6, 160, 0, 100))
    return [call for pair in pairs for call in pair]


def build_solve_large(seed):
    return synth_solves(seed, 30, 40, 15, 3000, 3100) + synth_solves(seed, 45, 60, 1, 3200, 3300)


def build_diagnose(seed):
    problem, z_bar = degenerate_fixture()
    return (
        [Call("fixture/ref", "diagnose", (4, 5), problem, z_bar, FIXTURE_VERDICTS)]
        + synth_refs(seed, 5, 6, 18, 4000)
        + synth_refs(seed, 20, 30, 2, 4100)
        + synth_refs(seed, 30, 40, 1, 4200)
    )


def build_solve_generic(seed):
    return synth_solves(seed, 20, 30, 24, 5000, 5100, wrap=GenericProblem)


WORKLOADS = {
    "solve-small": build_solve_small,
    "solve-large": build_solve_large,
    "diagnose": build_diagnose,
    "solve-generic": build_solve_generic,
}


def input_bytes(calls) -> bytes:
    """Every number a pass feeds the library, for byte-identity checks."""
    parts = []
    for call in calls:
        problem = call.problem
        x = np.zeros(problem.m)
        parts += [call.label.encode(), call.z.x.tobytes(), call.z.y.tobytes(),
                  problem.eval_g(x).tobytes(), problem.grad_f(x).tobytes()]
        for i in range(problem.m):
            e = np.zeros(problem.m)
            e[i] = 1.0
            parts += [problem.apply_dg(x, e).tobytes(),
                      problem.apply_hess_lagrangian(x, call.z.y, e).tobytes()]
    return b"".join(parts)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    ok: bool        # the call reached a verified answer
    correct: bool   # nothing the call returned is wrong
    reason: str


def check_solve(call: Call, result) -> Verdict:
    """A solve is ok when it converged to a KKT point and the answer
    survives recomputation.

    ``converged`` promises only s(z) <= tol, a directionally stationary
    point of the merit, not a zero of the KKT residual.  So a converged
    run whose recomputed s is within tol but whose residual exceeds
    RESIDUAL_TOL is a failure (a stationary point that is not a KKT
    point), not a wrong answer; so is a run that ends at ``max-iter`` or
    ``stalled``.  Either is still correct when its merit never rose and
    its reported merit and stationarity match a recomputation at the
    returned point.  A converged run whose recomputed s exceeds tol is
    wrong.
    """
    phis = [rec.phi for rec in result.trace] + [result.phi]
    monotone = all(b <= a for a, b in zip(phis, phis[1:]))
    s_val = stationarity_measure(call.problem, result.z, CONFIG)
    res = residual(call.problem, result.z, CONFIG.zero_tol)
    truthful = (np.isclose(s_val, result.stationarity, rtol=1e-9, atol=0.0)
                and np.isclose(res.phi, result.phi, rtol=1e-9, atol=0.0))
    if not (monotone and truthful):
        return Verdict(False, False, "merit rose" if not monotone else "report mismatch")
    if result.status != "converged":
        return Verdict(False, True, result.status)
    if s_val > CONFIG.tol:
        return Verdict(False, False, f"converged with s = {s_val:.3g}")
    if res.norm > RESIDUAL_TOL:
        return Verdict(False, True, f"converged to a non-KKT point, |F| = {res.norm:.3g}")
    return Verdict(True, True, "converged")


def check_diagnose(call: Call, report) -> Verdict:
    doc = report.to_dict()
    wrong = [name for name, verdict in call.expect.items() if doc[name]["verdict"] != verdict]
    if wrong:
        return Verdict(False, False, "unexpected verdicts: " + ", ".join(wrong))
    return Verdict(True, True, "expected verdicts")
