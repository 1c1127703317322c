"""Stratified Gauss-Newton solver for the KKT least-squares merit.

The outer loop (:func:`sgn_solve`) drives the merit phi = ||F||^2/2 to
zero by combining three moves, all housed in the descent step
(:func:`slmn`):

* a Levenberg-Marquardt step tangent to the current stratum of G(z),
  globalized by an Armijo backtracking search under a fixed-inertia
  retraction;
* two normal steps along explicit directions W1 (escape through the NSD
  side) and W2 (escape through the PSD side), whose optimal step sizes
  and merit decreases are available in closed form;
* an eigenvalue correction that snaps near-zero eigenvalues of G(z) to
  exact zeros, moving the iterate onto a lower-dimensional stratum, and
  is accepted only when the step from the corrected point strictly
  decreases the merit.

Progress is measured by the directional-stationarity proxy
s(z) = max(||W1||, ||W2||, ||v_LM||), which vanishes exactly at
D-stationary points of phi.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    InertiaViolation,
    LinearSolveFailure,
    LineSearchFailure,
    NumericalError,
    NumericalInconsistency,
)
from .kkt import (
    AssembledJacobian,
    KktResidual,
    TangentFrame,
    TangentVector,
    assemble_dF,
    residual,
)
from .model import NlsdpProblem, PrimalDualPoint
from .spectral import (
    IED,
    frob,
    nsd_part,
    psd_part,
    retract_fixed_inertia,
    sym,
)


@dataclass(frozen=True)
class SolverConfig:
    """Hyperparameters of the outer loop and its subroutines."""

    tol: float = 1e-8               # stop when s(z) falls below this
    delta: float = 1e-4             # correction band for eigenvalues of G(z)
    eta: float = 0.75               # Armijo slope fraction, must sit in (1/2, 1)
    rho: float = 0.5                # backtracking shrink factor
    max_iter: int = 500
    max_backtracks: int = 50
    mu_min: float = 1e-16           # clamp on the LM regularizer ||F||^2
    mu_max: float = 1e8
    zero_tol: float | None = None   # eigenvalue classification; None = adaptive

    def __post_init__(self):
        if not 0.5 < self.eta < 1.0:
            raise ValueError("eta must lie in (1/2, 1)")
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (0, 1)")
        if not 0.0 < self.delta < np.inf:
            raise ValueError("delta must be positive and finite")
        if not 0.0 <= self.tol < np.inf:
            raise ValueError("tol must be nonnegative and finite")
        if self.max_iter < 1 or self.max_backtracks < 0:
            raise ValueError("iteration budgets must be positive")
        if not 0.0 < self.mu_min <= self.mu_max:
            raise ValueError("need 0 < mu_min <= mu_max")
        if self.zero_tol is not None and not 0.0 <= self.zero_tol < np.inf:
            raise ValueError("zero_tol must be nonnegative and finite")


@dataclass(frozen=True)
class IterationRecord:
    index: int
    phi: float
    norm_f1: float
    norm_f2: float
    stationarity: float
    p: int
    q: int
    step_kind: str
    backtracks: int
    mu: float
    step_norm: float


@dataclass(frozen=True)
class SolveResult:
    status: str                     # converged | max-iter | stalled
    z: PrimalDualPoint
    phi: float
    stationarity: float
    trace: list = field(default_factory=list)


CONVERGED = "converged"
MAX_ITER = "max-iter"
STALLED = "stalled"


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

def delta_lower_modulus(ied: IED) -> float:
    """Smallest magnitude among the nonzero eigenvalues; inf if all are zero."""
    nonzero = np.concatenate(
        [ied.eigenvalues[: ied.p], ied.eigenvalues[ied.n - ied.q :]]
    )
    if nonzero.size == 0:
        return np.inf
    return float(np.min(np.abs(nonzero)))


def normal_dirs(frame: TangentFrame, res: KktResidual):
    """Normal escape directions (W1, W2) at the frame's point.

    Both live in the normal space of the stratum (only the beta-beta
    block is nonzero in the eigenbasis); W1 is NSD, W2 is PSD, and both
    vanish exactly at KKT pairs.  The beta-beta block of P^T dg(F1) P is
    sum_i F1_i at[i][beta, beta], read from the frame's rotated stack.
    """
    ied = frame.ied
    n, p, q = ied.n, ied.p, ied.q
    r = n - q
    if r - p == 0:
        zero = np.zeros((n, n))
        return zero, zero.copy()
    pb = ied.basis[:, p:r]
    block1 = -np.tensordot(res.f1, frame.stack[:, p:r, p:r], axes=1)
    block2 = block1 - pb.T @ res.f2 @ pb
    w1 = sym(pb @ nsd_part(block1) @ pb.T)
    w2 = sym(pb @ psd_part(block2) @ pb.T)
    return w1, w2


def normal_step(
    frame: TangentFrame, w: np.ndarray, which: int
) -> PrimalDualPoint | None:
    """Candidate point along W1 or W2 with the exact minimizing step size.

    ``w`` is the W1 (``which`` = 1) or W2 (``which`` = 2) that
    :func:`normal_dirs` returned for ``frame``.  Returns ``None`` when it
    vanishes.  The merit decrease at the returned point is
    ||W1||^4 / (2 ||dg* W1||^2) for the first direction and
    ||W2||^4 / (2 (||W2||^2 + ||dg* W2||^2)) for the second; tests verify
    both against direct evaluation.
    """
    w_sq = float(np.sum(w * w))
    if w_sq == 0.0:
        return None
    z = frame.z
    dg_w = frame.problem.adjoint_dg(z.x, w)
    dg_sq = float(np.sum(dg_w**2))
    if which == 1:
        if dg_sq == 0.0:
            raise NumericalInconsistency(
                "nonzero W1 with dg* W1 = 0; the closed-form step is undefined"
            )
        t_star = w_sq / dg_sq
    else:
        t_star = w_sq / (w_sq + dg_sq)
    return PrimalDualPoint(x=z.x.copy(), y=sym(z.y + t_star * w))


def lm_direction(
    jac: AssembledJacobian,
    res: KktResidual,
    config: SolverConfig,
    pulled: np.ndarray,
):
    """Regularized Gauss-Newton direction tangent to the current stratum.

    Solves (mu I + J^T J) v = -J^T r with mu = ||F(z)||^2 clamped to the
    configured range, through a Cholesky factorization.  J^T J is
    ``jac.gram``, formed from the Jacobian's blocks without the dense
    matrix, and ``pulled`` is J^T r, ``jac.apply_adjoint`` of the
    frame's ``coords(res)``.  A failed factorization retries with mu
    increased tenfold; five failures raise :class:`LinearSolveFailure`.
    """
    rhs = -pulled
    mu = float(np.clip(2.0 * res.phi, config.mu_min, config.mu_max))
    frame = jac.frame
    dim = frame.dim
    if dim == 0:
        return TangentVector(frame=frame, v_x=np.zeros(0), coeffs=np.zeros(0)), mu
    diagonal = np.diag_indices(dim)
    for _ in range(6):
        system = jac.gram.copy()
        system[diagonal] += mu
        try:
            cho = scipy.linalg.cho_factor(system)
            u = scipy.linalg.cho_solve(cho, rhs)
        except scipy.linalg.LinAlgError:
            mu = max(10.0 * mu, 1e-12)
            continue
        lin_res = float(np.linalg.norm(system @ u - rhs))
        if lin_res <= 1e-10 * max(1.0, float(np.linalg.norm(rhs))):
            m = frame.problem.m
            return TangentVector(frame=frame, v_x=u[:m], coeffs=u[m:]), mu
        mu = max(10.0 * mu, 1e-12)
    raise LinearSolveFailure("regularized Gauss-Newton system is numerically singular")


def retract_point(v: TangentVector) -> PrimalDualPoint:
    """Move from the point of ``v.frame`` along ``v``, back onto the stratum.

    The primal part steps linearly; the multiplier is adjusted so that
    G at the new point equals the fixed-inertia retraction of
    G(z) + H.  Propagates :class:`InertiaViolation` from the retraction.
    """
    frame = v.frame
    x_new = frame.z.x + v.v_x
    g_new = retract_fixed_inertia(frame.ied, v.matrix)
    y_new = g_new - frame.problem.eval_g(x_new)
    return PrimalDualPoint(x=x_new, y=sym(y_new))


def armijo_search(
    res: KktResidual, v: TangentVector, dphi: float, config: SolverConfig
):
    """Backtracking search along ``v`` from its frame's point, under the retraction.

    Finds the smallest j with
    phi(R_z(rho^j v)) - phi(z) <= eta rho^j phi'(z; v) / 2; inertia
    violations count as failed trials.  Requires a descent direction.

    The threshold is measured against half the directional derivative
    because that is the realizable Gauss-Newton decrease: along the LM
    direction phi(R_z(v)) = phi(z) + phi'(z; v)/2 + o(||v||^2), so with
    eta in (1/2, 1) the unit step passes asymptotically, which is what
    drives the local quadratic rate.
    """
    if not dphi < 0.0:
        raise LineSearchFailure(f"not a descent direction: phi' = {dphi:g}")
    problem = v.frame.problem
    phi0 = res.phi
    step = 1.0
    for j in range(config.max_backtracks + 1):
        try:
            trial = retract_point(v.scaled(step))
            trial_res = residual(problem, trial, config.zero_tol)
        except (InertiaViolation, NumericalError):
            # leaving the stratum or overflowing the trial or its
            # residual all just reject this step size
            step *= config.rho
            continue
        if trial_res.phi - phi0 <= 0.5 * config.eta * step * dphi:
            return trial, trial_res, j
        step *= config.rho
    raise LineSearchFailure(
        f"no acceptable step within {config.max_backtracks} backtracks"
    )


def correct(z: PrimalDualPoint, ied: IED, delta: float) -> PrimalDualPoint:
    """Snap eigenvalues of G(z) within ``delta`` of zero to exact zeros.

    Subtracts the corresponding spectral mass from the multiplier, which
    moves the iterate onto a lower-dimensional stratum while leaving the
    primal point untouched.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    lam = ied.eigenvalues
    theta = np.abs(lam) <= delta
    if not np.any(theta):
        return z
    cols = ied.basis[:, theta]
    shift = sym(cols @ (lam[theta][:, None] * cols.T))
    return PrimalDualPoint(x=z.x.copy(), y=sym(z.y - shift))


# ---------------------------------------------------------------------------
# per-point state and the stationarity measure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _PointState:
    """Everything a descent step reads at one point; ``jac.frame`` is its frame."""

    res: KktResidual
    jac: AssembledJacobian
    pulled: np.ndarray          # J^T r, the gradient of phi along the stratum
    w1: np.ndarray
    w2: np.ndarray
    v_lm: TangentVector | None
    mu: float
    lm_error: str | None

    @property
    def stationarity(self) -> float:
        v_norm = np.inf if self.v_lm is None else self.v_lm.norm
        return max(frob(self.w1), frob(self.w2), v_norm)


def _point_state(problem, z, config, res=None) -> _PointState:
    if res is None:
        res = residual(problem, z, config.zero_tol)
    frame = TangentFrame(problem, z, res.ied)
    jac = assemble_dF(frame)
    pulled = jac.apply_adjoint(frame.coords(res))
    w1, w2 = normal_dirs(frame, res)
    try:
        v_lm, mu = lm_direction(jac, res, config, pulled)
        lm_error = None
    except LinearSolveFailure as exc:
        v_lm, mu, lm_error = None, np.nan, str(exc)
    return _PointState(
        res=res, jac=jac, pulled=pulled, w1=w1, w2=w2,
        v_lm=v_lm, mu=mu, lm_error=lm_error,
    )


def stationarity_measure(
    problem: NlsdpProblem, z: PrimalDualPoint, config: SolverConfig | None = None
) -> float:
    """s(z) = max(||W1||, ||W2||, ||v_LM||); zero exactly at D-stationary points."""
    config = config or SolverConfig()
    return _point_state(problem, z, config).stationarity


# ---------------------------------------------------------------------------
# descent step and outer loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlmnOutcome:
    z: PrimalDualPoint
    res: KktResidual
    kind: str                   # lm | normal1 | normal2 | stall
    backtracks: int
    step_norm: float

    @property
    def stalled(self) -> bool:
        return self.kind == "stall"


def slmn(state: _PointState, config: SolverConfig) -> SlmnOutcome:
    """One descent step from ``state``'s point: best of the two normal
    candidates and the LM step.

    Candidates that do not exist (zero direction, failed search or
    solve, a normal step whose closed form is undefined) are skipped;
    among the rest the merit minimizer wins, with ties broken in the
    order lm, normal1, normal2.  If nothing decreases the merit the
    state's point is returned with the stall flag set.

    The three candidates are independent reads of the same immutable
    snapshot, so they could be evaluated concurrently; they are evaluated
    in order here and merged by the deterministic tie-break either way.
    """
    frame = state.jac.frame
    problem, z, res = frame.problem, frame.z, state.res
    candidates = []
    if state.v_lm is not None and state.v_lm.norm > 0.0:
        dphi = float(state.pulled @ state.v_lm.as_vec())
        try:
            z_lm, res_lm, j = armijo_search(res, state.v_lm, dphi, config)
            step = config.rho**j
            candidates.append(
                ("lm", z_lm, res_lm, j, step * state.v_lm.norm)
            )
        except LineSearchFailure:
            pass
    for which, w, kind in ((1, state.w1, "normal1"), (2, state.w2, "normal2")):
        if float(np.sum(w * w)) == 0.0:
            continue
        try:
            cand = normal_step(frame, w, which)
        except NumericalInconsistency:
            continue
        cand_res = residual(problem, cand, config.zero_tol)
        candidates.append((kind, cand, cand_res, 0, float(frob(cand.y - z.y))))
    viable = [c for c in candidates if c[2].phi < res.phi]
    if not viable:
        return SlmnOutcome(
            z=z, res=res, kind="stall",
            backtracks=0, step_norm=0.0,
        )
    best_phi = min(c[2].phi for c in viable)
    kind, z_new, res_new, j, step_norm = next(
        c for c in viable if c[2].phi == best_phi
    )
    return SlmnOutcome(
        z=z_new, res=res_new, kind=kind,
        backtracks=j, step_norm=step_norm,
    )


def sgn_solve(
    problem: NlsdpProblem,
    z0: PrimalDualPoint,
    config: SolverConfig | None = None,
) -> SolveResult:
    """Run the stratified Gauss-Newton method with correction from ``z0``.

    Each outer iteration stops if the stationarity measure is within
    tolerance, otherwise corrects the iterate, takes the descent step
    from the corrected point if that strictly decreases the merit, and
    from the uncorrected point otherwise.  The merit sequence is
    nonincreasing by construction.  Terminates with ``converged``,
    ``max-iter``, or ``stalled`` when no candidate makes progress; no
    exception escapes from degenerate steps.
    """
    config = config or SolverConfig()
    z = z0
    trace = []
    state = _point_state(problem, z, config)
    for k in range(config.max_iter):
        s_val = state.stationarity
        if s_val <= config.tol:
            return SolveResult(
                status=CONVERGED, z=z, phi=state.res.phi,
                stationarity=s_val, trace=trace,
            )
        # The correction only matters when it kills eigenvalues that are
        # currently classified nonzero; a band holding only beta noise
        # would re-zero what the retraction already keeps at zero.
        ied = state.res.ied
        corrected = False
        if delta_lower_modulus(ied) <= config.delta:
            z_hat = correct(z, ied, config.delta)
            outcome = slmn(_point_state(problem, z_hat, config), config)
            if outcome.res.phi < state.res.phi:
                corrected = True
            else:
                outcome = slmn(state, config)
        else:
            outcome = slmn(state, config)
        if outcome.stalled:
            # an accepted correction whose descent step stalled is still a
            # move (onto the lower stratum); a stall in place terminates
            kind = "correction" if corrected else "stall"
        else:
            kind = ("corrected-" if corrected else "") + outcome.kind
        trace.append(
            IterationRecord(
                index=k,
                phi=state.res.phi,
                norm_f1=float(np.linalg.norm(state.res.f1)),
                norm_f2=frob(state.res.f2),
                stationarity=s_val,
                p=state.res.ied.p,
                q=state.res.ied.q,
                step_kind=kind,
                backtracks=outcome.backtracks,
                mu=state.mu,
                step_norm=outcome.step_norm,
            )
        )
        if outcome.stalled and not corrected:
            return SolveResult(
                status=STALLED, z=z, phi=state.res.phi,
                stationarity=s_val, trace=trace,
            )
        z = outcome.z
        state = _point_state(problem, z, config, outcome.res)
    return SolveResult(
        status=MAX_ITER, z=z, phi=state.res.phi,
        stationarity=state.stationarity, trace=trace,
    )
