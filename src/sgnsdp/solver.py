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
  decreases the merit.  It is tried when a nonzero eigenvalue lies
  within ``delta`` of zero, and also at the iteration after an
  uncorrected LM step whose line search rejected a trial for leaving
  the stratum; there the band widens to the smallest nonzero eigenvalue
  magnitude, so the stratum the rejected trials pointed to is tried at
  once instead of after the iterate has crawled to its boundary.

Progress is measured by the directional-stationarity proxy
s(z) = max(||W1||, ||W2||, ||v_LM||), which vanishes exactly at
D-stationary points of phi.
"""

import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

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
    _f1,
    assemble_dF,
    residual,
)
from .model import NlsdpProblem, PrimalDualPoint
from .spectral import (
    IED,
    _lapack,
    eig_sym,
    frob,
    retract_fixed_inertia,
    sym,
    vec_to_sym,
)


# Armijo slope in (1/2, 1), so that the unit LM step passes near a
# solution, and backtracking factor, a power of two so that the trials'
# rho^j scaling is exact
ETA, RHO = 0.75, 0.5
MAX_BACKTRACKS = 50
MU_MIN, MU_MAX = 1e-16, 1e8     # clamp on the LM regularizer ||F||^2


@dataclass(frozen=True)
class SolverConfig:
    """Stopping controls, correction band and zero threshold of the outer
    loop; the line search and LM regularizer use the module constants."""

    tol: float = 1e-8               # stop when s(z) falls below this
    delta: float = 1e-4             # correction band for eigenvalues of G(z)
    max_iter: int = 500
    zero_tol: float | None = None   # eigenvalue classification; None = adaptive

    def __post_init__(self):
        if not 0.0 < self.delta < np.inf:
            raise ValueError("delta must be positive and finite")
        if not 0.0 <= self.tol < np.inf:
            raise ValueError("tol must be nonnegative and finite")
        integral = isinstance(self.max_iter, numbers.Integral)
        if isinstance(self.max_iter, bool) or not integral or self.max_iter < 1:
            raise ValueError("max_iter must be a positive integer")
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
    """Smallest magnitude among the nonzero eigenvalues; inf if all are zero.

    Read from the ends of alpha and gamma, lambda_p and -lambda_{n-q+1},
    as the eigenvalues are sorted nonincreasing.
    """
    lowest = np.inf
    if ied.p:
        lowest = float(ied.eigenvalues[ied.p - 1])
    if ied.q:
        lowest = min(lowest, -float(ied.eigenvalues[ied.n - ied.q]))
    return lowest


def normal_dirs(frame: TangentFrame, res: KktResidual):
    """Normal escape directions (W1, W2) at the frame's point.

    Both live in the normal space of the stratum (only the beta-beta
    block is nonzero in the eigenbasis); W1 is NSD, W2 is PSD, and both
    vanish exactly at KKT pairs.  The beta-beta block of P^T dg(F1) P is
    that of vec_to_sym(C F1), C = ``frame.c_mat``.  W1 is the NSD part
    of that block's negative, W2 the PSD part of the negative minus the
    block of P^T F2 P.  When |beta| >= 2 each block takes its own
    eigendecomposition, two single ``dsyevd`` calls being cheaper than
    one stacked ``np.linalg.eigh`` at these orders.  When |beta| = 1
    the blocks are scalars and are clipped at zero directly:
    a 1 x 1 ``dsyevd`` returns the entry as the eigenvalue and exactly
    1.0 as the eigenvector, so the clip is its result bit for bit.  A
    block that is not finite, or whose symmetrization overflows, still
    goes to ``eig_sym``, which raises for it.
    """
    ied = frame.ied
    n, p, q = ied.n, ied.p, ied.q
    r = n - q
    if r - p == 0:
        zero = np.zeros((n, n))
        return zero, zero.copy()
    pb = ied.basis[:, p:r]
    block1 = -vec_to_sym(frame.c_mat @ res.f1, n)[p:r, p:r]
    block2 = sym(block1 - pb.T @ res.f2 @ pb)
    if r - p == 1 and math.isfinite(2.0 * float(block1[0, 0])) and math.isfinite(block2[0, 0]):
        part1, part2 = np.minimum(block1, 0.0), np.maximum(block2, 0.0)
    else:
        basis1, lam1 = eig_sym(sym(block1))
        basis2, lam2 = eig_sym(block2)
        part1 = sym(basis1 @ (np.minimum(lam1, 0.0)[:, None] * basis1.T))
        part2 = sym(basis2 @ (np.maximum(lam2, 0.0)[:, None] * basis2.T))
    return sym(pb @ part1 @ pb.T), sym(pb @ part2 @ pb.T)


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
    w_sq = float((w * w).sum())
    if w_sq == 0.0:
        return None
    z = frame.z
    dg_w = frame.problem.adjoint_dg(z.x, w)
    dg_sq = float((dg_w**2).sum())
    if which == 1:
        if dg_sq == 0.0:
            raise NumericalInconsistency(
                "nonzero W1 with dg* W1 = 0; the closed-form step is undefined"
            )
        t_star = w_sq / dg_sq
    else:
        t_star = w_sq / (w_sq + dg_sq)
    return PrimalDualPoint(x=z.x.copy(), y=sym(z.y + t_star * w))


# System order m + T from which lm_direction solves from the Jacobian's
# blocks (AssembledJacobian.solve_regularized) instead of factoring the
# dense Gram.  On systems saved from real far-start solves (one BLAS
# thread, 2-vCPU host, median over systems of each one's fastest of nine
# attempts), dense / block took 0.140 / 0.142 ms at order 127, 0.150 /
# 0.140 at 128, 0.157 / 0.157 at 131, 0.158 / 0.155 at 132 and 0.169 /
# 0.150 at 135, so the break-even lies between orders 127 and 132.
STRUCTURED_MIN_ORDER = 128


def lm_direction(
    jac: AssembledJacobian,
    res: KktResidual,
    r: np.ndarray,
    pulled: np.ndarray,
):
    """Regularized Gauss-Newton direction tangent to the current stratum.

    Solves min ||J u + r||^2 + mu ||u||^2, that is
    (mu I + J^T J) u = -J^T r, with mu = ||F(z)||^2 clamped to
    [``MU_MIN``, ``MU_MAX``]; ``r`` is the frame's ``coords(res)`` and
    ``pulled`` is J^T r, ``jac.apply_adjoint(r)``.  The system order
    m + T picks the solver:

    * below ``STRUCTURED_MIN_ORDER`` (128), a Cholesky factorization of
      ``jac.gram`` + mu I, the Gram formed from the Jacobian's blocks;
    * from it on, ``jac.solve_regularized``, which eliminates the
      tangent pairs from the blocks and factors only an m x m matrix and
      a QR core of at most 2m + |S| unknowns, S the pairs with
      0 < xi_t^2 <= ``kkt.LARGE_XI_SQ``, so neither ``gram`` nor the
      dense ``matrix`` is formed.  It costs O((n_sym + T) m^2 + m^3)
      flops, against O(m (m + T)^2 + n_sym m^2) for the Gram and
      (m + T)^3 / 3 for its Cholesky, but its numpy and LAPACK calls
      cost about 0.13 ms per attempt even at order 21, where the dense
      path takes 0.04 ms, so the dense path stays the faster one below
      the constant.  At order 240 (n = 20, m = 30) an attempt takes
      about 0.22 ms, against 0.90 ms for the dense path.

    An attempt fails when a LAPACK call in it fails or the normal
    equations' residual exceeds 1e-10 max(1, ||J^T r||); it is retried
    with mu increased tenfold.  After six failed attempts
    :class:`LinearSolveFailure` is raised.
    """
    rhs = -pulled
    mu = float(min(max(2.0 * res.phi, MU_MIN), MU_MAX))
    frame = jac.frame
    dim = frame.dim
    if dim == 0:
        return TangentVector(frame=frame, v_x=np.zeros(0), coeffs=np.zeros(0)), mu
    for _ in range(6):
        try:
            if dim >= STRUCTURED_MIN_ORDER:
                u = jac.solve_regularized(r, mu)
                lin_res = frob(jac.apply_adjoint(jac.apply(u)) + mu * u - rhs)
            else:
                # a non-finite system fails cho_factor or leaves a NaN lin_res
                system = jac.gram.copy()
                system.flat[::dim + 1] += mu
                factor, lower = scipy.linalg.cho_factor(system, check_finite=False)
                u = _lapack(scipy.linalg.lapack.dpotrs, factor, rhs, lower=lower)[0]
                lin_res = frob(system @ u - rhs)
        except scipy.linalg.LinAlgError:
            mu = max(10.0 * mu, 1e-12)
            continue
        if lin_res <= 1e-10 * max(1.0, frob(rhs)):
            m = frame.problem.m
            return TangentVector(frame=frame, v_x=u[:m], coeffs=u[m:]), mu
        mu = max(10.0 * mu, 1e-12)
    raise LinearSolveFailure("regularized Gauss-Newton system is numerically singular")


@dataclass(frozen=True)
class RetractedPoint(PrimalDualPoint):
    """A point that :func:`retract_point` reached, with ``g`` = g(x).

    The line search hands ``g`` to the trial's residual, so g is
    evaluated once per trial point.
    """

    g: np.ndarray


def retract_point(v: TangentVector, step: float = 1.0) -> RetractedPoint:
    """Move from the point of ``v.frame`` along ``step * v``, back onto the stratum.

    The primal part steps linearly; the multiplier is adjusted so that
    G at the new point equals the fixed-inertia retraction of
    G(z) + step H.  ``v.matrix`` (H) is built once per vector, so the
    trials of a line search share it.  Propagates
    :class:`InertiaViolation` from the retraction.
    """
    frame = v.frame
    x_new = frame.z.x + step * v.v_x
    g_ret = retract_fixed_inertia(frame.ied, step * v.matrix)
    g_new = frame.problem.eval_g(x_new)
    return RetractedPoint(x=x_new, y=sym(g_ret - g_new), g=g_new)


def armijo_search(
    res: KktResidual, v: TangentVector, dphi: float, config: SolverConfig
):
    """Backtracking search along ``v`` from its frame's point, under the retraction.

    Finds the smallest j with
    phi(R_z(rho^j v)) - phi(z) <= eta rho^j phi'(z; v) / 2; inertia
    violations count as failed trials.  Requires a descent direction.
    Returns the accepted point, its residual, j, and whether any trial
    raised :class:`InertiaViolation` (left the stratum); a trial
    rejected with :class:`NumericalError` does not set that flag.
    :func:`sgn_solve` tries the eigenvalue correction at the next
    iteration when an uncorrected LM step's search left the stratum,
    and accepts it, as always, only when the merit strictly falls.

    The threshold is measured against half the directional derivative
    because that is the realizable Gauss-Newton decrease: along the LM
    direction phi(R_z(v)) = phi(z) + phi'(z; v)/2 + o(||v||^2), so with
    eta in (1/2, 1) the unit step passes asymptotically, which is what
    drives the local quadratic rate.

    Each trial evaluates g once, in the retraction.  The trials scale
    one tangent matrix by rho^j; as rho = 1/2 that scaling is exact, so
    a trial equals the retraction along the scaled vector bit for bit.
    """
    if not dphi < 0.0:
        raise LineSearchFailure(f"not a descent direction: phi' = {dphi:g}")
    problem = v.frame.problem
    phi0 = res.phi
    step = 1.0
    left_stratum = False
    for j in range(MAX_BACKTRACKS + 1):
        try:
            trial = retract_point(v, step)
            trial_res = residual(problem, trial, config.zero_tol, trial.g)
        except InertiaViolation:
            left_stratum = True
            step *= RHO
            continue
        except NumericalError:
            # overflowing the trial or its residual rejects this step
            # size too, but says nothing about the stratum
            step *= RHO
            continue
        if trial_res.phi - phi0 <= 0.5 * ETA * step * dphi:
            return trial, trial_res, j, left_stratum
        step *= RHO
    raise LineSearchFailure(
        f"no acceptable step within {MAX_BACKTRACKS} backtracks"
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

    @property
    def stationarity(self) -> float:
        v_norm = np.inf if self.v_lm is None else self.v_lm.norm
        return max(frob(self.w1), frob(self.w2), v_norm)


def _point_state(problem, z, config, res=None, prior=None) -> _PointState:
    """The state at ``z``.  ``prior`` is the frame of the previous state:
    a correction attempt and a normal step keep x, and where x is
    bitwise that of ``prior``, its unrotated constraint stack is reused
    instead of making the m ``apply_dg`` calls again."""
    if res is None:
        res = residual(problem, z, config.zero_tol)
    same_x = prior is not None and prior.z.x.tobytes() == z.x.tobytes()
    dg = prior.dg if same_x else problem.dg_stack(z.x)
    frame = TangentFrame(problem, z, res.ied, dg)
    jac = assemble_dF(frame)
    r = frame.coords(res)
    pulled = jac.apply_adjoint(r)
    w1, w2 = normal_dirs(frame, res)
    try:
        v_lm, mu = lm_direction(jac, res, r, pulled)
    except LinearSolveFailure:
        v_lm, mu = None, np.nan
    return _PointState(res=res, jac=jac, pulled=pulled, w1=w1, w2=w2, v_lm=v_lm, mu=mu)


def stationarity_measure(
    problem: NlsdpProblem, z: PrimalDualPoint, config: SolverConfig | None = None
) -> float:
    """s(z) = max(||W1||, ||W2||, ||v_LM||); zero exactly at D-stationary points."""
    config = config or SolverConfig()
    return _point_state(problem, z, config).stationarity


# ---------------------------------------------------------------------------
# descent step and outer loop
# ---------------------------------------------------------------------------

class SlmnOutcome(NamedTuple):
    z: PrimalDualPoint
    res: KktResidual
    kind: str                   # lm | normal1 | normal2 | stall
    backtracks: int
    step_norm: float
    left_stratum: bool = False  # an lm step's search rejected a trial off the stratum

    @property
    def stalled(self) -> bool:
        return self.kind == "stall"


def _f1_merit(problem: NlsdpProblem, z: PrimalDualPoint):
    """F1 at ``z``, as :func:`residual` forms it, and 0.5 ||F1||^2,
    which no rounding lets exceed the phi of that residual."""
    f1 = _f1(problem, z)
    return f1, 0.5 * float((f1**2).sum())


def slmn(state: _PointState, config: SolverConfig) -> SlmnOutcome:
    """One descent step from ``state``'s point: best of the two normal
    candidates and the LM step.

    Candidates that do not exist (zero direction, failed search or
    solve, a normal step whose closed form is undefined) are skipped;
    among the rest the merit minimizer wins, with ties broken in the
    order lm, normal1, normal2.  If nothing decreases the merit the
    state's point is returned with the stall flag set.

    A normal candidate is screened before its residual: its F1 is formed
    first, and the candidate is dropped when 0.5 ||F1||^2 is at least
    the lowest of the state's phi and the merits of the candidates before
    it.  phi is 0.5 (||F1||^2 + ||F2||^2), and round-to-nearest is
    monotone, so the candidate's phi would be at least that bound: it
    could neither decrease the merit strictly nor beat an earlier
    candidate, which wins ties.  So the screen never changes the winner,
    and a dropped candidate costs no ``eval_g`` call and no
    eigendecomposition.  A kept candidate hands its F1 to the residual.
    """
    frame = state.jac.frame
    problem, z, res = frame.problem, frame.z, state.res
    candidates = []
    best = res.phi
    if state.v_lm is not None and state.v_lm.norm > 0.0:
        dphi = float(state.pulled @ state.v_lm.as_vec())
        try:
            z_lm, res_lm, j, left = armijo_search(res, state.v_lm, dphi, config)
            candidates.append(
                SlmnOutcome(z_lm, res_lm, "lm", j, RHO**j * state.v_lm.norm, left)
            )
            best = min(best, res_lm.phi)
        except LineSearchFailure:
            pass
    for which, w, kind in ((1, state.w1, "normal1"), (2, state.w2, "normal2")):
        try:
            cand = normal_step(frame, w, which)
        except NumericalInconsistency:
            continue
        if cand is None:
            continue
        f1, bound = _f1_merit(problem, cand)
        if bound >= best:
            continue
        cand_res = residual(problem, cand, config.zero_tol, f1=f1)
        candidates.append(SlmnOutcome(cand, cand_res, kind, 0, float(frob(cand.y - z.y))))
        best = min(best, cand_res.phi)
    viable = [c for c in candidates if c.res.phi < res.phi]
    if not viable:
        return SlmnOutcome(z, res, "stall", 0, 0.0)
    # min keeps the first of equal merits: the tie-break above
    return min(viable, key=lambda c: c.res.phi)


def sgn_solve(
    problem: NlsdpProblem,
    z0: PrimalDualPoint,
    config: SolverConfig | None = None,
) -> SolveResult:
    """Run the stratified Gauss-Newton method with correction from ``z0``.

    Each outer iteration stops if the stationarity measure is within
    tolerance, otherwise tries the correction, takes the descent step
    from the corrected point if that strictly decreases the merit, and
    from the uncorrected point otherwise.  The correction is tried with
    the band ``config.delta`` when some nonzero eigenvalue of G(z) lies
    within it, and with the band max(``config.delta``,
    :func:`delta_lower_modulus`) when the previous iteration's accepted
    step was an uncorrected ``lm`` step whose Armijo search rejected a
    trial for leaving the stratum (:class:`InertiaViolation`); either
    way its acceptance test is the one above.  Near a KKT pair the unit
    LM step keeps the stratum, so the wider band is not tried there.
    The merit sequence is nonincreasing by construction.  Terminates
    with ``converged``, ``max-iter``, or ``stalled`` when no candidate
    makes progress.  A step that fails numerically (a singular LM
    system, an exhausted line search, a trial that leaves the stratum
    or overflows) is skipped, but a start whose g(x0) or G(z0) has a
    non-finite entry raises :class:`NumericalError` from its first
    residual.
    """
    config = config or SolverConfig()
    z = z0
    trace = []
    state = _point_state(problem, z, config)
    left_stratum = False
    for k in range(config.max_iter):
        s_val = state.stationarity
        if s_val <= config.tol:
            return SolveResult(
                status=CONVERGED, z=z, phi=state.res.phi,
                stationarity=s_val, trace=trace,
            )
        # The correction only matters when it kills eigenvalues that are
        # currently classified nonzero; a band holding only beta noise
        # would re-zero what the retraction already keeps at zero.  After
        # an LM search that left the stratum, the band widens to the
        # smallest nonzero eigenvalue's magnitude, the stratum that the
        # rejected trials pointed to.
        ied = state.res.ied
        lowest = delta_lower_modulus(ied)
        band = config.delta
        if left_stratum and lowest < np.inf:
            band = max(band, lowest)
        corrected = False
        if lowest <= band:
            z_hat = correct(z, ied, band)
            outcome = slmn(_point_state(problem, z_hat, config, prior=state.jac.frame), config)
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
                norm_f1=frob(state.res.f1),
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
        left_stratum = outcome.left_stratum and not corrected
        state = _point_state(problem, z, config, outcome.res, state.jac.frame)
    return SolveResult(
        status=MAX_ITER, z=z, phi=state.res.phi,
        stationarity=state.stationarity, trace=trace,
    )
