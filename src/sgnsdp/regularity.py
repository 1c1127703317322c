"""Numeric evaluation of problem-level regularity conditions.

All checks work at an arbitrary primal-dual point through the
eigenstructure of G(z) = g(x) + y, in eigenbasis coordinates: they
slice the rotated stack P^T apply_dg(x, e_i) P of :func:`constraint_stack`
by the blocks of :func:`pair_mask`.  Rotation is an isometry, so span
margins equal those of the unrotated sets.  The weak pair (W-SOC, W-SRCQ) is
equivalent to injectivity of the on-stratum differential of the KKT
residual, which is what the cross-validation in the tests exploits.
SONC and SRCQ have no finite certificate here and are evaluated by
clearly labelled heuristics (sampling, alternating projections); they
inform diagnostics only and never steer the solver.

The tolerances are fixed: a margin must exceed ``DEFAULT_MARGIN_TOL``
(1e-8) for an exact check to hold, singular values below ``RANK_TOL``
(1e-10) times the largest count as zero in every rank decision, and the
SRCQ probe runs at most ``SRCQ_ITERATIONS`` (300) alternations per
restart and fails at alignment ``1 - SRCQ_ALIGNMENT_TOL`` (1e-4).  The
eigenvalue classification follows the IED passed in, or the adaptive
default of :func:`make_ied`.
"""

from dataclasses import dataclass

import numpy as np

from .kkt import (
    assemble_dF,
    big_g,
    constraint_stack,
    hess_lagrangian_matrix,
    residual,
    tangent_coords,
)
from .model import NlsdpProblem, PrimalDualPoint
from .spectral import (
    IED,
    frob,
    make_ied,
    nsd_part,
    pair_mask,
    sym,
    sym_to_vec,
    vec_to_sym,
)

HOLDS = "holds"
FAILS = "fails"
HEURISTIC_HOLDS = "heuristic-holds"
HEURISTIC_FAILS = "heuristic-fails"
NOT_APPLICABLE = "not-applicable"

DEFAULT_MARGIN_TOL = 1e-8
RANK_TOL = 1e-10            # relative to the largest singular value
SRCQ_ITERATIONS = 300
# Deliberately coarser than the rank margins: the two sets of the SRCQ
# probe can meet tangentially, in which case the alignment creeps toward
# 1 sublinearly and a 1e-8 band would never be resolved.
SRCQ_ALIGNMENT_TOL = 1e-4


@dataclass(frozen=True)
class ConditionResult:
    verdict: str
    margin: float

    @property
    def holds(self) -> bool:
        return self.verdict in (HOLDS, HEURISTIC_HOLDS)


def _ied_at(problem, z, ied) -> IED:
    if ied is not None:
        return ied
    return make_ied(big_g(problem, z))


def _constraint_rows(problem, z, ied, include_bb: bool):
    """Rows of v -> the bg, gg (and, if ``include_bb``, bb) entries of P^T (dg* v) P."""
    at = constraint_stack(problem, z.x, ied)[1]
    iu, ju = np.triu_indices(ied.n)
    pick = pair_mask(ied, ("bb", "bg", "gg") if include_bb else ("bg", "gg"))
    return at[:, iu[pick], ju[pick]].T


def _right_singular(mat, full_matrices=True):
    """Right singular vectors (rows) of ``mat`` and its numerical rank."""
    rows, cols = mat.shape
    if rows == 0 or cols == 0:
        return np.eye(cols), 0
    _, s, vt = np.linalg.svd(mat, full_matrices=full_matrices)
    return vt, int(np.sum(s > RANK_TOL * s[0]))


def _null_space(mat):
    vt, rank = _right_singular(mat)
    return vt[rank:].T


def appl_basis(problem, z, ied=None) -> np.ndarray:
    """Orthonormal basis of the primal directions with vanishing
    beta-beta, beta-gamma and gamma-gamma constraint blocks."""
    ied = _ied_at(problem, z, ied)
    return _null_space(_constraint_rows(problem, z, ied, include_bb=True))


def app_basis(problem, z, ied=None) -> np.ndarray:
    """As :func:`appl_basis` with the beta-beta requirement dropped."""
    ied = _ied_at(problem, z, ied)
    return _null_space(_constraint_rows(problem, z, ied, include_bb=False))


def quad_form_matrix(problem, z, ied, basis) -> np.ndarray:
    """Reduced matrix of the second order form on the span of ``basis``.

    The form is <v, Hess_xx L v> plus the curvature term
    2 sum_{i in alpha, j in gamma} (-lam_j / lam_i) [P^T (dg* v) P]_ij^2,
    assembled bilinearly from the alpha-gamma block of the rotated
    constraint stack.
    """
    if basis.shape[1] == 0:
        return np.zeros((0, 0))
    p, q, n = ied.p, ied.q, ied.n
    r = n - q
    out = basis.T @ hess_lagrangian_matrix(problem, z) @ basis
    if p and q:
        lam = ied.eigenvalues
        root = np.sqrt(-lam[r:][None, :] / lam[:p][:, None])
        at = constraint_stack(problem, z.x, ied)[1]
        scaled = np.einsum("ia,ijk,jk->ajk", basis, at[:, :p, r:], root)
        flat = scaled.reshape(basis.shape[1], -1)
        out += 2.0 * (flat @ flat.T)
    return sym(out)


def _definite_margin(eigs: np.ndarray) -> float:
    """Signed distance to sign-definiteness: positive when one-signed."""
    if np.all(eigs > 0) or np.all(eigs < 0):
        return float(np.min(np.abs(eigs)))
    return -float(min(np.max(eigs), -np.min(eigs)))


def check_wsoc(problem, z, ied=None) -> ConditionResult:
    """Weak second order condition: the reduced form is sign-definite."""
    ied = _ied_at(problem, z, ied)
    basis = appl_basis(problem, z, ied)
    if basis.shape[1] == 0:
        return ConditionResult(HOLDS, np.inf)
    eigs = np.linalg.eigvalsh(quad_form_matrix(problem, z, ied, basis))
    margin = _definite_margin(eigs)
    return ConditionResult(HOLDS if margin > DEFAULT_MARGIN_TOL else FAILS, margin)


def check_ssosc(problem, z, ied=None) -> ConditionResult:
    """Strong second order sufficient condition: positive definite on app."""
    ied = _ied_at(problem, z, ied)
    basis = app_basis(problem, z, ied)
    if basis.shape[1] == 0:
        return ConditionResult(HOLDS, np.inf)
    eigs = np.linalg.eigvalsh(quad_form_matrix(problem, z, ied, basis))
    margin = float(np.min(eigs))
    return ConditionResult(HOLDS if margin > DEFAULT_MARGIN_TOL else FAILS, margin)


def _span_check(problem, z, ied, include_bb):
    """Rank test for dg* R^m + {P B P^T : selected blocks of B zero} = S^n.

    In eigenbasis coordinates the second set is spanned by unit vectors.
    """
    n = ied.n
    n_sym = n * (n + 1) // 2
    blocks = ("aa", "ab", "ag", "bb") if include_bb else ("aa", "ab", "ag")
    free = np.eye(n_sym)[:, pair_mask(ied, blocks)]
    stacked = np.hstack([sym_to_vec(constraint_stack(problem, z.x, ied)[1]).T, free])
    if stacked.shape[1] < n_sym:
        return ConditionResult(FAILS, 0.0)
    svals = np.linalg.svd(stacked, compute_uv=False)
    margin = float(svals[n_sym - 1])
    return ConditionResult(HOLDS if margin > DEFAULT_MARGIN_TOL else FAILS, margin)


def check_wsrcq(problem, z, ied=None) -> ConditionResult:
    """Weak strict Robinson constraint qualification (span includes beta-beta)."""
    ied = _ied_at(problem, z, ied)
    return _span_check(problem, z, ied, include_bb=True)


def check_cn(problem, z, ied=None) -> ConditionResult:
    """Constraint nondegeneracy (beta-beta excluded from the span)."""
    ied = _ied_at(problem, z, ied)
    return _span_check(problem, z, ied, include_bb=False)


def injectivity_margin(problem, z, ied=None) -> float:
    """Smallest singular value of the assembled on-stratum differential."""
    ied = _ied_at(problem, z, ied)
    frame = tangent_coords(problem, z, ied)
    return assemble_dF(problem, z, frame).sigma_min()


# ---------------------------------------------------------------------------
# heuristics
# ---------------------------------------------------------------------------

def check_sonc_heuristic(
    problem,
    z,
    samples: int = 200,
    seed: int = 0,
    ied=None,
) -> ConditionResult:
    """Sampled second order necessary condition.

    Draws directions in the null space of the beta-gamma and gamma-gamma
    blocks, keeps those whose beta-beta image is PSD, and evaluates the
    second order form.  A negative kept sample refutes the condition;
    absence of one is evidence, not proof, hence the heuristic verdicts.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    ied = _ied_at(problem, z, ied)
    basis = app_basis(problem, z, ied)
    if basis.shape[1] == 0:
        return ConditionResult(HEURISTIC_HOLDS, 0.0)
    rng = np.random.default_rng(seed)
    p, r = ied.p, ied.n - ied.q
    form = quad_form_matrix(problem, z, ied, basis)
    at_bb = constraint_stack(problem, z.x, ied)[1][:, p:r, p:r]
    coeffs = rng.standard_normal((samples, basis.shape[1]))
    norms = np.linalg.norm(coeffs, axis=1)
    coeffs = coeffs[norms > 0.0] / norms[norms > 0.0, None]
    if r > p:
        # beta-beta image of each sample direction d = basis @ coeff
        bb = np.tensordot(coeffs @ basis.T, at_bb, axes=1)
        eigs = np.linalg.eigvalsh(0.5 * (bb + np.swapaxes(bb, 1, 2)))
        scale = np.maximum(1.0, np.max(np.abs(eigs), axis=1))
        coeffs = coeffs[np.min(eigs, axis=1) >= -1e-10 * scale]
    if coeffs.shape[0] == 0:
        return ConditionResult(HEURISTIC_HOLDS, 0.0)
    worst = float(np.min(np.einsum("si,ij,sj->s", coeffs, form, coeffs)))
    verdict = HEURISTIC_HOLDS if worst >= -DEFAULT_MARGIN_TOL else HEURISTIC_FAILS
    return ConditionResult(verdict, worst)


def check_srcq_heuristic(
    problem, z, restarts: int = 20, seed: int = 0, ied=None
) -> ConditionResult:
    """Alternating-projection probe of the strict Robinson qualification.

    SRCQ fails exactly when the null space of S -> adjoint_dg(x, S) meets
    the polar of the qualification cone in a nonzero direction; the probe
    alternates projections between the two sets from random starts and
    reports the largest limiting alignment.  Requires near
    complementarity at ``z``, otherwise not-applicable.

    In eigenbasis coordinates the polar cone holds the matrices that live
    on the trailing (beta u gamma) block with an NSD beta-beta block, so
    the iterate is that block alone.  With span_k an orthonormal basis of
    the rotated constraint range and c_k = <span_k, D>, a unit iterate D
    has null-space component D - sum_k c_k span_k.  Its norm, the
    alignment, is summed from the parts inside the block and outside it
    (which the next projection drops): sqrt(1 - |c|^2) would cancel to
    1e-8 noise where the alignment is 0.
    """
    ied = _ied_at(problem, z, ied)
    res = residual(problem, z, ied.zero_tol)
    if frob(res.f2) > 1e-6 * max(1.0, frob(res.g_matrix)):
        return ConditionResult(NOT_APPLICABLE, np.nan)
    n, p, n_beta = ied.n, ied.p, ied.n_beta
    vt, rank = _right_singular(
        sym_to_vec(constraint_stack(problem, z.x, ied)[1]), full_matrices=False
    )
    if rank == vt.shape[1]:
        return ConditionResult(HEURISTIC_HOLDS, 0.0)  # the null space is {0}
    # the range basis as flattened matrices, split at the trailing block
    span = vec_to_sym(vt[:rank], n).reshape(rank, n * n)
    block = np.zeros((n, n), dtype=bool)
    block[p:, p:] = True
    inside, outside = span[:, block.ravel()], span[:, ~block.ravel()]
    trailing = ied.basis[:, p:]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(restarts):
        d = sym(trailing.T @ rng.standard_normal((n, n)) @ trailing)
        alignment = 0.0
        # each pass projects onto the polar cone, normalises, then measures
        # and removes the range component; an alignment whose projection
        # vanishes on the next pass reads as 0
        for it in range(SRCQ_ITERATIONS + 1):
            if n_beta:
                d[:n_beta, :n_beta] = nsd_part(d[:n_beta, :n_beta])
            norm = frob(d)
            if norm == 0.0:
                alignment = 0.0
                break
            d /= norm
            if it == SRCQ_ITERATIONS:
                break
            c = inside @ d.ravel()
            d = d - (c @ inside).reshape(d.shape)
            out = c @ outside
            alignment = float(np.vdot(d, d) + out @ out) ** 0.5
            if alignment > 1.0 - 0.1 * SRCQ_ALIGNMENT_TOL:
                break  # already decisively past the verdict threshold
        worst = max(worst, alignment)
        if worst > 1.0 - 0.1 * SRCQ_ALIGNMENT_TOL:
            break
    verdict = HEURISTIC_HOLDS if worst < 1.0 - SRCQ_ALIGNMENT_TOL else HEURISTIC_FAILS
    return ConditionResult(verdict, worst)


def error_bound_probe(
    problem,
    z_bar: PrimalDualPoint,
    radius: float,
    samples: int,
    seed: int = 0,
) -> float:
    """Empirical stratum-restricted error-bound constant near a KKT pair.

    Retracts random tangent vectors of norm up to ``radius`` and reports
    the smallest observed ratio ||F(z)|| / ||z - z_bar||.
    """
    from .errors import InertiaViolation
    from .kkt import TangentVector
    from .model import point_distance
    from .solver import retract_point

    res = residual(problem, z_bar)
    frame = tangent_coords(problem, z_bar, res.ied)
    rng = np.random.default_rng(seed)
    dim = frame.dim
    best = np.inf
    for _ in range(samples):
        raw = rng.standard_normal(dim)
        norm = float(np.linalg.norm(raw))
        if norm == 0.0:
            continue
        raw *= radius * rng.uniform(0.1, 1.0) / norm
        v = TangentVector(frame=frame, v_x=raw[: problem.m], coeffs=raw[problem.m :])
        try:
            z = retract_point(problem, z_bar, v)
        except InertiaViolation:
            continue
        dist = point_distance(z, z_bar)
        if dist == 0.0:
            continue
        ratio = residual(problem, z).norm / dist
        best = min(best, ratio)
    return best


# ---------------------------------------------------------------------------
# the assembled report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegularityReport:
    w_soc: ConditionResult
    w_srcq: ConditionResult
    constraint_nondegeneracy: ConditionResult
    s_sosc: ConditionResult
    sonc: ConditionResult
    srcq: ConditionResult
    sigma_min_dF: float
    p: int
    q: int
    eigenvalues: np.ndarray

    def to_dict(self) -> dict:
        conditions = {
            "w_soc": self.w_soc,
            "w_srcq": self.w_srcq,
            "constraint_nondegeneracy": self.constraint_nondegeneracy,
            "s_sosc": self.s_sosc,
            "sonc": self.sonc,
            "srcq": self.srcq,
        }
        doc = {
            name: {"verdict": cond.verdict, "margin": float(cond.margin)}
            for name, cond in conditions.items()
        }
        doc["ied"] = {
            "p": self.p,
            "q": self.q,
            "eigenvalues": [float(v) for v in self.eigenvalues],
        }
        doc["sigma_min_dF"] = float(self.sigma_min_dF)
        return doc


def diagnose(
    problem: NlsdpProblem,
    z: PrimalDualPoint,
    seed: int = 0,
    sonc_samples: int = 200,
    srcq_restarts: int = 20,
    zero_tol=None,
) -> RegularityReport:
    """Evaluate every condition at ``z`` and collect the report."""
    ied = make_ied(big_g(problem, z), zero_tol)
    return RegularityReport(
        w_soc=check_wsoc(problem, z, ied),
        w_srcq=check_wsrcq(problem, z, ied),
        constraint_nondegeneracy=check_cn(problem, z, ied),
        s_sosc=check_ssosc(problem, z, ied),
        sonc=check_sonc_heuristic(problem, z, samples=sonc_samples, seed=seed, ied=ied),
        srcq=check_srcq_heuristic(
            problem, z, restarts=srcq_restarts, seed=seed, ied=ied
        ),
        sigma_min_dF=injectivity_margin(problem, z, ied),
        p=ied.p,
        q=ied.q,
        eigenvalues=ied.eigenvalues.copy(),
    )
