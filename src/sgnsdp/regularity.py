"""Numeric evaluation of problem-level regularity conditions.

Every check takes a :class:`TangentFrame`, the one handle for a
primal-dual point z with the IED of G(z) = g(x) + y, and works in the
frame's eigenbasis P: it slices the frame's one constraint stack,
P^T apply_dg(x, e_i) P of :func:`constraint_stack`, by the blocks of
:func:`pair_mask`.  Rotation is an isometry, so span margins equal
those of the unrotated sets.  The weak pair (W-SOC, W-SRCQ) is
equivalent to injectivity of the on-stratum differential of the KKT
residual, which is what the cross-validation in the tests exploits;
:func:`injectivity_margin` reads that differential from the same stack,
with its matrix rows in the same eigenbasis.
SONC and SRCQ have no finite certificate here and are evaluated by
clearly labelled heuristics (sampling, alternating projections); they
inform diagnostics only and never steer the solver.

The tolerances are fixed: a margin must exceed ``DEFAULT_MARGIN_TOL``
(1e-8) for an exact check to hold, singular values below ``RANK_TOL``
(1e-10) times the largest count as zero in every rank decision, and the
SRCQ probe runs at most ``SRCQ_ITERATIONS`` (300) alternations per
restart and fails at alignment ``1 - SRCQ_ALIGNMENT_TOL`` (1e-4).  The
counts are fixed too: the SONC heuristic draws ``SONC_SAMPLES`` (200)
directions and the SRCQ probe runs ``SRCQ_RESTARTS`` (20) restarts.
The eigenvalue classification is that of the frame's IED; :func:`diagnose`
builds it with :func:`make_ied`, adaptive unless ``zero_tol`` is given.
"""

from dataclasses import dataclass

import numpy as np

from .kkt import TangentFrame, assemble_dF, big_g
from .model import NlsdpProblem, PrimalDualPoint
from .spectral import (
    frob,
    make_ied,
    nsd_part,
    pair_mask,
    project_psd,
    sym,
    sym_to_vec,
    triu_pairs,
    vec_to_sym,
)

HOLDS = "holds"
FAILS = "fails"
HEURISTIC_HOLDS = "heuristic-holds"
HEURISTIC_FAILS = "heuristic-fails"
NOT_APPLICABLE = "not-applicable"

DEFAULT_MARGIN_TOL = 1e-8
RANK_TOL = 1e-10            # relative to the largest singular value
SONC_SAMPLES = 200
SRCQ_RESTARTS = 20
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


def _constraint_rows(frame: TangentFrame, include_bb: bool):
    """Rows of v -> the bg, gg (and, if ``include_bb``, bb) entries of P^T (dg* v) P."""
    iu, ju, _ = triu_pairs(frame.ied.n)
    pick = pair_mask(frame.ied, ("bb", "bg", "gg") if include_bb else ("bg", "gg"))
    return frame.stack[:, iu[pick], ju[pick]].T


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


def appl_basis(frame: TangentFrame) -> np.ndarray:
    """Orthonormal basis of the primal directions with vanishing
    beta-beta, beta-gamma and gamma-gamma constraint blocks."""
    return _null_space(_constraint_rows(frame, include_bb=True))


def app_basis(frame: TangentFrame) -> np.ndarray:
    """As :func:`appl_basis` with the beta-beta requirement dropped."""
    return _null_space(_constraint_rows(frame, include_bb=False))


def quad_form_matrix(frame: TangentFrame, basis) -> np.ndarray:
    """Reduced matrix of the second order form on the span of ``basis``.

    The form is <v, Hess_xx L v> plus the curvature term
    2 sum_{i in alpha, j in gamma} (-lam_j / lam_i) [P^T (dg* v) P]_ij^2,
    assembled bilinearly from the alpha-gamma block of the rotated
    constraint stack.
    """
    if basis.shape[1] == 0:
        return np.zeros((0, 0))
    p, q, n = frame.ied.p, frame.ied.q, frame.ied.n
    r = n - q
    out = basis.T @ frame.hess @ basis
    if p and q:
        lam = frame.ied.eigenvalues
        root = np.sqrt(-lam[r:][None, :] / lam[:p][:, None])
        scaled = np.einsum("ia,ijk,jk->ajk", basis, frame.stack[:, :p, r:], root)
        flat = scaled.reshape(basis.shape[1], -1)
        out += 2.0 * (flat @ flat.T)
    return sym(out)


def _definite_margin(eigs: np.ndarray) -> float:
    """Signed distance to sign-definiteness: positive when one-signed."""
    if np.all(eigs > 0) or np.all(eigs < 0):
        return float(np.min(np.abs(eigs)))
    return -float(min(np.max(eigs), -np.min(eigs)))


def check_wsoc(frame: TangentFrame) -> ConditionResult:
    """Weak second order condition: the reduced form is sign-definite."""
    basis = appl_basis(frame)
    if basis.shape[1] == 0:
        return ConditionResult(HOLDS, np.inf)
    eigs = np.linalg.eigvalsh(quad_form_matrix(frame, basis))
    margin = _definite_margin(eigs)
    return ConditionResult(HOLDS if margin > DEFAULT_MARGIN_TOL else FAILS, margin)


def check_ssosc(frame: TangentFrame) -> ConditionResult:
    """Strong second order sufficient condition: positive definite on app."""
    basis = app_basis(frame)
    if basis.shape[1] == 0:
        return ConditionResult(HOLDS, np.inf)
    eigs = np.linalg.eigvalsh(quad_form_matrix(frame, basis))
    margin = float(np.min(eigs))
    return ConditionResult(HOLDS if margin > DEFAULT_MARGIN_TOL else FAILS, margin)


def _span_check(frame: TangentFrame, include_bb):
    """Rank test for dg* R^m + {P B P^T : selected blocks of B zero} = S^n.

    In eigenbasis coordinates the second set is spanned by unit vectors.
    """
    n = frame.ied.n
    n_sym = n * (n + 1) // 2
    blocks = ("aa", "ab", "ag", "bb") if include_bb else ("aa", "ab", "ag")
    free = np.eye(n_sym)[:, pair_mask(frame.ied, blocks)]
    stacked = np.hstack([sym_to_vec(frame.stack).T, free])
    if stacked.shape[1] < n_sym:
        return ConditionResult(FAILS, 0.0)
    svals = np.linalg.svd(stacked, compute_uv=False)
    margin = float(svals[n_sym - 1])
    return ConditionResult(HOLDS if margin > DEFAULT_MARGIN_TOL else FAILS, margin)


def check_wsrcq(frame: TangentFrame) -> ConditionResult:
    """Weak strict Robinson constraint qualification (span includes beta-beta)."""
    return _span_check(frame, include_bb=True)


def check_cn(frame: TangentFrame) -> ConditionResult:
    """Constraint nondegeneracy (beta-beta excluded from the span)."""
    return _span_check(frame, include_bb=False)


def injectivity_margin(frame: TangentFrame) -> float:
    """Smallest singular value of the on-stratum differential, from its dense matrix."""
    return assemble_dF(frame).sigma_min()


# ---------------------------------------------------------------------------
# heuristics
# ---------------------------------------------------------------------------

def check_sonc_heuristic(frame: TangentFrame, seed: int = 0) -> ConditionResult:
    """Sampled second order necessary condition.

    Draws ``SONC_SAMPLES`` directions in the null space of the
    beta-gamma and gamma-gamma blocks, keeps those whose beta-beta image
    is PSD, and evaluates the second order form.  A negative kept sample refutes the condition;
    absence of one is evidence, not proof, hence the heuristic verdicts.
    """
    basis = app_basis(frame)
    if basis.shape[1] == 0:
        return ConditionResult(HEURISTIC_HOLDS, 0.0)
    rng = np.random.default_rng(seed)
    p, r = frame.ied.p, frame.ied.n - frame.ied.q
    form = quad_form_matrix(frame, basis)
    at_bb = frame.stack[:, p:r, p:r]
    coeffs = rng.standard_normal((SONC_SAMPLES, basis.shape[1]))
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


def check_srcq_heuristic(frame: TangentFrame, seed: int = 0) -> ConditionResult:
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

    The ``SRCQ_RESTARTS`` restarts alternate together as one stack, with
    one stacked NSD projection per alternation.  A restart leaves the
    stack when its iterate vanishes (alignment 0) or its alignment passes
    the decisive level 1 - SRCQ_ALIGNMENT_TOL / 10.  A decisive restart i
    ends the probe as if the restarts had run one after another: the
    restarts after i are dropped and the margin is the largest alignment
    of restarts 0..i.
    """
    ied = frame.ied
    f2 = sym(project_psd(ied) - frame.problem.eval_g(frame.z.x))  # the residual's F2
    if frob(f2) > 1e-6 * max(1.0, frob(ied.matrix)):
        return ConditionResult(NOT_APPLICABLE, np.nan)
    n, p, n_beta = ied.n, ied.p, ied.n_beta
    vt, rank = _right_singular(sym_to_vec(frame.stack), full_matrices=False)
    if rank == vt.shape[1]:
        return ConditionResult(HEURISTIC_HOLDS, 0.0)  # the null space is {0}
    # the range basis as flattened matrices, split at the trailing block
    span = vec_to_sym(vt[:rank], n).reshape(rank, n * n)
    block = np.zeros((n, n), dtype=bool)
    block[p:, p:] = True
    inside, outside = span[:, block.ravel()], span[:, ~block.ravel()]
    trailing = ied.basis[:, p:]
    starts = np.random.default_rng(seed).standard_normal((SRCQ_RESTARTS, n, n))
    d = sym(trailing.T @ starts @ trailing)
    live = np.arange(len(d))        # the restart behind each row of d
    alignment = np.zeros(len(d))    # each restart's latest alignment
    stop = len(d)                   # restarts from stop on never count
    decisive = 1.0 - 0.1 * SRCQ_ALIGNMENT_TOL
    # each pass projects onto the polar cone, normalises, then measures
    # and removes the range component; an alignment whose projection
    # vanishes on the next pass reads as 0
    for it in range(SRCQ_ITERATIONS + 1):
        if live.size == 0:
            break
        if n_beta:
            d[:, :n_beta, :n_beta] = nsd_part(d[:, :n_beta, :n_beta])
        norm = np.sqrt(np.einsum("rij,rij->r", d, d))
        vanished = norm == 0.0
        alignment[live[vanished]] = 0.0
        d, live = d[~vanished] / norm[~vanished, None, None], live[~vanished]
        if it == SRCQ_ITERATIONS:
            break
        c = d.reshape(live.size, -1) @ inside.T
        d = d - (c @ inside).reshape(d.shape)
        out = c @ outside
        alignment[live] = np.sqrt(
            np.einsum("rij,rij->r", d, d) + np.einsum("rk,rk->r", out, out)
        )
        done = alignment[live] > decisive
        if done.any():
            stop = min(stop, live[done][0] + 1)
        keep = ~done & (live < stop)
        d, live = d[keep], live[keep]
    worst = float(np.max(alignment[:stop], initial=0.0))
    verdict = HEURISTIC_HOLDS if worst < 1.0 - SRCQ_ALIGNMENT_TOL else HEURISTIC_FAILS
    return ConditionResult(verdict, worst)


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
    zero_tol=None,
) -> RegularityReport:
    """Evaluate every condition at ``z`` and collect the report.

    The checks and the Jacobian of :func:`injectivity_margin` share one
    :class:`TangentFrame`, so the constraint stack and Hess_xx L are
    built once: m ``apply_dg`` and m ``apply_hess_lagrangian`` calls.
    """
    frame = TangentFrame(problem, z, make_ied(big_g(problem, z), zero_tol))
    return RegularityReport(
        w_soc=check_wsoc(frame),
        w_srcq=check_wsrcq(frame),
        constraint_nondegeneracy=check_cn(frame),
        s_sosc=check_ssosc(frame),
        sonc=check_sonc_heuristic(frame, seed=seed),
        srcq=check_srcq_heuristic(frame, seed=seed),
        sigma_min_dF=injectivity_margin(frame),
        p=frame.ied.p,
        q=frame.ied.q,
        eigenvalues=frame.ied.eigenvalues.copy(),
    )
