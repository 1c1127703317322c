"""Numeric evaluation of problem-level regularity conditions.

Every check takes a :class:`TangentFrame`, the one handle for a
primal-dual point z with the IED of G(z) = g(x) + y, and works in the
frame's eigenbasis P: it slices the frame's one constraint stack,
P^T apply_dg(x, e_i) P of ``TangentFrame.stack``, or its vector form
``TangentFrame.c_mat``, by the blocks of the index sets.  Rotation is
an isometry, so span margins equal those of the unrotated sets.  The
weak pair (W-SOC, W-SRCQ) is equivalent to injectivity of the
on-stratum differential of the KKT residual, which is what the
cross-validation in the tests exploits; :func:`injectivity_margin`
reads that differential from the same stack, with its matrix rows in the
same eigenbasis.

SONC and SRCQ are settled from the exact checks where those decide
(:func:`check_sonc`, :func:`check_srcq`), and carry the margin of the
check that settled them:

* SRCQ holds where constraint nondegeneracy does (margin: CN's span
  margin), fails where W-SRCQ fails (W-SRCQ's margin) and, with at most
  one zero eigenvalue, fails where CN fails (CN's margin).  It is
  not-applicable off complementarity.
* SONC holds where the form of S-SOSC has lambda_min >= -1e-8 on app,
  which contains the SONC cone, and with at most one zero eigenvalue
  it fails otherwise (margin: that lambda_min either way).

Only with two or more zero eigenvalues, where that takes a semidefinite
certificate, do the clearly labelled heuristics run: the SRCQ probe
(alternating projections) where CN fails and W-SRCQ holds, the SONC
sampler where lambda_min < -1e-8.  Their verdicts read ``heuristic-*``.
None of these checks steers the solver.

The tolerances are fixed: a margin must exceed ``DEFAULT_MARGIN_TOL``
(1e-8) for an exact check to hold, singular values below ``RANK_TOL``
(1e-10) times the largest count as zero in every rank decision, and the
SRCQ probe runs at most ``SRCQ_ITERATIONS`` (300) alternations per
restart and fails at alignment ``1 - SRCQ_ALIGNMENT_TOL`` (1e-4).  The
counts and the seed are fixed too: the SONC heuristic draws
``SONC_SAMPLES`` (200) directions and the SRCQ probe runs
``SRCQ_RESTARTS`` (20) restarts, both from ``SAMPLING_SEED`` (0).
The eigenvalue classification is that of the frame's IED; :func:`diagnose`
builds it with :func:`make_ied`, adaptive unless ``zero_tol`` is given.
The report echoes all four tolerances.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg.lapack

from .kkt import TangentFrame, assemble_dF, big_g
from .model import NlsdpProblem, PrimalDualPoint
from .spectral import (
    _lapack,
    frob,
    make_ied,
    nsd_part,
    project_psd,
    sym,
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
SAMPLING_SEED = 0
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


def _trailing_pairs(ied, include_bb: bool) -> np.ndarray:
    """Mask of the bg, gg (and, if ``include_bb``, bb) pairs (i, j), i <= j,
    in ``np.triu_indices(n)`` order: i in beta u gamma and, unless
    ``include_bb``, j in gamma."""
    iu, ju, _ = triu_pairs(ied.n)
    mask = iu >= ied.p
    if not include_bb:
        mask &= ju >= ied.n - ied.q
    return mask


def _constraint_rows(frame: TangentFrame, include_bb: bool):
    """Rows of v -> the bg, gg (and, if ``include_bb``, bb) entries of P^T (dg* v) P."""
    iu, ju, _ = triu_pairs(frame.ied.n)
    pick = _trailing_pairs(frame.ied, include_bb)
    return frame.stack[:, iu[pick], ju[pick]].T


def _right_singular(mat, full_matrices=True):
    """Right singular vectors (rows) of ``mat`` and its numerical rank.

    One LAPACK ``dgesdd`` call with the workspace it asks for, the call
    of ``np.linalg.svd``, so the result is the same to the bit; the
    vectors come back in numpy's row-major layout, so that the products
    formed from them see the same operands too.
    """
    rows, cols = mat.shape
    if rows == 0 or cols == 0:
        return np.eye(cols), 0
    full = int(full_matrices)
    lwork = _lapack(scipy.linalg.lapack.dgesdd_lwork, rows, cols, full_matrices=full)[0]
    s, vt = _lapack(
        scipy.linalg.lapack.dgesdd, mat, full_matrices=full, lwork=int(lwork)
    )[1:]
    return np.ascontiguousarray(vt), int(np.count_nonzero(s > RANK_TOL * s[0]))


def _eigvalsh(mat):
    """Eigenvalues of the symmetric ``mat``, ascending: one LAPACK
    ``dsyevd`` call on the lower triangle with the workspace it asks
    for, the call of ``np.linalg.eigvalsh``, so the same to the bit."""
    lwork, liwork = _lapack(scipy.linalg.lapack.dsyevd_lwork, mat.shape[0], compute_v=0, lower=1)
    return _lapack(
        scipy.linalg.lapack.dsyevd, mat, compute_v=0, lower=1,
        lwork=int(lwork), liwork=int(liwork),
    )[0]


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
    eigs = _eigvalsh(quad_form_matrix(frame, basis))
    margin = _definite_margin(eigs)
    return ConditionResult(HOLDS if margin > DEFAULT_MARGIN_TOL else FAILS, margin)


def check_ssosc(frame: TangentFrame) -> ConditionResult:
    """Strong second order sufficient condition: positive definite on app."""
    basis = app_basis(frame)
    if basis.shape[1] == 0:
        return ConditionResult(HOLDS, np.inf)
    eigs = _eigvalsh(quad_form_matrix(frame, basis))
    margin = float(np.min(eigs))
    return ConditionResult(HOLDS if margin > DEFAULT_MARGIN_TOL else FAILS, margin)


def _span_check(frame: TangentFrame, include_bb):
    """Rank test for dg* R^m + {P B P^T : selected blocks of B zero} = S^n.

    In eigenbasis coordinates the second set is spanned by the unit
    vectors of the free pairs F, so the margin is sigma_{n_sym} of
    X = [C | E_F], C = ``frame.c_mat``, and it is read from a core
    of order at most 2m (Chan's R-SVD: a QR first, then the SVD of the
    small factor).  With K the complementary rows, k = |K| and C_F, C_K
    the rows of C at F and K:

    * k > m: X has fewer than n_sym columns, so the check fails with
      margin 0 before any factorization;
    * otherwise, with R_F the r x m triangle of a thin QR of C_F,
      r = min(|F|, m) (C_F itself when |F| <= m), the margin is
      sigma_min of the (r + k) x (m + r) core Y = [[R_F, I_r], [C_K, 0]],
      clamped to 1 when |F| > r; it is 1 when Y is empty.

    This is exact: X X^T = diag(1_F, 0_K) + C C^T.  The subspace
    S = range(Q_F) + R^K, Q_F the orthonormal QR factor, contains
    range(C) and is invariant under X X^T, which in that basis is Y Y^T;
    on the complement of S, C^T vanishes and X X^T is the identity.
    The cost is O(|F| m^2 + m^3), against O(n_sym (m + |F|)^2) for the
    SVD of X.
    """
    ied, m = frame.ied, frame.stack.shape[0]
    # K, the pairs outside F: bg and gg for W-SRCQ, and bb too for CN
    comp = _trailing_pairs(ied, not include_bb)
    k = int(np.count_nonzero(comp))
    if k > m:
        return ConditionResult(FAILS, 0.0)
    n_free = comp.size - k
    c_t = frame.c_mat.T    # m x n_sym
    r = min(n_free, m)
    core = np.eye(r + k, m + r, k=m, order="F")   # I_r, zeros elsewhere
    core[r:, :m] = c_t[:, comp].T
    # LAPACK is called directly: at diagnose's usual sizes (m ~ 6) the
    # numpy wrappers cost more than the factorizations themselves
    if n_free <= m:
        core[:r, :m] = c_t[:, ~comp].T
    elif m:
        qr = _lapack(scipy.linalg.lapack.dgeqrf, c_t[:, ~comp].T)[0]
        tri_i, tri_j, _ = triu_pairs(m)
        core[tri_i, tri_j] = qr[tri_i, tri_j]
    margin = 1.0
    if core.size:
        margin = float(_lapack(scipy.linalg.lapack.dgesdd, core, compute_uv=0, overwrite_a=1)[1][-1])
    if n_free > m:
        margin = min(1.0, margin)
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
# SONC and SRCQ: settled from the exact checks, sampled where they cannot
# ---------------------------------------------------------------------------

def _near_complementary(frame: TangentFrame) -> bool:
    """Whether the residual's F2, with g(x) = G(z) - y read from the
    frame, vanishes to 1e-6 relative: where SRCQ applies."""
    ied = frame.ied
    f2 = sym(project_psd(ied) - (ied.matrix - frame.z.y))
    return frob(f2) <= 1e-6 * max(1.0, frob(ied.matrix))


def check_sonc(frame: TangentFrame, s_sosc: ConditionResult) -> ConditionResult:
    """Second order necessary condition, from ``s_sosc`` where it decides.

    ``s_sosc`` is :func:`check_ssosc` at ``frame``; its margin is
    lambda_min of the form on app (infinite when app is {0}).  The SONC
    cone, the directions in app with a PSD beta-beta image, lies in app,
    so lambda_min >= -DEFAULT_MARGIN_TOL settles ``holds``.  With at most
    one beta index the cone is app or a half-space of it, and the form
    is even, so lambda_min settles the verdict either way.  The settled
    margin is lambda_min; otherwise :func:`check_sonc_heuristic` runs.
    """
    if s_sosc.margin >= -DEFAULT_MARGIN_TOL:
        return ConditionResult(HOLDS, s_sosc.margin)
    if frame.ied.n_beta <= 1:
        return ConditionResult(FAILS, s_sosc.margin)
    return check_sonc_heuristic(frame)


def check_srcq(
    frame: TangentFrame, w_srcq: ConditionResult, cn: ConditionResult
) -> ConditionResult:
    """Strict Robinson qualification, from ``w_srcq`` and ``cn`` where they decide.

    ``w_srcq`` and ``cn`` are :func:`check_wsrcq` and :func:`check_cn` at
    ``frame``.  Off complementarity SRCQ is not-applicable.  Otherwise
    SRCQ fails exactly when a nonzero D on the trailing (beta u gamma)
    block with an NSD beta-beta block has dg* D = 0, and:

    * CN holds: no nonzero such D exists at all, so SRCQ holds (Bonnans
      and Shapiro 2000), with CN's margin;
    * W-SRCQ fails: such a D exists with D_bb = 0, so SRCQ fails, with
      W-SRCQ's margin;
    * CN fails with at most one beta index: such a D exists with a
      scalar D_bb, and one of +-D has D_bb <= 0, so SRCQ fails, with
      CN's margin.

    Only where CN fails, W-SRCQ holds and beta has two or more indices
    does :func:`check_srcq_heuristic` run.
    """
    if not _near_complementary(frame):
        return ConditionResult(NOT_APPLICABLE, np.nan)
    if cn.holds:
        return cn
    if not w_srcq.holds:
        return w_srcq
    if frame.ied.n_beta <= 1:
        return cn
    return check_srcq_heuristic(frame)


def check_sonc_heuristic(frame: TangentFrame) -> ConditionResult:
    """Sampled second order necessary condition.

    Draws ``SONC_SAMPLES`` directions in the null space of the
    beta-gamma and gamma-gamma blocks, keeps those whose beta-beta image
    is PSD, and evaluates the second order form.  A negative kept sample refutes the condition;
    absence of one is evidence, not proof, hence the heuristic verdicts.
    :func:`diagnose` runs it only where :func:`check_sonc` cannot settle
    SONC: the form is indefinite on app and beta has two or more indices.
    """
    basis = app_basis(frame)
    if basis.shape[1] == 0:
        return ConditionResult(HEURISTIC_HOLDS, 0.0)
    rng = np.random.default_rng(SAMPLING_SEED)
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


def check_srcq_heuristic(frame: TangentFrame) -> ConditionResult:
    """Alternating-projection probe of the strict Robinson qualification.

    SRCQ fails exactly when the null space of S -> adjoint_dg(x, S) meets
    the polar of the qualification cone in a nonzero direction; the probe
    alternates projections between the two sets from random starts and
    reports the largest limiting alignment.  Requires near
    complementarity at ``z``, otherwise not-applicable.
    :func:`diagnose` runs it only where :func:`check_srcq` cannot settle
    SRCQ: CN fails, W-SRCQ holds and beta has two or more indices.

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
    if not _near_complementary(frame):
        return ConditionResult(NOT_APPLICABLE, np.nan)
    ied = frame.ied
    n, p, n_beta = ied.n, ied.p, ied.n_beta
    vt, rank = _right_singular(frame.c_mat.T, full_matrices=False)
    if rank == vt.shape[1]:
        return ConditionResult(HEURISTIC_HOLDS, 0.0)  # the null space is {0}
    # the range basis as flattened matrices, split at the trailing block
    span = vec_to_sym(vt[:rank], n).reshape(rank, n * n)
    block = np.zeros((n, n), dtype=bool)
    block[p:, p:] = True
    inside, outside = span[:, block.ravel()], span[:, ~block.ravel()]
    trailing = ied.basis[:, p:]
    starts = np.random.default_rng(SAMPLING_SEED).standard_normal((SRCQ_RESTARTS, n, n))
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
    zero_tol: float

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
        doc["tolerances"] = {
            "zero_tol": self.zero_tol,
            "margin_tol": DEFAULT_MARGIN_TOL,
            "rank_tol": RANK_TOL,
            "srcq_alignment_tol": SRCQ_ALIGNMENT_TOL,
        }
        return doc


def diagnose(problem: NlsdpProblem, z: PrimalDualPoint, zero_tol=None) -> RegularityReport:
    """Evaluate every condition at ``z`` and collect the report.

    The checks and the Jacobian of :func:`injectivity_margin` share one
    :class:`TangentFrame`, so the constraint stack and Hess_xx L are
    built once: one ``dg_stack`` (m ``apply_dg`` calls by default) and m
    ``apply_hess_lagrangian`` calls.  g(x) is evaluated once, for G(z).
    SONC and SRCQ are settled from S-SOSC, W-SRCQ and CN where those
    decide (:func:`check_sonc`, :func:`check_srcq`), and sampled where
    they cannot.
    """
    frame = TangentFrame(problem, z, make_ied(big_g(problem, z), zero_tol))
    w_srcq, cn, s_sosc = check_wsrcq(frame), check_cn(frame), check_ssosc(frame)
    return RegularityReport(
        w_soc=check_wsoc(frame),
        w_srcq=w_srcq,
        constraint_nondegeneracy=cn,
        s_sosc=s_sosc,
        sonc=check_sonc(frame, s_sosc),
        srcq=check_srcq(frame, w_srcq, cn),
        sigma_min_dF=injectivity_margin(frame),
        p=frame.ied.p,
        q=frame.ied.q,
        eigenvalues=frame.ied.eigenvalues.copy(),
        zero_tol=frame.ied.zero_tol,
    )
