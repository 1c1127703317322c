"""Numeric evaluation of problem-level regularity conditions.

Every check takes a :class:`TangentFrame`, the one handle for a
primal-dual point z with the IED of G(z) = g(x) + y, and works in the
frame's eigenbasis P.  Of the derivative data it reads only Hess_xx L
(``TangentFrame.hess``) and C = ``TangentFrame.c_mat``, whose row at a
pair (k, l) maps v to the sym_to_vec coordinate of P^T (dg v) P there;
it picks rows of C by the pair classes of a stratum's layout
(:func:`spectral.tangent_layout`).  Rotation is an isometry, so the
margins equal those of the unrotated sets.  The weak pair (W-SOC,
W-SRCQ) is equivalent to injectivity of the on-stratum differential of
the KKT residual, which is what the cross-validation in the tests
exploits; :func:`injectivity_margin` reads that differential from
:func:`kkt.assemble_dF`, with its matrix rows in the same eigenbasis.

The four exact checks read the same rows of C, those at the trailing
(beta-gamma and gamma-gamma) pairs of a stratum.  W-SRCQ and CN are one
rank test of those rows, and S-SOSC and W-SOC one form check on app,
their null space, each at two stratum indices: the frame's own
(n, p, q), and the all-gamma neighbour (n, p, n - p), whose trailing
pairs include the beta-beta ones, read in the same eigenbasis.

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

from dataclasses import dataclass, fields

import numpy as np
import scipy.linalg.lapack

from .kkt import TangentFrame, assemble_dF, big_g
from .model import NlsdpProblem, PrimalDualPoint
from .spectral import (
    _lapack,
    eigvals_sym,
    frob,
    make_ied,
    nsd_part,
    project_psd,
    sym,
    tangent_layout,
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


def _constraint_rows(frame: TangentFrame, q: int):
    """The rows of C = ``frame.c_mat`` at the trailing (beta-gamma and
    gamma-gamma) pairs of the stratum (n, p, q), n and p the frame's.  At
    q = n - p, the all-gamma neighbour, they include the beta-beta ones."""
    ied = frame.ied
    return frame.c_mat[tangent_layout(ied.n, ied.p, q).trailing]


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


def _null_space(mat):
    # tall or square: the economy Vt holds every right singular vector
    vt, rank = _right_singular(mat, full_matrices=mat.shape[0] < mat.shape[1])
    return vt[rank:].T


def app_basis(frame: TangentFrame, q: int) -> np.ndarray:
    """Orthonormal basis of the null space of :func:`_constraint_rows`:
    app at q = ``ied.q``, W-SOC's smaller space at q = n - p."""
    return _null_space(_constraint_rows(frame, q))


def quad_form_matrix(frame: TangentFrame, basis) -> np.ndarray:
    """Reduced matrix of the second order form on the span of ``basis``.

    The form is <v, Hess_xx L v> plus the curvature term
    sum_{(k, l) alpha-gamma} (-lam_l / lam_k) (C_kl v)^2, C_kl the row of
    C at the pair, which is sqrt(2) [P^T (dg v) P]_kl.
    """
    if basis.shape[1] == 0:
        return np.zeros((0, 0))
    layout, lam = frame.layout, frame.ied.eigenvalues
    k, l = layout.pairs[layout.ag].T
    scaled = np.sqrt(-lam[l] / lam[k])[:, None] * (frame.c_mat[layout.rows[layout.ag]] @ basis)
    return sym(basis.T @ frame.hess @ basis + scaled.T @ scaled)


def _definite_margin(eigs: np.ndarray) -> float:
    """Signed distance to sign-definiteness: positive when one-signed, +0.0 at zero."""
    if np.all(eigs > 0) or np.all(eigs < 0):
        return float(np.min(np.abs(eigs)))
    return 0.0 - float(min(np.max(eigs), -np.min(eigs)))


def _form_check(frame: TangentFrame, q: int, definite: bool) -> ConditionResult:
    """The second order form on :func:`app_basis` at q is sign-definite
    (``definite``) or positive definite; the margin is infinite on {0}."""
    basis = app_basis(frame, q)
    if basis.shape[1] == 0:
        return ConditionResult(HOLDS, np.inf)
    eigs = eigvals_sym(quad_form_matrix(frame, basis))
    margin = _definite_margin(eigs) if definite else float(np.min(eigs))
    return ConditionResult(HOLDS if margin > DEFAULT_MARGIN_TOL else FAILS, margin)


def check_wsoc(frame: TangentFrame) -> ConditionResult:
    """Weak second order condition: sign-definite on app at q = n - p."""
    return _form_check(frame, frame.ied.n - frame.ied.p, definite=True)


def check_ssosc(frame: TangentFrame) -> ConditionResult:
    """Strong second order sufficient condition: positive definite on app."""
    return _form_check(frame, frame.ied.q, definite=False)


def _span_check(frame: TangentFrame, q: int):
    """Rank test of the rows C_K of C at the trailing pairs K of the
    stratum (n, p, q), n and p the frame's: W-SRCQ at q = ``ied.q``, and
    CN, whose K also holds the beta-beta pairs, at q = n - p.

    dg R^m + {P B P^T : B zero on K} = S^n exactly when no nonzero D
    living on K has dg* D = 0 (Bonnans and Shapiro 2000), that is, when
    the |K| rows of C_K are linearly independent.  The margin is
    min ||dg* D|| over unit D on K, the smallest singular value of C_K:
    0 when |K| > m, infinite when K is empty.  By Cauchy interlacing it
    is never below sigma_min of the primal span [C | E_F], E_F the unit
    vectors of the other pairs, and vanishes exactly when that does.
    """
    c_k = _constraint_rows(frame, q)
    k, m = c_k.shape
    if k > m:
        return ConditionResult(FAILS, 0.0)
    margin = np.inf
    if k:
        margin = float(_lapack(scipy.linalg.lapack.dgesdd, c_k, compute_uv=0)[1][-1])
    return ConditionResult(HOLDS if margin > DEFAULT_MARGIN_TOL else FAILS, margin)


def check_wsrcq(frame: TangentFrame) -> ConditionResult:
    """Weak strict Robinson constraint qualification (span includes beta-beta)."""
    return _span_check(frame, frame.ied.q)


def check_cn(frame: TangentFrame) -> ConditionResult:
    """Constraint nondegeneracy (beta-beta excluded from the span): W-SRCQ
    on the all-gamma neighbour (n, p, n - p), in the same eigenbasis."""
    return _span_check(frame, frame.ied.n - frame.ied.p)


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

    Draws ``SONC_SAMPLES`` directions in app, the null space of C's
    trailing rows, keeps those whose beta-beta image, the beta-beta block
    of vec_to_sym(C d), is PSD, and evaluates the second order form.  A
    negative kept sample refutes the condition; absence of one is
    evidence, not proof, hence the heuristic verdicts.
    :func:`diagnose` runs it only where :func:`check_sonc` cannot settle
    SONC: the form is indefinite on app and beta has two or more indices.
    """
    basis = app_basis(frame, frame.ied.q)
    if basis.shape[1] == 0:
        return ConditionResult(HEURISTIC_HOLDS, 0.0)
    rng = np.random.default_rng(SAMPLING_SEED)
    n, p, r = frame.ied.n, frame.ied.p, frame.ied.n - frame.ied.q
    form = quad_form_matrix(frame, basis)
    coeffs = rng.standard_normal((SONC_SAMPLES, basis.shape[1]))
    norms = np.linalg.norm(coeffs, axis=1)
    coeffs = coeffs[norms > 0.0] / norms[norms > 0.0, None]
    if r > p:
        # beta-beta image of each sample direction d = basis @ coeff
        eigs = np.linalg.eigvalsh(vec_to_sym(coeffs @ (frame.c_mat @ basis).T, n)[:, p:r, p:r])
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
        doc = {}
        for field in fields(self):
            cond = getattr(self, field.name)
            if isinstance(cond, ConditionResult):
                doc[field.name] = {"verdict": cond.verdict, "margin": float(cond.margin)}
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
    :class:`TangentFrame`, so C = ``frame.c_mat`` and Hess_xx L are
    built once: one ``dg_stack`` (m ``apply_dg`` calls by default) and one
    ``hess_lagrangian`` (m ``apply_hess_lagrangian`` calls by default).
    The Jacobian is built first, so a non-finite entry of either raises
    :class:`NumericalError` before any check reads them.
    g(x) is evaluated once, for G(z).
    SONC and SRCQ are settled from S-SOSC, W-SRCQ and CN where those
    decide (:func:`check_sonc`, :func:`check_srcq`), and sampled where
    they cannot.
    """
    frame = TangentFrame(problem, z, make_ied(big_g(problem, z), zero_tol))
    # first: the Jacobian builds C and Hess L and rejects non-finite entries
    sigma_min_dF = injectivity_margin(frame)
    w_srcq, cn, s_sosc = check_wsrcq(frame), check_cn(frame), check_ssosc(frame)
    return RegularityReport(
        w_soc=check_wsoc(frame),
        w_srcq=w_srcq,
        constraint_nondegeneracy=cn,
        s_sosc=s_sosc,
        sonc=check_sonc(frame, s_sosc),
        srcq=check_srcq(frame, w_srcq, cn),
        sigma_min_dF=sigma_min_dF,
        p=frame.ied.p,
        q=frame.ied.q,
        eigenvalues=frame.ied.eigenvalues.copy(),
        zero_tol=frame.ied.zero_tol,
    )
