"""The paper's analysis oracles and slow reference implementations.

The oracles are the derivatives that the analysis uses and the solver
does not: the coefficient matrix xi of the PSD projector's directional
derivative, that derivative itself, its differential on a stratum as a
matrix function, and the one-sided directional derivative of the merit
phi.

The reference implementations are the straightforward constructions
the vectorised library code must match: the stratum Jacobian built
column by column through ``adjoint_dg`` and :func:`stratum_differential`,
the regularity quantities built by explicit loops over matrix entries
in the eigenbasis, the fixed-inertia retraction by eigendecomposition
on every stratum, the SRCQ probe iterating on full n x n matrices, the LM system solved
by QR of the dense Jacobian and the descent step that forms every
normal candidate's residual.
They share no code with the library's constraint stack or its Jacobian
assembly, so agreement is evidence for both.
"""

from types import SimpleNamespace

import numpy as np
import scipy.linalg

from support import (
    coeffs_from_matrix,
    frob_inner,
    normal_project_pi2,
    psd_part,
    tangent_matrix,
)

from sgnsdp.errors import InertiaViolation, LineSearchFailure, NumericalInconsistency, SgnsdpError
from sgnsdp.kkt import TangentFrame, assemble_dF, residual
from sgnsdp.regularity import (
    HEURISTIC_FAILS,
    HEURISTIC_HOLDS,
    NOT_APPLICABLE,
    RANK_TOL,
    _null_space,
)
from sgnsdp.solver import RHO, SlmnOutcome, armijo_search, normal_step
from sgnsdp.spectral import (
    eig_sym,
    frob,
    nsd_part,
    sym,
    sym_to_vec,
    vec_to_sym,
)


# ---------------------------------------------------------------------------
# derivative oracles
# ---------------------------------------------------------------------------

class TangencyViolation(SgnsdpError):
    """A direction handed to a stratum operation is not tangent.

    Carries the measured Frobenius norm of the beta-beta block that
    should have been zero.
    """

    def __init__(self, message, beta_block_norm):
        super().__init__(message)
        self.beta_block_norm = beta_block_norm


def xi_matrix(ied):
    """Coefficient matrix of the projector's directional derivative.

    Entry (i, j) is (max(lam_i,0) - max(lam_j,0)) / (lam_i - lam_j)
    with beta eigenvalues treated as exact zeros, so 1 wherever both
    indices are nonnegative (equal pairs by the 0/0 := 1 convention)
    and 0 when both sit in gamma.
    """
    n, p, q = ied.n, ied.p, ied.q
    xi = np.zeros((n, n))
    r = n - q  # first gamma index
    xi[:r, :r] = 1.0
    if p and q:
        la = ied.eigenvalues[:p][:, None]
        lg = ied.eigenvalues[r:][None, :]
        block = la / (la - lg)
        xi[:p, r:] = block
        xi[r:, :p] = block.T
    return xi


def _xi_product(ied, h, beta_map):
    """P (xi o P^T h P) P^T with ``beta_map`` applied to the beta-beta block."""
    p, r = ied.p, ied.n - ied.q
    ht = ied.basis.T @ h @ ied.basis
    out = xi_matrix(ied) * ht
    if r > p:
        out[p:r, p:r] = beta_map(ht[p:r, p:r])
    return sym(ied.basis @ out @ ied.basis.T)


def proj_dir_derivative(ied, h):
    """Directional derivative of the PSD projector at ``ied.matrix`` along ``h``.

    Valid for arbitrary directions: the beta-beta block of the rotated
    direction passes through an inner PSD projection, which is what makes
    the projector merely B-differentiable off the strata.
    """
    return _xi_product(ied, h, psd_part)


def stratum_differential(ied, h):
    """Differential of the PSD projector restricted to the stratum of ``ied``.

    ``h`` must be tangent: the beta-beta block of the rotated direction
    has to vanish (up to 1e-10 relative), otherwise a
    :class:`TangencyViolation` is raised with the measured norm.
    """

    def vanishing(block):
        bb = frob(block)
        if bb > 1e-10 * frob(h):
            raise TangencyViolation(
                f"direction is not tangent to the stratum: |beta block| = {bb:.3e}",
                beta_block_norm=bb,
            )
        return 0.0

    return _xi_product(ied, h, vanishing)


def dir_derivative_phi(problem, z, v_x, v_y, res=None, jac=None) -> float:
    """One-sided directional derivative of phi at ``z`` along an ambient direction.

    Splits H = apply_dg(x, v_x) + v_y into its tangent part H1 and normal
    part H2.  The tangent part pairs with the pulled-back residual
    J^T r; the normal part contributes through the two one-sided cone
    projections, which is where the nonsmoothness of phi lives:

        phi'(z; v) = <J^T r, (v_x, H1)>
                     + <dg F1, NSD(H2)> + <dg F1 + F2, PSD(H2)>.

    ``res`` and ``jac`` default to the residual and the library's
    Jacobian at ``z``.
    """
    if res is None:
        res = residual(problem, z)
    ied = res.ied
    if jac is None:
        frame = TangentFrame(problem, z, ied)
        jac = assemble_dF(frame)
    else:
        frame = jac.frame
    h = problem.apply_dg(z.x, v_x) + v_y
    h2 = normal_project_pi2(ied, h)
    h1 = h - h2
    u1 = np.concatenate([v_x, coeffs_from_matrix(frame, h1)])
    pulled = jac.apply_adjoint(frame.coords(res))
    term_tangent = float(pulled @ u1)
    dg_f1 = problem.apply_dg(z.x, res.f1)
    term_neg = frob_inner(dg_f1, nsd_part(h2))
    term_pos = frob_inner(dg_f1 + res.f2, psd_part(h2))
    return term_tangent + term_neg + term_pos


# ---------------------------------------------------------------------------
# slow reference implementations
# ---------------------------------------------------------------------------


def _unit(size, i):
    e = np.zeros(size)
    e[i] = 1.0
    return e


def _blocks(ied, k):
    """(is_beta, is_gamma) for index ``k`` of the IED."""
    r = ied.n - ied.q
    return ied.p <= k < r, k >= r


def assemble_dF_by_columns(problem, z, frame) -> SimpleNamespace:
    """The dense Jacobian, as ``.matrix``, one column at a time through the callbacks."""
    ied = frame.ied
    m, n = problem.m, ied.n
    n_sym = n * (n + 1) // 2
    cols = []
    for i in range(m):
        dg_e = problem.apply_dg(z.x, _unit(m, i))
        top = problem.apply_hess_lagrangian(z.x, z.y, _unit(m, i)) - problem.adjoint_dg(
            z.x, dg_e
        )
        cols.append(np.concatenate([top, sym_to_vec(-dg_e)]))
    for idx in range(frame.dim_tangent):
        h = tangent_matrix(frame.ied, _unit(frame.dim_tangent, idx))
        top = problem.adjoint_dg(z.x, h)
        cols.append(np.concatenate([top, sym_to_vec(stratum_differential(ied, h))]))
    matrix = np.stack(cols, axis=1) if cols else np.zeros((m + n_sym, 0))
    return SimpleNamespace(matrix=matrix)


def _rotated_images(problem, z, ied):
    m = problem.m
    return [ied.basis.T @ problem.apply_dg(z.x, _unit(m, i)) @ ied.basis for i in range(m)]


def _trailing_pairs(ied, include_bb):
    """The pairs (k, l), k <= l, of the trailing block, by a double loop."""
    pairs = []
    for k in range(ied.n):
        for l in range(k, ied.n):
            k_beta, k_gamma = _blocks(ied, k)
            l_beta, l_gamma = _blocks(ied, l)
            if (
                (include_bb and k_beta and l_beta)
                or (k_beta and l_gamma)
                or (l_beta and k_gamma)
                or (k_gamma and l_gamma)
            ):
                pairs.append((k, l))
    return pairs


def constraint_rows(problem, z, ied, include_bb):
    """Rows of v -> selected blocks of P^T (dg* v) P, by a double loop."""
    images = _rotated_images(problem, z, ied)
    rows = [[img[k, l] for img in images] for k, l in _trailing_pairs(ied, include_bb)]
    return np.asarray(rows) if rows else np.zeros((0, problem.m))


def dual_span_margin(problem, z, ied, include_bb):
    """min ||dg* D|| over unit D on the trailing pairs: the smallest
    singular value of the sqrt(2)-weighted :func:`constraint_rows`, 0 with
    more rows than m and infinite with none."""
    pairs = _trailing_pairs(ied, include_bb)
    if len(pairs) > problem.m:
        return 0.0
    if not pairs:
        return np.inf
    weights = np.array([1.0 if k == l else np.sqrt(2.0) for k, l in pairs])
    rows = weights[:, None] * constraint_rows(problem, z, ied, include_bb)
    return float(np.linalg.svd(rows, compute_uv=False)[-1])


def quad_form_matrix(problem, z, ied, basis):
    """The reduced second order form, one basis pair at a time."""
    k = basis.shape[1]
    if k == 0:
        return np.zeros((0, 0))
    p, r = ied.p, ied.n - ied.q
    lam = ied.eigenvalues
    hess_cols = np.stack(
        [problem.apply_hess_lagrangian(z.x, z.y, basis[:, a]) for a in range(k)], axis=1
    )
    out = basis.T @ hess_cols
    if p and ied.q:
        weights = -lam[r:][None, :] / lam[:p][:, None]
        blocks = [
            (ied.basis.T @ problem.apply_dg(z.x, basis[:, a]) @ ied.basis)[:p, r:]
            for a in range(k)
        ]
        for a in range(k):
            for b in range(k):
                out[a, b] += 2.0 * float(np.sum(weights * blocks[a] * blocks[b]))
    return sym(out)


def span_margin(problem, z, ied, include_bb):
    """sigma_{n_sym} of dg* e_i and the allowed P E_kl P^T, in plain coordinates."""
    m, n = problem.m, ied.n
    n_sym = n * (n + 1) // 2
    cols = [sym_to_vec(problem.apply_dg(z.x, _unit(m, i))) for i in range(m)]
    for k in range(n):
        for l in range(k, n):
            k_beta, k_gamma = _blocks(ied, k)
            l_beta, l_gamma = _blocks(ied, l)
            if (
                ((not include_bb) and k_beta and l_beta)
                or (k_beta and l_gamma)
                or (k_gamma and l_gamma)
            ):
                continue
            e = np.zeros((n, n))
            e[k, l] = e[l, k] = 1.0 if k == l else 1.0 / np.sqrt(2.0)
            cols.append(sym_to_vec(ied.basis @ e @ ied.basis.T))
    if len(cols) < n_sym:
        return 0.0
    return float(np.linalg.svd(np.stack(cols, axis=1), compute_uv=False)[n_sym - 1])


def second_order_margin(problem, z, ied, include_bb, definite):
    """W-SOC (``definite``) or SSOSC margin from the reference pieces.

    The null space comes from numpy's full SVD with the library's rank
    tolerance; W-SOC's margin is min |lambda| when the form is one-signed,
    else -min(lambda_max, -lambda_min).
    """
    rows = constraint_rows(problem, z, ied, include_bb)
    _, svals, vt = np.linalg.svd(rows)
    rank = int(np.sum(svals > RANK_TOL * svals[0])) if svals.size else 0
    basis = vt[rank:].T
    if basis.shape[1] == 0:
        return np.inf
    eigs = np.linalg.eigvalsh(quad_form_matrix(problem, z, ied, basis))
    if not definite:
        return float(eigs[0])
    if eigs[0] > 0 or eigs[-1] < 0:
        return float(np.min(np.abs(eigs)))
    return -float(min(eigs[-1], -eigs[0]))


def _project_polar_cone(ied, dt):
    """Projection onto {D : D_aa = D_ab = D_ag = 0, D_bb NSD}, D in the eigenbasis."""
    p, r = ied.p, ied.n - ied.q
    out = np.zeros_like(dt)
    out[p:, p:] = dt[p:, p:]
    if r > p:
        out[p:r, p:r] = nsd_part(dt[p:r, p:r])
    return out


def srcq_probe(problem, z, ied, restarts=20, seed=0, iterations=300, alignment_tol=1e-4,
               log=None):
    """(verdict, margin) of the SRCQ alternating projections on full matrices.

    Each alternation projects an n x n eigenbasis iterate onto the null
    space of the rotated dg* in ``sym_to_vec`` coordinates, then onto the
    polar cone by a block mask, from the same random starts as the
    library probe.  The restarts run one after another; if ``log`` is a
    list, each restart appends its number of polar-cone projections.
    """
    res = residual(problem, z, ied.zero_tol)
    if frob(res.f2) > 1e-6 * max(1.0, frob(res.ied.matrix)):
        return NOT_APPLICABLE, np.nan
    n, m = ied.n, problem.m
    images = _rotated_images(problem, z, ied)
    rows = np.array([sym_to_vec(img) for img in images]).reshape(m, n * (n + 1) // 2)
    null = _null_space(rows)
    rng = np.random.default_rng(seed)
    log = [] if log is None else log
    worst = 0.0
    for _ in range(restarts):
        start = ied.basis.T @ rng.standard_normal((n, n)) @ ied.basis
        d = _project_polar_cone(ied, sym(start))
        log.append(1)
        norm = frob(d)
        if norm == 0.0:
            continue
        d /= norm
        alignment = 0.0
        for _ in range(iterations):
            in_null = vec_to_sym(null @ (null.T @ sym_to_vec(d)), n)
            alignment = frob(in_null) / frob(d)
            if alignment > 1.0 - 0.1 * alignment_tol:
                break
            d = _project_polar_cone(ied, in_null)
            log[-1] += 1
            norm = frob(d)
            if norm == 0.0:
                alignment = 0.0
                break
            d /= norm
        worst = max(worst, alignment)
        if worst > 1.0 - 0.1 * alignment_tol:
            break
    return (HEURISTIC_HOLDS if worst < 1.0 - alignment_tol else HEURISTIC_FAILS), worst


def retract_by_eigendecomposition(ied, h):
    """``spectral.retract_fixed_inertia`` on every stratum, beta = 0
    included: eigendecompose G + h, test the inertia, and rebuild from
    the kept eigenvalues.  On a stratum without beta the library returns
    G + h itself; it must raise where this does and otherwise return
    G + h bit for bit.
    """
    p, q, n = ied.p, ied.q, ied.n
    basis, lam = eig_sym(ied.matrix + h)
    tol = ied.zero_tol
    if p and lam[p - 1] <= tol:
        raise InertiaViolation(f"retraction target has fewer than {p} positive eigenvalues")
    if q and lam[n - q] >= -tol:
        raise InertiaViolation(f"retraction target has fewer than {q} negative eigenvalues")
    kept = lam.copy()
    kept[p : n - q] = 0.0
    return sym(basis @ (kept[:, None] * basis.T))


def normal_dirs_stacked(frame, res):
    """(W1, W2) of ``solver.normal_dirs`` with both beta-beta blocks in
    one stacked ``np.linalg.eigh``; ``normal_dirs`` decomposes them one
    by one and must agree with this bit for bit.
    """
    ied = frame.ied
    n, p, r = ied.n, ied.p, ied.n - ied.q
    if r == p:
        return np.zeros((n, n)), np.zeros((n, n))
    pb = ied.basis[:, p:r]
    block1 = -vec_to_sym(frame.c_mat @ res.f1, n)[p:r, p:r]
    lam, basis = np.linalg.eigh(sym(np.stack([block1, block1 - pb.T @ res.f2 @ pb])))
    basis, lam = basis[..., ::-1].copy(), lam[..., ::-1].copy()
    clipped = np.stack([np.minimum(lam[0], 0.0), np.maximum(lam[1], 0.0)])
    parts = sym(basis @ (clipped[..., None] * np.swapaxes(basis, -1, -2)))
    return sym(pb @ parts[0] @ pb.T), sym(pb @ parts[1] @ pb.T)


def slmn_unscreened(state, config):
    """``solver.slmn`` without its F1 screen: every normal candidate that
    exists gets its full residual.  ``slmn`` must pick the same outcome,
    bit for bit.
    """
    frame = state.jac.frame
    problem, z, res = frame.problem, frame.z, state.res
    candidates = []
    if state.v_lm is not None and state.v_lm.norm > 0.0:
        dphi = float(state.pulled @ state.v_lm.as_vec())
        try:
            z_lm, res_lm, j, left = armijo_search(res, state.v_lm, dphi, config)
            candidates.append(SlmnOutcome(z_lm, res_lm, "lm", j, RHO**j * state.v_lm.norm, left))
        except LineSearchFailure:
            pass
    for which, w, kind in ((1, state.w1, "normal1"), (2, state.w2, "normal2")):
        try:
            cand = normal_step(frame, w, which)
        except NumericalInconsistency:
            continue
        if cand is None:
            continue
        cand_res = residual(problem, cand, config.zero_tol)
        candidates.append(SlmnOutcome(cand, cand_res, kind, 0, float(frob(cand.y - z.y))))
    viable = [c for c in candidates if c.res.phi < res.phi]
    if not viable:
        return SlmnOutcome(z, res, "stall", 0, 0.0)
    return min(viable, key=lambda c: c.res.phi)


def lm_solve_errors(jac, r, mu, cholesky=True):
    """Errors of the structured and the dense Cholesky LM solve against QR.

    The reference solves the least-squares problem A u ~ b, with
    A = [J; sqrt(mu) I] and b = [-r; 0], by QR of the dense J.  Returns
    the relative errors (structured, dense) of
    ``jac.solve_regularized(r, mu)`` and of a Cholesky solve of
    (J^T J + mu I) u = -J^T r, and the first-order error bound
    eps (kappa + kappa^2 eta) of the problem, kappa the condition number
    of A and eta = ||A u - b|| / (||A|| ||u||); None when the solution is
    zero.  Propagates the ``LinAlgError`` of a failed Cholesky
    factorization; with ``cholesky=False`` the Cholesky solve is skipped
    and its error is NaN.
    """
    dense = jac.matrix
    dim = dense.shape[1]
    aug = np.vstack([dense, np.sqrt(mu) * np.eye(dim)])
    target = np.concatenate([-r, np.zeros(dim)])
    qmat, rmat = np.linalg.qr(aug)
    exact = scipy.linalg.solve_triangular(rmat, qmat.T @ target)
    by_dense = np.full(dim, np.nan)
    if cholesky:
        cho = scipy.linalg.cho_factor(dense.T @ dense + mu * np.eye(dim))
        by_dense = scipy.linalg.cho_solve(cho, -(dense.T @ r))
    scale = np.linalg.norm(exact)
    if scale == 0.0:
        return None
    svals = np.linalg.svd(aug, compute_uv=False)
    kappa = svals[0] / svals[-1]
    eta = np.linalg.norm(aug @ exact - target) / (svals[0] * scale)
    return (
        np.linalg.norm(jac.solve_regularized(r, mu) - exact) / scale,
        np.linalg.norm(by_dense - exact) / scale,
        np.finfo(float).eps * (kappa + kappa**2 * eta),
    )
