"""The paper's analysis oracles and slow reference implementations.

The oracles are the derivatives that the analysis uses and the solver
does not: the directional derivative of the PSD projector, its
differential on a stratum as a matrix function, and the one-sided
directional derivative of the merit phi.

The reference implementations are the straightforward constructions
the vectorised library code must match: the stratum Jacobian built
column by column through ``adjoint_dg`` and :func:`stratum_differential`,
the regularity quantities built by explicit loops over matrix entries
in the eigenbasis, and the SRCQ probe iterating on full n x n matrices.
They share no code with the library's constraint stack or its Jacobian
assembly, so agreement is evidence for both.
"""

from types import SimpleNamespace

import numpy as np

from support import coeffs_from_matrix, frob_inner, normal_project_pi2, tangent_matrix

from sgnsdp.errors import SgnsdpError
from sgnsdp.kkt import TangentFrame, assemble_dF, residual
from sgnsdp.regularity import (
    HEURISTIC_FAILS,
    HEURISTIC_HOLDS,
    NOT_APPLICABLE,
    _definite_margin,
    _null_space,
)
from sgnsdp.spectral import (
    frob,
    nsd_part,
    psd_part,
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


def _xi_product(ied, h, beta_map):
    """P (xi o P^T h P) P^T with ``beta_map`` applied to the beta-beta block."""
    p, r = ied.p, ied.n - ied.q
    ht = ied.basis.T @ h @ ied.basis
    out = ied.xi * ht
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


def constraint_rows(problem, z, ied, include_bb):
    """Rows of v -> selected blocks of P^T (dg* v) P, by a double loop."""
    m, n = problem.m, ied.n
    images = _rotated_images(problem, z, ied)
    rows = []
    for k in range(n):
        for l in range(k, n):
            k_beta, k_gamma = _blocks(ied, k)
            l_beta, l_gamma = _blocks(ied, l)
            if (
                (include_bb and k_beta and l_beta)
                or (k_beta and l_gamma)
                or (l_beta and k_gamma)
                or (k_gamma and l_gamma)
            ):
                rows.append([img[k, l] for img in images])
    return np.asarray(rows) if rows else np.zeros((0, m))


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
    """W-SOC (``definite``) or SSOSC margin from the reference pieces."""
    basis = _null_space(constraint_rows(problem, z, ied, include_bb))
    if basis.shape[1] == 0:
        return np.inf
    eigs = np.linalg.eigvalsh(quad_form_matrix(problem, z, ied, basis))
    return _definite_margin(eigs) if definite else float(np.min(eigs))


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
