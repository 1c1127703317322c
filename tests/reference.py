"""Slow reference implementations the vectorised library code must match.

These are the straightforward constructions: the stratum Jacobian built
column by column through ``adjoint_dg`` and ``stratum_differential``,
the regularity quantities built by explicit loops over matrix
entries in the eigenbasis, and the SRCQ probe iterating on full n x n
matrices.  They share no code with the library's constraint stack, so
agreement is evidence for both.
"""

import numpy as np

from sgnsdp.kkt import AssembledJacobian, residual
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
    stratum_differential,
    sym,
    sym_to_vec,
    vec_to_sym,
)


def _unit(size, i):
    e = np.zeros(size)
    e[i] = 1.0
    return e


def _blocks(ied, k):
    """(is_beta, is_gamma) for index ``k`` of the IED."""
    r = ied.n - ied.q
    return ied.p <= k < r, k >= r


def assemble_dF_by_columns(problem, z, frame) -> AssembledJacobian:
    """The Jacobian one column at a time through the problem callbacks."""
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
        h = frame.matrix_from_coeffs(_unit(frame.dim_tangent, idx))
        top = problem.adjoint_dg(z.x, h)
        cols.append(np.concatenate([top, sym_to_vec(stratum_differential(ied, h))]))
    matrix = np.stack(cols, axis=1) if cols else np.zeros((m + n_sym, 0))
    return AssembledJacobian(matrix=matrix, frame=frame)


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


def srcq_probe(problem, z, ied, restarts=20, seed=0, iterations=300, alignment_tol=1e-4):
    """(verdict, margin) of the SRCQ alternating projections on full matrices.

    Each alternation projects an n x n eigenbasis iterate onto the null
    space of the rotated dg* in ``sym_to_vec`` coordinates, then onto the
    polar cone by a block mask, from the same random starts as the
    library probe.
    """
    res = residual(problem, z, ied.zero_tol)
    if frob(res.f2) > 1e-6 * max(1.0, frob(res.g_matrix)):
        return NOT_APPLICABLE, np.nan
    n, m = ied.n, problem.m
    images = _rotated_images(problem, z, ied)
    rows = np.array([sym_to_vec(img) for img in images]).reshape(m, n * (n + 1) // 2)
    null = _null_space(rows)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(restarts):
        start = ied.basis.T @ rng.standard_normal((n, n)) @ ied.basis
        d = _project_polar_cone(ied, sym(start))
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
            norm = frob(d)
            if norm == 0.0:
                alignment = 0.0
                break
            d /= norm
        worst = max(worst, alignment)
        if worst > 1.0 - 0.1 * alignment_tol:
            break
    return (HEURISTIC_HOLDS if worst < 1.0 - alignment_tol else HEURISTIC_FAILS), worst
