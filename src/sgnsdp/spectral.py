"""Eigenstructure tools for dense symmetric matrices.

Everything downstream runs through the indexed eigenvalue decomposition
(IED) built here: eigenvalues sorted nonincreasing and split into the
index sets alpha (positive), beta (zero within a tolerance) and gamma
(negative).  Fixing the sizes ``p = |alpha|`` and ``q = |gamma|`` pins a
smooth stratum of the symmetric matrices on which the PSD projector is
differentiable; this module provides that projector, its on-stratum
differential, tangent/normal projections, an orthonormal tangent basis,
and a fixed-inertia retraction.

Two flat layouts are used for symmetric matrices and must not be mixed:

* ``pack_sym``/``unpack_sym`` - storage layout for files: the lower
  triangle row-major, raw entries, ``(i, j)`` with ``i >= j`` at index
  ``i*(i+1)//2 + j``.
* ``sym_to_vec``/``vec_to_sym`` - orthonormal coordinates for linear
  algebra: upper triangle row-major with off-diagonal entries scaled by
  sqrt(2), so Euclidean inner products equal Frobenius inner products.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import InertiaViolation, NumericalError, TangencyViolation

SQRT2 = np.sqrt(2.0)


def sym(a: np.ndarray) -> np.ndarray:
    """Symmetrize, killing round-off skew from products."""
    return 0.5 * (a + a.T)


def frob(a: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def frob_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius inner product <A, B> = trace(A B) for symmetric A, B."""
    return float(np.sum(a * b))


# ---------------------------------------------------------------------------
# packed storage (file layout)
# ---------------------------------------------------------------------------

def packed_length(n: int) -> int:
    return n * (n + 1) // 2


def packed_index(i: int, j: int) -> int:
    """Flat index of entry (i, j), i >= j, in the packed lower triangle."""
    if j > i:
        i, j = j, i
    return i * (i + 1) // 2 + j


def pack_sym(a: np.ndarray) -> np.ndarray:
    """Flatten the lower triangle row-major, raw (unscaled) entries."""
    n = a.shape[0]
    il, jl = np.tril_indices(n)
    return np.asarray(a, dtype=float)[il, jl].copy()


def unpack_sym(flat: np.ndarray, n: int) -> np.ndarray:
    """Rebuild a dense matrix from packed storage; symmetric by construction."""
    flat = np.asarray(flat, dtype=float)
    if flat.shape != (packed_length(n),):
        raise ValueError(
            f"packed length {flat.shape} does not match order {n}"
        )
    a = np.zeros((n, n))
    il, jl = np.tril_indices(n)
    a[il, jl] = flat
    a[jl, il] = flat
    return a


# ---------------------------------------------------------------------------
# orthonormal vectorization (linear-algebra layout)
# ---------------------------------------------------------------------------

def sym_to_vec(a: np.ndarray) -> np.ndarray:
    """Isometric coordinates of a symmetric matrix (upper triangle, sqrt2 off-diag).

    Acts on the last two axes, so it maps stacks of matrices too.
    """
    n = a.shape[-1]
    iu, ju = np.triu_indices(n)
    scale = np.where(iu == ju, 1.0, SQRT2)
    return a[..., iu, ju] * scale


def vec_to_sym(v: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`sym_to_vec`; acts on the last axis, so it maps stacks too."""
    iu, ju = np.triu_indices(n)
    scale = np.where(iu == ju, 1.0, SQRT2)
    v = np.asarray(v, dtype=float)
    a = np.zeros(v.shape[:-1] + (n, n))
    a[..., iu, ju] = v / scale
    a[..., ju, iu] = a[..., iu, ju]
    return a


# ---------------------------------------------------------------------------
# eigendecomposition and the IED
# ---------------------------------------------------------------------------

def eig_sym(a: np.ndarray):
    """Eigendecompose a symmetric matrix with eigenvalues sorted nonincreasing.

    Returns
    -------
    basis : (n, n) orthogonal matrix, columns ordered by eigenvalue
    eigenvalues : (n,) nonincreasing
    """
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise NumericalError(
            "eigendecomposition input contains non-finite entries",
            norm=float(np.linalg.norm(np.nan_to_num(a))),
            order=a.shape[0],
        )
    try:
        lam, basis = np.linalg.eigh(sym(a))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"symmetric eigendecomposition failed: {exc}",
            norm=frob(a),
            order=a.shape[0],
        ) from exc
    return basis[:, ::-1].copy(), lam[::-1].copy()


def default_zero_tol(eigenvalues: np.ndarray) -> float:
    """Scale-invariant threshold separating zero from nonzero eigenvalues."""
    spectral = float(np.max(np.abs(eigenvalues))) if eigenvalues.size else 0.0
    return 1e-10 * max(1.0, spectral)


@dataclass(frozen=True)
class IED:
    """Indexed eigenvalue decomposition of a symmetric matrix.

    ``basis`` is orthogonal with columns ordered by nonincreasing
    eigenvalue; ``alpha``/``beta``/``gamma`` partition the indices into
    eigenvalues above ``zero_tol``, within it, and below ``-zero_tol``.
    The basis within an eigenvalue cluster is whatever the eigensolver
    returned; every consumer is required to be invariant to that choice.

    ``xi`` is the coefficient matrix of the projector's directional
    derivative: entry (i, j) is (max(lam_i,0) - max(lam_j,0)) / (lam_i - lam_j)
    with beta eigenvalues treated as exact zeros, so 1 wherever both
    indices are nonnegative (equal pairs by the 0/0 := 1 convention) and
    0 when both sit in gamma.
    """

    matrix: np.ndarray
    basis: np.ndarray
    eigenvalues: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    p: int
    q: int
    zero_tol: float
    xi: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def n_beta(self) -> int:
        return self.n - self.p - self.q

    @property
    def inertia(self) -> tuple:
        return (self.p, self.q)


def _xi_from_classification(eigenvalues, p, q):
    # 1 on the alpha x (alpha u beta) and beta x beta blocks, the
    # projector difference quotient on alpha x gamma, 0 elsewhere;
    # equal eigenvalues follow the 0/0 := 1 convention on the
    # nonnegative side and 0 on the gamma side.
    n = eigenvalues.shape[0]
    xi = np.zeros((n, n))
    r = n - q  # first gamma index
    xi[:r, :r] = 1.0
    if p and q:
        la = eigenvalues[:p][:, None]
        lg = eigenvalues[r:][None, :]
        block = la / (la - lg)
        xi[:p, r:] = block
        xi[r:, :p] = block.T
    return xi


def make_ied(a: np.ndarray, zero_tol: float | None = None) -> IED:
    """Build an IED of ``a``.

    Parameters
    ----------
    a : symmetric matrix
    zero_tol : classification threshold; ``None`` selects the
        scale-invariant default ``1e-10 * max(1, spectral norm)``.
    """
    a = sym(np.asarray(a, dtype=float))
    basis, lam = eig_sym(a)
    if zero_tol is None:
        zero_tol = default_zero_tol(lam)
    if zero_tol < 0:
        raise ValueError("zero_tol must be nonnegative")
    n = lam.shape[0]
    p = int(np.sum(lam > zero_tol))
    q = int(np.sum(lam < -zero_tol))
    return IED(
        matrix=a,
        basis=basis,
        eigenvalues=lam,
        alpha=np.arange(0, p),
        beta=np.arange(p, n - q),
        gamma=np.arange(n - q, n),
        p=p,
        q=q,
        zero_tol=float(zero_tol),
        xi=_xi_from_classification(lam, p, q),
    )


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------

def project_psd(ied: IED) -> np.ndarray:
    """Metric projection onto the PSD cone: keep the alpha eigenpairs."""
    pa = ied.basis[:, : ied.p]
    return sym(pa @ (ied.eigenvalues[: ied.p, None] * pa.T))


def project_nsd(ied: IED) -> np.ndarray:
    """Metric projection onto the NSD cone: keep the gamma eigenpairs."""
    r = ied.n - ied.q
    pg = ied.basis[:, r:]
    return sym(pg @ (ied.eigenvalues[r:, None] * pg.T))


def psd_part(a: np.ndarray) -> np.ndarray:
    """Threshold-free PSD part: clip eigenvalues at zero."""
    basis, lam = eig_sym(a)
    return sym(basis @ (np.maximum(lam, 0.0)[:, None] * basis.T))


def nsd_part(a: np.ndarray) -> np.ndarray:
    """Threshold-free NSD part: clip eigenvalues at zero from above."""
    basis, lam = eig_sym(a)
    return sym(basis @ (np.minimum(lam, 0.0)[:, None] * basis.T))


def _xi_product(ied: IED, h: np.ndarray, beta_map) -> np.ndarray:
    """P (xi o P^T h P) P^T with ``beta_map`` applied to the beta-beta block."""
    p, r = ied.p, ied.n - ied.q
    ht = ied.basis.T @ h @ ied.basis
    out = ied.xi * ht
    if r > p:
        out[p:r, p:r] = beta_map(ht[p:r, p:r])
    return sym(ied.basis @ out @ ied.basis.T)


def proj_dir_derivative(ied: IED, h: np.ndarray) -> np.ndarray:
    """Directional derivative of the PSD projector at ``ied.matrix`` along ``h``.

    Valid for arbitrary directions: the beta-beta block of the rotated
    direction passes through an inner PSD projection, which is what makes
    the projector merely B-differentiable off the strata.
    """
    return _xi_product(ied, h, psd_part)


def stratum_differential(ied: IED, h: np.ndarray) -> np.ndarray:
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


# ---------------------------------------------------------------------------
# tangent structure of the stratum
# ---------------------------------------------------------------------------

def stratum_dimension(n: int, p: int, q: int) -> int:
    """dim of the fixed-inertia manifold: n(p+q) - (p+q)(p+q-1)/2."""
    r = p + q
    return n * r - r * (r - 1) // 2


def pair_mask(ied: IED, blocks) -> np.ndarray:
    """Mask of the pairs in ``np.triu_indices(n)`` order joining ``blocks``.

    ``blocks`` names block pairs such as ``("bb", "bg", "gg")`` with
    a = alpha, b = beta, g = gamma, earlier block first.
    """
    block = np.repeat([0, 1, 2], [ied.p, ied.n_beta, ied.q])
    iu, ju = np.triu_indices(ied.n)
    codes = [3 * "abg".index(b[0]) + "abg".index(b[1]) for b in blocks]
    return np.isin(3 * block[iu] + block[ju], codes)


def tangent_pairs(ied: IED) -> np.ndarray:
    """Index pairs (k, l), k <= l, not both in beta, in upper-triangle order."""
    iu, ju = np.triu_indices(ied.n)
    keep = ~pair_mask(ied, ("bb",))
    return np.stack([iu[keep], ju[keep]], axis=1)


def tangent_matrix(ied: IED, coeffs: np.ndarray) -> np.ndarray:
    """Tangent matrix P (sum_t c_t E_t) P^T from tangent-basis coefficients.

    E_kk = e_k e_k^T and E_kl = (e_k e_l^T + e_l e_k^T)/sqrt(2) for k < l,
    over :func:`tangent_pairs`.  Leading axes of ``coeffs`` are batch
    axes: coefficients of shape (..., T) give matrices of shape (..., n, n).
    """
    coeffs = np.asarray(coeffs, dtype=float)
    k, l = tangent_pairs(ied).T
    ht = np.zeros(coeffs.shape[:-1] + (ied.n, ied.n))
    ht[..., k, l] = coeffs / np.where(k == l, 1.0, SQRT2)
    ht[..., l, k] = ht[..., k, l]
    out = ied.basis @ ht @ ied.basis.T
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def tangent_basis(ied: IED) -> list:
    """Orthonormal basis of the tangent space at ``ied.matrix``.

    Elements are P E_kl P^T for the pairs of :func:`tangent_pairs`, with
    E_kl as in :func:`tangent_matrix`.
    """
    dim = tangent_pairs(ied).shape[0]
    return list(tangent_matrix(ied, np.eye(dim)))


def normal_project_pi2(ied: IED, h: np.ndarray) -> np.ndarray:
    """Projection onto the normal space: keep only the beta-beta block."""
    p, q, n = ied.p, ied.q, ied.n
    r = n - q
    if r - p == 0:
        return np.zeros((n, n))
    pb = ied.basis[:, p:r]
    return sym(pb @ (pb.T @ h @ pb) @ pb.T)


def tangent_project_pi1(ied: IED, h: np.ndarray) -> np.ndarray:
    """Projection onto the tangent space; complements :func:`normal_project_pi2`."""
    return h - normal_project_pi2(ied, h)


# ---------------------------------------------------------------------------
# retraction and IED non-uniqueness
# ---------------------------------------------------------------------------

def retract_fixed_inertia(ied: IED, h: np.ndarray) -> np.ndarray:
    """Project ``matrix + h`` back onto the stratum of ``ied``.

    Eigendecomposes the target, keeps the top ``p`` and bottom ``q``
    eigenvalues by position, and zeroes the middle ones.  Raises
    :class:`InertiaViolation` when the target no longer has ``p``
    eigenvalues above the zero tolerance or ``q`` below its negative;
    line searches treat that as a rejected trial.
    """
    p, q, n = ied.p, ied.q, ied.n
    target = sym(ied.matrix + h)
    basis, lam = eig_sym(target)
    tol = ied.zero_tol
    if p and lam[p - 1] <= tol:
        raise InertiaViolation(
            f"retraction target has fewer than {p} positive eigenvalues"
        )
    if q and lam[n - q] >= -tol:
        raise InertiaViolation(
            f"retraction target has fewer than {q} negative eigenvalues"
        )
    kept = lam.copy()
    kept[p : n - q] = 0.0
    return sym(basis @ (kept[:, None] * basis.T))


def rotate_within_eigenspaces(ied: IED, seed: int) -> IED:
    """Re-draw the eigenbasis inside each cluster of equal eigenvalues.

    Test utility for the non-uniqueness of the decomposition: the result
    represents the same matrix (clusters are detected with the IED's own
    zero tolerance, and all of beta counts as one cluster), so every
    downstream operation must agree on both versions.
    """
    rng = np.random.default_rng(seed)
    lam = ied.eigenvalues
    n, p, q = ied.n, ied.p, ied.q
    r = n - q
    clusters = [[0]]
    for i in range(1, n):
        both_beta = p <= i < r and p <= i - 1 < r
        if both_beta or lam[i - 1] - lam[i] <= ied.zero_tol:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    new_basis = ied.basis.copy()
    for cluster in clusters:
        k = len(cluster)
        gauss = rng.standard_normal((k, k))
        qmat, rmat = np.linalg.qr(gauss)
        qmat = qmat * np.sign(np.diag(rmat))
        new_basis[:, cluster] = new_basis[:, cluster] @ qmat
    return replace(ied, basis=new_basis)
