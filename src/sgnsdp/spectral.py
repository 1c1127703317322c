"""Eigenstructure tools for dense symmetric matrices.

Everything downstream runs through the indexed eigenvalue decomposition
(IED) built here: eigenvalues sorted nonincreasing and split into the
index sets alpha (positive), beta (zero within a tolerance) and gamma
(negative).  Fixing the sizes ``p = |alpha|`` and ``q = |gamma|`` pins a
smooth stratum of the symmetric matrices on which the PSD projector is
differentiable; this module provides that projector, the threshold-free
PSD and NSD parts, the block selection of :func:`pair_mask` (the tangent
pairs of a stratum are the pairs not both in beta) and a fixed-inertia
retraction.  The projector's on-stratum differential enters the solver
only through the xi block of ``kkt.assemble_dF``, diagonal in the
eigenbasis; its matrix form, the tangent/normal projections and a
tangent basis are test oracles in ``tests/reference.py`` and
``tests/support.py``.

Two flat layouts are used for symmetric matrices and must not be mixed:

* ``pack_sym``/``unpack_sym`` - storage layout for files: the lower
  triangle row-major, raw entries, ``(i, j)`` with ``i >= j`` at index
  ``i*(i+1)//2 + j``.
* ``sym_to_vec``/``vec_to_sym`` - orthonormal coordinates for linear
  algebra: upper triangle row-major with off-diagonal entries scaled by
  sqrt(2), so Euclidean inner products equal Frobenius inner products.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InertiaViolation, NumericalError

SQRT2 = np.sqrt(2.0)


def sym(a: np.ndarray) -> np.ndarray:
    """Symmetrize, killing round-off skew from products; acts on the last two axes."""
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def frob(a: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a))


# ---------------------------------------------------------------------------
# packed storage (file layout)
# ---------------------------------------------------------------------------

def packed_length(n: int) -> int:
    return n * (n + 1) // 2


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

@lru_cache(maxsize=64)
def triu_pairs(n: int):
    """``np.triu_indices(n)`` and the weight of each pair: 1 on the
    diagonal, sqrt(2) off it.  Cached per order, so the arrays are read-only.
    """
    iu, ju = np.triu_indices(n)
    scale = np.where(iu == ju, 1.0, SQRT2)
    for arr in (iu, ju, scale):
        arr.flags.writeable = False
    return iu, ju, scale


def sym_to_vec(a: np.ndarray) -> np.ndarray:
    """Isometric coordinates of a symmetric matrix (upper triangle, sqrt2 off-diag).

    Acts on the last two axes, so it maps stacks of matrices too.
    """
    iu, ju, scale = triu_pairs(a.shape[-1])
    return a[..., iu, ju] * scale


def vec_to_sym(v: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`sym_to_vec`; acts on the last axis, so it maps stacks too."""
    iu, ju, scale = triu_pairs(n)
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

    Acts on the last two axes, so it decomposes a stack of matrices in
    one call; a non-finite entry anywhere in the stack raises.

    Returns
    -------
    basis : (..., n, n) orthogonal matrices, columns ordered by eigenvalue
    eigenvalues : (..., n) nonincreasing
    """
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise NumericalError(
            "eigendecomposition input contains non-finite entries",
            norm=frob(a[np.isfinite(a)]),  # of the finite entries
            order=a.shape[-1],
        )
    try:
        lam, basis = np.linalg.eigh(sym(a))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"symmetric eigendecomposition failed: {exc}",
            norm=frob(a),
            order=a.shape[-1],
        ) from exc
    return basis[..., ::-1].copy(), lam[..., ::-1].copy()


def default_zero_tol(eigenvalues: np.ndarray) -> float:
    """Scale-invariant threshold separating zero from nonzero eigenvalues."""
    spectral = float(np.max(np.abs(eigenvalues))) if eigenvalues.size else 0.0
    return 1e-10 * max(1.0, spectral)


@dataclass(frozen=True)
class IED:
    """Indexed eigenvalue decomposition of a symmetric matrix.

    ``basis`` is orthogonal with columns ordered by nonincreasing
    eigenvalue; the first ``p`` indices (alpha) hold the eigenvalues
    above ``zero_tol``, the last ``q`` (gamma) those below ``-zero_tol``
    and the ``n_beta`` between them (beta) those within it.
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
    if not 0 <= zero_tol < np.inf:
        raise ValueError("zero_tol must be nonnegative and finite")
    p = int(np.sum(lam > zero_tol))
    q = int(np.sum(lam < -zero_tol))
    return IED(
        matrix=a,
        basis=basis,
        eigenvalues=lam,
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


def psd_part(a: np.ndarray) -> np.ndarray:
    """Threshold-free PSD part: clip eigenvalues at zero; maps stacks too."""
    basis, lam = eig_sym(a)
    return sym(basis @ (np.maximum(lam, 0.0)[..., None] * np.swapaxes(basis, -1, -2)))


def nsd_part(a: np.ndarray) -> np.ndarray:
    """Threshold-free NSD part: clip eigenvalues at zero from above; maps stacks too."""
    basis, lam = eig_sym(a)
    return sym(basis @ (np.minimum(lam, 0.0)[..., None] * np.swapaxes(basis, -1, -2)))


# ---------------------------------------------------------------------------
# tangent structure of the stratum
# ---------------------------------------------------------------------------

def pair_mask(ied: IED, blocks) -> np.ndarray:
    """Mask of the pairs in ``np.triu_indices(n)`` order joining ``blocks``.

    ``blocks`` names block pairs such as ``("bb", "bg", "gg")`` with
    a = alpha, b = beta, g = gamma, earlier block first.
    """
    block = np.repeat([0, 1, 2], [ied.p, ied.n_beta, ied.q])
    iu, ju, _ = triu_pairs(ied.n)
    codes = [3 * "abg".index(b[0]) + "abg".index(b[1]) for b in blocks]
    return np.isin(3 * block[iu] + block[ju], codes)


# ---------------------------------------------------------------------------
# retraction
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
