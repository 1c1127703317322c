"""Eigenstructure tools for dense symmetric matrices.

Everything downstream runs through the indexed eigenvalue decomposition
(IED) built here: eigenvalues sorted nonincreasing and split into the
index sets alpha (positive), beta (zero within a tolerance) and gamma
(negative).  Fixing the sizes ``p = |alpha|`` and ``q = |gamma|`` pins a
smooth stratum of the symmetric matrices on which the PSD projector is
differentiable; this module provides that projector, the threshold-free
NSD part, a fixed-inertia retraction and the one layout of a stratum's
pairs, :func:`tangent_layout`: the only code that classifies pairs by
the index (n, p, q).  The projector's on-stratum differential enters the
solver only through the xi block of ``kkt.assemble_dF``, diagonal in the
eigenbasis and read at the tangent pairs only; the full xi matrix and
the differential's matrix form are test oracles in ``tests/reference.py``,
and the tangent/normal projections, a tangent basis, the block-pair
masks and the threshold-free PSD part in ``tests/support.py``.

Two flat layouts are used for symmetric matrices and must not be mixed:

* ``pack_sym``/``unpack_sym`` - storage layout for files: the lower
  triangle row-major, raw entries, ``(i, j)`` with ``i >= j`` at index
  ``i*(i+1)//2 + j``.
* ``sym_to_vec``/``vec_to_sym`` - orthonormal coordinates for linear
  algebra: upper triangle row-major with off-diagonal entries scaled by
  sqrt(2), so Euclidean inner products equal Frobenius inner products.

A single matrix is eigendecomposed by one LAPACK ``dsyevd`` call on its
lower triangle, the routine and triangle of ``np.linalg.eigh``, whose
Python wrapper costs as much as the decomposition at the orders the
solver sees; stacks go through ``np.linalg.eigh``, which loops over them
faster than Python can.  Where only the eigenvalues matter (the inertia
test of the retraction onto a stratum without beta, and the second order
form checks of ``regularity``) :func:`eigvals_sym` skips the eigenvectors.
Every ``scipy.linalg.lapack`` routine that the package calls goes
through :func:`_lapack`; only its two Cholesky factorizations call a
wrapper, ``scipy.linalg.cho_factor``.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy.linalg.lapack

from .errors import InertiaViolation, NumericalError

SQRT2 = np.sqrt(2.0)


def _lapack(routine, *args, **kwargs):
    """The outputs of a ``scipy.linalg.lapack`` routine without its
    trailing ``info``; a nonzero ``info`` raises ``LinAlgError``.

    The package calls LAPACK through this where numpy's and scipy's
    wrappers cost more than the factorizations at the orders it sees.
    """
    *out, info = routine(*args, **kwargs)
    if info:
        raise np.linalg.LinAlgError(f"{routine.__name__} returned info = {info}")
    return out


def sym(a: np.ndarray) -> np.ndarray:
    """Symmetrize, killing round-off skew from products; acts on the last two axes."""
    return 0.5 * (a + a.swapaxes(-1, -2))


def frob(a: np.ndarray) -> float:
    """Frobenius norm (the 2-norm of a vector).

    The sum of squares that ``np.linalg.norm`` takes, without its
    Python overhead, so the result is the same to the bit.
    """
    x = np.asarray(a, dtype=float).ravel(order="K")
    return math.sqrt(x.dot(x))


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
    one call; a non-finite entry anywhere in the stack raises.  ``a``
    must be symmetric: it is not symmetrized here (callers pass the
    output of :func:`sym` or a sum of such matrices), and the
    eigensolver reads its lower triangle only.

    A single matrix takes one LAPACK ``dsyevd`` call with the lower
    triangle, the routine and triangle of ``np.linalg.eigh``, so the
    result is the same to the bit without numpy's wrapper, which costs
    as much as ``dsyevd`` itself at order 5.  A stack goes through
    ``np.linalg.eigh``, whose loop over the matrices is faster than one
    ``dsyevd`` call per matrix.  A failed decomposition raises
    :class:`NumericalError`.

    Returns
    -------
    basis : (..., n, n) orthogonal matrices, columns ordered by eigenvalue
    eigenvalues : (..., n) nonincreasing
    """
    a = np.asarray(a, dtype=float)
    _require_finite(a)
    try:
        if a.ndim == 2:
            lam, basis = _lapack(scipy.linalg.lapack.dsyevd, a, compute_v=1, lower=1)
        else:
            lam, basis = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise _failed(exc, a) from exc
    return basis[..., ::-1].copy(), lam[..., ::-1].copy()


def eigvals_sym(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of one symmetric matrix, sorted nonincreasing.

    One ``dsyevd`` call without eigenvectors, on the lower triangle, with
    the input checks and failures of :func:`eig_sym`.  Without vectors
    LAPACK takes another tridiagonal QR variant, so the eigenvalues agree
    with :func:`eig_sym`'s to rounding, not to the bit.
    """
    a = np.asarray(a, dtype=float)
    _require_finite(a)
    try:
        lam = _lapack(scipy.linalg.lapack.dsyevd, a, compute_v=0, lower=1)[0]
    except np.linalg.LinAlgError as exc:
        raise _failed(exc, a) from exc
    return lam[::-1].copy()


def _require_finite(a: np.ndarray):
    if not np.isfinite(a).all():
        raise NumericalError(
            "factorization input contains non-finite entries",
            norm=frob(a[np.isfinite(a)]),  # of the finite entries
            order=a.shape[-1],
        )


def _failed(exc: np.linalg.LinAlgError, a: np.ndarray) -> NumericalError:
    return NumericalError(
        f"symmetric eigendecomposition failed: {exc}", norm=frob(a), order=a.shape[-1]
    )


def default_zero_tol(eigenvalues: np.ndarray) -> float:
    """Scale-invariant threshold separating zero from nonzero eigenvalues.

    ``eigenvalues`` must be sorted, in either direction: the largest
    magnitude is read from the two ends.
    """
    spectral = max(abs(eigenvalues[0]), abs(eigenvalues[-1])) if eigenvalues.size else 0.0
    return 1e-10 * max(1.0, float(spectral))


@dataclass(frozen=True)
class IED:
    """Indexed eigenvalue decomposition of a symmetric matrix.

    ``basis`` is orthogonal with columns ordered by nonincreasing
    eigenvalue; the first ``p`` indices (alpha) hold the eigenvalues
    above ``zero_tol``, the last ``q`` (gamma) those below ``-zero_tol``
    and the ``n_beta`` between them (beta) those within it.
    The basis within an eigenvalue cluster is whatever the eigensolver
    returned; every consumer is required to be invariant to that choice.
    """

    matrix: np.ndarray
    basis: np.ndarray
    eigenvalues: np.ndarray
    p: int
    q: int
    zero_tol: float

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def n_beta(self) -> int:
        return self.n - self.p - self.q


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
    p = int(np.count_nonzero(lam > zero_tol))
    q = int(np.count_nonzero(lam < -zero_tol))
    return IED(
        matrix=a,
        basis=basis,
        eigenvalues=lam,
        p=p,
        q=q,
        zero_tol=float(zero_tol),
    )


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------

def project_psd(ied: IED) -> np.ndarray:
    """Metric projection onto the PSD cone: keep the alpha eigenpairs."""
    pa = ied.basis[:, : ied.p]
    return sym(pa @ (ied.eigenvalues[: ied.p, None] * pa.T))


def nsd_part(a: np.ndarray) -> np.ndarray:
    """Threshold-free NSD part: clip eigenvalues at zero from above; maps stacks too."""
    basis, lam = eig_sym(sym(a))
    return sym(basis @ (np.minimum(lam, 0.0)[..., None] * np.swapaxes(basis, -1, -2)))


# ---------------------------------------------------------------------------
# tangent structure of the stratum
# ---------------------------------------------------------------------------

class StratumLayout(NamedTuple):
    """The pairs (k, l), k <= l, of a stratum by class (:func:`tangent_layout`)."""

    rows: np.ndarray      # triu position of each tangent pair (not both in beta)
    pairs: np.ndarray     # (k, l) of each tangent pair
    xi_base: np.ndarray   # per tangent pair: 1 where l is not in gamma, else 0
    ag: np.ndarray        # positions of the alpha-gamma pairs among the tangent pairs
    trailing: np.ndarray  # triu mask of the beta-gamma and gamma-gamma pairs


@lru_cache(maxsize=256)
def tangent_layout(n: int, p: int, q: int) -> StratumLayout:
    """The pair classes of the stratum with index (n, p, q).

    With k <= l, a pair is beta-beta when k >= p and l < n - q, trailing
    when k >= p and l >= n - q, and alpha-gamma when k < p and
    l >= n - q; the tangent pairs are those not beta-beta.  ``xi_base``
    is the projector's divided difference at the tangent pairs with the
    alpha-gamma ones, the only ones that depend on the point, at zero.
    On the all-gamma neighbour (n, p, n - p) the beta-beta pairs are
    trailing too.  Cached per index, so the arrays are read-only.
    """
    iu, ju, _ = triu_pairs(n)
    r = n - q  # first gamma index
    rows = np.flatnonzero((iu < p) | (ju >= r))
    k, l = iu[rows], ju[rows]
    layout = StratumLayout(
        rows, np.stack([k, l], axis=1), (l < r).astype(float),
        np.flatnonzero((k < p) & (l >= r)), (iu >= p) & (ju >= r),
    )
    for arr in layout:
        arr.flags.writeable = False
    return layout


# ---------------------------------------------------------------------------
# retraction
# ---------------------------------------------------------------------------

def retract_fixed_inertia(ied: IED, h: np.ndarray) -> np.ndarray:
    """Project ``matrix + h`` back onto the stratum of ``ied``.

    Eigendecomposes the target, keeps the top ``p`` and bottom ``q``
    eigenvalues by position, and zeroes the middle ones.  ``h`` must be
    symmetric, like ``ied.matrix``, so that the target is symmetric as
    it stands.  Raises :class:`InertiaViolation` when the target no
    longer has ``p`` eigenvalues above the zero tolerance or ``q`` below
    its negative; line searches treat that as a rejected trial.

    On a stratum without beta (p + q = n) every eigenvalue is kept, so
    the target is returned as it stands and only its eigenvalues are
    computed, by :func:`eigvals_sym`, for the inertia test.
    """
    target = ied.matrix + h
    if ied.p + ied.q == ied.n:
        _require_inertia(ied, eigvals_sym(target))
        return target
    basis, lam = eig_sym(target)
    _require_inertia(ied, lam)
    kept = lam.copy()
    kept[ied.p : ied.n - ied.q] = 0.0
    return sym(basis @ (kept[:, None] * basis.T))


def _require_inertia(ied: IED, lam: np.ndarray):
    """Raise :class:`InertiaViolation` unless the nonincreasing ``lam``
    has ``ied.p`` entries above ``ied.zero_tol`` and ``ied.q`` below its
    negative."""
    p, q, n = ied.p, ied.q, ied.n
    tol = ied.zero_tol
    if p and lam[p - 1] <= tol:
        raise InertiaViolation(
            f"retraction target has fewer than {p} positive eigenvalues"
        )
    if q and lam[n - q] >= -tol:
        raise InertiaViolation(
            f"retraction target has fewer than {q} negative eigenvalues"
        )
