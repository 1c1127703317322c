"""KKT residual, merit function, tangent frames and the stratum Jacobian.

The residual is F(z) = (F1, F2) with F1 = grad f(x) + adjoint_dg(x, y)
and F2 = -g(x) + PSD-projection of G(z), where G(z) = g(x) + y.  The
merit is phi(z) = ||F(z)||^2 / 2.  On the stratum fixed by an IED of
G(z), F is smooth and its differential in the coordinates (v_x, H) of
the tangent-space isomorphism is the block operator

    [ Hess_xx L - dg dg*   dg  ]
    [       -dg*           xi  ]

All tangent inner products are taken in (v_x, H) coordinates with the
Frobenius product on the matrix part.  Every block is sliced from
:func:`constraint_stack`, built once per frame (:class:`TangentFrame`):
A[i] = apply_dg(x, e_i) and its rotation P^T A[i] P into the eigenbasis
of G(z).  Rows are the m residual components, then the unrotated
``sym_to_vec`` coordinates of the matrix residual (the layout of
:meth:`KktResidual.as_vec`); columns are the m primal unit directions,
then the T tangent pairs (k, l) of :func:`tangent_pairs`.

The operator is kept in rotated block form.  Rotating the matrix rows
by the orthogonal map sym_to_vec(X) -> sym_to_vec(P^T X P) changes
neither J^T J nor J^T r, and in rotated rows the xi block is diagonal:
xi_kl on the row of pair (k, l) and zero on the beta-beta rows.  So the
normal equations are formed from the m x m, n_sym x m and m x T blocks
and the T values of xi alone (:class:`AssembledJacobian`); the dense
n_sym x T block is built only when the dense matrix is asked for.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericalError
from .model import NlsdpProblem, PrimalDualPoint
from .spectral import (
    IED,
    SQRT2,
    make_ied,
    project_psd,
    sym,
    sym_to_vec,
    tangent_matrix,
    tangent_pairs,
    triu_pairs,
    vec_to_sym,
)


def big_g(problem: NlsdpProblem, z: PrimalDualPoint) -> np.ndarray:
    """G(z) = g(x) + y, the matrix whose eigenstructure drives everything."""
    return problem.eval_g(z.x) + z.y


@dataclass(frozen=True)
class KktResidual:
    """Residual snapshot at a point, with the IED of G(z) (``ied.matrix``) cached."""

    f1: np.ndarray
    f2: np.ndarray
    ied: IED

    @property
    def phi(self) -> float:
        return 0.5 * (float(np.sum(self.f1**2)) + float(np.sum(self.f2**2)))

    @property
    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.f1**2) + np.sum(self.f2**2)))

    def as_vec(self) -> np.ndarray:
        """Coefficients of F in (R^m, orthonormal symmetric basis)."""
        return np.concatenate([self.f1, sym_to_vec(self.f2)])


def residual(
    problem: NlsdpProblem, z: PrimalDualPoint, zero_tol: float | None = None
) -> KktResidual:
    """Evaluate the KKT residual; phi(z) is available as ``.phi``.

    Raises :class:`NumericalError` when g(x) has a non-finite entry,
    before G(z) is formed from it.
    """
    g_val = problem.eval_g(z.x)
    if not np.all(np.isfinite(g_val)):
        raise NumericalError("g(x) contains non-finite entries", order=g_val.shape[-1])
    ied = make_ied(g_val + z.y, zero_tol)
    f1 = problem.grad_f(z.x) + problem.adjoint_dg(z.x, z.y)
    f2 = -g_val + project_psd(ied)
    return KktResidual(f1=f1, f2=sym(f2), ied=ied)


def constraint_stack(problem: NlsdpProblem, x: np.ndarray, ied: IED):
    """The constraint derivative at ``x`` as a stack, plain and rotated.

    Returns ``(a, at)``: ``a[i] = apply_dg(x, e_i)`` for the m unit
    vectors (shape m x n x n, from m ``apply_dg`` calls) and
    ``at[i] = P^T a[i] P`` in the eigenbasis P of ``ied``, symmetrized.
    """
    m, n = problem.m, ied.n
    a = np.zeros((m, n, n))
    for i, e in enumerate(np.eye(m)):
        a[i] = problem.apply_dg(x, e)
    at = ied.basis.T @ a @ ied.basis
    return a, 0.5 * (at + at.transpose(0, 2, 1))


def hess_lagrangian_matrix(problem: NlsdpProblem, z: PrimalDualPoint) -> np.ndarray:
    """Hess_xx L at ``z`` as an m x m matrix, from m ``apply_hess_lagrangian`` calls."""
    m = problem.m
    hess = np.zeros((m, m))
    for i, e in enumerate(np.eye(m)):
        hess[:, i] = problem.apply_hess_lagrangian(z.x, z.y, e)
    return hess


# ---------------------------------------------------------------------------
# tangent coordinates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TangentFrame:
    """The one handle for a point on its stratum: ``z`` with the IED of G(z).

    The solver steps and the regularity checks take the frame alone.
    Coordinates are (v_x, H) with H = apply_dg(x, v_x) + v_y tangent at
    G(z) for an ambient pair (v_x, v_y); the frame carries the
    tangent-pair enumeration of the matrix part.  It is also the one
    cache of the derivative data at ``z``: the constraint stack and
    Hess_xx L are built on first use, so the Jacobian and every
    regularity check read the problem once per frame.  ``ied`` must
    decompose G(z).
    """

    problem: NlsdpProblem
    z: PrimalDualPoint
    ied: IED

    @cached_property
    def pairs(self) -> np.ndarray:
        return tangent_pairs(self.ied)

    @cached_property
    def weights(self) -> np.ndarray:
        """Per tangent pair: 1 on the diagonal, sqrt(2) off it."""
        k, l = self.pairs.T
        return np.where(k == l, 1.0, SQRT2)

    @cached_property
    def stack(self):
        """``(a, at)`` of :func:`constraint_stack` at ``z``."""
        return constraint_stack(self.problem, self.z.x, self.ied)

    @cached_property
    def hess(self) -> np.ndarray:
        """Hess_xx L at ``z`` (:func:`hess_lagrangian_matrix`)."""
        return hess_lagrangian_matrix(self.problem, self.z)

    @property
    def dim_tangent(self) -> int:
        return self.pairs.shape[0]

    @property
    def dim(self) -> int:
        return self.problem.m + self.dim_tangent


@dataclass(frozen=True)
class TangentVector:
    """A tangent direction in coordinate form (v_x, coefficient vector)."""

    frame: TangentFrame
    v_x: np.ndarray
    coeffs: np.ndarray

    @cached_property
    def matrix(self) -> np.ndarray:
        return tangent_matrix(self.frame.ied, self.coeffs)

    @property
    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.v_x**2) + np.sum(self.coeffs**2)))

    def scaled(self, t: float) -> "TangentVector":
        return TangentVector(frame=self.frame, v_x=t * self.v_x, coeffs=t * self.coeffs)

    def as_vec(self) -> np.ndarray:
        return np.concatenate([self.v_x, self.coeffs])


# ---------------------------------------------------------------------------
# the stratum Jacobian
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AssembledJacobian:
    """Differential of F along the stratum, in frame coordinates, by blocks.

    Columns follow (e_1..e_m, tangent pairs); rows are the m residual
    components followed by the orthonormal coordinates of the matrix
    residual.  With the pair weights w of ``frame.weights``, the blocks
    are

    * ``hm`` = Hess L - C^T C (m x m), the top-left block;
    * ``c_mat`` = C = sym_to_vec(a).T (n_sym x m), so -C is the
      bottom-left block;
    * ``tr`` = w * at[:, k, l] (m x T), the top-right block;
    * ``xi_t`` = xi[k, l] (T), the bottom-right block in rotated rows.

    ``gram`` (J^T J, cached) and :meth:`apply_adjoint` are formed from
    the blocks; ``matrix``, the dense J, is built on first use.
    """

    frame: TangentFrame
    hm: np.ndarray
    c_mat: np.ndarray
    tr: np.ndarray
    xi_t: np.ndarray

    @cached_property
    def gram(self) -> np.ndarray:
        hm, c_mat, tr, xi_t = self.hm, self.c_mat, self.tr, self.xi_t
        m = hm.shape[0]
        gram = np.empty((m + xi_t.size, m + xi_t.size))
        gram[:m, :m] = hm.T @ hm + c_mat.T @ c_mat
        gram[:m, m:] = hm.T @ tr - tr * xi_t
        gram[m:, :m] = gram[:m, m:].T
        gram[m:, m:] = tr.T @ tr
        gram[m:, m:][np.diag_indices(xi_t.size)] += xi_t**2
        return gram

    def apply_adjoint(self, w: np.ndarray) -> np.ndarray:
        """J^T w; the matrix part of ``w`` is rotated into the eigenbasis."""
        ied = self.frame.ied
        m = self.hm.shape[0]
        w1, w2 = w[:m], w[m:]
        k, l = self.frame.pairs.T
        rotated = ied.basis.T @ vec_to_sym(w2, ied.n) @ ied.basis
        return np.concatenate([
            self.hm.T @ w1 - self.c_mat.T @ w2,
            self.tr.T @ w1 + self.xi_t * self.frame.weights * rotated[k, l],
        ])

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense J, with the xi block in unrotated rows."""
        frame = self.frame
        ied = frame.ied
        m = self.hm.shape[0]
        k, l = frame.pairs.T
        iu, ju, scale = triu_pairs(ied.n)
        matrix = np.empty((m + iu.size, m + frame.dim_tangent))
        matrix[:m, :m] = self.hm
        matrix[m:, :m] = -self.c_mat
        matrix[:m, m:] = self.tr
        # entry ((i, j), (k, l)) of the xi block is
        # s_ij w_kl/2 xi_kl (P_ik P_jl + P_il P_jk), filled in place
        rows_i = ied.basis[iu] * scale[:, None]
        rows_j = ied.basis[ju]
        block = matrix[m:, m:]
        np.multiply(rows_i[:, k], rows_j[:, l], out=block)
        swapped = rows_i[:, l]
        swapped *= rows_j[:, k]
        block += swapped
        block *= 0.5 * frame.weights * self.xi_t
        return matrix

    def sigma_min(self) -> float:
        if self.matrix.shape[1] == 0:
            return np.inf
        return float(np.linalg.svd(self.matrix, compute_uv=False)[-1])


def assemble_dF(frame: TangentFrame) -> AssembledJacobian:
    """Slice the Jacobian blocks from the frame's constraint stack.

    A coordinate direction (v_x, H) maps to
    (Hess L v_x - dg(dg* v_x) + dg H, -dg* v_x + xi(H)).  With
    C = sym_to_vec(a) and the pair weights w of ``frame.weights``:

        [ Hess L - C^T C     w * at[:, k, l]               ]
        [      -C            sym_to_vec(P (xi o E_kl) P^T)  ]

    Only the first three blocks and xi[k, l] are formed here.
    """
    a, at = frame.stack
    k, l = frame.pairs.T
    c_mat = sym_to_vec(a).T
    return AssembledJacobian(
        frame=frame,
        hm=frame.hess - c_mat.T @ c_mat,
        c_mat=c_mat,
        tr=at[:, k, l] * frame.weights,
        xi_t=frame.ied.xi[k, l],
    )
