"""KKT residual, merit function, tangent frames and the stratum Jacobian.

The residual is F(z) = (F1, F2) with F1 = grad f(x) + adjoint_dg(x, y)
and F2 = -g(x) + PSD-projection of G(z), where G(z) = g(x) + y.  The
merit is phi(z) = ||F(z)||^2 / 2.  On the stratum fixed by an IED of
G(z), F is smooth and its differential in the coordinates (v_x, H) of
the tangent-space isomorphism is the block operator

    [ Hess_xx L - dg dg*   dg  ]
    [       -dg*           xi  ]

All tangent inner products are taken in (v_x, H) coordinates with the
Frobenius product on the matrix part.  Everything at a point is kept in
the eigenbasis P of G(z) that its :class:`TangentFrame` carries: the
frame's one constraint stack is the rotated P^T apply_dg(x, e_i) P of
:func:`constraint_stack`, the matrix residual is read in the rotated
coordinates sym_to_vec(P^T F2 P) (:meth:`TangentFrame.coords`), and the
Jacobian's rows are the m residual components followed by those
coordinates.  Columns are the m primal unit directions, then the T
tangent pairs (k, l), which sit at the rows ``frame.rows`` of the
``sym_to_vec`` layout.  In these rows the xi block is diag(xi_kl) on the
tangent rows and zero on the beta-beta rows, so the Jacobian is four
blocks sliced from the stack (:class:`AssembledJacobian`) and the
rotation is never undone.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericalError
from .model import NlsdpProblem, PrimalDualPoint
from .spectral import (
    IED,
    make_ied,
    pair_mask,
    project_psd,
    sym,
    sym_to_vec,
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


def constraint_stack(problem: NlsdpProblem, x: np.ndarray, ied: IED) -> np.ndarray:
    """The constraint derivative at ``x``, rotated into the eigenbasis of ``ied``.

    Returns the m x n x n stack ``sym(P^T apply_dg(x, e_i) P)`` over the
    m unit vectors, from m ``apply_dg`` calls.
    """
    m, n = problem.m, ied.n
    a = np.zeros((m, n, n))
    for i, e in enumerate(np.eye(m)):
        a[i] = problem.apply_dg(x, e)
    at = ied.basis.T @ a @ ied.basis
    return 0.5 * (at + at.transpose(0, 2, 1))


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
    G(z) for an ambient pair (v_x, v_y); the coefficients of H are its
    rotated ``sym_to_vec`` coordinates at the tangent rows ``rows``, the
    pairs (k, l), k <= l, not both in beta.  The frame's eigenbasis P
    (``ied.basis``) is the one coordinate system of the derivative data
    at ``z``, and the frame is its one cache: the rotated constraint
    stack and Hess_xx L are built on first use, so the Jacobian and
    every regularity check read the problem once per frame.  ``ied``
    must decompose G(z).
    """

    problem: NlsdpProblem
    z: PrimalDualPoint
    ied: IED

    @cached_property
    def rows(self) -> np.ndarray:
        """Position of each tangent pair in the ``sym_to_vec`` layout."""
        return np.flatnonzero(~pair_mask(self.ied, ("bb",)))

    @cached_property
    def pairs(self) -> np.ndarray:
        """The tangent pairs (k, l), one row each, in the order of ``rows``."""
        iu, ju, _ = triu_pairs(self.ied.n)
        return np.stack([iu[self.rows], ju[self.rows]], axis=1)

    @cached_property
    def stack(self) -> np.ndarray:
        """The rotated constraint stack of :func:`constraint_stack` at ``z``."""
        return constraint_stack(self.problem, self.z.x, self.ied)

    @cached_property
    def hess(self) -> np.ndarray:
        """Hess_xx L at ``z`` (:func:`hess_lagrangian_matrix`)."""
        return hess_lagrangian_matrix(self.problem, self.z)

    @property
    def dim_tangent(self) -> int:
        return self.rows.size

    @property
    def dim(self) -> int:
        return self.problem.m + self.dim_tangent

    def coords(self, res: KktResidual) -> np.ndarray:
        """F in the Jacobian's row layout: [F1; sym_to_vec(P^T F2 P)].

        P is this frame's eigenbasis, which need not be that of
        ``res.ied`` when the frame re-draws the basis within eigenvalue
        clusters.
        """
        basis = self.ied.basis
        return np.concatenate([res.f1, sym_to_vec(basis.T @ res.f2 @ basis)])


@dataclass(frozen=True)
class TangentVector:
    """A tangent direction in coordinate form (v_x, coefficient vector)."""

    frame: TangentFrame
    v_x: np.ndarray
    coeffs: np.ndarray

    @cached_property
    def matrix(self) -> np.ndarray:
        """P (sum_t c_t E_t) P^T, E_t the unit matrix at tangent row t."""
        ied = self.frame.ied
        flat = np.zeros(ied.n * (ied.n + 1) // 2)
        flat[self.frame.rows] = self.coeffs
        return sym(ied.basis @ vec_to_sym(flat, ied.n) @ ied.basis.T)

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
    components followed by the rotated coordinates of the matrix
    residual (:meth:`TangentFrame.coords`).  With C = sym_to_vec(at).T,
    the rotated stack ``at`` read as n_sym x m columns, the blocks are

    * ``hm`` = Hess L - C^T C (m x m), the top-left block;
    * ``c_mat`` = C (n_sym x m), so -C is the bottom-left block;
    * ``tr`` = C[rows].T (m x T), the top-right block;
    * ``xi_t`` = xi[k, l] (T), the bottom-right block: diag(xi_t) on the
      tangent rows, zero on the beta-beta rows.

    ``gram`` (J^T J, cached), :meth:`apply_adjoint` and ``matrix`` (the
    dense J, built on first use) are formed from the blocks.
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
        """J^T w, for ``w`` in the Jacobian's row layout."""
        m = self.hm.shape[0]
        w1, w2 = w[:m], w[m:]
        return np.concatenate([
            self.hm.T @ w1 - self.c_mat.T @ w2,
            self.tr.T @ w1 + self.xi_t * w2[self.frame.rows],
        ])

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense J: the four blocks placed into zeros."""
        m, n_sym, dim_t = self.hm.shape[0], self.c_mat.shape[0], self.xi_t.size
        matrix = np.zeros((m + n_sym, m + dim_t))
        matrix[:m, :m] = self.hm
        matrix[m:, :m] = -self.c_mat
        matrix[:m, m:] = self.tr
        matrix[m + self.frame.rows, m + np.arange(dim_t)] = self.xi_t
        return matrix

    def sigma_min(self) -> float:
        if self.matrix.shape[1] == 0:
            return np.inf
        return float(np.linalg.svd(self.matrix, compute_uv=False)[-1])


def assemble_dF(frame: TangentFrame) -> AssembledJacobian:
    """Slice the Jacobian blocks from the frame's rotated constraint stack.

    A coordinate direction (v_x, H) maps to
    (Hess L v_x - dg(dg* v_x) + dg H, -dg* v_x + xi(H)).  In the frame's
    rows, with C = sym_to_vec(at).T:

        [ Hess L - C^T C     C[rows].T ]
        [      -C            diag(xi_t) on the tangent rows ]

    where xi_t = xi[k, l] over the tangent pairs.
    """
    k, l = frame.pairs.T
    c_mat = sym_to_vec(frame.stack).T
    return AssembledJacobian(
        frame=frame,
        hm=frame.hess - c_mat.T @ c_mat,
        c_mat=c_mat,
        tr=c_mat[frame.rows].T,
        xi_t=frame.ied.xi[k, l],
    )
