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
frame's one rotated form of the constraint derivative is the n_sym x m
C = ``TangentFrame.c_mat``, whose column i is
sym_to_vec(P^T apply_dg(x, e_i) P), the matrix residual is read in the
rotated coordinates sym_to_vec(P^T F2 P) (:meth:`TangentFrame.coords`),
and the Jacobian's rows are the m residual components followed by
those coordinates.  Columns are the m primal unit directions, then the
T tangent pairs (k, l) at the rows ``frame.layout.rows`` of the
``sym_to_vec`` layout; every pair's class comes from that one stratum
layout (:func:`tangent_layout`).
The xi block is diag(xi_kl) on the tangent rows and zero on the
beta-beta rows, so the Jacobian is four blocks sliced from C
(:class:`AssembledJacobian`) and the rotation is never undone.

``solver.lm_direction`` says how the LM system
min ||J u + r||^2 + mu ||u||^2 is solved from these blocks.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

from .errors import NumericalError
from .model import NlsdpProblem, PrimalDualPoint
from .spectral import (
    IED,
    StratumLayout,
    _lapack,
    _require_finite,
    make_ied,
    project_psd,
    sym,
    sym_to_vec,
    tangent_layout,
    triu_pairs,
    vec_to_sym,
)


# Tangent pairs with xi_t^2 above this are eliminated through K = I + M M^T
# in AssembledJacobian.solve_regularized; the rest of the nonzero ones
# stay in its QR core.
LARGE_XI_SQ = 1e-2


def _solve_triangular(tri, b, **kwargs):
    """LAPACK ``dtrtrs``: tri^-1 b, or tri^-T b with ``trans=1``; b itself
    when tri is empty, which LAPACK rejects."""
    return _lapack(scipy.linalg.lapack.dtrtrs, tri, b, **kwargs)[0] if tri.size else b


class _cached:
    """A property computed on first read and then stored in the instance
    ``__dict__``, where later reads find it before the descriptor.

    ``functools.cached_property`` without its lock, which Python 3.10 and
    3.11 take on every first read; like it, it writes past a frozen
    dataclass's ``__setattr__``.
    """

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


def big_g(problem: NlsdpProblem, z: PrimalDualPoint) -> np.ndarray:
    """G(z) = g(x) + y, the matrix whose eigenstructure drives everything."""
    return problem.eval_g(z.x) + z.y


@dataclass(frozen=True)
class KktResidual:
    """Residual snapshot at a point, with the IED of G(z) (``ied.matrix``) cached."""

    f1: np.ndarray
    f2: np.ndarray
    ied: IED

    @_cached
    def phi(self) -> float:
        return 0.5 * (float((self.f1**2).sum()) + float((self.f2**2).sum()))

    @property
    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.f1**2) + np.sum(self.f2**2)))


def _f1(problem: NlsdpProblem, z: PrimalDualPoint) -> np.ndarray:
    """F1 = grad f(x) + adjoint_dg(x, y), the first block of the residual."""
    return problem.grad_f(z.x) + problem.adjoint_dg(z.x, z.y)


def residual(
    problem: NlsdpProblem,
    z: PrimalDualPoint,
    zero_tol: float | None = None,
    g_val: np.ndarray | None = None,
    f1: np.ndarray | None = None,
) -> KktResidual:
    """Evaluate the KKT residual; phi(z) is available as ``.phi``.

    ``g_val`` is g(z.x) and ``f1`` is :func:`_f1` at ``z`` when the
    caller has evaluated them already (a retraction evaluates g, and
    ``solver.slmn`` forms a normal candidate's F1 to screen it);
    otherwise they are evaluated here.  Raises :class:`NumericalError`
    when g(x) has a non-finite entry, before G(z) is formed from it.
    """
    if g_val is None:
        g_val = problem.eval_g(z.x)
    if not np.isfinite(g_val).all():
        raise NumericalError("g(x) contains non-finite entries", order=g_val.shape[-1])
    ied = make_ied(g_val + z.y, zero_tol)
    if f1 is None:
        f1 = _f1(problem, z)
    f2 = -g_val + project_psd(ied)
    return KktResidual(f1=f1, f2=sym(f2), ied=ied)


# ---------------------------------------------------------------------------
# tangent coordinates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TangentFrame:
    """The one handle for a point on its stratum: ``z`` with the IED of G(z).

    The solver steps and the regularity checks take the frame alone.
    Coordinates are (v_x, H) with H = apply_dg(x, v_x) + v_y tangent at
    G(z) for an ambient pair (v_x, v_y); the coefficients of H are its
    rotated ``sym_to_vec`` coordinates at the tangent rows
    ``layout.rows``, the pairs (k, l), k <= l, not both in beta.  The
    frame's eigenbasis P (``ied.basis``) is the one coordinate system of
    the derivative data at ``z``, and the frame is its one cache:
    C = ``c_mat``, the one rotated form of the constraint derivative, and
    Hess_xx L are built on first use, so the Jacobian, the normal
    directions and every regularity check read the problem once per
    frame, and the regularity checks keep their SVDs of C's rows in the
    frame's ``__dict__`` too.  ``ied`` must decompose G(z).  ``dg``,
    when given, is the unrotated stack ``problem.dg_stack(z.x)``, which C
    then rotates instead of reading the problem: the solver hands it
    from frame to frame while x stays the same.
    """

    problem: NlsdpProblem
    z: PrimalDualPoint
    ied: IED
    dg: np.ndarray | None = None

    @_cached
    def layout(self) -> StratumLayout:
        """The pair classes of the IED's stratum, :func:`spectral.tangent_layout`."""
        return tangent_layout(self.ied.n, self.ied.p, self.ied.q)

    @_cached
    def c_mat(self) -> np.ndarray:
        """The constraint derivative at ``z`` in the eigenbasis P, as columns.

        C = sym_to_vec(sym(P^T apply_dg(x, e_i) P)).T over the m unit
        vectors, n_sym x m, so C v = sym_to_vec(P^T (dg v) P).  It rotates
        the unrotated stack ``dg`` when the frame has it, and otherwise
        reads ``problem.dg_stack(x)``: m ``apply_dg`` calls unless the
        problem overrides it.
        """
        dg = self.problem.dg_stack(self.z.x) if self.dg is None else self.dg
        return sym_to_vec(sym(self.ied.basis.T @ dg @ self.ied.basis)).T

    @_cached
    def hess(self) -> np.ndarray:
        """Hess_xx L at ``z`` as an m x m matrix, ``problem.hess_lagrangian(x, y)``:
        m ``apply_hess_lagrangian`` calls unless the problem overrides it."""
        return self.problem.hess_lagrangian(self.z.x, self.z.y)

    @property
    def dim_tangent(self) -> int:
        return self.layout.rows.size

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

    @_cached
    def matrix(self) -> np.ndarray:
        """P (sum_t c_t E_t) P^T, E_t the unit matrix at tangent row t."""
        ied = self.frame.ied
        flat = np.zeros(ied.n * (ied.n + 1) // 2)
        flat[self.frame.layout.rows] = self.coeffs
        return sym(ied.basis @ vec_to_sym(flat, ied.n) @ ied.basis.T)

    @_cached
    def norm(self) -> float:
        return float(np.sqrt((self.v_x**2).sum() + (self.coeffs**2).sum()))

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
    residual (:meth:`TangentFrame.coords`).  With C = ``frame.c_mat``,
    the rotated constraint derivative as n_sym x m columns, the blocks are

    * ``hm`` = Hess L - C^T C (m x m), the top-left block;
    * ``c_mat`` = C (n_sym x m), so -C is the bottom-left block;
    * ``tr`` = C[rows].T (m x T), the top-right block;
    * ``xi_t`` (T), the projector's divided differences at the tangent
      pairs (:func:`assemble_dF`), the bottom-right block: diag(xi_t) on
      the tangent rows, zero on the beta-beta rows.

    :meth:`apply`, :meth:`apply_adjoint`, ``gram`` (J^T J, cached) and
    ``matrix`` (the dense J, built on first use) are formed from the
    blocks.  ``solver.lm_direction`` says when the LM system is solved
    from ``gram`` and when by :meth:`solve_regularized`.
    """

    frame: TangentFrame
    hm: np.ndarray
    c_mat: np.ndarray
    tr: np.ndarray
    xi_t: np.ndarray

    @_cached
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

    def apply(self, u: np.ndarray) -> np.ndarray:
        """J u, for ``u`` in the Jacobian's column layout."""
        m = self.hm.shape[0]
        v_x, c = u[:m], u[m:]
        bottom = -(self.c_mat @ v_x)
        bottom[self.frame.layout.rows] += self.xi_t * c
        return np.concatenate([self.hm @ v_x + self.tr @ c, bottom])

    def apply_adjoint(self, w: np.ndarray) -> np.ndarray:
        """J^T w, for ``w`` in the Jacobian's row layout."""
        m = self.hm.shape[0]
        w1, w2 = w[:m], w[m:]
        return np.concatenate([
            self.hm.T @ w1 - self.c_mat.T @ w2,
            self.tr.T @ w1 + self.xi_t * w2[self.frame.layout.rows],
        ])

    def solve_regularized(self, r: np.ndarray, mu: float) -> np.ndarray:
        """The u minimizing ||J u + r||^2 + mu ||u||^2, from the four blocks.

        ``r`` is in the Jacobian's row layout and ``mu`` > 0.  The tangent
        pairs are eliminated in three groups, so that only an m x m
        Cholesky factor and one QR of at most 2m + |S| unknowns remain:

        * xi_t = 0 (the layout's ``trailing`` pairs, beta-gamma and
          gamma-gamma): their columns touch only the m F1 rows, so a QR
          Q R of the transpose of their m x T_Z block trades them for
          k = min(m, T_Z) columns R^T; the
          pairs' coefficients are Q w, the rest of their span only adds
          to the regularizer.
        * xi_t^2 > ``LARGE_XI_SQ``: a Givens rotation folds the pair's
          row into its sqrt(mu) row, leaving rho_t = sqrt(xi_t^2 + mu) on
          the pair and a row sqrt(mu) / rho_t (C_t x - r_t) that sees
          only x.  With M = tr_L / rho the pairs then drop out exactly,
          which whitens the F1 rows by the Cholesky factor L of
          K = I + M M^T; rho^2 >= ``LARGE_XI_SQ`` bounds the condition
          number of K.  The F1 rows' x block gains M diag(xi_L) M^T,
          formed as K - I less the alpha-gamma pairs' share, the only
          pairs with xi_t < 1.  The rotated rows and the sqrt(mu) I rows
          of x sum to mu (||M^T x - b||^2 + ||x||^2), b = r_L / rho,
          which is mu ||L^T x - L^-1 M b||^2 plus a constant: m rows,
          upper triangular in x.
        * the core holds x, w and the pairs S with 0 < xi_t^2 <=
          ``LARGE_XI_SQ``, and is solved by one QR of its least-squares
          rows: the whitened F1 rows, the rows that see only x (the
          beta-beta and xi = 0 rows, the trailing rows of the all-gamma
          neighbour (n, p, n - p), and the m rows of K's factor), the
          pairs of S and sqrt(mu) I on w and S.  It has O(m) rows however
          many large pairs there are.
        """
        hm, c_mat, xi_t, frame = self.hm, self.c_mat, self.xi_t, self.frame
        m, rows, n, p = hm.shape[0], frame.layout.rows, frame.ied.n, frame.ied.p
        zero, large = frame.layout.trailing[rows], xi_t**2 > LARGE_XI_SQ
        small = ~(zero | large)
        rows_l, rows_s, xi_l, r2 = rows[large], rows[small], xi_t[large], r[m:]
        # xi = 0: tr[:, zero] = R^T Q^T, k = min(m, T_Z) columns
        n_z = np.count_nonzero(zero)
        k = min(m, n_z)
        rt_z, q_z = np.zeros((m, k)), np.zeros((n_z, k))
        if k:
            qr_z, tau = _lapack(scipy.linalg.lapack.dgeqrf, self.tr[:, zero].T)[:2]
            rt_z = np.triu(qr_z[:k]).T
            q_z = _lapack(scipy.linalg.lapack.dorgqr, qr_z[:, :k], tau)[0]
        n_s = rows_s.size
        dim = m + k + n_s
        # large xi: fold each pair's row into its sqrt(mu) row; M^T = C_L / rho
        rho = np.sqrt(xi_l**2 + mu)
        b = r2[rows_l] / rho
        m_t = c_mat[rows_l]
        m_t /= rho[:, None]
        kmat = m_t.T @ m_t
        ag = xi_l != 1.0
        m_ag = m_t[ag]
        # the F1 rows over [x | w | S | c] of A u - c, and L^-1 M b, all
        # whitened by K's factor; x gains M diag(xi_L) M^T, which is
        # K - I = M M^T less M diag(1 - xi_L) M^T over the xi_t < 1 pairs
        top = np.empty((m, dim + 2))
        top[:, :m] = hm + kmat - m_ag.T @ (m_ag * (1.0 - xi_l[ag])[:, None])
        kmat.flat[::m + 1] += 1.0
        chol = scipy.linalg.cho_factor(kmat, lower=True, check_finite=False)[0]
        top[:, m:m + k] = rt_z
        top[:, m + k:dim] = self.tr[:, small]
        top[:, dim] = m_t.T @ (xi_l * b) - r[:m]
        top[:, dim + 1] = m_t.T @ b
        top = _solve_triangular(chol, top, lower=1)
        # the core's rows: the whitened F1 rows, the weight-1 rows that see
        # only x (beta-beta and xi = 0), sqrt(mu) [L^T | L^-1 M b], the
        # small pairs' rows and sqrt(mu) I on w and S
        weight_one = tangent_layout(n, p, n - p).trailing
        n_one, sqrt_mu = np.count_nonzero(weight_one), np.sqrt(mu)
        n_x = n_one + m
        # at least one row, which LAPACK asks of any matrix
        core = np.zeros((max(m + n_x + 2 * n_s + k, 1), dim + 1), order="F")
        core[:m] = top[:, :dim + 1]
        core[m:m + n_one, :m] = c_mat[weight_one]
        core[m:m + n_one, dim] = r2[weight_one]
        iu, ju, _ = triu_pairs(m)
        core[m + n_one + iu, ju] = sqrt_mu * chol[ju, iu]
        core[m + n_one:m + n_x, dim] = sqrt_mu * top[:, dim + 1]
        block = core[m + n_x:m + n_x + n_s]
        block[:, :m], block[:, dim] = c_mat[rows_s], r2[rows_s]
        np.fill_diagonal(block[:, m + k:dim], -xi_t[small])
        np.fill_diagonal(core[m + n_x + n_s:, m:dim], sqrt_mu)
        tri = _lapack(scipy.linalg.lapack.dgeqrf, core, overwrite_a=1)[0]
        sol = _solve_triangular(tri[:dim, :dim], tri[:dim, dim])
        # the large pairs at the solution: K^-1 (F1 rows) = L^-T (whitened rows)
        d = _solve_triangular(chol, top[:, :dim] @ sol - top[:, dim], lower=1, trans=1)
        coeffs = np.empty(xi_t.size)
        coeffs[zero] = q_z @ sol[m:m + k]
        coeffs[large] = (xi_l * (m_t @ sol[:m] - b) - m_t @ d) / rho
        coeffs[small] = sol[m + k:]
        return np.concatenate([sol[:m], coeffs])

    @_cached
    def matrix(self) -> np.ndarray:
        """The dense J: the four blocks placed into zeros."""
        m, n_sym, dim_t = self.hm.shape[0], self.c_mat.shape[0], self.xi_t.size
        matrix = np.zeros((m + n_sym, m + dim_t))
        matrix[:m, :m] = self.hm
        matrix[m:, :m] = -self.c_mat
        matrix[:m, m:] = self.tr
        matrix[m + self.frame.layout.rows, m + np.arange(dim_t)] = self.xi_t
        return matrix

    def sigma_min(self) -> float:
        """The smallest singular value of ``matrix``, by LAPACK ``dgesdd``
        with the workspace it asks for, the call of ``np.linalg.svd``; a
        non-finite entry raises :class:`NumericalError` first."""
        rows, cols = self.matrix.shape
        if cols == 0:
            return np.inf
        _require_finite(self.matrix)
        lwork = _lapack(scipy.linalg.lapack.dgesdd_lwork, rows, cols, compute_uv=0)[0]
        svals = _lapack(scipy.linalg.lapack.dgesdd, self.matrix, compute_uv=0, lwork=int(lwork))[1]
        return float(svals[-1])


def assemble_dF(frame: TangentFrame) -> AssembledJacobian:
    """Slice the Jacobian blocks from the frame's rotated constraint derivative C.

    A coordinate direction (v_x, H) maps to
    (Hess L v_x - dg(dg* v_x) + dg H, -dg* v_x + xi(H)).  In the frame's
    rows, with C = ``frame.c_mat``:

        [ Hess L - C^T C     C[rows].T ]
        [      -C            diag(xi_t) on the tangent rows ]

    where xi_t is the projector's divided difference
    (max(lam_k, 0) - max(lam_l, 0)) / (lam_k - lam_l) at each tangent
    pair (k, l), k <= l, with beta eigenvalues read as zeros: 1 where l
    is not in gamma, lam_k / (lam_k - lam_l) on the alpha-gamma pairs
    and 0 on the beta-gamma and gamma-gamma pairs.  Only the alpha-gamma
    quotients depend on the point; the rest (``xi_base``) and the
    alpha-gamma positions (``ag``) come from the frame's one stratum
    layout, :func:`spectral.tangent_layout`.
    """
    ied, c_mat, layout = frame.ied, frame.c_mat, frame.layout
    lam = ied.eigenvalues[layout.pairs[layout.ag]]  # (lam_k, lam_l) per alpha-gamma pair
    xi_t = layout.xi_base.copy()
    xi_t[layout.ag] = lam[:, 0] / (lam[:, 0] - lam[:, 1])
    return AssembledJacobian(
        frame=frame,
        hm=frame.hess - c_mat.T @ c_mat,
        c_mat=c_mat,
        tr=c_mat[layout.rows].T,
        xi_t=xi_t,
    )
