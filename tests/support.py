"""Shared fixture builders and test utilities for the test suite.

Besides the random builders this holds the stratum utilities that only
tests call: the tangent pairs and tangent matrices of an IED,
tangent/normal projections, a tangent basis, re-drawn eigenbases, the
frame at a point (with the IED of G(z) by default), the coordinate
isomorphism of a tangent frame, the unrotated coordinates of a
residual, point helpers, the off-stratum curve of the 4x4 fixture and
the stratum-restricted error-bound probe.
"""

from dataclasses import replace

import numpy as np

from sgnsdp.errors import InertiaViolation
from sgnsdp.kkt import KktResidual, TangentFrame, TangentVector, big_g, residual
from sgnsdp.model import AffineQuadraticProblem, NlsdpProblem, PrimalDualPoint
from sgnsdp.solver import retract_point
from sgnsdp.spectral import (
    IED,
    SQRT2,
    make_ied,
    pair_mask,
    sym,
    sym_to_vec,
    triu_pairs,
)


def frob_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius inner product <A, B> = trace(A B) for symmetric A, B."""
    return float(np.sum(a * b))


def packed_index(i: int, j: int) -> int:
    """Flat index of entry (i, j), i >= j, in the packed lower triangle."""
    if j > i:
        i, j = j, i
    return i * (i + 1) // 2 + j


def point(x, y) -> PrimalDualPoint:
    """Build a point from array-likes, symmetrizing y."""
    return PrimalDualPoint(
        x=np.asarray(x, dtype=float).reshape(-1), y=sym(np.asarray(y, dtype=float))
    )


def point_distance(a: PrimalDualPoint, b: PrimalDualPoint) -> float:
    return float(
        np.sqrt(np.sum((a.x - b.x) ** 2) + np.sum((a.y - b.y) ** 2))
    )


# ---------------------------------------------------------------------------
# stratum utilities
# ---------------------------------------------------------------------------

def project_nsd(ied: IED) -> np.ndarray:
    """Metric projection onto the NSD cone: keep the gamma eigenpairs."""
    r = ied.n - ied.q
    pg = ied.basis[:, r:]
    return sym(pg @ (ied.eigenvalues[r:, None] * pg.T))


def tangent_pairs(ied: IED) -> np.ndarray:
    """Index pairs (k, l), k <= l, not both in beta, in upper-triangle order."""
    iu, ju, _ = triu_pairs(ied.n)
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


def residual_vec(res: KktResidual) -> np.ndarray:
    """Coefficients of F in (R^m, orthonormal symmetric basis), unrotated."""
    return np.concatenate([res.f1, sym_to_vec(res.f2)])


def stratum_dimension(n: int, p: int, q: int) -> int:
    """dim of the fixed-inertia manifold: n(p+q) - (p+q)(p+q-1)/2."""
    r = p + q
    return n * r - r * (r - 1) // 2


def tangent_basis(ied: IED) -> list:
    """Orthonormal basis of the tangent space at ``ied.matrix``.

    Elements are P E_kl P^T for the pairs of ``tangent_pairs``, with
    E_kl as in ``tangent_matrix``.
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


def rotate_within_eigenspaces(ied: IED, seed: int) -> IED:
    """Re-draw the eigenbasis inside each cluster of equal eigenvalues.

    Probes the non-uniqueness of the decomposition: the result
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


def frame_at(problem, z, ied=None) -> TangentFrame:
    """The frame at ``z`` for ``ied``, by default the IED of G(z)."""
    return TangentFrame(problem, z, make_ied(big_g(problem, z)) if ied is None else ied)


# ---------------------------------------------------------------------------
# the coordinate isomorphism of a tangent frame
# ---------------------------------------------------------------------------

def coeffs_from_matrix(frame: TangentFrame, h: np.ndarray) -> np.ndarray:
    """Coefficients of the tangent component of ``h``."""
    ht = frame.ied.basis.T @ h @ frame.ied.basis
    k, l = frame.pairs[:, 0], frame.pairs[:, 1]
    return ht[k, l] * np.where(k == l, 1.0, SQRT2)


def to_coords(frame: TangentFrame, v_x: np.ndarray, v_y: np.ndarray):
    """phi_z: ambient (v_x, v_y) -> (v_x, H)."""
    return v_x, frame.problem.apply_dg(frame.z.x, v_x) + v_y


def from_coords(frame: TangentFrame, v_x: np.ndarray, h: np.ndarray):
    """phi_z^{-1}: (v_x, H) -> ambient (v_x, v_y)."""
    return v_x, h - frame.problem.apply_dg(frame.z.x, v_x)


# ---------------------------------------------------------------------------
# random builders
# ---------------------------------------------------------------------------


def haar_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def stratum_matrix(rng, n, p, q, lo=0.3, hi=2.0):
    """Random member of the (p, q) stratum with eigenvalues away from zero."""
    basis = haar_orthogonal(rng, n)
    lam = np.zeros(n)
    lam[:p] = rng.uniform(lo, hi, size=p)
    lam[n - q :] = -rng.uniform(lo, hi, size=q)
    lam = np.sort(lam)[::-1]
    return sym(basis @ (lam[:, None] * basis.T))


def random_tangent(rng, ied: IED, scale=1.0):
    coeffs = rng.standard_normal(tangent_pairs(ied).shape[0])
    norm = np.linalg.norm(coeffs)
    if norm > 0:
        coeffs *= scale / norm
    return tangent_matrix(ied, coeffs)


def random_problem(rng, n, m, spd_quad=True):
    """Generic affine-quadratic instance (no special structure at any point)."""
    mats = [sym(rng.standard_normal((n, n))) / np.sqrt(n) for _ in range(m)]
    a0 = sym(rng.standard_normal((n, n)))
    if spd_quad:
        root = rng.standard_normal((m, m)) / np.sqrt(m)
        quad = root @ root.T + 0.3 * np.eye(m)
    else:
        quad = sym(rng.standard_normal((m, m)))
    c = rng.standard_normal(m)
    return AffineQuadraticProblem(c=c, a0=a0, a_list=mats, quad=quad)


def random_point(rng, problem, scale=1.0):
    return PrimalDualPoint(
        x=scale * rng.standard_normal(problem.m),
        y=scale * sym(rng.standard_normal((problem.n, problem.n))),
    )


def point_on_stratum(rng, problem, z_ref, distance):
    """Retract a random tangent vector of the given norm from ``z_ref``."""
    res = residual(problem, z_ref)
    frame = TangentFrame(problem, z_ref, res.ied)
    raw = rng.standard_normal(frame.dim)
    raw *= distance / np.linalg.norm(raw)
    v = TangentVector(frame=frame, v_x=raw[: problem.m], coeffs=raw[problem.m :])
    return retract_point(v)


def corrected_random_point(rng, n, m, n_zero=1, seed_shift=0):
    """Random problem plus a point whose G-matrix has exact zero eigenvalues.

    Built by evaluating a random point and subtracting the spectral mass
    of ``n_zero`` eigenvalues from the multiplier, so the beta block is
    exactly populated and the normal directions are generically nonzero.
    """
    problem = random_problem(rng, n, m)
    z0 = random_point(rng, problem)
    big = problem.eval_g(z0.x) + z0.y
    ied = make_ied(big)
    order = np.argsort(np.abs(ied.eigenvalues))[:n_zero]
    cols = ied.basis[:, order]
    shift = sym(cols @ (ied.eigenvalues[order][:, None] * cols.T))
    return problem, PrimalDualPoint(x=z0.x, y=sym(z0.y - shift))


# ---------------------------------------------------------------------------
# the 4x4 fixture off its stratum, and the stratum error bound
# ---------------------------------------------------------------------------

def degenerate_fixture_curve(t: float) -> PrimalDualPoint:
    """Off-stratum multiplier curve y(t) for the 4x4 fixture.

    Moves distance Theta(t) away from the reference multiplier while the
    KKT residual decays like Theta(t^2): the classical local error bound
    fails along this curve even though the stratum-restricted one holds.
    """
    y = np.zeros((4, 4))
    y[3, 3] = -1.0
    y[2, 2] = -t
    y[0, 3] = y[3, 0] = t * t
    return PrimalDualPoint(x=np.zeros(5), y=y)


def error_bound_probe(
    problem,
    z_bar: PrimalDualPoint,
    radius: float,
    samples: int,
    seed: int = 0,
) -> float:
    """Empirical stratum-restricted error-bound constant near a KKT pair.

    Retracts random tangent vectors of norm up to ``radius`` and reports
    the smallest observed ratio ||F(z)|| / ||z - z_bar||.
    """
    res = residual(problem, z_bar)
    frame = TangentFrame(problem, z_bar, res.ied)
    rng = np.random.default_rng(seed)
    dim = frame.dim
    best = np.inf
    for _ in range(samples):
        raw = rng.standard_normal(dim)
        norm = float(np.linalg.norm(raw))
        if norm == 0.0:
            continue
        raw *= radius * rng.uniform(0.1, 1.0) / norm
        v = TangentVector(frame=frame, v_x=raw[: problem.m], coeffs=raw[problem.m :])
        try:
            z = retract_point(v)
        except InertiaViolation:
            continue
        dist = point_distance(z, z_bar)
        if dist == 0.0:
            continue
        ratio = residual(problem, z).norm / dist
        best = min(best, ratio)
    return best


# ---------------------------------------------------------------------------
# nonlinear problems
# ---------------------------------------------------------------------------

class Oscillatory(NlsdpProblem):
    """Nonlinear 1x1 instance: f = x^2/2, g(x) = sin(freq x) + level.

    Strong constraint curvature makes full Gauss-Newton steps overshoot,
    which is what the backtracking and stall paths need.
    """

    def __init__(self, freq=25.0, level=0.5):
        self.freq = freq
        self.level = level

    @property
    def m(self):
        return 1

    @property
    def n(self):
        return 1

    def eval_f(self, x):
        return float(0.5 * x[0] ** 2)

    def grad_f(self, x):
        return np.array([x[0]])

    def eval_g(self, x):
        return np.array([[np.sin(self.freq * x[0]) + self.level]])

    def apply_dg(self, x, v):
        return np.array([[self.freq * np.cos(self.freq * x[0]) * v[0]]])

    def adjoint_dg(self, x, s):
        return np.array([self.freq * np.cos(self.freq * x[0]) * s[0, 0]])

    def apply_hess_lagrangian(self, x, y, v):
        curvature = 1.0 - y[0, 0] * self.freq**2 * np.sin(self.freq * x[0])
        return np.array([curvature * v[0]])


class OverflowingConstraint(AffineQuadraticProblem):
    """f = x + x^2/2 with g(x) = x, except that g overflows to inf once
    x > 1.5, as a user's callback may at a far trial point."""

    def __init__(self):
        super().__init__(c=[1.0], a0=[[0.0]], a_list=[[[1.0]]], quad=[[1.0]])

    def eval_g(self, x):
        if x[0] > 1.5:
            return np.full((1, 1), np.inf)
        return super().eval_g(x)
