"""Shared fixture builders for the test suite."""

import numpy as np

from sgnsdp.kkt import TangentVector, residual, tangent_coords
from sgnsdp.model import AffineQuadraticProblem, NlsdpProblem, PrimalDualPoint
from sgnsdp.spectral import IED, make_ied, sym, tangent_matrix, tangent_pairs


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


def tangent_from_coeffs(ied: IED, coeffs):
    """Tangent matrix at ``ied.matrix`` with the given basis coefficients."""
    return tangent_matrix(ied, coeffs)


def random_tangent(rng, ied: IED, scale=1.0):
    coeffs = rng.standard_normal(tangent_pairs(ied).shape[0])
    norm = np.linalg.norm(coeffs)
    if norm > 0:
        coeffs *= scale / norm
    return tangent_from_coeffs(ied, coeffs)


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
    from sgnsdp.solver import retract_point

    res = residual(problem, z_ref)
    frame = tangent_coords(problem, z_ref, res.ied)
    raw = rng.standard_normal(frame.dim)
    raw *= distance / np.linalg.norm(raw)
    v = TangentVector(frame=frame, v_x=raw[: problem.m], coeffs=raw[problem.m :])
    return retract_point(problem, z_ref, v)


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
