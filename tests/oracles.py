"""Independent verification machinery for the test suite.

Every derivative formula, in the package or among the analysis oracles
of :mod:`reference`, is paired with a slow, formula-free route here:
one-sided difference quotients for the projector differential and the
merit derivative, a projected-gradient PSD projection for orders up to
three that avoids the LAPACK eigensolver entirely (analytic
characteristic-polynomial roots plus a matrix polynomial for the
absolute value), and a convergence-rate classifier driven by iterate
distances.
"""

from dataclasses import dataclass

import numpy as np

from support import psd_part

from sgnsdp.kkt import residual
from sgnsdp.model import NlsdpProblem, PrimalDualPoint
from sgnsdp.spectral import IED, retract_fixed_inertia, sym


def fd_curve_derivative(ied: IED, h_tangent: np.ndarray, t_list) -> list:
    """Difference quotients of t -> PSD-part of the retraction of t * H.

    The quotients converge, first order in t, to the on-stratum
    differential of the projector applied to ``h_tangent``.
    """
    base = psd_part(ied.matrix)
    out = []
    for t in t_list:
        moved = retract_fixed_inertia(ied, t * h_tangent)
        out.append((psd_part(moved) - base) / t)
    return out


def fd_phi_dir(
    problem: NlsdpProblem,
    z: PrimalDualPoint,
    v_x: np.ndarray,
    v_y: np.ndarray,
    t_list,
) -> list:
    """One-sided difference quotients of the merit along an ambient direction.

    Only t decreasing to zero from above is meaningful: the merit is
    B-differentiable, not differentiable.
    """
    phi0 = residual(problem, z).phi
    out = []
    for t in t_list:
        shifted = PrimalDualPoint(x=z.x + t * v_x, y=sym(z.y + t * v_y))
        out.append((residual(problem, shifted).phi - phi0) / t)
    return out


# ---------------------------------------------------------------------------
# brute-force PSD projection (n <= 3), no LAPACK involved
# ---------------------------------------------------------------------------

def _eigvals_analytic(a: np.ndarray) -> np.ndarray:
    """Roots of the characteristic polynomial of a symmetric matrix, n <= 3."""
    n = a.shape[0]
    if n == 1:
        return np.array([a[0, 0]])
    if n == 2:
        mean = 0.5 * (a[0, 0] + a[1, 1])
        radius = np.sqrt(0.25 * (a[0, 0] - a[1, 1]) ** 2 + a[0, 1] ** 2)
        return np.array([mean + radius, mean - radius])
    if n != 3:
        raise ValueError("analytic eigenvalues implemented for n <= 3 only")
    off_sq = a[0, 1] ** 2 + a[0, 2] ** 2 + a[1, 2] ** 2
    q = np.trace(a) / 3.0
    if off_sq == 0.0:
        return np.sort(np.diag(a))[::-1].astype(float)
    p2 = np.sum((np.diag(a) - q) ** 2) + 2.0 * off_sq
    p = np.sqrt(p2 / 6.0)
    b = (a - q * np.eye(3)) / p
    det_b = (
        b[0, 0] * (b[1, 1] * b[2, 2] - b[1, 2] * b[2, 1])
        - b[0, 1] * (b[1, 0] * b[2, 2] - b[1, 2] * b[2, 0])
        + b[0, 2] * (b[1, 0] * b[2, 1] - b[1, 1] * b[2, 0])
    )
    r = np.clip(det_b / 2.0, -1.0, 1.0)
    phi = np.arccos(r) / 3.0
    top = q + 2.0 * p * np.cos(phi)
    bottom = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    middle = 3.0 * q - top - bottom
    return np.array([top, middle, bottom])


def _matrix_abs(a: np.ndarray) -> np.ndarray:
    """|A| for symmetric A with n <= 3 via polynomial interpolation.

    Collapses near-equal eigenvalues to shared nodes, then evaluates the
    Lagrange interpolant of x -> |x| on the spectrum at the matrix.
    """
    lam = _eigvals_analytic(a)
    scale = max(1.0, float(np.max(np.abs(lam))))
    nodes = []
    for value in lam:
        if not any(abs(value - existing) <= 1e-9 * scale for existing in nodes):
            nodes.append(float(value))
    n = a.shape[0]
    result = np.zeros_like(a)
    for j, node in enumerate(nodes):
        term = np.eye(n) * abs(node)
        for k, other in enumerate(nodes):
            if k == j:
                continue
            term = term @ (a - other * np.eye(n)) / (node - other)
        result = result + term
    return sym(result)


def _psd_projection_analytic(a: np.ndarray) -> np.ndarray:
    return sym(0.5 * (a + _matrix_abs(a)))


def brute_projection(a: np.ndarray, iterations: int = 10_000) -> np.ndarray:
    """Nearest PSD matrix by projected gradient descent with step 1/2.

    Independent oracle for the spectral projection formula, limited to
    n <= 3.  Each iterate is pulled halfway toward the target and
    projected analytically, contracting the negative part geometrically.
    """
    a = sym(np.asarray(a, dtype=float))
    if a.shape[0] > 3:
        raise ValueError("brute projection supports n <= 3 only")
    m = np.zeros_like(a)
    for _ in range(iterations):
        m = _psd_projection_analytic(0.5 * (m + a))
    return m


# ---------------------------------------------------------------------------
# convergence-rate estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateEstimate:
    distances: np.ndarray
    linear_ratios: np.ndarray
    quadratic_ratios: np.ndarray
    verdict: str                    # quadratic | superlinear | linear | inconclusive


def estimate_rate(distances, noise_floor: float = 1e-14) -> RateEstimate:
    """Classify the convergence rate of a distance sequence.

    Distances below the noise floor are dropped before forming the
    ratios d_{k+1}/d_k and d_{k+1}/d_k^2; the verdict thresholds the
    trailing ratios: quadratic needs shrinking linear ratios together
    with quadratic ratios bounded by a fixed multiple of their median.
    """
    clean = np.asarray([d for d in distances if d > noise_floor], dtype=float)
    lin = clean[1:] / clean[:-1] if clean.size > 1 else np.zeros(0)
    quad = clean[1:] / clean[:-1] ** 2 if clean.size > 1 else np.zeros(0)
    tail = min(3, lin.size)
    if tail < 2:
        return RateEstimate(clean, lin, quad, "inconclusive")
    lin_tail = lin[-tail:]
    quad_tail = quad[-tail:]
    shrinking = bool(np.all(lin_tail <= 0.3)) and bool(
        np.all(np.diff(lin_tail) < 0)
    )
    if shrinking:
        bound = 100.0 * float(np.median(quad))
        if np.all(quad_tail <= bound):
            verdict = "quadratic"
        else:
            verdict = "superlinear"
    elif np.all(lin_tail <= 0.95):
        verdict = "linear"
    else:
        verdict = "inconclusive"
    return RateEstimate(clean, lin, quad, verdict)
