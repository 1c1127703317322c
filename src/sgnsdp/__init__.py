"""Nonlinear semidefinite programming via stratified Gauss-Newton.

Finds primal-dual KKT pairs of *min f(x) s.t. g(x) PSD* by minimizing
the least-squares merit of the nonsmooth KKT residual, exploiting the
smoothness of the PSD projector on fixed-inertia strata.  Also exposes
numeric checkers for the problem's regularity conditions.
"""

__version__ = "0.1.0"

from .kkt import residual
from .model import (
    AffineQuadraticProblem,
    NlsdpProblem,
    PrimalDualPoint,
    degenerate_fixture,
)
from .regularity import diagnose
from .solver import SolverConfig, sgn_solve
