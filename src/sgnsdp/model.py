"""Problem abstraction and fixtures.

A problem is *minimize f(x) subject to g(x) PSD* with f real-valued and
g mapping into the symmetric matrices, both twice differentiable.  The
solver only touches problems through the :class:`NlsdpProblem` interface;
:class:`AffineQuadraticProblem` is the concrete file-loadable instance
(quadratic f, affine g).  Multipliers follow the convention
L(x, y) = f(x) + <y, g(x)>, so y is negative semidefinite at solutions.
"""

import json
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import ConstructionFailure, InputError
from .spectral import pack_sym, packed_length, sym, unpack_sym


@dataclass(frozen=True)
class PrimalDualPoint:
    """A primal-dual pair z = (x, y) with y a symmetric matrix."""

    x: np.ndarray
    y: np.ndarray


class NlsdpProblem(ABC):
    """Evaluation interface every problem instance provides.

    ``apply_dg(x, v)`` is the constraint derivative applied to a primal
    direction (a symmetric matrix); ``adjoint_dg(x, s)`` is its adjoint
    (a primal vector), so <apply_dg(x, v), S> = <v, adjoint_dg(x, S)>.
    ``apply_hess_lagrangian`` applies the x-Hessian of
    L(x, y) = f(x) + <y, g(x)>.  ``dg_stack(x)`` stacks ``apply_dg`` over
    the unit vectors; the solver and the checks read the constraint
    derivative through it.
    """

    @property
    @abstractmethod
    def m(self) -> int:
        """Primal dimension."""

    @property
    @abstractmethod
    def n(self) -> int:
        """Order of the constraint matrix."""

    @abstractmethod
    def eval_f(self, x: np.ndarray) -> float: ...

    @abstractmethod
    def grad_f(self, x: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def eval_g(self, x: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def apply_dg(self, x: np.ndarray, v: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def adjoint_dg(self, x: np.ndarray, s: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def apply_hess_lagrangian(
        self, x: np.ndarray, y: np.ndarray, v: np.ndarray
    ) -> np.ndarray: ...

    def dg_stack(self, x: np.ndarray) -> np.ndarray:
        """The m x n x n stack of ``apply_dg(x, e_i)`` over the m unit vectors.

        The default makes m ``apply_dg`` calls; a problem that holds its
        constraint derivative may return it directly.  Callers do not
        modify the result.
        """
        stack = np.zeros((self.m, self.n, self.n))
        for i, e in enumerate(np.eye(self.m)):
            stack[i] = self.apply_dg(x, e)
        return stack


def _finite_sym(a, field: str) -> np.ndarray:
    """``sym`` of ``a``; an entry that overflows to infinity in it is an
    :class:`InputError` naming ``field``, not a numerical failure later."""
    a = np.asarray(a, dtype=float)
    with np.errstate(over="ignore"):
        out = sym(a)
    if np.all(np.isfinite(a)) and not np.all(np.isfinite(out)):
        raise InputError(f"{field} overflows when symmetrized", field=field)
    return out


class AffineQuadraticProblem(NlsdpProblem):
    """f(x) = c'x + x'Qx/2 and g(x) = A0 + sum_i x_i A_i."""

    def __init__(self, c, a0, a_list, quad=None):
        c = np.asarray(c, dtype=float).reshape(-1)
        a0 = _finite_sym(a0, "constraint.A0")
        mats = np.asarray(a_list, dtype=float)
        if mats.size == 0:
            mats = np.zeros((0, a0.shape[0], a0.shape[0]))
        if mats.ndim != 3 or mats.shape[1:] != a0.shape:
            raise InputError(
                "constraint matrices must all match the order of A0",
                field="constraint.A",
            )
        if mats.shape[0] != c.shape[0]:
            raise InputError(
                f"got {mats.shape[0]} constraint matrices for {c.shape[0]} variables",
                field="constraint.A",
            )
        if quad is None:
            quad = np.zeros((c.shape[0], c.shape[0]))
        quad = _finite_sym(quad, "objective.Q")
        if quad.shape != (c.shape[0], c.shape[0]):
            raise InputError("Q must be m x m", field="objective.Q")
        self.c = c
        self.quad = quad
        self.a0 = a0
        self.a = _finite_sym(mats, "constraint.A")

    @property
    def m(self) -> int:
        return self.c.shape[0]

    @property
    def n(self) -> int:
        return self.a0.shape[0]

    def eval_f(self, x):
        return float(self.c @ x + 0.5 * x @ self.quad @ x)

    def grad_f(self, x):
        return self.c + self.quad @ x

    def eval_g(self, x):
        if self.m == 0:
            return self.a0.copy()
        # np.tensordot(x, self.a, axes=1) without its Python overhead:
        # the same (1, m) by (m, n^2) product, reshaped
        flat = np.dot(np.reshape(x, (1, -1)), self.a.reshape(self.m, -1))
        return self.a0 + flat.reshape(self.n, self.n)

    def apply_dg(self, x, v):
        if self.m == 0:
            return np.zeros((self.n, self.n))
        return np.tensordot(np.asarray(v, dtype=float), self.a, axes=1)

    def adjoint_dg(self, x, s):
        if self.m == 0:
            return np.zeros(0)
        return np.einsum("ijk,jk->i", self.a, s)

    def apply_hess_lagrangian(self, x, y, v):
        return self.quad @ v

    def dg_stack(self, x):
        # g is affine, so the stack is the constant A_1..A_m; a subclass
        # that overrides apply_dg must override this too
        return self.a


# ---------------------------------------------------------------------------
# document handling
# ---------------------------------------------------------------------------

def _require(doc, key, kind, path):
    name = f"{path}.{key}" if path else key
    if key not in doc:
        raise InputError(f"missing field {name}", field=name)
    value = doc[key]
    if kind is int and not (isinstance(value, int) and not isinstance(value, bool)):
        raise InputError(f"{name} must be an integer", field=name)
    if kind is dict and not isinstance(value, dict):
        raise InputError(f"{name} must be an object", field=name)
    if kind is list and not isinstance(value, list):
        raise InputError(f"{name} must be an array", field=name)
    return value


def _numeric_array(value, length, path):
    if not isinstance(value, list) or len(value) != length:
        raise InputError(
            f"{path} must be an array of {length} numbers", field=path
        )
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise InputError(f"{path} contains non-numeric entries", field=path)
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{path} contains non-finite entries", field=path)
    return arr


def problem_from_dict(doc: dict) -> AffineQuadraticProblem:
    """Validate a problem document and build the instance."""
    if not isinstance(doc, dict):
        raise InputError("problem document must be an object", field="")
    n = _require(doc, "n", int, "")
    m = _require(doc, "m", int, "")
    if n < 1:
        raise InputError("n must be at least 1", field="n")
    if m < 0:
        raise InputError("m must be nonnegative", field="m")
    objective = _require(doc, "objective", dict, "")
    constraint = _require(doc, "constraint", dict, "")
    c = _numeric_array(_require(objective, "c", list, "objective"), m, "objective.c")
    quad = None
    if "Q" in objective:
        packed = _numeric_array(objective["Q"], packed_length(m), "objective.Q")
        quad = unpack_sym(packed, m)
    a0 = unpack_sym(
        _numeric_array(
            _require(constraint, "A0", list, "constraint"), packed_length(n), "constraint.A0"
        ),
        n,
    )
    a_raw = _require(constraint, "A", list, "constraint")
    if len(a_raw) != m:
        raise InputError(
            f"constraint.A must hold {m} packed matrices, got {len(a_raw)}",
            field="constraint.A",
        )
    mats = [
        unpack_sym(_numeric_array(entry, packed_length(n), f"constraint.A[{i}]"), n)
        for i, entry in enumerate(a_raw)
    ]
    return AffineQuadraticProblem(c=c, a0=a0, a_list=mats, quad=quad)


def problem_to_dict(problem: AffineQuadraticProblem) -> dict:
    doc = {
        "n": problem.n,
        "m": problem.m,
        "objective": {"c": list(problem.c)},
        "constraint": {
            "A0": list(pack_sym(problem.a0)),
            "A": [list(pack_sym(problem.a[i])) for i in range(problem.m)],
        },
    }
    if np.any(problem.quad):
        doc["objective"]["Q"] = list(pack_sym(problem.quad))
    return doc


def _read_json(path, kind: str):
    """The document in the JSON file at ``path``; a file that is not
    UTF-8 JSON is an :class:`InputError` naming the ``kind`` of file."""
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise InputError(f"{kind} file is not valid JSON: {exc}", field="")


def load_problem(path) -> AffineQuadraticProblem:
    """Read and validate a problem file."""
    return problem_from_dict(_read_json(path, "problem"))


def save_problem(problem: AffineQuadraticProblem, path) -> None:
    with open(path, "w") as handle:
        json.dump(problem_to_dict(problem), handle)


def point_from_dict(doc: dict, m: int, n: int) -> PrimalDualPoint:
    if not isinstance(doc, dict):
        raise InputError("point document must be an object", field="")
    x = _numeric_array(_require(doc, "x", list, ""), m, "x")
    y = unpack_sym(_numeric_array(_require(doc, "y", list, ""), packed_length(n), "y"), n)
    return PrimalDualPoint(x=x, y=y)


def point_to_dict(z: PrimalDualPoint) -> dict:
    return {"x": list(z.x), "y": list(pack_sym(z.y))}


def load_point(path, m: int, n: int) -> PrimalDualPoint:
    return point_from_dict(_read_json(path, "point"), m, n)


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def _sym_unit(i, j, n, value=1.0):
    e = np.zeros((n, n))
    e[i, j] = value
    e[j, i] = value
    return e


def degenerate_fixture():
    """Degenerate 4x4 fixture with a known optimal primal-dual pair.

    min x1 subject to a 4x4 affine matrix constraint; the optimum is
    x = 0 with multiplier y = Diag(0, 0, 0, -1).  The strong regularity
    conditions fail here while the weak ones hold, which is what makes it
    the canonical stress test for the stratified solver.
    """
    n = 4
    a0 = np.zeros((n, n))
    a0[0, 0] = 1.0
    a1 = _sym_unit(3, 3, n)                       # x1 in the (4,4) slot
    a2 = _sym_unit(2, 3, n)                       # x2 couples rows 3 and 4
    a3 = _sym_unit(1, 3, n)                       # x3 couples rows 2 and 4
    a4 = _sym_unit(0, 3, n) + _sym_unit(1, 1, n)  # x4: (1,4) and (2,2)
    a5 = _sym_unit(0, 3, n) - _sym_unit(1, 1, n)  # x5: (1,4) and -(2,2)
    problem = AffineQuadraticProblem(
        c=[1.0, 0.0, 0.0, 0.0, 0.0], a0=a0, a_list=[a1, a2, a3, a4, a5]
    )
    ybar = np.zeros((n, n))
    ybar[3, 3] = -1.0
    return problem, PrimalDualPoint(x=np.zeros(5), y=ybar)


SYNTH_RETRIES = 50


def synth_nondegenerate(seed: int, n: int, m: int):
    """Random affine-constraint instance with a known solution.

    Draws a target constraint matrix with p positive, q negative and at
    least one zero eigenvalue, splits it into a feasible g(x*) and a
    complementary multiplier y*, and back-solves the objective data so
    the KKT residual vanishes at z* = (x*, y*).  Candidates are accepted
    only when the weak regularity margins at z* clear 1e-6, so local
    quadratic convergence is in force there; rejection runs through
    ``SYNTH_RETRIES`` seeds before giving up.
    """
    from .kkt import TangentFrame, residual  # deferred: model is imported by kkt
    from .regularity import check_wsoc, check_wsrcq

    if m < 1 or n < 2:
        raise ValueError("need m >= 1 and n >= 2")
    for attempt in range(SYNTH_RETRIES):
        rng = np.random.default_rng(seed + 7919 * attempt)
        p = int(rng.integers(1, n - 1)) if n > 2 else 1
        q = int(rng.integers(1, n - p)) if n - p > 1 else 1
        if p + q >= n:
            continue
        gauss = rng.standard_normal((n, n))
        pbar, _ = np.linalg.qr(gauss)
        lam = np.zeros(n)
        lam[:p] = rng.uniform(0.5, 2.0, size=p)
        lam[n - q :] = -rng.uniform(0.5, 2.0, size=q)
        lam = np.sort(lam)[::-1]
        g_star = sym(pbar @ (np.maximum(lam, 0.0)[:, None] * pbar.T))
        y_star = sym(pbar @ (np.minimum(lam, 0.0)[:, None] * pbar.T))
        mats = [sym(rng.standard_normal((n, n))) / np.sqrt(n) for _ in range(m)]
        primal = rng.standard_normal(m)
        a0 = g_star - np.tensordot(primal, np.stack(mats), axes=1)
        root = rng.standard_normal((m, m)) / np.sqrt(m)
        quad = root @ root.T + 0.5 * np.eye(m)
        adjoint = np.array([np.sum(mat * y_star) for mat in mats])
        c = -quad @ primal - adjoint
        problem = AffineQuadraticProblem(c=c, a0=a0, a_list=mats, quad=quad)
        z_star = PrimalDualPoint(x=primal, y=y_star)
        res = residual(problem, z_star)
        if np.sqrt(2.0 * res.phi) > 1e-12:
            continue
        frame = TangentFrame(problem, z_star, res.ied)
        if check_wsoc(frame).margin <= 1e-6:
            continue
        if check_wsrcq(frame).margin <= 1e-6:
            continue
        return problem, z_star
    raise ConstructionFailure(
        f"no acceptable instance within {SYNTH_RETRIES} attempts from seed {seed}"
    )
