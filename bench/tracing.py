"""Outside-in span tracing of the sgnsdp layers.

The tracer replaces public functions of the library with timing
wrappers for the length of a ``with`` block and restores the originals
afterwards.  A function imported by name into several modules (for
example ``assemble_dF`` in ``kkt``, ``solver`` and ``regularity``) is
replaced in every module that holds it, so calls made inside the
library are seen too.  Problem callbacks are wrapped on the problem
classes.  Spans are kept in memory; nothing is written while tracing.
"""

import functools
import sys
import time
from dataclasses import dataclass, field

import scipy.linalg

# (span name, module, attribute): module-level functions to wrap.
FUNCTIONS = [
    ("spectral.eig_sym", "sgnsdp.spectral", "eig_sym"),
    ("spectral.make_ied", "sgnsdp.spectral", "make_ied"),
    ("spectral.retract_fixed_inertia", "sgnsdp.spectral", "retract_fixed_inertia"),
    ("kkt.residual", "sgnsdp.kkt", "residual"),
    ("kkt.assemble_dF", "sgnsdp.kkt", "assemble_dF"),
    ("solver.sgn_solve", "sgnsdp.solver", "sgn_solve"),
    ("solver.slmn", "sgnsdp.solver", "slmn"),
    ("solver.lm_direction", "sgnsdp.solver", "lm_direction"),
    ("solver.armijo_search", "sgnsdp.solver", "armijo_search"),
    ("solver.retract_point", "sgnsdp.solver", "retract_point"),
    ("solver.normal_dirs", "sgnsdp.solver", "normal_dirs"),
    ("solver.normal_step", "sgnsdp.solver", "normal_step"),
    ("solver.correct", "sgnsdp.solver", "correct"),
    ("regularity.diagnose", "sgnsdp.regularity", "diagnose"),
    ("regularity.check_wsoc", "sgnsdp.regularity", "check_wsoc"),
    ("regularity.check_wsrcq", "sgnsdp.regularity", "check_wsrcq"),
    ("regularity.check_cn", "sgnsdp.regularity", "check_cn"),
    ("regularity.check_ssosc", "sgnsdp.regularity", "check_ssosc"),
    ("regularity.check_sonc_heuristic", "sgnsdp.regularity", "check_sonc_heuristic"),
    ("regularity.check_srcq_heuristic", "sgnsdp.regularity", "check_srcq_heuristic"),
    ("regularity.injectivity_margin", "sgnsdp.regularity", "injectivity_margin"),
]
# The LM solve reaches the Cholesky factorization through the scipy.linalg
# module attribute, so it is wrapped there; this span splits the
# factorization out of solver.lm_direction.
EXTERNAL = [("linalg.cho_factor", scipy.linalg, "cho_factor")]
CALLBACKS = ["eval_g", "apply_dg", "adjoint_dg", "apply_hess_lagrangian"]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None      # index of the enclosing span, None for a root
    call_id: int            # shared by the spans of one public call
    error: str | None = None
    size: int | None = None  # from SIZERS
    children: list = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> list:
    """Each span's duration minus the time its child spans cover."""
    return [
        span.duration - covered([(spans[c].start, spans[c].end) for c in span.children])
        for span in spans
    ]


# Sizes read off a span's return value: Jacobian columns, LM system order.
SIZERS = {
    "kkt.assemble_dF": lambda jac: jac.matrix.shape[1],
    "solver.lm_direction": lambda out: out[0].v_x.size + out[0].coeffs.size,
}


class Tracer:
    """Context manager that records spans around the library's layers.

    ``problem_classes`` are the classes whose callbacks are wrapped.
    Set ``call_id`` before each public call.
    """

    def __init__(self, problem_classes):
        self.problem_classes = list(dict.fromkeys(problem_classes))
        self.spans = []
        self.call_id = 0
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, sizer = self.spans, self._stack, SIZERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(name, time.perf_counter(), 0.0, parent, self.call_id)
            index = len(spans)
            spans.append(span)
            if parent is not None:
                spans[parent].children.append(index)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if sizer is not None:
                span.size = sizer(result)
            return result

        return traced

    def _patch(self, owner, attribute, replacement):
        self._patched.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def __enter__(self):
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "sgnsdp" or key.startswith("sgnsdp.")]
        for name, home, attribute in FUNCTIONS:
            original = getattr(sys.modules[home], attribute)
            traced = self._wrap(name, original)
            for module in modules:
                if getattr(module, attribute, None) is original:
                    self._patch(module, attribute, traced)
        for name, owner, attribute in EXTERNAL:
            self._patch(owner, attribute, self._wrap(name, getattr(owner, attribute)))
        for cls in self.problem_classes:
            for attribute in CALLBACKS:
                self._patch(cls, attribute, self._wrap(f"model.{attribute}", cls.__dict__[attribute]))
        return self

    def __exit__(self, *exc_info):
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)
        return False
