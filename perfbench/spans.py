"""In-memory span recorder around the package's layer entry points.

A traced run swaps each layer function, in every module of the package that
imports it, for a wrapper that records one span per call: layer, function,
start, end, parent span and operation id (plus the element count of each
``log_gamma`` argument).  Calls a module makes to its own functions stay
unwrapped, except where ``LAYERS`` says otherwise, so one quadrature pass is
one ``wavefn`` span however it was entered.  Nothing in the package changes;
leaving the ``with`` block puts every original back.  Spans assume a single
calling thread, which the benchmark pins.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

PACKAGE = "bispectral"

# (defining module, entry points, also wrap calls made inside that module)
LAYERS = (
    # gamma_log_sum reaches log_gamma through cgamma's own namespace
    ("cgamma", ("log_gamma",), True),
    ("wavefn", ("eval_phi", "eval_phi_many", "eval_psi"), False),
    ("sutherland_ops", ("apply_H1", "apply_H2", "apply_reduced_HS"), False),
    ("dual_ops", ("apply_dual_hamiltonian", "gauge_function",
                  "gauge_relation_residual", "measure_weight"), False),
    ("macdonald", ("apply_macdonald", "tau_limit_check", "verify_gauge_equivalence",
                   "weight_and_gauge", "weight_limit_check"), False),
    ("identities", ("binomial_limit_check", "residue_check", "substitution_map",
                    "sum_S", "verify_lemma1"), False),
    ("legendre", ("closed_form_phi2", "dual_system_residuals",
                  "recurrence_check"), False),
    # the benchmark itself calls cli.run through the defining module
    ("cli", ("run",), True),
)


@dataclass
class Span:
    span_id: int
    parent: int | None
    op_id: int
    layer: str
    func: str
    start: float
    end: float
    elems: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _layer_name(module: str, func: str, args, kwargs) -> str:
    if module == "cgamma":
        return "cgamma.log_gamma"
    if module == "wavefn":
        lam = args[0] if args else kwargs["lam"]
        return f"wavefn.n{getattr(lam, 'n', None) or len(lam)}"
    return module


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, module: str, func: str, fn):
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            layer = _layer_name(module, func, args, kwargs)
            elems = int(np.size(args[0])) if module == "cgamma" else 0
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(span_id, parent, self.op_id, layer, func,
                                       start, end, elems))
        return traced

    @contextmanager
    def op(self, op_id: int):
        """Root span of one operation; every span inside it shares op_id."""
        self.op_id = op_id
        span_id = self._next_id
        self._next_id += 1
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, None, op_id, "op", "op", start, end))

    def __enter__(self) -> "Tracer":
        prefix = PACKAGE + "."
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(prefix)]
        for definer_name, funcs, inside in LAYERS:
            definer = sys.modules[prefix + definer_name]
            for func in funcs:
                original = getattr(definer, func)
                wrapper = self._wrap(definer_name, func, original)
                for mod in modules:
                    if mod.__dict__.get(func) is original and (mod is not definer or inside):
                        self._patched.append((mod, func, original))
                        setattr(mod, func, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, func, original in reversed(self._patched):
            setattr(mod, func, original)
        self._patched.clear()

