"""Span and call-count tracer for the `zerocycles` modules, installed from outside.

`Tracer.install` wraps the public functions of each layer module (`algebra`,
`geometry`, `chow`, `pointsearch`, `descent`, `cli`) and the public methods
of the classes they define, plus the arithmetic operators of those classes.
A wrapped function is rebound in every `zerocycles` namespace that holds it,
so ``pointsearch.third_point`` and ``cli.find_certificate`` are traced along
with the defining modules.  Nothing in the program changes.

Every call is counted.  A call records a span ``[name, layer, start, end,
parent]`` when it crosses into a different layer, or when its function is in
`TIMED`; a call inside its own layer adds its time to the enclosing span.
Self time of a layer is its spans' time minus the time of their child spans.

Calls the tracer cannot see:

* default arguments bound at definition time: ``apply_move(..., h0_fn=h0,
  genus_fn=genus)`` keeps the original `h0`, so ``descent.h0`` counts only the
  calls made while `_transitions` builds move menus, and the verifier's
  `h0_by_recurrence` calls are counted under their own name;
* private helpers (leading underscore, e.g. `_restrict_coords`,
  `_transitions`, `_enumerate_shard`), properties (`Poly.degree`,
  `AlgElement.is_zero`), constructors and `__eq__`/`__hash__`: their time
  is self time of the calling span;
* `Fraction` arithmetic, which is the standard library, not a layer.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import types
from collections import Counter
from time import perf_counter

LAYERS = ("algebra", "geometry", "chow", "pointsearch", "descent", "cli")

#: Operators wrapped in addition to public names.
OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "__divmod__", "__floordiv__", "__mod__",
    "__call__",
)

#: Functions that always open a span, so their own total time is reported.
TIMED = frozenset({
    "geometry.third_point", "geometry.tangent_residual", "geometry.line_section",
    "geometry.tangent_triple", "pointsearch.enumerate_rational", "pointsearch.saturate",
    "descent.find_certificate", "descent.verify_certificate", "cli.run",
})

NAME, LAYER, START, END, PARENT = range(5)


class Tracer:
    def __init__(self):
        self.active = False
        self.counts = Counter()
        self.spans = []
        self.stack = []
        self.refusals = 0
        self._wrappers = {}
        self._refusal_type = None

    # --- recording -----------------------------------------------------------

    def _wrap(self, name: str, layer: str, fn):
        timed = name in TIMED
        counts = self.counts
        spans = self.spans
        stack = self.stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            counts[name] += 1
            if not timed and stack and spans[stack[-1]][LAYER] == layer:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            span = [name, layer, 0.0, 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except self._refusal_type:
                if layer == "geometry" and (parent < 0 or spans[parent][LAYER] != "geometry"):
                    self.refusals += 1
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """A span opened by the benchmark itself, around one op."""
        span = [name, layer, perf_counter(), 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[END] = perf_counter()
            self.stack.pop()

    def reset(self):
        self.counts.clear()
        self.spans.clear()
        self.stack.clear()
        self.refusals = 0

    # --- installation --------------------------------------------------------

    def install(self):
        """Wrap every public callable of the layer modules, in every namespace."""
        modules = {layer: importlib.import_module(f"zerocycles.{layer}") for layer in LAYERS}
        self._refusal_type = modules["geometry"].GeometryError
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, types.FunctionType) and not attr.startswith("_"):
                    self._function(layer, obj)
                elif isinstance(obj, type):
                    self._class(layer, obj)
        namespaces = [m for n, m in sys.modules.items() if n.split(".")[0] == "zerocycles"]
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                wrapper = self._wrappers.get(id(obj)) if isinstance(obj, types.FunctionType) else None
                if wrapper is not None:
                    setattr(namespace, attr, wrapper)

    def _function(self, layer, fn):
        if id(fn) not in self._wrappers:
            self._wrappers[id(fn)] = self._wrap(f"{layer}.{fn.__qualname__}", layer, fn)
        return self._wrappers[id(fn)]

    def _class(self, layer, cls):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            if isinstance(member, types.FunctionType):
                setattr(cls, attr, self._function(layer, member))
            elif isinstance(member, classmethod):
                setattr(cls, attr, classmethod(self._function(layer, member.__func__)))

    # --- summaries -----------------------------------------------------------

    def summary(self) -> dict:
        """Counts, per-name span time and per-layer self time of everything recorded."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        self_time = Counter()
        total_time = Counter()
        for idx, span in enumerate(self.spans):
            duration = span[END] - span[START]
            self_time[span[LAYER]] += duration - child_time[idx]
            # nested spans of one name (recursion) count once, at the outermost
            parent = span[PARENT]
            if parent < 0 or self.spans[parent][NAME] != span[NAME]:
                total_time[span[NAME]] += duration
        return {
            "counts": dict(self.counts),
            "span_s": dict(total_time),
            "self_s": dict(self_time),
            "spans": len(self.spans),
            "refusals": self.refusals,
        }

    def children_of(self, parent_layer: str, name: str) -> int:
        """Number of `name` spans opened directly from a span of `parent_layer`."""
        return sum(
            1 for s in self.spans
            if s[NAME] == name and s[PARENT] >= 0 and self.spans[s[PARENT]][LAYER] == parent_layer
        )
