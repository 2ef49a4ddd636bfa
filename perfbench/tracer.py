"""In-memory layer tracer for the nstl benchmark.

Each nstl module is one layer. `instrument()` wraps the public callables
of every layer (module functions, public methods, properties, and the
arithmetic operators and constructors of its classes) and patches the
wrappers into every nstl module namespace that imported them, because
`from .linalg import rref` binds the name at import time.

A span opens when a call enters a layer from a different layer (or from
the benchmark itself) and closes when that call returns. Nested calls
inside the same layer only bump the call counter. A layer's self time is
the sum of its span durations minus the durations of the spans of other
layers opened directly inside them, so work in the standard library
(`fractions`, `json`) and in numpy counts under the layer that called it.
Protocol methods (`__eq__`, `__hash__`, `__bool__`, `__str__`, ...) are
not wrapped: they run inside hot loops everywhere, and their time counts
under the calling layer.

Nothing is written until `Tracer.report()` is called at the end of a run.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import Counter

LAYERS = (
    "exact_arith",
    "linalg",
    "combinatorics",
    "hecke_core",
    "specht_modules",
    "nonstandard",
    "seminormal",
    "verify",
    "cli",
)

# Dunder methods that are operations of a layer rather than protocol glue.
WRAPPED_DUNDERS = frozenset(
    {
        "__init__",
        "__add__",
        "__radd__",
        "__sub__",
        "__rsub__",
        "__mul__",
        "__rmul__",
        "__truediv__",
        "__rtruediv__",
        "__neg__",
        "__pow__",
    }
)

# Inclusive (wall) time of one callable, outermost call only.
INCLUSIVE = {
    "specht_modules.transition_s": ("specht_modules", "SpechtModule._compute_transition"),
    "nonstandard.oracle_s": ("nonstandard", "nonstandard_dimension_oracle"),
    "nonstandard.certify_s": ("nonstandard", "certify_irreducible"),
    "seminormal.basis_s": ("seminormal", "seminormal_basis"),
}

# Call counts summed over the named callables of one layer.
COUNTED = {
    "exact_arith.rational_new": ("exact_arith", ("RationalFn.__init__",)),
    "exact_arith.rational_mul_calls": (
        "exact_arith",
        ("RationalFn.__mul__", "RationalFn.__rmul__"),
    ),
    "exact_arith.laurent_mul_calls": (
        "exact_arith",
        ("LaurentPoly.__mul__", "LaurentPoly.__rmul__"),
    ),
    "exact_arith.specialize_calls": ("exact_arith", ("RationalFn.specialize",)),
    "linalg.rref_calls": ("linalg", ("rref",)),
    "linalg.mat_mul_calls": ("linalg", ("mat_mul",)),
    "linalg.span_add_calls": ("linalg", ("SpanBasis.add", "SpanBasisModP.add")),
    "nonstandard.p_matrix_calls": ("nonstandard", ("TensorModule.p_matrix",)),
}

# lru caches whose hits and misses are read from cache_info() at the end.
CACHES = {
    "hecke_core.kl_table": ("hecke_core", "kl_table"),
    "specht_modules.build_specht": ("specht_modules", "_build_specht"),
    "seminormal.paths": ("seminormal", "_paths"),
}


class Tracer:
    """Span stack and per-layer aggregates, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # frames are [layer, time covered by child spans of other layers]
        self.stack = [[None, 0.0]]
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.spans = {layer: 0 for layer in LAYERS}
        self.calls = {}  # "layer:qualname" -> [count]
        self.inclusive = {name: 0.0 for name in INCLUSIVE}
        self.rref_cells = 0
        self.span_accepted = 0
        self.caches = {}  # metric prefix -> lru_cache-wrapped function
        self.observers = {
            "linalg:rref": self._observe_rref,
            "linalg:SpanBasis.add": self._observe_span_add,
            "linalg:SpanBasisModP.add": self._observe_span_add,
        }

    # -- span arithmetic ----------------------------------------------

    def span(self, layer, fn, args, kwargs):
        """Run fn(*args, **kwargs) in a new span of `layer`."""
        stack = self.stack
        frame = [layer, 0.0]
        stack.append(frame)
        clock = self.clock
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = clock() - t0
            stack.pop()
            self.self_s[layer] += dt - frame[1]
            self.spans[layer] += 1
            stack[-1][1] += dt

    def wrap(self, layer, qualname, fn):
        """fn as a callable of `layer`: counted, and a span when entered
        from another layer."""
        key = f"{layer}:{qualname}"
        cell = self.calls.setdefault(key, [0])
        observe = self.observers.get(key)
        stack, span = self.stack, self.span

        def wrapper(*args, **kwargs):
            cell[0] += 1
            if stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                result = span(layer, fn, args, kwargs)
            if observe is not None:
                observe(args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def timed(self, name, fn):
        """Accumulate the inclusive time of the outermost calls of fn."""
        depth = [0]
        clock, inclusive = self.clock, self.inclusive

        def timer(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] = 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] = 0
                inclusive[name] += clock() - t0

        return functools.update_wrapper(timer, fn)

    # -- observers ------------------------------------------------------

    def _observe_rref(self, args, result):
        M = args[0]
        if M:
            self.rref_cells += len(M) * len(M[0])

    def _observe_span_add(self, args, result):
        if result:
            self.span_accepted += 1

    # -- results ----------------------------------------------------------

    def count(self, layer, qualnames):
        return sum(self.calls.get(f"{layer}:{q}", [0])[0] for q in qualnames)

    def report(self) -> dict:
        """Per-layer metrics, named as in BENCHMARK.json, plus raw counts."""
        m = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self.self_s[layer]
            m[f"{layer}.calls"] = self.spans[layer]
        for name, (layer, qualnames) in COUNTED.items():
            m[name] = self.count(layer, qualnames)
        m["linalg.rref_cells"] = self.rref_cells
        adds = m["linalg.span_add_calls"]
        m["linalg.span_accept_ratio"] = self.span_accepted / adds if adds else 0.0
        m.update(self.inclusive)
        for name, lru in self.caches.items():
            info = lru.cache_info()
            m[f"{name}_hits"] = info.hits
            m[f"{name}_misses"] = info.misses
        counts = {k: v[0] for k, v in sorted(self.calls.items())}
        return {"metrics": m, "counts": counts}


# ----------------------------------------------------------------------
# instrumentation of the nstl package


def instrument(tracer: Tracer) -> Tracer:
    """Wrap every layer of the imported nstl package in `tracer`."""
    modules = {
        layer: sys.modules[f"nstl.{layer}"]
        for layer in LAYERS
        if f"nstl.{layer}" in sys.modules
    }
    missing = set(LAYERS) - set(modules)
    if missing:
        raise RuntimeError(f"layers not imported: {sorted(missing)}")

    # a private name that another layer imports is part of its interface
    bindings = Counter(
        id(obj)
        for mod in modules.values()
        for name, obj in vars(mod).items()
        if name.startswith("_") and not name.startswith("__")
    )
    for layer, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, type):
                if not issubclass(obj, BaseException):
                    _instrument_class(tracer, layer, obj)
            elif _is_function(obj) and (_is_public(name) or bindings[id(obj)] > 1):
                _replace_everywhere(modules, obj, tracer.wrap(layer, name, obj))

    for name, (layer, qualname) in INCLUSIVE.items():
        owner, _, attr = qualname.rpartition(".")
        if owner:
            cls = vars(modules[layer])[owner]
            setattr(cls, attr, tracer.timed(name, vars(cls)[attr]))
        else:
            fn = vars(modules[layer])[attr]
            _replace_everywhere(modules, fn, tracer.timed(name, fn))

    for name, (layer, attr) in CACHES.items():
        fn = vars(modules[layer])[attr]
        while not hasattr(fn, "cache_info"):
            fn = fn.__wrapped__
        tracer.caches[name] = fn
    return tracer


def _is_public(name):
    return not name.startswith("_")


def _is_function(obj):
    return isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")


def _replace_everywhere(modules, original, replacement):
    for mod in modules.values():
        for name, obj in list(vars(mod).items()):
            if obj is original:
                setattr(mod, name, replacement)


def _instrument_class(tracer, layer, cls):
    for name, attr in list(vars(cls).items()):
        if not (_is_public(name) or name in WRAPPED_DUNDERS):
            continue
        qual = f"{cls.__name__}.{name}"
        if isinstance(attr, types.FunctionType):
            setattr(cls, name, tracer.wrap(layer, qual, attr))
        elif isinstance(attr, property) and attr.fget is not None:
            fget = tracer.wrap(layer, qual, attr.fget)
            setattr(cls, name, property(fget, attr.fset, attr.fdel, attr.__doc__))
        elif isinstance(attr, classmethod):
            setattr(cls, name, classmethod(tracer.wrap(layer, qual, attr.__func__)))
        elif isinstance(attr, staticmethod):
            setattr(cls, name, staticmethod(tracer.wrap(layer, qual, attr.__func__)))
