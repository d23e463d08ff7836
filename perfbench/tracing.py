"""Span recording around the package's public functions, from outside the package.

`Tracer.install` swaps every public function of the eight layer modules for
a wrapper, in every package module namespace that holds a reference to it,
so calls between layers are caught as well as calls from the workload.
`Tracer.remove` puts the originals back.  Each call is one span: name,
start, end, parent span, the query it belongs to, and an input-size tag.
Spans are aggregated in memory as they close -- per (function, decade of
the size tag): calls, inclusive time, self time (inclusive time minus the
time covered by child spans) and summed size -- and the first
`SAMPLE_SPANS` raw spans are kept for the report file.
"""

from __future__ import annotations

import importlib
import math
import types
from time import perf_counter

import numpy as np

LAYERS = ("numtheory", "semigroup", "algebra", "representation", "states", "spectrum", "bostconnes", "cli")
SAMPLE_SPANS = 2000


def _public_functions(module) -> dict:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    out = {}
    for name in names:
        obj = getattr(module, name, None)
        callable_fn = isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")
        if callable_fn and getattr(obj, "__module__", None) == module.__name__:
            out[name] = obj
    return out


# --------------------------------------------------------------------------
# input-size tags: what "magnitude" means for each layer's calls
# --------------------------------------------------------------------------


def _generic_size(args) -> int:
    size = 1
    for arg in args:
        if isinstance(arg, bool):
            continue
        if isinstance(arg, int):
            size = max(size, abs(arg))
        elif isinstance(arg, (str, list, tuple)):
            size = max(size, len(arg))
        elif hasattr(arg, "a") and isinstance(getattr(arg, "a"), int):
            size = max(size, arg.a, getattr(arg, "b", 1) or 1)
    return size


def _lanes(args) -> int:
    """Broadcast size of a batch applier's parameter and state arrays."""
    return int(np.prod(np.broadcast_shapes(*(np.shape(a) for a in args)), dtype=np.int64)) or 1


def _window_vectors(args) -> int:
    model, _primes, window = args[0], args[1], args[2]
    return 2 * window + 1 if model == "z" else window * (window + 1) // 2


def _monomial_size(x, y) -> int:
    return max(x.a, x.b, y.a, y.b, 1)


# Where the generic rule (largest int, length or index among the arguments)
# would mislead, or is too slow for a function called millions of times.
SIZE_TAGS = {
    "semigroup.euclid_smallest": lambda a: max(a[0], a[1]),
    "semigroup.join": lambda a: max(a[0].a, a[1].a),
    "algebra.covariance_reduce": lambda a: max(a[0], a[3], 1),
    "algebra.monomial_mul": lambda a: _monomial_size(a[0], a[1]),
    "states.kms_defect": lambda a: _monomial_size(a[1], a[2]),
    "states.evaluate": lambda a: max(a[1].a, a[1].b, 1),
    "representation.x_monomial_apply_batch": _lanes,
    "representation.toeplitz_monomial_apply_batch": _lanes,
    "representation.relation_suite": _window_vectors,
    "representation.q_projector_check": lambda a: a[1] * (a[1] + 1) // 2,
    "representation.trace_state": lambda a: a[3] * (a[3] + 1) // 2,
    "spectrum.verify_hereditary_directed": lambda a: a[1] * (a[1] + 1),
    "spectrum.includes": lambda a: 1,
    "spectrum.contains": lambda a: 1,
}


def decade(size: int) -> int:
    return int(math.log10(size)) if size >= 1 else 0


# --------------------------------------------------------------------------
# the tracer
# --------------------------------------------------------------------------


class Tracer:
    """Wraps the layer modules' public functions; aggregates spans while installed."""

    def __init__(self, package: str = "affinetoeplitz"):
        self.stats: dict[tuple[str, int], list] = {}  # (name, decade) -> [calls, incl, self, size]
        self.entries: dict[str, list] = {}  # layer -> [calls, incl, size] for spans entered from outside it
        self.sample: list[tuple] = []
        self.query = -1
        self._stack: list[list] = []
        self._next_id = 0
        self._swaps: list[tuple] = []
        layer_modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in layer_modules.items():
            for name, fn in _public_functions(module).items():
                wrappers[id(fn)] = (fn, self._wrap(layer, f"{layer}.{name}", fn))
        for module in [importlib.import_module(package), *layer_modules.values()]:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._swaps.append((module, attr, obj, wrappers[id(obj)][1]))

    def install(self) -> None:
        for module, attr, _orig, wrapper in self._swaps:
            setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, orig, _wrapper in self._swaps:
            setattr(module, attr, orig)

    def _wrap(self, layer: str, name: str, fn):
        tag = SIZE_TAGS.get(name, _generic_size)
        stack = self._stack
        stats = self.stats
        entries = self.entries
        sample = self.sample
        tracer = self

        def span(*args, **kwargs):
            try:
                size = tag(args)
            except (TypeError, IndexError, AttributeError, ValueError):
                size = _generic_size(args)
            parent = stack[-1] if stack else None
            frame = [0.0, layer, tracer._next_id]
            tracer._next_id += 1
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                dt = end - start
                stack.pop()
                if parent is not None:
                    parent[0] += dt
                key = (name, decade(size))
                row = stats.get(key)
                if row is None:
                    row = stats[key] = [0, 0.0, 0.0, 0]
                row[0] += 1
                row[1] += dt
                row[2] += dt - frame[0]
                row[3] += size
                if parent is None or parent[1] != layer:
                    entry = entries.get(layer)
                    if entry is None:
                        entry = entries[layer] = [0, 0.0, 0]
                    entry[0] += 1
                    entry[1] += dt
                    entry[2] += size
                if len(sample) < SAMPLE_SPANS:
                    sample.append((frame[2], parent[2] if parent else None, tracer.query, name, start, end, size))

        span.__name__ = getattr(fn, "__name__", name)
        span.__doc__ = getattr(fn, "__doc__", None)
        return span

    # -- aggregation ---------------------------------------------------------

    def function_table(self) -> list[dict]:
        """Per-size layer curve: one row per (function, decade of the size tag)."""
        return [
            {"span": name, "size_decade": dec, "calls": c, "incl_s": incl, "self_s": self_s, "size_sum": size}
            for (name, dec), (c, incl, self_s, size) in sorted(self.stats.items())
        ]

    def calls_and_time(self, name: str, decades=None) -> tuple[int, float]:
        calls, incl = 0, 0.0
        for (span_name, dec), (c, t, _s, _size) in self.stats.items():
            if span_name == name and (decades is None or dec in decades):
                calls += c
                incl += t
        return calls, incl

    def layer_self(self) -> dict[str, tuple[int, float]]:
        out = {layer: [0, 0.0] for layer in LAYERS}
        for (name, _dec), (c, _t, self_s, _size) in self.stats.items():
            row = out[name.split(".", 1)[0]]
            row[0] += c
            row[1] += self_s
        return {layer: (c, s) for layer, (c, s) in out.items()}
