"""Per-layer tracing from outside the library.

``Tracer.install`` replaces the public functions and methods of the layer
modules with timing wrappers, and rebinds every ``from .x import name`` alias
in the ``coarsedim`` package (and in the caller's modules) to the same
wrapper, so a call through an alias is not missed.  Nothing in the library
changes.  A layer's ``s`` is the time inside its outermost calls, ``self_s``
leaves out time spent in wrapped children, and ``calls`` counts calls.

Hot accessors (``BarycentricPoint.weight``, ``PartitionOfUnity.value``,
properties) and the per-value serialisation helpers are left unwrapped: their
cost stays in the caller's self time, and wrapping them would cost more than
they do.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

from coarsedim import asdim, covers, formats, metric, pou

MODULES = (covers, pou, asdim, metric, formats)
MODULE_NAMES = tuple(m.__name__.rpartition(".")[2] for m in MODULES)

SKIP = {
    "formats.encode", "formats.decode", "formats.fraction_str", "formats.parse_fraction",
    "pou.BarycentricPoint.weight", "pou.PartitionOfUnity.value",
}

ALIASES = {
    "covers.ChainGraph.distances_from": "covers.bfs",
    "covers.diameter_in_graph": "covers.diameter",
    "covers.shrink_with_multiplicity": "covers.shrink",
    "pou.l1_distance": "pou.l1",
    "pou.PartitionOfUnity.star_preimage_cover": "pou.star_preimage_cover",
    "metric.FiniteMetricSpace.__init__": "metric.space_init",
    "metric.FiniteMetricSpace.set_diameter": "metric.set_diameter",
}


def _layer(qualname: str) -> str:
    if qualname in ALIASES:
        return ALIASES[qualname]
    module, _, name = qualname.partition(".")
    if module == "formats":
        if name.startswith(("load_", "doc_loads")):
            return "formats.load"
        if name.startswith(("dump_", "doc_dumps")):
            return "formats.dump"
    return qualname


def _den_bits(value) -> int:
    """Largest denominator bit length in a returned Fraction, point, map or result."""
    if isinstance(value, Fraction):
        return value.denominator.bit_length()
    if isinstance(value, pou.BarycentricPoint):
        return max((w.denominator.bit_length() for w in value.weights.values()), default=0)
    if isinstance(value, pou.PartitionOfUnity):
        return max((_den_bits(bp) for bp in value.values.values()), default=0)
    for attr in ("variation_value", "value"):
        inner = getattr(value, attr, None)
        if isinstance(inner, Fraction):
            return inner.denominator.bit_length()
    return 0


def _count(layer: str, counters, args, result) -> None:
    if layer == "covers.bfs":
        counters["covers.bfs.reached"] += len(result) - result.count(None)
    elif layer == "pou.l1":
        counters["pou.l1.union"] += len(args[0].carrier | args[1].carrier)
    elif layer == "formats.load":
        counters["formats.load.bytes"] += len(args[0])
    elif layer == "formats.dump":
        counters["formats.dump.bytes"] += len(result)
    if layer.startswith("pou."):
        bits = _den_bits(result)
        if bits > counters["pou.max_den_bits"]:
            counters["pou.max_den_bits"] = bits


def _targets():
    """(owner, attribute, raw object, qualified name) for everything to wrap."""
    for module in MODULES:
        short = module.__name__.rpartition(".")[2]
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield module, name, obj, f"{short}.{name}"
            elif inspect.isclass(obj):
                for attr, raw in vars(obj).items():
                    public = not attr.startswith("_") or attr == "__init__"
                    if public and (inspect.isfunction(raw)
                                   or isinstance(raw, (staticmethod, classmethod))):
                        yield obj, attr, raw, f"{short}.{name}.{attr}"


class Tracer:
    def __init__(self):
        self._installed: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.time: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self._depth: dict[str, int] = defaultdict(int)
        self._child = [0.0]

    def _wrap(self, layer: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._child
            stack.append(0.0)
            tracer._depth[layer] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                _count(layer, tracer.counters, args, result)
                return result
            finally:
                elapsed = perf_counter() - start
                child = stack.pop()
                stack[-1] += elapsed
                tracer._depth[layer] -= 1
                if not tracer._depth[layer]:
                    tracer.time[layer] += elapsed
                tracer.self_time[layer] += elapsed - child
                tracer.calls[layer] += 1

        functools.update_wrapper(wrapper, fn)
        wrapper.perfbench_layer = layer
        return wrapper

    def install(self, *extra_modules) -> None:
        """Wrap every target and rebind its aliases in ``coarsedim`` and ``extra_modules``."""
        replaced: dict[int, tuple[object, object]] = {}
        for owner, attr, raw, qualname in list(_targets()):
            if qualname in SKIP:
                continue
            layer = _layer(qualname)
            if isinstance(raw, (staticmethod, classmethod)):
                new = type(raw)(self._wrap(layer, raw.__func__))
            else:
                new = self._wrap(layer, raw)
                replaced[id(raw)] = (raw, new)
            self._installed.append((owner, attr, raw))
            setattr(owner, attr, new)
        modules = [m for n, m in list(sys.modules.items())
                   if n == "coarsedim" or n.startswith("coarsedim.")]
        for module in modules + list(extra_modules):
            for name, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._installed.append((module, name, value))
                    setattr(module, name, hit[1])

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._installed):
            setattr(owner, attr, raw)
        self._installed.clear()

    def snapshot(self) -> dict[str, float]:
        """Flat metrics: ``<layer>.s``, ``.self_s``, ``.calls``, module self totals, counters."""
        out: dict[str, float] = {}
        module_self: dict[str, float] = defaultdict(float)
        for layer, calls in self.calls.items():
            out[f"{layer}.s"] = self.time[layer]
            out[f"{layer}.self_s"] = self.self_time[layer]
            out[f"{layer}.calls"] = calls
            module_self[layer.partition(".")[0]] += self.self_time[layer]
        for module, total in module_self.items():
            out[f"{module}.self_s"] = total
        out.update(self.counters)
        out["covers.bfs.runs"] = self.calls.get("covers.bfs", 0)
        return out


def installed_wrappers() -> list[str]:
    """Qualified names of layer targets that currently hold a wrapper."""
    found = []
    for owner, attr, raw, qualname in _targets():
        fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
        if hasattr(fn, "perfbench_layer"):
            found.append(qualname)
    return found
