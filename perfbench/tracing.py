"""Per-layer tracing of the package, from outside it.

``Tracer.install`` replaces the public functions of each layer module,
plus the private ones another module imports, with wrappers that record
a span (id, parent id, function, request, start, end).  Every binding of
the same function object in any module of the package is replaced, so
names bound by ``from ... import`` are traced too.  A span's self time
is its duration minus the time its child spans cover; counting work done
after a span ends is excluded from its parent as well.  A function the
benchmark reports by name also owns the self time of the unreported
helpers of its own layer that it calls.  Arithmetic reached through
operator methods (``UniPoly.__mul__`` and the like) is not wrapped and
counts in the layer that calls it.  Spans stay in memory and are written
once, when the run ends.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

LAYERS = (
    "cli",
    "serialization",
    "cremona_maps",
    "exact_algebra",
    "linear_systems",
    "jonquieres",
    "curve_model",
    "rational_pencils",
)

# Methods traced besides module functions: (module, class, method).
METHODS = (("exact_algebra", "TriHomPoly", "substitute"), ("cremona_maps", "CremonaMap", "of"))

# Metric names of the functions the benchmark reports one by one.
REPORTED = {
    ("cremona_maps", "compose"): "compose",
    ("cremona_maps", "CremonaMap.of"): "CremonaMap_of",
    ("cremona_maps", "fixes_curve_pointwise"): "fixes_curve_pointwise",
    ("exact_algebra", "TriHomPoly.substitute"): "substitute",
    ("exact_algebra", "tri_content_gcd"): "content_gcd",
    ("exact_algebra", "tri_divrem"): "tri_divrem",
    ("linear_systems", "adjoint_chain"): "adjoint_chain",
    ("linear_systems", "remove_fixed_components"): "remove_fixed_components",
    ("jonquieres", "mul"): "mul",
    ("jonquieres", "leminv_check"): "leminv_check",
    ("jonquieres", "to_cremona"): "to_cremona",
    ("curve_model", "is_perfect_power"): "is_perfect_power",
    ("curve_model", "multiplicity_at"): "multiplicity_at",
    ("rational_pencils", "enumerate_pencil_types"): "enumerate_pencil_types",
}


_FAILED = object()


def _coeff_bits(value: Any) -> int:
    """Largest numerator or denominator size, in bits, of a returned polynomial."""
    if isinstance(value, tuple):
        return max((_coeff_bits(v) for v in value), default=0)
    terms = getattr(value, "terms", None)
    coeffs = [c for _, c in terms] if terms is not None else getattr(value, "coeffs", None)
    if not coeffs or not hasattr(coeffs[0], "denominator"):
        return 0
    return max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coeffs)


class Tracer:
    def __init__(self) -> None:
        self.names: List[Tuple[str, str]] = []
        self.spans: List[Tuple[int, int, int, int, float, float]] = []
        self.calls: Dict[int, int] = defaultdict(int)
        self.self_s: Dict[int, float] = defaultdict(float)
        self.owned_s: Dict[int, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.request = -1
        self._stack: List[int] = []
        self._owners: List[Tuple[str, int]] = []
        self._next_id = 0
        self._cover: Dict[int, float] = defaultdict(float)
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- installation ---------------------------------------------------------

    def install(self, package: str) -> None:
        layers = {name: importlib.import_module(f"{package}.{name}") for name in LAYERS}
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for layer, mod in layers.items():
            for attr, fn in list(vars(mod).items()):
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                public = not attr.startswith("_")
                importers = [m for m in modules if m is not mod and vars(m).get(attr) is fn]
                if not public and not importers:
                    continue
                wrapper = self._wrap(layer, attr, fn)
                for m in modules:
                    if m is mod and not public:
                        continue  # private helpers are traced where imported only
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            self._patch(m, key, wrapper)
        for layer, cls_name, meth in METHODS:
            cls = getattr(layers[layer], cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                self._patch(cls, meth, classmethod(self._wrap(layer, f"{cls_name}.{meth}", raw.__func__)))
            else:
                self._patch(cls, meth, self._wrap(layer, f"{cls_name}.{meth}", raw))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patched):
            setattr(owner, key, value)
        self._patched.clear()

    def _patch(self, owner: Any, key: str, value: Any) -> None:
        self._patched.append((owner, key, owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)))
        setattr(owner, key, value)

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        index = len(self.names)
        self.names.append((layer, name))
        hook = _HOOKS.get((layer, name))
        exact = layer == "exact_algebra"
        reported = (layer, name) in REPORTED
        stack, owners, spans, cover = self._stack, self._owners, self.spans, self._cover
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            if reported:
                owner = index
            elif owners and owners[-1][0] == layer:
                owner = owners[-1][1]
            else:
                owner = -1
            stack.append(sid)
            owners.append((layer, owner))
            result = _FAILED
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                owners.pop()
                if result is not _FAILED:
                    if hook is not None:
                        hook(self.counts, result)
                    if exact:
                        bits = _coeff_bits(result)
                        if bits > self.counts["exact_algebra.coeff_bits.max"]:
                            self.counts["exact_algebra.coeff_bits.max"] = bits
                self.calls[index] += 1
                own = (t1 - t0) - cover.pop(sid, 0.0)
                self.self_s[index] += own
                if owner >= 0:
                    self.owned_s[owner] += own
                spans.append((sid, parent, index, self.request, t0, t1))
                if parent >= 0:
                    cover[parent] += clock() - t0

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- results ----------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
        for (layer, name), metric in REPORTED.items():
            out[f"{layer}.{metric}.calls"] = 0
            out[f"{layer}.{metric}.self_s"] = 0.0
        out["serialization.decode_s"] = 0.0
        out["serialization.encode_s"] = 0.0
        for index, (layer, name) in enumerate(self.names):
            calls, self_s = self.calls.get(index, 0), self.self_s.get(index, 0.0)
            out[f"{layer}.calls"] += calls
            out[f"{layer}.self_s"] += self_s
            metric = REPORTED.get((layer, name))
            if metric:
                out[f"{layer}.{metric}.calls"] += calls
                out[f"{layer}.{metric}.self_s"] += self.owned_s.get(index, 0.0)
            if layer == "serialization":
                key = "decode_s" if name.startswith("decode") else "encode_s"
                out[f"serialization.{key}"] += self_s
        for key in _COUNTS:
            out[key] = self.counts.get(key, 0)
        gcds = out["exact_algebra.content_gcd.calls"]
        out["exact_algebra.content_gcd.nontrivial_ratio"] = (
            self.counts.get("content_gcd.nontrivial", 0) / gcds if gcds else 0.0
        )
        return out

    def functions(self) -> List[Dict[str, Any]]:
        return [
            {"layer": layer, "function": name, "calls": self.calls[i], "self_s": self.self_s[i]}
            for i, (layer, name) in enumerate(self.names)
            if self.calls.get(i)
        ]

    def write(self, path, extra: Dict[str, Any]) -> None:
        start = self.spans[0][4] if self.spans else 0.0
        doc = dict(extra)
        doc["functions"] = self.functions()
        doc["names"] = [f"{layer}.{name}" for layer, name in self.names]
        doc["span_fields"] = ["id", "parent", "name", "request", "start_s", "end_s"]
        doc["spans"] = [
            [sid, parent, index, req, round(t0 - start, 7), round(t1 - start, 7)]
            for sid, parent, index, req, t0, t1 in sorted(self.spans)
        ]
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


def _count(key: str, measure: Callable[[Any], float]) -> Callable:
    def hook(counts, result):
        counts[key] += measure(result)

    return hook


def _count_max(key: str, measure: Callable[[Any], float]) -> Callable:
    def hook(counts, result):
        counts[key] = max(counts[key], measure(result))

    return hook


_HOOKS: Dict[Tuple[str, str], Callable] = {
    ("serialization", "dumps"): _count("serialization.bytes_out", lambda r: len(r.encode())),
    ("cremona_maps", "CremonaMap.of"): _count_max("cremona_maps.out_degree.max", lambda r: r.degree),
    ("cremona_maps", "compose"): _count_max("cremona_maps.out_degree.max", lambda r: r.degree),
    ("exact_algebra", "TriHomPoly.substitute"): _count(
        "exact_algebra.substitute.terms_out", lambda r: len(r.terms)
    ),
    ("exact_algebra", "tri_content_gcd"): _count("content_gcd.nontrivial", lambda r: r.degree > 0),
    ("linear_systems", "adjoint_chain"): _count("linear_systems.chain_steps", lambda r: len(r.steps)),
    ("linear_systems", "remove_fixed_components"): _count(
        "linear_systems.rules_fired", lambda r: sum(c.count for c in r[1])
    ),
    ("rational_pencils", "enumerate_pencil_types"): _count(
        "rational_pencils.enumerate_pencil_types.types_out", len
    ),
}

_COUNTS = (
    "serialization.bytes_out",
    "cremona_maps.out_degree.max",
    "exact_algebra.substitute.terms_out",
    "exact_algebra.coeff_bits.max",
    "linear_systems.chain_steps",
    "linear_systems.rules_fired",
    "rational_pencils.enumerate_pencil_types.types_out",
)
