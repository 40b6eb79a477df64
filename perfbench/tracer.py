"""Span tracing around the public functions of each g2lab module.

The wrappers live here, in the benchmark, and are installed into every
loaded ``g2lab`` module namespace that binds a traced function, so call sites
written as ``from .exterior_algebra import wedge`` are seen as well as
``module.wedge``.  Spans are kept in memory and written out at the end of a
run; nothing is recorded while no item is active, so the checks the
benchmark runs between items do not show up as program work.

A span is ``(name, start_ns, end_ns, parent, item, self_ns, error)``;
``parent`` is the index of the enclosing span or -1, ``self_ns`` is the
duration minus the time covered by direct child spans, and ``error`` marks
the span where an exception first left traced code.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time

#: module -> public functions traced in it
TRACED = {
    "exterior_algebra": (
        "wedge",
        "hodge",
        "interior",
        "contract",
        "to_antisym",
        "from_antisym",
        "check_contraction_identities",
    ),
    "g2_algebra": (
        "projector_matrix",
        "project",
        "lambda3",
        "sigma_contract",
        "sym2_from_27",
        "split_v14",
    ),
    "curvature": ("decompose", "ricci", "phi_ricci", "kn_product", "phi_product"),
    "torsion": (
        "extract_torsion",
        "intrinsic_from_torsion",
        "recompose",
        "fg_type",
        "ricci_rhs_exterior",
    ),
    "homogeneous": (
        "invariant_d_matrices",
        "jacobi_residual",
        "levi_civita",
        "riemann",
        "canonical_connection",
        "geometry",
        "nabla_bar_tau",
        "connection_form_action",
        "analyze",
    ),
    "cohomo_one": (
        "nearly_kahler_model",
        "flag_model",
        "warped_phi",
        "extraction_route",
        "warped_torsion",
        "cohom_torsion",
        "ricW_vanishes",
    ),
    "_linalg": ("max_abs", "pinv", "inv_exact"),
    "cli": ("main", "load_spec"),
}

SPAN_FIELDS = ("name", "start_ns", "end_ns", "parent", "item", "self_ns", "error")


def layer(module: str) -> str:
    """The layer name of a module: metric names may not start with ``_``."""
    return module.lstrip("_")


LAYERS = [layer(mod) for mod in TRACED]


def traced_names() -> list:
    return [f"{layer(mod)}.{fn}" for mod, fns in TRACED.items() for fn in fns]


def layer_metric_names() -> list:
    """Every per-layer metric name, in report order."""
    names = []
    for name in traced_names():
        names += [f"{name}.calls", f"{name}.self_ms"]
    for lay in LAYERS:
        names += [f"{lay}.self_ms", f"{lay}.share", f"{lay}.errors"]
    return names + ["import_ms", "g2_algebra.tables_cold_ms"]


class Tracer:
    """Collects spans for calls made while an item is active."""

    def __init__(self):
        self.spans: list = []
        self.item = None
        self._stack: list = []  # [span index, child ns] per open span
        self._last_error = None
        self.installed: dict = {}  # qualified name -> number of namespaces patched

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            item = self.item
            if item is None:
                return fn(*args, **kwargs)
            frame = [len(spans), 0]
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append(frame)
            error = False
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = exc is not self._last_error
                self._last_error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans[frame[0]] = (name, start, end, parent, item, duration - frame[1], error)

        traced.__wrapped_by_perfbench__ = True
        return traced

    def install(self) -> None:
        """Replace every binding of a traced function in loaded g2lab modules."""
        originals = {}
        for mod, fns in TRACED.items():
            module = importlib.import_module(f"g2lab.{mod}")
            for fn in fns:
                obj = getattr(module, fn)
                if getattr(obj, "__wrapped_by_perfbench__", False):
                    raise RuntimeError(f"g2lab.{mod}.{fn} is already traced")
                originals[id(obj)] = (f"{layer(mod)}.{fn}", obj)
        wrappers = {key: self.wrap(name, obj) for key, (name, obj) in originals.items()}
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "g2lab" or modname.startswith("g2lab.")):
                continue
            for attr, value in list(vars(module).items()):
                key = id(value)
                if key in originals and originals[key][1] is value:
                    setattr(module, attr, wrappers[key])
                    name = originals[key][0]
                    self.installed[name] = self.installed.get(name, 0) + 1
        missing = set(traced_names()) - set(self.installed)
        if missing:
            raise RuntimeError(f"traced functions not found: {sorted(missing)}")

    def per_function(self, items) -> dict:
        """{name: [calls, self_ns, errors]} over spans of the given items."""
        wanted = set(items)
        out = {name: [0, 0, 0] for name in traced_names()}
        for name, _s, _e, _p, item, self_ns, error in self.spans:
            if item in wanted:
                acc = out[name]
                acc[0] += 1
                acc[1] += self_ns
                acc[2] += error
        return out

    def write(self, path, header: dict) -> None:
        """Write the header and every span as gzip-compressed JSON."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({**header, "span_fields": SPAN_FIELDS, "spans": self.spans}, fh)


def layer_metrics(per_fn: dict, n_items: int, item_wall_ns: int) -> dict:
    """Per-item layer metrics from per-function totals of a traced stream."""
    metrics = {}
    layer_self = {lay: 0 for lay in LAYERS}
    layer_errors = {lay: 0 for lay in LAYERS}
    for name, (calls, self_ns, errors) in per_fn.items():
        lay = name.split(".", 1)[0]
        layer_self[lay] += self_ns
        layer_errors[lay] += errors
        metrics[f"{name}.calls"] = (calls / n_items, "count")
        metrics[f"{name}.self_ms"] = (self_ns / 1e6 / n_items, "ms")
    for lay in LAYERS:
        metrics[f"{lay}.self_ms"] = (layer_self[lay] / 1e6 / n_items, "ms")
        metrics[f"{lay}.share"] = (layer_self[lay] / item_wall_ns if item_wall_ns else 0.0, "ratio")
        metrics[f"{lay}.errors"] = (layer_errors[lay] / n_items, "count")
    return metrics
