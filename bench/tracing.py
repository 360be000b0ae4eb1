"""Spans around the public functions of normgeom's four layers.

The tracer measures from outside: it swaps wrappers into every module
namespace that holds a traced function, so calls between modules
(``charts`` calling ``classify_point``, ``cli`` calling nearly
everything) pass through a wrapper whichever name they use. Spans live
in memory as ``[name, start, end, parent, point, extra]`` and are written
out once at the end. A layer's self time is its duration minus the time
its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import sys
from collections import defaultdict
from time import perf_counter

import normgeom
from normgeom import charts, cli, geometric, norms

MODULES = (normgeom, norms, charts, geometric, cli)

LAYERS = {
    norms: ("analytic_gradient", "fd_gradient", "one_sided_derivative", "classify_point"),
    charts: ("tangent_frame", "build_chart", "chart_forward", "chart_inverse",
             "sphere_chart_image_check"),
    geometric: ("estimate_tangent", "geometric_gradient", "equivalence_roundtrip"),
    cli: ("run_cli", "run_request", "validate_report"),
}

#: Called so often that a span would cost more than the call: counted only.
COUNTED = {norms: ("as_vector",)}


def norm_families() -> list[type]:
    """Every norm class that defines its own ``value``; each gets a wrapper."""
    found, todo = [], [norms.NormSpec]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "value" in cls.__dict__:
            found.append(cls)
    return found


def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def _halvings(chart) -> int:
    return round(math.log2(0.25 * chart.base_norm / chart.domain_radius))


#: Facts read from a span's return value, stored as the span's ``extra``.
ON_RETURN = {"charts.build_chart": _halvings}


class Tracer:
    """Collects spans and call counts, attributing each to ``point``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict = defaultdict(int)
        self.stack: list[int] = []
        self.point = None
        self.originals: dict = {}
        self.by_name: dict = {}

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self.stack.clear()
        self.point = None

    def _span(self, name: str, fn):
        spans, stack = self.spans, self.stack
        on_return = ON_RETURN.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # A family evaluating its own blocks is one call, not several.
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.point, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                rec[2] = perf_counter()
                rec[5] = type(exc).__name__
                raise
            finally:
                stack.pop()
            rec[2] = perf_counter()
            if on_return is not None:
                rec[5] = on_return(out)
            return out

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[(name, self.point)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Bind a wrapper wherever a traced function or method is reachable."""
        for table, make in ((LAYERS, self._span), (COUNTED, self._counter)):
            for module, names in table.items():
                for attr in names:
                    orig = getattr(module, attr, None)
                    if orig is None:  # gone from this version: its metrics read 0
                        continue
                    name = f"{_layer(module)}.{attr}"
                    wrapper = make(name, orig)
                    self.originals[orig] = wrapper
                    self.by_name[name] = orig
                    for holder in MODULES:
                        for key, value in list(vars(holder).items()):
                            if value is orig:
                                setattr(holder, key, wrapper)
        for cls in norm_families():
            orig = cls.__dict__["value"]
            self.originals[orig] = cls.value = self._span("norms.value", orig)
        orig = cli.Report.to_json
        self.originals[orig] = cli.Report.to_json = self._span("cli.Report.to_json", orig)

    def unbound(self) -> list[str]:
        """Module attributes that still point at an unwrapped original."""
        left = []
        for holder in MODULES:
            for key, value in vars(holder).items():
                if callable(value) and value in self.originals:
                    left.append(f"{holder.__name__}.{key}")
        return left


def profile_calls(codes, call):
    """Count calls to the given code objects during ``call()``, by profiling.

    Independent of the wrappers, so comparing the two checks the binding.
    """
    counts = dict.fromkeys(codes, 0)

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in counts:
            counts[frame.f_code] += 1

    sys.setprofile(hook)
    try:
        call()
    finally:
        sys.setprofile(None)
    return sum(counts.values())


def span_stats(spans, points) -> dict:
    """Per-name ``calls``, ``total_ms`` and ``self_ms`` over spans of ``points``."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    stats: dict = defaultdict(lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
    for i, rec in enumerate(spans):
        if rec[4] in points:
            s = stats[rec[0]]
            s["calls"] += 1
            s["total_ms"] += 1e3 * (rec[2] - rec[1])
            s["self_ms"] += 1e3 * (rec[2] - rec[1] - child[i])
    return stats


#: Span fields reported per traced point, by span name.
PER_POINT = {
    "norms.value": ("calls", "self_ms"),
    "norms.classify_point": ("calls", "total_ms"),
    "norms.one_sided_derivative": ("calls", "self_ms"),
    "norms.fd_gradient": ("calls", "self_ms"),
    "norms.analytic_gradient": ("calls", "self_ms"),
    "charts.tangent_frame": ("total_ms",),
    "charts.build_chart": ("calls", "total_ms"),
    "charts.chart_inverse": ("calls", "self_ms"),
    "charts.sphere_chart_image_check": ("total_ms",),
    "charts.chart_forward": ("calls",),
    "geometric.estimate_tangent": ("calls", "self_ms"),
    "geometric.geometric_gradient": ("self_ms",),
    "geometric.equivalence_roundtrip": ("calls", "self_ms"),
}

#: CLI spans reported per CLI point, from the traced CLI round.
PER_CLI_POINT = ("cli.run_cli", "cli.run_request", "cli.validate_report", "cli.Report.to_json")

_GRADIENTS = ("norms.analytic_gradient", "norms.fd_gradient")


def layer_metrics(tracer: Tracer, points: set, cli_points: int) -> dict:
    """Per-layer metrics: library spans per traced point, CLI spans per CLI point."""
    spans, n = tracer.spans, len(points)
    stats = span_stats(spans, points)
    out = {f"{name}.{field}": stats[name][field] / n
           for name, fields in PER_POINT.items() for field in fields}
    mine = [rec for rec in spans if rec[4] in points]
    out["norms.as_vector.calls"] = sum(
        v for (name, point), v in tracer.counts.items()
        if name == "norms.as_vector" and point in points) / n
    out["charts.build_chart.radius_halvings"] = sum(
        rec[5] for rec in mine if rec[0] == "charts.build_chart" and isinstance(rec[5], int)) / n
    out["charts.chart_inverse.newton_steps"] = sum(
        1 for rec in mine
        if rec[0] in _GRADIENTS and rec[3] >= 0 and spans[rec[3]][0] == "charts.chart_inverse") / n
    out["charts.chart_inverse.failed"] = sum(
        1 for rec in mine
        if rec[0] == "charts.chart_inverse" and rec[5] == "ConvergenceError") / n
    out["geometric.estimate_tangent.non_manifold"] = sum(
        1 for rec in mine
        if rec[0] == "geometric.estimate_tangent" and rec[5] == "NonManifoldSuspected") / n
    cli = span_stats(spans, {None})
    for name in PER_CLI_POINT:
        out[f"{name}.total_ms"] = cli[name]["total_ms"] / cli_points
    return out


def write_spans(path, spans, counts) -> None:
    """Write spans (times in ns from the first span) and counts as gzip JSON."""
    t0 = spans[0][1] if spans else 0.0
    rows = [[name, round((a - t0) * 1e9), round((b - t0) * 1e9), parent, point, extra]
            for name, a, b, parent, point, extra in spans]
    payload = {"fields": ["name", "start_ns", "end_ns", "parent", "point", "extra"],
               "spans": rows,
               "counts": [[name, point, n] for (name, point), n in counts.items()]}
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(payload, fh, separators=(",", ":"))
