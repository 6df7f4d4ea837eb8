"""Outside-in span tracing of icflow's layers, and the per-layer metrics.

The tracer wraps public module functions at every name the package's
modules look them up by (``icflow.flow.compute_metrics``,
``icflow.experiment.two_point_gap_scan``, ...), so spans nest exactly as the
calls do without touching the package's source.  Spans live in memory as
``[name, start, end, parent, extra]`` and are written out by the caller
when the traced instance ends.  A function that a refactor removes or
renames is reported as absent instead of failing the trace.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time


def _evolve_steps(args, kwargs, result):
    state = kwargs.get("state", args[0] if args else None)
    control = kwargs.get("control", args[1] if len(args) > 1 else None)
    t_end = kwargs.get("t_end", args[2] if len(args) > 2 else None)
    try:
        # evolve takes a final shorter step onto t_end, so the count is a ceiling.
        return math.ceil((t_end - state.time) / control.dt - 1e-6)
    except (AttributeError, TypeError):
        return None


def _pairs(args, kwargs, result):
    n = len(kwargs.get("vertices", args[0] if args else ()))
    return n * (n - 1) // 2


def _file_bytes(args, kwargs, result):
    return os.path.getsize(kwargs.get("path", args[0]))


# span name -> (home module, attribute, hook giving the span's count)
LAYER_FUNCTIONS = {
    "flow.evolve": ("icflow.flow", "evolve", _evolve_steps),
    "flow.polyline_hausdorff": ("icflow.flow", "polyline_hausdorff", None),
    "curves.compute_metrics": ("icflow.curves", "compute_metrics", None),
    "curves.convexity_check": ("icflow.curves", "convexity_check", None),
    "curves.resample_uniform": ("icflow.curves", "resample_uniform", None),
    "comparison.two_point_gap_scan": ("icflow.comparison", "two_point_gap_scan", _pairs),
    "comparison.admissible_offset": ("icflow.comparison", "admissible_offset", None),
    "comparison.residual_certificate_scan":
        ("icflow.comparison", "residual_certificate_scan", None),
    "comparison.numerator_grid_min": ("icflow.comparison", "numerator_grid_min", None),
    "bounds.snapshot_report": ("icflow.bounds", "snapshot_report", None),
    "experiment.write_svg": ("icflow.experiment", "write_svg", _file_bytes),
    "experiment.write_csv": ("icflow.experiment", "write_csv", _file_bytes),
    "experiment.write_summary": ("icflow.experiment", "write_summary", _file_bytes),
}


class Tracer:
    """Records nested spans in memory; one instance per traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        index = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    def _wrap(self, name: str, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if hook is not None:
                self.spans[index][4] = hook(args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        """Replace every icflow lookup site of each layer function by a wrapper."""
        importlib.import_module("icflow")
        modules = [m for key, m in list(sys.modules.items())
                   if key == "icflow" or key.startswith("icflow.")]
        for name, (home, attr, hook) in LAYER_FUNCTIONS.items():
            try:
                original = getattr(importlib.import_module(home), attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)


# Self-time metrics reported per layer; their sum is what the trace explains.
SELF_TIME_SPANS = tuple(LAYER_FUNCTIONS) + ("cli.verify_profile",)
CALL_COUNTS = (
    "curves.compute_metrics", "curves.convexity_check", "curves.resample_uniform",
    "flow.polyline_hausdorff", "comparison.two_point_gap_scan",
    "bounds.snapshot_report", "experiment.write_svg", "comparison.admissible_offset",
)
BYTE_COUNTS = ("experiment.write_svg", "experiment.write_csv", "experiment.write_summary")


def _rank(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def span_metrics(spans: list[list], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced instance.

    Self time is a span's duration minus the durations of its direct
    children; ``trace.unattributed_s`` is the instance's wall time that no
    reported self time covers.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, extra in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    totals: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    for (name, start, end, parent, extra), children in zip(spans, child_time):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - children
        calls[name] = calls.get(name, 0) + 1
        durations.setdefault(name, []).append(end - start)
        if extra is not None:
            totals[name] = totals.get(name, 0) + extra

    out = {f"{name}.self_s": self_s.get(name, 0.0) for name in SELF_TIME_SPANS}
    out.update({f"{name}.calls": calls.get(name, 0) for name in CALL_COUNTS})
    out.update({f"{name}.bytes": totals.get(name, 0) for name in BYTE_COUNTS})
    steps = totals.get("flow.evolve", 0)
    out["flow.steps"] = steps
    out["flow.step_us"] = 1e6 * out["flow.evolve.self_s"] / steps if steps else 0.0
    scans = sorted(durations.get("comparison.two_point_gap_scan", []))
    out["comparison.two_point_gap_scan.ms_p50"] = 1e3 * _rank(scans, 0.5)
    out["comparison.two_point_gap_scan.ms_p90"] = 1e3 * _rank(scans, 0.9)
    out["comparison.pairs_scanned"] = totals.get("comparison.two_point_gap_scan", 0)
    out["trace.unattributed_s"] = wall_s - sum(
        out[f"{name}.self_s"] for name in SELF_TIME_SPANS)
    return out
