"""Explicit time integration of the inverse curvature flow.

Two formulations share one clock:

* unnormalized: each vertex moves outward by dt / kappa along the normal,
  so total length grows like e^t;
* normalized: vertices move by dt * (-position + normal / kappa) and the
  curve is rescaled about the origin to total length 2*pi after every step.

Both steppers are plain explicit Euler on a smoothed speed field.  The raw
pointwise update is unconditionally unstable whenever dt exceeds the
parabolic limit ~ (min edge)^2 (min kappa)^2, which the step sizes this
package is asked to run at do by one to two orders of magnitude.  Instead of
shrinking dt, the scalar speed 1/kappa is passed m times through the
circular binomial filter [1/4, 1/2, 1/4] before the update.  Each pass
multiplies the gain of the worst sawtooth mode by at most
g(m) = m^m / (m+1)^(m+1), so m is chosen as the smallest order with

    dt * g(m) <= safety * (min edge)^2 * (min kappa)^2,

which reduces to the classical constraint at m = 0.  The filter is exact on
constant fields, so circles (constant speed) are advanced without any
smoothing error and keep their closed-form radius law to roundoff.

One step kernel serves both formulations.  Each state's geometry, the
start state's included (edge lengths, curvature, outward normals;
curves._geometry, which compute_metrics returns), is computed once, after
the step and any resampling.  It is the one convexity test (kappa > 0, as
in convexity_check: the sign of each vertex's cross product, since the
circumcircle denominators are positive), the input of the next step and,
wrapped in a CurveMetrics, what snapshot observers receive.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .curves import (
    BLOCK_PAIRS,
    CurveMetrics,
    _geometry,
    _validated_edges,
    edge_lengths,
    edge_vectors,
    resample_uniform,
    validate_vertices,
)
from .errors import ConvexityLossError, ParameterError, StepRejectedError

MODES = ("unnormalized", "normalized")

_TIME_SLACK = 1e-12


@dataclass(frozen=True)
class StepControl:
    """Time-step parameters shared by both flow formulations.

    dt: Euler step; resample_every: accepted steps between arc-length
    resamplings; safety: fraction of the stability budget a step may use.
    max_smoothing, a constant, caps the speed-filter order (a step needing
    more is rejected as unstable).
    """

    dt: float
    resample_every: int = 10
    safety: float = 0.2
    max_smoothing: ClassVar[int] = 20

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ParameterError(f"dt must be positive, got {self.dt}")
        if self.resample_every < 1:
            raise ParameterError("resample_every must be at least 1")
        if not 0.0 < self.safety <= 1.0:
            raise ParameterError("safety factor must lie in (0, 1]")


@dataclass(frozen=True)
class FlowState:
    """Snapshot of an evolving curve: vertices, elapsed time, formulation."""

    vertices: np.ndarray
    time: float
    mode: str


def renormalize(vertices: np.ndarray) -> np.ndarray:
    """Scale the curve about the ORIGIN to total length 2*pi.

    Scaling about the origin (not the centroid) is what makes the center of
    an off-center curve decay under the normalized flow — that drift is a
    measured feature, not an artifact.
    """
    return _rescale(*_validated_edges(vertices))


def _rescale(v: np.ndarray, edge_len: np.ndarray | None = None) -> np.ndarray:
    """v scaled to length 2*pi; edge_len, when given, is edge_lengths(v)."""
    total = float(np.sum(edge_lengths(v) if edge_len is None else edge_len))
    return (2.0 * np.pi / total) * v


def initial_state(vertices: np.ndarray, mode: str) -> FlowState:
    """Wrap an initial curve; normalized mode rescales it to length 2*pi."""
    if mode not in MODES:
        raise ParameterError(f"mode must be one of {MODES}, got {mode!r}")
    v, edge_len = _validated_edges(vertices)
    v = _rescale(v, edge_len) if mode == "normalized" else v.copy()
    return FlowState(vertices=v, time=0.0, mode=mode)


def _smooth_in_place(w: np.ndarray, passes: int) -> np.ndarray:
    """Apply the circular binomial filter [1/4, 1/2, 1/4] passes times to w in place.

    A quarter of w goes into a ghost-padded buffer whose ends hold the
    wrapped neighbours, so both quarter terms are slices of one product.
    Scaling by 1/4 and 1/2 is exact and addition commutes, so each pass sums
    (0.25 w[i-1] + 0.5 w[i]) + 0.25 w[i+1] exactly as the np.roll form does.
    """
    n = w.shape[0]
    quarter = np.empty(n + 2)
    for _ in range(passes):
        np.multiply(w, 0.25, out=quarter[1:-1])
        quarter[0] = quarter[n]
        quarter[-1] = quarter[1]
        w *= 0.5
        w += quarter[:-2]
        w += quarter[2:]
    return w


@functools.lru_cache(maxsize=256)
def _filter_gain(order: int) -> float:
    # sup over modes of (diffusion symbol) * (filter symbol)^order; the
    # binomial filter damps the sawtooth completely, pushing the worst case
    # to an interior mode with gain m^m/(m+1)^(m+1).  Cached: the order
    # search asks for the same few gains on every step.
    if order == 0:
        return 1.0
    return order**order / float(order + 1) ** (order + 1)


def smoothing_order(
    dt: float, min_edge: float, min_curvature: float, safety: float, max_smoothing: int
) -> int:
    """Smallest filter order keeping the step inside the stability budget."""
    budget = safety * min_edge * min_edge * min_curvature * min_curvature
    for order in range(max_smoothing + 1):
        if dt * _filter_gain(order) <= budget:
            return order
    raise StepRejectedError(
        f"dt = {dt:g} exceeds the stability budget {budget:g} even at "
        f"smoothing order {max_smoothing}")


def _step(
    v: np.ndarray, geometry, mode: str, dt: float, control: StepControl, time: float
) -> np.ndarray:
    """The Euler step of either formulation from a state at the given time.

    geometry is _geometry(v) of a state evolve has found convex, so every
    curvature is positive.  A rejected step carries the pre-step time.
    """
    edge_len, kappa, normal = geometry
    try:
        order = smoothing_order(
            dt, float(edge_len.min()), float(kappa.min()), control.safety, control.max_smoothing)
    except StepRejectedError as exc:
        raise StepRejectedError(str(exc), time=time) from None
    speed = _smooth_in_place(1.0 / kappa, order)
    if mode == "unnormalized":
        return v + dt * speed[:, None] * normal
    return _rescale(v + dt * (-v + speed[:, None] * normal))


def evolve(
    state: FlowState,
    control: StepControl,
    t_end: float,
    observers=(),
    snapshot_interval: float | None = None,
) -> FlowState:
    """Integrate to t_end, resampling on schedule and firing snapshot observers.

    Observers are called with (time, vertices, metrics) at the start state,
    at each multiple of snapshot_interval (when given), and at t_end; they
    must not mutate their arguments.  metrics is the step's geometry of the
    state, equal to compute_metrics(vertices).  Each state fires at most
    once: when one step passes several snapshot times, the state after it
    stands for all of them.  Step times are start + k*dt, not accumulated,
    and a shorter final step lands exactly on t_end.  Every state, the start
    state included, must have positive curvature at every vertex before any
    observer sees it; one that does not raises ConvexityLossError at its
    time.  Flow failures propagate with the failing time attached.
    """
    if snapshot_interval is not None and not snapshot_interval > 0.0:
        raise ParameterError("snapshot_interval must be positive")
    if t_end < state.time - _TIME_SLACK:
        raise ParameterError(f"t_end {t_end} precedes current time {state.time}")

    mode = state.mode
    v = validate_vertices(state.vertices)
    time = t0 = last_fired = state.time
    next_snap = t0 + snapshot_interval if snapshot_interval else np.inf
    half_dt = 0.5 * control.dt
    stop = t_end - _TIME_SLACK * max(1.0, abs(t_end))
    steps = 0
    while True:
        geometry = _geometry(v)
        if not np.all(geometry[1] > 0.0):  # curvature
            raise ConvexityLossError(f"convexity lost at t = {time:.6g}", time=time)
        done = not time < stop
        if (steps == 0 or time >= next_snap - half_dt
                or (done and time > last_fired + _TIME_SLACK)):
            metrics = CurveMetrics(*geometry)
            for obs in observers:
                obs(time, v, metrics)
            last_fired = time
            while next_snap - half_dt <= time:
                next_snap += snapshot_interval
        if done:
            return replace(state, vertices=v, time=time)

        remaining = t_end - time
        partial = remaining < control.dt * (1.0 - 1e-9)
        v = _step(v, geometry, mode, remaining if partial else control.dt, control, time)
        steps += 1
        time = t_end if partial else t0 + steps * control.dt
        if steps % control.resample_every == 0:
            v = resample_uniform(v, v.shape[0])
            if mode == "normalized":
                v = _rescale(v)


def polyline_hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two closed polylines.

    Vertices of each curve are measured against the full edge segments of
    the other, so the value is insensitive to vertex alignment.
    """
    pa = validate_vertices(a)
    pb = validate_vertices(b)
    # sqrt is correctly rounded and monotone, so it commutes with min and max
    return math.sqrt(max(_directed_sq(pa, pb), _directed_sq(pb, pa)))


def _directed_sq(p: np.ndarray, q: np.ndarray) -> float:
    """Largest squared distance from a vertex of p to the closed polyline q.

    The vertices of p are walked in row blocks of about BLOCK_PAIRS
    vertex-segment pairs, with x and y in separate reused buffers, so memory
    stays at a few blocks rather than (n, m, 2) arrays.  Each pair's floats
    are those of the (n, m, 2) evaluation: the projection parameter
    (diff . d) / |d|^2, as the sum of the x and y products, clipped to
    [0, 1], and the squared length of diff minus that multiple of d.
    """
    d = edge_vectors(q)
    len2 = np.maximum(np.einsum("ij,ij->i", d, d), 1e-300)
    qx, qy = np.ascontiguousarray(q.T)
    dx, dy = np.ascontiguousarray(d.T)
    rows = max(1, BLOCK_PAIRS // q.shape[0])
    buffers = np.empty((4, rows, q.shape[0]))
    worst = 0.0
    for row0 in range(0, p.shape[0], rows):
        x, y, frac, tmp = buffers[:, :p.shape[0] - row0]
        block = p[row0:row0 + rows]
        np.subtract(block[:, 0:1], qx, out=x)
        np.subtract(block[:, 1:2], qy, out=y)
        np.multiply(x, dx, out=frac)
        np.multiply(y, dy, out=tmp)
        frac += tmp
        frac /= len2
        np.clip(frac, 0.0, 1.0, out=frac)
        x -= np.multiply(frac, dx, out=tmp)
        y -= np.multiply(frac, dy, out=tmp)
        x *= x
        y *= y
        x += y
        worst = max(worst, float(x.min(axis=1).max()))
    return worst
