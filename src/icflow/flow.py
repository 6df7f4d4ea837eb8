"""Explicit time integration of the inverse curvature flow.

Two formulations share one clock:

* unnormalized: each vertex moves outward by dt / kappa along the normal,
  so total length grows like e^t;
* normalized: vertices move by dt * (-position + normal / kappa), and the
  curve is taken about the origin to total length 2*pi where it is seen.

Both steppers are plain explicit Euler on a smoothed speed field.  The raw
pointwise update is unconditionally unstable whenever dt exceeds the
parabolic limit ~ (min edge)^2 (min kappa)^2, which the step sizes this
package is asked to run at do by one to two orders of magnitude.  Instead of
shrinking dt, the scalar speed 1/kappa is passed m times through the
circular binomial filter [1/4, 1/2, 1/4] before the update.  Each pass
multiplies the gain of the worst sawtooth mode by at most
g(m) = m^m / (m+1)^(m+1), so m is chosen as the smallest order with

    dt * g(m) <= safety * (min edge)^2 * (min kappa)^2,

which reduces to the classical constraint at m = 0.  The m passes run as
one convolution with the 2m+1 binomial taps, which returns a constant field
to 1e-15 relative (up to 6.5e-16 on about half of random constants), so
circles (constant speed) keep their closed-form radius law to roundoff.

With V = 1/kappa the arc element obeys d/dt ds = kappa V ds = ds: a uniform
mesh stays uniform but for the filtered speed's error, large at high filter
orders.  So every resample_every steps, and before a snapshot after the start,
evolve resamples once, at even estimated arcs, where curves.arc_spread >
bounds._UNIFORM_SPREAD / 2.

One lean kernel steps both formulations.  Per state it computes only what
the step and its checks read (curves._kernel_terms): edge lengths, whose
one minimum serves the degeneracy test and the order budget, curvature, whose
minimum is the convexity test and the budget's other input, and chords.  The
CurveMetrics is built only for a state an observer sees.
The normalized step is homogeneous of degree 1 in the curve's scale, and the
budget, the mesh measure and the convexity sign are scale-free, so that
lane steps unrescaled (the continuum flow keeps its length: d/dt L =
L - int kappa h ds = 0) and is rescaled to 2*pi only where it is observed
or returned: the same scheme up to roundoff.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .bounds import _UNIFORM_SPREAD
from .curves import (
    BLOCK_PAIRS,
    CurveMetrics,
    _geometry,
    _kernel_terms,
    _lowest_first,
    _mesh_arcs,
    _validated_edges,
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

    dt: Euler step; resample_every: accepted steps between mesh checks; safety:
    fraction of the stability budget a step may use.  max_smoothing, a
    constant, caps the speed-filter order (a step needing more is rejected).
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
    """Scale the curve about the ORIGIN to total length 2*pi: not about the
    centroid, so the center of an off-center curve decays under the
    normalized flow, a measured feature rather than an artifact."""
    v, edge_len = _validated_edges(vertices)
    return (2.0 * np.pi / float(np.sum(edge_len))) * v


def _renormalized(v: np.ndarray, geometry: CurveMetrics) -> tuple[np.ndarray, CurveMetrics]:
    """renormalize(v) and geometry = _geometry(v) scaled with it (not recomputed)."""
    edge_len, kappa = geometry
    scale = 2.0 * np.pi / float(edge_len.sum())
    return scale * v, CurveMetrics(scale * edge_len, kappa / scale)


def initial_state(vertices: np.ndarray, mode: str) -> FlowState:
    """Wrap an initial curve; normalized mode rescales it to length 2*pi."""
    if mode not in MODES:
        raise ParameterError(f"mode must be one of {MODES}, got {mode!r}")
    v = renormalize(vertices) if mode == "normalized" else validate_vertices(vertices).copy()
    return FlowState(vertices=v, time=0.0, mode=mode)


@functools.lru_cache(maxsize=64)
def _filter_taps(n: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    # the wrap index of n values, and the taps C(2 order, k) / 4**order, exact doubles
    taps = np.array([math.comb(2 * order, k) for k in range(2 * order + 1)]) / 4.0**order
    return np.arange(-order, n + order) % n, taps


def _binomial_filter(w: np.ndarray, order: int) -> np.ndarray:
    """order passes of the circular binomial filter [1/4, 1/2, 1/4] over w, as
    one convolution of a wrapped copy with the binomial taps; to roundoff the
    passes' values, and w itself at order 0."""
    index, taps = _filter_taps(w.shape[0], order)
    return np.correlate(w[index], taps, "valid")  # the taps are symmetric


# sup over modes of (diffusion symbol) * (filter symbol)^m, per order m: the
# binomial filter damps the sawtooth completely, pushing the worst case to
# an interior mode with gain m^m/(m+1)^(m+1)
_FILTER_GAINS = (1.0, *(m**m / float(m + 1) ** (m + 1) for m in range(1, 64)))


def smoothing_order(
    dt: float, min_edge: float, min_curvature: float, safety: float, max_smoothing: int
) -> int:
    """Smallest filter order keeping the step inside the stability budget
    (max_smoothing at most 63)."""
    budget = safety * min_edge * min_edge * min_curvature * min_curvature
    for order, gain in enumerate(_FILTER_GAINS[:max_smoothing + 1]):
        if dt * gain <= budget:
            return order
    raise StepRejectedError(
        f"dt = {dt:g} exceeds the stability budget {budget:g} even at "
        f"smoothing order {max_smoothing}")


def _step(v: np.ndarray, terms, kappa_min: float, mode: str, dt: float,
          control: StepControl, time: float) -> np.ndarray:
    """The Euler step of either formulation (normalized: unrescaled) from the
    _kernel_terms of a state evolve has found convex, its least curvature
    kappa_min > 0: each vertex moves by dt S(1/kappa) / |chord| times its
    turned chord (the outward normal times |chord|), a normalized one also
    by -dt times itself.  A rejected step carries the pre-step time."""
    _, edge_min, kappa, chord, chord_len = terms
    try:
        order = smoothing_order(dt, edge_min, kappa_min, control.safety, control.max_smoothing)
    except StepRejectedError as exc:
        raise StepRejectedError(str(exc), time=time) from None
    push = chord * (_binomial_filter(dt / kappa, order) / chord_len)
    z = v.view(np.complex128)[:, 0]
    if mode == "normalized":
        push -= dt * z
    push += z
    return push.view(np.float64).reshape(-1, 2)


def evolve(
    state: FlowState,
    control: StepControl,
    t_end: float,
    observers=(),
    snapshot_interval: float | None = None,
) -> FlowState:
    """Integrate to t_end, resampling where needed and firing snapshot observers.

    Observers are called with (time, vertices, metrics) at the start state,
    at each multiple of snapshot_interval (when given), and at t_end; they
    must not mutate their arguments.  metrics is compute_metrics(vertices),
    and a normalized state after the start is rescaled to length 2*pi where
    it is observed or returned, and only there.  Each state fires at most
    once: when one step passes several snapshot times, the state after it
    stands for all of them.  Step times are start + k*dt, not accumulated,
    and a shorter final step lands exactly on t_end.  Every state, the
    start state included, must have positive curvature at every vertex
    before any observer sees it; one that does not raises ConvexityLossError
    at its time.  Flow failures propagate with the failing time attached.
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
    steps = checked = 0
    while True:
        terms = _kernel_terms(v)
        edge_len, kappa = terms[0], terms[2]
        kappa_min = float(kappa.min())  # NaN fails too
        if not kappa_min > 0.0:
            raise ConvexityLossError(f"convexity lost at t = {time:.6g}", time=time)
        done = not time < stop
        observe = (steps == 0 or time >= next_snap - half_dt
                   or (done and time > last_fired + _TIME_SLACK))
        # once per check: even chords can leave a coarse mesh's arcs uneven
        if steps > checked and (observe or steps % control.resample_every == 0):
            arcs, spread = _mesh_arcs(edge_len, kappa)
            if spread > 0.5 * _UNIFORM_SPREAD:
                v, checked = resample_uniform(v, v.shape[0], arcs), steps
                continue
        rescale = (observe or done) and steps and mode == "normalized"
        seen = (2.0 * np.pi / float(edge_len.sum())) * v if rescale else v
        if observe:
            geometry = _geometry(seen)
            for obs in observers:
                obs(time, seen, geometry)
            last_fired = time
            while next_snap - half_dt <= time:
                next_snap += snapshot_interval
        if done:
            return replace(state, vertices=seen, time=time)

        remaining = t_end - time
        partial = remaining < control.dt * (1.0 - 1e-9)
        v = _step(v, terms, kappa_min, mode, remaining if partial else control.dt, control, time)
        steps += 1
        time = t_end if partial else t0 + steps * control.dt


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

    A vertex's squared distance to the five segments of q around its
    aligned index (i m // n) bounds its row's minimum from above, and so
    does the window offset by the index of the vertex of q nearest p[0],
    which aligns an index-rolled q; the smaller bound is kept.  Rows are
    then scanned whole, highest bound first (_lowest_first of its negation),
    in batches of at most about BLOCK_PAIRS / 4 pairs, until the next bound
    is not above the largest row minimum found: no row left can exceed it,
    so the result is the exhaustive scan's float.
    """
    n, m = p.shape[0], q.shape[0]
    d = edge_vectors(q)
    segments = (*q.T, *d.T, np.maximum(np.einsum("ij,ij->i", d, d), 1e-300))
    window = np.arange(n)[:, None] * m // n + np.arange(-2, 3)
    nearest = int(np.argmin(np.einsum("ij,ij->i", q - p[0], q - p[0])))
    bound = np.min([_pair_sq(p, *(column[(window + shift) % m] for column in segments)).min(axis=1)
                    for shift in {0, nearest}], axis=0)
    worst = 0.0
    for rows, low in _lowest_first(-bound, max(1, BLOCK_PAIRS // (4 * m))):
        if -low <= worst:
            break
        worst = max(worst, float(_pair_sq(p[rows], *segments).min(axis=1).max()))
    return worst


def _pair_sq(p: np.ndarray, qx, qy, dx, dy, len2) -> np.ndarray:
    """Squared distance from each vertex of p (a row) to the segments q + [0, 1] d
    (columns, broadcast against the rows), as the (n, m, 2) evaluation takes it:
    diff minus d times (diff . d) / |d|^2 clipped to [0, 1], squared."""
    x = p[:, 0:1] - qx
    y = p[:, 1:2] - qy
    frac = np.clip((x * dx + y * dy) / len2, 0.0, 1.0)
    x -= frac * dx
    y -= frac * dy
    return x * x + y * y
