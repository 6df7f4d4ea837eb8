"""Quantitative monitors evaluated on flow snapshots.

Every function here turns a snapshot (or a history of snapshots) into a
residual that is zero or negative when the corresponding analytic statement
holds: the squared-curvature sup bound with its exponential envelope, the
L2 deficit of curvature and its decay rate, finite-difference derivative
decay, the interpolation-ratio monitor, the incircle/circumcircle curvature
gap, and plain convergence-to-unit-circle metrics.

Noise floors matter throughout: a polygon inscribed in a circle measures a
strictly positive deficit and Bonnesen gap of order (pi/n)^2 purely from
polygonization, and finite differences of a constant field sit at roundoff.
Values at or below those floors are excluded from rate fits and ratios so
that exact fixtures pass vacuously instead of producing fits of noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi

import numpy as np

from .curves import CurveMetrics, centroid, convexity_check, validate_vertices
from .errors import NoiseFloorError, ParameterError

# Finite-difference magnitudes below this are indistinguishable from
# roundoff in the curvature estimator.
DERIVATIVE_FLOOR = 1e-12
# Relative edge-length spread beyond which a mesh no longer counts as
# uniform for derivative estimation.
_UNIFORM_SPREAD = 2e-2
# Time windows of the derivative ladder: the envelope constants are
# calibrated over the first, the late decay rate is fitted over the second.
LADDER_CALIBRATION_WINDOW = (0.5, 2.0)
LADDER_LATE_WINDOW = (2.0, 5.0)


def l2_deficit_floor(n: int) -> float:
    """Polygonization floor of the curvature L2 deficit at mesh size n.

    A regular n-gon of length 2*pi has constant curvature
    (pi/n)/sin(pi/n) ~ 1 + (pi/n)^2/6, so even the perfect circle fixture
    reports a deficit of about 2*pi*((pi/n)^2/6)^2.
    """
    bias = (pi / n) ** 2 / 6.0
    return 2.0 * pi * bias * bias


def bonnesen_floor(n: int) -> float:
    """Polygonization floor of the Bonnesen gap: (1/cos(pi/n) - 1) ~ (pi/n)^2/2."""
    return (pi / n) ** 2


def derivative_noise_floors(n: int) -> tuple[float, float]:
    """Roundoff floors of max|Dkappa| and max|D2kappa| on a length-2pi mesh.

    Vertex coordinates carry O(eps) absolute roundoff, so the curvature of
    a unit circle is measured with noise of order eps/h^2 (h = 2*pi/n), and
    each central difference divides by another h.  The returned floors put
    a 20x margin on those scales; constant-curvature fixtures sit well
    below them while genuine decaying signals stay orders of magnitude
    above until far beyond the horizons used here.
    """
    h = 2.0 * pi / n
    eps = float(np.finfo(float).eps)
    return 20.0 * eps / h**3, 20.0 * eps / h**4


def curvature_sup_residual(metrics: CurveMetrics, time: float, offset: float) -> float:
    """Violation of max kappa^2 <= 1 + 2 e^{-2 (time - offset)} (0 when satisfied)."""
    bound = 1.0 + 2.0 * float(np.exp(-2.0 * (time - offset)))
    return max(0.0, float(np.max(metrics.curvature)) ** 2 - bound)


def curvature_l2_deficit(metrics: CurveMetrics) -> float:
    """Arc-length integral of (kappa - 1)^2 over the curve."""
    weights = 0.5 * (metrics.edge_lengths + np.roll(metrics.edge_lengths, 1))
    return float(np.sum((metrics.curvature - 1.0) ** 2 * weights))


def decay_slope(times, values, t_min: float, t_max: float, floor: float) -> float:
    """Least-squares slope of log(values) vs time over a window.

    Entries outside [t_min, t_max] or at/below the noise floor are dropped;
    with fewer than two usable points the rate is undefined and NaN is
    returned (callers treat that as a vacuous pass).
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    mask = (t >= t_min - 1e-12) & (t <= t_max + 1e-12) & (v > floor)
    if int(np.sum(mask)) < 2:
        return float("nan")
    return float(np.polyfit(t[mask], np.log(v[mask]), 1)[0])


def uniform_mesh_spread(metrics: CurveMetrics) -> float:
    """Relative spread of edge lengths around their mean."""
    h = float(np.mean(metrics.edge_lengths))
    return float(np.max(np.abs(metrics.edge_lengths - h))) / h


def curvature_derivative_profiles(metrics: CurveMetrics) -> tuple[float, float]:
    """Sup norms of the first two arc-length derivatives of curvature.

    Periodic central differences on the uniform mesh; the second derivative
    applies the same stencil twice.  Non-uniform meshes are rejected — the
    stencil would silently degrade to first order there.
    """
    spread = uniform_mesh_spread(metrics)
    if spread > _UNIFORM_SPREAD:
        raise ParameterError(
            f"mesh is not uniform (relative spread {spread:.3g}); "
            "resample before estimating derivatives")
    h = float(np.mean(metrics.edge_lengths))
    kappa = metrics.curvature
    dk = (np.roll(kappa, -1) - np.roll(kappa, 1)) / (2.0 * h)
    d2k = (np.roll(dk, -1) - np.roll(dk, 1)) / (2.0 * h)
    return float(np.max(np.abs(dk))), float(np.max(np.abs(d2k)))


@dataclass(frozen=True)
class LadderReport:
    """Derivative-decay ladder: calibrated envelopes and the late-time rate.

    calibration_* are the maxima of max|Dkappa| * max(1, sqrt t) and
    max|D2kappa| * max(1, t) over the calibration window; excess_* are the
    worst ratios of the same weighted quantities AFTER the window to their
    calibrations.  The analytic envelopes carry unspecified constants, so
    the window defines each constant and only later times are asserted
    against it; excess <= 1 means the weighted signal kept decaying.
    late_slope is the fitted log-rate of max|Dkappa| over the late window.
    NaN fields mean the data never rose above the noise floor (or the run
    ended inside the calibration window).
    """

    calibration_dkappa: float
    calibration_d2kappa: float
    excess_dkappa: float
    excess_d2kappa: float
    late_slope: float


def derivative_ladder_check(
    times,
    dkappa_max,
    d2kappa_max,
    floor: float = DERIVATIVE_FLOOR,
    floor2: float | None = None,
) -> LadderReport:
    """Envelope-and-rate check for the first two curvature derivatives.

    floor applies to max|Dkappa| and floor2 (default: floor) to
    max|D2kappa|; entries at or below their floor are excluded everywhere.
    """
    t = np.asarray(times, dtype=float)
    dk = np.asarray(dkappa_max, dtype=float)
    d2k = np.asarray(d2kappa_max, dtype=float)
    if floor2 is None:
        floor2 = floor
    lo, hi = LADDER_CALIBRATION_WINDOW
    w1 = dk * np.maximum(1.0, np.sqrt(np.maximum(t, 0.0)))
    w2 = d2k * np.maximum(1.0, t)

    def calibrate(weighted, raw, level):
        mask = (t >= lo - 1e-12) & (t <= hi + 1e-12) & (raw > level)
        if not np.any(mask):
            return float("nan"), float("nan")
        cal = float(np.max(weighted[mask]))
        late = (t > hi + 1e-12) & (raw > level)
        if not np.any(late):
            return cal, float("nan")
        return cal, float(np.max(weighted[late])) / cal

    cal1, excess1 = calibrate(w1, dk, floor)
    cal2, excess2 = calibrate(w2, d2k, floor2)
    slope = decay_slope(t, dk, *LADDER_LATE_WINDOW, floor)
    return LadderReport(
        calibration_dkappa=cal1,
        calibration_d2kappa=cal2,
        excess_dkappa=excess1,
        excess_d2kappa=excess2,
        late_slope=slope,
    )


def gn_ratio(metrics: CurveMetrics) -> float:
    """Interpolation ratio ||Dkappa||_inf / (||D2kappa||_inf^(3/5) ||kappa-1||_2^(2/5)).

    The bounding constant is unknown, so the ratio is only monitored for
    boundedness along a run.  Near-circular snapshots make the ratio 0/0 at
    roundoff scale; those raise NoiseFloorError instead of returning noise.
    """
    dk, d2k = curvature_derivative_profiles(metrics)
    deficit = curvature_l2_deficit(metrics)
    if deficit <= 3.0 * l2_deficit_floor(len(metrics.curvature)):
        raise NoiseFloorError(
            "curvature deficit at the polygonization floor; ratio undefined")
    l2 = float(np.sqrt(deficit))
    if dk <= DERIVATIVE_FLOOR or d2k <= DERIVATIVE_FLOOR or l2 <= DERIVATIVE_FLOOR:
        raise NoiseFloorError("curvature variation below noise floor; ratio undefined")
    return dk / (d2k**0.6 * l2**0.4)


def bonnesen_gap(vertices: np.ndarray) -> float:
    """Curvature gap 1/r_in - 1/r_out of the centroid-based in/circumcircle.

    r_out is the largest vertex distance from the centroid, r_in the
    smallest distance from the centroid to an edge line.  Zero only for a
    perfect circle; for an inscribed n-gon the polygonization floor is
    bonnesen_floor(n)/2 per unit radius.
    """
    v = validate_vertices(vertices)
    if not convexity_check(v):
        raise ParameterError("Bonnesen gap requires a convex curve")
    c0 = centroid(v)
    rel = v - c0
    r_out = float(np.max(np.hypot(rel[:, 0], rel[:, 1])))
    edges = np.roll(v, -1, axis=0) - v
    edge_len = np.hypot(edges[:, 0], edges[:, 1])
    line_dist = (edges[:, 0] * (c0[1] - v[:, 1]) - edges[:, 1] * (c0[0] - v[:, 0])) / edge_len
    r_in = float(np.min(line_dist))
    if r_in <= 0.0:
        raise ParameterError("centroid lies outside an edge line; curve degenerate")
    return 1.0 / r_in - 1.0 / r_out


def convergence_metrics(vertices: np.ndarray) -> tuple[float, float]:
    """(radial deviation from the unit circle about the centroid, |centroid|)."""
    v = validate_vertices(vertices)
    c0 = centroid(v)
    rel = v - c0
    radii = np.hypot(rel[:, 0], rel[:, 1])
    return float(np.max(np.abs(radii - 1.0))), float(np.hypot(c0[0], c0[1]))


@dataclass(frozen=True)
class BoundsReport:
    """All per-snapshot monitor values in one immutable record."""

    time: float
    kappa_min: float
    kappa_max: float
    sup_bound_residual: float
    l2_deficit: float
    dkappa_max: float
    d2kappa_max: float
    gn: float
    bonnesen: float
    radial_deviation: float
    center_norm: float


def snapshot_report(
    time: float, vertices: np.ndarray, metrics: CurveMetrics, offset: float
) -> BoundsReport:
    """Evaluate every per-snapshot monitor; the ratio is NaN below its floor."""
    dk, d2k = curvature_derivative_profiles(metrics)
    try:
        ratio = gn_ratio(metrics)
    except NoiseFloorError:
        ratio = float("nan")
    radial, center = convergence_metrics(vertices)
    return BoundsReport(
        time=float(time),
        kappa_min=float(np.min(metrics.curvature)),
        kappa_max=float(np.max(metrics.curvature)),
        sup_bound_residual=curvature_sup_residual(metrics, time, offset),
        l2_deficit=curvature_l2_deficit(metrics),
        dkappa_max=dk,
        d2kappa_max=d2k,
        gn=ratio,
        bonnesen=bonnesen_gap(vertices),
        radial_deviation=radial,
        center_norm=center,
    )
