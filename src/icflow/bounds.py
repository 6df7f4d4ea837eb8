"""Quantitative monitors evaluated on flow snapshots.

Every function here turns a snapshot (or a history of snapshots) into a
residual that is zero or negative when the corresponding analytic statement
holds: the squared-curvature sup bound with its exponential envelope, the
L2 deficit of curvature and its decay rate, finite-difference curvature
derivatives and their noise floors (experiment's derivative ladder grades
their decay), the interpolation-ratio monitor, the incircle/circumcircle
curvature gap, and plain convergence-to-unit-circle metrics.

snapshot_report evaluates them all in one pass over a snapshot: it takes
edge lengths, dual-cell weights and curvature from the snapshot's
CurveMetrics, and each value is the float its monitor returns.

Noise floors matter throughout: a polygon inscribed in a circle measures a
strictly positive deficit and Bonnesen gap of order (pi/n)^2 purely from
polygonization, and finite differences of a constant field sit at roundoff.
Values at or below those floors are excluded from rate fits, and ratios
there are NaN, so exact fixtures pass vacuously instead of fitting noise.
"""

from __future__ import annotations

from math import pi

import numpy as np

from .curves import (CurveMetrics, _centroid, _dual_weights, arc_spread, edge_vectors,
                     validate_vertices)
from .errors import ParameterError

# Finite-difference magnitudes below this are indistinguishable from
# roundoff in the curvature estimator.
DERIVATIVE_FLOOR = 1e-12
# Largest arc_spread of a mesh uniform enough for derivative estimation.
_UNIFORM_SPREAD = 2e-2


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
    weights = _dual_weights(metrics.edge_lengths)
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


def uniform_spacing(metrics: CurveMetrics, remedy: str) -> float:
    """Mean edge length of a convex mesh; ParameterError naming the remedy
    where its arc_spread exceeds _UNIFORM_SPREAD (too uneven to difference)."""
    spread = arc_spread(metrics)
    if not spread <= _UNIFORM_SPREAD:
        raise ParameterError(f"mesh is not uniform (relative spread {spread:.3g}); {remedy}")
    return float(np.mean(metrics.edge_lengths))


def curvature_derivative_profiles(metrics: CurveMetrics) -> tuple[float, float]:
    """Sup norms of the first two arc-length derivatives of curvature.

    Periodic central differences on the uniform mesh; the second derivative
    applies the same stencil twice.  Non-uniform meshes are rejected — the
    stencil would silently degrade to first order there.
    """
    h = uniform_spacing(metrics, "resample before estimating derivatives")
    kappa = metrics.curvature
    dk = (np.roll(kappa, -1) - np.roll(kappa, 1)) / (2.0 * h)
    d2k = (np.roll(dk, -1) - np.roll(dk, 1)) / (2.0 * h)
    return float(np.max(np.abs(dk))), float(np.max(np.abs(d2k)))


def _ratio(dk: float, d2k: float, deficit: float, n: int) -> float:
    """Interpolation ratio ||Dkappa||_inf / (||D2kappa||_inf^(3/5) ||kappa-1||_2^(2/5))
    at mesh size n, monitored for boundedness (its constant is unknown); NaN
    where near-circular snapshots make it 0/0 at roundoff scale."""
    l2 = float(np.sqrt(deficit))
    if (deficit <= 3.0 * l2_deficit_floor(n)
            or dk <= DERIVATIVE_FLOOR or d2k <= DERIVATIVE_FLOOR or l2 <= DERIVATIVE_FLOOR):
        return float("nan")
    return dk / (d2k**0.6 * l2**0.4)


def _about_centroid(v: np.ndarray, edge_len: np.ndarray) -> tuple[float, float, float]:
    """(Bonnesen gap 1/r_in - 1/r_out, max radial deviation from the unit
    circle, |centroid|) of validated vertices with their edge lengths.

    r_out is the largest vertex distance from the centroid, r_in the smallest
    distance from it to an edge line; the gap is NaN if r_in <= 0.  An
    inscribed n-gon's gap is bonnesen_floor(n)/2 per unit radius.
    """
    c0 = _centroid(v, edge_len)
    rel = v - c0
    radii = np.hypot(rel[:, 0], rel[:, 1])
    edges = edge_vectors(v)
    line_dist = (edges[:, 0] * (c0[1] - v[:, 1]) - edges[:, 1] * (c0[0] - v[:, 0])) / edge_len
    r_in = float(np.min(line_dist))
    gap = 1.0 / r_in - 1.0 / float(np.max(radii)) if r_in > 0.0 else float("nan")
    return gap, float(np.max(np.abs(radii - 1.0))), float(np.hypot(c0[0], c0[1]))


def snapshot_report(
    time: float, vertices: np.ndarray, metrics: CurveMetrics, offset: float
) -> dict[str, float]:
    """Every per-snapshot monitor, keyed by its CSV column.

    metrics must be those of vertices, a convex flow state.  thm12_residual
    is curvature_sup_residual, l2_deficit curvature_l2_deficit, dkappa_max
    and d2kappa_max curvature_derivative_profiles; gn_ratio (_ratio) and
    bonnesen_gap (_about_centroid) may be NaN.
    """
    dk, d2k = curvature_derivative_profiles(metrics)
    deficit = curvature_l2_deficit(metrics)
    gap, radial, center = _about_centroid(validate_vertices(vertices), metrics.edge_lengths)
    return {
        "kappa_min": float(np.min(metrics.curvature)),
        "kappa_max": float(np.max(metrics.curvature)),
        "thm12_residual": curvature_sup_residual(metrics, time, offset),
        "l2_deficit": deficit,
        "dkappa_max": dk,
        "d2kappa_max": d2k,
        "gn_ratio": _ratio(dk, d2k, deficit, metrics.curvature.size),
        "bonnesen_gap": gap,
        "hausdorff": radial,
        "center_norm": center,
    }
