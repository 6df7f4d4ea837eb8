"""Closed convex polygons and their discrete differential geometry.

Curves are plain (n, 2) float arrays of vertices, ordered counterclockwise
and implicitly closed (vertex n-1 connects back to vertex 0).  Everything
downstream (flow steppers, comparison scans, bound monitors) consumes the
per-vertex quantities computed here.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DegenerateCurveError, ParameterError

MIN_VERTICES = 16
# Largest vertex count a run accepts.  The two-point scan compares all
# n(n-1)/2 vertex pairs of every snapshot, about 2e9 pairs at 2**16, so a
# larger mesh is beyond any run this package can finish, and a far larger
# one cannot even be allocated.
MAX_VERTICES = 2**16

# Values per block of the blocked pair scans (comparison's certificate scan
# and all-pairs kernel, flow's Hausdorff distance): 2**15 doubles are 256 KB
# per array, so a block's temporaries stay within a few MB of cache.
BLOCK_PAIRS = 1 << 15

# 5-point Gauss-Legendre rule on [-1, 1], used to refine arc-length values
# between table nodes when placing ellipse vertices.
_GAUSS5_NODES = np.array(
    [-0.9061798459386640, -0.5384693101056831, 0.0, 0.5384693101056831, 0.9061798459386640]
)
_GAUSS5_WEIGHTS = np.array(
    [0.2369268850561891, 0.4786286704993665, 0.5688888888888889, 0.4786286704993665, 0.2369268850561891]
)


def edge_vectors(v: np.ndarray) -> np.ndarray:
    """v[i+1] - v[i] with index n wrapping to 0, for a float (n, 2) array.

    The same subtractions as np.roll(v, -1, axis=0) - v, done on slices, so
    the values match the roll form bit for bit.
    """
    edges = np.empty_like(v)
    np.subtract(v[1:], v[:-1], out=edges[:-1])
    np.subtract(v[0], v[-1], out=edges[-1])
    return edges


def edge_lengths(v: np.ndarray) -> np.ndarray:
    """|v[i+1] - v[i]| with index n wrapping to 0 (edge_vectors' hypot)."""
    return np.hypot(*edge_vectors(v).T)


def check_vertex_count(n: int) -> None:
    """Raise ParameterError if n is below MIN_VERTICES."""
    if n < MIN_VERTICES:
        raise ParameterError(f"need at least {MIN_VERTICES} vertices, got {n}")


def validate_vertices(vertices: np.ndarray) -> np.ndarray:
    """Coerce to a float (n, 2) array and check basic polygon sanity."""
    return _validated_edges(vertices)[0]


def _validated_edges(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """validate_vertices, also returning the edge lengths it checked."""
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[1] != 2:
        raise ParameterError(f"expected an (n, 2) vertex array, got shape {v.shape}")
    check_vertex_count(v.shape[0])
    if not np.all(np.isfinite(v)):
        raise DegenerateCurveError("vertex coordinates contain NaN or Inf")
    edge_len = edge_lengths(v)
    if np.min(edge_len) <= 0.0:
        raise DegenerateCurveError("curve has a zero-length edge (repeated vertices)")
    return v, edge_len


def make_circle(radius: float, n: int) -> np.ndarray:
    """Regular n-gon inscribed in the origin-centered circle of given radius:
    the perturbed circle with no terms, counterclockwise from angle 0."""
    return make_perturbed_circle(radius, n, (), (), seed=0)


def _ellipse_speed(u: np.ndarray, a: float, b: float) -> np.ndarray:
    return np.sqrt((a * np.sin(u)) ** 2 + (b * np.cos(u)) ** 2)


def make_ellipse(a: float, b: float, n: int) -> np.ndarray:
    """n points on the ellipse (a cos u, b sin u) at uniform arc-length spacing.

    The parameter values are found by inverting the cumulative arc-length
    integral: a composite-Simpson table on a fine grid gives bracketing
    values, a short Gauss segment plus Newton iterations polish each target
    to roundoff.  The returned points therefore sit exactly on the ellipse
    (no polygonal corner-cutting), and for a == b the construction reduces
    to make_circle up to roundoff.
    """
    if not (a > 0.0 and b > 0.0):
        raise ParameterError(f"semi-axes must be positive, got a={a}, b={b}")
    check_vertex_count(n)

    m = max(4096, 8 * n)  # even number of Simpson intervals over [0, 2pi]
    u_grid = np.linspace(0.0, 2.0 * np.pi, m + 1)
    h = u_grid[1] - u_grid[0]
    f = _ellipse_speed(u_grid, a, b)

    # Cumulative Simpson: exact composite rule at even nodes, a one-sided
    # quadratic rule h/12 * (5 f_k + 8 f_{k+1} - f_{k+2}) filling odd nodes.
    s = np.zeros(m + 1)
    pair = (h / 3.0) * (f[:-2:2] + 4.0 * f[1:-1:2] + f[2::2])
    s[2::2] = np.cumsum(pair)
    s[1::2] = s[0:-1:2] + (h / 12.0) * (5.0 * f[0:-1:2] + 8.0 * f[1::2] - f[2::2])

    perimeter = s[-1]
    targets = perimeter * np.arange(n) / n
    u = np.interp(targets, s, u_grid)

    for _ in range(3):
        # arc length at u = table value at the node below + Gauss tail
        idx = np.clip(np.searchsorted(u_grid, u, side="right") - 1, 0, m)
        lo = u_grid[idx]
        half = 0.5 * (u - lo)
        mid = 0.5 * (u + lo)
        tail = half * (_GAUSS5_WEIGHTS @ _ellipse_speed(
            mid[None, :] + half[None, :] * _GAUSS5_NODES[:, None], a, b))
        u = u - (s[idx] + tail - targets) / _ellipse_speed(u, a, b)

    v = np.empty((n, 2))
    v[:, 0] = a * np.cos(u)
    v[:, 1] = b * np.sin(u)
    return v


def make_perturbed_circle(
    radius: float,
    n: int,
    amplitudes: tuple[float, ...] | list[float] | np.ndarray,
    modes: tuple[int, ...] | list[int] | np.ndarray,
    seed: int,
) -> np.ndarray:
    """Circle with radial cosine perturbations: r(theta) = R (1 + sum a_j cos(k_j theta + phi_j)).

    Phases phi_j are drawn from the seeded generator so repeated calls with
    the same seed reproduce the same curve.
    Large amplitudes are allowed and may produce non-convex curves, which is
    intentional (they exercise the convexity gate downstream).
    """
    if not radius > 0.0:
        raise ParameterError(f"radius must be positive, got {radius}")
    check_vertex_count(n)
    amps = np.atleast_1d(np.asarray(amplitudes, dtype=float))
    ks = np.atleast_1d(np.asarray(modes, dtype=float))
    if amps.shape != ks.shape:
        raise ParameterError(
            f"amplitudes and modes must pair up, got {amps.shape} vs {ks.shape}")
    # no terms need no phases, nor numpy.random, which costs about 6 MB to load
    phases = (np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, size=amps.shape)
              if amps.size else amps)
    theta = 2.0 * np.pi * np.arange(n) / n
    r = radius * (1.0 + np.sum(
        amps[:, None] * np.cos(ks[:, None] * theta[None, :] + phases[:, None]), axis=0))
    if np.min(r) <= 0.0:
        raise ParameterError("perturbation amplitudes drive the radius non-positive")
    return np.column_stack([r * np.cos(theta), r * np.sin(theta)])


class CurveMetrics(NamedTuple):
    """Per-vertex geometry derived from a closed polygon.

    edge_lengths[i] is |v_{i+1} - v_i| (index mod n), curvature is the
    inverse circumradius of each vertex triple (signed), and outward_normal
    is the unit chord v_{i+1} - v_{i-1} rotated by -pi/2.
    """

    edge_lengths: np.ndarray
    curvature: np.ndarray
    outward_normal: np.ndarray

    @property
    def total_length(self) -> float:
        """Sum of the edge lengths."""
        return float(np.sum(self.edge_lengths))


def _geometry(v: np.ndarray) -> CurveMetrics:
    """The CurveMetrics (edge lengths, curvature, normals) of a float (n, 2) polygon.

    The curvature at vertex i is taken from the circumcircle through
    v_{i-1}, v_i, v_{i+1}:

        kappa_i = 2 cross(e_prev, e_next) / (|e_prev| |e_next| |v_{i+1} - v_{i-1}|)

    which equals 2 sin(turning angle) / chord and is exact (to roundoff) on
    polygons inscribed in circles — the property the flow's circle invariants
    rely on.  Signs follow orientation: positive on counterclockwise convex
    curves.  A ghost-padded copy of the vertices supplies the wrapped
    neighbours.  Raises DegenerateCurveError on non-finite coordinates, zero
    edges and coincident neighbours; the flow calls this directly, without
    validate_vertices, once per accepted state, for its step and observers.
    """
    if not np.isfinite(v).all():
        raise DegenerateCurveError("vertex coordinates contain NaN or Inf")
    n = v.shape[0]
    padded = np.empty((n + 2, 2))
    padded[1:-1] = v
    padded[0] = v[-1]
    padded[-1] = v[0]
    # back[i] = v[i] - v[i-1] (i = 0..n), so back[1:] are the edges and
    # back[:-1] the edges entering each vertex
    back = padded[1:] - padded[:-1]
    back_len = np.hypot(back[:, 0], back[:, 1])
    edge_len = back_len[1:]
    if edge_len.min() <= 0.0:
        raise DegenerateCurveError("curve has a zero-length edge (repeated vertices)")
    chord = padded[2:] - padded[:-2]
    chord_len = np.hypot(chord[:, 0], chord[:, 1])
    if chord_len.min() <= 0.0:
        raise DegenerateCurveError("vertices i-1 and i+1 coincide; curvature undefined")
    e_prev, edges = back[:-1], back[1:]
    cross = e_prev[:, 0] * edges[:, 1] - e_prev[:, 1] * edges[:, 0]
    kappa = 2.0 * cross / (back_len[:-1] * edge_len * chord_len)
    normal = np.empty((n, 2))
    np.divide(chord[:, 1], chord_len, out=normal[:, 0])
    np.divide(chord[:, 0], chord_len, out=normal[:, 1])
    np.negative(normal[:, 1], out=normal[:, 1])
    return CurveMetrics(edge_len, kappa, normal)


def compute_metrics(vertices: np.ndarray) -> CurveMetrics:
    """Edge lengths, total length, curvature and outward normals of a polygon.

    The step kernel's geometry (_geometry) of the validated vertices.
    """
    return _geometry(validate_vertices(vertices))


def _dual_weights(edge_len: np.ndarray) -> np.ndarray:
    """Arc-length weight of each vertex, half its two edges: they sum to the
    total length and make per-vertex samples trapezoidal integrals."""
    return 0.5 * (edge_len + np.roll(edge_len, 1))


def resample_uniform(vertices: np.ndarray, n: int) -> np.ndarray:
    """Redistribute n vertices at equal arc-length spacing along the polygon.

    Linear interpolation along the existing edges; the first output vertex
    coincides with the first input vertex.  Points move onto chords of the
    old polygon, so on curved input the total length contracts by
    O((kappa ds)^2) per resampling — callers tracking length to higher
    accuracy must account for that, it is not a bug in the resampler.
    """
    v, edge_len = _validated_edges(vertices)
    check_vertex_count(n)
    s = np.concatenate([[0.0], np.cumsum(edge_len)])
    closed = np.vstack([v, v[:1]])
    targets = s[-1] * np.arange(n) / n
    out = np.empty((n, 2))
    out[:, 0] = np.interp(targets, s, closed[:, 0])
    out[:, 1] = np.interp(targets, s, closed[:, 1])
    out[0] = v[0]
    return out


def convexity_check(vertices: np.ndarray) -> bool:
    """True iff _geometry's curvature is positive at every vertex: every pair
    of consecutive edges turns strictly left.  Raises DegenerateCurveError as
    _geometry does, where vertices i-1 and i+1 coincide, say."""
    return bool(np.all(_geometry(validate_vertices(vertices)).curvature > 0.0))


def _centroid(v: np.ndarray, edge_len: np.ndarray) -> np.ndarray:
    """Arc-length-weighted vertex average (center of mass), given edge lengths."""
    w = _dual_weights(edge_len)
    return w @ v / np.sum(w)
