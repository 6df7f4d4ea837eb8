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


def _lowest_first(bound: np.ndarray, cap: int):
    """Yield the indices of the 1-D bound lowest first, in chunks of 1, 2, 4,
    ... up to cap, each chunk with its first bound as a Python float: NaN
    counts as -inf, and ties stay in index order.  The walk of every pruned
    scan, which stops at the first chunk whose bound rules out the rest."""
    key = np.where(np.isnan(bound), -np.inf, bound)
    order = np.argsort(key, kind="stable")
    pos, size = 0, 1
    while pos < order.size:
        yield order[pos:pos + size], float(key[order[pos]])
        pos, size = pos + size, min(2 * size, cap)


# 5-point Gauss-Legendre rule on [-1, 1], for _arclength_nodes' tail integrals.
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
    edges = np.empty(v.shape)
    np.subtract(v[1:], v[:-1], out=edges[:-1])
    np.subtract(v[0], v[-1], out=edges[-1])
    return edges


def _lengths(d: np.ndarray) -> np.ndarray:
    """|d[i]| of a C-contiguous float (m, 2) array, the package's one length:
    the modulus of each row read as a complex number, a quarter of the cost
    of np.hypot and within 2 ulps of it (inf, NaN and overflow alike)."""
    return np.abs(d.view(np.complex128)[:, 0])


def edge_lengths(v: np.ndarray) -> np.ndarray:
    """|v[i+1] - v[i]| with index n wrapping to 0 (edge_vectors' lengths)."""
    return _lengths(edge_vectors(v))


def check_vertex_count(n: int) -> None:
    """Raise ParameterError if n is below MIN_VERTICES."""
    if n < MIN_VERTICES:
        raise ParameterError(f"need at least {MIN_VERTICES} vertices, got {n}")


def validate_vertices(vertices: np.ndarray) -> np.ndarray:
    """Coerce to a float (n, 2) array and check basic polygon sanity."""
    return _validated_edges(vertices)[0]


def _validated_edges(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """validate_vertices (a C-ordered array), also returning its edge lengths."""
    v = np.asarray(vertices, dtype=float, order="C")
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


def _arclength_nodes(speed, n: int) -> np.ndarray:
    """n parameters u in [0, 2 pi) at uniform arc length along a closed curve
    of speed |c'(u)| = speed(u), elementwise, by inverting the arc length: a
    composite-Simpson table on a fine grid brackets each target, and a short
    Gauss segment plus Newton iterations polish it to roundoff."""
    m = max(4096, 8 * n)  # even number of Simpson intervals over [0, 2pi]
    u_grid = np.linspace(0.0, 2.0 * np.pi, m + 1)
    h = u_grid[1] - u_grid[0]
    f = speed(u_grid)

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
        tail = half * (_GAUSS5_WEIGHTS @ speed(
            mid[None, :] + half[None, :] * _GAUSS5_NODES[:, None]))
        u = u - (s[idx] + tail - targets) / speed(u)
    return u


def make_ellipse(a: float, b: float, n: int) -> np.ndarray:
    """n points on the ellipse (a cos u, b sin u) at uniform arc-length spacing
    (_arclength_nodes); for a == b they are make_circle's up to roundoff."""
    if not (a > 0.0 and b > 0.0):
        raise ParameterError(f"semi-axes must be positive, got a={a}, b={b}")
    check_vertex_count(n)
    u = _arclength_nodes(lambda u: np.sqrt((a * np.sin(u)) ** 2 + (b * np.cos(u)) ** 2), n)
    return np.column_stack([a * np.cos(u), b * np.sin(u)])


def make_perturbed_circle(
    radius: float,
    n: int,
    amplitudes: tuple[float, ...] | list[float] | np.ndarray,
    modes: tuple[int, ...] | list[int] | np.ndarray,
    seed: int,
) -> np.ndarray:
    """Circle with radial cosine perturbations: r(theta) = R (1 + sum a_j cos(k_j theta + phi_j)),
    n points at uniform arc length (_arclength_nodes of the speed hypot(r, r'),
    or theta = 2 pi k / n with no terms).  Its phases phi_j are rng.uniform's PCG64
    draws, np.random.default_rng(seed).uniform(0, 2 pi)'s, so a seed reproduces its
    curve.  Large amplitudes may give non-convex curves: they exercise the convexity gate."""
    if not radius > 0.0:
        raise ParameterError(f"radius must be positive, got {radius}")
    check_vertex_count(n)
    amps = np.atleast_1d(np.asarray(amplitudes, dtype=float))
    ks = np.atleast_1d(np.asarray(modes, dtype=float))
    if amps.shape != ks.shape:
        raise ParameterError(
            f"amplitudes and modes must pair up, got {amps.shape} vs {ks.shape}")
    from .rng import uniform  # imported here: no ellipse loads it
    phases = uniform(seed, 0.0, 2.0 * np.pi, amps.size) if amps.size else ()

    def series(theta):
        # r / R and its theta-derivative, one term at a time
        rel, slope = np.ones_like(theta), np.zeros_like(theta)
        for amp, k, phase in zip(amps, ks, phases):
            arg = k * theta + phase
            rel += amp * np.cos(arg)
            slope -= (amp * k) * np.sin(arg)
        return rel, slope

    with np.errstate(over="ignore", invalid="ignore"):  # a steep series overflows
        theta = (_arclength_nodes(lambda u: np.hypot(*series(u)), n) if amps.size
                 else 2.0 * np.pi * np.arange(n) / n)
    if not np.isfinite(theta).all():
        raise ParameterError("perturbation too steep: its arc length overflows")
    r = radius * series(theta)[0]
    if np.min(r) <= 0.0:
        raise ParameterError("perturbation amplitudes drive the radius non-positive")
    return np.column_stack([r * np.cos(theta), r * np.sin(theta)])


class CurveMetrics(NamedTuple):
    """Per-vertex geometry derived from a closed polygon.

    edge_lengths[i] is |v_{i+1} - v_i| (index mod n), and curvature is the
    inverse circumradius of each vertex triple (signed).
    """

    edge_lengths: np.ndarray
    curvature: np.ndarray

    @property
    def total_length(self) -> float:
        """Sum of the edge lengths."""
        return float(np.sum(self.edge_lengths))


def _kernel_terms(v: np.ndarray):
    """The step kernel's terms of a float (n, 2) polygon: its edge lengths,
    their least value (a float), the curvature, and each vertex's chord
    v_{i+1} - v_{i-1} turned by -pi/2 (complex, along the outward normal)
    with its length.

    The curvature at vertex i is taken from the circumcircle through
    v_{i-1}, v_i, v_{i+1}:

        kappa_i = 2 cross(e_prev, e_next) / (|e_prev| |e_next| |v_{i+1} - v_{i-1}|)

    which equals 2 sin(turning angle) / chord and is exact (to roundoff) on
    polygons inscribed in circles — the property the flow's circle invariants
    rely on.  Signs follow orientation: positive on counterclockwise convex
    curves.  The rows of the C-ordered v are read as complex128, turned
    (exactly: -i (x + iy) = y - ix) and padded with the wrapped neighbours:
    lengths are moduli, the cross product Im(conj(e_prev) e_next).  Raises
    DegenerateCurveError on non-finite coordinates, zero edges and coincident
    neighbours, before any division.
    """
    if not np.isfinite(v).all():
        raise DegenerateCurveError("vertex coordinates contain NaN or Inf")
    turned = np.empty(v.shape[0] + 2, np.complex128)
    np.multiply(v.view(np.complex128)[:, 0], -1j, out=turned[1:-1])
    turned[0] = turned[-2]
    turned[-1] = turned[1]
    # back[i] = v[i] - v[i-1] (i = 0..n), turned, so back[1:] are the edges
    # and back[:-1] the edges entering each vertex
    back = turned[1:] - turned[:-1]
    back_len = np.abs(back)
    edge_len = back_len[1:]
    edge_min = float(edge_len.min())
    if not edge_min > 0.0:
        raise DegenerateCurveError("curve has a zero-length edge (repeated vertices)")
    chord = turned[2:] - turned[:-2]
    chord_len = np.abs(chord)
    if chord_len.min() <= 0.0:
        raise DegenerateCurveError("vertices i-1 and i+1 coincide; curvature undefined")
    kappa = 2.0 * (np.conj(back[:-1]) * back[1:]).imag / (back_len[:-1] * edge_len * chord_len)
    return edge_len, edge_min, kappa, chord, chord_len


def _geometry(v: np.ndarray) -> CurveMetrics:
    """The CurveMetrics of a float (n, 2) polygon: _kernel_terms' edge lengths
    and curvature."""
    edge_len, _, kappa, _, _ = _kernel_terms(v)
    return CurveMetrics(edge_len, kappa)


def compute_metrics(vertices: np.ndarray) -> CurveMetrics:
    """Edge lengths, total length and curvature of a polygon:
    the step kernel's geometry (_geometry) of the validated vertices."""
    return _geometry(validate_vertices(vertices))


def _dual_weights(edge_len: np.ndarray) -> np.ndarray:
    """Arc-length weight of each vertex, half its two edges: they sum to the
    total length and make per-vertex samples trapezoidal integrals."""
    return 0.5 * (edge_len + np.roll(edge_len, 1))


def _mesh_arcs(edge_len: np.ndarray, kappa: np.ndarray) -> tuple[np.ndarray, float]:
    """Each edge's estimated arc (2/k) asin(min(1, k l/2)), from its chord l
    and its two vertices' mean curvature k, over 4; and their spread."""
    pair = kappa + np.concatenate((kappa[1:], kappa[:1]))
    arcs = np.arcsin(np.minimum(1.0, 0.25 * pair * edge_len)) / pair
    return arcs, float(np.max(np.abs(arcs / arcs.mean() - 1.0)))


def arc_spread(geometry: CurveMetrics) -> float:
    """max |arc / mean - 1| over a convex polygon's edges, each arc _mesh_arcs'
    estimate: the package's mesh measure."""
    return _mesh_arcs(geometry.edge_lengths, geometry.curvature)[1]


def resample_uniform(vertices: np.ndarray, n: int, arcs: np.ndarray | None = None) -> np.ndarray:
    """Redistribute n vertices at equal spacing along the polygon, spacing
    measured in arcs, one weight per edge proportional to its length along
    the curve (by default the chords themselves).

    Linear interpolation along the existing edges; the first output vertex
    coincides with the first input vertex.  Points move onto chords of the
    old polygon, so on curved input the total length contracts by
    O((kappa ds)^2) per resampling — callers tracking length to higher
    accuracy must account for that, it is not a bug in the resampler.
    """
    v, edge_len = _validated_edges(vertices)
    check_vertex_count(n)
    s = np.concatenate([[0.0], np.cumsum(edge_len if arcs is None else arcs)])
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
