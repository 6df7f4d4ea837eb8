"""Constructors and discrete geometry of closed polygons."""

import os
import subprocess
import sys

import numpy as np
import pytest

import icflow
from icflow.curves import (
    _centroid,
    _dual_weights,
    _lengths,
    _lowest_first,
    arc_spread,
    compute_metrics,
    convexity_check,
    edge_lengths,
    edge_vectors,
    make_circle,
    make_ellipse,
    make_perturbed_circle,
    resample_uniform,
    validate_vertices,
)
from icflow.errors import DegenerateCurveError, ParameterError
from icflow.flow import polyline_hausdorff


def nonconvex_star(n=64):
    return make_perturbed_circle(1.0, n, [0.5], [7], seed=0)


def edge_turning(v):
    """Signed angle from each edge to the next one (index mod n): the
    polygon's exterior angles, at vertices 1, ..., n - 1, 0."""
    a = edge_vectors(v)
    b = np.roll(a, -1, axis=0)
    return np.arctan2(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0], np.einsum("ij,ij->i", a, b))


@pytest.mark.parametrize("n,radius", [(16, 1.0), (128, 0.5), (512, 3.0)])
def test_circle_metrics_match_closed_forms(n, radius):
    v = make_circle(radius, n)
    m = compute_metrics(v)
    assert m.total_length == pytest.approx(2 * n * radius * np.sin(np.pi / n), rel=1e-14)
    # the circumcircle estimator is exact on circle-inscribed polygons
    assert np.max(np.abs(m.curvature - 1.0 / radius)) < 1e-11 / radius
    assert np.max(np.abs(edge_turning(v) - 2 * np.pi / n)) < 1e-12
    assert np.max(np.abs(_dual_weights(m.edge_lengths) - m.total_length / n)) < 1e-13


def circle_as_first_written(radius, n):
    theta = 2.0 * np.pi * np.arange(n) / n
    return np.column_stack([radius * np.cos(theta), radius * np.sin(theta)])


@pytest.mark.parametrize("radius", [1e-50, 0.3, 1.0, 7.0, 1e50])
@pytest.mark.parametrize("n", [16, 17, 512, 4096])
def test_circle_is_its_first_vertex_formula_bit_for_bit(radius, n):
    # make_circle is the perturbed circle with no terms
    assert np.array_equal(make_circle(radius, n), circle_as_first_written(radius, n))


def test_circle_leaves_numpy_random_unloaded():
    # the perturbed circle with no terms draws no phases; numpy 2 loads
    # numpy.random lazily, and loading it would cost a circle run about 6 MB
    src = os.path.dirname(os.path.dirname(icflow.__file__))
    code = ("import sys; from icflow.curves import make_circle; "
            "make_circle(1.0, 16); print('numpy.random' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out == "False\n"


def centroid(v):
    # the center of mass as snapshot_report computes it
    return _centroid(v, compute_metrics(v).edge_lengths)


def test_circle_honors_center():
    v = make_circle(2.0, 64) + (0.3, -0.4)
    assert centroid(v) == pytest.approx([0.3, -0.4], abs=1e-12)


def test_tangent_angles_increase_on_convex_curves():
    # the edges' directions
    v = make_ellipse(2.0, 1.0, 128)
    edges = edge_vectors(v)
    tangent_angles = np.unwrap(np.arctan2(edges[:, 1], edges[:, 0]))
    assert np.all(np.diff(tangent_angles) > 0)
    assert np.sum(edge_turning(v)) == pytest.approx(2 * np.pi, abs=1e-10)


@pytest.mark.parametrize("seed", range(5))
def test_total_turning_is_one_revolution(seed):
    v = make_perturbed_circle(1.0, 256, [0.05, 0.03], [3, 5], seed=seed)
    assert np.sum(edge_turning(v)) == pytest.approx(2 * np.pi, abs=1e-10)


@pytest.mark.parametrize("a,b", [(2.0, 1.0), (1.5, 0.7), (1.0, 1.0)])
def test_ellipse_vertices_sit_on_ellipse_uniformly(a, b):
    v = make_ellipse(a, b, 256)
    assert np.max(np.abs((v[:, 0] / a) ** 2 + (v[:, 1] / b) ** 2 - 1.0)) < 1e-12
    m = compute_metrics(v)
    spread = (np.max(m.edge_lengths) - np.min(m.edge_lengths)) / np.mean(m.edge_lengths)
    assert spread < 1e-3


def test_ellipse_with_equal_axes_is_a_circle():
    assert np.max(np.abs(make_ellipse(1.5, 1.5, 64) - make_circle(1.5, 64))) < 1e-9


GAUSS5_NODES = [-0.9061798459386640, -0.5384693101056831, 0.0, 0.5384693101056831,
                0.9061798459386640]
GAUSS5_WEIGHTS = [0.2369268850561891, 0.4786286704993665, 0.5688888888888889,
                  0.4786286704993665, 0.2369268850561891]


def ellipse_as_first_written(a, b, n):
    # the ellipse's own arc-length inversion, before the perturbed circle
    # shared it: a Simpson table, a Gauss tail and three Newton steps
    def speed(u):
        return np.sqrt((a * np.sin(u)) ** 2 + (b * np.cos(u)) ** 2)

    nodes, weights = np.array(GAUSS5_NODES), np.array(GAUSS5_WEIGHTS)
    m = max(4096, 8 * n)
    u_grid = np.linspace(0.0, 2.0 * np.pi, m + 1)
    h = u_grid[1] - u_grid[0]
    f = speed(u_grid)
    s = np.zeros(m + 1)
    pair = (h / 3.0) * (f[:-2:2] + 4.0 * f[1:-1:2] + f[2::2])
    s[2::2] = np.cumsum(pair)
    s[1::2] = s[0:-1:2] + (h / 12.0) * (5.0 * f[0:-1:2] + 8.0 * f[1::2] - f[2::2])
    targets = s[-1] * np.arange(n) / n
    u = np.interp(targets, s, u_grid)
    for _ in range(3):
        idx = np.clip(np.searchsorted(u_grid, u, side="right") - 1, 0, m)
        lo = u_grid[idx]
        half = 0.5 * (u - lo)
        mid = 0.5 * (u + lo)
        tail = half * (weights @ speed(mid[None, :] + half[None, :] * nodes[:, None]))
        u = u - (s[idx] + tail - targets) / speed(u)
    v = np.empty((n, 2))
    v[:, 0] = a * np.cos(u)
    v[:, 1] = b * np.sin(u)
    return v


@pytest.mark.parametrize("a,b", [(2.0, 1.0), (1.5, 0.7), (1.0, 1.0), (4.0, 1.0), (1e-3, 3e-3)])
@pytest.mark.parametrize("n", [16, 17, 512, 2048])
def test_ellipse_is_its_first_inversion_bit_for_bit(a, b, n):
    assert np.array_equal(make_ellipse(a, b, n), ellipse_as_first_written(a, b, n))


def theta_uniform_circle(n, amplitudes, modes, seed):
    # the perturbed circle's points at theta = 2 pi k / n, not at uniform arc
    # length: a mesh with uneven edges
    phases = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, size=len(amplitudes))
    theta = 2.0 * np.pi * np.arange(n) / n
    r = 1.0 + sum(a * np.cos(k * theta + p) for a, k, p in zip(amplitudes, modes, phases))
    return np.column_stack([r * np.cos(theta), r * np.sin(theta)])


@pytest.mark.parametrize("amplitudes,modes,seed", [([0.1], [2], 1), ([0.03, 0.01], [3, 5], 7),
                                                   ([0.08], [4], 3)])
def test_perturbed_circle_spaces_its_points_evenly(amplitudes, modes, seed):
    # the theta-uniform points' edges differ by about the amplitudes; chords
    # at uniform arc length differ by the curvature's spread times h^2 / 24
    v = make_perturbed_circle(1.0, 256, amplitudes, modes, seed)
    m = compute_metrics(v)
    spread = (np.max(m.edge_lengths) - np.min(m.edge_lengths)) / np.mean(m.edge_lengths)
    assert spread < 1e-3
    uneven = compute_metrics(theta_uniform_circle(256, amplitudes, modes, seed)).edge_lengths
    assert (np.max(uneven) - np.min(uneven)) / np.mean(uneven) > 0.05


def test_arc_spread_grades_the_arcs_not_the_chords():
    # on the curve at uniform arc length the chords fall short of their arcs
    # by (kappa h)^2 / 24, so they spread at O(h^2), the estimated arcs at O(h^4)
    assert arc_spread(compute_metrics(make_circle(1.0, 64))) < 1e-13
    for n, bound in ((64, 1e-3), (256, 1e-5)):
        m = compute_metrics(make_ellipse(2.0, 1.0, n))
        chords = np.max(np.abs(m.edge_lengths / np.mean(m.edge_lengths) - 1.0))
        assert arc_spread(m) < bound < chords
    assert arc_spread(compute_metrics(theta_uniform_circle(256, [0.08], [4], seed=3))) > 0.05


def test_perturbed_circle_is_reproducible_per_seed():
    v1 = make_perturbed_circle(1.0, 128, [0.05], [3], seed=7)
    v2 = make_perturbed_circle(1.0, 128, [0.05], [3], seed=7)
    v3 = make_perturbed_circle(1.0, 128, [0.05], [3], seed=8)
    assert np.array_equal(v1, v2)
    assert not np.array_equal(v1, v3)


def test_perturbed_circle_rejects_vanishing_radius():
    with pytest.raises(ParameterError):
        make_perturbed_circle(1.0, 64, [1.5], [2], seed=0)


@pytest.mark.parametrize("amplitude,mode", [(1e100, 10**234), (0.01, 10**308)],
                         ids=["amplitude-times-mode", "mode-times-theta"])
def test_perturbed_circle_rejects_a_series_too_steep_to_place(amplitude, mode):
    # r' overflows the float range, so the arc length has no value; any
    # RuntimeWarning on the way fails the test
    with pytest.raises(ParameterError, match="too steep"):
        make_perturbed_circle(1.0, 64, [amplitude], [mode], seed=0)


def test_perturbed_circle_rejects_mismatched_lists():
    with pytest.raises(ParameterError):
        make_perturbed_circle(1.0, 64, [0.1, 0.2], [3], seed=0)


@pytest.mark.parametrize(
    "bad",
    [np.zeros((8, 2)), np.zeros((32, 3)), np.ones(10)],
    ids=["too-few", "wrong-width", "one-dimensional"],
)
def test_validate_rejects_bad_shapes(bad):
    with pytest.raises(ParameterError):
        validate_vertices(bad)


def test_validate_rejects_nonfinite_and_repeated_vertices():
    v = make_circle(1.0, 32)
    broken = v.copy()
    broken[0, 0] = np.nan
    with pytest.raises(DegenerateCurveError):
        validate_vertices(broken)
    repeated = v.copy()
    repeated[5] = repeated[4]
    with pytest.raises(DegenerateCurveError):
        validate_vertices(repeated)


def test_resample_is_identity_on_uniform_meshes():
    v = make_circle(1.0, 128)
    assert np.max(np.abs(resample_uniform(v, 128) - v)) < 1e-12


def test_resample_uniformizes_without_moving_the_curve():
    v = theta_uniform_circle(256, [0.08], [4], seed=3)
    out = resample_uniform(v, 256)
    m = compute_metrics(out)
    spread = (np.max(m.edge_lengths) - np.min(m.edge_lengths)) / np.mean(m.edge_lengths)
    assert spread < 1e-3
    assert polyline_hausdorff(v, out) < 1e-3
    # already uniform, so a second pass barely moves anything
    assert np.max(np.abs(resample_uniform(out, 256) - out)) < 1e-4
    assert out.shape == (256, 2)
    assert np.array_equal(out[0], v[0])


def test_resample_changes_vertex_count():
    v = make_ellipse(2.0, 1.0, 64)
    out = resample_uniform(v, 192)
    assert out.shape == (192, 2)
    assert polyline_hausdorff(v, out) < 5e-3


def resample_as_first_written(v, n):
    # the resampler before it reused the validated edge lengths, with the
    # package's edge lengths
    edge_len = _lengths(np.roll(v, -1, axis=0) - v)
    s = np.concatenate([[0.0], np.cumsum(edge_len)])
    closed = np.vstack([v, v[:1]])
    targets = s[-1] * np.arange(n) / n
    out = np.empty((n, 2))
    out[:, 0] = np.interp(targets, s, closed[:, 0])
    out[:, 1] = np.interp(targets, s, closed[:, 1])
    out[0] = v[0]
    return out


def test_resample_matches_its_first_form_and_validates_first():
    for v, n in [(make_ellipse(2.0, 1.0, 64), 192),
                 (make_perturbed_circle(1.0, 256, [0.08], [4], seed=3), 256),
                 (make_circle(1.0, 100), 17)]:
        assert np.array_equal(resample_uniform(v, n), resample_as_first_written(v, n))
    # the vertices are checked before the requested count
    with pytest.raises(ParameterError, match="got 3$"):
        resample_uniform(np.zeros((3, 2)), 4)
    repeated = make_circle(1.0, 32)
    repeated[5] = repeated[4]
    with pytest.raises(DegenerateCurveError, match="zero-length edge"):
        resample_uniform(repeated, 4)
    with pytest.raises(ParameterError, match="got 4$"):
        resample_uniform(make_circle(1.0, 32), 4)


def test_convexity_check_separates_shapes():
    assert convexity_check(make_circle(1.0, 32))
    assert convexity_check(make_ellipse(3.0, 1.0, 64))
    assert not convexity_check(nonconvex_star())


def roll_convexity(v):
    """Convexity as first tested, by the np.roll cross product of each edge
    with the next one (the oracle of the curvature-sign test)."""
    edges = np.roll(v, -1, axis=0) - v
    e_next = np.roll(edges, -1, axis=0)
    cross = edges[:, 0] * e_next[:, 1] - edges[:, 1] * e_next[:, 0]
    return bool(np.all(cross > 0.0))


@pytest.mark.parametrize("v", [
    make_circle(1.0, 64),
    make_ellipse(2.0, 1.0, 128),
    make_perturbed_circle(1.0, 128, [0.05, 0.02], [3, 5], seed=11),
    nonconvex_star(),
], ids=["circle", "ellipse", "perturbed", "star"])
def test_convexity_check_is_the_roll_cross_product(v):
    assert convexity_check(v) == roll_convexity(v)
    assert np.array_equal(edge_vectors(v), np.roll(v, -1, axis=0) - v)


def test_convexity_check_raises_where_neighbours_coincide():
    # the cross product reads 0 there, so the roll form returned False; the
    # curvature is undefined
    v = make_circle(1.0, 64)
    v[12] = v[10]
    assert not roll_convexity(v)
    with pytest.raises(DegenerateCurveError, match="coincide"):
        convexity_check(v)


def test_dual_cell_weights_sum_to_total_length():
    v = make_perturbed_circle(1.0, 128, [0.05], [6], seed=2)
    m = compute_metrics(v)
    assert np.sum(_dual_weights(m.edge_lengths)) == pytest.approx(m.total_length, rel=1e-14)
    # vertex i weighs half of edges i-1 and i, as first written with np.roll
    # (with the package's edge lengths); the centroid averages with these
    # weights, bit for bit
    edge_len = _lengths(np.roll(v, -1, axis=0) - v)
    weights = 0.5 * (edge_len + np.roll(edge_len, 1))
    assert np.array_equal(_dual_weights(m.edge_lengths), weights)
    assert np.array_equal(centroid(v), weights @ v / np.sum(weights))


def walk(bound, cap):
    return [(chunk.tolist(), low) for chunk, low in _lowest_first(np.array(bound, float), cap)]


def test_lowest_first_takes_nan_and_minus_inf_first_and_ties_in_index_order():
    inf, nan = np.inf, np.nan
    bound = [3.0, nan, 1.0, -inf, 1.0, nan, inf, 1.0, -0.0, 0.0]
    assert walk(bound, 16) == [([1], -inf), ([3, 5], -inf), ([8, 9, 2, 4], -0.0),
                               ([7, 0, 6], 1.0)]
    assert all(type(low) is float for _, low in walk(bound, 16))


def test_lowest_first_chunks_double_up_to_the_cap(rng):
    for size in (0, 1, 2, 3, 7, 8, 40):
        bound = rng.integers(0, 5, size).astype(float)
        for cap in (1, 2, 3, 4, 64):
            chunks = walk(bound, cap)
            expected, left, step = [], size, 1
            while left > 0:
                expected.append(min(step, left))
                left, step = left - expected[-1], min(2 * step, cap)
            assert [len(chunk) for chunk, _ in chunks] == expected
            assert sum((chunk for chunk, _ in chunks), []) == np.argsort(
                bound, kind="stable").tolist()
            assert [low for _, low in chunks] == [bound[chunk[0]] for chunk, _ in chunks]


def test_lowest_first_of_an_empty_and_an_all_nan_bound():
    assert walk([], 4) == []
    assert walk([np.nan] * 6, 2) == [([0], -np.inf), ([1, 2], -np.inf), ([3, 4], -np.inf),
                                     ([5], -np.inf)]
    assert walk([np.nan] * 3, 1) == [([0], -np.inf), ([1], -np.inf), ([2], -np.inf)]


def test_curvature_positive_on_random_convex_curves(rng):
    for _ in range(10):
        amps = rng.uniform(0.0, 0.015, size=3)
        seed = int(rng.integers(10_000))
        v = make_perturbed_circle(1.0, 192, amps, [2, 4, 7], seed=seed)
        m = compute_metrics(v)
        assert np.all(m.curvature > 0)
        assert m.total_length == pytest.approx(np.sum(m.edge_lengths), rel=1e-15)


def test_lengths_are_hypot_to_two_ulps_in_any_memory_layout(rng):
    # the moduli of a complex view: a Fortran-ordered or integer vertex array
    # gets C-ordered float edges, so the view exists
    v = make_perturbed_circle(1.0, 200, [0.05], [3], seed=4)
    expected = edge_lengths(v)
    assert np.array_equal(edge_lengths(np.asfortranarray(v)), expected)
    assert np.array_equal(edge_lengths(v[::-1])[::-1][np.r_[1:200, 0]], expected)
    assert np.array_equal(edge_lengths(np.array([[0, 0], [3, 0], [3, 4]])), [3.0, 4.0, 5.0])
    d = rng.standard_normal((1000, 2)) * 10.0 ** rng.uniform(-300, 300, (1000, 1))
    hypot = np.hypot(d[:, 0], d[:, 1])
    assert np.all(np.abs(_lengths(d) - hypot) <= 2.0 * np.spacing(hypot))
    with np.errstate(over="ignore"):
        edge = np.array([[1e308, 1e308], [np.inf, 1.0], [np.nan, 0.0], [5e-324, 0.0]])
        assert np.array_equal(_lengths(edge), np.hypot(*edge.T), equal_nan=True)
