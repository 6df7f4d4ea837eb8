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
    compute_metrics,
    convexity_check,
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


def normal_turning(m):
    """Signed angle from each outward normal to the next one (index mod n)."""
    a, b = m.outward_normal, np.roll(m.outward_normal, -1, axis=0)
    return np.arctan2(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0], np.einsum("ij,ij->i", a, b))


@pytest.mark.parametrize("n,radius", [(16, 1.0), (128, 0.5), (512, 3.0)])
def test_circle_metrics_match_closed_forms(n, radius):
    v = make_circle(radius, n)
    m = compute_metrics(v)
    assert m.total_length == pytest.approx(2 * n * radius * np.sin(np.pi / n), rel=1e-14)
    # the circumcircle estimator is exact on circle-inscribed polygons
    assert np.max(np.abs(m.curvature - 1.0 / radius)) < 1e-11 / radius
    assert np.max(np.abs(normal_turning(m) - 2 * np.pi / n)) < 1e-12
    assert np.max(np.abs(m.outward_normal - v / radius)) < 1e-12
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
    # the unit tangent is the outward normal rotated by +pi/2
    m = compute_metrics(make_ellipse(2.0, 1.0, 128))
    tangent_angles = np.unwrap(np.arctan2(m.outward_normal[:, 0], -m.outward_normal[:, 1]))
    assert np.all(np.diff(tangent_angles) > 0)
    assert np.sum(normal_turning(m)) == pytest.approx(2 * np.pi, abs=1e-10)


@pytest.mark.parametrize("seed", range(5))
def test_total_turning_is_one_revolution(seed):
    v = make_perturbed_circle(1.0, 256, [0.05, 0.03], [3, 5], seed=seed)
    m = compute_metrics(v)
    assert np.sum(normal_turning(m)) == pytest.approx(2 * np.pi, abs=1e-10)


@pytest.mark.parametrize("a,b", [(2.0, 1.0), (1.5, 0.7), (1.0, 1.0)])
def test_ellipse_vertices_sit_on_ellipse_uniformly(a, b):
    v = make_ellipse(a, b, 256)
    assert np.max(np.abs((v[:, 0] / a) ** 2 + (v[:, 1] / b) ** 2 - 1.0)) < 1e-12
    m = compute_metrics(v)
    spread = (np.max(m.edge_lengths) - np.min(m.edge_lengths)) / np.mean(m.edge_lengths)
    assert spread < 1e-3


def test_ellipse_with_equal_axes_is_a_circle():
    assert np.max(np.abs(make_ellipse(1.5, 1.5, 64) - make_circle(1.5, 64))) < 1e-9


def test_perturbed_circle_is_reproducible_per_seed():
    v1 = make_perturbed_circle(1.0, 128, [0.05], [3], seed=7)
    v2 = make_perturbed_circle(1.0, 128, [0.05], [3], seed=7)
    v3 = make_perturbed_circle(1.0, 128, [0.05], [3], seed=8)
    assert np.array_equal(v1, v2)
    assert not np.array_equal(v1, v3)


def test_perturbed_circle_rejects_vanishing_radius():
    with pytest.raises(ParameterError):
        make_perturbed_circle(1.0, 64, [1.5], [2], seed=0)


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
    v = make_perturbed_circle(1.0, 256, [0.08], [4], seed=3)
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
    # the resampler before it reused the validated edge lengths
    edge_len = np.hypot(*(np.roll(v, -1, axis=0) - v).T)
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
    # vertex i weighs half of edges i-1 and i, as first written with np.roll;
    # the centroid averages with these weights, bit for bit
    edge_len = np.hypot(*(np.roll(v, -1, axis=0) - v).T)
    weights = 0.5 * (edge_len + np.roll(edge_len, 1))
    assert np.array_equal(_dual_weights(m.edge_lengths), weights)
    assert np.array_equal(centroid(v), weights @ v / np.sum(weights))


def test_normals_are_unit_and_outward(rng):
    for _ in range(10):
        amps = rng.uniform(0.005, 0.02, size=2)
        seed = int(rng.integers(10_000))
        v = make_perturbed_circle(1.0, 128, amps, [2, 5], seed=seed)
        m = compute_metrics(v)
        norms = np.hypot(m.outward_normal[:, 0], m.outward_normal[:, 1])
        assert np.max(np.abs(norms - 1.0)) < 1e-14
        rel = v - centroid(v)
        assert np.all(np.einsum("ij,ij->i", m.outward_normal, rel) > 0)


def test_curvature_positive_on_random_convex_curves(rng):
    for _ in range(10):
        amps = rng.uniform(0.0, 0.015, size=3)
        seed = int(rng.integers(10_000))
        v = make_perturbed_circle(1.0, 192, amps, [2, 4, 7], seed=seed)
        m = compute_metrics(v)
        assert np.all(m.curvature > 0)
        assert m.total_length == pytest.approx(np.sum(m.edge_lengths), rel=1e-15)
