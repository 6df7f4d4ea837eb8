"""Snapshot monitors, noise floors, and decay-rate fits."""

import numpy as np
import pytest

from icflow.bounds import (
    _ratio,
    bonnesen_floor,
    curvature_derivative_profiles,
    curvature_l2_deficit,
    curvature_sup_residual,
    decay_slope,
    derivative_noise_floors,
    l2_deficit_floor,
    snapshot_report,
)
from icflow.comparison import admissible_offset
from icflow.curves import (
    compute_metrics,
    make_circle,
    make_ellipse,
    make_perturbed_circle,
    resample_uniform,
)
from icflow.errors import ParameterError
from icflow.experiment import CHECKS, CSV_HEADER, RunSeries
from icflow.flow import renormalize


def normalized_ellipse(n=256):
    return renormalize(make_ellipse(2.0, 1.0, n))


def report(v):
    # every per-snapshot monitor, as runs evaluate them
    return snapshot_report(0.0, v, compute_metrics(v), 0.0)


@pytest.mark.parametrize("n", [64, 256])
def test_circle_deficit_sits_on_the_polygonization_floor(n):
    m = compute_metrics(renormalize(make_circle(1.0, n)))
    assert curvature_l2_deficit(m) == pytest.approx(l2_deficit_floor(n), rel=1e-2)


def test_ellipse_deficit_is_order_one():
    deficit = curvature_l2_deficit(compute_metrics(normalized_ellipse()))
    assert deficit == pytest.approx(3.9444, rel=1e-3)
    assert deficit > 1e6 * l2_deficit_floor(256)


def test_sup_residual_is_zero_at_the_admissible_offset():
    v = normalized_ellipse()
    m = compute_metrics(v)
    offset = admissible_offset(v)
    assert curvature_sup_residual(m, 0.0, offset) <= 1e-12
    # the offset is the exact activation point: any smaller offset leaves
    # the squared-curvature bound violated at time zero
    assert curvature_sup_residual(m, 0.0, offset - 1e-6) > 0.0


def test_sup_residual_with_distant_offset_measures_kappa_excess():
    m = compute_metrics(normalized_ellipse())
    residual = curvature_sup_residual(m, 0.0, -50.0)
    assert residual == pytest.approx(float(np.max(m.curvature)) ** 2 - 1.0, rel=1e-12)
    assert residual > 8.0


def test_extrema_drift_detects_envelope_escape():
    def grade(curves, tol=1e-3):
        kappas = [compute_metrics(v).curvature for v in curves]
        rows = [{"kappa_min": float(k.min()), "kappa_max": float(k.max())} for k in kappas]
        passed, worst, _ = CHECKS["extrema_drift"][2](RunSeries(rows, [], [], 64), tol)
        return passed, worst

    passed, worst = grade([make_circle(1.0, 64), make_circle(1.2, 64)])
    assert worst == pytest.approx(1.0 - 1.0 / 1.2, abs=1e-10)
    assert not passed
    assert grade([make_circle(1.0, 64), make_circle(1.2, 64)], tol=0.2) == (True, worst)
    assert grade([normalized_ellipse(128), make_circle(1.0, 64)]) == (True, 0.0)


def test_decay_slope_recovers_exact_exponentials():
    t = np.linspace(0.0, 5.0, 26)
    assert decay_slope(t, 3.0 * np.exp(-2.0 * t), 1.0, 5.0, 0.0) == pytest.approx(-2.0, abs=1e-12)
    assert decay_slope(t, 0.5 * np.exp(0.7 * t), 0.0, 5.0, 0.0) == pytest.approx(0.7, abs=1e-12)


def test_decay_slope_is_nan_without_usable_points():
    t = np.linspace(0.0, 5.0, 26)
    assert np.isnan(decay_slope(t, np.full_like(t, 1e-15), 1.0, 5.0, 1e-12))
    assert np.isnan(decay_slope(t, np.exp(-t), 4.9, 5.0, 0.0))


def test_derivative_profiles_on_the_ellipse():
    dk, d2k = curvature_derivative_profiles(compute_metrics(normalized_ellipse()))
    assert dk == pytest.approx(6.137, rel=1e-2)
    assert d2k == pytest.approx(63.68, rel=1e-2)


def test_derivative_profiles_reject_nonuniform_meshes():
    v = make_perturbed_circle(1.0, 128, [0.15], [2], seed=1)
    with pytest.raises(ParameterError, match=r"\); resample before estimating derivatives$"):
        curvature_derivative_profiles(compute_metrics(v))
    # after resampling the same curve is acceptable
    dk, d2k = curvature_derivative_profiles(compute_metrics(resample_uniform(v, 128)))
    assert dk > 0 and d2k > 0


def test_derivative_noise_floors_track_mesh_refinement():
    dk_floor_256, d2k_floor_256 = derivative_noise_floors(256)
    dk_floor_512, d2k_floor_512 = derivative_noise_floors(512)
    assert dk_floor_512 == pytest.approx(8 * dk_floor_256, rel=1e-12)
    assert d2k_floor_512 == pytest.approx(16 * d2k_floor_256, rel=1e-12)
    # measured circle noise stays under the floors with margin
    dk, d2k = curvature_derivative_profiles(compute_metrics(renormalize(make_circle(1.0, 256))))
    assert dk < dk_floor_256
    assert d2k < d2k_floor_256


def grade_ladder(t, dk, d2k, n=256):
    # the derivative_ladder check of a run whose snapshots carry these
    # columns; at n = 256 the noise floors are 3.0e-10 and 1.2e-8
    rows = [{"t": a, "dkappa_max": b, "d2kappa_max": c} for a, b, c in zip(t, dk, d2k)]
    return CHECKS["derivative_ladder"][2](RunSeries(rows, [], [], n), 1.5)


def test_ladder_calibrates_then_grades_late_times_only():
    t = np.linspace(0.0, 5.0, 51)
    dk = 5.0 * np.exp(-2.0 * t)
    d2k = 40.0 * np.exp(-2.0 * t)
    passed, worst, detail = grade_ladder(t, dk, d2k)
    # the larger excess is that of D2kappa: its weight max(1, t) grows faster
    calibration, late = (t >= 0.5) & (t <= 2.0), t > 2.0 + 1e-12
    weighted = d2k * np.maximum(1.0, t)
    assert passed
    assert worst == pytest.approx(np.max(weighted[late]) / np.max(weighted[calibration]), rel=1e-12)
    assert 0.0 < worst < 1.0
    slope = float(detail.split()[2])
    assert slope == pytest.approx(-2.0, abs=1e-5)


def test_ladder_flags_late_regrowth():
    t = np.linspace(0.0, 5.0, 51)
    growing, decaying = np.exp(0.5 * t), np.exp(-2.0 * t)
    # either derivative's regrowth fails the check on its excess alone
    for dk, d2k in ((growing, decaying), (decaying, growing)):
        passed, worst, _ = grade_ladder(t, dk, d2k)
        assert not passed
        assert worst > 1.5


def test_ladder_nan_semantics():
    t = np.linspace(0.0, 5.0, 51)
    quiet = np.full_like(t, 1e-15)
    assert grade_ladder(t, quiet, quiet) == (
        True, None, "late slope nan (bound -0.3)")
    # run that ends inside the calibration window: calibrated but ungraded
    t_short = np.linspace(0.0, 2.0, 21)
    decaying = np.exp(-t_short)
    assert grade_ladder(t_short, decaying, decaying)[:2] == (True, None)


def test_ladder_respects_separate_floors():
    t = np.linspace(0.0, 5.0, 51)
    dk = np.exp(-t)
    d2k = np.full_like(t, 1e-9)  # above dk's floor, below d2k's
    passed, worst, _ = grade_ladder(t, dk, d2k)
    # graded on D2kappa, the flat series would read an excess of 5/2
    assert passed
    assert 0.0 < worst < 1.0


def test_gn_ratio_finite_on_the_ellipse_and_undefined_on_circles():
    assert report(normalized_ellipse())["gn_ratio"] == pytest.approx(0.3858, rel=1e-3)
    assert np.isnan(report(renormalize(make_circle(1.0, 256)))["gn_ratio"])


@pytest.mark.parametrize("n", [64, 256])
def test_bonnesen_gap_floor_on_circles(n):
    gap = report(make_circle(1.0, n))["bonnesen_gap"]
    assert gap == pytest.approx(bonnesen_floor(n) / 2.0, rel=1e-2)


def test_bonnesen_gap_scales_inversely_with_radius():
    assert report(make_circle(2.0, 256))["bonnesen_gap"] == pytest.approx(
        report(make_circle(1.0, 256))["bonnesen_gap"] / 2.0, rel=1e-3)


def test_bonnesen_gap_on_the_ellipse():
    gap = report(normalized_ellipse())["bonnesen_gap"]
    assert gap == pytest.approx(0.77097, rel=1e-3)
    assert 0.5 < gap < 1.0


def test_convergence_metrics_measure_deviation_and_center():
    row = report(make_circle(1.0, 128))
    assert row["hausdorff"] < 1e-14
    assert row["center_norm"] < 1e-14
    row = report(make_circle(1.0, 128) + (0.1, 0.0))
    assert row["hausdorff"] < 1e-14
    assert row["center_norm"] == pytest.approx(0.1, abs=1e-14)


SNAPSHOT_CURVES = {
    "ellipse": normalized_ellipse,
    "perturbed": lambda: renormalize(resample_uniform(
        make_perturbed_circle(1.0, 256, [0.03, 0.01], [3, 5], seed=7), 256)),
    "circle": lambda: renormalize(make_circle(1.0, 256)),
}


def about_centroid_as_first_written(v):
    # the Bonnesen gap and the convergence metrics with np.roll, one by one
    edges = np.roll(v, -1, axis=0) - v
    edge_len = np.hypot(edges[:, 0], edges[:, 1])
    weights = 0.5 * (edge_len + np.roll(edge_len, 1))
    c0 = weights @ v / np.sum(weights)
    rel = v - c0
    radii = np.hypot(rel[:, 0], rel[:, 1])
    line_dist = (edges[:, 0] * (c0[1] - v[:, 1]) - edges[:, 1] * (c0[0] - v[:, 0])) / edge_len
    gap = 1.0 / float(np.min(line_dist)) - 1.0 / float(np.max(radii))
    return gap, float(np.max(np.abs(radii - 1.0))), float(np.hypot(c0[0], c0[1]))


def public_monitors(time, v, offset):
    # each snapshot_report column from its own monitor
    m = compute_metrics(v)
    dk, d2k = curvature_derivative_profiles(m)
    deficit = curvature_l2_deficit(m)
    gap, radial, center = about_centroid_as_first_written(v)
    return {
        "kappa_min": float(np.min(m.curvature)),
        "kappa_max": float(np.max(m.curvature)),
        "thm12_residual": curvature_sup_residual(m, time, offset),
        "l2_deficit": deficit,
        "dkappa_max": dk,
        "d2kappa_max": d2k,
        "gn_ratio": _ratio(dk, d2k, deficit, v.shape[0]),
        "bonnesen_gap": gap,
        "hausdorff": radial,
        "center_norm": center,
    }


def test_snapshot_report_collects_consistent_fields():
    for name, curve in SNAPSHOT_CURVES.items():
        v = curve()
        offset = admissible_offset(v)
        row = snapshot_report(0.0, v, compute_metrics(v), offset)
        expected = public_monitors(0.0, v, offset)
        assert list(row) == [c for c in CSV_HEADER.split(",") if c in expected], name
        for key, value in expected.items():
            # == with NaN matching NaN: the one-pass floats are the monitors' own
            assert row[key] == value or (np.isnan(row[key]) and np.isnan(value)), (name, key)
        assert row["thm12_residual"] <= 1e-12
        assert np.isnan(row["gn_ratio"]) == (name == "circle")
        if name == "ellipse":
            assert row["center_norm"] < 1e-12


def test_snapshot_report_silences_ratio_on_circles():
    v = renormalize(make_circle(1.0, 256))
    row = snapshot_report(0.0, v, compute_metrics(v), -50.0)
    assert np.isnan(row["gn_ratio"])
    assert row["thm12_residual"] == 0.0
