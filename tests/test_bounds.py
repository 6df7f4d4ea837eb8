"""Snapshot monitors, noise floors, and decay-rate fits."""

import numpy as np
import pytest

from icflow.bounds import (
    bonnesen_floor,
    bonnesen_gap,
    convergence_metrics,
    curvature_derivative_profiles,
    curvature_l2_deficit,
    curvature_sup_residual,
    decay_slope,
    derivative_ladder_check,
    derivative_noise_floors,
    gn_ratio,
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
from icflow.errors import NoiseFloorError, ParameterError
from icflow.experiment import CHECKS, RunSeries
from icflow.flow import renormalize


def normalized_ellipse(n=256):
    return renormalize(make_ellipse(2.0, 1.0, n))


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
    with pytest.raises(ParameterError):
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


def test_ladder_calibrates_then_grades_late_times_only():
    t = np.linspace(0.0, 5.0, 51)
    dk = 5.0 * np.exp(-2.0 * t)
    d2k = 40.0 * np.exp(-2.0 * t)
    report = derivative_ladder_check(t, dk, d2k)
    assert report.calibration_dkappa == pytest.approx(
        float(np.max(dk[(t >= 0.5) & (t <= 2.0)] * np.maximum(1.0, np.sqrt(t[(t >= 0.5) & (t <= 2.0)])))),
        rel=1e-12,
    )
    assert 0.0 < report.excess_dkappa < 1.0
    assert 0.0 < report.excess_d2kappa < 1.0
    assert report.late_slope == pytest.approx(-2.0, abs=1e-10)


def test_ladder_flags_late_regrowth():
    t = np.linspace(0.0, 5.0, 51)
    growing = np.exp(0.5 * t)
    report = derivative_ladder_check(t, growing, growing)
    assert report.excess_dkappa > 1.0
    assert report.excess_d2kappa > 1.0


def test_ladder_nan_semantics():
    t = np.linspace(0.0, 5.0, 51)
    quiet = np.full_like(t, 1e-15)
    report = derivative_ladder_check(t, quiet, quiet)
    assert np.isnan(report.calibration_dkappa)
    assert np.isnan(report.excess_dkappa)
    # run that ends inside the calibration window: calibrated but ungraded
    t_short = np.linspace(0.0, 2.0, 21)
    decaying = np.exp(-t_short)
    short = derivative_ladder_check(t_short, decaying, decaying)
    assert np.isfinite(short.calibration_dkappa)
    assert np.isnan(short.excess_dkappa)


def test_ladder_respects_separate_floors():
    t = np.linspace(0.0, 5.0, 51)
    dk = np.exp(-t)
    d2k = np.full_like(t, 1e-9)
    report = derivative_ladder_check(t, dk, d2k, floor=1e-12, floor2=1e-8)
    assert np.isfinite(report.excess_dkappa)
    assert np.isnan(report.excess_d2kappa)


def test_gn_ratio_finite_on_the_ellipse_and_undefined_on_circles():
    assert gn_ratio(compute_metrics(normalized_ellipse())) == pytest.approx(0.3858, rel=1e-3)
    with pytest.raises(NoiseFloorError):
        gn_ratio(compute_metrics(renormalize(make_circle(1.0, 256))))


@pytest.mark.parametrize("n", [64, 256])
def test_bonnesen_gap_floor_on_circles(n):
    gap = bonnesen_gap(make_circle(1.0, n))
    assert gap == pytest.approx(bonnesen_floor(n) / 2.0, rel=1e-2)


def test_bonnesen_gap_scales_inversely_with_radius():
    assert bonnesen_gap(make_circle(2.0, 256)) == pytest.approx(
        bonnesen_gap(make_circle(1.0, 256)) / 2.0, rel=1e-3)


def test_bonnesen_gap_on_the_ellipse():
    gap = bonnesen_gap(normalized_ellipse())
    assert gap == pytest.approx(0.77097, rel=1e-3)
    assert 0.5 < gap < 1.0


def test_bonnesen_gap_requires_convexity():
    with pytest.raises(ParameterError):
        bonnesen_gap(make_perturbed_circle(1.0, 128, [0.5], [7], seed=0))


def test_convergence_metrics_measure_deviation_and_center():
    dev, center = convergence_metrics(make_circle(1.0, 128))
    assert dev < 1e-14
    assert center < 1e-14
    dev, center = convergence_metrics(make_circle(1.0, 128, center=(0.1, 0.0)))
    assert dev < 1e-14
    assert center == pytest.approx(0.1, abs=1e-14)


def test_snapshot_report_collects_consistent_fields():
    v = normalized_ellipse()
    m = compute_metrics(v)
    offset = admissible_offset(v)
    report = snapshot_report(0.0, v, m, offset)
    assert report.time == 0.0
    assert report.kappa_min == pytest.approx(float(np.min(m.curvature)), rel=1e-14)
    assert report.kappa_max == pytest.approx(float(np.max(m.curvature)), rel=1e-14)
    assert report.sup_bound_residual <= 1e-12
    assert report.l2_deficit == pytest.approx(curvature_l2_deficit(m), rel=1e-14)
    assert np.isfinite(report.gn)
    assert report.bonnesen == pytest.approx(bonnesen_gap(v), rel=1e-14)
    assert report.center_norm < 1e-12


def test_snapshot_report_silences_ratio_on_circles():
    v = renormalize(make_circle(1.0, 256))
    report = snapshot_report(0.0, v, compute_metrics(v), -50.0)
    assert np.isnan(report.gn)
    assert report.sup_bound_residual == 0.0
