"""Closed-form profile, its differential operator, and two-point diagnostics.

The frozen reference values below were generated with mpmath at 40 decimal
digits, evaluating the defining expressions directly (no reuse of the package
formulas), then rounded to double precision.
"""

import functools
import tracemalloc

import numpy as np
import pytest

from icflow import comparison
from icflow.comparison import (
    admissible_offset,
    numerator_grid_min,
    profile_dt,
    profile_dx,
    profile_dxx,
    profile_residual,
    profile_value,
    residual_certificate_scan,
    residual_dx_numerator,
    two_point_gap_scan,
)
from icflow.curves import (
    _validated_edges,
    compute_metrics,
    make_circle,
    make_ellipse,
    make_perturbed_circle,
    resample_uniform,
)
from icflow.errors import NoAdmissibleOffsetError, ParameterError
from icflow.flow import StepControl, evolve, initial_state, renormalize

# (x, t) -> value tables, mpmath 40-digit reference
PROFILE_VALUES = [
    (np.pi / 2, 1.0, 1.3835503655223077),
    (1.0, -2.0, 0.3506993964738244),
    (2.5, 0.25, 1.6344850249751435),
    (np.pi, -18.5, 2.9020303825291387e-08),
    (np.pi, -25.0, 4.3630262419252657e-11),
]

PROFILE_DT_VALUES = [
    (0.002, 3.0, 3.3050012398899866e-12),
    (1.3, 0.4, 0.11051636546010161),
    # straddle the series/direct switch at w = 1e-2
    (0.0199, 0.0, 1.3132121410985413e-06),
    (0.0201, 0.0, 1.3532011427662094e-06),
]

RESIDUAL_VALUES = [
    (0.5, -1.0, 0.086821104336009917),
    (np.pi, 0.0, 1.8584073464102068),
    (3.0, 2.0, 0.024623597323696385),
]


@pytest.mark.parametrize("x,t,expected", PROFILE_VALUES)
def test_profile_value_matches_reference(x, t, expected):
    assert profile_value(x, t) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("x,t,expected", PROFILE_DT_VALUES)
def test_profile_dt_matches_reference(x, t, expected):
    assert profile_dt(x, t) == pytest.approx(expected, rel=1e-13)


def test_profile_first_and_second_derivatives_match_reference():
    assert profile_dx(2.0, 0.3) == pytest.approx(0.38909889223218208, rel=1e-14)
    assert profile_dxx(2.0, 0.3) == pytest.approx(-0.37290975542668178, rel=1e-14)


@pytest.mark.parametrize("x,t,expected", RESIDUAL_VALUES)
def test_profile_residual_matches_reference(x, t, expected):
    assert profile_residual(x, t) == pytest.approx(expected, rel=1e-13)


def test_residual_at_pi_collapses_to_five_minus_pi():
    # at x = pi, t = 0: all trig factors are exact and the residual is 5 - pi
    assert profile_residual(np.pi, 0.0) == pytest.approx(5.0 - np.pi, rel=1e-15)


def test_profile_is_symmetric_about_pi():
    x = np.linspace(0.1, np.pi, 25)
    t = 0.7
    left = profile_value(x, t)
    right = profile_value(2 * np.pi - x, t)
    assert np.max(np.abs(left - right)) < 1e-15
    assert profile_value(0.0, t) == 0.0
    assert profile_value(2 * np.pi, t) == pytest.approx(0.0, abs=1e-15)


def test_profile_approaches_chord_profile_for_large_time():
    x = np.linspace(0.2, np.pi, 40)
    gap = np.abs(profile_value(x, 30.0) - 2 * np.sin(x / 2))
    assert np.max(gap) < 1e-12


def test_profile_derivatives_agree_with_finite_differences():
    xs = np.linspace(0.3, np.pi - 0.1, 9)
    ts = np.linspace(-1.5, 1.5, 7)
    h = 1e-6  # first derivatives: truncation and roundoff both ~1e-10
    h2 = 1e-4  # second derivative: roundoff scales like eps/h^2
    worst_first = 0.0
    worst_second = 0.0
    for x in xs:
        for t in ts:
            fd_x = (profile_value(x + h, t) - profile_value(x - h, t)) / (2 * h)
            fd_xx = (
                profile_value(x + h2, t)
                - 2 * profile_value(x, t)
                + profile_value(x - h2, t)
            ) / h2**2
            fd_t = (profile_value(x, t + h) - profile_value(x, t - h)) / (2 * h)
            worst_first = max(worst_first, abs(fd_x - profile_dx(x, t)))
            worst_first = max(worst_first, abs(fd_t - profile_dt(x, t)))
            worst_second = max(worst_second, abs(fd_xx - profile_dxx(x, t)))
    assert worst_first < 1e-7
    assert worst_second < 1e-6


def test_residual_is_the_barrier_operator_of_the_derivatives():
    # the residual the certificate scans, against the operator applied to
    # the derivatives that derivative_cross_check certifies; relative to
    # max(1, |operator|) as the slope mismatch is, since the residual falls
    # to 0 at x = 0 and the operator's terms there cancel to ~1e-14
    x = np.linspace(0.05, np.pi, 80)
    t = np.linspace(-5.0, 5.0, 41)[:, None]
    operator = ((profile_dx(x, t) ** 2 - 1.0) / profile_dxx(x, t)
                - profile_value(x, t) - profile_dt(x, t))
    error = np.abs(profile_residual(x, t) - operator) / np.maximum(1.0, np.abs(operator))
    assert np.max(error) < 1e-12


def test_profile_is_accurate_at_strongly_negative_t():
    # e^{-t} sin(x/2) reaches 1e17 here, where arctan is within an ulp of pi/2
    mpmath = pytest.importorskip("mpmath")
    x = np.linspace(0.05, 2.0 * np.pi - 0.05, 41)
    t = np.linspace(-40.0, -18.5, 44)
    with mpmath.workprec(200):
        reference = np.array([[float(2 * mpmath.exp(tv) * mpmath.atan(
            mpmath.exp(-tv) * mpmath.sin(mpmath.mpf(xv) / 2))) for xv in x] for tv in t])
    ulps = np.abs(profile_value(x, t[:, None]) - reference) / np.spacing(reference)
    assert np.max(ulps) <= 2.0


def test_residual_slope_factors_through_the_polynomial(rng):
    # d(residual)/dx equals cos(x/2) * A(z, alpha) / (Q^2 P^2); check the
    # packaged numerator against a finite difference of the residual itself.
    for _ in range(20):
        x = rng.uniform(0.1, np.pi - 0.1)
        t = rng.uniform(-2.0, 2.0)
        z = np.sin(x / 2)
        alpha = np.exp(-2 * t)
        q = 1 + alpha * z**2
        p = 1 + 2 * alpha - alpha * z**2
        analytic = np.cos(x / 2) * residual_dx_numerator(z, alpha) / (q**2 * p**2)
        h = 1e-5
        fd = (profile_residual(x + h, t) - profile_residual(x - h, t)) / (2 * h)
        assert analytic == pytest.approx(fd, rel=2e-8, abs=2e-8)


def test_numerator_takes_exact_rational_values():
    # both points have dyadic coordinates, so the Horner evaluation is exact
    assert residual_dx_numerator(1.0, 1.0) == 64.0
    assert residual_dx_numerator(0.5, 2.0) == 43.875


def test_numerator_is_nonnegative_on_the_unit_cell():
    z = np.linspace(0.0, 1.0, 501)
    alpha = 10.0 ** np.linspace(-3.0, 3.0, 121)
    worst, (z_at, alpha_at) = numerator_grid_min(z, alpha)
    assert worst >= 0.0
    assert z_at == 0.0  # the polynomial vanishes exactly on the z = 0 edge
    assert alpha_at in alpha
    assert residual_dx_numerator(0.0, 1.0) == 0.0


def test_certificate_scan_reports_clean_grid():
    x = np.linspace(0.05, np.pi, 64)
    t = np.linspace(-3.0, 3.0, 25)
    cert = residual_certificate_scan(x, t)
    assert cert.min_residual >= -1e-10
    assert cert.min_slope_fd >= -1e-8
    assert cert.min_slope_closed >= -1e-10
    assert cert.max_slope_mismatch < 1e-6
    x_at, t_at = cert.min_residual_at
    assert 0.05 <= x_at <= np.pi
    assert -3.0 <= t_at <= 3.0


def residual_as_first_written(x, t):
    z = np.sin(0.5 * x)
    with np.errstate(over="ignore", invalid="ignore"):
        alpha = np.exp(-2.0 * t)
        z2 = z * z
        p = 1.0 + 2.0 * alpha - alpha * z2
        q = 1.0 + alpha * z2
        quotient = 2.0 * z * (1.0 + 2.0 * alpha + alpha * alpha * z2) / p
        return quotient - 2.0 * profile_value(x, t) + 2.0 * z / q


def residual_dx_as_first_written(x, t):
    z = np.sin(0.5 * x)
    c = np.cos(0.5 * x)
    with np.errstate(over="ignore", invalid="ignore"):
        alpha = np.exp(-2.0 * t)
        z2 = z * z
        a2 = alpha * alpha
        q = 1.0 + alpha * z2
        p = 1.0 + 2.0 * alpha - alpha * z2
        return (
            -c / q
            - 2.0 * alpha * z2 * c / (q * q)
            + c * (1.0 + 2.0 * alpha + 3.0 * a2 * z2) / p
            + 2.0 * alpha * z2 * c * (1.0 + 2.0 * alpha + a2 * z2) / (p * p)
        )


def residual_slope(x, t):
    # the closed-form x-slope of profile_residual, as the certificate scan
    # evaluates it
    xa = np.asarray(x, dtype=float)
    z = np.sin(0.5 * xa)
    operands = (z * z, np.cos(0.5 * xa), comparison._alpha(np.asarray(t, dtype=float)))
    return comparison._residual_dx_of_z(*operands, comparison._work_arrays(3, *operands))


def assert_slope_agrees(slope, first_written):
    # the slope is cos(x/2) A / (q p)^2, the four-term sum in another order
    # of operations: 1.3e-15 apart at worst on these grids
    assert np.all(np.abs(slope - first_written)
                  <= 1e-14 * np.maximum(1.0, np.abs(first_written)))


def test_residual_and_slope_keep_their_first_written_formulas():
    x = np.linspace(1e-4, np.pi, 301)
    for t in [-30.0, -5.0, -0.3, 0.0, 1.7, 12.0, 40.0]:
        assert np.array_equal(profile_residual(x, t), residual_as_first_written(x, t))
        assert_slope_agrees(residual_slope(x, t), residual_dx_as_first_written(x, t))
        for xv in (x[0], 1.0, np.pi):
            assert profile_residual(xv, t) == residual_as_first_written(xv, t)
            assert_slope_agrees(residual_slope(xv, t), residual_dx_as_first_written(xv, t))
    # broadcasting an x row against a t column
    ts = np.array([[-2.0], [0.5], [3.0]])
    assert np.array_equal(profile_residual(x, ts), residual_as_first_written(x, ts))
    assert_slope_agrees(residual_slope(x, ts), residual_dx_as_first_written(x, ts))


def loop_certificate_scan(x, t):
    # the per-t scan as first written: five profile evaluations per t, and
    # a row whose argmin is NaN never replaces the running minimum
    h = comparison.FD_STEP
    xs = x[(x - h > 0.0) & (x + h <= np.pi + 1e-12)]
    res_min, fd_min, closed_min = ([np.inf, (np.nan, np.nan)] for _ in range(3))
    mismatch = 0.0

    def fold(best, values, grid, tv):
        i = int(np.argmin(values))
        if values[i] < best[0]:
            best[:] = float(values[i]), (float(grid[i]), float(tv))

    for tv in t:
        fold(res_min, profile_residual(x, tv), x, tv)
        fold(closed_min, residual_slope(x, tv), x, tv)
        if xs.size:
            fd = (profile_residual(xs + h, tv) - profile_residual(xs - h, tv)) / (2.0 * h)
            fold(fd_min, fd, xs, tv)
            closed = residual_slope(xs, tv)
            mismatch = max(mismatch, float(np.max(
                np.abs(fd - closed) / np.maximum(np.abs(closed), 1.0))))
    return comparison.ProfileCertificate(*res_min, *fd_min, *closed_min, mismatch)


SCAN_GRIDS = {
    # 23 t-rows, so blocks of 7, 10 and 64 rows end in a partial block; x
    # holds pi exactly and a point closer to 0 than FD_STEP, so the stencil
    # drops both ends
    "ragged_pi": (np.concatenate([[4e-6], np.linspace(0.05, np.pi, 96)]),
                  np.linspace(-3.0, 3.0, 23), 1e-5),
    # FD_STEP wider than the x range: the stencil is empty
    "empty_stencil": (np.linspace(0.1, 3.0, 50), np.linspace(-1.0, 1.0, 9), 10.0),
    # e^{-t} sin(x/2) passes 1e8, where arctan is within an ulp of pi/2
    "large_arg": (np.arange(0.5, 1.0 + 1e-12, 0.01), np.arange(-30.0, 30.0 + 1e-9, 0.7), 1e-5),
    # exact ties: far out in t the residual rounds to the same few values
    "ties": (np.linspace(0.2, np.pi, 60), np.linspace(35.0, 45.0, 11), 1e-5),
    # more x points than a block holds: one t-row per block
    "one_row": (np.linspace(1e-3, np.pi, comparison.BLOCK_PAIRS + 7),
                np.array([-1.0, 0.0, 2.5]), 1e-5),
}


@pytest.mark.parametrize("rows", [None, 1, 7, 10, 64])
@pytest.mark.parametrize("name", sorted(SCAN_GRIDS))
def test_blocked_certificate_scan_is_bit_identical_to_the_per_t_loop(name, rows, monkeypatch):
    x, t, h = SCAN_GRIDS[name]
    monkeypatch.setattr(comparison, "FD_STEP", h)
    if rows is not None:
        monkeypatch.setattr(comparison, "BLOCK_PAIRS", rows * x.size)
    assert residual_certificate_scan(x, t) == loop_certificate_scan(x, t)


@pytest.mark.parametrize("rows", [None, 1])
def test_certificate_scan_reports_the_first_nan_like_argmin(rows, monkeypatch):
    # at t = -400, alpha = e^800 overflows and every value is NaN; the loop
    # scan skipped such rows and certified the finite t = 0 row
    x = np.linspace(0.05, np.pi, 64)
    if rows is not None:
        monkeypatch.setattr(comparison, "BLOCK_PAIRS", rows * x.size)
    t = np.array([0.0, -400.0, 1.0])
    cert = residual_certificate_scan(x, t)
    for value, at in [(cert.min_residual, cert.min_residual_at),
                      (cert.min_slope_fd, cert.min_slope_fd_at),
                      (cert.min_slope_closed, cert.min_slope_closed_at)]:
        assert np.isnan(value)
        assert at == (0.05, -400.0)
    assert np.isnan(cert.max_slope_mismatch)
    assert not np.isnan(loop_certificate_scan(x, t).min_residual)


@pytest.mark.parametrize("t", [-3.0, 0.0, 3.0])
def test_residual_vanishes_at_the_left_endpoint(t):
    assert abs(profile_residual(1e-6, t)) < 1e-5


def test_profile_domain_errors():
    with pytest.raises(ParameterError):
        profile_value(-0.1, 0.0)
    with pytest.raises(ParameterError):
        profile_value(2 * np.pi + 0.1, 0.0)
    with pytest.raises(ParameterError):
        profile_residual(0.0, 0.0)
    with pytest.raises(ParameterError):
        residual_certificate_scan(np.array([0.5, 3.5]), np.array([0.0]))
    with pytest.raises(ParameterError):
        residual_certificate_scan(np.array([]), np.array([0.0]))
    with pytest.raises(ParameterError):
        residual_dx_numerator(0.5, 0.0)


def normalized_circle(n=256):
    return renormalize(make_circle(1.0, n))


def normalized_ellipse(n=256):
    return renormalize(make_ellipse(2.0, 1.0, n))


def workload_perturbed_circle(n, seed=7):
    # the perturbed circle of the benchmark workloads, as `icflow tbar` builds it
    curve = make_perturbed_circle(1.0, n, [0.03, 0.01], [3, 5], seed=seed)
    return renormalize(resample_uniform(curve, n))


def test_two_point_gap_is_nonnegative_on_the_circle():
    report = two_point_gap_scan(normalized_circle(), time=3.0, offset=-50.0)
    assert report.min_gap > -1e-9
    i, j = report.argmin_pair
    assert i != j


def test_two_point_scan_requires_normalized_length():
    with pytest.raises(ParameterError):
        two_point_gap_scan(make_circle(1.0, 128), time=0.0, offset=0.0)


def test_two_point_gap_goes_negative_for_premature_offset():
    report = two_point_gap_scan(normalized_ellipse(), time=0.0, offset=0.2)
    assert report.min_gap < -0.1


def test_admissible_offset_saturates_at_lower_bracket_on_circle():
    assert admissible_offset(normalized_circle()) == -50.0


def test_admissible_offset_on_ellipse_matches_curvature_floor():
    for n in (257, 256):  # an odd and an even mesh
        v = normalized_ellipse(n)
        got = admissible_offset(v)
        kappa_max = np.max(compute_metrics(v).curvature)
        floor = 0.5 * np.log((kappa_max**2 - 1.0) / 2.0)
        assert got == pytest.approx(floor, abs=1e-12)
    # frozen value for this mesh; the fine-mesh limit is ~0.723772
    assert got == pytest.approx(0.7228398699713836, abs=1e-12)
    # the returned offset actually certifies a nonnegative gap at time 0
    assert two_point_gap_scan(v, time=0.0, offset=got).min_gap > -1e-9


def test_admissible_offset_reports_infeasible_brackets(monkeypatch):
    v = normalized_ellipse()
    for hi in (-5.0, 0.5, 0.72):
        monkeypatch.setattr(comparison, "OFFSET_BRACKET", (-50.0, hi))
        with pytest.raises(NoAdmissibleOffsetError):
            admissible_offset(v)


def triu_pairs(v):
    # the all-pairs geometry over np.triu_indices order, as first written
    edge_len = np.hypot(*(np.roll(v, -1, axis=0) - v).T)
    s = np.concatenate([[0.0], np.cumsum(edge_len[:-1])])
    total = np.sum(edge_len)
    i, j = np.triu_indices(v.shape[0], k=1)
    forward = s[j] - s[i]
    arc = np.minimum(np.minimum(forward, total - forward), 2.0 * np.pi)
    return i, j, np.hypot(*(v[j] - v[i]).T), arc


def triu_scan(v, time, offset):
    i, j, chord, arc = triu_pairs(v)
    gaps = chord - profile_value(arc, time - offset)
    k = int(np.argmin(gaps))
    return float(gaps[k]), (int(i[k]), int(j[k]))


def triu_bisection(v, lo=-50.0, hi=50.0, tol=1e-6):
    _, _, chord, arc = triu_pairs(v)

    def feasible(offset):
        return bool(np.all(chord >= profile_value(arc, -offset)))

    if feasible(lo):
        return lo
    a, b = lo, hi
    while b - a > tol:
        mid = 0.5 * (a + b)
        a, b = (a, mid) if feasible(mid) else (mid, b)
    return b


@functools.lru_cache(maxsize=None)
def flow_snapshots(shape):
    # three snapshots of a short normalized run, as the run monitors see them
    start = {
        "perturbed": make_perturbed_circle(1.0, 256, [0.03, 0.01], [3, 5], seed=11),
        "ellipse": make_ellipse(2.0, 1.0, 256),
    }[shape]
    shots = []
    evolve(initial_state(start, "normalized"), StepControl(dt=1e-4), 0.02,
           observers=[lambda t, v, m: shots.append(renormalize(v))],
           snapshot_interval=0.01)
    return tuple(shots)


ORACLE_CURVES = {
    "circle256": lambda: normalized_circle(256),
    "ellipse256": lambda: normalized_ellipse(256),
    "ellipse257": lambda: normalized_ellipse(257),
    "perturbed300": lambda: renormalize(
        make_perturbed_circle(1.0, 300, [0.05, 0.02], [3, 5], seed=3)),
    "ellipse16": lambda: normalized_ellipse(16),
    # the bisection's feasible tests evaluate the most diagonals exactly here
    "perturbed512": lambda: workload_perturbed_circle(512),
    **{f"{shape}_snapshot{i}": lambda shape=shape, i=i: flow_snapshots(shape)[i]
       for shape in ("perturbed", "ellipse") for i in range(3)},
}

# (time, offset) pairs: minima of both signs; t = time - offset = -750, where
# e^t underflows and every gap is the chord; 709.5, where 2 e^t overflows
# and every gap is -inf; 742, where e^{-t} z underflows to 0 for the short
# arcs only (NaN there, -inf elsewhere); and 800, where every gap is NaN.
SCAN_TIMES = [(0.0, 0.2), (3.0, -50.0), (0.5, 0.7), (0.0, 25.0), (0.0, 50.0),
              (0.0, 750.0), (709.5, 0.0), (742.0, 0.0), (800.0, 0.0)]


def assert_scan_matches_triu(v, time, offset):
    report = two_point_gap_scan(v, time, offset)
    gap, pair = triu_scan(v, time, offset)
    # repr tells NaN, inf and every finite float apart
    assert (repr(report.min_gap), report.argmin_pair) == (repr(gap), pair)


@pytest.mark.parametrize("name", sorted(ORACLE_CURVES))
def test_blocked_kernel_is_bit_identical_to_the_triu_scan(name, monkeypatch):
    v = ORACLE_CURVES[name]()
    for time, offset in SCAN_TIMES:
        assert_scan_matches_triu(v, time, offset)
    # without the curvature floor the offset is the pair bisection's own result
    monkeypatch.setattr(comparison, "_FLOOR_ACTIVATION", np.inf)
    assert admissible_offset(v) == triu_bisection(v)


def diagonal_gap_minima(v, time, offset):
    # the smallest triu gap on each cyclic diagonal k = 1..n//2, NaN if any is
    i, j, chord, arc = triu_pairs(v)
    gaps = chord - profile_value(arc, time - offset)
    n = v.shape[0]
    lows = np.full(n // 2, np.inf)
    with np.errstate(invalid="ignore"):
        np.minimum.at(lows, np.minimum(j - i, n - (j - i)) - 1, gaps)
    return lows


def diagonals(v):
    return comparison._diagonals(*_validated_edges(v))


def tiny_edge_curve(at):
    # a 1e-160 edge from vertex `at`: its squared length is subnormal and
    # rounds up; away from vertex 0 the arc-length sum absorbs it entirely
    v = np.insert(make_circle(1.0, 64), 1, [1.0, 1e-160], axis=0)
    return renormalize(np.roll(v, at, axis=0))


BOUND_CURVES = {
    "ellipse256": lambda: normalized_ellipse(256),
    "perturbed300": ORACLE_CURVES["perturbed300"],
    "perturbed_snapshot2": ORACLE_CURVES["perturbed_snapshot2"],
    # the length check admits 2 pi (1 + 1e-6): arcs pass pi, half arcs pi/2
    "ellipse_long": lambda: normalized_ellipse(256) * (1.0 + 0.9e-6),
    "tiny_edge_first": lambda: tiny_edge_curve(0),
    "tiny_edge_inside": lambda: tiny_edge_curve(5),
}


@pytest.mark.parametrize("name", sorted(BOUND_CURVES))
def test_gap_bounds_lie_at_or_below_every_gap_of_their_diagonal(name):
    v = BOUND_CURVES[name]()
    extremes = comparison._diagonal_extremes(diagonals(v))
    for time, offset in SCAN_TIMES:
        bounds = comparison._gap_lower_bounds(extremes, time - offset)
        lows = diagonal_gap_minima(v, time, offset)
        # a diagonal holding a NaN gap must never be skipped
        nan_low = np.isnan(lows)
        assert np.all(np.isnan(bounds[nan_low]) | (bounds[nan_low] == -np.inf))
        finite = ~nan_low & ~np.isnan(bounds)
        assert np.all(bounds[finite] <= lows[finite])
        assert_scan_matches_triu(v, time, offset)


def test_long_curve_has_arcs_past_pi():
    _, _, _, arc = triu_pairs(BOUND_CURVES["ellipse_long"]())
    assert arc.max() > np.pi


def test_tiny_edges_exercise_the_subnormal_and_zero_arc_guards():
    first = diagonals(BOUND_CURVES["tiny_edge_first"]())
    x, y, _ = first.base
    # the edge's squared length is subnormal and rounded up past its square
    c2 = (x[1] - x[0]) ** 2 + (y[1] - y[0]) ** 2
    assert 0.0 < c2 < 2.0 ** -1022
    assert np.sqrt(c2) * (1.0 - 2.0 ** -48) > np.hypot(x[1] - x[0], y[1] - y[0])
    bounds = comparison._gap_lower_bounds(comparison._diagonal_extremes(first), 1.0)
    assert np.all(np.isfinite(bounds))
    # absorbed into the arc-length sum, the edge leaves an arc of 0: no pruning
    inside = diagonals(BOUND_CURVES["tiny_edge_inside"]())
    assert np.min(np.diff(inside.base[2])) == 0.0
    bounds = comparison._gap_lower_bounds(comparison._diagonal_extremes(inside), 1.0)
    assert np.all(bounds == -np.inf)


def test_z_ceiling_covers_every_shorter_arc():
    arcs = np.array([1e-3, 1.0, np.pi - 1e-3, np.pi, np.pi * (1.0 + 1e-6), 4.0, 7.0])
    for arc, ceiling in zip(arcs, comparison._z_ceiling(arcs)):
        half = 0.5 * np.minimum(np.linspace(0.0, arc, 10001), 2.0 * np.pi)
        if arc >= np.pi:
            half = np.append(half, 0.5 * np.pi)
        assert ceiling >= np.max(np.sin(half))


def one_long_edge_circle(n=64, ratio=10.0):
    # n - 1 equal steps of angle and one `ratio` times as long
    steps = np.r_[np.ones(n - 1), ratio] * (2.0 * np.pi / (n - 1 + ratio))
    angles = np.concatenate([[0.0], np.cumsum(steps[:-1])])
    return renormalize(np.c_[np.cos(angles), np.sin(angles)])


ARC_CEILING_CURVES = {
    **BOUND_CURVES,
    # equal parameter steps, not resampled: edges vary by about 50%
    "perturbed_raw": lambda: renormalize(
        make_perturbed_circle(1.0, 301, [0.1, 0.05], [2, 5], seed=4)),
    "one_long_edge": one_long_edge_circle,
    "uniform_circle": lambda: normalized_circle(1024),
}


@pytest.mark.parametrize("name", sorted(ARC_CEILING_CURVES))
def test_arc_ceiling_lies_at_or_above_every_arc_of_its_diagonal(name):
    v = ARC_CEILING_CURVES[name]()
    diag = diagonals(v)
    ceiling = comparison._arc_ceiling(diag)
    # the triu scan's arcs are the floats of _diagonal_gaps (its cap at 2 pi
    # never acts on a shorter arc)
    i, j, _, arc = triu_pairs(v)
    k = np.minimum(j - i, diag.n - (j - i))
    assert np.all(ceiling[k - 1] >= arc)
    # it is k max_edge up to the rounding slack
    assert ceiling[0] <= diag.max_edge * (1.0 + 1e-8)


def count_exact_diagonals(monkeypatch):
    evaluated = []
    exact = comparison._diagonal_gaps

    def counting(diag, ks, t, buffers):
        evaluated.extend(ks.tolist())
        return exact(diag, ks, t, buffers)

    monkeypatch.setattr(comparison, "_diagonal_gaps", counting)
    return evaluated


def test_bounded_scan_skips_most_diagonals_of_the_ellipse(monkeypatch):
    v = normalized_ellipse(512)
    offset = admissible_offset(v)
    evaluated = count_exact_diagonals(monkeypatch)
    for time, off in [(0.0, offset), (1.0, offset), (3.0, -50.0), (0.0, 0.2), (0.5, 0.7)]:
        evaluated.clear()
        assert_scan_matches_triu(v, time, off)
        assert len(evaluated) <= 0.1 * 256


def test_bounded_scan_skips_most_diagonals_of_the_workload_circle(monkeypatch):
    # the benchmark's perturbed circle, resampled as a run's snapshots are
    v = workload_perturbed_circle(1024)
    offset = admissible_offset(v)
    evaluated = count_exact_diagonals(monkeypatch)
    for time in (0.0, 0.05, 1.0):
        evaluated.clear()
        assert_scan_matches_triu(v, time, offset)
        assert len(evaluated) <= 0.1 * 512


def test_unprunable_scan_evaluates_each_diagonal_once_in_order(monkeypatch):
    # the worst case: once 2 e^t overflows (time - offset > 709.08) every gap
    # is -inf or NaN, no bound can prune, and the bound pass is skipped, so
    # the scan evaluates all diagonals in blocks as the exhaustive scan did
    v = normalized_ellipse(512)
    evaluated = count_exact_diagonals(monkeypatch)
    for time in (709.5, 742.0, 800.0):
        evaluated.clear()
        assert_scan_matches_triu(v, time, 0.0)
        assert evaluated == list(range(1, 257))


def test_a_nan_minimum_never_stops_the_scan():
    # vertices crowd just before vertex 0, so at t = 744, where e^{-t} is a
    # few subnormal steps, e^{-t} z underflows to 0 (a NaN gap) on the
    # short arcs only; the first NaN in triu order, (0, 12), lies on
    # diagonal 4, after diagonal 1's NaN pairs have been found
    degrees = np.array([0, 40, 80, 120, 160, 200, 240, 280, 300, 310, 320, 330,
                        335, 340, 345, 350.0])
    v = renormalize(np.c_[np.cos(np.radians(degrees)), np.sin(np.radians(degrees))])
    assert triu_scan(v, 744.0, 0.0)[1] == (0, 12)
    assert_scan_matches_triu(v, 744.0, 0.0)


def test_circle_ties_resolve_to_the_first_pair_in_triu_order():
    # far below the barrier the gap is the chord, and two edges of the
    # circle mesh share the shortest one exactly
    v = normalized_circle(256)
    _, _, chord, arc = triu_pairs(v)
    gaps = chord - profile_value(arc, -50.0)
    assert np.count_nonzero(gaps == gaps.min()) == 2
    assert two_point_gap_scan(v, 0.0, 50.0).argmin_pair == triu_scan(v, 0.0, 50.0)[1]


def test_admissible_offset_allocates_no_pair_arrays():
    # a cache of every pair's chord and sin(arc/2) peaked at 33 MiB here
    v = workload_perturbed_circle(2048)
    tracemalloc.start()
    try:
        admissible_offset(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_admissible_offset_rejects_unnormalized_and_nonconvex_curves():
    # the two-point scan's length check and the infeasible brackets are
    # pinned above; these are admissible_offset's own rejections
    with pytest.raises(ParameterError, match="not 2\\*pi"):
        admissible_offset(make_ellipse(2.0, 1.0, 128))
    star = renormalize(make_perturbed_circle(1.0, 64, [0.5], [7], seed=0))
    with pytest.raises(ParameterError, match="convex"):
        admissible_offset(star)


def test_overflowing_profile_reports_the_first_nan_pair_like_argmin():
    # at time - offset > 709, e^t overflows and every gap is NaN; np.argmin
    # over triu order reports the first NaN, so the scan does too
    report = two_point_gap_scan(normalized_ellipse(), time=800.0, offset=0.0)
    assert np.isnan(report.min_gap)
    assert report.argmin_pair == (0, 1)


def loop_derivative_cross_check():
    # the per-t loop that derivative_cross_check replaced, as the reference
    step = comparison.CROSS_CHECK_STEP
    x = np.linspace(0.05, 2.0 * np.pi - 0.05, 61)
    worst, where = 0.0, ("dx", 0.0, 0.0)
    for t in np.linspace(-2.0, 2.0, 17):
        plus, minus = profile_value(x + step, t), profile_value(x - step, t)
        candidates = (
            ("dx", (plus - minus) / (2.0 * step), comparison.profile_dx(x, t)),
            ("dxx", (plus - 2.0 * profile_value(x, t) + minus) / step ** 2,
             comparison.profile_dxx(x, t)),
            ("dt", (profile_value(x, t + step) - profile_value(x, t - step)) / (2.0 * step),
             comparison.profile_dt(x, t)),
        )
        for name, approx, exact in candidates:
            gaps = np.abs(approx - exact)
            k = int(np.argmax(gaps))
            if not (gaps[k] <= worst or np.isnan(worst)):
                worst, where = float(gaps[k]), (name, float(x[k]), float(t))
    return worst, where


def _closed_form_patched(name, value, column, t_min):
    # the closed form `name` with `value` at x[column] for every t >= t_min
    closed_form = getattr(comparison, name)

    def patched(x, t):
        out = np.array(closed_form(x, t))
        hit = np.broadcast_to(np.asarray(t) >= t_min, out.shape)[..., column]
        out[..., column] = np.where(hit, value, out[..., column])
        return out
    return name, patched


@pytest.mark.parametrize("patches", [
    [],
    [_closed_form_patched("profile_dxx", np.nan, 5, 0.5)],
    # inf gaps tie; the first in (t, name, x) order wins, here dt's at t = 0
    [_closed_form_patched("profile_dt", -np.inf, 7, 0.0),
     _closed_form_patched("profile_dx", np.inf, 3, 1.0)],
], ids=["plain", "nan", "inf_ties"])
def test_derivative_cross_check_matches_the_per_t_loop(patches, monkeypatch):
    for name, patched in patches:
        monkeypatch.setattr(comparison, name, patched)
    assert repr(comparison.derivative_cross_check()) == repr(loop_derivative_cross_check())


def test_derivative_cross_check_reports_a_nan_gap(monkeypatch):
    # np.argmax finds a NaN gap, and the comparison with the worst gap so far
    # once dropped it; the closed form receives every t as a column
    closed_form = comparison.profile_dxx

    def nan_at_the_sixth_x(x, t):
        out = np.array(closed_form(x, t))
        out[..., 5] = np.nan
        return out

    monkeypatch.setattr(comparison, "profile_dxx", nan_at_the_sixth_x)
    worst, where = comparison.derivative_cross_check()
    assert np.isnan(worst)
    assert where == ("dxx", np.linspace(0.05, 2.0 * np.pi - 0.05, 61)[5], -2.0)
