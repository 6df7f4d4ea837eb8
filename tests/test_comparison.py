"""Closed-form profile, its differential operator, and two-point diagnostics.

The frozen reference values below were generated with mpmath at 40 decimal
digits, evaluating the defining expressions directly (no reuse of the package
formulas), then rounded to double precision.
"""

import functools
import os
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icflow import comparison, flow
from icflow.cli import _inclusive_grid
from icflow.comparison import (
    admissible_offset,
    numerator_grid_min,
    profile_residual,
    profile_value,
    residual_certificate_scan,
    residual_dx_numerator,
    two_point_gap_scan,
)
from icflow.curves import (
    _lengths,
    compute_metrics,
    edge_lengths,
    make_circle,
    make_ellipse,
    make_perturbed_circle,
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

RESIDUAL_VALUES = [
    (0.5, -1.0, 0.086821104336009917),
    (np.pi, 0.0, 1.8584073464102068),
    (3.0, 2.0, 0.024623597323696385),
]


@pytest.mark.parametrize("x,t,expected", PROFILE_VALUES)
def test_profile_value_matches_reference(x, t, expected):
    assert profile_value(x, t) == pytest.approx(expected, rel=1e-14)


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


def one_shot_numerator_min(z, alpha):
    """numerator_grid_min's answer from the whole grid at once."""
    grid = residual_dx_numerator(z[None, :], alpha[:, None])
    ai, zi = divmod(int(np.argmin(grid)), z.size)
    return float(grid[ai, zi]), (float(z[zi]), float(alpha[ai]))


# verify-profile's A-polynomial grid: 601 alpha-rows of 1001 z values
DEFAULT_NUMERATOR_GRID = (np.linspace(0.0, 1.0, 1001), 10.0 ** _inclusive_grid(-3.0, 3.0, 0.01))

NUMERATOR_GRIDS = {
    # ties at z = 0 on every row, reported on the first, alpha = 0.001
    "default": (*DEFAULT_NUMERATOR_GRID, None),
    # 97 rows, which blocks of 5 or 7 rows do not divide
    "ragged_5": (np.linspace(0.0, 1.0, 53), np.geomspace(1e-3, 1e3, 97), 5),
    "ragged_7": (np.linspace(0.1, 1.0, 53), np.geomspace(1e-3, 1e3, 97), 7),
    # alpha^5 overflows from about 1e61.6 on, so the first NaN sits in a
    # later block than the finite minimum
    "overflow": (np.linspace(0.0, 1.0, 101), np.geomspace(1e-3, 1e80, 211), 16),
}


@pytest.mark.parametrize("name", sorted(NUMERATOR_GRIDS))
def test_blocked_numerator_grid_min_is_the_one_shot_minimum(name, monkeypatch):
    z, alpha, rows = NUMERATOR_GRIDS[name]
    if rows is not None:
        monkeypatch.setattr(comparison, "BLOCK_PAIRS", rows * z.size)
    with np.errstate(over="ignore", invalid="ignore"):
        blocked, one_shot = numerator_grid_min(z, alpha), one_shot_numerator_min(z, alpha)
    assert repr(blocked) == repr(one_shot)
    if name == "default":
        assert blocked == (0.0, (0.0, 0.001))
    if name == "overflow":
        assert np.isnan(blocked[0]) and blocked[1][1] > 1e61


def test_numerator_grid_min_allocates_one_block():
    # the whole default grid at once took temporaries of 4.8 MB each
    tracemalloc.start()
    try:
        numerator_grid_min(*DEFAULT_NUMERATOR_GRID)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("z,alpha,message", [
    ([], [1.0], "non-empty grid"), ([0.5], [], "non-empty grid"),
    ([1.5], [1.0], "z must lie"), ([0.5], [0.0], "alpha must be positive")])
def test_numerator_grid_min_checks_its_grid(z, alpha, message):
    with pytest.raises(ParameterError, match=message):
        numerator_grid_min(np.array(z), np.array(alpha))


class Poly:
    """An exact polynomial in u = z^2 and alpha: {(u degree, alpha degree):
    Fraction}.  Floats enter as their exact rationals, so numpy object arrays
    of Poly run the package's float code as exact algebra."""

    def __init__(self, terms=None):
        self.terms = {k: c for k, c in (terms or {}).items() if c != 0}

    @staticmethod
    def of(other):
        return other if isinstance(other, Poly) else Poly({(0, 0): Fraction(other)})

    def __add__(self, other):
        terms = dict(self.terms)
        for k, c in Poly.of(other).terms.items():
            terms[k] = terms.get(k, 0) + c
        return Poly(terms)

    def __mul__(self, other):
        terms = {}
        for (i, j), c in self.terms.items():
            for (k, m), d in Poly.of(other).terms.items():
                terms[i + k, j + m] = terms.get((i + k, j + m), 0) + c * d
        return Poly(terms)

    __radd__, __rmul__ = __add__, __mul__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + -Poly.of(other)

    def __rsub__(self, other):
        return Poly.of(other) - self

    def __pow__(self, k):
        return functools.reduce(Poly.__mul__, [self] * k, Poly.of(1))

    def __eq__(self, other):
        return self.terms == Poly.of(other).terms

    def in_u(self, i):
        """The coefficient of u^i, a polynomial in alpha: {alpha degree: Fraction}."""
        return {j: c for (k, j), c in self.terms.items() if k == i}


def test_profile_certificate_has_an_exact_proof():
    # Finding 5: residual_dx_numerator is A = alpha u f(u, alpha) with u = z^2,
    # f - g = alpha^4 u^2 (1 - u) >= 0 on [0, 1], and g >= 2 for alpha >= 0
    # because each bound of its coefficients below is a polynomial in alpha
    # with nonnegative coefficients; so A >= 2 alpha u > 0 for u in (0, 1]
    u, a = Poly({(1, 0): Fraction(1)}), Poly({(0, 1): Fraction(1)})
    out = np.empty(1, dtype=object)
    comparison._numerator_of_z2(np.array([u], dtype=object), a, out)
    f = ((2 + 5 * a + 2 * a**2) + a * (8 + 25 * a + 16 * a**2) * u
         + a**2 * (6 * a**2 + 3 * a - 2) * u**2 - a**4 * u**3)
    g = ((2 + 5 * a + 2 * a**2) + a * (8 + 25 * a + 16 * a**2) * u
         + a**2 * (a + 1) * (5 * a - 2) * u**2)
    assert out[0] == a * u * f  # the Horner constants the code evaluates
    assert f - g == a**4 * u**2 * (1 - u)
    assert set(k for k, _ in g.terms) == {0, 1, 2}
    # u^0: g0 - 2 >= 0; u^2: g2 >= -2 alpha^2, so with u^2 <= u,
    # g >= g0 + (g1 - 2 alpha^2) u, whose u coefficient is alpha (8 + 23 alpha + 16 alpha^2)
    for i, bound in ((0, -2), (1, -2 * a**2), (2, 2 * a**2)):
        coefficients = (g + bound * u**i).in_u(i)
        assert all(c >= 0 for c in coefficients.values()), i
    assert (g - 2 * a**2 * u).in_u(1) == (a * (8 + 23 * a + 16 * a**2)).in_u(0)


def test_residual_is_the_barrier_operator_symbolically():
    # the formula of _residual_of_z, which profile_residual evaluates float
    # for float (test_residual_and_slope_keep_their_first_written_formulas),
    # is (f_x^2 - 1)/f_xx - f - f_t of the profile f: with z = sin(x/2),
    # c = cos(x/2) and w = e^{-t} the arctan terms cancel, and the numerator
    # of the difference vanishes modulo c^2 + z^2 - 1
    import sympy

    x, t = sympy.symbols("x t", real=True)
    f = 2 * sympy.exp(t) * sympy.atan(sympy.exp(-t) * sympy.sin(x / 2))
    operator = (sympy.diff(f, x) ** 2 - 1) / sympy.diff(f, x, 2) - f - sympy.diff(f, t)
    z, c, w = sympy.symbols("z c w", positive=True)
    alpha = w**2
    p, q = 1 + 2 * alpha - alpha * z**2, 1 + alpha * z**2
    formula = 2 * z * (1 + 2 * alpha + alpha**2 * z**2) / p - 2 * f + 2 * z / q
    difference = (operator - formula).subs(
        {sympy.sin(x / 2): z, sympy.cos(x / 2): c, sympy.exp(-t): w, sympy.exp(t): 1 / w})
    assert difference.free_symbols == {z, c, w} and not difference.has(sympy.atan)
    numerator, _ = sympy.fraction(sympy.together(difference))
    assert sympy.rem(sympy.expand(numerator), c**2 + z**2 - 1, c) == 0


# (x, t) points from the left endpoint to pi, where the residual's terms
# range from e^{-t} large (t = -12) to nearly cancelling (t = 20)
OPERATOR_POINTS = [(1e-3, 0.0), (0.05, -5.0), (0.5, -1.0), (1.0, 0.0), (2.0, 0.3),
                   (3.0, 2.0), (np.pi, -3.0), (1.5, 8.0), (0.3, -12.0), (2.5, 20.0)]


def barrier_operator_at_50_digits(x, t):
    # (f_x^2 - 1)/f_xx - f - f_t of the profile as mpmath differentiates
    # it, and the operator's x-derivative, with no package formula reused
    import mpmath

    with mpmath.workdps(50):
        def f(xv, tv):
            return 2 * mpmath.exp(tv) * mpmath.atan(mpmath.exp(-tv) * mpmath.sin(xv / 2))

        def operator(xv):
            fx = mpmath.diff(lambda s: f(s, t), xv)
            fxx = mpmath.diff(lambda s: f(s, t), xv, 2)
            ft = mpmath.diff(lambda s: f(xv, s), t)
            return (fx**2 - 1) / fxx - f(xv, t) - ft

        x, t = mpmath.mpf(x), mpmath.mpf(t)
        return float(operator(x)), float(mpmath.diff(operator, x))


def assert_within_terms(value, reference):
    # the residual cancels terms of size max(1, |residual|) to about an ulp
    assert abs(value - reference) <= 1e-14 * max(1.0, abs(reference))


@pytest.mark.parametrize("x,t", OPERATOR_POINTS)
def test_residual_is_the_barrier_operator_at_50_digits(x, t):
    assert_within_terms(float(profile_residual(x, t)), barrier_operator_at_50_digits(x, t)[0])


@pytest.mark.parametrize("x,t", OPERATOR_POINTS)
def test_closed_form_slope_is_the_operators_x_derivative_at_50_digits(x, t):
    assert_within_terms(float(residual_slope(x, t)), barrier_operator_at_50_digits(x, t)[1])


def test_residual_slope_identity_holds_symbolically():
    # d(residual)/dx = cos(x/2) A / (q p)^2, with dz/dx = cos(x/2) / 2 and
    # d/dz of 4 e^t arctan(e^{-t} z) = 4 / q: an identity of rational functions
    import sympy

    z, w = sympy.symbols("z w", positive=True)  # w = e^{-t}
    alpha = w**2
    p, q = 1 + 2 * alpha - alpha * z**2, 1 + alpha * z**2
    residual = 2 * z * (1 + 2 * alpha + alpha**2 * z**2) / p - 4 / w * sympy.atan(w * z) + 2 * z / q
    out = np.empty(1, dtype=object)
    comparison._numerator_of_z2(np.array([z**2], dtype=object), alpha, out)
    assert sympy.cancel(sympy.diff(residual, z) / 2 - out[0] / (q * p) ** 2) == 0


def test_certificate_scan_reports_clean_grid():
    x = np.linspace(0.05, np.pi, 64)
    t = np.linspace(-3.0, 3.0, 25)
    cert = residual_certificate_scan(x, t)
    assert cert.min_residual >= -1e-10
    assert cert.min_slope_closed >= -1e-10
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
    # the per-t scan as first written, and a row whose argmin is NaN never
    # replaces the running minimum
    res_min, closed_min = ([np.inf, (np.nan, np.nan)] for _ in range(2))

    def fold(best, values, grid, tv):
        i = int(np.argmin(values))
        if values[i] < best[0]:
            best[:] = float(values[i]), (float(grid[i]), float(tv))

    for tv in t:
        fold(res_min, profile_residual(x, tv), x, tv)
        fold(closed_min, residual_slope(x, tv), x, tv)
    return comparison.ProfileCertificate(*res_min, *closed_min)


SCAN_GRIDS = {
    # 23 t-rows, so blocks of 7, 10 and 64 whole rows end in a partial
    # block; x holds pi exactly and a point near 0
    "ragged_pi": (np.concatenate([[4e-6], np.linspace(0.05, np.pi, 96)]),
                  np.linspace(-3.0, 3.0, 23)),
    # e^{-t} sin(x/2) passes 1e8, where arctan is within an ulp of pi/2
    "large_arg": (np.arange(0.5, 1.0 + 1e-12, 0.01), np.arange(-30.0, 30.0 + 1e-9, 0.7)),
    # exact ties: far out in t the residual rounds to the same few values
    "ties": (np.linspace(0.2, np.pi, 60), np.linspace(35.0, 45.0, 11)),
    # more x points than a block holds: one whole t-row per block
    "one_row": (np.linspace(1e-3, np.pi, comparison.BLOCK_PAIRS + 7),
                np.array([-1.0, 0.0, 2.5])),
    # one x, pi itself, where the slope is 0 and the residual 5 - pi at t = 0
    "one_column": (np.array([np.pi]), np.linspace(-1.0, 1.0, 9)),
}


@pytest.mark.parametrize("rows", [None, 1, 7, 10, 64])
@pytest.mark.parametrize("name", sorted(SCAN_GRIDS))
def test_blocked_certificate_scan_is_bit_identical_to_the_per_t_loop(name, rows, monkeypatch):
    x, t = SCAN_GRIDS[name]
    if rows is not None:
        monkeypatch.setattr(comparison, "BLOCK_PAIRS", 4 * rows * x.size)  # rows whole rows
    assert residual_certificate_scan(x, t) == loop_certificate_scan(x, t)


@pytest.mark.parametrize("rows", [None, 1])
def test_certificate_scan_reports_the_first_nan_like_argmin(rows, monkeypatch):
    # at t = -400, alpha = e^800 overflows and every value is NaN; the loop
    # scan skipped such rows and certified the finite t = 0 row
    x = np.linspace(0.05, np.pi, 64)
    if rows is not None:
        monkeypatch.setattr(comparison, "BLOCK_PAIRS", 4 * rows * x.size)  # rows whole rows
    t = np.array([0.0, -400.0, 1.0])
    cert = residual_certificate_scan(x, t)
    for value, at in [(cert.min_residual, cert.min_residual_at),
                      (cert.min_slope_closed, cert.min_slope_closed_at)]:
        assert np.isnan(value)
        assert at == (0.05, -400.0)
    assert not np.isnan(loop_certificate_scan(x, t).min_residual)


def argmin_certificate_scan(x, t):
    # the certificate as np.argmin over whole (t, x) arrays, NaN rule included
    tc = t[:, None]

    def first_min(values):
        ti, xi = divmod(int(np.argmin(values)), x.size)
        return float(values[ti, xi]), (float(x[xi]), float(t[ti]))

    return comparison.ProfileCertificate(
        *first_min(profile_residual(x, tc)), *first_min(residual_slope(x, tc)))


def count_forks(monkeypatch):
    forks = []
    fork = os.fork

    def counting():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return forks


@pytest.mark.parametrize("name", sorted(SCAN_GRIDS))
def test_pruned_scan_is_bit_identical_to_argmin_and_the_loop(name):
    x, t = SCAN_GRIDS[name]
    cert = residual_certificate_scan(x, t)
    assert repr(cert) == repr(argmin_certificate_scan(x, t)) == repr(loop_certificate_scan(x, t))


# t-rows over ORDER_X and the t of the first residual minimum in (t, x)
# order.  Every residual at t = -400 and at t = -500 is NaN; on this x grid
# the residual minima at t = 37, 38, 42 and 44 are the same float.
ORDER_X = np.linspace(0.2, np.pi, 60)
ORDER_GRIDS = {
    "nan_first": ([0.0, -400.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0], -400.0),
    "nan_second": ([0.0, 1.0, 2.0, 3.0, 4.0, -400.0, 5.0, -500.0], -400.0),
    "nan_both": ([0.0, 1.0, -500.0, 2.0, 3.0, -400.0, 4.0, 5.0], -500.0),
    "ties_first": ([35.0, 37.0, 36.0, 38.0, 39.0, 40.0, 41.0, 43.0], 37.0),
    "ties_second": ([35.0, 36.0, 39.0, 40.0, 41.0, 44.0, 43.0, 42.0], 44.0),
    "ties_both": ([35.0, 38.0, 36.0, 39.0, 40.0, 37.0, 41.0, 42.0], 38.0),
}


@pytest.mark.parametrize("name", sorted(ORDER_GRIDS))
def test_pruned_scan_orders_nans_and_ties_like_argmin(name):
    # the scan evaluates cells lowest bound first, not in (t, x) order
    rows, first_t = ORDER_GRIDS[name]
    t = np.array(rows)
    cert = residual_certificate_scan(ORDER_X, t)
    assert repr(cert) == repr(argmin_certificate_scan(ORDER_X, t))
    assert cert.min_residual_at[1] == first_t


@st.composite
def certificate_grids(draw):
    # x in (0, pi], unsorted, with repeats and pi itself, and the validation
    # slack past pi, where the slope is negative, and NaN; t on both sides
    # of the safe range, where rows are evaluated whole and NaN
    xs = draw(st.lists(st.one_of(
        st.floats(0.0, np.pi, exclude_min=True), st.just(np.pi),
        st.floats(np.pi, np.pi + 1e-12), st.just(np.nan)), min_size=1, max_size=300))
    xs += draw(st.lists(st.sampled_from(xs), max_size=20))
    ts = draw(st.lists(st.one_of(
        st.floats(-75.0, 75.0), st.sampled_from([-500.0, -400.0, -80.0, -71.0, 71.0, 500.0, 800.0])),
        min_size=1, max_size=40))
    return np.array(draw(st.permutations(xs))), np.array(ts)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(certificate_grids(), st.sampled_from([1, 3, 16, None]), st.sampled_from([1, 7, None]))
def test_pruned_scan_is_argmins_on_random_grids(grid, width, rows):
    x, t = grid
    with pytest.MonkeyPatch.context() as patch:
        if width is not None:
            patch.setattr(comparison, "_CELL_COLUMNS", width)
        if rows is not None:
            patch.setattr(comparison, "BLOCK_PAIRS", 4 * rows * x.size)
        assert repr(residual_certificate_scan(x, t)) == repr(argmin_certificate_scan(x, t))


def test_cell_floors_lie_at_or_below_every_value_of_their_cell(rng):
    # cells of one segment each, over the safe range of t, as narrow as a
    # grid step and as wide as 1e-300 to pi
    for _ in range(300):
        lo = 10.0 ** rng.uniform(-300.0, np.log10(np.pi))
        hi = min(np.pi, lo * 10.0 ** rng.uniform(0.0, 8.0))
        x = np.sort(np.concatenate([[lo, hi], rng.uniform(lo, hi, 30)]))
        t = rng.uniform(-comparison._SAFE_T, comparison._SAFE_T, (20, 1))
        z, c = np.sin(0.5 * x), np.cos(0.5 * x)
        alpha = comparison._alpha(t)
        work = comparison._work_arrays(3, x, t)
        lowest = comparison._residual_of_z(z, z * z, alpha, t, work).min(axis=1)
        span = comparison._CELL_SLACK * (z[0] + z[-1])
        floor = comparison._residual_floor(work[0][:, :1].copy(), alpha, span, np.empty((20, 1)))
        assert np.all(floor[:, 0] <= lowest)
        lowest = comparison._residual_dx_of_z(z * z, c, alpha, work).min(axis=1)
        cell = [np.empty((20, 1)) for _ in range(3)]
        floor = comparison._slope_floor(alpha, z[:1] ** 2, z[-1:] ** 2, c.min(keepdims=True), cell)
        assert np.all(floor[:, 0] <= lowest)
        assert np.all(floor[:, 0] >= 0.0)  # never -inf: h_lo > 0 on every cell


def counting_closed_forms(monkeypatch):
    # the number of (x, t) points at which each closed form is evaluated
    counts = {"residual": 0, "slope": 0}
    for name, key in (("_residual_of_z", "residual"), ("_residual_dx_of_z", "slope")):
        def counting(*args, _form=getattr(comparison, name), _key=key):
            values = _form(*args)
            counts[_key] += values.size
            return values
        monkeypatch.setattr(comparison, name, counting)
    return counts


def certificate_grid(t_min=-5.0, t_max=5.0, t_step=0.01):
    # verify-profile's grid, by default its default grid
    return _inclusive_grid(1e-3, np.pi, 1e-3), _inclusive_grid(t_min, t_max, t_step)


def test_the_default_grid_evaluates_at_most_two_percent_and_forks_no_child(monkeypatch):
    x, t = certificate_grid()
    counts, forks = counting_closed_forms(monkeypatch), count_forks(monkeypatch)
    residual_certificate_scan(x, t)
    assert forks == []
    assert max(counts.values()) <= 0.02 * x.size * t.size, counts


def test_a_nan_minimum_skips_every_cell_with_a_finite_bound(monkeypatch):
    # the slope is NaN on the row t = -80, which is evaluated whole; of the
    # other rows only the cells' representatives are
    x, t = certificate_grid(-80.0, 3.0, 20.75)
    counts = counting_closed_forms(monkeypatch)
    cert = residual_certificate_scan(x, t)
    assert np.isnan(cert.min_slope_closed) and cert.min_slope_closed_at == (1e-3, -80.0)
    cells = -(-x.size // comparison._CELL_COLUMNS)
    assert counts["slope"] == x.size + cells * (t.size - 1)


def test_the_default_grid_gives_the_per_t_loops_certificate():
    x, t = certificate_grid()
    assert repr(residual_certificate_scan(x, t)) == repr(loop_certificate_scan(x, t))


def test_an_all_inf_grid_keeps_its_first_location():
    # at t = -300 every residual overflows to +inf, and np.argmin reports
    # the first grid point
    x = np.linspace(1e-3, np.pi, 50)
    cert = residual_certificate_scan(x, np.array([-300.0]))
    assert cert.min_residual == np.inf
    assert cert.min_residual_at == (1e-3, -300.0)


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
    return renormalize(make_perturbed_circle(1.0, n, [0.03, 0.01], [3, 5], seed=seed))


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


def test_a_fine_circle_gets_no_floor_from_curvature_roundoff():
    # the exact curvature sin(pi/n)/(pi/n) is below 1, but the estimator
    # measured kappa_max - 1 = +1.2e-8 here, past _FLOOR_ACTIVATION, and
    # the floor put the offset at -9.13
    v = normalized_circle(32768)
    assert np.max(compute_metrics(v).curvature) ** 2 - 1.0 > comparison._FLOOR_ACTIVATION
    assert admissible_offset(v) == -50.0


def test_admissible_offset_on_ellipse_matches_curvature_floor():
    for n in (257, 256):  # an odd and an even mesh
        v = normalized_ellipse(n)
        got = admissible_offset(v)
        kappa_max = np.max(compute_metrics(v).curvature)
        floor = 0.5 * np.log((kappa_max**2 - 1.0) / 2.0)
        assert got == pytest.approx(floor, abs=1e-12)
    # frozen value for this mesh; the continuum value is 0.72408364
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
    # the all-pairs geometry over np.triu_indices order, as first written but
    # with the package's edge lengths (chords are hypot, as the scan's are)
    edge_len = _lengths(np.roll(v, -1, axis=0) - v)
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
    diag = comparison._diagonals(v)
    for time, offset in SCAN_TIMES:
        bounds = comparison._gap_lower_bounds(diag, time - offset)
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


def test_tiny_edges_exercise_the_subnormal_and_zero_arc_guards(monkeypatch):
    first = comparison._diagonals(BOUND_CURVES["tiny_edge_first"]())
    x, y, _ = first.base
    # the edge's squared length is subnormal and rounded up past its square
    c2 = (x[1] - x[0]) ** 2 + (y[1] - y[0]) ** 2
    assert 0.0 < c2 < 2.0 ** -1022
    assert np.sqrt(c2) * (1.0 - 2.0 ** -48) > np.hypot(x[1] - x[0], y[1] - y[0])
    assert np.all(np.isfinite(comparison._gap_lower_bounds(first, 1.0)))
    # absorbed into the arc-length sum, the edge leaves an arc of 0, so z = 0
    # there: the bounds hold and prune at ordinary t, and are all -inf once
    # e^{-t} overflows, where that pair's profile is NaN
    v = BOUND_CURVES["tiny_edge_inside"]()
    inside = comparison._diagonals(v)
    assert np.min(np.diff(inside.base[2])) == 0.0
    bounds = comparison._gap_lower_bounds(inside, 1.0)
    assert np.all(np.isfinite(bounds))
    assert np.all(bounds <= diagonal_gap_minima(v, 1.0, 0.0))
    evaluated = count_exact_diagonals(monkeypatch)
    assert_scan_matches_triu(v, 1.0, 0.0)
    assert len(evaluated) < inside.n // 2
    assert np.all(comparison._gap_lower_bounds(inside, -710.0) == -np.inf)
    assert_scan_matches_triu(v, 0.0, 710.0)


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
    # the bounds use the arc ceiling as the z ceiling diag.z_hi
    v = ARC_CEILING_CURVES[name]()
    diag = comparison._diagonals(v)
    # the triu scan's arcs are the floats of _pair_rows (its cap at 2 pi
    # never acts on a shorter arc), and z = sin(arc/2) there
    i, j, _, arc = triu_pairs(v)
    k = np.minimum(j - i, diag.n - (j - i))
    assert np.all(diag.z_hi[k - 1] >= np.sin(0.5 * arc))
    # the arc ceiling is k max_edge up to the rounding slack
    assert diag.z_hi[0] <= np.sin(0.5 * np.max(edge_lengths(v))) * (1.0 + 1e-8)


def count_exact_diagonals(monkeypatch):
    # the diagonals whose chord and z rows are computed, in call order
    evaluated = []
    exact = comparison._pair_rows

    def counting(diag, ks, *rows):
        evaluated.extend(ks)
        return exact(diag, ks, *rows)

    monkeypatch.setattr(comparison, "_pair_rows", counting)
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


def triu_feasible(v, offset):
    _, _, chord, arc = triu_pairs(v)
    return bool(np.all(chord >= profile_value(arc, -offset)))


OFFSET_CURVES = {
    "ellipse256": lambda: normalized_ellipse(256),
    "perturbed300": ORACLE_CURVES["perturbed300"],
    "tiny_edge_first": lambda: tiny_edge_curve(0),
    "tiny_edge_inside": lambda: tiny_edge_curve(5),
}

# the search interval, and two that reach offsets where e^{-t} or 2 e^t
# overflows at t = -offset: every bound is -inf there and every gap -inf,
# NaN or the chord
OFFSET_BRACKETS = [(-50.0, 50.0), (-800.0, 50.0), (-750.0, 750.0)]


@pytest.mark.parametrize("bracket", OFFSET_BRACKETS)
@pytest.mark.parametrize("name", sorted(OFFSET_CURVES))
def test_early_exit_bisection_matches_the_triu_bisection(name, bracket, monkeypatch):
    v = OFFSET_CURVES[name]()
    # without the curvature floor the offset is the pair bisection's own result
    monkeypatch.setattr(comparison, "_FLOOR_ACTIVATION", np.inf)
    monkeypatch.setattr(comparison, "OFFSET_BRACKET", bracket)
    if triu_feasible(v, bracket[1]):
        assert admissible_offset(v) == triu_bisection(v, *bracket)
    else:
        # at offset 750 the zero arc's profile is inf * 0
        assert (name, bracket) == ("tiny_edge_inside", (-750.0, 750.0))
        with pytest.raises(NoAdmissibleOffsetError, match="upper endpoint infeasible"):
            admissible_offset(v)


@pytest.mark.parametrize("rows", [1, 2, 5])
@pytest.mark.parametrize("name", ["ellipse256", "perturbed300", "perturbed512"])
def test_early_exit_bisection_on_few_block_rows_matches_the_triu_bisection(name, rows,
                                                                           monkeypatch):
    # the tests walk one row of each block, whatever the blocks' size, and
    # compute every row they evaluate afresh, so diagonals repeat
    v = ORACLE_CURVES[name]()
    monkeypatch.setattr(comparison, "_FLOOR_ACTIVATION", np.inf)
    monkeypatch.setattr(comparison, "BLOCK_PAIRS", rows * v.shape[0])
    evaluated = count_exact_diagonals(monkeypatch)
    assert admissible_offset(v) == triu_bisection(v)
    assert len(evaluated) > len(set(evaluated))


def record_feasibility_tests(monkeypatch):
    # per test of the offset search, its time and the smallest gap of each
    # row it evaluates, in order
    tests = []
    bounds, gaps = comparison._gap_lower_bounds, comparison._row_gaps

    def starting(diag, t):
        tests.append((t, []))
        return bounds(diag, t)

    def evaluating(chord, z, t, out):
        tests[-1][1].append(float(gaps(chord, z, t, out).min()))
        return out

    monkeypatch.setattr(comparison, "_gap_lower_bounds", starting)
    monkeypatch.setattr(comparison, "_row_gaps", evaluating)
    return tests


def curvature_floor(v):
    kappa_max = float(np.max(compute_metrics(v).curvature))
    return float(0.5 * np.log(0.5 * (kappa_max * kappa_max - 1.0)))


@pytest.mark.parametrize("curve", [normalized_ellipse, workload_perturbed_circle])
def test_a_binding_floor_takes_two_tests(curve, monkeypatch):
    # the test of hi, then one at the floor, which passes: no bisection
    v = curve(512)
    floor = curvature_floor(v)
    tests = record_feasibility_tests(monkeypatch)
    assert admissible_offset(v) == floor
    assert [t for t, _ in tests] == [-comparison.OFFSET_BRACKET[1], -floor]


def mode2_circle(n=512):
    # the mode-2 circle, amplitude 0.15, seed 1, as `icflow tbar` builds it:
    # its pair threshold lies above its curvature floor
    return renormalize(make_perturbed_circle(1.0, n, [0.15], [2], seed=1))


def test_a_floor_that_fails_falls_back_to_the_bisection(monkeypatch):
    v = mode2_circle()
    floor = curvature_floor(v)
    tests = record_feasibility_tests(monkeypatch)
    offset = admissible_offset(v)
    monkeypatch.undo()
    assert offset == triu_bisection(v) == -0.17341002821922302
    assert offset > floor
    # hi and the floor, then the bisection's midpoints
    assert [t for t, _ in tests[:2]] == [-comparison.OFFSET_BRACKET[1], -floor]


def seeded_radius(amplitudes, modes, seed):
    # r / R of make_perturbed_circle(R, ...) and its first two derivatives as
    # functions of theta, with the phases its seed draws
    phases = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, size=len(amplitudes))
    terms = list(zip(amplitudes, modes, phases))

    def radius(theta):
        r = 1.0 + sum(a * np.cos(k * theta + p) for a, k, p in terms)
        dr = -sum(a * k * np.sin(k * theta + p) for a, k, p in terms)
        d2r = -sum(a * k * k * np.cos(k * theta + p) for a, k, p in terms)
        return r, dr, d2r
    return radius


def exact_curvature_floor(radius):
    # 1/2 log((kappa_max^2 - 1) / 2) of the curve r(theta) scaled to length
    # 2 pi: the closed-form curvature (r^2 + 2 r'^2 - r r'') / (r^2 + r'^2)^(3/2)
    # times L / 2 pi, its maximum taken on a fine grid, L / 2 pi the mean
    # speed there (the trapezoidal rule, spectrally accurate on a periodic
    # integrand)
    r, dr, d2r = radius(2.0 * np.pi * np.arange(1 << 16) / (1 << 16))
    speed = np.hypot(r, dr)
    kappa_max = np.max((r * r + 2.0 * dr * dr - r * d2r) / speed**3) * np.mean(speed)
    return float(0.5 * np.log(0.5 * (kappa_max * kappa_max - 1.0)))


# (amplitudes, modes, seed), the exact curvature floor and the offset's
# n -> infinity limit: the floor binds on the workloads' (3, 5) circle, the
# pairs on the mode-2 circle, 0.175 above its floor
EXACT_CURVES = {
    "floor_bound": (([0.03, 0.01], [3, 5], 7), -0.332377, -0.332377),
    "pair_bound": (([0.1], [2], 1), -0.629817, -0.455114),
}


@pytest.mark.parametrize("n", [256, 1024])
@pytest.mark.parametrize("name", sorted(EXACT_CURVES))
def test_offset_converges_on_exact_perturbed_circles(name, n):
    (amplitudes, modes, seed), floor, limit = EXACT_CURVES[name]
    radius = seeded_radius(amplitudes, modes, seed)
    assert exact_curvature_floor(radius) == pytest.approx(floor, abs=1e-6)
    v = make_perturbed_circle(1.0, n, amplitudes, modes, seed)
    # every vertex sits on the curve: |v| = r(atan2(y, x)) to roundoff
    on_curve = np.hypot(v[:, 0], v[:, 1]) - radius(np.arctan2(v[:, 1], v[:, 0]))[0]
    assert np.max(np.abs(on_curve)) < 2e-15
    unit = renormalize(v)
    assert curvature_floor(unit) == pytest.approx(floor, abs=1e-3)
    assert admissible_offset(unit) == pytest.approx(limit, abs=1e-3)


def test_ellipse_offset_converges_to_its_continuum_value():
    mpmath = pytest.importorskip("mpmath")
    # at length 2 pi the 2:1 ellipse's largest curvature is 2 L / 2 pi, with
    # its perimeter L = 8 E(3/4), E the complete elliptic integral
    kappa_max = 2.0 * float(8 * mpmath.ellipe(0.75)) / (2.0 * np.pi)
    continuum = 0.5 * np.log(0.5 * (kappa_max * kappa_max - 1.0))
    assert continuum == pytest.approx(0.72408364, abs=1e-8)
    offsets = [admissible_offset(normalized_ellipse(n)) for n in (256, 512, 1024)]
    assert offsets[:2] == pytest.approx([0.72283987, 0.72377226], abs=1e-8)
    # second order in the mesh: the gap shrinks 4x per doubling of n
    gaps = [continuum - offset for offset in offsets]
    assert 3.8 < gaps[0] / gaps[1] < 4.2 and 3.8 < gaps[1] / gaps[2] < 4.2


def test_a_feasibility_test_ends_at_its_first_negative_gap(monkeypatch):
    v = mode2_circle()
    tests = record_feasibility_tests(monkeypatch)
    admissible_offset(v)
    monkeypatch.undo()
    assert len({t for t, _ in tests}) == len(tests) >= 25
    diag = comparison._diagonals(v)
    infeasible = []
    for t, lows in tests:
        assert all(low >= 0.0 for low in lows[:-1])
        unproven = np.count_nonzero(~(comparison._gap_lower_bounds(diag, t) >= 0.0))
        if comparison._min_gap(diag, t)[0] >= 0.0:
            # every diagonal that its bound leaves open, and no other
            assert len(lows) == unproven and all(low >= 0.0 for low in lows)
        else:
            assert lows and not lows[-1] >= 0.0
            infeasible.append((len(lows), unproven))
    assert len(infeasible) >= 10
    assert sum(rows for rows, _ in infeasible) < 0.1 * sum(open_ for _, open_ in infeasible)


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


def test_admissible_offset_builds_one_pair_scan_record(monkeypatch):
    # every test of the offset search shares one record's bounds and blocks
    built = []
    build = comparison._diagonals
    monkeypatch.setattr(comparison, "_diagonals", lambda v: built.append(v) or build(v))
    admissible_offset(normalized_ellipse(256))
    assert len(built) == 1


@pytest.mark.parametrize("n", [16, 1024, 2048, 3000])
def test_pair_scan_blocks_are_three_arrays_of_at_most_one_block(n):
    # three arrays of their own rather than views of one, so that no chunk
    # the scan frees is larger than a block (glibc's mmap threshold rises
    # to the largest chunk freed, and peak RSS with it)
    blocks = comparison._diagonals(normalized_circle(n)).blocks
    assert len(blocks) == 3
    assert all(b.base is None and b.size <= comparison.BLOCK_PAIRS for b in blocks)
    # no more rows than the curve has diagonals
    assert all(len(b) <= max(1, n // 2) for b in blocks)


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


@functools.lru_cache(maxsize=None)
def dense_run():
    # every snapshot of a dense unnormalized run, rescaled to length 2 pi as
    # the run monitor sees it, and the run's offset
    views = []
    start = make_perturbed_circle(1.0, 256, [0.03, 0.01], [3, 5], seed=5)
    evolve(initial_state(start, "unnormalized"), StepControl(dt=5e-5), 0.1,
           observers=[lambda t, v, m: views.append((t, renormalize(v)))],
           snapshot_interval=1e-3)
    return tuple(views), admissible_offset(views[0][1])


def chained_scans(snapshots, offset, previous=None):
    # each scan handed the report of the one before, as a run's monitor
    # hands them, and each the stateless scan's result
    reports = []
    for time, v in snapshots:
        previous = two_point_gap_scan(v, time, offset, previous)
        fresh = two_point_gap_scan(v, time, offset)
        assert (repr(previous.min_gap), previous.argmin_pair) == (
            repr(fresh.min_gap), fresh.argmin_pair)
        reports.append(previous)
    return reports


def took_full_pass(report, previous):
    # a full chord-floor pass becomes the reference the next scan reuses
    return report.reference is not previous.reference


def test_reused_scans_match_the_stateless_scan_on_a_dense_run():
    views, offset = dense_run()
    reports = chained_scans(views, offset)
    assert len(reports) == 101
    full = sum(map(took_full_pass, reports[1:], reports[:-1]))
    assert 1 <= full <= 10
    # the run's scans share one set of block arrays
    assert len({id(r.reference.blocks) for r in reports}) == 1


def pushed_circle(n=64, eps=1e-3):
    # the circle with two antipodal vertices pushed in by eps: the diameter
    # between them shrinks by about 2 eps, twice the largest vertex move
    v = make_circle(1.0, n)
    v[[0, n // 2]] *= 1.0 - eps
    return renormalize(v)


@pytest.mark.parametrize("t", [-50.0, 0.0])
def test_reused_chord_floors_lie_at_or_below_every_chord_of_their_diagonal(t):
    reference = comparison._diagonals(normalized_circle(64))
    v = pushed_circle()
    diag = comparison._diagonals(v, reference, t)
    assert diag.reference is reference  # the floors of the long diagonals are stale
    i, j, chord, _ = triu_pairs(v)
    lows = np.full(32, np.inf)
    np.minimum.at(lows, np.minimum(j - i, 64 - (j - i)) - 1, chord)
    assert np.all(diag.chord_lo <= lows)
    assert lows[-1] < diag.chord_lo[-1] + 1e-6  # within the slack of 2 delta


def test_a_reused_scan_evaluates_what_the_stateless_scan_does(monkeypatch):
    # the refreshed floors are the diagonals' own, so the exact walk is the
    # stateless one; only diagonal 1, the upper bound, is evaluated twice
    views, offset = dense_run()
    evaluated = count_exact_diagonals(monkeypatch)
    previous = None
    for time, v in views:
        evaluated.clear()
        two_point_gap_scan(v, time, offset)
        stateless = len(evaluated)
        evaluated.clear()
        previous = two_point_gap_scan(v, time, offset, previous)
        assert len(evaluated) <= stateless + 1


def test_reused_scans_match_the_stateless_scan_across_resamples(monkeypatch):
    # the 1:2.15 ellipse at n = 61 and dt = 0.01 resamples between snapshots
    resampled = []
    resample = flow.resample_uniform
    monkeypatch.setattr(flow, "resample_uniform",
                        lambda *args: resampled.append(args[0]) or resample(*args))
    views = []
    evolve(initial_state(make_ellipse(1.0, 2.15, 61), "normalized"),
           StepControl(dt=0.01, resample_every=50), 5.0,
           observers=[lambda t, v, m: views.append((t, v.copy()))], snapshot_interval=0.1)
    assert len(resampled) >= 2 and len(views) == 51
    chained_scans(views, admissible_offset(views[0][1]))


def test_a_reference_of_another_n_is_ignored():
    previous = two_point_gap_scan(normalized_ellipse(256), 0.0, 0.2)
    [report] = chained_scans([(0.0, normalized_ellipse(257))], 0.2, previous)
    assert took_full_pass(report, previous)
    assert report.reference.blocks is not previous.reference.blocks


@pytest.mark.parametrize("time", [709.5, 742.0, 800.0])
def test_a_reused_scan_past_the_overflow_takes_the_full_pass(time):
    # every gap is -inf or NaN: no bound can prune, even on the same curve
    v = normalized_ellipse(256)
    previous = two_point_gap_scan(v, 0.0, 0.0)
    [report] = chained_scans([(time, v)], 0.0, previous)
    assert took_full_pass(report, previous)


def test_a_far_reference_takes_the_full_pass():
    # the circle's chord floors bound the ellipse's only less 2 delta
    previous = two_point_gap_scan(normalized_circle(256), 0.0, 0.2)
    [report] = chained_scans([(0.0, normalized_ellipse(256))], 0.2, previous)
    assert took_full_pass(report, previous)


def test_a_three_argument_scan_carries_its_own_full_pass():
    v = normalized_ellipse(256)
    report = two_point_gap_scan(v, 0.0, 0.2)
    assert report.reference.reference is None and report.reference.n == 256
    assert report == comparison.TwoPointReport(report.min_gap, report.argmin_pair)


def test_admissible_offset_takes_a_fortran_ordered_curve():
    v = renormalize(make_ellipse(2.0, 1.0, 64))
    assert admissible_offset(np.asfortranarray(v)) == admissible_offset(v) == 0.7047154585016385
