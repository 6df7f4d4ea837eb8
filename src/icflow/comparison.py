"""Chord-arc comparison profile and the two-point gap monitor.

The profile

    profile(x, t) = 2 e^t arctan(e^{-t} sin(x/2))

is a lower barrier for chord lengths: on a suitably offset time scale, the
chord between any two points of the evolving curve stays above the profile
evaluated at their (shorter) arc distance.  This module evaluates the
profile, its derivatives, the residual of the barrier operator

    residual = (profile_x^2 - 1)/profile_xx - profile - profile_t

together with the positivity certificates for the residual and its x-slope
and a closed-form versus finite-difference check of the derivatives,
computes the admissible time offset for a concrete curve, and scans the
two-point gap

    gap(i, j) = chord(i, j) - profile(arc(i, j), t - offset)

over all vertex pairs of a snapshot.

The gap scan walks the n(n-1)/2 pairs as cyclic diagonals in cache-sized
blocks, so memory stays at a few blocks rather than O(n^2) arrays, and
each pair's value is the float a plain np.triu_indices scan gives.  It
first bounds each diagonal's gaps from below with cheap operations only
(squared chords and arcs, no hypot, sin or arctan per pair), then
evaluates diagonals exactly, lowest bound first, until the next bound
exceeds the smallest gap found; its result is that of the exhaustive
scan, ties and NaNs included.  The admissible offset's bisection tests
each offset with the same minimum, the time-independent part of the
bounds computed once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .curves import BLOCK_PAIRS, _geometry, _validated_edges
from .errors import NoAdmissibleOffsetError, ParameterError

# Below this argument the direct arctan(w) - w/(1+w^2) suffers cancellation;
# switch to the leading terms of its power series.
_SMALL_ARG = 1e-2

_DOMAIN_SLACK = 1e-12

FD_STEP = 1e-5  # the certificate scan's central-difference step (cli.SLOPE_FD_TOL)
CROSS_CHECK_STEP = 1e-4  # derivative_cross_check's central-difference step


def _as_domain(x, lo: float, hi: float, label: str) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if np.any(a < lo - _DOMAIN_SLACK) or np.any(a > hi + _DOMAIN_SLACK):
        raise ParameterError(f"{label} must lie in [{lo:g}, {hi:g}]")
    return a


def _maybe_scalar(value: np.ndarray, *inputs) -> float | np.ndarray:
    if all(np.ndim(i) == 0 for i in inputs):
        return float(value)
    return value


def _profile_of_z(z, t, out=None):
    """2 e^t arctan(e^{-t} z), the profile from z = sin(x/2), in out when given."""
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.asarray(np.multiply(np.exp(-t), z, out=out))
        np.arctan(w, out=w)
        w *= 2.0 * np.exp(t)
        return w


def profile_value(x, t):
    """The comparison profile 2 e^t arctan(e^{-t} sin(x/2)) for x in [0, 2pi]."""
    xa = _as_domain(x, 0.0, 2.0 * np.pi, "x")
    ta = np.asarray(t, dtype=float)
    return _maybe_scalar(np.asarray(_profile_of_z(np.sin(0.5 * xa), ta)), x, t)


def profile_dx(x, t):
    """d(profile)/dx = cos(x/2) / (1 + e^{-2t} sin^2(x/2))."""
    xa = _as_domain(x, 0.0, 2.0 * np.pi, "x")
    ta = np.asarray(t, dtype=float)
    z2 = np.sin(0.5 * xa) ** 2
    alpha = np.exp(-2.0 * ta)
    out = np.cos(0.5 * xa) / (1.0 + alpha * z2)
    return _maybe_scalar(np.asarray(out), x, t)


def profile_dxx(x, t):
    """Second x-derivative of the profile; strictly negative on (0, pi)."""
    xa = _as_domain(x, 0.0, 2.0 * np.pi, "x")
    ta = np.asarray(t, dtype=float)
    z = np.sin(0.5 * xa)
    c2 = np.cos(0.5 * xa) ** 2
    q = 1.0 + np.exp(-2.0 * ta) * z * z
    out = -0.5 * z / q - np.exp(-2.0 * ta) * c2 * z / (q * q)
    return _maybe_scalar(np.asarray(out), x, t)


def profile_dt(x, t):
    """Time derivative 2 e^t g(e^{-t} sin(x/2)) with g(w) = arctan w - w/(1+w^2).

    g is evaluated by its series 2w^3/3 - 4w^5/5 + 6w^7/7 for small w, where
    the direct difference would cancel catastrophically.  Non-negative for
    x in [0, 2pi]: the profile only rises with t.
    """
    xa = _as_domain(x, 0.0, 2.0 * np.pi, "x")
    ta = np.asarray(t, dtype=float)
    z = np.sin(0.5 * xa)
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.exp(-ta) * z
        small = np.abs(w) < _SMALL_ARG
        ws = np.where(small, w, 0.0)
        series = ws**3 * (2.0 / 3.0 + ws * ws * (-4.0 / 5.0 + ws * ws * (6.0 / 7.0)))
        wb = np.where(small, 1.0, w)
        direct = np.arctan(wb) - wb / (1.0 + wb * wb)
        out = 2.0 * np.exp(ta) * np.where(small, series, direct)
    return _maybe_scalar(np.asarray(out), x, t)


def _work_arrays(count: int, *operands) -> list:
    """count empty arrays of the broadcast shape of operands."""
    shape = np.broadcast_shapes(*(np.shape(a) for a in operands))
    return [np.empty(shape) for _ in range(count)]


def _views(buffers, rows: int, width: int) -> list:
    """Flat buffers as (rows, width) arrays over their leading entries."""
    return [b[:rows * width].reshape(rows, width) for b in buffers]


def _residual_of_z(z, z2, alpha, t, work):
    """profile_residual from z = sin(x/2), z2 = z * z and alpha = e^{-2t}.

    z and t broadcast against each other; the scan passes x rows and a t
    column, the public wrapper whatever its caller gave.  The formula

        2 z (1 + 2 alpha + alpha^2 z2) / p - 2 profile + 2 z / q,
        p = 1 + 2 alpha - alpha z2,  q = 1 + alpha z2,

    is evaluated in the three arrays of work, the result in the first, one
    operation at a time in the order the expression above groups them.
    """
    r, a, b = work
    with np.errstate(over="ignore", invalid="ignore"):
        one_2a = 1.0 + 2.0 * alpha
        two_z = 2.0 * z
        np.multiply(alpha, z2, out=a)
        np.subtract(one_2a, a, out=b)  # p
        np.add(1.0, a, out=a)  # q
        np.multiply(alpha * alpha, z2, out=r)
        np.add(one_2a, r, out=r)
        np.multiply(two_z, r, out=r)
        np.divide(r, b, out=r)  # the quotient
        np.multiply(2.0, _profile_of_z(z, t, out=b), out=b)
        np.subtract(r, b, out=r)
        np.divide(two_z, a, out=a)
        np.add(r, a, out=r)
    return r


def _residual_dx_of_z(z2, c, alpha, work):
    """x-slope of profile_residual, c A / (q p)^2, from z2 = sin^2(x/2),
    c = cos(x/2) and alpha = e^{-2t}, with A residual_dx_numerator's
    polynomial and q, p as in _residual_of_z, in the three arrays of work,
    the result in the first.  A holds alpha^5: it overflows below about
    t = -70.9 (the fd mismatch verdict fails below -10.03)."""
    r, a, b = work
    with np.errstate(over="ignore", invalid="ignore"):
        _numerator_of_z2(z2, alpha, r)
        np.multiply(alpha, z2, out=a)
        np.subtract(1.0 + 2.0 * alpha, a, out=b)  # p
        np.add(1.0, a, out=a)  # q
        np.multiply(a, b, out=a)
        np.multiply(a, a, out=a)
        np.multiply(c, r, out=r)
        np.divide(r, a, out=r)
    return r


def _numerator_of_z2(z2, alpha, out):
    """residual_dx_numerator's polynomial, Horner in z2 = z^2, into out."""
    np.multiply(z2, -(alpha**5), out=out)
    out += alpha**3 * (-2.0 + alpha * (3.0 + 6.0 * alpha))
    out *= z2
    out += alpha * alpha * (8.0 + alpha * (25.0 + 16.0 * alpha))
    out *= z2
    out += alpha * (2.0 + alpha * (5.0 + 2.0 * alpha))
    out *= z2
    return out


def _alpha(t):
    """e^{-2t}; overflows to inf for t below about -354."""
    with np.errstate(over="ignore"):
        return np.exp(-2.0 * t)


def profile_residual(x, t):
    """Barrier-operator residual (profile_x^2 - 1)/profile_xx - profile - profile_t.

    Evaluated through the algebraically simplified form (z = sin(x/2),
    alpha = e^{-2t}):

        2 z (1 + 2 alpha + alpha^2 z^2) / (1 + 2 alpha - alpha z^2)
        - 4 e^t arctan(e^{-t} z) + 2 z / (1 + alpha z^2)

    which avoids the 0/0 of the raw quotient near x = 0.  Domain (0, pi];
    x = 0 is a removable singularity with limit 0 and is rejected rather
    than special-cased.
    """
    xa = _as_domain(x, 0.0, np.pi, "x")
    if np.any(xa <= 0.0):
        raise ParameterError("x = 0 is a removable singularity; evaluate at x > 0")
    ta = np.asarray(t, dtype=float)
    z = np.sin(0.5 * xa)
    alpha = _alpha(ta)
    out = _residual_of_z(z, z * z, alpha, ta, _work_arrays(3, z, alpha, ta))
    return _maybe_scalar(np.asarray(out), x, t)


def residual_dx_numerator(z, alpha):
    """Degree-8 even polynomial certifying the sign of the residual's x-slope.

    With q and p as in _residual_of_z,

        d(profile_residual)/dx = cos(x/2) * numerator / (q^2 p^2),

    so non-negativity of this polynomial on z in [0, 1], alpha > 0 settles
    the slope sign wherever cos(x/2) >= 0.  Evaluated in Horner form in z^2.
    """
    za = _as_domain(z, 0.0, 1.0, "z")
    aa = np.asarray(alpha, dtype=float)
    if np.any(aa <= 0.0):
        raise ParameterError("alpha must be positive")
    z2 = za * za
    out = _numerator_of_z2(z2, aa, *_work_arrays(1, z2, aa))
    return _maybe_scalar(out, z, alpha)


@dataclass(frozen=True)
class ProfileCertificate:
    """Grid minima backing the positivity claims about the residual.

    min_residual / min_slope_closed are minima of the closed forms over the
    full grid; min_slope_fd is the minimum of central finite differences of
    the residual (where the x +/- FD_STEP stencil stays inside (0, pi]);
    max_slope_mismatch is the worst disagreement between the finite
    difference and the closed-form slope, |fd - closed| / max(1, |closed|),
    which checks the slope's A-polynomial against the residual itself.
    """

    min_residual: float
    min_residual_at: tuple[float, float]
    min_slope_fd: float
    min_slope_fd_at: tuple[float, float]
    min_slope_closed: float
    min_slope_closed_at: tuple[float, float]
    max_slope_mismatch: float


def _fold_argmin(best, block: np.ndarray, row0: int):
    """Fold a block of grid rows into the running (value, row, column) minimum.

    Blocks arrive in row order, so the result is np.argmin's over the whole
    grid: the first NaN wins, else the first exact minimum.
    """
    r, k = np.unravel_index(int(np.argmin(block)), block.shape)
    value = block[r, k]
    if not np.isnan(best[0]) and (np.isnan(value) or value < best[0]):
        return float(value), row0 + int(r), int(k)
    return best


def residual_certificate_scan(x_values: np.ndarray, t_values: np.ndarray) -> ProfileCertificate:
    """Scan the residual and its x-slope over an (x, t) grid.

    The t-independent factors sin(x/2), cos(x/2) and sin^2(x/2) are
    computed once, for x and for the stencil points x +/- FD_STEP; the
    grid is then evaluated in blocks of t-rows (about BLOCK_PAIRS values
    each, at least one row) in five reused block arrays, so memory stays at
    a few blocks and no block allocates its temporaries.  Every value
    is the float that profile_residual and _residual_dx_of_z give at
    that (x, t).  Each minimum and its location follow np.argmin over the
    grid in (t, x) order: the first exact minimum, or the first NaN if any
    value is NaN (an overflowed evaluation is never certified), and
    max_slope_mismatch is NaN if any mismatch is.  Raises if any x lies
    outside (0, pi].
    """
    x = np.asarray(x_values, dtype=float)
    t = np.asarray(t_values, dtype=float)
    if x.size == 0 or t.size == 0:
        raise ParameterError("empty certification grid")
    if np.any(x <= 0.0) or np.any(x > np.pi + _DOMAIN_SLACK):
        raise ParameterError("residual grid requires x in (0, pi]")
    h = FD_STEP
    stencil = (x - h > 0.0) & (x + h <= np.pi + _DOMAIN_SLACK)
    xs = x[stencil]

    z, c = np.sin(0.5 * x), np.cos(0.5 * x)
    z2 = z * z
    z_plus, z_minus = np.sin(0.5 * (xs + h)), np.sin(0.5 * (xs - h))
    z2_plus, z2_minus = z_plus * z_plus, z_minus * z_minus

    best_res = best_fd = best_closed = (np.inf, -1, -1)  # value, t index, x index
    max_mismatch = 0.0
    rows = max(1, BLOCK_PAIRS // x.size)
    # five block arrays, reused by every block; once the slope is in the
    # first, the other four hold the stencil values
    buffers = [np.empty(min(rows, t.size) * x.size) for _ in range(5)]
    for row0 in range(0, t.size, rows):
        tb = t[row0:row0 + rows, None]
        alpha = _alpha(tb)
        work = _views(buffers[:3], tb.shape[0], x.size)
        best_res = _fold_argmin(best_res, _residual_of_z(z, z2, alpha, tb, work), row0)
        closed = _residual_dx_of_z(z2, c, alpha, work)
        best_closed = _fold_argmin(best_closed, closed, row0)
        if xs.size:
            plus, minus, a, b = _views(buffers[1:], tb.shape[0], xs.size)
            fd = _residual_of_z(z_plus, z2_plus, alpha, tb, (plus, a, b))
            np.subtract(fd, _residual_of_z(z_minus, z2_minus, alpha, tb, (minus, a, b)), out=fd)
            np.divide(fd, 2.0 * h, out=fd)
            best_fd = _fold_argmin(best_fd, fd, row0)
            np.compress(stencil, closed, axis=1, out=minus)
            np.subtract(fd, minus, out=fd)
            np.maximum(np.abs(minus, out=minus), 1.0, out=minus)
            mism = float(np.max(np.divide(np.abs(fd, out=fd), minus, out=fd)))
            if mism > max_mismatch or np.isnan(mism):
                max_mismatch = mism

    def located(best, grid):
        value, ti, xi = best
        return value, (np.nan, np.nan) if ti < 0 else (float(grid[xi]), float(t[ti]))

    return ProfileCertificate(
        *located(best_res, x), *located(best_fd, xs), *located(best_closed, x),
        max_slope_mismatch=max_mismatch,
    )


def derivative_cross_check():
    """Worst disagreement between closed-form and central-difference
    derivatives of the profile (step CROSS_CHECK_STEP), over a grid away
    from the domain edges.

    Returns the worst gap and where it sits, as (name, x, t) with name one
    of "dx", "dxx", "dt".  The gaps are searched in (t, name, x) order by
    one np.argmax: the first largest gap, or the first NaN if any is NaN.
    """
    step = CROSS_CHECK_STEP
    x = np.linspace(0.05, 2.0 * np.pi - 0.05, 61)
    t = np.linspace(-2.0, 2.0, 17)[:, None]
    plus = profile_value(x + step, t)
    minus = profile_value(x - step, t)
    mid = profile_value(x, t)
    gaps = np.abs(np.stack([
        (plus - minus) / (2.0 * step) - profile_dx(x, t),
        (plus - 2.0 * mid + minus) / step ** 2 - profile_dxx(x, t),
        (profile_value(x, t + step) - profile_value(x, t - step)) / (2.0 * step)
        - profile_dt(x, t),
    ], axis=1))
    ti, name, xi = np.unravel_index(int(np.argmax(gaps)), gaps.shape)
    return float(gaps[ti, name, xi]), (("dx", "dxx", "dt")[name], float(x[xi]), float(t[ti, 0]))


def numerator_grid_min(z_values, alphas) -> tuple[float, tuple[float, float]]:
    """Minimum of residual_dx_numerator over a (z, alpha) product grid."""
    z = np.asarray(z_values, dtype=float)
    a = np.asarray(alphas, dtype=float)
    vals = residual_dx_numerator(z[None, :], a[:, None])
    flat = int(np.argmin(vals))
    ai, zi = divmod(flat, z.size)
    return float(vals[ai, zi]), (float(z[zi]), float(a[ai]))


@dataclass(frozen=True)
class _Diagonals:
    """A validated polygon laid out for walking its cyclic diagonals.

    Pairs are walked as diagonals (i, i + k mod n), k = 1..n//2, each a row
    of n pairs.  On the k = n/2 row of an even n each pair appears twice, as
    (i, j) and (j, i), with the same float both times, so minima and maxima
    over the rows are those over the n(n-1)/2 pairs.  base holds the
    coordinate and arc-length arrays (x, y, s); row k of each rolled window
    view is the same array rotated by k, so a run of diagonals is a slice
    and needs no index arrays.  A block is at most rows diagonals, about
    BLOCK_PAIRS pairs.
    """

    n: int
    total: float
    max_edge: float
    base: tuple
    rolled: tuple
    rows: int

    def buffers(self, count: int) -> list:
        """count new block-sized arrays, for a walk to reuse (_views)."""
        return [np.empty(self.rows * self.n) for _ in range(count)]


def _diagonals(v: np.ndarray, edge_len: np.ndarray) -> _Diagonals:
    """The diagonals of validated vertices, given their edge lengths."""
    n = v.shape[0]
    s = np.concatenate([[0.0], np.cumsum(edge_len[:-1])])
    base = (v[:, 0], v[:, 1], s)
    rolled = tuple(sliding_window_view(np.concatenate([a, a]), n) for a in base)
    total, max_edge = float(np.sum(edge_len)), float(np.max(edge_len))
    return _Diagonals(n, total, max_edge, base, rolled, max(1, BLOCK_PAIRS // n))


# Relative slacks of the gap bound: 2**-48 covers a few roundings of hypot,
# sqrt and sin, 2**-40 those of the profile's exp, arctan and products.
# Squared chords below 2**-1000 may have rounded up from subnormals.
_CHORD_SLACK = 2.0 ** -48
_PROFILE_SLACK = 2.0 ** -40
_TINY_SQUARE = 2.0 ** -1000
# An arc on diagonal k sums k edges: with u = 2^-53, T = total and s and T
# each within 2 n u T, it is at most (1 + u)(k max_edge + 8 n u T).
_ARC_SLACK = 2.0 ** -50


def _diagonal_extremes(diag: _Diagonals) -> tuple:
    """Per diagonal k = 1..n//2, a float at or below every chord on it and
    one at or above every z = sin(arc/2) on it; neither depends on time.

    One pass over the blocks records, per diagonal, the smallest squared
    chord dx^2 + dy^2, with no hypot and no arc per pair.  The chord floor
    is sqrt(min c2) shrunk by _CHORD_SLACK (0 where the squares may be
    subnormal), the z ceiling _z_ceiling of _arc_ceiling.  Where some half
    arc (the smallest is a step of s or total - s[-1]) rounds to 0, z = 0
    there and e^{-t} z is NaN when e^{-t} overflows, so no bound may prune:
    the pass is skipped, every floor is -inf and every ceiling 1.
    """
    x, y, s = diag.base
    m = diag.n // 2
    if 0.5 * min(np.min(np.diff(s)), diag.total - s[-1]) <= 0.0:
        return np.full(m, -np.inf), np.ones(m)
    c2 = np.empty(m)
    xr, yr, _ = diag.rolled
    buffers = diag.buffers(2)
    for k0 in range(1, m + 1, diag.rows):
        k1 = min(k0 + diag.rows, m + 1)
        a, b = _views(buffers, k1 - k0, diag.n)
        np.subtract(xr[k0:k1], x, out=a)
        a *= a
        np.subtract(yr[k0:k1], y, out=b)
        b *= b
        a += b
        np.min(a, axis=1, out=c2[k0 - 1:k1 - 1])
    chord_lo = np.where(c2 < _TINY_SQUARE, 0.0, np.sqrt(c2) * (1.0 - _CHORD_SLACK))
    return chord_lo, _z_ceiling(_arc_ceiling(diag))


def _arc_ceiling(diag: _Diagonals) -> np.ndarray:
    """Per diagonal k = 1..n//2, k max_edge grown by _ARC_SLACK: at or above its arcs."""
    k = np.arange(1, diag.n // 2 + 1)
    return k * diag.max_edge * (1.0 + _ARC_SLACK) + 2.0 * diag.n * diag.total * _ARC_SLACK


def _z_ceiling(arc):
    """A float at or above the z = sin(min(a, 2 pi)/2) of every arc a <= arc.

    The half arc is clamped to pi/2 before the sine: an arc can pass pi,
    since the length is 2 pi only to 1e-6, and sin falls beyond pi/2.
    """
    half = np.minimum(0.5 * np.minimum(arc, 2.0 * np.pi), 0.5 * np.pi)
    return np.minimum(1.0, np.sin(half) * (1.0 + _CHORD_SLACK))


def _gap_lower_bounds(extremes: tuple, t: float) -> np.ndarray:
    """Per diagonal, a float at or below every gap on it at time t: the
    chord floor minus the profile at the z ceiling (_diagonal_extremes)
    grown by _PROFILE_SLACK.

    Every step of the pair recipe and of the profile is monotone up to the
    slacks.  Every bound is -inf when 2 e^t overflows, as every profile is
    then inf or NaN (0 * inf where e^{-t} z underflows); otherwise no bound
    is NaN, and no gap is NaN where its floor is finite.
    """
    chord_lo, z_hi = extremes
    if not np.isfinite(_profile_of_z(1.0, t)):
        return np.full(chord_lo.size, -np.inf)
    return chord_lo - _profile_of_z(z_hi, t) * (1.0 + _PROFILE_SLACK)


def _diagonal_gaps(diag: _Diagonals, ks: np.ndarray, t: float, buffers) -> np.ndarray:
    """Gaps of the ascending diagonals ks, one row of n pairs (i, i + k)
    each, in the three block buffers; each run of consecutive diagonals is
    computed on window views.

    Every value is the triu scan's float: chord is hypot(v[j] - v[i]),
    which ignores the sign flip of a wrapped pair; the forward arc
    |s[j] - s[i]| is the triu difference; z = sin(arc/2) as profile_value
    computes it.  The triu scan's cap of arcs at 2 pi never acts: a shorter
    arc is at most half the length, which is 2 pi to 1e-6.
    """
    chord, z, back = _views(buffers, ks.size, diag.n)
    (xr, yr, sr), (x, y, s) = diag.rolled, diag.base
    cuts = [0, *(np.flatnonzero(np.diff(ks) != 1) + 1), ks.size]
    for r0, r1 in zip(cuts[:-1], cuts[1:]):
        rows = slice(ks[r0], ks[r0] + r1 - r0)
        np.subtract(xr[rows], x, out=chord[r0:r1])
        np.subtract(yr[rows], y, out=z[r0:r1])
        np.hypot(chord[r0:r1], z[r0:r1], out=chord[r0:r1])
        np.subtract(sr[rows], s, out=z[r0:r1])
    np.abs(z, out=z)  # the forward arc
    np.subtract(diag.total, z, out=back)
    np.minimum(z, back, out=z)  # the shorter arc
    z *= 0.5
    np.sin(z, out=z)
    gaps = _profile_of_z(z, t, out=back)
    return np.subtract(chord, gaps, out=gaps)


def _require_normalized_length(total: float) -> None:
    if abs(total - 2.0 * np.pi) > 1e-6 * 2.0 * np.pi:
        raise ParameterError(
            f"curve length {total:.12g} is not 2*pi; renormalize before comparing")


@dataclass(frozen=True)
class TwoPointReport:
    """Result of a two-point gap scan at one snapshot."""

    min_gap: float
    argmin_pair: tuple[int, int]


def _min_gap(diag: _Diagonals, extremes: tuple, t: float, buffers) -> tuple:
    """The smallest gap over all pairs at time t, and i * n + j of its pair,
    using three block buffers.

    Diagonals are evaluated exactly in ascending order of their bounds, in
    chunks of 1, 2, 4, ... diagonals up to a block, until the next bound is
    strictly above the smallest gap found, so no skipped pair can hold a
    smaller or an equal gap; a NaN minimum never stops the scan.
    """
    n = diag.n
    bound = _gap_lower_bounds(extremes, t)
    order = np.argsort(bound, kind="stable")
    best = np.inf
    best_key = n * n  # i * n + j of the reported pair; triu order is key order
    pos, size = 0, 1
    while pos < order.size and not bound[order[pos]] > best:
        ks = np.sort(order[pos:pos + size]) + 1
        pos, size = pos + size, min(2 * size, diag.rows)
        gaps = _diagonal_gaps(diag, ks, t, buffers)
        # np.argmin semantics: the first NaN wins, else the first minimum
        low = gaps.min()
        nan = np.isnan(low)
        if nan:
            hits = np.isnan(gaps)
        elif low <= best:
            hits = gaps == low
        else:
            continue
        r, i = np.nonzero(hits)
        j = (i + ks[r]) % n
        key = int(np.min(np.minimum(i, j) * n + np.maximum(i, j)))
        if nan == np.isnan(best) and (nan or low == best):
            best_key = min(best_key, key)
        else:
            best, best_key = low, key
    return float(best), best_key


def two_point_gap_scan(vertices: np.ndarray, time: float, offset: float) -> TwoPointReport:
    """Exact minimum of chord - profile(arc, time - offset) over all pairs.

    A cheap pass bounds the gaps of each cyclic diagonal from below, and
    diagonals are evaluated exactly, lowest bound first, until no skipped
    pair can hold a smaller or an equal gap (_min_gap).  Each gap is the
    same float as in a scan over np.triu_indices order, and among exact
    minima the pair (i, j), i < j, that comes first in that order is
    reported (the first NaN if any gap is NaN), so the result is that of an
    exhaustive scan.  Typically a few diagonals are evaluated.  Where
    nothing can be pruned the bound pass is extra work: for time - offset
    > 709.08, where every gap is -inf or NaN, and where the bounds are weak
    (meshes far from uniform in arc length).  On small meshes the bound
    pass and the chunk loop are a fixed cost, which can make a scan slower
    than the exhaustive one.
    """
    diag = _diagonals(*_validated_edges(vertices))
    _require_normalized_length(diag.total)
    best, key = _min_gap(diag, _diagonal_extremes(diag), time - offset, diag.buffers(3))
    return TwoPointReport(min_gap=best, argmin_pair=divmod(key, diag.n))


# Curvature-floor activation: squared-curvature excess below this is treated
# as roundoff (an exact polygonal circle measures kappa = 1 to ~1e-15).
_FLOOR_ACTIVATION = 1e-9
# admissible_offset's search interval and its bisection tolerance
OFFSET_BRACKET = (-50.0, 50.0)
OFFSET_TOL = 1e-6


def admissible_offset(vertices: np.ndarray) -> float:
    """Smallest offset making the initial curve admissible for the barrier.

    Two constraints are combined:

    * every vertex pair must satisfy chord >= profile(arc, -offset);
      feasibility is monotone in the offset (the profile falls as -offset
      drops), so the threshold is found by bisection on OFFSET_BRACKET
      = [lo, hi], to OFFSET_TOL;
    * the coincident-point limit of the same family, which vertex pairs
      cannot sample below one mesh width: as arc -> 0 the pair constraint
      degenerates to max_kappa^2 <= 1 + 2 e^{2 offset}, i.e. a floor of
      0.5 log((max_kappa^2 - 1)/2).

    Without the floor a discrete scan systematically underestimates the
    offset on curves with curvature above 1 and the downstream sup-bound
    monitor starts from a violated state.  Curves with max curvature <= 1
    (circles) have an inactive floor and return lo, every offset being
    pair-feasible for them.

    Each feasibility test is the gap scan's exact minimum at time 0
    (_min_gap), with the per-diagonal chord floors and z ceilings computed
    once.  chord >= profile holds exactly when chord - profile >= 0, and a
    NaN gap fails both, so every test, and with it the bisection path, is
    that of a test over all pairs, in a few block arrays of memory.  Small
    meshes pay the tests' fixed cost (some ms a call at n <= 64), and where
    some arc rounds to 0 nothing is pruned and every test is a full scan.
    """
    v, edge_len = _validated_edges(vertices)
    kappa = _geometry(v).curvature
    if not np.all(kappa > 0.0):
        raise ParameterError("admissible offset is defined for convex curves only")
    kappa_max = float(np.max(kappa))
    del kappa  # only the float stays alive across the bisection
    lo, hi = OFFSET_BRACKET

    diag = _diagonals(v, edge_len)
    _require_normalized_length(diag.total)
    extremes = _diagonal_extremes(diag)
    buffers = diag.buffers(3)

    def feasible(offset: float) -> bool:
        return _min_gap(diag, extremes, -offset, buffers)[0] >= 0.0

    if not feasible(hi):
        raise NoAdmissibleOffsetError(
            f"no admissible offset in [{lo}, {hi}]: upper endpoint infeasible")
    if feasible(lo):
        threshold = lo
    else:
        a, b = lo, hi
        while b - a > OFFSET_TOL:
            mid = 0.5 * (a + b)
            if feasible(mid):
                b = mid
            else:
                a = mid
        threshold = b

    excess = kappa_max * kappa_max - 1.0
    if excess > _FLOOR_ACTIVATION:
        floor = 0.5 * np.log(0.5 * excess)
        if floor > hi:
            raise NoAdmissibleOffsetError(
                f"curvature floor {floor:.6g} exceeds search interval top {hi}")
        threshold = max(threshold, floor)
    return float(threshold)
