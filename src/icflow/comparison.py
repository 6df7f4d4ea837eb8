"""Chord-arc comparison profile and the two-point gap monitor.

The profile

    profile(x, t) = 2 e^t arctan(e^{-t} sin(x/2))

is a lower barrier for chord lengths: on a suitably offset time scale, the
chord between any two points of the evolving curve stays above the profile
evaluated at their (shorter) arc distance.  This module evaluates the
profile and the residual of the barrier operator

    residual = (profile_x^2 - 1)/profile_xx - profile - profile_t

in a simplified closed form, together with the grid minima of the residual
and of its closed-form x-slope (the tests prove both closed forms
symbolically), computes the admissible time offset for a concrete curve,
and scans the two-point gap

    gap(i, j) = chord(i, j) - profile(arc(i, j), t - offset)

over all vertex pairs of a snapshot.

Three scans prune exactly: the certificate scan over cells of its grid,
and the gap scan and the admissible offset's sign test over the cyclic
diagonals of vertex pairs.  Each bounds its cells or diagonals from below
with cheap operations only, then evaluates them in curves._lowest_first
order until the next bound rules out the rest; the two minimum scans stop
by one rule (_floor_target) and fold by np.argmin's (_fold_argmin), so
their results are those of the exhaustive scans, ties and NaNs included.

The certificate scan bounds the residual through its rise with
z = sin(x/2) and evaluates about 1% of the default grid.  The gap scan
walks the n(n-1)/2 pairs in cache-sized blocks, so memory stays at a few
blocks rather than O(n^2) arrays, and each pair's value is the float a
plain np.triu_indices scan gives.  Its bounds take squared chords, and no
hypot, arc, sin or arctan per pair; a run's next scan bounds the chords from
the last full pass by the triangle inequality and refreshes only the
diagonals that could hold the minimum.  The admissible offset needs only
the sign of that minimum, at the curvature floor first and along a
bisection only where the floor fails: each test evaluates the diagonals
whose bound is below 0 one row at a time, until a gap is negative or NaN.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .curves import BLOCK_PAIRS, _geometry, _lowest_first, _validated_edges, validate_vertices
from .errors import NoAdmissibleOffsetError, ParameterError

_DOMAIN_SLACK = 1e-12


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


def _work_arrays(count: int, *operands) -> list:
    """count empty arrays of the broadcast shape of operands."""
    shape = np.broadcast_shapes(*(np.shape(a) for a in operands))
    return [np.empty(shape) for _ in range(count)]


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
    t = -70.9, where the slope reads inf or NaN."""
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


def _numerator_coefficients(alpha) -> tuple:
    """The Horner constants of residual_dx_numerator's polynomial, from its
    u^4 coefficient -alpha^5 down to its u coefficient."""
    return (-(alpha**5), alpha**3 * (-2.0 + alpha * (3.0 + 6.0 * alpha)),
            alpha * alpha * (8.0 + alpha * (25.0 + 16.0 * alpha)),
            alpha * (2.0 + alpha * (5.0 + 2.0 * alpha)))


def _numerator_of_z2(z2, alpha, out):
    """residual_dx_numerator's polynomial, Horner in z2 = z^2, into out."""
    top, *rest = _numerator_coefficients(alpha)
    np.multiply(z2, top, out=out)
    for coefficient in rest:
        out += coefficient
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
    """Grid minima of the residual and of its closed-form x-slope, and
    where they sit as (x, t).

    The grid checks the floats of the closed forms: that they stay finite
    and nonnegative.  The sign claims are theorems, which the tests prove
    exactly: the residual's closed form is the barrier operator of the
    profile, the slope's is its x-derivative, and the slope's numerator is
    positive (README, "What the certificates prove").
    """

    min_residual: float
    min_residual_at: tuple[float, float]
    min_slope_closed: float
    min_slope_closed_at: tuple[float, float]


def _fold_argmin(best, values: np.ndarray, flat, ordered: bool = False):
    """Fold values, 2-D, into the running (value, flat index) minimum best
    by np.argmin's rule over the whole grid, whatever order values come in:
    the first NaN, else the first exact minimum (inf included, and -0.0 or
    0.0 as it sits there).  flat maps row and column index arrays of values
    to grid flat indices; ordered says that values' C order is the grid's,
    so np.argmin finds the first hit.  best is None before the first values.
    """
    low = values.min()
    if not (best is None or np.isnan(low) or not np.isnan(best[0]) and low <= best[0]):
        return best
    if ordered:
        rows, cols = np.unravel_index([int(np.argmin(values))], values.shape)
    else:
        rows, cols = np.nonzero(np.isnan(values) if np.isnan(low) else values == low)
    keys = flat(rows, cols)
    first = int(np.argmin(keys))
    if best is not None and best[1] < keys[first] and (
            np.isnan(low) and np.isnan(best[0]) or low == best[0]):
        return best
    return float(values[rows[first], cols[first]]), int(keys[first])


# The certificate scan's cells: one t-row times one segment of at most
# _CELL_COLUMNS grid columns, consecutive in ascending z = sin(x/2).
_CELL_COLUMNS = 128
# Relative slack of the cell bounds: a residual's float lies within about
# 2^-48 T(z) of a function that rises with z, and the slope's Horner value
# within a few roundings of one that bounds it (README, "What the
# certificates prove"), so 2^-44 leaves a factor of 16 or more.
_CELL_SLACK = 2.0 ** -44
# Covers what underflow to subnormals can cost a residual, at most a few
# 2^-1074 grown by 2 e^|t| <= 2^103.
_UNDERFLOW_SLACK = 2.0 ** -960
# The cell bounds hold for |t| up to this: alpha^5 = e^{-10t} and e^{+-t}
# stay normal floats.  Rows beyond it, NaN t included, are evaluated whole.
_SAFE_T = 70.0


def _residual_floor(rep, alpha, span, scratch):
    """Per cell, a float at or below the residual's float at every column of
    the cell, in rep's array: rep - gamma (z_rep + z_max)(8 + 2 alpha) less
    the underflow slack, from the residual rep at the cell's least z and
    span = gamma (z_rep + z_max) of its segment (gamma = _CELL_SLACK)."""
    np.multiply(2.0 * alpha + 8.0, span, out=scratch)
    rep -= scratch
    rep -= _UNDERFLOW_SLACK
    return rep


def _slope_floor(alpha, u_lo, u_hi, c_lo, work):
    """Per cell, a float at or below the closed-form slope's float at every
    column of the cell, in work's first array: c_min A_lo / (q(u_max)
    p(u_min))^2, A_lo = u_min h_lo (1 - gamma), with h_lo the Horner value
    of A / u, each partial at whichever u end lowers it.  u_lo, u_hi, c_lo:
    the segments' least and largest u = z^2 and least cos(x/2), -inf where
    negative.  Every step but h's rounds as in _residual_dx_of_z."""
    h, u, v = work
    top, a3, a2, a1 = _numerator_coefficients(alpha)
    np.multiply(top, u_hi, out=h)  # top < 0
    h += a3
    for coefficient in (a2, a1):
        np.copyto(u, u_lo)
        np.copyto(u, u_hi, where=h < 0.0)
        h *= u
        h += coefficient
    h *= 1.0 - _CELL_SLACK
    h *= u_lo
    h *= c_lo
    np.multiply(alpha, u_lo, out=u)
    np.subtract(1.0 + 2.0 * alpha, u, out=u)  # p at u_min
    np.multiply(alpha, u_hi, out=v)
    np.add(1.0, v, out=v)  # q at u_max
    u *= v
    u *= u
    h /= u
    return h


def residual_certificate_scan(x_values: np.ndarray, t_values: np.ndarray) -> ProfileCertificate:
    """Scan the residual and its closed-form x-slope over an (x, t) grid.

    Every value the scan reads is the float that profile_residual and
    _residual_dx_of_z give at that (x, t).  Each minimum and its location
    follow np.argmin over the grid in (t, x) order: the first exact
    minimum, or the first NaN if any value is NaN.  An overflowed value
    reads +inf or NaN: verify-profile passes only finite values.  Raises if
    any x lies outside (0, pi].

    A cell is a t-row times a segment of _CELL_COLUMNS columns in
    ascending z.  Both closed forms are evaluated at each cell's least z,
    which starts the running minima; then, lowest bound first, in chunks of
    1, 2, 4, ... cells, every cell whose floor (_residual_floor,
    _slope_floor) is not strictly above the running minimum.  A finite
    floor rules out a NaN in its cell.  Rows with |t| beyond _SAFE_T, or
    NaN, are evaluated whole.  Everything runs in blocks of about
    BLOCK_PAIRS / 4 values (at least one row, or one cell) in three reused
    block arrays.
    """
    x = np.asarray(x_values, dtype=float)
    t = np.asarray(t_values, dtype=float)
    if x.size == 0 or t.size == 0:
        raise ParameterError("empty certification grid")
    if np.any(x <= 0.0) or np.any(x > np.pi + _DOMAIN_SLACK):
        raise ParameterError("residual grid requires x in (0, pi]")
    z, c = np.sin(0.5 * x), np.cos(0.5 * x)
    z2 = z * z
    nx = x.size
    width = min(_CELL_COLUMNS, nx)
    segments = -(-nx // width)
    order = np.argsort(z, kind="stable")  # a NaN z sorts last
    columns = np.concatenate([order, np.full(segments * width - nx, order[-1])])
    columns = columns.reshape(segments, width)
    rep, top = columns[:, 0], columns[:, -1]
    u_lo, u_hi, c_lo = z2[rep], z2[top], np.min(c[columns], axis=1)
    c_lo[~(c_lo >= 0.0)] = -np.inf
    span = _CELL_SLACK * (z[rep] + z[top])
    safe = np.abs(t) <= _SAFE_T
    whole, cut = np.flatnonzero(~safe), np.flatnonzero(safe)
    block = BLOCK_PAIRS // 4
    buffers = [np.empty(min(max(block, nx), t.size * segments * width)) for _ in range(3)]

    def work(rows, cols):
        return [buf[:rows * cols].reshape(rows, cols) for buf in buffers]

    forms = (  # (closed form at columns zs, its cell floor)
        (lambda zs, us, cs, alpha, tc, w: _residual_of_z(zs, us, alpha, tc, w),
         lambda rep_values, alpha, w: _residual_floor(rep_values, alpha, span, w[1])),
        (lambda zs, us, cs, alpha, tc, w: _residual_dx_of_z(us, cs, alpha, w),
         lambda rep_values, alpha, w: _slope_floor(alpha, u_lo, u_hi, c_lo, w)),
    )
    cap = max(1, block // width)  # cells per chunk
    found = []
    for evaluate, floor in forms:
        best = None
        rows_per = max(1, block // nx)
        for k in range(0, whole.size, rows_per):
            rows = whole[k:k + rows_per]
            tc = t[rows, None]
            values = evaluate(z, z2, c, _alpha(tc), tc, work(rows.size, nx))
            best = _fold_argmin(best, values, lambda i, j: rows[i] * nx + j, ordered=True)
        rows_per = max(1, block // segments)
        for k in range(0, cut.size, rows_per):
            rows = cut[k:k + rows_per]
            tc = t[rows, None]
            alpha = _alpha(tc)
            w = work(rows.size, segments)
            values = evaluate(z[rep], u_lo, c[rep], alpha, tc, w)
            best = _fold_argmin(best, values, lambda i, j: rows[i] * nx + rep[j])
            with np.errstate(invalid="ignore"):  # -inf * 0 where x past pi meets z = 0
                bound = floor(values, alpha, w).ravel()
            cells = np.flatnonzero(~(bound > _floor_target(best)))
            for chunk, low in _lowest_first(bound[cells], cap):
                if low > _floor_target(best):
                    break
                r, s = np.divmod(cells[chunk], segments)
                at, tr = columns[s], t[rows[r], None]
                values = evaluate(z[at], z2[at], c[at], _alpha(tr), tr, work(r.size, width))
                best = _fold_argmin(best, values, lambda i, j: rows[r[i]] * nx + at[i, j])
        ti, xi = divmod(best[1], nx)
        found += [best[0], (float(x[xi]), float(t[ti]))]
    return ProfileCertificate(*found)


def _floor_target(best) -> float:
    """The value a bound must exceed for its cell or diagonal to be skipped,
    the stop rule of both minimum scans: _fold_argmin's running minimum
    best, +inf before the first value, or -inf where the minimum is NaN,
    which only a bound that is not finite can match (a finite bound rules
    out a NaN value)."""
    return np.inf if best is None else -np.inf if np.isnan(best[0]) else best[0]


def numerator_grid_min(z_values, alphas) -> tuple[float, tuple[float, float]]:
    """Minimum of residual_dx_numerator over a (z, alpha) product grid and its
    (z, alpha): np.argmin's over the (alpha, z) grid, by _fold_argmin over blocks
    of alpha-rows (about BLOCK_PAIRS values, at least one row) in one block array."""
    z = _as_domain(z_values, 0.0, 1.0, "z")
    a = np.asarray(alphas, dtype=float)
    if not (z.size and a.size) or np.any(a <= 0.0):
        raise ParameterError("alpha must be positive, on a non-empty grid")
    z2, rows = z * z, max(1, BLOCK_PAIRS // z.size)
    block, best = np.empty(min(rows, a.size) * z.size), None
    for row0 in range(0, a.size, rows):
        alpha = a[row0:row0 + rows, None]
        out = block[:alpha.size * z.size].reshape(alpha.size, z.size)
        best = _fold_argmin(best, _numerator_of_z2(z2, alpha, out),
                            lambda i, j: (row0 + i) * z.size + j, ordered=True)
    ai, zi = divmod(best[1], z.size)
    return best[0], (float(z[zi]), float(a[ai]))


@dataclass
class _Diagonals:
    """One curve's pair scan: a validated polygon of length 2 pi laid out
    for walking its cyclic diagonals, the time-independent half of their gap
    bounds, and the block arrays every walk reuses.

    Pairs are walked as diagonals (i, i + k mod n), k = 1..n//2, each a row
    of n pairs.  On the k = n/2 row of an even n each pair appears twice, as
    (i, j) and (j, i), with the same float both times, so minima and maxima
    over the rows are those over the n(n-1)/2 pairs.  base holds the
    coordinate and arc-length arrays (x, y, s), its own copies as row 0 of
    each rolled window view; row k is the same array rotated by k, so a
    run of diagonals is a slice and needs no index arrays.  chord_lo[k - 1]
    is a float at or below every chord on diagonal k, z_hi[k - 1] one at or
    above every z = sin(arc/2) on it.  blocks holds three (rows, n) arrays
    of at most BLOCK_PAIRS floats and at most n // 2 rows each (one row
    where n is larger); a walk takes their leading rows.  reference is the
    full pass chord_lo was bounded from, None where it is one (_diagonals).
    """

    n: int
    total: float
    base: tuple
    rolled: tuple
    chord_lo: np.ndarray
    z_hi: np.ndarray
    blocks: tuple
    reference: _Diagonals | None = None


# Relative slacks of the gap bound: 2**-48 covers a few roundings of hypot,
# sqrt and sin, 2**-40 those of the profile's exp, arctan and products.
# Squared chords below 2**-1000 may have rounded up from subnormals.
_CHORD_SLACK = 2.0 ** -48
_PROFILE_SLACK = 2.0 ** -40
_TINY_SQUARE = 2.0 ** -1000
# An arc on diagonal k sums k edges: with u = 2^-53, T = total and s and T
# each within 2 n u T, it is at most (1 + u)(k max_edge + 8 n u T).
_ARC_SLACK = 2.0 ** -50
# A scan refreshes at most this share of the diagonals' chord floors.
_REFRESH_SHARE = 0.3


def _runs(ks) -> list:
    """(r0, r1, rows) of each run ks[r0:r1] of consecutive diagonals in ks,
    ascending ints, with rows its slice of the rolled window views."""
    cuts = [0, *(r for r in range(1, len(ks)) if ks[r] != ks[r - 1] + 1), len(ks)]
    return [(r0, r1, slice(ks[r0], ks[r0] + r1 - r0)) for r0, r1 in zip(cuts[:-1], cuts[1:])]


def _diagonals(vertices: np.ndarray, reference: _Diagonals | None = None,
               t: float = 0.0) -> _Diagonals:
    """The pair-scan record of vertices, which must be a valid polygon of
    length 2 pi.

    The z ceiling is _z_ceiling of k max_edge grown by _ARC_SLACK, at or
    above every arc on diagonal k; a chord floor is sqrt(min dx^2 + dy^2)
    shrunk by _CHORD_SLACK (0 where the squares may be subnormal), with no
    hypot or arc per pair.  reference, a full pass of the same n, lends its
    blocks, and with delta the largest move of a vertex from it, no chord
    on diagonal k is below reference.chord_lo[k - 1] - 2 delta (triangle
    inequality), rounded down.  Only the diagonals whose bound from these
    is not above diagonal 1's exact minimum gap at t can hold the minimum:
    they get fresh floors if at most _REFRESH_SHARE of all, else all do.
    """
    v, edge_len = _validated_edges(vertices)
    n, total = v.shape[0], float(np.sum(edge_len))
    if abs(total - 2.0 * np.pi) > 1e-6 * 2.0 * np.pi:
        raise ParameterError(
            f"curve length {total:.12g} is not 2*pi; renormalize before comparing")
    s = np.concatenate([[0.0], np.cumsum(edge_len[:-1])])
    rolled = tuple(sliding_window_view(np.concatenate([a, a]), n) for a in (v[:, 0], v[:, 1], s))
    reuse = reference is not None and reference.n == n
    blocks = reference.blocks if reuse else tuple(
        np.empty((max(1, min(BLOCK_PAIRS // n, n // 2)), n)) for _ in range(3))
    k = np.arange(1, n // 2 + 1)
    arc_hi = k * float(np.max(edge_len)) * (1.0 + _ARC_SLACK) + 2.0 * n * total * _ARC_SLACK
    diag = _Diagonals(n, total, tuple(r[0] for r in rolled), rolled, np.empty(k.size),
                      _z_ceiling(arc_hi), blocks)
    (x, y, _), (xr, yr, _), (a, b, _) = diag.base, rolled, blocks
    ks = k.tolist()
    if reuse:
        delta = float(np.max(np.hypot(x - reference.base[0], y - reference.base[1])))
        lo = reference.chord_lo * (1.0 - _CHORD_SLACK) - 2.0 * delta * (1.0 + _CHORD_SLACK)
        np.multiply(lo, 1.0 - _CHORD_SLACK, out=diag.chord_lo)  # <= 0 where lo is
        chord, z, gaps = (block[:1] for block in blocks)
        _pair_rows(diag, [1], chord, z, gaps)
        upper = _row_gaps(chord, z, t, gaps).min()
        refresh = np.flatnonzero(~(_gap_lower_bounds(diag, t) > upper)) + 1
        if refresh.size <= _REFRESH_SHARE * len(ks):
            ks, diag.reference = refresh.tolist(), reference
    c2 = np.empty(len(ks))
    for k0 in range(0, len(ks), len(a)):
        chunk = ks[k0:k0 + len(a)]
        for r0, r1, rows in _runs(chunk):
            dx, dy = a[r0:r1], b[r0:r1]
            np.subtract(xr[rows], x, out=dx)
            dx *= dx
            np.subtract(yr[rows], y, out=dy)
            dy *= dy
            dx += dy
        np.min(a[:len(chunk)], axis=1, out=c2[k0:k0 + len(chunk)])
    diag.chord_lo[np.subtract(ks, 1)] = np.where(
        c2 < _TINY_SQUARE, 0.0, np.sqrt(c2) * (1.0 - _CHORD_SLACK))
    return diag


def _z_ceiling(arc):
    """A float at or above the z = sin(min(a, 2 pi)/2) of every arc a <= arc.

    The half arc is clamped to pi/2 before the sine: an arc can pass pi,
    since the length is 2 pi only to 1e-6, and sin falls beyond pi/2.
    """
    half = np.minimum(0.5 * np.minimum(arc, 2.0 * np.pi), 0.5 * np.pi)
    return np.minimum(1.0, np.sin(half) * (1.0 + _CHORD_SLACK))


def _gap_lower_bounds(diag: _Diagonals, t: float) -> np.ndarray:
    """Per diagonal, a float at or below every gap on it at time t: the
    chord floor minus the profile at the z ceiling grown by _PROFILE_SLACK.

    Every bound is -inf where e^{-t} or 2 e^t overflows, as a profile can
    then be NaN: inf * 0 where z = 0 (a half arc that underflows), 0 * inf
    where e^{-t} z underflows.  Elsewhere e^{-t} z is finite for every z in
    [0, 1], every step of the pair recipe and of the profile is monotone up
    to the slacks, no bound is NaN, and no gap is NaN where its floor is
    finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(np.exp(-t) * (2.0 * np.exp(t))):
            return np.full(diag.chord_lo.size, -np.inf)
    return diag.chord_lo - _profile_of_z(diag.z_hi, t) * (1.0 + _PROFILE_SLACK)


def _pair_rows(diag: _Diagonals, ks: list, chord, z, back) -> None:
    """The time-independent half of the gaps of the diagonals ks, a list of
    ascending ints: for each, a row of n pairs (i, i + k), its chords in
    chord and its z = sin(arc/2) in z, with back as scratch; each run of
    consecutive diagonals is computed on window views.

    Every value is the triu scan's float: chord is hypot(v[j] - v[i]),
    which ignores the sign flip of a wrapped pair; the forward arc
    |s[j] - s[i]| is the triu difference; z = sin(arc/2) of the shorter arc
    as profile_value computes it.  The triu scan's cap of arcs at 2 pi
    never acts: a shorter arc is at most half the length, which is 2 pi to
    1e-6.
    """
    (xr, yr, sr), (x, y, s) = diag.rolled, diag.base
    for r0, r1, rows in _runs(ks):
        np.subtract(xr[rows], x, out=chord[r0:r1])
        np.subtract(yr[rows], y, out=z[r0:r1])
        np.hypot(chord[r0:r1], z[r0:r1], out=chord[r0:r1])
        np.subtract(sr[rows], s, out=z[r0:r1])
    np.abs(z, out=z)  # the forward arc
    np.subtract(diag.total, z, out=back)
    np.minimum(z, back, out=z)  # the shorter arc
    z *= 0.5
    np.sin(z, out=z)


def _row_gaps(chord, z, t: float, out) -> np.ndarray:
    """The gaps chord - profile(z, t) of pair rows, in out."""
    return np.subtract(chord, _profile_of_z(z, t, out=out), out=out)


@dataclass(frozen=True)
class TwoPointReport:
    """Result of a two-point gap scan at one snapshot; reference serves the run's next scan."""

    min_gap: float
    argmin_pair: tuple[int, int]
    reference: _Diagonals | None = field(default=None, compare=False, repr=False)


def _min_gap(diag: _Diagonals, t: float) -> tuple:
    """The smallest gap over all pairs at time t, and i * n + j of its pair
    (i < j: triu order is key order), by _fold_argmin's rule.

    Diagonals are evaluated exactly, _lowest_first of their bounds in chunks
    of up to a block, until the next bound is strictly above the smallest
    gap found (_floor_target), so no skipped pair can hold a smaller or an
    equal gap.  Once the minimum is NaN, the walk stops at the first finite
    bound, which rules out a NaN gap (_gap_lower_bounds).
    """
    n, best = diag.n, None
    for chunk, low in _lowest_first(_gap_lower_bounds(diag, t), len(diag.blocks[0])):
        if low > _floor_target(best):
            break
        ks = np.sort(chunk) + 1
        chord, z, gaps = (block[:ks.size] for block in diag.blocks)
        _pair_rows(diag, ks.tolist(), chord, z, gaps)
        _row_gaps(chord, z, t, gaps)

        def flat(r, i):  # the triu key of pair (i, i + ks[r] mod n)
            j = (i + ks[r]) % n
            return np.minimum(i, j) * n + np.maximum(i, j)

        best = _fold_argmin(best, gaps, flat)
    return best


def two_point_gap_scan(vertices: np.ndarray, time: float, offset: float,
                       previous: TwoPointReport | None = None) -> TwoPointReport:
    """Exact minimum of chord - profile(arc, time - offset) over all pairs.

    A cheap pass bounds the gaps of each cyclic diagonal from below, and
    diagonals are evaluated exactly, lowest bound first, until no skipped
    pair can hold a smaller or an equal gap (_min_gap).  Each gap is the
    same float as in a scan over np.triu_indices order, and among exact
    minima the pair (i, j), i < j, that comes first in that order is
    reported (the first NaN if any gap is NaN), so the result is that of an
    exhaustive scan.  Typically a few diagonals are evaluated, and the
    chord floors cost the most; given previous, the run's last report, a
    scan refreshes only those that could matter (_diagonals).  Where
    nothing can be pruned the bound pass is extra work: for time - offset
    > 709.08, where every gap is -inf or NaN, and where the bounds are weak
    (meshes far from uniform in arc length).  On small meshes the bound
    pass and the chunk loop are a fixed cost, which can make a scan slower
    than the exhaustive one.
    """
    diag = _diagonals(vertices, None if previous is None else previous.reference, time - offset)
    best, key = _min_gap(diag, time - offset)
    return TwoPointReport(best, divmod(key, diag.n), diag.reference or diag)


# Curvature-floor activation: squared-curvature excess below this, or below
# the estimator's roundoff 20 eps (n / 2 pi)^2 where that is larger, is
# treated as roundoff.  A regular n-gon has kappa = sin(pi/n)/(pi/n) < 1, but
# measures kappa_max - 1 = +1.2e-8 at n = 32768.
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
    up to roundoff (_FLOOR_ACTIVATION; circles at any n) have an inactive
    floor and return lo, every offset being pair-feasible for them.

    The floor is decided first: after the test of hi, one test at
    max(lo, floor) settles every curve whose floor binds.  Only if it fails
    does the bisection run, on [lo, hi] with the path and floats of a
    bisection alone, and return the larger of its result b and the floor.
    Where the floor lies in [pair threshold, b), a window narrower than
    OFFSET_TOL, the floor is returned rather than b: admissible and smaller.

    Each test decides the sign of the gap scan's minimum at time 0: it
    proves the diagonals whose bound is >= 0 and evaluates the others one
    row at a time, lowest bound first, up to the first row whose smallest
    gap is not >= 0 (a NaN gap fails, as it fails chord >= profile), so it
    is the test over all pairs, in one row of each block array.
    """
    v = validate_vertices(vertices)  # C-ordered, as _geometry needs
    diag = _diagonals(v)
    kappa = _geometry(v).curvature
    if not np.all(kappa > 0.0):
        raise ParameterError("admissible offset is defined for convex curves only")
    kappa_max = float(np.max(kappa))
    del kappa  # only the float stays alive across the search
    chord, z, gap = (block[:1] for block in diag.blocks)

    def feasible(offset: float) -> bool:
        t = -offset
        # _lowest_first's bounds are Python floats: array comparisons here
        # left lasting numpy dispatch-cache entries, which raised a run's
        # peak RSS in benchmarks
        for k, low in _lowest_first(_gap_lower_bounds(diag, t), 1):
            if low >= 0.0:
                break
            _pair_rows(diag, [int(k[0]) + 1], chord, z, gap)
            if not _row_gaps(chord[0], z[0], t, gap[0]).min() >= 0.0:
                return False
        return True

    lo, hi = OFFSET_BRACKET
    if not feasible(hi):
        raise NoAdmissibleOffsetError(
            f"no admissible offset in [{lo}, {hi}]: upper endpoint infeasible")
    floor = lo
    excess = kappa_max * kappa_max - 1.0
    roundoff = 20.0 * float(np.finfo(float).eps) * (v.shape[0] / (2.0 * np.pi)) ** 2
    if excess > max(_FLOOR_ACTIVATION, roundoff):
        floor = max(lo, float(0.5 * np.log(0.5 * excess)))
        if floor > hi:
            raise NoAdmissibleOffsetError(
                f"curvature floor {floor:.6g} exceeds search interval top {hi}")
    if feasible(floor):
        return floor
    a, b = lo, hi
    while b - a > OFFSET_TOL:
        mid = 0.5 * (a + b)
        a, b = (a, mid) if feasible(mid) else (mid, b)
    return max(b, floor)
