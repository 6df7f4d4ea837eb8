"""Chord-arc comparison profile and the two-point gap monitor.

The profile

    profile(x, t) = 2 e^t arctan(e^{-t} sin(x/2))

is a lower barrier for chord lengths: on a suitably offset time scale, the
chord between any two points of the evolving curve stays above the profile
evaluated at their (shorter) arc distance.  This module evaluates the
profile, its derivatives, the residual of the barrier operator

    residual = (profile_x^2 - 1)/profile_xx - profile - profile_t

together with the positivity certificates for the residual and its x-slope,
computes the admissible time offset for a concrete curve, and scans the
two-point gap

    gap(i, j) = chord(i, j) - profile(arc(i, j), t - offset)

over all vertex pairs of a snapshot.

Both pair computations share one kernel: the scan is exhaustive, with no
pruning, and evaluates the n(n-1)/2 pairs as cyclic diagonals in
cache-sized blocks, so memory stays at a few blocks rather than O(n^2)
arrays.  Each pair's value is the float a plain np.triu_indices scan gives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .curves import compute_metrics, convexity_check, edge_lengths, validate_vertices
from .errors import NoAdmissibleOffsetError, ParameterError

# Below this argument the direct arctan(w) - w/(1+w^2) suffers cancellation;
# switch to the leading terms of its power series.
_SMALL_ARG = 1e-2
# Above this argument arctan is evaluated through its asymptotic expansion
# (avoids ever forming tan-like ratios near the pole).
_LARGE_ARG = 1e8

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


def _profile_of_z(z, t):
    """2 e^t arctan(e^{-t} z): the profile from z = sin(x/2).

    Once w = e^{-t} z exceeds _LARGE_ARG the arctan is replaced by
    pi/2 - 1/w.  When no w does, the np.where branches select arctan(w)
    everywhere and are skipped, which changes no value.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.asarray(np.exp(-t) * z)
        if np.max(w, initial=-np.inf) <= _LARGE_ARG:
            arct = np.arctan(w, out=w)
        else:
            big = w > _LARGE_ARG
            arct = np.where(
                big,
                0.5 * np.pi - 1.0 / np.where(big, w, 1.0),
                np.arctan(np.where(big, 0.0, w)),
            )
        arct *= 2.0 * np.exp(t)
        return arct


def profile_value(x, t):
    """The comparison profile 2 e^t arctan(e^{-t} sin(x/2)) for x in [0, 2pi].

    Stable for strongly negative t: once e^{-t} sin(x/2) exceeds 1e8 the
    arctan is replaced by pi/2 - 1/w, which is exact to well below double
    precision there.
    """
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
    with np.errstate(over="ignore", invalid="ignore"):
        alpha = np.exp(-2.0 * ta)
        z2 = z * z
        p = 1.0 + 2.0 * alpha - alpha * z2
        q = 1.0 + alpha * z2
        quotient = 2.0 * z * (1.0 + 2.0 * alpha + alpha * alpha * z2) / p
        out = quotient - 2.0 * profile_value(xa, ta) + 2.0 * z / q
    return _maybe_scalar(np.asarray(out), x, t)


def profile_residual_dx(x, t):
    """Closed-form x-derivative of profile_residual on (0, pi].

    Four rational terms over the factors q = 1 + alpha z^2 and
    p = 1 + 2 alpha - alpha z^2; every term carries cos(x/2), so the value
    vanishes identically at x = pi.
    """
    xa = _as_domain(x, 0.0, np.pi, "x")
    if np.any(xa <= 0.0):
        raise ParameterError("profile_residual_dx requires x > 0")
    ta = np.asarray(t, dtype=float)
    z = np.sin(0.5 * xa)
    c = np.cos(0.5 * xa)
    with np.errstate(over="ignore", invalid="ignore"):
        alpha = np.exp(-2.0 * ta)
        z2 = z * z
        a2 = alpha * alpha
        q = 1.0 + alpha * z2
        p = 1.0 + 2.0 * alpha - alpha * z2
        out = (
            -c / q
            - 2.0 * alpha * z2 * c / (q * q)
            + c * (1.0 + 2.0 * alpha + 3.0 * a2 * z2) / p
            + 2.0 * alpha * z2 * c * (1.0 + 2.0 * alpha + a2 * z2) / (p * p)
        )
    return _maybe_scalar(np.asarray(out), x, t)


def residual_dx_numerator(z, alpha):
    """Degree-8 even polynomial certifying the sign of profile_residual_dx.

    With q and p as in profile_residual_dx,

        profile_residual_dx = cos(x/2) * numerator / (q^2 p^2),

    so non-negativity of this polynomial on z in [0, 1], alpha > 0 settles
    the slope sign wherever cos(x/2) >= 0.  Evaluated in Horner form in z^2.
    """
    za = _as_domain(z, 0.0, 1.0, "z")
    aa = np.asarray(alpha, dtype=float)
    if np.any(aa <= 0.0):
        raise ParameterError("alpha must be positive")
    z2 = za * za
    c1 = aa * (2.0 + aa * (5.0 + 2.0 * aa))
    c2 = aa * aa * (8.0 + aa * (25.0 + 16.0 * aa))
    c3 = aa**3 * (-2.0 + aa * (3.0 + 6.0 * aa))
    c4 = -(aa**5)
    out = z2 * (c1 + z2 * (c2 + z2 * (c3 + z2 * c4)))
    return _maybe_scalar(np.asarray(out), z, alpha)


@dataclass(frozen=True)
class ProfileCertificate:
    """Grid minima backing the positivity claims about the residual.

    min_residual / min_slope_closed are minima of the closed forms over the
    full grid; min_slope_fd is the minimum of central finite differences of
    the residual (computed where the x +/- h stencil stays inside (0, pi]);
    max_slope_mismatch is the worst disagreement between the finite
    difference and the closed-form slope, a cross-validation of both.
    """

    min_residual: float
    min_residual_at: tuple[float, float]
    min_slope_fd: float
    min_slope_fd_at: tuple[float, float]
    min_slope_closed: float
    min_slope_closed_at: tuple[float, float]
    max_slope_mismatch: float


def residual_certificate_scan(
    x_values: np.ndarray,
    t_values: np.ndarray,
    fd_step: float = 1e-5,
) -> ProfileCertificate:
    """Scan the residual and its x-slope over an (x, t) grid.

    Iterates over t (vectorized in x) to keep memory flat on the large
    certification grids.  Raises if any x lies outside (0, pi].
    """
    x = np.asarray(x_values, dtype=float)
    t = np.asarray(t_values, dtype=float)
    if x.size == 0 or t.size == 0:
        raise ParameterError("empty certification grid")
    if np.any(x <= 0.0) or np.any(x > np.pi + _DOMAIN_SLACK):
        raise ParameterError("residual grid requires x in (0, pi]")
    h = float(fd_step)
    stencil = (x - h > 0.0) & (x + h <= np.pi + _DOMAIN_SLACK)
    xs = x[stencil]

    min_res = np.inf
    min_res_at = (np.nan, np.nan)
    min_fd = np.inf
    min_fd_at = (np.nan, np.nan)
    min_closed = np.inf
    min_closed_at = (np.nan, np.nan)
    max_mismatch = 0.0

    for tv in t:
        res = profile_residual(x, tv)
        i = int(np.argmin(res))
        if res[i] < min_res:
            min_res, min_res_at = float(res[i]), (float(x[i]), float(tv))

        closed = profile_residual_dx(x, tv)
        i = int(np.argmin(closed))
        if closed[i] < min_closed:
            min_closed, min_closed_at = float(closed[i]), (float(x[i]), float(tv))

        if xs.size:
            fd = (profile_residual(xs + h, tv) - profile_residual(xs - h, tv)) / (2.0 * h)
            i = int(np.argmin(fd))
            if fd[i] < min_fd:
                min_fd, min_fd_at = float(fd[i]), (float(xs[i]), float(tv))
            mism = float(np.max(np.abs(fd - profile_residual_dx(xs, tv))))
            if mism > max_mismatch:
                max_mismatch = mism

    return ProfileCertificate(
        min_residual=min_res,
        min_residual_at=min_res_at,
        min_slope_fd=min_fd,
        min_slope_fd_at=min_fd_at,
        min_slope_closed=min_closed,
        min_slope_closed_at=min_closed_at,
        max_slope_mismatch=max_mismatch,
    )


def numerator_grid_min(z_values, alphas) -> tuple[float, tuple[float, float]]:
    """Minimum of residual_dx_numerator over a (z, alpha) product grid."""
    z = np.asarray(z_values, dtype=float)
    a = np.asarray(alphas, dtype=float)
    vals = residual_dx_numerator(z[None, :], a[:, None])
    flat = int(np.argmin(vals))
    ai, zi = divmod(flat, z.size)
    return float(vals[ai, zi]), (float(z[zi]), float(a[ai]))


# Pairs per block of the all-pairs kernel: 2**15 doubles are 256 KB per
# array, so a block's handful of temporaries stays cache-resident.
_BLOCK_PAIRS = 1 << 15


def _pair_blocks(v: np.ndarray):
    """All vertex pairs of a validated polygon, one block at a time.

    Returns the total length and a generator of (k, chord, z) blocks; the
    block arrays are reused buffers, valid until the next block is drawn.
    Pairs are walked as cyclic diagonals (i, i + k mod n), k = 1..n//2, each
    unordered pair exactly once: the k = n/2 diagonal of an even n repeats
    itself after n/2 entries, so only i < n/2 is kept there.  A block holds
    rows k, k + 1, ... of width entries i = 0..width-1; its operands are
    views into the doubled coordinate and arc-length arrays, so no index
    arrays or gathers are built.  The values equal the triu scan's bit for
    bit: chord is hypot(v[j] - v[i]), and hypot ignores the sign flip of a
    wrapped pair; the forward arc |s[j] - s[i]| is the triu difference, and
    min(forward, total - forward) the shorter arc; z = sin(arc/2) with arc
    capped at 2 pi, as profile_value computes it.
    """
    n = v.shape[0]
    edge_len = edge_lengths(v)
    s = np.concatenate([[0.0], np.cumsum(edge_len[:-1])])
    total = float(np.sum(edge_len))
    x, y = v[:, 0], v[:, 1]
    # row k of each window view is the array rotated by k
    xk, yk, sk = (sliding_window_view(np.concatenate([a, a]), n) for a in (x, y, s))
    full = (n - 1) // 2  # diagonals that hold n distinct pairs
    rows = max(1, _BLOCK_PAIRS // n)
    spans = [(k, min(k + rows, full + 1), n) for k in range(1, full + 1, rows)]
    if n % 2 == 0:
        spans.append((n // 2, n // 2 + 1, n // 2))

    def blocks():
        buffers = [np.empty(rows * n) for _ in range(3)]
        for k0, k1, width in spans:
            shape = (k1 - k0, width)
            chord, z, back = (b[:shape[0] * shape[1]].reshape(shape) for b in buffers)
            np.subtract(xk[k0:k1, :width], x[:width], out=chord)
            np.subtract(yk[k0:k1, :width], y[:width], out=z)
            np.hypot(chord, z, out=chord)
            np.subtract(sk[k0:k1, :width], s[:width], out=z)
            np.abs(z, out=z)  # the forward arc
            np.subtract(total, z, out=back)
            np.minimum(z, back, out=z)
            np.minimum(z, 2.0 * np.pi, out=z)
            z *= 0.5
            yield k0, chord, np.sin(z, out=z)

    return total, blocks()


def _require_normalized_length(total: float) -> None:
    if abs(total - 2.0 * np.pi) > 1e-6 * 2.0 * np.pi:
        raise ParameterError(
            f"curve length {total:.12g} is not 2*pi; renormalize before comparing")


@dataclass(frozen=True)
class TwoPointReport:
    """Result of an exhaustive two-point gap scan at one snapshot."""

    time: float
    offset: float
    min_gap: float
    argmin_pair: tuple[int, int]


def two_point_gap_scan(vertices: np.ndarray, time: float, offset: float) -> TwoPointReport:
    """Exact minimum of chord - profile(arc, time - offset) over all pairs.

    Exhaustive, no pruning: every one of the n(n-1)/2 vertex pairs is
    evaluated, in cache-sized blocks of cyclic diagonals.  Each gap is the
    same float as in a scan over np.triu_indices order, and among exact
    minima the pair (i, j), i < j, that comes first in that order is
    reported, so the result does not depend on the blocking.
    """
    v = validate_vertices(vertices)
    n = v.shape[0]
    total, blocks = _pair_blocks(v)
    _require_normalized_length(total)
    t = time - offset
    best = np.inf
    best_key = n * n  # i * n + j of the reported pair; triu order is key order
    for k0, chord, z in blocks:
        gaps = _profile_of_z(z, t)
        np.subtract(chord, gaps, out=gaps)
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
        j = (i + k0 + r) % n
        key = int(np.min(np.minimum(i, j) * n + np.maximum(i, j)))
        if nan == np.isnan(best) and (nan or low == best):
            best_key = min(best_key, key)
        else:
            best, best_key = low, key
    return TwoPointReport(
        time=float(time),
        offset=float(offset),
        min_gap=float(best),
        argmin_pair=divmod(best_key, n),
    )


# Curvature-floor activation: squared-curvature excess below this is treated
# as roundoff (an exact polygonal circle measures kappa = 1 to ~1e-15).
_FLOOR_ACTIVATION = 1e-9


def admissible_offset(
    vertices: np.ndarray,
    lo: float = -50.0,
    hi: float = 50.0,
    tol: float = 1e-6,
) -> float:
    """Smallest offset making the initial curve admissible for the barrier.

    Two constraints are combined:

    * every vertex pair must satisfy chord >= profile(arc, -offset);
      feasibility is monotone in the offset (the profile falls as -offset
      drops), so the threshold is found by bisection on [lo, hi];
    * the coincident-point limit of the same family, which vertex pairs
      cannot sample below one mesh width: as arc -> 0 the pair constraint
      degenerates to max_kappa^2 <= 1 + 2 e^{2 offset}, i.e. a floor of
      0.5 log((max_kappa^2 - 1)/2).

    Without the floor a discrete scan systematically underestimates the
    offset on curves with curvature above 1 and the downstream sup-bound
    monitor starts from a violated state.  Curves with max curvature <= 1
    (circles) have an inactive floor and return lo, every offset being
    pair-feasible for them.

    Chords and sin(arc/2) are computed once, outside the bisection.  Each
    feasibility test walks the pair blocks and stops at the first violating
    one; the next test starts at that block.  The answer of every test, and
    with it the bisection path, is the same as over all pairs at once.
    """
    v = validate_vertices(vertices)
    if not convexity_check(v):
        raise ParameterError("admissible offset is defined for convex curves only")
    if not (lo < hi):
        raise ParameterError(f"empty search interval [{lo}, {hi}]")
    if not tol > 0.0:
        raise ParameterError("tolerance must be positive")

    total, blocks = _pair_blocks(v)
    _require_normalized_length(total)
    pairs = [(chord.copy(), z.copy()) for _, chord, z in blocks]
    start = 0

    def feasible(offset: float) -> bool:
        # one violating block decides; begin with the block that decided last
        nonlocal start
        for b in range(start, start + len(pairs)):
            chord, z = pairs[b % len(pairs)]
            if not np.all(chord >= _profile_of_z(z, -offset)):
                start = b % len(pairs)
                return False
        return True

    if not feasible(hi):
        raise NoAdmissibleOffsetError(
            f"no admissible offset in [{lo}, {hi}]: upper endpoint infeasible")
    if feasible(lo):
        threshold = lo
    else:
        a, b = lo, hi
        while b - a > tol:
            mid = 0.5 * (a + b)
            if feasible(mid):
                b = mid
            else:
                a = mid
        threshold = b

    kappa_max = float(np.max(compute_metrics(v).curvature))
    excess = kappa_max * kappa_max - 1.0
    if excess > _FLOOR_ACTIVATION:
        floor = 0.5 * np.log(0.5 * excess)
        if floor > hi:
            raise NoAdmissibleOffsetError(
                f"curvature floor {floor:.6g} exceeds search interval top {hi}")
        threshold = max(threshold, floor)
    return float(threshold)
