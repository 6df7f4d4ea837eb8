"""Experiment configuration, orchestration, and result serialization.

An experiment builds an initial curve, computes its admissible comparison
offset, runs the requested flow formulation(s) with snapshot observers, and
grades every enabled check against its tolerance.  Results go to a
time-series CSV (fixed column order, 17-significant-digit floats, so runs
diff cleanly), a summary JSON that always lists every enabled check — even
when the run aborts mid-flow — and optional per-snapshot SVGs.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import dataclass, fields

import numpy as np

from . import bounds
from .comparison import admissible_offset, two_point_gap_scan
from .curves import (
    MAX_VERTICES,
    check_vertex_count,
    compute_metrics,
    convexity_check,
    make_circle,
    make_ellipse,
    make_perturbed_circle,
)
from .errors import (
    ConvexityLossError,
    FlowError,
    IcflowError,
    NoAdmissibleOffsetError,
    ParameterError,
)
from .flow import (
    StepControl,
    _renormalized,
    evolve,
    initial_state,
    polyline_hausdorff,
    renormalize,
)

CSV_HEADER = (
    "t,length,kappa_min,kappa_max,min_Z,tbar,thm12_residual,l2_deficit,"
    "dkappa_max,d2kappa_max,gn_ratio,bonnesen_gap,hausdorff,center_norm"
)
_COLUMNS = CSV_HEADER.split(",")

SHAPES = ("circle", "ellipse", "perturbed_circle")
RUN_MODES = ("normalized", "unnormalized", "both")

L2_SLOPE_BOUND = -1.8
L2_FIT_WINDOW = (1.0, 5.0)
# The derivative ladder calibrates its envelope constants over the first
# window and fits the late decay rate of max|Dkappa| over the second.
LADDER_CALIBRATION_WINDOW = (0.5, 2.0)
LADDER_LATE_WINDOW = (2.0, 5.0)
LADDER_LATE_SLOPE_BOUND = -0.3
BONNESEN_FIT_WINDOW = (1.0, 4.0)
GN_BASELINE_TIME = 0.5

# _geometry multiplies up to three lengths, so radius, a and b lie in
# SCALE_RANGE, and the initial size (max(a, b) for an ellipse, radius for a
# circle, radius (1 + sum |amplitudes|) for a perturbed circle), times
# e^{t_end} in an unnormalized run, stays at or below MAX_GROWN_SIZE, whose
# cube is still a float.
SCALE_RANGE = (1e-50, 1e50)
MAX_GROWN_SIZE = 1e100


@dataclass(frozen=True)
class RunSeries:
    """What the check graders read: the snapshot rows (at least one, keyed
    by CSV column), the unnormalized run's (time, raw length) pairs, the
    Hausdorff distances of the paired both-mode snapshots, and the mesh size."""

    rows: list
    raw_lengths: list
    cross_distances: list
    n: int

    def column(self, key: str) -> np.ndarray:
        return np.asarray([r[key] for r in self.rows], dtype=float)


# Each grader maps (series, tolerance) to (passed, worst, detail or None).

def _grade_min_z(s: RunSeries, tol: float):
    # On a polygon the raw minimum comes from an adjacent pair and equals
    # l^3 (1 + 2 e^{-2(t - tbar)}) / 24 for mesh width l: it measures the
    # mesh alone, so this check passes by construction (ROADMAP Finding 2).
    worst = float(np.min(s.column("min_Z")))
    return worst >= -tol, worst, None


def _grade_sup_bound(s: RunSeries, tol: float):
    worst = float(np.max(s.column("thm12_residual")))
    return worst <= tol, worst, None


def _grade_extrema_drift(s: RunSeries, tol: float):
    kmin = s.column("kappa_min")
    kmax = s.column("kappa_max")
    worst = max(float(np.max(kmin[0] - kmin)), float(np.max(kmax - kmax[0])), 0.0)
    return worst <= tol, worst, None


def _grade_l2_decay(s: RunSeries, tol: float):
    t = s.column("t")
    deficit = s.column("l2_deficit")
    envelope = 2.0 * np.exp(-2.0 * (t - s.rows[0]["tbar"])) + tol
    excess = float(np.max(deficit - envelope))
    slope = bounds.decay_slope(
        t, deficit, *L2_FIT_WINDOW, floor=3.0 * bounds.l2_deficit_floor(s.n))
    slope_ok = math.isnan(slope) or slope <= L2_SLOPE_BOUND
    return (excess <= 0.0 and slope_ok, excess,
            f"fitted slope {slope:.6g} (bound {L2_SLOPE_BOUND})")


def _grade_derivative_ladder(s: RunSeries, tol: float):
    # The envelopes max|Dkappa| max(1, sqrt t) and max|D2kappa| max(1, t)
    # carry unspecified constants, so each is calibrated as its largest
    # value in the calibration window, and the ratio of its largest later
    # value to that (its excess) is graded against tol.  Samples at or below
    # their noise floor count nowhere; an excess without samples on both
    # sides of the window's end, or NaN, is not graded.
    t = s.column("t")
    dk = s.column("dkappa_max")
    dk_floor, d2k_floor = bounds.derivative_noise_floors(s.n)
    lo, hi = LADDER_CALIBRATION_WINDOW
    ratios = []
    for raw, weight, floor in (
            (dk, np.maximum(1.0, np.sqrt(np.maximum(t, 0.0))), dk_floor),
            (s.column("d2kappa_max"), np.maximum(1.0, t), d2k_floor)):
        weighted = raw * weight
        calibration = (t >= lo - 1e-12) & (t <= hi + 1e-12) & (raw > floor)
        late = (t > hi + 1e-12) & (raw > floor)
        if np.any(calibration) and np.any(late):
            excess = float(np.max(weighted[late])) / float(np.max(weighted[calibration]))
            if not math.isnan(excess):
                ratios.append(excess)
    slope = bounds.decay_slope(t, dk, *LADDER_LATE_WINDOW, dk_floor)
    slope_ok = math.isnan(slope) or slope <= LADDER_LATE_SLOPE_BOUND
    return (all(r <= tol for r in ratios) and slope_ok, max(ratios) if ratios else None,
            f"late slope {slope:.6g} (bound {LADDER_LATE_SLOPE_BOUND})")


def _grade_gn_bound(s: RunSeries, tol: float):
    ratios = s.column("gn_ratio")
    valid = np.isfinite(ratios) & (s.column("t") >= GN_BASELINE_TIME - 1e-9)
    if not np.any(valid):
        return True, None, "no snapshots above noise floor"
    series = ratios[valid]
    worst = float(np.max(series) / series[0])
    return worst <= tol, worst, None


def _grade_bonnesen_decay(s: RunSeries, tol: float):
    slope = bounds.decay_slope(
        s.column("t"), s.column("bonnesen_gap"), *BONNESEN_FIT_WINDOW,
        floor=bounds.bonnesen_floor(s.n))
    if math.isnan(slope):
        return True, None, "gap at polygonization floor"
    return slope <= tol, slope, None


def _grade_convergence(s: RunSeries, tol: float):
    worst = s.rows[-1]["hausdorff"]
    return worst <= tol, worst, None


def _grade_length_law(s: RunSeries, tol: float):
    # worst relative deviation of the raw lengths from L_0 e^{t - t_0}
    if not s.raw_lengths:
        return False, None, "no unnormalized snapshots"
    t0, length0 = s.raw_lengths[0]
    worst = 0.0
    for t, length in s.raw_lengths:
        expected = length0 * np.exp(t - t0)
        worst = max(worst, abs(length - expected) / expected)
    worst = float(worst)
    return worst <= tol, worst, None


def _grade_cross_check(s: RunSeries, tol: float):
    if not s.cross_distances:
        return False, None, "no paired snapshots"
    worst = max(s.cross_distances)
    return worst <= tol, worst, None


# name -> (default tolerance, run modes that grade it, grader), in canonical order
CHECKS = {
    "min_Z": (5e-3, RUN_MODES, _grade_min_z),  # dip of the two-point gap below zero
    "sup_bound": (1e-2, RUN_MODES, _grade_sup_bound),  # squared-curvature envelope violation
    "extrema_drift": (1e-3, RUN_MODES, _grade_extrema_drift),  # curvature range escape
    "l2_decay": (1e-3, RUN_MODES, _grade_l2_decay),  # allowance on the L2-deficit envelope
    "derivative_ladder": (1.5, RUN_MODES, _grade_derivative_ladder),  # late/calibration cap
    "gn_bound": (10.0, RUN_MODES, _grade_gn_bound),  # interpolation ratio / its baseline
    "bonnesen_decay": (-0.8, RUN_MODES, _grade_bonnesen_decay),  # Bonnesen log-slope cap
    "convergence": (2e-2, RUN_MODES, _grade_convergence),  # final deviation from the circle
    "length_law": (1e-2, ("unnormalized", "both"), _grade_length_law),  # vs exponential growth
    "cross_check": (5e-3, ("both",), _grade_cross_check),  # gap between the formulations
}

DEFAULT_TOLERANCES = {name: tol for name, (tol, _, _) in CHECKS.items()}


def checks_for_mode(mode: str) -> tuple[str, ...]:
    """All check names applicable to a run mode, in canonical order."""
    return tuple(name for name, (_, modes, _) in CHECKS.items() if mode in modes)


@dataclass(frozen=True)
class ExperimentConfig:
    shape: str = "circle"
    radius: float = 1.0
    a: float = 2.0
    b: float = 1.0
    amplitudes: tuple[float, ...] = (0.05,)
    modes: tuple[int, ...] = (3,)
    seed: int = 0
    n: int = 512
    dt: float = 1e-4
    t_end: float = 5.0
    mode: str = "normalized"
    snapshot_interval: float = 0.1
    checks: tuple[str, ...] | None = None  # None = every check the mode supports
    tolerances: tuple[tuple[str, float], ...] = ()
    out: str = "run.csv"
    summary_out: str | None = None
    svg_dir: str | None = None
    resample_every: int = 10
    safety: float = 0.2

    def resolved_checks(self) -> tuple[str, ...]:
        allowed = checks_for_mode(self.mode)
        if self.checks is None:
            return allowed
        return tuple(name for name in allowed if name in self.checks)

    def resolved_tolerances(self) -> dict[str, float]:
        merged = dict(DEFAULT_TOLERANCES)
        merged.update(dict(self.tolerances))
        return merged

    def summary_path(self) -> str:
        if self.summary_out is not None:
            return self.summary_out
        root, _ = os.path.splitext(self.out)
        return root + "_summary.json"


_CONFIG_FIELDS = {f.name for f in fields(ExperimentConfig)}


def _finite_float(value) -> float | None:
    """value as a float if it is a finite real number (a bool is not), else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build and validate a config from plain JSON-style values."""
    unknown = set(data) - _CONFIG_FIELDS
    if unknown:
        raise ParameterError(f"unknown config keys: {sorted(unknown)}")
    merged = {f.name: getattr(ExperimentConfig, f.name) for f in fields(ExperimentConfig)}
    merged.update(data)

    if merged["shape"] not in SHAPES:
        raise ParameterError(f"shape must be one of {SHAPES}, got {merged['shape']!r}")
    if merged["mode"] not in RUN_MODES:
        raise ParameterError(f"mode must be one of {RUN_MODES}, got {merged['mode']!r}")
    for key in ("radius", "a", "b", "dt", "t_end", "snapshot_interval", "safety"):
        value = _finite_float(merged[key])
        if value is None or not value > 0.0:
            raise ParameterError(
                f"{key} must be a positive finite number, got {merged[key]!r}")
        merged[key] = value
    lo, hi = SCALE_RANGE
    for key in ("radius", "a", "b"):
        if not lo <= merged[key] <= hi:
            raise ParameterError(f"{key} must lie in [{lo:g}, {hi:g}], got {merged[key]!r}")
    if merged["snapshot_interval"] < merged["dt"]:
        raise ParameterError(
            f"snapshot_interval {merged['snapshot_interval']:g} is shorter than "
            f"dt {merged['dt']:g}; every snapshot needs a step of its own")
    for key in ("n", "seed", "resample_every"):
        value = merged[key]
        if not isinstance(value, int) or isinstance(value, bool):
            raise ParameterError(f"{key} must be an integer, got {value!r}")
    if merged["seed"] < 0:
        raise ParameterError(f"seed must be non-negative, got {merged['seed']}")
    amplitudes, modes = merged["amplitudes"], merged["modes"]
    if not isinstance(amplitudes, (list, tuple)) or any(
            _finite_float(x) is None for x in amplitudes):
        raise ParameterError(
            f"amplitudes must be a list of finite numbers, got {amplitudes!r}")
    # _finite_float also rejects bools and integers too large for a float
    if not isinstance(modes, (list, tuple)) or any(
            not isinstance(k, int) or _finite_float(k) is None for k in modes):
        raise ParameterError(f"modes must be a list of integers, got {modes!r}")
    if merged["shape"] == "perturbed_circle" and len(amplitudes) != len(modes):
        raise ParameterError(f"amplitudes and modes must pair up, got {amplitudes} vs {modes}")
    merged["amplitudes"] = tuple(float(x) for x in amplitudes)
    merged["modes"] = tuple(modes)
    size = {"circle": merged["radius"], "ellipse": max(merged["a"], merged["b"]),
            "perturbed_circle": merged["radius"] * (
                1.0 + sum(abs(x) for x in merged["amplitudes"]))}[merged["shape"]]
    # the unnormalized flow grows by e^t; the normalized one rescales
    growth = 0.0 if merged["mode"] == "normalized" else merged["t_end"]
    if math.log(size) + growth > math.log(MAX_GROWN_SIZE):
        raise ParameterError(
            f"the initial size {size:g} grows past {MAX_GROWN_SIZE:g} by "
            f"t_end = {merged['t_end']:g}" if growth else
            f"the initial size {size:g} exceeds {MAX_GROWN_SIZE:g}")

    if merged["checks"] is not None:
        requested = merged["checks"]
        if not isinstance(requested, (list, tuple)) or not all(
                isinstance(name, str) for name in requested):
            raise ParameterError(f"checks must be a list of check names, got {requested!r}")
        requested = tuple(requested)
        allowed = checks_for_mode(merged["mode"])
        known = tuple(CHECKS)
        for name in requested:
            if name not in known:
                raise ParameterError(f"unknown check {name!r} (known: {known})")
            if name not in allowed:
                raise ParameterError(
                    f"check {name!r} is not defined for mode {merged['mode']!r}")
        merged["checks"] = requested
    tols = merged["tolerances"]
    pairs = list(tols.items()) if isinstance(tols, dict) else tols
    if not isinstance(pairs, (list, tuple)) or not all(
            isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in pairs):
        raise ParameterError(
            f"tolerances must be a mapping or a list of (name, number) pairs, got {tols!r}")
    for name, value in pairs:
        if not isinstance(name, str) or name not in DEFAULT_TOLERANCES:
            raise ParameterError(f"tolerance for unknown check {name!r}")
        if _finite_float(value) is None:
            raise ParameterError(
                f"tolerance for {name!r} must be a finite number, got {value!r}")
    pairs = [(name, float(value)) for name, value in pairs]
    merged["tolerances"] = tuple(sorted(pairs) if isinstance(tols, dict) else pairs)

    if not isinstance(merged["out"], str) or not merged["out"]:
        raise ParameterError("out must be a non-empty path")
    for key in ("summary_out", "svg_dir"):
        if merged[key] is not None and not (isinstance(merged[key], str) and merged[key]):
            raise ParameterError(f"{key} must be a non-empty path or null")

    config = ExperimentConfig(**merged)
    # Let StepControl vet the stepping parameters up front (exit code 2
    # territory, not a mid-run surprise).
    StepControl(dt=config.dt, resample_every=config.resample_every, safety=config.safety)
    check_vertex_count(config.n)
    if config.n > MAX_VERTICES:
        raise ParameterError(f"n must be at most {MAX_VERTICES}, got {config.n}")
    return config


def load_config(path: str | None, overrides: dict | None = None) -> ExperimentConfig:
    """Read a JSON config file (optional) and apply flag overrides."""
    data: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ParameterError(f"cannot read config {path!r}: {exc}") from None
        # ValueError: malformed JSON, bad UTF-8 or an integer of over 4300
        # digits; RecursionError: arrays or objects nested too deeply
        except (ValueError, RecursionError) as exc:
            raise ParameterError(f"config {path!r} is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ParameterError("config file must hold a JSON object")
    if overrides:
        data.update({k: v for k, v in overrides.items() if v is not None})
    return config_from_dict(data)


def build_initial_curve(config: ExperimentConfig) -> np.ndarray:
    if config.shape == "circle":
        return make_circle(config.radius, config.n)
    if config.shape == "ellipse":
        return make_ellipse(config.a, config.b, config.n)
    return make_perturbed_circle(
        config.radius, config.n, config.amplitudes, config.modes, config.seed)


def initial_curve(config: ExperimentConfig) -> tuple[np.ndarray, float]:
    """The config's curve, n vertices on it at uniform arc length, and the
    admissible offset of its length-2*pi copy; ConvexityLossError at t = 0 if
    the curve is not strictly convex, ParameterError if the copy's mesh is
    too uneven for the t = 0 derivative monitor, NoAdmissibleOffsetError if
    no offset is admissible."""
    curve = build_initial_curve(config)
    if not convexity_check(curve):
        raise ConvexityLossError("initial curve is not strictly convex", time=0.0)
    unit = renormalize(curve)
    bounds.uniform_spacing(compute_metrics(unit), "raise n to resolve the initial curve")
    return curve, admissible_offset(unit)


@dataclass(frozen=True)
class ExperimentResult:
    exit_code: int
    summary: dict
    rows: list


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute a configured experiment and write its result files.

    Exit code semantics: 0 all enabled checks pass, 1 a check failed,
    3 the flow itself failed (the failing time is recorded in the summary).
    Any other package error raised while the flow runs, say by a snapshot
    monitor, also ends the run with exit 3 and both files; its time is that
    of the snapshot being observed (None outside an observer).
    Configuration problems, unwritable output paths and an initial mesh
    too uneven for the derivative monitors raise ParameterError before any
    step.

    With os.fork a run uses two cores (forked): a child runs the mode's
    last lane (the unnormalized formulation in both mode, which runs the
    normalized one here meanwhile) and sends each snapshot, then its
    failure record, to the observers here.  In normalized and unnormalized
    mode a snapshot's SVG document comes with it if the child rendered it,
    which it does while this process is behind on the pipe; else this
    process renders it, as in both mode and inline, and it writes each SVG
    after grading the snapshot.  A monitor failure kills the child.  A
    normalized failure (of the flow or a monitor) drops the unnormalized
    data; an unnormalized failure keeps its snapshots so far.
    A traced evolve keeps it all here, with the same floats.  Each
    unnormalized snapshot, rescaled to length 2*pi, is paired with the
    normalized one of the same time, and cross_check grades the largest
    Hausdorff distance of the pairs.  That is not independent evidence of
    accuracy.  The normalized Euler step at dt is algebraically the
    renormalized unnormalized step at dt/(1-dt), so the two discrete runs
    differ only by that O(dt) reparametrization of the clock, compounded
    over the run, plus the occasional step where the two step sizes select
    different smoothing orders near a threshold of the stability budget.
    The distance therefore shrinks under refinement, but it cannot detect
    an error the two formulations share.
    """
    enabled = config.resolved_checks()
    tolerances = config.resolved_tolerances()
    control = StepControl(
        dt=config.dt, resample_every=config.resample_every, safety=config.safety)

    rows: list[dict] = []
    raw_lengths: list[tuple[float, float]] = []
    stats_snaps: list[np.ndarray] = []
    cross_distances: list[float] = []
    offset: float | None = None
    failure: dict | None = None
    scan = None  # the last two-point scan, whose chord floors the next one reuses

    files = (config.out, config.summary_path())
    try:
        for directory in (*map(os.path.dirname, files), config.svg_dir):
            if directory:
                os.makedirs(directory, exist_ok=True)
    except OSError as exc:
        raise ParameterError(f"cannot create output directory: {exc}") from None
    for path in files:
        if os.path.isdir(path):
            raise ParameterError(f"output path {path!r} is a directory")

    try:
        initial, offset = initial_curve(config)
    except (ConvexityLossError, NoAdmissibleOffsetError) as exc:
        failure = {"error": type(exc).__name__, "message": str(exc), "time": 0.0}

    def monitored_view(vertices, metrics):  # the snapshot at length 2*pi
        if config.mode == "unnormalized":
            return _renormalized(vertices, metrics)
        return vertices, metrics

    def stats_observer(time, vertices, metrics, document=None):
        nonlocal scan
        view, view_metrics = monitored_view(vertices, metrics)
        scan = two_point_gap_scan(view, time, offset, scan)
        rows.append({
            "t": time,
            "length": metrics.total_length,
            "min_Z": scan.min_gap,
            "tbar": offset,
            **bounds.snapshot_report(time, view, view_metrics, offset),
        })
        if config.mode == "both":
            stats_snaps.append(view.copy())
        if config.svg_dir is not None:  # a forked child may have rendered it
            write_svg(os.path.join(config.svg_dir, f"snapshot_{len(rows) - 1:04d}.svg"),
                      svg_document(view, time) if document is None else document)

    def raw_observer(time, vertices, metrics, document=None):
        if config.mode == "both":  # paired with the normalized snapshot of its time
            cross_distances.append(polyline_hausdorff(
                _renormalized(vertices, metrics)[0], stats_snaps[len(raw_lengths)]))
        raw_lengths.append((time, metrics.total_length))

    def lane(formulation, *observers, stream=None):
        """Evolve one formulation, or with stream observe the snapshots that a
        forked child's lane sends; a package error's failure record, or None."""
        observing = None

        def observe(time, *snapshot):
            nonlocal observing
            observing = time
            for observer in observers:
                observer(time, *snapshot)
            observing = None

        try:
            if stream is None:
                evolve(initial_state(initial, formulation), control, config.t_end,
                       observers=[observe], snapshot_interval=config.snapshot_interval)
                return None
            for message in stream:  # each snapshot, then the failure record
                if isinstance(message, tuple):
                    observe(*message)
            return message
        except IcflowError as exc:
            return {"error": type(exc).__name__, "message": str(exc),
                    "time": exc.time if isinstance(exc, FlowError) else observing}

    # the lane a forked child may run, and the observers of its snapshots here
    last = "unnormalized" if config.mode == "both" else config.mode
    observers = {"normalized": (stats_observer,), "both": (raw_observer,),
                 "unnormalized": (raw_observer, stats_observer)}[config.mode]

    def child_lane(send, backlog):
        # a both-mode parent reads only after its own lane, and a pipe may
        # not hold every snapshot, so that child holds its records until its
        # lane ends; another child renders a snapshot's SVG while the parent
        # is behind (unread bytes in the pipe, or a pipe that cannot tell)
        # and leaves it to the parent once the parent has read all it sent
        held = []
        keep = held.append if config.mode == "both" else send
        render = config.mode != "both" and config.svg_dir is not None
        held.append(lane(last, lambda t, v, m: keep(
            (t, v, m, svg_document(monitored_view(v, m)[0], t))
            if render and backlog() != 0 else (t, v, m))))
        for message in held:
            send(message)

    # a traced evolve (it has __wrapped__) would record a child's calls in the child, unseen
    inline = not hasattr(os, "fork") or hasattr(evolve, "__wrapped__")
    if failure is None:
        from .forked import forked  # tbar and verify-profile never load it
        with (contextlib.nullcontext() if inline
              else forked(f"{last} formulation", child_lane)) as stream:
            if config.mode == "both":
                failure = lane("normalized", stats_observer)
            if failure is None:  # else a child is killed and its data dropped
                failure = lane(last, *observers, stream=stream)
    scan = None  # the writers below need no block arrays

    checks = _evaluate_checks(
        enabled, tolerances, RunSeries(rows, raw_lengths, cross_distances, config.n))

    if failure is not None:
        exit_code = 3
    elif all(c["status"] == "pass" for c in checks.values()):
        exit_code = 0
    else:
        exit_code = 1

    summary = {
        "config": _config_echo(config),
        "tbar": offset,
        "snapshots": len(rows),
        "status": "completed" if failure is None else "aborted",
        "failure": failure,
        "checks": checks,
        "exit_code": exit_code,
    }
    write_csv(config.out, rows)
    write_summary(config.summary_path(), summary)
    return ExperimentResult(exit_code=exit_code, summary=summary, rows=rows)


def _config_echo(config: ExperimentConfig) -> dict:
    echo = {}
    for f in fields(ExperimentConfig):
        value = getattr(config, f.name)
        if f.name == "tolerances":
            value = {k: v for k, v in sorted(value)}
        elif f.name == "checks":
            value = list(config.resolved_checks())
        elif isinstance(value, tuple):
            value = list(value)
        echo[f.name] = value
    return echo


def _evaluate_checks(enabled, tolerances, series: RunSeries) -> dict[str, dict]:
    checks: dict[str, dict] = {}
    for name in enabled:
        tol = tolerances[name]
        if series.rows:
            passed, worst, detail = CHECKS[name][2](series, tol)
        else:
            passed, worst, detail = False, None, "no snapshots collected"
        entry = {"status": "pass" if passed else "fail", "worst": worst, "tolerance": tol}
        if detail:
            entry["detail"] = detail
        checks[name] = entry
    return checks


def _format_float(value: float) -> str:
    return "%.17g" % value


def write_csv(path: str, rows: list[dict]) -> None:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join(_format_float(row[col]) for col in _COLUMNS))
    _write_text(path, "\n".join(lines) + "\n")


def write_summary(path: str, summary: dict) -> None:
    _write_text(path, serialize_json(summary) + "\n")


def serialize_json(obj) -> str:
    """Deterministic JSON with floats at 17 significant digits.

    The stdlib encoder serializes floats via repr (shortest round-trip),
    which is stable but not the fixed-width contract promised for result
    files; this tiny serializer keeps full control.  Non-finite floats map
    to null.
    """

    def emit(value, indent: int) -> str:
        pad = "  " * indent
        if value is None:
            return "null"
        if isinstance(value, bool) or isinstance(value, np.bool_):
            return "true" if value else "false"
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        if isinstance(value, (float, np.floating)):
            v = float(value)
            return _format_float(v) if math.isfinite(v) else "null"
        if isinstance(value, str):
            return json.dumps(value)
        if isinstance(value, dict):
            if not value:
                return "{}"
            inner = ",\n".join(
                f"{pad}  {json.dumps(str(k))}: {emit(v, indent + 1)}"
                for k, v in value.items())
            return "{\n" + inner + "\n" + pad + "}"
        if isinstance(value, (list, tuple)):
            if not len(value):
                return "[]"
            inner = ",\n".join(f"{pad}  {emit(v, indent + 1)}" for v in value)
            return "[\n" + inner + "\n" + pad + "]"
        raise TypeError(f"cannot serialize {type(value).__name__}")

    return emit(obj, 0)


# Vertices formatted by one %.  A process that renders an SVG then holds the
# float objects of one block at a time, not 2 n of them (48 KB at n = 1024,
# whose pymalloc pools stay in its memory), for about 1% more time.
SVG_BLOCK = 64


def svg_document(vertices: np.ndarray, time: float) -> str:
    """One snapshot as a closed path in a fixed [-2, 2]^2 viewbox.

    The y axis is flipped into mathematical orientation and a dashed unit
    circle is overlaid for reference.
    """
    coords = np.asarray(vertices).ravel()
    step = 2 * SVG_BLOCK
    # one % per block: the _format_float of each coordinate
    points = " L ".join(
        " L ".join(["%.17g %.17g"] * (len(block) // 2)) % tuple(block.tolist())
        for block in (coords[i:i + step] for i in range(0, len(coords), step)))
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="-2 -2 4 4">\n'
        f"  <!-- t = {_format_float(float(time))} -->\n"
        '  <g transform="scale(1,-1)">\n'
        '    <circle cx="0" cy="0" r="1" fill="none" stroke="#999999" '
        'stroke-width="0.01" stroke-dasharray="0.05 0.05"/>\n'
        f'    <path d="M {points} Z" fill="none" stroke="#1f6fb2" '
        'stroke-width="0.02"/>\n'
        "  </g>\n"
        "</svg>\n"
    )


def write_svg(path: str, document: str) -> None:
    """Write one snapshot's svg_document."""
    _write_text(path, document)


def _write_text(path: str, content: str) -> None:
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(content)
