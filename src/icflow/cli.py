"""Command-line interface.

Three subcommands: ``run`` executes a configured experiment, ``verify-profile``
checks the floats of the comparison profile's closed forms on a grid (the
identities they rest on are proved by the tests), and ``tbar`` prints the
admissible offset for a shape.  Exit codes: 0 pass, 1 check failure, 2
usage/config error, 3 runtime flow error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import fields

import numpy as np

from .comparison import numerator_grid_min, profile_residual, residual_certificate_scan
from .errors import DegenerateCurveError, FlowError, NoAdmissibleOffsetError, ParameterError
from .experiment import (
    RUN_MODES,
    SHAPES,
    ExperimentConfig,
    initial_curve,
    load_config,
    run_experiment,
)

CERTIFICATE_TOL = 1e-8  # permitted dip of any certified minimum below zero
LIMIT_TOL = 1e-5  # |residual| cap at the left edge of its domain
MAX_GRID_POINTS = 10**7  # per verify-profile grid axis


# config fields whose flags take comma-separated lists: (element type, description)
_LIST_FLAGS = {"amplitudes": (float, "numbers"), "modes": (int, "integers"),
               "checks": (str, "check names")}
_CHOICES = {"shape": SHAPES, "mode": RUN_MODES}
# tbar takes the fields that define the initial curve; run takes every field
# but tolerances, which only a config file sets
_TBAR_FIELDS = ("shape", "radius", "a", "b", "amplitudes", "modes", "seed", "n")


def _add_config_flags(parser: argparse.ArgumentParser, names) -> None:
    """One --flag per config field in names, typed by the field's default
    (a string where the default is None)."""
    for f in fields(ExperimentConfig):
        if f.name not in names:
            continue
        flag = "--" + f.name.replace("_", "-")
        if f.name in _LIST_FLAGS:
            parser.add_argument(flag, help="comma-separated " + _LIST_FLAGS[f.name][1])
        else:
            parser.add_argument(flag, choices=_CHOICES.get(f.name),
                                type=None if f.default is None else type(f.default))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icflow",
        description="Numerical laboratory for inverse curvature flow of "
                    "convex plane curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run", help="run a flow experiment and grade its checks")
    run_p.add_argument(
        "config", nargs="?", default=None, help="JSON config file (optional)")
    _add_config_flags(run_p, [f.name for f in fields(ExperimentConfig) if f.name != "tolerances"])
    run_p.set_defaults(handler=_handle_run)

    verify_p = sub.add_parser(
        "verify-profile",
        help="scan the comparison-profile positivity certificates")
    verify_p.add_argument("--x-min", type=float, default=1e-3)
    verify_p.add_argument("--x-max", type=float, default=math.pi)
    verify_p.add_argument("--x-step", type=float, default=1e-3)
    verify_p.add_argument("--t-min", type=float, default=-5.0)
    verify_p.add_argument("--t-max", type=float, default=5.0)
    verify_p.add_argument("--t-step", type=float, default=0.01)
    verify_p.set_defaults(handler=_handle_verify_profile)

    tbar_p = sub.add_parser(
        "tbar", help="print the admissible comparison offset for a shape")
    _add_config_flags(tbar_p, _TBAR_FIELDS)
    tbar_p.set_defaults(handler=_handle_tbar)
    return parser


def _parse_list(text: str, kind, what: str) -> tuple:
    try:
        return tuple(kind(part.strip()) for part in text.split(",") if part.strip())
    except ValueError:
        raise ParameterError(f"expected comma-separated {what}, got {text!r}") from None


def _collect_overrides(args: argparse.Namespace) -> dict:
    """The config fields given as flags, with list flags parsed."""
    overrides = {}
    for f in fields(ExperimentConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            if f.name in _LIST_FLAGS:
                value = _parse_list(value, *_LIST_FLAGS[f.name])
            overrides[f.name] = value
    return overrides


def _handle_run(args: argparse.Namespace) -> int:
    config = load_config(args.config, _collect_overrides(args))
    result = run_experiment(config)
    summary = result.summary

    if summary["tbar"] is not None:
        print("tbar = %.17g" % summary["tbar"])
    for name, entry in summary["checks"].items():
        worst = "n/a" if entry["worst"] is None else "%.6g" % entry["worst"]
        line = f"{name}: {entry['status']} (worst {worst}, tolerance " \
               f"{entry['tolerance']:.6g})"
        if "detail" in entry:
            line += f" [{entry['detail']}]"
        print(line)
    if summary["failure"] is not None:
        info = summary["failure"]
        when = "?" if info["time"] is None else "%.6g" % info["time"]
        print(f"flow aborted at t = {when}: {info['message']}", file=sys.stderr)
    print(f"wrote {config.out} and {config.summary_path()}")
    return result.exit_code


def _inclusive_grid(lo: float, hi: float, step: float) -> np.ndarray:
    steps = (hi - lo) / step + 1e-9
    # checked before anything is allocated; inf when the quotient overflows
    if not steps < MAX_GRID_POINTS - 1:
        raise ParameterError(
            f"grid too large: [{lo:g}, {hi:g}] at step {step:g} would have "
            f"{MAX_GRID_POINTS} points or more")
    count = int(math.floor(steps)) + 1
    grid = lo + step * np.arange(count)
    if grid[-1] < hi - 1e-12 * max(1.0, abs(hi)):
        grid = np.append(grid, hi)
    return grid


def _handle_verify_profile(args: argparse.Namespace) -> int:
    flags = (args.x_min, args.x_max, args.x_step, args.t_min, args.t_max, args.t_step)
    if not all(math.isfinite(value) for value in flags):
        raise ParameterError("grid bounds and steps must be finite numbers")
    if args.x_step <= 0.0 or args.t_step <= 0.0:
        raise ParameterError("grid steps must be positive")
    if args.x_min <= 0.0:
        raise ParameterError("--x-min must be positive; the residual domain is (0, pi]")
    if args.x_max > math.pi + 1e-12:
        raise ParameterError("--x-max beyond pi leaves the residual domain (0, pi]")
    if args.x_max < args.x_min or args.t_max < args.t_min:
        raise ParameterError("empty grid")

    x_grid = _inclusive_grid(args.x_min, min(args.x_max, math.pi), args.x_step)
    t_grid = _inclusive_grid(args.t_min, args.t_max, args.t_step)
    certificate = residual_certificate_scan(x_grid, t_grid)

    z_grid = np.linspace(0.0, 1.0, 1001)
    alphas = 10.0 ** _inclusive_grid(-3.0, 3.0, 0.01)
    numerator_min, numerator_at = numerator_grid_min(z_grid, alphas)

    limit_worst = max(
        abs(float(profile_residual(1e-6, s))) for s in (-3.0, 0.0, 3.0))

    at = " at (x, t) = (%.17g, %.17g)"
    # printed label, violation label, value, where it sits, and the interval
    # the value must lie in; a value passes only when it is also finite, so
    # that NaN and an overflowed +inf fail
    table = (
        ("residual min", "residual", certificate.min_residual,
         at % certificate.min_residual_at, -CERTIFICATE_TOL, math.inf),
        ("residual slope min", "closed-form slope", certificate.min_slope_closed,
         at % certificate.min_slope_closed_at, -CERTIFICATE_TOL, math.inf),
        ("A-polynomial min", "A-polynomial", numerator_min,
         " at (z, alpha) = (%.17g, %.17g)" % numerator_at, -CERTIFICATE_TOL, math.inf),
        ("limit residual max", "limit residual", limit_worst,
         " over t in {-3, 0, 3} at x = 1e-06", -math.inf, LIMIT_TOL),
    )
    violations = []
    for label, name, value, where, lowest, highest in table:
        print("%-23s = %.17g%s" % (label, value, where))
        if not (math.isfinite(value) and lowest <= value <= highest):
            violations.append("%s %.6g%s" % (name, value, where))

    if violations:
        for item in violations:
            print("violation:", item)
        return 1
    print("all profile certificates hold")
    return 0


def _handle_tbar(args: argparse.Namespace) -> int:
    print("%.17g" % initial_curve(load_config(None, _collect_overrides(args)))[1])
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built once per process: parsing leaves it
    unchanged, and a certify run calls main three times."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    try:
        return args.handler(args)
    except (ParameterError, DegenerateCurveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FlowError, NoAdmissibleOffsetError) as exc:
        print(f"flow error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
