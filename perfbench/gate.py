"""Correctness gate: every workload instance is checked, and a set of
instances of one workload and seed must agree byte for byte.

An instance fails when any call exits with a code other than 0, a run's
summary does not list every enabled check as ``pass``, a run's CSV does not
hold exactly ``floor(t_end / interval) + 1`` rows at strictly increasing
``t``, ``verify-profile`` does not report that all certificates hold, a
``tbar`` offset leaves a negative two-point gap at t = 0, or its outputs
differ from those of the set's first instance.
"""

from __future__ import annotations

import hashlib
import json
import math


def _csv_problems(text: str, t_end: float, interval: float) -> list[str]:
    rows = text.splitlines()[1:]
    want = math.floor(t_end / interval) + 1
    problems = []
    if len(rows) != want:
        problems.append(f"CSV has {len(rows)} rows, expected {want}")
    try:
        times = [float(row.split(",", 1)[0]) for row in rows]
    except ValueError:
        return problems + ["CSV t column is not numeric"]
    if any(b <= a for a, b in zip(times, times[1:])):
        problems.append("CSV t column is not strictly increasing")
    return problems


def _summary_problems(text: str, enabled: list[str]) -> list[str]:
    try:
        checks = json.loads(text)["checks"]
    except (ValueError, KeyError, TypeError):
        return ["summary is not a JSON object with a checks table"]
    problems = [f"check {name} is {checks.get(name, {}).get('status', 'missing')}"
                for name in enabled if checks.get(name, {}).get("status") != "pass"]
    extra = sorted(set(checks) - set(enabled))
    if extra:
        problems.append(f"summary lists checks that were not enabled: {extra}")
    return problems


def parse_tbar(stdout: str) -> float | None:
    try:
        return float(stdout.strip())
    except ValueError:
        return None


def instance_problems(calls: list[dict], result: dict | None) -> tuple[list[str], str]:
    """Problems of one instance, and a digest of its deterministic outputs.

    A run call's outcome carries the text of its CSV and summary under
    ``csv`` and ``summary`` (``None`` when the file is missing).
    """
    if result is None:
        return ["instance produced no result"], ""
    problems = []
    digest = hashlib.sha256()
    for call, outcome in zip(calls, result["calls"]):
        label = call["argv"][0]
        if outcome["exit"] != 0:
            problems.append(f"{label} exited with {outcome['exit']}")
        if call["kind"] == "run":
            config = call["config"]
            if outcome.get("csv") is None or outcome.get("summary") is None:
                problems.append(f"{label} did not write both result files")
                continue
            problems += _csv_problems(
                outcome["csv"], config["t_end"], config["snapshot_interval"])
            problems += _summary_problems(outcome["summary"], config["checks"])
            digest.update(outcome["csv"].encode("utf-8"))
            digest.update(outcome["summary"].encode("utf-8"))
        elif call["kind"] == "verify_profile":
            if "all profile certificates hold" not in outcome["stdout"].splitlines():
                problems.append("verify-profile did not certify the profile")
        elif call["kind"] == "tbar":
            if parse_tbar(outcome["stdout"]) is None:
                problems.append(f"tbar printed {outcome['stdout']!r}")
            digest.update(outcome["stdout"].encode("utf-8"))
    if len(result["calls"]) != len(calls):
        problems.append(f"{len(result['calls'])} of {len(calls)} calls returned")
    return problems, digest.hexdigest()


def tbar_gap(config: dict, offset: float) -> float:
    """Minimum two-point gap at t = 0 of the curve ``tbar`` measured, at ``offset``."""
    from icflow.comparison import two_point_gap_scan
    from icflow.curves import resample_uniform
    from icflow.experiment import build_initial_curve, config_from_dict
    from icflow.flow import renormalize

    parsed = config_from_dict(config)
    curve = renormalize(resample_uniform(build_initial_curve(parsed), parsed.n))
    return two_point_gap_scan(curve, 0.0, offset).min_gap


def gate_set(calls: list[dict], results: list[dict | None], gap=tbar_gap) -> list[list[str]]:
    """Problems of each instance of one set; an empty list means it passed."""
    checked = [instance_problems(calls, result) for result in results]
    problems = [found for found, _ in checked]
    first_digest = checked[0][1] if checked else ""
    for found, digest in checked[1:]:
        if digest != first_digest:
            found.append("outputs differ from the set's first instance")

    gaps: dict[tuple[int, float], float] = {}
    for index, call in enumerate(calls):
        if call["kind"] != "tbar":
            continue
        for found, result in zip(problems, results):
            if result is None or index >= len(result["calls"]):
                continue
            offset = parse_tbar(result["calls"][index]["stdout"])
            if offset is None:
                continue
            key = (index, offset)
            if key not in gaps:
                gaps[key] = gap(call["config"], offset)
            if not gaps[key] >= 0.0:
                found.append(f"tbar {offset!r} leaves two-point gap {gaps[key]!r} at t = 0")
    return problems
