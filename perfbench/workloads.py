"""Workload definitions: a seed in, a list of ``icflow`` CLI calls out.

Each workload instance is a sequence of calls to ``icflow.cli.main``.  A call
carries its argv, the config dict the benchmark validates during set-up
(``None`` for calls without an experiment config), and what the correctness
gate expects of it.  Inputs depend only on the seed; the program receives
the generated argv and nothing else.
"""

from __future__ import annotations

import os
import random

# Amplitudes 0.03 and 0.01 on modes 3 and 5 keep the perturbed circle convex
# for every phase draw, so the seed varies the curve without ever producing
# an input that the flow rejects.
PERTURBATION = {"amplitudes": [0.03, 0.01], "modes": [3, 5]}

# The convergence check grades the distance to the unit circle at t = 5;
# shortened runs stop long before that, so it is the one check left out.
_SHAPE_CHECKS = [
    "min_Z", "sup_bound", "extrema_drift", "l2_decay", "derivative_ladder",
    "gn_bound", "bonnesen_decay", "length_law",
]
RUN_CHECKS = {
    "unnormalized": _SHAPE_CHECKS,
    "both": _SHAPE_CHECKS + ["cross_check"],
}

FLAGSHIP = {
    "shape": "ellipse", "a": 2.0, "b": 1.0, "n": 512, "dt": 1e-4,
    "mode": "both", "snapshot_interval": 0.1,
}
FLAGSHIP_T_END = 0.4
FULL_FLAGSHIP_T_END = 5.0

WORKLOADS = ("flagship_short", "snapshot_dense", "certify")


def _argv_for(command: str, config: dict) -> list[str]:
    argv = [command]
    for key, value in config.items():
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        argv += ["--" + key.replace("_", "-"), str(value)]
    return argv


def _run_call(config: dict, workdir: str) -> dict:
    config = dict(config, out=os.path.join(workdir, "run.csv"))
    return {
        "kind": "run",
        "argv": _argv_for("run", config),
        "config": config,
        "summary": os.path.join(workdir, "run_summary.json"),
    }


def _tbar_call(config: dict) -> dict:
    return {"kind": "tbar", "argv": _argv_for("tbar", config), "config": config}


def full_flagship_calls(workdir: str) -> list[dict]:
    """The flagship run at its full length, every check of its mode enabled."""
    return [_run_call(dict(FLAGSHIP, t_end=FULL_FLAGSHIP_T_END), workdir)]


def build_calls(workload: str, seed: int, workdir: str, short: bool = False) -> list[dict]:
    """The CLI calls of one instance of ``workload``; ``short`` shrinks every
    run to a few seconds for the benchmark's own test."""
    rng = random.Random(seed)
    if workload == "flagship_short":
        config = dict(FLAGSHIP, checks=RUN_CHECKS["both"],
                      t_end=0.1 if short else FLAGSHIP_T_END)
        return [_run_call(config, workdir)]
    if workload == "snapshot_dense":
        config = {
            "shape": "perturbed_circle", **PERTURBATION,
            "seed": rng.randrange(2**32), "n": 1024, "dt": 5e-5,
            "mode": "unnormalized", "checks": RUN_CHECKS["unnormalized"],
            "snapshot_interval": 1e-3,
            "t_end": 0.01 if short else 0.1,
            "svg_dir": os.path.join(workdir, "svg"),
        }
        return [_run_call(config, workdir)]
    if workload == "certify":
        n = 512 if short else 2048
        ellipse = {"shape": "ellipse", "a": rng.choice((1.5, 2.0, 4.0)), "b": 1.0, "n": n}
        circle = {"shape": "perturbed_circle", **PERTURBATION,
                  "seed": rng.randrange(2**32), "n": n}
        return [{"kind": "verify_profile", "argv": ["verify-profile"], "config": None},
                _tbar_call(ellipse), _tbar_call(circle)]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
