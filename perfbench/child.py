"""One workload instance, or the step-kernel microbench, in a fresh interpreter.

Usage: python3 perfbench/child.py SPEC_JSON RESULT_JSON SPAWNED_AT

SPAWNED_AT is the parent's CLOCK_MONOTONIC reading just before it started
this process, so set-up time covers interpreter start, importing icflow and
validating the workload's configs.  The result JSON holds set-up and wall
time, this process's peak RSS, each call's exit code and stdout and, when
traced, the spans.
"""

import contextlib
import io
import json
import resource
import statistics
import sys
import time


def run_instance(spec: dict, spawned_at: float) -> dict:
    import icflow.cli
    import icflow.experiment
    for call in spec["calls"]:
        if call["config"] is not None:
            icflow.experiment.config_from_dict(call["config"])
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - spawned_at

    tracer = None
    if spec["trace"]:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()

    calls = []
    start = time.perf_counter()
    for call in spec["calls"]:
        argv = call["argv"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            if tracer is None:
                code = icflow.cli.main(argv)
            else:
                code = tracer.call("cli." + argv[0].replace("-", "_"), icflow.cli.main, argv)
        calls.append({"exit": code, "stdout": out.getvalue()})
    wall_s = time.perf_counter() - start

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calls": calls,
        "numpy": sys.modules["numpy"].__version__,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["absent"] = tracer.absent
    return result


MICROBENCH_SIZES = (256, 512, 1024)
MICROBENCH_STEPS = 200
MICROBENCH_ROUNDS = 9


def microbench() -> dict:
    """Public ``evolve`` with no observers on the normalized 2:1 ellipse.

    dt scales as 1/n^2 from the flagship's 1e-4 at n = 512, which keeps each
    size at the same starting smoothing order (the stability budget scales
    with the squared minimum edge).  The sizes take turns, round by round,
    so a change in machine speed during the bench touches all of them.
    """
    from icflow import flow
    from icflow.curves import compute_metrics, make_ellipse, resample_uniform

    cases = {}
    for n in MICROBENCH_SIZES:
        dt = 1e-4 * (512 / n) ** 2
        curve = flow.renormalize(resample_uniform(make_ellipse(2.0, 1.0, n), n))
        control = flow.StepControl(dt=dt)
        try:
            metrics = compute_metrics(curve)
            order = flow.smoothing_order(
                dt, float(metrics.edge_lengths.min()), float(metrics.curvature.min()),
                control.safety, control.max_smoothing)
        except AttributeError:
            order = None
        state = flow.initial_state(curve, "normalized")
        flow.evolve(state, control, 10 * dt)
        cases[n] = (state, control, dt, order, [])
    for _ in range(MICROBENCH_ROUNDS):
        for state, control, dt, order, samples in cases.values():
            start = time.perf_counter()
            flow.evolve(state, control, MICROBENCH_STEPS * dt)
            samples.append((time.perf_counter() - start) / MICROBENCH_STEPS)
    return {f"n{n}": {"us_per_step": 1e6 * statistics.median(samples),
                      "dt": dt, "smoothing_order": order}
            for n, (state, control, dt, order, samples) in cases.items()}


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    if spec["kind"] == "microbench":
        try:
            result = {"microbench": microbench()}
        except (ImportError, AttributeError):
            result = {"microbench": None}
    else:
        result = run_instance(spec, float(sys.argv[3]))
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
