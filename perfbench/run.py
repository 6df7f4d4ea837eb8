"""icflow benchmark: time to a correct, fully checked result.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload instance is a sequence of ``icflow.cli.main`` calls executed
in a fresh interpreter (perfbench/child.py), one instance at a time, with
BLAS/OpenMP threads pinned to 1.  Instances repeat until ``--seconds`` have
passed (and at least a minimum number ran); every instance goes through the
correctness gate (perfbench/gate.py).

--trace 0 prints the end-to-end metrics: median wall time, set-up time and
peak RSS over the untraced instances.  --trace 1 alternates untraced and
traced instances, runs the step-kernel microbench, and prints the per-layer
metrics of BENCHMARK.json (medians over the traced instances).  Report lines
start with ``#``; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The gate evaluates two-point gaps with the icflow under test.
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

from gate import gate_set  # noqa: E402
from layertrace import span_metrics  # noqa: E402
from workloads import WORKLOADS, build_calls  # noqa: E402

CHILD = ROOT / "perfbench" / "child.py"
# Relative to ROOT, the children's working directory; every instance of a set
# writes to the same paths, so their summaries can be compared byte for byte.
WORK = ".perfbench_work"
INSTANCE_DIR = os.path.join(WORK, "instance")

THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
)}

MIN_UNTRACED = 3
MIN_TRACED = 2
# Children are stopped, and no instance starts that is expected to end, after
# this many seconds of a run, which keeps a run inside the 180 s it may take.
RUN_LIMIT_S = 160.0


def _child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def spawn(spec: dict, timeout: float) -> dict | None:
    """Run perfbench/child.py on ``spec``; ``None`` if it failed or timed out."""
    spec_path = ROOT / WORK / "spec.json"
    result_path = ROOT / WORK / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    result_path.unlink(missing_ok=True)
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(spec_path), str(result_path), repr(spawned_at)],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print(f"# child stopped after {timeout:.1f} s", flush=True)
        return None
    if proc.returncode != 0:
        print(f"# child exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}",
              flush=True)
        return None
    return json.loads(result_path.read_text(encoding="utf-8"))


def _read_text(path: str) -> str | None:
    try:
        return (ROOT / path).read_text(encoding="utf-8")
    except OSError:
        return None


def run_instance(calls: list[dict], traced: bool, timeout: float) -> dict | None:
    """One instance in a clean instance directory, with its result files attached."""
    shutil.rmtree(ROOT / INSTANCE_DIR, ignore_errors=True)
    (ROOT / INSTANCE_DIR).mkdir(parents=True)
    result = spawn({"kind": "instance", "calls": calls, "trace": traced}, timeout)
    if result is not None:
        for call, outcome in zip(calls, result["calls"]):
            if call["kind"] == "run":
                outcome["csv"] = _read_text(call["config"]["out"])
                outcome["summary"] = _read_text(call["summary"])
    shutil.rmtree(ROOT / INSTANCE_DIR, ignore_errors=True)
    return result


def _git_state() -> tuple[str | None, bool | None]:
    git_dir = ROOT / ".git"
    if not git_dir.exists():
        return None, None
    base = ["git", "--no-optional-locks", f"--git-dir={git_dir}", f"--work-tree={ROOT}"]
    try:
        rev = subprocess.run(base + ["rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
        status = subprocess.run(base + ["status", "--porcelain", "--untracked-files=no"],
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    if rev.returncode != 0 or status.returncode != 0:
        return None, None
    return rev.stdout.strip(), bool(status.stdout.strip())


def environment(seed: int) -> dict:
    revision, dirty = _git_state()
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_revision": revision,
        "git_dirty": dirty,
        "seed": seed,
        "loadavg_start": list(os.getloadavg()),
        "thread_env": THREAD_ENV,
    }


def run_set(workload: str, seed: int, seconds: float, trace: bool, deadline: float):
    """Instances until ``seconds`` pass; with ``trace`` they alternate
    untraced and traced.  Returns the calls, results and traced flags."""
    calls = build_calls(workload, seed, INSTANCE_DIR)
    results: list[dict | None] = []
    traced_flags: list[bool] = []
    start = time.monotonic()
    while True:
        traced = trace and len(results) % 2 == 1
        results.append(run_instance(calls, traced, deadline - time.monotonic()))
        traced_flags.append(traced)
        now = time.monotonic()
        per_instance = (now - start) / len(results)
        enough = (traced_flags.count(False) >= MIN_UNTRACED
                  and traced_flags.count(True) >= (MIN_TRACED if trace else 0))
        if now + per_instance > deadline or (enough and now - start >= seconds):
            return calls, results, traced_flags


def _summary_line(name: str, values: list[float], unit: str) -> str:
    return (f"# {name}: median {statistics.median(values):.6g} {unit}, "
            f"min {min(values):.6g}, max {max(values):.6g}, samples {len(values)}")


def end_to_end_metrics(results: list[dict]) -> dict[str, float]:
    metrics = {}
    for name in ("wall_s", "setup_s", "peak_rss_mb"):
        values = [r[name] for r in results]
        metrics[name] = statistics.median(values)
        print(_summary_line(name, values, "MB" if name == "peak_rss_mb" else "s"))
    return metrics


def per_layer_metrics(untraced: list[dict], traced: list[dict], micro: dict | None) -> dict:
    per_instance = [span_metrics(r["spans"], r["wall_s"]) for r in traced]
    metrics = {name: statistics.median(m[name] for m in per_instance)
               for name in per_instance[0]}
    metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                   - statistics.median(r["wall_s"] for r in untraced))
    absent = sorted(set(traced[0].get("absent", [])))
    for size in ("n256", "n512", "n1024"):
        entry = micro.get(size) if micro else None
        if entry is None:
            absent.append(f"flow.evolve_us_per_step.{size}")
            metrics[f"flow.evolve_us_per_step.{size}"] = 0.0
            continue
        metrics[f"flow.evolve_us_per_step.{size}"] = entry["us_per_step"]
        print(f"# flow.evolve_us_per_step.{size}: {entry['us_per_step']:.6g} us at "
              f"dt {entry['dt']:g}, starting smoothing order {entry['smoothing_order']}")
    print(_summary_line("wall_s untraced", [r["wall_s"] for r in untraced], "s"))
    print(_summary_line("wall_s traced", [r["wall_s"] for r in traced], "s"))
    if absent:
        print(f"# absent (reported as 0): {', '.join(absent)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "icflow" / "__init__.py").is_file():
        print(f"error: no icflow package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)

    deadline = time.monotonic() + RUN_LIMIT_S
    env = environment(args.seed)
    (ROOT / WORK).mkdir(exist_ok=True)
    try:
        micro = None
        if args.trace:
            micro = spawn({"kind": "microbench"}, deadline - time.monotonic())
            micro = micro and micro["microbench"]
        calls, results, traced_flags = run_set(
            args.workload, args.seed, args.seconds, bool(args.trace), deadline)
        problems = gate_set(calls, results)
    finally:
        shutil.rmtree(ROOT / WORK, ignore_errors=True)

    failed = sum(1 for found in problems if found)
    for index, found in enumerate(problems):
        if found:
            print(f"# instance {index} failed the gate: {'; '.join(found)}")
    print(f"# failed_frac: {failed / len(results):g} ({failed} of {len(results)} instances)")
    done = [(r, t) for r, t in zip(results, traced_flags) if r is not None]
    untraced = [r for r, t in done if not t]
    traced = [r for r, t in done if t]
    if not untraced or (args.trace and not traced):
        print("error: no instance completed", file=sys.stderr)
        return 1
    env["numpy"] = untraced[0]["numpy"]
    env["workload"] = args.workload
    print("# env " + json.dumps(env))

    if args.trace:
        values = per_layer_metrics(untraced, traced, micro)
        wanted = spec["per_layer"]
    else:
        values = end_to_end_metrics(untraced)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": len(results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
