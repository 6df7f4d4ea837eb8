"""Record the full-length flagship run (ellipse 2:1, n = 512, dt = 1e-4,
both formulations, t = 5) once, ungated.

Usage (from the repository root):

    python3 perfbench/full_flagship.py

Prints the record and writes it to perfbench/results/full_flagship.json.
"""

import json
import shutil
import sys

import run as bench
from workloads import full_flagship_calls

OUT = bench.ROOT / "perfbench" / "results" / "full_flagship.json"


def main() -> int:
    env = bench.environment(seed=None)
    (bench.ROOT / bench.WORK).mkdir(exist_ok=True)
    try:
        calls = full_flagship_calls(bench.INSTANCE_DIR)
        result = bench.run_instance(calls, traced=False, timeout=900.0)
    finally:
        shutil.rmtree(bench.ROOT / bench.WORK, ignore_errors=True)
    if result is None:
        print("error: the flagship run produced no result", file=sys.stderr)
        return 1
    env["numpy"] = result["numpy"]
    record = {
        "argv": calls[0]["argv"],
        "exit": result["calls"][0]["exit"],
        "wall_s": result["wall_s"],
        "setup_s": result["setup_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "env": env,
    }
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
