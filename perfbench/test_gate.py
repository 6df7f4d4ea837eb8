"""Self-test of the benchmark: the correctness gate rejects corrupted results,
and every workload passes it once at reduced length.

Run from the repository root:

    python3 -m pytest -q perfbench/test_gate.py
"""

import json
import shutil

import pytest

import run as bench
from gate import gate_set
from layertrace import span_metrics
from workloads import RUN_CHECKS, WORKLOADS, build_calls

HEADER = "t,length,kappa_min,kappa_max,min_Z,tbar,thm12_residual,l2_deficit," \
         "dkappa_max,d2kappa_max,gn_ratio,bonnesen_gap,hausdorff,center_norm"


def _csv(times):
    return "\n".join([HEADER] + [f"{t!r}" + ",1" * 13 for t in times]) + "\n"


def _summary(status="pass", exit_code=0):
    return json.dumps({
        "status": "completed" if exit_code != 3 else "aborted",
        "checks": {name: {"status": status} for name in RUN_CHECKS["both"]},
        "exit_code": exit_code,
    })


def _flagship(csv_text, summary_text, exit_code=0):
    return {"calls": [{"exit": exit_code, "stdout": "", "csv": csv_text,
                       "summary": summary_text}]}


FLAGSHIP_CALLS = build_calls("flagship_short", 0, "unused")
GOOD_TIMES = [0.0, 0.1, 0.2, 0.30000000000000004, 0.4]


def _no_gap(config, offset):
    raise AssertionError("no tbar call in this workload")


def test_gate_accepts_a_clean_set():
    good = _flagship(_csv(GOOD_TIMES), _summary())
    assert gate_set(FLAGSHIP_CALLS, [good, good], gap=_no_gap) == [[], []]


def test_gate_rejects_a_duplicated_row():
    times = GOOD_TIMES[:2] + [GOOD_TIMES[1]] + GOOD_TIMES[2:]
    bad = _flagship(_csv(times), _summary())
    [problems] = gate_set(FLAGSHIP_CALLS, [bad], gap=_no_gap)
    assert any("rows" in p for p in problems)
    assert any("strictly increasing" in p for p in problems)


def test_gate_rejects_an_exit_3_summary():
    bad = _flagship(_csv(GOOD_TIMES[:2]), _summary(status="fail", exit_code=3), exit_code=3)
    [problems] = gate_set(FLAGSHIP_CALLS, [bad], gap=_no_gap)
    assert "run exited with 3" in problems
    assert "check min_Z is fail" in problems


def test_gate_rejects_outputs_that_differ_within_a_set():
    good = _flagship(_csv(GOOD_TIMES), _summary())
    other = _flagship(_csv(GOOD_TIMES).replace(",1", ",2"), _summary())
    assert gate_set(FLAGSHIP_CALLS, [good, other], gap=_no_gap)[1] == [
        "outputs differ from the set's first instance"]


def test_gate_rejects_a_negative_tbar_gap():
    calls = build_calls("certify", 0, "unused")
    result = {"calls": [
        {"exit": 0, "stdout": "all profile certificates hold\n"},
        {"exit": 0, "stdout": "0.5\n"},
        {"exit": 0, "stdout": "-0.25\n"},
    ]}
    [problems] = gate_set(calls, [result], gap=lambda config, offset: -1e-3)
    assert len([p for p in problems if "two-point gap" in p]) == 2


@pytest.fixture
def workdir():
    (bench.ROOT / bench.WORK).mkdir(exist_ok=True)
    yield
    shutil.rmtree(bench.ROOT / bench.WORK, ignore_errors=True)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_passes_the_gate_at_reduced_length(workload, workdir):
    calls = build_calls(workload, 3, bench.INSTANCE_DIR, short=True)
    results = [bench.run_instance(calls, traced, timeout=120.0) for traced in (False, True)]
    assert gate_set(calls, results) == [[], []]
    metrics = span_metrics(results[1]["spans"], results[1]["wall_s"])
    assert results[1]["absent"] == []
    if workload == "certify":
        assert metrics["comparison.admissible_offset.calls"] == 2
        assert metrics["cli.verify_profile.self_s"] > 0.0
    else:
        assert metrics["flow.steps"] == (2000 if workload == "flagship_short" else 200)
        assert metrics["comparison.two_point_gap_scan.calls"] == len(
            results[1]["calls"][0]["csv"].splitlines()) - 1
