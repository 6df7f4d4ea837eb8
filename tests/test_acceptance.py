"""End-to-end acceptance suite.

Each test grades one shipped guarantee at its stated tolerance and prints a
single ``ACCEPTANCE <name>: pass|FAIL`` line with the measured numbers.  The
flagship ellipse run (a/b = 2, n = 512, dt = 1e-4, both formulations to
t = 5) is executed twice through the real CLI and shared by the criteria
that grade it, including byte-level determinism of its output files.
"""

import json
import time

import numpy as np
import pytest

from icflow import cli
from icflow.bounds import (
    bonnesen_floor,
    curvature_sup_residual,
    decay_slope,
    derivative_ladder_check,
    derivative_noise_floors,
    l2_deficit_floor,
    snapshot_report,
)
from icflow.comparison import admissible_offset, profile_residual, two_point_gap_scan
from icflow.curves import compute_metrics, make_circle, make_ellipse, resample_uniform
from icflow.experiment import DEFAULT_TOLERANCES, config_from_dict, run_experiment
from icflow.flow import (
    StepControl,
    evolve,
    initial_state,
    polyline_hausdorff,
    renormalize,
)


def _grade(name: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'pass' if passed else 'FAIL'} ({detail})")
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="module")
def flagship(tmp_path_factory):
    """Run the flagship configuration twice through the CLI, byte-for-byte."""
    tmp = tmp_path_factory.mktemp("flagship")
    csv_path = tmp / "flagship.csv"
    summary_path = tmp / "flagship_summary.json"
    args = [
        "run", "--shape", "ellipse", "--a", "2", "--b", "1",
        "--n", "512", "--dt", "1e-4", "--t-end", "5", "--mode", "both",
        "--snapshot-interval", "0.1",
        "--out", str(csv_path), "--summary-out", str(summary_path),
    ]
    code_first = cli.main(args)
    csv_first = csv_path.read_bytes()
    summary_first = summary_path.read_bytes()
    code_second = cli.main(args)
    return {
        "codes": (code_first, code_second),
        "csv_bytes": (csv_first, csv_path.read_bytes()),
        "summary_bytes": (summary_first, summary_path.read_bytes()),
        "table": np.genfromtxt(csv_path, delimiter=",", names=True),
        "summary": json.loads(summary_first.decode("utf-8")),
    }


def test_criterion_1_profile_certificates(capsys):
    start = time.perf_counter()
    code = cli.main(["verify-profile"])
    elapsed = time.perf_counter() - start
    capsys.readouterr()  # absorb the certificate report
    limit_worst = max(abs(profile_residual(1e-6, t)) for t in (-3.0, 0.0, 3.0))
    passed = code == 0 and elapsed < 5.0 and limit_worst < 1e-5
    _grade(
        "profile_certificates", passed,
        f"exit {code}, {elapsed:.2f}s, worst residual at x=1e-6 {limit_worst:.3g}")


def test_criterion_2_circle_length_oracle():
    start = time.perf_counter()
    dt = 1e-3
    state = initial_state(make_circle(1.0, 512), "unnormalized")
    control = StepControl(dt=dt)
    step_error = 0.0
    for _ in range(5):
        radii_before = np.hypot(state.vertices[:, 0], state.vertices[:, 1])
        state = evolve(state, control, state.time + control.dt)
        radii_after = np.hypot(state.vertices[:, 0], state.vertices[:, 1])
        step_error = max(step_error, float(np.max(np.abs(
            radii_after - radii_before * (1.0 + dt)))))
    history = []
    evolve(
        initial_state(make_circle(1.0, 512), "unnormalized"),
        control, 1.0,
        observers=[lambda t, v, m: history.append((t, m.total_length))],
        snapshot_interval=0.25,
    )
    growth = history[-1][1] / history[0][1]
    elapsed = time.perf_counter() - start
    passed = step_error <= 1e-12 and abs(growth / np.e - 1.0) <= 1e-2 and elapsed < 10.0
    _grade(
        "circle_length_oracle", passed,
        f"per-step radius error {step_error:.3g}, L(1)/L(0) = {growth:.6f} "
        f"vs e = {np.e:.6f}, {elapsed:.2f}s")


def test_criterion_3_circle_fixed_point():
    start = time.perf_counter()
    control = StepControl(dt=1e-3)
    centered = initial_state(make_circle(1.0, 512), "normalized")
    reference = centered.vertices.copy()
    final = evolve(centered, control, 5.0)
    drift = polyline_hausdorff(final.vertices, reference)

    off_center = initial_state(make_circle(1.0, 512, center=(0.1, 0.0)), "normalized")
    settled = evolve(off_center, control, 3.0)
    v = settled.vertices
    center = snapshot_report(3.0, v, compute_metrics(v), 0.0)["center_norm"]
    expected = 0.1 * np.exp(-3.0)
    elapsed = time.perf_counter() - start
    passed = (
        drift < 1e-6
        and abs(center / expected - 1.0) < 0.1
        and elapsed < 10.0
    )
    _grade(
        "circle_fixed_point", passed,
        f"drift {drift:.3g}, center norm {center:.6g} vs {expected:.6g}, "
        f"{elapsed:.2f}s")


def test_criterion_4_flagship_bounds(flagship):
    table = flagship["table"]
    t = table["t"]
    offset = float(table["tbar"][0])
    worst_gap = float(np.min(table["min_Z"]))
    worst_sup = float(np.max(table["thm12_residual"]))
    kmin, kmax = table["kappa_min"], table["kappa_max"]
    drift = max(float(np.max(kmin[0] - kmin)), float(np.max(kmax - kmax[0])), 0.0)
    envelope = 2.0 * np.exp(-2.0 * (t - offset)) + 1e-3
    l2_excess = float(np.max(table["l2_deficit"] - envelope))
    l2_slope = decay_slope(
        t, table["l2_deficit"], 1.0, 5.0, floor=3.0 * l2_deficit_floor(512))
    bonnesen_slope = decay_slope(
        t, table["bonnesen_gap"], 1.0, 4.0, floor=bonnesen_floor(512))
    final_kappa_gap = max(abs(float(kmin[-1]) - 1.0), abs(float(kmax[-1]) - 1.0))
    parts = {
        "exit": flagship["codes"][0] == 0,
        "min_Z": worst_gap >= -5e-3,
        "sup": worst_sup <= 1e-2,
        "drift": drift <= 1e-3,
        "l2": l2_excess <= 0.0 and l2_slope <= -1.8,
        "bonnesen": bonnesen_slope <= -0.8,
        "round": final_kappa_gap <= 2e-2,
    }
    _grade(
        "flagship_bounds", all(parts.values()),
        f"min_Z {worst_gap:.3g}, sup {worst_sup:.3g}, drift {drift:.3g}, "
        f"l2 excess {l2_excess:.3g} slope {l2_slope:.3g}, "
        f"bonnesen slope {bonnesen_slope:.3g}, |kappa-1|(5) {final_kappa_gap:.3g}, "
        f"failing: {[k for k, ok in parts.items() if not ok] or 'none'}")


def test_criterion_5_derivative_ladder(flagship):
    table = flagship["table"]
    dk_floor, d2k_floor = derivative_noise_floors(512)
    report = derivative_ladder_check(
        table["t"], table["dkappa_max"], table["d2kappa_max"],
        floor=dk_floor, floor2=d2k_floor)
    excesses = [r for r in (report.excess_dkappa, report.excess_d2kappa)
                if np.isfinite(r)]
    passed = (
        bool(excesses)
        and all(r <= 1.5 for r in excesses)
        and report.late_slope <= -0.3
    )
    _grade(
        "derivative_ladder", passed,
        f"weighted excesses {[f'{r:.4g}' for r in excesses]} (cap 1.5), "
        f"late slope {report.late_slope:.3g} (cap -0.3)")


def test_criterion_6_refinement_study(tmp_path):
    start = time.perf_counter()

    def leg(n, dt):
        cfg = config_from_dict({
            "shape": "ellipse", "a": 2.0, "b": 1.0, "n": n, "dt": dt,
            "t_end": 1.0, "mode": "both", "snapshot_interval": 0.1,
            "out": str(tmp_path / f"refine_{n}.csv"),
        })
        return run_experiment(cfg)

    coarse = leg(512, 1e-4)
    fine = leg(1024, 5e-5)
    cross_coarse = coarse.summary["checks"]["cross_check"]["worst"]
    cross_fine = fine.summary["checks"]["cross_check"]["worst"]
    cross_ratio = cross_coarse / cross_fine
    drift_coarse = coarse.summary["checks"]["extrema_drift"]["worst"]
    drift_fine = fine.summary["checks"]["extrema_drift"]["worst"]
    if drift_coarse <= 1e-12 and drift_fine <= 1e-12:
        drift_ok, drift_note = True, "both at roundoff"
    else:
        drift_ok = drift_coarse / max(drift_fine, 1e-300) >= 1.8
        drift_note = f"ratio {drift_coarse / max(drift_fine, 1e-300):.3g}"

    # two-point gap convergence: measure the t = 0 gap on each mesh at one
    # common offset (the finest mesh's own), so the only thing that changes
    # between legs is the mesh spacing
    meshes = {
        n: renormalize(resample_uniform(make_ellipse(2.0, 1.0, n), n))
        for n in (512, 1024, 2048)
    }
    ref_offset = admissible_offset(meshes[2048])
    gaps = {
        n: two_point_gap_scan(v, 0.0, ref_offset).min_gap
        for n, v in meshes.items()
    }
    deficit_coarse = gaps[512] - gaps[2048]
    deficit_fine = gaps[1024] - gaps[2048]
    gap_ratio = deficit_coarse / deficit_fine
    elapsed = time.perf_counter() - start
    passed = (
        coarse.exit_code == 0 and fine.exit_code == 0
        and cross_ratio >= 1.8
        and drift_ok
        and deficit_fine > 0.0 and gap_ratio >= 1.8
        and elapsed < 300.0
    )
    _grade(
        "refinement_study", passed,
        f"cross-check ratio {cross_ratio:.4g}, extrema drift {drift_note}, "
        f"min_Z deficit ratio {gap_ratio:.4g}, {elapsed:.1f}s")


def test_criterion_7_negative_controls(tmp_path, capsys):
    code = cli.main([
        "run", "--shape", "perturbed_circle", "--amplitudes", "0.5",
        "--modes", "7", "--n", "128", "--dt", "1e-3", "--t-end", "1",
        "--out", str(tmp_path / "star.csv"),
    ])
    capsys.readouterr()
    ellipse = renormalize(make_ellipse(2.0, 1.0, 512))
    premature = two_point_gap_scan(ellipse, 0.0, 0.2).min_gap
    relaxed = curvature_sup_residual(compute_metrics(ellipse), 0.0, -50.0)
    passed = (
        code == 3
        and premature < 0.0
        and relaxed > DEFAULT_TOLERANCES["sup_bound"]
    )
    _grade(
        "negative_controls", passed,
        f"non-convex exit {code}, premature-offset gap {premature:.4g}, "
        f"relaxed sup residual {relaxed:.4g}")


def test_criterion_8_determinism(flagship):
    csv_a, csv_b = flagship["csv_bytes"]
    summary_a, summary_b = flagship["summary_bytes"]
    passed = (
        flagship["codes"][0] == flagship["codes"][1]
        and csv_a == csv_b
        and summary_a == summary_b
    )
    _grade(
        "determinism", passed,
        f"CSV {len(csv_a)} bytes {'==' if csv_a == csv_b else '!='} rerun, "
        f"summary {len(summary_a)} bytes "
        f"{'==' if summary_a == summary_b else '!='} rerun")
