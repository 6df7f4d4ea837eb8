"""Experiment orchestration, serialization contracts, and the CLI."""

import dataclasses
import functools
import json
import os
import shutil
import signal

import numpy as np
import pytest

from icflow import cli, experiment, flow
from icflow.comparison import residual_certificate_scan
from icflow.curves import MAX_VERTICES, make_ellipse
from icflow.errors import ParameterError, StepRejectedError
from icflow.experiment import (
    CSV_HEADER,
    DEFAULT_TOLERANCES,
    ExperimentConfig,
    build_initial_curve,
    checks_for_mode,
    config_from_dict,
    load_config,
    run_experiment,
    serialize_json,
    write_svg,
)

EXPECTED_HEADER = (
    "t,length,kappa_min,kappa_max,min_Z,tbar,thm12_residual,l2_deficit,"
    "dkappa_max,d2kappa_max,gn_ratio,bonnesen_gap,hausdorff,center_norm"
)


def circle_config(tmp_path, **extra):
    data = {
        "shape": "circle",
        "n": 64,
        "dt": 1e-3,
        "t_end": 0.5,
        "snapshot_interval": 0.1,
        "out": str(tmp_path / "run.csv"),
        "summary_out": str(tmp_path / "summary.json"),
    }
    data.update(extra)
    return config_from_dict(data)


def test_csv_header_is_a_frozen_contract():
    assert CSV_HEADER == EXPECTED_HEADER


def test_checks_for_mode_ordering():
    normalized = checks_for_mode("normalized")
    assert normalized == (
        "min_Z", "sup_bound", "extrema_drift", "l2_decay",
        "derivative_ladder", "gn_bound", "bonnesen_decay", "convergence",
    )
    assert checks_for_mode("unnormalized") == normalized + ("length_law",)
    assert checks_for_mode("both") == normalized + ("length_law", "cross_check")
    assert set(DEFAULT_TOLERANCES) == set(checks_for_mode("both"))


def test_config_defaults_round_trip():
    assert config_from_dict({}) == ExperimentConfig()
    cfg = ExperimentConfig()
    assert cfg.resolved_checks() == checks_for_mode("normalized")
    assert cfg.resolved_tolerances() == DEFAULT_TOLERANCES


def test_config_tolerance_override_merges():
    cfg = config_from_dict({"tolerances": {"min_Z": 1e-2}})
    merged = cfg.resolved_tolerances()
    assert merged["min_Z"] == 1e-2
    assert merged["convergence"] == DEFAULT_TOLERANCES["convergence"]
    # a list of pairs works too, and tolerances may be negative
    cfg = config_from_dict({"tolerances": [["bonnesen_decay", -1], ["min_Z", 1e-2]]})
    assert cfg.tolerances == (("bonnesen_decay", -1.0), ("min_Z", 1e-2))
    assert cfg.resolved_tolerances()["bonnesen_decay"] == -1.0


def test_config_check_subset_keeps_canonical_order():
    cfg = config_from_dict({"checks": ["convergence", "min_Z"]})
    assert cfg.resolved_checks() == ("min_Z", "convergence")


@pytest.mark.parametrize(
    "data",
    [
        {"frequency": 3},
        {"shape": "square"},
        {"mode": "renormalized"},
        {"dt": 0.0},
        {"dt": -1e-3},
        {"t_end": 0},
        {"n": 8},
        {"n": True},
        {"n": 64.0},
        {"safety": 2.0},
        {"resample_every": 0},
        {"checks": ["length_law"]},  # normalized mode has no length law
        {"checks": ["bogus"]},
        {"tolerances": {"bogus": 1.0}},
        {"out": ""},
        {"amplitudes": "big"},
        {"seed": -1},  # reached numpy's default_rng and ended in a traceback
    ],
    ids=lambda d: next(iter(d)),
)
def test_config_rejects_bad_values(data):
    with pytest.raises(ParameterError):
        config_from_dict(data)


@pytest.mark.parametrize(
    "data",
    [{"t_end": float("inf")}, {"dt": float("nan")}, {"radius": float("-inf")},
     {"snapshot_interval": 10**400}],
    ids=["t_end_inf", "dt_nan", "radius_neg_inf", "snapshot_interval_huge_int"],
)
def test_config_rejects_non_finite_numbers(data):
    with pytest.raises(ParameterError, match=next(iter(data))):
        config_from_dict(data)


@pytest.mark.parametrize(
    "data,message",
    [
        ({"tolerances": [["min_Z", "abc"]]}, "tolerance for 'min_Z'"),
        ({"tolerances": 5}, "tolerances must be"),
        ({"checks": 5}, "checks must be"),
        ({"tolerances": {"min_Z": True}}, "tolerance for 'min_Z'"),
        ({"tolerances": {"min_Z": float("inf")}}, "tolerance for 'min_Z'"),
        ({"radius": True}, "radius must be"),
        ({"amplitudes": [True]}, "amplitudes must be"),
        ({"amplitudes": [10**400]}, "amplitudes must be"),
        ({"modes": [True]}, "modes must be"),
        ({"modes": [3.7]}, "modes must be"),
        ({"modes": [1e400]}, "modes must be"),
    ],
    ids=["tolerance_string", "tolerances_number", "checks_number", "tolerance_bool",
         "tolerance_inf", "radius_bool", "amplitudes_bool", "amplitudes_huge_int",
         "modes_bool", "modes_fraction", "modes_inf"],
)
def test_malformed_config_files_exit_2_and_write_nothing(data, message, tmp_path, capsys):
    # each of these once ended in a traceback (exit 1) or was silently accepted
    with pytest.raises(ParameterError, match=message):
        config_from_dict(data)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(data, shape="circle", n=32, t_end=0.1)))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "run.csv")]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_cli_flags_map_onto_config_fields():
    args = cli.build_parser().parse_args([
        "run", "--shape", "ellipse", "--radius", "1.5", "--a", "3", "--b", "2", "--n", "64",
        "--dt", "1e-3", "--t-end", "0.5", "--mode", "both", "--snapshot-interval", "0.1",
        "--out", "x.csv", "--summary-out", "s.json", "--svg-dir", "d", "--seed", "4",
        "--amplitudes", "0.03, 0.01", "--modes", "3,5", "--checks", "min_Z, cross_check",
        "--resample-every", "7", "--safety", "0.3"])
    assert cli._collect_overrides(args) == {
        "shape": "ellipse", "radius": 1.5, "a": 3.0, "b": 2.0, "amplitudes": (0.03, 0.01),
        "modes": (3, 5), "seed": 4, "n": 64, "dt": 1e-3, "t_end": 0.5, "mode": "both",
        "snapshot_interval": 0.1, "checks": ("min_Z", "cross_check"), "out": "x.csv",
        "summary_out": "s.json", "svg_dir": "d", "resample_every": 7, "safety": 0.3}
    # tbar leaves shape to the config default
    args = cli.build_parser().parse_args(["tbar", "--n", "64", "--modes", "4"])
    assert load_config(None, cli._collect_overrides(args)) == config_from_dict(
        {"shape": "circle", "modes": [4], "n": 64})


def test_cli_run_with_infinite_t_end_exits_2_before_any_work(tmp_path, capsys):
    # inf - inf is NaN in the evolve loop test: the run took no step and
    # reported convergence: pass
    code = cli.main([
        "run", "--shape", "circle", "--n", "32", "--dt", "1e-3", "--t-end", "inf",
        "--snapshot-interval", "1", "--out", str(tmp_path / "run.csv"),
    ])
    assert code == 2
    assert "t_end" in capsys.readouterr().err
    assert not (tmp_path / "run.csv").exists()


@pytest.mark.parametrize("flags", [
    ["--out", "D"], ["--out", "F/r.csv"], ["--summary-out", ""],
    ["--svg-dir", "F"], ["--svg-dir", ""],
], ids=["out_is_a_directory", "out_below_a_file", "empty_summary_out",
        "svg_dir_is_a_file", "empty_svg_dir"])
def test_unwritable_output_paths_exit_2_before_any_step(flags, tmp_path, monkeypatch, capsys):
    # each once ran the flow, or wrote the CSV alone, then ended in a traceback
    monkeypatch.chdir(tmp_path)
    (tmp_path / "D").mkdir()
    (tmp_path / "F").write_text("")

    def no_step(*args, **kwargs):
        raise AssertionError("the flow ran")

    monkeypatch.setattr(experiment, "evolve", no_step)
    assert cli.main(["run", "--n", "16", "--t-end", "0.01", "--dt", "0.01", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["D", "F"]


def test_snapshot_interval_shorter_than_dt_is_rejected(tmp_path, capsys):
    with pytest.raises(ParameterError, match="snapshot_interval"):
        config_from_dict({"dt": 1e-3, "snapshot_interval": 2.5e-4})
    code = cli.main([
        "run", "--shape", "circle", "--n", "64", "--dt", "1e-3",
        "--snapshot-interval", "2.5e-4", "--t-end", "0.003", "--mode", "normalized",
        "--out", str(tmp_path / "run.csv"),
    ])
    assert code == 2
    assert "snapshot_interval" in capsys.readouterr().err
    assert not (tmp_path / "run.csv").exists()


def test_snapshot_interval_equal_to_dt_writes_each_time_once(tmp_path):
    result = run_experiment(circle_config(tmp_path, snapshot_interval=1e-3, t_end=0.003))
    assert [row["t"] for row in result.rows] == pytest.approx([0.0, 0.001, 0.002, 0.003])


def test_load_config_file_with_overrides(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"shape": "ellipse", "n": 64, "dt": 1e-3}))
    cfg = load_config(str(path), {"n": 128, "t_end": 1.0, "mode": None})
    assert cfg.shape == "ellipse"
    assert cfg.n == 128  # flag beats file
    assert cfg.t_end == 1.0
    assert cfg.mode == "normalized"  # None overrides are ignored


def test_load_config_error_paths(tmp_path):
    with pytest.raises(ParameterError):
        load_config(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParameterError):
        load_config(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ParameterError):
        load_config(str(arr))


@pytest.mark.parametrize(
    "text",
    ['{"n": ' + "9" * 5000 + "}", "[" * 100000 + "]" * 100000],
    ids=["over_long_integer", "deep_nesting"],
)
def test_config_files_json_cannot_load_exit_2(text, tmp_path, capsys):
    # json raises a ValueError that is not a JSONDecodeError for integers of
    # over 4300 digits, and a RecursionError for deep nesting; both once
    # escaped as tracebacks with exit 1
    path = tmp_path / "config.json"
    path.write_text(text)
    with pytest.raises(ParameterError, match="not valid JSON"):
        load_config(str(path))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "run.csv")]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_build_initial_curve_dispatch():
    circle = build_initial_curve(config_from_dict({"shape": "circle", "radius": 2.0, "n": 32}))
    assert circle.shape == (32, 2)
    assert np.max(np.abs(np.hypot(circle[:, 0], circle[:, 1]) - 2.0)) < 1e-12
    ellipse = build_initial_curve(config_from_dict({"shape": "ellipse", "a": 2.0, "b": 1.0, "n": 32}))
    assert np.max(np.abs((ellipse[:, 0] / 2.0) ** 2 + ellipse[:, 1] ** 2 - 1.0)) < 1e-12
    wavy = build_initial_curve(config_from_dict(
        {"shape": "perturbed_circle", "amplitudes": [0.05], "modes": [3], "seed": 4, "n": 32}))
    assert wavy.shape == (32, 2)


def test_circle_run_completes_and_reports(tmp_path):
    cfg = circle_config(tmp_path)
    result = run_experiment(cfg)
    assert result.exit_code == 0
    assert result.summary["status"] == "completed"
    assert result.summary["tbar"] == -50.0  # circle saturates the search bracket
    assert result.summary["snapshots"] == len(result.rows) == 6
    lines = (tmp_path / "run.csv").read_text().splitlines()
    assert lines[0] == EXPECTED_HEADER
    assert len(lines) == 7
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["exit_code"] == 0
    assert list(summary["checks"]) == list(checks_for_mode("normalized"))
    for entry in summary["checks"].values():
        assert entry["status"] == "pass"
        assert "tolerance" in entry
    assert summary["config"]["n"] == 64
    # snapshot rows expose every column by header name
    assert set(result.rows[0]) == set(EXPECTED_HEADER.split(","))
    times = [row["t"] for row in result.rows]
    assert times == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4, 0.5], abs=1e-12)


def test_run_is_byte_deterministic(tmp_path):
    cfg = circle_config(tmp_path, t_end=0.3)
    run_experiment(cfg)
    first_csv = (tmp_path / "run.csv").read_bytes()
    first_summary = (tmp_path / "summary.json").read_bytes()
    run_experiment(cfg)
    assert (tmp_path / "run.csv").read_bytes() == first_csv
    assert (tmp_path / "summary.json").read_bytes() == first_summary


def test_nonconvex_initial_curve_aborts_cleanly(tmp_path):
    cfg = circle_config(
        tmp_path, shape="perturbed_circle", amplitudes=[0.5], modes=[7], seed=0)
    result = run_experiment(cfg)
    assert result.exit_code == 3
    assert result.summary["status"] == "aborted"
    assert result.summary["failure"]["time"] == 0.0
    assert result.summary["tbar"] is None
    for entry in result.summary["checks"].values():
        assert entry["status"] == "fail"
        assert entry["detail"] == "no snapshots collected"
    # the CSV still exists, holding just the header
    assert (tmp_path / "run.csv").read_text() == EXPECTED_HEADER + "\n"
    # and the summary is valid JSON with the failure recorded
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["failure"]["error"] == "ConvexityLossError"


def test_an_initial_mesh_too_uneven_for_the_derivative_monitors_exits_2(tmp_path, capsys):
    # resampled to 17 vertices, this ellipse has edges spreading by 1
    # relative to their mean, which the t = 0 derivative monitor rejects
    flags = ["--shape", "ellipse", "--a", "9e4", "--b", "1", "--n", "17"]
    message = ("error: mesh is not uniform (relative spread 1); "
               "raise n to resolve the initial curve\n")
    out = tmp_path / "r.csv"
    assert cli.main(["run", *flags, "--t-end", "0.01", "--dt", "1e-3", "--out", str(out)]) == 2
    assert capsys.readouterr().err == message
    assert not out.exists()
    assert cli.main(["tbar", *flags]) == 2
    assert capsys.readouterr().err == message


def test_unnormalized_run_reports_raw_length(tmp_path):
    cfg = circle_config(tmp_path, mode="unnormalized")
    result = run_experiment(cfg)
    assert result.exit_code == 0
    lengths = np.array([row["length"] for row in result.rows])
    times = np.array([row["t"] for row in result.rows])
    expected = lengths[0] * np.exp(times)
    assert np.max(np.abs(lengths / expected - 1.0)) < 1e-2
    assert result.summary["checks"]["length_law"]["status"] == "pass"


def test_both_mode_adds_cross_check(tmp_path):
    cfg = circle_config(tmp_path, mode="both", t_end=0.3)
    result = run_experiment(cfg)
    assert result.exit_code == 0
    cross = result.summary["checks"]["cross_check"]
    assert cross["status"] == "pass"
    assert cross["worst"] < 1e-10  # circles make both formulations identical


def test_svg_snapshots_are_written(tmp_path):
    cfg = circle_config(tmp_path, t_end=0.2, svg_dir=str(tmp_path / "frames"))
    run_experiment(cfg)
    frames = sorted((tmp_path / "frames").glob("*.svg"))
    assert [f.name for f in frames] == [
        "snapshot_0000.svg", "snapshot_0001.svg", "snapshot_0002.svg"]
    body = frames[0].read_text()
    assert 'viewBox="-2 -2 4 4"' in body
    assert 'transform="scale(1,-1)"' in body
    assert "stroke-dasharray" in body  # reference unit circle overlay


def test_write_svg_directly(tmp_path):
    path = tmp_path / "nested" / "curve.svg"
    write_svg(str(path), np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]), 0.25)
    body = path.read_text()
    assert body.startswith("<svg ")
    assert "t = 0.25" in body


def svg_as_first_written(vertices, time):
    # write_svg's document as it was built with one f-string per vertex
    fmt = "%.17g".__mod__
    points = " L ".join(f"{fmt(x)} {fmt(y)}" for x, y in np.asarray(vertices))
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="-2 -2 4 4">\n'
        f"  <!-- t = {fmt(float(time))} -->\n"
        '  <g transform="scale(1,-1)">\n'
        '    <circle cx="0" cy="0" r="1" fill="none" stroke="#999999" '
        'stroke-width="0.01" stroke-dasharray="0.05 0.05"/>\n'
        f'    <path d="M {points} Z" fill="none" stroke="#1f6fb2" '
        'stroke-width="0.02"/>\n'
        "  </g>\n"
        "</svg>\n"
    )


def test_write_svg_bytes_match_the_per_vertex_formatting(tmp_path):
    rng = np.random.default_rng(5)
    curves = [
        flow.renormalize(make_ellipse(2.0, 1.0, 64)),
        rng.normal(size=(1024, 2)) * 10.0 ** rng.integers(-300, 300, size=(1024, 2)),
        np.array([[0.0, -0.0], [1e-320, 1.0], [-1.5, 3.0], [2.0, 2.0]]),
    ]
    for k, (v, time) in enumerate(zip(curves, [0.1, 1e-3 * 7, 5.0])):
        path = tmp_path / f"{k}.svg"
        write_svg(str(path), v, time)
        assert path.read_bytes() == svg_as_first_written(v, time).encode("utf-8")


def test_serialize_json_contract():
    assert serialize_json(0.1) == "0.10000000000000001"
    assert serialize_json(float("nan")) == "null"
    assert serialize_json(float("inf")) == "null"
    assert serialize_json(True) == "true"
    assert serialize_json((1, 2)) == "[\n  1,\n  2\n]"
    assert serialize_json({}) == "{}"
    assert serialize_json(np.float64(0.5)) == "0.5"
    assert serialize_json(np.int64(3)) == "3"
    blob = serialize_json({"b": 1, "a": [None, 2.0]})
    assert json.loads(blob) == {"b": 1, "a": [None, 2.0]}
    with pytest.raises(TypeError):
        serialize_json(object())


def test_cli_run_happy_path(tmp_path, capsys):
    code = cli.main([
        "run", "--shape", "circle", "--n", "64", "--dt", "1e-3",
        "--t-end", "0.3", "--out", str(tmp_path / "run.csv"),
        "--summary-out", str(tmp_path / "summary.json"),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "tbar = " in out
    assert "min_Z: pass" in out
    assert "wrote" in out


def test_cli_accepts_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "shape": "circle", "n": 64, "dt": 1e-3, "t_end": 0.2,
        "out": str(tmp_path / "run.csv"),
    }))
    assert cli.main(["run", str(cfg_path), "--snapshot-interval", "0.1"]) == 0
    assert (tmp_path / "run.csv").exists()
    assert (tmp_path / "run_summary.json").exists()  # derived default path
    capsys.readouterr()


def test_cli_usage_errors_exit_2(tmp_path, capsys):
    assert cli.main(["run", "--dt", "-1", "--out", str(tmp_path / "a.csv")]) == 2
    assert cli.main(["run", "--checks", "bogus", "--out", str(tmp_path / "b.csv")]) == 2
    assert cli.main(["verify-profile", "--x-max", "4.0"]) == 2
    assert cli.main(["verify-profile", "--x-step", "0"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize("flags", [["--t-step", "nan"], ["--x-min", "nan"], ["--t-max", "inf"]])
def test_cli_verify_profile_rejects_non_finite_flags(flags, capsys):
    assert cli.main(["verify-profile", *flags]) == 2
    captured = capsys.readouterr()
    assert "finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("t", ["-400", "800"])
def test_cli_verify_profile_fails_on_an_overflowed_grid(t, capsys):
    # every residual at these t is NaN; the scan once skipped NaN rows and
    # certified the empty remainder with exit 0
    assert cli.main(["verify-profile", "--t-min", t, "--t-max", t]) == 1
    out = capsys.readouterr().out
    assert f"violation: residual nan at (x, t) = (0.001, {t})" in out
    assert "all profile certificates hold" not in out


@pytest.mark.parametrize("name,value,violation", [
    ("numerator_grid_min", (np.nan, (0.5, 1.0)), "A-polynomial nan at (z, alpha) = (0.5, 1)"),
    ("derivative_cross_check", (np.nan, ("dx", 0.5, 0.0)),
     "derivative mismatch nan (dx at x = 0.5, t = 0)"),
])
def test_cli_verify_profile_fails_on_a_nan_verdict(name, value, violation, monkeypatch, capsys):
    # NaN once passed these two verdicts' < and >, and the run exited 0
    monkeypatch.setattr(cli, name, lambda *args: value)
    assert cli.main(["verify-profile", "--x-step", "0.01", "--t-step", "0.5"]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[7:] == ["violation: " + violation]


@pytest.mark.parametrize("mismatch", [np.nan, 10.0 * cli.SLOPE_FD_TOL])
def test_cli_verify_profile_judges_the_slope_fd_mismatch(mismatch, monkeypatch, capsys):
    # this row was once printed without a verdict, so NaN or 5.0 passed
    real_scan = cli.residual_certificate_scan
    monkeypatch.setattr(cli, "residual_certificate_scan", lambda x, t: dataclasses.replace(
        real_scan(x, t), max_slope_mismatch=mismatch))
    assert cli.main(["verify-profile", "--x-step", "0.01", "--t-step", "0.5"]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[7:] == ["violation: slope fd mismatch %.6g" % mismatch]


def test_slope_fd_tolerance_caps_the_truncation_error_down_to_t_minus_10():
    # the worst |fd - closed| / max(1, |closed|) over x at one t is
    # 0.195 (h e^{-t})^2, central-difference truncation at fd step h = 1e-5
    x = np.geomspace(1.5e-5, 3.0, 4000)
    for t in (-6.0, -10.0, -10.4):
        worst = residual_certificate_scan(x, np.array([t])).max_slope_mismatch
        assert worst == pytest.approx(0.195 * (1e-5 * np.exp(-t)) ** 2, rel=2e-2)
        assert (worst <= cli.SLOPE_FD_TOL) == (t >= -10.0)


@pytest.mark.parametrize("flag", ["--t-step", "--x-step"])
@pytest.mark.parametrize("step", ["1e-300", "5e-324"])
def test_cli_verify_profile_rejects_grids_too_large_to_allocate(flag, step, capsys):
    # these ended in a numpy ValueError / OverflowError traceback with exit 1
    assert cli.main(["verify-profile", flag, step]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: grid too large")
    assert captured.out == ""


def test_grid_limit_boundary(monkeypatch):
    monkeypatch.setattr(cli, "MAX_GRID_POINTS", 12)
    assert len(cli._inclusive_grid(0.0, 1.0, 0.1)) == 11
    monkeypatch.setattr(cli, "MAX_GRID_POINTS", 11)
    with pytest.raises(ParameterError, match="grid too large"):
        cli._inclusive_grid(0.0, 1.0, 0.1)


def test_cli_nonconvex_run_exits_3(tmp_path, capsys):
    code = cli.main([
        "run", "--shape", "perturbed_circle", "--amplitudes", "0.5",
        "--modes", "7", "--n", "64", "--dt", "1e-3", "--t-end", "0.2",
        "--out", str(tmp_path / "run.csv"),
    ])
    assert code == 3
    assert "aborted" in capsys.readouterr().err


def test_monitor_error_mid_run_exits_3_with_both_files(tmp_path, capsys, monkeypatch):
    calls = _inject_monitor_fault(monkeypatch)
    code = cli.main([
        "run", "--shape", "circle", "--n", "64", "--dt", "1e-3", "--t-end", "0.05",
        "--snapshot-interval", "0.01", "--out", str(tmp_path / "run.csv"),
    ])
    assert code == 3
    assert "aborted at t = 0.02" in capsys.readouterr().err
    lines = (tmp_path / "run.csv").read_text().splitlines()
    assert lines[0] == EXPECTED_HEADER
    assert len(lines) == 3  # the two snapshots observed before the fault
    summary = json.loads((tmp_path / "run_summary.json").read_text())
    assert summary["exit_code"] == 3
    assert summary["status"] == "aborted"
    assert summary["failure"] == {
        "error": "ParameterError", "message": "injected monitor fault", "time": calls[2]}
    assert list(summary["checks"]) == list(checks_for_mode("normalized"))


def test_config_bounds_the_vertex_count():
    assert config_from_dict({"n": MAX_VERTICES}).n == MAX_VERTICES
    for n in (MAX_VERTICES + 1, 10**30):
        with pytest.raises(ParameterError, match=f"n must be at most {MAX_VERTICES}"):
            config_from_dict({"n": n})


@pytest.mark.parametrize("command", ["run", "tbar"])
@pytest.mark.parametrize("n", [MAX_VERTICES + 1, 10**30])
def test_cli_rejects_vertex_counts_above_the_bound(command, n, tmp_path, capsys):
    # 10**30 ended in a numpy "Maximum allowed size exceeded" traceback
    argv = [command, "--shape", "circle", "--n", str(n)]
    if command == "run":
        argv += ["--out", str(tmp_path / "run.csv")]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: n must be at most {MAX_VERTICES}, got {n}\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["run", "tbar"])
def test_cli_rejects_a_negative_seed(command, tmp_path, capsys):
    # numpy's "expected non-negative integer" once ended these in a traceback
    argv = [command, "--shape", "perturbed_circle", "--seed", "-1", "--n", "64"]
    if command == "run":
        argv += ["--t-end", "0.01", "--out", str(tmp_path / "run.csv")]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: seed must be non-negative, got -1\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_config_bounds_the_curve_scale():
    # _geometry's products once left the float range outside these scales
    for key in ("radius", "a", "b"):
        for value in (1e-50, 1e50):
            assert getattr(config_from_dict({key: value}), key) == value
        for value in (0.99e-50, 1.01e50, 1e300):
            with pytest.raises(ParameterError, match=f"{key} must lie in"):
                config_from_dict({key: value})


@pytest.mark.parametrize("mode", ["unnormalized", "both"])
@pytest.mark.parametrize("shape,data,size", [
    ("circle", {"radius": 3.5, "amplitudes": [0.5, -0.25]}, 3.5),  # unused by make_circle
    ("perturbed_circle", {"radius": 1e50, "amplitudes": [0.1]}, 1.1e50),
    ("ellipse", {"a": 3.0, "b": 1e20}, 1e20),
])
def test_config_bounds_the_grown_size(mode, shape, data, size):
    # size e^{t_end} may reach 1e100 but not pass it; normalized runs do not grow
    limit = np.log(1e100 / size)
    data = dict(data, shape=shape, mode=mode)
    config_from_dict(dict(data, t_end=limit * (1.0 - 1e-9)))
    config_from_dict(dict(data, t_end=2.0 * limit, mode="normalized"))
    with pytest.raises(ParameterError, match="grows past 1e\\+100"):
        config_from_dict(dict(data, t_end=limit * (1.0 + 1e-9)))


def test_config_grows_the_default_circle_to_the_limit():
    # the radius-1 circle's size is 1, not 1 + 0.05 from the default
    # amplitudes it does not use: its largest t_end is ln(1e100) = 230.2585
    data = {"n": 16, "mode": "unnormalized", "dt": 0.01}
    assert config_from_dict(dict(data, t_end=230.25)).t_end == 230.25
    with pytest.raises(ParameterError, match="the initial size 1 grows past 1e\\+100"):
        config_from_dict(dict(data, t_end=230.26))


def test_config_bounds_the_initial_size_without_growth():
    # a mode-0 amplitude scales the whole perturbed circle by 1 + a; a
    # normalized run (tbar's config too) does not grow, yet starts at that size
    data = {"shape": "perturbed_circle", "modes": [0], "mode": "normalized"}
    config_from_dict(dict(data, amplitudes=[1e99]))
    with pytest.raises(ParameterError, match="the initial size 1e\\+101"):
        config_from_dict(dict(data, amplitudes=[1e101]))


@pytest.mark.parametrize("argv,message", [
    # exit 3 "initial curve is not strictly convex" with a RuntimeWarning
    (["run", "--radius", "1e300"], "radius must lie in [1e-50, 1e+50], got 1e+300"),
    (["tbar", "--radius", "1e300"], "radius must lie in [1e-50, 1e+50], got 1e+300"),
    # a RuntimeWarning from make_ellipse, then exit 2 "vertex coordinates
    # contain NaN or Inf"
    (["run", "--shape", "ellipse", "--a", "1e300"], "a must lie in [1e-50, 1e+50], got 1e+300"),
    (["tbar", "--shape", "ellipse", "--b", "1e-51"], "b must lie in [1e-50, 1e+50], got 1e-51"),
    # exit 3 "convexity lost at t = 238.5" once e^{3t} overflowed
    (["run", "--n", "16", "--mode", "unnormalized", "--t-end", "720", "--dt", "0.01"],
     "the initial size 1 grows past 1e+100 by t_end = 720"),
    # four RuntimeWarnings from _geometry, then exit 3 "initial curve is not
    # strictly convex"
    (["tbar", "--shape", "perturbed_circle", "--amplitudes", "1e300", "--modes", "0",
      "--seed", "3", "--n", "32"], "the initial size 1e+300 exceeds 1e+100"),
    (["run", "--shape", "perturbed_circle", "--amplitudes", "1e300", "--modes", "0",
      "--n", "32"], "the initial size 1e+300 exceeds 1e+100"),
], ids=["run_radius", "tbar_radius", "run_a", "tbar_b", "run_growth", "tbar_size", "run_size"])
def test_cli_rejects_curve_scales_out_of_range(argv, message, tmp_path, capsys):
    if argv[0] == "run":
        argv = [*argv, "--out", str(tmp_path / "run.csv")]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_cli_runs_at_the_scale_limits(tmp_path):
    # both ends of the range run clean (pytest turns a RuntimeWarning into an
    # error), and an unnormalized run at 1e50 grows for t = 100
    for radius in ("1e-50", "1e50"):
        assert cli.main(["run", "--radius", radius, "--n", "32", "--mode", "both",
                         "--dt", "1e-3", "--t-end", "0.05", "--out", str(tmp_path / "a.csv")]) == 0
        assert cli.main(["tbar", "--shape", "ellipse", "--a", radius, "--b", radius,
                         "--n", "32"]) == 0
    # a mode-0 amplitude of 1e99 gives a perturbed circle of size 1e99
    perturbed = ["--shape", "perturbed_circle", "--amplitudes", "1e99", "--modes", "0",
                 "--seed", "3", "--n", "32"]
    assert cli.main(["tbar", *perturbed]) == 0
    assert cli.main(["run", *perturbed, "--dt", "1e-3", "--t-end", "0.05",
                     "--out", str(tmp_path / "c.csv")]) == 0
    assert cli.main(["run", "--radius", "1e50", "--n", "32", "--mode", "unnormalized",
                     "--dt", "1e-2", "--t-end", "100", "--snapshot-interval", "5",
                     "--checks", "min_Z", "--out", str(tmp_path / "b.csv")]) == 0
    rows = (tmp_path / "b.csv").read_text().splitlines()
    assert float(rows[-1].split(",")[0]) == 100.0


@pytest.mark.parametrize("command", ["run", "tbar"])
def test_cli_vertex_bound_boundary(command, tmp_path, capsys, monkeypatch):
    # a run at the real bound takes hours, so the bound is lowered: n at the
    # bound runs, one more exits 2 before any work
    monkeypatch.setattr(experiment, "MAX_VERTICES", 64)
    for n, code in ((64, 0), (65, 2)):
        out = tmp_path / str(n)
        argv = [command, "--shape", "circle", "--n", str(n)]
        if command == "run":
            argv += ["--dt", "1e-3", "--t-end", "0.01", "--out", str(out / "run.csv")]
        assert cli.main(argv) == code
        assert out.exists() == (command == "run" and code == 0)
    assert capsys.readouterr().err == "error: n must be at most 64, got 65\n"


def _inject_monitor_fault(monkeypatch):
    """Make the two-point scan, a snapshot monitor, raise a package error on
    its third call; returns the snapshot times it was called at."""
    real_scan = experiment.two_point_gap_scan
    calls = []

    def faulty_scan(*args, **kwargs):
        calls.append(args[1])
        if len(calls) == 3:
            raise ParameterError("injected monitor fault")
        return real_scan(*args, **kwargs)

    monkeypatch.setattr(experiment, "two_point_gap_scan", faulty_scan)
    return calls


def _inject_step_rejection(monkeypatch, lanes):
    # On the flagship-style ellipse below the normalized curve keeps its
    # minimum edge near 2 pi / 64 while its minimum curvature rises past 0.6
    # at t ~ 0.12; the unnormalized curve's minimum edge passes 0.165 at
    # t ~ 0.09.
    real_order = flow.smoothing_order

    def faulty_order(dt, min_edge, min_curvature, safety, max_smoothing):
        if "normalized" in lanes and min_edge < 0.12 and min_curvature > 0.6:
            raise StepRejectedError("injected normalized fault")
        if "unnormalized" in lanes and min_edge > 0.165:
            raise StepRejectedError("injected unnormalized fault")
        return real_order(dt, min_edge, min_curvature, safety, max_smoothing)

    monkeypatch.setattr(flow, "smoothing_order", faulty_order)


BOTH_MODE_FAULTS = {
    "none": lambda mp: None,
    "monitor": _inject_monitor_fault,
    "unnormalized_flow": lambda mp: _inject_step_rejection(mp, {"unnormalized"}),
    "normalized_flow": lambda mp: _inject_step_rejection(mp, {"normalized"}),
    "both_flows": lambda mp: _inject_step_rejection(mp, {"normalized", "unnormalized"}),
}


def both_mode_config(tmp_path):
    return config_from_dict({
        "shape": "ellipse", "a": 2.0, "b": 1.0, "n": 64, "dt": 1e-3, "t_end": 0.3,
        "snapshot_interval": 0.05, "mode": "both", "out": str(tmp_path / "run.csv"),
    })


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def no_hang():
    """Fail, rather than hang, a test whose run waits on its child for a minute."""
    def hung(signum, frame):
        raise TimeoutError("run_experiment hung on its child")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("fault", BOTH_MODE_FAULTS)
def test_both_mode_failure_precedence(fault, tmp_path, monkeypatch, no_hang):
    # a normalized failure (of the flow or of a monitor) leaves no
    # unnormalized data, while an unnormalized failure lets the normalized
    # run finish
    BOTH_MODE_FAULTS[fault](monkeypatch)
    result = run_experiment(both_mode_config(tmp_path))
    assert_no_child_left()
    summary = result.summary
    assert result.exit_code == (1 if fault == "none" else 3)
    if fault in ("monitor", "normalized_flow", "both_flows"):
        message = "injected monitor fault" if fault == "monitor" else "injected normalized fault"
        assert summary["failure"]["message"] == message
        assert summary["checks"]["length_law"]["detail"] == "no unnormalized snapshots"
        assert summary["checks"]["cross_check"]["detail"] == "no paired snapshots"
    if fault == "unnormalized_flow":
        assert summary["failure"]["message"] == "injected unnormalized fault"
        assert summary["failure"]["time"] < result.rows[-1]["t"] == 0.3
        # length_law grades the unnormalized snapshots up to the failure
        assert summary["checks"]["length_law"]["worst"] is not None


def test_a_crash_of_the_normalized_lane_reaps_the_child(tmp_path, monkeypatch, no_hang):
    def crashing_scan(*args):
        raise ZeroDivisionError("injected crash")

    monkeypatch.setattr(experiment, "two_point_gap_scan", crashing_scan)
    with pytest.raises(ZeroDivisionError, match="injected crash"):
        run_experiment(both_mode_config(tmp_path))
    assert_no_child_left()


def config_with_svgs(tmp_path, mode):
    return dataclasses.replace(
        both_mode_config(tmp_path), mode=mode, svg_dir=str(tmp_path / "svg"))


def written_bytes(tmp_path):
    return ((tmp_path / "run.csv").read_bytes(), (tmp_path / "run_summary.json").read_bytes(),
            [svg.read_bytes() for svg in sorted((tmp_path / "svg").glob("*.svg"))])


# The tests below run every mode, both included: each mode's child runs its
# last lane (the unnormalized formulation in both mode) and sends that
# lane's snapshots, then its failure record.
LANES = {"normalized": ("normalized",), "unnormalized": ("unnormalized",),
         "both": ("normalized", "unnormalized")}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("fault", BOTH_MODE_FAULTS)
@pytest.mark.parametrize("mode", LANES)
def test_forked_and_inline_single_mode_runs_write_the_same_bytes(
        mode, fault, tmp_path, no_hang):
    # a monitor fault (3rd snapshot) kills the child, and a flow fault
    # reaches the summary after the last good snapshot; in both mode a
    # normalized fault takes precedence
    outputs = []
    for inline in (False, True):
        forks = []
        with pytest.MonkeyPatch.context() as mp:
            BOTH_MODE_FAULTS[fault](mp)
            if inline:
                mp.delattr(os, "fork")
            else:
                real_fork = os.fork
                mp.setattr(os, "fork", lambda: forks.append(1) or real_fork())
            result = run_experiment(config_with_svgs(tmp_path, mode))
        assert_no_child_left()
        assert len(forks) == (not inline)
        outputs.append((result.exit_code, *written_bytes(tmp_path)))
        shutil.rmtree(tmp_path / "svg")
    assert outputs[0] == outputs[1]
    failure = json.loads(outputs[0][2])["failure"]
    faulted = [lane for lane in LANES[mode] if fault in (f"{lane}_flow", "both_flows")]
    if fault == "monitor":
        assert failure["message"] == "injected monitor fault"
        assert len(outputs[0][3]) == 2  # the snapshots observed before the fault
    elif faulted:
        assert failure["message"] == f"injected {faulted[0]} fault"
        assert 0.0 < failure["time"] < 0.3
        # an unnormalized fault in both mode leaves the normalized lane whole
        assert (len(outputs[0][3]) == 7) == (faulted == ["unnormalized"] and mode == "both")
    else:
        assert failure is None and len(outputs[0][3]) == 7


def _crash_last_lane(monkeypatch, mode, crash):
    # crash the lane a forked child would run at its first step past t = 0.1
    # of the 300 steps; in both mode the normalized lane runs on
    lane = LANES[mode][-1]
    real_step = flow._step

    def crashing_step(v, geometry, formulation, dt, control, time):
        if formulation == lane and time > 0.1:
            crash()
        return real_step(v, geometry, formulation, dt, control, time)

    monkeypatch.setattr(flow, "_step", crashing_step)


def _divide_by_zero():
    raise ZeroDivisionError("injected crash")


@pytest.mark.parametrize("inline", [False, True])
@pytest.mark.parametrize("mode", LANES)
def test_a_crash_of_a_single_mode_flow_raises(mode, inline, tmp_path, monkeypatch, no_hang):
    _crash_last_lane(monkeypatch, mode, _divide_by_zero)
    if inline or not hasattr(os, "fork"):
        monkeypatch.delattr(os, "fork", raising=False)
        expected = ZeroDivisionError
    else:
        expected = RuntimeError  # carrying the child's traceback
    with pytest.raises(expected, match="injected crash"):
        run_experiment(config_with_svgs(tmp_path, mode))
    assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("mode", LANES)
def test_a_single_mode_child_that_exits_without_a_result_raises(
        mode, tmp_path, monkeypatch, no_hang):
    # os._exit is only ever reached in the forked child
    _crash_last_lane(monkeypatch, mode, lambda: os._exit(1))
    with pytest.raises(RuntimeError, match="exited with status 1 before sending"):
        run_experiment(config_with_svgs(tmp_path, mode))
    assert_no_child_left()


@pytest.mark.parametrize("mode", LANES)
def test_a_traced_single_mode_evolve_runs_in_this_process(
        mode, tmp_path, monkeypatch, no_hang):
    # a span tracer wraps evolve with functools.wraps; a forked lane's spans
    # would stay in the child, so every lane runs here and gives the same bytes
    run_experiment(config_with_svgs(tmp_path, mode))
    forked = written_bytes(tmp_path)
    traced = []

    @functools.wraps(flow.evolve)
    def traced_evolve(state, *args, **kwargs):
        traced.append((state.mode, os.getpid()))
        return flow.evolve(state, *args, **kwargs)

    monkeypatch.setattr(experiment, "evolve", traced_evolve)
    run_experiment(config_with_svgs(tmp_path, mode))
    assert_no_child_left()
    assert traced == [(lane, os.getpid()) for lane in LANES[mode]]
    assert written_bytes(tmp_path) == forked


def test_cli_tbar_subcommand(capsys):
    assert cli.main(["tbar", "--shape", "circle", "--n", "64"]) == 0
    printed = capsys.readouterr().out.strip()
    assert float(printed) == -50.0
    assert cli.main(["tbar", "--shape", "ellipse", "--a", "2", "--b", "1", "--n", "256"]) == 0
    printed = capsys.readouterr().out.strip()
    # offset of the resampled n=256 ellipse mesh; the continuum value is ~0.72377
    assert float(printed) == pytest.approx(0.72305658333757061, rel=1e-10)


def test_cli_tbar_on_a_nonconvex_curve_is_a_flow_error(tmp_path, capsys):
    # the same exit code and message as run on the same flags
    flags = ["--shape", "perturbed_circle", "--amplitudes", "0.5", "--modes", "5"]
    assert cli.main(["tbar", *flags]) == 3
    err = capsys.readouterr().err
    assert err == "flow error: initial curve is not strictly convex\n"
    assert cli.main(["run", *flags, "--out", str(tmp_path / "run.csv")]) == 3
    assert "initial curve is not strictly convex" in capsys.readouterr().err


def test_cli_rejects_unknown_subcommand(capsys):
    assert cli.main(["polish"]) != 0
    capsys.readouterr()
