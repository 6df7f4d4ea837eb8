"""Property test: every config, valid or not, ends in a well-formed outcome."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from icflow import cli
from icflow.experiment import RUN_MODES, SHAPES

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# 10**x for x drawn uniformly: curve scales across most of the accepted range
scales = st.floats(-49.0, 49.0).map(lambda x: 10.0**x)


@st.composite
def run_flags(draw):
    dt = draw(st.sampled_from((1e-4, 1e-3, 1e-2)))
    flags = {
        "shape": draw(st.sampled_from(SHAPES)),
        "mode": draw(st.sampled_from(RUN_MODES)),
        "radius": draw(scales),
        "a": draw(scales),
        "b": draw(scales),
        "amplitudes": draw(st.floats(0.0, 0.6)),
        "modes": draw(st.integers(2, 8)),
        "seed": draw(st.integers(0, 1000)),
        "n": draw(st.integers(16, 64)),
        "dt": dt,
        "t_end": dt * draw(st.integers(1, 400)),  # at most 400 steps
        "snapshot_interval": dt * draw(st.integers(1, 100)),
        "safety": draw(st.sampled_from((0.05, 0.2, 0.5, 1.0))),
        "resample_every": draw(st.sampled_from((1, 3, 10, 50))),
    }
    argv = ["run"]
    for key, value in flags.items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    return argv + (["--svg-dir", "svg"] if draw(st.booleans()) else [])


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(run_flags())
def test_every_config_exits_with_both_files_or_2_with_no_csv(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run.csv"
        argv = [arg if arg != "svg" else str(Path(tmp) / "svg") for arg in argv]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv + ["--out", str(out)])
        if code == 2:
            assert not out.exists()
            return
        assert code in (0, 1, 3)
        summary = json.loads((Path(tmp) / "run_summary.json").read_text())
        assert out.exists()
        assert summary["exit_code"] == code
        assert (summary["failure"] is not None) == (code == 3)
