"""Time stepping, stabilization, and the exact circle laws."""

import numpy as np
import pytest

from icflow.curves import (
    CurveMetrics,
    _geometry,
    compute_metrics,
    make_circle,
    make_ellipse,
    make_perturbed_circle,
    resample_uniform,
)
from icflow.errors import (
    ConvexityLossError,
    DegenerateCurveError,
    ParameterError,
    StepRejectedError,
)
from icflow import flow
from icflow.experiment import CHECKS, RunSeries, config_from_dict, run_experiment
from icflow.flow import (
    FlowState,
    StepControl,
    _smooth_in_place,
    evolve,
    initial_state,
    polyline_hausdorff,
    renormalize,
    smoothing_order,
)


def smooth_periodic(values, passes):
    """The circular binomial filter [1/4, 1/2, 1/4] in its np.roll form (the
    regression oracle of the in-place filter the step kernel runs)."""
    w = np.asarray(values, dtype=float)
    for _ in range(passes):
        w = 0.25 * np.roll(w, 1) + 0.5 * w + 0.25 * np.roll(w, -1)
    return w


def one_step(state, control):
    return evolve(state, control, state.time + control.dt)


def grade_length_law(history, tol):
    passed, worst, _ = CHECKS["length_law"][2](RunSeries([], history, [], 0), tol)
    return passed, worst


def test_step_control_validation():
    StepControl(dt=1e-3)
    with pytest.raises(ParameterError):
        StepControl(dt=0.0)
    with pytest.raises(ParameterError):
        StepControl(dt=1e-3, resample_every=0)
    with pytest.raises(ParameterError):
        StepControl(dt=1e-3, safety=0.0)
    with pytest.raises(ParameterError):
        StepControl(dt=1e-3, safety=1.5)
    # the filter-order cap is a constant, not a setting
    assert StepControl.max_smoothing == 20
    with pytest.raises(TypeError):
        StepControl(dt=1e-3, max_smoothing=3)


def test_renormalize_scales_to_standard_length():
    v = make_circle(3.7, 128) + (0.5, 0.0)
    out = renormalize(v)
    assert compute_metrics(out).total_length == pytest.approx(2 * np.pi, rel=1e-14)
    # pure scaling about the origin, no translation
    scale = 2 * np.pi / compute_metrics(v).total_length
    assert np.max(np.abs(out - scale * v)) < 1e-14


def test_initial_state_normalizes_and_records_length():
    raw = make_ellipse(2.0, 1.0, 128)
    s = initial_state(raw, "normalized")
    assert s.time == 0.0
    assert compute_metrics(s.vertices).total_length == pytest.approx(2 * np.pi, rel=1e-14)
    u = initial_state(raw, "unnormalized")
    assert np.array_equal(u.vertices, raw)
    with pytest.raises(ParameterError):
        initial_state(raw, "renormalized")


def test_smooth_periodic_filter_identities(rng):
    const = np.full(64, 2.5)
    assert np.array_equal(_smooth_in_place(const.copy(), 7), const)
    alternating = (-1.0) ** np.arange(64)
    assert np.array_equal(_smooth_in_place(alternating, 1), np.zeros(64))
    field = rng.standard_normal(128)
    smoothed = _smooth_in_place(field.copy(), 5)
    assert np.mean(smoothed) == pytest.approx(np.mean(field), abs=1e-14)
    assert np.std(smoothed) < np.std(field)
    assert np.array_equal(_smooth_in_place(field.copy(), 0), field)


@pytest.mark.parametrize(
    "dt,min_edge,min_kappa,expected",
    [
        (1e-4, 2 * np.pi / 512, 0.3855, 8),
        (1e-3, 2 * np.pi / 512, 1.0, 12),
        (5e-5, 2 * np.pi / 1024, 0.3855, 16),
    ],
)
def test_smoothing_order_frozen_values(dt, min_edge, min_kappa, expected):
    assert smoothing_order(dt, min_edge, min_kappa, 0.2, 20) == expected


def test_smoothing_order_limits():
    # generous budget: the raw explicit step is already stable
    assert smoothing_order(1e-6, 0.1, 1.0, 0.2, 20) == 0
    with pytest.raises(StepRejectedError):
        smoothing_order(1.0, 0.01, 0.5, 0.2, 5)


def test_unnormalized_circle_step_is_exact():
    # constant speed passes through the filter untouched and the circumradius
    # estimator is exact on the polygon, so every vertex moves outward by
    # exactly dt along its unit normal
    radius, dt = 1.0, 1e-3
    s = initial_state(make_circle(radius, 256), "unnormalized")
    s = one_step(s, StepControl(dt=dt))
    r = np.hypot(s.vertices[:, 0], s.vertices[:, 1])
    r0 = np.hypot(*make_circle(radius, 256).T)
    assert np.max(np.abs(r - (r0 + dt))) < 1e-15
    assert s.time == pytest.approx(dt)


def test_unnormalized_circle_length_law():
    control = StepControl(dt=1e-3)
    s = initial_state(make_circle(1.0, 256), "unnormalized")
    history = []
    s = evolve(
        s,
        control,
        1.0,
        observers=[lambda t, v, m: history.append((t, m.total_length))],
        snapshot_interval=0.1,
    )
    assert grade_length_law(history, 1e-3)[1] < 1e-3
    assert history[-1][1] / history[0][1] == pytest.approx(np.e, rel=1e-2)


def test_normalized_circle_is_a_fixed_point():
    control = StepControl(dt=1e-3)
    s = initial_state(make_circle(1.0, 256), "normalized")
    frozen = s.vertices.copy()
    for _ in range(200):
        s = one_step(s, control)
    assert polyline_hausdorff(s.vertices, frozen) < 1e-12


def test_evolve_snapshot_schedule_is_exact():
    times = []
    s = initial_state(make_circle(1.0, 64), "normalized")
    evolve(
        s,
        StepControl(dt=1e-3),
        1.0,
        observers=[lambda t, v, m: times.append(t)],
        snapshot_interval=0.25,
    )
    assert times == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0], abs=1e-12)


def test_evolve_partial_final_step_lands_on_t_end():
    s = initial_state(make_circle(1.0, 64), "unnormalized")
    out = evolve(s, StepControl(dt=1e-3), 0.0105)
    assert out.time == 0.0105


def test_evolve_rejects_bad_schedules():
    s = initial_state(make_circle(1.0, 64), "normalized")
    with pytest.raises(ParameterError):
        evolve(s, StepControl(dt=1e-3), 1.0, snapshot_interval=0.0)
    with pytest.raises(ParameterError):
        evolve(s, StepControl(dt=1e-3), -1.0)


def test_nonconvex_curve_is_rejected_at_start():
    # the start state once reached the observers before its curvature was
    # tested, against evolve's own contract
    star = make_perturbed_circle(1.0, 128, [0.5], [7], seed=0)
    s = FlowState(vertices=star, time=0.0, mode="unnormalized")
    fired = []
    with pytest.raises(ConvexityLossError) as info:
        evolve(s, StepControl(dt=1e-3), 0.01, observers=[lambda *args: fired.append(args)])
    assert info.value.time == 0.0
    assert not fired


def test_ellipse_rounds_toward_a_circle():
    s = initial_state(make_ellipse(2.0, 1.0, 256), "normalized")
    s = evolve(s, StepControl(dt=5e-4), 3.0)
    kappa = compute_metrics(s.vertices).curvature
    assert np.max(np.abs(kappa - 1.0)) < 0.05
    assert compute_metrics(s.vertices).total_length == pytest.approx(2 * np.pi, rel=1e-12)


def test_length_law_grader_edge_cases():
    assert CHECKS["length_law"][2](RunSeries([], [], [], 0), 1e-2) == (
        False, None, "no unnormalized snapshots")
    passed, worst = grade_length_law([(0.0, 5.0), (1.0, 5.0 * np.e)], 1e-2)
    assert passed and worst < 1e-15
    # the first entry is the reference, whatever its time
    passed, worst = grade_length_law([(0.5, 2.0), (1.5, 2.0 * np.e), (2.5, 2.2 * np.e**2)], 0.05)
    assert not passed and worst == pytest.approx(0.1, rel=1e-12)


def test_polyline_hausdorff_properties():
    a = make_circle(1.0, 128)
    b = make_circle(1.0, 128) + (0.01, 0.0)
    assert polyline_hausdorff(a, a) == 0.0
    d = polyline_hausdorff(a, b)
    assert d == pytest.approx(polyline_hausdorff(b, a), rel=1e-14)
    assert d == pytest.approx(0.01, rel=1e-2)
    # insensitive to vertex alignment: same circle sampled at shifted angles
    theta = 2 * np.pi * (np.arange(128) + 0.5) / 128
    shifted = np.column_stack([np.cos(theta), np.sin(theta)])
    assert polyline_hausdorff(a, shifted) < 5e-4


def dense_polyline_hausdorff(a, b):
    """The Hausdorff distance by (n, m, 2) temporaries, as polyline_hausdorff
    first computed it (the regression oracle of the blocked kernel)."""

    def directed(p, q):
        d = np.roll(q, -1, axis=0) - q
        len2 = np.maximum(np.einsum("ij,ij->i", d, d), 1e-300)
        diff = p[:, None, :] - q[None, :, :]
        frac = np.clip(np.einsum("nmj,mj->nm", diff, d) / len2, 0.0, 1.0)
        proj = diff - frac[:, :, None] * d[None, :, :]
        dist = np.sqrt(np.einsum("nmj,nmj->nm", proj, proj))
        return float(np.max(np.min(dist, axis=1)))

    return max(directed(a, b), directed(b, a))


@pytest.mark.parametrize("block_pairs", [None, 1, 450, 1800])
def test_blocked_hausdorff_is_the_dense_evaluation_bit_for_bit(block_pairs, monkeypatch):
    # the four block buffers hold about block_pairs floats together: by
    # default a 200-vertex curve is scanned 40 rows at a time, so 517 rows
    # end in a partial block; 1800 gives 2-row blocks against the 200-vertex
    # curve and 1-row blocks against the others, as 450 does against all
    if block_pairs is not None:
        monkeypatch.setattr(flow, "BLOCK_PAIRS", block_pairs)
    a = make_ellipse(2.0, 1.0, 200)
    bumped = resample_uniform(a, 517)
    bumped[-1] *= 1.05  # its farthest vertex sits in the last block
    pairs = [
        (a, make_circle(1.5, 333)),  # unequal vertex counts
        (a, np.roll(1.001 * a + 0.002, 17, axis=0)),  # scaled, shifted, index-rolled
        (make_perturbed_circle(1.0, 517, [0.05], [3], seed=2), a),
        (bumped, a),
        (a, a),
    ]
    for p, q in pairs:
        for x, y in ((p, q), (q, p)):
            assert polyline_hausdorff(x, y) == dense_polyline_hausdorff(x, y)
    assert polyline_hausdorff(a, a.copy()) == 0.0


def _cross_check_worst(tmp_path, **config):
    config = config_from_dict(dict(
        config, mode="both", t_end=0.5, checks=["cross_check"],
        out=str(tmp_path / "run.csv")))
    return run_experiment(config).summary["checks"]["cross_check"]["worst"]


def test_cross_check_is_tiny_on_circles(tmp_path):
    assert _cross_check_worst(tmp_path, shape="circle", n=128, dt=1e-3) < 1e-12


def test_cross_check_shrinks_under_refinement(tmp_path):
    coarse = _cross_check_worst(tmp_path, shape="ellipse", n=64, dt=2e-3)
    fine = _cross_check_worst(tmp_path, shape="ellipse", n=128, dt=1e-3)
    assert fine < coarse


# --- the step kernel against the first-written roll formulas --------------


def _roll_geometry(v):
    """Edge lengths, curvature and outward normals by the np.roll formulas
    the package first computed them with (the regression oracle of the
    ghost-padded kernel geometry)."""
    edges = np.roll(v, -1, axis=0) - v
    edge_len = np.hypot(edges[:, 0], edges[:, 1])
    e_prev = np.roll(edges, 1, axis=0)
    len_prev = np.roll(edge_len, 1)
    chord = np.roll(v, -1, axis=0) - np.roll(v, 1, axis=0)
    chord_len = np.hypot(chord[:, 0], chord[:, 1])
    cross = e_prev[:, 0] * edges[:, 1] - e_prev[:, 1] * edges[:, 0]
    curvature = 2.0 * cross / (len_prev * edge_len * chord_len)
    tangent = chord / chord_len[:, None]
    normal = np.column_stack([tangent[:, 1], -tangent[:, 0]])
    return edge_len, curvature, normal


@pytest.mark.parametrize(
    "v",
    [
        make_circle(1.0, 128),
        make_ellipse(2.0, 1.0, 256),
        make_perturbed_circle(1.0, 200, [0.05, 0.02], [3, 5], seed=3),
    ],
    ids=["circle", "ellipse", "perturbed"],
)
def test_kernel_geometry_is_the_roll_formulas_bit_for_bit(v):
    expected = _roll_geometry(v)
    for m in (_geometry(v), compute_metrics(v)):
        assert isinstance(m, CurveMetrics)
        for array, oracle in zip((m.edge_lengths, m.curvature, m.outward_normal), expected):
            assert np.array_equal(array, oracle)
        assert m.total_length == float(np.sum(expected[0]))


def test_in_place_smoother_is_smooth_periodic_bit_for_bit(rng):
    for order in range(21):
        field = rng.standard_normal(97)
        expected = smooth_periodic(field, order)
        assert np.array_equal(_smooth_in_place(field.copy(), order), expected), order


def _reference_evolve(vertices, mode, control, steps):
    """Euler steps spelled out with the roll formulas and smooth_periodic."""
    v = vertices
    for k in range(1, steps + 1):
        edge_len, curvature, normal = _roll_geometry(v)
        order = smoothing_order(
            control.dt, float(np.min(edge_len)), float(np.min(curvature)),
            control.safety, control.max_smoothing)
        speed = smooth_periodic(1.0 / curvature, order)
        if mode == "unnormalized":
            v = v + control.dt * speed[:, None] * normal
        else:
            v = renormalize(v + control.dt * (-v + speed[:, None] * normal))
        if k % control.resample_every == 0:
            v = resample_uniform(v, v.shape[0])
            if mode == "normalized":
                v = renormalize(v)
    return v


@pytest.mark.parametrize("mode", ["normalized", "unnormalized"])
def test_evolve_matches_the_reference_stepper_bit_for_bit(mode):
    control = StepControl(dt=5e-4, resample_every=7)
    s = initial_state(make_perturbed_circle(1.0, 128, [0.05], [3], seed=1), mode)
    out = evolve(s, control, 40 * control.dt)
    assert np.array_equal(out.vertices, _reference_evolve(s.vertices, mode, control, 40))


def test_normalized_step_is_renormalized_raw_step_at_stretched_dt():
    # (1 - dt) v + dt * speed * normal = (1 - dt) (v + dt/(1 - dt) * speed * normal),
    # and renormalization removes the factor (1 - dt)
    dt = 1e-3
    raw_dt = dt / (1.0 - dt)
    norm = initial_state(make_ellipse(2.0, 1.0, 128), "normalized")
    raw = initial_state(norm.vertices, "unnormalized")
    m = compute_metrics(norm.vertices)
    orders = [
        smoothing_order(h, float(np.min(m.edge_lengths)), float(np.min(m.curvature)), 0.2, 20)
        for h in (dt, raw_dt)
    ]
    assert orders[0] == orders[1] > 0
    stepped = one_step(norm, StepControl(dt=dt)).vertices
    stretched = renormalize(one_step(raw, StepControl(dt=raw_dt)).vertices)
    assert np.max(np.abs(stepped - stretched)) < 1e-12


@pytest.mark.parametrize("mode", ["normalized", "unnormalized"])
def test_observers_get_the_geometry_of_the_state_they_see(mode):
    # the step kernel's own geometry, with the floats compute_metrics gives
    seen = []
    s = initial_state(make_perturbed_circle(1.0, 128, [0.05], [3], seed=1), mode)
    evolve(s, StepControl(dt=5e-4, resample_every=3), 0.01,
           observers=[lambda t, v, m: seen.append((v, m))], snapshot_interval=2e-3)
    assert len(seen) == 6
    for v, m in seen:
        expected = compute_metrics(v)
        for field in ("edge_lengths", "curvature", "outward_normal"):
            assert np.array_equal(getattr(m, field), getattr(expected, field))
        assert m.total_length == expected.total_length


def test_evolve_fires_each_state_at_most_once():
    # a snapshot interval shorter than dt used to re-fire one state for every
    # snapshot time a step passed
    times = []
    s = initial_state(make_circle(1.0, 64), "normalized")
    evolve(
        s,
        StepControl(dt=1e-3),
        0.003,
        observers=[lambda t, v, m: times.append(t)],
        snapshot_interval=2.5e-4,
    )
    assert times == pytest.approx([0.0, 0.001, 0.002, 0.003], abs=1e-12)


@pytest.mark.parametrize("defect", ["nan", "repeated"])
def test_evolve_rejects_degenerate_vertices(defect):
    v = make_circle(1.0, 64)
    if defect == "nan":
        v[10, 1] = np.nan
    else:
        v[10] = v[11]
    s = FlowState(vertices=v, time=0.0, mode="normalized")
    fired = []
    with pytest.raises(DegenerateCurveError):
        evolve(s, StepControl(dt=1e-3), 0.01, observers=[lambda *args: fired.append(args)])
    assert not fired
    with pytest.raises(DegenerateCurveError):
        _geometry(v)


def test_kernel_geometry_rejects_coincident_neighbours():
    v = make_circle(1.0, 64)
    v[12] = v[10]  # edges 10->11 and 11->12 are nonzero, but the chord at 11 is not
    with pytest.raises(DegenerateCurveError, match="coincide"):
        _geometry(v)
