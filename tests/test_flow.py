"""Time stepping, stabilization, and the exact circle laws."""

import numpy as np
import pytest

from icflow.bounds import derivative_noise_floors, snapshot_report
from icflow.curves import (
    CurveMetrics,
    _geometry,
    _kernel_terms,
    _lengths,
    arc_spread,
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
    _binomial_filter,
    evolve,
    initial_state,
    polyline_hausdorff,
    renormalize,
    smoothing_order,
)


def smooth_periodic(values, passes):
    """The circular binomial filter [1/4, 1/2, 1/4] in its np.roll form (the
    regression oracle of the convolution the step kernel runs)."""
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
    # 2.5 times each tap is exact, so this constant passes unchanged
    const = np.full(64, 2.5)
    assert np.array_equal(_binomial_filter(const, 7), const)
    alternating = (-1.0) ** np.arange(64)
    assert np.array_equal(_binomial_filter(alternating, 1), np.zeros(64))
    field = rng.standard_normal(128)
    smoothed = _binomial_filter(field, 5)
    assert np.mean(smoothed) == pytest.approx(np.mean(field), abs=1e-14)
    assert np.std(smoothed) < np.std(field)
    assert np.array_equal(_binomial_filter(field, 0), field)
    # the taps sum to 1 exactly, but their products with most constants round
    for order in range(StepControl.max_smoothing + 1):
        for c in rng.uniform(0.1, 10.0, 5):
            out = _binomial_filter(np.full(64, c), order)
            assert np.max(np.abs(out - c)) <= 1e-15 * c, (order, c)


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
    # whole rows are scanned in doubling batches of at most block_pairs / 4
    # pairs: by default up to 40 rows against a 200-vertex curve; 1800 caps
    # them at 2 rows against it and 1 row against the others, as 450 does
    # against all.  The window bound settles the unequal counts and the
    # bumped farthest vertex in one row, the index-rolled curve too (its
    # window is offset by the vertex nearest the first), and the perturbed
    # 517-gon against the ellipse 64 rows
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


def test_an_index_rolled_polygon_scans_the_rows_of_the_aligned_one(monkeypatch):
    # the window once sat on index i m // n alone: the rolled 512-gon took
    # every row, 14 times the aligned copy's time, for the same value
    p = make_ellipse(2.0, 1.0, 512)
    q = 1.001 * p + 0.002
    pairs, pair_sq = [], flow._pair_sq

    def counting(rows, *segments):
        pairs.append(np.broadcast(rows[:, :1], segments[0]).size)
        return pair_sq(rows, *segments)

    monkeypatch.setattr(flow, "_pair_sq", counting)
    distances, counts = [], []
    for shift in (0, 173):
        pairs.clear()
        distances.append(polyline_hausdorff(p, np.roll(q, shift, axis=0)))
        counts.append(sum(pairs))
    assert distances[0] == distances[1] == dense_polyline_hausdorff(p, q)
    assert counts[1] <= 2 * counts[0] < 0.05 * 2 * 512 * 512


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


def _hypot_lengths(d):
    return np.hypot(d[:, 0], d[:, 1])


def _roll_geometry(v, lengths=_hypot_lengths):
    """Edge lengths, curvature and outward normals by the np.roll formulas
    the package first computed them with, hypot lengths by default (the
    regression oracle of the ghost-padded kernel geometry)."""
    edges = np.roll(v, -1, axis=0) - v
    edge_len = lengths(edges)
    e_prev = np.roll(edges, 1, axis=0)
    len_prev = np.roll(edge_len, 1)
    chord = np.roll(v, -1, axis=0) - np.roll(v, 1, axis=0)
    chord_len = lengths(chord)
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
def test_kernel_geometry_is_the_roll_formulas_to_two_ulps_of_the_cross_terms(v):
    # lengths bit for bit; the complex cross product
    # Im(conj(e_prev) e) may round a*d - b*c differently (a fused
    # multiply-add), within two ulps of its terms |a d| + |b c|, and
    # curvature inherits that bound through the circumcircle denominator
    edge_len, curvature, _ = _roll_geometry(v, _lengths)
    edges = np.roll(v, -1, axis=0) - v
    e_prev = np.roll(edges, 1, axis=0)
    terms = np.abs(e_prev[:, 0] * edges[:, 1]) + np.abs(e_prev[:, 1] * edges[:, 0])
    chord_len = _lengths(np.roll(v, -1, axis=0) - np.roll(v, 1, axis=0))
    bound = 2.0 * np.finfo(float).eps * 2.0 * terms / (np.roll(edge_len, 1) * edge_len * chord_len)
    for m in (_geometry(v), compute_metrics(v)):
        assert isinstance(m, CurveMetrics)
        assert np.array_equal(m.edge_lengths, edge_len)
        assert np.all(np.abs(m.curvature - curvature) <= bound)
        assert m.total_length == float(np.sum(edge_len))


@pytest.mark.parametrize("n", [16, 97])
def test_binomial_filter_is_smooth_periodic_to_roundoff(rng, n):
    # at n = 16 the widest kernels (41 taps) wrap around the field more than once
    for order in range(StepControl.max_smoothing + 1):
        field = rng.standard_normal(n)
        expected = smooth_periodic(field, order)
        out = _binomial_filter(field, order)
        assert np.max(np.abs(out - expected)) <= 1e-15 * np.max(np.abs(field)), order


def _hypot_edge_lengths(v):
    return _hypot_lengths(np.roll(v, -1, axis=0) - v)


def _hypot_renormalize(v):
    return (2.0 * np.pi / float(np.sum(_hypot_edge_lengths(v)))) * v


def _reference_evolve(vertices, mode, control, steps):
    """The step kernel before edge lengths became complex moduli and the filter
    one convolution, frozen as the drift gate's oracle: Euler steps spelled
    out with the roll formulas, hypot lengths, smooth_periodic and a
    normalized state's geometry recomputed after its rescale, with no
    resample (the kernel runs none on these meshes, whose arcs stay even).
    Returns the vertices and each step's smoothing order."""
    v, orders = vertices, []
    for _ in range(steps):
        edge_len, curvature, normal = _roll_geometry(v)
        orders.append(smoothing_order(
            control.dt, float(np.min(edge_len)), float(np.min(curvature)),
            control.safety, control.max_smoothing))
        speed = smooth_periodic(1.0 / curvature, orders[-1])
        if mode == "unnormalized":
            v = v + control.dt * speed[:, None] * normal
        else:
            v = _hypot_renormalize(v + control.dt * (-v + speed[:, None] * normal))
    return v, orders


def _evolve_orders(state, control, t_end, monkeypatch):
    """The kernel's end state and smoothing orders; asserts that it resampled
    nothing."""
    orders, resamples = [], []

    def recording(*args):
        orders.append(smoothing_order(*args))
        return orders[-1]

    monkeypatch.setattr(flow, "smoothing_order", recording)
    monkeypatch.setattr(flow, "resample_uniform",
                        lambda v, n, arcs: resamples.append(n) or resample_uniform(v, n, arcs))
    out = evolve(state, control, t_end).vertices
    assert not resamples
    return out, orders


@pytest.mark.parametrize("mode", ["normalized", "unnormalized"])
def test_evolve_matches_the_reference_stepper_to_roundoff(mode, monkeypatch):
    control = StepControl(dt=5e-4, resample_every=7)
    s = initial_state(make_perturbed_circle(1.0, 128, [0.05], [3], seed=1), mode)
    out, orders = _evolve_orders(s, control, 40 * control.dt, monkeypatch)
    expected, expected_orders = _reference_evolve(s.vertices, mode, control, 40)
    assert orders == expected_orders
    assert np.max(np.abs(out - expected)) <= 1e-14


@pytest.fixture(scope="module")
def flagship_drift():
    """mode -> the kernel's state at t = 0.25 on the flagship's mesh and step
    (2:1 ellipse, n = 512, dt = 1e-4), its smoothing orders, and the frozen
    stepper's state and orders; each mode runs once per module."""
    runs = {}

    def run(mode):
        if mode not in runs:
            control = StepControl(dt=1e-4)
            s = initial_state(make_ellipse(2.0, 1.0, 512), mode)
            with pytest.MonkeyPatch.context() as mp:
                out, orders = _evolve_orders(s, control, 0.25, mp)
            runs[mode] = (out, orders, *_reference_evolve(s.vertices, mode, control, 2500))
        return runs[mode]

    return run


@pytest.mark.parametrize("mode", ["normalized", "unnormalized"])
def test_flagship_drift_from_the_reference_stepper(mode, flagship_drift):
    # the drift gate: at the flagship's mesh and step, the kernel takes the
    # frozen stepper's smoothing order at every step and ends within 1e-12
    out, orders, expected, expected_orders = flagship_drift(mode)
    assert orders == expected_orders
    assert polyline_hausdorff(out, expected) <= 1e-12
    # unresampled, the flow keeps the mesh even
    assert max(arc_spread(compute_metrics(v)) for v in (out, expected)) < 1e-3


@pytest.mark.parametrize("mode", ["normalized", "unnormalized"])
def test_flagship_report_drift_from_the_reference_stepper(mode, flagship_drift):
    # the CSV columns of the drift gate's two end states, at the flagship's
    # offset: dkappa_max and d2kappa_max amplify vertex roundoff by h^-3 and
    # h^-4, so they agree to their noise floors, and gn_ratio to what those
    # floors allow it to first order; the other columns agree to 1e-9
    # relative, center_norm (roundoff on this centred ellipse) to 1e-14
    out, _, expected, _ = flagship_drift(mode)
    got, want = (snapshot_report(0.25, view, compute_metrics(view), 0.72382722)
                 for view in (renormalize(out), renormalize(expected)))
    dk_floor, d2k_floor = derivative_noise_floors(512)
    assert abs(got["dkappa_max"] - want["dkappa_max"]) <= dk_floor
    assert abs(got["d2kappa_max"] - want["d2kappa_max"]) <= d2k_floor
    gn_rel = dk_floor / want["dkappa_max"] + 0.6 * d2k_floor / want["d2kappa_max"]
    assert got["gn_ratio"] == pytest.approx(want["gn_ratio"], rel=gn_rel + 1e-9, abs=0)
    assert got["center_norm"] == pytest.approx(want["center_norm"], rel=1e-9, abs=1e-14)
    for field in set(want) - {"dkappa_max", "d2kappa_max", "gn_ratio", "center_norm"}:
        assert got[field] == pytest.approx(want[field], rel=1e-9, abs=0), field


@pytest.mark.parametrize("scale", [1e-3, 7.5, 1e3])
@pytest.mark.parametrize("mode", ["normalized", "unnormalized"])
def test_the_step_is_homogeneous_of_degree_one_in_scale(mode, scale, monkeypatch):
    # the identity the normalized lane's deferred rescale rests on: a step
    # of the scaled curve is the scaled step, at the same smoothing order
    orders = []
    monkeypatch.setattr(flow, "smoothing_order",
                        lambda *args: orders.append(smoothing_order(*args)) or orders[-1])
    control = StepControl(dt=1e-3)
    v = make_perturbed_circle(1.0, 256, [0.05], [3], seed=1)
    stepped = []
    for w in (v, scale * v):
        terms = _kernel_terms(w)
        stepped.append(flow._step(w, terms, float(terms[2].min()), mode, control.dt, control, 0.0))
    assert orders[0] == orders[1] > 0
    assert np.max(np.abs(stepped[1] / scale - stepped[0])) <= 1e-14 * np.max(np.abs(v))


@pytest.mark.parametrize("a,n,dt,t_end", [(2.0, 128, 1e-3, 0.5), (11.89300328499995, 56, 1e-4, 0.05)],
                         ids=["ellipse", "coarse-resampled"])
def test_the_normalized_lane_is_seen_and_returned_at_length_two_pi(a, n, dt, t_end, monkeypatch):
    # it steps unrescaled, and is rescaled where it is observed or returned;
    # the coarse 12:1 ellipse resamples on the way
    resamples = []
    monkeypatch.setattr(flow, "resample_uniform",
                        lambda v, n, arcs: resamples.append(n) or resample_uniform(v, n, arcs))
    s = initial_state(make_ellipse(a, 1.0, n), "normalized")
    control = StepControl(dt=dt, resample_every=50)
    seen = []
    out = evolve(s, control, t_end, observers=[lambda t, v, m: seen.append((v, m))],
                 snapshot_interval=t_end / 5)
    assert len(seen) == 6 and bool(resamples) == (n == 56)
    for _, m in seen:
        assert m.total_length == pytest.approx(2 * np.pi, rel=1e-13, abs=0)
    for v in (out.vertices, evolve(s, control, t_end).vertices):
        assert compute_metrics(v).total_length == pytest.approx(2 * np.pi, rel=1e-13, abs=0)


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
    # the step kernel's own geometry: compute_metrics' floats, or on a
    # normalized state after the start, its unscaled geometry rescaled, equal
    # to roundoff (curvature's cross product of near-parallel edges loses
    # about log10(n) digits to cancellation)
    seen = []
    s = initial_state(make_perturbed_circle(1.0, 128, [0.05], [3], seed=1), mode)
    evolve(s, StepControl(dt=5e-4, resample_every=3), 0.01,
           observers=[lambda t, v, m: seen.append((v, m))], snapshot_interval=2e-3)
    assert len(seen) == 6
    tolerance = {"edge_lengths": 1e-14, "curvature": 1e-12}
    for k, (v, m) in enumerate(seen):
        expected = compute_metrics(v)
        for field, tol in tolerance.items():
            got, want = getattr(m, field), getattr(expected, field)
            if mode == "unnormalized" or k == 0:
                assert np.array_equal(got, want)
            else:
                assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))
        assert m.total_length == pytest.approx(expected.total_length, rel=1e-14, abs=0)


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
