"""Flow integration: right-hand sides, convergence, singularities, traces."""

import importlib
import json
import logging
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from idcurv import (
    AdmissibilityError,
    EventKind,
    FlowEvent,
    FlowKind,
    FlowSpec,
    FlowTrace,
    Geometry,
    IntegrationError,
    PackingMetric,
    angle_deficits,
    average_curvature,
    csaszar_torus,
    curvature_field,
    flow_rhs,
    grid_torus,
    run_flow,
    tetrahedron,
)
from conftest import genus_two, rk4_reference
from idcurv import curvature_jacobian, geometry
from idcurv.flows import EPS_RADIUS, TERMINAL_EVENTS, _classify_stall

SRC = Path(__file__).resolve().parent.parent / "src"
VANISH_T = math.log((1.0 + math.pi) / math.pi)  # r^2(t) = (1+pi)e^-t - pi from r=1


def terminal(trace):
    return trace.terminal_event()


def event_kinds(trace):
    return [e.kind for e in trace.events]


# -- right-hand side ----------------------------------------------------------------


def test_rhs_vanishes_at_fixed_point(tetra_euc, csaszar_euc):
    rhs = flow_rhs(tetra_euc, np.ones(4), FlowSpec(kind=FlowKind.NORMALIZED_EUCLIDEAN))
    assert np.max(np.abs(rhs)) < 1e-15
    rhs = flow_rhs(
        csaszar_euc, np.full(7, 0.7), FlowSpec(kind=FlowKind.NORMALIZED_EUCLIDEAN)
    )
    assert np.max(np.abs(rhs)) < 1e-13


def test_alpha_zero_rhs_is_deficit_gap(csaszar_euc, rng):
    r = np.exp(rng.uniform(-0.2, 0.2, 7))
    spec = FlowSpec(kind=FlowKind.ALPHA_NORMALIZED, alpha=0.0)
    K = angle_deficits(csaszar_euc, r)
    # chi = 0 here, so the alpha=0 flow aims K at zero
    expected = (2.0 * math.pi * 0.0 / 7.0 - K) * r
    assert np.allclose(flow_rhs(csaszar_euc, r, spec), expected, atol=1e-12)


def test_extended_rhs_finite_outside_cone(tetra_euc):
    r = np.array([1.0, 10.0, 10.0, 10.0])
    with pytest.raises(AdmissibilityError):
        flow_rhs(tetra_euc, r, FlowSpec(kind=FlowKind.NORMALIZED_EUCLIDEAN))
    rhs = flow_rhs(tetra_euc, r, FlowSpec(kind=FlowKind.EXTENDED_EUCLIDEAN))
    assert np.all(np.isfinite(rhs))
    K_ext = np.array([-math.pi, 5 * math.pi / 3, 5 * math.pi / 3, 5 * math.pi / 3])
    R_ext = K_ext / r**2
    expected = 0.5 * (4.0 * math.pi / (r @ r) - R_ext) * r
    assert np.allclose(rhs, expected, atol=1e-12)


def test_spec_validation(tetra_euc, tetra_hyp):
    with pytest.raises(ValueError, match="requires a target"):
        run_flow(tetra_euc, np.ones(4), FlowSpec(kind=FlowKind.MODIFIED_EUCLIDEAN))
    with pytest.raises(ValueError, match="compute their own average"):
        run_flow(
            tetra_euc,
            np.ones(4),
            FlowSpec(kind=FlowKind.NORMALIZED_EUCLIDEAN, target=np.zeros(4)),
        )
    with pytest.raises(ValueError, match="needs a hyperbolic surface"):
        run_flow(
            tetra_euc,
            np.ones(4),
            FlowSpec(kind=FlowKind.MODIFIED_HYPERBOLIC, target=np.full(4, -1.0)),
        )
    with pytest.raises(ValueError, match="needs a euclidean surface"):
        run_flow(tetra_hyp, np.ones(4), FlowSpec(kind=FlowKind.NORMALIZED_EUCLIDEAN))
    with pytest.raises(ValueError, match="target length"):
        run_flow(
            tetra_euc,
            np.ones(4),
            FlowSpec(kind=FlowKind.MODIFIED_EUCLIDEAN, target=np.zeros(5)),
        )
    with pytest.raises(ValueError, match="must be positive"):
        FlowSpec(kind=FlowKind.NORMALIZED_EUCLIDEAN, step=0.0)
    with pytest.raises(ValueError, match="target must be finite"):
        FlowSpec(kind=FlowKind.MODIFIED_EUCLIDEAN, target=np.array([0.0, math.nan, 0.0, 0.0]))


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_non_finite_alpha_is_refused(alpha):
    with pytest.raises(ValueError, match="alpha must be finite"):
        FlowSpec(kind=FlowKind.ALPHA_NORMALIZED, alpha=alpha)


def test_spec_alpha_is_the_alpha_that_runs():
    # an R-preset runs at alpha = 2 whatever it is given; an alpha-preset runs its own
    assert FlowSpec(kind=FlowKind.NORMALIZED_EUCLIDEAN, alpha=1.5).alpha == 2.0
    assert FlowSpec(kind=FlowKind.ALPHA_NORMALIZED, alpha=1.5).alpha == 1.5
    assert {k.family for k in FlowKind} == {"normalized", "modified", "extended"}
    assert [k for k in FlowKind if k.extended] == [
        FlowKind.EXTENDED_EUCLIDEAN, FlowKind.EXTENDED_HYPERBOLIC, FlowKind.ALPHA_EXTENDED
    ]


# NaN passes a plain `x <= 0` check: tol=nan never converges, step=nan dies in
# math.floor, t_max=inf never stops
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["step", "t_max", "tol"])
def test_non_finite_step_controls_are_refused(field, value):
    with pytest.raises(ValueError, match="must be positive and finite"):
        FlowSpec(kind=FlowKind.NORMALIZED_EUCLIDEAN, **{field: value})


# kind -> (pinned geometry, target policy, rate c, uses the alpha power)
FLOW_CONTRACT = {
    FlowKind.NORMALIZED_EUCLIDEAN: (Geometry.EUCLIDEAN, "average", 1.0, False),
    FlowKind.MODIFIED_EUCLIDEAN: (Geometry.EUCLIDEAN, "prescribed", 1.0, False),
    FlowKind.EXTENDED_EUCLIDEAN: (Geometry.EUCLIDEAN, "either", 1.0, False),
    FlowKind.MODIFIED_HYPERBOLIC: (Geometry.HYPERBOLIC, "prescribed", 1.0, False),
    FlowKind.EXTENDED_HYPERBOLIC: (Geometry.HYPERBOLIC, "prescribed", 1.0, False),
    FlowKind.ALPHA_NORMALIZED: (Geometry.EUCLIDEAN, "average", 2.0, True),
    FlowKind.ALPHA_MODIFIED: (None, "prescribed", 2.0, True),
    FlowKind.ALPHA_EXTENDED: (None, "either", 2.0, True),
}
CONTRACT_TARGETS = {
    "none": None,
    "scalar": -1.0,
    "per-vertex": np.full(7, -0.5),
    "wrong-length": np.full(8, -0.5),
}


@pytest.mark.parametrize("target_id", list(CONTRACT_TARGETS))
@pytest.mark.parametrize(
    "geom", [Geometry.EUCLIDEAN, Geometry.HYPERBOLIC], ids=lambda g: g.value
)
@pytest.mark.parametrize("kind", list(FlowKind), ids=lambda k: k.value)
def test_flow_kind_contract(kind, geom, target_id):
    # every kind is du/dt = c (T - K / s^alpha) in u = ln s^2, i.e.
    # dr/dt = 0.5 c (T - K / s^alpha) (r or sinh r); the kind fixes the rest
    pin, policy, c, uses_alpha = FLOW_CONTRACT[kind]
    target = CONTRACT_TARGETS[target_id]
    tri = csaszar_torus(geometry=geom)
    r = np.exp(np.linspace(-0.2, 0.2, 7))
    if geom is Geometry.HYPERBOLIC:
        r = 0.5 * r
    spec = FlowSpec(kind=kind, alpha=1.5, target=target)

    if pin is not None and pin is not geom:
        reason = f"needs a {pin.value} surface"
    elif target is None and (policy == "prescribed" or geom is Geometry.HYPERBOLIC):
        reason = "requires a target curvature"
    elif target is not None and policy == "average":
        reason = "compute their own average target"
    elif target_id == "wrong-length":
        reason = "target length does not match"
    else:
        reason = None
    if reason is not None:
        with pytest.raises(ValueError, match=reason):
            flow_rhs(tri, r, spec)
        return

    alpha = 1.5 if uses_alpha else 2.0
    s = geometry.s_of_r(r, geom)
    T = average_curvature(tri, r, alpha) if target is None else target
    factor = r if geom is Geometry.EUCLIDEAN else np.sinh(r)
    expected = 0.5 * c * (T - angle_deficits(tri, r) / s**alpha) * factor
    # bit for bit: flow_rhs takes the same operations in the same order
    np.testing.assert_array_equal(flow_rhs(tri, r, spec), expected)


# each R-preset (c = 1), the alpha-preset (c = 2) of its family, and the geometry
R_PRESET_TWINS = [
    ("normalized-euclidean", "alpha-normalized", Geometry.EUCLIDEAN),
    ("modified-euclidean", "alpha-modified", Geometry.EUCLIDEAN),
    ("extended-euclidean", "alpha-extended", Geometry.EUCLIDEAN),
    ("modified-hyperbolic", "alpha-modified", Geometry.HYPERBOLIC),
    ("extended-hyperbolic", "alpha-extended", Geometry.HYPERBOLIC),
]


@pytest.mark.parametrize("preset, twin, geom", R_PRESET_TWINS, ids=[p for p, _, _ in R_PRESET_TWINS])
def test_r_preset_is_alpha_preset_in_double_time(preset, twin, geom):
    # c is only the unit of time: the R-preset with step h and its alpha-preset
    # at alpha = 2 with step h/2 take the same steps, every velocity doubled and
    # every step halved, which are exact in binary arithmetic
    tri = csaszar_torus(weight=2.0, geometry=geom)
    scale = 0.5 if geom is Geometry.HYPERBOLIC else 1.0
    rng = np.random.default_rng(31)
    r0 = scale * np.exp(rng.uniform(-0.2, 0.2, 7))
    if preset.startswith("extended"):
        # a start with faces past the triangle inequality, which the flow leaves
        r0 = np.array([1.0, 10, 10, 10, 10, 10, 10])
        r0 *= scale * math.sqrt(7.0 / (r0 @ r0))
    target = None
    if geom is Geometry.HYPERBOLIC or preset.startswith("modified"):
        # a feasible target: the curvature of a packing
        target = curvature_field(tri, scale * np.exp(rng.uniform(-0.2, 0.2, 7))).R
    t_max = 0.25 if geom is Geometry.HYPERBOLIC else 20.0
    slow, r_slow = run_flow(
        tri, r0, FlowSpec(kind=FlowKind(preset), target=target, step=0.02, t_max=t_max, tol=1e-9)
    )
    fast, r_fast = run_flow(
        tri, r0,
        FlowSpec(kind=FlowKind(twin), alpha=2.0, target=target, step=0.01, t_max=t_max / 2,
                 tol=1e-9),
    )
    assert np.array_equal(r_slow.radii, r_fast.radii)
    for key in ("evaluations", "accepted", "rejected_on_error", "illegal", "capped"):
        assert slow.stats[key] == fast.stats[key], key
    assert event_kinds(slow) == event_kinds(fast)
    assert [e.t for e in slow.events] == [2.0 * e.t for e in fast.events]
    assert slow.stats["accepted"] > 0


def test_initial_radii_validation(tetra_euc):
    spec = FlowSpec(kind=FlowKind.NORMALIZED_EUCLIDEAN)
    with pytest.raises(ValueError, match="length"):
        run_flow(tetra_euc, np.ones(5), spec)
    with pytest.raises(ValueError, match="positive"):
        run_flow(tetra_euc, np.array([1.0, -1.0, 1.0, 1.0]), spec)
    with pytest.raises(AdmissibilityError, match="genuine flow started outside"):
        run_flow(tetra_euc, np.array([1.0, 10.0, 10.0, 10.0]), spec)


# -- convergence --------------------------------------------------------------------


def test_immediate_convergence_at_fixed_point(tetra_euc):
    trace, final = run_flow(
        tetra_euc, np.ones(4), FlowSpec(kind=FlowKind.NORMALIZED_EUCLIDEAN)
    )
    ev = terminal(trace)
    assert ev.kind is EventKind.CONVERGED and ev.t == 0.0
    assert np.array_equal(final.radii, np.ones(4))
    assert len(trace.times) == 1


def test_csaszar_convergence_and_conservation(csaszar_euc):
    r0 = np.array([1.3, 0.8, 1.1, 1.0, 0.9, 1.2, 0.95])
    spec = FlowSpec(kind=FlowKind.NORMALIZED_EUCLIDEAN, tol=1e-10)
    trace, final = run_flow(csaszar_euc, r0, spec)
    assert terminal(trace).kind is EventKind.CONVERGED
    assert np.all(np.diff(trace.times) > 0.0)
    assert np.max(np.abs(trace.measure - r0 @ r0)) < 1e-7
    spread = np.ptp(final.radii) / final.radii.mean()
    assert spread < 1e-6
    K = curvature_field(csaszar_euc, final.radii).K
    assert np.max(np.abs(K)) < 1e-9


def test_two_distinct_constant_curvature_limits(tetra_euc, second_root=None):
    from idcurv import find_second_root

    root = find_second_root()
    spec = FlowSpec(kind=FlowKind.NORMALIZED_EUCLIDEAN, tol=1e-12, t_max=400.0)
    r0 = np.array([1.0, root.x0, root.x0, root.x0]) * 1.001
    trace, final = run_flow(tetra_euc, r0, spec)
    assert terminal(trace).kind is EventKind.CONVERGED
    ratio = final.radii[1] / final.radii[0]
    # lands on the second branch, not on the uniform metric
    assert abs(ratio - root.x0) < 1e-9
    assert ratio > 3.0


def test_extended_matches_normalized_while_admissible(csaszar_euc, rng):
    r0 = np.exp(rng.uniform(-0.25, 0.25, 7))
    kw = dict(step=0.01, t_max=1.0, tol=1e-13)
    tr_a, _ = run_flow(csaszar_euc, r0, FlowSpec(kind=FlowKind.NORMALIZED_EUCLIDEAN, **kw))
    tr_b, _ = run_flow(csaszar_euc, r0, FlowSpec(kind=FlowKind.EXTENDED_EUCLIDEAN, **kw))
    assert np.array_equal(tr_a.times, tr_b.times)
    assert np.array_equal(tr_a.radii, tr_b.radii)
    assert not tr_b.extended_region.any()


def test_alpha_measure_conserved(csaszar_euc, rng):
    r0 = np.exp(rng.uniform(-0.2, 0.2, 7))
    spec = FlowSpec(kind=FlowKind.ALPHA_NORMALIZED, alpha=3.0, t_max=2.0, tol=1e-13)
    trace, _ = run_flow(csaszar_euc, r0, spec)
    m = np.sum(trace.radii**3, axis=1)
    # sum r^alpha is invariant; DOP853 asks each step for a local error of
    # about LOCAL_TOL * tol = 1e-15 in r
    assert np.max(np.abs(m - m[0])) < 1e-7


def test_modified_hyperbolic_reaches_prescribed_target(csaszar_hyp):
    rhat = np.full(7, 0.3)
    target = curvature_field(csaszar_hyp, rhat).R
    rng = np.random.default_rng(7)
    pert = rng.normal(size=7) * 1e-6
    pert -= pert.mean()
    spec = FlowSpec(kind=FlowKind.MODIFIED_HYPERBOLIC, target=target, tol=1e-10)
    trace, final = run_flow(csaszar_hyp, rhat * np.exp(pert), spec)
    assert terminal(trace).kind is EventKind.CONVERGED
    assert np.max(np.abs(final.radii - rhat)) < 1e-8
    # positive prescribed curvature lies outside the guaranteed regime
    assert EventKind.TARGET_SIGN_WARNING in event_kinds(trace)


def test_target_sign_warning_only_when_positive(tetra_euc):
    spec = FlowSpec(
        kind=FlowKind.MODIFIED_EUCLIDEAN, target=np.full(4, -1.0), t_max=0.05, tol=1e-13
    )
    trace, _ = run_flow(tetra_euc, np.ones(4), spec)
    assert EventKind.TARGET_SIGN_WARNING not in event_kinds(trace)
    spec = FlowSpec(
        kind=FlowKind.MODIFIED_EUCLIDEAN,
        target=np.array([-1.0, -1.0, 0.5, -1.0]),
        t_max=0.05,
        tol=1e-13,
    )
    trace, _ = run_flow(tetra_euc, np.ones(4), spec)
    warn = [e for e in trace.events if e.kind is EventKind.TARGET_SIGN_WARNING]
    assert len(warn) == 1 and warn[0].index == 2


def test_flow_process_imports_no_scipy_linalg_or_sparse():
    # scipy.linalg costs a flow-only process ~27 MB of RSS and scipy.sparse ~20 MB;
    # only the Jacobian, Newton and spectrum paths need them
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from idcurv import FlowKind, FlowSpec, csaszar_torus, run_flow\n"
        "tri = csaszar_torus()\n"
        "r0 = np.exp(np.random.default_rng(0).uniform(-0.3, 0.3, tri.vertex_count))\n"
        "trace, _ = run_flow(tri, r0, FlowSpec(kind=FlowKind.NORMALIZED_EUCLIDEAN))\n"
        "print(trace.terminal_event().kind.value)\n"
        "print([m for m in sys.modules if m == 'scipy.linalg' or m.startswith('scipy.sparse')])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[:2] == ["Converged", "[]"]


# -- singularities ------------------------------------------------------------------


def essential_singularity_time(tri):
    # dr/dt = (-1 - pi/r^2) r / 2 from r = 1: r^2 hits zero at t = ln((1+pi)/pi)
    spec = FlowSpec(kind=FlowKind.MODIFIED_EUCLIDEAN, target=np.full(4, -1.0), t_max=5.0)
    trace, final = run_flow(tri, np.ones(4), spec)
    ev = terminal(trace)
    assert ev.kind is EventKind.ESSENTIAL_SINGULARITY
    assert ev.index in range(4)
    assert np.max(final.radii) < 1e-6
    return ev.t


def check_removable_singularity(tri):
    # pull vertex 0 inward until the three spoke faces degenerate together;
    # neither the accepted steps nor the stall classifier, which reads the
    # relative slack off the doubled gaps, take a triangle_slack pass
    spec = FlowSpec(
        kind=FlowKind.MODIFIED_EUCLIDEAN, target=np.array([-30.0, 0.2, 0.2, 0.2]), t_max=5.0
    )
    with mock.patch.object(geometry, "triangle_slack", wraps=geometry.triangle_slack) as slack:
        trace, final = run_flow(tri, np.array([1.0, 8.0, 8.0, 8.0]), spec)
    assert trace.stats["accepted"] > 0 and slack.call_count == 0
    ev = terminal(trace)
    assert ev.kind is EventKind.REMOVABLE_SINGULARITY
    assert ev.index in (0, 1, 2)
    assert np.min(final.radii) > 0.5
    slack = geometry.triangle_slack(geometry.face_lengths(tri, final.radii))
    assert np.min(slack) < 1e-9
    x_sup = 4.0 + math.sqrt(18.0)
    assert abs(final.radii[1] / final.radii[0] - x_sup) < 1e-6


def test_essential_singularity_at_known_time(tetra_euc):
    assert abs(essential_singularity_time(tetra_euc) - VANISH_T) < 2e-4


def test_removable_singularity_at_degenerating_face(tetra_euc):
    check_removable_singularity(tetra_euc)


def test_stall_on_an_admissible_state_at_a_face_edge():
    # one vertex of a weight-3 torus shrunk onto the admissibility edge,
    # -3 + sqrt(10): every face is admissible, and its six faces have a
    # relative slack of ~1e-16. With NaN probes only the slack test can
    # find the face, and only a genuine flow asks it
    tri = grid_torus(4, 4, weight=3.0)
    r = np.ones(tri.vertex_count)
    v = tri.faces[5][0]
    inadmissible, admissible = 0.0, 1.0
    for _ in range(60):
        r[v] = 0.5 * (inadmissible + admissible)
        if geometry.admissible(tri, r)[0]:
            admissible = r[v]
        else:
            inadmissible = r[v]
    r[v] = admissible
    assert abs(admissible - (math.sqrt(10.0) - 3.0)) < 1e-15
    assert geometry.admissible(tri, r)[0]
    slack = geometry._relative_slack(geometry._surface_gaps(tri, r))
    assert np.flatnonzero(slack < 1e-12).tolist() == [0, 1, 5, 16, 20, 21]
    nan = np.full(tri.vertex_count, np.nan)
    event = _classify_stall(tri, r, nan, nan, 1e-12, genuine=True)
    assert (event.kind, event.index) == (EventKind.REMOVABLE_SINGULARITY, 0)
    assert _classify_stall(tri, r, nan, nan, 1e-12, genuine=False) is None


def test_stall_at_the_radius_floor(tetra_euc):
    # a radius just above EPS_RADIUS, with NaN probes: the floor names the vertex
    r = np.ones(4)
    r[2] = EPS_RADIUS * (1.0 + 1e-7)
    nan = np.full(4, np.nan)
    for genuine in (True, False):
        event = _classify_stall(tetra_euc, r, nan, nan, 1e-12, genuine)
        assert (event.kind, event.index) == (EventKind.ESSENTIAL_SINGULARITY, 2)


def test_extended_flow_recovers_admissibility(csaszar_i2):
    r0 = np.array([1.0, 10, 10, 10, 10, 10, 10], dtype=float)
    r0 *= math.sqrt(7.0 / (r0 @ r0))
    spec = FlowSpec(kind=FlowKind.EXTENDED_EUCLIDEAN, t_max=200.0, tol=1e-10)
    trace, final = run_flow(csaszar_i2, r0, spec)
    kinds = event_kinds(trace)
    assert kinds == [
        EventKind.LEFT_ADMISSIBLE,
        EventKind.REENTERED_ADMISSIBLE,
        EventKind.CONVERGED,
    ]
    assert trace.extended_region[0] and not trace.extended_region[-1]
    # converges to an equal-radii metric; scale is not pinned through the
    # violent extended phase, only the shape is
    assert np.ptp(final.radii) / final.radii.mean() < 1e-6


def test_hyperbolic_blowup_raises_with_partial_trace(csaszar_hyp):
    spec = FlowSpec(
        kind=FlowKind.MODIFIED_HYPERBOLIC, target=np.full(7, 100.0), t_max=50.0
    )
    with pytest.raises(IntegrationError, match="step size underflow") as exc:
        run_flow(csaszar_hyp, np.ones(7), spec)
    trace = exc.value.trace
    assert trace is not None and len(trace.times) >= 1
    assert not any(e.kind in TERMINAL_EVENTS for e in trace.events)
    # the step statistics of the failed run travel with its trace
    assert trace.stats["evaluations"] > 0
    assert trace.stats["rejected_on_error"] + trace.stats["illegal"] > 0


# -- stepping mechanics ---------------------------------------------------------------


def test_dop853_evaluates_eleven_stages_per_attempt(csaszar_euc, monkeypatch):
    # the DOP853 error estimates need no stage at the candidate, so an
    # attempted step costs eleven stage evaluations, and only a candidate that
    # passes the error test is evaluated (once, by _legal)
    flows = importlib.import_module("idcurv.flows")
    counts = dict.fromkeys(["evaluations", "attempts", "evaluated", "accepted"], 0)
    deficits, propose, legal = flows.angle_deficits, flows._propose, flows._legal

    def counting_deficits(*args, **kwargs):
        counts["evaluations"] += 1
        return deficits(*args, **kwargs)

    def counting_propose(*args):
        counts["attempts"] += 1
        return propose(*args)

    def counting_legal(*args):
        counts["evaluated"] += 1
        ok = legal(*args)
        counts["accepted"] += ok
        return ok

    monkeypatch.setattr(flows, "angle_deficits", counting_deficits)
    monkeypatch.setattr(flows, "_propose", counting_propose)
    monkeypatch.setattr(flows, "_legal", counting_legal)
    r0 = np.array([1.3, 0.8, 1.1, 1.0, 0.9, 1.2, 0.95])
    spec = FlowSpec(kind=FlowKind.NORMALIZED_EUCLIDEAN, step=0.5)
    trace, _ = run_flow(csaszar_euc, r0, spec)
    assert terminal(trace).kind is EventKind.CONVERGED
    # the first trial step is too long for the local tolerance
    assert counts["accepted"] == counts["evaluated"] < counts["attempts"]
    assert counts["evaluations"] == 11 * counts["attempts"] + counts["evaluated"] + 1


def test_dop853_default_cuts_evaluations_on_grid_torus():
    # the normalized flow on the 8x8 grid torus converges exponentially, so
    # error control lets the step grow far past the fixed step of the RK4
    # reference, which costs four evaluations per step
    tri = grid_torus(8, 8)
    r0 = np.exp(np.random.default_rng(8).uniform(-0.3, 0.3, tri.vertex_count))
    spec = FlowSpec(kind=FlowKind.NORMALIZED_EUCLIDEAN, step=0.01)
    trace, final = run_flow(tri, r0, spec)
    assert terminal(trace).kind is EventKind.CONVERGED
    t, fixed_r, fixed_steps = rk4_reference(tri, r0, spec, spec.step)
    assert t < spec.t_max
    assert 10 * trace.stats["evaluations"] <= 4 * fixed_steps
    assert np.max(np.abs(final.radii - fixed_r)) < 1e-7
    assert abs(final.radii @ final.radii - r0 @ r0) / (r0 @ r0) < 1e-10


def test_dop853_tableau_order_conditions():
    # the stage rows sum to the nodes c of DOP853 (the last one at 1), the
    # weights meet the quadrature conditions of order 8, and both error rules
    # integrate constants exactly, so they vanish on a constant velocity
    flows = importlib.import_module("idcurv.flows")
    A, B = flows._A, flows._B
    c4 = (6.0 - math.sqrt(6.0)) / 30.0
    c = np.array(
        [0.0, 4.0 / 9.0 * c4, 2.0 / 3.0 * c4, c4, (6.0 + math.sqrt(6.0)) / 30.0,
         1.0 / 3.0, 0.25, 4.0 / 13.0, 127.0 / 195.0, 0.6, 6.0 / 7.0, 1.0]
    )
    assert np.array_equal(A, np.tril(A, -1))
    np.testing.assert_allclose(A.sum(axis=1), c, rtol=0.0, atol=1e-14)
    for k in range(1, 9):
        assert B @ c ** (k - 1) == pytest.approx(1.0 / k, abs=1e-14)
    for weights in (flows._E5, flows._E3):
        assert len(weights) == len(B)
        assert weights.sum() == pytest.approx(0.0, abs=1e-14)


def test_stability_boundary_matches_scan():
    # |R(-x)| from the stability polynomial R(z) = 1 + sum_j z^j b A^(j-1) 1
    # of the tableau: a fine grid brackets the first x with |R(-x)| > 1 and
    # bisection narrows the bracket to 1e-10 around the literal
    flows = importlib.import_module("idcurv.flows")
    n = len(flows._B)
    coeffs = [1.0] + [
        flows._B @ np.linalg.matrix_power(flows._A, j) @ np.ones(n) for j in range(n)
    ]

    def unstable(x):
        return np.abs(np.polynomial.polynomial.polyval(-x, coeffs)) > 1.0

    xs = np.arange(1, 80001) * 1e-4
    k = np.argmax(unstable(xs))
    assert k > 0 and unstable(xs[k])
    lo, hi = xs[k - 1], xs[k]
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if unstable(mid) else (mid, hi)
    assert lo - 1e-10 <= flows._BETA <= hi + 1e-10
    assert 6.3 < flows._BETA < 6.5


def flow_summary(caplog):
    """Arguments of the one DEBUG record a run_flow call left on idcurv.flows:
    (t, evaluations, accepted, rejected on error, illegal, capped, rho)."""
    records = [rec for rec in caplog.records if rec.name == "idcurv.flows"]
    assert len(records) == 1
    assert records[0].levelno == logging.DEBUG
    assert "run_flow ended" in records[0].getMessage()
    return records[0].args


def test_stiffness_estimate_matches_jacobian_spectrum(caplog):
    # the hyperbolic flow on genus 2 is stiff (rates up to ~330 near the
    # limit): the cap holds its steps, and the last estimate of the stiffest
    # rate lies near the top of the spectrum of the flow's Jacobian in u,
    # J = -diag(s^-2) L + diag(K s^-2)
    tri = genus_two(Geometry.HYPERBOLIC)
    r0 = np.exp(np.random.default_rng(1).uniform(-0.3, 0.3, tri.vertex_count))
    spec = FlowSpec(kind=FlowKind.MODIFIED_HYPERBOLIC, target=-1.0)
    with caplog.at_level(logging.DEBUG, logger="idcurv.flows"):
        trace, final = run_flow(tri, r0, spec)
    assert terminal(trace).kind is EventKind.CONVERGED
    *_, capped, rho = flow_summary(caplog)
    assert capped > 0
    r = final.radii
    s = geometry.s_of_r(r, tri.geometry)
    J = -(curvature_jacobian(tri, r).matrix / s[:, None] ** 2) + np.diag(
        angle_deficits(tri, r) / s**2
    )
    top = np.abs(np.linalg.eigvals(J)).max()
    assert abs(rho - top) < 0.1 * top


@pytest.mark.parametrize("case", ["error-rejections", "illegal-candidates"])
def test_run_flow_logs_one_summary(tetra_euc, csaszar_euc, monkeypatch, caplog, case):
    # the record's counts are the run's own: curvature evaluations as
    # angle_deficits sees them, accepted steps as _legal grants them, and
    # every other attempt rejected either on error or as illegal
    flows = importlib.import_module("idcurv.flows")
    counts = dict.fromkeys(["evaluations", "attempts", "accepted"], 0)
    deficits, propose, legal = flows.angle_deficits, flows._propose, flows._legal

    def counting_deficits(*args, **kwargs):
        counts["evaluations"] += 1
        return deficits(*args, **kwargs)

    def counting_propose(*args):
        counts["attempts"] += 1
        return propose(*args)

    def counting_legal(*args):
        ok = legal(*args)
        counts["accepted"] += ok
        return ok

    monkeypatch.setattr(flows, "angle_deficits", counting_deficits)
    monkeypatch.setattr(flows, "_propose", counting_propose)
    monkeypatch.setattr(flows, "_legal", counting_legal)
    if case == "error-rejections":
        r0 = np.array([1.3, 0.8, 1.1, 1.0, 0.9, 1.2, 0.95])
        tri, spec = csaszar_euc, FlowSpec(kind=FlowKind.NORMALIZED_EUCLIDEAN, step=0.5)
    else:
        # the removable singularity of check_removable_singularity
        r0 = np.array([1.0, 8.0, 8.0, 8.0])
        target = np.array([-30.0, 0.2, 0.2, 0.2])
        tri, spec = tetra_euc, FlowSpec(kind=FlowKind.MODIFIED_EUCLIDEAN, target=target)
    with caplog.at_level(logging.DEBUG, logger="idcurv.flows"):
        trace, _ = run_flow(tri, r0, spec)
    t, evaluations, accepted, error, illegal, capped, rho = flow_summary(caplog)
    assert t == terminal(trace).t
    assert evaluations == counts["evaluations"]
    assert accepted == counts["accepted"] > 0
    assert error + illegal == counts["attempts"] - accepted
    if case == "error-rejections":
        assert error > 0 and illegal == 0
    else:
        assert illegal > 0
    assert 0 <= capped <= accepted and rho > 0.0


def test_trace_stats_are_the_run_summary(csaszar_euc, monkeypatch, caplog):
    # FlowTrace.stats holds the numbers of the run's DEBUG record, and its
    # evaluation count is the number of curvature evaluations the run made
    flows = importlib.import_module("idcurv.flows")
    calls = [0]
    deficits = flows.angle_deficits

    def counting_deficits(*args, **kwargs):
        calls[0] += 1
        return deficits(*args, **kwargs)

    monkeypatch.setattr(flows, "angle_deficits", counting_deficits)
    r0 = np.array([1.3, 0.8, 1.1, 1.0, 0.9, 1.2, 0.95])
    spec = FlowSpec(kind=FlowKind.NORMALIZED_EUCLIDEAN, step=0.5)
    with caplog.at_level(logging.DEBUG, logger="idcurv.flows"):
        trace, _ = run_flow(csaszar_euc, r0, spec)
    assert terminal(trace).kind is EventKind.CONVERGED
    assert trace.stats["evaluations"] == calls[0] > 0
    assert list(trace.stats) == [
        "evaluations", "accepted", "rejected_on_error", "illegal", "capped", "rho"
    ]
    assert tuple(trace.stats.values()) == flow_summary(caplog)[1:]
    # a trace built by hand has no statistics
    bare = FlowTrace(trace.times, trace.radii, trace.max_err, trace.measure,
                     trace.extended_region, trace.events)
    assert bare.stats == {}


def test_candidate_admissibility_comes_from_its_evaluation(csaszar_euc, monkeypatch):
    # a genuine flow never runs geometry.admissible: the start, and each
    # accepted candidate, is legal by its own curvature evaluation, which
    # reads the edge lengths directly, so no face-length rows are built and no
    # triangle slack is taken
    flows = importlib.import_module("idcurv.flows")
    counts = dict.fromkeys(
        ["admissible", "face_lengths", "triangle_slack", "angle_deficits", "_legal"], 0
    )

    def count(owner, name, truthy_only=False):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            counts[name] += bool(result) if truthy_only else 1
            return result

        monkeypatch.setattr(owner, name, counted)

    count(geometry, "admissible")
    count(geometry, "face_lengths")
    count(geometry, "triangle_slack")
    count(flows, "angle_deficits")
    count(flows, "_legal", truthy_only=True)
    r0 = np.array([1.3, 0.8, 1.1, 1.0, 0.9, 1.2, 0.95])
    spec = FlowSpec(kind=FlowKind.NORMALIZED_EUCLIDEAN, t_max=2.0)
    run_flow(csaszar_euc, r0, spec)
    assert counts["_legal"] > 0
    assert counts["admissible"] == 0
    assert counts["face_lengths"] == counts["triangle_slack"] == 0 < counts["angle_deficits"]


def test_extended_region_flag_comes_from_its_evaluation(csaszar_i2, monkeypatch):
    # an extended flow takes its region flag, at the start as at each accepted
    # candidate, from that state's own face mask; geometry.admissible never runs
    flows = importlib.import_module("idcurv.flows")
    calls = [0]
    admissible = geometry.admissible

    def counting_admissible(*args, **kwargs):
        calls[0] += 1
        return admissible(*args, **kwargs)

    monkeypatch.setattr(geometry, "admissible", counting_admissible)
    r0 = np.array([1.0, 10, 10, 10, 10, 10, 10], dtype=float)
    r0 *= math.sqrt(7.0 / (r0 @ r0))
    spec = FlowSpec(kind=FlowKind.EXTENDED_EUCLIDEAN)
    trace, _ = flows.run_flow(csaszar_i2, r0, spec)
    assert calls[0] == 0
    left, back, _ = trace.events
    assert (left.kind, back.kind) == (EventKind.LEFT_ADMISSIBLE, EventKind.REENTERED_ADMISSIBLE)
    monkeypatch.undo()
    assert left.index == geometry.admissible(csaszar_i2, r0)[1][0]
    for radii, outside in zip(trace.radii, trace.extended_region):
        assert outside == (not geometry.admissible(csaszar_i2, radii)[0])


def test_inadmissible_candidate_is_illegal(tetra_euc):
    flows = importlib.import_module("idcurv.flows")
    outside = np.array([[1.0, 10.0, 10.0, 10.0]])
    assert not geometry.admissible(tetra_euc, outside[0])[0]
    genuine = FlowSpec(kind=FlowKind.MODIFIED_EUCLIDEAN, target=np.zeros(4))
    k1, err = np.full((1, 4), 7.0), np.full(1, 7.0)
    tally, legal = np.zeros(1, dtype=np.int64), np.ones(1, dtype=bool)
    rate = flows._rates(tetra_euc, genuine)
    assert flows._legal(tetra_euc, rate, outside, k1, err, None, tally, legal) is False
    assert legal.tolist() == [False] and tally.tolist() == [1]
    assert np.array_equal(k1, np.full((1, 4), 7.0)) and err.tolist() == [7.0]
    # the extended kind takes the same radii, and its velocity is the flow's
    extended = FlowSpec(kind=FlowKind.EXTENDED_EUCLIDEAN, target=np.zeros(4))
    legal[:], mask = True, np.zeros((1, 4), dtype=bool)
    rate = flows._rates(tetra_euc, extended)
    assert flows._legal(tetra_euc, rate, outside, k1, err, mask, tally, legal) is True
    assert legal.tolist() == [True] and tally.tolist() == [2]
    assert mask.any()
    assert np.array_equal(k1[0], flow_rhs(tetra_euc, outside[0], extended))
    dev = rate(outside, np.empty((1, 4)))
    assert err[0] == np.max(np.abs(dev))


def test_legal_writes_each_candidates_verdict(tetra_euc):
    # for a stack of candidates _legal writes a verdict per row into `legal`
    # and returns a plain bool, whether every row tried is legal; rows out of
    # bounds are refused unevaluated, rows not tried are left alone
    flows = importlib.import_module("idcurv.flows")
    spec = FlowSpec(kind=FlowKind.MODIFIED_EUCLIDEAN, target=np.zeros(4))
    rows = np.array([[1.0, 1.1, 0.9, 1.0], [1.0, 10.0, 10.0, 10.0], [1e-9, 1.0, 1.0, 1.0],
                     [1.0, 1.0, 1.0, 1.0]])
    k1, err, tally = np.full((4, 4), 7.0), np.full(4, 7.0), np.zeros(4, dtype=np.int64)
    legal = np.array([True, True, True, False])
    rate = flows._rates(tetra_euc, spec)
    verdict = flows._legal(tetra_euc, rate, rows, k1, err, None, tally, legal)
    assert verdict is False
    assert legal.tolist() == [True, False, False, False]
    assert tally.tolist() == [1, 1, 0, 0]
    alone = np.empty((1, 4))
    dev = rate(rows[:1], alone)
    assert np.array_equal(k1[0], alone[0]) and err[0] == np.max(np.abs(dev))
    assert np.all(k1[1:] == 7.0) and np.all(err[1:] == 7.0)
    legal = np.ones(1, dtype=bool)
    assert flows._legal(tetra_euc, rate, rows[:1], k1[:1], err[:1], None, tally[:1], legal) is True
    assert legal.tolist() == [True] and tally.tolist() == [2, 1, 0, 0]


@pytest.mark.parametrize("failure", ["cone", "admissibility"])
def test_failed_stage_row_leaves_the_attempt(tetra_euc, monkeypatch, failure):
    # a row whose first stage leaves the positive cone, or has a face past a
    # triangle inequality, is not evaluated at the attempt's later stages: the
    # kernel sees only the other row there, and that row's attempt is the one
    # it makes alone
    flows = importlib.import_module("idcurv.flows")
    spec = FlowSpec(kind=FlowKind.MODIFIED_EUCLIDEAN, target=np.zeros(4))
    r = np.array([[1.0, 1.1, 0.9, 1.0], [1.0, 1.0, 1.0, 1.0]])
    h = np.array([0.01, 1.0])
    k1, rate = np.empty_like(r), flows._rates(tetra_euc, spec)
    rate(r, k1)
    # the second row's first stage, r + h a k1 (a = _A[1, 0]), lands on `stage`
    stage = [-1.0, 1.0, 1.0, 1.0] if failure == "cone" else [1.0, 10.0, 10.0, 10.0]
    k1[1] = (np.array(stage) - r[1]) / (h[1] * flows._A[1, 0])
    solo = flows._propose(tetra_euc, rate, r[:1], k1[:1], h[:1], spec.tol, np.zeros(1, dtype=np.int64))
    rows = []
    deficits = flows.angle_deficits

    def counting_deficits(tri, *args, **kwargs):
        rows.append(tri.vertex_count // 4)
        return deficits(tri, *args, **kwargs)

    monkeypatch.setattr(flows, "angle_deficits", counting_deficits)
    tally = np.zeros(2, dtype=np.int64)
    candidate, err, _ = flows._propose(tetra_euc, rate, r, k1, h, spec.tol, tally)
    # the admissibility failure costs the union's call and the other row's
    first = [1] if failure == "cone" else [2, 1]
    assert rows == first + [1] * 10
    assert tally.tolist() == [11, 0 if failure == "cone" else 1]
    assert candidate[0].tobytes() == solo[0][0].tobytes() and err[0] == solo[1][0]
    assert np.isnan(candidate[1]).all() and np.isnan(err[1])


def test_infinite_stage_row_leaves_the_attempt_without_a_warning(tetra_euc):
    # a row whose velocity holds inf has an inf first-stage radius: it leaves
    # the attempt as a NaN candidate and error, and neither the stage test nor
    # the error estimate does arithmetic on its inf (inf - inf and inf / inf
    # warn); the other row's attempt is the one it makes alone
    flows = importlib.import_module("idcurv.flows")
    spec = FlowSpec(kind=FlowKind.MODIFIED_EUCLIDEAN, target=np.zeros(4))
    r = np.array([[1.0, 1.1, 0.9, 1.0], [1.0, 1.0, 1.0, 1.0]])
    h = np.array([0.01, 0.01])
    k1, rate = np.empty_like(r), flows._rates(tetra_euc, spec)
    rate(r, k1)
    k1[1, 1] = math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solo = flows._propose(tetra_euc, rate, r[:1], k1[:1], h[:1], spec.tol, np.zeros(1, dtype=np.int64))
        tally = np.zeros(2, dtype=np.int64)
        candidate, err, _ = flows._propose(tetra_euc, rate, r, k1, h, spec.tol, tally)
    assert tally.tolist() == [11, 0]
    assert candidate[0].tobytes() == solo[0][0].tobytes() and err[0] == solo[1][0]
    assert np.isnan(candidate[1]).all() and np.isnan(err[1])


def test_failed_union_is_split_by_the_faces_its_error_names(tetra_euc, monkeypatch):
    # when the union's evaluation fails on one row's faces, the faces its
    # AdmissibilityError carries name that row, with no admissibility pass, and
    # the other rows are evaluated together: two kernel calls, where
    # evaluating each row alone makes b + 1
    flows = importlib.import_module("idcurv.flows")
    spec = FlowSpec(kind=FlowKind.MODIFIED_EUCLIDEAN, target=np.zeros(4))
    rows = np.array([[1.0, 1.1, 0.9, 1.0], [1.0, 10.0, 10.0, 10.0], [0.9, 1.0, 1.1, 1.0]])
    rate, solo = flows._rates(tetra_euc, spec), {}
    for j in (0, 2):
        alone = np.empty((1, 4))
        solo[j] = (alone, rate(rows[j : j + 1], alone))
    counts = {"angle_deficits": 0, "admissible": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(flows, "angle_deficits")
    counting(geometry, "admissible")
    k1, err = np.full((3, 4), 7.0), np.full(3, 7.0)
    tally, legal = np.zeros(3, dtype=np.int64), np.ones(3, dtype=bool)
    assert flows._legal(tetra_euc, rate, rows, k1, err, None, tally, legal) is False
    assert counts == {"angle_deficits": 2, "admissible": 0}
    assert legal.tolist() == [True, False, True]
    assert tally.tolist() == [1, 1, 1]
    for j, (alone, dev) in solo.items():
        assert k1[j].tobytes() == alone[0].tobytes()
        assert err[j] == np.max(np.abs(dev))
    assert np.all(k1[1] == 7.0) and err[1] == 7.0


def test_packing_metric_input(tetra_euc):
    spec = FlowSpec(kind=FlowKind.NORMALIZED_EUCLIDEAN)
    as_metric = run_flow(tetra_euc, PackingMetric(np.ones(4), tetra_euc.geometry), spec)
    as_array = run_flow(tetra_euc, np.ones(4), spec)
    assert np.array_equal(as_metric[1].radii, as_array[1].radii)


def test_horizon_event(csaszar_euc):
    r0 = np.array([1.3, 0.8, 1.1, 1.0, 0.9, 1.2, 0.95])
    spec = FlowSpec(kind=FlowKind.NORMALIZED_EUCLIDEAN, t_max=0.5, tol=1e-14)
    trace, _ = run_flow(csaszar_euc, r0, spec)
    ev = terminal(trace)
    assert ev.kind is EventKind.HORIZON_REACHED
    assert abs(ev.t - 0.5) < 1e-12


def test_trace_io_roundtrip(tmp_path, csaszar_euc):
    r0 = np.array([1.3, 0.8, 1.1, 1.0, 0.9, 1.2, 0.95])
    spec = FlowSpec(kind=FlowKind.NORMALIZED_EUCLIDEAN, t_max=1.0, tol=1e-14)
    trace, _ = run_flow(csaszar_euc, r0, spec)
    csv = tmp_path / "trace.csv"
    evs = tmp_path / "events.json"
    stats = tmp_path / "stats.json"
    trace.write_csv(csv)
    trace.write_events(evs)
    trace.write_stats(stats)

    header = csv.read_text().splitlines()[0].split(",")
    assert header[0] == "t" and header[1] == "r_0" and header[-1] == "extended_region"
    data = np.genfromtxt(csv, delimiter=",", skip_header=1)
    assert np.array_equal(data[:, 0], trace.times)
    assert np.array_equal(data[:, 1:8], trace.radii)
    assert np.array_equal(data[:, 8], trace.max_err)

    payload = json.loads(evs.read_text())
    assert [p["kind"] for p in payload] == [e.kind.value for e in trace.events]
    assert payload[-1]["t"] == trace.events[-1].t
    assert json.loads(stats.read_text()) == trace.stats


@pytest.mark.parametrize("terminal_count", [0, 2])
def test_terminal_event_needs_exactly_one(terminal_count):
    # a trace built by hand may hold no terminal event or more than one
    events = [FlowEvent(0.0, EventKind.LEFT_ADMISSIBLE, 3)]
    events += [FlowEvent(float(k), EventKind.CONVERGED, None) for k in range(terminal_count)]
    trace = FlowTrace(times=np.zeros(1), radii=np.ones((1, 4)), max_err=np.zeros(1),
                      measure=np.zeros(1), extended_region=np.zeros(1, dtype=bool), events=events)
    with pytest.raises(RuntimeError, match=f"trace holds {terminal_count} terminal events"):
        trace.terminal_event()


def test_trace_csv_bytes(tmp_path):
    # every float cell is written as %.17g, so it reads back exactly, with
    # inf, nan and -0 spelled as Python spells them; the region flag as 0/1
    trace = FlowTrace(
        times=np.array([0.0, 0.1, 2.5]),
        radii=np.array([[1.0, -0.0], [math.inf, 1e-300], [0.1 + 0.2, math.nan]]),
        max_err=np.array([math.nan, -math.inf, 1.5e10]),
        measure=np.array([-0.0, 3.0, 1.0 / 3.0]),
        extended_region=np.array([False, True, False]),
        events=[],
    )
    csv = tmp_path / "trace.csv"
    trace.write_csv(csv)
    assert csv.read_bytes() == (
        b"t,r_0,r_1,max_err,measure,extended_region\n"
        b"0,1,-0,nan,-0,0\n"
        b"0.10000000000000001,inf,1e-300,-inf,3,1\n"
        b"2.5,0.30000000000000004,nan,15000000000,0.33333333333333331,0\n"
    )


# -- lockstep batches -----------------------------------------------------------------


def test_candidate_failing_its_own_evaluation_is_illegal_in_a_stack(csaszar_i2, monkeypatch):
    # a candidate that passes the error test but fails its own curvature
    # evaluation, here by a face past a triangle inequality, is rejected as
    # illegal and its start steps on to convergence; the other start of the
    # stack takes the steps it takes alone
    flows = importlib.import_module("idcurv.flows")
    spec = FlowSpec(kind=FlowKind.NORMALIZED_EUCLIDEAN)
    starts = np.array([[1.3, 0.8, 1.1, 1.0, 0.9, 1.2, 0.95], [0.9, 1.2, 1.0, 1.1, 0.8, 1.05, 1.0]])
    solo = [run_flow(csaszar_i2, start, spec) for start in starts]
    snapped = starts[1].copy()
    snapped[csaszar_i2.faces[0]] *= (12.0, 3.0, 0.4)
    assert not geometry.admissible(csaszar_i2, snapped)[0]
    propose, passes = flows._propose, [0]

    def snapping_propose(*args):
        candidate, err, end_state = propose(*args)
        passes[0] += 1
        if passes[0] == 1:
            candidate[1], err[1] = snapped, 0.0
        return candidate, err, end_state

    monkeypatch.setattr(flows, "_propose", snapping_propose)
    batch = run_flow(csaszar_i2, starts, spec)
    assert solo[1][0].stats["illegal"] == 0
    assert batch[1][0].stats["illegal"] == 1
    assert batch[1][0].terminal_event().kind is EventKind.CONVERGED
    assert_same_run(solo[0], batch[0])


def snapped_starts(tri, count, seed):
    """Nearly equal radii, each start with one face pushed past the triangle
    inequality (its corners scaled by 12, 3 and 0.4), rescaled to sum(r^2) = N."""
    rng = np.random.default_rng(seed)
    starts = []
    for _ in range(count):
        r = np.exp(rng.uniform(-0.01, 0.01, tri.vertex_count))
        r[tri.faces[rng.integers(tri.face_count)]] *= (12.0, 3.0, 0.4)
        assert not geometry.admissible(tri, r)[0]
        starts.append(r * math.sqrt(tri.vertex_count / (r @ r)))
    return np.array(starts)


def batch_cases():
    """id -> (surface, starts, spec, terminal event kinds of the starts)."""
    rng = np.random.default_rng(18)
    torus = grid_torus(8, 8)
    hyp = csaszar_torus(geometry=Geometry.HYPERBOLIC)
    rhat = np.full(7, 0.3)
    wobble = rng.normal(size=(3, 7)) * 1e-6
    snapped = grid_torus(4, 4, weight=2.0)
    tetra = tetrahedron()
    converged, essential = EventKind.CONVERGED, EventKind.ESSENTIAL_SINGULARITY
    return {
        "normalized-euclidean": (
            torus, np.exp(rng.uniform(-0.3, 0.3, (4, 64))),
            FlowSpec(kind=FlowKind.NORMALIZED_EUCLIDEAN), [converged] * 4,
        ),
        "extended-euclidean": (
            snapped, snapped_starts(snapped, 4, seed=18),
            FlowSpec(kind=FlowKind.EXTENDED_EUCLIDEAN), [converged] * 4,
        ),
        "modified-hyperbolic": (
            hyp, rhat * np.exp(wobble - wobble.mean(axis=1, keepdims=True)),
            FlowSpec(kind=FlowKind.MODIFIED_HYPERBOLIC, target=curvature_field(hyp, rhat).R,
                     tol=1e-10),
            [converged] * 3,
        ),
        "alpha-modified": (
            csaszar_torus(), np.exp(rng.uniform(-0.2, 0.2, (3, 7))),
            FlowSpec(kind=FlowKind.ALPHA_MODIFIED, alpha=1.0, target=np.zeros(7)),
            [converged] * 3,
        ),
        # three small circles around a large one collapse, while symmetric
        # starts near the uniform metric converge
        "essential-among-converging": (
            tetra, np.array([[1.0, 2.0, 2.0, 2.0], [1.0, 0.1, 0.1, 0.1], [1.0, 1.1, 1.1, 1.1]]),
            FlowSpec(kind=FlowKind.NORMALIZED_EUCLIDEAN), [converged, essential, converged],
        ),
        # a genuine flow whose candidates and stages fail on some starts' faces
        # only: each failure stays with its start
        "removable-among-essential": (
            tetra, np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 8.0, 8.0, 8.0], [0.9, 1.0, 1.1, 1.0]]),
            FlowSpec(kind=FlowKind.MODIFIED_EUCLIDEAN, target=np.array([-30.0, 0.2, 0.2, 0.2]),
                     t_max=5.0),
            [essential, EventKind.REMOVABLE_SINGULARITY, essential],
        ),
        # the middle start is the fixed point: it stops at t = 0, before the
        # first pass, while the others run on
        "converged-at-start": (
            tetra, np.array([[1.0, 1.1, 1.1, 1.1], np.ones(4), [1.0, 1.3, 1.3, 1.3]]),
            FlowSpec(kind=FlowKind.NORMALIZED_EUCLIDEAN), [converged] * 3,
        ),
    }


def solo_and_batch(tri, starts, spec, monkeypatch):
    """Each start's own run_flow result (or IntegrationError), the batch's
    results, and the number of angle_deficits calls the batch made."""
    solo = []
    for start in starts:
        try:
            solo.append(run_flow(tri, start, spec))
        except IntegrationError as exc:
            solo.append(exc)
    flows = importlib.import_module("idcurv.flows")
    calls = [0]
    deficits = flows.angle_deficits

    def counting_deficits(*args, **kwargs):
        calls[0] += 1
        return deficits(*args, **kwargs)

    monkeypatch.setattr(flows, "angle_deficits", counting_deficits)
    batch = run_flow(tri, starts, spec)
    monkeypatch.undo()
    return solo, batch, calls[0]


def trace_of(result):
    return result.trace if isinstance(result, IntegrationError) else result[0]


def assert_same_run(solo, batched):
    """Bit for bit the same trace, events, statistics and final radii."""
    assert type(solo) is type(batched)
    if isinstance(solo, IntegrationError):
        assert str(solo) == str(batched)
    else:
        assert solo[1].radii.tobytes() == batched[1].radii.tobytes()
    a, b = trace_of(solo), trace_of(batched)
    for field in ("times", "radii", "max_err", "measure", "extended_region"):
        assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field
    assert a.events == b.events
    assert a.stats == b.stats


@pytest.mark.parametrize("case", list(batch_cases()))
def test_batch_matches_solo_runs(case, monkeypatch):
    # a stack of starts is stepped in lockstep, one curvature evaluation per
    # stage for all of them, and every start's run is the one it makes alone
    tri, starts, spec, terminals = batch_cases()[case]
    solo, batch, calls = solo_and_batch(tri, starts, spec, monkeypatch)
    assert len(batch) == len(starts)
    for one, batched in zip(solo, batch):
        assert_same_run(one, batched)
    assert [terminal(trace_of(result)).kind for result in batch] == terminals
    if case == "extended-euclidean":
        for result in batch:
            assert event_kinds(result[0]) == [
                EventKind.LEFT_ADMISSIBLE, EventKind.REENTERED_ADMISSIBLE, EventKind.CONVERGED
            ]
    if case == "modified-hyperbolic":
        for result in batch:
            assert EventKind.TARGET_SIGN_WARNING in event_kinds(result[0])
    if case == "converged-at-start":
        fixed = batch[1][0]
        assert fixed.events == [FlowEvent(0.0, EventKind.CONVERGED)]
        assert fixed.times.tolist() == [0.0] and fixed.stats["evaluations"] == 1
    assert calls < sum(trace_of(result).stats["evaluations"] for result in solo)


@pytest.mark.parametrize("case", ["single-start", "normalized-euclidean", "extended-euclidean"])
def test_each_evaluation_is_one_kernel_call(case, csaszar_euc, monkeypatch):
    # run_flow reaches the angle kernel only through flows.angle_deficits, and
    # each of its calls makes one geometry.corner_angles call, so the traced
    # corner_angles count is the run's evaluation count: a single start's
    # stats["evaluations"], a stack's kernel calls, which number at least
    # those of its start with the most and fewer than all its starts' together
    flows = importlib.import_module("idcurv.flows")
    calls = dict.fromkeys(["angle_deficits", "corner_angles", "inside_angle_deficits"], 0)
    deficits, corners, depth = flows.angle_deficits, geometry.corner_angles, [0]

    def counting_deficits(*args, **kwargs):
        calls["angle_deficits"] += 1
        depth[0] += 1
        try:
            return deficits(*args, **kwargs)
        finally:
            depth[0] -= 1

    def counting_corners(*args, **kwargs):
        calls["corner_angles"] += 1
        calls["inside_angle_deficits"] += depth[0] == 1
        return corners(*args, **kwargs)

    if case == "single-start":
        tri, starts = csaszar_euc, np.array([1.3, 0.8, 1.1, 1.0, 0.9, 1.2, 0.95])
        spec = FlowSpec(kind=FlowKind.NORMALIZED_EUCLIDEAN)
    else:
        tri, starts, spec, _ = batch_cases()[case]
    monkeypatch.setattr(flows, "angle_deficits", counting_deficits)
    monkeypatch.setattr(geometry, "corner_angles", counting_corners)
    result = run_flow(tri, starts, spec)
    monkeypatch.undo()
    assert calls["angle_deficits"] == calls["corner_angles"] == calls["inside_angle_deficits"]
    if case == "single-start":
        assert calls["angle_deficits"] == result[0].stats["evaluations"]
    else:
        evaluations = [trace_of(one).stats["evaluations"] for one in result]
        assert max(evaluations) <= calls["angle_deficits"] < sum(evaluations)


def test_batch_keeps_a_step_size_underflow_to_its_start(csaszar_hyp, monkeypatch):
    # the hyperbolic blow-up of test_hyperbolic_blowup_raises_with_partial_trace
    # stops the start at r = 1 before t_max, while the smaller start reaches
    # the horizon: the batch returns the first start's IntegrationError, with
    # its partial trace, and finishes the other; one start alone raises it
    spec = FlowSpec(kind=FlowKind.MODIFIED_HYPERBOLIC, target=np.full(7, 100.0), t_max=0.025)
    starts = np.array([np.ones(7), np.full(7, 0.5)])
    solo, batch, _ = solo_and_batch(csaszar_hyp, starts, spec, monkeypatch)
    for one, batched in zip(solo, batch):
        assert_same_run(one, batched)
    failed, (trace, _) = batch
    assert isinstance(failed, IntegrationError) and "step size underflow" in str(failed)
    assert failed.trace.stats["evaluations"] > 0
    assert terminal(trace).kind is EventKind.HORIZON_REACHED
    with pytest.raises(IntegrationError, match="step size underflow"):
        run_flow(csaszar_hyp, starts[0], spec)


def test_batch_start_validation_raises_before_any_step(tetra_euc, monkeypatch):
    # an invalid start refuses the whole call before the first step: an
    # inadmissible one by the stack's start evaluation, one kernel call that
    # names the first failing start's faces, numbered as in that start, and
    # the others before any evaluation
    flows = importlib.import_module("idcurv.flows")
    calls = {"angle_deficits": 0, "_propose": 0}

    def counting(name):
        original = getattr(flows, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(flows, name, wrapper)

    counting("angle_deficits")
    counting("_propose")
    spec = FlowSpec(kind=FlowKind.NORMALIZED_EUCLIDEAN)
    outside = [1.0, 10.0, 10.0, 10.0]
    bad = geometry.admissible(tetra_euc, outside)[1]
    with pytest.raises(AdmissibilityError, match="genuine flow started outside") as error:
        run_flow(tetra_euc, np.array([np.ones(4), outside, outside[::-1]]), spec)
    assert str(error.value).endswith(f"(faces {bad})") and error.value.faces == bad
    assert calls == {"angle_deficits": 1, "_propose": 0}
    with pytest.raises(ValueError, match="positive"):
        run_flow(tetra_euc, np.array([np.ones(4), [1.0, -1.0, 1.0, 1.0]]), spec)
    with pytest.raises(ValueError, match="length"):
        run_flow(tetra_euc, np.ones((2, 5)), spec)
    with pytest.raises(ValueError, match="no initial radii"):
        run_flow(tetra_euc, np.ones((0, 4)), spec)
    assert calls == {"angle_deficits": 1, "_propose": 0}


def test_union_of_copies_evaluates_each_row_as_alone(csaszar_i2):
    # the disjoint union of b copies offsets vertices by N and edges by E per
    # copy; each row's deficits and face mask are its own evaluation's
    rng = np.random.default_rng(3)
    rows = np.exp(rng.uniform(-0.05, 0.05, (3, 7)))
    rows[1, csaszar_i2.faces[0]] *= (12.0, 3.0, 0.4)  # one row outside the admissible cone
    union = csaszar_i2.copies(3)
    assert union.vertex_count == 21 and union.face_count == 42
    assert np.array_equal(union.faces[14:28], csaszar_i2.faces + 7)
    assert np.array_equal(union.face_edges[14:28], csaszar_i2.face_edges + 21)
    assert csaszar_i2.copies(1) is csaszar_i2
    assert np.shares_memory(csaszar_i2.copies(2).gap_plan, union.gap_plan)
    mask = np.empty(42, dtype=bool)
    K = angle_deficits(union, rows.ravel(), extended=True, degenerate=mask).reshape(3, 7)
    for row, k, m in zip(rows, K, mask.reshape(3, 14)):
        alone = np.empty(14, dtype=bool)
        own = angle_deficits(csaszar_i2, row, extended=True, degenerate=alone)
        assert k.tobytes() == own.tobytes()
        assert np.array_equal(m, alone)
    assert mask[14:28].any() and not mask[:14].any() and not mask[28:].any()


# -- evolution equation ---------------------------------------------------------------


@pytest.mark.parametrize(
    "kind, alpha",
    [("normalized-euclidean", 2.0)]
    + [("alpha-normalized", alpha) for alpha in (-1.0, 0.0, 1.0, 2.0, 3.0)],
)
def test_curvature_derivative_matches_flow(csaszar_euc, rng, kind, alpha):
    # dR/dt = c Delta R + (c alpha / 2) R (R - R_av), Delta R = -(L R) / s^alpha,
    # against finite differences of R along the flow direction
    r = np.exp(rng.uniform(-0.2, 0.2, 7))
    spec = FlowSpec(kind=FlowKind(kind), alpha=alpha)
    c, a = spec.kind.rate, spec.alpha
    rhs = flow_rhs(csaszar_euc, r, spec)
    eps = 1e-6

    def R_of(rr):
        return curvature_field(csaszar_euc, rr, a).R

    dR_fd = (R_of(r + eps * rhs) - R_of(r - eps * rhs)) / (2.0 * eps)
    R = R_of(r)
    R_av = average_curvature(csaszar_euc, r, a)
    L = curvature_jacobian(csaszar_euc, r).sparse
    rhs_identity = -c * (L @ R) / r**a + 0.5 * c * a * R * (R - R_av)
    assert np.max(np.abs(dR_fd - rhs_identity)) < 1e-5
