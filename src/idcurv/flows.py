"""Combinatorial Ricci flows: one family of equations, eight kinds.

Every flow here is

    du_i/dt = c (T_i - K_i / s_i^alpha),    u_i = ln s_i^2,

integrated in the radii directly, where it reads

    dr/dt = (c/2) (T - K / s^alpha) r          Euclidean (s = r)
    dr/dt = (c/2) (T - K / s^alpha) sinh(r)    hyperbolic (s = tanh(r/2))

The kind fixes the rest (the attributes of FlowKind):

    kind                  target      extended  c  geometry
    normalized-euclidean  average     no        1  euclidean
    modified-euclidean    prescribed  no        1  euclidean
    extended-euclidean    either      yes       1  euclidean
    modified-hyperbolic   prescribed  no        1  hyperbolic
    extended-hyperbolic   prescribed  yes       1  hyperbolic
    alpha-normalized      average     no        2  euclidean
    alpha-modified        prescribed  no        2  either
    alpha-extended        either      yes       2  either

R-flows (c = 1) take alpha = 2; alpha-flows (c = 2) take the spec's alpha.
The average target is the running average curvature, recomputed each
evaluation; it exists only on Euclidean surfaces, so every kind needs a
prescribed target on a hyperbolic one. Extended kinds run through
admissibility failures using the constant angle extension.

The stepper is fixed-step RK4 (or Euler). Curvature is evaluated once per
flow state: a candidate's own evaluation decides whether it is legal (for
genuine kinds the angle computation raises on exactly the faces that fail a
triangle inequality), and its deviation gives the accepted state's error and
seeds the next step's first stage. An accepted RK4 step therefore costs four
curvature evaluations and an Euler step one; genuine kinds add one pass over
the face lengths for the triangle slack, extended kinds one admissibility
check for the region flag. A candidate that is rejected costs the stages it
ran, plus one evaluation when its radii are finite and within bounds.
When a candidate would leave the legal region the step h halves, with no
budget, until a legal candidate is found or h would fall below MIN_STEP.
Then a stall classifier decides what stopped the flow: a radius collapsing
to zero is an essential singularity, a face degenerating at bounded radii is
a removable one (genuine kinds only). Removable singularities are also caught
after each accepted step by the triangle slack.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
from pathlib import Path

import numpy as np

from . import geometry
from .curvature import angle_deficits, average_curvature, curvature_jacobian
from .errors import AdmissibilityError, IntegrationError
from .geometry import PackingMetric
from .surface import Geometry

EPS_RADIUS = 1e-8
RADIUS_CAP = 1e8
EPS_TRI = 1e-12  # relative slack below which a face counts as degenerate
MIN_STEP = 1e-14


class FlowKind(enum.Enum):
    """A kind of flow; the value is its CLI name.

    The attributes are the columns of the module docstring's table: `target`
    is "average", "prescribed" or "either", `extended` turns on the angle
    extension, `rate` is c (2 marks the alpha-flows) and `geometry` is the
    geometry the kind is pinned to, or None.
    """

    NORMALIZED_EUCLIDEAN = ("normalized-euclidean", "average", False, 1.0, Geometry.EUCLIDEAN)
    MODIFIED_EUCLIDEAN = ("modified-euclidean", "prescribed", False, 1.0, Geometry.EUCLIDEAN)
    EXTENDED_EUCLIDEAN = ("extended-euclidean", "either", True, 1.0, Geometry.EUCLIDEAN)
    MODIFIED_HYPERBOLIC = ("modified-hyperbolic", "prescribed", False, 1.0, Geometry.HYPERBOLIC)
    EXTENDED_HYPERBOLIC = ("extended-hyperbolic", "prescribed", True, 1.0, Geometry.HYPERBOLIC)
    ALPHA_NORMALIZED = ("alpha-normalized", "average", False, 2.0, Geometry.EUCLIDEAN)
    ALPHA_MODIFIED = ("alpha-modified", "prescribed", False, 2.0, None)
    ALPHA_EXTENDED = ("alpha-extended", "either", True, 2.0, None)

    def __new__(cls, value, target, extended, rate, geometry):
        member = object.__new__(cls)
        member._value_ = value
        member.target = target
        member.extended = extended
        member.rate = rate
        member.geometry = geometry
        return member


class Integrator(enum.Enum):
    RK4 = "rk4"
    EULER = "euler"


class EventKind(enum.Enum):
    ESSENTIAL_SINGULARITY = "EssentialSingularity"
    REMOVABLE_SINGULARITY = "RemovableSingularity"
    LEFT_ADMISSIBLE = "LeftAdmissible"
    REENTERED_ADMISSIBLE = "ReenteredAdmissible"
    CONVERGED = "Converged"
    HORIZON_REACHED = "HorizonReached"
    TARGET_SIGN_WARNING = "TargetSignWarning"


TERMINAL_EVENTS = frozenset(
    {
        EventKind.ESSENTIAL_SINGULARITY,
        EventKind.REMOVABLE_SINGULARITY,
        EventKind.CONVERGED,
        EventKind.HORIZON_REACHED,
    }
)


@dataclasses.dataclass(frozen=True)
class FlowEvent:
    t: float
    kind: EventKind
    index: int | None = None


@dataclasses.dataclass
class FlowSpec:
    kind: FlowKind
    alpha: float = 2.0
    target: np.ndarray | None = None
    step: float = 0.01
    t_max: float = 200.0
    tol: float = 1e-8
    integrator: Integrator = Integrator.RK4

    def __post_init__(self):
        if not all(math.isfinite(x) and x > 0.0 for x in (self.step, self.t_max, self.tol)):
            raise ValueError("step, t_max and tol must be positive and finite")
        if not math.isfinite(self.alpha):
            raise ValueError("alpha must be finite")
        if self.target is not None:
            target = np.asarray(self.target, dtype=float)
            if not np.all(np.isfinite(target)):
                raise ValueError("target must be finite")
            self.target = target

    @property
    def effective_alpha(self):
        return float(self.alpha) if self.kind.rate == 2.0 else 2.0


@dataclasses.dataclass
class FlowTrace:
    times: np.ndarray
    radii: np.ndarray
    max_err: np.ndarray
    measure: np.ndarray
    extended_region: np.ndarray
    events: list[FlowEvent]

    def terminal_event(self) -> FlowEvent:
        terminal = [e for e in self.events if e.kind in TERMINAL_EVENTS]
        if len(terminal) != 1:
            raise RuntimeError(f"trace holds {len(terminal)} terminal events")
        return terminal[0]

    def write_csv(self, path):
        n = self.radii.shape[1]
        header = "t," + ",".join(f"r_{i}" for i in range(n)) + ",max_err,measure,extended_region"
        lines = [header]
        for k in range(len(self.times)):
            cells = [f"{self.times[k]:.17g}"]
            cells += [f"{v:.17g}" for v in self.radii[k]]
            cells += [
                f"{self.max_err[k]:.17g}",
                f"{self.measure[k]:.17g}",
                str(int(self.extended_region[k])),
            ]
            lines.append(",".join(cells))
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    def write_events(self, path):
        payload = [
            {"t": e.t, "kind": e.kind.value, "index": e.index} for e in self.events
        ]
        Path(path).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


# -- right-hand side ---------------------------------------------------------------


def _check_spec(tri, spec):
    kind = spec.kind
    if kind.geometry is not None and tri.geometry is not kind.geometry:
        raise ValueError(
            f"{kind.value} flow needs a {kind.geometry.value} surface, got {tri.geometry.value}"
        )
    if spec.target is None:
        # the running average exists only on Euclidean surfaces
        if kind.target == "prescribed" or tri.geometry is Geometry.HYPERBOLIC:
            raise ValueError(f"{kind.value} flow requires a target curvature")
    elif kind.target == "average":
        raise ValueError("normalized flows compute their own average target")
    if spec.target is not None and spec.target.ndim > 0 and spec.target.shape != (tri.vertex_count,):
        raise ValueError("target length does not match the vertex count")


def _deviation(tri, r, spec):
    """T - K / s^alpha (componentwise), with extended angles for extended kinds."""
    alpha = spec.effective_alpha
    K = angle_deficits(tri, r, extended=spec.kind.extended)
    s = geometry.s_of_r(r, tri.geometry)
    R = K / s**alpha
    if spec.target is not None:
        target = spec.target
    else:
        target = average_curvature(tri, r, alpha)
    return target - R


def flow_rhs(tri, r, spec: FlowSpec):
    """Time derivative of the radii under the requested flow."""
    r = np.asarray(r, dtype=float)
    _check_spec(tri, spec)
    return _velocity(tri, r, _deviation(tri, r, spec), spec)


def _velocity(tri, r, dev, spec):
    """dr/dt from the deviation dev = T - K / s^alpha at r."""
    if tri.geometry is Geometry.EUCLIDEAN:
        factor = r
    else:
        # sinh overflows past r ~ 710; the inf makes the candidate illegal
        # and the driver halts with a step-size report, which is the intent
        with np.errstate(over="ignore"):
            factor = np.sinh(r)
    return 0.5 * spec.kind.rate * dev * factor


# -- driver ------------------------------------------------------------------------


def _legal(tri, r, spec, dev):
    """Whether candidate r is legal; if it is, its deviation is written to dev.

    r is legal when it is finite, within [EPS_RADIUS, RADIUS_CAP] and, for
    genuine kinds, admissible. Admissibility comes from the candidate's own
    curvature evaluation, which raises AdmissibilityError on exactly the faces
    geometry.admissible flags, so a legal candidate is evaluated only once.
    """
    if not np.isfinite(r).all():
        return False
    if (r < EPS_RADIUS).any() or (r > RADIUS_CAP).any():
        return False
    try:
        dev[:] = _deviation(tri, r, spec)
    except AdmissibilityError:
        return False
    return True


def _propose(tri, r, k1, h, spec):
    """One explicit step from r; returns the candidate or None if a stage failed."""
    try:
        if spec.integrator is Integrator.EULER:
            return r + h * k1
        k2 = _stage_rhs(tri, r + (0.5 * h) * k1, spec)
        k3 = _stage_rhs(tri, r + (0.5 * h) * k2, spec)
        k4 = _stage_rhs(tri, r + h * k3, spec)
    except (AdmissibilityError, FloatingPointError):
        return None
    return r + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _stage_rhs(tri, r, spec):
    if not np.isfinite(r).all() or (r <= 0.0).any():
        raise AdmissibilityError("stage radii left the positive cone")
    return _velocity(tri, r, _deviation(tri, r, spec), spec)


def run_flow(tri, r0, spec: FlowSpec):
    """Integrate the flow from r0. Returns (FlowTrace, final PackingMetric).

    Terminal events: Converged (max curvature error below tol), HorizonReached,
    EssentialSingularity (a radius fell to EPS_RADIUS), RemovableSingularity
    (a face degenerated at bounded radii; genuine kinds only). Extended kinds
    additionally log LeftAdmissible / ReenteredAdmissible transitions.
    """
    if isinstance(r0, PackingMetric):
        r0 = r0.radii
    r = np.array(r0, dtype=float)
    if r.shape != (tri.vertex_count,):
        raise ValueError("radii length does not match the vertex count")
    if np.any(r <= 0.0) or not np.all(np.isfinite(r)):
        raise ValueError("initial radii must be positive and finite")
    _check_spec(tri, spec)

    genuine = not spec.kind.extended
    inside, bad = geometry.admissible(tri, r)
    if genuine and not inside:
        raise AdmissibilityError(
            f"genuine flow started outside the admissible cone (faces {bad})"
        )

    times, radii, errs, measures, ext_flags = [], [], [], [], []
    events: list[FlowEvent] = []

    def record(t, rr, err, inside):
        if times and times[-1] == t:
            return
        times.append(t)
        radii.append(rr.copy())
        errs.append(err)
        if tri.geometry is Geometry.EUCLIDEAN:
            measures.append(float(rr @ rr))
        else:
            measures.append(geometry.total_area(tri, rr, extended=not genuine))
        ext_flags.append(not inside)

    def finish(final_r):
        trace = FlowTrace(
            times=np.asarray(times),
            radii=np.asarray(radii),
            max_err=np.asarray(errs),
            measure=np.asarray(measures),
            extended_region=np.asarray(ext_flags, dtype=bool),
            events=events,
        )
        return trace, PackingMetric(final_r, tri.geometry)

    def stop(event):
        record(t, r, err, inside)
        events.append(event)
        return finish(r)

    if spec.target is not None:
        sign = np.atleast_1d(spec.effective_alpha * spec.target)
        offenders = np.nonzero(sign > 0.0)[0]
        if len(offenders):
            events.append(
                FlowEvent(0.0, EventKind.TARGET_SIGN_WARNING, int(offenders[0]))
            )

    if not inside:
        events.append(FlowEvent(0.0, EventKind.LEFT_ADMISSIBLE, int(bad[0])))

    t = 0.0
    dev = _deviation(tri, r, spec)
    err = float(np.max(np.abs(dev)))
    if err < spec.tol:
        return stop(FlowEvent(t, EventKind.CONVERGED, None))
    record(t, r, err, inside)

    sample_every = max(1, math.floor(0.1 / spec.step))
    steps = 0
    h_next = spec.step
    while t < spec.t_max * (1.0 - 1e-15):
        k1 = _velocity(tri, r, dev, spec)
        h = min(h_next, spec.t_max - t)
        next_dev = np.empty_like(r)
        while True:
            candidate = _propose(tri, r, k1, h, spec)
            if candidate is not None and _legal(tri, candidate, spec, next_dev):
                break
            if h * 0.5 < MIN_STEP:
                event = _classify_stall(tri, r, candidate, k1, h, genuine)
                if event is None:
                    record(t, r, err, inside)
                    trace, _ = finish(r)
                    raise IntegrationError(
                        f"step size underflow at t={t:.6g} without a singularity signature",
                        trace=trace,
                    )
                return stop(dataclasses.replace(event, t=t))
            h *= 0.5

        h_next = min(spec.step, 2.0 * h)
        r, dev = candidate, next_dev
        t += h
        steps += 1
        err = float(np.max(np.abs(dev)))

        if not genuine:
            now_inside, bad = geometry.admissible(tri, r)
            if now_inside != inside:
                if now_inside:
                    events.append(FlowEvent(t, EventKind.REENTERED_ADMISSIBLE, None))
                else:
                    events.append(FlowEvent(t, EventKind.LEFT_ADMISSIBLE, int(bad[0])))
                record(t, r, err, now_inside)
                inside = now_inside

        # _legal refused radii below EPS_RADIUS, so a collapsing radius is
        # reported by _classify_stall, never here
        if genuine:
            slack = geometry.triangle_slack(geometry.face_lengths(tri, r))
            if float(np.min(slack)) < EPS_TRI:
                face = int(np.argmin(slack))
                return stop(FlowEvent(t, EventKind.REMOVABLE_SINGULARITY, face))
        if err < spec.tol:
            return stop(FlowEvent(t, EventKind.CONVERGED, None))
        if steps % sample_every == 0:
            record(t, r, err, inside)

    return stop(FlowEvent(t, EventKind.HORIZON_REACHED, None))


def _classify_stall(tri, r, candidate, k1, h, genuine):
    """Decide what stopped the stepper when halving hit the step floor.

    RK4 stage failures leave candidate as None, so the direction k1 with the
    last attempted step doubles as an always-computable Euler probe of where
    the flow was trying to go.
    """
    probes = []
    if candidate is not None and np.all(np.isfinite(candidate)):
        probes.append(candidate)
    if np.all(np.isfinite(k1)):
        probes.append(r + max(h, MIN_STEP) * k1)

    for probe in probes:
        if np.any(probe < EPS_RADIUS):
            return FlowEvent(0.0, EventKind.ESSENTIAL_SINGULARITY, int(np.argmin(probe)))
    if np.any(r < EPS_RADIUS * (1.0 + 1e-6)):
        return FlowEvent(0.0, EventKind.ESSENTIAL_SINGULARITY, int(np.argmin(r)))
    if genuine:
        for probe in probes:
            if np.all(probe > 0.0) and np.all(probe <= RADIUS_CAP):
                ok, bad = geometry.admissible(tri, probe)
                if not ok:
                    return FlowEvent(0.0, EventKind.REMOVABLE_SINGULARITY, int(bad[0]))
        slack = geometry.triangle_slack(geometry.face_lengths(tri, r))
        if float(np.min(slack)) < 1e3 * EPS_TRI:
            return FlowEvent(0.0, EventKind.REMOVABLE_SINGULARITY, int(np.argmin(slack)))
    return None


# -- evolution identity -------------------------------------------------------------


def check_evolution_identity(tri, r, spec: FlowSpec) -> float:
    """Residual between the two sides of the curvature evolution identity.

    For a normalized kind with rate c and power alpha (R = K / s^alpha),
        dR_i/dt = c Delta R_i + (c alpha / 2) R_i (R_i - R_av),
    with Delta R = -(L R) / s^alpha. The left side is computed by chaining
    dR/du = c L / s^alpha - (c alpha / 2) diag(R) through the flow direction
    R_av - R, where L is the curvature Jacobian in u = ln s^2 and the factor
    c converts it to the flow's own coordinate u = ln s^(2/c).
    """
    if spec.kind.target != "average":
        raise ValueError("the evolution identity applies to normalized kinds")
    if tri.geometry is not Geometry.EUCLIDEAN:
        raise ValueError("the evolution identity is stated for Euclidean surfaces")
    r = np.asarray(r, dtype=float)
    c = spec.kind.rate
    alpha = spec.effective_alpha
    K = angle_deficits(tri, r)
    s = geometry.s_of_r(r, tri.geometry)
    R = K / s**alpha
    R_av = average_curvature(tri, r, alpha)
    L = curvature_jacobian(tri, r).sparse
    u_dot = R_av - R

    lhs = c * (L @ u_dot) / s**alpha - (0.5 * c * alpha) * R * u_dot
    rhs = -c * (L @ R) / s**alpha + (0.5 * c * alpha) * R * (R - R_av)
    return float(np.max(np.abs(lhs - rhs)))
