"""Combinatorial Ricci flows: one family of equations, eight presets.

Every flow here is

    du_i/dt = c (T_i - K_i / s_i^alpha),    u_i = ln s_i^2,

integrated in the radii directly, where it reads

    dr/dt = (c/2) (T - K / s^alpha) r          Euclidean (s = r)
    dr/dt = (c/2) (T - K / s^alpha) sinh(r)    hyperbolic (s = tanh(r/2))

A FlowKind is a preset of (family, c, pinned geometry). The family fixes the
target T: "normalized" takes the running average curvature, recomputed each
evaluation, "modified" a prescribed one and "extended" either, running
through admissibility failures on the constant angle extension. The average
exists only on Euclidean surfaces, so a hyperbolic one needs a prescribed T.
On a chi = 0 surface the average 2 pi chi / sum(s^alpha) is identically zero;
_rates drops it, deciding so once per run, so there a target-free flow is its
twin with target 0, bit for bit.

    family      c = 1: R-flows, alpha = 2         c = 2: alpha-flows
    normalized  normalized-euclidean              alpha-normalized (euclidean)
    modified    modified-euclidean, -hyperbolic   alpha-modified
    extended    extended-euclidean, -hyperbolic   alpha-extended

An R-preset's FlowSpec.alpha is 2, whatever it is given; an alpha-preset runs
the spec's alpha. So c is only the unit of time: an R-preset run with step h
is its alpha-preset at alpha = 2 run with step h/2, with the same radii bit
for bit and every event time doubled.

The stepper is DOP853, Hairer's 12-stage method of order 8
(Hairer-Norsett-Wanner, Solving ODEs I, II.10): it advances with the 8th-order
solution and estimates its error from embedded 5th- and 3rd-order ones, in a
norm mixed absolute and relative in r, against LOCAL_TOL * tol. spec.step is
the first trial step; a step rejected on error shrinks by the estimate's own
factor, and an accepted one sets the next step to grow at most
MAX_GROWTH-fold. The flow is a heat equation with a real spectrum, so near
convergence error control alone would grow the step to the stability limit
of the stiffest mode and hold that mode near the local tolerance, which
keeps max|T - K/s^alpha| above tol. Each accepted step therefore also
estimates the stiffest rate rho from two states the step evaluates anyway
(Hairer-Wanner II, IV.2): the 12th stage, taken at the end of the step, and
the accepted candidate. The next step is capped at SAFETY * beta / rho, with
beta the negative-real-axis stability boundary of the 8th-order weights
(about 6.39), and at t_max - t. Trace rows are recorded every SAMPLE_DT of
flow time, and at every event. When the run ends, FlowTrace.stats and one
DEBUG record on the "idcurv.flows" logger give its step statistics.
Curvature is evaluated once per flow state, by one call of the velocity field
that _rates reads from the spec once per run: angle_deficits on the states,
then dr/dt written straight into its stage row. Every admissibility verdict
comes from that call: a genuine kind's angles fail on exactly the faces past a
triangle inequality, named by its AdmissibilityError; an extended kind's face
mask gives the region flag. So a start's own evaluation refuses it (genuine
kinds) or gives its LeftAdmissible index (extended kinds), and a candidate's
decides whether it is legal and gives the accepted state's error and the next
step's first stage. An accepted step costs twelve evaluations (eleven stages
and the candidate's); a step rejected on error its eleven stages; an illegal
candidate the stages it ran, plus one when it passed the error test within
bounds. These are FlowTrace.stats["evaluations"]. When a candidate would
leave the legal region, h halves until a legal candidate is found or h would
fall below MIN_STEP (as would an error rejection's shrink). Then a stall
classifier decides what stopped the flow: a radius collapsing to zero is an
essential singularity, a face degenerating at bounded radii a removable one
(genuine kinds only).

run_flow also takes a stack of starts, a sweep, and steps them in lockstep:
each pass makes one attempt for every start still running, with its own step.
Each stage, and the evaluation of the candidates that passed the error test,
is one kernel call on the disjoint union of one copy of the surface per start
(WeightedTriangulation.copies), so on small surfaces a pass costs little more
than one start's attempt. An inadmissible start of a genuine kind refuses the
call with its faces. When a union's evaluation fails, the faces its error
names give the starts that hold them, and the others are evaluated together.
Step, clock, stiffness estimate, statistics, events, trace and failure stay
per start, and each start's results are bit for bit those of its own run.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import logging
import math
from pathlib import Path

import numpy as np

from . import geometry
from .curvature import TWO_PI, _finite_alpha, _finite_target, _first_positive, _step_control
from .curvature import angle_deficits
from .errors import AdmissibilityError, IntegrationError
from .geometry import PackingMetric
from .surface import Geometry, euler_characteristic

log = logging.getLogger("idcurv.flows")

EPS_RADIUS = 1e-8
RADIUS_CAP = 1e8
EPS_TRI = 1e-12  # _classify_stall reports a face below 1e3 * EPS_TRI relative slack
MIN_STEP = 1e-14
COLLAPSE_HORIZON = 100.0 * MIN_STEP  # shortest look-ahead of the stall probe
SAMPLE_DT = 0.1  # flow time between recorded trace rows
# DOP853 asks each step for a local error of LOCAL_TOL * tol, mixed absolute
# and relative in r. The stability cap keeps the steps of a stiff flow inside
# the method's stability region, where the stiff modes decay instead of
# hovering at the local tolerance, so the tolerance need not be tightened for
# them.
LOCAL_TOL = 1e-2
MAX_GROWTH = 5.0  # largest factor by which an accepted DOP853 step grows the next
SAFETY = 0.9
_ROUNDOFF = 100.0 * np.finfo(float).eps  # relative gap below which two states agree

# DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.10; Hairer's
# coefficients as distributed with SciPy's dop853_coefficients.py, BSD-3): the
# stage rows A (stage 12 at c = 1), the 8th-order weights B the step advances
# with, and the two error weights E5 and E3, B minus a 5th- and a 3rd-order
# rule. The dense-output rows are left out. The last weight of both error
# rules is zero, so no stage is taken at the candidate.
_A_ROWS = (
    [5.26001519587677318785587544488e-2],
    [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2],
    [2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2],
    [
        2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
        9.24834003261792003115737966543e-1,
    ],
    [
        3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
        1.25467687566822425016691814123e-1,
    ],
    [
        3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
        6.02165389804559606850219397283e-2, -1.7578125e-2,
    ],
    [
        3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
        1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
        8.27378916381402288758473766002e-3,
    ],
    [
        6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
        -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
        2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1,
    ],
    [
        4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
        -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
        1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
        -2.03312017085086261358222928593e-2,
    ],
    [
        -9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
        1.09143734899672957818500254654, -8.14978701074692612513997267357,
        -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
        2.49360555267965238987089396762, -3.0467644718982195003823669022,
    ],
    [
        2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
        -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
        2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
        -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
        6.43392746015763530355970484046e-1,
    ],
)
_A = np.array([row + [0.0] * (12 - len(row)) for row in [[], *_A_ROWS]])
_STAGES = [_A[i, :i] for i in range(1, 12)]  # stage i's row of _A over stages 0..i-1
_B = np.array(
    [
        5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
        4.45031289275240888144113950566, 1.89151789931450038304281599044,
        -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
        -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
        4.47106157277725905176885569043e-2,
    ]
)
_E5 = np.array(
    [
        0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
        -0.1225156446376204440720569753e1, -0.4957589496572501915214079952,
        0.1664377182454986536961530415e1, -0.3503288487499736816886487290,
        0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
        -0.2235530786388629525884427845e-1,
    ]
)
_E3 = _B.copy()
_E3[[0, 8, 11]] -= [
    0.244094488188976377952755905512,
    0.733846688281611857341361741547,
    0.220588235294117647058823529412e-1,
]


# The stability interval [-_BETA, 0] of the DOP853 weights _B over _A: the
# smallest x > 0 with |R(-x)| > 1, R being the tableau's stability polynomial;
# tests/test_flows.py bisects R to check it.
_BETA = 6.3936515228509885


class FlowKind(enum.Enum):
    """A preset of the flow family; the value is its CLI name.

    `family` is "normalized", "modified" or "extended", `rate` is c (2 marks
    the alpha-flows) and `geometry` is the geometry the preset is pinned to,
    or None (see the module docstring).
    """

    NORMALIZED_EUCLIDEAN = ("normalized-euclidean", "normalized", 1.0, Geometry.EUCLIDEAN)
    MODIFIED_EUCLIDEAN = ("modified-euclidean", "modified", 1.0, Geometry.EUCLIDEAN)
    EXTENDED_EUCLIDEAN = ("extended-euclidean", "extended", 1.0, Geometry.EUCLIDEAN)
    MODIFIED_HYPERBOLIC = ("modified-hyperbolic", "modified", 1.0, Geometry.HYPERBOLIC)
    EXTENDED_HYPERBOLIC = ("extended-hyperbolic", "extended", 1.0, Geometry.HYPERBOLIC)
    ALPHA_NORMALIZED = ("alpha-normalized", "normalized", 2.0, Geometry.EUCLIDEAN)
    ALPHA_MODIFIED = ("alpha-modified", "modified", 2.0, None)
    ALPHA_EXTENDED = ("alpha-extended", "extended", 2.0, None)

    def __new__(cls, value, family, rate, geometry):
        member = object.__new__(cls)
        member._value_, member.family, member.rate, member.geometry = value, family, rate, geometry
        member.extended = family == "extended"
        return member


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

    def __post_init__(self):
        self.step, self.t_max, self.tol = (
            _step_control(name, getattr(self, name)) for name in ("step", "t_max", "tol")
        )
        alpha = _finite_alpha(self.alpha)
        # the R-flows are the alpha-flows at alpha = 2, in another unit of time
        self.alpha = 2.0 if self.kind.rate == 1.0 else alpha
        self.target = _finite_target(self.target)


@dataclasses.dataclass
class FlowTrace:
    times: np.ndarray
    radii: np.ndarray
    max_err: np.ndarray
    measure: np.ndarray
    extended_region: np.ndarray
    events: list[FlowEvent]
    # the run's step statistics (the numbers of its DEBUG record); run_flow
    # fills it, a trace built by hand may leave it empty
    stats: dict = dataclasses.field(default_factory=dict)

    def terminal_event(self) -> FlowEvent:
        terminal = [e for e in self.events if e.kind in TERMINAL_EVENTS]
        if len(terminal) != 1:
            raise RuntimeError(f"trace holds {len(terminal)} terminal events")
        return terminal[0]

    def write_csv(self, path):
        n = self.radii.shape[1]
        header = "t," + ",".join(f"r_{i}" for i in range(n)) + ",max_err,measure,extended_region"
        row = ",".join(["%.17g"] * (n + 3)) + ",%d"
        table = np.column_stack(
            [self.times, self.radii, self.max_err, self.measure, self.extended_region]
        )
        lines = [header] + [row % tuple(cells) for cells in table.tolist()]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    def write_events(self, path):
        payload = [
            {"t": e.t, "kind": e.kind.value, "index": e.index} for e in self.events
        ]
        Path(path).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")

    def write_stats(self, path):
        Path(path).write_text(json.dumps(self.stats, indent=1) + "\n", encoding="utf-8")


# -- right-hand side ---------------------------------------------------------------


def _check_spec(tri, spec):
    kind = spec.kind
    if kind.geometry not in (None, tri.geometry):
        raise ValueError(
            f"{kind.value} flow needs a {kind.geometry.value} surface, got {tri.geometry.value}"
        )
    if spec.target is None:
        # the running average exists only on Euclidean surfaces
        if kind.family == "modified" or tri.geometry is Geometry.HYPERBOLIC:
            raise ValueError(f"{kind.value} flow requires a target curvature")
    elif kind.family == "normalized":
        raise ValueError("normalized flows compute their own average target")
    _finite_target(spec.target, tri.vertex_count)


def _rates(tri, spec):
    """The flow's velocity field, read from the spec once per run, as
    rate(y, out, degenerate=None): dr/dt at each row of y, a (b, N) stack of
    radii, into `out`; it returns K / s^alpha - T per row, the deviation
    negated, with extended angles for extended kinds. The rows are one angle
    evaluation, on tri.copies(b), whose face masks go to a given C-contiguous
    (b, F) bool array `degenerate`. For genuine kinds it raises
    AdmissibilityError, writing nothing, if a row has a face past a triangle
    inequality. Without a target, T is the running average, except on a
    chi = 0 surface, where it is identically zero and no row computes it: the
    field is then that of target 0, bit for bit.
    """
    extended, alpha, target = spec.kind.extended, spec.alpha, spec.target
    euclidean = tri.geometry is Geometry.EUCLIDEAN
    # for the average 2 pi chi / sum(r^alpha) (Euclidean only, where s is r);
    # on a chi = 0 surface it is +0.0, and x - (+0.0) is x, signed zeros
    # included, so it is dropped. A prescribed zero is not: x - (-0.0) turns
    # -0.0 into +0.0.
    two_pi_chi = TWO_PI * euler_characteristic(tri)
    # -(c/2) (K / s^alpha - T) is (c/2) (T - K / s^alpha) bit for bit, up to
    # the sign of an exact zero: a row at its target may hold -0.0
    scale = -0.5 * spec.kind.rate

    def rate(y, out, degenerate=None):
        flat = y.reshape(-1)
        mask = None if degenerate is None else degenerate.reshape(-1)
        dev = angle_deficits(tri.copies(len(y)), flat, extended, mask)
        # s^alpha, and the factor of dr/dt = (c/2) (T - K / s^alpha) factor
        if euclidean:
            power = flat**alpha
            factor = y
        else:
            power = np.tanh(flat / 2.0) ** alpha
            # sinh overflows past r ~ 710; the inf makes the candidate illegal
            # and run_flow halts with a step-size report, which is the intent
            with np.errstate(over="ignore"):
                factor = np.sinh(y)
        dev /= power
        dev = dev.reshape(y.shape)
        if target is not None:
            dev -= target
        elif not two_pi_chi:
            pass  # chi = 0: the average is +0.0 (see above)
        elif len(y) == 1:  # a single row's average is a scalar, without array overhead
            dev -= two_pi_chi / np.add.reduce(power)
        else:
            dev -= two_pi_chi / np.add.reduce(power.reshape(y.shape), axis=1, keepdims=True)
        np.multiply(dev, scale, out)
        out *= factor
        return dev

    return rate


def flow_rhs(tri, r, spec: FlowSpec):
    """Time derivative of the radii under the requested flow."""
    r = geometry._vertex_radii(tri, r)
    _check_spec(tri, spec)
    out = np.empty((1, len(r)))
    _rates(tri, spec)(r[None], out)
    return out[0]


def _rate_rows(tri, rate, y, out, ok, degenerate=None, error=None):
    """rate (see _rates) of the rows of y that the (b,) bool array `ok`
    marks, into their rows of `out` and of a given `degenerate`; returns
    their negated deviations. `error`, the AdmissibilityError of a failed
    evaluation of exactly those rows, names by its faces the rows that hold
    them: they leave `ok`, and the others are evaluated together.
    """
    while True:
        index = np.flatnonzero(ok)
        if error is not None:  # a single row is not tried again
            named = np.array(error.faces, dtype=int) // tri.face_count
            ok[index[named] if len(index) > 1 else index] = False
            index = np.flatnonzero(ok)
        tried, masks = y[index], None if degenerate is None else degenerate[index]
        if not len(index):  # an empty stack has no union to evaluate on
            return tried
        rates = np.empty_like(tried)
        try:
            dev = rate(tried, rates, masks)
        except AdmissibilityError as failure:
            error = failure
            continue
        out[index] = rates
        if masks is not None:
            degenerate[index] = masks
        return dev


# -- driver ------------------------------------------------------------------------


def _legal(tri, rate, r, k1, err, degenerate, tally, legal):
    """Whether the candidates tried are all legal: r is a (b, N) stack, and
    the (b,) bool array `legal` marks the rows to try and receives each row's
    verdict. A legal row's dr/dt (see _rates) goes to its row of k1, its
    max|T - K/s^alpha| to `err` and its face mask to a given `degenerate`;
    `tally`, a (b,) int array, counts each row's evaluation. A row is legal
    when it is finite, within [EPS_RADIUS, RADIUS_CAP] and, for genuine
    kinds, admissible by its own evaluation, so it is evaluated only once.
    """
    tried, error = np.count_nonzero(legal), None
    # almost always every row is tried and within bounds (NaN fails both
    # tests), and all are evaluated together
    if (tried == len(r) and np.minimum.reduce(r, None) >= EPS_RADIUS
            and np.maximum.reduce(r, None) <= RADIUS_CAP):
        tally += 1
        try:
            dev = rate(r, k1, degenerate)
            np.maximum.reduce(np.abs(dev, out=dev), axis=1, out=err)
            return True
        except AdmissibilityError as failure:
            error = failure
    else:
        legal &= (r >= EPS_RADIUS).all(axis=1) & (r <= RADIUS_CAP).all(axis=1)
        tally += legal
    dev = _rate_rows(tri, rate, r, k1, legal, degenerate, error)
    err[legal] = np.maximum.reduce(np.abs(dev), axis=1)
    return bool(np.count_nonzero(legal) == tried)


def _propose(tri, rate, r, k1, h, tol, tally):
    """One DOP853 attempt for each row of r, a (b, N) stack of states with
    velocities k1 and steps h, a (b,) array, of the flow `rate` (see _rates)
    at tolerance tol: the eleven stages after k1, none at the candidate, each
    one rate call on the rows still in the attempt. Returns (candidate, err,
    end_state), one row or entry per state.

    err is the local error estimate in units of the requested local tolerance
    (the step passes when err <= 1): the 5th- and 3rd-order estimates, each in
    the max norm, combined as err5^2 / sqrt(err5^2 + 0.01 err3^2), as DOP853
    does; it reads like err5 on long steps and falls like h^8 on short ones,
    the order of the solution the step advances with. A row whose stage
    radii leave the positive cone, or whose stage evaluation fails, leaves
    the attempt's later stages and comes back as a NaN candidate with a NaN
    error, which no test passes. end_state is the 12th stage as (y, dr/dt at
    y), states at the end of the steps. `tally`, a (b,) int array, counts each
    row's stage evaluations.
    """
    # k[j] holds the stages of row j; a weight vector times the stack k is one
    # vector-matrix product per row, the product a single row gets, whereas a
    # product over all rows' columns at once may round a column differently
    # depending on where it falls in the BLAS kernel's vector lanes
    k = np.empty((len(r), len(_B), r.shape[1]))
    k[:, 0] = k1
    # each row's step along its row: a (b, 1) broadcast gives the same
    # products at a higher cost
    steps = np.empty_like(r)
    steps[:] = h[:, None]
    # `ok` marks the rows still in the attempt (None: all): a row leaves when
    # its stage radii leave the positive cone or its evaluation fails, and its
    # stages read 0. `evaluated` counts the stages that evaluated all rows.
    ok, evaluated = None, 0
    for i, a in enumerate(_STAGES, 1):
        y = a @ k[:, :i]  # r + h (a @ k), in place
        y *= steps
        y += r
        # two reductions, no arithmetic (inf - inf would warn): every stage
        # radius is positive, which NaN fails, and finite
        if (ok is None and np.minimum.reduce(y, None) > 0.0
                and np.maximum.reduce(y, None) < math.inf):
            evaluated += 1
            try:
                rate(y, k[:, i])
                continue
            except AdmissibilityError as error:
                ok = np.ones(len(r), dtype=bool)
                _rate_rows(tri, rate, y, k[:, i], ok, error=error)
        else:
            inside = (y > 0.0).all(axis=1) & (y < math.inf).all(axis=1)
            ok = inside if ok is None else ok & inside
            tally += ok
            _rate_rows(tri, rate, y, k[:, i], ok)
        if not ok.any():  # nothing left to evaluate
            tally += evaluated
            return np.full_like(r, np.nan), np.full(len(r), np.nan), (y, y)
        # a row that left may hold inf stages, which the products below and
        # the error estimate would turn into NaN with a warning
        k[~ok] = 0.0
    tally += evaluated
    candidate = _B @ k
    candidate *= steps
    candidate += r
    scale = np.abs(candidate)  # LOCAL_TOL tol (1 + max(r, |candidate|)), in place
    np.maximum(r, scale, out=scale)
    scale += 1.0
    scale *= LOCAL_TOL * tol
    # one vector product per rule: a (2, 12) matrix product would reach BLAS
    # gemm, whose work buffer adds to the process's peak memory
    norms = []
    for rule in (_E5, _E3):
        e = rule @ k
        e *= steps
        np.abs(e, out=e)
        e /= scale
        norms.append(np.maximum.reduce(e, axis=1).tolist())
    err = []
    for a, c in zip(*norms):
        root = math.sqrt(a * a + 0.01 * c * c)
        err.append(a * a / root if root else 0.0)  # a NaN root stays NaN
    err = np.array(err)
    if ok is not None:
        candidate[~ok] = np.nan
        err[~ok] = np.nan
    return candidate, err, (y, k[:, -1])  # the last stage is at c = 1


def _error_factor(step_err):
    """h_new / h for a DOP853 estimate step_err: SAFETY * step_err^(-1/8), the
    rescaling that an estimate of order 8 calls for, clamped to
    [1/MAX_GROWTH, MAX_GROWTH]; an estimate of zero gives MAX_GROWTH."""
    return min(MAX_GROWTH, max(1.0 / MAX_GROWTH, SAFETY * max(step_err, 1e-10) ** -0.125))


def _stiffness(candidate, k1, end_state):
    """Estimates of the stiffest rate rho, a list with one per row, from the
    accepted candidates, their velocities k1 and end_state (y, dr/dt at y) at
    the same times; 0 (no estimate) where the two states agree to roundoff.

    Once the steps reach the stability limit, the stiffest modes dominate
    the gap between the two states, so the ratio of the velocity gap to the
    state gap is their rate (the stiffness test of DOP853, Hairer-Wanner II,
    IV.2); before that it reads low and the cap does not bind.
    """
    y, ky = end_state
    gaps = np.empty((3,) + candidate.shape)
    np.subtract(candidate, y, out=gaps[0])
    np.subtract(k1, ky, out=gaps[1])
    gaps[2] = candidate
    # row norms by one reduction whatever the stack height, so that a start's
    # estimates do not depend on the starts it runs with
    norms = np.sqrt(np.add.reduce(np.square(gaps, out=gaps), axis=-1))
    return [
        kgap / gap if gap > _ROUNDOFF * size else 0.0
        for gap, kgap, size in zip(*norms.tolist())
    ]


class _Run:
    """One start of run_flow: its clock, step control, statistics and trace."""

    def __init__(self, tri, spec, events):
        self.tri, self.spec, self.events = tri, spec, events
        self.inside = True  # whether the last state was admissible
        self.t = 0.0
        self.h = min(spec.step, spec.t_max)  # the step of the next attempt
        self.rho = 0.0  # the last stiffness estimate; 0 before the first
        # its curvature evaluations, accepted steps, steps rejected on error,
        # illegal candidates and steps shortened by the stability cap
        self.evaluations = 1
        self.accepted = self.on_error = self.illegal = self.capped = 0
        self.times, self.radii, self.errs, self.measures, self.ext_flags = [], [], [], [], []
        self.result = None  # (trace, final metric) or the IntegrationError, once stopped

    def record(self, r, err):
        if self.times and self.times[-1] == self.t:
            return
        r = r.copy()
        self.times.append(self.t)
        self.radii.append(r)
        self.errs.append(err)
        if self.tri.geometry is Geometry.EUCLIDEAN:
            self.measures.append(float(r @ r))
        else:
            self.measures.append(
                geometry.total_area(self.tri, r, extended=self.spec.kind.extended)
            )
        self.ext_flags.append(not self.inside)

    def trace(self):
        stats = dict(evaluations=self.evaluations, accepted=self.accepted,
                     rejected_on_error=self.on_error, illegal=self.illegal,
                     capped=self.capped, rho=self.rho)
        log.debug(
            "run_flow ended at t=%.6g: %d curvature evaluations, %d accepted steps, "
            "%d rejected on error, %d illegal candidates, %d steps shortened by the "
            "stability cap, last stiffness estimate %.4g",
            self.t, *stats.values(),
        )
        return FlowTrace(
            times=np.asarray(self.times),
            radii=np.asarray(self.radii),
            max_err=np.asarray(self.errs),
            measure=np.asarray(self.measures),
            extended_region=np.asarray(self.ext_flags, dtype=bool),
            events=self.events,
            stats=stats,
        )

    def take(self, state, step_err, estimate, err, mask):
        """Advance by the accepted step self.h, of error estimate step_err, to
        state, whose max|T - K/s^alpha| is err; estimate is the step's
        stiffness estimate (0 for none), mask the face mask of state (None for
        genuine kinds)."""
        h = self.h
        h_next = h * _error_factor(step_err)
        self.rho = estimate or self.rho
        if self.rho > 0.0 and SAFETY * _BETA / self.rho < h_next:
            h_next = SAFETY * _BETA / self.rho
            self.capped += 1
        self.t += h
        self.accepted += 1
        self.h = min(h_next, self.spec.t_max - self.t)
        self.arrive(state, err, mask)

    def arrive(self, state, err, mask):
        """Arrive at state at time self.t, the start or an accepted step's end:
        log its change of region, if any, and stop on Converged or at the
        horizon, or record a trace row when one is due. err is its max|T -
        K/s^alpha|, mask its face mask (None for genuine kinds)."""
        spec = self.spec
        if mask is not None and mask.any() == self.inside:
            self.inside = not self.inside
            # the first face of state past a triangle inequality, or None
            face = None if self.inside else int(np.argmax(mask))
            kind = EventKind.REENTERED_ADMISSIBLE if self.inside else EventKind.LEFT_ADMISSIBLE
            self.events.append(FlowEvent(self.t, kind, face))
            self.record(state, err)
        if err < spec.tol:
            self.stop(state, err, FlowEvent(self.t, EventKind.CONVERGED, None))
        elif self.t >= spec.t_max * (1.0 - 1e-15):
            self.stop(state, err, FlowEvent(self.t, EventKind.HORIZON_REACHED, None))
        elif not self.times or self.t - self.times[-1] >= SAMPLE_DT:
            self.record(state, err)

    def reject(self, r, err, candidate, k1, step_err):
        """Shrink the step self.h, whose attempt from r (velocity k1, max|T -
        K/s^alpha| err) gave candidate with error estimate step_err, for the
        next attempt; stop if the shrunken step would fall below MIN_STEP."""
        # an error rejection shrinks h by the estimate's own factor, an
        # illegal candidate (or a NaN estimate) halves it
        if step_err > 1.0:
            self.on_error += 1
            shrink = _error_factor(step_err)
        else:
            self.illegal += 1
            shrink = 0.5
        h = self.h
        if h * shrink >= MIN_STEP:
            self.h = h * shrink
            return
        genuine = not self.spec.kind.extended
        event = _classify_stall(self.tri, r, candidate, k1, h, genuine)
        self.stop(r, err, event and dataclasses.replace(event, t=self.t))

    def stop(self, r, err, event):
        """Record r and stop with `event`, or, if it is None, with a step size
        underflow."""
        self.record(r, err)
        if event is None:
            self.result = IntegrationError(
                f"step size underflow at t={self.t:.6g} without a singularity signature",
                trace=self.trace(),
            )
        else:
            self.events.append(event)
            self.result = self.trace(), PackingMetric(r.copy(), self.tri.geometry)


def run_flow(tri, r0, spec: FlowSpec):
    """Integrate the flow from r0. Returns (FlowTrace, final PackingMetric).

    Terminal events: Converged (max curvature error below tol), HorizonReached,
    EssentialSingularity (a radius fell to EPS_RADIUS), RemovableSingularity
    (a face degenerated at bounded radii; genuine kinds only). Extended kinds
    additionally log LeftAdmissible / ReenteredAdmissible transitions. A step
    size underflow without a singularity signature raises IntegrationError,
    with the partial trace attached.

    r0 may also be a (B, N) stack of starts, which are stepped in lockstep
    (see the module docstring) and return a list: per start, its (FlowTrace,
    PackingMetric) or the IntegrationError that stopped it. Each start's
    result is that of its own run. Invalid starts raise before any step.
    """
    if isinstance(r0, PackingMetric):
        r0 = r0.radii
    r = np.array(r0, dtype=float)
    single = r.ndim == 1
    if single:
        r = r[None]
    if r.ndim != 2 or r.shape[1] != tri.vertex_count:
        raise ValueError("radii length does not match the vertex count")
    if not len(r):
        raise ValueError("no initial radii given")
    geometry._finite_positive(r)
    _check_spec(tri, spec)

    genuine, rate = not spec.kind.extended, _rates(tri, spec)
    # the starts' face masks, then a pass's candidates' in the first rows
    masks = None if genuine else np.empty((len(r), tri.face_count), dtype=bool)
    k1 = np.empty_like(r)  # dr/dt at each start, then at its current state
    try:
        dev = rate(r, k1, masks)
    except AdmissibilityError as error:
        # the faces of the first start that holds any, numbered as in that start
        which, bad = divmod(np.array(error.faces, dtype=int), tri.face_count)
        bad = bad[which == which[0]].tolist()
        raise AdmissibilityError(
            f"genuine flow started outside the admissible cone (faces {bad})", bad
        ) from None
    sign = _first_positive(spec.alpha, spec.target)
    sign = [] if sign is None else [FlowEvent(0.0, EventKind.TARGET_SIGN_WARNING, sign)]
    # max|T - K/s^alpha| at each row's state
    err = np.maximum.reduce(np.abs(dev, out=dev), axis=1)
    runs = [_Run(tri, spec, list(sign)) for _ in r]
    for run, start, e, mask in zip(runs, r, err.tolist(), [None] * len(r) if genuine else masks):
        run.arrive(start, e, mask)
    active, tally = runs, np.ones(len(r), dtype=np.int64)  # tally: each row's evaluations

    # the starts that stopped, at t = 0 or in the last pass, leave the stack;
    # then one pass makes one attempt for every active start: the candidates
    # that pass the error test are evaluated together, and each start takes
    # or rejects its own step
    while live := [j for j, run in enumerate(active) if run.result is None]:
        if len(live) < len(active):
            active = [active[j] for j in live]
            r, k1, err, tally = r[live], k1[live], err[live], tally[live]
        degenerate = None if genuine else masks[: len(active)]
        h = np.array([run.h for run in active])
        candidate, step_err, end_state = _propose(tri, rate, r, k1, h, spec.tol, tally)
        legal = step_err <= 1.0
        taken = np.count_nonzero(legal)
        if taken and not _legal(tri, rate, candidate, k1, err, degenerate, tally, legal):
            taken = np.count_nonzero(legal)
        # the taken candidates' stiffness estimates, in row order; a taken row's
        # velocity and error are already those of its candidate
        estimates = iter(_stiffness(candidate, k1, end_state) if taken == len(active) else
                         _stiffness(candidate[legal], k1[legal], [a[legal] for a in end_state]))
        rows = zip(active, tally.tolist(), legal.tolist(), step_err.tolist(), err.tolist())
        for j, (run, count, ok, e, row_err) in enumerate(rows):
            run.evaluations = count
            if ok:
                mask = None if genuine else degenerate[j]
                run.take(candidate[j], e, next(estimates), row_err, mask)
            else:
                run.reject(r[j], row_err, candidate[j], k1[j], e)
        if taken == len(active):
            r = candidate
        else:
            r[legal] = candidate[legal]

    if not single:
        return [run.result for run in runs]
    if isinstance(runs[0].result, IntegrationError):
        raise runs[0].result
    return runs[0].result


def _classify_stall(tri, r, candidate, k1, h, genuine):
    """Decide what stopped the stepper when shrinking hit the step floor.

    Stage failures leave the candidate NaN, so the direction k1 doubles as
    an always-computable Euler probe of where the flow was trying to go. The
    probe looks at least COLLAPSE_HORIZON ahead: DOP853's error control halts
    a few step floors short of a collapse, where the candidate is not yet
    below EPS_RADIUS.
    """
    probes = []
    if np.all(np.isfinite(candidate)):
        probes.append(candidate)
    if np.all(np.isfinite(k1)):
        probes.append(r + max(h, COLLAPSE_HORIZON) * k1)

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
        slack = geometry._relative_slack(geometry._surface_gaps(tri, r))
        if float(np.min(slack)) < 1e3 * EPS_TRI:
            return FlowEvent(0.0, EventKind.REMOVABLE_SINGULARITY, int(np.argmin(slack)))
    return None
