"""Acceptance gate: end-to-end checks with pinned tolerances.

Each check prints one "ACCEPTANCE n: PASS" line on success (run with -s to
stream them); a pytest failure is the corresponding fail line. Together they
exercise the package the way it is meant to be used: the two-metric
tetrahedron family, curvature identities on random packings, Jacobian
structure, flow convergence and recovery from degenerate starts, potential
calculus, Newton rigidity, the hyperbolic limit lemmas, the flow theorem
for chi < 0 on a genus-2 surface, global rigidity of the alpha-curvature,
and the converse of the flow theorem: with chi <= 0 the flow converges
exactly when the target is attained.
"""

import time
import warnings

import numpy as np
import pytest

from conftest import angles_of_lengths, fd_jacobian, genus_two, rk4_reference, sample_admissible
from idcurv import (
    ConditioningError,
    EventKind,
    FlowKind,
    FlowSpec,
    Geometry,
    SolverError,
    TetraFamily,
    X_SUP,
    admissible,
    angle_deficits,
    average_curvature,
    csaszar_torus,
    curvature_field,
    curvature_jacobian,
    curvature_residual,
    edge_length,
    euler_characteristic,
    face_lengths,
    find_second_root,
    flow_rhs,
    gauss_bonnet_residual,
    grid_torus,
    newton_solve,
    potential_gradient,
    potential_value,
    run_flow,
    tetrahedron,
    u_of_r,
)

HYP = Geometry.HYPERBOLIC
EUC = Geometry.EUCLIDEAN


def _ok(number, detail):
    print(f"ACCEPTANCE {number}: PASS ({detail})")


# -- 1: two non-proportional constant-curvature packings ---------------------------


def test_01_tetrahedron_carries_two_constant_curvature_metrics():
    t0 = time.perf_counter()

    assert abs(curvature_residual(1.0)) < 1e-14
    assert curvature_residual(2.0) < 0.0

    root = find_second_root()
    assert 2.0 < root.x0 < X_SUP
    assert abs(curvature_residual(root.x0)) < 1e-12

    tri = tetrahedron(weight=2.0)
    first = np.ones(4)
    second = TetraFamily(root.x0).radii
    for radii in (first, second):
        assert np.ptp(curvature_field(tri, radii).R) < 1e-9

    # not proportional: the componentwise ratio is far from constant
    assert np.ptp(second / first) > 1.0

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _ok(1, f"x0 = {root.x0:.12f}, both packings constant-R, {elapsed:.2f}s")


# -- 2: total curvature identities --------------------------------------------------


def test_02_gauss_bonnet_on_random_packings():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240801)
    cases = [
        (tetrahedron(weight=2.0), 1e-10),
        (tetrahedron(weight=2.0, geometry=HYP), 1e-9),
        (csaszar_torus(), 1e-10),
        (csaszar_torus(geometry=HYP), 1e-9),
    ]
    worst = 0.0
    worst_angle = {EUC: 0.0, HYP: 0.0}
    for tri, tol in cases:
        for _ in range(100):
            r = sample_admissible(tri, rng)
            resid = abs(gauss_bonnet_residual(tri, r))
            assert resid <= tol
            worst = max(worst, resid)
            # the residual is a sum over faces (angle sums, and areas in the
            # hyperbolic case), so a corner-angle bug that keeps each face's
            # angle sum would pass it; K itself is checked against angles from
            # the law of cosines, corner by corner. The hyperbolic law loses
            # accuracy at large radii, so this stays at the sampled radii
            a = face_lengths(tri, r)
            b, c = np.roll(a, -1, axis=1), np.roll(a, 1, axis=1)
            if tri.geometry is HYP:
                cos = (np.cosh(b) * np.cosh(c) - np.cosh(a)) / (np.sinh(b) * np.sinh(c))
            else:
                cos = (b * b + c * c - a * a) / (2.0 * b * c)
            incident = np.bincount(tri.faces.ravel(), np.arccos(cos).ravel(), tri.vertex_count)
            gap = np.abs(angle_deficits(tri, r) - (2.0 * np.pi - incident)).max()
            assert gap <= 1e-12
            worst_angle[tri.geometry] = max(worst_angle[tri.geometry], gap)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _ok(2, f"400 packings, worst residual {worst:.2e}, worst K gap "
           f"{worst_angle[EUC]:.2e} Euclidean, {worst_angle[HYP]:.2e} hyperbolic, "
           f"{elapsed:.2f}s")


# -- 3: curvature Jacobian structure -------------------------------------------------


def test_03_curvature_jacobian_structure():
    rng = np.random.default_rng(20240802)
    worst_fd = 0.0
    for tri in (csaszar_torus(), csaszar_torus(geometry=HYP)):
        hyperbolic = tri.geometry is HYP
        for _ in range(50):
            r = sample_admissible(tri, rng)
            L = curvature_jacobian(tri, r).matrix
            assert np.abs(L - L.T).max() <= 1e-8
            eig = np.linalg.eigvalsh(0.5 * (L + L.T))
            if hyperbolic:
                assert eig.min() > 0.0
            else:
                assert eig.min() >= -1e-9
                assert int(np.sum(np.abs(eig) < 1e-8)) == 1
                assert np.abs(L @ np.ones(tri.vertex_count)).max() <= 1e-8
            fd_err = np.abs(L - fd_jacobian(tri, r)).max()
            assert fd_err <= 1e-5
            worst_fd = max(worst_fd, fd_err)
    _ok(3, f"100 Jacobians symmetric/signed as required, worst FD gap {worst_fd:.2e}")


# -- 4: curvature evolution equation -------------------------------------------------


def test_04_curvature_evolution_identity():
    # R = K / s^alpha evolves like Hamilton's scalar curvature:
    #   dR/dt = c Delta R + (c alpha / 2) R (R - R_av),   Delta R = -(L R) / s^alpha,
    # with L = dK/du. The left side is central differences of R along flow_rhs;
    # only the right side reads L, so a wrong L fails here even with L 1 = 0
    rng = np.random.default_rng(20240803)
    cases = [(FlowKind.NORMALIZED_EUCLIDEAN, 2.0)] + [
        (FlowKind.ALPHA_NORMALIZED, alpha) for alpha in (-1.0, 0.0, 1.0, 2.0, 3.0)
    ]
    step = 1e-5
    worst = 0.0
    for tri in (csaszar_torus(), tetrahedron(weight=2.0), grid_torus(6, 6, weight=2.0)):
        for _ in range(20):
            r = sample_admissible(tri, rng)
            L = curvature_jacobian(tri, r).sparse
            for kind, alpha in cases:
                spec = FlowSpec(kind=kind, alpha=alpha)
                c, a = kind.rate, spec.alpha
                v = flow_rhs(tri, r, spec)
                dR = (
                    curvature_field(tri, r + step * v, a).R
                    - curvature_field(tri, r - step * v, a).R
                ) / (2.0 * step)
                R = curvature_field(tri, r, a).R
                R_av = average_curvature(tri, r, a)
                predicted = -c * (L @ R) / r**a + 0.5 * c * a * R * (R - R_av)
                worst = max(worst, float(np.max(np.abs(dR - predicted)) / np.max(np.abs(dR))))
    assert worst < 1e-7
    _ok(4, f"3 surfaces x 20 packings, 6 kind/alpha cases, worst relative gap {worst:.2e}")


# -- 5 and 6 share the admissible-start flow limit -----------------------------------


@pytest.fixture(scope="module")
def torus_flow_limit():
    tri = csaszar_torus()
    rng = np.random.default_rng(11)
    r0 = np.exp(rng.uniform(-0.3, 0.3, tri.vertex_count))
    t0 = time.perf_counter()
    trace, final = run_flow(
        tri,
        r0,
        FlowSpec(kind=FlowKind.NORMALIZED_EUCLIDEAN, step=0.01, t_max=200.0, tol=1e-8),
    )
    elapsed = time.perf_counter() - t0
    return r0, trace, final.radii, elapsed


def test_05_flow_convergence_on_perturbed_torus(torus_flow_limit):
    r0, trace, r, elapsed = torus_flow_limit
    term = trace.terminal_event()
    assert term.kind is EventKind.CONVERGED

    R = angle_deficits(csaszar_torus(), r) / r**2
    assert np.abs(R).max() < 1e-8
    drift = abs(np.sum(r**2) - np.sum(r0**2))
    assert drift < 1e-8
    spread = np.ptp(r) / r.mean()
    assert spread < 1e-6
    assert elapsed < 10.0
    _ok(
        5,
        f"Converged at t = {term.t:.2f}, max|R| {np.abs(R).max():.1e}, "
        f"measure drift {drift:.1e}, radius spread {spread:.1e}, {elapsed:.2f}s",
    )


def test_06_extended_flow_recovers_from_degenerate_start(torus_flow_limit):
    *_, limit_radii, _ = torus_flow_limit

    # With unit weights every Euclidean length is the plain sum of the two
    # radii, so no radii vector is ever degenerate; the recovery runs on the
    # weight-2 torus instead. Vertices 1 and 3 share a face with vertex 0;
    # pushing their radii apart lets the inflation snap that face.
    tri = csaszar_torus(weight=2.0)
    r0 = np.ones(tri.vertex_count)
    r0[1], r0[3] = 3.0, 0.4
    assert admissible(tri, r0)[0]
    r0[0] = 12.0
    assert not admissible(tri, r0)[0]
    # admissibility is scale invariant, so normalizing the measure keeps the
    # degenerate faces while matching the equilibrium scale of the flow above
    r0 *= np.sqrt(7.0 / np.sum(r0**2))

    trace, final = run_flow(
        tri,
        r0,
        FlowSpec(kind=FlowKind.EXTENDED_EUCLIDEAN, step=0.01, t_max=200.0, tol=1e-8),
    )
    kinds = [e.kind for e in trace.events]
    assert kinds == [
        EventKind.LEFT_ADMISSIBLE,
        EventKind.REENTERED_ADMISSIBLE,
        EventKind.CONVERGED,
    ]

    # same equal-radii limit as the admissible-start flow, compared as shapes
    gap = np.abs(
        final.radii / final.radii.mean() - limit_radii / limit_radii.mean()
    ).max()
    assert gap < 1e-6
    _ok(6, f"left/reentered/converged as logged, shape gap to test 5 limit {gap:.1e}")


# -- 7: potential calculus ------------------------------------------------------------


def test_07_potential_exactness_and_invariance():
    tri = csaszar_torus()
    rng = np.random.default_rng(31)

    worst_path = 0.0
    for _ in range(20):
        u0 = u_of_r(sample_admissible(tri, rng, spread=0.25), tri.geometry)
        u1 = u_of_r(sample_admissible(tri, rng, spread=0.25), tri.geometry)
        mid = u_of_r(sample_admissible(tri, rng, spread=0.25), tri.geometry)
        straight = potential_value(tri, u0, u1, 0.0)
        bent = potential_value(tri, u0, u1, 0.0, via=(mid,))
        worst_path = max(worst_path, abs(straight - bent))
        assert worst_path < 1e-8

    u0 = u_of_r(np.ones(tri.vertex_count), tri.geometry)
    u = u_of_r(sample_admissible(tri, rng, spread=0.3), tri.geometry)
    ref = potential_value(tri, u0, u, None, extended=True)
    worst_shift = 0.0
    for t in (-1.0, 0.5, 2.0):
        val = potential_value(tri, u0, u + t, None, extended=True)
        worst_shift = max(worst_shift, abs(val - ref))
        assert worst_shift < 1e-8

    # gradient against central differences of the line integral
    grad = potential_gradient(tri, u, -0.3)
    step = 1e-5
    worst_grad = 0.0
    for i in range(tri.vertex_count):
        up, um = u.copy(), u.copy()
        up[i] += step
        um[i] -= step
        fp = potential_value(tri, u0, up, -0.3)
        fm = potential_value(tri, u0, um, -0.3)
        worst_grad = max(worst_grad, abs((fp - fm) / (2.0 * step) - grad[i]))
    assert worst_grad < 1e-6
    _ok(
        7,
        f"paths {worst_path:.1e}, shifts {worst_shift:.1e}, gradient {worst_grad:.1e}",
    )


# -- 8: the flat packing is unique up to scale ----------------------------------------


def test_08_flat_packing_unique_up_to_scale():
    tri = csaszar_torus()
    rng = np.random.default_rng(41)
    shapes = []
    for _ in range(20):
        sol = newton_solve(tri, sample_admissible(tri, rng), 0.0)
        shapes.append(sol.radii / np.mean(sol.radii))
    shapes = np.asarray(shapes)
    spread = 0.0
    for i in range(len(shapes)):
        for j in range(i + 1, len(shapes)):
            spread = max(spread, np.abs(shapes[i] - shapes[j]).max())
    assert spread < 1e-7
    # the tetrahedron family of test 1 shows the complement: with positive
    # Euler characteristic two non-proportional constant-R packings coexist
    _ok(8, f"20 Newton starts, pairwise shape spread {spread:.2e}")


# -- 9: hyperbolic length and angle limits --------------------------------------------


def test_09_hyperbolic_length_and_angle_limits():
    rng = np.random.default_rng(51)
    for _ in range(20):
        r_j, r_k = np.exp(rng.uniform(-1.0, 1.0, 2))
        w = rng.uniform(0.0, 3.0)
        l_jk = edge_length(r_j, r_k, w, HYP)
        # cosh l_ij >= cosh r_i cosh r_j >= cosh r_i, so l_ij >= r_i and any
        # r_i above l_jk already forces the strict triangle inequality
        for mult in np.geomspace(1.0 + 1e-6, 64.0, 12):
            r_i = l_jk * mult
            l_ij = edge_length(r_i, r_j, w, HYP)
            l_ik = edge_length(r_i, r_k, w, HYP)
            assert l_ij + l_ik > l_jk

    # the corner angle at a far vertex dies out, plain and extended alike
    r_j, r_k, w = 1.0, 1.5, 1.0
    lengths = np.array(
        [
            edge_length(r_j, r_k, w, HYP),
            edge_length(50.0, r_k, w, HYP),
            edge_length(50.0, r_j, w, HYP),
        ]
    )
    theta = angles_of_lengths(lengths[None], HYP)[0, 0]
    theta_ext = angles_of_lengths(lengths[None], HYP, extended=True)[0, 0]
    assert 0.0 <= theta < 1e-3
    assert 0.0 <= theta_ext < 1e-3
    _ok(9, f"20 triples pass the threshold test, far-vertex angle {theta:.1e}")


# -- 10: hyperbolic prescribed curvature ----------------------------------------------


def test_10_hyperbolic_prescribed_curvature_agreement():
    tri = csaszar_torus(geometry=HYP)
    rng = np.random.default_rng(7)

    # sampling pass: no admissible packing found with R <= 0 everywhere (the
    # total curvature of this surface equals its positive area, so some
    # vertex always carries positive curvature)
    nonpositive = 0
    for _ in range(50):
        cand = np.exp(rng.uniform(-0.5, 0.5, 7)) * rng.uniform(0.5, 3.0)
        if admissible(tri, cand)[0] and np.all(curvature_field(tri, cand).R <= 0.0):
            nonpositive += 1
    assert nonpositive == 0

    # fallback: prescribe the curvature of a known packing and require the
    # flow and the Newton solver to land on it together. Randomly sampled
    # prescriptions sit on dynamically unstable rest points of this flow (a
    # positive target works against the curvature Jacobian), so the check
    # uses the symmetric packing, whose only unstable direction is the
    # uniform rescaling that a mean-zero perturbation avoids.
    r_hat = np.full(7, 0.3)
    target = curvature_field(tri, r_hat).R.copy()
    assert np.all(target > 0.0)

    pert = rng.normal(size=7) * 1e-6
    pert -= pert.mean()
    r_start = r_hat * np.exp(pert)

    trace, final = run_flow(
        tri,
        r_start,
        FlowSpec(
            kind=FlowKind.MODIFIED_HYPERBOLIC,
            target=target,
            step=0.01,
            t_max=200.0,
            tol=1e-8,
        ),
    )
    term = trace.terminal_event()
    assert term.kind is EventKind.CONVERGED
    assert any(e.kind is EventKind.TARGET_SIGN_WARNING for e in trace.events)
    flow_dev = np.abs(final.radii - r_hat).max()
    assert flow_dev < 1e-6

    with pytest.warns(UserWarning, match="positive somewhere"):
        sol = newton_solve(tri, r_start, target)
    agree = np.abs(sol.radii - final.radii).max()
    assert agree < 1e-6
    _ok(
        10,
        f"no R <= 0 instance in 50 samples; fallback flow dev {flow_dev:.1e}, "
        f"Newton/flow gap {agree:.1e}, sign warnings logged",
    )


# -- 11: on a chi < 0 surface the flows converge, to unique limits --------------------


def test_11_genus_two_flows_converge_to_unique_limits():
    t0 = time.perf_counter()
    euc, hyp = genus_two(), genus_two(HYP)
    assert (euc.vertex_count, len(euc.edges), euc.face_count) == (69, 213, 142)
    assert euler_characteristic(euc) == -2
    rng = np.random.default_rng(61)
    starts = [np.exp(rng.uniform(-0.3, 0.3, euc.vertex_count)) for _ in range(3)]
    worst_gb = 0.0

    # (a) Euclidean: for alpha = 2 and alpha = 1 every start flows to one
    # constant-curvature metric up to scale (alpha-rigidity)
    gaps = []
    for kind, alpha in ((FlowKind.NORMALIZED_EUCLIDEAN, 2.0), (FlowKind.ALPHA_NORMALIZED, 1.0)):
        shapes = []
        for r0 in starts:
            trace, final = run_flow(euc, r0, FlowSpec(kind=kind, alpha=alpha))
            assert trace.terminal_event().kind is EventKind.CONVERGED
            shapes.append(final.radii / final.radii.mean())
            worst_gb = max(worst_gb, abs(gauss_bonnet_residual(euc, final.radii)))
        gaps.append(max(np.abs(a - b).max() for a in shapes for b in shapes))
    assert max(gaps) < 1e-6

    # (b) hyperbolic, target -1, default spec: converges when the exact flow
    # does (the fixed-step RK4 reference at h = 0.004), to the Newton solution
    worst_time = worst_newton = 0.0
    for r0 in starts:
        spec = FlowSpec(kind=FlowKind.MODIFIED_HYPERBOLIC, target=-1.0)
        trace, final = run_flow(hyp, r0, spec)
        term = trace.terminal_event()
        assert term.kind is EventKind.CONVERGED
        reference_t, _, _ = rk4_reference(hyp, r0, spec, 0.004)
        assert reference_t < spec.t_max
        worst_time = max(worst_time, abs(term.t - reference_t) / reference_t)
        worst_newton = max(
            worst_newton, np.abs(final.radii - newton_solve(hyp, r0, -1.0).radii).max()
        )
        worst_gb = max(worst_gb, abs(gauss_bonnet_residual(hyp, final.radii)))
    assert worst_time < 0.01
    assert worst_newton < 1e-8

    # (c) Gauss-Bonnet with chi = -2 at every limit
    assert worst_gb < 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _ok(
        11,
        f"shape gaps {gaps[0]:.1e} (alpha 2) and {gaps[1]:.1e} (alpha 1), hyperbolic "
        f"convergence time within {worst_time:.1%} of RK4, Newton gap {worst_newton:.1e}, "
        f"Gauss-Bonnet {worst_gb:.1e}, {elapsed:.2f}s",
    )


# -- 12: alpha-rigidity where the potential is strictly convex -------------------------


def test_12_alpha_curvature_is_globally_rigid():
    # where alpha * R_alpha <= 0 the potential is strictly convex, so a
    # prescribed alpha-curvature has at most one solution: Newton from every
    # start lands on the same radii (Ge-Xu, Calc. Var. 2016)
    t0 = time.perf_counter()
    rng = np.random.default_rng(12)
    worst_recovery = 0.0
    for weight in (2.0, 0.5):
        tri = tetrahedron(weight=weight)
        for alpha in (-1.0, -3.0):
            r_hat = sample_admissible(tri, rng, spread=0.3)
            target = curvature_field(tri, r_hat, alpha=alpha).R
            assert np.all(alpha * target <= 0.0)
            for _ in range(5):
                start = sample_admissible(tri, rng, spread=0.3)
                radii = newton_solve(tri, start, target, alpha).radii
                worst_recovery = max(worst_recovery, np.max(np.abs(radii / r_hat - 1.0)))
    assert worst_recovery < 1e-11

    spreads = []
    for geom, alpha in ((EUC, 1.0), (EUC, 2.0), (HYP, 1.0)):
        tri = genus_two(geom)
        target = -np.exp(rng.uniform(-0.5, 0.5, tri.vertex_count))
        solutions = [
            newton_solve(tri, sample_admissible(tri, rng, spread=0.3), target, alpha).radii
            for _ in range(3)
        ]
        spreads.append(max(np.max(np.abs(a / b - 1.0)) for a in solutions for b in solutions))
    assert max(spreads) < 1e-11
    _ok(
        12,
        f"tetrahedron R_alpha recovered from 20 starts to {worst_recovery:.1e}; genus-2 "
        f"Newton spreads {spreads[0]:.1e}, {spreads[1]:.1e} (Euclidean alpha 1, 2), "
        f"{spreads[2]:.1e} (hyperbolic alpha 1), {time.perf_counter() - t0:.2f}s",
    )


# -- 14: the converse half of the chi <= 0 theorem -------------------------------------

# (vertex set A, its target, the target elsewhere, whether the Chow-Luo
# condition holds); with weight 1 the curvature K is attained iff, for every
# nonempty vertex set A, sum_A K > -pi |Lk(A)| + 2 pi chi(F_A): -4 pi for a
# vertex of the degree-6 Csaszar torus, -6 pi for an adjacent pair
CHOW_LUO_ROWS = [
    ((0,), -3.5, 0.9, True),
    ((0,), -3.9, 0.9, True),
    ((0, 1), -2.9, 1.3, True),
    ((0,), -4.1, 0.9, False),
    ((0, 1), -3.2, 1.3, False),
]
CHOW_LUO_BOUND = {1: -4.0 * np.pi, 2: -6.0 * np.pi}


@pytest.mark.parametrize(
    "vertices, low, rest, feasible",
    CHOW_LUO_ROWS,
    ids=[f"A{'+'.join(map(str, row[0]))}-at-{row[1]}pi" for row in CHOW_LUO_ROWS],
)
def test_14_flow_converges_exactly_when_the_target_is_attained(vertices, low, rest, feasible):
    # the flow converges, to Newton's solution, where Chow-Luo's condition
    # holds; where it fails at A, a radius of A collapses while the curvature
    # summed over A reaches the bound, and Newton fails. The pair row passes
    # every single-vertex bound, so the pair's own bound is what fails
    tri = csaszar_torus(weight=1.0, geometry=HYP)
    target = np.full(tri.vertex_count, rest * np.pi)
    target[list(vertices)] = low * np.pi
    r0 = 0.5 * np.exp(np.random.default_rng(14).uniform(-0.3, 0.3, tri.vertex_count))
    spec = FlowSpec(kind=FlowKind.ALPHA_MODIFIED, alpha=0.0, target=target, t_max=400.0)
    trace, final = run_flow(tri, r0, spec)
    event = trace.terminal_event()
    if feasible:
        assert event.kind is EventKind.CONVERGED
        gap = np.max(np.abs(newton_solve(tri, r0, target, alpha=0.0).radii - final.radii))
        assert gap < 1e-8
        _ok(14, f"A = {vertices}: Converged at t = {event.t:.1f}, Newton gap {gap:.1e}")
        return
    assert event.kind is EventKind.ESSENTIAL_SINGULARITY and event.index in vertices
    total = float(np.sum(angle_deficits(tri, final.radii)[list(vertices)]))
    assert abs(total - CHOW_LUO_BOUND[len(vertices)]) < 1e-2
    with pytest.raises((ConditioningError, SolverError)):
        newton_solve(tri, r0, target, alpha=0.0)
    _ok(14, f"A = {vertices}: EssentialSingularity at v{event.index}, sum K {total / np.pi:.4f} pi")
