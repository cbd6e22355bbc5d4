"""Ricci potential: exactness, invariance, Newton solves, convexity."""

import collections
import importlib
import logging
import math

import numpy as np
import pytest
import scipy.sparse

from conftest import genus_two, sample_admissible, signed_weight_torus

from idcurv import (
    AdmissibilityError,
    DomainError,
    EventKind,
    FlowKind,
    FlowSpec,
    Geometry,
    QuadratureError,
    SolverError,
    WeightRegime,
    angle_deficits,
    connected_sum,
    csaszar_torus,
    curvature_field,
    geometry,
    grid_torus,
    laplacian_spectrum,
    newton_solve,
    potential_gradient,
    potential_value,
    run_flow,
    tetrahedron,
    u_of_r,
    validate_weights,
)


def coords(tri, *radii):
    """u-coordinates of each radius vector."""
    return [u_of_r(np.asarray(r, float), tri.geometry) for r in radii]


# -- value ---------------------------------------------------------------------------


def test_zero_at_base_point(csaszar_euc):
    r0 = np.full(7, 0.9)
    u0, u = coords(csaszar_euc, r0, r0)
    assert potential_value(csaszar_euc, u0, u, 0.0) == 0.0


@pytest.mark.parametrize("alpha", [math.nan, math.inf])
def test_zero_length_path_refuses_non_finite_alpha(csaszar_euc, alpha):
    # a path of no length integrates nothing; before the refusal it returned 0.0
    u0, = coords(csaszar_euc, np.full(7, 0.9))
    with pytest.raises(ValueError, match="alpha must be finite"):
        potential_value(csaszar_euc, u0, u0, 0.0, alpha=alpha)
    with pytest.raises(ValueError, match="alpha must be finite"):
        potential_value(csaszar_euc, u0, u0, 0.0, alpha=alpha, via=[u0], extended=True)


def test_path_independence(csaszar_euc, rng):
    for _ in range(5):
        r0 = sample_admissible(csaszar_euc, rng, spread=0.25)
        r1 = sample_admissible(csaszar_euc, rng, spread=0.25)
        mid = sample_admissible(csaszar_euc, rng, spread=0.25)
        u0, u1 = coords(csaszar_euc, r0, r1)
        straight = potential_value(csaszar_euc, u0, u1, 0.0)
        bent = potential_value(
            csaszar_euc, u0, u1, 0.0, via=(u_of_r(mid, csaszar_euc.geometry),)
        )
        assert abs(straight - bent) < 1e-8


def test_translation_invariance_average_target(csaszar_euc, rng):
    r0 = np.full(7, 1.0)
    r = sample_admissible(csaszar_euc, rng, spread=0.3)
    u = u_of_r(r, csaszar_euc.geometry)
    u0 = u_of_r(r0, csaszar_euc.geometry)
    ref = potential_value(csaszar_euc, u0, u, None, extended=True)
    for t in (-1.0, 0.5, 2.0):
        val = potential_value(csaszar_euc, u0, u + t, None, extended=True)
        assert abs(val - ref) < 1e-8


def test_segment_must_stay_admissible_without_extension(tetra_euc):
    u0, u = coords(tetra_euc, np.ones(4), np.array([1.0, 10.0, 10.0, 10.0]))
    with pytest.raises(AdmissibilityError):
        potential_value(tetra_euc, u0, u, 0.0)
    # the extension integrates through the degenerate region
    val = potential_value(tetra_euc, u0, u, 0.0, extended=True)
    assert np.isfinite(val)


def test_inadmissible_base_point_is_refused(tetra_euc):
    u0, u = coords(tetra_euc, np.array([1.0, 10.0, 10.0, 10.0]), np.ones(4))
    with pytest.raises(AdmissibilityError, match="base point is inadmissible"):
        potential_value(tetra_euc, u0, u, 0.0)


def test_unsettled_quadrature_is_a_quadrature_error(csaszar_euc, monkeypatch):
    # an integrable singularity at tau = 1/pi, off every Gauss-Kronrod node,
    # that QUADPACK cannot resolve to QUAD_TOL within its subdivision limit
    potential = importlib.import_module("idcurv.potential")
    n = csaszar_euc.vertex_count

    def singular(tri, u, target, alpha=2.0, extended=False):
        return np.full(n, abs(u[0] - 1.0 / math.pi) ** -0.5 / n)

    monkeypatch.setattr(potential, "potential_gradient", singular)
    with pytest.raises(QuadratureError, match="maximum number of subdivisions") as info:
        potential_value(csaszar_euc, np.zeros(n), np.ones(n), 0.0)
    assert " ".join(str(info.value).split()) == str(info.value)


# -- gradient ------------------------------------------------------------------------


def test_gradient_zero_at_solutions(tetra_euc, csaszar_euc):
    (u,) = coords(tetra_euc, np.ones(4))
    g = potential_gradient(tetra_euc, u, math.pi)
    assert np.max(np.abs(g)) < 1e-14
    (u,) = coords(csaszar_euc, np.full(7, 0.8))
    g = potential_gradient(csaszar_euc, u, 0.0)
    assert np.max(np.abs(g)) < 1e-13


def test_gradient_matches_finite_differences(csaszar_euc, rng):
    r0 = np.full(7, 1.0)
    r = sample_admissible(csaszar_euc, rng, spread=0.2)
    u0, u = coords(csaszar_euc, r0, r)
    g = potential_gradient(csaszar_euc, u, -0.3)
    step = 1e-5
    for i in range(7):
        e = np.zeros(7)
        e[i] = step
        fd = (
            potential_value(csaszar_euc, u0, u + e, -0.3)
            - potential_value(csaszar_euc, u0, u - e, -0.3)
        ) / (2.0 * step)
        assert abs(fd - g[i]) < 1e-6


# -- Newton --------------------------------------------------------------------------


def test_newton_flat_torus_gauge_fixed(csaszar_euc, rng):
    r0 = sample_admissible(csaszar_euc, rng, spread=0.2)
    sol = newton_solve(csaszar_euc, r0, target=0.0)
    spread = np.ptp(sol.radii) / sol.radii.mean()
    assert spread < 1e-10
    K = curvature_field(csaszar_euc, sol.radii).K
    assert np.max(np.abs(K)) < 1e-10
    # the singular solve pins the scale slice sum(u) = const
    u0, u1 = u_of_r(r0, sol.geometry), u_of_r(sol.radii, sol.geometry)
    assert abs(u1.sum() - u0.sum()) < 1e-9


def test_newton_tetra_reaches_unit_metric(tetra_euc):
    r0 = np.array([1.05, 0.97, 1.02, 0.99])
    with pytest.warns(UserWarning, match="positive somewhere"):
        sol = newton_solve(tetra_euc, r0, target=math.pi)
    assert np.max(np.abs(sol.radii - 1.0)) < 1e-8


def test_newton_hyperbolic_prescribed(csaszar_hyp):
    # Gauss-Bonnet forces sum(K) = Area > 0 here, so no R <= 0 target is
    # attainable; prescribe the curvature of a known metric instead
    rhat = np.full(7, 0.3)
    target = curvature_field(csaszar_hyp, rhat).R
    rng = np.random.default_rng(7)
    pert = rng.normal(size=7) * 1e-6
    pert -= pert.mean()
    with pytest.warns(UserWarning, match="positive somewhere"):
        sol = newton_solve(csaszar_hyp, rhat * np.exp(pert), target=target)
    assert np.max(np.abs(sol.radii - rhat)) < 1e-8


def test_newton_from_large_hyperbolic_radii(csaszar_hyp):
    # at r = 40 tanh(r/2) rounds to 1, but the chart keeps u < 0, so the solve
    # starts there and recovers the packing whose curvature it is given
    target = angle_deficits(csaszar_hyp, np.full(7, 0.5))
    radii = newton_solve(csaszar_hyp, np.full(7, 40.0), target, alpha=0.0).radii
    np.testing.assert_allclose(radii, 0.5, rtol=0.0, atol=1e-12)


def test_newton_agrees_with_flow(csaszar_euc, csaszar_hyp):
    # Euclidean, zero target: the flow conserves sum(r^2) while Newton pins
    # prod(r), so the two limits agree as shapes, not as scales
    r0 = np.array([1.05, 0.95, 1.0, 1.02, 0.98, 1.01, 0.99])
    spec = FlowSpec(kind=FlowKind.MODIFIED_EUCLIDEAN, target=np.zeros(7), tol=1e-11)
    trace, via_flow = run_flow(csaszar_euc, r0, spec)
    assert trace.terminal_event().kind is EventKind.CONVERGED
    via_newton = newton_solve(csaszar_euc, r0, target=0.0)
    a = via_flow.radii / via_flow.radii.mean()
    b = via_newton.radii / via_newton.radii.mean()
    assert np.max(np.abs(a - b)) < 1e-7

    rhat = np.full(7, 0.3)
    target = curvature_field(csaszar_hyp, rhat).R
    r0 = rhat * np.exp(np.array([1, -1, 2, 0, -2, 1, -1]) * 1e-6)
    spec = FlowSpec(kind=FlowKind.MODIFIED_HYPERBOLIC, target=target, tol=1e-11)
    trace, via_flow = run_flow(csaszar_hyp, r0, spec)
    assert trace.terminal_event().kind is EventKind.CONVERGED
    with pytest.warns(UserWarning):
        via_newton = newton_solve(csaszar_hyp, r0, target=target)
    assert np.max(np.abs(via_flow.radii - via_newton.radii)) < 1e-7


def test_newton_on_a_144_vertex_torus(caplog):
    rng = np.random.default_rng(144)
    tri = grid_torus(12, 12)
    r0 = np.exp(rng.uniform(-0.3, 0.3, tri.vertex_count))
    with caplog.at_level(logging.DEBUG, logger="idcurv.potential"):
        flat = newton_solve(tri, r0, target=0.0)
    assert np.max(np.abs(angle_deficits(tri, flat.radii))) < 1e-9
    u0, u1 = u_of_r(r0, tri.geometry), u_of_r(flat.radii, tri.geometry)
    assert abs(u1.sum() - u0.sum()) < 1e-9
    values = laplacian_spectrum(tri, flat.radii)
    assert abs(values[0]) < 1e-9
    assert values[1] > 0.0

    htri = grid_torus(12, 12, geometry=Geometry.HYPERBOLIC)
    packing = 0.5 * np.exp(rng.uniform(-0.3, 0.3, htri.vertex_count))
    target = angle_deficits(htri, packing)
    with caplog.at_level(logging.DEBUG, logger="idcurv.potential"):
        hyp = newton_solve(htri, np.full(htri.vertex_count, 0.5), target, alpha=0.0)
    assert np.max(np.abs(hyp.radii - packing)) < 1e-8
    # every step's CG solve, flat and hyperbolic, ends within N iterations
    records = [rec for rec in caplog.records if rec.name == "idcurv.potential"]
    assert len(records) >= 4 and all(rec.getMessage().endswith("CG iterations") for rec in records)
    assert all(1 <= rec.args[-1] <= 144 for rec in records)


def test_newton_logs_each_iteration(csaszar_euc, caplog):
    r0 = np.array([1.3, 0.8, 1.1, 1.0, 0.9, 1.2, 0.95])
    with caplog.at_level(logging.DEBUG, logger="idcurv.potential"):
        newton_solve(csaszar_euc, r0, target=0.0)
    records = [rec for rec in caplog.records if rec.name == "idcurv.potential"]
    assert len(records) >= 2
    norms = []
    for k, rec in enumerate(records):
        assert rec.levelno == logging.DEBUG
        iteration, norm, step, trials, cg_iterations = rec.args
        assert iteration == k
        assert 0.0 < step <= 1.0 and trials >= 1
        assert 1 <= cg_iterations <= 7
        assert step == 2.0 ** (1 - trials)
        norms.append(norm)
        assert f"newton iteration {k}" in rec.getMessage()
    assert norms[0] == pytest.approx(np.max(np.abs(angle_deficits(csaszar_euc, r0))))
    assert norms[-1] < norms[0]


def count_line_search(monkeypatch):
    """Count the checks newton_solve makes: calls of geometry.admissible, the
    rejections among them, and the DomainErrors of geometry.r_of_u."""
    seen = collections.Counter()
    admissible, r_of_u = geometry.admissible, geometry.r_of_u

    def counted_admissible(*args, **kwargs):
        ok, bad = admissible(*args, **kwargs)
        seen["admissible"] += 1
        seen["inadmissible"] += not ok
        return ok, bad

    def counted_r_of_u(*args, **kwargs):
        try:
            return r_of_u(*args, **kwargs)
        except DomainError:
            seen["domain"] += 1
            raise

    monkeypatch.setattr(geometry, "admissible", counted_admissible)
    monkeypatch.setattr(geometry, "r_of_u", counted_r_of_u)
    return seen


def logged_trials(caplog):
    return [rec.args[3] for rec in caplog.records if rec.name == "idcurv.potential"]


def test_newton_checks_admissibility_once_per_trial(csaszar_euc, monkeypatch, caplog):
    # one check of the start, then one per line-search trial: the traced
    # potential.line_search.trials of the benchmark is derived from this count
    seen = count_line_search(monkeypatch)
    r0 = np.array([1.3, 0.8, 1.1, 1.0, 0.9, 1.2, 0.95])
    with caplog.at_level(logging.DEBUG, logger="idcurv.potential"):
        sol = newton_solve(csaszar_euc, r0, target=0.0)
    assert np.max(np.abs(angle_deficits(csaszar_euc, sol.radii))) < 1e-10
    assert seen["admissible"] == 1 + sum(logged_trials(caplog))


def overshoot_newton(monkeypatch):
    """Make every Newton step 100 times too long, so full steps overshoot."""
    potential = importlib.import_module("idcurv.potential")
    hessian = potential._hessian
    monkeypatch.setattr(
        potential, "_hessian", lambda tri, r, target, alpha: 0.01 * hessian(tri, r, target, alpha)
    )


def test_newton_rejects_inadmissible_trials(monkeypatch, caplog):
    tri = csaszar_torus(2.0)
    overshoot_newton(monkeypatch)
    seen = count_line_search(monkeypatch)
    r0 = np.array([1.3, 0.8, 1.1, 1.0, 0.9, 1.2, 0.95])
    with caplog.at_level(logging.DEBUG, logger="idcurv.potential"):
        sol = newton_solve(tri, r0, target=0.0)
    assert seen["inadmissible"] > 0
    assert max(logged_trials(caplog)) > 1
    assert seen["admissible"] == 1 + sum(logged_trials(caplog)) - seen["domain"]
    assert np.max(np.abs(angle_deficits(tri, sol.radii))) < 1e-10
    u0, u1 = u_of_r(r0, tri.geometry), u_of_r(sol.radii, tri.geometry)
    assert abs(u1.sum() - u0.sum()) < 1e-9


def test_newton_rejects_trials_outside_the_coordinate_domain(csaszar_hyp, monkeypatch, caplog):
    # hyperbolic u-coordinates are negative; an overshooting trial leaves them
    packing = 0.5 * np.exp(np.random.default_rng(7).uniform(-0.3, 0.3, 7))
    target = angle_deficits(csaszar_hyp, packing)
    overshoot_newton(monkeypatch)
    seen = count_line_search(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="idcurv.potential"):
        sol = newton_solve(csaszar_hyp, np.full(7, 0.5), target, alpha=0.0)
    assert seen["domain"] > 0
    assert max(logged_trials(caplog)) > 1
    # a trial outside the domain never reaches the admissibility check
    assert seen["admissible"] == 1 + sum(logged_trials(caplog)) - seen["domain"]
    assert np.max(np.abs(sol.radii - packing)) < 1e-8


def test_newton_spreads_the_gradient_sum_over_all_vertices(csaszar_euc, monkeypatch):
    # on a large mesh the rounding of sum(K) reaches ~N eps; model it by a
    # constant offset below tol. A solve that left the whole sum at one
    # vertex would end there at 7 * 5e-12 > GRAD_TOL and never converge
    potential = importlib.import_module("idcurv.potential")
    gradient = potential.potential_gradient
    monkeypatch.setattr(
        potential, "potential_gradient", lambda *args, **kwargs: gradient(*args, **kwargs) + 5e-12
    )
    r0 = np.array([1.3, 0.8, 1.1, 1.0, 0.9, 1.2, 0.95])
    sol = newton_solve(csaszar_euc, r0, target=0.0)
    assert np.max(np.abs(angle_deficits(csaszar_euc, sol.radii))) < 1e-10


def test_newton_iteration_budget(csaszar_euc, monkeypatch):
    potential = importlib.import_module("idcurv.potential")
    monkeypatch.setattr(potential, "MAX_NEWTON_ITERATIONS", 1)
    with pytest.raises(SolverError, match="no convergence in 1 iterations"):
        newton_solve(csaszar_euc, np.array([1.3, 0.8, 1.1, 1.0, 0.9, 1.2, 0.95]), target=0.0)


def test_newton_line_search_stalls_where_its_decrease_test_ends(csaszar_hyp, monkeypatch, caplog):
    # an uphill step lowers |g|^2 at no lam. Below lam = 2^-40, 1 - 1e-4 lam
    # rounds to 1, and a search that went on accepted a step leaving |g|^2
    # unchanged to the bit, 200 iterations over, into "no convergence"
    potential = importlib.import_module("idcurv.potential")
    hessian = potential._hessian
    monkeypatch.setattr(
        potential, "_hessian", lambda tri, r, target, alpha: -hessian(tri, r, target, alpha)
    )
    seen = count_line_search(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="idcurv.potential"):
        with pytest.raises(SolverError, match="stalled at .*no trial step down to 2\\^-40"):
            newton_solve(csaszar_hyp, np.full(7, 0.5), 0.3, alpha=0.0)
    assert logged_trials(caplog) == []
    assert seen["admissible"] + seen["domain"] == 1 + 41


@pytest.mark.parametrize("tol", [1e-15, 1e-20])
def test_newton_stall_within_the_rounding_floor_returns(csaszar_euc, caplog, tol):
    # the Csaszar solve at target 0 stalls at max|g| = 1.776e-15, 2 ulp(2 pi):
    # no step lowers |g|^2 further, and a tol below that floor is reported,
    # not raised as a stalled line search
    r0, floor = np.array([1.3, 0.8, 1.1, 1.0, 0.9, 1.2, 0.95]), 8.0 * np.spacing(2.0 * np.pi)
    with caplog.at_level(logging.WARNING, logger="idcurv.potential"):
        sol = newton_solve(csaszar_euc, r0, target=0.0, tol=tol)
    assert np.max(np.abs(angle_deficits(csaszar_euc, sol.radii))) <= floor
    assert np.max(np.abs(sol.radii - newton_solve(csaszar_euc, r0, target=0.0).radii)) < 1e-12
    [record] = [r for r in caplog.records if r.name == "idcurv.potential"]
    assert record.levelno == logging.WARNING
    assert f"rounding floor {floor:.3e}" in record.getMessage()
    assert f"tol {tol:.3e}" in record.getMessage()


def test_newton_singular_hessian_is_a_solver_error(csaszar_hyp, monkeypatch):
    # the zero matrix: H delta = -g has no solution, so CG breaks down (its
    # Jacobi preconditioner is 1/0) and the step's residual check fails
    potential = importlib.import_module("idcurv.potential")
    monkeypatch.setattr(
        potential, "_hessian", lambda tri, r, target, alpha: scipy.sparse.csr_array((7, 7))
    )
    target = angle_deficits(csaszar_hyp, np.full(7, 0.4))
    with pytest.raises(SolverError, match="linear solve failed at iteration 0: CG info"):
        newton_solve(csaszar_hyp, np.full(7, 0.3), target=target, alpha=0.0)


def test_newton_with_signed_weights():
    # under the signed regime's face condition the Hessian stays positive
    # (semi)definite (Xu, Adv. Math. 2018); an indefinite one would break CG here first
    tri = signed_weight_torus(Geometry.EUCLIDEAN)
    assert np.sum(tri.weights == -0.3) == 31 and len(tri.weights) == 108
    assert validate_weights(tri, WeightRegime.SIGNED).passed
    rng = np.random.default_rng(31)
    shapes = []
    for _ in range(5):
        radii = newton_solve(tri, sample_admissible(tri, rng, spread=0.3), 0.0).radii
        assert np.max(np.abs(angle_deficits(tri, radii))) < 1e-10
        shapes.append(radii / np.exp(np.log(radii).mean()))
    assert max(np.max(np.abs(a - b)) for a in shapes for b in shapes) <= 1e-12

    htri = signed_weight_torus(Geometry.HYPERBOLIC)
    target = angle_deficits(htri, sample_admissible(htri, rng, spread=0.3, scale=0.5))
    for _ in range(5):
        start = sample_admissible(htri, rng, spread=0.3, scale=0.5)
        radii = newton_solve(htri, start, target, alpha=0.0).radii
        assert np.max(np.abs(angle_deficits(htri, radii) - target)) <= 1e-12


@pytest.mark.parametrize(
    "target, alpha", [(math.nan, 2.0), (math.inf, 2.0), (0.0, math.nan)]
)
def test_newton_refuses_non_finite_input(csaszar_euc, target, alpha):
    message = "target must be finite" if math.isfinite(alpha) else "alpha must be finite"
    with pytest.raises(ValueError, match=message):
        newton_solve(csaszar_euc, np.ones(7), target, alpha=alpha)


@pytest.mark.parametrize(
    "tri, target",
    [
        # sum(T s^2) = 2 pi chi + area > 0 on the hyperbolic torus; before the
        # refusal these two returned radii of ~1e-6 as a solution
        (csaszar_torus(geometry=Geometry.HYPERBOLIC), -1.0),
        (csaszar_torus(geometry=Geometry.HYPERBOLIC), -0.5),
        (csaszar_torus(), 1.0),  # chi = 0 needs sum(T s^2) = 0
        (csaszar_torus(), -1.0),
        (grid_torus(4, 4), np.r_[np.zeros(15), 1.0]),
        (tetrahedron(), 0.0),  # chi = 2 needs a positive sum
        (connected_sum(grid_torus(4, 4), grid_torus(4, 4)), 0.0),  # chi = -2, a negative one
    ],
    ids=[
        "hyperbolic-torus-1", "hyperbolic-torus-0.5", "torus-positive", "torus-negative",
        "torus-one-vertex", "sphere-zero", "genus2-zero",
    ],
)
@pytest.mark.filterwarnings("ignore:alpha \\* target is positive")
def test_newton_refuses_infeasible_target(tri, target):
    r0 = np.full(tri.vertex_count, 0.3)
    with pytest.raises(ValueError, match="infeasible at every radius vector"):
        newton_solve(tri, r0, target)


@pytest.mark.parametrize(
    "geom, target",
    # chi = -2: the Euclidean sum must be -4 pi and the hyperbolic one must exceed
    # it; before the refusal the first ran 200 iterations into a SolverError and
    # the second stalled its line search
    [(Geometry.EUCLIDEAN, -0.1), (Geometry.HYPERBOLIC, -1.0)],
    ids=["euclidean", "hyperbolic"],
)
def test_newton_refuses_an_alpha_zero_target_off_the_gauss_bonnet_sum(geom, target):
    tri = genus_two(geom)
    with pytest.raises(ValueError, match="with alpha = 0 Gauss-Bonnet needs sum"):
        newton_solve(tri, np.full(tri.vertex_count, 0.3), target, alpha=0.0)


@pytest.mark.parametrize("geom", [Geometry.EUCLIDEAN, Geometry.HYPERBOLIC])
def test_newton_solves_an_alpha_zero_packing_target(geom):
    # the curvature of a packing meets Gauss-Bonnet's sum up to rounding
    tri = genus_two(geom)
    rng = np.random.default_rng(3)
    target = angle_deficits(tri, 0.5 * np.exp(rng.uniform(-0.2, 0.2, tri.vertex_count)))
    metric = newton_solve(tri, np.full(tri.vertex_count, 0.5), target, alpha=0.0)
    np.testing.assert_allclose(angle_deficits(tri, metric.radii), target, rtol=0.0, atol=1e-10)


def test_newton_rejects_inadmissible_start(tetra_euc):
    with pytest.raises(AdmissibilityError, match="inadmissible"):
        newton_solve(tetra_euc, np.array([1.0, 10.0, 10.0, 10.0]), target=-1.0)


# -- convexity -----------------------------------------------------------------------


def test_convexity_flat_target_kernel(csaszar_euc, rng):
    # the flat Hessian is L: positive semidefinite, its one kernel vector along 1
    potential = importlib.import_module("idcurv.potential")
    r = sample_admissible(csaszar_euc, rng, spread=0.2)
    values, vectors = np.linalg.eigh(potential._hessian(csaszar_euc, r, 0.0, 2.0).toarray())
    tol = 1e-9 * np.max(values)
    assert values[0] >= -tol and np.sum(np.abs(values) <= tol) == 1
    assert abs(abs(vectors[:, 0].sum()) / math.sqrt(7) - 1.0) < 1e-8


def test_convexity_negative_target(csaszar_euc, csaszar_hyp, rng):
    # T = -1 adds (alpha / 2) s^alpha to the diagonal: positive definite in both geometries
    potential = importlib.import_module("idcurv.potential")
    r = sample_admissible(csaszar_euc, rng, spread=0.2)
    for tri, radii in ((csaszar_euc, r), (csaszar_hyp, np.full(7, 0.4))):
        values = np.linalg.eigvalsh(potential._hessian(tri, radii, -1.0, 2.0).toarray())
        assert values[0] > 1e-9 * np.max(values)


# -- interaction with the flow --------------------------------------------------------


def test_potential_monotone_along_extended_flow(csaszar_i2):
    r0 = np.array([1.0, 10, 10, 10, 10, 10, 10], dtype=float)
    r0 *= math.sqrt(7.0 / (r0 @ r0))
    spec = FlowSpec(kind=FlowKind.EXTENDED_EUCLIDEAN, t_max=6.0, tol=1e-10)
    trace, _ = run_flow(csaszar_i2, r0, spec)
    us = [u_of_r(row, csaszar_i2.geometry) for row in trace.radii]
    values = [0.0]
    for ua, ub in zip(us[:-1], us[1:]):
        values.append(values[-1] + potential_value(csaszar_i2, ua, ub, None, extended=True))
    diffs = np.diff(values)
    assert np.all(diffs <= 1e-8)
    assert values[-1] < values[0] - 1e-3
