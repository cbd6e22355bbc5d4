"""Ricci potential: path integration in u-coordinates, Newton.

The potential F is the line integral of the 1-form sum_i (K_i - T_i s_i^alpha) du_i
from a base point u0, with T the prescribed curvature, or the running Euclidean
average curvature when the target is None (as in FlowSpec). The form is closed,
so the value is path independent inside the admissible region; the extended
variant replaces K by the constant-extension curvature and is defined on the
whole coordinate domain.

Everything in this module works in u_i = ln s_i^2 coordinates. In these
coordinates d(s^alpha)/du = (alpha/2) s^alpha, so the Hessian of F is
L - (alpha/2) diag(T s^alpha).
"""

from __future__ import annotations

import logging
import warnings

import numpy as np

from . import geometry
from .curvature import _finite_alpha, _finite_target, _first_positive, _step_control
from .curvature import angle_deficits, average_curvature, curvature_jacobian
from .errors import AdmissibilityError, DomainError, QuadratureError, SolverError
from .geometry import PackingMetric
from .surface import Geometry, euler_characteristic

QUAD_TOL = 1e-10
GRAD_TOL = 1e-11
MAX_NEWTON_ITERATIONS = 200

log = logging.getLogger("idcurv.potential")


def potential_gradient(tri, u, target, alpha=2.0, extended=False):
    """Gradient of the potential at u, the 1-form coefficients K_i - T_i s_i^alpha.

    target is a scalar, a per-vertex array, or None for the running Euclidean
    average curvature; a target that is not finite, or of the wrong length,
    raises ValueError.
    """
    alpha, target = _finite_alpha(alpha), _finite_target(target, tri.vertex_count)
    r = geometry.r_of_u(np.asarray(u, dtype=float), tri.geometry)
    K = angle_deficits(tri, r, extended=extended)
    s = geometry.s_of_r(r, tri.geometry)
    T = average_curvature(tri, r, alpha) if target is None else target
    return K - T * s**alpha


def _segment_integral(tri, ua, ub, target, alpha, extended):
    """Integral of the 1-form along ua->ub by QUADPACK's adaptive Gauss-Kronrod rule.

    The extended angles are continuous at the admissibility boundary, but
    their derivative is unbounded there: as the gap g_a of the dominating
    edge closes, pi - theta_a ~ 2 sqrt(g_a p / (g_b g_c)), a square root in
    the distance to the boundary. The adaptive bisection localizes it.
    """
    # not at module top: ~20 MB RSS more than scipy.sparse.linalg, and no flow needs it
    import scipy.integrate

    du = ub - ua
    if not np.any(du):
        return 0.0
    result = scipy.integrate.quad(
        lambda tau: float(potential_gradient(tri, ua + tau * du, target, alpha, extended) @ du),
        0.0, 1.0, epsabs=QUAD_TOL, epsrel=0.0, full_output=1,
    )
    if len(result) > 3:  # (value, abserr, infodict, message) when QUADPACK gives up
        raise QuadratureError(" ".join(result[3].split()))
    return result[0]


def potential_value(tri, u0, u, target, alpha=2.0, extended=False, via=()) -> float:
    """F(u) - F(u0) along the straight segment (or a polyline through `via`).

    target is as in `potential_gradient`. Non-extended evaluation fails if any
    quadrature node leaves the admissible region; extended evaluation only
    needs the coordinates to stay in range.
    """
    alpha, u0 = _finite_alpha(alpha), np.asarray(u0, dtype=float)
    target = _finite_target(target, tri.vertex_count)
    if not extended:
        r0 = geometry.r_of_u(u0, tri.geometry)
        ok, bad = geometry.admissible(tri, r0)
        if not ok:
            raise AdmissibilityError(f"base point is inadmissible (faces {bad})")
    waypoints = [u0, *[np.asarray(v, dtype=float) for v in via], np.asarray(u, dtype=float)]
    total = 0.0
    for ua, ub in zip(waypoints[:-1], waypoints[1:]):
        total += _segment_integral(tri, ua, ub, target, alpha, extended)
    return total


# -- Newton solver ------------------------------------------------------------------


def _hessian(tri, r, target, alpha):
    """Sparse Hessian L - (alpha/2) diag(T s^alpha) at r: the Jacobian's CSR, shifted."""
    L = curvature_jacobian(tri, r).sparse
    s = geometry.s_of_r(r, tri.geometry)
    L.setdiag(L.diagonal() - 0.5 * alpha * target * s**alpha)
    return L


def newton_solve(tri, r_init, target, alpha=2.0, tol=GRAD_TOL) -> PackingMetric:
    """Solve K_i = T_i s_i^alpha by damped Newton descent in u-coordinates.

    Each step solves H delta = -g by Jacobi-preconditioned CG to the relative
    residual eta = min(0.1, max|g|) (Eisenstat-Walker forcing); a breakdown,
    a non-finite step or a missed residual raises SolverError. In the flat
    case (Euclidean, alpha * target identically 0) H = L has the all-ones
    kernel: the solve runs against mean(g) - g, in range(L), and the step's
    mean is taken off, onto the slice sum(u) = const. The line search tries
    lam = 2^(1 - trial) down to 2^-40 and rejects a trial that leaves the
    coordinate domain, fails `geometry.admissible` or does not lower |g|^2
    by the factor 1 - 1e-4 lam. Each accepted step, with lam and its trial
    and CG iteration counts, is logged at DEBUG to "idcurv.potential".

    Raises ValueError for radii, alpha, a target or tol that break the input
    rules (the target is required, and tol must be positive and finite),
    AdmissibilityError for an inadmissible start, and ValueError for a target
    that Gauss-Bonnet rules out at every radius vector, sum(T s^alpha) being
    2 pi chi (Euclidean) or above it by the area (hyperbolic): by the signs
    of T, and at alpha = 0 by sum(T) itself, to a relative 1e-9 when
    Euclidean. Such a target drives the radii to zero, where the collapse
    would pass the gradient test, or runs Newton to MAX_NEWTON_ITERATIONS.
    """
    # lazy, as in curvature_jacobian: sparse.linalg adds ~10 MB RSS
    import scipy.sparse.linalg

    alpha, r = _finite_alpha(alpha), geometry._vertex_radii(tri, r_init)
    tol = _step_control("tol", tol)
    if target is None:
        raise ValueError("newton_solve requires a target curvature")
    target = np.broadcast_to(_finite_target(target, tri.vertex_count), r.shape).copy()
    if _first_positive(alpha, target) is not None:
        warnings.warn(
            "alpha * target is positive somewhere; the potential need not be convex "
            "and the solve may find a saddle or fail",
            stacklevel=2,
        )
    ok, bad = geometry.admissible(tri, r)
    if not ok:
        raise AdmissibilityError(f"initial metric is inadmissible (faces {bad})")
    # s^alpha > 0, so the signs of T bound the sign of sum(T s^alpha) (see the docstring)
    chi = euler_characteristic(tri)
    pos, neg = bool(np.any(target > 0.0)), bool(np.any(target < 0.0))
    if tri.geometry is Geometry.HYPERBOLIC:
        feasible, relation = pos or chi < 0, ">"
    else:
        feasible, relation = (pos if chi > 0 else neg if chi < 0 else pos == neg), "="
    if not feasible:
        raise ValueError(
            f"the target is infeasible at every radius vector: Gauss-Bonnet needs "
            f"sum(T s^alpha) {relation} 2 pi chi with chi = {chi}, "
            "which no target of these signs meets"
        )
    if alpha == 0.0:
        total, gauss_bonnet = float(np.sum(target)), 2.0 * np.pi * chi
        scale = abs(gauss_bonnet) + float(np.sum(np.abs(target)))
        feasible = (total > gauss_bonnet if tri.geometry is Geometry.HYPERBOLIC
                    else abs(total - gauss_bonnet) <= 1e-9 * scale)
        if not feasible:
            raise ValueError(
                f"the target is infeasible at every radius vector: with alpha = 0 "
                f"Gauss-Bonnet needs sum(T) {relation} 2 pi chi = {gauss_bonnet:.6g}, "
                f"and the target sums to {total:.6g}"
            )
    u = geometry.u_of_r(r, tri.geometry)
    singular = tri.geometry is Geometry.EUCLIDEAN and not np.any(alpha * target != 0.0)

    g = potential_gradient(tri, u, target, alpha)
    for iteration in range(MAX_NEWTON_ITERATIONS):
        norm = float(np.max(np.abs(g)))
        if norm < tol:
            return PackingMetric(geometry.r_of_u(u, tri.geometry), tri.geometry)
        H = _hessian(tri, geometry.r_of_u(u, tri.geometry), target, alpha)
        # sum(g) vanishes at a solution (Gauss-Bonnet); its rounding (~N eps) is in L's kernel
        b, eta, cg_steps = (g.mean() - g if singular else -g), min(0.1, norm), []
        with np.errstate(divide="ignore", invalid="ignore"):  # a breakdown divides by 0
            M = scipy.sparse.diags_array(1.0 / H.diagonal())
            delta, info = scipy.sparse.linalg.cg(H, b, rtol=eta, M=M, callback=cg_steps.append)
            residual, bound = np.linalg.norm(H @ delta - b), eta * np.linalg.norm(b)
        if not (info == 0 and np.all(np.isfinite(delta)) and residual <= bound):
            raise SolverError(f"linear solve failed at iteration {iteration}: "
                              f"CG info {info}, residual {residual:.3e}, bound {bound:.3e}")
        if singular:
            delta -= delta.mean()

        phi = float(g @ g)
        # below lam = 2^-40, 1 - 1e-4 lam rounds to 1: an unchanged |g|^2 would pass
        for trials in range(1, 42):
            lam = 2.0 ** (1 - trials)
            u_try = u + lam * delta
            try:
                r_try = geometry.r_of_u(u_try, tri.geometry)
            except DomainError:
                continue
            if geometry.admissible(tri, r_try)[0]:
                g_try = potential_gradient(tri, u_try, target, alpha)
                if float(g_try @ g_try) <= (1.0 - 1e-4 * lam) * phi:
                    break
        else:
            raise SolverError(f"line search stalled at gradient norm {norm:.3e}: "
                              "no trial step down to 2^-40 lowered |g|^2")
        u, g = u_try, g_try
        log.debug("newton iteration %d: max|g| %.3e, step %.3g after %d line-search trials, "
                  "%d CG iterations", iteration, norm, lam, trials, len(cg_steps))
    raise SolverError(
        f"no convergence in {MAX_NEWTON_ITERATIONS} iterations "
        f"(gradient norm {float(np.max(np.abs(g))):.3e})"
    )
