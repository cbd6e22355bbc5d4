"""Ricci potential: path integration in u-coordinates, Newton, convexity.

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

import dataclasses
import logging
import warnings

import numpy as np

from . import geometry
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
    average curvature.
    """
    r = geometry.r_of_u(np.asarray(u, dtype=float), tri.geometry)
    K = angle_deficits(tri, r, extended=extended)
    s = geometry.s_of_r(r, tri.geometry)
    T = average_curvature(tri, r, alpha) if target is None else np.asarray(target, dtype=float)
    return K - T * s**alpha


def _segment_integral(tri, ua, ub, target, alpha, extended):
    """Integral of the 1-form along ua->ub by QUADPACK's adaptive Gauss-Kronrod rule.

    The extension's derivative kinks at the admissibility boundary are
    localized by the adaptive bisection.
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
    u0 = np.asarray(u0, dtype=float)
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
    """Sparse Hessian of the potential at r for a fixed target: L - (alpha/2) diag(T s^alpha)."""
    import scipy.sparse  # lazy, as in curvature_jacobian

    L = curvature_jacobian(tri, r).sparse
    s = geometry.s_of_r(r, tri.geometry)
    T = np.broadcast_to(np.asarray(target, dtype=float), (tri.vertex_count,))
    return L - scipy.sparse.diags_array(0.5 * alpha * T * s**alpha)


def newton_solve(tri, r_init, target, alpha=2.0, tol=GRAD_TOL,
                 max_iterations=MAX_NEWTON_ITERATIONS) -> PackingMetric:
    """Solve K_i = T_i s_i^alpha by damped Newton descent in u-coordinates.

    Each step solves with a sparse LU factorization (`splu`) of the sparse
    Hessian. The Euclidean problem with alpha * target identically zero has
    the scale direction in the Hessian kernel; those steps pin u_0, solve the
    rest, and move along the kernel onto the slice sum(u) = const. A
    line-search trial is rejected when it leaves the coordinate domain, fails
    `geometry.admissible` or does not lower |g|^2 enough. Every accepted step
    is logged at DEBUG level to "idcurv.potential".

    Raises AdmissibilityError for an inadmissible start, and ValueError for a
    target whose signs no radii can meet under Gauss-Bonnet: sum(T s^alpha)
    = 2 pi chi (Euclidean) or > 2 pi chi (hyperbolic, the excess being the
    area). Without that refusal such a target drives the radii to zero,
    where |K - T s^alpha| falls below `tol` and the collapse would pass as a
    solution.
    """
    # imported here, not at module top, as in curvature_jacobian; sparse.linalg
    # adds ~10 MB RSS on top of scipy.sparse
    import scipy.sparse.linalg

    target = np.broadcast_to(np.asarray(target, dtype=float), (tri.vertex_count,)).copy()
    alpha = float(alpha)
    if not (np.all(np.isfinite(target)) and np.isfinite(alpha)):
        raise ValueError("target and alpha must be finite")
    if np.any(alpha * target > 0.0):
        warnings.warn(
            "alpha * target is positive somewhere; the potential need not be convex "
            "and the solve may find a saddle or fail",
            stacklevel=2,
        )
    r = np.asarray(r_init, dtype=float)
    ok, bad = geometry.admissible(tri, r)
    if not ok:
        raise AdmissibilityError(f"initial metric is inadmissible (faces {bad})")
    # Gauss-Bonnet: sum(T s^alpha) = 2 pi chi (Euclidean) or 2 pi chi + area > 2 pi chi
    # (hyperbolic) at a solution, and s^alpha > 0, so the signs of T bound the sum's sign
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
    u = geometry.u_of_r(r, tri.geometry)
    singular = tri.geometry is Geometry.EUCLIDEAN and not np.any(alpha * target != 0.0)

    g = potential_gradient(tri, u, target, alpha)
    for iteration in range(max_iterations):
        norm = float(np.max(np.abs(g)))
        if norm < tol:
            return PackingMetric(geometry.r_of_u(u, tri.geometry), tri.geometry)
        H = _hessian(tri, geometry.r_of_u(u, tri.geometry), target, alpha).tocsc()
        rhs = -g
        if singular:
            # the kernel is the all-ones direction: pin u_0. sum(g) vanishes where a
            # solution exists (Gauss-Bonnet); taking off its mean spreads its rounding
            # (~N eps) over all vertices instead of piling it up at vertex 0
            H, rhs = H[1:, 1:], (g.mean() - g)[1:]
        try:
            lu = scipy.sparse.linalg.splu(H, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:  # "Factor is exactly singular"
            raise SolverError(f"singular Hessian: {exc}") from exc
        delta = lu.solve(rhs)
        if singular:
            # delta_0 = 0; move along the kernel onto the slice sum(u) = const
            delta = np.append(0.0, delta)
            delta -= delta.mean()

        phi = float(g @ g)
        lam = 1.0
        trials = 0
        accepted = False
        while lam >= 2.0**-60:
            trials += 1
            u_try = u + lam * delta
            try:
                r_try = geometry.r_of_u(u_try, tri.geometry)
            except DomainError:
                r_try = None
            if r_try is not None and geometry.admissible(tri, r_try)[0]:
                g_try = potential_gradient(tri, u_try, target, alpha)
                if float(g_try @ g_try) <= (1.0 - 1e-4 * lam) * phi:
                    u, g = u_try, g_try
                    accepted = True
                    break
            lam *= 0.5
        if not accepted:
            raise SolverError(
                f"line search stalled at gradient norm {norm:.3e}; "
                "the iterate is pinned near the admissibility boundary"
            )
        log.debug(
            "newton iteration %d: max|g| %.3e, step %.3g after %d line-search trials",
            iteration, norm, lam, trials,
        )
    raise SolverError(
        f"no convergence in {max_iterations} iterations "
        f"(gradient norm {float(np.max(np.abs(g))):.3e})"
    )


# -- convexity diagnostics ------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ConvexityReport:
    eigenvalues: np.ndarray
    definiteness: str
    kernel_alignment: float | None


def convexity_report(tri, r, target, alpha=2.0) -> ConvexityReport:
    """Eigen-structure of the potential Hessian at r for a fixed target."""
    r = np.asarray(r, dtype=float)
    # exactly symmetric; eigh reads its lower triangle
    H = _hessian(tri, r, target, alpha).toarray()
    values, vectors = np.linalg.eigh(H)
    scale = max(1.0, float(np.max(np.abs(values))))
    tol = 1e-9 * scale
    if np.all(values > tol):
        definiteness = "positive definite"
    elif np.all(values >= -tol):
        definiteness = "positive semidefinite"
    elif np.all(values < -tol):
        definiteness = "negative definite"
    elif np.all(values <= tol):
        definiteness = "negative semidefinite"
    else:
        definiteness = "indefinite"

    kernel_alignment = None
    small = np.abs(values) <= tol
    if np.any(small):
        v = vectors[:, int(np.argmin(np.abs(values)))]
        ones = np.ones(tri.vertex_count) / np.sqrt(tri.vertex_count)
        kernel_alignment = float(np.abs(v @ ones))
    return ConvexityReport(
        eigenvalues=values, definiteness=definiteness, kernel_alignment=kernel_alignment
    )
