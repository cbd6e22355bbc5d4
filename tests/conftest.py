import numpy as np
import pytest

from idcurv import geometry as geometry_module
from idcurv import (
    Geometry,
    csaszar_torus,
    tetrahedron,
    admissible,
    curvature_jacobian,
    u_of_r,
    r_of_u,
    angle_deficits,
    corner_angles,
    connected_sum,
    grid_torus,
    average_curvature,
    curvature_field,
    flow_rhs,
)


@pytest.fixture
def tetra_euc():
    return tetrahedron()


@pytest.fixture
def tetra_hyp():
    return tetrahedron(geometry=Geometry.HYPERBOLIC)


@pytest.fixture
def csaszar_euc():
    return csaszar_torus()


@pytest.fixture
def csaszar_i2():
    return csaszar_torus(weight=2.0)


@pytest.fixture
def csaszar_hyp():
    return csaszar_torus(geometry=Geometry.HYPERBOLIC)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def angles_of_lengths(lengths, geom, extended=False, degenerate=None):
    """(F, 3) corner angles of a (F, 3) length array, angle c of a row at the
    corner opposite length c: the gaps of each row's cycled columns, through
    the angle core that corner_angles runs on the gap plan's columns."""
    fl = np.asarray(lengths, dtype=float)
    g = geometry_module._gaps(fl, fl[:, geometry_module._NEXT], fl[:, geometry_module._PREV])
    return geometry_module._gap_angles(g, geom, extended, degenerate)


def sample_admissible(tri, rng, spread=0.4, scale=1.0, tries=500):
    """Rejection-sample a random admissible radii vector near uniform."""
    for _ in range(tries):
        r = scale * np.exp(rng.uniform(-spread, spread, tri.vertex_count))
        if admissible(tri, r)[0]:
            return r
    raise AssertionError("could not sample an admissible metric")


def fd_jacobian(tri, r, step=1e-6):
    """Finite-difference d K / d u, central differences."""
    u0 = u_of_r(r, tri.geometry)
    n = tri.vertex_count
    J = np.empty((n, n))
    for j in range(n):
        up = u0.copy()
        um = u0.copy()
        up[j] += step
        um[j] -= step
        Kp = angle_deficits(tri, r_of_u(up, tri.geometry))
        Km = angle_deficits(tri, r_of_u(um, tri.geometry))
        J[:, j] = (Kp - Km) / (2.0 * step)
    return J


def fd_jacobian_in_r(tri, r, step=1e-5):
    """d K / d u from central differences of the incident angle sums in r.

    Each column steps r_j by step * r_j and scales by dr/du = r/2 (Euclidean)
    or sinh(r)/2 (hyperbolic). Differencing the angle sums rather than K avoids
    the cancellation in 2 pi - sum, and stepping r rather than u still works
    where u = ln tanh^2(r/2) rounds to a few ulps of 0 (large hyperbolic r).
    """
    def angle_sums(rr):
        return np.bincount(
            tri.faces.ravel(),
            weights=corner_angles(tri, rr).ravel(),
            minlength=tri.vertex_count,
        )

    hyperbolic = tri.geometry is Geometry.HYPERBOLIC
    dr_du = np.sinh(r) / 2.0 if hyperbolic else r / 2.0
    J = np.empty((tri.vertex_count, tri.vertex_count))
    for j in range(tri.vertex_count):
        h = step * r[j]
        up = r.copy()
        um = r.copy()
        up[j] += h
        um[j] -= h
        J[:, j] = -(angle_sums(up) - angle_sums(um)) / (2.0 * h) * dr_du[j]
    return J


def assert_rowwise_close(L, J, rtol):
    """Every row of L within rtol of J, relative to the largest entry of J's row."""
    err = np.abs(L - J).max(axis=1)
    scale = np.abs(J).max(axis=1)
    assert np.all(err <= rtol * scale), (err / scale).max()


def genus_two(geometry=Geometry.EUCLIDEAN):
    """Genus-2 surface from two 6x6 grid tori: V=69, E=213, F=142, chi=-2."""
    return connected_sum(grid_torus(6, 6, geometry=geometry), grid_torus(6, 6, geometry=geometry))


def rk4_reference(tri, r, spec, h):
    """The flows' reference: the textbook fixed-step RK4 loop over flow_rhs.

    Steps h (the last one clipped at spec.t_max) until max|T - K/s^alpha| <
    spec.tol at the current state, or until t reaches spec.t_max. Returns
    (t, r, steps).
    """
    alpha = spec.alpha

    def max_deviation(r):
        R = curvature_field(tri, r, alpha=alpha, extended=spec.kind.extended).R
        target = average_curvature(tri, r, alpha) if spec.target is None else spec.target
        return np.max(np.abs(target - R))

    r = np.asarray(r, dtype=float)
    t, steps = 0.0, 0
    while max_deviation(r) >= spec.tol and t < spec.t_max * (1.0 - 1e-15):
        dt = min(h, spec.t_max - t)
        k1 = flow_rhs(tri, r, spec)
        k2 = flow_rhs(tri, r + (0.5 * dt) * k1, spec)
        k3 = flow_rhs(tri, r + (0.5 * dt) * k2, spec)
        k4 = flow_rhs(tri, r + dt * k3, spec)
        r = r + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += dt
        steps += 1
    return t, r, steps
