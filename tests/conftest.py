import numpy as np
import pytest

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
            weights=corner_angles(tri, rr).angles.ravel(),
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
