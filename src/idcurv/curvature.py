"""Vertex curvatures, Gauss-Bonnet checks, the curvature Jacobian, Laplacians.

Curvature conventions: K_i is the angle deficit 2 pi minus the incident corner
angles; R_i = K_i / s_i^2; the alpha variant divides by s_i^alpha instead.

The Jacobian L = dK/du is taken in u_i = ln s_i^2 coordinates, in which it is
symmetric: positive semidefinite with kernel spanned by the all-ones vector in
the Euclidean case, positive definite in the hyperbolic case. It is assembled
as a sparse CSR matrix from one weight per edge and one diagonal term per
corner, both closed forms shared by the two geometries, so it is exactly
symmetric (about 7N stored entries); the full Laplacian spectrum is taken from
its band after a bandwidth-reducing reordering, so no N x N copy of it is made.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import geometry
from .errors import ConditioningError
from .surface import Geometry, euler_characteristic

TWO_PI = 2.0 * np.pi
JACOBIAN_SLACK = 1e-10  # minimum relative triangle slack for derivative assembly


@dataclasses.dataclass(frozen=True)
class CurvatureField:
    """Per-vertex curvatures; extended=True means extended angles were used."""

    K: np.ndarray
    R: np.ndarray
    R_alpha: np.ndarray
    alpha: float
    extended: bool


@dataclasses.dataclass(frozen=True)
class CurvatureJacobian:
    """L = dK/du as a `scipy.sparse.csr_array`, exactly symmetric: one weight per
    edge and one diagonal term per corner summed in.

    `matrix` is a dense copy of `sparse`, O(N^2) in time and memory, meant for
    small meshes and tests.
    """

    sparse: object  # scipy.sparse.csr_array
    geometry: Geometry

    @property
    def matrix(self) -> np.ndarray:
        """Dense N x N copy of `sparse`; O(N^2), for small meshes and tests."""
        return self.sparse.toarray()


def angle_deficits(tri, r, extended=False, degenerate=None):
    """K_i = 2 pi - sum of incident corner angles, as a plain array.

    If `degenerate` is given, a (F,) bool array, the evaluation's per-face
    degeneracy mask (CornerAngles.degenerate) is written into it.
    """
    ca = geometry.corner_angles(tri, r, extended=extended)
    if degenerate is not None:
        degenerate[:] = ca.degenerate
    incident = np.bincount(
        tri.faces.ravel(), weights=ca.angles.ravel(), minlength=tri.vertex_count
    )
    return TWO_PI - incident


def curvature_field(tri, r, alpha=2.0, extended=False) -> CurvatureField:
    """K, R = K / s^2 and R_alpha = K / s^alpha at radii r."""
    r = np.asarray(r, dtype=float)
    K = angle_deficits(tri, r, extended=extended)
    s = geometry.s_of_r(r, tri.geometry)
    return CurvatureField(
        K=K,
        R=K / s**2,
        R_alpha=K / s**alpha,
        alpha=float(alpha),
        extended=bool(extended),
    )


# bench/workloads.py calls the field by its former name; drop this alias once it
# calls curvature_field
curvature = curvature_field


def average_curvature(tri, r, alpha=2.0) -> float:
    """2 pi chi / sum(r^alpha) (alpha != 0) or 2 pi chi / N (alpha = 0).

    Defined for Euclidean surfaces only.
    """
    if tri.geometry is not Geometry.EUCLIDEAN:
        raise ValueError("average curvature is defined for Euclidean surfaces only")
    chi = euler_characteristic(tri)
    if alpha == 0.0:
        return TWO_PI * chi / tri.vertex_count
    r = np.asarray(r, dtype=float)
    return TWO_PI * chi / float((r**alpha).sum())


def gauss_bonnet_residual(tri, r, extended=False) -> float:
    """sum K - 2 pi chi, minus the total area in the hyperbolic case."""
    K = angle_deficits(tri, r, extended=extended)
    residual = float(np.sum(K)) - TWO_PI * euler_characteristic(tri)
    if tri.geometry is Geometry.HYPERBOLIC:
        residual -= geometry.total_area(tri, r, extended=extended)
    return residual


# -- Jacobian ---------------------------------------------------------------------


def curvature_jacobian(tri, r) -> CurvatureJacobian:
    """L = dK/du from two closed forms per face corner (u = ln s^2), as sparse CSR.

    For corner a of a face with neighbours b = a+1 and c = a+2, m(l) = l
    (Euclidean) or sinh l (hyperbolic), and e_ab = d l_ab / d u_a, the
    law-of-cosines derivatives and the law of sines give
      d theta_a/d u_b = d theta_b/d u_a = (e_ac - e_ab cos theta_a) / (m(l_ab) sin theta_a),
      d theta_a/d u_a = -(e_ab cot theta_b / m(l_ab) + e_ac cot theta_c / m(l_ac)).
    The first is taken once per face edge and serves both (a, b) and (b, a),
    so L is exactly symmetric. The second is not derived from the first
    through a row-sum identity: at large hyperbolic radii, cos theta_a rounds
    to 1 and the first cancels.

    Raises ConditioningError when a face is within JACOBIAN_SLACK of
    degeneracy or when a face's derivatives are not finite.
    """
    # imported here, not at module top: it adds ~20 MB RSS to flow-only CLI runs
    import scipy.sparse

    r = np.asarray(r, dtype=float)
    fl = geometry.face_lengths(tri, r)
    slack = geometry.triangle_slack(fl)
    if np.min(slack) <= JACOBIAN_SLACK:
        worst = int(np.argmin(slack))
        raise ConditioningError(
            f"face {worst} has relative slack {slack[worst]:.3e}; "
            "angle derivatives are unreliable this close to degeneracy"
        )
    theta = geometry.corner_angles(tri, r).angles
    # column c of a face array belongs to corner a = c; fl[:, prv] is l_ab, fl[:, nxt] is l_ac
    nxt, prv = geometry._NEXT, geometry._PREV
    fw = tri.face_weights()
    ra = r[tri.faces]
    with np.errstate(all="ignore"):
        if tri.geometry is Geometry.HYPERBOLIC:
            m = np.sinh(fl)
            sh, ch = np.sinh(ra), np.cosh(ra)
            e_ab = sh * (sh * ch[:, nxt] + fw[:, prv] * ch * sh[:, nxt]) / (2.0 * m[:, prv])
            e_ac = sh * (sh * ch[:, prv] + fw[:, nxt] * ch * sh[:, prv]) / (2.0 * m[:, nxt])
        else:
            m = fl
            e_ab = ra * (ra + fw[:, prv] * ra[:, nxt]) / (2.0 * m[:, prv])
            e_ac = ra * (ra + fw[:, nxt] * ra[:, prv]) / (2.0 * m[:, nxt])
        cos, sin = np.cos(theta), np.sin(theta)
        cot = cos / sin
        off = (e_ac - e_ab * cos) / (m[:, prv] * sin)
        diag = -(e_ab * cot[:, nxt] / m[:, prv] + e_ac * cot[:, prv] / m[:, nxt])
    finite = np.isfinite(off).all(axis=1) & np.isfinite(diag).all(axis=1)
    if not finite.all():
        worst = int(np.argmin(finite))
        raise ConditioningError(
            f"face {worst} has a non-finite angle derivative; its angles or "
            "hyperbolic side terms underflow or overflow at these radii"
        )

    N = tri.vertex_count
    # off[:, c] belongs to edge ab, the edge opposite corner c + 2
    edge = tri.face_edges[:, prv].ravel()
    weight = np.bincount(edge, weights=off.ravel(), minlength=len(tri.edges))
    i, j, n = tri.edges[:, 0], tri.edges[:, 1], np.arange(N)
    rows, cols = np.concatenate([i, j, n]), np.concatenate([j, i, n])
    data = -np.concatenate(
        [weight, weight, np.bincount(tri.faces.ravel(), weights=diag.ravel(), minlength=N)]
    )
    L = scipy.sparse.coo_array((data, (rows, cols)), shape=(N, N)).tocsr()
    return CurvatureJacobian(sparse=L, geometry=tri.geometry)


# -- Laplacian --------------------------------------------------------------------


def laplacian_apply(tri, r, f, alpha=2.0):
    """(Delta f)_i = (1 / s_i^alpha) sum_j (-L_ij) f_j.

    L is the curvature Jacobian in u = ln s^2. Euclidean surfaces only.
    """
    if tri.geometry is not Geometry.EUCLIDEAN:
        raise ValueError("the Laplacian here is defined for Euclidean surfaces only")
    r = np.asarray(r, dtype=float)
    f = np.asarray(f, dtype=float)
    L = curvature_jacobian(tri, r).sparse
    s = geometry.s_of_r(r, tri.geometry)
    return -(L @ f) / s**alpha


def laplacian_spectrum(tri, r, return_vectors=False):
    """Eigenvalues of Sigma^{-1/2} L Sigma^{-1/2}, Sigma = diag(s^2), ascending.

    Euclidean surfaces only: the smallest eigenvalue is ~0 with eigenvector
    proportional to r, the rest are positive. With return_vectors=True the
    orthonormal eigenvectors come back too, as the columns of an N x N array.

    The matrix is reordered by reverse Cuthill-McKee and handed to LAPACK in
    lower band storage, so the cost is O(N b) memory and O(N^2 b) time, b
    being the half-bandwidth after reordering: about 3 sqrt(N) on n x n grid
    tori, N - 1 when every vertex neighbours every other (the tetrahedron,
    the Csaszar torus). Eigenvectors take N^2 memory and O(N^3) time.
    """
    if tri.geometry is not Geometry.EUCLIDEAN:
        raise ValueError("the Laplacian spectrum here is Euclidean only")
    # imported here, like scipy.sparse in curvature_jacobian, so flow and CLI
    # processes that take no spectrum never load them
    import scipy.linalg
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    r = np.asarray(r, dtype=float)
    L = curvature_jacobian(tri, r).sparse
    s = geometry.s_of_r(r, tri.geometry)
    perm = reverse_cuthill_mckee(L, symmetric_mode=True)
    # entry (p, q) of L moves to (position[p], position[q]) of the reordered matrix
    position = np.empty_like(perm)
    position[perm] = np.arange(len(perm))
    entries = L.tocoo()
    row, col = position[entries.row], position[entries.col]
    # L is exactly symmetric, and LAPACK reads only the lower triangle
    lower = row >= col
    p, q = entries.row[lower], entries.col[lower]
    row, col, data = row[lower], col[lower], entries.data[lower] / (s[p] * s[q])
    # LAPACK lower band storage: band[i - j, j] = A[i, j]; Fortran order spares a copy
    band = np.zeros((int(np.max(row - col)) + 1, tri.vertex_count), order="F")
    band[row - col, col] = data
    if not return_vectors:
        return scipy.linalg.eigvals_banded(band, lower=True, overwrite_a_band=True)
    values, vectors = scipy.linalg.eig_banded(band, lower=True, overwrite_a_band=True)
    out = np.empty_like(vectors)
    out[perm] = vectors
    return values, out
