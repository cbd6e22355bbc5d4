"""Vertex curvatures, Gauss-Bonnet checks, the curvature Jacobian, Laplacians.

Curvature conventions: K_i is the angle deficit 2 pi minus the incident corner
angles; R_i = K_i / s_i^2; the alpha variant divides by s_i^alpha instead.

The Jacobian L = dK/du is taken in u_i = ln s_i^2 coordinates, in which it is
symmetric: positive semidefinite with kernel spanned by the all-ones vector in
the Euclidean case, positive definite in the hyperbolic case. It is assembled
as a sparse CSR matrix from one 3x3 block per face (about 7N stored entries);
the full Laplacian spectrum is taken from its band after a bandwidth-reducing
reordering, so no N x N copy of it is made.
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
    """L = dK/du as a `scipy.sparse.csr_array` with one 3x3 block per face summed in.

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


def _angle_length_derivatives(fl, theta, hyperbolic):
    """(F, 3, 3) array D with D[f, a, e] = d theta_a / d l_e for each face.

    Law-of-cosines differentiation: with side a opposite angle A,
      dA/da = a / (b c sin A),  dA/db = -a cos C / (b c sin A),
    replacing each side by its sinh in the hyperbolic case.
    """
    m = np.sinh(fl) if hyperbolic else fl
    sin_t = np.sin(theta)
    cos_t = np.cos(theta)
    F = fl.shape[0]
    D = np.empty((F, 3, 3))
    for a in range(3):
        b, c = (a + 1) % 3, (a + 2) % 3
        denom = m[:, b] * m[:, c] * sin_t[:, a]
        D[:, a, a] = m[:, a] / denom
        D[:, a, b] = -m[:, a] * cos_t[:, c] / denom
        D[:, a, c] = -m[:, a] * cos_t[:, b] / denom
    return D


def _length_u_derivatives(tri, r, fl, hyperbolic):
    """(F, 3, 3) array E with E[f, e, v] = d l_e / d u_v (zero when v == e)."""
    F = fl.shape[0]
    fw = tri.face_weights()
    E = np.zeros((F, 3, 3))
    if hyperbolic:
        sh = np.sinh(r)
        ch = np.cosh(r)
        sh_l = np.sinh(fl)
    for e in range(3):
        for v in range(3):
            if v == e:
                continue
            w = 3 - e - v
            iv = tri.faces[:, v]
            iw = tri.faces[:, w]
            if hyperbolic:
                E[:, e, v] = (
                    sh[iv] * (sh[iv] * ch[iw] + fw[:, e] * ch[iv] * sh[iw])
                ) / (2.0 * sh_l[:, e])
            else:
                E[:, e, v] = r[iv] * (r[iv] + r[iw] * fw[:, e]) / (2.0 * fl[:, e])
    return E


def curvature_jacobian(tri, r) -> CurvatureJacobian:
    """L = dK/du assembled analytically face by face (u = ln s^2), as sparse CSR.

    Raises ConditioningError when a face is within JACOBIAN_SLACK of
    degeneracy or when a face block is not finite.
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
    hyperbolic = tri.geometry is Geometry.HYPERBOLIC
    theta = geometry.corner_angles(tri, r).angles
    with np.errstate(all="ignore"):
        D = _angle_length_derivatives(fl, theta, hyperbolic)
        E = _length_u_derivatives(tri, r, fl, hyperbolic)
        per_face = np.einsum("fae,fev->fav", D, E)
    finite = np.isfinite(per_face).all(axis=(1, 2))
    if not finite.all():
        worst = int(np.argmin(finite))
        raise ConditioningError(
            f"face {worst} has a non-finite angle derivative; its angles or "
            "hyperbolic side terms underflow or overflow at these radii"
        )

    N = tri.vertex_count
    F = len(tri.faces)
    rows = np.broadcast_to(tri.faces[:, :, None], (F, 3, 3)).ravel()
    cols = np.broadcast_to(tri.faces[:, None, :], (F, 3, 3)).ravel()
    # COO -> CSR sums the duplicate (row, col) pairs of neighbouring faces
    L = scipy.sparse.coo_array((-per_face.ravel(), (rows, cols)), shape=(N, N)).tocsr()
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
    import scipy.sparse
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    r = np.asarray(r, dtype=float)
    L = curvature_jacobian(tri, r).sparse
    s = geometry.s_of_r(r, tri.geometry)
    scale = scipy.sparse.diags_array(1.0 / s)
    lam = scale @ L @ scale
    sym = (0.5 * (lam + lam.T)).tocsr()
    perm = reverse_cuthill_mckee(sym, symmetric_mode=True)
    # entry (p, q) of sym moves to (position[p], position[q]) of the reordered matrix
    position = np.empty_like(perm)
    position[perm] = np.arange(len(perm))
    entries = sym.tocoo()
    row, col = position[entries.row], position[entries.col]
    lower = row >= col
    row, col, data = row[lower], col[lower], entries.data[lower]
    # LAPACK lower band storage: band[i - j, j] = A[i, j]; Fortran order spares a copy
    band = np.zeros((int(np.max(row - col)) + 1, tri.vertex_count), order="F")
    band[row - col, col] = data
    if not return_vectors:
        return scipy.linalg.eigvals_banded(band, lower=True, overwrite_a_band=True)
    values, vectors = scipy.linalg.eig_banded(band, lower=True, overwrite_a_band=True)
    out = np.empty_like(vectors)
    out[perm] = vectors
    return values, out
