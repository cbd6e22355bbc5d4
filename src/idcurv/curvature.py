"""Vertex curvatures, Gauss-Bonnet checks, the curvature Jacobian, its spectrum.

Curvature conventions: K_i is the angle deficit 2 pi minus the incident corner
angles; the alpha-curvature is R_i = K_i / s_i^alpha, with alpha = 2 unless
given (s = r Euclidean, tanh(r/2) hyperbolic).

The Jacobian L = dK/du is taken in u_i = ln s_i^2 coordinates, in which it is
symmetric: positive semidefinite with kernel spanned by the all-ones vector in
the Euclidean case, positive definite in the hyperbolic case. It reads the
faces through the triangulation's gap plan, as the angles do, and is assembled
as a sparse CSR matrix from one weight per edge and one diagonal term per
corner, each one closed form for both geometries, so it is exactly symmetric
(about 7N stored entries). The full Laplacian spectrum is taken from its band
after the narrower of two reorderings (`_band_order`), so no N x N copy is made.
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
    """Per-vertex curvatures K and R = K / s^alpha; extended=True means
    extended angles were used."""

    K: np.ndarray
    R: np.ndarray
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

    No face mask is built unless asked for: a given (F,) bool array
    `degenerate` is overwritten with it, True where a triangle inequality
    fails (only possible with `extended`) and False elsewhere.
    """
    angles = geometry.corner_angles(tri, r, extended, degenerate)
    K = np.bincount(tri.faces.ravel(), weights=angles.ravel(), minlength=tri.vertex_count)
    return np.subtract(TWO_PI, K, out=K)


def _finite_alpha(alpha) -> float:
    """alpha as a float, refused with ValueError unless finite."""
    if not np.isfinite(alpha := float(alpha)):
        raise ValueError(f"alpha must be finite, not {alpha}")
    return alpha


def _step_control(name, value) -> float:
    """value as a float, refused with ValueError unless finite and positive:
    the rule of a step, a horizon or a tolerance."""
    if not (np.isfinite(value := float(value)) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite")
    return value


def _first_positive(alpha, target):
    """The first vertex where alpha * target > 0 (0 for a scalar target), the
    sign at which the potential need not be convex, or None; the running
    average (target None) has none."""
    positive = np.atleast_1d(0.0 if target is None else alpha * target) > 0.0
    return int(np.argmax(positive)) if positive.any() else None


def _finite_target(target, n=None):
    """None, or target as a float array, refused with ValueError unless
    finite and, given a vertex count n, a scalar or one value per vertex."""
    if target is not None:
        target = np.asarray(target, dtype=float)
        if not np.isfinite(target).all():
            raise ValueError("target must be finite")
        if n is not None and target.ndim and target.shape != (n,):
            raise ValueError("target length does not match the vertex count")
    return target


def curvature_field(tri, r, alpha=2.0, extended=False) -> CurvatureField:
    """K and the alpha-curvature R = K / s^alpha at radii r."""
    alpha = _finite_alpha(alpha)
    r = geometry._vertex_radii(tri, r)
    K = angle_deficits(tri, r, extended=extended)
    s = geometry.s_of_r(r, tri.geometry)
    return CurvatureField(K=K, R=K / s**alpha, alpha=alpha, extended=bool(extended))


# bench/workloads.py calls the field by its former name; drop this alias once it
# calls curvature_field
curvature = curvature_field


def average_curvature(tri, r, alpha=2.0) -> float:
    """2 pi chi / sum(r^alpha), which is 2 pi chi / N at alpha = 0.

    Defined for Euclidean surfaces only, at finite positive radii.
    """
    if tri.geometry is not Geometry.EUCLIDEAN:
        raise ValueError("average curvature is defined for Euclidean surfaces only")
    alpha = _finite_alpha(alpha)
    r = geometry._vertex_radii(tri, r)
    return TWO_PI * euler_characteristic(tri) / float((r**alpha).sum())


def gauss_bonnet_residual(tri, r, extended=False) -> float:
    """sum K - 2 pi chi, minus the total area in the hyperbolic case."""
    r = geometry._vertex_radii(tri, r)
    K = angle_deficits(tri, r, extended=extended)
    residual = float(np.sum(K)) - TWO_PI * euler_characteristic(tri)
    if tri.geometry is Geometry.HYPERBOLIC:
        residual -= geometry.total_area(tri, r, extended=extended)
    return residual


# -- Jacobian ---------------------------------------------------------------------


def curvature_jacobian(tri, r) -> CurvatureJacobian:
    """L = dK/du from two closed forms per face corner (u = ln s^2), as sparse CSR.

    At corner a of a face with neighbours b = a+1 and c = a+2, one gather of
    the edge lengths by tri.gap_plan gives l_bc, l_ac and l_ab, from which the
    gaps, the slack and the angles come; its last two layers, the edges ac
    and ab, give m(l) and I. With (S, C, m) = (r, 1, l) (Euclidean) or (sinh r, cosh r, sinh l)
    (hyperbolic), e_ab = d l_ab / d u_a = S_a (S_a C_b + I_ab C_a S_b) / (2 m(l_ab))
    in both geometries, and the law-of-cosines derivatives and the law of sines give
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

    off, diag = _corner_derivatives(tri, np.asarray(r, dtype=float))
    N = tri.vertex_count
    # off[:, c] belongs to edge ab, the edge opposite corner c + 2
    weight = np.bincount(tri.gap_plan[2].ravel(), weights=off.ravel(), minlength=len(tri.edges))
    i, j, n = tri.edges[:, 0], tri.edges[:, 1], np.arange(N)
    rows, cols = np.concatenate([i, j, n]), np.concatenate([j, i, n])
    data = -np.concatenate(
        [weight, weight, np.bincount(tri.faces.ravel(), weights=diag.ravel(), minlength=N)]
    )
    L = scipy.sparse.coo_array((data, (rows, cols)), shape=(N, N)).tocsr()
    return CurvatureJacobian(sparse=L, geometry=tri.geometry)


def _corner_derivatives(tri, r):
    """(F, 3) d theta_a/d u_b and d theta_a/d u_a of every corner a (see
    curvature_jacobian); only these two outlive the call."""
    lengths = geometry.edge_lengths(tri, r)
    g = geometry._gaps(*lengths[tri.gap_plan])
    slack = geometry._relative_slack(g)
    if np.min(slack) <= JACOBIAN_SLACK:
        worst = int(np.argmin(slack))
        raise ConditioningError(
            f"face {worst} has relative slack {slack[worst]:.3e}; "
            "angle derivatives are unreliable this close to degeneracy"
        )
    theta = geometry._gap_angles(g, tri.geometry, False)
    # column c of a face array belongs to corner a = c, so S[:, nxt] is S_b and S[:, prv]
    # is S_c; the Euclidean C is one row of ones, and multiplying by it is exact
    nxt, prv = geometry._NEXT, geometry._PREV
    if tri.geometry is Geometry.HYPERBOLIC:
        S, C, m = np.sinh(r)[tri.faces], np.cosh(r)[tri.faces], np.sinh(lengths)
    else:
        S, C, m = r[tri.faces], np.ones((1, 3)), lengths
    # edges ac and ab of corner a; I is gathered where used, so fewer arrays are held
    ac, ab = tri.gap_plan[1], tri.gap_plan[2]
    m_ac, m_ab = m[ac], m[ab]
    with np.errstate(all="ignore"):
        e_ab = S * (S * C[:, nxt] + tri.weights[ab] * C * S[:, nxt]) / (2.0 * m_ab)
        e_ac = S * (S * C[:, prv] + tri.weights[ac] * C * S[:, prv]) / (2.0 * m_ac)
        cos, sin = np.cos(theta), np.sin(theta)
        cot = cos / sin
        off = (e_ac - e_ab * cos) / (m_ab * sin)
        diag = -(e_ab * cot[:, nxt] / m_ab + e_ac * cot[:, prv] / m_ac)
    finite = np.isfinite(off).all(axis=1) & np.isfinite(diag).all(axis=1)
    if not finite.all():
        worst = int(np.argmin(finite))
        raise ConditioningError(
            f"face {worst} has a non-finite angle derivative; its angles or "
            "hyperbolic side terms underflow or overflow at these radii"
        )
    return off, diag


# -- Laplacian --------------------------------------------------------------------


def laplacian_spectrum(tri, r, return_vectors=False):
    """Eigenvalues of Sigma^{-1/2} L Sigma^{-1/2}, Sigma = diag(s^2), ascending.

    Euclidean surfaces only: the smallest eigenvalue is ~0 with eigenvector
    proportional to r, the rest are positive. With return_vectors=True the
    orthonormal eigenvectors come back too, as the columns of an N x N array.

    The matrix is reordered by `_band_order` and handed to LAPACK in lower
    band storage, so the cost is O(N b) memory and O(N^2 b) time, b being
    the half-bandwidth after reordering: about 2 min(n, m) on n x m grid tori
    (levels grown from a non-contractible loop; reverse Cuthill-McKee gives
    3 min(n, m)), N - 1 when every vertex neighbours every other (the
    tetrahedron, the Csaszar torus). Eigenvectors take N^2 memory and O(N^3)
    time.
    """
    if tri.geometry is not Geometry.EUCLIDEAN:
        raise ValueError("the Laplacian spectrum here is Euclidean only")
    # imported here, like scipy.sparse in curvature_jacobian, so flow and CLI
    # processes that take no spectrum never load it
    import scipy.linalg

    r = np.asarray(r, dtype=float)
    L = curvature_jacobian(tri, r).sparse
    s = geometry.s_of_r(r, tri.geometry)
    perm = _band_order(tri, L)
    # entry (p, q) of L moves to (position[p], position[q]) of the reordered matrix
    position = _inverse(perm)
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


def _inverse(perm):
    """position[perm[k]] = k: where each vertex sits in the ordering perm."""
    position = np.empty_like(perm)
    position[perm] = np.arange(len(perm))
    return position


def _half_bandwidth(tri, perm):
    """max |position[i] - position[j]| over the edges {i, j} of tri."""
    ends = _inverse(perm)[tri.edge_ends]
    return int(np.abs(ends[0] - ends[1]).max())


def _band_order(tri, L):
    """The narrower, by half-bandwidth, of two vertex orderings of L.

    One is reverse Cuthill-McKee, whose levels grow from one vertex; the
    other, on surfaces with chi <= 0, grows them from a short
    non-contractible loop (`_loop_levels`). Neither wins everywhere (RCM is
    narrower on refined genus-2 surfaces), so both are measured, and RCM is
    kept on a tie. Together they take a few milliseconds at N = 2500,
    against the eigensolver's O(N^2 b).
    """
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    perm = reverse_cuthill_mckee(L, symmetric_mode=True)
    if euler_characteristic(tri) <= 0:
        seeded = _loop_levels(tri, L)
        if _half_bandwidth(tri, seeded) < _half_bandwidth(tri, perm):
            perm = seeded
    return perm


def _loop_levels(tri, L):
    """Breadth-first order of L's graph from a short non-contractible loop.

    The loop is found by tree-cotree (Eppstein, SODA 2003; Erickson and
    Whittlesey, SODA 2005). A breadth-first tree T from vertex 0 gives each
    edge xy outside T the loop x -> root -> y -> x of length
    d(x) + d(y) + 1. A maximum spanning tree, by that length, of the dual
    graph over the edges outside T leaves 2 - chi edges in neither tree, and
    each of their loops is non-contractible; the shortest is taken, cut at
    the lowest common ancestor of x and y. The levels grow from a virtual
    vertex joined to the loop in its own order, so that each level follows
    the loop.
    """
    import scipy.sparse
    from scipy.sparse.csgraph import breadth_first_order, minimum_spanning_tree, shortest_path

    N, F = tri.vertex_count, tri.face_count
    # L's pattern is the edge graph plus the diagonal; self-loops change no search
    graph = scipy.sparse.csr_array((np.ones(L.nnz), L.indices, L.indptr), shape=L.shape)
    depth, parent = shortest_path(graph, unweighted=True, indices=0, return_predecessors=True)
    child = np.flatnonzero(parent >= 0)
    cotree = np.ones(tri.edge_count, dtype=bool)
    cotree[tri._edge_ids(child, parent[child])] = False
    cotree = np.flatnonzero(cotree)
    length = depth[tri.edge_ends].sum(axis=0) + 1.0
    # the two faces of each edge, lower first
    f, g = (tri.edge_corners[cotree] // 3).T
    weight = length.max() + 2.0 - length[cotree]
    dual = minimum_spanning_tree(scipy.sparse.csr_array((weight, (f, g)), shape=(F, F))).tocoo()
    # the spanning tree keeps each entry where it was, at (f, g)
    left = cotree[~np.isin(f * F + g, dual.row.astype(np.int64) * F + dual.col)]
    x, y = tri.edges[left[np.argmin(length[left])]]
    up_x, up_y = [x], [y]
    while up_x[-1] != up_y[-1]:
        if depth[up_x[-1]] >= depth[up_y[-1]]:
            up_x.append(parent[up_x[-1]])
        else:
            up_y.append(parent[up_y[-1]])
    loop = up_x + up_y[-2::-1]
    seeded = scipy.sparse.csr_array(
        (
            np.ones(L.nnz + len(loop)),
            np.concatenate([L.indices, loop]),
            np.append(L.indptr, L.nnz + len(loop)),
        ),
        shape=(N + 1, N + 1),
    )
    # directed: the search reads the virtual vertex's row in the loop's order
    return breadth_first_order(seeded, N, directed=True, return_predecessors=False)[1:]
