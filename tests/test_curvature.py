import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idcurv import (
    ConditioningError,
    Geometry,
    WeightedTriangulation,
    angle_deficits,
    average_curvature,
    csaszar_torus,
    curvature_field,
    curvature_jacobian,
    gauss_bonnet_residual,
    grid_torus,
    laplacian_spectrum,
    load_surface,
    newton_solve,
    potential_gradient,
    s_of_r,
    tetrahedron,
    total_area,
)
from idcurv.curvature import _band_order, _half_bandwidth
from idcurv.geometry import corner_angles, edge_lengths, face_lengths

from conftest import (
    assert_rowwise_close,
    fd_jacobian,
    fd_jacobian_in_r,
    genus_two,
    sample_admissible,
)

TWO_PI = 2.0 * np.pi
MESHES = Path(__file__).resolve().parent.parent / "meshes"


def test_submodule_is_not_shadowed():
    import idcurv.curvature as module

    assert module.angle_deficits is angle_deficits


# -- curvature values ---------------------------------------------------------------


def test_unit_tetrahedron_curvature(tetra_euc):
    field = curvature_field(tetra_euc, np.ones(4))
    np.testing.assert_allclose(field.K, np.pi, rtol=1e-15)
    np.testing.assert_allclose(field.R, np.pi, rtol=1e-15)
    assert not field.extended


def test_unit_csaszar_is_flat(csaszar_euc):
    field = curvature_field(csaszar_euc, np.ones(7))
    np.testing.assert_allclose(field.K, 0.0, atol=1e-14)


def test_alpha_zero_curvature_is_angle_deficit(csaszar_euc, csaszar_hyp, rng):
    # R is K / s^alpha for the alpha asked for, in both geometries; alpha = 0
    # leaves the angle deficit itself
    for tri in (csaszar_euc, csaszar_hyp):
        r = sample_admissible(tri, rng)
        s = s_of_r(r, tri.geometry)
        a = curvature_field(tri, r, alpha=0.0)
        np.testing.assert_array_equal(a.K, angle_deficits(tri, r))
        np.testing.assert_array_equal(a.R, a.K)
        assert a.alpha == 0.0
        for alpha in (1.0, 3.0):
            field = curvature_field(tri, r, alpha=alpha)
            np.testing.assert_array_equal(field.R, field.K / s**alpha)
            assert field.alpha == alpha


def test_r_alpha_scaling_law(tetra_euc, rng):
    # K is scale invariant in the Euclidean background; R = K / r^alpha picks up c^-alpha
    r = sample_admissible(tetra_euc, rng)
    c = 3.7
    for alpha in (0.0, 1.0, 2.0, 3.0):
        base = curvature_field(tetra_euc, r, alpha=alpha)
        scaled = curvature_field(tetra_euc, c * r, alpha=alpha)
        np.testing.assert_allclose(scaled.K, base.K, atol=1e-12)
        np.testing.assert_allclose(scaled.R, base.R / c**alpha, rtol=1e-10)


def test_extension_agrees_inside(csaszar_euc, rng):
    r = sample_admissible(csaszar_euc, rng)
    plain = curvature_field(csaszar_euc, r)
    ext = curvature_field(csaszar_euc, r, extended=True)
    np.testing.assert_array_equal(plain.K, ext.K)
    assert ext.extended


def test_extended_deficits_on_degenerate_metric(tetra_euc):
    # (1, 10, 10, 10) degenerates the three faces at vertex 0; each gives the
    # extension angle pi at vertex 0 and 0 at the far corners
    r = np.array([1.0, 10.0, 10.0, 10.0])
    K = angle_deficits(tetra_euc, r, extended=True)
    assert K[0] == pytest.approx(2.0 * np.pi - 3.0 * np.pi, rel=1e-15)
    # remaining vertices: one equilateral angle pi/3 from the far face
    np.testing.assert_allclose(K[1:], 2.0 * np.pi - np.pi / 3.0, rtol=1e-13)


def test_angle_deficits_overwrite_the_given_face_mask(csaszar_euc, tetra_euc):
    # a given degenerate buffer is overwritten: with False on every face at
    # admissible radii, with the extension's face mask outside the cone
    r = np.array([1.3, 0.8, 1.1, 1.0, 0.9, 1.2, 0.95])
    mask = np.ones(csaszar_euc.face_count, dtype=bool)
    K = angle_deficits(csaszar_euc, r, degenerate=mask)
    assert not mask.any()
    assert K.tobytes() == angle_deficits(csaszar_euc, r).tobytes()
    r = np.array([1.0, 9.0, 9.0, 9.0])
    mask = np.zeros(tetra_euc.face_count, dtype=bool)
    angle_deficits(tetra_euc, r, extended=True, degenerate=mask)
    expect = np.zeros(tetra_euc.face_count, dtype=bool)
    corner_angles(tetra_euc, r, extended=True, degenerate=expect)
    assert mask.tolist() == expect.tolist()
    assert mask.sum() == 3


@pytest.mark.parametrize("count", [6, 8])
@pytest.mark.parametrize(
    "solver", ["curvature_field", "newton_solve", "laplacian_spectrum", "average_curvature"]
)
def test_wrong_radii_count_is_refused(csaszar_euc, solver, count):
    # every per-face evaluation gathers radii, and the average curvature sums
    # them; both refuse one radius too few or too many on the 7-vertex torus
    # through geometry._vertex_radii, instead of an IndexError,
    # a spectrum of the wrong length or an average over the wrong radii
    call = {
        "curvature_field": lambda r: curvature_field(csaszar_euc, r),
        "newton_solve": lambda r: newton_solve(csaszar_euc, r, 0.0),
        "laplacian_spectrum": lambda r: laplacian_spectrum(csaszar_euc, r),
        "average_curvature": lambda r: average_curvature(csaszar_euc, r),
    }[solver]
    with pytest.raises(ValueError, match=rf"radii of shape \({count},\) for 7 vertices"):
        call(np.ones(count))


@pytest.mark.parametrize("alpha", [math.nan, math.inf])
@pytest.mark.parametrize("function", ["curvature_field", "average_curvature", "potential_gradient"])
def test_non_finite_alpha_is_refused(csaszar_euc, function, alpha):
    # before the refusal these returned an all-NaN R, an average of 0.0 or NaN
    r = np.array([1.3, 0.8, 1.1, 1.0, 0.9, 1.2, 0.95])
    call = {
        "curvature_field": lambda: curvature_field(csaszar_euc, r, alpha=alpha),
        "average_curvature": lambda: average_curvature(csaszar_euc, r, alpha=alpha),
        "potential_gradient": lambda: potential_gradient(csaszar_euc, 2.0 * np.log(r), 0.0, alpha),
    }[function]
    with pytest.raises(ValueError, match="alpha must be finite"):
        call()


def test_gauss_bonnet_euclidean(tetra_euc, csaszar_euc, rng):
    for tri, chi in ((tetra_euc, 2), (csaszar_euc, 0)):
        for _ in range(25):
            r = sample_admissible(tri, rng)
            K = angle_deficits(tri, r)
            assert abs(K.sum() - TWO_PI * chi) <= 1e-10
            assert abs(gauss_bonnet_residual(tri, r)) <= 1e-10


def test_gauss_bonnet_hyperbolic(tetra_hyp, csaszar_hyp, rng):
    for tri in (tetra_hyp, csaszar_hyp):
        for _ in range(25):
            r = sample_admissible(tri, rng, spread=0.5, scale=0.6)
            assert abs(gauss_bonnet_residual(tri, r)) <= 1e-9


def test_extended_gauss_bonnet_outside_cone(tetra_euc):
    # the extension keeps the combinatorial identity exactly
    r = np.array([1.0, 10.0, 10.0, 10.0])
    assert abs(gauss_bonnet_residual(tetra_euc, r, extended=True)) <= 1e-12


def test_average_curvature_examples(tetra_euc, csaszar_euc):
    # chi = 2 and unit radii: 4 pi / sum(r^2) = pi
    assert average_curvature(tetra_euc, np.ones(4)) == pytest.approx(np.pi)
    # alpha = 0 averages over the vertex count
    assert average_curvature(tetra_euc, np.ones(4), alpha=0.0) == pytest.approx(np.pi)
    assert average_curvature(csaszar_euc, np.ones(7)) == 0.0
    r = np.array([1.0, 2.0, 1.0, 1.5])
    expect = 4.0 * np.pi / np.sum(r**3)
    assert average_curvature(tetra_euc, r, alpha=3.0) == pytest.approx(expect)


def test_average_curvature_hyperbolic_rejected(csaszar_hyp):
    with pytest.raises(ValueError):
        average_curvature(csaszar_hyp, np.ones(7))


# -- Jacobian ---------------------------------------------------------------------


def test_jacobian_matches_finite_differences(tetra_euc, csaszar_euc, tetra_hyp, csaszar_hyp, rng):
    for tri in (tetra_euc, csaszar_euc, tetra_hyp, csaszar_hyp):
        scale = 1.0 if tri.geometry is Geometry.EUCLIDEAN else 0.6
        r = sample_admissible(tri, rng, spread=0.3, scale=scale)
        L = curvature_jacobian(tri, r).matrix
        J = fd_jacobian(tri, r)
        assert np.max(np.abs(L - J)) <= 1e-5


def test_jacobian_symmetry(rng):
    # one value per face edge serves both (a, b) and (b, a): symmetric to the bit
    stock = [load_surface(path) for path in sorted(MESHES.glob("*.json"))]
    for geom in (Geometry.EUCLIDEAN, Geometry.HYPERBOLIC):
        stock += [
            tetrahedron(geometry=geom),
            csaszar_torus(geometry=geom),
            csaszar_torus(2.0, geometry=geom),
            grid_torus(6, 6, geometry=geom),
            genus_two(geom),
        ]
    for tri in stock:
        scale = 1.0 if tri.geometry is Geometry.EUCLIDEAN else 0.5
        for _ in range(10):
            r = sample_admissible(tri, rng, scale=scale)
            L = curvature_jacobian(tri, r).sparse
            assert (L != L.T).nnz == 0


@pytest.mark.parametrize("geom", [Geometry.EUCLIDEAN, Geometry.HYPERBOLIC])
@pytest.mark.parametrize("mesh", [csaszar_torus, genus_two], ids=["csaszar", "genus2"])
def test_jacobian_diagonal_matches_off_diagonal_identity(mesh, geom, rng):
    # L_aa = -sum_b L_ab c(l_ab), c = 1 (Euclidean) or cosh l (hyperbolic): the
    # diagonal's cot form and the off-diagonal form are separate closed forms
    tri = mesh(geometry=geom)
    for scale in (0.3, 1.0):
        r = sample_admissible(tri, rng, spread=0.3, scale=scale)
        L = curvature_jacobian(tri, r).matrix
        c = np.ones(len(tri.edges))
        if geom is Geometry.HYPERBOLIC:
            c = np.cosh(edge_lengths(tri, r))
        C = np.zeros_like(L)
        C[tri.edges[:, 0], tri.edges[:, 1]] = C[tri.edges[:, 1], tri.edges[:, 0]] = c
        off = L - np.diag(np.diag(L))
        err = np.abs(np.diag(L) + (off * C).sum(axis=1))
        assert np.all(err <= 1e-13 * np.abs(L).max(axis=1))


def test_euclidean_jacobian_kernel_and_psd(tetra_euc, csaszar_euc, rng):
    for tri in (tetra_euc, csaszar_euc):
        for _ in range(10):
            r = sample_admissible(tri, rng)
            L = curvature_jacobian(tri, r).matrix
            np.testing.assert_allclose(L @ np.ones(tri.vertex_count), 0.0, atol=1e-8)
            w = np.linalg.eigvalsh(0.5 * (L + L.T))
            assert w.min() >= -1e-9
            assert np.sum(np.abs(w) < 1e-8) == 1


def test_hyperbolic_jacobian_positive_definite(tetra_hyp, csaszar_hyp, rng):
    for tri in (tetra_hyp, csaszar_hyp):
        for _ in range(10):
            r = sample_admissible(tri, rng, scale=0.6)
            L = curvature_jacobian(tri, r).matrix
            w = np.linalg.eigvalsh(0.5 * (L + L.T))
            assert w.min() > 0.0


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


def dense_reference_jacobian(tri, r):
    """L = dK/du by the chain rule d theta/d l . d l/d u per face, scattered into
    a dense N x N array with np.add.at: an assembly independent of the closed
    forms of curvature_jacobian."""
    fl = face_lengths(tri, r)
    hyperbolic = tri.geometry is Geometry.HYPERBOLIC
    D = _angle_length_derivatives(fl, corner_angles(tri, r), hyperbolic)
    E = _length_u_derivatives(tri, r, fl, hyperbolic)
    per_face = np.einsum("fae,fev->fav", D, E)
    N = tri.vertex_count
    F = len(tri.faces)
    L = np.zeros((N, N))
    rows = np.broadcast_to(tri.faces[:, :, None], (F, 3, 3)).ravel()
    cols = np.broadcast_to(tri.faces[:, None, :], (F, 3, 3)).ravel()
    np.add.at(L, (rows, cols), -per_face.ravel())
    return L


def per_edge_weight_torus(rng, geometry):
    """A 4 x 5 grid torus with its edge weights drawn from U(0.5, 2.5)."""
    torus = grid_torus(4, 5)
    weights = zip(map(tuple, torus.edges.tolist()), rng.uniform(0.5, 2.5, torus.edge_count))
    return WeightedTriangulation(torus.vertex_count, torus.faces, list(weights), geometry)


def test_sparse_jacobian_matches_dense_assembly(
    tetra_euc, csaszar_euc, csaszar_i2, csaszar_hyp, rng
):
    # the tori vary the weight from edge to edge, so a closed form that reads
    # the weight of the wrong edge of a corner fails here
    tori = [per_edge_weight_torus(rng, geometry) for geometry in Geometry]
    for tri in (tetra_euc, csaszar_euc, csaszar_i2, csaszar_hyp, *tori):
        scale = 1.0 if tri.geometry is Geometry.EUCLIDEAN else 0.6
        for _ in range(5):
            r = sample_admissible(tri, rng, spread=0.3, scale=scale)
            jac = curvature_jacobian(tri, r)
            dense = jac.sparse.toarray()
            np.testing.assert_allclose(
                dense, dense_reference_jacobian(tri, r), rtol=0.0, atol=1e-14
            )
            np.testing.assert_array_equal(jac.matrix, dense)


@pytest.mark.parametrize("radius", [19.0, 30.0])
def test_jacobian_finite_at_large_hyperbolic_radii(radius):
    # the corner angles are ~1e-8 (r = 19) and ~1e-13 (r = 30), and u rounds
    # to ~-4e-13 at r = 30, so the reference steps r rather than u
    tri = load_surface(MESHES / "csaszar_hyperbolic.json")
    r = np.full(7, radius)
    L = curvature_jacobian(tri, r).matrix
    assert np.isfinite(L).all()
    assert_rowwise_close(L, fd_jacobian_in_r(tri, r), rtol=1e-6)


@given(
    st.sampled_from([Geometry.EUCLIDEAN, Geometry.HYPERBOLIC]),
    st.floats(min_value=-7.0, max_value=math.log10(30.0)),
    st.sampled_from([-0.5, -0.9, 0.0, 1.0, 2.0]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_jacobian_and_area_across_radius_scales(geom, log_scale, weight, seed):
    # the rounding of the angle sums of row i reaches column j of the reference
    # scaled by ~e^{r_j - r_i} at large hyperbolic radii, so the radii stay
    # within e^{+-0.1} of the scale
    tri = csaszar_torus(weight=weight, geometry=geom)
    rng = np.random.default_rng(seed)
    r = sample_admissible(tri, rng, spread=0.1, scale=10.0**log_scale)
    if geom is Geometry.HYPERBOLIC:
        assert total_area(tri, r) >= 0.0
    L = curvature_jacobian(tri, r).matrix
    assert np.isfinite(L).all()
    assert_rowwise_close(L, fd_jacobian_in_r(tri, r), rtol=1e-6)


@pytest.mark.parametrize("radius", [300.0])
def test_jacobian_refuses_non_finite_blocks(radius):
    # the deficits are finite (2 pi) here, but the sinh products of the angle
    # and length derivatives overflow
    tri = load_surface(MESHES / "csaszar_hyperbolic.json")
    r = np.full(7, radius)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_allclose(angle_deficits(tri, r), TWO_PI)
        with pytest.raises(ConditioningError, match="face 0 has a non-finite"):
            curvature_jacobian(tri, r)


def test_jacobian_refuses_near_degenerate_assembly(tetra_euc):
    # within 1e-10 relative slack of the admissibility boundary
    x = 4.0 + math.sqrt(18.0) - 1e-10
    with pytest.raises(ConditioningError):
        curvature_jacobian(tetra_euc, np.array([1.0, x, x, x]))


# -- Laplacian --------------------------------------------------------------------
# Delta f = -(L f) / s^alpha, with L the curvature Jacobian in u = ln s^2


def test_laplacian_annihilates_constants(csaszar_euc, rng):
    r = sample_admissible(csaszar_euc, rng)
    out = curvature_jacobian(csaszar_euc, r).sparse @ np.full(7, 4.2)
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_laplacian_full_sum_equals_difference_form(csaszar_euc, rng):
    # sum_j (-L_ij) f_j equals the neighbour-difference form sum_j (-L_ij)(f_j - f_i)
    # because the rows of L sum to zero
    r = sample_admissible(csaszar_euc, rng)
    f = rng.standard_normal(7)
    L = curvature_jacobian(csaszar_euc, r).matrix
    diff_form = np.array([np.sum(-L[i] * (f - f[i])) for i in range(7)])
    np.testing.assert_allclose(-(L @ f), diff_form, atol=1e-10)


def test_laplacian_against_finite_differences(tetra_euc):
    # equal radii tetrahedron, f = e_0: differentiate the deficits directly
    r = np.ones(4)
    f = np.array([1.0, 0.0, 0.0, 0.0])
    got = curvature_jacobian(tetra_euc, r).sparse @ f
    np.testing.assert_allclose(got, fd_jacobian(tetra_euc, r) @ f, atol=1e-9)


# -- spectrum ---------------------------------------------------------------------


def test_spectrum_shape_and_kernel(csaszar_euc, rng):
    r = sample_admissible(csaszar_euc, rng)
    values = laplacian_spectrum(csaszar_euc, r)
    assert values.shape == (7,)
    assert abs(values[0]) <= 1e-8
    assert np.all(values[1:] > 0.0)
    assert np.all(np.diff(values) >= 0.0)


def test_spectrum_refuses_a_hyperbolic_surface(csaszar_hyp):
    with pytest.raises(ValueError, match="the Laplacian spectrum here is Euclidean only"):
        laplacian_spectrum(csaszar_hyp, np.full(7, 0.4))


def test_spectrum_kernel_vector_is_radii(csaszar_euc, rng):
    r = sample_admissible(csaszar_euc, rng)
    values, vectors = laplacian_spectrum(csaszar_euc, r, return_vectors=True)
    v0 = vectors[:, 0]
    v0 = v0 / np.linalg.norm(v0)
    ref = r / np.linalg.norm(r)
    assert min(np.linalg.norm(v0 - ref), np.linalg.norm(v0 + ref)) <= 1e-8


def dense_spectrum_operator(tri, r):
    """Sigma^{-1/2} L Sigma^{-1/2} as a dense array, the reference."""
    s = s_of_r(r, tri.geometry)
    return curvature_jacobian(tri, r).sparse.toarray() / np.outer(s, s)


@pytest.mark.parametrize(
    "tri",
    [
        grid_torus(6, 6),
        grid_torus(12, 12),
        grid_torus(8, 20),
        genus_two(),
        tetrahedron(),
        csaszar_torus(),
    ],
    ids=["torus6", "torus12", "torus8x20", "genus2", "tetrahedron", "csaszar"],
)
def test_spectrum_matches_dense_reference(tri, rng):
    # the tetrahedron and the Csaszar torus are complete graphs: their band is
    # full; the grid tori take the loop-seeded ordering
    r = sample_admissible(tri, rng, spread=0.3)
    values = laplacian_spectrum(tri, r)
    expect = np.linalg.eigvalsh(dense_spectrum_operator(tri, r))
    assert values.shape == (tri.vertex_count,)
    assert np.all(np.diff(values) >= 0.0)
    np.testing.assert_allclose(values, expect, rtol=0.0, atol=1e-12 * np.abs(expect).max())


@pytest.mark.parametrize("n, m", [(12, 12), (8, 20)])
def test_band_order_grows_levels_from_a_loop_on_grid_tori(n, m):
    # levels from a non-contractible loop are two parallel loops, about
    # 2 min(n, m) wide; RCM's wrap around as hexagons, about 3 min(n, m)
    tri = grid_torus(n, m)
    L = curvature_jacobian(tri, np.ones(tri.vertex_count)).sparse
    perm = _band_order(tri, L)
    assert np.array_equal(np.sort(perm), np.arange(tri.vertex_count))
    assert _half_bandwidth(tri, perm) <= 2 * min(n, m) + 2


@pytest.mark.parametrize(
    "tri",
    [grid_torus(12, 12), grid_torus(8, 20), genus_two(), csaszar_torus(), tetrahedron()],
    ids=["torus12", "torus8x20", "genus2", "csaszar", "tetrahedron"],
)
def test_band_order_is_never_wider_than_rcm(tri):
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    L = curvature_jacobian(tri, np.ones(tri.vertex_count)).sparse
    rcm = reverse_cuthill_mckee(L, symmetric_mode=True)
    assert _half_bandwidth(tri, _band_order(tri, L)) <= _half_bandwidth(tri, rcm)


def test_spectrum_vectors_on_reordered_torus(rng):
    # the grid torus is numbered row by row, so the band ordering permutes it
    tri = grid_torus(12, 12)
    r = sample_admissible(tri, rng, spread=0.3)
    values, vectors = laplacian_spectrum(tri, r, return_vectors=True)
    A = dense_spectrum_operator(tri, r)
    scale = np.abs(values).max()
    assert np.abs(A @ vectors - vectors * values).max() <= 1e-12 * scale
    np.testing.assert_allclose(vectors.T @ vectors, np.eye(tri.vertex_count), atol=1e-12)
    v0 = vectors[:, 0] / np.linalg.norm(vectors[:, 0])
    ref = r / np.linalg.norm(r)
    assert min(np.linalg.norm(v0 - ref), np.linalg.norm(v0 + ref)) <= 1e-10


def test_spectrum_makes_no_dense_copy():
    # a quarter of one N x N float64 array bounds the traced peak at N = 1600
    tri = grid_torus(40, 40)
    r = np.ones(tri.vertex_count)
    laplacian_spectrum(grid_torus(3, 3), np.ones(9))  # lazy imports outside the trace
    limit = tri.vertex_count**2 * 8 / 4
    tracemalloc.start()
    try:
        values = laplacian_spectrum(tri, r)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert abs(values[0]) <= 1e-12
    assert peak < limit, f"traced peak {peak / 2**20:.1f} MiB"


def test_first_eigenvalue_exceeds_average_at_flat_metric(csaszar_euc):
    r = np.full(7, 1.3)
    values = laplacian_spectrum(csaszar_euc, r)
    assert values[1] > average_curvature(csaszar_euc, r)
