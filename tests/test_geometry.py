import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import idcurv
from idcurv import geometry as geometry_module
from idcurv import (
    DomainError,
    Geometry,
    PackingMetric,
    admissible,
    angle_deficits,
    average_curvature,
    corner_angles,
    edge_length,
    edge_lengths,
    face_lengths,
    potential_gradient,
    r_of_u,
    s_of_r,
    tetrahedron,
    total_area,
    triangle_slack,
    u_of_r,
)
from conftest import angles_of_lengths
from idcurv.errors import AdmissibilityError, WeightError
from idcurv.surface import TETRA_FACES

EUC = Geometry.EUCLIDEAN
HYP = Geometry.HYPERBOLIC

radii_st = st.floats(min_value=0.05, max_value=20.0, allow_nan=False)
weight_st = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)


def row_angles(lengths, geometry, extended=False):
    """Angles of a single face through the (F, 3) path."""
    return angles_of_lengths(np.asarray(lengths, dtype=float)[None], geometry, extended)[0]


# -- edge lengths ---------------------------------------------------------------


def test_euclidean_length_oracles():
    assert edge_length(1.0, 1.0, 2.0, EUC) == pytest.approx(math.sqrt(6.0), abs=1e-15)
    assert edge_length(3.0, 4.0, 1.0, EUC) == pytest.approx(7.0, abs=1e-14)
    # tangent circles
    assert edge_length(2.0, 5.0, 1.0, EUC) == pytest.approx(7.0, abs=1e-14)


@pytest.mark.parametrize(
    "r_i, r_j, weight",
    [
        (-1.0, 1.0, 1.0),
        (0.0, 1.0, 1.0),
        (1.0, math.nan, 1.0),
        (math.inf, 1.0, 1.0),
        (1.0, 1.0, math.nan),
        (1.0, 1.0, -math.inf),
        (np.array([1.0, -2.0]), 1.0, 1.0),
    ],
)
@pytest.mark.parametrize("geom", [EUC, HYP], ids=lambda g: g.value)
def test_edge_length_refuses_bad_radii_and_weights(r_i, r_j, weight, geom):
    # each row breaks either the radii rule or, with good radii, the weight's
    message = "weights must be finite" if not np.isfinite(weight) else "radii must be finite"
    with pytest.raises(ValueError, match=message):
        edge_length(r_i, r_j, weight, geom)


def test_hyperbolic_tangent_circles_add_radii():
    for a, b in ((1.0, 1.0), (0.3, 2.4), (5.0, 0.01), (1e-5, 3e-5)):
        assert edge_length(a, b, 1.0, HYP) == pytest.approx(a + b, rel=1e-14, abs=0.0)


def test_hyperbolic_length_matches_definition():
    r_i, r_j, w = 0.7, 1.3, 2.5
    expect = math.acosh(
        math.cosh(r_i) * math.cosh(r_j) + w * math.sinh(r_i) * math.sinh(r_j)
    )
    assert edge_length(r_i, r_j, w, HYP) == pytest.approx(expect, rel=1e-15)


@given(radii_st, radii_st, weight_st, st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=200)
def test_euclidean_length_scales_linearly(r_i, r_j, w, c):
    base = edge_length(r_i, r_j, w, EUC)
    scaled = edge_length(c * r_i, c * r_j, w, EUC)
    assert scaled == pytest.approx(c * base, rel=1e-12)


@given(radii_st, radii_st, weight_st)
@settings(max_examples=200)
def test_hyperbolic_length_exceeds_euclidean_floor(r_i, r_j, w):
    # cosh l >= cosh(r_i + r_j) when I >= 1; l > |r_i - r_j| always
    l = edge_length(r_i, r_j, w, HYP)
    assert l > 0.0
    if w >= 1.0:
        assert l >= r_i + r_j - 1e-12


def test_big_radius_branch_is_continuous():
    # direct cosh evaluation works up to ~350; the stable branch takes over
    # past that. Check they agree where both are defined.
    for w in (0.0, 0.5, 1.0, 2.0, 10.0):
        for r in (200.0, 300.0, 340.0, 349.0):
            l_direct = math.acosh(
                math.cosh(r) * math.cosh(r) + w * math.sinh(r) * math.sinh(r)
            )
            assert edge_length(r, r, w, HYP) == pytest.approx(l_direct, rel=1e-13)


def test_big_radius_no_overflow():
    l = edge_length(500.0, 700.0, 1.0, HYP)
    assert l == pytest.approx(1200.0, rel=1e-15)
    l = edge_length(500.0, 700.0, 3.0, HYP)
    assert l == pytest.approx(1200.0 + math.log(2.0), rel=1e-15)
    assert np.isfinite(edge_length(1000.0, 1000.0, 0.0, HYP))


def test_hyperbolic_arccosh_domain_error():
    # the argument can only drop below 1 when the weight is below -1:
    # cosh a cosh b - cosh(a-b) >= sinh a sinh b exactly bounds I >= -1
    with pytest.raises(DomainError):
        edge_length(2.0, 2.0, -1.5, HYP)
    with pytest.raises(DomainError):
        edge_length(400.0, 2.0, -1.5, HYP)
    # anything above -1 stays in range even near the boundary
    assert np.isfinite(edge_length(2.0, 2.0, -0.999, HYP))


def test_mixed_scalar_array_lengths():
    r = np.array([1.0, 2.0, 3.0])
    out = edge_length(r, r, 2.0, EUC)
    np.testing.assert_allclose(out, np.sqrt(6.0) * r, rtol=1e-15)
    assert isinstance(edge_length(1.0, 1.0, 2.0, EUC), float)


@pytest.mark.parametrize("geom", [EUC, HYP])
@pytest.mark.parametrize("copies", [1, 3])
def test_edge_lengths_match_scalar_edge_length(geom, copies):
    # edge_lengths works on the aligned end radii of all edges at once; each
    # entry is the scalar edge_length of its edge, bit for bit, past
    # BIG_RADIUS too, and on a union of copies of the surface
    tri = idcurv.grid_torus(4, 4, weight=2.0, geometry=geom)
    union = tri.copies(copies)
    r = np.exp(np.random.default_rng(19).uniform(-1.0, 1.0, union.vertex_count))
    r[3] = 2.0 * geometry_module.BIG_RADIUS  # its edges take the stable hyperbolic form
    got = geometry_module.edge_lengths(union, r)
    expect = [
        edge_length(r[i], r[j], w, geom)
        for (i, j), w in zip(union.edge_ends.T.tolist(), union.weights.tolist())
    ]
    assert got.tobytes() == np.array(expect).tobytes()


# -- admissibility ----------------------------------------------------------------


def test_strict_admissibility_of_one_face():
    assert triangle_slack(np.array([3.0, 4.0, 5.0])) > 0
    assert triangle_slack(np.array([1.0, 2.0, 3.0])) <= 0  # degenerate boundary
    assert triangle_slack(np.array([1.0, 1.0, 3.0])) <= 0


def test_triangle_slack_values():
    np.testing.assert_allclose(triangle_slack(np.array([1.0, 1.0, 1.0])), 1.0 / 3.0)
    assert triangle_slack(np.array([1.0, 2.0, 3.0])) == pytest.approx(0.0, abs=1e-16)
    assert triangle_slack(np.array([1.0, 1.0, 3.0])) < 0.0


def test_admissibility_threshold_of_isoceles_family():
    # radii (1, x, x, x) with I = 2 degenerate exactly at x = 4 + sqrt(18)
    tri = tetrahedron()
    threshold = 4.0 + math.sqrt(18.0)
    ok, bad = admissible(tri, np.array([1.0, 8.2, 8.2, 8.2]))
    assert ok and bad == []
    ok, bad = admissible(tri, np.full(4, 1.0) * np.array([1.0, 8.25, 8.25, 8.25]))
    assert not ok
    # the face away from vertex 0 stays equilateral, the three at it fail
    assert bad == [0, 1, 2]
    just_below = threshold - 1e-6
    assert admissible(tri, np.array([1.0, just_below, just_below, just_below]))[0]


def test_corner_angles_raise_outside_admissible_cone():
    tri = tetrahedron()
    r = np.array([1.0, 9.0, 9.0, 9.0])
    with pytest.raises(AdmissibilityError, match="extended"):
        corner_angles(tri, r)
    # extended evaluation succeeds and marks the degenerate faces
    degenerate = np.zeros(tri.face_count, dtype=bool)
    corner_angles(tri, r, extended=True, degenerate=degenerate)
    assert degenerate.sum() == 3


def test_nan_radius_is_not_admissible(csaszar_euc):
    # admissible refuses a NaN radius by the radii rule; the angles check only
    # the count, and a NaN length satisfies no strict inequality, so its faces
    # are degenerate and no single edge dominates them for the extension
    r = np.array([np.nan, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="radii must be finite and positive"):
        admissible(csaszar_euc, r)
    with pytest.raises(AdmissibilityError):
        angle_deficits(csaszar_euc, r)
    with pytest.raises(DomainError):
        angle_deficits(csaszar_euc, r, extended=True)


@pytest.mark.parametrize("evaluate", [corner_angles, angle_deficits])
def test_non_finite_radius_names_its_faces(csaszar_euc, evaluate):
    # the faces at vertex 0 have NaN lengths, which the extension cannot take
    # either, so the error names them instead of pointing to extended=True
    r = np.array([np.nan, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    at_vertex = np.flatnonzero((csaszar_euc.faces == 0).any(axis=1)).tolist()
    with pytest.raises(AdmissibilityError) as raised:
        evaluate(csaszar_euc, r)
    assert str(raised.value) == f"faces {at_vertex} have non-finite edge lengths"


# axis-reduction forms of the face kernels on the gaps p - l, kept as the
# reference for the column forms in idcurv.geometry, which keep the gaps
# doubled: doubling and halving are exact, so results must be equal bit for bit
def reference_gaps(fl):
    lb, lc = np.roll(fl, -1, axis=1), np.roll(fl, -2, axis=1)
    return 0.5 * (np.minimum(lb, lc) + (np.maximum(lb, lc) - fl))


def reference_degenerate_mask(g):
    return ~(g.min(axis=1) > 0.0)


def reference_triangle_slack(fl):
    total = fl.sum(axis=-1)
    return (total - 2.0 * fl.max(axis=-1)) / total


def reference_half_angle_law(g, hyperbolic):
    p = g.sum(axis=1)
    if hyperbolic:
        q = -np.expm1(-2.0 * g)
        rho = np.sqrt(q[:, 0] * q[:, 1] * q[:, 2] / -np.expm1(-2.0 * p))
        return 2.0 * np.arctan2(rho[:, None] * np.exp(-g), q)
    rho = np.sqrt(g[:, 0] / p * g[:, 1] * g[:, 2])
    return 2.0 * np.arctan2(rho[:, None], g)


side_st = st.floats(min_value=1e-3, max_value=60.0)


@st.composite
def face_row(draw):
    """Three lengths: random, needle-like, sliver, exactly degenerate, or holding
    NaN or inf."""
    a, b = draw(side_st), draw(side_st)
    shape = draw(st.sampled_from(["random", "needle", "sliver", "degenerate", "nan", "inf"]))
    if shape == "random":
        c = draw(side_st)
    elif shape == "needle":  # c just short of a + b
        c = (a + b) * (1.0 - draw(st.floats(min_value=1e-16, max_value=1e-6)))
    elif shape == "sliver":  # two near-equal sides and a tiny third
        b = a * (1.0 + draw(st.floats(min_value=0.0, max_value=1e-9)))
        c = a * draw(st.floats(min_value=1e-12, max_value=1e-3))
    elif shape == "degenerate":
        c = a + b
    elif shape == "inf":
        c = math.inf
    else:
        c = math.nan
    return draw(st.permutations([a, b, c]))


@given(st.lists(face_row(), min_size=1, max_size=16), st.sampled_from([EUC, HYP]))
@settings(max_examples=300)
def test_column_face_kernels_match_axis_reductions(rows, geom):
    fl = np.array(rows, dtype=float)
    g = geometry_module._gaps(fl, fl[:, geometry_module._NEXT], fl[:, geometry_module._PREV])
    assert np.array_equal(g, 2.0 * reference_gaps(fl), equal_nan=True)
    mask = reference_degenerate_mask(g)
    assert np.array_equal(geometry_module._degenerate_mask(g), mask)
    # the one-reduction test that stands in for the mask on admissible input
    assert (g.min() > 0.0) == (not mask.any())
    hyperbolic = geom is HYP
    with np.errstate(all="ignore"):
        got = geometry_module._half_angle_law(g, hyperbolic)
        expect = reference_half_angle_law(g / 2.0, hyperbolic)
        slack = triangle_slack(fl)
        expect_slack = reference_triangle_slack(fl)
        row_slacks = [triangle_slack(row) for row in fl]  # 1-D triples
    assert np.array_equal(got, expect, equal_nan=True)
    assert np.array_equal(slack, expect_slack, equal_nan=True)
    assert np.array_equal(row_slacks, expect_slack, equal_nan=True)


@pytest.mark.parametrize("geom", [EUC, HYP])
@pytest.mark.parametrize("start", ["admissible", "snapped"])
def test_corner_angles_match_face_angles_of_face_lengths(geom, start):
    # corner_angles gathers its gaps by the triangulation's gap plan,
    # angles_of_lengths cycles the columns of the face lengths it is given:
    # the same arithmetic, so the two agree bit for bit, degenerate faces and
    # refusals included; each overwrites the whole mask buffer it is given,
    # whatever it held
    tri = idcurv.grid_torus(4, 4, weight=2.0, geometry=geom)
    r = np.exp(np.random.default_rng(7).uniform(-0.01, 0.01, tri.vertex_count))
    if start == "snapped":  # one face's corners scaled apart, past its triangle inequality
        r[tri.faces[5]] *= (12.0, 3.0, 0.01)
    ok, bad = admissible(tri, r)
    assert ok == (start == "admissible") and (ok or 5 in bad)
    fl = face_lengths(tri, r)
    if start == "snapped":
        with pytest.raises(AdmissibilityError) as via_plan:
            corner_angles(tri, r)
        with pytest.raises(AdmissibilityError) as via_rows:
            angles_of_lengths(fl, geom)
        assert str(via_plan.value) == str(via_rows.value)
    for extended in (False, True) if start == "admissible" else (True,):
        got_mask = np.ones(tri.face_count, dtype=bool)
        expect_mask = np.zeros(tri.face_count, dtype=bool)
        got = corner_angles(tri, r, extended, got_mask)
        expect = angles_of_lengths(fl, geom, extended, expect_mask)
        assert got.dtype == float and got.shape == (tri.face_count, 3)
        assert np.array_equal(got, expect)
        assert np.array_equal(got_mask, expect_mask)
        assert np.nonzero(got_mask)[0].tolist() == bad


@pytest.mark.parametrize("geom", [EUC, HYP])
@pytest.mark.parametrize("extended", [False, True])
def test_face_angles_of_no_faces(geom, extended):
    # a zero-row length array has no angles and fills a zero-length face mask,
    # as it has no triangle slacks
    assert len(triangle_slack(np.empty((0, 3)))) == 0
    angles = angles_of_lengths(np.empty((0, 3)), geom, extended, np.empty(0, dtype=bool))
    assert angles.shape == (0, 3) and angles.dtype == float


# -- angles -----------------------------------------------------------------------


def test_equilateral_angles():
    np.testing.assert_allclose(
        row_angles(np.array([2.0, 2.0, 2.0]), EUC), np.pi / 3.0, rtol=1e-15
    )
    hyp = np.array(row_angles(np.array([2.0, 2.0, 2.0]), HYP))
    assert np.all(hyp < np.pi / 3.0)
    np.testing.assert_allclose(hyp, hyp[0])


def test_right_triangle_angle():
    ang = row_angles(np.array([5.0, 4.0, 3.0]), EUC)
    assert ang[0] == pytest.approx(np.pi / 2.0, abs=1e-15)
    assert ang[1] == pytest.approx(math.asin(4.0 / 5.0), abs=1e-15)


def test_isoceles_apex_angle_formula():
    # apex angle opposite the base b between equal legs a: 2 asin(b / 2a)
    a = 3.0
    for b in (4.5, 1e-9 * a):
        ang = row_angles(np.array([b, a, a]), EUC)
        assert ang[0] == pytest.approx(2.0 * math.asin(b / (2.0 * a)), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("side", [20.0, 40.0, 60.0])
def test_hyperbolic_equilateral_angle_formula(side):
    # halving the triangle gives a right triangle: sin(theta/2) = sinh(l/2) / sinh(l)
    expect = 2.0 * math.asin(1.0 / (2.0 * math.cosh(side / 2.0)))
    np.testing.assert_allclose(row_angles(np.full(3, side), HYP), expect, rtol=1e-13)


def test_euclidean_angles_sum_to_pi():
    rng = np.random.default_rng(5)
    for _ in range(50):
        raw = rng.uniform(0.5, 3.0, 3)
        if triangle_slack(raw) <= 0:
            continue
        assert sum(row_angles(raw, EUC)) == pytest.approx(np.pi, abs=1e-12)


def test_hyperbolic_angles_sum_below_pi():
    rng = np.random.default_rng(6)
    for _ in range(50):
        raw = rng.uniform(0.5, 3.0, 3)
        if triangle_slack(raw) <= 0:
            continue
        assert sum(row_angles(raw, HYP)) < np.pi


def test_near_degenerate_face_still_evaluates():
    # epsilon inside the boundary: the gap opposite the long side is eps/2,
    # and the apex still evaluates rather than being rejected
    eps = 1e-14
    ang = row_angles(np.array([2.0 - eps, 1.0, 1.0]), EUC)
    assert np.isfinite(ang).all()
    assert ang[0] == pytest.approx(np.pi, abs=1e-6)


def test_inadmissible_face_rejected():
    from idcurv.errors import AdmissibilityError

    with pytest.raises(AdmissibilityError):
        row_angles(np.array([2.5, 1.0, 1.0]), EUC)


def test_extension_constant_outside():
    ext = row_angles(np.array([3.0, 1.0, 1.0]), EUC, extended=True)
    np.testing.assert_array_equal(ext, [np.pi, 0.0, 0.0])
    ext = row_angles(np.array([1.0, 1.0, 3.5]), HYP, extended=True)
    np.testing.assert_array_equal(ext, [0.0, 0.0, np.pi])
    # inside the admissible cone the extension is the plain angle
    inside = np.array([2.0, 2.0, 2.0])
    np.testing.assert_allclose(
        row_angles(inside, EUC, extended=True), row_angles(inside, EUC)
    )


def test_extension_continuous_at_boundary():
    # approach the degenerate triple (2, 1, 1) from the admissible side:
    # the apex cosine is -1 + O(eps), so the apex angle is pi - O(sqrt(eps))
    for geom in (EUC, HYP):
        for eps in (1e-4, 1e-6, 1e-8):
            ang = row_angles(np.array([2.0 - eps, 1.0, 1.0]), geom, extended=True)
            assert abs(ang[0] - np.pi) < 4.0 * math.sqrt(eps)
            assert ang[1] < 4.0 * math.sqrt(eps)
        at = row_angles(np.array([2.0, 1.0, 1.0]), geom, extended=True)
        np.testing.assert_array_equal(at, [np.pi, 0.0, 0.0])


def test_exact_degeneracy_uses_the_extension():
    # 2*max == perimeter counts as degenerate (the admissible cone is open)
    np.testing.assert_array_equal(
        row_angles(np.array([3.0, 2.0, 1.0]), EUC, extended=True), [np.pi, 0.0, 0.0]
    )


def test_hyperbolic_angle_vanishes_at_large_radius():
    # corner angle at a vertex whose radius grows: below 1e-3 by r = 50
    r_j, r_k, w = 1.0, 1.5, 1.0
    r_i = 50.0
    lengths = np.array(
        [
            edge_length(r_j, r_k, w, HYP),  # opposite vertex i
            edge_length(r_i, r_k, w, HYP),
            edge_length(r_i, r_j, w, HYP),
        ]
    )
    # the gap opposite the angle is ~r_i, so the true angle is ~4 tanh(rho) e^{-r_i},
    # about 3.5e-22: resolved by the half-angle law, where a cosine rounds to 1
    theta = row_angles(lengths, HYP)[0]
    assert 0.0 < theta < 1e-3
    assert row_angles(lengths, HYP, extended=True)[0] < 1e-3


# -- areas ------------------------------------------------------------------------


def test_hyperbolic_area_of_equilateral():
    side = 2.0
    cos_angle = (math.cosh(side) * math.cosh(side) - math.cosh(side)) / (
        math.sinh(side) * math.sinh(side)
    )
    expect = np.pi - 3.0 * math.acos(cos_angle)
    got = np.pi - row_angles(np.full(3, side), HYP).sum()
    assert got == pytest.approx(expect, rel=1e-14)


@pytest.mark.parametrize("radius", [1e-7, 0.4, 3.0, 40.0])
def test_total_area_matches_reference_lhuilier_sum(csaszar_hyp, radius):
    # L'Huilier's formula on the undoubled gaps, summed as total_area sums it:
    # the doubled gaps give the same area bit for bit
    r = radius * np.exp(np.random.default_rng(11).uniform(-0.2, 0.2, 7))
    g = reference_gaps(face_lengths(csaszar_hyp, r))
    t = np.tanh(g / 2.0)
    tp = np.tanh(g.sum(axis=1) / 2.0)
    expect = float(np.sum(4.0 * np.arctan(np.sqrt(tp * t[:, 0] * t[:, 1] * t[:, 2]))))
    assert total_area(csaszar_hyp, r) == expect


def test_total_area_accumulates_faces(csaszar_hyp):
    r = np.full(7, 0.4)
    fl = face_lengths(csaszar_hyp, r)
    per_face = [np.pi - row_angles(fl[f], HYP).sum() for f in range(14)]
    assert total_area(csaszar_hyp, r) == pytest.approx(sum(per_face), rel=1e-13)


@pytest.mark.parametrize("radius", [1e-8, 2e-8, 1e-7, 3e-5, 6.5e-5])
def test_total_area_of_small_tangent_packing(csaszar_hyp, radius):
    # 14 equilateral faces of side 2r; a hyperbolic equilateral triangle of side
    # a has area (sqrt(3)/4) a^2 (1 - a^2/8 + O(a^4)), here within 3e-9 relative
    # of sqrt(3) r^2
    area = total_area(csaszar_hyp, np.full(7, radius))
    assert area == pytest.approx(14.0 * math.sqrt(3.0) * radius**2, rel=1e-6, abs=0.0)


def test_total_area_euclidean_rejected(csaszar_euc):
    with pytest.raises(ValueError):
        total_area(csaszar_euc, np.ones(7))


# -- coordinates ------------------------------------------------------------------


def test_coordinate_roundtrip_euclidean():
    r = np.array([0.2, 1.0, 7.5])
    np.testing.assert_allclose(r_of_u(u_of_r(r, EUC), EUC), r, rtol=1e-14)
    np.testing.assert_allclose(u_of_r(r, EUC), 2.0 * np.log(r), rtol=1e-15)


def test_coordinate_roundtrip_hyperbolic():
    r = np.array([0.2, 1.0, 7.5])
    np.testing.assert_allclose(r_of_u(u_of_r(r, HYP), HYP), r, rtol=1e-12)
    np.testing.assert_allclose(s_of_r(r, HYP), np.tanh(r / 2.0), rtol=1e-15)


def test_hyperbolic_chart_keeps_large_radii():
    # u = -2 ln coth(r/2) keeps its digits where tanh(r/2) rounds to 1, for r
    # beyond about 38, so r -> u -> r round-trips over the whole range
    r = np.geomspace(1e-8, 300.0, 401)
    np.testing.assert_allclose(r_of_u(u_of_r(r, HYP), HYP), r, rtol=4e-15, atol=0.0)
    assert u_of_r(40.0, HYP) < 0.0
    # u = 2 ln tanh(r/2) where tanh has its digits, -4 e^-r (1 + O(e^-2r)) far out
    near, far = r[r < 1.0], r[r > 40.0]
    np.testing.assert_allclose(u_of_r(near, HYP), 2.0 * np.log(np.tanh(near / 2.0)), rtol=1e-15)
    np.testing.assert_allclose(u_of_r(far, HYP), -4.0 * np.exp(-far), rtol=1e-15)


@pytest.mark.filterwarnings("error")
def test_hyperbolic_chart_reaches_subnormal_radii():
    # ln coth(r/2) takes its small-r form below 1, so u_of_r(1e-310) is
    # -2 (ln 2 - ln 1e-310) to a few ulps instead of an overflow to -inf; a
    # scalar stays a scalar, and r -> u -> r round-trips to the conditioning
    # of r_of_u, |u| ulps of r
    assert u_of_r(1e-310, HYP) == pytest.approx(-2.0 * (math.log(2.0) - math.log(1e-310)), rel=1e-15)
    for r in (1e-310, 1e-300, 1e-8, 1.0, 30.0):
        u = u_of_r(r, HYP)
        assert np.ndim(u) == 0 and np.isfinite(u) and u < 0.0
        back = r_of_u(u, HYP)
        assert np.ndim(back) == 0
        assert abs(back - r) <= 4.0 * np.finfo(float).eps * max(1.0, abs(u)) * r


def test_hyperbolic_u_range():
    # tanh(r/2) < 1 forces u < 0; nonnegative u is out of range
    with pytest.raises(DomainError):
        r_of_u(np.array([0.0]), HYP)
    with pytest.raises(DomainError):
        r_of_u(np.array([0.5]), HYP)


_TET, _TET_HYP = tetrahedron(), tetrahedron(geometry=HYP)
_CSASZAR = idcurv.csaszar_torus()
_RADII = "radii must be finite and positive"
_U = "u-coordinates give radii that are not finite and positive"
_TARGET = "target must be finite"
_TARGET_LENGTH = "target length does not match the vertex count"
_NORMALIZED = idcurv.FlowSpec(kind=idcurv.FlowKind.NORMALIZED_EUCLIDEAN)
BAD_INPUT_CALLS = {
    "edge_length": lambda r: edge_length(r, 1.0, 1.0, EUC),
    "edge_lengths": lambda r: edge_lengths(_TET, r),
    "edge_lengths-hyperbolic": lambda r: edge_lengths(_TET_HYP, r),
    "r_of_u": lambda u: r_of_u(u, EUC),
    "r_of_u-hyperbolic": lambda u: r_of_u(u, HYP),
    "u_of_r": lambda r: u_of_r(r, EUC),
    "u_of_r-hyperbolic": lambda r: u_of_r(r, HYP),
    "s_of_r": lambda r: s_of_r(r, EUC),
    "s_of_r-hyperbolic": lambda r: s_of_r(r, HYP),
    "admissible": lambda r: admissible(_TET, r),
    "total_area": lambda r: total_area(_TET_HYP, r),
    "average_curvature": lambda r: average_curvature(_TET, r),
    "curvature_field": lambda r: idcurv.curvature_field(_TET, r),
    "gauss_bonnet_residual": lambda r: idcurv.gauss_bonnet_residual(_TET, r),
    "gauss_bonnet_residual-hyperbolic": lambda r: idcurv.gauss_bonnet_residual(_TET_HYP, r),
    "potential_gradient": lambda target: potential_gradient(_TET, np.zeros(4), target),
    # a path of zero length integrates nothing, but still reads its target
    "potential_value": lambda t: idcurv.potential_value(_TET, np.zeros(4), np.zeros(4), t),
    "newton_solve": lambda r: idcurv.newton_solve(_CSASZAR, r, 0.0),
    "newton_solve-target": lambda target: idcurv.newton_solve(_CSASZAR, np.ones(7), target),
    "flow_rhs": lambda r: idcurv.flow_rhs(_TET, r, _NORMALIZED),
    "run_flow": lambda r: idcurv.run_flow(_TET, r, _NORMALIZED),
    "FlowSpec": lambda alpha: idcurv.FlowSpec(kind=idcurv.FlowKind.ALPHA_NORMALIZED, alpha=alpha),
    "WeightedTriangulation": lambda w: idcurv.WeightedTriangulation(4, TETRA_FACES, float(w)),
    # one weight per edge of the tetrahedron, keyed by its vertex pair
    "WeightedTriangulation-edges": lambda w: idcurv.WeightedTriangulation(
        4, TETRA_FACES, dict(zip([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], w.tolist()))
    ),
    "edge_length-weight": lambda w: edge_length(1.0, 1.0, w, EUC),
    "edge_length-weight-hyperbolic": lambda w: edge_length(1.0, 1.0, w, HYP),
}
# (call, bad input, typed error, message): radii that are not finite and
# positive, u-coordinates whose radii would not be, targets that are not
# finite or not one per vertex, and weights that are not finite; every public
# call that takes radii, an exponent, a target or weights checks them before
# any work, except corner_angles and angle_deficits, which check only the
# count of the radii
BAD_INPUT = [
    ("edge_length", math.inf, ValueError, _RADII),
    ("edge_lengths", [0.0, 1.0, 1.0, 1.0], ValueError, _RADII),
    ("edge_lengths", [1.0, math.nan, 1.0, 1.0], ValueError, _RADII),
    ("edge_lengths-hyperbolic", [1.0, 1.0, math.inf, 1.0], ValueError, _RADII),
    ("r_of_u", [0.0, 1500.0], DomainError, _U),
    ("r_of_u", [0.0, -1500.0], DomainError, _U),
    ("r_of_u", [math.nan], DomainError, _U),
    ("r_of_u-hyperbolic", [-1.0, math.nan], DomainError, _U),
    ("r_of_u-hyperbolic", [-1.0, -1500.0], DomainError, _U),
    ("u_of_r", 0.0, ValueError, _RADII),
    ("u_of_r-hyperbolic", [1.0, -1.0], ValueError, _RADII),
    ("s_of_r", [math.inf], ValueError, _RADII),
    ("s_of_r-hyperbolic", math.nan, ValueError, _RADII),
    ("admissible", [1.0, math.inf, 1.0, 1.0], ValueError, _RADII),
    ("admissible", [1.0, math.nan, 1.0, 1.0], ValueError, _RADII),
    ("total_area", [1.0, 1.0, math.inf, 1.0], ValueError, _RADII),
    ("average_curvature", [1.0, math.nan, 1.0, 1.0], ValueError, _RADII),
    ("average_curvature", [1.0, 0.0, 1.0, 1.0], ValueError, _RADII),
    ("curvature_field", [math.inf, 1.0, 1.0, 1.0], ValueError, _RADII),
    ("gauss_bonnet_residual", [1.0, math.inf, 1.0, 1.0], ValueError, _RADII),
    ("gauss_bonnet_residual-hyperbolic", [1.0, math.inf, 1.0, 1.0], ValueError, _RADII),
    ("potential_gradient", math.nan, ValueError, _TARGET),
    ("potential_gradient", [0.0, math.inf, 0.0, 0.0], ValueError, _TARGET),
    ("potential_value", math.nan, ValueError, _TARGET),
    ("newton_solve", [math.nan, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0], ValueError, _RADII),
    ("newton_solve", [1.0, 1.0, math.inf, 1.0, 1.0, 1.0, 1.0], ValueError, _RADII),
    ("newton_solve", [1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 1.0], ValueError, _RADII),
    ("newton_solve-target", [0.0, 0.0, 0.0], ValueError, _TARGET_LENGTH),
    ("flow_rhs", [1.0, 1.0, 1.0, math.inf], ValueError, _RADII),
    ("run_flow", [1.0, math.nan, 1.0, 1.0], ValueError, _RADII),
    ("FlowSpec", math.nan, ValueError, "alpha must be finite"),
    ("WeightedTriangulation", math.nan, WeightError, "is not finite"),
    ("WeightedTriangulation", -math.inf, WeightError, "is not finite"),
    ("WeightedTriangulation-edges", [1.0, 1.0, math.inf, 1.0, 1.0, 1.0], WeightError,
     r"weight inf for edge \(0, 3\) is not finite"),
    ("edge_length-weight", math.nan, ValueError, "weights must be finite"),
    ("edge_length-weight-hyperbolic", math.inf, ValueError, "weights must be finite"),
]


@pytest.mark.parametrize(
    "call, bad, error, message", BAD_INPUT, ids=[f"{row[0]}-{row[1]}" for row in BAD_INPUT]
)
def test_bad_input_raises_its_typed_error(call, bad, error, message):
    # the error is raised, as this type exactly, before any warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=message) as raised:
            BAD_INPUT_CALLS[call](np.asarray(bad, dtype=float))
    assert type(raised.value) is error


def test_packing_metric_validation():
    m = PackingMetric(np.array([1.0, 2.0]), EUC)
    np.testing.assert_allclose(m.g, np.array([1.0, 4.0]))
    with pytest.raises(ValueError):
        PackingMetric(np.array([1.0, -1.0]), EUC)
    with pytest.raises(ValueError):
        PackingMetric(np.array([1.0, np.nan]), EUC)
    for radii in (np.array([]), np.ones((2, 2))):
        with pytest.raises(ValueError, match="radii must be a nonempty vector"):
            PackingMetric(radii, EUC)
    back = PackingMetric.from_u(m.u, EUC)
    np.testing.assert_allclose(back.radii, m.radii, rtol=1e-14)
