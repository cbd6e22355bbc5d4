import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import idcurv
from idcurv import (
    DomainError,
    Geometry,
    PackingMetric,
    admissible,
    angle_deficits,
    corner_angles,
    edge_length,
    face_angles,
    face_lengths,
    r_of_u,
    s_of_r,
    tetrahedron,
    total_area,
    triangle_slack,
    u_of_r,
)
from idcurv.errors import AdmissibilityError

EUC = Geometry.EUCLIDEAN
HYP = Geometry.HYPERBOLIC

radii_st = st.floats(min_value=0.05, max_value=20.0, allow_nan=False)
weight_st = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)


def row_angles(lengths, geometry, extended=False):
    """Angles of a single face through the (F, 3) path."""
    return face_angles(np.asarray(lengths, dtype=float)[None], geometry, extended).angles[0]


# -- edge lengths ---------------------------------------------------------------


def test_euclidean_length_oracles():
    assert edge_length(1.0, 1.0, 2.0, EUC) == pytest.approx(math.sqrt(6.0), abs=1e-15)
    assert edge_length(3.0, 4.0, 1.0, EUC) == pytest.approx(7.0, abs=1e-14)
    # tangent circles
    assert edge_length(2.0, 5.0, 1.0, EUC) == pytest.approx(7.0, abs=1e-14)


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
    ca = corner_angles(tri, r, extended=True)
    assert ca.degenerate.sum() == 3


def test_nan_radius_is_not_admissible(csaszar_euc):
    # a NaN length satisfies no strict inequality, so its faces are degenerate
    # and no single edge dominates them for the extension
    r = np.array([np.nan, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    ok, bad = admissible(csaszar_euc, r)
    assert not ok and bad
    with pytest.raises(AdmissibilityError):
        angle_deficits(csaszar_euc, r)
    with pytest.raises(DomainError):
        angle_deficits(csaszar_euc, r, extended=True)


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


def test_hyperbolic_u_range():
    # tanh(r/2) < 1 forces u < 0; nonnegative u is out of range
    with pytest.raises(DomainError):
        r_of_u(np.array([0.0]), HYP)
    with pytest.raises(DomainError):
        r_of_u(np.array([0.5]), HYP)


def test_packing_metric_validation():
    m = PackingMetric(np.array([1.0, 2.0]), EUC)
    np.testing.assert_allclose(m.g, np.array([1.0, 4.0]))
    with pytest.raises(ValueError):
        PackingMetric(np.array([1.0, -1.0]), EUC)
    with pytest.raises(ValueError):
        PackingMetric(np.array([1.0, np.nan]), EUC)
    back = PackingMetric.from_u(m.u, EUC)
    np.testing.assert_allclose(back.radii, m.radii, rtol=1e-14)
