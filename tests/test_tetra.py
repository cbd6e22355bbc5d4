"""The symmetric tetrahedron family and its two constant-curvature metrics."""

import math

import numpy as np
import pytest

from idcurv import (
    DomainError,
    TetraFamily,
    X_SUP,
    curvature_field,
    curvature_residual,
    edge_length,
    f_curve,
    find_second_root,
    tetrahedron,
    write_f_curve,
)


def test_unit_point_is_a_root():
    assert abs(curvature_residual(1.0)) < 1e-14


def test_value_at_two_is_negative():
    # closed form: arcsin(sqrt(6/13)) - 11 pi / 39
    expected = math.asin(math.sqrt(6.0 / 13.0)) - 11.0 * math.pi / 39.0
    got = curvature_residual(2.0)
    assert got < 0.0
    assert abs(got - expected) < 1e-15


def test_right_boundary_limit():
    # f -> pi/6 + 2 pi / (9 (4+sqrt 18)^2 + 3) > 0 from the left
    limit = math.pi / 6.0 + 2.0 * math.pi / (9.0 * X_SUP**2 + 3.0)
    got = curvature_residual(X_SUP - 1e-12)
    assert got > 0.0
    assert abs(got - limit) < 1e-5


def test_domain_errors():
    for x in (0.0, -1.0, X_SUP, X_SUP + 1.0):
        with pytest.raises(DomainError):
            curvature_residual(x)


def test_residual_vanishes_iff_curvature_constant():
    tet = tetrahedron()
    for x in (0.7, 1.0, 2.0, 3.5, find_second_root().x0):
        R = curvature_field(tet, np.array([1.0, x, x, x])).R
        spread = float(np.max(R) - np.min(R))
        if abs(curvature_residual(x)) < 1e-12:
            assert spread < 1e-10
        else:
            assert spread > 1e-6


def test_family_lengths_match_geometry():
    tet = tetrahedron()
    for x in (0.5, 1.0, 3.0, 8.0):
        fam = TetraFamily(x)
        assert np.array_equal(fam.radii, (1.0, x, x, x))
        spoke = edge_length(1.0, x, 2.0, tet.geometry)
        rim = edge_length(x, x, 2.0, tet.geometry)
        assert abs(fam.spoke_length - spoke) < 1e-14
        assert abs(fam.rim_length - rim) < 1e-14
        assert abs(fam.spoke_length - math.sqrt(x * x + 4 * x + 1)) < 1e-14
        assert abs(fam.rim_length - math.sqrt(6.0) * x) < 1e-14


def test_family_admissibility_boundary():
    assert TetraFamily(8.0).is_admissible
    assert not TetraFamily(X_SUP + 0.01).is_admissible


def test_second_root_bracket_and_quality():
    root = find_second_root()
    assert 2.0 < root.x0 < X_SUP
    assert abs(curvature_residual(root.x0)) < 1e-12
    # frozen value, bisection is deterministic
    assert abs(root.x0 - 3.8133851236023752) < 1e-12
    assert abs(root.curvature - (2.0 * math.pi - 6.0 * math.asin(
        math.sqrt(6.0) * root.x0 / (2.0 * math.sqrt(root.x0**2 + 4 * root.x0 + 1))
    ))) < 1e-12


def test_two_metrics_not_proportional():
    root = find_second_root()
    a = np.array([1.0, 1.0, 1.0, 1.0])
    b = np.array([1.0, root.x0, root.x0, root.x0])
    ratios = b / a
    assert np.ptp(ratios) > 1.0


def test_bad_bracket_rejected():
    with pytest.raises(ArithmeticError, match="bracket"):
        find_second_root(lo=0.5, hi=0.9)


def test_curve_shape_and_io(tmp_path):
    curve = f_curve()
    assert curve.shape == (751, 2)
    assert np.all(np.diff(curve[:, 0]) > 0.0)
    assert curve[0, 0] == 0.5 and curve[-1, 0] == 8.0
    # one sign change in (2, 8): the second root
    tail = curve[curve[:, 0] >= 2.0]
    signs = np.sign(tail[:, 1])
    flips = np.sum(signs[:-1] != signs[1:])
    assert flips == 1

    path = tmp_path / "curve.csv"
    write_f_curve(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,f_x"
    assert len(lines) == 752
    back = np.genfromtxt(path, delimiter=",", skip_header=1)
    assert np.array_equal(back, curve)


def test_curve_rejects_bad_range():
    with pytest.raises(DomainError):
        f_curve(lo=0.0, hi=8.0)
    with pytest.raises(DomainError):
        f_curve(lo=0.5, hi=X_SUP + 1.0)
    with pytest.raises(ValueError, match="at least two samples"):
        f_curve(samples=1)
