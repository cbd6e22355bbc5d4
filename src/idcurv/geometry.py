"""Per-face metric geometry for circle packing metrics.

Radii induce edge lengths through the background geometry; faces carry inner
angles through the tangent half-angle law on the gaps p - l, p the
semi-perimeter (Kahan, "Miscalculating Area and Angles of a Needle-like
Triangle"). Everything here is a pure function of its arguments. Angles admit
a constant extension past triangle-inequality failure: pi at the vertex
opposite the dominating edge, zero at the other two.

Coordinates: s_i = r_i (Euclidean) or tanh(r_i/2) (hyperbolic); g_i = s_i^2;
u_i = ln s_i^2. These are always derived from radii, never stored.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import AdmissibilityError, DomainError
from .surface import Geometry

BIG_RADIUS = 350.0  # beyond this, hyperbolic lengths switch to a log-sum-exp form


@dataclasses.dataclass(frozen=True)
class PackingMetric:
    """Radii plus the geometry that interprets them."""

    radii: np.ndarray
    geometry: Geometry

    def __post_init__(self):
        r = np.asarray(self.radii, dtype=float)
        object.__setattr__(self, "radii", r)
        if r.ndim != 1 or len(r) == 0:
            raise ValueError("radii must be a nonempty vector")
        if not np.all(np.isfinite(r)) or np.any(r <= 0.0):
            raise ValueError("radii must be finite and positive")

    @property
    def s(self):
        return s_of_r(self.radii, self.geometry)

    @property
    def g(self):
        return self.s**2

    @property
    def u(self):
        return u_of_r(self.radii, self.geometry)

    @classmethod
    def from_u(cls, u, geometry):
        return cls(r_of_u(np.asarray(u, dtype=float), geometry), geometry)


@dataclasses.dataclass(frozen=True)
class CornerAngles:
    """Angles per (face, corner) plus a per-face degeneracy flag.

    angles[f, c] is the angle at corner c of face f; degenerate[f] marks faces
    where a triangle inequality failed and the constant extension was used.
    """

    angles: np.ndarray
    degenerate: np.ndarray


# -- coordinates ------------------------------------------------------------------


def s_of_r(r, geometry):
    r = np.asarray(r, dtype=float)
    if geometry is Geometry.EUCLIDEAN:
        return r
    return np.tanh(r / 2.0)


def u_of_r(r, geometry):
    """u_i = ln s_i^2. Euclidean: any real; hyperbolic: always negative."""
    r = np.asarray(r, dtype=float)
    if geometry is Geometry.EUCLIDEAN:
        return 2.0 * np.log(r)
    return 2.0 * np.log(np.tanh(r / 2.0))


def r_of_u(u, geometry):
    u = np.asarray(u, dtype=float)
    if geometry is Geometry.EUCLIDEAN:
        return np.exp(u / 2.0)
    if np.any(u >= 0.0):
        raise DomainError("hyperbolic u-coordinates must be negative")
    return 2.0 * np.arctanh(np.exp(u / 2.0))


# -- edge lengths -----------------------------------------------------------------


def edge_length(r_i, r_j, weight, geometry):
    """Length of one edge. Scalar in, scalar out; arrays broadcast.

    Euclidean: sqrt(r_i^2 + r_j^2 + 2 r_i r_j I).
    Hyperbolic: cosh l = cosh r_i cosh r_j + I sinh r_i sinh r_j, evaluated as
    l = 2 asinh(sqrt(sinh^2((r_i - r_j)/2) + ((1+I)/2) sinh r_i sinh r_j)), and
    in a log-sum-exp form once either radius exceeds BIG_RADIUS.
    """
    r_i = np.asarray(r_i, dtype=float)
    r_j = np.asarray(r_j, dtype=float)
    weight = np.asarray(weight, dtype=float)
    if geometry is Geometry.EUCLIDEAN:
        return np.sqrt(r_i**2 + r_j**2 + 2.0 * r_i * r_j * weight)

    big = np.maximum(r_i, r_j) > BIG_RADIUS
    if not np.any(big):
        return _hyp_length_direct(r_i, r_j, weight)
    r_i, r_j, weight, big = np.broadcast_arrays(
        r_i, r_j, weight, big, subok=False
    )
    out = np.empty(big.shape, dtype=float)
    small = ~big
    if np.any(small):
        out[small] = _hyp_length_direct(r_i[small], r_j[small], weight[small])
    out[big] = _hyp_length_stable(r_i[big], r_j[big], weight[big])
    if out.ndim == 0:
        return float(out)
    return out


def _hyp_length_direct(r_i, r_j, weight):
    # both terms of sinh^2(l/2) are >= 0 whenever I >= -1, so nothing cancels
    half = np.sinh((r_i - r_j) / 2.0) ** 2 + (0.5 + 0.5 * weight) * np.sinh(r_i) * np.sinh(r_j)
    if np.any(half < 0.0):
        raise DomainError("weights below -1 cannot induce a hyperbolic length")
    return 2.0 * np.arcsinh(np.sqrt(half))


def _hyp_length_stable(r_i, r_j, weight):
    # cosh r_i cosh r_j + I sinh r_i sinh r_j
    #   = ((1+I)/4) e^{r_i+r_j} (1 + c (e^{-2 r_i} + e^{-2 r_j}) + e^{-2(r_i+r_j)})
    # with c = (1-I)/(1+I); the bracket is >= (1-e^{-2 r_i})(1-e^{-2 r_j}) > 0.
    # At these magnitudes acosh(A) = ln(2A) to double precision.
    if np.any(weight <= -1.0):
        raise DomainError("weights must exceed -1 for hyperbolic lengths")
    c = (1.0 - weight) / (1.0 + weight)
    x = np.exp(-2.0 * r_i)
    y = np.exp(-2.0 * r_j)
    return r_i + r_j + np.log((1.0 + weight) / 2.0) + np.log1p(c * (x + y) + x * y)


def edge_lengths(tri, r):
    """Lengths of all edges of the surface, aligned with tri.edges."""
    r = np.asarray(r, dtype=float)
    ri = r[tri.edges[:, 0]]
    rj = r[tri.edges[:, 1]]
    return edge_length(ri, rj, tri.weights, tri.geometry)


def face_lengths(tri, r):
    """(F, 3) lengths; column c is the length of the edge opposite corner c."""
    return edge_lengths(tri, r)[tri.face_edges]


# -- admissibility ----------------------------------------------------------------


def _gaps(fl):
    """(F, 3) gaps p - l, each to a few ulps and with the exact sign of its
    triangle inequality: when a gap can be small, the larger other length is
    within a factor 2 of l, so their difference is exact (Sterbenz)."""
    lb = fl[:, [1, 2, 0]]
    lc = fl[:, [2, 0, 1]]
    return 0.5 * (np.minimum(lb, lc) + (np.maximum(lb, lc) - fl))


def _degenerate_mask(g):
    """Rows of gaps where some length is >= the sum of the other two (non-strict).

    Rows holding NaN count as degenerate, since no strict inequality holds.
    """
    return ~(g.min(axis=1) > 0.0)


def triangle_slack(lengths):
    """Minimum triangle-inequality slack relative to the perimeter.

    Positive iff the triple is strictly admissible; rows of a (F, 3) array
    are handled at once.
    """
    fl = np.asarray(lengths, dtype=float)
    total = fl.sum(axis=-1)
    return (total - 2.0 * fl.max(axis=-1)) / total


def admissible(tri, r):
    """Whether every face satisfies strict triangle inequalities.

    Returns (ok, violating_face_indices).
    """
    bad = np.nonzero(_degenerate_mask(_gaps(face_lengths(tri, r))))[0]
    return len(bad) == 0, bad.tolist()


# -- angles -----------------------------------------------------------------------


def _half_angle_law(g, hyperbolic):
    """Corner angles of strictly admissible rows from their gaps g (others
    come out NaN or arbitrary): tan(theta_a/2) = rho / g_a with inradius
    rho^2 = g0 g1 g2 / p (Euclidean), or tanh(rho) / sinh(g_a) with tanh^2 rho
    = prod sinh(g) / sinh(p) (hyperbolic), here divided through by e^{g_a};
    the exponents cancel since sum(g) = p, so no length overflows it."""
    p = g.sum(axis=1)
    if hyperbolic:
        q = -np.expm1(-2.0 * g)
        rho = np.sqrt(q[:, 0] * q[:, 1] * q[:, 2] / -np.expm1(-2.0 * p))
        return 2.0 * np.arctan2(rho[:, None] * np.exp(-g), q)
    rho = np.sqrt(g[:, 0] / p * g[:, 1] * g[:, 2])
    return 2.0 * np.arctan2(rho[:, None], g)


def _extension_constants(g, rows):
    """Extended angles (pi at the corner opposite the dominating edge) for the
    selected degenerate rows of a (F, 3) gap array."""
    dominating = g[rows] <= 0.0
    if np.any(dominating.sum(axis=1) != 1):
        raise DomainError(
            "no single edge dominates a degenerate face; lengths are not positive and finite"
        )
    return np.where(dominating, np.pi, 0.0)


def face_angles(lengths, geometry, extended=False) -> CornerAngles:
    """Corner angles of each row of a (F, 3) length array.

    Angle c of a row sits at the corner opposite length c. Without
    `extended`, every row must be strictly admissible; with it, degenerate
    rows receive the constant extension.
    """
    g = _gaps(np.asarray(lengths, dtype=float))
    degenerate = _degenerate_mask(g)
    if np.any(degenerate) and not extended:
        bad = np.nonzero(degenerate)[0].tolist()
        raise AdmissibilityError(f"inadmissible faces {bad}; pass extended=True")

    with np.errstate(invalid="ignore"):
        angles = _half_angle_law(g, geometry is Geometry.HYPERBOLIC)
    if np.any(degenerate):
        angles[degenerate] = _extension_constants(g, degenerate)
    return CornerAngles(angles=angles, degenerate=degenerate)


def corner_angles(tri, r, extended=False) -> CornerAngles:
    """All corner angles of the surface at radii r (see face_angles)."""
    return face_angles(face_lengths(tri, r), tri.geometry, extended)


# -- areas ------------------------------------------------------------------------


def total_area(tri, r, extended=False):
    """Total hyperbolic area by L'Huilier's formula on the gaps,
    tan(A/4)^2 = tanh(p/2) prod tanh(g/2), free of the cancellation in
    pi - sum(theta); degenerate faces contribute zero under the extension."""
    if tri.geometry is not Geometry.HYPERBOLIC:
        raise ValueError("area is defined for hyperbolic surfaces")
    fl = face_lengths(tri, r)
    face_angles(fl, tri.geometry, extended)  # raises for faces the extension cannot take
    g = np.maximum(_gaps(fl), 0.0)
    t = np.tanh(g / 2.0)
    tp = np.tanh(g.sum(axis=1) / 2.0)
    return float(np.sum(4.0 * np.arctan(np.sqrt(tp * t[:, 0] * t[:, 1] * t[:, 2]))))
