"""Per-face metric geometry for circle packing metrics.

Radii induce edge lengths through the background geometry; faces carry inner
angles through the laws of cosines. Everything here is a pure function of its
arguments. Angles admit a constant extension past triangle-inequality failure:
pi at the vertex opposite the dominating edge, zero at the other two.

Coordinates: s_i = r_i (Euclidean) or tanh(r_i/2) (hyperbolic); g_i = s_i^2;
u_i = ln s_i^2. These are always derived from radii, never stored.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import AdmissibilityError, DomainError
from .surface import Geometry

CLAMP_TOL = 1e-12  # trig arguments may be clamped only this close to the boundary
BIG_RADIUS = 350.0  # beyond this, hyperbolic lengths/angles switch to stable forms


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
    Hyperbolic: arccosh(cosh r_i cosh r_j + I sinh r_i sinh r_j), with a
    log-sum-exp form once either radius exceeds BIG_RADIUS.
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
    arg = np.cosh(r_i) * np.cosh(r_j) + weight * np.sinh(r_i) * np.sinh(r_j)
    low = arg < 1.0
    if np.any(low):
        if np.any(arg < 1.0 - CLAMP_TOL):
            raise DomainError(
                f"arccosh argument {float(np.min(arg))} < 1; "
                "weights below -1 cannot induce a hyperbolic length"
            )
        arg = np.maximum(arg, 1.0)
    return np.arccosh(arg)


def _hyp_length_stable(r_i, r_j, weight):
    # cosh r_i cosh r_j + I sinh r_i sinh r_j
    #   = ((1+I)/4) e^{r_i+r_j} (1 + c (e^{-2 r_i} + e^{-2 r_j}) + e^{-2(r_i+r_j)})
    # with c = (1-I)/(1+I); the bracket is >= (1-e^{-2 r_i})(1-e^{-2 r_j}) > 0.
    # At these magnitudes arccosh(A) = ln(2A) to double precision.
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


def _degenerate_mask(fl):
    """Faces where some length is >= the sum of the other two (non-strict).

    Rows holding NaN count as degenerate, since no strict inequality holds.
    """
    total = fl.sum(axis=1)
    return ~(2.0 * fl.max(axis=1) < total)


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
    fl = face_lengths(tri, r)
    bad = np.nonzero(_degenerate_mask(fl))[0]
    return len(bad) == 0, bad.tolist()


# -- angles -----------------------------------------------------------------------


def _checked_arccos(cosv, context):
    bad = np.abs(cosv) > 1.0 + CLAMP_TOL
    if np.any(bad):
        worst = float(cosv.flat[np.argmax(np.abs(cosv))])
        raise DomainError(f"{context}: cosine {worst} outside [-1, 1]")
    return np.arccos(np.clip(cosv, -1.0, 1.0))


def _euclidean_face_angles(fl):
    l0, l1, l2 = fl[:, 0], fl[:, 1], fl[:, 2]
    q0, q1, q2 = l0**2, l1**2, l2**2
    cos0 = (q1 + q2 - q0) / (2.0 * l1 * l2)
    cos1 = (q0 + q2 - q1) / (2.0 * l0 * l2)
    cos2 = (q0 + q1 - q2) / (2.0 * l0 * l1)
    cosv = np.stack([cos0, cos1, cos2], axis=1)
    return _checked_arccos(cosv, "euclidean angle")


def _hyperbolic_face_angles(fl):
    big = fl.max(axis=1) > BIG_RADIUS
    out = np.empty_like(fl)
    if np.any(~big):
        ch = np.cosh(fl[~big])
        sh = np.sinh(fl[~big])
        cols = []
        for a in range(3):
            b, c = (a + 1) % 3, (a + 2) % 3
            cols.append((ch[:, b] * ch[:, c] - ch[:, a]) / (sh[:, b] * sh[:, c]))
        out[~big] = _checked_arccos(np.stack(cols, axis=1), "hyperbolic angle")
    if np.any(big):
        out[big] = _hyperbolic_face_angles_stable(fl[big])
    return out


def _hyperbolic_face_angles_stable(fl):
    # Write cosh x = e^x (1 + e^{-2x})/2 and sinh x = e^x (1 - e^{-2x})/2:
    #   cos theta_a = ((1+xb)(1+xc) - 2 e^{a-b-c} (1+xa)) / ((1-xb)(1-xc))
    # with xk = e^{-2 l_k}. Valid without overflow whenever a < b + c.
    x = np.exp(-2.0 * fl)
    cols = []
    for a in range(3):
        b, c = (a + 1) % 3, (a + 2) % 3
        gap = np.exp(fl[:, a] - fl[:, b] - fl[:, c])
        num = (1.0 + x[:, b]) * (1.0 + x[:, c]) - 2.0 * gap * (1.0 + x[:, a])
        den = (1.0 - x[:, b]) * (1.0 - x[:, c])
        cols.append(num / den)
    return _checked_arccos(np.stack(cols, axis=1), "hyperbolic angle (large length)")


def _extension_constants(fl, rows):
    """Extended angles (pi at the corner opposite the dominating edge) for the
    selected degenerate rows of a (F, 3) length array."""
    sub = fl[rows]
    total = sub.sum(axis=1)
    dominating = (2.0 * sub) >= total[:, None]
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
    fl = np.asarray(lengths, dtype=float)
    degenerate = _degenerate_mask(fl)
    if np.any(degenerate) and not extended:
        bad = np.nonzero(degenerate)[0].tolist()
        raise AdmissibilityError(f"inadmissible faces {bad}; pass extended=True")

    angles = np.empty_like(fl)
    good = ~degenerate
    if np.any(good):
        if geometry is Geometry.EUCLIDEAN:
            angles[good] = _euclidean_face_angles(fl[good])
        else:
            angles[good] = _hyperbolic_face_angles(fl[good])
    if np.any(degenerate):
        angles[degenerate] = _extension_constants(fl, degenerate)
    return CornerAngles(angles=angles, degenerate=degenerate)


def corner_angles(tri, r, extended=False) -> CornerAngles:
    """All corner angles of the surface at radii r (see face_angles)."""
    return face_angles(face_lengths(tri, r), tri.geometry, extended)


# -- areas ------------------------------------------------------------------------


def total_area(tri, r, extended=False):
    """Total hyperbolic area; degenerate faces contribute zero under the extension."""
    if tri.geometry is not Geometry.HYPERBOLIC:
        raise ValueError("area is defined for hyperbolic surfaces")
    ca = corner_angles(tri, r, extended=extended)
    return float(np.sum(np.pi - ca.angles.sum(axis=1)))
