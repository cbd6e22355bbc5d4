"""Per-face metric geometry for circle packing metrics.

Radii induce edge lengths through the background geometry; faces carry inner
angles through the tangent half-angle law on the gaps p - l, p the
semi-perimeter (Kahan, "Miscalculating Area and Angles of a Needle-like
Triangle"). The gaps are computed and kept doubled, 2 (p - l), which is
exact, so their signs and ratios are those of the gaps; the angle and area
formulas read them as such. Everything here is a pure function of its
arguments, apart from the face-mask buffer a caller may pass to be filled.
Angles admit a constant extension past triangle-inequality failure: pi at the
vertex opposite the dominating edge, zero at the other two.

Coordinates: s_i = r_i (Euclidean) or tanh(r_i/2) (hyperbolic); g_i = s_i^2;
u_i = ln s_i^2. These are always derived from radii, never stored.

Edge lengths come from one gather of the radii by the triangulation's (2, E)
`edge_ends`, one length rule for every caller, edge_length included. The
gaps of a face corner c take three lengths, l_c, l_{c+1} and l_{c-1}.
`corner_angles` computes the edge lengths from radii and gathers all three
(F, 3) columns at once by the triangulation's `gap_plan`, built once by
WeightedTriangulation. It returns a bare (F, 3) array from one angle core,
which tests admissibility with a single reduction over the gaps and builds
the per-face degeneracy mask only when that test fails, into a (F,) bool
buffer a caller may pass as `degenerate` (all False on admissible input).
That test and its errors are one face check, which `total_area` runs on its
own gaps; an AdmissibilityError it raises carries the failing faces, so a
caller need not find them again.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import AdmissibilityError, DomainError
from .surface import _CORNER_CYCLE, Geometry

BIG_RADIUS = 350.0  # beyond this, hyperbolic lengths switch to a log-sum-exp form

# fl[:, _NEXT][:, c] is fl[:, c + 1] and fl[:, _PREV][:, c] is fl[:, c - 1] (mod 3)
_NEXT, _PREV = _CORNER_CYCLE[1], _CORNER_CYCLE[2]


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
        _finite_positive(r)

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


# -- coordinates ------------------------------------------------------------------


def _finite_positive(r):
    """r as a float array, refused with ValueError unless every entry is
    finite and positive."""
    r = np.asarray(r, dtype=float)
    # NaN fails the first test and inf the second
    if not ((r > 0.0).all() and (r < np.inf).all()):
        raise ValueError("radii must be finite and positive")
    return r


def s_of_r(r, geometry):
    """s_i = r_i (Euclidean) or tanh(r_i/2) (hyperbolic). Radii must be
    finite and positive, or ValueError is raised."""
    r = _finite_positive(r)
    if geometry is Geometry.EUCLIDEAN:
        return r
    return np.tanh(r / 2.0)


def _log_coth_half(x):
    """ln coth(x/2) for x > 0, to a few ulps; the function is its own inverse.

    Below x = 1 it is log1p(e^-x) - log(-expm1(-x)), whose second term takes
    x down to the smallest subnormal; from 1 on, log1p(2 e^-x / -expm1(-x)),
    which keeps the bits the first form loses to cancellation (half of them
    by x = 40). A scalar gives a scalar.
    """
    x = np.asarray(x, dtype=float)
    small = x < 1.0
    out = np.empty_like(x)
    a, b = x[small], x[~small]
    out[small] = np.log1p(np.exp(-a)) - np.log(-np.expm1(-a))
    out[~small] = np.log1p(2.0 * np.exp(-b) / -np.expm1(-b))
    return out[()]


def u_of_r(r, geometry):
    """u_i = ln s_i^2 (see s_of_r). Euclidean: any real; hyperbolic: -2 ln coth(r/2),
    always negative, also where tanh(r/2) rounds to 1 (r beyond about 38)."""
    r = _finite_positive(r)
    return 2.0 * np.log(r) if geometry is Geometry.EUCLIDEAN else -2.0 * _log_coth_half(r)


def r_of_u(u, geometry):
    """The radii of u-coordinates. DomainError is raised for hyperbolic
    coordinates that are not negative, and whenever a radius would not be
    finite and positive: Euclidean u beyond about 1419 overflows, u far
    below 0 underflows to r = 0, and NaN gives NaN."""
    u = np.asarray(u, dtype=float)
    # an overflow, and the division by 0 at u just below 0, are refused below
    with np.errstate(over="ignore", divide="ignore"):
        if geometry is Geometry.EUCLIDEAN:
            r = np.exp(u / 2.0)
        elif np.any(u >= 0.0):
            raise DomainError("hyperbolic u-coordinates must be negative")
        else:
            r = _log_coth_half(-u / 2.0)
    if not ((r > 0.0).all() and (r < np.inf).all()):
        raise DomainError("u-coordinates give radii that are not finite and positive")
    return r


# -- edge lengths -----------------------------------------------------------------


def edge_length(r_i, r_j, weight, geometry):
    """Length of one edge. Scalar in, scalar out; arrays broadcast.

    Euclidean: sqrt(r_i^2 + r_j^2 + 2 r_i r_j I).
    Hyperbolic: cosh l = cosh r_i cosh r_j + I sinh r_i sinh r_j, evaluated as
    l = 2 asinh(sqrt(sinh^2((r_i - r_j)/2) + ((1+I)/2) sinh r_i sinh r_j)), and
    in a log-sum-exp form once either radius exceeds BIG_RADIUS. Radii must be
    finite and positive and weights finite, or ValueError is raised.
    """
    r_i, r_j, weight = (np.asarray(x, dtype=float) for x in (r_i, r_j, weight))
    r_i, r_j, weight = np.broadcast_arrays(r_i, r_j, weight)
    ends = _finite_positive(np.stack([r_i.ravel(), r_j.ravel()]))
    if not np.isfinite(weight).all():
        raise ValueError("weights must be finite")
    out = _lengths(ends, weight.ravel(), geometry)
    return float(out[0]) if r_i.ndim == 0 else out.reshape(r_i.shape)


def _lengths(ends, weight, geometry):
    """edge_length of the end radii `ends`, a (2, E) array that this may
    overwrite, and the (E,) weights."""
    r_i, r_j = ends[0], ends[1]  # indexing makes views faster than unpacking does
    if geometry is Geometry.EUCLIDEAN:
        cross = r_i * r_j
        cross *= weight
        cross += cross  # doubling is exact: the bits of 2.0 * r_i * r_j * I
        ends *= ends
        out = r_i + r_j
        out += cross
        return np.sqrt(out, out=out)
    big = np.maximum(r_i, r_j) > BIG_RADIUS
    if not big.any():
        return _hyp_length_direct(ends, weight)
    out = np.empty(big.shape, dtype=float)
    small = ~big
    if small.any():
        out[small] = _hyp_length_direct(ends[:, small], weight[small])
    out[big] = _hyp_length_stable(r_i[big], r_j[big], weight[big])
    return out


def _hyp_length_direct(ends, weight):
    # both terms of sinh^2(l/2) are >= 0 whenever I >= -1, so nothing cancels
    sh = np.sinh(ends)
    half = np.sinh((ends[0] - ends[1]) / 2.0) ** 2 + (0.5 + 0.5 * weight) * sh[0] * sh[1]
    if (half < 0.0).any():
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


def _vertex_radii(tri, r, count_only=False):
    """r as a float array, refused with ValueError unless it holds one radius
    per vertex of tri, each finite and positive unless `count_only`."""
    r = np.asarray(r, dtype=float)
    if r.shape != (tri.vertex_count,):
        raise ValueError(f"radii of shape {r.shape} for {tri.vertex_count} vertices")
    return r if count_only else _finite_positive(r)


def edge_lengths(tri, r):
    """Lengths of all edges, aligned with tri.edges, from one finite positive
    radius per vertex (else ValueError), gathered by tri.edge_ends."""
    return _lengths(_vertex_radii(tri, r)[tri.edge_ends], tri.weights, tri.geometry)


def face_lengths(tri, r):
    """(F, 3) lengths; column c is the length of the edge opposite corner c."""
    return edge_lengths(tri, r)[tri.face_edges]


# -- admissibility ----------------------------------------------------------------


def _gaps(la, lb, lc):
    """(F, 3) doubled gaps 2 (p - l_c) = min(l_{c+1}, l_{c-1}) + (max(l_{c+1},
    l_{c-1}) - l_c) from the columns la = l_c, lb = l_{c+1} and lc = l_{c-1},
    each to a few ulps and with the exact sign of its triangle inequality:
    when a gap can be small, the larger other length is within a factor 2 of
    l_c, so their difference is exact (Sterbenz). The gaps are kept doubled,
    since halving them would only be undone by the angle and area formulas."""
    g = np.maximum(lb, lc)
    g -= la
    g += np.minimum(lb, lc)  # addition commutes: the bits of min + (max - l_c)
    return g


def _surface_gaps(tri, r):
    """(F, 3) doubled gaps of every face corner at radii r, which the caller
    checks: the edge lengths, gathered by tri.gap_plan into the three columns."""
    lengths = _lengths(r[tri.edge_ends], tri.weights, tri.geometry)
    columns = lengths[tri.gap_plan]
    return _gaps(columns[0], columns[1], columns[2])


def _degenerate_mask(g):
    """Rows of gaps where some length is >= the sum of the other two (non-strict).

    Rows holding NaN count as degenerate, since no strict inequality holds.
    Three column comparisons cost less than one axis-1 reduction on (F, 3).
    Callers first test g.min() > 0.0, which NaN fails too, and build the
    mask only when that fails.
    """
    return ~((g[:, 0] > 0.0) & (g[:, 1] > 0.0) & (g[:, 2] > 0.0))


def _relative_slack(g):
    """(F,) least doubled gap of each row over their sum, the perimeter."""
    g0, g1, g2 = g[:, 0], g[:, 1], g[:, 2]
    return np.minimum(np.minimum(g0, g1), g2) / (g0 + g1 + g2)


def triangle_slack(lengths):
    """Minimum triangle-inequality slack relative to the perimeter.

    Positive iff the triple is strictly admissible; rows of a (F, 3) array
    are handled at once. Column arithmetic, in the summation order of
    sum(axis=-1), costs less than two axis reductions.
    """
    fl = np.asarray(lengths, dtype=float)
    a, b, c = fl[..., 0], fl[..., 1], fl[..., 2]
    total = a + b + c
    return (total - 2.0 * np.maximum(np.maximum(a, b), c)) / total


def admissible(tri, r):
    """Whether every face satisfies strict triangle inequalities.

    Returns (ok, violating_face_indices).
    """
    g = _surface_gaps(tri, _vertex_radii(tri, r))
    if g.min() > 0.0:
        return True, []
    return False, np.nonzero(_degenerate_mask(g))[0].tolist()


# -- angles -----------------------------------------------------------------------


def _half_angle_law(g, hyperbolic):
    """Corner angles of strictly admissible rows from their doubled gaps g
    (others come out NaN or arbitrary): tan(theta_a/2) = rho / h_a with
    gaps h = g/2 and inradius rho^2 = h0 h1 h2 / p (Euclidean), or
    tanh(rho) / sinh(h_a) with tanh^2 rho = prod sinh(h) / sinh(p)
    (hyperbolic), here divided through by e^{h_a}; the exponents cancel since
    sum(h) = p, so no length overflows it. Euclidean rho and h are both
    doubled here, which leaves their ratio, and so the angle, as it is."""
    g0, g1, g2 = g[:, 0], g[:, 1], g[:, 2]
    p = g0 + g1  # 2p, in the summation order of g.sum(axis=1)
    p += g2
    if hyperbolic:
        q = -np.expm1(-g)
        rho = np.sqrt(q[:, 0] * q[:, 1] * q[:, 2] / -np.expm1(-p))
        angles = np.arctan2(rho[:, None] * np.exp(-0.5 * g), q)
    else:
        rho = np.divide(g0, p, out=p)
        rho *= g1
        rho *= g2
        np.sqrt(rho, out=rho)
        angles = np.arctan2(rho[:, None], g)
    angles += angles
    return angles


def _checked_faces(g, extended):
    """The face check of the angles and the area on a (F, 3) gap array: None
    when every row is strictly admissible, else the (F,) mask of the
    degenerate rows and the (k, 3) mask of the corners opposite their
    dominating edges. Without `extended` a degenerate row raises
    AdmissibilityError, whose `faces` are the degenerate rows; with it, one
    that no single edge dominates raises DomainError."""
    # every row strictly admissible; NaN fails this, as it fails the mask, and
    # `initial` lets a zero-row array through
    if np.minimum.reduce(g, axis=None, initial=np.inf) > 0.0:
        return None
    mask = _degenerate_mask(g)
    if not extended:
        bad = np.flatnonzero(mask).tolist()
        # the extension cannot take a face of non-finite lengths either
        nonfinite = np.flatnonzero(~np.isfinite(g).all(axis=1)).tolist()
        if nonfinite:
            raise AdmissibilityError(f"faces {nonfinite} have non-finite edge lengths", bad)
        raise AdmissibilityError(f"inadmissible faces {bad}; pass extended=True", bad)
    dominating = g[mask] <= 0.0
    if np.any(dominating.sum(axis=1) != 1):
        raise DomainError(
            "no single edge dominates a degenerate face; lengths are not positive and finite"
        )
    return mask, dominating


def _gap_angles(g, geometry, extended, degenerate=None):
    """(F, 3) corner angles from a (F, 3) gap array, angle c of a row at the
    corner opposite length c. Without `extended`, every row must be strictly
    admissible; with it, degenerate rows receive the constant extension. A
    given (F,) bool array `degenerate` receives the per-face mask."""
    hyperbolic = geometry is Geometry.HYPERBOLIC
    verdict = _checked_faces(g, extended)
    if verdict is None:
        if degenerate is not None:
            degenerate.fill(False)
        return _half_angle_law(g, hyperbolic)
    mask, dominating = verdict
    # only degenerate rows (NaN rows among them) give invalid values, and
    # their angles are overwritten by the extension: pi at the corner
    # opposite the dominating edge
    with np.errstate(invalid="ignore"):
        angles = _half_angle_law(g, hyperbolic)
    angles[mask] = np.where(dominating, np.pi, 0.0)
    if degenerate is not None:
        degenerate[:] = mask
    return angles


def corner_angles(tri, r, extended=False, degenerate=None):
    """(F, 3) array of all corner angles of the surface at radii r (see
    _gap_angles). Only the count of the radii is checked."""
    g = _surface_gaps(tri, _vertex_radii(tri, r, count_only=True))
    return _gap_angles(g, tri.geometry, extended, degenerate)


# -- areas ------------------------------------------------------------------------


def total_area(tri, r, extended=False):
    """Total hyperbolic area by L'Huilier's formula on the gaps,
    tan(A/4)^2 = tanh(p/2) prod tanh(g/2), free of the cancellation in
    pi - sum(theta); degenerate faces contribute zero under the extension.
    The faces pass the angles' own check, so the area raises what
    corner_angles raises at the same radii, and computes no angle."""
    if tri.geometry is not Geometry.HYPERBOLIC:
        raise ValueError("area is defined for hyperbolic surfaces")
    g = _surface_gaps(tri, _vertex_radii(tri, r))
    _checked_faces(g, extended)
    g = np.maximum(g, 0.0)
    # g is doubled, so g/4 is the gap's half and the row sum over 4 is p/2
    t = np.tanh(g / 4.0)
    tp = np.tanh(g.sum(axis=1) / 4.0)
    return float(np.sum(4.0 * np.arctan(np.sqrt(tp * t[:, 0] * t[:, 1] * t[:, 2]))))
