"""Weighted closed triangulations: data model, file ingestion, validation.

A surface is a closed triangulated 2-manifold given purely combinatorially
(faces as vertex triples), a finite inversive distance per edge, and a
background geometry tag. Edges are derived from faces, never listed by the
caller, as one sorted array of keys min(i, j) * N + max(i, j). The readers of
mesh, radii and target files raise MeshFormatError, naming the file, for a
top level that is not an object or a non-number in a number field.
"""

from __future__ import annotations

import dataclasses
import enum
import json
from pathlib import Path

import numpy as np

from .errors import MeshFormatError, TopologyError, WeightError


# row k holds c + k (mod 3) for the corners c = 0, 1, 2
_CORNER_CYCLE = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])


class Geometry(enum.Enum):
    """Background geometry the faces are realized in."""

    EUCLIDEAN = "euclidean"
    HYPERBOLIC = "hyperbolic"


class WeightRegime(enum.Enum):
    """Allowed range for the inversive distances.

    NONNEGATIVE is the default: every weight >= 0. SIGNED admits weights
    down to (but not including) -1, subject to a per-face compatibility
    condition; see validate_weights.
    """

    NONNEGATIVE = "nonnegative"
    SIGNED = "signed"


@dataclasses.dataclass(frozen=True)
class WeightReport:
    """Outcome of a weight-regime validation. Failures are reported, not raised."""

    regime: WeightRegime
    passed: bool
    failures: tuple[str, ...] = ()


class WeightedTriangulation:
    """Closed triangulated surface with an inversive distance per edge.

    Validation happens at construction: faces must be integer vertex triples
    that repeat neither a vertex nor each other, every edge must lie in exactly
    two faces, the surface must be connected, and every weight must be finite.
    `weights` is one number for all edges, or a mapping {(i, j): w} or a
    sequence of ((i, j), w) pairs with one entry per edge, i and j integers.
    Edge (i, j), i < j, has the key i * N + j; edge lookups search the sorted
    key array. `edge_ends` holds it split back into the (2, E) rows i and j,
    contiguous, so that the edge lengths gather the end radii of all edges in
    one step; `edges` is its (E, 2) transpose, a view.

    One stable sort of the 3F corner keys (corner 3f + c keys the edge
    opposite it) builds the edge index and decides the faces: they pass when
    no face repeats a vertex, the sorted keys come in equal pairs, each above
    the one before, and no edge has one vertex opposite it in both its faces
    (which is where a face is listed twice). The sort's pairs are kept as
    `edge_corners[e]`, the two corners opposite edge e, lower first, so
    `edge_corners // 3` are the two faces of each edge. Which error to raise
    is worked out only when a test fails, as is each weight entry's.

    `gap_plan` is the gather plan of every angle evaluation, built here once:
    gap_plan[k, f, c] is the edge opposite corner c + k (mod 3) of face f, so
    one gather of the edge lengths by it gives the (F, 3) columns l_c,
    l_{c+1} and l_{c-1} that the triangle-inequality gaps need.
    `face_edges[f, c]`, the edge opposite corner c of face f, is its k = 0
    layer, a view, so the edge ids of the faces are stored once.

    `copies(b)` stacks b disjoint copies of the surface for the per-face
    evaluations, so that one call evaluates b radii vectors at once.
    """

    def __init__(self, vertex_count, faces, weights, geometry=Geometry.EUCLIDEAN):
        # not int(): it would truncate 4.5 and read True as 1
        if isinstance(vertex_count, bool) or not isinstance(vertex_count, (int, np.integer)):
            raise TopologyError(f"vertex_count must be an integer, not {vertex_count!r}")
        self.vertex_count = int(vertex_count)
        self.geometry = geometry
        faces = np.array(faces)  # a copy: the caller may edit its array later
        if self.vertex_count <= 0:
            raise TopologyError("vertex_count must be positive")
        if faces.ndim != 2 or faces.shape[1] != 3 or len(faces) == 0:
            raise TopologyError("faces must be a nonempty list of vertex triples")
        self.faces = _vertex_ids(faces, TopologyError, "face vertex indices")
        if self.faces.min() < 0 or self.faces.max() >= self.vertex_count:
            raise TopologyError("face vertex index out of range")
        if self.vertex_count > self.faces.size:  # more vertices than corners hold
            raise TopologyError("surface is disconnected (or has isolated vertices)")

        self._edge_keys, self.edge_ends, face_edges, self.edge_corners = self._derive_edges()
        self.edges = self.edge_ends.T
        # face_edges[:, _CORNER_CYCLE][f, k, c] is face_edges[f, c + k]; stored as [k, f, c]
        # so that each of the three columns a gather yields is contiguous
        self.gap_plan = np.ascontiguousarray(face_edges[:, _CORNER_CYCLE].transpose(1, 0, 2))
        self.face_edges = self.gap_plan[0]
        self.weights = self._resolve_weights(weights)
        self._check_connected()
        self._copies = {}

    # -- construction helpers -------------------------------------------------

    def _derive_edges(self):
        """Edge keys, edge_ends, face_edges and edge_corners from one stable
        sort of the 3F corner keys; the error is worked out only on failure."""
        n, faces = self.vertex_count, self.faces
        i, j, k = faces[:, 0], faces[:, 1], faces[:, 2]
        repeats = (i == j) | (j == k) | (i == k)
        # the edge opposite corner c of face (i, j, k): (j, k), (i, k), (i, j)
        a, b = faces[:, [1, 0, 0]], faces[:, [2, 2, 1]]
        corner_keys = (np.minimum(a, b) * n + np.maximum(a, b)).ravel()
        order = np.argsort(corner_keys, kind="stable")
        ranked = corner_keys[order]
        # every edge lies in exactly two faces iff the sorted keys come in equal
        # pairs, each pair above the one before
        valid = (
            not repeats.any()
            and len(ranked) % 2 == 0
            and np.all(ranked[0::2] == ranked[1::2])
            and np.all(ranked[2::2] > ranked[1:-1:2])
        )
        if valid:
            corners = order.reshape(-1, 2)
            # then a face is listed twice iff some edge has the same vertex
            # opposite it in both its faces
            opposite = faces.ravel()[corners]
            valid = not np.any(opposite[:, 0] == opposite[:, 1])
        if not valid:
            _topology_error(faces, repeats, ranked, order, n)
        keys = ranked[0::2].copy()
        face_edges = np.empty(len(order), dtype=np.int64)
        face_edges[order] = np.arange(len(order)) // 2
        return keys, np.stack(np.divmod(keys, n)), face_edges.reshape(faces.shape), corners

    def _edge_ids(self, a, b):
        """Index of the edge {a, b} for each pair, or -1 where it is not an edge."""
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        keys = lo * self.vertex_count + hi
        ids = np.minimum(np.searchsorted(self._edge_keys, keys), len(self._edge_keys) - 1)
        found = (self._edge_keys[ids] == keys) & (lo >= 0) & (hi < self.vertex_count)
        return np.where(found, ids, -1)

    def _resolve_weights(self, weights):
        if np.isscalar(weights):
            w = _number_array(weights, ndim=0)
            if w is None:
                raise WeightError(f"weight {weights!r} is not a number")
            w = np.full(len(self.edges), float(w))
        else:
            weights = list(weights.items() if hasattr(weights, "items") else weights)
            pairs = np.reshape([edge for edge, _ in weights], (len(weights), 2))
            pairs = _vertex_ids(pairs, WeightError, "weight key vertex indices")
            ids = self._edge_ids(pairs[:, 0], pairs[:, 1])
            # count 0 holds the non-edges, count e + 1 the entries for edge e
            counts = np.bincount(ids + 1, minlength=len(self.edges) + 1)
            if counts[0] or np.any(counts[1:] != 1):
                _weight_error(pairs, ids, counts, self.edges)
            values = _number_array([value for _, value in weights], ndim=1)
            if values is None:
                edge, value = next((e, v) for e, v in weights if _number_array(v, ndim=0) is None)
                raise WeightError(f"weight {value!r} for edge {tuple(edge)} is not a number")
            w = np.empty(len(self.edges))
            w[ids] = values
        if not np.isfinite(w).all():
            e = np.argmin(np.isfinite(w))
            i, j = self.edges[e].tolist()
            raise WeightError(f"weight {w[e]} for edge {(i, j)} is not finite")
        return w

    def _check_connected(self):
        """Label components by hooking and pointer jumping (Shiloach-Vishkin).

        label is a forest of pointers to smaller vertices whose roots label
        the components found so far. Each round hooks the larger root of every
        edge that joins two trees onto the smallest root across such edges,
        then jumps pointers until every vertex points at its root. A round
        leaves fewer roots, and the labels settle once no edge joins two trees.
        """
        a, b = self.edges[:, 0], self.edges[:, 1]
        label = np.arange(self.vertex_count)
        while True:
            la, lb = label[a], label[b]
            joins = la != lb
            if not joins.any():
                break
            la, lb = la[joins], lb[joins]
            np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
            while True:
                jumped = label[label]
                if np.array_equal(jumped, label):
                    break
                label = jumped
        if label.any():
            raise TopologyError("surface is disconnected (or has isolated vertices)")

    # -- queries ---------------------------------------------------------------

    @property
    def edge_count(self):
        return len(self.edges)

    @property
    def face_count(self):
        return len(self.faces)

    def weight_of(self, i, j):
        e = self._edge_ids(i, j)
        if e < 0:
            raise KeyError((min(i, j), max(i, j)))
        return float(self.weights[e])

    def face_weights(self):
        """Per-face weights aligned with face_edges: column c is the weight of
        the edge opposite corner c."""
        return self.weights[self.face_edges]

    def copies(self, count):
        """The disjoint union of `count` copies of this surface (self for 1).

        Copy b holds vertices N*b .. N*b + N - 1, edges E*b .. and faces F*b ..
        in this surface's order, so the radii of copy b are row b of a
        (count, N) stack, raveled, and every per-face evaluation of the union
        (geometry.edge_lengths, face_lengths, corner_angles, admissible,
        curvature.angle_deficits) gives each row the values it gets alone.
        The union is disconnected, so it is not a WeightedTriangulation; it
        carries only the attributes those evaluations read. Fewer copies are a
        prefix of more, so the largest union built is kept and smaller ones
        are views of it.
        """
        if count == 1:
            return self
        if count not in self._copies:
            largest = max(self._copies, default=0)
            if largest < count:
                self._copies = {count: _Copies.of(self, count)}
            else:
                self._copies[count] = self._copies[largest].prefix(count)
        return self._copies[count]

    def __repr__(self):
        return (
            f"WeightedTriangulation(V={self.vertex_count}, E={self.edge_count}, "
            f"F={self.face_count}, chi={euler_characteristic(self)}, "
            f"geometry={self.geometry.value})"
        )


def _number_array(value, ndim=None, size=None):
    """value as a float array with `ndim` axes and `size` entries (None: any),
    or None if it holds a string, a boolean or a null, is ragged or has
    another shape."""
    try:
        array = np.asarray(value)  # a ragged list raises ValueError
    except ValueError:
        return None
    if (array.dtype.kind not in "iuf" or ndim not in (None, array.ndim)
            or size not in (None, array.size)):
        return None
    # NumPy reads a boolean among numbers as 0 or 1, so the entries of a list
    # are looked at; a scalar's or an array's dtype already tells
    if array.ndim and not isinstance(value, np.ndarray):
        types = set(map(type, np.asarray(value, dtype=object).flat))
        if bool in types or np.bool_ in types:
            return None
    return array.astype(float)


def _vertex_ids(values, error, name):
    """An array of vertex indices as int64; `error` unless all are integers."""
    if values.dtype.kind == "f" and not np.all(np.isfinite(values) & (values == np.trunc(values))):
        raise error(f"{name} must be integers")
    return np.asarray(values, dtype=np.int64)


def _repeated(rows):
    """Mask of the rows of a 2-D array that equal an earlier row."""
    order = np.lexsort(rows.T[::-1])  # stable: equal rows stay in their order
    mask = np.zeros(len(rows), dtype=bool)
    mask[order[1:]] = np.all(rows[order[1:]] == rows[order[:-1]], axis=1)
    return mask


def _topology_error(faces, repeats, ranked, order, n):
    """Raise the TopologyError of faces that fail _derive_edges' test: the
    first face, in face order, that repeats a vertex or an earlier face, else
    the first edge, in order of appearance, not in exactly two faces.
    `ranked` is the corner keys sorted stably by `order`."""
    ordered = np.sort(faces, axis=1)
    bad = np.flatnonzero(repeats | _repeated(ordered))
    if len(bad):
        if repeats[bad[0]]:
            raise TopologyError(f"face {bad[0]} repeats a vertex")
        raise TopologyError(f"duplicate face {tuple(ordered[bad[0]].tolist())}")
    starts = np.flatnonzero(np.diff(ranked, prepend=-1))
    counts = np.diff(starts, append=len(ranked))
    bad = np.flatnonzero(counts != 2)
    e = bad[np.argmin(order[starts[bad]])]  # a stable sort puts each key's first corner first
    raise TopologyError(
        f"edge {divmod(int(ranked[starts[e]]), n)} lies in {counts[e]} face(s); "
        "a closed surface needs exactly 2"
    )


def _weight_error(pairs, ids, counts, edges):
    """Raise the WeightError of weight entries whose edge ids fail the
    one-per-edge count: the first entry, in entry order, for a non-edge or
    for an edge named before, else the first edge without an entry."""
    bad = np.flatnonzero((ids < 0) | _repeated(ids[:, None]))
    if len(bad):
        e = tuple(sorted(pairs[bad[0]].tolist()))
        if ids[bad[0]] < 0:
            raise WeightError(f"weight given for non-edge {e}")
        raise WeightError(f"duplicate weight for edge {e}")
    e = tuple(edges[np.argmin(counts[1:])].tolist())
    raise WeightError(f"missing weight for edge {e}")


@dataclasses.dataclass(frozen=True, eq=False)
class _Copies:
    """Disjoint copies of a triangulation; see WeightedTriangulation.copies."""

    count: int
    vertex_count: int
    geometry: Geometry
    faces: np.ndarray
    edge_ends: np.ndarray
    weights: np.ndarray
    gap_plan: np.ndarray

    @classmethod
    def of(cls, tri, count):
        offsets = np.arange(count)[:, None, None]
        n, e = tri.vertex_count, tri.edge_count
        return cls(
            count=count,
            vertex_count=count * n,
            geometry=tri.geometry,
            faces=(tri.faces + n * offsets).reshape(-1, 3),
            edge_ends=(tri.edge_ends[:, None] + n * np.arange(count)[:, None]).reshape(2, -1),
            weights=np.tile(tri.weights, count),
            gap_plan=(tri.gap_plan[:, None] + e * offsets).reshape(3, -1, 3),
        )

    def prefix(self, count):
        """The first `count` copies, as views."""
        faces = len(self.faces) * count // self.count
        edges = len(self.weights) * count // self.count
        return _Copies(
            count=count,
            vertex_count=self.vertex_count * count // self.count,
            geometry=self.geometry,
            faces=self.faces[:faces],
            edge_ends=self.edge_ends[:, :edges],
            weights=self.weights[:edges],
            gap_plan=self.gap_plan[:, :faces],
        )

    @property
    def face_edges(self):
        return self.gap_plan[0]

    @property
    def face_count(self):
        return len(self.faces)


def euler_characteristic(tri: WeightedTriangulation) -> int:
    return tri.vertex_count - tri.edge_count + tri.face_count


def validate_weights(tri: WeightedTriangulation, regime=WeightRegime.NONNEGATIVE) -> WeightReport:
    """Check the weights against a regime. Failures are reported, never raised.

    NONNEGATIVE: every I_ij >= 0.
    SIGNED: every I_ij > -1, and on every face (i,j,k) the three combinations
    I_ij + I_ik*I_jk, I_ik + I_ij*I_jk, I_jk + I_ij*I_ik are all >= 0.
    """
    edges, w = list(map(tuple, tri.edges.tolist())), tri.weights
    if regime is WeightRegime.NONNEGATIVE:
        failures = [f"edge {edges[e]}: weight {w[e]} < 0" for e in np.flatnonzero(~(w >= 0))]
    elif regime is WeightRegime.SIGNED:
        failures = [f"edge {edges[e]}: weight {w[e]} <= -1" for e in np.flatnonzero(~(w > -1))]
        # column c: the weight opposite corner c plus the product of the other two
        own, nxt, prv = w[tri.gap_plan]
        combos = own + nxt * prv
        labels = ("I_jk + I_ik*I_ij", "I_ik + I_jk*I_ij", "I_ij + I_jk*I_ik")
        failures += [
            f"face {tuple(tri.faces[f].tolist())}: {labels[c]} = {combos[f, c]} < 0"
            for f, c in zip(*np.nonzero(~(combos >= 0.0)))
        ]
    else:
        raise ValueError(f"unknown regime {regime!r}")
    return WeightReport(regime=regime, passed=not failures, failures=tuple(failures))


# -- file ingestion -------------------------------------------------------------


def _load_json(path):
    """The top-level object of a JSON file."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise MeshFormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise MeshFormatError(f"{path}: top level must be an object")
    return data


def _numbers(path, name, value, ndim=None, size=None):
    """A file's field as a float array (see _number_array); anything else is a
    MeshFormatError that names the file."""
    array = _number_array(value, ndim, size)
    if array is None:
        form = {0: "a number", 1: f"{size or 'a list of'} numbers"}.get(ndim, "numbers")
        raise MeshFormatError(f"{path}: {name} must be {form}")
    return array


def _uniform(path, data):
    """c of a {"uniform": c} object."""
    return float(_numbers(path, "'uniform'", data["uniform"], ndim=0))


def load_surface(path) -> WeightedTriangulation:
    """Load a mesh file.

    Format:
      { "geometry": "euclidean" | "hyperbolic",
        "vertex_count": N,
        "faces": [[i, j, k], ...],
        "weights": [{"edge": [i, j], "value": w}, ...]  or  {"uniform": c} }
    Indices are zero-based. An optional "regime" key names the default weight
    regime for validation tools (see surface_regime).
    """
    return _read_mesh(path)[0]


def _read_mesh(path):
    """The surface of a mesh file (see load_surface) and the file's parsed
    object, so that its other keys are read without parsing it again."""
    data = _load_json(path)  # a missing key reads as null
    try:
        geometry = Geometry(data.get("geometry"))
    except ValueError as exc:
        raise MeshFormatError(f"{path}: {exc}") from exc
    vertex_count, weights = data.get("vertex_count"), data.get("weights")
    if type(vertex_count) is not int:  # not isinstance: JSON true loads as a bool
        raise MeshFormatError(f"{path}: vertex_count must be an integer, not {vertex_count!r}")
    faces = _numbers(path, "faces", data.get("faces"))
    if isinstance(weights, dict) and "uniform" in weights:
        weights = _uniform(path, weights)
    elif isinstance(weights, list):
        try:
            weights = [(entry["edge"], entry["value"]) for entry in weights]
        except (KeyError, TypeError) as exc:
            raise MeshFormatError(f"{path}: weight entries must be 'edge'/'value' objects") from exc
        _numbers(path, "weight edges", [edge for edge, _ in weights])
        _numbers(path, "weight values", [value for _, value in weights], ndim=1)
    else:
        raise MeshFormatError(f"{path}: 'weights' must be a list or a 'uniform' object")
    return WeightedTriangulation(vertex_count, faces, weights, geometry), data


def surface_regime(path, data=None) -> WeightRegime:
    """The optional 'regime' key of the mesh file at `path` (default
    NONNEGATIVE), read from `data`, the file's parsed object, when given."""
    data = _load_json(path) if data is None else data
    try:
        return WeightRegime(data.get("regime", "nonnegative"))
    except ValueError as exc:
        raise MeshFormatError(f"{path}: {exc}") from exc


def load_radii(path, vertex_count=None) -> np.ndarray:
    """Load a radii file { "radii": [r_0, ..., r_{N-1}] }."""
    data = _load_json(path)
    radii = _numbers(path, "'radii'", data.get("radii"), ndim=1, size=vertex_count)
    if not np.all(np.isfinite(radii)) or np.any(radii <= 0.0):
        raise MeshFormatError(f"{path}: radii must be finite and positive")
    return radii


def load_target(spec, vertex_count):
    """A prescribed curvature target: None, a number (or its text), or the path
    of a file {"target": [T_0, ..., T_{N-1}]} or {"uniform": c}."""
    if spec is None:
        return None
    try:
        return float(spec)
    except (TypeError, ValueError):
        pass
    data = _load_json(spec)
    if "uniform" in data:
        return _uniform(spec, data)
    return _numbers(spec, "'target'", data.get("target"), ndim=1, size=vertex_count)


def save_radii(path, radii):
    path = Path(path)
    payload = {"radii": [float(f"{r:.17g}") for r in np.asarray(radii, dtype=float)]}
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


# -- stock surfaces --------------------------------------------------------------

TETRA_FACES = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))

# 7-vertex triangulated torus on the complete graph K7 (Csaszar/Moebius
# combinatorics): faces {i, i+1, i+3} and {i, i+2, i+3} mod 7.
CSASZAR_FACES = tuple(
    tuple(sorted(((i + a) % 7, (i + b) % 7, (i + c) % 7)))
    for i in range(7)
    for a, b, c in ((0, 1, 3), (0, 2, 3))
)


def tetrahedron(weight=2.0, geometry=Geometry.EUCLIDEAN) -> WeightedTriangulation:
    """Boundary of a tetrahedron: N=4, |E|=6, |F|=4, chi=2."""
    return WeightedTriangulation(4, TETRA_FACES, weight, geometry)


def csaszar_torus(weight=1.0, geometry=Geometry.EUCLIDEAN) -> WeightedTriangulation:
    """The 7-vertex torus: N=7, |E|=21, |F|=14, chi=0, every vertex degree 6."""
    return WeightedTriangulation(7, CSASZAR_FACES, weight, geometry)


def grid_torus(n, m, weight=1.0, geometry=Geometry.EUCLIDEAN) -> WeightedTriangulation:
    """The n x m grid torus, each square split along one diagonal: N=n*m,
    |E|=3N, |F|=2N, chi=0, every vertex degree 6 (needs n, m >= 3)."""
    if n < 3 or m < 3:
        raise ValueError("a grid torus needs n, m >= 3")
    i, j = np.meshgrid(np.arange(n), np.arange(m), indexing="ij")
    a = i * m + j
    b = ((i + 1) % n) * m + j
    c = ((i + 1) % n) * m + (j + 1) % m
    d = i * m + (j + 1) % m
    lower = np.stack([a, b, c], axis=-1).reshape(-1, 3)
    upper = np.stack([a, c, d], axis=-1).reshape(-1, 3)
    return WeightedTriangulation(n * m, np.concatenate([lower, upper]), weight, geometry)


def connected_sum(a, b, weight=1.0) -> WeightedTriangulation:
    """The connected sum of closed surfaces a and b, weight on every edge.

    Each loses its last face, and the two boundary triangles are glued with
    reversed orientation, so oriented surfaces give an oriented sum:
    V = V_a + V_b - 3, E = E_a + E_b - 3, F = F_a + F_b - 2 and
    chi = chi_a + chi_b - 2. The weights of a and b are not carried over.
    """
    if a.geometry is not b.geometry:
        raise ValueError("a connected sum needs both surfaces in one geometry")
    i, j, k = a.faces[-1]
    hole = b.faces[-1]
    # b's vertices follow a's, except the hole's, which become a's reversed
    index = np.empty(b.vertex_count, dtype=np.int64)
    rest = np.setdiff1d(np.arange(b.vertex_count), hole)
    index[rest] = a.vertex_count + np.arange(len(rest))
    index[hole] = (i, k, j)
    faces = np.concatenate([a.faces[:-1], index[b.faces[:-1]]])
    return WeightedTriangulation(a.vertex_count + len(rest), faces, weight, a.geometry)
