import json
import re

import numpy as np
import pytest
from conftest import genus_two
from hypothesis import given, settings
from hypothesis import strategies as st

import idcurv
from idcurv import (
    Geometry,
    MeshFormatError,
    TopologyError,
    WeightError,
    WeightRegime,
    WeightedTriangulation,
    connected_sum,
    csaszar_torus,
    euler_characteristic,
    grid_torus,
    load_radii,
    load_surface,
    load_target,
    save_radii,
    surface_regime,
    tetrahedron,
    validate_weights,
)


def test_tetrahedron_counts():
    tri = tetrahedron()
    assert tri.vertex_count == 4
    assert tri.edge_count == 6
    assert tri.face_count == 4
    assert euler_characteristic(tri) == 2


def test_csaszar_counts():
    tri = csaszar_torus()
    assert tri.vertex_count == 7
    assert tri.edge_count == 21
    assert tri.face_count == 14
    assert euler_characteristic(tri) == 0
    # complete graph: every pair of vertices is an edge
    assert {tuple(e) for e in tri.edges} == {
        (i, j) for i in range(7) for j in range(i + 1, 7)
    }


@pytest.mark.parametrize("n, m", [(3, 3), (4, 7), (8, 8)])
def test_grid_torus_counts_and_degrees(n, m):
    tri = grid_torus(n, m, weight=2.0, geometry=Geometry.HYPERBOLIC)
    assert tri.vertex_count == n * m
    assert tri.edge_count == 3 * n * m
    assert tri.face_count == 2 * n * m
    assert euler_characteristic(tri) == 0
    assert np.all(np.bincount(tri.edges.ravel(), minlength=n * m) == 6)
    assert np.all(tri.weights == 2.0) and tri.geometry is Geometry.HYPERBOLIC


def test_grid_torus_needs_three_rows_and_columns():
    with pytest.raises(ValueError, match="n, m >= 3"):
        grid_torus(2, 5)


def oriented(tri):
    """Every edge is crossed once in each direction by the faces' vertex order."""
    directed = {(int(f[c]), int(f[(c + 1) % 3])) for f in tri.faces for c in range(3)}
    return len(directed) == 3 * tri.face_count


@pytest.mark.parametrize(
    "a, b, chi",
    [
        (grid_torus(6, 6), grid_torus(6, 6), -2),
        (grid_torus(3, 4), csaszar_torus(), -2),
        (tetrahedron(), grid_torus(5, 5), 0),
        (connected_sum(grid_torus(3, 3), grid_torus(3, 3)), grid_torus(4, 4), -4),
    ],
)
def test_connected_sum_counts_and_orientation(a, b, chi):
    tri = connected_sum(a, b, weight=0.5)
    assert tri.vertex_count == a.vertex_count + b.vertex_count - 3
    assert tri.edge_count == a.edge_count + b.edge_count - 3
    assert tri.face_count == a.face_count + b.face_count - 2
    assert euler_characteristic(tri) == chi
    # the stock tetrahedron and Csaszar faces are listed sorted, not oriented
    assert oriented(tri) == (oriented(a) and oriented(b))
    assert np.all(tri.weights == 0.5) and tri.geometry is a.geometry


def test_connected_sum_needs_one_geometry():
    with pytest.raises(ValueError, match="one geometry"):
        connected_sum(grid_torus(3, 3), grid_torus(3, 3, geometry=Geometry.HYPERBOLIC))


def test_closed_surface_edge_face_relation():
    for tri in (tetrahedron(), csaszar_torus()):
        assert 3 * tri.face_count == 2 * tri.edge_count


def test_face_edges_opposition():
    tri = tetrahedron()
    for f, face in enumerate(tri.faces):
        for c in range(3):
            edge = tri.edges[tri.face_edges[f, c]]
            # the edge opposite corner c must not contain that corner
            assert face[c] not in edge
            assert set(edge) <= set(face)


def test_repeated_vertex_rejected():
    with pytest.raises(TopologyError):
        WeightedTriangulation(3, [[0, 1, 1], [0, 1, 2]], 1.0)


def test_boundary_edge_rejected():
    with pytest.raises(TopologyError, match="exactly 2"):
        WeightedTriangulation(3, [[0, 1, 2]], 1.0)


def test_overused_edge_rejected():
    faces = [[0, 1, 2], [0, 1, 3], [0, 1, 4]]
    with pytest.raises(TopologyError):
        WeightedTriangulation(5, faces, 1.0)


def test_disconnected_surface_rejected():
    faces = list(idcurv.TETRA_FACES) + [
        [a + 4, b + 4, c + 4] for a, b, c in idcurv.TETRA_FACES
    ]
    with pytest.raises(TopologyError, match="connected"):
        WeightedTriangulation(8, faces, 1.0)


def test_isolated_vertex_rejected():
    # vertex 4 lies on no face, so no edge reaches it
    with pytest.raises(TopologyError, match="isolated"):
        WeightedTriangulation(5, idcurv.TETRA_FACES, 1.0)


@pytest.mark.parametrize("count", [13, 10**20])
def test_vertex_count_beyond_the_face_corners_rejected(count):
    # 12 face corners hold at most 12 vertices; a larger count is refused
    # before an array of its length is built or an edge key i * count + j
    # overflows
    with pytest.raises(TopologyError, match="isolated"):
        WeightedTriangulation(count, idcurv.TETRA_FACES, 1.0)


@pytest.mark.parametrize("count", [4.5, 4.0, True, np.True_, "4", np.float64(4.0)])
def test_vertex_count_not_an_integer_rejected(count):
    # int() would truncate 4.5 to a V = 4 tetrahedron and read True as 1
    with pytest.raises(TopologyError, match="vertex_count must be an integer"):
        WeightedTriangulation(count, idcurv.TETRA_FACES, 1.0)


@pytest.mark.parametrize("count", [4, np.int64(4), np.int32(4)])
def test_vertex_count_of_any_integer_type_accepted(count):
    tri = WeightedTriangulation(count, idcurv.TETRA_FACES, 1.0)
    assert tri.vertex_count == 4 and type(tri.vertex_count) is int


@pytest.mark.parametrize("copies", [2, 3, 5])
def test_components_are_found_in_any_vertex_order(copies):
    # disjoint tetrahedra under a random vertex relabelling: the labelling
    # must not depend on the component holding vertex 0 coming first
    rng = np.random.default_rng(copies)
    perm = rng.permutation(4 * copies)
    faces = [
        [perm[4 * k + v] for v in face]
        for k in range(copies)
        for face in idcurv.TETRA_FACES
    ]
    with pytest.raises(TopologyError, match="disconnected"):
        WeightedTriangulation(4 * copies, faces, 1.0)
    # a connected surface passes under the same kind of relabelling
    perm = rng.permutation(7)
    WeightedTriangulation(7, perm[np.asarray(idcurv.CSASZAR_FACES)], 1.0)


def test_faces_are_a_copy_of_the_input():
    # an int64 array needs no conversion, and must still not be kept as it is
    faces = np.array(idcurv.CSASZAR_FACES, dtype=np.int64)
    tri = WeightedTriangulation(7, faces, 1.0)
    assert not np.shares_memory(tri.faces, faces)
    K = idcurv.angle_deficits(tri, np.ones(7))
    faces[0] = [0, 0, 0]
    np.testing.assert_array_equal(idcurv.angle_deficits(tri, np.ones(7)), K)


def test_vertex_out_of_range_rejected():
    with pytest.raises(TopologyError):
        WeightedTriangulation(3, [[0, 1, 3], [0, 1, 2]], 1.0)


def test_weight_dict_roundtrip():
    weights = {}
    value = 0.0
    for i in range(4):
        for j in range(i + 1, 4):
            weights[(i, j)] = value
            value += 0.25
    tri = WeightedTriangulation(4, idcurv.TETRA_FACES, weights)
    for (i, j), w in weights.items():
        assert tri.weight_of(i, j) == w
        assert tri.weight_of(j, i) == w


def test_weight_for_missing_edge_rejected():
    weights = {(0, 1): 1.0}
    with pytest.raises(WeightError):
        WeightedTriangulation(4, idcurv.TETRA_FACES, weights)


def test_weight_for_nonedge_rejected():
    weights = {(i, j): 1.0 for i in range(4) for j in range(i + 1, 4)}
    weights[(0, 5)] = 1.0
    with pytest.raises(WeightError):
        WeightedTriangulation(4, idcurv.TETRA_FACES, weights)


def test_face_weights_alignment():
    tri = tetrahedron()
    fw = tri.face_weights()
    assert fw.shape == (4, 3)
    # uniform weights: every slot is the same
    assert np.all(fw == 2.0)


def test_validate_nonnegative_regime():
    tri = tetrahedron(weight=2.0)
    report = validate_weights(tri, WeightRegime.NONNEGATIVE)
    assert report.passed and not report.failures

    bad = WeightedTriangulation(4, idcurv.TETRA_FACES, -0.5)
    report = validate_weights(bad, WeightRegime.NONNEGATIVE)
    assert not report.passed


def test_validate_unknown_regime_rejected():
    with pytest.raises(ValueError, match="unknown regime 'bogus'"):
        validate_weights(tetrahedron(), "bogus")


def test_validate_signed_regime_zero_weights_pass():
    # every face inequality reads 0 >= 0
    tri = WeightedTriangulation(4, idcurv.TETRA_FACES, 0.0)
    assert validate_weights(tri, WeightRegime.SIGNED).passed


def test_validate_signed_regime_accepts_mild_negative():
    # one negative edge among unit edges: each face sees w + 1*1 >= 0
    weights = {(i, j): 1.0 for i in range(4) for j in range(i + 1, 4)}
    weights[(0, 1)] = -0.25
    tri = WeightedTriangulation(4, idcurv.TETRA_FACES, weights)
    assert not validate_weights(tri, WeightRegime.NONNEGATIVE).passed
    assert validate_weights(tri, WeightRegime.SIGNED).passed


def test_validate_signed_regime_rejects_below_minus_one():
    tri = WeightedTriangulation(4, idcurv.TETRA_FACES, -1.5)
    report = validate_weights(tri, WeightRegime.SIGNED)
    assert not report.passed


def test_validate_signed_regime_rejects_bad_face_combination():
    # one edge at -0.9, the rest zero: -0.9 + 0*0 < 0 in both faces at it
    weights = {(i, j): 0.0 for i in range(4) for j in range(i + 1, 4)}
    weights[(0, 1)] = -0.9
    tri = WeightedTriangulation(4, idcurv.TETRA_FACES, weights)
    report = validate_weights(tri, WeightRegime.SIGNED)
    assert not report.passed
    assert len(report.failures) == 2


def test_mesh_file_roundtrip(tmp_path):
    path = tmp_path / "mesh.json"
    data = {
        "geometry": "hyperbolic",
        "vertex_count": 4,
        "faces": [list(f) for f in idcurv.TETRA_FACES],
        "weights": [
            {"edge": [i, j], "value": 1.0 + 0.1 * (i + j)}
            for i in range(4)
            for j in range(i + 1, 4)
        ],
        "regime": "signed",
    }
    path.write_text(json.dumps(data))
    tri = load_surface(path)
    assert tri.geometry is Geometry.HYPERBOLIC
    assert tri.weight_of(2, 3) == pytest.approx(1.5)
    assert surface_regime(path) is WeightRegime.SIGNED


def test_mesh_file_malformed(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    with pytest.raises(MeshFormatError):
        load_surface(path)
    path.write_text(json.dumps({"vertex_count": 4}))
    with pytest.raises(MeshFormatError):
        load_surface(path)
    path.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(MeshFormatError):
        load_surface(path)


def test_radii_file_roundtrip(tmp_path):
    path = tmp_path / "radii.json"
    r = np.array([1.0, np.pi, 2.0 / 3.0, 1e-3])
    save_radii(path, r)
    back = load_radii(path, 4)
    np.testing.assert_allclose(back, r, rtol=1e-16)


def test_radii_file_validation(tmp_path):
    path = tmp_path / "radii.json"
    path.write_text(json.dumps({"radii": [1.0, -2.0]}))
    with pytest.raises(MeshFormatError):
        load_radii(path)
    path.write_text(json.dumps({"radii": [1.0, 2.0]}))
    with pytest.raises(MeshFormatError):
        load_radii(path, vertex_count=3)
    path.write_text(json.dumps({"values": [1.0]}))
    with pytest.raises(MeshFormatError):
        load_radii(path)


def test_stock_meshes_load():
    for name, counts in (
        ("meshes/tetrahedron.json", (4, 6, 4)),
        ("meshes/csaszar.json", (7, 21, 14)),
        ("meshes/csaszar_i2.json", (7, 21, 14)),
        ("meshes/csaszar_hyperbolic.json", (7, 21, 14)),
    ):
        tri = load_surface(name)
        assert (tri.vertex_count, tri.edge_count, tri.face_count) == counts


def test_construction_is_deterministic():
    a = csaszar_torus()
    b = csaszar_torus()
    np.testing.assert_array_equal(a.edges, b.edges)
    np.testing.assert_array_equal(a.face_edges, b.face_edges)


# -- the sorted-key builder against the loop derivation it replaced -------------


def reference_derivation(vertex_count, faces, weights):
    """edges, face_edges and weights by the original per-face loops."""
    edge_faces = {}
    for i, j, k in faces:
        for a, b in ((j, k), (i, k), (i, j)):
            e = (min(a, b), max(a, b))
            edge_faces[e] = edge_faces.get(e, 0) + 1
    assert all(n == 2 for n in edge_faces.values())
    edges = np.array(sorted(edge_faces), dtype=np.int64)
    edge_index = {e: idx for idx, e in enumerate(map(tuple, edges.tolist()))}
    face_edges = np.empty((len(faces), 3), dtype=np.int64)
    for f, (i, j, k) in enumerate(faces):
        face_edges[f, 0] = edge_index[(min(j, k), max(j, k))]
        face_edges[f, 1] = edge_index[(min(i, k), max(i, k))]
        face_edges[f, 2] = edge_index[(min(i, j), max(i, j))]
    if np.isscalar(weights):
        w = np.full(len(edges), float(weights))
    else:
        w = np.full(len(edges), np.nan)
        for (a, b), value in weights.items():
            w[edge_index[(min(a, b), max(a, b))]] = float(value)
    return edges, face_edges, w


def grid_torus_faces(n, m):
    """The n x m grid torus, each square split along one diagonal."""
    faces = []
    for i in range(n):
        for j in range(m):
            a, b = i * m + j, ((i + 1) % n) * m + j
            c, d = ((i + 1) % n) * m + (j + 1) % m, i * m + (j + 1) % m
            faces += [(a, b, c), (a, c, d)]
    return faces


def per_edge_weights(vertex_count, faces):
    """Distinct weights on every edge, every third key given as (j, i)."""
    edges = reference_derivation(vertex_count, faces, 0.0)[0]
    return {
        (j, i) if idx % 3 == 0 else (i, j): 0.5 + 0.01 * idx
        for idx, (i, j) in enumerate(edges.tolist())
    }


@pytest.mark.parametrize(
    "case",
    [
        "meshes/tetrahedron.json",
        "meshes/csaszar.json",
        "meshes/csaszar_i2.json",
        "meshes/csaszar_hyperbolic.json",
        (3, 3),
        (4, 4),
        (5, 9),
        (9, 4),
        "per-edge",
    ],
    ids=str,
)
def test_edges_match_loop_derivation(case):
    if isinstance(case, tuple):
        n, m = case
        vertex_count, faces, weights = n * m, grid_torus_faces(n, m), 1.0
    elif case == "per-edge":
        vertex_count, faces = 30, grid_torus_faces(5, 6)
        weights = per_edge_weights(vertex_count, faces)
    else:
        with open(case, encoding="utf-8") as fh:
            data = json.load(fh)
        vertex_count, faces = data["vertex_count"], [tuple(f) for f in data["faces"]]
        weights = data["weights"]["uniform"]
    tri = WeightedTriangulation(vertex_count, faces, weights)
    edges, face_edges, w = reference_derivation(vertex_count, faces, weights)
    for got, want in ((tri.edges, edges), (tri.face_edges, face_edges), (tri.weights, w)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    # face_edges is the k = 0 layer of the gather plan, not a second copy
    assert np.shares_memory(tri.face_edges, tri.gap_plan)
    assert tri.face_edges.flags.c_contiguous


@given(st.sampled_from(["genus2", "torus7x11"]), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_edges_match_loop_derivation_in_any_listing(surface, seed):
    # a relabelling of the vertices, a shuffle of the faces and a rotation of
    # each face's corners list the same surface another way; the sort must
    # give what the loops give on that listing
    base = genus_two() if surface == "genus2" else grid_torus(7, 11)
    rng = np.random.default_rng(seed)
    faces = rng.permutation(base.vertex_count)[base.faces][rng.permutation(base.face_count)]
    shift = rng.integers(0, 3, base.face_count)[:, None]
    faces = np.take_along_axis(faces, (np.arange(3) + shift) % 3, axis=1)
    faces = [tuple(face) for face in faces.tolist()]
    weights = per_edge_weights(base.vertex_count, faces)
    tri = WeightedTriangulation(base.vertex_count, faces, weights)
    edges, face_edges, w = reference_derivation(base.vertex_count, faces, weights)
    for got, want in ((tri.edges, edges), (tri.face_edges, face_edges), (tri.weights, w)):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize(
    "tri",
    [tetrahedron(), csaszar_torus(), grid_torus(7, 11), genus_two()],
    ids=["tetrahedron", "csaszar", "torus7x11", "genus2"],
)
def test_edge_corners_pair_the_two_faces_of_each_edge(tri):
    corners = tri.edge_corners
    assert corners.shape == (tri.edge_count, 2)
    # both corners of row e are opposite edge e, the lower corner first
    edge_ids = np.arange(tri.edge_count)[:, None]
    np.testing.assert_array_equal(tri.face_edges.ravel()[corners], np.hstack([edge_ids, edge_ids]))
    assert np.all(corners[:, 0] < corners[:, 1])
    # the pairing a stable sort of face_edges gives
    np.testing.assert_array_equal(
        corners, np.argsort(tri.face_edges, axis=None, kind="stable").reshape(-1, 2)
    )


def test_pinched_pillow_is_a_duplicate_face():
    # the face (0, 7, 8) listed twice is a pillow pinched onto the torus at
    # vertex 0: each of its edges lies in two faces and every vertex is
    # reached, so only the repeated face is wrong
    faces = list(idcurv.CSASZAR_FACES) + [(0, 7, 8), (8, 0, 7)]
    with pytest.raises(TopologyError) as info:
        WeightedTriangulation(9, faces, 1.0)
    assert str(info.value) == "duplicate face (0, 7, 8)"


TETRA_WEIGHTS = {(i, j): 1.0 for i in range(4) for j in range(i + 1, 4)}
# two tetrahedra glued along the edge (0, 1) only: that edge lies in 4 faces
DOUBLE_TETRA = list(idcurv.TETRA_FACES) + [(0, 1, 4), (0, 1, 5), (0, 4, 5), (1, 4, 5)]


@pytest.mark.parametrize(
    "vertex_count, faces, weights, error, message",
    [
        (4, [(0, 1, 2), (0, 1, 1), (2, 3, 3)], 1.0, TopologyError, "face 1 repeats a vertex"),
        (4, [(0, 1, 2), (0, 1, 3), (2, 1, 0), (1, 1, 3)], 1.0, TopologyError,
         "duplicate face (0, 1, 2)"),
        (3, [(0, 1, 2)], 1.0, TopologyError,
         "edge (1, 2) lies in 1 face(s); a closed surface needs exactly 2"),
        (6, DOUBLE_TETRA, 1.0, TopologyError,
         "edge (0, 1) lies in 4 face(s); a closed surface needs exactly 2"),
        # key 0 * 4 + 7 is the key of the edge (1, 3)
        (4, idcurv.TETRA_FACES, {**TETRA_WEIGHTS, (7, 0): 1.0, (1, 1): 1.0}, WeightError,
         "weight given for non-edge (0, 7)"),
        (4, idcurv.TETRA_FACES, {**TETRA_WEIGHTS, (3, 2): 1.0, (1, 0): 1.0}, WeightError,
         "duplicate weight for edge (2, 3)"),
        (4, idcurv.TETRA_FACES, {(2, 3): 1.0, (0, 2): 1.0}, WeightError,
         "missing weight for edge (0, 1)"),
        (4, idcurv.TETRA_FACES, float("nan"), WeightError,
         "weight nan for edge (0, 1) is not finite"),
        (4, idcurv.TETRA_FACES, float("-inf"), WeightError,
         "weight -inf for edge (0, 1) is not finite"),
        (4, idcurv.TETRA_FACES, {**TETRA_WEIGHTS, (1, 3): float("inf")}, WeightError,
         "weight inf for edge (1, 3) is not finite"),
        (4, [(0, 1, 2), (0, 1, 3), (0, 2, 3.0), (1, 2, 2.7)], 1.0, TopologyError,
         "face vertex indices must be integers"),
        (4, [(0, 1, 2), (0, 1, float("nan")), (0, 2, 3), (1, 2, 3)], 1.0, TopologyError,
         "face vertex indices must be integers"),
        (0, idcurv.TETRA_FACES, 1.0, TopologyError, "vertex_count must be positive"),
        (4, [], 1.0, TopologyError, "faces must be a nonempty list of vertex triples"),
        (4, [(0, 1, 2, 3)], 1.0, TopologyError, "faces must be a nonempty list of vertex triples"),
        (4, [0, 1, 2], 1.0, TopologyError, "faces must be a nonempty list of vertex triples"),
    ],
)
def test_construction_error_messages(vertex_count, faces, weights, error, message):
    with pytest.raises(error) as info:
        WeightedTriangulation(vertex_count, faces, weights)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "weights, message",
    [
        ("2", "weight '2' is not a number"),
        (True, "weight True is not a number"),
        (np.True_, "weight np.True_ is not a number"),
        ({**TETRA_WEIGHTS, (0, 1): "1.5"}, "weight '1.5' for edge (0, 1) is not a number"),
        ([((i, j), w) for (i, j), w in {**TETRA_WEIGHTS, (2, 3): False}.items()],
         "weight False for edge (2, 3) is not a number"),
    ],
    ids=["string", "bool", "numpy-bool", "mapping-string", "pairs-bool"],
)
def test_weights_must_be_numbers(weights, message):
    # the number rule of the file readers: a string or a boolean is not read as
    # the number it converts to
    with pytest.raises(WeightError) as info:
        WeightedTriangulation(4, idcurv.TETRA_FACES, weights)
    assert str(info.value) == message


def test_weights_as_pairs_and_fractional_keys():
    # a sequence of (edge, weight) pairs reads as the mapping does, and a
    # weight key's vertex indices must be integers, as a face's must
    pairs = [((j, i), 1.0 + i + j) for i, j in TETRA_WEIGHTS]
    tri = WeightedTriangulation(4, idcurv.TETRA_FACES, pairs)
    np.testing.assert_array_equal(
        tri.weights, WeightedTriangulation(4, idcurv.TETRA_FACES, dict(pairs)).weights
    )
    assert tri.weight_of(2, 3) == 6.0
    weights = {**TETRA_WEIGHTS}
    del weights[(0, 1)]
    with pytest.raises(WeightError, match="weight key vertex indices must be integers"):
        WeightedTriangulation(4, idcurv.TETRA_FACES, {**weights, (0.7, 1): 1.0})


def test_target_file_forms(tmp_path):
    path = tmp_path / "target.json"
    assert load_target(None, 4) is None and load_target("-1.5", 4) == -1.5
    path.write_text(json.dumps({"uniform": -1}))
    assert load_target(str(path), 4) == -1.0
    path.write_text(json.dumps({"target": [0, 1, 2, 3]}))
    np.testing.assert_array_equal(load_target(str(path), 4), [0.0, 1.0, 2.0, 3.0])
    for payload in ({"target": [0, 1, 2]}, {"target": [0, 1, 2, True]}, {"uniform": "0"},
                    {"values": [0, 1, 2, 3]}, [0, 1, 2, 3]):
        path.write_text(json.dumps(payload))
        with pytest.raises(MeshFormatError, match=f"^{re.escape(str(path))}: "):
            load_target(str(path), 4)


def tetra_mesh_data(weights):
    return {
        "geometry": "euclidean",
        "vertex_count": 4,
        "faces": [list(f) for f in idcurv.TETRA_FACES],
        "weights": weights,
    }


def test_mesh_file_nonfinite_weight_rejected(tmp_path):
    # json writes and reads NaN, so a mesh file can carry one
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps(tetra_mesh_data({"uniform": float("nan")})))
    with pytest.raises(WeightError, match=r"edge \(0, 1\) is not finite"):
        load_surface(path)
    entries = [{"edge": [j, i], "value": w} for (i, j), w in TETRA_WEIGHTS.items()]
    entries[2]["value"] = float("nan")
    path.write_text(json.dumps(tetra_mesh_data(entries)))
    with pytest.raises(WeightError, match=r"edge \(0, 3\) is not finite"):
        load_surface(path)


def test_mesh_file_fractional_face_rejected(tmp_path):
    path = tmp_path / "mesh.json"
    data = tetra_mesh_data({"uniform": 1.0})
    data["faces"][3] = [1, 2, 2.7]
    path.write_text(json.dumps(data))
    with pytest.raises(TopologyError, match="face vertex indices must be integers"):
        load_surface(path)


@pytest.mark.parametrize(
    "count, error, message",
    [
        # int() would truncate 4.5 and read "4" as 4 and true as 1
        (4.5, MeshFormatError, "vertex_count must be an integer"),
        (4.0, MeshFormatError, "vertex_count must be an integer"),
        ("4", MeshFormatError, "vertex_count must be an integer"),
        (True, MeshFormatError, "vertex_count must be an integer"),
        (10**20, TopologyError, "isolated"),
    ],
)
def test_mesh_file_bad_vertex_count_rejected(tmp_path, count, error, message):
    path = tmp_path / "mesh.json"
    data = tetra_mesh_data({"uniform": 1.0})
    data["vertex_count"] = count
    path.write_text(json.dumps(data))
    with pytest.raises(error, match=message):
        load_surface(path)


def test_weight_of_nonedge_raises_key_error():
    tri = WeightedTriangulation(4, idcurv.TETRA_FACES, TETRA_WEIGHTS)
    # keys -1 * 4 + 5 and 0 * 4 + 7 are those of the edges (0, 1) and (1, 3)
    for i, j in ((0, 0), (-1, 5), (0, 7)):
        with pytest.raises(KeyError):
            tri.weight_of(i, j)
