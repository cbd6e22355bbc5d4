"""Seeded input generators for the benchmark.

Everything the program under test receives is made here from the workload
seed: grid tori, start radii, and their JSON files in the stock `meshes/`
format. Job k of a run draws from its own stream, so the inputs of a job do
not depend on how many jobs came before it.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from idcurv import surface
from idcurv.surface import Geometry

# Scale factors applied to the three corners of the snapped face.
SNAP_SCALES = (12.0, 3.0, 0.4)

# Stream labels: rng_for(seed, JOB, k) feeds job k, WARMUP the discarded
# warm-up, START the fixed start files of cli-sweep.
JOB, WARMUP, START = 0, 1, 2


def rng_for(seed, *stream):
    """Independent generator for the stream (seed, *stream)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *stream])))


def grid_torus_faces(n, m):
    """Faces of the n x m grid torus, each square split along one diagonal."""
    if n < 3 or m < 3:
        raise ValueError("a grid torus needs n, m >= 3")
    i, j = np.meshgrid(np.arange(n), np.arange(m), indexing="ij")
    a = i * m + j
    b = ((i + 1) % n) * m + j
    c = ((i + 1) % n) * m + (j + 1) % m
    d = i * m + (j + 1) % m
    lower = np.stack([a, b, c], axis=-1).reshape(-1, 3)
    upper = np.stack([a, c, d], axis=-1).reshape(-1, 3)
    return np.concatenate([lower, upper])


def grid_torus(n, m, weight=1.0, geometry=Geometry.EUCLIDEAN):
    """The n x m grid torus as a WeightedTriangulation (N = n*m, chi = 0)."""
    tri = surface.WeightedTriangulation(n * m, grid_torus_faces(n, m), weight, geometry)
    check_grid_torus(tri)
    return tri


def check_grid_torus(tri):
    """Raise unless tri is a closed torus on which every vertex has degree 6."""
    chi = surface.euler_characteristic(tri)
    if chi != 0:
        raise ValueError(f"grid torus has chi={chi}, expected 0")
    degree = np.bincount(tri.edges.ravel(), minlength=tri.vertex_count)
    if not np.all(degree == 6):
        raise ValueError(f"grid torus vertex degrees {sorted(set(degree.tolist()))}, expected 6")


def log_uniform_radii(rng, n, spread=0.3, scale=1.0):
    """Radii scale * exp(U(-spread, spread)), one per vertex."""
    return scale * np.exp(rng.uniform(-spread, spread, n))


def snapped_face_radii(rng, tri, spread=0.01):
    """Nearly equal radii with one face pushed past the triangle inequality.

    A seeded face has its corners scaled by SNAP_SCALES; the radii are then
    rescaled so that sum(r^2) = N, the normalization the flow conserves. The
    jitter is kept small so that the snapped face is always degenerate: with
    a wider spread some starts stay admissible and never take the extension.
    """
    r = log_uniform_radii(rng, tri.vertex_count, spread)
    f = rng.integers(tri.face_count)
    face = tri.faces[f]
    r[face] *= SNAP_SCALES
    # Euclidean length opposite each corner: sqrt(r_j^2 + r_k^2 + 2 r_j r_k I_jk)
    rj, rk = r[face[[1, 0, 0]]], r[face[[2, 2, 1]]]
    lengths = np.sqrt(rj**2 + rk**2 + 2.0 * rj * rk * tri.face_weights()[f])
    if not 2.0 * lengths.max() >= lengths.sum():
        raise ValueError(f"face {f} is still admissible after snapping")
    return r * np.sqrt(tri.vertex_count / float(r @ r))


def write_mesh(path, tri, weight):
    """Mesh JSON with a uniform weight, as in meshes/*.json."""
    payload = {
        "geometry": tri.geometry.value,
        "vertex_count": tri.vertex_count,
        "faces": tri.faces.tolist(),
        "weights": {"uniform": float(weight)},
    }
    Path(path).write_text(json.dumps(payload) + "\n", encoding="utf-8")


def write_radii(path, radii):
    """Radii JSON {"radii": [...]} with every digit kept."""
    payload = {"radii": [float(f"{v:.17g}") for v in np.asarray(radii, dtype=float)]}
    Path(path).write_text(json.dumps(payload) + "\n", encoding="utf-8")
