"""Self-test of the benchmark: generators, metric list, repeatable counts.

Run from the root of a checkout:

    python3 -m pytest bench/test_bench.py -q

The traced-count test runs each workload's traced run twice (about a minute
in all on a 2-vCPU machine); select one workload with -k.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gen  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402
from idcurv import admissible, euler_characteristic  # noqa: E402


@pytest.mark.parametrize("n, m", [(3, 3), (3, 5), (4, 4), (5, 7), (8, 8), (50, 50)])
def test_grid_torus_is_a_closed_torus(n, m):
    tri = gen.grid_torus(n, m)
    assert (tri.vertex_count, tri.edge_count, tri.face_count) == (n * m, 3 * n * m, 2 * n * m)
    assert euler_characteristic(tri) == 0
    assert np.all(np.bincount(tri.edges.ravel()) == 6)


def test_grid_torus_rejects_degenerate_sizes():
    with pytest.raises(ValueError):
        gen.grid_torus_faces(2, 5)


def test_inputs_depend_only_on_seed_and_stream():
    a = gen.log_uniform_radii(gen.rng_for(7, gen.JOB, 3), 64)
    b = gen.log_uniform_radii(gen.rng_for(7, gen.JOB, 3), 64)
    c = gen.log_uniform_radii(gen.rng_for(8, gen.JOB, 3), 64)
    assert np.array_equal(a, b) and not np.array_equal(a, c)
    assert np.all(np.abs(np.log(a)) <= 0.3)


@pytest.mark.parametrize("seed", range(5))
def test_snapped_starts_leave_the_admissible_cone(seed):
    tri = gen.grid_torus(4, 4, weight=2.0)
    for k in range(8):
        r = gen.snapped_face_radii(gen.rng_for(seed, gen.START, k), tri)
        assert float(r @ r) == pytest.approx(tri.vertex_count, rel=1e-12)
        ok, bad = admissible(tri, r)
        assert not ok and bad


def test_mesh_and_radii_files_load(tmp_path):
    from idcurv import load_radii, load_surface

    tri = gen.grid_torus(4, 4, weight=2.0)
    gen.write_mesh(tmp_path / "mesh.json", tri, 2.0)
    r = gen.snapped_face_radii(gen.rng_for(0, gen.START, 0), tri)
    gen.write_radii(tmp_path / "r.json", r)
    loaded = load_surface(tmp_path / "mesh.json")
    assert np.array_equal(loaded.faces, tri.faces)
    assert np.array_equal(loaded.weights, tri.weights)
    assert np.array_equal(load_radii(tmp_path / "r.json", tri.vertex_count), r)


def test_pace_window_takes_probes_out_of_busy_time():
    sampler = pace.Sampler()
    sampler.starts = [1.0, 2.0, 3.0]
    sampler.durations = [0.01, 0.02, 0.03]
    sampler.cpu = [0.002, 0.004, 0.006]
    busy, p = sampler.window(1.5, 3.5)
    assert busy == pytest.approx(2.0 - 0.05) and p == pytest.approx(0.005)
    busy, p = sampler.window(1.5, 3.5, blocking=False)
    assert busy == pytest.approx(2.0) and p == pytest.approx(0.005)
    busy, p = sampler.window(3.2, 3.4)  # no probe inside: the latest one before
    assert busy == pytest.approx(0.2) and p == pytest.approx(0.006)
    assert sampler.normalized(3.2, 3.4) == pytest.approx(0.2 * pace.REFERENCE_PROBE_S / 0.006)


def test_pace_sampler_probes_while_open_and_stops_after():
    with pace.Sampler() as sampler:
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            sum(range(1000))
    count = len(sampler.durations)
    assert count >= 3 and all(c > 0 for c in sampler.cpu)
    time.sleep(2 * pace.INTERVAL_S)
    assert len(sampler.durations) == count


def test_benchmark_json_lists_the_metrics_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=300, check=False,
    )
    return proc


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "flow-small", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    counts = []
    for _ in range(2):
        proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({name: m["value"] for name, m in metrics.items()
                       if m["unit"] in ("count", "bytes", "ratio")})
    assert counts[0] == counts[1]
    if workload == "flow-small":
        assert counts[0]["flows.rhs_evals"] > 0
    if workload == "newton-large":
        assert counts[0]["potential.newton.iterations"] > 0
        assert counts[0]["potential.line_search.trials"] >= counts[0]["potential.newton.iterations"]
    if workload == "cli-sweep":
        assert counts[0]["cli.write.bytes"] > 0 and counts[0]["flows.rhs_evals"] > 0
