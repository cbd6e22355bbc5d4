"""The three benchmark workloads.

Each workload is a closed loop with one client: `job(k)` makes the inputs of
job k from the seed (untimed), `run` is the timed call into idcurv, and
`check` returns the correctness failures of its output. Functions are looked
up on their modules at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np

import gen

surface = importlib.import_module("idcurv.surface")
curvature = importlib.import_module("idcurv.curvature")
flows = importlib.import_module("idcurv.flows")
potential = importlib.import_module("idcurv.potential")
cli = importlib.import_module("idcurv.cli")

EXPECTED_CLI_EVENTS = ["LeftAdmissible", "ReenteredAdmissible", "Converged"]
CLI_TIMEOUT_S = 150.0


def _self_peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class FlowSmall:
    """Normalized Euclidean RK4 flow to Converged on the 8x8 grid torus.

    About 25k curvature evaluations on 64-vertex arrays per job: per-call
    overhead in geometry/curvature and the fixed-step controller dominate.
    """

    name = "flow-small"
    in_process = True  # the job runs in the thread that the pace probes interrupt
    setup_repeats = 5
    spec = dict(step=0.01, t_max=200.0, tol=1e-8)

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        self.tri = gen.grid_torus(8, 8)

    def warm_up(self):
        r0 = gen.log_uniform_radii(gen.rng_for(self.seed, gen.WARMUP), self.tri.vertex_count)
        flows.run_flow(self.tri, r0, flows.FlowSpec(
            kind=flows.FlowKind.NORMALIZED_EUCLIDEAN, step=0.01, t_max=1.0, tol=1e-8))

    def job(self, k):
        return gen.log_uniform_radii(gen.rng_for(self.seed, gen.JOB, k), self.tri.vertex_count)

    def run(self, r0):
        return flows.run_flow(
            self.tri, r0, flows.FlowSpec(kind=flows.FlowKind.NORMALIZED_EUCLIDEAN, **self.spec)
        )

    run_traceable = run

    def check(self, r0, output):
        trace, final = output
        failures = []
        kind = trace.terminal_event().kind
        if kind is not flows.EventKind.CONVERGED:
            failures.append(f"terminal event {kind.value}")
        r = final.radii
        R = curvature.curvature(self.tri, r).R
        err = float(np.max(np.abs(R - curvature.average_curvature(self.tri, r))))
        if not err < 1e-8:
            failures.append(f"max|R - R_av| = {err:.3e}")
        drift = abs(float(r @ r) - float(r0 @ r0)) / float(r0 @ r0)
        if not drift < 1e-8:
            failures.append(f"relative drift of sum(r^2) = {drift:.3e}")
        return failures

    def peak_rss_mb(self):
        return _self_peak_rss_mb()


class NewtonLarge:
    """Dense Newton solves and the dense spectrum on the 50x50 grid torus.

    One job: the flat Euclidean solve (target 0, gauge-fixed path), the
    Laplacian spectrum there, and a hyperbolic alpha=0 solve to the curvature
    of a seeded packing. Each solve takes about five gradient evaluations, so
    dense N x N Jacobians, dense solves and one dense eigh carry the time.
    """

    name = "newton-large"
    in_process = True
    setup_repeats = 1

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        self.tri = gen.grid_torus(50, 50)
        self.htri = gen.grid_torus(50, 50, geometry=surface.Geometry.HYPERBOLIC)

    def warm_up(self):
        # a whole discarded job: the first dense solve in a process costs about
        # a second more than later ones, and that belongs to neither metric
        self.run(self._inputs(gen.rng_for(self.seed, gen.WARMUP)))

    def job(self, k):
        return self._inputs(gen.rng_for(self.seed, gen.JOB, k))

    def _inputs(self, rng):
        n = self.tri.vertex_count
        r0 = gen.log_uniform_radii(rng, n)
        packing = gen.log_uniform_radii(rng, n, scale=0.5)
        target = curvature.angle_deficits(self.htri, packing)
        return r0, packing, target

    def run(self, inputs):
        r0, _, target = inputs
        flat = potential.newton_solve(self.tri, r0, 0.0)
        spectrum = curvature.laplacian_spectrum(self.tri, flat.radii)
        start = np.full(self.htri.vertex_count, 0.5)
        hyp = potential.newton_solve(self.htri, start, target, alpha=0.0)
        return flat, spectrum, hyp

    run_traceable = run

    def check(self, inputs, output):
        _, packing, _ = inputs
        flat, spectrum, hyp = output
        failures = []
        K = float(np.max(np.abs(curvature.angle_deficits(self.tri, flat.radii))))
        if not K < 1e-9:
            failures.append(f"flat solve max|K| = {K:.3e}")
        if not abs(spectrum[0]) < 1e-9:
            failures.append(f"lambda_0 = {spectrum[0]:.3e}")
        if not np.all(spectrum[1:] > 0.0):
            failures.append(f"lambda_1 = {spectrum[1]:.3e} is not positive")
        err = float(np.max(np.abs(hyp.radii - packing)))
        if not err < 1e-8:
            failures.append(f"hyperbolic solve off the packing by {err:.3e}")
        return failures

    def peak_rss_mb(self):
        return _self_peak_rss_mb()


class CliSweep:
    """`idcurv flow --kind extended-euclidean` over 8 snapped-face starts.

    The mesh is the 4x4 grid torus with weight 2. Every start has one face
    past the triangle inequality, so each run leaves and re-enters the
    admissible cone before it converges. Process start-up, JSON loading, the
    process pool and trace writing only appear in this workload.
    """

    name = "cli-sweep"
    in_process = False  # the job runs in a subprocess and its pool workers
    setup_repeats = 5
    starts = 8

    def __init__(self, seed, workdir, jobs):
        self.seed = seed
        self.workdir = Path(workdir)
        self.jobs = jobs
        self.mesh = self.workdir / "mesh.json"
        self.radii = [self.workdir / f"r{k}.json" for k in range(self.starts)]

    def setup(self):
        self.tri = gen.grid_torus(4, 4, weight=2.0)
        gen.write_mesh(self.mesh, self.tri, 2.0)
        for k, path in enumerate(self.radii):
            gen.write_radii(path, gen.snapped_face_radii(gen.rng_for(self.seed, gen.START, k), self.tri))

    def _argv(self, out, jobs):
        return ["flow", str(self.mesh), "--kind", "extended-euclidean",
                "--radii", *map(str, self.radii), "--jobs", str(jobs), "--out", str(out)]

    def _subprocess(self, argv):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        src = str(Path(cli.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.Popen([sys.executable, "-m", "idcurv.cli", *argv], cwd=self.workdir,
                                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            _, err = proc.communicate(timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            # the pool workers share the session; stop them with the CLI
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return -signal.SIGKILL, f"timed out after {CLI_TIMEOUT_S} s"
        return proc.returncode, err.decode()

    def warm_up(self):
        code, err = self._subprocess(["validate", str(self.mesh)])
        if code != 0:
            raise RuntimeError(f"idcurv validate exited {code}: {err.strip()}")

    def job(self, k):
        out = self.workdir / f"out{k}"
        shutil.rmtree(out, ignore_errors=True)
        return out

    def run(self, out):
        return self._subprocess(self._argv(out, self.jobs))

    def run_traceable(self, out):
        # in-process and serial, so every span is recorded in this process
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self._argv(out, 1))
        return code, ""

    def check(self, out, output):
        code, err = output
        failures = []
        if code != 0:
            failures.append(f"exit code {code}: {err.strip()[-300:]}")
        for path in self.radii:
            run_dir = out / path.stem
            try:
                events = json.loads((run_dir / "events.json").read_text(encoding="utf-8"))
                kinds = [e["kind"] for e in events]
                if kinds != EXPECTED_CLI_EVENTS:
                    failures.append(f"{path.stem}: events {kinds}")
                r = surface.load_radii(run_dir / "final_radii.json", self.tri.vertex_count)
                R = curvature.curvature(self.tri, r).R
                err_R = float(np.max(np.abs(R - curvature.average_curvature(self.tri, r))))
                if not err_R < 1e-7:
                    failures.append(f"{path.stem}: max|R - R_av| = {err_R:.3e}")
            except (OSError, ValueError, KeyError, TypeError) as exc:
                failures.append(f"{path.stem}: {type(exc).__name__}: {exc}")
        shutil.rmtree(out, ignore_errors=True)
        return failures

    def peak_rss_mb(self):
        # the largest of the CLI processes and their pool workers, all reaped
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
