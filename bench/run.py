"""idcurv benchmark: seeded workloads, end-to-end metrics, a separate traced run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload flow-small --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

With --trace 0 the run prints setup_s, solve_s and peak_rss_mb; with
--trace 1 it runs one job untraced and the same job traced, and prints the
per-layer metrics. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. Any failed job makes the exit code 1.
See bench/README.md for the definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

WORKLOADS = ("flow-small", "newton-large", "cli-sweep")
BLAS_THREADS = 1  # per process; see _configure_threads
MIN_JOBS = 3  # a median needs a few samples even when a job outlasts --seconds

# (name, unit) of every metric, in output order
END_TO_END = (("setup_s", "s"), ("solve_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("surface.build.calls", "count"),
    ("surface.build.self_s", "s"),
    ("surface.load.self_s", "s"),
    ("geometry.face_lengths.calls", "count"),
    ("geometry.face_lengths.self_s", "s"),
    ("geometry.corner_angles.calls", "count"),
    ("geometry.corner_angles.self_s", "s"),
    ("geometry.admissible.calls", "count"),
    ("geometry.admissible.self_s", "s"),
    ("geometry.triangle_slack.calls", "count"),
    ("geometry.triangle_slack.self_s", "s"),
    ("curvature.angle_deficits.calls", "count"),
    ("curvature.angle_deficits.self_s", "s"),
    ("curvature.curvature_jacobian.calls", "count"),
    ("curvature.curvature_jacobian.self_s", "s"),
    ("curvature.curvature_jacobian.out_bytes", "bytes"),
    ("curvature.laplacian_spectrum.self_s", "s"),
    ("flows.run_flow.self_s", "s"),
    ("flows.rhs_evals", "count"),
    ("flows.accept_ratio", "ratio"),
    ("potential.newton_solve.self_s", "s"),
    ("potential.newton.iterations", "count"),
    ("potential.line_search.trials", "count"),
    ("potential.line_search.accept_ratio", "ratio"),
    ("cli.main.self_s", "s"),
    ("cli.write.self_s", "s"),
    ("cli.write.bytes", "bytes"),
    ("trace.overhead_s", "s"),
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _nproc():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _configure_threads():
    """Pin BLAS to one thread before numpy loads; threads in use stay <= nproc.

    Every workload runs one client thread; cli-sweep's pool has min(2, nproc)
    workers, each with one BLAS thread (set again for the subprocess).
    newton-large gets one BLAS thread too, although it is dense linear
    algebra: with a second one, OpenBLAS's spinning worker slowed the pace
    probe that shares the machine by about a third (pace.py), so the probe
    would have read the program's own threading as a slow host.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _make_workload(name, seed, workdir):
    import workloads

    if name == "flow-small":
        return workloads.FlowSmall(seed, workdir)
    if name == "newton-large":
        return workloads.NewtonLarge(seed, workdir)
    return workloads.CliSweep(seed, workdir, jobs=min(2, _nproc()))


def _attempt(wl, k, run):
    """Make job k's inputs, time `run` on them, check the output.

    Returns (start, end or None, failed) in perf_counter seconds. A job fails
    if it raises or a check fails.
    """
    inputs = wl.job(k)
    t0 = time.perf_counter()
    try:
        output = run(inputs)
    except Exception:  # a failing job is counted, never fatal to the run
        _log(f"job {k} raised:\n{traceback.format_exc()}")
        return t0, None, True
    t1 = time.perf_counter()
    try:
        failures = wl.check(inputs, output)
    except Exception:
        failures = [traceback.format_exc()]
    for failure in failures:
        _log(f"job {k} check failed: {failure}")
    return t0, t1, bool(failures)


def _log(message):
    print(message, file=sys.stderr, flush=True)


def measure(wl, seconds):
    """Untraced run: set-up, warm-up, then jobs until time is up.

    Before every job the set-up runs again `setup_repeats` times, timed. The
    set-up samples then span the whole run, like the job samples, instead of
    one burst that a momentary slow phase of the machine can shift.
    Throughout, `pace.Sampler` probes the host's speed, and every set-up and
    job time is its busy time scaled to the reference pace (see pace.py);
    setup_s and solve_s are the medians of those.
    """
    import pace  # after _configure_threads: it loads numpy

    wl.setup()
    wl.warm_up()
    setups, walls, solves, paces, attempted, failed = [], [], [], [], 0, 0
    with pace.Sampler() as sampler:
        deadline = time.perf_counter() + seconds
        while attempted < MIN_JOBS or time.perf_counter() < deadline:
            for _ in range(wl.setup_repeats):
                t0 = time.perf_counter()
                wl.setup()
                setups.append(sampler.normalized(t0, time.perf_counter()))
            t0, t1, bad = _attempt(wl, attempted, wl.run)
            attempted += 1
            failed += bad
            if t1 is not None:
                walls.append(t1 - t0)
                paces.append(sampler.window(t0, t1, wl.in_process)[1])
                solves.append(sampler.normalized(t0, t1, wl.in_process))

    solve = statistics.median(solves) if solves else None
    print(f"{wl.name}: {attempted} jobs, {failed} failed")
    print(f"  setup_s      {statistics.median(setups):.6f} s  at the reference pace "
          f"(median of {len(setups)} set-ups)")
    if solves:
        print(f"  solve_s      {solve:.6f} s  at the reference pace (median of {len(solves)} jobs; "
              f"min {min(solves):.6f}, max {max(solves):.6f})")
        print(f"  wall         {statistics.median(walls):.6f} s  median wall time of a job, "
              f"probes included (min {min(walls):.6f}, max {max(walls):.6f})")
        print(f"  pace         {statistics.median(paces) * 1e3:.4f} ms  median probe CPU time "
              f"(reference {pace.REFERENCE_PROBE_S * 1e3:.4f} ms; "
              f"{len(sampler.durations)} probes)")
    peak = wl.peak_rss_mb()
    print(f"  peak_rss_mb  {peak:.1f} MB")
    print(f"  fail_frac    {failed / attempted:.6g}  ({failed}/{attempted})")
    values = {"setup_s": statistics.median(setups), "solve_s": solve, "peak_rss_mb": peak}
    return attempted, failed, values


def trace(wl, seed):
    """Traced run: one untraced job, then the same job traced.

    Per-layer figures cover the traced set-up plus the one traced job, so
    counts repeat exactly for a seed. trace.overhead_s is traced minus
    untraced wall time of that job.
    """
    import spans

    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.job, tracer.active = "setup", True
        wl.setup()
        tracer.active = False
        wl.warm_up()
        t0, t1, bad_untraced = _attempt(wl, 0, wl.run_traceable)
        untraced = None if t1 is None else t1 - t0

        def traced_run(inputs):
            tracer.job, tracer.active = 0, True
            try:
                return wl.run_traceable(inputs)
            finally:
                tracer.active = False

        t0, t1, bad_traced = _attempt(wl, 0, traced_run)
        traced = None if t1 is None else t1 - t0
    finally:
        tracer.uninstall()
    for hook in tracer.missing:
        _log(f"warning: hook {hook} not found; its counter reads 0")

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{wl.name}-seed{seed}.csv"
    tracer.write_csv(spans_path)

    calls, self_s, derived = tracer.summary()
    candidates = tracer.counts.get("flows.candidates", 0)
    trials = derived["potential.line_search.trials"]
    values = {}
    for name, _ in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = calls.get(base, 0)
        elif field == "self_s":
            values[name] = self_s.get(base, 0.0)
        elif field in ("out_bytes", "bytes"):
            values[name] = tracer.bytes.get(base, 0)
    values.update(derived)
    values["flows.accept_ratio"] = (
        tracer.counts.get("flows.accepted", 0) / candidates if candidates else 0.0
    )
    values["potential.line_search.accept_ratio"] = (
        derived["potential.newton.iterations"] / trials if trials else 0.0
    )
    overhead = None if untraced is None or traced is None else traced - untraced
    values["trace.overhead_s"] = overhead

    print(f"{wl.name} traced: untraced job {untraced} s, traced job {traced} s, "
          f"{len(tracer.names)} spans written to {spans_path.relative_to(ROOT)}")
    for name, unit in PER_LAYER:
        print(f"  {name:40s} {values[name]} {unit}")
    failed = int(bad_untraced) + int(bad_traced)
    return 2, failed, values


def _environment(workload):
    import numpy
    import scipy

    env = {
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
    }
    if workload == "cli-sweep":
        env["cli_jobs"] = min(2, _nproc())
        env["cli_blas_threads_per_process"] = 1
    if workload == "newton-large":
        env["warm_up"] = "one discarded job; the first-dense-solve cost is in neither setup_s nor solve_s"
    return env


def run_all(args):
    """Every workload in its own interpreter (BLAS threads differ per workload)."""
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        code = max(code, subprocess.run(cmd, cwd=ROOT, check=False).returncode)
    return code


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "idcurv" / "__init__.py").is_file():
        _log(f"error: no idcurv package under {SRC}; run from a full checkout")
        return 2
    if args.workload == "all":
        return run_all(args)
    _configure_threads()
    sys.path.insert(0, str(SRC))

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = _make_workload(args.workload, args.seed, workdir)
        if args.trace:
            attempted, failed, values = trace(wl, args.seed)
            units = dict(PER_LAYER)
        else:
            attempted, failed, values = measure(wl, args.seconds)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    print(json.dumps({"environment": _environment(args.workload)}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
