"""Command line front end.

Subcommands: validate, curvature, flow, solve, spectrum, example-tetra.
Exit codes: 0 success/converged, 1 I/O failure, 2 invalid input or
precondition failure, 3 singular stop (flow singularity or solver failure,
a face too close to degeneracy for derivatives among them), 4 time horizon
reached without convergence.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import sys
from pathlib import Path

import numpy as np

from . import tetra
from .curvature import (
    average_curvature,
    curvature_field,
    gauss_bonnet_residual,
    laplacian_spectrum,
)
from .errors import (
    ConditioningError,
    IntegrationError,
    MeshFormatError,
    SolverError,
)
from .flows import EventKind, FlowKind, FlowSpec, run_flow
from .potential import newton_solve, potential_gradient
from .surface import (
    WeightRegime,
    _read_mesh,
    euler_characteristic,
    load_radii,
    load_surface,
    load_target,
    save_radii,
    surface_regime,
    validate_weights,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_INVALID = 2
EXIT_SINGULAR = 3
EXIT_HORIZON = 4

_EVENT_EXIT = {
    EventKind.CONVERGED: EXIT_OK,
    EventKind.ESSENTIAL_SINGULARITY: EXIT_SINGULAR,
    EventKind.REMOVABLE_SINGULARITY: EXIT_SINGULAR,
    EventKind.HORIZON_REACHED: EXIT_HORIZON,
}


def _fmt(value) -> str:
    return f"{value:.17g}"


def _emit(text, out):
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def cmd_validate(args) -> int:
    tri, data = _read_mesh(args.mesh)  # parsed once, for the surface and its regime
    regime = WeightRegime(args.regime) if args.regime else surface_regime(args.mesh, data)
    report = validate_weights(tri, regime)
    verdict = "pass" if report.passed else "fail"
    print(
        f"V={tri.vertex_count} E={tri.edge_count} F={tri.face_count} "
        f"chi={euler_characteristic(tri)} weights:{verdict}"
    )
    for failure in report.failures:
        print(f"  {failure}")
    return EXIT_OK if report.passed else EXIT_INVALID


def cmd_curvature(args) -> int:
    tri = load_surface(args.mesh)
    r = load_radii(args.radii, tri.vertex_count)
    field = curvature_field(tri, r, alpha=args.alpha, extended=args.extended)
    lines = ["i,r_i,K_i,R_i"]
    for i in range(tri.vertex_count):
        lines.append(f"{i},{_fmt(r[i])},{_fmt(field.K[i])},{_fmt(field.R[i])}")
    residual = gauss_bonnet_residual(tri, r, extended=args.extended)
    lines.append(f"# gauss_bonnet_residual = {_fmt(residual)}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# A stage of a lockstep stack costs 29, 52 and 136 us at 32, 256 and 2304
# face-rows (starts x faces), so a worker must carry enough face-rows to repay
# its fixed cost and the pool's start-up. Median `idcurv flow` wall times in s,
# one worker against a forced pool of two, 8 snapped-face starts on n x n grid
# tori, 2-vCPU host:
#   n x n, face-rows   6x6, 576   8x8, 1024   10x10, 1600   12x12, 2304   16x16, 4096
#   1 worker           0.377      0.445       0.596         0.724         1.75
#   2 workers          0.486      0.595       0.724         0.612         0.901
_FACE_ROWS_PER_WORKER = 1024


def _sweep_workers(jobs, starts, faces):
    """Worker processes for `starts` starts on `faces` faces: at most `jobs` and
    `starts`, one per _FACE_ROWS_PER_WORKER face-rows, and at least one."""
    return max(1, min(jobs, starts, starts * faces // _FACE_ROWS_PER_WORKER))


def _run_flows(tri, runs, flow_args):
    """Steps every start of `runs`, a list of (radii path, output directory), on
    `tri` in one run_flow call, in the CLI process or in a sweep worker, and
    writes each start's files. Returns, per run in order, its exit code, its
    one-line summary and whether that line is an error for stderr."""
    starts = np.stack([load_radii(path, tri.vertex_count) for path, _ in runs])
    spec = FlowSpec(
        kind=FlowKind(flow_args.kind),
        alpha=flow_args.alpha,
        target=load_target(flow_args.target, tri.vertex_count),
        step=flow_args.dt,
        t_max=flow_args.tmax,
        tol=flow_args.tol,
    )
    summaries = []
    for (radii_path, out_dir), result in zip(runs, run_flow(tri, starts, spec)):
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        failed = isinstance(result, IntegrationError)
        trace = result.trace if failed else result[0]
        trace.write_csv(out / "trace.csv")
        trace.write_events(out / "events.json")
        trace.write_stats(out / "stats.json")
        if failed:
            summaries.append((EXIT_SINGULAR, f"{radii_path}: {result}", True))
            continue
        save_radii(out / "final_radii.json", result[1].radii)
        terminal = trace.terminal_event()
        line = f"{radii_path}: {terminal.kind.value} at t={terminal.t:.6g}"
        summaries.append((_EVENT_EXIT[terminal.kind], line, False))
    return summaries


def cmd_flow(args) -> int:
    """One flow, or a sweep of several starts on the surface loaded here: one
    worker steps them all in this process, without a pool; several each step a
    contiguous share. The output files and the printed lines, one per start in
    start order, do not depend on the worker count."""
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, not {args.jobs}")
    if FlowKind(args.kind).rate == 1.0 and args.alpha != 2.0:
        alpha_presets = ", ".join(k.value for k in FlowKind if k.rate == 2.0)
        raise ValueError(
            f"--kind {args.kind} runs at alpha = 2; for --alpha {args.alpha:g} use {alpha_presets}"
        )
    out_root = Path(args.out) if args.out else Path("flow_out")
    if len(args.radii) == 1:
        runs = [(args.radii[0], out_root)]
    else:
        # each start writes to the directory named by its radii file's stem
        by_stem = {}
        for path in args.radii:
            by_stem.setdefault(Path(path).stem, []).append(path)
        clashes = ["; ".join(paths) for paths in by_stem.values() if len(paths) > 1]
        if clashes:
            raise ValueError(
                "radii files of a sweep need distinct names, as each names its output "
                f"directory; these share one: {' | '.join(clashes)}"
            )
        runs = [(path, out_root / stem) for stem, (path,) in by_stem.items()]
    tri = load_surface(args.mesh)
    n = len(runs)
    workers = _sweep_workers(args.jobs, n, tri.face_count)
    if workers == 1:
        summaries = _run_flows(tri, runs, args)
    else:
        shares = [runs[w * n // workers : (w + 1) * n // workers] for w in range(workers)]
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            shared = pool.map(_run_flows, [tri] * workers, shares, [args] * workers)
            summaries = [summary for share in shared for summary in share]
    for _, line, error in summaries:
        print(line, file=sys.stderr if error else sys.stdout)
    return max(code for code, _, _ in summaries)


def cmd_solve(args) -> int:
    tri = load_surface(args.mesh)
    r0 = load_radii(args.radii, tri.vertex_count)
    target = load_target(args.target, tri.vertex_count)
    if target is None:
        # natural default for Euclidean solves; hyperbolic needs --target
        target = average_curvature(tri, r0, alpha=args.alpha)
    metric = newton_solve(tri, r0, target, alpha=args.alpha, tol=args.tol)
    grad = potential_gradient(tri, metric.u, target, args.alpha)
    print("r = " + " ".join(_fmt(v) for v in metric.radii))
    print(f"grad_norm = {_fmt(float(np.max(np.abs(grad))))}")
    if args.out:
        save_radii(args.out, metric.radii)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    tri = load_surface(args.mesh)
    r = load_radii(args.radii, tri.vertex_count)
    values = laplacian_spectrum(tri, r)
    lines = ["k,eigenvalue"]
    lines += [f"{k},{_fmt(v)}" for k, v in enumerate(values)]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_example_tetra(args) -> int:
    out = Path(args.out) if args.out else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    tetra.write_f_curve(out / "f_curve.csv")
    root = tetra.find_second_root()

    tri = tetra.TetraFamily(1.0).surface()
    spreads = {}
    constants = {}
    for label, x in (("first", 1.0), ("second", root.x0)):
        radii = tetra.TetraFamily(x).radii
        field = curvature_field(tri, radii)
        spreads[label] = float(np.max(field.R) - np.min(field.R))
        constants[label] = float(np.mean(field.R))

    payload = {
        "first": {"x": 1.0, "residual": tetra.curvature_residual(1.0),
                  "curvature": constants["first"], "spread": spreads["first"]},
        "second": {"x": root.x0, "residual": tetra.curvature_residual(root.x0),
                   "curvature": constants["second"], "spread": spreads["second"]},
    }
    (out / "roots.json").write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")

    print(f"f(1) = {_fmt(tetra.curvature_residual(1.0))}")
    print(f"second root x0 = {_fmt(root.x0)} (admissible sup {_fmt(tetra.X_SUP)})")
    print(f"constant curvature at x0 = {_fmt(constants['second'])}")
    print(f"curvature spread: first {spreads['first']:.3e}, second {spreads['second']:.3e}")
    ratio = root.x0 / 1.0
    print(f"radii ratio r_1/r_0: first 1, second {_fmt(ratio)} (not proportional)")
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idcurv",
        description="Curvature and Ricci flow for inversive distance circle packings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, radii="single"):
        p.add_argument("mesh", help="surface JSON file")
        if radii == "single":
            p.add_argument("--radii", required=True, help="radii JSON file")
        elif radii == "many":
            p.add_argument("--radii", required=True, nargs="+",
                           help="one radii file, or several for a sweep")

    p = sub.add_parser("validate", help="check topology and weight regime")
    p.add_argument("mesh")
    p.add_argument("--regime", choices=[r.value for r in WeightRegime])
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("curvature", help="per-vertex curvature report")
    common(p)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--extended", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_curvature)

    p = sub.add_parser("flow", help="integrate a combinatorial Ricci flow")
    common(p, radii="many")
    p.add_argument("--kind", required=True, choices=[k.value for k in FlowKind])
    p.add_argument("--target", help="number, or JSON file with 'target'/'uniform'")
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--dt", type=float, default=0.01, help="first trial step")
    p.add_argument("--tmax", type=float, default=200.0)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out", help="output directory (default flow_out)")
    p.add_argument("--jobs", type=int, default=1,
                   help=f"at most N worker processes for a sweep, one per {_FACE_ROWS_PER_WORKER} "
                        "face-rows (starts x faces); each steps its share of the starts together")
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("solve", help="Newton solve for prescribed curvature")
    common(p)
    p.add_argument("--target", help="number or JSON file; defaults to the average")
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--tol", type=float, default=1e-11)
    p.add_argument("--out", help="write the solved radii here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("spectrum", help="eigenvalues of the curvature Jacobian pencil")
    common(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("example-tetra", help="two constant-curvature packings on one surface")
    p.add_argument("--out", help="output directory (default .)")
    p.set_defaults(func=cmd_example_tetra)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, MeshFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:  # TopologyError, WeightError, AdmissibilityError, DomainError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (SolverError, IntegrationError, ConditioningError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR


if __name__ == "__main__":
    sys.exit(main())
