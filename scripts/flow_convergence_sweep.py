"""Sweep flow kinds and step sizes on the torus and tabulate convergence.

For each (kind, step, seed) cell the script integrates from a randomly
perturbed packing and records the terminal event, the time it fired, the
final curvature error, and the drift of the conserved measure. Results go
to stdout as an aligned table and to --out as CSV. The flows run with
fixed-step RK4: a step-size sweep only means something for a fixed step.

Usage:
    python3 scripts/flow_convergence_sweep.py
    python3 scripts/flow_convergence_sweep.py --steps 0.02 0.01 0.005 --seeds 5
    python3 scripts/flow_convergence_sweep.py --kind extended-euclidean --out sweep.csv
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from idcurv import (
    FlowKind,
    FlowSpec,
    IntegrationError,
    Integrator,
    angle_deficits,
    csaszar_torus,
    run_flow,
)

DEFAULT_KINDS = ("normalized-euclidean", "extended-euclidean", "alpha-normalized")


@dataclasses.dataclass
class Cell:
    kind: str
    step: float
    seed: int
    outcome: str
    t_stop: float
    max_err: float
    measure_drift: float
    wall: float

    def row(self):
        return (
            f"{self.kind:>22} {self.step:>7g} {self.seed:>4d} {self.outcome:>18} "
            f"{self.t_stop:>8.3f} {self.max_err:>10.2e} {self.measure_drift:>10.2e} "
            f"{self.wall:>6.2f}s"
        )


def run_cell(tri, kind, step, seed, spread, t_max) -> Cell:
    rng = np.random.default_rng(seed)
    r0 = np.exp(rng.uniform(-spread, spread, tri.vertex_count))
    spec = FlowSpec(
        kind=FlowKind(kind), step=step, t_max=t_max, tol=1e-8, integrator=Integrator.RK4
    )

    t0 = time.perf_counter()
    try:
        trace, final = run_flow(tri, r0, spec)
    except IntegrationError:
        return Cell(kind, step, seed, "StepUnderflow", float("nan"),
                    float("nan"), float("nan"), time.perf_counter() - t0)
    wall = time.perf_counter() - t0

    term = trace.terminal_event()
    r = final.radii
    err = float(np.abs(angle_deficits(tri, r) / r**2).max())
    drift = abs(float(trace.measure[-1] - trace.measure[0]))
    return Cell(kind, step, seed, term.kind.value, term.t, err, drift, wall)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", action="append", dest="kinds",
                        choices=[k.value for k in FlowKind],
                        help="flow kind to sweep (repeatable; default three)")
    parser.add_argument("--steps", type=float, nargs="+",
                        default=[0.02, 0.01, 0.005])
    parser.add_argument("--seeds", type=int, default=3,
                        help="number of random starts per cell")
    parser.add_argument("--spread", type=float, default=0.3,
                        help="log-radius half width of the random start")
    parser.add_argument("--tmax", type=float, default=200.0)
    parser.add_argument("--weight", type=float, default=1.0,
                        help="uniform inversive distance of the torus")
    parser.add_argument("--out", type=Path, default=None, help="CSV destination")
    args = parser.parse_args(argv)

    kinds = args.kinds or list(DEFAULT_KINDS)
    tri = csaszar_torus(weight=args.weight)

    header = (
        f"{'kind':>22} {'step':>7} {'seed':>4} {'outcome':>18} "
        f"{'t_stop':>8} {'max_err':>10} {'drift':>10} {'wall':>7}"
    )
    print(header)
    print("-" * len(header))

    cells = []
    for kind in kinds:
        for step in args.steps:
            for seed in range(args.seeds):
                cell = run_cell(tri, kind, step, seed, args.spread, args.tmax)
                cells.append(cell)
                print(cell.row())

    if args.out is not None:
        lines = ["kind,step,seed,outcome,t_stop,max_err,measure_drift,wall"]
        lines += [
            f"{c.kind},{c.step:.17g},{c.seed},{c.outcome},{c.t_stop:.17g},"
            f"{c.max_err:.17g},{c.measure_drift:.17g},{c.wall:.17g}"
            for c in cells
        ]
        args.out.write_text("\n".join(lines) + "\n")
        print(f"\nwrote {args.out}")

    bad = [c for c in cells if c.outcome not in ("Converged",)]
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
