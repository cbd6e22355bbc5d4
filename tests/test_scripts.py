"""Smoke test for the script kept under scripts/."""

import importlib.util
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_flow_convergence_sweep_runs(monkeypatch):
    path = SCRIPTS / "flow_convergence_sweep.py"
    spec = importlib.util.spec_from_file_location("flow_convergence_sweep", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    argv = ["--kind", "normalized-euclidean", "--steps", "0.02", "--seeds", "1"]
    assert module.main(argv) == 0
