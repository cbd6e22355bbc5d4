"""Smoke tests for the script kept under scripts/ and the README quick start."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def test_flow_convergence_sweep_runs(monkeypatch):
    path = SCRIPTS / "flow_convergence_sweep.py"
    spec = importlib.util.spec_from_file_location("flow_convergence_sweep", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    argv = ["--kind", "normalized-euclidean", "--steps", "0.02", "--seeds", "1"]
    assert module.main(argv) == 0


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (code,) = re.findall(r"^```python\n(.*?)^```", readme, flags=re.S | re.M)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert "Converged" in done.stdout.splitlines()
