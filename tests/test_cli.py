"""Command line interface: subcommands, exit codes, file outputs."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from idcurv import save_radii
from idcurv.cli import main

MESHES = Path(__file__).resolve().parent.parent / "meshes"
TETRA = str(MESHES / "tetrahedron.json")
CSASZAR = str(MESHES / "csaszar.json")
CSASZAR_HYP = str(MESHES / "csaszar_hyperbolic.json")


def radii_file(tmp_path, values, name="r.json"):
    path = tmp_path / name
    save_radii(path, np.asarray(values, dtype=float))
    return str(path)


# -- validate ------------------------------------------------------------------------


def test_validate_tetrahedron(capsys):
    assert main(["validate", TETRA]) == 0
    out = capsys.readouterr().out
    assert out == "V=4 E=6 F=4 chi=2 weights:pass\n"


def test_validate_csaszar(capsys):
    assert main(["validate", CSASZAR]) == 0
    assert capsys.readouterr().out == "V=7 E=21 F=14 chi=0 weights:pass\n"


def test_validate_missing_file(capsys):
    assert main(["validate", "no_such_mesh.json"]) == 1
    assert "error:" in capsys.readouterr().err


def test_validate_regime_failure(tmp_path, capsys):
    data = json.loads(Path(TETRA).read_text())
    data["weights"] = {"uniform": -1.5}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["validate", str(bad), "--regime", "signed"]) == 2
    out = capsys.readouterr().out
    assert "weights:fail" in out


def test_validate_malformed_json(tmp_path, capsys):
    bad = tmp_path / "garbage.json"
    bad.write_text("{not json")
    assert main(["validate", str(bad)]) == 1


def test_validate_bad_topology(tmp_path, capsys):
    mesh = tmp_path / "open.json"
    mesh.write_text(
        json.dumps(
            {
                "geometry": "euclidean",
                "vertex_count": 3,
                "faces": [[0, 1, 2]],
                "weights": {"uniform": 1.0},
            }
        )
    )
    assert main(["validate", str(mesh)]) == 2
    assert "error:" in capsys.readouterr().err


# -- curvature -----------------------------------------------------------------------


def test_curvature_report(tmp_path, capsys):
    radii = radii_file(tmp_path, [1.0, 1.0, 1.0, 1.0])
    assert main(["curvature", TETRA, "--radii", radii]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "i,r_i,K_i,R_i,R_alpha_i"
    assert len(lines) == 6
    for i, line in enumerate(lines[1:5]):
        cells = line.split(",")
        assert cells[0] == str(i)
        assert abs(float(cells[2]) - math.pi) < 1e-15
        assert abs(float(cells[3]) - math.pi) < 1e-15
    assert lines[5].startswith("# gauss_bonnet_residual = ")
    assert abs(float(lines[5].split("=")[1])) < 1e-12


def test_curvature_out_file_matches_stdout(tmp_path, capsys):
    radii = radii_file(tmp_path, [1.0, 0.9, 1.1, 1.0])
    assert main(["curvature", TETRA, "--radii", radii]) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "report.csv"
    assert main(["curvature", TETRA, "--radii", radii, "--out", str(out)]) == 0
    assert out.read_text() == stdout


def test_curvature_requires_extension_outside_cone(tmp_path, capsys):
    radii = radii_file(tmp_path, [1.0, 10.0, 10.0, 10.0])
    assert main(["curvature", TETRA, "--radii", radii]) == 2
    assert main(["curvature", TETRA, "--radii", radii, "--extended"]) == 0
    lines = capsys.readouterr().out.splitlines()
    gb = float(lines[-1].split("=")[1])
    assert abs(gb) < 1e-12
    # vertex 0 sits opposite three dominating edges
    assert abs(float(lines[1].split(",")[2]) + math.pi) < 1e-12


def test_curvature_radii_length_mismatch(tmp_path, capsys):
    radii = radii_file(tmp_path, [1.0, 1.0, 1.0])
    assert main(["curvature", TETRA, "--radii", radii]) == 1


# -- flow ----------------------------------------------------------------------------


def test_flow_converged(tmp_path, capsys):
    radii = radii_file(tmp_path, [1.3, 0.8, 1.1, 1.0, 0.9, 1.2, 0.95])
    out = tmp_path / "run"
    code = main(
        ["flow", CSASZAR, "--radii", radii, "--kind", "normalized-euclidean",
         "--tol", "1e-10", "--out", str(out)]
    )
    assert code == 0
    assert "Converged at t=" in capsys.readouterr().out
    final = json.loads((out / "final_radii.json").read_text())["radii"]
    assert np.ptp(final) / np.mean(final) < 1e-6
    events = json.loads((out / "events.json").read_text())
    assert events[-1]["kind"] == "Converged"
    header = (out / "trace.csv").read_text().splitlines()[0]
    assert header.startswith("t,r_0") and header.endswith("extended_region")
    stats = json.loads((out / "stats.json").read_text())
    assert stats["evaluations"] > stats["accepted"] > 0


def test_flow_horizon_exit(tmp_path, capsys):
    radii = radii_file(tmp_path, [1.3, 0.8, 1.1, 1.0, 0.9, 1.2, 0.95])
    code = main(
        ["flow", CSASZAR, "--radii", radii, "--kind", "normalized-euclidean",
         "--tmax", "0.5", "--tol", "1e-14", "--out", str(tmp_path / "h")]
    )
    assert code == 4
    assert "HorizonReached at t=0.5" in capsys.readouterr().out


def test_flow_singularity_exit(tmp_path, capsys):
    radii = radii_file(tmp_path, [1.0, 1.0, 1.0, 1.0])
    out = tmp_path / "sing"
    code = main(
        ["flow", TETRA, "--radii", radii, "--kind", "modified-euclidean",
         "--target", "-1", "--out", str(out)]
    )
    assert code == 3
    assert "EssentialSingularity at t=0.276" in capsys.readouterr().out
    events = json.loads((out / "events.json").read_text())
    assert events[-1]["kind"] == "EssentialSingularity"


def test_flow_integration_failure_writes_partial_trace(tmp_path, capsys):
    radii = radii_file(tmp_path, [1.0] * 7)
    out = tmp_path / "blowup"
    code = main(
        ["flow", CSASZAR_HYP, "--radii", radii, "--kind", "modified-hyperbolic",
         "--target", "100", "--tmax", "50", "--out", str(out)]
    )
    assert code == 3
    assert "step size underflow" in capsys.readouterr().err
    assert (out / "trace.csv").exists()
    kinds = {e["kind"] for e in json.loads((out / "events.json").read_text())}
    assert "Converged" not in kinds and "HorizonReached" not in kinds
    assert json.loads((out / "stats.json").read_text())["evaluations"] > 0


def test_flow_sweep_parallel(tmp_path, capsys):
    r1 = radii_file(tmp_path, [1.3, 0.8, 1.1, 1.0, 0.9, 1.2, 0.95], "a.json")
    r2 = radii_file(tmp_path, [0.9, 1.2, 1.0, 1.1, 0.8, 1.05, 1.0], "b.json")
    out = tmp_path / "sweep"
    code = main(
        ["flow", CSASZAR, "--radii", r1, r2, "--kind", "normalized-euclidean",
         "--tol", "1e-10", "--out", str(out), "--jobs", "2"]
    )
    assert code == 0
    assert (out / "a" / "final_radii.json").exists()
    assert (out / "b" / "final_radii.json").exists()


@pytest.mark.parametrize("option", ["--tol", "--dt", "--tmax"])
def test_flow_non_finite_step_control_is_invalid_input(tmp_path, capsys, option):
    radii = radii_file(tmp_path, [1.0] * 7)
    code = main(
        ["flow", CSASZAR, "--radii", radii, "--kind", "normalized-euclidean",
         option, "nan", "--out", str(tmp_path / "nan")]
    )
    assert code == 2
    assert "must be positive and finite" in capsys.readouterr().err


def test_flow_target_file_forms(tmp_path, capsys):
    radii = radii_file(tmp_path, [1.0, 1.0, 1.0, 1.0])
    uniform = tmp_path / "uniform.json"
    uniform.write_text(json.dumps({"uniform": -1.0}))
    out = tmp_path / "u"
    code = main(
        ["flow", TETRA, "--radii", radii, "--kind", "modified-euclidean",
         "--target", str(uniform), "--out", str(out)]
    )
    assert code == 3  # same essential singularity as the scalar form

    vector = tmp_path / "vec.json"
    vector.write_text(json.dumps({"target": [-1.0, -1.0, -1.0]}))
    code = main(
        ["flow", TETRA, "--radii", radii, "--kind", "modified-euclidean",
         "--target", str(vector), "--out", str(out)]
    )
    assert code == 1  # three entries for four vertices


# -- solve ---------------------------------------------------------------------------


def test_solve_tetra_default_target(tmp_path, capsys):
    radii = radii_file(tmp_path, [1.05, 0.97, 1.02, 0.99])
    saved = tmp_path / "solved.json"
    with pytest.warns(UserWarning):
        code = main(["solve", TETRA, "--radii", radii, "--out", str(saved)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("r = ")
    values = [float(v) for v in lines[0][4:].split()]
    assert len(values) == 4 and np.ptp(values) < 1e-9
    assert float(lines[1].split("=")[1]) < 1e-11
    assert np.allclose(json.loads(saved.read_text())["radii"], values)


def test_solve_hyperbolic_requires_target(tmp_path, capsys):
    radii = radii_file(tmp_path, [0.3] * 7)
    assert main(["solve", CSASZAR_HYP, "--radii", radii]) == 2
    with pytest.warns(UserWarning):
        code = main(
            ["solve", CSASZAR_HYP, "--radii", radii,
             "--target", "13.460688312222915"]
        )
    assert code == 0
    line = capsys.readouterr().out.splitlines()[0]
    values = [float(v) for v in line[4:].split()]
    assert np.max(np.abs(np.asarray(values) - 0.3)) < 1e-6


def test_solve_infeasible_target_is_invalid_input(tmp_path, capsys):
    radii = radii_file(tmp_path, [0.3] * 7)
    assert main(["solve", CSASZAR_HYP, "--radii", radii, "--target", "-1"]) == 2
    assert "infeasible" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, values",
    [
        # three faces with relative slack 7e-12 at the start, below
        # JACOBIAN_SLACK, when the first Hessian is taken; the positive
        # target that the sphere needs also draws the convexity warning
        pytest.param(
            ["solve", TETRA, "--target", "3.14159"], [1.0, 1.0, 1.0, 0.12132034356964239],
            marks=pytest.mark.filterwarnings("ignore:alpha \\* target is positive"),
            id="solve",
        ),
        # three faces with relative slack 7e-12 at the given radii
        pytest.param(["spectrum", TETRA], [1.0, 1.0, 1.0, 0.12132034356964239], id="spectrum"),
    ],
)
def test_near_degenerate_face_is_a_solver_failure(tmp_path, capsys, argv, values):
    radii = radii_file(tmp_path, values)
    assert main([*argv, "--radii", radii]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: face ") and "slack" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_solve_nan_target_is_invalid_input(tmp_path, capsys):
    radii = radii_file(tmp_path, [1.0] * 7)
    assert main(["solve", CSASZAR, "--radii", radii, "--target", "nan"]) == 2
    assert "target and alpha must be finite" in capsys.readouterr().err


# -- spectrum ------------------------------------------------------------------------


def test_spectrum_report(tmp_path, capsys):
    radii = radii_file(tmp_path, [1.0] * 7)
    assert main(["spectrum", CSASZAR, "--radii", radii]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "k,eigenvalue"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(values) == 7
    assert abs(values[0]) < 1e-9
    assert np.all(np.diff(values) >= -1e-12)
    assert values[1] > 0.1


# -- example-tetra -------------------------------------------------------------------


def test_example_tetra_outputs(tmp_path, capsys):
    assert main(["example-tetra", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "second root x0 = 3.8133851236023752" in out
    assert "not proportional" in out

    curve = (tmp_path / "f_curve.csv").read_text().splitlines()
    assert curve[0] == "x,f_x" and len(curve) == 752

    roots = json.loads((tmp_path / "roots.json").read_text())
    assert abs(roots["first"]["x"] - 1.0) == 0.0
    assert abs(roots["second"]["x"] - 3.8133851236023752) < 1e-12
    assert roots["first"]["spread"] < 1e-9
    assert roots["second"]["spread"] < 1e-9
    assert abs(roots["first"]["curvature"] - math.pi) < 1e-12
    # the root is located to 1e-12 in x; dR/dx inflates that slightly
    assert abs(roots["second"]["curvature"] - 0.2815948088246465) < 1e-10
