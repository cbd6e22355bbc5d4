"""Command line interface: subcommands, exit codes, file outputs."""

import concurrent.futures
import json
import math
from pathlib import Path

import numpy as np
import pytest

from idcurv import cli, grid_torus, save_radii
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


@pytest.mark.parametrize("regime", [None, "signed", "bogus"])
def test_validate_parses_the_mesh_once(tmp_path, capsys, monkeypatch, regime):
    # the surface and the file's regime key come from one parse of the file
    from idcurv import surface

    data = json.loads(Path(TETRA).read_text())
    if regime is not None:
        data["regime"] = regime
    mesh = tmp_path / "mesh.json"
    mesh.write_text(json.dumps(data))
    parsed = []
    load_json = surface._load_json
    monkeypatch.setattr(surface, "_load_json", lambda path: parsed.append(path) or load_json(path))
    assert main(["validate", str(mesh)]) == (1 if regime == "bogus" else 0)
    assert parsed == [str(mesh)]
    if regime == "bogus":
        assert capsys.readouterr().err.startswith(f"error: {mesh}: ")


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


@pytest.mark.parametrize(
    "command, malformed, payload",
    [
        ("validate", "mesh", {"weights": {"uniform": [1, 2]}}),
        ("validate", "mesh", {"weights": [{"edge": [None, 1], "value": 1.0}]}),
        ("validate", "mesh", {"weights": [{"edge": [0, 1]}]}),
        ("validate", "mesh", {"weights": "uniform"}),
        ("validate", "mesh", {"faces": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, "a"]]}),
        ("curvature", "radii", {"radii": {"a": 1}}),
        ("curvature", "radii", {"radii": [1, "x", 1, 1]}),
        ("flow", "target", {"uniform": [0, 1]}),
        ("solve", "target", {"uniform": [0, 1]}),
        ("solve", "target", {"target": {"a": 1}}),
    ],
    ids=["uniform-weight-list", "weight-edge-null", "weight-entry-no-value", "weights-string",
         "face-string", "radii-object", "radii-string", "flow-uniform-list", "solve-uniform-list",
         "solve-target-object"],
)
def test_malformed_value_is_a_format_error(tmp_path, capsys, command, malformed, payload):
    # a value of the wrong type in a mesh, radii or target file is a format
    # error that names the file: exit 1 and one error line, no traceback
    files = {name: tmp_path / f"{name}.json" for name in ("mesh", "radii", "target")}
    mesh = json.loads(Path(TETRA).read_text())
    files["mesh"].write_text(json.dumps({**mesh, **payload} if malformed == "mesh" else mesh))
    radii = payload if malformed == "radii" else {"radii": [1.0, 1.1, 0.9, 1.0]}
    files["radii"].write_text(json.dumps(radii))
    files["target"].write_text(json.dumps(payload))
    argv = [command, str(files["mesh"])]
    if command != "validate":
        argv += ["--radii", str(files["radii"])]
    if command == "flow":
        argv += ["--kind", "modified-euclidean", "--out", str(tmp_path / "out")]
    if malformed == "target":
        argv += ["--target", str(files["target"])]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {files[malformed]}: ") and err.count("\n") == 1
    assert "Traceback" not in err


TETRA_ENTRIES = [{"edge": [i, j], "value": 2.0} for i in range(4) for j in range(i + 1, 4)]


@pytest.mark.parametrize(
    "command, malformed, payload, code, message",
    [
        ("validate", "mesh", {"weights": {"uniform": "2"}}, 1, None),
        ("validate", "mesh", {"weights": {"uniform": True}}, 1, None),
        ("curvature", "radii", {"radii": [1.0, "1.0", 1.0, 1.0]}, 1, None),
        ("solve", "target", {"uniform": "0"}, 1, None),
        ("validate", "mesh", {"weights": [{"edge": [0.7, 1], "value": 2.0}] + TETRA_ENTRIES[1:]},
         2, "weight key vertex indices must be integers"),
        ("validate", "mesh", {"regime": "bogus"}, 1, None),
        ("validate", "mesh", {"weights": TETRA_ENTRIES + [{"edge": [1, 0], "value": 2.0}]},
         2, "duplicate weight for edge (0, 1)"),
    ],
    ids=["uniform-weight-string", "uniform-weight-bool", "radii-string-entry",
         "target-uniform-string", "weight-edge-fractional", "regime-unknown",
         "weight-edge-duplicate"],
)
def test_input_file_rules(tmp_path, capsys, command, malformed, payload, code, message):
    # a string or boolean where a number belongs, or an unknown regime, is a
    # format error that names the file (exit 1); a weight entry's vertex
    # indices face the checks a face's do (exit 2)
    files = {name: tmp_path / f"{name}.json" for name in ("mesh", "radii", "target")}
    mesh = json.loads(Path(TETRA).read_text())
    files["mesh"].write_text(json.dumps({**mesh, **payload} if malformed == "mesh" else mesh))
    radii = payload if malformed == "radii" else {"radii": [1.0, 1.1, 0.9, 1.0]}
    files["radii"].write_text(json.dumps(radii))
    files["target"].write_text(json.dumps(payload))
    argv = [command, str(files["mesh"])]
    if command != "validate":
        argv += ["--radii", str(files["radii"])]
    if malformed == "target":
        argv += ["--target", str(files["target"])]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message or files[malformed]}") and err.count("\n") == 1
    assert "Traceback" not in err


# -- curvature -----------------------------------------------------------------------


def test_curvature_report(tmp_path, capsys):
    radii = radii_file(tmp_path, [1.0, 1.0, 1.0, 1.0])
    assert main(["curvature", TETRA, "--radii", radii]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "i,r_i,K_i,R_i"
    assert len(lines) == 6
    for i, line in enumerate(lines[1:5]):
        cells = line.split(",")
        assert cells[0] == str(i)
        assert abs(float(cells[2]) - math.pi) < 1e-15
        assert abs(float(cells[3]) - math.pi) < 1e-15
    assert lines[5].startswith("# gauss_bonnet_residual = ")
    assert abs(float(lines[5].split("=")[1])) < 1e-12


def test_curvature_alpha_sets_the_power_of_r(tmp_path, capsys):
    # --alpha 1 reports R_i = K_i / r_i, the alpha-curvature asked for
    radii = radii_file(tmp_path, [1.0, 0.9, 1.1, 1.0])
    assert main(["curvature", TETRA, "--radii", radii, "--alpha", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "i,r_i,K_i,R_i"
    for line in lines[1:5]:
        _, r, K, R = map(float, line.split(","))
        assert R == K / r


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


def test_curvature_non_finite_alpha_is_invalid_input(tmp_path, capsys):
    radii = radii_file(tmp_path, [1.0, 0.9, 1.1, 1.0])
    assert main(["curvature", TETRA, "--radii", radii, "--alpha", "nan"]) == 2
    assert capsys.readouterr().err == "error: alpha must be finite, not nan\n"


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


SWEEP_FILES = ("trace.csv", "events.json", "stats.json", "final_radii.json")
# the three small circles of b collapse (exit 3) while a and c converge
SWEEP_STARTS = {"a": [1.0, 2.0, 2.0, 2.0], "b": [1.0, 0.1, 0.1, 0.1], "c": [1.0, 1.1, 1.1, 1.1]}


def test_flow_sweep_parallel(tmp_path, capsys, monkeypatch):
    # one worker steps all starts in one run_flow call, several workers each
    # their share; every start's files are those of its own run, byte for
    # byte, and the sweep's exit code is the worst of its starts'. The
    # tetrahedron's 12 face-rows are far below a worker's share, so the
    # threshold is lowered to make --jobs 2 and 3 start that many workers.
    monkeypatch.setattr(cli, "_FACE_ROWS_PER_WORKER", 1)
    pools = []

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    paths = [radii_file(tmp_path, r, f"{name}.json") for name, r in SWEEP_STARTS.items()]
    codes = {}
    for jobs in ("1", "2", "3"):
        codes[jobs] = main(
            ["flow", TETRA, "--radii", *paths, "--kind", "normalized-euclidean",
             "--out", str(tmp_path / jobs), "--jobs", jobs]
        )
    assert codes == {"1": 3, "2": 3, "3": 3}
    assert pools == [2, 3]
    for name in SWEEP_STARTS:
        for file in SWEEP_FILES:
            one = (tmp_path / "1" / name / file).read_bytes()
            for jobs in ("2", "3"):
                assert (tmp_path / jobs / name / file).read_bytes() == one, (jobs, name, file)
    kinds = {
        name: json.loads((tmp_path / "1" / name / "events.json").read_text())[-1]["kind"]
        for name in SWEEP_STARTS
    }
    assert kinds == {"a": "Converged", "b": "EssentialSingularity", "c": "Converged"}


def test_flow_sweep_prints_in_start_order(tmp_path, capfd, monkeypatch):
    # three workers each step one start and hand its line back, so the CLI
    # prints one line per start in start order, whichever worker ends first;
    # capfd would also catch lines printed by the workers themselves
    monkeypatch.setattr(cli, "_FACE_ROWS_PER_WORKER", 1)
    paths = [radii_file(tmp_path, r, f"{name}.json") for name, r in SWEEP_STARTS.items()]
    printed = {}
    for jobs in ("3", "1"):
        main(["flow", TETRA, "--radii", *paths, "--kind", "normalized-euclidean",
              "--out", str(tmp_path / jobs), "--jobs", jobs])
        printed[jobs] = capfd.readouterr().out
    assert printed["3"] == printed["1"]
    assert [line.split(": ")[0] for line in printed["1"].splitlines()] == paths


def test_flow_sweep_below_a_worker_share_runs_without_a_pool(tmp_path, monkeypatch):
    # 3 starts on the 4-face tetrahedron are 12 face-rows, too few to repay a
    # second worker: --jobs 2 steps them all in this process
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was built")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    paths = [radii_file(tmp_path, r, f"{name}.json") for name, r in SWEEP_STARTS.items()]
    out = tmp_path / "out"
    code = main(["flow", TETRA, "--radii", *paths, "--kind", "normalized-euclidean",
                 "--out", str(out), "--jobs", "2"])
    assert code == 3
    assert all((out / name / "trace.csv").exists() for name in SWEEP_STARTS)


@pytest.mark.parametrize(
    "n, starts, jobs, workers",
    [
        # 8 starts on the n x n grid torus, 2 n^2 faces each: the pool loses
        # up to 1600 face-rows (10x10) and wins from 2304 (12x12) on
        (6, 8, 2, 1), (8, 8, 2, 1), (10, 8, 2, 1), (12, 8, 2, 2), (16, 8, 2, 2),
        (16, 8, 1, 1), (16, 8, 3, 3), (16, 8, 8, 4),
        # never more workers than starts
        (48, 3, 4, 3), (48, 1, 2, 1),
    ],
)
def test_sweep_workers_by_face_rows(n, starts, jobs, workers):
    assert cli._sweep_workers(jobs, starts, grid_torus(n, n).face_count) == workers


def test_flow_sweep_start_writes_what_its_solo_run_writes(tmp_path):
    # each start of a multi-start sweep writes, byte for byte, the four files
    # that a single-start run of its radii file writes
    paths = [radii_file(tmp_path, r, f"{name}.json") for name, r in SWEEP_STARTS.items()]
    kind = ["--kind", "normalized-euclidean"]
    assert main(["flow", TETRA, "--radii", *paths, *kind, "--out", str(tmp_path / "sweep")]) == 3
    codes = {}
    for name, path in zip(SWEEP_STARTS, paths):
        solo = tmp_path / "solo" / name
        codes[name] = main(["flow", TETRA, "--radii", path, *kind, "--out", str(solo)])
        for file in SWEEP_FILES:
            sweep = (tmp_path / "sweep" / name / file).read_bytes()
            assert sweep == (solo / file).read_bytes(), (name, file)
    assert codes == {"a": 0, "b": 3, "c": 0}


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_flow_refuses_jobs_below_one(tmp_path, capsys, jobs):
    radii = radii_file(tmp_path, [1.0, 2.0, 2.0, 2.0])
    out = tmp_path / "out"
    code = main(["flow", TETRA, "--radii", radii, "--kind", "normalized-euclidean",
                 "--out", str(out), "--jobs", jobs])
    assert code == 2
    assert f"--jobs must be at least 1, not {jobs}" in capsys.readouterr().err
    assert not out.exists()


def test_flow_sweep_refuses_radii_files_sharing_a_stem(tmp_path, capsys):
    # each start of a sweep writes to out/<stem of its radii file>, so two files
    # of one stem would write one directory; the sweep is refused unrun
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = radii_file(tmp_path / "a", [1.0, 2.0, 2.0, 2.0])
    second = radii_file(tmp_path / "b", [1.0, 1.1, 1.1, 1.1])
    out = tmp_path / "out"
    code = main(["flow", TETRA, "--radii", first, second, "--kind", "normalized-euclidean",
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "distinct names" in err and first in err and second in err
    assert not out.exists()


@pytest.mark.parametrize(
    "kind", ["normalized-euclidean", "modified-euclidean", "extended-euclidean"]
)
@pytest.mark.parametrize("alpha", ["1.5", "0", "-2"])
def test_flow_r_preset_refuses_alpha_other_than_two(tmp_path, capsys, kind, alpha):
    # an R-preset runs at alpha = 2; another alpha is refused unrun, with the
    # alpha-presets that take it named
    radii = radii_file(tmp_path, [1.0] * 7)
    out = tmp_path / "out"
    code = main(["flow", CSASZAR, "--radii", radii, "--kind", kind, "--target", "0",
                 "--alpha", alpha, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"--kind {kind} runs at alpha = 2" in err
    assert "alpha-normalized, alpha-modified, alpha-extended" in err
    assert not out.exists()


def test_flow_r_preset_takes_alpha_two(tmp_path, capsys):
    radii = radii_file(tmp_path, [1.0, 2.0, 2.0, 2.0])
    code = main(["flow", TETRA, "--radii", radii, "--kind", "normalized-euclidean",
                 "--alpha", "2", "--out", str(tmp_path / "out")])
    assert code == 0


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


def _json_file(tmp_path, name, payload):
    """A JSON file of `payload`, NaN and Infinity spelled as json.dumps does."""
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize(
    "option, payload",
    [
        ("--radii", {"radii": [math.nan, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]}),
        ("--radii", {"radii": [1.0, 1.0, math.inf, 1.0, 1.0, 1.0, 1.0]}),
        ("--radii", {"radii": [1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0]}),
        ("--radii", {"radii": [1.0] * 6}),
        ("--target", {"target": [math.nan, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]}),
        ("--target", {"target": [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -math.inf]}),
        ("--target", {"uniform": math.inf}),
        ("--target", {"target": [0.0] * 8}),
    ],
    ids=["radii-nan", "radii-inf", "radii-zero", "radii-length", "target-nan", "target-inf",
         "target-uniform-inf", "target-length"],
)
def test_flow_refuses_a_bad_input_file_by_name(tmp_path, capsys, option, payload):
    # a radii or target file that is not finite (radii: and positive), or not
    # one entry per vertex, is a format error of that file: exit 1 and one
    # error line that names it, no traceback
    bad = _json_file(tmp_path, "bad.json", payload)
    files = {"--radii": radii_file(tmp_path, [1.0] * 7), "--target": None}
    files[option] = bad
    argv = ["flow", CSASZAR, "--radii", files["--radii"], "--kind", "modified-euclidean",
            "--target", files["--target"] or "0", "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_flow_nan_target_number_is_invalid_input(tmp_path, capsys):
    # a target given as a number is no file: NaN is invalid input, exit 2
    radii = radii_file(tmp_path, [1.0] * 7)
    argv = ["flow", CSASZAR, "--radii", radii, "--kind", "modified-euclidean",
            "--target", "nan", "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: target must be finite\n"


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
    assert capsys.readouterr().err == "error: target must be finite\n"


def test_solve_zero_tol_is_invalid_input(tmp_path, capsys):
    # the start is already a solution at target 0, and a gradient test
    # against tol 0 read it as a stalled line search (exit 3)
    radii = radii_file(tmp_path, [1.0] * 7)
    assert main(["solve", CSASZAR, "--radii", radii, "--target", "0", "--tol", "0"]) == 2
    assert capsys.readouterr().err == "error: tol must be positive and finite\n"


def test_solve_tol_below_the_rounding_floor_succeeds(tmp_path, capsys):
    # the solve stalls at its gradient's rounding floor, below which no tol can
    # be met: the solution is written, with a warning, and the exit is 0
    radii = radii_file(tmp_path, [1.3, 0.8, 1.1, 1.0, 0.9, 1.2, 0.95])
    assert main(["solve", CSASZAR, "--radii", radii, "--target", "0", "--tol", "1e-15"]) == 0
    out = capsys.readouterr().out
    assert float(out.split("grad_norm = ")[1]) <= 8.0 * np.spacing(2.0 * np.pi)


def test_solve_warning_is_one_prefixed_stderr_line(tmp_path, capsys):
    # the floor's warning reaches stderr as one "warning: " line, like the CLI's
    # "error: " lines, not as the bare line of Python's last-resort handler
    radii = radii_file(tmp_path, [1.3, 0.8, 1.1, 1.0, 0.9, 1.2, 0.95])
    assert main(["solve", CSASZAR, "--radii", radii, "--target", "0", "--tol", "1e-15"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("warning: newton_solve stopped at gradient norm")


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
