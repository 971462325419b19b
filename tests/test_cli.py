import json

import numpy as np
import pytest

from chemofront.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    parse_and_dispatch,
    read_profile,
    write_profile,
)
from chemofront.convolve import advection, advection_gradient
from chemofront.grids import Field, Grid1D
from chemofront.kernels import ChemoParams, KernelSpec


@pytest.fixture(autouse=True)
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("FKPP_OUT_DIR", str(tmp_path))
    return tmp_path


def run(argv):
    return parse_and_dispatch(argv)


def test_profile_round_trip_is_bitwise(tmp_path):
    grid = Grid1D.from_spacing(-20.0, 20.0, 0.1)
    params = ChemoParams(-0.3, 1.0)
    spec = KernelSpec("exp")
    u = Field(grid, 1.0 / (1.0 + np.exp(grid.x)), left_ext=1.0, right_ext=0.0)
    v = advection(u, spec, params)
    vx = advection_gradient(u, spec, params)
    path = tmp_path / "profile.csv"
    write_profile(u, v, vx, path, {"command": "test"})
    u2, v2, vx2 = read_profile(str(path))
    assert np.array_equal(u.values, u2.values)
    assert np.array_equal(v.values, v2.values)
    assert np.array_equal(vx.values, vx2.values)
    meta = json.loads((tmp_path / "profile.csv.meta.json").read_text())
    assert meta["command"] == "test"
    assert "chemofront" in meta["versions"]


def test_slab_command_end_to_end(out_dir):
    code = run(
        [
            "slab",
            "--chi",
            "-0.05",
            "--sigma",
            "1",
            "--a",
            "40",
            "--out",
            "wave.csv",
        ]
    )
    assert code == EXIT_OK
    assert (out_dir / "wave.csv").exists()
    meta = json.loads((out_dir / "wave.csv.meta.json").read_text())
    assert meta["converged"]
    assert 1.9 < meta["c"] < 2.1
    u, v, vx = read_profile(str(out_dir / "wave.csv"))
    assert u.values[0] == 1.0
    assert u.values[-1] == 0.0


def test_evolve_command_end_to_end(out_dir):
    code = run(
        [
            "evolve",
            "--xmin",
            "-20",
            "--xmax",
            "100",
            "--dx",
            "0.2",
            "--dt",
            "0.01",
            "--tmax",
            "25",
            "--out",
            "run.csv",
        ]
    )
    assert code == EXIT_OK
    meta = json.loads((out_dir / "run.csv.meta.json").read_text())
    assert 1.5 < meta["c"] < 2.1


def test_evolve_margin_abort_exits_three(out_dir):
    code = run(
        [
            "evolve",
            "--xmin",
            "-10",
            "--xmax",
            "20",
            "--dx",
            "0.2",
            "--dt",
            "0.01",
            "--tmax",
            "50",
        ]
    )
    assert code == EXIT_NO_CONVERGENCE


def test_eigen_command_end_to_end(out_dir):
    code = run(
        [
            "eigen",
            "--chi",
            "-0.02",
            "--sigma",
            "1",
            "--a",
            "60",
            "--ctest",
            "2.01",
            "--out",
            "eig.csv",
        ]
    )
    assert code == EXIT_OK
    meta = json.loads((out_dir / "eig.csv.meta.json").read_text())
    assert meta["lambda"] >= -1e-8
    header = (out_dir / "eig.csv").read_text().splitlines()[0]
    assert header == "x,V,phi"


def test_scan_command_end_to_end(out_dir):
    code = run(
        [
            "scan",
            "--chis=-0.05,0",  # "=" form: a leading dash would read as a flag
            "--sigmas",
            "1",
            "--a",
            "40",
            "--out",
            "scan.csv",
        ]
    )
    assert code == EXIT_OK
    lines = (out_dir / "scan.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[10] == "slow"


def test_check_command_end_to_end(out_dir):
    assert run(["slab", "--chi", "-0.05", "--a", "40", "--out", "wave.csv"]) == EXIT_OK
    code = run(
        [
            "check",
            "--input",
            str(out_dir / "wave.csv"),
            "--chi",
            "-0.05",
            "--sigma",
            "1",
            "--out",
            "report.json",
        ]
    )
    assert code == EXIT_OK
    report = json.loads((out_dir / "report.json").read_text())
    assert report["monotonicity"]["all_passed"]
    assert "mu" in report["decay"]


def test_invalid_parameters_exit_two():
    # chi = 0.6 violates the standing assumption
    assert run(["slab", "--chi", "0.6"]) == EXIT_CONFIG
    # unknown kernel family
    assert run(["slab", "--kernel", "gauss"]) == EXIT_CONFIG
    # missing input file
    assert run(["check", "--input", "/nonexistent.csv", "--chi", "0", "--sigma", "1"]) == EXIT_CONFIG


def test_config_file_merges_defaults(out_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"chi": -0.05, "a": 40.0, "out": "from_config.csv"}))
    code = run(["--config", str(cfg), "slab"])
    assert code == EXIT_OK
    meta = json.loads((out_dir / "from_config.csv.meta.json").read_text())
    assert meta["config"]["chi"] == -0.05
    # explicit flags override config values
    code = run(["--config", str(cfg), "slab", "--out", "explicit.csv"])
    assert code == EXIT_OK
    assert (out_dir / "explicit.csv").exists()


def test_bad_config_file_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["--config", str(bad), "slab"]) == EXIT_CONFIG
    assert run(["--config", str(tmp_path / "missing.json"), "slab"]) == EXIT_CONFIG


def test_check_failure_exits_one(out_dir, capsys):
    grid = Grid1D.from_spacing(-20.0, 20.0, 0.1)
    params = ChemoParams(-0.05, 1.0)
    spec = KernelSpec("exp")
    vals = 1.0 / (1.0 + np.exp(grid.x))
    vals[grid.index_of(10.0)] += 0.01  # a bump in the tail, where u must be monotone
    u = Field(grid, vals, left_ext=1.0, right_ext=0.0)
    write_profile(u, advection(u, spec, params), advection_gradient(u, spec, params),
                  out_dir / "bumpy.csv", {"command": "test"})
    code = run(["check", "--input", str(out_dir / "bumpy.csv"), "--chi", "-0.05", "--sigma", "1"])
    assert code == EXIT_CHECK_FAILED
    assert "FAILED" in capsys.readouterr().out


def test_scan_with_skipped_cell_exits_one(out_dir):
    # chi = 0.6 violates the standing assumption, so the cell is skipped
    code = run(["scan", "--chis", "0.6", "--sigmas", "1", "--out", "scan.csv"])
    assert code == EXIT_CHECK_FAILED
    row = (out_dir / "scan.csv").read_text().splitlines()[1].split(",")
    assert row[10] == "skipped"


def test_unknown_config_key_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"chi": -0.05, "damping": 0.5}))
    assert run(["--config", str(cfg), "slab"]) == EXIT_CONFIG
    assert "damping" in capsys.readouterr().err
