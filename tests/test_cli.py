import csv
import ctypes
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chemofront
from chemofront import cli, evolver, lapack, scan, slab, spectral
from chemofront.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_INTERNAL,
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
    assert path.read_text().splitlines()[0] == "x,u,v,v_x"
    u2, v2, vx2 = read_profile(str(path))
    assert np.array_equal(u.values, u2.values)
    assert np.array_equal(v.values, v2.values)
    assert np.array_equal(vx.values, vx2.values)
    meta = json.loads((tmp_path / "profile.csv.meta.json").read_text())
    assert meta["command"] == "test"
    assert set(meta["versions"]) == {"chemofront", "numpy", "scipy", "python"}
    assert meta["versions"]["python"] == platform.python_version()
    coarse = Field(Grid1D.from_spacing(-20.0, 20.0, 0.2), np.zeros(201))
    with pytest.raises(ValueError, match="profile fields must share a grid"):
        write_profile(u, v, coarse, tmp_path / "mixed.csv", {"command": "test"})
    assert not (tmp_path / "mixed.csv").exists()


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
    assert meta["bounds"]["all_passed"]
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
            "200",
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
    # the last step advanced a window that had left x_min behind: 50 x units
    # behind the front, and ahead of it 100 plus a snapshot spacing at speed 2
    x_lo, x_hi = meta["stepped_window"]
    assert x_lo > -20.0 and x_hi - x_lo == pytest.approx(151.8)


def test_unconverged_slab_solve_exits_three(out_dir, capped_slab_newton):
    assert run(["slab", "--out", "wave.csv"]) == EXIT_NO_CONVERGENCE
    meta = json.loads((out_dir / "wave.csv.meta.json").read_text())
    assert not meta["converged"] and meta["residual"] > 1e-10
    assert meta["bounds"] is None  # the shape rows judge a converged wave only


def test_slab_wave_failing_a_shape_row_exits_one(out_dir, capsys):
    # a strongly repulsive wave on a slab short against its kernel: it
    # converges, but its mean over [-a, -a + 5] is 0.052 below the left limit
    # 1, and the scan flags the same wave
    assert run(["slab", "--chi", "-20", "--sigma", "100"]) == EXIT_CHECK_FAILED
    assert capsys.readouterr().err.splitlines() == ["slab-bounds-failed: left-plateau"]
    meta = json.loads((out_dir / "slab.csv.meta.json").read_text())
    assert meta["converged"] and abs(meta["c"] - 11.160946) < 1e-6
    rows = {row["name"]: row for row in meta["bounds"]["checks"]}
    assert [name for name, row in rows.items() if not row["pass"]] == ["left-plateau"]
    assert rows["left-plateau"]["lhs"] > 0.05 == rows["left-plateau"]["slack"]
    assert not meta["bounds"]["all_passed"]


def test_slab_too_long_for_a_positive_wave_exits_three_with_strict_json(out_dir, capsys):
    # the slab root's tail underflows to 0, so it is flagged; the solve stays
    # finite (no overflow warning, an error under this suite's settings), so
    # the sidecar is strict JSON
    assert run(["slab", "--a", "800", "--dx", "0.5", "--sigma", "4"]) == EXIT_NO_CONVERGENCE

    def refuse(name):
        raise ValueError(f"non-finite JSON constant {name}")

    meta = json.loads((out_dir / "slab.csv.meta.json").read_text(), parse_constant=refuse)
    assert not meta["converged"] and meta["residual"] < 1e-10
    assert abs(meta["c"] - 1.936486) < 1e-6
    # eigen solves the same slab and writes nothing for it
    capsys.readouterr()
    assert run(["eigen", "--a", "800", "--dx", "0.5", "--sigma", "4"]) == EXIT_NO_CONVERGENCE
    assert capsys.readouterr().err == "slab solve did not converge\n"
    assert not (out_dir / "eigen.csv").exists()


def test_singular_tridiagonal_system_exits_three(monkeypatch, capsys):
    # np.linalg.LinAlgError subclasses ValueError, which alone would read as exit 2
    gttrf = lapack._routines.gttrf

    def singular(*bands):
        du2, ipiv, _, gttrs = gttrf(*bands)
        return du2, ipiv, 1, gttrs

    monkeypatch.setattr(lapack._routines, "gttrf", singular)
    assert run(["slab", "--chi", "-0.05", "--a", "40"]) == EXIT_NO_CONVERGENCE
    assert "singular tridiagonal system" in capsys.readouterr().err


def test_evolve_blow_up_exits_three(monkeypatch, capsys):
    def blow_up(rhs):  # a step solves in place, in the profile
        return np.multiply(rhs, 1e3, out=rhs)

    monkeypatch.setattr(evolver, "_diffusion_solver", lambda grid, dt: blow_up)
    argv = ["evolve", "--xmin", "-20", "--xmax", "100", "--dx", "0.2", "--dt", "0.01", "--tmax", "10"]
    assert run(argv) == EXIT_NO_CONVERGENCE
    assert "exceeds 10x the a-priori bound" in capsys.readouterr().err


def test_eigen_solver_failure_exits_three(monkeypatch, capsys):
    real = spectral._periodic_solver
    monkeypatch.setattr(spectral, "_periodic_solver", lambda main, off: lambda rhs: rhs.copy())
    assert run(["eigen", "--a", "20"]) == EXIT_NO_CONVERGENCE
    assert "inverse iteration stagnated" in capsys.readouterr().err

    # an iteration that converges to the negated ground state
    def negated(main, off):
        solve = real(main, off)
        return lambda rhs: -np.abs(solve(rhs))

    monkeypatch.setattr(spectral, "_periodic_solver", negated)
    assert run(["eigen", "--a", "20"]) == EXIT_NO_CONVERGENCE
    assert "principal eigenvector changed sign" in capsys.readouterr().err


def test_unexpected_error_exits_four(monkeypatch, capsys):
    def divide(args):
        return 1.0 / 0.0

    monkeypatch.setitem(cli._DISPATCH, "slab", divide)
    assert run(["slab"]) == EXIT_INTERNAL
    assert "internal error: ZeroDivisionError: float division by zero" in capsys.readouterr().err


def test_evolve_margin_abort_exits_three(out_dir, capsys):
    cases = (
        # aborts late: the speed is still fitted and written
        ["evolve", "--xmin", "-10", "--xmax", "20", "--dx", "0.2", "--dt", "0.01", "--tmax", "50"],
        # aborts after 3 records, too few to fit a speed
        ["evolve", "--xmin", "-50", "--xmax", "6", "--tmax", "20"],
    )
    for argv in cases:
        assert run(argv) == EXIT_NO_CONVERGENCE
        assert "aborted: front at" in capsys.readouterr().err
        # the sidecar records the abort either way, with c = null without a fit
        meta = json.loads((out_dir / "evolve.csv.meta.json").read_text())
        assert meta["abort_reason"].startswith("front at")
        assert meta["config"]["xmax"] == float(argv[4])
        assert (meta["c"] is None) == (argv is cases[1])
        header = (out_dir / "evolve.csv").read_text().splitlines()[0]
        assert header == "x,u,v,v_x"


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
    assert meta["residual"] < 1e-10  # the inverse iteration's own stopping residual
    assert meta["iterations"] >= 1
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
    with open(out_dir / "scan.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    # a = 40 is below the certificate's a >= 60, so no cell is certified slow
    assert [(row["classification"], row["lambda_cert"]) for row in rows] == [("intermediate", "")] * 2


def test_chi_zero_needs_no_kernel_resolution(out_dir):
    # dx = 0.5 does not resolve the sigma = 1 kernel (dx > sigma/4), but at
    # chi = 0 the drift is exactly zero: each command writes its file
    for argv in (
        ["evolve", "--dx", "0.5", "--dt", "0.05", "--tmax", "40", "--xmax", "200"],
        ["slab", "--dx", "0.5"],
        ["eigen", "--dx", "0.5"],
    ):
        assert run(argv) == EXIT_OK
        assert (out_dir / f"{argv[0]}.csv.meta.json").is_file()
    _, v, vx = read_profile(str(out_dir / "evolve.csv"))
    assert not v.values.any() and not vx.values.any()
    # the scan's certificate gets its drift too; the cell's slab speed at this
    # coarse dx (1.93462) lies below the sandwich, so the scan still exits 1
    assert run(["scan", "--chis=0", "--sigmas", "1", "--dx", "0.5"]) == EXIT_CHECK_FAILED
    header, row = (line.split(",") for line in (out_dir / "scan.csv").read_text().splitlines())
    cell = dict(zip(header, row))
    assert cell["lambda_cert"] and not cell["flags"]


def test_check_command_end_to_end(out_dir):
    assert run(["slab", "--chi", "-0.05", "--a", "40", "--out", "wave.csv"]) == EXIT_OK
    # a relative --input resolves where a relative --out wrote the file
    code = run(
        [
            "check",
            "--input",
            "wave.csv",
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
    assert report["input"] == "wave.csv"
    assert report["monotonicity"]["all_passed"]
    assert "mu" in report["decay"]


def test_check_on_an_evolve_profile_writes_the_decay_fit_error(out_dir):
    # ahead of the stepped range an evolve profile is exactly 0, so the decay
    # window (from the grid's midpoint, x = 140) has no logarithm; the report
    # says so, and the other checks still judge the profile
    argv = ["evolve", "--xmin", "-20", "--xmax", "300", "--dx", "0.2", "--dt", "0.01", "--tmax", "10"]
    assert run(argv) == EXIT_OK
    assert run(["check", "--input", "evolve.csv", "--chi", "0", "--sigma", "1"]) == EXIT_OK
    report = json.loads((out_dir / "check.json").read_text())
    assert report["decay"] == {"error": "profile not positive on the decay window"}
    assert report["monotonicity"]["all_passed"]


def test_invalid_parameters_exit_two(tmp_path, capsys):
    # chi = 0.6 violates the standing assumption
    assert run(["slab", "--chi", "0.6"]) == EXIT_CONFIG
    # unknown kernel family
    assert run(["slab", "--kernel", "gauss"]) == EXIT_CONFIG
    # missing input file
    assert run(["check", "--input", "/nonexistent.csv", "--chi", "0", "--sigma", "1"]) == EXIT_CONFIG
    # a profile whose nodes are not evenly spaced
    x, uneven = np.linspace(0.0, 1.0, 30) ** 2, tmp_path / "uneven.csv"
    np.savetxt(uneven, np.column_stack([x, 1.0 - x, 0 * x, 0 * x]), delimiter=",", header="x,u,v,v_x",
               comments="")
    capsys.readouterr()
    assert run(["check", "--input", str(uneven), "--chi", "0", "--sigma", "1"]) == EXIT_CONFIG
    assert "profile grid is not uniform" in capsys.readouterr().err


def test_non_finite_parameters_exit_two(out_dir, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a solve started on an invalid configuration")

    monkeypatch.setattr(slab, "_newton", refuse)
    monkeypatch.setattr(cli, "evolve", refuse)
    monkeypatch.setattr(scan, "evolve", refuse)
    # --sigma inf and --dx 0 used to end in an internal ZeroDivisionError (exit
    # 4), --a inf, --xmax inf and --dx 1e-320 in an OverflowError; --dx nan
    # and --dt nan exited 2 on a message that named no field
    dx_zero = "grid spacing dx = 0.0 must be positive and finite"
    cases = [
        (["slab", "--sigma", "inf", "--a", "20"], "chi and sigma must be finite"),
        (["slab", "--chi=nan"], "chi and sigma must be finite"),
        (["eigen", "--sigma", "nan"], "chi and sigma must be finite"),
        (["slab", "--dx", "0"], dx_zero),
        (["eigen", "--dx", "0"], dx_zero),
        (["slab", "--dx", "nan"], "grid spacing dx = nan must be positive and finite"),
        (["slab", "--a", "inf"], "slab half-length a = inf must be finite"),
        (["slab", "--dx", "1e-320"], "grid spacing dx = 1e-320 gives a non-finite step count"),
        (["evolve", "--dx", "0", "--tmax", "1"], dx_zero),
        # a scan's slab grid is every cell's, so the scan refuses it before any cell runs
        (["scan", "--chis=0", "--sigmas", "1", "--dx", "0"], dx_zero),
        (["scan", "--chis=0", "--sigmas", "1", "--dx", "0", "--mode", "both"], dx_zero),
        (["evolve", "--dt", "nan"], "dt=nan outside stability budget"),
        (["evolve", "--tmax", "inf"], "t_max = inf must be positive and finite"),
        (["evolve", "--snapshot-every", "nan"], "snapshot_every = nan must be positive and finite"),
        (["evolve", "--xmax", "inf"], "grid bounds x_min = -50.0 and x_max = inf must be finite"),
        # finite times whose step counts overflow (an internal OverflowError, exit 4, before)
        (["evolve", "--tmax", "1e308"], "t_max = 1e+308 with dt = 0.002 gives a non-finite step count"),
        (["evolve", "--snapshot-every", "1e308", "--tmax", "1"],
         "snapshot_every = 1e+308 with dt = 0.002 gives a non-finite step count"),
        (["evolve", "--dt", "1e-320", "--tmax", "1"],
         "t_max = 1.0 with dt = 1e-320 gives a non-finite step count"),
        # a test speed is refused before the slab solve
        (["eigen", "--ctest", "nan"], "test speed c = nan must be finite and at least 1.9"),
        (["eigen", "--ctest", "inf"], "test speed c = inf must be finite and at least 1.9"),
        (["eigen", "--ctest", "1.5"], "test speed c = 1.5 must be finite and at least 1.9"),
    ]
    for argv, message in cases:
        assert run(argv) == EXIT_CONFIG
        assert message in capsys.readouterr().err
    assert list(out_dir.iterdir()) == []


def test_evolve_whose_records_cannot_fill_the_fit_window_exits_two(out_dir, capsys, monkeypatch):
    # --tmax 9 puts 4 records in the fit window's last 40 %; it used to run all
    # 4,500 steps, write nothing, and then exit 2
    def refuse(*args, **kwargs):
        raise AssertionError("stepped a run that cannot fit a speed")

    monkeypatch.setattr(cli, "evolve", refuse)
    assert run(["evolve", "--tmax", "9", "--snapshot-every", "1"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "--tmax 9 with --snapshot-every 1" in err and "fewer than 5" in err
    assert not (out_dir / "evolve.csv").exists()
    monkeypatch.setattr(cli, "evolve", evolver.evolve)
    argv = ["evolve", "--xmin", "-20", "--xmax", "100", "--dx", "0.2", "--dt", "0.01", "--tmax", "10"]
    assert run(argv) == EXIT_OK  # 5 records in the window

    # a speed fit that fails on a run that did not abort is not excused as an abort is
    def no_fit(traj):
        raise ValueError("no speed in the fit window")

    monkeypatch.setattr(cli, "measure_speed", no_fit)
    capsys.readouterr()
    assert run(argv) == EXIT_CONFIG
    assert "invalid configuration: no speed in the fit window" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content, message",
    [
        ("[1, 2]", "does not hold a JSON object"),  # a TypeError traceback, exit 1, before
        ("42", "does not hold a JSON object"),  # likewise
        ('"abc"', "does not hold a JSON object"),  # unknown keys b, c
        ("null", "does not hold a JSON object"),  # silently ignored
        ('{"dx": null}', "config value(s) of dx must be strings or numbers"),  # exit 4
        ('{"dx": true}', "config value(s) of dx must be strings or numbers"),  # a slab at dx = 1
        ('{"a": 40, "dx": [0.1], "chi": {}}', "config value(s) of chi, dx must be strings or numbers"),
    ],
    ids=["list", "number", "string", "null", "null-value", "bool-value", "nested-values"],
)
def test_config_that_is_not_an_object_of_strings_and_numbers_exits_two(
    content, message, tmp_path, capsys, monkeypatch
):
    def refuse(*args, **kwargs):
        raise AssertionError("a solve started on an invalid config")

    monkeypatch.setattr(slab, "_newton", refuse)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(content)
    assert run(["--config", str(cfg), "slab"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("cannot use config: ") and message in err


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


def test_relative_config_lies_under_the_out_dir(tmp_path, monkeypatch):
    # the one path rule: a relative --config is read under FKPP_OUT_DIR, as --input is
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.setenv("FKPP_OUT_DIR", str(out))
    monkeypatch.chdir(tmp_path)
    (out / "c.json").write_text(json.dumps({"out": "from_config.csv"}))
    assert run(["--config", "c.json", "slab"]) == EXIT_OK
    assert (out / "from_config.csv").exists()


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
    # each cell violates the standing assumption, so it is skipped; the
    # predicates, which divide by sigma, wait for the model to accept the cell
    for chi, sigma, message in [("0.6", "1", "standing assumption violated"), ("0", "0", "sigma must be positive")]:
        code = run(["scan", f"--chis={chi}", "--sigmas", sigma, "--out", "scan.csv"])
        assert code == EXIT_CHECK_FAILED
        with open(out_dir / "scan.csv", newline="") as fh:
            [row] = list(csv.DictReader(fh))
        assert row["classification"] == "skipped"
        assert row["flags"].startswith(f"standing-assumption: {message}")
        assert row["slow_pred"] == row["fast_pred"] == ""


def test_scan_with_failed_slab_solve_exits_one(out_dir, capsys, capped_slab_newton):
    # the slab solve is flagged as not converged; the evolve speed still
    # classifies the cell, uncertified, but the scan must not pass
    code = run(["scan", "--chis=0", "--sigmas", "1", "--mode", "both", "--out", "scan.csv"])
    assert code == EXIT_CHECK_FAILED
    row = (out_dir / "scan.csv").read_text().splitlines()[1].split(",")
    assert row[10] == "intermediate" and row[11] == "slab-not-converged"
    assert "1 with a failed solve or certificate" in capsys.readouterr().err


def _negative_certificate(sol):
    return spectral.CertificateReport(True, "", sol.config.a, [{"lambda": -1.0, "phi0": 1.0}])


def _raising_certificate(sol):
    raise np.linalg.LinAlgError("inverse iteration stagnated (residual 1e-3)")


@pytest.mark.parametrize(
    "argv, certificate, classification, flag",
    [
        # dx = 0.1 resolves no kernel of width sigma = 0.2: the evolve run refuses its grid
        (["--chis=-0.01", "--sigmas", "0.2", "--mode", "evolve"], None, "skipped",
         "evolve-error: dx=0.1 too coarse for sigma=0.2 (need dx <= sigma/4)"),
        # a converged slow wave whose certificate reports a negative principal eigenvalue
        (["--chis=0", "--sigmas", "1"], _negative_certificate, "intermediate", "certificate-failed"),
        # a certificate whose eigensolve raises fails the scan; the cell keeps its slab speed
        (["--chis=0", "--sigmas", "1"], _raising_certificate, "intermediate",
         "certificate-failed: inverse iteration stagnated (residual 1e-3)"),
    ],
)
def test_scan_with_a_failure_flag_exits_one(out_dir, monkeypatch, capsys, argv, certificate,
                                            classification, flag):
    if certificate is not None:
        monkeypatch.setattr(scan, "slow_regime_certificate", certificate)
    assert run(["scan", *argv]) == EXIT_CHECK_FAILED
    with open(out_dir / "scan.csv", newline="") as fh:
        [row] = list(csv.DictReader(fh))
    assert (row["classification"], row["flags"]) == (classification, flag)
    assert row["flags"].split(";") == [flag]  # the flags column joins flags with ";"
    assert "1 with a failed solve or certificate" in capsys.readouterr().err


def test_unknown_config_key_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"chi": -0.05, "damping": 0.5}))
    assert run(["--config", str(cfg), "slab"]) == EXIT_CONFIG
    assert "damping" in capsys.readouterr().err


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    """Run `code` in a new interpreter that imports this checkout's chemofront."""
    src = str(Path(chemofront.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


def test_cli_import_skips_unused_scipy_modules():
    # scipy.signal alone used to take about half of the CLI's start-up time; the
    # FFT comes from numpy, quadrature, root finding and special functions
    # load only when a stretched kernel asks; the slab's GMRES and
    # validate_kernel's quadrature are the package's own, so a coupled slab
    # solve and an exp kernel check load none of sparse, integrate or optimize;
    # the LAPACK routines come from scipy.linalg's extension alone, whose
    # package __init__ would load numpy.f2py and numpy.testing; and the process
    # pool (multiprocessing) loads only when a scan asks for workers
    unused = [
        "scipy.signal", "scipy.fft", "scipy.integrate", "scipy.optimize", "scipy.special",
        "scipy.sparse", "scipy.linalg", "numpy.f2py", "numpy.testing", "multiprocessing",
    ]
    after_work = [
        "scipy.sparse", "scipy.integrate", "scipy.optimize", "scipy.linalg", "numpy.f2py",
        "numpy.testing",
    ]
    code = f"""
import sys, chemofront.cli
print([m for m in {unused!r} if m in sys.modules])
from chemofront.kernels import ChemoParams, KernelSpec, validate_kernel
from chemofront.slab import SlabConfig, fixed_point
assert fixed_point(SlabConfig(20.0, ChemoParams(-0.05, 1.0), KernelSpec("exp"), dx=0.2)).converged
assert validate_kernel(KernelSpec("exp")).all_passed
print([m for m in {after_work!r} if m in sys.modules])
"""
    result = _fresh_python(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split("\n")[:2] == ["[]", "[]"]


LAPACK_ROUTINES = ("dgttrf", "dgttrs", "dpttrf", "dpttrs")
# what numpy < 1.26 reports (no build configuration), which forces the SciPy source
FORCE_SCIPY_SOURCE = "import numpy.__config__; numpy.__config__.CONFIG = None\n"
# SciPy's LP64 routines bound, each at the address scipy.linalg.lapack's routine
# of its name calls, from the one extension module scipy.linalg uses
BOUND_AT_SCIPYS_ADDRESSES = f"""
import ctypes, sys
assert lapack._routines.integer is ctypes.c_int32  # LP64
assert sys.modules["scipy.linalg._flapack"] is scipy.linalg.lapack._flapack
get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", ctypes.pythonapi))
get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))
for name in {LAPACK_ROUTINES!r}:
    capsule = getattr(scipy.linalg.lapack, name)._cpointer
    bound = ctypes.cast(getattr(lapack._routines, name), ctypes.c_void_p).value
    assert bound == get_pointer(capsule, get_name(capsule)), name
"""


def test_lapack_routines_are_scipys_after_chemofront_loads_first():
    # the extension chemofront registered is the one scipy.linalg then finds
    result = _fresh_python(FORCE_SCIPY_SOURCE + """
from chemofront import lapack
import scipy.linalg, scipy.linalg.lapack
""" + BOUND_AT_SCIPYS_ADDRESSES)
    assert result.returncode == 0, result.stderr


def test_lapack_extension_missing_names_the_searched_path(tmp_path, monkeypatch):
    import scipy

    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    monkeypatch.setattr(scipy, "__file__", str(tmp_path / "__init__.py"))
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / "linalg"))):
        lapack.Routines.scipy_flapack()


def test_lapack_routines_are_scipys_after_scipy_linalg_loads_first():
    result = _fresh_python(FORCE_SCIPY_SOURCE + """
import scipy.linalg, scipy.linalg.lapack
from chemofront import lapack
""" + BOUND_AT_SCIPYS_ADDRESSES)
    assert result.returncode == 0, result.stderr


@pytest.mark.skipif(
    lapack._routines.integer is not ctypes.c_int64 or not os.path.exists("/proc/self/maps"),
    reason="numpy reports no vendored ILP64 OpenBLAS, or no /proc/self/maps to read",
)
def test_cli_process_maps_only_numpys_openblas():
    result = _fresh_python("""
import sys, chemofront.cli
from chemofront.kernels import ChemoParams, KernelSpec
from chemofront.slab import SlabConfig, fixed_point
assert fixed_point(SlabConfig(20.0, ChemoParams(-0.05, 1.0), KernelSpec("exp"), dx=0.2)).converged
assert "scipy.linalg._flapack" not in sys.modules
with open("/proc/self/maps") as maps:
    assert not [line for line in maps if "libscipy_openblas-" in line]
""")
    assert result.returncode == 0, result.stderr
