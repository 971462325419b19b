"""The three benchmark workloads: inputs drawn from a seed, timed steps, checks.

A workload is a list of steps that make up one unit of work (one front-speed
measurement, one sweep of certified waves, one CLI session).  Each step times
itself, checks its own output and reports failures as strings, so a wrong
answer counts as a failed operation whatever the exit code said.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from chemofront import convolve, evolver, slab, spectral
from chemofront.evolver import EvolveConfig
from chemofront.grids import Field, Grid1D, smoothed_step_field
from chemofront.kernels import ChemoParams, KernelSpec
from chemofront.slab import SlabConfig

import spans

EXP = KernelSpec("exp")
HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text())
REFERENCE_SEED = 0
SANDWICH_SLACK = 0.05  # as in chemofront.scan.sandwich_table
COMMAND_TIMEOUT_S = 150.0


@dataclass
class Step:
    """One timed operation: its wall time, its checks and what it produced."""

    name: str
    wall: float
    failures: list[str]
    stage: float = 0.0  # part of ``wall`` spent in the workload's inner stage
    bytes_written: int = 0  # size of the session's output files after this step
    trace: dict | None = None  # spans recorded in a child process


def upper_speed(chi: float, sigma: float) -> float:
    """Upper end of the paper's speed sandwich 2 <= c <= 2 sqrt(1 + |chi|/sigma) + |chi|/2."""
    return 2.0 * math.sqrt(1.0 + abs(chi) / sigma) + abs(chi) / 2.0


def sandwich_failure(label: str, c: float, chi: float, sigma: float) -> list[str]:
    lo, hi = 2.0 - SANDWICH_SLACK, upper_speed(chi, sigma) + SANDWICH_SLACK
    return [] if lo <= c <= hi else [f"{label}: c={c:.6f} outside sandwich [{lo:.4f}, {hi:.4f}]"]


def near_failure(label: str, value: float, expected: float, tol: float) -> list[str]:
    if abs(value - expected) <= tol:
        return []
    return [f"{label}: {float(value)!r} differs from reference {expected!r} by more than {tol:g}"]


class FrontSlow:
    """evolve + measure_speed at chi ~ -0.05, sigma = 1 on n = 4001 nodes."""

    name = "front-slow"
    aliases = ("front_s", "evolve_s")
    ops_per_unit = 1
    layers = ("convolve", "kernels", "evolver")
    T_MAX = 20.0  # shortest run whose fitted speed clears the sandwich's lower end

    def __init__(self, seed: int, workdir: Path):
        self.ref = REFERENCE[self.name]
        rng = np.random.default_rng(seed)
        self.exact = seed == REFERENCE_SEED
        self.chi = self.ref["chi"] if self.exact else float(rng.uniform(-0.07, -0.03))
        self.params = ChemoParams(self.chi, 1.0)

    def describe(self) -> dict:
        return {"chi": self.chi, "sigma": 1.0, "kernel": "exp", "grid": [-50.0, 350.0, 0.1],
                "dt": 0.002, "t_max": self.T_MAX, "snapshot_every": 1.0}

    @staticmethod
    def _grid() -> Grid1D:
        return Grid1D.from_spacing(-50.0, 350.0, 0.1)

    def warm(self) -> None:
        convolve.advection(smoothed_step_field(self._grid()), EXP, self.params)

    def steps(self, traced: bool):
        return [self._front]

    def _front(self) -> Step:
        t0 = time.perf_counter()
        config = EvolveConfig(grid=self._grid(), dt=0.002, t_max=self.T_MAX,
                              snapshot_every=1.0, params=self.params, spec=EXP)
        traj = evolver.evolve(config)
        t1 = time.perf_counter()
        est = evolver.measure_speed(traj, 0.5, 0.4)
        t2 = time.perf_counter()
        return Step("front", t2 - t0, self._check(traj, est.c), stage=t1 - t0)

    def _check(self, traj, c: float) -> list[str]:
        failures = []
        if traj.abort_reason is not None:
            failures.append(f"front: aborted: {traj.abort_reason}")
        if not traj.clipped_mass <= 1e-12:
            failures.append(f"front: clipped mass {traj.clipped_mass:.3e}")
        failures += sandwich_failure("front", c, self.chi, 1.0)
        c_int = evolver.speed_from_integral(traj.final())
        failures += near_failure("front: integral speed", c_int, c, 0.02)
        tol = self.ref["tol"] if self.exact else self.ref["tol_other_seed"]
        failures += near_failure("front: c", c, self.ref["c"], tol)
        return failures

    def summarize(self, steps: list[Step]) -> dict:
        (front,) = steps
        return {"op": front.wall, "stage": front.stage, "comparable": front.wall}


class WaveSweep:
    """Certified slab waves over a (sigma x {0, repulsive, attractive}) grid."""

    name = "wave-sweep"
    aliases = ("wave_s", "slab_s")
    layers = ("slab", "spectral", "convolve", "kernels")
    SIGMAS = 8
    ops_per_unit = 3 * SIGMAS

    def __init__(self, seed: int, workdir: Path):
        self.ref = REFERENCE[self.name]
        rng = np.random.default_rng(seed)
        n = self.SIGMAS
        # One draw from each of n equal strata, so that every seed's sweep
        # holds small and large sigmas alike: a wave's cost grows with sigma
        # (the convolution window), and independent draws changed a sweep's
        # work by 15 % from seed to seed.
        sigmas = 0.5 + (np.arange(n) + rng.uniform(size=n)) / n
        f_reps = 0.3 + 0.6 * (rng.permutation(n) + rng.uniform(size=n)) / n
        f_atts = 0.3 + 0.6 * (rng.permutation(n) + rng.uniform(size=n)) / n
        self.cells = []
        for sigma, f_rep, f_att in zip(sigmas.tolist(), f_reps.tolist(), f_atts.tolist()):
            limit = spectral.CERTIFICATE_GATE / (1.0 / sigma + sigma**2)
            self.cells += [(0.0, sigma), (-f_rep * limit, sigma), (f_att * limit, sigma)]
        self.exact = seed == REFERENCE_SEED

    def describe(self) -> dict:
        return {"a": 60.0, "dx": 0.05, "kernel": "exp", "cells": self.cells}

    def warm(self) -> None:
        grid = Grid1D.from_spacing(-60.0, 60.0, 0.05)
        u = Field(grid, 0.5 * (1.0 - np.tanh(grid.x)), left_ext=1.0, right_ext=0.0)
        for chi, sigma in self.cells:
            if chi != 0.0:
                convolve.advection(u, EXP, ChemoParams(chi, sigma))
                convolve.advection_gradient(u, EXP, ChemoParams(chi, sigma))

    def steps(self, traced: bool):
        return [lambda i=i: self._wave(i) for i in range(len(self.cells))]

    def _wave(self, i: int) -> Step:
        chi, sigma = self.cells[i]
        t0 = time.perf_counter()
        sol = slab.fixed_point(SlabConfig(a=60.0, params=ChemoParams(chi, sigma), spec=EXP, dx=0.05))
        t1 = time.perf_counter()
        cert = spectral.slow_regime_certificate(sol)
        t2 = time.perf_counter()
        return Step(f"wave{i}", t2 - t0, self._check(i, sol, cert), stage=t1 - t0)

    def _check(self, i: int, sol, cert) -> list[str]:
        chi, sigma = self.cells[i]
        label = f"wave chi={chi:.6g} sigma={sigma:.6g}"
        failures = []
        if not sol.converged:
            failures.append(f"{label}: not converged")
        if not sol.residual < 1e-8:
            failures.append(f"{label}: residual {sol.residual:.3e}")
        if not (cert.applicable and cert.passed):
            failures.append(f"{label}: certificate failed ({cert.reason or cert.entries})")
        c0 = self.ref["c_fkpp"]
        if self.exact or chi == 0.0:
            expected = self.ref["c_seed0"][i] if self.exact else c0
            failures += near_failure(f"{label}: c", sol.c, expected, self.ref["tol"])
        else:
            # repulsive drift speeds the wave up, attraction slows it, by < 2e-5 here
            failures += near_failure(f"{label}: c", sol.c, c0, self.ref["tol_other_seed"])
            if not (sol.c - c0) * chi < 0.0:
                failures.append(f"{label}: c={float(sol.c)!r} on the wrong side of {c0!r}")
        return failures

    def summarize(self, steps: list[Step]) -> dict:
        n = len(steps)
        op = sum(s.wall for s in steps) / n
        return {"op": op, "stage": sum(s.stage for s in steps) / n, "comparable": op}


class CliSession:
    """A user session: each command a fresh ``python -m chemofront.cli`` process."""

    name = "cli-session"
    aliases = ("session_s", "scan_s")
    ops_per_unit = 1
    layers = ("cli", "scan", "evolver", "slab", "spectral", "diagnostics", "convolve", "kernels")
    T_EVOLVE = 20.0

    def __init__(self, seed: int, workdir: Path):
        self.ref = REFERENCE[self.name]
        rng = np.random.default_rng(seed)
        self.exact = seed == REFERENCE_SEED
        self.chi_slow = self.ref["chi_slow"] if self.exact else round(float(rng.uniform(-0.05, -0.03)), 4)
        self.workdir = workdir
        self.sessions = 0

    def describe(self) -> dict:
        return {"commands": [args for _, args in self._commands(False)]}

    def _commands(self, traced: bool) -> list[tuple[str, list[str]]]:
        workers = "1" if traced else "2"
        return [
            ("evolve", ["evolve", "--tmax", f"{self.T_EVOLVE:g}", "--out", "evolve.csv"]),
            ("slab", ["slab", "--out", "slab.csv"]),
            ("eigen", ["eigen", "--out", "eigen.csv"]),
            ("check", ["check", "--input", "slab.csv", "--chi", "0", "--sigma", "1",
                       "--out", "check.json"]),
            ("scan", ["scan", f"--chis=-20,{self.chi_slow!r},0", "--sigmas", "1,200",
                      "--mode", "both", "--workers", workers, "--out", "scan.csv"]),
        ]

    def warm(self) -> None:
        pass  # every command pays its own start-up, as a user does

    def steps(self, traced: bool):
        self.sessions += 1
        session_dir = self.workdir / f"session{self.sessions}"
        session_dir.mkdir(parents=True)
        checks = {"evolve": self._check_evolve, "slab": self._check_slab,
                  "eigen": self._check_eigen, "check": self._check_check,
                  "scan": self._check_scan}
        return [
            (lambda name=name, args=args: self._run(name, args, session_dir, traced, checks[name]))
            for name, args in self._commands(traced)
        ]

    def _run(self, name, args, cwd: Path, traced: bool, check) -> Step:
        # PYTHONPATH and the thread settings come from run.py's environment
        env = dict(os.environ, FKPP_OUT_DIR=str(cwd))
        if traced:
            trace_path = cwd / f"{name}.spans.json"
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(trace_path), "--", *args]
        else:
            argv = [sys.executable, "-m", "chemofront.cli", *args]
        t0 = time.perf_counter()
        code, out, err = run_process(argv, cwd, env)
        wall = time.perf_counter() - t0
        if code != 0:
            failures = [f"{name}: exit code {code}: {err.strip()[-300:]}"]
        else:
            try:
                failures = check(cwd, out)
            except (OSError, ValueError, KeyError) as exc:
                failures = [f"{name}: unreadable output: {exc}"]
        written = sum(p.stat().st_size for p in cwd.iterdir() if not p.name.endswith(".spans.json"))
        step = Step(name, wall, failures, stage=wall if name == "scan" else 0.0,
                    bytes_written=written)
        if traced and code == 0:
            step.trace = spans.read(trace_path)
        return step

    # Exit codes are not trusted: `check` and `scan` exit 0 on failure, so the
    # output files and summary lines are parsed instead.
    def _meta(self, cwd: Path, name: str) -> dict:
        return json.loads((cwd / f"{name}.meta.json").read_text())

    def _check_evolve(self, cwd: Path, out: str) -> list[str]:
        meta = self._meta(cwd, "evolve.csv")
        failures = []
        if meta["abort_reason"] is not None:
            failures.append(f"evolve: aborted: {meta['abort_reason']}")
        if not meta["clipped_mass"] <= 1e-12:
            failures.append(f"evolve: clipped mass {meta['clipped_mass']:.3e}")
        if f"c = {meta['c']:.6f}" not in out:
            failures.append(f"evolve: summary line disagrees with metadata: {out.strip()}")
        failures += sandwich_failure("evolve", meta["c"], 0.0, 1.0)
        failures += near_failure("evolve: c", meta["c"], self.ref["evolve_c"], self.ref["tol"])
        return failures

    def _check_slab(self, cwd: Path, out: str) -> list[str]:
        meta = self._meta(cwd, "slab.csv")
        failures = []
        if not (meta["converged"] and meta["residual"] < 1e-8):
            failures.append(f"slab: converged={meta['converged']} residual={meta['residual']:.3e}")
        failures += near_failure("slab: c", meta["c"], self.ref["slab_c"], self.ref["tol"])
        return failures

    def _check_eigen(self, cwd: Path, out: str) -> list[str]:
        meta = self._meta(cwd, "eigen.csv")
        failures = []
        if not meta["lambda"] >= -1e-8:
            failures.append(f"eigen: principal eigenvalue {meta['lambda']:.3e} < 0")
        failures += near_failure("eigen: lambda", meta["lambda"], self.ref["eigen_lambda"], self.ref["tol"])
        failures += near_failure("eigen: c_slab", meta["c_slab"], self.ref["slab_c"], self.ref["tol"])
        return failures

    def _check_check(self, cwd: Path, out: str) -> list[str]:
        report = json.loads((cwd / "check.json").read_text())
        failures = []
        if not out.startswith("check: ok"):
            failures.append(f"check: summary says {out.strip()!r}")
        for part in ("kernel", "monotonicity"):
            if not report[part]["all_passed"]:
                failures.append(f"check: {part} checks failed")
        rel = abs(report["integral_speed"] - self.ref["slab_c"]) / self.ref["slab_c"]
        if not rel <= 0.02:
            failures.append(f"check: integral speed {report['integral_speed']!r} off by {rel:.3e}")
        return failures

    def _check_scan(self, cwd: Path, out: str) -> list[str]:
        with open(cwd / "scan.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        failures = []
        match = re.search(r"sandwich ok: (\d+)/(\d+)", out)
        if match is None or match.group(1) != match.group(2) or int(match.group(2)) != 6:
            failures.append(f"scan: summary line {out.strip()!r}")
        expected = {
            (-20.0, 1.0): "intermediate", (-20.0, 200.0): "fast",
            (float(self.chi_slow), 1.0): "slow", (float(self.chi_slow), 200.0): "fast",
            (0.0, 1.0): "slow", (0.0, 200.0): "slow",
        }
        seen = set()
        for row in rows:
            key = (float(row["chi"]), float(row["sigma"]))
            seen.add(key)
            label = f"scan cell chi={key[0]:g} sigma={key[1]:g}"
            if row["classification"] != expected.get(key):
                failures.append(f"{label}: classified {row['classification']!r}")
            flags = [f for f in row["flags"].split(";") if f]
            # the slab hypothesis theta < theta_max fails at chi=-20, sigma=1
            allowed = "slab-error: theta must lie" if key == (-20.0, 1.0) else None
            if any(allowed is None or not f.startswith(allowed) for f in flags):
                failures.append(f"{label}: flags {flags}")
            c = float(row["c_slab"] or row["c_evolve"])
            failures += sandwich_failure(label, c, *key)
            ref = self.ref["scan"].get(f"{key[0]:g},{key[1]:g}")
            if ref is not None and (self.exact or key[0] != float(self.chi_slow)):
                for col in ("c_slab", "c_evolve", "lambda_cert"):
                    if ref[col] is None:
                        continue
                    failures += near_failure(f"{label}: {col}", float(row[col] or "nan"),
                                             ref[col], self.ref["tol"])
        if seen != set(expected):
            failures.append(f"scan: cells {sorted(seen)} != {sorted(expected)}")
        return failures

    def summarize(self, steps: list[Step]) -> dict:
        session = sum(s.wall for s in steps)
        scan = sum(s.stage for s in steps)
        # the traced session runs the scan with one worker, so only the other
        # commands compare between traced and untraced sessions
        return {"op": session, "stage": scan, "comparable": session - scan}


def run_process(argv: list[str], cwd: Path, env: dict) -> tuple[int, str, str]:
    """Run a command in its own process group and reap the whole group."""
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return -9, out, f"timed out after {COMMAND_TIMEOUT_S:g} s\n{err}"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # scan workers left behind, if any
        except ProcessLookupError:
            pass
    return proc.returncode, out, err


WORKLOADS = {cls.name: cls for cls in (FrontSlow, WaveSweep, CliSession)}
