"""Command-line interface: evolve / slab / eigen / scan / check.

All numeric output goes to files (CSV for arrays, JSON sidecars for
metadata); stdout carries a one-line human summary.  Exit codes: 0 success,
1 failed check or scan, 2 invalid configuration, 3 solver non-convergence,
4 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .convolve import advection, advection_gradient
from .diagnostics import decay_fit, monotonicity_check, moment_check
from .evolver import (
    FIT_MIN_RECORDS,
    FIT_WINDOW,
    BlowUpError,
    EvolveConfig,
    evolve,
    fit_window_records,
    measure_speed,
    speed_from_integral,
)
from .grids import Field, Grid1D
from .kernels import ChemoParams, parse_kernel, validate_kernel
from .scan import FAILURE_FLAGS, ScanConfig, bounds_flags, run_scan, sandwich_table, write_scan_csv
from .slab import SlabConfig, SlabSolution, fixed_point, slab_bounds_check
from .spectral import assemble_potential, check_test_speed, principal_eigenpair, slab_drift

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_INTERNAL = 4


def _resolve(path: str) -> Path:
    """The one path rule: a relative file argument, input or output, lies
    under FKPP_OUT_DIR (default: the working directory)."""
    return Path(os.environ.get("FKPP_OUT_DIR", ".")) / path


def _out_path(name: str, out: str | None) -> Path:
    path = _resolve(out or name)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(obj: dict, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2, default=str) + "\n")


def _write_columns(columns: dict, path: Path, meta: dict) -> None:
    """CSV of equal-length columns at 17 significant digits plus a JSON
    metadata sidecar that records the package and Python versions."""
    np.savetxt(path, np.column_stack(list(columns.values())), fmt="%.17g", delimiter=",",
               header=",".join(columns), comments="")
    versions = {
        "chemofront": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }
    _write_json({**meta, "versions": versions}, Path(str(path) + ".meta.json"))


def write_profile(u: Field, v: Field, vx: Field, path: Path, meta: dict) -> None:
    """Profile CSV (x,u,v,v_x) plus its JSON metadata sidecar."""
    if u.grid != v.grid or u.grid != vx.grid:
        raise ValueError("profile fields must share a grid")
    _write_columns({"x": u.grid.x, "u": u.values, "v": v.values, "v_x": vx.values}, path, meta)


def read_profile(path: str | Path) -> tuple[Field, Field, Field]:
    data = np.genfromtxt(path, delimiter=",", names=True)
    x = data["x"]
    grid = Grid1D(float(x[0]), float(x[-1]), x.size)
    if np.max(np.abs(grid.x - x)) > 1e-9 * max(1.0, grid.dx):
        raise ValueError("profile grid is not uniform")
    u = Field(grid, data["u"], left_ext=1.0, right_ext=0.0)
    v = Field(grid, data["v"])
    vx = Field(grid, data["v_x"])
    return u, v, vx


def _read_config(path: Path) -> dict:
    """Flag defaults from a JSON file: an object whose values are strings or
    numbers (true and false are neither)."""
    with open(path) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"{path} does not hold a JSON object of flag defaults")
    bad = sorted(
        key for key, value in config.items()
        if isinstance(value, bool) or not isinstance(value, (str, int, float))
    )
    if bad:
        raise ValueError(f"config value(s) of {', '.join(bad)} must be strings or numbers")
    return config


def _build_parser(defaults: dict | None = None) -> argparse.ArgumentParser:
    """Build the argument parser, optionally seeding flag defaults from a config.

    Defaults must be pushed into every subparser as well: a subcommand parses
    into its own namespace, so main-parser ``set_defaults`` alone is ignored.
    """
    parser = argparse.ArgumentParser(
        prog="chemofront",
        description="Front-speed laboratory for the FKPP equation with nonlocal advection",
    )
    under_out_dir = " (a relative path is resolved under FKPP_OUT_DIR)"
    parser.add_argument("--config", help="JSON file with flag defaults (flags override)" + under_out_dir)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--chi", type=float, default=0.0)
        p.add_argument("--sigma", type=float, default=1.0)
        p.add_argument("--kernel", default="exp")
        p.add_argument("--out", help="output file" + under_out_dir)

    def slab_options(p):
        p.add_argument("--a", type=float, default=ScanConfig.slab_a)
        p.add_argument("--theta", type=float, default=SlabConfig.theta)
        p.add_argument("--dx", type=float, default=SlabConfig.dx)

    p_evolve = sub.add_parser("evolve", help="time-dependent run with front tracking")
    common(p_evolve)
    p_evolve.add_argument("--xmin", type=float, default=-50.0)
    p_evolve.add_argument("--xmax", type=float, default=350.0)
    p_evolve.add_argument("--dx", type=float, default=0.1)
    p_evolve.add_argument("--dt", type=float, default=0.002)
    p_evolve.add_argument("--tmax", type=float, default=150.0)
    p_evolve.add_argument("--snapshot-every", type=float, default=1.0)

    p_slab = sub.add_parser("slab", help="traveling-wave slab solve")
    common(p_slab)
    slab_options(p_slab)

    p_eigen = sub.add_parser("eigen", help="potential and principal eigenpair of a slab wave")
    common(p_eigen)
    slab_options(p_eigen)
    p_eigen.add_argument("--ctest", type=float, default=2.0)

    p_scan = sub.add_parser("scan", help="(chi, sigma) sweep with regime classification")
    p_scan.add_argument("--chis", required=True, help="comma-separated chi values")
    p_scan.add_argument("--sigmas", required=True, help="comma-separated sigma values")
    p_scan.add_argument("--kernel", default="exp")
    p_scan.add_argument("--mode", choices=("slab", "evolve", "both"), default="slab")
    p_scan.add_argument("--workers", type=int, default=1)
    slab_options(p_scan)
    p_scan.add_argument("--out", help="output file" + under_out_dir)

    p_check = sub.add_parser("check", help="diagnostics on a stored profile")
    p_check.add_argument("--input", required=True, help="profile CSV" + under_out_dir)
    p_check.add_argument("--chi", type=float, required=True)
    p_check.add_argument("--sigma", type=float, required=True)
    p_check.add_argument("--kernel", default="exp")
    p_check.add_argument("--out", help="output file" + under_out_dir)

    if defaults:
        sub_parsers = (p_evolve, p_slab, p_eigen, p_scan, p_check)
        known = {action.dest for p in (parser, *sub_parsers) for action in p._actions}
        unknown = sorted(set(defaults) - known)
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
        parser.set_defaults(**defaults)
        for sub_parser in sub_parsers:
            sub_parser.set_defaults(**defaults)
    return parser


def _cmd_evolve(args) -> int:
    spec = parse_kernel(args.kernel)
    params = ChemoParams(args.chi, args.sigma)
    grid = Grid1D.from_spacing(args.xmin, args.xmax, args.dx)
    config = EvolveConfig(
        grid=grid,
        dt=args.dt,
        t_max=args.tmax,
        snapshot_every=args.snapshot_every,
        params=params,
        spec=spec,
    )
    if fit_window_records(config) < FIT_MIN_RECORDS:
        raise ValueError(
            f"--tmax {args.tmax:g} with --snapshot-every {args.snapshot_every:g} records fewer than "
            f"{FIT_MIN_RECORDS} fronts in the speed fit's window, the last {FIT_WINDOW:.0%} of the run"
        )
    traj = evolve(config)
    est, no_speed = None, ""
    try:
        est = measure_speed(traj)
    except ValueError as exc:
        if traj.abort_reason is None:
            raise
        # aborted before the fit window held enough records: no speed, but
        # the profile and the reason are still written
        no_speed = f" (no speed: {exc})"
    u = traj.final()
    v = advection(u, spec, params)
    vx = advection_gradient(u, spec, params)
    path = _out_path("evolve.csv", args.out)
    write_profile(
        u,
        v,
        vx,
        path,
        {
            "command": "evolve",
            "config": vars(args),
            # null without a speed
            **{key: getattr(est, key, None) for key in ("c", "stderr", "window")},
            "clipped_mass": traj.clipped_mass,
            "abort_reason": traj.abort_reason,
            # first and last node the last step advanced; null if none was taken
            "stepped_window": None if traj.stepped is None
            else [float(grid.x[traj.stepped[0]]), float(grid.x[traj.stepped[1] - 1])],
        },
    )
    speed = "no speed" if est is None else f"c = {est.c:.6f} (stderr {est.stderr:.2e})"
    print(f"evolve: {speed} -> {path}")
    if traj.abort_reason is None:
        return EXIT_OK
    print(f"aborted: {traj.abort_reason}{no_speed}", file=sys.stderr)
    return EXIT_NO_CONVERGENCE


def _slab_wave(args) -> SlabSolution:
    """Solve the slab wave the `slab` and `eigen` subcommands share."""
    spec = parse_kernel(args.kernel)
    params = ChemoParams(args.chi, args.sigma)
    return fixed_point(SlabConfig(a=args.a, params=params, spec=spec, theta=args.theta, dx=args.dx))


def _cmd_slab(args) -> int:
    sol = _slab_wave(args)
    v, vx = slab_drift(sol)
    bounds = slab_bounds_check(sol) if sol.converged else None
    path = _out_path("slab.csv", args.out)
    write_profile(
        sol.u,
        v,
        vx,
        path,
        {
            "command": "slab",
            "config": vars(args),
            "c": sol.c,
            "residual": sol.residual,
            "iterations": sol.iterations,
            "converged": sol.converged,
            "tau_path": sol.tau_path,
            "bounds": None if bounds is None else bounds.to_dict(),
        },
    )
    print(f"slab: c = {sol.c:.6f} (residual {sol.residual:.2e}) -> {path}")
    if bounds is None:
        return EXIT_NO_CONVERGENCE
    for flag in bounds_flags(bounds):  # as the scan flags the same wave
        print(flag, file=sys.stderr)
    return EXIT_OK if bounds.all_passed else EXIT_CHECK_FAILED


def _cmd_eigen(args) -> int:
    check_test_speed(args.ctest)  # before the slab solve, which a refused speed would waste
    sol = _slab_wave(args)
    if not sol.converged:
        print("slab solve did not converge", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    v, vx = slab_drift(sol)
    pot = assemble_potential(sol.u, args.ctest, v, vx)
    pair = principal_eigenpair(pot)
    path = _out_path("eigen.csv", args.out)
    _write_columns(
        {"x": pot.grid.x, "V": pot.values, "phi": pair.phi.values},
        path,
        {
            "command": "eigen",
            "config": vars(args),
            "lambda": pair.lam,
            "residual": pair.residual,
            "iterations": pair.iterations,
            "c_test": args.ctest,
            "c_slab": sol.c,
        },
    )
    print(f"eigen: lambda = {pair.lam:.6e} -> {path}")
    return EXIT_OK


def _cmd_scan(args) -> int:
    spec = parse_kernel(args.kernel)
    config = ScanConfig(
        chi_values=tuple(float(s) for s in args.chis.split(",")),
        sigma_values=tuple(float(s) for s in args.sigmas.split(",")),
        spec=spec,
        mode=args.mode,
        workers=args.workers,
        slab_a=args.a,
        slab_dx=args.dx,
        slab_theta=args.theta,
    )
    records = run_scan(config)
    path = _out_path("scan.csv", args.out)
    write_scan_csv(records, path)
    table = sandwich_table(records)
    n_ok = sum(1 for row in table if row["passed"])
    n_skipped = sum(1 for r in records if r.classification == "skipped")
    n_failed = sum(any(f.startswith(FAILURE_FLAGS) for f in r.flags) for r in records)
    print(f"scan: {len(records)} cells -> {path} (sandwich ok: {n_ok}/{len(table)})")
    if n_skipped or n_failed or n_ok < len(table):
        n_outside = len(table) - n_ok
        print(f"scan: {n_skipped} skipped, {n_outside} outside the sandwich, "
              f"{n_failed} with a failed solve or certificate", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _cmd_check(args) -> int:
    spec = parse_kernel(args.kernel)
    params = ChemoParams(args.chi, args.sigma)
    u, v, vx = read_profile(_resolve(args.input))
    kernel_report = validate_kernel(spec)
    mono = monotonicity_check(u, params)
    moment = moment_check(v, params)
    result = {
        "input": args.input,
        "kernel": kernel_report.to_dict(),
        "monotonicity": mono.to_dict(),
        "moment": moment.to_dict(),
        "integral_speed": speed_from_integral(u),
    }
    try:
        mid = 0.5 * (u.grid.x_min + u.grid.x_max)
        mu, r2 = decay_fit(u, mid)
        result["decay"] = {"mu": mu, "r_squared": r2}
    except ValueError as exc:
        result["decay"] = {"error": str(exc)}
    path = _out_path("check.json", args.out)
    _write_json(result, path)
    ok = kernel_report.all_passed and mono.all_passed
    print(f"check: {'ok' if ok else 'FAILED'} -> {path}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


_DISPATCH = {
    "evolve": _cmd_evolve,
    "slab": _cmd_slab,
    "eigen": _cmd_eigen,
    "scan": _cmd_scan,
    "check": _cmd_check,
}


def parse_and_dispatch(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    # first pass only to find --config; argparse handles unknown flags (exit 2)
    args = parser.parse_args(argv)
    if args.config:
        try:
            parser = _build_parser(_read_config(_resolve(args.config)))
        except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
            print(f"cannot use config: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    # LinAlgError subclasses ValueError, so it is caught first
    except (np.linalg.LinAlgError, BlowUpError) as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (ValueError, OSError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(parse_and_dispatch())


if __name__ == "__main__":
    main()
