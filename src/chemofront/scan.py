"""Parameter sweeps over (chi, sigma) with slow/fast regime classification.

Each cell runs a slab solve and/or a time-dependent front-speed measurement,
then is classified:

* slow  — |chi|(1/sigma + sigma^2) <= 0.15 and measured c in [1.9, 2.1]
* fast  — chi < 0, min(sigma, sigma/|chi|) >= 10 and c >= 0.75 |chi|/2
* intermediate — neither hypothesis holds (left open by the theory)
* skipped — standing assumption violated or the cell solver failed
"""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .evolver import EvolveConfig, evolve, measure_speed, speed_upper_bound
from .grids import Grid1D
from .kernels import ChemoParams, KernelSpec
from .reports import BoundsReport
from .slab import SlabConfig, fixed_point, slab_bounds_check
from .spectral import slow_predicate, slow_regime_certificate

SLOW_PREDICATE_GATE = 0.15
FAST_PREDICATE_GATE = 10.0
SLOW_SPEED_WINDOW = (1.9, 2.1)
FAST_SPEED_FACTOR = 0.75
SANDWICH_SLACK = 0.05  # allowance of sandwich_table on both speed bounds
EVOLVE_T_MAX = 150.0  # longest time-dependent run of an evolve cell

# flags that fail a scan even when the cell still has a speed
FAILURE_FLAGS = ("slab-not-converged", "slab-bounds-failed", "certificate-failed", "evolve-error")


def bounds_flags(report: BoundsReport) -> list[str]:
    """The flag of each failed row of a `slab_bounds_check` report."""
    return [f"slab-bounds-failed: {check.name}" for check in report.failures()]


@dataclass(frozen=True)
class ScanConfig:
    chi_values: tuple
    sigma_values: tuple
    spec: KernelSpec
    mode: str = "slab"  # slab | evolve | both
    workers: int = 1
    slab_a: float = 60.0
    slab_dx: float = SlabConfig.dx
    slab_theta: float = SlabConfig.theta

    def __post_init__(self):
        if self.mode not in ("slab", "evolve", "both"):
            raise ValueError(f"unknown scan mode: {self.mode!r}")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


@dataclass
class RegimeRecord:
    chi: float
    sigma: float
    kernel: str
    a: float
    dx: float
    c_slab: float | None
    c_evolve: float | None
    lambda_cert: float | None
    slow_pred: float
    fast_pred: float
    classification: str
    flags: list[str] = field(default_factory=list)

    @property
    def c(self) -> float | None:
        return self.c_slab if self.c_slab is not None else self.c_evolve


def fast_predicate(chi: float, sigma: float) -> float:
    if chi == 0.0:
        return np.inf
    return min(sigma, sigma / abs(chi))


def _classify(record: RegimeRecord) -> str:
    c = record.c
    if c is None:
        return "skipped"
    if record.slow_pred <= SLOW_PREDICATE_GATE and SLOW_SPEED_WINDOW[0] <= c <= SLOW_SPEED_WINDOW[1]:
        return "slow"
    if (
        record.chi < 0
        and record.fast_pred >= FAST_PREDICATE_GATE
        and c >= FAST_SPEED_FACTOR * abs(record.chi) / 2.0
    ):
        return "fast"
    return "intermediate"


def _evolve_speed(params: ChemoParams, config: ScanConfig) -> float:
    """Front speed from a time-dependent run sized to the cell's scales."""
    sigma = params.sigma
    scale = max(1.0, sigma / 50.0)
    x_min, x_max = -50.0 * scale - 2.0 * sigma, 150.0 * scale + 13.0 * sigma
    dx = 0.1 * scale
    # advective CFL near one at the front suppresses upwind diffusion
    v_scale = max(1.0, abs(params.chi) / 2.0)
    dt = min(dx**2 / 4.0, dx / v_scale)
    c_upper = speed_upper_bound(params.chi, sigma)
    t_max = min(EVOLVE_T_MAX, 0.7 * (x_max - 2.0 * sigma) / c_upper)
    grid = Grid1D.from_spacing(x_min, x_max, dx)
    cfg = EvolveConfig(
        grid=grid,
        dt=dt,
        t_max=t_max,
        snapshot_every=max(10.0 * dt, t_max / 200.0),
        params=params,
        spec=config.spec,
    )
    traj = evolve(cfg)
    return measure_speed(traj).c


def _run_cell(args: tuple) -> RegimeRecord:
    chi, sigma, config = args
    record = RegimeRecord(
        chi=chi,
        sigma=sigma,
        kernel=str(config.spec),
        a=config.slab_a,
        dx=config.slab_dx,
        c_slab=None,
        c_evolve=None,
        lambda_cert=None,
        slow_pred=slow_predicate(chi, sigma),
        fast_pred=fast_predicate(chi, sigma),
        classification="skipped",
    )
    try:
        params = ChemoParams(chi, sigma)
    except ValueError as exc:
        record.flags.append(f"standing-assumption: {exc}")
        return record

    if config.mode in ("slab", "both"):
        try:
            sol = fixed_point(
                SlabConfig(
                    a=config.slab_a,
                    params=params,
                    spec=config.spec,
                    theta=config.slab_theta,
                    dx=config.slab_dx,
                )
            )
            if sol.converged:
                record.c_slab = sol.c
                record.flags += bounds_flags(slab_bounds_check(sol))
                try:
                    cert = slow_regime_certificate(sol)
                except ValueError as exc:  # LinAlgError is one
                    record.flags.append(f"certificate-failed: {exc}")
                else:
                    if cert.applicable:
                        record.lambda_cert = cert.entries[0]["lambda"]
                        if not cert.passed:
                            record.flags.append("certificate-failed")
            else:
                record.flags.append("slab-not-converged")
        except (ValueError, RuntimeError) as exc:
            record.flags.append(f"slab-error: {exc}")

    if config.mode in ("evolve", "both"):
        try:
            record.c_evolve = _evolve_speed(params, config)
        except (ValueError, RuntimeError) as exc:
            record.flags.append(f"evolve-error: {exc}")

    record.classification = _classify(record)
    return record


def run_scan(config: ScanConfig) -> list[RegimeRecord]:
    """Run all cells (parallel across processes if workers > 1) and return
    records sorted by (chi, sigma) for deterministic output."""
    cells = [
        (chi, sigma, config)
        for chi in config.chi_values
        for sigma in config.sigma_values
    ]
    if config.workers == 1:
        records = [_run_cell(cell) for cell in cells]
    else:
        from concurrent.futures import ProcessPoolExecutor  # multiprocessing loads only here

        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            records = list(pool.map(_run_cell, cells))
    records.sort(key=lambda r: (r.chi, r.sigma))
    return records


def sandwich_table(records: list[RegimeRecord]) -> list[dict]:
    """Lower/upper wave-speed bounds per record with a pass flag."""
    if not records:
        raise ValueError("no records")
    table = []
    for r in records:
        upper = speed_upper_bound(r.chi, r.sigma)
        c = r.c
        table.append(
            {
                "chi": r.chi,
                "sigma": r.sigma,
                "lower": 2.0,
                "c": c,
                "upper": upper,
                "passed": c is not None and 2.0 - SANDWICH_SLACK <= c <= upper + SANDWICH_SLACK,
            }
        )
    return table


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return "%.17g" % value
    if isinstance(value, list):  # the flags
        return ";".join(value)
    return str(value)


def records_to_csv(records: list[RegimeRecord]) -> str:
    """Deterministic CSV rendering (17 significant digits, \\n newlines); a field
    holding a comma, such as a flag's message, is quoted."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(f.name for f in fields(RegimeRecord))
    writer.writerows([_fmt(value) for value in asdict(r).values()] for r in records)
    return out.getvalue()


def write_scan_csv(records: list[RegimeRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(records_to_csv(records))
