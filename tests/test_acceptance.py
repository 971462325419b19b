"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single pass/fail line;
expensive artifacts (long time-dependent runs, slab solves) are shared through
module-scoped fixtures.
"""

import numpy as np
import pytest

from chemofront.convolve import advection, advection_bounds_check, advection_gradient
from chemofront.diagnostics import (
    empirical_poincare_constants,
    moment_check,
    monotonicity_check,
)
from chemofront.evolver import EvolveConfig, evolve, measure_speed, speed_from_integral
from chemofront.grids import Field, Grid1D
from chemofront.kernels import ChemoParams, KernelSpec, validate_kernel
from chemofront.scan import ScanConfig, records_to_csv, run_scan, sandwich_table
from chemofront.slab import SlabConfig, fixed_point, slab_bounds_check
from chemofront.spectral import (
    principal_eigenpair,
    rayleigh_quotient,
    slow_regime_certificate,
    tent_test_function,
)
from oracles import banded_principal_eigenvalue, direct_drift

EXP = KernelSpec("exp")

SLAB_CASES = [
    ChemoParams(0.0, 1.0),
    ChemoParams(-0.05, 1.0),
    ChemoParams(0.03, 1.0),
    ChemoParams(-0.02, 0.5),
]


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\ncriterion {num:02d} [{name}]: {status}{suffix}")


@pytest.fixture(scope="module")
def slow_trajectory():
    grid = Grid1D.from_spacing(-50.0, 350.0, 0.1)
    config = EvolveConfig(
        grid=grid,
        dt=0.002,
        t_max=150.0,
        snapshot_every=1.0,
        params=ChemoParams(0.0, 1.0),
        spec=EXP,
    )
    return evolve(config)


@pytest.fixture(scope="module")
def slab_solutions():
    sols = {}
    for params in SLAB_CASES:
        config = SlabConfig(a=60.0, params=params, spec=EXP)
        sols[(params.chi, params.sigma)] = fixed_point(config)
    return sols


def test_criterion_01_slow_front_speed(slow_trajectory):
    est = measure_speed(slow_trajectory, window_fraction=0.5)
    ok = slow_trajectory.abort_reason is None and 1.90 <= est.c <= 2.02
    report(1, "slow-regime front speed", ok, f"c = {est.c:.4f}")
    assert ok


def test_criterion_02_slab_waves_and_certificates(slab_solutions):
    details = []
    ok = True
    for (chi, sigma), sol in slab_solutions.items():
        good = sol.converged and sol.residual < 1e-8 and 1.9 <= sol.c <= 2.1
        cert = slow_regime_certificate(sol)
        if cert.applicable:
            good = good and cert.passed
        ok = ok and good
        details.append(f"chi={chi:g},sigma={sigma:g}: c={sol.c:.4f}")
    report(2, "slab waves + certificates", ok, "; ".join(details))
    assert ok


def test_criterion_03_fast_front_speed():
    params = ChemoParams(-20.0, 200.0)
    grid = Grid1D.from_spacing(-100.0, 1500.0, 1.0)
    config = EvolveConfig(
        grid=grid,
        dt=0.1,
        t_max=100.0,
        snapshot_every=1.0,
        params=params,
        spec=EXP,
    )
    traj = evolve(config)
    est = measure_speed(traj, 0.5, 0.4)
    lower = 0.75 * abs(params.chi) / 2.0
    upper = 2.0 * np.sqrt(1.0 + abs(params.chi) / params.sigma) + abs(params.chi) / 2.0
    ok = lower <= est.c <= upper
    report(3, "fast-regime front speed", ok, f"c = {est.c:.3f} in [{lower:.2f}, {upper:.2f}]")
    assert ok


def test_criterion_04_speed_sandwich(slab_solutions):
    config = ScanConfig(
        chi_values=tuple(sorted({p.chi for p in SLAB_CASES})),
        sigma_values=(1.0,),
        spec=EXP,
        slab_a=40.0,
    )
    records = run_scan(config)
    table = sandwich_table(records)
    ok = all(row["passed"] for row in table)
    report(4, "speed sandwich bounds", ok, f"{sum(r['passed'] for r in table)}/{len(table)} cells")
    assert ok


def test_criterion_05_integral_speed_identity(slab_solutions):
    # slab speed vs the reaction integral, plus the exact sigmoid value
    worst = 0.0
    for sol in slab_solutions.values():
        c_int = speed_from_integral(sol.u)
        worst = max(worst, abs(c_int - sol.c) / sol.c)
    grid = Grid1D.from_spacing(-60.0, 60.0, 0.01)
    u = Field(grid, 1.0 / (1.0 + np.exp(np.clip(grid.x, -500, 500))), left_ext=1.0)
    sigmoid_err = abs(speed_from_integral(u) - 1.0)
    ok = worst <= 0.02 and sigmoid_err <= 1e-8
    report(
        5,
        "integral speed identity",
        ok,
        f"max slab mismatch {worst:.2e}, sigmoid error {sigmoid_err:.2e}",
    )
    assert ok


def test_criterion_06_convolution_agreement_and_bounds():
    rng = np.random.default_rng(2024)
    grid = Grid1D(-10.0, 10.0, 512)
    params = ChemoParams(-0.4, 1.2)
    worst = 0.0
    bounds_ok = True
    for _ in range(100):
        u = Field(grid, rng.standard_normal(grid.n))
        v_f = advection(u, EXP, params)
        vx = advection_gradient(u, EXP, params)
        v_d, vx_d = direct_drift(u, EXP, params)
        worst = max(
            worst,
            float(np.max(np.abs(v_f.values - v_d.values))),
            float(np.max(np.abs(vx.values - vx_d.values))),
        )
        bounds_ok = bounds_ok and advection_bounds_check(u, v_d, vx, params).all_passed
    ok = worst <= 1e-10 and bounds_ok
    report(6, "convolution cross-check + bounds", ok, f"max fft/direct gap {worst:.2e}")
    assert ok


def test_criterion_07_eigensolver_oracles():
    rng = np.random.default_rng(77)
    grid = Grid1D(-5.0, 5.0, 257)
    worst = 0.0
    for _ in range(50):
        vals = rng.uniform(-1.0, 1.0, grid.n)
        vals[-1] = vals[0]
        pot = Field(grid, vals)
        lam = principal_eigenpair(pot).lam
        worst = max(worst, abs(lam - banded_principal_eigenvalue(pot)))

    const_grid = Grid1D.from_spacing(-10.0, 10.0, 0.05)
    const = Field(const_grid, np.full(const_grid.n, -0.3))
    const_lam = principal_eigenpair(const).lam
    const_err = abs(const_lam - 0.3)
    worst = max(worst, abs(const_lam - banded_principal_eigenvalue(const)))

    tent_grid = Grid1D(-1.0, 1.0, 8193)
    psi = tent_test_function(tent_grid, a=1.0)
    zero_pot = Field(tent_grid, np.zeros(tent_grid.n))
    tent_err = abs(rayleigh_quotient(psi, zero_pot) - 48.0)

    ok = worst <= 1e-8 and const_err <= 1e-12 and tent_err <= 1e-6 * 48.0
    report(
        7,
        "eigensolver oracles",
        ok,
        f"oracle gap {worst:.2e}, const err {const_err:.2e}, tent err {tent_err:.2e}",
    )
    assert ok


def test_criterion_08_lemma_suite(slab_solutions):
    failures = []
    for spec in (EXP, KernelSpec("tophat"), KernelSpec("powerlaw", shape=3.0), KernelSpec("stretched", shape=0.5)):
        rep = validate_kernel(spec)
        failures += [f"{spec}:{c.name}" for c in rep.failures()]
    for key, sol in slab_solutions.items():
        rep = slab_bounds_check(sol)
        failures += [f"slab{key}:{c.name}" for c in rep.failures()]
        rep = monotonicity_check(sol.u, sol.config.params)
        failures += [f"mono{key}:{c.name}" for c in rep.failures()]
    ok = not failures
    report(8, "lemma bound suite", ok, f"{len(failures)} failures")
    assert ok, failures


def test_criterion_09_poincare_and_moment_sweep():
    chi = -0.02
    constants = []
    moment_ok = True
    for sigma in (0.5, 1.0, 2.0):
        params = ChemoParams(chi, sigma)
        grid = Grid1D.from_spacing(-40.0, 40.0, min(0.05, sigma / 8.0))
        u = Field(grid, 1.0 / (1.0 + np.exp(grid.x)), left_ext=1.0)
        v = advection(u, EXP, params)
        vx = advection_gradient(u, EXP, params)
        c1, c2 = empirical_poincare_constants(u, v, vx, 0.005, params)
        constants.append(max(c1, c2))
        moment_ok = moment_ok and moment_check(v, params).all_passed
    spread = max(constants) / min(constants)
    ok = moment_ok and all(np.isfinite(constants)) and spread <= 3.0
    report(
        9,
        "poincare + moment sweep",
        ok,
        f"constant spread x{spread:.2f} over sigma in (0.5, 1, 2)",
    )
    assert ok


def test_criterion_10_deterministic_scan():
    config = ScanConfig(
        chi_values=(-0.05, 0.0),
        sigma_values=(0.5, 1.0),
        spec=EXP,
        slab_a=40.0,
    )
    csv_a = records_to_csv(run_scan(config))
    csv_b = records_to_csv(run_scan(config))
    ok = csv_a == csv_b
    report(10, "deterministic scan output", ok, f"{len(csv_a.splitlines()) - 1} rows")
    assert ok
