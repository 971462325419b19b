import dataclasses
import math

import numpy as np
import pytest

from chemofront.convolve import advection, advection_gradient
from chemofront.diagnostics import (
    advection_plateau_check,
    decay_fit,
    empirical_poincare_constants,
    fast_constants,
    front_geometry,
    moment_check,
    monotonicity_check,
    monotonicity_threshold,
    poincare_ratio,
)
from chemofront.grids import Field, Grid1D, step_field
from chemofront.kernels import ChemoParams, KernelSpec

EXP = KernelSpec("exp")


def test_monotonicity_threshold_values():
    assert monotonicity_threshold(ChemoParams(0.0, 1.0)) == 1.0
    # chi = -0.5, sigma = 1: 1/(1 + 0.25) = 0.8
    assert monotonicity_threshold(ChemoParams(-0.5, 1.0)) == pytest.approx(0.8)
    # chi = 0.1, sigma = 1: 0.8 / 0.81
    assert monotonicity_threshold(ChemoParams(0.1, 1.0)) == pytest.approx(0.8 / 0.81)


def test_monotonicity_threshold_continuous_at_zero():
    lo = monotonicity_threshold(ChemoParams(-1e-9, 1.0))
    hi = monotonicity_threshold(ChemoParams(1e-9, 1.0))
    assert lo == pytest.approx(1.0, abs=1e-8)
    assert hi == pytest.approx(1.0, abs=1e-8)


def test_monotonicity_check_passes_on_decreasing_profile():
    grid = Grid1D.from_spacing(-20.0, 20.0, 0.1)
    u = Field(grid, 1.0 / (1.0 + np.exp(grid.x)), left_ext=1.0)
    report = monotonicity_check(u, ChemoParams(-0.3, 1.0))
    assert report.all_passed
    # the row format `check` writes to check.json
    row = report.checks[0].to_dict()
    assert list(row) == ["name", "claim", "lhs", "rhs", "slack", "pass"]
    assert row["claim"] == "monotone-below-threshold" and row["pass"] is True


def test_monotonicity_check_flags_bump_below_threshold():
    grid = Grid1D.from_spacing(-20.0, 20.0, 0.1)
    vals = 1.0 / (1.0 + np.exp(grid.x))
    i = grid.index_of(10.0)
    vals[i] += 0.01  # bump well below the threshold
    u = Field(grid, vals, left_ext=1.0)
    report = monotonicity_check(u, ChemoParams(-0.3, 1.0))
    assert not report.all_passed


def test_decay_fit_exact_exponential():
    grid = Grid1D.from_spacing(0.0, 40.0, 0.1)
    mu_true = 1.7
    u = Field(grid, np.exp(-mu_true * grid.x))
    mu, r2 = decay_fit(u, x_start=5.0)
    assert mu == pytest.approx(mu_true, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_decay_fit_error_paths():
    grid = Grid1D.from_spacing(0.0, 40.0, 0.1)
    u = Field(grid, np.exp(-grid.x))
    with pytest.raises(ValueError):
        decay_fit(u, x_start=39.0)  # window too short
    vals = np.exp(-grid.x)
    vals[grid.index_of(20.0)] = 0.0
    with pytest.raises(ValueError):
        decay_fit(Field(grid, vals), x_start=5.0)


def test_moment_closed_form_for_step_drift():
    # for a step profile and the exponential kernel the right-half moment is
    # int_0^inf x |chi| Kbar(x/sigma) dx = |chi| sigma^2 / 2, i.e. ratio 1/2
    grid = Grid1D.from_spacing(-80.0, 80.0, 0.05)
    params = ChemoParams(-0.3, 1.5)
    v = advection(step_field(grid), EXP, params)
    report = moment_check(v, params)
    assert [check.name for check in report.checks] == ["drift-moment-ratio"]  # one row
    assert report.all_passed
    assert report["drift-moment-ratio"].lhs == pytest.approx(0.5, abs=0.01)
    with pytest.raises(KeyError, match="drift-moment"):
        report["drift-moment"]  # the deleted duplicate row


def test_front_geometry_sigmoid():
    # u = (1 + e^x)^(-1) crosses w at x = ln((1-w)/w)
    grid = Grid1D.from_spacing(-20.0, 20.0, 0.001)
    u = Field(grid, 1.0 / (1.0 + np.exp(grid.x)), left_ext=1.0)
    theta, sigma = 0.01, 1.0
    geom = front_geometry(u, theta, sigma, R=0.0127)
    assert geom.x2 == pytest.approx(math.log(99.0), abs=1e-3)
    assert geom.x1 == pytest.approx(-math.log(99.0), abs=1e-3)
    assert geom.width == pytest.approx(2.0 * math.log(99.0), abs=2e-3)
    assert geom.regime == "wide"


def test_front_geometry_translation_invariance():
    grid = Grid1D.from_spacing(-20.0, 20.0, 0.01)
    shift = 3.0
    u0 = Field(grid, 1.0 / (1.0 + np.exp(grid.x)), left_ext=1.0)
    u1 = Field(grid, 1.0 / (1.0 + np.exp(grid.x - shift)), left_ext=1.0)
    g0 = front_geometry(u0, 0.01, 1.0, R=0.0127)
    g1 = front_geometry(u1, 0.01, 1.0, R=0.0127)
    assert g1.x1 - g0.x1 == pytest.approx(shift, abs=1e-6)
    assert g1.x2 - g0.x2 == pytest.approx(shift, abs=1e-6)
    assert g1.width == pytest.approx(g0.width, abs=1e-6)


def test_front_geometry_step_is_narrow():
    grid = Grid1D.from_spacing(-20.0, 20.0, 0.001)
    u = step_field(grid)
    geom = front_geometry(u, 0.01, 1.0, R=0.0127)
    assert geom.width <= grid.dx
    assert geom.regime == "narrow"


def test_front_geometry_missing_level():
    grid = Grid1D.from_spacing(-20.0, 20.0, 0.1)
    u = Field(grid, np.full(grid.n, 0.5))
    with pytest.raises(ValueError):
        front_geometry(u, 0.01, 1.0, R=0.0127)


def test_fast_constants_values():
    # exponential kernel: R = ln(0.5/w)/2 at w = (1 - eps/4)/2
    eps = 0.1
    got = fast_constants(eps, -10.0, EXP)
    R_exact = 0.5 * math.log(0.5 / ((1.0 - eps / 4.0) / 2.0))
    assert got["R"] == pytest.approx(R_exact, rel=1e-12)
    assert got["theta"] == pytest.approx(10.0 / (2.0 * got["R"]))
    assert got["sigma_min"] == pytest.approx(
        max(4.0 * got["theta"] / eps, 1.0 / (got["R"] * eps))
    )
    # tophat: Kbar^{-1}(w) = 1 - 2w exactly
    got_th = fast_constants(eps, -10.0, KernelSpec("tophat"))
    assert got_th["R"] == pytest.approx(0.5 * (1.0 - 2.0 * (1.0 - eps / 4.0) / 2.0), rel=1e-12)
    assert got_th["R"] == pytest.approx(0.0125)


def test_fast_constants_validation():
    with pytest.raises(ValueError):
        fast_constants(0.4, -10.0, EXP)
    with pytest.raises(ValueError):
        fast_constants(0.0, -10.0, EXP)
    got = fast_constants(0.1, -10.0, EXP, sigma=1e6)
    assert got["constraints_ok"]
    got = fast_constants(0.1, -10.0, EXP, sigma=10.0)
    assert not got["constraints_ok"]


def test_advection_plateau_for_narrow_step_front():
    eps = 0.1
    chi = -10.0
    consts = fast_constants(eps, chi, EXP)
    sigma = 1.05 * consts["sigma_min"]
    params = ChemoParams(chi, sigma)
    grid = Grid1D.from_spacing(-4.0 * sigma, 4.0 * sigma, sigma / 200.0)
    u = step_field(grid)
    v = advection(u, EXP, params)
    geom = front_geometry(u, consts["theta"], sigma, consts["R"])
    assert geom.regime == "narrow"
    report = advection_plateau_check(u, v, geom, params, eps)
    assert report.all_passed, report.failures()
    past_the_grid = dataclasses.replace(geom, R=(grid.x_max - geom.x2) / sigma + 1.0)
    with pytest.raises(ValueError, match="plateau window exceeds the grid"):
        advection_plateau_check(u, v, past_the_grid, params, eps)


def test_advection_plateau_rejects_wrong_regime():
    params = ChemoParams(-0.1, 1.0)
    grid = Grid1D.from_spacing(-20.0, 20.0, 0.01)
    u = Field(grid, 1.0 / (1.0 + np.exp(grid.x)), left_ext=1.0)
    v = advection(u, EXP, params)
    geom = front_geometry(u, 0.01, 1.0, R=0.0127)  # wide
    with pytest.raises(ValueError):
        advection_plateau_check(u, v, geom, params, 0.1)
    with pytest.raises(ValueError):
        advection_plateau_check(u, v, geom, ChemoParams(0.1, 1.0), 0.1)


def make_slow_profile():
    grid = Grid1D.from_spacing(-40.0, 40.0, 0.05)
    params = ChemoParams(-0.02, 1.0)
    u = Field(grid, 1.0 / (1.0 + np.exp(grid.x)), left_ext=1.0)
    v = advection(u, EXP, params)
    vx = advection_gradient(u, EXP, params)
    return u, v, vx, params


def test_poincare_ratio_constant_function():
    u, v, vx, params = make_slow_profile()
    theta = 0.005
    f = Field(u.grid, np.ones(u.grid.n))
    r = poincare_ratio(f, u, v, vx, theta, params)
    dx = u.grid.dx
    # with f = 1 both sides reduce to plain integrals
    assert r["lhs2"] == pytest.approx(dx * np.sum(np.abs(v.values[:-1])), rel=1e-12)
    expected_core = (
        abs(params.chi) * (1.0 + params.sigma**2) / theta * dx * np.sum(u.values[:-1])
    )
    assert r["rhs_core"] == pytest.approx(expected_core, rel=1e-12)
    with pytest.raises(ValueError):
        poincare_ratio(Field(u.grid, u.grid.x), u, v, vx, theta, params)


def test_poincare_check_is_finite_and_bounded():
    u, v, vx, params = make_slow_profile()
    c1, c2 = empirical_poincare_constants(u, v, vx, 0.005, params)
    assert 0.0 < c1 < 1e12
    assert 0.0 < c2 < 1e12


def test_poincare_constants_deterministic():
    u, v, vx, params = make_slow_profile()
    a = empirical_poincare_constants(u, v, vx, 0.005, params)
    b = empirical_poincare_constants(u, v, vx, 0.005, params)
    assert a == b
