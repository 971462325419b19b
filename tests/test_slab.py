import numpy as np
import pytest

from chemofront.grids import Field
from chemofront.kernels import ChemoParams, KernelSpec
from chemofront import slab
from chemofront.slab import (
    SlabConfig,
    _bvp_residual,
    _frozen_advection,
    continue_in_a,
    fixed_point,
    max_right_half,
    slab_bounds_check,
    solve_linear_bvp,
    theta_max,
)

EXP = KernelSpec("exp")

# speeds at a=60 computed by the earlier Picard-on-v solver, kept as the reference
REFERENCE_SPEEDS = {
    (0.0, 1.0): 1.9970403167498012,
    (-0.05, 1.0): 1.9970461113456552,
    (0.03, 1.0): 1.997036951515928,
    (-0.02, 0.5): 1.997041220968284,
}


def test_theta_max():
    assert theta_max(ChemoParams(0.0, 1.0)) == pytest.approx(0.01)
    # |chi|/sigma = 0.2: (1 - 0.4)/(1 + 0.2) = 0.5, capped at 0.01
    assert theta_max(ChemoParams(-0.2, 1.0)) == pytest.approx(0.01)
    # |chi|/sigma = 0.499: bound (1 - 0.998)/1.499 ~ 0.00133 < 0.01
    assert theta_max(ChemoParams(-0.499, 1.0)) == pytest.approx(0.002 / 1.499)


def test_config_validation():
    params = ChemoParams(0.0, 1.0)
    with pytest.raises(ValueError):
        SlabConfig(a=10.0, params=params, spec=EXP)
    with pytest.raises(ValueError):
        SlabConfig(a=40.0, params=params, spec=EXP, tau=1.5)
    with pytest.raises(ValueError):
        SlabConfig(a=40.0, params=params, spec=EXP, theta=0.02)


def test_linear_bvp_manufactured_solution():
    # with u_prev = 0 the problem is u_xx + c u_x = 0, u(-a)=1, u(a)=0:
    # exact solution (e^{-c x} - e^{-c a}) / (e^{c a} - e^{-c a})
    config = SlabConfig(a=20.0, params=ChemoParams(0.0, 1.0), spec=EXP, dx=0.01)
    grid = config.grid
    zero = Field(grid, np.zeros(grid.n), left_ext=1.0, right_ext=0.0)
    c = 0.5
    sol = solve_linear_bvp(c, zero, config)
    x = grid.x
    exact = (np.exp(-c * x) - np.exp(-c * config.a)) / (
        np.exp(c * config.a) - np.exp(-c * config.a)
    )
    assert np.max(np.abs(sol.values - exact)) < 1e-6


def test_linear_bvp_boundary_values_exact():
    config = SlabConfig(a=25.0, params=ChemoParams(-0.1, 1.0), spec=EXP)
    grid = config.grid
    vals = 1.0 / (1.0 + np.exp(grid.x))
    u_prev = Field(grid, vals, left_ext=1.0, right_ext=0.0)
    sol = solve_linear_bvp(2.0, u_prev, config)
    assert sol.values[0] == 1.0
    assert sol.values[-1] == 0.0


def test_linear_bvp_rejects_wrong_extensions():
    config = SlabConfig(a=25.0, params=ChemoParams(0.0, 1.0), spec=EXP)
    grid = config.grid
    with pytest.raises(ValueError):
        solve_linear_bvp(2.0, Field(grid, np.zeros(grid.n)), config)


def test_max_right_half_refinement():
    config = SlabConfig(a=20.0, params=ChemoParams(0.0, 1.0), spec=EXP, dx=0.1)
    grid = config.grid
    # parabola peaking off-grid at x = 5.03 with value 0.3
    vals = np.maximum(0.0, 0.3 - 0.01 * (grid.x - 5.03) ** 2)
    u = Field(grid, vals)
    assert max_right_half(u) == pytest.approx(0.3, abs=1e-12)


def test_fkpp_slab_speed_near_two():
    config = SlabConfig(a=60.0, params=ChemoParams(0.0, 1.0), spec=EXP)
    sol = fixed_point(config)
    assert sol.converged
    assert sol.residual < 1e-9
    assert sol.tau == 1.0
    assert 1.9 < sol.c < 2.1
    assert max_right_half(sol.u) == pytest.approx(config.theta, abs=1e-9)


def test_fixed_point_consistency():
    # the converged pair must reproduce itself under one frozen linear solve
    config = SlabConfig(a=40.0, params=ChemoParams(-0.05, 1.0), spec=EXP)
    sol = fixed_point(config)
    assert sol.converged
    re_solved = solve_linear_bvp(sol.c, sol.u, config)
    assert np.max(np.abs(re_solved.values - sol.u.values)) < 1e-6


def test_homotopy_path_is_recorded():
    config = SlabConfig(a=40.0, params=ChemoParams(-0.05, 1.0), spec=EXP)
    sol = fixed_point(config)
    taus = [t for t, _ in sol.tau_path]
    assert taus[0] == 0.0
    assert taus[-1] == 1.0
    assert all(0.0 < b - a <= 0.1 + 1e-12 for a, b in zip(taus, taus[1:]))
    # speeds along the path stay near 2 in this weak-coupling regime
    assert all(1.8 < c < 2.2 for _, c in sol.tau_path)


def test_attractive_coupling_changes_speed_continuously():
    base = SlabConfig(a=40.0, params=ChemoParams(0.0, 1.0), spec=EXP)
    perturbed = SlabConfig(a=40.0, params=ChemoParams(-0.02, 1.0), spec=EXP)
    c0 = fixed_point(base).c
    c1 = fixed_point(perturbed).c
    assert abs(c1 - c0) < 0.05


def test_continue_in_a():
    config = SlabConfig(a=40.0, params=ChemoParams(-0.05, 1.0), spec=EXP)
    sols = continue_in_a(config, [40.0, 60.0])
    assert [s.config.a for s in sols] == [40.0, 60.0]
    assert all(s.converged for s in sols)
    # the finite-slab speed converges as a grows
    assert abs(sols[1].c - sols[0].c) < 0.02
    with pytest.raises(ValueError):
        continue_in_a(config, [60.0, 40.0])


def test_slab_bounds_check_passes_on_solution():
    config = SlabConfig(a=40.0, params=ChemoParams(-0.05, 1.0), spec=EXP)
    sol = fixed_point(config)
    report = slab_bounds_check(sol)
    assert report.all_passed, [c.name for c in report.failures()]


def test_slab_bounds_check_flags_bad_profile():
    config = SlabConfig(a=40.0, params=ChemoParams(0.0, 1.0), spec=EXP)
    sol = fixed_point(config)
    # corrupt the right half with a bump above the normalization
    bad_vals = sol.u.values.copy()
    i = config.grid.index_of(20.0)
    bad_vals[i : i + 40] += 0.1
    bad = sol.u.with_values(bad_vals)
    from dataclasses import replace

    report = slab_bounds_check(replace(sol, u=bad))
    assert not report.all_passed
    assert "right-monotonicity" in [c.name for c in report.failures()]


@pytest.mark.parametrize("chi, sigma", list(REFERENCE_SPEEDS))
def test_speeds_match_reference(chi, sigma):
    config = SlabConfig(a=60.0, params=ChemoParams(chi, sigma), spec=EXP)
    sol = fixed_point(config)
    assert sol.converged
    assert abs(sol.c - REFERENCE_SPEEDS[(chi, sigma)]) < 1e-9
    # the returned pair solves the slab equations with v recomputed from it
    u = sol.u.values
    i0 = config.grid.index_of(0.0)
    pin = i0 + int(np.argmax(u[i0:]))
    v = _frozen_advection(u, config, sol.tau)
    residual = _bvp_residual(u, sol.c, v, sol.tau, config, pin)
    assert np.max(np.abs(residual)) < 1e-8


def test_uncoupled_solve_makes_no_convolution(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("advection called on an uncoupled slab")

    monkeypatch.setattr(slab, "advection", refuse)
    sol = fixed_point(SlabConfig(a=60.0, params=ChemoParams(0.0, 1.0), spec=EXP))
    assert sol.converged
    assert sol.c == pytest.approx(REFERENCE_SPEEDS[(0.0, 1.0)], abs=1e-9)


def test_fast_regime_wave_converges():
    config = SlabConfig(a=60.0, params=ChemoParams(-20.0, 200.0), spec=EXP)
    sol = fixed_point(config)
    assert sol.converged
    assert sol.tau == 1.0
    assert sol.c == pytest.approx(11.53654557283846, abs=1e-8)
