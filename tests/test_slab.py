import itertools
import math
import warnings
from dataclasses import fields
from functools import partial

import numpy as np
import pytest

from chemofront.grids import Field
from chemofront.kernels import ChemoParams, KernelSpec
from chemofront import slab
from chemofront.convolve import advection, drift_operator
from chemofront.lapack import gt_solver
from chemofront.slab import (
    SlabConfig,
    SlabSolution,
    _bvp_residual,
    fixed_point,
    slab_bounds_check,
    theta_max,
)
from chemofront.scan import speed_upper_bound
from chemofront.spectral import slow_regime_certificate

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
        SlabConfig(a=40.0, params=params, spec=EXP, theta=0.02)
    # 0 would not be a grid node (and from_spacing would end the grid at 60.02)
    with pytest.raises(ValueError, match=r"a = 60\.03 .* dx = 0\.05"):
        SlabConfig(a=60.03, params=params, spec=EXP)
    for a in (math.inf, math.nan):
        with pytest.raises(ValueError, match="half-length a = .* must be finite"):
            SlabConfig(a=a, params=params, spec=EXP)
    for dx in (0.0, -0.05, math.inf, math.nan):
        with pytest.raises(ValueError, match="dx = .* must be positive and finite"):
            SlabConfig(a=60.0, params=params, spec=EXP, dx=dx)
    # positive and finite, but 120/dx overflows: refused before the grid is sized
    with pytest.raises(ValueError, match="dx = 1e-320 gives a non-finite step count"):
        SlabConfig(a=60.0, params=params, spec=EXP, dx=1e-320)


def test_linear_bvp_manufactured_solution():
    # the slab stencil with v = 0 solves u_xx + c u_x = 0, u(-a)=1, u(a)=0:
    # exact solution (e^{-c x} - e^{-c a}) / (e^{c a} - e^{-c a})
    config = SlabConfig(a=20.0, params=ChemoParams(0.0, 1.0), spec=EXP, dx=0.01)
    grid = config.grid
    c = 0.5
    rhs = np.zeros(grid.n)
    rhs[0] = 1.0  # Dirichlet rows
    sol = gt_solver(*slab._bands(c, np.zeros(grid.n), grid.dx))(rhs)
    x = grid.x
    exact = (np.exp(-c * x) - np.exp(-c * config.a)) / (
        np.exp(c * config.a) - np.exp(-c * config.a)
    )
    assert np.max(np.abs(sol - exact)) < 1e-6


def test_fkpp_slab_speed_near_two():
    config = SlabConfig(a=60.0, params=ChemoParams(0.0, 1.0), spec=EXP)
    sol = fixed_point(config)
    assert sol.converged
    assert sol.residual < 1e-9
    assert sol.tau_path[-1][0] == 1.0
    assert 1.9 < sol.c < 2.1
    i0 = config.grid.index_of(0.0)
    assert np.max(sol.u.values[i0:]) == pytest.approx(config.theta, abs=1e-9)


def test_homotopy_path_is_recorded():
    config = SlabConfig(a=40.0, params=ChemoParams(-0.05, 1.0), spec=EXP)
    sol = fixed_point(config)
    # weak coupling: plain Newton from the tau = 0 wave converges at tau = 1
    assert [t for t, _ in sol.tau_path] == [0.0, 1.0]
    # speeds along the path stay near 2 in this weak-coupling regime
    assert all(1.8 < c < 2.2 for _, c in sol.tau_path)


def test_attractive_coupling_changes_speed_continuously():
    base = SlabConfig(a=40.0, params=ChemoParams(0.0, 1.0), spec=EXP)
    perturbed = SlabConfig(a=40.0, params=ChemoParams(-0.02, 1.0), spec=EXP)
    c0 = fixed_point(base).c
    c1 = fixed_point(perturbed).c
    assert abs(c1 - c0) < 0.05


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
    assert sol.tau_path[-1][0] == 1.0
    v = advection(sol.u, EXP, config.params).values
    residual = _bvp_residual(u, sol.c, v, config.dx, pin, config.theta)
    assert np.max(np.abs(residual)) < 1e-8
    assert slab_bounds_check(sol)["positivity"].passed


def test_uncoupled_solve_makes_no_convolution(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("drift operator fetched for an uncoupled slab")

    monkeypatch.setattr(slab, "drift_operator", refuse)
    sol = fixed_point(SlabConfig(a=60.0, params=ChemoParams(0.0, 1.0), spec=EXP))
    assert sol.converged
    assert sol.c == pytest.approx(REFERENCE_SPEEDS[(0.0, 1.0)], abs=1e-9)


def _exp_drift(grid, chi):
    # the model stage's drift as `fixed_point` binds it (exp kernel, sigma = 1); none at chi = 0
    return partial(drift_operator(EXP, 1.0, grid.dx, grid.n).advection, chi=chi) if chi else None


def _newton_calls(monkeypatch):
    # the (delta, converged, iterations) of every `_newton` call, in order
    calls = []
    real = slab._newton

    def spy(u, c, grid, theta, drift=None, delta=math.inf):
        out = real(u, c, grid, theta, drift, delta)
        calls.append((delta, out[4], out[3]))
        return out

    monkeypatch.setattr(slab, "_newton", spy)
    return calls


# plain Newton stops unconverged, then pseudo-transient continuation converges
STOPPED_THEN_PTC = [(math.inf, False), (slab.PTC_DELTA0, True)]


def test_fast_regime_wave_converges(monkeypatch):
    config = SlabConfig(a=60.0, params=ChemoParams(-20.0, 200.0), spec=EXP)
    calls = _newton_calls(monkeypatch)
    sol = fixed_point(config)
    assert sol.converged
    # strong coupling: the first full Newton step from the tau = 0 wave does
    # not lower the residual, so plain Newton stops and pseudo-transient
    # continuation runs from the tau = 0 wave instead
    assert [call[:2] for call in calls[-2:]] == STOPPED_THEN_PTC
    assert calls[-2][2] == 1  # plain Newton stopped at its first step
    assert [tau for tau, _ in sol.tau_path] == [0.0, 1.0]
    assert sol.c == pytest.approx(11.53654557283846, abs=1e-8)
    # its tail lies below the Newton step's rounding; the positive pseudo-steps keep it positive
    assert np.min(sol.u.values[1:-1]) > 0.0


def test_wide_weak_wave_follows_the_tau_homotopy():
    # a wide kernel with weak coupling; a Newton solve straight at tau = 1 from
    # the FKPP seed lands on another wave (c ~ 1.99934), but plain Newton from
    # the tau = 0 wave lands on the one the old TAUS path reached
    config = SlabConfig(a=60.0, params=ChemoParams(-0.05, 200.0), spec=EXP)
    sol = fixed_point(config)
    assert sol.converged
    assert [tau for tau, _ in sol.tau_path] == [0.0, 1.0]
    assert sol.c == pytest.approx(2.0182352163168034, abs=1e-8)


def test_fast_tophat_wave_rejects_the_trial_and_falls_back(monkeypatch):
    # the FFT drift path of the fallback: the first full Newton step from the
    # tau = 0 wave (the trial) does not lower the residual, so pseudo-transient
    # continuation runs from tau = 0
    config = SlabConfig(a=60.0, params=ChemoParams(-20.0, 200.0), spec=KernelSpec("tophat"))
    calls = _newton_calls(monkeypatch)
    sol = fixed_point(config)
    assert sol.converged
    assert [call[:2] for call in calls[-2:]] == STOPPED_THEN_PTC
    assert calls[-2][2] == 1  # plain Newton stopped at its first step
    assert [tau for tau, _ in sol.tau_path] == [0.0, 1.0]
    assert sol.c == pytest.approx(11.505194541100446, abs=1e-8)
    assert np.min(sol.u.values[1:-1]) > 0.0


@pytest.mark.parametrize(
    "kernel, chi, sigma, c_min",
    [
        # roots that changed sign inside the front under the tau homotopy
        # (u down to -6.2e-2, c = 2.16483, 1.99615 and 3.01639)
        ("exp", -2.0, 10.0, 2.4),
        ("tophat", -2.0, 10.0, 2.3),
        ("tophat", -5.0, 20.0, 3.5),
        # a homotopy that stalled at tau = 0.1
        ("exp", -40.0, 200.0, 21.0),
    ],
)
def test_repulsive_waves_are_positive_and_below_the_upper_bound(kernel, chi, sigma, c_min):
    sol = fixed_point(SlabConfig(a=60.0, params=ChemoParams(chi, sigma), spec=KernelSpec(kernel)))
    assert sol.converged
    assert np.min(sol.u.values[1:-1]) > 0.0
    assert c_min <= sol.c <= speed_upper_bound(chi, sigma)


@pytest.mark.parametrize("chi", [0.0, -0.05])
def test_sign_changing_root_is_not_converged(chi):
    # at a = 240 plain Newton from the default seed lands on a root of the FKPP
    # slab equations that changes sign in its far tail (values near -3e-23);
    # a solve started there falls back to pseudo-transient continuation from
    # that root, which is already a root, so the root, or the nearby one of
    # the model, comes back flagged
    config = SlabConfig(a=240.0, params=ChemoParams(chi, 1.0), spec=EXP)
    grid, theta = config.grid, config.theta
    u, c, _, _, ok = slab._newton(slab._seed_profile(grid, theta).values, 2.0, grid, theta)
    assert ok and np.min(u[1:-1]) < 0.0
    u, c, residual, iterations, ok = slab._solve(u, c, grid, theta, _exp_drift(grid, chi))
    sol = SlabSolution(
        c=c,
        u=Field(config.grid, u, left_ext=1.0, right_ext=0.0),
        residual=residual,
        iterations=iterations,
        converged=ok,
        config=config,
        tau_path=[],
    )
    assert sol.residual < 1e-10  # a root, not a failed solve
    assert np.min(sol.u.values[1:-1]) < 0.0
    assert not sol.converged
    assert [c.name for c in slab_bounds_check(sol).failures()] == ["positivity"]
    cert = slow_regime_certificate(sol)
    assert not cert.applicable
    assert cert.reason == "slab solution not converged"
    assert not cert.passed


@pytest.mark.parametrize("chi", [0.0, -0.05])
def test_long_slab_waves_are_positive_and_follow_the_box_law(chi):
    # c(a) ~ c*(dx) - pi^2/a^2, with c*(dx) the centred slab scheme's spreading
    # speed, min over lambda of (1 + (2 cosh(lambda dx) - 2)/dx^2) dx/sinh(lambda dx);
    # at a = 240 and 480 plain Newton from the seed lands on a sign-changing
    # root, so the FKPP stage takes pseudo-transient continuation from the seed
    dx = SlabConfig.dx
    lam = np.linspace(0.5, 1.5, 100_001)
    c_star = np.min((1.0 + (2.0 * np.cosh(lam * dx) - 2.0) / dx**2) * dx / np.sinh(lam * dx))
    speeds = []
    for a in (120.0, 240.0, 480.0):
        sol = fixed_point(SlabConfig(a=a, params=ChemoParams(chi, 1.0), spec=EXP))
        assert sol.converged
        assert np.min(sol.u.values[1:-1]) > 0.0
        assert abs(sol.c - (c_star - np.pi**2 / a**2)) < 1e-4
        speeds.append(sol.c)
    assert speeds[0] < speeds[1] < speeds[2]


@pytest.mark.parametrize("dx, a", [(0.5, 740.0), (0.5, 800.0), (0.25, 740.0)])
def test_slab_too_long_for_a_positive_wave_is_flagged_at_the_right_speed(dx, a):
    # the slow wave's tail underflows past a ~ 720: the slab equations' root
    # has interior nodes at 0, so it comes back flagged, neither diverged nor
    # "converged" to a wave at some other speed, but at the a = 700 wave's speed
    params = ChemoParams(0.0, 4.0)
    ref = fixed_point(SlabConfig(a=700.0, params=params, spec=EXP, dx=dx))
    assert ref.converged
    sol = fixed_point(SlabConfig(a=a, params=params, spec=EXP, dx=dx))
    assert not sol.converged
    assert np.isfinite(sol.residual) and sol.residual < slab.NEWTON_TOL
    assert [check.name for check in slab_bounds_check(sol).failures()] == ["positivity"]
    assert abs(sol.c - ref.c) < 1e-5


@pytest.mark.parametrize("kernel, c_ref", [("exp", 4.247889437422702), ("tophat", 4.228347269769825)])
def test_moderate_repulsion_converges_without_crawling(kernel, c_ref):
    # chi = -5, sigma = 100: a Newton with a line search crawled through all
    # NEWTON_MAX_ITER steps here (97-99 iterations in all) before the
    # pseudo-transient fallback converged; plain Newton now stops at its first
    # step that does not lower the residual
    config = SlabConfig(a=60.0, params=ChemoParams(-5.0, 100.0), spec=KernelSpec(kernel))
    sol = fixed_point(config)
    assert sol.converged
    assert sol.iterations <= 30
    assert sol.c == pytest.approx(c_ref, abs=1e-9)


def test_fkpp_stage_is_solved_once_per_slab_grid():
    # with chi = 0 the Newton reads neither sigma nor the kernel, so waves of
    # any coupling on one (a, dx, theta) grid share the tau = 0 solve
    slab._fkpp_wave.cache_clear()
    first = fixed_point(SlabConfig(a=40.0, params=ChemoParams(-0.05, 1.0), spec=EXP))
    second = fixed_point(SlabConfig(a=40.0, params=ChemoParams(0.03, 0.7), spec=EXP))
    info = slab._fkpp_wave.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert first.tau_path[0] == second.tau_path[0]
    assert first.converged and second.converged


@pytest.mark.parametrize("chi", [0.0, -0.05])
def test_cached_fkpp_wave_gives_the_cold_solution(chi):
    config = SlabConfig(a=40.0, params=ChemoParams(chi, 1.0), spec=EXP)
    slab._fkpp_wave.cache_clear()
    cold = fixed_point(config)
    cached = fixed_point(config)
    assert slab._fkpp_wave.cache_info().hits == 1
    for field in fields(SlabSolution):
        if field.name == "u":
            assert np.array_equal(cold.u.values, cached.u.values)
            assert (cold.u.left_ext, cold.u.right_ext) == (cached.u.left_ext, cached.u.right_ext)
        else:
            assert getattr(cold, field.name) == getattr(cached, field.name), field.name


def test_cold_fkpp_wave_reads_only_the_grid_and_theta(monkeypatch):
    # the chi-free stage is keyed by the slab grid and theta: no config is
    # made up to reach the grid
    config = SlabConfig(a=40.0, params=ChemoParams(-0.05, 1.0), spec=EXP)

    def refuse(*args, **kwargs):
        raise AssertionError("the FKPP stage built a SlabConfig")

    slab._fkpp_wave.cache_clear()
    monkeypatch.setattr(slab, "SlabConfig", refuse)
    u, c, residual, iterations, ok = slab._fkpp_wave(config.grid, config.theta)
    assert ok and residual < slab.NEWTON_TOL and not u.flags.writeable
    assert slab._fkpp_wave.cache_info().misses == 1
    monkeypatch.undo()
    assert fixed_point(config).tau_path[0] == (0.0, c)


def test_chi_zero_wave_on_a_warm_grid_is_the_fkpp_wave(monkeypatch):
    # at chi = 0 the model is the FKPP slab: no model solve, not even one
    # Newton step to check the cached wave
    config = SlabConfig(a=40.0, params=ChemoParams(0.0, 1.0), spec=EXP)
    u, c, residual, iterations, ok = slab._fkpp_wave(config.grid, config.theta)
    calls = _newton_calls(monkeypatch)
    sol = fixed_point(config)
    assert calls == []
    assert sol.converged and ok
    assert sol.c == c and sol.residual == residual and sol.iterations == iterations
    assert sol.u.values.tobytes() == u.tobytes()
    assert sol.tau_path == [(0.0, c), (1.0, c)]


def test_writing_the_profile_leaves_the_next_solve_unchanged():
    # at chi = 0 the jump returns the tau = 0 wave itself: it must be a copy
    config = SlabConfig(a=40.0, params=ChemoParams(0.0, 1.0), spec=EXP)
    first = fixed_point(config)
    expected = first.u.values.copy()
    first.u.values[:] = 0.5
    again = fixed_point(config)
    assert np.array_equal(again.u.values, expected)
    assert again.u.values.flags.writeable
    assert not np.shares_memory(again.u.values, slab._fkpp_wave(config.grid, config.theta)[0])


def _counted(A, m):
    # the operator `_gmres` expects: y -> (A M^-1 y, M^-1 y) with M = diag(m),
    # recording every vector it is applied to
    calls = []

    def apply(y):
        calls.append(y.copy())
        z = y / m
        return A @ z, z

    return apply, calls


@pytest.mark.parametrize("seed", range(3))
def test_gmres_matches_dense_solve(seed):
    rng = np.random.default_rng(seed)
    n = 30
    A = np.diag(rng.uniform(1.0, 3.0, n)) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    b = rng.standard_normal(n)
    apply, calls = _counted(A, np.diag(A))
    x = slab._gmres(apply, b)
    assert np.linalg.norm(b - A @ x) <= slab.GMRES_RTOL * np.linalg.norm(b)
    exact = np.linalg.solve(A, b)
    assert np.linalg.norm(x - exact) <= 1e-3 * np.linalg.norm(exact)
    assert len(calls) < slab.GMRES_MAX_DIRECTIONS


def test_gmres_applies_the_operator_once_per_krylov_direction(monkeypatch):
    # four distinct eigenvalues: the Krylov space is exhausted (happy
    # breakdown) after four directions, each one operator application, and
    # none is spent on the zero start; the breakdown falls on the last allowed
    # direction, and it ends the solve with the exact step
    monkeypatch.setattr(slab, "GMRES_RTOL", 1e-14)
    monkeypatch.setattr(slab, "GMRES_MAX_DIRECTIONS", 4)
    rng = np.random.default_rng(3)
    A = np.diag(np.repeat([1.0, 2.0, 4.0, 8.0], 5))
    b = rng.standard_normal(20)
    apply, calls = _counted(A, np.full(20, 2.0))
    x = slab._gmres(apply, b)
    assert len(calls) == 4
    assert all(np.linalg.norm(y) > 0.0 for y in calls)
    assert np.allclose(x, np.linalg.solve(A, b), rtol=1e-12, atol=0.0)


def test_krylov_solve_stops_at_the_direction_cap_and_the_fallback_converges(monkeypatch):
    # a fast wave: the first plain Newton step from the FKPP wave exhausts the
    # Krylov directions without meeting GMRES_RTOL, plain Newton rejects that
    # step, and pseudo-transient continuation converges to the positive wave
    real = slab._gmres
    directions = []

    def counted(apply, b):
        calls = itertools.count()

        def counted_apply(y):
            next(calls)
            return apply(y)

        x = real(counted_apply, b)
        directions.append(next(calls))
        return x

    monkeypatch.setattr(slab, "_gmres", counted)
    config = SlabConfig(a=240.0, params=ChemoParams(-20.0, 200.0), spec=EXP, dx=0.5)
    sol = fixed_point(config)
    assert directions[0] == slab.GMRES_MAX_DIRECTIONS
    assert max(directions[1:]) < slab.GMRES_MAX_DIRECTIONS
    assert sol.converged and np.min(sol.u.values[1:-1]) > 0.0
    assert sol.c == pytest.approx(11.376619898325078, rel=0.0, abs=1e-12)
    assert sol.iterations == 56


def test_coupled_solve_never_convolves_a_zero_field(monkeypatch):
    real = slab.drift_operator
    seen = []

    class Checked:
        def __init__(self, op):
            self.op = op

        def advection(self, values, left_ext, right_ext, chi):
            assert np.any(values != 0.0), "advection of an all-zero field"
            seen.append(values.size)
            return self.op.advection(values, left_ext, right_ext, chi)

    monkeypatch.setattr(slab, "drift_operator", lambda *args: Checked(real(*args)))
    sol = fixed_point(SlabConfig(a=40.0, params=ChemoParams(-0.05, 1.0), spec=EXP))
    assert sol.converged
    assert seen  # the solve convolved through the operator it fetched


@pytest.mark.parametrize("delta", [math.inf, slab.PTC_DELTA0], ids=["plain", "ptc"])
@pytest.mark.parametrize("chi", [0.0, -0.05], ids=["uncoupled", "coupled"])
def test_non_finite_trial_ends_the_solve_at_the_last_finite_iterate(monkeypatch, chi, delta):
    config = SlabConfig(a=40.0, params=ChemoParams(chi, 1.0), spec=EXP)
    if chi != 0.0:
        monkeypatch.setattr(slab, "_gmres", lambda apply, b: np.full(b.size, np.inf))
    else:
        real = slab.gt_solver

        def infinite_step(lower, main, upper):
            solve, calls = real(lower, main, upper), itertools.count()

            def step(rhs):
                out = solve(rhs)
                if next(calls):  # the first solve is dF/dc's, every later one the step's
                    out[1] = np.inf
                return out

            return step

        monkeypatch.setattr(slab, "gt_solver", infinite_step)
    grid = config.grid
    start, drift = slab._seed_profile(grid, config.theta).values, _exp_drift(grid, chi)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        u, c, residual, iterations, converged = slab._newton(start, 2.0, grid, config.theta, drift, delta)
    assert caught == []
    assert u is start and c == 2.0 and iterations == 1 and not converged
    assert math.isfinite(residual)


def test_seed_profile_on_a_wide_slab_does_not_overflow():
    # at a = 800, x - shift reaches ~805: 1/(1 + e^t) would overflow there
    # (a RuntimeWarning, an error under this suite's settings)
    config = SlabConfig(a=800.0, params=ChemoParams(-0.05, 4.0), spec=EXP, dx=0.5)
    vals = slab._seed_profile(config.grid, config.theta).values
    t = config.grid.x - np.log(config.theta / (1.0 - config.theta))
    with np.errstate(over="ignore"):
        plain = 1.0 / (1.0 + np.exp(t))
    # bitwise where 1/(1 + e^t) is finite, so no pinned speed moves
    assert np.array_equal(vals[t <= 700.0], plain[t <= 700.0])
    assert np.all(np.isfinite(vals)) and np.all(np.diff(vals) <= 0.0)
    # exactly 0 where e^-t underflows (t > ~745), and nowhere else in the interior
    underflow = np.exp(-np.maximum(t[1:-1], 0.0)) == 0.0
    assert np.any(underflow) and np.array_equal(vals[1:-1] == 0.0, underflow)
