import numpy as np
import pytest

from scipy.fft import next_fast_len

from chemofront import convolve, evolver
from chemofront.evolver import (
    EvolveConfig,
    Trajectory,
    _advective_divergence,
    _diffusion_solver,
    evolve,
    level_crossing,
    measure_speed,
    speed_from_integral,
    sup_bound,
)
from chemofront.grids import Field, Grid1D, constant_field, smoothed_step_field
from chemofront.kernels import ChemoParams, KernelSpec
from chemofront.slab import SlabConfig, fixed_point

EXP = KernelSpec("exp")
TOPHAT = KernelSpec("tophat")
NEUTRAL = ChemoParams(0.0, 1.0)


def make_config(grid, **kwargs):
    defaults = dict(
        grid=grid,
        dt=grid.dx**2 / 4.0,
        t_max=1.0,
        snapshot_every=0.5,
        params=NEUTRAL,
        spec=EXP,
    )
    defaults.update(kwargs)
    return EvolveConfig(**defaults)


def test_config_validation():
    grid = Grid1D.from_spacing(-10.0, 10.0, 0.1)
    with pytest.raises(ValueError):
        make_config(grid, dt=0.01)  # dx^2/4 = 0.0025
    with pytest.raises(ValueError):
        make_config(grid, dt=-1e-3)
    with pytest.raises(ValueError):
        make_config(grid, t_max=0.0)
    with pytest.raises(ValueError):
        make_config(grid, snapshot_every=0.0)
    with pytest.raises(ValueError):
        make_config(grid, track_level=1.0)
    for field in ("dt", "t_max", "snapshot_every"):
        with pytest.raises(ValueError, match=field):
            make_config(grid, **{field: float("nan")})
    with pytest.raises(ValueError, match="t_max = inf"):
        make_config(grid, t_max=float("inf"))
    with pytest.raises(ValueError, match="grid bounds"):
        Grid1D(-10.0, float("inf"), 201)
    other = Grid1D.from_spacing(-5.0, 5.0, 0.1)
    with pytest.raises(ValueError):
        make_config(grid, initial=smoothed_step_field(other)).initial_field()


def test_default_front_margin():
    grid = Grid1D.from_spacing(-10.0, 10.0, 0.1)
    cfg = make_config(grid, params=ChemoParams(-1.0, 1.0))
    assert cfg.front_margin == pytest.approx(2.0)  # 2 sigma < 20% of 20
    cfg_wide = make_config(grid, params=ChemoParams(-1.0, 10.0))
    assert cfg_wide.front_margin == pytest.approx(4.0)  # capped by 20% of domain


def test_sup_bound():
    assert sup_bound(ChemoParams(0.0, 1.0)) == 1.0
    assert sup_bound(ChemoParams(-1.0, 1.0)) == 1.0
    assert sup_bound(ChemoParams(0.25, 1.0)) == pytest.approx(4.0 / 3.0)


def test_level_crossing_linear():
    grid = Grid1D(0.0, 10.0, 101)
    u = Field(grid, np.clip(1.0 - grid.x / 10.0, 0.0, 1.0), left_ext=1.0)
    # u = 1 - x/10 crosses level w at x = 10(1-w) exactly for piecewise-linear interp
    for level in (0.25, 0.5, 0.9):
        assert level_crossing(u, level) == pytest.approx(10.0 * (1.0 - level), abs=1e-12)
    assert level_crossing(u.with_values(np.zeros(grid.n)), 0.5) is None


def test_steady_states_are_preserved():
    grid = Grid1D.from_spacing(-10.0, 10.0, 0.1)
    for value in (0.0, 1.0):
        cfg = make_config(grid, initial=constant_field(grid, value), t_max=2.0)
        traj = evolve(cfg)
        assert np.max(np.abs(traj.final().values - value)) < 1e-12
        assert traj.clipped_mass == 0.0


def test_steady_states_preserved_with_advection():
    # constants are annihilated by the odd kernel, so u = 1 stays exact
    grid = Grid1D.from_spacing(-10.0, 10.0, 0.1)
    cfg = make_config(
        grid, initial=constant_field(grid, 1.0), params=ChemoParams(-0.3, 1.0), t_max=1.0
    )
    traj = evolve(cfg)
    assert np.max(np.abs(traj.final().values - 1.0)) < 1e-10


def test_measure_speed_on_synthetic_translation():
    c_true = 3.0
    track = [(float(t), 1.5 + c_true * float(t)) for t in np.linspace(0.0, 10.0, 41)]
    est = measure_speed(Trajectory(snapshots=[], front_positions=track))
    assert est.c == pytest.approx(c_true, abs=1e-12)
    assert est.stderr < 1e-12
    assert est.window == (5.0, 10.0)


def test_measure_speed_error_paths():
    grid = Grid1D.from_spacing(-5.0, 5.0, 0.1)
    traj = Trajectory(
        snapshots=[(0.0, Field(grid, np.zeros(grid.n)))], front_positions=[]
    )
    with pytest.raises(ValueError):
        measure_speed(traj)  # level never attained
    with pytest.raises(ValueError):
        measure_speed(traj, level=0.0)
    track = [(0.1 * i, 0.2 * i) for i in range(20)]
    tracked = Trajectory(snapshots=[], front_positions=track, config=make_config(grid))
    assert measure_speed(tracked, 0.5).c == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError, match="not tracked"):
        measure_speed(tracked, 0.4)  # only the tracked level was recorded


def test_speed_from_integral_sigmoid():
    # for u = (1 + e^x)^(-1), u(1-u) = -u', so the integral telescopes to 1
    grid = Grid1D.from_spacing(-60.0, 60.0, 0.01)
    u = Field(grid, 1.0 / (1.0 + np.exp(np.clip(grid.x, -500, 500))), left_ext=1.0)
    assert speed_from_integral(u) == pytest.approx(1.0, abs=1e-8)


def test_speed_from_integral_rejects_other_extensions():
    grid = Grid1D.from_spacing(-5.0, 5.0, 0.1)
    u = Field(grid, np.zeros(grid.n), left_ext=0.5)
    with pytest.raises(ValueError):
        speed_from_integral(u)


def test_front_speed_without_advection():
    # pulled FKPP front: asymptotic speed 2, approached from below
    grid = Grid1D.from_spacing(-20.0, 100.0, 0.2)
    cfg = make_config(grid, dt=0.01, t_max=30.0, snapshot_every=0.5)
    traj = evolve(cfg)
    assert traj.abort_reason is None
    est = measure_speed(traj)
    assert 1.7 < est.c < 2.05


def test_margin_abort_returns_partial_trajectory():
    grid = Grid1D.from_spacing(-10.0, 20.0, 0.2)
    cfg = make_config(grid, dt=0.01, t_max=50.0, snapshot_every=0.25)
    traj = evolve(cfg)
    assert traj.abort_reason is not None
    assert "margin" in traj.abort_reason
    t_last, last = traj.snapshots[-1]
    assert len(traj.snapshots) == 1 and traj.final() is last
    assert t_last < 50.0 and traj.front_positions[-1][0] == t_last
    # the front never reached the right boundary; it was recorded on the kept profile
    assert traj.front_positions[-1][1] == level_crossing(last, 0.5) < grid.x_max


def test_negative_values_are_clipped_and_logged():
    grid = Grid1D.from_spacing(-10.0, 10.0, 0.1)
    vals = 0.5 * (1.0 + np.tanh(-grid.x / 2.0))
    vals[grid.n // 2 + 20] = -0.05
    cfg = make_config(grid, initial=Field(grid, vals, left_ext=1.0), t_max=0.1)
    traj = evolve(cfg)
    assert traj.clipped_mass > 0.0
    assert np.min(traj.final().values) >= 0.0


def test_profiles_respect_sup_bound():
    params = ChemoParams(-0.5, 1.0)
    grid = Grid1D.from_spacing(-30.0, 60.0, 0.25)
    for t_max in (1.0, 2.5, 5.0, 10.0):  # a run keeps only its final profile
        cfg = make_config(grid, params=params, dt=0.01, t_max=t_max, snapshot_every=1.0)
        traj = evolve(cfg)
        assert np.max(traj.final().values) <= sup_bound(params) + 1e-6


def test_snapshot_cadence():
    grid = Grid1D.from_spacing(-10.0, 10.0, 0.1)
    cfg = make_config(grid, dt=0.0025, t_max=1.0, snapshot_every=0.25)
    traj = evolve(cfg)
    assert np.allclose([t for t, _ in traj.front_positions], [0.0, 0.25, 0.5, 0.75, 1.0])
    assert [t for t, _ in traj.snapshots] == [1.0]  # only the latest profile is kept


def test_evolve_leaves_initial_field_untouched():
    grid = Grid1D.from_spacing(-10.0, 10.0, 0.1)
    initial = smoothed_step_field(grid)  # boundary values differ from the extensions
    before = initial.values.copy()
    cfg = make_config(grid, initial=initial, params=ChemoParams(-0.05, 1.0), t_max=0.5)
    first = evolve(cfg)
    second = evolve(cfg)
    assert np.array_equal(initial.values, before)
    assert first.snapshots[-1][0] == second.snapshots[-1][0] == pytest.approx(0.5)
    assert np.array_equal(first.final().values, second.final().values)
    assert first.front_positions == second.front_positions


def test_diffusion_solve_matches_dense_solve():
    grid = Grid1D.from_spacing(-5.0, 5.0, 0.1)
    dt = grid.dx**2 / 4.0
    r = dt / grid.dx**2
    n = grid.n
    mat = np.diag(np.full(n, 1.0 + 2.0 * r)) - r * (np.eye(n, k=1) + np.eye(n, k=-1))
    mat[[0, -1]] = np.eye(n)[[0, -1]]  # Dirichlet identity rows
    rhs = np.random.default_rng(5).standard_normal(n)
    expected = np.linalg.solve(mat, rhs)
    got = _diffusion_solver(n, r)(rhs.copy())
    assert np.max(np.abs(got - expected)) / np.max(np.abs(expected)) < 1e-13


def test_upwind_divergence_matches_the_upwind_pick_bitwise():
    rng = np.random.default_rng(11)
    n, dx = 400, 0.1
    u = np.where(rng.random(n) < 0.3, 0.0, rng.random(n))  # exact zeros, as ahead of a front
    v = rng.standard_normal(n)
    v[rng.random(n) < 0.2] = 0.0  # zero face velocities, from both signs
    v[rng.random(n) < 0.1] *= 1e-320
    v_face = 0.5 * (v[:-1] + v[1:])
    flux = v_face * np.where(v_face >= 0.0, u[:-1], u[1:])
    expected = (flux[1:] - flux[:-1]) / dx
    upwind = np.empty(n - 1, dtype=bool)
    face, faces, div = np.empty(n - 1), np.empty(n - 1), np.empty(n - 2)
    got = _advective_divergence(u, v, dx, face, upwind, faces, div)
    assert got is div
    assert got.tobytes() == expected.tobytes()  # signed zeros included


def test_coupled_evolve_builds_one_operator_and_one_transform_per_step(monkeypatch):
    calls = {"rfft": [], "irfft": 0}
    rfft, irfft = convolve.rfft, convolve.irfft

    def counting_rfft(x, n, *args, **kwargs):
        calls["rfft"].append(n)  # the transform length
        return rfft(x, n, *args, **kwargs)

    def counting_irfft(*args, **kwargs):
        calls["irfft"] += 1
        return irfft(*args, **kwargs)

    sizes = []

    def fetch_operator(spec, sigma, dx, n):
        sizes.append(n)
        return convolve.drift_operator(spec, sigma, dx, n)

    monkeypatch.setattr(convolve, "rfft", counting_rfft)
    monkeypatch.setattr(convolve, "irfft", counting_irfft)
    monkeypatch.setattr(evolver, "drift_operator", fetch_operator)
    # a grid no other test uses, wider than the first active end; the exp
    # kernel has no FFT path, so the transforms are counted on a tophat run
    grid = Grid1D.from_spacing(-20.0, 151.3, 0.1)
    config = make_config(
        grid, params=ChemoParams(-0.05, 1.0), spec=TOPHAT, t_max=0.05, snapshot_every=0.01
    )
    n_steps = round(config.t_max / config.dt)
    misses = convolve.drift_operator.cache_info().misses
    evolve(config)
    assert len(sizes) >= 2 and sizes == sorted(set(sizes))  # one operator per active size
    assert convolve.drift_operator.cache_info().misses == misses + len(sizes)
    lengths = {convolve.drift_operator(TOPHAT, 1.0, grid.dx, m).size for m in sizes}
    for m in sizes:  # the transform covers the active grid and one window
        op = convolve.drift_operator(TOPHAT, 1.0, grid.dx, m)
        assert op.size == next_fast_len(m + op.half, real=True)
    assert set(calls["rfft"]) == lengths
    # the profile once per step, the two kernel spectra once per operator
    assert len(calls["rfft"]) == n_steps + 2 * len(sizes)
    assert calls["irfft"] == n_steps
    calls["rfft"].clear()
    first = list(sizes)
    evolve(config)  # a second run reuses the operators
    assert sizes == 2 * first
    assert convolve.drift_operator.cache_info().misses == misses + len(first)
    assert len(calls["rfft"]) == n_steps


def test_exp_kernel_runs_without_fft(monkeypatch):
    # the exponential kernel's drift is one tridiagonal solve, in the evolver
    # and in the slab's Newton (its residual and its Jacobian's GMRES products)
    def no_fft(*args, **kwargs):
        raise AssertionError("FFT called for the exp kernel")

    monkeypatch.setattr(convolve, "rfft", no_fft)
    monkeypatch.setattr(convolve, "irfft", no_fft)
    grid = Grid1D.from_spacing(-20.0, 148.7, 0.1)  # a grid no other test uses
    traj = evolve(make_config(grid, params=ChemoParams(-0.05, 1.0), t_max=0.5))
    assert traj.abort_reason is None and np.all(np.isfinite(traj.final().values))
    sol = fixed_point(SlabConfig(a=21.3, params=ChemoParams(-0.05, 1.0), spec=EXP))
    assert sol.converged


def trimmed_and_whole_runs(monkeypatch, config):
    """The run as evolve does it, with the active ends it chose, and the same
    run stepping every node."""
    ends = []
    active_end = evolver._active_end

    def spy(values, *args):
        ends.append(active_end(values, *args))
        return ends[-1]

    with monkeypatch.context() as patch:
        patch.setattr(evolver, "_active_end", spy)
        trimmed = evolve(config)
    with monkeypatch.context() as patch:
        patch.setattr(evolver, "_active_end", lambda values, *args: values.size)
        whole = evolve(config)
    return trimmed, whole, ends


def second_bump_field(grid):
    values = smoothed_step_field(grid).values + 0.5 * np.exp(-((grid.x - grid.x_max + 8.0) ** 2))
    values[-1] = 0.0
    return Field(grid, values, left_ext=1.0, right_ext=0.0)


@pytest.mark.parametrize(
    "grid, params, dt, t_max, bump",
    [
        (Grid1D.from_spacing(-100.0, 900.0, 1.0), ChemoParams(-20.0, 200.0), 0.1, 20.0, False),
        (Grid1D.from_spacing(-20.0, 100.0, 0.1), ChemoParams(-0.05, 1.0), 0.0025, 4.0, False),
        (Grid1D.from_spacing(-20.0, 60.0, 0.1), ChemoParams(-0.05, 1.0), 0.0025, 1.0, True),
    ],
    ids=["fast", "slow", "second-bump"],
)
def test_trimmed_run_matches_whole_grid_run(monkeypatch, grid, params, dt, t_max, bump):
    config = make_config(grid, params=params, dt=dt, t_max=t_max, snapshot_every=t_max / 20,
                         initial=second_bump_field(grid) if bump else None)
    trimmed, whole, ends = trimmed_and_whole_runs(monkeypatch, config)
    if bump:
        assert set(ends) == {grid.n}  # nonzero near the right end: nothing to trim
    else:
        assert ends[0] < grid.n  # the zero leading edge was left out
    assert [t for t, _ in trimmed.front_positions] == [t for t, _ in whole.front_positions]
    gap = max(abs(a - b) for (_, a), (_, b) in zip(trimmed.front_positions, whole.front_positions))
    assert gap < 1e-12
    assert np.max(np.abs(trimmed.final().values - whole.final().values)) < 1e-12
    assert trimmed.clipped_mass == whole.clipped_mass


def test_nonzero_right_extension_is_never_trimmed(monkeypatch):
    grid = Grid1D.from_spacing(-20.0, 100.0, 0.1)
    # zero ahead of the front up to the last node; a right extension at or
    # above the tracked level would end the run at t = 0 (margin abort)
    step = smoothed_step_field(grid)
    initial = Field(grid, step.values, left_ext=1.0, right_ext=0.4)
    config = make_config(grid, params=ChemoParams(-0.05, 1.0), dt=0.0025, t_max=0.1,
                         snapshot_every=0.01, initial=initial)
    trimmed, whole, ends = trimmed_and_whole_runs(monkeypatch, config)
    assert set(ends) == {grid.n}
    assert len(trimmed.front_positions) == 11
    assert trimmed.front_positions == whole.front_positions
    assert np.array_equal(trimmed.final().values, whole.final().values)
