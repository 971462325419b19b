import numpy as np
import pytest

from chemofront.evolver import (
    EvolveConfig,
    Trajectory,
    evolve,
    level_crossing,
    measure_speed,
    speed_from_integral,
    sup_bound,
)
from chemofront.grids import Field, Grid1D, constant_field, smoothed_step_field
from chemofront.kernels import ChemoParams, KernelSpec

EXP = KernelSpec("exp")
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
    grid = Grid1D.from_spacing(-20.0, 80.0, 0.05)
    c_true = 3.0
    snaps = []
    for t in np.linspace(0.0, 10.0, 41):
        vals = 0.5 * (1.0 + np.tanh(-(grid.x - c_true * t) / 2.0))
        snaps.append((float(t), Field(grid, vals, left_ext=1.0, right_ext=0.0)))
    traj = Trajectory(snapshots=snaps, front_positions=[])
    est = measure_speed(traj)
    assert est.c == pytest.approx(c_true, abs=1e-6)
    assert est.stderr < 1e-6
    # a translating profile gives the same speed at every level
    est_lo = measure_speed(traj, level=0.2)
    est_hi = measure_speed(traj, level=0.8)
    assert est_lo.c == pytest.approx(est_hi.c, abs=1e-6)


def test_measure_speed_error_paths():
    grid = Grid1D.from_spacing(-5.0, 5.0, 0.1)
    traj = Trajectory(
        snapshots=[(0.0, Field(grid, np.zeros(grid.n)))], front_positions=[]
    )
    with pytest.raises(ValueError):
        measure_speed(traj)  # level never attained
    with pytest.raises(ValueError):
        measure_speed(traj, level=0.0)


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
    assert traj.times()[-1] < 50.0
    # the front never reached the right boundary
    assert traj.front_positions[-1][1] < grid.x_max


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
    cfg = make_config(grid, params=params, dt=0.01, t_max=10.0, snapshot_every=1.0)
    traj = evolve(cfg)
    bound = sup_bound(params)
    for _, snap in traj.snapshots:
        assert np.max(snap.values) <= bound + 1e-6


def test_snapshot_cadence():
    grid = Grid1D.from_spacing(-10.0, 10.0, 0.1)
    cfg = make_config(grid, dt=0.0025, t_max=1.0, snapshot_every=0.25)
    traj = evolve(cfg)
    assert np.allclose(traj.times(), [0.0, 0.25, 0.5, 0.75, 1.0])


def test_evolve_leaves_initial_field_untouched():
    grid = Grid1D.from_spacing(-10.0, 10.0, 0.1)
    initial = smoothed_step_field(grid)  # boundary values differ from the extensions
    before = initial.values.copy()
    cfg = make_config(grid, initial=initial, params=ChemoParams(-0.05, 1.0), t_max=0.5)
    first = evolve(cfg)
    second = evolve(cfg)
    assert np.array_equal(initial.values, before)
    assert first.times().tolist() == second.times().tolist()
    for (_, a), (_, b) in zip(first.snapshots, second.snapshots):
        assert np.array_equal(a.values, b.values)
    assert first.front_positions == second.front_positions
