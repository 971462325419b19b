import numpy as np
import pytest

from scipy.fft import next_fast_len

from chemofront import convolve, evolver
from chemofront.evolver import (
    FIT_MIN_RECORDS,
    FIT_WINDOW,
    EvolveConfig,
    Trajectory,
    _advective_divergence,
    _diffusion_solver,
    evolve,
    fit_window_records,
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
    for field in ("dt", "t_max", "snapshot_every"):
        with pytest.raises(ValueError, match=field):
            make_config(grid, **{field: float("nan")})
    with pytest.raises(ValueError, match="t_max = inf"):
        make_config(grid, t_max=float("inf"))
    # finite, but the step counts overflow
    for field, values in [("t_max", dict(t_max=1e308)), ("snapshot_every", dict(snapshot_every=1e308)),
                          ("t_max", dict(dt=1e-320))]:
        with pytest.raises(ValueError, match=f"{field} = .* gives a non-finite step count"):
            make_config(grid, **values)
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
    est = measure_speed(Trajectory(snapshots=[], front_positions=track), window_fraction=0.5)
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
    tracked = Trajectory(snapshots=[], front_positions=track)
    assert measure_speed(tracked, 0.5).c == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError, match="not tracked"):
        measure_speed(tracked, 0.4)  # only the tracked level was recorded


def test_speed_from_integral_sigmoid():
    # for u = (1 + e^x)^(-1), u(1-u) = -u', so the integral telescopes to 1
    grid = Grid1D.from_spacing(-60.0, 60.0, 0.01)
    u = Field(grid, 1.0 / (1.0 + np.exp(np.clip(grid.x, -500, 500))), left_ext=1.0)
    assert speed_from_integral(u) == pytest.approx(1.0, abs=1e-8)


def test_speed_from_integral_rejects_other_extensions():
    # c (u(-inf) - u(inf)) = int u(1-u): only a profile connecting 1 to 0 has
    # its speed as the integral; (0, 1) would flip its sign, and equal
    # extensions have no speed to read
    grid = Grid1D.from_spacing(-5.0, 5.0, 0.1)
    for left, right in [(0.5, 0.0), (0.0, 0.0), (0.0, 1.0), (1.0, 1.0)]:
        u = Field(grid, np.zeros(grid.n), left_ext=left, right_ext=right)
        with pytest.raises(ValueError, match=r"extensions must be \(1, 0\)"):
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


def test_diffusion_solve_on_a_leading_block_matches_its_own_factorization_bitwise():
    # the k-node matrix is the n-node one's leading block, and so are its factors
    n, a = 401, 0.25
    rhs = np.random.default_rng(7).standard_normal(n)
    solve = _diffusion_solver(n, a)
    for k in (4, 5, 17, n):
        got = solve(rhs[:k].copy())
        assert got.tobytes() == _diffusion_solver(k, a)(rhs[:k].copy()).tobytes()


@pytest.mark.parametrize("t_max, every", [(9.0, 1.0), (10.0, 1.0), (2.0, 0.3), (1.0, 1.0), (0.004, 1.0)])
def test_fit_window_records_counts_what_the_speed_fit_finds(t_max, every):
    # a record count short of FIT_MIN_RECORDS is one measure_speed would refuse after the run
    grid = Grid1D.from_spacing(-10.0, 30.0, 0.2)
    config = make_config(grid, dt=0.01, t_max=t_max, snapshot_every=every)
    times = np.array([t for t, _ in evolve(config).front_positions])
    in_window = int(np.sum(times >= times[-1] - FIT_WINDOW * (times[-1] - times[0])))
    assert fit_window_records(config) == min(in_window, FIT_MIN_RECORDS)


@pytest.mark.parametrize("k", [3, 11, 12])
def test_diffusion_solve_refuses_a_length_outside_its_factorization(k):
    # 12 values after factoring 10 nodes used to come back with nodes 9 and 10 unsolved
    rhs = np.arange(float(k))
    with pytest.raises(ValueError, match=f"takes 4 to 10 nodes, not {k}"):
        _diffusion_solver(10, 0.25)(rhs)
    assert np.array_equal(rhs, np.arange(float(k)))  # refused before any write


def test_diffusion_solve_raises_on_a_failed_pttrs(monkeypatch):
    monkeypatch.setattr(evolver, "dpttrs", lambda d, e, b, overwrite_b: (b, -6))
    with pytest.raises(np.linalg.LinAlgError, match="info -6"):
        _diffusion_solver(10, 0.25)(np.ones(10))


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
    faces, div = np.empty(n - 1), np.empty(n - 2)
    got = _advective_divergence(u, v, dx, faces, div)
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

    built, solver_sizes = [], []

    class CountedOperator(convolve.DriftOperator):
        def __init__(self, spec, sigma, dx, n):
            super().__init__(spec, sigma, dx, n)
            built.append((n, self))

    def fetch_solver(n, a):
        solver_sizes.append(n)
        return _diffusion_solver(n, a)

    monkeypatch.setattr(convolve, "rfft", counting_rfft)
    monkeypatch.setattr(convolve, "irfft", counting_irfft)
    monkeypatch.setattr(convolve, "DriftOperator", CountedOperator)
    monkeypatch.setattr(evolver, "_diffusion_solver", fetch_solver)
    # the tophat kernel's reach (51 behind the front) spans this grid's left
    # part, so lo stays 0 while hi follows the front; the exp kernel has no
    # FFT path, so the transforms are counted on a tophat run
    grid = Grid1D.from_spacing(-20.0, 151.3, 0.1)
    config = make_config(
        grid, params=ChemoParams(-0.05, 1.0), spec=TOPHAT, t_max=0.5, snapshot_every=0.1
    )
    n_steps = round(config.t_max / config.dt)
    cached = convolve.drift_operator.cache_info()
    traj = evolve(config)
    sizes = [n for n, _ in built]
    # one factorization per run, on the whole grid; one operator per stepped size, each a new size
    assert solver_sizes == [grid.n]
    assert len(sizes) >= 2 and len(set(sizes)) == len(sizes)
    assert traj.stepped == (0, sizes[-1]) and sizes[-1] < grid.n
    assert convolve.drift_operator.cache_info() == cached  # the shared cache is left alone
    for m, op in built:  # the transform covers the stepped nodes and one window
        assert op.size == next_fast_len(m + op.half, real=True)
    assert set(calls["rfft"]) == {op.size for _, op in built}
    # the profile once per step, the two kernel spectra once per operator
    assert len(calls["rfft"]) == n_steps + 2 * len(sizes)
    assert calls["irfft"] == n_steps


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


def second_bump_field(grid, height):
    values = smoothed_step_field(grid).values + height * np.exp(-((grid.x - grid.x_max + 8.0) ** 2))
    values[-1] = 0.0
    return Field(grid, values, left_ext=1.0, right_ext=0.0)


def windowed_and_whole_runs(monkeypatch, config):
    """The run as evolve does it, and the same run with a range as long as
    the grid, stepping every node at every step; each with its solver sizes."""
    runs = []
    for lengths in ({}, {"WINDOW_BEHIND": np.inf, "WINDOW_AHEAD": np.inf}):
        sizes = []

        def fetch_solver(n, a):
            sizes.append(n)
            return _diffusion_solver(n, a)

        with monkeypatch.context() as patch:
            for name, length in lengths.items():
                patch.setattr(evolver, name, length)
            patch.setattr(evolver, "_diffusion_solver", fetch_solver)
            runs.append((evolve(config), sizes))
    return runs


WIDE = Grid1D.from_spacing(-50.0, 350.0, 0.1)


@pytest.mark.parametrize(
    "grid, params, spec, dt, t_max, snapshot_every, tol, slides",
    [
        (WIDE, NEUTRAL, EXP, 0.0025, 2.0, 0.1, 1e-12, True),
        (WIDE, ChemoParams(-0.05, 1.0), EXP, 0.0025, 1.0, 0.1, 1e-12, False),
        # the FFT drift, whose short kernel lets the window slide at once
        (WIDE, ChemoParams(-0.05, 1.0), TOPHAT, 0.0025, 1.5, 0.1, 1e-12, True),
        # the scan's chi = -20, sigma = 1 grid and time step
        (Grid1D.from_spacing(-52.0, 163.0, 0.1), ChemoParams(-20.0, 1.0), EXP, 0.0025, 1.5, 0.1,
         1e-9, False),
        # the front 300 x units from the left end: a window placed before the
        # first record would start on [-300, -150] and zero the front
        (Grid1D.from_spacing(-300.0, 100.0, 0.2), NEUTRAL, EXP, 0.01, 2.0, 0.1, 1e-12, True),
        # records 60 apart, between which the front travels about 115, more
        # than WINDOW_AHEAD: the window's lead has room for that travel
        (Grid1D.from_spacing(-20.0, 500.0, 1.0), NEUTRAL, EXP, 0.25, 120.0, 60.0, 1e-12, True),
        # a long run, whose leading edge spreads like sqrt(t) ahead of the
        # front: on this coarse grid a lead of 100 moves its positions by
        # 1.1e-3 by t = 400, the lead of 8 sqrt(t_max) = 160 by 6.5e-11
        (Grid1D.from_spacing(-20.0, 900.0, 1.0), NEUTRAL, EXP, 0.25, 400.0, 1.0, 1e-9, True),
        # a fast front whose kernel reaches (31.5 sigma) past the grid's left
        # end, and a heavy-tailed kernel: lo stays 0 and only hi follows the front
        (Grid1D.from_spacing(-100.0, 900.0, 1.0), ChemoParams(-20.0, 200.0), EXP, 0.1, 20.0, 1.0,
         1e-12, False),
        (WIDE, ChemoParams(-0.05, 1.0), KernelSpec("powerlaw", 3.0), 0.0025, 1.0, 0.1, 1e-12,
         False),
    ],
    ids=["fkpp", "exp", "tophat", "scan-fast-cell", "far-front", "sparse-records", "long-run",
         "sigma-200", "powerlaw"],
)
def test_windowed_run_matches_whole_grid_run(monkeypatch, grid, params, spec, dt, t_max,
                                              snapshot_every, tol, slides):
    config = make_config(grid, params=params, spec=spec, dt=dt, t_max=t_max,
                         snapshot_every=snapshot_every)
    (windowed, _), (whole, _) = windowed_and_whole_runs(monkeypatch, config)
    lo, hi = windowed.stepped
    assert hi - lo < grid.n and (lo > 0) == slides
    assert whole.stepped == (0, grid.n)
    assert [t for t, _ in windowed.front_positions] == [t for t, _ in whole.front_positions]
    gap = max(abs(a - b) for (_, a), (_, b) in zip(windowed.front_positions, whole.front_positions))
    assert gap < tol
    final = windowed.final()
    assert np.all(final.values[: lo + 1] == final.left_ext)  # the Dirichlet node too
    assert not final.values[hi:].any()


def test_runs_the_window_does_not_cover_step_as_before(monkeypatch):
    # a nonzero right extension holds the last node, and a bump below the
    # tracked level lies beyond the window's reach, which would drop it:
    # either way every step advances the whole grid
    step = smoothed_step_field(WIDE)
    cases = [
        make_config(WIDE, dt=0.0025, t_max=0.25, snapshot_every=0.05,
                    initial=Field(WIDE, step.values, left_ext=1.0, right_ext=0.4)),
        make_config(WIDE, dt=0.0025, t_max=0.25, snapshot_every=0.05,
                    initial=second_bump_field(WIDE, height=0.1)),
    ]
    for config in cases:
        (windowed, sizes), (whole, whole_sizes) = windowed_and_whole_runs(monkeypatch, config)
        assert sizes == whole_sizes == [WIDE.n] and windowed.stepped == (0, WIDE.n)
        assert windowed.front_positions == whole.front_positions
        assert np.array_equal(windowed.final().values, whole.final().values)
