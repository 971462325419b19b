import numpy as np
import pytest

from chemofront.convolve import (
    DriftOperator,
    KernelResolutionError,
    _cell_masses,
    _cell_weights,
    _window,
    advection,
    advection_bounds_check,
    advection_gradient,
    drift_operator,
    next_fast_len,
)
from chemofront.grids import Field, Grid1D, constant_field, step_field
from chemofront.kernels import ChemoParams, KernelSpec, kbar
from oracles import direct_drift

EXP = KernelSpec("exp")


def random_field(grid, rng, exts=(0.0, 0.0)):
    return Field(grid, rng.standard_normal(grid.n), left_ext=exts[0], right_ext=exts[1])


def test_step_profile_matches_closed_form():
    # for u = 1_{x<0} the drift is -chi * Kbar(|x + dx/2|/sigma) exactly:
    # the nearest-node piecewise-constant reconstruction jumps at -dx/2, and
    # int_t^inf K = -Kbar(|t|) for every t by oddness
    grid = Grid1D.from_spacing(-40.0, 40.0, 0.1)
    params = ChemoParams(-1.0, 1.0)
    u = step_field(grid)
    v = advection(u, EXP, params)
    expected = -params.chi * kbar(EXP, np.abs(grid.x + grid.dx / 2.0))
    assert np.max(np.abs(v.values - expected)) < 1e-13


def test_fft_and_direct_agree():
    # the FFT path (tophat here) transforms the grid values alone and adds the
    # constant pads from prefix sums, the exp path sums the whole line by one
    # tridiagonal solve; the oracle convolves the profile padded to its window
    rng = np.random.default_rng(7)
    cases = [
        # (grid, spec, params, expected half-width J of the oracle's window)
        (Grid1D(-10.0, 10.0, 512), EXP, ChemoParams(-0.5, 1.3), None),
        # window capped at J = n-1: the kernel covers the whole grid
        (Grid1D(-10.0, 10.0, 300), EXP, ChemoParams(-0.5, 5.0), 299),
        (Grid1D(-10.0, 10.0, 87), EXP, ChemoParams(0.4, 5.0), 86),
        # a window of about 1/7 of the grid
        (Grid1D.from_spacing(-140.0, 140.0, 0.1), EXP, ChemoParams(-0.5, 1.268), 400),
        # narrow windows, down to the smallest grid
        (Grid1D.from_spacing(-12.0, 11.9, 0.1), KernelSpec("tophat"), ChemoParams(-0.5, 0.8), 8),
        (Grid1D.from_spacing(-12.0, 12.0, 0.1), KernelSpec("tophat"), ChemoParams(-0.5, 0.8), 8),
        (Grid1D(-2.0, 2.0, 40), EXP, ChemoParams(-0.5, 1.0), 39),
        (Grid1D(-2.0, 2.0, 16), KernelSpec("tophat"), ChemoParams(0.3, 1.2), 5),
        # a heavy tail capped at J = n-1 on the FFT path, whose tables are not cached
        (Grid1D(-10.0, 10.0, 120), KernelSpec("powerlaw", 3.0), ChemoParams(-0.5, 1.0), 119),
    ]
    extension_pairs = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.3, 0.7)]
    for grid, spec, params, half in cases:
        window = _window(spec, params.sigma, grid.dx, grid.n)
        if half is not None:
            assert window == half
        op = drift_operator(spec, params.sigma, grid.dx, grid.n)
        assert isinstance(op, DriftOperator) == (spec.family != "exp")
        if spec.family != "exp":
            assert op.half == window
            assert op.size >= grid.n + op.half
        for exts in extension_pairs + [tuple(rng.standard_normal(2)) for _ in range(3)]:
            u = random_field(grid, rng, exts=exts)
            for drift, oracle in zip((advection, advection_gradient), direct_drift(u, spec, params)):
                v_f = drift(u, spec, params).values
                v_d = oracle.values
                assert np.max(np.abs(v_f - v_d)) / np.max(np.abs(v_d)) < 1e-13, (grid, exts, drift)


def test_grid_capped_window_leaves_the_table_caches_alone():
    # tables of a window capped at n - 1 serve only grids of n nodes, which
    # drift_operator's own cache keys; an evolve run builds an uncached
    # operator for each size its front-following range steps
    calls = [table.cache_info()[:2] for table in (_cell_weights, _cell_masses)]
    for n in (130, 131):
        assert DriftOperator(KernelSpec("powerlaw", 3.0), 1.0, 0.1, n).half == n - 1
    assert [table.cache_info()[:2] for table in (_cell_weights, _cell_masses)] == calls


def test_constants_are_annihilated():
    grid = Grid1D.from_spacing(-20.0, 20.0, 0.1)
    params = ChemoParams(-2.0, 1.0)
    u = constant_field(grid, 1.0)
    v = advection(u, EXP, params)
    vx = advection_gradient(u, EXP, params)
    assert np.max(np.abs(v.values)) < 1e-14
    assert np.max(np.abs(vx.values)) < 1e-13


def test_linearity():
    rng = np.random.default_rng(11)
    grid = Grid1D(-5.0, 5.0, 300)
    params = ChemoParams(0.3, 2.0)
    u1, u2 = random_field(grid, rng), random_field(grid, rng)
    combo = u1.with_values(2.0 * u1.values - 3.0 * u2.values)
    v = advection(combo, EXP, params).values
    v12 = 2.0 * advection(u1, EXP, params).values - 3.0 * advection(u2, EXP, params).values
    assert np.max(np.abs(v - v12)) < 1e-12


def test_translation_equivariance():
    rng = np.random.default_rng(3)
    grid = Grid1D.from_spacing(-10.0, 10.0, 0.05)
    params = ChemoParams(-1.0, 0.8)
    vals = np.exp(-0.5 * grid.x**2) * rng.standard_normal(grid.n)
    u = Field(grid, vals)
    shifted = Field(grid, np.roll(vals, 7))
    v = advection(u, EXP, params).values
    v_shifted = advection(shifted, EXP, params).values
    # away from the wrapped edges the drift just translates
    assert np.max(np.abs(v_shifted[50:-50] - np.roll(v, 7)[50:-50])) < 1e-10


def test_gradient_matches_fine_difference():
    grid = Grid1D.from_spacing(-30.0, 30.0, 0.02)
    params = ChemoParams(-0.7, 1.5)
    u = Field(grid, 0.5 * (1.0 + np.tanh(-grid.x / 2.0)), left_ext=1.0, right_ext=0.0)
    v = advection(u, EXP, params).values
    vx = advection_gradient(u, EXP, params).values
    num = np.gradient(v, grid.dx)
    assert np.max(np.abs(vx[5:-5] - num[5:-5])) < 5e-4


def test_gradient_step_closed_form():
    # d/dx of -chi*Kbar(|x + dx/2|/sigma): piecewise +-(chi/sigma) K magnitude
    grid = Grid1D.from_spacing(-40.0, 40.0, 0.1)
    params = ChemoParams(-1.0, 2.0)
    u = step_field(grid)
    vx = advection_gradient(u, EXP, params).values
    s = np.abs(grid.x + grid.dx / 2.0) / params.sigma
    expected = (
        params.chi / params.sigma * 0.5 * np.exp(-s) * np.sign(grid.x + grid.dx / 2.0)
    )
    assert np.max(np.abs(vx - expected)) < 1e-12


def test_tophat_atom_is_exact():
    # the derivative of the tophat kernel has boundary atoms at x = +-sigma
    grid = Grid1D.from_spacing(-10.0, 10.0, 0.1)
    params = ChemoParams(-1.0, 2.0)
    u = step_field(grid)
    spec = KernelSpec("tophat")
    v = advection(u, spec, params).values
    vx = advection_gradient(u, spec, params).values
    num = np.gradient(v, grid.dx)
    inner = np.abs(np.abs(grid.x) - params.sigma) > 3 * grid.dx
    inner &= np.abs(grid.x) > 3 * grid.dx
    assert np.max(np.abs(vx[inner] - num[inner])) < 2e-2


def test_young_bounds():
    rng = np.random.default_rng(19)
    grid = Grid1D(-8.0, 8.0, 512)
    params = ChemoParams(-0.4, 1.1)
    for _ in range(10):
        u = random_field(grid, rng)
        v = advection(u, EXP, params)
        vx = advection_gradient(u, EXP, params)
        report = advection_bounds_check(u, v, vx, params)
        assert report.all_passed, report.failures()


def test_resolution_guard():
    grid = Grid1D.from_spacing(-10.0, 10.0, 0.5)
    params = ChemoParams(-0.1, 1.0)  # dx = 0.5 > sigma/4
    with pytest.raises(KernelResolutionError):
        advection(step_field(grid), EXP, params)


def test_extension_tail_enters_drift():
    # with left extension 1, far-left drift must approach the constant-state value 0
    grid = Grid1D.from_spacing(-60.0, 60.0, 0.1)
    params = ChemoParams(-1.0, 1.0)
    u = step_field(grid)
    v = advection(u, EXP, params)
    assert abs(v.values[0]) < 1e-12
    assert abs(v.values[-1]) < 1e-12
    # and the peak magnitude is |chi| Kbar(~0) ~ |chi|/2
    assert np.max(np.abs(v.values)) == pytest.approx(0.5, rel=0.05)


def test_next_fast_len_matches_scipy():
    from scipy.fft import next_fast_len as scipy_next_fast_len

    sizes = [*range(1, 20001), 10**6 + 1, 2**20 + 1, 3**13 + 1, 5**9 - 1, 10**7 + 3]
    assert [next_fast_len(n) for n in sizes] == [scipy_next_fast_len(n, real=True) for n in sizes]
