import dataclasses
import math

import numpy as np
import pytest

from chemofront import spectral
from chemofront.grids import Field, Grid1D, constant_field, periodic_difference
from chemofront.kernels import ChemoParams, KernelSpec
from chemofront.slab import SlabConfig, SlabSolution, _fkpp_wave, fixed_point
from chemofront.spectral import (
    CERTIFICATE_SPEEDS,
    _periodic_solver,
    assemble_potential,
    principal_eigenpair,
    rayleigh_quotient,
    slab_drift,
    slow_regime_certificate,
    tent_test_function,
    transform_to_w,
)
from oracles import banded_principal_eigenvalue

EXP = KernelSpec("exp")


@pytest.fixture(scope="module")
def slab_neutral():
    config = SlabConfig(a=60.0, params=ChemoParams(0.0, 1.0), spec=EXP)
    sol = fixed_point(config)
    assert sol.converged
    return sol


@pytest.fixture(scope="module")
def slab_repulsive():
    config = SlabConfig(a=60.0, params=ChemoParams(-0.02, 1.0), spec=EXP)
    sol = fixed_point(config)
    assert sol.converged
    return sol


@pytest.fixture(scope="module")
def slab_attractive():
    config = SlabConfig(a=60.0, params=ChemoParams(0.02, 1.0), spec=EXP)
    sol = fixed_point(config)
    assert sol.converged
    return sol


def constant_potential(grid, value):
    return Field(grid, np.full(grid.n, value))


def eigen_residual(pair, V):
    # ||(-D2 - V) y - lambda y|| for the returned eigenfunction scaled to unit norm
    y = pair.phi.values[:-1] / np.linalg.norm(pair.phi.values[:-1])
    dx = V.grid.dx
    Ay = (2.0 / dx**2 - V.values[:-1]) * y - (np.roll(y, 1) + np.roll(y, -1)) / dx**2
    return float(np.linalg.norm(Ay - pair.lam * y))


def test_assemble_potential_constant_inputs():
    grid = Grid1D.from_spacing(-10.0, 10.0, 0.1)
    zero = constant_field(grid, 0.0)
    # u = v = vx = 0, c = 2: V = 0
    pot = assemble_potential(zero, 2.0, zero, zero)
    assert np.max(np.abs(pot.values)) == 0.0
    # c = 2.1: V = -eps(1 + eps/4) with eps = 0.1
    pot = assemble_potential(zero, 2.1, zero, zero)
    assert np.max(np.abs(pot.values + 0.1 * 1.025)) < 1e-15
    # adding u = 1 shifts V down by one
    one = constant_field(grid, 1.0)
    pot = assemble_potential(one, 2.1, zero, zero)
    assert np.max(np.abs(pot.values + 1.0 + 0.1 * 1.025)) < 1e-15


def test_assemble_potential_rejects_slow_speeds():
    # nan and inf too: a test that only refuses c < 1.9 lets them through, to
    # fail later on a message that names no input
    grid = Grid1D.from_spacing(-10.0, 10.0, 0.1)
    zero = constant_field(grid, 0.0)
    for c in (1.5, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"test speed c = {c} must be finite and at least 1.9"):
            assemble_potential(zero, c, zero, zero)
    # and inputs on two grids, whatever the speed
    other = constant_field(Grid1D.from_spacing(-10.0, 10.0, 0.05), 0.0)
    with pytest.raises(ValueError, match="potential inputs must share a grid"):
        assemble_potential(zero, 2.0, zero, other)


def test_assemble_potential_two_forms_agree_on_slab(slab_repulsive):
    # V = 1 - (u + (c - v)^2/4 - v_x/2) is the same potential written out
    u = slab_repulsive.u.values
    v, vx = slab_drift(slab_repulsive)
    for c in (slab_repulsive.c, *CERTIFICATE_SPEEDS):
        pot = assemble_potential(slab_repulsive.u, c, v, vx)
        alt = 1.0 - (u + (c - v.values) ** 2 / 4.0 - vx.values / 2.0)
        assert np.max(np.abs(pot.values - alt)) < 1e-12


def test_constant_potential_eigenvalue_is_exact():
    # -phi'' - V phi with V = -0.3: ground state is constant, lambda = 0.3
    grid = Grid1D.from_spacing(-10.0, 10.0, 0.05)
    pot = constant_potential(grid, -0.3)
    pair = principal_eigenpair(pot)
    assert pair.lam == pytest.approx(0.3, abs=1e-12)
    assert pair.lam == pytest.approx(banded_principal_eigenvalue(pot), abs=1e-8)
    assert np.max(np.abs(pair.phi.values - 1.0)) < 1e-8
    assert eigen_residual(pair, pot) < 1e-10


def test_periodic_solver_refuses_indefinite_matrices():
    # the ring -D2 - shift (dx = 1) has eigenvalues 2 - 2 cos(2 pi k/m) - shift:
    # past lambda_0 = -shift it is refused, whether the factorization of T fails
    # (shifts 0.5 lam_1, 0.5 and 3, a negative diagonal) or the Sherman-Morrison
    # denominator turns negative (1e-3)
    m, off = 64, -1.0
    lam1 = 2.0 - 2.0 * np.cos(2.0 * np.pi / m)
    for shift in (0.5 * lam1, 1e-3, 0.5, 3.0):
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            _periodic_solver(np.full(m, 2.0 - shift), off)
    _periodic_solver(np.full(m, 2.0 + 1e-3), off)  # just below lambda_0: accepted


def test_periodic_solver_matches_dense_solve():
    rng = np.random.default_rng(11)
    for m in (3, 8, 257):
        off = rng.uniform(-2.0, -0.5)
        main = 2.0 * abs(off) + rng.uniform(0.1, 3.0, m)
        A = np.diag(main) + off * (
            np.eye(m, k=1) + np.eye(m, k=-1) + np.eye(m, k=m - 1) + np.eye(m, k=1 - m)
        )
        rhs = rng.standard_normal(m)
        b = rhs.copy()
        x = _periodic_solver(main, off)(b)
        assert x is b  # solved in place
        assert np.linalg.norm(A @ x - rhs) / np.linalg.norm(rhs) < 1e-12
        x_dense = np.linalg.solve(A, rhs)
        assert np.linalg.norm(x - x_dense) / np.linalg.norm(x_dense) < 1e-12


@pytest.mark.parametrize("wave", ["slab_repulsive", "slab_attractive"])
def test_matches_dense_oracle_on_certificate_potentials(wave, request):
    sol = request.getfixturevalue(wave)
    v, vx = slab_drift(sol)
    for c_test in CERTIFICATE_SPEEDS:
        pot = assemble_potential(sol.u, c_test, v, vx)
        pair = principal_eigenpair(pot)
        assert pair.lam == pytest.approx(banded_principal_eigenvalue(pot), abs=1e-10)
        assert np.min(pair.phi.values) > 0.0
        assert eigen_residual(pair, pot) < 1e-10


@pytest.mark.parametrize("wave", ["slab_repulsive", "slab_attractive"])
def test_warm_start_matches_cold_solve_on_certificate_potentials(wave, request):
    # the certificate's chain: each pair starts the solve at the next test speed
    sol = request.getfixturevalue(wave)
    v, vx = slab_drift(sol)
    pair = principal_eigenpair(assemble_potential(sol.u, CERTIFICATE_SPEEDS[0], v, vx))
    for c_test in CERTIFICATE_SPEEDS[1:]:
        pot = assemble_potential(sol.u, c_test, v, vx)
        pair = principal_eigenpair(pot, start=pair.phi)
        assert pair.iterations <= 3
        assert pair.lam == pytest.approx(principal_eigenpair(pot).lam, abs=1e-12)
        assert pair.lam == pytest.approx(banded_principal_eigenvalue(pot), abs=1e-10)
        assert np.min(pair.phi.values) > 0.0


def _recording(monkeypatch):
    # every eigensolve, with its potential, start and pair
    solves = []

    def recording(V, start=None):
        pair = principal_eigenpair(V, start)
        solves.append((V, start, pair))
        return pair

    monkeypatch.setattr(spectral, "principal_eigenpair", recording)
    return solves


def _recorded_certificate(sol, monkeypatch):
    # every eigensolve of a certificate on a cold slab grid: the chi = 0 wave's
    # cached chain is dropped, so it is solved and recorded first (a cold solve
    # at c_test = 2, then one warm solve per later test speed); a solution other
    # than that wave then gets three solves of its own
    spectral._fkpp_certificate.cache_clear()
    solves = _recording(monkeypatch)
    return slow_regime_certificate(sol), solves


@pytest.mark.parametrize("wave", ["slab_neutral", "slab_repulsive", "slab_attractive"])
def test_certificate_starts_from_the_fkpp_ground_state(wave, request, monkeypatch):
    # the ground state of the chi = 0 wave's V = -u is exact at chi = 0 and
    # O(chi) off elsewhere
    sol = request.getfixturevalue(wave)
    report, solves = _recorded_certificate(sol, monkeypatch)
    assert report.passed
    # the chi = 0 chain's first solve is the cold one of V(2) = -u
    pot, start, ground = solves[0]
    assert start is None
    assert np.array_equal(pot.values, -_fkpp_wave(sol.config.grid, sol.config.theta)[0])
    own = solves[-3:]  # at chi = 0, the chain itself
    if sol.config.params.chi != 0.0:
        assert len(solves) == 6
        # a chi != 0 chain starts from that eigenvector scaled to a largest value of 1
        assert np.array_equal(own[0][1].values, ground.phi.values / np.max(ground.phi.values))
        assert own[0][2].iterations <= 5  # 18 from the cold start
    else:
        assert len(solves) == 3
    for (pot, _, pair), entry in zip(own, report.entries, strict=True):
        assert entry["lambda"] == pair.lam
        assert pair.lam == pytest.approx(principal_eigenpair(pot).lam, abs=1e-12)
        assert pair.lam == pytest.approx(banded_principal_eigenvalue(pot), abs=1e-10)


def test_chi_zero_chain_takes_one_iteration_per_later_speed(slab_neutral, monkeypatch):
    # at chi = 0 the wave is the cached FKPP wave and the potentials differ from
    # V = -u by constants, so after the cold first solve every start is
    # already the ground state
    _, solves = _recorded_certificate(slab_neutral, monkeypatch)
    assert [start is None for _, start, _ in solves] == [True, False, False]
    assert [pair.iterations for _, _, pair in solves[1:]] == [1, 1]


def test_certificate_at_chi_zero_on_a_warm_grid_takes_no_solve(slab_neutral, monkeypatch):
    cold, _ = _recorded_certificate(slab_neutral, monkeypatch)
    solves = _recording(monkeypatch)
    warm = slow_regime_certificate(slab_neutral)
    assert solves == []
    assert warm.passed and warm.entries == cold.entries


def test_chi_zero_certificate_is_shared_across_sigma(monkeypatch):
    # the chi = 0 wave and its zero drift read neither sigma nor the kernel
    def certificate(sigma):
        sol = fixed_point(SlabConfig(a=60.0, params=ChemoParams(0.0, sigma), spec=EXP))
        return sol, slow_regime_certificate(sol)

    spectral._fkpp_certificate.cache_clear()
    _, first = certificate(1.0)
    solves = _recording(monkeypatch)
    sol, second = certificate(200.0)
    assert solves == []
    spectral._fkpp_certificate.cache_clear()
    _, cold = certificate(200.0)
    assert len(solves) == 3  # the chain: a cold solve, then one per later test speed
    # the uncached chain on the drift the slab solution itself gives
    solved, _ = spectral._certificate_entries(sol.u, *slab_drift(sol), None)
    assert second.passed
    assert second.entries == first.entries == cold.entries == solved


def test_chi_zero_certificate_of_another_profile_is_solved_for(slab_neutral, monkeypatch):
    # one node off the cached FKPP wave is another profile: its own three solves
    u = slab_neutral.u.values.copy()
    u[slab_neutral.u.grid.index_of(0.0)] *= 1.0 + 1e-12
    sol = SlabSolution(
        c=slab_neutral.c,
        u=Field(slab_neutral.u.grid, u, left_ext=1.0, right_ext=0.0),
        residual=slab_neutral.residual,
        iterations=slab_neutral.iterations,
        converged=True,
        config=slab_neutral.config,
        tau_path=slab_neutral.tau_path,
    )
    slow_regime_certificate(slab_neutral)  # warms the chi = 0 certificate
    solves = _recording(monkeypatch)
    report = slow_regime_certificate(sol)
    assert len(solves) == 3
    assert [e["lambda"] for e in report.entries] == [pair.lam for _, _, pair in solves]


def test_chi_zero_certificate_entries_are_fresh_copies(slab_neutral):
    first = slow_regime_certificate(slab_neutral)
    expected = [dict(e) for e in first.entries]
    first.entries[0]["lambda"] = -1.0
    first.entries.append({"c_test": 3.0, "lambda": -1.0, "phi0": 1.0})
    assert slow_regime_certificate(slab_neutral).entries == expected


@pytest.mark.parametrize("wave", ["slab_repulsive", "slab_attractive"])
def test_certificate_first_solve_takes_at_most_two_iterations(wave, request, monkeypatch):
    sol = request.getfixturevalue(wave)
    _, solves = _recorded_certificate(sol, monkeypatch)
    _, start, pair = solves[-3]  # the first after the chi = 0 chain
    assert not start.values.flags.writeable and np.max(start.values) == 1.0
    assert pair.iterations <= 2


def test_ground_state_is_solved_once_per_slab_grid(slab_repulsive, slab_attractive, monkeypatch):
    # two certificates on one slab grid: the chi = 0 chain once (one cold
    # eigensolve, then two warm ones), then three warm solves per certificate
    spectral._fkpp_certificate.cache_clear()
    calls = []

    def counting(V, start=None):
        calls.append(start is None)
        return principal_eigenpair(V, start)

    monkeypatch.setattr(spectral, "principal_eigenpair", counting)
    first = slow_regime_certificate(slab_repulsive)
    assert calls == [True, False, False, False, False, False]
    calls.clear()
    second = slow_regime_certificate(slab_attractive)
    assert calls == [False, False, False]
    info = spectral._fkpp_certificate.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert first.passed and second.passed


def test_warm_certified_wave_builds_one_grid(monkeypatch):
    # the config builds the slab grid; the cached FKPP wave and ground state
    # are keyed by it, and the solve and the certificate read it
    def certified():
        sol = fixed_point(SlabConfig(a=60.0, params=ChemoParams(-0.02, 1.0), spec=EXP))
        return slow_regime_certificate(sol)

    certified()  # warms both caches and the drift operator
    built = []
    real = Grid1D.__post_init__

    def counting(grid):
        built.append(grid)
        real(grid)

    monkeypatch.setattr(Grid1D, "__post_init__", counting)
    assert certified().passed
    assert len(built) == 1


def test_certificate_start_cannot_overflow_on_a_wide_slab(monkeypatch):
    # at a = 800 the factor e^{ca/2} overflows, so transform_to_w refuses the
    # wave; the certificate's start, the FKPP ground state, is scaled to a
    # largest value of 1 instead
    config = SlabConfig(a=800.0, params=ChemoParams(-0.005, 2.0), spec=EXP, dx=0.5)
    vals = np.exp(-np.logaddexp(0.0, config.grid.x))  # 1/(1 + e^x), zero past x ~ 745
    vals[-1] = 0.0
    u = Field(config.grid, vals, left_ext=1.0, right_ext=0.0)
    sol = SlabSolution(c=2.0, u=u, residual=0.0, iterations=0, converged=True, config=config, tau_path=[])
    with pytest.raises(OverflowError):
        transform_to_w(sol)
    report, solves = _recorded_certificate(sol, monkeypatch)
    first = solves[-3][1].values  # the first start after the chi = 0 chain
    assert np.all(np.isfinite(first)) and np.min(first) > 0.0 and np.max(first) == 1.0
    assert report.applicable and len(report.entries) == 3


def test_sign_changing_start_recovers_or_raises(monkeypatch):
    # a start vector that changes sign may draw the iteration to a higher
    # eigenpair, or hold the shift between two of them for all 500 iterations
    # (the sawtooth y = x did): such a start is refused before any solve
    rng = np.random.default_rng(23)
    grid = Grid1D(-5.0, 5.0, 257)
    vals = rng.uniform(-1.0, 1.0, grid.n)
    vals[-1] = vals[0]
    pot = Field(grid, vals)
    m, dx = grid.n - 1, grid.dx
    ring = np.eye(m, k=1) + np.eye(m, k=-1) + np.eye(m, k=m - 1) + np.eye(m, k=1 - m)
    _, modes = np.linalg.eigh(np.diag(2.0 / dx**2 - vals[:m]) - ring / dx**2)
    x = grid.x[:-1]
    starts = [modes[:, k] for k in (1, 2, 5)]
    starts += [np.cos(0.2 * np.pi * x), np.sin(0.2 * np.pi * x), np.cos(0.2 * np.pi * x) + 0.9, x]
    monkeypatch.setattr(
        spectral, "_periodic_solver", lambda main, off: pytest.fail("solved before refusing the start")
    )
    for y in starts:
        start = Field(grid, np.append(y, y[0]))
        with pytest.raises(ValueError, match="start eigenvector must be positive"):
            principal_eigenpair(pot, start=start)
    # so is a positive start on another grid
    with pytest.raises(ValueError, match="start vector and potential must share a grid"):
        principal_eigenpair(pot, start=constant_field(Grid1D(-5.0, 5.0, 129), 1.0))


def test_matches_dense_oracle_on_random_potentials():
    rng = np.random.default_rng(23)
    grid = Grid1D(-5.0, 5.0, 257)
    for _ in range(10):
        vals = rng.uniform(-1.0, 1.0, grid.n)
        vals[-1] = vals[0]
        pot = Field(grid, vals)
        pair = principal_eigenpair(pot)
        assert pair.lam == pytest.approx(banded_principal_eigenvalue(pot), abs=1e-9)


def test_shift_covariance():
    # V -> V + s shifts the whole spectrum by -s
    rng = np.random.default_rng(5)
    grid = Grid1D(-5.0, 5.0, 257)
    vals = rng.uniform(-0.5, 0.5, grid.n)
    vals[-1] = vals[0]
    base = Field(grid, vals)
    shifted = Field(grid, vals + 0.7)
    lam0 = principal_eigenpair(base).lam
    lam1 = principal_eigenpair(shifted).lam
    assert lam1 == pytest.approx(lam0 - 0.7, abs=1e-9)


def test_rayleigh_quotient_constant_mode():
    grid = Grid1D.from_spacing(-10.0, 10.0, 0.1)
    pot = constant_potential(grid, -0.3)
    psi = constant_field(grid, 2.0)
    assert rayleigh_quotient(psi, pot) == pytest.approx(0.3, abs=1e-14)


def test_periodic_stencils_match_roll():
    # the slice stencils do the arithmetic of the np.roll forms, so equal bitwise
    rng = np.random.default_rng(13)
    grid = Grid1D(-5.0, 5.0, 201)
    vals = rng.standard_normal(grid.n)
    vals[-1] = vals[0]
    V = Field(grid, rng.standard_normal(grid.n))
    y, dx = vals[:-1], grid.dx
    assert np.array_equal(periodic_difference(y, np.empty(y.size)), np.roll(y, -1) - y)
    grad = (np.roll(y, -1) - y) / dx
    expected = (grad @ grad - (V.values[:-1] * y) @ y) / (y @ y)
    assert rayleigh_quotient(Field(grid, vals), V) == expected


def test_rayleigh_quotient_rejects_bad_inputs():
    grid = Grid1D.from_spacing(-10.0, 10.0, 0.1)
    pot = constant_potential(grid, -0.3)
    with pytest.raises(ValueError):
        rayleigh_quotient(Field(grid, grid.x), pot)  # not periodic
    with pytest.raises(ValueError):
        rayleigh_quotient(Field(grid, np.zeros(grid.n)), pot)
    with pytest.raises(ValueError, match="test function and potential must share a grid"):
        rayleigh_quotient(constant_field(Grid1D.from_spacing(-10.0, 10.0, 0.05), 1.0), pot)


def test_variational_principle():
    # lambda = min over psi of the Rayleigh quotient, exactly at the
    # discrete level; no random test function may dip below it
    rng = np.random.default_rng(31)
    grid = Grid1D(-5.0, 5.0, 129)
    vals = rng.uniform(-1.0, 1.0, grid.n)
    vals[-1] = vals[0]
    pot = Field(grid, vals)
    lam = principal_eigenpair(pot).lam
    assert lam == pytest.approx(banded_principal_eigenvalue(pot), abs=1e-8)
    L = grid.x_max - grid.x_min
    for _ in range(100):
        coeffs = rng.standard_normal(7)
        psi_vals = coeffs[0] + sum(
            coeffs[k] * np.sin(2 * np.pi * k * grid.x / L)
            + coeffs[k + 3] * np.cos(2 * np.pi * k * grid.x / L)
            for k in (1, 2, 3)
        )
        psi = Field(grid, psi_vals)
        assert rayleigh_quotient(psi, pot) >= lam - 1e-10


def test_tent_function_normalization_and_energy():
    # at a = 1 the tent has unit L2 mass and kinetic energy 48; with the
    # kinks on grid nodes the forward-difference energy is exact
    grid = Grid1D(-1.0, 1.0, 8193)
    psi = tent_test_function(grid, a=1.0)
    dx = grid.dx
    mass = np.sum(psi.values[:-1] ** 2) * dx
    grad = (np.roll(psi.values[:-1], -1) - psi.values[:-1]) / dx
    kinetic = np.sum(grad**2) * dx
    assert abs(mass - 1.0) < 1e-6
    assert abs(kinetic - 48.0) < 1e-12
    # support is [1/2, 1]
    assert np.all(psi.values[grid.x < 0.5] == 0.0)
    assert psi.values[grid.index_of(0.75)] == pytest.approx((96.0) ** 0.5 / 4.0, rel=1e-12)


def test_tent_rayleigh_quotient_upper_bound():
    grid = Grid1D(-1.0, 1.0, 1025)
    pot = constant_potential(grid, -0.3)
    psi = tent_test_function(grid, a=1.0)
    rq = rayleigh_quotient(psi, pot)
    assert rq == pytest.approx(48.0 + 0.3, rel=1e-3)
    lam = principal_eigenpair(pot).lam
    assert lam == pytest.approx(banded_principal_eigenvalue(pot), abs=1e-8)
    assert rq >= lam


def test_transform_to_w(slab_neutral):
    prof = transform_to_w(slab_neutral)
    i0 = slab_neutral.u.grid.index_of(0.0)
    # at x = 0 the integrating factor is 1, so w(0) = u(0) = theta
    assert prof.w.values[i0] == pytest.approx(slab_neutral.config.theta, rel=1e-6)
    # w solves the transformed equation up to discretization error
    assert prof.residual < 10.0 * slab_neutral.config.dx**2
    assert np.all(prof.w.values >= 0.0)
    with pytest.raises(ValueError, match="slab solution is not converged"):
        transform_to_w(dataclasses.replace(slab_neutral, converged=False))


def test_certificate_passes_in_slow_regime(slab_repulsive):
    report = slow_regime_certificate(slab_repulsive)
    assert report.applicable
    assert report.passed, report.entries
    assert len(report.entries) == 3
    for entry in report.entries:
        assert entry["lambda"] >= -1e-8
        assert 0.0 < entry["phi0"] <= np.exp(report.a / 2.0)


def test_certificate_refuses_out_of_hypothesis():
    # |chi|(1/sigma + sigma^2) above the gate 0.1: 0.8 (strong coupling), then
    # 0.1125, 0.12 and 0.14, just past it, where no scan cell may be labelled slow
    from chemofront.slab import _seed_profile

    for chi, sigma in [(-0.4, 1.0), (-0.05, 0.5), (-0.06, 1.0), (0.06, 1.0), (-0.07, 1.0), (0.07, 1.0)]:
        config = SlabConfig(a=60.0, params=ChemoParams(chi, sigma), spec=EXP)
        sol = SlabSolution(
            c=2.0,
            u=_seed_profile(config.grid, config.theta),
            residual=0.0,
            iterations=0,
            converged=True,
            config=config,
            tau_path=[],
        )
        report = slow_regime_certificate(sol)
        assert not report.applicable, (chi, sigma)
        assert not report.passed
        assert "out of hypothesis" in report.reason


def test_eigenvalue_grid_convergence_is_second_order():
    lams = []
    for n in (201, 401, 801):
        grid = Grid1D(-10.0, 10.0, n)
        vals = -0.3 - 0.1 * np.cos(np.pi * grid.x / 10.0)
        pot = Field(grid, vals)
        lams.append(principal_eigenpair(pot).lam)
    ratio = (lams[0] - lams[1]) / (lams[1] - lams[2])
    assert 3.5 < ratio < 4.5


def test_stagnated_inverse_iteration_raises_linalg_error(monkeypatch):
    # a solve that returns its right-hand side never moves the iterate off the
    # constant vector, which is no eigenvector of a non-constant potential
    monkeypatch.setattr(spectral, "_periodic_solver", lambda main, off: lambda rhs: rhs.copy())
    grid = Grid1D(-5.0, 5.0, 129)
    V = Field(grid, np.cos(2.0 * np.pi * grid.x / 10.0))
    with pytest.raises(np.linalg.LinAlgError, match="stagnated"):
        principal_eigenpair(V)


def test_certificate_decides_phi0_on_a_long_slab():
    # e^{a/2} overflows past a ~ 1419; phi0 <= e^{a/2} is decided in logs
    def passed(a, phi0):
        entry = {"c_test": 2.0, "lambda": 1e-6, "phi0": phi0}
        return spectral.CertificateReport(True, "", a, [entry]).passed

    assert passed(1500.0, 1e300)  # log(1e300) = 690.8 <= 750
    assert not passed(1000.0, 1e300)  # > 500
    assert not passed(1500.0, math.inf)


@pytest.mark.parametrize("chi", [-0.05, -1.0])
def test_eigenvalue_gate_fails_outside_the_slow_regime(chi):
    # negative control for the certificate's first gate (lambda >= -1e-8): at
    # sigma = 200, far past the hypothesis |chi|(1/sigma + sigma^2) <= 0.1, the
    # principal eigenvalue at c_test = 2 is clearly negative (measured -1.87e-2
    # at chi = -0.05 and -0.396 at chi = -1), so the gate would refuse the
    # wave; the public certificate does not apply to it at all
    sol = fixed_point(SlabConfig(a=60.0, params=ChemoParams(chi, 200.0), spec=EXP))
    assert sol.converged
    v, vx = slab_drift(sol)
    pair = principal_eigenpair(assemble_potential(sol.u, 2.0, v, vx))
    assert pair.lam < -1e-8
    entry = {"c_test": 2.0, "lambda": pair.lam, "phi0": pair.phi_at(0.0)}
    assert not spectral.CertificateReport(True, "", sol.config.a, [entry]).passed
    report = slow_regime_certificate(sol)
    assert not report.applicable and not report.passed
