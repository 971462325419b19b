import numpy as np
import pytest

from chemofront import spectral
from chemofront.grids import Field, Grid1D, constant_field, periodic_difference
from chemofront.kernels import ChemoParams, KernelSpec
from chemofront.slab import SlabConfig, fixed_point
from chemofront.spectral import (
    CERTIFICATE_SPEEDS,
    Potential,
    _periodic_solver,
    assemble_potential,
    dense_principal_eigenvalue,
    principal_eigenpair,
    rayleigh_quotient,
    slab_drift,
    slow_regime_certificate,
    tent_test_function,
    transform_to_w,
)

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
    return Potential(grid=grid, values=np.full(grid.n, value))


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
    grid = Grid1D.from_spacing(-10.0, 10.0, 0.1)
    zero = constant_field(grid, 0.0)
    with pytest.raises(ValueError):
        assemble_potential(zero, 1.5, zero, zero)


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
    assert pair.lam == pytest.approx(dense_principal_eigenvalue(pot), abs=1e-8)
    assert np.max(np.abs(pair.phi.values - 1.0)) < 1e-8
    assert pair.rayleigh_residual < 1e-12


def test_periodic_solver_matches_dense_solve():
    rng = np.random.default_rng(11)
    for m in (3, 8, 257):
        off = rng.uniform(-2.0, -0.5)
        main = 2.0 * abs(off) + rng.uniform(0.1, 3.0, m)
        A = np.diag(main) + off * (
            np.eye(m, k=1) + np.eye(m, k=-1) + np.eye(m, k=m - 1) + np.eye(m, k=1 - m)
        )
        rhs = rng.standard_normal(m)
        x = _periodic_solver(main, off)(rhs)
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
        assert pair.lam == pytest.approx(dense_principal_eigenvalue(pot), abs=1e-10)
        assert np.min(pair.phi.values) > 0.0
        assert pair.rayleigh_residual < 1e-12


def test_matches_dense_oracle_on_random_potentials():
    rng = np.random.default_rng(23)
    grid = Grid1D(-5.0, 5.0, 257)
    for _ in range(10):
        vals = rng.uniform(-1.0, 1.0, grid.n)
        vals[-1] = vals[0]
        pot = Potential(grid=grid, values=vals)
        pair = principal_eigenpair(pot)
        lam_dense = dense_principal_eigenvalue(pot)
        assert pair.lam == pytest.approx(lam_dense, abs=1e-9)


def test_shift_covariance():
    # V -> V + s shifts the whole spectrum by -s
    rng = np.random.default_rng(5)
    grid = Grid1D(-5.0, 5.0, 257)
    vals = rng.uniform(-0.5, 0.5, grid.n)
    vals[-1] = vals[0]
    base = Potential(grid=grid, values=vals)
    shifted = Potential(grid=grid, values=vals + 0.7)
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
    V = Potential(grid=grid, values=rng.standard_normal(grid.n))
    y, dx = vals[:-1], grid.dx
    assert np.array_equal(periodic_difference(y, np.empty(y.size)), np.roll(y, -1) - y)
    grad = (np.roll(y, -1) - y) / dx
    expected = (np.sum(grad**2) * dx - np.sum(V.values[:-1] * y**2) * dx) / (np.sum(y**2) * dx)
    assert rayleigh_quotient(Field(grid, vals), V) == expected


def test_rayleigh_quotient_rejects_bad_inputs():
    grid = Grid1D.from_spacing(-10.0, 10.0, 0.1)
    pot = constant_potential(grid, -0.3)
    with pytest.raises(ValueError):
        rayleigh_quotient(Field(grid, grid.x), pot)  # not periodic
    with pytest.raises(ValueError):
        rayleigh_quotient(Field(grid, np.zeros(grid.n)), pot)


def test_variational_principle():
    # lambda = min over psi of the Rayleigh quotient, exactly at the
    # discrete level; no random test function may dip below it
    rng = np.random.default_rng(31)
    grid = Grid1D(-5.0, 5.0, 129)
    vals = rng.uniform(-1.0, 1.0, grid.n)
    vals[-1] = vals[0]
    pot = Potential(grid=grid, values=vals)
    lam = principal_eigenpair(pot).lam
    assert lam == pytest.approx(dense_principal_eigenvalue(pot), abs=1e-8)
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
    assert lam == pytest.approx(dense_principal_eigenvalue(pot), abs=1e-8)
    assert rq >= lam


def test_transform_to_w(slab_neutral):
    prof = transform_to_w(slab_neutral)
    i0 = slab_neutral.u.grid.index_of(0.0)
    # at x = 0 the integrating factor is 1, so w(0) = u(0) = theta
    assert prof.w.values[i0] == pytest.approx(slab_neutral.config.theta, rel=1e-6)
    # w solves the transformed equation up to discretization error
    assert prof.residual < 10.0 * slab_neutral.config.dx**2
    assert np.all(prof.w.values >= 0.0)


def test_certificate_passes_in_slow_regime(slab_repulsive):
    report = slow_regime_certificate(slab_repulsive)
    assert report.applicable
    assert report.passed, report.to_dict()
    assert len(report.entries) == 3
    for entry in report.entries:
        assert entry["lambda"] >= -1e-8
        assert 0.0 < entry["phi0"] <= np.exp(report.a / 2.0)


def test_certificate_refuses_out_of_hypothesis():
    # strong coupling: |chi|(1/sigma + sigma^2) = 0.8 exceeds the gate
    config = SlabConfig(a=60.0, params=ChemoParams(-0.4, 1.0), spec=EXP)
    from chemofront.slab import SlabSolution, _seed_profile

    sol = SlabSolution(
        c=2.0,
        u=_seed_profile(config),
        residual=0.0,
        iterations=0,
        tau=1.0,
        converged=True,
        config=config,
    )
    report = slow_regime_certificate(sol)
    assert not report.applicable
    assert not report.passed
    assert "out of hypothesis" in report.reason


def test_eigenvalue_grid_convergence_is_second_order():
    lams = []
    for n in (201, 401, 801):
        grid = Grid1D(-10.0, 10.0, n)
        vals = -0.3 - 0.1 * np.cos(np.pi * grid.x / 10.0)
        pot = Potential(grid=grid, values=vals)
        lams.append(principal_eigenpair(pot).lam)
    ratio = (lams[0] - lams[1]) / (lams[1] - lams[2])
    assert 3.5 < ratio < 4.5


def test_stagnated_inverse_iteration_raises_linalg_error(monkeypatch):
    # a solve that returns its right-hand side never moves the iterate off the
    # constant vector, which is no eigenvector of a non-constant potential
    monkeypatch.setattr(spectral, "_periodic_solver", lambda main, off: lambda rhs: rhs.copy())
    grid = Grid1D(-5.0, 5.0, 129)
    V = Potential(grid=grid, values=np.cos(2.0 * np.pi * grid.x / 10.0))
    with pytest.raises(np.linalg.LinAlgError, match="stagnated"):
        principal_eigenpair(V)
