"""Schroedinger-type analysis of slab waves.

From a converged slab pair (c, u) with drift v = chi K_sigma * u~, the change
of variables w = u exp{(c/2)x - (1/2) int_0^x v} leads to the periodic
eigenproblem -phi_xx - V phi = lambda phi on [-a, a] with

    V = -u - eps(1 + eps/4) + v(c/2 - v/4) + v_x/2,   eps = c - 2.

A nonnegative principal eigenvalue certifies that slow-regime waves cannot
travel faster than 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .convolve import advection, advection_gradient
from .grids import Field, Grid1D, periodic_difference
from .lapack import pt_solver, pttrf
from .slab import SlabSolution, _fkpp_wave

CERTIFICATE_GATE = 0.1  # largest |chi|(1/sigma + sigma^2) the certificate covers
CERTIFICATE_SPEEDS = (2.0, 2.01, 2.05)


def slow_predicate(chi: float, sigma: float) -> float:
    """The slow-regime hypothesis |chi|(1/sigma + sigma^2)."""
    return abs(chi) * (1.0 / sigma + sigma**2)


@dataclass
class EigenPair:
    lam: float
    phi: Field
    residual: float  # ||(-D2 - V) y - lam y|| for the unit iterate y
    iterations: int

    def phi_at(self, x: float) -> float:
        return float(self.phi.values[self.phi.grid.index_of(x)])


@dataclass
class TransformedProfile:
    w: Field
    residual: float


def check_test_speed(c: float) -> None:
    """Refuse a test speed that is not finite and at least 1.9 (nan included)."""
    if not 2.0 - 0.1 <= c < math.inf:
        raise ValueError(f"test speed c = {c} must be finite and at least 1.9")


def assemble_potential(u: Field, c: float, v: Field, vx: Field) -> Field:
    """Build V = -u - eps(1 + eps/4) + v(c/2 - v/4) + v_x/2 from profile, speed
    and drift."""
    if u.grid != v.grid or u.grid != vx.grid:
        raise ValueError("potential inputs must share a grid")
    check_test_speed(c)
    eps = c - 2.0
    vals = (
        -u.values
        - eps * (1.0 + eps / 4.0)
        + v.values * (c / 2.0 - v.values / 4.0)
        + vx.values / 2.0
    )
    return Field(u.grid, vals)


def _periodic_solver(main: np.ndarray, off: float):
    """Solve with the symmetric positive definite cyclic tridiagonal M (diagonal
    `main`, off-diagonals and corners `off`): M = T + gamma w w^T with
    w = e_0 + (off/gamma) e_{m-1} leaves T tridiagonal and, as gamma = -main[0] < 0,
    positive definite, so by Sherman-Morrison one LAPACK pttrf factorization of T
    serves every solve.  w has only two nonzero entries, so T and every product
    with w touch just the two corners.  M is positive definite exactly when T is
    and 1 + gamma w^T T^-1 w > 0; otherwise LinAlgError is raised."""
    gamma = -main[0]
    corner = off / gamma  # w's last entry
    t = main.copy()
    t[0] -= gamma
    t[-1] -= (gamma * corner) * corner
    solve = pt_solver(*pttrf(t, np.full(main.size - 1, off)))
    z = np.zeros(main.size)
    z[0], z[-1] = gamma, gamma * corner
    solve(z)  # T^-1 gamma w
    denominator = 1.0 + (z[0] + corner * z[-1])
    if not denominator > 0.0:
        raise np.linalg.LinAlgError("periodic matrix is not positive definite")
    z /= denominator

    def periodic_solve(rhs: np.ndarray) -> np.ndarray:
        y = solve(rhs.copy())
        return y - (y[0] + corner * y[-1]) * z

    return periodic_solve


def _quad_form(y: np.ndarray, V: Field, difference: np.ndarray) -> float:
    """y' A y for the periodic -D2 - V, by the difference form, which is exact
    on near-constant y where A @ y suffers cancellation; `difference` is
    scratch space of y's size."""
    grad = periodic_difference(y, difference)
    grad /= V.grid.dx
    return float(grad @ grad - (V.values[:-1] * y) @ y)


def principal_eigenpair(V: Field, start: Field | None = None) -> EigenPair:
    """Ground state of -d_xx - V with periodic wrap by shifted inverse iteration.

    Cold, the iteration starts from a constant with the shift at min(-V) - 1
    (keeping the matrix positive definite).  Given an approximate ground state
    as `start` (the eigenvector of a nearby potential), it starts from that
    vector with the shift just below its Rayleigh quotient on V; a start that
    is not positive everywhere is refused, since it can hold the shift between
    higher eigenvalues.
    Either way the shift is pulled toward the running Rayleigh quotient once
    the iterate settles, which restores fast convergence when the spectral gap
    is small.  Every shift must stay below lambda_0: the positive definite
    factorization is an exact inertia test, and a shift past lambda_0 raises
    LinAlgError, as does a result that changes sign.
    """
    dx = V.grid.dx
    main, off = 2.0 / dx**2 - V.values[:-1], -1.0 / dx**2  # -D2 - V, periodic nodes
    # the achievable residual scales with the matrix norm (~4/dx^2)
    anorm = 4.0 / dx**2 + float(np.max(np.abs(V.values)))
    stop = max(1e-11, 50.0 * np.finfo(float).eps * anorm)

    difference, neighbours = np.empty(main.size), np.empty(main.size)

    def residual(y: np.ndarray, lam: float) -> float:
        # y_{i-1} + y_{i+1} with periodic wrap
        np.add(y[:-2], y[2:], out=neighbours[1:-1])
        neighbours[0], neighbours[-1] = y[-1] + y[1], y[-2] + y[0]
        return float(np.linalg.norm(main * y + off * neighbours - lam * y))

    if start is None:
        shift = float(np.min(-V.values)) - 1.0
        x = np.full(main.size, 1.0 / np.sqrt(main.size))
    else:
        if start.grid != V.grid:
            raise ValueError("start vector and potential must share a grid")
        if np.min(start.values) <= 0.0:
            raise ValueError("start eigenvector must be positive")
        x = start.values[:-1] / np.linalg.norm(start.values[:-1])
        lam = _quad_form(x, V, difference)
        shift = lam - max(residual(x, lam), 1e-8)
    solve = _periodic_solver(main - shift, off)
    for iterations in range(1, 501):
        y = solve(x)
        y /= np.linalg.norm(y)
        lam = _quad_form(y, V, difference)
        res = residual(y, lam)
        x = y
        if res < stop:
            break
        # once roughly converged, chase the eigenvalue with the shift
        if res < 1e-2 and abs(lam - shift) > 10.0 * res:
            shift = lam - max(res, 1e-8)
            solve = _periodic_solver(main - shift, off)
    else:
        raise np.linalg.LinAlgError(f"inverse iteration stagnated (residual {res:.3e})")

    if np.min(x) <= 0.0:
        raise np.linalg.LinAlgError("principal eigenvector changed sign")
    phi = Field(V.grid, np.append(x, x[0]) / x[0])
    return EigenPair(lam=lam, phi=phi, residual=res, iterations=iterations)


def rayleigh_quotient(psi: Field, V: Field) -> float:
    """(int psi_x^2 - int V psi^2) / int psi^2 with periodic differences.

    The numerator is the eigensolver's own quadratic form, so the variational
    principle holds exactly at the discrete level.
    """
    if psi.grid != V.grid:
        raise ValueError("test function and potential must share a grid")
    if abs(psi.values[0] - psi.values[-1]) > 1e-10:
        raise ValueError("test function must be periodic")
    vals = psi.values[:-1]
    mass = float(vals @ vals)
    if mass * psi.grid.dx < 1e-14:
        raise ValueError("test function is numerically zero")
    return _quad_form(vals, V, np.empty(vals.size)) / mass


def tent_test_function(grid: Grid1D, a: float) -> Field:
    """Normalized tent supported on [a/2, a] with slope (96/a^3)^{1/2}."""
    A = (96.0 / a**3) ** 0.5
    x = grid.x
    vals = np.where(
        (x > a / 2.0) & (x <= 0.75 * a),
        A * (x - a / 2.0),
        np.where((x > 0.75 * a) & (x < a), A * a / 4.0 - A * (x - 0.75 * a), 0.0),
    )
    return Field(grid, vals)


def slab_drift(sol: SlabSolution) -> tuple[Field, Field]:
    """The drift v and its derivative v_x for a slab solution."""
    cfg = sol.config
    v = advection(sol.u, cfg.spec, cfg.params)
    vx = advection_gradient(sol.u, cfg.spec, cfg.params)
    return v, vx


def _exponent(c: float, v: Field) -> np.ndarray:
    """(c/2)x - (1/2) int_0^x v, the logarithm of the factor that takes u to w."""
    grid = v.grid
    vals = v.values
    integral = np.zeros(grid.n)
    np.cumsum(np.diff(grid.x) * (vals[1:] + vals[:-1]) / 2.0, out=integral[1:])  # trapezoid rule
    integral -= integral[grid.index_of(0.0)]
    return 0.5 * c * grid.x - 0.5 * integral


def transform_to_w(sol: SlabSolution) -> TransformedProfile:
    """w = u exp{(c/2)x - (1/2) int_0^x v}, with the equation residual.

    The exponent is accumulated before a single exponential, and refused
    above 700, so the factor e^{ca/2} stays finite.
    """
    if not sol.converged:
        raise ValueError("slab solution is not converged")
    v, vx = slab_drift(sol)
    grid = sol.u.grid
    exponent = _exponent(sol.c, v)
    if np.max(exponent) > 700.0:
        raise OverflowError("integrating factor overflows")
    w_vals = sol.u.values * np.exp(exponent)
    w = Field(grid, w_vals)

    pot = assemble_potential(sol.u, sol.c, v, vx)
    dx = grid.dx
    lap = (w_vals[:-2] - 2.0 * w_vals[1:-1] + w_vals[2:]) / dx**2
    raw = -lap - pot.values[1:-1] * w_vals[1:-1]
    scale = np.maximum.reduce([np.abs(w_vals[:-2]), np.abs(w_vals[1:-1]), np.abs(w_vals[2:])])
    scale = np.maximum(scale, sol.config.theta)
    residual = float(np.max(np.abs(raw) / scale))
    return TransformedProfile(w=w, residual=residual)


def _certificate_entries(u: Field, v: Field, vx: Field, start: Field | None) -> tuple[list[dict], Field]:
    """Principal eigenpairs over CERTIFICATE_SPEEDS for profile u with drift v,
    v_x, as entries, and the first test speed's eigenvector: that speed starts
    from `start` (cold when None), each later one from the previous
    eigenvector."""
    entries, pairs = [], []
    for c_test in CERTIFICATE_SPEEDS:
        pot = assemble_potential(u, c_test, v, vx)
        # neighbouring test speeds give nearby potentials: each pair starts the next
        pairs.append(principal_eigenpair(pot, start=pairs[-1].phi if pairs else start))
        entries.append({"c_test": c_test, "lambda": pairs[-1].lam, "phi0": pairs[-1].phi_at(0.0)})
    return entries, pairs[0].phi


@lru_cache(maxsize=8)
def _fkpp_certificate(grid: Grid1D, theta: float) -> tuple[np.ndarray, tuple]:
    """The certificate chain of the chi = 0 wave `slab._fkpp_wave(grid, theta)`,
    whose drift is exactly zero: its c_test = 2 ground state (V = -u, a cold
    solve) scaled to a largest value of 1 and read-only, and its entries as
    (key, value) tuples.

    They read neither sigma nor the kernel, so every certificate on one slab
    grid and theta shares these three eigensolves: a chi = 0 one takes the
    entries, any other starts from the ground state.
    """
    u = Field(grid, _fkpp_wave(grid, theta)[0])
    zero = Field(grid, np.zeros(grid.n))
    entries, phi = _certificate_entries(u, zero, zero, None)
    ground = phi.values / np.max(phi.values)
    ground.setflags(write=False)
    return ground, tuple(tuple(e.items()) for e in entries)


@dataclass
class CertificateReport:
    applicable: bool
    reason: str
    a: float
    entries: list[dict]

    @property
    def passed(self) -> bool:
        if not self.applicable:
            return False
        # phi0 <= e^{a/2} compared in logs: e^{a/2} overflows past a ~ 1419
        return all(
            e["lambda"] >= -1e-8 and math.log(e["phi0"]) <= self.a / 2.0 for e in self.entries
        )


def slow_regime_certificate(sol: SlabSolution) -> CertificateReport:
    """Numerical version of the speed-2 obstruction: for test speeds slightly
    above 2, the principal eigenvalue must be nonnegative and the
    eigenfunction controlled at the origin.

    Only applies when |chi|(1/sigma + sigma^2) <= CERTIFICATE_GATE and a >= 60.

    After the gate and the convergence refusal, a chi = 0 solution whose
    profile equals the slab grid's cached FKPP wave (`_fkpp_wave`) node for
    node, as every converged chi = 0 `fixed_point` result does (it is a copy
    of that wave), gets fresh copies of that wave's entries, cached per slab
    grid and theta with the wave's c_test = 2 ground state
    (`_fkpp_certificate`).  Any other solution is solved for: its first test
    speed starts from that ground state, each later one from the previous
    eigenvector.
    """
    config = sol.config
    params, a = config.params, config.a
    size = slow_predicate(params.chi, params.sigma)
    if size > CERTIFICATE_GATE or a < 60.0:
        return CertificateReport(
            applicable=False,
            reason=(
                f"out of hypothesis: |chi|(1/sigma + sigma^2) = {size:.3g} "
                f"(gate {CERTIFICATE_GATE}), a = {a}"
            ),
            a=a,
            entries=[],
        )
    if not sol.converged:
        return CertificateReport(
            applicable=False, reason="slab solution not converged", a=a, entries=[]
        )
    grid, theta = config.grid, config.theta
    ground, fkpp_entries = _fkpp_certificate(grid, theta)
    if params.chi == 0.0 and np.array_equal(sol.u.values, _fkpp_wave(grid, theta)[0]):
        entries = [dict(e) for e in fkpp_entries]
    else:
        # the chi = 0 wave's ground state is exact at chi = 0 and O(chi) off elsewhere
        entries, _ = _certificate_entries(sol.u, *slab_drift(sol), Field(grid, ground))
    return CertificateReport(applicable=True, reason="", a=a, entries=entries)
