"""Schroedinger-type analysis of slab waves.

From a converged slab pair (c, u) with drift v = chi K_sigma * u~, the change
of variables w = u exp{(c/2)x - (1/2) int_0^x v} leads to the periodic
eigenproblem -phi_xx - V phi = lambda phi on [-a, a] with

    V = -u - eps(1 + eps/4) + v(c/2 - v/4) + v_x/2,   eps = c - 2.

A nonnegative principal eigenvalue certifies that slow-regime waves cannot
travel faster than 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from .convolve import advection, advection_gradient
from .grids import Field, Grid1D, periodic_difference, tridiagonal_solver
from .slab import SlabSolution

CERTIFICATE_GATE = 0.1  # largest |chi|(1/sigma + sigma^2) the certificate covers
CERTIFICATE_SPEEDS = (2.0, 2.01, 2.05)


@dataclass
class Potential:
    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("potential must be finite")


@dataclass
class EigenPair:
    lam: float
    phi: Field
    rayleigh_residual: float

    def phi_at(self, x: float) -> float:
        return float(self.phi.values[self.phi.grid.index_of(x)])


@dataclass
class TransformedProfile:
    w: Field
    residual: float


def assemble_potential(u: Field, c: float, v: Field, vx: Field) -> Potential:
    """Build V = -u - eps(1 + eps/4) + v(c/2 - v/4) + v_x/2 from profile, speed
    and drift."""
    if u.grid != v.grid or u.grid != vx.grid:
        raise ValueError("potential inputs must share a grid")
    if c < 2.0 - 0.1:
        raise ValueError(f"speed c={c} below the supported range")
    eps = c - 2.0
    vals = (
        -u.values
        - eps * (1.0 + eps / 4.0)
        + v.values * (c / 2.0 - v.values / 4.0)
        + vx.values / 2.0
    )
    return Potential(u.grid, vals)


def _periodic_solver(main: np.ndarray, off: float):
    """Solve with the cyclic tridiagonal M (diagonal `main`, off-diagonals and corners
    `off`): M = T + gamma w w^T with w = e_0 + (off/gamma) e_{m-1} leaves T tridiagonal,
    so by Sherman-Morrison one LAPACK factorization of T serves every solve."""
    gamma = -main[0]
    w = np.zeros(main.size)
    w[0], w[-1] = 1.0, off / gamma
    offdiag = np.full(main.size - 1, off)
    solve = tridiagonal_solver(offdiag, main - gamma * w * w, offdiag)
    z = solve(gamma * w)
    z /= 1.0 + w @ z

    def periodic_solve(rhs: np.ndarray) -> np.ndarray:
        y = solve(rhs)
        return y - (w @ y) * z

    return periodic_solve


def dense_principal_eigenvalue(V: Potential) -> float:
    """Smallest eigenvalue by a dense symmetric solve (the tests' oracle)."""
    dx, m = V.grid.dx, V.grid.n - 1
    ring = np.roll(np.eye(m), 1, axis=1)  # superdiagonal plus the periodic corner
    A = np.diag(2.0 / dx**2 - V.values[:m]) - (ring + ring.T) / dx**2
    return float(eigh(A, eigvals_only=True, subset_by_index=(0, 0))[0])


def principal_eigenpair(V: Potential) -> EigenPair:
    """Ground state of -d_xx - V with periodic wrap by shifted inverse iteration.

    The shift starts at min(-V) - 1 (keeping the matrix positive definite) and
    is pulled toward the running Rayleigh quotient once the iterate settles,
    which restores fast convergence when the spectral gap is small.
    """
    dx = V.grid.dx
    main, off = 2.0 / dx**2 - V.values[:-1], -1.0 / dx**2  # -D2 - V, periodic nodes
    shift = float(np.min(-V.values)) - 1.0
    # the achievable residual scales with the matrix norm (~4/dx^2)
    anorm = 4.0 / dx**2 + float(np.max(np.abs(V.values)))
    stop = max(1e-11, 50.0 * np.finfo(float).eps * anorm)

    difference, neighbours = np.empty(main.size), np.empty(main.size)

    def quad_form(y: np.ndarray) -> float:
        # y' A y for unit y via the difference form, which is exact on
        # near-constant eigenvectors where A @ y suffers cancellation
        grad = periodic_difference(y, difference)
        grad /= dx
        return float(grad @ grad - (V.values[:-1] * y) @ y)

    solve = _periodic_solver(main - shift, off)
    x = np.full(main.size, 1.0 / np.sqrt(main.size))
    for _ in range(500):
        y = solve(x)
        y /= np.linalg.norm(y)
        lam = quad_form(y)
        # y_{i-1} + y_{i+1} with periodic wrap
        np.add(y[:-2], y[2:], out=neighbours[1:-1])
        neighbours[0], neighbours[-1] = y[-1] + y[1], y[-2] + y[0]
        res = float(np.linalg.norm(main * y + off * neighbours - lam * y))
        x = y
        if res < stop:
            break
        # once roughly converged, chase the eigenvalue with the shift
        if res < 1e-2 and abs(lam - shift) > 10.0 * res:
            shift = lam - max(res, 1e-8)
            solve = _periodic_solver(main - shift, off)
    else:
        raise np.linalg.LinAlgError(f"inverse iteration stagnated (residual {res:.3e})")

    if x.sum() < 0:
        x = -x
    if np.min(x) <= 0.0:
        raise np.linalg.LinAlgError("principal eigenvector changed sign")
    phi = Field(V.grid, np.append(x, x[0]) / x[0])
    rq = rayleigh_quotient(phi, V)
    return EigenPair(lam=lam, phi=phi, rayleigh_residual=abs(rq - lam))


def rayleigh_quotient(psi: Field, V: Potential) -> float:
    """(int psi_x^2 - int V psi^2) / int psi^2 with periodic differences.

    The discrete form equals the quadratic form of the eigenproblem matrix, so
    the variational principle holds exactly at the discrete level.
    """
    if psi.grid != V.grid:
        raise ValueError("test function and potential must share a grid")
    if abs(psi.values[0] - psi.values[-1]) > 1e-10:
        raise ValueError("test function must be periodic")
    vals = psi.values[:-1]
    dx = psi.grid.dx
    mass = float(np.sum(vals**2)) * dx
    if mass < 1e-14:
        raise ValueError("test function is numerically zero")
    grad = periodic_difference(vals, np.empty(vals.size)) / dx
    kinetic = float(np.sum(grad**2)) * dx
    potential = float(np.sum(V.values[:-1] * vals**2)) * dx
    return (kinetic - potential) / mass


def tent_test_function(grid: Grid1D, a: float | None = None) -> Field:
    """Normalized tent supported on [a/2, a] with slope (96/a^3)^{1/2}."""
    if a is None:
        a = grid.x_max
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


def transform_to_w(sol: SlabSolution) -> TransformedProfile:
    """w = u exp{(c/2)x - (1/2) int_0^x v}, with the equation residual.

    The exponent is accumulated before a single exponential, and refused
    above 700, so the factor e^{ca/2} stays finite.
    """
    if not sol.converged:
        raise ValueError("slab solution is not converged")
    v, vx = slab_drift(sol)
    grid = sol.u.grid
    i0 = grid.index_of(0.0)
    vals = v.values
    integral = np.zeros(grid.n)
    np.cumsum(np.diff(grid.x) * (vals[1:] + vals[:-1]) / 2.0, out=integral[1:])  # trapezoid rule
    integral -= integral[i0]
    exponent = 0.5 * sol.c * grid.x - 0.5 * integral
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
        return all(e["lambda"] >= -1e-8 and e["phi0"] <= np.exp(self.a / 2.0) for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "applicable": self.applicable,
            "reason": self.reason,
            "a": self.a,
            "entries": self.entries,
            "passed": self.passed,
        }


def slow_regime_certificate(sol: SlabSolution) -> CertificateReport:
    """Numerical version of the speed-2 obstruction: for test speeds slightly
    above 2, the principal eigenvalue must be nonnegative and the
    eigenfunction controlled at the origin.

    Only applies when |chi|(1/sigma + sigma^2) <= CERTIFICATE_GATE and a >= 60.
    """
    params = sol.config.params
    a = sol.config.a
    size = abs(params.chi) * (1.0 / params.sigma + params.sigma**2)
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
    if not sol.converged or abs(sol.tau - 1.0) > 1e-9:
        return CertificateReport(
            applicable=False, reason="slab solution not converged at tau=1", a=a, entries=[]
        )
    v, vx = slab_drift(sol)
    entries = []
    for c_test in CERTIFICATE_SPEEDS:
        pot = assemble_potential(sol.u, c_test, v, vx)
        pair = principal_eigenpair(pot)
        entries.append(
            {"c_test": c_test, "lambda": pair.lam, "phi0": pair.phi_at(0.0)}
        )
    return CertificateReport(applicable=True, reason="", a=a, entries=entries)
