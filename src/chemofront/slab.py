"""Finite-slab traveling-wave solver.

On [-a, a] with u(-a)=1, u(a)=0 and the normalization max_{x>=0} u = theta,
the pair (c, u) solves

    -c u_x + tau (v u)_x = u_xx + u(1-u),   v = chi K_sigma * u~,

where u~ is the profile extended by 1 on the left and 0 on the right.  The
speed-and-profile map S_tau(c, u) = (c + theta - max_{x>=0} u, u_bar), with
u_bar the solution of the frozen-coefficient linear problem, has the wave as
its fixed point.  That fixed point is computed by one Newton method on (u, c)
jointly, with the normalization as the extra equation and the nonlocal drift
in the Jacobian, and with homotopy continuation in tau from 0 (pure FKPP
slab) to the target.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs
from scipy.sparse.linalg import LinearOperator, gmres

from .convolve import advection
from .evolver import sup_bound
from .grids import Field, Grid1D
from .kernels import ChemoParams, KernelSpec
from .reports import BoundsReport


def theta_max(params: ChemoParams) -> float:
    """Largest admissible normalization value for the given parameters."""
    ratio = abs(params.chi) / params.sigma
    return min(0.01, (1.0 - 2.0 * ratio) / (1.0 + ratio))


@dataclass(frozen=True)
class SlabConfig:
    a: float
    params: ChemoParams
    spec: KernelSpec
    theta: float = 0.005
    tau: float = 1.0
    dx: float = 0.05
    tol: float = 1e-10
    max_iter: int = 40

    def __post_init__(self):
        if self.a < 20:
            raise ValueError("slab half-length a must be at least 20")
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError("tau must lie in [0, 1]")
        bound = theta_max(self.params)
        if not 0.0 < self.theta < bound:
            raise ValueError(f"theta must lie in (0, {bound:g}) for these parameters")

    @property
    def grid(self) -> Grid1D:
        return Grid1D.from_spacing(-self.a, self.a, self.dx)


@dataclass
class SlabSolution:
    c: float
    u: Field
    residual: float
    iterations: int
    tau: float
    converged: bool
    config: SlabConfig
    tau_path: list[tuple[float, float]] | None = None  # (tau, c) along continuation


def _refined_max(vals: np.ndarray) -> float:
    """Discrete max with parabolic refinement over the three nearest samples."""
    i = int(np.argmax(vals))
    if i == 0 or i == vals.size - 1:
        return float(vals[i])
    y0, y1, y2 = vals[i - 1], vals[i], vals[i + 1]
    denom = y0 - 2.0 * y1 + y2
    if denom >= 0.0:  # flat or non-concave: keep the sample value
        return float(y1)
    delta = 0.5 * (y0 - y2) / denom
    return float(y1 - 0.25 * (y0 - y2) * delta)


def max_right_half(u: Field) -> float:
    """max_{x >= 0} u with sub-grid parabolic refinement."""
    i0 = u.grid.index_of(0.0)
    return _refined_max(u.values[i0:])


def _frozen_advection(u_vals: np.ndarray, config: SlabConfig, tau: float) -> np.ndarray:
    if tau == 0.0 or config.params.chi == 0.0:
        return np.zeros_like(u_vals)
    field = Field(config.grid, u_vals, left_ext=1.0, right_ext=0.0)
    return advection(field, config.spec, config.params).values


def _bands(c: float, tv: np.ndarray, dx: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sub-, main and super-diagonal of u_xx + c u_x - (tv u)_x with identity
    rows at both ends (centered differences)."""
    lower = 1.0 / dx**2 - c / (2.0 * dx) + tv[:-1] / (2.0 * dx)
    main = np.full(tv.size, -2.0 / dx**2)
    upper = 1.0 / dx**2 + c / (2.0 * dx) - tv[1:] / (2.0 * dx)
    lower[-1] = upper[0] = 0.0
    main[0] = main[-1] = 1.0
    return lower, main, upper


def _tridiagonal_solver(lower: np.ndarray, main: np.ndarray, upper: np.ndarray):
    """Factor a tridiagonal matrix once (LAPACK gttrf); returns its solve."""
    *factors, info = dgttrf(lower, main, upper)
    if info != 0:
        raise np.linalg.LinAlgError("singular slab system")
    return lambda rhs: dgttrs(*factors, rhs)[0]


def solve_linear_bvp(c: float, u_prev: Field, config: SlabConfig) -> Field:
    """One linear slab solve with frozen advection v = chi K_sigma * u_prev.

    Centered second differences throughout; the advective terms use centered
    first differences (the cell Peclet number is small in every supported
    regime, and first-order upwinding would bias the speed by c*dx/2).
    """
    if (u_prev.left_ext, u_prev.right_ext) != (1.0, 0.0):
        raise ValueError("u_prev must carry extensions (1, 0)")
    grid = config.grid
    tv = config.tau * _frozen_advection(u_prev.values, config, config.tau)
    # rows: u_xx + c u_x - tau (v u)_x = -f, Dirichlet rows at both ends
    rhs = -u_prev.values * (1.0 - u_prev.values)
    rhs[0] = 1.0
    rhs[-1] = 0.0
    sol = _tridiagonal_solver(*_bands(c, tv, grid.dx))(rhs)
    if not np.all(np.isfinite(sol)):
        raise np.linalg.LinAlgError("singular or ill-conditioned slab system")
    sol[0], sol[-1] = 1.0, 0.0  # pivoting can smear the identity boundary rows
    return Field(grid, sol, left_ext=1.0, right_ext=0.0)


def _seed_profile(config: SlabConfig) -> Field:
    """Decreasing sigmoid with value theta at x=0 and extensions (1, 0)."""
    grid = config.grid
    shift = np.log(config.theta / (1.0 - config.theta))
    vals = 1.0 / (1.0 + np.exp(grid.x - shift))
    vals[0], vals[-1] = 1.0, 0.0
    return Field(grid, vals, left_ext=1.0, right_ext=0.0)


def _bvp_residual(u: np.ndarray, c: float, v: np.ndarray, tau: float, config: SlabConfig, pin: int) -> np.ndarray:
    n, dx = config.grid.n, config.dx
    F = np.empty(n + 1)
    F[1:-2] = (u[:-2] - 2.0 * u[1:-1] + u[2:]) / dx**2 + c * (u[2:] - u[:-2]) / (2.0 * dx)
    if tau != 0.0:
        F[1:-2] -= tau * (v[2:] * u[2:] - v[:-2] * u[:-2]) / (2.0 * dx)
    F[1:-2] += u[1:-1] * (1.0 - u[1:-1])
    F[0] = u[0] - 1.0
    F[-2] = u[-1]
    F[-1] = u[pin] - config.theta
    return F


def _newton(
    u: np.ndarray, c: float, tau: float, config: SlabConfig
) -> tuple[np.ndarray, float, float, int, bool]:
    """Newton on the slab equations augmented with u[pin] = theta, at one tau.

    The normalization is pinned at the running argmax of the right half;
    pinning a profile value removes the near-singular translation mode that
    defeats plain iteration on u alone.  The Jacobian carries the nonlocal
    term -tau (u dv)_x with dv = chi K_sigma * du.  Its step is found by
    GMRES, right-preconditioned by the frozen-drift tridiagonal-plus-border
    matrix (Jacobian-free Newton-Krylov); without coupling that bordered
    solve is the whole step.
    """
    grid = config.grid
    n, dx = grid.n, grid.dx
    i0 = grid.index_of(0.0)
    coupled = tau != 0.0 and config.params.chi != 0.0
    v = _frozen_advection(u, config, tau)
    for it in range(1, config.max_iter + 1):
        pin = i0 + int(np.argmax(u[i0:]))
        F = _bvp_residual(u, c, v, tau, config, pin)
        nrm = float(np.max(np.abs(F)))
        if nrm < config.tol:
            return u, c, nrm, it, True
        lower, main, upper = _bands(c, tau * v, dx)
        main[1:-1] += 1.0 - 2.0 * u[1:-1]
        solve = _tridiagonal_solver(lower, main, upper)
        dFdc = np.zeros(n)
        dFdc[1:-1] = (u[2:] - u[:-2]) / (2.0 * dx)
        r2 = solve(dFdc)
        if r2[pin] == 0.0:
            break

        def bordered_solve(r: np.ndarray) -> np.ndarray:
            r1 = solve(r[:-1])
            dc = (r1[pin] - r[-1]) / r2[pin]
            return np.append(r1 - dc * r2, dc)

        if coupled:

            def preconditioned_jacobian(y: np.ndarray) -> np.ndarray:
                du = bordered_solve(y)[:-1]
                dv = advection(Field(grid, du), config.spec, config.params).values
                out = y.copy()
                out[1:-2] -= tau * (u[2:] * dv[2:] - u[:-2] * dv[:-2]) / (2.0 * dx)
                return out

            op = LinearOperator((n + 1, n + 1), matvec=preconditioned_jacobian, dtype=float)
            # an inexact step: the line search and the next Newton step absorb it
            y, _ = gmres(op, -F, rtol=1e-4, restart=40, maxiter=5)
            step_vec = bordered_solve(y)
        else:
            step_vec = bordered_solve(-F)
        du, dc = step_vec[:-1], step_vec[-1]
        step = 1.0
        while True:
            u_trial, c_trial = u + step * du, c + step * dc
            v_trial = _frozen_advection(u_trial, config, tau)
            trial = np.max(np.abs(_bvp_residual(u_trial, c_trial, v_trial, tau, config, pin)))
            if trial < nrm or step <= 1e-8:
                break
            step *= 0.5
        u, c, v = u_trial, c_trial, v_trial
    return u, c, float(np.max(np.abs(_bvp_residual(u, c, v, tau, config, pin)))), it, False


def fixed_point(config: SlabConfig, seed: SlabSolution | None = None) -> SlabSolution:
    """Solve the slab problem with tau-continuation from the FKPP limit.

    Continues tau upward in increments of 0.1 from 0 to ``config.tau``,
    reusing each converged pair as the next seed.  On non-convergence the best
    iterate is returned flagged, not raised.
    """
    if seed is not None:
        c, u = seed.c, seed.u.values.copy()
    else:
        c, u = 2.0, _seed_profile(config).values.copy()
    taus = [0.0]
    while taus[-1] < config.tau - 1e-12:
        taus.append(min(config.tau, 0.1 * len(taus)))
    path = []
    total_iters = 0
    residual, ok, tau = np.inf, False, 0.0
    for tau in taus:
        u, c, residual, iters, ok = _newton(u, c, tau, config)
        total_iters += iters
        path.append((tau, c))
        if not ok:
            break
    field = Field(config.grid, u, left_ext=1.0, right_ext=0.0)
    norm_gap = abs(max_right_half(field) - config.theta)
    return SlabSolution(
        c=c,
        u=field,
        residual=max(residual, norm_gap),
        iterations=total_iters,
        tau=tau,
        converged=ok,
        config=config,
        tau_path=path,
    )


def continue_in_a(config: SlabConfig, a_list: list[float]) -> list[SlabSolution]:
    """Solve at each half-length in ``a_list``, seeding from the previous profile.

    The previous solution is resampled onto the wider grid, continued by its
    boundary values outside the old slab.
    """
    if list(a_list) != sorted(a_list) or len(set(a_list)) != len(a_list):
        raise ValueError("a_list must be strictly increasing")
    solutions: list[SlabSolution] = []
    seed = None
    for a in a_list:
        cfg = replace(config, a=a)
        if seed is not None:
            grid = cfg.grid
            vals = np.interp(grid.x, seed.u.grid.x, seed.u.values, left=1.0, right=0.0)
            vals[0], vals[-1] = 1.0, 0.0
            seed = replace(seed, u=Field(grid, vals, left_ext=1.0, right_ext=0.0), config=cfg)
        sol = fixed_point(cfg, seed=seed)
        if not sol.converged:
            raise RuntimeError(f"slab solve at a={a} did not converge")
        solutions.append(sol)
        seed = sol
    return solutions


def slab_bounds_check(sol: SlabSolution, tol: float = 1e-6) -> BoundsReport:
    """Shape checks on a converged slab profile."""
    u = sol.u
    grid = u.grid
    report = BoundsReport()

    bound = sup_bound(sol.config.params)
    report.add("sup-bound", "profile-upper-bound", float(np.max(u.values)), bound, slack=tol)

    i0 = grid.index_of(0.0)
    right_slopes = np.diff(u.values[i0:]) / grid.dx
    report.add(
        "right-monotonicity",
        "monotone-right-half",
        float(np.max(right_slopes, initial=-np.inf)),
        0.0,
        slack=tol,
    )

    left_min = float(np.min(u.values[: i0 + 1]))
    report.add(
        "left-lower-bound",
        "profile-above-theta-left",
        sol.config.theta - left_min,
        0.0,
        slack=tol,
    )

    edge = grid.x <= -sol.config.a + 5.0
    plateau = float(np.mean(u.values[edge]))
    report.add("left-plateau", "left-limit-one", abs(plateau - 1.0), 0.0, slack=0.05)
    return report
