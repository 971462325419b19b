"""Finite-slab traveling-wave solver.

On [-a, a] with u(-a)=1, u(a)=0 and the normalization max_{x>=0} u = theta,
the pair (c, u) solves

    -c u_x + (v u)_x = u_xx + u(1-u),   v = chi K_sigma * u~,

where u~ is the profile extended by 1 on the left and 0 on the right.  The
speed-and-profile map S(c, u) = (c + theta - max_{x>=0} u, u_bar), with u_bar
the solution of the frozen-coefficient linear problem

    u_bar_xx + c u_bar_x - (v u_bar)_x = -u(1-u),   u_bar(-a)=1, u_bar(a)=0,

has the wave as its fixed point.  That fixed point is computed by one Newton
method on (u, c) jointly, with the normalization as the extra equation and the
nonlocal drift in the Jacobian.  The pure FKPP slab (tau = 0, coupling 0) is
solved first, once per grid and theta, from a sigmoid seed: it reads neither
chi nor the kernel.  The model (tau = 1) is then solved from its wave; at
chi = 0 the model is the FKPP slab, and its wave is the answer.  Both
stages are one procedure: full Newton steps while each lowers the max-norm
residual; if one does not, or the root is not positive, pseudo-transient
continuation from the same start (Kelley & Keyes 1998, SIAM J. Numer. Anal.
35:508): Newton steps on the pseudo-time flow u_t = F(u), whose steps keep
every positive interior value positive and only raise the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np

from .convolve import advection, drift_operator  # noqa: F401 - perfbench/spans.py binds slab.advection
from .evolver import sup_bound
from .grids import Field, Grid1D
from .kernels import ChemoParams, KernelSpec
from .lapack import gt_solver
from .reports import BoundsReport

NEWTON_TOL = 1e-10  # max-norm residual that ends a Newton solve
NEWTON_MAX_ITER = 80  # steps allowed per solve (the slowest pseudo-transient fallbacks take ~65)
PTC_DELTA0 = 0.1  # first pseudo-time step of the fallback
SHAPE_SLACK = 1e-6  # slack of slab_bounds_check's sup, monotonicity and lower-bound rows
# the coupled Newton step's Krylov solve: an inexact step, which the next Newton
# step absorbs
GMRES_RTOL = 1e-4  # ends the solve once ||b - J x|| <= GMRES_RTOL ||b||
GMRES_MAX_DIRECTIONS = 40  # Krylov directions allowed per solve, in one Arnoldi cycle


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
    dx: float = 0.05

    def __post_init__(self):
        if not 20.0 <= self.a < math.inf:
            raise ValueError(f"slab half-length a = {self.a} must be finite and at least 20")
        bound = theta_max(self.params)
        if not 0.0 < self.theta < bound:
            raise ValueError(f"theta must lie in (0, {bound:g}) for these parameters")
        grid = self.grid
        try:
            grid.index_of(0.0)
        except ValueError:
            raise ValueError(f"a = {self.a:g} is not a whole number of dx = {self.dx:g} steps") from None

    @cached_property
    def grid(self) -> Grid1D:
        """The slab grid: dx-spaced nodes on [-a, a], built once per config."""
        return Grid1D.from_spacing(-self.a, self.a, self.dx)


@dataclass
class SlabSolution:
    c: float
    u: Field
    residual: float
    iterations: int
    converged: bool
    config: SlabConfig
    tau_path: list[tuple[float, float]]  # (tau, c): the FKPP stage (0) and the model (1)


def _bands(c: float, v: np.ndarray, dx: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sub-, main and super-diagonal of u_xx + c u_x - (v u)_x with identity
    rows at both ends.

    The advective terms use centered differences too: the cell Peclet number
    is small in every supported regime, and first-order upwinding would bias
    the speed by c*dx/2.
    """
    lower = 1.0 / dx**2 - c / (2.0 * dx) + v[:-1] / (2.0 * dx)
    main = np.full(v.size, -2.0 / dx**2)
    upper = 1.0 / dx**2 + c / (2.0 * dx) - v[1:] / (2.0 * dx)
    lower[-1] = upper[0] = 0.0
    main[0] = main[-1] = 1.0
    return lower, main, upper


def _seed_profile(grid: Grid1D, theta: float) -> Field:
    """Decreasing sigmoid with value theta at x=0 and extensions (1, 0)."""
    t = grid.x - np.log(theta / (1.0 - theta))
    # where e^t would overflow, e^-t (the two agree to 1e-304 there); it
    # underflows to exactly 0 past t ~ 745, which the fallback's steps only raise
    vals = np.where(
        t <= 700.0, 1.0 / (1.0 + np.exp(np.minimum(t, 700.0))), np.exp(-np.maximum(t, 700.0))
    )
    vals[0], vals[-1] = 1.0, 0.0
    return Field(grid, vals, left_ext=1.0, right_ext=0.0)


def _bvp_residual(u: np.ndarray, c: float, v: np.ndarray, dx: float, pin: int, theta: float) -> np.ndarray:
    """The slab equations at (u, c) with frozen drift v, and the pin row u[pin] = theta."""
    F = np.empty(u.size + 1)
    F[1:-2] = (u[:-2] - 2.0 * u[1:-1] + u[2:]) / dx**2 + c * (u[2:] - u[:-2]) / (2.0 * dx)
    F[1:-2] -= (v[2:] * u[2:] - v[:-2] * u[:-2]) / (2.0 * dx)
    F[1:-2] += u[1:-1] * (1.0 - u[1:-1])
    F[0] = u[0] - 1.0
    F[-2] = u[-1]
    F[-1] = u[pin] - theta
    return F


def _gmres(apply, b: np.ndarray) -> np.ndarray:
    """GMRES for A M^-1 y = b from y = 0 in one Arnoldi cycle, returning the
    step M^-1 y.

    `apply(v)` returns the pair (A M^-1 v, M^-1 v) as new arrays; the first is
    orthogonalized in place.  As in flexible GMRES (Saad 1993), the
    preconditioned directions Z = M^-1 V are kept, so the step is Z y and
    costs no further M^-1; starting from zero, the first residual is b itself,
    not a product, and b is never zero here (`_newton` asks for a step only
    while max|F| >= NEWTON_TOL).  Each new column of the Hessenberg matrix is
    reduced by the Givens rotations so far and kept only as a column of their
    QR factor R.  The solve ends when the Givens estimate of ||b - A M^-1 y||
    falls to GMRES_RTOL ||b||, at happy breakdown (h_{j+1,j} = 0), or after
    GMRES_MAX_DIRECTIONS directions, with the least-squares y over the
    directions built: there is no restart, and the next Newton step absorbs
    an inexact step.
    """
    beta = np.sqrt(b @ b)
    target = GMRES_RTOL * beta
    V, Z = [b / beta], []
    R = np.zeros((GMRES_MAX_DIRECTIONS, GMRES_MAX_DIRECTIONS))
    rotations = []
    g = [beta]  # Q^T beta e1; |g[j+1]| is the residual norm after j+1 directions
    for j in range(GMRES_MAX_DIRECTIONS):
        w, z = apply(V[j])
        Z.append(z)
        col = []
        for v in V:  # modified Gram-Schmidt: column j of the Hessenberg matrix
            col.append(v @ w)
            w -= col[-1] * v
        h_next = np.sqrt(w @ w)
        col.append(h_next)
        for i, (cs, sn) in enumerate(rotations):
            col[i], col[i + 1] = cs * col[i] + sn * col[i + 1], cs * col[i + 1] - sn * col[i]
        rho = math.hypot(col[j], col[j + 1])
        cs, sn = col[j] / rho, col[j + 1] / rho
        rotations.append((cs, sn))
        R[:j, j] = col[:j]
        R[j, j] = rho
        g[j], g_next = cs * g[j], -sn * g[j]
        g.append(g_next)
        if h_next == 0.0 or abs(g_next) <= target:
            break
        V.append(w / h_next)
    coef = np.linalg.solve(R[: j + 1, : j + 1], g[: j + 1])
    return coef @ np.array(Z)


def _newton(
    u: np.ndarray, c: float, grid: Grid1D, theta: float, drift=None, delta: float = math.inf
) -> tuple[np.ndarray, float, float, int, bool]:
    """Newton on the slab equations on `grid` augmented with u[pin] = theta.

    Every step is a full step.  With delta = inf (plain Newton) the solve
    stops, unconverged, at the first step that does not lower the max-norm
    residual, and returns the iterate before it.

    The normalization is pinned at the running argmax of the right half, so
    at convergence max_{x>=0} u = theta to within the residual; pinning a
    profile value removes the near-singular translation mode that defeats
    plain iteration on u alone.  The Jacobian carries the nonlocal term
    -(u dv)_x with dv = chi K_sigma * du.  Its step is found by `_gmres`,
    right-preconditioned by the frozen-drift tridiagonal-plus-border matrix
    (Jacobian-free Newton-Krylov); without coupling that bordered solve is
    the whole step.  The residual of each step's result is the next
    iteration's, with its pin row recomputed.

    A finite `delta` makes the solve pseudo-transient continuation: the PDE
    rows get -1/delta on their diagonal (the boundary and pin rows stay
    algebraic, the DAE form of Coffey, Kelley & Keyes 2003), delta grows by
    switched evolution relaxation, delta <- delta ||F_prev|| / ||F||, and a
    step that raises the residual is kept.  A node the step lowers moves to
    u exp(du/u) instead of u + du, so a positive node stays positive (but
    for a value below the smallest double, which underflows to 0) and a zero
    or negative one is only raised.  With delta = inf the diagonal term is
    1/inf = 0 and the step is plain Newton.

    `drift(values, left_ext, right_ext)` is the coupling: chi K_sigma * the
    extended array, the frozen drift v = drift(u, 1, 0) and the Jacobian's
    dv = drift(du, 0, 0) (`fixed_point` binds one cached drift operator's
    `advection` to chi).  With drift None (the FKPP stage) the solve is
    uncoupled and makes no convolution.  A trial whose u or c is not finite
    is not evaluated: the solve ends unconverged and returns the last finite
    iterate and its residual.
    """
    n, dx, i0 = grid.n, grid.dx, grid.index_of(0.0)
    pseudo = delta < math.inf
    v = drift(u, 1.0, 0.0) if drift is not None else np.zeros(n)
    pin = i0 + int(np.argmax(u[i0:]))
    F = _bvp_residual(u, c, v, dx, pin, theta)
    for it in range(1, NEWTON_MAX_ITER + 1):
        nrm = float(np.max(np.abs(F)))
        if nrm < NEWTON_TOL:
            return u, c, nrm, it, True
        lower, main, upper = _bands(c, v, dx)
        main[1:-1] += 1.0 - 1.0 / delta - 2.0 * u[1:-1]
        solve = gt_solver(lower, main, upper)
        dFdc = np.zeros(n)
        dFdc[1:-1] = (u[2:] - u[:-2]) / (2.0 * dx)
        r2 = solve(dFdc)
        if r2[pin] == 0.0:
            break

        def bordered_solve(r: np.ndarray) -> np.ndarray:
            r1 = solve(r[:-1])  # in place, over all of r but its pin row
            dc = (r1[pin] - r[-1]) / r2[pin]
            return np.append(r1 - dc * r2, dc)

        if drift is not None:

            def preconditioned_jacobian(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
                z = bordered_solve(y.copy())  # y is a Krylov direction
                dv = drift(z[:-1], 0.0, 0.0)
                out = y.copy()
                out[1:-2] -= (u[2:] * dv[2:] - u[:-2] * dv[:-2]) / (2.0 * dx)
                return out, z

            step_vec = _gmres(preconditioned_jacobian, -F)
        else:
            step_vec = bordered_solve(-F)
        du, dc = step_vec[:-1], step_vec[-1]
        u_next, c_next = u + du, c + dc
        if pseudo:
            # a node at or below 0 (in the start, or underflowed by exp) can only be raised
            inner, d = u[1:-1], du[1:-1]
            ratio = np.divide(d, inner, out=np.zeros_like(d), where=(d < 0.0) & (inner > 0.0))
            u_next[1:-1] = inner * np.exp(ratio) + np.maximum(d, 0.0)
        if not (np.all(np.isfinite(u_next)) and math.isfinite(c_next)):
            break
        v_next = drift(u_next, 1.0, 0.0) if drift is not None else v
        F_next = _bvp_residual(u_next, c_next, v_next, dx, pin, theta)
        res_next = np.max(np.abs(F_next))
        if pseudo:
            delta *= nrm / res_next
        elif not res_next < nrm:
            return u, c, nrm, it, False
        u, c, v, F = u_next, c_next, v_next, F_next
        # the step's residual is the next one: only the pin row moves with the pin
        pin = i0 + int(np.argmax(u[i0:]))
        F[-1] = u[pin] - theta
    return u, c, float(np.max(np.abs(F))), it, False


def _positive_interior(u: np.ndarray) -> bool:
    return bool(np.min(u[1:-1]) > 0.0)


def _solve(
    u: np.ndarray, c: float, grid: Grid1D, theta: float, drift=None
) -> tuple[np.ndarray, float, float, int, bool]:
    """Plain Newton from (u, c); if it stops, or its root is not positive at
    every interior node, pseudo-transient continuation from the same start at
    pseudo-time step PTC_DELTA0.  The flag is True only for a converged root
    positive at every interior node."""
    u_end, c_end, residual, iterations, ok = _newton(u, c, grid, theta, drift)
    if not (ok and _positive_interior(u_end)):
        u_end, c_end, residual, more, ok = _newton(u, c, grid, theta, drift, delta=PTC_DELTA0)
        iterations += more
    return u_end, c_end, residual, iterations, ok and _positive_interior(u_end)


@lru_cache(maxsize=8)
def _fkpp_wave(grid: Grid1D, theta: float) -> tuple[np.ndarray, float, float, int, bool]:
    """The tau = 0 stage on a slab grid: the pure FKPP slab solved from the
    sigmoid seed.

    It reads neither chi, sigma nor the kernel, so every (chi, sigma) on one
    slab grid and theta shares this solve; the profile is returned read-only.
    """
    u, c, residual, iterations, ok = _solve(_seed_profile(grid, theta).values, 2.0, grid, theta)
    u.setflags(write=False)
    return u, c, residual, iterations, ok


def fixed_point(config: SlabConfig) -> SlabSolution:
    """Solve the slab problem at tau = 0 (the FKPP limit, shared by every call
    on the same slab grid through `_fkpp_wave`), then at tau = 1 (the model)
    from that wave, each stage by `_solve` on `config.grid`.

    The model stage's drift is the cached drift operator of
    (kernel, sigma, dx, n), fetched once and bound to chi.  At chi = 0 the
    model is the FKPP slab, so there is no model solve: the solution is a
    copy of the cached wave, its tau_path still ends at (1, c), and its
    iterations are the FKPP stage's alone.  On non-convergence the best
    iterate is returned flagged, not raised; so is a root that is not
    positive at every interior node (a sign-changing solution of the slab
    equations, not a wave).  A tau = 0 stage that fails is returned as it
    ends, with no tau = 1 entry.
    """
    grid, theta, chi = config.grid, config.theta, config.params.chi
    u, c, residual, total_iters, ok = _fkpp_wave(grid, theta)
    u = u.copy()  # the cached wave is read-only
    path = [(0.0, c)]
    if ok:
        if chi != 0.0:
            op = drift_operator(config.spec, config.params.sigma, grid.dx, grid.n)
            u, c, residual, iters, ok = _solve(u, c, grid, theta, partial(op.advection, chi=chi))
            total_iters += iters
        path.append((1.0, c))
    return SlabSolution(
        c=c,
        u=Field(grid, u, left_ext=1.0, right_ext=0.0),
        residual=residual,
        iterations=total_iters,
        converged=ok,
        config=config,
        tau_path=path,
    )


def slab_bounds_check(sol: SlabSolution) -> BoundsReport:
    """Shape checks on a converged slab profile."""
    u = sol.u
    grid = u.grid
    report = BoundsReport()

    bound = sup_bound(sol.config.params)
    sup = float(np.max(u.values))
    report.add("sup-bound", "profile-upper-bound", sup, bound, slack=SHAPE_SLACK)
    # u > 0 at every interior node, without slack: -min u <= -(smallest subnormal)
    report.add(
        "positivity",
        "positive-interior",
        -float(np.min(u.values[1:-1])),
        -np.finfo(float).smallest_subnormal,
    )

    i0 = grid.index_of(0.0)
    right_slopes = np.diff(u.values[i0:]) / grid.dx
    report.add(
        "right-monotonicity",
        "monotone-right-half",
        float(np.max(right_slopes, initial=-np.inf)),
        0.0,
        slack=SHAPE_SLACK,
    )

    left_min = float(np.min(u.values[: i0 + 1]))
    report.add(
        "left-lower-bound",
        "profile-above-theta-left",
        sol.config.theta - left_min,
        0.0,
        slack=SHAPE_SLACK,
    )

    edge = grid.x <= -sol.config.a + 5.0
    plateau = float(np.mean(u.values[edge]))
    report.add("left-plateau", "left-limit-one", abs(plateau - 1.0), 0.0, slack=0.05)
    return report
