"""IMEX time stepper for u_t + (vu)_x = u_xx + u(1-u) with v = chi K_sigma * u.

Diffusion is treated implicitly (second-order centered, prefactored tridiagonal
solve), the logistic reaction and the upwinded advective flux explicitly.
Boundary nodes are held at the Dirichlet values given by the field extensions,
which also feed the nonlocal convolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import diags
from scipy.sparse.linalg import splu

from .convolve import advection
from .grids import Field, Grid1D, smoothed_step_field
from .kernels import ChemoParams, KernelSpec


class BlowUpError(RuntimeError):
    """The solution exceeded ten times its a-priori sup bound."""


def sup_bound(params: ChemoParams) -> float:
    """A-priori upper bound max{1, (1 - chi/sigma)^(-1)} on the profile."""
    return max(1.0, 1.0 / (1.0 - params.chi / params.sigma))


@dataclass
class EvolveConfig:
    grid: Grid1D
    dt: float
    t_max: float
    snapshot_every: float
    params: ChemoParams
    spec: KernelSpec
    initial: Field | None = None  # default: smoothed step of width 2
    track_level: float = 0.5
    front_margin: float | None = None  # default: min(2 sigma, 20% of domain)
    method: str = "auto"

    def __post_init__(self):
        if self.t_max <= 0:
            raise ValueError("t_max must be positive")
        if self.dt <= 0 or self.dt > self.grid.dx**2 / 4.0:
            raise ValueError(
                f"dt={self.dt} outside stability budget (0, dx^2/4 = {self.grid.dx**2 / 4.0}]"
            )
        if self.snapshot_every <= 0:
            raise ValueError("snapshot_every must be positive")
        if not 0.0 < self.track_level < 1.0:
            raise ValueError("track_level must lie in (0, 1)")
        if self.front_margin is None:
            length = self.grid.x_max - self.grid.x_min
            self.front_margin = min(2.0 * self.params.sigma, 0.2 * length)

    def initial_field(self) -> Field:
        if self.initial is None:
            return smoothed_step_field(self.grid)
        if self.initial.grid != self.grid:
            raise ValueError("initial field lives on a different grid")
        return self.initial


@dataclass
class Trajectory:
    snapshots: list[tuple[float, Field]]
    front_positions: list[tuple[float, float]]
    clipped_mass: float = 0.0
    abort_reason: str | None = None
    config: EvolveConfig | None = None

    def times(self) -> np.ndarray:
        return np.array([t for t, _ in self.snapshots])

    def final(self) -> Field:
        return self.snapshots[-1][1]


@dataclass(frozen=True)
class SpeedEstimate:
    c: float
    method: str
    window: tuple[float, float]
    stderr: float


def level_crossing(u: Field, level: float) -> float | None:
    """Largest x with u(x) >= level, linearly interpolated between nodes."""
    vals = u.values
    above = np.nonzero(vals >= level)[0]
    if above.size == 0:
        return None
    i = above[-1]
    x = u.grid.x
    if i == u.grid.n - 1:
        return float(x[-1])
    # interpolate within [x_i, x_{i+1}] where u drops through the level
    frac = (vals[i] - level) / (vals[i] - vals[i + 1])
    return float(x[i] + frac * u.grid.dx)


def _diffusion_solver(grid: Grid1D, dt: float):
    """Prefactored (I - dt D2) with identity rows at the Dirichlet boundaries."""
    n, dx = grid.n, grid.dx
    main = np.full(n, 1.0 + 2.0 * dt / dx**2)
    off = np.full(n - 1, -dt / dx**2)
    main[0] = main[-1] = 1.0
    off_lo = off.copy()
    off_hi = off.copy()
    off_lo[-1] = 0.0  # row n-1
    off_hi[0] = 0.0  # row 0
    mat = diags([off_lo, main, off_hi], [-1, 0, 1], format="csc")
    return splu(mat)


def _advective_divergence(u: Field, v: np.ndarray, dx: float) -> np.ndarray:
    """d(vu)/dx at interior nodes by first-order upwinding at cell faces."""
    # face velocities between consecutive nodes
    v_face = 0.5 * (v[:-1] + v[1:])
    upwind = np.where(v_face >= 0.0, u.values[:-1], u.values[1:])
    flux = v_face * upwind
    div = np.zeros_like(u.values)
    div[1:-1] = (flux[1:] - flux[:-1]) / dx
    return div


def evolve(config: EvolveConfig) -> Trajectory:
    """Advance the profile to t_max, streaming periodic snapshots.

    The run aborts (returning the partial trajectory with ``abort_reason`` set)
    if the tracked front comes within ``front_margin`` of the right boundary,
    so the profile never feels the constant right extension.
    """
    grid, dt = config.grid, config.dt
    u = config.initial_field()
    u = u.with_values(u.values.copy())  # the caller's initial field is left as given
    u.values[0] = u.left_ext
    u.values[-1] = u.right_ext
    solver = _diffusion_solver(grid, dt)
    bound = sup_bound(config.params)
    n_steps = int(round(config.t_max / dt))
    snap_stride = max(1, int(round(config.snapshot_every / dt)))
    chi_zero = config.params.chi == 0.0

    traj = Trajectory(snapshots=[], front_positions=[], config=config)

    def record(t: float) -> bool:
        traj.snapshots.append((t, u.with_values(u.values.copy())))
        pos = level_crossing(u, config.track_level)
        if pos is not None:
            traj.front_positions.append((t, pos))
            if grid.x_max - pos < config.front_margin:
                traj.abort_reason = (
                    f"front at x={pos:.3f} entered the safety margin "
                    f"({config.front_margin:g}) at t={t:.4f}"
                )
                return False
        return True

    if not record(0.0):
        return traj

    for step in range(1, n_steps + 1):
        if chi_zero:
            adv = 0.0
        else:
            v = advection(u, config.spec, config.params, method=config.method).values
            adv = _advective_divergence(u, v, grid.dx)
        rhs = u.values + dt * (u.values * (1.0 - u.values) - adv)
        rhs[0] = u.left_ext
        rhs[-1] = u.right_ext
        new = solver.solve(rhs)
        negative = new < 0.0
        if np.any(negative):
            traj.clipped_mass += float(-new[negative].sum()) * grid.dx
            new[negative] = 0.0
        u.values = new
        if np.max(new) > 10.0 * bound:
            raise BlowUpError(
                f"max u = {np.max(new):.3g} exceeds 10x the a-priori bound {bound:.3g}"
            )
        if step % snap_stride == 0 or step == n_steps:
            if not record(step * dt):
                return traj
    return traj


def measure_speed(
    traj: Trajectory, level: float = 0.5, window_fraction: float = 0.5
) -> SpeedEstimate:
    """Least-squares front speed from level-crossing positions vs time.

    The fit uses the last ``window_fraction`` of the trajectory, where the
    transient from the initial datum has decayed.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    pts = []
    for t, snap in traj.snapshots:
        pos = level_crossing(snap, level)
        if pos is not None:
            pts.append((t, pos))
    if not pts:
        raise ValueError(f"level {level} never attained")
    times = np.array([p[0] for p in pts])
    positions = np.array([p[1] for p in pts])
    t_end = times[-1]
    t_start = t_end - window_fraction * (t_end - times[0])
    mask = times >= t_start
    if mask.sum() < 5:
        raise ValueError("fewer than 5 snapshots in the fit window")
    t_fit, x_fit = times[mask], positions[mask]
    coeffs, cov = np.polyfit(t_fit, x_fit, 1, cov=True)
    return SpeedEstimate(
        c=float(coeffs[0]),
        method="level-set fit",
        window=(float(t_fit[0]), float(t_fit[-1])),
        stderr=float(np.sqrt(cov[0, 0])),
    )


def speed_from_integral(u: Field) -> float:
    """integral of u(1-u): equals the wave speed for a steady profile in the
    moving frame connecting 1 to 0.  The constant tails contribute nothing."""
    if (u.left_ext, u.right_ext) not in {(1.0, 0.0), (0.0, 0.0), (0.0, 1.0), (1.0, 1.0)}:
        raise ValueError("extensions must be 0 or 1 for the integral identity")
    return float(u.grid.dx * np.sum(u.values * (1.0 - u.values)))
