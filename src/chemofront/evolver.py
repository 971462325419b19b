"""IMEX time stepper for u_t + (vu)_x = u_xx + u(1-u) with v = chi K_sigma * u.

Diffusion is treated implicitly (second-order centered, the symmetric positive
definite interior matrix factored by LAPACK), the logistic reaction and the
upwinded advective flux explicitly; the drift comes from one convolution
operator per active grid size.  Boundary nodes are held at the Dirichlet
values given by the field extensions, which also feed the nonlocal
convolution.  Ahead of the front, where the profile is still exactly zero,
no work is done: a step advances only the nodes the front has reached plus a
guard in which anything the implicit solve carries further underflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convolve import advection, drift_operator  # noqa: F401 - perfbench/spans.py binds evolver.advection
from .grids import Field, Grid1D, smoothed_step_field
from .kernels import ChemoParams, KernelSpec
from .lapack import dpttrf, dpttrs


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

    def __post_init__(self):
        if not 0.0 < self.t_max < math.inf:
            raise ValueError(f"t_max = {self.t_max} must be positive and finite")
        if not 0.0 < self.dt <= self.grid.dx**2 / 4.0:
            raise ValueError(
                f"dt={self.dt} outside stability budget (0, dx^2/4 = {self.grid.dx**2 / 4.0}]"
            )
        if not 0.0 < self.snapshot_every < math.inf:
            raise ValueError(f"snapshot_every = {self.snapshot_every} must be positive and finite")
        if not 0.0 < self.track_level < 1.0:
            raise ValueError("track_level must lie in (0, 1)")

    @property
    def front_margin(self) -> float:
        """Distance from the right boundary at which a run aborts:
        min(2 sigma, 20% of the domain)."""
        return min(2.0 * self.params.sigma, 0.2 * (self.grid.x_max - self.grid.x_min))

    def initial_field(self) -> Field:
        if self.initial is None:
            return smoothed_step_field(self.grid)
        if self.initial.grid != self.grid:
            raise ValueError("initial field lives on a different grid")
        return self.initial


@dataclass
class Trajectory:
    snapshots: list[tuple[float, Field]]  # the latest (t, profile) only
    front_positions: list[tuple[float, float]]  # (t, x) at the tracked level
    clipped_mass: float = 0.0
    abort_reason: str | None = None
    config: EvolveConfig | None = None

    def final(self) -> Field:
        return self.snapshots[-1][1]


@dataclass(frozen=True)
class SpeedEstimate:
    c: float
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


def _diffusion_solver(n: int, a: float):
    """Solve (I - a D2) u = rhs on n nodes with u_0 = rhs_0, u_{n-1} = rhs_{n-1}.

    The Dirichlet rows are eliminated into the first and last interior
    right-hand sides; the remaining matrix is symmetric positive definite and
    factored once (LAPACK pttrf).  The returned solve overwrites ``rhs``.
    """
    d, e, info = dpttrf(np.full(n - 2, 1.0 + 2.0 * a), np.full(n - 3, -a))
    if info != 0:
        raise np.linalg.LinAlgError("diffusion matrix is not positive definite")

    def solve(rhs: np.ndarray) -> np.ndarray:
        interior = rhs[1:-1]
        interior[0] += a * rhs[0]
        interior[-1] += a * rhs[-1]
        dpttrs(d, e, interior, overwrite_b=1)
        return rhs

    return solve


def _guard_nodes(a: float, bound: float) -> int:
    """Nodes within which the implicit solve's output underflows ahead of the front.

    Beyond the right-hand side's support the solution of (I - a D2) u = rhs
    decays by r per node, the root in (0, 1) of a r^2 - (1 + 2a) r + a = 0.
    The count is the number of nodes over which r takes 10x the sup bound
    below the smallest subnormal, plus one node for the upwind flux's reach
    and one for the Dirichlet node.
    """
    r = 2.0 * a / (1.0 + 2.0 * a + math.sqrt(1.0 + 4.0 * a))
    decades = math.log(np.finfo(float).smallest_subnormal) - math.log(10.0 * bound)
    return math.ceil(decades / math.log(r)) + 2


def _active_end(values: np.ndarray, m: int, guard: int) -> int:
    """End of the nodes [0, m) a step advances (m = 0 asks for a first value).

    Beyond the last nonzero node the reaction and the upwind flux vanish, and
    the implicit solve's output underflows within ``guard`` nodes of it, so
    the nodes past m stay exactly zero.  m keeps the guard beyond the last
    nonzero node and grows by half when a nonzero value enters it.  A nonzero
    right extension holds the last node nonzero, so then m = n.
    """
    n = values.size
    if m == n or (m > 0 and not values[m - guard : m].any()):
        return m
    nonzero = np.flatnonzero(values)
    last = int(nonzero[-1]) if nonzero.size else 0
    return min(n, max(m + m // 2, last + 1 + guard))


def _advective_divergence(
    u: np.ndarray, v: np.ndarray, dx: float, face: np.ndarray, upwind: np.ndarray,
    flux: np.ndarray, div: np.ndarray,
) -> np.ndarray:
    """d(vu)/dx at the interior nodes by first-order upwinding at cell faces.

    Writes into the caller's buffers: ``face``, the boolean ``upwind`` and
    ``flux`` hold n - 1 face values, ``div`` the n - 2 interior divergences,
    and is returned.
    """
    np.add(v[:-1], v[1:], out=face)
    face *= 0.5  # face velocities between consecutive nodes
    np.greater_equal(face, 0.0, out=upwind)  # take the left node's value
    np.copyto(flux, u[1:])
    np.copyto(flux, u[:-1], where=upwind)
    flux *= face
    np.subtract(flux[1:], flux[:-1], out=div)
    div /= dx
    return div


def evolve(config: EvolveConfig) -> Trajectory:
    """Advance the profile to t_max, tracking the front every ``snapshot_every``.

    Each record appends the tracked front position and replaces the one
    profile kept in ``snapshots``.  The run aborts (returning the partial
    trajectory with ``abort_reason`` set) if the tracked front comes within
    ``front_margin`` of the right boundary, so the profile never feels the
    constant right extension.  Each step advances the nodes [0, m) of
    :func:`_active_end`; profiles and front positions are taken on the whole
    grid.
    """
    grid, dt = config.grid, config.dt
    u = config.initial_field()
    u = u.with_values(u.values.copy())  # the caller's initial field is left as given
    values, left, right = u.values, u.left_ext, u.right_ext
    values[0] = left
    values[-1] = right
    a = dt / grid.dx**2
    bound = sup_bound(config.params)
    guard = _guard_nodes(a, bound)
    n_steps = int(round(config.t_max / dt))
    snap_stride = max(1, int(round(config.snapshot_every / dt)))
    chi = config.params.chi

    traj = Trajectory(snapshots=[], front_positions=[], config=config)

    def record(t: float) -> bool:
        traj.snapshots[:] = [(t, u.with_values(values.copy()))]
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

    m = 0
    for step in range(1, n_steps + 1):
        active_end = _active_end(values, m, guard)
        if active_end != m:
            m = active_end
            solve = _diffusion_solver(m, a)
            # every step at this size works in these buffers
            rhs, face, flux, div = np.empty(m), np.empty(m - 1), np.empty(m - 1), np.empty(m - 2)
            upwind = np.empty(m - 1, dtype=bool)
            if chi != 0.0:
                drift = drift_operator(config.spec, config.params.sigma, grid.dx, m)
        active = values[:m]
        np.subtract(1.0, active, out=rhs)
        rhs *= active  # the reaction u(1 - u)
        if chi != 0.0:
            v = drift.advection(active, left, right, chi)
            rhs[1:-1] -= _advective_divergence(active, v, grid.dx, face, upwind, flux, div)
        rhs *= dt
        rhs += active
        rhs[0] = left
        rhs[-1] = right
        new = solve(rhs)
        if new.min() < 0.0:
            negative = new < 0.0
            traj.clipped_mass += float(-new[negative].sum()) * grid.dx
            new[negative] = 0.0
        active[:] = new
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
    """Least-squares front speed from the tracked front positions vs time.

    The fit uses the last ``window_fraction`` of the trajectory, where the
    transient from the initial datum has decayed.  ``level`` must be the
    level ``evolve`` tracked.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    if traj.config is not None and level != traj.config.track_level:
        raise ValueError(
            f"level {level} was not tracked (the run tracked {traj.config.track_level})"
        )
    pts = traj.front_positions
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
        window=(float(t_fit[0]), float(t_fit[-1])),
        stderr=float(np.sqrt(cov[0, 0])),
    )


def speed_from_integral(u: Field) -> float:
    """integral of u(1-u): equals the wave speed for a steady profile in the
    moving frame connecting 1 to 0.  The constant tails contribute nothing."""
    if (u.left_ext, u.right_ext) not in {(1.0, 0.0), (0.0, 0.0), (0.0, 1.0), (1.0, 1.0)}:
        raise ValueError("extensions must be 0 or 1 for the integral identity")
    return float(u.grid.dx * np.sum(u.values * (1.0 - u.values)))
