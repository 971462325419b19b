"""IMEX time stepper for u_t + (vu)_x = u_xx + u(1-u) with v = chi K_sigma * u.

Diffusion is treated implicitly (second-order centered, the symmetric positive
definite interior matrix factored by LAPACK), the logistic reaction and the
upwinded advective flux explicitly; the drift comes from one convolution
operator per stepped grid size.  Boundary nodes are held at the Dirichlet
values given by the field extensions, which also feed the nonlocal
convolution.

A step advances only the nodes [lo, hi) of the fixed grid, a range that
follows the front.  Both ends are set at records, from the tracked front:

* lo lies ``WINDOW_BEHIND`` behind the front, plus the kernel's truncation
  radius tail_cutoff * sigma when chi != 0 (so the drift behind the range
  sees only the left extension), and slides right only; the nodes it leaves
  behind are set to the left extension.  Where that reach spans the grid
  behind the front, as for the sigma = 200 coupled runs (the exp kernel
  reaches 31.5 sigma), lo stays 0.
* hi lies ahead of the front by the longer of ``WINDOW_AHEAD`` and
  ``WINDOW_SPREAD`` sqrt(t_max), plus the distance the front can travel
  between records at the sandwich's top speed :func:`speed_upper_bound`,
  or at the grid's end.  The nodes beyond it stay 0, its right Dirichlet
  value.  Between records the lead ahead of the front shrinks by at most
  the front's travel, so it stays at least the longer of the two lengths.
* Ahead of a pulled front the leading edge spreads like sqrt(t), and a zero
  held at distance L perturbs the front by about e^(-L^2/t), so the lead
  grows with sqrt(t_max).  It does not move the tracked positions of a
  chi = 0 run at dx = 0.1 to t = 150, nor of one at dx = 0.2 to t = 1000;
  at t = 150 a lead of 80 moved them by 8e-10 and one of 60 by 1.8e-4, at
  t = 1000 a lead of 102 by 1e-2 and one of 6 sqrt(t_max) + 2 by 9e-12.
* Behind a slow front the profile at lo is within about
  e^(-(sqrt 2 - 1) WINDOW_BEHIND) = 1e-9 of 1.  Behind a fast repulsive
  front with a compact kernel it is not: behind a tophat front at
  chi = -20, sigma = 200, 1 - u falls only about 10x per sigma, is 2e-3 at
  lo, and holding the nodes behind lo at 1 moves the tracked positions by
  5e-4 (ROADMAP item 6).
* The range is placed at the first record that finds the front and at
  which the profile beyond hi is exactly zero (at once for the default
  smoothed step, which is 0 past x = 38), so placing it drops nothing.
  Until then a step advances the whole grid, and so it does throughout
  for a datum with mass far ahead of the front, or a nonzero right
  extension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convolve import advection, drift_operator  # noqa: F401 - perfbench/spans.py binds evolver.advection
from .grids import Field, Grid1D, smoothed_step_field
from .kernels import ChemoParams, KernelSpec
from .lapack import dpttrf, dpttrs

WINDOW_BEHIND = 50.0  # x units a step reaches behind the front (plus the kernel's reach)
WINDOW_AHEAD = 100.0  # least x units a step reaches ahead of the front
WINDOW_SPREAD = 8.0  # ... or this times sqrt(t_max), if longer
# the front-speed measurement: where u crosses TRACK_LEVEL is the front, and its
# speed is the least-squares slope over the run's last FIT_WINDOW, which must
# hold at least FIT_MIN_RECORDS records (the long-run speed does not depend on
# the level; Ebert & van Saarloos 2000, Physica D 146:1)
TRACK_LEVEL = 0.5
FIT_WINDOW = 0.4
FIT_MIN_RECORDS = 5


class BlowUpError(RuntimeError):
    """The solution exceeded ten times its a-priori sup bound."""


def sup_bound(params: ChemoParams) -> float:
    """A-priori upper bound max{1, (1 - chi/sigma)^(-1)} on the profile."""
    return max(1.0, 1.0 / (1.0 - params.chi / params.sigma))


def speed_upper_bound(chi: float, sigma: float) -> float:
    """The sandwich's upper wave-speed bound 2 sqrt(1 + |chi|/sigma) + |chi|/2."""
    return 2.0 * np.sqrt(1.0 + abs(chi) / sigma) + abs(chi) / 2.0


@dataclass
class EvolveConfig:
    grid: Grid1D
    dt: float
    t_max: float
    snapshot_every: float
    params: ChemoParams
    spec: KernelSpec
    initial: Field | None = None  # default: smoothed step of width 2

    def __post_init__(self):
        if not 0.0 < self.t_max < math.inf:
            raise ValueError(f"t_max = {self.t_max} must be positive and finite")
        if not 0.0 < self.dt <= self.grid.dx**2 / 4.0:
            raise ValueError(
                f"dt={self.dt} outside stability budget (0, dx^2/4 = {self.grid.dx**2 / 4.0}]"
            )
        if not 0.0 < self.snapshot_every < math.inf:
            raise ValueError(f"snapshot_every = {self.snapshot_every} must be positive and finite")
        for name in ("t_max", "snapshot_every"):
            steps = getattr(self, name) / self.dt
            if not math.isfinite(steps):
                raise ValueError(
                    f"{name} = {getattr(self, name)} with dt = {self.dt} gives a non-finite "
                    f"step count {steps}"
                )

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
    front_positions: list[tuple[float, float]]  # (t, x) where u crosses TRACK_LEVEL
    clipped_mass: float = 0.0
    abort_reason: str | None = None
    stepped: tuple[int, int] | None = None  # the nodes [lo, hi) the last step advanced

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
    """Solve (I - a D2) u = rhs on k <= n nodes with u_0 = rhs_0, u_{k-1} = rhs_{k-1}.

    The Dirichlet rows are eliminated into the first and last interior
    right-hand sides; the remaining matrix is symmetric positive definite and
    factored once, on n nodes (LAPACK pttrf).  The k-node matrix is its
    leading block, whose factors are the leading factors, so the returned
    solve takes any length 4 <= k <= n from ``rhs`` and overwrites it; any
    other length raises ValueError, and a failed pttrs LinAlgError.
    """
    d, e, info = dpttrf(np.full(n - 2, 1.0 + 2.0 * a), np.full(n - 3, -a))
    if info != 0:
        raise np.linalg.LinAlgError("diffusion matrix is not positive definite")

    def solve(rhs: np.ndarray) -> np.ndarray:
        if not 4 <= rhs.size <= n:
            raise ValueError(f"a diffusion solve takes 4 to {n} nodes, not {rhs.size}")
        interior = rhs[1:-1]
        interior[0] += a * rhs[0]
        interior[-1] += a * rhs[-1]
        _, info = dpttrs(d[: rhs.size - 2], e[: rhs.size - 3], interior, overwrite_b=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"diffusion solve failed (LAPACK pttrs info {info})")
        return rhs

    return solve


def _record_steps(config: EvolveConfig) -> tuple[int, int]:
    """A run's step count and the steps between its records."""
    return int(round(config.t_max / config.dt)), max(1, int(round(config.snapshot_every / config.dt)))


def fit_window_records(config: EvolveConfig) -> int:
    """The number of a run's records, up to ``FIT_MIN_RECORDS`` (the fewest
    `measure_speed` fits on), in its last ``FIT_WINDOW`` when the front is
    tracked from t = 0: the most any run of ``config`` can give, since a front
    first tracked later only narrows the window."""
    n_steps, stride = _record_steps(config)
    t_end = n_steps * config.dt
    t_start = t_end - FIT_WINDOW * t_end  # measure_speed's, with the first record at t = 0
    # the last record's step, then the multiples of the stride below it
    steps = [n_steps, *range((n_steps - 1) // stride * stride, -1, -stride)[: FIT_MIN_RECORDS - 1]]
    return sum(step * config.dt >= t_start for step in steps)


def _advective_divergence(
    u: np.ndarray, v: np.ndarray, dx: float, flux: np.ndarray, div: np.ndarray
) -> np.ndarray:
    """d(vu)/dx at the interior nodes by first-order upwinding at cell faces.

    Writes into the caller's buffers: ``flux`` holds the n - 1 face fluxes,
    ``div`` the n - 2 interior divergences, and is returned.
    """
    np.add(v[:-1], v[1:], out=flux)
    flux *= 0.5  # face velocities between consecutive nodes
    flux *= np.where(flux >= 0.0, u[:-1], u[1:])  # times the upwind node's value
    np.subtract(flux[1:], flux[:-1], out=div)
    div /= dx
    return div


def evolve(config: EvolveConfig) -> Trajectory:
    """Advance the profile to t_max, tracking the front every ``snapshot_every``.

    Each record appends the front position, where u crosses ``TRACK_LEVEL``,
    and replaces the one profile kept in ``snapshots``.  The run aborts
    (returning the partial trajectory with ``abort_reason`` set) if the
    tracked front comes within ``front_margin`` of the right boundary, so the
    profile never feels the constant right extension.  Profiles and front positions are taken on the
    whole grid.

    Each step advances the nodes [lo, hi) (see the module docstring;
    ``Trajectory.stepped`` holds the last range).  Until a record places the
    range on the front, that is the whole grid.  Both ends are set only at
    records: lo reaches ``WINDOW_BEHIND`` plus, when chi != 0, the kernel's
    truncation radius behind the front, and slides right only; hi reaches
    the longer of ``WINDOW_AHEAD`` and ``WINDOW_SPREAD`` sqrt(t_max), plus
    ``snapshot_every`` times the top speed, ahead of it, since the front
    travels between records.  Behind lo the profile is held at the left
    extension, and beyond hi it stays 0.  A run factors the diffusion
    matrix once and allocates one buffer set; each range solves on its
    leading block and works in views of those buffers.  Each stepped size
    gets its own drift operator, built for the run rather than kept in
    ``drift_operator``'s shared cache.
    """
    grid, dt = config.grid, config.dt
    n, dx = grid.n, grid.dx
    u = config.initial_field()
    u = u.with_values(u.values.copy())  # the caller's initial field is left as given
    values, left, right = u.values, u.left_ext, u.right_ext
    values[0] = left
    values[-1] = right
    a = dt / dx**2
    bound = sup_bound(config.params)
    n_steps, snap_stride = _record_steps(config)
    chi, sigma = config.params.chi, config.params.sigma
    behind = WINDOW_BEHIND + (config.spec.tail_cutoff * sigma if chi != 0.0 else 0.0)
    # the front may travel up to a snapshot spacing at the top speed before the range follows
    ahead = (max(WINDOW_AHEAD, WINDOW_SPREAD * math.sqrt(config.t_max))
             + config.snapshot_every * speed_upper_bound(chi, sigma))
    back, lead = np.ceil(behind / dx), np.ceil(ahead / dx)  # floats: the lengths may be infinite
    lo, hi = 0, n  # the whole grid until a record places the range

    traj = Trajectory(snapshots=[], front_positions=[])

    def record(t: float) -> bool:
        nonlocal lo, hi
        traj.snapshots[:] = [(t, u.with_values(values.copy()))]
        pos = level_crossing(u, TRACK_LEVEL)
        if pos is not None:
            traj.front_positions.append((t, pos))
            if grid.x_max - pos < config.front_margin:
                traj.abort_reason = (
                    f"front at x={pos:.3f} entered the safety margin "
                    f"({config.front_margin:g}) at t={t:.4f}"
                )
                return False
            if right == 0.0:  # a nonzero right extension holds the last node: the whole grid
                front = (pos - grid.x_min) // dx  # the last node at or above the level
                end = int(min(n, max(front + lead, 4)))  # the diffusion solve needs 4 nodes
                # placed only where the profile beyond it is zero, so nothing is dropped
                if not values[end:].any():
                    lo, hi = int(min(max(front - back, lo), end - 4)), end  # lo moves right only
                    values[: lo + 1] = left  # the nodes left behind and the Dirichlet node
        return True

    if not record(0.0):
        return traj

    solve = _diffusion_solver(n, a)
    run_rhs, run_flux, run_div = np.empty(n), np.empty(n - 1), np.empty(n - 2)
    size = 0
    for step in range(1, n_steps + 1):
        if hi - lo != size:
            size = hi - lo
            # every step on this range works in views of the run's buffers
            rhs, flux, div = run_rhs[:size], run_flux[: size - 1], run_div[: size - 2]
            if chi != 0.0:
                # built for this run, not cached: a front-following end gives many sizes
                drift = drift_operator.__wrapped__(config.spec, sigma, dx, size)
        active = values[lo:hi]
        np.subtract(1.0, active, out=rhs)
        rhs *= active  # the reaction u(1 - u)
        if chi != 0.0:
            # right is 0 whenever hi stops short of node n - 1
            v = drift.advection(active, left, right, chi)
            rhs[1:-1] -= _advective_divergence(active, v, dx, flux, div)
        rhs *= dt
        rhs += active
        rhs[0] = left
        rhs[-1] = right
        new = solve(rhs)
        if new.min() < 0.0:
            negative = new < 0.0
            traj.clipped_mass += float(-new[negative].sum()) * dx
            new[negative] = 0.0
        active[:] = new
        if new.max() > 10.0 * bound:
            raise BlowUpError(
                f"max u = {new.max():.3g} exceeds 10x the a-priori bound {bound:.3g}"
            )
        if step % snap_stride == 0 or step == n_steps:
            traj.stepped = (lo, hi)
            if not record(step * dt):
                return traj
    return traj


def measure_speed(
    traj: Trajectory, level: float = TRACK_LEVEL, window_fraction: float = FIT_WINDOW
) -> SpeedEstimate:
    """Least-squares front speed from the tracked front positions vs time.

    The fit uses the last ``window_fraction`` of the trajectory, where the
    transient from the initial datum has decayed, and refuses a window of
    fewer than ``FIT_MIN_RECORDS`` records.  ``level`` must be
    ``TRACK_LEVEL``, the one level ``evolve`` tracks; it stays a positional
    parameter only because ``perfbench/workloads.py`` calls
    ``measure_speed(traj, 0.5, 0.4)``.
    """
    if level != TRACK_LEVEL:
        raise ValueError(f"level {level} was not tracked (evolve tracks {TRACK_LEVEL})")
    pts = traj.front_positions
    if not pts:
        raise ValueError(f"level {level} never attained")
    times = np.array([p[0] for p in pts])
    positions = np.array([p[1] for p in pts])
    t_end = times[-1]
    t_start = t_end - window_fraction * (t_end - times[0])
    mask = times >= t_start
    if mask.sum() < FIT_MIN_RECORDS:
        raise ValueError(f"fewer than {FIT_MIN_RECORDS} snapshots in the fit window")
    t_fit, x_fit = times[mask], positions[mask]
    coeffs, cov = np.polyfit(t_fit, x_fit, 1, cov=True)
    return SpeedEstimate(
        c=float(coeffs[0]),
        window=(float(t_fit[0]), float(t_fit[-1])),
        stderr=float(np.sqrt(cov[0, 0])),
    )


def speed_from_integral(u: Field) -> float:
    """integral of u(1-u): equals the wave speed for a steady profile in the
    moving frame connecting 1 to 0.  The constant tails contribute nothing.

    Integrating the wave equation gives c (u(-inf) - u(inf)) = int u(1-u), so
    only the extensions (1, 0) are accepted: (0, 1) would flip the speed's
    sign, and equal extensions leave no speed to read."""
    if (u.left_ext, u.right_ext) != (1.0, 0.0):
        raise ValueError("extensions must be (1, 0) for the integral identity")
    return float(u.grid.dx * np.sum(u.values * (1.0 - u.values)))
