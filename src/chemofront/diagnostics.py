"""Quantitative checks on computed profiles.

Monotonicity thresholds, exponential tail fits, Poincare-type test-function
ratios, the first-moment bound on the drift, front-end geometry and the
advection plateau of fast waves.  Every check is reported as a literal
lhs <= rhs + slack comparison via BoundsReport.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolver import level_crossing
from .grids import Field, periodic_difference
from .kernels import ChemoParams, KernelSpec, kbar_inverse
from .reports import BoundsReport


def monotonicity_threshold(params: ChemoParams) -> float:
    """Level below which the profile tail is guaranteed monotone."""
    chi, sigma = params.chi, params.sigma
    if chi <= 0:
        return 1.0 / (1.0 + abs(chi) / (2.0 * sigma))
    return (1.0 - 2.0 * chi / sigma) / (1.0 - chi / sigma) ** 2


def monotonicity_check(u: Field, params: ChemoParams) -> BoundsReport:
    """Forward differences must be nonpositive wherever u is below threshold."""
    threshold = monotonicity_threshold(params)
    diffs = np.diff(u.values)
    below = u.values[:-1] < threshold
    worst = float(np.max(diffs[below], initial=-np.inf)) if below.any() else -np.inf
    report = BoundsReport()
    report.add("tail-monotonicity", "monotone-below-threshold", worst, 0.0, slack=1e-10)
    return report


def decay_fit(u: Field, x_start: float) -> tuple[float, float]:
    """Log-linear fit of the right tail: returns (mu, r_squared).

    mu is minus the least-squares slope of log u on [x_start, x_max - 2].
    """
    x = u.grid.x
    window = (x >= x_start) & (x <= u.grid.x_max - 2.0)
    if window.sum() < 20:
        raise ValueError("decay window shorter than 20 points")
    vals = u.values[window]
    if np.any(vals <= 0.0):
        raise ValueError("profile not positive on the decay window")
    logs = np.log(vals)
    xs = x[window]
    slope, intercept = np.polyfit(xs, logs, 1)
    fitted = slope * xs + intercept
    ss_res = float(np.sum((logs - fitted) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(-slope), r2


def _integrate(grid_dx: float, values: np.ndarray) -> float:
    return float(grid_dx * np.sum(values))


def poincare_ratio(
    f: Field, u: Field, v: Field, vx: Field, theta: float, params: ChemoParams
) -> dict:
    """Both left sides and the core right side of the drift Poincare bound,
    for a single periodic test function f."""
    if abs(f.values[0] - f.values[-1]) > 1e-10:
        raise ValueError("test function must be periodic")
    dx = f.grid.dx
    fv = f.values[:-1]
    fx = periodic_difference(fv, np.empty(fv.size)) / dx
    lhs1 = _integrate(dx, vx.values[:-1] * fv**2)
    lhs2 = _integrate(dx, np.abs(v.values[:-1]) * fv**2)
    core = (
        abs(params.chi)
        * (1.0 + params.sigma**2)
        / theta
        * (_integrate(dx, u.values[:-1] * fv**2) + _integrate(dx, fx**2))
    )
    return {"lhs1": lhs1, "lhs2": lhs2, "rhs_core": core}


def _test_functions(f_grid, count: int, rng: np.random.Generator) -> list[Field]:
    """Constants, low Fourier modes, tents and random trigonometric polynomials."""
    a = f_grid.x_max
    x = f_grid.x
    fams: list[np.ndarray] = [np.ones_like(x)]
    for k in (1, 2, 3):
        fams.append(np.cos(k * np.pi * x / a))
        fams.append(np.sin(k * np.pi * x / a))
    tent = np.maximum(0.0, 1.0 - np.abs(x) / (a / 2.0))
    tent[-1] = tent[0]
    fams.append(tent)
    while len(fams) < count:
        coef = rng.normal(size=(2, 4))
        poly = sum(
            coef[0, k] * np.cos((k + 1) * np.pi * x / a)
            + coef[1, k] * np.sin((k + 1) * np.pi * x / a)
            for k in range(4)
        )
        fams.append(np.asarray(poly))
    out = []
    for vals in fams[:count]:
        vals = vals.copy()
        vals[-1] = vals[0]
        out.append(Field(f_grid, vals))
    return out


def empirical_poincare_constants(
    u: Field, v: Field, vx: Field, theta: float, params: ChemoParams
) -> tuple[float, float]:
    """Max LHS/RHS_core ratios over 50 test functions, the random ones drawn
    with a fixed seed (the measured constants; the bound's is existential)."""
    rng = np.random.default_rng(1234)
    r1, r2 = [], []
    for f in _test_functions(u.grid, 50, rng):
        r = poincare_ratio(f, u, v, vx, theta, params)
        if r["rhs_core"] > 0:
            r1.append(abs(r["lhs1"]) / r["rhs_core"])
            r2.append(r["lhs2"] / r["rhs_core"])
    return float(np.max(r1)), float(np.max(r2))


def moment_check(v: Field, params: ChemoParams) -> BoundsReport:
    """First moment of the drift on the right half, scaled by |chi| sigma^2."""
    grid = v.grid
    right = grid.x >= 0.0
    moment = _integrate(grid.dx, grid.x[right] * np.abs(v.values[right]))
    scale = abs(params.chi) * params.sigma**2
    ratio = moment / scale if scale > 0 else 0.0
    report = BoundsReport()
    report.add("drift-moment", "drift-first-moment", moment, scale, slack=scale)
    report.add("drift-moment-ratio", "drift-first-moment", ratio, 2.0, slack=0.0)
    return report


@dataclass(frozen=True)
class FrontGeometry:
    x1: float
    x2: float
    width: float
    regime: str  # "narrow" or "wide"
    R: float
    sigma: float


def _rightmost_crossing(u: Field, level: float) -> float:
    x = level_crossing(u, level)
    if x is None or u.values[-1] >= level:
        raise ValueError(f"level {level} not attained in the interior")
    return x


def front_geometry(u: Field, theta: float, sigma: float, R: float) -> FrontGeometry:
    """Front ends x1 (u = 1 - theta/sigma) and x2 (u = theta/sigma), rightmost
    crossings, with the narrow/wide classification against R*sigma."""
    x1 = _rightmost_crossing(u, 1.0 - theta / sigma)
    x2 = _rightmost_crossing(u, theta / sigma)
    width = x2 - x1
    return FrontGeometry(
        x1=x1,
        x2=x2,
        width=width,
        regime="narrow" if width <= R * sigma else "wide",
        R=R,
        sigma=sigma,
    )


def advection_plateau_check(
    u: Field,
    v: Field,
    geometry: FrontGeometry,
    params: ChemoParams,
    eps: float,
) -> BoundsReport:
    """Ahead of a narrow front the drift must hold the plateau value
    (|chi|/2)(1 - eps/2)^2 over a window of length R*sigma."""
    if params.chi >= 0:
        raise ValueError("plateau check applies to repulsive drift (chi < 0)")
    if geometry.regime != "narrow":
        raise ValueError("plateau check applies to narrow fronts only")
    window_hi = geometry.x2 + geometry.R * geometry.sigma
    if window_hi > u.grid.x_max:
        raise ValueError("plateau window exceeds the grid")
    window = (u.grid.x >= geometry.x2) & (u.grid.x <= window_hi)
    plateau = 0.5 * abs(params.chi) * (1.0 - eps / 2.0) ** 2
    min_v = float(np.min(v.values[window]))
    report = BoundsReport()
    report.add("advection-plateau", "drift-plateau-ahead-of-front", plateau, min_v, slack=1e-10)
    return report


def fast_constants(eps: float, chi: float, spec: KernelSpec, sigma: float | None = None):
    """The narrow-front constants R and theta, with the induced sigma floor.

    R = kbar_inverse((1 - eps/4)/2) / 2 and theta = |chi|/(2R); additionally
    theta/sigma < eps/4 and eps > 1/(R sigma) must hold, which yields the
    minimal admissible sigma.
    """
    if not 0.0 < eps <= 0.1:
        raise ValueError("eps must lie in (0, 1/10]")
    R = 0.5 * kbar_inverse(spec, (1.0 - eps / 4.0) / 2.0)
    if R > 1.0:
        raise ValueError(f"derived R = {R:g} exceeds 1")
    theta = abs(chi) / (2.0 * R)
    sigma_min = max(4.0 * theta / eps, 1.0 / (R * eps))
    result = {"R": R, "theta": theta, "sigma_min": sigma_min}
    if sigma is not None:
        result["constraints_ok"] = sigma > sigma_min
    return result
