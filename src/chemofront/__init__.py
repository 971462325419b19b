"""Numerical laboratory for FKPP fronts with nonlocal chemotactic advection.

The model is u_t + (vu)_x = u_xx + u(1-u) with drift v = chi K_sigma * u for
an odd, integrable aggregation kernel K.  The package measures front speeds
(time-dependent runs), constructs traveling waves on finite slabs, certifies
the slow (speed-2) regime spectrally, and sweeps parameter space.
"""

__version__ = "0.1.0"

from .grids import Field, Grid1D, constant_field, smoothed_step_field, step_field
from .kernels import ChemoParams, KernelSpec, kbar, kbar_inverse, kernel_eval, parse_kernel
from .convolve import advection, advection_gradient
from .evolver import EvolveConfig, SpeedEstimate, Trajectory, evolve, measure_speed, speed_from_integral
from .slab import SlabConfig, SlabSolution, fixed_point, slab_bounds_check
from .spectral import (
    EigenPair,
    TransformedProfile,
    assemble_potential,
    principal_eigenpair,
    rayleigh_quotient,
    slow_regime_certificate,
    transform_to_w,
)
from .diagnostics import (
    FrontGeometry,
    decay_fit,
    fast_constants,
    front_geometry,
    monotonicity_check,
    monotonicity_threshold,
    moment_check,
)
from .scan import RegimeRecord, ScanConfig, run_scan, sandwich_table
from .reports import BoundsReport, Check

__all__ = [
    "__version__",
    "Field",
    "Grid1D",
    "constant_field",
    "smoothed_step_field",
    "step_field",
    "ChemoParams",
    "KernelSpec",
    "kbar",
    "kbar_inverse",
    "kernel_eval",
    "parse_kernel",
    "advection",
    "advection_gradient",
    "EvolveConfig",
    "SpeedEstimate",
    "Trajectory",
    "evolve",
    "measure_speed",
    "speed_from_integral",
    "SlabConfig",
    "SlabSolution",
    "fixed_point",
    "slab_bounds_check",
    "EigenPair",
    "TransformedProfile",
    "assemble_potential",
    "principal_eigenpair",
    "rayleigh_quotient",
    "slow_regime_certificate",
    "transform_to_w",
    "FrontGeometry",
    "decay_fit",
    "fast_constants",
    "front_geometry",
    "monotonicity_check",
    "monotonicity_threshold",
    "moment_check",
    "RegimeRecord",
    "ScanConfig",
    "run_scan",
    "sandwich_table",
    "BoundsReport",
    "Check",
]
