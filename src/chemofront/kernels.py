"""Interaction kernels: odd, monotone on each half-line, unit L1 mass, jump 1 at 0.

Four families are supported:

* ``exp``       K(x) = -sign(x)/2 * exp(-|x|)
* ``tophat``    K(x) = -sign(x)/2 on [-1, 1], zero outside
* ``powerlaw``  K(x) = -sign(x)/2 * (1 + |x|/(k-1))^(-k),  k > 2
* ``stretched`` K(x) = -sign(x)/2 * exp(-|x|^alpha / D_alpha),  alpha in (0, 1)

``Kbar`` denotes the antiderivative Kbar(x) = -integral_x^inf K(y) dy, which is
nonnegative, nonincreasing on [0, inf) and satisfies Kbar(0) = 1/2.

scipy's special functions and root finding are imported inside the functions
that use them (the stretched family and its ``kbar_inverse``), so importing the
package does not load them.  ``validate_kernel`` integrates with numpy's
Gauss-Legendre nodes, not with scipy's quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .reports import BoundsReport

FAMILIES = ("exp", "tophat", "powerlaw", "stretched")

#: Kbar values below this are treated as an exactly-representable tail.
TAIL_EPS = 1e-14


def _d_alpha(alpha: float) -> float:
    """Normalizer D_alpha = (integral_0^inf exp(-x^alpha) dx)^(-alpha) = Gamma(1+1/alpha)^(-alpha)."""
    from scipy.special import gamma as gamma_fn

    return float(gamma_fn(1.0 + 1.0 / alpha) ** -alpha)


@dataclass(frozen=True)
class KernelSpec:
    """Which kernel family and its shape parameter."""

    family: str
    shape: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family: {self.family!r}")
        if self.family == "powerlaw":
            if self.shape is None or not 2.0 < self.shape < np.inf:
                raise ValueError("powerlaw kernel requires a finite shape k > 2")
        elif self.family == "stretched":
            if self.shape is None or not 0.0 < self.shape < 1.0:
                raise ValueError("stretched kernel requires shape alpha in (0, 1)")

    @property
    def tail_cutoff(self) -> float:
        """Truncation radius Kbar^-1(TAIL_EPS) (the support edge for tophat)."""
        return 1.0 if self.family == "tophat" else kbar_inverse(self, TAIL_EPS)

    def __str__(self) -> str:
        if self.family == "powerlaw":
            return f"powerlaw:{self.shape:g}"
        if self.family == "stretched":
            return f"stretched:{self.shape:g}"
        return self.family


def parse_kernel(text: str) -> KernelSpec:
    """Parse a CLI kernel string: exp | tophat | powerlaw:<k> | stretched:<alpha>."""
    name, _, arg = text.partition(":")
    name = name.strip().lower()
    if name in ("exp", "tophat"):
        if arg:
            raise ValueError(f"kernel {name!r} takes no parameter")
        return KernelSpec(name)
    if name in ("powerlaw", "stretched"):
        if not arg:
            raise ValueError(f"kernel {name!r} requires a parameter, e.g. {name}:3")
        return KernelSpec(name, shape=float(arg))
    raise ValueError(f"unknown kernel family: {name!r}")


@dataclass(frozen=True)
class ChemoParams:
    """Signed interaction strength chi and length scale sigma.

    The standing assumption chi < 1/2 and chi/sigma < 1/2 is enforced here.
    """

    chi: float
    sigma: float

    def __post_init__(self):
        if not (np.isfinite(self.chi) and np.isfinite(self.sigma)):
            raise ValueError("chi and sigma must be finite")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.chi >= 0.5 or self.chi / self.sigma >= 0.5:
            raise ValueError(
                f"standing assumption violated: need chi < 1/2 and chi/sigma < 1/2, "
                f"got chi={self.chi}, chi/sigma={self.chi / self.sigma}"
            )


def _magnitude(spec: KernelSpec, s):
    """|K(s)| for s >= 0 (one-sided limit at 0)."""
    s = np.asarray(s, dtype=float)
    if spec.family == "exp":
        return 0.5 * np.exp(-s)
    if spec.family == "tophat":
        return np.where(s <= 1.0, 0.5, 0.0)
    if spec.family == "powerlaw":
        k = spec.shape
        return 0.5 * (1.0 + s / (k - 1.0)) ** (-k)
    alpha = spec.shape
    return 0.5 * np.exp(-(s**alpha) / _d_alpha(alpha))


def kernel_eval(spec: KernelSpec, x):
    """Evaluate K(x).  x must be nonzero; at 0 the one-sided limits differ."""
    x = np.asarray(x, dtype=float)
    if np.any(x == 0.0):
        raise ValueError("K jumps at 0; evaluate a one-sided limit explicitly")
    out = -np.sign(x) * _magnitude(spec, np.abs(x))
    return out if out.ndim else float(out)


def kernel_scaled(spec: KernelSpec, sigma: float, x):
    """Evaluate the rescaled kernel K_sigma(x) = (1/sigma) K(x/sigma)."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    x = np.asarray(x, dtype=float)
    out = kernel_eval(spec, x / sigma)
    out = np.asarray(out) / sigma
    return out if out.ndim else float(out)


def kbar(spec: KernelSpec, x):
    """Kbar(x) = -integral_x^inf K(y) dy for x >= 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("kbar is defined on [0, inf)")
    if spec.family == "exp":
        out = 0.5 * np.exp(-x)
    elif spec.family == "tophat":
        out = np.maximum(0.0, 0.5 * (1.0 - x))
    elif spec.family == "powerlaw":
        k = spec.shape
        out = 0.5 * (1.0 + x / (k - 1.0)) ** (1.0 - k)
    else:
        out = _kbar_stretched(spec.shape, x)
    return out if np.ndim(out) else float(out)


def _kbar_stretched(alpha: float, x):
    """Closed form via the upper incomplete gamma function.

    With u = s^alpha / D the tail integral becomes
    (1/2) (D^{1/alpha}/alpha) Gamma(1/alpha) Q(1/alpha, x^alpha/D),
    which evaluates to 1/2 at x = 0 by the normalization of D.
    """
    from scipy.special import gamma as gamma_fn
    from scipy.special import gammaincc

    d = _d_alpha(alpha)
    x = np.asarray(x, dtype=float)
    prefactor = 0.5 * d ** (1.0 / alpha) * gamma_fn(1.0 / alpha) / alpha
    return prefactor * gammaincc(1.0 / alpha, x**alpha / d)


@lru_cache(maxsize=64)
def kbar_inverse(spec: KernelSpec, w: float) -> float:
    """The unique x >= 0 with Kbar(x) = w, for w in (0, 1/2].

    Cached: for the stretched family each (shape, w) costs one root find.
    """
    if not 0.0 < w <= 0.5:
        raise ValueError("kbar_inverse requires w in (0, 1/2]")
    if spec.family == "exp":
        return float(np.log(0.5 / w))
    if spec.family == "tophat":
        return 1.0 - 2.0 * w
    if spec.family == "powerlaw":
        k = spec.shape
        return float((k - 1.0) * ((2.0 * w) ** (1.0 / (1.0 - k)) - 1.0))
    if w == 0.5:
        return 0.0
    from scipy.optimize import brentq

    # from the exponential-tail guess, double until Kbar(hi) <= w brackets the root
    hi = (_d_alpha(spec.shape) * np.log(0.5 / w)) ** (1.0 / spec.shape)
    while kbar(spec, hi) > w:
        hi *= 2.0
    return float(
        brentq(lambda x: kbar(spec, x) - w, 0.0, hi, xtol=1e-15, rtol=1e-13, maxiter=200)
    )


def _quad_with_tail(spec: KernelSpec, integrand) -> float:
    """integral_0^tail_cutoff integrand(s) ds by a composite 20-point Gauss-Legendre rule.

    On [0, min(tail_cutoff, 50)] the panels halve toward 0, 40 times, which
    resolves the s^alpha cusp of the stretched family at the origin.  The
    heavy-tailed families have cutoffs of up to about 1e11; beyond 50 they get
    four log-spaced panels per decade.  `integrand` is called once, on the
    array of all nodes.
    """
    nodes, weights = np.polynomial.legendre.leggauss(20)
    cutoff = spec.tail_cutoff
    split = min(cutoff, 50.0)
    edges = split * np.concatenate(([0.0], 2.0 ** np.arange(-40.0, 1.0)))
    if cutoff > split:
        panels = int(np.ceil(4.0 * np.log10(cutoff / split)))
        edges = np.concatenate((edges, np.geomspace(split, cutoff, panels + 1)[1:]))
    lo, half = edges[:-1, None], 0.5 * np.diff(edges)[:, None]
    return float(np.sum(half * weights * integrand(lo + half * (1.0 + nodes))))


def validate_kernel(spec: KernelSpec) -> BoundsReport:
    """Check the kernel's normalization, jump, oddness, half-line monotonicity
    and first moment.

    The unit mass and the first moment of Kbar are integrated by
    `_quad_with_tail` (numpy's Gauss-Legendre nodes, no scipy); the mass
    beyond the truncation radius is Kbar(tail_cutoff) in closed form.
    """
    report = BoundsReport()

    l1 = 2.0 * (
        _quad_with_tail(spec, lambda s: _magnitude(spec, s))
        + float(kbar(spec, spec.tail_cutoff))
    )
    report.add("l1-norm", "unit-mass-normalization", abs(l1 - 1.0), 0.0, slack=1e-6)

    jump = 2.0 * float(_magnitude(spec, 0.0))
    report.add("jump-at-origin", "half-jump-normalization", abs(jump - 1.0), 0.0, slack=1e-12)

    xs = np.geomspace(1e-3, spec.tail_cutoff, 64)
    odd_resid = np.max(np.abs(kernel_eval(spec, -xs) + kernel_eval(spec, xs)))
    report.add("oddness", "odd-symmetry", odd_resid, 0.0, slack=0.0)

    mags = _magnitude(spec, xs)
    worst_increase = float(np.max(np.diff(mags)))
    report.add("half-line-monotonicity", "monotone-half-lines", worst_increase, 0.0, slack=1e-15)

    moment = _quad_with_tail(spec, lambda s: (1.0 + s) * kbar(spec, s))
    finite = 0.0 if np.isfinite(moment) else np.inf
    report.add("kbar-first-moment", "first-moment-integrable", finite, 0.0, slack=0.0)
    return report
