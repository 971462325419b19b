"""Nonlocal advection v = chi K_sigma * u_ext and its derivative on a uniform grid.

The convolution uses exact per-cell integrals of K_sigma (differences of the
antiderivative Kbar) against nodal samples of the extended profile, so the jump
of K at the origin is never sampled and constants are annihilated to rounding.
Contributions from the constant extensions beyond the truncation window are
added in closed form through Kbar.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

from .grids import Field
from .kernels import ChemoParams, KernelSpec, kbar, kernel_scaled
from .reports import BoundsReport

#: grid sizes at or above this use the FFT path by default
FFT_THRESHOLD = 256


class KernelResolutionError(ValueError):
    """The grid is too coarse to resolve the jump of the rescaled kernel."""


def _check_resolution(dx: float, sigma: float) -> None:
    if dx > sigma / 4.0:
        raise KernelResolutionError(
            f"dx={dx} too coarse for sigma={sigma}; need dx <= sigma/4"
        )


def _window(spec: KernelSpec, sigma: float, dx: float, n: int) -> int:
    """Half-width (in cells) of the convolution window.

    Capped at n-1: beyond the grid the profile is constant, which the closed-form
    Kbar tail terms represent exactly.
    """
    return max(1, min(math.ceil(spec.tail_cutoff * sigma / dx), n - 1))


@lru_cache(maxsize=64)
def _cell_weights(spec: KernelSpec, sigma: float, dx: float, half_width: int) -> np.ndarray:
    """w_j = integral of K_sigma over cell j, for j = -J..J (ascending)."""
    edges = (np.arange(-half_width - 1, half_width + 1) + 0.5) * dx
    # G(t) = int_0^t K_sigma = Kbar(|t|/sigma) - 1/2 is even.
    g = kbar(spec, np.abs(edges) / sigma) - 0.5
    w = np.diff(g)
    w.setflags(write=False)
    return w


@lru_cache(maxsize=64)
def _cell_masses(spec: KernelSpec, sigma: float, dx: float, half_width: int) -> np.ndarray:
    """Masses of the Radon measure dK_sigma on (0, inf) per cell, j = 0..J.

    Cell 0 covers (0, dx/2] and carries K_sigma(dx/2) - K_sigma(0+); for the
    tophat family the boundary atom at y = sigma falls into its containing cell.
    """
    edges = (np.arange(half_width + 1) + 0.5) * dx
    k_vals = np.asarray(kernel_scaled(spec, sigma, edges))
    m = np.empty(half_width + 1)
    m[0] = k_vals[0] + 0.5 / sigma
    m[1:] = np.diff(k_vals)
    m.setflags(write=False)
    return m


def _convolve(padded: np.ndarray, weights: np.ndarray, method: str) -> np.ndarray:
    if method == "auto":
        method = "fft" if padded.size >= FFT_THRESHOLD else "direct"
    if method == "fft":
        size = next_fast_len(padded.size + weights.size - 1, real=True)
        full = irfft(rfft(padded, size) * rfft(weights, size), size)
        return full[weights.size - 1 : padded.size]  # the 'valid' part
    if method == "direct":
        return np.convolve(padded, weights, mode="valid")
    raise ValueError(f"unknown convolution method: {method!r}")


def advection(u: Field, spec: KernelSpec, params: ChemoParams, method: str = "auto") -> Field:
    """v = chi * (K_sigma convolved with the extended profile), sampled on u's grid."""
    grid = u.grid
    _check_resolution(grid.dx, params.sigma)
    half = _window(spec, params.sigma, grid.dx, grid.n)
    weights = _cell_weights(spec, params.sigma, grid.dx, half)
    interior = _convolve(u.extended(half), weights, method)
    kb_tail = float(kbar(spec, (half + 0.5) * grid.dx / params.sigma))
    values = params.chi * (interior + (u.right_ext - u.left_ext) * kb_tail)
    return Field(grid, values, left_ext=0.0, right_ext=0.0)


def advection_gradient(
    u: Field, spec: KernelSpec, params: ChemoParams, method: str = "auto"
) -> Field:
    """v_x via the jump atom -(chi/sigma) u plus the measure part of (K_sigma)_x.

    v_x(x) = -(chi/sigma) u(x)
             + chi * int_0^inf (u_ext(x-y) + u_ext(x+y)) dK_sigma(y).
    """
    grid = u.grid
    _check_resolution(grid.dx, params.sigma)
    half = _window(spec, params.sigma, grid.dx, grid.n)
    masses = _cell_masses(spec, params.sigma, grid.dx, half)
    sym = np.concatenate([masses[:0:-1], masses])  # m_{|j|}, j = -J..J
    folded = _convolve(u.extended(half), sym, method) + masses[0] * u.values
    m_tail = -float(kernel_scaled(spec, params.sigma, (half + 0.5) * grid.dx))
    folded += m_tail * (u.left_ext + u.right_ext)
    values = -(params.chi / params.sigma) * u.values + params.chi * folded
    return Field(grid, values, left_ext=0.0, right_ext=0.0)


def advection_bounds_check(
    u: Field, v: Field, vx: Field, params: ChemoParams, slack: float | None = None
) -> BoundsReport:
    """Young-type convolution bounds on v and v_x against the extended sup norm."""
    sup_u = u.sup_norm()
    if slack is None:
        slack = 2.0 * u.grid.dx * sup_u
    report = BoundsReport()
    report.add(
        "sup-v",
        "young-bound-v",
        float(np.max(np.abs(v.values))),
        0.5 * abs(params.chi) * sup_u,
        slack=slack,
    )
    report.add(
        "sup-vx",
        "young-bound-vx",
        float(np.max(np.abs(vx.values))),
        abs(params.chi) / params.sigma * sup_u,
        slack=slack,
    )
    return report
