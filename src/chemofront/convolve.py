"""Nonlocal advection v = chi K_sigma * u_ext and its derivative on a uniform grid.

The convolution uses exact per-cell integrals of K_sigma (differences of the
antiderivative Kbar) against nodal samples of the extended profile, so the jump
of K at the origin is never sampled and constants are annihilated to rounding.
Only the grid values are transformed: the constant extensions contribute
through partial sums of the weights inside the truncation window and in closed
form through Kbar beyond it.  Everything that depends only on the kernel
and the grid is built once per (kernel, sigma, dx, n) in a cached DriftOperator,
which convolves by FFT; :func:`direct_drift` sums the same convolutions
directly and serves the tests as their oracle.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.fft import irfft, rfft

from .grids import Field
from .kernels import ChemoParams, KernelSpec, kbar, kernel_scaled
from .reports import BoundsReport


def next_fast_len(n: int) -> int:
    """Smallest 5-smooth length 2^a 3^b 5^c >= n, a fast size for numpy.fft."""
    best = 2 * n
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            m = p35
            while m < n:
                m *= 2
            best = min(best, m)
            p35 *= 3
        p5 *= 5
    return best


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


def _pad_sums(taps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of the constant pads at the nodes whose window reaches them.

    With taps t_0..t_2J, node i receives left_ext * sum_{k > i+J} t_k for
    i < J and right_ext * sum_{k <= i+J-n} t_k for i >= n-J.
    """
    half = (taps.size - 1) // 2
    left = np.cumsum(taps[: half : -1])[::-1]
    right = np.cumsum(taps[:half])
    for table in (left, right):
        table.setflags(write=False)
    return left, right


class DriftOperator:
    """Convolution against K_sigma and dK_sigma on one grid, built once.

    Holds the window, the cell weights and symmetric masses with their rFFTs,
    suffix and prefix sums of both for the constant pads, and the closed-form
    tail constants beyond the window.  Only the n grid values are transformed: of
    their linear convolution with 2J+1 taps, outputs J..J+n-1 are the nodes,
    and at any FFT length size >= n+J those never wrap, so each call is one
    rfft and one irfft.  The pads' share is added from those sums.
    """

    def __init__(self, spec: KernelSpec, sigma: float, dx: float, n: int):
        _check_resolution(dx, sigma)
        self.sigma = sigma
        self.half = _window(spec, sigma, dx, n)
        self.weights = _cell_weights(spec, sigma, dx, self.half)
        masses = _cell_masses(spec, sigma, dx, self.half)
        self.mass0 = masses[0]
        self.sym = np.concatenate([masses[:0:-1], masses])  # m_{|j|}, j = -J..J
        self.size = next_fast_len(n + self.half)
        self.weights_hat = rfft(self.weights, self.size)
        self.sym_hat = rfft(self.sym, self.size)
        self.weights_pads = _pad_sums(self.weights)
        self.sym_pads = _pad_sums(self.sym)
        self.kb_tail = float(kbar(spec, (self.half + 0.5) * dx / sigma))
        self.m_tail = -float(kernel_scaled(spec, sigma, (self.half + 0.5) * dx))
        for table in (self.sym, self.weights_hat, self.sym_hat):
            table.setflags(write=False)  # shared by every caller of the cache

    def _convolve(
        self, values: np.ndarray, left_ext: float, right_ext: float,
        kernel_hat: np.ndarray, pads: tuple[np.ndarray, np.ndarray],
    ) -> np.ndarray:
        half, n = self.half, values.size
        spectrum = rfft(values, self.size)
        spectrum *= kernel_hat
        out = irfft(spectrum, self.size)[half : half + n]
        out[:half] += left_ext * pads[0]
        out[n - half :] += right_ext * pads[1]
        return out

    def _advection_from(self, interior, left_ext, right_ext, chi) -> np.ndarray:
        interior += (right_ext - left_ext) * self.kb_tail  # a fresh array: no copy
        interior *= chi
        return interior

    def _gradient_from(self, folded, values, left_ext, right_ext, chi) -> np.ndarray:
        folded = folded + self.mass0 * values
        folded += self.m_tail * (left_ext + right_ext)
        return -(chi / self.sigma) * values + chi * folded

    def advection(self, values: np.ndarray, left_ext: float, right_ext: float, chi: float) -> np.ndarray:
        """Nodal values of v = chi * (K_sigma convolved with the extended profile)."""
        interior = self._convolve(values, left_ext, right_ext, self.weights_hat, self.weights_pads)
        return self._advection_from(interior, left_ext, right_ext, chi)

    def gradient(self, values: np.ndarray, left_ext: float, right_ext: float, chi: float) -> np.ndarray:
        """Nodal values of v_x (see :func:`advection_gradient`)."""
        folded = self._convolve(values, left_ext, right_ext, self.sym_hat, self.sym_pads)
        return self._gradient_from(folded, values, left_ext, right_ext, chi)


@lru_cache(maxsize=64)
def drift_operator(spec: KernelSpec, sigma: float, dx: float, n: int) -> DriftOperator:
    """The convolution operator of one (kernel, sigma) on one grid, shared by every call."""
    return DriftOperator(spec, sigma, dx, n)


def advection(u: Field, spec: KernelSpec, params: ChemoParams) -> Field:
    """v = chi * (K_sigma convolved with the extended profile), sampled on u's grid."""
    op = drift_operator(spec, params.sigma, u.grid.dx, u.grid.n)
    v = op.advection(u.values, u.left_ext, u.right_ext, params.chi)
    return Field(u.grid, v, left_ext=0.0, right_ext=0.0)


def advection_gradient(u: Field, spec: KernelSpec, params: ChemoParams) -> Field:
    """v_x via the jump atom -(chi/sigma) u plus the measure part of (K_sigma)_x.

    v_x(x) = -(chi/sigma) u(x)
             + chi * int_0^inf (u_ext(x-y) + u_ext(x+y)) dK_sigma(y).
    """
    op = drift_operator(spec, params.sigma, u.grid.dx, u.grid.n)
    vx = op.gradient(u.values, u.left_ext, u.right_ext, params.chi)
    return Field(u.grid, vx, left_ext=0.0, right_ext=0.0)


def direct_drift(u: Field, spec: KernelSpec, params: ChemoParams) -> tuple[Field, Field]:
    """v and v_x with both convolutions summed directly (np.convolve) over the
    explicitly padded profile: the tests' oracle for the FFT path and its
    closed-form pads, called by no solver."""
    op = drift_operator(spec, params.sigma, u.grid.dx, u.grid.n)
    left, right, chi = u.left_ext, u.right_ext, params.chi
    pad = np.ones(op.half)
    ext = np.concatenate([left * pad, u.values, right * pad])
    v = op._advection_from(np.convolve(ext, op.weights, mode="valid"), left, right, chi)
    vx = op._gradient_from(np.convolve(ext, op.sym, mode="valid"), u.values, left, right, chi)
    return Field(u.grid, v), Field(u.grid, vx)


def advection_bounds_check(u: Field, v: Field, vx: Field, params: ChemoParams) -> BoundsReport:
    """Young-type convolution bounds on v and v_x against the extended sup norm,
    with a discretization slack of 2 dx sup|u|."""
    sup_u = u.sup_norm()
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
