"""Nonlocal advection v = chi K_sigma * u_ext and its derivative on a uniform grid.

The convolution uses exact per-cell integrals of K_sigma (differences of the
antiderivative Kbar) against nodal samples of the extended profile, so the jump
of K at the origin is never sampled and constants are annihilated to rounding.
Everything that depends only on the kernel and the grid is built once per
(kernel, sigma, dx, n) in a cached operator.  For the exponential
(Keller-Segel) kernel the cell weights are geometric, and
:class:`ExpDriftOperator` sums them over the whole line by one tridiagonal
solve.  The other families use :class:`DriftOperator`, which transforms only
the grid values by FFT: the constant extensions contribute through partial
sums of the weights inside the truncation window and in closed form through
Kbar beyond it.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.fft import irfft, rfft

from .grids import Field
from .kernels import ChemoParams, KernelSpec, kbar, kernel_scaled
from .lapack import pt_solver
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
        raise KernelResolutionError(f"dx={dx} too coarse for sigma={sigma} (need dx <= sigma/4)")


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
        tables = (_cell_weights, _cell_masses)
        if self.half == n - 1:  # capped by the grid: tables only this n uses, left uncached
            tables = tuple(table.__wrapped__ for table in tables)
        self.weights, masses = (table(spec, sigma, dx, self.half) for table in tables)
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

    def advection(self, values: np.ndarray, left_ext: float, right_ext: float, chi: float) -> np.ndarray:
        """Nodal values of v = chi * (K_sigma convolved with the extended profile)."""
        interior = self._convolve(values, left_ext, right_ext, self.weights_hat, self.weights_pads)
        interior += (right_ext - left_ext) * self.kb_tail  # a fresh array: no copy
        interior *= chi
        return interior

    def gradient(self, values: np.ndarray, left_ext: float, right_ext: float, chi: float) -> np.ndarray:
        """Nodal values of v_x (see :func:`advection_gradient`)."""
        folded = self._convolve(values, left_ext, right_ext, self.sym_hat, self.sym_pads)
        folded += self.mass0 * values
        folded += self.m_tail * (left_ext + right_ext)
        return -(chi / self.sigma) * values + chi * folded


class ExpDriftOperator:
    """Convolution against the exponential kernel and its derivative over the
    whole line, one tridiagonal solve per call.

    With h = dx/sigma and r = e^-h the exp cell weights are
    w_j = -sign(j) sinh(h/2) r^|j| and the symmetric masses
    m_j = sinh(h/2) r^|j| / sigma (j != 0), m_0 = (1 - e^(-h/2)) / (2 sigma).
    With S_i = sum_k r^|i-k| u_ext(k) over all integers k (pads included)
    and L_i, R_i its parts over k < i and k > i,
    v = chi sinh(h/2) (R - L) and v_x = (chi/sigma) (sinh(h/2) S - cosh(h/2) u).

    On the whole line T = tridiag(-r, 1 + r^2, -r) maps S to (1 - r^2) u_ext.
    On the n nodes it is closed by M, equal to T but with 1 in both corners,
    whose LDL^T factors are known in closed form: d = (1, ..., 1, 1 - r^2),
    e = -r.  The operator keeps them only inside its bound solve, where no
    caller can write them.  A call is one LAPACK pttrs, in place on a
    temporary right-hand side, and no factorization.

    * advection: T (R - L) = r (u_(i+1) - u_(i-1)), and beyond the grid those
      differences vanish, so eliminating the tails gives M (R - L) = r g with
      g_i = u_(i+1) - u_(i-1), g_0 = u_1 + r u_0 - (1 + r) left and
      g_(n-1) = (1 + r) right - u_(n-2) - r u_(n-1).  Constants give g = 0.
      Differencing S instead would subtract values of size 1/h^2 and lose
      about log10(1/h) digits, enough at sigma = 200 to hold the slab Newton
      near its tolerance.
    * gradient: M y = u + r/(1 - r) (left e_0 + right e_(n-1)) gives
      S = (1 - r^2) y; the pads' geometric sums enter through the corners.

    Nothing is truncated: a direct sum over the window differs by its
    truncation, Kbar(tail_cutoff) = 1e-14 relative, plus rounding that grows
    as h shrinks (about 1e-13 relative at h = 2.5e-4).
    """

    def __init__(self, sigma: float, dx: float, n: int):
        _check_resolution(dx, sigma)
        h = dx / sigma
        self.r = math.exp(-h)
        d = np.ones(n)
        d[-1] = -math.expm1(-2.0 * h)  # 1 - r^2
        self.solve = pt_solver(d, np.full(n - 1, -self.r))  # holds the only references to d and e
        self.pad = self.r / -math.expm1(-h)  # r / (1 - r)
        self.advection_scale = math.sinh(0.5 * h) * self.r
        self.sum_scale = math.sinh(0.5 * h) * d[-1] / sigma
        self.node_scale = -math.cosh(0.5 * h) / sigma

    def advection(self, values: np.ndarray, left_ext: float, right_ext: float, chi: float) -> np.ndarray:
        """Nodal values of v = chi * (K_sigma convolved with the extended profile)."""
        r = self.r
        g = np.empty(values.size)
        np.subtract(values[2:], values[:-2], out=g[1:-1])
        g[0] = values[1] + r * values[0] - (1.0 + r) * left_ext
        g[-1] = (1.0 + r) * right_ext - values[-2] - r * values[-1]
        diff = self.solve(g)  # (R - L) / r
        diff *= chi * self.advection_scale
        return diff

    def gradient(self, values: np.ndarray, left_ext: float, right_ext: float, chi: float) -> np.ndarray:
        """Nodal values of v_x (see :func:`advection_gradient`)."""
        b = values.copy()
        b[0] += self.pad * left_ext
        b[-1] += self.pad * right_ext
        y = self.solve(b)
        y *= chi * self.sum_scale
        y += (chi * self.node_scale) * values
        return y


@lru_cache(maxsize=64)
def drift_operator(
    spec: KernelSpec, sigma: float, dx: float, n: int
) -> DriftOperator | ExpDriftOperator:
    """The convolution operator of one (kernel, sigma) on one grid, shared by every call."""
    if spec.family == "exp":
        return ExpDriftOperator(sigma, dx, n)
    return DriftOperator(spec, sigma, dx, n)


def advection(u: Field, spec: KernelSpec, params: ChemoParams) -> Field:
    """v = chi * (K_sigma convolved with the extended profile), sampled on u's grid.

    At chi = 0 it is exactly zero, and no kernel is resolved on the grid."""
    if params.chi == 0.0:
        return Field(u.grid, np.zeros(u.grid.n), left_ext=0.0, right_ext=0.0)
    op = drift_operator(spec, params.sigma, u.grid.dx, u.grid.n)
    v = op.advection(u.values, u.left_ext, u.right_ext, params.chi)
    return Field(u.grid, v, left_ext=0.0, right_ext=0.0)


def advection_gradient(u: Field, spec: KernelSpec, params: ChemoParams) -> Field:
    """v_x via the jump atom -(chi/sigma) u plus the measure part of (K_sigma)_x.

    v_x(x) = -(chi/sigma) u(x)
             + chi * int_0^inf (u_ext(x-y) + u_ext(x+y)) dK_sigma(y).

    At chi = 0 it is exactly zero, as for :func:`advection`.
    """
    if params.chi == 0.0:
        return Field(u.grid, np.zeros(u.grid.n), left_ext=0.0, right_ext=0.0)
    op = drift_operator(spec, params.sigma, u.grid.dx, u.grid.n)
    vx = op.gradient(u.values, u.left_ext, u.right_ext, params.chi)
    return Field(u.grid, vx, left_ext=0.0, right_ext=0.0)


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
