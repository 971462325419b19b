"""Independent oracles for the drift operators and the eigensolver.

Neither is called by any solver: each recomputes a production quantity by
another route (a direct sum, a banded LAPACK eigensolver), so the tests can
compare the two.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eig_banded

from chemofront.convolve import _cell_masses, _cell_weights, _check_resolution, _window
from chemofront.grids import Field
from chemofront.kernels import ChemoParams, KernelSpec, kbar, kernel_scaled


def direct_drift(u: Field, spec: KernelSpec, params: ChemoParams) -> tuple[Field, Field]:
    """v and v_x with both convolutions summed directly (np.convolve) over the
    profile padded to the truncation window: the oracle of both drift
    operators, built from none of their tables."""
    sigma, dx, n = params.sigma, u.grid.dx, u.grid.n
    _check_resolution(dx, sigma)
    half = _window(spec, sigma, dx, n)
    weights = _cell_weights(spec, sigma, dx, half)
    masses = _cell_masses(spec, sigma, dx, half)
    sym = np.concatenate([masses[:0:-1], masses])  # m_{|j|}, j = -J..J
    kb_tail = float(kbar(spec, (half + 0.5) * dx / sigma))
    m_tail = -float(kernel_scaled(spec, sigma, (half + 0.5) * dx))
    left, right, chi = u.left_ext, u.right_ext, params.chi
    pad = np.ones(half)
    ext = np.concatenate([left * pad, u.values, right * pad])
    v = chi * (np.convolve(ext, weights, mode="valid") + (right - left) * kb_tail)
    folded = np.convolve(ext, sym, mode="valid") + masses[0] * u.values + m_tail * (left + right)
    vx = -(chi / sigma) * u.values + chi * folded
    return Field(u.grid, v), Field(u.grid, vx)


def banded_principal_eigenvalue(V: Field) -> float:
    """Smallest eigenvalue of the periodic -D2 - V by LAPACK's banded solver.

    Renumbering the ring as 0, m-1, 1, m-2, ... puts every periodic neighbour
    at most two places away, so the matrix is pentadiagonal; its lower band is
    filled edge by edge, and `eig_banded` (dsbevx) returns the one eigenvalue.
    """
    dx, m = V.grid.dx, V.grid.n - 1
    nodes = np.arange(m)
    pos = np.where(nodes <= (m - 1) // 2, 2 * nodes, 2 * (m - 1 - nodes) + 1)
    ab = np.zeros((3, m))
    ab[0, pos] = 2.0 / dx**2 - V.values[:m]
    a, b = pos, np.roll(pos, -1)  # the ring edges (i, i+1 mod m)
    np.add.at(ab, (np.abs(a - b), np.minimum(a, b)), -1.0 / dx**2)
    return float(eig_banded(ab, lower=True, eigvals_only=True, select="i", select_range=(0, 0))[0])
