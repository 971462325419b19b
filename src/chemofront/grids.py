"""Uniform 1-D grids, sampled fields with constant extensions and the
eigensolver's periodic difference."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np


def _check_bounds(x_min: float, x_max: float) -> None:
    if not (math.isfinite(x_min) and math.isfinite(x_max)):
        raise ValueError(f"grid bounds x_min = {x_min} and x_max = {x_max} must be finite")


@dataclass(frozen=True)
class Grid1D:
    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if self.n < 16:
            raise ValueError("grid needs at least 16 points")
        _check_bounds(self.x_min, self.x_max)
        if self.x_max <= self.x_min:
            raise ValueError("x_max must exceed x_min")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n - 1)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n)

    def index_of(self, x: float) -> int:
        """Index of the grid node nearest to x (x must lie on the grid)."""
        i = round((x - self.x_min) / self.dx)
        if not 0 <= i < self.n or abs(self.x_min + i * self.dx - x) > 1e-9 * max(1.0, self.dx):
            raise ValueError(f"{x} is not a grid node")
        return int(i)

    @staticmethod
    def from_spacing(x_min: float, x_max: float, dx: float) -> "Grid1D":
        if not 0.0 < dx < math.inf:
            raise ValueError(f"grid spacing dx = {dx} must be positive and finite")
        _check_bounds(x_min, x_max)
        steps = (x_max - x_min) / dx
        if not math.isfinite(steps):
            raise ValueError(f"grid spacing dx = {dx} gives a non-finite step count {steps}")
        n = round(steps) + 1
        return Grid1D(x_min, x_min + (n - 1) * dx, n)


def periodic_difference(y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out_i = y_{i+1} - y_i with periodic wrap (slices, no np.roll copies)."""
    np.subtract(y[1:], y[:-1], out=out[:-1])
    out[-1] = y[0] - y[-1]
    return out


@dataclass
class Field:
    """Samples on a uniform grid plus constant left/right extension values."""

    grid: Grid1D
    values: np.ndarray
    left_ext: float = 0.0
    right_ext: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n,):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid size {self.grid.n}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")

    def with_values(self, values: np.ndarray) -> "Field":
        return replace(self, values=np.asarray(values, dtype=float))

    def sup_norm(self) -> float:
        """Sup norm of the extended profile (extensions included)."""
        return max(
            float(np.max(np.abs(self.values))), abs(self.left_ext), abs(self.right_ext)
        )


def constant_field(grid: Grid1D, value: float) -> Field:
    return Field(grid, np.full(grid.n, float(value)), left_ext=value, right_ext=value)


def step_field(grid: Grid1D) -> Field:
    """1 for x < 0, 0 for x >= 0, with matching (1, 0) extensions."""
    values = np.where(grid.x < 0.0, 1.0, 0.0)
    return Field(grid, values, left_ext=1.0, right_ext=0.0)


def smoothed_step_field(grid: Grid1D) -> Field:
    """(1 + tanh(-x/2))/2 with (1, 0) extensions."""
    values = 0.5 * (1.0 + np.tanh(-grid.x / 2.0))
    return Field(grid, values, left_ext=1.0, right_ext=0.0)
