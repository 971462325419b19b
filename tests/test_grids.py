import numpy as np
import pytest

from chemofront.grids import Field, Grid1D

GRID = Grid1D(0.0, 1.0, 16)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Grid1D(0.0, 1.0, 15), "at least 16 points"),
        (lambda: Grid1D(1.0, 1.0, 16), "x_max must exceed x_min"),
        (lambda: Grid1D(1.0, 0.0, 16), "x_max must exceed x_min"),
        (lambda: Field(GRID, np.zeros(15)), r"values shape \(15,\) does not match grid size 16"),
        (lambda: Field(GRID, np.zeros((16, 1))), r"values shape \(16, 1\)"),
        (lambda: Field(GRID, np.full(16, np.nan)), "must be finite"),
        (lambda: Field(GRID, np.r_[np.zeros(15), np.inf]), "must be finite"),
    ],
)
def test_grid_and_field_refuse_what_they_cannot_hold(build, message):
    with pytest.raises(ValueError, match=message):
        build()
