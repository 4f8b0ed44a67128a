"""A sweep chunk holds lambda, mu, delta, t and xi as (values, index) pairs:
the distinct values of the chunk's rows and each row's index into them.
Gathered, they must be the plain per-row columns, bit for bit, however the
grid is split into chunks."""

import math

import numpy as np
import pytest

from chebbounds.bounds import closed_form
from chebbounds.classop import _grid_columns, param_axes
from chebbounds.cli import sweep_rows

# (lambda, mu, delta, t) axes with singleton axes inside and at the ends
AXES = {
    "inner-singleton": ([1.0, 2.0, 3.0], [0.5], [0.0, 1.0], np.linspace(0.55, 0.95, 5)),
    "outer-singletons": ([2.0], [0.0, 0.5, 1.0, 1.5], [0.25, 0.75], [0.6]),
}
# rows a chunk; 64 is more than either grid has
CHUNKS = [1, 7, 64]


def plain_columns(axes) -> list[np.ndarray]:
    """lambda, mu, delta, t and xi, one value a grid point."""
    grid = [g.ravel() for g in np.meshgrid(*axes, indexing="ij")]
    return grid + [closed_form(*grid).factors.xi]


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("name", list(AXES))
def test_pairs_gather_the_plain_columns(name, chunk):
    axes = param_axes(*AXES[name])
    plain = plain_columns(axes)
    n_rows = math.prod(len(axis) for axis in axes)
    # every start, so that chunks meet the axes' runs at every offset
    for start in range(n_rows):
        stop = min(start + chunk, n_rows)
        pairs = sweep_rows(axes, start, stop, (0.0, 2.0), "corrected")[:5]
        for (values, index), column in zip(pairs, plain):
            assert len(values) <= stop - start
            assert values[index].tobytes() == column[start:stop].tobytes()


def test_whole_grid_is_the_axes():
    axes = param_axes(*AXES["inner-singleton"])
    for (values, index), axis, column in zip(_grid_columns(axes), axes, plain_columns(axes)):
        assert values is axis
        assert values[index].tobytes() == column.tobytes()
