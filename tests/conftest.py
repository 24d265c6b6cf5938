import numpy as np
import pytest

from llgsip.grid import PERIODIC, GridSpec, VectorField


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_field(grid, rng):
    return VectorField(grid, rng.standard_normal((3,) + grid.counts))


def random_unit_field(grid, rng):
    data = rng.standard_normal((3,) + grid.counts)
    data /= np.linalg.norm(data, axis=0)
    return VectorField(grid, data)


def small_grids(boundary):
    return [
        GridSpec((6, 5), (0.4, 0.4), boundary=boundary),
        GridSpec((4, 7), (0.25, 0.25), boundary=boundary),
        GridSpec((4, 5, 6), (0.5, 0.5, 0.5), boundary=boundary),
    ]


# ---------------------------------------------------------------------------
# per-node oracles, coded apart from the package's array stencils
# ---------------------------------------------------------------------------

def node_weight(grid, index):
    """Quadrature weight of one node: 1, halved once for every Neumann wall
    the node lies on."""
    if grid.boundary == PERIODIC:
        return 1.0
    return 0.5 ** sum(i in (0, n - 1) for i, n in zip(index, grid.counts))


def neighbour(grid, index, axis, step):
    """The node ``step`` (+1 or -1) away along ``axis``: across the wrap on a
    periodic grid, the reflected ghost m_{-1} = m_1, m_n = m_{n-2} at a
    Neumann wall."""
    i, n = index[axis] + step, grid.counts[axis]
    if grid.boundary == PERIODIC:
        i %= n
    elif not 0 <= i < n:
        i = index[axis] - step
    return index[:axis] + (i,) + index[axis + 1:]


def at(data, index):
    """The three components of the planes ``data`` at node ``index``."""
    return data[(slice(None),) + tuple(index)]


def central_difference(grid, data, index, axis):
    """(f at the next node - f at the previous node) / 2h along ``axis``."""
    upper, lower = (at(data, neighbour(grid, index, axis, s)) for s in (1, -1))
    return (upper - lower) / (2 * grid.spacing[axis])
