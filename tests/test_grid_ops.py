"""Discrete operators against naive index-by-index oracles and identities."""

import numpy as np
import pytest

from llgsip.grid import (
    NEUMANN,
    PERIODIC,
    GridMismatchError,
    GridSpec,
    StaggeredGradient,
    VectorField,
    _face_weights,
    array_central_difference,
    array_gradient,
    array_laplacian,
    array_midpoint,
    gradient_apply,
    gradient_inner_product,
    grad_l2_norm,
    h1_norm,
    inner_product,
    interpolate_midpoint,
    laplacian_apply,
    l2_norm,
    linf_norm,
    lp_norm,
    norms,
)
from llgsip.effective_field import exchange_energy
from llgsip.exact import (
    blowup_initial,
    dissipation_initial,
    manufactured_solution,
    skyrmion_initial,
)

from conftest import node_weight, random_field, random_unit_field, small_grids


# ---------------------------------------------------------------------------
# naive oracles, written with explicit loops and independent index handling
# ---------------------------------------------------------------------------

def naive_gradient_2d(grid, data):
    """Per-axis face arrays of the planes ``data``, as planes."""
    data = np.moveaxis(data, 0, -1)
    nx, ny = grid.counts
    hx, hy = grid.spacing
    if grid.boundary == PERIODIC:
        gx = np.zeros((nx, ny, 3))
        gy = np.zeros((nx, ny, 3))
        for i in range(nx):
            for j in range(ny):
                gx[i, j] = (data[(i + 1) % nx, j] - data[i, j]) / hx
                gy[i, j] = (data[i, (j + 1) % ny] - data[i, j]) / hy
    else:
        gx = np.zeros((nx - 1, ny, 3))
        gy = np.zeros((nx, ny - 1, 3))
        for i in range(nx - 1):
            for j in range(ny):
                gx[i, j] = (data[i + 1, j] - data[i, j]) / hx
        for i in range(nx):
            for j in range(ny - 1):
                gy[i, j] = (data[i, j + 1] - data[i, j]) / hy
    return np.moveaxis(gx, -1, 0), np.moveaxis(gy, -1, 0)


def naive_laplacian_2d(grid, data):
    """The Laplacian of the planes ``data``, as planes."""
    data = np.moveaxis(data, 0, -1)
    nx, ny = grid.counts
    hx, hy = grid.spacing
    out = np.zeros_like(data)

    def node(i, j):
        if grid.boundary == PERIODIC:
            return data[i % nx, j % ny]
        ii = -i if i < 0 else (2 * (nx - 1) - i if i > nx - 1 else i)
        jj = -j if j < 0 else (2 * (ny - 1) - j if j > ny - 1 else j)
        return data[ii, jj]

    for i in range(nx):
        for j in range(ny):
            out[i, j] = (node(i + 1, j) - 2 * data[i, j] + node(i - 1, j)) / hx ** 2
            out[i, j] += (node(i, j + 1) - 2 * data[i, j] + node(i, j - 1)) / hy ** 2
    return np.moveaxis(out, -1, 0)


# ---------------------------------------------------------------------------
# gradient
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("boundary", [PERIODIC, NEUMANN])
def test_gradient_of_constant_is_zero(boundary):
    grid = GridSpec((6, 7), (0.3, 0.3), boundary=boundary)
    g = gradient_apply(VectorField.constant(grid, (1.5, -2.0, 0.25)))
    for axis in g.axes:
        assert np.all(axis == 0.0)


def test_gradient_sine_matches_direct_stencil():
    n = 8
    h = 2 * np.pi / n
    grid = GridSpec((n, n), (h, h))
    x = grid.axes_coordinates()[0]
    f = VectorField.from_function(grid, lambda X, Y: (np.sin(X), 0 * X, 0 * X))
    g = gradient_apply(f)
    for i in range(n):
        expected = (np.sin(x[(i + 1) % n]) - np.sin(x[i])) / h
        assert g.axes[0][0, i, :] == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("boundary", [PERIODIC, NEUMANN])
def test_gradient_matches_naive_loop(boundary, rng):
    grid = GridSpec((6, 5), (0.4, 0.7), boundary=boundary)
    f = random_field(grid, rng)
    g = gradient_apply(f)
    gx, gy = naive_gradient_2d(grid, f.data)
    assert np.max(np.abs(g.axes[0] - gx)) <= 1e-14
    assert np.max(np.abs(g.axes[1] - gy)) <= 1e-14


def test_gradient_grid_mismatch():
    g1 = GridSpec((4, 5), (0.5, 0.5))
    # a wrong grid, and the right grid with its components last
    for bad in (np.zeros((3, 4, 4)), np.zeros((4, 5, 3))):
        with pytest.raises(GridMismatchError):
            VectorField(g1, bad)


# ---------------------------------------------------------------------------
# midpoint interpolation
# ---------------------------------------------------------------------------

def test_midpoint_constant():
    grid = GridSpec((5, 5), (0.2, 0.2), boundary=NEUMANN)
    mid = interpolate_midpoint(VectorField.constant(grid, (1.0, 2.0, 3.0)))
    for axis in mid.axes:
        assert np.array_equal(axis, np.broadcast_to([[[1.0]], [[2.0]], [[3.0]]], axis.shape))


def test_midpoint_two_point_mean(rng):
    grid = GridSpec((2, 2), (1.0, 1.0), boundary=NEUMANN)
    f = random_field(grid, rng)
    mid = interpolate_midpoint(f)
    assert np.allclose(mid.axes[0][:, 0, 0], 0.5 * (f.data[:, 0, 0] + f.data[:, 1, 0]))


@pytest.mark.parametrize("boundary", [PERIODIC, NEUMANN])
def test_unit_field_midpoint_orthogonal_to_gradient(boundary, rng):
    # for |m| = 1 everywhere the interpolant and the difference are orthogonal
    for grid in small_grids(boundary):
        m = random_unit_field(grid, rng)
        g = gradient_apply(m)
        mid = interpolate_midpoint(m)
        for ga, ma in zip(g.axes, mid.axes):
            dots = np.sum(ga * ma, axis=0)
            assert np.max(np.abs(dots)) <= 1e-13


# ---------------------------------------------------------------------------
# laplacian
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("boundary", [PERIODIC, NEUMANN])
def test_laplacian_constant_exactly_zero(boundary):
    grid = GridSpec((7, 6), (0.3, 0.3), boundary=boundary)
    lap = laplacian_apply(VectorField.constant(grid, (0.3, -1.0, 2.0)))
    assert np.all(lap.data == 0.0)


def test_laplacian_fourier_eigenvalue():
    n = 16
    h = 2 * np.pi / n
    grid = GridSpec((n, n), (h, h))
    for k in (1, 3, 5):
        f = VectorField.from_function(
            grid, lambda X, Y: (np.cos(k * X), np.sin(k * X), 0 * X)
        )
        lap = laplacian_apply(f)
        eig = -(4.0 / h ** 2) * np.sin(k * h / 2) ** 2
        assert np.max(np.abs(lap.data - eig * f.data)) <= 1e-11


@pytest.mark.parametrize("boundary", [PERIODIC, NEUMANN])
def test_laplacian_matches_naive_loop(boundary, rng):
    grid = GridSpec((6, 5), (0.4, 0.7), boundary=boundary)
    f = random_field(grid, rng)
    lap = laplacian_apply(f)
    assert np.max(np.abs(lap.data - naive_laplacian_2d(grid, f.data))) <= 1e-12


def test_laplacian_periodic_shift_equivariance(rng):
    grid = GridSpec((6, 6), (0.5, 0.5))
    f = random_field(grid, rng)
    shifted = VectorField(grid, np.roll(f.data, (2, 3), axis=(1, 2)))
    a = laplacian_apply(shifted).data
    b = np.roll(laplacian_apply(f).data, (2, 3), axis=(1, 2))
    assert np.array_equal(a, b)


def padded_reference(grid, values, axis):
    """(values, upper, lower) neighbour arrays along array ``axis`` from an
    explicit ghost layer: np.pad reflection (m_{-1} = m_1) or periodic wrap."""
    pad = [(0, 0)] * values.ndim
    pad[axis] = (1, 1)
    mode = "reflect" if grid.boundary == NEUMANN else "wrap"
    p = np.pad(values, pad, mode=mode)
    n = values.shape[axis]
    return tuple(np.take(p, np.arange(n) + s, axis=axis) for s in (1, 2, 0))


STENCIL_GRIDS = [
    GridSpec((2, 3), (0.5, 0.25)),
    GridSpec((7, 6), (0.3, 0.7)),
    GridSpec((5, 2, 4), (0.5, 0.4, 0.3)),
    GridSpec((6, 5, 7), (0.2, 0.2, 0.2)),
]


@pytest.mark.parametrize("boundary", [PERIODIC, NEUMANN])
@pytest.mark.parametrize("leading", [(), (3,)])
def test_node_stencils_equal_padded_reference(boundary, leading, rng):
    # the in-place neighbour reads give the padded stencils' bits: the same
    # terms in the same order, ((f_{i+1} - 2 f_i) + f_{i-1}) / h^2 per axis
    for spec in STENCIL_GRIDS:
        grid = GridSpec(spec.counts, spec.spacing, boundary=boundary)
        values = rng.standard_normal(leading + grid.counts)
        lap = np.zeros_like(values)
        for a in range(grid.dim):
            mid, hi, lo = padded_reference(grid, values, len(leading) + a)
            lap += (hi - 2.0 * mid + lo) / grid.spacing[a] ** 2
            central = (hi - lo) / (2 * grid.spacing[a])
            assert np.array_equal(array_central_difference(grid, values, a), central)
        assert np.array_equal(array_laplacian(grid, values), lap)


@pytest.mark.parametrize("boundary", [PERIODIC, NEUMANN])
def test_face_stencils_equal_shifted_reference(boundary, rng):
    for spec in STENCIL_GRIDS:
        grid = GridSpec(spec.counts, spec.spacing, boundary=boundary)
        values = rng.standard_normal((3,) + grid.counts)
        grads, mids = array_gradient(grid, values), array_midpoint(grid, values)
        for a in range(grid.dim):
            hi, lo = np.roll(values, -1, axis=1 + a), values
            if boundary == NEUMANN:  # interior faces only
                keep = np.arange(grid.counts[a] - 1)
                hi, lo = hi.take(keep, axis=1 + a), lo.take(keep, axis=1 + a)
            assert np.array_equal(grads[a], (hi - lo) / grid.spacing[a])
            assert np.array_equal(mids[a], 0.5 * (hi + lo))


# ---------------------------------------------------------------------------
# inner products and summation by parts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("boundary", [PERIODIC, NEUMANN])
def test_summation_by_parts(boundary, rng):
    for grid in small_grids(boundary):
        f = random_field(grid, rng)
        g = random_field(grid, rng)
        lhs = -inner_product(laplacian_apply(f), g)
        rhs = gradient_inner_product(gradient_apply(f), gradient_apply(g))
        scale = h1_norm(f) * h1_norm(g) + 1.0
        assert abs(lhs - rhs) <= 1e-12 * scale


@pytest.mark.parametrize("boundary", [PERIODIC, NEUMANN])
def test_product_rule(boundary, rng):
    # grad(f . g) = grad f . mid g + mid f . grad g, pointwise on faces
    from llgsip.grid import array_gradient, array_midpoint

    for grid in small_grids(boundary):
        f = random_field(grid, rng)
        g = random_field(grid, rng)
        dot = np.sum(f.data * g.data, axis=0)
        lhs = array_gradient(grid, dot)
        gf, gg = gradient_apply(f), gradient_apply(g)
        mf, mg = interpolate_midpoint(f), interpolate_midpoint(g)
        for a in range(grid.dim):
            rhs = np.sum(gf.axes[a] * mg.axes[a], axis=0) + np.sum(
                mf.axes[a] * gg.axes[a], axis=0
            )
            assert np.max(np.abs(lhs[a] - rhs)) <= 1e-13


def test_inner_product_positive_definite(rng):
    grid = GridSpec((5, 5), (0.3, 0.3))
    f = random_field(grid, rng)
    assert inner_product(f, f) > 0
    assert inner_product(VectorField.zeros(grid), VectorField.zeros(grid)) == 0.0


def test_inner_product_symmetry(rng):
    grid = GridSpec((5, 4), (0.3, 0.3))
    f = random_field(grid, rng)
    g = random_field(grid, rng)
    assert inner_product(f, g) == pytest.approx(inner_product(g, f), rel=1e-15)


def test_inner_product_hand_value():
    # single node carrying (1, 2, 2) with h = 0.5 in 2D: 0.25 * 9 = 2.25
    grid = GridSpec((2, 2), (0.5, 0.5))
    f = VectorField.zeros(grid)
    f.data[:, 0, 0] = (1.0, 2.0, 2.0)
    assert inner_product(f, f) == pytest.approx(2.25, abs=1e-15)


def test_inner_product_grid_mismatch(rng):
    f = random_field(GridSpec((4, 4), (0.5, 0.5)), rng)
    g = random_field(GridSpec((4, 4), (0.4, 0.4)), rng)
    with pytest.raises(GridMismatchError):
        inner_product(f, g)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def test_norms_zero_field():
    grid = GridSpec((4, 4), (0.5, 0.5))
    vals = norms(VectorField.zeros(grid))
    assert all(v == 0.0 for v in vals.values())


def test_norms_hoelder(rng):
    # unit square: ||f||_2 <= ||f||_inf * |Omega|^(1/2)
    grid = GridSpec((10, 10), (0.1, 0.1))
    for _ in range(10):
        f = random_field(grid, rng)
        assert l2_norm(f) <= linf_norm(f) * 1.0 + 1e-14


def test_lp_norm_rejects_small_p(rng):
    f = random_field(GridSpec((4, 4), (0.5, 0.5)), rng)
    with pytest.raises(ValueError):
        lp_norm(f, 0.5)


def test_discrete_interpolation_inequality(rng):
    # ||f||_4 <= C ||f||_2^(1/4) ||f||_H1^(3/4); fit C on one batch of
    # random fields, then spot-check a fresh batch against it
    grid = GridSpec((12, 12), (0.25, 0.25))
    q = 4

    def ratio(f):
        return lp_norm(f, q) / (
            l2_norm(f) ** ((6 - q) / (2 * q)) * h1_norm(f) ** ((3 * q - 6) / (2 * q))
        )

    fitted = max(ratio(random_field(grid, rng)) for _ in range(50))
    for _ in range(50):
        assert ratio(random_field(grid, rng)) <= 1.05 * fitted


# ---------------------------------------------------------------------------
# component sums against reductions over per-node rows, bit for bit
# ---------------------------------------------------------------------------

def rows(planes):
    """The planes of a field or face array as per-node rows, components last."""
    return np.moveaxis(planes, 0, -1)


def reduced_inner_product(f, g):
    grid = f.grid
    w = np.reshape([node_weight(grid, i) for i in np.ndindex(grid.counts)], grid.counts)
    return float(grid.cell_volume * np.sum(w * np.sum(rows(f.data * g.data), axis=-1)))


def reduced_gradient_inner_product(F, G):
    grid = F.grid
    total = 0.0
    for a in range(grid.dim):
        prod = F.axes[a] * G.axes[a]
        if prod.ndim > grid.dim:
            prod = rows(prod).sum(axis=-1)
        total += np.sum(_face_weights(grid)[a] * prod)
    return float(grid.cell_volume * total)


def reduced_grad_l2_norm(f):
    g = gradient_apply(f)
    return float(np.sqrt(max(reduced_gradient_inner_product(g, g), 0.0)))


@pytest.mark.parametrize("boundary", [PERIODIC, NEUMANN])
def test_norms_equal_length_3_reductions(boundary, rng):
    grids = small_grids(boundary) + [
        GridSpec((33, 20), (0.1, 0.1), boundary=boundary),
        GridSpec((9, 11, 10), (0.3, 0.3, 0.3), boundary=boundary),
    ]
    for grid in grids:
        for f, g in ((random_field(grid, rng), random_field(grid, rng)),
                     (random_unit_field(grid, rng), random_unit_field(grid, rng))):
            f.data *= np.exp(rng.uniform(-20.0, 20.0, grid.counts))
            assert np.array_equal(f.pointwise_norm(),
                                  np.sqrt(np.sum(rows(f.data) ** 2, axis=-1)))
            assert inner_product(f, g) == reduced_inner_product(f, g)
            assert l2_norm(f) == float(np.sqrt(max(reduced_inner_product(f, f), 0.0)))
            F, G = gradient_apply(f), gradient_apply(g)
            assert gradient_inner_product(F, G) == reduced_gradient_inner_product(F, G)
            scalar = [StaggeredGradient(grid, tuple(x[1] for x in H.axes))
                      for H in (F, G)]
            assert (gradient_inner_product(*scalar)
                    == reduced_gradient_inner_product(*scalar))
            assert grad_l2_norm(f) == reduced_grad_l2_norm(f)
            assert exchange_energy(f) == 0.5 * reduced_grad_l2_norm(f) ** 2


# ---------------------------------------------------------------------------
# sampling closed forms on sparse coordinates
# ---------------------------------------------------------------------------

def sampled_on_meshgrid(grid, fn, t=None):
    coords = grid.meshgrid()
    comps = fn(*coords) if t is None else fn(*coords, t)
    data = np.stack([np.broadcast_to(c, grid.counts) for c in comps])
    return np.array(data, dtype=float)


TWO_PI = GridSpec((24, 19), (2 * np.pi / 24, 2 * np.pi / 19))
UNIT_SQUARE = GridSpec((33, 33), (1 / 32, 1 / 32), origin=(-0.5, -0.5), boundary=NEUMANN)
SAMPLED = [
    (TWO_PI, dissipation_initial),
    (UNIT_SQUARE, blowup_initial),
    (GridSpec((40, 31), (0.4, 0.4), boundary=NEUMANN),
     lambda x, y: skyrmion_initial(x, y, (7.8, 6.0), 3.0)),
    (GridSpec((5, 6, 7), (0.3, 0.2, 0.1), origin=(-1.0, 0.5, 2.0)),
     lambda x, y, z: (np.sin(x) * np.cos(y) * z, np.exp(-x * y * z), np.hypot(x, z))),
    (TWO_PI, lambda x, y: (np.sin(x), 0.5, np.cos(y))),
]


@pytest.mark.parametrize("grid, fn", SAMPLED)
def test_from_function_equals_meshgrid_sampling(grid, fn):
    assert np.array_equal(VectorField.from_function(grid, fn).data,
                          sampled_on_meshgrid(grid, fn))


@pytest.mark.parametrize("beta, gamma", [(1.0, 1.0), (0.0, 0.1), (-2.5, 3.0)])
def test_manufactured_fields_equal_meshgrid_sampling(beta, gamma):
    exact = manufactured_solution(beta, gamma)
    for t in (0.0, 1e-3, 0.37, 1.0, 12.5):
        for fn in (exact.m, exact.forcing):
            assert np.array_equal(VectorField.from_function(TWO_PI, fn, t=t).data,
                                  sampled_on_meshgrid(TWO_PI, fn, t))


def test_from_function_rejects_a_wrong_component_count():
    with pytest.raises(GridMismatchError, match="2 components"):
        VectorField.from_function(TWO_PI, lambda x, y: (x, y))
