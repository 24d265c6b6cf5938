"""Uniform-grid discrete operators, inner products and norms in 2D/3D.

All fields live on the nodes of a uniform rectangular lattice with either
periodic wrap-around or homogeneous Neumann (ghost-reflection) boundaries.
Gradients and midpoint interpolants live on the half-point faces between
adjacent nodes.

Neumann boundaries use the reflection rule m_{-1} = m_{1}: central
differences vanish at the wall and the 3-point Laplacian at a boundary node
degenerates to 2*(m_1 - m_0)/h^2.  With trapezoidal node weights (half
weight on wall nodes) the summation-by-parts identity
    <-lap(f), g> == <grad(f), grad(g)>
holds exactly for both boundary kinds; the inner products below carry those
weights so the identity is an invariant of this module, not an
approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

PERIODIC = "periodic"
NEUMANN = "neumann"


class GridMismatchError(ValueError):
    """Raised when fields from different grids are combined."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform rectangular lattice descriptor.

    counts:   nodes per axis, e.g. (Nx, Ny) or (Nx, Ny, Nz)
    spacing:  mesh size per axis
    origin:   coordinate of node (0, 0[, 0])
    boundary: "periodic" or "neumann"
    """

    counts: tuple
    spacing: tuple
    origin: tuple = None
    boundary: str = PERIODIC

    def __post_init__(self):
        counts = tuple(int(n) for n in self.counts)
        spacing = tuple(float(h) for h in self.spacing)
        origin = self.origin
        if origin is None:
            origin = (0.0,) * len(counts)
        origin = tuple(float(x) for x in origin)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "origin", origin)
        if len(counts) not in (2, 3):
            raise ValueError(f"grid must be 2D or 3D, got {len(counts)} axes")
        if len(spacing) != len(counts) or len(origin) != len(counts):
            raise ValueError("counts, spacing and origin must have equal length")
        if any(n < 2 for n in counts):
            raise ValueError(f"need at least 2 nodes per axis, got {counts}")
        if any(h <= 0 for h in spacing):
            raise ValueError(f"spacing must be positive, got {spacing}")
        if self.boundary not in (PERIODIC, NEUMANN):
            raise ValueError(f"unknown boundary kind {self.boundary!r}")

    @property
    def dim(self):
        return len(self.counts)

    @property
    def num_nodes(self):
        return int(np.prod(self.counts))

    @property
    def cell_volume(self):
        return float(np.prod(self.spacing))

    def require_uniform(self):
        """The scheme's analysis assumes hx == hy (== hz)."""
        h = self.spacing[0]
        if any(abs(hi - h) > 1e-14 * abs(h) for hi in self.spacing):
            raise ValueError(f"solver requires uniform spacing, got {self.spacing}")
        return h

    def axes_coordinates(self):
        """1D coordinate arrays per axis."""
        return tuple(
            self.origin[a] + self.spacing[a] * np.arange(self.counts[a])
            for a in range(self.dim)
        )

    def meshgrid(self):
        """Node coordinate arrays, each of shape ``counts``."""
        return np.meshgrid(*self.axes_coordinates(), indexing="ij")


@dataclass
class VectorField:
    """One 3-vector per lattice node, stored as component planes: array
    shape (3,) + counts, ``data[k]`` the k-th component at every node."""

    grid: GridSpec
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.shape != (3,) + self.grid.counts:
            raise GridMismatchError(
                f"field shape {self.data.shape} does not match grid "
                f"{(3,) + self.grid.counts}"
            )

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros((3,) + grid.counts))

    @classmethod
    def constant(cls, grid, vec):
        vec = np.asarray(vec, dtype=float).reshape((3,) + (1,) * grid.dim)
        return cls(grid, np.array(np.broadcast_to(vec, (3,) + grid.counts)))

    @classmethod
    def from_function(cls, grid, fn, t=None, out=None):
        """Sample ``fn(*coords)`` or ``fn(*coords, t)`` at the nodes, into
        ``out`` (new if None).

        ``coords`` are the node coordinates per axis as broadcastable arrays
        (axis ``a``'s has length 1 but along ``a``), so ``fn`` must be built
        of elementwise NumPy operations; each node gets the bits of ``fn`` on
        the full meshgrid.  It returns the three components, each
        broadcastable to ``counts``.
        """
        coords = np.meshgrid(*grid.axes_coordinates(), indexing="ij", sparse=True)
        comps = fn(*coords) if t is None else fn(*coords, t)
        if len(comps) != 3:
            raise GridMismatchError(f"fn returned {len(comps)} components, expected 3")
        data = np.empty((3,) + grid.counts) if out is None else out
        for c, comp in enumerate(comps):
            data[c] = comp
        return cls(grid, data)

    def copy(self):
        return VectorField(self.grid, self.data.copy())

    def pointwise_norm(self, out=None, scratch=None):
        """|m| at every node, shape ``counts``, into ``out``; ``scratch``
        takes the squares (new arrays if None)."""
        squares = np.sum(np.square(self.data, out=scratch), axis=0, out=out)
        return np.sqrt(squares, out=squares)


@dataclass
class StaggeredGradient:
    """Per-axis arrays of values at half-point faces.

    ``axes[a]`` holds the values at faces i+1/2 along axis ``a``.  On
    periodic grids each axis carries ``counts[a]`` faces (the last one
    wraps); on Neumann grids only the ``counts[a] - 1`` interior faces are
    stored, the reflected ghost faces carrying no independent information.
    """

    grid: GridSpec
    axes: tuple

    def __post_init__(self):
        expected = _face_counts(self.grid)
        for a, arr in enumerate(self.axes):
            if arr.shape[-self.grid.dim:] != expected[a]:
                raise GridMismatchError(
                    f"axis {a} face array has shape {arr.shape}, expected "
                    f"trailing {expected[a]}"
                )


def _face_counts(grid):
    out = []
    for a in range(grid.dim):
        c = list(grid.counts)
        if grid.boundary == NEUMANN:
            c[a] -= 1
        out.append(tuple(c))
    return out


def _check_same_grid(f, g):
    if f.grid != g.grid:
        raise GridMismatchError("fields live on different grids")


# ---------------------------------------------------------------------------
# raw-array stencils (trailing axes are the spatial ones, leading shape free)
# ---------------------------------------------------------------------------

def carve(buf, *shapes, dtype=np.float64):
    """C-contiguous arrays of ``shapes`` and ``dtype``, laid one after the
    other over the bytes of the C-contiguous array ``buf``; each one that
    does not fit, or every one if ``buf`` is None, is a new array."""
    raw = None if buf is None else buf.reshape(-1).view(np.uint8)
    size = np.dtype(dtype).itemsize
    arrays, start = [], 0
    for shape in shapes:
        stop = start + math.prod(shape) * size
        if raw is None or stop > raw.size:
            arrays.append(np.empty(shape, dtype))
        else:
            arrays.append(raw[start:stop].view(dtype).reshape(shape))
        start = stop
    return arrays


def _cross(a, b, out, plane=None):
    """out = a x b over the leading axis, with the products and differences
    of np.cross in its order (so the same bits), but no casts or copies;
    ``plane`` (new if None) is scratch of one component's shape."""
    plane = np.empty_like(out[0]) if plane is None else plane
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        np.multiply(a[j], b[k], out=out[i])
        out[i] -= np.multiply(a[k], b[j], out=plane)
    return out


def _key(grid, axis, s):
    """Index key taking ``s`` along spatial ``axis``, all of every other axis."""
    return (Ellipsis, s) + (slice(None),) * (grid.dim - 1 - axis)


@lru_cache(maxsize=64)
def _neighbours(grid, axis):
    """(nodes, upper, lower) index keys covering spatial ``axis``, read in
    place; at a wall the ghost is m_{-1} = m_1, m_n = m_{n-2} (Neumann) or
    the node across the wrap (periodic).  Built once per grid and axis."""
    n = grid.counts[axis]
    lo, hi = (n - 1, 0) if grid.boundary == PERIODIC else (1, n - 2)
    ranges = ((slice(1, -1), slice(2, None), slice(None, -2)),
              (slice(0, 1), slice(1, 2), slice(lo, lo + 1)),
              (slice(n - 1, n), slice(hi, hi + 1), slice(n - 2, n - 1)))
    return tuple(tuple(_key(grid, axis, s) for s in keys) for keys in ranges)


def _node_stencil(grid, values, axis, kernel, out):
    """kernel(upper, node, lower, out) at every node along ``axis``, into the
    C-contiguous ``out``.  On the last axis it is one pass over the
    flattened array, whose values at the wall nodes, where the flat
    neighbours lie in the next or previous row, are then recomputed: so
    NumPy iterates no strided interior."""
    ranges = _neighbours(grid, axis)
    if axis == grid.dim - 1:
        if not out.flags.c_contiguous:  # else its flat view would be a copy
            raise ValueError("an output of a stencil must be C-contiguous")
        flat = values.reshape(-1)
        kernel(flat[2:], flat[1:-1], flat[:-2], out.reshape(-1)[1:-1])
        ranges = ranges[1:]
    for nodes, hi, lo in ranges:
        kernel(values[hi], values[nodes], values[lo], out[nodes])
    return out


def _second_difference(upper, node, lower, out):
    """The undivided (upper - 2 node) + lower, into ``out``."""
    np.multiply(node, 2.0, out=out)
    np.subtract(upper, out, out=out)
    out += lower


def _difference(upper, node, lower, out):
    np.subtract(upper, lower, out=out)


def _face(grid, values, axis, op, out=None):
    """The face array op(upper, lower) of the node values on either side of
    each face along ``axis``, into ``out`` (new if None, else C-contiguous).
    On a Neumann grid, the interior faces; on a periodic grid, the
    ``_node_stencil`` that stores face i+1/2 at node i, so the last face
    crosses the wrap."""
    if grid.boundary == NEUMANN:
        return op(values[_key(grid, axis, slice(1, None))],
                  values[_key(grid, axis, slice(None, -1))], out=out)
    out = np.empty_like(values, order="C") if out is None else out
    return _node_stencil(grid, values, axis,
                         lambda upper, node, lower, face: op(upper, node, out=face), out)


def array_gradient(grid, values):
    """Per-axis face arrays of forward differences (f_{i+1} - f_i)/h."""
    faces = tuple(_face(grid, values, a, np.subtract) for a in range(grid.dim))
    for face, h in zip(faces, grid.spacing):
        face /= h
    return faces


def array_midpoint(grid, values):
    """Per-axis face arrays of the means (f_{i+1} + f_i)/2."""
    faces = tuple(_face(grid, values, a, np.add) for a in range(grid.dim))
    for face in faces:
        face *= 0.5
    return faces


def array_laplacian(grid, values, out=None, term=None, scaled=True):
    """Second-order 3-point Laplacian ((f_{i+1} - 2f_i) + f_{i-1})/h^2,
    summed over the axes in order onto zero, into ``out``.

    With ``scaled`` False, the plain sum of the ``_second_difference`` along
    every axis, with no division and no zero start: h^2 times the Laplacian
    on a uniform grid, for the matvec, which folds 1/h^2 into its
    coefficients.  ``out`` and ``term`` (new if None) are C-contiguous
    arrays of the shape of ``values``, ``term`` scratch.
    """
    out = np.empty_like(values, order="C") if out is None else out
    term = np.empty_like(values, order="C") if term is None else term
    for a in range(grid.dim):
        acc = _node_stencil(grid, values, a, _second_difference, out if a == 0 else term)
        if scaled:
            acc /= grid.spacing[a] ** 2
        if a > 0:
            out += term
        elif scaled:
            out += 0.0  # 0 + t: a -0.0 term sums to +0.0, as onto zeros
    return out


def array_central_difference(grid, values, axis, out=None):
    """Node-centered central difference (f_{i+1} - f_{i-1})/(2h), into
    ``out`` (new if None, else C-contiguous), by ``_node_stencil``.

    With ghost reflection the derivative vanishes at Neumann walls.
    """
    out = np.empty_like(values, order="C") if out is None else out
    _node_stencil(grid, values, axis, _difference, out)
    out /= 2 * grid.spacing[axis]
    return out


# ---------------------------------------------------------------------------
# field-level operators
# ---------------------------------------------------------------------------

def gradient_apply(f: VectorField) -> StaggeredGradient:
    """Discrete gradient: forward differences at the half-point faces."""
    return StaggeredGradient(f.grid, array_gradient(f.grid, f.data))


def interpolate_midpoint(f: VectorField) -> StaggeredGradient:
    """Matched central interpolation at the half-point faces."""
    return StaggeredGradient(f.grid, array_midpoint(f.grid, f.data))


def laplacian_apply(f: VectorField) -> VectorField:
    return VectorField(f.grid, array_laplacian(f.grid, f.data))


# ---------------------------------------------------------------------------
# weights, inner products, norms
# ---------------------------------------------------------------------------

def _trapezoid(shape, axes):
    """Product over ``axes`` of 1-D trapezoidal weights (half at both ends)."""
    w = np.ones(shape)
    for b in axes:
        wb = np.ones(shape[b])
        wb[0] = wb[-1] = 0.5
        w = w * wb.reshape([-1 if c == b else 1 for c in range(len(shape))])
    return w


@lru_cache(maxsize=64)
def _node_weights(grid):
    """Quadrature weight per node, shape ``counts``.

    All-ones for periodic grids; trapezoidal (half weight on wall nodes,
    tensorized over axes) for Neumann grids.  These weights are what makes
    summation by parts exact for the reflection Laplacian.
    """
    return _trapezoid(grid.counts, range(grid.dim) if grid.boundary == NEUMANN else ())


@lru_cache(maxsize=32)
def _axis_eigenbasis(n, h, boundary):
    """Eigenpairs (lam, V, V^-1) of the 1-D three-point Laplacian on one axis.

    L is ``_node_stencil`` of ``_second_difference`` on the identity over
    h^2, with the matvec's own ghost rule.  Its Neumann rows reflect, so L
    is not symmetric; with the ``_trapezoid`` weights W (all ones on
    periodic axes) W L is, and so is S = W^-1/2 (W L) W^-1/2 = W^1/2 L W^-1/2.
    From S = U diag(lam) U^T with orthogonal U, V = W^-1/2 U and
    V^-1 = U^T W^1/2.  One code path serves both boundaries and every n.
    """
    line = GridSpec((n, n), (h, h), boundary=boundary)
    lap = _node_stencil(line, np.eye(n), 0, _second_difference, np.empty((n, n))) / h ** 2
    w = _trapezoid((n,), (0,) if boundary == NEUMANN else ())
    s = np.sqrt(w)
    # W L and s_i s_j are both exactly symmetric, so S is too
    lam, u = np.linalg.eigh(w[:, None] * lap / np.outer(s, s))
    basis = (lam, u / s[:, None], u.T * s)
    for arr in basis:
        arr.flags.writeable = False  # shared by every caller through the cache
    return basis


@lru_cache(maxsize=64)
def _face_weights(grid):
    """Per-axis quadrature weight for face sums.

    Full weight along the differencing axis, trapezoidal weights in the
    transverse directions on Neumann grids.
    """
    walls = range(grid.dim) if grid.boundary == NEUMANN else ()
    return tuple(
        _trapezoid(shape, [b for b in walls if b != a])
        for a, shape in enumerate(_face_counts(grid))
    )


def _weighted_sum(grid, products, weights, out=None):
    """sum(weights * products), the leading component axis of ``products``,
    if any, contracted first into ``out`` (new if None); overwrites
    ``products``.  On a periodic grid the weights are all ones and are not
    applied."""
    if products.ndim > grid.dim:
        products = np.sum(products, axis=0, out=out)
    if grid.boundary == NEUMANN:
        products *= weights
    return np.sum(products)


def node_sum(grid, values, out=None):
    """Sum over the nodes of ``values`` (overwritten) with the quadrature
    weights of the l2 inner product, a leading component axis, if any,
    contracted first into ``out`` (new if None).  Every node integral in the
    package goes through here, so summation by parts stays exact."""
    return _weighted_sum(grid, values, _node_weights(grid), out)


def inner_product(f: VectorField, g: VectorField) -> float:
    """Discrete l2 inner product, h^dim-weighted sum of pointwise dots."""
    _check_same_grid(f, g)
    return float(f.grid.cell_volume * node_sum(f.grid, f.data * g.data))


def _face_total(grid, products):
    """h^dim-weighted sum over every face of the per-axis face arrays
    ``products`` (overwritten)."""
    total = 0.0
    for prod, w in zip(products, _face_weights(grid)):
        total += _weighted_sum(grid, prod, w)
    return float(grid.cell_volume * total)


def gradient_inner_product(F: StaggeredGradient, G: StaggeredGradient) -> float:
    """h^dim-weighted sum over all faces of the per-face contractions."""
    if F.grid != G.grid:
        raise GridMismatchError("staggered gradients live on different grids")
    return _face_total(F.grid, (Fa * Ga for Fa, Ga in zip(F.axes, G.axes)))


def l2_norm(f: VectorField, scratch=None) -> float:
    """||f||_2.  ``scratch`` (new arrays if None) takes the squares and
    then their component sum; it may start with ``f.data`` itself, which
    is then overwritten."""
    squares, plane = carve(scratch, f.data.shape, f.data.shape[1:])
    total = node_sum(f.grid, np.square(f.data, out=squares), plane)
    return float(np.sqrt(max(float(f.grid.cell_volume * total), 0.0)))


def grad_l2_norm(f: VectorField, scratch=None) -> float:
    """||grad_h f||_2, one axis at a time: ``scratch`` (new arrays if None)
    takes that axis's face array and then its component sum, 4/3 of
    ``f.data`` at most."""
    grid, total = f.grid, 0.0
    for a, weights in enumerate(_face_weights(grid)):
        face, plane = carve(scratch, f.data.shape[:1] + weights.shape, weights.shape)
        face = _face(grid, f.data, a, np.subtract, face)
        face /= grid.spacing[a]
        total += _weighted_sum(grid, np.square(face, out=face), weights, plane)
    return float(np.sqrt(max(float(grid.cell_volume * total), 0.0)))


def lp_norm(f: VectorField, p) -> float:
    if p < 1:
        raise ValueError(f"lp norm needs p >= 1, got {p}")
    if np.isinf(p):
        return linf_norm(f)
    total = node_sum(f.grid, f.pointwise_norm() ** p)
    return float((f.grid.cell_volume * total) ** (1.0 / p))


def linf_norm(f: VectorField) -> float:
    return float(np.max(f.pointwise_norm()))


def h1_norm(f: VectorField) -> float:
    return float(np.sqrt(l2_norm(f) ** 2 + grad_l2_norm(f) ** 2))


def norms(f: VectorField, p=4):
    """All discrete norms at once: l2, lp, linf and the full H1 norm."""
    return {
        "l2": l2_norm(f),
        "lp": lp_norm(f, p),
        "linf": linf_norm(f),
        "h1": h1_norm(f),
    }
