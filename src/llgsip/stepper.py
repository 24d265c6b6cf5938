"""One time step of the semi-implicit projection scheme, plus the time loop.

Each step solves the linear system

    A(mt) = mt + dt*[beta m x lap_h(mt) + gamma m x (m x lap_h(mt))]
          = m - dt*[beta m x H + gamma m x (m x H)] + dt*f

matrix-free with restarted GMRES (m the previous, pointwise unit state; H
the explicit non-exchange field; f an optional forcing), then renormalizes
mt node by node back onto the unit sphere.  As m is unit, both sides take
beta m x w + gamma m x (m x w) as one 3x3 matrix per node, built once per
solve (``_local_operator``).  ``gmres`` is this module's own
right-preconditioned solver, run to the fixed ``SolverConfig.rel_tol``, and
every solve is preconditioned by the inverse of A's tangent-plane diffusion
and precession, exact for uniform m up to float32 rounding (see
``_tangent_plane_preconditioner``, which runs in single precision).
The module needs NumPy alone.

``run`` starts each solve from a polynomial extrapolation of the last
increments d^j = mt^j - m^(j-1): the first from m^n, the second from
m^n + d^n, the third from m^n + 2d^n - d^(n-1), and every later one from
the cubic start m^n + 3(d^n - d^(n-1)) + d^(n-2) (``_extrapolated_start``).
It also keeps the last three increments and one ``StepWorkspace`` for all
its steps: the Krylov vectors, the start that each solve overwrites with
mt, and every full-size temporary of the matvec, the preconditioner, the
right-hand side and the energy.  This storage is allocated, and faulted
in, once per run; a step allocates its new state and little else.  Each
buffered operation keeps the order of operations of an allocating one, so
the bits do not depend on where the arrays live.

Without forcing the intermediate solution satisfies mt . m == 1 and
|mt| >= 1 at every node (up to solver tolerance), which is what makes the
projection both well defined and energy dissipative.  The explicit field
keeps both, as its cross terms are orthogonal to m.  ``step`` measures
them once per step, in its ``StepReport``; ``INVARIANTS`` bounds them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .effective_field import (EXCHANGE_ONLY, EXTENDED, FieldModel, dmi_derivatives,
                              explicit_field_apply, extended_energy)
from .grid import NEUMANN, GridMismatchError, VectorField, array_laplacian, carve, l2_norm


class SolverError(RuntimeError):
    """Krylov solve failed; carries the residual history."""

    def __init__(self, message, residuals):
        super().__init__(message)
        self.residuals = residuals


class DegenerateStateError(RuntimeError):
    """An intermediate node collapsed to (numerically) zero length."""


# what a failed step raises: a missed solve, a collapsed node, a non-finite state
STEP_ERRORS = (SolverError, DegenerateStateError, FloatingPointError)


@dataclass(frozen=True)
class SchemeParams:
    """Physical and scheme constants.

    beta:    precession coefficient
    gamma:   damping coefficient, > 0
    dt:      time step, > 0
    model:   effective-field model
    forcing: optional closure (x, y[, z], t) -> 3 components at the new
             (implicit) time, sampled by ``VectorField.from_function``: a
             product of per-axis factors takes each factor once per line
    """

    beta: float
    gamma: float
    dt: float
    model: FieldModel = field(default_factory=FieldModel.exchange_only)
    forcing: object = None

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError(f"damping must be positive, got {self.gamma}")
        # dt == 0 is allowed as a degenerate case (A reduces to the identity)
        if not self.dt >= 0:
            raise ValueError(f"time step must be nonnegative, got {self.dt}")


@dataclass(frozen=True)
class SolverConfig:
    """The fixed GMRES settings every solve uses."""

    rel_tol: ClassVar[float] = 1e-12  # the bounds of INVARIANTS rest on it
    max_iter: ClassVar[int] = 500  # restart cycles
    restart: ClassVar[int] = 30


# The pointwise guarantees of an unforced step from unit m:
# (StepReport field, what it measures, bound, whether the bound is a lower one)
INVARIANTS = (
    ("max_length_error", "||m|-1|", 1e-14, False),
    ("min_intermediate_length", "min|mt|", 1.0 - 1e-9, True),
    ("max_orthogonality_error", "|mt.m-1|", 1e-9, False),
)
# The energy rise a step may show, per field model: round-off only where the
# scheme is provably dissipative; more with the explicit anisotropy and DMI
ENERGY_RISE = {EXCHANGE_ONLY: 1e-8, EXTENDED: 1e-6}


@dataclass
class StepReport:
    """Per-step diagnostics."""

    step_index: int
    time: float
    krylov_iters: int
    residual: float
    min_intermediate_length: float
    energy: float
    max_length_error: float
    max_orthogonality_error: float

    def invariant_failures(self):
        """{what: message} for each entry of ``INVARIANTS`` this step broke."""
        failures = {}
        for name, what, bound, lower in INVARIANTS:
            value = float(getattr(self, name))
            if not (value >= bound if lower else value <= bound):
                failures[what] = (
                    f"{what} = {value!r} at step {self.step_index} "
                    f"(bound {'>=' if lower else '<='} {bound!r})"
                )
        return failures


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


def _local_operator(grid, m, params, out=None, scratch=None):
    """Q = c_gamma (m m^T - I) + c_beta [m]x at every node of the unit m,
    shape (3, 3) + counts, with c_beta, c_gamma = (beta, gamma) dt / h^2 and
    [m]x w = m x w; into ``out`` (new if None).  For unit m, Q S is
    c_gamma m x (m x S) + c_beta m x S.  ``scratch`` (a field, new if None)
    takes c_beta m; the beta term is skipped at beta = 0."""
    scale = params.dt / grid.require_uniform() ** 2
    q = np.multiply(m[:, None], m, out=out)
    q.reshape((9,) + m.shape[1:])[::4] -= 1.0  # the diagonal
    q *= params.gamma * scale
    if params.beta != 0:
        cm = np.multiply(m, params.beta * scale, out=scratch)
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            q[i, k] += cm[j]
            q[i, j] -= cm[k]
    return q


def _apply_operator(grid, v, q, scratch=None):
    """A(v) = v + Q S on raw planes, the one definition of A: S = h^2 lap_h v,
    the undivided second differences, and Q the ``_local_operator`` of m.
    ``scratch`` (shape (2,) + v.shape, new if None) takes S and its scratch,
    then the result."""
    s, out = np.empty((2,) + v.shape) if scratch is None else scratch
    s = array_laplacian(grid, v, out=s, term=out, scaled=False)
    np.einsum("ij...,j...->i...", q, s, out=out)
    out += v
    return out


def operator_apply(v: VectorField, m_prev: VectorField, params: SchemeParams) -> VectorField:
    """Left-hand operator A(v) = v + dt*[beta m x lap v + gamma m x (m x lap v)],
    for pointwise unit ``m_prev`` on a uniform grid."""
    if v.grid != m_prev.grid:
        raise GridMismatchError("operand and previous state live on different grids")
    q = _local_operator(v.grid, m_prev.data, params)
    return VectorField(v.grid, _apply_operator(v.grid, v.data, q))


def _state_derivatives(m, work):
    """The ``dmi_derivatives`` of the state m in ``work``, taken once per
    state: the energy of m^(n+1) and the explicit field of the step from it
    share them.  ``work.derivs_of`` is the array they were taken of."""
    if work.derivs_of is not m.data:
        work.derivs = dmi_derivatives(m, out=work.krylov[:2])
        work.derivs_of = m.data
    return work.derivs


def _build_rhs(m_prev, params, t_new, work):
    """The right-hand side m - h^2 Q H + dt*f, Q the ``_local_operator`` of
    m in ``work.local``, in ``work.rhs``."""
    rhs = work.rhs
    np.copyto(rhs, m_prev.data)
    field, product = work.fields
    if params.model.variant != EXCHANGE_ONLY:
        h_expl = explicit_field_apply(m_prev, params.model, _state_derivatives(m_prev, work),
                                      out=field, plane=work.plane).data
        qh = np.einsum("ij...,j...->i...", work.local, h_expl, out=product)
        qh *= m_prev.grid.require_uniform() ** 2
        rhs -= qh
    if params.forcing is not None:
        f = VectorField.from_function(m_prev.grid, params.forcing, t=t_new, out=field).data
        f *= params.dt
        rhs += f
    return rhs


@lru_cache(maxsize=32)
def _axis_eigenbasis(n, h, boundary):
    """Eigenpairs (lam, V, V^-1) of the 1-D three-point Laplacian on one axis.

    Neumann rows reflect (m_{-1} = m_1), so the matrix L is not symmetric;
    with the trapezoidal weights W (all ones on periodic axes) W L is, and
    so is S = W^-1/2 (W L) W^-1/2 = W^1/2 L W^-1/2.  From S = U diag(lam) U^T
    with orthogonal U, V = W^-1/2 U and V^-1 = U^T W^1/2.  One code path
    serves both boundaries and every n.
    """
    eye = np.eye(n)
    lap = (np.roll(eye, 1, axis=0) + np.roll(eye, -1, axis=0) - 2.0 * eye) / h ** 2
    w = np.ones(n)
    if boundary == NEUMANN:
        lap[0, -1] = lap[-1, 0] = 0.0
        lap[0, 1] = lap[-1, -2] = 2.0 / h ** 2
        w[0] = w[-1] = 0.5
    s = np.sqrt(w)
    # W L and s_i s_j are both exactly symmetric, so S is too
    lam, u = np.linalg.eigh(w[:, None] * lap / np.outer(s, s))
    basis = (lam, u / s[:, None], u.T * s)
    for arr in basis:
        arr.flags.writeable = False  # shared by every caller through the cache
    return basis


@lru_cache(maxsize=32)
def _spectral_factors(grid, beta, gamma, dt, dtype):
    """What ``_tangent_plane_preconditioner`` keeps over a run, in ``dtype``:
    each axis's V and V^-1, and the scaling (F1, F2) stacked on a leading
    axis (1/a alone at beta = 0), cast from the float64 eigenbases."""
    bases = [_axis_eigenbasis(n, h, grid.boundary) for n, h in zip(grid.counts, grid.spacing)]
    # eigenvalues of lap_h, one per tensor-product mode
    eig = sum(np.meshgrid(*(lam for lam, _, _ in bases), indexing="ij", sparse=True))
    a = 1.0 - gamma * dt * eig
    b = beta * dt * eig
    scale = (np.stack((a, b)) / (a * a + b * b))[:1 if beta == 0 else 2, None]
    factors = ([vecs.astype(dtype) for _, vecs, _ in bases],
               [inv.astype(dtype) for _, _, inv in bases], scale.astype(dtype))
    for arr in factors[0] + factors[1] + [factors[2]]:
        arr.flags.writeable = False  # shared by every caller through the cache
    return factors


def _along_axis(mat, values, axis, out=None):
    """Apply the matrix ``mat`` along one axis of a raw array by matmul, into
    ``out`` (new if None): mat times each stacked (n, after) block, or on
    the last axis the rows times mat^T.  A C-contiguous array is not copied."""
    if axis == values.ndim - 1:
        return np.matmul(values, mat.T, out=out)
    blocks = values.shape[:axis + 1] + (-1,)
    out = np.empty_like(values) if out is None else out
    np.matmul(mat, values.reshape(blocks), out=out.reshape(blocks))
    return out


def _tangent_plane_preconditioner(grid, m, params, work=None, dtype=np.float32):
    """x -> m(m.x) + P [V F1 V^-1 P x - m x (V F2 V^-1 P x)], P = I - m m^T.

    For unit m, m x (m x w) = m(m.w) - w, so A = I - dt(gamma P - beta J)
    lap_h with J = m x: the identity on the component normal to m, and on
    the tangent plane, where J^2 = -I, a + bJ per eigenmode lam of lap_h,
    with a = 1 - gamma dt lam and b = beta dt lam.  This keeps the normal
    component and inverts the tangent part as (a - bJ)/(a^2 + b^2), exactly
    so for uniform m up to float32 rounding.  F1 = a/(a^2 + b^2) and
    F2 = b/(a^2 + b^2) are diagonal in the tensor product of the per-axis
    eigenbases, so both halves share one forward and one inverse transform.
    With beta = 0, F2 vanishes and only the diffusion half is applied.
    ``m`` and x are planes, shape (3, N0, N1[, N2]), so each per-axis
    transform is a matmul.

    The apply runs in ``dtype`` (float32: single-precision GEMMs) and
    writes float64 into ``out`` (new if None).  GMRES keeps each direction
    it returns and decides the solve on the float64 true residual, so an
    inexact M^-1 costs at most iterations, never accuracy; float64 is for
    tests of the algebra alone.  In float32 the ``StepWorkspace`` ``work``
    holds every intermediate: m and three planes in ``work.single``, two
    stacks of (F1, F2) in the bytes of ``work.fields``.  Without ``work``,
    or where an intermediate does not fit, it is a new array.
    """
    vecs, invs, scale = _spectral_factors(grid, params.beta, params.gamma, params.dt, dtype)
    single, fields = (None, None) if work is None else (work.single, work.fields)
    m_cast, planes = carve(single, m.shape, m.shape, dtype=dtype)
    np.copyto(m_cast, m)
    m = m_cast
    first, second = carve(fields, (2,) + m.shape, (2,) + m.shape, dtype=dtype)
    halves = len(scale)

    def apply(x, out=None):
        t, u = second  # x, then P x and its forward transforms, back and forth
        np.copyto(t, x)
        mx = np.einsum("i...,i...->...", m, t, out=planes[0])
        t = np.subtract(t, np.multiply(m, mx, out=u), out=u)
        u = second[0]
        for k, inv in enumerate(invs):
            t, u = _along_axis(inv, t, k + 1, u), t
        # (F1 t, F2 t) on a leading axis, so one inverse transform serves
        # both halves; with beta = 0 the axis holds F1 t = t / a alone
        t, u = np.multiply(scale, t, out=first[:halves]), second[:halves]
        for k, mat in enumerate(vecs):
            t, u = _along_axis(mat, t, k + 2, u), t
        # u, the other stack, is free again
        t = t[0] if halves == 1 else np.subtract(t[0], _cross(m, t[1], u[0], planes[1]),
                                                  out=u[0])
        # project back onto the tangent plane, keep m(m.x)
        mt = np.einsum("i...,i...->...", m, t, out=planes[2])
        t += np.multiply(m, np.subtract(mx, mt, out=mt), out=u[-1])
        out = np.empty(t.shape) if out is None else out
        np.copyto(out, t)
        return out

    return apply


def krylov_workspace(shape, restart):
    """Storage for the Krylov vectors of ``gmres`` on arrays of ``shape``:
    restart + 1 Arnoldi vectors and restart preconditioned directions.
    Rows are written before they are read, so it may be reused by any solve
    of that shape and restart; rows a solve does not reach are not touched."""
    return np.empty((2 * restart + 1,) + tuple(shape))


class StepWorkspace:
    """Every full-size array of a step on a grid of ``counts``, for a run to
    allocate once and pass to each ``step``:

    krylov:     the ``krylov_workspace``
    local:      the ``_local_operator`` Q of the solve's m, nine planes
    start:      the start of the solve, which the solve overwrites with mt
    rhs:        the right-hand side
    fields:     two fields of scratch: the matvec's second differences
                and result, c_beta m, the explicit field and Q H, the
                forcing, the float32 preconditioner's two stacks, the
                energy's face arrays
    single:     m and three planes in float32, for the preconditioner
    plane:      one component of scratch
    derivs:     the ``dmi_derivatives`` of the state ``derivs_of``, over the
                first Krylov rows: valid from a step's energy to the next
                solve
    """

    def __init__(self, counts, restart):
        counts = tuple(counts)
        shape = (3,) + counts
        self.krylov = krylov_workspace(shape, restart)
        self.local = np.empty((3,) + shape)
        self.start = np.empty(shape)
        self.rhs = np.empty(shape)
        self.fields = np.empty((2,) + shape)
        self.single = np.empty((2,) + shape, dtype=np.float32)
        self.plane = np.empty(counts)
        self.derivs = None
        self.derivs_of = None


def gmres(matvec, b, x0, *, rtol, restart, max_iter, psolve=None, callback=None,
          work=None):
    """Restarted GMRES for A x = b, right-preconditioned by ``psolve``, in
    place of the start ``x0``.

    ``matvec`` maps an array of the shape of ``b`` to A times it; it may
    return a buffer of its own, as each result is used up before the next
    call.  ``psolve(v, out)`` writes M^-1 v into ``out``.  Each cycle
    starts from the true residual r, runs up to ``restart`` Arnoldi steps
    on A M^-1 (modified Gram-Schmidt, Givens rotations) and keeps each
    direction z_j = M^-1 v_j, so that it ends in x += Z y with no further
    apply; then one matvec takes r = b - A x.  A cycle stops early once the
    estimate |g| of ||b - A x|| drops to ``rtol`` ||b||, and the solve once
    the true ||r|| does, or after ``max_iter`` cycles.  A solve of k
    iterations in c cycles costs k applies and k + c + 1 matvecs.
    ``callback`` gets |g| / ||b|| once per iteration.  ``work`` is a
    ``krylov_workspace`` for the solve (a new one if None); r takes its
    first Arnoldi row and Z y the row after a cycle's last one.  Returns
    (x0, ||b - A x0|| / ||b||), x0 the solution and the residual from the
    last matvec.
    """
    if work is None:
        work = krylov_workspace(b.shape, restart)
    if work.shape != (2 * restart + 1,) + b.shape:
        raise ValueError(f"workspace of shape {work.shape} does not fit restart "
                         f"{restart} and vectors of shape {b.shape}")
    if np.may_share_memory(x0, b):
        raise ValueError("the start is solved in place, so it may not share memory with b")
    x = x0
    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        x[...] = 0.0
        return x, 0.0
    basis = work[:restart + 1]
    dirs = work if psolve is None else work[restart + 1:]  # z_j = v_j unpreconditioned
    target = rtol * b_norm
    r = np.subtract(b, matvec(x), out=basis[0])
    r_norm = np.linalg.norm(r)
    for _ in range(max_iter):
        if r_norm <= target:
            break
        hess = np.zeros((restart + 1, restart))
        g = np.zeros(restart + 1)
        g[0] = r_norm
        rotations = []
        r /= r_norm  # the first Arnoldi vector
        for j in range(restart):
            if psolve is not None:
                psolve(basis[j], dirs[j])
            w = matvec(dirs[j])
            w_norm = np.linalg.norm(w)
            for i in range(j + 1):
                hess[i, j] = np.vdot(basis[i], w)
                # v_{j+1} is not yet written: scratch for the product
                w -= np.multiply(hess[i, j], basis[i], out=basis[j + 1])
            hess[j + 1, j] = np.linalg.norm(w)
            # lucky breakdown: A z_j lies in the basis, so x is exact in it
            breakdown = hess[j + 1, j] <= np.finfo(float).eps * w_norm
            if breakdown:
                hess[j + 1, j] = 0.0
            else:
                np.divide(w, hess[j + 1, j], out=basis[j + 1])
            for i, (c, s) in enumerate(rotations):
                hess[i, j], hess[i + 1, j] = (c * hess[i, j] + s * hess[i + 1, j],
                                              c * hess[i + 1, j] - s * hess[i, j])
            mag = math.hypot(hess[j, j], hess[j + 1, j])
            c, s = hess[j, j] / mag, hess[j + 1, j] / mag
            rotations.append((c, s))
            hess[j, j], hess[j + 1, j] = mag, 0.0
            g[j], g[j + 1] = c * g[j], -s * g[j]
            if callback is not None:
                callback(float(abs(g[j + 1]) / b_norm))
            if abs(g[j + 1]) <= target or breakdown:
                break
        k = j + 1
        y = g[:k]  # back substitution in the rotated, upper triangular hess
        for i in range(k - 1, -1, -1):
            y[i] = (y[i] - hess[i, i + 1:k] @ y[i + 1:]) / hess[i, i]
        # Z y as np.tensordot forms it, into v_k, which is used up
        zy = basis[k]
        np.dot(y[None, :], dirs[:k].reshape(k, -1), out=zy.reshape(1, -1))
        x += zy
        r = np.subtract(b, matvec(x), out=basis[0])
        r_norm = np.linalg.norm(r)
    return x, float(r_norm / b_norm)


def solve_intermediate(m_prev: VectorField, params: SchemeParams, cfg: SolverConfig,
                       t_new, x0=None, work=None):
    """Solve A(mt) = rhs matrix-free in the ``StepWorkspace`` ``work`` (a
    new one if None), from the start ``x0``, a field on the grid that the
    solve overwrites with mt (if None, a copy of m_prev in ``work.start``);
    returns (mt, krylov_iters, residual).

    ``krylov_iters`` counts the solve's matvecs but the final true-residual
    one, and ``residual`` is that true ||rhs - A mt|| / ||rhs||: above
    10 * rel_tol the solve raises ``SolverError`` with the GMRES residual
    estimate of every iteration.
    """
    grid = m_prev.grid
    grid.require_uniform()
    if work is None:
        work = StepWorkspace(grid.counts, cfg.restart)
    m = m_prev.data
    q = _local_operator(grid, m, params, out=work.local, scratch=work.fields[0])
    matvecs = 0

    def matvec(x):
        nonlocal matvecs
        matvecs += 1
        return _apply_operator(grid, x, q, work.fields)

    if x0 is None:
        x0 = VectorField(grid, work.start)
        np.copyto(x0.data, m)
    rhs = _build_rhs(m_prev, params, t_new, work)
    work.derivs_of = None  # the solve writes over them
    residuals = []
    # rtol is relative to ||rhs||, so a better start does not loosen the solve
    x, residual = gmres(
        matvec,
        rhs,
        x0.data,
        rtol=cfg.rel_tol,
        restart=cfg.restart,
        max_iter=cfg.max_iter,
        psolve=_tangent_plane_preconditioner(grid, m, params, work),
        callback=residuals.append,
        work=work.krylov,
    )
    if not residual <= cfg.rel_tol * 10.0:
        raise SolverError(
            f"Krylov solve failed after {len(residuals)} iterations "
            f"(relative residual {residual:.3e})",
            residuals,
        )
    return VectorField(grid, x), max(matvecs - 1, 0), residual


def normalize(m_tilde: VectorField, lengths=None) -> VectorField:
    """Pointwise spherical projection mt / |mt|; ``lengths`` is |mt| if known."""
    if lengths is None:
        lengths = m_tilde.pointwise_norm()
    if np.min(lengths) < 1e-300:
        raise DegenerateStateError(
            "intermediate state has a (numerically) zero-length node"
        )
    return VectorField(m_tilde.grid, m_tilde.data / lengths)


def _max_distance_from_one(values):
    """max |values - 1|, formed in place of ``values``."""
    values -= 1.0
    return float(np.max(np.abs(values, out=values)))


def step(m_prev: VectorField, params: SchemeParams, cfg: SolverConfig, t_new, step_index=0,
         x0=None, work=None):
    """One full scheme step: implicit solve from ``x0`` (overwritten, as for
    ``solve_intermediate``) in the ``StepWorkspace`` ``work`` (a new one if
    None), then projection.

    Returns (m_new, m_tilde, report); m_new is a new array, and m_tilde
    lies over ``x0`` or ``work.start``.
    """
    if work is None:
        work = StepWorkspace(m_prev.grid.counts, cfg.restart)
    m_tilde, iters, residual = solve_intermediate(m_prev, params, cfg, t_new, x0=x0,
                                                  work=work)
    squares = work.fields[0]
    lengths = m_tilde.pointwise_norm(out=work.plane, scratch=squares)
    m_new = normalize(m_tilde, lengths)
    min_length = float(np.min(lengths))
    derivs = None if params.model.variant == EXCHANGE_ONLY else _state_derivatives(m_new, work)
    report = StepReport(
        step_index=step_index,
        time=float(t_new),
        krylov_iters=iters,
        residual=residual,
        min_intermediate_length=min_length,
        energy=extended_energy(m_new, params.model, derivs, work.fields),
        max_length_error=_max_distance_from_one(
            m_new.pointwise_norm(out=work.plane, scratch=squares)),
        max_orthogonality_error=_max_distance_from_one(
            np.einsum("i...,i...->...", m_tilde.data, m_prev.data, out=work.plane)),
    )
    return m_new, m_tilde, report


def ingest_initial(initial: VectorField, override=False):
    """Renormalize near-unit input; reject anything farther off unless overridden."""
    drift = float(np.max(np.abs(initial.pointwise_norm() - 1.0)))
    if drift > 1e-12 and not override:
        raise ValueError(
            f"initial data is not pointwise unit length (max drift {drift:.3e}); "
            "pass override to renormalize anyway"
        )
    return normalize(initial), drift


@dataclass
class RunResult:
    state: VectorField
    time: float  # of the last step taken, else the start time
    step: int  # its number, else the start index
    steady: bool = False


def _extrapolated_start(history, k, m_new, out):
    """Write the start of solve k + 1 into ``out`` and return it: m^n plus
    the polynomial through the last min(k, 3) increments d^j = mt^j - m^(j-1)
    taken one step ahead, so the start is exact where d^j is a polynomial of
    degree min(k, 3) - 1 in j.  ``history`` holds d^j at row j % 3, d^k the
    newest, and ``m_new`` is m^n, the state solve k + 1 starts from."""
    newest, older, oldest = history[k % 3], history[(k - 1) % 3], history[(k - 2) % 3]
    if k == 1:
        return np.add(m_new, newest, out=out)
    np.subtract(newest, older, out=out)
    if k == 2:
        out += newest  # 2 d^n - d^(n-1)
    else:
        out *= 3.0
        out += oldest  # 3 (d^n - d^(n-1)) + d^(n-2)
    out += m_new
    return out


def run(initial: VectorField, params: SchemeParams, cfg: SolverConfig, n_steps: int,
        callbacks=(), steady_tol=None, t_start=0.0, start_index=0,
        override_unit_check=False):
    """Take ``n_steps`` steps of ``params.dt`` (fewer at steady state); step k
    ends at ``t_start`` + k*dt and is numbered ``start_index`` + k.

    ``callbacks`` are called as cb(report, m_prev, m_tilde, m_new) after
    every step, and are the one way to see its report: the result keeps the
    last state, time and step number.  The states are the callback's to
    keep but not to modify; m_tilde lies in the run's workspace, valid only
    during that call.  With ``steady_tol`` set, the loop exits early once
    ||m^n - m^(n-1)||_2 / dt drops below it.  The first solve of a call
    starts from the initial state m^n, the second from the linear
    extrapolation m^n + (mt^n - m^(n-1)), the third from the quadratic and
    every later one from the cubic ``_extrapolated_start`` of this call's
    increments mt - m_prev.  All steps share one ``StepWorkspace`` and one
    ring of the last three increments, allocated here.
    """
    state, _ = ingest_initial(initial, override=override_unit_check)
    time, index = t_start, start_index
    if n_steps > 0 and params.dt == 0:
        raise ValueError("time loop needs a positive dt")
    steady = False
    grid = state.grid
    work = StepWorkspace(grid.counts, cfg.restart)
    history = np.empty((3, 3) + grid.counts)  # increment j at row j % 3
    for k in range(1, n_steps + 1):
        t_new = t_start + k * params.dt
        m_prev = state
        guess = None
        if k > 1:
            guess = VectorField(grid, _extrapolated_start(history, k - 1, state.data,
                                                          work.start))
        m_new, m_tilde, report = step(
            m_prev, params, cfg, t_new, step_index=start_index + k, x0=guess, work=work
        )
        if not np.all(np.isfinite(m_new.data)):
            raise FloatingPointError(
                f"non-finite state detected at step {start_index + k}"
            )
        time, index = report.time, report.step_index
        for cb in callbacks:
            cb(report, m_prev, m_tilde, m_new)
        state = m_new
        if steady_tol is not None:
            change = np.subtract(m_new.data, m_prev.data, out=work.fields[0])
            rate = l2_norm(VectorField(grid, change), scratch=work.fields) / params.dt
            if rate < steady_tol:
                steady = True
                break
        np.subtract(m_tilde.data, m_prev.data, out=history[k % 3])
    return RunResult(state=state, time=time, step=index, steady=steady)
