"""One time step of the semi-implicit projection scheme, plus the time loop.

Each step solves the linear system

    A(mt) = mt + dt*[beta m x lap_h(mt) + gamma m x (m x lap_h(mt))]
          = m - dt*[beta m x H + gamma m x (m x H)] + dt*f

matrix-free with restarted GMRES (m the previous, pointwise unit state; H
the explicit non-exchange field; f an optional forcing), then renormalizes
mt node by node back onto the unit sphere.  ``gmres`` is this module's own
right-preconditioned solver, run to the fixed ``SolverConfig.rel_tol``, and
every solve is preconditioned by the inverse of A's tangent-plane diffusion
and precession, exact for uniform m (see ``_tangent_plane_preconditioner``).
The module needs NumPy alone.

The step has one layout, component-first planes of shape (3, N0, N1[, N2]):
m, the right-hand side and the start are moved there once per step and the
solution is moved back once, so that every cross product of A and every
transform of the preconditioner runs on contiguous planes; the Laplacian
alone sees them components last, as a view.  ``run`` starts each solve
after the first from the extrapolation m^n + (mt^n - m^(n-1)); the first
starts from m^n.  It also keeps one Krylov workspace for all its solves, so
that the solver's storage is allocated, and faulted in, once per run.

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

from .effective_field import (EXCHANGE_ONLY, EXTENDED, FieldModel, explicit_field_apply,
                              extended_energy)
from .grid import (
    NEUMANN,
    GridMismatchError,
    VectorField,
    array_laplacian,
    l2_norm,
)


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
    forcing: optional closure (x, y[, z], t) -> 3 components, sampled at
             nodes and evaluated at the new (implicit) time
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
    rel_tol: ClassVar[float] = 1e-12  # fixed: the bounds of INVARIANTS rest on it
    max_iter: int = 500
    restart: int = 30

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.restart < 1:
            raise ValueError(f"restart must be >= 1, got {self.restart}")


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


def _cross(a, b, out):
    """out = a x b over the leading axis, with the products and differences
    of np.cross in its order (so the same bits), but no casts or copies."""
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        np.multiply(a[j], b[k], out=out[i])
        out[i] -= a[k] * b[j]
    return out


def _cross_terms(m, w, beta, gamma):
    """beta m x w + gamma m x (m x w), pointwise on planes; the result keeps
    the memory layout of ``w``."""
    c1 = _cross(m, w, np.empty_like(w))
    c2 = _cross(m, c1, np.empty_like(w))
    c1 *= beta
    c2 *= gamma
    c2 += c1
    return c2


def _apply_operator(grid, v, m, params):
    """A(v) on planes, in the memory layout of ``v``: the one definition of A.

    The Laplacian takes its input components last, so it sees ``v`` through
    a view and its result goes back the same way.  Every operation is
    elementwise, so any layout of ``v`` gives the same bits.
    """
    lap = np.moveaxis(array_laplacian(grid, np.moveaxis(v, 0, -1)), -1, 0)
    out = _cross_terms(m, lap, params.beta, params.gamma)
    out *= params.dt
    out += v
    return out


def _planes(data):
    """Component-last data seen as planes, shape (3, N0, N1[, N2]): a view."""
    return np.moveaxis(data, -1, 0)


def operator_apply(v: VectorField, m_prev: VectorField, params: SchemeParams) -> VectorField:
    """Left-hand operator A(v) = v + dt*[beta m x lap v + gamma m x (m x lap v)]."""
    if v.grid != m_prev.grid:
        raise GridMismatchError("operand and previous state live on different grids")
    # on views, so the result is laid out components last
    out = _apply_operator(v.grid, _planes(v.data), _planes(m_prev.data), params)
    return VectorField(v.grid, np.moveaxis(out, 0, -1))


def _build_rhs(m_prev, m, params, t_new):
    """The right-hand side in planes; ``m`` is m_prev's."""
    rhs = m.copy()
    if params.model.variant != EXCHANGE_ONLY:
        h_expl = _planes(explicit_field_apply(m_prev, params.model).data)
        rhs -= params.dt * _cross_terms(m, h_expl, params.beta, params.gamma)
    if params.forcing is not None:
        f = VectorField.from_function(m_prev.grid, params.forcing, t=t_new)
        rhs += params.dt * _planes(f.data)
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


def _along_axis(mat, values, axis):
    """Apply the matrix ``mat`` along one axis of a raw array by matmul: mat
    times each stacked (n, after) block, or on the last axis the rows times
    mat^T.  A C-contiguous array is not copied."""
    if axis == values.ndim - 1:
        return values @ mat.T
    return (mat @ values.reshape(values.shape[:axis + 1] + (-1,))).reshape(values.shape)


def _tangent_plane_preconditioner(grid, m, params):
    """x -> m(m.x) + P [V F1 V^-1 P x - m x (V F2 V^-1 P x)], P = I - m m^T.

    For unit m, m x (m x w) = m(m.w) - w, so A = I - dt(gamma P - beta J)
    lap_h with J = m x: the identity on the component normal to m, and on
    the tangent plane, where J^2 = -I, a + bJ per eigenmode lam of lap_h,
    with a = 1 - gamma dt lam and b = beta dt lam.  This keeps the normal
    component and inverts the tangent part as (a - bJ)/(a^2 + b^2), exactly
    so for uniform m.  F1 = a/(a^2 + b^2) and F2 = b/(a^2 + b^2) are diagonal
    in the tensor product of the per-axis eigenbases, so both halves share
    one forward and one inverse transform.  With beta = 0, F2 vanishes and
    only the diffusion half is applied.  ``m`` and x are component-first
    planes, shape (3, N0, N1[, N2]), so each per-axis transform is a matmul.
    """
    bases = [
        _axis_eigenbasis(n, h, grid.boundary)
        for n, h in zip(grid.counts, grid.spacing)
    ]
    # eigenvalues of lap_h, one per tensor-product mode
    eig = sum(np.meshgrid(*(lam for lam, _, _ in bases), indexing="ij", sparse=True))
    a = 1.0 - params.gamma * params.dt * eig
    scale = None  # beta = 0: F2 = 0 and F1 = 1/a, applied as a division by a
    if params.beta != 0:
        b = params.beta * params.dt * eig
        scale = (np.stack((a, b)) / (a * a + b * b))[:, None]  # (F1, F2)

    def apply(x):
        mx = np.einsum("i...,i...->...", m, x)
        t = x - m * mx
        for k, (_, _, inv) in enumerate(bases):
            t = _along_axis(inv, t, k + 1)
        # (F1 t, F2 t) on a leading axis, so one inverse transform serves
        # both halves; with beta = 0 the axis holds t / a alone
        t = t[None] / a if scale is None else scale * t
        for k, (_, vecs, _) in enumerate(bases):
            t = _along_axis(vecs, t, k + 2)
        t = t[0] if scale is None else t[0] - _cross(m, t[1], np.empty_like(m))
        # project back onto the tangent plane, keep m(m.x)
        t += m * (mx - np.einsum("i...,i...->...", m, t))
        return t

    return apply


def krylov_workspace(shape, restart):
    """Storage for the Krylov vectors of ``gmres`` on arrays of ``shape``:
    restart + 1 Arnoldi vectors and restart preconditioned directions.
    Rows are written before they are read, so it may be reused by any solve
    of that shape and restart; rows a solve does not reach are not touched."""
    return np.empty((2 * restart + 1,) + tuple(shape))


def gmres(matvec, b, x0, *, rtol, restart, max_iter, psolve=None, callback=None,
          work=None):
    """Restarted GMRES for A x = b, right-preconditioned by ``psolve`` (x -> M^-1 x).

    ``matvec`` and ``psolve`` map arrays of the shape of ``b`` to new arrays
    of that shape.  Each cycle starts from the true residual r, runs up to
    ``restart`` Arnoldi steps on A M^-1 (modified Gram-Schmidt, Givens
    rotations) and keeps each direction z_j = M^-1 v_j, so that it ends in
    x += Z y with no further apply; then one matvec takes r = b - A x.  A
    cycle stops early once the estimate |g| of ||b - A x|| drops to ``rtol``
    ||b||, and the solve once the true ||r|| does, or after ``max_iter``
    cycles.  A solve of k iterations in c cycles costs k applies and
    k + c + 1 matvecs.  ``callback`` gets |g| / ||b|| once per iteration.
    ``work`` is a ``krylov_workspace`` for the solve (a new one if None).
    Returns (x, ||b - A x|| / ||b||), the residual from the last matvec.
    """
    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        return np.zeros_like(b), 0.0
    if work is None:
        work = krylov_workspace(b.shape, restart)
    if work.shape != (2 * restart + 1,) + b.shape:
        raise ValueError(f"workspace of shape {work.shape} does not fit restart "
                         f"{restart} and vectors of shape {b.shape}")
    basis = work[:restart + 1]
    dirs = work if psolve is None else work[restart + 1:]  # z_j = v_j unpreconditioned
    target = rtol * b_norm
    x = np.array(x0, dtype=float)
    r = b - matvec(x)
    r_norm = np.linalg.norm(r)
    for _ in range(max_iter):
        if r_norm <= target:
            break
        hess = np.zeros((restart + 1, restart))
        g = np.zeros(restart + 1)
        g[0] = r_norm
        rotations = []
        np.divide(r, r_norm, out=basis[0])
        for j in range(restart):
            if psolve is not None:
                dirs[j] = psolve(basis[j])
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
        x += np.tensordot(y, dirs[:k], axes=1)
        r = b - matvec(x)
        r_norm = np.linalg.norm(r)
    return x, float(r_norm / b_norm)


def solve_intermediate(m_prev: VectorField, params: SchemeParams, cfg: SolverConfig,
                       t_new, x0=None, work=None):
    """Solve A(mt) = rhs matrix-free from the start ``x0`` (a field on the
    grid; m_prev if None) in the ``krylov_workspace`` ``work`` (a new one
    if None); returns (mt, krylov_iters, residual).

    ``krylov_iters`` counts the solve's matvecs but the final true-residual
    one, and ``residual`` is that true ||rhs - A mt|| / ||rhs||: above
    10 * rel_tol the solve raises ``SolverError`` with the GMRES residual
    estimate of every iteration.
    """
    grid = m_prev.grid
    grid.require_uniform()
    m = np.ascontiguousarray(_planes(m_prev.data))
    matvecs = 0

    def matvec(x):
        nonlocal matvecs
        matvecs += 1
        return _apply_operator(grid, x, m, params)

    residuals = []
    # rtol is relative to ||rhs||, so a better start does not loosen the solve
    x, residual = gmres(
        matvec,
        _build_rhs(m_prev, m, params, t_new),
        m if x0 is None else np.ascontiguousarray(_planes(x0.data)),
        rtol=cfg.rel_tol,
        restart=cfg.restart,
        max_iter=cfg.max_iter,
        psolve=_tangent_plane_preconditioner(grid, m, params),
        callback=residuals.append,
        work=work,
    )
    if not residual <= cfg.rel_tol * 10.0:
        raise SolverError(
            f"Krylov solve failed after {len(residuals)} iterations "
            f"(relative residual {residual:.3e})",
            residuals,
        )
    return VectorField(grid, np.moveaxis(x, 0, -1).copy()), max(matvecs - 1, 0), residual


def normalize(m_tilde: VectorField, lengths=None) -> VectorField:
    """Pointwise spherical projection mt / |mt|; ``lengths`` is |mt| if known."""
    if lengths is None:
        lengths = m_tilde.pointwise_norm()
    if np.min(lengths) < 1e-300:
        raise DegenerateStateError(
            "intermediate state has a (numerically) zero-length node"
        )
    return VectorField(m_tilde.grid, m_tilde.data / lengths[..., None])


def _max_distance_from_one(values):
    """max |values - 1|, formed in place of ``values``."""
    values -= 1.0
    return float(np.max(np.abs(values, out=values)))


def step(m_prev: VectorField, params: SchemeParams, cfg: SolverConfig, t_new, step_index=0,
         x0=None, work=None):
    """One full scheme step: implicit solve from ``x0`` (in the Krylov
    storage ``work``) then projection.

    Returns (m_new, m_tilde, report).
    """
    m_tilde, iters, residual = solve_intermediate(m_prev, params, cfg, t_new, x0=x0,
                                                  work=work)
    lengths = m_tilde.pointwise_norm()
    m_new = normalize(m_tilde, lengths)
    report = StepReport(
        step_index=step_index,
        time=float(t_new),
        krylov_iters=iters,
        residual=residual,
        min_intermediate_length=float(np.min(lengths)),
        energy=extended_energy(m_new, params.model),
        max_length_error=_max_distance_from_one(m_new.pointwise_norm()),
        max_orthogonality_error=_max_distance_from_one(
            np.einsum("...i,...i->...", m_tilde.data, m_prev.data)),
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


def run(initial: VectorField, params: SchemeParams, cfg: SolverConfig, n_steps: int,
        callbacks=(), steady_tol=None, t_start=0.0, start_index=0,
        override_unit_check=False):
    """Take ``n_steps`` steps of ``params.dt`` (fewer at steady state); step k
    ends at ``t_start`` + k*dt and is numbered ``start_index`` + k.

    ``callbacks`` are called as cb(report, m_prev, m_tilde, m_new) after
    every step, and are the one way to see its report: the result keeps the
    last state, time and step number.  With ``steady_tol`` set, the loop
    exits early once ||m^n - m^(n-1)||_2 / dt drops below it.  The first
    step starts its solve from the initial state, every later one from the
    extrapolation m^n + (mt^n - m^(n-1)) of the step before.  All solves
    share one ``krylov_workspace``, allocated here.
    """
    state, _ = ingest_initial(initial, override=override_unit_check)
    time, index = t_start, start_index
    if n_steps > 0 and params.dt == 0:
        raise ValueError("time loop needs a positive dt")
    steady = False
    guess = None
    work = krylov_workspace((3,) + state.grid.counts, cfg.restart)
    for k in range(1, n_steps + 1):
        t_new = t_start + k * params.dt
        m_prev = state
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
            rate = l2_norm(VectorField(state.grid, m_new.data - m_prev.data)) / params.dt
            if rate < steady_tol:
                steady = True
                break
        guess = VectorField(state.grid, m_tilde.data - m_prev.data)
        guess.data += m_new.data
    return RunResult(state=state, time=time, step=index, steady=steady)
