"""One time step of the semi-implicit projection scheme, plus the time loop.

Each step solves the linear system

    A(mt) = mt + dt*[beta m x lap_h(mt) + gamma m x (m x lap_h(mt))]
          = m - dt*[beta m x H + gamma m x (m x H)] + dt*f

matrix-free with restarted GMRES (m the previous, pointwise unit state; H
the explicit non-exchange field; f an optional forcing), then renormalizes
mt node by node back onto the unit sphere.  By default GMRES is
preconditioned by the inverse of A's tangent-plane diffusion and
precession, exact for uniform m (see ``_tangent_plane_preconditioner``).

Without forcing the intermediate solution satisfies mt . m == 1 and
|mt| >= 1 at every node (up to solver tolerance), which is what makes the
projection both well defined and energy dissipative.  The explicit field
keeps both, as its cross terms are orthogonal to m.  ``step`` measures
them once per step, in its ``StepReport``; ``INVARIANTS`` bounds them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh
from scipy.sparse.linalg import LinearOperator, gmres

from .effective_field import FieldModel, explicit_field_apply, extended_energy
from .grid import (
    NEUMANN,
    GridMismatchError,
    VectorField,
    array_laplacian,
    l2_norm,
)

TANGENT_PLANE = "tangent_plane"


class SolverError(RuntimeError):
    """Krylov solve failed; carries the residual history."""

    def __init__(self, message, residuals):
        super().__init__(message)
        self.residuals = residuals


class DegenerateStateError(RuntimeError):
    """An intermediate node collapsed to (numerically) zero length."""


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
    rel_tol: float = 1e-12
    max_iter: int = 500
    restart: int = 30
    preconditioner: str = TANGENT_PLANE  # or None

    def __post_init__(self):
        if self.preconditioner not in (TANGENT_PLANE, None):
            raise ValueError(f"unknown preconditioner {self.preconditioner!r}")
        if not (0.0 < self.rel_tol < 1.0):
            raise ValueError(f"rel_tol must lie in (0, 1), got {self.rel_tol}")
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


def _cross_terms(m_data, w, beta, gamma):
    """beta m x w + gamma m x (m x w), pointwise on component-last arrays."""
    m, w = np.moveaxis(m_data, -1, 0), np.moveaxis(w, -1, 0)
    c1 = _cross(m, w, np.empty_like(w))
    c2 = _cross(m, c1, np.empty_like(w))
    c1 *= beta
    c2 *= gamma
    c2 += c1
    return np.moveaxis(c2, 0, -1)


def operator_apply(v: VectorField, m_prev: VectorField, params: SchemeParams) -> VectorField:
    """Left-hand operator A(v) = v + dt*[beta m x lap v + gamma m x (m x lap v)]."""
    if v.grid != m_prev.grid:
        raise GridMismatchError("operand and previous state live on different grids")
    lap = array_laplacian(v.grid, v.data)
    out = _cross_terms(m_prev.data, lap, params.beta, params.gamma)
    out *= params.dt
    out += v.data
    return VectorField(v.grid, out)


def _build_rhs(m_prev, params, t_new):
    rhs = m_prev.data.copy()
    if params.model.variant != "exchange_only":
        h_expl = explicit_field_apply(m_prev, params.model)
        rhs -= params.dt * _cross_terms(
            m_prev.data, h_expl.data, params.beta, params.gamma
        )
    if params.forcing is not None:
        f = VectorField.from_function(m_prev.grid, params.forcing, t=t_new)
        rhs += params.dt * f.data
    return rhs


@lru_cache(maxsize=32)
def _axis_eigenbasis(n, h, boundary):
    """Eigenpairs (lam, V, V^-1) of the 1-D three-point Laplacian on one axis.

    Neumann rows reflect (m_{-1} = m_1), so the matrix L is not symmetric;
    with the trapezoidal weights W (all ones on periodic axes) W L is, and
    the generalized problem W L v = lam W v gives W-orthonormal V, so
    V^-1 = V^T W.  One code path serves both boundaries and every n.
    """
    eye = np.eye(n)
    lap = (np.roll(eye, 1, axis=0) + np.roll(eye, -1, axis=0) - 2.0 * eye) / h ** 2
    w = np.ones(n)
    if boundary == NEUMANN:
        lap[0, -1] = lap[-1, 0] = 0.0
        lap[0, 1] = lap[-1, -2] = 2.0 / h ** 2
        w[0] = w[-1] = 0.5
    lam, vecs = eigh(w[:, None] * lap, np.diag(w))
    basis = (lam, vecs, vecs.T * w)
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


def _tangent_plane_preconditioner(m_prev, params):
    """x -> m(m.x) + P [V F1 V^-1 P x - m x (V F2 V^-1 P x)], P = I - m m^T.

    For unit m, m x (m x w) = m(m.w) - w, so A = I - dt(gamma P - beta J)
    lap_h with J = m x: the identity on the component normal to m, and on
    the tangent plane, where J^2 = -I, a + bJ per eigenmode lam of lap_h,
    with a = 1 - gamma dt lam and b = beta dt lam.  This keeps the normal
    component and inverts the tangent part as (a - bJ)/(a^2 + b^2), exactly
    so for uniform m.  F1 = a/(a^2 + b^2) and F2 = b/(a^2 + b^2) are diagonal
    in the tensor product of the per-axis eigenbases, so both halves share
    one forward and one inverse transform.  With beta = 0, F2 vanishes and
    only the diffusion half is applied.
    """
    grid = m_prev.grid
    m = np.moveaxis(m_prev.data, -1, 0).copy()  # component-first planes
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
        # components first, here and back at the end, so that each
        # per-axis transform of the (3, N0, N1[, N2]) planes is a matmul
        x = np.moveaxis(x.reshape(m_prev.data.shape), -1, 0)
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
        return np.moveaxis(t, 0, -1).ravel()

    return apply


def solve_intermediate(m_prev: VectorField, params: SchemeParams, cfg: SolverConfig, t_new):
    """Solve A(mt) = rhs matrix-free; returns (mt, krylov_iters, residual)."""
    grid = m_prev.grid
    grid.require_uniform()
    shape = grid.counts + (3,)
    n = m_prev.data.size

    matvec_count = [0]

    def matvec(x):
        matvec_count[0] += 1
        v = VectorField(grid, x.reshape(shape))
        return operator_apply(v, m_prev, params).data.ravel()

    op = LinearOperator((n, n), matvec=matvec, dtype=float)
    rhs = _build_rhs(m_prev, params, t_new).ravel()
    b_norm = np.linalg.norm(rhs)
    if b_norm == 0.0:
        return VectorField.zeros(grid), 0, 0.0

    M = None
    if cfg.preconditioner == TANGENT_PLANE:
        M = LinearOperator(
            (n, n),
            matvec=_tangent_plane_preconditioner(m_prev, params),
            dtype=float,
        )

    residuals = []

    def callback(arg):
        residuals.append(float(np.linalg.norm(np.atleast_1d(arg))))

    x, info = gmres(
        op,
        rhs,
        x0=m_prev.data.ravel(),
        rtol=cfg.rel_tol,
        atol=0.0,
        restart=cfg.restart,
        maxiter=cfg.max_iter,
        M=M,
        callback=callback,
        callback_type="pr_norm",
    )

    # the true residual decides: GMRES reports info > 0 whenever its own
    # (preconditioned) residual misses rel_tol within the budget, also where
    # the true residual passes this check
    residual = float(np.linalg.norm(matvec(x) - rhs) / b_norm)
    matvec_count[0] -= 1  # the residual check above is not a solver iteration
    if not residual <= cfg.rel_tol * 10.0:
        raise SolverError(
            f"Krylov solve failed (info={info}, relative residual {residual:.3e})",
            residuals,
        )
    return VectorField(grid, x.reshape(shape)), matvec_count[0], residual


def normalize(m_tilde: VectorField, lengths=None) -> VectorField:
    """Pointwise spherical projection mt / |mt|; ``lengths`` is |mt| if known."""
    if lengths is None:
        lengths = m_tilde.pointwise_norm()
    if np.min(lengths) < 1e-300:
        raise DegenerateStateError(
            "intermediate state has a (numerically) zero-length node"
        )
    return VectorField(m_tilde.grid, m_tilde.data / lengths[..., None])


def step(m_prev: VectorField, params: SchemeParams, cfg: SolverConfig, t_new, step_index=0):
    """One full scheme step: implicit solve then projection.

    Returns (m_new, m_tilde, report).
    """
    m_tilde, iters, residual = solve_intermediate(m_prev, params, cfg, t_new)
    lengths = m_tilde.pointwise_norm()
    m_new = normalize(m_tilde, lengths)
    report = StepReport(
        step_index=step_index,
        time=float(t_new),
        krylov_iters=iters,
        residual=residual,
        min_intermediate_length=float(np.min(lengths)),
        energy=extended_energy(m_new, params.model),
        max_length_error=float(np.max(np.abs(m_new.pointwise_norm() - 1.0))),
        max_orthogonality_error=float(np.max(np.abs(
            np.einsum("...i,...i->...", m_tilde.data, m_prev.data) - 1.0))),
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
    reports: list
    steady: bool = False


def run(initial: VectorField, params: SchemeParams, cfg: SolverConfig, n_steps: int,
        callbacks=(), steady_tol=None, t_start=0.0, start_index=0,
        override_unit_check=False):
    """Take ``n_steps`` steps of ``params.dt`` (fewer at steady state); step k
    ends at ``t_start`` + k*dt and is numbered ``start_index`` + k.

    ``callbacks`` are called as cb(report, m_prev, m_tilde, m_new) after
    every step.  With ``steady_tol`` set, the loop exits early once
    ||m^n - m^(n-1)||_2 / dt drops below it.
    """
    state, _ = ingest_initial(initial, override=override_unit_check)
    reports = []
    if n_steps > 0 and params.dt == 0:
        raise ValueError("time loop needs a positive dt")
    steady = False
    for k in range(1, n_steps + 1):
        t_new = t_start + k * params.dt
        m_prev = state
        m_new, m_tilde, report = step(
            m_prev, params, cfg, t_new, step_index=start_index + k
        )
        if not np.all(np.isfinite(m_new.data)):
            raise FloatingPointError(
                f"non-finite state detected at step {start_index + k}"
            )
        reports.append(report)
        for cb in callbacks:
            cb(report, m_prev, m_tilde, m_new)
        if steady_tol is not None:
            rate = l2_norm(VectorField(state.grid, m_new.data - m_prev.data)) / params.dt
            if rate < steady_tol:
                state = m_new
                steady = True
                break
        state = m_new
    return RunResult(state=state, reports=reports, steady=steady)
