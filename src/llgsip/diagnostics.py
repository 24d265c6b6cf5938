"""Streaming error norms, skyrmion number and the scheme-invariant checks."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .effective_field import UnsupportedConfigurationError, exchange_energy
from .grid import (
    VectorField,
    array_central_difference,
    gradient_apply,
    l2_norm,
    grad_l2_norm,
    _node_weights,
)


@dataclass
class ExactSolution:
    """Closed-form reference solution with optional compensating forcing.

    ``m`` maps (x, y[, z], t) -> three components; ``forcing`` (if present)
    has the same signature and is the manufactured-solution residual.
    """

    m: object
    forcing: object = None

    def sample(self, grid, t):
        return VectorField.from_function(grid, self.m, t=t)


@dataclass
class ErrorRecord:
    """Per-refinement-level error norms and rates against the coarser level."""

    level: int
    linf_l2: float
    l2_h1: float
    rate_linf_l2: float = None
    rate_l2_h1: float = None


def convergence_rate(err_coarse, err_fine):
    """log2 of the error ratio between successive dyadic levels."""
    return math.log2(err_coarse / err_fine)


class ErrorAccumulator:
    """Streams per-step errors so long runs need not retain every field.

    Accumulates max-over-time ||e^n||_2 and the time-integrated gradient
    error (dt * sum_n ||grad_h e^n||_2^2)^(1/2), including the initial
    state if ``seed`` is called.
    """

    def __init__(self, exact, grid, dt):
        self.exact = exact
        self.grid = grid
        self.dt = dt
        self.max_l2 = 0.0
        self.sum_h1_sq = 0.0

    def seed(self, m0, t0=0.0):
        self._update(m0, t0, include_h1=False)

    def _update(self, m, t, include_h1=True):
        e = VectorField(self.grid, self.exact.sample(self.grid, t).data - m.data)
        self.max_l2 = max(self.max_l2, l2_norm(e))
        if include_h1:
            self.sum_h1_sq += self.dt * grad_l2_norm(e) ** 2

    def __call__(self, report, m_prev, m_tilde, m_new):
        self._update(m_new, report.time)

    @property
    def l2_h1(self):
        return math.sqrt(self.sum_h1_sq)


def attach_rates(records):
    """Fill in log2 rates between successive refinement levels, in place."""
    for prev, cur in zip(records, records[1:]):
        if prev.linf_l2 > 0 and cur.linf_l2 > 0:
            cur.rate_linf_l2 = convergence_rate(prev.linf_l2, cur.linf_l2)
        if prev.l2_h1 > 0 and cur.l2_h1 > 0:
            cur.rate_l2_h1 = convergence_rate(prev.l2_h1, cur.l2_h1)
    return records


def skyrmion_number(m: VectorField) -> float:
    """Topological charge of a planar texture, by central differences.

    (1/4pi) * sum_nodes m . (D2 m x D1 m), oriented so the axisymmetric
    profile with m3 = -1 at the core and m3 = +1 far away carries charge
    +1 = (m3(inf) - m3(0)) / 2.
    """
    if m.grid.dim != 2:
        raise UnsupportedConfigurationError("skyrmion number is defined on 2D grids")
    grid = m.grid
    d1 = np.stack(
        [array_central_difference(grid, m.data[..., c], 0) for c in range(3)], axis=-1
    )
    d2 = np.stack(
        [array_central_difference(grid, m.data[..., c], 1) for c in range(3)], axis=-1
    )
    integrand = np.sum(m.data * np.cross(d2, d1), axis=-1)
    w = _node_weights(grid)
    return float(grid.cell_volume * np.sum(w * integrand) / (4.0 * np.pi))


# ---------------------------------------------------------------------------
# invariant suite
# ---------------------------------------------------------------------------

@dataclass
class InvariantCheck:
    name: str
    passed: bool
    worst: float
    tolerance: float


@dataclass
class InvariantReport:
    checks: list = field(default_factory=list)

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)

    def add(self, name, worst, tolerance, larger_is_worse=True):
        ok = worst <= tolerance if larger_is_worse else worst >= tolerance
        self.checks.append(InvariantCheck(name, bool(ok), float(worst), tolerance))

    def summary(self):
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(f"[{status}] {c.name}: worst={c.worst:.3e} tol={c.tolerance:.1e}")
        return "\n".join(lines)


class StreamingInvariantChecker:
    """Per-step scheme-invariant tracker usable as a run callback.

    Retains only worst-case scalars, so it fits long production runs.
    """

    def __init__(self):
        self.worst_len = 0.0
        self.worst_min_tilde = np.inf
        self.worst_orth = 0.0
        self.worst_grad = -np.inf
        self.worst_energy_rise = -np.inf
        self._prev_energy = None
        self.steps = 0

    def __call__(self, report, m_prev, m_tilde, m_new):
        self.steps += 1
        self.worst_len = max(
            self.worst_len, float(np.max(np.abs(m_new.pointwise_norm() - 1.0)))
        )
        self.worst_min_tilde = min(
            self.worst_min_tilde, float(np.min(m_tilde.pointwise_norm()))
        )
        dots = np.sum(m_tilde.data * m_prev.data, axis=-1)
        self.worst_orth = max(self.worst_orth, float(np.max(np.abs(dots - 1.0))))
        g_new = gradient_apply(m_new)
        g_tilde = gradient_apply(m_tilde)
        for gn, gt in zip(g_new.axes, g_tilde.axes):
            excess = np.sqrt(np.sum(gn ** 2, axis=-1)) - np.sqrt(
                np.sum(gt ** 2, axis=-1)
            )
            self.worst_grad = max(self.worst_grad, float(np.max(excess)))
        e_prev = (
            self._prev_energy
            if self._prev_energy is not None
            else exchange_energy(m_prev)
        )
        e_new = exchange_energy(m_new)
        self.worst_energy_rise = max(self.worst_energy_rise, e_new - e_prev)
        self._prev_energy = e_new

    def report(self) -> InvariantReport:
        report = InvariantReport()
        if self.steps == 0:
            return report
        report.add("length preservation ||m|-1|", self.worst_len, 1e-14)
        report.add(
            "intermediate lower bound min|mt|",
            self.worst_min_tilde,
            1.0 - 1e-9,
            larger_is_worse=False,
        )
        report.add("orthogonal increment |mt.m - 1|", self.worst_orth, 1e-9)
        report.add("gradient reduction |grad m| - |grad mt|", self.worst_grad, 1e-12)
        report.add("energy dissipation per step", self.worst_energy_rise, 1e-8)
        return report
