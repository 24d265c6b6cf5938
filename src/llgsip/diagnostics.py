"""Streaming error norms, skyrmion number, the gradient-reduction check and
the capped failure log of a run."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .effective_field import UnsupportedConfigurationError, planar_derivatives
from .grid import VectorField, gradient_apply, l2_norm, grad_l2_norm, node_sum


@dataclass
class ExactSolution:
    """Closed-form reference solution with optional compensating forcing.

    ``m`` maps (x, y[, z], t) -> three components; ``forcing`` (if present)
    has the same signature and is the manufactured-solution residual.
    """

    m: object
    forcing: object = None

    def sample(self, grid, t, out=None):
        return VectorField.from_function(grid, self.m, t=t, out=out)


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
    state if ``seed`` is called.  The error field and the norms' scratch,
    4/3 of a field, are allocated once, here.
    """

    def __init__(self, exact, grid, dt):
        self.exact = exact
        self.grid = grid
        self.dt = dt
        self.max_l2 = 0.0
        self.sum_h1_sq = 0.0
        self._error, self._scratch = np.empty((3,) + grid.counts), np.empty((4,) + grid.counts)

    def seed(self, m0, t0=0.0):
        self._update(m0, t0, include_h1=False)

    def _update(self, m, t, include_h1=True):
        e = self.exact.sample(self.grid, t, out=self._error)
        e.data -= m.data
        self.max_l2 = max(self.max_l2, l2_norm(e, scratch=self._scratch))
        if include_h1:
            self.sum_h1_sq += self.dt * grad_l2_norm(e, scratch=self._scratch) ** 2

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
    d1, d2 = planar_derivatives(m)
    # m_i (D2 m x D1 m)_i, each product and difference as np.cross forms it,
    # summed over i as node_sum would: one plane at a time
    total, term, product = np.empty((3,) + m.grid.counts)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        np.multiply(d2[j], d1[k], out=term)
        term -= np.multiply(d2[k], d1[j], out=product)
        term *= m.data[i]
        if i == 0:
            total, term = term, total
        else:
            total += term
    return float(m.grid.cell_volume * node_sum(m.grid, total) / (4.0 * np.pi))


class FailureLog:
    """Failure messages of a run: the first ``SHOWN`` of each kind, then one
    line per kind counting the rest, so a systematic fault in a long run
    prints a few lines, not one per step."""

    SHOWN = 5

    def __init__(self):
        self.shown = []
        self.counts = {}

    def add(self, kind, message):
        self.counts[kind] = self.counts.get(kind, 0) + 1
        if self.counts[kind] <= self.SHOWN:
            self.shown.append(message)

    @property
    def messages(self):
        return self.shown + [f"{kind}: {n - self.SHOWN} more failing steps"
                             for kind, n in self.counts.items() if n > self.SHOWN]


# |grad m^(n+1)| - |grad mt| allowed on a face: round-off only
GRADIENT_REDUCTION_TOL = 1e-12


class GradientReductionCheck:
    """Opt-in run callback: the projection may not raise the gradient on any
    face, |grad m^(n+1)| <= |grad mt| + GRADIENT_REDUCTION_TOL, which holds
    where |mt| >= 1.

    It costs two gradients per step, so ``step`` does not measure it.  Keeps
    the worst excess over all steps and the failure messages in ``failures``.
    """

    def __init__(self):
        self.worst = -np.inf
        self.log = FailureLog()

    @property
    def failures(self):
        return self.log.messages

    def __call__(self, report, m_prev, m_tilde, m_new):
        excess = max(
            float(np.max(np.linalg.norm(gn, axis=0) - np.linalg.norm(gt, axis=0)))
            for gn, gt in zip(gradient_apply(m_new).axes, gradient_apply(m_tilde).axes)
        )
        self.worst = max(self.worst, excess)
        if not excess <= GRADIENT_REDUCTION_TOL:
            self.log.add(
                "|grad m|-|grad mt|",
                f"|grad m|-|grad mt| = {excess!r} at step {report.step_index} "
                f"(bound <= {GRADIENT_REDUCTION_TOL!r})",
            )
