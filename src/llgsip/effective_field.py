"""Effective-field models.

The analyzed scheme treats exchange (the Laplacian) implicitly inside the
linear solve, so the model objects here only supply the *non-exchange* part
of the effective field, evaluated explicitly at the previous state:

    exchange-only:  zero field
    extended:       kappa*m3*e3
                    - 2*lam*[D2 m3 e1 - D1 m3 e2 + (D1 m2 - D2 m1) e3]

with D1, D2 second-order central differences at the nodes.  The extended
model is the planar thin-film setup with easy-axis anisotropy and a
Dzyaloshinskii-Moriya term of chirality lam = +-1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import VectorField, array_central_difference, grad_l2_norm, node_sum

EXCHANGE_ONLY = "exchange_only"
EXTENDED = "extended"


class UnsupportedConfigurationError(ValueError):
    """Raised when a model is combined with a grid it does not support."""


@dataclass(frozen=True)
class FieldModel:
    """Effective-field variant selector.

    kappa:  dimensionless easy-axis anisotropy (>= 0)
    lam:    DMI chirality, +1 or -1
    """

    variant: str = EXCHANGE_ONLY
    kappa: float = 0.0
    lam: int = 1

    def __post_init__(self):
        if self.variant not in (EXCHANGE_ONLY, EXTENDED):
            raise ValueError(f"unknown field model {self.variant!r}")
        if self.variant == EXTENDED:
            if self.lam not in (-1, 1):
                raise ValueError(f"chirality must be +-1, got {self.lam}")
            if self.kappa < 0:
                raise ValueError(f"anisotropy must be nonnegative, got {self.kappa}")

    @classmethod
    def exchange_only(cls):
        return cls(EXCHANGE_ONLY)

    @classmethod
    def extended(cls, kappa, lam):
        return cls(EXTENDED, float(kappa), int(lam))


def _require_2d(m):
    if m.grid.dim != 2:
        raise UnsupportedConfigurationError(
            "the extended (anisotropy + DMI) model is planar; got a "
            f"{m.grid.dim}D grid"
        )


def planar_derivatives(m: VectorField):
    """(D1 m, D2 m): the central differences of all three components along
    the two planar axes, shared by the DMI field, the DMI energy and the
    skyrmion number."""
    return tuple(array_central_difference(m.grid, m.data, axis) for axis in (0, 1))


def explicit_field_apply(m: VectorField, model: FieldModel) -> VectorField:
    """Non-exchange part of the effective field, evaluated at the nodes."""
    if model.variant == EXCHANGE_ONLY:
        return VectorField.zeros(m.grid)
    _require_2d(m)
    grid = m.grid
    d1, d2 = planar_derivatives(m)
    out = np.zeros((3,) + grid.counts)
    out[2] = model.kappa * m.data[2]
    lam = model.lam
    out[0] -= 2.0 * lam * d2[2]
    out[1] += 2.0 * lam * d1[2]
    out[2] -= 2.0 * lam * (d1[1] - d2[0])
    return VectorField(grid, out)


def exchange_energy(m: VectorField) -> float:
    """0.5 * ||grad_h m||_2^2."""
    return 0.5 * grad_l2_norm(m) ** 2


def dmi_energy(m: VectorField, lam) -> float:
    """lam * sum_nodes (curl m) . m, weighted like the l2 inner product."""
    m1, m2, m3 = m.data
    d1, d2 = planar_derivatives(m)
    # planar curl: (D2 m3, -D1 m3, D1 m2 - D2 m1)
    curl_dot_m = m1 * d2[2] - m2 * d1[2] + m3 * (d1[1] - d2[0])
    return float(lam * m.grid.cell_volume * node_sum(m.grid, curl_dot_m))


def anisotropy_energy(m: VectorField, kappa) -> float:
    """(kappa/2) * sum_nodes (m1^2 + m2^2)."""
    planar = m.data[0] ** 2 + m.data[1] ** 2
    return float(0.5 * kappa * m.grid.cell_volume * node_sum(m.grid, planar))


def extended_energy(m: VectorField, model: FieldModel) -> float:
    """Total discrete energy of the configured model.

    Exchange-only reduces to the exchange energy.  The DMI/curl term uses
    the same central differences as the explicit field, so field and energy
    are consistent to second order (not an exact discrete gradient pair).
    """
    if model.variant == EXCHANGE_ONLY:
        return exchange_energy(m)
    _require_2d(m)
    e = exchange_energy(m)
    e += anisotropy_energy(m, model.kappa)
    e += dmi_energy(m, model.lam)
    return e
