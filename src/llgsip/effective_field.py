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

from .grid import VectorField, array_central_difference, carve, grad_l2_norm, node_sum

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
            "the extended (anisotropy + DMI) model and the skyrmion number are "
            f"planar; got a {m.grid.dim}D grid"
        )


def planar_derivatives(m: VectorField, out=None):
    """(D1 m, D2 m): the central differences of all three components along
    the two planar axes, shape (2, 3) + counts, into ``out`` (new if None).
    The DMI field, the DMI energy and the skyrmion number take them here."""
    _require_2d(m)
    out = np.empty((2,) + m.data.shape) if out is None else out
    for axis in (0, 1):
        array_central_difference(m.grid, m.data, axis, out=out[axis])
    return out


def explicit_field_apply(m: VectorField, model: FieldModel, out=None, plane=None,
                         scratch=None) -> VectorField:
    """Non-exchange part of the effective field, evaluated at the nodes.

    The field is written into ``out``, ``plane`` is scratch of one
    component's shape and ``scratch`` takes m's ``planar_derivatives`` (new
    arrays if None).
    """
    if model.variant == EXCHANGE_ONLY:
        return VectorField.zeros(m.grid)
    derivs, = carve(scratch, (2,) + m.data.shape)
    (_, d1m2, d1m3), (d2m1, _, d2m3) = planar_derivatives(m, derivs)
    out = np.empty((3,) + m.grid.counts) if out is None else out
    two_lam = 2.0 * model.lam
    # each component in the order of a sum onto zeros
    np.subtract(0.0, np.multiply(two_lam, d2m3, out=out[0]), out=out[0])
    np.add(0.0, np.multiply(two_lam, d1m3, out=out[1]), out=out[1])
    np.multiply(model.kappa, m.data[2], out=out[2])
    curl3 = np.subtract(d1m2, d2m1, out=plane)
    curl3 *= two_lam
    out[2] -= curl3
    return VectorField(m.grid, out)


def exchange_energy(m: VectorField, scratch=None) -> float:
    """0.5 * ||grad_h m||_2^2; ``scratch`` as for ``grad_l2_norm``."""
    return 0.5 * grad_l2_norm(m, scratch) ** 2


def dmi_energy(m: VectorField, lam, scratch=None) -> float:
    """lam * sum_nodes (curl m) . m, weighted like the l2 inner product.

    ``scratch`` (new arrays if None) takes m's ``planar_derivatives`` and
    two planes.
    """
    m1, m2, m3 = m.data
    counts = m.grid.counts
    derivs, curl_dot_m, term = carve(scratch, (2,) + m.data.shape, counts, counts)
    (_, d1m2, d1m3), (d2m1, _, d2m3) = planar_derivatives(m, derivs)
    # planar curl: (D2 m3, -D1 m3, D1 m2 - D2 m1)
    np.multiply(m1, d2m3, out=curl_dot_m)
    curl_dot_m -= np.multiply(m2, d1m3, out=term)
    term = np.subtract(d1m2, d2m1, out=term)
    curl_dot_m += np.multiply(m3, term, out=term)
    return float(lam * m.grid.cell_volume * node_sum(m.grid, curl_dot_m))


def anisotropy_energy(m: VectorField, kappa, scratch=None) -> float:
    """(kappa/2) * sum_nodes (m1^2 + m2^2); ``scratch`` (new arrays if None)
    takes two planes."""
    planar, term = carve(scratch, m.grid.counts, m.grid.counts)
    np.square(m.data[0], out=planar)
    planar += np.square(m.data[1], out=term)
    return float(0.5 * kappa * m.grid.cell_volume * node_sum(m.grid, planar))


def extended_energy(m: VectorField, model: FieldModel, scratch=None) -> float:
    """Total discrete energy of the configured model.

    Exchange-only reduces to the exchange energy.  The DMI/curl term uses
    the same central differences as the explicit field, so field and energy
    are consistent to second order (not an exact discrete gradient pair).
    ``scratch`` (new arrays if None) holds every temporary in turn: the
    face arrays of the exchange energy, 4/3 of ``m.data``, then the
    ``planar_derivatives`` and two planes of the DMI energy, 8/3 of it.
    """
    e = exchange_energy(m, scratch)
    if model.variant == EXCHANGE_ONLY:
        return e
    e += anisotropy_energy(m, model.kappa, scratch)
    e += dmi_energy(m, model.lam, scratch)
    return e
