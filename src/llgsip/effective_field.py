"""Effective-field models.

The analyzed scheme treats exchange (the Laplacian) implicitly inside the
linear solve, so the model objects here only supply the *non-exchange* part
of the effective field, evaluated explicitly at the previous state:

    exchange-only:  zero field
    extended:       H(m) = -kappa*(m1, m2, 0) - 2*lam*curl_h m,
                    curl_h m = (D2 m3, -D1 m3, D1 m2 - D2 m1)

with D1, D2 second-order central differences at the nodes.  The extended
model is the planar thin-film setup with easy-axis anisotropy, in its
convex form, and a Dzyaloshinskii-Moriya term of chirality lam = +-1.  H is
linear, and the energy it adds to the exchange energy is -<H m, m>/2.  On
the unit sphere the anisotropy differs from kappa*m3*e3 by kappa*m, which
the step's local operator annihilates.
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
    The DMI field and the skyrmion number take them here."""
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
    two_lam = 2.0 * model.lam  # -2 lam curl_h m, each product exact
    np.multiply(-two_lam, d2m3, out=out[0])
    np.multiply(two_lam, d1m3, out=out[1])
    np.multiply(-two_lam, np.subtract(d1m2, d2m1, out=out[2]), out=out[2])
    for i in (0, 1):
        out[i] -= np.multiply(model.kappa, m.data[i], out=plane)
    return VectorField(m.grid, out)


def exchange_energy(m: VectorField, scratch=None) -> float:
    """0.5 * ||grad_h m||_2^2; ``scratch`` as for ``grad_l2_norm``."""
    return 0.5 * grad_l2_norm(m, scratch) ** 2


def extended_energy(m: VectorField, model: FieldModel, scratch=None) -> float:
    """Total discrete energy of the configured model: the exchange energy,
    and for the extended model -<H m, m>/2 of its ``explicit_field_apply``
    H.  H is minus the energy's gradient only where it is symmetric in the
    l2 inner product: on periodic grids, not at Neumann walls.  ``scratch``
    (new arrays if None) holds every temporary in turn: the face arrays of
    the exchange energy, 4/3 of ``m.data``, then the field, a plane and the
    ``planar_derivatives``, 11/3 of it.
    """
    e = exchange_energy(m, scratch)
    if model.variant == EXCHANGE_ONLY:
        return e
    field, plane, derivs = carve(scratch, m.data.shape, m.grid.counts, (2,) + m.data.shape)
    h_dot_m = explicit_field_apply(m, model, field, plane, derivs).data
    h_dot_m *= m.data
    return e - 0.5 * m.grid.cell_volume * float(node_sum(m.grid, h_dot_m, out=plane))
