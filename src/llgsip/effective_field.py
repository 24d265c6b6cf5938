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
            "the extended (anisotropy + DMI) model is planar; got a "
            f"{m.grid.dim}D grid"
        )


def planar_derivatives(m: VectorField):
    """(D1 m, D2 m): the central differences of all three components along
    the two planar axes, as the skyrmion number takes them."""
    return tuple(array_central_difference(m.grid, m.data, axis) for axis in (0, 1))


def dmi_derivatives(m: VectorField, out=None):
    """(D1 (m2, m3), D2 m), which hold the central differences the DMI field
    and the DMI energy take, laid over ``out`` (new arrays if None): one
    call per axis, each on C-contiguous components."""
    counts = m.grid.counts
    d1, d2 = carve(out, (2,) + counts, (3,) + counts)
    array_central_difference(m.grid, m.data[1:], 0, out=d1)
    array_central_difference(m.grid, m.data, 1, out=d2)
    return d1, d2


def explicit_field_apply(m: VectorField, model: FieldModel, derivs=None, out=None,
                         plane=None) -> VectorField:
    """Non-exchange part of the effective field, evaluated at the nodes.

    ``derivs`` are m's ``dmi_derivatives`` (taken here if None); the field
    is written into ``out`` and ``plane`` is scratch of one component's
    shape (new arrays if None).
    """
    if model.variant == EXCHANGE_ONLY:
        return VectorField.zeros(m.grid)
    _require_2d(m)
    (d1m2, d1m3), (d2m1, _, d2m3) = dmi_derivatives(m) if derivs is None else derivs
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


def dmi_energy(m: VectorField, lam, derivs=None, scratch=None) -> float:
    """lam * sum_nodes (curl m) . m, weighted like the l2 inner product.

    ``derivs`` are m's ``dmi_derivatives`` (taken here if None), and
    ``scratch`` (new arrays if None) takes two planes.
    """
    m1, m2, m3 = m.data
    (d1m2, d1m3), (d2m1, _, d2m3) = dmi_derivatives(m) if derivs is None else derivs
    # planar curl: (D2 m3, -D1 m3, D1 m2 - D2 m1)
    curl_dot_m, term = carve(scratch, m.grid.counts, m.grid.counts)
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


def extended_energy(m: VectorField, model: FieldModel, derivs=None, scratch=None) -> float:
    """Total discrete energy of the configured model.

    Exchange-only reduces to the exchange energy.  The DMI/curl term uses
    the same central differences as the explicit field, so field and energy
    are consistent to second order (not an exact discrete gradient pair).
    ``derivs`` are m's ``dmi_derivatives`` (taken here if None);
    ``scratch`` (new arrays if None) holds every temporary, 4/3 of
    ``m.data`` at most.
    """
    if model.variant == EXCHANGE_ONLY:
        return exchange_energy(m, scratch)
    _require_2d(m)
    e = exchange_energy(m, scratch)
    e += anisotropy_energy(m, model.kappa, scratch)
    e += dmi_energy(m, model.lam, derivs, scratch)
    return e
