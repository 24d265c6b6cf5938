"""Explicit-field models against naive central-difference oracles."""

import numpy as np
import pytest

from llgsip.effective_field import (
    FieldModel,
    UnsupportedConfigurationError,
    anisotropy_energy,
    dmi_energy,
    exchange_energy,
    explicit_field_apply,
    extended_energy,
)
from llgsip.exact import blowup_initial
from llgsip.grid import NEUMANN, PERIODIC, GridSpec, VectorField

from conftest import at, central_difference, node_weight, random_unit_field


def test_uniform_state_gives_pure_anisotropy_field():
    grid = GridSpec((8, 8), (0.3, 0.3))
    m = VectorField.constant(grid, (0.0, 0.0, 1.0))
    model = FieldModel.extended(kappa=3.0, lam=1)
    h = explicit_field_apply(m, model)
    assert np.allclose(h.data, VectorField.constant(grid, (0.0, 0.0, 3.0)).data,
                       atol=1e-15, rtol=0)


def test_exchange_only_field_is_zero(rng):
    grid = GridSpec((6, 6), (0.3, 0.3))
    m = random_unit_field(grid, rng)
    h = explicit_field_apply(m, FieldModel.exchange_only())
    assert np.all(h.data == 0.0)


def test_dmi_field_matches_naive_central_differences(rng):
    n = 16
    h = 2 * np.pi / n
    model = FieldModel.extended(kappa=0.0, lam=1)
    for boundary, pad in ((PERIODIC, "wrap"), (NEUMANN, "reflect")):
        grid = GridSpec((n, n), (h, h), boundary=boundary)

        def dc(arr, axis):
            # ghost nodes by np.pad: the wrap, or the reflection m_{-1} = m_1
            ext = np.pad(arr, [(1, 1) if a == axis else (0, 0) for a in range(2)], mode=pad)
            upper, lower = np.arange(2, n + 2), np.arange(n)
            return (ext.take(upper, axis) - ext.take(lower, axis)) / (2 * h)

        for m in (
            VectorField.from_function(grid, lambda X, Y: (np.sin(X), 0 * X, np.cos(X))),
            random_unit_field(grid, rng),
        ):
            field = explicit_field_apply(m, model)
            m1, m2, m3 = m.data
            expected = np.zeros_like(m.data)
            expected[0] = -2 * dc(m3, 1)
            expected[1] = 2 * dc(m3, 0)
            expected[2] = -2 * (dc(m2, 0) - dc(m1, 1))
            assert np.max(np.abs(field.data - expected)) <= 1e-13


def test_extended_model_rejects_3d(rng):
    grid = GridSpec((4, 4, 4), (0.5, 0.5, 0.5))
    m = random_unit_field(grid, rng)
    with pytest.raises(UnsupportedConfigurationError):
        explicit_field_apply(m, FieldModel.extended(kappa=1.0, lam=1))


def test_model_validation():
    with pytest.raises(ValueError):
        FieldModel.extended(kappa=1.0, lam=2)
    with pytest.raises(ValueError):
        FieldModel.extended(kappa=-1.0, lam=1)


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------

def test_uniform_up_state_has_zero_energy():
    grid = GridSpec((8, 8), (0.3, 0.3))
    m = VectorField.constant(grid, (0.0, 0.0, 1.0))
    model = FieldModel.extended(kappa=7.0, lam=1)
    assert extended_energy(m, model) == pytest.approx(0.0, abs=1e-14)


def test_energy_degenerates_to_exchange(rng):
    grid = GridSpec((8, 8), (0.3, 0.3))
    m = random_unit_field(grid, rng)
    model = FieldModel.extended(kappa=0.0, lam=1)
    # lam enters only through the curl term, which need not vanish; compare
    # the decomposed pieces instead
    assert anisotropy_energy(m, 0.0) == 0.0
    assert extended_energy(m, model) - dmi_energy(m, 1) == pytest.approx(
        exchange_energy(m), rel=1e-14
    )


def test_extended_energy_matches_quadrature_oracle():
    # bubble-type initial data on a 64^2 grid, against an independently
    # coded loop evaluation of the same discrete functional
    grid = GridSpec((64, 64), (1.0 / 64, 1.0 / 64), origin=(-0.5, -0.5))
    m = VectorField.from_function(grid, blowup_initial)
    model = FieldModel.extended(kappa=3.0, lam=1)
    value = extended_energy(m, model)

    nx, ny = grid.counts
    h = grid.spacing[0]
    d = np.moveaxis(m.data, 0, -1)  # d[i, j] the three components at node (i, j)
    exch = 0.0
    for i in range(nx):
        for j in range(ny):
            dx = (d[(i + 1) % nx, j] - d[i, j]) / h
            dy = (d[i, (j + 1) % ny] - d[i, j]) / h
            exch += 0.5 * (np.dot(dx, dx) + np.dot(dy, dy))
    aniso = 0.0
    curl = 0.0
    for i in range(nx):
        for j in range(ny):
            aniso += 0.5 * model.kappa * (d[i, j, 0] ** 2 + d[i, j, 1] ** 2)
            d1 = (d[(i + 1) % nx, j] - d[(i - 1) % nx, j]) / (2 * h)
            d2 = (d[i, (j + 1) % ny] - d[i, (j - 1) % ny]) / (2 * h)
            curl += (
                d[i, j, 0] * d2[2]
                - d[i, j, 1] * d1[2]
                + d[i, j, 2] * (d1[1] - d2[0])
            )
    oracle = h * h * (exch + aniso + model.lam * curl)
    assert value == pytest.approx(oracle, rel=1e-12)


@pytest.mark.parametrize("boundary", [PERIODIC, NEUMANN])
def test_dmi_and_anisotropy_energies_match_per_node_loop(boundary, rng):
    # half weight per wall on Neumann nodes, reflected ghosts at the walls
    grid = GridSpec((7, 6), (0.3, 0.25), boundary=boundary)
    m = random_unit_field(grid, rng)
    d = m.data
    aniso = dmi = dmi_scale = 0.0
    for i in np.ndindex(grid.counts):
        w = node_weight(grid, i)
        d1, d2 = (central_difference(grid, d, i, axis) for axis in (0, 1))
        v = at(d, i)
        aniso += w * (v[0] ** 2 + v[1] ** 2)
        term = w * (v[0] * d2[2] - v[1] * d1[2] + v[2] * (d1[1] - d2[0]))
        dmi += term
        dmi_scale += abs(term)
    vol = grid.cell_volume
    assert anisotropy_energy(m, 3.0) == pytest.approx(0.5 * 3.0 * vol * aniso, rel=1e-13)
    for lam in (1, -1):
        assert abs(dmi_energy(m, lam) - lam * vol * dmi) <= 1e-13 * vol * dmi_scale


def test_translation_equivariance(rng):
    grid = GridSpec((12, 10), (0.3, 0.3))
    m = random_unit_field(grid, rng)
    model = FieldModel.extended(kappa=2.0, lam=1)
    shifted = VectorField(grid, np.roll(m.data, (3, 4), axis=(1, 2)))
    a = explicit_field_apply(shifted, model).data
    b = np.roll(explicit_field_apply(m, model).data, (3, 4), axis=(1, 2))
    assert np.max(np.abs(a - b)) <= 1e-15


def test_chirality_flip_negates_dmi_only(rng):
    grid = GridSpec((10, 10), (0.3, 0.3))
    m = random_unit_field(grid, rng)
    plus = FieldModel.extended(kappa=2.0, lam=1)
    minus = FieldModel.extended(kappa=2.0, lam=-1)
    assert dmi_energy(m, 1) == pytest.approx(-dmi_energy(m, -1), rel=1e-14)
    f_plus = explicit_field_apply(m, plus).data
    f_minus = explicit_field_apply(m, minus).data
    aniso = np.zeros_like(f_plus)
    aniso[2] = 2.0 * m.data[2]
    assert np.max(np.abs((f_plus - aniso) + (f_minus - aniso))) <= 1e-13
    assert extended_energy(m, plus) - dmi_energy(m, 1) == pytest.approx(
        extended_energy(m, minus) - dmi_energy(m, -1), rel=1e-13
    )
