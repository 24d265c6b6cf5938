"""Streaming error norms, topological charge and the invariant checks."""

import math

import numpy as np
import pytest

from llgsip.diagnostics import (
    ErrorAccumulator,
    ExactSolution,
    GradientReductionCheck,
    attach_rates,
    convergence_rate,
    skyrmion_number,
)
from llgsip.effective_field import UnsupportedConfigurationError, exchange_energy
from llgsip.exact import blowup_initial, dissipation_initial, skyrmion_initial
from llgsip.grid import (
    NEUMANN,
    PERIODIC,
    GridSpec,
    VectorField,
    _node_weights,
    array_central_difference,
    grad_l2_norm,
    gradient_apply,
    gradient_inner_product,
    l2_norm,
)
from llgsip.stepper import SchemeParams, SolverConfig, StepReport, run

from conftest import at, central_difference, node_weight, random_unit_field


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------

def test_exchange_energy_analytic_stencil_value():
    # m = (cos x, sin x, 0) on [0, 2pi)^2: the forward difference has
    # squared magnitude (4/h^2) sin^2(h/2) at every node, so
    # E = 0.5 * h^2 * n^2 * (4/h^2) sin^2(h/2) -> 2 pi^2 as n grows
    for n in (16, 32, 64):
        h = 2 * np.pi / n
        grid = GridSpec((n, n), (h, h))
        m = VectorField.from_function(grid, lambda X, Y: (np.cos(X), np.sin(X), 0 * X))
        expected = 0.5 * h * h * n * n * (4.0 / h ** 2) * np.sin(h / 2) ** 2
        assert exchange_energy(m) == pytest.approx(expected, rel=1e-13)
    assert exchange_energy(m) == pytest.approx(2 * np.pi ** 2, rel=1e-3)


def test_exchange_energy_is_half_gradient_inner_product(rng):
    grid = GridSpec((8, 7), (0.3, 0.3))
    m = random_unit_field(grid, rng)
    g = gradient_apply(m)
    assert exchange_energy(m) == pytest.approx(
        0.5 * gradient_inner_product(g, g), rel=1e-14
    )


# ---------------------------------------------------------------------------
# error norms
# ---------------------------------------------------------------------------

def constant_exact():
    return ExactSolution(m=lambda X, Y, t: (0 * X, 0 * X, 1.0 + 0 * X))


def accumulate(exact, times, fields, dt):
    """Feed a (time, field) history through the streaming accumulator."""
    acc = ErrorAccumulator(exact, fields[0].grid, dt)
    acc.seed(fields[0], times[0])
    for k, (t, m) in enumerate(zip(times[1:], fields[1:]), 1):
        report = StepReport(k, t, 0, 0.0, 1.0, 0.0, 0.0, 0.0)
        acc(report, None, None, m)
    return acc


def test_error_norms_zero_for_exact_history():
    grid = GridSpec((6, 6), (0.5, 0.5))
    exact = constant_exact()
    fields = [exact.sample(grid, t) for t in (0.0, 0.1, 0.2)]
    acc = accumulate(exact, [0.0, 0.1, 0.2], fields, dt=0.1)
    assert acc.max_l2 == 0.0
    assert acc.l2_h1 == 0.0


def test_error_norms_scale_linearly(rng):
    # perturbing the history by s * delta scales both norms by s exactly
    grid = GridSpec((6, 6), (0.5, 0.5))
    exact = constant_exact()
    delta = rng.standard_normal((3,) + grid.counts)
    times = [0.0, 0.1]

    def record(s):
        fields = [
            exact.sample(grid, 0.0),
            VectorField(grid, exact.sample(grid, 0.1).data + s * delta),
        ]
        return accumulate(exact, times, fields, dt=0.1)

    r1, r2 = record(1.0), record(2.0)
    assert r2.max_l2 == pytest.approx(2.0 * r1.max_l2, rel=1e-14)
    assert r2.l2_h1 == pytest.approx(2.0 * r1.l2_h1, rel=1e-14)


@pytest.mark.parametrize("counts", [(6, 5), (4, 5, 3)])
@pytest.mark.parametrize("boundary", [PERIODIC, NEUMANN])
def test_error_accumulator_keeps_the_bits_of_fresh_norms(counts, boundary, rng):
    # its own error field and scratch, reused over calls, change no bit
    grid = GridSpec(counts, (0.5,) * len(counts), boundary=boundary)
    exact = ExactSolution(m=lambda *xt: (np.sin(xt[0] + xt[-1]), np.cos(xt[1]), xt[0] * xt[1]))
    times = [0.0, 0.1, 0.2, 0.3]
    fields = [VectorField(grid, rng.standard_normal((3,) + counts)) for _ in times]
    acc = accumulate(exact, times, fields, dt=0.1)
    max_l2, sum_h1_sq = 0.0, 0.0
    for k, (t, m) in enumerate(zip(times, fields)):
        e = VectorField(grid, exact.sample(grid, t).data - m.data)
        max_l2 = max(max_l2, l2_norm(e))
        if k > 0:
            sum_h1_sq += 0.1 * grad_l2_norm(e) ** 2
    assert (acc.max_l2, acc.sum_h1_sq) == (max_l2, sum_h1_sq)


def test_convergence_rate_arithmetic():
    from llgsip.diagnostics import ErrorRecord

    assert convergence_rate(4.0, 1.0) == pytest.approx(2.0)
    recs = [
        ErrorRecord(level=8, linf_l2=1.0, l2_h1=2.0),
        ErrorRecord(level=16, linf_l2=0.25, l2_h1=1.0),
    ]
    attach_rates(recs)
    assert recs[0].rate_linf_l2 is None
    assert recs[1].rate_linf_l2 == pytest.approx(2.0)
    assert recs[1].rate_l2_h1 == pytest.approx(1.0)


def test_rates_follow_the_node_count_ratio_of_non_dyadic_levels():
    # errors C N^-2 at N = 8, 12, 16 are second order, though no level
    # doubles the one before; a repeated level has no rate
    from llgsip.diagnostics import ErrorRecord

    recs = [ErrorRecord(level=n, linf_l2=3.0 / n ** 2, l2_h1=5.0 / n ** 2)
            for n in (8, 12, 16, 16)]
    attach_rates(recs)
    for rec in recs[1:3]:
        assert rec.rate_linf_l2 == pytest.approx(2.0, rel=1e-13)
        assert rec.rate_l2_h1 == pytest.approx(2.0, rel=1e-13)
    assert recs[3].rate_linf_l2 is None and recs[3].rate_l2_h1 is None


# ---------------------------------------------------------------------------
# skyrmion number
# ---------------------------------------------------------------------------

def test_skyrmion_number_uniform_is_zero():
    grid = GridSpec((16, 16), (0.2, 0.2))
    m = VectorField.constant(grid, (0.0, 0.0, 1.0))
    assert skyrmion_number(m) == 0.0


def test_skyrmion_number_requires_2d(rng):
    grid = GridSpec((4, 4, 4), (0.5, 0.5, 0.5))
    with pytest.raises(UnsupportedConfigurationError):
        skyrmion_number(random_unit_field(grid, rng))


@pytest.mark.parametrize("boundary", [PERIODIC, NEUMANN])
def test_skyrmion_number_matches_per_node_loop(boundary, rng):
    # reflected ghosts at Neumann walls; there the normal difference vanishes,
    # so the integrand, and with it the half weight of a wall node, is zero
    grid = GridSpec((7, 6), (0.3, 0.25), boundary=boundary)
    m = random_unit_field(grid, rng)
    total = scale = 0.0
    for i in np.ndindex(grid.counts):
        d1, d2 = (central_difference(grid, m.data, i, axis) for axis in (0, 1))
        term = node_weight(grid, i) * np.dot(at(m.data, i), np.cross(d2, d1))
        total += term
        scale += abs(term)
    factor = grid.cell_volume / (4 * np.pi)
    assert abs(skyrmion_number(m) - factor * total) <= 1e-13 * factor * scale


@pytest.mark.parametrize("boundary", [PERIODIC, NEUMANN])
def test_skyrmion_number_keeps_the_bits_of_a_per_component_sum(boundary, rng):
    # m_i (D2 m x D1 m)_i formed one component at a time and summed over i
    # in order, then weighted: the same operations as the cross product
    # over planes contracted by node_sum
    for counts in ((9, 7), (33, 32), (64, 64)):
        grid = GridSpec(counts, (0.3, 0.3), boundary=boundary)
        m = random_unit_field(grid, rng)
        d1, d2 = (array_central_difference(grid, m.data, axis) for axis in (0, 1))
        total = 0.0
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            total = total + (d2[j] * d1[k] - d2[k] * d1[j]) * m.data[i]
        if boundary == NEUMANN:
            total = total * _node_weights(grid)
        ref = float(grid.cell_volume * np.sum(total) / (4.0 * np.pi))
        assert skyrmion_number(m) == ref


def seed_field(n=256, h=0.1):
    grid = GridSpec(
        (n, n), (h, h), origin=(-n * h / 2, -n * h / 2), boundary="neumann"
    )
    center = (0.0, 0.0)
    return VectorField.from_function(
        grid, lambda X, Y: skyrmion_initial(X, Y, center=center, radius=3.0)
    )


def test_skyrmion_seed_has_unit_charge():
    m = seed_field()
    q = skyrmion_number(m)
    assert abs(q - 1.0) <= 0.05


def test_skyrmion_number_reflection_negates():
    m = seed_field(n=128)
    flipped = VectorField(m.grid, m.data * np.array([1.0, 1.0, -1.0])[:, None, None])
    assert skyrmion_number(flipped) == pytest.approx(-skyrmion_number(m), abs=1e-12)


def test_skyrmion_number_rotation_invariant():
    # rotate the lattice a quarter turn and the in-plane components with it
    m = seed_field(n=128)
    rot = np.rot90(m.data, axes=(1, 2)).copy()
    rot[0], rot[1] = -rot[1].copy(), rot[0].copy()
    rotated = VectorField(m.grid, rot)
    assert skyrmion_number(rotated) == pytest.approx(skyrmion_number(m), abs=1e-12)


def test_skyrmion_number_against_refined_quadrature():
    # bubble data: charge on the working grid vs a 4x-refined evaluation
    def field_on(n):
        grid = GridSpec((n + 1, n + 1), (1.0 / n, 1.0 / n), origin=(-0.5, -0.5), boundary="neumann")
        return VectorField.from_function(grid, blowup_initial)

    coarse = skyrmion_number(field_on(64))
    fine = skyrmion_number(field_on(256))
    assert abs(coarse - fine) <= 0.02


# ---------------------------------------------------------------------------
# scheme invariants
# ---------------------------------------------------------------------------

def dissipation_run(callback, n=16, steps=5, dt=0.05):
    h = 2 * np.pi / n
    grid = GridSpec((n, n), (h, h))
    m0 = VectorField.from_function(grid, dissipation_initial)
    run(
        m0,
        SchemeParams(beta=1.0, gamma=1.0, dt=dt),
        SolverConfig(),
        steps,
        callbacks=[callback],
    )


def test_step_invariants_pass_on_clean_run():
    reports = []
    gradient = GradientReductionCheck()

    def both(report, *states):
        reports.append(report)
        gradient(report, *states)

    dissipation_run(both)
    assert len(reports) == 5
    assert [f for r in reports for f in r.invariant_failures()] == []
    assert gradient.failures == [] and gradient.worst <= 1e-12


def test_gradient_reduction_check_detects_injected_fault():
    gradient = GradientReductionCheck()

    def faulty(report, m_prev, m_tilde, m_new):
        if report.step_index == 3:
            # a node turned away from its neighbours steepens four faces
            m_new = VectorField(m_new.grid, m_new.data.copy())
            m_new.data[:, 2, 3] = -m_new.data[:, 2, 3]
        gradient(report, m_prev, m_tilde, m_new)

    dissipation_run(faulty, steps=4)
    [message] = gradient.failures
    assert message.startswith("|grad m|-|grad mt| = ") and "at step 3" in message
    assert gradient.worst > 1.0
