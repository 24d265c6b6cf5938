"""Stepper tests: dense-matrix oracles, scheme invariants and the time loop."""

import functools
import itertools
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
import scipy.linalg
import scipy.sparse.linalg

import llgsip.effective_field
import llgsip.stepper

from llgsip.diagnostics import ExactSolution
from llgsip.exact import (blowup_initial, dissipation_initial, manufactured_solution,
                          skyrmion_initial)
from llgsip.effective_field import (FieldModel, exchange_energy, explicit_field_apply,
                                   extended_energy, planar_derivatives)
from llgsip.grid import (
    NEUMANN,
    PERIODIC,
    GridSpec,
    VectorField,
    _axis_eigenbasis,
    _cross,
    array_central_difference,
    array_laplacian,
    grad_l2_norm,
)
from llgsip.stepper import (
    DegenerateStateError,
    SchemeParams,
    SolverConfig,
    StepWorkspace,
    _along_axis,
    _apply_operator,
    _extrapolated_start,
    _local_operator,
    _spectral_factors,
    _tangent_plane_preconditioner,
    gmres,
    ingest_initial,
    krylov_workspace,
    normalize,
    operator_apply,
    run,
    SolverError,
    StepReport,
    solve_intermediate,
    step,
)

from conftest import random_field, random_unit_field, small_grids


TIGHT = SolverConfig()


def dense_operator(m_prev, params):
    """Assemble A as a dense matrix by probing with unit vectors."""
    grid = m_prev.grid
    n = m_prev.data.size
    mat = np.zeros((n, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        v = VectorField(grid, e.reshape((3,) + grid.counts))
        mat[:, k] = operator_apply(v, m_prev, params).data.ravel()
    return mat


# ---------------------------------------------------------------------------
# operator
# ---------------------------------------------------------------------------

def test_operator_on_constant_state_is_identity(rng):
    # lap of a constant vanishes, so A(v) = v for constant v
    grid = GridSpec((5, 5), (0.4, 0.4))
    m = random_unit_field(grid, rng)
    v = VectorField.constant(grid, (0.3, -1.2, 0.7))
    out = operator_apply(v, m, SchemeParams(beta=1.0, gamma=1.0, dt=0.1))
    assert np.allclose(out.data, v.data, atol=1e-14, rtol=0)


def test_operator_dt_zero_is_identity(rng):
    grid = GridSpec((4, 6), (0.5, 0.5))
    m = random_unit_field(grid, rng)
    v = random_field(grid, rng)
    out = operator_apply(v, m, SchemeParams(beta=2.0, gamma=0.5, dt=0.0))
    assert np.array_equal(out.data, v.data)


def test_cross_equals_np_cross(rng):
    # same products and differences in the same order: the same bits
    for counts in ((7, 5), (4, 3, 5)):
        a, b = rng.standard_normal((2, 3) + counts)
        ref = np.moveaxis(np.cross(np.moveaxis(a, 0, -1), np.moveaxis(b, 0, -1)), -1, 0)
        assert np.array_equal(_cross(a, b, np.empty_like(a)), ref)
        assert np.array_equal(np.cross(a, b, axis=0), ref)


def undivided_second_differences(grid, values):
    """sum over the axes of (f_{i+1} - 2f_i) + f_{i-1}, coded with np.roll
    and the reflected ghost, apart from the package's stencil."""
    terms = []
    for a in range(grid.dim):
        hi, lo = (np.roll(values, -s, axis=1 + a) for s in (1, -1))
        if grid.boundary == NEUMANN:  # the ghost reflects: m_{-1} = m_1
            lo[at_index(a, 0)], hi[at_index(a, -1)] = (values[at_index(a, 1)],
                                                       values[at_index(a, -2)])
        terms.append((hi - 2.0 * values) + lo)
    return functools.reduce(np.add, terms)


def per_node_local_operator(m, c_beta, c_gamma):
    """c_gamma (m m^T - I) + c_beta [m]x assembled node by node, with
    np.outer and the skew matrix of m, shape (3, 3) + counts."""
    q = np.empty((3, 3) + m.shape[1:])
    for node in np.ndindex(*m.shape[1:]):
        m0, m1, m2 = mi = m[(slice(None),) + node]
        skew = np.array([[0.0, -m2, m1], [m2, 0.0, -m0], [-m1, m0, 0.0]])
        q[(slice(None),) * 2 + node] = c_gamma * (np.outer(mi, mi) - np.eye(3)) + c_beta * skew
    return q


@pytest.mark.parametrize("boundary", [PERIODIC, NEUMANN])
def test_local_operator_equals_per_node_assembly(boundary, rng):
    # Q w = c_gamma m x (m x w) + c_beta m x w for unit m, one 3x3 per node
    for beta, grid in itertools.product((0.0, -1.7), small_grids(boundary)):
        params = SchemeParams(beta=beta, gamma=0.3, dt=0.05)
        m, w = random_unit_field(grid, rng).data, random_field(grid, rng).data
        c_beta, c_gamma = (c * (params.dt / grid.spacing[0] ** 2) for c in (beta, params.gamma))
        q = _local_operator(grid, m, params)
        assert np.array_equal(q, per_node_local_operator(m, c_beta, c_gamma))
        c1 = np.cross(m, w, axis=0)
        ref = c_beta * c1 + c_gamma * np.cross(m, c1, axis=0)
        err = np.einsum("ij...,j...->i...", q, w) - ref
        assert np.max(np.abs(err)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("boundary", [PERIODIC, NEUMANN])
def test_operator_equals_np_cross_formula(boundary, rng):
    # the matvec keeps the bits of v + Q S, S the undivided second differences
    # and Q = c_gamma (m m^T - I) + c_beta [m]x with c = (beta, gamma) (dt / h^2),
    # and for unit m agrees with v + dt*(beta m x lap v + gamma m x (m x lap v))
    for beta, grid in itertools.product((0.0, -1.7), small_grids(boundary)):
        params = SchemeParams(beta=beta, gamma=0.3, dt=0.05)
        m, v = random_unit_field(grid, rng).data, random_field(grid, rng).data
        out = operator_apply(VectorField(grid, v), VectorField(grid, m), params).data
        s = undivided_second_differences(grid, v)
        c_beta, c_gamma = (c * (params.dt / grid.spacing[0] ** 2) for c in (beta, params.gamma))
        q = per_node_local_operator(m, c_beta, c_gamma)
        assert np.array_equal(out, v + np.einsum("ij...,j...->i...", q, s))
        c1 = np.cross(m, array_laplacian(grid, v), axis=0)
        ref = v + params.dt * (beta * c1 + params.gamma * np.cross(m, c1, axis=0))
        assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(out - v))


@pytest.mark.parametrize("boundary", [PERIODIC, NEUMANN])
@pytest.mark.parametrize("beta", [0.0, -1.7])
def test_operator_keeps_the_normal_component(boundary, beta, rng):
    # m.A(v) = m.v, which m x (m x w) = m(m.w) - w keeps only for unit m: it
    # is what gives mt.m = 1 and |mt| >= 1
    params = SchemeParams(beta=beta, gamma=0.8, dt=0.3)
    for grid in small_grids(boundary) + [GridSpec((33, 32), (0.1, 0.1), boundary=boundary)]:
        for _ in range(3):
            m, v = random_unit_field(grid, rng).data, random_field(grid, rng).data
            out = operator_apply(VectorField(grid, v), VectorField(grid, m), params).data
            normal = np.einsum("i...,i...->...", m, out - v)
            assert np.max(np.abs(normal)) <= 1e-14 * np.max(np.abs(out - v))


@pytest.mark.parametrize("boundary", [PERIODIC, NEUMANN])
def test_operator_matches_dense_probe(boundary, rng):
    grid = GridSpec((4, 4), (0.3, 0.3), boundary=boundary)
    m = random_unit_field(grid, rng)
    params = SchemeParams(beta=1.3, gamma=0.7, dt=0.05)
    mat = dense_operator(m, params)
    for _ in range(5):
        v = random_field(grid, rng)
        direct = operator_apply(v, m, params).data.ravel()
        assert np.max(np.abs(mat @ v.data.ravel() - direct)) <= 1e-12


@pytest.mark.parametrize("boundary", [PERIODIC, NEUMANN])
def test_solve_matches_dense_direct_solve(boundary, rng):
    grid = GridSpec((4, 4), (0.3, 0.3), boundary=boundary)
    m = random_unit_field(grid, rng)
    params = SchemeParams(beta=1.0, gamma=1.0, dt=0.02)
    mt, _, _ = solve_intermediate(m, params, TIGHT, t_new=params.dt)
    mat = dense_operator(m, params)
    ref = np.linalg.solve(mat, m.data.ravel())
    assert np.max(np.abs(mt.data.ravel() - ref)) <= 1e-10


def test_solve_uniform_state_is_stationary():
    grid = GridSpec((6, 6), (0.5, 0.5))
    m = VectorField.constant(grid, (0.0, 0.0, 1.0))
    mt, iters, res = solve_intermediate(
        m, SchemeParams(beta=1.0, gamma=1.0, dt=0.1), TIGHT, t_new=0.1
    )
    assert np.max(np.abs(mt.data - m.data)) <= 1e-12
    assert res <= 1e-12


def test_intermediate_orthogonality_and_lower_bound(rng):
    # the defining identities of the scheme: mt . m = 1 and |mt| >= 1
    grid = GridSpec((12, 12), (2 * np.pi / 12,) * 2)
    m = random_unit_field(grid, rng)
    mt, _, _ = solve_intermediate(
        m, SchemeParams(beta=1.0, gamma=1.0, dt=0.01), TIGHT, t_new=0.01
    )
    dots = np.sum(mt.data * m.data, axis=0)
    assert np.max(np.abs(dots - 1.0)) <= 1e-9
    assert np.min(np.sqrt(np.sum(mt.data ** 2, axis=0))) >= 1.0 - 1e-9


@pytest.mark.parametrize("boundary", [PERIODIC, NEUMANN])
def test_axis_eigenbasis_reproduces_laplacian(boundary, rng):
    # V diag(lam) V^-1 per axis, summed over axes, is the 3-point Laplacian
    grids = small_grids(boundary) + [
        GridSpec((2, 3), (0.5, 0.5), boundary=boundary),
        GridSpec((65, 64), (1 / 64,) * 2, boundary=boundary),
    ]
    for grid in grids:
        f = rng.standard_normal((3,) + grid.counts)
        lap = np.zeros_like(f)
        for a, (n, h) in enumerate(zip(grid.counts, grid.spacing)):
            lam, vecs, inv = _axis_eigenbasis(n, h, boundary)
            lap += _along_axis(vecs * lam, _along_axis(inv, f, 1 + a), 1 + a)
        ref = array_laplacian(grid, f)
        assert np.max(np.abs(lap - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_along_axis_matches_tensordot(rng):
    # component-last, component-first and stacked (F1, F2) layouts
    for shape in ((6, 5, 3), (4, 6, 5, 3), (3, 6, 5), (3, 4, 6, 5), (2, 3, 6, 5),
                  (2, 3, 4, 6, 5)):
        values = rng.standard_normal(shape)
        for axis, n in enumerate(shape):
            mat = rng.standard_normal((n, n))
            ref = np.moveaxis(np.tensordot(mat, values, axes=(1, axis)), 0, axis)
            out = _along_axis(mat, values, axis)
            assert out.shape == shape
            assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


def tensordot_preconditioner(m_prev, params):
    """Reference apply of the tangent-plane preconditioner: each per-axis
    transform a tensordot, and F1, F2 transformed apart."""
    grid, m = m_prev.grid, m_prev.data
    bases = [
        _axis_eigenbasis(n, h, grid.boundary)
        for n, h in zip(grid.counts, grid.spacing)
    ]
    eig = sum(np.meshgrid(*(lam for lam, _, _ in bases), indexing="ij", sparse=True))
    a = 1.0 - params.gamma * params.dt * eig
    b = params.beta * params.dt * eig
    f1, f2 = a / (a * a + b * b), b / (a * a + b * b)

    def along(mat, values, axis):
        return np.moveaxis(np.tensordot(mat, values, axes=(1, axis)), 0, axis)

    def apply(x):
        mx = np.sum(m * x, axis=0)
        t = x - m * mx
        for k, (_, _, inv) in enumerate(bases):
            t = along(inv, t, 1 + k)
        u, w = f1 * t, f2 * t
        for k, (_, vecs, _) in enumerate(bases):
            u, w = along(vecs, u, 1 + k), along(vecs, w, 1 + k)
        t = u - np.cross(m, w, axis=0)
        t += m * (mx - np.sum(m * t, axis=0))
        return t

    return apply


def preconditioner_grids(boundary):
    return (
        GridSpec((9, 7), (0.4, 0.4), boundary=boundary),
        GridSpec((64, 65), (0.1, 0.1), boundary=boundary),
        GridSpec((5, 6, 4), (0.4, 0.4, 0.4), boundary=boundary),
    )


@pytest.mark.parametrize("boundary", [PERIODIC, NEUMANN])
@pytest.mark.parametrize("beta", [0.0, -1.7])
def test_preconditioner_matches_tensordot_reference(boundary, beta, rng):
    # the algebra, checked in float64; the solver's apply runs in float32
    params = SchemeParams(beta=beta, gamma=1.3, dt=0.2)
    for grid in preconditioner_grids(boundary):
        m = random_unit_field(grid, rng)
        x = rng.standard_normal((3,) + grid.counts)
        before = x.copy()
        out = _tangent_plane_preconditioner(grid, m.data, params, dtype=np.float64)(x)
        ref = tensordot_preconditioner(m, params)(x)
        assert np.array_equal(x, before)  # GMRES still holds its operand
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("boundary", [PERIODIC, NEUMANN])
def test_preconditioner_inverts_operator_on_uniform_state(boundary, rng):
    # uniform m: per mode of lap_h the tangent part of A is a + bJ with
    # J = m x, and the normal part is the identity, so M^-1 A = I exactly
    # and one Krylov iteration solves the system
    for grid in (
        GridSpec((6, 5), (0.4, 0.4), boundary=boundary),
        GridSpec((4, 5, 3), (0.4, 0.4, 0.4), boundary=boundary),
    ):
        m = VectorField.constant(grid, (0.6, 0.0, 0.8))
        params = SchemeParams(
            beta=-1.7,
            gamma=1.3,
            dt=0.2,
            forcing=lambda x, y, *zt: (
                np.sin(3 * x) * np.cos(y), x * y, np.cos(x + y)
            ),
        )
        v = random_field(grid, rng)
        apply = _tangent_plane_preconditioner(grid, m.data, params, dtype=np.float64)
        out = apply(operator_apply(v, m, params).data)
        assert np.max(np.abs(out - v.data)) <= 1e-13
        # GMRES also spends a matvec on the start and on the end residual; in
        # float32, M^-1 A = I only to single-precision rounding, which costs
        # one iteration more than the one exact M^-1 would need
        _, iters, res = solve_intermediate(m, params, SolverConfig(), t_new=params.dt)
        assert iters <= 3 and res <= 1e-12


@pytest.mark.parametrize("boundary", [PERIODIC, NEUMANN])
@pytest.mark.parametrize("beta", [0.0, -1.7])
def test_single_precision_preconditioner_matches_double(boundary, beta, rng):
    params = SchemeParams(beta=beta, gamma=1.3, dt=0.2)
    for grid in preconditioner_grids(boundary):
        m = random_unit_field(grid, rng).data
        x = rng.standard_normal((3,) + grid.counts)
        before = x.copy()
        out = _tangent_plane_preconditioner(grid, m, params)(x)
        ref = _tangent_plane_preconditioner(grid, m, params, dtype=np.float64)(x)
        assert np.array_equal(x, before)  # GMRES still holds its operand
        assert out.dtype == np.float64
        assert np.max(np.abs(out - ref)) <= 1e-5 * np.max(np.abs(ref))


def per_step_iters(initial, params, n_steps):
    iters = []
    run(initial, params, SolverConfig(), n_steps,
        callbacks=[lambda report, *_: iters.append(report.krylov_iters)])
    return iters


def bubble_case():
    h = 1 / 64
    grid = GridSpec((65, 65), (h, h), origin=(-0.5, -0.5), boundary=NEUMANN)
    return (VectorField.from_function(grid, blowup_initial),
            SchemeParams(beta=1.0, gamma=1.0, dt=1e-3), 10)


def skyrmion_case():
    # skyrmion_q1_smoke.cfg on a 64^2 box of the same h
    grid = GridSpec((64, 64), (0.2, 0.2), boundary=NEUMANN)
    center = (6.3, 6.3)
    initial = VectorField.from_function(grid, lambda x, y: skyrmion_initial(x, y, center))
    model = FieldModel.extended(3.0, 1)
    return initial, SchemeParams(beta=0.0, gamma=1.0, dt=0.05, model=model), 40


@pytest.mark.parametrize("case", [bubble_case, skyrmion_case], ids=["bubble", "skyrmion"])
def test_single_precision_preconditioner_costs_no_iterations(case, monkeypatch):
    initial, params, n_steps = case()
    single = per_step_iters(initial, params, n_steps)
    monkeypatch.setattr(llgsip.stepper, "_tangent_plane_preconditioner",
                        functools.partial(_tangent_plane_preconditioner, dtype=np.float64))
    double = per_step_iters(initial, params, n_steps)
    assert len(single) == len(double) == n_steps
    assert all(s <= d for s, d in zip(single, double)), (single, double)


def test_run_builds_spectral_factors_once(rng):
    grid = GridSpec((12, 10), (0.3, 0.3), boundary=NEUMANN)
    params = SchemeParams(beta=0.4, gamma=0.9, dt=0.0123)  # a key no other test uses
    misses = _spectral_factors.cache_info().misses
    run(random_unit_field(grid, rng), params, SolverConfig(), 5)
    assert _spectral_factors.cache_info().misses == misses + 1
    vecs, invs, scale = _spectral_factors(grid, params.beta, params.gamma, params.dt,
                                          np.float32)
    assert _spectral_factors.cache_info().misses == misses + 1
    assert scale.shape == (2, 1) + grid.counts
    for arr in vecs + invs + [scale]:
        assert arr.dtype == np.float32 and not arr.flags.writeable


@pytest.mark.parametrize("boundary", [PERIODIC, NEUMANN])
@pytest.mark.parametrize("beta", [0.0, -1.7])
def test_krylov_matvec_equals_operator_apply(boundary, beta, rng, monkeypatch):
    # the matvec GMRES calls keeps every bit of operator_apply and takes the
    # undivided second differences once
    matvecs, laplacians = [], []

    def capturing_gmres(matvec, b, x0, **kwargs):
        matvecs.append(matvec)
        return gmres(matvec, b, x0, **kwargs)

    def counted_laplacian(grid, values, **buffers):
        laplacians.append(buffers["scaled"])
        return array_laplacian(grid, values, **buffers)

    monkeypatch.setattr(llgsip.stepper, "gmres", capturing_gmres)
    monkeypatch.setattr(llgsip.stepper, "array_laplacian", counted_laplacian)
    params = SchemeParams(beta=beta, gamma=0.3, dt=0.05)
    for grid in small_grids(boundary):
        m = random_unit_field(grid, rng)
        solve_intermediate(m, params, SolverConfig(), t_new=params.dt)
        for _ in range(3):
            v = random_field(grid, rng)
            calls = len(laplacians)
            out = matvecs[-1](v.data)
            assert laplacians[calls:] == [False]
            assert np.array_equal(out, operator_apply(v, m, params).data)


def test_bubble_step_matvec_budget():
    # the 65^2 Neumann bubble of blowup_smoke.cfg takes about 215 matvecs
    # per step without the preconditioner, and 32 with its diffusion half
    h = 1 / 64
    grid = GridSpec((65, 65), (h, h), origin=(-0.5, -0.5), boundary=NEUMANN)
    m = VectorField.from_function(grid, blowup_initial)
    params = SchemeParams(beta=1.0, gamma=1.0, dt=1e-3)
    _, iters, _ = solve_intermediate(m, params, TIGHT, t_new=params.dt)
    assert iters <= 16


def test_precession_dominated_step_matvec_budget():
    # gamma = 0.1 on the 100^2 dissipation box: 408 matvecs without the
    # preconditioner, 169 with only its diffusion half
    n = 100
    h = 2 * np.pi / n
    grid = GridSpec((n, n), (h, h))
    m = VectorField.from_function(grid, dissipation_initial)
    params = SchemeParams(beta=1.0, gamma=0.1, dt=0.01)
    _, iters, _ = solve_intermediate(m, params, SolverConfig(), t_new=params.dt)
    assert iters <= 16


@settings(max_examples=40, deadline=None)
@given(
    counts=st.lists(st.integers(2, 6), min_size=2, max_size=3).map(tuple),
    boundary=st.sampled_from([PERIODIC, NEUMANN]),
    beta=st.floats(-2.0, 2.0),
    gamma=st.floats(0.1, 2.0),
    dt=st.floats(1e-3, 0.05),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_preconditioned_solve_matches_unpreconditioned(
    counts, boundary, beta, gamma, dt, seed
):
    grid = GridSpec(counts, (0.3,) * len(counts), boundary=boundary)
    m = random_unit_field(grid, np.random.default_rng(seed))
    params = SchemeParams(beta=beta, gamma=gamma, dt=dt)
    cfg = SolverConfig()
    # unforced, exchange only: the right-hand side is m, as is the start,
    # which gmres overwrites with the solution
    plain, residual = gmres(lambda x: operator_apply(VectorField(grid, x), m, params).data,
                            m.data, m.data.copy(), rtol=cfg.rel_tol, restart=cfg.restart,
                            max_iter=cfg.max_iter)
    assert residual <= 10 * cfg.rel_tol
    pre, _, _ = solve_intermediate(m, params, cfg, t_new=dt)
    assert np.max(np.abs(plain - pre.data)) <= 1e-9


def test_solver_error_carries_residual_history(rng, monkeypatch):
    # one GMRES cycle of three iterations cannot reach rel_tol; the error
    # keeps one GMRES residual estimate per iteration
    m = random_unit_field(GridSpec((4, 4), (0.3, 0.3)), rng)
    params = SchemeParams(beta=1.0, gamma=1.0, dt=0.5)
    monkeypatch.setattr(SolverConfig, "max_iter", 1)
    monkeypatch.setattr(SolverConfig, "restart", 3)
    with pytest.raises(SolverError) as failure:
        solve_intermediate(m, params, SolverConfig(), t_new=0.5)
    history = failure.value.residuals
    assert len(history) == 3 and all(0 < r < np.inf for r in history)


def test_nan_forcing_fails_within_one_cycle(rng):
    # a NaN right-hand side stops GMRES at once instead of taking every
    # restart cycle
    m = random_unit_field(GridSpec((16, 16), (0.3, 0.3)), rng)
    params = SchemeParams(beta=1.0, gamma=1.0, dt=0.1,
                          forcing=lambda x, y, t: (np.nan * x, 0.0 * y, 0.0 * y))
    with pytest.raises(SolverError) as failure:
        run(m, params, SolverConfig(), 1)
    assert len(failure.value.residuals) <= SolverConfig.restart


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_true_residual_decides_over_gmres_info(seed, monkeypatch):
    # the residual a solve returns is ||b - A x|| / ||b|| from a fresh
    # matvec, not GMRES's own estimate, and it alone decides: a solve that
    # GMRES ends at its own looser tolerance fails on it
    rng = np.random.default_rng(seed)
    m = random_unit_field(GridSpec((4, 4), (0.5, 0.5)), rng)
    params = SchemeParams(beta=1.0, gamma=1.0, dt=0.5)
    monkeypatch.setattr(SolverConfig, "max_iter", 1)  # one cycle
    cfg = SolverConfig()
    mt, _, residual = solve_intermediate(m, params, cfg, t_new=0.5)
    b = m.data  # unforced, exchange only: the right-hand side is m
    ref = np.linalg.norm(b - operator_apply(mt, m, params).data) / np.linalg.norm(b)
    assert residual == pytest.approx(ref, rel=1e-12, abs=0)
    assert residual <= 10 * cfg.rel_tol

    def loose_gmres(*args, rtol, **kwargs):
        return gmres(*args, rtol=1e-6, **kwargs)

    monkeypatch.setattr(llgsip.stepper, "gmres", loose_gmres)
    with pytest.raises(SolverError) as failure:
        solve_intermediate(m, params, cfg, t_new=0.5)
    history = failure.value.residuals
    assert history and history[-1] <= 1e-6 < history[0]


def random_system(rng, n):
    """A well-conditioned nonsymmetric matrix, a rough approximate inverse
    of it (its scaled upper triangle, inverted) and a right-hand side."""
    a = 2.0 * np.eye(n) + rng.standard_normal((n, n)) / np.sqrt(n)
    approx = np.linalg.inv(np.diag(np.diag(a)) + 0.5 * np.triu(a, 1))
    return a, approx, rng.standard_normal(n)


@pytest.mark.parametrize("preconditioned", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gmres_matches_scipy(preconditioned, seed):
    # restart 4 is far below the iterations these systems take, so the
    # solve runs many cycles; both solvers reach the solution to 1e-10
    rng = np.random.default_rng(seed)
    a, approx, b = random_system(rng, 60)
    x0 = rng.standard_normal(60)
    history = []
    ref, info = scipy.sparse.linalg.gmres(a, b, x0=x0, rtol=1e-13, atol=0.0, restart=4,
                                          maxiter=200, M=approx if preconditioned else None)
    x, residual = gmres(lambda v: a @ v, b, x0, rtol=1e-13, restart=4, max_iter=200,
                        psolve=(lambda v, out: np.matmul(approx, v, out=out))
                        if preconditioned else None,
                        callback=history.append)
    assert x is x0  # solved in place of the start
    assert info == 0 and len(history) > 4
    assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))
    assert residual == np.linalg.norm(b - a @ x) / np.linalg.norm(b) <= 1e-13


def test_gmres_costs_one_apply_per_iteration_and_one_matvec_per_cycle_more(rng):
    a, approx, b = random_system(rng, 40)
    counts = {"matvec": 0, "psolve": 0, "iterations": 0}

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call

    for restart, cycles in ((40, 1), (3, None)):
        counts.update(matvec=0, psolve=0, iterations=0)
        gmres(counted("matvec", lambda v: a @ v), b, np.zeros(40), rtol=1e-12,
              restart=restart, max_iter=100,
              psolve=counted("psolve", lambda v, out: np.matmul(approx, v, out=out)),
              callback=counted("iterations", lambda r: None))
        k = counts["iterations"]
        cycles = cycles or -(-k // restart)
        assert counts["psolve"] == k
        assert counts["matvec"] == k + cycles + 1


def test_solve_applies_preconditioner_once_per_iteration(monkeypatch):
    # the tangent-plane apply runs once per Krylov iteration, none at the
    # start residual or at the end of a cycle
    applies, iterations = [], []
    make = llgsip.stepper._tangent_plane_preconditioner

    def counted_preconditioner(*args):
        apply = make(*args)

        def counted(x, out):
            applies.append(1)
            return apply(x, out)
        return counted

    def counted_gmres(*args, callback, **kwargs):
        def count(estimate):
            iterations.append(estimate)
            callback(estimate)
        return gmres(*args, callback=count, **kwargs)

    monkeypatch.setattr(llgsip.stepper, "_tangent_plane_preconditioner",
                        counted_preconditioner)
    monkeypatch.setattr(llgsip.stepper, "gmres", counted_gmres)
    h = 1 / 64
    grid = GridSpec((65, 65), (h, h), origin=(-0.5, -0.5), boundary=NEUMANN)
    m = VectorField.from_function(grid, blowup_initial)
    params = SchemeParams(beta=1.0, gamma=1.0, dt=1e-3)
    _, iters, _ = solve_intermediate(m, params, SolverConfig(), t_new=params.dt)
    assert len(applies) == len(iterations) > 1
    # one cycle: the start residual and k Arnoldi matvecs; the end one is not counted
    assert iters == len(iterations) + 1


def test_run_reuses_one_workspace_for_the_same_results(monkeypatch):
    # two steps of one run share the Krylov storage and give the bits of two
    # solves that each allocate their own
    works = []

    def recording_gmres(*args, work, **kwargs):
        works.append(work)
        return gmres(*args, work=work, **kwargs)

    monkeypatch.setattr(llgsip.stepper, "gmres", recording_gmres)
    h = 1 / 16
    grid = GridSpec((17, 17), (h, h), origin=(-0.5, -0.5), boundary=NEUMANN)
    m0 = VectorField.from_function(grid, blowup_initial)
    params = SchemeParams(beta=1.0, gamma=1.0, dt=1e-3)
    tildes = []  # mt lies in the run's workspace, valid during the callback alone
    run(m0, params, SolverConfig(), 2,
        callbacks=[lambda rep, mp, mt, mn: tildes.append(mt.data.copy())])
    assert len(works) == 2 and works[0] is works[1] is not None
    assert works[0].shape == (2 * SolverConfig().restart + 1, 3) + grid.counts

    works.clear()
    m_prev = ingest_initial(m0)[0]
    fresh1, _, _ = solve_intermediate(m_prev, params, SolverConfig(), t_new=params.dt)
    m1 = normalize(fresh1)
    guess = VectorField(grid, fresh1.data - m_prev.data)
    guess.data += m1.data
    fresh2, _, _ = solve_intermediate(m1, params, SolverConfig(), t_new=2 * params.dt,
                                      x0=guess)
    assert len(works) == 2 and works[0] is not works[1]
    assert np.array_equal(tildes[0], fresh1.data)
    assert np.array_equal(tildes[1], fresh2.data)


def test_gmres_rejects_a_workspace_that_does_not_fit(rng):
    a, _, b = random_system(rng, 10)
    with pytest.raises(ValueError, match="workspace"):
        gmres(lambda v: a @ v, b, b, rtol=1e-12, restart=5, max_iter=3,
              work=krylov_workspace((10,), 4))


def rolled_laplacian(n, h, boundary):
    """The 1-D three-point Laplacian and its trapezoidal weights, written
    out from a rolled identity, with the Neumann wall rows set by hand."""
    eye = np.eye(n)
    lap = (np.roll(eye, 1, axis=0) + np.roll(eye, -1, axis=0) - 2.0 * eye) / h ** 2
    w = np.ones(n)
    if boundary == NEUMANN:
        lap[0, -1] = lap[-1, 0] = 0.0
        lap[0, 1] = lap[-1, -2] = 2.0 / h ** 2
        w[0] = w[-1] = 0.5
    return lap, w


@pytest.mark.parametrize("boundary", [PERIODIC, NEUMANN])
def test_axis_eigenbasis_is_the_rolled_reference_byte_for_byte(boundary):
    # grid builds L from the matvec's node stencil; the eigenbasis of the
    # hand-written matrix, symmetrized the same way, has the same bits
    for n in [*range(2, 41), 64, 65, 128, 129, 257]:
        for h in (1.0 / n, 0.3):
            lap, w = rolled_laplacian(n, h, boundary)
            s = np.sqrt(w)
            lam, u = np.linalg.eigh(w[:, None] * lap / np.outer(s, s))
            ref = (lam, u / s[:, None], u.T * s)
            for got, want in zip(_axis_eigenbasis(n, h, boundary), ref):
                assert got.tobytes() == want.tobytes(), (n, h)


@pytest.mark.parametrize("boundary", [PERIODIC, NEUMANN])
@pytest.mark.parametrize("n", [2, 5, 65, 128])
def test_axis_eigenbasis_matches_scipy_generalized_eigh(boundary, n):
    # the symmetrized problem gives the eigenvalues of W L v = lam W v, and
    # the same spectral calculus V f(lam) V^-1; periodic eigenvalues come in
    # pairs, so single eigenvectors are not unique and are not compared
    h = 1.0 / n
    lam, vecs, inv = _axis_eigenbasis(n, h, boundary)
    assert np.max(np.abs(inv @ vecs - np.eye(n))) <= 1e-13
    lap, w = rolled_laplacian(n, h, boundary)
    ref_lam, ref_vecs = scipy.linalg.eigh(w[:, None] * lap, np.diag(w))
    scale = np.max(np.abs(ref_lam))
    assert np.max(np.abs(lam - ref_lam)) <= 1e-13 * scale
    resolvent = (vecs / (1.0 - 0.3 * h ** 2 * lam)) @ inv
    ref = (ref_vecs / (1.0 - 0.3 * h ** 2 * ref_lam)) @ (ref_vecs.T * w)
    assert np.max(np.abs(resolvent - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_cli_import_loads_no_scipy():
    # the solver is NumPy only: SciPy's import would cost most of a run's set-up
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys, llgsip.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------

def test_normalize_scaling_and_idempotence(rng):
    grid = GridSpec((5, 5), (0.4, 0.4))
    m = random_unit_field(grid, rng)
    scaled = VectorField(grid, 3.7 * m.data)
    proj = normalize(scaled)
    assert np.max(np.abs(proj.data - m.data)) <= 1e-15
    again = normalize(proj)
    assert np.max(np.abs(again.data - proj.data)) <= 1e-15


def test_normalize_rejects_zero_node(rng):
    grid = GridSpec((4, 4), (0.5, 0.5))
    m = random_unit_field(grid, rng)
    m.data[:, 1, 2] = 0.0
    with pytest.raises(DegenerateStateError):
        normalize(m)


def test_projection_reduces_gradient(rng):
    # if mt . m = 1 pointwise with |m| = 1 then |grad(mt/|mt|)| <= |grad mt|;
    # build such a pair directly: mt = m + tangent perturbation
    grid = GridSpec((8, 8), (0.4, 0.4))
    for _ in range(10):
        m = random_unit_field(grid, rng)
        tang = random_field(grid, rng).data
        tang -= np.sum(tang * m.data, axis=0) * m.data
        mt = VectorField(grid, m.data + tang)
        assert grad_l2_norm(normalize(mt)) <= grad_l2_norm(mt) + 1e-13


# ---------------------------------------------------------------------------
# single step
# ---------------------------------------------------------------------------

def test_step_uniform_fixed_point():
    grid = GridSpec((8, 8), (0.3, 0.3))
    m = VectorField.constant(grid, (0.0, 1.0, 0.0))
    m_new, mt, rep = step(m, SchemeParams(beta=1.0, gamma=1.0, dt=0.1), TIGHT, t_new=0.1)
    assert np.max(np.abs(m_new.data - m.data)) <= 1e-12
    assert rep.max_length_error <= 1e-14


def test_step_report_measures_the_invariants(rng):
    grid = GridSpec((12, 12), (2 * np.pi / 12,) * 2)
    m = random_unit_field(grid, rng)
    m_new, mt, rep = step(m, SchemeParams(beta=1.0, gamma=1.0, dt=0.01), TIGHT,
                          t_new=0.01, step_index=4)
    dots = np.sum(mt.data * m.data, axis=0)
    assert rep.max_orthogonality_error == np.max(np.abs(dots - 1.0))
    assert rep.min_intermediate_length == np.min(mt.pointwise_norm())
    assert rep.invariant_failures() == {}


@pytest.mark.parametrize("name, value, what", [
    ("max_length_error", 1e-12, "||m|-1|"),
    ("min_intermediate_length", 0.99, "min|mt|"),
    ("max_orthogonality_error", 1e-6, "|mt.m-1|"),
    ("max_orthogonality_error", float("nan"), "|mt.m-1|"),
], ids=["length", "intermediate", "orthogonality", "orthogonality-nan"])
def test_invariant_failures_name_invariant_step_and_value(name, value, what):
    rep = StepReport(step_index=7, time=0.7, krylov_iters=3, residual=1e-13,
                     min_intermediate_length=1.0, energy=1.0, max_length_error=0.0,
                     max_orthogonality_error=0.0)
    setattr(rep, name, value)
    [message] = rep.invariant_failures().values()
    assert message.startswith(f"{what} = {value!r} at step 7")


def test_one_step_energy_decrease():
    n = 32
    h = 2 * np.pi / n
    grid = GridSpec((n, n), (h, h))
    m = VectorField.from_function(grid, dissipation_initial)
    for dt in (0.01, 0.1, 1.0):
        m_new, _, _ = step(m, SchemeParams(beta=1.0, gamma=1.0, dt=dt), TIGHT, t_new=dt)
        assert exchange_energy(m_new) <= exchange_energy(m) + 1e-10


def test_one_step_matches_dense_reference_with_forcing(rng):
    # full step with forcing on a tiny grid against a dense direct solve
    exact = manufactured_solution(beta=1.0, gamma=1.0)
    n = 4
    h = 2 * np.pi / n
    grid = GridSpec((n, n), (h, h))
    m0 = exact.sample(grid, 0.0)
    dt = 0.01
    params = SchemeParams(beta=1.0, gamma=1.0, dt=dt, forcing=exact.forcing)
    m_new, mt, _ = step(m0, params, TIGHT, t_new=dt)

    mat = dense_operator(m0, params)
    X, Y = grid.meshgrid()
    f = np.stack([np.broadcast_to(c, grid.counts) for c in exact.forcing(X, Y, dt)])
    rhs = (m0.data + dt * f).ravel()
    ref_t = np.linalg.solve(mat, rhs).reshape((3,) + grid.counts)
    ref = ref_t / np.linalg.norm(ref_t, axis=0)
    assert np.max(np.abs(mt.data - ref_t)) <= 1e-10
    assert np.max(np.abs(m_new.data - ref)) <= 1e-10


# ---------------------------------------------------------------------------
# time loop
# ---------------------------------------------------------------------------

def test_run_zero_horizon_returns_input(rng):
    grid = GridSpec((6, 6), (0.5, 0.5))
    m = random_unit_field(grid, rng)
    res = run(m, SchemeParams(beta=1.0, gamma=1.0, dt=0.1), TIGHT, 0)
    assert np.array_equal(res.state.data, normalize(m).data)
    assert (res.time, res.step) == (0.0, 0)


def test_run_rejects_zero_dt_with_horizon(rng):
    grid = GridSpec((4, 4), (0.5, 0.5))
    m = random_unit_field(grid, rng)
    with pytest.raises(ValueError):
        run(m, SchemeParams(beta=1.0, gamma=1.0, dt=0.0), TIGHT, 10)


def test_run_rejects_non_unit_initial(rng):
    grid = GridSpec((4, 4), (0.5, 0.5))
    f = random_field(grid, rng)
    with pytest.raises(ValueError):
        run(f, SchemeParams(beta=1.0, gamma=1.0, dt=0.1), TIGHT, 1)


def test_run_monotone_energy_and_callbacks():
    n = 16
    h = 2 * np.pi / n
    grid = GridSpec((n, n), (h, h))
    m0 = VectorField.from_function(grid, dissipation_initial)
    seen = []
    res = run(
        m0,
        SchemeParams(beta=1.0, gamma=1.0, dt=0.05),
        TIGHT,
        10,
        callbacks=[lambda rep, mp, mt, mn: seen.append(rep)],
    )
    assert res.step == 10 and [r.step_index for r in seen] == list(range(1, 11))
    assert res.time == seen[-1].time == 10 * 0.05
    energies = [exchange_energy(m0)] + [r.energy for r in seen]
    assert all(b <= a + 1e-10 for a, b in zip(energies, energies[1:]))


def test_run_extrapolated_start_saves_matvecs():
    # 25 steps of the 65^2 Neumann bubble of blowup_smoke.cfg take 207
    # krylov_iters from the linear start m^n + (mt^n - m^(n-1)), and 192
    # from the cubic start
    h = 1 / 64
    grid = GridSpec((65, 65), (h, h), origin=(-0.5, -0.5), boundary=NEUMANN)
    m0 = VectorField.from_function(grid, blowup_initial)
    params = SchemeParams(beta=1.0, gamma=1.0, dt=1e-3)
    reports = []
    run(m0, params, SolverConfig(), 25, callbacks=[lambda rep, *_: reports.append(rep)])
    assert sum(r.krylov_iters for r in reports) <= 198
    # the first step has no step before it, and starts from m^0
    _, iters, _ = solve_intermediate(m0, params, SolverConfig(), t_new=params.dt)
    assert reports[0].krylov_iters == iters


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 7])
def test_extrapolated_start_is_exact_for_polynomial_increments(k, rng):
    # the start of solve k + 1 is m^n + d^(k+1) wherever d^j is a polynomial
    # of degree min(k, 3) - 1 in j: quadratic from the fourth solve on, with
    # the ring of increments wrapped around
    shape = (3, 4, 5)
    coefs = rng.standard_normal((3,) + shape)[:min(k, 3)]

    def increment(j):
        return sum(c * float(j) ** p for p, c in enumerate(coefs))

    history = np.full((3,) + shape, np.nan)
    for j in range(max(1, k - 2), k + 1):
        history[j % 3] = increment(j)
    m_new = rng.standard_normal(shape)
    out = np.empty(shape)
    start = _extrapolated_start(history, k, m_new, out)
    assert start is out
    expected = m_new + increment(k + 1)
    assert np.max(np.abs(start - expected)) <= 1e-12 * np.max(np.abs(expected))


def recorded_starts(monkeypatch):
    """Copies of the start of every solve, in order, once gmres is patched."""
    starts = []

    def recording_gmres(matvec, b, x0, **kwargs):
        starts.append(np.array(x0))
        return gmres(matvec, b, x0, **kwargs)

    monkeypatch.setattr(llgsip.stepper, "gmres", recording_gmres)
    return starts


def test_run_raises_the_start_order_over_the_first_solves(monkeypatch):
    # solves 1, 2 and 3 start from the extrapolations of order 0, 1 and 2
    # in mt, every later one from the cubic
    starts = recorded_starts(monkeypatch)
    h = 1 / 16
    grid = GridSpec((17, 17), (h, h), origin=(-0.5, -0.5), boundary=NEUMANN)
    params = SchemeParams(beta=1.0, gamma=1.0, dt=1e-3)
    states, incs = [], []

    def keep(rep, m_prev, m_tilde, m_new):
        states.append(m_new.data)
        incs.append(m_tilde.data - m_prev.data)

    m0 = VectorField.from_function(grid, blowup_initial)
    run(m0, params, SolverConfig(), 5, callbacks=[keep])
    assert len(starts) == 5
    assert np.array_equal(starts[0], ingest_initial(m0)[0].data)
    assert np.array_equal(starts[1], states[0] + incs[0])
    expected = [states[1] + 2 * incs[1] - incs[0]]
    expected += [states[n] + 3 * (incs[n] - incs[n - 1]) + incs[n - 2] for n in (2, 3)]
    for start, ref in zip(starts[2:], expected):
        assert np.max(np.abs(start - ref)) <= 1e-15


def test_second_run_call_starts_from_its_initial_state(monkeypatch):
    # the increments of one call are not carried into the next, so a resumed
    # run starts its first solve from m^n
    starts = recorded_starts(monkeypatch)
    h = 1 / 16
    grid = GridSpec((17, 17), (h, h), origin=(-0.5, -0.5), boundary=NEUMANN)
    params = SchemeParams(beta=1.0, gamma=1.0, dt=1e-3)
    first = run(VectorField.from_function(grid, blowup_initial), params, SolverConfig(), 4)
    run(first.state, params, SolverConfig(), 2)
    assert len(starts) == 6
    assert np.array_equal(starts[4], ingest_initial(first.state)[0].data)


def test_cubic_start_manufactured_iteration_budget():
    # the 64^2 level of converge_table2.cfg: from the linear start every
    # solve takes 5 krylov_iters (4 GMRES iterations); from the cubic start
    # each solve after the third takes 4 (3 GMRES iterations)
    exact = manufactured_solution(beta=1.0, gamma=1.0)
    n = 64
    grid = GridSpec((n, n), (2 * np.pi / n,) * 2)
    params = SchemeParams(beta=1.0, gamma=1.0, dt=1 / n, forcing=exact.forcing)
    reports = []
    run(exact.sample(grid, 0.0), params, SolverConfig(), n,
        callbacks=[lambda rep, *_: reports.append(rep)])
    assert len(reports) == n
    gmres_iters = [r.krylov_iters - 1 for r in reports[3:]]
    assert max(gmres_iters) <= 3, gmres_iters


def test_run_steady_state_exit():
    n = 16
    h = 2 * np.pi / n
    grid = GridSpec((n, n), (h, h))
    m0 = VectorField.from_function(grid, dissipation_initial)
    res = run(
        m0,
        SchemeParams(beta=1.0, gamma=1.0, dt=0.1),
        TIGHT,
        5000,
        steady_tol=1e-6,
    )
    assert res.steady
    # the exchange-only flow on the torus relaxes to a uniform state
    assert grad_l2_norm(res.state) <= 1e-4


def test_ingest_initial_reports_drift(rng):
    grid = GridSpec((4, 4), (0.5, 0.5))
    m = random_unit_field(grid, rng)
    m.data *= 1.0 + 1e-13
    state, drift = ingest_initial(m)
    assert drift <= 1e-12
    assert np.max(np.abs(state.pointwise_norm() - 1.0)) <= 1e-15


def test_non_finite_initial_data_is_rejected(rng):
    m = random_unit_field(GridSpec((16, 16), (0.5, 0.5)), rng)
    m.data[1, 3, 5] = np.nan
    with pytest.raises(ValueError, match="not finite"):
        ingest_initial(m)
    params = SchemeParams(beta=1.0, gamma=1.0, dt=0.1)
    with pytest.raises(ValueError, match="not finite"):
        run(m, params, SolverConfig(), 2)


def test_run_rejects_a_non_finite_projection(rng, monkeypatch):
    # run reads finiteness off the step's max_length_error: a NaN node of
    # m_new must still stop the loop at the step that made it
    project = llgsip.stepper.normalize

    def nan_node(m_tilde, lengths=None):
        m_new = project(m_tilde, lengths)
        if lengths is not None:  # the step's projection, not ingest_initial's
            m_new.data[2, 1, 3] = np.nan
        return m_new

    monkeypatch.setattr(llgsip.stepper, "normalize", nan_node)
    m = random_unit_field(GridSpec((6, 6), (0.5, 0.5)), rng)
    with pytest.raises(FloatingPointError, match="non-finite state detected at step 1$"):
        run(m, SchemeParams(beta=1.0, gamma=1.0, dt=0.1), SolverConfig(), 3)


# ---------------------------------------------------------------------------
# renormalization error relations
# ---------------------------------------------------------------------------

def test_renormalization_relations_vectorized(rng):
    # for |mt| >= 1 and unit m_e, with e = m_e - mt/|mt| and et = m_e - mt:
    #   |e|^2 + |et - e|^2 <= |et|^2 <= 2(|e|^2 + |et - e|^2)
    n = 10 ** 4
    m_e = rng.standard_normal((n, 3))
    m_e /= np.linalg.norm(m_e, axis=-1, keepdims=True)
    mt = rng.standard_normal((n, 3))
    lengths = np.linalg.norm(mt, axis=-1, keepdims=True)
    mt *= (1.0 + rng.random((n, 1)) * 4.0) / lengths  # |mt| in [1, 5]
    proj = mt / np.linalg.norm(mt, axis=-1, keepdims=True)
    e = m_e - proj
    et = m_e - mt
    e2 = np.sum(e ** 2, axis=-1)
    d2 = np.sum((et - e) ** 2, axis=-1)
    et2 = np.sum(et ** 2, axis=-1)
    assert np.all(e2 + d2 <= et2 * (1 + 1e-13) + 1e-13)
    assert np.all(et2 <= 2.0 * (e2 + d2) * (1 + 1e-13) + 1e-13)


@given(
    me=hnp.arrays(np.float64, (3,), elements=st.floats(-1.0, 1.0)),
    mt=hnp.arrays(np.float64, (3,), elements=st.floats(-1.0, 1.0)),
    stretch=st.floats(0.0, 9.0),
)
def test_renormalization_relations_property(me, mt, stretch):
    # same inequalities, driven by hypothesis over single vectors
    if np.linalg.norm(me) < 1e-3 or np.linalg.norm(mt) < 1e-3:
        return
    me = me / np.linalg.norm(me)
    mt = mt * (1.0 + stretch) / np.linalg.norm(mt)
    e = me - mt / np.linalg.norm(mt)
    et = me - mt
    e2, d2, et2 = e @ e, (et - e) @ (et - e), et @ et
    assert e2 + d2 <= et2 * (1 + 1e-12) + 1e-12
    assert et2 <= 2.0 * (e2 + d2) * (1 + 1e-12) + 1e-12


@given(
    data=hnp.arrays(
        np.float64, (3, 4, 5), elements=st.floats(-10.0, 10.0, allow_nan=False)
    ),
    scale=st.floats(1e-6, 1e6),
)
def test_normalize_scale_invariance_property(data, scale):
    grid = GridSpec((4, 5), (0.5, 0.5))
    lengths = np.linalg.norm(data, axis=0)
    if np.min(lengths) < 1e-6:
        return
    a = normalize(VectorField(grid, data))
    b = normalize(VectorField(grid, scale * data))
    assert np.max(np.abs(a.data - b.data)) <= 1e-12
    assert np.max(np.abs(a.pointwise_norm() - 1.0)) <= 1e-12


def test_params_validation():
    with pytest.raises(ValueError):
        SchemeParams(beta=1.0, gamma=0.0, dt=0.1)
    for bad in (float("nan"), -0.1):
        with pytest.raises(ValueError):
            SchemeParams(beta=1.0, gamma=bad, dt=0.1)
        with pytest.raises(ValueError):
            SchemeParams(beta=1.0, gamma=1.0, dt=bad)
    # the solver settings are fixed: the invariant bounds rest on the tolerance
    assert SolverConfig().rel_tol == 1e-12
    for key, value in (("rel_tol", 1e-6), ("max_iter", 1), ("restart", 3)):
        with pytest.raises(TypeError):
            SolverConfig(**{key: value})


# ---------------------------------------------------------------------------
# run-owned buffers: the same bits as allocating calls, and no step-sized
# temporaries
# ---------------------------------------------------------------------------

BUFFER_GRIDS = [(2, 2), (2, 5), (6, 2), (7, 6), (2, 3, 2), (4, 5, 3)]


def bits(a):
    """The bytes of an array: unlike np.array_equal, this sees -0.0 apart
    from 0.0."""
    return a.dtype.str, a.shape, a.tobytes()


def signed_zeros(values, rng):
    """``values`` with about a third of its entries set to 0.0 or -0.0."""
    zero = rng.random(values.shape) < 0.3
    values[zero] = np.where(rng.random(zero.sum()) < 0.5, 0.0, -0.0)
    return values


@pytest.mark.parametrize("boundary", [PERIODIC, NEUMANN])
def test_buffered_stencils_keep_the_bits_of_a_zero_filled_sum(boundary, rng):
    # every axis of 2 nodes and more, 2-D and 3-D, one pair of buffers
    # reused across calls; the reference sums each axis's term onto zeros
    for counts in BUFFER_GRIDS:
        grid = GridSpec(counts, tuple(0.3 + 0.1 * a for a in range(len(counts))),
                        boundary=boundary)
        out, term = np.empty((2, 3) + counts)
        for _ in range(3):
            values = signed_zeros(rng.standard_normal((3,) + counts), rng)
            ref = np.zeros_like(values)
            for a, h in enumerate(grid.spacing):
                hi, lo = (np.roll(values, -s, axis=1 + a) for s in (1, -1))
                if boundary == NEUMANN:  # the ghost reflects: m_{-1} = m_1
                    first, last = (at_index(a, 0), at_index(a, 1)), (at_index(a, -1),
                                                                    at_index(a, -2))
                    lo[first[0]], hi[last[0]] = values[first[1]], values[last[1]]
                ref += (hi - 2.0 * values + lo) / h ** 2
            fresh = array_laplacian(grid, values)
            assert array_laplacian(grid, values, out=out, term=term) is out
            assert bits(out) == bits(fresh) == bits(ref)
            d = np.empty_like(values)
            for a in range(grid.dim):
                assert bits(array_central_difference(grid, values, a, out=d)) == bits(
                    array_central_difference(grid, values, a))


def at_index(axis, index):
    """Key of the nodes at ``index`` along spatial ``axis`` of a field."""
    return (slice(None),) * (axis + 1) + (index,)


@pytest.mark.parametrize("boundary", [PERIODIC, NEUMANN])
@pytest.mark.parametrize("beta", [0.0, -1.7])
def test_buffered_matvec_keeps_the_bits_of_operator_apply(boundary, beta, rng):
    params = SchemeParams(beta=beta, gamma=0.3, dt=0.05)
    for counts in BUFFER_GRIDS:
        grid = GridSpec(counts, (0.4,) * len(counts), boundary=boundary)
        work = StepWorkspace(counts, 3)
        m = random_unit_field(grid, rng)
        q = _local_operator(grid, m.data, params, out=work.local, scratch=work.fields[0])
        assert bits(q) == bits(_local_operator(grid, m.data, params))
        for _ in range(3):
            v = VectorField(grid, signed_zeros(rng.standard_normal((3,) + counts), rng))
            out = _apply_operator(grid, v.data, q, work.fields)
            assert np.shares_memory(out, work.fields)  # a buffer of the workspace
            assert bits(out) == bits(operator_apply(v, m, params).data)


@pytest.mark.parametrize("boundary", [PERIODIC, NEUMANN])
@pytest.mark.parametrize("beta", [0.0, -1.7])
def test_buffered_single_precision_apply_keeps_the_bits_of_a_fresh_one(boundary, beta,
                                                                       rng):
    # the float32 apply in a workspace, written into a Krylov row, against
    # one that allocates every intermediate
    params = SchemeParams(beta=beta, gamma=1.3, dt=0.2)
    for counts in BUFFER_GRIDS:
        grid = GridSpec(counts, (0.4,) * len(counts), boundary=boundary)
        work = StepWorkspace(counts, 3)
        m = random_unit_field(grid, rng).data
        buffered = _tangent_plane_preconditioner(grid, m, params, work)
        fresh = _tangent_plane_preconditioner(grid, m, params)
        for j in range(3):
            x = rng.standard_normal((3,) + counts)
            before = x.copy()
            row = work.krylov[-1 - j]
            assert buffered(x, row) is row
            assert bits(row) == bits(fresh(x))
            assert np.array_equal(x, before)


def per_step_peaks(initial, params, n_steps):
    """Per step after the first, the peak of traced memory above its value
    at the end of the step before, in fields of the grid."""
    peaks, start = [], []

    def measure(report, *_):
        current, peak = tracemalloc.get_traced_memory()
        if start:
            peaks.append((peak - start[0]) / initial.data.nbytes)
        tracemalloc.reset_peak()
        start[:] = [tracemalloc.get_traced_memory()[0]]

    tracemalloc.start()
    try:
        run(initial, params, SolverConfig(), n_steps, callbacks=[measure])
    finally:
        tracemalloc.stop()
    return peaks


def forced_case():
    # the 64^2 level of converge_table2.cfg
    exact = manufactured_solution(beta=1.0, gamma=1.0)
    n = 64
    grid = GridSpec((n, n), (2 * np.pi / n,) * 2)
    return exact.sample(grid, 0.0), SchemeParams(beta=1.0, gamma=1.0, dt=1 / n,
                                                 forcing=exact.forcing)


@pytest.mark.parametrize("case", [skyrmion_case, forced_case],
                         ids=["skyrmion-neumann", "forced-periodic"])
def test_step_allocates_at_most_two_fields_after_the_first(case):
    # the run's workspace holds every full-size temporary of a step; what a
    # step still allocates is its new state and NumPy's iterator buffers,
    # which have a fixed size (1.35 fields at 64^2)
    initial, params = case()[:2]
    peaks = per_step_peaks(initial, params, 6)
    assert len(peaks) == 5 and max(peaks) <= 2.0, peaks


@pytest.mark.parametrize("lam", [1, -1])
@pytest.mark.parametrize("boundary", [PERIODIC, NEUMANN])
def test_field_and_energy_take_their_derivatives_in_any_scratch(boundary, lam, rng):
    # the planar derivatives are the per-axis central differences; the field
    # and the energy, given scratch that holds NaN, keep the bits of fresh
    # calls; and every step reports the energy of its new state
    model = FieldModel.extended(3.0, lam)
    for counts in ((9, 7), (33, 32)):
        grid = GridSpec(counts, (0.3, 0.4), boundary=boundary)
        m = random_unit_field(grid, rng)
        out = np.full((2, 3) + counts, np.nan)
        assert planar_derivatives(m, out) is out
        for axis in (0, 1):
            assert bits(out[axis]) == bits(array_central_difference(grid, m.data, axis))
        work = StepWorkspace(counts, 3)
        work.krylov.fill(np.nan)
        field = explicit_field_apply(m, model, out=work.fields[0], plane=work.plane,
                                     scratch=work.krylov)
        assert bits(field.data) == bits(explicit_field_apply(m, model).data)
        work.krylov.fill(np.nan)
        assert extended_energy(m, model, work.krylov) == extended_energy(m, model)
    grid = GridSpec((32, 32), (0.2, 0.2), boundary=boundary)
    initial = VectorField.from_function(grid, lambda x, y: skyrmion_initial(x, y, (3.1, 3.1)))
    params = SchemeParams(beta=0.0, gamma=1.0, dt=0.05, model=model)
    energies = []
    run(initial, params, SolverConfig(), 4, callbacks=[
        lambda report, m_prev, m_tilde, m_new: energies.append(
            (report.energy, extended_energy(m_new, model)))])
    assert len(energies) == 4
    assert all(reported == fresh for reported, fresh in energies)
