"""Stepper tests: dense-matrix oracles, scheme invariants and the time loop."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
import scipy.linalg
import scipy.sparse.linalg

import llgsip.stepper

from llgsip.diagnostics import ExactSolution
from llgsip.exact import blowup_initial, dissipation_initial, manufactured_solution
from llgsip.effective_field import exchange_energy
from llgsip.grid import (
    NEUMANN,
    PERIODIC,
    GridSpec,
    VectorField,
    array_laplacian,
    grad_l2_norm,
)
from llgsip.stepper import (
    DegenerateStateError,
    SchemeParams,
    SolverConfig,
    _along_axis,
    _axis_eigenbasis,
    _cross,
    _cross_terms,
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
        v = VectorField(grid, e.reshape(grid.counts + (3,)))
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
        m, w = np.moveaxis(a, 0, -1), np.moveaxis(b, 0, -1)
        c1 = np.cross(m, w)
        ref = np.moveaxis(1.3 * c1 + 0.7 * np.cross(m, c1), -1, 0)
        assert np.array_equal(_cross_terms(a, b, 1.3, 0.7), ref)


@pytest.mark.parametrize("boundary", [PERIODIC, NEUMANN])
def test_operator_equals_np_cross_formula(boundary, rng):
    # the matvec keeps the bits of v + dt*(beta m x lap v + gamma m x (m x lap v))
    for grid in small_grids(boundary):
        m, v = random_unit_field(grid, rng), random_field(grid, rng)
        params = SchemeParams(beta=-1.7, gamma=0.3, dt=0.05)
        lap = array_laplacian(grid, v.data)
        c1 = np.cross(m.data, lap)
        ref = v.data + params.dt * (params.beta * c1 + params.gamma * np.cross(m.data, c1))
        assert np.array_equal(operator_apply(v, m, params).data, ref)


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
    dots = np.sum(mt.data * m.data, axis=-1)
    assert np.max(np.abs(dots - 1.0)) <= 1e-9
    assert np.min(np.sqrt(np.sum(mt.data ** 2, axis=-1))) >= 1.0 - 1e-9


@pytest.mark.parametrize("boundary", [PERIODIC, NEUMANN])
def test_axis_eigenbasis_reproduces_laplacian(boundary, rng):
    # V diag(lam) V^-1 per axis, summed over axes, is the 3-point Laplacian
    grids = small_grids(boundary) + [
        GridSpec((2, 3), (0.5, 0.5), boundary=boundary),
        GridSpec((65, 64), (1 / 64,) * 2, boundary=boundary),
    ]
    for grid in grids:
        f = rng.standard_normal(grid.counts + (3,))
        lap = np.zeros_like(f)
        for a, (n, h) in enumerate(zip(grid.counts, grid.spacing)):
            lam, vecs, inv = _axis_eigenbasis(n, h, boundary)
            lap += _along_axis(vecs * lam, _along_axis(inv, f, a), a)
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


def planes(data):
    """Component-last data as component-first planes, shape (3, N0, N1[, N2])."""
    return np.moveaxis(data, -1, 0).copy()


def tensordot_preconditioner(m_prev, params):
    """Reference apply of the tangent-plane preconditioner: components last,
    each per-axis transform a tensordot, and F1, F2 transformed apart."""
    grid, m = m_prev.grid, m_prev.data
    bases = [
        _axis_eigenbasis(n, h, grid.boundary)
        for n, h in zip(grid.counts, grid.spacing)
    ]
    eig = sum(np.meshgrid(*(lam for lam, _, _ in bases), indexing="ij", sparse=True))
    a = 1.0 - params.gamma * params.dt * eig
    b = params.beta * params.dt * eig
    f1, f2 = (a / (a * a + b * b))[..., None], (b / (a * a + b * b))[..., None]

    def along(mat, values, axis):
        return np.moveaxis(np.tensordot(mat, values, axes=(1, axis)), 0, axis)

    def apply(x):
        mx = np.einsum("...i,...i->...", m, x)[..., None]
        t = x - m * mx
        for k, (_, _, inv) in enumerate(bases):
            t = along(inv, t, k)
        u, w = f1 * t, f2 * t
        for k, (_, vecs, _) in enumerate(bases):
            u, w = along(vecs, u, k), along(vecs, w, k)
        t = u - np.cross(m, w)
        t += m * (mx - np.einsum("...i,...i->...", m, t)[..., None])
        return t

    return apply


@pytest.mark.parametrize("boundary", [PERIODIC, NEUMANN])
@pytest.mark.parametrize("beta", [0.0, -1.7])
def test_preconditioner_matches_tensordot_reference(boundary, beta, rng):
    params = SchemeParams(beta=beta, gamma=1.3, dt=0.2)
    for grid in (
        GridSpec((9, 7), (0.4, 0.4), boundary=boundary),
        GridSpec((64, 65), (0.1, 0.1), boundary=boundary),
        GridSpec((5, 6, 4), (0.4, 0.4, 0.4), boundary=boundary),
    ):
        m = random_unit_field(grid, rng)
        x = rng.standard_normal((3,) + grid.counts)  # component-first, as GMRES holds it
        before = x.copy()
        out = _tangent_plane_preconditioner(grid, planes(m.data), params)(x)
        ref = planes(tensordot_preconditioner(m, params)(np.moveaxis(x, 0, -1)))
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
        apply = _tangent_plane_preconditioner(grid, planes(m.data), params)
        out = apply(planes(operator_apply(v, m, params).data))
        assert np.max(np.abs(out - planes(v.data))) <= 1e-13
        # GMRES also spends a matvec on the start and on the end residual
        _, iters, res = solve_intermediate(m, params, SolverConfig(), t_new=params.dt)
        assert iters <= 3 and res <= 1e-12


@pytest.mark.parametrize("boundary", [PERIODIC, NEUMANN])
@pytest.mark.parametrize("beta", [0.0, -1.7])
def test_krylov_matvec_equals_operator_apply(boundary, beta, rng, monkeypatch):
    # GMRES holds component-first vectors; its matvec keeps every bit of the
    # component-last operator_apply and applies the Laplacian once
    matvecs, laplacians = [], []

    def capturing_gmres(matvec, b, x0, **kwargs):
        matvecs.append(matvec)
        return gmres(matvec, b, x0, **kwargs)

    def counted_laplacian(grid, values):
        laplacians.append(values.shape)
        return array_laplacian(grid, values)

    monkeypatch.setattr(llgsip.stepper, "gmres", capturing_gmres)
    monkeypatch.setattr(llgsip.stepper, "array_laplacian", counted_laplacian)
    params = SchemeParams(beta=beta, gamma=0.3, dt=0.05)
    for grid in small_grids(boundary):
        m = random_unit_field(grid, rng)
        solve_intermediate(m, params, SolverConfig(), t_new=params.dt)
        for _ in range(3):
            v = random_field(grid, rng)
            calls = len(laplacians)
            out = matvecs[-1](planes(v.data))
            assert len(laplacians) == calls + 1
            assert np.array_equal(out, planes(operator_apply(v, m, params).data))


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
    # unforced, exchange only: the right-hand side is m, as is the start
    plain, residual = gmres(lambda x: operator_apply(VectorField(grid, x), m, params).data,
                            m.data, m.data, rtol=cfg.rel_tol, restart=cfg.restart,
                            max_iter=cfg.max_iter)
    assert residual <= 10 * cfg.rel_tol
    pre, _, _ = solve_intermediate(m, params, cfg, t_new=dt)
    assert np.max(np.abs(plain - pre.data)) <= 1e-9


def test_solver_error_carries_residual_history(rng):
    # one GMRES cycle of three iterations cannot reach rel_tol; the error
    # keeps one GMRES residual estimate per iteration
    m = random_unit_field(GridSpec((4, 4), (0.3, 0.3)), rng)
    params = SchemeParams(beta=1.0, gamma=1.0, dt=0.5)
    with pytest.raises(SolverError) as failure:
        solve_intermediate(m, params, SolverConfig(max_iter=1, restart=3), t_new=0.5)
    history = failure.value.residuals
    assert len(history) == 3 and all(0 < r < np.inf for r in history)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_true_residual_decides_over_gmres_info(seed, monkeypatch):
    # the residual a solve returns is ||b - A x|| / ||b|| from a fresh
    # matvec, not GMRES's own estimate, and it alone decides: a solve that
    # GMRES ends at its own looser tolerance fails on it
    rng = np.random.default_rng(seed)
    m = random_unit_field(GridSpec((4, 4), (0.5, 0.5)), rng)
    params = SchemeParams(beta=1.0, gamma=1.0, dt=0.5)
    cfg = SolverConfig(max_iter=1)
    mt, _, residual = solve_intermediate(m, params, cfg, t_new=0.5)
    b = planes(m.data)  # unforced, exchange only: the right-hand side is m
    ref = np.linalg.norm(b - planes(operator_apply(mt, m, params).data)) / np.linalg.norm(b)
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
    start = x0.copy()
    history = []
    x, residual = gmres(lambda v: a @ v, b, x0, rtol=1e-13, restart=4, max_iter=200,
                        psolve=(lambda v: approx @ v) if preconditioned else None,
                        callback=history.append)
    ref, info = scipy.sparse.linalg.gmres(a, b, x0=x0, rtol=1e-13, atol=0.0, restart=4,
                                          maxiter=200, M=approx if preconditioned else None)
    assert info == 0 and len(history) > 4
    assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))
    assert residual == np.linalg.norm(b - a @ x) / np.linalg.norm(b) <= 1e-13
    assert np.array_equal(x0, start)


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
              restart=restart, max_iter=100, psolve=counted("psolve", lambda v: approx @ v),
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

        def counted(x):
            applies.append(1)
            return apply(x)
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
    tildes = []
    run(m0, params, SolverConfig(), 2, callbacks=[lambda rep, mp, mt, mn: tildes.append(mt)])
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
    assert works == [None, None]
    assert np.array_equal(tildes[0].data, fresh1.data)
    assert np.array_equal(tildes[1].data, fresh2.data)


def test_gmres_rejects_a_workspace_that_does_not_fit(rng):
    a, _, b = random_system(rng, 10)
    with pytest.raises(ValueError, match="workspace"):
        gmres(lambda v: a @ v, b, b, rtol=1e-12, restart=5, max_iter=3,
              work=krylov_workspace((10,), 4))


@pytest.mark.parametrize("boundary", [PERIODIC, NEUMANN])
@pytest.mark.parametrize("n", [2, 5, 65, 128])
def test_axis_eigenbasis_matches_scipy_generalized_eigh(boundary, n):
    # the symmetrized problem gives the eigenvalues of W L v = lam W v, and
    # the same spectral calculus V f(lam) V^-1; periodic eigenvalues come in
    # pairs, so single eigenvectors are not unique and are not compared
    h = 1.0 / n
    lam, vecs, inv = _axis_eigenbasis(n, h, boundary)
    assert np.max(np.abs(inv @ vecs - np.eye(n))) <= 1e-13
    eye = np.eye(n)
    lap = (np.roll(eye, 1, axis=0) + np.roll(eye, -1, axis=0) - 2.0 * eye) / h ** 2
    w = np.ones(n)
    if boundary == NEUMANN:
        lap[0, -1] = lap[-1, 0] = 0.0
        lap[0, 1] = lap[-1, -2] = 2.0 / h ** 2
        w[0] = w[-1] = 0.5
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
    m.data[1, 2] = 0.0
    with pytest.raises(DegenerateStateError):
        normalize(m)


def test_projection_reduces_gradient(rng):
    # if mt . m = 1 pointwise with |m| = 1 then |grad(mt/|mt|)| <= |grad mt|;
    # build such a pair directly: mt = m + tangent perturbation
    grid = GridSpec((8, 8), (0.4, 0.4))
    for _ in range(10):
        m = random_unit_field(grid, rng)
        tang = random_field(grid, rng).data
        tang -= np.sum(tang * m.data, axis=-1, keepdims=True) * m.data
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
    dots = np.sum(mt.data * m.data, axis=-1)
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
    f = np.stack(
        [np.broadcast_to(c, grid.counts) for c in exact.forcing(X, Y, dt)], axis=-1
    )
    rhs = (m0.data + dt * f).ravel()
    ref_t = np.linalg.solve(mat, rhs).reshape(grid.counts + (3,))
    ref = ref_t / np.linalg.norm(ref_t, axis=-1, keepdims=True)
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
    res = run(
        f,
        SchemeParams(beta=1.0, gamma=1.0, dt=0.1),
        TIGHT,
        1,
        override_unit_check=True,
    )
    assert np.max(np.abs(res.state.pointwise_norm() - 1.0)) <= 1e-14


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
    # started from m^n every step, 25 steps of the 65^2 Neumann bubble of
    # blowup_smoke.cfg take 275 matvecs; from m^n + (mt^n - m^(n-1)), 237
    h = 1 / 64
    grid = GridSpec((65, 65), (h, h), origin=(-0.5, -0.5), boundary=NEUMANN)
    m0 = VectorField.from_function(grid, blowup_initial)
    params = SchemeParams(beta=1.0, gamma=1.0, dt=1e-3)
    reports = []
    run(m0, params, SolverConfig(), 25, callbacks=[lambda rep, *_: reports.append(rep)])
    assert sum(r.krylov_iters for r in reports) <= 245
    # the first step has no step before it, and starts from m^0
    _, iters, _ = solve_intermediate(m0, params, SolverConfig(), t_new=params.dt)
    assert reports[0].krylov_iters == iters


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
        np.float64, (3, 3, 3), elements=st.floats(-10.0, 10.0, allow_nan=False)
    ),
    scale=st.floats(1e-6, 1e6),
)
def test_normalize_scale_invariance_property(data, scale):
    grid = GridSpec((3, 3), (0.5, 0.5))
    lengths = np.linalg.norm(data, axis=-1)
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
    with pytest.raises(ValueError):
        SolverConfig(restart=0)
    # the tolerance is fixed: the invariant bounds rest on it
    assert SolverConfig().rel_tol == 1e-12
    with pytest.raises(TypeError):
        SolverConfig(rel_tol=1e-6)
