"""Acceptance suite: the ten headline criteria, one pass/fail line each.

These are the slow, end-to-end checks (full refinement studies, production
dissipation sweep, reduced blowup and relaxation runs).  Everything else in
tests/ is fast unit coverage; this module is the release gate.
"""

import numpy as np
import pytest

from llgsip.diagnostics import GradientReductionCheck, skyrmion_number
from llgsip.exact import blowup_initial
from llgsip.experiments import cmd_blowup, cmd_converge, cmd_dissipate, cmd_skyrmion
from llgsip.grid import NEUMANN, PERIODIC, GridSpec, VectorField
from llgsip.io import parse_config, read_snapshot, write_snapshot
from llgsip.stepper import SchemeParams, SolverConfig, operator_apply, solve_intermediate

from conftest import random_field, random_unit_field
from test_grid_ops import naive_gradient_2d, naive_laplacian_2d
from test_stepper import dense_operator

from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _report(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def _load(name, out_dir, overrides=()):
    return parse_config(
        f"{CONFIG_DIR}/{name}", overrides=[f"out_dir={out_dir}", *overrides]
    )


# ---------------------------------------------------------------------------
# 1-2: manufactured-solution refinement studies
# ---------------------------------------------------------------------------

def test_criterion_1_second_order_convergence(tmp_path):
    cfg = _load("converge_table1.cfg", tmp_path)
    records = cmd_converge(cfg).records
    fin = records[-1]
    ok = (
        1.85 <= fin.rate_linf_l2 <= 2.15
        and 1.85 <= fin.rate_l2_h1 <= 2.15
        and fin.linf_l2 <= 3 * 4.16e-2
        and fin.l2_h1 <= 3 * 3.04e-2
    )
    _report(
        "criterion 1 (dt = h^2 refinement: second order)",
        ok,
        f"finest rates {fin.rate_linf_l2:.2f}/{fin.rate_l2_h1:.2f}, "
        f"errors {fin.linf_l2:.3e}/{fin.l2_h1:.3e}",
    )


def test_criterion_2_first_order_convergence(tmp_path):
    cfg = _load("converge_table2.cfg", tmp_path)
    records = cmd_converge(cfg).records
    fin = records[-1]
    ok = (
        0.9 <= fin.rate_linf_l2 <= 1.1
        and 0.9 <= fin.rate_l2_h1 <= 1.1
        and fin.linf_l2 <= 3 * 1.34e-1
        and fin.l2_h1 <= 3 * 9.89e-2
    )
    _report(
        "criterion 2 (dt ~ h refinement: first order)",
        ok,
        f"finest rates {fin.rate_linf_l2:.2f}/{fin.rate_l2_h1:.2f}, "
        f"errors {fin.linf_l2:.3e}/{fin.l2_h1:.3e}",
    )


# ---------------------------------------------------------------------------
# 3-4: energy dissipation sweep and per-step scheme invariants
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def dissipation_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("dissipate")
    cfg = _load("dissipate.cfg", out)
    gradients = {g: GradientReductionCheck() for g in cfg.gammas}
    reports = {g: [] for g in cfg.gammas}
    callbacks = {
        g: [gradients[g], lambda report, *states, log=reports[g]: log.append(report)]
        for g in cfg.gammas
    }
    result = cmd_dissipate(cfg, extra_callbacks=callbacks)
    return cfg, result, gradients, reports


def test_criterion_3_unconditional_energy_dissipation(dissipation_sweep):
    cfg, result, _, _ = dissipation_sweep
    ok = result.ok and set(result.energies) == set(cfg.gammas)
    detail = f"gammas {sorted(result.energies)}, violations {result.violations}"

    # stress: the decay must survive coarse steps far beyond any CFL-type limit
    for dt in (0.1, 1.0):
        stress = _load(
            "dissipate.cfg",
            cfg.out_dir,
            overrides=[f"dt={dt}", "grid = 32 32", "gammas = 1.0", "t_end = 10"],
        )
        res = cmd_dissipate(stress)
        if not res.ok:
            ok = False
            detail += f"; dt={dt} stress violations {res.violations}"
    _report("criterion 3 (monotone energy decay for all gamma, any dt)", ok, detail)


def test_criterion_4_scheme_invariants(dissipation_sweep):
    # every step's report against the invariant table, plus the opt-in
    # gradient-reduction check; the experiment itself checks the same table
    _, result, gradients, reports = dissipation_sweep
    ok = not result.violations
    worst_lines = []
    for gamma, gradient in sorted(gradients.items()):
        reps = reports[gamma]
        ok = ok and bool(reps) and not gradient.failures and not any(
            r.invariant_failures() for r in reps
        )
        worst_lines.append(
            f"gamma={gamma:g}: len {max(r.max_length_error for r in reps):.1e}, "
            f"min|mt| {min(r.min_intermediate_length for r in reps):.12f}, "
            f"orth {max(r.max_orthogonality_error for r in reps):.1e}, "
            f"grad {gradient.worst:.1e}"
        )
    _report(
        "criterion 4 (per-step invariants: length, |mt|>=1, mt.m=1, "
        "gradient reduction)",
        ok,
        "; ".join(worst_lines),
    )


# ---------------------------------------------------------------------------
# 5-7: operator oracles and pointwise inequalities
# ---------------------------------------------------------------------------

def test_criterion_5_dense_oracle_equivalence(rng):
    worst = 0.0
    for boundary in (PERIODIC, NEUMANN):
        for counts in ((4, 4), (6, 6)):
            grid = GridSpec(counts, (0.3, 0.3), boundary=boundary)
            m = random_unit_field(grid, rng)
            params = SchemeParams(beta=1.2, gamma=0.8, dt=0.03)
            mat = dense_operator(m, params)
            for _ in range(20):
                v = random_field(grid, rng)
                direct = operator_apply(v, m, params).data.ravel()
                worst = max(worst, np.max(np.abs(mat @ v.data.ravel() - direct)))
            mt, _, _ = solve_intermediate(
                m, params, SolverConfig(rel_tol=1e-12), t_new=params.dt
            )
            ref = np.linalg.solve(mat, m.data.ravel())
            worst = max(worst, np.max(np.abs(mt.data.ravel() - ref)))
    ok = worst <= 1e-10
    _report(
        "criterion 5 (matrix-free operator == dense probe, solve == direct)",
        ok,
        f"worst deviation {worst:.3e}",
    )


def test_criterion_6_summation_by_parts(rng):
    from llgsip.grid import (
        gradient_apply,
        gradient_inner_product,
        h1_norm,
        inner_product,
        laplacian_apply,
    )

    worst = 0.0
    for boundary in (PERIODIC, NEUMANN):
        grid = GridSpec((7, 6), (0.4, 0.3), boundary=boundary)
        for _ in range(100):
            f = random_field(grid, rng)
            g = random_field(grid, rng)
            lhs = -inner_product(laplacian_apply(f), g)
            rhs = gradient_inner_product(gradient_apply(f), gradient_apply(g))
            worst = max(worst, abs(lhs - rhs) / (h1_norm(f) * h1_norm(g) + 1.0))
    ok = worst <= 1e-12
    _report(
        "criterion 6 (exact summation by parts, both boundary kinds)",
        ok,
        f"worst relative defect {worst:.3e}",
    )


def test_criterion_7_renormalization_relations(rng):
    n = 10 ** 4
    m_e = rng.standard_normal((n, 3))
    m_e /= np.linalg.norm(m_e, axis=-1, keepdims=True)
    mt = rng.standard_normal((n, 3))
    mt *= (1.0 + 4.0 * rng.random((n, 1))) / np.linalg.norm(
        mt, axis=-1, keepdims=True
    )
    e = m_e - mt / np.linalg.norm(mt, axis=-1, keepdims=True)
    et = m_e - mt
    e2 = np.sum(e ** 2, axis=-1)
    d2 = np.sum((et - e) ** 2, axis=-1)
    et2 = np.sum(et ** 2, axis=-1)
    lower = np.max(e2 + d2 - et2)
    upper = np.max(et2 - 2.0 * (e2 + d2))
    ok = lower <= 1e-13 and upper <= 1e-13
    _report(
        "criterion 7 (renormalization error relations on 10^4 samples)",
        ok,
        f"lower-bound defect {lower:.3e}, upper-bound defect {upper:.3e}",
    )


# ---------------------------------------------------------------------------
# 8-9: reduced production runs
# ---------------------------------------------------------------------------

def test_criterion_8_skyrmion_relaxation(tmp_path):
    cfg = _load("skyrmion_q1_smoke.cfg", tmp_path)
    result = cmd_skyrmion(cfg)
    ok = result.steady and abs(result.charge - 1.0) <= 0.05 and not result.violations
    _report(
        "criterion 8 (skyrmion seed relaxes to a steady Q = 1 texture)",
        ok,
        f"steady={result.steady}, Q={result.charge:.4f}, "
        f"violations {result.violations}",
    )


def test_criterion_9_blowup_run(tmp_path):
    cfg = _load("blowup_smoke.cfg", tmp_path)
    result = cmd_blowup(cfg)
    snap0, _, _ = read_snapshot(result.snapshots[0][1])
    analytic = VectorField.from_function(cfg.make_grid(), blowup_initial)
    t0_err = float(np.max(np.abs(snap0.data - analytic.data)))
    ok = (
        result.ok
        and len(result.snapshots) == 6
        and t0_err <= 1e-14
        and result.energies[-1][2] <= result.energies[0][2]
    )
    _report(
        "criterion 9 (bubble run: six snapshots, exact t=0 state, "
        "monotone energy)",
        ok,
        f"snapshots {len(result.snapshots)}, t0 error {t0_err:.1e}, "
        f"E {result.energies[0][2]:.3f} -> {result.energies[-1][2]:.3f}, "
        f"violations {result.violations}",
    )


# ---------------------------------------------------------------------------
# 10: serialization fidelity
# ---------------------------------------------------------------------------

def test_criterion_10_snapshot_round_trip(tmp_path, rng):
    failures = 0
    for k in range(50):
        boundary = PERIODIC if k % 2 == 0 else NEUMANN
        counts = (int(rng.integers(2, 9)), int(rng.integers(2, 9)))
        grid = GridSpec(
            counts,
            (float(rng.random() + 0.1), float(rng.random() + 0.1)),
            origin=(float(rng.standard_normal()), float(rng.standard_normal())),
            boundary=boundary,
        )
        f = random_field(grid, rng)
        path = tmp_path / f"s{k}.dat"
        write_snapshot(f, path, time=float(rng.random()), step=k, binary=(k % 3 == 0))
        g, _, _ = read_snapshot(path)
        if not (np.array_equal(g.data, f.data) and g.grid == grid):
            failures += 1
    ok = failures == 0
    _report(
        "criterion 10 (bit-identical snapshot round-trip, 50 random fields)",
        ok,
        f"{failures} of 50 round-trips differed",
    )
