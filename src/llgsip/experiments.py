"""The four built-in experiments behind the command-line harness.

Each ``cmd_*`` function takes a parsed ExperimentConfig, writes its CSV
time series / snapshots under ``config.out_dir`` and returns a small result
object whose ``ok`` flag drives the process exit status.  The unforced
experiments list in ``violations`` every step that broke one of the
scheme's guarantees, and a steady skyrmion whose charge is not its mode's.
Each reads only the keys ``io.keys_read`` names, and solves at ``SolverConfig()``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from . import effective_field
from . import exact as exact_data
from .diagnostics import (ErrorAccumulator, ErrorRecord, FailureLog, attach_rates,
                          skyrmion_number)
from .effective_field import FieldModel
from .exact import manufactured_solution
from .grid import VectorField
from .io import (CSV_COLUMNS, ConfigError, ExperimentConfig, read_checkpoint, read_snapshot,
                 report_row, write_checkpoint, write_csv, write_snapshot)
from .stepper import ENERGY_RISE, STEP_ERRORS, SchemeParams, SolverConfig, run


def _ensure_out(config):
    os.makedirs(config.out_dir, exist_ok=True)
    return config.out_dir


def _snapshot_path(config, stem):
    """Snapshot path under the output directory, and whether it is binary."""
    binary = config.snapshot_format == "binary"
    return os.path.join(config.out_dir, f"{stem}.{'bin' if binary else 'txt'}"), binary


class _EnergyLog:
    """Run callback keeping the CSV rows of row 0 (the initial state, at
    ``step`` and ``time``), of every ``cadence``-th step and, once ``finish``
    is called, of the run's last step; ``columns`` maps each extra CSV
    column to the function of the state that fills it.

    It checks every step, logged or not, and lists the failures in
    ``violations``: an energy rise since the step before above the model's
    ``stepper.ENERGY_RISE``, and each failure of the report's invariants.
    """

    def __init__(self, initial, model, columns=None, cadence=1, step=0, time=0.0):
        self.columns = columns or {}
        self.cadence = cadence
        self.energy_tol = ENERGY_RISE[model.variant]
        # through the module, so a caller may substitute extended_energy
        self.energy = effective_field.extended_energy(initial, model)
        self.rows = [[step, time, self.energy, 1.0, 0.0, 0, 0.0]
                     + [fn(initial) for fn in self.columns.values()]]
        self.failures = FailureLog()
        self.last = None  # (report, state) of a step not yet logged

    @property
    def violations(self):
        return self.failures.messages

    def __call__(self, report, m_prev, m_tilde, m_new):
        rise = report.energy - self.energy
        if rise > self.energy_tol:
            self.failures.add(
                "energy", f"energy rose by {rise:.3e} at step {report.step_index}"
            )
        self.energy = report.energy
        for what, message in report.invariant_failures().items():
            self.failures.add(what, message)
        self.last = (report, m_new)
        if report.step_index % self.cadence == 0:
            self.finish()

    def finish(self):
        """Log the last step taken if it is not yet logged."""
        if self.last is not None:
            report, m_new = self.last
            self.rows.append(report_row(report, extra=[fn(m_new) for fn in self.columns.values()]))
            self.last = None

    def series(self):
        """(step, time, energy, *extra columns) of every logged row."""
        return [(row[0], row[1], row[2], *row[len(CSV_COLUMNS):]) for row in self.rows]

    def write(self, path):
        write_csv(self.rows, path, extra_columns=list(self.columns))


# ---------------------------------------------------------------------------
# convergence study
# ---------------------------------------------------------------------------

@dataclass
class ConvergeResult:
    records: list
    ok: bool = True


def format_error_table(records):
    lines = ["level  linf_l2      rate    l2_h1        rate"]
    for r in records:
        r1 = "---" if r.rate_linf_l2 is None else f"{r.rate_linf_l2:5.2f}"
        r2 = "---" if r.rate_l2_h1 is None else f"{r.rate_l2_h1:5.2f}"
        lines.append(
            f"{r.level:5d}  {r.linf_l2:<11.4e} {r1:>5}   {r.l2_h1:<11.4e} {r2:>5}"
        )
    return "\n".join(lines)


def cmd_converge(config: ExperimentConfig) -> ConvergeResult:
    """Manufactured-solution refinement study (the error-table experiment)."""
    exact = manufactured_solution(config.beta, config.gamma)
    records = []
    for n in config.levels:
        grid = config.make_grid((n, n))
        dt, steps = config.time_steps(grid)
        params = SchemeParams(
            beta=config.beta, gamma=config.gamma, dt=dt, forcing=exact.forcing
        )
        initial = exact.sample(grid, 0.0)
        acc = ErrorAccumulator(exact, grid, dt)
        acc.seed(initial, 0.0)
        run(initial, params, SolverConfig(), steps, callbacks=[acc])
        records.append(ErrorRecord(level=n, linf_l2=acc.max_l2, l2_h1=acc.l2_h1))
    attach_rates(records)
    rows = [
        [
            r.level,
            r.linf_l2,
            "" if r.rate_linf_l2 is None else r.rate_linf_l2,
            r.l2_h1,
            "" if r.rate_l2_h1 is None else r.rate_l2_h1,
        ]
        for r in records
    ]
    path = os.path.join(_ensure_out(config), f"converge_{config.dt_policy}.csv")
    with open(path, "w") as fh:
        fh.write("level,linf_l2,rate_linf_l2,l2_h1,rate_l2_h1\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
            fh.write("\n")
    return ConvergeResult(records=records)


# ---------------------------------------------------------------------------
# energy dissipation sweep
# ---------------------------------------------------------------------------

@dataclass
class DissipateResult:
    energies: dict  # gamma -> list of (step, time, energy)
    violations: list = field(default_factory=list)  # messages, "gamma=...: ..."

    @property
    def ok(self):
        return not self.violations


def cmd_dissipate(config: ExperimentConfig, extra_callbacks=None) -> DissipateResult:
    """Damping-parameter sweep checking monotone energy decay per step.

    ``extra_callbacks`` maps a gamma to further run callbacks for its run.
    """
    grid = config.make_grid()
    dt, steps = config.time_steps(grid)
    out = _ensure_out(config)
    result = DissipateResult(energies={})
    for gamma in config.gammas:
        params = SchemeParams(beta=config.beta, gamma=gamma, dt=dt)
        initial = VectorField.from_function(grid, exact_data.dissipation_initial)
        log = _EnergyLog(initial, params.model, cadence=config.cadence)
        callbacks = [log]
        if extra_callbacks:
            callbacks.extend(extra_callbacks.get(gamma, ()))
        run(initial, params, SolverConfig(), steps, callbacks=callbacks)
        log.finish()
        result.violations += [f"gamma={gamma:g}: {v}" for v in log.violations]
        result.energies[gamma] = log.series()
        log.write(os.path.join(out, f"energy_gamma_{gamma:g}.csv"))
    return result


# ---------------------------------------------------------------------------
# blowup run
# ---------------------------------------------------------------------------

@dataclass
class BlowupResult:
    snapshots: list  # (time, path)
    energies: list  # (step, time, energy)
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations


def cmd_blowup(config: ExperimentConfig) -> BlowupResult:
    """Near-singularity evolution of bubble-type data; snapshot t is step round(t/dt)."""
    grid = config.make_grid()
    dt, steps = config.time_steps(grid)
    params = SchemeParams(beta=config.beta, gamma=config.gamma, dt=dt)
    initial = VectorField.from_function(grid, exact_data.blowup_initial)
    times_at = {}  # step -> the snapshot times it serves
    for t_snap in sorted(config.snapshot_times):
        times_at.setdefault(round(t_snap / dt), []).append(t_snap)
    out = _ensure_out(config)

    snapshots = []

    def snap(state, time, step):
        for t_snap in times_at.get(step, ()):
            path, binary = _snapshot_path(config, f"blowup_t{t_snap:g}")
            write_snapshot(state, path, time=time, step=step, binary=binary)
            snapshots.append((t_snap, path))

    snap(initial, 0.0, 0)
    log = _EnergyLog(initial, params.model, cadence=config.cadence)
    run(initial, params, SolverConfig(), steps, callbacks=[
        log, lambda report, m_prev, m_tilde, m_new: snap(m_new, report.time,
                                                          report.step_index)])
    log.finish()
    log.write(os.path.join(out, "blowup_energy.csv"))
    return BlowupResult(snapshots=snapshots, energies=log.series(), violations=log.violations)


# ---------------------------------------------------------------------------
# skyrmion relaxation
# ---------------------------------------------------------------------------

# the charge each mode relaxes to, and the |Q - charge| a steady state may show
MODE_CHARGE = {"Q1": 1.0, "Q0": 0.0}
CHARGE_TOL = 0.05


@dataclass
class SkyrmionResult:
    final_state: VectorField
    charge: float
    steady: bool
    series: list  # (step, time, energy, Q)
    snapshot_path: str = None
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return self.steady and not self.violations


def _require_grid(state, grid, path):
    """A start state read from ``path`` must lie on the run's grid."""
    if state.grid != grid:
        raise ConfigError(f"{path}: the state lies on {state.grid}, not on the "
                          f"configured {grid}")


def cmd_skyrmion(config: ExperimentConfig, resume=None) -> SkyrmionResult:
    """Relax a topological seed to a static texture under the extended model."""
    grid = config.make_grid()
    dt, budget = config.time_steps(grid)
    model = FieldModel.extended(config.kappa, config.lam)
    params = SchemeParams(beta=config.beta, gamma=config.gamma, dt=dt, model=model)

    t_start = 0.0
    start_index = 0
    if resume is not None:
        initial, t_start, start_index = read_checkpoint(resume, params)
        _require_grid(initial, grid, resume)
    elif config.mode == "Q0":
        if config.input_state is None:
            raise ConfigError("Q0 mode requires key 'input_state', a relaxed Q1 snapshot")
        n_state, _, _ = read_snapshot(config.input_state)
        _require_grid(n_state, grid, config.input_state)
        initial = VectorField(grid, exact_data.charge_zero_transform(n_state.data))
    else:
        center = tuple(0.5 * (lo + hi) for lo, hi in config.domain)
        initial = VectorField.from_function(
            grid, lambda x, y: exact_data.skyrmion_initial(x, y, center,
                                                           config.seed_radius)
        )

    out = _ensure_out(config)
    tag = config.mode.lower()
    last_path = os.path.join(out, f"skyrmion_{tag}_last.ckpt")
    log = _EnergyLog(initial, model, columns={"Q": skyrmion_number},
                     cadence=config.cadence, step=start_index, time=t_start)
    last = {}  # the last completed step: state, time, step

    def keep(report, m_prev, m_tilde, m_new):
        last.update(state=m_new, time=report.time, step=report.step_index)

    try:
        res = run(initial, params, SolverConfig(), budget, callbacks=[log, keep],
                  steady_tol=config.steady_tol, t_start=t_start,
                  start_index=start_index, override_unit_check=True)
    except STEP_ERRORS:
        # a failed step: keep the last good state for a resumed run
        if last:
            write_checkpoint(last["state"], last_path, last["time"], last["step"], params)
        raise
    snap_path, binary = _snapshot_path(config, f"skyrmion_{tag}_relaxed")
    write_snapshot(res.state, snap_path, time=res.time, step=res.step, binary=binary)
    if not res.steady and res.step > start_index:
        # budget exhausted: keep the last state around for a resumed run,
        # from the bytes of a text snapshot of it
        write_checkpoint(res.state, last_path, res.time, res.step, params,
                         snapshot=None if binary else snap_path)
    log.finish()
    log.write(os.path.join(out, f"skyrmion_{tag}.csv"))
    charge = skyrmion_number(res.state)
    target = MODE_CHARGE[config.mode]
    if res.steady and abs(charge - target) > CHARGE_TOL:  # not checked out of budget
        log.failures.add("charge", f"Q = {charge:.4f} at steady state, but mode {config.mode} "
                                   f"needs |Q - {target:g}| <= {CHARGE_TOL}")
    return SkyrmionResult(
        final_state=res.state,
        charge=charge,
        steady=res.steady,
        series=log.series(),
        snapshot_path=snap_path,
        violations=log.violations,
    )
