"""One workload process: set up, run the experiment through the CLI, check it.

Started by ``run.py`` as ``python3 child.py SPEC.json``, in a fresh process so
that every sample pays import and set-up the way a user's run does.  The spec
names the config, the output directory, the mode and where to write the
result:

- ``plain``:  untraced run; times set-up, the run and every step.
- ``traced``: the same run with every public llgsip function wrapped in a span.
- ``setup``:  stops when the first time loop is entered; times set-up only.

Set-up ends, and the run begins, when the experiment first calls
``llgsip.stepper.run``; the run ends when ``llgsip.cli.main`` returns.
"""

import os

# pinned before numpy is imported anywhere in this process
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import glob  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

RESIDUAL_FACTOR = 10.0  # the solver's own acceptance: residual <= 10 * rel_tol
MAX_LENGTH_ERROR = 1e-14
MIN_TILDE_LENGTH = 1.0 - 1e-9
RATE_RANGE = (0.9, 1.1)  # first-order table: finest-level rates
CHARGE_TOL = 0.05


class SetupDone(Exception):
    """Raised at the first time step of a set-up-only process."""


class RunRecorder:
    """Stands in for ``llgsip.experiments.run``; timestamps and keeps every step.

    Appends one callback to each run.  It records the end time of the step,
    the StepReport scalars, and the states at the steps whose snapshots are
    read back afterwards.  It does no field work.
    """

    def __init__(self, run, keep_steps, stop_at_setup):
        self.run = run
        self.keep_steps = set(keep_steps)
        self.stop_at_setup = stop_at_setup
        self.first_call = None
        self.calls = []
        self.kept = {}

    def __call__(self, initial, params, cfg, t_end, callbacks=(), **kwargs):
        start = time.monotonic()
        if self.first_call is None:
            self.first_call = start
        if self.stop_at_setup:
            raise SetupDone
        call = {"start": start, "ends": [], "reports": [], "rel_tol": cfg.rel_tol}
        self.calls.append(call)
        if 0 in self.keep_steps:
            self.kept[0] = initial.data

        def on_step(report, m_prev, m_tilde, m_new):
            call["ends"].append(time.monotonic())
            call["reports"].append(report)
            if report.step_index in self.keep_steps:
                self.kept[report.step_index] = m_new.data

        return self.run(initial, params, cfg, t_end, callbacks=[*callbacks, on_step],
                        **kwargs)

    def step_intervals(self):
        out = []
        for call in self.calls:
            stamps = [call["start"]] + call["ends"]
            out.extend(b - a for a, b in zip(stamps, stamps[1:]))
        return out


def step_problems(calls, spec, e0):
    """Per-step output checks; returns {step number: [problem, ...]}."""
    bad = {}
    prev_energy = e0
    for ci, call in enumerate(calls):
        tol = RESIDUAL_FACTOR * call["rel_tol"]
        for rep in call["reports"]:
            why = []
            if not rep.residual <= tol:
                why.append(f"residual {rep.residual:.3e} > {tol:.1e}")
            if not rep.max_length_error <= MAX_LENGTH_ERROR:
                why.append(f"max_len_err {rep.max_length_error:.3e}")
            if not spec["forced"]:
                if not rep.min_intermediate_length >= MIN_TILDE_LENGTH:
                    why.append(f"min_tilde_len {rep.min_intermediate_length!r}")
                if prev_energy is not None and spec["energy_tol"] is not None:
                    rise = rep.energy - prev_energy
                    if not rise <= spec["energy_tol"]:
                        why.append(f"energy rose by {rise:.3e}")
                prev_energy = rep.energy
            if why:
                bad[(ci, rep.step_index)] = why
    return bad


def horizon_problems(calls, horizons):
    out = []
    if len(calls) != len(horizons):
        out.append(f"{len(calls)} time loops ran, {len(horizons)} expected")
    for call, (steps, t_end) in zip(calls, horizons):
        reports = call["reports"]
        if len(reports) != steps:
            out.append(f"{len(reports)} steps completed, horizon asks for {steps}")
        elif abs(reports[-1].time - t_end) > 1e-9 * t_end:
            out.append(f"final time {reports[-1].time!r}, horizon is {t_end!r}")
    return out


def first_energy(out_dir):
    """Energy of row 0 (the initial state) of the run's CSV time series."""
    paths = glob.glob(os.path.join(out_dir, "*.csv"))
    if len(paths) != 1:
        return None
    with open(paths[0]) as fh:
        fh.readline()
        return float(fh.readline().split(",")[2])


def experiment_problems(experiment, rc, result):
    """End-of-run checks on the experiment's own result object."""
    out = []
    if experiment == "skyrmion":
        # a fixed step budget below steady state: the CLI reports it with status 1
        if rc != 1 or result.steady:
            out.append(f"expected 'budget exhausted' (status 1), got status {rc}")
        if abs(result.charge - 1.0) > CHARGE_TOL:
            out.append(f"skyrmion number {result.charge:.4f}, expected 1 +- {CHARGE_TOL}")
    elif rc != 0:
        out.append(f"CLI exit status {rc}")
    if getattr(result, "violations", None):
        out.append(f"experiment reports energy violations {result.violations[:3]}")
    if experiment == "converge":
        finest = result.records[-1]
        for label, rate in (("linf_l2", finest.rate_linf_l2), ("l2_h1", finest.rate_l2_h1)):
            if rate is None or not RATE_RANGE[0] <= rate <= RATE_RANGE[1]:
                out.append(f"finest {label} rate {rate} outside {RATE_RANGE}")
    return out


def snapshot_problems(io, out_dir, kept, expect_files):
    """Every written snapshot and checkpoint must read back bit-exactly."""
    out = []
    snaps = sorted(glob.glob(os.path.join(out_dir, "*.txt"))
                   + glob.glob(os.path.join(out_dir, "*.bin")))
    ckpts = sorted(glob.glob(os.path.join(out_dir, "*.ckpt")))
    if len(snaps) + len(ckpts) != expect_files:
        out.append(f"{len(snaps) + len(ckpts)} snapshot files, expected {expect_files}")
    try:
        loaded = [(p, io.read_snapshot(p)) for p in snaps]
        loaded += [(p, io.read_checkpoint(p)) for p in ckpts]
    except (OSError, ValueError) as exc:  # io.ConfigError is a ValueError
        return out + [f"snapshot does not read back: {exc}"]
    for path, (field, _, step) in loaded:
        ref = kept.get(step)
        if ref is None or ref.shape != field.data.shape or ref.tobytes() != field.data.tobytes():
            out.append(f"{os.path.basename(path)} does not match the state of step {step}")
    return out


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    t0 = time.monotonic()
    sys.path.insert(0, spec["src"])
    import llgsip
    import llgsip.cli
    import llgsip.io
    import numpy
    import scipy
    import_s = time.monotonic() - t0
    where = os.path.realpath(llgsip.__file__)
    if not where.startswith(os.path.realpath(spec["src"]) + os.sep):
        raise RuntimeError(f"imported llgsip from {where}, not from {spec['src']}")

    mode = spec["mode"]
    experiments = llgsip.experiments
    recorder = RunRecorder(experiments.run, spec["keep_steps"], mode == "setup")
    experiments.run = recorder
    tracer = None
    if mode == "traced":
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install(llgsip)
    captured = {}
    cmd_name = f"cmd_{spec['experiment']}"
    cmd = getattr(llgsip.cli, cmd_name)

    def capture(*args, **kwargs):
        captured["result"] = cmd(*args, **kwargs)
        return captured["result"]

    setattr(llgsip.cli, cmd_name, capture)

    argv = [spec["experiment"], "--config", spec["config"], "--out", spec["out"]]
    aborted = None
    rc = None
    try:
        rc = llgsip.cli.main(argv)
    except SetupDone:
        pass
    except Exception as exc:  # a failed run is reported, not raised
        aborted = f"{type(exc).__name__}: {exc}"
    t_done = time.monotonic()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "mode": mode,
        "import_s": import_s,
        "setup_s": None if recorder.first_call is None else recorder.first_call - spec["t_spawn"],
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }
    if mode != "setup":
        calls = recorder.calls
        completed = sum(len(c["reports"]) for c in calls)
        planned = sum(steps for steps, _ in spec["horizons"])
        problems = []
        if aborted:
            problems.append(f"run aborted: {aborted}")
        else:
            problems += horizon_problems(calls, spec["horizons"])
            if "result" in captured:
                problems += experiment_problems(spec["experiment"], rc, captured["result"])
            else:
                problems.append(f"CLI exited with status {rc} before running")
            problems += snapshot_problems(llgsip.io, spec["out"], recorder.kept,
                                          spec["expect_files"])
        e0 = None if spec["forced"] else first_energy(spec["out"])
        if not spec["forced"] and e0 is None and not aborted:
            problems.append("no single CSV time series to take the initial energy from")
        bad = step_problems(calls, spec, e0)
        problems += [f"step {k[1]}: {'; '.join(v)}" for k, v in list(bad.items())[:5]]
        result.update(
            run_s=t_done - recorder.first_call if recorder.first_call else None,
            step_s=recorder.step_intervals(),
            peak_rss_mb=peak_rss_mb,
            attempted=planned,
            failed=len(bad) + max(planned - completed, 0),
            problems=problems,
        )
    elif aborted or recorder.first_call is None:
        result["problems"] = [f"set-up failed: {aborted}"]
    if tracer is not None:
        tracer.unpatch()
        result["layer"] = layer_metrics(tracer)
        result["unpatched"] = tracer.missing
        tracer.write(spec["spans"])
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
