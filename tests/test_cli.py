"""End-to-end command-line harness tests on tiny configurations."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

import llgsip.cli
import llgsip.experiments
import llgsip.io
from llgsip import stepper
from llgsip.cli import main
from llgsip.effective_field import FieldModel
from llgsip.exact import skyrmion_initial
from llgsip.experiments import (
    BlowupResult,
    DissipateResult,
    SkyrmionResult,
    _EnergyLog,
    cmd_converge,
    cmd_skyrmion,
    format_error_table,
)
from llgsip.grid import NEUMANN, GridSpec, VectorField
from llgsip.io import parse_config, read_checkpoint, write_checkpoint, write_snapshot
from llgsip.stepper import RunResult, StepReport


TWO_PI = 2 * np.pi
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def converge_cfg(tmp_path, out, levels="8 16"):
    return write_cfg(
        tmp_path,
        f"""\
experiment = converge
domain = 0 {TWO_PI!r} 0 {TWO_PI!r}
grid = 8 8
dt_policy = h_squared
t_end = 0.7
levels = {levels}
out_dir = {out}
""",
    )


def dissipate_cfg(tmp_path, out):
    return write_cfg(
        tmp_path,
        f"""\
experiment = dissipate
domain = 0 {TWO_PI!r} 0 {TWO_PI!r}
grid = 12 12
dt = 0.05
t_end = 0.2
gammas = 0.5 1.0
out_dir = {out}
""",
    )


def test_converge_subcommand(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["converge", "--config", converge_cfg(tmp_path, out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "level" in printed and "8" in printed
    assert (out / "converge_h_squared.csv").exists()


def test_converge_table2_krylov_totals(tmp_path, monkeypatch):
    # the krylov_iters of every StepReport, summed per level of
    # converge_table2.cfg at levels 8/16/32: the work behind its table
    totals = []
    original = llgsip.experiments.run

    def counted(*args, callbacks=(), **kwargs):
        totals.append(0)

        def count(report, *_):
            totals[-1] += report.krylov_iters

        return original(*args, callbacks=[*callbacks, count], **kwargs)

    monkeypatch.setattr(llgsip.experiments, "run", counted)
    cmd_converge(parse_config(CONFIG_DIR / "converge_table2.cfg",
                              ["levels=8 16 32", f"out_dir={tmp_path}"]))
    assert totals == [64, 99, 163]


def test_converge_single_level_has_no_rates(tmp_path):
    cfg = parse_config(converge_cfg(tmp_path, tmp_path / "o", levels="8"))
    result = cmd_converge(cfg)
    assert len(result.records) == 1
    assert result.records[0].rate_linf_l2 is None
    table = format_error_table(result.records)
    assert "---" in table


def test_dissipate_subcommand(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["dissipate", "--config", dissipate_cfg(tmp_path, out)])
    assert code == 0
    assert "gamma=0.5" in capsys.readouterr().out
    assert (out / "energy_gamma_0.5.csv").exists()
    assert (out / "energy_gamma_1.csv").exists()


def test_out_flag_overrides_config(tmp_path):
    out = tmp_path / "elsewhere"
    code = main(
        ["dissipate", "--config", dissipate_cfg(tmp_path, tmp_path / "ignored"),
         "--out", str(out)]
    )
    assert code == 0
    assert (out / "energy_gamma_1.csv").exists()


def test_override_flag(tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "dissipate",
            "--config",
            dissipate_cfg(tmp_path, out),
            "--override",
            "gammas=2.0",
            "--override",
            "t_end=0.1",
        ]
    )
    assert code == 0
    assert (out / "energy_gamma_2.csv").exists()
    assert not (out / "energy_gamma_1.csv").exists()


def test_subcommand_experiment_mismatch(tmp_path, capsys):
    code = main(["blowup", "--config", dissipate_cfg(tmp_path, tmp_path / "o")])
    assert code == 2
    assert "dissipate" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    code = main(["dissipate", "--config", str(tmp_path / "nope.cfg")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_bad_config_key(tmp_path, capsys):
    path = write_cfg(tmp_path, "experiment = dissipate\nbogus = 1\n")
    code = main(["dissipate", "--config", path])
    assert code == 2


def test_unknown_subcommand_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate", "--config", "x"])


def skyrmion_cfg(tmp_path, out):
    return write_cfg(
        tmp_path,
        f"""\
experiment = skyrmion
domain = 0 1.6 0 1.6
grid = 8 8
boundary = neumann
dt_policy = h_squared
beta = 0.0
kappa = 3.0
max_steps = 2
out_dir = {out}
""",
    )


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--resume", "missing.ckpt"], "missing.ckpt"),
        (["--override", "mode=Q0"], "'input_state'"),
        (["--override", "mode=Q0", "--override", "input_state=missing.txt"],
         "missing.txt"),
        (["--override", "dt_policy=fixed"], "'dt'"),
    ],
    ids=[
        "missing-checkpoint",
        "q0-without-input-state",
        "q0-missing-input-state",
        "fixed-dt-policy-without-dt",
    ],
)
def test_input_errors_exit_with_config_error(tmp_path, capsys, extra, message):
    # extra flags that make the experiment reject its input before running
    code = main(["skyrmion", "--config", skyrmion_cfg(tmp_path, tmp_path / "o")] + extra)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and message in err


def skyrmion_checkpoint(config, state, path):
    """Write ``state`` as a checkpoint that a run of ``config`` resumes from."""
    params = stepper.SchemeParams(beta=config.beta, gamma=config.gamma,
                                  dt=config.time_steps(config.make_grid())[0],
                                  model=FieldModel.extended(config.kappa, config.lam))
    write_checkpoint(state, str(path), 0.1, 2, params)


@pytest.mark.parametrize("source", ["input_state", "resume"])
def test_non_finite_start_state_exits_with_config_error(tmp_path, capsys, source):
    # a NaN node would reach the solver, which spends its whole iteration
    # budget before it fails; the file is rejected before the run starts
    out = tmp_path / "o"
    cfg = skyrmion_cfg(tmp_path, out)
    config = parse_config(cfg)
    state = VectorField.constant(config.make_grid(), (0.0, 0.0, 1.0))
    state.data[0, 3, 4] = np.nan
    if source == "input_state":
        path = tmp_path / "seed.txt"
        write_snapshot(state, str(path))
        extra = ["--override", "mode=Q0", "--override", f"input_state={path}"]
    else:
        path = tmp_path / "last.ckpt"
        skyrmion_checkpoint(config, state, path)
        extra = ["--resume", str(path)]
    code = main(["skyrmion", "--config", cfg] + extra)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"config error: {path}") and "non-finite" in err
    assert not out.exists()


@pytest.mark.parametrize("length", [0.0, 3.0], ids=["zero", "three"])
@pytest.mark.parametrize("source", ["input_state", "resume"])
def test_start_state_off_unit_length_exits_with_config_error(tmp_path, capsys, source,
                                                             length):
    # a zero node used to fail the first step (exit 3, an empty output
    # directory), a long one to be renormalized without a word
    out = tmp_path / "o"
    cfg = skyrmion_cfg(tmp_path, out)
    config = parse_config(cfg)
    state = VectorField.constant(config.make_grid(), (0.0, 0.0, 1.0))
    state.data[:, 3, 4] = (0.0, 0.0, length)
    if source == "input_state":
        path = tmp_path / "seed.txt"
        write_snapshot(state, str(path))
        extra = ["--override", "mode=Q0", "--override", f"input_state={path}"]
    else:
        path = tmp_path / "last.ckpt"
        skyrmion_checkpoint(config, state, path)
        extra = ["--resume", str(path)]
    code = main(["skyrmion", "--config", cfg] + extra)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"config error: {path}: ") and "unit length" in err
    assert not out.exists()


@pytest.mark.parametrize("change", [
    {"counts": (9, 9)}, {"spacing": (0.25, 0.25)}, {"origin": (0.1, 0.0)},
    {"boundary": "periodic"},
], ids=["counts", "spacing", "origin", "boundary"])
@pytest.mark.parametrize("source", ["input_state", "resume"])
def test_start_state_on_another_grid_exits_with_config_error(tmp_path, capsys, source,
                                                             change):
    # other counts ended in a GridMismatchError traceback; another spacing,
    # origin or boundary was taken as it was
    out = tmp_path / "o"
    cfg = skyrmion_cfg(tmp_path, out)
    config = parse_config(cfg)
    other = dataclasses.replace(config.make_grid(), **change)
    state = VectorField.constant(other, (0.0, 0.0, 1.0))
    if source == "input_state":
        path = tmp_path / "seed.txt"
        write_snapshot(state, str(path))
        extra = ["--override", "mode=Q0", "--override", f"input_state={path}"]
    else:
        path = tmp_path / "last.ckpt"
        skyrmion_checkpoint(config, state, path)
        extra = ["--resume", str(path)]
    code = main(["skyrmion", "--config", cfg] + extra)
    err = capsys.readouterr().err
    assert code == 2
    assert err == (f"config error: {path}: the state lies on {other}, not on the "
                   f"configured {config.make_grid()}\n")
    assert not out.exists()


@pytest.mark.parametrize("mode, override", [("Q1", "seed_radius=2"),
                                            ("Q0", "input_state=seed.txt")])
def test_seed_keys_under_resume_exit_with_config_error(tmp_path, capsys, mode, override):
    # a resumed run takes its state from the checkpoint and reads no seed
    out = tmp_path / "o"
    cfg = skyrmion_cfg(tmp_path, out)
    ckpt = tmp_path / "last.ckpt"
    config = parse_config(cfg)
    skyrmion_checkpoint(config, VectorField.constant(config.make_grid(), (0.0, 0.0, 1.0)),
                        ckpt)
    code = main(["skyrmion", "--config", cfg, "--override", f"mode={mode}",
                 "--override", override, "--resume", str(ckpt)])
    key = override.split("=")[0]
    assert code == 2
    assert capsys.readouterr().err == (f"config error: override '{override}': key '{key}' "
                                       f"is not read by a skyrmion run with resume = {ckpt}\n")
    assert not out.exists()


def test_output_errors_are_not_config_errors(tmp_path):
    # an unwritable output directory is a runtime failure, not a bad input
    blocker = tmp_path / "file"
    blocker.write_text("")
    with pytest.raises(OSError):
        main(["skyrmion", "--config", skyrmion_cfg(tmp_path, blocker)])


@pytest.mark.parametrize(
    "override, key",
    [
        ("method=cg", "method"),
        ("snapshot_format=bin", "snapshot_format"),
        ("mode=Q2", "mode"),
        ("gamma=0", "gamma"),
        ("gammas=1.0 -0.5", "gammas"),
    ],
)
def test_bad_scheme_keys_exit_with_config_error(tmp_path, capsys, override, key):
    out = tmp_path / "o"
    # only the damping sweep reads 'gammas'
    command, make_cfg = (("dissipate", dissipate_cfg) if key == "gammas"
                         else ("skyrmion", skyrmion_cfg))
    code = main([command, "--config", make_cfg(tmp_path, out), "--override", override])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and f"'{key}'" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, overrides, key",
    [
        # the solver keys are no longer config keys: any value of theirs is
        # now an unknown key, which still exits 2 naming the key
        ("skyrmion", ["restart=0"], "restart"),
        ("skyrmion", ["max_iter=0"], "max_iter"),
        ("skyrmion", ["cadence=0"], "cadence"),
        ("skyrmion", ["max_steps=0"], "max_steps"),
        ("skyrmion", ["rel_tol=2"], "rel_tol"),
        ("skyrmion", ["rel_tol=0"], "rel_tol"),
        ("skyrmion", ["dt_policy=fixed", "dt=-0.1"], "dt"),
        ("skyrmion", ["dt_policy=fixed", "dt=0"], "dt"),
        ("skyrmion", ["gamma=nan"], "gamma"),
        ("skyrmion", ["kappa=-1"], "kappa"),
        ("skyrmion", ["lam=2"], "lam"),
        ("dissipate", ["t_end=nan"], "t_end"),
        ("dissipate", ["t_end=-1"], "t_end"),
        ("dissipate", ["t_end=inf"], "t_end"),
        ("skyrmion", ["steady_tol=nan"], "steady_tol"),
        ("skyrmion", ["steady_tol=-1"], "steady_tol"),
    ],
    ids=["restart", "max_iter", "cadence", "max_steps", "rel_tol-above-1",
         "rel_tol-zero", "dt-negative", "dt-zero", "gamma-nan", "kappa", "lam",
         "t_end-nan", "t_end-negative", "t_end-inf", "steady_tol-nan",
         "steady_tol-negative"],
)
def test_bad_numeric_keys_exit_with_config_error(tmp_path, capsys, command, overrides,
                                                 key):
    # each used to end in a traceback, a run of the default 200000-step
    # budget (max_steps = 0, or a steady_tol that can never be met), the
    # seed written as the relaxed state (dt = 0) or no step at all (t_end < 0)
    out = tmp_path / "o"
    make_cfg = dissipate_cfg if command == "dissipate" else skyrmion_cfg
    argv = [command, "--config", make_cfg(tmp_path, out)]
    for override in overrides:
        argv += ["--override", override]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and f"'{key}'" in err
    assert not out.exists()


def test_solver_keys_are_unknown_keys(tmp_path, capsys):
    # every run solves at the SolverConfig() defaults, which the invariant
    # bounds rest on, so no config sets them
    out = tmp_path / "o"
    for override in ["rel_tol=1e-12", "max_iter=500", "restart=30"]:
        code = main(["skyrmion", "--config", skyrmion_cfg(tmp_path, out),
                     "--override", override])
        err = capsys.readouterr().err
        assert code == 2
        key = override.split("=")[0]
        assert err == f"config error: override '{override}': unknown key '{key}'\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, overrides, key",
    [
        ("dissipate", ["dt_policy=fixed", "dt=0.3", "t_end=1"], "t_end"),
        ("blowup", ["snapshot_times=0 0.3 0.36"], "snapshot_times"),
    ],
    ids=["fixed-dt-not-dividing-t_end", "snapshot-after-t_end"],
)
def test_horizon_errors_exit_with_config_error(tmp_path, capsys, command, overrides, key):
    # both used to run: to t = 0.9, or without the late snapshot
    out = tmp_path / "o"
    cfg = str(CONFIG_DIR / ("blowup_smoke.cfg" if command == "blowup" else "dissipate.cfg"))
    argv = [command, "--config", cfg, "--out", str(out)]
    for override in overrides:
        argv += ["--override", override]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and f"'{key}'" in err
    assert not out.exists()


@pytest.mark.parametrize("command, override, key", [
    ("blowup", "snapshot_times=0.3 0.30000001", "snapshot_times"),
    ("dissipate", "gammas=1 1.0", "gammas"),
])
def test_values_naming_one_output_file_exit_with_config_error(tmp_path, capsys, command,
                                                              override, key):
    # both used to run: a snapshot or a CSV written over by its twin
    out = tmp_path / "o"
    cfg = str(CONFIG_DIR / ("blowup_smoke.cfg" if command == "blowup" else "dissipate.cfg"))
    code = main([command, "--config", cfg, "--out", str(out), "--override", override])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and f"key '{key}'" in err
    assert not out.exists()


# small grids and budgets, so that an input let through fails fast
SHIPPED_BASE = {
    "skyrmion_q1_smoke": ["grid=16 16", "max_steps=2"],
    "dissipate": ["grid=16 16", "t_end=0.02"],
    "converge_table2": [],
    "skyrmion_q0": ["grid=16 16", "max_steps=2"],
}


def run_shipped(config, override, out):
    """Exit status of the shipped ``config``, shrunk by SHIPPED_BASE, with
    ``override`` on top."""
    argv = [config.split("_")[0], "--config", str(CONFIG_DIR / f"{config}.cfg"),
            "--out", str(out)]
    for ov in SHIPPED_BASE[config] + [override]:
        argv += ["--override", ov]
    return main(argv)


@pytest.mark.parametrize(
    "config, override, key",
    [
        ("skyrmion_q1_smoke", "beta=nan", "beta"),
        ("skyrmion_q1_smoke", "beta=inf", "beta"),
        ("skyrmion_q1_smoke", "gamma=inf", "gamma"),
        ("skyrmion_q1_smoke", "kappa=inf", "kappa"),
        ("skyrmion_q1_smoke", "dt=inf", "dt"),
        ("skyrmion_q1_smoke", "seed_radius=nan", "seed_radius"),
        ("skyrmion_q1_smoke", "seed_radius=0", "seed_radius"),
        ("skyrmion_q1_smoke", "steady_tol=inf", "steady_tol"),
        ("skyrmion_q1_smoke", "domain=0 inf 0 6.4", "domain"),
        ("skyrmion_q1_smoke", "domain=0 nan 0 6.4", "domain"),
        ("dissipate", "domain=0 6 0 12", "domain"),
        ("dissipate", "gammas =", "gammas"),
        ("converge_table2", "levels=1 8", "levels"),
        ("converge_table2", "levels=8 -16", "levels"),
        ("converge_table2", "levels =", "levels"),
        # the manufactured solution is 2*pi-periodic: other boxes printed
        # rates near 0 and exited 0
        ("converge_table2", "boundary=neumann", "boundary"),
        ("converge_table2", "domain=0 5 0 5", "domain"),
    ],
)
def test_inputs_the_scheme_cannot_take_exit_with_config_error(tmp_path, capsys, config,
                                                              override, key):
    # each used to end in a traceback (some after creating the output
    # directory) or in a false success: a charge-zero seed reported steady,
    # steady after one step, or the default sweep or levels run instead
    out = tmp_path / "o"
    code = run_shipped(config, override, out)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and f"key '{key}'" in err
    assert not out.exists()


@pytest.mark.parametrize("shift, turns", [(0.0123, 1), (-0.4, 1), (0.0123, 2)])
def test_converge_runs_on_shifted_and_wider_periodic_boxes(tmp_path, shift, turns):
    # a box shifted by less than a cell, as the benchmark draws it, passes
    # the whole-period check despite the rounding of (2*pi + d) - d
    lo, hi = shift, turns * TWO_PI + shift
    out = tmp_path / "o"
    code = main(["converge", "--config", str(CONFIG_DIR / "converge_table2.cfg"),
                 "--out", str(out), "--override", "levels=4 8",
                 "--override", f"domain={lo!r} {hi!r} {lo!r} {hi!r}"])
    assert code == 0
    assert (out / "converge_h_linear.csv").exists()


@pytest.mark.parametrize(
    "config, override, key, run",
    [
        ("dissipate", "gamma=0.5", "gamma", "dissipate run"),
        ("dissipate", "steady_tol=5", "steady_tol", "dissipate run"),
        ("dissipate", "levels=4", "levels", "dissipate run"),
        ("converge_table2", "dt=0.1", "dt", "converge run with dt_policy = h_linear"),
        ("skyrmion_q1_smoke", "t_end=1", "t_end", "skyrmion run"),
        ("skyrmion_q0", "seed_radius=2", "seed_radius", "skyrmion run with mode = Q0"),
    ],
)
def test_keys_the_run_does_not_read_exit_with_config_error(tmp_path, capsys, config,
                                                           override, key, run):
    # each used to be dropped without a word, and the run went on without it
    out = tmp_path / "o"
    code = run_shipped(config, override, out)
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"config error: override '{override}': key '{key}' is not read by a {run}\n"
    assert not out.exists()


def test_resumed_skyrmion_csv_starts_at_checkpoint(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    cfg = skyrmion_cfg(tmp_path, first)
    assert main(["skyrmion", "--config", cfg, "--override", "max_steps=6"]) == 1
    assert main(["skyrmion", "--config", cfg, "--out", str(second),
                 "--override", "max_steps=4",
                 "--resume", str(first / "skyrmion_q1_last.ckpt")]) == 1
    before = np.genfromtxt(first / "skyrmion_q1.csv", delimiter=",", names=True)
    after = np.genfromtxt(second / "skyrmion_q1.csv", delimiter=",", names=True)
    assert after["step"][0] == 6 and after["time"][0] == before["time"][-1]
    assert after["energy"][0] == before["energy"][-1]
    assert list(after["step"][1:]) == [7, 8, 9, 10]


def test_resumed_skyrmion_energies_match_uninterrupted_run(tmp_path):
    # the extrapolated start of the solve is not checkpointed, so the first
    # resumed step starts from m^n, and the bits may differ from there on
    first, second, whole = tmp_path / "first", tmp_path / "second", tmp_path / "whole"
    cfg = skyrmion_cfg(tmp_path, first)
    assert main(["skyrmion", "--config", cfg, "--override", "max_steps=6"]) == 1
    assert main(["skyrmion", "--config", cfg, "--out", str(second),
                 "--override", "max_steps=4",
                 "--resume", str(first / "skyrmion_q1_last.ckpt")]) == 1
    assert main(["skyrmion", "--config", cfg, "--out", str(whole),
                 "--override", "max_steps=10"]) == 1
    before = np.genfromtxt(first / "skyrmion_q1.csv", delimiter=",", names=True)
    after = np.genfromtxt(second / "skyrmion_q1.csv", delimiter=",", names=True)
    ref = np.genfromtxt(whole / "skyrmion_q1.csv", delimiter=",", names=True)
    resumed = np.concatenate((before["energy"], after["energy"][1:]))
    assert list(ref["step"]) == list(range(11))
    assert np.allclose(resumed, ref["energy"], rtol=1e-10, atol=0)


def test_steady_skyrmion_csv_ends_at_the_step_it_stopped(tmp_path):
    # the 16^2 smoke relaxation stops at step 73, between two rows of its
    # cadence 20; the CSV logs that step too, the one the snapshot names
    config = parse_config(CONFIG_DIR / "skyrmion_q1_smoke.cfg",
                          ["grid=16 16", "steady_tol=1e-2", f"out_dir={tmp_path}"])
    result = cmd_skyrmion(config)
    _, time, step = llgsip.io.read_snapshot(result.snapshot_path)
    rows = np.genfromtxt(tmp_path / "skyrmion_q1.csv", delimiter=",", names=True)
    assert result.steady and step % config.cadence != 0
    assert rows["step"][-1] == step and rows["time"][-1] == time
    assert list(rows["step"][:-1]) == list(range(0, step, config.cadence))


@pytest.mark.parametrize("snapshot_format", ["text", "binary"])
def test_out_of_budget_skyrmion_renders_its_state_once(tmp_path, monkeypatch,
                                                       snapshot_format):
    # a text relaxed snapshot and the checkpoint's state hold the same
    # state, time and step, so the state is rendered once and copied
    out = tmp_path / "o"
    cfg = skyrmion_cfg(tmp_path, out)
    renders = []
    render = llgsip.io.write_snapshot

    def counted(f, path, **kwargs):
        renders.append(Path(path).name)
        return render(f, path, **kwargs)

    monkeypatch.setattr(llgsip.io, "write_snapshot", counted)
    monkeypatch.setattr(llgsip.experiments, "write_snapshot", counted)
    assert main(["skyrmion", "--config", cfg, "--override",
                 f"snapshot_format={snapshot_format}"]) == 1
    state = (out / "skyrmion_q1_last.ckpt.state").read_bytes()
    if snapshot_format == "text":
        assert renders == ["skyrmion_q1_relaxed.txt"]
        assert state == (out / "skyrmion_q1_relaxed.txt").read_bytes()
    else:
        assert renders == ["skyrmion_q1_relaxed.bin", "skyrmion_q1_last.ckpt.state.tmp"]
        snap, _, _ = llgsip.io.read_snapshot(out / "skyrmion_q1_relaxed.bin")
        field, _, step = read_checkpoint(out / "skyrmion_q1_last.ckpt")
        assert step == 2 and field.data.tobytes() == snap.data.tobytes()


def fail_from_step_3(monkeypatch, error):
    """Make every solve after the second step of a run raise ``error``."""
    solve = stepper.solve_intermediate

    def failing(m_prev, params, cfg, t_new, **kwargs):
        if t_new > 2.5 * params.dt:
            raise error
        return solve(m_prev, params, cfg, t_new, **kwargs)

    monkeypatch.setattr(stepper, "solve_intermediate", failing)


@pytest.mark.parametrize(
    "error", [stepper.SolverError("no convergence", []),
              stepper.DegenerateStateError("zero node"), FloatingPointError("nan")],
    ids=["solver", "degenerate", "floating_point"],
)
def test_failed_skyrmion_step_checkpoints_last_good_state(tmp_path, monkeypatch, capsys,
                                                          error):
    failed, ref = tmp_path / "failed", tmp_path / "ref"
    cfg = skyrmion_cfg(tmp_path, failed)
    assert main(["skyrmion", "--config", cfg, "--out", str(ref)]) == 1  # 2 steps
    fail_from_step_3(monkeypatch, error)
    capsys.readouterr()
    assert main(["skyrmion", "--config", cfg, "--override", "max_steps=5"]) == 3
    assert capsys.readouterr().err == f"solver error: {error}\n"
    config = parse_config(cfg)
    params = stepper.SchemeParams(beta=config.beta, gamma=config.gamma,
                                  dt=config.time_steps(config.make_grid())[0],
                                  model=FieldModel.extended(config.kappa, config.lam))
    state, time, step = read_checkpoint(failed / "skyrmion_q1_last.ckpt", params)
    expected, ref_time, _ = read_checkpoint(ref / "skyrmion_q1_last.ckpt", params)
    assert step == 2 and time == ref_time
    assert state.data.tobytes() == expected.data.tobytes()


@pytest.mark.parametrize("command", ["dissipate", "blowup", "skyrmion"])
def test_failed_step_keeps_the_csv_of_the_steps_before_it(tmp_path, monkeypatch, capsys,
                                                           command):
    # each used to exit 3 without its CSV, and dissipate with no output at all
    out = tmp_path / "o"
    if command == "dissipate":
        argv, csv_name = ["--config", dissipate_cfg(tmp_path, out)], "energy_gamma_0.5.csv"
    elif command == "blowup":
        argv = ["--config", str(CONFIG_DIR / "blowup_smoke.cfg"), "--out", str(out)]
        csv_name = "blowup_energy.csv"
    else:
        argv = ["--config", skyrmion_cfg(tmp_path, out), "--override", "max_steps=5"]
        csv_name = "skyrmion_q1.csv"
    fail_from_step_3(monkeypatch, stepper.SolverError("no convergence", []))
    assert main([command] + argv) == 3
    assert capsys.readouterr().err == "solver error: no convergence\n"
    last_row = (out / csv_name).read_text().splitlines()[-1]
    assert last_row.split(",")[0] == "2"


def steady_state(charge):
    """A unit state of skyrmion number 0 (uniform) or about 0.97 (the seed
    on the 64^2 grid of a 25.4 box)."""
    h = 25.4 / 63
    grid = GridSpec((64, 64), (h, h), boundary=NEUMANN)
    if charge == 0:
        return VectorField.constant(grid, (0.0, 0.0, 1.0))
    return VectorField.from_function(
        grid, lambda x, y: skyrmion_initial(x, y, (12.7, 12.7), 3.0))


@pytest.mark.parametrize(
    "mode, charge, code, message",
    [
        ("Q1", 1, 0, None),
        ("Q1", 0, 1, "Q = 0.0000 at steady state, but mode Q1 needs |Q - 1| <= 0.05"),
        ("Q0", 0, 0, None),
        # the relaxation back to the unit charge that a Q0 run can show
        ("Q0", 1, 1, "Q = 0.9742 at steady state, but mode Q0 needs |Q - 0| <= 0.05"),
    ],
)
def test_steady_skyrmion_has_the_charge_of_its_mode(tmp_path, capsys, monkeypatch, mode,
                                                    charge, code, message):
    state = steady_state(charge)
    monkeypatch.setattr(llgsip.experiments, "run", lambda *args, **kwargs: RunResult(
        state=state, time=1.0, step=10, steady=True))
    cfg = skyrmion_cfg(tmp_path, tmp_path / "o")
    argv = ["skyrmion", "--config", cfg, "--override", f"mode={mode}"]
    if mode == "Q0":
        seed = tmp_path / "seed.txt"
        write_snapshot(VectorField.constant(parse_config(cfg).make_grid(), (0.0, 0.0, 1.0)),
                       str(seed))
        argv += ["--override", f"input_state={seed}"]
    assert main(argv) == code
    assert capsys.readouterr().err.splitlines() == ([message] if message else [])


def test_skyrmion_out_of_budget_is_not_charge_checked(tmp_path, monkeypatch):
    state = steady_state(0)
    monkeypatch.setattr(llgsip.experiments, "run", lambda *args, **kwargs: RunResult(
        state=state, time=1.0, step=2, steady=False))
    result = cmd_skyrmion(parse_config(skyrmion_cfg(tmp_path, tmp_path / "o")))
    assert not result.steady and result.charge == 0.0 and result.violations == []


# ---------------------------------------------------------------------------
# invariant checks and the exit status
# ---------------------------------------------------------------------------

def clean_report(k):
    return StepReport(step_index=k, time=0.1 * k, krylov_iters=5, residual=1e-13,
                      min_intermediate_length=1.0, energy=-1.0 * k, max_length_error=2e-16,
                      max_orthogonality_error=4e-16)


@pytest.mark.parametrize(
    "name, value, message",
    [
        # a rise over the step before, still below the initial energy
        ("energy", -1.5, "energy rose by 5.000e-01 at step 3"),
        ("max_length_error", 1e-12, "||m|-1| = 1e-12 at step 3"),
        ("min_intermediate_length", 0.5, "min|mt| = 0.5 at step 3"),
        ("max_orthogonality_error", 1e-6, "|mt.m-1| = 1e-06 at step 3"),
    ],
    ids=["energy", "length", "intermediate", "orthogonality"],
)
def test_energy_log_flags_each_broken_invariant(name, value, message):
    # step 3 is not a logged row at cadence 2, and is checked all the same
    m = VectorField.constant(GridSpec((4, 4), (0.5, 0.5)), (0.0, 0.0, 1.0))
    log = _EnergyLog(m, FieldModel.exchange_only(), cadence=2)
    for k in range(1, 5):
        report = clean_report(k)
        if k == 3:
            setattr(report, name, value)
        log(report, m, m, m)
    [violation] = log.violations
    assert violation.startswith(message)
    assert [row[0] for row in log.rows] == [0, 2, 4]


def test_energy_log_writes_the_last_step_once(tmp_path):
    # the last step, off the cadence, is logged by series and write, once,
    # and stays in ``last``
    m = VectorField.constant(GridSpec((4, 4), (0.5, 0.5)), (0.0, 0.0, 1.0))
    log = _EnergyLog(m, FieldModel.exchange_only(), cadence=3)
    for k in range(1, 5):
        log(clean_report(k), m, m, m)
    assert [row[0] for row in log.rows] == [0, 3]
    assert [row[0] for row in log.series()] == [0, 3, 4]
    path = tmp_path / "energy.csv"
    log.write(path)
    assert [line.split(",")[0] for line in path.read_text().splitlines()[1:]] == ["0", "3", "4"]
    assert log.last[0].step_index == 4 and len(log.rows) == 3


def test_energy_log_shows_few_messages_per_invariant_and_counts_the_rest():
    # a systematic length fault on every step does not hide one energy rise
    m = VectorField.constant(GridSpec((4, 4), (0.5, 0.5)), (0.0, 0.0, 1.0))
    log = _EnergyLog(m, FieldModel.exchange_only())
    for k in range(1, 21):
        report = clean_report(k)
        report.max_length_error = 1e-12
        if k == 15:
            report.energy = 0.0
        log(report, m, m, m)
    shown = [f"||m|-1| = 1e-12 at step {k}" for k in range(1, 6)]
    assert [v.split(" (")[0] for v in log.violations] == [
        *shown, "energy rose by 1.400e+01 at step 15", "||m|-1|: 15 more failing steps"
    ]


@pytest.mark.parametrize("command", ["dissipate", "blowup", "skyrmion"])
def test_violations_exit_1_and_print_each_message(tmp_path, capsys, monkeypatch,
                                                   command):
    messages = ["energy rose by 1.000e-03 at step 2",
                "min|mt| = 0.5 at step 3 (bound >= 0.999999999)"]
    result = {
        "dissipate": DissipateResult(energies={1.0: [(0, 0.0, 1.0), (1, 0.1, 1.001)]},
                                     violations=messages),
        "blowup": BlowupResult(snapshots=[], energies=[], violations=messages),
        "skyrmion": SkyrmionResult(final_state=None, charge=1.0, steady=True,
                                   series=[], snapshot_path="x", violations=messages),
    }[command]
    monkeypatch.setattr(llgsip.cli, f"cmd_{command}", lambda config, **kw: result)
    cfg = {"dissipate": "dissipate.cfg", "blowup": "blowup_smoke.cfg",
           "skyrmion": "skyrmion_q1_smoke.cfg"}[command]
    assert main([command, "--config", str(CONFIG_DIR / cfg)]) == 1
    assert capsys.readouterr().err.splitlines() == messages


def test_length_fault_in_a_real_run_exits_1(tmp_path, capsys, monkeypatch):
    # a projection that misses the sphere by 1e-6 breaks ||m|-1| <= 1e-14
    normalize = stepper.normalize
    monkeypatch.setattr(
        stepper, "normalize",
        lambda mt, *lengths: VectorField(
            mt.grid, (1.0 + 1e-6) * normalize(mt, *lengths).data),
    )
    code = main(["dissipate", "--config", dissipate_cfg(tmp_path, tmp_path / "o")])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert any(line.startswith("gamma=0.5: ||m|-1| = ") and "at step 1" in line
               for line in err)
