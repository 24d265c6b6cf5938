"""End-to-end command-line harness tests on tiny configurations."""

from pathlib import Path

import numpy as np
import pytest

import llgsip.cli
from llgsip import stepper
from llgsip.cli import main
from llgsip.effective_field import FieldModel
from llgsip.experiments import (
    BlowupResult,
    DissipateResult,
    SkyrmionResult,
    _EnergyLog,
    cmd_converge,
    format_error_table,
)
from llgsip.grid import GridSpec, VectorField
from llgsip.io import parse_config
from llgsip.stepper import StepReport


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
    code = main(["skyrmion", "--config", skyrmion_cfg(tmp_path, out),
                 "--override", override])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and f"'{key}'" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides, key",
    [
        (["restart=0"], "restart"),
        (["max_iter=0"], "max_iter"),
        (["cadence=0"], "cadence"),
        (["max_steps=0"], "max_steps"),
        (["rel_tol=2"], "rel_tol"),
        (["rel_tol=0"], "rel_tol"),
        (["dt_policy=fixed", "dt=-0.1"], "dt"),
        (["dt_policy=fixed", "dt=0"], "dt"),
        (["gamma=nan"], "gamma"),
        (["kappa=-1"], "kappa"),
        (["lam=2"], "lam"),
        (["t_end=nan"], "t_end"),
        (["t_end=-1"], "t_end"),
        (["t_end=inf"], "t_end"),
        (["steady_tol=nan"], "steady_tol"),
        (["steady_tol=-1"], "steady_tol"),
    ],
    ids=["restart", "max_iter", "cadence", "max_steps", "rel_tol-above-1",
         "rel_tol-zero", "dt-negative", "dt-zero", "gamma-nan", "kappa", "lam",
         "t_end-nan", "t_end-negative", "t_end-inf", "steady_tol-nan",
         "steady_tol-negative"],
)
def test_bad_numeric_keys_exit_with_config_error(tmp_path, capsys, overrides, key):
    # each used to end in a traceback, a run of the default 200000-step
    # budget (max_steps = 0, or a steady_tol that can never be met), the
    # seed written as the relaxed state (dt = 0) or no step at all (t_end < 0)
    out = tmp_path / "o"
    argv = ["skyrmion", "--config", skyrmion_cfg(tmp_path, out)]
    for override in overrides:
        argv += ["--override", override]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and f"'{key}'" in err
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
    log = _EnergyLog(m, FieldModel.exchange_only(), energy_tol=1e-8, cadence=2)
    for k in range(1, 5):
        report = clean_report(k)
        if k == 3:
            setattr(report, name, value)
        log(report, m, m, m)
    [violation] = log.violations
    assert violation.startswith(message)
    assert [row[0] for row in log.rows] == [0, 2, 4]


def test_energy_log_shows_few_messages_per_invariant_and_counts_the_rest():
    # a systematic length fault on every step does not hide one energy rise
    m = VectorField.constant(GridSpec((4, 4), (0.5, 0.5)), (0.0, 0.0, 1.0))
    log = _EnergyLog(m, FieldModel.exchange_only(), energy_tol=1e-8)
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
