"""Config parsing, CSV determinism, snapshot and checkpoint round-trips."""

import numpy as np
import pytest

from llgsip import io as llgsip_io
from llgsip.io import (
    ConfigError,
    ExperimentConfig,
    parse_config,
    params_hash,
    read_checkpoint,
    read_snapshot,
    report_row,
    write_checkpoint,
    write_csv,
    write_snapshot,
)
from llgsip.grid import GridSpec, VectorField
from llgsip.stepper import SchemeParams, StepReport

from conftest import random_unit_field


BASE_CONFIG = """\
# dissipation sweep
experiment = dissipate
domain = 0 6.283185307179586 0 6.283185307179586
grid = 16 16
dt = 0.01
t_end = 0.1
gammas = 0.5 1.0
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_basic_config(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, BASE_CONFIG))
    assert cfg.experiment == "dissipate"
    assert cfg.grid == (16, 16)
    assert cfg.dt == 0.01
    assert cfg.gammas == (0.5, 1.0)
    assert cfg.boundary == "periodic"
    assert cfg.make_grid().spacing[0] == pytest.approx(2 * np.pi / 16)


def test_missing_required_key_names_it(tmp_path):
    text = BASE_CONFIG.replace("grid = 16 16\n", "")
    with pytest.raises(ConfigError, match="'grid'"):
        parse_config(write_cfg(tmp_path, text))


def test_unknown_key_rejected_with_line(tmp_path):
    with pytest.raises(ConfigError, match="unknown key 'tyop'"):
        parse_config(write_cfg(tmp_path, BASE_CONFIG + "tyop = 3\n"))


def test_malformed_line_reports_line_number(tmp_path):
    with pytest.raises(ConfigError, match="line 2"):
        parse_config(write_cfg(tmp_path, "experiment = dissipate\nnonsense\n"))


def test_bad_value_reports_key(tmp_path):
    text = BASE_CONFIG.replace("dt = 0.01", "dt = fast")
    with pytest.raises(ConfigError, match="'dt'"):
        parse_config(write_cfg(tmp_path, text))


def test_overrides_win(tmp_path):
    cfg = parse_config(
        write_cfg(tmp_path, BASE_CONFIG), overrides=["dt=0.5", "grid = 8 8"]
    )
    assert cfg.dt == 0.5
    assert cfg.grid == (8, 8)


def test_bad_override_rejected(tmp_path):
    with pytest.raises(ConfigError, match="override"):
        parse_config(write_cfg(tmp_path, BASE_CONFIG), overrides=["dt:0.5"])


def test_unknown_experiment(tmp_path):
    text = BASE_CONFIG.replace("experiment = dissipate", "experiment = explode")
    with pytest.raises(ConfigError, match="explode"):
        parse_config(write_cfg(tmp_path, text))


def test_dt_policy_resolution():
    cfg = ExperimentConfig(
        experiment="converge",
        domain=((0.0, 2 * np.pi), (0.0, 2 * np.pi)),
        grid=(16, 16),
        dt_policy="h_squared",
    )
    grid = cfg.make_grid()
    assert cfg.resolve_dt(grid) == pytest.approx(grid.spacing[0] ** 2)
    cfg.dt_policy = "h_linear"
    assert cfg.resolve_dt(grid) == pytest.approx(1.0 / 16)
    cfg.dt_policy = "fixed"
    with pytest.raises(ConfigError):
        cfg.resolve_dt(grid)


def test_neumann_spacing_spans_closed_interval():
    cfg = ExperimentConfig(
        experiment="blowup",
        domain=((-0.5, 0.5), (-0.5, 0.5)),
        grid=(65, 65),
        boundary="neumann",
    )
    assert cfg.make_grid().spacing == (1.0 / 64, 1.0 / 64)


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def test_csv_byte_determinism(tmp_path):
    reports = [
        StepReport(
            step_index=k,
            time=0.1 * k,
            krylov_iters=7,
            residual=1.234e-13,
            min_intermediate_length=1.0 + 1e-5 * k,
            energy=10.0 / (k + 1),
            max_length_error=2.2e-16,
            max_orthogonality_error=4.4e-16,
        )
        for k in range(4)
    ]
    rows = [report_row(r) for r in reports]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(rows, a)
    write_csv(rows, b)
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0].startswith("step,time,energy")
    assert len(lines) == 5
    # repr round-trip: parsing the written floats back is exact
    assert float(lines[1].split(",")[2]) == 10.0


def test_csv_extra_columns(tmp_path):
    path = tmp_path / "q.csv"
    write_csv([[0, 0.0, 1.0, 1.0, 0.0, 3, 1e-13, 0.97]], path, extra_columns=["charge"])
    assert path.read_text().splitlines()[0].endswith(",charge")


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("binary", [False, True])
@pytest.mark.parametrize("boundary", ["periodic", "neumann"])
def test_snapshot_round_trip_bit_exact(tmp_path, rng, binary, boundary):
    grid = GridSpec((7, 5), (0.3, 1.0 / 3.0), origin=(-1.0, 0.25), boundary=boundary)
    f = random_unit_field(grid, rng)
    path = tmp_path / "snap.dat"
    write_snapshot(f, path, time=0.375, step=12, binary=binary)
    g, time, step = read_snapshot(path)
    assert np.array_equal(g.data, f.data)
    assert g.grid == grid
    assert time == 0.375
    assert step == 12


def test_snapshot_rejects_garbage(tmp_path):
    path = tmp_path / "bad.dat"
    header = (
        "# llgsip-snapshot 1\n# dim 2\n# counts 2 2\n# spacing 0.5 0.5\n"
        "# origin 0.0 0.0\n# boundary periodic\n# time 0.0\n"
    )
    for text in (
        "# not-a-snapshot\n# body text\n",
        header,  # no body line
        header.replace("# time 0.0\n", "") + "# step 0\n# body text\n",
        header + "# step zero\n# body text\n",
    ):
        path.write_text(text)
        with pytest.raises(ConfigError, match="bad.dat"):
            read_snapshot(path)


@pytest.mark.parametrize("binary", [False, True])
def test_snapshot_rejects_truncated_body(tmp_path, rng, binary):
    grid = GridSpec((4, 4), (0.5, 0.5))
    f = random_unit_field(grid, rng)
    path = tmp_path / "snap.dat"
    write_snapshot(f, path, binary=binary)
    blob = path.read_bytes()
    if binary:
        cuts = [blob[:-8], blob + bytes(8)]
    else:
        cuts = [b"\n".join(blob.splitlines()[:-2]) + b"\n"]
    for cut in cuts:
        path.write_bytes(cut)
        with pytest.raises(ConfigError, match="bytes" if binary else "rows"):
            read_snapshot(path)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip_and_hash_guard(tmp_path, rng):
    grid = GridSpec((6, 6), (0.5, 0.5))
    f = random_unit_field(grid, rng)
    params = SchemeParams(beta=1.0, gamma=1.0, dt=0.01)
    path = tmp_path / "ck"
    write_checkpoint(f, path, time=2.5, step=250, params=params)
    g, time, step = read_checkpoint(path, params=params)
    assert np.array_equal(g.data, f.data)
    assert (time, step) == (2.5, 250)

    other = SchemeParams(beta=1.0, gamma=2.0, dt=0.01)
    assert params_hash(other) != params_hash(params)
    with pytest.raises(ConfigError, match="parameters"):
        read_checkpoint(path, params=other)
    # without params the hash is not enforced
    g2, _, _ = read_checkpoint(path)
    assert np.array_equal(g2.data, f.data)


def test_failed_checkpoint_write_keeps_previous_checkpoint(tmp_path, rng, monkeypatch):
    # the second checkpoint's snapshot write dies part-way through its header
    grid = GridSpec((6, 6), (0.5, 0.5))
    first, second = random_unit_field(grid, rng), random_unit_field(grid, rng)
    params = SchemeParams(beta=1.0, gamma=1.0, dt=0.01)
    path = tmp_path / "ck.ckpt"
    write_checkpoint(first, path, time=2.5, step=250, params=params)
    files = sorted(tmp_path.iterdir())
    assert [p.name for p in files] == ["ck.ckpt", "ck.ckpt.state"]
    before = [p.read_bytes() for p in files]

    def failing_write_snapshot(f, snap_path, **kwargs):
        with open(snap_path, "w") as fh:
            fh.write("# llgsip-snapshot 1\n# dim 2\n")
        raise OSError("disk full")

    monkeypatch.setattr(llgsip_io, "write_snapshot", failing_write_snapshot)
    with pytest.raises(OSError, match="disk full"):
        write_checkpoint(second, path, time=3.0, step=300, params=params)
    assert sorted(tmp_path.iterdir()) == files  # no temporary file left behind
    assert [p.read_bytes() for p in files] == before
    g, time, step = read_checkpoint(path, params=params)
    assert np.array_equal(g.data, first.data)
    assert (time, step) == (2.5, 250)
