"""Config parsing, CSV determinism, snapshot and checkpoint round-trips."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from llgsip import experiments
from llgsip import io as llgsip_io
from llgsip.effective_field import FieldModel
from llgsip.exact import skyrmion_initial
from llgsip.io import (
    ConfigError,
    ExperimentConfig,
    keys_read,
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

from conftest import at, random_unit_field

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
DATA_DIR = Path(__file__).resolve().parent / "data"

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
    h2 = grid.spacing[0] ** 2
    dt, steps = cfg.time_steps(grid)
    assert steps == math.ceil(1.0 / h2) == 7
    assert dt == 1.0 / 7 and dt <= h2
    cfg.dt_policy = "h_linear"
    # 1/(1/N) > N for N = 49, 98, 103: the count is still N, dt still 1/N
    for n in (16, 49, 98, 103):
        assert cfg.time_steps(cfg.make_grid((n, n))) == (1.0 / n, n)
    cfg.dt_policy = "fixed"
    with pytest.raises(ConfigError, match="'dt'"):
        cfg.time_steps(grid)
    cfg.dt, cfg.t_end = 1e-4, 0.35  # 0.35/1e-4 = 3499.9999999999995
    assert cfg.time_steps(grid) == (1e-4, 3500)
    cfg.dt, cfg.t_end = 0.3, 1.0
    with pytest.raises(ConfigError, match="'t_end'"):
        cfg.time_steps(grid)
    # a relaxation takes the policy's dt and its step budget, whatever t_end
    cfg.experiment, cfg.max_steps = "skyrmion", 7
    assert cfg.time_steps(grid) == (0.3, 7)


def test_neumann_spacing_spans_closed_interval():
    cfg = ExperimentConfig(
        experiment="blowup",
        domain=((-0.5, 0.5), (-0.5, 0.5)),
        grid=(65, 65),
        boundary="neumann",
    )
    assert cfg.make_grid().spacing == (1.0 / 64, 1.0 / 64)


@pytest.mark.parametrize(
    "override, message",
    [
        ("tyop=3", "unknown key 'tyop'"),
        ("dt=fast", "key 'dt': could not convert string to float: 'fast'"),
        ("gammas=1 -1", "key 'gammas': must be one or more values, each finite and positive"),
        ("gamma=0.5", "key 'gamma' is not read by a dissipate run"),
    ],
    ids=["unknown", "bad-value", "rule", "unread"],
)
def test_override_errors_name_the_override(tmp_path, override, message):
    with pytest.raises(ConfigError) as err:
        parse_config(write_cfg(tmp_path, BASE_CONFIG), overrides=[override])
    assert str(err.value).startswith(f"override '{override}': {message}")


def test_unread_key_names_its_line(tmp_path):
    text = BASE_CONFIG + "dt_policy = h_squared\n"
    with pytest.raises(ConfigError, match="^line 5: key 'dt' is not read by a dissipate "
                                          "run with dt_policy = h_squared$"):
        parse_config(write_cfg(tmp_path, text))


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.cfg")), ids=lambda p: p.stem)
def test_every_shipped_config_parses(path):
    cfg = parse_config(path)
    assert path.stem.startswith(cfg.experiment)
    counts = [(n, n) for n in cfg.levels] if cfg.experiment == "converge" else [cfg.grid]
    for n in counts:
        dt, steps = cfg.time_steps(cfg.make_grid(n))
        assert dt > 0 and steps >= 1


_FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}


class _RecordingConfig(ExperimentConfig):
    """A config that notes each of its keys a run reads, in ``read``."""

    def __getattribute__(self, name):
        if name in _FIELDS:
            object.__getattribute__(self, "read").add(name)
        return object.__getattribute__(self, name)


_BOX = f"domain = 0 {2 * np.pi!r} 0 {2 * np.pi!r}\ngrid = 8 8\nout_dir = {{out}}\n"
_SKYRMION = ("experiment = skyrmion\ndomain = 0 1.6 0 1.6\ngrid = 9 9\nboundary = neumann\n"
             "dt = 0.01\nbeta = 0\nkappa = 3\nmax_steps = 2\nout_dir = {out}\n")
TINY_RUNS = {
    "converge-h_squared": "experiment = converge\ndt_policy = h_squared\nlevels = 8\n"
                          "t_end = 0.05\n" + _BOX,
    "converge-fixed": "experiment = converge\nlevels = 8\ndt = 0.05\nt_end = 0.1\n" + _BOX,
    "dissipate": "experiment = dissipate\ndt = 0.01\nt_end = 0.02\ngammas = 1\n" + _BOX,
    "blowup": "experiment = blowup\ndomain = -0.5 0.5 -0.5 0.5\ngrid = 9 9\n"
              "boundary = neumann\ndt = 1e-3\nt_end = 2e-3\nsnapshot_times = 0 2e-3\n"
              "out_dir = {out}\n",
    "skyrmion-Q1": _SKYRMION,
    "skyrmion-Q0": _SKYRMION + "mode = Q0\ninput_state = {seed}\n",
}


@pytest.mark.parametrize("run", list(TINY_RUNS))
def test_each_run_reads_exactly_the_keys_it_accepts(tmp_path, run):
    seed = tmp_path / "seed.txt"
    cfg = parse_config(write_cfg(tmp_path, TINY_RUNS[run].format(out=tmp_path / "out",
                                                                 seed=seed)))
    if cfg.input_state:
        write_snapshot(VectorField.from_function(
            cfg.make_grid(), lambda x, y: skyrmion_initial(x, y, (0.8, 0.8), 0.5)), seed)
    recorder = _RecordingConfig(**vars(cfg))
    recorder.read = set()
    getattr(experiments, f"cmd_{cfg.experiment}")(recorder)
    accepted = keys_read(cfg)
    if cfg.experiment == "converge":
        accepted.remove("grid")  # required of every config, yet its grids come from levels
    assert recorder.read == accepted


@pytest.mark.parametrize("run", ["skyrmion-Q1", "skyrmion-Q0"])
def test_a_resumed_run_reads_exactly_the_keys_it_accepts(tmp_path, run):
    # the checkpoint's state replaces the seed, so neither seed key is read
    cfg = parse_config(write_cfg(tmp_path, TINY_RUNS[run].format(out=tmp_path / "out",
                                                                 seed=tmp_path / "seed")))
    ckpt = str(tmp_path / "last.ckpt")
    params = SchemeParams(beta=cfg.beta, gamma=cfg.gamma, dt=cfg.dt,
                          model=FieldModel.extended(cfg.kappa, cfg.lam))
    write_checkpoint(VectorField.constant(cfg.make_grid(), (0.0, 0.0, 1.0)), ckpt, 0.02, 2,
                     params)
    recorder = _RecordingConfig(**vars(cfg))
    recorder.read = set()
    experiments.cmd_skyrmion(recorder, resume=ckpt)
    accepted = keys_read(cfg, resume=ckpt)
    assert recorder.read == accepted
    assert accepted == keys_read(cfg) - {"seed_radius", "input_state"}


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


def reference_snapshot_body(f):
    """The text body node by node: indices, coordinates, then values."""
    coords = f.grid.meshgrid()
    lines = []
    for idx in np.ndindex(*f.grid.counts):
        pieces = [str(i) for i in idx]
        pieces += [repr(float(c[idx])) for c in coords]
        pieces += [repr(float(v)) for v in at(f.data, idx)]
        lines.append(" ".join(pieces) + "\n")
    return "".join(lines)


@pytest.mark.parametrize("boundary", ["periodic", "neumann"])
@pytest.mark.parametrize("counts", [(7, 5), (6, 5, 4)])
def test_snapshot_text_body_matches_reference(tmp_path, rng, boundary, counts):
    grid = GridSpec(counts, (0.3, 1.0 / 3.0, 0.7)[:len(counts)],
                    origin=(-1.0, 0.25, 0.1)[:len(counts)], boundary=boundary)
    f = random_unit_field(grid, rng)
    path = tmp_path / "snap.txt"
    write_snapshot(f, path)
    body = path.read_text().split("# body text\n", 1)[1]
    assert body == reference_snapshot_body(f)


def chunked_snapshot_body(f):
    """The text body built 256 rows at a time from the meshgrid
    coordinates, joining each row's str and repr pieces."""
    grid = f.grid
    coords = [c.ravel() for c in grid.meshgrid()]
    values = np.moveaxis(f.data, 0, -1).reshape(-1, 3)
    rows = []
    for lo in range(0, grid.num_nodes, 256):
        hi = min(lo + 256, grid.num_nodes)
        index = np.column_stack(np.unravel_index(np.arange(lo, hi), grid.counts)).tolist()
        table = np.column_stack([c[lo:hi] for c in coords] + [values[lo:hi]]).tolist()
        rows += [" ".join(map(str, i)) + " " + " ".join(map(repr, x)) + "\n"
                 for i, x in zip(index, table)]
    return "".join(rows)


@pytest.mark.parametrize("counts", [(23, 17), (2, 300), (4, 3, 5)])
def test_snapshot_bytes_equal_chunked_writer(tmp_path, rng, counts):
    grid = GridSpec(counts, (0.1, 1e-7, 3.0)[:len(counts)],
                    origin=(-2.5, 1e-300, -7.0)[:len(counts)], boundary="neumann")
    values = rng.standard_normal((3,) + grid.counts)
    values.flat[::5] *= 1e-310  # subnormal
    values.flat[1::5] = np.round(values.flat[1::5] * 10)  # integral, zeros among them
    values.flat[2::7] = -0.0
    values.flat[3::5] *= -1e300
    f = VectorField(grid, values)
    path = tmp_path / "snap.txt"
    write_snapshot(f, path, time=0.25, step=3)
    body = path.read_bytes().split(b"# body text\n", 1)[1]
    assert body == chunked_snapshot_body(f).encode()


def test_snapshot_rejects_rows_off_the_node_list(tmp_path, rng):
    grid = GridSpec((4, 3), (0.5, 0.5))
    path = tmp_path / "snap.txt"
    write_snapshot(random_unit_field(grid, rng), path)
    lines = path.read_text().splitlines(keepends=True)
    head, rows = lines[:-12], lines[-12:]
    for body in (
        rows[:11] + rows[:1],  # node (0, 0) twice, node (3, 2) missing
        rows[:11] + ["-1 -1 " + rows[11].split(" ", 2)[2]],  # (3, 2) as (-1, -1)
        rows[:11] + ["3 2 " + rows[11]],  # a row with extra columns
    ):
        path.write_text("".join(head + body))
        with pytest.raises(ConfigError, match="snap.txt"):
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


@pytest.mark.parametrize("binary", [False, True])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_snapshot_rejects_non_finite_values(tmp_path, rng, binary, value):
    # a state that is not finite cannot start or resume a run
    f = random_unit_field(GridSpec((4, 5), (0.5, 0.5)), rng)
    f.data[1, 2, 3] = value
    path = tmp_path / "snap.dat"
    write_snapshot(f, path, binary=binary)
    with pytest.raises(ConfigError, match="snap.dat: .*non-finite"):
        read_snapshot(path)
    params = SchemeParams(beta=1.0, gamma=1.0, dt=0.01)
    write_checkpoint(f, tmp_path / "ck", time=0.0, step=0, params=params)
    with pytest.raises(ConfigError, match="ck.state: .*non-finite"):
        read_checkpoint(tmp_path / "ck", params=params)


# files written before fields were stored as component planes: one row of
# three components per node, component c of node (i, j) being
# (-1)^c (100 c + 10 i + j) / 7
FORMAT_FILES = [
    ("snapshot_4x3_neumann.txt", GridSpec((4, 3), (2 / 3, 0.5), origin=(-1.0, 0.0),
                                          boundary="neumann"), 0.125, 5),
    ("snapshot_4x3_periodic.bin", GridSpec((4, 3), (0.25, 1 / 3), origin=(0.5, -0.25)),
     1.5, 12),
]


def format_planes():
    c, i, j = np.indices((3, 4, 3))
    return (100 * c + 10 * i + j) / 7 * (-1.0) ** c


@pytest.mark.parametrize("name, grid, time, step", FORMAT_FILES,
                         ids=[name for name, *_ in FORMAT_FILES])
def test_snapshots_of_earlier_releases_read_and_rewrite_unchanged(tmp_path, name, grid,
                                                                   time, step):
    path = DATA_DIR / name
    f, t, k = read_snapshot(path)
    assert f.grid == grid and (t, k) == (time, step)
    assert f.data.shape == (3, 4, 3) and f.data.flags.c_contiguous
    assert np.array_equal(f.data, format_planes())
    again = tmp_path / name
    write_snapshot(f, again, time=t, step=k, binary=name.endswith(".bin"))
    assert again.read_bytes() == path.read_bytes()


def test_checkpoint_of_an_earlier_release_resumes_unchanged(tmp_path):
    params = SchemeParams(beta=1.0, gamma=1.0, dt=0.01)
    path = DATA_DIR / "checkpoint_4x3.ckpt"
    f, time, step = read_checkpoint(path, params=params)
    assert f.grid == FORMAT_FILES[1][1] and (time, step) == (0.3, 30)
    assert np.array_equal(f.data, format_planes())
    again = tmp_path / path.name
    write_checkpoint(f, again, time=time, step=step, params=params)
    for suffix in ("", ".state"):
        assert (Path(f"{again}{suffix}").read_bytes()
                == Path(f"{path}{suffix}").read_bytes())


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


def test_checkpoints_of_forced_runs_are_rejected(tmp_path, rng):
    f = random_unit_field(GridSpec((4, 4), (0.5, 0.5)), rng)
    params = SchemeParams(beta=1.0, gamma=1.0, dt=0.01)
    # unforced digests are those of earlier releases, so old checkpoints resume
    assert params_hash(params) == "824bafca3764d149"
    forced = SchemeParams(beta=1.0, gamma=1.0, dt=0.01,
                          forcing=lambda x, y, t: (0 * x, 0 * x, 0 * x + 1))
    path = tmp_path / "ck"
    with pytest.raises(ValueError, match="forced"):
        write_checkpoint(f, path, time=0.0, step=0, params=forced)
    assert list(tmp_path.iterdir()) == []
    write_checkpoint(f, path, time=0.0, step=0, params=params)
    with pytest.raises(ValueError, match="forced"):
        read_checkpoint(path, params=forced)


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


def test_checkpoint_from_a_text_snapshot_keeps_its_bytes(tmp_path, rng, monkeypatch):
    # the state of a checkpoint written from a snapshot of the same field,
    # time and step is that snapshot's bytes, and the field is not rendered
    grid = GridSpec((6, 5), (0.5, 0.5))
    f = random_unit_field(grid, rng)
    params = SchemeParams(beta=0.0, gamma=1.0, dt=0.01)
    snap = tmp_path / "snap.txt"
    write_snapshot(f, snap, time=0.75, step=75)
    write_checkpoint(f, tmp_path / "rendered.ckpt", time=0.75, step=75, params=params)

    def no_render(*args, **kwargs):
        raise AssertionError("rendered again")

    monkeypatch.setattr(llgsip_io, "write_snapshot", no_render)
    write_checkpoint(f, tmp_path / "copied.ckpt", time=0.75, step=75, params=params,
                     snapshot=snap)
    for suffix in ("", ".state"):
        rendered = (tmp_path / f"rendered.ckpt{suffix}").read_bytes()
        assert (tmp_path / f"copied.ckpt{suffix}").read_bytes() == rendered
    assert (tmp_path / "copied.ckpt.state").read_bytes() == snap.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "copied.ckpt", "copied.ckpt.state", "rendered.ckpt", "rendered.ckpt.state",
        "snap.txt"]
