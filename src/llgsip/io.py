"""Run-description parsing and output plumbing.

Config files are flat ``key = value`` text with a typed schema; snapshots
are plain text (one node per line, shortest round-trip decimals) with an
optional little-endian float64 binary body; CSV time series share a single
column schema across all experiments.  Snapshot bodies hold one row of three
components per node, so the component planes of a field are transposed on
the way out and back, and nowhere else.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import math
import os
import shutil
from dataclasses import dataclass
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .grid import PERIODIC, NEUMANN, GridSpec, VectorField

CSV_COLUMNS = [
    "step",
    "time",
    "energy",
    "min_tilde_len",
    "max_len_err",
    "krylov_iters",
    "residual",
]


class ConfigError(ValueError):
    """Malformed configuration; the message names the key and the line or override."""


# the keys every run reads, and by experiment the further keys its run
# reads: converge takes its grids from 'levels', so it reads no 'grid',
# which every config must set all the same
_COMMON_KEYS = ("experiment", "domain", "grid", "boundary", "dt_policy", "dt", "beta",
                "out_dir")
_RUN_KEYS = {
    "converge": ("gamma", "t_end", "levels"),
    "dissipate": ("t_end", "gammas", "cadence"),
    "blowup": ("gamma", "t_end", "snapshot_times", "cadence", "snapshot_format"),
    "skyrmion": ("gamma", "kappa", "lam", "steady_tol", "max_steps", "mode",
                 "seed_radius", "input_state", "cadence", "snapshot_format"),
}
# key -> {key: value}: the key is read only when each of those keys has its
# value; 'resume' is the checkpoint a run resumes from, whose state replaces
# the seed
_READ_WHEN = {"dt": {"dt_policy": "fixed"},
              "seed_radius": {"mode": "Q1", "resume": None},
              "input_state": {"mode": "Q0", "resume": None}}
EXPERIMENTS = tuple(_RUN_KEYS)
DT_POLICIES = ("fixed", "h_squared", "h_linear")


@dataclass
class ExperimentConfig:
    experiment: str
    domain: tuple  # ((lo_x, hi_x), (lo_y, hi_y))
    grid: tuple  # counts per axis
    boundary: str = PERIODIC
    dt_policy: str = "fixed"
    dt: float = None
    t_end: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0
    kappa: float = 0.0
    lam: int = 1
    out_dir: str = "out"
    cadence: int = 1
    snapshot_format: str = "text"
    levels: tuple[int, ...] = (8, 16, 32, 64, 128)
    gammas: tuple[float, ...] = (0.1, 0.5, 1.0, 10.0)
    snapshot_times: tuple[float, ...] = (0.0, 0.06, 0.15, 0.30, 0.32, 0.35)
    steady_tol: float = 1e-6
    max_steps: int = 200000  # relaxation step budget
    mode: str = "Q1"  # Q1 | Q0
    input_state: str = None  # Q0: relaxed Q1 snapshot
    seed_radius: float = 3.0  # Q1: initial profile width

    def make_grid(self, counts=None):
        """The grid on the configured domain, with ``counts`` nodes per axis.

        Periodic grids tile the box with N cells; Neumann grids place their
        N nodes on [lo, hi] inclusive (N - 1 cells).
        """
        counts = tuple(counts) if counts is not None else tuple(self.grid)
        hs = []
        for (lo, hi), n in zip(self.domain, counts):
            cells = n if self.boundary == PERIODIC else n - 1
            hs.append((hi - lo) / cells)
        origin = tuple(lo for lo, _ in self.domain)
        return GridSpec(counts=counts, spacing=tuple(hs), origin=origin,
                        boundary=self.boundary)

    def time_steps(self, grid):
        """(dt, steps) of a run on ``grid``; no other code sets a run's length.

        A skyrmion relaxation takes the policy's dt and ``max_steps`` steps.
        Every other run ends exactly at ``t_end``: under 'fixed' it must be a
        whole number of steps; h_squared (dt <= h^2) and h_linear (dt <= 1/Nx,
        the refinement path of the published first-order error table) take
        the fewest equal steps within that bound.  Whole counts forgive a
        relative 1e-9: 0.35/1e-4 = 3499.9999999999995 and 1/(1/49) > 49.
        """
        fixed = self.dt_policy == "fixed"
        if fixed and self.dt is None:
            raise ConfigError("dt policy 'fixed' requires key 'dt'")
        dt = self.dt if fixed else (grid.spacing[0] ** 2 if self.dt_policy == "h_squared"
                                    else 1.0 / grid.counts[0])
        if self.experiment == "skyrmion":
            return dt, self.max_steps
        ratio = self.t_end / dt
        steps = round(ratio)
        if steps >= 1 and abs(ratio - steps) <= 1e-9 * ratio:
            return dt if fixed else self.t_end / steps, steps
        if fixed:
            raise ConfigError(f"key 't_end': {self.t_end!r} is not a whole number "
                              f"of steps of dt = {dt!r}")
        steps = math.ceil(ratio)
        return self.t_end / steps, steps


def _tuple_of(item, size=None):
    def convert(text):
        values = tuple(item(p) for p in text.split())
        if size not in (None, len(values)):
            raise ValueError(f"expects {size} values, got {len(values)}")
        return values
    return convert


def _domain(text):
    nums = _tuple_of(float, 4)(text)
    return nums[:2], nums[2:]


# config keys are converted by their ExperimentConfig annotation, but for
# the grid (two counts) and the domain (four numbers, as two (lo, hi) pairs)
_CONVERTERS = {
    name: _tuple_of(get_args(tp)[0]) if get_origin(tp) is tuple else tp
    for name, tp in get_type_hints(ExperimentConfig).items()
}
_CONVERTERS.update(domain=_domain, grid=_tuple_of(int, 2))


def _one_of(*choices):
    return (lambda v: v in choices), f"one of {choices}"


_POSITIVE = (lambda v: 0.0 < v < math.inf, "finite and positive")
_COUNT = (lambda n: n >= 1, "at least 1")

# key -> (test, phrase naming it): the value of a set key must pass the
# test; a tuple key must hold one or more values and each must pass it
_RULES = {
    "experiment": _one_of(*EXPERIMENTS),
    "domain": (lambda lo_hi: 0.0 < lo_hi[1] - lo_hi[0] < math.inf,
               "two intervals (lo, hi), each of finite positive length"),
    "grid": (lambda n: n >= 2, "two counts, each at least 2"),
    "boundary": _one_of(PERIODIC, NEUMANN),
    "dt_policy": _one_of(*DT_POLICIES),
    "dt": _POSITIVE,
    "t_end": _POSITIVE,
    "beta": (math.isfinite, "finite"),
    "gamma": _POSITIVE,
    "kappa": (lambda v: 0.0 <= v < math.inf, "finite and nonnegative"),
    "lam": _one_of(1, -1),
    "cadence": _COUNT,
    "snapshot_format": _one_of("text", "binary"),
    "levels": (lambda n: n >= 2, "one or more counts, each at least 2"),
    "gammas": (lambda g: 0.0 < g < math.inf, "one or more values, each finite and positive"),
    "snapshot_times": (math.isfinite, "one or more times, each finite"),
    "steady_tol": _POSITIVE,
    "max_steps": _COUNT,
    "mode": _one_of("Q1", "Q0"),
    "seed_radius": _POSITIVE,
}


def _read_input(path, mode):
    """Contents of an input file; an unreadable one raises ConfigError."""
    try:
        with open(path, mode) as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read input file: {exc.strerror}") from None


def _unmet(config, resume, key):
    """The first (key, value) of the run that ``_READ_WHEN[key]`` does not
    allow, or None if the run reads ``key`` when it is one of its keys."""
    setting = dict(vars(config), resume=resume)
    for selector, wanted in _READ_WHEN.get(key, {}).items():
        if setting[selector] != wanted:
            return selector, setting[selector]
    return None


def keys_read(config, resume=None):
    """The config keys a run of ``config`` reads, resumed from the checkpoint
    ``resume`` if given; the parser accepts no other."""
    return {key for key in _COMMON_KEYS + _RUN_KEYS[config.experiment]
            if _unmet(config, resume, key) is None}


def _convert(key, conv, text, where):
    try:
        return conv(text)
    except ValueError as exc:
        raise ConfigError(f"{where}: key '{key}': {exc}") from None


def parse_config(path, overrides=(), resume=None) -> ExperimentConfig:
    """Parse a flat key-value config file, applying ``key=value`` overrides,
    for a run resumed from the checkpoint ``resume`` if given."""
    raw = {}  # key -> (value text, where it was set)
    for line_no, line in enumerate(_read_input(path, "r").split("\n"), 1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {text!r}")
        key, value = (part.strip() for part in text.split("=", 1))
        raw[key] = (value, f"line {line_no}")
    for ov in overrides:
        if "=" not in ov:
            raise ConfigError(f"override {ov!r} is not of the form key=value")
        key, value = (part.strip() for part in ov.split("=", 1))
        raw[key] = (value, f"override {ov!r}")
    return _build_config(raw, resume)


def _build_config(raw, resume):
    for key in ("experiment", "domain", "grid"):
        if key not in raw:
            raise ConfigError(f"missing required key '{key}'")
    for key, (_, where) in raw.items():
        if key not in _CONVERTERS:
            raise ConfigError(f"{where}: unknown key '{key}'")
    cfg = ExperimentConfig(**{key: _convert(key, _CONVERTERS[key], text, where)
                              for key, (text, where) in raw.items()})

    # the defaults pass every rule, so a key that fails one was set
    for key, (test, phrase) in _RULES.items():
        value = getattr(cfg, key)  # None: dt left to its policy
        values = value if isinstance(value, tuple) else () if value is None else (value,)
        if value == () or not all(map(test, values)):
            raise ConfigError(f"{raw[key][1]}: key '{key}': must be {phrase}, got {value!r}")
    read = keys_read(cfg, resume)
    for key, (_, where) in raw.items():
        if key not in read:
            setting = ""
            if key in _COMMON_KEYS + _RUN_KEYS[cfg.experiment]:  # read under another
                setting = " with %s = %s" % _unmet(cfg, resume, key)
            raise ConfigError(f"{where}: key '{key}' is not read by a "
                              f"{cfg.experiment} run{setting}")

    if cfg.experiment == "blowup" and not all(0 <= t <= cfg.t_end for t in cfg.snapshot_times):
        raise ConfigError(f"key 'snapshot_times': each must lie in [0, t_end = "
                          f"{cfg.t_end!r}], got {cfg.snapshot_times}")
    if cfg.experiment == "converge":  # its manufactured solution is 2*pi-periodic
        if cfg.boundary != PERIODIC:
            raise ConfigError(f"{raw['boundary'][1]}: key 'boundary': a converge run needs "
                              f"'{PERIODIC}', got {cfg.boundary!r}")
        turns = [(hi - lo) / (2 * math.pi) for lo, hi in cfg.domain]
        if not all(abs(t - round(t)) <= 1e-9 * t for t in turns):
            raise ConfigError(f"{raw['domain'][1]}: key 'domain': a converge run needs "
                              f"sides that are whole multiples of 2*pi, got {cfg.domain}")
    # the scheme's analysis assumes hx == hy on every grid the run builds
    grids = [(n, n) for n in cfg.levels] if cfg.experiment == "converge" else [cfg.grid]
    for counts in grids:
        try:
            cfg.make_grid(counts).require_uniform()
        except ValueError as exc:
            raise ConfigError(f"key 'domain': {exc} on the {counts} grid") from None
    return cfg


# ---------------------------------------------------------------------------
# CSV time series
# ---------------------------------------------------------------------------

def write_csv(rows, path, extra_columns=()):
    """Write StepReport-shaped rows under the fixed column schema."""
    columns = CSV_COLUMNS + list(extra_columns)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def report_row(report, extra=()):
    return [
        report.step_index,
        report.time,
        report.energy,
        report.min_intermediate_length,
        report.max_length_error,
        report.krylov_iters,
        report.residual,
    ] + list(extra)


# ---------------------------------------------------------------------------
# field snapshots
# ---------------------------------------------------------------------------

_SNAPSHOT_MAGIC = "llgsip-snapshot 1"


def write_snapshot(f: VectorField, path, time=0.0, step=0, binary=False):
    """Serialize a field with its grid header; text rows round-trip bit-exact."""
    grid = f.grid
    header = [
        f"# {_SNAPSHOT_MAGIC}",
        f"# dim {grid.dim}",
        "# counts " + " ".join(str(n) for n in grid.counts),
        "# spacing " + " ".join(repr(h) for h in grid.spacing),
        "# origin " + " ".join(repr(x) for x in grid.origin),
        f"# boundary {grid.boundary}",
        f"# time {time!r}",
        f"# step {step}",
        f"# body {'binary' if binary else 'text'}",
    ]
    if binary:
        with open(path, "wb") as fh:
            fh.write(("\n".join(header) + "\n").encode())
            fh.write(np.moveaxis(f.data, 0, -1).astype("<f8").tobytes())
        return
    # one row per node in C order: indices, coordinates, then the 3 values.
    # Each axis's labels are rendered once, the trailing axes' joined once per
    # node of a slab, and the rows go out one slab of the first axis at a time
    labels = [list(zip(map(str, range(n)), map(repr, c.tolist())))
              for n, c in zip(grid.counts, grid.axes_coordinates())]
    inner = [(" ".join(i for i, _ in node), " ".join(x for _, x in node))
             for node in itertools.product(*labels[1:])]
    slabs = np.moveaxis(f.data, 0, -1).reshape(grid.counts[0], -1, 3)
    with open(path, "w") as fh:
        fh.write("\n".join(header) + "\n")
        for (index, coord), slab in zip(labels[0], slabs):
            row = f"{index} %s {coord} %s %r %r %r\n"
            fh.writelines([row % (i, x, *v) for (i, x), v in zip(inner, slab.tolist())])


def read_snapshot(path):
    """Inverse of write_snapshot; returns (field, time, step).

    Anything but a complete snapshot of finite values raises ConfigError
    naming the file.
    """
    blob = _read_input(path, "rb")
    lines = []
    pos = 0
    while True:
        end = blob.find(b"\n", pos)
        if end < 0:
            raise ConfigError(f"{path}: snapshot header has no '# body' line")
        line = blob[pos:end].decode(errors="replace")
        pos = end + 1
        if not line.startswith("#"):
            raise ConfigError(f"{path}: malformed snapshot header line {line!r}")
        lines.append(line[1:].strip())
        if line.startswith("# body"):
            break
    header = {}
    if lines[0] != _SNAPSHOT_MAGIC:
        raise ConfigError(f"{path}: not a snapshot file")
    for line in lines[1:]:
        key, _, value = line.partition(" ")
        header[key] = value
    try:
        counts = tuple(int(n) for n in header["counts"].split())
        grid = GridSpec(
            counts=counts,
            spacing=tuple(float(h) for h in header["spacing"].split()),
            origin=tuple(float(x) for x in header["origin"].split()),
            boundary=header["boundary"],
        )
        time = float(header["time"])
        step = int(header["step"])
    except KeyError as exc:
        raise ConfigError(f"{path}: snapshot header lacks key {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"{path}: bad snapshot header: {exc}") from None
    if header["body"] == "binary":
        body = blob[pos:]
        expected = 8 * 3 * grid.num_nodes
        if len(body) != expected:
            raise ConfigError(
                f"{path}: binary snapshot body has {len(body)} bytes, expected {expected}"
            )
        rows = np.frombuffer(body, dtype="<f8")
    else:
        index, values = [], []
        for row in blob[pos:].decode().strip().splitlines():
            parts = row.split()
            try:
                if len(parts) != 2 * grid.dim + 3:
                    raise ValueError
                index.append([int(p) for p in parts[:grid.dim]])
                values.append([float(p) for p in parts[-3:]])
            except ValueError:
                raise ConfigError(f"{path}: malformed snapshot row {row!r}") from None
        if not np.array_equal(index, np.indices(counts).reshape(grid.dim, -1).T):
            raise ConfigError(f"{path}: snapshot body rows are not the {grid.num_nodes} "
                              "grid nodes in C order")
        rows = np.array(values)
    if not np.all(np.isfinite(rows)):
        raise ConfigError(f"{path}: snapshot body holds a non-finite value")
    return VectorField(grid, np.moveaxis(rows.reshape(counts + (3,)), -1, 0).copy()), time, step


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def params_hash(params):
    """Stable digest of the scheme constants, for resume validation; a
    forcing closure has none, so a forced run has no checkpoints."""
    if params.forcing is not None:
        raise ValueError("checkpoints of forced runs are not supported")
    text = f"{params.beta!r}|{params.gamma!r}|{params.dt!r}|{params.model!r}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def write_checkpoint(f: VectorField, path, time, step, params, snapshot=None):
    """Header at ``path``, state snapshot at ``path.state``.

    Both are written to temporary files beside them and then moved into
    place, state first, so a failed write leaves the previous checkpoint
    whole.  ``snapshot``, if given, is the path of a text snapshot of ``f``
    at this time and step, whose bytes the state copies instead of
    rendering ``f`` again.
    """
    path = str(path)
    state_tmp, header_tmp = path + ".state.tmp", path + ".tmp"
    header = f"# llgsip-checkpoint 1\n# params {params_hash(params)}\n"
    try:
        if snapshot is None:
            write_snapshot(f, state_tmp, time=time, step=step)
        else:
            shutil.copyfile(snapshot, state_tmp)
        with open(header_tmp, "w") as fh:
            fh.write(header)
        os.replace(state_tmp, path + ".state")
        os.replace(header_tmp, path)
    finally:
        for tmp in (state_tmp, header_tmp):
            if os.path.exists(tmp):
                os.remove(tmp)


def read_checkpoint(path, params=None):
    """Returns (field, time, step); validates the params hash when given."""
    lines = _read_input(path, "r").splitlines() + ["", ""]
    magic, params_line = lines[0].strip(), lines[1].strip()
    if magic != "# llgsip-checkpoint 1" or not params_line.startswith("# params "):
        raise ConfigError(f"{path}: not a checkpoint file")
    stored = params_line.split()[-1]
    if params is not None and stored != params_hash(params):
        raise ConfigError(
            f"{path}: checkpoint was written with different scheme parameters"
        )
    return read_snapshot(str(path) + ".state")
