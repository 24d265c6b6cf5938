"""Run-description parsing and output plumbing.

Config files are flat ``key = value`` text with a typed schema; snapshots
are plain text (one node per line, shortest round-trip decimals) with an
optional little-endian float64 binary body; CSV time series share a single
column schema across all experiments.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
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
    """Malformed configuration; message carries key and line context."""


EXPERIMENTS = ("converge", "dissipate", "blowup", "skyrmion")
DT_POLICIES = ("fixed", "h_squared", "h_linear")

# the values each enumerated config key accepts
_CHOICES = {
    "boundary": (PERIODIC, NEUMANN),
    "dt_policy": DT_POLICIES,
    "snapshot_format": ("text", "binary"),
    "mode": ("Q1", "Q0"),
    "lam": (1, -1),
}


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
    rel_tol: float = 1e-12
    max_iter: int = 500
    restart: int = 30
    levels: tuple[int, ...] = None  # converge only
    gammas: tuple[float, ...] = None  # dissipate only
    snapshot_times: tuple[float, ...] = (0.0, 0.06, 0.15, 0.30, 0.32, 0.35)  # blowup
    steady_tol: float = 1e-6  # skyrmion
    max_steps: int = 200000  # skyrmion step budget
    mode: str = "Q1"  # skyrmion: Q1 | Q0
    input_state: str = None  # skyrmion Q0: relaxed Q1 snapshot
    seed_radius: float = 3.0  # skyrmion initial profile width

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
        if self.dt_policy == "fixed" and self.dt is None:
            raise ConfigError("dt policy 'fixed' requires key 'dt'")
        dt = {"fixed": self.dt, "h_squared": grid.spacing[0] ** 2,
              "h_linear": 1.0 / grid.counts[0]}[self.dt_policy]
        if self.experiment == "skyrmion":
            return dt, self.max_steps
        ratio = self.t_end / dt
        steps = round(ratio)
        if steps >= 1 and abs(ratio - steps) <= 1e-9 * ratio:
            return dt if self.dt_policy == "fixed" else self.t_end / steps, steps
        if self.dt_policy == "fixed":
            raise ConfigError(f"key 't_end': {self.t_end!r} is not a whole number "
                              f"of steps of dt = {dt!r}")
        steps = math.ceil(ratio)
        return self.t_end / steps, steps


def _tuple_of(item):
    return lambda text: tuple(item(p) for p in text.split())


# optional config keys are converted by their ExperimentConfig annotation;
# the required experiment, domain and grid keys have their own checks
_CONVERTERS = {
    name: _tuple_of(get_args(tp)[0]) if get_origin(tp) is tuple else tp
    for name, tp in get_type_hints(ExperimentConfig).items()
    if name not in ("experiment", "domain", "grid")
}


def _read_input(path, mode):
    """Contents of an input file; an unreadable one raises ConfigError."""
    try:
        with open(path, mode) as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read input file: {exc.strerror}") from None


def _convert(key, conv, text, line_no):
    try:
        return conv(text)
    except ValueError as exc:
        raise ConfigError(f"line {line_no}: key '{key}': {exc}") from None


def parse_config(path, overrides=()) -> ExperimentConfig:
    """Parse a flat key-value config file, applying ``key=value`` overrides."""
    raw = {}
    for line_no, line in enumerate(_read_input(path, "r").split("\n"), 1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {text!r}")
        key, value = (part.strip() for part in text.split("=", 1))
        raw[key] = (value, line_no)
    for ov in overrides:
        if "=" not in ov:
            raise ConfigError(f"override {ov!r} is not of the form key=value")
        key, value = (part.strip() for part in ov.split("=", 1))
        raw[key] = (value, 0)
    return _build_config(raw)


def _build_config(raw):
    def take(key):
        if key not in raw:
            raise ConfigError(f"missing required key '{key}'")
        return raw.pop(key)

    experiment, ln = take("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"line {ln}: unknown experiment {experiment!r}, "
            f"expected one of {EXPERIMENTS}"
        )

    dom_text, ln = take("domain")
    nums = _convert("domain", _tuple_of(float), dom_text, ln)
    if len(nums) != 4:
        raise ConfigError(f"line {ln}: key 'domain' expects 4 numbers, got {len(nums)}")
    domain = ((nums[0], nums[1]), (nums[2], nums[3]))
    for lo, hi in domain:
        if hi <= lo:
            raise ConfigError(f"line {ln}: domain extent must be positive")

    grid_text, ln = take("grid")
    counts = _convert("grid", _tuple_of(int), grid_text, ln)
    if len(counts) != 2 or any(n < 2 for n in counts):
        raise ConfigError(f"line {ln}: key 'grid' expects two counts >= 2")

    cfg = ExperimentConfig(experiment=experiment, domain=domain, grid=counts)

    for key, conv in _CONVERTERS.items():
        if key in raw:
            setattr(cfg, key, _convert(key, conv, *raw.pop(key)))
    if raw:
        key, (_, ln) = next(iter(raw.items()))
        raise ConfigError(f"line {ln}: unknown key '{key}'")

    for key, choices in _CHOICES.items():
        value = getattr(cfg, key)
        if value not in choices:
            raise ConfigError(
                f"key '{key}': unknown value {value!r}, expected one of {choices}"
            )
    for key in ("gamma", "gammas"):
        value = getattr(cfg, key)
        if value is not None and not np.min(value, initial=np.inf) > 0:
            raise ConfigError(f"key '{key}': damping must be positive, got {value}")
    if not cfg.kappa >= 0:
        raise ConfigError(
            f"key 'kappa': anisotropy must be nonnegative, got {cfg.kappa}"
        )
    for key in ("restart", "max_iter", "cadence", "max_steps"):
        if getattr(cfg, key) < 1:
            raise ConfigError(f"key '{key}': must be at least 1, got {getattr(cfg, key)}")
    if not 0.0 < cfg.t_end < np.inf:
        raise ConfigError(f"key 't_end': must be finite and positive, got {cfg.t_end}")
    if cfg.experiment == "blowup" and not all(0 <= t <= cfg.t_end for t in cfg.snapshot_times):
        raise ConfigError(f"key 'snapshot_times': each must lie in [0, t_end = "
                          f"{cfg.t_end!r}], got {cfg.snapshot_times}")
    if not cfg.steady_tol > 0:
        raise ConfigError(f"key 'steady_tol': must be positive, got {cfg.steady_tol}")
    if not 0.0 < cfg.rel_tol < 1.0:
        raise ConfigError(f"key 'rel_tol': must lie in (0, 1), got {cfg.rel_tol}")
    if cfg.dt_policy == "fixed" and cfg.dt is not None and not cfg.dt > 0:
        raise ConfigError(f"key 'dt': time step must be positive, got {cfg.dt}")
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
            fh.write(np.ascontiguousarray(f.data, dtype="<f8").tobytes())
        return
    # one row per node in C order: indices, coordinates, then the 3 values;
    # 256 rows at a time, as Python lists of a whole grid take megabytes
    coords = [c.ravel() for c in grid.meshgrid()]
    values = f.data.reshape(-1, 3)
    with open(path, "w") as fh:
        fh.write("\n".join(header) + "\n")
        for lo in range(0, grid.num_nodes, 256):
            hi = min(lo + 256, grid.num_nodes)
            index = np.column_stack(np.unravel_index(np.arange(lo, hi), grid.counts)).tolist()
            table = np.column_stack([c[lo:hi] for c in coords] + [values[lo:hi]]).tolist()
            fh.writelines(" ".join(map(str, i)) + " " + " ".join(map(repr, x)) + "\n"
                          for i, x in zip(index, table))


def read_snapshot(path):
    """Inverse of write_snapshot; returns (field, time, step).

    Anything but a complete snapshot raises ConfigError naming the file.
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
        data = np.frombuffer(body, dtype="<f8").reshape(counts + (3,))
        return VectorField(grid, data.copy()), time, step
    body = blob[pos:].decode().strip().splitlines()
    index, values = [], []
    for row in body:
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
    return VectorField(grid, np.array(values).reshape(counts + (3,))), time, step


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


def write_checkpoint(f: VectorField, path, time, step, params):
    """Header at ``path``, state snapshot at ``path.state``.

    Both are written to temporary files beside them and then moved into
    place, state first, so a failed write leaves the previous checkpoint
    whole.
    """
    path = str(path)
    state_tmp, header_tmp = path + ".state.tmp", path + ".tmp"
    header = f"# llgsip-checkpoint 1\n# params {params_hash(params)}\n"
    try:
        write_snapshot(f, state_tmp, time=time, step=step)
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
