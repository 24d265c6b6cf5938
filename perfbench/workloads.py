"""The benchmark's workloads: seeded run configs and what each run must show.

Each workload is one shipped experiment with its config written out in full
here, so that a later change to ``configs/`` cannot change the benchmark
silently.  Seed 0 gives the shipped problem; any other seed applies a small
perturbation that keeps the problem equivalent (a sub-cell shift of the
domain, or a slightly wider skyrmion seed), so a claim can be re-checked on
inputs it was not tuned on.  The ``tiny`` size keeps every mechanism and
check but shrinks the grids, for the benchmark's own tests.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

SIZES = ("full", "tiny")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    forced: bool  # manufactured forcing: |m~| >= 1 and energy decay do not apply
    energy_tol: float = None  # the experiment's own per-step energy-rise tolerance


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "bubble",
            "Krylov-bound 65^2 Neumann bubble: GMRES and the np.pad Laplacian do "
            "almost all the work, so solver and matvec changes show here first",
            forced=False,
            energy_tol=1e-8,
        ),
        Workload(
            "skyrmion",
            "128^2 Neumann DMI relaxation with few iterations per step: the "
            "explicit field, charge and snapshot writes weigh more, so per-step "
            "solver overhead shows as a loss",
            forced=False,
            energy_tol=1e-6,
        ),
        Workload(
            "manufactured",
            "only periodic workload (np.roll Laplacian) with forcing and error "
            "accumulation; its set-up is the sympy derivation, so a Neumann-only "
            "change should leave it unchanged",
            forced=True,
        ),
    )
}


def _fmt(value):
    if isinstance(value, (tuple, list)):
        return " ".join(_fmt(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def render(keys):
    """Config file text for an ordered mapping of config keys."""
    return "".join(f"{k} = {_fmt(v)}\n" for k, v in keys.items())


def _shift(rng, h):
    """Sub-cell shift of up to a quarter cell; zero for the canonical seed."""
    return 0.0 if rng is None else rng.uniform(-0.25, 0.25) * h


def _bubble(rng, tiny):
    # blowup_smoke.cfg run to a whole-step horizon, snapshots at 0, mid and end
    n, steps, dt = (17, 100, 1e-3) if tiny else (65, 25, 1e-3)
    h = 1.0 / (n - 1)
    dx, dy = _shift(rng, h), _shift(rng, h)
    return {
        "experiment": "blowup",
        "domain": (-0.5 + dx, 0.5 + dx, -0.5 + dy, 0.5 + dy),
        "grid": (n, n),
        "boundary": "neumann",
        "dt_policy": "fixed",
        "dt": dt,
        "t_end": steps * dt,
        "beta": 1.0,
        "gamma": 1.0,
        "snapshot_times": (0.0, (steps // 2) * dt, steps * dt),
    }


def _skyrmion(rng, tiny):
    # skyrmion_q1_smoke.cfg with a step budget far below steady state
    n, extent, steps = (64, 12.6, 100) if tiny else (128, 25.4, 40)
    radius = 3.0 if rng is None else 3.0 * (1.0 + rng.uniform(-0.02, 0.02))
    return {
        "experiment": "skyrmion",
        "domain": (0.0, extent, 0.0, extent),
        "grid": (n, n),
        "boundary": "neumann",
        "dt_policy": "fixed",
        "dt": 0.05,
        "beta": 0.0,
        "gamma": 1.0,
        "kappa": 3.0,
        "lam": 1,
        "steady_tol": 1e-6,
        "cadence": 20,
        "max_steps": steps,
        "mode": "Q1",
        "seed_radius": radius,
    }


def _manufactured(rng, tiny):
    # converge_table2.cfg: dt = 1/N on the periodic 2*pi box
    levels = (8, 16, 32, 64) if tiny else (8, 16, 32, 64, 128)
    side = 2.0 * math.pi
    d = _shift(rng, side / levels[-1])
    return {
        "experiment": "converge",
        "domain": (d, side + d, d, side + d),
        "grid": (8, 8),
        "boundary": "periodic",
        "dt_policy": "h_linear",
        "levels": levels,
        "t_end": 1.0,
        "beta": 1.0,
        "gamma": 1.0,
    }


_CONFIGS = {"bubble": _bubble, "skyrmion": _skyrmion, "manufactured": _manufactured}


def make_config(name, seed, size="full"):
    """Config keys for one workload and seed (seed 0 is the shipped problem)."""
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}, expected one of {SIZES}")
    rng = None if seed == 0 else random.Random(f"{name}:{seed}")
    return _CONFIGS[name](rng, size == "tiny")


def horizons(keys):
    """(steps, t_end) of every ``run`` call the experiment makes, in order."""
    if keys["experiment"] == "converge":
        # h_linear: dt = 1/N, so a unit horizon is N whole steps
        return [(n, keys["t_end"]) for n in keys["levels"]]
    if keys["experiment"] == "skyrmion":
        return [(keys["max_steps"], keys["max_steps"] * keys["dt"])]
    return [(round(keys["t_end"] / keys["dt"]), keys["t_end"])]


def snapshot_steps(keys):
    """(steps whose state a snapshot file holds, number of snapshot files)."""
    if keys["experiment"] == "blowup":
        steps = sorted({round(t / keys["dt"]) for t in keys["snapshot_times"]})
        return steps, len(steps)
    if keys["experiment"] == "skyrmion":
        return [keys["max_steps"]], 2  # relaxed snapshot and checkpoint
    return [], 0
