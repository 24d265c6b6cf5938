"""llgsip benchmark: time to solution of the shipped experiments, from outside.

    python3 perfbench/run.py --workload bubble --seed 0 --seconds 35 --trace 0

Runs one workload (or ``all``) from the root of a checkout.  The workload's
config is generated from ``--seed``; each sample is a fresh single-threaded
process (``child.py``) that drives ``llgsip.cli.main``.  Processes run one
after another while the next is expected to end within ``--seconds`` (and
until 100 steps were timed); then, if fewer than three processes measured
set-up, set-up-only processes make up the difference.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` processes alternate between untraced
and traced, and it carries the per-layer metrics and the tracing overhead.
Every output is checked; ``correct`` is false and the exit status 1 when any
check failed.  The lines before it print every metric with its unit, the run
environment and the sample counts; ``perfbench/.work/`` keeps the full record
and, for traced runs, the spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time

from stats import median, timing_summary
from workloads import SIZES, WORKLOADS, horizons, make_config, render, snapshot_steps

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MIN_SETUPS = 3
MIN_STEPS = 100
DEADLINE_S = 170.0  # a whole run, all processes included

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "step_s_p50": ("s", "lower"),
    "step_s_p90": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
PER_LAYER = {
    "stepper.krylov_iters.per_step": ("count", "lower"),
    "stepper.krylov_iters.total": ("count", "lower"),
    "stepper.matvecs.total": ("count", "lower"),
    "stepper.iters_per_matvec": ("ratio", "higher"),
    "stepper.solve_intermediate.busy_s": ("s", "lower"),
    "stepper.solve_intermediate.self_s": ("s", "lower"),
    "stepper.step.busy_s": ("s", "lower"),
    "stepper.normalize.busy_s": ("s", "lower"),
    "grid.array_laplacian.calls": ("count", "lower"),
    "grid.array_laplacian.busy_s": ("s", "lower"),
    "grid.array_central_difference.busy_s": ("s", "lower"),
    "grid.grad_l2_norm.calls": ("count", "lower"),
    "grid.grad_l2_norm.busy_s": ("s", "lower"),
    "effective_field.explicit_field_apply.calls": ("count", "lower"),
    "effective_field.explicit_field_apply.busy_s": ("s", "lower"),
    "effective_field.extended_energy.calls": ("count", "lower"),
    "effective_field.extended_energy.busy_s": ("s", "lower"),
    "diagnostics.skyrmion_number.calls": ("count", "lower"),
    "diagnostics.skyrmion_number.busy_s": ("s", "lower"),
    "diagnostics.ErrorAccumulator.calls": ("count", "lower"),
    "diagnostics.ErrorAccumulator.busy_s": ("s", "lower"),
    "diagnostics.ExactSolution.sample.busy_s": ("s", "lower"),
    "exact.manufactured_solution.busy_s": ("s", "lower"),
    "exact.forcing.calls": ("count", "lower"),
    "exact.forcing.busy_s": ("s", "lower"),
    "io.parse_config.busy_s": ("s", "lower"),
    "io.write_snapshot.calls": ("count", "lower"),
    "io.write_snapshot.busy_s": ("s", "lower"),
    "io.write_snapshot.bytes": ("B", "lower"),
    "io.write_checkpoint.calls": ("count", "lower"),
    "io.write_checkpoint.busy_s": ("s", "lower"),
    "io.write_checkpoint.bytes": ("B", "lower"),
    "io.write_csv.calls": ("count", "lower"),
    "io.write_csv.busy_s": ("s", "lower"),
    "io.write_csv.bytes": ("B", "lower"),
    "setup.import_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


class WorkloadRun:
    """The processes of one workload run, and their results."""

    def __init__(self, workload, seed, size, trace, deadline):
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.trace = trace
        self.deadline = deadline
        self.work = os.path.join(HERE, ".work", f"{workload}-{size}-seed{seed}-trace{int(trace)}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.keys = make_config(workload, seed, size)
        self.config = os.path.join(self.work, "run.cfg")
        with open(self.config, "w") as fh:
            fh.write(render(self.keys))
        self.horizons = horizons(self.keys)
        self.children = []
        self.problems = []
        self.samples = {}

    def _spec(self, index, mode):
        keys = self.keys
        keep, expect = snapshot_steps(keys)
        tag = f"{index:02d}-{mode}"
        return {
            "src": os.path.join(ROOT, "src"),
            "config": self.config,
            "out": os.path.join(self.work, f"out-{tag}"),
            "result": os.path.join(self.work, f"child-{tag}.json"),
            "spans": os.path.join(self.work, f"spans-{tag}.jsonl"),
            "experiment": keys["experiment"],
            "mode": mode,
            "horizons": self.horizons,
            "forced": self.workload.forced,
            "energy_tol": self.workload.energy_tol,
            "keep_steps": keep,
            "expect_files": expect,
        }

    def spawn(self, mode):
        index = len(self.children)
        spec = self._spec(index, mode)
        spec_path = os.path.join(self.work, f"spec-{index:02d}.json")
        env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
        log_path = os.path.join(self.work, f"log-{index:02d}-{mode}.txt")
        timeout = max(self.deadline - time.monotonic(), 1.0)
        spec["t_spawn"] = time.monotonic()
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        with open(log_path, "w") as log:
            try:
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "child.py"), spec_path],
                    cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
                    timeout=timeout,
                )
                status = proc.returncode
            except subprocess.TimeoutExpired:
                status = "timeout"
        elapsed = time.monotonic() - spec["t_spawn"]
        result = None
        if status == 0:
            with open(spec["result"]) as fh:
                result = json.load(fh)
        if result is None:
            with open(log_path) as fh:
                tail = fh.read()[-2000:]
            self.problems.append(f"{mode} process {index} ended with status {status}")
            print(tail, file=sys.stderr)
        else:
            self.problems += [f"{mode} process {index}: {p}" for p in result.get("problems", [])]
        shutil.rmtree(spec["out"], ignore_errors=True)
        self.children.append((mode, result, spec))
        return result is not None, elapsed

    def measure(self, seconds):
        """Start processes while the next is expected to end within ``seconds``,
        and until each mode ran and p90 has MIN_STEPS untraced steps."""
        start = time.monotonic()
        modes = ("plain", "traced") if self.trace else ("plain",)
        durations = []
        while True:
            ok, elapsed = self.spawn(modes[len(self.children) % len(modes)])
            if not ok:
                return
            durations.append(elapsed)
            now = time.monotonic()
            steps = sum(map(len, self.results("step_s", ("plain",))))
            needed = len(self.children) < len(modes) or (not self.trace and steps < MIN_STEPS)
            fits = now - start + sum(durations) / len(durations) <= seconds
            if not (needed or fits) or now + elapsed > self.deadline:
                break
        while not self.trace and len(self.results("setup_s")) < MIN_SETUPS:
            ok, _ = self.spawn("setup")
            if not ok:
                return

    def results(self, key, modes=("plain", "traced", "setup")):
        return [r[key] for m, r, _ in self.children
                if r is not None and m in modes and r.get(key) is not None]

    def attempted_failed(self):
        """Steps attempted and failed; a process without a result failed them all."""
        planned = sum(steps for steps, _ in self.horizons)
        counts = [(r["attempted"], r["failed"]) if r else (planned, planned)
                  for m, r, _ in self.children if m != "setup"] or [(planned, planned)]
        return sum(a for a, _ in counts), sum(f for _, f in counts)

    def metrics(self):
        """Metric name -> value, or raise ValueError if they cannot be formed."""
        if not self.trace:
            steps = [s for run in self.results("step_s", ("plain",)) for s in run]
            summary = timing_summary(steps)
            self.samples = {"processes": len(self.results("run_s", ("plain",))),
                            "setups": len(self.results("setup_s")),
                            "steps": summary["n"],
                            "highest_percentile": summary["tail_pct"]}
            return {
                "setup_s": median(self.results("setup_s")),
                "run_s": median(self.results("run_s", ("plain",))),
                "step_s_p50": summary["p50"],
                "step_s_p90": summary["p90"],
                "peak_rss_mb": median(self.results("peak_rss_mb", ("plain",))),
            }
        layers = self.results("layer", ("traced",))
        out = {name: median([layer[name] for layer in layers])
               for name in PER_LAYER if name not in ("setup.import_s", "trace.overhead_s")}
        out["setup.import_s"] = median(self.results("import_s"))
        out["trace.overhead_s"] = (median(self.results("run_s", ("traced",)))
                                   - median(self.results("run_s", ("plain",))))
        self.samples = {"plain": len(self.results("run_s", ("plain",))),
                        "traced": len(layers)}
        return out


def environment(runs, seed):
    versions = next((r["versions"] for s in runs for _, r, _ in s.children if r), {})
    threads = next((r["threads"] for s in runs for _, r, _ in s.children if r), {})
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        **versions,
        "threads": threads,
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "cpu": cpu_model(),
        "commit": git_commit(),
        "seed": seed,
    }


def run_workloads(names, seed, seconds, trace, size):
    table = END_TO_END if not trace else PER_LAYER
    runs, metrics, problems = [], {}, []
    attempted = failed = 0
    start = time.monotonic()
    for name in names:
        run = WorkloadRun(name, seed, size, trace, start + DEADLINE_S * (len(runs) + 1))
        runs.append(run)
        run.measure(seconds)
        try:
            values = run.metrics()
        except (ValueError, KeyError) as exc:
            run.problems.append(f"metrics could not be formed: {exc}")
            values = {}
        a, f = run.attempted_failed()
        attempted += a
        failed += f
        problems += [f"{name}: {p}" for p in run.problems]
        prefix = f"{name}." if len(names) > 1 else ""
        for key, value in values.items():
            metrics[prefix + key] = {"value": value, "unit": table[key][0]}
            print(f"{name:13s} {key:46s} {value!r:>24} {table[key][0]:5s} "
                  f"({table[key][1]} is better)")
        print(f"{name:13s} steps_failed {f} / steps_attempted {a}; "
              f"samples {json.dumps(run.samples)}")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    env = environment(runs, seed)
    print("env " + json.dumps(env))
    correct = not problems and all(len(s.children) for s in runs)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = dict(result, env=env, problems=problems,
                  workloads=names, seconds=seconds, trace=int(trace), size=size,
                  samples={s.workload.name: s.samples for s in runs},
                  children={s.workload.name: [r for _, r, _ in s.children] for s in runs})
    name = "all" if len(names) > 1 else names[0]
    with open(os.path.join(HERE, ".work", f"result-{name}-{size}-seed{seed}-trace{int(trace)}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="'tiny' shrinks every grid, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "llgsip", "__init__.py")):
        print(f"error: no llgsip sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    return run_workloads(names, args.seed, args.seconds, bool(args.trace), args.size)


if __name__ == "__main__":
    sys.exit(main())
