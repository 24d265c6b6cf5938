"""Span tracing of llgsip's public functions, from outside the package.

A ``Tracer`` replaces a function in the namespace its caller looks it up in
(``llgsip.stepper.array_laplacian``, not ``llgsip.grid.array_laplacian``)
with a wrapper that records one span per call: name, parent span, start and
end.  Spans stay in memory until the process writes them out at the end.
``layer_metrics`` turns them into the per-layer numbers of the benchmark.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

# (module attribute path, attribute, span name).  Each entry is the namespace
# a caller inside llgsip looks the function up in.
PATCHES = (
    ("cli", "parse_config", "io.parse_config"),
    ("experiments", "run", "stepper.run"),
    ("stepper", "step", "stepper.step"),
    ("stepper", "solve_intermediate", "stepper.solve_intermediate"),
    ("stepper", "normalize", "stepper.normalize"),
    ("stepper", "array_laplacian", "grid.array_laplacian"),
    ("stepper", "explicit_field_apply", "effective_field.explicit_field_apply"),
    ("stepper", "extended_energy", "effective_field.extended_energy"),
    # cmd_skyrmion imports extended_energy inside the function body
    ("effective_field", "extended_energy", "effective_field.extended_energy"),
    ("effective_field", "array_central_difference", "grid.array_central_difference"),
    ("diagnostics", "array_central_difference", "grid.array_central_difference"),
    ("effective_field", "grad_l2_norm", "grid.grad_l2_norm"),
    ("diagnostics", "grad_l2_norm", "grid.grad_l2_norm"),
    ("experiments", "skyrmion_number", "diagnostics.skyrmion_number"),
    ("diagnostics.ErrorAccumulator", "__call__", "diagnostics.ErrorAccumulator"),
    ("diagnostics.ErrorAccumulator", "seed", "diagnostics.ErrorAccumulator"),
    ("diagnostics.ExactSolution", "sample", "diagnostics.ExactSolution.sample"),
)

# Writers whose output size is counted (the path is their second argument):
# name -> suffixes of the files written besides the path itself.
WRITERS = {
    "write_snapshot": (),
    "write_checkpoint": (".state",),
    "write_csv": (),
}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, parent index or None, start, end]
        self.counters = defaultdict(int)
        self._stack = []
        self._undo = []
        self.missing = []  # patch points a refactored llgsip no longer has

    def wrap(self, fn, name, after=None):
        """``fn`` recording a span per call; ``after(args, result)`` runs
        inside the span once the call returned."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, self._stack[-1] if self._stack else None, self.clock(), None]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                self._stack.pop()
                span[3] = self.clock()

        return traced

    def patch(self, owner, attr, name, after=None):
        original = owner.__dict__.get(attr)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, after))

    def unpatch(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def install(self, llgsip):
        """Wrap the public functions of every llgsip module at their call sites."""
        for path, attr, name in PATCHES:
            owner = llgsip
            for part in path.split("."):
                owner = getattr(owner, part, None)
            if owner is None:
                self.missing.append(f"{path}.{attr}")
            else:
                self.patch(owner, attr, name)
        experiments = llgsip.experiments
        for attr, extra in WRITERS.items():
            self.patch(experiments, attr, f"io.{attr}", self._byte_counter(attr, extra))

        def wrap_forcing(args, exact):
            exact.forcing = self.wrap(exact.forcing, "exact.forcing")

        self.patch(experiments, "manufactured_solution", "exact.manufactured_solution",
                   wrap_forcing)
        stepper = llgsip.stepper
        original_gmres = stepper.gmres  # the solver must stay reachable here

        def counted_gmres(*args, callback=None, **kwargs):
            def count(arg):
                self.counters["stepper.krylov_iters"] += 1
                if callback is not None:
                    callback(arg)

            return original_gmres(*args, callback=count, **kwargs)

        self._undo.append((stepper, "gmres", original_gmres))
        stepper.gmres = counted_gmres

    def _byte_counter(self, attr, extra):
        def count(args, _result):
            path = str(args[1])
            for suffix in ("",) + extra:
                self.counters[f"io.{attr}.bytes"] += os.path.getsize(path + suffix)

        return count

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                     "start": start, "end": end}) + "\n")


def self_times(spans):
    """Per span: its duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for i, (_, parent, _, _) in enumerate(spans):
        if parent is not None:
            children[parent].append(i)
    out = []
    for i, (_, _, start, end) in enumerate(spans):
        covered = 0.0
        cursor = start
        for lo, hi in sorted((spans[c][2], spans[c][3]) for c in children[i]):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def span_totals(spans):
    """name -> (calls, busy seconds, self seconds)."""
    totals = defaultdict(lambda: [0, 0.0, 0.0])
    for (name, _, start, end), own in zip(spans, self_times(spans)):
        entry = totals[name]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += own
    return {name: tuple(v) for name, v in totals.items()}


def layer_metrics(tracer):
    """The per-layer metrics of one traced workload process."""
    spans = tracer.spans
    totals = span_totals(spans)

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def busy(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    solve = {i for i, s in enumerate(spans) if s[0] == "stepper.solve_intermediate"}
    # every matvec, the residual re-check included, applies the Laplacian once
    matvecs = sum(1 for s in spans if s[0] == "grid.array_laplacian" and s[1] in solve)
    iters = tracer.counters["stepper.krylov_iters"]
    steps = calls("stepper.step")
    m = {
        "stepper.krylov_iters.per_step": iters / steps if steps else 0.0,
        "stepper.krylov_iters.total": iters,
        "stepper.matvecs.total": matvecs,
        "stepper.iters_per_matvec": iters / matvecs if matvecs else 0.0,
        "stepper.solve_intermediate.busy_s": busy("stepper.solve_intermediate"),
        "stepper.solve_intermediate.self_s": own("stepper.solve_intermediate"),
        "stepper.step.busy_s": busy("stepper.step"),
        "stepper.normalize.busy_s": busy("stepper.normalize"),
    }
    for name in ("grid.array_laplacian", "grid.grad_l2_norm",
                 "effective_field.explicit_field_apply",
                 "effective_field.extended_energy", "diagnostics.skyrmion_number",
                 "diagnostics.ErrorAccumulator", "exact.forcing"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.busy_s"] = busy(name)
    for name in ("grid.array_central_difference", "diagnostics.ExactSolution.sample",
                 "exact.manufactured_solution", "io.parse_config"):
        m[f"{name}.busy_s"] = busy(name)
    for attr in WRITERS:
        name = f"io.{attr}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.busy_s"] = busy(name)
        m[f"{name}.bytes"] = tracer.counters[f"{name}.bytes"]
    return m
