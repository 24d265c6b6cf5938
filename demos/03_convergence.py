"""Manufactured-solution refinement study.

A closed-form forcing term is chosen so that a closed-form unit field
solves the forced equation exactly; refining the mesh (with the
time step tied to it) then reveals the order of accuracy directly.  With
dt <= h^2 both error norms fall at second order; with dt = 1/N at first.
Each level takes a whole number of equal steps to the horizon.

The full five-level study lives behind the ``llgsip converge`` subcommand;
this demo runs three levels of each so it finishes in a few seconds.
"""

import math

import numpy as np

from llgsip.diagnostics import ErrorAccumulator, ErrorRecord, attach_rates
from llgsip.exact import manufactured_solution
from llgsip.experiments import format_error_table
from llgsip.grid import GridSpec
from llgsip.stepper import SchemeParams, SolverConfig, run


def study(levels, steps_rule, t_end=1.0):
    exact = manufactured_solution(beta=1.0, gamma=1.0)
    cfg = SolverConfig(rel_tol=1e-12)
    records = []
    for n in levels:
        h = 2 * np.pi / n
        grid = GridSpec((n, n), (h, h))
        steps = steps_rule(n, h)
        dt = t_end / steps
        params = SchemeParams(beta=1.0, gamma=1.0, dt=dt, forcing=exact.forcing)
        m0 = exact.sample(grid, 0.0)
        acc = ErrorAccumulator(exact, grid, dt)
        acc.seed(m0, 0.0)
        run(m0, params, cfg, steps, callbacks=[acc])
        records.append(ErrorRecord(level=n, linf_l2=acc.max_l2, l2_h1=acc.l2_h1))
    return attach_rates(records)


def main():
    print("dt <= h^2 (expected rates: 2)")
    print(format_error_table(study((8, 16, 32), lambda n, h: math.ceil(1 / h**2))))
    print("\ndt = 1/N (expected rates: 1)")
    print(format_error_table(study((8, 16, 32), lambda n, h: n)))


if __name__ == "__main__":
    main()
