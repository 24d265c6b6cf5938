"""Unconditional energy decay of the semi-implicit projection scheme.

Runs the same smooth initial data with damping parameters spanning two
decades and with time steps far beyond any explicit-scheme stability limit,
and verifies that the discrete exchange energy never increases between
steps.  No step-size restriction is needed -- that is the point.
"""

import numpy as np

from llgsip.exact import dissipation_initial
from llgsip.effective_field import exchange_energy
from llgsip.grid import GridSpec, VectorField
from llgsip.stepper import SchemeParams, SolverConfig, run


def sweep(n=32, dt=0.05, steps=40, gammas=(0.1, 0.5, 1.0, 10.0)):
    h = 2 * np.pi / n
    grid = GridSpec((n, n), (h, h))
    m0 = VectorField.from_function(grid, dissipation_initial)
    cfg = SolverConfig(rel_tol=1e-12)
    print(f"grid {n}x{n}, dt = {dt}, horizon {steps * dt}; E(0) = "
          f"{exchange_energy(m0):.6f}")
    for gamma in gammas:
        params = SchemeParams(beta=1.0, gamma=gamma, dt=dt)
        energies = [exchange_energy(m0)]
        run(m0, params, cfg, steps,
            callbacks=[lambda rep, *_: energies.append(rep.energy)])
        rises = sum(1 for a, b in zip(energies, energies[1:]) if b > a + 1e-10)
        print(f"  gamma = {gamma:5.1f}: E -> {energies[-1]:.6f} after "
              f"{len(energies) - 1} steps, {rises} increases")


def main():
    sweep()
    # a deliberately brutal step size: one unit of time per step
    print("\nstress test with dt = 1.0:")
    sweep(dt=1.0, steps=20, gammas=(1.0,))


if __name__ == "__main__":
    main()
