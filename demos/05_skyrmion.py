"""Relaxing a topological seed to a static skyrmion.

Under the extended model (easy-axis anisotropy plus a chiral interfacial
term) a hedgehog-like seed with m3 = -1 at the core relaxes to a steady
axisymmetric texture carrying topological charge Q = +1.  The charge is
tracked along the flow with a lattice integral of m . (D2 m x D1 m).

This demo runs a small 64^2 box so it finishes in well under a minute; the
production 256^2 run is ``llgsip skyrmion --config configs/skyrmion_q1.cfg``.
"""

import numpy as np

from llgsip.diagnostics import skyrmion_number
from llgsip.effective_field import FieldModel, extended_energy
from llgsip.exact import skyrmion_initial
from llgsip.grid import GridSpec, VectorField
from llgsip.stepper import SchemeParams, SolverConfig, run


def main():
    n, h = 64, 0.4
    side = (n - 1) * h
    grid = GridSpec((n, n), (h, h), boundary="neumann")
    center = (side / 2, side / 2)
    m0 = VectorField.from_function(
        grid, lambda X, Y: skyrmion_initial(X, Y, center=center, radius=3.0)
    )
    model = FieldModel.extended(kappa=3.0, lam=1)
    params = SchemeParams(beta=0.0, gamma=1.0, dt=0.05, model=model)

    print(f"seed: Q = {skyrmion_number(m0):.4f}, "
          f"E = {extended_energy(m0, model):.4f}")

    history = []

    def track(report, m_prev, m_tilde, m_new):
        if report.step_index % 50 == 0:
            history.append((report.time, report.energy, skyrmion_number(m_new)))

    res = run(m0, params, SolverConfig(), 20000, callbacks=[track], steady_tol=1e-6)
    for t, e, q in history[:: max(1, len(history) // 8)]:
        print(f"  t = {t:8.2f}: E = {e:9.4f}, Q = {q:.4f}")
    print(f"steady = {res.steady} after {res.step} steps; "
          f"final Q = {skyrmion_number(res.state):.4f}")
    print("(the coarse h = 0.4 lattice underestimates Q; the production "
          "h = 0.1 grid gives about 0.97)")


if __name__ == "__main__":
    main()
