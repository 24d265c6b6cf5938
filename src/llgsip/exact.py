"""Reference solutions and initial data for the built-in experiments."""

from __future__ import annotations

import numpy as np

from .diagnostics import ExactSolution


def _manufactured_m(x, y, t):
    return np.sin(t + x) * np.cos(t + y), np.cos(t + x) * np.cos(t + y), np.sin(t + y)


def manufactured_solution(beta=1.0, gamma=1.0) -> ExactSolution:
    """The convergence-benchmark solution on [0, 2pi]^2 with its forcing.

    m_e = (sin(t+x)cos(t+y), cos(t+x)cos(t+y), sin(t+y)) is pointwise unit
    length; the compensating force is the residual
        f = m_t + beta m x lap m + gamma m x (m x lap m),
    evaluated with the continuum Laplacian.  Since lap m_e = -2 m + m3 e3
    and |m_e| = 1, this is
        f = m_t + beta m3 (m2, -m1, 0) + gamma (m3^2 m - m3 e3).
    It is written from the per-axis factors sx, cx = sin, cos(t+x) and
    sy, cy = sin, cos(t+y):
        f = (cx a + sx b, cx b - sx a, cy - gamma sy cy^2),
        a = cy + beta sy cy,  b = gamma sy^2 cy - sy,
    so that on the broadcastable coordinates of ``VectorField.from_function``
    it takes 1-D sines and cosines and two outer products per component.
    The term order is fixed: the refinement tables and Krylov iteration
    counts rest on these bits.
    """

    def forcing(x, y, t):
        sx, cx = np.sin(t + x), np.cos(t + x)
        sy, cy = np.sin(t + y), np.cos(t + y)
        a = cy + beta * sy * cy
        b = gamma * sy ** 2 * cy - sy
        return cx * a + sx * b, cx * b - sx * a, cy - gamma * sy * cy ** 2

    return ExactSolution(m=_manufactured_m, forcing=forcing)


def dissipation_initial(x, y):
    """Smooth unit-length initial data for the energy-dissipation run."""
    planar = np.cos(x) * np.cos(y)
    mx = planar * np.sin(0.1)
    my = planar * np.cos(0.1)
    mz = np.sqrt(np.clip(1.0 - planar ** 2, 0.0, None))
    return mx, my, mz


def blowup_initial(x, y):
    """Bubble-type data on [-1/2, 1/2]^2 that develops a near-singularity.

    m = ((2 x A, 2 y A, A^2 - r^2)) / (A^2 + r^2) with A = (1 - 2r)^4 inside
    the unit disk of radius 1/2, and (0, 0, -1) outside.
    """
    r = np.sqrt(x ** 2 + y ** 2)
    a = (1.0 - 2.0 * r) ** 4
    denom = a ** 2 + r ** 2
    inside = r <= 0.5
    # denom vanishes only at r = 1/2 where a = 0; guard the masked-out region
    safe = np.where(inside & (denom > 0), denom, 1.0)
    mx = np.where(inside & (denom > 0), 2.0 * x * a / safe, 0.0)
    my = np.where(inside & (denom > 0), 2.0 * y * a / safe, 0.0)
    mz = np.where(inside & (denom > 0), (a ** 2 - r ** 2) / safe, -1.0)
    return mx, my, mz


def skyrmion_initial(x, y, center, radius=3.0):
    """Axisymmetric unit-charge seed: m3 goes from -1 at the center to +1.

    Polar angle profile Theta(rho) = pi * exp(-rho/radius) with in-plane
    phase Phi = phi + pi/2, the chirality favoured by a positive DMI sign.
    """
    dx = x - center[0]
    dy = y - center[1]
    rho = np.sqrt(dx ** 2 + dy ** 2)
    phi = np.arctan2(dy, dx)
    theta = np.pi * np.exp(-rho / radius)
    st = np.sin(theta)
    mx = st * np.cos(phi + np.pi / 2.0)
    my = st * np.sin(phi + np.pi / 2.0)
    mz = np.cos(theta)
    return mx, my, mz


def charge_zero_transform(n_data):
    """Map a relaxed unit-charge state n to a charge-zero trial state.

    m = (2 n3 n1, 2 n3 n2, 2 n3^2 - 1); algebraically unit-length whenever
    |n| = 1.
    """
    n1, n2, n3 = n_data
    return np.stack([2 * n3 * n1, 2 * n3 * n2, 2 * n3 ** 2 - 1.0])
