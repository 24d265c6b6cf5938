"""The closed-form manufactured solution and its forcing."""

import os
import subprocess
import sys

import numpy as np
import pytest

import llgsip
from llgsip.exact import manufactured_solution

# Centered differences with step d: the Laplacian errs by about d^2/6 and the
# time derivative by about 4 d^2/6, so with d = 1e-3 the residual of the true
# forcing stays near 1e-6 for |beta|, gamma <= 3, far below the O(1) residual
# of a wrong term.
STEP = 1e-3
TOL = 1e-5


def as_array(comps):
    return np.stack(np.broadcast_arrays(*comps), axis=-1)


@pytest.mark.parametrize("beta, gamma", [(1.0, 1.0), (0.0, 0.1), (2.5, 0.7), (-1.0, 3.0)])
def test_forcing_is_the_residual_of_the_solution(rng, beta, gamma):
    exact = manufactured_solution(beta, gamma)
    x, y = rng.uniform(0.0, 2 * np.pi, (2, 200))
    t = rng.uniform(0.0, 1.0, 200)

    def m(dx=0.0, dy=0.0, dt=0.0):
        return as_array(exact.m(x + dx, y + dy, t + dt))

    m0 = m()
    assert np.max(np.abs(np.linalg.norm(m0, axis=-1) - 1.0)) <= 1e-15
    d = STEP
    lap = (m(dx=d) + m(dx=-d) + m(dy=d) + m(dy=-d) - 4.0 * m0) / d ** 2
    m_t = (m(dt=d) - m(dt=-d)) / (2 * d)
    c = np.cross(m0, lap)
    residual = m_t + beta * c + gamma * np.cross(m0, c)
    assert np.max(np.abs(as_array(exact.forcing(x, y, t)) - residual)) <= TOL


def product_to_sum_forcing(beta, gamma):
    """The forcing with its beta terms and the gamma part of f3 written by
    product-to-sum identities, e.g. m3 m2 = (sin(t-x+2y) + sin(3t+x+2y)) / 4."""

    def forcing(x, y, t):
        sx, cx = np.sin(t + x), np.cos(t + x)
        sy, cy = np.sin(t + y), np.cos(t + y)
        a, b = t - x + 2 * y, 3 * t + x + 2 * y
        return (
            gamma * sx * sy ** 2 * cy - sx * sy
            + beta / 4 * np.sin(a) + beta / 4 * np.sin(b) + cx * cy,
            -sx * cy + gamma * sy ** 2 * cx * cy - sy * cx
            - beta / 4 * np.cos(a) + beta / 4 * np.cos(b),
            (1.0 - gamma / 2 * np.sin(2 * t + 2 * y)) * cy,
        )

    return forcing


@pytest.mark.parametrize("beta, gamma", [(1.0, 1.0), (-1.7, 0.3), (2.5, 3.0), (0.0, 0.1)])
@pytest.mark.parametrize("t", [0.0, 0.37, 2.9])
def test_factored_forcing_matches_product_to_sum_form(beta, gamma, t):
    # on the sparse node coordinates that VectorField.from_function passes
    n = 64
    x, y = np.meshgrid(*(np.arange(n) * (2 * np.pi / n),) * 2, indexing="ij", sparse=True)
    new = as_array(manufactured_solution(beta, gamma).forcing(x, y, t))
    old = as_array(product_to_sum_forcing(beta, gamma)(x, y, t))
    assert new.shape == old.shape == (n, n, 3)
    assert np.max(np.abs(new - old)) <= 2e-15 * np.max(np.abs(old))


def test_import_does_not_load_sympy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(llgsip.__file__)))
    code = "import sys, llgsip; sys.exit('sympy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
