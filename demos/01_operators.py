"""Tour of the discrete operators: gradients, Laplacians, inner products.

Shows the two boundary treatments (periodic wrap, homogeneous Neumann via
ghost reflection) and the summation-by-parts identity that the energy
analysis rests on.
"""

import numpy as np

from llgsip.grid import (
    GridSpec,
    VectorField,
    gradient_apply,
    gradient_inner_product,
    inner_product,
    laplacian_apply,
)


def main():
    n = 32
    h = 2 * np.pi / n
    grid = GridSpec((n, n), (h, h), boundary="periodic")

    # a smooth test field: the discrete Laplacian of a lattice Fourier mode
    # is exact multiplication by -(4/h^2) sin^2(kh/2)
    k = 3
    m = VectorField.from_function(
        grid, lambda X, Y: (np.cos(k * X), np.sin(k * X), 0 * X)
    )
    lap = laplacian_apply(m)
    eig = -(4.0 / h**2) * np.sin(k * h / 2) ** 2
    print(f"Fourier mode k={k}: eigenvalue defect "
          f"{np.max(np.abs(lap.data - eig * m.data)):.2e}")
    print(f"  (discrete eigenvalue {eig:.6f}, continuum -k^2 = {-k*k})")

    # summation by parts: <-lap f, g> == <grad f, grad g>, exactly, on both
    # boundary kinds -- for Neumann this relies on trapezoidal node weights
    rng = np.random.default_rng(7)
    for boundary in ("periodic", "neumann"):
        g2 = GridSpec((17, 13), (0.3, 0.4), boundary=boundary)
        f = VectorField(g2, rng.standard_normal((3,) + g2.counts))
        g = VectorField(g2, rng.standard_normal((3,) + g2.counts))
        lhs = -inner_product(laplacian_apply(f), g)
        rhs = gradient_inner_product(gradient_apply(f), gradient_apply(g))
        print(f"summation by parts ({boundary:8s}): |lhs - rhs| = "
              f"{abs(lhs - rhs):.2e}  (lhs = {lhs:+.6f})")


if __name__ == "__main__":
    main()
