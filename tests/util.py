"""Independent oracles used only by the test suite.

These deliberately avoid the code paths they check: determinants come from a
memoized Laplace (cofactor) expansion rather than any factorization, the
lattice values from literal complex Chebyshev evaluation, and the normal
distribution function from quadrature of the density.  One engine fault, noise
scaled in the kernel alone, shows what a check can detect.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from replab import engine


def cofactor_det(matrix) -> float:
    """Determinant by Laplace expansion along rows, memoized over column sets."""
    M = [[float(v) for v in row] for row in np.asarray(matrix, dtype=float)]
    n = len(M)

    @lru_cache(maxsize=None)
    def expand(row: int, mask: int) -> float:
        if mask == 0:
            return 1.0
        total = 0.0
        sign = 1.0
        j = 0
        rest = mask
        while rest:
            if rest & 1:
                a = M[row][j]
                if a != 0.0:
                    total += sign * a * expand(row + 1, mask & ~(1 << j))
                sign = -sign
            rest >>= 1
            j += 1
        return total

    return expand(0, (1 << n) - 1)


def u_complex(k: int, rho: float, gamma_sq: float) -> float:
    """Lattice value via complex Chebyshev polynomials of the second kind.

    ``(-i gamma)^k U_k(-i (2 rho + 1) / (2 gamma))`` evaluated literally.
    """
    if k == -1:
        return 0.0
    gamma = math.sqrt(gamma_sq)
    z = -1j * (2.0 * rho + 1.0) / (2.0 * gamma)
    u_prev, u_cur = 0.0 + 0.0j, 1.0 + 0.0j     # U_{-1}, U_0
    for _ in range(k):
        u_prev, u_cur = u_cur, 2.0 * z * u_cur - u_prev
    value = (-1j * gamma) ** k * u_cur
    assert abs(value.imag) <= 1e-9 * max(1.0, abs(value.real))
    return value.real


def normal_cdf_quadrature(v: float, steps: int = 20_000) -> float:
    """Distribution function by Simpson quadrature of the Gaussian density."""
    if v < -12.0:
        return 0.0
    if v > 12.0:
        return 1.0
    lo = -12.0
    if steps % 2:
        steps += 1
    x = np.linspace(lo, v, steps + 1)
    pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    h = (v - lo) / steps
    weights = np.ones(steps + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(h / 3.0 * np.sum(weights * pdf))


def random_zero_sum_directions(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """Unit vectors orthogonal to the all-ones vector."""
    y = rng.standard_normal((count, n))
    y -= y.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(y, axis=1, keepdims=True)
    keep = norms[:, 0] > 1e-12
    return y[keep] / norms[keep]


def random_interior_points(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    return rng.dirichlet(np.ones(n), size=count)


def scaled_noise(monkeypatch, factor: float) -> None:
    """Feed the SDE kernel ``factor`` times its true Gaussian increments, while
    every bound still reads the true diffusion coefficients."""
    true_increments = engine._increments

    def increments(*args):
        for block in true_increments(*args):
            block *= factor
            yield block

    monkeypatch.setattr(engine, "_increments", increments)
