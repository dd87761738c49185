"""Independent oracles used only by the test suite.

These deliberately avoid the code paths they check: determinants come from a
memoized Laplace (cofactor) expansion rather than any factorization, the
lattice values from literal complex Chebyshev evaluation, and the normal
distribution function from quadrature of the density.  Two engine faults, the
noise scaled or the payoffs changed in the kernel alone, show what a check can
detect; the exact long-run law of two strategies and the exact Gaussian law of
a log-share contrast are two-sided references.  Two process helpers count the
forks a run makes and check that it leaves no child behind.
"""

from __future__ import annotations

import math
import os
from functools import lru_cache
from unittest import mock

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


def floor_depth(depth: float):
    """A context manager inside which the SDE kernel floors each log-share
    ``depth`` below its path's largest, in place of ``engine.Y_CAP``.  Chunk
    workers and producers fork inside it, so they use that depth too."""
    return mock.patch.object(engine, "Y_CAP", depth)


def faulty_payoffs(monkeypatch, payoffs) -> None:
    """Feed the SDE kernel the payoff matrix ``payoffs(A, sigma)`` (both arrays)
    in place of ``A``, while every bound still reads the true game.  Every drift
    fault is one of these: with ``1`` the all-ones vector, ``A + (sigma^2 / 2) 1^T``
    drops the Ito term, and ``c A - (c - 1) (sigma^2 / 2) 1^T`` scales the drift
    by ``c``.  Chunk workers fork after the patch, so they run it too."""
    true_chunk = engine._sde_chunk

    def chunk(A, sigma, *args, **kwargs):
        changed = payoffs(np.asarray(A, dtype=float), np.asarray(sigma, dtype=float))
        return true_chunk(changed, sigma, *args, **kwargs)

    monkeypatch.setattr(engine, "_sde_chunk", chunk)


def stationary_beta(A, sigma) -> tuple[float, float]:
    """Parameters of the Beta law of ``x_1`` that the SDE of a two-strategy game
    settles into.

    ``y = log(x_1 / x_2)`` solves ``dy = (c + d x_1) dt + s dW``, with
    ``s^2 = sigma_1^2 + sigma_2^2``, ``c = a_12 - a_22 - (sigma_1^2 - sigma_2^2) / 2``
    and ``d = a_11 - a_21 - a_12 + a_22``.  Where ``c > 0 > c + d`` it is positive
    recurrent, and its speed measure gives ``x_1 ~ Beta(2c / s^2, -2(c + d) / s^2)``
    (Fudenberg and Harris, J. Econ. Theory 57, 1992).  Any other game has no
    stationary law inside the simplex and raises ``ValueError``.
    """
    (a11, a12), (a21, a22) = np.asarray(A, dtype=float)
    s1, s2 = (float(v) for v in sigma)
    c = a12 - a22 - (s1 * s1 - s2 * s2) / 2.0
    d = a11 - a21 - a12 + a22
    if not c > 0.0 > c + d:
        raise ValueError(f"no stationary law inside the simplex: c = {c:g}, c + d = {c + d:g}")
    s_sq = s1 * s1 + s2 * s2
    return 2.0 * c / s_sq, -2.0 * (c + d) / s_sq


def contrast_martingale(times, states, A, sigma, w) -> np.ndarray:
    """The contrast martingale ``M^w`` at each recorded time after the first, of
    ``states`` of shape (..., records, n); ``w`` must sum to zero.

    ``M^w_K = w^T (log x_K - log x_0) - h sum_{k<K} w^T (A x_k - sigma^2 / 2)``.
    One Euler step in log-shares adds ``h (A x_k - sigma^2 / 2)`` plus the scaled
    normals to every ``Z_j``, and the re-centering and the normalization add the
    same amount to every strategy, which ``w`` cancels.  So an unfloored path of
    the discrete chain gives ``M^w_K ~ N(0, K h |w * sigma|^2)`` exactly, at any
    ``h``.  The sum is a left Riemann sum over the recorded grid: exact at record
    stride 1, and at any stride where ``w^T (A x - sigma^2 / 2)`` is constant.
    """
    A, sigma, w = (np.asarray(v, dtype=float) for v in (A, sigma, w))
    if abs(w.sum()) > 1e-12 * np.abs(w).sum():
        raise ValueError("the weights of a contrast must sum to zero")
    states = np.asarray(states, dtype=float)
    logs = np.log(states) @ w
    rates = (states @ A.T - 0.5 * sigma * sigma) @ w
    compensator = np.cumsum(rates[..., :-1] * np.diff(times), axis=-1)
    return logs[..., 1:] - logs[..., :1] - compensator



def counted_forks(monkeypatch) -> list:
    """Count every ``os.fork`` from here on; returns the list each one appends to."""
    fork, forks = os.fork, []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def assert_no_child_process() -> None:
    """Fail if this process has a child, running or exited but not waited for."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    raise AssertionError("a child process was left behind")
