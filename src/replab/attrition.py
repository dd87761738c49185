"""Discrete war of attrition: payoffs, closed-form equilibria and the sweep grid.

Strategies 0..n commit to displaying up to cost ``c_j``; the longer-persisting
player takes the reward, equal commitments split it, and both pay the loser's
cost.  Indices are 0-based throughout, matching the natural numbering of
effort levels.

For the constant-reward, unit-cost family the unique evolutionarily stable
strategy has a closed form built from a real three-term recurrence ``u_k``
(a disguised Chebyshev evaluation along the imaginary axis).  All production
quantities are computed through that real recurrence; the terms alternate in
sign and grow, so there is no cancellation to worry about.  The complex
evaluation exists only as a test oracle.  The noisy dynamics of the game is
checked in :mod:`replab.bounds` (statement 5.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SimulationError, ValidationError

SELF_CHECK_RTOL = 1e-9      # the two routes to the normalization constant
WEIGHT_CLAMP = 1e-12        # closed-form weights in (-WEIGHT_CLAMP, 0) snap to 0


def _floats(values) -> list[float]:
    """The entries of ``values`` as floats; a string or a scalar is one entry."""
    if isinstance(values, (str, bytes)) or not np.iterable(values):
        return [float(values)]
    return [float(x) for x in values]


@dataclass(frozen=True)
class AttritionSpec:
    """General war of attrition: costs, rewards and diagonal perturbations.

    ``costs`` must increase strictly from ``c_0 >= 0``; ``rewards`` are
    nonincreasing with ``rewards[-1] > 0``; each perturbation satisfies
    ``0 <= rho_k < rewards[k] / 2``.
    """

    costs: tuple[float, ...]
    rewards: tuple[float, ...]
    rho: tuple[float, ...]

    def __post_init__(self):
        # plain Python: numpy's per-call cost dominates at these lengths
        c, v, r = _floats(self.costs), _floats(self.rewards), _floats(self.rho)
        if not (len(c) == len(v) == len(r)) or len(c) < 2:
            raise ValidationError("costs, rewards and rho need equal length >= 2")
        if not all(map(math.isfinite, c + v + r)):
            raise ValidationError("attrition parameters must be finite")
        if c[0] < 0.0 or any(b <= a for a, b in zip(c, c[1:])):
            raise ValidationError("costs must satisfy 0 <= c_0 < c_1 < ... < c_n")
        if any(b > a for a, b in zip(v, v[1:])) or v[-1] <= 0.0:
            raise ValidationError("rewards must be nonincreasing with v_n > 0")
        if any(rk < 0.0 or rk >= vk / 2.0 for rk, vk in zip(r, v)):
            raise ValidationError("perturbations must satisfy 0 <= rho_k < v_k / 2")
        # the checked floats, so the matrix builders read numbers of one type
        for name, values in (("costs", c), ("rewards", v), ("rho", r)):
            object.__setattr__(self, name, tuple(values))

    @property
    def n(self) -> int:
        """Maximum effort index; the game has n + 1 strategies."""
        return len(self.costs) - 1


@dataclass(frozen=True)
class ConstantAttritionSpec:
    """Constant reward ``v``, unit costs ``c_j = j`` and a common perturbation."""

    n: int
    v: float
    rho: float = 0.0

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("need at least effort levels 0 and 1")
        if not (math.isfinite(self.v) and self.v > 0.0):
            raise ValidationError("reward must be finite and > 0")
        if not (0.0 <= self.rho < self.v / 2.0):
            raise ValidationError("perturbation must satisfy 0 <= rho < v / 2")

    @property
    def gamma_sq(self) -> float:
        return self.v**2 / 4.0 - self.rho**2

    def general(self) -> AttritionSpec:
        m = self.n + 1
        return AttritionSpec(
            costs=tuple(float(j) for j in range(m)),
            rewards=(float(self.v),) * m,
            rho=(float(self.rho),) * m,
        )


def _spec(spec) -> AttritionSpec:
    return spec.general() if isinstance(spec, ConstantAttritionSpec) else spec


def base_matrix(spec) -> np.ndarray:
    """Unperturbed payoff matrix: win ``v_k - c_k``, split ``v_k/2 - c_k``, lose ``-c_j``."""
    g = _spec(spec)
    c = np.asarray(g.costs)
    v = np.asarray(g.rewards)
    k = np.arange(g.n + 1)
    j = k[:, None]
    return np.where(j > k, v - c, np.where(j == k, v / 2.0 - c, -c[:, None]))


def perturbed_matrix(spec) -> np.ndarray:
    """Payoff matrix with ``rho_k`` subtracted on the diagonal.

    Choosing ``rho_k = sigma_k^2`` makes this the effective matrix felt by the
    noisy dynamics, which is the bridge between the static equilibria computed
    here and the simulation experiments.
    """
    g = _spec(spec)
    B = base_matrix(g)
    B.flat[::B.shape[0] + 1] -= g.rho
    return B


def cnd_certificate(spec) -> np.ndarray:
    """Negative coefficients certifying conditional negative definiteness.

    The reduced quadratic form has the rank-one decomposition
    ``D = sum_k w_k f_k f_k^T`` with ``w_k = v_k - v_{k-1} - 2(c_k - c_{k-1})``
    and ``f_k`` the 0/1 tail vectors; the spec invariants force every
    ``w_k < 0``.  The reconstruction is verified against the direct entries
    ``d_jk = v_min(j,k) - 2 c_min(j,k) - v_0 + 2 c_0`` before returning.
    """
    g = _spec(spec)
    c = np.asarray(g.costs)
    v = np.asarray(g.rewards)
    n = g.n
    w = v[1:] - v[:-1] - 2.0 * (c[1:] - c[:-1])
    D = np.zeros((n, n))
    for k in range(n):
        D[k:, k:] += w[k]
    mins = np.minimum.outer(np.arange(1, n + 1), np.arange(1, n + 1))
    direct = v[mins] - 2.0 * c[mins] - v[0] + 2.0 * c[0]
    if np.max(np.abs(D - direct)) > 1e-12:
        raise SimulationError("rank-one reconstruction of the reduced form failed")
    return w


def support_cutoff(spec) -> int | None:
    """Index ``s`` bounding the support of the constant-case stable strategy.

    ``None`` when the reward is large enough (``v >= 2n + 2 rho``) that the
    maximum effort vertex is the equilibrium; otherwise the unique
    ``s in {0, ..., n-1}`` with ``n - 1 + rho <= v/2 + s < n + rho``.
    """
    if not isinstance(spec, ConstantAttritionSpec):
        raise ValidationError("support cutoff is defined for the constant-reward family")
    n, v, rho = spec.n, spec.v, spec.rho
    if v >= 2.0 * n + 2.0 * rho:
        return None
    s = math.ceil(n - 1 + rho - v / 2.0)
    s = min(max(s, 0), n - 1)
    if not (n - 1 + rho <= v / 2.0 + s + 1e-12 and v / 2.0 + s < n + rho + 1e-12):
        raise SimulationError(f"no admissible cutoff index for n={n}, v={v}, rho={rho}")
    return s


def cheb_u(k: int, rho: float, gamma_sq: float) -> float:
    """Real value of the alternating lattice ``u_k``.

    ``u_{-1} = 0``, ``u_0 = 1`` and ``u_k = -(2 rho + 1) u_{k-1} + gamma_sq
    u_{k-2}``; equivalently a degree-k Chebyshev polynomial of the second kind
    evaluated on the imaginary axis with the powers of ``-i gamma`` absorbed,
    but no complex arithmetic is ever needed: the recurrence keeps the sign
    pattern ``(-1)^k u_k > 0`` and the terms only grow.
    """
    if k < -1:
        raise ValidationError("lattice index starts at -1")
    if not gamma_sq > 0.0:
        raise ValidationError("gamma_sq must be > 0")
    return _u_sequence(k, 2.0 * rho + 1.0, gamma_sq)[-1]


def _u_sequence(kmax: int, a: float, gamma_sq: float) -> np.ndarray:
    """Values ``u_{-1}, u_0, ..., u_kmax`` of ``u_k = -a u_{k-1} + gamma_sq u_{k-2}``
    (index shift +1); the lattice has ``a = 2 rho + 1``."""
    out = np.empty(kmax + 2)
    out[0] = 0.0  # u_{-1}
    if kmax >= 0:
        out[1] = 1.0
    for k in range(1, kmax + 1):
        out[k + 1] = -a * out[k] + gamma_sq * out[k - 1]
    return out


@dataclass(frozen=True)
class ClosedFormEss:
    """Stable strategy of the constant family with its cutoff and normalizer."""

    strategy: np.ndarray
    s: int | None
    c: float | None


def closed_form_ess(spec: ConstantAttritionSpec) -> ClosedFormEss:
    """Closed-form evolutionarily stable strategy of the constant family.

    Large rewards (``v >= 2n + 2 rho``) put all mass on the maximum effort
    vertex.  Otherwise weights ``0..s`` come from the ``u`` lattice, weights
    ``s+1..n-1`` vanish, and ``p_n = (-v/2 - rho)^{s+1} / c``.  The
    normalization constant is computed along two algebraically equal routes
    (directly from ``u`` and through the auxiliary ``t`` combination); any
    disagreement beyond round-off aborts, since it can only mean a broken
    implementation or an out-of-domain sweep point.
    """
    if not isinstance(spec, ConstantAttritionSpec):
        raise ValidationError("closed form applies to the constant-reward family")
    n, v, rho = spec.n, spec.v, spec.rho
    s = support_cutoff(spec)
    if s is None:
        p = np.zeros(n + 1)
        p[n] = 1.0
        return ClosedFormEss(strategy=p, s=None, c=None)

    g2 = spec.gamma_sq
    u = _u_sequence(s + 2, 2.0 * rho + 1.0, g2)     # u[-1 + i] = u_{i-1}

    def uval(k: int) -> float:
        return float(u[k + 1])

    half_plus = v / 2.0 + rho
    c = (
        -uval(s + 2)
        + (n - s - 1 - 2.0 * rho) * uval(s + 1)
        + (2.0 * rho * (n - s - 1) + g2) * uval(s)
        - (n - s - 1) * g2 * uval(s - 1)
    )

    def tval(j: int) -> float:
        return (
            uval(j)
            + (s + 1 - n + half_plus) * uval(j - 1)
            + (s + 1 - n) * half_plus * uval(j - 2)
        )

    c_alt = -tval(s + 2) + (v / 2.0 - rho) * tval(s + 1)
    if abs(c - c_alt) > SELF_CHECK_RTOL * max(abs(c), abs(c_alt), 1e-30):
        raise SimulationError(
            f"normalizer self-check failed: {c!r} vs {c_alt!r} for n={n}, v={v}, rho={rho}"
        )

    p = np.zeros(n + 1)
    for k in range(s + 1):
        p[k] = (-half_plus) ** k * tval(s - k + 1) / c
    p[n] = (-half_plus) ** (s + 1) / c

    bad = p.min()
    if bad < -WEIGHT_CLAMP:
        raise SimulationError(
            f"closed form produced weight {bad!r} < 0 for n={n}, v={v}, rho={rho}"
        )
    p = np.clip(p, 0.0, None)
    total = float(p.sum())
    if abs(total - 1.0) > 1e-10:
        raise SimulationError(f"closed-form weights sum to {total!r}, not 1")
    return ClosedFormEss(strategy=p, s=s, c=float(c))


def forced_zero_indices(spec) -> set[int]:
    """Effort levels whose cost alone excludes them from any stable support.

    ``{j < n : c_j >= c_n + rho_n - v_n / 2}``.
    """
    g = _spec(spec)
    c = np.asarray(g.costs)
    threshold = g.costs[-1] + g.rho[-1] - g.rewards[-1] / 2.0
    return {j for j in range(g.n) if c[j] >= threshold}


# ---------------------------------------------------------------------------
# determinant identities


def ones_column_det(spec, k: int) -> float:
    """Determinant of the perturbed matrix with column ``k`` replaced by ones.

    For ``k = n`` this is the pure product ``prod_{j<n} (-v_j/2 - rho_j)``;
    for ``k < n`` the replacement reduces to the lower-right principal block
    shifted by ``c_k`` times that partial product.
    """
    g = _spec(spec)
    n = g.n
    if not 0 <= k <= n:
        raise ValidationError(f"column index {k} out of range")
    v = np.asarray(g.rewards)
    r = np.asarray(g.rho)
    partial = float(np.prod(-v[:k] / 2.0 - r[:k]))
    if k == n:
        return partial
    B = perturbed_matrix(g)
    block = B[k + 1:, k + 1:] + g.costs[k]
    return float(np.linalg.det(block)) * partial


def constant_matrix_det(spec: ConstantAttritionSpec) -> float:
    """Determinant of the constant-family matrix via the real lattice.

    ``det = (v/2 - rho) * (u_n + (v/2 + rho) u_{n-1})``, the order-n case of
    the principal-minor formula used by the closed-form construction.
    """
    if not isinstance(spec, ConstantAttritionSpec):
        raise ValidationError("recurrence determinant applies to the constant family")
    u = _u_sequence(spec.n, 2.0 * spec.rho + 1.0, spec.gamma_sq)
    un = float(u[spec.n + 1])
    un1 = float(u[spec.n])
    return (spec.v / 2.0 - spec.rho) * (un + (spec.v / 2.0 + spec.rho) * un1)


def tridiagonal_det(x: float, gamma1: float, gamma2: float, n: int) -> float:
    """Determinant of the n-by-n tridiagonal matrix with ``x`` on the diagonal,
    ``gamma1`` above and ``-gamma2`` below, via the two-term recurrence
    ``d_n = x d_{n-1} + gamma1 gamma2 d_{n-2}``: the ``u`` lattice with ``a = -x``.
    """
    if not (gamma1 > 0.0 and gamma2 > 0.0):
        raise ValidationError("off-diagonal magnitudes must be > 0")
    if n < 1:
        raise ValidationError("matrix order must be >= 1")
    return float(_u_sequence(n, -x, gamma1 * gamma2)[-1])


# ---------------------------------------------------------------------------
# sweep grid


def ess_sweep_rows(n_values, rho_fractions, v_step: float = 0.25):
    """Instances for the closed-form-versus-enumeration sweep.

    For each ``n`` and each fraction ``f`` (``rho = f * v``), rewards run from
    ``v_step`` in steps of ``v_step`` until just past the vertex threshold
    ``2n + 2 rho``.  Points where the cutoff inequality degenerates to its
    left-hand equality are nudged by 1e-9 (and would otherwise sit on a
    measure-zero set where the support system loses rank).
    """
    if not (math.isfinite(v_step) and v_step > 0.0):
        raise ValidationError("reward step must be finite and > 0")
    specs = []
    for n in n_values:
        for frac in rho_fractions:
            if not 0.0 <= frac < 0.5:
                raise ValidationError("rho fraction must lie in [0, 0.5)")
            v_max = (2.0 * n + 1.0) / (1.0 - 2.0 * frac)
            v = v_step
            while v <= v_max + 1e-9:
                rho = frac * v
                shifted = v
                # left-equality degeneracy: n - 1 + rho == v/2 + s exactly
                frac_part = (n - 1 + rho - v / 2.0) % 1.0
                if min(frac_part, 1.0 - frac_part) < 1e-12 and v < 2.0 * n + 2.0 * rho:
                    shifted = v + 1e-9
                specs.append(ConstantAttritionSpec(n=n, v=shifted, rho=frac * shifted))
                v += v_step
    return specs
