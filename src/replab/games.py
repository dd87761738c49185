"""Statics of symmetric matrix games on the probability simplex.

Conventions used throughout the package:

* A game is a plain square ``numpy`` array ``A`` where ``A[j, k]`` is the
  payoff to a player using (0-based) pure strategy ``j`` against an opponent
  playing ``k``.
* Mixed strategies and population states are probability vectors; ``interior``
  means every entry is strictly positive, ``closure`` allows zeros.
* Per-strategy diffusion coefficients ``sigma`` are strictly positive.

The analytical quantities here drive everything else: the centered
symmetrization and its second-largest eigenvalue measure how strongly a stable
mix attracts the noisy dynamics, ``aggregate_noise`` condenses the diffusion
coefficients into a single magnitude, and the dominance/equilibrium
classifiers provide the static side of every long-run statement the package
checks by simulation.

Conditional negative definiteness ("CND": the payoff form is negative on the
zero-sum hyperplane) is decided in one place, :func:`cnd_status`, from the
second eigenvalue; every module that needs the sign asks it.

Inputs are checked once, at the public entry points; ``ess`` calls the private
bodies behind them (``_classify_equilibrium``, ``_is_cnd``) on arrays it has
checked.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# Tolerances. Payoffs are user-given exact reals, so ties are detected at
# essentially machine precision; equal-payoff residuals of linear solves get
# the looser EQ_TOL.
SUM_TOL = 1e-12      # simplex normalization
TIE_TOL = 1e-12      # exact payoff ties (dominance, strict Nash)
EQ_TOL = 1e-9        # equal-payoff / best-reply residuals
CND_TOL = 1e-10      # |second eigenvalue| below this counts as boundary
CONE_SAMPLES = 10_000   # random face directions that classify_equilibrium tries

NOT_NASH = "NotNash"
STRICT_NASH = "StrictNash"
ESS_CERTIFIED = "ESS-certified"
ESS_REFUTED = "ESS-refuted"
UNDETERMINED = "Undetermined"

MAX_DOMINANCE_N = 12     # basis enumeration in best_dominating_mix is O(C(2n, n))


# ---------------------------------------------------------------------------
# validation


def as_payoff_matrix(A) -> np.ndarray:
    A = np.array(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValidationError(f"payoff matrix must be square, got shape {A.shape}")
    if A.shape[0] < 2:
        raise ValidationError("games need at least 2 strategies")
    if not np.isfinite(A).all():
        raise ValidationError("payoff matrix has non-finite entries")
    return A


def as_noise_vector(sigma, n: int) -> np.ndarray:
    s = np.array(sigma, dtype=float).reshape(-1)
    if s.size != n:
        raise ValidationError(f"need {n} diffusion coefficients, got {s.size}")
    if not np.all(np.isfinite(s)) or np.any(s <= 0.0):
        raise ValidationError("diffusion coefficients must be finite and > 0")
    return s


def as_simplex_point(x, n: int | None = None, *, interior: bool = False) -> np.ndarray:
    p = np.array(x, dtype=float).reshape(-1)
    if n is not None and p.size != n:
        raise ValidationError(f"expected a vector of length {n}, got {p.size}")
    if not np.all(np.isfinite(p)):
        raise ValidationError("simplex point has non-finite entries")
    if abs(p.sum() - 1.0) > SUM_TOL:
        raise ValidationError(f"weights sum to {p.sum()!r}, not 1 within {SUM_TOL}")
    if interior:
        if np.any(p <= 0.0):
            raise ValidationError("point must be strictly interior (all weights > 0)")
    elif np.any(p < 0.0):
        raise ValidationError("weights must be nonnegative")
    return p


def uniform_point(n: int) -> np.ndarray:
    return np.full(n, 1.0 / n)


def vertex(n: int, k: int) -> np.ndarray:
    e = np.zeros(n)
    e[k] = 1.0
    return e


# ---------------------------------------------------------------------------
# regions of the simplex


@dataclass(frozen=True)
class Region:
    """A measurable target set used for hitting times and occupation fractions.

    Kinds: ``ball`` (Euclidean ball around a point) and ``any_vertex`` (some
    coordinate at least ``1 - eps``).
    """

    kind: str
    center: tuple[float, ...] | None = None
    radius: float | None = None
    eps: float | None = None

    @classmethod
    def ball(cls, center, radius: float) -> "Region":
        c = as_simplex_point(center)
        if not radius > 0.0:
            raise ValidationError("ball radius must be > 0")
        return cls(kind="ball", center=tuple(float(v) for v in c), radius=float(radius))

    @classmethod
    def any_vertex_neighborhood(cls, eps: float) -> "Region":
        if not 0.0 < eps < 1.0:
            raise ValidationError("eps must lie in (0, 1)")
        return cls(kind="any_vertex", eps=float(eps))

    def contains(self, states) -> np.ndarray:
        """Vectorized membership test over the last axis of any ``(..., n)`` stack;
        one state of shape ``(n,)`` gives a ``bool``."""
        x = np.asarray(states, dtype=float)
        if self.kind == "ball":
            c = np.asarray(self.center)
            inside = ((x - c) ** 2).sum(axis=-1) < self.radius**2
        elif self.kind == "any_vertex":
            inside = x.max(axis=-1) >= 1.0 - self.eps
        else:
            raise ValidationError(f"unknown region kind {self.kind!r}")
        return bool(inside) if x.ndim == 1 else inside

    def describe(self) -> str:
        if self.kind == "ball":
            return f"ball(radius={self.radius:g})"
        return f"max_k x[k] >= {1.0 - self.eps:g}"


# ---------------------------------------------------------------------------
# attraction constants


def centered_symmetrization(A) -> np.ndarray:
    """Symmetrize and center a payoff matrix onto the zero-sum hyperplane.

    The result ``D`` is symmetric, has the all-ones vector in its kernel, and
    agrees with ``A`` as a quadratic form on ``{y : sum(y) = 0}``.
    """
    return _centered_symmetrization(as_payoff_matrix(A))


def _centered_symmetrization(A: np.ndarray) -> np.ndarray:
    """``centered_symmetrization`` of a checked matrix."""
    n = A.shape[0]
    Abar = 0.5 * (A + A.T)
    ones = np.ones((n, 1))
    row = Abar @ ones @ ones.T / n
    col = ones @ (ones.T @ Abar) / n
    total = float(A.sum()) / n**2
    return Abar - row - col + total * np.ones((n, n))


@functools.lru_cache(maxsize=32)
def _zero_sum_basis(n: int) -> np.ndarray:
    """Orthonormal basis of the hyperplane orthogonal to the all-ones vector (read-only)."""
    E = np.zeros((n, n - 1))
    E[0, :] = -1.0
    for i in range(n - 1):
        E[i + 1, i] = 1.0
    Q, _ = np.linalg.qr(E)
    Q.flags.writeable = False
    return Q


def second_eigenvalue(A) -> float:
    """Maximum of ``y.A.y / y.y`` over nonzero zero-sum directions.

    Computed as the top eigenvalue of the centered form restricted to the
    hyperplane orthogonal to the all-ones vector.  The all-ones direction is a
    kernel direction of the centered matrix, so whenever the form is negative
    on the hyperplane this value is exactly the second-largest eigenvalue of
    the centered matrix (counting multiplicity); its sign decides conditional
    negative definiteness, and its magnitude measures the strength of
    attraction toward a stable mix.

    Memoized on the matrix's shape and bytes (a small LRU cache), so the
    checks that each ask for it, such as a bound's precondition and then
    ``classify_equilibrium``, share one eigen-solve.  A matrix changed in
    place has new bytes and is solved again.
    """
    A = as_payoff_matrix(A)
    return _second_eigenvalue(A.shape[0], A.tobytes())


@functools.lru_cache(maxsize=32)
def _second_eigenvalue(n: int, data: bytes) -> float:
    D = _centered_symmetrization(np.frombuffer(data).reshape(n, n))
    Q = _zero_sum_basis(n)
    return float(np.linalg.eigvalsh(Q.T @ D @ Q)[-1])


def cnd_status(lam2: float) -> str:
    """``negative`` / ``boundary`` / ``nonnegative``: the CND sign of a second eigenvalue.

    Only ``negative`` counts as CND: certificates are claimed only when the
    sign is unambiguous, so a value within ``CND_TOL`` of zero, or NaN, is not.
    """
    if lam2 < -CND_TOL:
        return "negative"
    if lam2 <= CND_TOL:
        return "boundary"
    return "nonnegative"


def _is_cnd(A: np.ndarray) -> bool:
    """Whether a checked matrix is conditionally negative definite."""
    return cnd_status(_second_eigenvalue(A.shape[0], A.tobytes())) == "negative"


def kl_distance(x, p) -> float:
    """Relative entropy ``sum_{p_j > 0} p_j log(p_j / x_j)``.

    ``x`` must be strictly interior; ``p`` may sit on the boundary, in which
    case only its support contributes and the value is still finite and >= 0.
    """
    x = as_simplex_point(x, interior=True)
    p = as_simplex_point(p, x.size)
    support = p > 0.0
    return float(np.sum(p[support] * np.log(p[support] / x[support])))


def aggregate_noise(p, sigma) -> float:
    """Scalar noise magnitude ``kappa`` of a mix under per-strategy noise.

    ``kappa^2 = 0.5 * sum p_j sigma_j^2 - 0.5 / sum sigma_j^-2``; the value is
    nonnegative by Cauchy-Schwarz, and tiny negative round-off is clipped.
    """
    p = as_simplex_point(p)
    s = as_noise_vector(sigma, p.size)
    s2 = s * s
    kappa_sq = 0.5 * float(p @ s2) - 0.5 / float(np.sum(1.0 / s2))
    return math.sqrt(max(kappa_sq, 0.0))


def noise_below_attraction_threshold(p, sigma, lam2: float) -> bool:
    """Smallness condition tying noise to the attraction gap of an interior mix.

    Holds iff ``kappa < n/(n-1) * sqrt(|lam2|) * min_j p_j`` (strictly); points
    with a zero weight therefore always fail.  Requires ``lam2 < 0``.
    """
    p = as_simplex_point(p)
    if not lam2 < 0.0:
        raise ValidationError("threshold needs a negative second eigenvalue")
    n = p.size
    kappa = aggregate_noise(p, sigma)
    return kappa < (n / (n - 1.0)) * math.sqrt(-lam2) * float(p.min())


def effective_payoff_matrix(A, sigma) -> np.ndarray:
    """Payoff matrix felt by the noisy dynamics: ``A - diag(sigma^2)``."""
    A = as_payoff_matrix(A)
    s = as_noise_vector(sigma, A.shape[0])
    B = A.copy()
    B[np.diag_indices_from(B)] -= s * s
    return B


# ---------------------------------------------------------------------------
# dominance


@dataclass(frozen=True)
class DominanceResult:
    """Outcome of testing whether a mix beats a pure strategy everywhere.

    ``margin`` is the worst-case payoff advantage ``min_r (p - e_k) . A e_r``
    over opponent vertices (the minimum over all opponent mixes, by linearity).
    """

    kind: str                  # "none" | "weak" | "strict"
    margin: float


def verify_dominance(A, k: int, p) -> DominanceResult:
    """Classify whether mixed strategy ``p`` dominates pure strategy ``k``."""
    A = as_payoff_matrix(A)
    n = A.shape[0]
    if not 0 <= k < n:
        raise ValidationError(f"strategy index {k} out of range")
    p = as_simplex_point(p, n)
    if np.max(np.abs(p - vertex(n, k))) <= TIE_TOL:
        raise ValidationError("the dominating mix must differ from the strategy itself")
    diffs = p @ A - A[k, :]
    margin = float(diffs.min())
    if margin > TIE_TOL:
        kind = "strict"
    elif margin >= -TIE_TOL and bool(np.any(diffs > TIE_TOL)):
        kind = "weak"
    else:
        kind = "none"
    return DominanceResult(kind=kind, margin=margin)


def best_dominating_mix(A, k: int):
    """Search for the mix that dominates pure strategy ``k`` with maximal margin.

    Solves ``max_p min_r (p - e_k) . A e_r`` over the closed simplex exactly,
    by enumerating basic solutions of the small max-min linear program (all
    support / tight-constraint pairs).  Cost grows like C(2n, n); inputs are
    capped at n <= 12.  Returns ``(p, margin)`` where the returned mix
    verifies weak or strict dominance, or ``None`` when no such witness
    exists.
    """
    A = as_payoff_matrix(A)
    n = A.shape[0]
    if n > MAX_DOMINANCE_N:
        raise ValidationError(f"dominance search enumerates bases; limited to n <= {MAX_DOMINANCE_N}")
    if not 0 <= k < n:
        raise ValidationError(f"strategy index {k} out of range")
    M = A - A[k, :][None, :]        # M[j, r] = payoff advantage of j over k vs vertex r

    best_val = -math.inf
    best_points: list[np.ndarray] = []
    indices = range(n)
    for t in range(1, n + 1):
        for support in itertools.combinations(indices, t):
            sup = list(support)
            for tight in itertools.combinations(indices, t):
                # unknowns: p on the support plus the common tight value c
                lhs = np.zeros((t + 1, t + 1))
                rhs = np.zeros(t + 1)
                for i, r in enumerate(tight):
                    lhs[i, :t] = M[sup, r]
                    lhs[i, t] = -1.0
                lhs[t, :t] = 1.0
                rhs[t] = 1.0
                try:
                    sol = np.linalg.solve(lhs, rhs)
                except np.linalg.LinAlgError:
                    continue
                if not np.all(np.isfinite(sol)):
                    continue
                p = np.zeros(n)
                p[sup] = sol[:t]
                if p.min() < -1e-10:
                    continue
                p = np.clip(p, 0.0, None)
                total = p.sum()
                if not 0.5 < total < 2.0:
                    continue
                p /= total
                values = p @ M
                val = float(values.min())
                if val > best_val + 1e-12:
                    best_val = val
                    best_points = [p]
                elif abs(val - best_val) <= 1e-12:
                    best_points.append(p)

    candidates = [p for p in best_points
                  if np.max(np.abs(p - vertex(n, k))) > TIE_TOL]
    # deduplicate, then add the centroid of the optimal face: strictness may
    # hold only away from the face's corners
    unique: list[np.ndarray] = []
    for p in candidates:
        if all(np.linalg.norm(p - q) > 1e-8 for q in unique):
            unique.append(p)
    if len(unique) > 1:
        unique.append(np.mean(unique, axis=0))

    best = None
    for p in unique:
        res = verify_dominance(A, k, p)
        if res.kind == "strict":
            return p, res.margin
        if res.kind == "weak" and best is None:
            best = (p, res.margin)
    return best


# ---------------------------------------------------------------------------
# equilibrium classification


def noise_robust_strict_nash(A, sigma, k: int) -> bool:
    """Strict Nash test with the noise-adjusted diagonal margin.

    True iff ``A[k, k] > A[j, k] + sigma_k^2`` for every ``j != k``: strategy
    ``k`` remains a strict Nash equilibrium of the effective payoff matrix.
    """
    A = as_payoff_matrix(A)
    s = as_noise_vector(sigma, A.shape[0])
    if not 0 <= k < A.shape[0]:
        raise ValidationError(f"strategy index {k} out of range")
    margin = s[k] ** 2
    col = A[:, k]
    return all(col[k] > col[j] + margin for j in range(A.shape[0]) if j != k)


def is_coordination_game(A, sigma) -> bool:
    """True iff every pure strategy passes the noise-robust strict Nash test."""
    A = as_payoff_matrix(A)
    return all(noise_robust_strict_nash(A, sigma, k) for k in range(A.shape[0]))


def classify_equilibrium(A, p) -> str:
    """Classify a candidate strategy: Nash status plus stability certification.

    Order of decision:

    1. ``NotNash`` if some pure reply earns more than ``p`` against ``p``.
    2. ``StrictNash`` for a vertex that strictly beats every other pure reply.
    3. ``ESS-certified`` when the whole matrix is conditionally negative
       definite (every Nash equilibrium is then evolutionarily stable), or
       when the payoff form is negative definite on the span of directions
       inside the best-reply face.
    4. ``ESS-refuted`` when a feasible direction in the face makes the
       quadratic form nonnegative (checked on eigen-directions of the
       restricted form and on a fixed batch of random face samples).
    5. ``Undetermined`` otherwise; definiteness on a polyhedral cone is not
       decided by its extreme rays, so no claim is made either way.
    """
    A = as_payoff_matrix(A)
    return _classify_equilibrium(A, as_simplex_point(p, A.shape[0]))


def _classify_equilibrium(A: np.ndarray, p: np.ndarray, cnd: bool | None = None) -> str:
    """``classify_equilibrium`` of a checked matrix and point; ``cnd`` is the
    matrix's CND sign if the caller holds it, else looked up when needed."""
    n = A.shape[0]
    payoffs = A @ p
    own = float(p @ payoffs)
    if float(payoffs.max()) > own + EQ_TOL:
        return NOT_NASH

    k = int(p.argmax())
    if abs(p - vertex(n, k)).max() <= TIE_TOL:
        col = A[:, k]
        if all(col[k] > col[j] + TIE_TOL for j in range(n) if j != k):
            return STRICT_NASH

    if _is_cnd(A) if cnd is None else cnd:
        return ESS_CERTIFIED

    face = np.flatnonzero(payoffs >= own - EQ_TOL)
    if face.size == 1:
        # unique best reply: p is that vertex and is strict up to ties caught above
        return STRICT_NASH

    # span of zero-sum directions supported on the best-reply face
    E = np.zeros((n, face.size - 1))
    for i, j in enumerate(face[1:]):
        E[face[0], i] = -1.0
        E[j, i] = 1.0
    Q, _ = np.linalg.qr(E)
    Abar = 0.5 * (A + A.T)
    S = Q.T @ Abar @ Q
    w, V = np.linalg.eigh(S)
    if w[-1] < -CND_TOL:
        return ESS_CERTIFIED

    zero_weight = [j for j in face if p[j] <= TIE_TOL]

    def feasible(y: np.ndarray) -> bool:
        if np.max(np.abs(y)) <= 1e-14:
            return False
        return all(y[j] >= -TIE_TOL for j in zero_weight)

    for i in range(w.size):
        if w[i] <= CND_TOL:
            continue
        y = Q @ V[:, i]
        if feasible(y) or feasible(-y):
            return ESS_REFUTED

    # random directions inside the face cone (fixed stream: classification is
    # a pure function of its inputs)
    rng = np.random.default_rng(0)
    qs = rng.dirichlet(np.ones(face.size), size=CONE_SAMPLES)
    Y = np.zeros((CONE_SAMPLES, n))
    Y[:, face] = qs
    Y -= p[None, :]
    quad = np.einsum("ij,jk,ik->i", Y, Abar, Y)
    norms = (Y * Y).sum(axis=1)
    mask = norms > 1e-20
    if np.any(quad[mask] > CND_TOL * norms[mask]):
        return ESS_REFUTED

    return UNDETERMINED
