"""Equilibrium computation for symmetric games by support enumeration.

Every candidate support ``S`` gives a square linear system, equal payoffs on
``S`` and weights summing to one: ``[[A_SS, -1], [1, 0]] (w, c) = (0, 1)``.
Solutions surviving nonnegativity and the off-support best-reply inequality
are Nash equilibria and get classified by :mod:`replab.games` (Avis,
Rosenberg, Savani and von Stengel, Economic Theory 42, 2010).  For
conditionally negative definite games the unique evolutionarily stable
strategy found this way is the oracle for the war-of-attrition closed form.

The systems of one support size are stacked in blocks of ``SUPPORT_BLOCK``
and solved by one LAPACK call each, with the gates as array operations; only
the few survivors reach the scalar gates, deduplication and classification.
"""

from __future__ import annotations

import itertools
import logging
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import games
from .errors import PreconditionError, ValidationError

log = logging.getLogger(__name__)

MAX_SUPPORT_N = 20          # 2^n - 1 supports are enumerated
SUPPORT_BLOCK = 4096        # supports per stacked solve (bounds memory at n = 20)
EQUALIZE_TOL = 1e-10        # residual of the support solve itself
OFF_SUPPORT_TOL = 1e-9
DEDUP_DISTANCE = 1e-8
# Array gates pass anything within twice a tolerance: stacked products may
# round differently from the scalar ones, which make the final decision.
_PREFILTER = 2.0
_GATES = ("singular", "non-finite", "negative weight", "residual", "off-support")


@dataclass(frozen=True)
class EquilibriumReport:
    """A candidate strategy together with its support, payoff and status."""

    strategy: np.ndarray
    support: tuple[int, ...]
    common_payoff: float
    status: str
    equal_payoff_residual: float
    off_support_slack: float    # max off-support payoff minus common payoff (<= tol)

    @property
    def residual(self) -> float:
        return max(self.equal_payoff_residual, self.off_support_slack, 0.0)

    @property
    def is_ess(self) -> bool:
        """Strict Nash vertices are evolutionarily stable by definition."""
        return self.status in (games.STRICT_NASH, games.ESS_CERTIFIED)


def _equalize_block(A, S, rejected: Counter):
    """Solve the equal-payoff systems of the supports in the rows of ``S``.

    Returns ``(S, P, c)`` restricted to the rows whose system is nonsingular
    with a finite, nonnegative solution that passes the residual prefilter:
    the supports, their full-length weight vectors and common payoffs, in
    row order.  ``rejected`` counts the other rows by gate.
    """
    k, m = S.shape
    lhs = np.zeros((k, m + 1, m + 1))
    lhs[:, :m, :m] = A[S[:, :, None], S[:, None, :]]
    lhs[:, :m, m] = -1.0
    lhs[:, m, :m] = 1.0
    rhs = np.zeros((k, m + 1, 1))
    rhs[:, m] = 1.0
    try:
        sol = np.linalg.solve(lhs, rhs)[:, :, 0]
    except np.linalg.LinAlgError:
        # some LU pivot is exactly zero; slogdet's sign is 0 exactly for those
        # systems (det itself can underflow to 0 for a nonsingular one)
        nonsingular = np.linalg.slogdet(lhs)[0] != 0.0
        rejected["singular"] += k - np.count_nonzero(nonsingular)
        S, lhs, rhs = S[nonsingular], lhs[nonsingular], rhs[nonsingular]
        sol = np.linalg.solve(lhs, rhs)[:, :, 0]
    W = np.clip(sol[:, :m], 0.0, None)
    c = sol[:, m]
    with np.errstate(invalid="ignore", over="ignore"):
        residual = np.maximum(
            np.abs(np.einsum("kij,kj->ki", lhs[:, :m, :m], W) - c[:, None]).max(axis=1),
            np.abs(W.sum(axis=1) - 1.0),
        )
    finite = np.isfinite(sol).all(axis=1)
    nonnegative = finite & (sol[:, :m].min(axis=1) >= -games.TIE_TOL)
    equal = nonnegative & (residual <= _PREFILTER * EQUALIZE_TOL)
    rejected["non-finite"] += np.count_nonzero(~finite)
    rejected["negative weight"] += np.count_nonzero(finite & ~nonnegative)
    rejected["residual"] += np.count_nonzero(nonnegative & ~equal)
    S = S[equal]
    P = np.zeros((S.shape[0], A.shape[0]))
    P[np.arange(S.shape[0])[:, None], S] = W[equal]
    return S, P, c[equal]


def _residual(A, sup: list[int], p: np.ndarray, c: float) -> float:
    """Equal-payoff residual of ``p`` on ``sup``, including the weight sum."""
    return max(
        float(np.max(np.abs(A[sup][:, sup] @ p[sup] - c))),
        abs(float(p.sum()) - 1.0),
    )


def equalize_on_support(A, support):
    """Solve for the mix supported on ``support`` that equalizes payoffs there.

    Returns ``(p, c, residual)`` with ``p`` a full-length closure point whose
    weights vanish off the support, or ``None`` when the linear system is
    singular ("degenerate support"), yields a negative weight or leaves a
    residual above ``EQUALIZE_TOL``.
    """
    A = games.as_payoff_matrix(A)
    sup = sorted(set(int(j) for j in support))
    if not sup:
        raise ValidationError("support must be nonempty")
    if sup[0] < 0 or sup[-1] >= A.shape[0]:
        raise ValidationError("support index out of range")
    S, P, c = _equalize_block(A, np.array([sup], dtype=np.intp), Counter())
    if not len(S):
        return None
    c = float(c[0])
    residual = _residual(A, sup, P[0], c)
    if residual > EQUALIZE_TOL:
        return None
    return P[0], c, residual


def solve_all_equilibria(A) -> list[EquilibriumReport]:
    """Enumerate all Nash equilibria with a nondegenerate support system.

    Supports are solved in stacked blocks, one size at a time; survivors of
    the array gates are then checked again, deduplicated and classified in
    the canonical order: by increasing size, lexicographically within a size.
    Duplicate strategies (within ``DEDUP_DISTANCE``) keep their first, i.e.
    smallest-support, occurrence.  One debug log line per game counts the
    supports visited and those rejected by each gate.
    """
    A = games.as_payoff_matrix(A)
    n = A.shape[0]
    if n > MAX_SUPPORT_N:
        raise ValidationError(
            f"support enumeration visits 2^n - 1 supports; refusing n = {n} > {MAX_SUPPORT_N}"
        )
    rejected: Counter = Counter()
    reports: list[EquilibriumReport] = []
    for size in range(1, n + 1):
        supports = itertools.combinations(range(n), size)    # lexicographic
        while block := list(itertools.islice(supports, SUPPORT_BLOCK)):
            S, P, cs = _equalize_block(A, np.array(block, dtype=np.intp), rejected)
            gains = P @ A.T - cs[:, None]
            gains[np.arange(S.shape[0])[:, None], S] = -np.inf
            best_reply = gains.max(axis=1, initial=-np.inf) <= _PREFILTER * OFF_SUPPORT_TOL
            rejected["off-support"] += np.count_nonzero(~best_reply)
            for row, p, c in zip(S[best_reply], P[best_reply], cs[best_reply].tolist()):
                sup = row.tolist()
                residual = _residual(A, sup, p, c)
                if residual > EQUALIZE_TOL:
                    rejected["residual"] += 1
                    continue
                payoffs = A @ p
                off = [j for j in range(n) if j not in sup]
                slack = float(np.max(payoffs[off] - c)) if off else -np.inf
                if slack > OFF_SUPPORT_TOL:
                    rejected["off-support"] += 1
                    continue
                if any(np.linalg.norm(p - r.strategy) < DEDUP_DISTANCE for r in reports):
                    continue
                status = games.classify_equilibrium(A, p)
                if status == games.NOT_NASH:
                    continue
                actual_support = tuple(int(j) for j in np.flatnonzero(p > 0.0))
                reports.append(
                    EquilibriumReport(
                        strategy=p,
                        support=actual_support,
                        common_payoff=c,
                        status=status,
                        equal_payoff_residual=residual,
                        off_support_slack=max(slack, 0.0),
                    )
                )
    log.debug("support enumeration, n = %d: %d supports visited; rejected %s", n, 2**n - 1,
              ", ".join(f"{rejected[g]} {g}" for g in _GATES))
    reports.sort(key=lambda r: (len(r.support), r.support))
    return reports


def unique_ess(A) -> EquilibriumReport | None:
    """The single evolutionarily stable strategy of a CND game.

    Requires the payoff matrix to be conditionally negative definite, which
    forces every Nash equilibrium to be evolutionarily stable and at most one
    to exist: two stable strategies p, q would give ``(p-q).A.(p-q) >= 0`` on
    the zero-sum hyperplane.  Returns ``None`` only if enumeration found no
    nondegenerate equilibrium at all.
    """
    A = games.as_payoff_matrix(A)
    if not games.is_conditionally_negative_definite(A):
        raise PreconditionError(
            "conditionally-negative-definite",
            "unique_ess requires a conditionally negative definite payoff matrix",
        )
    reports = solve_all_equilibria(A)
    stable = [r for r in reports if r.is_ess]
    if len(stable) > 1:
        raise AssertionError(
            f"CND game produced {len(stable)} stable strategies; uniqueness violated"
        )
    if stable:
        return stable[0]
    return None
