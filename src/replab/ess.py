"""Equilibrium computation for symmetric games by support enumeration.

Every candidate support ``S`` gives a square linear system, equal payoffs on
``S`` and weights summing to one: ``[[A_SS, -1], [1, 0]] (w, c) = (0, 1)``.
Solutions surviving nonnegativity and the off-support best-reply inequality
are Nash equilibria and get classified by :mod:`replab.games` (Avis,
Rosenberg, Savani and von Stengel, Economic Theory 42, 2010).  For
conditionally negative definite games the unique evolutionarily stable
strategy found this way is the oracle for the war-of-attrition closed form.

Supports are visited in canonical order (by size, then lexicographically)
in groups of at most ``SUPPORT_BLOCK`` rows; a group may span several sizes.
Each same-size piece of a group is solved by one stacked LAPACK call and its
weights are scattered into full-length rows.  The array gates then run once
per group: one payoff product gives both the on-support residual and the
off-support gains.  Only the few survivors reach the scalar gates,
deduplication and classification.  Weights and support masks are stored
column-major, as transposes of (n, rows) arrays, so that each per-support
reduction of the gates runs across up to 4096 supports rather than along a
row of n entries.  A group's index tables and support masks depend on ``n``
alone; they are cached, read-only, when all ``2^n - 1`` supports fit in one
group (n <= 12), and built one group at a time for larger games, so memory
at n = 20 stays bounded by ``SUPPORT_BLOCK``.

The payoff matrix is checked once, where it enters a public function;
enumeration and classification then run on the checked array, with the CND
sign that ``unique_ess`` has already looked up.
"""

from __future__ import annotations

import functools
import itertools
import logging
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import games
from .errors import PreconditionError, ValidationError

log = logging.getLogger(__name__)

MAX_SUPPORT_N = 20          # 2^n - 1 supports are enumerated
SUPPORT_BLOCK = 4096        # supports per group, gated together (bounds memory at n = 20)
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


class _Piece(NamedTuple):
    """The supports of one size inside a group."""

    rows: slice             # their rows in the group
    gather: np.ndarray      # (k, m+1, m+1) flat indices into the bordered payoff matrix
    rhs: np.ndarray         # (m+1, 1) right-hand side (0, ..., 0, 1)
    # (k, m) flat indices of their weights in the column-major (rows, n) group:
    # weight j of row i sits at j * rows + i, so the gates reduce across supports
    scatter: np.ndarray


class _Group(NamedTuple):
    """Consecutive supports in canonical order, gated together."""

    pieces: tuple[_Piece, ...]
    # (rows, n) views of C-ordered (n, rows) arrays, so masked reductions over
    # a row's strategies run across supports
    on: np.ndarray          # support mask
    off: np.ndarray         # its complement


def _group(supports: list[tuple[int, ...]], n: int) -> _Group:
    """Index tables of ``supports`` (sorted by size) in an ``n``-strategy game."""
    pieces, start, total = [], 0, len(supports)
    for m, same in itertools.groupby(supports, len):
        S = np.array(list(same), dtype=np.intp)
        k = S.shape[0]
        # the system of support S is the (S + [n]) minor of [[A, -1], [1, 0]]
        T = np.hstack([S, np.full((k, 1), n, dtype=np.intp)])
        rows = np.arange(start, start + k, dtype=np.intp)
        pieces.append(_Piece(slice(start, start + k), T[:, :, None] * (n + 1) + T[:, None, :],
                             np.eye(m + 1)[:, m:], S * total + rows[:, None]))
        start += k
    on = np.zeros((n, total), dtype=bool)
    for piece in pieces:
        on.flat[piece.scatter] = True
    group = _Group(tuple(pieces), on.T, ~on.T)
    for a in (on, group.on, group.off, *(a for p in pieces for a in (p.gather, p.rhs, p.scatter))):
        a.flags.writeable = False
    return group


def _groups(n: int, block: int):
    """All ``2^n - 1`` supports, by size then lexicographically, ``block`` rows a group."""
    supports = itertools.chain.from_iterable(
        itertools.combinations(range(n), m) for m in range(1, n + 1))
    while chunk := list(itertools.islice(supports, block)):
        yield _group(chunk, n)


@functools.lru_cache(maxsize=16)      # n <= 12 at the default block
def _cached_groups(n: int, block: int) -> tuple[_Group, ...]:
    return tuple(_groups(n, block))


def _support_groups(n: int):
    """The groups of an ``n``-strategy game; cached only when they are a single group."""
    if 2**n - 1 <= SUPPORT_BLOCK:
        return _cached_groups(n, SUPPORT_BLOCK)
    return _groups(n, SUPPORT_BLOCK)


def _solve_pieces(A, group: _Group):
    """Solve the equal-payoff systems of the supports in ``group``.

    Returns ``(P, c, singular)``: the weights as full-length rows (zero off
    the support, unclipped, column-major), the common payoffs, and the number
    of singular systems, whose rows hold NaN.

    One ``np.linalg.solve`` per support size (3.5-4.7 us of wrapper each):
    padding every system to ``(n+1) x (n+1)`` with an identity block changes
    the solution bytes on numpy 2.4.6 / OpenBLAS 0.3.31 (2287 of the 2851 grid
    games appended, 1517 prepended), and the bare gufunc is private to numpy.
    """
    n = A.shape[0]
    bordered = np.zeros((n + 1, n + 1))
    bordered[:n, :n] = A
    bordered[:n, n] = -1.0
    bordered[n, :n] = 1.0
    PT = np.zeros(group.on.T.shape)     # (n, rows): P is its transpose
    c = np.empty(PT.shape[1])
    singular = 0
    for piece in group.pieces:
        lhs = bordered.take(piece.gather)
        try:
            sol = np.linalg.solve(lhs, piece.rhs)[:, :, 0]
        except np.linalg.LinAlgError:
            # some LU pivot is exactly zero; slogdet's sign is 0 exactly for those
            # systems (det itself can underflow to 0 for a nonsingular one)
            nonsingular = np.linalg.slogdet(lhs)[0] != 0.0
            singular += lhs.shape[0] - np.count_nonzero(nonsingular)
            sol = np.full(lhs.shape[:2], np.nan)
            sol[nonsingular] = np.linalg.solve(lhs[nonsingular], piece.rhs)[:, :, 0]
        PT.put(piece.scatter, sol[:, :-1])
        c[piece.rows] = sol[:, -1]
    return PT.T, c, singular


def _gate_group(A, group: _Group, rejected: Counter):
    """Supports of ``group`` passing the array gates, as ``(keep, P, c)``.

    The gates, in order: nonsingular, finite, nonnegative, equal-payoff
    residual (with the weight sum), off-support best reply.  ``rejected``
    counts the other rows by the first gate they fail, when DEBUG logging
    is on (only the debug line reads it).  ``keep`` masks the surviving rows;
    ``P`` holds their clipped full-length weights, in row order and C-ordered.

    Masks select through ``np.where``: exact for a maximum, and about twice
    as fast here as a ``where=`` reduction.
    """
    P, c, singular = _solve_pieces(A, group)
    finite = np.isfinite(c) & np.isfinite(P).all(axis=1)
    # weights vanish off the support, so the row minimum is the on-support one
    nonnegative = finite & (P.min(axis=1) >= -games.TIE_TOL)
    np.maximum(P, 0.0, out=P)
    with np.errstate(invalid="ignore", over="ignore"):
        gains = (A @ P.T).T - c[:, None]    # every pure reply against the common payoff
        residual = np.maximum(
            np.where(group.on, np.abs(gains), 0.0).max(axis=1),
            np.abs(P.sum(axis=1) - 1.0),
        )
        best_gain = np.where(group.off, gains, -np.inf).max(axis=1)
    equal = nonnegative & (residual <= _PREFILTER * EQUALIZE_TOL)
    best_reply = equal & (best_gain <= _PREFILTER * OFF_SUPPORT_TOL)
    if log.isEnabledFor(logging.DEBUG):
        # rows left after each gate of _GATES; each gate rejects the difference
        passed = [c.shape[0] - singular] + [np.count_nonzero(g) for g in
                                            (finite, nonnegative, equal, best_reply)]
        for gate, before, after in zip(_GATES, [c.shape[0]] + passed, passed):
            rejected[gate] += before - after
    return best_reply, P[best_reply], c[best_reply]


def _residual(A, sup, p: np.ndarray, c: float) -> float:
    """Equal-payoff residual of ``p`` on ``sup`` (indices or a mask), including the weight sum."""
    return max(
        float(abs(A[sup][:, sup] @ p[sup] - c).max()),
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
    for j in support:
        if isinstance(j, bool) or not isinstance(j, (int, np.integer)):
            raise ValidationError(f"support entries must be integers, got {j!r}")
    sup = sorted(set(int(j) for j in support))
    if not sup:
        raise ValidationError("support must be nonempty")
    if sup[0] < 0 or sup[-1] >= A.shape[0]:
        raise ValidationError("support index out of range")
    P, c, _ = _solve_pieces(A, _group([tuple(sup)], A.shape[0]))
    p, c = P[0], float(c[0])
    if not (np.isfinite(c) and np.isfinite(p).all() and p.min() >= -games.TIE_TOL):
        return None
    np.clip(p, 0.0, None, out=p)
    residual = _residual(A, sup, p, c)
    if residual > EQUALIZE_TOL:
        return None
    return p, c, residual


def solve_all_equilibria(A) -> list[EquilibriumReport]:
    """Enumerate all Nash equilibria with a nondegenerate support system.

    Supports are solved and gated in groups (see the module docstring);
    survivors of the array gates are then checked again, deduplicated and
    classified in the canonical order: by increasing size, lexicographically
    within a size.
    Duplicate strategies (within ``DEDUP_DISTANCE``) keep their first, i.e.
    smallest-support, occurrence.  One debug log line per game counts the
    supports visited and those rejected by each gate.
    """
    return _solve_all(games.as_payoff_matrix(A))


def _solve_all(A: np.ndarray, cnd: bool | None = None) -> list[EquilibriumReport]:
    """``solve_all_equilibria`` of a checked matrix; ``cnd`` is its CND sign
    if known (see ``games._classify_equilibrium``)."""
    n = A.shape[0]
    if n > MAX_SUPPORT_N:
        raise ValidationError(
            f"support enumeration visits 2^n - 1 supports; refusing n = {n} > {MAX_SUPPORT_N}"
        )
    rejected: Counter = Counter()
    reports: list[EquilibriumReport] = []
    for group in _support_groups(n):
        keep, P, cs = _gate_group(A, group, rejected)
        for p, on, off, c in zip(P, group.on[keep], group.off[keep], cs.tolist()):
            residual = _residual(A, on, p, c)
            if residual > EQUALIZE_TOL:
                rejected["residual"] += 1
                continue
            payoffs = A @ p
            gains = payoffs[off] - c
            slack = float(gains.max()) if gains.size else -np.inf
            if slack > OFF_SUPPORT_TOL:
                rejected["off-support"] += 1
                continue
            if any(np.linalg.norm(p - r.strategy) < DEDUP_DISTANCE for r in reports):
                continue
            status = games._classify_equilibrium(A, p, cnd)
            if status == games.NOT_NASH:
                continue
            actual_support = tuple((p > 0.0).nonzero()[0].tolist())
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
    if log.isEnabledFor(logging.DEBUG):
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
    if not games._is_cnd(A):
        raise PreconditionError(
            "conditionally-negative-definite",
            "the payoff matrix must be conditionally negative definite",
        )
    reports = _solve_all(A, cnd=True)
    stable = [r for r in reports if r.is_ess]
    if len(stable) > 1:
        raise AssertionError(
            f"CND game produced {len(stable)} stable strategies; uniqueness violated"
        )
    if stable:
        return stable[0]
    return None
