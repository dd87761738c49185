import hashlib
import itertools
import json
import logging
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from replab import attrition, ess, games
from replab.errors import PreconditionError, ValidationError
from util import exact_solve


def test_equalize_on_support_hand_cases(attrition_testbed_matrix):
    small = np.array([[0.5, 0.0], [1.0, -0.5]])
    p, c, residual = ess.equalize_on_support(small, [0, 1])
    assert np.allclose(p, [0.5, 0.5]) and c == pytest.approx(0.25)
    assert residual <= 1e-12

    p, c, _ = ess.equalize_on_support(small, [1])
    assert np.allclose(p, [0.0, 1.0]) and c == pytest.approx(-0.5)

    p, c, _ = ess.equalize_on_support(attrition_testbed_matrix, [0, 1, 2])
    assert np.allclose(p, [0.6, 0.2, 0.2], atol=1e-12)
    assert c == pytest.approx(0.3)
    assert np.allclose(attrition_testbed_matrix @ p, 0.3, atol=1e-12)


def test_equalize_degenerate_and_negative():
    # identical rows make the equal-payoff system singular
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert ess.equalize_on_support(A, [0, 1]) is None
    # PD full support forces a negative weight
    PD = np.array([[3.0, 0.0], [5.0, 1.0]])
    assert ess.equalize_on_support(PD, [0, 1]) is None
    with pytest.raises(ValidationError):
        ess.equalize_on_support(PD, [])


@pytest.mark.parametrize("support", [[0, 1.7], [True, 2], [np.True_], ["1"], [0, None]])
def test_equalize_on_support_rejects_non_integer_entries(support):
    with pytest.raises(ValidationError, match="support entries must be integers"):
        ess.equalize_on_support(np.eye(3), support)


def test_equalize_on_support_accepts_numpy_integers():
    small = np.array([[0.5, 0.0], [1.0, -0.5]])
    p, c, _ = ess.equalize_on_support(small, [0, 1])
    for support in (np.array([0, 1]), (np.int32(1), 0), range(2)):
        q, d, _ = ess.equalize_on_support(small, support)
        assert q.tobytes() == p.tobytes() and d == c


def test_solve_all_identity_game():
    reports = ess.solve_all_equilibria(np.eye(2))
    statuses = [(r.support, r.status) for r in reports]
    assert statuses == [
        ((0,), games.STRICT_NASH),
        ((1,), games.STRICT_NASH),
        ((0, 1), games.ESS_REFUTED),
    ]
    mixed = reports[-1]
    assert np.allclose(mixed.strategy, [0.5, 0.5])
    assert mixed.common_payoff == pytest.approx(0.5)


def test_solve_all_respects_report_invariants(attrition_testbed_matrix):
    for r in ess.solve_all_equilibria(attrition_testbed_matrix):
        off = [j for j in range(3) if j not in r.support]
        payoffs = attrition_testbed_matrix @ r.strategy
        assert np.all(np.abs(payoffs[list(r.support)] - r.common_payoff) <= 1e-9)
        if off:
            assert np.all(payoffs[off] <= r.common_payoff + 1e-9)
        assert np.all(r.strategy[off] == 0.0)


def test_strict_vertices_always_reported():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        A = rng.standard_normal((n, n))
        reports = {r.support: r for r in ess.solve_all_equilibria(A)}
        for k in range(n):
            if all(A[k, k] > A[j, k] + 1e-12 for j in range(n) if j != k):
                assert (k,) in reports
                assert reports[(k,)].status == games.STRICT_NASH


@given(st.floats(min_value=-5.0, max_value=5.0))
def test_solve_all_invariant_under_constant_shift(shift):
    A = np.array([[0.5, 0.0, 0.0], [1.0, -0.5, -1.0], [1.0, 0.0, -1.5]])
    base = ess.solve_all_equilibria(A)
    moved = ess.solve_all_equilibria(A + shift)
    assert len(base) == len(moved)
    for rb, rm in zip(base, moved):
        assert rb.support == rm.support
        assert np.max(np.abs(rb.strategy - rm.strategy)) <= 1e-9


def test_solve_all_refuses_large_games():
    with pytest.raises(ValidationError):
        ess.solve_all_equilibria(np.zeros((21, 21)))


def test_unique_ess_requires_cnd():
    with pytest.raises(PreconditionError):
        ess.unique_ess(np.eye(2))


def test_solve_all_checks_its_matrix():
    A = np.eye(3)
    A[0, 1] = np.inf
    with pytest.raises(ValidationError, match="non-finite"):
        ess.solve_all_equilibria(A)


def test_unique_ess_values(attrition_testbed_matrix):
    small = np.array([[0.5, 0.0], [1.0, -0.5]])
    assert np.allclose(ess.unique_ess(small).strategy, [0.5, 0.5])
    assert np.allclose(ess.unique_ess(-np.eye(2)).strategy, [0.5, 0.5])
    report = ess.unique_ess(attrition_testbed_matrix)
    assert np.allclose(report.strategy, [0.6, 0.2, 0.2], atol=1e-12)
    assert report.is_ess


def test_unique_ess_vertex_case():
    from replab import attrition

    B = attrition.perturbed_matrix(attrition.ConstantAttritionSpec(n=2, v=4.0))
    report = ess.unique_ess(B)
    assert np.allclose(report.strategy, [0.0, 0.0, 1.0])
    assert report.is_ess


def test_cnd_games_have_exactly_one_stable_strategy():
    rng = np.random.default_rng(9)
    tested = 0
    while tested < 15:
        n = int(rng.integers(2, 6))
        A = rng.standard_normal((n, n)) * 2.0
        if games.cnd_status(games.second_eigenvalue(A)) != "negative":
            continue
        tested += 1
        reports = ess.solve_all_equilibria(A)
        stable = [r for r in reports if r.is_ess]
        assert len(stable) == 1
        # two distinct stable strategies would put a nonnegative value of the
        # form on a zero-sum difference, impossible here
        assert games.second_eigenvalue(A) < 0.0


# Digests computed with the scalar support loop (one np.linalg.solve per
# support) that the stacked solves replaced; the outputs must not move a bit.
GOLDEN_GRID_DIGEST = "9202bf73bd3a449d5f4b95146e3fdb01d53fd5cf8929b7d6dc39b6dd1eb1a1c1"
GOLDEN_TESTBED_DIGESTS = {
    "attrition_game": "36433ba9468915c05fcb9b30840c2035af699295b8347be07065120c515c92b1",
    "coordination": "96efa6a83850e0395332c1ac45fa666330a0576e51768cef87e8caa7bd7f85d7",
    "mixed_dominance": "aa12837b340a364b54938098c1e6a80df6d280ff650c1d168992bbb3eda538ff",
    "prisoners_dilemma": "58d25c84c96504d5b73948993130c46754e1f9bd1c7bfa4cfdb4be7bad4beab5",
}
GOLDEN_TWIN_DIGEST = "98f397963196d2211ae98c50f5543ed59a1222a415d7aa969209d3fddd7e90e4"
TESTBEDS = Path(__file__).resolve().parent.parent / "testbeds"
# rows 0 and 1 are equal: every support holding both has a singular system
TWIN_ROWS = np.array([[0.0, 2.0, 1.0, 3.0], [0.0, 2.0, 1.0, 3.0],
                      [3.0, 0.0, 2.0, 1.0], [1.0, 3.0, 0.0, 2.0]])


def reports_digest(A) -> str:
    h = hashlib.sha256()
    for r in ess.solve_all_equilibria(A):
        h.update(r.strategy.tobytes())
        h.update(json.dumps([list(r.support), r.common_payoff, r.status,
                             r.equal_payoff_residual, r.off_support_slack]).encode())
    return h.hexdigest()


def test_golden_unique_ess_grid_digest():
    h = hashlib.sha256()
    specs = attrition.ess_sweep_rows(range(1, 9), (0.0, 0.1, 0.2, 0.4))
    assert len(specs) == 2851
    for spec in specs:
        r = ess.unique_ess(attrition.perturbed_matrix(spec))
        h.update(r.strategy.tobytes())
        h.update(json.dumps([list(r.support), r.common_payoff, r.status]).encode())
    assert h.hexdigest() == GOLDEN_GRID_DIGEST


def test_every_sweep_row_is_certified_in_exact_arithmetic():
    # On the closed form's support, the equalizer system of the exact values of
    # the floats in perturbed_matrix has positive weights, and no strategy off the
    # support earns more than the common payoff.  The only ties are strategy 0
    # against the maximum-effort vertex, exactly where v = 2n + 2 rho.
    specs = attrition.ess_sweep_rows(range(1, 9), (0.0, 0.1, 0.2, 0.4))
    assert len(specs) == 2851
    ties, threshold_vertices, gap = [], [], 0.0
    for spec in specs:
        p = attrition.closed_form_ess(spec).strategy
        support = np.flatnonzero(p > 0.0).tolist()
        M = attrition.perturbed_matrix(spec)
        k = len(support)
        *weights, payoff = exact_solve([[M[i, j] for j in support] + [-1.0] for i in support]
                                       + [[1.0] * k + [0.0]], [0.0] * k + [1.0])
        assert min(weights) > 0, spec
        for j in sorted(set(range(spec.n + 1)) - set(support)):
            off = sum(Fraction(float(M[j, i])) * w for i, w in zip(support, weights))
            assert off <= payoff, (spec, j)
            if off == payoff:
                ties.append((spec, j))
        gap = max(gap, max(abs(float(w) - p[i]) for i, w in zip(support, weights)))
        if Fraction(spec.v) == 2 * spec.n + 2 * Fraction(spec.rho):
            assert support == [spec.n], spec
            threshold_vertices.append(spec)
    assert gap < 1e-13
    assert len(ties) == 26
    assert ties == [(spec, 0) for spec in threshold_vertices]


def test_sweep_script_prints_the_golden_grid_digest(tmp_path):
    script = Path(__file__).resolve().parent.parent / "scripts" / "ess_sweep.py"
    done = subprocess.run([sys.executable, str(script), "--check", "--out", str(tmp_path / "sweep")],
                          capture_output=True, text=True, cwd=tmp_path, timeout=300)
    assert done.returncode == 0, done.stderr
    assert f"grid digest {GOLDEN_GRID_DIGEST}" in done.stdout


@pytest.mark.parametrize("name", sorted(GOLDEN_TESTBED_DIGESTS))
def test_golden_testbed_reports_digest(name):
    A = json.loads((TESTBEDS / f"{name}.json").read_text())["A"]
    assert reports_digest(A) == GOLDEN_TESTBED_DIGESTS[name]


def test_unique_ess_checks_its_matrix_once(monkeypatch):
    spec = attrition.ess_sweep_rows(range(4, 5), (0.2,))[7]
    A = attrition.perturbed_matrix(spec)
    games._second_eigenvalue.cache_clear()
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(games, "as_payoff_matrix", counted("validations", games.as_payoff_matrix))
    monkeypatch.setattr(games, "_second_eigenvalue", counted("lookups", games._second_eigenvalue))
    report = ess.unique_ess(A)
    assert report.is_ess
    assert calls == {"validations": 1, "lookups": 1}


def test_private_classification_agrees_with_public():
    rng = np.random.default_rng(1515)
    grid = attrition.ess_sweep_rows(range(1, 5), (0.0, 0.4))
    matrices = [TWIN_ROWS, np.eye(3), np.zeros((3, 3))]
    matrices += [attrition.perturbed_matrix(grid[i]) for i in rng.choice(len(grid), 6)]
    matrices += [rng.integers(-2, 3, (n, n)).astype(float) for n in (2, 3, 3, 4, 5, 6)]
    seen = set()
    for A in matrices:
        n = A.shape[0]
        cnd = games.cnd_status(games.second_eigenvalue(A)) == "negative"
        points = [r.strategy for r in ess.solve_all_equilibria(A)]
        points += list(rng.dirichlet(np.ones(n), size=3)) + [games.vertex(n, 0)]
        for p in points:
            status = games.classify_equilibrium(A, p)
            assert games._classify_equilibrium(A, p, cnd) == status, (A, p)
            assert games._classify_equilibrium(A, p) == status, (A, p)
            seen.add((cnd, status))
    assert {status for _, status in seen} == {
        games.NOT_NASH, games.STRICT_NASH, games.ESS_CERTIFIED, games.ESS_REFUTED,
        games.UNDETERMINED}
    assert (True, games.ESS_CERTIFIED) in seen and (False, games.ESS_CERTIFIED) in seen


def test_singular_supports_are_masked_not_the_rest():
    # size 2 mixes the singular support (0, 1) with nonsingular ones
    assert ess.equalize_on_support(TWIN_ROWS, [0, 1]) is None
    assert ess.equalize_on_support(TWIN_ROWS, [1, 2]) is not None
    reports = ess.solve_all_equilibria(TWIN_ROWS)
    assert [(r.support, r.status) for r in reports] == [
        ((2,), games.STRICT_NASH),
        ((1, 2), games.ESS_REFUTED),
        ((1, 3), games.UNDETERMINED),
    ]
    assert reports_digest(TWIN_ROWS) == GOLDEN_TWIN_DIGEST


def test_rejected_supports_are_counted_per_gate(caplog):
    with caplog.at_level(logging.DEBUG, logger="replab.ess"):
        ess.solve_all_equilibria(TWIN_ROWS)
    lines = [rec.getMessage() for rec in caplog.records if rec.name == "replab.ess"]
    assert lines == [
        "support enumeration, n = 4: 15 supports visited; rejected 4 singular, "
        "0 non-finite, 3 negative weight, 0 residual, 5 off-support"
    ]


# Integer games, seeded by n, past the size (8 entries) where numpy sums a
# row pairwise; the column-major gates sum across supports and may round the
# weight sums differently.  Gate counts and digests were computed with the
# row-major gates of the previous release.
LARGE_GAMES = {
    8: (None, "255 supports visited; rejected 5 singular, 0 non-finite, "
        "157 negative weight, 0 residual, 73 off-support",
        "803a448dea387a793e030ef55e1ba6eff8a6055cb2c481c52fa20cecdd02bfab"),
    9: ((2, 6), "511 supports visited; rejected 107 singular, 0 non-finite, "
        "345 negative weight, 0 residual, 40 off-support",
        "278a95ab58833dc79cebf3e84fa73155920ac93c327c562d78bb4e4afc61699a"),
    10: (None, "1023 supports visited; rejected 4 singular, 0 non-finite, "
         "867 negative weight, 0 residual, 144 off-support",
         "07d93b48c62544c408eb10df44a1344770bd40b9cf995399ad45592d8500832a"),
}


@pytest.mark.parametrize("n", sorted(LARGE_GAMES))
def test_large_games_keep_gate_counts_and_digest(n, caplog):
    twins, line, digest = LARGE_GAMES[n]
    A = np.random.default_rng(n).integers(-3, 4, (n, n)).astype(float)
    if twins:
        A[twins[0]] = A[twins[1]]
    with caplog.at_level(logging.DEBUG, logger="replab.ess"):
        got = reports_digest(A)
    assert [rec.getMessage() for rec in caplog.records if rec.name == "replab.ess"] == [
        f"support enumeration, n = {n}: {line}"]
    assert got == digest


def test_stacked_blocks_match_one_block(monkeypatch):
    rng = np.random.default_rng(11)
    A = rng.integers(-2, 3, (7, 7)).astype(float)
    A[3] = A[5]
    whole = reports_digest(A)
    monkeypatch.setattr(ess, "SUPPORT_BLOCK", 3)
    assert reports_digest(A) == whole


def reference_enumeration(A):
    """One support at a time: ``equalize_on_support``, the scalar best-reply
    check, deduplication and ``classify_equilibrium``, in canonical order."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    found = []
    for size in range(1, n + 1):
        for sup in itertools.combinations(range(n), size):
            solved = ess.equalize_on_support(A, sup)
            if solved is None:
                continue
            p, c, _ = solved
            off = [j for j in range(n) if j not in sup]
            if off and float(np.max((A @ p)[off] - c)) > ess.OFF_SUPPORT_TOL:
                continue
            if any(np.linalg.norm(p - q) < ess.DEDUP_DISTANCE for q, _, _ in found):
                continue
            status = games.classify_equilibrium(A, p)
            if status != games.NOT_NASH:
                found.append((p, tuple(int(j) for j in np.flatnonzero(p > 0.0)), status))
    found.sort(key=lambda f: (len(f[1]), f[1]))
    return [(support, status, p.tobytes()) for p, support, status in found]


def test_grouped_enumeration_matches_scalar_reference():
    rng = np.random.default_rng(2010)
    for trial in range(46):
        # 40 games with n = 2..6, then n = 7, 7, 8, 8, 9, 9 (numpy sums 8+ entries pairwise)
        n = int(rng.integers(2, 7)) if trial < 40 else 7 + (trial - 40) // 2
        A = rng.integers(-2, 3, (n, n)).astype(float)    # small range: many payoff ties
        if trial % 2:
            i, j = rng.choice(n, 2, replace=False)
            A[i] = A[j]                                  # twin rows: singular supports
        got = [(r.support, r.status, r.strategy.tobytes()) for r in ess.solve_all_equilibria(A)]
        assert got == reference_enumeration(A), A


def test_support_tables_are_cached_read_only():
    groups = ess._support_groups(5)
    assert groups is ess._support_groups(5)
    [group] = groups                                     # 31 supports: one group
    assert [piece.rows for piece in group.pieces] == [
        slice(0, 5), slice(5, 15), slice(15, 25), slice(25, 30), slice(30, 31)]
    for table in (group.on, group.off, group.pieces[1].gather, group.pieces[1].scatter):
        with pytest.raises(ValueError):
            table.flat[0] = 0
    # column-major: the gates reduce across supports, not along short rows
    assert group.on.T.flags.c_contiguous and group.off.T.flags.c_contiguous
    P, _, _ = ess._solve_pieces(np.eye(5), group)
    assert P.flags.f_contiguous and P.shape == (31, 5)


def test_small_block_cuts_games_into_uncached_groups(monkeypatch):
    rng = np.random.default_rng(11)
    A = rng.integers(-2, 3, (7, 7)).astype(float)
    A[3] = A[5]
    whole = reports_digest(A)
    sizes = []
    gate_group = ess._gate_group

    def counted(A, group, rejected):
        sizes.append((group.on.shape[0], len(group.pieces)))
        return gate_group(A, group, rejected)

    monkeypatch.setattr(ess, "SUPPORT_BLOCK", 3)
    monkeypatch.setattr(ess, "_gate_group", counted)
    cached = ess._cached_groups.cache_info().currsize
    assert reports_digest(A) == whole
    assert len(sizes) == 43                              # ceil(127 / 3)
    assert all(rows <= 3 for rows, _ in sizes)
    assert sizes[2] == (3, 2)                            # supports (6,), (0, 1), (0, 2)
    assert ess._cached_groups.cache_info().currsize == cached
    monkeypatch.setattr(ess, "SUPPORT_BLOCK", 4096)
    assert sum(g.on.shape[0] for g in ess._support_groups(13)) == 2**13 - 1
    assert ess._cached_groups.cache_info().currsize == cached
