import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from replab import games
from replab.errors import ValidationError

from util import random_interior_points, random_zero_sum_directions

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def square_matrices(max_n=8):
    return st.integers(min_value=2, max_value=max_n).flatmap(
        lambda n: st.lists(
            st.lists(finite, min_size=n, max_size=n), min_size=n, max_size=n
        ).map(np.array)
    )


# ---------------------------------------------------------------------------
# validators


def test_payoff_matrix_validation():
    with pytest.raises(ValidationError):
        games.as_payoff_matrix([[1.0, 2.0]])
    with pytest.raises(ValidationError):
        games.as_payoff_matrix([[1.0]])
    with pytest.raises(ValidationError):
        games.as_payoff_matrix([[np.inf, 0.0], [0.0, 0.0]])


def test_simplex_validation():
    games.as_simplex_point([0.5, 0.5], interior=True)
    games.as_simplex_point([0.0, 1.0])
    with pytest.raises(ValidationError):
        games.as_simplex_point([0.0, 1.0], interior=True)
    with pytest.raises(ValidationError):
        games.as_simplex_point([0.6, 0.6])
    with pytest.raises(ValidationError):
        games.as_simplex_point([-0.1, 1.1])


def test_noise_validation():
    with pytest.raises(ValidationError):
        games.as_noise_vector([1.0, 0.0], 2)
    with pytest.raises(ValidationError):
        games.as_noise_vector([1.0], 2)


# ---------------------------------------------------------------------------
# centered symmetrization and its second eigenvalue


def test_centered_symmetrization_hand_values():
    assert np.allclose(games.centered_symmetrization(np.zeros((2, 2))), 0.0)
    D = games.centered_symmetrization(-np.eye(2))
    assert np.allclose(D, [[-0.5, 0.5], [0.5, -0.5]], atol=1e-14)
    D2 = games.centered_symmetrization([[0.5, 0.0], [1.0, -0.5]])
    assert np.allclose(D2, [[-0.25, 0.25], [0.25, -0.25]], atol=1e-14)
    # form agreement on a zero-sum direction
    y = np.array([1.0, -1.0])
    A = np.array([[0.5, 0.0], [1.0, -0.5]])
    assert np.isclose(y @ D2 @ y, y @ A @ y, atol=1e-14)


def test_centered_symmetrization_kernel_up_to_n12():
    rng = np.random.default_rng(21)
    for n in range(2, 13):
        for _ in range(10):
            A = rng.standard_normal((n, n)) * 10.0
            D = games.centered_symmetrization(A)
            assert np.max(np.abs(D @ np.ones(n))) <= 1e-12 * max(1.0, np.abs(A).max())


@given(square_matrices())
def test_centered_symmetrization_properties(A):
    D = games.centered_symmetrization(A)
    n = A.shape[0]
    assert np.allclose(D, D.T, atol=1e-12)
    assert np.max(np.abs(D @ np.ones(n))) <= 1e-12 * max(1.0, np.abs(A).max())
    rng = np.random.default_rng(0)
    ys = random_zero_sum_directions(rng, n, 32)
    lhs = np.einsum("ij,jk,ik->i", ys, D, ys)
    rhs = np.einsum("ij,jk,ik->i", ys, np.asarray(A, dtype=float), ys)
    assert np.allclose(lhs, rhs, atol=1e-9 * max(1.0, np.abs(A).max()))


def test_second_eigenvalue_hand_values():
    assert games.second_eigenvalue(np.zeros((3, 3))) == pytest.approx(0.0, abs=1e-12)
    assert games.second_eigenvalue(-np.eye(2)) == pytest.approx(-1.0, abs=1e-12)
    assert games.second_eigenvalue([[0.5, 0.0], [1.0, -0.5]]) == pytest.approx(-0.5, abs=1e-12)


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_rayleigh_quotient_is_maximized_by_lambda2(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    A = rng.standard_normal((n, n)) * 3.0
    lam2 = games.second_eigenvalue(A)
    ys = random_zero_sum_directions(rng, n, 1000)
    quotients = np.einsum("ij,jk,ik->i", ys, A, ys)
    assert np.all(quotients <= lam2 + 1e-9)
    # with the top zero-sum eigenvector included, the sampled maximum is tight
    D = games.centered_symmetrization(A)
    Q = games._zero_sum_basis(n)
    _, V = np.linalg.eigh(Q.T @ D @ Q)
    top = Q @ V[:, -1]      # eigh sorts ascending: the last column is the top one
    top /= np.linalg.norm(top)
    best = max(float(quotients.max()), float(top @ A @ top))
    assert lam2 - best < 1e-3


def cnd_status(A) -> str:
    return games.cnd_status(games.second_eigenvalue(A))


def test_cnd_statuses(mixed_dominance_matrix):
    assert cnd_status(-np.eye(2)) == "negative"
    assert cnd_status(np.eye(2)) == "nonnegative"
    assert cnd_status(np.zeros((2, 2))) == "boundary"
    assert cnd_status(mixed_dominance_matrix) == "nonnegative"
    assert games.second_eigenvalue(mixed_dominance_matrix) == pytest.approx(math.sqrt(3.0))


def test_cnd_agrees_with_brute_force_signs():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        A = rng.standard_normal((n, n)) * 2.0
        ys = random_zero_sum_directions(rng, n, 10_000)
        forms = np.einsum("ij,jk,ik->i", ys, A, ys)
        verdict = cnd_status(A) == "negative"
        if verdict:
            assert np.all(forms < 0.0)
        lam2 = games.second_eigenvalue(A)
        if lam2 > 1e-6:
            assert np.any(forms > 0.0)


# ---------------------------------------------------------------------------
# divergence, noise scale, thresholds


def test_kl_distance_values():
    assert games.kl_distance([0.5, 0.5], [0.5, 0.5]) == 0.0
    expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    assert games.kl_distance([0.25, 0.75], [0.5, 0.5]) == pytest.approx(expected, abs=1e-15)
    assert games.kl_distance([0.25, 0.75], [0.5, 0.5]) == pytest.approx(0.14384, abs=1e-5)
    assert games.kl_distance([0.25, 0.75], [0.0, 1.0]) == pytest.approx(math.log(4.0 / 3.0), abs=1e-15)
    with pytest.raises(ValidationError):
        games.kl_distance([0.0, 1.0], [0.5, 0.5])


def test_kl_nonnegative_on_grids():
    rng = np.random.default_rng(5)
    for n in (2, 3, 5):
        xs = random_interior_points(rng, n, 60)
        ps = random_interior_points(rng, n, 60)
        for x, p in zip(xs, ps):
            d = games.kl_distance(x, p)
            assert d >= 0.0
            if np.max(np.abs(x - p)) > 1e-6:
                assert d > 0.0
        for x in xs[:10]:
            assert games.kl_distance(x, x) == pytest.approx(0.0, abs=1e-12)


def test_aggregate_noise_values():
    assert games.aggregate_noise([0.5, 0.5], [1.0, 1.0]) == pytest.approx(0.5)
    assert games.aggregate_noise([0.3, 0.7], [2.0, 2.0]) == pytest.approx(1.0)
    for n in (2, 4, 7):
        sigma = 0.7
        expected = math.sqrt(sigma**2 * (n - 1) / (2 * n))
        p = np.random.default_rng(1).dirichlet(np.ones(n))
        assert games.aggregate_noise(p, [sigma] * n) == pytest.approx(expected)


@given(
    st.integers(min_value=2, max_value=8).flatmap(
        lambda n: st.tuples(
            st.lists(st.floats(min_value=1e-3, max_value=10.0), min_size=n, max_size=n),
            st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=n, max_size=n),
        )
    )
)
def test_aggregate_noise_nonnegative(args):
    sig, raw = args
    p = np.array(raw) / np.sum(raw)
    assert games.aggregate_noise(p, sig) >= 0.0


def test_noise_threshold_condition():
    assert games.noise_below_attraction_threshold([0.5, 0.5], [1.0, 1.0], -1.0)
    assert not games.noise_below_attraction_threshold([0.5, 0.5], [4.0, 4.0], -1.0)
    assert not games.noise_below_attraction_threshold([0.0, 1.0], [1.0, 1.0], -1.0)
    with pytest.raises(ValidationError):
        games.noise_below_attraction_threshold([0.5, 0.5], [1.0, 1.0], 0.5)


def test_effective_payoff_matrix():
    A = np.array([[3.0, 0.0], [5.0, 1.0]])
    B = games.effective_payoff_matrix(A, [1.0, 2.0])
    assert np.allclose(B, [[2.0, 0.0], [5.0, -3.0]])
    tiny = games.effective_payoff_matrix(A, [1e-6, 1e-6])
    assert np.max(np.abs(tiny - A)) <= 1e-12 * (1.0 + np.abs(A).max())
    assert np.allclose(games.effective_payoff_matrix(np.eye(2), [1.0, 1.0]), 0.0)


# ---------------------------------------------------------------------------
# dominance


def test_verify_dominance_cases(pd_matrix, mixed_dominance_matrix):
    res = games.verify_dominance(mixed_dominance_matrix, 0, [0.0, 0.5, 0.5])
    assert res.kind == "strict" and res.margin == pytest.approx(0.5)
    res = games.verify_dominance(pd_matrix, 0, [0.0, 1.0])
    assert res.kind == "strict" and res.margin == pytest.approx(1.0)
    assert games.verify_dominance(np.zeros((3, 3)), 1, [1.0, 0.0, 0.0]).kind == "none"
    with pytest.raises(ValidationError):
        games.verify_dominance(pd_matrix, 0, [1.0, 0.0])


def test_weak_dominance_detected():
    # strategy 1 ties strategy 0 against column 0 and loses against column 1
    A = np.array([[1.0, 2.0], [1.0, 1.0]])
    res = games.verify_dominance(A, 1, [1.0, 0.0])
    assert res.kind == "weak"
    assert res.margin == pytest.approx(0.0, abs=1e-12)


@given(square_matrices(max_n=5), st.data())
def test_dominance_invariant_under_column_shifts(A, data):
    n = A.shape[0]
    k = data.draw(st.integers(min_value=0, max_value=n - 1))
    col = data.draw(st.integers(min_value=0, max_value=n - 1))
    shift = data.draw(st.floats(min_value=-10.0, max_value=10.0))
    p = np.full(n, 1.0 / n)
    p[k] = 0.0
    p /= p.sum()
    base = games.verify_dominance(A, k, p)
    shifted = A.copy().astype(float)
    shifted[:, col] += shift
    moved = games.verify_dominance(shifted, k, p)
    assert base.kind == moved.kind
    assert base.margin == pytest.approx(moved.margin, abs=1e-9)


def test_best_dominating_mix(pd_matrix, mixed_dominance_matrix):
    p, margin = games.best_dominating_mix(pd_matrix, 0)
    assert np.allclose(p, [0.0, 1.0]) and margin == pytest.approx(1.0)
    p, margin = games.best_dominating_mix(mixed_dominance_matrix, 0)
    assert margin >= 0.5 - 1e-12
    assert games.verify_dominance(mixed_dominance_matrix, 0, p).kind == "strict"
    assert games.best_dominating_mix(np.zeros((3, 3)), 0) is None


def test_best_dominating_mix_weak_case():
    A = np.array([[1.0, 2.0], [1.0, 1.0]])
    p, margin = games.best_dominating_mix(A, 1)
    assert margin == pytest.approx(0.0, abs=1e-12)
    assert games.verify_dominance(A, 1, p).kind == "weak"


# ---------------------------------------------------------------------------
# equilibrium classification


def test_classify_pd(pd_matrix):
    assert games.classify_equilibrium(pd_matrix, [0.0, 1.0]) == games.STRICT_NASH
    assert games.classify_equilibrium(pd_matrix, [1.0, 0.0]) == games.NOT_NASH


def test_classify_attrition_mix(attrition_testbed_matrix):
    small = np.array([[0.5, 0.0], [1.0, -0.5]])
    assert games.classify_equilibrium(small, [0.5, 0.5]) == games.ESS_CERTIFIED
    assert games.classify_equilibrium(attrition_testbed_matrix, [0.6, 0.2, 0.2]) == games.ESS_CERTIFIED


def test_classify_refutes_mixed_coordination():
    assert games.classify_equilibrium(np.eye(2), [0.5, 0.5]) == games.ESS_REFUTED


def test_classify_degenerate_game():
    assert games.classify_equilibrium(np.zeros((2, 2)), [0.5, 0.5]) == games.UNDETERMINED


@pytest.mark.parametrize("A", [np.ones((2, 3)), [[0.0, np.nan], [1.0, 0.0]],
                               [[0.0, 1.0], [np.inf, 0.0]]])
def test_classify_equilibrium_checks_its_matrix(A):
    with pytest.raises(ValidationError, match="square|non-finite"):
        games.classify_equilibrium(A, [0.5, 0.5])


@pytest.mark.parametrize("p, message", [
    ([1.0], "length 2"),
    ([0.2, 0.3, 0.5], "length 2"),
    ([0.6, 0.6], "sum"),
    ([1.5, -0.5], "nonnegative"),
    ([np.nan, 1.0], "non-finite"),
])
def test_classify_equilibrium_checks_its_point(p, message):
    with pytest.raises(ValidationError, match=message):
        games.classify_equilibrium(np.eye(2), p)


def test_centered_symmetrization_checks_its_matrix():
    A = np.eye(3)
    A[1, 2] = np.nan
    with pytest.raises(ValidationError, match="non-finite"):
        games.centered_symmetrization(A)


@given(square_matrices(max_n=4), st.data())
def test_classify_invariant_under_column_shifts(A, data):
    n = A.shape[0]
    col = data.draw(st.integers(min_value=0, max_value=n - 1))
    shift = data.draw(st.floats(min_value=-5.0, max_value=5.0))
    p = np.full(n, 1.0 / n)
    shifted = A.copy().astype(float)
    shifted[:, col] += shift
    assert games.classify_equilibrium(A, p) == games.classify_equilibrium(shifted, p)


def test_noise_robust_strict_nash(pd_matrix):
    assert games.noise_robust_strict_nash(pd_matrix, [0.5, 0.5], 1)
    assert not games.noise_robust_strict_nash(pd_matrix, [0.5, math.sqrt(1.5)], 1)
    assert not games.noise_robust_strict_nash(pd_matrix, [0.5, 0.5], 0)
    # vanishing noise recovers the plain strict Nash test
    assert games.noise_robust_strict_nash(pd_matrix, [1e-9, 1e-9], 1)


def test_is_coordination_game(pd_matrix, coordination_matrix):
    assert games.is_coordination_game(coordination_matrix, [0.1, 0.1, 0.1])
    assert not games.is_coordination_game(pd_matrix, [0.1, 0.1])
    sig = [math.sqrt(3.0), 0.1, 0.1]
    assert not games.is_coordination_game(coordination_matrix, sig)


# ---------------------------------------------------------------------------
# regions


def test_region_membership():
    ball = games.Region.ball([0.5, 0.5], 0.1)
    assert ball.contains([0.5, 0.5])
    assert not ball.contains([0.9, 0.1])
    anyv = games.Region.any_vertex_neighborhood(0.05)
    assert anyv.contains([0.97, 0.03]) and anyv.contains([0.02, 0.98])
    assert not anyv.contains([0.5, 0.5])
    states = np.array([[0.5, 0.5], [0.01, 0.99]])
    assert list(anyv.contains(states)) == [False, True]
    assert list(ball.contains(states)) == [True, False]
    assert isinstance(ball.contains([0.5, 0.5]), bool)
    stack = np.array([[[0.5, 0.5], [0.01, 0.99]], [[0.97, 0.03], [0.55, 0.45]]])
    for region in (ball, anyv):
        got = region.contains(stack)
        assert got.shape == (2, 2)
        assert got.tolist() == [[region.contains(s) for s in row] for row in stack]
    with pytest.raises(ValidationError):
        games.Region.ball([0.5, 0.5], 0.0)
    with pytest.raises(ValidationError):
        games.Region.any_vertex_neighborhood(1.5)
    with pytest.raises(ValidationError, match="unknown region kind 'cube'"):
        games.Region(kind="cube").contains([0.5, 0.5])


def test_second_eigenvalue_sees_in_place_changes():
    A = np.array([[0.0, 2.0], [1.0, 0.0]])
    # n = 2: the one zero-sum direction gives (a00 - a01 - a10 + a11) / 2
    assert games.second_eigenvalue(A) == pytest.approx(-1.5, abs=1e-12)
    A[0, 1] = -5.0
    assert games.second_eigenvalue(A) == pytest.approx(2.0, abs=1e-12)


def test_zero_sum_basis_is_cached_read_only():
    Q = games._zero_sum_basis(4)
    assert Q is games._zero_sum_basis(4)
    with pytest.raises(ValueError):
        Q[0, 0] = 1.0
