import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from replab import attrition, bounds, engine, ess, games
from replab.errors import PreconditionError, ValidationError

from util import cofactor_det, u_complex


def spec_n2() -> attrition.ConstantAttritionSpec:
    return attrition.ConstantAttritionSpec(n=2, v=1.0)


def random_general_spec(rng: np.random.Generator, n: int) -> attrition.AttritionSpec:
    costs = np.concatenate([[rng.uniform(0.0, 0.5)], np.zeros(n)])
    costs[1:] = rng.uniform(0.2, 1.5, size=n)
    costs = np.cumsum(costs)
    base = rng.uniform(0.5, 3.0)
    drops = rng.uniform(0.0, 0.2, size=n)
    rewards = base - np.concatenate([[0.0], np.cumsum(drops)])
    rewards = np.maximum(rewards, 0.05)
    rewards = np.minimum.accumulate(rewards)
    rho = rng.uniform(0.0, 0.49, size=n + 1) * rewards
    return attrition.AttritionSpec(costs=tuple(costs), rewards=tuple(rewards), rho=tuple(rho))


# ---------------------------------------------------------------------------
# specs and matrices


def test_spec_validation():
    with pytest.raises(ValidationError):
        attrition.AttritionSpec(costs=(0.0, 0.0), rewards=(1.0, 1.0), rho=(0.0, 0.0))
    with pytest.raises(ValidationError):
        attrition.AttritionSpec(costs=(0.0, 1.0), rewards=(1.0, 2.0), rho=(0.0, 0.0))
    with pytest.raises(ValidationError):
        attrition.AttritionSpec(costs=(0.0, 1.0), rewards=(1.0, 1.0), rho=(0.0, 0.5))
    with pytest.raises(ValidationError):
        attrition.ConstantAttritionSpec(n=2, v=1.0, rho=0.5)
    with pytest.raises(ValidationError):
        attrition.ConstantAttritionSpec(n=0, v=1.0)


LENGTH = "costs, rewards and rho need equal length >= 2"
FINITE = "attrition parameters must be finite"
COSTS = "costs must satisfy 0 <= c_0 < c_1 < ... < c_n"
REWARDS = "rewards must be nonincreasing with v_n > 0"
RHO = "perturbations must satisfy 0 <= rho_k < v_k / 2"
VALID = dict(costs=(0.0, 1.0, 2.0), rewards=(3.0, 2.0, 2.0), rho=(1.4, 0.0, 0.9))


@pytest.mark.parametrize("change, message", [
    (dict(rho=(0.0, 0.0)), LENGTH),
    (dict(costs=(0.0,), rewards=(1.0,), rho=(0.0,)), LENGTH),
    (dict(costs=(), rewards=(), rho=()), LENGTH),
    (dict(costs=2.0), LENGTH),                           # a scalar is one entry
    (dict(costs="012"), LENGTH),                         # so is a string
    (dict(rewards=(3.0, math.nan, 2.0)), FINITE),
    (dict(costs=(0.0, 1.0, math.inf)), FINITE),
    (dict(rho=(0.0, -math.inf, 0.0)), FINITE),
    (dict(costs=(-0.5, 1.0, 2.0)), COSTS),
    (dict(costs=(0.0, 1.0, 1.0)), COSTS),
    (dict(costs=(0.0, 2.0, 1.0)), COSTS),
    (dict(rewards=(3.0, 2.0, 2.5)), REWARDS),
    (dict(rewards=(3.0, 2.0, 0.0), rho=(0.0, 0.0, 0.0)), REWARDS),
    (dict(rewards=(3.0, 2.0, -1.0), rho=(0.0, 0.0, 0.0)), REWARDS),
    (dict(rho=(1.4, -0.1, 0.0)), RHO),
    (dict(rho=(1.5, 0.0, 0.0)), RHO),                    # rho_0 = v_0 / 2
    (dict(rho=(0.0, 0.0, 1.0)), RHO),
])
def test_spec_rejects_each_invariant_with_its_message(change, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        attrition.AttritionSpec(**{**VALID, **change})


@pytest.mark.parametrize("costs, rewards, rho", [
    ((0, 1, 2), [3, 2, 2], np.array([1.4, 0.0, 0.9])),
    (np.arange(3.0), (np.float32(3.0), np.int64(2), np.float64(2.0)), (1.4, 0, 0.9)),
    (("0", "1.0", " 2 "), ("3", "2e0", "2"), ("1.4", "0", "0.9")),
])
def test_spec_accepts_numbers_in_any_container(costs, rewards, rho):
    g = attrition.AttritionSpec(costs=costs, rewards=rewards, rho=rho)
    assert g.n == 2
    reference = attrition.AttritionSpec(**VALID)
    for build in (attrition.perturbed_matrix, attrition.cnd_certificate):
        assert build(g).tobytes() == build(reference).tobytes(), build.__name__
    assert g == reference                                # the spec keeps the checked floats


def test_base_matrix_hand_values(attrition_testbed_matrix):
    A = attrition.base_matrix(attrition.ConstantAttritionSpec(n=1, v=1.0))
    assert np.allclose(A, [[0.5, 0.0], [1.0, -0.5]])
    A2 = attrition.base_matrix(spec_n2())
    assert np.allclose(A2, attrition_testbed_matrix)
    # diagonal is always v_k/2 - c_k
    rng = np.random.default_rng(0)
    for _ in range(10):
        g = random_general_spec(rng, 3)
        M = attrition.base_matrix(g)
        expected = np.asarray(g.rewards) / 2.0 - np.asarray(g.costs)
        assert np.allclose(np.diag(M), expected)


def test_base_matrix_matches_entrywise_loop():
    rng = np.random.default_rng(5)
    for n in (1, 2, 5, 8):
        g = random_general_spec(rng, n)
        c, v = g.costs, g.rewards
        loop = np.empty((n + 1, n + 1))
        for j in range(n + 1):
            for k in range(n + 1):
                loop[j, k] = v[k] - c[k] if j > k else v[k] / 2.0 - c[k] if j == k else -c[j]
        assert attrition.base_matrix(g).tobytes() == loop.tobytes()


def test_perturbed_matrix():
    g = attrition.AttritionSpec(costs=(0.0, 1.0), rewards=(1.0, 1.0), rho=(0.1, 0.2))
    assert np.allclose(attrition.perturbed_matrix(g), [[0.4, 0.0], [1.0, -0.7]])
    # rho == 0 collapses to the base matrix
    g0 = attrition.AttritionSpec(costs=(0.0, 1.0), rewards=(1.0, 1.0), rho=(0.0, 0.0))
    assert np.array_equal(attrition.perturbed_matrix(g0), attrition.base_matrix(g0))
    rng = np.random.default_rng(74)
    for n in range(1, 9):
        g = random_general_spec(rng, n)
        B = attrition.base_matrix(g)
        B[np.diag_indices_from(B)] -= np.asarray(g.rho)
        assert attrition.perturbed_matrix(g).tobytes() == B.tobytes()


def test_perturbed_equals_effective_matrix_bridge():
    # rho_k = sigma_k^2 reproduces the matrix felt by the noisy dynamics
    sigma = np.array([0.3, 0.25, 0.2])
    g = attrition.AttritionSpec(costs=(0.0, 1.0, 2.0), rewards=(1.0, 1.0, 1.0),
                                rho=tuple(sigma**2))
    A = attrition.base_matrix(g)
    assert np.allclose(attrition.perturbed_matrix(g),
                       games.effective_payoff_matrix(A, sigma))


# ---------------------------------------------------------------------------
# conditional negative definiteness certificate


def test_cnd_certificate_values():
    w = attrition.cnd_certificate(spec_n2())
    assert np.allclose(w, [-2.0, -2.0])
    g = attrition.AttritionSpec(costs=(0.0, 1.0), rewards=(1.0, 0.9), rho=(0.0, 0.0))
    assert np.allclose(attrition.cnd_certificate(g), [-2.1])


def test_cnd_certificate_random_specs():
    rng = np.random.default_rng(1)
    for _ in range(100):
        g = random_general_spec(rng, int(rng.integers(1, 7)))
        w = attrition.cnd_certificate(g)
        assert np.all(w < 0.0)
        # the certificate implies a negative restricted eigenvalue
        assert games.second_eigenvalue(attrition.base_matrix(g)) < 0.0
        assert games.second_eigenvalue(attrition.perturbed_matrix(g)) < 0.0


# ---------------------------------------------------------------------------
# cutoff index and lattice


def test_support_cutoff_examples():
    assert attrition.support_cutoff(attrition.ConstantAttritionSpec(n=1, v=1.0)) == 0
    assert attrition.support_cutoff(spec_n2()) == 1
    assert attrition.support_cutoff(attrition.ConstantAttritionSpec(n=2, v=4.0)) is None
    # the boundary reward belongs to the vertex case
    assert attrition.support_cutoff(attrition.ConstantAttritionSpec(n=3, v=6.0)) is None


@given(
    st.integers(min_value=1, max_value=10),
    st.floats(min_value=0.05, max_value=30.0),
    st.floats(min_value=0.0, max_value=0.49),
)
def test_support_cutoff_inequalities(n, v, rho_frac):
    rho = rho_frac * v
    spec = attrition.ConstantAttritionSpec(n=n, v=v, rho=rho)
    s = attrition.support_cutoff(spec)
    if v >= 2 * n + 2 * rho:
        assert s is None
    else:
        assert 0 <= s <= n - 1
        assert n - 1 + rho <= v / 2 + s + 1e-9
        assert v / 2 + s < n + rho + 1e-9


def test_lattice_values_and_complex_oracle():
    assert attrition.cheb_u(0, 0.3, 1.0) == 1.0
    assert attrition.cheb_u(-1, 0.3, 1.0) == 0.0
    assert attrition.cheb_u(1, 0.3, 1.0) == pytest.approx(-(2 * 0.3 + 1))
    assert attrition.cheb_u(2, 0.0, 0.25) == pytest.approx(1.25)
    assert attrition.cheb_u(3, 0.0, 0.25) == pytest.approx(-1.5)
    rng = np.random.default_rng(2)
    for _ in range(50):
        rho = rng.uniform(0.0, 2.0)
        g2 = rng.uniform(0.01, 9.0)
        k = int(rng.integers(0, 12))
        mine = attrition.cheb_u(k, rho, g2)
        oracle = u_complex(k, rho, g2)
        assert mine == pytest.approx(oracle, rel=1e-9, abs=1e-12)


@given(
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=1e-3, max_value=16.0),
    st.integers(min_value=0, max_value=20),
)
def test_lattice_sign_alternation(rho, gamma_sq, k):
    u = attrition.cheb_u(k, rho, gamma_sq)
    assert (-1.0) ** k * u > 0.0


# ---------------------------------------------------------------------------
# closed form


def test_closed_form_named_values():
    r1 = attrition.closed_form_ess(attrition.ConstantAttritionSpec(n=1, v=1.0))
    assert np.allclose(r1.strategy, [0.5, 0.5], atol=1e-12)
    assert r1.s == 0

    r2 = attrition.closed_form_ess(spec_n2())
    assert np.allclose(r2.strategy, [0.6, 0.2, 0.2], atol=1e-12)
    assert r2.s == 1 and r2.c == pytest.approx(1.25)

    r3 = attrition.closed_form_ess(attrition.ConstantAttritionSpec(n=2, v=4.0))
    assert np.array_equal(r3.strategy, [0.0, 0.0, 1.0])
    assert r3.s is None and r3.c is None


def test_closed_form_sign_lattice_of_normalizer():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        frac = rng.uniform(0.0, 0.45)
        v = rng.uniform(0.05, 2 * n + 1.0)
        spec = attrition.ConstantAttritionSpec(n=n, v=v, rho=frac * v)
        result = attrition.closed_form_ess(spec)
        if result.s is None:
            continue
        assert (-1.0) ** (result.s + 1) * result.c > 0.0
        assert result.strategy.min() >= 0.0
        assert result.strategy.sum() == pytest.approx(1.0, abs=1e-10)


def test_closed_form_matches_enumeration_small_grid():
    for n in (1, 2, 3):
        for v in (0.3, 0.9, 1.7, 2.5, 4.2):
            for frac in (0.0, 0.2, 0.4):
                spec = attrition.ConstantAttritionSpec(n=n, v=v, rho=frac * v)
                closed = attrition.closed_form_ess(spec).strategy
                report = ess.unique_ess(attrition.perturbed_matrix(spec))
                assert report is not None
                assert np.max(np.abs(closed - report.strategy)) < 1e-9


def test_closed_form_equal_payoffs_on_support():
    spec = spec_n2()
    B = attrition.perturbed_matrix(spec)
    p = attrition.closed_form_ess(spec).strategy
    payoffs = B @ p
    support = p > 0
    c = payoffs[support][0]
    assert np.max(np.abs(payoffs[support] - c)) < 1e-9
    assert np.all(payoffs[~support] <= c + 1e-9)


def test_forced_zero_indices():
    g = attrition.AttritionSpec(costs=(0.0, 1.0, 2.0), rewards=(1.0, 1.0, 1.0),
                                rho=(0.0, 0.0, 0.0))
    assert attrition.forced_zero_indices(g) == set()
    g2 = attrition.AttritionSpec(costs=(0.0, 1.8, 2.0), rewards=(1.0, 1.0, 1.0),
                                 rho=(0.0, 0.0, 0.0))
    assert attrition.forced_zero_indices(g2) == {1}


def test_closed_form_zero_pattern_respects_cost_threshold():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        frac = rng.uniform(0.0, 0.45)
        v = rng.uniform(0.05, 2 * n + 1.0)
        spec = attrition.ConstantAttritionSpec(n=n, v=v, rho=frac * v)
        forced = attrition.forced_zero_indices(spec)
        p = attrition.closed_form_ess(spec).strategy
        for j in forced:
            assert p[j] == 0.0


# ---------------------------------------------------------------------------
# determinant identities


def test_ones_column_det_examples():
    g = attrition.AttritionSpec(costs=(0.0, 1.0), rewards=(1.0, 1.0), rho=(0.0, 0.0))
    assert attrition.ones_column_det(g, 1) == pytest.approx(-0.5)
    direct = cofactor_det([[0.5, 1.0], [1.0, 1.0]])
    assert direct == pytest.approx(-0.5)


def test_ones_column_det_against_cofactor_oracle():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        g = random_general_spec(rng, n)
        B = attrition.perturbed_matrix(g)
        for k in range(n + 1):
            replaced = B.copy()
            replaced[:, k] = 1.0
            oracle = cofactor_det(replaced)
            mine = attrition.ones_column_det(g, k)
            assert mine == pytest.approx(oracle, rel=1e-9, abs=1e-12)


def test_constant_matrix_det_values_and_oracle():
    assert attrition.constant_matrix_det(attrition.ConstantAttritionSpec(n=1, v=1.0)) == pytest.approx(-0.25)
    assert attrition.constant_matrix_det(spec_n2()) == pytest.approx(0.375)
    rng = np.random.default_rng(6)
    for _ in range(60):
        n = int(rng.integers(1, 11))
        frac = rng.uniform(0.0, 0.45)
        v = rng.uniform(0.1, 2 * n + 2.0)
        spec = attrition.ConstantAttritionSpec(n=n, v=v, rho=frac * v)
        oracle = cofactor_det(attrition.perturbed_matrix(spec))
        mine = attrition.constant_matrix_det(spec)
        assert mine == pytest.approx(oracle, rel=1e-9, abs=1e-12)
        assert math.copysign(1.0, mine) == math.copysign(1.0, oracle)


def test_tridiagonal_det_examples_and_oracle():
    assert attrition.tridiagonal_det(3.0, 1.0, 2.0, 1) == 3.0
    assert attrition.tridiagonal_det(3.0, 1.0, 2.0, 2) == pytest.approx(11.0)
    assert attrition.tridiagonal_det(1.0, 1.0, 1.0, 3) == pytest.approx(3.0)
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(1, 11))
        x = rng.uniform(-3.0, 3.0)
        g1 = rng.uniform(0.05, 3.0)
        g2 = rng.uniform(0.05, 3.0)
        M = np.zeros((n, n))
        for i in range(n):
            M[i, i] = x
            if i + 1 < n:
                M[i, i + 1] = g1
                M[i + 1, i] = -g2
        assert attrition.tridiagonal_det(x, g1, g2, n) == pytest.approx(
            cofactor_det(M), rel=1e-9, abs=1e-12)


def test_cheb_u_rejects_bad_domain():
    with pytest.raises(ValidationError):
        attrition.cheb_u(2, 0.1, 0.0)
    with pytest.raises(ValidationError):
        attrition.cheb_u(-2, 0.1, 1.0)


# ---------------------------------------------------------------------------
# sweep generator and persistence


def test_sweep_covers_both_regimes():
    specs = attrition.ess_sweep_rows([2], [0.0])
    vs = [s.v for s in specs]
    assert min(vs) == pytest.approx(0.25)
    assert max(vs) >= 4.0  # beyond the vertex threshold 2n = 4
    kinds = {attrition.support_cutoff(s) is None for s in specs}
    assert kinds == {True, False}


def test_persistence_experiment_consistent():
    spec = spec_n2()
    cfg = engine.SdeConfig(h=1e-3, horizon=60.0, seed=21, record_stride=100)
    report = bounds.persistence_experiment(attrition.base_matrix(spec), [0.05] * 3, [1 / 3] * 3,
                                           cfg, 60)
    assert report.verdict == "consistent"
    assert report.details["stable_weight"] == pytest.approx(0.2)
    assert report.empirical_value >= 0.95


def test_persistence_out_of_regime_is_not_violated():
    spec = spec_n2()
    cfg = engine.SdeConfig(h=1e-3, horizon=20.0, seed=22, record_stride=100)
    report = bounds.persistence_experiment(attrition.base_matrix(spec), [1.5] * 3, [1 / 3] * 3,
                                           cfg, 40)
    # 0.625 of paths (SE 0.077) fall short of 0.95; outside the regime that is no violation
    assert report.verdict == "inconclusive"
    assert not report.details["noise_regime_sufficient"]


def test_persistence_refuses_a_game_whose_last_strategy_is_not_stable():
    # a conditionally negative definite game whose stable strategy is the first vertex
    cfg = engine.SdeConfig(h=1e-2, horizon=1.0, seed=1)
    with pytest.raises(PreconditionError, match="no stable strategy holding the last strategy"):
        bounds.persistence_experiment([[0.0, 1.0], [-1.0, -2.0]], [0.1] * 2, [0.5] * 2, cfg, 2)


def test_closed_form_self_check_cannot_be_thrown_off_domain():
    # the two normalizer routes agree algebraically; sweep a rough grid
    rng = np.random.default_rng(8)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        frac = rng.uniform(0.0, 0.49)
        v = rng.uniform(0.05, 4 * n + 2.0)
        spec = attrition.ConstantAttritionSpec(n=n, v=v, rho=frac * v)
        attrition.closed_form_ess(spec)  # must not raise
