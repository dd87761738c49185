import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from replab import attrition, engine, games
from replab.errors import SimulationError, ValidationError

PD = np.array([[3.0, 0.0], [5.0, 1.0]])


def digest(traj: engine.Trajectory) -> str:
    h = hashlib.sha256()
    h.update(traj.times.tobytes())
    h.update(traj.states.tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# config and fields


def test_config_validation():
    with pytest.raises(ValidationError):
        engine.SdeConfig(h=0.0, horizon=1.0, seed=0)
    with pytest.raises(ValidationError):
        engine.SdeConfig(h=2.0, horizon=1.0, seed=0)
    with pytest.raises(ValidationError):
        engine.SdeConfig(h=1e-3, horizon=1.0, seed=0, y_cap=10.0)
    with pytest.raises(ValidationError):
        engine.SdeConfig(h=1e-3, horizon=1.0, seed=-3)
    cfg = engine.SdeConfig(h=1e-3, horizon=500.0, seed=0)
    assert cfg.effective_stride == math.ceil(500_001 / engine.MAX_RECORD_POINTS)
    assert cfg.record_steps()[-1] == cfg.n_steps


def test_drift_hand_values():
    b = engine.drift(np.zeros((2, 2)), [1.0, 1.0], [0.25, 0.75])
    assert np.allclose(b, [3.0 / 32.0, -3.0 / 32.0], atol=1e-15)
    # vanishes at a vertex (closure limit)
    b = engine.drift(PD, [0.5, 0.5], [0.0, 1.0])
    assert np.allclose(b, 0.0, atol=1e-15)


def test_drift_vanishes_at_stable_mix_of_effective_matrix():
    sigma = np.array([0.3, 0.2, 0.1])
    spec = attrition.ConstantAttritionSpec(n=2, v=1.0)
    A = attrition.base_matrix(spec)
    from replab import ess

    B = games.effective_payoff_matrix(A, sigma)
    p = ess.unique_ess(B).strategy
    assert np.max(np.abs(engine.drift(A, sigma, p))) < 1e-12


def test_diffusion_matrix_values():
    C = engine.diffusion_matrix([1.0, 1.0], [0.5, 0.5])
    assert np.allclose(C, [[0.25, -0.25], [-0.25, 0.25]])
    C = engine.diffusion_matrix([0.4, 0.9], [0.0, 1.0])
    assert np.allclose(C, 0.0)


@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40)
def test_drift_and_diffusion_sum_to_zero(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) * 3.0
    sigma = rng.uniform(0.05, 2.0, size=n)
    x = rng.dirichlet(np.ones(n))
    if np.any(x <= 0):
        return
    assert abs(engine.drift(A, sigma, x).sum()) <= 1e-12
    assert np.max(np.abs(engine.diffusion_matrix(sigma, x).sum(axis=0))) <= 1e-12


# ---------------------------------------------------------------------------
# single-path simulation


def test_simulation_is_deterministic_and_simplex_preserving():
    cfg = engine.SdeConfig(h=1e-3, horizon=3.0, seed=77)
    a = engine.simulate_sde(PD, [0.3, 0.3], [0.4, 0.6], cfg)
    b = engine.simulate_sde(PD, [0.3, 0.3], [0.4, 0.6], cfg)
    assert digest(a) == digest(b)
    assert np.array_equal(a.states[0], np.array([0.4, 0.6]))
    assert a.times[0] == 0.0
    assert np.all(a.states > 0.0)
    assert np.max(np.abs(a.states.sum(axis=1) - 1.0)) <= 1e-12


def test_sde_matches_ode_in_small_noise_limit(mixed_dominance_matrix):
    cfg = engine.SdeConfig(h=1e-4, horizon=10.0, seed=5, record_stride=100)
    x0 = [1.0 / 3.0] * 3
    noisy = engine.simulate_sde(mixed_dominance_matrix, [1e-6] * 3, x0, cfg)
    clean = engine.simulate_ode(mixed_dominance_matrix, x0, cfg)
    assert np.max(np.abs(noisy.states - clean.states)) < 1e-3


def test_ode_is_stationary_at_interior_equilibrium(attrition_testbed_matrix):
    cfg = engine.SdeConfig(h=1e-3, horizon=5.0, seed=0)
    traj = engine.simulate_ode(attrition_testbed_matrix, [0.6, 0.2, 0.2], cfg)
    assert np.max(np.abs(traj.states - np.array([0.6, 0.2, 0.2]))) < 1e-12


def test_ode_agrees_with_scipy_reference(pd_matrix):
    from scipy.integrate import solve_ivp

    def field(_t, x):
        ax = pd_matrix @ x
        return x * (ax - x @ ax)

    x0 = [0.5, 0.5]
    cfg = engine.SdeConfig(h=1e-3, horizon=4.0, seed=0, record_stride=1000)
    mine = engine.simulate_ode(pd_matrix, x0, cfg)
    ref = solve_ivp(field, (0.0, 4.0), x0, t_eval=mine.times, rtol=1e-10, atol=1e-12)
    assert np.max(np.abs(mine.states - ref.y.T)) < 1e-6


def test_ode_drives_out_dominated_strategy(mixed_dominance_matrix):
    cfg = engine.SdeConfig(h=1e-3, horizon=30.0, seed=0, record_stride=100)
    traj = engine.simulate_ode(mixed_dominance_matrix, [1 / 3] * 3, cfg)
    assert traj.states[-1, 0] < 1e-4


def test_ode_selects_defection_in_pd():
    cfg = engine.SdeConfig(h=1e-3, horizon=40.0, seed=0, record_stride=100)
    traj = engine.simulate_ode(PD, [0.5, 0.5], cfg)
    assert traj.states[-1, 1] > 0.999


def test_clamp_flag_and_positivity():
    cfg = engine.SdeConfig(h=1e-3, horizon=60.0, seed=1, record_stride=100, y_cap=50.0)
    traj = engine.simulate_sde(PD, [0.1, 0.1], [0.5, 0.5], cfg)
    assert traj.clamped
    assert np.all(traj.states > 0.0)
    assert np.max(np.abs(traj.states.sum(axis=1) - 1.0)) <= 1e-12


def test_reference_index_rechosen_for_tiny_last_weight():
    cfg = engine.SdeConfig(h=1e-3, horizon=1.0, seed=2)
    x0 = np.array([0.5, 0.5 - 1e-8, 1e-8])
    traj = engine.simulate_sde(2.0 * np.eye(3), [0.1] * 3, x0, cfg)
    assert np.all(traj.states > 0.0)
    assert np.array_equal(traj.states[0], x0)


# ---------------------------------------------------------------------------
# sizes process


def test_sizes_stays_near_half_for_degenerate_game():
    cfg = engine.SdeConfig(h=1e-3, horizon=5.0, seed=3)
    traj = engine.simulate_sizes(np.zeros((2, 2)), [1e-4, 1e-4], [1.0, 1.0], cfg)
    assert np.max(np.abs(traj.states - 0.5)) < 1e-2


def test_sizes_tracks_sde_with_same_increments():
    cfg = engine.SdeConfig(h=1e-4, horizon=5.0, seed=4, record_stride=10)
    a = engine.simulate_sde(PD, [0.1, 0.1], [0.5, 0.5], cfg)
    b = engine.simulate_sizes(PD, [0.1, 0.1], [1.0, 1.0], cfg)
    assert np.max(np.abs(a.states - b.states)) < 1e-2


def test_sizes_coupling_error_halves_with_step():
    smaller = 0
    for seed in range(20):
        diffs = []
        for h in (2e-3, 1e-3):
            cfg = engine.SdeConfig(h=h, horizon=5.0, seed=seed, record_stride=int(0.01 / h))
            a = engine.simulate_sde(PD, [0.1, 0.1], [0.5, 0.5], cfg)
            b = engine.simulate_sizes(PD, [0.1, 0.1], [0.5, 0.5], cfg)
            diffs.append(np.max(np.abs(a.states - b.states)))
        if diffs[1] < diffs[0]:
            smaller += 1
        assert 0.3 <= diffs[1] / diffs[0] <= 0.7
    assert smaller >= 18


def test_sizes_abort_diagnostics():
    cfg = engine.SdeConfig(h=0.5, horizon=10.0, seed=11)
    with pytest.raises(SimulationError, match=r"positive cone at step 2 \(t=1\)"):
        engine.simulate_sizes(np.zeros((2, 2)), [40.0, 40.0], [1.0, 1.0], cfg)


# ---------------------------------------------------------------------------
# hitting, occupation, averages


def test_hitting_time_basics(attrition_testbed_matrix):
    cfg = engine.SdeConfig(h=1e-3, horizon=1.0, seed=5)
    everything = games.Region.ball([1 / 3] * 3, 10.0)
    res = engine.hitting_time(attrition_testbed_matrix, [0.05] * 3, [1 / 3] * 3, cfg, everything)
    assert res.hit and res.time == 0.0

    nowhere = games.Region.ball([0.6, 0.2, 0.2], 1e-9)
    res = engine.hitting_time(attrition_testbed_matrix, [0.05] * 3, [1 / 3] * 3, cfg, nowhere)
    assert not res.hit and res.time == pytest.approx(1.0)


def test_hitting_time_state_is_inside(attrition_testbed_matrix):
    cfg = engine.SdeConfig(h=1e-3, horizon=50.0, seed=6)
    ball = games.Region.ball([0.6, 0.2, 0.2], 0.1)
    res = engine.hitting_time(attrition_testbed_matrix, [0.05] * 3, [1 / 3] * 3, cfg, ball)
    assert res.hit and 0.0 < res.time < 50.0


def test_occupation_fraction_and_time_average():
    times = np.array([0.0, 1.0, 2.0, 3.0])
    states = np.array([[0.5, 0.5], [0.6, 0.4], [0.9, 0.1], [0.95, 0.05]])
    traj = engine.Trajectory(times=times, states=states, clamped=False, seed=0)
    everything = games.Region.ball([0.5, 0.5], 10.0)
    assert engine.occupation_fraction(traj, everything, 0.0) == 1.0
    corner = games.Region.vertex_neighborhood(0, 0.2)
    assert engine.occupation_fraction(traj, corner, 0.0) == 0.5
    assert engine.occupation_fraction(traj, corner, 2.0) == 1.0
    with pytest.raises(ValidationError):
        engine.occupation_fraction(traj, corner, 3.0)

    p = np.array([0.5, 0.5])
    const = engine.Trajectory(times=times, states=np.tile([0.7, 0.3], (4, 1)),
                              clamped=False, seed=0)
    assert engine.time_avg_sq_distance(const, p) == pytest.approx(0.08)
    assert engine.time_avg_sq_distance(const, [0.7, 0.3]) == 0.0


# ---------------------------------------------------------------------------
# batches


def test_batch_single_path_equals_single_run():
    cfg = engine.SdeConfig(h=1e-3, horizon=2.0, seed=12)
    single = engine.simulate_sde(PD, [0.2, 0.2], [0.5, 0.5], cfg, path_index=0)
    batch = engine.batch_run(PD, [0.2, 0.2], [0.5, 0.5], cfg, 1, engine.final_share(1))
    assert batch.values[0] == float(single.states[-1, 1])
    assert batch.mean == batch.values[0]
    assert math.isnan(batch.std_error)


def test_batch_deterministic_across_chunk_layout_and_permutation():
    cfg = engine.SdeConfig(h=1e-3, horizon=1.0, seed=13)
    stat = engine.final_share(0)
    whole = engine.batch_run(PD, [0.3, 0.3], [0.5, 0.5], cfg, 40, stat)
    halves = [engine.batch_run(PD, [0.3, 0.3], [0.5, 0.5], cfg, 20, stat,
                               path_indices=range(lo, lo + 20)) for lo in (0, 20)]
    assert np.array_equal(whole.values, np.concatenate([h.values for h in halves]))

    forward = list(range(40))
    backward = forward[::-1]
    a = engine.batch_run(PD, [0.3, 0.3], [0.5, 0.5], cfg, 40, stat, path_indices=forward)
    b = engine.batch_run(PD, [0.3, 0.3], [0.5, 0.5], cfg, 40, stat, path_indices=backward)
    assert np.array_equal(np.sort(a.values), np.sort(b.values))
    assert np.array_equal(a.values, b.values[::-1])


def test_batch_standard_error_scales():
    cfg = engine.SdeConfig(h=1e-2, horizon=1.0, seed=15)
    stat = engine.final_share(0)
    ratios = []
    for rep in range(6):
        cfg_rep = engine.SdeConfig(h=1e-2, horizon=1.0, seed=100 + rep)
        small = engine.batch_run(PD, [0.6, 0.6], [0.5, 0.5], cfg_rep, 100, stat)
        large = engine.batch_run(PD, [0.6, 0.6], [0.5, 0.5], cfg_rep, 200, stat)
        ratios.append(large.std_error / small.std_error)
    mean_ratio = float(np.mean(ratios))
    assert 0.6 <= mean_ratio <= 0.82


def test_share_at_reads_recorded_times_and_rejects_others():
    cfg = engine.SdeConfig(h=1e-3, horizon=1.0, seed=16, record_stride=100)
    traj = engine.simulate_sde(PD, [0.3, 0.3], [0.5, 0.5], cfg)
    assert engine.share_at(1, 0.3).fn(traj) == traj.states[3, 1]
    assert engine.share_at(1, 0.3 + 1e-12).fn(traj) == traj.states[3, 1]
    with pytest.raises(ValidationError, match="not a recorded time"):
        engine.share_at(1, 0.35).fn(traj)
    with pytest.raises(ValidationError, match="not a recorded time"):
        engine.batch_run(PD, [0.3, 0.3], [0.5, 0.5], cfg, 3, engine.share_at(0, 0.55))


def test_batch_hitting_statistics(coordination_matrix):
    cfg = engine.SdeConfig(h=1e-3, horizon=60.0, seed=17, record_stride=100)
    region = games.Region.any_vertex_neighborhood(0.1)
    out = engine.batch_run_many(
        coordination_matrix, [0.1] * 3, [1 / 3] * 3, cfg, 25,
        {"tau": engine.hitting_time_stat(region, name="tau"),
         "hit": engine.hit_flag_stat(region, name="hit"),
         "final": engine.max_final_share()},
    )
    assert np.all(out["hit"].values == 1.0)
    assert np.all(out["tau"].values < 60.0)
    assert out["final"].mean > 0.9


def test_drift_and_diffusion_zero_sum_bulk():
    # vectorized form of the field identities over 10^4 random triples
    rng = np.random.default_rng(23)
    m, n = 10_000, 3
    A = rng.standard_normal((m, n, n)) * 3.0
    sigma = rng.uniform(0.05, 2.0, size=(m, n))
    x = rng.dirichlet(np.ones(n), size=m)
    field = np.einsum("mjk,mk->mj", A, x) - sigma**2 * x
    b = x * (field - np.sum(x * field, axis=1, keepdims=True))
    assert np.max(np.abs(b.sum(axis=1))) <= 1e-12
    C = (x[:, :, None] * np.eye(n)[None] - x[:, :, None] * x[:, None, :]) * sigma[:, None, :]
    assert np.max(np.abs(C.sum(axis=1))) <= 1e-12


def test_mean_time_to_near_extinction_region(mixed_dominance_matrix):
    # leaving the dominated strategy below 5% happens within a few tens of
    # time units on average
    region = games.Region.coordinate_below(0, 0.05)
    cfg = engine.SdeConfig(h=1e-3, horizon=40.0, seed=19, record_stride=200)
    res = engine.batch_run(mixed_dominance_matrix, [0.3] * 3, [1 / 3] * 3, cfg, 200,
                           engine.hitting_time_stat(region, name="tau"))
    assert math.isfinite(res.mean)
    assert res.mean <= 40.0
    assert np.all(res.values < 40.0)


def test_weak_consistency_across_step_sizes():
    stat = engine.final_share(1)
    estimates = []
    for h in (2e-3, 1e-3):
        cfg = engine.SdeConfig(h=h, horizon=5.0, seed=18, record_stride=50)
        estimates.append(engine.batch_run(PD, [0.5, 0.5], [0.5, 0.5], cfg, 150, stat))
    gap = abs(estimates[0].mean - estimates[1].mean)
    combined = math.hypot(estimates[0].std_error, estimates[1].std_error)
    assert gap < 3.0 * combined


def test_trajectory_csv_format():
    times = np.array([0.0, 0.5])
    states = np.array([[0.5, 0.5], [0.25, 0.75]])
    traj = engine.Trajectory(times=times, states=states, clamped=False, seed=0)
    text = engine.trajectory_csv_text(traj)
    lines = text.strip().splitlines()
    assert lines[0] == "t,x_1,x_2"
    assert lines[1] == "0,0.5,0.5"
    parsed = [float(v) for v in lines[2].split(",")]
    assert parsed == [0.5, 0.25, 0.75]


# ---------------------------------------------------------------------------
# golden digests, computed before the engine was split into per-scheme kernels;
# a change means a changed kernel or a changed numpy Gaussian stream (NEP 19)

GOLDEN_TRAJECTORY_SHA256 = "9f1be5c4e4cd5d9327fb59c3edd246dbf0b9896b296bd2631afb19a2749e8db4"
GOLDEN_BATCH_SHA256 = "523c61f608df3f6f5ff5bc8e35ae15008ed676c16479dc4152632f70d9840705"


def test_golden_trajectory_digest(mixed_dominance_matrix):
    cfg = engine.SdeConfig(h=1e-3, horizon=1.0, seed=2005, record_stride=10)
    traj = engine.simulate_sde(mixed_dominance_matrix, [0.3, 0.2, 0.1], [0.2, 0.3, 0.5],
                               cfg, path_index=7)
    assert traj.states.shape == (101, 3)
    assert hashlib.sha256(traj.states.tobytes()).hexdigest() == GOLDEN_TRAJECTORY_SHA256


def test_golden_batch_digest_across_chunk_boundary(mixed_dominance_matrix):
    cfg = engine.SdeConfig(h=1e-2, horizon=1.0, seed=2005, record_stride=10)
    assert engine._chunk_size(cfg, 3) < 600          # two chunks
    region = games.Region.coordinate_below(0, 0.3)
    out = engine.batch_run_many(
        mixed_dominance_matrix, [0.3, 0.2, 0.1], [1 / 3] * 3, cfg, 600,
        {"final": engine.final_share(0), "hit": engine.hit_flag_stat(region, name="hit")})
    assert 0.0 < out["hit"].mean < 1.0
    h = hashlib.sha256()
    h.update(out["final"].values.tobytes())
    h.update(out["hit"].values.tobytes())
    assert h.hexdigest() == GOLDEN_BATCH_SHA256
