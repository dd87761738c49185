import contextlib
import hashlib
import math
import multiprocessing
import os
import pickle
import resource
import signal
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from replab import attrition, cli, engine, games, rng
from replab.errors import SimulationError, ValidationError
from util import (assert_no_child_process, contrast_martingale, counted_forks, failing_forks,
                  faulty_payoffs, floor_depth, open_descriptors, scaled_noise, stationary_beta)

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
    for seed in (-3, 1.5):
        with pytest.raises(ValidationError):
            engine.SdeConfig(h=1e-3, horizon=1.0, seed=seed)
    cfg = engine.SdeConfig(h=1e-3, horizon=500.0, seed=0)
    assert cfg.effective_stride == math.ceil(500_001 / engine.MAX_RECORD_POINTS)
    assert cfg.record_steps()[-1] == cfg.n_steps


def test_deepest_floor_keeps_shares_above_state_floor():
    # strategy 0 gains 20 per unit time on strategy 1, so it reaches the floor
    # by t = 25 and stays there; the kernel floors no share, yet none falls
    # below exp(-Y_CAP) / n
    cfg = engine.SdeConfig(h=1e-2, horizon=40.0, seed=4)
    traj = engine.simulate_sde([[10.0, 10.0], [-10.0, -10.0]], [0.1, 0.1], [0.5, 0.5], cfg)
    assert traj.clamped
    assert traj.states[-1, 1] < math.exp(-0.99 * engine.Y_CAP)
    assert traj.states.min() >= math.exp(-engine.Y_CAP) / 2


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


def replicator_field(A):
    """The deterministic replicator field ``x_j ((A x)_j - x . A x)``, for scipy."""
    return lambda _t, x: x * (A @ x - x @ A @ x)


def test_sde_matches_ode_in_small_noise_limit(mixed_dominance_matrix, pd_matrix):
    from scipy.integrate import solve_ivp

    # the zero game's ODE stands still, so there the noise alone moves the path
    for A, horizon in ((mixed_dominance_matrix, 10.0), (pd_matrix, 4.0), (np.zeros((2, 2)), 5.0)):
        n = A.shape[0]
        x0 = [1.0 / n] * n
        cfg = engine.SdeConfig(h=1e-4, horizon=horizon, seed=5, record_stride=100)
        noisy = engine.simulate_sde(A, [1e-6] * n, x0, cfg)
        ref = solve_ivp(replicator_field(A), (0.0, horizon), x0, t_eval=noisy.times,
                        rtol=1e-10, atol=1e-12)
        assert np.max(np.abs(noisy.states - ref.y.T)) < 1e-4


# The deterministic dynamics is the kernel's sigma -> 0 limit, so the ODE's
# behaviour is checked on the kernel at tiny noise.


def test_ode_is_stationary_at_interior_equilibrium(attrition_testbed_matrix):
    cfg = engine.SdeConfig(h=1e-3, horizon=5.0, seed=0)
    traj = engine.simulate_sde(attrition_testbed_matrix, [1e-12] * 3, [0.6, 0.2, 0.2], cfg)
    assert np.max(np.abs(traj.states - np.array([0.6, 0.2, 0.2]))) < 1e-12


def test_ode_drives_out_dominated_strategy(mixed_dominance_matrix):
    cfg = engine.SdeConfig(h=1e-3, horizon=30.0, seed=0, record_stride=100)
    traj = engine.simulate_sde(mixed_dominance_matrix, [1e-6] * 3, [1 / 3] * 3, cfg)
    assert traj.states[-1, 0] < 1e-4


def test_ode_selects_defection_in_pd():
    cfg = engine.SdeConfig(h=1e-3, horizon=40.0, seed=0, record_stride=100)
    traj = engine.simulate_sde(PD, [1e-6] * 2, [0.5, 0.5], cfg)
    assert traj.states[-1, 1] > 0.999


def test_clamp_flag_and_positivity():
    cfg = engine.SdeConfig(h=1e-3, horizon=60.0, seed=1, record_stride=100)
    with floor_depth(50.0):
        traj = engine.simulate_sde(PD, [0.1, 0.1], [0.5, 0.5], cfg)
    assert traj.clamped
    assert np.all(traj.states > 0.0)
    assert np.max(np.abs(traj.states.sum(axis=1) - 1.0)) <= 1e-12


def test_tiny_last_weight_start_stays_positive_and_exact():
    cfg = engine.SdeConfig(h=1e-3, horizon=1.0, seed=2)
    x0 = np.array([0.5, 0.5 - 1e-8, 1e-8])
    traj = engine.simulate_sde(2.0 * np.eye(3), [0.1] * 3, x0, cfg)
    assert np.all(traj.states > 0.0)
    assert np.array_equal(traj.states[0], x0)


def test_survivors_keep_moving_after_the_last_strategy_dies_out():
    # Rows 0 and 1 are equal, so log(x_0 / x_1) is a drifted random walk that
    # the dying strategy 2 must not freeze when it reaches the floor.
    A = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [-10.0, -10.0, -10.0]])
    sigma = np.array([0.3, 0.2, 0.3])
    cfg = engine.SdeConfig(h=1e-2, horizon=100.0, seed=5, record_stride=100)
    traj = engine.simulate_sde(A, sigma, [0.2, 0.5, 0.3], cfg, path_index=3)
    assert traj.clamped

    xi = rng.path_generator(5, 3).standard_normal((cfg.n_steps, 3))
    increments = (-0.5 * (sigma[0] ** 2 - sigma[1] ** 2) * cfg.h
                  + math.sqrt(cfg.h) * (sigma[0] * xi[:, 0] - sigma[1] * xi[:, 1]))
    walk = math.log(0.4) + np.concatenate([[0.0], np.cumsum(increments)])
    log_ratio = np.log(traj.states[:, 0] / traj.states[:, 1])
    assert np.max(np.abs(log_ratio - walk[cfg.record_steps()])) < 1e-10


def test_overflowing_noise_raises_simulation_error():
    cfg = engine.SdeConfig(h=1e-2, horizon=1.0, seed=1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SimulationError, match=r"non-finite log-shares at step 1 \(t=0.01\)"):
            engine.simulate_sde(PD, [1e200, 1e200], [0.5, 0.5], cfg)


@st.composite
def kernel_cases(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    A = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=n * n, max_size=n * n)))
    sigma = np.array(draw(st.lists(st.floats(0.01, 5.0), min_size=n, max_size=n)))
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    tiny_at = draw(st.integers(min_value=0, max_value=n - 1))
    tiny = draw(st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3]))
    weights[tiny_at] = 0.0
    x0 = weights * ((1.0 - tiny) / weights.sum())
    x0[tiny_at] = tiny
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return A.reshape(n, n), sigma, x0, seed


@given(kernel_cases())
@settings(max_examples=25)
def test_log_share_kernel_invariants(case):
    A, sigma, x0, seed = case
    cfg = engine.SdeConfig(h=1e-2, horizon=10.0, seed=seed, record_stride=10)
    with floor_depth(50.0):
        a = engine.simulate_sde(A, sigma, x0, cfg, path_index=0)
        assert np.all(np.isfinite(a.states))
        # the module's stated floor on every share, with room for rounding only
        assert np.all(a.states >= math.exp(-engine.Y_CAP) / A.shape[0] * (1 - 1e-12))
        assert np.max(np.abs(a.states.sum(axis=1) - 1.0)) <= 1e-12

        again = engine.simulate_sde(A, sigma, x0, cfg, path_index=0)
        assert again.states.tobytes() == a.states.tobytes() and again.clamped == a.clamped

        b = engine.simulate_sde(A, sigma, x0, cfg, path_index=1)
        n = A.shape[0]
        batch = engine.batch_run_many(A, sigma, x0, cfg, 2,
                                      {f"x{j}": engine.final_share(j) for j in range(n)},
                                      path_indices=[1, 0])
        finals = np.array([batch[f"x{j}"].values for j in range(n)]).T
        assert np.array_equal(finals, np.array([b.states[-1], a.states[-1]]))
        assert batch["x0"].clamped_paths == int(a.clamped) + int(b.clamped)


# ---------------------------------------------------------------------------
# strong order on coupled increments


def coupled_increments(xi: np.ndarray, sigma: np.ndarray, h_fine: float, factor: int):
    """A stand-in for ``engine._increments`` that yields one block: each step's
    increment is the sum of ``factor`` consecutive increments of a run at step
    ``h_fine``, whose normals are ``xi`` (paths, fine steps, n).  So runs at
    ``h_fine`` and ``factor * h_fine`` share each path's Brownian motion."""
    def increments(seed, paths, n, total_steps, scale):
        dw = xi[:, :total_steps * factor] * (math.sqrt(h_fine) * sigma)
        dw = dw.reshape(len(xi), total_steps, factor, n).sum(axis=2)
        yield np.repeat(dw.transpose(1, 2, 0), scale.shape[1] // len(xi), axis=2)
    return increments


def test_kernel_strong_error_halves_with_step(monkeypatch):
    # Higham (SIAM Review 43, 2001): on shared Brownian paths, a strong-first-order
    # scheme's pathwise error against a fine reference halves with the step.
    sigma, x0, horizon, h_ref = np.array([0.1, 0.1]), [0.5, 0.5], 5.0, 1.25e-4
    paths = list(range(20))
    n_ref = round(horizon / h_ref)
    xi = np.stack([rng.path_generator(0, p).standard_normal((n_ref, 2)) for p in paths])

    def states(h, factor=None):
        """The paths' states every 0.01 at step ``h``; with ``factor``, driven by
        the stand-in's increments at step ``h / factor``."""
        cfg = engine.SdeConfig(h=h, horizon=horizon, seed=0, record_stride=round(0.01 / h))
        with monkeypatch.context() as m:
            if factor:
                m.setattr(engine, "_increments", coupled_increments(xi, sigma, h / factor, factor))
            return engine._sde_chunk(PD, sigma, x0, cfg, paths).states

    # at factor 1 the stand-in gives the kernel's own bytes
    real = states(2e-3)
    assert states(2e-3, 1).tobytes() == real.tobytes()
    cfg = engine.SdeConfig(h=2e-3, horizon=horizon, seed=0, record_stride=5)
    assert engine.simulate_sde(PD, sigma, x0, cfg).states.tobytes() == real[0].tobytes()

    ref = states(h_ref, 1)
    coarse, fine = (np.abs(states(h, round(h / h_ref)) - ref).max(axis=(1, 2))
                    for h in (2e-3, 1e-3))
    assert np.all((0.3 <= fine / coarse) & (fine / coarse <= 0.7))
    assert np.count_nonzero(fine < coarse) >= 18


# ---------------------------------------------------------------------------
# hitting, occupation, averages


def one_path_hit(A, cfg, region, path_index=0) -> tuple[float, float]:
    """(hit flag, hitting time) of one seeded path."""
    out = engine.batch_run_many(
        A, [0.05] * 3, [1 / 3] * 3, cfg, 1,
        {"hit": engine.hit_flag_stat(region), "tau": engine.hitting_time_stat(region)},
        path_indices=[path_index])
    return out["hit"].values[0], out["tau"].values[0]


def test_hitting_time_basics(attrition_testbed_matrix):
    cfg = engine.SdeConfig(h=1e-3, horizon=1.0, seed=5)
    everything = games.Region.ball([1 / 3] * 3, 10.0)
    assert one_path_hit(attrition_testbed_matrix, cfg, everything) == (1.0, 0.0)

    nowhere = games.Region.ball([0.6, 0.2, 0.2], 1e-9)
    hit, tau = one_path_hit(attrition_testbed_matrix, cfg, nowhere)
    assert hit == 0.0 and tau == pytest.approx(1.0)


def test_hitting_time_state_is_inside(attrition_testbed_matrix):
    cfg = engine.SdeConfig(h=1e-3, horizon=50.0, seed=6)
    ball = games.Region.ball([0.6, 0.2, 0.2], 0.1)
    hit, tau = one_path_hit(attrition_testbed_matrix, cfg, ball)
    assert hit == 1.0 and 0.0 < tau < 50.0


def test_occupation_fraction_and_time_average():
    times = np.array([0.0, 1.0, 2.0, 3.0])
    states = np.array([[0.5, 0.5], [0.6, 0.4], [0.9, 0.1], [0.95, 0.05]])
    traj = engine.Trajectory(times=times, states=states, clamped=False, seed=0)
    everything = games.Region.ball([0.5, 0.5], 10.0)
    assert engine.occupation_stat(everything, 0.0).fn(traj) == 1.0
    corner = games.Region.ball([1.0, 0.0], 0.2)
    assert engine.occupation_stat(corner, 0.0).fn(traj) == 0.5
    assert engine.occupation_stat(corner, 2.0).fn(traj) == 1.0
    with pytest.raises(ValidationError):
        engine.occupation_stat(corner, 3.0).fn(traj)
    assert engine.hitting_time_stat(corner).fn(traj) == 2.0
    assert engine.hit_flag_stat(corner).fn(traj) == 1.0
    far = games.Region.ball([0.0, 1.0], 0.2)
    assert (engine.hitting_time_stat(far).fn(traj), engine.hit_flag_stat(far).fn(traj)) == (3.0, 0.0)
    assert engine.captured_stat(everything, 0, 0.1).fn(traj) == 1.0
    assert engine.captured_stat(everything, 0, 0.05).fn(traj) == 0.0     # 0.95 is not above 0.95
    assert engine.captured_stat(games.Region.ball([0.5, 0.5], 0.2), 0, 0.1).fn(traj) == 0.0

    p = np.array([0.5, 0.5])
    const = engine.Trajectory(times=times, states=np.tile([0.7, 0.3], (4, 1)),
                              clamped=False, seed=0)
    assert engine.time_avg_sq_distance_stat(p).fn(const) == pytest.approx(0.08)
    assert engine.time_avg_sq_distance_stat([0.7, 0.3]).fn(const) == 0.0


# ---------------------------------------------------------------------------
# batches


def test_batch_single_path_equals_single_run(monkeypatch):
    # a lone path runs as two columns, but its stream is drawn once
    path_generator, streams = rng.path_generator, []
    monkeypatch.setattr(rng, "path_generator",
                        lambda seed, p: streams.append(p) or path_generator(seed, p))
    cfg = engine.SdeConfig(h=1e-3, horizon=2.0, seed=12)
    single = engine.simulate_sde(PD, [0.2, 0.2], [0.5, 0.5], cfg, path_index=0)
    batch = engine.batch_run(PD, [0.2, 0.2], [0.5, 0.5], cfg, 1, engine.final_share(1))
    assert streams == [0, 0]
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


def test_one_path_chunk_matches_other_layouts():
    # With five strategies a one-row payoff product used to round differently
    # (BLAS gemv against gemm), so path 512 alone in the last chunk of a
    # 513-path batch, or run by itself, drifted from the same path in a pair.
    A = np.array([[0.0, 3.0, -1.0, 2.0, 1.0], [1.0, 0.0, 2.0, -2.0, 3.0],
                  [2.0, -1.0, 0.0, 1.0, -3.0], [-2.0, 1.0, 3.0, 0.0, 2.0],
                  [1.0, 2.0, -2.0, 3.0, 0.0]])
    sigma = [0.5, 1.0, 1.5, 0.8, 1.2]
    cfg = engine.SdeConfig(h=1e-2, horizon=5.0, seed=2, record_stride=500)
    stat = engine.final_share(0)
    whole = engine.batch_run(A, sigma, [0.2] * 5, cfg, engine._MAX_CHUNK_PATHS + 1, stat)
    pair = engine.batch_run(A, sigma, [0.2] * 5, cfg, 2, stat, path_indices=[512, 511])
    alone = engine.simulate_sde(A, sigma, [0.2] * 5, cfg, path_index=512)
    assert whole.values[512] == pair.values[0] == alone.states[-1, 0]
    assert whole.values[511] == pair.values[1]


def nine_strategy_game() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A seeded random game with nine strategies, its noise and an interior start."""
    gen = np.random.default_rng(909)
    return gen.uniform(-2.0, 2.0, (9, 9)), gen.uniform(0.2, 1.2, 9), np.arange(1.0, 10.0) / 45.0


def test_one_path_chunk_matches_other_layouts_at_nine_strategies():
    # From eight strategies on, a sum over the strategies may be taken in a
    # different order, so lock in that every layout still gives the same bytes.
    A, sigma, x0 = nine_strategy_game()
    cfg = engine.SdeConfig(h=1e-2, horizon=3.0, seed=9, record_stride=300)
    stats = {f"x{j}": engine.final_share(j) for j in range(9)}

    def finals(n_paths, path_indices=None):
        out = engine.batch_run_many(A, sigma, x0, cfg, n_paths, stats, path_indices=path_indices)
        return np.array([out[f"x{j}"].values for j in range(9)]).T

    whole = finals(engine._MAX_CHUNK_PATHS + 1)
    pair = finals(2, [512, 511])
    alone = engine.simulate_sde(A, sigma, x0, cfg, path_index=512).states[-1]
    backward = finals(40, range(39, -1, -1))
    assert whole[512].tobytes() == pair[0].tobytes() == alone.tobytes()
    assert whole[511].tobytes() == pair[1].tobytes()
    assert backward.tobytes() == whole[39::-1].tobytes()


def test_layout_invariance_at_fifteen_strategies(monkeypatch):
    # Both gemms of a step sum at most MAX_STRATEGIES terms in one chain from zero,
    # in every column count, so the widest game the kernel takes keeps every layout
    # byte-identical: lone paths, one chunk, a permuted batch and a producer.
    gen = np.random.default_rng(1515)
    n = engine.MAX_STRATEGIES
    A, sigma, x0 = gen.uniform(-2.0, 2.0, (n, n)), gen.uniform(0.2, 1.2, n), np.full(n, 1 / n)
    cfg = engine.SdeConfig(h=1e-2, horizon=3.0, seed=15, record_stride=30)
    chunk = engine._sde_chunk(A, sigma, x0, cfg, list(range(20))).states
    for p in range(20):
        assert engine._sde_chunk(A, sigma, x0, cfg, [p]).states.tobytes() == chunk[p:p + 1].tobytes()
    order = [int(p) for p in gen.permutation(20)]
    out = engine.batch_run_many(A, sigma, x0, cfg, 20,
                                {f"x{j}": engine.final_share(j) for j in range(n)},
                                path_indices=order)
    finals = np.array([out[f"x{j}"].values for j in range(n)]).T
    assert finals.tobytes() == chunk[order, -1].tobytes()
    started = force_producer(monkeypatch)
    with time_limit(120):
        produced = engine._sde_chunk(A, sigma, x0, cfg, list(range(20))).states
    assert len(started) == 1
    assert produced.tobytes() == chunk.tobytes()


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


@pytest.mark.parametrize("bad, message", [
    (engine.share_at(0, 0.55), "not a recorded time"),
    (engine.occupation_stat(games.Region.ball([0.5, 0.5], 0.1), 1.0), "t_start must precede"),
    (engine.window_max_share(0, 5.0), "does not fit this batch"),
    (engine.final_share(2), "does not fit this batch"),
    (engine.share_at(3, 0.5), "does not fit this batch"),
    (engine.captured_stat(games.Region.ball([0.5, 0.5], 0.2), 4, 1e-3), "does not fit this batch"),
    (engine.occupation_stat(games.Region.ball([0.5, 0.5], 0.1), -0.001), "must be >= 0"),
    (engine.window_max_share(0, -5.0), "must be >= 0"),
])
def test_bad_statistic_refused_before_any_path_runs(monkeypatch, bad, message):
    def no_integration(*args, **kwargs):
        raise AssertionError("a path was integrated")

    monkeypatch.setattr(engine, "_sde_chunk", no_integration)
    cfg = engine.SdeConfig(h=1e-3, horizon=1.0, seed=16, record_stride=100)
    stats = {"ok": engine.final_share(0), "bad": bad}
    with pytest.raises(ValidationError, match=message):
        engine.batch_run_many(PD, [0.3, 0.3], [0.5, 0.5], cfg, 600, stats)


@pytest.mark.parametrize("n_paths, path_indices, statistics, message", [
    (3, [0, 1], {"s": engine.final_share(0)}, "must match the number of path indices"),
    (3, [0, 1, 1], {"s": engine.final_share(0)}, "must be distinct"),
    (3, None, {}, "at least one statistic"),
    (0, None, {"s": engine.final_share(0)}, "at least one path"),
])
def test_batch_arguments_refused(n_paths, path_indices, statistics, message):
    cfg = engine.SdeConfig(h=1e-3, horizon=1.0, seed=16)
    with pytest.raises(ValidationError, match=message):
        engine.batch_run_many(PD, [0.3, 0.3], [0.5, 0.5], cfg, n_paths, statistics,
                              path_indices=path_indices)


def every_kind(n: int, t_record: float) -> list[engine.Statistic]:
    """One statistic of every factory, with ``captured`` and the hit flag able to go both ways."""
    centre = games.uniform_point(n)
    ball = games.Region.ball(centre, 0.4)
    corner = games.Region.ball(games.vertex(n, 0), 0.5)
    return [
        engine.final_share(0),
        engine.max_final_share(),
        engine.share_at(1, t_record),
        engine.window_max_share(2, 1.5),
        engine.occupation_stat(ball, 1.0),
        engine.time_avg_sq_distance_stat(centre),
        engine.captured_stat(games.Region.ball(centre, 0.7), 1, 0.8, name="captured"),
        engine.hitting_time_stat(corner, name="tau"),
        engine.hit_flag_stat(corner, name="hit"),
    ]


@pytest.mark.parametrize("stride", [1, 7])
def test_every_statistic_kind_matches_single_path_reduction(stride):
    # 600 paths span two chunks; each value must equal the statistic's own
    # reduction of the same path run alone, bit for bit.  Hitting kinds read
    # the step grid in a batch and the recorded grid in ``fn``, so they are
    # compared where the two grids coincide.
    A = np.array([[0.0, 2.0, -1.0], [-1.0, 0.0, 2.0], [2.0, -1.0, 0.0]])
    sigma, x0 = [1.2, 0.9, 1.5], games.uniform_point(3)
    cfg = engine.SdeConfig(h=4e-2, horizon=4.0, seed=31, record_stride=stride)
    assert engine._chunk_size(cfg, 3) < 600
    stats = [st for st in every_kind(3, 2.8)
             if stride == 1 or st.hit_region is None]
    for st in stats:
        assert pickle.loads(pickle.dumps(st)) == st
    out = engine.batch_run_many(A, sigma, x0, cfg, 600, {st.name: st for st in stats})
    singles = [engine.simulate_sde(A, sigma, x0, cfg, path_index=p) for p in range(600)]
    for st in stats:
        expected = np.array([st.fn(traj) for traj in singles])
        assert out[st.name].values.tobytes() == expected.tobytes(), st.name
    for name in ("captured", "hit"):
        if name in out:
            assert 0.0 < out[name].mean < 1.0


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


def test_batch_counts_clamped_paths():
    stat = engine.final_share(1)
    long_run = engine.SdeConfig(h=1e-2, horizon=60.0, seed=20, record_stride=100)
    short_run = engine.SdeConfig(h=1e-2, horizon=1.0, seed=20)
    with floor_depth(50.0):
        res = engine.batch_run(PD, [0.1, 0.1], [0.5, 0.5], long_run, 16, stat)
        short = engine.batch_run(PD, [0.1, 0.1], [0.5, 0.5], short_run, 16, stat)
    assert res.clamped_paths == 16
    assert res.to_json_dict()["clamped_paths"] == 16
    assert short.clamped_paths == 0


@pytest.mark.parametrize("horizon", [60.0, 4.0, 30.0])
def test_hitting_only_batch_matches_full_horizon_batch(coordination_matrix, horizon):
    # On the coordination game, by 60 every path has entered every region, so the
    # hitting-only batch stops early; by 4 some have not; every path starts inside
    # the small ball.  At 30, on 2 I with a floor 50 deep, some paths reach the
    # floor after they first enter the corner: the hitting statistics must not
    # count them, while the full-horizon statistic does.
    shallow_floor = horizon == 30.0
    if shallow_floor:
        depth, cfg = 50.0, engine.SdeConfig(h=1e-2, horizon=30.0, seed=3)
        corner = games.Region.ball(games.vertex(3, 0), 0.1)
        stats = {"tau": engine.hitting_time_stat(corner), "hit": engine.hit_flag_stat(corner)}
        run = [2.0 * np.eye(3), [0.8] * 3, [1 / 3] * 3, cfg, 20]
    else:
        depth, cfg = engine.Y_CAP, engine.SdeConfig(h=1e-2, horizon=horizon, seed=21,
                                                    record_stride=50)
        stats = {"tau": engine.hitting_time_stat(games.Region.any_vertex_neighborhood(0.1)),
                 "hit": engine.hit_flag_stat(games.Region.any_vertex_neighborhood(0.3)),
                 "start": engine.hitting_time_stat(games.Region.ball([1 / 3] * 3, 0.05))}
        run = [coordination_matrix, [0.5] * 3, [1 / 3] * 3, cfg, 30]
    final = engine.final_share(0)
    with floor_depth(depth):
        hitting_only = engine.batch_run_many(*run, stats)
        full = engine.batch_run_many(*run, dict(stats, final=final))
        alone = engine.batch_run(*run, final)
    for name in stats:
        assert hitting_only[name].to_json_dict() == full[name].to_json_dict(), name
    assert alone.to_json_dict() == full["final"].to_json_dict()
    if shallow_floor:
        assert (hitting_only["tau"].clamped_paths, full["final"].clamped_paths) == (10, 19)
    else:
        all_hit = (hitting_only["tau"].values < horizon).all() and hitting_only["hit"].values.all()
        assert all_hit == (horizon == 60.0)
        assert not hitting_only["start"].values.any()


def test_hitting_only_batch_stops_once_every_path_has_hit(monkeypatch, coordination_matrix):
    sde_chunk, integrated = engine._sde_chunk, []

    def counted(*args):
        res = sde_chunk(*args)
        integrated.append(res.steps)
        return res

    monkeypatch.setattr(engine, "_sde_chunk", counted)
    cfg = engine.SdeConfig(h=1e-2, horizon=60.0, seed=17, record_stride=100)
    stat = engine.hitting_time_stat(games.Region.any_vertex_neighborhood(0.1))
    tau = engine.batch_run(coordination_matrix, [0.5] * 3, [1 / 3] * 3, cfg, 25, stat).values
    assert len(integrated) == 1
    # hits are seen once per segment, so the chunk ends with the segment of the last one
    last = round(tau.max() / cfg.h)
    assert last <= integrated[0] < last + engine._SEGMENT
    assert integrated[0] < cfg.n_steps


def test_hitting_only_clamp_count_does_not_depend_on_chunk_layout(monkeypatch):
    # A chunk integrates until its last path has hit, so a path that hit earlier
    # keeps moving for as long as its chunk-mates need; its floor hits after its
    # own first hit must not count, or the count would depend on the chunk layout.
    cfg = engine.SdeConfig(h=1e-2, horizon=30.0, seed=3)
    region = games.Region.ball(games.vertex(3, 0), 0.1)
    stats = {"tau": engine.hitting_time_stat(region, name="tau"),
             "hit": engine.hit_flag_stat(region, name="hit")}
    out = []
    for chunk in (512, 3):
        monkeypatch.setattr(engine, "_MAX_CHUNK_PATHS", chunk)
        with floor_depth(50.0):
            out.append(engine.batch_run_many(2.0 * np.eye(3), [0.8] * 3, [1 / 3] * 3, cfg, 20,
                                             stats))
    assert out[0]["tau"].values.tobytes() == out[1]["tau"].values.tobytes()
    assert 0 < out[0]["hit"].values.sum() < 20
    assert 0 < out[0]["tau"].clamped_paths == out[1]["tau"].clamped_paths < 20


def test_hitting_only_batch_keeps_no_records(monkeypatch, coordination_matrix):
    # Every step recorded, 10 paths would need 60 001 x 3 x 10 doubles (14.4 MB)
    # that no hitting statistic reads.  Short noise blocks keep the increments small.
    monkeypatch.setattr(engine, "_NOISE_BLOCK_FLOATS", 3_000)
    cfg = engine.SdeConfig(h=1e-2, horizon=600.0, seed=17, record_stride=1)
    stat = engine.hitting_time_stat(games.Region.any_vertex_neighborhood(0.1))
    records = 10 * cfg.record_steps().size * 3 * 8
    tracemalloc.start()
    try:
        tau = engine.batch_run(coordination_matrix, [0.5] * 3, [1 / 3] * 3, cfg, 10, stat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tau.values < 600.0).all()
    assert peak < records / 4


# States of path 2 of a cyclic game, recorded at every step (sigma = 0.5,
# h = 1e-2, T = 3, seed 5), from the kernel that tested and recorded each step
# as it went.
CYCLIC = np.array([[0.0, 2.0, -1.0], [-1.0, 0.0, 2.0], [2.0, -1.0, 0.0]])
GOLDEN_EDGE_SHA256 = "f8e61c34b7dbaebb87aae5361a644cbe8adaa8e31a4c32d31362d8a848dceea6"
EDGE_STEPS = (0, 1, 2, 63, 64, 65, 99, 100, 101, 127, 128, 129, 164, 165, 200, 201, 299, 300)


@pytest.mark.parametrize("block_steps", [1, 2, 100, None])
def test_hits_and_records_on_segment_and_block_edges(monkeypatch, block_steps):
    # Each entry below falls on the first or last step of a segment or of a noise
    # block: with one- and two-step blocks every step does; 100-step blocks run
    # 64, 100, 100 and 36 steps, which puts block ends (164, 264) and segment ends
    # (128, 228) apart; the default blocks run 64, 128 and 108 steps.
    if block_steps is not None:
        monkeypatch.setattr(engine, "_NOISE_BLOCK_FLOATS", block_steps * 2 * 3)
    cfg = engine.SdeConfig(h=1e-2, horizon=3.0, seed=5, record_stride=1)
    run = [CYCLIC, [0.5] * 3, [0.5, 0.3, 0.2], cfg, [2]]
    states = engine._sde_chunk(*run).states[0]
    assert hashlib.sha256(states.tobytes()).hexdigest() == GOLDEN_EDGE_SHA256
    # a small ball around the state of each step, which no earlier state enters
    regions = {}
    for k in EDGE_STEPS:
        gap = np.sqrt(((states[:k] - states[k]) ** 2).sum(axis=1)).min() if k else 1.0
        regions[games.Region.ball(states[k], gap / 2)] = k * cfg.h
    for read_steps in (math.inf, 0):
        res = engine._sde_chunk(*run, regions, read_steps)
        assert {region: res.first_hit[region][0] for region in regions} == regions
        assert res.steps == cfg.n_steps
        if read_steps:
            assert res.states[0].tobytes() == states.tobytes()


# First entry times and final states of 40 paths of the nine-strategy game
# into a ball (h = 1e-2, T = 5, seed 31), as one chunk and as lone paths 0 and
# 7, from the kernel that tested every step.  34 paths enter, at steps 14 to
# 232.  The ball is the only region that sums over the strategies, and numpy
# sums eight or more terms pairwise, so the layout of the states it reads matters.
GOLDEN_BALL_N9_SHA256 = "3a2f5ca43ef07101a8bf0d7de54d8ecc477c74dc26a3a0dd6e0368092baeee9b"


def test_golden_ball_entries_at_nine_strategies():
    A, sigma, x0 = nine_strategy_game()
    cfg = engine.SdeConfig(h=1e-2, horizon=5.0, seed=31, record_stride=500)
    ball = games.Region.ball([0.1, 0.01, 0.08, 0.02, 0.01, 0.3, 0.0, 0.46, 0.02], 0.3)
    h = hashlib.sha256()
    for paths in (range(40), [0], [7]):
        res = engine._sde_chunk(A, sigma, x0, cfg, list(paths), {ball})
        h.update(res.first_hit[ball].tobytes())
        h.update(res.states.tobytes())
        if len(paths) == 40:
            entered = np.isfinite(res.first_hit[ball])
            expected = np.where(entered, res.first_hit[ball], cfg.n_steps * cfg.h)
    assert h.hexdigest() == GOLDEN_BALL_N9_SHA256
    assert entered.sum() == 34
    tau = engine.batch_run(A, sigma, x0, cfg, 40, engine.hitting_time_stat(ball))
    assert tau.values.tobytes() == expected.tobytes()


def test_region_tests_run_once_per_segment(monkeypatch, coordination_matrix):
    contains, calls = games.Region.contains, []

    def counted(region, states):
        calls.append(region)
        return contains(region, states)

    monkeypatch.setattr(games.Region, "contains", counted)
    cfg = engine.SdeConfig(h=1e-2, horizon=60.0, seed=17, record_stride=100)
    regions = [games.Region.any_vertex_neighborhood(0.1),
               games.Region.ball(games.vertex(3, 0), 0.5)]
    res = engine._sde_chunk(coordination_matrix, [0.5] * 3, [1 / 3] * 3, cfg, list(range(25)),
                            regions, 0)
    assert all(np.isfinite(res.first_hit[region]).any() for region in regions)
    assert res.steps > 10 * engine._SEGMENT                 # blocks of many segments
    segments = math.ceil(res.steps / engine._SEGMENT)
    for region in regions:
        assert 0 < calls.count(region) <= segments + 1, region


# ---------------------------------------------------------------------------
# batches run in worker processes


def three_chunk_batch(stats=None) -> dict[str, engine.BatchResult]:
    """1100 paths of the nine-strategy game in three chunks of 366 or 367 paths,
    with some paths clamped and every flag going both ways."""
    A, sigma, x0 = nine_strategy_game()
    cfg = engine.SdeConfig(h=4e-2, horizon=20.0, seed=8, record_stride=25)
    assert engine._chunk_size(cfg, 9) == 512
    if stats is None:
        stats = [engine.final_share(7),
                 engine.hit_flag_stat(games.Region.ball(games.vertex(9, 7), 0.5), name="hit"),
                 engine.window_max_share(8, 10.0),
                 engine.captured_stat(games.Region.ball(games.vertex(9, 7), 0.9), 7, 0.6,
                                      name="captured")]
    with floor_depth(50.0):
        return engine.batch_run_many(A, sigma, x0, cfg, 1100, {st.name: st for st in stats})


def children_cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def test_batch_bytes_do_not_depend_on_worker_count(monkeypatch):
    monkeypatch.setattr(engine, "_USABLE_CPUS", 1)
    before = children_cpu_seconds()
    alone = three_chunk_batch()
    assert children_cpu_seconds() == before
    monkeypatch.setattr(engine, "_USABLE_CPUS", 2)
    pooled = three_chunk_batch()
    assert children_cpu_seconds() > before          # the chunks ran in workers
    assert 0 < alone["final_share_7"].clamped_paths < 1100
    for name, res in alone.items():
        assert 0.0 < res.mean < 1.0, name
        assert pooled[name].values.tobytes() == res.values.tobytes(), name
        assert pooled[name].clamped_paths == res.clamped_paths, name


def test_pooled_batch_reports_the_lowest_failing_chunk(monkeypatch):
    monkeypatch.setattr(engine, "_USABLE_CPUS", 2)
    fds = open_descriptors()
    cfg = engine.SdeConfig(h=1e-2, horizon=1.0, seed=1)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(5):
            with pytest.raises(SimulationError, match=r"for paths \[0, 1, 2, 3, 4\]$"):
                engine.batch_run(PD, [1e200, 1e200], [0.5, 0.5], cfg, 1100,
                                 engine.final_share(0))
    assert_no_child_process(fds)


def test_unknown_statistic_kind_raises_before_any_path_runs(monkeypatch):
    # 1100 paths of 2 strategies would run in two workers
    monkeypatch.setattr(engine, "_USABLE_CPUS", 2)
    forks, streams = counted_forks(monkeypatch), []
    monkeypatch.setattr(rng, "path_generator", lambda *args: streams.append(args))
    cfg = engine.SdeConfig(h=1e-2, horizon=1.0, seed=1)
    with pytest.raises(ValidationError, match=r"^unknown statistic kind 'nope'$"):
        engine.batch_run(PD, [0.5, 0.5], [0.5, 0.5], cfg, 1100,
                         engine.Statistic(name="x", kind="nope"))
    assert forks == [] and streams == []


def failing_chunks(monkeypatch, fail) -> None:
    """Make ``engine._sde_chunk`` run ``fail(first_path)`` before each chunk;
    workers inherit the patch, since they fork after it."""
    sde_chunk = engine._sde_chunk

    def chunk(A, sigma, x0, cfg, paths, *args):
        fail(paths[0])
        return sde_chunk(A, sigma, x0, cfg, paths, *args)

    monkeypatch.setattr(engine, "_sde_chunk", chunk)


@pytest.mark.parametrize("failing, lowest", [({10, 20}, 10), ({20, 30}, 20), ({30}, 30),
                                             ({10, "exit 20"}, 10)])
def test_raising_worker_reports_the_lowest_failing_chunk(monkeypatch, failing, lowest):
    # four 10-path chunks: worker 0 runs chunks 0 and 2, worker 1 chunks 1 and 3,
    # so the lowest failure may come from either worker, first or second; a
    # worker that exits at a later chunk ("exit 20": worker 0 at chunk 2) must
    # not hide a lower chunk's exception
    parent = os.getpid()

    def fail(first):
        if f"exit {first}" in failing and os.getpid() != parent:
            os._exit(3)
        if first in failing:
            raise ValidationError(f"chunk from path {first}")

    failing_chunks(monkeypatch, fail)
    monkeypatch.setattr(engine, "_MAX_CHUNK_PATHS", 10)
    cfg = engine.SdeConfig(h=1e-2, horizon=1.0, seed=1)
    for cpus in (1, 2):
        fds = open_descriptors()
        monkeypatch.setattr(engine, "_USABLE_CPUS", cpus)
        with time_limit(120), pytest.raises(ValidationError, match=f"from path {lowest}$"):
            engine.batch_run(PD, [0.5, 0.5], [0.5, 0.5], cfg, 40, engine.final_share(0))
        assert_no_child_process(fds)


@pytest.mark.parametrize("exiting", [0, 1])
def test_exiting_worker_makes_the_batch_raise(monkeypatch, exiting):
    # worker ``exiting`` dies at its first chunk; the other finishes or is killed
    parent = os.getpid()

    def fail(first):
        if os.getpid() != parent and first == 10 * exiting:
            os._exit(3)

    failing_chunks(monkeypatch, fail)
    monkeypatch.setattr(engine, "_MAX_CHUNK_PATHS", 10)
    monkeypatch.setattr(engine, "_USABLE_CPUS", 2)
    fds = open_descriptors()
    cfg = engine.SdeConfig(h=1e-2, horizon=1.0, seed=1)
    with time_limit(120), pytest.raises(
            SimulationError, match=f"chunk worker {exiting} exited before sending its values"):
        engine.batch_run(PD, [0.5, 0.5], [0.5, 0.5], cfg, 40, engine.final_share(0))
    assert_no_child_process(fds)


def test_chunk_messages_larger_than_a_pipe_buffer(monkeypatch):
    # 24 statistics of 512 paths make each chunk's message about 98 KB, more than
    # a pipe holds, so a worker that runs ahead blocks in its write until taken
    cfg = engine.SdeConfig(h=1e-2, horizon=1.0, seed=5)
    stats = {st.name: st for st in (engine.share_at(j, 0.04 * k)
                                    for j in (0, 1) for k in range(1, 13))}
    assert len(stats) == 24

    def run():
        return engine.batch_run_many(PD, [0.5, 0.5], [0.5, 0.5], cfg, 2048, stats)

    fds = open_descriptors()
    monkeypatch.setattr(engine, "_USABLE_CPUS", 1)
    alone = run()
    monkeypatch.setattr(engine, "_USABLE_CPUS", 2)
    before = children_cpu_seconds()
    with time_limit(120):
        pooled = run()
    assert children_cpu_seconds() > before          # the chunks ran in workers
    assert_no_child_process(fds)
    for name, res in alone.items():
        assert pooled[name].values.tobytes() == res.values.tobytes(), name


def test_unpicklable_statistic_runs_in_pooled_batch(monkeypatch):
    # a statistic reaches the workers by fork, never through the pipe, so a
    # subclass defined here (which pickle cannot find) works like the base class
    class LocalStatistic(engine.Statistic):
        pass

    local = LocalStatistic(name="final", kind="final_share", j=7)
    with pytest.raises((pickle.PicklingError, AttributeError)):
        pickle.dumps(local)
    monkeypatch.setattr(engine, "_USABLE_CPUS", 2)
    pooled = three_chunk_batch([local])["final"]
    assert pooled.values.tobytes() == three_chunk_batch()["final_share_7"].values.tobytes()


def final_share_bytes() -> bytes:
    return three_chunk_batch([engine.final_share(7)])["final_share_7"].values.tobytes()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_batch_inside_daemonic_worker_matches_parent(monkeypatch):
    # a pool worker is daemonic, which a batch does not look at: called inside
    # one, the batch forks its own chunk workers
    monkeypatch.setattr(engine, "_USABLE_CPUS", 2)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        inside = pool.apply(final_share_bytes)
    assert inside == final_share_bytes()


# ---------------------------------------------------------------------------
# noise drawn in a forked producer


def force_producer(monkeypatch) -> list:
    """Start a producer for every chunk of several noise blocks; returns the list
    that each start appends to."""
    monkeypatch.setattr(engine, "_USABLE_CPUS", 2)
    monkeypatch.setattr(engine, "_NOISE_BLOCK_FLOATS", 3_000)
    produced, started = engine._produced_blocks, []

    def counted(*args):
        started.append(args)
        return produced(*args)

    monkeypatch.setattr(engine, "_produced_blocks", counted)
    return started


@pytest.mark.parametrize("total, block", [(1, 1), (7, 1), (300, 10), (300, 64), (1000, 100),
                                          (1000, 999), (100_000, 87_381), (131_072, 131_072)])
def test_spans_ramp_up_from_one_segment(total, block):
    spans = engine._spans(total, block)
    assert spans[0][0] == 0 and spans[-1][1] == total
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
    sizes = [stop - start for start, stop in spans]
    assert sizes[0] == min(block, engine._SEGMENT)
    for before, size in zip(sizes, sizes[1:-1]):
        assert size == min(2 * before, block)
    assert 0 < sizes[-1] <= (min(2 * sizes[-2], block) if len(sizes) > 1 else block)


def test_narrow_chunk_of_several_blocks_uses_a_producer(monkeypatch):
    # 3 paths of 3 strategies draw 29 127 steps a block at most, so a chunk of
    # 100 000 steps takes several blocks (64, 128, ..., 16 384, 29 127, 29 127,
    # then 9 042) and, at the default settings, draws them in a producer
    cfg = engine.SdeConfig(h=1e-3, horizon=100.0, seed=23, record_stride=1000)
    fds = open_descriptors()
    run = [CYCLIC, [0.5] * 3, [0.5, 0.3, 0.2], cfg, [2, 4, 9]]
    monkeypatch.setattr(engine, "_USABLE_CPUS", 1)
    alone = engine._sde_chunk(*run)
    monkeypatch.setattr(engine, "_USABLE_CPUS", 2)
    produced, blocks = engine._produced_blocks, []
    monkeypatch.setattr(engine, "_produced_blocks",
                        lambda *args: blocks.append(args[-1]) or produced(*args))
    with time_limit(120):
        piped = engine._sde_chunk(*run)
    assert blocks == [engine._NOISE_BLOCK_FLOATS // 9]
    assert_no_child_process(fds)
    assert piped.states.tobytes() == alone.states.tobytes()
    assert piped.first_floor.tobytes() == alone.first_floor.tobytes()


def test_noise_block_size_moves_no_byte(monkeypatch, mixed_dominance_matrix):
    # At the old default of 786 432 floats and at the new one, 20 paths of 3
    # strategies draw 13 107 and 4 369 steps a block, so the 30 000-step chunk takes
    # several blocks from a producer under both.  200 paths draw 600 normals a step,
    # so that batch runs as two 100-path chunks in workers, which draw their own
    # blocks of 2 621 and 873 steps.  Strategy 0 loses 0.5 a unit time against the
    # others, so a floor 50 deep catches every path near t = 100, and the floor
    # checks, scheduled from each block's largest increment, run in both.
    fds = open_descriptors()
    monkeypatch.setattr(engine, "_USABLE_CPUS", 2)
    produced, forked, blocks, layouts = engine._produced_blocks, engine._forked_chunks, [], []
    monkeypatch.setattr(engine, "_produced_blocks",
                        lambda *args: blocks.append(args[-1]) or produced(*args))
    monkeypatch.setattr(engine, "_forked_chunks",
                        lambda job, spans, workers: layouts.append((spans, workers))
                        or forked(job, spans, workers))
    run = [mixed_dominance_matrix, [0.3] * 3, [1 / 3] * 3]
    chunk_cfg = engine.SdeConfig(h=1e-2, horizon=300.0, seed=31, record_stride=500)
    batch_cfg = engine.SdeConfig(h=1e-2, horizon=150.0, seed=31, record_stride=100)
    stats = {"final": engine.final_share(1), "late": engine.window_max_share(2, 75.0)}
    outputs = []
    for floats in (786_432, engine._NOISE_BLOCK_FLOATS):
        monkeypatch.setattr(engine, "_NOISE_BLOCK_FLOATS", floats)
        with floor_depth(50.0), time_limit(120):
            chunk = engine._sde_chunk(*run, chunk_cfg, list(range(20)))
            batch = engine.batch_run_many(*run, batch_cfg, 200, stats)
        assert np.isfinite(chunk.first_floor).all()
        assert all(res.clamped_paths == 200 for res in batch.values())
        outputs.append((chunk.states.tobytes(), chunk.first_floor.tobytes(),
                        {name: res.to_json_dict() for name, res in batch.items()}))
    assert engine._NOISE_BLOCK_FLOATS == 262_144
    assert blocks == [13_107, 4_369]
    assert layouts == [([(0, 100), (100, 200)], 2)] * 2
    assert_no_child_process(fds)
    assert outputs[0] == outputs[1]


@contextlib.contextmanager
def time_limit(seconds: int):
    """Fail, instead of hanging, if the block runs longer than ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def producer_batches(coordination_matrix) -> list[dict[str, engine.BatchResult]]:
    """A recorded batch and a hitting-only batch that stops early, one chunk each."""
    cfg = engine.SdeConfig(h=1e-2, horizon=60.0, seed=17, record_stride=100)
    region = games.Region.any_vertex_neighborhood(0.1)
    stats = {"tau": engine.hitting_time_stat(region), "hit": engine.hit_flag_stat(region)}
    run = [coordination_matrix, [0.5] * 3, [1 / 3] * 3, cfg, 25]
    return [engine.batch_run_many(*run, dict(stats, final=engine.final_share(0),
                                             late=engine.window_max_share(1, 30.0))),
            engine.batch_run_many(*run, stats)]


def test_producer_gives_the_same_bytes(monkeypatch, coordination_matrix):
    fds = open_descriptors()
    monkeypatch.setattr(engine, "_NOISE_BLOCK_FLOATS", 3_000)
    monkeypatch.setattr(engine, "_USABLE_CPUS", 1)
    alone = producer_batches(coordination_matrix)
    started = force_producer(monkeypatch)
    with time_limit(120):
        produced = producer_batches(coordination_matrix)
    assert len(started) == 2
    assert_no_child_process(fds)
    for a, b in zip(alone, produced):
        assert a.keys() == b.keys()
        for name in a:
            assert b[name].to_json_dict() == a[name].to_json_dict(), name


def test_producer_is_reaped_after_a_raised_step(monkeypatch):
    # 100 paths of 2 strategies draw fewer normals a step than would cut the
    # batch for the CPUs, so it keeps one chunk, which draws in a producer
    assert 100 * 2 < 2 * engine._CHUNK_MIN_DRAWS
    fds = open_descriptors()
    started = force_producer(monkeypatch)
    cfg = engine.SdeConfig(h=1e-2, horizon=1.0, seed=1)
    with np.errstate(over="ignore", invalid="ignore"), time_limit(120):
        with pytest.raises(SimulationError, match="non-finite log-shares at step 1 "):
            engine.batch_run(PD, [1e200, 1e200], [0.5, 0.5], cfg, 100, engine.final_share(0))
    assert len(started) == 1
    assert_no_child_process(fds)


@pytest.mark.parametrize("death", ["raises", "exits"])
def test_dead_producer_makes_the_batch_raise(monkeypatch, death):
    # the producer makes the path streams, so a failing path_generator fails
    # there; 100 paths of 2 strategies keep one chunk, as above
    force_producer(monkeypatch)
    path_generator, parent = rng.path_generator, os.getpid()

    def failing(seed, path):
        if os.getpid() != parent:
            if death == "exits":
                os._exit(3)
            raise ValidationError("no stream for this path")
        return path_generator(seed, path)

    monkeypatch.setattr(rng, "path_generator", failing)
    fds = open_descriptors()
    cfg = engine.SdeConfig(h=1e-2, horizon=2.0, seed=1)
    expected = (ValidationError, "no stream") if death == "raises" else (
        SimulationError, "noise producer exited before block 0")
    with time_limit(120), pytest.raises(expected[0], match=expected[1]):
        engine.batch_run(PD, [0.5, 0.5], [0.5, 0.5], cfg, 100, engine.final_share(0))
    assert_no_child_process(fds)


# ---------------------------------------------------------------------------
# a lone path's CSV, formatted while a forked child integrates it


def floor_game():
    # strategy 0 gains 20 a unit time on strategy 1, so a floor 50 deep is hit by t = 2.5
    return [[10.0, 10.0], [-10.0, -10.0]], [0.1, 0.1], [0.5, 0.5]


@pytest.mark.parametrize("game, h, horizon, stride, streamed", [
    ("cyclic", 1e-3, 3.0, 1, True),
    ("cyclic", 1e-3, 18.0, 7, True),
    ("nine", 1e-3, 3.0, 1, True),
    ("nine", 1e-3, 18.0, 7, True),
    ("cyclic", 1e-3, 50.0, 1, True),        # a lone path draws 43 690 steps a block
    ("floor", 1e-3, 3.0, 1, True),
    ("cyclic", 1e-3, 2.0, 1, False),        # 2001 records format in-process
], ids=["n3-stride1", "n3-stride7", "n9-stride1", "n9-stride7", "two-blocks", "clamped",
        "short"])
def test_streamed_trajectory_csv_matches_in_process(monkeypatch, game, h, horizon, stride,
                                                    streamed):
    A, sigma, x0 = {"cyclic": (CYCLIC, [0.5, 0.3, 0.2], [0.5, 0.3, 0.2]),
                    "nine": nine_strategy_game(), "floor": floor_game()}[game]
    cfg = engine.SdeConfig(h=h, horizon=horizon, seed=37, record_stride=stride)
    assert (cfg.record_steps().size >= engine._STREAM_MIN_RECORDS) == streamed
    with floor_depth(50.0 if game == "floor" else engine.Y_CAP):
        fds = open_descriptors()
        traj = engine.simulate_sde(A, sigma, x0, cfg, path_index=3)
        expected = (engine.trajectory_csv_text(traj), traj.clamped)
        assert traj.clamped == (game == "floor")
        forks = counted_forks(monkeypatch)
        for cpus in (1, 2):
            monkeypatch.setattr(engine, "_USABLE_CPUS", cpus)
            with time_limit(120):
                assert engine.trajectory_csv(A, sigma, x0, cfg, path_index=3) == expected
            assert_no_child_process(fds)
    assert len(forks) == int(streamed)      # the streamer forks no producer of its own


def test_streamed_trajectory_raises_the_childs_error_unchanged(monkeypatch):
    cfg = engine.SdeConfig(h=1e-3, horizon=3.0, seed=1)
    fds = open_descriptors()
    errors = []
    for cpus in (1, 2):
        monkeypatch.setattr(engine, "_USABLE_CPUS", cpus)
        with np.errstate(over="ignore", invalid="ignore"), time_limit(120):
            with pytest.raises(SimulationError, match="non-finite log-shares at step 1 ") as exc:
                engine.trajectory_csv(PD, [1e200, 1e200], [0.5, 0.5], cfg)
        errors.append(str(exc.value))
        assert_no_child_process(fds)
    assert errors[0] == errors[1]


@pytest.mark.parametrize("after_rows", [0, 1000])
def test_streamed_trajectory_child_that_exits_raises(monkeypatch, after_rows):
    # the child dies before its first record, or once it has sent some of them
    sde_chunk, parent = engine._sde_chunk, os.getpid()

    def chunk(*args, on_records, **kwargs):
        def records(first, rows):
            if os.getpid() != parent and first >= after_rows:
                os._exit(3)
            on_records(first, rows)
        return sde_chunk(*args, on_records=records, **kwargs)

    monkeypatch.setattr(engine, "_sde_chunk", chunk)
    monkeypatch.setattr(engine, "_USABLE_CPUS", 2)
    fds = open_descriptors()
    cfg = engine.SdeConfig(h=1e-3, horizon=3.0, seed=1)
    with time_limit(120), pytest.raises(SimulationError, match=r"path 0 exited after sending "
                                        r"\d+ of its 3001 records"):
        engine.trajectory_csv(PD, [0.5, 0.5], [0.5, 0.5], cfg)
    assert_no_child_process(fds)


# ---------------------------------------------------------------------------
# a fork that fails


@pytest.mark.parametrize("child, after", [("producer", 0), ("workers", 0), ("workers", 1),
                                          ("streamer", 0)])
def test_failed_fork_leaks_nothing_and_raises(monkeypatch, child, after):
    # 100 paths of 2 strategies draw 3000 steps in blocks of at most 1310, so one
    # chunk draws in a producer; four 10-path chunks run in two workers, the second
    # of which may fail to fork once the first runs; 3001 records stream
    monkeypatch.setattr(engine, "_USABLE_CPUS", 2)
    monkeypatch.setattr(engine, "_MAX_CHUNK_PATHS", 10 if child == "workers" else 512)
    cfg = engine.SdeConfig(h=1e-3, horizon=3.0, seed=1)
    run = {"producer": lambda: engine.batch_run(PD, [0.5, 0.5], [0.5, 0.5], cfg, 100,
                                                engine.final_share(0)),
           "workers": lambda: engine.batch_run(PD, [0.5, 0.5], [0.5, 0.5], cfg, 40,
                                               engine.final_share(0)),
           "streamer": lambda: engine.trajectory_csv(PD, [0.5, 0.5], [0.5, 0.5], cfg)}[child]
    fds = open_descriptors()
    forks = failing_forks(monkeypatch, after)
    with time_limit(120), pytest.raises(SimulationError, match=r"^cannot fork an engine child: "
                                        r"\[Errno \d+\] Resource temporarily unavailable$"):
        run()
    assert len(forks) == after
    assert_no_child_process(fds)


# ---------------------------------------------------------------------------
# the layout chosen from the normals drawn per step


def layout_batch(paths: int) -> dict[str, dict]:
    cfg = engine.SdeConfig(h=1e-2, horizon=10.0, seed=29, record_stride=100)
    stats = {"final": engine.final_share(0), "late": engine.window_max_share(1, 5.0)}
    out = engine.batch_run_many(CYCLIC, [0.5] * 3, [0.5, 0.3, 0.2], cfg, paths, stats)
    return {name: res.to_json_dict() for name, res in out.items()}


@pytest.mark.parametrize("paths, chunks", [(500, [(0, 250), (250, 500)]), (50, None)])
def test_batch_layout_follows_the_draws_per_step(monkeypatch, paths, chunks):
    # 500 paths of 3 strategies draw 1500 normals a step, so the batch runs as two
    # chunks in two workers; 50 paths draw 150 and run in-process with a producer.
    # Short noise blocks give every chunk several, so a producer could start in each.
    monkeypatch.setattr(engine, "_NOISE_BLOCK_FLOATS", 30_000)
    fds = open_descriptors()
    forks = counted_forks(monkeypatch)
    monkeypatch.setattr(engine, "_USABLE_CPUS", 1)
    alone = layout_batch(paths)
    assert forks == []                  # one usable CPU: nothing forks
    parent, produced, forked = os.getpid(), engine._produced_blocks, engine._forked_chunks
    started, pooled = [], []

    def producer(*args):
        assert os.getpid() == parent, "a chunk worker started a producer"
        started.append(args)
        return produced(*args)

    monkeypatch.setattr(engine, "_produced_blocks", producer)
    monkeypatch.setattr(engine, "_forked_chunks",
                        lambda job, spans, workers: pooled.append((spans, workers))
                        or forked(job, spans, workers))
    monkeypatch.setattr(engine, "_USABLE_CPUS", 2)
    with time_limit(120):
        assert layout_batch(paths) == alone
    assert_no_child_process(fds)
    if chunks:
        assert pooled == [(chunks, 2)] and started == [] and len(forks) == 2
    else:
        assert pooled == [] and len(started) == len(forks) == 1


def test_fresh_caller_makes_the_path_key_before_it_forks():
    # Importing numpy.random takes about 18 ms; a caller that never made a path
    # stream itself left every producer child to import it on its own.  Neither
    # the import of the engine nor its batches import multiprocessing.
    probe = textwrap.dedent("""
        import sys
        from replab import engine
        loaded = lambda: [m in sys.modules for m in ("numpy.random", "multiprocessing")]
        print(loaded())
        engine._USABLE_CPUS, engine._NOISE_BLOCK_FLOATS = 2, 3_000    # 300-step blocks
        cfg = engine.SdeConfig(h=1e-2, horizon=20.0, seed=1)
        engine.batch_run([[3.0, 0.0], [5.0, 1.0]], [0.5, 0.5], [0.5, 0.5], cfg, 5,
                         engine.final_share(0))
        print(loaded())
        engine.batch_run([[3.0, 0.0], [5.0, 1.0]], [0.5, 0.5], [0.5, 0.5], cfg, 500,
                         engine.final_share(0))
        print(loaded())
    """)
    src = os.path.dirname(os.path.dirname(engine.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[:3] == ["[False, False]", "[True, False]", "[True, False]"]


# ---------------------------------------------------------------------------
# the long-run law of two strategies, two-sided against the exact Beta law

HAWK_DOVE = [[0.0, 0.5], [0.5, 0.0]]


def central_mass_error(sigma) -> tuple[float, float]:
    """The engine's long-run mass on ``|x_1 - 1/2| <= 0.1`` minus the exact Beta
    mass, and its tolerance: 3 SE plus the difference between the runs at h and 2h,
    which record the same times."""
    near_half = games.Region.ball((0.5, 0.5), 0.1 * math.sqrt(2.0))
    stat = engine.occupation_stat(near_half, 20.0)
    fine, coarse = (engine.batch_run(HAWK_DOVE, sigma, [0.5, 0.5],
                                     engine.SdeConfig(h=h, horizon=200.0, seed=3,
                                                      record_stride=stride), 200, stat)
                    for h, stride in ((0.01, 10), (0.02, 5)))
    law = scipy.stats.beta(*stationary_beta(HAWK_DOVE, sigma))
    return (fine.mean - (law.cdf(0.6) - law.cdf(0.4)),
            3.0 * fine.std_error + abs(fine.mean - coarse.mean))


@pytest.mark.parametrize("sigma, mass", [((0.3, 0.3), 0.48983), ((0.2, 0.4), 0.43505)])
def test_two_strategy_long_run_law_is_the_exact_beta(sigma, mass):
    # Beta(50/9, 50/9) and Beta(5.6, 4.4): c > 0 > c + d, so x_1 is positive recurrent
    law = scipy.stats.beta(*stationary_beta(HAWK_DOVE, sigma))
    assert law.cdf(0.6) - law.cdf(0.4) == pytest.approx(mass, abs=5e-6)
    error, tolerance = central_mass_error(sigma)
    assert abs(error) <= tolerance


def test_unequal_noise_detects_the_dropped_ito_term(monkeypatch):
    # with equal noise every log-share loses the same sigma^2 / 2, which the shares
    # cancel, so only unequal noise shows the Ito term dropped
    faulty_payoffs(monkeypatch, lambda A, sigma: A + 0.5 * (sigma * sigma)[:, None])
    error, tolerance = central_mass_error((0.2, 0.4))
    assert abs(error) > tolerance


@pytest.mark.parametrize("A", [PD, [[2.0, 0.0], [0.0, 1.0]], [[1.0, 1.0], [0.0, 0.0]]])
def test_stationary_beta_refuses_games_without_an_interior_law(A):
    # strategy 2 dominant, bistable coordination, strategy 1 dominant
    with pytest.raises(ValueError, match="no stationary law"):
        stationary_beta(A, (0.3, 0.3))


# ---------------------------------------------------------------------------
# log-share contrasts, two-sided against their exact Gaussian law


def contrast_z(A, sigma, x0, cfg: engine.SdeConfig, paths: int, weights, every: int):
    """z of the sample mean and of the sample variance of each contrast martingale
    (:func:`util.contrast_martingale`) against its exact law N(0, t |w * sigma|^2),
    at every ``every``-th recorded time after 0, from one in-process chunk."""
    sigma = np.asarray(sigma, dtype=float)
    with time_limit(120):
        res = engine._sde_chunk(A, sigma, x0, cfg, list(range(paths)))
    assert not np.isfinite(res.first_floor).any()      # a floored step breaks the law
    z_mean, z_var = [], []
    for w in weights:
        M = contrast_martingale(res.times, res.states, A, sigma, w)[:, every - 1::every]
        variance = res.times[every::every] * float(np.sum((np.asarray(w) * sigma) ** 2))
        z_mean.append(M.mean(axis=0) / np.sqrt(variance / paths))
        z_var.append((M.var(axis=0, ddof=1) / variance - 1.0) / math.sqrt(2.0 / (paths - 1)))
    return np.array(z_mean), np.array(z_var)


def load_testbed(name: str):
    A, sigma, _ = cli.load_game(os.path.join(os.path.dirname(__file__), "..", "testbeds", name))
    return A, sigma


def mixed_dominance_z():
    # 3.1's testbed: strategy 0 earns 2 and the even mix of 1 and 2 earns 2.5 against
    # any state, and the noise is equal, so Y = log x_1 - (log x_2 + log x_3) / 2 is
    # the exact walk N(Y_0 - 0.5 t, 0.135 t), readable at the record stride
    cfg = engine.SdeConfig(h=0.05, horizon=20.0, seed=3101, record_stride=100)
    return contrast_z(*load_testbed("mixed_dominance.json"), [1 / 3] * 3, cfg, 4000,
                      [[1.0, -0.5, -0.5]], 1)


COORDINATION_CONTRASTS = [[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [1.0, 0.0, -1.0]]


def coordination_z():
    # the compensator reads A x at every step, so the records are every step
    cfg = engine.SdeConfig(h=1e-2, horizon=5.0, seed=3102, record_stride=1)
    return contrast_z(*load_testbed("coordination.json"), [0.5, 0.3, 0.2], cfg, 500,
                      COORDINATION_CONTRASTS, 100)


def coordination_wide_z():
    # noise x1.1 moves the variance by 0.21 of itself: z of about 3.3 at 500 paths,
    # inside the band, and 6.6 at 2000
    cfg = engine.SdeConfig(h=1e-2, horizon=5.0, seed=3103, record_stride=1)
    return contrast_z(*load_testbed("coordination.json"), [0.5, 0.3, 0.2], cfg, 2000,
                      COORDINATION_CONTRASTS, 100)


def hawk_dove_z():
    # unequal noise, so dropping the Ito term moves the mean of x_1 - x_2's contrast by
    # (sigma_2^2 - sigma_1^2) / 2 = 0.06 a unit time: z of 9.5 at t = 5
    cfg = engine.SdeConfig(h=1e-2, horizon=5.0, seed=3104, record_stride=1)
    return contrast_z(HAWK_DOVE, [0.2, 0.4], [0.5, 0.5], cfg, 1000, [[1.0, -1.0]], 100)


@pytest.mark.parametrize("law", [mixed_dominance_z, coordination_z, coordination_wide_z,
                                 hawk_dove_z])
def test_log_share_contrasts_follow_their_exact_gaussian_law(law):
    z_mean, z_var = law()
    assert np.abs(z_mean).max() <= 4.0 and np.abs(z_var).max() <= 4.0, (z_mean, z_var)


def drift_times(c: float):
    """The payoffs of a drift fault that scales the whole drift by ``c``."""
    return lambda A, sigma: c * A - (c - 1.0) * 0.5 * (sigma * sigma)[:, None]


def no_ito_term(A, sigma):
    """The payoffs of a drift fault that drops the Ito term ``-sigma^2 / 2``."""
    return A + 0.5 * (sigma * sigma)[:, None]


@pytest.mark.parametrize("law, fault", [
    (mixed_dominance_z, lambda mp: scaled_noise(mp, 1.1)),
    (mixed_dominance_z, lambda mp: faulty_payoffs(mp, drift_times(0.9))),
    (coordination_z, lambda mp: faulty_payoffs(mp, drift_times(0.9))),
    (coordination_wide_z, lambda mp: scaled_noise(mp, 1.1)),
    (hawk_dove_z, lambda mp: faulty_payoffs(mp, no_ito_term)),
], ids=["mixed-noise-x1.1", "mixed-drift-x0.9", "coordination-drift-x0.9",
        "coordination-noise-x1.1", "hawk-dove-no-ito"])
def test_log_share_contrasts_detect_engine_faults(monkeypatch, law, fault):
    fault(monkeypatch)
    z_mean, z_var = law()
    assert max(np.abs(z_mean).max(), np.abs(z_var).max()) > 4.0


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
    # time units; every state in this ball around the vertex of strategy 2 has it
    region = games.Region.ball(games.vertex(3, 2), 0.05)
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


def test_trajectory_csv_matches_per_value_formatting():
    h = 1e-3
    times = np.arange(6) * h
    states = np.array([[1e-300, 1.0, 1.0 / 3.0], [0.1 + 0.2, 1.0 - 1e-16, 5e-324],
                       [0.5, 0.25, 0.25], [2.0 / 3.0, 1e-17, 1.0 / 3.0 - 1e-17],
                       [1.0, 1e-300, 1e-300], [0.125, 0.375, 0.5]])
    traj = engine.Trajectory(times=times, states=states, clamped=False, seed=0)
    lines = ["t,x_1,x_2,x_3"]
    for i in range(times.size):
        lines.append(",".join([f"{times[i]:.17g}"] + [f"{v:.17g}" for v in states[i]]))
    assert engine.trajectory_csv_text(traj) == "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# golden digests of the log-share kernel; a change means a changed kernel or a
# changed numpy Gaussian stream (NEP 19)

GOLDEN_TRAJECTORY_SHA256 = "4bd19ea0769a507c2cdcddc8eada9e09827be03d10bab4bd9d3e4bd3b6eacf25"
GOLDEN_BATCH_SHA256 = "3fd6f75d392dfab3d394e5df7591b3705a4705c4ff419ce050fa2b9c3ef6f0a4"

# Values of the same fixtures from the log-ratio kernel that the log-share
# kernel replaced.  The two agree in exact arithmetic, so floats may move by
# rounding only and the hit flags not at all.
LOG_RATIO_KERNEL_ROWS = {
    0: [0.2, 0.3, 0.5],
    50: [0.15918622086735293, 0.13771367590200898, 0.7031001032306381],
    100: [0.07995709590766921, 0.057726209999085946, 0.8623166940932449],
}
LOG_RATIO_KERNEL_FINALS = {0: 0.2680145831876503, 299: 0.21020680389835616,
                           300: 0.15302132000542346, 599: 0.12571511703721347}
LOG_RATIO_KERNEL_FINAL_SUM = 116.4674637160401
LOG_RATIO_KERNEL_HIT_SHA256 = "243a7d332d86b8e20edfaff36eb43ec078d154b2dc717323c22429c31429b2d0"


def golden_trajectory(A) -> engine.Trajectory:
    cfg = engine.SdeConfig(h=1e-3, horizon=1.0, seed=2005, record_stride=10)
    return engine.simulate_sde(A, [0.3, 0.2, 0.1], [0.2, 0.3, 0.5], cfg, path_index=7)


def golden_batch(A) -> dict[str, engine.BatchResult]:
    cfg = engine.SdeConfig(h=1e-2, horizon=1.0, seed=2005, record_stride=10)
    assert engine._chunk_size(cfg, 3) < 600          # two chunks
    region = games.Region.ball((0.2, 0.4, 0.4), 0.12)
    return engine.batch_run_many(
        A, [0.3, 0.2, 0.1], [1 / 3] * 3, cfg, 600,
        {"final": engine.final_share(0), "hit": engine.hit_flag_stat(region, name="hit")})


def test_log_share_kernel_matches_parent_kernel(mixed_dominance_matrix):
    traj = golden_trajectory(mixed_dominance_matrix)
    for row, expected in LOG_RATIO_KERNEL_ROWS.items():
        assert np.max(np.abs(traj.states[row] - expected)) <= 1e-12
    out = golden_batch(mixed_dominance_matrix)
    finals = out["final"].values
    for i, expected in LOG_RATIO_KERNEL_FINALS.items():
        assert abs(finals[i] - expected) <= 1e-12
    assert abs(finals.sum() - LOG_RATIO_KERNEL_FINAL_SUM) <= 1e-12
    hit_digest = hashlib.sha256(out["hit"].values.tobytes()).hexdigest()
    assert hit_digest == LOG_RATIO_KERNEL_HIT_SHA256


# Values of nine-strategy fixtures from a copy of the kernel's step that holds
# the state as (paths, n).  The column-major kernel sums each path's shares one
# strategy after another, where that copy sums eight or more of them pairwise,
# so floats may move by rounding only; the bound is twice the largest move
# measured (2**-54, at row 100 and at final 512).
ROW_MAJOR_N9_ROWS = {
    50: [0.028626859891599323, 0.02264077825801107, 0.1388239093548399,
         0.06944496411941524, 0.10365661269285496, 0.09273664151122583,
         0.1030196021269806, 0.2545401440312809, 0.1865104880137922],
    100: [0.027755581247391557, 0.014875332414058959, 0.15193297058339472,
          0.04961406292231001, 0.04813378229955004, 0.1355603908978177,
          0.0304274241674113, 0.2839300332362168, 0.2577704222318488],
}
ROW_MAJOR_N9_FINALS = {0: 0.0841449611265796, 511: 0.0009647824160802872,
                       512: 0.33475631060740096, 599: 0.026150370299711595}
ROW_MAJOR_N9_FINAL_SUM = 20.100080306339937
ROW_MAJOR_N9_MAX_DEVIATION = 1.1102230246251565e-16   # 2**-53


def test_column_major_kernel_matches_row_major_kernel_at_nine_strategies():
    A, sigma, x0 = nine_strategy_game()
    cfg = engine.SdeConfig(h=1e-3, horizon=1.0, seed=2005, record_stride=10)
    traj = engine.simulate_sde(A, sigma, x0, cfg, path_index=7)
    for row, expected in ROW_MAJOR_N9_ROWS.items():
        assert np.max(np.abs(traj.states[row] - expected)) <= ROW_MAJOR_N9_MAX_DEVIATION
    cfg = engine.SdeConfig(h=1e-2, horizon=3.0, seed=2005, record_stride=10)
    assert engine._chunk_size(cfg, 9) < 600          # two chunks
    finals = engine.batch_run(A, sigma, x0, cfg, 600, engine.final_share(0)).values
    for i, expected in ROW_MAJOR_N9_FINALS.items():
        assert abs(finals[i] - expected) <= ROW_MAJOR_N9_MAX_DEVIATION
    assert abs(finals.sum() - ROW_MAJOR_N9_FINAL_SUM) <= ROW_MAJOR_N9_MAX_DEVIATION


# First floor times and final states of 10 lone paths on 2 I, sigma = 0.8,
# a floor 50 deep, T = 30, h = 1e-2, seed 3, from the kernel that checked the floor on
# every step.  9 paths reach the floor, each one 125 to 320 times.
GOLDEN_FLOOR_SHA256 = "6e7ad2740ea317db79f33fb53ae3783916a0954df42e0ef3236f84335e976685"
GOLDEN_FLOOR_CLAMPED = 9


@pytest.mark.parametrize("block_steps", [1, 2, None])
def test_floor_detection_matches_every_step_check(monkeypatch, block_steps):
    # The kernel checks the floor only where a bound on the step says a hit is
    # possible, and again at the first step of every noise block.  A lone path
    # keeps the chunk's gap to the floor that of one path, and short blocks let
    # the bound change from block to block: one-step blocks catch a check skipped
    # at a block start (every floor hit falls on one), two-step blocks a bound
    # too small.  The bytes do not depend on the block length.
    if block_steps is not None:
        monkeypatch.setattr(engine, "_NOISE_BLOCK_FLOATS", block_steps * 2 * 3)
    cfg = engine.SdeConfig(h=1e-2, horizon=30.0, seed=3, record_stride=3000)
    A, sigma, x0 = 2.0 * np.eye(3), [0.8] * 3, [1 / 3] * 3
    h = hashlib.sha256()
    with floor_depth(50.0):
        for p in range(10):
            res = engine._sde_chunk(A, sigma, x0, cfg, [p])
            h.update(res.first_floor.tobytes())
            h.update(res.states.tobytes())
        batch = engine.batch_run(A, sigma, x0, cfg, 10, engine.final_share(0))
    assert h.hexdigest() == GOLDEN_FLOOR_SHA256
    assert batch.clamped_paths == GOLDEN_FLOOR_CLAMPED


def test_recentering_period_keeps_bytes_in_every_layout(monkeypatch):
    # At h = 1e-2, A = 300 I lets the largest log-share move by 3.8 a step, so the
    # kernel re-centers every 26 steps, which is no segment or block length; the
    # paths reach the floor, so floor checks fall between re-centerings too.
    A, sigma, x0 = 300.0 * np.eye(3), [0.5] * 3, [0.4, 0.35, 0.25]
    cfg = engine.SdeConfig(h=1e-2, horizon=3.0, seed=4, record_stride=7)
    chunk = engine._sde_chunk(A, sigma, x0, cfg, [0, 1, 2])
    assert np.isfinite(chunk.first_floor).all()
    for p in range(3):
        alone = engine._sde_chunk(A, sigma, x0, cfg, [p])
        assert alone.states.tobytes() == chunk.states[p:p + 1].tobytes()
        assert alone.first_floor[0] == chunk.first_floor[p]
    stats = {"final": engine.final_share(1), "late": engine.window_max_share(0, 1.0)}
    run = [A, sigma, x0, cfg, 5, stats]
    base = {name: res.to_json_dict() for name, res in engine.batch_run_many(*run).items()}
    order = [3, 0, 4, 2, 1]
    permuted = engine.batch_run_many(*run, path_indices=order)
    for name, res in permuted.items():
        assert res.values.tobytes() == np.array(base[name]["per_path"])[order].tobytes()
    monkeypatch.setattr(engine, "_NOISE_BLOCK_FLOATS", 3 * 3 * 5)       # 3-step blocks
    layouts = [engine.batch_run_many(*run)]
    started = force_producer(monkeypatch)
    with time_limit(120):
        layouts.append(engine.batch_run_many(*run))
    assert len(started) == 1
    for out in layouts:
        assert {name: res.to_json_dict() for name, res in out.items()} == base


def test_payoffs_of_ten_thousand_give_finite_shares():
    # h max|A| = 100 here, so the kernel re-centers on every step
    cfg = engine.SdeConfig(h=1e-2, horizon=1.0, seed=2, record_stride=1)
    res = engine._sde_chunk(1e4 * CYCLIC, [0.5] * 3, [0.5, 0.3, 0.2], cfg, [0, 1, 2])
    assert np.isfinite(res.states).all()
    assert np.abs(res.states.sum(axis=2) - 1.0).max() <= 1e-15
    assert np.isfinite(res.first_floor).all()


def test_golden_trajectory_digest(mixed_dominance_matrix):
    traj = golden_trajectory(mixed_dominance_matrix)
    assert traj.states.shape == (101, 3)
    assert hashlib.sha256(traj.states.tobytes()).hexdigest() == GOLDEN_TRAJECTORY_SHA256


def test_golden_batch_digest_across_chunk_boundary(mixed_dominance_matrix):
    out = golden_batch(mixed_dominance_matrix)
    assert 0.0 < out["hit"].mean < 1.0
    h = hashlib.sha256()
    h.update(out["final"].values.tobytes())
    h.update(out["hit"].values.tobytes())
    assert h.hexdigest() == GOLDEN_BATCH_SHA256
