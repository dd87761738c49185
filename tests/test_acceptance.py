"""Acceptance gate: every criterion at its stated tolerance, one line each.

Statics are checked by exact oracle equivalence (support enumeration, cofactor
determinants); dynamics by one-sided Monte Carlo comparisons with three
standard errors of slack plus a discretization allowance where stated.  Run
with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest

from replab import attrition, bounds, cli, engine, ess, games

from util import cofactor_det, random_zero_sum_directions

R33 = np.array([[2.0, 2.0, 2.0], [4.0, 1.0, 1.0], [1.0, 4.0, 4.0]])
PD = np.array([[3.0, 0.0], [5.0, 1.0]])

SWEEP_N = range(1, 9)
SWEEP_FRACS = (0.0, 0.1, 0.2, 0.4)


def _line(criterion: str, ok: bool, detail: str) -> None:
    state = "PASS" if ok else "FAIL"
    print(f"[{criterion}] {state}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def sweep_specs():
    return attrition.ess_sweep_rows(SWEEP_N, SWEEP_FRACS)


# ---------------------------------------------------------------------------
# 1. closed-form stable strategy == support-enumeration oracle over the sweep


def test_criterion_1_closed_form_matches_enumeration(sweep_specs):
    t0 = time.monotonic()
    worst_dev = 0.0
    worst_residual = 0.0
    worst_slack = -math.inf
    zero_pattern_ok = True
    for spec in sweep_specs:
        closed = attrition.closed_form_ess(spec)
        B = attrition.perturbed_matrix(spec)
        oracle = ess.unique_ess(B)
        assert oracle is not None, f"no enumerated solution for {spec}"
        worst_dev = max(worst_dev, float(np.max(np.abs(closed.strategy - oracle.strategy))))

        payoffs = B @ closed.strategy
        support = closed.strategy > 0.0
        c_payoff = float(payoffs[support].max())
        worst_residual = max(
            worst_residual,
            float(np.max(np.abs(payoffs[support] - c_payoff))),
            abs(float(closed.strategy.sum()) - 1.0),
        )
        if np.any(~support):
            worst_slack = max(worst_slack, float(np.max(payoffs[~support] - c_payoff)))

        forced = attrition.forced_zero_indices(spec)
        if any(closed.strategy[j] != 0.0 for j in forced):
            zero_pattern_ok = False
        if closed.s is not None:
            if any(closed.strategy[k] != 0.0 for k in range(closed.s + 1, spec.n)):
                zero_pattern_ok = False
    elapsed = time.monotonic() - t0
    ok = (worst_dev < 1e-9 and worst_residual < 1e-9 and worst_slack <= 1e-9
          and zero_pattern_ok and elapsed < 60.0)
    _line("criterion 1", ok,
          f"{len(sweep_specs)} instances, max deviation {worst_dev:.2e}, "
          f"max residual {worst_residual:.2e}, off-support slack {worst_slack:.2e}, "
          f"zero pattern {'ok' if zero_pattern_ok else 'BROKEN'}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. determinant identities against the cofactor oracle


def test_criterion_2_determinant_identities():
    t0 = time.monotonic()
    rng = np.random.default_rng(1234)
    worst = 0.0

    def relerr(a: float, b: float) -> float:
        return abs(a - b) / max(abs(a), abs(b), 1e-12)

    # ones-column replacement
    for _ in range(200):
        n = int(rng.integers(1, 11))
        v = float(rng.uniform(0.2, 2.0))
        spec = attrition.ConstantAttritionSpec(n=n, v=v, rho=rng.uniform(0.0, 0.45) * v)
        g = spec.general()
        B = attrition.perturbed_matrix(g)
        k = int(rng.integers(0, n + 1))
        replaced = B.copy()
        replaced[:, k] = 1.0
        worst = max(worst, relerr(attrition.ones_column_det(g, k), cofactor_det(replaced)))

    # full determinant of the constant family
    for _ in range(200):
        n = int(rng.integers(1, 11))
        v = float(rng.uniform(0.1, 2 * n + 2.0))
        spec = attrition.ConstantAttritionSpec(n=n, v=v, rho=rng.uniform(0.0, 0.45) * v)
        worst = max(worst, relerr(attrition.constant_matrix_det(spec),
                                  cofactor_det(attrition.perturbed_matrix(spec))))

    # tridiagonal two-term recurrence
    for _ in range(200):
        n = int(rng.integers(1, 11))
        x = float(rng.uniform(-3.0, 3.0))
        g1 = float(rng.uniform(0.05, 3.0))
        g2 = float(rng.uniform(0.05, 3.0))
        M = np.zeros((n, n))
        for i in range(n):
            M[i, i] = x
            if i + 1 < n:
                M[i, i + 1] = g1
                M[i + 1, i] = -g2
        worst = max(worst, relerr(attrition.tridiagonal_det(x, g1, g2, n), cofactor_det(M)))

    elapsed = time.monotonic() - t0
    ok = worst < 1e-9 and elapsed < 10.0
    _line("criterion 2", ok,
          f"3 x 200 instances, worst relative error {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. negative restricted eigenvalue and Rayleigh domination over the sweep


def test_criterion_3_attraction_gap_and_certificates(sweep_specs):
    rng = np.random.default_rng(99)
    worst_lam2 = -math.inf
    worst_gap = -math.inf
    certificates_ok = True
    for spec in sweep_specs:
        B = attrition.perturbed_matrix(spec)
        lam2 = games.second_eigenvalue(B)
        worst_lam2 = max(worst_lam2, lam2)
        ys = random_zero_sum_directions(rng, B.shape[0], 1000)
        quotients = np.einsum("ij,jk,ik->i", ys, B, ys)
        worst_gap = max(worst_gap, float(quotients.max()) - lam2)
        if np.any(attrition.cnd_certificate(spec) >= 0.0):
            certificates_ok = False
    ok = worst_lam2 < 0.0 and worst_gap <= 1e-9 and certificates_ok
    _line("criterion 3", ok,
          f"max lam2 {worst_lam2:.3e}, max Rayleigh excess {worst_gap:.2e}, "
          f"certificates {'all negative' if certificates_ok else 'BROKEN'}")


# ---------------------------------------------------------------------------
# 4. named plug-in values


def test_criterion_4_named_plugin_values():
    r1 = attrition.closed_form_ess(attrition.ConstantAttritionSpec(n=1, v=1.0))
    d1 = attrition.constant_matrix_det(attrition.ConstantAttritionSpec(n=1, v=1.0))
    ok1 = np.max(np.abs(r1.strategy - [0.5, 0.5])) < 1e-12 and abs(d1 + 0.25) < 1e-12

    spec2 = attrition.ConstantAttritionSpec(n=2, v=1.0)
    r2 = attrition.closed_form_ess(spec2)
    d2 = attrition.constant_matrix_det(spec2)
    ok2 = (np.max(np.abs(r2.strategy - [0.6, 0.2, 0.2])) < 1e-12
           and r2.s == 1 and abs(r2.c - 1.25) < 1e-12 and abs(d2 - 0.375) < 1e-12)

    r3 = attrition.closed_form_ess(attrition.ConstantAttritionSpec(n=2, v=4.0))
    ok3 = np.array_equal(r3.strategy, [0.0, 0.0, 1.0]) and r3.s is None

    _line("criterion 4", ok1 and ok2 and ok3,
          f"(1,1,0)->{r1.strategy.tolist()}, det {d1}; "
          f"(2,1,0)->{r2.strategy.tolist()}, s={r2.s}, c={r2.c}, det {d2}; "
          f"(2,4,0)->{r3.strategy.tolist()}")


# ---------------------------------------------------------------------------
# 5. extinction of the mixed-dominated strategy


def test_criterion_5_extinction_tail_and_mean():
    t0 = time.monotonic()
    sigma = [0.3, 0.3, 0.3]
    x0 = [1 / 3, 1 / 3, 1 / 3]
    cfg = engine.SdeConfig(h=1e-3, horizon=40.0, seed=20250, record_stride=500)
    p = np.array([0.0, 0.5, 0.5])
    consts = bounds.extinction_constants(R33, 0, p, sigma, x0)
    eps = 0.05
    bound20 = bounds.extinction_tail_bound(consts, eps, 20.0)

    stats = {"t20": engine.share_at(0, 20.0), "t40": engine.share_at(0, 40.0)}
    results = engine.batch_run_many(R33, sigma, x0, cfg, 2000, stats)

    share20 = results["t20"].values
    exceed = int(np.sum(share20 > eps))
    phat = exceed / share20.size
    se = bounds.proportion_se(phat, share20.size)
    slack = bounds.discretization_slack(cfg.h, consts.sigma_max)
    tail_ok = phat <= bound20 + 3.0 * se + slack and exceed <= 2

    mean40 = float(np.mean(results["t40"].values))
    mean_ok = mean40 < 1e-6

    elapsed = time.monotonic() - t0
    ok = tail_ok and mean_ok and elapsed < 300.0
    _line("criterion 5", ok,
          f"exceedances {exceed}/2000 (bound {bound20:.2e}), "
          f"mean share(40) {mean40:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. attraction to the stable mix on the attrition testbed


def test_criterion_6_stable_mix_attraction():
    t0 = time.monotonic()
    A = attrition.base_matrix(attrition.ConstantAttritionSpec(n=2, v=1.0))
    sigma = [0.05, 0.05, 0.05]
    cfg = engine.SdeConfig(h=1e-3, horizon=200.0, seed=20251, record_stride=10)
    reports = bounds.ess_attraction_reports(A, sigma, [1 / 3] * 3, cfg, 200, burn_in=40.0)

    occ = reports["2.3a"]
    occ_ok = occ.empirical_value >= occ.analytic_value - 3.0 * occ.standard_error
    hit = reports["2.3b"]
    hit_ok = hit.empirical_value <= hit.analytic_value + 3.0 * hit.standard_error + cfg.h
    tavg = reports["2.4"]
    tavg_ok = tavg.empirical_value <= tavg.analytic_value + 3.0 * tavg.standard_error
    teff = reports["2.8"]
    teff_ok = teff.empirical_value <= teff.analytic_value + 3.0 * teff.standard_error
    gap_ok = teff.details["gap_strictly_larger"]

    elapsed = time.monotonic() - t0
    ok = occ_ok and hit_ok and tavg_ok and teff_ok and gap_ok
    _line("criterion 6", ok,
          f"occupation {occ.empirical_value:.4f}>={occ.analytic_value:.4f}-3se, "
          f"hit {hit.empirical_value:.2f}<={hit.analytic_value:.2f}, "
          f"tavg {tavg.empirical_value:.5f}<={tavg.analytic_value:.5f}, "
          f"tavg_eff {teff.empirical_value:.5f}<={teff.analytic_value:.5f}, "
          f"|lam2'|>|lam2| {gap_ok}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 7. noise-driven selection reversal in the social dilemma


def test_criterion_7_selection_bifurcation():
    t0 = time.monotonic()
    x0 = [0.5, 0.5]
    cfg = engine.SdeConfig(h=1e-3, horizon=50.0, seed=20252, record_stride=1000)

    defect = engine.batch_run(PD, [0.1, 0.1], x0, cfg, 500, engine.final_share(1))
    frac_defect = float(np.mean(defect.values > 0.99))
    se_d = bounds.proportion_se(frac_defect, 500)
    ok_defect = frac_defect >= 0.95 - 3.0 * se_d

    cooperate = engine.batch_run(PD, [0.1, 2.2], x0, cfg, 500, engine.final_share(0))
    frac_coop = float(np.mean(cooperate.values > 0.99))
    se_c = bounds.proportion_se(frac_coop, 500)
    ok_coop = frac_coop >= 0.95 - 3.0 * se_c

    elapsed = time.monotonic() - t0
    ok = ok_defect and ok_coop and elapsed < 180.0
    _line("criterion 7", ok,
          f"small noise: defection {frac_defect:.3f}; "
          f"large noise on it: cooperation {frac_coop:.3f}; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 8. coordination fixation and finite-time vertex visits


def test_criterion_8_coordination_fixation():
    t0 = time.monotonic()
    A = 2.0 * np.eye(3)
    sigma = [0.1, 0.1, 0.1]
    x0 = [1 / 3, 1 / 3, 1 / 3]
    cfg = engine.SdeConfig(h=1e-3, horizon=200.0, seed=20253, record_stride=100)
    region = games.Region.any_vertex_neighborhood(0.1)
    stats = {
        "tau": engine.hitting_time_stat(region, name="tau"),
        "hit": engine.hit_flag_stat(region, name="hit"),
        "f0": engine.final_share(0),
        "f1": engine.final_share(1),
        "f2": engine.final_share(2),
        "fmax": engine.max_final_share(),
    }
    results = engine.batch_run_many(A, sigma, x0, cfg, 300, stats)

    frac_fixed = float(np.mean(results["fmax"].values > 0.99))
    se = bounds.proportion_se(frac_fixed, 300)
    fixed_ok = frac_fixed >= 0.99 - 3.0 * se

    all_hit = bool(np.all(results["hit"].values == 1.0))
    construction = bounds.vertex_hitting_bound(A, sigma, 0.1)
    mean_tau = results["tau"].mean
    bound_ok = math.log(mean_tau) <= construction.log_bound

    shares = [float(np.mean(results[f"f{j}"].values > 0.5)) for j in range(3)]
    se_share = math.sqrt((1 / 3) * (2 / 3) / 300)
    shares_ok = all(abs(s - 1 / 3) <= 3.0 * se_share for s in shares)

    elapsed = time.monotonic() - t0
    ok = fixed_ok and all_hit and bound_ok and shares_ok
    _line("criterion 8", ok,
          f"fixation {frac_fixed:.3f}, all paths hit {all_hit}, "
          f"mean tau {mean_tau:.2f} (log bound {construction.log_bound:.0f}), "
          f"vertex shares {[round(s, 3) for s in shares]}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 9. persistence of the maximum effort strategy


def test_criterion_9_persistence():
    t0 = time.monotonic()
    spec = attrition.ConstantAttritionSpec(n=2, v=1.0)
    cfg = engine.SdeConfig(h=1e-3, horizon=200.0, seed=20254, record_stride=100)
    report = bounds.persistence_experiment(attrition.base_matrix(spec), [0.05] * 3, [1 / 3] * 3,
                                           cfg, 300)
    se = report.standard_error
    ok = (report.verdict == "consistent"
          and report.empirical_value >= 0.95 - 3.0 * se
          and report.details["threshold"] == pytest.approx(0.1))
    elapsed = time.monotonic() - t0
    _line("criterion 9", ok,
          f"fraction above half the stable weight {report.empirical_value:.3f} "
          f"(threshold {report.details['threshold']:.2f}), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 10. byte-identical reruns under any chunk layout


def test_criterion_10_determinism(tmp_path):
    game = tmp_path / "game.json"
    game.write_text(json.dumps({"n": 2, "A": [[3, 0], [5, 1]], "sigma": [0.3, 0.3]}))

    # 600 paths span two chunks at the 512-path cap
    rc = cli.main(["simulate", str(game), "--seed", "77", "--T", "2",
                   "--paths", "600", "--out", str(tmp_path / "b")])
    assert rc == 0
    per_path = json.loads((tmp_path / "b.json").read_text())["per_path"]

    A, sigma, _labels = cli.load_game(str(game))
    cfg = engine.SdeConfig(h=1e-3, horizon=2.0, seed=77)
    stat = engine.final_share(0)

    def values(indices):
        return engine.batch_run(A, sigma, [0.5, 0.5], cfg, len(indices), stat,
                                path_indices=indices).values.tolist()

    split_ok = per_path == values(range(300)) + values(range(300, 600))
    reversed_ok = per_path == values(range(599, -1, -1))[::-1]
    batch_ok = split_ok and reversed_ok

    rc = cli.main(["simulate", str(game), "--seed", "78", "--T", "1",
                   "--out", str(tmp_path / "t1")])
    assert rc == 0
    rc = cli.main(["simulate", str(game), "--seed", "78", "--T", "1",
                   "--out", str(tmp_path / "t2")])
    assert rc == 0
    csv_ok = (hashlib.sha256((tmp_path / "t1.csv").read_bytes()).hexdigest()
              == hashlib.sha256((tmp_path / "t2.csv").read_bytes()).hexdigest())

    _line("criterion 10", batch_ok and csv_ok,
          f"600-path batch equals split batches {split_ok} and reversed batch "
          f"{reversed_ok}, trajectory rerun {csv_ok}")
