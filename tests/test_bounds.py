import hashlib
import math

import numpy as np
import pytest

from replab import attrition, bounds, engine, fileio, games
from replab.errors import PreconditionError, ValidationError

from util import floor_depth, normal_cdf_quadrature, scaled_noise

R33 = np.array([[2.0, 2.0, 2.0], [4.0, 1.0, 1.0], [1.0, 4.0, 4.0]])
PD = np.array([[3.0, 0.0], [5.0, 1.0]])


# ---------------------------------------------------------------------------
# normal distribution function


def test_normal_cdf_matches_quadrature():
    for v in np.linspace(-4.0, 4.0, 20):
        assert bounds.normal_cdf(float(v)) == pytest.approx(
            normal_cdf_quadrature(float(v)), abs=1e-10)
    assert bounds.normal_sf(3.0) == pytest.approx(1.0 - bounds.normal_cdf(3.0), rel=1e-12)
    assert bounds.normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)


# ---------------------------------------------------------------------------
# plain plug-in bounds


def test_stationary_mass_bound_values():
    assert bounds.stationary_mass_bound(1.0, 0.5, -1.0) == pytest.approx(0.75)
    assert bounds.stationary_mass_bound(1e6, 0.5, -1.0) == pytest.approx(1.0)
    with pytest.raises(PreconditionError):
        bounds.stationary_mass_bound(0.5, 0.5, -1.0)     # exactly vacuous
    with pytest.raises(PreconditionError):
        bounds.stationary_mass_bound(1.0, 0.5, 1.0)


def test_stationary_mass_bound_monotone_in_radius():
    values = [bounds.stationary_mass_bound(d, 0.5, -1.0) for d in np.linspace(0.6, 5.0, 30)]
    assert np.all(np.diff(values) > 0.0)


def test_hitting_time_bound_values():
    assert bounds.hitting_time_bound([0.5, 0.5], [0.5, 0.5], 1.0, 0.5, -1.0) == 0.0
    x = [0.25, 0.75]
    p = [0.5, 0.5]
    d = games.kl_distance(x, p)
    val = bounds.hitting_time_bound(x, p, 1.0, 0.5, -1.0)
    assert val == pytest.approx(d / 0.75)
    assert val == pytest.approx(0.1918, abs=2e-4)
    with pytest.raises(PreconditionError):
        bounds.hitting_time_bound(x, p, 0.4, 0.5, -1.0)


def test_hitting_time_bound_monotone_in_divergence():
    p = [0.5, 0.5]
    xs = [[0.45, 0.55], [0.3, 0.7], [0.1, 0.9]]
    vals = [bounds.hitting_time_bound(x, p, 1.0, 0.5, -1.0) for x in xs]
    assert vals[0] < vals[1] < vals[2]


def test_time_average_bound_values():
    x = [0.25, 0.75]
    p = [0.5, 0.5]
    val = bounds.time_average_bound(x, p, 10.0, 0.5, -1.0)
    assert val == pytest.approx(games.kl_distance(x, p) / 10.0 + 0.25)
    assert val == pytest.approx(0.26438, abs=1e-5)
    # vanishing transient leaves the noise floor
    assert bounds.time_average_bound(p, p, 1e9, 0.5, -1.0) == pytest.approx(0.25)


def test_modified_time_average_bound(attrition_testbed_matrix):
    sigma = [0.05, 0.05, 0.05]
    p_vertex = [0.0, 0.0, 1.0]
    bound, lam2p = bounds.modified_time_average_bound(
        attrition_testbed_matrix, sigma, p_vertex, [1 / 3] * 3, 10.0)
    d = games.kl_distance([1 / 3] * 3, p_vertex)
    assert bound == pytest.approx(d / (abs(lam2p) * 10.0))
    # uniform mix on two strategies: noise term sigma^2 / 4
    bound2, lam2p2 = bounds.modified_time_average_bound(
        -np.eye(2), [0.3, 0.3], [0.5, 0.5], [0.4, 0.6], 1e12)
    assert bound2 == pytest.approx((0.09 / 4.0) / abs(lam2p2), rel=1e-6)
    with pytest.raises(PreconditionError):
        bounds.modified_time_average_bound(np.eye(2), [0.1, 0.1], [0.5, 0.5], [0.5, 0.5], 1.0)


def test_compare_attraction_constants(attrition_testbed_matrix):
    gap, noise = bounds.compare_attraction_constants(
        attrition_testbed_matrix, [0.05] * 3, [0.6, 0.2, 0.2])
    assert gap and noise
    # equal noise and the uniform mix meet the comparison with equality
    n = 3
    sigma = [0.4] * n
    p = [1.0 / n] * n
    lhs = 0.5 * sum(pi * (1 - pi) * 0.16 for pi in p)
    rhs = -0.5 / (n / 0.16) + 0.5 * 0.16
    assert lhs == pytest.approx(rhs)
    gap, noise = bounds.compare_attraction_constants(-np.eye(n), sigma, p)
    assert gap and noise


def test_compare_attraction_constants_across_testbeds():
    # both comparisons hold on every conditionally-negative-definite testbed
    # instance with positive noise, and the eigenvalue gap closes as noise
    # vanishes
    for n in (1, 2, 4):
        for v in (0.5, 1.0, 3.0):
            spec = attrition.ConstantAttritionSpec(n=n, v=v)
            A = attrition.base_matrix(spec)
            m = n + 1
            from replab import ess as ess_mod

            p = ess_mod.unique_ess(A).strategy
            for sig in (0.05, 0.3, 1.0):
                gap, noise = bounds.compare_attraction_constants(A, [sig] * m, p)
                assert gap and noise
    A = attrition.base_matrix(attrition.ConstantAttritionSpec(n=2, v=1.0))
    lam2 = games.second_eigenvalue(A)
    gaps = [abs(bounds.modified_second_eigenvalue(A, [sig] * 3)) - abs(lam2)
            for sig in (1e-1, 1e-3, 1e-6)]
    assert all(g > 0.0 for g in gaps)
    assert gaps[2] < gaps[1] < gaps[0]
    assert gaps[2] < 1e-6


# ---------------------------------------------------------------------------
# extinction constants and bounds


def test_extinction_constants_hand_values():
    consts = bounds.extinction_constants(R33, 0, [0.0, 0.5, 0.5], [0.3] * 3, [1 / 3] * 3)
    assert consts.c1 == pytest.approx(0.5)
    assert consts.c2 == pytest.approx(0.0)
    assert consts.c3_of_x == pytest.approx(0.0)
    assert consts.sigma_max == 0.3
    assert consts.sigma_tilde == pytest.approx(math.sqrt(0.09 + 2 * 0.25 * 0.09))
    assert consts.condition_holds


def test_extinction_constants_equal_noise_vanishing_c2():
    rng = np.random.default_rng(0)
    for _ in range(10):
        sigma = float(rng.uniform(0.1, 1.0))
        p = np.array([0.0, 0.6, 0.4])
        consts = bounds.extinction_constants(R33, 0, p, [sigma] * 3, [1 / 3] * 3)
        assert consts.c2 == pytest.approx(0.0, abs=1e-15)


def test_extinction_constants_reject_non_dominated():
    # the message names the strategy 1-based, as --k does
    with pytest.raises(PreconditionError, match="strategy 2 is not dominated"):
        bounds.extinction_constants(R33, 1, [0.0, 0.0, 1.0], [0.3] * 3, [1 / 3] * 3)


def test_extinction_tail_bound_values():
    consts = bounds.ExtinctionConstants(c1=0.5, c2=0.0, c3_of_x=0.0,
                                        sigma_max=0.3, sigma_tilde=0.3)
    val = bounds.extinction_tail_bound(consts, 0.05, 20.0)
    arg = (math.log(0.05) + 10.0) / (0.3 * math.sqrt(40.0))
    assert arg == pytest.approx(3.6916, abs=1e-4)
    assert val == pytest.approx(bounds.normal_sf(arg), rel=1e-12)
    assert val == pytest.approx(1.11e-4, abs=2e-6)
    assert bounds.extinction_tail_bound(consts, 0.05, 1e9) < 1e-300
    with pytest.raises(ValidationError):
        bounds.extinction_tail_bound(consts, 1.5, 10.0)


def test_extinction_tail_bound_decreasing_past_threshold():
    consts = bounds.ExtinctionConstants(c1=0.5, c2=0.0, c3_of_x=0.2,
                                        sigma_max=0.3, sigma_tilde=0.3)
    eps = 0.05
    t_star = (consts.c3_of_x + math.log(eps)) / (consts.c1 - consts.c2)
    start = max(t_star, 1e-3) + 0.5
    ts = np.linspace(start, start + 40.0, 25)
    vals = [bounds.extinction_tail_bound(consts, eps, float(t)) for t in ts]
    assert np.all(np.diff(vals) < 0.0)


def test_extinction_rate_bound():
    consts = bounds.ExtinctionConstants(c1=0.5, c2=0.0, c3_of_x=0.0,
                                        sigma_max=0.3, sigma_tilde=0.3)
    assert bounds.extinction_rate_bound(consts) == pytest.approx(0.25 / 0.36)
    bad = bounds.ExtinctionConstants(c1=0.1, c2=0.1, c3_of_x=0.0,
                                     sigma_max=0.3, sigma_tilde=0.3)
    assert not bad.condition_holds
    with pytest.raises(PreconditionError):
        bounds.extinction_rate_bound(bad)


def test_extinction_rate_shows_in_tail_slope():
    # the admissible-rate bound speaks about the asymptotic slope of
    # log P{share > eps}; estimate it on a window where the probability is
    # still measurable (it is empirically zero by t ~ 10 at any feasible
    # path count on this testbed)
    sigma = [0.3] * 3
    x0 = [1 / 3] * 3
    consts = bounds.extinction_constants(R33, 0, [0.0, 0.5, 0.5], sigma, x0)
    cfg = engine.SdeConfig(h=1e-3, horizon=8.0, seed=30, record_stride=100)
    stats = {f"t{t}": engine.share_at(0, float(t)) for t in (4, 6, 8)}
    results = engine.batch_run_many(R33, sigma, x0, cfg, 2000, stats)
    eps = 0.05
    log_probs = []
    for t in (4, 6, 8):
        phat = max(float(np.mean(results[f"t{t}"].values > eps)), 0.5 / 2000)
        log_probs.append(math.log(phat))
    slope = float(np.polyfit([4.0, 6.0, 8.0], log_probs, 1)[0])
    gamma = bounds.extinction_rate_bound(consts) / 2.0
    assert slope <= -gamma / 2.0


# ---------------------------------------------------------------------------
# vertex hitting construction


def test_vertex_hitting_bound_structure():
    vb = bounds.vertex_hitting_bound(PD, [0.1, 0.1], 0.1)
    B = games.effective_payoff_matrix(PD, [0.1, 0.1])
    assert vb.beta == pytest.approx(2.0 * np.abs(B).max())
    lo, hi = 0.5, 0.9
    m = min(lo * (1 - lo) ** 2, hi * (1 - hi) ** 2)
    assert vb.alpha == pytest.approx(2.0 * (2 * vb.beta + 1.0) / (0.01 * m))
    assert math.isfinite(vb.log_bound) and vb.log_bound > 0.0
    assert vb.bound == math.inf     # overflows the float range, by design
    # the Lyapunov inequality actually holds on the interval
    for y in np.linspace(lo, hi, 50):
        assert vb.alpha * 0.01 / 2.0 * y * (1 - y) ** 2 >= 2 * vb.beta + 1.0 - 1e-9
    with pytest.raises(ValidationError):
        bounds.vertex_hitting_bound(PD, [0.1, 0.1], 0.6)


def test_vertex_hitting_bound_finite_for_larger_noise():
    vb = bounds.vertex_hitting_bound(np.zeros((2, 2)), [3.0, 3.0], 0.25)
    assert math.isfinite(vb.bound) and vb.bound > 0.0


# ---------------------------------------------------------------------------
# campaigns (reduced scale; the acceptance suite runs the full ones)


def test_ess_attraction_campaign(attrition_testbed_matrix):
    cfg = engine.SdeConfig(h=1e-3, horizon=120.0, seed=32, record_stride=20)
    reports = bounds.ess_attraction_reports(
        attrition_testbed_matrix, [0.05] * 3, [1 / 3] * 3, cfg, 40)
    for tag in ("2.3a", "2.3b", "2.4", "2.8"):
        assert reports[tag].verdict == "consistent", tag
    assert reports["2.3a"].analytic_value == pytest.approx(0.75)
    assert reports["2.8"].details["gap_strictly_larger"]
    assert reports["2.8"].details["noise_term_no_larger"]


def test_ess_attraction_refuses_vacuous_radius(attrition_testbed_matrix):
    cfg = engine.SdeConfig(h=1e-3, horizon=10.0, seed=33)
    lam2 = games.second_eigenvalue(attrition_testbed_matrix)
    from replab import ess as ess_mod

    p = ess_mod.unique_ess(attrition_testbed_matrix).strategy
    kappa = games.aggregate_noise(p, [0.05] * 3)
    vacuous = kappa / math.sqrt(-lam2)
    with pytest.raises(PreconditionError):
        bounds.ess_attraction_reports(attrition_testbed_matrix, [0.05] * 3,
                                      [1 / 3] * 3, cfg, 5, delta=vacuous)


def test_ess_attraction_refuses_non_cnd():
    cfg = engine.SdeConfig(h=1e-3, horizon=10.0, seed=34)
    with pytest.raises(PreconditionError):
        bounds.ess_attraction_reports(np.eye(2), [0.1, 0.1], [0.5, 0.5], cfg, 5)


def test_extinction_report_consistent():
    cfg = engine.SdeConfig(h=1e-3, horizon=20.0, seed=35, record_stride=500)
    report = bounds.extinction_report(R33, 0, [0.3] * 3, [1 / 3] * 3, cfg, 100)
    assert report.verdict == "consistent"
    assert report.details["c1"] == pytest.approx(0.5)
    assert report.details["exceedances"] == 0


@pytest.mark.parametrize("factor, verdict", [(1, "consistent"), (4, "violated")])
def test_extinction_report_detects_fourfold_noise(factor, verdict, monkeypatch):
    # the 3.1 tail check's power against an engine fault on the
    # mixed_dominance.json testbed (R33, sigma 0.3): the kernel's noise x4
    # with the bound at the true sigma puts 49 of 2000 paths above eps
    scaled_noise(monkeypatch, factor)
    cfg = engine.SdeConfig(h=1e-3, horizon=20.0, seed=1, record_stride=500)
    report = bounds.extinction_report(R33, 0, [0.3] * 3, [1 / 3] * 3, cfg, 2000)
    assert report.verdict == verdict


def test_stability_basin_probe():
    cfg = engine.SdeConfig(h=1e-3, horizon=30.0, seed=36, record_stride=20)
    report = bounds.stability_basin_probe(PD, [0.1, 0.1], 1, 0.1, cfg, 40)
    assert report.verdict == "consistent"
    assert report.empirical_value >= 0.9
    ladder = report.details["estimates"]
    assert ladder[-1] >= ladder[0] - 0.1
    with pytest.raises(PreconditionError):
        bounds.stability_basin_probe(PD, [0.1, math.sqrt(1.5)], 1, 0.1, cfg, 5)
    with pytest.raises(PreconditionError):
        bounds.stability_basin_probe(PD, [0.1, 0.1], 0, 0.1, cfg, 5)


def test_reports_count_clamped_paths_over_their_batches(coordination_matrix):
    # a fixating horizon with a shallow floor: every path reaches it
    cfg = engine.SdeConfig(h=1e-2, horizon=60.0, seed=40, record_stride=100)
    short = engine.SdeConfig(h=1e-2, horizon=1.0, seed=40)
    with floor_depth(50.0):
        probe = bounds.stability_basin_probe(PD, [0.1, 0.1], 1, 0.1, cfg, 8)
        absorbed = bounds.coordination_absorption(coordination_matrix, [0.1] * 3,
                                                  [0.5, 0.3, 0.2], cfg, 8)
        early = bounds.stability_basin_probe(PD, [0.1, 0.1], 1, 0.1, short, 8)
    assert [r.clamped_paths for r in probe.per_path.values()] == [8, 8, 8]
    assert probe.clamped_paths == 24
    assert probe.to_json_dict()["clamped_paths"] == 24
    assert absorbed.clamped_paths == 8
    assert early.clamped_paths == 0


def test_coordination_absorption(coordination_matrix):
    cfg = engine.SdeConfig(h=1e-3, horizon=120.0, seed=37, record_stride=100)
    report = bounds.coordination_absorption(coordination_matrix, [0.1] * 3,
                                            [1 / 3] * 3, cfg, 60)
    assert report.verdict == "consistent"
    with pytest.raises(PreconditionError):
        bounds.coordination_absorption(PD, [0.1, 0.1], [0.5, 0.5], cfg, 5)


def test_vertex_hitting_report(coordination_matrix):
    cfg = engine.SdeConfig(h=1e-3, horizon=120.0, seed=38, record_stride=100)
    report = bounds.vertex_hitting_report(coordination_matrix, [0.1] * 3,
                                          [1 / 3] * 3, cfg, 40, eps=0.1)
    assert report.verdict == "consistent"
    assert report.details["all_paths_hit"]
    assert math.log(report.empirical_value) <= report.details["log_bound"]


def test_report_csv_and_json_round_trip():
    cfg = engine.SdeConfig(h=1e-3, horizon=5.0, seed=39, record_stride=100)
    report = bounds.extinction_report(R33, 0, [0.3] * 3, [1 / 3] * 3, cfg, 10)
    d = report.to_json_dict()
    assert d["verdict"] == report.verdict
    csv_text = report.per_path_csv_text()
    lines = csv_text.strip().splitlines()
    assert len(lines) == 11
    assert lines[0].startswith("path,")


def report_digests(report) -> tuple[str, str]:
    """sha256 of a report's JSON text and per-path CSV text, as ``verify`` writes them."""
    return (hashlib.sha256(fileio.json_text(report.to_json_dict()).encode()).hexdigest(),
            hashlib.sha256(report.per_path_csv_text().encode()).hexdigest())


# pinned at seed 1 on the standard testbeds; the four attraction checks share
# one batch and give the same bytes as ``verify`` running each tag alone
GOLDEN_ATTRACTION = {
    "2.3a": ("672bd167c423d27889130f6733a90ce4f87b953e5fd5632bf25299ae7f6c6bdb",
             "521fe57d9ea09f011a222189e4351d44df3738582f7b2014e8f55ab343136723"),
    "2.3b": ("5fd63bc0350480c76c5cef385139f952e70a4759e06688ba07e4539c8ed6f5e6",
             "27563484409086a70900965223dde230a9e8039a716283c669e6319aa8d79f87"),
    "2.4": ("bf0265b511dbef16f48df02c13ff6ac53785edde4c865b1f436914c7a71d59b5",
            "7e4c83b6a8ad2911faa92618c24882d42419ab36f8e946950c45fe4ae4fe1be6"),
    "2.8": ("9299e2f9ca720fa28a5323dd8d1acd44c3a42c6b8f1c881a1aca38f821edc4e7",
            "3a646241f6a90c9b3e390e43be17757417d2e1b3ccb91c1a624e9911abc66923"),
}


def test_golden_attraction_batch_digests(attrition_testbed_matrix):
    cfg = engine.SdeConfig(h=1e-3, horizon=20.0, seed=1, record_stride=10)
    reports = bounds.ess_attraction_reports(attrition_testbed_matrix, [0.05] * 3,
                                            [1 / 3] * 3, cfg, 8)
    assert {tag: report_digests(r) for tag, r in reports.items()} == GOLDEN_ATTRACTION
