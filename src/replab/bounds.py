"""Closed-form long-run bounds and their seeded Monte Carlo verification.

Every bound here is an exact inequality for the continuous-time process; the
campaigns check the discretized, finitely-sampled analogue.  Each check's
verdict rule is a row of :data:`RULES`: an estimator (the batch mean, or the
fraction of paths above a threshold), the side of the analytic value the
estimate must stay on, and a slack.  A bound "holds empirically" when the
estimate does not cross the analytic value by more than three standard errors
plus that slack: the discretization allowance ``max(h, sqrt(h) * sigma_max)``
for 2.3a, 2.4, 2.8 and 3.1, the step ``h`` for 2.3b, and none for 4.2 and
5.1.  Two checks keep rules of their own: 4.1 compares a ladder of three
capture estimates within two combined standard errors, and 4.3 asks every
path to hit, the mean to respect the bound and 99% of paths to hit within ten
times the mean.  A ``violated`` verdict therefore signals a real
inconsistency, not Monte Carlo noise.  5.1, persistence of maximum effort in
the war of attrition, counts the paths whose peak share of the top effort
level over the last quarter of the horizon exceeds half its stable weight.
When that fraction falls short but the noise lies outside the regime
sufficient for the statement, 5.1 reports ``inconclusive`` instead of
``violated``: no other check returns ``inconclusive``, so this is the only
source of ``verify``'s exit code 3.

The invariant distribution of the dynamics has no closed form and is never
constructed: its mass near the stable mix is probed through long-run
occupation fractions after a burn-in (default: a fifth of the horizon).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import attrition, engine, ess, games
from .errors import PreconditionError, SimulationError, ValidationError

DEFAULT_BURN_IN_FRACTION = 0.2
BASIN_FIXATION_LEVEL = 1e-3


# ---------------------------------------------------------------------------
# scalar helpers


def normal_cdf(v: float) -> float:
    """Standard normal distribution function via the stdlib erfc.

    ``0.5 * erfc(-v / sqrt(2))`` is accurate to a unit in the last place,
    far below the 1e-10 absolute accuracy required here, with no probability
    library involved.
    """
    return 0.5 * math.erfc(-v / math.sqrt(2.0))


def normal_sf(v: float) -> float:
    """Upper tail ``1 - normal_cdf(v)`` without cancellation."""
    return 0.5 * math.erfc(v / math.sqrt(2.0))


def proportion_se(phat: float, n: int) -> float:
    """Standard error of a sample proportion."""
    if n <= 0:
        return math.nan
    return math.sqrt(max(phat * (1.0 - phat), 0.0) / n)


def discretization_slack(h: float, sigma_max: float) -> float:
    return max(h, math.sqrt(h) * sigma_max)


def _fraction_above(result: engine.BatchResult, threshold: float) -> tuple[float, float]:
    """Fraction of the finite per-path values above ``threshold``, with its SE."""
    finite = result.values[np.isfinite(result.values)]
    estimate = float(np.mean(finite > threshold)) if finite.size else math.nan
    return estimate, proportion_se(estimate, finite.size)


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class BoundReport:
    """Analytic bound versus Monte Carlo estimate with a three-way verdict."""

    name: str
    analytic_value: float
    empirical_value: float
    standard_error: float
    verdict: str                      # consistent | violated | inconclusive
    inputs: dict
    details: dict = field(default_factory=dict)
    per_path: dict = field(default_factory=dict, repr=False)   # name -> BatchResult
    # see engine.BatchResult.clamped_paths; summed over the check's batches
    clamped_paths: int = 0

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "analytic_value": self.analytic_value,
            "empirical_value": self.empirical_value,
            "standard_error": self.standard_error,
            "verdict": self.verdict,
            "inputs": self.inputs,
            "details": self.details,
            "clamped_paths": self.clamped_paths,
        }

    def per_path_csv_text(self) -> str:
        """Campaign CSV: one row per path, one column per recorded statistic."""
        names = list(self.per_path)
        if not names:
            return "path\n"
        n = self.per_path[names[0]].n_paths
        lines = ["path," + ",".join(names)]
        for i in range(n):
            row = [str(i)]
            for name in names:
                v = self.per_path[name].values[i]
                row.append(f"{v:.17g}" if math.isfinite(v) else "")
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


class Rule(NamedTuple):
    """How one check turns a batch into a verdict."""

    name: str           # report name
    estimator: str      # mean | above (fraction of finite values above the threshold)
    direction: str      # upper: estimate <= analytic value; lower: estimate >= it
    slack: str | None   # discretization | h | None


RULES = {
    "2.3a": Rule("2.3a stationary mass near the stable mix", "mean", "lower", "discretization"),
    "2.3b": Rule("2.3b expected hitting time of the stable ball", "mean", "upper", "h"),
    "2.4": Rule("2.4 time-averaged squared distance", "mean", "upper", "discretization"),
    "2.8": Rule("2.8 time-averaged squared distance (effective matrix)", "mean", "upper",
                "discretization"),
    "3.1": Rule("3.1 dominated-strategy tail", "above", "upper", "discretization"),
    "4.2": Rule("4.2 absorption at some vertex", "above", "lower", None),
    "5.1": Rule("5.1 persistence of maximum effort", "above", "lower", None),
}


def rule_report(tag: str, analytic: float, per_path: dict, threshold, inputs: dict,
                details: dict) -> BoundReport:
    """Apply ``RULES[tag]`` to a check's one batch, held in ``per_path`` under
    its CSV column name.

    Consistent iff the estimate respects ``analytic`` up to three standard
    errors plus the rule's slack, which reads ``h`` and ``sigma`` from
    ``inputs``.
    """
    rule = RULES[tag]
    (result,) = per_path.values()
    if rule.estimator == "mean":
        estimate, se = result.mean, result.std_error
    else:
        estimate, se = _fraction_above(result, threshold)
    if rule.slack == "discretization":
        slack = discretization_slack(inputs["h"], float(np.max(inputs["sigma"])))
    else:
        slack = inputs["h"] if rule.slack == "h" else 0.0
    allowance = 3.0 * (se if math.isfinite(se) else 0.0) + slack
    if rule.direction == "upper":
        ok = estimate <= analytic + allowance
    else:
        ok = estimate >= analytic - allowance
    return BoundReport(
        name=rule.name,
        analytic_value=analytic,
        empirical_value=estimate,
        standard_error=se,
        verdict="consistent" if ok else "violated",
        inputs=inputs,
        details=details,
        per_path=per_path,
        clamped_paths=result.clamped_paths,
    )


# ---------------------------------------------------------------------------
# closed-form bounds


def stationary_mass_bound(delta: float, kappa: float, lam2: float) -> float:
    """Lower bound on long-run mass within ``delta`` of the stable mix.

    ``1 - kappa^2 / (|lam2| delta^2)``, meaningful only when the radius
    exceeds ``kappa / sqrt(|lam2|)``; at or below that radius the bound is
    vacuous and the call refuses.
    """
    if not lam2 < 0.0:
        raise PreconditionError("negative-second-eigenvalue")
    if not delta > kappa / math.sqrt(-lam2):
        raise PreconditionError("bound vacuous", "radius must exceed kappa/sqrt(|lam2|)")
    return 1.0 - kappa**2 / (-lam2 * delta**2)


def hitting_time_bound(x, p, delta: float, kappa: float, lam2: float) -> float:
    """Upper bound on the expected time to reach the ``delta``-ball of ``p``.

    ``d(x, p) / (|lam2| delta^2 - kappa^2)`` with ``d`` the relative entropy.
    """
    if not lam2 < 0.0:
        raise PreconditionError("negative-second-eigenvalue")
    denom = -lam2 * delta**2 - kappa**2
    if not denom > 0.0:
        raise PreconditionError("bound vacuous", "|lam2| delta^2 must exceed kappa^2")
    return games.kl_distance(x, p) / denom


def time_average_bound(x, p, t: float, kappa: float, lam2: float) -> float:
    """Upper bound on the time-averaged squared distance to the stable mix.

    ``(d(x, p)/t + kappa^2) / |lam2|``.
    """
    if not lam2 < 0.0:
        raise PreconditionError("negative-second-eigenvalue")
    if not t > 0.0:
        raise ValidationError("averaging horizon must be > 0")
    return (games.kl_distance(x, p) / t + kappa**2) / (-lam2)


def modified_second_eigenvalue(A, sigma) -> float:
    """Second eigenvalue of the centered form of ``A - diag(sigma^2 / 2)``."""
    A = games.as_payoff_matrix(A)
    s = games.as_noise_vector(sigma, A.shape[0])
    M = A.copy()
    M[np.diag_indices_from(M)] -= 0.5 * s * s
    return games.second_eigenvalue(M)


def modified_time_average_bound(A, sigma, p, x, t: float) -> tuple[float, float]:
    """Time-average bound against the stable mix of the effective matrix.

    Requires ``A - diag(sigma^2 / 2)`` to be conditionally negative definite
    (its second eigenvalue ``lam2'`` is returned alongside); the noise term is
    ``0.5 * sum p_j (1 - p_j) sigma_j^2``, which never exceeds the aggregate
    noise entering :func:`time_average_bound`.
    """
    A = games.as_payoff_matrix(A)
    s = games.as_noise_vector(sigma, A.shape[0])
    p = games.as_simplex_point(p, A.shape[0])
    if not t > 0.0:
        raise ValidationError("averaging horizon must be > 0")
    lam2p = modified_second_eigenvalue(A, s)
    if games.cnd_status(lam2p) != "negative":
        raise PreconditionError(
            "half-noise-matrix-cnd",
            "A - diag(sigma^2/2) must be conditionally negative definite",
        )
    noise_term = 0.5 * float(np.sum(p * (1.0 - p) * s * s))
    bound = (games.kl_distance(x, p) / t + noise_term) / (-lam2p)
    return bound, lam2p


def compare_attraction_constants(A, sigma, p) -> tuple[bool, bool]:
    """Two comparisons between the plain and effective-matrix bounds.

    Returns ``(gap_strictly_larger, noise_term_no_larger)``: whether
    ``|lam2'| > |lam2|`` and whether the effective noise term is at most the
    aggregate noise ``kappa^2``.
    """
    A = games.as_payoff_matrix(A)
    s = games.as_noise_vector(sigma, A.shape[0])
    p = games.as_simplex_point(p, A.shape[0])
    lam2 = games.second_eigenvalue(A)
    if not lam2 < 0.0:
        raise PreconditionError("negative-second-eigenvalue")
    lam2p = modified_second_eigenvalue(A, s)
    s2 = s * s
    lhs = 0.5 * float(np.sum(p * (1.0 - p) * s2))
    rhs = -0.5 / float(np.sum(1.0 / s2)) + 0.5 * float(p @ s2)
    return (abs(lam2p) > abs(lam2), lhs <= rhs + 1e-15)


# ---------------------------------------------------------------------------
# extinction of dominated strategies


@dataclass(frozen=True)
class ExtinctionConstants:
    """Drift and dispersion constants of a dominated strategy's log-share.

    ``c1`` is the dominance margin, ``c2`` the noise drift
    ``-sigma_k^2/2 + 0.5 sum p_j sigma_j^2``; decay requires ``c2 < c1``.
    ``sigma_tilde`` is the exact dispersion of the driving combination of
    Brownian motions (the "proof-tight variant"); ``sigma_max * sqrt(2)``
    upper-bounds it and enters the displayed tail bound.
    """

    c1: float
    c2: float
    c3_of_x: float
    sigma_max: float
    sigma_tilde: float

    @property
    def condition_holds(self) -> bool:
        return self.c2 < self.c1


def extinction_constants(A, k: int, p, sigma, x) -> ExtinctionConstants:
    """Constants governing extinction of strategy ``k`` dominated by mix ``p``."""
    A = games.as_payoff_matrix(A)
    n = A.shape[0]
    s = games.as_noise_vector(sigma, n)
    p = games.as_simplex_point(p, n)
    x = games.as_simplex_point(x, n, interior=True)
    dom = games.verify_dominance(A, k, p)
    if dom.kind == "none":
        raise PreconditionError("dominance", f"strategy {k} is not dominated by the given mix")
    s2 = s * s
    c2 = -0.5 * s2[k] + 0.5 * float(p @ s2)
    c3 = float(np.sum(p * np.log(x / x[k])))
    sigma_tilde = math.sqrt(
        (1.0 - p[k]) ** 2 * s2[k] + float(np.sum((p * s) ** 2)) - (p[k] * s[k]) ** 2
    )
    return ExtinctionConstants(
        c1=dom.margin,
        c2=c2,
        c3_of_x=c3,
        sigma_max=float(s.max()),
        sigma_tilde=sigma_tilde,
    )


def extinction_tail_bound(consts: ExtinctionConstants, eps: float, t: float,
                          *, tight: bool = False) -> float:
    """Upper bound on the probability that the dominated share exceeds ``eps``.

    Gaussian tail ``1 - Phi((c3 + log eps + (c1 - c2) t) / (sigma_max
    sqrt(2 t)))``; with ``tight=True`` the exact dispersion ``sigma_tilde``
    replaces ``sigma_max * sqrt(2)``.
    """
    if not 0.0 < eps < 1.0:
        raise ValidationError("threshold must lie in (0, 1)")
    if not t > 0.0:
        raise ValidationError("time must be > 0")
    if not consts.condition_holds:
        raise PreconditionError("extinction-drift", "c2 < c1 must hold")
    disp = consts.sigma_tilde if tight else consts.sigma_max * math.sqrt(2.0)
    arg = (consts.c3_of_x + math.log(eps) + (consts.c1 - consts.c2) * t) / (disp * math.sqrt(t))
    return normal_sf(arg)


def extinction_rate_bound(consts: ExtinctionConstants) -> float:
    """Supremum of admissible exponential decay rates of the tail probability.

    ``(c1 - c2)^2 / (4 sigma_max^2)``.
    """
    if not consts.condition_holds:
        raise PreconditionError("extinction-drift", "c2 < c1 must hold")
    return (consts.c1 - consts.c2) ** 2 / (4.0 * consts.sigma_max**2)


def extinction_report(A, k: int, sigma, x0, cfg: engine.SdeConfig, n_paths: int,
                      eps: float = 0.05) -> BoundReport:
    """Monte Carlo check of the extinction tail bound at the horizon (best dominating mix)."""
    A = games.as_payoff_matrix(A)
    found = games.best_dominating_mix(A, k)
    if found is None:
        raise PreconditionError("dominance", f"no mix dominating strategy {k} was found")
    p = found[0]
    x0 = games.as_simplex_point(x0, A.shape[0], interior=True)
    consts = extinction_constants(A, k, p, sigma, x0)
    t_end = cfg.n_steps * cfg.h
    bound = extinction_tail_bound(consts, eps, t_end)

    stat = engine.share_at(k, t_end)
    result = engine.batch_run(A, sigma, x0, cfg, n_paths, stat)
    return rule_report(
        "3.1", bound, {stat.name: result}, eps,
        _inputs(A, sigma, x0, cfg, n_paths, strategy=k, eps=eps),
        {
            "c1": consts.c1,
            "c2": consts.c2,
            "c3": consts.c3_of_x,
            "sigma_max": consts.sigma_max,
            "sigma_tilde_proof_tight": consts.sigma_tilde,
            "tail_bound_proof_tight": extinction_tail_bound(consts, eps, t_end, tight=True),
            "rate_bound": extinction_rate_bound(consts),
            "mean_final_share": result.mean,
            "exceedances": int(np.sum(result.values > eps)),
            "dominating_mix": np.asarray(p, dtype=float).tolist(),
        },
    )


# ---------------------------------------------------------------------------
# stable-mix attraction campaign


def ess_attraction_reports(A, sigma, x0, cfg: engine.SdeConfig, n_paths: int,
                           *, delta: float | None = None,
                           burn_in: float | None = None,
                           which=("2.3a", "2.3b", "2.4", "2.8")) -> dict[str, BoundReport]:
    """One batch, several bounds around the stable mix.

    Shares a single set of trajectories between the occupation-fraction,
    hitting-time and time-average checks (statistics are per-path, so each
    check keeps its own standard error).
    """
    A = games.as_payoff_matrix(A)
    n = A.shape[0]
    s = games.as_noise_vector(sigma, n)
    x0 = games.as_simplex_point(x0, n, interior=True)
    which = tuple(which)

    lam2 = games.second_eigenvalue(A)
    report = ess.unique_ess(A)
    if report is None:
        raise PreconditionError("stable-mix", "no stable strategy found")
    p = report.strategy
    kappa = games.aggregate_noise(p, s)
    if delta is None:
        delta = 2.0 * kappa / math.sqrt(-lam2)
    horizon = cfg.n_steps * cfg.h
    if burn_in is None:
        burn_in = DEFAULT_BURN_IN_FRACTION * horizon
    ball = games.Region.ball(p, delta)
    common = _inputs(A, s, x0, cfg, n_paths, delta=delta)

    # tag -> (analytic value, CSV column, statistic, inputs, details); the
    # analytic values come first: their preconditions refuse before any path runs
    checks = {}
    if "2.3a" in which:
        if not games.noise_below_attraction_threshold(p, s, lam2):
            raise PreconditionError(
                "noise-below-attraction-threshold",
                "the aggregate noise is too large for the occupation-mass statement",
            )
        checks["2.3a"] = (stationary_mass_bound(delta, kappa, lam2), "occupation",
                          engine.occupation_stat(ball, burn_in), dict(common, burn_in=burn_in),
                          {"kappa": kappa, "lam2": lam2, "stable_mix": p.tolist()})
    if "2.3b" in which:
        checks["2.3b"] = (hitting_time_bound(x0, p, delta, kappa, lam2), "hitting",
                          engine.hitting_time_stat(ball, name="hitting"), common,
                          {"kappa": kappa, "lam2": lam2, "kl_distance": games.kl_distance(x0, p)})
    if "2.4" in which:
        checks["2.4"] = (time_average_bound(x0, p, horizon, kappa, lam2), "tavg",
                         engine.time_avg_sq_distance_stat(p), common,
                         {"kappa": kappa, "lam2": lam2})
    if "2.8" in which:
        eff = ess.unique_ess(games.effective_payoff_matrix(A, s))
        if eff is None:
            raise PreconditionError("stable-mix", "no stable strategy for the effective matrix")
        p_eff = eff.strategy
        bound, lam2p = modified_time_average_bound(A, s, p_eff, x0, horizon)
        gap_larger, noise_smaller = compare_attraction_constants(A, s, p_eff)
        checks["2.8"] = (bound, "tavg_eff",
                         engine.time_avg_sq_distance_stat(p_eff, name="tavg_eff"), common,
                         {"lam2_prime": lam2p, "stable_mix_effective": p_eff.tolist(),
                          "gap_strictly_larger": gap_larger,
                          "noise_term_no_larger": noise_smaller})

    results = engine.batch_run_many(A, s, x0, cfg, n_paths,
                                    {column: stat for _, column, stat, _, _ in checks.values()})
    return {tag: rule_report(tag, bound, {column: results[column]}, None, inputs, details)
            for tag, (bound, column, _, inputs, details) in checks.items()}


def persistence_experiment(spec, sigma, x0, cfg: engine.SdeConfig, n_paths: int) -> BoundReport:
    """Check that the maximum effort strategy keeps resurfacing under noise.

    Simulates the unperturbed game and records, per path, the peak frequency
    of strategy ``n`` over the final quarter of the horizon; the event counted
    is that peak exceeding half the stable weight ``p_n`` (which is positive
    for every admissible spec).  The verdict is ``consistent`` when at least
    ``1 - eps_target`` of paths (minus Monte Carlo slack) show the event,
    ``inconclusive`` instead of ``violated`` when the noise level sits outside
    the sufficient regime derived from the time-average bound (reported, not
    enforced), since no theorem speaks about that case.
    """
    A = attrition.base_matrix(spec)
    n_strat = spec.n + 1
    sig = games.as_noise_vector(sigma, n_strat)
    x0 = games.as_simplex_point(x0, n_strat, interior=True)

    if isinstance(spec, attrition.ConstantAttritionSpec):
        p = attrition.closed_form_ess(spec).strategy
    else:
        report = ess.unique_ess(A)
        if report is None:
            raise SimulationError("no stable strategy found for the base matrix")
        p = report.strategy
    p_n = float(p[-1])

    eps_target = 0.05
    t_start = 0.75 * cfg.n_steps * cfg.h
    stat = engine.window_max_share(n_strat - 1, t_start)
    result = engine.batch_run(A, sig, x0, cfg, n_paths, stat)

    lam2 = games.second_eigenvalue(A)
    sigma_max = float(np.max(sig))
    d0 = games.kl_distance(x0, p)
    regime_ok = (
        lam2 < 0.0
        and sigma_max**2 / abs(lam2) < p_n**2 * eps_target / 8.0
        and d0 / (abs(lam2) * max(cfg.horizon / 2.0, 1e-12)) < p_n**2 * eps_target / 16.0
    )

    report = rule_report(
        "5.1", 1.0 - eps_target, {stat.name: result}, p_n / 2.0,
        {
            "n": spec.n,
            "sigma": sig.tolist(),
            "x0": x0.tolist(),
            "h": cfg.h,
            "horizon": cfg.horizon,
            "seed": cfg.seed,
            "n_paths": n_paths,
        },
        {
            "stable_weight": p_n,
            "threshold": p_n / 2.0,
            "window_start": t_start,
            "noise_regime_sufficient": bool(regime_ok),
        },
    )
    if report.verdict == "violated" and not regime_ok:
        report = replace(report, verdict="inconclusive")
    return report


# ---------------------------------------------------------------------------
# stochastic stability of strict equilibria


def stability_basin_probe(A, sigma, k: int, radius: float, cfg: engine.SdeConfig,
                          n_paths: int) -> BoundReport:
    """Estimate the capture probability near a noise-robust strict equilibrium.

    Paths start at Euclidean distance ``radius`` from the vertex (displaced
    toward the barycenter of the other strategies) and count as captured when
    they never leave the ``2 radius`` ball and end with the equilibrium share
    above ``1 - 1e-3``.  A three-point radius ladder (``radius``, ``radius/2``,
    ``radius/4``) must produce estimates nondecreasing within twice their
    combined standard errors; asymptotic stability predicts capture
    probabilities increasing to one as the start approaches the vertex.
    """
    A = games.as_payoff_matrix(A)
    n = A.shape[0]
    s = games.as_noise_vector(sigma, n)
    if not games.noise_robust_strict_nash(A, s, k):
        raise PreconditionError(
            "noise-robust-strict-nash",
            f"strategy {k} must beat every rival by more than sigma_k^2",
        )
    if not 0.0 < radius < 0.5:
        raise ValidationError("radius must lie in (0, 0.5)")
    target = games.vertex(n, k)
    direction = np.full(n, 1.0 / math.sqrt(n * (n - 1.0)))
    direction[k] = -(n - 1.0) / math.sqrt(n * (n - 1.0))

    estimates, ses, results = [], [], {}
    for r in (radius, radius / 2.0, radius / 4.0):
        x0 = target + r * direction
        stat = engine.captured_stat(games.Region.ball(target, 2.0 * r), k,
                                    BASIN_FIXATION_LEVEL, name=f"captured_r_{r:g}")
        res = engine.batch_run(A, s, x0, cfg, n_paths, stat)
        phat, se = _fraction_above(res, 0.5)      # captured is 0 or 1 per path
        estimates.append(phat)
        ses.append(se)
        results[stat.name] = res

    monotone = all(
        estimates[i + 1] >= estimates[i] - 2.0 * math.hypot(ses[i], ses[i + 1])
        for i in range(2)
    )
    verdict = "consistent" if monotone else "violated"
    return BoundReport(
        name="4.1 capture near a noise-robust strict equilibrium",
        analytic_value=1.0,
        empirical_value=estimates[0],
        standard_error=ses[0],
        verdict=verdict,
        inputs=_inputs(A, s, None, cfg, n_paths, strategy=k, radius=radius),
        details={"radii": [radius, radius / 2.0, radius / 4.0],
                 "estimates": estimates, "standard_errors": ses},
        per_path=results,
        clamped_paths=sum(res.clamped_paths for res in results.values()),
    )


def coordination_absorption(A, sigma, x0, cfg: engine.SdeConfig, n_paths: int,
                            eps: float = 0.01) -> BoundReport:
    """Fraction of paths ending within ``eps`` of some vertex of a coordination game.

    ``eps`` must lie in ``(0, 1 - 1/n)``: the largest share is never below
    ``1/n``, so from ``eps = 1 - 1/n`` on the counted event is certain.
    """
    A = games.as_payoff_matrix(A)
    s = games.as_noise_vector(sigma, A.shape[0])
    if not 0.0 < eps < 1.0 - 1.0 / A.shape[0]:
        raise ValidationError("eps must lie in (0, 1 - 1/n)")
    if not games.is_coordination_game(A, s):
        raise PreconditionError(
            "coordination-game",
            "every pure strategy must be a noise-robust strict equilibrium",
        )
    x0 = games.as_simplex_point(x0, A.shape[0], interior=True)
    stat = engine.max_final_share()
    result = engine.batch_run(A, s, x0, cfg, n_paths, stat)
    return rule_report("4.2", 0.99, {stat.name: result}, 1.0 - eps,
                       _inputs(A, s, x0, cfg, n_paths, eps=eps),
                       {"final_share_mean": result.mean})


# ---------------------------------------------------------------------------
# finite-time vertex visits for arbitrary games


@dataclass(frozen=True)
class VertexHittingBound:
    """Constructive finite bound on the expected time to near-fixation.

    ``beta`` majorizes the drift magnitude, ``alpha`` solves the exponential
    Lyapunov inequality on ``[1/n, 1 - eps]``, and the expected hitting time
    of ``{max_k x_k >= 1 - eps}`` is below ``n^2 e^alpha / alpha``.  The
    float field overflows to ``inf`` for small noise (``alpha`` beyond ~700);
    ``log_bound`` carries the value exactly and comparisons happen there.
    """

    alpha: float
    beta: float
    log_bound: float

    @property
    def bound(self) -> float:
        try:
            return math.exp(self.log_bound)
        except OverflowError:
            return math.inf


def vertex_hitting_bound(A, sigma, eps: float) -> VertexHittingBound:
    """Build the constructive bound for reaching a ``1 - eps`` vertex share."""
    A = games.as_payoff_matrix(A)
    n = A.shape[0]
    s = games.as_noise_vector(sigma, n)
    if not 0.0 < eps < 1.0 - 1.0 / n:
        raise ValidationError("eps must lie in (0, 1 - 1/n)")
    B = games.effective_payoff_matrix(A, s)
    beta = 2.0 * float(np.abs(B).max())    # coarse uniform majorant of |(e_k - y).B.y|
    lo, hi = 1.0 / n, 1.0 - eps

    def cubic(y: float) -> float:
        return y * (1.0 - y) ** 2

    candidates = [lo, hi]
    if lo <= 1.0 / 3.0 <= hi:     # interior critical point of the cubic
        candidates.append(1.0 / 3.0)
    m = min(cubic(y) for y in candidates)
    sigma_min = float(s.min())
    alpha = 2.0 * (n * beta + 1.0) / (sigma_min**2 * m)
    log_bound = 2.0 * math.log(n) + alpha - math.log(alpha)
    return VertexHittingBound(alpha=alpha, beta=beta, log_bound=log_bound)


def vertex_hitting_report(A, sigma, x0, cfg: engine.SdeConfig, n_paths: int,
                          eps: float = 0.1) -> BoundReport:
    """Check that near-fixation happens in finite time, against the loose bound.

    Consistent when every path reaches ``{max_k x_k >= 1 - eps}`` within the
    horizon, the empirical mean hitting time respects the (astronomically
    loose) constructive bound, and at least 99% of paths hit within ten times
    the empirical mean.
    """
    A = games.as_payoff_matrix(A)
    s = games.as_noise_vector(sigma, A.shape[0])
    x0 = games.as_simplex_point(x0, A.shape[0], interior=True)
    construction = vertex_hitting_bound(A, s, eps)
    region = games.Region.any_vertex_neighborhood(eps)
    stats = {
        "tau": engine.hitting_time_stat(region, name="tau"),
        "hit": engine.hit_flag_stat(region, name="hit"),
    }
    results = engine.batch_run_many(A, s, x0, cfg, n_paths, stats)
    tau, hit = results["tau"], results["hit"]
    all_hit = bool(np.all(hit.values[np.isfinite(hit.values)] > 0.5))
    mean_tau = tau.mean
    below_bound = math.log(max(mean_tau, 1e-300)) <= construction.log_bound
    times = tau.values[np.isfinite(tau.values)]
    frac_fast = float(np.mean(times <= 10.0 * mean_tau)) if times.size else math.nan
    verdict = "consistent" if (all_hit and below_bound and frac_fast >= 0.99) else "violated"
    return BoundReport(
        name="4.3 finite expected time to near-fixation",
        analytic_value=construction.bound,
        empirical_value=mean_tau,
        standard_error=tau.std_error,
        verdict=verdict,
        inputs=_inputs(A, s, x0, cfg, n_paths, eps=eps),
        details={"alpha": construction.alpha, "beta": construction.beta,
                 "log_bound": construction.log_bound, "all_paths_hit": all_hit,
                 "fraction_within_10x_mean": frac_fast},
        per_path=results,
        clamped_paths=tau.clamped_paths,
    )


# ---------------------------------------------------------------------------


def _inputs(A, sigma, x0, cfg: engine.SdeConfig, n_paths: int, **extra) -> dict:
    info = {
        "A": np.asarray(A, dtype=float).tolist(),
        "sigma": None if sigma is None else np.asarray(sigma, dtype=float).tolist(),
        "x0": None if x0 is None else np.asarray(x0, dtype=float).tolist(),
        "h": cfg.h,
        "horizon": cfg.horizon,
        "seed": cfg.seed,
        "record_stride": cfg.effective_stride,
        "n_paths": n_paths,
    }
    info.update(extra)
    return info
