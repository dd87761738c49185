"""Command-line driver.

Subcommands: ``analyze`` (statics of a game file), ``simulate`` (seeded
trajectories or batches), ``verify`` (one named bound check as a Monte Carlo
campaign), ``attrition`` (closed-form equilibria and sweeps) and ``rerun``
(replay a manifest whose input digests still match, and check that the
outputs come back with their recorded digests).  Output is machine-first:
each command writes its JSON/CSV files and then their manifest in one
``fileio.write_run`` call, and a short human-readable summary goes to
standard output.

Exit codes: 0 success/consistent, 1 malformed input (a command line that does
not parse, or an input file or value that cannot be read, parsed or used as
given), 2 a bound check came out violated, 3 inconclusive, 4 a named
hypothesis or, for ``verify`` and ``attrition``, a domain precondition of a
parameter failed.  ``--help`` and ``--version`` exit 0.
Seeds are always explicit arguments; nothing is ever seeded from the clock.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys

import numpy as np

from . import __version__, attrition, bounds, engine, ess, fileio, games
from .errors import InputError, PreconditionError, SimulationError, ValidationError

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_VIOLATED = 2
EXIT_INCONCLUSIVE = 3
EXIT_PRECONDITION = 4

_VERDICT_EXIT = {"consistent": EXIT_OK, "violated": EXIT_VIOLATED,
                 "inconclusive": EXIT_INCONCLUSIVE}


# ---------------------------------------------------------------------------
# input files


def _read_json(path: str, what: str):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc


def _integer_n(value, where: str) -> int:
    """A file's ``n``: a JSON integer, so ``2.7``, ``"3"`` and ``true`` are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{where}: 'n' must be an integer, got {value!r}")
    return value


def load_game(path: str):
    """Game file: ``{"n": int, "A": [[...]], "sigma": [...], "labels": [...]?}``.

    A file that cannot be read or has the wrong structure raises
    ``InputError``; out-of-domain values (non-finite payoffs, nonpositive
    noise) raise ``ValidationError`` from the checks in :mod:`replab.games`.
    """
    raw = _read_json(path, "game file")
    try:
        n = raw["n"]
        A = np.array(raw["A"], dtype=float)
        sigma, labels = raw.get("sigma"), raw.get("labels")
        n_labels = len(labels) if labels is not None else n
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"game file {path} needs integer 'n' and matrix 'A': {exc!r}") from exc
    if sigma is not None:
        try:
            sigma = np.array(sigma, dtype=float)
        except (TypeError, ValueError) as exc:
            raise InputError(f"game file {path}: 'sigma' must be a list of numbers: "
                             f"{exc!r}") from exc
    sizes = (np.size(sigma) if sigma is not None else n, n_labels)
    n = _integer_n(n, f"game file {path}")
    if A.shape != (n, n):
        raise InputError(f"game file {path}: 'A' has shape {A.shape}, 'n' is {n}")
    wrong = [f"{size} {what}" for size, what in zip(sizes, ("diffusion coefficients", "labels"))
             if size != n]
    if wrong:
        raise InputError(f"game file {path}: {' and '.join(wrong)} for {n} strategies")
    A = games.as_payoff_matrix(A)
    if sigma is not None:
        sigma = games.as_noise_vector(sigma, n)
    return A, sigma, labels


def load_attrition_spec(path: str):
    """Attrition file: general ``{"n", "costs", "rewards", "rho"}`` or constant ``{"n", "v", "rho"}``.

    A file that cannot be read or has the wrong structure raises
    ``InputError``; parameters outside the model's domain raise
    ``ValidationError`` from the spec constructors.
    """
    raw = _read_json(path, "attrition spec")
    try:
        if raw.get("mode") == "constant" or ("v" in raw and "costs" not in raw):
            n = _integer_n(raw["n"], f"attrition spec {path}")
            v, rho = float(raw["v"]), float(raw.get("rho", 0.0))
            return attrition.ConstantAttritionSpec(n=n, v=v, rho=rho)
        costs = tuple(float(c) for c in raw["costs"])
        rewards = tuple(float(v) for v in raw["rewards"])
        rho = tuple(float(r) for r in raw.get("rho", [0.0] * len(costs)))
        spec = attrition.AttritionSpec(costs=costs, rewards=rewards, rho=rho)
        if "n" in raw and _integer_n(raw["n"], f"attrition spec {path}") != spec.n:
            raise InputError(f"attrition spec {path}: 'n' disagrees with the cost vector")
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise InputError(f"attrition spec {path} needs 'n' and 'v', or 'costs' and "
                         f"'rewards': {exc!r}") from exc
    return spec


def _parse_vector(text: str, n: int, flag: str) -> np.ndarray:
    """The comma-separated value of ``flag``, which must have ``n`` entries."""
    try:
        vector = np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise InputError(f"cannot parse {flag} {text!r}") from exc
    if vector.size != n:
        raise InputError(f"{flag} has {vector.size} entries for {n} strategies")
    return vector


def _sigma_arg(args, fallback, n: int):
    """``--sigma`` if given, else ``fallback`` (the game file's, or a default)."""
    sigma = _parse_vector(args.sigma, n, "--sigma") if args.sigma else fallback
    if sigma is None:
        raise InputError("no diffusion coefficients: set 'sigma' in the file or pass --sigma")
    return sigma


# ---------------------------------------------------------------------------
# analyze


def _strategy_name(j: int, labels) -> str:
    return labels[j] if labels else str(j + 1)   # 1-based in reports


def cmd_analyze(args) -> int:
    A, sigma, labels = load_game(args.game)
    n = A.shape[0]
    lam2 = games.second_eigenvalue(A)
    cnd = games.cnd_status(lam2)
    report: dict = {
        "n": n,
        "labels": labels or [str(j + 1) for j in range(n)],
        "lambda2": lam2,
        "cnd_status": cnd,
        "conditionally_negative_definite": cnd == "negative",
    }

    dominance = []
    for k in range(n):
        found = games.best_dominating_mix(A, k)
        if found is None:
            continue
        p, margin = found
        res = games.verify_dominance(A, k, p)
        dominance.append({
            "strategy": _strategy_name(k, labels),
            "kind": res.kind,
            "margin": margin,
            "dominating_mix": p.tolist(),
        })
    report["dominance"] = dominance

    equilibria = []
    for r in ess.solve_all_equilibria(A):
        entry = {
            "strategy": r.strategy.tolist(),
            "support": [_strategy_name(j, labels) for j in r.support],
            "common_payoff": r.common_payoff,
            "status": r.status,
            "residual": r.residual,
        }
        if sigma is not None:
            kappa = games.aggregate_noise(r.strategy, sigma)
            entry["kappa"] = kappa
            if lam2 < 0.0:
                entry["noise_below_attraction_threshold"] = (
                    games.noise_below_attraction_threshold(r.strategy, sigma, lam2))
        equilibria.append(entry)
    report["equilibria"] = equilibria
    if sigma is not None:
        report["sigma"] = sigma.tolist()
        report["coordination_game"] = games.is_coordination_game(A, sigma)

    fileio.write_run(args.out, {".json": fileio.json_text(report)},
                     _manifest(args, inputs=[args.game]))

    print(f"lambda2 = {lam2:.6g} ({report['cnd_status']}); "
          f"{len(equilibria)} equilibria, {len(dominance)} dominated strategies")
    for e in equilibria:
        print(f"  support {e['support']}: {e['status']} (payoff {e['common_payoff']:.6g})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate


def _config_from(args) -> engine.SdeConfig:
    return engine.SdeConfig(
        h=args.h, horizon=args.T, seed=args.seed,
        record_stride=args.stride,
    )


def _parse_stat(text: str, n: int) -> engine.Statistic:
    """``final_share:<1-based j>`` or ``max_final_share``."""
    if text == "max_final_share":
        return engine.max_final_share()
    if text.startswith("final_share:"):
        index = text.split(":", 1)[1]
        if not (index.isdecimal() and 1 <= int(index) <= n):
            raise InputError(f"strategy index {index!r} in --stat is not one of 1..{n}")
        return engine.final_share(int(index) - 1, name=f"final_share_{int(index)}")
    raise ValidationError(f"unknown statistic {text!r}")


def cmd_simulate(args) -> int:
    A, sigma, _labels = load_game(args.game)
    n = A.shape[0]
    sigma = games.as_noise_vector(_sigma_arg(args, sigma, n), n)
    x0 = _parse_vector(args.x0, n, "--x0") if args.x0 else games.uniform_point(n)
    x0 = games.as_simplex_point(x0, n, interior=True)
    stat = _parse_stat(args.stat, n)
    cfg = _config_from(args)
    head = _manifest(args, inputs=[args.game])

    if args.paths == 1:
        traj = engine.simulate_sde(A, sigma, x0, cfg)
        fileio.write_run(args.out, {".csv": engine.trajectory_csv_text(traj)}, head)
        print(f"1 path, {traj.times.size} recorded points -> {args.out}.csv"
              + (" (log-share floor reached)" if traj.clamped else ""))
        return EXIT_OK

    result = engine.batch_run(A, sigma, x0, cfg, args.paths, stat)
    fileio.write_run(args.out, {".json": fileio.json_text(result.to_json_dict())}, head)
    print(f"{args.paths} paths: {stat.name} = {result.mean:.6g} "
          f"+- {result.std_error:.2g} (se) -> {args.out}.json"
          + (f" ({result.clamped_paths} reached the log-share floor)"
             if result.clamped_paths else ""))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


# tag -> (check in bounds, check-specific flags it reads, keyword defaults).  The
# check is looked up on bounds at call time, so a wrapper set on the module is
# seen; a flag left out falls back to the check's own default.
_VERIFY = {
    "2.3a": ("ess_attraction_reports", ("x0", "delta", "burn_in"), {"which": ("2.3a",)}),
    "2.3b": ("ess_attraction_reports", ("x0", "delta"), {"which": ("2.3b",)}),
    "2.4": ("ess_attraction_reports", ("x0",), {"which": ("2.4",)}),
    "2.8": ("ess_attraction_reports", ("x0",), {"which": ("2.8",)}),
    "3.1": ("extinction_report", ("x0", "k", "eps"), {}),
    "4.1": ("stability_basin_probe", ("k", "radius"), {"radius": 0.05}),
    "4.2": ("coordination_absorption", ("x0", "eps"), {}),
    "4.3": ("vertex_hitting_report", ("x0", "eps"), {}),
    "5.1": ("persistence_experiment", ("x0",), {}),
}
_CHECK_FLAGS = tuple(dict.fromkeys(f for row in _VERIFY.values() for f in row[1]))


def cmd_verify(args) -> int:
    tag = args.theorem
    check, flags, defaults = _VERIFY[tag]
    given = {name: getattr(args, name) for name in _CHECK_FLAGS
             if getattr(args, name) is not None}
    stray = ["--" + name.replace("_", "-") for name in given if name not in flags]
    if stray:
        raise InputError(f"{', '.join(stray)} not read by --theorem {tag}")
    if "k" in flags and "k" not in given:
        raise InputError(f"--k (1-based strategy index) is required for {tag}")
    cfg = _config_from(args)
    head = _manifest(args, inputs=[args.game])

    if tag == "5.1":
        spec = load_attrition_spec(args.game)
        game, n, sigma = {"spec": spec}, spec.n + 1, np.full(spec.n + 1, 0.05)
    else:
        A, sigma, _labels = load_game(args.game)
        game, n = {"A": A}, A.shape[0]
    engine.check_kernel_size(n)
    sigma = games.as_noise_vector(_sigma_arg(args, sigma, n), n)
    if "k" in given:
        if not 1 <= given["k"] <= n:
            raise InputError(f"strategy index {given['k']} in --k is not one of 1..{n}")
        given["k"] -= 1
    if "x0" in flags:
        given["x0"] = (_parse_vector(given["x0"], n, "--x0") if "x0" in given
                       else games.uniform_point(n))
    report = getattr(bounds, check)(**game, sigma=sigma, cfg=cfg, n_paths=args.paths,
                                    **{**defaults, **given})
    if isinstance(report, dict):    # the attraction checks share one batch
        report = report[tag]

    fileio.write_run(args.out, {".json": fileio.json_text(report.to_json_dict()),
                                "_paths.csv": report.per_path_csv_text()}, head)

    print(f"{report.name}: {report.verdict} "
          f"(analytic {report.analytic_value:.6g}, empirical {report.empirical_value:.6g})"
          + (f" ({report.clamped_paths} paths reached the log-share floor)"
             if report.clamped_paths else ""))
    return _VERDICT_EXIT[report.verdict]


# ---------------------------------------------------------------------------
# attrition


def _fmt(value: float) -> str:
    """Shortest decimal that round-trips the double exactly."""
    v = float(value)
    if v.is_integer() and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _sweep_csv(specs, results) -> str:
    n_max = max(s.n for s in specs)
    header = "n,v,rho,s," + ",".join(f"p_{k}" for k in range(n_max + 1)) + ",c"
    lines = [header]
    for spec, result in zip(specs, results):
        cells = [str(spec.n), _fmt(spec.v), _fmt(spec.rho),
                 "" if result.s is None else str(result.s)]
        weights = [_fmt(w) for w in result.strategy]
        weights += [""] * (n_max - spec.n)
        cells += weights
        cells.append("" if result.c is None else _fmt(result.c))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def cmd_attrition(args) -> int:
    mode = "--sweep" if args.sweep else "--spec" if args.spec else None
    stray = [flag for flag, value in (("--spec", args.spec), ("--n", args.n), ("--v", args.v))
             if mode and flag != mode and value is not None]
    if stray:
        raise InputError(f"{', '.join(stray)} not read by {mode}")
    if args.spec:
        spec = load_attrition_spec(args.spec)
    elif not args.sweep:
        if args.n is None or args.v is None:
            raise InputError("give --spec FILE or both --n and --v")
        spec = attrition.ConstantAttritionSpec(n=args.n, v=args.v, rho=args.rho)
    head = _manifest(args, inputs=[args.spec] if args.spec else [])

    if args.sweep:
        if not args.out:
            raise InputError("--out is required in sweep mode")
        try:
            n_lo, n_hi = (int(v) for v in args.n_range.split(":"))
            fracs = tuple(float(f) for f in args.rho_fracs.split(","))
        except ValueError as exc:
            raise InputError(f"cannot parse --n-range lo:hi or --rho-fracs: {exc}") from exc
        if n_lo > n_hi:
            raise InputError(f"--n-range {args.n_range} is empty: lo must not exceed hi")
        specs = attrition.ess_sweep_rows(range(n_lo, n_hi + 1), fracs, v_step=args.v_step)
        rows = _sweep_csv(specs, map(attrition.closed_form_ess, specs))
        fileio.write_run(args.out, {".csv": rows}, head)
        print(f"{len(specs)} instances -> {args.out}.csv")
        return EXIT_OK

    if isinstance(spec, attrition.ConstantAttritionSpec):
        result = attrition.closed_form_ess(spec)
        suffix, text = ".csv", _sweep_csv([spec], [result])
        print(text.splitlines()[1])
        det = attrition.constant_matrix_det(spec)
        direct = float(np.linalg.det(attrition.perturbed_matrix(spec)))
        print(f"det = {det:.12g} (direct {direct:.12g}, "
              f"relative gap {abs(det - direct) / max(abs(direct), 1e-300):.2e})")
        if result.s is not None:
            print(f"support cutoff s = {result.s}, normalizer c = {result.c:.12g}")
    else:
        B = attrition.perturbed_matrix(spec)
        report = ess.unique_ess(B)
        forced = sorted(attrition.forced_zero_indices(spec))
        print(f"strategies 0..{spec.n}; forced zero weights at {forced or 'none'}")
        if report is not None:
            print(f"stable strategy {np.round(report.strategy, 12).tolist()} "
                  f"(payoff {report.common_payoff:.12g}, {report.status})")
        suffix, text = ".json", fileio.json_text({
            "costs": list(spec.costs), "rewards": list(spec.rewards),
            "rho": list(spec.rho), "forced_zero": forced,
            "strategy": None if report is None else report.strategy.tolist(),
            "common_payoff": None if report is None else report.common_payoff,
            "status": None if report is None else report.status,
        })
    if args.out:
        fileio.write_run(args.out, {suffix: text}, head)
    return EXIT_OK


# ---------------------------------------------------------------------------
# rerun


def cmd_rerun(args) -> int:
    """Replay a manifest's command once every listed input still has its recorded
    sha256, then check that every output has its recorded sha256 again."""
    try:
        with open(args.manifest, "r", encoding="utf-8") as f:
            manifest = json.load(f)
        command = list(manifest["command"])
        inputs = [(str(e["path"]), str(e["sha256"])) for e in manifest["inputs"]]
        outputs = [(str(p), str(d)) for p, d in dict(manifest.get("output_sha256", {})).items()]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise InputError(f"cannot read manifest {args.manifest}: {exc!r}") from exc
    if command[:1] == ["rerun"]:
        raise InputError(f"manifest {args.manifest} replays rerun, which no command records")
    if not outputs:
        raise InputError(f"manifest {args.manifest} records no output digests to check")
    _check_digests(inputs, "input file", f"changed since {args.manifest} was written")
    print(f"replaying: replab {' '.join(command)}")
    code = main(command)
    _check_digests(outputs, "replayed output", f"differs from {args.manifest}")
    return code


def _check_digests(entries, what: str, changed: str) -> None:
    for path, recorded in entries:
        try:
            actual = fileio.sha256_file(path)
        except OSError as exc:
            raise InputError(f"{what} {path} cannot be read: {exc}") from exc
        if actual != recorded:
            raise InputError(f"{what} {path} {changed} (sha256 {actual}, recorded {recorded})")


# ---------------------------------------------------------------------------
# parser


def _manifest(args, inputs) -> dict:
    """The manifest's head: argument vector, input digests, seed and defaults."""
    digests = []
    for path in inputs:
        try:
            digests.append({"path": path, "sha256": fileio.sha256_file(path)})
        except OSError as exc:
            raise InputError(f"cannot read input file {path}: {exc}") from exc
    return {"command": list(args._argv), "inputs": digests, "seed": getattr(args, "seed", None),
            "defaults": {"version": __version__, "y_cap": engine.Y_CAP,
                         "record_points_cap": engine.MAX_RECORD_POINTS}}


@functools.cache
def _check_help(name: str, what: str) -> str:
    """``what`` plus, per tag reading the flag, its default or "required"."""
    uses = []
    for tag, (check, flags, defaults) in _VERIFY.items():
        if name in flags:
            default = defaults.get(
                name, inspect.signature(getattr(bounds, check)).parameters[name].default)
            uses.append(f"{tag}: " + ("required" if default is inspect.Parameter.empty
                                      else f"default {default}"))
    return f"{what} ({'; '.join(uses)})"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="replab",
        description="Analyze, simulate and verify noisy replicator dynamics of symmetric games.",
    )
    parser.add_argument("--version", action="version", version=f"replab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="statics: eigenvalue gap, dominance, equilibria")
    pa.add_argument("game", help="game JSON file")
    pa.add_argument("--out", required=True, help="output prefix (writes <out>.json)")
    pa.set_defaults(func=cmd_analyze)

    def sim_flags(p, default_paths=1):
        p.add_argument("--x0", help="comma-separated initial state (default uniform)")
        p.add_argument("--sigma", help="comma-separated diffusion coefficients")
        p.add_argument("--T", type=float, default=50.0, help="horizon (default 50)")
        p.add_argument("--h", type=float, default=1e-3, help="step size (default 1e-3)")
        p.add_argument("--seed", type=int, required=True, help="master seed (required)")
        p.add_argument("--paths", type=int, default=default_paths)
        p.add_argument("--stride", type=int, default=None, help="record every k-th step")

    ps = sub.add_parser("simulate", help="seeded trajectories or batches")
    ps.add_argument("game", help="game JSON file")
    sim_flags(ps)
    ps.add_argument("--stat", default="final_share:1",
                    help="batch statistic: final_share:<j> or max_final_share")
    ps.add_argument("--out", required=True, help="output prefix")
    ps.set_defaults(func=cmd_simulate)

    pv = sub.add_parser("verify", help="run one bound check as a Monte Carlo campaign")
    pv.add_argument("game", help="game JSON file (attrition spec for 5.1)")
    pv.add_argument("--theorem", required=True, choices=list(_VERIFY),
                    help="which bound to check")
    sim_flags(pv, default_paths=200)
    pv.add_argument("--k", type=int, help=_check_help("k", "1-based strategy index"))
    pv.add_argument("--eps", type=float, help=_check_help("eps", "threshold"))
    pv.add_argument("--delta", type=float,
                    help="ball radius (2.3a, 2.3b; default 2 kappa/sqrt|lam2|)")
    pv.add_argument("--radius", type=float, help=_check_help("radius", "start distance"))
    pv.add_argument("--burn-in", dest="burn_in", type=float,
                    help="occupation burn-in (2.3a; default horizon/5)")
    pv.add_argument("--out", required=True, help="output prefix")
    pv.set_defaults(func=cmd_verify)

    pt = sub.add_parser("attrition", help="war-of-attrition equilibria and sweeps")
    pt.add_argument("--spec", help="attrition spec JSON file")
    pt.add_argument("--n", type=int, help="maximum effort index")
    pt.add_argument("--v", type=float, help="constant reward")
    pt.add_argument("--rho", type=float, default=0.0, help="diagonal perturbation")
    pt.add_argument("--sweep", action="store_true", help="sweep the (n, v, rho) grid")
    pt.add_argument("--n-range", dest="n_range", default="1:8", help="sweep n range lo:hi")
    pt.add_argument("--v-step", dest="v_step", type=float, default=0.25)
    pt.add_argument("--rho-fracs", dest="rho_fracs", default="0,0.1,0.2,0.4",
                    help="rho as fractions of v")
    pt.add_argument("--out", help="output prefix")
    pt.set_defaults(func=cmd_attrition)

    pr = sub.add_parser("rerun", help="replay a manifest byte-identically")
    pr.add_argument("manifest", help="manifest JSON written by a previous run")
    pr.set_defaults(func=cmd_rerun)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code:    # argparse has printed the usage and why it refused the line
            return EXIT_BAD_INPUT
        raise           # --help and --version
    args._argv = list(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if args.command in ("attrition", "verify") and not isinstance(exc, InputError):
            # out-of-domain parameters are precondition failures for these commands
            return EXIT_PRECONDITION
        return EXIT_BAD_INPUT
    except PreconditionError as exc:
        print(f"hypothesis failed [{exc.condition}]: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except SimulationError as exc:
        print(f"simulation aborted: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
