"""Benchmark of replab: one workload per run, end-to-end or traced per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``; ``BENCHMARK.json`` says why each was chosen):

- ``campaign``: a CLI session per unit: analyze every game testbed, one
  densely recorded path, checks 2.8, 3.1, 4.3 and 5.1;
- ``sweep``: one slice (85 games, the grid's mix of sizes) of the paper's
  2851-game war-of-attrition grid per unit, closed form against support
  enumeration;
- ``wide-batch``: one 4096-path, n = 9 ``simulate`` command per unit.

Each run times units until ``--seconds`` have passed (at least one), checks
every output, and prints one JSON object as its last line::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` counts operations (a CLI command on campaign, a game on sweep,
a path on wide-batch) and ``failed`` those with a wrong exit code, a missing
or wrong output, an enumeration that disagrees with the closed form by 1e-9
or more, or a non-finite path value.

``--trace 0`` reports the end-to-end metrics, measured with no wrapper
installed.  Every time but ``setup_s`` is rescaled to a reference host
speed measured between calls (see ``hostspeed``); the raw times and the
factors are printed on the lines before the JSON.

- ``setup_s``: the median, over ``SETUP_REPS`` repetitions, of
  ``import replab.cli`` in a fresh interpreter, plus the median of building
  the inputs (testbed copies, the grid and its slices, the generated game);
- ``wall_s``: median time of one unit;
- ``ops_per_s``: operations per second of unit time;
- ``call_p50_ms`` and ``call_p99_ms``: latency of one call into a public
  entry point: a CLI command (campaign, wide-batch) or one game's closed form
  plus enumeration (sweep);
- ``peak_rss_mb``: the process's peak resident set size.

``--trace 1`` ignores ``--seconds``: it runs unit 0 once to warm up, the
first ``TRACE_UNITS`` units untraced, the same units under
``tracer.Tracer``, then the kernel ladder, so that its counts repeat exactly
from run to run.  It reports calls, self time and escaped errors of each of
the eight modules; the derived engine, rng, ess and fileio counts;
``trace.overhead_s`` (traced minus untraced median unit time);
``trace.attributed_frac`` (summed layer self time over ``trace.wall_s``, the
time in traced calls); ``engine.ladder.n{3,9}.p{1,64,512,4096}`` in M
path-steps/s and ``rng.normal_ns``, both raw.  Before the traced units a
probe makes one cheap call into every layer: it checks that each layer is
wrapped and gives every layer a measured time, also on a workload that never
uses it.  The spans are written once, to
``.perfbench/<workload>-trace1/spans.npz``.

Which per-layer metric should move which end-to-end metric:

- the engine kernel (``engine.path_steps_per_s``, ``engine.ladder.*``),
  ``rng.streams``, ``rng.normals`` and ``rng.normal_ns``: ``ops_per_s`` and
  ``wall_s`` on wide-batch; nothing on sweep;
- ``engine.path_steps``, ``engine.reduce_s``, ``engine.recorded_floats`` and
  ``engine.aborted_paths``: ``wall_s`` and ``peak_rss_mb`` on campaign;
- ``ess.games``, ``ess.supports``, ``games.second_eigenvalue_s``,
  ``games.classify_s`` and ``attrition.closed_form_s``: ``ops_per_s`` and
  ``call_p99_ms`` on sweep, and almost nothing on campaign;
- ``fileio.files``, ``fileio.bytes_written``, ``fileio.write_s`` and
  ``fileio.hash_bytes``: ``wall_s`` on campaign.

A line ``digest <workload> <sha256>`` gives the sha256 of unit 0's
reproducible outputs (JSON and CSV files, not manifests, which hold the
run's file paths); it is information, not a gate.  The exit code is 0 when
every check passed, 1 when one failed, 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from hostspeed import Pacer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TESTBEDS = ROOT / "testbeds"
OUT = ROOT / ".perfbench"
WORKLOADS = ("campaign", "sweep", "wide-batch")
SETUP_REPS = 9
TRACE_UNITS = 2
LADDER_N = (3, 9)
LADDER_PATHS = (1, 64, 512, 4096)
IMPORT_PROBE = ("import time; t = time.perf_counter(); import replab.cli; "
                "print(time.perf_counter() - t)")


def _fail_setup(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def import_seconds() -> float:
    """Median time of ``import replab.cli`` in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(SETUP_REPS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def build(workload: str, scale, seed: int, workdir: Path):
    """Build the workload's inputs; returns the workload object."""
    import workloads as wl

    if workload == "campaign":
        return wl.Campaign(scale, seed, TESTBEDS, workdir)
    if workload == "sweep":
        return wl.Sweep(wl.build_grid(scale), seed)
    return wl.WideBatch(scale, seed, workdir)


def setup(workload: str, scale, seed: int, workdir: Path):
    """Build the inputs ``SETUP_REPS`` times; returns (workload, median seconds)."""
    times = []
    for _ in range(SETUP_REPS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        t0 = time.perf_counter()
        job = build(workload, scale, seed, workdir)
        times.append(time.perf_counter() - t0)
    return job, statistics.median(times)


def run_units(job, indices=None, seconds: float = 0.0):
    """Run the given units, or units 0, 1, ... until ``seconds`` have passed."""
    results = []
    deadline = time.perf_counter() + seconds
    pacer = Pacer()
    while indices is None or len(results) < len(indices):
        index = indices[len(results)] if indices is not None else len(results)
        results.append(job.run_unit(index, pacer))
        if indices is None and time.perf_counter() >= deadline:
            break
    return results


def end_to_end(results, setup_s: float) -> dict[str, float]:
    """Median unit time, throughput and call latencies, in rescaled seconds."""
    walls = [math.fsum(r.scaled_calls()) for r in results]
    calls = [c for r in results for c in r.scaled_calls()]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "ops_per_s": sum(r.attempted for r in results) / math.fsum(walls),
        "call_p50_ms": 1e3 * statistics.median(calls),
        "call_p99_ms": 1e3 * float(np.percentile(calls, 99)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def probe_layers(workdir: Path) -> None:
    """One cheap call into every layer (the tracer must see each of them)."""
    from replab import attrition, bounds, cli, engine, ess, fileio, games, rng

    A = np.array([[0.0, 2.0], [1.0, 0.0]])
    game = workdir / "probe_game.json"
    game.write_text(json.dumps({"n": 2, "A": A.tolist(), "sigma": [0.1, 0.1]}))
    cli.load_game(str(game))
    bounds.normal_cdf(0.0)
    attrition.closed_form_ess(attrition.ConstantAttritionSpec(n=1, v=1.0, rho=0.0))
    ess.equalize_on_support(A, (0, 1))
    games.second_eigenvalue(A)
    games.classify_equilibrium(A, np.array([2.0, 1.0]) / 3.0)
    share = engine.final_share(0)
    share.fn(engine.Trajectory(times=np.zeros(1), states=np.full((1, 2), 0.5),
                               clamped=False, seed=1))
    rng.check_seed(1)
    fileio.atomic_write_text(str(workdir / "probe.txt"), "probe\n")
    fileio.sha256_file(str(workdir / "probe.txt"))


def kernel_ladder(scale, seed: int) -> dict[str, float]:
    """``engine.batch_run`` rates in M path-steps/s, and ``rng.normal_ns``."""
    from replab import engine, rng

    out = {}
    for n in LADDER_N:
        gen = np.random.default_rng([seed, n])
        A = gen.uniform(-1.0, 1.0, (n, n))
        sigma = np.full(n, 0.2)
        x0 = np.full(n, 1.0 / n)
        for paths in LADDER_PATHS:
            lo, hi = scale.ladder_steps
            steps = min(hi, max(lo, scale.ladder_work // paths))
            cfg = engine.SdeConfig(h=1e-3, horizon=steps * 1e-3, seed=seed, record_stride=steps)
            rates = []
            for _ in range(scale.ladder_reps):
                t0 = time.perf_counter()
                engine.batch_run(A, sigma, x0, cfg, paths, engine.final_share(0))
                rates.append(paths * cfg.n_steps / (time.perf_counter() - t0) / 1e6)
            out[f"engine.ladder.n{n}.p{paths}"] = statistics.median(rates)
    draws = []
    for rep in range(5):
        g = rng.path_generator(seed, rep)
        t0 = time.perf_counter()
        g.standard_normal(scale.normal_draws)
        draws.append((time.perf_counter() - t0) / scale.normal_draws * 1e9)
    out["rng.normal_ns"] = statistics.median(draws)
    return out


def traced(job, scale, seed: int, workdir: Path):
    """Untraced then traced units, then the ladder; returns (results, metrics)."""
    from tracer import Tracer

    indices = list(range(TRACE_UNITS))
    run_units(job, indices[:1])               # warm-up: first-call costs hit neither phase
    plain = run_units(job, indices)
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        probe_layers(workdir)
        probe_s = time.perf_counter() - t0
        spans = run_units(job, indices)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    tracer.save(workdir / "spans.npz")
    traced_wall = probe_s + math.fsum(r.wall for r in spans)
    self_total = math.fsum(v for k, v in metrics.items() if k.endswith(".self_s"))
    metrics["trace.overhead_s"] = (
        statistics.median(math.fsum(r.scaled_calls()) for r in spans)
        - statistics.median(math.fsum(r.scaled_calls()) for r in plain))
    metrics["trace.attributed_frac"] = self_total / traced_wall
    metrics["trace.wall_s"] = traced_wall
    metrics.update(kernel_ladder(scale, seed))
    for a, b in zip(plain, spans):
        if a.digest != b.digest:
            b.failed += 1
            b.errors.append("tracing changed the outputs")
    return plain + spans, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long sizes for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "replab" / "__init__.py").is_file() or not TESTBEDS.is_dir():
        return _fail_setup(f"no replab sources and testbeds under {ROOT}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, str(SRC))

    import_s = import_seconds()
    import workloads as wl

    scale = wl.TINY if args.scale == "tiny" else wl.FULL
    workdir = OUT / f"{args.workload}-trace{args.trace}"
    job, build_s = setup(args.workload, scale, args.seed, workdir)

    if args.trace:
        results, metrics = traced(job, scale, args.seed, workdir)
    else:
        results = run_units(job, seconds=args.seconds)
        metrics = end_to_end(results, import_s + build_s)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(metrics) ^ set(units)}")

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    for r in results:
        for err in r.errors[:5]:
            print(f"check failed: {err}", file=sys.stderr)
    print(f"units {len(results)} calls {sum(len(r.calls) for r in results)} "
          f"raw_setup_s {import_s + build_s:.4f}")
    print("raw_unit_s " + " ".join(f"{r.wall:.4f}" for r in results))
    print("speed " + " ".join(f"{statistics.median(r.speeds):.4f}" for r in results))
    steps = sum(r.path_steps for r in results)
    if steps and not args.trace:
        scaled = math.fsum(c for r in results for c in r.scaled_calls())
        print(f"path_steps_per_s {steps / scaled:.6g} "
              f"raw {steps / math.fsum(r.wall for r in results):.6g}")
    print(f"digest {args.workload} {results[0].digest}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
