"""Compare two checkouts on one perfbench workload, in alternating pairs of runs.

Each pair runs ``perfbench/run.py`` once in PARENT and once in CHANGE, on the
same seed, each checkout with its own sources and harness; the side that runs
first alternates from pair to pair, so a drift in the host's load falls on
both sides.  For every metric the script prints both medians, the ratio of
medians, the range of the per-pair ratios (change over parent), the pairs in
which the change was better (by the direction that ``BENCHMARK.json``
declares), and whether the difference of medians exceeds the parent's
interquartile range.  ``--json`` writes the same numbers, with every run's
value, for a ``BENCH_<pr>.json`` file.

Usage: python scripts/bench_pairs.py PARENT CHANGE --workload campaign --pairs 6
           --seconds 30 --seeds 2201 [--trace 1] [--json out.json]

``--seeds`` takes one seed per pair, or a single first seed that the next
pairs count up from.  With ``--trace 1`` the per-layer metrics are compared
instead (``--seconds`` is then passed on but unused).  Exit status is 1 when a
run fails or reports failed operations.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def run_once(checkout: pathlib.Path, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    """One perfbench run in ``checkout``; its final JSON object plus its digest."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise SystemExit(f"perfbench in {checkout} exited {done.returncode}:\n{done.stderr}")
    out = json.loads(lines[-1])
    out["digest"] = next((line.split()[-1] for line in lines if line.startswith("digest ")),
                         None)
    return out


def compare(runs: dict[str, list[dict]], better: dict[str, str]) -> dict[str, dict]:
    """Per metric: every run's value, both sides' quartiles, the pair wins and the
    range of the per-pair ratios, change over parent (``None`` where every parent
    value is 0)."""
    out = {}
    for name, entry in runs["parent"][0]["metrics"].items():
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        p, c = quartiles(parent), quartiles(change)
        ratios = [b / a for a, b in zip(parent, change) if a]
        out[name] = {
            "unit": entry["unit"],
            "better": better.get(name, "lower"),
            "parent": parent,
            "change": change,
            "parent_summary": p,
            "change_summary": c,
            "ratio_of_medians": c["median"] / p["median"] if p["median"] else None,
            "pair_ratio_range": [min(ratios), max(ratios)] if ratios else None,
            "change_better_pairs": f"{wins} of {len(parent)}",
            "difference_exceeds_parent_iqr": abs(c["median"] - p["median"]) > p["q3"] - p["q1"],
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=pathlib.Path, help="checkout of the parent commit")
    parser.add_argument("change", type=pathlib.Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=pathlib.Path, help="write the comparison here")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2")
    if len(args.seeds) == 1:
        args.seeds = [args.seeds[0] + i for i in range(args.pairs)]
    elif len(args.seeds) != args.pairs:
        parser.error(f"--seeds gives {len(args.seeds)} seeds for {args.pairs} pairs")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    declared = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in declared["end_to_end"] + declared["per_layer"]}

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    first = []
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        first.append(order[0])
        for side in order:
            runs[side].append(run_once(sides[side], args.workload, seed, args.seconds,
                                       args.trace))
        print(f"pair {i + 1}/{args.pairs} seed {seed}: done", file=sys.stderr)

    metrics = compare(runs, better)
    width = max(len(name) for name in metrics)
    print(f"{args.workload}, {args.pairs} pairs, seeds {args.seeds[0]}..{args.seeds[-1]}")
    print(f"{'metric':<{width}}  {'parent':>12}  {'change':>12}  ratio  pair ratios    "
          f"better  > IQR")
    for name, m in metrics.items():
        ratio, spread = m["ratio_of_medians"], m["pair_ratio_range"]
        print(f"{name:<{width}}  {m['parent_summary']['median']:>12.6g}  "
              f"{m['change_summary']['median']:>12.6g}  "
              f"{'-' if ratio is None else f'{ratio:.3f}':>5}  "
              f"{'-' if spread is None else '{:.3f}-{:.3f}'.format(*spread):<11}  "
              f"{m['change_better_pairs']:>8}  "
              f"{'yes' if m['difference_exceeds_parent_iqr'] else 'no'}")
    failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
    report = {
        "command": (f"python3 perfbench/run.py --workload {args.workload} --seed N "
                    f"--seconds {args.seconds:g} --trace {args.trace}"),
        "parent": str(sides["parent"]),
        "change": str(sides["change"]),
        "seeds": args.seeds,
        "first": first,
        "attempted": {side: sum(r["attempted"] for r in rs) for side, rs in runs.items()},
        "failed": failed,
        "same_digest_every_pair": all(p["digest"] == c["digest"]
                                      for p, c in zip(runs["parent"], runs["change"])),
        "metrics": metrics,
    }
    print(f"failed operations: parent {failed['parent']}, change {failed['change']}; "
          f"same digest in every pair: {report['same_digest_every_pair']}")
    if args.json:
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    return 1 if any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
