"""Run every bound check on its standard testbed and collect the reports.

Thin driver over the CLI: each check writes a JSON report, a per-path CSV and
a manifest under the output directory, and its wall time goes to standard
output, followed by the total.  With ``--repeat N`` the whole campaign runs N
times over the same files, and each check's median wall time and the median
total follow the runs.  Exit status is the worst verdict seen (0 consistent,
2 violated, 3 inconclusive), except that a check exiting 1 (malformed input
or an aborted simulation) or 4 (a failed hypothesis) stops the run at once
with that status.

Usage: python scripts/run_verifications.py [--outdir results] [--seed 1] [--fast] [--repeat N]
"""

from __future__ import annotations

import argparse
import pathlib
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from replab.cli import main as replab  # noqa: E402

TESTBEDS = ROOT / "testbeds"


def run_all(outdir: pathlib.Path, seed: int, fast: bool, repeat: int = 1) -> int:
    scale = 4 if fast else 1
    jobs = [
        # (tag, game file, extra flags)
        ("2.3a", "attrition_game.json",
         ["--T", "200", "--paths", str(200 // scale), "--stride", "10"]),
        ("2.3b", "attrition_game.json",
         ["--T", "200", "--paths", str(200 // scale), "--stride", "10"]),
        ("2.4", "attrition_game.json",
         ["--T", "200", "--paths", str(200 // scale), "--stride", "10"]),
        ("2.8", "attrition_game.json",
         ["--T", "200", "--paths", str(200 // scale), "--stride", "10"]),
        ("3.1", "mixed_dominance.json",
         ["--T", "20", "--paths", str(2000 // scale), "--stride", "500", "--k", "1"]),
        ("4.1", "prisoners_dilemma.json",
         ["--T", "50", "--paths", str(200 // scale), "--stride", "100",
          "--k", "2", "--radius", "0.05"]),
        ("4.2", "coordination.json",
         ["--T", "200", "--paths", str(300 // scale), "--stride", "100"]),
        ("4.3", "coordination.json",
         ["--T", "200", "--paths", str(300 // scale), "--stride", "100"]),
        ("5.1", "attrition_small.json",
         ["--T", "200", "--paths", str(300 // scale), "--stride", "100"]),
    ]
    worst, seconds = 0, {tag: [] for tag, _, _ in jobs}
    for _ in range(repeat):
        for tag, game, flags in jobs:
            out = outdir / f"check_{tag.replace('.', '_')}"
            argv = ["verify", str(TESTBEDS / game), "--theorem", tag,
                    "--seed", str(seed), "--out", str(out), *flags]
            start = time.perf_counter()
            rc = replab(argv)
            seconds[tag].append(time.perf_counter() - start)
            print(f"  -> {tag}: exit {rc} in {seconds[tag][-1]:.2f} s")
            if rc in (1, 4):
                return rc
            worst = max(worst, rc)
        print(f"all checks: {sum(times[-1] for times in seconds.values()):.2f} s")
    if repeat > 1:
        for tag, times in seconds.items():
            print(f"  median {tag}: {statistics.median(times):.2f} s")
        totals = [sum(run) for run in zip(*seconds.values())]
        print(f"median of {repeat} runs, all checks: {statistics.median(totals):.2f} s")
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results", type=pathlib.Path)
    parser.add_argument("--seed", default=1, type=int)
    parser.add_argument("--fast", action="store_true",
                        help="quarter-size path counts for a quick look")
    parser.add_argument("--repeat", default=1, type=int,
                        help="run the campaign N times and print median wall times")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    args.outdir.mkdir(parents=True, exist_ok=True)
    return run_all(args.outdir, args.seed, args.fast, args.repeat)


if __name__ == "__main__":
    sys.exit(main())
