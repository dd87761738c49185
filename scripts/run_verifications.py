"""Run every bound check on its standard testbed and collect the reports.

Thin driver over the CLI: each check writes a JSON report, a per-path CSV and
a manifest under the output directory, and its wall time goes to standard
output, followed by the total.  Exit status is the worst verdict seen
(0 consistent, 2 violated, 3 inconclusive), except that a check exiting 1
(malformed input or an aborted simulation) or 4 (a failed hypothesis) stops
the run at once with that status.

Usage: python scripts/run_verifications.py [--outdir results] [--seed 1] [--fast]
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from replab.cli import main as replab  # noqa: E402

TESTBEDS = ROOT / "testbeds"


def run_all(outdir: pathlib.Path, seed: int, fast: bool) -> int:
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
    worst, total = 0, 0.0
    for tag, game, flags in jobs:
        out = outdir / f"check_{tag.replace('.', '_')}"
        argv = ["verify", str(TESTBEDS / game), "--theorem", tag,
                "--seed", str(seed), "--out", str(out), *flags]
        start = time.perf_counter()
        rc = replab(argv)
        seconds = time.perf_counter() - start
        total += seconds
        print(f"  -> {tag}: exit {rc} in {seconds:.2f} s")
        if rc in (1, 4):
            return rc
        worst = max(worst, rc)
    print(f"all checks: {total:.2f} s")
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results", type=pathlib.Path)
    parser.add_argument("--seed", default=1, type=int)
    parser.add_argument("--fast", action="store_true",
                        help="quarter-size path counts for a quick look")
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)
    return run_all(args.outdir, args.seed, args.fast)


if __name__ == "__main__":
    sys.exit(main())
