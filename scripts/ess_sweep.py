"""Tabulate the closed-form war-of-attrition equilibria over the (n, v, rho) grid.

Writes the sweep CSV (columns ``n,v,rho,s,p_0,...,p_n,c``) and, when asked,
cross-checks every row against the support-enumeration solver, printing the
cross-check's elapsed time and games per second, the microseconds per game
for each n, and the sha256 of the enumerated equilibria.  On the default grid
that digest is the one ``tests/test_ess.py`` pins as ``GOLDEN_GRID_DIGEST``,
so one command per commit compares both bytes and speed.  With ``--repeat N``
the cross-check runs N times, and the median microseconds per game for each
n and the median total follow the runs.

Usage: python scripts/ess_sweep.py [--out results/ess_sweep] [--check] [--repeat N]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import statistics
import sys
import time
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from replab import attrition, ess  # noqa: E402
from replab.cli import main as replab  # noqa: E402


def cross_check(specs) -> tuple[float, dict[int, list], float]:
    """One pass over ``specs``: the worst deviation, ``n -> [games, seconds]``
    and the total seconds; prints the pass's lines."""
    worst = 0.0
    digest = hashlib.sha256()
    per_n = defaultdict(lambda: [0, 0.0])     # n -> [games, seconds]
    start = time.perf_counter()
    for spec in specs:
        t0 = time.perf_counter()
        closed = attrition.closed_form_ess(spec).strategy
        oracle = ess.unique_ess(attrition.perturbed_matrix(spec))
        per_n[spec.n][0] += 1
        per_n[spec.n][1] += time.perf_counter() - t0
        worst = max(worst, float(np.max(np.abs(closed - oracle.strategy))))
        digest.update(oracle.strategy.tobytes())
        digest.update(json.dumps([list(oracle.support), oracle.common_payoff,
                                  oracle.status]).encode())
    elapsed = time.perf_counter() - start
    print(f"checked {len(specs)} rows; max deviation from enumeration {worst:.3e}")
    print(f"cross-check took {elapsed:.2f} s ({len(specs) / elapsed:.0f} games/s, "
          "closed form and enumeration)")
    for n, (games, seconds) in sorted(per_n.items()):
        print(f"n = {n}: {games} games, {1e6 * seconds / games:.0f} us/game")
    print(f"grid digest {digest.hexdigest()}")
    return worst, per_n, elapsed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/ess_sweep")
    parser.add_argument("--n-range", default="1:8")
    parser.add_argument("--rho-fracs", default="0,0.1,0.2,0.4")
    parser.add_argument("--check", action="store_true",
                        help="verify each row against support enumeration")
    parser.add_argument("--repeat", default=1, type=int,
                        help="run the cross-check N times and print median times")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")

    pathlib.Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    rc = replab(["attrition", "--sweep", "--n-range", args.n_range,
                 "--rho-fracs", args.rho_fracs, "--out", args.out])
    if rc != 0 or not args.check:
        return rc

    lo, hi = (int(v) for v in args.n_range.split(":"))
    fracs = tuple(float(f) for f in args.rho_fracs.split(","))
    specs = attrition.ess_sweep_rows(range(lo, hi + 1), fracs)
    runs = [cross_check(specs) for _ in range(args.repeat)]
    if args.repeat > 1:
        for n, (games, _) in sorted(runs[0][1].items()):
            seconds = statistics.median(per_n[n][1] for _, per_n, _ in runs)
            print(f"  median n = {n}: {1e6 * seconds / games:.0f} us/game")
        elapsed = statistics.median(run[2] for run in runs)
        print(f"median of {args.repeat} runs, cross-check: {elapsed:.2f} s "
              f"({len(specs) / elapsed:.0f} games/s)")
    return 0 if max(run[0] for run in runs) < 1e-9 else 2


if __name__ == "__main__":
    sys.exit(main())
