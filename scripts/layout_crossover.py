"""Time the two layouts of an SDE batch against the normals it draws per step.

A batch of ``paths`` paths on ``n`` strategies draws ``paths * n`` normals a
step.  Run in-process as one chunk, its noise comes from one forked producer;
cut into one chunk per usable CPU, each forked worker draws its own.  For each
size this script times both layouts on the same seeded batch, alternating
which runs first, checks that they give the same bytes, and prints the median
times and the ratio of workers to producer.  The draws per step where that
ratio crosses 1 is the crossover from which ``engine._CHUNK_MIN_DRAWS`` is
set: a batch is cut once it draws twice that constant.

Usage: python scripts/layout_crossover.py [--repeat 5] [--steps 20000]
           [--draws3 150 300 600 900 1500] [--draws9 180 450 900]
"""

from __future__ import annotations

import argparse
import pathlib
import statistics
import sys
import time

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from replab import engine  # noqa: E402

LAYOUTS = {"producer": 10**9, "workers": 1}     # engine._CHUNK_MIN_DRAWS for each


def timed(layout: str, n: int, paths: int, steps: int) -> tuple[float, bytes]:
    """Seconds for one batch in ``layout``, and its per-path values."""
    gen = np.random.default_rng(n)
    A, sigma = gen.uniform(-1.0, 1.0, (n, n)), np.full(n, 0.5)
    cfg = engine.SdeConfig(h=1e-3, horizon=steps * 1e-3, seed=7, record_stride=steps)
    engine._CHUNK_MIN_DRAWS = LAYOUTS[layout]
    start = time.perf_counter()
    res = engine.batch_run(A, sigma, np.full(n, 1.0 / n), cfg, paths, engine.final_share(0))
    return time.perf_counter() - start, res.values.tobytes()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--steps", type=int, default=20_000)
    parser.add_argument("--draws3", type=int, nargs="+", default=[150, 300, 600, 900, 1500])
    parser.add_argument("--draws9", type=int, nargs="+", default=[180, 450, 900])
    args = parser.parse_args(argv)
    if engine._USABLE_CPUS < 2:
        parser.error("one usable CPU: every batch runs in-process, with no producer")
    print(f"{engine._USABLE_CPUS} usable CPUs, {args.steps} steps, median of {args.repeat}")
    print(f"{'n':>2}  {'draws':>5}  {'paths':>5}  {'producer s':>10}  {'workers s':>9}  ratio")
    for n, sizes in ((3, args.draws3), (9, args.draws9)):
        for draws in sizes:
            paths = max(1, draws // n)
            seconds = {layout: [] for layout in LAYOUTS}
            values = set()
            for rep in range(args.repeat):
                for layout in (LAYOUTS if rep % 2 == 0 else reversed(LAYOUTS)):
                    elapsed, out = timed(layout, n, paths, args.steps)
                    seconds[layout].append(elapsed)
                    values.add(out)
            if len(values) != 1:
                raise SystemExit(f"n = {n}, {paths} paths: the layouts gave different bytes")
            producer, workers = (statistics.median(seconds[k]) for k in LAYOUTS)
            print(f"{n:>2}  {paths * n:>5}  {paths:>5}  {producer:>10.3f}  {workers:>9.3f}  "
                  f"{workers / producer:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
