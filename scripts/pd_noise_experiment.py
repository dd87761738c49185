"""Selection reversal in the social dilemma under per-strategy noise.

Two batches from the same even start: with small symmetric noise defection
takes over; once the noise on defection is large enough, cooperation does.
Writes both batch JSONs (plus manifests) and prints the two fixation rates.

Usage: python scripts/pd_noise_experiment.py [--outdir results] [--seed 7] [--paths 500]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from replab.cli import main as replab  # noqa: E402

GAME = ROOT / "testbeds" / "prisoners_dilemma.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results", type=pathlib.Path)
    parser.add_argument("--seed", default=7, type=int)
    parser.add_argument("--paths", default=500, type=int)
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    runs = [
        ("defect_wins", "0.1,0.1", "final_share:2"),
        ("cooperate_wins", "0.1,2.2", "final_share:1"),
    ]
    for name, sigma, stat in runs:
        out = args.outdir / f"pd_{name}"
        rc = replab(["simulate", str(GAME), "--seed", str(args.seed),
                     "--sigma", sigma, "--x0", "0.5,0.5", "--T", "50",
                     "--paths", str(args.paths), "--stride", "1000",
                     "--stat", stat, "--out", str(out)])
        if rc != 0:
            return rc
        payload = json.loads((args.outdir / f"pd_{name}.json").read_text())
        wins = sum(1 for v in payload["per_path"] if v > 0.99)
        print(f"{name}: sigma=({sigma}) -> {wins}/{args.paths} paths fixate")
    return 0


if __name__ == "__main__":
    sys.exit(main())
