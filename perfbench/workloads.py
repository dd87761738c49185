"""The three benchmark workloads and the inputs they are built from.

Each workload is cut into *units* of work that a user would run as one
thing: a ``campaign`` unit is one CLI session on the committed testbeds, a
``sweep`` unit is one slice of the paper's war-of-attrition grid, and a
``wide-batch`` unit is one 4096-path ``simulate`` command.  Units are
numbered; unit ``i`` depends only on the workload seed and ``i``, so unit 0 of
two runs with the same seed does the same work and writes the same bytes.
Only unit 0's output files are kept.

Only public entry points are called (``cli.main`` for the CLI workloads;
``attrition`` and ``ess`` for the sweep), always by attribute lookup at call
time, so a tracer that swaps module attributes sees every call.  The
engine's ``--workers`` flag and ``REPLAB_WORKERS`` are never set.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hostspeed import Pacer
from replab import attrition, cli, ess

RHO_FRACTIONS = (0.0, 0.1, 0.2, 0.4)
SWEEP_SLICES = 32
MATCH_TOL = 1e-9                 # closed form versus enumeration (criterion 1)

# cnd_status, number of equilibria, number of dominated strategies
GAME_TESTBEDS = {
    "attrition_game.json": ("negative", 1, 0),
    "coordination.json": ("nonnegative", 7, 0),
    "mixed_dominance.json": ("nonnegative", 1, 1),
    "prisoners_dilemma.json": ("negative", 1, 1),
}
TESTBED_FILES = (*GAME_TESTBEDS, "attrition_small.json")


@dataclass(frozen=True)
class Scale:
    """Sizes of every workload; ``FULL`` is the benchmark, ``TINY`` its self-test."""

    sim_horizon: str                          # campaign: simulate --T (every step recorded)
    checks: tuple[tuple[str, str, tuple[str, ...]], ...]   # campaign: (tag, testbed, flags)
    sweep_n: tuple[int, ...]                  # sweep: grid values of n
    wide_paths: int
    wide_n: int
    wide_horizon: str
    wide_stride: str
    ladder_work: int                          # path-steps per ladder rung
    ladder_steps: tuple[int, int]             # clamp of steps per rung
    ladder_reps: int
    normal_draws: int


FULL = Scale(
    sim_horizon="20",
    checks=(
        ("2.8", "attrition_game.json", ("--T", "25", "--paths", "20", "--stride", "10")),
        ("3.1", "mixed_dominance.json",
         ("--T", "5", "--paths", "500", "--stride", "500", "--k", "1")),
        ("4.3", "coordination.json", ("--T", "25", "--paths", "50", "--stride", "100")),
        ("5.1", "attrition_small.json", ("--T", "25", "--paths", "50", "--stride", "100")),
    ),
    sweep_n=tuple(range(1, 9)),
    wide_paths=4096, wide_n=9, wide_horizon="0.5", wide_stride="100",
    ladder_work=500_000, ladder_steps=(200, 5000), ladder_reps=3,
    normal_draws=1_000_000,
)

TINY = Scale(
    sim_horizon="0.2",
    checks=(
        ("2.8", "attrition_game.json", ("--T", "2", "--paths", "4", "--stride", "10")),
        ("3.1", "mixed_dominance.json",
         ("--T", "1", "--paths", "20", "--stride", "100", "--k", "1")),
        ("4.3", "coordination.json", ("--T", "10", "--paths", "4", "--stride", "100")),
        ("5.1", "attrition_small.json", ("--T", "2", "--paths", "4", "--stride", "100")),
    ),
    sweep_n=(1, 2, 3),
    wide_paths=64, wide_n=9, wide_horizon="0.05", wide_stride="10",
    ladder_work=2_000, ladder_steps=(5, 50), ladder_reps=1,
    normal_draws=10_000,
)


@dataclass
class UnitResult:
    """What one unit did: per-call latencies, correctness and a digest of its outputs."""

    calls: list[float] = field(default_factory=list)      # seconds per public call
    speeds: list[float] = field(default_factory=list)     # host-speed factor per call
    attempted: int = 0
    failed: int = 0
    path_steps: int = 0
    digest: str = ""
    errors: list[str] = field(default_factory=list)

    @property
    def wall(self) -> float:
        """Seconds in public calls."""
        return math.fsum(self.calls)

    def scaled_calls(self) -> list[float]:
        """Call times rescaled to the reference host speed (see ``hostspeed``)."""
        return [c * s for c, s in zip(self.calls, self.speeds)]


def unit_seed(seed: int, index: int) -> int:
    """The program seed of unit ``index``: a pure function of the workload seed."""
    return int(np.random.default_rng([seed, index]).integers(1, 2**31))


def _digest_files(paths) -> str:
    """sha256 over the names and bytes of reproducible outputs (never manifests)."""
    h = hashlib.sha256()
    for path in sorted(paths, key=lambda p: p.name):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _run_cli(argv: list[str]) -> tuple[int, float]:
    """Run one CLI command with its summary captured; returns (exit code, seconds).

    An exception escaping ``cli.main`` is reported on stderr and returned as
    exit code -1, so that it counts as one failed command.
    """
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # noqa: BLE001 - a crashing command is a failed operation
            traceback.print_exc()
            rc = -1
        elapsed = time.perf_counter() - t0
    return rc, elapsed


# ---------------------------------------------------------------------------
# campaign


class Campaign:
    """A user's session: analyze each testbed, one dense path, four bound checks."""

    def __init__(self, scale: Scale, seed: int, testbeds: Path, workdir: Path):
        self.scale, self.seed, self.workdir = scale, seed, workdir
        self.inputs = workdir / "inputs"
        self.inputs.mkdir(parents=True, exist_ok=True)
        for name in TESTBED_FILES:
            shutil.copyfile(testbeds / name, self.inputs / name)

    def _commands(self, seed: int, out: Path):
        """(argv, outputs, checker) for every command of one session."""
        cmds = []
        for name, expected in GAME_TESTBEDS.items():
            stem = out / f"analyze_{Path(name).stem}"
            cmds.append((["analyze", str(self.inputs / name), "--out", str(stem)],
                         [stem.with_suffix(".json")], _analyze_checker(expected)))
        traj = out / "trajectory"
        n_steps = int(round(float(self.scale.sim_horizon) / 1e-3))
        cmds.append((["simulate", str(self.inputs / "attrition_game.json"), "--paths", "1",
                      "--seed", str(seed), "--T", self.scale.sim_horizon, "--out", str(traj)],
                     [traj.with_suffix(".csv")], _trajectory_checker(n_steps + 1, 3)))
        for tag, game, flags in self.scale.checks:
            stem = out / f"check_{tag.replace('.', '_')}"
            paths = int(flags[flags.index("--paths") + 1])
            cmds.append((["verify", str(self.inputs / game), "--theorem", tag,
                          "--seed", str(seed), *flags, "--out", str(stem)],
                         [stem.with_suffix(".json"), out / f"{stem.name}_paths.csv"],
                         _verify_checker(paths)))
        return cmds

    def path_steps(self) -> int:
        """Path-steps of one session (simulate plus the four checks, h = 1e-3)."""
        total = int(round(float(self.scale.sim_horizon) / 1e-3))
        for _tag, _game, flags in self.scale.checks:
            horizon = float(flags[flags.index("--T") + 1])
            total += int(flags[flags.index("--paths") + 1]) * int(round(horizon / 1e-3))
        return total

    def run_unit(self, index: int, pacer: Pacer) -> UnitResult:
        out = self.workdir / f"unit-{index}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        res = UnitResult(path_steps=self.path_steps())
        cmds = self._commands(unit_seed(self.seed, index), out)
        codes = []
        for argv, _outputs, _check in cmds:
            rc, elapsed = _run_cli(argv)
            codes.append(rc)
            res.calls.append(elapsed)
            res.speeds.append(pacer.factor())     # commands take up to seconds each
        produced = []
        for (argv, outputs, check), rc in zip(cmds, codes):
            res.attempted += 1
            problem = f"exit code {rc}" if rc != 0 else None
            if problem is None:
                missing = [p.name for p in outputs if not p.is_file()]
                problem = f"no output {missing}" if missing else check(outputs)
            if problem:
                res.failed += 1
                res.errors.append(f"{' '.join(argv[:2])}: {problem}")
            produced += [p for p in outputs if p.is_file()]
        res.digest = _digest_files(produced)
        if index:
            shutil.rmtree(out)
        return res


def _analyze_checker(expected):
    status, n_eq, n_dom = expected

    def check(outputs):
        report = json.loads(outputs[0].read_text())
        got = (report["cnd_status"], len(report["equilibria"]), len(report["dominance"]))
        return None if got == (status, n_eq, n_dom) else f"got {got}, expected {expected}"

    return check


def _trajectory_checker(rows: int, n: int):
    def check(outputs):
        data = np.loadtxt(outputs[0], delimiter=",", skiprows=1, ndmin=2)
        if data.shape != (rows, n + 1):
            return f"trajectory shape {data.shape}, expected {(rows, n + 1)}"
        states = data[:, 1:]
        if not (np.all(states > 0.0) and np.allclose(states.sum(axis=1), 1.0, atol=1e-12)):
            return "recorded states leave the simplex"
        return None

    return check


def _verify_checker(paths: int):
    def check(outputs):
        report = json.loads(outputs[0].read_text())
        if report["verdict"] != "consistent":
            return f"verdict {report['verdict']}"
        rows = outputs[1].read_text().splitlines()
        return None if len(rows) == paths + 1 else f"{len(rows) - 1} per-path rows"

    return check


# ---------------------------------------------------------------------------
# sweep


def sweep_slices(specs, seed: int, k: int = SWEEP_SLICES) -> list[list[int]]:
    """Cut the grid into ``k`` slices with exactly the same mix of game sizes.

    Games of each ``n`` are shuffled by the seed and dealt in equal shares, so
    every slice holds ``len(group) // k`` games of each size (the remainder of
    a size is left out); the seed also orders the games within each slice.
    """
    rng = np.random.default_rng(seed)
    slices: list[list[int]] = [[] for _ in range(k)]
    for n in sorted({s.n for s in specs}):
        group = rng.permutation([i for i, s in enumerate(specs) if s.n == n])
        share = len(group) // k
        for j, sl in enumerate(slices):
            sl += [int(i) for i in group[j * share:(j + 1) * share]]
    for sl in slices:
        rng.shuffle(sl)
    return slices


def build_grid(scale: Scale):
    """The paper's (n, v, rho) grid: 2851 games at full scale."""
    return attrition.ess_sweep_rows(scale.sweep_n, RHO_FRACTIONS)


class Sweep:
    """Closed-form stable strategy against support enumeration, game by game."""

    def __init__(self, specs, seed: int):
        self.specs = specs
        self.slices = sweep_slices(specs, seed)

    def run_unit(self, index: int, pacer: Pacer) -> UnitResult:
        res = UnitResult()
        h = hashlib.sha256()
        for gi in self.slices[index % len(self.slices)]:
            spec = self.specs[gi]
            res.attempted += 1
            try:
                t0 = time.perf_counter()
                closed = attrition.closed_form_ess(spec)
                report = ess.unique_ess(attrition.perturbed_matrix(spec))
                res.calls.append(time.perf_counter() - t0)
            except Exception as exc:  # a failing game is counted, not fatal
                res.failed += 1
                res.errors.append(f"game {gi}: {type(exc).__name__}: {exc}")
                continue
            if report is None:
                res.failed += 1
                res.errors.append(f"game {gi}: enumeration found no stable strategy")
                continue
            gap = float(np.max(np.abs(closed.strategy - report.strategy)))
            if not gap < MATCH_TOL:
                res.failed += 1
                res.errors.append(f"game {gi}: closed form differs by {gap:.3g}")
            h.update(json.dumps([gi, closed.strategy.tolist(), report.strategy.tolist(),
                                 report.common_payoff, report.status]).encode())
        res.speeds = [pacer.factor()] * len(res.calls)
        res.digest = h.hexdigest()
        return res


# ---------------------------------------------------------------------------
# wide-batch


def write_wide_game(path: Path, seed: int, n: int) -> None:
    """A random n-strategy game with its noise vector, generated from the seed."""
    rng = np.random.default_rng(seed)
    game = {"n": n, "A": rng.uniform(-1.0, 1.0, (n, n)).round(6).tolist(),
            "sigma": rng.uniform(0.1, 0.4, n).round(6).tolist()}
    path.write_text(json.dumps(game) + "\n")


class WideBatch:
    """One wide ``simulate`` batch per unit, sparsely recorded, ``final_share`` reduced."""

    def __init__(self, scale: Scale, seed: int, workdir: Path):
        self.scale, self.seed, self.workdir = scale, seed, workdir
        self.game = workdir / "inputs" / "game.json"
        self.game.parent.mkdir(parents=True, exist_ok=True)
        write_wide_game(self.game, seed, scale.wide_n)
        self.steps = int(round(float(scale.wide_horizon) / 1e-3))

    def run_unit(self, index: int, pacer: Pacer) -> UnitResult:
        out = self.workdir / f"unit-{index}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        paths = self.scale.wide_paths
        argv = ["simulate", str(self.game), "--paths", str(paths),
                "--seed", str(unit_seed(self.seed, index)), "--T", self.scale.wide_horizon,
                "--stride", self.scale.wide_stride, "--stat", "final_share:1",
                "--out", str(out / "batch")]
        rc, elapsed = _run_cli(argv)
        res = UnitResult(calls=[elapsed], speeds=[pacer.factor()], attempted=paths,
                         path_steps=paths * self.steps)
        result = out / "batch.json"
        if rc != 0 or not result.is_file():
            res.failed = paths
            res.errors.append(f"simulate exited {rc}")
            return res
        batch = json.loads(result.read_text())
        values = np.array([math.nan if v is None else v for v in batch["per_path"]])
        bad = ~(np.isfinite(values) & (values >= 0.0) & (values <= 1.0))
        res.failed = int(bad.sum()) + max(0, paths - values.size)
        if res.failed:
            res.errors.append(f"{res.failed} paths with no finite share")
        elif batch["n_paths"] != paths or not math.isclose(
                batch["mean"], float(values.mean()), rel_tol=1e-12, abs_tol=1e-15):
            res.failed = paths
            res.errors.append("batch summary disagrees with its per-path values")
        res.digest = _digest_files([result])
        if index:
            shutil.rmtree(out)
        return res
