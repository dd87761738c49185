"""Self-test of the benchmark at tiny sizes (not part of the tier-1 suite).

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from tracer import LAYERS, Tracer  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def run_bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    done = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return done


def parse(done):
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = next(line.split()[-1] for line in lines if line.startswith("digest "))
    return result, digest


def check_metrics(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run(workload):
    first = run_bench(workload, trace=0)
    assert first.returncode == 0, first.stderr
    result, digest = parse(first)
    check_metrics(result, DECLARED["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    again = run_bench(workload, trace=0)
    assert parse(again)[1] == digest, "same seed, same code: the output digest must repeat"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    done = run_bench(workload, trace=1)
    assert done.returncode == 0, done.stderr
    result, _ = parse(done)
    check_metrics(result, DECLARED["per_layer"])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    self_times = [values[f"{layer}.self_s"] for layer in LAYERS]
    assert min(self_times) >= 0.0
    assert sum(self_times) <= values["trace.wall_s"]
    assert all(values[f"{layer}.calls"] >= 1 for layer in LAYERS)
    assert all(values[f"{layer}.errors"] == 0 for layer in LAYERS)


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = run_bench("campaign", trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_self_time_is_span_minus_children():
    tracer = Tracer()
    inner = tracer.wrap("games", "inner", lambda: time.sleep(0.02))

    def outer_body():
        time.sleep(0.01)
        inner()

    outer = tracer.wrap("ess", "outer", outer_body)
    outer()
    m = tracer.metrics()
    spans = tracer.arrays()
    outer_s = (spans["end_ns"][0] - spans["start_ns"][0]) / 1e9
    assert m["ess.calls"] == 1 and m["games.calls"] == 1
    assert m["ess.self_s"] >= 0.01 and m["games.self_s"] >= 0.02
    assert m["ess.self_s"] + m["games.self_s"] == pytest.approx(outer_s, abs=1e-9)


def test_uninstall_restores_every_attribute():
    from replab import cli, engine

    originals = (cli.main, engine.batch_run, engine.Statistic)
    tracer = Tracer()
    tracer.install()
    try:
        assert hasattr(cli.main, "__wrapped__")
        assert engine.Statistic is not originals[2]
    finally:
        tracer.uninstall()
    assert (cli.main, engine.batch_run, engine.Statistic) == originals
