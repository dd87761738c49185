import ast
import hashlib
import importlib.util
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from replab import __version__, bounds, cli, engine, ess, games, rng
from replab.errors import ValidationError
from util import assert_no_child_process, counted_forks


def write_game(path, A, sigma=None, labels=None):
    payload = {"n": len(A), "A": A}
    if sigma is not None:
        payload["sigma"] = sigma
    if labels is not None:
        payload["labels"] = labels
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def pd_file(tmp_path):
    return write_game(tmp_path / "pd.json", [[3, 0], [5, 1]], [0.1, 0.1],
                      ["cooperate", "defect"])


@pytest.fixture
def mixed_file(tmp_path):
    return write_game(tmp_path / "mixed.json", [[2, 2, 2], [4, 1, 1], [1, 4, 4]],
                      [0.3, 0.3, 0.3])


@pytest.fixture
def attrition_game_file(tmp_path):
    return write_game(tmp_path / "attr.json",
                      [[0.5, 0, 0], [1, -0.5, -1], [1, 0, -1.5]],
                      [0.05, 0.05, 0.05])


TESTBEDS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "testbeds")


def sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


# ---------------------------------------------------------------------------
# analyze


def test_analyze_pd(pd_file, tmp_path, capsys):
    out = str(tmp_path / "report")
    assert cli.main(["analyze", pd_file, "--out", out]) == 0
    report = json.loads(open(out + ".json").read())
    assert report["conditionally_negative_definite"] is True
    statuses = {tuple(e["support"]): e["status"] for e in report["equilibria"]}
    assert statuses[("defect",)] == "StrictNash"
    assert report["dominance"][0]["strategy"] == "cooperate"
    assert report["dominance"][0]["kind"] == "strict"
    assert report["dominance"][0]["margin"] == pytest.approx(1.0)
    assert os.path.exists(out + ".manifest.json")


def test_analyze_computes_lambda2_once(pd_file, tmp_path, monkeypatch):
    calls = []
    second_eigenvalue = games.second_eigenvalue
    monkeypatch.setattr(games, "second_eigenvalue",
                        lambda A: calls.append(1) or second_eigenvalue(A))
    out = str(tmp_path / "report")
    assert cli.main(["analyze", pd_file, "--out", out]) == 0
    report = json.loads(open(out + ".json").read())
    assert len(calls) == 1      # the only equilibrium is a strict vertex: no CND test
    assert report["lambda2"] == second_eigenvalue([[3, 0], [5, 1]])
    assert report["cnd_status"] == "negative"
    assert report["conditionally_negative_definite"] is True


def test_analyze_mixed_dominance(mixed_file, tmp_path):
    out = str(tmp_path / "report")
    assert cli.main(["analyze", mixed_file, "--out", out]) == 0
    report = json.loads(open(out + ".json").read())
    entry = [d for d in report["dominance"] if d["strategy"] == "1"]
    assert entry and entry[0]["margin"] >= 0.5 - 1e-12


def test_analyze_zero_game(tmp_path):
    game = write_game(tmp_path / "zeros.json", [[0, 0], [0, 0]], [0.1, 0.1])
    out = str(tmp_path / "report")
    assert cli.main(["analyze", game, "--out", out]) == 0
    report = json.loads(open(out + ".json").read())
    assert report["dominance"] == []
    assert {e["status"] for e in report["equilibria"]} == {"Undetermined"}


def test_analyze_malformed_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert cli.main(["analyze", str(bad), "--out", str(tmp_path / "r")]) == 1
    missing = tmp_path / "missing.json"
    assert cli.main(["analyze", str(missing), "--out", str(tmp_path / "r")]) == 1
    short = write_game(tmp_path / "short.json", [[1, 2], [3, 4]])
    bad_n = json.loads(open(short).read())
    bad_n["n"] = 3
    (tmp_path / "badn.json").write_text(json.dumps(bad_n))
    assert cli.main(["analyze", str(tmp_path / "badn.json"), "--out", str(tmp_path / "r")]) == 1


@pytest.mark.parametrize("n", [2.7, "3", True])
def test_a_non_integer_n_in_an_input_file_exits_1(n, tmp_path, capsys):
    files = {"game": {"n": n, "A": [[0, 1], [1, 0]]},
             "constant": {"n": n, "v": 1.0},
             "general": {"n": n, "costs": [0, 1, 2], "rewards": [1, 1, 1]}}
    for name, payload in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        argv = (["analyze", str(path), "--out", str(tmp_path / "a")] if name == "game"
                else ["attrition", "--spec", str(path)])
        assert cli.main(argv) == 1, name
        assert f"'n' must be an integer, got {n!r}" in capsys.readouterr().err, name
    assert not os.path.exists(str(tmp_path / "a.json"))


# ---------------------------------------------------------------------------
# simulate


def test_simulate_single_path_csv(pd_file, tmp_path):
    out = str(tmp_path / "run")
    rc = cli.main(["simulate", pd_file, "--seed", "5", "--T", "1", "--out", out])
    assert rc == 0
    lines = open(out + ".csv").read().splitlines()
    assert lines[0] == "t,x_1,x_2"
    assert lines[1] == "0,0.5,0.5"
    assert len(lines) == 1002

    # same seed, byte-identical output
    first = sha(out + ".csv")
    assert cli.main(["simulate", pd_file, "--seed", "5", "--T", "1", "--out", out]) == 0
    assert sha(out + ".csv") == first


def test_streamed_simulate_writes_and_replays_the_same_bytes(monkeypatch, tmp_path, capsys):
    # 3001 records: with two usable CPUs the path streams from a forked child
    out = str(tmp_path / "run")
    argv = ["simulate", os.path.join(TESTBEDS, "coordination.json"), "--seed", "3", "--T", "3",
            "--stride", "1", "--out", out]
    files = (out + ".csv", out + ".manifest.json")
    forks = counted_forks(monkeypatch)
    written = []
    for cpus in (1, 2):
        monkeypatch.setattr(engine, "_USABLE_CPUS", cpus)
        assert cli.main(argv) == 0
        written.append([open(p, "rb").read() for p in files])
        assert cli.main(["rerun", files[1]]) == 0
        assert [open(p, "rb").read() for p in files] == written[-1]
        assert_no_child_process()
    assert len(forks) == 2                  # the run and its replay, with two CPUs
    assert written[0] == written[1]
    assert "1 path, 3001 recorded points" in capsys.readouterr().out


def test_simulate_batch_json(pd_file, tmp_path):
    out = str(tmp_path / "batch")
    rc = cli.main(["simulate", pd_file, "--seed", "6", "--T", "1", "--paths", "12",
                   "--stat", "final_share:2", "--out", out])
    assert rc == 0
    payload = json.loads(open(out + ".json").read())
    assert set(payload) == {"statistic", "mean", "std_error", "n_paths", "seed",
                            "clamped_paths", "per_path"}
    assert payload["statistic"] == "final_share_2"          # named by the 1-based flag
    assert payload["n_paths"] == 12 and payload["seed"] == 6
    assert payload["clamped_paths"] == 0
    assert len(payload["per_path"]) == 12
    assert 0.0 <= payload["mean"] <= 1.0


@pytest.mark.parametrize("paths", ["1", "3"])
@pytest.mark.parametrize("stat", ["final_share:x", "final_share:", "final_share:1.5"])
def test_simulate_non_integer_stat_index_exits_1(stat, paths, pd_file, tmp_path, capsys):
    # a single path reads no statistic, but a malformed one is still refused
    out = str(tmp_path / "batch")
    rc = cli.main(["simulate", pd_file, "--seed", "6", "--T", "1", "--paths", paths,
                   "--stat", stat, "--out", out])
    assert rc == 1
    assert f"strategy index {stat.split(':')[1]!r}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["pd.json"]


def test_simulate_batch_reports_clamped_paths(pd_file, tmp_path, capsys):
    out = str(tmp_path / "batch")
    assert cli.main(["simulate", pd_file, "--seed", "3", "--h", "0.1", "--T", "600",
                     "--paths", "4", "--stride", "6000", "--out", out]) == 0
    assert json.loads(open(out + ".json").read())["clamped_paths"] == 4
    assert "(4 reached the log-share floor)" in capsys.readouterr().out


def test_verify_reports_clamped_paths(pd_file, tmp_path, capsys):
    out = str(tmp_path / "basin")
    cli.main(["verify", pd_file, "--theorem", "4.1", "--k", "2", "--seed", "3", "--h", "0.1",
              "--T", "600", "--paths", "4", "--stride", "6000", "--out", out])
    assert json.loads(open(out + ".json").read())["clamped_paths"] == 12
    assert "(12 paths reached the log-share floor)" in capsys.readouterr().out


def test_simulate_batch_bytes_repeat_and_match_reversed_paths(pd_file, tmp_path):
    out1 = str(tmp_path / "r1")
    out2 = str(tmp_path / "r2")
    argv = ["simulate", pd_file, "--seed", "9", "--T", "1", "--paths", "30"]
    assert cli.main(argv + ["--out", out1]) == 0
    assert cli.main(argv + ["--out", out2]) == 0
    assert sha(out1 + ".json") == sha(out2 + ".json")

    per_path = json.loads(open(out1 + ".json").read())["per_path"]
    A, sigma, _labels = cli.load_game(pd_file)
    cfg = engine.SdeConfig(h=1e-3, horizon=1.0, seed=9)
    backward = engine.batch_run(A, sigma, [0.5, 0.5], cfg, 30, engine.final_share(0),
                                path_indices=range(29, -1, -1))
    assert per_path == backward.values[::-1].tolist()


@pytest.mark.parametrize("module", ["replab", "replab.cli"])
def test_module_entry_points_print_version(module):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-m", module, "--version"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0
    assert done.stdout.strip() == f"replab {__version__}"


def test_importing_the_cli_leaves_multiprocessing_unimported():
    # batches fork their workers and producers with os.fork, so no replab module imports it
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = "import sys, replab.cli; print(sorted(m for m in sys.modules if 'multiprocessing' in m))"
    done = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_simulate_requires_seed(pd_file, tmp_path):
    assert cli.main(["simulate", pd_file, "--out", str(tmp_path / "x")]) == 1


@pytest.mark.parametrize("argv, message", [
    (["verify", "coordination.json", "--theorem", "9.9", "--seed", "1"], "invalid choice"),
    (["verify", "coordination.json", "--theorem", "4.3"], "--seed"),
    (["simulate", "coordination.json", "--seed", "1", "--T", "abc"], "invalid float value"),
])
def test_a_command_line_argparse_refuses_exits_1(argv, message, tmp_path, capsys):
    out = str(tmp_path / "x")
    argv = [os.path.join(TESTBEDS, a) if a.endswith(".json") else a for a in argv]
    assert cli.main([*argv, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: replab") and message in err
    assert not os.path.exists(out + ".json")


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["verify", "--help"]])
def test_help_and_version_exit_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


def test_cached_parser_parses_each_line_as_a_fresh_one():
    # refused lines and different subcommands in a row leave no state behind
    lines = [["simulate", "g.json", "--seed", "1", "--T", "abc", "--out", "x"],
             ["simulate", "g.json", "--seed", "1", "--paths", "4", "--out", "x"],
             ["simulate", "g.json", "--seed", "2", "--out", "x"],
             ["verify", "g.json", "--theorem", "9.9", "--seed", "1", "--out", "x"],
             ["verify", "g.json", "--theorem", "3.1", "--seed", "2", "--k", "1", "--out", "y"],
             ["attrition", "--n", "2", "--v", "1"],
             ["analyze", "g.json"],
             ["analyze", "g.json", "--out", "z"],
             ["rerun", "m.json"]]
    assert cli.build_parser() is cli.build_parser()
    for argv in lines:
        parsed = []
        for parser in (cli.build_parser(), cli.build_parser.__wrapped__()):
            try:
                parsed.append(vars(parser.parse_args(argv)))
            except SystemExit as exc:
                parsed.append(exc.code)
        assert parsed[0] == parsed[1], argv


def test_a_command_function_set_after_the_first_call_is_the_one_that_runs(pd_file, tmp_path,
                                                                         monkeypatch):
    out = str(tmp_path / "run")
    assert cli.main(["analyze", pd_file, "--out", out]) == 0    # the parser is built
    calls = []
    monkeypatch.setattr(cli, "cmd_simulate", lambda args: calls.append(args.seed) or 7)
    assert cli.main(["simulate", pd_file, "--seed", "5", "--out", out]) == 7
    assert calls == [5]


def test_importing_the_cli_builds_no_parser():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = "import replab.cli as c; print(c.build_parser.cache_info().currsize)"
    done = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0"


@pytest.mark.parametrize("flags, message", [
    (["--stat", "max_final_share"], None),
    (["--stat", "bogus"], "unknown statistic 'bogus'"),
    (["--paths", "0"], "need at least one path"),
    (["--stride", "0"], "record_stride must be >= 1"),
])
def test_simulate_batch_flags(flags, message, tmp_path, capsys):
    out = str(tmp_path / "s")
    rc = cli.main(["simulate", os.path.join(TESTBEDS, "coordination.json"), "--seed", "1",
                   "--T", "1", "--paths", "3", *flags, "--out", out])
    if message is None:
        assert rc == 0
        report = json.loads(open(out + ".json").read())
        assert report["statistic"] == "max_final_share"
        assert min(report["per_path"]) >= 1.0 / 3.0
    else:
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not os.path.exists(out + ".json")


@pytest.mark.parametrize("payload, message", [
    ({"n": 2, "A": [[0, 1], [1, 0]]}, "no diffusion coefficients"),
    ({"n": 2, "A": [[0, 1], [1, 0]], "sigma": [0.1]}, "1 diffusion coefficients"),
    ({"n": 2, "A": [[0, 1], [1, 0]], "sigma": [0.1]},
     "g.json: 1 diffusion coefficients for 2 strategies\n"),
    ({"n": 2, "A": [[0, 1], [1, 0]], "sigma": [0.1, 0.1], "labels": ["a"]},
     "g.json: 1 labels for 2 strategies\n"),
    ({"n": 2, "A": [[0, 1], [1, 0]], "sigma": [0.1, "x"]},
     "could not convert string to float: 'x'"),
    ({"n": 2, "A": [[0, 1], [1, 0]], "sigma": [0.1, "x"]},
     "g.json: 'sigma' must be a list of numbers: "
     "ValueError(\"could not convert string to float: 'x'\")"),
])
@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_missing_or_miscounted_sigma_exits_1(payload, message, command, tmp_path, capsys):
    game = tmp_path / "g.json"
    game.write_text(json.dumps(payload))
    flags = ["--theorem", "4.3"] if command == "verify" else []
    assert cli.main([command, str(game), *flags, "--seed", "1", "--T", "1",
                     "--out", str(tmp_path / "x")]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, flags", [("simulate", ["--paths", "1"]),
                                            ("simulate", ["--paths", "3"]),
                                            ("verify", ["--theorem", "4.3", "--paths", "3"]),
                                            ("verify", ["--theorem", "2.4", "--paths", "3"])])
def test_sixteen_strategies_exit_1(command, flags, tmp_path, capsys, monkeypatch):
    # refused before the statics enumerate the game's supports, which takes
    # seconds from about 18 strategies on
    def enumerate_supports(A):
        raise AssertionError("unique_ess ran on a game the kernel cannot run")

    monkeypatch.setattr(ess, "unique_ess", enumerate_supports)
    game = write_game(tmp_path / "g16.json", np.eye(16).tolist(), [0.3] * 16)
    out = str(tmp_path / "x")
    assert cli.main([command, game, *flags, "--seed", "1", "--T", "1", "--out", out]) == 1
    assert "the SDE kernel takes at most 15 strategies, got 16" in capsys.readouterr().err
    assert not any(os.path.exists(out + ext) for ext in (".json", ".csv", "_paths.csv"))


# ---------------------------------------------------------------------------
# verify


COMMANDS = {"simulate": ["--paths", "3"],
            "verify": ["--theorem", "3.1", "--k", "1", "--paths", "3"]}


@pytest.mark.parametrize("command", list(COMMANDS))
@pytest.mark.parametrize("flag, value", [("--x0", "0.5,0.5"), ("--sigma", "0.1,0.1")])
def test_vector_flags_of_the_wrong_length_exit_1(command, flag, value, mixed_file, tmp_path,
                                                 capsys):
    out = str(tmp_path / "v")
    rc = cli.main([command, mixed_file, *COMMANDS[command], "--seed", "1", "--T", "1",
                   flag, value, "--out", out])
    assert rc == 1
    assert f"{flag} has 2 entries for 3 strategies" in capsys.readouterr().err
    assert not os.path.exists(out + ".json")


@pytest.mark.parametrize("flag, value, message", [
    ("--x0", "0.5,0.4,0.2", "weights sum to"),
    ("--sigma", "0.1,0.1,0", "must be finite and > 0"),
])
def test_verify_out_of_domain_vector_flags_exit_4(flag, value, message, mixed_file, tmp_path,
                                                  capsys):
    out = str(tmp_path / "v")
    rc = cli.main(["verify", mixed_file, *COMMANDS["verify"], "--seed", "1", "--T", "1",
                   flag, value, "--out", out])
    assert rc == 4
    assert message in capsys.readouterr().err
    assert not os.path.exists(out + ".json")


@pytest.mark.parametrize("child", ["succeeds", "raises"])
@pytest.mark.parametrize("command, flags", [*COMMANDS.items(), ("simulate", ["--paths", "1"])],
                         ids=[*COMMANDS, "simulate-path"])
def test_no_command_leaves_a_process_running(command, flags, child, mixed_file, tmp_path,
                                             monkeypatch, capsys):
    # short noise blocks make each batch draw in a producer, and 3001 records stream
    # the lone path from a forked child; a failing child fails its stream
    monkeypatch.setattr(engine, "_USABLE_CPUS", 2)
    monkeypatch.setattr(engine, "_NOISE_BLOCK_FLOATS", 3_000)
    forks = counted_forks(monkeypatch)
    if child == "raises":
        path_generator, parent = rng.path_generator, os.getpid()

        def failing(seed, path):
            if os.getpid() != parent:
                raise ValidationError("no stream for this path")
            return path_generator(seed, path)

        monkeypatch.setattr(rng, "path_generator", failing)
    rc = cli.main([command, mixed_file, *flags, "--seed", "1", "--T", "3",
                   "--out", str(tmp_path / "run")])
    assert forks
    if child == "raises":
        assert rc != 0 and "no stream for this path" in capsys.readouterr().err
    else:
        assert rc == 0
    assert_no_child_process()


@pytest.mark.parametrize("burn_in", ["-0.001", "-5", "0"])
def test_verify_refuses_a_negative_burn_in(burn_in, tmp_path, capsys):
    out = str(tmp_path / "v")
    rc = cli.main(["verify", os.path.join(TESTBEDS, "attrition_game.json"), "--theorem", "2.3a",
                   "--seed", "1", "--T", "10", "--stride", "10", "--paths", "20",
                   "--burn-in", burn_in, "--out", out])
    if burn_in == "0":      # 0.583017 of the time in the ball, against a bound of 0.75
        assert rc == 2
        assert (sha(out + ".json"), sha(out + "_paths.csv")) == (
            "78a812d7aadead4a9a1b14bfb427ed876308e14c907e9dd504a721925a8a15c9",
            "cc7ce49d303fbbb4c7c79f455fbaf9b7807447c3635fc744dc93ea21126b8984")
    else:
        assert rc == 4
        assert f"t_start={float(burn_in):g} must be >= 0" in capsys.readouterr().err
        assert not os.path.exists(out + ".json")


def test_verify_extinction_needs_k(tmp_path, capsys):
    assert cli.main(["verify", os.path.join(TESTBEDS, "mixed_dominance.json"),
                     "--theorem", "3.1", "--seed", "1", "--out", str(tmp_path / "v")]) == 1
    assert "--k (1-based strategy index) is required for 3.1" in capsys.readouterr().err


def test_verify_persistence_on_a_general_spec(tmp_path):
    spec = tmp_path / "general.json"
    spec.write_text(json.dumps({"costs": [0, 1, 2], "rewards": [3, 2, 2], "rho": [0, 0, 0]}))
    out = str(tmp_path / "v")
    assert cli.main(["verify", str(spec), "--theorem", "5.1", "--seed", "1", "--T", "20",
                     "--paths", "20", "--stride", "100", "--out", out]) == 0
    report = json.loads(open(out + ".json").read())
    assert report["verdict"] == "consistent"


def test_verify_exit_codes_and_report(attrition_game_file, tmp_path):
    out = str(tmp_path / "v")
    rc = cli.main(["verify", attrition_game_file, "--theorem", "2.4", "--seed", "3",
                   "--T", "40", "--paths", "25", "--stride", "20", "--out", out])
    assert rc == 0
    report = json.loads(open(out + ".json").read())
    assert report["verdict"] == "consistent"
    assert os.path.exists(out + "_paths.csv")
    assert os.path.exists(out + ".manifest.json")


def test_verify_vacuous_radius_exits_4(attrition_game_file, tmp_path, capsys):
    rc = cli.main(["verify", attrition_game_file, "--theorem", "2.3a", "--seed", "3",
                   "--T", "10", "--paths", "5", "--delta", "1e-9",
                   "--out", str(tmp_path / "v")])
    assert rc == 4
    err = capsys.readouterr().err
    assert "vacuous" in err


def test_verify_unreadable_game_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    rc = cli.main(["verify", str(bad), "--theorem", "2.4", "--seed", "3",
                   "--out", str(tmp_path / "v")])
    assert rc == 1
    assert "cannot read game file" in capsys.readouterr().err
    rc = cli.main(["verify", str(tmp_path / "missing.json"), "--theorem", "2.4",
                   "--seed", "3", "--out", str(tmp_path / "v")])
    assert rc == 1
    assert "cannot read input file" in capsys.readouterr().err
    ragged = tmp_path / "ragged.json"
    ragged.write_text(json.dumps({"n": 2, "A": [[1, 2], [3]], "sigma": [0.1, 0.1]}))
    rc = cli.main(["verify", str(ragged), "--theorem", "2.4", "--seed", "3",
                   "--out", str(tmp_path / "v")])
    assert rc == 1


def test_verify_out_of_domain_noise_in_file_exits_4(tmp_path):
    game = write_game(tmp_path / "neg.json", [[0.5, 0], [1, -0.5]], [0.1, -0.1])
    rc = cli.main(["verify", game, "--theorem", "2.4", "--seed", "3",
                   "--out", str(tmp_path / "v")])
    assert rc == 4


def test_verify_hypothesis_failure_names_condition(pd_file, tmp_path, capsys):
    # defect's noise margin fails when sigma_2^2 exceeds the payoff gap
    rc = cli.main(["verify", pd_file, "--theorem", "4.1", "--seed", "3",
                   "--sigma", "0.1,1.3", "--k", "2", "--paths", "5",
                   "--out", str(tmp_path / "v")])
    assert rc == 4
    assert "noise-robust-strict-nash" in capsys.readouterr().err


def test_verify_extinction_tag(mixed_file, tmp_path):
    out = str(tmp_path / "v31")
    rc = cli.main(["verify", mixed_file, "--theorem", "3.1", "--seed", "8",
                   "--T", "20", "--paths", "60", "--stride", "500",
                   "--k", "1", "--out", out])
    assert rc == 0
    report = json.loads(open(out + ".json").read())
    assert report["details"]["c1"] == pytest.approx(0.5)


def test_verify_coordination_tags(tmp_path):
    game = write_game(tmp_path / "coord.json",
                      [[2, 0, 0], [0, 2, 0], [0, 0, 2]], [0.1, 0.1, 0.1])
    out = str(tmp_path / "v42")
    rc = cli.main(["verify", game, "--theorem", "4.2", "--seed", "3", "--T", "120",
                   "--paths", "40", "--stride", "100", "--out", out])
    assert rc == 0
    out = str(tmp_path / "v43")
    rc = cli.main(["verify", game, "--theorem", "4.3", "--seed", "3", "--T", "120",
                   "--paths", "30", "--stride", "100", "--out", out])
    assert rc == 0
    report = json.loads(open(out + ".json").read())
    assert report["details"]["all_paths_hit"] is True


def test_verify_persistence_tag(tmp_path):
    spec = tmp_path / "attr_spec.json"
    spec.write_text(json.dumps({"n": 2, "mode": "constant", "v": 1.0, "rho": 0.0}))
    out = str(tmp_path / "v51")
    rc = cli.main(["verify", str(spec), "--theorem", "5.1", "--seed", "4",
                   "--T", "40", "--paths", "30", "--stride", "100", "--out", out])
    assert rc == 0


def test_verify_passes_eps_zero_to_the_check(mixed_file, tmp_path, capsys):
    rc = cli.main(["verify", mixed_file, "--theorem", "3.1", "--seed", "8", "--T", "5",
                   "--paths", "4", "--k", "1", "--eps", "0", "--out", str(tmp_path / "v")])
    assert rc == 4
    assert "threshold must lie in (0, 1)" in capsys.readouterr().err
    assert not os.path.exists(str(tmp_path / "v.json"))


def test_every_verdict_rule_has_a_verify_tag():
    assert set(bounds.RULES) <= set(cli._VERIFY)


def test_every_verify_tag_runs_a_check_of_bounds():
    for tag, (check, _flags, _defaults) in cli._VERIFY.items():
        assert callable(getattr(bounds, check, None)), tag


def test_no_replab_module_imports_replab_inside_a_function():
    package = os.path.dirname(cli.__file__)
    local = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        tree = ast.parse(open(os.path.join(package, name), encoding="utf-8").read())
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""] if node.level == 0 else ["replab"]
                elif isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                else:
                    continue
                if any(m.split(".")[0] == "replab" for m in modules):
                    local.append(f"{name}:{node.lineno}")
    assert local == []


def test_only_fileio_writes_files():
    """Every command writes through ``fileio.write_run``, so its manifest lists every file."""
    package = os.path.dirname(cli.__file__)
    writers = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py") or name == "fileio.py":
            continue
        tree = ast.parse(open(os.path.join(package, name), encoding="utf-8").read())
        for node in ast.walk(tree):
            if (getattr(node, "id", None) == "atomic_write_text"
                    or getattr(node, "attr", None) == "atomic_write_text"
                    or getattr(node, "name", None) == "atomic_write_text"):
                writers.append(f"{name}:{node.lineno}")
    assert writers == []


@pytest.mark.parametrize("eps", ["0", "-0.5", "nan", "1", "1.5"])
def test_verify_coordination_eps_out_of_range_exits_4(eps, tmp_path, capsys):
    out = str(tmp_path / "v")
    rc = cli.main(["verify", os.path.join(TESTBEDS, "coordination.json"), "--theorem", "4.2",
                   "--seed", "1", "--T", "5", "--paths", "8", "--eps", eps, "--out", out])
    assert rc == 4
    assert "eps must lie in (0, 1 - 1/n)" in capsys.readouterr().err
    assert not os.path.exists(out + ".json")


@pytest.mark.parametrize("tag, game, n", [
    ("3.1", "mixed_dominance.json", 3),
    ("4.1", "prisoners_dilemma.json", 2),
])
@pytest.mark.parametrize("k", ["0", "5", "-1"])
def test_verify_k_out_of_range_exits_1(tag, game, n, k, tmp_path, capsys):
    out = str(tmp_path / "v")
    rc = cli.main(["verify", os.path.join(TESTBEDS, game), "--theorem", tag, "--seed", "1",
                   "--T", "1", "--paths", "2", "--k", k, "--out", out])
    assert rc == 1
    assert f"strategy index {k} in --k is not one of 1..{n}" in capsys.readouterr().err
    assert not os.path.exists(out + ".json")


def test_verify_persistence_out_of_regime_exits_3(tmp_path, capsys):
    out = str(tmp_path / "v")
    rc = cli.main(["verify", os.path.join(TESTBEDS, "attrition_small.json"), "--theorem", "5.1",
                   "--sigma", "1.5,1.5,1.5", "--T", "20", "--paths", "40", "--seed", "22",
                   "--stride", "100", "--out", out])
    assert rc == cli.EXIT_INCONCLUSIVE == 3
    assert "inconclusive" in capsys.readouterr().out
    report = json.loads(open(out + ".json").read())
    assert report["verdict"] == "inconclusive"
    assert report["details"]["noise_regime_sufficient"] is False


@pytest.mark.parametrize("tag, game, flag", [
    ("4.2", "coordination.json", ["--k", "7"]),
    ("4.1", "prisoners_dilemma.json", ["--k", "2", "--x0", "0.5,0.5"]),
    ("2.4", "attrition_game.json", ["--burn-in", "3"]),
    ("5.1", "attrition_small.json", ["--eps", "0.2"]),
])
def test_verify_refuses_flags_the_check_does_not_read(tag, game, flag, tmp_path, capsys):
    rc = cli.main(["verify", os.path.join(TESTBEDS, game), "--theorem", tag, "--seed", "1",
                   "--T", "1", "--paths", "2", *flag, "--out", str(tmp_path / "v")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{flag[-2]} not read by --theorem {tag}" in err
    assert not os.path.exists(str(tmp_path / "v.json"))


SMALL = ["--T", "20", "--paths", "8"]

# sha256 of each check's report .json and _paths.csv on its standard testbed at
# seed 1 and a small size; a change means a changed check, statistic or kernel
GOLDEN_VERIFY = {
    "2.3a": ("attrition_game.json", SMALL + ["--stride", "10"],
             "672bd167c423d27889130f6733a90ce4f87b953e5fd5632bf25299ae7f6c6bdb",
             "521fe57d9ea09f011a222189e4351d44df3738582f7b2014e8f55ab343136723"),
    "2.3b": ("attrition_game.json", SMALL + ["--stride", "10"],
             "5fd63bc0350480c76c5cef385139f952e70a4759e06688ba07e4539c8ed6f5e6",
             "27563484409086a70900965223dde230a9e8039a716283c669e6319aa8d79f87"),
    "2.4": ("attrition_game.json", SMALL + ["--stride", "10"],
            "bf0265b511dbef16f48df02c13ff6ac53785edde4c865b1f436914c7a71d59b5",
            "7e4c83b6a8ad2911faa92618c24882d42419ab36f8e946950c45fe4ae4fe1be6"),
    "2.8": ("attrition_game.json", SMALL + ["--stride", "10"],
            "9299e2f9ca720fa28a5323dd8d1acd44c3a42c6b8f1c881a1aca38f821edc4e7",
            "3a646241f6a90c9b3e390e43be17757417d2e1b3ccb91c1a624e9911abc66923"),
    "3.1": ("mixed_dominance.json", ["--T", "5", "--paths", "40", "--stride", "500", "--k", "1"],
            "4be90b3ae64a19551c333e5400d574afc8166d97e6da011d52740127bb2d7d7d",
            "e486c889a961bd250a69a34c02fe373b87fb64e4e92f6953e2bef9a71be7d540"),
    "4.1": ("prisoners_dilemma.json", ["--T", "10", "--paths", "8", "--stride", "100", "--k", "2"],
            "2e203a37cd1d9ee6076974d94f45e24018957449783fd9532ce7ff5159c207ff",
            "9c09127aa3c5e89837fd465b956975835398f6e69eacbe91d2a0d23c71039fff"),
    "4.2": ("coordination.json", SMALL + ["--stride", "100"],
            "27643ce77fe3d379a5a7b4d6674a9e1292d6c1c8ec452a205bc05298d0f375e0",
            "4f555790e1ed96539a3cb5e2515e8fdded1f35ad9451495ed281e1f2c24566a5"),
    "4.3": ("coordination.json", SMALL + ["--stride", "100"],
            "58108476165734c8fa6685b6235aa56c504d7517f006770aa9fca857adb23eea",
            "287b31873aa7f9e4dfb7ddbb111f53002de31475c60a937ae5c63f2a11fa8b62"),
    "5.1": ("attrition_small.json", SMALL + ["--stride", "100"],
            "7bbf05df9be767ca364a903c15404a96efacb72d0305adaecb483f0a36b35279",
            "cc46db3d67964d995971b0f0eb954eef7151ac841f0e643b11c6413f1e92bff7"),
}


@pytest.mark.parametrize("tag", list(GOLDEN_VERIFY))
def test_verify_golden_digests(tag, tmp_path):
    game, flags, json_sha, csv_sha = GOLDEN_VERIFY[tag]
    out = str(tmp_path / "v")
    rc = cli.main(["verify", os.path.join(TESTBEDS, game), "--theorem", tag, "--seed", "1",
                   *flags, "--out", out])
    assert rc == 0
    assert (sha(out + ".json"), sha(out + "_paths.csv")) == (json_sha, csv_sha)


# ---------------------------------------------------------------------------
# attrition


def test_attrition_single_row(capsys):
    assert cli.main(["attrition", "--n", "2", "--v", "1", "--rho", "0"]) == 0
    out = capsys.readouterr().out
    assert "2,1,0,1,0.6,0.2,0.2,1.25" in out


def test_attrition_vertex_row(capsys):
    assert cli.main(["attrition", "--n", "2", "--v", "4", "--rho", "0"]) == 0
    out = capsys.readouterr().out.splitlines()[0]
    assert out == "2,4,0,,0,0,1,"


def test_attrition_row_file_replays(tmp_path, capsys):
    out = str(tmp_path / "P")
    assert cli.main(["attrition", "--n", "2", "--v", "1", "--out", out]) == 0
    assert open(out + ".csv").read() == "n,v,rho,s,p_0,p_1,p_2,c\n2,1,0,1,0.6,0.2,0.2,1.25\n"
    assert cli.main(["rerun", out + ".manifest.json"]) == 0


ATTRITION_SMALL = os.path.join(TESTBEDS, "attrition_small.json")


@pytest.mark.parametrize("argv, message", [
    (["attrition"], "give --spec FILE or both --n and --v"),
    (["attrition", "--n", "2"], "give --spec FILE or both --n and --v"),
    (["attrition", "--sweep"], "--out is required in sweep mode"),
    (["attrition", "--spec", ATTRITION_SMALL, "--sweep", "--out", "OUT"],
     "--spec not read by --sweep"),
    (["attrition", "--sweep", "--n", "2", "--v", "1", "--out", "OUT"],
     "--n, --v not read by --sweep"),
    (["attrition", "--spec", ATTRITION_SMALL, "--n", "2"], "--n not read by --spec"),
    (["attrition", "--spec", ATTRITION_SMALL, "--v", "1", "--out", "OUT"],
     "--v not read by --spec"),
])
def test_attrition_missing_flags_exit_1(argv, message, tmp_path, capsys):
    argv = [str(tmp_path / "x") if a == "OUT" else a for a in argv]
    assert cli.main(argv) == 1
    assert message in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_attrition_invalid_rho_exits_4(capsys):
    assert cli.main(["attrition", "--n", "2", "--v", "1", "--rho", "0.6"]) == 4


def test_attrition_spec_file_errors_exit_1(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert cli.main(["attrition", "--spec", str(missing)]) == 1
    assert "cannot read attrition spec" in capsys.readouterr().err
    no_v = tmp_path / "no_v.json"
    no_v.write_text(json.dumps({"n": 2, "mode": "constant"}))
    assert cli.main(["attrition", "--spec", str(no_v)]) == 1
    assert cli.main(["attrition", "--sweep", "--n-range", "1-3",
                     "--out", str(tmp_path / "s")]) == 1
    assert cli.main(["attrition", "--sweep", "--n-range", "3:1",
                     "--out", str(tmp_path / "s")]) == 1
    assert "--n-range 3:1 is empty" in capsys.readouterr().err
    assert not os.path.exists(str(tmp_path / "s.csv"))
    disagrees = tmp_path / "disagrees.json"
    disagrees.write_text(json.dumps({"n": 3, "costs": [0, 1, 2], "rewards": [1, 1, 1]}))
    assert cli.main(["attrition", "--spec", str(disagrees)]) == 1
    assert "'n' disagrees with the cost vector" in capsys.readouterr().err


@pytest.mark.parametrize("step", ["nan", "inf", "0", "-0.25"])
def test_attrition_sweep_bad_reward_step_exits_4(step, tmp_path, capsys):
    out = str(tmp_path / "s")
    assert cli.main(["attrition", "--sweep", "--n-range", "1:2", "--v-step", step,
                     "--out", out]) == 4
    assert "reward step must be finite and > 0" in capsys.readouterr().err
    assert not os.path.exists(out + ".csv")


def test_attrition_general_spec(tmp_path, capsys):
    spec = tmp_path / "gen.json"
    spec.write_text(json.dumps({
        "n": 2, "mode": "general",
        "costs": [0.0, 1.0, 2.0], "rewards": [1.0, 1.0, 1.0], "rho": [0.0, 0.0, 0.0],
    }))
    out = str(tmp_path / "gen_out")
    assert cli.main(["attrition", "--spec", str(spec), "--out", out]) == 0
    payload = json.loads(open(out + ".json").read())
    assert np.allclose(payload["strategy"], [0.6, 0.2, 0.2])


def test_attrition_sweep_csv(tmp_path):
    out = str(tmp_path / "sweep")
    rc = cli.main(["attrition", "--sweep", "--n-range", "1:2", "--v-step", "0.5",
                   "--rho-fracs", "0,0.2", "--out", out])
    assert rc == 0
    lines = open(out + ".csv").read().splitlines()
    assert lines[0] == "n,v,rho,s,p_0,p_1,p_2,c"
    assert len(lines) > 10


# ---------------------------------------------------------------------------
# rerun / manifest


def test_rerun_reproduces_outputs_byte_identically(pd_file, tmp_path):
    out = str(tmp_path / "run")
    argv = ["simulate", pd_file, "--seed", "11", "--T", "1", "--paths", "8", "--out", out]
    assert cli.main(argv) == 0
    manifest_path = out + ".manifest.json"
    manifest = json.loads(open(manifest_path).read())
    assert set(manifest["outputs"]) == {out + ".json", manifest_path}
    hashes = {p: sha(p) for p in manifest["outputs"]}
    assert cli.main(["rerun", manifest_path]) == 0
    assert {p: sha(p) for p in manifest["outputs"]} == hashes


GENERAL_SPEC = {"n": 2, "mode": "general", "costs": [0.0, 1.0, 2.0],
                "rewards": [1.0, 1.0, 1.0], "rho": [0.0, 0.0, 0.0]}


@pytest.mark.parametrize("argv", [
    ["analyze", os.path.join(TESTBEDS, "coordination.json")],
    ["simulate", os.path.join(TESTBEDS, "coordination.json"), "--seed", "3", "--T", "1",
     "--paths", "1"],
    ["simulate", os.path.join(TESTBEDS, "coordination.json"), "--seed", "3", "--T", "1",
     "--paths", "5"],
    ["verify", os.path.join(TESTBEDS, "coordination.json"), "--theorem", "4.3", "--seed", "1",
     *SMALL, "--stride", "100"],
    ["attrition", "--sweep", "--n-range", "1:2", "--v-step", "0.5"],
    ["attrition", "--n", "2", "--v", "1"],
    ["attrition", "--spec", "GENERAL"],
], ids=["analyze", "simulate-path", "simulate-batch", "verify", "attrition-sweep",
        "attrition-row", "attrition-general"])
def test_manifest_lists_exactly_what_the_command_wrote(argv, tmp_path, capsys):
    general = tmp_path / "general.json"
    general.write_text(json.dumps(GENERAL_SPEC))
    written = tmp_path / "out"
    out = str(written / "run")
    argv = [str(general) if a == "GENERAL" else a for a in argv] + ["--out", out]
    code = cli.main(argv)
    manifest_path = out + ".manifest.json"
    manifest = json.loads(open(manifest_path).read())
    files = sorted(str(p) for p in written.iterdir())
    assert sorted(manifest["outputs"]) == files
    assert manifest["outputs"][-1] == manifest_path
    assert manifest["output_sha256"] == {p: sha(p) for p in files if p != manifest_path}
    assert manifest["command"] == argv
    before = {p: sha(p) for p in files}
    assert cli.main(["rerun", manifest_path]) == code
    assert {p: sha(p) for p in sorted(str(p) for p in written.iterdir())} == before


def test_rerun_refuses_changed_or_missing_inputs(pd_file, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert cli.main(["simulate", pd_file, "--seed", "11", "--T", "1", "--paths", "8",
                     "--out", out]) == 0
    manifest_path = out + ".manifest.json"
    before = {p: sha(p) for p in (out + ".json", manifest_path)}
    capsys.readouterr()

    write_game(tmp_path / "pd.json", [[3, 0], [5, 2]], [0.1, 0.1], ["cooperate", "defect"])
    assert cli.main(["rerun", manifest_path]) == 1
    err = capsys.readouterr().err
    assert pd_file in err and "changed" in err

    os.remove(pd_file)
    assert cli.main(["rerun", manifest_path]) == 1
    assert pd_file in capsys.readouterr().err
    assert {p: sha(p) for p in before} == before


def test_rerun_checks_output_digests(pd_file, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert cli.main(["simulate", pd_file, "--seed", "11", "--T", "1", "--paths", "8",
                     "--out", out]) == 0
    manifest = json.loads(open(out + ".manifest.json").read())
    assert manifest["output_sha256"] == {out + ".json": sha(out + ".json")}
    capsys.readouterr()

    def rerun_edited(**changes):
        edited = {k: v for k, v in dict(manifest, **changes).items() if v is not None}
        path = tmp_path / "edited.manifest.json"
        path.write_text(json.dumps(edited))
        return cli.main(["rerun", str(path)]), capsys.readouterr().err

    code, err = rerun_edited(output_sha256={out + ".json": "0" * 64})
    assert code == 1 and out + ".json" in err and "differs" in err
    missing = str(tmp_path / "never_written.json")
    code, err = rerun_edited(output_sha256={missing: sha(out + ".json")})
    assert code == 1 and missing in err
    code, err = rerun_edited(output_sha256=None)
    assert code == 1 and "no output digests" in err
    code, err = rerun_edited(command=manifest["command"] + ["--T", "abc"])
    assert code == 1 and "invalid float value: 'abc'" in err


def test_rerun_unreadable_manifest_exits_1(tmp_path, capsys):
    assert cli.main(["rerun", str(tmp_path / "missing.manifest.json")]) == 1
    no_command = tmp_path / "bare.manifest.json"
    no_command.write_text(json.dumps({"seed": 1}))
    assert cli.main(["rerun", str(no_command)]) == 1
    assert "cannot read manifest" in capsys.readouterr().err


def test_rerun_of_a_rerun_manifest_exits_1(tmp_path, capsys):
    # no command writes such a manifest; replaying it would recurse without end
    out = str(tmp_path / "loop")
    assert cli.main(["attrition", "--n", "2", "--v", "1", "--out", out]) == 0
    path = out + ".manifest.json"
    manifest = json.loads(open(path).read())
    with open(path, "w") as f:
        json.dump(dict(manifest, command=["rerun", path]), f)
    capsys.readouterr()
    assert cli.main(["rerun", path]) == 1
    assert f"manifest {path} replays rerun" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# driver scripts


def test_pd_noise_script_writes_both_batches(tmp_path):
    script = os.path.join(os.path.dirname(__file__), "..", "scripts", "pd_noise_experiment.py")
    done = subprocess.run([sys.executable, script, "--outdir", str(tmp_path), "--paths", "8"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=300)
    assert done.returncode == 0, done.stderr
    for name in ("defect_wins", "cooperate_wins"):
        payload = json.loads((tmp_path / f"pd_{name}.json").read_text())
        assert len(payload["per_path"]) == 8


def test_run_verifications_stops_at_an_input_error(tmp_path, monkeypatch):
    path = os.path.join(os.path.dirname(__file__), "..", "scripts", "run_verifications.py")
    spec = importlib.util.spec_from_file_location("run_verifications", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    codes = iter([1, 2])
    calls = []

    def stub(argv):
        calls.append(argv)
        return next(codes, 0)

    monkeypatch.setattr(script, "replab", stub)
    assert script.run_all(tmp_path, seed=1, fast=True) == 1
    assert len(calls) == 1


def test_layout_crossover_script_times_both_layouts(monkeypatch, capsys):
    path = os.path.join(os.path.dirname(__file__), "..", "scripts", "layout_crossover.py")
    spec = importlib.util.spec_from_file_location("layout_crossover", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(engine, "_USABLE_CPUS", 2)
    monkeypatch.setattr(engine, "_CHUNK_MIN_DRAWS", engine._CHUNK_MIN_DRAWS)    # the script sets it
    with pytest.raises(SystemExit) as refused:      # one path has no worker layout
        script.main(["--draws3", "3"])
    assert refused.value.code == 2 and "--draws3 3 is under 2 paths" in capsys.readouterr().err
    assert script.main(["--repeat", "1", "--steps", "200", "--draws3", "6", "--draws9", "18"]) == 0
    rows = [row.split() for row in capsys.readouterr().out.splitlines()[2:]]
    assert [row[:3] for row in rows] == [["3", "6", "2"], ["9", "18", "2"]]


def test_bench_pairs_compares_wins_medians_iqr_and_pair_ratios():
    path = os.path.join(os.path.dirname(__file__), "..", "scripts", "bench_pairs.py")
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    values = {"parent": {"ops_per_s": [10, 11, 12, 13, 14], "wall_s": [2, 2, 2, 2, 2],
                         "errors": [0, 0, 0, 0, 0]},
              "change": {"ops_per_s": [12, 10, 13, 15, 16], "wall_s": [1, 1, 1, 1, 1],
                         "errors": [0, 1, 0, 0, 0]}}
    runs = {side: [{"metrics": {name: {"unit": "u", "value": v[i]} for name, v in by.items()}}
                   for i in range(5)] for side, by in values.items()}
    out = script.compare(runs, {"ops_per_s": "higher", "wall_s": "lower"})
    ops, wall, errors = out["ops_per_s"], out["wall_s"], out["errors"]
    assert ops["change_better_pairs"] == "4 of 5"          # the second pair lost
    assert ops["ratio_of_medians"] == pytest.approx(13 / 12)
    assert ops["parent_summary"] == {"median": 12, "q1": 11, "q3": 13}
    assert not ops["difference_exceeds_parent_iqr"]        # 1 against an IQR of 2
    assert ops["pair_ratio_range"] == pytest.approx([10 / 11, 12 / 10])
    assert wall["change_better_pairs"] == "5 of 5" and wall["better"] == "lower"
    assert wall["difference_exceeds_parent_iqr"]           # 1 against an IQR of 0
    assert wall["ratio_of_medians"] == wall["pair_ratio_range"][0] == 0.5
    assert errors["ratio_of_medians"] is None and errors["pair_ratio_range"] is None
    assert errors["change_better_pairs"] == "0 of 5"       # undeclared: lower is better


def test_linecov_plugin_lists_statements_never_run():
    root = os.path.dirname(TESTBEDS)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        os.path.join(root, d) for d in ("src", "scripts")))
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "linecov",
                           "-p", "no:cacheprovider", os.path.join("tests", "test_rng.py")],
                          capture_output=True, text=True, cwd=root, env=env, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    listing = dict(line.split(": ", 1) for line in done.stdout.splitlines()
                   if line.startswith("replab/"))
    assert "replab/engine.py" in listing     # test_rng.py never imports the engine
    missing, total = map(int, listing["replab/rng.py"].split(" not run")[0].split(" of "))
    assert missing < total      # test_rng.py runs most of rng.py


def test_linecov_counts_lines_that_only_forked_children_run(tmp_path):
    # only a child pickles a message in engine._child's send, and the caller kills
    # the child as soon as it has taken that message
    probe = tmp_path / "test_fork_probe.py"
    probe.write_text("from replab import engine\n"
                     "\n"
                     "def test_child():\n"
                     "    pid, pipe = engine._child(lambda send: send(7))\n"
                     "    try:\n"
                     "        assert engine._take(pipe, 'gone') == 7\n"
                     "    finally:\n"
                     "        engine._reap(pid)\n"
                     "        pipe.close()\n")
    root = os.path.dirname(TESTBEDS)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        os.path.join(root, d) for d in ("src", "scripts")))
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "linecov",
                           "-p", "no:cacheprovider", str(probe)],
                          capture_output=True, text=True, cwd=root, env=env, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    listing = dict(line.split(": ", 1) for line in done.stdout.splitlines()
                   if line.startswith("replab/"))
    missing = listing["replab/engine.py"].split("not run: ")[1].split(", ")
    source = [line.strip() for line in open(engine.__file__, encoding="utf-8")]
    assert str(source.index("pickle.dump(value, pipe)") + 1) not in missing
    assert str(source.index("send(exc)") + 1) in missing        # no child raised


def test_linecov_statements_skip_docstrings_and_span_their_lines():
    spec = importlib.util.spec_from_file_location(
        "linecov", os.path.join(os.path.dirname(TESTBEDS), "scripts", "linecov.py"))
    linecov = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(linecov)
    source = ('"""module doc"""\n'
              'import os\n'
              '\n'
              '@staticmethod\n'
              'def f(x):\n'
              '    """function doc"""\n'
              '    if x:\n'
              '        return (1 +\n'
              '                2)\n'
              '    return 0\n')
    assert linecov.statements(source) == {2: {2}, 4: {4, 5}, 7: {7}, 8: {8, 9}, 10: {10}}
