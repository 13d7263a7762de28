import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from diftgame import cli, game, generate, ifg
from diftgame.errors import GenerationFailed, ValidationError
from diftgame.game import DROP

from conftest import grid_graph, staged_reachability_ok


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------


def test_gen_graph_rain_shape():
    g = generate.gen_graph(30, 4, (2, 2, 2, 2), 1, 0.08, seed=12)
    assert g.n == 30
    assert [len(s) for s in g.stages] == [2, 2, 2, 2]
    assert sum(len(s) for s in g.stages) == 8
    assert len(g.vulnerable) == 1
    assert ifg.validate(g) == []


def test_gen_graph_tiny_complete():
    g = generate.gen_graph(3, 1, (1,), 1, 1.0, seed=0)
    assert g.n == 3
    assert ifg.validate(g) == []
    # density 1.0: every ordered pair is an edge
    assert len(g.edges) == 6


def test_gen_graph_outputs_validate_clean():
    # each (stage count 1-4, density, slack 0-3) triple once; density 0 keeps
    # only the backbone and attaching edges, slack 0 is needed == n_nodes
    rng = np.random.default_rng(2024)
    densities = (0.0, 0.05, 0.15, 0.4, 1.0)
    for seed in range(80):
        n_stages = 1 + seed % 4
        dests = tuple(int(k) for k in rng.integers(1, 4, size=n_stages))
        n_entries = int(rng.integers(1, 4))
        n_nodes = sum(dests) + n_entries + n_stages + seed // 20
        g = generate.gen_graph(n_nodes, n_stages, dests, n_entries, densities[seed % 5],
                               seed=seed)
        assert ifg.validate(g) == []
        assert g.n == n_nodes and len(g.vulnerable) == n_entries
        assert tuple(len(s) for s in g.stages) == dests
        assert staged_reachability_ok(g)


def test_staged_reachability_oracle_rejects_misordered_stages():
    # 1 -> 2 -> 3 passes D_2 = {2} while still in stage 1
    assert staged_reachability_ok(ifg.make_graph(3, [(1, 2), (2, 3)], [[2], [3]], [1]))
    assert not staged_reachability_ok(ifg.make_graph(3, [(1, 2), (2, 3)], [[3], [2]], [1]))
    assert not staged_reachability_ok(ifg.make_graph(3, [(1, 2)], [[3]], [1]))


def test_gen_graph_deterministic_in_seed():
    a = generate.gen_graph(12, 2, (2, 2), 1, 0.1, seed=33)
    b = generate.gen_graph(12, 2, (2, 2), 1, 0.1, seed=33)
    assert a == b
    c = generate.gen_graph(12, 2, (2, 2), 1, 0.1, seed=34)
    assert a != c


def test_gen_graph_rejects_impossible_budget():
    with pytest.raises(GenerationFailed):
        generate.gen_graph(4, 2, (2, 2), 1, 0.1, seed=0)


def test_gen_graph_rejects_bad_arguments():
    with pytest.raises(ValidationError):
        generate.gen_graph(10, 2, (2,), 1, 0.1, seed=0)
    with pytest.raises(ValidationError):
        generate.gen_graph(10, 2, (2, 2), 1, 1.5, seed=0)


def test_gen_graph_relevance_is_entry_reachability():
    g = generate.gen_graph(10, 1, (2,), 2, 0.15, seed=5)
    assert g.rule_relevance == ifg.entry_reachability(g)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def run_cli(args):
    return cli.main([str(a) for a in args])


@pytest.fixture
def graph_file(tmp_path):
    out = tmp_path / "gen"
    code = run_cli(["gen-graph", "--nodes", 8, "--stages", 2, "--dest-per-stage", "1,1",
                    "--entries", 1, "--density", 0.15, "--seed", 5, "--out-dir", out])
    assert code == 0
    return out / "graph.json"


def test_cli_gen_graph_writes_graph_dot_and_manifest(tmp_path):
    out = tmp_path / "g"
    code = run_cli(["gen-graph", "--nodes", 6, "--stages", 1, "--dest-per-stage", "1",
                    "--entries", 1, "--density", 0.2, "--seed", 1,
                    "--out-dir", out, "--dot", "graph.dot"])
    assert code == 0
    assert (out / "graph.json").exists()
    assert (out / "graph.dot").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "gen-graph"
    assert manifest["config"]["seed"] == 1
    g = ifg.load(out / "graph.json")
    assert ifg.validate(g) == []


def test_cli_solve_multi_then_simulate_and_best_response(tmp_path, graph_file):
    out = tmp_path / "multi"
    code = run_cli(["solve-multi", graph_file, "--max-iters", 400, "--seed", 2,
                    "--eta", 0.02, "--out-dir", out])
    assert code == 0
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "iteration,U_D_avg,U_A_avg,max_gap"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["iterations"] == len(trace) - 1

    sim = tmp_path / "sim"
    code = run_cli(["simulate", graph_file, "--defender", out / "defender.json",
                    "--adversary", out / "adversary.json", "--n-trials", 2000,
                    "--seed", 3, "--out-dir", sim])
    assert code == 0
    report = (sim / "report.csv").read_text().splitlines()
    assert report[0].startswith("method,n_trials,seed,u_d,u_a")
    assert report[1].startswith("monte_carlo,2000,3,")

    bra = tmp_path / "bra"
    code = run_cli(["best-response", graph_file, "--side", "adversary",
                    "--strategy", out / "defender.json", "--out-dir", bra])
    assert code == 0
    response = game.load_strategy(bra / "response.json")
    assert isinstance(response, game.AdversaryStrategy)

    brd = tmp_path / "brd"
    code = run_cli(["best-response", graph_file, "--side", "defender",
                    "--strategy", out / "adversary.json", "--levels", 1, "--out-dir", brd])
    assert code == 0
    response = game.load_strategy(brd / "response.json")
    assert isinstance(response, game.DefenderStrategy)


def test_cli_solve_single_on_single_stage_graph(tmp_path):
    out = tmp_path / "g1"
    run_cli(["gen-graph", "--nodes", 7, "--stages", 1, "--dest-per-stage", "2",
             "--entries", 1, "--density", 0.15, "--seed", 9, "--out-dir", out])
    sol = tmp_path / "sol"
    code = run_cli(["solve-single", out / "graph.json", "--out-dir", sol])
    assert code == 0
    assert (sol / "defender.json").exists()
    mixture = json.loads((sol / "adversary_mixture.json").read_text())
    assert set(mixture) == {"paths", "weights"}


def test_cli_solve_single_rejects_multi_stage(tmp_path, graph_file, capsys):
    code = run_cli(["solve-single", graph_file, "--out-dir", tmp_path / "x"])
    assert code == 1
    err = capsys.readouterr().err
    assert "solve-single" in err and "single-stage" in err


def test_cli_simulate_zero_trials_is_usage_error(tmp_path, graph_file):
    with pytest.raises(SystemExit) as exc:
        run_cli(["simulate", graph_file, "--defender", "x", "--adversary", "y",
                 "--n-trials", 0, "--out-dir", tmp_path / "x"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["gen-graph", "--nodes", 5, "--stages", 1, "--dest-per-stage", "a"],
    ["sweep-cost", "graph.json", "--factors", "x"],
], ids=["dest-per-stage", "factors"])
def test_cli_malformed_number_list_is_usage_error(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli([*argv, "--out-dir", tmp_path / "x"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["gen-graph", "--nodes", 5, "--stages", 1],
    ["solve-multi", "graph.json"],
    ["best-response", "graph.json", "--side", "adversary", "--strategy", "d.json"],
    ["simulate", "graph.json", "--defender", "d.json", "--adversary", "a.json",
     "--n-trials", 10],
    ["sweep-cost", "graph.json"],
], ids=lambda argv: argv[0])
def test_cli_negative_seed_is_usage_error(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli([*argv, "--seed", -1, "--out-dir", tmp_path / "x"])
    assert exc.value.code == 2
    assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


# the graph_file graph has 8 nodes and traffic 1/8 at each
OVERFLOW_MESSAGE = (
    "the largest total defense cost is not a finite number: c1={cost} and c2={cost} over "
    "traffic summing to 1.0, plus 8 rule costs gamma (down to {cost}) at each of 8 nodes"
)


@pytest.mark.parametrize("command, options, message", [
    ("solve-multi", ["--eta", "inf"], "eta must be finite and > 0, got inf"),
    ("solve-multi", ["--eta", "nan"], "eta must be finite and > 0, got nan"),
    ("solve-multi", ["--eps", "nan"], "eps must be finite and > 0, got nan"),
    ("sweep-cost", ["--factors", "inf"], "cost scale factor must be finite and > 0, got inf"),
    ("sweep-cost", ["--factors", "1e308"], "c1 must be finite, got -inf"),
    # finite scaled costs whose total over every cell is not
    ("sweep-cost", ["--factors", "1e306"], OVERFLOW_MESSAGE.format(cost="-5e+307")),
    ("load-params", None, "c2 must be finite, got -inf"),
], ids=["eta-inf", "eta-nan", "eps-nan", "factor-inf", "factor-overflow", "total-cost-overflow",
        "params-file"])
def test_cli_non_finite_parameters_fail_with_stage(tmp_path, graph_file, capsys, command,
                                                   options, message):
    subcommand = command
    if options is None:
        # Python's json module reads the non-standard token -Infinity
        params_path = tmp_path / "params.json"
        params_path.write_text(json.dumps(GOOD_PARAMS).replace('"c2": -1', '"c2": -Infinity'))
        subcommand, options = "solve-multi", ["--params", params_path]
    code = run_cli([subcommand, graph_file, *options, "--max-iters", 5,
                    "--out-dir", tmp_path / "p"])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error [{command}] {message}\n"


def strategy_files(tmp_path, graph_file):
    """A defender file that arms every cell and a uniform adversary file."""
    graph = ifg.load(graph_file)
    game.save_defender(game.DefenderStrategy.full(graph, 1.0), tmp_path / "defender.json")
    game.save_adversary(game.AdversaryStrategy.uniform(graph), tmp_path / "adversary.json")
    return ["--defender", tmp_path / "defender.json", "--adversary", tmp_path / "adversary.json"]


def test_cli_simulate_rejects_a_total_defense_cost_beyond_floats(tmp_path, graph_file, capsys):
    # each cost is finite, but the dense defender file prices all 8 x 10 cells
    params = tmp_path / "params.json"
    params.write_text(json.dumps({**GOOD_PARAMS, "c1": -1e307, "c2": -1e307, "gamma": -1e307}))
    code = run_cli(["simulate", graph_file, "--params", params,
                    *strategy_files(tmp_path, graph_file), "--n-trials", 100,
                    "--out-dir", tmp_path / "sim"])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error [simulate] {OVERFLOW_MESSAGE.format(cost='-1e+307')}\n"


def test_cli_simulate_out_of_memory_fails_with_stage(tmp_path, graph_file, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB for an array")

    monkeypatch.setattr(game, "evaluate_monte_carlo", exhausted)
    code = run_cli(["simulate", graph_file, *strategy_files(tmp_path, graph_file),
                    "--n-trials", 100_000_000_000, "--out-dir", tmp_path / "sim"])
    assert code == 1
    assert capsys.readouterr().err == (
        "error [simulate] Unable to allocate 745. GiB for an array\n")


def test_cli_missing_graph_file_fails_with_stage(tmp_path, capsys):
    code = run_cli(["solve-multi", tmp_path / "missing.json", "--out-dir", tmp_path / "x"])
    assert code == 1
    assert "load-graph" in capsys.readouterr().err


def test_cli_sweep_cost_rows_sorted(tmp_path, graph_file):
    out = tmp_path / "sweep"
    code = run_cli(["sweep-cost", graph_file, "--factors", "1,0.1",
                    "--max-iters", 150, "--eta", 0.02, "--sim-trials", 1000,
                    "--out-dir", out])
    assert code == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0] == "factor,u_d_mean,u_a_mean,u_d_stderr,u_a_stderr"
    factors = [float(r.split(",")[0]) for r in rows[1:]]
    assert factors == sorted(factors) == [0.1, 1.0]


def test_cli_reruns_are_byte_identical(tmp_path, graph_file):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        code = run_cli(["solve-multi", graph_file, "--max-iters", 120, "--seed", 4,
                        "--out-dir", out])
        assert code == 0
    for name in ("trace.csv", "defender.json", "adversary.json", "summary.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    # manifests differ only if the resolved config differs; here they match too
    assert (out_a / "manifest.json").read_bytes() == (out_b / "manifest.json").read_bytes()


def test_cli_output_dir_from_environment(tmp_path, graph_file, monkeypatch):
    target = tmp_path / "env_out"
    monkeypatch.setenv("DIFTGAME_OUTPUT_DIR", str(target))
    code = run_cli(["gen-graph", "--nodes", 5, "--stages", 1, "--dest-per-stage", "1",
                    "--entries", 1, "--density", 0.3, "--seed", 2])
    assert code == 0
    assert (target / "graph.json").exists()


def test_cli_params_file_override(tmp_path, graph_file):
    params_path = tmp_path / "params.json"
    params_path.write_text(json.dumps(GOOD_PARAMS))
    out = tmp_path / "p"
    code = run_cli(["solve-multi", graph_file, "--params", params_path,
                    "--max-iters", 50, "--out-dir", out])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["params"]["alpha_a"] == -100
    assert manifest["config"]["params"]["gamma"] == [-2.0] * 8


GOOD_PARAMS = {
    "alpha_a": -100, "beta_a": [10, 20], "alpha_d": 100,
    "beta_d": [-10, -20], "c1": -1, "c2": -1, "gamma": -2,
}


@pytest.mark.parametrize("text, field", [
    (json.dumps({k: v for k, v in GOOD_PARAMS.items() if k != "beta_a"}), "beta_a"),
    ('{"alpha_a": -100,', None),
    (json.dumps({**GOOD_PARAMS, "c1": "cheap"}), "c1"),
    (json.dumps({**GOOD_PARAMS, "alpha_d": True}), "alpha_d"),
    (json.dumps({**GOOD_PARAMS, "c2": -10 ** 400}), "c2"),
], ids=["missing-field", "malformed-json", "non-numeric", "boolean", "beyond-float"])
def test_cli_bad_params_file_fails_with_stage(tmp_path, graph_file, capsys, text, field):
    params_path = tmp_path / "params.json"
    params_path.write_text(text)
    code = run_cli(["solve-multi", graph_file, "--params", params_path,
                    "--max-iters", 5, "--out-dir", tmp_path / "p"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error [load-params]")
    assert f"path={params_path}" in err
    if field is not None:
        assert f"field={field!r}" in err


def _break_graph(raw, case):
    if case == "edges":
        raw["edges"][0] = ["a", 2]
    elif case == "float-edge-end":
        u, v = raw["edges"][0]
        raw["edges"][0] = [u + 0.9, v]
    elif case == "nodes.id":
        raw["nodes"][0]["id"] = "one"
    elif case == "boolean-entry":
        raw["vulnerable"] = [True]
    else:
        raw["rule_relevance"]["1"] = ["x"]


@pytest.mark.parametrize("case, field", [
    ("edges", "edges"),
    ("float-edge-end", "edges"),
    ("nodes.id", "nodes.id"),
    ("boolean-entry", "vulnerable"),
    ("rule_relevance", "rule_relevance"),
], ids=["edges", "float-edge-end", "nodes.id", "boolean-entry", "rule_relevance"])
def test_cli_non_integer_graph_entry_fails_with_stage(tmp_path, graph_file, capsys, case, field):
    raw = json.loads(graph_file.read_text())
    _break_graph(raw, case)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    code = run_cli(["solve-single", bad, "--out-dir", tmp_path / "x"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error [load-graph]")
    assert f"field={field!r}" in err


@pytest.mark.parametrize("side, field, bad", [
    ("adversary", "probs", "x"),
    ("adversary", "probs", "0.5"),
    ("defender", "moves", {"x": 0.0}),
    ("defender", "moves", {"drop": True}),
], ids=["adversary-probs", "string-probability", "defender-moves", "boolean-probability"])
def test_cli_non_numeric_strategy_entry_fails_with_stage(tmp_path, graph_file, capsys, side,
                                                         field, bad):
    graph = ifg.load(graph_file)
    strategy = tmp_path / "strategy.json"
    if field == "probs":
        game.save_defender(game.DefenderStrategy.zeros(graph), strategy)
        raw = json.loads(strategy.read_text())
        raw["probs"][1][0] = bad
    else:
        game.save_adversary(game.AdversaryStrategy.uniform(graph), strategy)
        raw = json.loads(strategy.read_text())
        raw["moves"]["0"]["1"] = bad
    strategy.write_text(json.dumps(raw))
    code = run_cli(["best-response", graph_file, "--side", side, "--strategy", strategy,
                    "--out-dir", tmp_path / "x"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error [load-strategy]")
    assert f"field={field!r}" in err


@pytest.mark.parametrize("command", ["simulate", "best-response"])
def test_cli_defender_file_for_another_graph_fails_with_stage(tmp_path, capsys, command):
    small, large = (generate.gen_graph(n, 2, (1, 1), 1, 0.2, seed=4) for n in (10, 12))
    graph, defender, adversary = tmp_path / "g12.json", tmp_path / "d10.json", tmp_path / "a12.json"
    ifg.save(large, graph)
    game.save_defender(game.DefenderStrategy.full(small, 0.5), defender)
    game.save_adversary(game.AdversaryStrategy.uniform(large), adversary)
    if command == "simulate":
        argv = ["simulate", graph, "--defender", defender, "--adversary", adversary,
                "--n-trials", 100]
    else:
        argv = ["best-response", graph, "--side", "adversary", "--strategy", defender]
    code = run_cli([*argv, "--out-dir", tmp_path / "x"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error [{command}]")
    assert "10 nodes" in err and "has 12" in err


@pytest.mark.parametrize("argv", [
    ["solve-single"],
    ["solve-multi", "--max-iters", 5],
    ["sweep-cost", "--max-iters", 5, "--sim-trials", 10],
    ["simulate", "--defender", "defender.json", "--adversary", "adversary.json", "--n-trials", 10],
    ["best-response", "--side", "adversary", "--strategy", "defender.json"],
    ["best-response", "--side", "defender", "--strategy", "adversary.json"],
], ids=["solve-single", "solve-multi", "sweep-cost", "simulate", "best-response-adversary",
        "best-response-defender"])
def test_cli_stageless_graph_fails_graph_validation(tmp_path, capsys, argv):
    g = ifg.make_graph(4, [(1, 2), (2, 3), (3, 4)], [], [1])
    ifg.save(g, tmp_path / "graph.json")
    game.save_defender(game.DefenderStrategy.zeros(g), tmp_path / "defender.json")
    game.save_adversary(game.AdversaryStrategy({}), tmp_path / "adversary.json")
    argv = [tmp_path / a if str(a).endswith(".json") else a for a in argv]
    code = run_cli([argv[0], tmp_path / "graph.json", *argv[1:], "--out-dir", tmp_path / "x"])
    assert code == 1
    assert capsys.readouterr().err == "error [validate-graph] no-stages: the graph has no stages\n"


def test_cli_checks_an_adversary_file_once(tmp_path, graph_file, monkeypatch):
    files = strategy_files(tmp_path, graph_file)
    calls = []
    check = game.AdversaryStrategy.validate

    def counted(self, graph):
        calls.append(graph.n)
        return check(self, graph)

    monkeypatch.setattr(game.AdversaryStrategy, "validate", counted)
    assert run_cli(["simulate", graph_file, *files, "--n-trials", 100,
                    "--out-dir", tmp_path / "sim"]) == 0
    assert calls == [8]
    calls.clear()
    assert run_cli(["best-response", graph_file, "--side", "defender",
                    "--strategy", tmp_path / "adversary.json", "--out-dir", tmp_path / "brd"]) == 0
    assert calls == [8]


@pytest.mark.parametrize("command", ["simulate", "best-response"])
def test_cli_off_edge_adversary_fails_in_the_command_stage(tmp_path, capsys, command):
    # node 1 in stage 1 moves to 3, which is not its neighbor; the file is
    # checked where the command compiles it, under the command's own label
    g = ifg.make_graph(4, [(1, 2), (2, 3), (3, 4)], [[2], [4]], [1])
    moves = {**game.AdversaryStrategy.uniform(g).moves, (1, 1): {3: 0.5, DROP: 0.5}}
    graph, defender, adversary = tmp_path / "graph.json", tmp_path / "d.json", tmp_path / "a.json"
    ifg.save(g, graph)
    game.save_defender(game.DefenderStrategy.zeros(g), defender)
    game.save_adversary(game.AdversaryStrategy(moves), adversary)
    if command == "simulate":
        argv = ["simulate", graph, "--defender", defender, "--adversary", adversary,
                "--n-trials", 100]
    else:
        argv = ["best-response", graph, "--side", "defender", "--strategy", adversary]
    code = run_cli([*argv, "--out-dir", tmp_path / "x"])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error [{command}] state (1, 1) moves to 3, not a neighbor of 1\n")
    assert list((tmp_path / "x").iterdir()) == []


def test_cli_out_dir_naming_a_file_fails_with_stage(tmp_path, capsys):
    not_a_dir = tmp_path / "taken"
    not_a_dir.write_text("")
    code = run_cli(["gen-graph", "--nodes", 5, "--stages", 1, "--entries", 1,
                    "--dest-per-stage", "1", "--out-dir", not_a_dir])
    assert code == 1
    assert capsys.readouterr().err.startswith("error [write]")


@pytest.mark.parametrize("command", ["gen-graph", "solve-single"])
def test_cli_result_path_naming_a_directory_fails_with_stage(tmp_path, capsys, command):
    out = tmp_path / "out"
    if command == "gen-graph":
        (out / "g.json").mkdir(parents=True)
        argv = ["gen-graph", "--nodes", 5, "--stages", 1, "--dest-per-stage", "1", "--name", "g.json"]
    else:
        assert run_cli(["gen-graph", "--nodes", 7, "--stages", 1, "--seed", 9, "--out-dir", tmp_path]) == 0
        (out / "defender.json").mkdir(parents=True)
        argv = ["solve-single", tmp_path / "graph.json"]
    capsys.readouterr()
    assert run_cli([*argv, "--out-dir", out]) == 1
    assert capsys.readouterr().err.startswith("error [write]")


def test_cli_short_writes_still_write_every_byte(tmp_path, monkeypatch):
    gen = tmp_path / "gen"
    assert run_cli(["gen-graph", "--nodes", 12, "--stages", 1, "--dest-per-stage", 2,
                    "--entries", 2, "--density", 0.15, "--seed", 9, "--out-dir", gen]) == 0
    argv = ["solve-single", gen / "graph.json"]
    assert run_cli([*argv, "--out-dir", tmp_path / "whole"]) == 0
    writev, calls = os.writev, []

    def short_writev(fd, buffers):
        """Write about half of the first buffer only."""
        first = bytes(buffers[0])
        calls.append(len(buffers))
        return writev(fd, [first[:len(first) // 2 + 1]])

    monkeypatch.setattr(os, "writev", short_writev)
    assert run_cli([*argv, "--out-dir", tmp_path / "short"]) == 0
    assert calls and max(calls) > 1  # some call was offered several buffers and wrote part of one
    for name in ("defender.json", "adversary_mixture.json", "manifest.json"):
        whole = (tmp_path / "whole" / name).read_bytes()
        assert whole and (tmp_path / "short" / name).read_bytes() == whole


def test_cli_parser_reuse_carries_no_option_values(tmp_path):
    graph = tmp_path / "calls" / "0" / "graph.json"
    strategies = tmp_path / "strategies"
    calls = [
        ["gen-graph", "--nodes", 9, "--stages", 2, "--dest-per-stage", "1,1", "--seed", 4],
        ["gen-graph", "--nodes", 9, "--stages", 1],
        ["gen-graph", "--nodes", 9, "--stages", 1, "--density", "x"],
        ["gen-graph", "--nodes", 7, "--stages", 1, "--entries", 2],
        ["simulate", graph, "--defender", strategies / "defender.json",
         "--adversary", strategies / "adversary.json", "--n-trials", 50, "--seed", 3],
        ["simulate", graph, "--defender", strategies / "defender.json",
         "--adversary", strategies / "adversary.json", "--n-trials", 0],
        ["simulate", graph, "--defender", strategies / "defender.json",
         "--adversary", strategies / "adversary.json", "--n-trials", 20],
    ]

    def run_all(fresh):
        results = []
        for i, argv in enumerate(calls):
            if fresh:
                cli._parser.cache_clear()
            out = tmp_path / "calls" / str(i)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = run_cli([*argv, "--out-dir", out])
                except SystemExit as exc:  # a usage error
                    code = exc.code
            files = {p.name: p.read_bytes() for p in sorted(out.glob("*"))} if out.is_dir() else {}
            results.append((code, stdout.getvalue(), stderr.getvalue(), files))
            if i == 0:
                g = ifg.load(graph)
                strategies.mkdir(exist_ok=True)
                game.save_defender(game.DefenderStrategy.full(g, 0.3), strategies / "defender.json")
                game.save_adversary(game.AdversaryStrategy.uniform(g), strategies / "adversary.json")
        shutil.rmtree(tmp_path / "calls")
        return results

    cli._parser.cache_clear()
    reused = run_all(fresh=False)
    fresh = run_all(fresh=True)
    assert [r[0] for r in reused] == [0, 0, 2, 0, 0, 2, 0]
    assert reused == fresh


def test_cli_monte_carlo_outputs_are_pinned(tmp_path):
    # SHA-256 of report.csv and sweep.csv as written by commit 15644bc, the
    # last one whose Monte Carlo step loop searched each state's bounds in a
    # per-state Python loop; the indexed-search kernel must give the same bytes
    gen = tmp_path / "gen"
    assert run_cli(["gen-graph", "--nodes", 16, "--stages", 2, "--dest-per-stage", "1,1",
                    "--entries", 3, "--density", 0.15, "--seed", 4, "--out-dir", gen]) == 0
    graph_file = gen / "graph.json"
    graph = ifg.load(graph_file)
    rng = np.random.default_rng(17)
    game.save_defender(game.DefenderStrategy.random(graph, rng), tmp_path / "defender.json")
    game.save_adversary(game.AdversaryStrategy.random(graph, rng), tmp_path / "adversary.json")
    assert run_cli(["simulate", graph_file, "--defender", tmp_path / "defender.json",
                    "--adversary", tmp_path / "adversary.json", "--n-trials", 5000,
                    "--seed", 9, "--out-dir", tmp_path / "sim"]) == 0
    assert run_cli(["sweep-cost", graph_file, "--factors", "3,6", "--max-iters", 100,
                    "--eta", 0.02, "--sim-trials", 3000, "--seed", 1,
                    "--out-dir", tmp_path / "sweep"]) == 0
    digests = {name: hashlib.sha256((tmp_path / sub / name).read_bytes()).hexdigest()
               for sub, name in (("sim", "report.csv"), ("sweep", "sweep.csv"))}
    assert digests == {
        "report.csv": "5e7f589d88d12fe1d068978c0c57cca81c44f750eae7adfbf4c003fd5d61d2d0",
        "sweep.csv": "695b032057873f7457ff8289210bee9a37eec633fc4b8981ac0fbcf23bd07667",
    }


# SHA-256 of the files written by commit 400c92f, whose gen_graph built each
# graph twice and re-checked staged reachability in a retry loop; the
# one-pass generator must give the same bytes
GENERATOR_PINS = {
    "four_stage": (
        ["--nodes", 30, "--stages", 4, "--dest-per-stage", "2", "--entries", 1,
         "--density", 0.08, "--seed", 12],
        {
            "graph.json": "6bdb39ffd10ff1c889002eec87f5a91fda355182a009f4bc0d1b1f7087884bc1",
            "graph.dot": "bde847fbf6d638ab8575edcf956bb84af047d326bc0b1ec81346db2d2397e60e",
            "response.json": "d252eb63664b2d9a99ab194173ba39589b68b077520c68caecc373bb7ae93b22",
        },
    ),
    "two_stage": (
        ["--nodes", 16, "--stages", 2, "--dest-per-stage", "1,2", "--entries", 3,
         "--density", 0.15, "--seed", 4],
        {
            "graph.json": "5ce3c776f2041d574931c02912ce4d463d87ba58d9ded2d18a6d20ad02754b9a",
            "graph.dot": "667d687beab4ebd680a1dec8fed80de8d5e004c2fca69677a7544ab7fac09127",
            "response.json": "c34c1a6561b2825347e83c3c209f550c853093db8f1ec9ae5b093da70b813077",
        },
    ),
    "one_stage_1000": (
        ["--nodes", 1000, "--stages", 1, "--dest-per-stage", "2", "--entries", 3,
         "--density", 0.005, "--seed", 1],
        {
            "graph.json": "aee6515abe3429363dd8e46d672a8d99312ca6b022ccf01bc09caf1b6659586c",
            "graph.dot": "70ad03fd05ee2c8453c3eae8fa87984232ec7ef958bc529cf049ee053f8ba071",
            "defender.json": "5003d38ef1b0b4effaf399d4041bdd25027d50631a3f594058b3abe74a579abe",
            "adversary_mixture.json": "bb95dae3efbf9722b3ba578c8b23c5a4ac47e8c56718576bd07ba2e6ac18198b",
            "response.json": "689e98026f7bd7c886889d09af895704662a5008be492bc4ae7023de676043bc",
        },
    ),
}


@pytest.mark.parametrize("shape", sorted(GENERATOR_PINS))
def test_cli_generator_outputs_are_pinned(tmp_path, shape):
    gen_args, expected = GENERATOR_PINS[shape]
    gen = tmp_path / "gen"
    assert run_cli(["gen-graph", *gen_args, "--out-dir", gen, "--dot", "graph.dot"]) == 0
    graph_file = gen / "graph.json"
    files = {"graph.json": graph_file, "graph.dot": gen / "graph.dot"}
    graph = ifg.load(graph_file)
    if graph.n_stages == 1:
        assert run_cli(["solve-single", graph_file, "--out-dir", tmp_path / "single"]) == 0
        defender = tmp_path / "single" / "defender.json"
        files["defender.json"] = defender
        files["adversary_mixture.json"] = tmp_path / "single" / "adversary_mixture.json"
    else:
        defender = tmp_path / "defender.json"
        game.save_defender(game.DefenderStrategy.random(graph, np.random.default_rng(17)),
                           defender)
    assert run_cli(["best-response", graph_file, "--side", "adversary",
                    "--strategy", defender, "--out-dir", tmp_path / "bra"]) == 0
    files["response.json"] = tmp_path / "bra" / "response.json"
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest()
               for name, path in files.items()}
    assert digests == expected


def test_cli_learner_and_defender_response_outputs_are_pinned(tmp_path):
    # SHA-256 of the files and value lines written by commit fc9a4f9, whose
    # learner roster, learner costs and defender ground set each worked out
    # the defender's (node, column) layout on their own; reading it from
    # InformationFlowGraph.defender_cells must give the same bytes
    gen_args, _ = GENERATOR_PINS["four_stage"]
    gen = tmp_path / "gen"
    assert run_cli(["gen-graph", *gen_args, "--out-dir", gen]) == 0
    graph_file = gen / "graph.json"
    multi = tmp_path / "multi"
    assert run_cli(["solve-multi", graph_file, "--max-iters", 300, "--out-dir", multi]) == 0
    digests = {name: hashlib.sha256((multi / name).read_bytes()).hexdigest()
               for name in ("trace.csv", "defender.json", "adversary.json", "summary.json")}

    graph = ifg.load(graph_file)
    adversary = tmp_path / "adversary.json"
    game.save_adversary(game.AdversaryStrategy.random(graph, np.random.default_rng(5)), adversary)
    for levels in (1, 2):
        for variant in ("randomized", "deterministic"):
            out = tmp_path / f"brd-{levels}-{variant}"
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                assert run_cli(["best-response", graph_file, "--side", "defender",
                                "--strategy", adversary, "--levels", levels,
                                "--variant", variant, "--out-dir", out]) == 0
            value = next(line for line in stdout.getvalue().splitlines()
                         if line.startswith("value:"))
            digests[f"{levels}-{variant}"] = (
                hashlib.sha256((out / "response.json").read_bytes()).hexdigest(), value)
    assert digests == LEARNER_RESPONSE_PINS


LEARNER_RESPONSE_PINS = {
    "trace.csv": "de04aa9f122c2df0debf631435cd7744d8114b35f927a3a32dd7a5c4d69d7729",
    "defender.json": "9628ce76bcbd123ecfe13fc2a2f1aa4cc3b9b326ebc5534ac7816610a6648652",
    "adversary.json": "b0ddb58637eb9842dd1575db3a883493730a876479c0ba062f08e1fbe86a9488",
    "summary.json": "b809d0bafb92c3dcacd3f8e6a16b7ac842783790a14945eea5939a6f82cd66a1",
    "1-randomized": (
        "a72bd6acef425d3700ba5f3102ec9023c5c4c49305e3fa800911410c896c2891",
        "value: 1398.4537174822087 (3 of 88 ground elements, 178 evaluations)",
    ),
    "1-deterministic": (
        "a72bd6acef425d3700ba5f3102ec9023c5c4c49305e3fa800911410c896c2891",
        "value: 1398.4537174822087 (3 of 88 ground elements, 178 evaluations)",
    ),
    "2-randomized": (
        "a72bd6acef425d3700ba5f3102ec9023c5c4c49305e3fa800911410c896c2891",
        "value: 1398.4537174822087 (6 of 176 ground elements, 354 evaluations)",
    ),
    "2-deterministic": (
        "a72bd6acef425d3700ba5f3102ec9023c5c4c49305e3fa800911410c896c2891",
        "value: 1398.4537174822087 (6 of 176 ground elements, 354 evaluations)",
    ),
}


def run_cli_captured(args):
    """(exit code, stdout, stderr) of one ``cli.main`` call."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run_cli(args)
    return code, stdout.getvalue(), stderr.getvalue()


def sha256_text(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def interior_single_stage_graph():
    """A one-stage generated graph with U(10, 40) traffic whose matrix game is interior."""
    graph = generate.gen_graph(60, 1, 2, 3, 0.05, seed=3)
    traffic = np.random.default_rng(3).uniform(10, 40, size=graph.n)
    return dataclasses.replace(graph, traffic=tuple(traffic.tolist()), fractional_traffic=False)


def grid30_single_stage_graph():
    """A seeded 30x30 grid with U(10, 40) traffic inside and 100 on both end
    columns; its matrix game is interior with 30 cut nodes."""
    return grid_graph(30, np.random.default_rng(30), 10.0, 40.0, ends=100.0)


def not_detected_single_stage_graph():
    """A one-stage generated graph with U(10, 40) traffic whose cut [9, 43]
    is too costly to arm: the defender plays the Not-detected row."""
    graph = generate.gen_graph(60, 1, 2, 3, 0.05, seed=0)
    traffic = np.random.default_rng(0).uniform(10.0, 40.0, graph.n)
    return dataclasses.replace(graph, traffic=tuple(traffic.tolist()), fractional_traffic=False)


# SHA-256 of what commit d14d4db printed and wrote, before the matrix game
# priced cells through the per-cell price vector instead of a dense matrix;
# the adversary_mixture.json digests and the grid30 case are those of commit
# f4d0853, whose representative paths ran two searches per cut node; the
# not_detected and clamp_fallback cases are those of commit 0d399b5, whose
# boundary rows were built apart from the interior outcome
SINGLE_STAGE_PINS = {
    "one_stage_1000": {
        "stdout": "703f4f3bb9e1112200634218f4cdc7856ae653ef5c3b544b703dba3ff70523ad",
        "stderr": "6d8a49ea98133c1b2bda95c03cf531cfa4cd7f0241269186f5b5b599729c7fb4",
    },
    "interior": {
        "stdout": "79b95eff49036dbcf93dbe3b86af82d1255e99a168fc3b601da47da6815f0b74",
        "stderr": "38fadfc35aa31e1e6be4e6a8c25f987b74390fecc89fa2a85dbd2b4ca0fb14db",
        "defender.json": "381a8eca25899ad1738a2f650a4cd7ecf2b88a116cd64177c7cd86ee1f39496b",
        "adversary_mixture.json":
            "18457bb719eb2624eb8310d8ac8b4949a5ead48940dbaadcb141f6b1e69b6983",
    },
    "grid30": {
        "stdout": "49a59462ce394a6e7bc425298c9120bdcb2591da2f9757decfb41bdef9f43e09",
        "stderr": "59778624edaf824ef3f2278e3214e394584789cf7d66651e3306e41b8adc2c2a",
        "defender.json": "fde0612dd597cac14d73c00a9f292345ed1567e760bc12d8dd8728824c52cb6c",
        "adversary_mixture.json":
            "5b46fb9e7d5352fa5e3c60453e25b04e5d7ad087b22355f485083aa1c3c5f740",
    },
    "not_detected": {
        "stdout": "f85a9ecb5c97eb1ebe539a6e50d13f20d6f8caa43186fae21840f84219be9b97",
        "stderr": "4143385b96a783edb1f2b01e9b60c72d78a6714333de9962a388d0f3d9bfb2d2",
        "defender.json": "bf52b9d03e8acd99cd6a61aaeb401cd9f7b53e660bb7fbed80f61893988b9b01",
        "adversary_mixture.json":
            "3c7156d4029d0d5b1b2c7e0dcc68d019a86305f52b28fba7b8843b8e5fcfec1a",
    },
    "clamp_fallback": {
        "stdout": "efdb4e06b04c72a1f0c45f26678f65a340cf8e6c60626dcf6bfbf86dc370a69f",
        "stderr": "ec493ea0ff0a5ab42db2274637e05ae5d3a14c8674ff1101a4fec6106b3b5bb0",
        "defender.json": "2c118fa419a137850cc2b96e5c11997314a443f9cc66db6463988e425737e951",
        "adversary_mixture.json":
            "8450453a57b69052c8bb3d694267ab15b30a0d39917d225f7992d9a348af63e0",
    },
}


# the two-node instance of test_single_stage.py's
# test_clamp_that_leaves_one_free_component_falls_back_to_the_boundary
CLAMP_FALLBACK_GRAPH = {"n": 2, "edges": [], "stages": [[1, 2]], "vulnerable": [1, 2],
                        "traffic": [1.0, 2.0], "rule_relevance": [(1,), (2,)]}
CLAMP_FALLBACK_PARAMS = {"alpha_a": -10.0, "beta_a": [5.0], "alpha_d": 1.0, "beta_d": [-7.0],
                         "c1": -2.0, "c2": -2.0, "gamma": [-0.01, -12.0]}


@pytest.mark.parametrize("case", sorted(SINGLE_STAGE_PINS))
def test_cli_solve_single_stdout_is_pinned(tmp_path, case):
    graph_file = tmp_path / "graph.json"
    extra = []
    if case == "interior":
        ifg.save(interior_single_stage_graph(), graph_file)
    elif case == "grid30":
        ifg.save(grid30_single_stage_graph(), graph_file)
    elif case == "not_detected":
        ifg.save(not_detected_single_stage_graph(), graph_file)
    elif case == "clamp_fallback":
        ifg.save(ifg.make_graph(**CLAMP_FALLBACK_GRAPH), graph_file)
        (tmp_path / "params.json").write_text(json.dumps(CLAMP_FALLBACK_PARAMS))
        extra = ["--params", tmp_path / "params.json"]
    else:
        gen_args, _ = GENERATOR_PINS[case]
        assert run_cli(["gen-graph", *gen_args, "--out-dir", tmp_path]) == 0
    code, stdout, stderr = run_cli_captured(["solve-single", graph_file, *extra,
                                             "--out-dir", tmp_path / "single"])
    assert code == 0
    assert stdout.splitlines()[0] == ("diagnostics: interior" if case in ("interior", "grid30")
                                      else "diagnostics: boundary")
    digests = {"stdout": sha256_text(stdout), "stderr": sha256_text(stderr)}
    for name in sorted(set(SINGLE_STAGE_PINS[case]) - {"stdout", "stderr"}):
        digests[name] = hashlib.sha256((tmp_path / "single" / name).read_bytes()).hexdigest()
    assert digests == SINGLE_STAGE_PINS[case]


FULL_TABLE_GRAPH = {
    "nodes": [{"id": i, "label": f"p{i}", "traffic": 0.05 * i} for i in range(1, 11)],
    "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 7], [7, 8], [8, 9], [9, 10],
              [10, 1], [2, 5], [3, 1], [5, 2], [6, 9], [7, 10], [8, 6]],
    "stages": [[5], [9, 10]],
    "vulnerable": [1, 2],
}


def test_cli_simulate_without_rule_relevance_is_pinned(tmp_path):
    # a graph file without "rule_relevance" makes every rule relevant at
    # every node, so the defender cell table holds all n(n+2) cells
    graph_file = tmp_path / "graph.json"
    graph_file.write_text(json.dumps(FULL_TABLE_GRAPH))
    graph = ifg.load(graph_file)
    assert graph.defender_cells[0].size == graph.n * (graph.n + 2)
    rng = np.random.default_rng(23)
    game.save_defender(game.DefenderStrategy.random(graph, rng), tmp_path / "defender.json")
    game.save_adversary(game.AdversaryStrategy.random(graph, rng), tmp_path / "adversary.json")
    code, stdout, _ = run_cli_captured(["simulate", graph_file,
                                        "--defender", tmp_path / "defender.json",
                                        "--adversary", tmp_path / "adversary.json",
                                        "--n-trials", 4000, "--seed", 5,
                                        "--out-dir", tmp_path / "sim"])
    assert code == 0
    assert stdout == (tmp_path / "sim" / "report.csv").read_text()
    # SHA-256 of report.csv as written by commit d14d4db, whose detection
    # vector read the rule cells through a padded per-node column table
    assert sha256_text(stdout) == (
        "5b4d80fc6134ffe056a5c1ed6e7a9d6a473cca434154771d5c7c7f0cdacd63b4")


# a three-stage graph whose node 4 ends stages 1 and 2, so one arrival there
# crosses two stages; 1-2-3-1, 2-4-5-2 and 4-6-4 are cycles
OVERLAP_GRAPH = {
    "nodes": [{"id": i, "label": f"p{i}", "traffic": 0.1 * i} for i in range(1, 9)],
    "edges": [[1, 2], [2, 3], [3, 1], [2, 4], [4, 5], [5, 2], [3, 6], [6, 7], [7, 8],
              [5, 7], [4, 6], [6, 4]],
    "stages": [[4, 6], [4, 7], [8]],
    "vulnerable": [1],
    "rule_relevance": {"1": [1, 2, 3], "2": [2, 3, 5], "3": [1, 3, 4], "4": [4, 5, 6],
                       "5": [5, 7, 8], "6": [2, 6, 8], "7": [1, 7, 8], "8": [3, 8]},
}


def test_cli_overlapping_stages_outputs_are_pinned(tmp_path, monkeypatch):
    # SHA-256 of what commit bfa592c printed and wrote, before the forced
    # stage advance was read from one (node, stage) landing table; relative
    # paths keep the manifests free of the temporary directory
    monkeypatch.chdir(tmp_path)
    Path("graph.json").write_text(json.dumps(OVERLAP_GRAPH))
    graph = ifg.load("graph.json")
    assert graph.advance(4, 1) == 3
    rng = np.random.default_rng(31)
    game.save_defender(game.DefenderStrategy.random(graph, rng), "defender.json")
    game.save_adversary(game.AdversaryStrategy.random(graph, rng), "adversary.json")
    runs = {
        "multi": ["solve-multi", "graph.json", "--max-iters", 200],
        "bra": ["best-response", "graph.json", "--side", "adversary",
                "--strategy", "defender.json"],
        "brd": ["best-response", "graph.json", "--side", "defender",
                "--strategy", "adversary.json", "--levels", 2],
        "sim": ["simulate", "graph.json", "--defender", "defender.json",
                "--adversary", "adversary.json", "--n-trials", 4000, "--seed", 5],
    }
    digests = {}
    for out, argv in runs.items():
        code, stdout, stderr = run_cli_captured([*argv, "--out-dir", out])
        assert (code, stderr) == (0, "")
        digests[f"{out}:stdout"] = sha256_text(stdout)
        for path in sorted(Path(out).iterdir()):
            digests[f"{out}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == OVERLAP_PINS


OVERLAP_PINS = {
    "bra/manifest.json":
        "6ea89f0ac4809a7a865af7386a7944b02cfb51f08bdfb33d0628aa0a19e6d581",
    "bra/response.json":
        "ea8c257035e8a102190554d0d5552c5dfb309c86f5d137ed76da75b8818fdccf",
    "bra:stdout":
        "d26140fde0ddfe3e123f45b3f8f054cdb345c9c2ab893fce6a05ceb893db30d2",
    "brd/manifest.json":
        "4af1f4327447d24f7212a14860f3281ed740ad91d633301da3f1b90c8684faa1",
    "brd/response.json":
        "f26ffb6ea7d758beac87e064dcb294e13a9151a6bcb693ace5286f707d8bfec8",
    "brd:stdout":
        "715e74ec099c0016ebd3c93642eadc71dd091fd107f69bc89dcbdf027d0951c0",
    "multi/adversary.json":
        "503f8e2af3a342db7da1bab7b4adefeb60d39f303f810cb2ca5c66bb16a6c692",
    "multi/defender.json":
        "ca3f03a6490b5adcaa44e16c7e80e8da2ed9989ed851a23664e76ae12354fc4a",
    "multi/manifest.json":
        "4d23fa2fb6701f26ee5b94df512cb08b0bf507f1bc22947dc1f228c7f135ac4c",
    "multi/summary.json":
        "8c98a0bc07f2f54d5326fc0b009c5487d27a37c38278ada0f1036da6cdecaa0b",
    "multi/trace.csv":
        "1ebea9f27d5b6fd22d9ddca6b6eea62f6e04a00a30e3312d4a7ff202883549a6",
    "multi:stdout":
        "9c4e42f64d48af29df90dbf394570dc63ccd1d795d87c8d33958b2574e445c6f",
    "sim/manifest.json":
        "92e7ab27f63fa28f11cd367ab7e79433a96370157f6d601f727eb2a8d75f4d4d",
    "sim/report.csv":
        "4bab190ce2e02ba45d75778e50bfe318105027ed3d6ff9c2b2c7ccbfe552eae0",
    "sim:stdout":
        "4bab190ce2e02ba45d75778e50bfe318105027ed3d6ff9c2b2c7ccbfe552eae0",
}
