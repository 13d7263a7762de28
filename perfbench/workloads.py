"""The benchmark's workloads: seeded inputs, the subcommands of one pass, output checks.

Instances whose solver cost or outcome is chaotic in the generator seed are
pinned (see README.md); ``--seed`` drives the n=100 strategies, the grid and
chain traffic draws, the cross-check instance and the Monte Carlo seeds,
whose effect on cost averages out within one instance.
"""

from __future__ import annotations

import json
import math
import re
import zlib
from collections import deque
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from diftgame import game, ifg, learn
from diftgame.errors import TruncationError

from harness import OpResult, Runner, nodes_per_s, require


def gen_graph(runner: Runner, out: Path, name: str, nodes: int, stages: int, dests: int,
              entries: int, density: float, seed: int) -> Path:
    argv = ["gen-graph", "--nodes", str(nodes), "--stages", str(stages),
            "--dest-per-stage", str(dests), "--entries", str(entries),
            "--density", repr(density), "--seed", str(seed), "--name", name]
    runner.op("gen-graph:" + name, argv, out)
    return out / name


def _rng(seed: int, stream: str) -> np.random.Generator:
    """An independent generator per input, so adding an input never shifts another's draws."""
    return np.random.default_rng([seed, zlib.crc32(stream.encode())])


def _value(stdout: str) -> float:
    match = re.search(r"^value: (\S+)", stdout, re.M)
    require(match is not None, "no value line in the output")
    return float(match.group(1))


@contextmanager
def returned_values(module, attr: str):
    """Collect what ``module.attr`` returns while the block runs."""
    original = getattr(module, attr)
    results = []

    def recording(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    setattr(module, attr, recording)
    try:
        yield results
    finally:
        setattr(module, attr, original)


def _check_bounded_defender(path: Path) -> game.DefenderStrategy:
    with open(path, encoding="utf-8") as fh:
        probs = np.asarray(json.load(fh)["probs"], dtype=float)
    require(bool(np.all(np.isfinite(probs))), f"{path.name} holds non-finite probabilities")
    require(bool(np.all((probs >= 0.0) & (probs <= 1.0))), f"{path.name} has probabilities outside [0, 1]")
    strategy = game.load_strategy(path)
    require(isinstance(strategy, game.DefenderStrategy), f"{path.name} is not a defender strategy")
    return strategy


# ---------------------------------------------------------------------------
# multistage: the learner
# ---------------------------------------------------------------------------


class Multistage:
    """``solve-multi`` then ``sweep-cost`` on one pinned 4-stage graph."""

    name = "multistage"
    GRAPH = dict(nodes=30, stages=4, dests=2, entries=3, density=0.08, seed=1)
    FACTORS = "3,6"

    def __init__(self):
        self.result = None  # the first solve-multi result, kept for its swap regret

    def setup(self, runner: Runner, base: Path, seed: int) -> dict[str, Path]:
        return {"graph.json": gen_graph(runner, base, "graph.json", **self.GRAPH)}

    def run_pass(self, runner: Runner, inputs: dict[str, Path], out: Path, seed: int) -> list[OpResult]:
        graph_path = inputs["graph.json"]
        graph = ifg.load(graph_path)
        n = graph.n
        multi, sweep = out / "multi", out / "sweep"
        with returned_values(learn, "run") as results:
            ops = [runner.op("solve-multi", ["solve-multi", str(graph_path)], multi, n,
                             lambda stdout: self._check_multi(graph, multi))]
        if self.result is None and results:
            self.result = (results[0], graph)
        ops.append(runner.op("sweep-cost", ["sweep-cost", str(graph_path), "--factors", self.FACTORS],
                             sweep, n, lambda stdout: self._check_sweep(sweep)))
        return ops

    @staticmethod
    def _check_multi(graph, out: Path) -> None:
        _check_bounded_defender(out / "defender.json")
        adversary = game.load_strategy(out / "adversary.json")
        require(isinstance(adversary, game.AdversaryStrategy), "adversary.json is not an adversary strategy")
        adversary.validate(graph)
        with open(out / "summary.json", encoding="utf-8") as fh:
            summary = json.load(fh)
        require(summary["iterations"] >= 1 and math.isfinite(summary["final_gap"]), "bad summary.json")

    def _check_sweep(self, out: Path) -> None:
        lines = (out / "sweep.csv").read_text().splitlines()
        require(lines[0] == "factor,u_d_mean,u_a_mean,u_d_stderr,u_a_stderr", "unexpected sweep header")
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        require(all(math.isfinite(x) for row in rows for x in row), "non-finite sweep value")
        factors = [row[0] for row in rows]
        require(factors == sorted(float(f) for f in self.FACTORS.split(",")), f"sweep rows {factors}")

    def report(self, ops: dict[str, tuple[float, float]]) -> dict:
        out = {
            "solve_multi_s": (ops["solve-multi"][0], "s"),
            "sweep_cost_s": (ops["sweep-cost"][0], "s"),
        }
        if self.result is not None:
            result, graph = self.result
            params = game.default_params(graph)
            scale = params.alpha_d - min(params.beta_d)
            out["swap_regret"] = (learn.swap_regret(result, graph, params) / scale, "1")
        return out


# ---------------------------------------------------------------------------
# respond: best responses and long-walk simulation
# ---------------------------------------------------------------------------


def persistent_adversary(graph, rng: np.random.Generator, drop: float = 0.02) -> game.AdversaryStrategy:
    """Random moves that drop with probability ``drop`` at every decision state."""
    graph = ifg.ensure_augmented(graph)
    moves = {}
    for v, j in game.AdversaryStrategy.decision_states(graph):
        succ = graph.successors.get(v, ())
        if not succ:
            moves[(v, j)] = {game.DROP: 1.0}
            continue
        w = rng.dirichlet(np.ones(len(succ))) * (1.0 - drop)
        moves[(v, j)] = {**{a: float(p) for a, p in zip(succ, w)}, game.DROP: drop}
    return game.AdversaryStrategy(moves)


def dag_graph(n: int, rng: np.random.Generator) -> ifg.InformationFlowGraph:
    """Two-stage graph on a seeded DAG over 1..n, so every adversary walk is finite."""
    edges = [(u, u + 1) for u in range(1, n)]
    edges += [(u, v) for u in range(1, n + 1) for v in range(u + 2, n + 1) if rng.random() < 0.4]
    return ifg.make_graph(n, edges, [[n // 2 - 1, n // 2], [n - 1, n]], [1], rule_relevance=[(1,)] * n)


class Respond:
    """Adversary and defender best responses, then a long-walk ``simulate``."""

    name = "respond"
    SMALL = dict(nodes=30, stages=4, dests=2, entries=3, density=0.08, seed=2)
    LARGE = dict(nodes=100, stages=4, dests=2, entries=3, density=0.08, seed=2)
    # pinned like the graphs: the random adversary's drop masses set the Monte
    # Carlo walk length, which moved the n=30 best response's cost 2.7x by seed
    ADVERSARY30_SEED = 1
    CROSS_NODES = 12
    SIM_TRIALS = 150_000
    CHECK_TRIALS = 20_000
    CROSS_TRIALS = 100_000

    def setup(self, runner: Runner, base: Path, seed: int) -> dict[str, Path]:
        small = gen_graph(runner, base, "graph30.json", **self.SMALL)
        large = gen_graph(runner, base, "graph100.json", **self.LARGE)
        g_small, g_large = ifg.load(small), ifg.load(large)
        files = {"graph30.json": small, "graph100.json": large}

        def save(name, saver, strategy):
            saver(strategy, base / name)
            files[name] = base / name

        save("defender100.json", game.save_defender, game.DefenderStrategy.random(g_large, _rng(seed, "defender100")))
        save("random30.json", game.save_adversary,
             game.AdversaryStrategy.random(g_small, _rng(self.ADVERSARY30_SEED, "random30")))
        save("persistent100.json", game.save_adversary, persistent_adversary(g_large, _rng(seed, "persistent100")))
        g_cross = dag_graph(self.CROSS_NODES, _rng(seed, "graph12"))
        save("graph12.json", ifg.save, g_cross)
        save("defender12.json", game.save_defender, game.DefenderStrategy.random(g_cross, _rng(seed, "defender12")))
        save("random12.json", game.save_adversary, game.AdversaryStrategy.random(g_cross, _rng(seed, "random12")))
        return files

    def run_pass(self, runner: Runner, inputs: dict[str, Path], out: Path, seed: int) -> list[OpResult]:
        g30, g100 = ifg.load(inputs["graph30.json"]), ifg.load(inputs["graph100.json"])
        p30, p100 = game.default_params(g30), game.default_params(g100)
        defender = game.load_strategy(inputs["defender100.json"])
        random30 = game.load_strategy(inputs["random30.json"])
        br_adv, br30, br100, sim = out / "br-adv", out / "br-def30", out / "br-def100", out / "sim"
        ops = [
            runner.op("best-response:adversary:n100",
                      ["best-response", str(inputs["graph100.json"]), "--side", "adversary",
                       "--strategy", str(inputs["defender100.json"])], br_adv, g100.n,
                      lambda s: self._check_adversary_br(g100, p100, defender, s)),
            runner.op("best-response:defender:n30",
                      ["best-response", str(inputs["graph30.json"]), "--side", "defender",
                       "--strategy", str(inputs["random30.json"])], br30, g30.n,
                      lambda s: self._check_defender_br(g30, p30, random30, br30, s)),
            runner.op("best-response:defender:n100",
                      ["best-response", str(inputs["graph100.json"]), "--side", "defender",
                       "--strategy", str(br_adv / "response.json")], br100, g100.n,
                      lambda s: self._check_defender_br(
                          g100, p100, game.load_strategy(br_adv / "response.json"), br100, s)),
            runner.op("simulate:n100",
                      ["simulate", str(inputs["graph100.json"]), "--defender", str(inputs["defender100.json"]),
                       "--adversary", str(inputs["persistent100.json"]),
                       "--n-trials", str(self.SIM_TRIALS), "--seed", str(seed)], sim, g100.n,
                      lambda s: self._check_simulate(sim)),
        ]
        ops.append(runner.library("exact-vs-mc:n12", lambda: self._cross_check(inputs, seed)))
        return ops

    @staticmethod
    def _check_adversary_br(graph, params, defender, stdout: str) -> None:
        value = _value(stdout)
        stage = re.search(r"\(stage (\S+), dropped=(\w+)\)", stdout)
        path = re.search(r"^path: (\[.*\])$", stdout, re.M)
        require(stage is not None and path is not None, "no stage or path line in the output")
        walk = json.loads(path.group(1))
        if stage.group(2) == "True":
            require(walk == [ifg.SOURCE] and value == 0.0, "a dropped response must be the empty walk")
            return
        augmented = ifg.ensure_augmented(graph)
        require(walk[0] == ifg.SOURCE, "the walk does not start at the pseudo-source")
        for u, v in zip(walk, walk[1:]):
            require(v in augmented.successors.get(u, ()), f"step ({u}, {v}) is not a graph edge")
        j = int(stage.group(1))
        survival = (value - params.alpha_a) / (params.beta_a[j - 1] - params.alpha_a)
        d = defender.detection_vector(augmented)
        product = math.prod(1.0 - float(d[v]) for v in walk[1:])
        require(math.isclose(survival, product, rel_tol=1e-9, abs_tol=1e-12),
                f"reported survival {survival!r} differs from the recomputed product {product!r}")

    def _check_defender_br(self, graph, params, adversary, out: Path, stdout: str) -> None:
        """Exact agreement when the walks compile, else within 4 standard errors."""
        value = _value(stdout)
        strategy = _check_bounded_defender(out / "response.json")
        compiled = None
        if hasattr(game, "CompiledPaths"):
            try:
                compiled = game.CompiledPaths(graph, adversary)
            except TruncationError:
                pass
        if compiled is not None:
            u_d, _ = compiled.evaluate(params, strategy)
            # the greedy keeps its value as a running sum of marginal gains
            require(math.isclose(value, u_d, rel_tol=1e-12, abs_tol=1e-9),
                    f"reported value {value!r} but the compiled walks give {u_d!r}")
            return
        report = game.evaluate_monte_carlo(graph, params, strategy, adversary, self.CHECK_TRIALS, seed=7_919)
        tol = 4.0 * math.sqrt(2.0) * report.std_err_d  # two estimates with equal trial counts
        require(abs(value - report.u_d) <= tol,
                f"reported value {value!r} vs Monte Carlo {report.u_d!r} (tolerance {tol!r})")

    def _check_simulate(self, out: Path) -> None:
        header, row = (out / "report.csv").read_text().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        require(cells["method"] == "monte_carlo" and int(cells["n_trials"]) == self.SIM_TRIALS, "bad report row")
        numbers = [float(cells[k]) for k in cells if k not in ("method", "n_trials", "seed")]
        require(all(math.isfinite(x) for x in numbers), "non-finite simulate output")
        masses = [float(cells[k]) for k in cells if k.startswith(("p_t_", "p_r_")) or k == "truncated_mass"]
        require(all(0.0 <= x <= 1.0 for x in masses), "a probability mass lies outside [0, 1]")

    def _cross_check(self, inputs: dict[str, Path], seed: int) -> None:
        """Exact and Monte Carlo payoffs agree within 4 standard errors."""
        graph = ifg.load(inputs["graph12.json"])
        params = game.default_params(graph)
        defender = game.load_strategy(inputs["defender12.json"])
        adversary = game.load_strategy(inputs["random12.json"])
        exact = game.evaluate_exact(graph, params, defender, adversary)
        mc = game.evaluate_monte_carlo(graph, params, defender, adversary, self.CROSS_TRIALS, seed)
        for name, e, m, se in (("u_d", exact.u_d, mc.u_d, mc.std_err_d), ("u_a", exact.u_a, mc.u_a, mc.std_err_a)):
            require(abs(e - m) <= 4.0 * se, f"exact {name}={e!r} vs Monte Carlo {m!r} +- {se!r}")

    def report(self, ops: dict[str, tuple[float, float]]) -> dict:
        return {
            "best_response_s": (sum(t for label, (t, _) in ops.items() if label.startswith("best-response")), "s"),
            "simulate_trials_per_s": (self.SIM_TRIALS / ops["simulate:n100"][0], "trials/s"),
        }


# ---------------------------------------------------------------------------
# single-stage: min-cut ladder
# ---------------------------------------------------------------------------


def _traffic(rng: np.random.Generator, n: int) -> np.ndarray:
    # cut nodes with traffic above 21 cost more than the 2100 detection margin
    # of the stock parameters, so a cut mixing both kinds is interior
    return rng.uniform(10.0, 40.0, n)


def grid_graph(k: int, rng: np.random.Generator) -> ifg.InformationFlowGraph:
    """k x k grid, entries on the left column, destinations on the right, both expensive."""
    def nid(r, c):
        return r * k + c + 1

    edges = [
        (nid(r, c), nid(r + dr, c + dc))
        for r in range(k) for c in range(k)
        for dr, dc in ((0, 1), (0, -1), (1, 0), (-1, 0))
        if 0 <= r + dr < k and 0 <= c + dc < k
    ]
    entries = [nid(r, 0) for r in range(k)]
    dests = [nid(r, k - 1) for r in range(k)]
    traffic = _traffic(rng, k * k)
    traffic[np.array(entries + dests) - 1] = 100.0
    return ifg.make_graph(k * k, edges, [dests], entries, traffic=traffic.tolist(),
                          rule_relevance={}, fractional_traffic=False)


def chain_graph(n: int, rng: np.random.Generator) -> ifg.InformationFlowGraph:
    return ifg.make_graph(n, [(i, i + 1) for i in range(1, n)], [[n]], [1],
                          traffic=_traffic(rng, n).tolist(), rule_relevance={}, fractional_traffic=False)


def separates(graph, cut_nodes) -> bool:
    """True when no destination is reachable from an entry once the cut nodes are removed."""
    blocked = set(cut_nodes)
    seen = {e for e in graph.vulnerable if e not in blocked}
    queue = deque(seen)
    dests = set(graph.stages[0])
    while queue:
        u = queue.popleft()
        if u in dests:
            return False
        for w in graph.successors.get(u, ()):
            if w not in blocked and w not in seen:
                seen.add(w)
                queue.append(w)
    return True


class SingleStage:
    """``solve-single`` over a seeded ladder of one-stage graphs."""

    name = "single-stage"
    GRIDS = (30, 40)
    # pinned: whether this instance solves or raises DegenerateEquilibrium
    # depends on the draw (see README.md); seed 1 raises it on every pass
    RANDOM = dict(nodes=1000, stages=1, dests=2, entries=3, density=0.005, seed=1)
    CHAINS = (400, 1000)  # the recursive max-flow fails near 500 nodes

    def setup(self, runner: Runner, base: Path, seed: int) -> dict[str, Path]:
        files = {}
        for k in self.GRIDS:
            files[f"grid{k}.json"] = grid_graph(k, _rng(seed, f"grid{k}"))
        generated = gen_graph(runner, base, "gen1000.json", **self.RANDOM)
        g = ifg.load(generated)
        traffic = _traffic(_rng(self.RANDOM["seed"], "random1000"), g.n)
        files["random1000.json"] = replace(g, traffic=tuple(traffic.tolist()),
                                           fractional_traffic=False)
        for n in self.CHAINS:
            files[f"chain{n}.json"] = chain_graph(n, _rng(seed, f"chain{n}"))
        paths = {"gen1000.json": generated}
        for name, graph in files.items():
            ifg.save(graph, base / name)
            paths[name] = base / name
        return paths

    def run_pass(self, runner: Runner, inputs: dict[str, Path], out: Path, seed: int) -> list[OpResult]:
        ops = []
        for name, path in inputs.items():
            if name == "gen1000.json":
                continue
            graph = ifg.load(path)
            label = "solve-single:" + name.removesuffix(".json")
            target = out / label.split(":")[1]
            ops.append(runner.op(label, ["solve-single", str(path)], target, graph.n,
                                 lambda s, g=graph, t=target: self._check(g, t, s)))
        return ops

    @staticmethod
    def _check(graph, out: Path, stdout: str) -> None:
        cut = re.search(r"^cut nodes: (\[[^\]]*\])", stdout, re.M)
        require(cut is not None, "no cut line in the output")
        require(separates(graph, json.loads(cut.group(1))), "removing the cut nodes leaves a path")
        with open(out / "adversary_mixture.json", encoding="utf-8") as fh:
            weights = json.load(fh)["weights"]
        if not weights:  # a boundary outcome in which the adversary drops
            require("diagnostics: boundary" in stdout, "empty mixture outside a boundary outcome")
            return
        total = math.fsum(weights.values())
        require(math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-9), f"mixture weights sum to {total!r}")

    def report(self, ops: dict[str, tuple[float, float]]) -> dict:
        labels = [label for label in ops if label.startswith("solve-single")]
        return {"solve_single_nodes_per_s": (nodes_per_s(ops, labels), "nodes/s")}


WORKLOADS = {w.name: w for w in (Multistage, Respond, SingleStage)}
