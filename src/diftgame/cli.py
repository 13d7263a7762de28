"""Command-line driver.

Subcommands: gen-graph, solve-single, solve-multi, best-response, simulate,
sweep-cost.  Every run writes its result files plus a ``manifest.json``
whose ``config`` is the parsed command line: every option except those that
name outputs (``--out-dir``, ``--name``, ``--dot``), with ``params`` the
resolved parameter block and its origin (a file or the defaults), and
gen-graph's ``dest_per_stage`` the broadcast per-stage list.  Rerunning the
command line a manifest records writes byte-identical outputs.  Data goes
to files and standard output, diagnostics to standard error; exit code 0 on
success, 1 on a solver/module error (the message names the failing stage),
2 on usage errors.

The default output directory is taken from ``DIFTGAME_OUTPUT_DIR`` when set.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
from pathlib import Path

from . import experiments, game, generate, ifg, learn, respond, single_stage
from .errors import DiftGameError

# parsed arguments that a manifest's config leaves out: the subcommand and its
# function, and the options that name outputs
_NOT_CONFIG = frozenset({"command", "fn", "out_dir", "name", "dot"})


class _StageError(Exception):
    """Wraps a module error with the pipeline stage it came from."""

    def __init__(self, stage: str, err: Exception):
        self.stage = stage
        self.err = err
        super().__init__(f"[{stage}] {err}")


def _run_stage(stage: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (DiftGameError, OSError, MemoryError) as exc:
        raise _StageError(stage, exc) from exc


def _out_dir(args) -> Path:
    out = Path(args.out_dir or os.environ.get("DIFTGAME_OUTPUT_DIR", "."))
    _run_stage("write", out.mkdir, parents=True, exist_ok=True)
    return out


def _write_text(path: Path, text: str) -> None:
    _run_stage("write", path.write_bytes, text.encode("utf-8"))  # no newline translation


def _config(args, **resolved) -> dict:
    """A manifest's config: every parsed option but those naming outputs, then ``resolved``."""
    return {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG} | resolved


def _write_manifest(out: Path, args, config: dict, outputs: list[str]) -> None:
    _run_stage("write", ifg.write_json,
               {"command": args.command, "config": config, "outputs": sorted(outputs)},
               out / "manifest.json")


def load_params_file(path, graph: ifg.InformationFlowGraph) -> game.GameParams:
    """JSON parameter block; ``gamma`` may be a scalar broadcast to all rules.

    Raises ParseError, naming the field and ``path``, for malformed JSON, a
    missing field, or a value that is not a JSON number (or a list of them).
    """
    raw = ifg.read_json(path)

    def number(field):
        return ifg.read_number(ifg.need(raw, field, object, path), field, path)

    def numbers(field, values):
        return tuple(ifg.read_number(v, field, path) for v in values)

    gamma = raw.get("gamma", -50.0)
    return game.GameParams(
        alpha_a=number("alpha_a"),
        beta_a=numbers("beta_a", ifg.need(raw, "beta_a", list, path)),
        alpha_d=number("alpha_d"),
        beta_d=numbers("beta_d", ifg.need(raw, "beta_d", list, path)),
        c1=number("c1"),
        c2=number("c2"),
        gamma=numbers("gamma", gamma if isinstance(gamma, list) else [gamma] * graph.n),
    )


def _load_graph(path) -> ifg.InformationFlowGraph:
    graph = _run_stage("load-graph", ifg.load, path)
    violations = ifg.validate(graph)
    if violations:
        raise _StageError("validate-graph", DiftGameError("; ".join(map(str, violations))))
    return graph


def _inputs(args) -> tuple[Path, ifg.InformationFlowGraph, game.GameParams, dict]:
    """A solver run's output directory, validated graph, parameters and manifest config."""
    out = _out_dir(args)
    graph = _load_graph(args.graph)
    if args.params:
        params = _run_stage("load-params", load_params_file, args.params, graph)
        origin = {"file": args.params}
    else:
        params = _run_stage("default-params", game.default_params, graph)
        origin = {"default": True}
    # each field as it is: asdict would copy every gamma entry one by one
    fields = {f.name: getattr(params, f.name) for f in dataclasses.fields(params)}
    return out, graph, params, _config(args, params=fields | {"origin": origin})


def _learner_config(args) -> learn.LearnerConfig:
    return learn.LearnerConfig(**{f.name: getattr(args, f.name)
                                  for f in dataclasses.fields(learn.LearnerConfig)})


def int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


def float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x]


def seed_value(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text}")
    return int(text)


# --- subcommands -----------------------------------------------------------


def _cmd_gen_graph(args) -> int:
    out = _out_dir(args)
    dests = args.dest_per_stage
    if len(dests) == 1:
        dests = dests * args.stages
    graph = _run_stage(
        "generate", generate.gen_graph,
        args.nodes, args.stages, dests, args.entries, args.density, args.seed,
    )
    graph_path = out / args.name
    _run_stage("write", ifg.save, graph, graph_path)
    outputs = [args.name]
    if args.dot:
        _write_text(out / args.dot, ifg.export_dot(graph))
        outputs.append(args.dot)
    _write_manifest(out, args, _config(args, dest_per_stage=dests), outputs)
    print(graph_path)
    return 0


def _cmd_solve_single(args) -> int:
    out, graph, params, config = _inputs(args)
    eq = _run_stage("solve-single", single_stage.solve_single_stage, graph, params)
    _run_stage("write", game.save_defender, eq.defender, out / "defender.json")
    mixture = {
        "paths": {str(node): list(path) for node, path in sorted(eq.paths.items())},
        "weights": {str(node): eq.pi[node] for node in sorted(eq.pi)},
    }
    _run_stage("write", ifg.write_json, mixture, out / "adversary_mixture.json")
    _write_manifest(out, args, config, ["defender.json", "adversary_mixture.json"])
    print(f"diagnostics: {eq.diagnostics}")
    print(f"cut nodes: {list(eq.nodes)} (cost {eq.cut.cost!r})")
    print(f"values: U_D={eq.u_d!r} U_A={eq.u_a!r}")
    for note in eq.notes:
        print(f"note: {note}", file=sys.stderr)
    return 0


def _cmd_solve_multi(args) -> int:
    out, graph, params, config = _inputs(args)
    result = _run_stage("solve-multi", learn.run, graph, params, _learner_config(args))
    _write_text(out / "trace.csv", result.trace_csv())
    _run_stage("write", game.save_defender, result.defender_strategy(), out / "defender.json")
    _run_stage("write", game.save_adversary, result.adversary_strategy(), out / "adversary.json")
    summary = {
        "converged": result.converged,
        "iterations": result.iterations,
        "final_gap": result.final_gap,
        "players": len(result.roster),
    }
    _run_stage("write", ifg.write_json, summary, out / "summary.json")
    _write_manifest(out, args, config,
                    ["trace.csv", "defender.json", "adversary.json", "summary.json"])
    print(f"converged: {result.converged} after {result.iterations} iterations "
          f"(final gap {result.final_gap!r})")
    return 0


def _cmd_best_response(args) -> int:
    out, graph, params, config = _inputs(args)
    kind, wanted = ((game.DefenderStrategy, "a defender") if args.side == "adversary"
                    else (game.AdversaryStrategy, "an adversary"))
    opponent = _run_stage("load-strategy", game.load_strategy, args.strategy)
    if not isinstance(opponent, kind):
        raise _StageError("load-strategy", DiftGameError(
            f"{args.side} best response needs {wanted} strategy file"))
    if args.side == "adversary":
        br = _run_stage("best-response", respond.adversary_best_response, graph, params, opponent)
        _run_stage("write", game.save_adversary, br.to_strategy(graph), out / "response.json")
        print(f"value: {br.value!r} (stage {br.target_stage}, dropped={br.dropped})")
        print(f"path: {list(br.path)}")
    else:
        result = _run_stage(
            "best-response", respond.defender_best_response_greedy,
            graph, params, opponent, args.levels, args.variant, args.seed,
        )
        _run_stage("write", game.save_defender, result.strategy, out / "response.json")
        print(f"value: {result.value!r} ({len(result.selected)} of {len(result.ground)} "
              f"ground elements, {result.n_evaluations} evaluations)")
    _write_manifest(out, args, config, ["response.json"])
    return 0


def _cmd_simulate(args) -> int:
    out, graph, params, config = _inputs(args)
    defender = _run_stage("load-strategy", game.load_strategy, args.defender)
    adversary = _run_stage("load-strategy", game.load_strategy, args.adversary)
    if not isinstance(defender, game.DefenderStrategy) or not isinstance(
        adversary, game.AdversaryStrategy
    ):
        raise _StageError("load-strategy", DiftGameError(
            "--defender needs a defender file and --adversary an adversary file"))
    report = _run_stage(
        "simulate", game.evaluate_monte_carlo,
        graph, params, defender, adversary, args.n_trials, args.seed,
    )
    csv_text = game.UtilityReport.csv_header(graph.n_stages) + "\n" + report.csv_row() + "\n"
    _write_text(out / "report.csv", csv_text)
    _write_manifest(out, args, config, ["report.csv"])
    print(csv_text, end="")
    return 0


def _cmd_sweep_cost(args) -> int:
    out, graph, params, config = _inputs(args)
    sweep = _run_stage(
        "sweep-cost", experiments.sweep_cost,
        graph, params, args.factors, _learner_config(args), args.sim_trials, args.seed,
    )
    _write_text(out / "sweep.csv", sweep.to_csv())
    _write_manifest(out, args, config, ["sweep.csv"])
    print(sweep.to_csv(), end="")
    return 0


# --- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diftgame",
        description="Solvers for the information-flow tracking defense game.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--out-dir", default=None,
                       help="output directory (default: $DIFTGAME_OUTPUT_DIR or '.')")
        p.set_defaults(fn=fn)
        return p

    def solver(name, fn, help):
        p = command(name, fn, help)
        p.add_argument("--params", default=None, help="JSON parameter block override")
        p.add_argument("graph")
        return p

    def learner(p):
        p.add_argument("--eta", type=float, default=0.1)
        p.add_argument("--eps", type=float, default=1e-3)
        p.add_argument("--max-iters", type=int, default=50_000)
        p.add_argument("--seed", type=seed_value, default=0)

    p = command("gen-graph", _cmd_gen_graph, "generate a synthetic staged attack graph")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--stages", type=int, required=True)
    p.add_argument("--dest-per-stage", type=int_list, default="2",
                   help="comma-separated destination counts (one value broadcasts)")
    p.add_argument("--entries", type=int, default=1)
    p.add_argument("--density", type=float, default=0.08)
    p.add_argument("--seed", type=seed_value, default=0)
    p.add_argument("--name", default="graph.json")
    p.add_argument("--dot", default=None, help="also write a DOT rendering to this file")

    solver("solve-single", _cmd_solve_single, "exact single-stage equilibrium via min-cut")

    learner(solver("solve-multi", _cmd_solve_multi, "multi-stage learning equilibrium"))

    p = solver("best-response", _cmd_best_response, "one-sided best response to a strategy file")
    p.add_argument("--side", choices=("adversary", "defender"), required=True)
    p.add_argument("--strategy", required=True, help="opponent strategy file")
    p.add_argument("--levels", type=int, default=1,
                   help="defender discretization levels per component")
    p.add_argument("--variant", choices=("randomized", "deterministic"), default="randomized")
    p.add_argument("--seed", type=seed_value, default=0)

    p = solver("simulate", _cmd_simulate, "Monte Carlo utility estimate for a strategy pair")
    p.add_argument("--defender", required=True)
    p.add_argument("--adversary", required=True)
    p.add_argument("--n-trials", type=int, required=True)
    p.add_argument("--seed", type=seed_value, default=0)

    p = solver("sweep-cost", _cmd_sweep_cost, "defender utility vs. defense cost scale")
    p.add_argument("--factors", type=float_list, default="0.01,0.1,0.5,1,3,6,10")
    learner(p)
    p.add_argument("--sim-trials", type=int, default=20_000)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; ``parse_args`` keeps no state between calls."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "simulate" and args.n_trials < 1:
        parser.error("--n-trials must be a positive integer")
    if args.command == "sweep-cost" and not args.factors:
        parser.error("--factors must list at least one positive factor")
    try:
        return args.fn(args)
    except _StageError as exc:
        print(f"error {exc}", file=sys.stderr)
        return 1
    except DiftGameError as exc:
        print(f"error [{args.command}] {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
