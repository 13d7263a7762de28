"""Span tracing for the benchmark's traced run.

The tracer wraps public functions of the ``diftgame`` modules at the binding
their callers resolve (a module attribute, a name imported into another
module, or a class attribute for methods), records one span per call and
restores the originals on ``restore``.  Spans are kept in memory; per-layer
metrics are derived from them after the run.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    index: int
    name: str
    parent: int  # index of the enclosing span, -1 for a root span
    start: float
    end: float = 0.0
    child_s: float = 0.0  # summed duration of the direct child spans
    error: str | None = None  # exception type name when the call raised
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: set[str] = set()  # span names whose target symbol does not exist
        self.active = True
        self._open: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    # --- spans -----------------------------------------------------------

    def _enter(self, name: str) -> Span:
        parent = self._open[-1].index if self._open else -1
        span = Span(len(self.spans), name, parent, time.perf_counter())
        self.spans.append(span)
        self._open.append(span)
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.seconds

    def call(self, name: str, fn, *args, record=None, **kwargs):
        """Run ``fn`` inside a span; the span is closed even when ``fn`` raises."""
        if not self.active:
            return fn(*args, **kwargs)
        span = self._enter(name)
        try:
            result = fn(*args, **kwargs)
            if record is not None:
                record(span, args, result)
            return result
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            self._exit(span)

    # --- patching --------------------------------------------------------

    def patch(self, owner, attr: str, name: str, record=None) -> None:
        """Replace ``owner.attr`` with a traced wrapper; a missing symbol is noted, not fatal."""
        raw = _lookup(owner, attr)
        if raw is None:
            self.absent.add(name)
            return

        def traced(*args, **kwargs):
            return self.call(name, raw, *args, record=record, **kwargs)

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, raw))

    def count_yields(self, owner, attr: str, key: str) -> None:
        """Count the items a generator function yields into the enclosing span's ``info``."""
        raw = _lookup(owner, attr)
        if raw is None:
            return

        def counted(*args, **kwargs):
            parent = self._open[-1] if (self._open and self.active) else None
            for item in raw(*args, **kwargs):
                if parent is not None:
                    parent.info[key] = parent.info.get(key, 0) + 1
                yield item

        setattr(owner, attr, counted)
        self._patched.append((owner, attr, raw))

    def restore(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)


def _lookup(owner, attr):
    if owner is None:
        return None
    if isinstance(owner, type):  # the raw function, not a bound or inherited one
        return owner.__dict__.get(attr)
    return getattr(owner, attr, None)


# ---------------------------------------------------------------------------
# the patch table
# ---------------------------------------------------------------------------


def _record_mc(span, args, report):
    span.info["trials"] = report.n_trials
    span.info["truncated"] = report.truncated_mass * report.n_trials


def _record_compiled(span, args, result):
    span.info["walks"] = len(args[0].walks)


def _record_learn(span, args, result):
    span.info["iterations"] = result.iterations


def _record_cut(span, args, result):
    span.info["cut_nodes"] = len(result.cut_nodes)


def install(tracer: Tracer) -> None:
    """Patch every traced symbol at each binding a caller resolves.

    ``evaluate_monte_carlo`` and ``run`` are imported by name into ``respond``
    and ``experiments``, so those bindings are patched next to the defining
    module's attribute.
    """
    from diftgame import experiments, game, generate, ifg, learn, respond, single_stage

    compiled = getattr(game, "CompiledPaths", None)
    objective = getattr(respond, "DefenderObjective", None)
    table = [
        (generate, "gen_graph", "generate.gen_graph", None),
        (ifg, "load", "ifg.load", None),
        (ifg, "validate", "ifg.validate", None),
        (game, "evaluate_monte_carlo", "game.evaluate_monte_carlo", _record_mc),
        (respond, "evaluate_monte_carlo", "game.evaluate_monte_carlo", _record_mc),
        (experiments, "evaluate_monte_carlo", "game.evaluate_monte_carlo", _record_mc),
        (game.DefenderStrategy, "detection_vector", "game.detection_vector", None),
        (game, "strategy_costs", "game.strategy_costs", None),
        (compiled, "__init__", "game.compiled_build", _record_compiled),
        (compiled, "evaluate", "game.compiled_eval", None),
        (game, "evaluate_exact", "game.evaluate_exact", None),
        (objective, "value", "respond.objective_eval", None),
        (respond, "adversary_best_response", "respond.adversary_best_response", None),
        (respond, "defender_best_response_greedy", "respond.defender_best_response", None),
        (learn, "run", "learn.run", _record_learn),
        (experiments, "run", "learn.run", _record_learn),
        (learn, "fixed_point", "learn.fixed_point", None),
        (experiments, "sweep_cost", "experiments.sweep_cost", None),
        (single_stage, "build_flow_network", "single_stage.build_flow_network", None),
        (single_stage, "min_cut", "single_stage.min_cut", _record_cut),
        (single_stage, "solve_matrix_game", "single_stage.solve_matrix_game", None),
    ]
    for owner, attr, name, record in table:
        tracer.patch(owner, attr, name, record)
    tracer.count_yields(game, "enumerate_paths", "walks")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def layer_metrics(spans: list[Span], lo: int, hi: int, absent: set[str]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over ``spans[lo:hi]`` as {name: (value, unit)}.

    A metric whose span target was absent at patch time is left out; an idle
    layer reports zero counts and times, and ratios with a zero base read 0.
    """
    by: dict[str, list[Span]] = defaultdict(list)
    for span in spans[lo:hi]:
        by[span.name].append(span)

    def secs(name):
        return sum(s.seconds for s in by[name])

    def calls(name):
        return len(by[name])

    def info(name, key):
        return sum(s.info.get(key, 0) for s in by[name])

    def errors(name, kinds=None):
        return sum(1 for s in by[name] if s.error and (kinds is None or s.error in kinds))

    def under(name, parent_name):
        return [s for s in by[name] if s.parent >= 0 and spans[s.parent].name == parent_name]

    def ratio(a, b):
        return a / b if b else 0.0

    mc = "game.evaluate_monte_carlo"
    obj = "respond.objective_eval"
    mc_parents = {s.parent for s in by[mc]}
    learn_s, learn_iters = secs("learn.run"), info("learn.run", "iterations")
    table = [
        ("generate.gen_graph_s", "s", ["generate.gen_graph"], lambda: secs("generate.gen_graph")),
        ("ifg.load_validate_s", "s", ["ifg.load", "ifg.validate"],
         lambda: secs("ifg.load") + secs("ifg.validate")),
        ("cli.overhead_s", "s", [], lambda: sum(s.self_s for n, ss in by.items() if n.startswith("cli.") for s in ss)),
        ("game.mc_calls", "count", [mc], lambda: calls(mc)),
        ("game.mc_s", "s", [mc], lambda: secs(mc)),
        ("game.mc_trials", "count", [mc], lambda: info(mc, "trials")),
        ("game.mc_truncated_share", "ratio", [mc], lambda: ratio(info(mc, "truncated"), info(mc, "trials"))),
        ("game.detection_vector_calls", "count", ["game.detection_vector"], lambda: calls("game.detection_vector")),
        ("game.detection_vector_s", "s", ["game.detection_vector"], lambda: secs("game.detection_vector")),
        ("game.strategy_costs_s", "s", ["game.strategy_costs"], lambda: secs("game.strategy_costs")),
        ("game.compiled_build_s", "s", ["game.compiled_build"], lambda: secs("game.compiled_build")),
        ("game.compiled_walks", "count", ["game.compiled_build"], lambda: info("game.compiled_build", "walks")),
        ("game.compiled_cap_exceeded", "count", ["game.compiled_build"],
         lambda: errors("game.compiled_build", {"TruncationError"})),
        ("game.compiled_eval_calls", "count", ["game.compiled_eval"], lambda: calls("game.compiled_eval")),
        ("game.compiled_eval_s", "s", ["game.compiled_eval"], lambda: secs("game.compiled_eval")),
        ("game.exact_s", "s", ["game.evaluate_exact"], lambda: secs("game.evaluate_exact")),
        ("game.exact_walks", "count", ["game.evaluate_exact"], lambda: info("game.evaluate_exact", "walks")),
        ("respond.objective_evals", "count", [obj], lambda: calls(obj)),
        ("respond.objective_eval_ms", "ms", [obj], lambda: 1000.0 * ratio(secs(obj), calls(obj))),
        ("respond.objective_mc_share", "ratio", [obj, mc],
         lambda: ratio(sum(1 for s in by[obj] if s.index in mc_parents), calls(obj))),
        ("respond.adversary_br_calls", "count", ["respond.adversary_best_response"],
         lambda: calls("respond.adversary_best_response")),
        ("respond.adversary_br_s", "s", ["respond.adversary_best_response"],
         lambda: secs("respond.adversary_best_response")),
        ("respond.defender_br_s", "s", ["respond.defender_best_response"],
         lambda: secs("respond.defender_best_response")),
        ("learn.run_s", "s", ["learn.run"], lambda: learn_s),
        ("learn.iterations", "count", ["learn.run"], lambda: learn_iters),
        ("learn.iter_ms", "ms", ["learn.run"], lambda: 1000.0 * ratio(learn_s, learn_iters)),
        ("learn.fixed_point_calls", "count", ["learn.fixed_point"], lambda: calls("learn.fixed_point")),
        ("learn.fixed_point_s", "s", ["learn.fixed_point"], lambda: secs("learn.fixed_point")),
        ("learn.fixed_point_failures", "count", ["learn.fixed_point"], lambda: errors("learn.fixed_point")),
        ("learn.fixed_point_share", "ratio", ["learn.fixed_point", "learn.run"],
         lambda: ratio(secs("learn.fixed_point"), learn_s)),
        ("experiments.learn_s", "s", ["learn.run", "experiments.sweep_cost"],
         lambda: sum(s.seconds for s in under("learn.run", "experiments.sweep_cost"))),
        ("experiments.simulate_s", "s", [mc, "experiments.sweep_cost"],
         lambda: sum(s.seconds for s in under(mc, "experiments.sweep_cost"))),
        ("single_stage.build_flow_network_s", "s", ["single_stage.build_flow_network"],
         lambda: secs("single_stage.build_flow_network")),
        ("single_stage.min_cut_s", "s", ["single_stage.min_cut"], lambda: secs("single_stage.min_cut")),
        ("single_stage.min_cut_failures", "count", ["single_stage.min_cut"], lambda: errors("single_stage.min_cut")),
        ("single_stage.matrix_game_s", "s", ["single_stage.solve_matrix_game"],
         lambda: secs("single_stage.solve_matrix_game")),
        ("single_stage.cut_nodes", "count", ["single_stage.min_cut"], lambda: info("single_stage.min_cut", "cut_nodes")),
        ("trace.spans", "count", [], lambda: hi - lo),
    ]
    return {name: (float(fn()), unit) for name, unit, needs, fn in table if not absent.intersection(needs)}
