"""Strategies, game parameters, and utility evaluation.

The defender picks, per node, a tuple of 2+N probabilities: tag, trap, and
one entry per security rule.  A flow is detected at a node when the tag, the
trap, and every rule relevant at that node fire together, so the per-visit
detection probability is the product of those components.  The adversary
picks, per (node, stage), a distribution over out-neighbors plus a drop
action; arriving at a stage-j destination while in stage j forces the stage
to advance.

These evaluators share these semantics:

* ``AbsorbingChain``       - the walk as an absorbing Markov chain over
                             decision states; one linear solve per defender,
                             exact over an unbounded horizon, cyclic support
                             included.
* ``evaluate_exact``       - enumerates every positive-probability walk up to
                             ``max_len`` moves (suitable for small or acyclic
                             instances); ``CompiledPaths`` stores the walks
                             for repeated evaluation.
* ``evaluate_monte_carlo`` - seeded vectorized rollouts, with standard errors;
                             walks still alive after ``max_len`` moves count as
                             drops.
* ``evaluate_pure_profile``- deterministic 0/1 defender bits against a fixed
                             walk; a node's bits are committed once, so a
                             revisited unarmed node stays unarmed.

All but the last draw detection independently on every node visit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .errors import InvalidPath, ParseError, TruncationError, ValidationError
from .ifg import SOURCE, InformationFlowGraph, ensure_augmented

DROP = -1  # adversary action: terminate the flow

_PROB_TOL = 1e-9


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GameParams:
    """Rewards, penalties, and costs; sign constraints are checked eagerly.

    ``alpha_a`` (<0) and ``beta_a`` (>0, one per stage) are the adversary's
    detection penalty and stage rewards; ``alpha_d`` (>0) and ``beta_d`` (<0)
    mirror them for the defender.  ``c1``/``c2`` (<0) are fixed tag/trap
    costs multiplied by node traffic, and ``gamma`` (<=0, one per rule) are
    rule-selection costs.
    """

    alpha_a: float
    beta_a: tuple[float, ...]
    alpha_d: float
    beta_d: tuple[float, ...]
    c1: float
    c2: float
    gamma: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "beta_a", tuple(float(b) for b in self.beta_a))
        object.__setattr__(self, "beta_d", tuple(float(b) for b in self.beta_d))
        object.__setattr__(self, "gamma", tuple(float(g) for g in self.gamma))
        if not self.alpha_a < 0:
            raise ValidationError(f"alpha_a must be < 0, got {self.alpha_a}")
        if not self.alpha_d > 0:
            raise ValidationError(f"alpha_d must be > 0, got {self.alpha_d}")
        if len(self.beta_a) != len(self.beta_d):
            raise ValidationError("beta_a and beta_d must cover the same number of stages")
        if not all(b > 0 for b in self.beta_a):
            raise ValidationError(f"beta_a entries must be > 0, got {self.beta_a}")
        if not all(b < 0 for b in self.beta_d):
            raise ValidationError(f"beta_d entries must be < 0, got {self.beta_d}")
        if not self.c1 < 0 or not self.c2 < 0:
            raise ValidationError(f"c1 and c2 must be < 0, got c1={self.c1}, c2={self.c2}")
        if not all(g <= 0 for g in self.gamma):
            raise ValidationError(f"gamma entries must be <= 0, got {self.gamma}")

    @property
    def n_stages(self) -> int:
        return len(self.beta_a)

    def tag_cost(self, graph: InformationFlowGraph, node: int) -> float:
        return self.c1 * graph.traffic[node - 1]

    def trap_cost(self, graph: InformationFlowGraph, node: int) -> float:
        return self.c2 * graph.traffic[node - 1]

    def check_against(self, graph: InformationFlowGraph) -> None:
        if self.n_stages != graph.n_stages:
            raise ValidationError(
                f"params cover {self.n_stages} stages but the graph has {graph.n_stages}"
            )
        if len(self.gamma) != graph.n:
            raise ValidationError(
                f"params list {len(self.gamma)} rule costs but the graph has {graph.n} rules"
            )

    def scaled(self, factor: float) -> "GameParams":
        """Scale the three defense cost components (tag, trap, rules) by ``factor``."""
        if factor <= 0:
            raise ValidationError(f"cost scale factor must be > 0, got {factor}")
        return replace(
            self,
            c1=self.c1 * factor,
            c2=self.c2 * factor,
            gamma=tuple(g * factor for g in self.gamma),
        )


_DEFAULT_BETA_A = (100.0, 200.0, 500.0, 1200.0)


def default_params(graph: InformationFlowGraph) -> GameParams:
    """The stock parameter block: per-stage rewards 100/200/500/1200,
    detection penalty/reward 2000, fixed costs -50 everywhere."""
    m = graph.n_stages
    if m > len(_DEFAULT_BETA_A):
        raise ValidationError(
            f"no default rewards for {m} stages; pass an explicit parameter block"
        )
    return GameParams(
        alpha_a=-2000.0,
        beta_a=_DEFAULT_BETA_A[:m],
        alpha_d=2000.0,
        beta_d=tuple(-b for b in _DEFAULT_BETA_A[:m]),
        c1=-50.0,
        c2=-50.0,
        gamma=(-50.0,) * graph.n,
    )


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


class DefenderStrategy:
    """Per-node probability tuple (tag, trap, rule 1..N); stage-independent.

    Stored as a (n+1) x (2+n) array; row 0 belongs to the pseudo-source and
    is identically zero.
    """

    def __init__(self, probs):
        probs = np.asarray(probs, dtype=float)
        if probs.ndim != 2 or probs.shape[1] != probs.shape[0] + 1:
            raise ValidationError(
                f"defender strategy must have shape (n+1, 2+n), got {probs.shape}"
            )
        if np.any(probs < -_PROB_TOL) or np.any(probs > 1 + _PROB_TOL):
            raise ValidationError("defender probabilities must lie in [0, 1]")
        if np.any(probs[0] != 0):
            raise ValidationError("the pseudo-source row must be identically zero")
        self.probs = np.clip(probs, 0.0, 1.0)
        self.probs.setflags(write=False)

    @property
    def n(self) -> int:
        return self.probs.shape[0] - 1

    @classmethod
    def zeros(cls, graph: InformationFlowGraph) -> "DefenderStrategy":
        return cls(np.zeros((graph.n + 1, graph.n + 2)))

    @classmethod
    def full(cls, graph: InformationFlowGraph, value: float) -> "DefenderStrategy":
        probs = np.full((graph.n + 1, graph.n + 2), float(value))
        probs[0] = 0.0
        return cls(probs)

    @classmethod
    def random(cls, graph: InformationFlowGraph, rng: np.random.Generator) -> "DefenderStrategy":
        probs = rng.random((graph.n + 1, graph.n + 2))
        probs[0] = 0.0
        return cls(probs)

    def with_entry(self, node: int, component: int, value: float) -> "DefenderStrategy":
        """Copy with one entry replaced; ``component`` is 1=tag, 2=trap, 2+r=rule r."""
        probs = self.probs.copy()
        probs[node, component - 1] = value
        return DefenderStrategy(probs)

    def detection_vector(self, graph: InformationFlowGraph) -> np.ndarray:
        """Per-node detection probability; index 0 (pseudo-source) is 0.

        Every node multiplies its tag, trap and relevant rules left to right,
        as ``detection_prob`` does; padding columns multiply by an exact 1.0.
        """
        probs = np.concatenate((self.probs, np.ones((self.probs.shape[0], 1))), axis=1)
        rules = np.take_along_axis(probs, graph.rule_columns, axis=1)
        d = probs[:, 0] * probs[:, 1]
        for column in rules.T:
            d *= column
        return d

    def __eq__(self, other):
        return isinstance(other, DefenderStrategy) and np.array_equal(self.probs, other.probs)


def detection_prob(node: int, defender: DefenderStrategy, relevance) -> float:
    """Tag * trap * product of the relevant rule probabilities at ``node``."""
    if node == SOURCE:
        return 0.0
    row = defender.probs[node]
    p = row[0] * row[1]
    for r in relevance:
        p *= row[1 + r]
    return float(p)


class AdversaryStrategy:
    """Per-(node, stage) distribution over out-neighbors plus ``DROP``.

    Only decision states are stored: pairs (v, j) where v is not a stage-j
    destination (arrivals at destinations advance the stage by force).  The
    pseudo-source decides at stage 1 among the entry nodes and ``DROP``.
    """

    def __init__(self, moves: dict[tuple[int, int], dict[int, float]]):
        self.moves = {
            state: {int(a): float(p) for a, p in dist.items()}
            for state, dist in moves.items()
        }

    def distribution(self, node: int, stage: int) -> dict[int, float]:
        try:
            return self.moves[(node, stage)]
        except KeyError:
            raise ValidationError(
                f"adversary strategy has no distribution for node {node} at stage {stage}"
            ) from None

    def validate(self, graph: InformationFlowGraph) -> None:
        graph = ensure_augmented(graph)
        succ = graph.successors
        for (v, j), dist in self.moves.items():
            if not 1 <= j <= graph.n_stages:
                raise ValidationError(f"state ({v}, {j}) has an out-of-range stage")
            allowed = set(succ.get(v, ())) | {DROP}
            total = 0.0
            for a, p in dist.items():
                if a not in allowed:
                    raise ValidationError(
                        f"state ({v}, {j}) assigns probability to {a}, not a neighbor of {v}"
                    )
                if p < -_PROB_TOL:
                    raise ValidationError(f"state ({v}, {j}) has a negative probability")
                total += p
            if abs(total - 1.0) > 1e-6:
                raise ValidationError(f"state ({v}, {j}) distribution sums to {total!r}")

    @staticmethod
    def decision_states(graph: InformationFlowGraph) -> list[tuple[int, int]]:
        graph = ensure_augmented(graph)
        states = [(SOURCE, 1)]
        for v in range(1, graph.n + 1):
            for j in range(1, graph.n_stages + 1):
                if graph.advance(v, j) == j:
                    states.append((v, j))
        return states

    @classmethod
    def uniform(cls, graph: InformationFlowGraph) -> "AdversaryStrategy":
        graph = ensure_augmented(graph)
        succ = graph.successors
        moves = {}
        for v, j in cls.decision_states(graph):
            actions = list(succ.get(v, ())) + [DROP]
            moves[(v, j)] = {a: 1.0 / len(actions) for a in actions}
        return cls(moves)

    @classmethod
    def random(cls, graph: InformationFlowGraph, rng: np.random.Generator) -> "AdversaryStrategy":
        graph = ensure_augmented(graph)
        succ = graph.successors
        moves = {}
        for v, j in cls.decision_states(graph):
            actions = list(succ.get(v, ())) + [DROP]
            w = rng.dirichlet(np.ones(len(actions)))
            moves[(v, j)] = {a: float(p) for a, p in zip(actions, w)}
        return cls(moves)

    @classmethod
    def pure_walk(cls, graph: InformationFlowGraph, walk) -> "AdversaryStrategy":
        """Deterministic strategy following ``walk`` (node ids from s0), dropping elsewhere."""
        graph = ensure_augmented(graph)
        succ = graph.successors
        moves = {}
        for v, j in cls.decision_states(graph):
            moves[(v, j)] = {DROP: 1.0}
        walk = list(walk)
        if not walk or walk[0] != SOURCE:
            raise InvalidPath("a walk must start at the pseudo-source (node 0)")
        stage = 1
        for u, v in zip(walk, walk[1:]):
            if v not in succ.get(u, ()):
                raise InvalidPath(f"step ({u}, {v}) is not an edge")
            moves[(u, stage)] = {v: 1.0}
            stage = graph.advance(v, stage)
            if stage > graph.n_stages:
                break
        return cls(moves)

    def __eq__(self, other):
        return isinstance(other, AdversaryStrategy) and self.moves == other.moves


# --- strategy files --------------------------------------------------------


def save_defender(strategy: DefenderStrategy, path) -> None:
    payload = {"kind": "defender", "n": strategy.n, "probs": strategy.probs.tolist()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def save_adversary(strategy: AdversaryStrategy, path) -> None:
    moves = {}
    for (v, j), dist in sorted(strategy.moves.items()):
        moves.setdefault(str(v), {})[str(j)] = {
            ("drop" if a == DROP else str(a)): p for a, p in sorted(dist.items())
        }
    payload = {"kind": "adversary", "moves": moves}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_strategy(path):
    """Load either strategy kind; the file's ``kind`` field decides."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}", path=path) from exc
    kind = raw.get("kind")
    if kind == "defender":
        if "probs" not in raw:
            raise ParseError("missing required field", field="probs", path=path)
        return DefenderStrategy(np.asarray(raw["probs"], dtype=float))
    if kind == "adversary":
        if "moves" not in raw:
            raise ParseError("missing required field", field="moves", path=path)
        moves = {}
        for v_key, by_stage in raw["moves"].items():
            for j_key, dist in by_stage.items():
                state = (int(v_key), int(j_key))
                moves[state] = {
                    (DROP if a == "drop" else int(a)): float(p) for a, p in dist.items()
                }
        return AdversaryStrategy(moves)
    raise ParseError(f"unknown strategy kind {kind!r}", field="kind", path=path)


# ---------------------------------------------------------------------------
# walk enumeration and exact evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Walk:
    """One complete adversary walk, independent of the defender.

    ``nodes`` starts at the pseudo-source; ``arrival_stages[i]`` is the stage
    in effect when ``nodes[i]`` is entered (before forced advances there);
    ``crossings`` lists (arrival index, stage crossed); ``prob`` is the
    product of the move probabilities that select this walk.
    """

    nodes: tuple[int, ...]
    arrival_stages: tuple[int, ...]
    crossings: tuple[tuple[int, int], ...]
    prob: float
    end: str  # "drop" | "complete" | "truncated"


def default_max_len(graph: InformationFlowGraph) -> int:
    return 4 * graph.n * max(1, graph.n_stages)


def iter_walks(
    graph: InformationFlowGraph, adversary: AdversaryStrategy, max_len: int | None = None
) -> Iterator[Walk]:
    """All positive-probability walks with at most ``max_len`` moves.

    Walks still alive at the move bound are yielded with ``end="truncated"``.
    Enumeration cost grows with the strategy's branching; on cyclic support
    it is exponential in ``max_len``.  Iterative depth-first traversal, so
    the move bound is not limited by the interpreter recursion limit.
    """
    graph = ensure_augmented(graph)
    if max_len is None:
        max_len = default_max_len(graph)
    if max_len < 1:
        raise ValidationError(f"max_len must be >= 1, got {max_len}")
    m = graph.n_stages
    nodes = [SOURCE]
    stages = [1]
    crossings: list[tuple[int, int]] = []

    def actions_at(node, stage):
        return iter(sorted(adversary.distribution(node, stage).items()))

    # stack frames: (pending action iterator, node, stage, prob, crossings added)
    stack = [(actions_at(SOURCE, 1), SOURCE, 1, 1.0, 0)]
    while stack:
        pending, node, stage, prob, n_crossed = stack[-1]
        step = next(pending, None)
        if step is None:
            stack.pop()
            for _ in range(n_crossed):
                crossings.pop()
            if stack:
                nodes.pop()
                stages.pop()
            continue
        action, p = step
        if p <= 0.0:
            continue
        if action == DROP:
            yield Walk(tuple(nodes), tuple(stages), tuple(crossings), prob * p, "drop")
            continue
        new_stage = graph.advance(action, stage)
        nodes.append(action)
        stages.append(stage)
        for s in range(stage, new_stage):
            crossings.append((len(nodes) - 1, s))
        if new_stage > m:
            yield Walk(tuple(nodes), tuple(stages), tuple(crossings), prob * p, "complete")
            for _ in range(stage, new_stage):
                crossings.pop()
            nodes.pop()
            stages.pop()
        elif len(stack) == max_len:
            yield Walk(tuple(nodes), tuple(stages), tuple(crossings), prob * p, "truncated")
            for _ in range(stage, new_stage):
                crossings.pop()
            nodes.pop()
            stages.pop()
        else:
            stack.append((actions_at(action, new_stage), action, new_stage,
                          prob * p, new_stage - stage))


@dataclass(frozen=True)
class PathOutcome:
    """A walk combined with a defender: survival factors and stage masses."""

    nodes: tuple[int, ...]
    arrival_stages: tuple[int, ...]
    survival_probs: tuple[float, ...]  # per arrival, 1 - detection prob; 1.0 at s0
    stage_hits: tuple[int, ...]  # stages crossed, in order
    reach_probs: tuple[float, ...]  # per stage 1..M: survival at the crossing, else 0
    detection_prob: float  # 1 - product of survival factors
    selection_prob: float
    end: str


def enumerate_paths(
    graph: InformationFlowGraph,
    params: GameParams,
    defender: DefenderStrategy,
    adversary: AdversaryStrategy,
    max_len: int | None = None,
) -> Iterator[PathOutcome]:
    graph = ensure_augmented(graph)
    params.check_against(graph)
    d = defender.detection_vector(graph)
    m = graph.n_stages
    for walk in iter_walks(graph, adversary, max_len):
        survival = [1.0] + [1.0 - d[v] for v in walk.nodes[1:]]
        prefix = np.cumprod(survival)
        reach = [0.0] * m
        for idx, s in walk.crossings:
            reach[s - 1] = float(prefix[idx])
        yield PathOutcome(
            nodes=walk.nodes,
            arrival_stages=walk.arrival_stages,
            survival_probs=tuple(survival),
            stage_hits=tuple(s for _, s in walk.crossings),
            reach_probs=tuple(reach),
            detection_prob=float(1.0 - prefix[-1]),
            selection_prob=walk.prob,
            end=walk.end,
        )


@dataclass(frozen=True)
class UtilityReport:
    """Evaluated payoffs plus the per-stage detection/reach masses.

    Serializes to one flat CSV row; see ``csv_header`` for the column order.
    """

    u_d: float
    u_a: float
    p_t: tuple[float, ...]
    p_r: tuple[float, ...]
    tag_cost: float
    trap_cost: float
    rule_cost: float
    method: str  # "exact" | "monte_carlo"
    n_trials: int | None = None
    seed: int | None = None
    std_err_d: float | None = None
    std_err_a: float | None = None
    truncated_mass: float = 0.0
    outcome_counts: dict | None = None

    @staticmethod
    def csv_header(n_stages: int) -> str:
        cols = ["method", "n_trials", "seed", "u_d", "u_a", "std_err_d", "std_err_a",
                "tag_cost", "trap_cost", "rule_cost", "truncated_mass"]
        cols += [f"p_t_{j}" for j in range(1, n_stages + 1)]
        cols += [f"p_r_{j}" for j in range(1, n_stages + 1)]
        return ",".join(cols)

    def csv_row(self) -> str:
        def fmt(x):
            if x is None:
                return ""
            if isinstance(x, float):
                return repr(float(x))
            return str(x)

        cells = [self.method, fmt(self.n_trials), fmt(self.seed), fmt(self.u_d), fmt(self.u_a),
                 fmt(self.std_err_d), fmt(self.std_err_a), fmt(self.tag_cost),
                 fmt(self.trap_cost), fmt(self.rule_cost), fmt(self.truncated_mass)]
        cells += [fmt(p) for p in self.p_t]
        cells += [fmt(p) for p in self.p_r]
        return ",".join(cells)


def strategy_costs(
    graph: InformationFlowGraph, params: GameParams, defender: DefenderStrategy
) -> tuple[float, float, float]:
    """Expected tagging, trapping, and rule-selection cost terms (all <= 0).

    These depend on the defender strategy alone; rule costs are charged for
    every selected rule, relevant at the node or not.
    """
    probs = defender.probs[1:]
    traffic = np.asarray(graph.traffic)
    tag = _exact_sum(probs[:, 0] * (params.c1 * traffic))
    trap = _exact_sum(probs[:, 1] * (params.c2 * traffic))
    rule = _exact_sum(probs[:, 2:] * np.asarray(params.gamma))
    return tag, trap, rule


def _exact_sum(terms: np.ndarray) -> float:
    """Correctly rounded sum; zero terms cannot change it, so they are skipped."""
    return math.fsum(terms[terms != 0].tolist())


def assemble_utilities(
    params: GameParams, p_t, p_r, cost_terms: float
) -> tuple[float, float]:
    """Payoffs from aggregate per-stage masses: the defender gets the cost
    terms plus alpha_d/beta_d weighted masses, the adversary alpha_a/beta_a."""
    u_d = cost_terms + math.fsum(
        p_t[j] * params.alpha_d + p_r[j] * params.beta_d[j] for j in range(params.n_stages)
    )
    u_a = math.fsum(
        p_t[j] * params.alpha_a + p_r[j] * params.beta_a[j] for j in range(params.n_stages)
    )
    return u_d, u_a


def evaluate_exact(
    graph: InformationFlowGraph,
    params: GameParams,
    defender: DefenderStrategy,
    adversary: AdversaryStrategy,
    max_len: int | None = None,
    eps_trunc: float = 1e-9,
    on_truncation: str = "error",
) -> UtilityReport:
    """Aggregate detection/reach masses over all walks up to ``max_len`` moves.

    Raises TruncationError when the walk mass still alive at the bound
    exceeds ``eps_trunc`` (pass ``on_truncation="drop"`` to fold that mass
    into the drop outcome instead).
    """
    graph = ensure_augmented(graph)
    params.check_against(graph)
    m = graph.n_stages
    pt_terms: list[list[float]] = [[] for _ in range(m)]
    pr_terms: list[list[float]] = [[] for _ in range(m)]
    truncated: list[float] = []
    for out in enumerate_paths(graph, params, defender, adversary, max_len):
        prefix = 1.0
        for idx in range(1, len(out.nodes)):
            s = out.survival_probs[idx]
            pt_terms[out.arrival_stages[idx] - 1].append(out.selection_prob * prefix * (1.0 - s))
            prefix *= s
        for j, reach in enumerate(out.reach_probs):
            if reach:
                pr_terms[j].append(out.selection_prob * reach)
        if out.end == "truncated":
            truncated.append(out.selection_prob)
    truncated_mass = math.fsum(truncated)
    if truncated_mass > eps_trunc and on_truncation == "error":
        raise TruncationError(truncated_mass, eps_trunc, max_len or default_max_len(graph))
    p_t = tuple(math.fsum(terms) for terms in pt_terms)
    p_r = tuple(math.fsum(terms) for terms in pr_terms)
    tag, trap, rule = strategy_costs(graph, params, defender)
    u_d, u_a = assemble_utilities(params, p_t, p_r, tag + trap + rule)
    return UtilityReport(
        u_d=u_d, u_a=u_a, p_t=p_t, p_r=p_r,
        tag_cost=tag, trap_cost=trap, rule_cost=rule,
        method="exact", truncated_mass=truncated_mass,
    )


class CompiledPaths:
    """A materialized walk set for repeated evaluation against many defenders.

    Compiling fails fast with a TruncationError when the adversary's support
    has more than ``cap`` walks; the error reports the walk mass not yet
    enumerated.  ``evaluate`` returns (u_d, u_a) with the same semantics as
    ``evaluate_exact`` with truncation folded into the drop outcome.  On
    acyclic support it is an independent check of ``AbsorbingChain``.
    """

    def __init__(self, graph, adversary, max_len=None, cap=10_000):
        graph = ensure_augmented(graph)
        self.graph = graph
        self.walks: list[Walk] = []
        self.truncated_mass = 0.0
        for walk in iter_walks(graph, adversary, max_len):
            self.walks.append(walk)
            if walk.end == "truncated":
                self.truncated_mass += walk.prob
            if len(self.walks) > cap:
                enumerated = math.fsum(w.prob for w in self.walks)
                raise TruncationError(max(0.0, 1.0 - enumerated), 0.0,
                                      max_len or default_max_len(graph), walk_cap=cap)

    def masses(self, detection: np.ndarray) -> tuple[tuple[float, ...], tuple[float, ...]]:
        m = self.graph.n_stages
        p_t = [0.0] * m
        p_r = [0.0] * m
        for walk in self.walks:
            prefix = walk.prob
            ci = 0
            ncross = len(walk.crossings)
            for idx in range(1, len(walk.nodes)):
                d = detection[walk.nodes[idx]]
                p_t[walk.arrival_stages[idx] - 1] += prefix * d
                prefix *= 1.0 - d
                while ci < ncross and walk.crossings[ci][0] == idx:
                    p_r[walk.crossings[ci][1] - 1] += prefix
                    ci += 1
        return tuple(p_t), tuple(p_r)

    def evaluate(self, params: GameParams, defender: DefenderStrategy) -> tuple[float, float]:
        p_t, p_r = self.masses(defender.detection_vector(self.graph))
        tag, trap, rule = strategy_costs(self.graph, params, defender)
        return assemble_utilities(params, p_t, p_r, tag + trap + rule)


# ---------------------------------------------------------------------------
# absorbing-chain evaluation
# ---------------------------------------------------------------------------


class AbsorbingChain:
    """The adversary's walk as an absorbing Markov chain over decision states.

    Built once per adversary from the (node, stage) decision states reachable
    from (s0, 1) under the strategy's support.  A move to node w is detected
    with probability d[w], independently on every visit; a surviving move
    lands in the next decision state or completes the attack.  Drop,
    detection and completion absorb.  With Q the surviving moves between
    states, the expected visit counts are N = e_start (I - Q)^-1, the
    fundamental matrix of the absorbing chain (Kemeny & Snell, 1960), and
    ``masses`` weighs every move by the visits to the state it leaves.  These
    are the per-visit semantics of ``evaluate_exact`` and
    ``evaluate_monte_carlo``, over an unbounded horizon.

    A closed class of states that never drops or completes absorbs only by
    detection.  When no move out of it can be detected (1 - d rounds to 1 at
    every target), a walk that enters it stays forever and N diverges there.
    Such a class lies within one stage and detects nothing, so it adds
    nothing to p_t or p_r and is left out of the solve.  Only these classes
    are checked per defender; every other state has a path to a drop or a
    completion.
    """

    def __init__(self, graph: InformationFlowGraph, adversary: AdversaryStrategy):
        graph = ensure_augmented(graph)
        self.graph = graph
        m = graph.n_stages
        self.states = [(SOURCE, 1)]
        index = {self.states[0]: 0}
        frm, target, stage, new_stage, to, prob = [], [], [], [], [], []
        succ: list[list[int]] = []  # state -> states it moves to
        leaks: list[bool] = []  # state drops or completes with positive probability
        k = 0
        while k < len(self.states):
            v, j = self.states[k]
            succ.append([])
            leaks.append(False)
            for a, p in sorted(adversary.distribution(v, j).items()):
                if p <= 0.0:
                    continue
                if a == DROP:
                    leaks[k] = True
                    continue
                nxt = graph.advance(a, j)
                if nxt > m:
                    leaks[k] = True
                    to.append(-1)
                else:
                    if (a, nxt) not in index:
                        index[(a, nxt)] = len(self.states)
                        self.states.append((a, nxt))
                    to.append(index[(a, nxt)])
                    succ[k].append(to[-1])
                frm.append(k)
                target.append(a)
                stage.append(j)
                new_stage.append(nxt)
                prob.append(p)
            k += 1
        self._from = np.array(frm, dtype=np.intp)
        self._target = np.array(target, dtype=np.intp)
        self._stage_index = np.array(stage, dtype=np.intp) - 1
        self._prob = np.array(prob, dtype=float)
        to_arr = np.array(to, dtype=np.intp)
        self._inner = to_arr >= 0
        # entry (to, from) of (I - Q)^T, in row-major flat order
        self._flat = to_arr[self._inner] * k + self._from[self._inner]
        levels = np.arange(1, m + 1)
        crossed = (levels >= self._stage_index[:, None] + 1) & (levels < np.array(new_stage)[:, None])
        self._crossings = crossed.astype(float)
        self._traps = [
            (np.array(members, dtype=np.intp),
             np.unique(self._target[np.isin(self._from, members)]))
            for members in _closed_classes(succ, leaks)
        ]

    def masses(self, detection: np.ndarray) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Per-stage detection (p_t) and crossing (p_r) masses for ``detection``."""
        k = len(self.states)
        d = np.asarray(detection, dtype=float)
        d_move = d[self._target]
        survive = self._prob * (1.0 - d_move)
        system = np.eye(k)
        system.flat[self._flat] -= survive[self._inner]
        start = np.zeros(k)
        start[0] = 1.0
        keep = np.ones(k, dtype=bool)
        for members, targets in self._traps:
            if np.all(1.0 - d[targets] == 1.0):
                keep[members] = False
        if keep.all():
            visits = np.linalg.solve(system, start)
        else:
            visits = np.zeros(k)
            visits[keep] = np.linalg.solve(system[np.ix_(keep, keep)], start[keep])
        flow = visits[self._from] * self._prob
        p_t = np.bincount(self._stage_index, weights=flow * d_move, minlength=self.graph.n_stages)
        p_r = (flow * (1.0 - d_move)) @ self._crossings
        return tuple(p_t.tolist()), tuple(p_r.tolist())

    def evaluate(self, params: GameParams, defender: DefenderStrategy) -> tuple[float, float]:
        p_t, p_r = self.masses(defender.detection_vector(self.graph))
        tag, trap, rule = strategy_costs(self.graph, params, defender)
        return assemble_utilities(params, p_t, p_r, tag + trap + rule)


def _closed_classes(succ: list[list[int]], leaks: list[bool]) -> list[list[int]]:
    """Strongly connected classes that no move leaves and no member leaks from.

    Tarjan's algorithm, iterative so that long chains of states do not reach
    the interpreter recursion limit.
    """
    order: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    on_stack: set[int] = set()
    classes = []
    for root in range(len(succ)):
        if root in order:
            continue
        order[root] = low[root] = len(order)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, pending = work[-1]
            for w in pending:
                if w not in order:
                    order[w] = low[w] = len(order)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ[w])))
                    break
                if w in on_stack:
                    low[v] = min(low[v], order[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == order[v]:
                    members = []
                    while not members or members[-1] != v:
                        members.append(stack.pop())
                        on_stack.discard(members[-1])
                    inside = set(members)
                    if not any(leaks[u] for u in members) and all(
                        w in inside for u in members for w in succ[u]
                    ):
                        classes.append(sorted(members))
    return classes


# ---------------------------------------------------------------------------
# Monte Carlo evaluation
# ---------------------------------------------------------------------------


def evaluate_monte_carlo(
    graph: InformationFlowGraph,
    params: GameParams,
    defender: DefenderStrategy,
    adversary: AdversaryStrategy,
    n_trials: int,
    seed: int,
    max_len: int | None = None,
) -> UtilityReport:
    """Sample ``n_trials`` rollouts; walks hitting ``max_len`` count as drops.

    Deterministic for a fixed seed.  Rollouts are simulated in lock-step over
    all still-active trials, grouping by (node, stage) state.
    """
    if n_trials < 1:
        raise ValidationError(f"n_trials must be >= 1, got {n_trials}")
    graph = ensure_augmented(graph)
    params.check_against(graph)
    if max_len is None:
        max_len = default_max_len(graph)
    m = graph.n_stages
    n = graph.n
    rng = np.random.default_rng(seed)
    d = defender.detection_vector(graph)

    # per decision state: action targets and cumulative probabilities; the
    # last action takes every draw past the second-to-last bound, including
    # draws that rounding leaves above the total
    targets: dict[int, np.ndarray] = {}
    cumprobs: dict[int, np.ndarray] = {}
    for (v, j), dist in adversary.moves.items():
        acts = sorted(dist.items())
        code = v * m + (j - 1)
        targets[code] = np.array([a for a, _ in acts], dtype=np.int64)
        cumprobs[code] = np.cumsum([p for _, p in acts])
        cumprobs[code][-1:] = np.inf

    sort_key = np.uint16 if (n + 1) * m <= 1 << 16 else np.int64  # numpy radix-sorts 16-bit keys
    adv_stage = np.zeros((n + 1, m + 2), dtype=np.int64)
    for v in range(n + 1):
        for j in range(1, m + 1):
            adv_stage[v, j] = graph.advance(v, j)
    ba_prefix = np.concatenate(([0.0], np.cumsum(params.beta_a)))
    bd_prefix = np.concatenate(([0.0], np.cumsum(params.beta_d)))

    node = np.zeros(n_trials, dtype=np.int64)
    stage = np.ones(n_trials, dtype=np.int64)
    alive = np.ones(n_trials, dtype=bool)
    u_a = np.zeros(n_trials)
    u_d_path = np.zeros(n_trials)
    crossed = np.zeros(n_trials, dtype=np.int64)  # stages completed so far
    pt_counts = np.zeros(m, dtype=np.int64)
    pr_diff = np.zeros(m + 2, dtype=np.int64)  # difference array over stage range
    n_detected = 0
    n_completed = 0
    dropped_after = np.zeros(m + 1, dtype=np.int64)  # index: stages crossed at drop

    for _ in range(max_len):
        active = np.flatnonzero(alive)
        if active.size == 0:
            break
        codes = node[active] * m + (stage[active] - 1)
        # group the trials by state, in trial order within a state; the draws
        # go to the states in ascending code order
        order = np.argsort(codes.astype(sort_key), kind="stable")
        grouped = codes[order]
        bounds = (np.flatnonzero(grouped[1:] != grouped[:-1]) + 1).tolist()
        u = rng.random(active.size)
        picked = np.empty(active.size, dtype=np.int64)
        for lo, hi in zip([0] + bounds, bounds + [active.size]):
            code = int(grouped[lo])
            if code not in targets:
                v, j = divmod(code, m)
                raise ValidationError(
                    f"adversary strategy has no distribution for node {v} at stage {j + 1}"
                )
            picked[lo:hi] = targets[code][cumprobs[code].searchsorted(u[lo:hi], side="right")]
        chosen = np.empty(active.size, dtype=np.int64)
        chosen[order] = picked
        dropping = chosen == DROP
        drop_idx = active[dropping]
        alive[drop_idx] = False
        np.add.at(dropped_after, crossed[drop_idx], 1)

        movers = active[~dropping]
        to = chosen[~dropping]
        if movers.size == 0:
            continue
        caught = rng.random(movers.size) < d[to]
        det_idx = movers[caught]
        if det_idx.size:
            np.add.at(pt_counts, stage[det_idx] - 1, 1)
            u_a[det_idx] += params.alpha_a
            u_d_path[det_idx] += params.alpha_d
            alive[det_idx] = False
            n_detected += det_idx.size
        surv = movers[~caught]
        to_s = to[~caught]
        if surv.size == 0:
            continue
        old_stage = stage[surv]
        new_stage = adv_stage[to_s, old_stage]
        u_a[surv] += ba_prefix[new_stage - 1] - ba_prefix[old_stage - 1]
        u_d_path[surv] += bd_prefix[new_stage - 1] - bd_prefix[old_stage - 1]
        np.add.at(pr_diff, old_stage, 1)
        np.add.at(pr_diff, new_stage, -1)
        crossed[surv] += new_stage - old_stage
        node[surv] = to_s
        stage[surv] = new_stage
        done = new_stage > m
        done_idx = surv[done]
        alive[done_idx] = False
        n_completed += done_idx.size

    trunc_idx = np.flatnonzero(alive)
    n_truncated = int(trunc_idx.size)
    np.add.at(dropped_after, crossed[trunc_idx], 1)  # truncation counts as a drop

    pr_counts = np.cumsum(pr_diff)[1 : m + 1]
    tag, trap, rule = strategy_costs(graph, params, defender)
    cost = tag + trap + rule
    u_d = u_d_path + cost
    p_t = tuple(float(c) / n_trials for c in pt_counts)
    p_r = tuple(float(c) / n_trials for c in pr_counts)
    ddof = 1 if n_trials > 1 else 0
    return UtilityReport(
        u_d=float(u_d.mean()),
        u_a=float(u_a.mean()),
        p_t=p_t,
        p_r=p_r,
        tag_cost=tag,
        trap_cost=trap,
        rule_cost=rule,
        method="monte_carlo",
        n_trials=n_trials,
        seed=seed,
        std_err_d=float(u_d.std(ddof=ddof) / math.sqrt(n_trials)),
        std_err_a=float(u_a.std(ddof=ddof) / math.sqrt(n_trials)),
        truncated_mass=n_truncated / n_trials,
        outcome_counts={
            "detected": n_detected,
            "completed": n_completed,
            "dropped_after": dropped_after.tolist(),
            "truncated": n_truncated,
        },
    )


# ---------------------------------------------------------------------------
# pure profiles
# ---------------------------------------------------------------------------


def evaluate_pure_profile(
    graph: InformationFlowGraph,
    params: GameParams,
    defender_bits,
    adversary_path,
) -> tuple[float, float]:
    """Deterministic payoffs for 0/1 defender bits against a fixed walk.

    A node detects iff its tag, trap, and every relevant rule bit are 1; the
    walk ends at the first such node.  Stage rewards accrue for each stage
    boundary crossed before detection or the end of the walk.  Defender cost
    terms cover every set bit, on the walk or not.
    """
    graph = ensure_augmented(graph)
    params.check_against(graph)
    bits = np.asarray(defender_bits)
    if bits.shape != (graph.n + 1, graph.n + 2):
        raise ValidationError(
            f"defender bits must have shape (n+1, 2+n), got {bits.shape}"
        )
    walk = [int(v) for v in adversary_path]
    if not walk or walk[0] != SOURCE:
        raise InvalidPath("adversary walk must start at the pseudo-source (node 0)")
    succ = graph.successors
    for u, v in zip(walk, walk[1:]):
        if v not in succ.get(u, ()):
            raise InvalidPath(f"step ({u}, {v}) is not an edge")

    armed = np.zeros(graph.n + 1, dtype=bool)
    for i in range(1, graph.n + 1):
        armed[i] = bits[i, 0] and bits[i, 1] and all(bits[i, 1 + r] for r in graph.relevance(i))

    cost = math.fsum(
        bits[i, 0] * params.tag_cost(graph, i)
        + bits[i, 1] * params.trap_cost(graph, i)
        + math.fsum(bits[i, 1 + r] * params.gamma[r - 1] for r in range(1, graph.n + 1))
        for i in range(1, graph.n + 1)
    )

    m = graph.n_stages
    stage = 1
    u_a = 0.0
    u_d = cost
    for v in walk[1:]:
        if armed[v]:
            return u_d + params.alpha_d, u_a + params.alpha_a
        new_stage = graph.advance(v, stage)
        for s in range(stage, new_stage):
            u_a += params.beta_a[s - 1]
            u_d += params.beta_d[s - 1]
        stage = new_stage
        if stage > m:
            break
    return u_d, u_a
