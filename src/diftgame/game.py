"""Strategies, game parameters, and utility evaluation.

The defender picks, per node, a tuple of 2+N probabilities: tag (column 0),
trap (column 1), and rule r (column 1 + r).  A flow is detected at a node
when the tag, the trap, and every rule relevant at that node fire together,
so the per-visit detection probability is the product of those cells, the
ones ``InformationFlowGraph.defender_cells`` lists.  This module alone knows
how the cells sit in the stored (n+1) x (n+2) defender matrix:
``DefenderStrategy.from_cells`` scatters one value per cell into it,
``DefenderStrategy.cells`` gathers them back, and ``GameParams.cell_costs``
prices the cells in the same order; other modules see per-cell vectors only.
The adversary picks, per (node, stage), a distribution
over out-neighbors plus a drop action; arriving at a stage-j destination
while in stage j forces the stage to advance, as ``graph.landing`` records.
The chain and the Monte Carlo kernel read one compile of the adversary's
moves over the (node, stage) codes of that table, ``_MoveTable``.

These evaluators share these semantics:

* ``evaluate_exact``       - one ``AbsorbingChain`` solve: the walk as an
                             absorbing Markov chain over decision states,
                             exact over an unbounded horizon, cyclic support
                             included; the chain is built once per adversary
                             and solved once per distinct detection at its
                             move targets.
* ``evaluate_monte_carlo`` - seeded vectorized rollouts, with standard errors;
                             walks still alive after ``max_len`` moves count as
                             drops.

Both draw detection independently on every node visit.  A pure profile is
``evaluate_exact`` on ``DefenderStrategy(bits)`` for 0/1 bits against
``AdversaryStrategy.pure_walk(graph, walk)``: every draw is then certain.
``iter_walks`` and ``CompiledPaths`` enumerate the walks of the adversary's
support up to ``max_len`` moves; they are the independent reference that
the chain is tested against on small or acyclic instances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .errors import InvalidPath, ParseError, TruncationError, ValidationError
from .ifg import (
    SOURCE,
    InformationFlowGraph,
    need,
    read_key,
    read_json,
    read_number,
    strong_components,
    write_json,
)

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
        for field in ("alpha_a", "beta_a", "alpha_d", "beta_d", "c1", "c2", "gamma"):
            bad = [x for x in np.ravel(getattr(self, field)) if not math.isfinite(x)]
            if bad:
                raise ValidationError(f"{field} must be finite, got {bad[0]}")
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

    def tag_trap_costs(self, graph: InformationFlowGraph) -> tuple[np.ndarray, np.ndarray]:
        """Tag and trap price of nodes 1..n: ``c1`` and ``c2`` times the node's traffic."""
        traffic = np.asarray(graph.traffic, dtype=float)
        return self.c1 * traffic, self.c2 * traffic

    def cell_costs(self, graph: InformationFlowGraph) -> np.ndarray:
        """Price of each cell of ``graph.defender_cells``, in that order (all <= 0).

        A tag or trap cell costs its node's ``tag_trap_costs`` entry, and the
        cell of rule r costs ``gamma[r - 1]``.
        """
        nodes, columns = graph.defender_cells
        tag, trap = self.tag_trap_costs(graph)
        costs = np.where(columns == 0, tag[nodes - 1], trap[nodes - 1])
        rules = columns >= 2
        costs[rules] = np.asarray(self.gamma)[columns[rules] - 2]
        return costs

    def check_against(self, graph: InformationFlowGraph) -> None:
        """Raise ValidationError unless these parameters and ``graph`` form a game."""
        graph.check_entries()
        if self.n_stages != graph.n_stages:
            raise ValidationError(
                f"params cover {self.n_stages} stages but the graph has {graph.n_stages}"
            )
        if len(self.gamma) != graph.n:
            raise ValidationError(
                f"params list {len(self.gamma)} rule costs but the graph has {graph.n} rules"
            )
        # the largest total cost: a dense defender file may select every rule
        # at every node; Python floats overflow to inf without a warning
        c1, c2, traffic = float(self.c1), float(self.c2), [float(t) for t in graph.traffic]
        rules = -sum(self.gamma)
        if not math.isfinite(sum(abs(c1 * t) + abs(c2 * t) for t in traffic) + graph.n * rules):
            raise ValidationError(
                f"the largest total defense cost is not a finite number: c1={c1!r} and "
                f"c2={c2!r} over traffic summing to {sum(traffic)!r}, plus {graph.n} rule "
                f"costs gamma (down to {min(self.gamma)!r}) at each of {graph.n} nodes"
            )

    def scaled(self, factor: float) -> "GameParams":
        """Scale the three defense cost components (tag, trap, rules) by ``factor``."""
        if not (math.isfinite(factor) and factor > 0):
            raise ValidationError(f"cost scale factor must be finite and > 0, got {factor}")
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
    is identically zero.  The constructor keeps one clipped copy of the
    caller's array and never modifies it; the other builders keep the one
    matrix they build.
    """

    def __init__(self, probs):
        self.probs = _clipped(np.array(probs, dtype=float))
        self.probs.setflags(write=False)

    @classmethod
    def _owning(cls, probs: np.ndarray) -> "DefenderStrategy":
        """Wrap a valid matrix built by this class, without a copy."""
        strategy = cls.__new__(cls)
        strategy.probs = probs
        probs.setflags(write=False)
        return strategy

    @property
    def n(self) -> int:
        return self.probs.shape[0] - 1

    @classmethod
    def zeros(cls, graph: InformationFlowGraph) -> "DefenderStrategy":
        return cls._owning(np.zeros((graph.n + 1, graph.n + 2)))

    @classmethod
    def full(cls, graph: InformationFlowGraph, value: float) -> "DefenderStrategy":
        probs = np.full((graph.n + 1, graph.n + 2), float(value))
        probs[0] = 0.0
        return cls._owning(_clipped(probs))

    @classmethod
    def random(cls, graph: InformationFlowGraph, rng: np.random.Generator) -> "DefenderStrategy":
        probs = rng.random((graph.n + 1, graph.n + 2))
        probs[0] = 0.0
        return cls._owning(probs)

    @classmethod
    def from_cells(cls, graph: InformationFlowGraph, values) -> "DefenderStrategy":
        """The strategy that gives each cell of ``graph.defender_cells`` its
        entry of ``values`` and every other cell 0.

        The values are checked as the constructor checks a matrix, and only
        the nonzero ones are written, straight into the stored matrix: the
        pages of a large matrix that hold none are never touched, and no
        second dense copy is made.  Raises ValidationError unless ``values``
        holds exactly one entry per cell.
        """
        nodes, columns = graph.defender_cells
        values = np.asarray(values, dtype=float)
        if values.shape != nodes.shape:
            raise ValidationError(
                f"expected {len(nodes)} defender cell values, got shape {values.shape}"
            )
        _check_range(values, lambda k: (nodes[k], columns[k]))
        on = values != 0.0
        probs = np.zeros((graph.n + 1, graph.n + 2))
        probs[nodes[on], columns[on]] = np.clip(values[on], 0.0, 1.0)
        return cls._owning(probs)

    def with_entry(self, node: int, component: int, value: float) -> "DefenderStrategy":
        """Copy with one entry replaced; ``component`` is 1=tag, 2=trap, 2+r=rule r.

        Raises ValidationError for a node outside 1..n or a component outside
        1..n+2.
        """
        if not (1 <= node <= self.n and 1 <= component <= self.n + 2):
            raise ValidationError(
                f"no defender entry at node {node}, component {component}: "
                f"nodes run 1..{self.n} and components 1..{self.n + 2}"
            )
        probs = self.probs.copy()
        probs[node, component - 1] = value
        return DefenderStrategy._owning(_clipped(probs))

    def cells(self, graph: InformationFlowGraph) -> np.ndarray:
        """The probability of each cell of ``graph.defender_cells``, in that order.

        Raises ValidationError when the strategy was built for another node
        count.
        """
        if self.n != graph.n:
            raise ValidationError(
                f"defender strategy covers {self.n} nodes but the graph has {graph.n}"
            )
        return self.probs[graph.defender_cells]

    def detection_vector(self, graph: InformationFlowGraph) -> np.ndarray:
        """Per-node detection probability of ``cells``; index 0 (pseudo-source) is 0."""
        return cell_detection(graph, self.cells(graph))

    def __eq__(self, other):
        return isinstance(other, DefenderStrategy) and np.array_equal(self.probs, other.probs)


def cell_detection(graph: InformationFlowGraph, cells: np.ndarray) -> np.ndarray:
    """Per-node detection probability of a cell vector over ``graph.defender_cells``;
    index 0 (pseudo-source) is 0.

    Every node multiplies its cells left to right, starting at its tag: tag,
    trap, then its relevant rules in ``relevance`` order.
    """
    _, columns = graph.defender_cells
    d = np.zeros(graph.n + 1)
    d[1:] = np.multiply.reduceat(cells, np.flatnonzero(columns == 0))
    return d


def _clipped(probs: np.ndarray) -> np.ndarray:
    """The defender matrix ``probs`` checked and clipped to [0, 1] in place."""
    if probs.ndim != 2 or probs.shape[1] != probs.shape[0] + 1:
        raise ValidationError(f"defender strategy must have shape (n+1, 2+n), got {probs.shape}")
    _check_range(probs, lambda i: divmod(i, probs.shape[1]))
    if np.any(probs[0] != 0):
        raise ValidationError("the pseudo-source row must be identically zero")
    return np.clip(probs, 0.0, 1.0, out=probs)


def _check_range(probs: np.ndarray, locate) -> None:
    """Raise ValidationError unless ``probs`` lies in [0, 1] up to rounding; a
    non-finite value is named by the (node, column) ``locate`` gives its flat index."""
    if not (np.all(probs >= -_PROB_TOL) and np.all(probs <= 1 + _PROB_TOL)):  # NaN fails
        bad = np.flatnonzero(~np.isfinite(probs))
        if bad.size:
            node, column = locate(bad[0])
            raise ValidationError(
                f"defender probability at node {node}, column {column} is not a finite number"
            )
        raise ValidationError("defender probabilities must lie in [0, 1]")


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
        """Raise ValidationError unless every stored state lies in the graph
        and moves along its edges or drops, with a probability distribution."""
        succ = graph.successors
        for (v, j), dist in self.moves.items():
            if not 0 <= v <= graph.n:
                raise ValidationError(f"state ({v}, {j}) has an out-of-range node")
            if not 1 <= j <= graph.n_stages:
                raise ValidationError(f"state ({v}, {j}) has an out-of-range stage")
            allowed = set(succ.get(v, ())) | {DROP}
            total = 0.0
            for a, p in dist.items():
                if a not in allowed:
                    raise ValidationError(f"state ({v}, {j}) moves to {a}, not a neighbor of {v}")
                if not math.isfinite(p):
                    raise ValidationError(
                        f"state ({v}, {j}) assigns a non-finite probability to {a}"
                    )
                if p < -_PROB_TOL:
                    raise ValidationError(f"state ({v}, {j}) has a negative probability")
                total += p
            if abs(total - 1.0) > 1e-6:
                raise ValidationError(f"state ({v}, {j}) distribution sums to {total!r}")

    @staticmethod
    def decision_states(graph: InformationFlowGraph) -> list[tuple[int, int]]:
        """(s0, 1), then the states of nodes 1..n that an arrival lands in, by code."""
        m = graph.n_stages
        codes = np.flatnonzero(graph.landing == np.arange(graph.landing.size))
        return [(SOURCE, 1)] + [(c // m, c % m + 1) for c in codes[codes >= m].tolist()]

    @classmethod
    def uniform(cls, graph: InformationFlowGraph) -> "AdversaryStrategy":
        succ = graph.successors
        return cls({(v, j): dict.fromkeys(succ[v] + (DROP,), 1.0 / (len(succ[v]) + 1))
                    for v, j in cls.decision_states(graph)})

    @classmethod
    def random(cls, graph: InformationFlowGraph, rng: np.random.Generator) -> "AdversaryStrategy":
        succ = graph.successors
        return cls({(v, j): dict(zip(succ[v] + (DROP,), rng.dirichlet(np.ones(len(succ[v]) + 1))))
                    for v, j in cls.decision_states(graph)})

    @classmethod
    def pure_walk(cls, graph: InformationFlowGraph, walk) -> "AdversaryStrategy":
        """Deterministic strategy following ``walk`` (node ids from s0), dropping elsewhere.

        Raises InvalidPath for an empty walk, a walk that starts elsewhere, or
        any step that is not an edge (the first goes from s0 to an entry).
        Steps after the attack completes are checked too but set no move.
        """
        walk = [int(v) for v in walk]
        if not walk or walk[0] != SOURCE:
            raise InvalidPath("a walk must start at the pseudo-source (node 0)")
        moves = {state: {DROP: 1.0} for state in cls.decision_states(graph)}
        stage = 1
        for u, v in zip(walk, walk[1:]):
            if v not in graph.successors.get(u, ()):
                raise InvalidPath(f"step ({u}, {v}) is not an edge")
            if stage <= graph.n_stages:
                moves[(u, stage)] = {v: 1.0}
                stage = graph.advance(v, stage)
        return cls(moves)

    def __eq__(self, other):
        return isinstance(other, AdversaryStrategy) and self.moves == other.moves


# --- strategy files --------------------------------------------------------


def save_defender(strategy: DefenderStrategy, path) -> None:
    write_json({"kind": "defender", "n": strategy.n, "probs": strategy.probs}, path)


def save_adversary(strategy: AdversaryStrategy, path) -> None:
    moves = {}
    for (v, j), dist in sorted(strategy.moves.items()):
        moves.setdefault(str(v), {})[str(j)] = {
            ("drop" if a == DROP else str(a)): p for a, p in sorted(dist.items())
        }
    write_json({"kind": "adversary", "moves": moves}, path)


def load_strategy(path):
    """Load either strategy kind; the file's ``kind`` field decides.

    Raises ParseError, naming the field and ``path``, for malformed JSON, a
    missing field, a value of the wrong kind, or a defender ``n`` that is not
    the number of rows less one.
    """
    raw = read_json(path)
    kind = raw.get("kind")
    if kind == "defender":
        rows = need(raw, "probs", list, path)
        if not (set(map(type, rows)) <= {list} and set(map(len, rows)) <= {len(rows) + 1}):
            raise ParseError("expected n + 1 rows of n + 2 numbers", field="probs", path=path)
        if "n" in raw and (type(raw["n"]) is not int or raw["n"] != len(rows) - 1):
            raise ParseError(f"expected {len(rows) - 1}, one less than the rows of probs, "
                             f"got {raw['n']!r}", field="n", path=path)
        if not set(map(type, itertools.chain.from_iterable(rows))) <= {float}:
            rows = [[read_number(p, "probs", path) for p in row] for row in rows]
        return DefenderStrategy(rows)
    if kind == "adversary":
        def entries(value):
            if not isinstance(value, dict):
                raise ParseError("expected node -> stage -> action -> probability maps",
                                 field="moves", path=path)
            return value.items()

        def key(text):
            return read_key(text, "moves", path)

        moves = {}
        for v, by_stage in entries(need(raw, "moves", dict, path)):
            for j, dist in entries(by_stage):
                moves[(key(v), key(j))] = {
                    (DROP if a == "drop" else key(a)): read_number(p, "moves", path)
                    for a, p in entries(dist)
                }
        return AdversaryStrategy(moves)
    raise ParseError(f"unknown strategy kind {kind!r}", field="kind", path=path)


# ---------------------------------------------------------------------------
# walk enumeration and payoff reports
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
    return tuple(_exact_sum(terms) for terms in _cost_terms(graph, params, defender.probs))


def cell_strategy_costs(
    graph: InformationFlowGraph, prices: np.ndarray, cells: np.ndarray
) -> tuple[float, float, float]:
    """``strategy_costs`` of ``DefenderStrategy.from_cells(graph, cells)`` for
    cells in [0, 1], with ``prices`` from ``GameParams.cell_costs(graph)``.

    Every term is the product the matrix path forms, and the cells outside
    the table hold 0 there, so the correctly rounded sums are the same.
    """
    _, columns = graph.defender_cells
    terms = cells * prices
    return (_exact_sum(terms[columns == 0]), _exact_sum(terms[columns == 1]),
            _exact_sum(terms[columns >= 2]))


def _cost_terms(graph: InformationFlowGraph, params: GameParams, probs: np.ndarray):
    """Tag, trap and rule cost terms of every cell of a defender matrix."""
    tag, trap = params.tag_trap_costs(graph)
    return probs[1:, 0] * tag, probs[1:, 1] * trap, probs[1:, 2:] * np.asarray(params.gamma)


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


class CompiledPaths:
    """A materialized walk set for repeated evaluation against many defenders.

    Compiling fails fast with a TruncationError when the adversary's support
    has more than ``cap`` walks; the error reports the walk mass not yet
    enumerated.  ``evaluate`` returns (u_d, u_a) over the enumerated walks,
    with walks truncated at ``max_len`` moves counted as drops.  It shares
    no code with ``AbsorbingChain`` and is the reference the chain is tested
    against; the two agree on acyclic support.
    """

    def __init__(self, graph, adversary, max_len=None, cap=10_000):
        self.graph = graph
        self.walks: list[Walk] = []
        self.truncated_mass = 0.0
        for walk in iter_walks(graph, adversary, max_len):
            self.walks.append(walk)
            if walk.end == "truncated":
                self.truncated_mass += walk.prob
            if len(self.walks) > cap:
                enumerated = math.fsum(w.prob for w in self.walks)
                raise TruncationError(max(0.0, 1.0 - enumerated), cap,
                                      max_len or default_max_len(graph))

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
    are the per-visit semantics of ``CompiledPaths`` and
    ``evaluate_monte_carlo``, over an unbounded horizon.

    A closed class of states that never drops or completes absorbs only by
    detection.  When no move out of it can be detected (1 - d rounds to 1 at
    every target), a walk that enters it stays forever and N diverges there.
    Such a class lies within one stage and detects nothing, so it adds
    nothing to p_t or p_r and is left out of the solve.  The closed classes
    are found once, at build time, as the ``ifg.strong_components`` of the
    support that no move leaves and no member leaks from.  Only these classes
    are checked per defender; every other state has a path to a drop or a
    completion.

    ``masses`` reads the detection vector only at the move targets, so its
    result is memoised per chain on the bytes of those entries: equal bytes
    are equal floats, and a hit returns what a fresh solve would.
    ``solves`` counts the solves actually made.
    """

    def __init__(self, graph: InformationFlowGraph, adversary: AdversaryStrategy):
        table = _MoveTable(graph, adversary)
        self.graph = graph
        m, width = graph.n_stages, table.width
        # breadth-first from (s0, 1) along the positive-probability moves: states
        # in discovery order, each state's moves in ascending action order
        position = np.full(table.known.size, -1)  # code -> state number
        position[0] = 0
        levels = [np.zeros(1, dtype=np.intp)]
        chosen = []  # the moves out of each level
        k = 1
        while levels[-1].size:
            missing = levels[-1][~table.known[levels[-1]]]
            if missing.size:
                raise _no_distribution(missing[0], m)
            moves = (levels[-1][:, None] * width + np.arange(width)).ravel()
            moves = moves[table.prob[moves] > 0.0]
            chosen.append(moves)
            lands = table.next_code[moves]
            lands = lands[lands >= 0]
            lands = lands[position[lands] < 0]
            levels.append(lands[np.sort(np.unique(lands, return_index=True)[1])])
            position[levels[-1]] = np.arange(k, k + levels[-1].size)
            k += levels[-1].size
        self.states = [(c // m, c % m + 1) for c in np.concatenate(levels).tolist()]
        moves = np.concatenate(chosen)
        # a state leaks when it drops or completes with positive probability
        leaks = np.bincount(position[moves[table.next_code[moves] < 0] // width], minlength=k) > 0
        moves = moves[table.target[moves] != DROP]
        self._from = position[moves // width]
        nxt = table.next_code[moves]
        self._target = table.target[moves]
        self._distinct_targets = np.unique(self._target)
        self._solved: dict[bytes, tuple[tuple[float, ...], tuple[float, ...]]] = {}
        self.solves = 0
        self._stage_index = table.from_stage[moves] - 1
        self._prob = table.prob[moves]
        self._inner = nxt >= 0
        to = position[nxt[self._inner]]
        # entry (to, from) of (I - Q)^T, in row-major flat order
        self._flat = to * k + self._from[self._inner]
        stages = np.arange(1, m + 1)
        self._crossings = ((stages > self._stage_index[:, None])
                           & (stages < table.to_stage[moves][:, None])).astype(float)
        succ: list[list[int]] = [[] for _ in range(k)]  # state -> states it moves to
        for v, w in zip(self._from[self._inner].tolist(), to.tolist()):
            succ[v].append(w)
        comp = strong_components(succ, range(k))
        left = {c for v, c in enumerate(comp) if leaks[v] or any(comp[w] != c for w in succ[v])}
        classes: dict[int, list[int]] = {}
        for v, c in enumerate(comp):
            if c not in left:
                classes.setdefault(c, []).append(v)
        self._traps = [
            (np.array(members, dtype=np.intp),
             np.unique(self._target[np.isin(self._from, members)]))
            for members in classes.values()
        ]

    def masses(self, detection: np.ndarray) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Per-stage detection (p_t) and crossing (p_r) masses for ``detection``."""
        d = np.asarray(detection, dtype=float)
        key = d[self._distinct_targets].tobytes()
        if key not in self._solved:
            self._solved[key] = self._solve(d)
            self.solves += 1
        return self._solved[key]

    def _solve(self, d: np.ndarray) -> tuple[tuple[float, ...], tuple[float, ...]]:
        k = len(self.states)
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


def evaluate_exact(
    graph: InformationFlowGraph,
    params: GameParams,
    defender: DefenderStrategy,
    adversary: AdversaryStrategy,
) -> UtilityReport:
    """Payoffs and per-stage masses from one ``AbsorbingChain`` solve.

    Exact over an unbounded horizon, cyclic support included.
    """
    params.check_against(graph)
    p_t, p_r = AbsorbingChain(graph, adversary).masses(defender.detection_vector(graph))
    tag, trap, rule = strategy_costs(graph, params, defender)
    u_d, u_a = assemble_utilities(params, p_t, p_r, tag + trap + rule)
    return UtilityReport(
        u_d=u_d, u_a=u_a, p_t=p_t, p_r=p_r,
        tag_cost=tag, trap_cost=trap, rule_cost=rule, method="exact",
    )


# ---------------------------------------------------------------------------
# Monte Carlo evaluation
# ---------------------------------------------------------------------------


_GUIDE_BUCKETS = 256  # a power of two, so u * B and its floor are exact


class _MoveTable:
    """The one compile of an adversary that ``AbsorbingChain`` and
    ``evaluate_monte_carlo`` read.

    State (v, j) has the code ``v * m + (j - 1)`` of ``graph.landing`` and
    owns the moves ``code * width + col``, one per action in ascending id
    order (``DROP`` first), padded with ``DROP`` at probability 0; ``known``
    flags the codes that have a distribution.  Per move, the flat arrays
    hold the action (``target``), its probability (``prob``), the stage it
    leaves (``from_stage``), the state ``graph.landing`` lands it in
    (``next_code``: -1 completes the attack, -2 drops) and the stage in
    effect there (``to_stage``: n_stages + 1 once the attack completes).
    ``cum`` holds the cumulative action probabilities, the last bound of each
    state (and the padding) at ``inf``, so that the last action takes every
    draw past the second-to-last bound, including draws that rounding leaves
    above the total: a draw u picks the first move whose bound exceeds u.
    Raises ValidationError unless ``adversary.validate`` passes and (s0, 1)
    has a distribution.
    """

    def __init__(self, graph: InformationFlowGraph, adversary: AdversaryStrategy):
        adversary.validate(graph)
        if (SOURCE, 1) not in adversary.moves:
            raise ValidationError("adversary strategy has no distribution for node 0 at stage 1")
        m, dists = graph.n_stages, adversary.moves.values()
        rows = np.repeat([v * m + j - 1 for v, j in adversary.moves], list(map(len, dists)))
        acts = np.fromiter(itertools.chain.from_iterable(dists), np.intp, rows.size)
        probs = np.fromiter(itertools.chain.from_iterable(map(dict.values, dists)), float, rows.size)
        order = np.lexsort((acts, rows))  # by code, then ascending action
        rows, acts, probs = rows[order], acts[order], probs[order]
        cols = np.arange(rows.size) - np.searchsorted(rows, rows)
        n_codes = (graph.n + 1) * m
        self.width = width = int(cols.max()) + 1
        counts = np.bincount(rows, minlength=n_codes)
        self.known = counts > 0
        target = np.full((n_codes, width), DROP, dtype=np.intp)
        target[rows, cols] = acts
        prob = np.zeros((n_codes, width))
        prob[rows, cols] = probs
        cum = np.cumsum(prob, axis=1)
        cum[np.arange(width) >= counts[:, None] - 1] = np.inf
        self.target, self.prob, self.cum = target.ravel(), prob.ravel(), cum.ravel()

        self.from_stage = np.repeat(np.arange(n_codes) % m + 1, width)
        walking = self.target != DROP
        self.next_code = np.full(self.target.size, -2)
        self.next_code[walking] = graph.landing[
            self.target[walking] * m + self.from_stage[walking] - 1]
        self.to_stage = np.where(self.next_code >= 0, self.next_code % m + 1,
                                 np.where(walking, m + 1, self.from_stage))

    def guide(self) -> np.ndarray:
        """The indexed search of Chen & Asau (1974) over B buckets [b/B, (b+1)/B).

        ``guide[code * B + b]`` is the move that every draw in the bucket
        picks, or ``-1 - move`` when a bound lies inside the bucket, naming
        the first move whose bound lies above b/B; from there, the draw
        settles by comparison.
        """
        n_codes, width, B = self.known.size, self.width, _GUIDE_BUCKETS
        x = self.cum.reshape(n_codes, width) * B
        # bound x lies at or below every draw of bucket b iff ceil(x) <= b
        first = np.where(x <= B, np.ceil(np.maximum(x, 0.0)), B).astype(np.intp)
        below = np.bincount((np.arange(n_codes)[:, None] * (B + 1) + first).ravel(),
                            minlength=n_codes * (B + 1)).reshape(n_codes, B + 1)
        guide = np.cumsum(below, axis=1)[:, :B] + (np.arange(n_codes) * width)[:, None]
        inside = (x > 0.0) & (x < B) & (x != np.floor(x))
        code_of, col_of = np.nonzero(inside)
        bucket = np.floor(x[code_of, col_of]).astype(np.intp)
        guide[code_of, bucket] = -1 - guide[code_of, bucket]
        return guide.ravel()


def _no_distribution(code: int, m: int) -> ValidationError:
    v, j = divmod(int(code), m)
    return ValidationError(f"adversary strategy has no distribution for node {v} at stage {j + 1}")


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

    Deterministic for a fixed seed.  Rollouts advance in lock-step over the
    live trials, and each step draws from ``np.random.default_rng(seed)`` in
    a fixed order: one ``random(k)`` call for the k live trials, whose draws
    go to the (node, stage) states in ascending ``node * M + stage - 1``
    order and, within a state, in trial order; then one ``random`` call with
    one detection draw per trial that moves, in trial order.  A draw u picks
    the first action whose cumulative probability exceeds u, the actions
    taken in ascending id order with ``DROP`` first.
    """
    if n_trials < 1:
        raise ValidationError(f"n_trials must be >= 1, got {n_trials}")
    params.check_against(graph)
    if max_len is None:
        max_len = default_max_len(graph)
    m = graph.n_stages
    n = graph.n
    rng = np.random.default_rng(seed)
    d = defender.detection_vector(graph)
    table = _MoveTable(graph, adversary)
    guide, from_stage, to_stage = table.guide(), table.from_stage, table.to_stage

    sort_key = np.uint16 if (n + 1) * m <= 1 << 16 else np.int64  # numpy radix-sorts 16-bit keys
    shifts = to_stage != from_stage
    detect = d[table.target]
    ba_prefix = np.concatenate(([0.0], np.cumsum(params.beta_a)))
    bd_prefix = np.concatenate(([0.0], np.cumsum(params.beta_d)))

    # live trials only: their ids, ascending, and state codes
    ids = np.arange(n_trials)
    code = np.zeros(n_trials, dtype=np.intp)
    u_a = np.zeros(n_trials)
    u_d_path = np.zeros(n_trials)
    pt_counts = np.zeros(m, dtype=np.int64)
    pr_diff = np.zeros(m + 2, dtype=np.int64)  # difference array over stage range
    n_detected = 0
    n_completed = 0
    dropped_after = np.zeros(m + 1, dtype=np.int64)  # index: stages crossed at drop

    for _ in range(max_len):
        if ids.size == 0:
            break
        missing = ~table.known[code]
        if missing.any():
            raise _no_distribution(code[missing].min(), m)
        order = np.argsort(code.astype(sort_key), kind="stable")
        u = np.empty(ids.size)
        u[order] = rng.random(ids.size)
        move = guide[code * _GUIDE_BUCKETS + (u * _GUIDE_BUCKETS).astype(np.intp)]
        tied = np.flatnonzero(move < 0)
        if tied.size:
            at, u_tied = -1 - move[tied], u[tied]
            while (up := table.cum[at] <= u_tied).any():
                at += up
            move[tied] = at

        moving = table.next_code[move] != -2
        # code % m is the number of stages a trial has crossed
        dropped_after += np.bincount(code[~moving] % m, minlength=m + 1)
        ids, move = ids[moving], move[moving]

        caught = rng.random(ids.size) < detect[move]
        if caught.any():
            det_idx = ids[caught]
            pt_counts += np.bincount(from_stage[move[caught]] - 1, minlength=m)
            u_a[det_idx] += params.alpha_a
            u_d_path[det_idx] += params.alpha_d
            n_detected += det_idx.size
            kept = ~caught
            ids, move = ids[kept], move[kept]

        code = table.next_code[move]
        # a move that keeps the stage adds exact zeros to the payoffs and a
        # cancelling +1/-1 pair to pr_diff, so only stage changes are booked
        changed = np.flatnonzero(shifts[move])
        if changed.size:
            old, new = from_stage[move[changed]], to_stage[move[changed]]
            who = ids[changed]
            u_a[who] += ba_prefix[new - 1] - ba_prefix[old - 1]
            u_d_path[who] += bd_prefix[new - 1] - bd_prefix[old - 1]
            pr_diff += np.bincount(old, minlength=m + 2) - np.bincount(new, minlength=m + 2)
            done = int(np.count_nonzero(new > m))
            if done:
                n_completed += done
                going = code >= 0
                ids, code = ids[going], code[going]

    n_truncated = int(ids.size)
    dropped_after += np.bincount(code % m, minlength=m + 1)  # truncation counts as a drop

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
