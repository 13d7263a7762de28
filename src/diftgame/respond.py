"""Best-response oracles for both players.

The adversary's best response reduces to a shortest-path computation on a
stage-layered copy of the graph, the (node, stage) states that
``InformationFlowGraph.landing`` numbers: each node carries its detection
probability as a weight, and the response maximizes survival * (stage reward
- detection penalty) + penalty across all candidate destinations, dropping
out when every candidate is worth less than zero.

The defender's best response discretizes probabilities into levels and
maximizes the resulting set function with the double-greedy pass for
unconstrained submodular maximization (randomized 1/2 guarantee,
deterministic 1/3).  The guarantees apply to the node-bundle ground set
(one element arms a whole node by one level), where the payoff is weighted
coverage plus modular costs; the finer per-component ground set is also
supported but its detection components are complements, so it is not
submodular and the pass is a heuristic there.

Every set is scored exactly: the adversary's mixed strategy is compiled
once into an absorbing Markov chain, and each evaluation is one linear
solve, with detection drawn on every node visit and no bound on the walk
length.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import Unreachable, ValidationError
from .game import (
    AbsorbingChain,
    AdversaryStrategy,
    DefenderStrategy,
    GameParams,
    assemble_utilities,
    cell_detection,
    cell_strategy_costs,
    evaluate_monte_carlo,  # noqa: F401  unused here; the benchmark's tracer patches this binding
)
from .ifg import SOURCE, InformationFlowGraph


# ---------------------------------------------------------------------------
# adversary: layered shortest path
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdversaryBestResponse:
    """A maximizing walk (or the drop decision) against a fixed defender.

    ``value`` is survival * (beta_a[target_stage] - alpha_a) + alpha_a for
    the returned walk, the objective the layered shortest path optimizes;
    0.0 when dropping is best.
    """

    path: tuple[int, ...]  # node walk from the pseudo-source; (0,) when dropping
    target_stage: int | None
    survival: float
    value: float
    dropped: bool

    def to_strategy(self, graph: InformationFlowGraph) -> AdversaryStrategy:
        return AdversaryStrategy.pure_walk(graph, self.path)


def adversary_best_response(
    graph: InformationFlowGraph,
    params: GameParams,
    defender: DefenderStrategy,
) -> AdversaryBestResponse:
    """Maximize survival * (beta_a[j] - alpha_a) + alpha_a over stage-respecting walks.

    Optimizes the exact survival product via additive -log(1 - d) node
    weights; the reported value uses the exact product along the returned
    walk.  Ties break toward the lexicographically smallest node sequence.
    """
    params.check_against(graph)
    m = graph.n_stages
    succ = graph.successors
    d = defender.detection_vector(graph)
    weight = np.empty(graph.n + 1)
    weight[0] = 0.0
    for v in range(1, graph.n + 1):
        weight[v] = math.inf if d[v] >= 1.0 else -math.log1p(-d[v])

    # Dijkstra over the ``graph.landing`` codes; heap keys (dist, path) so
    # that equal-cost ties settle on the smallest node sequence.  Nodes
    # detected for certain weigh +inf and settle after every finite state, so
    # they change no finite arrival but still make their destinations candidates.
    landing = graph.landing.tolist()
    best_arrival: dict[int, tuple[float, tuple[int, ...]]] = {}
    settled: set[int] = set()
    heap = [(0.0, (SOURCE,), 0)] if m else []  # without stages no destination exists
    while heap:
        dist, path, code = heapq.heappop(heap)
        if code in settled:
            continue
        settled.add(code)
        for w in succ[code // m]:
            arr_dist = dist + weight[w]
            arr_path = path + (w,)
            arrival = w * m + code % m
            land = landing[arrival]
            for crossed in range(arrival, land if land >= 0 else (w + 1) * m):
                cur = best_arrival.get(crossed)
                if cur is None or (arr_dist, arr_path) < cur:
                    best_arrival[crossed] = (arr_dist, arr_path)
            if land >= 0 and land not in settled:
                heapq.heappush(heap, (arr_dist, arr_path, land))

    candidates = [
        (dest, j) for j, dests in enumerate(graph.stages, start=1) for dest in dests
        if dest * m + j - 1 in best_arrival
    ]
    if not candidates:
        raise Unreachable("no destination of any stage is reachable from the source")

    best: AdversaryBestResponse | None = None
    for dest, j in sorted(candidates, key=lambda c: (c[1], c[0])):
        _, path = best_arrival[dest * m + j - 1]
        survival = float(math.prod(1.0 - float(d[v]) for v in path[1:]))
        value = survival * (params.beta_a[j - 1] - params.alpha_a) + params.alpha_a
        cand = AdversaryBestResponse(path, j, survival, value, dropped=False)
        if best is None or (-value, j, path) < (-best.value, best.target_stage, best.path):
            best = cand
    assert best is not None
    if best.value < 0.0:
        return AdversaryBestResponse((SOURCE,), None, 1.0, 0.0, dropped=True)
    return best


# ---------------------------------------------------------------------------
# defender: discretized submodular maximization
# ---------------------------------------------------------------------------


GroundElement = tuple[int, int, int]  # (node, component, level); component 1=tag, 2=trap,
#                                       2+r=rule r, 0 = whole-node bundle


def build_ground_set(
    graph: InformationFlowGraph, levels: int, scheme: str = "component"
) -> tuple[GroundElement, ...]:
    """Ordered ground set over ``levels`` probability levels per defender cell.

    ``scheme="component"``: one element per (node, component, level), in
    ``defender_cells`` order; a node needs its tag, trap, and relevant-rule
    components selected independently.  Because detection multiplies the
    components, they are complements and the payoff is NOT submodular over
    this ground set (see the node scheme for the guaranteed case).

    ``scheme="node"``: one element per (node, level) that raises the node's
    tag, trap, and every relevant rule together by one level.  With a single
    level the payoff is a weighted-coverage function plus modular costs,
    hence submodular, and the double-greedy guarantees apply.
    """
    if not isinstance(levels, (int, np.integer)) or levels < 1:
        raise ValidationError(f"levels must be a positive integer, got {levels!r}")
    if scheme == "component":
        nodes, columns = graph.defender_cells
        cells = zip(nodes.tolist(), (columns + 1).tolist())
    elif scheme == "node":
        cells = ((node, 0) for node in range(1, graph.n + 1))
    else:
        raise ValidationError(f"unknown ground-set scheme {scheme!r}")
    return tuple((node, comp, level) for node, comp in cells for level in range(1, levels + 1))


class DefenderObjective:
    """f(V') = defender payoff of the strategy induced by a level subset.

    Exact: the adversary strategy is compiled once into an ``AbsorbingChain``
    and every evaluation scores the induced cell vector on it, with detection
    drawn on every node visit and no bound on the walk length.  The chain
    solves again only when detection changes at a node the adversary moves
    to.  ``value`` equals the ``evaluate_exact`` ``u_d`` of ``strategy_for``.
    """

    def __init__(
        self,
        graph: InformationFlowGraph,
        params: GameParams,
        adversary: AdversaryStrategy,
        levels: int = 1,
        scheme: str = "component",
    ):
        self.graph = graph
        params.check_against(self.graph)
        self.params = params
        self.adversary = adversary
        self.levels = levels
        self.scheme = scheme
        self.ground = build_ground_set(self.graph, levels, scheme)
        self.n_evaluations = 0
        self._chain = AbsorbingChain(self.graph, adversary)
        self._prices = params.cell_costs(self.graph)
        # element e raises cell e // levels of ``defender_cells`` in the
        # component scheme and every cell of node e // levels + 1 in the node
        # scheme; _steps[k] is k level steps of 1/levels, added one at a time
        # and clipped to 1 as ``DefenderStrategy.from_cells`` clips
        steps = itertools.accumulate([1.0 / levels] * levels, initial=0.0)
        self._steps = np.minimum(np.array(list(steps)), 1.0)

    def _cells(self, selected) -> np.ndarray:
        """One value per cell of ``graph.defender_cells``: every selected
        element adds one level step to each of its cells.

        A cell raised k times holds ``_steps[k]``, the sum of k adds of the
        same 1/levels constant, which does not depend on their order.
        """
        chosen = np.zeros(len(self.ground), dtype=bool)
        chosen[list(selected)] = True
        owner = np.flatnonzero(chosen) // self.levels
        nodes, _ = self.graph.defender_cells
        if self.scheme == "component":
            raised = np.bincount(owner, minlength=nodes.size)
        else:
            raised = np.bincount(owner, minlength=self.graph.n)[nodes - 1]
        return self._steps[raised]

    def strategy_for(self, selected) -> DefenderStrategy:
        return DefenderStrategy.from_cells(self.graph, self._cells(selected))

    def value(self, selected) -> float:
        self.n_evaluations += 1
        cells = self._cells(selected)
        p_t, p_r = self._chain.masses(cell_detection(self.graph, cells))
        tag, trap, rule = cell_strategy_costs(self.graph, self._prices, cells)
        u_d, _ = assemble_utilities(self.params, p_t, p_r, tag + trap + rule)
        return u_d


@dataclass(frozen=True)
class DiscretizedDefenderSet:
    """Output of the double-greedy pass over the level ground set."""

    levels: int
    scheme: str
    ground: tuple[GroundElement, ...]
    selected: tuple[int, ...]  # indices into ground
    strategy: DefenderStrategy
    value: float
    n_evaluations: int
    variant: str


def defender_best_response_greedy(
    graph: InformationFlowGraph,
    params: GameParams,
    adversary: AdversaryStrategy,
    levels: int = 1,
    variant: str = "randomized",
    seed: int = 0,
    scheme: str = "component",
) -> DiscretizedDefenderSet:
    """One double-greedy pass over the ground set, in ground-set index order.

    ``variant="randomized"`` takes each element with probability
    a+/(a+ + b+) (both-zero ties include); ``"deterministic"`` includes
    exactly when the include marginal is at least the exclude marginal.
    Uses two objective evaluations per element plus the two anchors.  The
    constant-factor guarantees hold for the submodular ``scheme="node"``
    ground set; the component scheme is heuristic (complementary components).
    """
    if variant not in ("randomized", "deterministic"):
        raise ValidationError(f"unknown double-greedy variant {variant!r}")
    objective = DefenderObjective(graph, params, adversary, levels, scheme)
    rng = np.random.default_rng(seed)
    n = len(objective.ground)
    lower: set[int] = set()
    upper: set[int] = set(range(n))
    f_lower = objective.value(lower)
    f_upper = objective.value(upper)
    for e in range(n):
        a = objective.value(lower | {e}) - f_lower
        b = objective.value(upper - {e}) - f_upper
        if variant == "deterministic":
            take = a >= b
        else:
            a_pos, b_pos = max(a, 0.0), max(b, 0.0)
            take = True if a_pos + b_pos == 0.0 else rng.random() < a_pos / (a_pos + b_pos)
        if take:
            lower.add(e)
            f_lower += a
        else:
            upper.discard(e)
            f_upper += b
    assert lower == upper
    return DiscretizedDefenderSet(
        levels=objective.levels,
        scheme=objective.scheme,
        ground=objective.ground,
        selected=tuple(sorted(lower)),
        strategy=objective.strategy_for(lower),
        value=f_lower,
        n_evaluations=objective.n_evaluations,
        variant=variant,
    )
