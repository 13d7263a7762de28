"""Best-response oracles for both players.

The adversary's best response reduces to a shortest-path computation on a
stage-layered copy of the graph: each node carries its detection probability
as a weight, and the response maximizes survival * (stage reward - detection
penalty) + penalty across all candidate destinations, dropping out when every
candidate is worth less than zero.

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
import math
from dataclasses import dataclass

import numpy as np

from .errors import Unreachable, ValidationError
from .game import (
    DROP,
    AbsorbingChain,
    AdversaryStrategy,
    DefenderStrategy,
    GameParams,
    evaluate_monte_carlo,  # noqa: F401  unused here; the benchmark's tracer patches this binding
)
from .ifg import SOURCE, InformationFlowGraph, ensure_augmented, stage_arrivals


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
        if self.dropped:
            strategy = AdversaryStrategy.uniform(graph)
            moves = {state: {DROP: 1.0} for state in strategy.moves}
            return AdversaryStrategy(moves)
        return AdversaryStrategy.pure_walk(graph, self.path)


def adversary_best_response(
    graph: InformationFlowGraph,
    params: GameParams,
    defender: DefenderStrategy,
    weight_mode: str = "log",
) -> AdversaryBestResponse:
    """Maximize survival * (beta_a[j] - alpha_a) + alpha_a over stage-respecting walks.

    ``weight_mode="log"`` (default) optimizes the exact survival product via
    additive -log(1 - w) node weights; ``"linear"`` reproduces the additive
    approximation that sums the raw detection probabilities instead.  Either
    way the reported value uses the exact product along the returned walk.
    Ties break toward the lexicographically smallest node sequence.
    """
    graph = ensure_augmented(graph)
    params.check_against(graph)
    if weight_mode not in ("log", "linear"):
        raise ValidationError(f"unknown weight_mode {weight_mode!r}")
    m = graph.n_stages
    succ = graph.successors
    d = defender.detection_vector(graph)
    weight = np.empty(graph.n + 1)
    weight[0] = 0.0
    for v in range(1, graph.n + 1):
        if weight_mode == "log":
            weight[v] = math.inf if d[v] >= 1.0 else -math.log1p(-d[v])
        else:
            weight[v] = d[v]

    # Dijkstra over (node, post-advance stage); heap keys (dist, path) so that
    # equal-cost ties settle on the smallest node sequence.
    start = (SOURCE, 1)
    best_arrival: dict[tuple[int, int], tuple[float, tuple[int, ...]]] = {}
    settled: set[tuple[int, int]] = set()
    heap: list[tuple[float, tuple[int, ...], int, int]] = [(0.0, (SOURCE,), SOURCE, 1)]
    while heap:
        dist, path, v, j = heapq.heappop(heap)
        if (v, j) in settled:
            continue
        settled.add((v, j))
        for w in succ.get(v, ()):
            if weight[w] == math.inf:
                continue
            arr_dist = dist + weight[w]
            arr_path = path + (w,)
            nxt = graph.advance(w, j)
            for s in range(j, nxt):
                key = (w, s)
                cur = best_arrival.get(key)
                if cur is None or (arr_dist, arr_path) < cur:
                    best_arrival[key] = (arr_dist, arr_path)
            if nxt <= m and (w, nxt) not in settled:
                heapq.heappush(heap, (arr_dist, arr_path, w, nxt))

    arrivals = stage_arrivals(graph)
    candidates = [
        (dest, j) for j, dests in enumerate(graph.stages, start=1) for dest in dests
        if (dest, j) in arrivals
    ]
    if not candidates:
        raise Unreachable("no destination of any stage is reachable from the source")

    best: AdversaryBestResponse | None = None
    for dest, j in sorted(candidates, key=lambda c: (c[1], c[0])):
        hit = best_arrival.get((dest, j))
        if hit is None:
            survival, path = 0.0, (SOURCE,)  # reachable but certain detection
        else:
            _, path = hit
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
    graph: InformationFlowGraph, levels, scheme: str = "component"
) -> tuple[GroundElement, ...]:
    """Ordered ground set over defender probability levels.

    ``scheme="component"``: one element per (node, component, level); a node
    needs its tag, trap, and relevant-rule components selected independently.
    Because detection multiplies the components, they are complements and the
    payoff is NOT submodular over this ground set (see the node scheme for
    the guaranteed case).

    ``scheme="node"``: one element per (node, level) that raises the node's
    tag, trap, and every relevant rule together by one level.  With a single
    level per component the payoff is a weighted-coverage function plus
    modular costs, hence submodular, and the double-greedy guarantees apply.
    Requires all component level counts to be equal.
    """
    levels = normalize_levels(graph, levels)
    ground: list[GroundElement] = []
    if scheme == "component":
        for node in range(1, graph.n + 1):
            components = [1, 2] + [2 + r for r in graph.relevance(node)]
            for comp in components:
                for level in range(1, levels[comp - 1] + 1):
                    ground.append((node, comp, level))
    elif scheme == "node":
        if len(set(levels)) != 1:
            raise ValidationError("the node scheme needs one shared level count")
        for node in range(1, graph.n + 1):
            for level in range(1, levels[0] + 1):
                ground.append((node, 0, level))
    else:
        raise ValidationError(f"unknown ground-set scheme {scheme!r}")
    return tuple(ground)


def normalize_levels(graph: InformationFlowGraph, levels) -> tuple[int, ...]:
    if isinstance(levels, int):
        levels = (levels,) * (graph.n + 2)
    levels = tuple(int(z) for z in levels)
    if len(levels) != graph.n + 2:
        raise ValidationError(
            f"levels must give one positive integer per component (2+n={graph.n + 2}), got {len(levels)}"
        )
    if any(z < 1 for z in levels):
        raise ValidationError(f"all levels must be >= 1, got {levels}")
    return levels


class DefenderObjective:
    """f(V') = defender payoff of the strategy induced by a level subset.

    Exact: the adversary strategy is compiled once into an ``AbsorbingChain``
    and every evaluation solves it for the induced detection vector, with
    detection drawn on every node visit and no bound on the walk length.
    """

    def __init__(
        self,
        graph: InformationFlowGraph,
        params: GameParams,
        adversary: AdversaryStrategy,
        levels=1,
        scheme: str = "component",
    ):
        self.graph = ensure_augmented(graph)
        params.check_against(self.graph)
        self.params = params
        self.levels = normalize_levels(self.graph, levels)
        self.scheme = scheme
        self.ground = build_ground_set(self.graph, self.levels, scheme)
        self.n_evaluations = 0
        self._chain = AbsorbingChain(self.graph, adversary)

    def strategy_for(self, selected) -> DefenderStrategy:
        probs = np.zeros((self.graph.n + 1, self.graph.n + 2))
        for idx in selected:
            node, comp, _ = self.ground[idx]
            if comp == 0:  # whole-node bundle
                for c in [1, 2] + [2 + r for r in self.graph.relevance(node)]:
                    probs[node, c - 1] += 1.0 / self.levels[c - 1]
            else:
                probs[node, comp - 1] += 1.0 / self.levels[comp - 1]
        return DefenderStrategy(probs)

    def value(self, selected) -> float:
        self.n_evaluations += 1
        u_d, _ = self._chain.evaluate(self.params, self.strategy_for(selected))
        return u_d


def marginal_gain(objective: DefenderObjective, selected, element: int) -> float:
    """f(V' + element) - f(V') via two objective evaluations."""
    selected = set(selected)
    if element in selected:
        raise ValidationError(f"element {element} is already selected")
    return objective.value(selected | {element}) - objective.value(selected)


@dataclass(frozen=True)
class DiscretizedDefenderSet:
    """Output of the double-greedy pass over the level ground set."""

    levels: tuple[int, ...]
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
    levels=1,
    variant: str = "randomized",
    seed: int = 0,
    scheme: str = "component",
    objective: DefenderObjective | None = None,
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
    if objective is None:
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
