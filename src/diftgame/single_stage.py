"""Exact single-stage equilibrium: node-split flow network, min-cut, matrix game.

For a one-stage attack the defender's equilibrium support is a minimum-cost
node cut between the attack source and the destination set, where a node's
cost is the magnitude of its combined tag+trap cost.  The cut comes from a
Boykov-Kolmogorov max-flow on the node-split network; it is iterative, so it
handles attack paths of any length.  The cut is the minimal minimum cut (the
residual source side), which every maximum flow shares, so it does not depend
on the max-flow algorithm.  The equilibrium itself comes from a small matrix
game over the cut nodes: the adversary mixes over disjoint attack paths (one
per cut node) so the defender is indifferent between detecting and not, and
the defender's per-component probabilities solve a log-linear system that
equalizes detection products.

Payoff conventions: the matrix game charges a cut node's defense spending on
the attack path through it (weighted by that path's probability); the
``u_d``/``u_a`` fields and all deviation checks use these matrix-game
payoffs.  Strategy-level payoffs for the same strategies can always be
recovered with the evaluators in ``game``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import respond
from .errors import DegenerateEquilibrium, NotSingleStage, ValidationError
from .game import DefenderStrategy, GameParams
from .ifg import SOURCE, InformationFlowGraph, entry_reachability

_CAP_TOL = 1e-12
_NONE, _ROOT = -1, -2  # tree-parent marks of a free vertex or orphan, and of a root


@dataclass(frozen=True)
class FlowNetwork:
    """Node-split network: 2n+2 vertices, split arcs carry the finite capacities.

    Vertex ids: source 0, node i at i, its copy i' at n+i, sink 2n+1.
    """

    n: int
    arcs: tuple[tuple[int, int], ...]
    capacities: tuple[float, ...]
    source: int
    sink: int


def build_flow_network(graph: InformationFlowGraph, params: GameParams) -> FlowNetwork:
    """Entry arcs, split arcs, shifted graph arcs, destination arcs.

    Split arcs get capacity |tag cost + trap cost| of their node (costs are
    negative by convention and flow capacities must not be); everything else
    is unbounded.
    """
    if graph.n_stages != 1:
        raise NotSingleStage(f"flow network needs a single-stage graph, got M={graph.n_stages}")
    params.check_against(graph)
    n = graph.n
    sink = 2 * n + 1
    arcs: list[tuple[int, int]] = []
    caps: list[float] = []
    for e in graph.vulnerable:  # E_lambda
        arcs.append((SOURCE, e))
        caps.append(math.inf)
    tag, trap = params.tag_trap_costs(graph)
    for i, cost in enumerate((tag + trap).tolist(), start=1):  # split arcs
        arcs.append((i, i + n))
        caps.append(abs(cost))
    for u, v in graph.edges:  # shifted original arcs
        arcs.append((u + n, v))
        caps.append(math.inf)
    for d in graph.stages[0]:  # destination arcs
        arcs.append((d + n, sink))
        caps.append(math.inf)
    return FlowNetwork(n=n, arcs=tuple(arcs), capacities=tuple(caps), source=SOURCE, sink=sink)


@dataclass(frozen=True)
class MinCutResult:
    cut_nodes: tuple[int, ...]
    cost: float
    flow_value: float


def _max_flow(network: FlowNetwork, tol: float) -> tuple[float, set[int]]:
    """Boykov-Kolmogorov max-flow; returns the flow value and the residual source side.

    A source tree and a sink tree grow from a FIFO queue of active vertices
    over arcs with residual capacity above ``tol``.  Where a source-tree arc
    reaches the sink tree, the path through both trees is augmented.  The
    vertices whose tree arcs saturate become orphans, and each orphan either
    adopts a new parent of its own tree that still walks back to the tree's
    root or is freed.  The trees survive between augmentations, so a
    search never restarts from scratch.  When the queue empties no augmenting
    path is left, and one BFS over residual arcs gives the source side: the
    same set for every maximum flow (Picard and Queyranne), so the cut does
    not depend on the augmentation order.
    """
    n_vertices = network.sink + 1
    source, sink = network.source, network.sink
    head: list[list[int]] = [[] for _ in range(n_vertices)]
    to: list[int] = []
    cap: list[float] = []
    for (u, v), c in zip(network.arcs, network.capacities):
        head[u].append(len(to))  # arc e's reverse is e ^ 1
        to.append(v)
        cap.append(c)
        head[v].append(len(to))
        to.append(u)
        cap.append(0.0)
    # tree[v]: 0 free, 1 source tree, 2 sink tree.  parent[v] is the tree arc
    # parent -> v in the source tree and v -> parent in the sink tree; _ROOT
    # marks the two roots and _NONE a free vertex or an orphan.
    tree = [0] * n_vertices
    parent = [_NONE] * n_vertices
    tree[source], tree[sink] = 1, 2
    parent[source] = parent[sink] = _ROOT
    active = deque([source, sink])
    orphans: deque[int] = deque()
    flow = 0.0
    while active:
        p = active[0]
        side = tree[p]
        if not side:  # freed after it was queued
            active.popleft()
            continue
        meet = -1
        for e in head[p]:
            a = e if side == 1 else e ^ 1  # the residual arc the tree grows along
            if cap[a] > tol:
                q = to[e]
                if tree[q] == 0:
                    tree[q] = side
                    parent[q] = a
                    active.append(q)
                elif tree[q] != side:
                    meet = a
                    break
        if meet < 0:  # p has no residual arc left to grow along
            active.popleft()
            continue
        # augment source ~> to[meet ^ 1] -> to[meet] ~> sink; p stays active
        path = [(meet, _NONE)]  # (arc, the vertex whose tree arc it is, if any)
        v = to[meet ^ 1]
        while v != source:
            path.append((parent[v], v))
            v = to[parent[v] ^ 1]
        v = to[meet]
        while v != sink:
            path.append((parent[v], v))
            v = to[parent[v]]
        pushed = min(cap[e] for e, _ in path)
        for e, v in path:
            cap[e] -= pushed
            cap[e ^ 1] += pushed
            if cap[e] <= tol and v != _NONE:
                parent[v] = _NONE
                orphans.append(v)
        flow += pushed
        while orphans:
            v = orphans.popleft()
            side = tree[v]
            for e in head[v]:
                a = e ^ 1 if side == 1 else e  # the arc a new parent would hold
                q = to[e]
                if tree[q] == side and cap[a] > tol:
                    w = q  # adopt q only if it still walks back to its root
                    while parent[w] >= 0:
                        w = to[parent[w] ^ 1] if side == 1 else to[parent[w]]
                    if parent[w] == _ROOT:
                        parent[v] = a
                        break
            else:  # no parent left: free v; its children become orphans
                tree[v] = 0
                for e in head[v]:
                    q = to[e]
                    if tree[q] != side:
                        continue
                    if cap[e ^ 1 if side == 1 else e] > tol:
                        active.append(q)
                    a = parent[q]
                    if a >= 0 and to[a ^ 1 if side == 1 else a] == v:
                        parent[q] = _NONE
                        orphans.append(q)
    seen = [False] * n_vertices
    seen[source] = True
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for e in head[u]:
            v = to[e]
            if cap[e] > tol and not seen[v]:
                seen[v] = True
                queue.append(v)
    return flow, {v for v in range(n_vertices) if seen[v]}


def min_cut(network: FlowNetwork) -> MinCutResult:
    """Max-flow, then the split arcs leaving the residual source side.

    Deterministic given the network's arc order, and iterative, so path
    length is bounded by memory rather than the recursion limit.  When the
    sink is not reachable at all the cut is empty with cost zero.  The
    saturation tolerance scales with the largest finite capacity.
    """
    finite = [c for c in network.capacities if math.isfinite(c)]
    tol = _CAP_TOL * max(1.0, max(finite, default=1.0))
    flow, side = _max_flow(network, tol)
    cut_nodes = []
    cut_caps = []
    for (u, v), c in zip(network.arcs, network.capacities):
        if u in side and v not in side:
            if not (1 <= u <= network.n and v == u + network.n):
                raise ValidationError(f"min cut crossed a non-split arc ({u}, {v})")
            cut_nodes.append(u)
            cut_caps.append(c)
    cost = math.fsum(cut_caps)
    if not math.isclose(cost, flow, rel_tol=1e-9, abs_tol=1e-9):
        raise ValidationError(f"max-flow/min-cut duality violated: flow={flow}, cut={cost}")
    return MinCutResult(tuple(sorted(cut_nodes)), cost, flow)


# ---------------------------------------------------------------------------
# matrix game
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SingleStageEquilibrium:
    """Equilibrium of the cut-node matrix game.

    ``pi`` is the adversary's mixture over the per-cut-node attack paths;
    ``defender`` arms exactly the cut nodes.  ``diagnostics`` is "interior"
    when a nonnegative mixture satisfying the indifference condition exists
    and the defender's log-linear closed form solves, else "boundary" (the
    dominant pure row plus the adversary's best response to it).
    """

    cut: MinCutResult
    nodes: tuple[int, ...]
    relevance: dict[int, tuple[int, ...]]
    costs: dict[int, float]
    defender: DefenderStrategy
    pi: dict[int, float]
    paths: dict[int, tuple[int, ...]]
    products: dict[int, float]
    u_d: float
    u_a: float
    diagnostics: str
    product_spread: float
    notes: tuple[str, ...]

    def matrix_defender_payoff(
        self,
        graph: InformationFlowGraph,
        params: GameParams,
        defender: DefenderStrategy | None = None,
        pi: dict[int, float] | None = None,
    ) -> float:
        """Defender payoff of the matrix game for (possibly deviated) inputs.

        Node spending is charged on the attack path through the node, so each
        cut node's cost terms are weighted by its path probability.
        """
        defender = self.defender if defender is None else defender
        pi = self.pi if pi is None else pi
        detection = defender.detection_vector(graph)
        terms = defender.cells(graph) * params.cell_costs(graph)
        cells = _cell_slices(graph, list(pi))
        total = 0.0
        for node, weight in pi.items():
            spent = _spending(terms[cells[node]])
            total += weight * _path_payoffs(params, detection[node], spent)[0]
        return total


def _cell_slices(graph: InformationFlowGraph, nodes) -> dict[int, slice]:
    """Per node, the slice of ``graph.defender_cells`` that holds its cells:
    tag, trap, then its rules."""
    cell_nodes, _ = graph.defender_cells
    lo = np.searchsorted(cell_nodes, nodes, side="left").tolist()
    hi = np.searchsorted(cell_nodes, nodes, side="right").tolist()
    return {node: slice(a, b) for node, a, b in zip(nodes, lo, hi)}


def _spending(terms) -> float:
    """Expected defense spending of one node (signed) from the cost terms of
    its cells, tag and trap first."""
    tag, trap, *rules = terms.tolist()
    return tag + trap + math.fsum(rules)


def _path_payoffs(params: GameParams, prod: float, spent: float) -> tuple[float, float]:
    """Defender and adversary payoffs of the attack path through a cut node
    that detects with probability ``prod`` and spends ``spent`` (signed)."""
    return (prod * params.alpha_d + (1.0 - prod) * params.beta_d[0] + spent,
            (1.0 - prod) * params.beta_a[0] + prod * params.alpha_a)


def _names(columns) -> str:
    """Readable names of defender columns: 0 tag, 1 trap, 1 + r rule r."""
    return ", ".join({0: "tag", 1: "trap"}.get(c, f"rule {c - 1}") for c in columns)


def _bfs(adj, starts, cut) -> tuple[list[int], list[int]]:
    """Levels and tree parents of a BFS over ``adj`` from ``starts`` that
    takes each vertex's neighbors in order; vertices in ``cut`` are reached
    but never expanded.  Both are -1 where no start reaches a vertex."""
    level, parent = [-1] * len(adj), [-1] * len(adj)
    for s in starts:
        level[s], parent[s] = 0, s
    queue = list(starts)
    for u in queue:
        if u not in cut:
            for w in adj[u]:
                if level[w] < 0:
                    level[w], parent[w] = level[u] + 1, u
                    queue.append(w)
    return level, parent


def _representative_paths(graph, nodes) -> dict[int, tuple[int, ...]]:
    """Per cut node, an attack path through it avoiding the other cut nodes:
    the lexicographically smallest shortest path from s0 to the node, then
    the lexicographically smallest shortest path on to a destination.

    Two whole-graph searches serve every cut node.  The BFS tree from s0 over
    ascending successors gives each prefix.  A backward BFS from the
    destinations gives each node's distance to one, and each suffix walks
    down those distances, taking the smallest successor outside the cut one
    step nearer.  Neither search expands a cut node.  Minimality of the cut
    guarantees existence when split capacities are positive.
    """
    cut = set(nodes)
    succ = graph.successors
    pred: list[list[int]] = [[] for _ in range(graph.n + 1)]
    for u, v in graph.edges:
        pred[v].append(u)
    _, parent = _bfs(succ, [SOURCE], cut)
    dist, _ = _bfs(pred, graph.stages[0], cut)
    paths = {}
    for node in nodes:
        if parent[node] < 0:
            raise ValidationError(
                f"no source path to cut node {node} avoiding the other cut nodes; "
                "is a split capacity zero?"
            )
        if dist[node] < 0:
            raise ValidationError(
                f"no destination path from cut node {node} avoiding the other cut nodes"
            )
        path = [node]
        while path[-1] != SOURCE:
            path.append(parent[path[-1]])
        path.reverse()
        for d in range(dist[node] - 1, -1, -1):
            path.append(next(w for w in succ[path[-1]] if dist[w] == d and w not in cut))
        paths[node] = tuple(path)
    return paths


def solve_matrix_game(
    graph: InformationFlowGraph, params: GameParams, cut: MinCutResult
) -> SingleStageEquilibrium:
    """Solve the cut-node matrix game of the single-stage attack.

    (a) cost per cut node: tag + trap + relevant-rule costs (signed).
    (b) adversary mixture: nonnegative, normalized, making the defender
        indifferent between its two rows.  A node whose indifference
        coefficient t_k is positive weighs minus the sum of the negative
        coefficients, a negative one the sum of the positive ones, a zero
        one their mean (1 when either sum is empty); a zero total weight
        means no such mixture exists.
    (c) defender probabilities per cut node from the log-linear system
        log p_k = S - log(ratio_k) with S = sum(log ratio_k) / (K - 1),
        where ratio_k is the component's cost over the detection margin
        (stage penalty minus detection reward).  A component whose solved
        p_k exceeds 1 is clamped to 1 and S is re-solved over the K' free
        components, S = sum_free(log ratio_k) / (K' - 1), until no free p_k
        exceeds 1; a note names the clamped components.  When fewer than two
        components stay free, or a clamped component's first-order condition
        S >= log ratio_k fails, there is no interior solution.
    (d) detection products are compared across cut nodes (their spread is
        reported; at an exact equilibrium it is zero).
    (e) otherwise the boundary: a dominant pure defender row.  With every
        coefficient negative it is the Detected row (every cut cell on):
        each attack path crosses the cut, so the adversary drops.  Else it
        is the Not-detected row (no cell on): the adversary never drops and
        takes its best-response path, named by the smallest cut node on it.
    """
    if graph.n_stages != 1:
        raise NotSingleStage(f"matrix game needs a single-stage graph, got M={graph.n_stages}")
    params.check_against(graph)
    if not cut.cut_nodes:
        raise ValidationError("cannot solve the matrix game for an empty cut")
    nodes = cut.cut_nodes
    notes: list[str] = []

    reach = entry_reachability(graph)
    relevance = {}
    for node in nodes:
        declared = graph.relevance(node)
        via_dfs = reach[node - 1]
        relevance[node] = declared
        if tuple(declared) != tuple(via_dfs):
            notes.append(
                f"node {node}: declared rule relevance {declared} differs from "
                f"entry reachability {via_dfs}; using the declared set"
            )

    beta = params.beta_d[0]
    denom = beta - params.alpha_d  # < 0
    price = params.cell_costs(graph)
    cell_nodes, columns = graph.defender_cells
    cells = _cell_slices(graph, nodes)
    costs = {node: _spending(price[cells[node]]) for node in nodes}  # every cell on

    # (b) indifference mixture
    t = {node: denom - costs[node] for node in nodes}
    tol = 1e-9 * max(1.0, abs(denom))
    pos_sum = math.fsum(t[i] for i in nodes if t[i] > tol)
    neg_sum = math.fsum(-t[i] for i in nodes if t[i] < -tol)  # +0.0, never -0.0, when empty
    mid = (pos_sum + neg_sum) / 2.0 if pos_sum and neg_sum else 1.0
    weights = {i: neg_sum if t[i] > tol else pos_sum if t[i] < -tol else mid for i in nodes}
    total = math.fsum(weights.values())

    solved = _interior_cells(price, cells, columns, denom, notes) if total else None
    if solved:
        values, products = solved
        pi = {i: w / total for i, w in weights.items()}
        paths = _representative_paths(graph, nodes)
        payoffs = [
            _path_payoffs(params, products[i], _spending(values[cells[i]] * price[cells[i]]))
            for i in nodes
        ]
        u_d = math.fsum(pi[i] * u for i, (u, _) in zip(nodes, payoffs))
        u_a = math.fsum(pi[i] * u for i, (_, u) in zip(nodes, payoffs))
    else:  # (e)
        row = float(all(t[i] < 0 for i in nodes))
        values = np.isin(cell_nodes, nodes) * row
        products = dict.fromkeys(nodes, row)
        if row:
            notes += ["all indifference coefficients negative: defender plays the Detected row",
                      "adversary best response is to drop immediately"]
            pi, paths, u_d, u_a = {}, {}, math.fsum(costs.values()), 0.0
        else:
            positive = all(t[i] > 0 for i in nodes)
            notes.append(("all indifference coefficients positive: " if positive else "")
                         + "defender plays the Not-detected row")
            br = respond.adversary_best_response(graph, params, DefenderStrategy.zeros(graph))
            anchor = next(i for i in nodes if i in br.path)
            # undetected for certain and spending nothing, the defender pays beta
            pi, paths, u_d, u_a = {anchor: 1.0}, {anchor: br.path}, beta, br.value

    spread = max(products.values()) - min(products.values())
    if spread > 1e-9:
        notes.append(
            f"detection products differ across cut nodes by {spread:.3e}; "
            "the adversary side of the equilibrium is only approximate"
        )
    return SingleStageEquilibrium(
        cut=cut,
        nodes=nodes,
        relevance=relevance,
        costs=costs,
        defender=DefenderStrategy.from_cells(graph, values),
        pi=pi,
        paths=paths,
        products=products,
        u_d=u_d,
        u_a=u_a,
        diagnostics="interior" if solved else "boundary",
        product_spread=spread,
        notes=tuple(notes),
    )


def _interior_cells(price, cells, columns, denom, notes):
    """Step (c) of ``solve_matrix_game``: the defender's value for every cell
    and the detection product of every cut node, or None, after noting the
    clamp, when a node has no interior solution.

    Each free component's cost-to-margin ratio pins the product of the
    other components; k runs over cell indices, which within a node follow
    the column order.
    """
    values = np.zeros(price.size)
    products = {}
    clamp_notes = []
    for node, span in cells.items():
        log_ratios = {}
        for k in range(span.start, span.stop):
            ratio = float(price[k]) / denom
            if ratio <= 0.0:
                raise DegenerateEquilibrium(
                    f"cost ratio for component {columns[k] + 1} at node {node} is {ratio!r} <= 0 "
                    "(a zero-cost component cannot be mixed)"
                )
            log_ratios[k] = math.log(ratio)
        free, clamped = list(log_ratios), []
        while len(free) >= 2:
            s = math.fsum(log_ratios[k] for k in free) / (len(free) - 1)
            over = [k for k in free if math.exp(s - log_ratios[k]) > 1.0 + 1e-9]
            if not over:
                break
            clamped = sorted(clamped + over)
            free = [k for k in free if k not in over]
        # a clamped component may stay at 1 only while its marginal gain is
        # nonnegative: the product of the others, exp(s), is at least its ratio
        if len(free) < 2 or any(s < log_ratios[k] for k in clamped):
            notes.append(
                f"node {node}: clamping {_names(columns[clamped])} to probability 1 leaves no "
                f"interior solution for {_names(columns[free]) or 'no other component'}"
            )
            return None
        if clamped:
            clamp_notes.append(f"node {node}: {_names(columns[clamped])} clamped to probability 1")
        for k in free:
            values[k] = min(math.exp(s - log_ratios[k]), 1.0)
        values[clamped] = 1.0
        products[node] = math.exp(s)
    notes += clamp_notes
    return values, products


def solve_single_stage(graph: InformationFlowGraph, params: GameParams) -> SingleStageEquilibrium:
    """Build the flow network, take its min cut, and solve the matrix game."""
    network = build_flow_network(graph, params)
    cut = min_cut(network)
    return solve_matrix_game(graph, params, cut)
