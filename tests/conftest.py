"""Shared instance samplers and independent oracles for the test suite.

The oracles here deliberately avoid the library's solver code paths: the
adversary-value oracle enumerates stage-respecting walks directly, the
separator oracle enumerates node subsets, the stationary-distribution
oracle solves a dense linear system, the walk oracles score the walks of
``game.iter_walks`` one by one, the profile-walk oracle plans a pure
profile's walk step by step, the pure-profile oracle scores committed 0/1
defender bits against a fixed walk arrival by arrival, and the two Dinic
oracles (the former recursive and iterative max-flows) give the min cut that
the Boykov-Kolmogorov one must reproduce.  The kernel oracles are the former per-node, per-term, per-state
and per-element loops that the vectorized kernels must reproduce bit for
bit; the edge-draw oracle is the generator's former scalar loop, the
entry-reachability oracle is the former one search per entry, the
representative-paths oracle is the former two searches per cut node, the
strong-components oracle groups vertices by brute-force mutual reachability,
and the staged-reachability oracle searches (node, stage) states to check the
generator's backbone guarantee.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np
import pytest

from diftgame import game, ifg, single_stage
from diftgame.errors import ValidationError
from diftgame.ifg import SOURCE


# ---------------------------------------------------------------------------
# instance samplers
# ---------------------------------------------------------------------------


def random_params(rng, n, m, cost_scale=1.0):
    return game.GameParams(
        alpha_a=-float(rng.uniform(1, 10)),
        beta_a=tuple(float(b) for b in rng.uniform(1, 10, size=m)),
        alpha_d=float(rng.uniform(1, 10)),
        beta_d=tuple(-float(b) for b in rng.uniform(1, 10, size=m)),
        c1=-float(rng.uniform(0.1, 2)) * cost_scale,
        c2=-float(rng.uniform(0.1, 2)) * cost_scale,
        gamma=tuple(-float(g) for g in rng.uniform(0.05, 1, size=n) * cost_scale),
    )


def random_dag_instance(rng, n_max=8, m_max=2, p_edge=0.4, n=None, m=None, n_entries=None):
    """Random acyclic staged instance; every destination of every stage is
    reachable from every entry along a stage-respecting walk by construction.

    Node indices are a topological order: edges only go from lower to higher
    indices, entries sit at the low end, stage destination blocks at
    increasing indices.
    """
    n = int(n if n is not None else rng.integers(3, n_max + 1))
    m = int(m if m is not None else rng.integers(1, m_max + 1))
    while n < m + 1:
        n += 1
    n_entries = int(n_entries if n_entries is not None else rng.integers(1, max(2, n // 3) + 1))
    n_entries = min(n_entries, max(1, n - m))
    entries = list(range(1, n_entries + 1))
    # one destination block per stage, at strictly increasing index ranges
    pool = [v for v in range(n_entries + 1, n + 1)]
    if len(pool) < m:
        pool = list(range(max(2, n - m + 1), n + 1))
        entries = [1]
        n_entries = 1
    cuts = sorted(rng.choice(len(pool), size=m, replace=False).tolist())
    stages = []
    for j in range(m):
        hi = cuts[j]
        lo = 0 if j == 0 else cuts[j - 1] + 1
        size = int(rng.integers(1, min(2, hi - lo + 1) + 1))
        block = sorted(rng.choice(pool[lo:hi + 1], size=size, replace=False).tolist())
        stages.append(block)
    edges = set()
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if rng.random() < p_edge:
                edges.add((u, v))
    for e in entries:  # backbone guarantees staged reachability
        for d in stages[0]:
            edges.add((e, d))
    for j in range(m - 1):
        for d in stages[j]:
            for d2 in stages[j + 1]:
                if d < d2:
                    edges.add((d, d2))
    # destination blocks are strictly increasing, so (d, d2) always has d < d2
    graph = ifg.make_graph(n, edges, stages, entries)
    graph = ifg.make_graph(n, edges, stages, entries, rule_relevance=ifg.entry_reachability(graph))
    return graph


def grid_graph(k, rng, low=0.5, high=4.0, ends=None):
    """k x k grid, entries on the left column, destinations on the right;
    ``ends`` fixes the traffic of both columns."""
    def nid(r, c):
        return r * k + c + 1

    edges = [(nid(r, c), nid(r + dr, c + dc))
             for r in range(k) for c in range(k)
             for dr, dc in ((0, 1), (0, -1), (1, 0), (-1, 0))
             if 0 <= r + dr < k and 0 <= c + dc < k]
    entries = [nid(r, 0) for r in range(k)]
    dests = [nid(r, k - 1) for r in range(k)]
    traffic = rng.uniform(low, high, k * k)
    if ends is not None:
        traffic[np.array(entries + dests) - 1] = ends
    return ifg.make_graph(k * k, edges, [dests], entries, traffic=traffic.tolist(),
                          rule_relevance={}, fractional_traffic=False)


def random_cyclic_instance(rng, n_max=8, m=1, density=0.3):
    """Small cyclic instance via the library generator, randomized sizes."""
    from diftgame import generate

    for _ in range(20):
        n = int(rng.integers(m + 2, n_max + 1))
        dest = [1] * m
        try:
            return generate.gen_graph(n, m, dest, 1, density, seed=int(rng.integers(2**31)))
        except Exception:
            continue
    raise RuntimeError("could not sample a cyclic instance")


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def oracle_advance(graph, node, stage):
    """Stage in effect after the forced crossings at ``node``: the cascading
    membership loop over ``graph.stages``, independent of ``graph.landing``."""
    while stage <= graph.n_stages and node in graph.stages[stage - 1]:
        stage += 1
    return stage


def oracle_decision_states(graph):
    """(s0, 1), then every (v, j) of a real node that ``oracle_advance`` keeps."""
    return [(SOURCE, 1)] + [(v, j) for v in range(1, graph.n + 1)
                            for j in range(1, graph.n_stages + 1)
                            if oracle_advance(graph, v, j) == j]


def oracle_chain_states(graph, adversary):
    """The states of ``AbsorbingChain`` by a tuple-keyed breadth-first search
    from (s0, 1) along the positive-probability moves, in discovery order,
    each state's moves taken in ascending action order."""
    states = [(SOURCE, 1)]
    index = {states[0]}
    for v, j in states:
        for a, p in sorted(adversary.distribution(v, j).items()):
            if p > 0.0 and a != game.DROP:
                nxt = oracle_advance(graph, a, j)
                if nxt <= graph.n_stages and (a, nxt) not in index:
                    index.add((a, nxt))
                    states.append((a, nxt))
    return states


def oracle_best_path_value(graph, params, defender):
    """Maximum of survival * (beta_a[j] - alpha_a) + alpha_a over all
    stage-respecting walks, by direct (node, stage)-simple enumeration.

    Revisiting a (node, stage) state only multiplies extra survival factors
    in [0, 1], so the maximum over such simple walks is the global maximum.
    Returns -inf when no destination is reachable.
    """
    d = defender.detection_vector(graph)
    m = graph.n_stages
    succ = graph.successors
    best = [-math.inf]

    def rec(node, stage, surv, visited):
        for w in succ.get(node, ()):
            s2 = surv * (1.0 - d[w])
            nxt = oracle_advance(graph, w, stage)
            for crossed in range(stage, nxt):
                value = s2 * (params.beta_a[crossed - 1] - params.alpha_a) + params.alpha_a
                if value > best[0]:
                    best[0] = value
            if nxt <= m and (w, nxt) not in visited:
                visited.add((w, nxt))
                rec(w, nxt, s2, visited)
                visited.remove((w, nxt))

    rec(SOURCE, 1, 1.0, {(SOURCE, 1)})
    return best[0]


def oracle_separator_min_cost(graph, params):
    """Minimum cost of a node subset hitting every source-to-destination path,
    by exhaustive enumeration over all 2^n subsets (single-stage graphs)."""
    n = graph.n
    caps = [abs(params.c1 * graph.traffic[i - 1] + params.c2 * graph.traffic[i - 1])
            for i in range(1, n + 1)]
    dest = set(graph.stages[0])
    succ = graph.successors
    best = math.inf

    for mask in range(2**n):
        blocked = {i for i in range(1, n + 1) if mask & (1 << (i - 1))}
        cost = sum(caps[i - 1] for i in blocked)
        if cost >= best:
            continue
        stack = [SOURCE]
        seen = {SOURCE}
        hit = False
        while stack and not hit:
            u = stack.pop()
            for w in succ.get(u, ()):
                if w in blocked or w in seen:
                    continue
                if w in dest:
                    hit = True
                    break
                seen.add(w)
                stack.append(w)
        if not hit:
            best = cost
    return best


class _RecursiveDinic:
    """The former recursive Dinic max-flow (one recursion level per path arc)."""

    def __init__(self, n_vertices: int, tol: float):
        self.n = n_vertices
        self.tol = tol
        self.head: list[list[int]] = [[] for _ in range(n_vertices)]
        self.to: list[int] = []
        self.cap: list[float] = []

    def add_arc(self, u: int, v: int, cap: float) -> int:
        idx = len(self.to)
        self.head[u].append(idx)
        self.to.append(v)
        self.cap.append(cap)
        self.head[v].append(idx + 1)
        self.to.append(u)
        self.cap.append(0.0)
        return idx

    def _levels(self, s: int, t: int) -> list[int] | None:
        level = [-1] * self.n
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for e in self.head[u]:
                v = self.to[e]
                if self.cap[e] > self.tol and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level if level[t] >= 0 else None

    def _blocking(self, u: int, t: int, pushed: float, level, it) -> float:
        if u == t:
            return pushed
        while it[u] < len(self.head[u]):
            e = self.head[u][it[u]]
            v = self.to[e]
            if self.cap[e] > self.tol and level[v] == level[u] + 1:
                got = self._blocking(v, t, min(pushed, self.cap[e]), level, it)
                if got > 0.0:
                    self.cap[e] -= got
                    self.cap[e ^ 1] += got
                    return got
            it[u] += 1
        return 0.0

    def max_flow(self, s: int, t: int) -> float:
        flow = 0.0
        while True:
            level = self._levels(s, t)
            if level is None:
                return flow
            it = [0] * self.n
            while True:
                pushed = self._blocking(s, t, math.inf, level, it)
                if pushed <= 0.0:
                    break
                flow += pushed

    def residual_side(self, s: int) -> set[int]:
        seen = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            for e in self.head[u]:
                v = self.to[e]
                if self.cap[e] > self.tol and v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen


def _tolerance(network) -> float:
    """The library's saturation tolerance: 1e-12 of the largest finite capacity."""
    finite = [c for c in network.capacities if math.isfinite(c)]
    return 1e-12 * max(1.0, max(finite, default=1.0))


def _cut_of_side(network, flow, side):
    """(flow_value, cost, cut_nodes) of the split arcs leaving a residual source side."""
    if network.sink in side:
        return 0.0, 0.0, ()
    arcs = zip(network.arcs, network.capacities)
    cut = [(u, c) for (u, v), c in arcs if u in side and v not in side]
    return flow, math.fsum(c for _, c in cut), tuple(sorted(u for u, _ in cut))


def oracle_recursive_dinic(network):
    """(flow_value, cost, cut_nodes) of the former recursive min cut.

    Recursion depth grows with the augmenting path, so keep instances to a
    few hundred vertices.
    """
    dinic = _RecursiveDinic(2 * network.n + 2, _tolerance(network))
    for (u, v), c in zip(network.arcs, network.capacities):
        dinic.add_arc(u, v, c)
    flow = dinic.max_flow(network.source, network.sink)
    return _cut_of_side(network, flow, dinic.residual_side(network.source))


def oracle_dinic(network):
    """(flow_value, cost, cut_nodes) of the former iterative Dinic min cut.

    Each phase builds BFS levels over arcs with residual capacity above the
    tolerance and then pushes augmenting walks along the level graph.  A walk
    is an explicit stack of arc ids: on a dead end the last arc is dropped and
    its tail's arc pointer advances.  The phase whose BFS misses the sink
    leaves the residual source side as its reached set, so paths of any
    length fit in memory.
    """
    tol = _tolerance(network)
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
    flow = 0.0
    while True:
        level = [-1] * n_vertices
        level[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for e in head[u]:
                v = to[e]
                if cap[e] > tol and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        if level[sink] < 0:
            return _cut_of_side(network, flow, {v for v in range(n_vertices) if level[v] >= 0})
        it = [0] * n_vertices
        walk: list[int] = []
        u = source
        while True:
            if u == sink:
                pushed = min(cap[e] for e in walk)
                for e in walk:
                    cap[e] -= pushed
                    cap[e ^ 1] += pushed
                flow += pushed
                walk.clear()
                u = source
                continue
            arcs = head[u]
            while it[u] < len(arcs):
                e = arcs[it[u]]
                if cap[e] > tol and level[to[e]] == level[u] + 1:
                    walk.append(e)
                    u = to[e]
                    break
                it[u] += 1
            else:  # dead end: back up one arc and skip it
                if not walk:
                    break
                u = to[walk.pop() ^ 1]
                it[u] += 1


def swap_chain(delta):
    """Transition matrix of the swap chain: rates delta[r, s] off the diagonal."""
    delta = np.array(delta, dtype=float)
    np.fill_diagonal(delta, 0.0)
    q = delta.copy()
    np.fill_diagonal(q, 1.0 - delta.sum(axis=1))
    return q


def oracle_stationary(delta):
    """Stationary distribution of the swap chain by dense linear solve."""
    q = swap_chain(delta)
    k = q.shape[0]
    a = np.vstack([q.T - np.eye(k), np.ones((1, k))])
    b = np.zeros(k + 1)
    b[-1] = 1.0
    p, *_ = np.linalg.lstsq(a, b, rcond=None)
    return p


def oracle_power_iteration(delta, tol=1e-12, max_sweeps=100_000):
    """Stationary distribution of the swap chain by power iteration from uniform.

    Independent of the linear solve; only fit for chains that mix, such as
    strictly positive pair weights.
    """
    q = swap_chain(delta)
    p = np.full(q.shape[0], 1.0 / q.shape[0])
    for _ in range(max_sweeps):
        nxt = p @ q
        if np.abs(nxt - p).sum() <= tol:
            return nxt
        p = nxt
    raise AssertionError(f"power iteration did not reach {tol} in {max_sweeps} sweeps")


def exhaustive_pure_defender_average(graph, params, defender, walk):
    """Mixed payoff of a fixed walk by averaging pure bit profiles.

    Enumerates every 0/1 assignment of the strategy's fractional entries,
    weighting by the product of the entry probabilities.  Only sound when
    the walk has no repeated nodes (committed bits versus per-visit trials).
    """
    probs = defender.probs
    free = [(i, c) for i in range(1, graph.n + 1) for c in range(graph.n + 2)
            if 0.0 < probs[i, c] < 1.0]
    base = (probs >= 1.0).astype(float)
    total_d = total_a = 0.0
    for mask in range(2 ** len(free)):
        bits = base.copy()
        weight = 1.0
        for b, (i, c) in enumerate(free):
            if mask & (1 << b):
                bits[i, c] = 1.0
                weight *= probs[i, c]
            else:
                weight *= 1.0 - probs[i, c]
        u_d, u_a = oracle_pure_profile(graph, params, bits, walk)
        total_d += weight * u_d
        total_a += weight * u_a
    return total_d, total_a


def walk_outcomes(graph, defender, adversary):
    """Per-walk survival factors and stage masses over ``game.iter_walks``.

    Yields (walk, survival, reach, detection_prob): ``survival`` has one
    factor 1 - d per arrival (1.0 at s0), ``reach[j]`` is the survival up to
    the crossing of stage j + 1 (0.0 when the walk does not cross it), and
    ``detection_prob`` is one minus the product of the survival factors.
    """
    d = defender.detection_vector(graph)
    for walk in game.iter_walks(graph, adversary):
        survival = [1.0] + [1.0 - d[v] for v in walk.nodes[1:]]
        prefix = np.cumprod(survival)
        reach = [0.0] * graph.n_stages
        for idx, s in walk.crossings:
            reach[s - 1] = float(prefix[idx])
        yield walk, tuple(survival), tuple(reach), float(1.0 - prefix[-1])


def per_walk_utilities(graph, params, defender, adversary):
    """(u_d, u_a) accumulated walk by walk: detection and reach terms per walk."""
    terms_a, terms_d = [], []
    for walk, _, reach, detection in walk_outcomes(graph, defender, adversary):
        w = walk.prob
        terms_a.append(w * detection * params.alpha_a)
        terms_d.append(w * detection * params.alpha_d)
        for j, r in enumerate(reach):
            terms_a.append(w * r * params.beta_a[j])
            terms_d.append(w * r * params.beta_d[j])
    tag, trap, rule = game.strategy_costs(graph, params, defender)
    return math.fsum(terms_d) + tag + trap + rule, math.fsum(terms_a)


def oracle_profile_walk(roster, actions):
    """The deterministic walk a pure profile plans, detection aside.

    The walk ends at a drop action, at completion of the last stage, or at
    the first revisited (node, stage) decision state.
    """
    graph = roster.graph
    entry = roster.players[roster.entry_index]
    node = entry.actions[actions[roster.entry_index]]
    walk = [SOURCE, node]
    stage = 1
    seen = set()
    while True:
        stage = oracle_advance(graph, node, stage)
        if stage > graph.n_stages or (node, stage) in seen:
            break
        seen.add((node, stage))
        idx = roster.move_index[(node, stage)]
        act = roster.players[idx].actions[actions[idx]]
        if act == game.DROP:
            break
        node = act
        walk.append(node)
    return tuple(walk)


def oracle_profile_utilities(graph, params, roster, actions):
    """(u_d, u_a) of a pure profile from its planned walk and its bits."""
    nodes, columns = graph.defender_cells
    bits = np.zeros((graph.n + 1, graph.n + 2))
    cells = roster.defender_cells
    bits[nodes[cells], columns[cells]] = actions[roster.defender_start:]
    return oracle_pure_profile(graph, params, bits, oracle_profile_walk(roster, actions))


def oracle_pure_profile(graph, params, bits, walk):
    """(u_d, u_a) of 0/1 defender bits, an (n+1) x (n+2) matrix, against a
    fixed walk from s0 along edges.

    A node detects iff its tag, its trap and every rule relevant there are
    set, and the walk ends at its first such node; bits are committed once,
    so a revisited unarmed node stays unarmed.  Stage rewards accrue for each
    stage crossed before detection or the end of the walk.  The cost terms
    cover every set bit, on the walk or not, rules not relevant included.
    """
    bits = np.asarray(bits)
    assert bits.shape == (graph.n + 1, graph.n + 2)
    assert walk[0] == SOURCE
    assert all(v in graph.successors[u] for u, v in zip(walk, walk[1:]))
    terms = []
    for i in range(1, graph.n + 1):
        terms += [bits[i, 0] * (params.c1 * graph.traffic[i - 1]),
                  bits[i, 1] * (params.c2 * graph.traffic[i - 1])]
        terms += [bits[i, 2 + r] * params.gamma[r] for r in range(graph.n)]
    u_d, u_a = math.fsum(t for t in terms if t), 0.0
    stage = 1
    for v in walk[1:]:
        if bits[v, 0] and bits[v, 1] and all(bits[v, 1 + r] for r in graph.rule_relevance[v - 1]):
            return u_d + params.alpha_d, u_a + params.alpha_a
        new_stage = oracle_advance(graph, v, stage)
        for s in range(stage, new_stage):
            u_a += params.beta_a[s - 1]
            u_d += params.beta_d[s - 1]
        stage = new_stage
        if stage > graph.n_stages:
            break
    return u_d, u_a


def oracle_gen_edges(rng, n_nodes, edge_density):
    """The generator's former edge draw: one scalar ``rng.random()`` per pair u != v.

    Yields the edges in draw order, so a dense n=1000 draw is never held twice.
    """
    for u in range(1, n_nodes + 1):
        for v in range(1, n_nodes + 1):
            if u != v and rng.random() < edge_density:
                yield (u, v)


def oracle_entry_reachability(graph):
    """The former per-entry search: one DFS from each entry, adding it to
    every node it reaches."""
    reached: list[set[int]] = [set() for _ in range(graph.n + 1)]
    succ = graph.successors
    for e in graph.vulnerable:
        stack = [e]
        seen = {e}
        while stack:
            u = stack.pop()
            reached[u].add(e)
            for w in succ.get(u, ()):
                if w not in seen and w != SOURCE:
                    seen.add(w)
                    stack.append(w)
    return tuple(tuple(sorted(reached[i])) for i in range(1, graph.n + 1))


def _oracle_bfs_path(graph, start, goals, blocked):
    """Shortest path start->any goal avoiding ``blocked``; smallest-node tie-break."""
    if start in goals:
        return (start,)
    succ = graph.successors
    parent = {start: None}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for w in succ.get(u, ()):
            if w in blocked or w in parent:
                continue
            parent[w] = u
            if w in goals:
                path = [w]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                return tuple(reversed(path))
            queue.append(w)
    return None


def oracle_representative_paths(graph, nodes):
    """The former representative paths: per cut node, one BFS from s0 to it
    and one on to the destinations, both avoiding the other cut nodes."""
    dest = set(graph.stages[0])
    paths = {}
    for node in nodes:
        others = set(nodes) - {node}
        prefix = _oracle_bfs_path(graph, SOURCE, {node}, others)
        if prefix is None:
            raise ValidationError(
                f"no source path to cut node {node} avoiding the other cut nodes; "
                "is a split capacity zero?"
            )
        suffix = _oracle_bfs_path(graph, node, dest, others)
        if suffix is None:
            raise ValidationError(
                f"no destination path from cut node {node} avoiding the other cut nodes"
            )
        paths[node] = prefix + suffix[1:]
    return paths


def oracle_strong_components(succ, roots):
    """Vertices grouped by mutual reachability, by brute force: one search
    from every reached vertex.  Returns (reached, frozenset of each vertex's
    class) with the class None where no root reaches the vertex."""
    def reach(start):
        seen = {start}
        stack = [start]
        while stack:
            for w in succ[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    reached = set().union(*(reach(r) for r in roots)) if roots else set()
    forward = {v: reach(v) for v in reached}
    return [frozenset(w for w in forward[v] if v in forward[w]) if v in reached else None
            for v in range(len(succ))]


def staged_reachability_ok(graph):
    """Every stage-j destination is reachable from every entry in stage j.

    A search over (node, stage) arrivals per entry, built from the edge list:
    arriving at a node of D_j in stage j completes stage j there and moves
    the attack on to stage j + 1 (and on again while the node also sits in
    the next sets).
    """
    m = graph.n_stages
    succ = {}
    for u, v in graph.edges:
        succ.setdefault(u, []).append(v)
    for entry in graph.vulnerable:
        seen, completed = set(), set()
        stack = [(entry, 1)]
        while stack:
            node, j = stack.pop()
            if (node, j) in seen:
                continue
            seen.add((node, j))
            while j <= m and node in graph.stages[j - 1]:
                completed.add((node, j))
                j += 1
            if j <= m:
                stack.extend((w, j) for w in succ.get(node, ()))
        if any((d, j) not in completed
               for j, dests in enumerate(graph.stages, start=1) for d in dests):
            return False
    return True


def oracle_detection_prob(node, defender, relevance):
    """Tag * trap * product of the relevant rule probabilities at ``node``."""
    if node == SOURCE:
        return 0.0
    row = defender.probs[node]
    p = row[0] * row[1]
    for r in relevance:
        p *= row[1 + r]
    return float(p)


def oracle_detection_vector(defender, graph):
    """Per-node detection probability, one ``oracle_detection_prob`` call per node."""
    d = np.zeros(graph.n + 1)
    for i in range(1, graph.n + 1):
        d[i] = oracle_detection_prob(i, defender, graph.relevance(i))
    return d


def cell_price(graph, params, node, column):
    """Price of the defender cell (node, column), read off the parameters."""
    if column == 0:
        return params.c1 * graph.traffic[node - 1]
    if column == 1:
        return params.c2 * graph.traffic[node - 1]
    return params.gamma[column - 2]


def oracle_strategy_costs(graph, params, defender):
    """Tag, trap and rule cost terms as three term-by-term ``fsum`` calls."""
    tag = math.fsum(
        defender.probs[i, 0] * (params.c1 * graph.traffic[i - 1]) for i in range(1, graph.n + 1)
    )
    trap = math.fsum(
        defender.probs[i, 1] * (params.c2 * graph.traffic[i - 1]) for i in range(1, graph.n + 1)
    )
    rule = math.fsum(
        defender.probs[i, 1 + r] * params.gamma[r - 1]
        for i in range(1, graph.n + 1)
        for r in range(1, graph.n + 1)
    )
    return tag, trap, rule


def oracle_strategy_for(objective, selected):
    """``DefenderObjective.strategy_for`` as one loop over the selected elements."""
    graph = objective.graph
    probs = np.zeros((graph.n + 1, graph.n + 2))
    for idx in selected:
        node, comp, _ = objective.ground[idx]
        if comp == 0:  # whole-node bundle
            for c in [1, 2] + [2 + r for r in graph.relevance(node)]:
                probs[node, c - 1] += 1.0 / objective.levels
        else:
            probs[node, comp - 1] += 1.0 / objective.levels
    return game.DefenderStrategy(probs)


def oracle_monte_carlo(graph, params, defender, adversary, n_trials, seed, max_len=None):
    """``evaluate_monte_carlo`` with one boolean mask and one draw per state code.

    Each step masks the active trials once per distinct (node, stage) code,
    in ascending code order, and draws that code's uniforms in trial order.
    """
    if max_len is None:
        max_len = game.default_max_len(graph)
    m = graph.n_stages
    n = graph.n
    rng = np.random.default_rng(seed)
    d = oracle_detection_vector(defender, graph)
    targets, cumprobs = {}, {}
    for (v, j), dist in adversary.moves.items():
        acts = sorted(dist.items())
        code = v * m + (j - 1)
        targets[code] = np.array([a for a, _ in acts], dtype=np.int64)
        cumprobs[code] = np.cumsum([p for _, p in acts])
    adv_stage = np.zeros((n + 1, m + 2), dtype=np.int64)
    for v in range(n + 1):
        for j in range(1, m + 1):
            adv_stage[v, j] = oracle_advance(graph, v, j)
    ba_prefix = np.concatenate(([0.0], np.cumsum(params.beta_a)))
    bd_prefix = np.concatenate(([0.0], np.cumsum(params.beta_d)))
    node = np.zeros(n_trials, dtype=np.int64)
    stage = np.ones(n_trials, dtype=np.int64)
    alive = np.ones(n_trials, dtype=bool)
    u_a = np.zeros(n_trials)
    u_d_path = np.zeros(n_trials)
    crossed = np.zeros(n_trials, dtype=np.int64)
    pt_counts = np.zeros(m, dtype=np.int64)
    pr_diff = np.zeros(m + 2, dtype=np.int64)
    n_detected = n_completed = 0
    dropped_after = np.zeros(m + 1, dtype=np.int64)
    for _ in range(max_len):
        active = np.flatnonzero(alive)
        if active.size == 0:
            break
        codes = node[active] * m + (stage[active] - 1)
        chosen = np.empty(active.size, dtype=np.int64)
        for code in np.unique(codes):
            sel = codes == code
            if code not in targets:
                v, j = divmod(code, m)
                raise ValidationError(
                    f"adversary strategy has no distribution for node {v} at stage {j + 1}"
                )
            u = rng.random(int(sel.sum()))
            idx = np.searchsorted(cumprobs[code], u, side="right").clip(max=len(cumprobs[code]) - 1)
            chosen[sel] = targets[code][idx]
        dropping = chosen == game.DROP
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
        done_idx = surv[new_stage > m]
        alive[done_idx] = False
        n_completed += done_idx.size
    trunc_idx = np.flatnonzero(alive)
    n_truncated = int(trunc_idx.size)
    np.add.at(dropped_after, crossed[trunc_idx], 1)
    pr_counts = np.cumsum(pr_diff)[1 : m + 1]
    tag, trap, rule = oracle_strategy_costs(graph, params, defender)
    u_d = u_d_path + (tag + trap + rule)
    ddof = 1 if n_trials > 1 else 0
    return game.UtilityReport(
        u_d=float(u_d.mean()), u_a=float(u_a.mean()),
        p_t=tuple(float(c) / n_trials for c in pt_counts),
        p_r=tuple(float(c) / n_trials for c in pr_counts),
        tag_cost=tag, trap_cost=trap, rule_cost=rule,
        method="monte_carlo", n_trials=n_trials, seed=seed,
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
# reference quantities that only the tests read
# ---------------------------------------------------------------------------


def oracle_objective_value(objective, selected):
    """``DefenderObjective.value`` as the dense path: the strategy matrix of
    ``strategy_for``, scored by ``evaluate_exact`` on a fresh chain."""
    defender = objective.strategy_for(selected)
    return game.evaluate_exact(objective.graph, objective.params, defender, objective.adversary).u_d


def marginal_gain(objective, selected, element):
    """f(V' + element) - f(V') via two objective evaluations."""
    selected = set(selected)
    if element in selected:
        raise ValidationError(f"element {element} is already selected")
    return objective.value(selected | {element}) - objective.value(selected)


def matrix_adversary_value(eq, graph, params, node, defender=None):
    """Adversary payoff of the matrix game's attack path through ``node``."""
    defender = eq.defender if defender is None else defender
    return single_stage._path_payoffs(params, defender.detection_vector(graph)[node], 0.0)[1]


def swap_distribution(p, r, s):
    """Copy of ``p`` with all mass of action ``r`` moved onto action ``s``."""
    if r == s:
        raise ValidationError("swap needs two distinct actions")
    q = np.array(p, dtype=float)
    q[s] += q[r]
    q[r] = 0.0
    return q


def expected_swap_utility(roster, player, p_swapped, profile, graph, params):
    """Reference expectation of a player's utility under a swapped mixture.

    Evaluates sum_a p_swapped(a) * U(a, others), scoring each pure profile
    with ``evaluate_exact`` on its one-hot mixtures; it shares no code with the
    learner's rollout, whose incremental bookkeeping must agree with it.
    The two semantics coincide on pure profiles: with 0/1 detection a node
    detects on every visit or on none, so per-visit and committed detection
    agree, and a committed cycle is a closed class that never detects, which
    the chain leaves out just as the rollout ends the walk there.
    """
    target = roster.players[player]
    p_swapped = np.asarray(p_swapped, dtype=float)
    if len(p_swapped) != target.n_actions:
        raise ValidationError("swapped distribution length differs from the action count")
    total = 0.0
    work = np.array(profile, dtype=np.int64)
    for a_idx, weight in enumerate(p_swapped):
        if weight == 0.0:
            continue
        work[player] = a_idx
        onehot = [np.eye(pl.n_actions)[a] for pl, a in zip(roster.players, work)]
        report = game.evaluate_exact(graph, params, roster.defender_strategy(onehot),
                                     roster.adversary_strategy(onehot))
        total += weight * (report.u_a if target.kind in ("move", "entry") else report.u_d)
    return total


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
