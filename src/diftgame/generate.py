"""Synthetic staged attack graphs for experiments and tests.

The generator samples a random digraph at the requested edge density and
adds a staged backbone (entries -> relay -> stage-1 destinations -> relay ->
stage-2 destinations -> ...) so that every destination of every stage is
reachable from every entry along a stage-respecting walk.  Traffic weights
are uniform, and each node's security-rule set is the set of entry indices
with a directed path to it.
"""

from __future__ import annotations

import numpy as np

from .errors import GenerationFailed, ValidationError
from .ifg import InformationFlowGraph, entry_reachability, make_graph, stage_arrivals


def staged_reachability_ok(graph: InformationFlowGraph) -> bool:
    """Every stage-j destination reachable from every entry in stage j."""
    for entry in graph.vulnerable:
        sub = make_graph(
            graph.n,
            [e for e in graph.edges if e[0] != 0],
            graph.stages,
            [entry],
            traffic=graph.traffic,
            labels=graph.labels,
            rule_relevance=graph.rule_relevance,
            fractional_traffic=graph.fractional_traffic,
        )
        arrivals = stage_arrivals(sub)
        for j, dests in enumerate(graph.stages, start=1):
            for d in dests:
                if (d, j) not in arrivals:
                    return False
    return True


def gen_graph(
    n_nodes: int,
    n_stages: int,
    n_dest_per_stage,
    n_entries: int,
    edge_density: float,
    seed: int,
    max_attempts: int = 50,
) -> InformationFlowGraph:
    """Random staged attack graph, deterministic in ``seed``.

    ``n_dest_per_stage`` is an int or one int per stage.  Destination sets
    are disjoint from each other and from the entry set.  Raises
    GenerationFailed when the node budget cannot host the requested
    destinations, entries, and one relay per stage.
    """
    if isinstance(n_dest_per_stage, int):
        dest_sizes = [n_dest_per_stage] * n_stages
    else:
        dest_sizes = [int(k) for k in n_dest_per_stage]
    if len(dest_sizes) != n_stages:
        raise ValidationError(
            f"n_dest_per_stage lists {len(dest_sizes)} stages, expected {n_stages}"
        )
    if n_stages < 1 or n_entries < 1 or min(dest_sizes) < 1:
        raise ValidationError("stages, entries, and destination counts must be positive")
    if not 0.0 <= edge_density <= 1.0:
        raise ValidationError(f"edge_density must lie in [0, 1], got {edge_density}")
    needed = sum(dest_sizes) + n_entries + n_stages
    if needed > n_nodes:
        raise GenerationFailed(
            f"{n_nodes} nodes cannot host {sum(dest_sizes)} destinations, "
            f"{n_entries} entries, and {n_stages} relay nodes"
        )

    rng = np.random.default_rng(seed)
    for _ in range(max_attempts):
        perm = list(rng.permutation(np.arange(1, n_nodes + 1)))
        entries = sorted(int(v) for v in perm[:n_entries])
        cursor = n_entries
        stages = []
        for size in dest_sizes:
            stages.append(sorted(int(v) for v in perm[cursor:cursor + size]))
            cursor += size
        relays = [int(v) for v in perm[cursor:cursor + n_stages]]
        cursor += n_stages

        edges: set[tuple[int, int]] = set()
        for e in entries:
            edges.add((e, relays[0]))
        for j in range(n_stages):
            for d in stages[j]:
                edges.add((relays[j], d))
                if j + 1 < n_stages:
                    edges.add((d, relays[j + 1]))
        for u in range(1, n_nodes + 1):
            for v in range(1, n_nodes + 1):
                if u != v and rng.random() < edge_density:
                    edges.add((u, v))

        # attach nodes not yet touched so the digraph is weakly connected
        touched = {u for e in edges for u in e}
        anchors = entries + relays
        for v in range(1, n_nodes + 1):
            if v not in touched:
                edges.add((int(anchors[int(rng.integers(len(anchors)))]), v))

        graph = make_graph(
            n_nodes,
            edges,
            stages,
            entries,
            rule_relevance=[()] * n_nodes,  # placeholder, filled from reachability
        )
        graph = make_graph(
            n_nodes,
            edges,
            stages,
            entries,
            rule_relevance=entry_reachability(graph),
        )
        if staged_reachability_ok(graph):
            return graph
    raise GenerationFailed(
        f"no admissible graph in {max_attempts} attempts for "
        f"n={n_nodes}, stages={dest_sizes}, entries={n_entries}, density={edge_density}"
    )
