"""Synthetic staged attack graphs for experiments and tests.

The generator samples a random digraph at the requested edge density and
adds a staged backbone (entries -> relay -> stage-1 destinations -> relay ->
stage-2 destinations -> ...) so that every destination of every stage is
reachable from every entry along a stage-respecting walk.  Traffic weights
are uniform, and each node's security-rule set is the set of entry indices
with a directed path to it.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import GenerationFailed, ValidationError
from .ifg import InformationFlowGraph, entry_reachability, make_graph


def random_edges(rng: np.random.Generator, n_nodes: int, edge_density: float) -> list[tuple[int, int]]:
    """Each ordered pair u != v of nodes 1..n is an edge with probability ``edge_density``.

    One draw per off-diagonal cell, in row-major order, so the edges and the
    state ``rng`` is left in are those of one scalar ``rng.random()`` per pair
    in a ``for u: for v:`` loop.  Edges come out in that order too.
    """
    hit = np.zeros((n_nodes, n_nodes), dtype=bool)
    hit[~np.eye(n_nodes, dtype=bool)] = rng.random(n_nodes * (n_nodes - 1)) < edge_density
    us, vs = np.nonzero(hit)
    return list(zip((us + 1).tolist(), (vs + 1).tolist()))


def gen_graph(
    n_nodes: int,
    n_stages: int,
    n_dest_per_stage,
    n_entries: int,
    edge_density: float,
    seed: int,
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
    perm = list(rng.permutation(np.arange(1, n_nodes + 1)))
    entries = sorted(int(v) for v in perm[:n_entries])
    cursor = n_entries
    stages = []
    for size in dest_sizes:
        stages.append(sorted(int(v) for v in perm[cursor:cursor + size]))
        cursor += size
    relays = [int(v) for v in perm[cursor:cursor + n_stages]]

    # Backbone: each entry -> relay 1 -> each D_1 node -> relay 2 -> ... ->
    # each D_M node.  Entries, relays and destination sets are disjoint
    # slices of one permutation, so on the walk entry, relay 1, d_1, ...,
    # relay j, d_j only d_i advances the stage, and it is entered in stage i.
    # Every stage-j destination is thus reachable from every entry while the
    # attack is in stage j.  Random and attaching edges only add walks, so
    # the guarantee holds for every draw without a check.
    edges: set[tuple[int, int]] = set()
    for e in entries:
        edges.add((e, relays[0]))
    for j in range(n_stages):
        for d in stages[j]:
            edges.add((relays[j], d))
            if j + 1 < n_stages:
                edges.add((d, relays[j + 1]))
    edges.update(random_edges(rng, n_nodes, edge_density))

    # attach nodes not yet touched so the digraph is weakly connected
    touched = {u for e in edges for u in e}
    anchors = entries + relays
    for v in range(1, n_nodes + 1):
        if v not in touched:
            edges.add((int(anchors[int(rng.integers(len(anchors)))]), v))

    graph = make_graph(n_nodes, edges, stages, entries)
    return dataclasses.replace(graph, rule_relevance=entry_reachability(graph))
