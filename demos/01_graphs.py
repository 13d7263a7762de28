#!/usr/bin/env python3
"""Build, validate, and render staged attack graphs.

A hand-written five-node graph first, then a synthetic one shaped like a
pruned whole-system provenance graph: 30 nodes, 4 attack stages with two
destinations each, one entry point.
"""

from diftgame import generate, ifg

# A small two-stage system: the attacker enters at node 1, needs a stage-1
# foothold at node 3, and exfiltrates through node 5.
graph = ifg.make_graph(
    n=5,
    edges=[(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5)],
    stages=[[3], [5]],
    vulnerable=[1],
    rule_relevance=[(1,), (1,), (1,), (1,), (1,)],
)

print("violations:", ifg.validate(graph))
print("stage destinations:", graph.stages)
print("relevant rules per node:", graph.rule_relevance)

# The pseudo-source s0 (node 0) is implicit: its out-neighbors are the entries.
print("\npseudo-source successors:", graph.successors[0])

print("\nDOT rendering:\n")
print(ifg.export_dot(graph))

# The synthetic generator guarantees that every destination of every stage is
# reachable from every entry along a stage-respecting walk.
big = generate.gen_graph(
    n_nodes=30, n_stages=4, n_dest_per_stage=(2, 2, 2, 2),
    n_entries=1, edge_density=0.08, seed=7,
)
print(f"generated: {big.n} nodes, {len(big.edges)} edges, "
      f"{sum(len(s) for s in big.stages)} destinations, entry {big.vulnerable}")
print("clean:", ifg.validate(big) == [])

path = "/tmp/demo_graph.json"
ifg.save(big, path)
print("round trip ok:", ifg.load(path) == big)
