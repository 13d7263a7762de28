#!/usr/bin/env python3
"""Best responses for both sides.

The attacker's side is a single shortest-path computation on the stage
layering; the defender's side discretizes probabilities into levels and runs
one double-greedy pass over them.
"""

import numpy as np

from diftgame import game, generate, respond

graph = generate.gen_graph(n_nodes=9, n_stages=2, n_dest_per_stage=(1, 1),
                           n_entries=1, edge_density=0.15, seed=3)
params = game.default_params(graph)
rng = np.random.default_rng(1)

# --- adversary against a mixed defense -------------------------------------
defender = game.DefenderStrategy.random(graph, rng)
br = respond.adversary_best_response(graph, params, defender)
print("attacker best response:")
print(f"  walk {br.path} -> stage {br.target_stage}")
print(f"  survival {br.survival:.4f}, objective value {br.value:.2f}")

armed = game.DefenderStrategy.full(graph, 1.0)
br_armed = respond.adversary_best_response(graph, params, armed)
print(f"against a fully armed defense: dropped={br_armed.dropped} value={br_armed.value}")

# --- defender against a mixed attack ----------------------------------------
adversary = game.AdversaryStrategy.random(graph, rng)

for variant in ("randomized", "deterministic"):
    res = respond.defender_best_response_greedy(
        graph, params, adversary, levels=2, variant=variant, seed=11)
    print(f"\n{variant} double greedy (component elements, 2 levels):")
    print(f"  picked {len(res.selected)}/{len(res.ground)} elements, "
          f"{res.n_evaluations} objective evaluations")
    print(f"  defender payoff {res.value:.3f}")

# the node scheme (arm a whole node per element) is the submodular case with
# the 1/2 and 1/3 guarantees
res = respond.defender_best_response_greedy(
    graph, params, adversary, levels=1, scheme="node", seed=11)
armed_nodes = sorted({node for node, _, _ in
                      (res.ground[i] for i in res.selected)})
print(f"\nnode-scheme greedy arms nodes {armed_nodes}, payoff {res.value:.3f}")
