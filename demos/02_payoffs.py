#!/usr/bin/env python3
"""Evaluate a strategy pair two ways and watch the estimates agree.

The exact evaluator solves the adversary's walk as an absorbing Markov
chain; the Monte Carlo evaluator samples seeded rollouts.  A committed 0/1
defense against a fixed walk is the exact evaluator on a 0/1 defender
strategy and a pure-walk adversary.
"""

import math

import numpy as np

from diftgame import game, ifg

graph = ifg.make_graph(
    n=4,
    edges=[(1, 2), (1, 3), (2, 4), (3, 4)],
    stages=[[4]],
    vulnerable=[1],
    rule_relevance=[(1,), (1,), (1,), (1,)],
)
params = game.default_params(graph)
rng = np.random.default_rng(5)

defender = game.DefenderStrategy.random(graph, rng)
adversary = game.AdversaryStrategy.random(graph, rng)

exact = game.evaluate_exact(graph, params, defender, adversary)
print("exact:       U_D = %.4f   U_A = %.4f" % (exact.u_d, exact.u_a))
print("             p_T =", exact.p_t, " p_R =", exact.p_r)
print("             cost terms: tag %.3f  trap %.3f  rules %.3f"
      % (exact.tag_cost, exact.trap_cost, exact.rule_cost))

mc = game.evaluate_monte_carlo(graph, params, defender, adversary,
                               n_trials=200_000, seed=42)
print("monte carlo: U_D = %.4f +- %.4f   U_A = %.4f +- %.4f"
      % (mc.u_d, mc.std_err_d, mc.u_a, mc.std_err_a))
print("             outcomes:", mc.outcome_counts)
print("             |MC - exact| in sigmas: %.2f / %.2f"
      % (abs(mc.u_d - exact.u_d) / mc.std_err_d,
         abs(mc.u_a - exact.u_a) / mc.std_err_a))

# A committed pure defense: tag+trap+rule armed at node 2 only.
bits = np.zeros((5, 6))
bits[2, 0] = bits[2, 1] = bits[2, 2] = 1.0
for walk in [(0, 1, 2, 4), (0, 1, 3, 4)]:
    pure = game.evaluate_exact(graph, params, game.DefenderStrategy(bits),
                               game.AdversaryStrategy.pure_walk(graph, walk))
    print(f"pure profile on walk {walk}: U_D = {pure.u_d:.2f}  U_A = {pure.u_a:.2f}")

# Walk enumeration lists the adversary's walks one by one, each with the
# probability that selects it; survival multiplies 1 - d over its arrivals.
detection = defender.detection_vector(graph)
print("\nfirst three walks:")
for i, walk in enumerate(game.iter_walks(graph, adversary)):
    survival = math.prod(1.0 - detection[v] for v in walk.nodes[1:])
    print(f"  nodes {walk.nodes} end={walk.end} pi={walk.prob:.4f} "
          f"detect={1.0 - survival:.4f} crossings={walk.crossings}")
    if i == 2:
        break
