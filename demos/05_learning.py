#!/usr/bin/env python3
"""Multi-stage learning on the 30-node reference graph.

Decomposes the game into one player per attacker decision state and one per
defender component bit, runs the internal-regret dynamics until the mixtures
stop moving, then measures the swap regret of the empirical joint play.
"""

from diftgame import game, generate, learn

graph = generate.gen_graph(n_nodes=30, n_stages=4, n_dest_per_stage=(2, 2, 2, 2),
                           n_entries=1, edge_density=0.08, seed=2026)
params = game.default_params(graph)

roster = learn.PlayerRoster(graph)
kinds = {}
for player in roster.players:
    kinds[player.kind] = kinds.get(player.kind, 0) + 1
print(f"{len(roster)} players: {kinds}")

result = learn.run(graph, params, learn.LearnerConfig(eta=0.1, eps=1e-3,
                                                      max_iters=50_000, seed=0))
print(f"converged: {result.converged} after {result.iterations} iterations "
      f"(final sup-norm gap {result.final_gap:.2e})")

print("\nconvergence trace (every 4th iteration):")
print("iter   U_D_avg     U_A_avg     max_gap")
for row in result.trace[::4]:
    print(f"{int(row[0]):4d} {row[1]:10.2f} {row[2]:11.2f} {row[3]:10.2e}")

regret = learn.swap_regret(result, graph, params)
print(f"\nswap regret of the joint play: {regret:.2f} "
      f"(utility scale {params.alpha_d - params.beta_d[-1]:.0f})")

defender = result.defender_strategy()
armed = [v for v in range(1, graph.n + 1) if defender.probs[v, :2].min() > 0.5]
print(f"defender ends up tag+trapping nodes {armed}")

adv = result.adversary_strategy()
entry = graph.vulnerable[0]
print(f"attacker's opening move distribution at the entry node {entry}:")
print({k: round(v, 3) for k, v in adv.moves[(entry, 1)].items()})

report = game.evaluate_monte_carlo(graph, params, defender, adv,
                                   n_trials=50_000, seed=9)
print(f"\nsimulated at the learned pair: U_D = {report.u_d:.1f} +- {report.std_err_d:.1f}, "
      f"U_A = {report.u_a:.1f} +- {report.std_err_a:.1f}")
