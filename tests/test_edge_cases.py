"""Corner cases: overlapping destination sets, entries that are destinations,
cyclic support, deep walks, multi-entry learning."""

import numpy as np
import pytest

from diftgame import game, ifg, learn, respond, single_stage
from diftgame.game import DROP

from conftest import (
    oracle_best_path_value,
    oracle_pure_profile,
    oracle_separator_min_cost,
    random_params,
)


def test_overlapping_destination_sets_cascade_everywhere(rng):
    # node 3 is a destination of stages 1 and 2: reaching it crosses both
    g = ifg.make_graph(4, [(1, 2), (2, 3), (3, 4), (2, 4)], [[3], [3, 4]], [1],
                       rule_relevance=[()] * 4)
    p = random_params(rng, 4, 2)
    adv = game.AdversaryStrategy.pure_walk(g, (0, 1, 2, 3))
    d = game.DefenderStrategy.zeros(g)
    rep = game.evaluate_exact(g, p, d, adv)
    assert rep.p_r == (1.0, 1.0)
    assert rep.u_a == pytest.approx(p.beta_a[0] + p.beta_a[1])
    # the committed-bits oracle agrees
    assert oracle_pure_profile(g, p, np.zeros((5, 6)), (0, 1, 2, 3)) == pytest.approx(
        (rep.u_d, rep.u_a))
    # the best response sees both candidate stages at node 3
    br = respond.adversary_best_response(g, p, d)
    assert br.value == pytest.approx(oracle_best_path_value(g, p, d), abs=1e-9)


def test_best_response_oracle_with_overlapping_stages(rng):
    for _ in range(20):
        n = 6
        edges = {(u, v) for u in range(1, n + 1) for v in range(1, n + 1)
                 if u != v and rng.random() < 0.4}
        d1 = sorted(rng.choice(range(2, n + 1), size=2, replace=False).tolist())
        d2 = sorted(rng.choice(range(2, n + 1), size=2, replace=False).tolist())
        g = ifg.make_graph(n, edges, [d1, d2], [1], rule_relevance=[()] * n)
        p = random_params(rng, n, 2)
        d = game.DefenderStrategy.random(g, rng)
        try:
            br = respond.adversary_best_response(g, p, d)
        except Exception:
            continue  # destinations unreachable in this draw
        oracle = oracle_best_path_value(g, p, d)
        if br.dropped:
            assert oracle < 0
        else:
            assert br.value == pytest.approx(oracle, abs=1e-9)


def test_entry_node_is_also_destination():
    g = ifg.make_graph(2, [(1, 2)], [[1]], [1], rule_relevance=[(), ()])
    p = game.default_params(g)
    d = game.DefenderStrategy.zeros(g)
    br = respond.adversary_best_response(g, p, d)
    assert br.path == (0, 1)
    assert br.value == pytest.approx(p.beta_a[0])
    # the min cut must contain the entry itself
    cut = single_stage.min_cut(single_stage.build_flow_network(g, p))
    assert cut.cut_nodes == (1,)
    assert cut.cost == pytest.approx(oracle_separator_min_cost(g, p))


def test_monte_carlo_matches_exact_on_cyclic_support(rng):
    # the chain has no move bound; Monte Carlo's 40 moves leave under 2e-6
    # of the mass in the 1-2 loop
    g = ifg.make_graph(3, [(1, 2), (2, 1), (2, 3)], [[3]], [1],
                       rule_relevance=[(1,), (1,), (1,)])
    p = random_params(rng, 3, 1)
    d = game.DefenderStrategy.random(g, rng)
    adv = game.AdversaryStrategy({
        (0, 1): {1: 0.9, DROP: 0.1},
        (1, 1): {2: 1.0},
        (2, 1): {1: 0.5, 3: 0.3, DROP: 0.2},
    })
    exact = game.evaluate_exact(g, p, d, adv)
    mc = game.evaluate_monte_carlo(g, p, d, adv, n_trials=200_000, seed=17, max_len=40)
    assert abs(mc.u_a - exact.u_a) <= 4 * max(mc.std_err_a, 1e-9)
    assert abs(mc.u_d - exact.u_d) <= 4 * max(mc.std_err_d, 1e-9)


def test_report_masses_are_probabilities(rng):
    from conftest import random_dag_instance

    for _ in range(10):
        g = random_dag_instance(rng, n_max=7, m_max=3)
        p = random_params(rng, g.n, g.n_stages)
        d = game.DefenderStrategy.random(g, rng)
        adv = game.AdversaryStrategy.random(g, rng)
        for rep in (game.evaluate_exact(g, p, d, adv),
                    game.evaluate_monte_carlo(g, p, d, adv, n_trials=3000, seed=0)):
            assert all(0.0 <= x <= 1.0 for x in rep.p_t + rep.p_r)
            assert sum(rep.p_t) <= 1.0 + 1e-12


def test_deep_walk_enumeration_has_no_recursion_limit():
    # a 400-move corridor: the walk enumerator must not hit the interpreter
    # recursion limit
    n = 401
    g = ifg.make_graph(n, [(i, i + 1) for i in range(1, n)], [[n]], [1],
                       rule_relevance=[()] * n)
    adv_moves = {(0, 1): {1: 1.0}}
    for v in range(1, n):
        adv_moves[(v, 1)] = {v + 1: 1.0}
    adv = game.AdversaryStrategy(adv_moves)
    walks = list(game.iter_walks(g, adv, max_len=n + 5))
    assert len(walks) == 1
    assert walks[0].end == "complete"
    assert len(walks[0].nodes) == n + 1


def test_learner_with_two_entries_picks_the_safe_one():
    # entry 1 leads through an armed corridor, entry 2 is clean
    g = ifg.make_graph(3, [(1, 3), (2, 3)], [[3]], [1, 2], rule_relevance=[(), (), ()])
    p = game.GameParams(alpha_a=-9.0, beta_a=(3.0,), alpha_d=4.0, beta_d=(-3.0,),
                        c1=-0.05, c2=-0.05, gamma=(-0.05,) * 3)
    res = learn.run(g, p, learn.LearnerConfig(eta=0.05, eps=1e-5, max_iters=4000, seed=0))
    roster = res.roster
    entry_dist = res.distributions[roster.entry_index]
    assert roster.players[roster.entry_index].actions == (1, 2)
    # defenders at both entries are cheap to arm; the adversary should not be
    # able to gain much by switching entries at the learned joint
    regret = learn.swap_regret(res, g, p)
    assert regret <= 0.05 * (p.alpha_d - p.beta_d[0]) + 0.5
    assert entry_dist.sum() == pytest.approx(1.0)


def test_cli_best_response_rejects_wrong_strategy_kind(tmp_path, capsys):
    from diftgame import cli

    g = ifg.make_graph(2, [(1, 2)], [[2]], [1])
    ifg.save(g, tmp_path / "g.json")
    game.save_adversary(game.AdversaryStrategy.uniform(g), tmp_path / "a.json")
    code = cli.main(["best-response", str(tmp_path / "g.json"), "--side", "adversary",
                     "--strategy", str(tmp_path / "a.json"),
                     "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert "load-strategy" in capsys.readouterr().err


def test_cli_gen_graph_broadcast_dest_counts(tmp_path):
    from diftgame import cli

    out = tmp_path / "o"
    code = cli.main(["gen-graph", "--nodes", "12", "--stages", "3",
                     "--dest-per-stage", "1", "--entries", "1",
                     "--density", "0.1", "--seed", "4", "--out-dir", str(out)])
    assert code == 0
    g = ifg.load(out / "graph.json")
    assert [len(s) for s in g.stages] == [1, 1, 1]
