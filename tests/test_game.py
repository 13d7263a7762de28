import collections
import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from diftgame import game, generate, ifg
from diftgame.errors import InvalidPath, ParseError, TruncationError, ValidationError
from diftgame.game import DROP
from diftgame.ifg import SOURCE

from conftest import (
    cell_price,
    exhaustive_pure_defender_average,
    oracle_advance,
    oracle_detection_prob,
    oracle_detection_vector,
    oracle_monte_carlo,
    oracle_pure_profile,
    oracle_strategy_costs,
    per_walk_utilities,
    random_cyclic_instance,
    random_dag_instance,
    random_params,
    walk_outcomes,
)


def chain_instance(n=3, relevance=None):
    g = ifg.make_graph(
        n, [(i, i + 1) for i in range(1, n)], [[n]], [1],
        rule_relevance=relevance if relevance is not None else [()] * n,
    )
    return g


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


def test_params_sign_constraints_enforced():
    good = dict(alpha_a=-1, beta_a=(1,), alpha_d=1, beta_d=(-1,), c1=-1, c2=-1, gamma=(0, -1))
    game.GameParams(**good)
    for key, bad in [
        ("alpha_a", 0), ("alpha_d", -2), ("beta_a", (0,)), ("beta_d", (1,)),
        ("c1", 0), ("c2", 1), ("gamma", (0.5, -1)),
    ]:
        with pytest.raises(ValidationError):
            game.GameParams(**{**good, key: bad})


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_params_reject_non_finite_entries(bad):
    good = dict(alpha_a=-1, beta_a=(1, 2), alpha_d=1, beta_d=(-1, -2), c1=-1, c2=-1,
                gamma=(0, -1))
    for key in good:
        value = tuple(good[key][:-1]) + (bad,) if isinstance(good[key], tuple) else bad
        with pytest.raises(ValidationError, match=rf"^{key} must be finite, got {bad}$"):
            game.GameParams(**{**good, key: value})


def test_params_scaled_rejects_non_finite_factors_and_costs():
    p = game.GameParams(alpha_a=-1, beta_a=(1,), alpha_d=1, beta_d=(-1,), c1=-50, c2=-3,
                        gamma=(-1, -4))
    for factor in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(ValidationError, match=rf"^cost scale factor must be finite and > 0, got {factor}$"):
            p.scaled(factor)
    # a finite factor can still overflow a cost
    with pytest.raises(ValidationError, match=r"^c1 must be finite, got -inf$"):
        p.scaled(1e308)


def test_params_derived_costs_nonpositive():
    g = ifg.make_graph(2, [(1, 2)], [[2]], [1], traffic=[0.3, 0.7])
    p = game.GameParams(alpha_a=-1, beta_a=(1,), alpha_d=1, beta_d=(-1,), c1=-2, c2=-3, gamma=(-1, -1))
    costs = p.cell_costs(g)
    # every rule is relevant at both nodes: tag, trap, rule 1, rule 2 each
    assert costs.shape == (8,)
    assert costs[0] == pytest.approx(-0.6)
    assert costs[5] == pytest.approx(-2.1)
    assert costs[2:4].tolist() == [-1.0, -1.0]
    assert np.all(costs <= 0)
    g = ifg.make_graph(3, [(1, 2), (2, 3)], [[3]], [1], traffic=[0.2, 0.3, 0.5],
                       rule_relevance=[(2,), (), (1, 3)])
    p = game.GameParams(alpha_a=-1, beta_a=(1,), alpha_d=1, beta_d=(-1,), c1=-2, c2=-3,
                        gamma=(-1, -4, -5))
    nodes, columns = g.defender_cells
    assert p.cell_costs(g).tolist() == [cell_price(g, p, v, c)
                                        for v, c in zip(nodes.tolist(), columns.tolist())]


def test_params_scaled_touches_only_costs():
    p = game.GameParams(alpha_a=-1, beta_a=(1,), alpha_d=1, beta_d=(-1,), c1=-2, c2=-3, gamma=(-1, -4))
    q = p.scaled(0.5)
    assert (q.c1, q.c2, q.gamma) == (-1.0, -1.5, (-0.5, -2.0))
    assert (q.alpha_a, q.beta_a, q.alpha_d, q.beta_d) == (p.alpha_a, p.beta_a, p.alpha_d, p.beta_d)


# ---------------------------------------------------------------------------
# detection probability
# ---------------------------------------------------------------------------


def test_detection_prob_zero_strategy():
    g = chain_instance(relevance=[(), (1, 2), ()])
    d = game.DefenderStrategy.zeros(g)
    assert oracle_detection_prob(2, d, (1, 2)) == 0.0
    assert d.detection_vector(g)[2] == 0.0


def test_detection_prob_empty_relevance_is_tag_times_trap():
    g = chain_instance()
    d = game.DefenderStrategy.zeros(g).with_entry(2, 1, 1.0).with_entry(2, 2, 1.0)
    assert oracle_detection_prob(2, d, ()) == 1.0
    assert d.detection_vector(g)[2] == 1.0


def test_detection_prob_product():
    g = chain_instance(relevance=[(), (1,), ()])
    d = (
        game.DefenderStrategy.zeros(g)
        .with_entry(2, 1, 0.5)
        .with_entry(2, 2, 0.5)
        .with_entry(2, 2 + 1, 0.5)
    )
    assert oracle_detection_prob(2, d, (1,)) == pytest.approx(0.125)
    assert d.detection_vector(g)[2] == pytest.approx(0.125)


def test_defender_strategy_source_row_must_be_zero():
    probs = np.zeros((3, 4))
    probs[0, 0] = 0.3
    with pytest.raises(ValidationError):
        game.DefenderStrategy(probs)


def test_defender_strategy_rejects_non_finite_entries(tmp_path):
    for bad in (np.nan, np.inf, -np.inf):
        probs = np.full((3, 4), 0.5)
        probs[0] = 0.0
        probs[2, 1] = bad
        with pytest.raises(ValidationError, match="node 2, column 1 is not a finite number"):
            game.DefenderStrategy(probs)
    # Python's json module reads the non-standard token NaN, so the file loads
    # as far as the strategy constructor
    path = tmp_path / "defender.json"
    path.write_text('{"kind": "defender", "n": 2, "probs": '
                    '[[0, 0, 0, 0], [0.5, 0.5, 0.5, 0.5], [0.5, NaN, 0.5, 0.5]]}')
    with pytest.raises(ValidationError, match="node 2, column 1"):
        game.load_strategy(path)


def test_defender_builds_hold_one_matrix():
    # each builder allocates its (n+1) x (n+2) matrix once and clips it in
    # place; the constructor copies the caller's array once and leaves it as it was
    n = 1000
    g = ifg.make_graph(n, [(i, i + 1) for i in range(1, n)], [[n]], [1], rule_relevance={})
    matrix_bytes = (n + 1) * (n + 2) * 8
    base = game.DefenderStrategy.zeros(g)
    builds = {
        "zeros": lambda: game.DefenderStrategy.zeros(g),
        "full": lambda: game.DefenderStrategy.full(g, 0.5),
        "random": lambda: game.DefenderStrategy.random(g, np.random.default_rng(0)),
        "with_entry": lambda: base.with_entry(1, 1, 0.5),
    }
    for name, build in builds.items():
        tracemalloc.start()
        strategy = build()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert strategy.probs.shape == (n + 1, n + 2)
        assert matrix_bytes <= peak < 1.5 * matrix_bytes, name
    probs = np.full((n + 1, n + 2), 1.0 + 1e-12)
    probs[0] = 0.0
    probs[1, 0] = -1e-12
    tracemalloc.start()
    strategy = game.DefenderStrategy(probs)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 1.5 * matrix_bytes
    assert probs[1, 0] == -1e-12 and probs[1, 1] == 1.0 + 1e-12 and probs.flags.writeable
    assert not np.shares_memory(strategy.probs, probs)
    assert strategy.probs[1, 0] == 0.0 and strategy.probs[1, 1] == 1.0


@pytest.mark.parametrize("node, component", [(3, 0), (0, 1), (9, 1), (-1, 1), (3, 11)])
def test_with_entry_rejects_an_entry_outside_the_matrix(node, component):
    # component 0 once wrote the last rule column, numpy reading index -1
    g = generate.gen_graph(8, 2, 1, 1, 0.2, seed=1)
    base = game.DefenderStrategy.zeros(g)
    with pytest.raises(ValidationError, match=f"node {node}, component {component}: "
                                              r"nodes run 1\.\.8 and components 1\.\.10"):
        base.with_entry(node, component, 0.7)
    assert not base.probs.any()
    corner = base.with_entry(8, 10, 0.7).with_entry(1, 1, 0.7)
    assert corner.probs[8, 9] == corner.probs[1, 0] == 0.7 and corner.probs.sum() == 1.4


def test_from_cells_rejects_a_value_vector_of_another_length():
    g = generate.gen_graph(8, 2, 1, 1, 0.2, seed=1)
    cells = len(g.defender_cells[0])
    full = game.DefenderStrategy.from_cells(g, np.full(cells, 0.5))
    assert full.cells(g).tolist() == [0.5] * cells
    for shape in [(0,), (cells - 1,), (cells + 1,), (2, cells)]:
        with pytest.raises(ValidationError, match=rf"expected {cells} defender cell values, "
                                                  rf"got shape \({shape[0]},"):
            game.DefenderStrategy.from_cells(g, np.zeros(shape))


# ---------------------------------------------------------------------------
# exact evaluation
# ---------------------------------------------------------------------------


def drop_everywhere(g):
    adv = game.AdversaryStrategy.uniform(g)
    return game.AdversaryStrategy({s: {DROP: 1.0} for s in adv.moves})


def test_exact_immediate_drop_leaves_only_cost_terms():
    g = chain_instance()
    p = game.default_params(g)
    d = game.DefenderStrategy.full(g, 0.25)
    rep = game.evaluate_exact(g, p, d, drop_everywhere(g))
    assert rep.u_a == 0.0
    assert rep.u_d == pytest.approx(rep.tag_cost + rep.trap_cost + rep.rule_cost)
    assert all(x == 0.0 for x in rep.p_t + rep.p_r)


def test_exact_single_path_zero_defender_reaches_certainly():
    g = ifg.make_graph(2, [(1, 2)], [[2]], [1], rule_relevance=[(), ()])
    p = game.default_params(g)
    adv = game.AdversaryStrategy.pure_walk(g, (0, 1, 2))
    rep = game.evaluate_exact(g, p, game.DefenderStrategy.zeros(g), adv)
    assert rep.p_r == (1.0,)
    assert rep.u_a == pytest.approx(p.beta_a[0])


def test_exact_matches_monte_carlo_on_diamond(rng):
    g = ifg.make_graph(
        4, [(1, 2), (1, 3), (2, 4), (3, 4)], [[4]], [1],
        rule_relevance=[(1,), (1,), (1,), (1,)],
    )
    p = random_params(rng, 4, 1)
    d = game.DefenderStrategy.random(g, rng)
    adv = game.AdversaryStrategy.random(g, rng)
    exact = game.evaluate_exact(g, p, d, adv)
    mc = game.evaluate_monte_carlo(g, p, d, adv, n_trials=10**6, seed=99)
    assert abs(mc.u_d - exact.u_d) <= 3 * mc.std_err_d
    assert abs(mc.u_a - exact.u_a) <= 3 * mc.std_err_a


def test_exact_truncation_error_on_cyclic_strategy():
    # walk enumeration truncates the 2->1 loop, and its walk cap reports the
    # mass it has not enumerated; the chain needs no move bound
    g = ifg.make_graph(3, [(1, 2), (2, 1), (2, 3)], [[3]], [1], rule_relevance=[(), (), ()])
    p = game.default_params(g)
    d = game.DefenderStrategy.zeros(g)
    looped = game.AdversaryStrategy({
        (0, 1): {1: 1.0},
        (1, 1): {2: 1.0},
        (2, 1): {1: 0.8, 3: 0.2},
    })
    looped.validate(g)
    # 8 moves fit three 2->1 returns, so the unresolved walk mass is 0.8^3
    compiled = game.CompiledPaths(g, looped, max_len=8)
    assert compiled.truncated_mass == pytest.approx(0.8**3, abs=1e-12)
    with pytest.raises(TruncationError) as info:
        game.CompiledPaths(g, looped, cap=3)
    # within the default 12 moves, depth first: the truncated walk, then the
    # walks completing after 11, 9 and 7 moves; those after 5 and 3 remain
    assert info.value.residual == pytest.approx(0.2 * 0.8 + 0.2, abs=1e-12)
    rep = game.evaluate_exact(g, p, d, looped)
    # every walk completes eventually: 0.2 * (1 + 0.8 + 0.8^2 + ...) = 1
    assert rep.p_r == pytest.approx((1.0,), abs=1e-12)
    assert rep.p_t == (0.0,)
    assert rep.truncated_mass == 0.0


def test_exact_self_loop_cycle_allowed_with_drop_fold():
    g = ifg.make_graph(2, [(1, 1), (1, 2)], [[2]], [1], rule_relevance=[(), ()])
    p = game.default_params(g)
    adv = game.AdversaryStrategy({(0, 1): {1: 1.0}, (1, 1): {1: 0.5, 2: 0.25, DROP: 0.25}})
    rep = game.evaluate_exact(g, p, game.DefenderStrategy.zeros(g), adv)
    # reach probability is the geometric sum 0.25 * (1 + 1/2 + 1/4 + ...) = 1/2
    assert rep.p_r[0] == pytest.approx(0.5, abs=1e-6)
    # walk enumeration folds the loop's mass left at 30 moves into the drop
    _, p_r = game.CompiledPaths(g, adv, max_len=30).masses(np.zeros(3))
    assert p_r[0] == pytest.approx(0.5, abs=1e-6)


# ---------------------------------------------------------------------------
# Monte Carlo evaluation
# ---------------------------------------------------------------------------


def test_monte_carlo_zero_variance_matches_exact():
    g = chain_instance()
    p = game.default_params(g)
    adv = game.AdversaryStrategy.pure_walk(g, (0, 1, 2, 3))
    d = game.DefenderStrategy.zeros(g)
    exact = game.evaluate_exact(g, p, d, adv)
    mc = game.evaluate_monte_carlo(g, p, d, adv, n_trials=500, seed=1)
    assert mc.u_a == exact.u_a
    assert mc.u_d == pytest.approx(exact.u_d)
    assert mc.std_err_a == 0.0


def test_monte_carlo_certain_detection_at_entry():
    g = chain_instance()
    p = game.default_params(g)
    d = game.DefenderStrategy.zeros(g).with_entry(1, 1, 1.0).with_entry(1, 2, 1.0)
    adv = game.AdversaryStrategy.pure_walk(g, (0, 1, 2, 3))
    mc = game.evaluate_monte_carlo(g, p, d, adv, n_trials=300, seed=5)
    assert mc.p_t == (1.0,)
    assert mc.u_a == pytest.approx(p.alpha_a)


def test_monte_carlo_within_three_sigma_of_exact(rng):
    for _ in range(5):
        g = random_dag_instance(rng, n_max=8, m_max=2)
        p = random_params(rng, g.n, g.n_stages)
        d = game.DefenderStrategy.random(g, rng)
        adv = game.AdversaryStrategy.random(g, rng)
        exact = game.evaluate_exact(g, p, d, adv)
        mc = game.evaluate_monte_carlo(g, p, d, adv, n_trials=40_000, seed=7)
        assert abs(mc.u_d - exact.u_d) <= 4 * max(mc.std_err_d, 1e-9)
        assert abs(mc.u_a - exact.u_a) <= 4 * max(mc.std_err_a, 1e-9)


def test_monte_carlo_deterministic_in_seed(rng):
    g = random_dag_instance(rng, n_max=6, m_max=2)
    p = random_params(rng, g.n, g.n_stages)
    d = game.DefenderStrategy.random(g, rng)
    adv = game.AdversaryStrategy.random(g, rng)
    a = game.evaluate_monte_carlo(g, p, d, adv, n_trials=2000, seed=13)
    b = game.evaluate_monte_carlo(g, p, d, adv, n_trials=2000, seed=13)
    assert a == b


def test_monte_carlo_outcome_partition(rng):
    for _ in range(5):
        g = random_dag_instance(rng, n_max=7, m_max=3, m=None)
        p = random_params(rng, g.n, g.n_stages)
        d = game.DefenderStrategy.random(g, rng)
        adv = game.AdversaryStrategy.random(g, rng)
        n = 5000
        mc = game.evaluate_monte_carlo(g, p, d, adv, n_trials=n, seed=3)
        counts = mc.outcome_counts
        assert counts["detected"] + counts["completed"] + sum(counts["dropped_after"]) == n
        # dropped_after[j] = runs that crossed exactly j stages, then quit
        assert len(counts["dropped_after"]) == g.n_stages + 1


def test_monte_carlo_rejects_zero_trials(rng):
    g = chain_instance()
    p = game.default_params(g)
    with pytest.raises(ValidationError):
        game.evaluate_monte_carlo(g, p, game.DefenderStrategy.zeros(g),
                                  game.AdversaryStrategy.uniform(g), n_trials=0, seed=0)


# ---------------------------------------------------------------------------
# pure profiles
# ---------------------------------------------------------------------------


def pure_profile(g, p, bits, walk):
    """(u_d, u_a) of 0/1 defender bits against a fixed walk, on the public path."""
    rep = game.evaluate_exact(g, p, game.DefenderStrategy(bits),
                              game.AdversaryStrategy.pure_walk(g, walk))
    return rep.u_d, rep.u_a


def test_pure_profile_unarmed_walk_collects_stage_rewards():
    g = ifg.make_graph(4, [(1, 2), (2, 3), (3, 4)], [[2], [4]], [1], rule_relevance=[()] * 4)
    p = game.default_params(g)
    bits = np.zeros((5, 6))
    u_d, u_a = pure_profile(g, p, bits, (0, 1, 2, 3, 4))
    assert u_a == pytest.approx(p.beta_a[0] + p.beta_a[1])
    assert u_d == pytest.approx(p.beta_d[0] + p.beta_d[1])


def test_pure_profile_first_node_armed():
    g = chain_instance(relevance=[(1,), (), ()])
    p = game.default_params(g)
    bits = np.zeros((4, 5))
    bits[1, 0] = bits[1, 1] = 1.0
    bits[1, 2] = 1.0  # rule 1 relevant at node 1
    u_d, u_a = pure_profile(g, p, bits, (0, 1, 2, 3))
    assert u_a == p.alpha_a
    cost = p.cell_costs(g)[:3].sum()  # node 1's tag, trap and rule 1
    assert u_d == pytest.approx(p.alpha_d + cost)


def test_pure_profile_rule_bit_blocks_detection_when_unset():
    g = chain_instance(relevance=[(2,), (), ()])
    p = game.default_params(g)
    bits = np.zeros((4, 5))
    bits[1, 0] = bits[1, 1] = 1.0  # tag and trap armed, relevant rule 2 not
    _, u_a = pure_profile(g, p, bits, (0, 1, 2, 3))
    assert u_a == pytest.approx(p.beta_a[0])


def random_simple_walk(rng, graph):
    """A random walk from s0 as a pure profile plans it: it ends at a drop,
    at completion of the last stage, or at its first revisited (node, stage)
    state."""
    walk, node, stage, seen = [SOURCE], SOURCE, 1, set()
    while graph.successors[node] and rng.random() > 0.1:
        node = int(rng.choice(graph.successors[node]))
        walk.append(node)
        stage = oracle_advance(graph, node, stage)
        if stage > graph.n_stages or (node, stage) in seen:
            break
        seen.add((node, stage))
    return tuple(walk)


def test_exact_pure_profile_matches_the_oracle_on_simple_walks():
    # committed 0/1 bits make every per-visit draw of the chain certain, so
    # the chain scores a pure profile; a walk that stops at a revisited
    # (node, stage) state loops there unarmed, which the chain reads as a drop
    rng = np.random.default_rng(33)
    kinds = collections.Counter()
    for k in range(240):
        m = k % 4 + 1
        if k % 2:
            g = random_cyclic_instance(rng, n_max=10, m=m, density=0.35)
        else:
            g = random_dag_instance(rng, n_max=9, m=m)
        p = random_params(rng, g.n, m)
        bits = (rng.random((g.n + 1, g.n + 2)) < rng.uniform(0.3, 1.0)).astype(float)
        bits[0] = 0.0
        walk = random_simple_walk(rng, g)
        want = oracle_pure_profile(g, p, bits, walk)
        assert pure_profile(g, p, bits, walk) == pytest.approx(want, rel=1e-12, abs=0.0)

        arrivals, stage = [], 1  # the (node, stage) landings before an armed arrival
        for v in walk[1:]:
            if bits[v, 0] and bits[v, 1] and all(bits[v, 1 + r] for r in g.rule_relevance[v - 1]):
                kinds["detected"] += 1
                break
            stage = oracle_advance(g, v, stage)
            arrivals.append((v, stage))
        else:
            if arrivals and arrivals[-1][1] > m:
                kinds["completes"] += 1
            elif arrivals and arrivals[-1] in arrivals[:-1]:
                kinds["stops at a revisited state"] += 1
        kinds["revisits a node in a later stage"] += any(
            v == w and j < i for (v, j), (w, i) in itertools.combinations(arrivals, 2))
    assert len(kinds) == 4 and all(kinds.values()), kinds


@pytest.mark.parametrize("walk", [(), (1, 2), (0, 2), (0, 1, 3), (0, 1, 2, 3, 1)],
                         ids=["empty", "not-from-source", "not-an-entry", "non-edge",
                              "non-edge-after-completion"])
def test_pure_walk_rejects_bad_walks(walk):
    # the last case completes the attack at node 3 before its bad step
    with pytest.raises(InvalidPath):
        game.AdversaryStrategy.pure_walk(chain_instance(), walk)


def test_pure_profile_average_reproduces_mixed_evaluation(rng):
    # all fractional-bit assignments on a 3-node chain, fixed adversary walk
    g = chain_instance(relevance=[(1,), (1,), ()])
    p = random_params(rng, 3, 1)
    probs = np.zeros((4, 5))
    probs[1, 0], probs[1, 1], probs[1, 2] = 0.3, 0.8, 0.5
    probs[2, 0], probs[2, 1], probs[2, 2] = 0.6, 0.4, 0.9
    probs[3, 0] = 0.7
    d = game.DefenderStrategy(probs)
    walk = (0, 1, 2, 3)
    avg_d, avg_a = exhaustive_pure_defender_average(g, p, d, walk)
    rep = game.evaluate_exact(g, p, d, game.AdversaryStrategy.pure_walk(g, walk))
    assert avg_d == pytest.approx(rep.u_d, abs=1e-10)
    assert avg_a == pytest.approx(rep.u_a, abs=1e-10)


# ---------------------------------------------------------------------------
# structural properties of the exact evaluator
# ---------------------------------------------------------------------------


def test_root_equivalence_aggregate_vs_per_path(rng):
    # aggregate (p_t, p_r) assembly equals per-path utility accumulation
    for _ in range(20):
        g = random_dag_instance(rng, n_max=7, m_max=3)
        p = random_params(rng, g.n, g.n_stages)
        d = game.DefenderStrategy.random(g, rng)
        adv = game.AdversaryStrategy.random(g, rng)
        rep = game.evaluate_exact(g, p, d, adv)
        u_d, u_a = per_walk_utilities(g, p, d, adv)
        assert abs(u_a - rep.u_a) <= 1e-12
        assert abs(u_d - rep.u_d) <= 1e-12


def test_enumerated_paths_respect_stage_constraint(rng):
    for _ in range(10):
        g = random_dag_instance(rng, n_max=7, m_max=3)
        d = game.DefenderStrategy.random(g, rng)
        adv = game.AdversaryStrategy.random(g, rng)
        for walk, survival, reach, detection in walk_outcomes(g, d, adv):
            stage_hits = [s for _, s in walk.crossings]
            assert stage_hits == sorted(stage_hits)
            if stage_hits:
                assert stage_hits == list(range(1, stage_hits[-1] + 1))
            reached = [r for r in reach if r > 0]
            assert reached == sorted(reached, reverse=True)
            assert detection + math.prod(survival) == pytest.approx(1.0, abs=1e-12)


def test_raising_any_defender_probability_never_lowers_detection(rng):
    for _ in range(10):
        g = random_dag_instance(rng, n_max=6, m_max=2)
        p = random_params(rng, g.n, g.n_stages)
        adv = game.AdversaryStrategy.random(g, rng)
        d = game.DefenderStrategy.random(g, rng)
        base = sum(game.evaluate_exact(g, p, d, adv).p_t)
        node = int(rng.integers(1, g.n + 1))
        comp = int(rng.integers(1, g.n + 3))
        cur = d.probs[node, comp - 1]
        bumped = d.with_entry(node, comp, min(1.0, cur + float(rng.uniform(0, 1 - cur + 1e-12))))
        after = sum(game.evaluate_exact(g, p, bumped, adv).p_t)
        assert after >= base - 1e-12


def test_compiled_paths_agree_with_exact(rng):
    for _ in range(10):
        g = random_dag_instance(rng, n_max=7, m_max=2)
        p = random_params(rng, g.n, g.n_stages)
        d = game.DefenderStrategy.random(g, rng)
        adv = game.AdversaryStrategy.random(g, rng)
        rep = game.evaluate_exact(g, p, d, adv)
        compiled = game.CompiledPaths(g, adv)
        u_d, u_a = compiled.evaluate(p, d)
        assert u_d == pytest.approx(rep.u_d, abs=1e-9)
        assert u_a == pytest.approx(rep.u_a, abs=1e-9)


def test_utility_report_csv_round_trip_shape():
    g = chain_instance()
    p = game.default_params(g)
    rep = game.evaluate_exact(g, p, game.DefenderStrategy.zeros(g), drop_everywhere(g))
    header = game.UtilityReport.csv_header(g.n_stages)
    row = rep.csv_row()
    assert len(header.split(",")) == len(row.split(","))


# ---------------------------------------------------------------------------
# strategy files
# ---------------------------------------------------------------------------


def test_strategy_files_round_trip(tmp_path, rng):
    g = random_dag_instance(rng, n_max=6, m_max=2)
    d = game.DefenderStrategy.random(g, rng)
    adv = game.AdversaryStrategy.random(g, rng)
    game.save_defender(d, tmp_path / "d.json")
    game.save_adversary(adv, tmp_path / "a.json")
    d2 = game.load_strategy(tmp_path / "d.json")
    a2 = game.load_strategy(tmp_path / "a.json")
    assert isinstance(d2, game.DefenderStrategy) and np.allclose(d2.probs, d.probs)
    assert isinstance(a2, game.AdversaryStrategy)
    for state, dist in adv.moves.items():
        for act, prob in dist.items():
            assert a2.moves[state][act] == pytest.approx(prob)


@pytest.mark.parametrize("n", [99, 7, 8.0, True, "8"])
def test_defender_file_n_must_match_its_rows(tmp_path, n):
    path = tmp_path / "defender.json"
    rows = np.zeros((9, 10)).tolist()
    path.write_text(json.dumps({"kind": "defender", "n": 8, "probs": rows}))
    assert game.load_strategy(path).n == 8
    path.write_text(json.dumps({"kind": "defender", "probs": rows}))
    assert game.load_strategy(path).n == 8  # n is optional
    path.write_text(json.dumps({"kind": "defender", "n": n, "probs": rows}))
    with pytest.raises(ParseError, match=f"expected 8, .* got {re.escape(repr(n))}") as info:
        game.load_strategy(path)
    assert (info.value.field, info.value.path) == ("n", path)


def test_adversary_strategy_validation_rejects_non_neighbors():
    g = chain_instance()
    adv = game.AdversaryStrategy({(1, 1): {3: 1.0}})
    with pytest.raises(ValidationError):
        adv.validate(g)


def test_adversary_strategy_validation_rejects_non_finite_probability():
    g = chain_instance()
    moves = game.AdversaryStrategy.uniform(g).moves
    moves[(1, 1)] = {2: float("nan"), DROP: 1.0}  # NaN slips past both range checks
    with pytest.raises(ValidationError, match=r"state \(1, 1\) assigns a non-finite probability to 2"):
        game.AdversaryStrategy(moves).validate(g)


# ---------------------------------------------------------------------------
# absorbing chain
# ---------------------------------------------------------------------------


def test_absorbing_chain_matches_compiled_walks_on_dags(rng):
    for n in range(6, 17):
        g = random_dag_instance(rng, n=n, m_max=3)
        p = random_params(rng, g.n, g.n_stages)
        d = game.DefenderStrategy.random(g, rng)
        adv = game.AdversaryStrategy.random(g, rng)
        chain = game.AbsorbingChain(g, adv)
        compiled = game.CompiledPaths(g, adv)
        detection = d.detection_vector(g)
        for got, want in zip(chain.masses(detection), compiled.masses(detection)):
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
        exact = game.evaluate_exact(g, p, d, adv)
        for got, want in zip((exact.u_d, exact.u_a), compiled.evaluate(p, d)):
            assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("n", [30, 100])
def test_absorbing_chain_matches_monte_carlo_on_cyclic_graphs(n):
    rng = np.random.default_rng(n)
    g = generate.gen_graph(n, 3, 2, 2, 0.1, seed=n)
    p = game.default_params(g)
    d = game.DefenderStrategy.random(g, rng)
    adv = game.AdversaryStrategy.random(g, rng)
    exact = game.evaluate_exact(g, p, d, adv)
    u_d, u_a = exact.u_d, exact.u_a
    mc = game.evaluate_monte_carlo(g, p, d, adv, n_trials=200_000, seed=n)
    assert mc.truncated_mass == 0.0
    assert abs(u_d - mc.u_d) <= 4 * mc.std_err_d
    assert abs(u_a - mc.u_a) <= 4 * mc.std_err_a


def trapped_instance(cycle_detection):
    """Stage 1 ends at node 2, where the walk commits to the 2-3 cycle for good.

    State (4, 1) moves only into the cycle, so it cannot reach absorption
    either, yet its move crosses stage 1.
    """
    g = ifg.make_graph(5, [(1, 2), (1, 4), (4, 2), (2, 3), (3, 2), (3, 5)], [[2], [5]], [1],
                       rule_relevance=[()] * 5)
    p = random_params(np.random.default_rng(5), 5, 2)
    adv = game.AdversaryStrategy({
        (0, 1): {1: 0.8, DROP: 0.2},
        (1, 1): {2: 0.5, 4: 0.5},
        (4, 1): {2: 1.0},
        (2, 2): {3: 1.0},
        (3, 2): {2: 1.0},
    })
    probs = np.zeros((6, 7))
    probs[1, :2] = (0.6, 0.5)  # d = 0.3
    probs[4, :2] = (1.0, 0.5)  # d = 0.5
    probs[3, :2] = (1.0, cycle_detection)
    return g, p, game.DefenderStrategy(probs), adv


ENTERS_CYCLE = 0.8 * 0.7 * 0.5 + 0.8 * 0.7 * 0.5 * 0.5  # directly, or through node 4


def test_absorbing_chain_closed_zero_detection_cycle():
    # the 2-3 cycle never drops, completes or detects: the walks that enter
    # it keep their stage-1 crossing, and Monte Carlo truncates them
    g, p, d, adv = trapped_instance(0.0)
    chain = game.AbsorbingChain(g, adv)
    p_t, p_r = chain.masses(d.detection_vector(g))
    assert p_t == pytest.approx((0.8 * 0.3 + 0.8 * 0.7 * 0.5 * 0.5, 0.0), abs=1e-15)
    assert p_r == pytest.approx((ENTERS_CYCLE, 0.0), abs=1e-15)
    exact = game.evaluate_exact(g, p, d, adv)
    u_d, u_a = exact.u_d, exact.u_a
    assert math.isfinite(u_d) and math.isfinite(u_a)
    trials = 200_000
    mc = game.evaluate_monte_carlo(g, p, d, adv, n_trials=trials, seed=3, max_len=30)
    assert mc.truncated_mass == pytest.approx(ENTERS_CYCLE, abs=0.01)
    for got, want in zip(p_t + p_r, mc.p_t + mc.p_r):
        assert abs(got - want) <= 4 * math.sqrt(got * (1 - got) / trials) + 1e-12
    assert abs(u_d - mc.u_d) <= 4 * mc.std_err_d
    assert abs(u_a - mc.u_a) <= 4 * mc.std_err_a


def test_absorbing_chain_detecting_cycle_catches_every_entrant():
    # over an unbounded horizon a cycle that detects at all detects everyone
    # who enters it
    g, _, d, adv = trapped_instance(0.01)
    p_t, p_r = game.AbsorbingChain(g, adv).masses(d.detection_vector(g))
    assert p_t[1] == pytest.approx(ENTERS_CYCLE, rel=1e-9)
    assert p_r == pytest.approx((ENTERS_CYCLE, 0.0), abs=1e-15)


def test_absorbing_chain_missing_state_raises():
    g = chain_instance()
    with pytest.raises(ValidationError, match="node 1 at stage 1"):
        game.AbsorbingChain(g, game.AdversaryStrategy({(0, 1): {1: 1.0}}))


@pytest.mark.parametrize("evaluator", ["exact", "monte_carlo"])
def test_evaluators_reject_moves_along_non_edges(evaluator):
    # on 1 -> 2 -> 3 with stage {3}, the move (1, 1) -> 3 jumps over node 2
    g = chain_instance()
    p = game.default_params(g)
    adv = game.AdversaryStrategy({(0, 1): {1: 1.0}, (1, 1): {3: 1.0}, (2, 1): {DROP: 1.0}})
    d = game.DefenderStrategy.zeros(g)
    with pytest.raises(ValidationError, match=r"^state \(1, 1\) moves to 3, not a neighbor of 1$"):
        if evaluator == "exact":
            game.evaluate_exact(g, p, d, adv)
        else:
            game.evaluate_monte_carlo(g, p, d, adv, 100, 0)


@pytest.mark.parametrize("state, dist, message", [
    ((1, 1), {2: float("nan"), DROP: 1.0}, "assigns a non-finite probability to 2"),
    ((1, 1), {2: -0.5, DROP: 1.5}, "has a negative probability"),
    ((1, 1), {2: 0.5, DROP: 0.4}, "distribution sums to 0.9"),
    ((9, 1), {DROP: 1.0}, "has an out-of-range node"),
], ids=["nan", "negative", "not-summing", "outside-graph"])
@pytest.mark.parametrize("evaluator", ["exact", "monte_carlo"])
def test_evaluators_reject_what_validate_rejects(evaluator, state, dist, message):
    g = chain_instance()
    p = game.default_params(g)
    adv = game.AdversaryStrategy({**game.AdversaryStrategy.uniform(g).moves, state: dist})
    d = game.DefenderStrategy.zeros(g)
    pattern = re.escape(f"state {state} {message}")
    with pytest.raises(ValidationError, match=pattern):
        adv.validate(g)
    with pytest.raises(ValidationError, match=pattern):
        if evaluator == "exact":
            game.evaluate_exact(g, p, d, adv)
        else:
            game.evaluate_monte_carlo(g, p, d, adv, 100, 0)


def test_compiled_paths_cap_error_reports_unenumerated_mass():
    rng = np.random.default_rng(30)
    g = generate.gen_graph(30, 3, 2, 2, 0.1, seed=30)
    adv = game.AdversaryStrategy.random(g, rng)
    with pytest.raises(TruncationError) as info:
        game.CompiledPaths(g, adv, cap=500)
    err = info.value
    assert "nan" not in str(err)
    assert err.walk_cap == 500
    assert 0.0 < err.residual < 1.0
    assert f"{err.residual:.3e}" in str(err)


# ---------------------------------------------------------------------------
# vectorized kernels: bit-identical to the per-node, per-term, per-state loops
# ---------------------------------------------------------------------------


def kernel_graphs(rng):
    yield chain_instance(4, relevance=[(), (1,), (1, 2), ()])
    yield ifg.make_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)], [[3], [5]], [1])  # all rules everywhere
    yield random_dag_instance(rng, n_max=8, m_max=3)
    yield generate.gen_graph(30, 3, 2, 2, 0.1, seed=4)
    # every rule relevant at every node: 302 cells a node, one long product each
    yield ifg.make_graph(300, [(i, i + 1) for i in range(1, 300)], [[300]], [1])


def sparse_defender(graph, rng):
    probs = game.DefenderStrategy.random(graph, rng).probs.copy()
    probs[rng.random(probs.shape) < 0.7] = 0.0
    return game.DefenderStrategy(probs)


def test_detection_vector_matches_per_node_products(rng):
    for g in kernel_graphs(rng):
        for d in (game.DefenderStrategy.random(g, rng), sparse_defender(g, rng),
                  game.DefenderStrategy.full(g, 1.0)):
            got = d.detection_vector(g)
            assert got.tobytes() == oracle_detection_vector(d, g).tobytes()


def test_strategy_costs_match_termwise_fsum(rng):
    for g in kernel_graphs(rng):
        p = random_params(rng, g.n, g.n_stages)
        for d in (game.DefenderStrategy.random(g, rng), sparse_defender(g, rng)):
            got = game.strategy_costs(g, p, d)
            want = oracle_strategy_costs(g, p, d)
            assert [x.hex() for x in got] == [x.hex() for x in want]
        zero = game.strategy_costs(g, p, game.DefenderStrategy.zeros(g))
        assert [math.copysign(1.0, x) for x in zero] == [1.0, 1.0, 1.0]  # +0.0, as fsum gives


def complete_graph(n):
    """Every ordered pair an edge and entries 1..n-2: at n=9 the source has
    eight actions and every other state nine, drop included."""
    edges = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    return ifg.make_graph(n, edges, [[n // 2], [n]], list(range(1, n - 1)),
                          rule_relevance=[(1,)] * n)


def hub_graph(spokes):
    """Node 1 reaches every spoke and every spoke returns to it: one state is
    ``spokes + 1`` actions wide while the others have at most three."""
    n = spokes + 1
    edges = [(1, v) for v in range(2, n + 1)] + [(v, 1) for v in range(2, n + 1)]
    edges += [(v, v + 1) for v in range(2, n)]
    return ifg.make_graph(n, edges, [[n // 2], [n]], [1], rule_relevance=[(1,)] * n)


def reshaped(graph, rng, shape):
    """A strategy whose every state's distribution is ``shape(actions, rng)``."""
    moves = {}
    for v, j in game.AdversaryStrategy.decision_states(graph):
        actions = [DROP] + sorted(graph.successors.get(v, ()))
        moves[(v, j)] = {a: float(p) for a, p in zip(actions, shape(actions, rng)) if p is not None}
    return game.AdversaryStrategy(moves)


def uniform_over(k):
    """1/k on DROP and k - 1 other actions: every bound sits on a bucket edge."""
    def shape(actions, rng):
        chosen = set(rng.choice(len(actions) - 1, size=k - 1, replace=False) + 1) | {0}
        return [1.0 / k if i in chosen else None for i in range(len(actions))]
    return shape


def with_zeros(actions, rng):
    """Zero-probability actions, DROP often among them: bounds repeat, some at 0."""
    w = rng.dirichlet(np.ones(len(actions)))
    w[rng.random(len(actions)) < 0.4] = 0.0
    if not w.any():
        w[-1] = 1.0
    return w / w.sum()


def short_total(actions, rng):
    """Sums to 1 - 5e-7, within ``validate``'s tolerance; every other state
    gives its last action probability 0, so the rounding overflow lands on it."""
    w = rng.dirichlet(np.ones(len(actions)))
    if len(actions) > 2 and rng.random() < 0.5:
        w[-1] = 0.0
        w /= w.sum()
    return w * (1.0 - 5e-7)


def clustered_wide(actions, rng):
    """In wide states, DROP and the next nine actions get 1e-5 each: ten
    bounds inside the first bucket, above every draw's bucket start."""
    w = rng.dirichlet(np.ones(len(actions)))
    if len(actions) > 10:
        w[:10] = 1e-5
        w[10:] *= (1.0 - w[:10].sum()) / w[10:].sum()
    return w


def test_monte_carlo_reproduces_per_state_loop(rng):
    cyclic = generate.gen_graph(30, 3, 2, 2, 0.1, seed=6)
    dense = complete_graph(9)
    hub = hub_graph(40)
    cases = [(g, game.AdversaryStrategy.random(g, rng), None) for g in kernel_graphs(rng)]
    cases += [(cyclic, game.AdversaryStrategy.random(cyclic, rng), 4)]  # truncates
    cases += [(dense, reshaped(dense, rng, uniform_over(k)), None) for k in (2, 4, 8)]
    cases += [(dense, reshaped(dense, rng, uniform_over(8)), 3)]  # truncates
    cases += [(g, reshaped(g, rng, with_zeros), None) for g in (dense, cyclic)]
    cases += [(g, reshaped(g, rng, short_total), None) for g in (dense, cyclic)]
    cases += [(hub, reshaped(hub, rng, clustered_wide), None)]
    # seed 824 draws u >= 1 - 5e-7 among the 5000 source draws of the first
    # step, so one trial takes the overflow of a short total
    assert np.random.default_rng(824).random(5_000).max() >= 1.0 - 5e-7
    seeds = list(range(len(cases)))
    seeds[-3:-1] = [824, 824]
    truncated = 0
    for seed, (g, adv, max_len) in zip(seeds, cases):
        adv.validate(g)
        p = random_params(rng, g.n, g.n_stages)
        d = game.DefenderStrategy.random(g, rng)
        got = game.evaluate_monte_carlo(g, p, d, adv, 5_000, seed, max_len)
        want = oracle_monte_carlo(g, p, d, adv, 5_000, seed, max_len)
        assert got.csv_row() == want.csv_row()
        assert got.outcome_counts == want.outcome_counts
        truncated += max_len is not None and want.truncated_mass > 0.0
    assert truncated == 2


def test_monte_carlo_missing_state_error_matches_per_state_loop():
    # both entries lack a distribution; the error names the smaller state code
    g = ifg.make_graph(3, [(1, 3), (2, 3)], [[3]], [1, 2], rule_relevance=[()] * 3)
    p = game.default_params(g)
    adv = game.AdversaryStrategy({(0, 1): {1: 0.5, 2: 0.5}})
    d = game.DefenderStrategy.zeros(g)
    messages = []
    for evaluate in (game.evaluate_monte_carlo, oracle_monte_carlo):
        with pytest.raises(ValidationError) as info:
            evaluate(g, p, d, adv, 100, 0)
        messages.append(str(info.value))
    assert messages[0] == messages[1] == "adversary strategy has no distribution for node 1 at stage 1"
