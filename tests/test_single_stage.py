import math
from dataclasses import replace

import numpy as np
import pytest

from diftgame import game, ifg, respond, single_stage
from diftgame.errors import NotSingleStage, ValidationError

from conftest import (
    cell_price, grid_graph, matrix_adversary_value, oracle_dinic, oracle_recursive_dinic,
    oracle_representative_paths, oracle_separator_min_cost, random_params,
)
from diftgame.generate import gen_graph


def chain_graph(traffic=None):
    return ifg.make_graph(
        3, [(1, 2), (2, 3)], [[3]], [1],
        traffic=traffic, rule_relevance=[(1,), (1,), (1,)],
    )


def params_for(g, c1=-50.0, c2=-50.0):
    return game.GameParams(
        alpha_a=-2000.0, beta_a=(100.0,), alpha_d=2000.0, beta_d=(-100.0,),
        c1=c1, c2=c2, gamma=(-50.0,) * g.n,
    )


# ---------------------------------------------------------------------------
# flow network construction
# ---------------------------------------------------------------------------


def test_network_structure_on_chain():
    g = chain_graph()
    net = single_stage.build_flow_network(g, params_for(g))
    n = 3
    expected = {
        (0, 1),                          # entry arc
        (1, 1 + n), (2, 2 + n), (3, 3 + n),  # split arcs
        (1 + n, 2), (2 + n, 3),          # shifted graph arcs
        (3 + n, 2 * n + 1),              # destination arc
    }
    assert set(net.arcs) == expected
    assert net.source == 0 and net.sink == 7
    assert len({u for a in net.arcs for u in a}) == 2 * n + 2


def test_network_rejects_multi_stage():
    g = ifg.make_graph(3, [(1, 2), (2, 3)], [[2], [3]], [1])
    with pytest.raises(NotSingleStage):
        single_stage.build_flow_network(g, game.default_params(g))


def test_split_capacity_magnitude():
    g = ifg.make_graph(3, [(1, 2), (2, 3)], [[3]], [1], traffic=[1 / 3] * 3)
    net = single_stage.build_flow_network(g, params_for(g))
    n = net.n
    split = {net.arcs.index((i, i + n)) for i in (1, 2, 3)}
    cap = net.capacities[net.arcs.index((1, 1 + n))]
    assert cap == pytest.approx(100.0 / 3.0)
    assert all(c == math.inf for i, c in enumerate(net.capacities) if i not in split)


def test_network_parallel_paths_are_vertex_disjoint():
    g = ifg.make_graph(4, [(1, 3), (2, 4)], [[3, 4]], [1, 2])
    net = single_stage.build_flow_network(g, params_for(g))
    succ = {}
    for u, v in net.arcs:
        succ.setdefault(u, []).append(v)
    # two source->sink routes sharing no intermediate vertices
    route_a = [0, 1, 5, 3, 7, 9]
    route_b = [0, 2, 6, 4, 8, 9]
    for route in (route_a, route_b):
        for u, v in zip(route, route[1:]):
            assert v in succ[u]
    assert set(route_a[1:-1]).isdisjoint(route_b[1:-1])


# ---------------------------------------------------------------------------
# min cut
# ---------------------------------------------------------------------------


def test_min_cut_picks_cheapest_chain_node():
    g = ifg.make_graph(3, [(1, 2), (2, 3)], [[3]], [1], traffic=[5.0, 3.0, 7.0])
    p = game.GameParams(alpha_a=-1, beta_a=(1,), alpha_d=1, beta_d=(-1,),
                        c1=-0.5, c2=-0.5, gamma=(-1,) * 3)
    cut = single_stage.min_cut(single_stage.build_flow_network(g, p))
    assert cut.cut_nodes == (2,)
    assert cut.cost == pytest.approx(3.0)


def test_min_cut_two_disjoint_paths():
    # routes 1->2 (costs 4, 6) and 3->4 (costs 5, 9): cheapest node per route
    g = ifg.make_graph(4, [(1, 2), (3, 4)], [[2, 4]], [1, 3], traffic=[4.0, 6.0, 5.0, 9.0])
    p = game.GameParams(alpha_a=-1, beta_a=(1,), alpha_d=1, beta_d=(-1,),
                        c1=-0.5, c2=-0.5, gamma=(-1,) * 4)
    cut = single_stage.min_cut(single_stage.build_flow_network(g, p))
    assert cut.cut_nodes == (1, 3)
    assert cut.cost == pytest.approx(9.0)


def test_min_cut_empty_when_sink_unreachable():
    g = ifg.make_graph(3, [(2, 3)], [[3]], [1])
    cut = single_stage.min_cut(single_stage.build_flow_network(g, params_for(g)))
    assert cut.cut_nodes == ()
    assert cut.cost == 0.0


def test_min_cut_flow_equals_cost_and_disconnects(rng):
    for seed in range(20):
        g = gen_graph(int(rng.integers(6, 11)), 1, int(rng.integers(1, 3)),
                      int(rng.integers(1, 3)), float(rng.uniform(0.05, 0.3)), seed=seed)
        p = random_params(rng, g.n, 1)
        net = single_stage.build_flow_network(g, p)
        cut = single_stage.min_cut(net)
        assert cut.cost == pytest.approx(cut.flow_value, abs=1e-9)
        # removing the cut nodes disconnects source from destinations
        blocked = set(cut.cut_nodes)
        stack, seen = [0], {0}
        dest = set(g.stages[0])
        while stack:
            u = stack.pop()
            for w in g.successors.get(u, ()):
                if w in blocked or w in seen:
                    continue
                assert w not in dest
                seen.add(w)
                stack.append(w)


def test_min_cut_matches_exhaustive_separator_oracle(rng):
    for seed in range(30):
        g = gen_graph(int(rng.integers(6, 11)), 1, int(rng.integers(1, 3)),
                      int(rng.integers(1, 3)), float(rng.uniform(0.05, 0.35)), seed=1000 + seed)
        p = random_params(rng, g.n, 1)
        cut = single_stage.min_cut(single_stage.build_flow_network(g, p))
        oracle = oracle_separator_min_cost(g, p)
        assert cut.cost == pytest.approx(oracle, abs=1e-9)


def test_min_cut_heterogeneous_traffic_against_oracle(rng):
    for seed in range(10):
        g0 = gen_graph(8, 1, 2, 2, 0.15, seed=2000 + seed)
        traffic = tuple(float(t) for t in rng.uniform(0.2, 3.0, size=8))
        g = ifg.make_graph(8, [e for e in g0.edges], g0.stages, g0.vulnerable,
                           traffic=traffic, rule_relevance=g0.rule_relevance)
        p = random_params(rng, 8, 1)
        cut = single_stage.min_cut(single_stage.build_flow_network(g, p))
        assert cut.cost == pytest.approx(oracle_separator_min_cost(g, p), abs=1e-9)


def assert_same_cut(cut, oracle):
    """Cut nodes and cost equal; the flow value only up to summation order."""
    flow, cost, nodes = oracle
    assert (cut.cut_nodes, cut.cost) == (nodes, cost)
    assert math.isclose(cut.flow_value, flow, rel_tol=1e-12)


def test_min_cut_matches_recursive_dinic(rng):
    instances = [grid_graph(k, rng) for k in (3, 5, 8, 12) for _ in range(3)]
    for seed in range(30):
        instances.append(gen_graph(int(rng.integers(8, 60)), 1, int(rng.integers(1, 4)),
                                   int(rng.integers(1, 4)), float(rng.uniform(0.03, 0.3)),
                                   seed=7000 + seed))
    for g in instances:
        net = single_stage.build_flow_network(g, random_params(rng, g.n, 1))
        assert_same_cut(single_stage.min_cut(net), oracle_recursive_dinic(net))


def test_min_cut_matches_iterative_dinic_on_grids_chains_and_random_graphs():
    rng = np.random.default_rng(23)
    instances = [grid_graph(k, rng, 10.0, 40.0, ends=100.0) for k in (10, 20, 30) for _ in range(3)]
    for n in (1000, 5000):
        instances.append(ifg.make_graph(n, [(i, i + 1) for i in range(1, n)], [[n]], [1],
                                        traffic=rng.uniform(10.0, 40.0, n).tolist(),
                                        rule_relevance={}, fractional_traffic=False))
    for seed in range(20):
        g = gen_graph(60, 1, 2, 3, 0.05, seed=seed)
        instances.append(replace(g, traffic=tuple(rng.uniform(10.0, 40.0, g.n).tolist()),
                                 fractional_traffic=False))
    for g in instances:
        net = single_stage.build_flow_network(g, game.default_params(g))
        assert_same_cut(single_stage.min_cut(net), oracle_dinic(net))


def test_min_cut_tie_takes_the_node_nearest_the_source():
    # nodes 3 and 6 tie as the cheapest: both cuts are minimum, and the
    # residual source side stops at the first, the minimal min cut
    g = ifg.make_graph(8, [(i, i + 1) for i in range(1, 8)], [[8]], [1],
                       traffic=[9.0, 7.0, 2.0, 5.0, 8.0, 2.0, 6.0, 9.0], rule_relevance={},
                       fractional_traffic=False)
    net = single_stage.build_flow_network(g, game.default_params(g))
    cut = single_stage.min_cut(net)
    assert cut.cut_nodes == (3,)
    assert_same_cut(cut, oracle_dinic(net))


@pytest.mark.parametrize("n", [1000, 5000])
def test_long_chain_cuts_its_cheapest_node(n):
    rng = np.random.default_rng(n)
    g = ifg.make_graph(n, [(i, i + 1) for i in range(1, n)], [[n]], [1],
                       traffic=rng.uniform(10.0, 40.0, n).tolist(), rule_relevance={},
                       fractional_traffic=False)
    p = game.default_params(g)
    eq = single_stage.solve_single_stage(g, p)
    cheapest = int(np.argmin(g.traffic)) + 1
    assert eq.cut.cut_nodes == (cheapest,)
    assert eq.cut.flow_value == abs(cell_price(g, p, cheapest, 0) + cell_price(g, p, cheapest, 1))


# ---------------------------------------------------------------------------
# matrix game
# ---------------------------------------------------------------------------


def interior_instance(rng, n=8, n_dest=2, density=0.2, seed=0):
    """Cost-homogeneous single-entry instance whose indifference coefficients
    are all zero: interior mixtures and equal detection products coexist."""
    g = gen_graph(n, 1, n_dest, 1, density, seed=seed)
    shares = rng.uniform(0.25, 0.4, size=3)
    shares = shares / shares.sum()
    total = -float(rng.uniform(5, 50))
    c1 = float(n * shares[0] * total)
    c2 = float(n * shares[1] * total)
    gamma = float(shares[2] * total)
    alpha_d = float(rng.uniform(0.5, min(2.0, -total / 2)))
    beta_d = alpha_d + total  # indifference coefficient is exactly zero
    p = game.GameParams(
        alpha_a=-float(rng.uniform(5, 20)), beta_a=(float(rng.uniform(1, 10)),),
        alpha_d=alpha_d, beta_d=(beta_d,), c1=c1, c2=c2, gamma=(gamma,) * n,
    )
    return g, p


def test_single_cut_node_gets_unit_mass(rng):
    g = chain_graph()  # min cut is one node on a chain
    _, p = interior_instance(rng)
    p3 = game.GameParams(alpha_a=p.alpha_a, beta_a=p.beta_a, alpha_d=p.alpha_d,
                         beta_d=p.beta_d, c1=p.c1 * 3 / 8, c2=p.c2 * 3 / 8,
                         gamma=(p.gamma[0],) * 3)
    eq = single_stage.solve_single_stage(g, p3)
    assert eq.diagnostics == "interior"
    assert len(eq.nodes) == 1
    assert eq.pi[eq.nodes[0]] == pytest.approx(1.0)
    node = eq.nodes[0]
    row = eq.defender.probs[node]
    assert 0 < row[0] <= 1 and 0 < row[1] <= 1


def test_equal_costs_coefficient_zero_is_interior_else_boundary(rng):
    g = ifg.make_graph(4, [(1, 2), (1, 3), (2, 4), (3, 4)], [[4]], [1],
                       rule_relevance=[(1,)] * 4)
    _, p4 = interior_instance(rng, n=4)
    eq = single_stage.solve_single_stage(g, p4)
    assert eq.diagnostics == "interior"
    # same costs but beta_d moved off the indifference point: boundary
    p_off = game.GameParams(alpha_a=p4.alpha_a, beta_a=p4.beta_a, alpha_d=p4.alpha_d,
                            beta_d=(p4.beta_d[0] - 5.0,), c1=p4.c1, c2=p4.c2, gamma=p4.gamma)
    eq_off = single_stage.solve_single_stage(g, p_off)
    assert eq_off.diagnostics == "boundary"


def test_interior_mixture_with_opposite_signs():
    # two parallel routes with different node costs; beta_d - alpha_d = -8
    # falls strictly between cost(1) = -6 and cost(2) = -10
    g = ifg.make_graph(2, [], [[1, 2]], [1, 2], traffic=[1.0, 2.0],
                       rule_relevance=[(1,), (2,)])
    p = game.GameParams(alpha_a=-10.0, beta_a=(5.0,), alpha_d=1.0, beta_d=(-7.0,),
                        c1=-2.0, c2=-2.0, gamma=(-2.0, -2.0))
    eq = single_stage.solve_single_stage(g, p)
    assert eq.diagnostics == "interior"
    t1 = -8.0 - eq.costs[1]
    t2 = -8.0 - eq.costs[2]
    assert t1 < 0 < t2
    total = sum(eq.pi[i] * (-8.0 - eq.costs[i]) for i in eq.nodes)
    assert total == pytest.approx(0.0, abs=1e-9)
    assert all(w > 0 for w in eq.pi.values())


def test_zero_and_positive_coefficients_put_the_mass_on_the_zero_node():
    # cost(1) = -8 = beta_d - alpha_d makes t1 exactly 0, and cost(2) = -9.6
    # makes t2 positive; with no negative coefficient node 2 gets weight +0.0,
    # which adversary_mixture.json writes as 0.0, never -0.0
    g = ifg.make_graph(2, [], [[1, 2]], [1, 2], traffic=[1.0, 1.6],
                       rule_relevance=[(1,), (2,)])
    p = game.GameParams(alpha_a=-10.0, beta_a=(5.0,), alpha_d=1.0, beta_d=(-7.0,),
                        c1=-2.0, c2=-2.0, gamma=(-4.0, -3.2))
    eq = single_stage.solve_single_stage(g, p)
    assert eq.diagnostics == "interior"
    assert -8.0 - eq.costs[1] == 0.0 < -8.0 - eq.costs[2]
    assert eq.pi == {1: 1.0, 2: 0.0}
    assert math.copysign(1.0, eq.pi[2]) == 1.0


def test_interior_defender_probabilities_solve_ratio_system(rng):
    for seed in range(5):
        g, p = interior_instance(rng, seed=3000 + seed)
        eq = single_stage.solve_single_stage(g, p)
        assert eq.diagnostics == "interior"
        denom = p.beta_d[0] - p.alpha_d
        for node in eq.nodes:
            row = eq.defender.probs[node]
            rel = eq.relevance[node]
            prod = row[0] * row[1] * math.prod(row[1 + r] for r in rel)
            # trap * rules = tag cost over the detection margin, etc.
            assert prod / row[0] == pytest.approx(cell_price(g, p, node, 0) / denom, rel=1e-9)
            assert prod / row[1] == pytest.approx(cell_price(g, p, node, 1) / denom, rel=1e-9)
            for r in rel:
                assert prod / row[1 + r] == pytest.approx(p.gamma[r - 1] / denom, rel=1e-9)
            assert eq.products[node] == pytest.approx(prod, rel=1e-12)


def test_equal_detection_products_on_homogeneous_instances(rng):
    for seed in range(5):
        g, p = interior_instance(rng, seed=4000 + seed)
        eq = single_stage.solve_single_stage(g, p)
        assert eq.product_spread <= 1e-9


def assert_no_profitable_defender_deviation(eq, g, p):
    """No single defender component moved anywhere in [0, 1] gains the defender."""
    base = eq.matrix_defender_payoff(g, p)
    grid = np.arange(0.0, 1.0 + 1e-12, 1e-3)
    for node in eq.nodes:
        for comp in [1, 2] + [2 + r for r in eq.relevance[node]]:
            values = []
            for x in (0.0, 1.0):  # payoff is linear in each component
                values.append(eq.matrix_defender_payoff(
                    g, p, defender=eq.defender.with_entry(node, comp, x)))
            assert max(values) <= base + 1e-6
            # spot-check a few grid points against linearity
            for x in grid[::250]:
                dev = eq.matrix_defender_payoff(
                    g, p, defender=eq.defender.with_entry(node, comp, float(x)))
                assert dev <= base + 1e-6
                assert dev == pytest.approx(values[0] * (1 - x) + values[1] * x, abs=1e-8)


def test_no_profitable_deviation_at_interior_equilibrium(rng):
    g, p = interior_instance(rng, seed=5000)
    eq = single_stage.solve_single_stage(g, p)
    assert eq.diagnostics == "interior"
    assert_no_profitable_defender_deviation(eq, g, p)
    # adversary: mass shifts between cut-node paths never gain
    values = {i: matrix_adversary_value(eq, g, p, i) for i in eq.nodes}
    base_a = sum(eq.pi[i] * values[i] for i in eq.nodes)
    for i in eq.nodes:
        for j in eq.nodes:
            if i == j:
                continue
            step = min(1e-3, eq.pi[i])
            dev = base_a + step * (values[j] - values[i])
            assert dev <= base_a + 1e-6


def test_tag_probability_above_one_is_clamped():
    # tag cost dwarfed by the others: the unclamped tag probability is about 12
    g = chain_graph()
    p = game.GameParams(alpha_a=-10, beta_a=(5,), alpha_d=0.5,
                        beta_d=(-11.5,), c1=-0.02 * 3, c2=-7.0 * 3, gamma=(-4.98,) * 3)
    eq = single_stage.solve_single_stage(g, p)
    assert eq.diagnostics == "interior"
    (node,) = eq.nodes
    row = eq.defender.probs[node]
    assert row[0] == 1.0
    assert f"node {node}: tag clamped to probability 1" in eq.notes
    # the free components (trap and the rule) stay indifferent
    denom = p.beta_d[0] - p.alpha_d
    prod = row[0] * row[1] * row[2]
    assert 0.0 < row[1] < 1.0 and 0.0 < row[2] < 1.0
    assert prod / row[1] == pytest.approx(cell_price(g, p, node, 1) / denom, rel=1e-12)
    assert prod / row[2] == pytest.approx(p.gamma[0] / denom, rel=1e-12)
    # the clamped tag's marginal gain: the product of the others beats its ratio
    assert prod / row[0] >= cell_price(g, p, node, 0) / denom
    assert eq.products[node] == pytest.approx(prod, rel=1e-12)
    assert_no_profitable_defender_deviation(eq, g, p)


def test_generated_graphs_with_traffic_solve_without_leaving_the_unit_interval():
    """Stock parameters on U(10, 40) traffic: cheap rules clamp to 1 at interior cuts.

    Detection products differ across cut nodes there (a note says so), so only
    the defender side is checked for deviations.
    """
    interior = 0
    for seed in range(30):
        g = gen_graph(60, 1, 2, 3, 0.05, seed=seed)
        traffic = np.random.default_rng(seed).uniform(10.0, 40.0, g.n)
        g = replace(g, traffic=tuple(traffic.tolist()), fractional_traffic=False)
        p = game.default_params(g)
        eq = single_stage.solve_single_stage(g, p)
        if eq.diagnostics != "interior":
            continue
        interior += 1
        assert_no_profitable_defender_deviation(eq, g, p)
    assert interior >= 10


def test_clamp_that_leaves_one_free_component_falls_back_to_the_boundary():
    # node 1's cheap rule clamps and leaves its tag and trap free; node 2's rule
    # costs more than the detection margin, so its tag and trap both solve
    # above 1; the cut's indifference coefficients have opposite signs
    g = ifg.make_graph(2, [], [[1, 2]], [1, 2], traffic=[1.0, 2.0],
                       rule_relevance=[(1,), (2,)])
    p = game.GameParams(alpha_a=-10.0, beta_a=(5.0,), alpha_d=1.0, beta_d=(-7.0,),
                        c1=-2.0, c2=-2.0, gamma=(-0.01, -12.0))
    eq = single_stage.solve_single_stage(g, p)
    assert eq.diagnostics == "boundary"
    # node 1's clamp is not reported: the interior solution was abandoned
    assert eq.notes == (
        "node 2: clamping tag, trap to probability 1 leaves no interior solution for rule 2",
        "defender plays the Not-detected row",
    )


def test_matrix_game_requires_nonempty_cut():
    g = ifg.make_graph(3, [(2, 3)], [[3]], [1])
    p = params_for(g)
    cut = single_stage.min_cut(single_stage.build_flow_network(g, p))
    with pytest.raises(ValidationError):
        single_stage.solve_matrix_game(g, p, cut)


def test_boundary_all_negative_coefficients_detect_row():
    # detection reward dominates: defender arms the cut, adversary drops
    g = chain_graph()
    p = params_for(g)  # costs 50-ish, alpha_d = 2000: t_i < 0 everywhere
    eq = single_stage.solve_single_stage(g, p)
    assert eq.diagnostics == "boundary"
    node = eq.cut.cut_nodes[0]
    assert eq.defender.probs[node, 0] == 1.0
    assert eq.u_a == 0.0  # adversary drops against certain detection


def test_boundary_all_positive_coefficients_not_detect_row():
    # enormous defense costs: defender plays the not-detected row, adversary walks in
    g = chain_graph()
    p = game.GameParams(alpha_a=-10.0, beta_a=(5.0,), alpha_d=1.0, beta_d=(-2.0,),
                        c1=-300.0, c2=-300.0, gamma=(-50.0,) * 3)
    eq = single_stage.solve_single_stage(g, p)
    assert eq.diagnostics == "boundary"
    assert np.all(eq.defender.probs == 0.0)
    assert eq.u_a == pytest.approx(5.0)
    assert eq.u_d == pytest.approx(-2.0)


def test_boundary_rows_agree_with_the_adversary_best_response():
    # the solver builds both rows without asking the best response whether
    # the adversary drops: the Detected row arms every cut cell, so every
    # attack path meets certain detection; the Not-detected row arms none,
    # so the adversary walks in, across a cut node
    rows = {1.0: 0, 0.0: 0}
    for seed in range(40):
        base = gen_graph(60, 1, 2, 3, 0.05, seed=seed)
        traffic = np.random.default_rng(seed).uniform(10.0, 40.0, base.n)
        for g in (base, replace(base, traffic=tuple(traffic.tolist()), fractional_traffic=False)):
            p = game.default_params(g)
            eq = single_stage.solve_single_stage(g, p)
            if eq.diagnostics != "boundary":
                continue
            (row,) = set(eq.products.values())
            rows[row] += 1
            cells = eq.defender.cells(g)[np.isin(g.defender_cells[0], eq.nodes)]
            assert np.all(cells == row) and np.count_nonzero(eq.defender.probs) == row * cells.size
            br = respond.adversary_best_response(g, p, eq.defender)
            assert eq.u_a == br.value
            if row:
                assert br.dropped
                assert (eq.pi, eq.paths) == ({}, {})
            else:
                assert not br.dropped
                anchor = min(set(eq.nodes) & set(br.path))
                assert (eq.pi, eq.paths) == ({anchor: 1.0}, {anchor: br.path})
    assert min(rows.values()) >= 5


def test_representative_paths_cross_only_their_cut_node(rng):
    for seed in range(5):
        g, p = interior_instance(rng, n=9, n_dest=2, seed=6000 + seed)
        eq = single_stage.solve_single_stage(g, p)
        for node, path in eq.paths.items():
            assert path[0] == 0
            assert node in path
            assert not (set(eq.nodes) - {node}) & set(path)
            assert path[-1] in set(g.stages[0])


def representative_paths_outcome(fn, graph, nodes):
    """The paths ``fn`` returns for ``nodes``, or the message of its ValidationError."""
    try:
        return fn(graph, nodes)
    except ValidationError as exc:
        return str(exc)


def test_representative_paths_match_per_node_searches():
    rng = np.random.default_rng(29)
    instances = [grid_graph(k, rng, 10.0, 40.0, ends=100.0) for k in (10, 20, 30) for _ in range(3)]
    for seed in range(20):
        g = gen_graph(60, 1, 2, 3, 0.05, seed=seed)
        instances.append(replace(g, traffic=tuple(rng.uniform(10.0, 40.0, g.n).tolist()),
                                 fractional_traffic=False))
    for n in (1000, 5000):
        instances.append(ifg.make_graph(n, [(i, i + 1) for i in range(1, n)], [[n]], [1],
                                        traffic=rng.uniform(10.0, 40.0, n).tolist(),
                                        rule_relevance={}, fractional_traffic=False))
    for g in instances:
        nodes = single_stage.min_cut(single_stage.build_flow_network(g, game.default_params(g))).cut_nodes
        assert nodes
        assert single_stage._representative_paths(g, nodes) == oracle_representative_paths(g, nodes)


def test_representative_paths_match_per_node_searches_on_tie_heavy_digraphs():
    # equal traffic and many equal-length paths: every tie goes to the
    # smallest node; random node sets in random order, most of them not
    # minimal cuts, must raise the same error for the same node
    rng = np.random.default_rng(37)
    compared = 0
    for _ in range(30):
        n = int(rng.integers(8, 41))
        adj = rng.random((n, n)) < 0.15
        np.fill_diagonal(adj, False)
        edges = [(int(u) + 1, int(v) + 1) for u, v in zip(*np.nonzero(adj))]
        ids = rng.permutation(np.arange(1, n + 1)).tolist()
        entries, dests = ids[:int(rng.integers(1, 4))], ids[-int(rng.integers(1, 4)):]
        g = ifg.make_graph(n, edges, [dests], entries, traffic=[1.0] * n, rule_relevance={},
                           fractional_traffic=False)
        node_sets = [single_stage.min_cut(single_stage.build_flow_network(g, game.default_params(g))).cut_nodes]
        for _ in range(5):
            node_sets.append(tuple(rng.choice(np.arange(1, n + 1), int(rng.integers(1, 5)),
                                              replace=False).tolist()))
        for nodes in node_sets:
            if nodes:
                compared += 1
                assert (representative_paths_outcome(single_stage._representative_paths, g, nodes)
                        == representative_paths_outcome(oracle_representative_paths, g, nodes))
    assert compared > 150


def test_representative_paths_errors_name_the_first_failing_cut_node():
    # 1 -> 2 -> 3 -> 4 with destination 4: {1, 2} separates, but is not a
    # minimal cut; node 1 has no onward path, and node 2 no path from s0
    g = ifg.make_graph(4, [(1, 2), (2, 3), (3, 4)], [[4]], [1])
    for nodes, message in (
        ((1, 2), "no destination path from cut node 1 avoiding the other cut nodes"),
        ((2, 1), "no source path to cut node 2 avoiding the other cut nodes; "
                 "is a split capacity zero?"),
    ):
        for fn in (single_stage._representative_paths, oracle_representative_paths):
            assert representative_paths_outcome(fn, g, nodes) == message
