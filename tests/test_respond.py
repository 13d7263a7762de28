import itertools
import math

import numpy as np
import pytest

from diftgame import game, generate, ifg, respond
from diftgame.errors import Unreachable, ValidationError
from diftgame.game import DROP

from conftest import (
    cell_price,
    marginal_gain,
    oracle_advance,
    oracle_best_path_value,
    oracle_objective_value,
    oracle_strategy_for,
    random_dag_instance,
    random_params,
)


# ---------------------------------------------------------------------------
# adversary best response
# ---------------------------------------------------------------------------


def test_best_response_zero_defender_takes_best_stage_reward(rng):
    g = random_dag_instance(rng, n_max=7, m_max=3)
    p = random_params(rng, g.n, g.n_stages)
    br = respond.adversary_best_response(g, p, game.DefenderStrategy.zeros(g))
    assert not br.dropped
    assert br.survival == 1.0
    assert br.value == pytest.approx(max(p.beta_a))


def test_best_response_drops_on_certainly_armed_chain():
    g = ifg.make_graph(3, [(1, 2), (2, 3)], [[3]], [1], rule_relevance=[()] * 3)
    p = game.default_params(g)
    d = game.DefenderStrategy.zeros(g).with_entry(2, 1, 1.0).with_entry(2, 2, 1.0)
    br = respond.adversary_best_response(g, p, d)
    assert br.dropped
    assert br.value == 0.0
    # the induced strategy drops everywhere
    strat = br.to_strategy(g)
    assert all(dist == {DROP: 1.0} for dist in strat.moves.values())


def test_best_response_unreachable_destination():
    g = ifg.make_graph(3, [(2, 3)], [[3]], [1], rule_relevance=[()] * 3)
    p = game.default_params(g)
    with pytest.raises(Unreachable):
        respond.adversary_best_response(g, p, game.DefenderStrategy.zeros(g))


def test_best_response_matches_enumeration(rng):
    for _ in range(60):
        g = random_dag_instance(rng, n_max=8, m_max=2)
        p = random_params(rng, g.n, g.n_stages)
        d = game.DefenderStrategy.random(g, rng)
        br = respond.adversary_best_response(g, p, d)
        oracle = oracle_best_path_value(g, p, d)
        if br.dropped:
            assert oracle < 0
        else:
            assert br.value == pytest.approx(oracle, abs=1e-9)


def test_best_response_value_matches_exact_evaluation_single_stage(rng):
    # for one-stage games the objective value is the exact adversary payoff
    for _ in range(20):
        g = random_dag_instance(rng, n_max=7, m=1)
        p = random_params(rng, g.n, 1)
        d = game.DefenderStrategy.random(g, rng)
        br = respond.adversary_best_response(g, p, d)
        if br.dropped:
            continue
        rep = game.evaluate_exact(g, p, d, br.to_strategy(g))
        assert rep.u_a == pytest.approx(br.value, abs=1e-9)


def test_best_response_value_is_lower_bound_multi_stage(rng):
    # intermediate-stage rewards only add to the walk's exact payoff
    for _ in range(20):
        g = random_dag_instance(rng, n_max=7, m=2)
        p = random_params(rng, g.n, 2)
        d = game.DefenderStrategy.random(g, rng)
        br = respond.adversary_best_response(g, p, d)
        if br.dropped:
            continue
        rep = game.evaluate_exact(g, p, d, br.to_strategy(g))
        assert rep.u_a >= br.value - 1e-9


def test_best_response_dominates_mixed_strategies_single_stage(rng):
    for _ in range(5):
        g = random_dag_instance(rng, n_max=6, m=1)
        p = random_params(rng, g.n, 1)
        d = game.DefenderStrategy.random(g, rng)
        br = respond.adversary_best_response(g, p, d)
        best = max(br.value, 0.0)
        for _ in range(100):
            sigma = game.AdversaryStrategy.random(g, rng)
            rep = game.evaluate_exact(g, p, d, sigma)
            assert rep.u_a <= best + 1e-9


def test_best_response_paths_respect_stage_order(rng):
    for _ in range(20):
        g = random_dag_instance(rng, n_max=8, m_max=3)
        p = random_params(rng, g.n, g.n_stages)
        d = game.DefenderStrategy.random(g, rng)
        br = respond.adversary_best_response(g, p, d)
        if br.dropped:
            continue
        stage = 1
        for v in br.path[1:]:
            stage = oracle_advance(g, v, stage)
        assert stage == br.target_stage + 1 or stage > g.n_stages
        # the walk must have completed stages 1..target_stage in order
        assert stage >= br.target_stage + 1


def test_best_response_reports_exact_product(rng):
    g = random_dag_instance(rng, n_max=6, m_max=2)
    p = random_params(rng, g.n, g.n_stages)
    d = game.DefenderStrategy.random(g, rng)
    br = respond.adversary_best_response(g, p, d)
    if not br.dropped:
        det = d.detection_vector(g)
        prod = math.prod(1.0 - det[v] for v in br.path[1:])
        assert br.survival == pytest.approx(prod, abs=1e-12)


def test_best_response_deterministic_tie_break():
    # parallel two-hop routes with identical survival: the smaller node wins
    g = ifg.make_graph(4, [(1, 2), (1, 3), (2, 4), (3, 4)], [[4]], [1], rule_relevance=[()] * 4)
    p = game.default_params(g)
    br = respond.adversary_best_response(g, p, game.DefenderStrategy.zeros(g))
    assert br.path == (0, 1, 2, 4)


# ---------------------------------------------------------------------------
# discretized defender response
# ---------------------------------------------------------------------------


def small_instance(rng, n_max=4, m=1):
    g = random_dag_instance(rng, n_max=n_max, m=m)
    p = random_params(rng, g.n, m)
    adv = game.AdversaryStrategy.random(g, rng)
    return g, p, adv


def test_ground_set_order_and_size():
    g = ifg.make_graph(2, [(1, 2)], [[2]], [1], rule_relevance=[(1,), ()])
    ground = respond.build_ground_set(g, 2)
    assert ground[:4] == ((1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2))
    # node 1: tag, trap, rule 1; node 2: tag, trap only
    assert len(ground) == 2 * (2 + 1) + 2 * 2


def test_greedy_empty_when_adversary_drops(rng):
    g = random_dag_instance(rng, n_max=5, m=1)
    p = random_params(rng, g.n, 1)
    adv = game.AdversaryStrategy({s: {DROP: 1.0} for s in game.AdversaryStrategy.uniform(g).moves})
    for variant in ("randomized", "deterministic"):
        res = respond.defender_best_response_greedy(g, p, adv, levels=2, variant=variant)
        assert res.selected == ()
        assert res.value == pytest.approx(0.0)


def test_greedy_arms_single_profitable_node():
    # one-hop attack, huge detection reward, tiny costs: arm everything there
    g = ifg.make_graph(1, [], [[1]], [1], rule_relevance=[(1,)])
    p = game.GameParams(alpha_a=-1, beta_a=(1,), alpha_d=500.0, beta_d=(-500.0,),
                        c1=-0.01, c2=-0.01, gamma=(-0.01,))
    adv = game.AdversaryStrategy({(0, 1): {1: 1.0}})
    objective = respond.DefenderObjective(g, p, adv, levels=1)
    best_val, best_set = -math.inf, None
    for k in range(len(objective.ground) + 1):
        for subset in itertools.combinations(range(len(objective.ground)), k):
            val = objective.value(set(subset))
            if val > best_val:
                best_val, best_set = val, set(subset)
    assert best_set == {0, 1, 2}
    res = respond.defender_best_response_greedy(g, p, adv, levels=1)
    assert set(res.selected) == best_set
    assert res.value == pytest.approx(best_val)


def test_marginal_gain_off_path_is_pure_cost(rng):
    g = ifg.make_graph(3, [(1, 3)], [[3]], [1], rule_relevance=[(1,), (1,), (1,)])
    p = random_params(rng, 3, 1)
    adv = game.AdversaryStrategy.uniform(g)  # node 2 is unreachable
    objective = respond.DefenderObjective(g, p, adv, levels=2)
    for element, (node, comp, _) in enumerate(objective.ground):
        if node != 2:
            continue
        expected = cell_price(g, p, 2, comp - 1)
        gain = marginal_gain(objective, set(), element)
        assert gain == pytest.approx(expected / 2.0, abs=1e-12)


def test_marginal_gain_constant_when_detection_term_vanishes(rng):
    # an immediately-dropping adversary zeroes the detection term, leaving the
    # modular cost terms: gains are then independent of the base set
    g = random_dag_instance(rng, n_max=4, m=1)
    p = random_params(rng, g.n, 1)
    adv = game.AdversaryStrategy({s: {DROP: 1.0} for s in game.AdversaryStrategy.uniform(g).moves})
    objective = respond.DefenderObjective(g, p, adv, levels=1)
    n = len(objective.ground)
    element = int(rng.integers(n))
    others = [e for e in range(n) if e != element]
    gains = set()
    for _ in range(5):
        base = {e for e in others if rng.random() < 0.5}
        gains.add(round(marginal_gain(objective, base, element), 12))
    assert len(gains) == 1


def test_marginal_gains_diminish_on_node_scheme(rng):
    # one element arms a whole node: the payoff is weighted coverage plus
    # modular costs, so diminishing returns hold for every triple
    for _ in range(40):
        g, p, adv = small_instance(rng, n_max=4)
        objective = respond.DefenderObjective(g, p, adv, levels=1, scheme="node")
        n = len(objective.ground)
        element = int(rng.integers(n))
        others = [e for e in range(n) if e != element]
        small = {e for e in others if rng.random() < 0.3}
        large = small | {e for e in others if rng.random() < 0.5}
        g_small = marginal_gain(objective, small, element)
        g_large = marginal_gain(objective, large, element)
        assert g_small >= g_large - 1e-9


def test_component_scheme_is_not_submodular():
    # tag and trap multiply into the detection probability, so they are
    # complements: arming the trap gains nothing until the tag is armed
    g = ifg.make_graph(2, [(1, 2)], [[2]], [1], rule_relevance=[(), ()])
    p = game.GameParams(alpha_a=-1, beta_a=(1,), alpha_d=100.0, beta_d=(-1.0,),
                        c1=-0.1, c2=-0.1, gamma=(-0.1, -0.1))
    adv = game.AdversaryStrategy.pure_walk(g, (0, 1, 2))
    objective = respond.DefenderObjective(g, p, adv, levels=1, scheme="component")
    tag_1 = objective.ground.index((1, 1, 1))
    trap_1 = objective.ground.index((1, 2, 1))
    gain_empty = marginal_gain(objective, set(), trap_1)
    gain_with_tag = marginal_gain(objective, {tag_1}, trap_1)
    assert gain_with_tag > gain_empty + 1.0  # strict supermodular violation


def brute_force_optimum(objective):
    n = len(objective.ground)
    best = -math.inf
    for mask in range(2**n):
        subset = {e for e in range(n) if mask & (1 << e)}
        best = max(best, objective.value(subset))
    return best


def guarantee_instance(rng, n_max=4):
    """Detection reward dominates the tiny stage penalty, so the optimum is
    positive and the constant-factor bounds have teeth."""
    g = random_dag_instance(rng, n_max=n_max, m=1)
    p = game.GameParams(
        alpha_a=-1.0, beta_a=(1.0,), alpha_d=float(rng.uniform(20, 60)),
        beta_d=(-float(rng.uniform(0.01, 0.1)),),
        c1=-float(rng.uniform(0.2, 2)), c2=-float(rng.uniform(0.2, 2)),
        gamma=tuple(-float(x) for x in rng.uniform(0.05, 0.5, size=g.n)),
    )
    adv = game.AdversaryStrategy.random(g, rng)
    return g, p, adv


def test_randomized_greedy_half_of_optimum(rng):
    for _ in range(4):
        g, p, adv = guarantee_instance(rng)
        objective = respond.DefenderObjective(g, p, adv, levels=1, scheme="node")
        opt = brute_force_optimum(objective)
        values = [
            respond.defender_best_response_greedy(g, p, adv, levels=1, seed=s, scheme="node").value
            for s in range(11)
        ]
        med = sorted(values)[5]
        assert med >= 0.5 * opt - 1e-9


def test_deterministic_greedy_third_of_optimum(rng):
    for _ in range(4):
        g, p, adv = guarantee_instance(rng)
        objective = respond.DefenderObjective(g, p, adv, levels=1, scheme="node")
        opt = brute_force_optimum(objective)
        res = respond.defender_best_response_greedy(
            g, p, adv, levels=1, variant="deterministic", scheme="node"
        )
        assert res.value >= opt / 3.0 - 1e-9


def test_greedy_evaluation_budget(rng):
    g, p, adv = small_instance(rng, n_max=4)
    res = respond.defender_best_response_greedy(g, p, adv, levels=2)
    assert res.n_evaluations <= 2 * len(res.ground) + 2


def test_greedy_induced_probabilities_are_level_fractions(rng):
    g, p, adv = small_instance(rng, n_max=4)
    res = respond.defender_best_response_greedy(g, p, adv, levels=3)
    assert res.levels == 3
    scaled = res.strategy.probs[1:] * res.levels
    assert np.allclose(scaled, np.round(scaled), atol=1e-9)


def test_greedy_value_matches_reevaluation(rng):
    g, p, adv = small_instance(rng, n_max=4)
    res = respond.defender_best_response_greedy(g, p, adv, levels=2)
    rep = game.evaluate_exact(g, p, res.strategy, adv)
    assert res.value == pytest.approx(rep.u_d, abs=1e-9)


def test_strategy_for_matches_per_element_loop(rng):
    # levels that divide 1 inexactly, so repeated adds to one cell round
    for g in (random_dag_instance(rng, n_max=6, m_max=2),
              generate.gen_graph(30, 3, 2, 2, 0.1, seed=4)):
        adv = game.AdversaryStrategy.random(g, rng)
        for levels, scheme in ((1, "component"), (3, "component"), (7, "component"),
                               (3, "node"), (7, "node")):
            objective = respond.DefenderObjective(g, game.default_params(g), adv, levels, scheme)
            n = len(objective.ground)
            subsets = [set(), set(range(n))]
            subsets += [set(np.flatnonzero(rng.random(n) < q).tolist()) for q in (0.1, 0.5, 0.9)]
            for selected in subsets:
                got = objective.strategy_for(selected).probs
                assert got.tobytes() == oracle_strategy_for(objective, selected).probs.tobytes()


def test_objective_is_exact_on_cyclic_support(monkeypatch):
    # a random strategy on a cyclic graph has far too many walks to
    # enumerate; the objective still never samples
    rng = np.random.default_rng(2)
    g = generate.gen_graph(30, 4, 2, 3, 0.08, seed=2)
    p = game.default_params(g)
    adv = game.AdversaryStrategy.random(g, rng)
    sample = game.evaluate_monte_carlo

    def refuse(*args, **kwargs):
        raise AssertionError("the defender objective sampled")

    monkeypatch.setattr(game, "evaluate_monte_carlo", refuse)
    monkeypatch.setattr(respond, "evaluate_monte_carlo", refuse)
    res = respond.defender_best_response_greedy(g, p, adv, levels=1)
    u_d = game.evaluate_exact(g, p, res.strategy, adv).u_d
    assert res.value == pytest.approx(u_d, rel=1e-12, abs=1e-9)
    mc = sample(g, p, res.strategy, adv, n_trials=100_000, seed=11)
    assert abs(res.value - mc.u_d) <= 4 * mc.std_err_d


def test_levels_validation():
    g = ifg.make_graph(2, [(1, 2)], [[2]], [1])
    for levels in ((1, 2), 0, 1.5):
        with pytest.raises(ValidationError, match="levels must be a positive integer"):
            respond.build_ground_set(g, levels)
        with pytest.raises(ValidationError, match="levels must be a positive integer"):
            respond.DefenderObjective(g, game.default_params(g),
                                      game.AdversaryStrategy.uniform(g), levels)


def persistent_adversary(graph, rng, drop=0.02):
    """Random moves that drop with probability ``drop`` at every decision state."""
    moves = {}
    for v, j in game.AdversaryStrategy.decision_states(graph):
        succ = graph.successors.get(v, ())
        w = rng.dirichlet(np.ones(len(succ))) * (1.0 - drop) if succ else ()
        moves[(v, j)] = {**{a: float(p) for a, p in zip(succ, w)}, DROP: drop if succ else 1.0}
    return game.AdversaryStrategy(moves)


def full_table_graph():
    """A hand-made graph without ``rule_relevance``: every rule is relevant at
    every node, so its cell table is the full n(n+2)."""
    edges = [(1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (5, 6), (3, 7), (7, 8), (6, 8)]
    return ifg.make_graph(8, edges, [[8]], [1], traffic=[1.0 + i for i in range(1, 9)])


def objective_cases(rng):
    """(graph, params, adversary) over random, cyclic persistent and pure-walk adversaries."""
    g = random_dag_instance(rng, n_max=7, m_max=3)
    yield g, random_params(rng, g.n, g.n_stages), game.AdversaryStrategy.random(g, rng)
    g = generate.gen_graph(20, 2, [1, 1], 2, 0.2, seed=3)
    comp = ifg.strong_components([list(g.successors.get(v, ())) for v in range(g.n + 1)], [ifg.SOURCE])
    reached = [c for c in comp if c >= 0]
    assert len(set(reached)) < len(reached)  # the support has a cycle
    yield g, game.default_params(g), persistent_adversary(g, rng)
    p = random_params(rng, g.n, g.n_stages)
    walk = respond.adversary_best_response(g, p, game.DefenderStrategy.random(g, rng)).path
    yield g, p, game.AdversaryStrategy.pure_walk(g, walk)
    g = full_table_graph()
    assert g.defender_cells[0].size == g.n * (g.n + 2)
    yield g, random_params(rng, g.n, 1), game.AdversaryStrategy.random(g, rng)
    yield g, random_params(rng, g.n, 1), game.AdversaryStrategy.pure_walk(g, (0, 1, 3, 7, 8))


def test_objective_value_equals_dense_path(rng):
    # the cell-vector objective and its solve cache give the very float that
    # the dense matrix scored on a fresh chain gives; nine adds of 1/9 round
    # above 1, where the matrix clips
    for g, p, adv in objective_cases(rng):
        for scheme in ("component", "node"):
            for levels in (1, 2, 3, 9):
                objective = respond.DefenderObjective(g, p, adv, levels, scheme)
                n = len(objective.ground)
                subsets = [set(), set(range(n))]
                subsets += [set(np.flatnonzero(rng.random(n) < q).tolist()) for q in (0.1, 0.3, 0.6, 0.9)]
                for selected in subsets + subsets:  # the second round hits the cache
                    assert objective.value(selected) == oracle_objective_value(objective, selected)


def test_off_walk_candidate_adds_no_solve(rng):
    g = full_table_graph()
    adv = game.AdversaryStrategy.pure_walk(g, (0, 1, 3, 7, 8))
    objective = respond.DefenderObjective(g, random_params(rng, g.n, 1), adv, levels=2)
    chain = objective._chain
    objective.value(set())
    assert chain.solves == 1
    for element, (node, _, _) in enumerate(objective.ground):
        if node not in (1, 3, 7, 8):
            objective.value({element})
    assert objective.n_evaluations > 1
    assert chain.solves == 1
    objective.value({objective.ground.index((3, 1, 1))})  # a tag alone leaves d[3] at 0
    assert chain.solves == 1
    # every cell of node 3 at one level raises d[3] above 0
    objective.value({e for e, (node, _, level) in enumerate(objective.ground) if node == 3 and level == 1})
    assert chain.solves == 2


def test_masses_read_detection_only_at_move_targets(rng):
    g = full_table_graph()
    walk = (0, 1, 3, 7, 8)
    chain = game.AbsorbingChain(g, game.AdversaryStrategy.pure_walk(g, walk))
    d1 = rng.random(g.n + 1)
    d1[0] = 0.0
    d2 = d1.copy()
    off = [v for v in range(1, g.n + 1) if v not in walk]
    d2[off] = rng.random(len(off))
    first = chain.masses(d1)
    assert chain.masses(d2) == first
    assert chain.solves == 1
    assert game.AbsorbingChain(g, game.AdversaryStrategy.pure_walk(g, walk)).masses(d2) == first


def test_greedy_solves_once_per_distinct_detection_at_targets(rng, monkeypatch):
    g = generate.gen_graph(20, 2, [1, 1], 2, 0.2, seed=3)
    p = game.default_params(g)
    adv = game.AdversaryStrategy.random(g, rng)
    seen = []
    masses = game.AbsorbingChain.masses

    def recording(chain, detection):
        seen.append((chain, detection.copy()))
        return masses(chain, detection)

    monkeypatch.setattr(game.AbsorbingChain, "masses", recording)
    res = respond.defender_best_response_greedy(g, p, adv, levels=2)
    chains = {id(chain): chain for chain, _ in seen}
    assert len(chains) == 1
    (chain,) = chains.values()
    targets = sorted({a for v, j in chain.states for a, q in adv.distribution(v, j).items()
                      if q > 0.0 and a != DROP})
    distinct = {d[targets].tobytes() for _, d in seen}
    assert len(seen) == res.n_evaluations
    assert chain.solves <= len(distinct) < res.n_evaluations
