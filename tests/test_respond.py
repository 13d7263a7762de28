import itertools
import math

import numpy as np
import pytest

from diftgame import game, generate, ifg, respond
from diftgame.errors import Unreachable, ValidationError
from diftgame.game import DROP

from conftest import oracle_best_path_value, random_dag_instance, random_params


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
            stage = g.advance(v, stage)
        assert stage == br.target_stage + 1 or stage > g.n_stages
        # the walk must have completed stages 1..target_stage in order
        assert stage >= br.target_stage + 1


def test_best_response_linear_mode_reports_exact_product(rng):
    g = random_dag_instance(rng, n_max=6, m_max=2)
    p = random_params(rng, g.n, g.n_stages)
    d = game.DefenderStrategy.random(g, rng)
    br = respond.adversary_best_response(g, p, d, weight_mode="linear")
    if not br.dropped:
        det = d.detection_vector(g)
        prod = math.prod(1.0 - det[v] for v in br.path[1:])
        assert br.survival == pytest.approx(prod, abs=1e-12)
    log_br = respond.adversary_best_response(g, p, d, weight_mode="log")
    assert log_br.value >= br.value - 1e-9  # the exact mode never does worse


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
        expected = {1: p.tag_cost(g, 2), 2: p.trap_cost(g, 2)}.get(comp, p.gamma[comp - 3] if comp > 2 else None)
        gain = respond.marginal_gain(objective, set(), element)
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
        gains.add(round(respond.marginal_gain(objective, base, element), 12))
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
        g_small = respond.marginal_gain(objective, small, element)
        g_large = respond.marginal_gain(objective, large, element)
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
    gain_empty = respond.marginal_gain(objective, set(), trap_1)
    gain_with_tag = respond.marginal_gain(objective, {tag_1}, trap_1)
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
    levels = np.array(res.levels)
    scaled = res.strategy.probs[1:] * levels[None, :]
    assert np.allclose(scaled, np.round(scaled), atol=1e-9)


def test_greedy_value_matches_reevaluation(rng):
    g, p, adv = small_instance(rng, n_max=4)
    res = respond.defender_best_response_greedy(g, p, adv, levels=2)
    rep = game.evaluate_exact(g, p, res.strategy, adv)
    assert res.value == pytest.approx(rep.u_d, abs=1e-9)


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
    u_d, _ = game.AbsorbingChain(g, adv).evaluate(p, res.strategy)
    assert res.value == pytest.approx(u_d, rel=1e-12, abs=1e-9)
    mc = sample(g, p, res.strategy, adv, n_trials=100_000, seed=11)
    assert abs(res.value - mc.u_d) <= 4 * mc.std_err_d


def test_levels_validation():
    g = ifg.make_graph(2, [(1, 2)], [[2]], [1])
    with pytest.raises(ValidationError):
        respond.normalize_levels(g, (1, 2))
    with pytest.raises(ValidationError):
        respond.normalize_levels(g, 0)
