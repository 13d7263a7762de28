import math

import numpy as np
import pytest

from diftgame import game, generate, ifg
from diftgame.errors import InvalidPath, TruncationError, ValidationError
from diftgame.game import DROP

from conftest import (
    exhaustive_pure_defender_average,
    oracle_detection_vector,
    oracle_monte_carlo,
    oracle_strategy_costs,
    random_dag_instance,
    random_params,
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


def test_params_derived_costs_nonpositive():
    g = ifg.make_graph(2, [(1, 2)], [[2]], [1], traffic=[0.3, 0.7])
    p = game.GameParams(alpha_a=-1, beta_a=(1,), alpha_d=1, beta_d=(-1,), c1=-2, c2=-3, gamma=(-1, -1))
    assert p.tag_cost(g, 1) == pytest.approx(-0.6)
    assert p.trap_cost(g, 2) == pytest.approx(-2.1)
    assert all(p.tag_cost(g, i) <= 0 and p.trap_cost(g, i) <= 0 for i in (1, 2))


def test_params_scaled_touches_only_costs():
    p = game.GameParams(alpha_a=-1, beta_a=(1,), alpha_d=1, beta_d=(-1,), c1=-2, c2=-3, gamma=(-1, -4))
    q = p.scaled(0.5)
    assert (q.c1, q.c2, q.gamma) == (-1.0, -1.5, (-0.5, -2.0))
    assert (q.alpha_a, q.beta_a, q.alpha_d, q.beta_d) == (p.alpha_a, p.beta_a, p.alpha_d, p.beta_d)


# ---------------------------------------------------------------------------
# detection probability
# ---------------------------------------------------------------------------


def test_detection_prob_zero_strategy():
    g = chain_instance()
    assert game.detection_prob(2, game.DefenderStrategy.zeros(g), (1, 2)) == 0.0


def test_detection_prob_empty_relevance_is_tag_times_trap():
    g = chain_instance()
    d = game.DefenderStrategy.zeros(g).with_entry(2, 1, 1.0).with_entry(2, 2, 1.0)
    assert game.detection_prob(2, d, ()) == 1.0


def test_detection_prob_product():
    g = chain_instance()
    d = (
        game.DefenderStrategy.zeros(g)
        .with_entry(2, 1, 0.5)
        .with_entry(2, 2, 0.5)
        .with_entry(2, 2 + 1, 0.5)
    )
    assert game.detection_prob(2, d, (1,)) == pytest.approx(0.125)


def test_defender_strategy_source_row_must_be_zero():
    probs = np.zeros((3, 4))
    probs[0, 0] = 0.3
    with pytest.raises(ValidationError):
        game.DefenderStrategy(probs)


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
    g = ifg.make_graph(3, [(1, 2), (2, 1), (2, 3)], [[3]], [1], rule_relevance=[(), (), ()])
    p = game.default_params(g)
    d = game.DefenderStrategy.zeros(g)
    looped = game.AdversaryStrategy({
        (0, 1): {1: 1.0},
        (1, 1): {2: 1.0},
        (2, 1): {1: 0.8, 3: 0.2},
    })
    looped.validate(g)
    with pytest.raises(TruncationError):
        game.evaluate_exact(g, p, d, looped, max_len=8)
    rep = game.evaluate_exact(g, p, d, looped, max_len=8, on_truncation="drop")
    # 8 moves fit three 2->1 returns, so the unresolved walk mass is 0.8^3
    assert rep.truncated_mass == pytest.approx(0.8**3, abs=1e-12)


def test_exact_self_loop_cycle_allowed_with_drop_fold():
    g = ifg.make_graph(2, [(1, 1), (1, 2)], [[2]], [1], rule_relevance=[(), ()])
    p = game.default_params(g)
    adv = game.AdversaryStrategy({(0, 1): {1: 1.0}, (1, 1): {1: 0.5, 2: 0.25, DROP: 0.25}})
    rep = game.evaluate_exact(g, p, game.DefenderStrategy.zeros(g), adv,
                              max_len=30, on_truncation="drop")
    # reach probability is the geometric sum 0.25 * (1 + 1/2 + 1/4 + ...) = 1/2
    assert rep.p_r[0] == pytest.approx(0.5, abs=1e-6)


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


def test_pure_profile_unarmed_walk_collects_stage_rewards():
    g = ifg.make_graph(4, [(1, 2), (2, 3), (3, 4)], [[2], [4]], [1], rule_relevance=[()] * 4)
    p = game.default_params(g)
    bits = np.zeros((5, 6))
    u_d, u_a = game.evaluate_pure_profile(g, p, bits, (0, 1, 2, 3, 4))
    assert u_a == pytest.approx(p.beta_a[0] + p.beta_a[1])
    assert u_d == pytest.approx(p.beta_d[0] + p.beta_d[1])


def test_pure_profile_first_node_armed():
    g = chain_instance(relevance=[(1,), (), ()])
    p = game.default_params(g)
    bits = np.zeros((4, 5))
    bits[1, 0] = bits[1, 1] = 1.0
    bits[1, 2] = 1.0  # rule 1 relevant at node 1
    u_d, u_a = game.evaluate_pure_profile(g, p, bits, (0, 1, 2, 3))
    assert u_a == p.alpha_a
    cost = p.tag_cost(g, 1) + p.trap_cost(g, 1) + p.gamma[0]
    assert u_d == pytest.approx(p.alpha_d + cost)


def test_pure_profile_rule_bit_blocks_detection_when_unset():
    g = chain_instance(relevance=[(2,), (), ()])
    p = game.default_params(g)
    bits = np.zeros((4, 5))
    bits[1, 0] = bits[1, 1] = 1.0  # tag and trap armed, relevant rule 2 not
    _, u_a = game.evaluate_pure_profile(g, p, bits, (0, 1, 2, 3))
    assert u_a == pytest.approx(p.beta_a[0])


def test_pure_profile_rejects_non_edges():
    g = chain_instance()
    p = game.default_params(g)
    with pytest.raises(InvalidPath):
        game.evaluate_pure_profile(g, p, np.zeros((4, 5)), (0, 1, 3))
    with pytest.raises(InvalidPath):
        game.evaluate_pure_profile(g, p, np.zeros((4, 5)), (1, 2))


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
        terms_a, terms_d = [], []
        for out in game.enumerate_paths(g, p, d, adv):
            w = out.selection_prob
            terms_a.append(w * out.detection_prob * p.alpha_a)
            terms_d.append(w * out.detection_prob * p.alpha_d)
            for j, reach in enumerate(out.reach_probs):
                terms_a.append(w * reach * p.beta_a[j])
                terms_d.append(w * reach * p.beta_d[j])
        u_a = math.fsum(terms_a)
        u_d = math.fsum(terms_d) + rep.tag_cost + rep.trap_cost + rep.rule_cost
        assert abs(u_a - rep.u_a) <= 1e-12
        assert abs(u_d - rep.u_d) <= 1e-12


def test_enumerated_paths_respect_stage_constraint(rng):
    for _ in range(10):
        g = random_dag_instance(rng, n_max=7, m_max=3)
        p = random_params(rng, g.n, g.n_stages)
        d = game.DefenderStrategy.random(g, rng)
        adv = game.AdversaryStrategy.random(g, rng)
        for out in game.enumerate_paths(g, p, d, adv):
            assert list(out.stage_hits) == sorted(out.stage_hits)
            if out.stage_hits:
                assert list(out.stage_hits) == list(range(1, out.stage_hits[-1] + 1))
            reach = [r for r in out.reach_probs if r > 0]
            assert reach == sorted(reach, reverse=True)
            surv = math.prod(out.survival_probs)
            assert out.detection_prob + surv == pytest.approx(1.0, abs=1e-12)


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


def test_adversary_strategy_validation_rejects_non_neighbors():
    g = chain_instance()
    adv = game.AdversaryStrategy({(1, 1): {3: 1.0}})
    with pytest.raises(ValidationError):
        adv.validate(g)


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
        for got, want in zip(chain.evaluate(p, d), compiled.evaluate(p, d)):
            assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("n", [30, 100])
def test_absorbing_chain_matches_monte_carlo_on_cyclic_graphs(n):
    rng = np.random.default_rng(n)
    g = generate.gen_graph(n, 3, 2, 2, 0.1, seed=n)
    p = game.default_params(g)
    d = game.DefenderStrategy.random(g, rng)
    adv = game.AdversaryStrategy.random(g, rng)
    u_d, u_a = game.AbsorbingChain(g, adv).evaluate(p, d)
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
    u_d, u_a = chain.evaluate(p, d)
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


def sparse_defender(graph, rng):
    probs = game.DefenderStrategy.random(graph, rng).probs.copy()
    probs[rng.random(probs.shape) < 0.7] = 0.0
    return game.DefenderStrategy(probs)


def test_detection_vector_matches_per_node_products(rng):
    for g in kernel_graphs(rng):
        for graph in (g, ifg.ensure_augmented(g)):
            for d in (game.DefenderStrategy.random(g, rng), sparse_defender(g, rng),
                      game.DefenderStrategy.full(g, 1.0)):
                got = d.detection_vector(graph)
                assert got.tobytes() == oracle_detection_vector(d, graph).tobytes()


def test_strategy_costs_match_termwise_fsum(rng):
    for g in kernel_graphs(rng):
        p = random_params(rng, g.n, g.n_stages)
        for d in (game.DefenderStrategy.random(g, rng), sparse_defender(g, rng)):
            got = game.strategy_costs(g, p, d)
            want = oracle_strategy_costs(g, p, d)
            assert [x.hex() for x in got] == [x.hex() for x in want]
        zero = game.strategy_costs(g, p, game.DefenderStrategy.zeros(g))
        assert [math.copysign(1.0, x) for x in zero] == [1.0, 1.0, 1.0]  # +0.0, as fsum gives


def test_monte_carlo_reproduces_per_state_loop(rng):
    cyclic = generate.gen_graph(30, 3, 2, 2, 0.1, seed=6)
    cases = [(g, None) for g in kernel_graphs(rng)] + [(cyclic, 4)]  # the last run truncates
    for seed, (g, max_len) in enumerate(cases):
        p = random_params(rng, g.n, g.n_stages)
        d = game.DefenderStrategy.random(g, rng)
        adv = game.AdversaryStrategy.random(g, rng)
        got = game.evaluate_monte_carlo(g, p, d, adv, 5_000, seed, max_len)
        want = oracle_monte_carlo(g, p, d, adv, 5_000, seed, max_len)
        assert got.csv_row() == want.csv_row()
        assert got.outcome_counts == want.outcome_counts
    assert want.truncated_mass > 0.0


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
