import math

import numpy as np
import pytest

from diftgame import game, ifg, learn
from diftgame.errors import ValidationError
from diftgame.game import DROP
from diftgame.learn import ADVANCE, LearnerConfig, PlayerRoster, fixed_point

from conftest import (
    cell_price,
    expected_swap_utility,
    oracle_power_iteration,
    oracle_profile_utilities,
    oracle_stationary,
    random_cyclic_instance,
    random_dag_instance,
    random_params,
    swap_chain,
    swap_distribution,
)


# ---------------------------------------------------------------------------
# roster
# ---------------------------------------------------------------------------


def test_roster_count_formula_small():
    # N=3, M=2, one relevant rule per node: (M+2)N + L + 1 = 3*4 + 3 + 1 = 16
    g = ifg.make_graph(3, [(1, 2), (2, 3)], [[2], [3]], [1],
                       rule_relevance=[(1,), (1,), (1,)])
    roster = PlayerRoster(g)
    assert len(roster) == 16


def test_roster_count_rain_shape():
    from diftgame.generate import gen_graph

    g = gen_graph(30, 4, (2, 2, 2, 2), 1, 0.08, seed=7)
    roster = PlayerRoster(g)
    n_rules = sum(len(g.relevance(v)) for v in range(1, 31))
    assert len(roster) == (4 + 2) * 30 + n_rules + 1
    moves = [p for p in roster.players if p.kind == "move"]
    entry = [p for p in roster.players if p.kind == "entry"]
    assert len(moves) + len(entry) == 4 * 30 + 1 == 121


def test_roster_action_spaces():
    g = ifg.make_graph(3, [(1, 2), (1, 3), (2, 3)], [[3]], [1], rule_relevance=[()] * 3)
    roster = PlayerRoster(g)
    move_1 = roster.players[roster.move_index[(1, 1)]]
    assert move_1.actions == (2, 3, DROP)  # two neighbors plus drop
    forced = roster.players[roster.move_index[(3, 1)]]
    assert forced.actions == (ADVANCE,)  # node 3 is the stage-1 destination
    sink = roster.players[roster.move_index[(2, 1)]]
    assert sink.actions == (3, DROP)
    entry = roster.players[roster.entry_index]
    assert entry.actions == (1,)


# ---------------------------------------------------------------------------
# swap transformations
# ---------------------------------------------------------------------------


def test_swap_distribution_moves_all_mass():
    assert np.allclose(swap_distribution([0.5, 0.5], 0, 1), [0.0, 1.0])


def test_swap_distribution_noop_when_source_empty():
    p = [0.0, 0.4, 0.6]
    assert np.allclose(swap_distribution(p, 0, 2), p)


def test_swap_distribution_uniform_three():
    assert np.allclose(swap_distribution([1 / 3] * 3, 0, 2), [0.0, 1 / 3, 2 / 3])


def test_fixed_point_absorbing_swap():
    delta = np.array([[0.0, 1.0], [0.0, 0.0]])
    p = fixed_point(delta)
    assert p[0] == pytest.approx(0.0, abs=1e-10)
    assert p[1] == pytest.approx(1.0, abs=1e-10)


def test_fixed_point_symmetric_two_actions():
    delta = np.array([[0.0, 0.5], [0.5, 0.0]])
    assert np.allclose(fixed_point(delta), [0.5, 0.5], atol=1e-12)


def test_fixed_point_matches_dense_solve(rng):
    for _ in range(200):
        k = int(rng.integers(2, 9))
        raw = rng.random((k, k))
        np.fill_diagonal(raw, 0.0)
        delta = raw / raw.sum()
        p = fixed_point(delta)
        q = delta.copy()
        np.fill_diagonal(q, 1.0 - delta.sum(axis=1))
        assert np.abs(p - p @ q).sum() <= 1e-10
        assert np.allclose(p, oracle_stationary(delta), atol=1e-8)
        assert np.allclose(p, oracle_power_iteration(delta), atol=1e-8)


def _underflowed_softmax_pairs():
    g = np.zeros((4, 4))
    g[0, 1] = g[2, 3] = 100.0
    g[0, 2] = 99.0
    delta = learn._softmax_pairs(g, 10.0)
    # the pairs left at 0 sit eta * 100 = 1000 below the max: exp(-1000) == 0
    assert np.count_nonzero(delta) == 3
    return delta


HARD_CHAINS = {
    # mixes in about 1e6 sweeps, past any practical power-iteration budget
    "near_reducible": lambda: [[0.0, 1 - 2e-6, 0.0], [1e-6, 0.0, 0.0], [1e-6, 0.0, 0.0]],
    # two closed classes: every mixture of e_1 and e_2 is stationary
    "reducible": lambda: [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
    "softmax_underflow": _underflowed_softmax_pairs,
}


@pytest.mark.parametrize("name", sorted(HARD_CHAINS))
def test_fixed_point_hard_chains(name):
    delta = np.array(HARD_CHAINS[name]())
    p = fixed_point(delta)
    assert np.all(p >= 0.0)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.abs(p - p @ swap_chain(delta)).sum() <= 1e-10
    assert np.array_equal(p, fixed_point(delta))


def test_fixed_point_rejects_bad_delta():
    with pytest.raises(ValidationError):
        fixed_point(np.array([[0.0, -0.5], [1.5, 0.0]]))
    with pytest.raises(ValidationError):
        fixed_point(np.array([[0.0, 0.2], [0.2, 0.0]]))  # not a distribution


# ---------------------------------------------------------------------------
# expected swap utility
# ---------------------------------------------------------------------------


def small_learning_instance(rng, n_max=5, m_max=2):
    g = random_dag_instance(rng, n_max=n_max, m_max=m_max)
    p = random_params(rng, g.n, g.n_stages)
    roster = PlayerRoster(g)
    profile = np.array([int(rng.integers(pl.n_actions)) for pl in roster.players])
    return g, p, roster, profile


def test_expected_swap_utility_degenerate_is_pure_utility(rng):
    g, p, roster, profile = small_learning_instance(rng)
    for idx, player in enumerate(roster.players):
        if player.n_actions < 2:
            continue
        a = int(rng.integers(player.n_actions))
        point = np.zeros(player.n_actions)
        point[a] = 1.0
        work = profile.copy()
        work[idx] = a
        u_d, u_a = oracle_profile_utilities(g, p, roster, work)
        want = u_a if player.kind in ("move", "entry") else u_d
        got = expected_swap_utility(roster, idx, point, profile, g, p)
        assert got == pytest.approx(want, abs=1e-12)


def test_expected_swap_utility_defender_off_path_is_flat(rng):
    # a defender component at an unreachable node changes only its own cost
    g = ifg.make_graph(3, [(1, 3)], [[3]], [1], rule_relevance=[(), (), ()])
    p = random_params(rng, 3, 1)
    roster = PlayerRoster(g)
    profile = np.zeros(len(roster), dtype=np.int64)
    idx = roster.defender_index[(2, 0)]  # node 2's tag; node 2 is off every walk
    for swapped in ([1.0, 0.0], [0.0, 1.0], [0.5, 0.5]):
        got = expected_swap_utility(roster, idx, swapped, profile, g, p)
        base = expected_swap_utility(roster, idx, [1.0, 0.0], profile, g, p)
        assert got == pytest.approx(base + swapped[1] * cell_price(g, p, 2, 0), abs=1e-12)


def test_expected_swap_utility_matches_sampling_oracle(rng):
    g, p, roster, profile = small_learning_instance(rng)
    candidates = [i for i, pl in enumerate(roster.players) if pl.n_actions >= 2]
    idx = candidates[int(rng.integers(len(candidates)))]
    player = roster.players[idx]
    weights = rng.dirichlet(np.ones(player.n_actions))
    swapped = swap_distribution(weights, 0, player.n_actions - 1)
    exact = expected_swap_utility(roster, idx, swapped, profile, g, p)
    # Monte Carlo oracle: sample the player's action from the swapped mixture
    draws = 100_000
    counts = rng.multinomial(draws, swapped)
    utils = np.empty(player.n_actions)
    for a in range(player.n_actions):
        point = np.zeros(player.n_actions)
        point[a] = 1.0
        utils[a] = expected_swap_utility(roster, idx, point, profile, g, p)
    estimate = float(counts @ utils) / draws
    spread = float(np.sqrt(np.var(np.repeat(utils, counts)) / draws))
    assert abs(estimate - exact) <= 3 * max(spread, 1e-9)


# ---------------------------------------------------------------------------
# the learner
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("field", ["eta", "eps"])
@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan], ids=["0", "-1", "inf", "nan"])
def test_learner_config_requires_finite_positive_rates(field, bad):
    with pytest.raises(ValidationError, match=rf"^{field} must be finite and > 0, got {bad}$"):
        LearnerConfig(**{field: bad})


def test_run_stops_after_one_iteration_when_eps_bounds_every_gap():
    # a mixture moves at most 1 in sup norm, so eps = 1 stops the first check
    g = ifg.make_graph(2, [(1, 2)], [[2]], [1], rule_relevance=[(), ()])
    p = game.default_params(g)
    res = learn.run(g, p, LearnerConfig(eps=1.0, max_iters=100, seed=0))
    assert res.iterations == 1
    assert res.converged
    assert res.trace.shape == (1, 4)
    for dist in res.distributions:
        assert dist.sum() == pytest.approx(1.0)


def test_run_dominant_path_attracts_all_mass():
    # detection impossible once the trap is priced out: attacking dominates
    g = ifg.make_graph(2, [(1, 2)], [[2]], [1], rule_relevance=[(), ()])
    p = game.GameParams(alpha_a=-5.0, beta_a=(5.0,), alpha_d=0.5, beta_d=(-0.5,),
                        c1=-0.01, c2=-40.0, gamma=(-0.01, -0.01))
    res = learn.run(g, p, LearnerConfig(eta=0.05, eps=1e-4, max_iters=4000, seed=2))
    roster = res.roster
    move = res.distributions[roster.move_index[(1, 1)]]
    player = roster.players[roster.move_index[(1, 1)]]
    assert player.actions == (2, DROP)
    assert move[0] > 0.99  # adversary walks to the destination
    trap = res.distributions[roster.defender_index[(1, 1)]]
    assert trap[1] < 0.05  # the trap is priced out
    assert res.trace[-1, 2] == pytest.approx(p.beta_a[0], rel=0.2)


def test_run_is_deterministic(rng):
    g = random_dag_instance(rng, n_max=5, m_max=2)
    p = random_params(rng, g.n, g.n_stages)
    cfg = LearnerConfig(eta=0.05, eps=1e-4, max_iters=300, seed=11)
    a = learn.run(g, p, cfg)
    b = learn.run(g, p, cfg)
    assert np.array_equal(a.trace, b.trace)
    assert np.array_equal(a.profiles, b.profiles)
    for da, db in zip(a.distributions, b.distributions):
        assert np.array_equal(da, db)


def test_run_distributions_and_trace_shapes(rng):
    g = random_dag_instance(rng, n_max=5, m_max=2)
    p = random_params(rng, g.n, g.n_stages)
    res = learn.run(g, p, LearnerConfig(eta=0.02, eps=1e-9, max_iters=50, seed=4))
    assert not res.converged
    assert res.iterations == 50
    assert res.trace.shape == (50, 4)
    assert res.profiles.shape == (50, len(res.roster))
    assert len(res.joint_profiles()) == 25
    for idx, dist in enumerate(res.distributions):
        assert dist.shape == (res.roster.players[idx].n_actions,)
        assert np.all(dist >= 0)
        assert dist.sum() == pytest.approx(1.0, abs=1e-9)
    # extracted strategies are valid
    res.adversary_strategy().validate(g)
    d = res.defender_strategy()
    assert np.all(d.probs >= 0) and np.all(d.probs <= 1)


def test_run_two_action_update_is_swap_chain_fixed_point(rng):
    # the closed-form defender update must be the stationary distribution of
    # the softmax swap chain
    g = random_dag_instance(rng, n_max=4, m_max=1)
    p = random_params(rng, g.n, g.n_stages)
    res = learn.run(g, p, LearnerConfig(eta=0.05, eps=1e-9, max_iters=20, seed=9))
    # re-derive one defender's distribution from cumulative swap utilities
    roster = res.roster
    ctx = learn._Rollout(roster, p)
    d0 = roster.defender_start
    g01 = np.zeros(roster.n_defenders)
    g10 = np.zeros(roster.n_defenders)
    for t in range(res.iterations):
        actions = res.profiles[t].astype(np.int64)
        bits = actions[d0:].astype(np.float64)
        armed = ctx.armed_nodes(bits)
        info = ctx.walk_info(actions, armed, bits)
        u0, u1 = ctx.defender_utils(actions, armed, info)
        g01 += u1
        g10 += u0
    for local in range(roster.n_defenders):
        delta = learn._softmax_pairs(np.array([[0.0, g01[local]], [g10[local], 0.0]]), 0.05)
        stationary = fixed_point(delta)
        assert np.allclose(stationary, res.distributions[d0 + local], atol=1e-9)


def test_run_underflowed_move_player_is_swap_chain_fixed_point():
    # at eta=10 the pair weights of the 4-action move player at (1, 1)
    # underflow to exact zeros, so its swap chain is reducible
    g = ifg.make_graph(4, [(1, 2), (1, 3), (1, 4), (2, 4), (3, 4)], [[4]], [1],
                       rule_relevance=[(1,)] * 4)
    p = random_params(np.random.default_rng(23), g.n, 1)
    eta = 10.0
    res = learn.run(g, p, LearnerConfig(eta=eta, eps=1e-9, max_iters=50, seed=23))
    roster = res.roster
    idx = roster.move_index[(1, 1)]
    k = roster.players[idx].n_actions
    assert k == 4
    # re-derive the player's cumulative swap utilities with the reference
    # pure-profile evaluator, replaying the recorded profiles
    dist = np.full(k, 1.0 / k)
    big_g = np.zeros((k, k))
    for actions in res.profiles.astype(np.int64):
        utils = np.array([
            expected_swap_utility(roster, idx, np.eye(k)[a], actions, g, p)
            for a in range(k)
        ])
        for r in range(k):
            for s in range(k):
                if r != s:
                    big_g[r, s] += float(swap_distribution(dist, r, s) @ utils)
        dist = fixed_point(learn._softmax_pairs(big_g, eta))
    delta = learn._softmax_pairs(big_g, eta)
    assert np.count_nonzero(delta) < k * (k - 1)
    final = res.distributions[idx]
    assert np.allclose(fixed_point(delta), final, atol=1e-9)
    assert np.abs(final - final @ swap_chain(delta)).sum() <= 1e-10


def test_adversary_players_share_utility_and_defenders_too(rng):
    g, p, roster, profile = small_learning_instance(rng)
    u_d, u_a = oracle_profile_utilities(g, p, roster, profile)
    for idx, player in enumerate(roster.players):
        if player.n_actions < 2:
            continue
        point = np.zeros(player.n_actions)
        point[profile[idx]] = 1.0
        u = expected_swap_utility(roster, idx, point, profile, g, p)
        expected = u_a if player.kind in ("move", "entry") else u_d
        assert u == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("kind", ["dag", "cyclic"])
def test_profile_gains_match_chain_reference(kind):
    # every swap gain the rollout reports, and the zero gain of every player
    # it skips, against the absorbing-chain reference; cyclic graphs give
    # walks that revisit nodes and profiles that commit to cycles
    rng = np.random.default_rng(13 if kind == "dag" else 14)
    checked = 0
    for _ in range(10):
        if kind == "dag":
            g = random_dag_instance(rng, n_max=7, m_max=3)
        else:
            g = random_cyclic_instance(rng, n_max=8, m=int(rng.integers(1, 3)), density=0.35)
        p = random_params(rng, g.n, g.n_stages)
        roster = PlayerRoster(g)
        ctx = learn._Rollout(roster, p)
        for _ in range(5):
            profile = np.array([int(rng.integers(pl.n_actions)) for pl in roster.players])
            gains = {(idx, s): gain for idx, _, s, gain in learn._profile_gains(ctx, profile)}
            for idx, player in enumerate(roster.players):
                if player.n_actions < 2:
                    continue
                utils = [expected_swap_utility(roster, idx, np.eye(player.n_actions)[a],
                                                     profile, g, p)
                         for a in range(player.n_actions)]
                r = profile[idx]
                for s in range(player.n_actions):
                    if s != r:
                        assert abs(gains.get((idx, s), 0.0) - (utils[s] - utils[r])) <= 1e-9
                        checked += (idx, s) in gains
    assert checked > 1000


# ---------------------------------------------------------------------------
# swap regret
# ---------------------------------------------------------------------------


def test_swap_regret_nonpositive_on_strict_equilibrium():
    # defender priced out, adversary attacks: no swap gains for anyone
    g = ifg.make_graph(2, [(1, 2)], [[2]], [1], rule_relevance=[(), ()])
    p = game.GameParams(alpha_a=-5.0, beta_a=(5.0,), alpha_d=0.5, beta_d=(-0.5,),
                        c1=-1.0, c2=-40.0, gamma=(-1.0, -1.0))
    res = learn.run(g, p, LearnerConfig(eta=0.1, eps=1e-6, max_iters=3000, seed=1))
    # overwrite the joint with the strict-equilibrium pure profile
    roster = res.roster
    profile = np.zeros(len(roster), dtype=np.int16)
    profile[roster.move_index[(1, 1)]] = 0  # walk to the destination
    res.profiles = np.repeat(profile[None, :], res.iterations, axis=0)
    assert learn.swap_regret(res, g, p) <= 0.0


def test_swap_regret_positive_under_uniform_joint():
    # uniform play leaves obvious gains (e.g. stop paying for the huge trap)
    g = ifg.make_graph(2, [(1, 2)], [[2]], [1], rule_relevance=[(), ()])
    p = game.GameParams(alpha_a=-5.0, beta_a=(5.0,), alpha_d=0.5, beta_d=(-0.5,),
                        c1=-1.0, c2=-40.0, gamma=(-1.0, -1.0))
    res = learn.run(g, p, LearnerConfig(eps=1.0, max_iters=10, seed=3))
    rng = np.random.default_rng(0)
    roster = res.roster
    profiles = np.stack([
        np.array([rng.integers(pl.n_actions) for pl in roster.players], dtype=np.int16)
        for _ in range(400)
    ])
    res.profiles = profiles
    res.iterations = len(profiles)
    assert learn.swap_regret(res, g, p) > 1.0


def test_swap_regret_post_convergence_is_small(rng):
    g = random_dag_instance(rng, n_max=5, m_max=1)
    p = random_params(rng, g.n, 1)
    res = learn.run(g, p, LearnerConfig(eta=0.01, eps=1e-9, max_iters=6000, seed=5))
    scale = p.alpha_d - p.beta_d[0]
    assert learn.swap_regret(res, g, p) <= 0.05 * scale


def test_swap_regret_decreases_with_budget(rng):
    g = ifg.make_graph(3, [(1, 2), (1, 3), (2, 3)], [[3]], [1],
                       rule_relevance=[(1,), (1,), (1,)])
    p = game.GameParams(alpha_a=-8.0, beta_a=(4.0,), alpha_d=6.0, beta_d=(-4.0,),
                        c1=-0.5, c2=-0.5, gamma=(-0.3, -0.3, -0.3))
    medians = []
    for budget in (100, 1000, 10_000):
        regrets = []
        for seed in range(5):
            res = learn.run(g, p, LearnerConfig(eta=0.01, eps=1e-12,
                                                max_iters=budget, seed=seed))
            regrets.append(learn.swap_regret(res, g, p))
        medians.append(float(np.median(regrets)))
    assert medians[0] >= medians[1] >= medians[2]


def test_run_matches_naive_reference_dynamics(rng):
    """End-to-end equivalence with a direct implementation of the dynamics:
    every player, every ordered pair, utilities via the reference pure-profile
    evaluator, swap weights via softmax, mixtures via the generic fixed point.
    """
    g = random_dag_instance(rng, n_max=4, m_max=2)
    p = random_params(rng, g.n, g.n_stages)
    cfg = LearnerConfig(eta=0.03, eps=1e-12, max_iters=40, seed=21)
    fast = learn.run(g, p, cfg)

    roster = PlayerRoster(g)
    sampler = np.random.default_rng(cfg.seed)
    d0 = roster.defender_start
    dist = [np.full(pl.n_actions, 1.0 / pl.n_actions) for pl in roster.players]
    big_g = {i: np.zeros((pl.n_actions,) * 2) for i, pl in enumerate(roster.players)
             if pl.n_actions > 1}
    profiles = []
    for _ in range(cfg.max_iters):
        u = sampler.random(len(roster))
        actions = np.zeros(len(roster), dtype=np.int64)
        for i, pl in enumerate(roster.players):
            if pl.n_actions == 1:
                continue
            if i < d0:
                cums = np.cumsum(dist[i])
                actions[i] = min(int(np.searchsorted(cums, u[i], side="right")),
                                 pl.n_actions - 1)
            else:
                actions[i] = int(u[i] < dist[i][1])
        profiles.append(actions.copy())
        for i, pl in enumerate(roster.players):
            if pl.n_actions == 1:
                continue
            utils = np.array([
                expected_swap_utility(
                    roster, i,
                    np.eye(pl.n_actions)[a], actions, g, p)
                for a in range(pl.n_actions)
            ])
            p_i = dist[i]
            for r in range(pl.n_actions):
                for s in range(pl.n_actions):
                    if r == s:
                        continue
                    swapped = swap_distribution(p_i, r, s)
                    big_g[i][r, s] += float(swapped @ utils)
            delta = learn._softmax_pairs(big_g[i], cfg.eta)
            dist[i] = fixed_point(delta)

    assert np.array_equal(fast.profiles, np.stack(profiles))
    for i, pl in enumerate(roster.players):
        if pl.n_actions == 1:
            continue
        assert np.allclose(fast.distributions[i], dist[i], atol=1e-9), (
            i, pl, fast.distributions[i], dist[i])
