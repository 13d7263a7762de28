"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Every tolerance is pinned here, not configurable.
"""

import math
import time

import numpy as np

from diftgame import game, generate, learn, respond, single_stage
from diftgame.experiments import DEFAULT_FACTORS, sweep_cost

from conftest import (
    marginal_gain,
    matrix_adversary_value,
    oracle_best_path_value,
    oracle_power_iteration,
    oracle_separator_min_cost,
    oracle_stationary,
    per_walk_utilities,
    random_dag_instance,
    random_params,
)


def _report(name, detail=""):
    print(f"[PASS] {name}" + (f" - {detail}" if detail else ""))


# ---------------------------------------------------------------------------
# 1. min-cut oracle equivalence: 200 random graphs, N <= 10, exact match,
#    under 60 seconds total
# ---------------------------------------------------------------------------


def test_criterion_1_min_cut_matches_exhaustive_separator():
    rng = np.random.default_rng(101)
    started = time.monotonic()
    worst = 0.0
    for case in range(200):
        n = int(rng.integers(4, 11))
        n_dest = int(rng.integers(1, 3))
        n_entries = int(rng.integers(1, 3))
        if n_dest + n_entries + 1 > n:
            n_dest = n_entries = 1
        g = generate.gen_graph(n, 1, n_dest, n_entries,
                               float(rng.uniform(0.05, 0.35)), seed=case)
        p = random_params(rng, n, 1)
        cut = single_stage.min_cut(single_stage.build_flow_network(g, p))
        oracle = oracle_separator_min_cost(g, p)
        gap = abs(cut.cost - oracle)
        worst = max(worst, gap)
        assert gap <= 1e-9, f"case {case}: min-cut {cut.cost} vs oracle {oracle}"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"
    _report("criterion 1: min-cut equals exhaustive separator minimum",
            f"200 graphs, worst gap {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. adversary best-response oracle equivalence: 200 random instances,
#    N <= 8, M <= 2, tolerance 1e-9
# ---------------------------------------------------------------------------


def test_criterion_2_best_response_matches_path_enumeration():
    rng = np.random.default_rng(202)
    worst = 0.0
    for case in range(200):
        g = random_dag_instance(rng, n_max=8, m_max=2)
        p = random_params(rng, g.n, g.n_stages)
        d = game.DefenderStrategy.random(g, rng)
        br = respond.adversary_best_response(g, p, d)
        oracle = oracle_best_path_value(g, p, d)
        if br.dropped:
            assert oracle < 0, f"case {case}: dropped but oracle {oracle} >= 0"
        else:
            gap = abs(br.value - oracle)
            worst = max(worst, gap)
            assert gap <= 1e-9, f"case {case}: {br.value} vs {oracle}"
    _report("criterion 2: shortest-path best response equals brute-force maximum",
            f"200 instances, worst gap {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. submodularity: 1000 random (V' subset V'', e) triples on N <= 5
#    instances satisfy diminishing returns within 1e-9 (whole-node elements,
#    one level per component, where the payoff is coverage plus modular costs)
# ---------------------------------------------------------------------------


def test_criterion_3_diminishing_returns():
    rng = np.random.default_rng(303)
    checked = 0
    worst = -math.inf
    while checked < 1000:
        g = random_dag_instance(rng, n_max=5)
        p = random_params(rng, g.n, g.n_stages)
        adv = game.AdversaryStrategy.random(g, rng)
        objective = respond.DefenderObjective(g, p, adv, levels=1, scheme="node")
        n = len(objective.ground)
        if n < 2:
            continue
        for _ in range(25):
            element = int(rng.integers(n))
            others = [e for e in range(n) if e != element]
            small = {e for e in others if rng.random() < 0.35}
            large = small | {e for e in others if rng.random() < 0.5}
            gain_small = marginal_gain(objective, small, element)
            gain_large = marginal_gain(objective, large, element)
            violation = gain_large - gain_small
            worst = max(worst, violation)
            assert violation <= 1e-9, f"triple violates diminishing returns by {violation}"
            checked += 1
            if checked == 1000:
                break
    _report("criterion 3: 1000 diminishing-returns triples hold",
            f"worst violation {worst:.2e}")


# ---------------------------------------------------------------------------
# 4. greedy guarantee on exhaustively checkable instances (ground set <= 16):
#    randomized median of 11 seeds >= OPT/2, deterministic >= OPT/3
# ---------------------------------------------------------------------------


def test_criterion_4_double_greedy_guarantees():
    rng = np.random.default_rng(404)
    cases = 0
    while cases < 8:
        g = random_dag_instance(rng, n_max=5, m=1)
        p = game.GameParams(
            alpha_a=-1.0, beta_a=(1.0,), alpha_d=float(rng.uniform(20, 80)),
            beta_d=(-float(rng.uniform(0.01, 0.1)),),
            c1=-float(rng.uniform(0.2, 2)), c2=-float(rng.uniform(0.2, 2)),
            gamma=tuple(-float(x) for x in rng.uniform(0.05, 0.5, size=g.n)),
        )
        adv = game.AdversaryStrategy.random(g, rng)
        levels = int(rng.integers(1, 3)) if g.n <= 8 else 1
        objective = respond.DefenderObjective(g, p, adv, levels=levels, scheme="node")
        if len(objective.ground) > 16:
            continue
        opt = -math.inf
        for mask in range(2 ** len(objective.ground)):
            subset = {e for e in range(len(objective.ground)) if mask & (1 << e)}
            opt = max(opt, objective.value(subset))
        values = [
            respond.defender_best_response_greedy(
                g, p, adv, levels=levels, seed=s, scheme="node").value
            for s in range(11)
        ]
        median = sorted(values)[5]
        assert median >= 0.5 * opt - 1e-9, f"median {median} < half of {opt}"
        det = respond.defender_best_response_greedy(
            g, p, adv, levels=levels, variant="deterministic", scheme="node")
        assert det.value >= opt / 3.0 - 1e-9, f"deterministic {det.value} < third of {opt}"
        cases += 1
    _report("criterion 4: double-greedy 1/2 (median of 11) and 1/3 bounds",
            f"{cases} exhaustively checked instances")


# ---------------------------------------------------------------------------
# 5. single-stage epsilon-NE: 50 interior instances, no profitable grid
#    deviation (> 1e-6), detection products equal within 1e-9
# ---------------------------------------------------------------------------


def interior_instance(rng, seed):
    """Cost-homogeneous single-entry instance with the stage penalty placed
    exactly at the indifference point, the regime where strictly positive
    mixtures and equal detection products coexist."""
    n = int(rng.integers(5, 10))
    n_dest = int(rng.integers(1, 3))
    g = generate.gen_graph(n, 1, n_dest, 1, float(rng.uniform(0.1, 0.3)), seed=seed)
    shares = rng.uniform(0.25, 0.4, size=3)
    shares = shares / shares.sum()
    total = -float(rng.uniform(5, 50))
    alpha_d = float(rng.uniform(0.5, min(2.0, -total / 2)))
    p = game.GameParams(
        alpha_a=-float(rng.uniform(5, 20)),
        beta_a=(float(rng.uniform(1, 10)),),
        alpha_d=alpha_d,
        beta_d=(alpha_d + total,),
        c1=float(n * shares[0] * total),
        c2=float(n * shares[1] * total),
        gamma=(float(shares[2] * total),) * n,
    )
    return g, p


def test_criterion_5_single_stage_epsilon_ne():
    rng = np.random.default_rng(505)
    solved = 0
    seed = 0
    worst_gain = -math.inf
    worst_spread = 0.0
    grid = np.round(np.arange(0.0, 1.0 + 1e-9, 1e-3), 9)
    while solved < 50:
        seed += 1
        g, p = interior_instance(rng, seed)
        eq = single_stage.solve_single_stage(g, p)
        if eq.diagnostics != "interior":
            continue
        solved += 1
        worst_spread = max(worst_spread, eq.product_spread)
        assert eq.product_spread <= 1e-9
        base = eq.matrix_defender_payoff(g, p)
        for node in eq.nodes:
            for comp in [1, 2] + [2 + r for r in eq.relevance[node]]:
                # the payoff is linear in each single probability, so the
                # grid max sits at an end point; verify the ends exactly and
                # sample the interior grid
                candidates = [0.0, 1.0] + [float(x) for x in grid[::97]]
                for x in candidates:
                    dev = eq.matrix_defender_payoff(
                        g, p, defender=eq.defender.with_entry(node, comp, x))
                    worst_gain = max(worst_gain, dev - base)
                    assert dev - base <= 1e-6
        values = {i: matrix_adversary_value(eq, g, p, i) for i in eq.nodes}
        base_a = sum(eq.pi[i] * values[i] for i in eq.nodes)
        for i in eq.nodes:
            for j in eq.nodes:
                if i == j:
                    continue
                for step in np.arange(1e-3, eq.pi[i] + 1e-12, 1e-3):
                    dev = base_a + float(step) * (values[j] - values[i])
                    worst_gain = max(worst_gain, dev - base_a)
                    assert dev - base_a <= 1e-6
    _report("criterion 5: no profitable grid deviation at 50 interior equilibria",
            f"worst gain {worst_gain:.2e}, worst product spread {worst_spread:.2e}")


# ---------------------------------------------------------------------------
# 6. root equivalence: aggregate (p_t, p_r) assembly matches per-path
#    accumulation within 1e-12 on 100 random instances
# ---------------------------------------------------------------------------


def test_criterion_6_root_equivalence():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(100):
        g = random_dag_instance(rng, n_max=7, m_max=3)
        p = random_params(rng, g.n, g.n_stages)
        d = game.DefenderStrategy.random(g, rng)
        adv = game.AdversaryStrategy.random(g, rng)
        rep = game.evaluate_exact(g, p, d, adv)
        u_d, u_a = per_walk_utilities(g, p, d, adv)
        worst = max(worst, abs(u_a - rep.u_a), abs(u_d - rep.u_d))
        assert abs(u_a - rep.u_a) <= 1e-12
        assert abs(u_d - rep.u_d) <= 1e-12
    _report("criterion 6: per-path and aggregate payoff assembly agree",
            f"100 instances, worst gap {worst:.2e}")


# ---------------------------------------------------------------------------
# 7. Monte Carlo consistency at 1e5 trials on 50 instances
# ---------------------------------------------------------------------------


def test_criterion_7_monte_carlo_consistency():
    rng = np.random.default_rng(707)
    worst = 0.0
    for case in range(50):
        g = random_dag_instance(rng, n_max=8, m_max=2)
        p = random_params(rng, g.n, g.n_stages)
        d = game.DefenderStrategy.random(g, rng)
        adv = game.AdversaryStrategy.random(g, rng)
        exact = game.evaluate_exact(g, p, d, adv)
        mc = game.evaluate_monte_carlo(g, p, d, adv, n_trials=100_000, seed=case)
        for got, want, err in ((mc.u_d, exact.u_d, mc.std_err_d),
                               (mc.u_a, exact.u_a, mc.std_err_a)):
            sigmas = abs(got - want) / max(err, 1e-12)
            worst = max(worst, sigmas)
            assert abs(got - want) <= 3 * max(err, 1e-12), f"case {case}: {sigmas:.2f} sigma"
    _report("criterion 7: Monte Carlo within 3 standard errors of exact",
            f"50 instances at 1e5 trials, worst {worst:.2f} sigma")


# ---------------------------------------------------------------------------
# 8. learner convergence on the 30-node, 4-stage, 8-destination, single-entry
#    graph with the stock parameter block
# ---------------------------------------------------------------------------


def test_criterion_8_learner_convergence_on_reference_graph():
    started = time.monotonic()
    g = generate.gen_graph(30, 4, (2, 2, 2, 2), 1, 0.08, seed=2026)
    assert sum(len(s) for s in g.stages) == 8 and len(g.vulnerable) == 1
    p = game.default_params(g)
    assert p.beta_a == (100.0, 200.0, 500.0, 1200.0) and p.alpha_a == -2000.0
    cfg = learn.LearnerConfig(eta=0.1, eps=1e-3, max_iters=50_000, seed=0)
    result = learn.run(g, p, cfg)
    assert result.converged, "gap never reached 1e-3"
    assert result.iterations <= 50_000
    assert result.final_gap <= 1e-3
    regret = learn.swap_regret(result, g, p)
    bound = 0.05 * (p.alpha_d - p.beta_d[3])
    assert regret <= bound, f"swap regret {regret} above {bound}"
    elapsed = time.monotonic() - started
    assert elapsed < 600.0, f"criterion 8 took {elapsed:.0f}s"
    _report("criterion 8: learner converges and the joint is a local equilibrium",
            f"{result.iterations} iterations, gap {result.final_gap:.1e}, "
            f"swap regret {regret:.2f} <= {bound:.0f}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 9. cost-sensitivity trend over the seven scale factors
# ---------------------------------------------------------------------------


def test_criterion_9_cost_sweep_trend():
    g = generate.gen_graph(10, 2, (1, 1), 1, 0.15, seed=2026)
    p = game.default_params(g)
    cfg = learn.LearnerConfig(eta=0.01, eps=1e-3, max_iters=3000, seed=0)
    sweep = sweep_cost(g, p, DEFAULT_FACTORS, cfg, sim_trials=20_000, sim_seed=1)
    factors = [row.factor for row in sweep.rows]
    assert factors == sorted(DEFAULT_FACTORS)
    means = [row.u_d_mean for row in sweep.rows]
    errs = [row.u_d_stderr for row in sweep.rows]
    inversions = []
    for i in range(len(means) - 1):
        if means[i + 1] > means[i]:
            inversions.append(i)
            assert means[i + 1] - means[i] <= 2 * (errs[i] + errs[i + 1]), (
                f"inversion at factor {factors[i]} exceeds two standard errors"
            )
    assert len(inversions) <= 1, f"{len(inversions)} adjacent inversions"
    _report("criterion 9: defender utility is non-increasing in the cost scale",
            " -> ".join(f"{m:.0f}" for m in means))


# ---------------------------------------------------------------------------
# 10. fixed-point correctness on 1000 random swap-weight matrices
# ---------------------------------------------------------------------------


def test_criterion_10_fixed_point_correctness():
    rng = np.random.default_rng(1010)
    worst_res = 0.0
    worst_gap = 0.0
    for _ in range(1000):
        # strictly positive pair weights: the swap chain is irreducible so
        # its stationary distribution, and hence the oracle target, is unique
        k = int(rng.integers(2, 9))
        raw = rng.random((k, k)) + 1e-3
        np.fill_diagonal(raw, 0.0)
        delta = raw / raw.sum()
        point = learn.fixed_point(delta)
        q = delta.copy()
        np.fill_diagonal(q, 1.0 - delta.sum(axis=1))
        residual = float(np.abs(point - point @ q).sum())
        gap = float(np.abs(point - oracle_stationary(delta)).max())
        power_gap = float(np.abs(point - oracle_power_iteration(delta)).max())
        worst_res = max(worst_res, residual)
        worst_gap = max(worst_gap, gap, power_gap)
        assert residual <= 1e-10
        assert gap <= 1e-8
        assert power_gap <= 1e-8
    _report("criterion 10: swap-chain fixed points verified against dense solves "
            "and power iteration",
            f"1000 matrices, worst residual {worst_res:.1e}, worst oracle gap {worst_gap:.1e}")
