"""Shared instance samplers and independent oracles for the test suite.

The oracles here deliberately avoid the library's solver code paths: the
adversary-value oracle enumerates stage-respecting walks directly, the
separator oracle enumerates node subsets, and the stationary-distribution
oracle solves a dense linear system.  The kernel oracles are the former
per-node, per-term and per-state loops that the vectorized kernels must
reproduce bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from diftgame import game, ifg
from diftgame.errors import ValidationError
from diftgame.ifg import SOURCE, ensure_augmented


# ---------------------------------------------------------------------------
# instance samplers
# ---------------------------------------------------------------------------


def random_params(rng, n, m, cost_scale=1.0):
    return game.GameParams(
        alpha_a=-float(rng.uniform(1, 10)),
        beta_a=tuple(float(b) for b in rng.uniform(1, 10, size=m)),
        alpha_d=float(rng.uniform(1, 10)),
        beta_d=tuple(-float(b) for b in rng.uniform(1, 10, size=m)),
        c1=-float(rng.uniform(0.1, 2)) * cost_scale,
        c2=-float(rng.uniform(0.1, 2)) * cost_scale,
        gamma=tuple(-float(g) for g in rng.uniform(0.05, 1, size=n) * cost_scale),
    )


def random_dag_instance(rng, n_max=8, m_max=2, p_edge=0.4, n=None, m=None, n_entries=None):
    """Random acyclic staged instance; every destination of every stage is
    reachable from every entry along a stage-respecting walk by construction.

    Node indices are a topological order: edges only go from lower to higher
    indices, entries sit at the low end, stage destination blocks at
    increasing indices.
    """
    n = int(n if n is not None else rng.integers(3, n_max + 1))
    m = int(m if m is not None else rng.integers(1, m_max + 1))
    while n < m + 1:
        n += 1
    n_entries = int(n_entries if n_entries is not None else rng.integers(1, max(2, n // 3) + 1))
    n_entries = min(n_entries, max(1, n - m))
    entries = list(range(1, n_entries + 1))
    # one destination block per stage, at strictly increasing index ranges
    pool = [v for v in range(n_entries + 1, n + 1)]
    if len(pool) < m:
        pool = list(range(max(2, n - m + 1), n + 1))
        entries = [1]
        n_entries = 1
    cuts = sorted(rng.choice(len(pool), size=m, replace=False).tolist())
    stages = []
    for j in range(m):
        hi = cuts[j]
        lo = 0 if j == 0 else cuts[j - 1] + 1
        size = int(rng.integers(1, min(2, hi - lo + 1) + 1))
        block = sorted(rng.choice(pool[lo:hi + 1], size=size, replace=False).tolist())
        stages.append(block)
    edges = set()
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if rng.random() < p_edge:
                edges.add((u, v))
    for e in entries:  # backbone guarantees staged reachability
        for d in stages[0]:
            edges.add((e, d))
    for j in range(m - 1):
        for d in stages[j]:
            for d2 in stages[j + 1]:
                if d < d2:
                    edges.add((d, d2))
    # destination blocks are strictly increasing, so (d, d2) always has d < d2
    graph = ifg.make_graph(n, edges, stages, entries)
    graph = ifg.make_graph(n, edges, stages, entries, rule_relevance=ifg.entry_reachability(graph))
    return graph


def random_cyclic_instance(rng, n_max=8, m=1, density=0.3):
    """Small cyclic instance via the library generator, randomized sizes."""
    from diftgame import generate

    for _ in range(20):
        n = int(rng.integers(m + 2, n_max + 1))
        dest = [1] * m
        try:
            return generate.gen_graph(n, m, dest, 1, density, seed=int(rng.integers(2**31)))
        except Exception:
            continue
    raise RuntimeError("could not sample a cyclic instance")


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def oracle_best_path_value(graph, params, defender):
    """Maximum of survival * (beta_a[j] - alpha_a) + alpha_a over all
    stage-respecting walks, by direct (node, stage)-simple enumeration.

    Revisiting a (node, stage) state only multiplies extra survival factors
    in [0, 1], so the maximum over such simple walks is the global maximum.
    Returns -inf when no destination is reachable.
    """
    graph = ensure_augmented(graph)
    d = defender.detection_vector(graph)
    m = graph.n_stages
    succ = graph.successors
    best = [-math.inf]

    def rec(node, stage, surv, visited):
        for w in succ.get(node, ()):
            s2 = surv * (1.0 - d[w])
            nxt = graph.advance(w, stage)
            for crossed in range(stage, nxt):
                value = s2 * (params.beta_a[crossed - 1] - params.alpha_a) + params.alpha_a
                if value > best[0]:
                    best[0] = value
            if nxt <= m and (w, nxt) not in visited:
                visited.add((w, nxt))
                rec(w, nxt, s2, visited)
                visited.remove((w, nxt))

    rec(SOURCE, 1, 1.0, {(SOURCE, 1)})
    return best[0]


def oracle_separator_min_cost(graph, params):
    """Minimum cost of a node subset hitting every source-to-destination path,
    by exhaustive enumeration over all 2^n subsets (single-stage graphs)."""
    graph = ensure_augmented(graph)
    n = graph.n
    caps = [abs(params.tag_cost(graph, i) + params.trap_cost(graph, i)) for i in range(1, n + 1)]
    dest = set(graph.stages[0])
    succ = graph.successors
    best = math.inf

    for mask in range(2**n):
        blocked = {i for i in range(1, n + 1) if mask & (1 << (i - 1))}
        cost = sum(caps[i - 1] for i in blocked)
        if cost >= best:
            continue
        stack = [SOURCE]
        seen = {SOURCE}
        hit = False
        while stack and not hit:
            u = stack.pop()
            for w in succ.get(u, ()):
                if w in blocked or w in seen:
                    continue
                if w in dest:
                    hit = True
                    break
                seen.add(w)
                stack.append(w)
        if not hit:
            best = cost
    return best


def swap_chain(delta):
    """Transition matrix of the swap chain: rates delta[r, s] off the diagonal."""
    delta = np.array(delta, dtype=float)
    np.fill_diagonal(delta, 0.0)
    q = delta.copy()
    np.fill_diagonal(q, 1.0 - delta.sum(axis=1))
    return q


def oracle_stationary(delta):
    """Stationary distribution of the swap chain by dense linear solve."""
    q = swap_chain(delta)
    k = q.shape[0]
    a = np.vstack([q.T - np.eye(k), np.ones((1, k))])
    b = np.zeros(k + 1)
    b[-1] = 1.0
    p, *_ = np.linalg.lstsq(a, b, rcond=None)
    return p


def oracle_power_iteration(delta, tol=1e-12, max_sweeps=100_000):
    """Stationary distribution of the swap chain by power iteration from uniform.

    Independent of the linear solve; only fit for chains that mix, such as
    strictly positive pair weights.
    """
    q = swap_chain(delta)
    p = np.full(q.shape[0], 1.0 / q.shape[0])
    for _ in range(max_sweeps):
        nxt = p @ q
        if np.abs(nxt - p).sum() <= tol:
            return nxt
        p = nxt
    raise AssertionError(f"power iteration did not reach {tol} in {max_sweeps} sweeps")


def exhaustive_pure_defender_average(graph, params, defender, walk):
    """Mixed payoff of a fixed walk by averaging pure bit profiles.

    Enumerates every 0/1 assignment of the strategy's fractional entries,
    weighting by the product of the entry probabilities.  Only sound when
    the walk has no repeated nodes (committed bits versus per-visit trials).
    """
    probs = defender.probs
    free = [(i, c) for i in range(1, graph.n + 1) for c in range(graph.n + 2)
            if 0.0 < probs[i, c] < 1.0]
    base = (probs >= 1.0).astype(float)
    total_d = total_a = 0.0
    for mask in range(2 ** len(free)):
        bits = base.copy()
        weight = 1.0
        for b, (i, c) in enumerate(free):
            if mask & (1 << b):
                bits[i, c] = 1.0
                weight *= probs[i, c]
            else:
                weight *= 1.0 - probs[i, c]
        u_d, u_a = game.evaluate_pure_profile(graph, params, bits, walk)
        total_d += weight * u_d
        total_a += weight * u_a
    return total_d, total_a


def oracle_detection_vector(defender, graph):
    """Per-node detection probability, one ``detection_prob`` call per node."""
    d = np.zeros(graph.n + 1)
    for i in range(1, graph.n + 1):
        d[i] = game.detection_prob(i, defender, graph.relevance(i))
    return d


def oracle_strategy_costs(graph, params, defender):
    """Tag, trap and rule cost terms as three term-by-term ``fsum`` calls."""
    tag = math.fsum(
        defender.probs[i, 0] * params.tag_cost(graph, i) for i in range(1, graph.n + 1)
    )
    trap = math.fsum(
        defender.probs[i, 1] * params.trap_cost(graph, i) for i in range(1, graph.n + 1)
    )
    rule = math.fsum(
        defender.probs[i, 1 + r] * params.gamma[r - 1]
        for i in range(1, graph.n + 1)
        for r in range(1, graph.n + 1)
    )
    return tag, trap, rule


def oracle_monte_carlo(graph, params, defender, adversary, n_trials, seed, max_len=None):
    """``evaluate_monte_carlo`` with one boolean mask and one draw per state code.

    Each step masks the active trials once per distinct (node, stage) code,
    in ascending code order, and draws that code's uniforms in trial order.
    """
    graph = ensure_augmented(graph)
    if max_len is None:
        max_len = game.default_max_len(graph)
    m = graph.n_stages
    n = graph.n
    rng = np.random.default_rng(seed)
    d = oracle_detection_vector(defender, graph)
    targets, cumprobs = {}, {}
    for (v, j), dist in adversary.moves.items():
        acts = sorted(dist.items())
        code = v * m + (j - 1)
        targets[code] = np.array([a for a, _ in acts], dtype=np.int64)
        cumprobs[code] = np.cumsum([p for _, p in acts])
    adv_stage = np.zeros((n + 1, m + 2), dtype=np.int64)
    for v in range(n + 1):
        for j in range(1, m + 1):
            adv_stage[v, j] = graph.advance(v, j)
    ba_prefix = np.concatenate(([0.0], np.cumsum(params.beta_a)))
    bd_prefix = np.concatenate(([0.0], np.cumsum(params.beta_d)))
    node = np.zeros(n_trials, dtype=np.int64)
    stage = np.ones(n_trials, dtype=np.int64)
    alive = np.ones(n_trials, dtype=bool)
    u_a = np.zeros(n_trials)
    u_d_path = np.zeros(n_trials)
    crossed = np.zeros(n_trials, dtype=np.int64)
    pt_counts = np.zeros(m, dtype=np.int64)
    pr_diff = np.zeros(m + 2, dtype=np.int64)
    n_detected = n_completed = 0
    dropped_after = np.zeros(m + 1, dtype=np.int64)
    for _ in range(max_len):
        active = np.flatnonzero(alive)
        if active.size == 0:
            break
        codes = node[active] * m + (stage[active] - 1)
        chosen = np.empty(active.size, dtype=np.int64)
        for code in np.unique(codes):
            sel = codes == code
            if code not in targets:
                v, j = divmod(code, m)
                raise ValidationError(
                    f"adversary strategy has no distribution for node {v} at stage {j + 1}"
                )
            u = rng.random(int(sel.sum()))
            idx = np.searchsorted(cumprobs[code], u, side="right").clip(max=len(cumprobs[code]) - 1)
            chosen[sel] = targets[code][idx]
        dropping = chosen == game.DROP
        drop_idx = active[dropping]
        alive[drop_idx] = False
        np.add.at(dropped_after, crossed[drop_idx], 1)
        movers = active[~dropping]
        to = chosen[~dropping]
        if movers.size == 0:
            continue
        caught = rng.random(movers.size) < d[to]
        det_idx = movers[caught]
        if det_idx.size:
            np.add.at(pt_counts, stage[det_idx] - 1, 1)
            u_a[det_idx] += params.alpha_a
            u_d_path[det_idx] += params.alpha_d
            alive[det_idx] = False
            n_detected += det_idx.size
        surv = movers[~caught]
        to_s = to[~caught]
        if surv.size == 0:
            continue
        old_stage = stage[surv]
        new_stage = adv_stage[to_s, old_stage]
        u_a[surv] += ba_prefix[new_stage - 1] - ba_prefix[old_stage - 1]
        u_d_path[surv] += bd_prefix[new_stage - 1] - bd_prefix[old_stage - 1]
        np.add.at(pr_diff, old_stage, 1)
        np.add.at(pr_diff, new_stage, -1)
        crossed[surv] += new_stage - old_stage
        node[surv] = to_s
        stage[surv] = new_stage
        done_idx = surv[new_stage > m]
        alive[done_idx] = False
        n_completed += done_idx.size
    trunc_idx = np.flatnonzero(alive)
    n_truncated = int(trunc_idx.size)
    np.add.at(dropped_after, crossed[trunc_idx], 1)
    pr_counts = np.cumsum(pr_diff)[1 : m + 1]
    tag, trap, rule = oracle_strategy_costs(graph, params, defender)
    u_d = u_d_path + (tag + trap + rule)
    ddof = 1 if n_trials > 1 else 0
    return game.UtilityReport(
        u_d=float(u_d.mean()), u_a=float(u_a.mean()),
        p_t=tuple(float(c) / n_trials for c in pt_counts),
        p_r=tuple(float(c) / n_trials for c in pr_counts),
        tag_cost=tag, trap_cost=trap, rule_cost=rule,
        method="monte_carlo", n_trials=n_trials, seed=seed,
        std_err_d=float(u_d.std(ddof=ddof) / math.sqrt(n_trials)),
        std_err_a=float(u_a.std(ddof=ddof) / math.sqrt(n_trials)),
        truncated_mass=n_truncated / n_trials,
        outcome_counts={
            "detected": n_detected,
            "completed": n_completed,
            "dropped_after": dropped_after.tolist(),
            "truncated": n_truncated,
        },
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
