"""Shared instance samplers and independent oracles for the test suite.

The oracles here deliberately avoid the library's solver code paths: the
adversary-value oracle enumerates stage-respecting walks directly, the
separator oracle enumerates node subsets, and the stationary-distribution
oracle solves a dense linear system.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from diftgame import game, ifg
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


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
