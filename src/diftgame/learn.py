"""Multi-stage equilibrium learning via internal-regret minimization.

The two-player game is decomposed into (M+2)N + L + 1 players, where L is
the total number of (node, relevant rule) pairs: one move player per (node,
stage) choosing the next hop or drop, one entry player choosing the attack's
entry point, and one binary player per defender component (tag, trap, each
relevant rule at each node).  All adversary-side players receive the
adversary utility, all defender-side players the defender utility, evaluated
on the pure profile realized each round.

Each round every player samples an action; the cumulative expected utility
of every "replace r by s" transformation of its current mixed strategy is
updated, the transformations are reweighted exponentially, and the player's
next mixture is the stationary distribution of the induced swap chain.  The
run stops when no player's mixture moved more than ``eps`` in sup norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .game import DROP, AdversaryStrategy, DefenderStrategy, GameParams
from .ifg import SOURCE, InformationFlowGraph

ADVANCE = -2  # placeholder action of forced stage-transition players


@dataclass(frozen=True)
class Player:
    kind: str  # "move" | "entry" | "tag" | "trap" | "rule"
    node: int
    stage: int = 0  # move players only
    actions: tuple[int, ...] = ()

    @property
    def n_actions(self) -> int:
        return len(self.actions)


class PlayerRoster:
    """Player decomposition of a game instance, with index maps.

    (M+2)N + L + 1 players, L = total relevant (node, rule) pairs.

    Order: move players (node-major, then stage), the entry player, tag
    players 1..n, trap players 1..n, rule players in ``defender_cells``
    order.  Defender player ``defender_start + k`` owns cell
    ``defender_cells[k]`` of ``graph.defender_cells``, at node
    ``defender_nodes[k]``; ``defender_index`` maps a (node, column) cell
    back to its player.
    """

    def __init__(self, graph: InformationFlowGraph):
        self.graph = graph
        succ = graph.successors
        m = graph.n_stages
        players: list[Player] = []
        # the move player of state code c is c - m; an arrival that is forced
        # on does not decide, and its player has the one action ADVANCE
        for code, land in enumerate(graph.landing[m:].tolist(), start=m):
            node, j = divmod(code, m)
            actions = succ[node] + (DROP,) if land == code else (ADVANCE,)
            players.append(Player("move", node, stage=j + 1, actions=actions))
        self.move_index = {(p.node, p.stage): i for i, p in enumerate(players)}
        self.entry_index = len(players)
        players.append(Player("entry", SOURCE, actions=tuple(graph.vulnerable)))
        self.defender_start = len(players)
        nodes, columns = graph.defender_cells
        # tags, then traps, then rules: the learner draws one uniform per
        # player in this order each iteration
        self.defender_cells = np.argsort(np.minimum(columns, 2), kind="stable")
        self.defender_nodes = nodes[self.defender_cells]
        self.defender_index: dict[tuple[int, int], int] = {}
        for node, column in zip(self.defender_nodes.tolist(),
                                columns[self.defender_cells].tolist()):
            self.defender_index[(node, column)] = len(players)
            players.append(Player(("tag", "trap", "rule")[min(column, 2)], node, actions=(0, 1)))
        self.players = tuple(players)

    def __len__(self) -> int:
        return len(self.players)

    @property
    def n_defenders(self) -> int:
        return len(self.players) - self.defender_start

    def defender_strategy(self, distributions) -> DefenderStrategy:
        values = np.empty(self.n_defenders)
        values[self.defender_cells] = [dist[1] for dist in distributions[self.defender_start:]]
        return DefenderStrategy.from_cells(self.graph, values)

    def adversary_strategy(self, distributions) -> AdversaryStrategy:
        entry = self.players[self.entry_index]
        moves = {(SOURCE, 1): dict(zip(entry.actions, distributions[self.entry_index]))}
        for player, dist in zip(self.players[:self.entry_index], distributions):
            if player.actions != (ADVANCE,):
                moves[(player.node, player.stage)] = dict(zip(player.actions, dist))
        return AdversaryStrategy(moves)


# ---------------------------------------------------------------------------
# swap transformations and their fixed point
# ---------------------------------------------------------------------------


def fixed_point(delta) -> np.ndarray:
    """Stationary distribution of the swap chain induced by pair weights.

    ``delta`` is a k x k matrix of weights over ordered action pairs (its
    diagonal is ignored); the chain moves mass from r to s at rate
    delta[r, s].  One least-squares solve of pQ = p, sum(p) = 1.  When pair
    weights underflow to zero the chain can be reducible; the solve then
    returns the minimum-norm stationary distribution, a positive combination
    of the closed classes' distributions (their supports are disjoint), so
    it is still nonnegative.
    """
    delta = np.array(delta, dtype=float)
    if delta.ndim != 2 or delta.shape[0] != delta.shape[1]:
        raise ValidationError(f"delta must be square, got shape {delta.shape}")
    if np.any(delta < 0):
        raise ValidationError("swap weights must be nonnegative")
    np.fill_diagonal(delta, 0.0)
    if abs(delta.sum() - 1.0) > 1e-6:
        raise ValidationError("swap weights must form a distribution over ordered pairs")
    k = delta.shape[0]
    q = delta.copy()
    np.fill_diagonal(q, 1.0 - delta.sum(axis=1))
    a = np.vstack([q.T - np.eye(k), np.ones((1, k))])
    b = np.zeros(k + 1)
    b[-1] = 1.0
    p, *_ = np.linalg.lstsq(a, b, rcond=None)
    p = np.clip(p, 0.0, None)
    return p / p.sum()


def _sigmoid(x: float) -> float:
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-min(x, 700.0)))
    e = math.exp(max(x, -700.0))
    return e / (1.0 + e)


def _softmax_pairs(g: np.ndarray, eta: float) -> np.ndarray:
    """Exponential pair weights from cumulative swap utilities (off-diagonal)."""
    k = g.shape[0]
    mask = ~np.eye(k, dtype=bool)
    w = eta * g[mask]
    w -= w.max()
    e = np.exp(w)
    delta = np.zeros_like(g)
    delta[mask] = e / e.sum()
    return delta


# ---------------------------------------------------------------------------
# rollout machinery
# ---------------------------------------------------------------------------


class _WalkInfo:
    """A walk that a pure profile plans, with its payoffs.

    ``moves[i]`` is the move player consulted at ``arrivals[i]``.  A detected
    walk ends at its armed arrival, which consults no move player.  ``u_a``
    and ``u_d`` leave out the defender's cost terms, which ``cost`` holds
    for the realized walk only.
    """

    __slots__ = ("arrivals", "pre_stages", "moves", "detected", "u_a", "u_d", "cost")


class _Rollout:
    """Pure-profile payoffs of the player decomposition, with per-player counterfactuals.

    Every walk, realized or counterfactual, comes from ``follow``.  Detection
    bits are committed, so a walk ends at its first armed arrival; it also
    ends at a drop, at completion of the last stage, or at its first
    revisited (node, stage) decision state: a committed cycle never
    terminates, which is drop-equivalent.  The stage rewards collected
    before an arrival are the prefix sums ``ba``/``bd`` at the stage in
    effect there.
    """

    def __init__(self, roster: PlayerRoster, params: GameParams):
        graph = roster.graph
        params.check_against(graph)
        if not graph.n_stages:
            raise ValidationError("the graph has no stages")
        self.roster = roster
        self.params = params
        self.graph = graph
        self.m = graph.n_stages
        self.ba = np.concatenate(([0.0], np.cumsum(params.beta_a)))
        self.bd = np.concatenate(([0.0], np.cumsum(params.beta_d)))
        self.landing = graph.landing.tolist()
        # defender block arrays, indexed by player - defender_start
        self.def_cost = params.cell_costs(graph)[roster.defender_cells]
        self.def_players_at = {
            node: np.flatnonzero(roster.defender_nodes == node) for node in range(1, graph.n + 1)
        }

    def armed_nodes(self, def_bits: np.ndarray) -> np.ndarray:
        """Per node id, whether every defender cell of the node is set."""
        armed = np.arange(self.graph.n + 1) != SOURCE
        armed[self.roster.defender_nodes[def_bits == 0]] = False
        return armed

    def follow(self, actions, armed, node: int, stage: int, seen: set[int]) -> _WalkInfo:
        """The walk from an arrival at ``node`` in ``stage``, following the profile.

        ``seen`` holds the move players already consulted on the walk; it is
        extended in place.
        """
        roster, landing, m = self.roster, self.landing, self.m
        arrivals: list[int] = []
        pre: list[int] = []
        moves: list[int] = []
        detected = False
        while True:
            arrivals.append(node)
            pre.append(stage)
            if armed[node]:
                detected = True
                break
            code = landing[node * m + stage - 1]
            if code < 0:
                stage = m + 1
                break
            stage = code % m + 1
            idx = code - m
            if idx in seen:
                break
            seen.add(idx)
            moves.append(idx)
            act = roster.players[idx].actions[actions[idx]]
            if act == DROP:
                break
            node = act
        info = _WalkInfo()
        info.arrivals, info.pre_stages, info.moves, info.detected = arrivals, pre, moves, detected
        info.u_a, info.u_d = self.ba[stage - 1], self.bd[stage - 1]
        if detected:
            info.u_a += self.params.alpha_a
            info.u_d += self.params.alpha_d
        return info

    def walk_info(self, actions: np.ndarray, armed: np.ndarray, def_bits: np.ndarray) -> _WalkInfo:
        """The realized walk; its ``u_d`` includes the defender's cost terms."""
        roster = self.roster
        entry = roster.players[roster.entry_index]
        info = self.follow(actions, armed, entry.actions[actions[roster.entry_index]], 1, set())
        info.cost = float(def_bits @ self.def_cost)
        info.u_d += info.cost
        return info

    def adversary_utils(self, actions, armed, info: _WalkInfo) -> list[tuple[int, np.ndarray]]:
        """Per-action adversary utility of every adversary player the walk executes.

        These are the entry player and the move players the walk consults,
        each with more than one action; every other adversary player's choice
        leaves the outcome unchanged.
        """
        roster = self.roster
        # (player, stage its alternatives arrive in, move players consulted up to it)
        choices = [(roster.entry_index, 1, 0)]
        choices += [(idx, roster.players[idx].stage, k + 1) for k, idx in enumerate(info.moves)]
        out = []
        for idx, stage, n_seen in choices:
            player = roster.players[idx]
            if player.n_actions == 1:
                continue
            utils = np.empty(player.n_actions)
            for a_idx, target in enumerate(player.actions):
                if a_idx == actions[idx]:
                    utils[a_idx] = info.u_a
                elif target == DROP:
                    utils[a_idx] = self.ba[stage - 1]
                else:
                    utils[a_idx] = self.follow(actions, armed, target, stage,
                                               set(info.moves[:n_seen])).u_a
            out.append((idx, utils))
        return out

    def defender_utils(self, actions, armed, info: _WalkInfo) -> tuple[np.ndarray, np.ndarray]:
        """Defender utility for bit 0 and bit 1, per defender player.

        Flipping a bit shifts the cost term; the walk's outcome changes only
        when the flip toggles the armed state of a node it visits.
        """
        def_bits = actions[self.roster.defender_start:]
        u0 = info.u_d - def_bits * self.def_cost
        u1 = u0 + self.def_cost
        first_occ: dict[int, int] = {}
        for i, v in enumerate(info.arrivals):
            first_occ.setdefault(v, i)
        for node, i0 in first_occ.items():
            members = self.def_players_at[node]
            bits = def_bits[members]
            n_set = int(bits.sum())
            k = len(members)
            if n_set == k:
                # the detecting arrival: any member's flip to 0 disarms the
                # node, and the walk goes on to the next armed node
                disarmed = armed.copy()
                disarmed[node] = False
                out = self.follow(actions, disarmed, node, info.pre_stages[i0],
                                  set(info.moves[:i0])).u_d
                for local in members:
                    u0[local] = out + info.cost - self.def_cost[local]
            elif n_set == k - 1:
                # one bit short of armed: flipping that bit to 1 arms the node
                # and pulls detection forward to this node's first visit
                out = self.bd[info.pre_stages[i0] - 1] + self.params.alpha_d
                missing = members[int(np.flatnonzero(bits == 0)[0])]
                u1[missing] = out + info.cost + self.def_cost[missing]
        return u0, u1


# ---------------------------------------------------------------------------
# the learner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LearnerConfig:
    eta: float = 0.1
    eps: float = 1e-3
    max_iters: int = 50_000
    seed: int = 0

    def __post_init__(self):
        for field in ("eta", "eps"):
            value = getattr(self, field)
            if not (math.isfinite(value) and value > 0):
                raise ValidationError(f"{field} must be finite and > 0, got {value}")
        if self.max_iters < 1:
            raise ValidationError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass
class CorrelatedEquilibriumResult:
    """Learned per-player mixtures, sampled profiles, and the convergence trace.

    ``trace`` has one row per iteration: (iteration, running mean defender
    utility, running mean adversary utility, max per-player sup-norm change).
    The empirical joint distribution is the second half of ``profiles``.
    """

    roster: PlayerRoster
    config: LearnerConfig
    distributions: tuple[np.ndarray, ...]
    profiles: np.ndarray  # (iterations, n_players) action indices
    trace: np.ndarray  # (iterations, 4)
    converged: bool
    iterations: int
    final_gap: float

    def joint_profiles(self) -> np.ndarray:
        keep = math.ceil(self.iterations / 2)
        return self.profiles[self.iterations - keep:]

    def defender_strategy(self) -> DefenderStrategy:
        return self.roster.defender_strategy(self.distributions)

    def adversary_strategy(self) -> AdversaryStrategy:
        return self.roster.adversary_strategy(self.distributions)

    def trace_csv(self) -> str:
        lines = ["iteration,U_D_avg,U_A_avg,max_gap"]
        for row in self.trace:
            lines.append(f"{int(row[0])},{float(row[1])!r},{float(row[2])!r},{float(row[3])!r}")
        return "\n".join(lines) + "\n"


def run(
    graph: InformationFlowGraph,
    params: GameParams,
    config: LearnerConfig | None = None,
) -> CorrelatedEquilibriumResult:
    """Iterate the internal-regret dynamics until the mixtures stop moving.

    Per iteration: sample one action per player, fold the realized profile
    into every player's cumulative swap utilities, reweight the swap pairs
    exponentially (rate ``eta``), and move each player to the stationary
    distribution of its swap chain.  Stops when the largest sup-norm change
    of any player's mixture is at most ``eps``, or at ``max_iters`` (flagged
    as not converged).  Deterministic for a fixed config.

    Players whose counterfactual utilities provably match the realized one
    for every action (adversary players off the realized walk) receive a
    constant swap-utility increment, which leaves their pair weights and
    mixture unchanged; the update is skipped outright.
    """
    cfg = config or LearnerConfig()
    roster = PlayerRoster(graph)
    ctx = _Rollout(roster, params)
    rng = np.random.default_rng(cfg.seed)
    n_players = len(roster)
    d0 = roster.defender_start
    n_def = roster.n_defenders
    eta = cfg.eta

    # mutable learner state
    varying = [
        i for i, pl in enumerate(roster.players[:d0]) if pl.n_actions > 1
    ]  # move/entry players with a real choice
    dist: list[np.ndarray] = [
        np.full(pl.n_actions, 1.0 / pl.n_actions) for pl in roster.players[:d0]
    ]
    cums: dict[int, np.ndarray] = {i: np.cumsum(dist[i]) for i in varying}
    big_g: dict[int, np.ndarray] = {
        i: np.zeros((roster.players[i].n_actions,) * 2) for i in varying
    }
    g01 = np.zeros(n_def)
    g10 = np.zeros(n_def)
    p1 = np.full(n_def, 0.5)

    profiles: list[np.ndarray] = []
    trace: list[tuple[int, float, float, float]] = []
    sum_ud = 0.0
    sum_ua = 0.0
    converged = False
    gap = math.inf
    t = 0

    actions = np.zeros(n_players, dtype=np.int64)
    while t < cfg.max_iters:
        u = rng.random(n_players)
        for i in varying:
            actions[i] = min(int(np.searchsorted(cums[i], u[i], side="right")), len(cums[i]) - 1)
        def_bits = (u[d0:] < p1).astype(np.float64)
        actions[d0:] = def_bits.astype(np.int64)

        armed = ctx.armed_nodes(def_bits)
        info = ctx.walk_info(actions, armed, def_bits)
        sum_ud += info.u_d
        sum_ua += info.u_a
        gap = 0.0

        # adversary-side updates: entry plus effective walk decisions
        for idx, utils in ctx.adversary_utils(actions, armed, info):
            p = dist[idx]
            g = big_g[idx]
            base = float(p @ utils)
            g += base + np.outer(p, np.ones_like(p)) * (utils[None, :] - utils[:, None])
            np.fill_diagonal(g, 0.0)
            if len(p) == 2:
                d01 = _sigmoid(eta * (g[0, 1] - g[1, 0]))
                new_p = np.array([1.0 - d01, d01])
            else:
                new_p = fixed_point(_softmax_pairs(g, eta))
            gap = max(gap, float(np.abs(new_p - p).max()))
            dist[idx] = new_p
            cums[idx] = np.cumsum(new_p)

        # defender updates: for two actions the pair weights reduce to a
        # logistic in the cumulative utility difference, and the stationary
        # mixture is (delta10, delta01) itself
        u0, u1 = ctx.defender_utils(actions, armed, info)
        g01 += u1
        g10 += u0
        new_p1 = 1.0 / (1.0 + np.exp(np.clip(-eta * (g01 - g10), -700.0, 700.0)))
        gap = max(gap, float(np.abs(new_p1 - p1).max()))
        p1 = new_p1

        profiles.append(actions.astype(np.int16))
        t += 1
        trace.append((t, sum_ud / t, sum_ua / t, gap))
        if gap <= cfg.eps:
            converged = True
            break

    distributions = [d.copy() for d in dist]
    for local in range(n_def):
        distributions.append(np.array([1.0 - p1[local], p1[local]]))
    return CorrelatedEquilibriumResult(
        roster=roster,
        config=cfg,
        distributions=tuple(distributions),
        profiles=np.array(profiles),
        trace=np.array(trace),
        converged=converged,
        iterations=t,
        final_gap=float(gap),
    )


# ---------------------------------------------------------------------------
# verification utilities
# ---------------------------------------------------------------------------


def _profile_gains(ctx: _Rollout, actions: np.ndarray):
    """Per-player (realized action, alternative, utility gain) triples."""
    roster = ctx.roster
    def_bits = actions[roster.defender_start:].astype(np.float64)
    armed = ctx.armed_nodes(def_bits)
    info = ctx.walk_info(actions, armed, def_bits)
    out: list[tuple[int, int, int, float]] = []
    for idx, utils in ctx.adversary_utils(actions, armed, info):
        r = int(actions[idx])
        for s in range(len(utils)):
            if s != r:
                out.append((idx, r, s, float(utils[s] - utils[r])))
    u0, u1 = ctx.defender_utils(actions, armed, info)
    diff = u1 - u0
    for local in range(roster.n_defenders):
        idx = roster.defender_start + local
        r = int(actions[idx])
        gain = float(diff[local]) if r == 0 else float(-diff[local])
        out.append((idx, r, 1 - r, gain))
    return out


def swap_regret(
    result: CorrelatedEquilibriumResult,
    graph: InformationFlowGraph,
    params: GameParams,
) -> float:
    """Maximum expected gain of any single-player action swap under the joint.

    Computed exactly over the stored empirical joint distribution.  The
    value is the epsilon for which the joint is an eps-correlated
    equilibrium; it is negative when every swap strictly loses.
    """
    ctx = _Rollout(result.roster, params)
    joint = result.joint_profiles()
    uniq, counts = np.unique(joint, axis=0, return_counts=True)
    sums: dict[tuple[int, int, int], float] = {}
    for profile, count in zip(uniq, counts):
        for idx, r, s, gain in _profile_gains(ctx, profile.astype(np.int64)):
            sums[(idx, r, s)] = sums.get((idx, r, s), 0.0) + count * gain
    if not sums:
        return 0.0
    return max(sums.values()) / len(joint)
