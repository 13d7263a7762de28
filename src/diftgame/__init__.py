"""Game-theoretic solvers for information-flow-tracking defense against
multi-stage attacks on an information flow graph.

Submodules:

* ``ifg``          - graph data model, validation, file I/O
* ``game``         - strategies, parameters, exact absorbing-chain and Monte
                     Carlo payoff evaluation, and walk enumeration as the
                     exact evaluator's reference
* ``respond``      - adversary shortest-path best response, defender
                     discretized submodular (double-greedy) best response
* ``single_stage`` - exact single-stage equilibrium: flow network, min-cut,
                     matrix game
* ``learn``        - multi-stage local correlated equilibrium via
                     internal-regret minimization
* ``generate``     - synthetic staged attack graphs
* ``experiments``  - cost-scale sweeps
* ``cli``          - the ``diftgame`` command-line driver; not imported here,
                     so ``python -m diftgame.cli`` runs it without a warning
"""

from . import errors, experiments, game, generate, ifg, learn, respond, single_stage

__all__ = [
    "errors",
    "experiments",
    "game",
    "generate",
    "ifg",
    "learn",
    "respond",
    "single_stage",
]

__version__ = "0.1.0"
