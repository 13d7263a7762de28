"""Game-theoretic solvers for information-flow-tracking defense against
multi-stage attacks on an information flow graph.

Submodules:

* ``ifg``          - graph data model, validation, augmentation, file I/O
* ``game``         - strategies, parameters, absorbing-chain / walk-enumeration /
                     Monte Carlo / pure-profile payoff evaluation
* ``respond``      - adversary shortest-path best response, defender
                     discretized submodular (double-greedy) best response
* ``single_stage`` - exact single-stage equilibrium: flow network, min-cut,
                     matrix game
* ``learn``        - multi-stage local correlated equilibrium via
                     internal-regret minimization
* ``generate``     - synthetic staged attack graphs
* ``experiments``  - cost-scale sweeps
* ``cli``          - the ``diftgame`` command-line driver
"""

from . import cli, errors, experiments, game, generate, ifg, learn, respond, single_stage

__all__ = [
    "cli",
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
