"""Parameter sweeps built on the multi-stage learner.

The cost sweep scales the three defense cost components (tag, trap, rule
selection) by each factor, learns strategies at that cost level, and then
estimates both players' utilities by simulating the learned strategy pair.
"""

from __future__ import annotations

from dataclasses import dataclass

from .game import GameParams, evaluate_monte_carlo
from .ifg import InformationFlowGraph
from .learn import LearnerConfig, run


@dataclass(frozen=True)
class SweepRow:
    factor: float
    u_d_mean: float
    u_a_mean: float
    u_d_stderr: float
    u_a_stderr: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]  # sorted by factor, one row per factor

    @staticmethod
    def csv_header() -> str:
        return "factor,u_d_mean,u_a_mean,u_d_stderr,u_a_stderr"

    def to_csv(self) -> str:
        lines = [self.csv_header()]
        for r in self.rows:
            lines.append(f"{r.factor!r},{r.u_d_mean!r},{r.u_a_mean!r},{r.u_d_stderr!r},{r.u_a_stderr!r}")
        return "\n".join(lines) + "\n"


DEFAULT_FACTORS = (0.01, 0.1, 0.5, 1.0, 3.0, 6.0, 10.0)


def sweep_cost(
    graph: InformationFlowGraph,
    params: GameParams,
    factors=DEFAULT_FACTORS,
    learner_config: LearnerConfig | None = None,
    sim_trials: int = 20_000,
    sim_seed: int = 0,
) -> SweepResult:
    """Learn and simulate at each cost scale factor; rows sorted by factor."""
    base = learner_config or LearnerConfig()
    rows = []
    for factor in sorted(set(float(f) for f in factors)):
        scaled = params.scaled(factor)
        result = run(graph, scaled, base)
        report = evaluate_monte_carlo(
            graph,
            scaled,
            result.defender_strategy(),
            result.adversary_strategy(),
            n_trials=sim_trials,
            seed=sim_seed,
        )
        rows.append(
            SweepRow(
                factor=factor,
                u_d_mean=report.u_d,
                u_a_mean=report.u_a,
                u_d_stderr=report.std_err_d or 0.0,
                u_a_stderr=report.std_err_a or 0.0,
            )
        )
    return SweepResult(rows=tuple(rows))
