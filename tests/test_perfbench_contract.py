"""The benchmark under perfbench/ still finds every symbol it relies on.

Its tracer wraps library functions by name and silently drops the metrics
of any symbol that has gone missing, so a rename or deletion in the library
would shrink a traced run's report without failing it.
"""

import json
from pathlib import Path

import pytest

from diftgame import game, respond

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench_path(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))


def test_traced_run_reports_every_per_layer_metric(perfbench_path):
    import tracer

    with open(PERFBENCH.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = {metric["name"] for metric in json.load(fh)["per_layer"]}
    originals = (game.evaluate_monte_carlo, respond.evaluate_monte_carlo, game.strategy_costs)
    spans = tracer.Tracer()
    tracer.install(spans)
    try:
        assert spans.absent == set()
        reported = set(tracer.layer_metrics([], 0, 0, spans.absent)) | {"trace.overhead_s"}
    finally:
        spans.restore()
    assert reported == declared
    assert (game.evaluate_monte_carlo, respond.evaluate_monte_carlo, game.strategy_costs) == originals


def test_workloads_import(perfbench_path):
    import workloads

    assert set(workloads.WORKLOADS) == {"multistage", "respond", "single-stage"}
