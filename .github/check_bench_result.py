"""Check the result line of one benchmark run.

    python3 perfbench/run.py --workload W --seed 1 --seconds 1 --trace T > run.out
    python3 .github/check_bench_result.py run.out T

The last line of the run's standard output must be one strict JSON object
(no NaN or Infinity) with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``metrics`` must hold every end-to-end metric that
BENCHMARK.json declares when T = 0, and every per-layer metric when T = 1.
No op may have failed: every workload's inputs are expected to solve.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def reject_constant(name):
    raise ValueError(f"the result line holds the non-JSON number {name}")


def main(path: str, trace: str) -> int:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        print("the run printed nothing", file=sys.stderr)
        return 1
    result = json.loads(lines[-1], parse_constant=reject_constant)
    missing = {"correct", "attempted", "failed", "metrics"} - set(result)
    if missing:
        print(f"the result line lacks {sorted(missing)}", file=sys.stderr)
        return 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {m["name"] for m in declared["per_layer" if trace == "1" else "end_to_end"]}
    absent = names - set(result["metrics"])
    if absent:
        print(f"the result line lacks the metrics {sorted(absent)}", file=sys.stderr)
        return 1
    print(f"{len(names)} metrics; correct={result['correct']}, "
          f"{result['failed']} of {result['attempted']} ops failed")
    return 1 if result["failed"] > 0 else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
