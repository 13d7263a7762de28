"""Benchmark entry point.

    python3 perfbench/run.py --workload multistage --seed 1 --seconds 30 --trace 0

Runs one workload (or ``all`` of them, each in its own process, one after
another) against the ``diftgame`` sources under ``src/`` of the checkout
that holds this directory.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See README.md in this directory.
"""

import os

# pin BLAS and OpenMP pools before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("multistage", "respond", "single-stage")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "diftgame" / "__init__.py").is_file():
        print(f"perfbench: no diftgame sources under {src}", file=sys.stderr)
        return 2

    if args.workload == "all":
        worst = 0
        for name in NAMES:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            worst = max(worst, subprocess.run(cmd, check=False).returncode)
        return worst

    sys.path[:0] = [str(src), str(HERE)]
    import diftgame

    if Path(diftgame.__file__).resolve().parent != (src / "diftgame").resolve():
        print(f"perfbench: imported diftgame from {diftgame.__file__}, not {src}", file=sys.stderr)
        return 2
    import harness
    from workloads import WORKLOADS

    result = harness.run(WORKLOADS[args.workload](), ROOT, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
