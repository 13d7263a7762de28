"""Runs one workload: set-up, timed passes over its subcommands, checks, metrics.

Subcommands run in-process through ``diftgame.cli.main`` with standard output
and error captured, so terminal I/O is not timed.  Every invocation counts as
an attempted op; an escaping exception, a nonzero exit code or a failed
output check counts it as failed, and its wall time stays in every timing.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from diftgame import cli

import tracer as tracing

SETUP_REPEATS = 5
MIN_PASSES = 2


def reference_s() -> float:
    """Wall time of a fixed pure-interpreter loop, the yardstick for machine speed.

    The machine's speed drifts by up to 1.5x over tens of seconds; an op's
    wall time divided by this loop's, timed just before and after the op,
    cancels about half of that drift (see README.md).
    """
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return time.perf_counter() - start


class CheckFailed(Exception):
    """An output check did not hold."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class OpResult:
    label: str
    seconds: float
    ok: bool
    nodes: int  # graph size credited to the throughput when the op succeeds
    stdout: str
    reference_s: float = 0.0  # mean reference_s() around the op, 0 when not calibrated


def digest_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digest_dir(path: Path) -> dict[str, str]:
    return {p.name: digest_file(p) for p in sorted(path.iterdir()) if p.is_file()}


class Runner:
    """Invokes subcommands and library calls and accounts for every attempt."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.check_failures = 0
        self.errors: list[str] = []
        self.tracer: tracing.Tracer | None = None
        self.calibrate = False  # time reference_s() around each subcommand
        self._outputs: dict[str, dict[str, str]] = {}  # label -> digests of its first output

    def _traced(self, name, fn, *args):
        if self.tracer is None:
            return fn(*args)
        return self.tracer.call(name, fn, *args)

    def _checked(self, check, *args) -> str | None:
        if self.tracer is not None:
            self.tracer.active = False  # checks are not the program's work
        try:
            check(*args)
            return None
        except Exception as exc:  # noqa: BLE001 - a check that cannot be evaluated fails
            self.check_failures += 1
            return f"check failed: {type(exc).__name__}: {exc}"
        finally:
            if self.tracer is not None:
                self.tracer.active = True

    def _account(self, label: str, error: str | None) -> bool:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.errors.append(f"{label}: {error}")
        return error is None

    def op(self, label: str, argv: list[str], out_dir: Path, nodes: int = 0, check=None) -> OpResult:
        """Run one subcommand writing into ``out_dir``; ``check(stdout)`` runs untimed."""
        argv = [*argv, "--out-dir", str(out_dir)]
        out, err = io.StringIO(), io.StringIO()
        error = None
        before = reference_s() if self.calibrate else 0.0
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self._traced("cli." + argv[0], cli.main, argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - any escaping error is a failed op
            code, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        reference = (before + reference_s()) / 2 if self.calibrate else 0.0
        if error is None and code != 0:
            error = f"exit code {code}: {err.getvalue().strip()[-300:]}"
        if error is None and check is not None:
            error = self._checked(check, out.getvalue())
        if error is None:
            error = self._checked(self._same_output, label, out_dir)
        return OpResult(label, seconds, self._account(label, error), nodes, out.getvalue(), reference)

    def library(self, label: str, fn) -> OpResult:
        """Run one library-level op (a cross-check); ``fn`` raises CheckFailed on a mismatch."""
        error = None
        start = time.perf_counter()
        try:
            fn()
        except CheckFailed as exc:
            self.check_failures += 1
            error = f"check failed: {exc}"
        except Exception as exc:  # noqa: BLE001 - any escaping error is a failed op
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        return OpResult(label, seconds, self._account(label, error), 0, "")

    def _same_output(self, label: str, out_dir: Path) -> None:
        """Repeated invocations with the same manifest must write identical bytes."""
        digests = digest_dir(out_dir)
        first = self._outputs.setdefault(label, digests)
        require(digests == first, f"{label} wrote different bytes than its first invocation")


def environment(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(root),
        "machine": platform.machine(),
    }


def git_commit(root: Path) -> str:
    """The checked-out commit read from ``.git``, or "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def op_summary(passes: list[list[OpResult]], calibrated: bool = False) -> dict[str, tuple[float, float]]:
    """Per op label: (median time over the passes, nodes credited per pass).

    The time is wall seconds, or with ``calibrated`` wall time in units of
    the ``reference_s`` loop timed around the op.  An op's nodes are credited
    in proportion to the passes in which it succeeded; its time counts
    whether it failed or not.
    """
    out = {}
    for label in dict.fromkeys(op.label for ops in passes for op in ops):
        runs = [op for ops in passes for op in ops if op.label == label]
        credited = sum(op.nodes for op in runs if op.ok) / len(runs)
        times = [op.seconds / op.reference_s if calibrated else op.seconds for op in runs]
        out[label] = (statistics.median(times), credited)
    return out


def nodes_per_s(ops: dict[str, tuple[float, float]], labels) -> float:
    """Nodes of successful subcommands per second of all of them, failed ones included."""
    return sum(ops[label][1] for label in labels) / sum(ops[label][0] for label in labels)


def run(workload, root: Path, seed: int, seconds: float, trace: bool) -> dict:
    work = root / ".perfbench_work" / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner()
    try:
        return (_traced_run if trace else _timed_run)(workload, runner, work, seed, seconds, root)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        parent = work.parent
        if parent.is_dir() and not any(parent.iterdir()):
            parent.rmdir()


def _setup(workload, runner: Runner, base: Path, seed: int):
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir()
    start = time.perf_counter()
    inputs = workload.setup(runner, base, seed)
    return inputs, time.perf_counter() - start


def _timed_run(workload, runner, work, seed, seconds, root) -> dict:
    setup_times = []
    digests = None
    for repeat in range(SETUP_REPEATS):
        inputs, took = _setup(workload, runner, work / f"setup{repeat}", seed)
        setup_times.append(took)
        now = {name: digest_file(path)[:16] for name, path in sorted(inputs.items())}
        if digests is None:
            digests = now
        else:
            runner.library("same-inputs", lambda: require(now == digests, "inputs differ between set-ups"))
    print("perfbench inputs " + json.dumps(digests, sort_keys=True))

    out = work / "out"
    runner.calibrate = True
    passes: list[list[OpResult]] = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        passes.append(workload.run_pass(runner, inputs, out, seed))
        elapsed = time.perf_counter() - start
        last = time.perf_counter() - pass_start
        if len(passes) >= MIN_PASSES and elapsed + last > seconds:
            break

    ops = op_summary(passes)
    subcommands = [[op for op in p if op.nodes] for p in passes]  # not the library cross-checks
    solver = [op.label for op in subcommands[0]]
    report = {
        "pass_s": (sum(ops[label][0] for label in solver), "s"),
        "nodes_per_s": (nodes_per_s(ops, solver), "nodes/s"),
        "reference_ms": (1000 * statistics.median(op.reference_s for p in subcommands for op in p), "ms"),
        "error_rate": (runner.failed / runner.attempted, "ratio"),
        **workload.report(ops),
    }
    print("perfbench env " + json.dumps(environment(root), sort_keys=True))
    print("perfbench report " + json.dumps({
        "workload": workload.name, "seed": seed, "passes": len(passes),
        "metrics": _unit_dict(report),
        "op_s": {label: [round(op.seconds, 4) for p in passes for op in p if op.label == label] for label in ops},
        "errors": runner.errors[:20],
    }))
    metrics = {
        "nodes_per_ref": (nodes_per_s(op_summary(subcommands, calibrated=True), solver), "nodes/ref"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return _result(runner, metrics)


def _traced_run(workload, runner, work, seed, seconds, root) -> dict:
    """Cycles of set-up plus one pass, alternately untraced and traced.

    The per-layer metrics are medians over the traced cycles; the tracing
    overhead is the median traced cycle minus the median untraced one.
    """
    tracer = tracing.Tracer()
    walls = {False: [], True: []}
    bounds = []
    start = time.perf_counter()
    while True:
        traced = len(walls[False]) > len(walls[True])
        if traced:
            tracing.install(tracer)
            runner.tracer = tracer
        lo = len(tracer.spans)
        begin = time.perf_counter()
        try:
            inputs, _ = _setup(workload, runner, work / "setup", seed)
            workload.run_pass(runner, inputs, work / "out", seed)
        finally:
            tracer.restore()
            runner.tracer = None
        walls[traced].append(time.perf_counter() - begin)
        if traced:
            bounds.append((lo, len(tracer.spans)))
        if walls[True] and time.perf_counter() - start + walls[traced][-1] > seconds:
            break

    per_cycle = [tracing.layer_metrics(tracer.spans, lo, hi, tracer.absent) for lo, hi in bounds]
    metrics = {
        name: (statistics.median(m[name][0] for m in per_cycle), unit)
        for name, (_, unit) in per_cycle[0].items()
    }
    metrics["trace.overhead_s"] = (statistics.median(walls[True]) - statistics.median(walls[False]), "s")
    print("perfbench env " + json.dumps(environment(root), sort_keys=True))
    print("perfbench trace " + json.dumps({
        "workload": workload.name, "seed": seed,
        "untraced_cycle_s": walls[False], "traced_cycle_s": walls[True],
        "absent": sorted(tracer.absent), "errors": runner.errors[:20],
    }))
    return _result(runner, metrics)


def _unit_dict(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def _result(runner: Runner, metrics: dict) -> dict:
    return {
        "correct": runner.check_failures == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": _unit_dict(metrics),
    }
