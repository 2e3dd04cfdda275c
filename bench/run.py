#!/usr/bin/env python3
"""gridperc benchmark: one workload per run, outputs checked, metrics as JSON.

    python3 bench/run.py --workload certify --seed 1 --seconds 35 --trace 0

Run from a source checkout: ``gridperc`` is imported from ``src/`` next to
this directory and nowhere else, so the run fails (exit 2, no result line)
when the sources are missing.  Load comes from this one process and thread.

A run first sets up several times, each in a fresh interpreter, and reports
the median as ``setup_s``: importing ``gridperc`` and its dependencies,
making the inputs from the seed, and in ``audit`` building the certificates.
It then sets up once in this process and runs passes over the workload's
operations, starting another pass after the second only while it is expected
to end within ``--seconds`` of the run's start, and checks every output.
With ``--trace 0`` the last line holds the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` the in-process set-up is traced, one
untraced pass is followed by traced passes, and the last line holds the
per-layer metrics, averaged per traced pass (``setup.*`` metrics come from
the traced set-up).  The line before it is a report
with the machine facts, sample counts, ``error_rate``, ``op_p50_ms``,
``op_tail_ms`` where there are enough samples, and ``candidates_per_s`` on
``exhaustive``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".bench_out"
# Set up at least MIN_SETUPS times, and more while the set-ups took under
# SETUP_SECONDS in all, so that a cheap set-up still gives a steady median.
# Each set-up runs COLD_SETUP in a fresh interpreter, which prints its time.
MIN_SETUPS = 3
MAX_SETUPS = 25
SETUP_SECONDS = 1.0
# An untraced run makes at least two passes, so that every per-operation
# median has two samples even when one pass takes over half of --seconds.
MIN_PASSES = 2
COLD_SETUP = """
import random, sys, time
src, bench, workload, seed = sys.argv[1:]
sys.path[:0] = [src, bench]
from workloads import WORKLOADS
t0 = time.perf_counter()
import gridperc, gridperc.cli
WORKLOADS[workload](gridperc, random.Random(int(seed)))
elapsed = time.perf_counter() - t0
if not gridperc.__file__.startswith(src):
    sys.exit(f"gridperc imported from {gridperc.__file__}, not {src}")
print(elapsed)
"""
MACHINE_NOTE = (
    "shared 2-core machine: other tenants' load moves timings by 20% or more "
    "over minutes; three back-to-back certify ladders once took 10.4 s to 13.0 s"
)

from tracer import LAYERS, Tracer  # noqa: E402  (needs BENCH_DIR on sys.path, as when run as a script)
from workloads import WORKLOADS  # noqa: E402


class SourceMissing(RuntimeError):
    pass


def import_gridperc():
    """Import ``gridperc`` afresh from this checkout's ``src/``."""
    if not (SRC / "gridperc" / "__init__.py").is_file():
        raise SourceMissing(f"no gridperc sources under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "gridperc" or m.startswith("gridperc.")]:
        del sys.modules[name]
    package = importlib.import_module("gridperc")
    importlib.import_module("gridperc.cli")
    if Path(package.__file__).resolve().parent != (SRC / "gridperc").resolve():
        raise SourceMissing(f"gridperc imported from {package.__file__}, not {SRC}")
    return package


@dataclass
class Pass:
    wall: float
    latencies: list[float] = field(default_factory=list)
    observations: list = field(default_factory=list)


def run_pass(ops, tracer=None) -> Pass:
    record = Pass(0.0)
    started = time.perf_counter()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        t0 = time.perf_counter()
        try:
            observation = op.run()
        except Exception as exc:  # an exception is a failed operation, not a crash
            observation = exc
        record.latencies.append(time.perf_counter() - t0)
        record.observations.append(observation)
    record.wall = time.perf_counter() - started
    return record


def run_passes(ops, deadline: float, min_passes: int, tracer=None) -> list[Pass]:
    """``min_passes`` passes, then more while the next should end by ``deadline``."""
    passes = []
    while True:
        passes.append(run_pass(ops, tracer))
        if len(passes) >= min_passes and time.perf_counter() + passes[-1].wall > deadline:
            return passes


def cold_setup(workload: str, seed: int) -> float:
    """Seconds one set-up takes in a fresh interpreter, imports included."""
    proc = subprocess.run(
        [sys.executable, "-c", COLD_SETUP, str(SRC), str(BENCH_DIR), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up of {workload} failed:\n{proc.stderr}")
    return float(proc.stdout)


@dataclass
class Checked:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    candidates: int = 0
    search_s: float = 0.0


def check_passes(ops, passes: list[Pass]) -> Checked:
    checked = Checked()
    for record in passes:
        for op, latency, obs in zip(ops, record.latencies, record.observations):
            checked.attempted += 1
            if isinstance(obs, Exception):
                checked.failures.append(f"{op.label}: raised {obs!r}")
                continue
            try:
                reason = op.check(obs)
                if reason is None and op.candidates is not None:
                    checked.candidates += op.candidates(obs)
                    checked.search_s += latency
            except Exception as exc:  # malformed output
                reason = f"check raised {exc!r}"
            if reason is not None:
                checked.failures.append(f"{op.label}: {reason}")
    return checked


def tail(latencies_ms: list[float]):
    """Highest percentile with at least ten samples beyond it.

    None below 40 samples, where that percentile would be under p75.
    """
    n = len(latencies_ms)
    if n < 40:
        return None
    return {"percentile": round(100 * (n - 10) / n, 2), "ms": sorted(latencies_ms)[n - 11]}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.perf_counter() + seconds
    package = import_gridperc()  # fails before any set-up when src/ is missing
    setup_times = []
    while len(setup_times) < MIN_SETUPS or (
        sum(setup_times) < SETUP_SECONDS and len(setup_times) < MAX_SETUPS
    ):
        setup_times.append(cold_setup(workload, seed))

    setup_tracer = Tracer()
    if trace:  # for the set-up share of each layer
        setup_tracer.install(package)
    try:
        ops = WORKLOADS[workload](package, random.Random(seed))
    finally:
        setup_tracer.uninstall()  # nothing to undo when not installed

    tracer = None
    if trace:
        untraced = run_passes(ops, 0.0, 1)
        tracer = Tracer()
        tracer.install(package)
        try:
            traced = run_passes(ops, deadline, 1, tracer)
        finally:
            tracer.uninstall()
        checked = check_passes(ops, untraced + traced)
    else:
        untraced = run_passes(ops, deadline, MIN_PASSES)
        checked = check_passes(ops, untraced)

    latencies_ms = [x * 1000 for p in untraced for x in p.latencies]
    op_median_ms = {
        op.label: statistics.median(p.latencies[i] * 1000 for p in untraced)
        for i, op in enumerate(ops)
    }
    wall_s = statistics.median(p.wall for p in untraced)
    end_to_end = {
        "wall_s": wall_s,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    report = {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": MACHINE_NOTE,
        "setups": len(setup_times),
        "passes": len(untraced),
        "pass_wall_s": [p.wall for p in untraced],
        "ops_per_pass": len(ops),
        "op_samples": len(latencies_ms),
        # The median over operations of each one's median latency, so the
        # figure does not depend on how many passes fitted into the run.
        "op_p50_ms": statistics.median(op_median_ms.values()),
        "error_rate": len(checked.failures) / checked.attempted,
        "op_tail_ms": tail(latencies_ms),
        "candidates_per_s": checked.candidates / checked.search_s if checked.search_s else None,
        "candidates_tested": checked.candidates,
        "op_median_ms": op_median_ms,
        "failures": checked.failures[:10],
    }
    per_layer = {}
    if tracer is not None:
        traced_passes = len(traced)
        tracer.counters["cli.stdout_bytes"] = sum(
            len(getattr(obs, "out", "")) for p in traced for obs in p.observations
        )
        per_layer = tracer.metrics(traced_passes)
        per_layer["trace.wall_s"] = statistics.fmean(p.wall for p in traced)
        per_layer["trace.overhead_s"] = per_layer["trace.wall_s"] - wall_s
        attributed = sum(per_layer[f"{layer}.self_s"] for layer in LAYERS)
        per_layer["trace.unattributed_s"] = per_layer["trace.wall_s"] - attributed
        per_layer.update((f"setup.{name}", value) for name, value in setup_tracer.metrics(1).items())
        report["traced_passes"] = traced_passes
        report["spans"] = write_spans(workload, seed, tracer)
    return {
        "attempted": checked.attempted,
        "failed": len(checked.failures),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "report": report,
    }


def write_spans(workload: str, seed: int, tracer: Tracer) -> str:
    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / f"spans-{workload}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"stats": tracer.stats, "spans": tracer.kept_spans()}, fh)
    return str(path.relative_to(ROOT))


def load_config() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def result_line(result: dict, config: dict, trace: int) -> dict:
    """The last line of a run: the metrics BENCHMARK.json names for this mode."""
    values = result["per_layer"] if trace else result["end_to_end"]
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
            for spec in config["per_layer" if trace else "end_to_end"]
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    config = load_config()
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for reason in result["report"]["failures"]:
        print(f"failed: {reason}", file=sys.stderr)
    print(json.dumps(result["report"]))
    print(json.dumps(result_line(result, config, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
