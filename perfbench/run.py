#!/usr/bin/env python3
"""Benchmark of the virtual-vehicle fleet backend.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet_fork --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs a fixed amount of work twice — untraced, then with
layer spans on — and reports the per-layer metrics, the tracing overhead,
and whether the traced digests equal the untraced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any failed check
makes the exit code 1.  See ``perfbench/README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import pickle
import platform
import shutil
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Any, Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".perfbench-out")

#: seed used when ``--seed`` is not given
DEFAULT_SEED = 1
#: rounds a ``--trace 0`` run completes even past ``--seconds``
MIN_ROUNDS = 10
#: seconds :func:`calibrate` takes on the reference host; every reported
#: time is scaled to that host (see README.md, "Host-speed scaling")
CALIBRATION_S = 0.04
#: rounds of each pass in a ``--trace 1`` run
TRACE_ROUNDS = 6


def _import_program() -> None:
    """Import ``repro`` and the chaos plan from this checkout, or exit 1."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "examples")]
    try:
        import repro
        import chaos_drive  # noqa: F401
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from {ROOT}: {exc}")
    where = os.path.realpath(repro.__file__)
    if not where.startswith(os.path.realpath(os.path.join(ROOT, "src")) + os.sep):
        sys.exit(f"perfbench: repro imported from {where}, not this checkout")


def environment(workers: int) -> Dict[str, Any]:
    """Host facts recorded beside every result."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
            env={**os.environ,
                 "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "workers": workers,
    }


def _peak_rss_mib(pids: List[int]) -> float:
    """Summed peak resident set (VmHWM) of this process and ``pids``."""
    total_kib = 0
    for pid in ["self", *pids]:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    total_kib += int(line.split()[1])
    return total_kib / 1024.0


def calibrate() -> float:
    """Seconds the host takes now for a fixed piece of stdlib-only work.

    The work mixes what the simulator spends its time on — small-object
    churn, a heap, dict updates and unpickling — and uses no ``repro``
    code, so no change to the program can move it.
    """
    start = perf_counter()
    heap: List[Tuple[int, int]] = []
    counts: Dict[int, int] = {}
    for i in range(40000):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        counts[i & 255] = counts.get(i & 255, 0) + 1
        if len(heap) > 64:
            heapq.heappop(heap)
    for _ in range(40):
        pickle.loads(_CALIBRATION_BLOB)
    return perf_counter() - start


_CALIBRATION_BLOB = pickle.dumps(
    [{"k": i, "v": (i, str(i)), "f": i * 0.5} for i in range(500)])


class Tally:
    """Attempted and failed items across every check of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def add(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{what}: {failed}/{attempted}")


def _batch(wl, tally: Tally, digests: List[str]) -> Tuple[float, int]:
    """One timed batch; its digest must equal the run's first."""
    elapsed, items, digest = wl.batch()
    if digests and digest != digests[0]:
        tally.add(items, items, "batch digest differs from the first batch")
    else:
        tally.add(items, 0, "batch")
    digests.append(digest)
    return elapsed, items


def _recover(wl, tally: Tally) -> float:
    """One timed half-drop resume; its result must equal the clean one."""
    elapsed, items, ok = wl.recover()
    tally.add(items, 0 if ok else items,
              "resumed result differs from the uninterrupted one")
    return elapsed


def _speed(*calibrations: float) -> float:
    """Host speed relative to the reference host (> 1 is faster)."""
    return CALIBRATION_S * len(calibrations) / sum(calibrations)


def measure(wl, seconds: float, tally: Tally) -> Dict[str, Any]:
    """The ``--trace 0`` run: end-to-end metrics, tracing off.

    Each round is a set-up and a batch, then a recovery, each stretch
    bracketed by calibrations; its times are scaled by the host speed
    the calibrations around it measured.
    """
    rounds: List[Dict[str, float]] = []
    digests: List[str] = []
    deadline = perf_counter() + seconds
    while len(rounds) < MIN_ROUNDS or perf_counter() < deadline:
        before = calibrate()
        # a fresh set-up every round spreads its samples over the run
        start = perf_counter()
        wl.setup()
        setup = perf_counter() - start
        elapsed, items = _batch(wl, tally, digests)
        between = calibrate()
        recovery = _recover(wl, tally)
        rounds.append({
            "speed": _speed(before, between), "setup_s": setup,
            "batch_s": elapsed, "items": items, "recovery_s": recovery,
            "recovery_speed": _speed(between, calibrate()),
        })
    tally.add(*wl.check(), "forked result differs from the rebuilt one")
    rss = _peak_rss_mib(wl.pids())

    metrics = {
        "items_per_s": (statistics.median(
            r["items"] / (r["batch_s"] * r["speed"]) for r in rounds), "1/s"),
        "setup_s": (statistics.median(
            r["setup_s"] * r["speed"] for r in rounds), "s"),
        "peak_rss_mib": (rss, "MiB"),
        "recovery_s": (statistics.median(
            r["recovery_s"] * r["recovery_speed"] for r in rounds), "s"),
    }
    return {"metrics": metrics, "rounds": rounds}


def trace(wl_class, seed: int, scale: float, scratch: str,
          tally: Tally) -> Dict[str, Any]:
    """The ``--trace 1`` run: per-layer metrics and tracing overhead."""
    import tracing
    from layers import layer_metrics

    plain = wl_class(seed, scale, os.path.join(scratch, "plain"))
    untraced: List[str] = []
    untraced_s = 0.0
    try:
        plain.setup()
        before = calibrate()
        for _ in range(TRACE_ROUNDS):
            untraced_s += _batch(plain, tally, untraced)[0]
        untraced_speed = _speed(before, calibrate())
    finally:
        plain.close()

    spans_dir = os.path.join(scratch, "spans")
    os.makedirs(spans_dir)
    wl = wl_class(seed, scale, os.path.join(scratch, "traced"))
    traced: List[str] = []
    traced_s = 0.0
    items = 0
    try:
        before = calibrate()
        tracing.install(spans_dir)
        try:
            start = perf_counter()
            wl.setup()
            for _ in range(TRACE_ROUNDS):
                elapsed, n = _batch(wl, tally, traced)
                _recover(wl, tally)
                traced_s += elapsed
                items += n
            wall = perf_counter() - start
        finally:
            tracing.uninstall()
        traced_speed = _speed(before, calibrate())
        spans = tracing.collect(spans_dir)
        tally.add(*wl.check(), "forked result differs from the rebuilt one")
    finally:
        wl.close()
    mismatched = sum(a != b for a, b in zip(untraced, traced))
    tally.add(TRACE_ROUNDS, mismatched, "traced digest differs from untraced")
    metrics = layer_metrics(spans, wall=wall, items=items)
    metrics.update({
        "exec.recovery.bytes_written": (wl.bytes_written, "bytes"),
        "exec.recovery.recomputed": (wl.recomputed, "count"),
        "trace.overhead": ((traced_s * traced_speed)
                           / (untraced_s * untraced_speed), "x"),
        "trace.untraced_batch_s": (untraced_s, "s"),
        "trace.traced_batch_s": (traced_s, "s"),
        "trace.wall_s": (wall, "s"),
    })
    return {"metrics": metrics, "spans": spans}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(choose from {', '.join(sorted(WORKLOADS))})")
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print("env " + json.dumps(result["env"], sort_keys=True))
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps(result["summary"]))
    return 0 if result["summary"]["correct"] else 1


def run(workload: str, seed: int, seconds: float, traced: int,
        scale: float = 1.0) -> Dict[str, Any]:
    """Run one workload; returns the summary line plus its details.

    ``scale`` shrinks every input size (the tests run at small scale).
    The full record, spans included, is written to ``.perfbench-out/``.
    """
    from workloads import WORKLOADS

    wl_class = WORKLOADS[workload]
    scratch = os.path.join(OUT, f"run-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    tally = Tally()
    wl = wl_class(seed, scale, scratch)
    try:
        if traced:
            outcome = trace(wl_class, seed, scale, scratch, tally)
        else:
            try:
                outcome = measure(wl, seconds, tally)
            finally:
                wl.close()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    summary = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome["metrics"].items()},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": traced, "scale": scale, "config": wl.config(),
        "env": environment(wl.workers), "failures": tally.failures,
        "summary": summary,
        **{k: v for k, v in outcome.items() if k != "metrics"},
    }
    path = os.path.join(
        OUT, f"{workload}-seed{seed}-trace{traced}-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return record


if __name__ == "__main__":
    sys.exit(main())
