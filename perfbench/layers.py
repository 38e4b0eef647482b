"""Per-layer metrics computed from the spans of a traced run.

Self times are summed over every process that recorded spans (the
benchmark process and, for ``fleet_durable``, each pool worker).  A
share is a self time over ``wall × processes``, so the shares of one run
add up to 100 % together with ``trace.unspanned.share``, the time no
span covered (benchmark code, idle workers).
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Any, Dict, List, Tuple

from tracing import CALLBACK_PACKAGES

#: spans reported with ``.calls`` and ``.share``
_SPANS = (
    "sim.snapshot.restore", "sim.snapshot.capture", "faults.arm",
    "faults.report", "fleet.fold", "obs.absorb", "fleet.wave",
    "exec.run_jobs", "exec.job", "exec.recovery.write", "exec.recovery.load",
)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(processes: List[Dict[str, Any]], *, wall: float,
                  items: int) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric as ``name → (value, unit)``.

    ``processes`` is what :func:`tracing.collect` returns.
    """
    durations: Dict[str, List[float]] = defaultdict(list)
    self_s: Dict[str, float] = defaultdict(float)
    callbacks: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
    counts: Dict[str, float] = defaultdict(float)
    job_events = job_items = 0
    for process in processes:
        for name, _start, duration, own in process["spans"]:
            durations[name].append(duration)
            self_s[name] += own
        for package, (calls, seconds) in process["callbacks"].items():
            callbacks[package][0] += calls
            callbacks[package][1] += seconds
        for name, value in process["counts"].items():
            counts[name] += value
        job_events += process["job_events"]
        job_items += process["job_items"]
    capacity = wall * len(processes)

    def share(seconds: float) -> Tuple[float, str]:
        return 100.0 * seconds / capacity, "%"

    out: Dict[str, Tuple[float, str]] = {}
    for span in _SPANS:
        out[f"{span}.calls"] = (len(durations[span]), "count")
        out[f"{span}.share"] = share(self_s[span])
    restores = [d * 1e3 for d in durations["sim.snapshot.restore"]]
    out["sim.snapshot.restore_ms.p50"] = (percentile(restores, 0.5), "ms")
    out["sim.snapshot.restore_ms.p99"] = (percentile(restores, 0.99), "ms")
    out["sim.snapshot.restore.self_s"] = (self_s["sim.snapshot.restore"], "s")
    captures = [d * 1e3 for d in durations["sim.snapshot.capture"]]
    out["sim.snapshot.capture_ms.p50"] = (percentile(captures, 0.5), "ms")
    out["sim.snapshot.capture.self_s"] = (self_s["sim.snapshot.capture"], "s")
    out["sim.kernel.dispatch_s"] = (self_s["sim.kernel"], "s")
    out["sim.kernel.dispatch.share"] = share(self_s["sim.kernel"])
    out["sim.kernel.events_per_item"] = (
        job_events / job_items if job_items else 0.0, "count")
    for package in (*CALLBACK_PACKAGES, "other"):
        calls, seconds = callbacks[package]
        out[f"{package}.callback_s"] = (seconds, "s")
        out[f"{package}.callback.calls"] = (calls, "count")
        out[f"{package}.callback.share"] = share(seconds)
    for prefix in ("faults.arm", "faults.report", "fleet.fold", "obs.absorb"):
        out[f"{prefix}_ms"] = (self_s[prefix] * 1e3, "ms")
    out["fleet.wave_s.p50"] = (percentile(durations["fleet.wave"], 0.5), "s")
    out["exec.run_jobs_s"] = (sum(durations["exec.run_jobs"]), "s")
    out["exec.run_jobs.self_s"] = (self_s["exec.run_jobs"], "s")
    out["exec.job.self_s"] = (self_s["exec.job"], "s")
    out["exec.worker_busy_s"] = (counts["exec.worker_busy_s"], "s")
    out["exec.idle_s"] = (counts["exec.idle_s"], "s")
    contexts = counts["exec.contexts"]
    out["exec.context_bytes"] = (
        counts["exec.context_bytes"] / contexts if contexts else 0.0, "bytes")
    results = counts["exec.results"]
    out["exec.result_bytes_per_shard"] = (
        counts["exec.result_bytes"] / results if results else 0.0, "bytes")
    out["exec.retries"] = (counts["exec.retries"], "count")
    out["exec.failed"] = (counts["exec.failed"], "count")
    out["exec.recovery.write_s"] = (self_s["exec.recovery.write"], "s")
    out["exec.recovery.records_written"] = (
        counts["exec.recovery.records_written"], "count")
    out["exec.recovery.load_s"] = (self_s["exec.recovery.load"], "s")
    out["exec.recovery.records_loaded"] = (
        counts["exec.recovery.records_loaded"], "count")
    out["exec.recovery.records_discarded"] = (
        counts["exec.recovery.records_discarded"], "count")
    spanned = sum(self_s.values()) + sum(s for _, s in callbacks.values())
    out["trace.unspanned.share"] = share(capacity - spanned)
    out["trace.processes"] = (len(processes), "count")
    out["trace.items"] = (items, "count")
    return out
