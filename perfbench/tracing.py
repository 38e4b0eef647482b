"""Layer spans recorded from outside the program.

Tracing never edits ``repro``: :func:`install` wraps public functions and
methods at each layer boundary with a span, and the wrapped
``Simulator.run`` attaches a :class:`LayerProfiler` (a
:class:`~repro.obs.profiler.KernelProfiler` subclass) for the duration of
the call, so every event callback's self time is charged to the package
that owns it.  :func:`uninstall` puts the originals back.

Spans are kept in memory as ``(name, start, duration, self)`` tuples.  A
span's self time is its duration minus the time its child spans — and,
for ``sim.kernel``, the callbacks it dispatched — cover.  Executor workers
are forked after :func:`install`, so they inherit the wrappers; each
worker appends the spans of every job it ran to ``spans-<pid>.jsonl`` in
the output directory before returning the job's result, and
:func:`collect` merges those files with the parent's spans.
"""

from __future__ import annotations

import functools
import json
import os
import pickle
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.exec import CheckpointStore, ParallelExecutor
from repro.faults import FaultCampaignJob, FaultInjector
from repro.faults.campaign import ForkedFaultCampaignJob
from repro.fleet import FleetCampaign, FleetDigest, FleetShardJob
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import KernelProfiler
from repro.sim import Simulator
from repro.sim.snapshot import SimSnapshot
import repro.faults.report
import repro.fleet.shard

#: packages whose callback self time is reported on its own; the rest
#: (``sim``, ``hw``, …) is folded into ``other``
CALLBACK_PACKAGES = ("osal", "network", "middleware", "core", "faults")


def _package_of(obj: Any) -> str:
    module = getattr(obj, "__module__", "") or ""
    parts = module.split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in CALLBACK_PACKAGES:
        return parts[1]
    return "other"


class LayerProfiler(KernelProfiler):
    """Charges each callback's self time to its owner's package."""

    def __init__(self, log: "SpanLog") -> None:
        super().__init__()
        self.log = log
        #: owner type / function → package name
        self._packages: Dict[Any, str] = {}

    def account(self, callback: Callable[..., Any], elapsed: float) -> None:
        self.events += 1
        owner = getattr(callback, "__self__", None)
        key = type(owner) if owner is not None else getattr(
            callback, "func", callback)
        package = self._packages.get(key)
        if package is None:
            package = _package_of(key)
            self._packages[key] = package
        self.log.charge_callback(package, elapsed)

    def account_generator(self, process_name: str, elapsed: float) -> None:
        """Generator time is part of its callback's time; not re-counted."""


class _Frame:
    __slots__ = ("name", "start", "child", "in_callbacks")

    def __init__(self, name: str, start: float) -> None:
        self.name = name
        self.start = start
        #: time covered by child spans and dispatched callbacks
        self.child = 0.0
        #: child-span time since the last callback was charged
        self.in_callbacks = 0.0


class SpanLog:
    """In-memory span and counter store of one process."""

    def __init__(self) -> None:
        self.enabled = False
        self.pid = os.getpid()
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        self.spans: List[Tuple[str, float, float, float]] = []
        self._stack: List[_Frame] = []
        #: package → [calls, self seconds]
        self.callbacks: Dict[str, List[float]] = {}
        self.profiler = LayerProfiler(self)
        #: simulated events and items inside job spans (exact counts)
        self.job_events = 0
        self.job_items = 0
        #: named counters (bytes pickled, records written, …)
        self.counts: Dict[str, float] = {}
        self._flushed = 0

    def push(self, name: str) -> None:
        self._stack.append(_Frame(name, perf_counter()))

    def pop(self) -> float:
        end = perf_counter()
        frame = self._stack.pop()
        duration = end - frame.start
        self.spans.append(
            (frame.name, frame.start, duration, duration - frame.child))
        if self._stack:
            parent = self._stack[-1]
            parent.child += duration
            parent.in_callbacks += duration
        return duration

    def charge_callback(self, package: str, elapsed: float) -> None:
        frame = self._stack[-1]
        # spans opened inside the callback already count as the run's
        # children; only the callback's own remainder is added
        own = elapsed - frame.in_callbacks
        frame.in_callbacks = 0.0
        frame.child += own
        entry = self.callbacks.get(package)
        if entry is None:
            entry = self.callbacks[package] = [0, 0.0]
        entry[0] += 1
        entry[1] += own

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def flush_worker(self, directory: str) -> None:
        """Append this worker's new spans and its running totals."""
        line = json.dumps({
            "pid": self.pid,
            "spans": self.spans[self._flushed:],
            "callbacks": self.callbacks,
            "job_events": self.job_events,
            "job_items": self.job_items,
            "counts": self.counts,
        })
        self._flushed = len(self.spans)
        path = os.path.join(directory, f"spans-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")


LOG = SpanLog()

#: directory forked workers write their span files to, and the pid of
#: the process that called :func:`install` (both set by install)
_worker_dir: Optional[str] = None
_parent_pid = 0

#: (owner, attribute, original) of every installed wrapper
_installed: List[Tuple[Any, str, Any]] = []


def _span(name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not LOG.enabled:
            return fn(*args, **kwargs)
        LOG.push(name)
        try:
            return fn(*args, **kwargs)
        finally:
            LOG.pop()
    return wrapper


def _traced_run(fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def run(sim: Simulator, *args: Any, **kwargs: Any) -> Any:
        if not LOG.enabled or sim.profiler is not None:
            return fn(sim, *args, **kwargs)
        sim.profiler = LOG.profiler
        LOG.push("sim.kernel")
        try:
            return fn(sim, *args, **kwargs)
        finally:
            LOG.pop()
            sim.profiler = None
    return run


def _traced_job(fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def run(job: Any, ctx: Any) -> Any:
        if not LOG.enabled:
            return fn(job, ctx)
        if os.getpid() != LOG.pid:
            # a forked worker starts with a copy of the parent's log
            LOG.reset()
        events = LOG.profiler.events
        LOG.push("exec.job")
        try:
            value = fn(job, ctx)
        finally:
            LOG.pop()
        LOG.job_events += LOG.profiler.events - events
        # a fleet shard covers vehicles [start, stop); a chaos job is one
        LOG.job_items += getattr(job, "stop", 1) - getattr(job, "start", 0)
        if LOG.pid != _parent_pid:
            LOG.flush_worker(_worker_dir)
        return value
    return run


def _traced_run_jobs(fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def run_jobs(executor: ParallelExecutor, jobs, **kwargs: Any) -> Any:
        if not LOG.enabled:
            return fn(executor, jobs, **kwargs)
        context = kwargs.get("context")
        if context is not None:
            LOG.count("exec.context_bytes",
                      len(pickle.dumps(context, pickle.HIGHEST_PROTOCOL)))
            LOG.count("exec.contexts", 1)
        LOG.push("exec.run_jobs")
        try:
            report = fn(executor, jobs, **kwargs)
        finally:
            wall = LOG.pop()
        busy = sum(r.elapsed for r in report.results)
        LOG.count("exec.worker_busy_s", busy)
        LOG.count("exec.idle_s", executor.workers * wall - busy)
        for result in report.results:
            if result.ok:
                LOG.count("exec.result_bytes", len(pickle.dumps(
                    result.value, pickle.HIGHEST_PROTOCOL)))
                LOG.count("exec.results", 1)
        LOG.count("exec.retries", report.retried)
        LOG.count("exec.failed", report.failed)
        return report
    return run_jobs


def _traced_load(fn: Callable[..., Any]) -> Callable[..., Any]:
    traced = _span("exec.recovery.load", fn)

    @functools.wraps(fn)
    def load(store: CheckpointStore) -> Any:
        discarded = store.discarded  # cumulative over the store's loads
        records = traced(store)
        if LOG.enabled:
            LOG.count("exec.recovery.records_loaded", store.loaded)
            LOG.count("exec.recovery.records_discarded",
                      store.discarded - discarded)
        return records
    return load


def _traced_flush(fn: Callable[..., Any]) -> Callable[..., Any]:
    traced = _span("exec.recovery.write", fn)

    @functools.wraps(fn)
    def flush(store: CheckpointStore) -> None:
        written = store.written
        traced(store)
        if LOG.enabled:
            LOG.count("exec.recovery.records_written", store.written - written)
    return flush


def _patch(owner: Any, attribute: str, wrapper: Callable[..., Any]) -> None:
    original = owner.__dict__[attribute] if isinstance(owner, type) else (
        getattr(owner, attribute))
    _installed.append((owner, attribute, original))
    if isinstance(original, classmethod):
        setattr(owner, attribute, classmethod(wrapper(original.__func__)))
    else:
        setattr(owner, attribute, wrapper(original))


def install(worker_dir: str) -> None:
    """Wrap every traced layer boundary and start recording spans."""
    global _worker_dir, _parent_pid
    if _installed:
        raise RuntimeError("tracing is already installed")
    _worker_dir = worker_dir
    _parent_pid = os.getpid()
    span = lambda name: functools.partial(_span, name)  # noqa: E731
    _patch(Simulator, "run", _traced_run)
    _patch(SimSnapshot, "restore", span("sim.snapshot.restore"))
    _patch(SimSnapshot, "capture", span("sim.snapshot.capture"))
    _patch(FaultInjector, "__init__", span("faults.arm"))
    _patch(FaultInjector, "arm", span("faults.arm"))
    # fleet.shard imported the function by name; wrap that binding
    _patch(repro.fleet.shard, "build_resilience_report", span("faults.report"))
    _patch(repro.faults.report, "build_resilience_report",
           span("faults.report"))
    _patch(FleetDigest, "observe_vehicle", span("fleet.fold"))
    _patch(FleetDigest, "merge", span("fleet.fold"))
    _patch(MetricsRegistry, "absorb", span("obs.absorb"))
    _patch(FleetCampaign, "step", span("fleet.wave"))
    _patch(ParallelExecutor, "run_jobs", _traced_run_jobs)
    _patch(CheckpointStore, "flush", _traced_flush)
    _patch(CheckpointStore, "load", _traced_load)
    for job_class in (FleetShardJob, ForkedFaultCampaignJob, FaultCampaignJob):
        _patch(job_class, "run", _traced_job)
    LOG.reset()
    LOG.enabled = True


def uninstall() -> None:
    """Stop recording and restore every wrapped attribute."""
    global _worker_dir
    LOG.enabled = False
    while _installed:
        owner, attribute, original = _installed.pop()
        setattr(owner, attribute, original)
    _worker_dir = None


def collect(worker_dir: str) -> List[Dict[str, Any]]:
    """The parent's spans and totals, then every worker's."""
    processes = [{
        "pid": LOG.pid, "spans": list(LOG.spans),
        "callbacks": LOG.callbacks, "job_events": LOG.job_events,
        "job_items": LOG.job_items, "counts": LOG.counts,
    }]
    for name in sorted(os.listdir(worker_dir)):
        if not (name.startswith("spans-") and name.endswith(".jsonl")):
            continue
        spans: List[Any] = []
        last: Dict[str, Any] = {}
        with open(os.path.join(worker_dir, name), encoding="utf-8") as fh:
            for line in fh:
                last = json.loads(line)
                spans.extend(tuple(s) for s in last["spans"])
        last["spans"] = spans
        processes.append(last)
    return processes
