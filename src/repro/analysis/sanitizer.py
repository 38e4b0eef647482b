"""Runtime race detector for the simulation kernel.

The AST linter (:mod:`repro.analysis.lint`) catches hazards visible in
source; this sanitizer catches the ones only visible in a *running*
simulation.  It is opt-in and follows the same hook pattern as the
:class:`~repro.faults.injector.FaultInjector`: when detached, the kernel
and resource layers pay exactly one ``is None`` branch per event, and
when attached the per-event work is a couple of comparisons, so a
sanitized run stays within a few percent of an unsanitized one (gated by
``benchmarks/bench_sanitizer.py``).

Three detectors run while attached:

* **tiebreak** (info) — two live events share the same ``(time,
  priority)``; their relative order is fixed only by insertion sequence,
  not by the tuple-keyed heap ordering.  This *is* deterministic for a
  deterministic program, but it is the exact place where a refactor that
  reorders ``schedule()`` calls silently reorders the simulation, so the
  sanitizer surfaces every cross-callback tie.
* **shared_mutation** (race) — one :class:`~repro.sim.resources.Resource`
  / :class:`~repro.sim.resources.Store` / throughput server receives the
  *same* mutating operation (``put``/``request``/``release``/``submit``)
  from two different kernel events at the same instant.  The relative
  order of the two peers is pure insertion order — the discrete-event
  equivalent of a data race.
* **rng_stream_shared** (race) — one named
  :class:`~repro.sim.rng.RngStreams` stream is drawn from two distinct
  call sites.  Sharing a stream couples the consumers: adding a draw in
  one silently perturbs the other, which is precisely what named streams
  exist to prevent.

Reports flow three ways: a bounded in-memory list (:attr:`reports`),
``sanitizer.reports{kind=...}`` counters on the simulator's metrics
registry, and ``sanitizer`` trace entries through the kernel Tracer.
CI treats ``race_count`` > 0 on the seeded chaos scenario as a failure;
``tiebreak`` entries are diagnostics and never fail a run.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from ..sim.kernel import Simulator
from ..sim.rng import RngStreams

SEVERITY_INFO = "info"
SEVERITY_RACE = "race"

KIND_TIEBREAK = "tiebreak"
KIND_SHARED_MUTATION = "shared_mutation"
KIND_RNG_STREAM_SHARED = "rng_stream_shared"


@dataclass(frozen=True)
class SanitizerReport:
    """One detection, with enough context to locate the hazard."""

    kind: str
    severity: str
    time: float
    detail: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.kind} @ t={self.time:.6f}: {self.detail}"


def _callable_name(fn: Any) -> str:
    """Stable human-readable identity for an event callback."""
    while isinstance(fn, partial):
        fn = fn.func
    fn = getattr(fn, "__func__", fn)
    qualname = getattr(fn, "__qualname__", None)
    if qualname is None:  # pragma: no cover - exotic callables
        qualname = repr(fn)
    module = getattr(fn, "__module__", "") or ""
    return f"{module}.{qualname}" if module else qualname


def _unwrap(fn: Any) -> Any:
    while isinstance(fn, partial):
        fn = fn.func
    return getattr(fn, "__func__", fn)


class KernelSanitizer:
    """Opt-in determinism sanitizer for one :class:`Simulator`.

    Usage::

        san = KernelSanitizer(sim, rng=streams).attach()
        ... run the scenario ...
        san.detach()
        assert san.race_count == 0, san.summary()

    or as a context manager::

        with KernelSanitizer(sim, rng=streams) as san:
            sim.run(until=1.0)
        assert not san.race_reports

    Args:
        sim: the simulator to watch.
        rng: optional stream registry to guard against cross-site sharing.
        max_reports: bound on stored reports (counts keep accumulating
            past the bound, mirroring the bounded Tracer's philosophy).
    """

    # slotted because the kernel touches two attributes per event while
    # attached (_current_event store, _heap load); slot access keeps that
    # off the instance-dict path
    __slots__ = (
        "sim", "rng", "max_reports", "reports", "counts", "attached",
        "_current_event", "_heap", "_tie_pairs", "_mutations",
        "_stream_sites", "_metrics",
    )

    def __init__(
        self,
        sim: Simulator,
        *,
        rng: Optional[RngStreams] = None,
        max_reports: int = 256,
    ) -> None:
        self.sim = sim
        self.rng = rng
        self.max_reports = max_reports
        self.reports: List[SanitizerReport] = []
        #: total detections per kind (never truncated)
        self.counts: Dict[str, int] = {}
        self.attached = False
        #: the ScheduledCall currently executing (event identity for the
        #: shared-mutation detector); None outside any event
        self._current_event: Any = None
        #: heap list of the watched queue, cached at attach time
        #: (EventQueue._prune never rebinds it)
        self._heap: List[tuple] = sim.queue._heap
        #: (callback-name pair) -> count, so each tie pair reports once
        self._tie_pairs: Dict[Tuple[str, str], int] = {}
        #: id(resource) -> (time, event seq, op, label)
        self._mutations: Dict[int, Tuple[float, Any, str, str]] = {}
        #: stream name -> (filename, function) of its first consumer
        self._stream_sites: Dict[str, Tuple[str, str]] = {}
        self._metrics: Dict[str, Any] = {}

    # -- lifecycle -------------------------------------------------------

    def attach(self) -> "KernelSanitizer":
        """Install the kernel (and optional RNG) hooks.  Idempotent."""
        if self.attached:
            return self
        self.sim.sanitizer = self
        if self.rng is not None:
            self.rng._sanitizer = self
        self.attached = True
        return self

    def detach(self) -> None:
        """Remove every hook, restoring the zero-overhead path."""
        if not self.attached:
            return
        if self.sim.sanitizer is self:
            self.sim.sanitizer = None
        if self.rng is not None and self.rng._sanitizer is self:
            self.rng._sanitizer = None
        self.attached = False

    def __enter__(self) -> "KernelSanitizer":
        return self.attach()

    def __exit__(self, *exc_info: Any) -> None:
        self.detach()

    # -- hot hooks (called with the sanitizer attached only) -------------

    def on_tie(self, call: Any, nxt: Any) -> None:
        """Kernel hook: ``call`` is executing and ``nxt`` (the live heap
        head) shares its ``(time, priority)``.  The kernel screens for
        this inline, so the sanitizer is only entered on candidate ties.
        """
        if nxt.cancelled:
            nxt = self.sim.queue.peek_call()
            if nxt is None or nxt.time != call.time \
                    or nxt.priority != call.priority:
                return
        if _unwrap(nxt.callback) is _unwrap(call.callback):
            # peers of the same logic (N process wakeups, N frame
            # deliveries) — ordering between them is the component's own
            # sequencing, not a cross-component tie
            return
        first = _callable_name(call.callback)
        second = _callable_name(nxt.callback)
        pair = (first, second) if first <= second else (second, first)
        seen = self._tie_pairs.get(pair, 0)
        self._tie_pairs[pair] = seen + 1
        if seen == 0:
            self._record(
                KIND_TIEBREAK, SEVERITY_INFO,
                f"events {pair[0]} and {pair[1]} tie at (t={call.time:.6f}, "
                f"priority={call.priority}); order rests on insertion "
                "sequence alone",
            )
        else:
            self._count(KIND_TIEBREAK)

    def note_mutation(self, obj: Any, op: str, label: str) -> None:
        """Resource hook: ``op`` applied to ``obj`` by the current event."""
        key = id(obj)
        now = self.sim.now
        current = self._current_event
        # events are told apart by their sequence number, not by object
        # identity: the queue recycles call objects, so two events at
        # one instant may well be dispatched from the same object
        event = None if current is None else current.seq
        previous = self._mutations.get(key)
        self._mutations[key] = (now, event, op, label)
        if previous is None:
            return
        prev_time, prev_event, prev_op, _prev_label = previous
        if prev_time == now and prev_event != event \
                and prev_op == op:
            name = label or type(obj).__name__
            self._record(
                KIND_SHARED_MUTATION, SEVERITY_RACE,
                f"{type(obj).__name__} {name!r} received {op!r} from two "
                f"different events at t={now:.6f}; their order is pure "
                "insertion order",
            )

    def note_stream(self, name: str) -> None:
        """RNG hook: stream ``name`` fetched by the calling frame."""
        frame = sys._getframe(2)  # skip note_stream and RngStreams.stream
        rng_file = sys.modules[RngStreams.__module__].__file__
        while frame is not None and frame.f_code.co_filename == rng_file:
            frame = frame.f_back
        if frame is None:  # pragma: no cover - defensive
            return
        site = (frame.f_code.co_filename, frame.f_code.co_name)
        known = self._stream_sites.get(name)
        if known is None:
            self._stream_sites[name] = site
        elif known != site:
            self._record(
                KIND_RNG_STREAM_SHARED, SEVERITY_RACE,
                f"rng stream {name!r} drawn from {known[1]} "
                f"({known[0]}) and {site[1]} ({site[0]}); shared streams "
                "couple their consumers' draws",
            )
            # report each extra site once
            self._stream_sites[name] = site

    # -- reporting -------------------------------------------------------

    def _count(self, kind: str) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1
        metric = self._metrics.get(kind)
        if metric is None:
            metric = self.sim.metrics.counter("sanitizer.reports", kind=kind)
            self._metrics[kind] = metric
        metric.inc()

    def _record(self, kind: str, severity: str, detail: str) -> None:
        self._count(kind)
        report = SanitizerReport(kind, severity, self.sim.now, detail)
        if len(self.reports) < self.max_reports:
            self.reports.append(report)
        self.sim.trace("sanitizer", kind=kind, severity=severity,
                       detail=detail)

    @property
    def race_reports(self) -> List[SanitizerReport]:
        """Stored reports of race severity (excludes info diagnostics)."""
        return [r for r in self.reports if r.severity == SEVERITY_RACE]

    @property
    def race_count(self) -> int:
        """Total race detections (counts survive the report bound)."""
        return sum(
            count for kind, count in self.counts.items()
            if kind != KIND_TIEBREAK
        )

    @property
    def tie_count(self) -> int:
        return self.counts.get(KIND_TIEBREAK, 0)

    def summary(self) -> str:
        """Human-readable digest of everything detected."""
        if not self.counts:
            return "sanitizer: clean"
        parts = [
            f"{kind}={count}" for kind, count in sorted(self.counts.items())
        ]
        lines = [f"sanitizer: {', '.join(parts)}"]
        for report in self.reports[:20]:
            lines.append(f"  {report}")
        if len(self.reports) > 20:
            lines.append(f"  ... {len(self.reports) - 20} more stored")
        return "\n".join(lines)
