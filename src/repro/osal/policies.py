"""Scheduling policies for :class:`repro.osal.core.Core`.

The paper's CPU-interference argument (Section 3.1) rests on the
difference between these policy classes:

* **RTOS policies** (:class:`FixedPriorityPolicy`, :class:`EdfPolicy`,
  and the table-driven scheduler in :mod:`repro.osal.timetable`) can
  guarantee deterministic applications their activation windows;
* **general-purpose policies** (:class:`FairSharePolicy`) cannot — they
  share the core equally, so a deterministic task's response time grows
  with the number of co-resident tasks;
* the **mixed policy** (:class:`MixedCriticalityPolicy`) is the dynamic
  platform's answer: deterministic tasks run at fixed priority, while
  non-deterministic tasks are confined to a budget server (design
  decision D1 in DESIGN.md) so they can neither starve the deterministic
  tasks nor be starved entirely.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import ConfigurationError
from .core import SchedulingPolicy
from .task import Criticality, Job


# module-level aliases: an Enum member lookup through its class costs
# about ten times a global load, and pick() tests every ready job
_DETERMINISTIC = Criticality.DETERMINISTIC
_NON_DETERMINISTIC = Criticality.NON_DETERMINISTIC


def _effective_priority(job: Job) -> float:
    """Explicit priority if set, else rate-monotonic (shorter period wins)."""
    if job.task.priority is not None:
        return float(job.task.priority)
    return job.task.period


class FixedPriorityPolicy(SchedulingPolicy):
    """Preemptive fixed-priority scheduling (rate-monotonic by default)."""

    preemptive = True
    quantum = None

    def pick(self, ready: List[Job], now: float) -> Optional[Job]:
        if not ready:
            return None
        return min(ready, key=lambda j: (_effective_priority(j), j.release_time, j.job_id))


class EdfPolicy(SchedulingPolicy):
    """Preemptive earliest-deadline-first scheduling."""

    preemptive = True
    quantum = None

    def pick(self, ready: List[Job], now: float) -> Optional[Job]:
        if not ready:
            return None
        return min(ready, key=lambda j: (j.absolute_deadline, j.release_time, j.job_id))


class FifoPolicy(SchedulingPolicy):
    """Non-preemptive run-to-completion in arrival order (bare-metal loop)."""

    preemptive = False
    quantum = None

    def pick(self, ready: List[Job], now: float) -> Optional[Job]:
        if not ready:
            return None
        return min(ready, key=lambda j: (j.release_time, j.job_id))


class FairSharePolicy(SchedulingPolicy):
    """Round-robin time slicing, blind to deadlines and criticality.

    Models a general-purpose OS scheduler: every runnable job gets an equal
    share of the core via a fixed quantum.  Deterministic tasks receive no
    preferential treatment — which is exactly why the paper says only
    non-deterministic applications may run on such an OS.
    """

    preemptive = False  # rotation happens at quantum boundaries only

    def __init__(self, quantum: float = 0.001) -> None:
        if quantum <= 0:
            raise ConfigurationError("quantum must be positive")
        self.quantum = quantum
        self._rotation: List[int] = []  # job ids in round-robin order

    def pick(self, ready: List[Job], now: float) -> Optional[Job]:
        if not ready:
            return None
        known = {j.job_id for j in ready}
        self._rotation = [jid for jid in self._rotation if jid in known]
        for job in sorted(ready, key=lambda j: (j.release_time, j.job_id)):
            if job.job_id not in self._rotation:
                self._rotation.append(job.job_id)
        head = self._rotation[0]
        for job in ready:
            if job.job_id == head:
                return job
        return None  # pragma: no cover - rotation always matches ready

    def on_quantum_expired(self, job: Job, ready: List[Job]) -> None:
        if self._rotation and self._rotation[0] == job.job_id:
            self._rotation.append(self._rotation.pop(0))


class BudgetServer:
    """A deferrable-server budget: ``capacity`` seconds per ``period``.

    Non-deterministic jobs consume the budget while they execute; the
    budget replenishes to full at every period boundary.  This caps NDA
    interference on the core while guaranteeing NDAs a minimum share.
    """

    def __init__(self, capacity: float, period: float) -> None:
        if capacity <= 0 or period <= 0 or capacity > period:
            raise ConfigurationError(
                f"invalid budget server: capacity={capacity}, period={period}"
            )
        self.capacity = capacity
        self.period = period
        self._budget = capacity
        self._last_replenish = 0.0

    def refresh(self, now: float) -> None:
        """Apply any replenishments due by ``now``."""
        if now - self._last_replenish >= self.period:
            periods = int((now - self._last_replenish) / self.period)
            self._last_replenish += periods * self.period
            self._budget = self.capacity

    def available(self, now: float) -> float:
        self.refresh(now)
        return self._budget

    def consume(self, amount: float, now: float) -> None:
        self.refresh(now)
        self._budget = max(0.0, self._budget - amount)

    def next_replenish(self, now: float) -> float:
        self.refresh(now)
        return self._last_replenish + self.period

    @property
    def utilization(self) -> float:
        return self.capacity / self.period


class MixedCriticalityPolicy(SchedulingPolicy):
    """Deterministic tasks at fixed priority; NDAs inside a budget server.

    Selection rule:

    1. any ready deterministic job (rate-monotonic among themselves) wins;
    2. otherwise a non-deterministic job runs round-robin **iff** the
       budget server has budget left; its execution time is charged to
       the budget by the slicing machinery (quantum = min(policy quantum,
       remaining budget), checked at each dispatch).

    With ``server=None``, NDAs run in background (pure idle-time) mode:
    full deterministic protection, but NDAs may starve.
    """

    preemptive = True

    def __init__(
        self,
        server: Optional[BudgetServer] = None,
        nda_quantum: float = 0.001,
    ) -> None:
        self.server = server
        self.nda_quantum = nda_quantum
        self.quantum: Optional[float] = None  # set per dispatch
        self._rr = FairSharePolicy(quantum=nda_quantum)
        self._last_pick_nda = False
        self._last_dispatch_time: Optional[float] = None

    def pick(self, ready: List[Job], now: float) -> Optional[Job]:
        self._charge_previous(now)
        # one pass: the best deterministic job under the key
        # (_effective_priority, release_time, job_id), inlined; the first
        # of equal keys wins, as with ``min``.  The NDA list is built
        # only once an NDA turns up.
        best = None
        best_key = None
        nda = None
        for job in ready:
            task = job.task
            criticality = task.criticality
            if criticality is _DETERMINISTIC:
                priority = task.priority
                key = (
                    task.period if priority is None else float(priority),
                    job.release_time,
                    job.job_id,
                )
                if best is None or key < best_key:
                    best = job
                    best_key = key
            elif criticality is _NON_DETERMINISTIC:
                if nda is None:
                    nda = [job]
                else:
                    nda.append(job)
        if best is not None:
            self.quantum = None
            return best
        if nda is None:
            return None
        if self.server is not None:
            budget = self.server.available(now)
            if budget <= 1e-12:
                return None
            self.quantum = min(self.nda_quantum, budget)
        else:
            self.quantum = self.nda_quantum
        choice = self._rr.pick(nda, now)
        self._last_pick_nda = choice is not None
        self._last_dispatch_time = now if choice is not None else None
        return choice

    def _charge_previous(self, now: float) -> None:
        """Charge the budget for the NDA execution since the last dispatch."""
        if (
            self.server is not None
            and self._last_pick_nda
            and self._last_dispatch_time is not None
        ):
            elapsed = now - self._last_dispatch_time
            if elapsed > 0:
                self.server.consume(elapsed, now)
        self._last_dispatch_time = None
        self._last_pick_nda = False

    def on_quantum_expired(self, job: Job, ready: List[Job]) -> None:
        self._rr.on_quantum_expired(job, ready)

    def next_wakeup(self, now: float) -> Optional[float]:
        if self.server is None:
            return None
        if self.server.available(now) > 1e-12:
            return None
        return self.server.next_replenish(now)
