"""Trace recording for simulations.

Every subsystem records structured trace entries through
:meth:`repro.sim.kernel.Simulator.trace`.  Traces power the runtime monitor,
the XiL harness assertions and the benchmark reports.

Long-running campaigns should bound the tracer: with ``max_entries`` set
the tracer keeps only the most recent entries in a ring buffer, and with
``spill_path`` also set, evicted entries are appended to a JSONL file
instead of being lost — so memory stays constant while the full trace
survives on disk.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional


@dataclass(frozen=True)
class TraceEntry:
    """A single timestamped observation."""

    time: float
    category: str
    fields: Dict[str, Any]

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)

    def to_json(self) -> str:
        """One-line JSON form (non-serialisable field values are stringified)."""
        return json.dumps(
            {"time": self.time, "category": self.category, "fields": self.fields},
            default=str,
            separators=(",", ":"),
        )


def entry_from_json(line: str) -> TraceEntry:
    """Parse one JSONL line back into a :class:`TraceEntry`."""
    raw = json.loads(line)
    return TraceEntry(
        time=float(raw["time"]),
        category=str(raw["category"]),
        fields=dict(raw.get("fields", {})),
    )


def read_jsonl(path: str) -> List[TraceEntry]:
    """Load every entry from a JSONL trace file."""
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                entries.append(entry_from_json(line))
    return entries


@dataclass
class Tracer:
    """Collects :class:`TraceEntry` records, optionally filtered by category.

    Attributes:
        enabled: master switch; a disabled tracer costs almost nothing.
        categories: if non-empty, only these categories are recorded.
        max_entries: if set, keep at most this many entries in memory
            (oldest evicted first — ring-buffer mode).
        spill_path: if set together with ``max_entries``, evicted entries
            are appended to this JSONL file instead of being dropped.
    """

    enabled: bool = True
    categories: Optional[set] = None
    entries: Any = field(default_factory=list)
    max_entries: Optional[int] = None
    spill_path: Optional[str] = None
    _listeners: List[Callable[[TraceEntry], None]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.max_entries is not None and self.max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {self.max_entries}")
        if self.max_entries is not None and not isinstance(self.entries, deque):
            self.entries = deque(self.entries)
        self.evicted_count = 0
        self._spill_file = None

    def __getstate__(self) -> dict:
        # Snapshot support: an open spill file handle cannot be copied or
        # pickled; the restored tracer reopens it lazily on next eviction.
        state = self.__dict__.copy()
        state["_spill_file"] = None
        return state

    def record(self, time: float, category: str, fields: Dict[str, Any]) -> None:
        """Store one entry (and notify listeners) if recording is active."""
        if not self.enabled:
            return
        if self.categories is not None and category not in self.categories:
            return
        entry = TraceEntry(time, category, fields)
        if self.max_entries is not None and len(self.entries) >= self.max_entries:
            self._evict(self.entries.popleft())
        self.entries.append(entry)
        for listener in self._listeners:
            listener(entry)

    # -- bounded mode ------------------------------------------------------

    def _evict(self, entry: TraceEntry) -> None:
        self.evicted_count += 1
        if self.spill_path is None:
            return
        if self._spill_file is None:
            self._spill_file = open(self.spill_path, "a", encoding="utf-8")
        self._spill_file.write(entry.to_json())
        self._spill_file.write("\n")

    def flush(self) -> None:
        """Flush any open spill file to disk."""
        if self._spill_file is not None:
            self._spill_file.flush()

    def close(self) -> None:
        """Flush and close the spill file (reopened on the next eviction)."""
        if self._spill_file is not None:
            self._spill_file.close()
            self._spill_file = None

    def export_jsonl(self, path: str) -> int:
        """Write the in-memory entries to ``path`` as JSONL; returns count."""
        with open(path, "w", encoding="utf-8") as fh:
            for entry in self.entries:
                fh.write(entry.to_json())
                fh.write("\n")
        return len(self.entries)

    # -- subscription ------------------------------------------------------

    def subscribe(self, listener: Callable[[TraceEntry], None]) -> None:
        """Call ``listener`` synchronously for every recorded entry."""
        self._listeners.append(listener)

    def select(self, category: str, **match: Any) -> List[TraceEntry]:
        """Return entries of ``category`` whose fields match ``match``."""
        out = []
        for entry in self.entries:
            if entry.category != category:
                continue
            if all(entry.get(k) == v for k, v in match.items()):
                out.append(entry)
        return out

    def iter_category(self, category: str) -> Iterator[TraceEntry]:
        """Iterate entries of one category in record order."""
        return (e for e in self.entries if e.category == category)

    def clear(self) -> None:
        """Drop all stored entries (listeners stay subscribed)."""
        self.entries.clear()
        self.evicted_count = 0

    def __len__(self) -> int:
        return len(self.entries)

    # -- analysis helpers ---------------------------------------------------

    def category_counts(self) -> Dict[str, int]:
        """Entry count per category."""
        counts: Dict[str, int] = {}
        for entry in self.entries:
            counts[entry.category] = counts.get(entry.category, 0) + 1
        return counts

    def field_stats(self, category: str, field_name: str) -> Dict[str, float]:
        """min/max/mean of a numeric field over one category.

        Entries lacking the field (or holding non-numeric values) are
        skipped; an all-empty selection returns an empty dict.
        """
        values = []
        for entry in self.entries:
            if entry.category != category:
                continue
            value = entry.fields.get(field_name)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                values.append(value)
        if not values:
            return {}
        return {
            "count": float(len(values)),
            "min": float(min(values)),
            "max": float(max(values)),
            "mean": float(sum(values) / len(values)),
        }

    def summary(self) -> str:
        """Human-readable one-line-per-category digest."""
        counts = self.category_counts()
        if not counts:
            return "trace: empty"
        lines = [f"trace: {len(self.entries)} entries"]
        for category in sorted(counts):
            lines.append(f"  {category}: {counts[category]}")
        return "\n".join(lines)
