"""Copy-on-write snapshots of a running simulation.

A snapshot captures the *complete deterministic state* of a
:class:`~repro.sim.kernel.Simulator` — clock, event heap and sequence
counters, named RNG streams, every component registered in the world
registry (network, platform, monitors, fault injectors …) plus anything
reachable from a pending event callback — as one consistent copy.

Copy-on-write boundary
----------------------

Two kinds of object are **aliased**: every fork points at the same
instance instead of a copy.

* Structure declared via :meth:`Simulator.share` (topologies, routing
  graphs, …).  The caller promises it is never mutated.
* *Values*, which are immutable by construction: enum members, and
  frozen dataclasses with a ``__dict__`` whose attributes are all atoms
  (``None``, bools, numbers, strings, bytes), values, or tuples and
  frozensets of values.  Specs such as ``TaskSpec``, ``AppModel`` and
  ``EcuSpec`` are values.  A frozen dataclass holding a list, a dict or
  a mutable component is not a value and is copied.

Everything else is copied.  Aliasing inside the copied region is
preserved (e.g. the kernel sanitizer's cached heap list stays the
*copied* queue's heap).

Mechanics
---------

A snapshot is a :mod:`pickle` blob plus an *alias table*.  Slot 0 of
the table is the table's own ``__getitem__``; the shared objects follow,
then the values in the order the capture met them.

* **Capture** is one C-speed ``dump``.  The pickler's memo is pre-seeded
  with slot 0 and the shared objects, so every reference to them is a
  plain memo lookup (``BINGET``) and their interior is never traversed.
  The C pickler calls :meth:`_Capture.reducer_override` once per distinct
  object that is neither an atom nor a built-in container (class
  instances, classes, functions).  For a value it appends the value to
  the table and returns ``(table[0], (slot,))``, so the value is written
  as a call of the memoized slot 0.
* **Restore** is one C-speed ``load`` of ``preamble + blob``.  The
  preamble is one ``BINPERSID slot; MEMOIZE; POP`` per seeded slot, so
  it rebuilds the memo the capture seeded, with the same indices, using
  :meth:`_Restore.persistent_load` — the only Python hook of a restore.
  Every value then loads as one C call of ``table.__getitem__``.

Two CPython traps shape this design.  Assigning ``Unpickler.memo`` is
broken on CPython 3.11 (the assignment writes into a memo that is then
discarded), and protocol 5 memoizes with implicit indices, so the memo
is filled only by opcodes, on the unpickler that then loads the world.
``persistent_load`` of a plain ``pickle.Unpickler`` instance is
read-only on 3.13, so the hook is a method of an ``Unpickler`` subclass.

There is no fallback: a world that does not pickle raises
:class:`SnapshotError` naming the offending object and the original
error.

Restore semantics
-----------------

Python offers no way to rewind live objects in place, so ``restore()``
does not mutate an existing world: it materializes a **new** simulator
from the snapshot's blob.  That makes a snapshot reusable — restore it
as many times as you like, each restore is an independent world — and
makes ``restore()`` and ``fork()`` the same operation at different
times.

Pool hygiene: the event queue's free list is dropped on capture
(``EventQueue.__getstate__``), so a restored world starts with an empty
pool and can never resurrect call objects the source world is still
recycling.

Worlds that cannot fork
-----------------------

Live generator processes hold suspended Python frames, which
:mod:`pickle` cannot capture.  Components that participate in snapshots
are therefore written in callback style (bound methods rescheduling
themselves); :func:`check_forkable` rejects worlds with alive generator
processes up front with a clear error naming them.  Similarly,
snapshot-reachable callbacks must be bound methods or
:func:`functools.partial` objects: a closure or lambda does not pickle,
so a world holding one raises :class:`SnapshotError`.
"""

from __future__ import annotations

import io
import pickle
from enum import Enum
from typing import TYPE_CHECKING, Any, Iterable, List, Tuple

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .kernel import Simulator

__all__ = ["SnapshotError", "check_forkable", "fork_world", "SimSnapshot"]


class SnapshotError(SimulationError):
    """The world cannot be captured in its current state."""


def check_forkable(sim: "Simulator") -> None:
    """Raise :class:`SnapshotError` if ``sim`` cannot be safely copied.

    Two conditions block a capture: the simulator is inside ``run()``
    (the world is mid-event and not at a consistent instant), or alive
    generator processes exist (suspended frames are uncopyable).
    """
    if sim._running:
        raise SnapshotError(
            "cannot snapshot/fork while run() is executing; "
            "capture between run() calls"
        )
    live: List[str] = []
    for ref in sim._procs:
        proc = ref()
        if proc is not None and proc.alive and proc.gen is not None:
            live.append(proc.name)
    if live:
        names = ", ".join(repr(n) for n in sorted(live))
        raise SnapshotError(
            f"cannot snapshot/fork a world with live generator processes "
            f"({names}); rewrite them in callback style or let them finish"
        )


_ATOMS = frozenset({type(None), bool, int, float, complex, str, bytes})


def _is_value(obj: object) -> bool:
    """True if ``obj`` is immutable all the way down, so forks may alias it."""
    cls = type(obj)
    if cls in _ATOMS or isinstance(obj, Enum):
        return True
    if cls is tuple or cls is frozenset:
        items: Iterable[object] = obj  # type: ignore[assignment]
    else:
        params = getattr(cls, "__dataclass_params__", None)
        state = getattr(obj, "__dict__", None)
        if params is None or not params.frozen or state is None:
            return False
        items = state.values()
    for item in items:
        if type(item) not in _ATOMS and not _is_value(item):
            return False
    return True


def _alias_table(entries: Iterable[object]) -> List[Any]:
    """An alias table: slot 0 is the table's own lookup, entries follow."""
    table: List[Any] = [None, *entries]
    table[0] = table.__getitem__
    return table


def _preamble(slots: int) -> bytes:
    """Opcodes that rebuild the capture's seeded memo, slot by slot."""
    return b"".join(
        pickle.BININT + i.to_bytes(4, "little")
        + pickle.BINPERSID + pickle.MEMOIZE + pickle.POP
        for i in range(slots)
    )


def _describe(obj: object) -> str:
    cls = type(obj)
    kind = f"{cls.__module__}.{cls.__qualname__}"
    name = getattr(obj, "__qualname__", None)
    return f"{kind} {name!r}" if isinstance(name, str) else kind


class _Capture(pickle.Pickler):
    """Pickler that writes values as alias-table lookups."""

    def __init__(self, buf: io.BytesIO, table: List[Any]) -> None:
        super().__init__(buf, protocol=pickle.HIGHEST_PROTOCOL)
        self.memo = {id(obj): (i, obj) for i, obj in enumerate(table)}
        self.table = table
        #: the object met last: the offender when a dump fails
        self.last: object = None

    def reducer_override(self, obj: object) -> Any:
        self.last = obj
        if isinstance(obj, Enum) or (
            getattr(type(obj), "__dataclass_params__", None) is not None
            and _is_value(obj)
        ):
            table = self.table
            table.append(obj)
            return table[0], (len(table) - 1,)
        return NotImplemented


class _Restore(pickle.Unpickler):
    """Unpickler whose preamble resolves alias-table slots."""

    table: List[Any]

    def persistent_load(self, pid: int) -> object:
        return self.table[pid]


def _capture(sim: "Simulator") -> Tuple[bytes, List[Any]]:
    """Serialize ``sim``; return ``preamble + blob`` and its alias table."""
    check_forkable(sim)
    shared = {id(obj): obj for obj in sim._shared}  # one slot per object
    table = _alias_table(shared.values())
    buf = io.BytesIO()
    pickler = _Capture(buf, table)
    try:
        pickler.dump(sim)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        raise SnapshotError(
            f"cannot snapshot/fork: {_describe(pickler.last)} does not "
            f"pickle ({type(exc).__name__}: {exc}); reachable callbacks "
            f"must be bound methods or functools.partial objects, and "
            f"immutable structure can be declared with sim.share()"
        ) from exc
    return _preamble(len(shared) + 1) + buf.getvalue(), table


def _load(blob: bytes, table: List[Any]) -> "Simulator":
    """Materialize a world from :func:`_capture` output."""
    restore = _Restore(io.BytesIO(blob))
    restore.table = table
    return restore.load()


def fork_world(sim: "Simulator") -> "Simulator":
    """Return an independent copy of ``sim`` (shared structure and values
    aliased): one capture and one restore."""
    return _load(*_capture(sim))


def _thaw(blob: bytes, entries: List[object], now: float) -> "SimSnapshot":
    return SimSnapshot(blob, _alias_table(entries), now)


class SimSnapshot:
    """A frozen, reusable copy of a simulation world.

    Obtain one via :meth:`Simulator.snapshot`.  The capture serializes
    the world **once** (shared structure and values reduced to alias
    table slots, so they are neither traversed nor copied); every
    :meth:`restore` then only pays the C-speed deserialize, so one
    snapshot fans out to any number of independent variants at a
    fraction of a rebuild.  A snapshot pickles (and :meth:`to_bytes` /
    :meth:`from_bytes` give its bytes) for shipping a warmed-up world
    once per executor worker as shared context.
    """

    __slots__ = ("_blob", "_table", "_now")

    def __init__(self, blob: bytes, table: List[Any], now: float) -> None:
        self._blob = blob
        self._table = table
        self._now = now

    @classmethod
    def capture(cls, sim: "Simulator") -> "SimSnapshot":
        """Snapshot ``sim`` (which keeps running, unaffected)."""
        blob, table = _capture(sim)
        return cls(blob, table, sim.now)

    def restore(self) -> "Simulator":
        """Materialize a new independent world at the captured instant."""
        return _load(self._blob, self._table)

    @property
    def now(self) -> float:
        """Simulated time at which the world was captured."""
        return self._now

    def __reduce__(self) -> Tuple[Any, ...]:
        # the table's entries travel by value (they cannot be aliased
        # across process boundaries); restores from the shipped copy
        # alias the receiving process's copy of them
        return _thaw, (self._blob, self._table[1:], self._now)

    def to_bytes(self) -> bytes:
        """Serialize the frozen world (for cross-process shipping)."""
        return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def from_bytes(cls, data: bytes) -> "SimSnapshot":
        """Rebuild a snapshot serialized with :meth:`to_bytes`."""
        return pickle.loads(data)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<SimSnapshot t={self._now:.6f}>"
