"""The snapshot encoding: aliasing safety, hook-free restore, no fallback.

A snapshot aliases two kinds of object into every restore instead of
copying them: ``sim.share(...)``d structure and *values* (enum members
and frozen dataclasses that are immutable all the way down).  These
tests pin the consequences on the two worlds forked most in practice,
the fleet vehicle base world and the chaos campaign base world:

* two restores share no mutable object;
* specs are the identical object across restores, while a frozen
  dataclass holding a list or a mutable component is still copied;
* a restore runs no Python code besides the alias preamble (and the
  ``Enum.__hash__`` calls that rebuilding enum-keyed dicts needs);
* a world that does not pickle raises instead of silently falling back
  to a slower copy with different sharing.
"""

import dataclasses
import enum
import gc
import sys
import threading
import types
import warnings
from typing import List

import pytest

from repro.faults import FaultCampaignSpec, FaultPlan, FaultSpec
from repro.faults.campaign import build_chaos_base
from repro.fleet import FleetSpec, TAG_OLD, build_vehicle_world
from repro.fleet.shard import app_for
from repro.hw.ecu import EcuSpec
from repro.model.applications import AppModel
from repro.obs.metrics import MetricsRegistry
from repro.osal.core import Core
from repro.osal.policies import FifoPolicy
from repro.osal.task import TaskSpec
from repro.sim import Simulator, Tracer
from repro.sim import snapshot as snapshot_module
from repro.sim.snapshot import SimSnapshot, SnapshotError

CHAOS_SPEC = FaultCampaignSpec(
    plan=FaultPlan(
        name="alias",
        faults=(
            FaultSpec(kind="ecu_crash", target="platform_0", start=0.05,
                      duration=0.2),
            FaultSpec(kind="frame_drop", target="eth_backbone", start=0.02,
                      duration=0.2, probability=0.3),
        ),
    ),
    soak_time=0.3,
    settle_time=0.2,
    breaker_threshold=3,
)


def fleet_world() -> Simulator:
    spec = FleetSpec(name="alias", master_seed=1, size=4)
    return build_vehicle_world(spec.variant_table[0], app_for(spec, TAG_OLD))


def chaos_world() -> Simulator:
    sim = Simulator(metrics=MetricsRegistry())
    build_chaos_base(sim, CHAOS_SPEC)
    return sim


WORLDS = {"fleet": fleet_world, "chaos": chaos_world}


@pytest.fixture(scope="module", params=sorted(WORLDS))
def base(request):
    """(source world, its snapshot) for each base world."""
    sim = WORLDS[request.param]()
    return sim, sim.snapshot()


# -- object-graph helpers ----------------------------------------------------

_ATOMS = (type(None), bool, int, float, complex, str, bytes)
#: immutable objects a pickle round trip may legitimately share between
#: restores (interned strings, small ints, the empty tuple …)
_IMMUTABLE = _ATOMS + (tuple, frozenset, range)
#: global objects pickled by reference: shared by every restore and
#: never part of a world's state, so the walk does not enter them
_GLOBAL = (type, types.FunctionType, types.BuiltinFunctionType,
           types.ModuleType, types.CodeType, types.MethodWrapperType,
           types.WrapperDescriptorType, types.MethodDescriptorType)


def is_value(obj) -> bool:
    """Reference oracle for the snapshot's value rule."""
    if type(obj) in _ATOMS or isinstance(obj, enum.Enum):
        return True
    if type(obj) in (tuple, frozenset):
        return all(is_value(item) for item in obj)
    cls = type(obj)
    return (
        dataclasses.is_dataclass(cls)
        and cls.__dataclass_params__.frozen
        and hasattr(obj, "__dict__")
        and all(is_value(v) for v in vars(obj).values())
    )


def reachable(root, stop_ids) -> dict:
    """Every object reachable from ``root``; objects in ``stop_ids`` and
    globals are included but not entered."""
    seen = {}
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen[id(obj)] = obj
        if id(obj) in stop_ids or isinstance(obj, _GLOBAL):
            continue
        stack.extend(gc.get_referents(obj))
    return seen


def instances_of(world, cls, stop_ids) -> set:
    return {key for key, obj in reachable(world, stop_ids).items()
            if type(obj) is cls}


# -- aliasing safety -----------------------------------------------------------


class TestAliasTable:
    def test_every_entry_is_a_value_or_shared(self, base):
        sim, snap = base
        shared = {id(obj) for obj in sim._shared}
        entries = snap._table[1:]
        assert entries, "the table holds at least the shared topology"
        for entry in entries:
            assert id(entry) in shared or is_value(entry), type(entry)

    def test_values_are_found(self, base):
        _, snap = base
        kinds = [type(entry) for entry in snap._table[1:]]
        assert TaskSpec in kinds
        assert any(issubclass(kind, enum.Enum) for kind in kinds)

    def test_two_restores_share_no_mutable_object(self, base):
        _, snap = base
        table = {id(entry) for entry in snap._table}
        a, b = snap.restore(), snap.restore()
        seen_a = reachable(a, table)
        common = seen_a.keys() & reachable(b, table).keys()
        leaked = [
            type(seen_a[key]) for key in common
            if key not in table
            and not isinstance(seen_a[key], _IMMUTABLE + _GLOBAL)
        ]
        assert leaked == []

    def test_specs_are_identical_across_restores(self, base):
        sim, snap = base
        table = {id(entry) for entry in snap._table}
        a, b = snap.restore(), snap.restore()
        for cls in (TaskSpec, AppModel, EcuSpec):
            found = instances_of(a, cls, table)
            assert found, cls.__name__
            assert found == instances_of(b, cls, table)
            assert found == instances_of(sim, cls, table)


class Mode(enum.Enum):
    FAST = 1


@dataclasses.dataclass(frozen=True)
class Limits:
    name: str
    mode: Mode
    bounds: tuple


@dataclasses.dataclass(frozen=True)
class Bag:
    items: list


@dataclasses.dataclass(frozen=True)
class CoreRef:
    core: Core


@dataclasses.dataclass(frozen=True)
class Nested:
    inner: Limits
    bag: Bag


class Holder:
    """Adopted component carrying arbitrary attributes."""

    def __init__(self, **attrs) -> None:
        self.__dict__.update(attrs)


def restore_pair(**attrs):
    sim = Simulator()
    sim.adopt("holder", Holder(**attrs))
    snap = sim.snapshot()
    return snap.restore().world["holder"], snap.restore().world["holder"]


class TestValueRule:
    def test_deep_value_is_aliased(self):
        limits = Limits("l", Mode.FAST, (1, 2.5, ("x", Mode.FAST)))
        a, b = restore_pair(limits=limits, mode=Mode.FAST)
        assert a.limits is b.limits is limits
        assert a.mode is Mode.FAST

    def test_frozen_dataclass_with_list_is_copied(self):
        bag = Bag([1, 2])
        a, b = restore_pair(bag=bag)
        assert a.bag is not b.bag and a.bag is not bag
        assert a.bag.items is not b.bag.items
        assert a.bag == b.bag == bag

    def test_frozen_dataclass_holding_a_core_is_copied(self):
        sim = Simulator()
        ref = CoreRef(Core(sim, "c0", 1.0, FifoPolicy()))
        sim.adopt("ref", ref)
        snap = sim.snapshot()
        a, b = (snap.restore().world["ref"] for _ in range(2))
        assert a is not b and a.core is not b.core
        assert a.core.sim is not b.core.sim

    def test_value_holding_a_non_value_is_copied_but_its_values_alias(self):
        limits = Limits("l", Mode.FAST, ())
        nested = Nested(limits, Bag([]))
        a, b = restore_pair(nested=nested)
        assert a.nested is not b.nested
        assert a.nested.inner is b.nested.inner is limits

    def test_tuple_with_a_list_keeps_per_restore_copies(self):
        a, b = restore_pair(limits=Limits("l", Mode.FAST, ([],)))
        assert a.limits is not b.limits
        assert a.limits.bounds[0] is not b.limits.bounds[0]


# -- restore runs no Python hooks ----------------------------------------------


def profile_calls(fn) -> List[types.CodeType]:
    """Code objects of every Python frame ``fn`` enters.

    The collector stays off meanwhile: a collection would run other
    code's ``gc.callbacks`` (hypothesis installs one) inside ``fn``.
    """
    codes = []

    def hook(frame, event, arg):
        if event == "call":
            codes.append(frame.f_code)

    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return codes


class TestHookFreeRestore:
    def test_restore_enters_only_the_preamble_hook(self, base):
        sim, snap = base
        codes = profile_calls(snap.restore)
        allowed = {
            SimSnapshot.restore.__code__,
            snapshot_module._load.__code__,
            snapshot_module._Restore.persistent_load.__code__,
            enum.Enum.__hash__.__code__,
        }
        assert [c.co_name for c in codes if c not in allowed] == []
        loads = sum(c is snapshot_module._Restore.persistent_load.__code__
                    for c in codes)
        # slot 0 (the table lookup) plus one slot per shared object
        assert loads == 1 + len({id(obj) for obj in sim._shared})

    def test_restore_of_a_shipped_snapshot_is_hook_free_too(self, base):
        _, snap = base
        shipped = SimSnapshot.from_bytes(snap.to_bytes())
        codes = profile_calls(shipped.restore)
        assert {c.co_name for c in codes} <= {
            "restore", "_load", "persistent_load", "__hash__"}


# -- no fallback ---------------------------------------------------------------


class TestNoFallback:
    def test_closure_on_adopted_component_raises(self):
        cells = []
        sim = Simulator()
        # a closure deep-copies as an atom: forks would share ``cells``
        sim.adopt("holder", Holder(record=lambda x: cells.append(x)))
        with pytest.raises(SnapshotError, match=r"function '.*<lambda>'"):
            sim.snapshot()
        with pytest.raises(SnapshotError, match="does not pickle"):
            sim.fork()

    def test_unpicklable_object_names_its_type_and_the_error(self):
        sim = Simulator()
        sim.adopt("holder", Holder(guard=threading.Lock()))
        with pytest.raises(SnapshotError) as info:
            sim.snapshot()
        message = str(info.value)
        assert "lock" in message and "TypeError" in message
        assert isinstance(info.value.__cause__, TypeError)


# -- no itertools pickling -----------------------------------------------------


class TestNoItertoolsPickling:
    @pytest.mark.parametrize("name", sorted(WORLDS))
    def test_capture_and_restore_raise_no_deprecation(self, name):
        sim = WORLDS[name]()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            snap = sim.snapshot()
            world = snap.restore()
            SimSnapshot.from_bytes(snap.to_bytes()).restore()
            sim.fork()
        assert world.now == sim.now

    def test_id_sequences_are_unchanged_and_continue_after_restore(self):
        sim = Simulator(Tracer())
        assert [sim.next_session_id(), sim.next_session_id()] == [1, 2]
        assert [sim.next_frame_id(), sim.next_frame_id()] == [1, 2]
        assert [sim.next_job_id(), sim.next_job_id()] == [1, 2]
        assert [sim.queue.push(1.0, print).seq,
                sim.queue.push(2.0, print).seq] == [0, 1]
        world = sim.snapshot().restore()
        assert world.next_session_id() == sim.next_session_id() == 3
        assert world.next_frame_id() == sim.next_frame_id() == 3
        assert world.next_job_id() == sim.next_job_id() == 3
        assert world.queue.push(3.0, print).seq == 2
