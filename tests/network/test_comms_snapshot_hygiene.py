"""Snapshot hygiene of the communication fast path.

The per-route hop plans and the frame pool hold this world's bus objects
and dead frames, so a snapshot leaves both out and a restored world
rebuilds them on demand.  Gate control lists are immutable and shared
through ``sim.share``: every restore aliases the one instance instead of
unpickling a copy.  Together these keep a chaos restore from carrying
more GC-tracked objects than before the fast path existed.
"""

import gc

from repro.faults.campaign import start_chaos_workload
from repro.network import Frame
from repro.network.tsn import GatedEgressPort, TsnBus
from repro.sim import Simulator
from repro.sim.rng import RngStreams
from tests.sim.test_snapshot_alias import CHAOS_SPEC, _GLOBAL, chaos_world, reachable

#: GC-tracked objects one restore of the alias tests' chaos base world
#: carried before the comms fast path, counted by ``tracked_per_restore``
PARENT_TRACKED_PER_RESTORE = 668


def tracked_per_restore(snap) -> int:
    """GC-tracked objects a restore creates: reachable from the restored
    world, neither an alias-table entry nor a global."""
    table = {id(entry) for entry in snap._table}
    world = snap.restore()
    # collections untrack the tuples that hold only untracked objects
    # (lazily, one nesting level per pass), so the count does not depend
    # on when the collector last ran
    for _ in range(3):
        gc.collect()
    return sum(
        1 for key, obj in reachable(world, table).items()
        if key not in table and gc.is_tracked(obj)
        and not isinstance(obj, _GLOBAL)
    )


def busy_world() -> Simulator:
    """A chaos world mid-soak: hop plans built, one dead frame pooled."""
    sim = chaos_world()
    start_chaos_workload(sim, sim.world["chaos"], CHAOS_SPEC, RngStreams(3))
    sim.run(until=sim.now + 0.05)
    net = sim.world["network"]
    net._recycle_frame(Frame(src="platform_0", dst="platform_1",
                             payload_bytes=8, frame_id=sim.next_frame_id()))
    return sim


def test_restored_world_starts_with_empty_hop_plans_and_frame_pool():
    sim = busy_world()
    net = sim.world["network"]
    assert net._hop_plans and net._frame_pool
    restored = sim.snapshot().restore().world["network"]
    assert restored._hop_plans == {}
    assert restored._frame_pool == []
    # the source world keeps its own
    assert net._hop_plans and net._frame_pool


def test_restored_world_rebuilds_hop_plans_with_its_own_buses():
    world = busy_world().snapshot().restore()
    world.run(until=world.now + 0.05)
    net = world.world["network"]
    assert net._hop_plans
    own = {id(bus) for bus in net.buses.values()}
    for hop_buses, __ in net._hop_plans.values():
        assert {id(bus) for bus in hop_buses} <= own


def test_every_restore_shares_the_gate_control_list():
    sim = busy_world()
    snap = sim.snapshot()
    a, b = snap.restore(), snap.restore()
    tsn = [name for name, bus in sim.world["network"].buses.items()
           if isinstance(bus, TsnBus)]
    assert tsn
    ports = 0
    for name in tsn:
        gcl = sim.world["network"].buses[name].gcl
        for world in (a, b):
            bus = world.world["network"].buses[name]
            assert bus.gcl is gcl
            for port in bus._ports.values():
                assert isinstance(port, GatedEgressPort) and port.gcl is gcl
                ports += 1
    assert ports


def test_restore_carries_no_more_gc_tracked_objects_than_before():
    snap = chaos_world().snapshot()
    assert tracked_per_restore(snap) <= PARENT_TRACKED_PER_RESTORE
