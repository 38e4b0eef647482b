"""The event free list stays flat over a fleet vehicle soak.

Every push, whether it returns a held handle or not, draws its call from
the queue's free list, so once the pool has warmed up a longer soak
builds no more call objects than a short one.
"""

from repro.faults import FaultInjector
from repro.fleet.shard import TAG_OLD, FleetSpec, app_for, vehicle_plan
from repro.fleet.variants import VARIANT_TABLE, build_vehicle_world


class TestSoakAllocation:
    @staticmethod
    def _soak(seconds):
        spec = FleetSpec(size=1)
        base = build_vehicle_world(VARIANT_TABLE[0], app_for(spec, TAG_OLD))
        sim = base.snapshot().restore()
        platform = sim.world["fleet_vehicle"]["platform"]
        FaultInjector(sim, vehicle_plan(spec, TAG_OLD), 7,
                      platform=platform).arm()
        events = sim.metrics.counter("sim.events")
        events_before = events.value
        sim.run(until=sim.now + seconds)
        return sim.queue.stats(), events.value - events_before

    def test_fleet_vehicle_soak_allocation_is_flat(self):
        short, short_events = self._soak(0.5)
        long, long_events = self._soak(2.0)
        assert long_events > 3 * short_events
        # every call object is built while the pool warms up; after that
        # each push, pooled or handle-returning, reuses a released one
        assert short["pool_creations"] == long["pool_creations"] <= 8
        for stats, events in ((short, short_events), (long, long_events)):
            assert stats["pool_reuses"] + stats["pool_creations"] >= events
