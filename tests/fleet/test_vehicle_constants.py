"""Per-vehicle constants are built once and shared.

Every vehicle of a ``(spec, tag)`` runs the same frozen fault plan, and
``simulate_vehicle`` reads the core's cached instruments instead of
looking each one up in the registry.  Sharing is only safe if the shared
plan equals a freshly built one and the cached instruments are the
registry's own objects.
"""

from repro.faults import FaultInjector
from repro.fleet import FleetSpec, build_fleet_snapshots, run_fleet
from repro.fleet import shard as shard_mod
from repro.fleet.shard import TAG_NEW, TAG_OLD, simulate_vehicle, vehicle_plan

SPEC = FleetSpec(size=6, master_seed=3, soak_time=0.03,
                 regression_overrun=0.5)


class TestVehiclePlan:
    def test_plan_is_built_once_per_spec_and_tag(self):
        for tag in (TAG_OLD, TAG_NEW):
            plan = vehicle_plan(SPEC, tag)
            assert vehicle_plan(SPEC, tag) is plan
            assert plan == vehicle_plan.__wrapped__(SPEC, tag)
        assert vehicle_plan(SPEC, TAG_OLD) != vehicle_plan(SPEC, TAG_NEW)

    def test_every_vehicle_arms_the_once_built_plan(self, monkeypatch):
        armed = []

        class Recording(FaultInjector):
            def __init__(self, sim, plan, *args, **kwargs):
                armed.append(plan)
                super().__init__(sim, plan, *args, **kwargs)

        monkeypatch.setattr(shard_mod, "FaultInjector", Recording)
        run_fleet(SPEC, tag=TAG_NEW)
        assert len(armed) == SPEC.size
        fresh = vehicle_plan.__wrapped__(SPEC, TAG_NEW)
        assert all(plan is armed[0] for plan in armed)
        assert armed[0] == fresh


class _Keep:
    """A snapshot stand-in that keeps every world it restores."""

    def __init__(self, snap):
        self.snap = snap
        self.worlds = []

    def restore(self):
        sim = self.snap.restore()
        self.worlds.append(sim)
        return sim


def test_instruments_read_are_the_registry_objects():
    snapshots = {key: _Keep(snap) for key, snap in
                 build_fleet_snapshots(SPEC, tags=(TAG_OLD,)).items()}
    _variant, releases, misses, histograms, _report = simulate_vehicle(
        SPEC, 0, TAG_OLD, snapshots)
    (sim,) = [w for keep in snapshots.values() for w in keep.worlds]
    platform = sim.world["fleet_vehicle"]["platform"]
    (core,) = [c for node in platform.nodes.values() for c in node.cores]
    metrics = sim.metrics
    assert core._m_releases is metrics.counter("os.releases", core=core.name)
    assert core._m_misses is metrics.counter(
        "os.deadline_misses", core=core.name)
    assert core._m_response is metrics.histogram("os.response", core=core.name)
    assert histograms == (core._m_response,)
    assert histograms[0] is metrics.histogram("os.response", core=core.name)
    assert releases == metrics.counter("os.releases", core=core.name).value > 0
    assert misses == metrics.counter("os.deadline_misses", core=core.name).value
