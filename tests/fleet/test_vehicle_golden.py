"""Byte goldens of the fleet vehicle: campaign digests and one traced soak.

A fleet vehicle is one periodic task with seeded overruns.  These digests
pin everything a change to its release/complete cycle, its fault plan or
its injector arming could move:

* the merged ``run_fleet`` digest of a 64-vehicle fleet for both rollout
  tags, forked and rebuilt (the new tag carries the always-on regression
  overrun, so response times, misses and the resilience digest all move);
* the forked digest of a boundary fleet whose deadline equals an
  overrun-stretched economy job's execution time, so some jobs finish
  one rounding step past their deadline: only the ``1e-12`` miss
  tolerance keeps them on time;
* one vehicle's trace-on ``os.release`` / ``os.done`` / ``os.preempt``
  entries together with its fault injector's timeline.

The goldens were recorded before the vehicle's per-activation path was
flattened.  Any change to which job finishes when, to a float of a
response time, to the deadline-miss tolerance or to the order of the
overrun draws shows up here.
"""

import hashlib
import json

import pytest

from repro.faults import FaultInjector
from repro.fleet import FleetSpec, build_fleet_snapshots, run_fleet
from repro.fleet.shard import (
    TAG_NEW,
    TAG_OLD,
    simulate_vehicle,
    vehicle_plan,
)
from repro.fleet.variants import variant_of
from repro.jobs import derive_item_seed
from repro.sim import Tracer

SPEC = FleetSpec(size=64, master_seed=1, regression_overrun=0.5)
#: 0.0005 s scaled wcet on the economy trim, stretched by the 0.5 overrun
BOUNDARY = FleetSpec(size=16, master_seed=1, regression_overrun=0.5,
                     deadline=0.00075)

#: sha256 of ``json.dumps(run_fleet(SPEC, tag=...).digest_json, sort_keys=True)``
FLEET_DIGESTS = {
    TAG_OLD: "507ed9e3f90eba1576fec93b7eac8e61627a40f5e63e735e4a2f9ae23d341e80",
    TAG_NEW: "74d384ef102a4f07c432e5d8b2347e5fb476729bce05ad05e219f593c01ff633",
}

BOUNDARY_SHA256 = (
    "d77f81fa6e9fb46bcd96b8ddedb66f37f5f0f4e32d962d7e8c08cebe316f4b07"
)

#: the traced vehicle: new tag, so all three overrun specs are armed; a
#: spike makes it miss deadlines
TRACED_INDEX = 0
TRACED_SHA256 = (
    "4ea12beafdcea80f2ebc624c9073d680c757d2a7191b798c186acfb5bc8603dc"
)

OS_CATEGORIES = ("os.release", "os.done", "os.preempt")


def _fleet_sha(tag, fork, spec=SPEC):
    run = run_fleet(spec, tag=tag, fork=fork)
    assert run.vehicles == spec.size
    return hashlib.sha256(
        json.dumps(run.digest_json, sort_keys=True).encode()
    ).hexdigest()


def traced_vehicle(index=TRACED_INDEX, tag=TAG_NEW):
    """The steps of ``simulate_vehicle`` with the world's tracer on.

    Returns the OS trace entries, the injector and the soaked world.
    """
    variant = variant_of(SPEC.master_seed, index, SPEC.variant_table)
    seed = derive_item_seed(SPEC.master_seed, f"{SPEC.name}:{tag}", index)
    snapshots = build_fleet_snapshots(SPEC, tags=(tag,))
    sim = snapshots[(variant.variant_id, tag)].restore()
    sim.tracer = Tracer(enabled=True, categories=set(OS_CATEGORIES))
    platform = sim.world["fleet_vehicle"]["platform"]
    injector = FaultInjector(
        sim, vehicle_plan(SPEC, tag), seed, platform=platform
    ).arm()
    sim.run(until=sim.now + SPEC.soak_time)
    return list(sim.tracer.entries), injector, sim


def traced_digest(entries, timeline):
    h = hashlib.sha256()
    for entry in entries:
        h.update(entry.to_json().encode())
        h.update(b"\n")
    for event in timeline:
        h.update(repr(event).encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("fork", [True, False], ids=["fork", "rebuild"])
@pytest.mark.parametrize("tag", [TAG_OLD, TAG_NEW])
def test_fleet_digest_matches_golden(tag, fork):
    assert _fleet_sha(tag, fork) == FLEET_DIGESTS[tag]


def test_boundary_fleet_digest_matches_golden():
    assert _fleet_sha(TAG_OLD, True, BOUNDARY) == BOUNDARY_SHA256


def test_traced_vehicle_matches_golden():
    entries, injector, _sim = traced_vehicle()
    assert traced_digest(entries, injector.timeline) == TRACED_SHA256


def test_traced_vehicle_agrees_with_simulate_vehicle():
    entries, injector, _sim = traced_vehicle()
    releases = sum(1 for e in entries if e.category == "os.release")
    done = [e for e in entries if e.category == "os.done"]
    snapshots = build_fleet_snapshots(SPEC, tags=(TAG_NEW,))
    _variant, got_releases, got_misses, _hist, report = simulate_vehicle(
        SPEC, TRACED_INDEX, TAG_NEW, snapshots
    )
    assert got_releases == releases
    assert got_misses == sum(1 for e in done if e["missed"])
    assert report.timeline_events == len(injector.timeline)
    # the always-on regression overrun fires on every release
    assert sum(
        1 for event in injector.timeline if event[3] == "overrun"
    ) >= releases
