"""Trace-on equivalence: the RPC round trip on the TSN ring must record
the same communication entries, on the rebuild and the fork path.

One seeded chaos replication runs with the tracer enabled.  Its
``net.delivery`` and ``mw.delivery`` entries, each bus's per-port gate
deferrals and the drop/corrupt/delay counters are hashed.  The golden
digest was recorded on the communication path before the single gate
pass, the per-route hop plans and the trace guard were introduced, so a
change to which frame leaves when, to the fields a traced run records,
or to how often a gate holds a frame back shows up here.
"""

import hashlib
import json

from repro.faults import FaultCampaignSpec, FaultPlan, FaultSpec
from repro.faults.campaign import build_chaos_base, start_chaos_workload
from repro.network.tsn import GatedEgressPort
from repro.obs.metrics import MetricsRegistry
from repro.sim import Simulator, Tracer
from repro.sim.rng import RngStreams

GOLDEN_SHA256 = "9e44bbecc5f6c7456f166617ad39c491f428f7f1195a22d22f993cc35f269437"

COMMS_CATEGORIES = ("net.delivery", "mw.delivery")

SEED = 20171

SPEC = FaultCampaignSpec(
    plan=FaultPlan(
        name="comms_golden",
        faults=(
            FaultSpec(kind="ecu_crash", target="platform_0", start=0.08,
                      duration=0.12),
            FaultSpec(kind="bus_outage", target="eth_backbone", start=0.03,
                      duration=0.05),
            FaultSpec(kind="frame_drop", target="eth_ring", start=0.02,
                      duration=0.06, probability=0.4),
            FaultSpec(kind="frame_corrupt", target="eth_backbone", start=0.12,
                      duration=0.05, probability=0.3),
            FaultSpec(kind="frame_delay", target="eth_backbone", start=0.20,
                      duration=0.05, probability=0.5, magnitude=0.0007),
        ),
    ),
    soak_time=0.3,
    settle_time=0.05,
    breaker_threshold=3,
    # a request issued right after a response lands 0.33 us before the
    # PCP 7 window closes, so the guard band defers it on either bus
    rpc_period=0.010499,
)


def _base_world() -> Simulator:
    sim = Simulator(tracer=Tracer(enabled=True), metrics=MetricsRegistry())
    build_chaos_base(sim, SPEC)
    return sim


def _soak(sim: Simulator) -> Simulator:
    start_chaos_workload(sim, sim.world["chaos"], SPEC, RngStreams(SEED))
    sim.run(until=sim.now + SPEC.soak_time)
    return sim


def run_rebuilt() -> Simulator:
    return _soak(_base_world())


def run_forked() -> Simulator:
    return _soak(_base_world().snapshot().restore())


def digest(sim: Simulator) -> str:
    h = hashlib.sha256()
    for entry in sim.tracer.entries:
        if entry.category in COMMS_CATEGORIES:
            h.update(entry.to_json().encode())
            h.update(b"\n")
    network = sim.world["network"]
    counters = {}
    for name, bus in sorted(network.buses.items()):
        counters[name] = {
            "gate_deferrals": {
                dst: port.gate_deferrals
                for dst, port in sorted(bus._ports.items())
                if isinstance(port, GatedEgressPort)
            },
            "frames_dropped": bus.frames_dropped,
            "frames_corrupted": bus.frames_corrupted,
            "frames_delayed": bus.frames_delayed,
        }
    h.update(json.dumps(counters, sort_keys=True).encode())
    return h.hexdigest()


def test_scenario_exercises_every_comms_branch():
    sim = run_rebuilt()
    kinds = {e.category for e in sim.tracer.entries}
    assert set(COMMS_CATEGORIES) <= kinds
    buses = sim.world["network"].buses.values()
    assert sum(b.frames_dropped for b in buses) > 0
    assert sum(b.frames_corrupted for b in buses) > 0
    assert sum(b.frames_delayed for b in buses) > 0
    assert sum(b.total_gate_deferrals() for b in buses) > 0


def test_rebuilt_comms_entries_match_golden_digest():
    assert digest(run_rebuilt()) == GOLDEN_SHA256


def test_forked_comms_entries_match_golden_digest():
    assert digest(run_forked()) == GOLDEN_SHA256
