"""Trace-on equivalence: the OS dispatch path must record the same entries.

A preemptive mixed-criticality scenario runs with the tracer enabled and
the ``os.release`` / ``os.done`` / ``os.preempt`` entries are hashed.  The
golden digest was recorded on the dispatch code before the trace-off fast
path and the single-pass pick were introduced, so any change to which job
runs when, or to the fields a traced run records, shows up here.
"""

import hashlib

from repro.osal import (
    BudgetServer,
    Core,
    Criticality,
    MixedCriticalityPolicy,
    PeriodicSource,
    TaskSpec,
)
from repro.sim import Simulator, Tracer
from repro.sim.rng import RngStreams

GOLDEN_SHA256 = "e1f54bb00d1539c9363ca7803f4f901dd8ba6cd90de53a544ad9a4cfec6ef9e2"

OS_CATEGORIES = ("os.release", "os.done", "os.preempt")


def _tasks(prefix):
    nda = Criticality.NON_DETERMINISTIC
    return [
        TaskSpec(name=f"{prefix}ctl", period=0.005, wcet=0.0011, deadline=0.004),
        TaskSpec(name=f"{prefix}brake", period=0.01, wcet=0.0021, priority=1),
        TaskSpec(name=f"{prefix}fusion", period=0.02, wcet=0.0043, offset=0.0007),
        # equal period and release instants: ties fall to job id
        TaskSpec(name=f"{prefix}diag", period=0.02, wcet=0.0012),
        TaskSpec(name=f"{prefix}info", period=0.015, wcet=0.006, criticality=nda),
        TaskSpec(name=f"{prefix}ota", period=0.04, wcet=0.012, criticality=nda,
                 offset=0.0031),
    ]


def run_scenario():
    tracer = Tracer(enabled=True)
    sim = Simulator(tracer=tracer)
    streams = RngStreams(7)
    cores = [
        Core(sim, "served", 1.0,
             MixedCriticalityPolicy(server=BudgetServer(0.003, 0.01))),
        Core(sim, "background", 1.3, MixedCriticalityPolicy(server=None)),
    ]
    for core in cores:
        draw = streams.stream(f"jitter.{core.name}").random
        for task in _tasks(core.name + "."):
            PeriodicSource(sim, core, task, activation_jitter=0.0004,
                           jitter_draw=draw, horizon=0.4)
    sim.run(until=0.45)
    return [e for e in tracer.entries if e.category in OS_CATEGORIES]


def digest(entries):
    h = hashlib.sha256()
    for entry in entries:
        h.update(entry.to_json().encode())
        h.update(b"\n")
    return h.hexdigest()


def test_scenario_exercises_every_dispatch_branch():
    entries = run_scenario()
    kinds = {e.category for e in entries}
    assert kinds == set(OS_CATEGORIES)
    assert sum(1 for e in entries if e.category == "os.preempt") >= 20
    done = [e for e in entries if e.category == "os.done"]
    assert any(e["missed"] for e in done)
    assert any(e["task"].endswith("ota") for e in done)


def test_traced_os_entries_match_golden_digest():
    assert digest(run_scenario()) == GOLDEN_SHA256
