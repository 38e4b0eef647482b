"""Fire-and-forget events go through ``post``, so soaks stay flat.

A ``sim.schedule(...)`` whose handle nobody keeps is never released, so
the event queue can never recycle its call object: every such event
builds a new one.  Sites that drop their handle post instead.  Once the
pool has warmed up, a longer soak then builds no more call objects than
a short one.
"""

from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.network import CanBus, Frame
from repro.osal import Core, FixedPriorityPolicy, PeriodicSource, TaskSpec
from repro.sim import Simulator
from repro.sim.rng import RngStreams


def _flat(soak):
    short, short_work = soak(0.5)
    long, long_work = soak(2.0)
    assert long_work > 3 * short_work
    assert long["pool_creations"] == short["pool_creations"]
    return short, long


class TestJitteredPeriodicSoak:
    """Activation jitter and injected release jitter both delay a
    release through a posted event."""

    @staticmethod
    def _soak(seconds):
        sim = Simulator()
        core = Core(sim, "core0", 1.0, FixedPriorityPolicy())
        core.job_history_limit = 16
        draw = RngStreams(5).stream("jitter").random
        sources = [
            PeriodicSource(
                sim, core, TaskSpec(name=f"t{i}", period=period, wcet=0.001),
                activation_jitter=0.0008, jitter_draw=draw,
            )
            for i, period in enumerate((0.005, 0.007))
        ]
        plan = FaultPlan(name="release_jitter", faults=(
            FaultSpec(kind="task_jitter", target="core0", start=0.0,
                      magnitude=0.0005, probability=0.5),
        ))
        injector = FaultInjector(sim, plan, 5, cores=(core,)).arm()
        sim.run(until=seconds)
        assert injector.counts_by_action()["jitter"] > 0
        return sim.queue.stats(), sum(s.released for s in sources)

    def test_jittered_soak_allocation_is_flat(self):
        _flat(self._soak)


class TestCanSoak:
    """Every CAN frame posts its end of transmission and the interframe
    space."""

    @staticmethod
    def _soak(seconds):
        sim = Simulator()
        bus = CanBus(sim, "can0", 500e3)

        def send(can_id):
            bus.submit(Frame(src="a", dst=None, payload_bytes=8,
                             priority=can_id))
            sim.post(0.001, send, can_id)

        for can_id in (0x100, 0x200, 0x300):
            sim.post(0.0, send, can_id)
        sim.run(until=seconds)
        assert bus.frames_delivered > 0
        return sim.queue.stats(), bus.frames_delivered

    def test_can_soak_allocation_is_flat(self):
        _flat(self._soak)
