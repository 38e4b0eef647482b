"""Per-kind behaviour and determinism of the FaultInjector."""

import pytest

from repro.errors import ConfigurationError
from repro.faults import FaultInjector, FaultPlan, FaultSpec, redundant_ring_topology
from repro.hw import BusSpec, EcuSpec, Topology
from repro.middleware import Endpoint, Message, MessageType, ServiceRegistry
from repro.network import VehicleNetwork
from repro.osal import Core, FixedPriorityPolicy, PeriodicSource, TaskSpec
from repro.security.crypto import TrustStore
from repro.sim import Simulator


def eth_world():
    """Two ECUs on one Ethernet segment, plus endpoints."""
    topo = Topology()
    topo.add_bus(BusSpec("eth", "ethernet", 100e6))
    for name in ("e0", "e1"):
        topo.add_ecu(EcuSpec(name, ports=(("eth0", "ethernet"),)))
        topo.attach(name, "eth0", "eth")
    sim = Simulator()
    net = VehicleNetwork(sim, topo)
    registry = ServiceRegistry()
    endpoints = {n: Endpoint(sim, net, n, registry) for n in ("e0", "e1")}
    return sim, net, endpoints


def notification(src="e0", dst="e1", payload_bytes=64):
    return Message(
        service_id=0x10, method_id=1, msg_type=MessageType.NOTIFICATION,
        payload_bytes=payload_bytes, src=src, dst=dst,
    )


def core_world():
    sim = Simulator()
    core = Core(sim, "core0", 1.0, FixedPriorityPolicy())
    return sim, core


def small_platform(sim, n=2):
    from repro.core.platform import DynamicPlatform

    store = TrustStore()
    store.generate_key("oem")
    return DynamicPlatform(sim, redundant_ring_topology(n), trust_store=store)


class TestFrameFaults:
    def test_drop_window_swallows_frames(self):
        sim, net, eps = eth_world()
        got = []
        eps["e1"].on_message(0x10, MessageType.NOTIFICATION, got.append)
        plan = FaultPlan(name="drop", faults=(
            FaultSpec(kind="frame_drop", target="eth", start=0.0, duration=0.01),
        ))
        FaultInjector(sim, plan, 1, network=net).arm()
        done = eps["e0"].send(notification())
        sim.run()
        assert not done.fired
        assert got == []
        assert net.bus("eth").frames_dropped == 1
        assert net.bus("eth").frames_delivered == 0

    def test_corrupt_frames_delivered_but_discarded(self):
        sim, net, eps = eth_world()
        got = []
        eps["e1"].on_message(0x10, MessageType.NOTIFICATION, got.append)
        plan = FaultPlan(name="corrupt", faults=(
            FaultSpec(kind="frame_corrupt", target="eth", start=0.0, duration=0.01),
        ))
        FaultInjector(sim, plan, 1, network=net).arm()
        eps["e0"].send(notification())
        sim.run()
        # the bus delivered the bits, but the receiver's CRC check rejects
        assert net.bus("eth").frames_delivered == 1
        assert net.bus("eth").frames_corrupted == 1
        assert eps["e1"].frames_discarded == 1
        assert got == []

    def test_delay_window_adds_exact_latency(self):
        times = []
        for delayed in (False, True):
            sim, net, eps = eth_world()
            eps["e1"].on_message(
                0x10, MessageType.NOTIFICATION, lambda m: times.append(sim.now)
            )
            if delayed:
                plan = FaultPlan(name="delay", faults=(
                    FaultSpec(
                        kind="frame_delay", target="eth", start=0.0,
                        duration=0.01, magnitude=0.004,
                    ),
                ))
                FaultInjector(sim, plan, 1, network=net).arm()
            eps["e0"].send(notification())
            sim.run()
        baseline, faulted = times
        assert faulted == pytest.approx(baseline + 0.004)

    def test_window_close_restores_zero_overhead_path(self):
        sim, net, eps = eth_world()
        got = []
        eps["e1"].on_message(0x10, MessageType.NOTIFICATION, got.append)
        plan = FaultPlan(name="drop", faults=(
            FaultSpec(kind="frame_drop", target="eth", start=0.0, duration=0.005),
        ))
        injector = FaultInjector(sim, plan, 1, network=net).arm()
        sim.run(until=0.006)
        assert net.bus("eth")._fault_hook is None
        eps["e0"].send(notification())
        sim.run()
        assert len(got) == 1
        actions = injector.counts_by_action()
        assert actions == {"window_open": 1, "window_close": 1}

    def test_probability_gates_per_frame(self):
        sim, net, eps = eth_world()
        plan = FaultPlan(name="lossy", faults=(
            FaultSpec(
                kind="frame_drop", target="eth", start=0.0,
                duration=1.0, probability=0.5,
            ),
        ))
        FaultInjector(sim, plan, 1, network=net).arm()

        def sender():
            for _ in range(40):
                eps["e0"].send(notification())
                yield 0.001

        sim.process(sender())
        sim.run(until=0.5)
        bus = net.bus("eth")
        assert 0 < bus.frames_dropped < 40
        assert bus.frames_dropped + bus.frames_delivered == 40


class TestBusOutage:
    def test_outage_and_repair_bump_route_epoch(self):
        sim, net, eps = eth_world()
        plan = FaultPlan(name="outage", faults=(
            FaultSpec(kind="bus_outage", target="eth", start=0.01, duration=0.02),
        ))
        injector = FaultInjector(sim, plan, 1, network=net).arm()
        epoch = net.route_epoch
        sim.run(until=0.02)
        assert "eth" in net._failed_buses
        sim.run(until=0.05)
        assert "eth" not in net._failed_buses
        assert net.route_epoch == epoch + 2
        assert [e[3] for e in injector.timeline] == ["outage", "repair"]

    def test_outage_on_downed_bus_is_skipped(self):
        sim, net, eps = eth_world()
        plan = FaultPlan(name="double", faults=(
            FaultSpec(kind="bus_outage", target="eth", start=0.01),
            FaultSpec(kind="bus_outage", target="eth", start=0.02),
        ))
        injector = FaultInjector(sim, plan, 1, network=net).arm()
        sim.run(until=0.03)
        assert [e[3] for e in injector.timeline] == ["outage", "skipped"]


class TestEcuCrash:
    def test_crash_and_reboot(self):
        sim = Simulator()
        platform = small_platform(sim)
        plan = FaultPlan(name="crash", faults=(
            FaultSpec(kind="ecu_crash", target="platform_0", start=0.01, duration=0.02),
        ))
        injector = FaultInjector(sim, plan, 1, platform=platform).arm()
        sim.run(until=0.02)
        assert platform.node("platform_0").failed
        sim.run(until=0.05)
        assert not platform.node("platform_0").failed
        assert [e[3] for e in injector.events_of_kind("ecu_crash")] == [
            "crash", "reboot",
        ]

    def test_crash_on_failed_node_is_skipped(self):
        sim = Simulator()
        platform = small_platform(sim)
        plan = FaultPlan(name="crash2", faults=(
            FaultSpec(kind="ecu_crash", target="platform_0", start=0.01),
            FaultSpec(kind="ecu_crash", target="platform_0", start=0.02),
        ))
        injector = FaultInjector(sim, plan, 1, platform=platform).arm()
        sim.run(until=0.03)
        assert [e[3] for e in injector.timeline] == ["crash", "skipped"]


class TestTaskFaults:
    def test_overrun_stretches_execution(self):
        sim, core = core_world()
        task = TaskSpec(name="t", period=0.01, wcet=0.002)
        PeriodicSource(sim, core, task, horizon=0.1)
        plan = FaultPlan(name="overrun", faults=(
            FaultSpec(
                kind="task_overrun", target="core0", start=0.045,
                duration=0.02, magnitude=1.0,
            ),
        ))
        injector = FaultInjector(sim, plan, 1, cores=(core,)).arm()
        sim.run()
        hit = [j for j in core.completed_jobs if 0.045 <= j.release_time < 0.065]
        clean = [j for j in core.completed_jobs if j.release_time < 0.045]
        assert hit and clean
        assert all(j.response_time == pytest.approx(0.004) for j in hit)
        assert all(j.response_time == pytest.approx(0.002) for j in clean)
        assert core.fault_perturb is None  # window closed
        assert len(injector.events_of_kind("task_overrun")) == len(hit) + 2

    def test_jitter_delays_release_but_not_deadline(self):
        sim, core = core_world()
        task = TaskSpec(name="t", period=0.01, wcet=0.002)
        PeriodicSource(sim, core, task, horizon=0.1)
        plan = FaultPlan(name="jitter", faults=(
            FaultSpec(
                kind="task_jitter", target="core0", start=0.045,
                duration=0.02, magnitude=0.003,
            ),
        ))
        injector = FaultInjector(sim, plan, 7, cores=(core,)).arm()
        sim.run()
        hit = [j for j in core.completed_jobs if 0.045 <= j.release_time < 0.065]
        assert hit
        # start is pushed past the nominal release; the deadline stays
        # anchored at the nominal activation instant
        for job in hit:
            assert job.start_time > job.release_time
            assert job.absolute_deadline == pytest.approx(
                job.release_time + task.effective_deadline
            )
        assert injector.counts_by_action()["jitter"] == len(hit)

    def test_node_target_reaches_all_platform_cores(self):
        sim = Simulator()
        platform = small_platform(sim)
        plan = FaultPlan(name="node_overrun", faults=(
            FaultSpec(
                kind="task_overrun", target="platform_0", start=0.0,
                duration=0.01, magnitude=0.5,
            ),
        ))
        FaultInjector(sim, plan, 1, platform=platform).arm()
        sim.run(until=0.005)
        for core in platform.node("platform_0").cores:
            assert core.fault_perturb is not None
        sim.run(until=0.02)
        for core in platform.node("platform_0").cores:
            assert core.fault_perturb is None


class TestClockDrift:
    def test_drift_stretches_activation_grid(self):
        sim, core = core_world()
        task = TaskSpec(name="t", period=0.01, wcet=0.001)
        source = PeriodicSource(sim, core, task, horizon=0.3)
        plan = FaultPlan(name="drift", faults=(
            FaultSpec(
                kind="clock_drift", target="core0", start=0.1,
                duration=0.1, magnitude=0.5,
            ),
        ))
        injector = FaultInjector(sim, plan, 1, cores=(core,)).arm()
        sim.run()
        in_window = [
            j for j in source.jobs if 0.1 <= j.release_time < 0.2
        ]
        before = [j for j in source.jobs if j.release_time < 0.1]
        # a 50 % slow clock fits ~6-7 periods where 10 nominally fit
        assert len(before) == 10
        assert len(in_window) < 8
        assert core.clock_drift == 0.0  # drift cleared after the window
        assert [e[3] for e in injector.timeline] == ["drift_on", "drift_off"]


class TestArming:
    def test_unknown_targets_rejected(self):
        sim, net, _ = eth_world()
        bad_bus = FaultPlan(name="b", faults=(
            FaultSpec(kind="frame_drop", target="nosuchbus", start=0.0),
        ))
        with pytest.raises(ConfigurationError, match="unknown bus"):
            FaultInjector(sim, bad_bus, 1, network=net).arm()
        bad_core = FaultPlan(name="c", faults=(
            FaultSpec(kind="task_jitter", target="ghost", start=0.0, magnitude=0.1),
        ))
        with pytest.raises(ConfigurationError, match="unknown core"):
            FaultInjector(sim, bad_core, 1, network=net).arm()
        needs_platform = FaultPlan(name="d", faults=(
            FaultSpec(kind="ecu_crash", target="e0", start=0.0),
        ))
        with pytest.raises(ConfigurationError, match="need a platform"):
            FaultInjector(sim, needs_platform, 1, network=net).arm()

    def test_disarm_cancels_and_removes_hooks(self):
        sim, net, eps = eth_world()
        got = []
        eps["e1"].on_message(0x10, MessageType.NOTIFICATION, got.append)
        plan = FaultPlan(name="drop", faults=(
            FaultSpec(kind="frame_drop", target="eth", start=0.0, duration=1.0),
        ))
        injector = FaultInjector(sim, plan, 1, network=net).arm()
        sim.run(until=0.001)
        assert net.bus("eth")._fault_hook is not None
        injector.disarm()
        assert net.bus("eth")._fault_hook is None
        eps["e0"].send(notification())
        sim.run()
        assert len(got) == 1

    def test_arm_is_idempotent(self):
        sim, net, _ = eth_world()
        plan = FaultPlan(name="o", faults=(
            FaultSpec(kind="bus_outage", target="eth", start=0.01),
        ))
        injector = FaultInjector(sim, plan, 1, network=net)
        injector.arm().arm()
        sim.run(until=0.02)
        assert len(injector.timeline) == 1


class TestDeterminism:
    PLAN = FaultPlan(
        name="det",
        faults=(
            FaultSpec(
                kind="frame_drop", target="eth", start=0.0,
                duration=0.05, probability=0.4, count=3, period=0.06,
                jitter=0.005,
            ),
            FaultSpec(
                kind="frame_delay", target="eth", start=0.02,
                duration=0.01, magnitude=0.002,
            ),
        ),
    )

    def _run(self, seed):
        sim, net, eps = eth_world()
        injector = FaultInjector(sim, self.PLAN, seed, network=net).arm()

        def sender():
            for _ in range(100):
                eps["e0"].send(notification())
                yield 0.002

        sim.process(sender())
        sim.run(until=0.25)
        return tuple(injector.timeline)

    def test_same_plan_and_seed_give_identical_timeline(self):
        assert self._run(42) == self._run(42)

    def test_different_seed_gives_different_timeline(self):
        assert self._run(42) != self._run(43)


class TestLazyOccurrenceStream:
    """Only a jittered spec draws from ``faults.occurrence``, so the
    stream is created on first use; the armed instants are those of an
    injector that created it up front."""

    JITTERED = FaultPlan(name="jittered", faults=(
        FaultSpec(kind="task_overrun", target="core0", start=0.01,
                  duration=0.004, magnitude=0.5, count=4, period=0.02,
                  jitter=0.003),
        FaultSpec(kind="task_jitter", target="core0", start=0.0,
                  duration=0.012, magnitude=0.002),
        FaultSpec(kind="clock_drift", target="core0", start=0.03,
                  duration=0.02, magnitude=0.1, count=2, period=0.04,
                  jitter=0.005),
    ))
    #: (time, kind, target, action) of the seed-3 run, recorded on an
    #: injector that created the occurrence stream at every arm()
    TIMELINE = [
        (0.0, 'task_jitter', 'core0', 'window_open'),
        (0.005, 'task_jitter', 'core0', 'jitter'),
        (0.01, 'task_jitter', 'core0', 'jitter'),
        (0.010877046191153338, 'task_overrun', 'core0', 'window_open'),
        (0.012, 'task_jitter', 'core0', 'window_close'),
        (0.014877046191153338, 'task_overrun', 'core0', 'window_close'),
        (0.03197467488041169, 'task_overrun', 'core0', 'window_open'),
        (0.03230314536094336, 'clock_drift', 'core0', 'drift_on'),
        (0.035, 'task_overrun', 'core0', 'overrun'),
        (0.035974674880411686, 'task_overrun', 'core0', 'window_close'),
        (0.052303145360943354, 'clock_drift', 'core0', 'drift_off'),
        (0.052364404240196026, 'task_overrun', 'core0', 'window_open'),
        (0.05636440424019602, 'task_overrun', 'core0', 'window_close'),
        (0.07045769185031908, 'task_overrun', 'core0', 'window_open'),
        (0.07185764675384629, 'clock_drift', 'core0', 'drift_on'),
        (0.07445769185031909, 'task_overrun', 'core0', 'window_close'),
        (0.09185764675384629, 'clock_drift', 'core0', 'drift_off'),
    ]

    def _run(self, plan):
        sim, core = core_world()
        PeriodicSource(sim, core, TaskSpec(name="t", period=0.005,
                                           wcet=0.001), horizon=0.1)
        injector = FaultInjector(sim, plan, 3, cores=(core,)).arm()
        sim.run()
        return injector

    def test_jittered_plan_arms_the_golden_instants(self):
        injector = self._run(self.JITTERED)
        assert "faults.occurrence" in injector.rng._streams
        assert injector.timeline == self.TIMELINE

    def test_jitter_free_plan_leaves_no_occurrence_stream(self):
        plan = FaultPlan(name="steady", faults=tuple(
            FaultSpec(kind=spec.kind, target=spec.target, start=spec.start,
                      duration=spec.duration, magnitude=spec.magnitude,
                      probability=spec.probability, count=spec.count,
                      period=spec.period)
            for spec in self.JITTERED.faults
        ))
        injector = self._run(plan)
        assert injector.timeline
        assert "faults.occurrence" not in injector.rng._streams
        assert "faults.task.core0" in injector.rng._streams
