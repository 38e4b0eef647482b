"""Tests for the runtime race detector (:mod:`repro.analysis.sanitizer`)."""

from repro.analysis import KernelSanitizer
from repro.obs import MetricsRegistry
from repro.sim import RngStreams, Simulator, Tracer
from repro.sim.resources import Resource, Store


def noop():
    pass


def other_noop():
    pass


class TestLifecycle:
    def test_kernel_default_has_no_sanitizer(self):
        assert Simulator().sanitizer is None

    def test_attach_detach_restores_hooks(self):
        sim = Simulator()
        rng = RngStreams(7)
        san = KernelSanitizer(sim, rng=rng)
        san.attach()
        assert sim.sanitizer is san
        assert rng._sanitizer is san
        san.detach()
        assert sim.sanitizer is None
        assert rng._sanitizer is None

    def test_attach_is_idempotent(self):
        sim = Simulator()
        san = KernelSanitizer(sim)
        assert san.attach() is san.attach()
        san.detach()
        san.detach()
        assert sim.sanitizer is None

    def test_context_manager(self):
        sim = Simulator()
        with KernelSanitizer(sim) as san:
            assert sim.sanitizer is san
        assert sim.sanitizer is None

    def test_detach_does_not_steal_foreign_hook(self):
        sim = Simulator()
        first = KernelSanitizer(sim).attach()
        second = KernelSanitizer(sim).attach()  # replaces first
        first.detach()  # must not clear second's hook
        assert sim.sanitizer is second


class TestTiebreak:
    def test_cross_callback_tie_reported_as_info(self):
        sim = Simulator()
        with KernelSanitizer(sim) as san:
            sim.at(1.0, noop)
            sim.at(1.0, other_noop)
            sim.run()
        assert san.tie_count == 1
        assert san.race_count == 0
        report = san.reports[0]
        assert report.kind == "tiebreak"
        assert report.severity == "info"
        assert "noop" in report.detail

    def test_same_callback_peers_not_reported(self):
        sim = Simulator()
        with KernelSanitizer(sim) as san:
            sim.at(1.0, noop)
            sim.at(1.0, noop)
            sim.run()
        assert san.tie_count == 0

    def test_different_priorities_not_a_tie(self):
        sim = Simulator()
        with KernelSanitizer(sim) as san:
            sim.at(1.0, noop, priority=10)
            sim.at(1.0, other_noop, priority=100)
            sim.run()
        assert san.tie_count == 0

    def test_repeated_pair_reported_once_but_counted(self):
        sim = Simulator()
        with KernelSanitizer(sim) as san:
            for t in (1.0, 2.0, 3.0):
                sim.at(t, noop)
                sim.at(t, other_noop)
            sim.run()
        assert san.tie_count == 3
        assert len([r for r in san.reports if r.kind == "tiebreak"]) == 1

    def test_cancelled_head_not_counted(self):
        sim = Simulator()
        with KernelSanitizer(sim) as san:
            sim.at(1.0, noop)
            handle = sim.at(1.0, other_noop)
            handle.cancel()
            sim.run()
        assert san.tie_count == 0


class TestSharedMutation:
    def test_same_tick_same_op_from_two_events_is_race(self):
        sim = Simulator()
        store = Store(sim, name="mailbox")
        with KernelSanitizer(sim) as san:
            sim.at(1.0, store.put, "a")
            sim.at(1.0, store.put, "b")
            sim.run()
        assert san.race_count == 1
        assert san.race_reports[0].kind == "shared_mutation"
        assert "mailbox" in san.race_reports[0].detail

    def test_different_ticks_clean(self):
        sim = Simulator()
        store = Store(sim, name="mailbox")
        with KernelSanitizer(sim) as san:
            sim.at(1.0, store.put, "a")
            sim.at(2.0, store.put, "b")
            sim.run()
        assert san.race_count == 0

    def test_put_get_pairing_same_tick_clean(self):
        # producer/consumer handshakes at one instant are the normal
        # pattern; only same-op peers are order-sensitive
        sim = Simulator()
        store = Store(sim, name="mailbox")
        with KernelSanitizer(sim) as san:
            sim.at(1.0, store.put, "a")
            sim.at(1.0, lambda: store.get())
            sim.run()
        assert san.race_count == 0

    def test_same_event_double_mutation_clean(self):
        def burst(store):
            store.put("a")
            store.put("b")

        sim = Simulator()
        store = Store(sim, name="mailbox")
        with KernelSanitizer(sim) as san:
            sim.at(1.0, burst, store)
            sim.run()
        assert san.race_count == 0

    def test_resource_request_race_detected(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1, name="crypto")
        with KernelSanitizer(sim) as san:
            sim.at(1.0, resource.request)
            sim.at(1.0, resource.request)
            sim.run()
        assert san.race_count == 1
        assert "crypto" in san.race_reports[0].detail

    @staticmethod
    def _put_chain(how):
        """A puts, then hands off through B to C, which puts again at the
        same instant.  With ``post`` every hop is pooled, so C is
        dispatched from A's recycled call object."""
        sim = Simulator()
        store = Store(sim, name="mailbox")
        schedule = getattr(sim, how)

        def a():
            store.put("a")
            schedule(0.0, b)

        def b():
            schedule(0.0, c)

        def c():
            store.put("c")

        with KernelSanitizer(sim) as san:
            schedule(0.5, a)
            sim.run()
        return san.counts

    def test_race_through_recycled_calls_detected(self):
        assert self._put_chain("post") == {"shared_mutation": 1}

    def test_race_through_held_handles_detected(self):
        assert self._put_chain("schedule") == {"shared_mutation": 1}

    def test_detached_resource_pays_no_reports(self):
        sim = Simulator()
        store = Store(sim, name="mailbox")
        sim.at(1.0, store.put, "a")
        sim.at(1.0, store.put, "b")
        sim.run()
        assert len(store) == 2  # behaviour unchanged, nothing recorded


class TestRngStreamSharing:
    def test_two_call_sites_one_stream_is_race(self):
        sim = Simulator()
        streams = RngStreams(7)

        def site_a():
            return streams.uniform("shared", 0.0, 1.0)

        def site_b():
            return streams.uniform("shared", 0.0, 1.0)

        with KernelSanitizer(sim, rng=streams) as san:
            site_a()
            site_b()
        assert san.race_count == 1
        report = san.race_reports[0]
        assert report.kind == "rng_stream_shared"
        assert "site_a" in report.detail and "site_b" in report.detail

    def test_one_site_many_draws_clean(self):
        sim = Simulator()
        streams = RngStreams(7)

        def site():
            return streams.uniform("mine", 0.0, 1.0)

        with KernelSanitizer(sim, rng=streams) as san:
            for _ in range(10):
                site()
        assert san.race_count == 0

    def test_distinct_streams_clean(self):
        sim = Simulator()
        streams = RngStreams(7)

        def site_a():
            return streams.uniform("a", 0.0, 1.0)

        def site_b():
            return streams.uniform("b", 0.0, 1.0)

        with KernelSanitizer(sim, rng=streams) as san:
            site_a()
            site_b()
        assert san.race_count == 0

    def test_draws_unchanged_by_sanitizer(self):
        bare = RngStreams(7).uniform("x", 0.0, 1.0)
        sim = Simulator()
        streams = RngStreams(7)
        with KernelSanitizer(sim, rng=streams):
            watched = streams.uniform("x", 0.0, 1.0)
        assert bare == watched


class TestReporting:
    def test_metrics_and_trace_wired(self):
        metrics = MetricsRegistry(enabled=True)
        tracer = Tracer()
        sim = Simulator(tracer, metrics=metrics)
        store = Store(sim, name="s")
        with KernelSanitizer(sim) as san:
            sim.at(1.0, store.put, "a")
            sim.at(1.0, store.put, "b")
            sim.run()
        assert san.race_count == 1
        counter = metrics.counter("sanitizer.reports", kind="shared_mutation")
        assert counter.value == 1
        kinds = [e.fields.get("kind") for e in tracer.entries
                 if e.category == "sanitizer"]
        assert "shared_mutation" in kinds

    def test_report_bound_keeps_counts(self):
        sim = Simulator()
        streams = RngStreams(7)

        def site_a():
            return streams.uniform("hot", 0.0, 1.0)

        def site_b():
            return streams.uniform("hot", 0.0, 1.0)

        def site_c():
            return streams.uniform("hot", 0.0, 1.0)

        with KernelSanitizer(sim, rng=streams, max_reports=1) as san:
            site_a()
            site_b()
            site_c()
        assert len(san.reports) == 1  # bounded storage ...
        assert san.race_count == 2  # ... but counts keep accumulating

    def test_summary_clean_and_dirty(self):
        sim = Simulator()
        san = KernelSanitizer(sim)
        assert san.summary() == "sanitizer: clean"
        store = Store(sim, name="s")
        with san:
            sim.at(1.0, store.put, "a")
            sim.at(1.0, store.put, "b")
            sim.run()
        assert "shared_mutation=1" in san.summary()
