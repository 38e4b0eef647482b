"""Fold equivalence: ``absorb``/``merge`` equal a fold through the factories.

:meth:`MetricsRegistry.absorb` and :meth:`MetricsRegistry.merge` look each
incoming instrument up under its existing normalised key.  The reference
below is the fold they replaced: every instrument is re-requested through
``counter()`` / ``gauge()`` / ``histogram(**labels)``, which normalises the
labels again.  Both must give the same ``snapshot()`` — values, signed
zeros and key order — and the same ``render()``.
"""

from hypothesis import given, settings, strategies as st

from repro.obs.metrics import MetricsRegistry

NAMES = ("net.frames", "mw.delivery_latency", "rpc.timeouts", "a", "z.q")
LABELS = (
    {},
    {"bus": "eth0"},
    {"ecu": "platform_1", "paradigm": "message"},
    {"paradigm": "message", "ecu": "platform_0"},
    {"service": 0x500},
    {"n": 3, "bus": "can0"},
)
#: one growth per name, so histograms of one key always merge
GROWTH = {"net.frames": 1.1, "mw.delivery_latency": 1.5, "rpc.timeouts": 1.1,
          "a": 2.0, "z.q": 1.1}
VALUES = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0, -1.0, 1e-9, 2.5e6)),
    st.floats(min_value=-1e12, max_value=1e12, allow_nan=False,
              allow_infinity=False),
)
OPS = st.lists(
    st.tuples(
        st.sampled_from(("counter", "gauge", "histogram")),
        st.sampled_from(NAMES),
        st.integers(min_value=0, max_value=len(LABELS) - 1),
        VALUES,
    ),
    max_size=25,
)


def build(ops, enabled=True):
    registry = MetricsRegistry(enabled=enabled)
    for kind, name, label_index, value in ops:
        labels = LABELS[label_index]
        if kind == "counter":
            registry.counter(name, **labels).inc(abs(value))
        elif kind == "gauge":
            registry.gauge(name, **labels).set(value)
        else:
            registry.histogram(name, growth=GROWTH[name], **labels).observe(value)
    return registry


def reference_fold(target, other, gauge_rule):
    """The factory-based fold: labels re-normalised per instrument."""
    for instrument in other:
        labels = dict(instrument.labels)
        if instrument.kind == "counter":
            target.counter(instrument.name, **labels).value += instrument.value
        elif instrument.kind == "gauge":
            known = any(
                mine.kind == "gauge" and mine.name == instrument.name
                and mine.labels == instrument.labels
                for mine in target
            )
            mine = target.gauge(instrument.name, **labels)
            if gauge_rule == "adopt" or not known:
                mine.value = instrument.value
            else:
                mine.value = max(mine.value, instrument.value) + 0.0
        else:
            target.histogram(
                instrument.name, growth=instrument.growth, **labels
            ).merge(instrument)


def state(registry):
    # repr keeps dict order and tells -0.0 from 0.0
    return repr(registry.snapshot()), registry.render(), len(registry)


@settings(max_examples=200, deadline=None)
@given(
    target_ops=OPS,
    shards=st.lists(OPS, min_size=1, max_size=3),
    enabled=st.booleans(),
)
def test_absorb_and_merge_equal_the_reference_fold(target_ops, shards, enabled):
    for method, rule in (("absorb", "adopt"), ("merge", "max")):
        folded = build(target_ops, enabled)
        reference = build(target_ops, enabled)
        for shard_ops in shards:
            getattr(folded, method)(build(shard_ops))
            reference_fold(reference, build(shard_ops), rule)
        assert state(folded) == state(reference), method


def test_signed_zero_gauges_fold_like_the_reference():
    for method, rule in (("absorb", "adopt"), ("merge", "max")):
        for first, second in ((0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0)):
            target = MetricsRegistry()
            target.gauge("g", bus="x").set(first)
            reference = MetricsRegistry()
            reference.gauge("g", bus="x").set(first)
            other = MetricsRegistry()
            other.gauge("g", bus="x").set(second)
            other.gauge("fresh").set(-0.0)
            getattr(target, method)(other)
            reference_fold(reference, other, rule)
            assert state(target) == state(reference)


def test_snapshot_orders_by_full_name_within_each_kind():
    registry = MetricsRegistry()
    registry.counter("b", z="1")
    registry.counter("b", a="1")
    registry.counter("a")
    registry.gauge("a")
    registry.histogram("m", bus="x")
    snap = registry.snapshot()
    assert list(snap) == ["counter", "gauge", "histogram"]
    assert list(snap["counter"]) == ["a", "b{a=1}", "b{z=1}"]
    assert [i.full_name for i in registry.instruments()] == [
        "a", "a", "b{a=1}", "b{z=1}", "m{bus=x}"]
