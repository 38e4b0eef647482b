"""Property tests: the compiled gate control list answers exactly like a scan.

:class:`GateControlList` compiles its entries once (per-priority open
windows, widest window per priority).  These tests hold ``state_at`` and
``next_open`` to a reference scan over the raw entries — the uncompiled
algorithm — with ``==``, not ``approx``: the gate decides which frame
leaves when, so a last-bit difference would change the event stream.
Times include exact cycle multiples and entry boundaries, where a
floating-point slip would show first.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.network import GateControlList, GateEntry


class ReferenceGcl:
    """The scan the compiled list replaces, kept as the test oracle."""

    def __init__(self, entries):
        self.entries = list(entries)
        self.cycle = sum(e.duration for e in self.entries)

    def state_at(self, time):
        offset = time % self.cycle
        for entry in self.entries:
            if offset < entry.duration:
                return entry.open_priorities, entry.duration - offset
            offset -= entry.duration
        first = self.entries[0]
        return first.open_priorities, first.duration

    def next_open(self, time, priority):
        if not any(priority in e.open_priorities for e in self.entries):
            raise ConfigurationError(f"priority {priority} never opens in GCL")
        offset = time % self.cycle
        base = time - offset
        for lap in range(2):
            cursor = 0.0
            for entry in self.entries:
                start = base + lap * self.cycle + cursor
                end = start + entry.duration
                if priority in entry.open_priorities and end > time:
                    return max(start, time)
                cursor += entry.duration
        raise AssertionError("unreachable")

    def max_window(self, priority):
        widest = 0.0
        for entry in self.entries:
            if priority in entry.open_priorities and entry.duration > widest:
                widest = entry.duration
        return widest


durations = st.one_of(
    # microsecond-grid durations make boundaries and cycle multiples
    # land on sums that round, the case a reordered sum would break
    st.integers(min_value=1, max_value=500).map(lambda us: us * 1e-6),
    st.floats(min_value=1e-7, max_value=1e-2, allow_nan=False,
              allow_infinity=False),
)
entries = st.lists(
    st.builds(
        GateEntry,
        st.frozensets(st.integers(min_value=0, max_value=7), max_size=8),
        durations,
    ),
    min_size=1,
    max_size=6,
)


def probe_times(gcl_entries, laps, fractions):
    """Cycle multiples, entry boundaries (and their float neighbours),
    plus arbitrary points inside the probed laps."""
    cycle = sum(e.duration for e in gcl_entries)
    times = []
    for lap in laps:
        base = lap * cycle
        times.append(base)
        cursor = 0.0
        for entry in gcl_entries:
            times.append(base + cursor)
            cursor += entry.duration
            times.append(base + cursor)
    for fraction in fractions:
        times.append(fraction * cycle * (max(laps) + 1))
    nudged = []
    for t in times:
        nudged.extend((t, t + 1e-12, max(0.0, t - 1e-12), t + 1e-9))
    return nudged


@settings(max_examples=300, deadline=None)
@given(
    gcl_entries=entries,
    laps=st.lists(st.integers(min_value=0, max_value=2000), min_size=1,
                  max_size=3),
    fractions=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=6),
)
def test_compiled_queries_equal_the_reference_scan(gcl_entries, laps, fractions):
    compiled = GateControlList(gcl_entries)
    reference = ReferenceGcl(gcl_entries)
    assert compiled.cycle == reference.cycle
    for priority in range(8):
        assert compiled.max_window[priority] == reference.max_window(priority)
    for time in probe_times(gcl_entries, laps, fractions):
        assert compiled.state_at(time) == reference.state_at(time)
        for priority in range(8):
            try:
                expected = reference.next_open(time, priority)
            except ConfigurationError:
                with pytest.raises(ConfigurationError, match="never opens"):
                    compiled.next_open(time, priority)
                continue
            assert compiled.next_open(time, priority) == expected


def test_never_opened_priority_raises():
    gcl = GateControlList([GateEntry(frozenset({7}), 0.0001),
                           GateEntry(frozenset(), 0.0004)])
    for priority in range(7):
        with pytest.raises(ConfigurationError, match=f"priority {priority} never opens"):
            gcl.next_open(0.00025, priority)
    assert gcl.next_open(0.00025, 7) == 0.0005


def test_entries_are_immutable():
    gcl = GateControlList.tas_split(0.001, 0.0002, (7,))
    assert isinstance(gcl.entries, tuple)
