"""Property test: the single-pass mixed-criticality pick keeps the old rule.

:class:`ReferencePolicy` below is the comprehension + ``min`` selection
that :meth:`MixedCriticalityPolicy.pick` used before it became a single
loop.  Both policies see the same sequence of ready lists and instants;
after every pick they must agree on the chosen job, the quantum, the
budget server and the round-robin state.
"""

from hypothesis import given, settings, strategies as st

from repro.osal import BudgetServer, Criticality, MixedCriticalityPolicy, TaskSpec
from repro.osal.policies import _effective_priority
from repro.osal.task import Job


class ReferencePolicy(MixedCriticalityPolicy):
    def pick(self, ready, now):
        self._charge_previous(now)
        det = [j for j in ready if j.task.criticality is Criticality.DETERMINISTIC]
        if det:
            self.quantum = None
            self._last_pick_nda = False
            self._last_dispatch_time = None
            return min(
                det, key=lambda j: (_effective_priority(j), j.release_time, j.job_id)
            )
        nda = [j for j in ready if j.task.criticality is Criticality.NON_DETERMINISTIC]
        if not nda:
            self._last_pick_nda = False
            self._last_dispatch_time = None
            return None
        if self.server is not None:
            budget = self.server.available(now)
            if budget <= 1e-12:
                self._last_pick_nda = False
                self._last_dispatch_time = None
                return None
            self.quantum = min(self.nda_quantum, budget)
        else:
            self.quantum = self.nda_quantum
        choice = self._rr.pick(nda, now)
        self._last_pick_nda = choice is not None
        self._last_dispatch_time = now if choice is not None else None
        return choice


TASKS = st.builds(
    TaskSpec,
    name=st.sampled_from(["a", "b", "c"]),
    period=st.sampled_from([0.005, 0.01, 0.02, 1.0]),
    wcet=st.just(0.001),
    criticality=st.sampled_from(list(Criticality)),
    # explicit priorities share the key with periods, as in production
    priority=st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
)

#: (task, release time, job id): release times and ids repeat, so whole
#: keys tie and the first of equals must win in both policies
JOBS = st.lists(
    st.tuples(TASKS, st.sampled_from([0.0, 0.001, 0.002]),
              st.integers(min_value=1, max_value=6)),
    min_size=1, max_size=12,
)

#: one step: indices into the job pool forming the ready list, and the
#: simulated time that passes before the pick
STEPS = st.lists(
    st.tuples(
        st.lists(st.integers(min_value=0, max_value=11), max_size=8, unique=True),
        st.sampled_from([0.0, 0.0005, 0.001, 0.003, 0.012]),
    ),
    min_size=1, max_size=25,
)


def _state(policy):
    server = policy.server
    return (
        policy.quantum,
        policy._last_pick_nda,
        policy._last_dispatch_time,
        list(policy._rr._rotation),
        None if server is None else (server._budget, server._last_replenish),
    )


@given(JOBS, STEPS, st.booleans())
@settings(max_examples=300, deadline=None)
def test_single_pass_pick_matches_reference(specs, steps, with_server):
    jobs = [
        Job(task=task, release_time=release, absolute_deadline=release + 0.01,
            remaining=0.001, job_id=job_id)
        for task, release, job_id in specs
    ]

    def server():
        return BudgetServer(0.002, 0.01) if with_server else None

    ref = ReferencePolicy(server=server())
    new = MixedCriticalityPolicy(server=server())
    now = 0.0
    for indices, advance in steps:
        now += advance
        ready = [jobs[i] for i in indices if i < len(jobs)]
        assert new.pick(list(ready), now) is ref.pick(list(ready), now)
        assert _state(new) == _state(ref)
