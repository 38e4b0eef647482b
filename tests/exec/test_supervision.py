"""Worker supervision tests: heartbeats, hang detection, SIGTERM→SIGKILL
escalation, idempotent chunk re-dispatch, and bounded pool teardown.

The scenarios here are the executor-level failure shapes the recovery
layer is built on: a *dead* worker (pipe EOF), a *hung* worker (alive
but silent — SIGSTOPped, so heartbeats stop while the pipe stays open)
and a worker that ignores SIGTERM outright.
"""

import os
import pickle
import signal
import time
from contextlib import contextmanager
from time import perf_counter

import pytest

from repro.errors import ExecutionError
from repro.exec import FunctionJob, ParallelExecutor, SimJob
from repro.exec import pool as pool_mod


def echo(ctx, x):
    return x * 3


def _proc_state(pid):
    """Single-letter /proc state of ``pid`` ('T' = stopped), or ''."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return ""


def _counter_value(executor, name):
    return executor.supervisor.snapshot()["counter"][name]["value"]


@contextmanager
def fails_within(seconds):
    """Turn a blocked body into a failure after ``seconds``.

    A pool that never detects a hung worker waits on its pipe forever;
    SIGALRM interrupts that wait so the test fails instead of stalling
    the suite (forked workers do not inherit the pending alarm).
    """
    def expire(signum, frame):
        raise TimeoutError(f"still blocked after {seconds}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class StallOnceJob(SimJob):
    """SIGSTOPs its worker on the first run; completes on re-dispatch.

    A stopped process is the canonical *hung* worker: the pipe stays
    open (no EOF), the process is alive, but heartbeats stop — only the
    watchdog can tell it apart from a slow job.
    """

    def __init__(self, job_id, marker):
        self.job_id = job_id
        self.marker = marker

    def run(self, ctx):
        if not os.path.exists(self.marker):
            with open(self.marker, "w"):
                pass
            os.kill(os.getpid(), signal.SIGSTOP)
        return f"recovered:{ctx.seed}"


class ExitOnceJob(SimJob):
    """Kills its worker on the first run; completes on re-dispatch."""

    def __init__(self, job_id, marker):
        self.job_id = job_id
        self.marker = marker

    def run(self, ctx):
        if not os.path.exists(self.marker):
            with open(self.marker, "w"):
                pass
            os._exit(21)
        return f"survived:{ctx.seed}"


class AlwaysExitJob(SimJob):
    """A poison pill: kills every worker it ever lands on."""

    job_id = "poison"

    def run(self, ctx):
        os._exit(23)


class IgnoreTermSleepJob(SimJob):
    """Installs SIG_IGN for SIGTERM, then sleeps forever."""

    job_id = "ignore_term"

    def run(self, ctx):
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        time.sleep(120.0)
        return "woke"


class TestValidation:
    def test_negative_knobs_rejected(self):
        with pytest.raises(ExecutionError):
            ParallelExecutor(workers=2, max_redispatches=-1)
        with pytest.raises(ExecutionError):
            ParallelExecutor(workers=2, shutdown_grace=-0.1)
        with pytest.raises(ExecutionError):
            ParallelExecutor(workers=2, heartbeat_period=-0.1)
        with pytest.raises(ExecutionError, match="heartbeat_period"):
            ParallelExecutor(workers=2, heartbeat_period=0.0)


class TestHangDetection:
    def test_hung_worker_is_killed_and_chunk_redispatched(self, tmp_path):
        marker = str(tmp_path / "stalled")
        # 20 silent beats of 0.02 s: hung after 0.4 s without a beat
        ex = ParallelExecutor(workers=2, heartbeat_period=0.02)
        try:
            ex.warm_up()
            jobs = [FunctionJob(f"j{i}", echo, i) for i in range(8)]
            jobs.append(StallOnceJob("stall", marker))
            with fails_within(20):
                report = ex.run_jobs(jobs)
            assert report.failed == 0
            stall = report.results[-1]
            assert stall.value == f"recovered:{stall.seed}"
            assert _counter_value(ex, "pool.supervisor.hangs") >= 1
            assert _counter_value(ex, "pool.supervisor.redispatches") >= 1
            assert _counter_value(ex, "pool.supervisor.restarts") >= 1
            # SIGTERM cannot reach a stopped process — the SIGKILL
            # escalation is what reaped it
            assert _counter_value(ex, "pool.supervisor.escalations") >= 1
        finally:
            ex.close()

    def test_slow_but_beating_job_is_not_declared_hung(self):
        # hung after 20 x 0.015 = 0.3 s of silence
        ex = ParallelExecutor(
            workers=2, heartbeat_period=0.015, shutdown_grace=0.3,
        )
        try:
            ex.warm_up()
            from .test_warm_pool import SleepJob

            # sleeps twice the silence budget: a watchdog keyed on job
            # runtime would kill it; one keyed on beats must not
            report = ex.run_jobs([SleepJob("slow", 0.6)])
            assert report.failed == 0
            assert report.results[0].value == "slept"
            assert _counter_value(ex, "pool.supervisor.hangs") == 0
        finally:
            ex.close()

    def test_parent_stall_is_not_read_as_a_silent_worker(self):
        """Beats queued while the parent sits in ``on_result`` longer
        than the silence budget still count: the beating worker is not
        declared hung."""
        ex = ParallelExecutor(
            workers=2, chunk_size=1, heartbeat_period=0.02,
            shutdown_grace=0.3,
        )
        stalled = []

        def stall_once(result):
            if not stalled:
                stalled.append(result.job_id)
                time.sleep(0.8)  # twice the 0.4 s budget

        try:
            ex.warm_up()
            from .test_warm_pool import SleepJob

            jobs = [FunctionJob("quick", echo, 1), SleepJob("slow", 1.5)]
            with fails_within(20):
                report = ex.run_jobs(jobs, on_result=stall_once)
            assert report.failed == 0
            assert stalled == ["quick"]
            assert _counter_value(ex, "pool.supervisor.hangs") == 0
        finally:
            ex.close()


class TestRedispatch:
    def test_dead_worker_chunk_redispatched_idempotently(self, tmp_path):
        marker = str(tmp_path / "exited")
        ex = ParallelExecutor(workers=2, shutdown_grace=0.3)
        inline = ParallelExecutor(workers=1)
        try:
            jobs = [FunctionJob(f"j{i}", echo, i) for i in range(8)]
            reference = inline.run_jobs(
                jobs + [FunctionJob("extra", echo, 99)]
            ).values
            report = ex.run_jobs(
                jobs + [ExitOnceJob("extra", marker)]
            )
            assert report.failed == 0
            # chunk-mates of the dying job re-ran with their original
            # seeds and were recorded exactly once each
            assert report.values[:8] == reference[:8]
            assert report.results[-1].value.startswith("survived:")
            assert _counter_value(ex, "pool.supervisor.redispatches") >= 1
        finally:
            ex.close()

    def test_poison_pill_fails_after_redispatch_budget(self):
        ex = ParallelExecutor(
            workers=2, retries=0, max_redispatches=2, shutdown_grace=0.3,
        )
        try:
            report = ex.run_jobs(
                [FunctionJob(f"j{i}", echo, i) for i in range(4)]
                + [AlwaysExitJob()]
            )
            assert report.failed == 1
            poison = report.results[-1]
            assert "died" in poison.error
            assert "gave up after 2 redispatches" in poison.error
            # healthy chunk-mates still completed
            assert report.values[:4] == [0, 3, 6, 9]
        finally:
            ex.close()

    def test_redispatch_disabled_fails_immediately(self):
        ex = ParallelExecutor(
            workers=2, retries=0, max_redispatches=0, shutdown_grace=0.3,
        )
        try:
            report = ex.run_jobs([AlwaysExitJob()])
            assert report.failed == 1
            assert "died" in report.results[0].error
            assert _counter_value(ex, "pool.supervisor.redispatches") == 0
        finally:
            ex.close()


class TestBoundedTeardown:
    def test_close_escalates_past_sigterm_ignoring_worker(self):
        """A sleep-forever worker that ignores SIGTERM must not stall
        shutdown: close() is bounded by ~2x shutdown_grace and SIGKILLs
        the straggler."""
        ex = ParallelExecutor(workers=2, shutdown_grace=0.3)
        ex.warm_up()
        victim = ex._handles[0]
        payload = [(0, IgnoreTermSleepJob(), 0, 0)]
        victim.conn.send_bytes(
            pickle.dumps((None, None, payload), pickle.HIGHEST_PROTOCOL)
        )
        time.sleep(0.5)  # let the worker install SIG_IGN and sleep
        procs = [h.proc for h in ex._handles]
        start = perf_counter()
        ex.close()
        elapsed = perf_counter() - start
        assert elapsed < 5.0, f"teardown took {elapsed:.1f}s — unbounded"
        for proc in procs:
            proc.join(timeout=2.0)
            assert not proc.is_alive()
        assert _counter_value(ex, "pool.supervisor.escalations") >= 1

    def test_close_is_idempotent_and_cheap_when_empty(self):
        ex = ParallelExecutor(workers=2, shutdown_grace=0.3)
        ex.close()
        ex.close()
        assert ex._handles == []

    def test_kill_escalation_reported_by_handle(self):
        ex = ParallelExecutor(workers=2, shutdown_grace=0.2)
        ex.warm_up()
        try:
            handle = ex._handles[0]
            os.kill(handle.proc.pid, signal.SIGSTOP)
            deadline = perf_counter() + 5.0
            while _proc_state(handle.proc.pid) != "T":
                assert perf_counter() < deadline, "worker never stopped"
                time.sleep(0.01)
            # a stopped process defers SIGTERM -> kill() must escalate
            assert handle.kill(grace=0.2) is True
            assert not handle.proc.is_alive()
        finally:
            ex.close()


class TestSupervisorMetrics:
    def test_supervisor_snapshot_exposes_all_counters(self):
        ex = ParallelExecutor(workers=2)
        counters = ex.supervisor.snapshot()["counter"]
        assert set(counters) == {
            "pool.supervisor.restarts",
            "pool.supervisor.hangs",
            "pool.supervisor.redispatches",
            "pool.supervisor.escalations",
        }
        assert all(v["value"] == 0 for v in counters.values())

    def test_beats_do_not_confuse_ping(self):
        """Stale beats on the pipe are drained by ping() (warm_up after
        a busy period must still round-trip)."""
        ex = ParallelExecutor(workers=2, heartbeat_period=0.02)
        try:
            ex.warm_up()
            from .test_warm_pool import SleepJob

            ex.run_jobs([SleepJob(f"s{i}", 0.1) for i in range(2)])
            ex.warm_up()  # pings again; beats from the sleeps are stale
            assert all(h.ping() for h in ex._handles)
        finally:
            ex.close()


def test_worker_beats_only_while_busy():
    """An idle warm pool writes no beat frames (the pipe buffer of a
    long-idle pool must not fill with stale beats)."""
    ex = ParallelExecutor(workers=2, heartbeat_period=0.02)
    try:
        ex.warm_up()
        time.sleep(0.3)  # many periods of idleness
        for handle in ex._handles:
            assert not handle.conn.poll(0), "idle worker wrote to its pipe"
    finally:
        ex.close()


def test_module_frames_are_distinct():
    frames = {pool_mod._STOP, pool_mod._PING, pool_mod._PONG,
              pool_mod._BEAT, pool_mod._DIE}
    assert len(frames) == 5
