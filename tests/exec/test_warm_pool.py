"""Warm-pool architecture tests: persistence, cost-model chunking,
surgical worker rebuild, and error-path cleanup.

The determinism matrix here is the executor-level contract behind the
`BENCH_exec.json` gate: identical :class:`BatchReport` digests for
workers x chunk_size x consecutive warm-pool batches.
"""

import os
from collections import deque

import pytest

from repro.errors import ExecutionError
from repro.exec import (
    FunctionJob,
    ParallelExecutor,
    SimJob,
    get_inline_executor,
)
from repro.exec import pool as pool_mod


def echo_seed(ctx, tag):
    """Module-level so it pickles by reference."""
    ctx.metrics.counter("test.runs").inc()
    return (tag, ctx.seed, ctx.rng().uniform("u", 0.0, 1.0))


def read_shared(ctx, offset):
    return ctx.shared["base"] + offset if ctx.shared else None


class SleepJob(SimJob):
    def __init__(self, job_id, seconds):
        self.job_id = job_id
        self.seconds = seconds

    def run(self, ctx):
        import time

        time.sleep(self.seconds)
        return "slept"


class ExitJob(SimJob):
    """Kills its worker process outright (no exception to catch)."""

    job_id = "exit"

    def run(self, ctx):
        os._exit(17)


def make_jobs(n=10):
    return [FunctionJob(f"job{i}", echo_seed, f"tag{i}") for i in range(n)]


def fingerprint(report):
    return (report.values, report.failed, report.retried,
            report.merged_digest()["metrics"])


class TestDeterminismMatrix:
    def test_workers_chunking_and_warm_reuse_matrix(self):
        """workers x chunk_size x two consecutive warm batches must all
        produce identical BatchReport digests."""
        jobs = make_jobs(10)
        with ParallelExecutor(workers=1, master_seed=33) as ex:
            reference = fingerprint(ex.run_jobs(jobs))
        for workers in (1, 2, 4):
            for chunk_size in (1, 3, None):
                with ParallelExecutor(workers=workers, master_seed=33,
                                      chunk_size=chunk_size) as ex:
                    first = fingerprint(ex.run_jobs(jobs))
                    second = fingerprint(ex.run_jobs(jobs))  # warm reuse
                assert first == reference, (workers, chunk_size)
                assert second == reference, (workers, chunk_size)

    def test_cost_model_state_never_changes_results(self):
        """A warmed cost model (big chunks) must match the cold probe
        round (single-job chunks) bit for bit."""
        jobs = make_jobs(16)
        with ParallelExecutor(workers=2, master_seed=5) as ex:
            cold = ex.run_jobs(jobs).values
            ex._cost_ema = 1e-6  # force maximal chunks
            hot = ex.run_jobs(jobs).values
        assert cold == hot

    def test_per_run_master_seed_override(self):
        jobs = make_jobs(4)
        with ParallelExecutor(workers=1, master_seed=7) as configured:
            reference = configured.run_jobs(jobs).values
        with ParallelExecutor(workers=2, master_seed=0) as ex:
            override = ex.run_jobs(jobs, master_seed=7).values
            default = ex.run_jobs(jobs).values
        assert override == reference
        assert default != reference


class TestWarmPoolPersistence:
    def test_workers_persist_across_batches(self):
        with ParallelExecutor(workers=2, chunk_size=1) as ex:
            first = {r.worker_pid for r in ex.run_jobs(make_jobs(6)).results}
            second = {r.worker_pid for r in ex.run_jobs(make_jobs(6)).results}
        assert first == second
        assert os.getpid() not in first

    def test_warm_up_prespawns_before_first_batch(self):
        with ParallelExecutor(workers=2) as ex:
            assert ex._handles == []
            ex.warm_up()
            pids = [h.proc.pid for h in ex._handles]
            assert len(pids) == 2
            ex.run_jobs(make_jobs(4))
            assert [h.proc.pid for h in ex._handles] == pids

    def test_warm_up_inline_is_noop(self):
        with ParallelExecutor(workers=1) as ex:
            ex.warm_up()
            assert ex._handles == []

    def test_crashed_worker_rebuilt_transparently_on_next_run(self):
        """A worker that dies between batches is replaced on the next
        run without touching its healthy pool-mates."""
        with ParallelExecutor(workers=2, chunk_size=1) as ex:
            ex.warm_up()
            victim, survivor = ex._handles
            victim.proc.terminate()
            victim.proc.join(timeout=2.0)
            report = ex.run_jobs(make_jobs(6))
            assert report.failed == 0
            assert survivor in ex._handles

    def test_inline_executor_is_a_singleton(self):
        assert get_inline_executor() is get_inline_executor()
        assert get_inline_executor().workers == 1


class TestSharedContext:
    def test_context_reaches_every_job_once_per_worker(self):
        jobs = [FunctionJob(f"ctx{i}", read_shared, i) for i in range(8)]
        payload = {"base": 100}
        with ParallelExecutor(workers=2, chunk_size=1) as ex:
            first = ex.run_jobs(jobs, context=payload).values
            # same object: workers reuse their cached copy (one pickle
            # total per worker, asserted via the executor-side cache)
            token_before = ex._context_seq
            second = ex.run_jobs(jobs, context=payload).values
            assert ex._context_seq == token_before
            third = ex.run_jobs(jobs, context={"base": 200}).values
            assert ex._context_seq == token_before + 1
        assert first == second == [100 + i for i in range(8)]
        assert third == [200 + i for i in range(8)]

    def test_context_none_by_default_and_inline_passthrough(self):
        jobs = [FunctionJob("a", read_shared, 1)]
        with ParallelExecutor(workers=1) as ex:
            assert ex.run_jobs(jobs).values == [None]
            assert ex.run_jobs(jobs, context={"base": 5}).values == [6]


class TestWorkerDeath:
    def test_dead_worker_fails_only_its_chunk_and_is_respawned(self):
        jobs = make_jobs(4) + [ExitJob()]
        with ParallelExecutor(workers=2, chunk_size=1, retries=0) as ex:
            report = ex.run_jobs(jobs)
            assert report.failed == 1
            assert "died" in report.results[4].error
            assert all(r.ok for r in report.results[:4])
            # next batch runs on the rebuilt pool
            assert ex.run_jobs(make_jobs(3)).failed == 0


class TestErrorPathCleanup:
    def test_run_jobs_exception_tears_down_half_submitted_pool(self,
                                                               monkeypatch):
        """An error escaping mid-batch must not leak worker processes
        (the old executor left its pool running when run_jobs raised
        outside a context manager)."""
        ex = ParallelExecutor(workers=2)
        ex.warm_up()
        procs = [h.proc for h in ex._handles]

        def boom(self, pending):
            raise RuntimeError("dispatch bug")

        monkeypatch.setattr(ParallelExecutor, "_carve", boom)
        with pytest.raises(RuntimeError, match="dispatch bug"):
            ex.run_jobs(make_jobs(4))
        assert ex._handles == []
        for proc in procs:
            proc.join(timeout=5.0)
            assert not proc.is_alive()
        monkeypatch.undo()
        # a second run transparently rebuilds the pool
        assert ex.run_jobs(make_jobs(4)).failed == 0
        ex.close()

    def test_close_is_idempotent_and_reaps_workers(self):
        ex = ParallelExecutor(workers=2)
        ex.warm_up()
        procs = [h.proc for h in ex._handles]
        ex.close()
        ex.close()
        assert ex._handles == []
        for proc in procs:
            assert not proc.is_alive()


class TestStartMethodSelection:
    def test_preference_order_fork_first(self, monkeypatch):
        monkeypatch.setattr(pool_mod.multiprocessing,
                            "get_all_start_methods",
                            lambda: ["spawn", "forkserver", "fork"])
        assert ParallelExecutor(workers=1).start_method == "fork"

    def test_preference_falls_back_in_order(self, monkeypatch):
        monkeypatch.setattr(pool_mod.multiprocessing,
                            "get_all_start_methods",
                            lambda: ["spawn", "forkserver"])
        assert ParallelExecutor(workers=1).start_method == "forkserver"
        monkeypatch.setattr(pool_mod.multiprocessing,
                            "get_all_start_methods", lambda: ["spawn"])
        assert ParallelExecutor(workers=1).start_method == "spawn"

    def test_no_method_available_names_tried(self, monkeypatch):
        monkeypatch.setattr(pool_mod.multiprocessing,
                            "get_all_start_methods", lambda: [])
        with pytest.raises(ExecutionError, match="fork"):
            ParallelExecutor(workers=1)


class TestCostModel:
    def _payloads(self, n):
        return deque((i, None, 0, 0) for i in range(n))

    def test_probe_chunks_before_first_measurement(self):
        ex = ParallelExecutor(workers=4)
        assert len(ex._carve(self._payloads(100))) == 1

    def test_chunks_sized_to_target_seconds(self):
        assert pool_mod._TARGET_CHUNK_SECONDS == 0.05
        ex = ParallelExecutor(workers=4)
        ex._cost_ema = 0.005  # 5ms jobs -> 10 jobs per 50ms chunk
        assert len(ex._carve(self._payloads(1000))) == 10

    def test_fair_share_cap_keeps_workers_busy(self):
        ex = ParallelExecutor(workers=4)
        ex._cost_ema = 0.00001  # cost model alone would say 5_000
        pending = self._payloads(40)
        assert len(ex._carve(pending)) == 5  # ceil(40 / (4*2))

    def test_fixed_chunk_size_wins(self):
        ex = ParallelExecutor(workers=4, chunk_size=3)
        ex._cost_ema = 1.0
        assert len(ex._carve(self._payloads(100))) == 3

    def test_cost_hint_seeds_the_model(self):
        class HintedJob(SimJob):
            cost_hint = 0.02

        ex = ParallelExecutor(workers=4)
        ex._seed_cost_model([(0, HintedJob(), 0, 0)])
        assert ex._cost_ema == pytest.approx(0.02)

    def test_measurements_update_the_ema(self):
        ex = ParallelExecutor(workers=4)
        ex._observe_cost((0, True, None, None, 1, 0.01))
        first = ex._cost_ema
        assert first == pytest.approx(0.01)
        ex._observe_cost((1, True, None, None, 1, 0.03))
        assert ex._cost_ema > first
        ex._observe_cost((2, False, "err", None, 1, 99.0))  # failures ignored
        assert ex._cost_ema < 1.0

    def test_plan_batches_is_one_per_worker(self):
        ex = ParallelExecutor(workers=4)
        assert ex.plan_batches(100) == 4
        assert ex.plan_batches(2) == 2
        assert ex.plan_batches(0) == 0

    def test_invalid_cost_params_rejected(self):
        with pytest.raises(ExecutionError, match="chunk_size"):
            ParallelExecutor(workers=1, chunk_size=0)
