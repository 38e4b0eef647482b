"""The three benchmark workloads, driven through ``repro``'s public API.

Each workload has the same shape:

* ``setup()`` — the one-off work a user pays before the first item:
  snapshot capture, and for ``fleet_durable`` pool spawn, warm-up and
  campaign construction.  Repeating it replaces the previous set-up.
* ``batch()`` — one timed unit of work; returns ``(seconds, items,
  digest)``.  Every batch of a run simulates the same inputs, so every
  digest of a run must be identical.
* ``recover()`` — one half-drop resume: a checkpointed campaign loses a
  seeded half of its ``*.ckpt`` records and is resumed; returns
  ``(seconds, items, ok)`` where ``ok`` says the resumed result equals
  the uninterrupted one.
* ``check()`` — the fork ≡ rebuild oracle on a seeded sample; returns
  ``(attempted, failed)``.

All inputs derive from the workload seed: ``FleetSpec.master_seed``, the
chaos campaign's ``master_seed``, and the record-drop sample.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import shutil
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from chaos_drive import CHAOS_PLAN
from repro.exec import (
    CheckpointSpec,
    ParallelExecutor,
    get_inline_executor,
    resume_campaign,
)
from repro.faults import FaultCampaignJob, FaultCampaignSpec, run_fault_campaign
from repro.faults.campaign import ForkedFaultCampaignJob, build_campaign_snapshot
from repro.fleet import (
    TAG_OLD,
    FleetCampaign,
    FleetCampaignSpec,
    FleetDigest,
    FleetSpec,
    TopK,
    build_fleet_snapshots,
    run_fleet,
    simulate_vehicle,
)
from repro.sim.rng import RngStreams


def digest_of(obj: Any) -> str:
    """SHA-256 of ``repr(obj)``; the program's outputs repr deterministically."""
    return hashlib.sha256(repr(obj).encode("utf-8")).hexdigest()


def _scaled(full: int, scale: float, least: int) -> int:
    return max(least, int(round(full * scale)))


def _record_names(directory: str) -> List[str]:
    return sorted(n for n in os.listdir(directory) if n.endswith(".ckpt"))


def _record_bytes(directory: str, names: List[str]) -> int:
    return sum(os.path.getsize(os.path.join(directory, n)) for n in names)


class Workload:
    """Shared plumbing: scratch directories and the record-drop sample."""

    name = ""
    #: worker processes the workload drives (1 = inline)
    workers = 1

    def __init__(self, seed: int, scale: float, scratch: str) -> None:
        self.seed = seed
        self.scratch = scratch
        self._dirs = 0
        #: checkpoint bytes written by campaigns and resumes
        self.bytes_written = 0
        #: records a resume wrote again after the drop
        self.recomputed = 0

    def fresh_dir(self) -> str:
        self._dirs += 1
        path = os.path.join(self.scratch, f"ckpt-{self._dirs}")
        shutil.rmtree(path, ignore_errors=True)
        return path

    def drop_half(self, directory: str) -> Tuple[List[str], int]:
        """Delete a seeded half of the records; returns (kept, dropped)."""
        names = _record_names(directory)
        # one stream per run: every round of a run drops the same half
        doomed = RngStreams(self.seed).stream("perfbench.drop").sample(
            names, len(names) // 2)
        for name in doomed:
            os.remove(os.path.join(directory, name))
        return [n for n in names if n not in doomed], len(doomed)

    def resume(self, directory: str, executor=None) -> Tuple[float, Any, bool]:
        """Drop half of ``directory``'s records and time the resume.

        ``ok`` also requires every dropped record to be written again.
        """
        before = _record_names(directory)
        kept, dropped = self.drop_half(directory)
        start = perf_counter()
        result = resume_campaign(directory, executor=executor)
        elapsed = perf_counter() - start
        after = _record_names(directory)
        fresh = [n for n in after if n not in kept]
        self.recomputed += len(fresh)
        self.bytes_written += _record_bytes(directory, fresh)
        shutil.rmtree(directory, ignore_errors=True)
        return elapsed, result, after == before and dropped > 0

    def note_written(self, directory: str) -> None:
        self.bytes_written += _record_bytes(directory, _record_names(directory))

    def config(self) -> Dict[str, Any]:
        return {}

    def pids(self) -> List[int]:
        """Worker processes whose peak memory counts toward the run."""
        return []

    def close(self) -> None:
        """Release worker processes (inline workloads own none)."""


class FleetFork(Workload):
    """Inline forked ``run_fleet`` over a large fleet, 0.1 s soak."""

    name = "fleet_fork"

    def __init__(self, seed: int, scale: float, scratch: str) -> None:
        super().__init__(seed, scale, scratch)
        self.spec = FleetSpec(name="perfbench", master_seed=seed,
                              size=_scaled(500, scale, 8))
        #: the checkpointed campaign each recovery round resumes
        self.durable = FleetCampaignSpec(
            fleet=dataclasses.replace(self.spec, size=_scaled(100, scale, 8)),
            stages=(1.0,), shard_size=_scaled(10, scale, 2),
        )
        self.snapshots: Optional[Dict] = None

    def config(self) -> Dict[str, Any]:
        return {"vehicles": self.spec.size, "soak_s": self.spec.soak_time,
                "recovery_vehicles": self.durable.fleet.size,
                "recovery_shard": self.durable.shard_size}

    def setup(self) -> None:
        self.snapshots = build_fleet_snapshots(self.spec, tags=(TAG_OLD,))

    def batch(self) -> Tuple[float, int, str]:
        start = perf_counter()
        run = run_fleet(self.spec, snapshots=self.snapshots)
        elapsed = perf_counter() - start
        return elapsed, run.vehicles, digest_of(run.digest_json)

    def recover(self) -> Tuple[float, int, bool]:
        directory = self.fresh_dir()
        clean = FleetCampaign(self.durable,
                              checkpoint=CheckpointSpec(dir=directory)).run()
        self.note_written(directory)
        elapsed, resumed, ok = self.resume(directory)
        ok = ok and resumed.campaign_digest == clean.campaign_digest
        return elapsed, self.durable.fleet.size, ok

    def check(self) -> Tuple[int, int]:
        sample = RngStreams(self.seed).stream("perfbench.sample").sample(
            range(self.spec.size), min(8, self.spec.size))
        failed = 0
        for index in sample:
            forked, rebuilt = (
                self._vehicle_digest(index, snapshots)
                for snapshots in (self.snapshots, None))
            failed += forked != rebuilt
        return len(sample), failed

    def _vehicle_digest(self, index: int, snapshots) -> str:
        variant, releases, misses, histograms, report = simulate_vehicle(
            self.spec, index, TAG_OLD, snapshots)
        digest = FleetDigest(worst=TopK(k=self.spec.top_k))
        digest.observe_vehicle(index, variant.variant_id, releases, misses,
                               histograms, report)
        return digest_of(digest.to_json())


class ChaosRing(Workload):
    """Inline forked chaos replications on the redundant ring."""

    name = "chaos_ring"

    def __init__(self, seed: int, scale: float, scratch: str) -> None:
        super().__init__(seed, scale, scratch)
        self.spec = FaultCampaignSpec(
            plan=CHAOS_PLAN, soak_time=0.5, settle_time=0.5,
            breaker_threshold=3,
        )
        self.replications = _scaled(40, scale, 4)
        self.recovery_replications = _scaled(10, scale, 4)
        self.snapshot = None
        self.outcomes: List[Any] = []

    def config(self) -> Dict[str, Any]:
        return {"replications": self.replications,
                "recovery_replications": self.recovery_replications,
                "soak_s": self.spec.soak_time,
                "settle_s": self.spec.settle_time}

    def setup(self) -> None:
        self.snapshot = build_campaign_snapshot(self.spec)

    def _jobs(self, job_class, indices) -> List[Any]:
        return [job_class(f"faults.rep{i}", self.spec) for i in indices]

    def batch(self) -> Tuple[float, int, str]:
        # the body of run_fault_campaign(fork=True) with the set-up
        # snapshot passed in, so capture stays out of the timed region
        jobs = self._jobs(ForkedFaultCampaignJob, range(self.replications))
        start = perf_counter()
        report = get_inline_executor().run_jobs(
            jobs, master_seed=self.seed, context=self.snapshot)
        elapsed = perf_counter() - start
        if report.failed:
            raise RuntimeError(f"{report.failed} chaos replications failed")
        self.outcomes = report.values
        return elapsed, len(jobs), digest_of(
            (self.outcomes, report.merged_digest()))

    def recover(self) -> Tuple[float, int, bool]:
        directory = self.fresh_dir()
        clean = run_fault_campaign(
            self.spec, replications=self.recovery_replications,
            master_seed=self.seed, checkpoint=CheckpointSpec(dir=directory))
        self.note_written(directory)
        elapsed, resumed, ok = self.resume(directory)
        ok = ok and (resumed.outcomes, resumed.digest) == (
            clean.outcomes, clean.digest)
        return elapsed, self.recovery_replications, ok

    def check(self) -> Tuple[int, int]:
        sample = sorted(RngStreams(self.seed).stream("perfbench.sample").sample(
            range(self.replications), min(4, self.replications)))
        rebuilt = get_inline_executor().run(
            self._jobs(FaultCampaignJob, sample), master_seed=self.seed)
        failed = sum(self.outcomes[i] != outcome
                     for i, outcome in zip(sample, rebuilt))
        return len(sample), failed


class FleetDurable(Workload):
    """Checkpointed staged campaign on a warm pool, then a half-drop resume."""

    name = "fleet_durable"

    def __init__(self, seed: int, scale: float, scratch: str) -> None:
        super().__init__(seed, scale, scratch)
        self.workers = max(2, os.cpu_count() or 1)
        self.spec = FleetCampaignSpec(
            fleet=FleetSpec(name="perfbench", master_seed=seed,
                            size=_scaled(300, scale, 40), soak_time=0.5),
            shard_size=_scaled(10, scale, 2),
        )
        self.pool: Optional[ParallelExecutor] = None
        self.campaign: Optional[FleetCampaign] = None
        self.directory = ""
        self.digest: Dict[str, Any] = {}

    def config(self) -> Dict[str, Any]:
        return {"vehicles": self.spec.fleet.size,
                "soak_s": self.spec.fleet.soak_time,
                "shard": self.spec.shard_size, "stages": self.spec.stages}

    def setup(self) -> None:
        self.close()
        self.pool = ParallelExecutor(workers=self.workers)
        self.pool.warm_up()
        self._construct()

    def _construct(self) -> None:
        self.directory = self.fresh_dir()
        self.campaign = FleetCampaign(
            self.spec, executor=self.pool,
            checkpoint=CheckpointSpec(dir=self.directory, every_n_shards=1))

    def batch(self) -> Tuple[float, int, str]:
        if self.campaign is None:
            self._construct()
        campaign, self.campaign = self.campaign, None
        start = perf_counter()
        result = campaign.run()
        elapsed = perf_counter() - start
        self.note_written(self.directory)
        self.digest = result.campaign_digest
        items = sum(w.stop - w.start for w in result.waves)
        return elapsed, items, digest_of(self.digest)

    def recover(self) -> Tuple[float, int, bool]:
        elapsed, resumed, ok = self.resume(self.directory, executor=self.pool)
        ok = ok and resumed.campaign_digest == self.digest
        return elapsed, self.spec.fleet.size, ok

    def check(self) -> Tuple[int, int]:
        # this workload's oracles are the resume and the repeat checks
        return 0, 0

    def pids(self) -> List[int]:
        import multiprocessing

        return [p.pid for p in multiprocessing.active_children()]

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None


WORKLOADS = {w.name: w for w in (FleetFork, ChaosRing, FleetDurable)}
