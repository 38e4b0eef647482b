"""Fleet-level OTA campaigns with monitoring-driven rollback.

Section 3.4 closes the loop the campaign manager implements: faults
detected by runtime monitoring are "transferred to the manufacturer for
further examinations.  In turn, an update can be created and rolled out
to remedy the detected error."

:class:`Fleet` instantiates N simulated vehicles (each with its own
topology, dynamic platform, runtime monitor and backend uplink) inside
one simulation.  :class:`CampaignManager` rolls a package out in waves,
watching each wave's monitors before releasing the next — and aborting
plus rolling back to the previous version when the regression rate
crosses the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..errors import UpdateError
from ..jobs import CampaignKind, JobContext, ReplicationJob
from ..hw.ecu import CryptoCapability, OsClass
from ..hw.topology import BusSpec, EcuSpec, Topology
from ..model.applications import AppModel
from ..osal.task import TaskSpec
from ..security.crypto import TrustStore
from ..security.package import build_package
from ..sim import Simulator
from .monitor import BackendLink, RuntimeMonitor
from .platform import DynamicPlatform
from .update import UpdateOrchestrator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..exec.pool import ParallelExecutor


def _vehicle_topology(index: int) -> Topology:
    topo = Topology(f"vehicle_{index}")
    topo.add_bus(BusSpec(f"eth_{index}", "ethernet", 1e9, tsn_capable=True))
    topo.add_ecu(EcuSpec(
        f"vecu_{index}", cpu_mhz=1000.0, cores=2, memory_kib=1 << 18,
        flash_kib=1 << 20, has_mmu=True, os_class=OsClass.POSIX_RT,
        crypto=CryptoCapability.ACCELERATED,
        ports=(("eth0", "ethernet"),),
    ))
    topo.attach(f"vecu_{index}", "eth0", f"eth_{index}")
    return topo


@dataclass
class Vehicle:
    """One fleet member: platform + monitor + uplink."""

    index: int
    platform: DynamicPlatform
    monitor: RuntimeMonitor
    backend: BackendLink

    @property
    def node_name(self) -> str:
        return f"vecu_{self.index}"

    def fault_count(self) -> int:
        """Faults that indicate a functional regression.

        Period deviations are excluded: during a staged update both
        instances briefly release the same task, which looks like period
        noise to the monitor but is expected handover behaviour.
        """
        return len([
            f for f in self.monitor.faults if f.kind in ("deadline", "jitter")
        ])

    def running_version(self, app_name: str) -> Optional[tuple]:
        instances = self.platform.running_instances(app_name)
        if not instances:
            return None
        return instances[0].model.version


class Fleet:
    """N simulated vehicles sharing one simulation clock."""

    def __init__(
        self,
        sim: Simulator,
        store: TrustStore,
        *,
        size: int,
    ) -> None:
        if size < 1:
            raise UpdateError("fleet needs at least one vehicle")
        self.sim = sim
        self.store = store
        self.vehicles: List[Vehicle] = []
        for index in range(size):
            platform = DynamicPlatform(
                sim, _vehicle_topology(index), trust_store=store
            )
            backend = BackendLink(sim, uplink_latency=0.1)
            monitor = RuntimeMonitor(
                sim, backend=backend, core_prefix=f"vecu_{index}.",
            )
            self.vehicles.append(
                Vehicle(index=index, platform=platform, monitor=monitor,
                        backend=backend)
            )

    def deploy_everywhere(self, app: AppModel, key_id: str) -> None:
        """Install + start the app on every vehicle; monitors watch it."""
        for vehicle in self.vehicles:
            package = build_package(app, self.store, key_id)
            vehicle.platform.install(package, vehicle.node_name)
        self.sim.run(until=self.sim.now + 1.0)
        for vehicle in self.vehicles:
            vehicle.platform.start_app(app.name, vehicle.node_name)
            for task in app.tasks:
                vehicle.monitor.watch(task)

    def versions(self, app_name: str) -> Dict[int, Optional[tuple]]:
        return {
            v.index: v.running_version(app_name) for v in self.vehicles
        }


def plan_waves(
    total: int,
    *,
    wave_size: Optional[int] = None,
    stages: Optional[Tuple[float, ...]] = None,
) -> List[Tuple[int, int]]:
    """Partition ``total`` vehicles into rollout waves of ``(start, stop)``.

    Two strategies, exactly one of which must be given:

    * ``wave_size`` — fixed-size waves, the classic
      :class:`CampaignManager` partition (e.g. 5 vehicles at size 2
      → ``[(0, 2), (2, 4), (4, 5)]``);
    * ``stages`` — staged fractions of the fleet, the canary → cohort →
      fleet shape OTA campaigns use (e.g. ``(0.01, 0.1, 1.0)``).  Each
      stage's cumulative population is ``ceil(total * fraction)``,
      clamped so every wave grows by at least one vehicle; trailing
      stages that add nobody are dropped.

    The plan is a pure function of its arguments — shard- and
    worker-count independent, like :func:`repro.exec.plan_shards`.
    """
    if (wave_size is None) == (stages is None):
        raise UpdateError("plan_waves needs exactly one of wave_size/stages")
    if total <= 0:
        return []
    if wave_size is not None:
        if wave_size < 1:
            raise UpdateError("wave size must be >= 1")
        return [
            (start, min(start + wave_size, total))
            for start in range(0, total, wave_size)
        ]
    waves: List[Tuple[int, int]] = []
    position = 0
    for fraction in stages:
        if not 0.0 < fraction <= 1.0:
            raise UpdateError(
                f"stage fractions must be in (0, 1], got {fraction}"
            )
        stop = min(total, max(position + 1, _ceil_frac(total, fraction)))
        if stop <= position:
            continue
        waves.append((position, stop))
        position = stop
        if position >= total:
            break
    if position < total:
        waves.append((position, total))
    return waves


def _ceil_frac(total: int, fraction: float) -> int:
    """``ceil(total * fraction)`` without float-boundary surprises."""
    exact = total * fraction
    rounded = int(exact)
    return rounded if rounded == exact else rounded + 1


@dataclass
class WaveResult:
    """Outcome of one rollout wave."""

    wave: int
    vehicle_indices: List[int]
    updated: int
    regressions: int


@dataclass
class CampaignResult:
    """Final outcome of a campaign."""

    app: str
    target_version: tuple
    waves: List[WaveResult] = field(default_factory=list)
    aborted: bool = False
    rolled_back: bool = False

    @property
    def vehicles_updated(self) -> int:
        return sum(w.updated for w in self.waves)


class CampaignManager:
    """Staged fleet rollout with monitor-gated waves and rollback."""

    def __init__(
        self,
        fleet: Fleet,
        key_id: str,
        *,
        wave_size: int = 2,
        soak_time: float = 1.0,
        abort_regression_ratio: float = 0.5,
    ) -> None:
        if wave_size < 1:
            raise UpdateError("wave size must be >= 1")
        self.fleet = fleet
        self.key_id = key_id
        self.wave_size = wave_size
        self.soak_time = soak_time
        self.abort_regression_ratio = abort_regression_ratio
        self.results: List[CampaignResult] = []

    def rollout(
        self,
        old_app: AppModel,
        new_app: AppModel,
    ) -> CampaignResult:
        """Run the campaign to completion (synchronously drives the sim).

        Vehicles are updated wave by wave with the staged strategy; after
        each wave soaks, vehicles whose monitors recorded new faults count
        as regressions.  Crossing the abort ratio rolls the affected wave
        back to ``old_app`` and stops the campaign.
        """
        if new_app.name != old_app.name:
            raise UpdateError("update must target the same application")
        sim = self.fleet.sim
        result = CampaignResult(app=new_app.name, target_version=new_app.version)
        vehicles = list(self.fleet.vehicles)
        wave_index = 0
        for start, stop in plan_waves(
            len(vehicles), wave_size=self.wave_size
        ):
            wave = vehicles[start:stop]
            wave_index += 1
            baseline = {v.index: v.fault_count() for v in wave}
            # capture each vehicle's *own* running model before touching
            # it: a mixed-version fleet (prior partial rollout) must roll
            # back to what each vehicle actually ran, not a shared old_app
            prior_models = {
                vehicle.index: self._running_model(vehicle, old_app)
                for vehicle in wave
            }
            updated = 0
            for vehicle in wave:
                package = build_package(new_app, self.fleet.store, self.key_id)
                orchestrator = UpdateOrchestrator(vehicle.platform)
                done: List = []
                orchestrator.staged_update(
                    new_app.name, vehicle.node_name, package
                ).add_callback(done.append)
                sim.run(until=sim.now + 0.5)
                if done and done[0].success:
                    updated += 1
                    for task in new_app.tasks:
                        vehicle.monitor.watch(task)
            # soak: let the new version run under observation
            sim.run(until=sim.now + self.soak_time)
            regressions = sum(
                1 for v in wave if v.fault_count() > baseline[v.index]
            )
            result.waves.append(WaveResult(
                wave=wave_index,
                vehicle_indices=[v.index for v in wave],
                updated=updated,
                regressions=regressions,
            ))
            if wave and regressions / len(wave) >= self.abort_regression_ratio:
                result.aborted = True
                self._rollback_wave(wave, prior_models)
                result.rolled_back = True
                break
        self.results.append(result)
        return result

    @staticmethod
    def _running_model(vehicle: Vehicle, fallback: AppModel) -> AppModel:
        """The app model this vehicle currently runs (fallback if none)."""
        instances = vehicle.platform.running_instances(fallback.name)
        return instances[0].model if instances else fallback

    def _rollback_wave(
        self, wave: List[Vehicle], prior_models: Dict[int, AppModel]
    ) -> None:
        """Staged-update each vehicle back to *its own* prior version."""
        sim = self.fleet.sim
        for vehicle in wave:
            prior = prior_models[vehicle.index]
            package = build_package(prior, self.fleet.store, self.key_id)
            orchestrator = UpdateOrchestrator(vehicle.platform)
            try:
                orchestrator.staged_update(
                    prior.name, vehicle.node_name, package
                )
            except UpdateError:
                continue  # the app died entirely; nothing to roll back
            sim.run(until=sim.now + 0.5)


# -- multi-replication campaign sweeps (repro.exec fan-out site) ---------


@dataclass(frozen=True)
class CampaignSpec:
    """Picklable description of one fleet-campaign replication.

    Each replication builds a fresh fleet inside its own simulator, rolls
    ``app_name`` from ``base_version`` to ``target_version`` and reports
    a :class:`CampaignOutcome`.  ``target_wcet_jitter`` adds a
    replication-seeded uniform perturbation to the new version's task
    execution time, so a sweep explores the uncertainty band around the
    nominal update instead of replaying one trajectory N times.
    """

    fleet_size: int = 4
    wave_size: int = 2
    soak_time: float = 0.5
    abort_regression_ratio: float = 0.5
    app_name: str = "fn"
    period: float = 0.01
    deadline: float = 0.008
    base_version: Tuple[int, int] = (1, 0)
    base_wcet: float = 0.001
    target_version: Tuple[int, int] = (1, 1)
    target_wcet: float = 0.001
    target_wcet_jitter: float = 0.0
    target_deadline: Optional[float] = None
    # post-deploy warm-up before the rollout starts; part of the shared
    # base, so fork-per-replication pays it once per sweep
    settle_time: float = 0.5


@dataclass(frozen=True)
class CampaignOutcome:
    """Picklable summary of one campaign replication."""

    replication: str
    target_wcet: float
    aborted: bool
    rolled_back: bool
    vehicles_updated: int
    wave_count: int
    regressions: int
    final_versions: Tuple[Tuple[int, Optional[Tuple[int, ...]]], ...]

    @property
    def completed(self) -> bool:
        return not self.aborted


def _app_for(spec: CampaignSpec, version, wcet: float, deadline: float,
             task_suffix: str) -> AppModel:
    return AppModel(
        name=spec.app_name,
        tasks=(TaskSpec(
            name=f"{spec.app_name}_loop{task_suffix}",
            period=spec.period, wcet=wcet, deadline=deadline,
        ),),
        memory_kib=64, image_kib=128, version=tuple(version),
    )


def build_fleet_base(sim: Simulator, spec: CampaignSpec) -> Dict[str, object]:
    """Build the deterministic, RNG-free half of a campaign replication.

    Trust store, fleet, base-version deployment and the post-deploy
    settle run — everything every replication shares verbatim.  The
    returned dict is registered under ``sim.world["campaign"]`` so a
    forked world can retrieve its private copies of the handles.
    """
    store = TrustStore()
    store.generate_key("oem")
    fleet = Fleet(sim, store, size=spec.fleet_size)
    # sweeps judge replications by monitor faults and version state, not
    # the per-job history; bound it so the shared base snapshot stays the
    # same size regardless of settle length
    for vehicle in fleet.vehicles:
        for node in vehicle.platform.nodes.values():
            for core in node.cores:
                core.job_history_limit = 64
    old_app = _app_for(
        spec, spec.base_version, spec.base_wcet, spec.deadline, ""
    )
    fleet.deploy_everywhere(old_app, "oem")
    sim.run(until=sim.now + spec.settle_time)
    base: Dict[str, object] = {"fleet": fleet, "old_app": old_app}
    sim.adopt("campaign", base)
    return base


def _roll_out(
    sim: Simulator, base: Dict[str, object], spec: CampaignSpec,
    ctx: JobContext,
) -> CampaignOutcome:
    """Roll out the target version, its wcet jittered from the job's
    seed, on a built base and report."""
    target_wcet = spec.target_wcet
    if spec.target_wcet_jitter:
        target_wcet += ctx.rng().uniform(
            "campaign.wcet_jitter", 0.0, spec.target_wcet_jitter
        )
    fleet: Fleet = base["fleet"]
    old_app: AppModel = base["old_app"]
    manager = CampaignManager(
        fleet, "oem",
        wave_size=spec.wave_size,
        soak_time=spec.soak_time,
        abort_regression_ratio=spec.abort_regression_ratio,
    )
    new_app = _app_for(
        spec, spec.target_version, target_wcet,
        spec.target_deadline if spec.target_deadline is not None
        else spec.deadline,
        "_v2",
    )
    result = manager.rollout(old_app, new_app)
    updated = ctx.metrics.counter("campaign.vehicles_updated")
    updated.inc(result.vehicles_updated)
    regressed = ctx.metrics.counter("campaign.regressions")
    regressed.inc(sum(w.regressions for w in result.waves))
    aborted = ctx.metrics.counter("campaign.aborted")
    if result.aborted:
        aborted.inc()
    versions = tuple(sorted(
        (index, version)
        for index, version in fleet.versions(spec.app_name).items()
    ))
    return CampaignOutcome(
        replication=ctx.job_id,
        target_wcet=target_wcet,
        aborted=result.aborted,
        rolled_back=result.rolled_back,
        vehicles_updated=result.vehicles_updated,
        wave_count=len(result.waves),
        regressions=sum(w.regressions for w in result.waves),
        final_versions=versions,
    )


class CampaignJob(ReplicationJob):
    """One fleet-campaign replication: rebuilds the deployed-and-settled
    fleet, or with ``fork=True`` restores it from the sweep's snapshot."""


@dataclass
class SweepResult:
    """Aggregate outcome of a multi-replication campaign sweep."""

    outcomes: List[CampaignOutcome]
    digest: Dict

    @property
    def aborted_count(self) -> int:
        return sum(1 for o in self.outcomes if o.aborted)

    @property
    def completed_count(self) -> int:
        return sum(1 for o in self.outcomes if o.completed)


def sweep_campaigns(
    spec: CampaignSpec,
    *,
    replications: int,
    executor: Optional["ParallelExecutor"] = None,
    master_seed: Optional[int] = None,
    fork: bool = True,
    checkpoint=None,
    fault_points=None,
) -> SweepResult:
    """Run ``replications`` independent campaign replications.

    Replication ``i`` is the job ``campaign.rep{i}``; seeding, fork vs.
    rebuild (the deployed-and-settled fleet is the shared base),
    checkpointing and failure reporting are those of
    :func:`repro.exec.recovery.run_replications`.  An interrupted
    checkpointed sweep resumes with :func:`resume_sweep`.
    """
    # the campaign driver sits in exec, above core: reach it at run time
    from ..exec.recovery import run_replications  # repro: allow[ARCH603]

    outcomes, digest = run_replications(
        SWEEP, spec, replications=replications, executor=executor,
        master_seed=master_seed, fork=fork, checkpoint=checkpoint,
        fault_points=fault_points,
    )
    return SweepResult(outcomes=outcomes, digest=digest)


def resume_sweep(directory: str, *,
                 executor: Optional["ParallelExecutor"] = None,
                 fork: bool = True) -> SweepResult:
    """Resume an interrupted checkpointed campaign sweep (see
    :func:`repro.exec.recovery.resume_campaign`)."""
    # resume lives in the recovery layer above core
    from ..exec.recovery import resume_campaign  # repro: allow[ARCH603]

    return resume_campaign(directory, executor=executor, fork=fork)


#: the sweep as a campaign kind, registered as ``campaign_sweep``
SWEEP = CampaignKind(
    name="campaign_sweep", world="campaign", build_base=build_fleet_base,
    run=_roll_out, job_prefix="campaign", jobs=(CampaignJob, CampaignJob),
    error=UpdateError, entry=sweep_campaigns,
)
