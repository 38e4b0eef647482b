"""The single campaign driver behind sweeps, chaos campaigns and fleets.

* a failing replication or shard surfaces as the entry point's own
  exception type, naming the job id and its derived seed;
* checkpoints written before the driver existed (committed fixtures,
  half their records dropped) resume to a fresh run's exact result;
* a resume finds its campaign kind through the plan unpickle alone.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import repro
from repro.core.campaign import CampaignManager, sweep_campaigns
from repro.errors import ExecutionError, UpdateError
from repro.exec import derive_job_seed, get_inline_executor
from repro.exec.recovery import (
    CheckpointSpec,
    CheckpointStore,
    load_manifest,
    resume_campaign,
)
from repro.faults.campaign import ForkedFaultCampaignJob, run_fault_campaign
from repro.fleet import FleetSpec, run_fleet, run_fleet_campaign
from tests.exec.checkpoints import make_fixtures as fx

FIXTURES = os.path.dirname(os.path.abspath(fx.__file__))


def boom(*args, **kwargs):
    raise ValueError("injected replication failure")


def shard_boom(spec, index, tag, snapshots=None):
    raise ValueError(f"injected failure at vehicle {index}")


FAILING_ENTRY_POINTS = {
    "campaign_sweep": (
        (CampaignManager, "rollout", boom), UpdateError, "campaign.rep0", 5,
        lambda: sweep_campaigns(fx.SWEEP_SPEC, replications=2,
                                master_seed=5),
    ),
    "fault_campaign": (
        ("repro.faults.campaign.start_chaos_workload", boom),
        ExecutionError, "faults.rep0", 7,
        lambda: run_fault_campaign(fx.FAULT_SPEC, replications=2,
                                   master_seed=7),
    ),
    "fleet_shards": (
        ("repro.fleet.shard.simulate_vehicle", shard_boom), RuntimeError,
        "drv.old.0-4", 3,
        lambda: run_fleet(FleetSpec(name="drv", size=8, master_seed=3),
                          shard_size=4),
    ),
    "fleet_campaign": (
        ("repro.fleet.shard.simulate_vehicle", shard_boom), RuntimeError,
        "fixture.new.0-4", 13,
        lambda: run_fleet_campaign(fx.FLEET_SPEC),
    ),
}


@pytest.mark.parametrize("entry", sorted(FAILING_ENTRY_POINTS))
def test_failure_keeps_entry_point_exception_and_names_job_and_seed(
        entry, monkeypatch):
    patch, error, job_id, master_seed, run = FAILING_ENTRY_POINTS[entry]
    monkeypatch.setattr(*patch)
    with pytest.raises(error) as caught:
        run()
    message = str(caught.value)
    seed = derive_job_seed(master_seed, job_id)
    assert f"{job_id} (seed {seed}): ValueError('injected" in message
    assert "failed" in message
    # a forked job handed no snapshot names itself and its kind
    report = get_inline_executor().run_jobs(
        [ForkedFaultCampaignJob("faults.rep9", fx.FAULT_SPEC)])
    assert "fault_campaign" in report.results[0].error
    assert "'faults.rep9'" in report.results[0].error


FRESH_RUNS = {
    "fault_campaign": lambda: run_fault_campaign(fx.FAULT_SPEC,
                                                 **fx.FAULT_RUN),
    "campaign_sweep": lambda: sweep_campaigns(fx.SWEEP_SPEC, **fx.SWEEP_RUN),
    "fleet_campaign": lambda: run_fleet_campaign(fx.FLEET_SPEC),
}


def copy_fixture(kind, tmp_path):
    directory = str(tmp_path / kind)
    shutil.copytree(os.path.join(FIXTURES, kind), directory)
    return directory


def record_bytes(directory):
    records = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".ckpt"):
            with open(os.path.join(directory, name), "rb") as fh:
                records[name] = fh.read()
    return records


@pytest.mark.parametrize("kind", sorted(FRESH_RUNS))
def test_pre_driver_checkpoints_resume_to_a_fresh_run(kind, tmp_path):
    directory = copy_fixture(kind, tmp_path)
    kept = record_bytes(directory)
    assert load_manifest(directory)["kind"] == kind
    resumed = resume_campaign(directory)
    fresh = FRESH_RUNS[kind]()
    if kind == "fleet_campaign":
        assert resumed == fresh
    else:
        assert resumed.outcomes == fresh.outcomes
        assert resumed.digest == fresh.digest
    after = record_bytes(directory)
    # the kept records were loaded, not rewritten; the dropped half came
    # back, so the store is complete again
    assert {name: after[name] for name in kept} == kept
    assert len(after) == 2 * len(kept)


def test_resume_registers_the_kind_through_the_plan_unpickle(tmp_path):
    directory = copy_fixture("fleet_campaign", tmp_path)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    script = (
        "import json, sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import repro.exec\n"
        "assert 'repro.fleet' not in sys.modules\n"
        "result = repro.exec.resume_campaign(sys.argv[1])\n"
        "print(json.dumps(result.campaign_digest, sort_keys=True))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, directory],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    fresh = run_fleet_campaign(fx.FLEET_SPEC)
    assert done.stdout.strip() == json.dumps(
        fresh.campaign_digest, sort_keys=True)

    unknown = str(tmp_path / "unknown")
    CheckpointStore(CheckpointSpec(unknown), kind="mystery_kind",
                    plan=("spec", 1, 0))
    with pytest.raises(ExecutionError) as caught:
        resume_campaign(unknown)
    assert "'mystery_kind'" in str(caught.value)
    assert repr(unknown) in str(caught.value)
