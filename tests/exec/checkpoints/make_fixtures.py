"""Write the half-dropped checkpoint fixtures used by test_campaign_driver.

One directory per campaign kind (``fault_campaign``, ``campaign_sweep``,
``fleet_campaign``): a small checkpointed run, after which every second
record (in sorted file-name order) is deleted, as if the campaign had
crashed half-way.  The committed directories were written by the code
*before* the single campaign driver replaced the per-kind loops, so the
test proves that checkpoints from that code still resume unchanged.

Run from the repo root (this overwrites the committed fixtures)::

    PYTHONPATH=src python tests/exec/checkpoints/make_fixtures.py
"""

import os
import shutil
import sys

from repro.core.campaign import CampaignSpec, sweep_campaigns
from repro.exec.recovery import CheckpointSpec
from repro.faults import FaultPlan, FaultSpec
from repro.faults.campaign import FaultCampaignSpec, run_fault_campaign
from repro.fleet import FleetCampaignSpec, FleetSpec, run_fleet_campaign

HERE = os.path.dirname(os.path.abspath(__file__))

FAULT_SPEC = FaultCampaignSpec(
    plan=FaultPlan(
        name="fixture",
        faults=(
            FaultSpec(kind="frame_drop", target="eth_backbone", start=0.02,
                      duration=0.1, probability=0.3),
        ),
    ),
    soak_time=0.1,
)
FAULT_RUN = {"replications": 4, "master_seed": 7}

SWEEP_SPEC = CampaignSpec(fleet_size=2, soak_time=0.2, settle_time=0.1,
                          target_wcet=0.004, target_wcet_jitter=0.004,
                          target_deadline=0.002)
SWEEP_RUN = {"replications": 4, "master_seed": 5}

FLEET_SPEC = FleetCampaignSpec(
    fleet=FleetSpec(name="fixture", size=16, soak_time=0.02, master_seed=13),
    stages=(0.25, 1.0),
    shard_size=4,
)


def drop_half(directory):
    """Delete every second record, in sorted order; returns the dropped."""
    names = sorted(n for n in os.listdir(directory) if n.endswith(".ckpt"))
    dropped = names[1::2]
    for name in dropped:
        os.remove(os.path.join(directory, name))
    return dropped


def main():
    runs = {
        "fault_campaign": lambda ckpt: run_fault_campaign(
            FAULT_SPEC, checkpoint=ckpt, **FAULT_RUN),
        "campaign_sweep": lambda ckpt: sweep_campaigns(
            SWEEP_SPEC, checkpoint=ckpt, **SWEEP_RUN),
        "fleet_campaign": lambda ckpt: run_fleet_campaign(
            FLEET_SPEC, checkpoint=ckpt),
    }
    for kind, run in runs.items():
        directory = os.path.join(HERE, kind)
        shutil.rmtree(directory, ignore_errors=True)
        run(CheckpointSpec(dir=directory))
        dropped = drop_half(directory)
        print(f"{kind}: dropped {len(dropped)} record(s)", file=sys.stdout)


if __name__ == "__main__":
    main()
