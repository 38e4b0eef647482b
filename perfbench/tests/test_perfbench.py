"""Smoke-sized runs of the benchmark and proofs that its checks can fail.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import os

import pytest

import run as bench
import tracing
from repro.fleet import FleetDigest
from workloads import WORKLOADS, FleetFork

SPEC = json.load(open(os.path.join(bench.ROOT, "BENCHMARK.json")))
SCALE = 0.05


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("traced, section", [(0, "end_to_end"),
                                             (1, "per_layer")])
def test_smoke_run_emits_every_metric_with_its_unit(workload, traced, section):
    record = bench.run(workload, seed=3, seconds=0, traced=traced, scale=SCALE)
    summary = record["summary"]
    assert summary["correct"], record["failures"]
    assert summary["failed"] == 0 and summary["attempted"] > 0
    emitted = {k: v["unit"] for k, v in summary["metrics"].items()}
    assert emitted == _units(section)
    for name, metric in summary["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    assert record["env"]["nproc"] == os.cpu_count()
    assert record["env"]["workers"] >= 1


def test_traced_run_leaves_digests_unchanged(tmp_path):
    plain = FleetFork(5, SCALE, str(tmp_path / "plain"))
    plain.setup()
    untraced = plain.batch()[2]
    spans = tmp_path / "spans"
    spans.mkdir()
    tracing.install(str(spans))
    try:
        traced_wl = FleetFork(5, SCALE, str(tmp_path / "traced"))
        traced_wl.setup()
        traced = traced_wl.batch()[2]
        recorded = len(tracing.LOG.spans)
    finally:
        tracing.uninstall()
    assert recorded > 0
    assert traced == untraced


def test_uninstall_restores_the_program():
    originals = FleetDigest.__dict__["merge"]
    tracing.install("unused")
    tracing.uninstall()
    assert FleetDigest.__dict__["merge"] is originals


def test_corrupted_digest_is_counted_as_a_failure(monkeypatch):
    real = FleetDigest.to_json
    calls = []

    def corrupted(self):
        out = real(self)
        calls.append(1)
        if len(calls) % 2 == 0:
            out["releases"] += 1
        return out

    monkeypatch.setattr(FleetDigest, "to_json", corrupted)
    record = bench.run("fleet_fork", seed=3, seconds=0, traced=0, scale=SCALE)
    summary = record["summary"]
    assert not summary["correct"]
    assert summary["failed"] > 0
    assert record["failures"]


def test_cli_exits_nonzero_on_a_failed_check(monkeypatch, capsys):
    monkeypatch.setattr(bench, "run", lambda *a, **k: {
        "env": {}, "failures": ["forced"],
        "summary": {"correct": False, "attempted": 1, "failed": 1,
                    "metrics": {}},
    })
    assert bench.main(["--workload", "fleet_fork", "--seconds", "0"]) == 1
    last = capsys.readouterr().out.splitlines()[-1]
    assert json.loads(last)["failed"] == 1
