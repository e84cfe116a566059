"""Self-tests of the benchmark.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import probe  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


def run_benchmark(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "small"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_small_run_emits_every_metric_with_its_unit(workload, trace):
    done = run_benchmark(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stderr
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for entry in declared:
        emitted = result["metrics"][entry["name"]]
        assert emitted["unit"] == entry["unit"], entry["name"]
        assert isinstance(emitted["value"], (int, float))
        if not trace:
            assert emitted["value"] > 0, entry["name"]


def test_traced_counts_repeat_exactly():
    first, second = (
        json.loads(run_benchmark("prove_sweep", 1).stdout.strip().splitlines()[-1])
        for _ in range(2)
    )
    counts = {
        name for name, metric in first["metrics"].items()
        if metric["unit"] in ("count", "cycles")
    }
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def test_missing_source_exits_without_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith((".py", ".md")):
            (bench / name).write_text(
                open(os.path.join(HERE, name), encoding="utf-8").read()
            )
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "mc_exhaustive",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


@pytest.fixture
def scratch(tmp_path):
    return str(tmp_path)


def test_wrong_expected_proof_verdict_is_a_failed_op(monkeypatch, scratch):
    monkeypatch.setitem(workloads.ProveSweep.EXPECT_HOLDS, "full", False)
    result = workloads.ProveSweep(3, "small", scratch).run_round(
        0, "t", probe.KernelMeter()
    )
    assert result.attempted == 2
    assert len(result.failures) == 1
    assert "prove --tp full" in result.failures[0]


def test_wrong_expected_mc_verdict_is_a_failed_op(monkeypatch, scratch):
    monkeypatch.setitem(workloads.McExhaustive.EXPECT_PASS, "no-pad", True)
    result = workloads.McExhaustive(3, "small", scratch).run_round(
        0, "t", probe.KernelMeter()
    )
    assert result.attempted == 2
    assert len(result.failures) == 1
    assert "mc --tp no-pad" in result.failures[0]


def test_wrong_expected_channel_is_a_failed_op(monkeypatch, scratch):
    monkeypatch.setitem(
        workloads.ChannelCampaign.EXPECT, ("none", "e4"), "closed"
    )
    result = workloads.ChannelCampaign(3, "small", scratch).run_round(
        0, "t", probe.KernelMeter()
    )
    # Four trials plus the resume check.
    assert result.attempted == 5
    assert len(result.failures) == 1
    assert "('none', 'e4')" in result.failures[0]


def test_seed_alone_chooses_the_inputs(scratch):
    a = workloads.ProveSweep(5, "full", scratch)
    b = workloads.ProveSweep(5, "full", scratch)
    c = workloads.ProveSweep(6, "full", scratch)
    assert a.secrets == b.secrets != c.secrets
    campaign = workloads.ChannelCampaign(5, "full", scratch)
    again = workloads.ChannelCampaign(5, "full", scratch)
    assert campaign.argv(campaign.campaign_seed, "s") == again.argv(
        again.campaign_seed, "s"
    )
