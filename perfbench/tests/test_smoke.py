"""Seconds-long smoke runs of every workload at tiny scale, plus the
BENCHMARK.json contract and the refusal to run without ``src/``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.layers import PER_LAYER

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT,
         script: Path = ROOT / "perfbench" / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload",
                         [entry["name"] for entry in SPEC["workloads"]])
def test_untraced_smoke(workload):
    done = _run(workload, trace=0)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0, done.stdout
    assert result["attempted"] >= 1
    expected = {entry["name"]: entry["unit"] for entry in SPEC["end_to_end"]}
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == expected
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", ["stream_fleet", "broker_drain"])
def test_traced_smoke_collects_child_process_spans(workload):
    done = _run(workload, trace=1)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"], done.stdout
    metrics = result["metrics"]
    assert set(metrics) == {entry["name"] for entry in SPEC["per_layer"]}
    if workload == "stream_fleet":
        assert metrics["core.IncrementalAnalyzer.feed.calls"]["value"] > 0
        assert metrics["serve.server.cpu_s"]["value"] > 0
    else:
        assert metrics["campaign.CampaignBroker.handle.calls"]["value"] > 0
        assert metrics["campaign.BrokerClient.worker.total_s"]["value"] > 0
        assert metrics["rrc.simulate_run.self_s"]["value"] > 0


def test_benchmark_json_matches_the_layer_catalogue():
    assert sorted(SPEC) == ["command", "end_to_end", "paths", "per_layer",
                            "run_seconds", "workloads"]
    assert SPEC["per_layer"] == [
        {"name": metric.name, "unit": metric.unit, "better": metric.better}
        for metric in PER_LAYER]
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("campaign", trace=0, cwd=tmp_path,
                script=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
