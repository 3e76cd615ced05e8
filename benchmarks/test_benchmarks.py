"""Tests of the benchmark itself, on the quick configs.

    python -m pytest benchmarks

Kept out of the package's tier-1 suite (pytest's testpaths is tests/).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_tables_match_benchmark_json():
    assert _units("end_to_end") == run.END_TO_END
    assert _units("per_layer") == run.PER_LAYER
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOADS


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_quick_run_prints_every_metric_with_its_unit(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--quick"]
    assert run.main(argv) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert last["failed"] == 0 and last["attempted"] >= 1
    expected = _units("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in last["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_self_times_sum_to_span_total(workload):
    res = run.run_workload(workload, seed=4, seconds=1, trace=1, quick=True)
    assert res["correct"], res["problems"]
    for total, layers in zip(res["span_total_s"], res["layers"]):
        assert total > 0.0
        assert sum(v["self_s"] for v in layers.values()) == pytest.approx(total, rel=1e-9)
        assert all(v["self_s"] >= -1e-9 for v in layers.values())


def test_record_mismatch_is_reported(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    problems = []
    assert run._check_record("k", {"hashes": {"a": "1"}}, problems) == "new"
    assert run._check_record("k", {"hashes": {"a": "1"}, "counters": {"x": 2}}, problems) == "match"
    assert problems == []
    assert run._check_record("k", {"counters": {"x": 3}}, problems) == "MISMATCH"
    assert len(problems) == 1


def test_fails_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "disk", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
