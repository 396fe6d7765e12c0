"""Tiny end-to-end runs of every workload, and the manifest contract."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import metrics

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(metrics.WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds",
                "1", "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    table = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert list(result["metrics"]) == [m[0] for m in table]
    for name, unit, *_ in table:
        got = result["metrics"][name]
        assert got["unit"] == unit
        assert isinstance(got["value"], float)
    printed = list(result["metrics"])
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        printed += [name for name, _ in metrics.UNGATED]
    for name in printed:
        assert f"  {name} " in proc.stdout          # printed by name


def test_manifest_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    assert manifest["command"] == ["python3", "perfbench/run.py"]
    assert manifest["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in manifest["workloads"]} == metrics.WORKLOADS
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in manifest["end_to_end"]] == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in manifest["per_layer"]] == metrics.PER_LAYER


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "jacobi-sim", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
