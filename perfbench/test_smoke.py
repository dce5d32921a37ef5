"""Smoke test of the benchmark itself, at reduced size.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload of ``BENCHMARK.json`` untraced and traced with
``--smoke`` (one process of each kind, one small unit), parses the
result line, and checks it names every metric with its declared unit.
The seed is held out: no tuning run of the benchmark used it.  Takes
about a minute on two cores.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
HELD_OUT_SEED = 990_001

with open(SPEC_PATH) as _fh:
    SPEC = json.load(_fh)


def _run(workload: str, trace: int, cwd: str = ROOT):
    cmd = list(SPEC["command"]) + [
        "--workload", workload, "--seed", str(HELD_OUT_SEED),
        "--seconds", "1", "--trace", str(trace), "--smoke"]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert math.isfinite(got["value"])
    if not trace:
        for m in declared:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]


def test_fails_without_program_source(tmp_path):
    shutil.copy(SPEC_PATH, tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, rel), tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    workload = SPEC["workloads"][0]["name"]
    proc = _run(workload, 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
