"""Smoke test of the benchmark harness at a tiny op count.

Run from the repository root with ``python -m pytest bench/test_smoke.py``.
It checks that every metric BENCHMARK.json names is printed with its unit,
that no op fails its check, and that the benchmark refuses to produce a
result when the tlsphot sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd, workload, trace, ops=2):
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace),
           "--ops", str(ops)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_and_no_op_fails(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == 2
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = result["metrics"]
    assert set(got) == {m["name"] for m in expected}
    for m in expected:
        assert got[m["name"]]["unit"] == m["unit"]
        assert isinstance(got[m["name"]]["value"], (int, float))
        # the human-readable report names each metric with its unit
        assert any(line.split()[:1] == [m["name"]]
                   and line.split()[-1] == m["unit"] for line in lines)
    assert any(line.strip().startswith("error_rate 0 (0/2)")
               for line in lines)
    if trace and workload == "scalar-sweep":
        for name, metric in got.items():
            if name.startswith(("states.", "modeops.")):
                assert metric["value"] == 0, name


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    cmd = SPEC["command"] + ["--workload", WORKLOADS[0], "--seed", "0",
                             "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
