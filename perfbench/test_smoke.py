"""Smoke self-test: a tiny version of every workload, in both modes, must
print every metric BENCHMARK.json names, with its unit.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_present_with_unit(workload, trace):
    facts, result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = result["metrics"]
    assert set(got) == {m["name"] for m in expected}
    for m in expected:
        assert got[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(got[m["name"]]["value"], (int, float)), m["name"]
    assert facts["seed"] == 5 and facts["workload"] == workload
    assert {"nproc", "cpu_model", "commit", "python", "numpy", "scipy"} <= set(facts["machine"])
    if trace:
        assert facts["closure_ok"], facts
    else:
        for m in expected:
            assert got[m["name"]]["value"] > 0, m["name"]


def test_refuses_to_run_without_sources():
    with tempfile.TemporaryDirectory(dir=ROOT) as bare:
        bench = Path(bare) / "perfbench"
        bench.mkdir()
        for f in (ROOT / "perfbench").glob("*.py"):
            (bench / f.name).write_text(f.read_text(encoding="utf-8"), encoding="utf-8")
        (Path(bare) / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ref256",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
