"""Self-checks of the benchmark: every metric in BENCHMARK.json is emitted
with its unit, a traced run reproduces the untraced run's outputs bit for
bit, and the command refuses to run without the program's sources.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, cwd=ROOT, seed=3):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", "0.5", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reproduces_untraced_and_emits_every_metric(workload):
    runs = {}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = bench(workload, trace)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == units(section)
        if not trace:
            assert all(m["value"] > 0 for m in result["metrics"].values())
        runs[trace] = next(line for line in lines if "block0_outputs=" in line).split("block0_outputs=")[1]
        if trace:
            assert "reproduces untraced block 0: True" in done.stdout
    # two processes, one seed: the traced outputs match the untraced ones
    assert runs[0] == runs[1]


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
