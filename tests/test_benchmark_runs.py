"""Every workload of the benchmark runs, at tiny size, against src/.

The benchmark (perfbench/) calls into the package by name: a rename in src/
of anything it uses would otherwise show only when the benchmark is run.
This runs each workload that BENCHMARK.json declares, untraced, as

    python3 perfbench/run.py --workload W --seed 3 --seconds 0.2 --trace 0 --size tiny --out DIR

and reads its last line of standard output, one JSON object.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_workload_runs_and_checks_out(workload, tmp_path):
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "0.2",
        "--trace", "0", "--size", "tiny", "--out", str(tmp_path),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
