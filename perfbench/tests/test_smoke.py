"""Smoke test of the benchmark at tiny size.

    python3 -m pytest perfbench/tests -q

Every workload runs once untraced and once traced. The untraced run must
print each end-to-end metric with its unit and the workload's own figures;
the traced run must report every per-layer metric and write spans whose self
time plus child time equals each span's duration.
"""

from __future__ import annotations

import collections
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spec  # noqa: E402

WORKLOAD_FIGURES = {
    "train-treegan": {"train_steps_per_s": "steps/s", "stage1_step_ms_p50": "ms", "stage2_step_ms_p50": "ms"},
    "eval-sweep": {"eval_images_per_s": "images/s"},
    "cli-pipeline": {"artifact_bytes": "bytes"},
}


def bench(workload: str, trace: int, out: Path, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "0.2",
        "--trace", str(trace), "--size", "tiny", "--out", str(out),
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    info = {}
    for line in lines:
        if line.startswith("info "):
            name, value = line[len("info "):].split(" = ", 1)
            info[name] = json.loads(value)
    return result, {"lines": lines, "info": info}


@pytest.mark.parametrize("workload", spec.WORKLOAD_NAMES)
def test_untraced_run_prints_every_end_to_end_metric(workload, tmp_path):
    result, printed = parse(bench(workload, 0, tmp_path))
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec.END_TO_END}
    for m in spec.END_TO_END:
        value = result["metrics"][m["name"]]["value"]
        assert value > 0
        assert f"{m['name']} = {value!r} {m['unit']}" in printed["lines"]
    for name, unit in WORKLOAD_FIGURES[workload].items():
        assert printed["info"][name]["unit"] == unit
        assert printed["info"][name]["value"] > 0


@pytest.mark.parametrize("workload", spec.WORKLOAD_NAMES)
def test_traced_run_reports_layers_and_consistent_spans(workload, tmp_path):
    result, printed = parse(bench(workload, 1, tmp_path))
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec.PER_LAYER}
    assert printed["info"]["absent"] == []

    rows = (tmp_path / f"spans-{workload}-seed3.csv").read_text().splitlines()
    assert rows[0] == "id,parent,name,start_ns,end_ns,self_ns"
    spans = {}
    for row in rows[1:]:
        idx, parent, name, start, end, self_ns = row.split(",")
        spans[int(idx)] = (int(parent), name, int(start), int(end), int(self_ns))
    children = collections.defaultdict(int)
    for parent, _, start, end, _ in spans.values():
        if parent >= 0:
            p_start, p_end = spans[parent][2], spans[parent][3]
            assert p_start <= start <= end <= p_end
            children[parent] += end - start
    for idx, (_, _, start, end, self_ns) in spans.items():
        assert self_ns >= 0
        assert self_ns + children[idx] == end - start
    # every wrapper that must fire on this workload made spans
    names = {s[1] for s in spans.values()}
    for _, _, span, required in spec.WRAPS:
        if workload in required and "{" not in span:
            assert span in names, span


def test_deleted_function_is_reported_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import tracer

    monkeypatch.setattr(tracer, "WRAPS", [
        ("hiergan.models", "no_such_function", "models.gone", spec.ALL),
        ("hiergan.models", "HierClassifier.no_such_method", "models.gone", spec.ALL),
    ])
    t = tracer.Tracer()
    t.install()
    assert t.absent == ["hiergan.models.no_such_function", "hiergan.models.HierClassifier.no_such_method"]
    assert t.unfired("eval-sweep") == ["hiergan.autodiff.Tape._emit"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = bench("eval-sweep", 0, tmp_path / "out", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_matches_spec():
    assert (ROOT / "BENCHMARK.json").read_text() == spec.render()
