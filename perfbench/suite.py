"""Run every workload untraced, check it, and record the baseline.

    python3 perfbench/suite.py [--seeds 0 1] [--seconds 30]

Run it from the repository root. Each run is a fresh process of `run.py`:
every workload untraced on each seed, then traced on the first seed. The
suite prints every end-to-end metric and workload-specific figure by name and
unit, writes `BENCHMARK.json` from `spec.py`, and writes the machine block and
every run's numbers to `perfbench/baseline.json`. It exits 1 if any run
failed a check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import spec  # noqa: E402

BASELINE = run.ROOT / "perfbench" / "baseline.json"


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, str(run.ROOT / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = {"exit": proc.returncode, "info": {}, "problems": []}
    for line in lines[:-1]:
        if line.startswith("info "):
            name, value = line[len("info "):].split(" = ", 1)
            result["info"][name] = json.loads(value)
        elif line.startswith("CHECK FAILED: "):
            result["problems"].append(line[len("CHECK FAILED: "):])
    try:
        result.update(json.loads(lines[-1]))
    except (IndexError, json.JSONDecodeError):
        result.update(correct=False, problems=result["problems"] + [proc.stderr.strip()[-2000:]])
    return result


def git_commit() -> str:
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--", "src"], cwd=run.ROOT, capture_output=True, text=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return head + ("+uncommitted-src" if dirty else "")


def show(workload: str, label: str, result: dict) -> None:
    ok = "ok" if result.get("correct") and result["exit"] == 0 else "FAILED"
    print(f"\n[{workload} {label}] checks {ok}: attempted {result.get('attempted')} failed {result.get('failed')}")
    for problem in result["problems"]:
        print(f"  check failed: {problem}")
    for name, m in result.get("metrics", {}).items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    for name, value in result["info"].items():
        if isinstance(value, dict) and "value" in value:
            n = f" (n={value['n']})" if "n" in value else ""
            print(f"  {name:44s} {value['value']:.6g} {value['unit']}{n}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    args = p.parse_args(argv)

    run.blas_threads()
    machine = run.machine(cpu_model=True) | {"commit": git_commit()}
    print("machine", json.dumps(machine))
    (run.ROOT / "BENCHMARK.json").write_text(spec.render())

    baseline = {"machine": machine, "run_seconds": args.seconds, "workloads": {}}
    all_ok = True
    for workload in spec.WORKLOAD_NAMES:
        runs = {}
        for seed in args.seeds:
            runs[f"seed{seed}"] = run_once(workload, seed, args.seconds, 0)
        runs[f"traced_seed{args.seeds[0]}"] = run_once(workload, args.seeds[0], args.seconds, 1)
        for label, result in runs.items():
            show(workload, label, result)
            all_ok &= bool(result.get("correct")) and result["exit"] == 0
        baseline["workloads"][workload] = runs
    BASELINE.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote BENCHMARK.json and {BASELINE.relative_to(run.ROOT)}; checks {'ok' if all_ok else 'FAILED'}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
