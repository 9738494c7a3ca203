"""Run one benchmark workload against the hiergan package in ./src.

    python3 perfbench/run.py --workload train-treegan --seed 0 --seconds 30 --trace 0

Run it from the repository root. Set-up runs several times and reports its
median; then units of work repeat, each checked, for about `--seconds`.
With `--trace 0` the run reports the end-to-end metrics of `spec.END_TO_END`,
times scaled to the reference host by `probe_host` (raw times and
workload-specific figures go on `info` lines). With `--trace 1` it
spends half the time untraced and half with every wrapper of `spec.WRAPS`
installed, reports the per-layer metrics of `spec.PER_LAYER` per unit of
work, and writes the spans to `<out>/spans-<workload>-seed<n>.csv`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The exit code is 0 when every
check passed, 1 when one failed, 2 when the package is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

# the benchmark's own modules, found also when the interpreter does not put
# the script's directory on sys.path (PYTHONSAFEPATH, -P)
sys.path.insert(0, str(Path(__file__).resolve().parent))
import spec  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=spec.WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for the smoke test")
    p.add_argument("--out", type=Path, default=ROOT / "perfbench" / "out", help="spans and scratch files")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def blas_threads() -> str:
    """Pin BLAS to one thread and return the setting; must run before numpy
    is imported. On an idle 2-CPU host one thread gave the same joint-step
    medians as two (matrices are at most 64x288 @ 288x128); with one other
    busy process, two BLAS threads made joint steps 2-20x slower and erratic."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return os.environ["OPENBLAS_NUM_THREADS"]


def machine(cpu_model: bool = False) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    out = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }
    if cpu_model:
        out["cpu_model"] = "unknown"
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    out["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    return out


# The probe's time on the reference host (2-CPU Xeon, numpy 2.4.6, OpenBLAS
# 0.3.31 on one thread)
PROBE_REF_S = 0.029


def probe_host() -> float:
    """Seconds for a fixed loop in two halves shaped like a joint step: BLAS
    work (matmuls of the generator's sizes, leaky ReLU forward and backward,
    finite checks) and interpreter work (many small numpy ops kept in a list
    of dict records, as a tape does). The host's slow spells slow the two
    halves by different amounts, and their sum tracked the joint step better
    than either half: over 14 processes each interleaving probes with joint
    steps, the step time over the probe time spread 3.5% between quartiles,
    against 6% for the BLAS half alone and 7% for the raw step time. It is
    benchmark code, so its time moves with the speed of the shared host and
    never with the program."""
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.standard_normal((64, 288))
    w1 = rng.standard_normal((288, 128)) * 0.05
    w2 = rng.standard_normal((128, 64)) * 0.05
    v = rng.standard_normal((64, 32))
    w3 = rng.standard_normal((32, 32)) * 0.1
    t0 = time.perf_counter()
    for _ in range(30):
        h = x @ w1
        a = np.where(h > 0, h, 0.2 * h)
        g = a @ w2 - 1.0
        gh = g @ w2.T
        grads = {"w1": x.T @ np.where(h > 0, gh, 0.2 * gh), "w2": a.T @ g}
        for name in sorted(grads):
            if not np.all(np.isfinite(grads[name])):
                raise ArithmeticError("probe produced non-finite values")
    records = []
    for i in range(750):
        out = np.maximum(v @ w3, 0.0)
        records.append({"op": "linear", "out": out, "index": i})
        if len(records) > 20:
            v = v + 1e-3 * records.pop(0)["out"]
    if not np.all(np.isfinite(v)):
        raise ArithmeticError("probe produced non-finite values")
    return time.perf_counter() - t0


class HostProbes:
    """Probe times spread over a run: `owe(seconds)` after each set-up and
    unit, one probe per second of work owed. A workload whose units last
    many seconds also owes from inside a unit (see `Workload.owe`), so its
    probes sample the host while the unit runs, not only between units."""

    def __init__(self):
        self.times = [probe_host()]
        self._owed = 0.0

    def owe(self, seconds: float) -> float:
        """Probe for each whole second owed; return the seconds spent."""
        start = time.perf_counter()
        self._owed += seconds
        while self._owed >= 1.0:
            self.times.append(probe_host())
            self._owed -= 1.0
        return time.perf_counter() - start

    def speed(self) -> float:
        """Reference-host seconds per second on this host during the run."""
        return PROBE_REF_S / statistics.median(self.times)


def measure(wl, seconds: float, min_units: int, tracer=None, probes=None) -> list[float]:
    """Run checked units until the next one would end past `seconds`."""
    times: list[float] = []
    wl.probes = probes
    start = time.perf_counter()
    while True:
        wl.owed = wl.probing = 0.0
        idx = tracer.begin("bench.unit") if tracer else None
        t0 = time.perf_counter()
        result = wl.unit()
        t1 = time.perf_counter()
        if tracer:
            tracer.end(idx)
        # probes run inside the unit are not its work
        times.append(t1 - t0 - wl.probing)
        wl.check(result)
        if probes is not None:
            probes.owe(times[-1] - wl.owed)
        if len(times) >= min_units and (time.perf_counter() - start) + (t1 - t0) > seconds:
            return times


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "hiergan" / "__init__.py").is_file():
        print(f"error: no hiergan package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import hiergan

    if Path(hiergan.__file__).resolve().parent != ROOT / "src" / "hiergan":
        print(f"error: imported hiergan from {hiergan.__file__}, not from ./src", file=sys.stderr)
        return 2
    from tracer import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.size, args.out)
    print(f"machine {json.dumps(machine())}", flush=True)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} size {args.size}; "
          f"one process, one caller, BLAS threads {threads}", flush=True)

    probe_host()  # warm-up, not counted
    probes = HostProbes()
    setup_times = []
    for _ in range(wl.setups):
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)
        probes.owe(setup_times[-1])

    if args.trace == 0:
        unit_times = measure(wl, args.seconds, wl.min_units, probes=probes)
        wl.finish()
        speed = probes.speed()
        metrics = {
            "setup_s": statistics.median(setup_times) * speed,
            "wall_s": statistics.median(unit_times) * speed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {m["name"]: m["unit"] for m in spec.END_TO_END}
        info = wl.info(unit_times)
        info["units"] = len(unit_times)
        info["setup_raw_s"] = {"value": statistics.median(setup_times), "unit": "s"}
        info["wall_raw_s"] = {"value": statistics.median(unit_times), "unit": "s"}
        info["host_probe_ms"] = {
            "value": statistics.median(probes.times) * 1e3, "unit": "ms", "n": len(probes.times)
        }
    else:
        plain = measure(wl, args.seconds / 2, 1)
        tracer = Tracer()
        tracer.install()
        traced = measure(wl, args.seconds / 2, 1, tracer)
        wl.finish()
        metrics = tracer.per_layer(len(traced))
        metrics["trace_overhead_pct"] = (statistics.median(traced) / statistics.median(plain) - 1) * 100
        units = {m["name"]: m["unit"] for m in spec.PER_LAYER}
        for key in tracer.unfired(args.workload):
            wl.fail(f"wrapper {key} never fired")
        info = {
            "units": {"untraced": len(plain), "traced": len(traced)},
            "wrapper_calls": dict(sorted(tracer.calls.items())),
            "absent": tracer.absent,
            "spans": len(tracer.names),
        }
        spans = args.out / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.write_spans(spans)
        print(f"spans written to {spans}")

    for name, value in info.items():
        print(f"info {name} = {json.dumps(value)}")
    for problem in wl.problems:
        print(f"CHECK FAILED: {problem}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]!r} {unit}")
    correct = wl.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
