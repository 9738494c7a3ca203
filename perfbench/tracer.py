"""Spans around hiergan's public functions, recorded from outside the package.

`Tracer.install` replaces each function in `spec.WRAPS` with a wrapper that
records a span (name, start, end, parent) in memory. A module-level function
is replaced in every hiergan namespace that bound it (`adam_step` lives in
autodiff, models, embed and training), a method on its class. A function a
later change removed is reported as absent rather than crashing the run.
`Tape._emit` gets a counting wrapper (op calls and tape records, no span).

Self time of a span is its duration minus the durations of its children;
calls in one thread nest, so children never overlap.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import os
import statistics
import sys
import time

from spec import ALL, CLI_COMMANDS, OPS, SELF_TIMED, WRAPS

_now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.calls: collections.Counter = collections.Counter()  # per wrapped function
        self.op_calls: collections.Counter = collections.Counter()
        self.records_emitted = 0
        self.records_backpropagated = 0
        self.checkpoint_bytes = 0
        self.absent: list[str] = []
        self.required: dict[str, set] = {}

    # ----------------------------------------------------------- spans

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(_now())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = _now()
        self._stack.pop()

    def self_times(self) -> list[int]:
        child = [0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        return [self.ends[i] - self.starts[i] - child[i] for i in range(len(self.names))]

    def write_spans(self, path) -> None:
        self_ns = self.self_times()
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_ns,end_ns,self_ns\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{self.parents[i]},{name},{self.starts[i]},{self.ends[i]},{self_ns[i]}\n")

    # -------------------------------------------------------- wrapping

    def _span_wrapper(self, fn, key: str, span: str):
        tracer = self
        if "{" in span:
            name_of = lambda args: span.format_map(vars(args[0]))  # noqa: E731
        else:
            name_of = lambda args: span  # noqa: E731
        post = {
            "hiergan.autodiff.Tape.backward": self._count_backprop,
            "hiergan.autodiff.save_checkpoint": self._count_checkpoint,
        }.get(key)

        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so only the time spent producing items counts
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tracer.calls[key] += 1
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer.begin(span)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.end(idx)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[key] += 1
            idx = tracer.begin(name_of(args))
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if post is not None:
                post(args)
            return out

        return wrapper

    def _count_backprop(self, args) -> None:
        self.records_backpropagated += len(args[0])

    def _count_checkpoint(self, args) -> None:
        self.checkpoint_bytes += os.path.getsize(args[0])

    def _emit_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def emit(tape, op, *args, **kwargs):
            tracer.calls["hiergan.autodiff.Tape._emit"] += 1
            tracer.op_calls[op] += 1
            before = len(tape)
            out = fn(tape, op, *args, **kwargs)
            tracer.records_emitted += len(tape) - before
            return out

        return emit

    def install(self) -> None:
        """Wrap every function of spec.WRAPS that still exists."""
        entries = WRAPS + [("hiergan.autodiff", "Tape._emit", None, ALL)]
        for module_name, *_ in entries:
            importlib.import_module(module_name)
        modules = [m for n, m in sys.modules.items() if n == "hiergan" or n.startswith("hiergan.")]
        for module_name, qualname, span, required in entries:
            key = f"{module_name}.{qualname}"
            owner = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            try:
                for part in path:
                    owner = getattr(owner, part)
                fn = inspect.getattr_static(owner, attr)
            except AttributeError:
                self.absent.append(key)
                continue
            self.required[key] = set(required)
            wrapped = self._emit_wrapper(fn) if span is None else self._span_wrapper(fn, key, span)
            if path:
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, name, wrapped)

    def unfired(self, workload: str) -> list[str]:
        """Wrappers that never fired on a workload where they must."""
        return sorted(k for k, req in self.required.items() if workload in req and not self.calls[k])

    # --------------------------------------------------------- metrics

    def per_layer(self, units: int) -> dict[str, float]:
        """Per-layer metrics, per unit of work (one training run, one
        evaluate call or one pipeline), from the recorded spans."""
        self_ns = self.self_times()
        self_total: dict[str, int] = collections.Counter()
        count: dict[str, int] = collections.Counter()
        durations: dict[str, list[int]] = collections.defaultdict(list)
        for i, name in enumerate(self.names):
            self_total[name] += self_ns[i]
            count[name] += 1
            durations[name].append(self.ends[i] - self.starts[i])

        out: dict[str, float] = {}
        for span in SELF_TIMED:
            out[f"{span}_ms"] = self_total[span] / 1e6 / units
            out[f"{span}_calls"] = count[span] / units
        out["autodiff.records_emitted"] = self.records_emitted / units
        out["autodiff.records_backpropagated"] = self.records_backpropagated / units
        out["autodiff.record_use_ratio"] = (
            self.records_backpropagated / self.records_emitted if self.records_emitted else 1.0
        )
        for op in OPS:
            out[f"autodiff.op_calls.{op}"] = self.op_calls[op] / units
        out["autodiff.checkpoint_bytes"] = self.checkpoint_bytes / units

        phases = self._phases()
        for stage in (1, 2):
            for p, phase in enumerate("dge"):
                out[f"training.stage{stage}_{phase}_phase_ms"] = phases[stage][p] / 1e6 / units
            steps = durations.get(f"training.joint_step.stage{stage}", [])
            out[f"training.stage{stage}_step_ms_p99"] = _p99(steps) / 1e6

        checkpoint = [
            self.ends[i] - self.starts[i]
            for i, name in enumerate(self.names)
            if name == "metrics.evaluate"
            and self.parents[i] >= 0
            and self.names[self.parents[i]] == "training.run_training"
        ]
        out["training.checkpoint_eval_ms"] = sum(checkpoint) / 1e6 / units
        out["training.checkpoint_eval_calls"] = len(checkpoint) / units
        for cmd in CLI_COMMANDS:
            out[f"cli.{cmd}_s"] = sum(durations.get(f"cli.{cmd}", [])) / 1e9 / units
        return out

    def _phases(self) -> dict[int, list[int]]:
        """Per stage, total D, G and E phase time: each phase ends when the
        1st, 2nd or 3rd adam_step inside a joint_step span returns."""
        adam_ends: dict[int, list[int]] = collections.defaultdict(list)
        for i, name in enumerate(self.names):
            if name == "autodiff.adam" and self.parents[i] >= 0:
                adam_ends[self.parents[i]].append(self.ends[i])
        totals = {1: [0, 0, 0], 2: [0, 0, 0]}
        for i, name in enumerate(self.names):
            if not name.startswith("training.joint_step.stage"):
                continue
            stage = int(name[-1])
            marks = [self.starts[i]] + adam_ends.get(i, [])[:3]
            for p in range(len(marks) - 1):
                totals[stage][p] += marks[p + 1] - marks[p]
        return totals


def _p99(values: list[int]) -> float:
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100)[98]
