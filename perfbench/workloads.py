"""The three workloads: set-up, one unit of timed work, and its checks.

Each workload is a closed loop: one caller in one process runs a unit, checks
it outside the timed region, and starts the next. The seed from the command
line drives the dataset, the classifiers, `TrainConfig.seed` and the eval
seeds, so the same seed gives the same inputs and the same outputs.

A unit is one `run_training` call (train-treegan), one `evaluate` call
(eval-sweep) or one seven-command pipeline (cli-pipeline). An operation,
counted in `attempted` and `failed`, is a joint step, an `evaluate` call or a
CLI command; an abort, a non-zero exit or a failed check counts as failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

# Timed calls go through the module attributes, which the traced run replaces.
import hiergan
import hiergan.cli
import hiergan.metrics
import hiergan.training
from hiergan.hierarchy import FIXTURE_TREE, parse_hierarchy
from hiergan.metrics import report_json
from hiergan.models import ClassifierConfig, HierClassifier, ModelConfig, train_classifier
from hiergan.synthdata import default_dataset_spec, generate_dataset
from hiergan.training import TrainConfig, trace_csv

SIZES = {
    # dataset and classifier settings are the package defaults, which the
    # acceptance suite's trend matrix also uses
    "full": {
        "samples_per_leaf": 200,
        "clf_epochs": 80,
        "steps_per_stage": 400,
        "eval_n_per_class": 500,
        "warm_steps": 50,
        "setups": 3,
        "cli_setups": 9,
        # After 400+400 steps seeds 0-45 reach 0.67-1.0, except seed 8 at
        # 0.187: the generator can collapse onto one leaf's path, which scores
        # 1/6. So the floor sits just below that chance level.
        "consistency_floor": 0.15,
        "cli": {
            "dataset": {"samples_per_leaf": 100},
            "che": {"epochs": 200},
            "classifier": {"epochs": 40},
            "gan": {"steps_per_stage": 100, "eval_every": 100, "eval_n_per_class": 100},
            "eval": {"n_per_class": 200},
        },
    },
    # for the smoke test: every code path, a second or two per workload
    "tiny": {
        "samples_per_leaf": 10,
        "clf_epochs": 1,
        "steps_per_stage": 3,
        "eval_n_per_class": 5,
        "warm_steps": 2,
        "setups": 2,
        "cli_setups": 2,
        "consistency_floor": 0.0,
        "cli": {
            "dataset": {"samples_per_leaf": 10},
            "che": {"epochs": 2},
            "classifier": {"epochs": 1},
            "gan": {"steps_per_stage": 2, "eval_every": 2, "eval_n_per_class": 4},
            "eval": {"n_per_class": 4},
        },
    },
}

TREE = parse_hierarchy(FIXTURE_TREE)


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


def _report_ok(report) -> bool:
    rows = list(report.per_leaf.values())
    return (
        _finite(report.avg_desk_fid, report.avg_desk_is, report.avg_consistency_rate)
        and all(_finite(r.desk_fid, r.desk_is, r.consistency_rate) for r in rows)
        and all(r.desk_fid >= 0 and 0.0 <= r.consistency_rate <= 1.0 for r in rows)
    )


def _tail_percentile(values: list[float]) -> tuple[int, float]:
    """The highest of p99/p95/p90 with at least ten samples beyond it."""
    for q in (99, 95, 90):
        if len(values) * (100 - q) / 100 >= 10:
            return q, statistics.quantiles(values, n=100)[q - 1]
    return 0, float("nan")


class Workload:
    min_units = 2

    def __init__(self, seed: int, size: str, out_dir: Path):
        self.seed = seed
        self.size = SIZES[size]
        self.setups = self.size["setups"]
        self.out_dir = out_dir
        out_dir.mkdir(parents=True, exist_ok=True)
        self.units_done = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # host probes of an untraced run (run.HostProbes), and per unit the
        # work already owed to them and the seconds they took inside it
        self.probes = None
        self.owed = 0.0
        self.probing = 0.0

    def fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)

    def owe(self, seconds: float) -> None:
        """Owe the host probes `seconds` of work from inside a unit."""
        if self.probes is not None:
            self.owed += seconds
            self.probing += self.probes.owe(seconds)

    def _prepare_classifiers(self):
        ds = generate_dataset(
            default_dataset_spec(TREE, samples_per_leaf=self.size["samples_per_leaf"], seed=self.seed)
        )
        cfg = ClassifierConfig(epochs=self.size["clf_epochs"], seed=self.seed)
        clfs = []
        for res in (8, 16):
            clf = HierClassifier.init(TREE, res * res, ModelConfig(), np.random.default_rng(cfg.seed))
            clfs.append(train_classifier(clf, ds, res, cfg))
        return ds, clfs

    def setup(self) -> None:
        raise NotImplementedError

    def unit(self):
        raise NotImplementedError

    def check(self, result) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that need every unit done."""

    def info(self, unit_times: list[float]) -> dict:
        return {}


class TrainTreegan(Workload):
    """run_training in treegan mode, stage 1 then stage 2, with one metric
    checkpoint at the last step (criterion 8's cadence)."""

    def __init__(self, *args):
        super().__init__(*args)
        self.step_times: list[tuple[int, float, float]] = []  # (stage, seconds, end less probes)
        self.train_seconds = 0.0
        self.trace_sha: str | None = None
        self.last_report = None
        self._time_joint_steps()

    def _time_joint_steps(self) -> None:
        # the one wrapper of the untraced run: two clock reads per ~10 ms step,
        # and a host probe after a step once a second of steps is owed, so
        # probes spread over a unit of ~10 s instead of bunching after it
        orig = hiergan.training.Trainer.joint_step
        times = self.step_times

        def joint_step(trainer, *args, **kwargs):
            t0 = time.perf_counter()
            out = orig(trainer, *args, **kwargs)
            t1 = time.perf_counter()
            # the end on a clock that leaves out this unit's probes so far
            times.append((trainer.stage, t1 - t0, t1 - self.probing))
            self.owe(t1 - t0)
            return out

        hiergan.training.Trainer.joint_step = joint_step

    def setup(self) -> None:
        self.dataset, (self.clf_lo, self.clf_hi) = self._prepare_classifiers()

    def unit(self):
        n = self.size["steps_per_stage"]
        cfg = TrainConfig(
            mode="treegan",
            steps_per_stage=n,
            eval_every=n,
            eval_n_per_class=self.size["eval_n_per_class"],
            seed=self.seed,
        )
        self._unit_start = time.perf_counter()
        self._first_step = len(self.step_times)
        return hiergan.training.run_training(self.dataset, TREE, cfg, self.clf_lo, self.clf_hi)

    def check(self, art) -> None:
        self.units_done += 1
        self.attempted += len(art.trace) + len(art.reports) + int(art.aborted)
        steps = self.step_times[self._first_step :]
        if steps:
            # training time ends with the last joint step, before the checkpoint evaluate
            self.train_seconds += steps[-1][2] - self._unit_start
        if art.aborted:
            self.fail(f"run aborted at step {art.abort_step}: {art.abort_reason}")
        if not all(_finite(r.d_loss, r.g_loss, r.h_penalty, r.che_loss) for r in art.trace):
            self.fail("non-finite loss in the trace")
        sha = hashlib.sha256(trace_csv(art.trace).encode()).hexdigest()
        if self.trace_sha is None:
            self.trace_sha = sha
        elif sha != self.trace_sha:
            self.fail(f"replay: trace.csv sha256 {sha} != {self.trace_sha}")
        if not art.reports:
            self.fail("no metric checkpoint")
            return
        report = art.reports[-1][1]
        self.last_report = report
        if not _report_ok(report):
            self.fail("checkpoint report has a non-finite or out-of-range value")
        if report.avg_consistency_rate < self.size["consistency_floor"]:
            self.fail(
                f"consistency {report.avg_consistency_rate:.3f} below the floor {self.size['consistency_floor']}"
            )

    def info(self, unit_times):
        out = {}
        if self.step_times and self.train_seconds > 0:
            out["train_steps_per_s"] = {"value": len(self.step_times) / self.train_seconds, "unit": "steps/s"}
        for stage in (1, 2):
            ms = [dt * 1e3 for s, dt, _ in self.step_times if s == stage]
            if not ms:
                continue
            out[f"stage{stage}_step_ms_p50"] = {"value": statistics.median(ms), "unit": "ms", "n": len(ms)}
            q, tail = _tail_percentile(ms)
            if q:
                out[f"stage{stage}_step_ms_p{q}"] = {"value": tail, "unit": "ms", "n": len(ms)}
        if self.last_report is not None:
            out["desk_fid"] = {"value": self.last_report.avg_desk_fid, "unit": "1"}
            out["consistency"] = {"value": self.last_report.avg_consistency_rate, "unit": "1"}
        out["trace_sha256"] = self.trace_sha
        return out


class EvalSweep(Workload):
    """Repeated metrics.evaluate at the CLI default of 500 per class, a new
    seed per call, on a model set that set-up trains briefly."""

    def __init__(self, *args):
        super().__init__(*args)
        self.first_json: str | None = None
        self.reports = []

    def setup(self) -> None:
        self.dataset, (clf_lo, clf_hi) = self._prepare_classifiers()
        n = self.size["warm_steps"]
        cfg = TrainConfig(mode="treegan", steps_per_stage=n, eval_every=n, eval_n_per_class=5, seed=self.seed)
        art = hiergan.training.run_training(self.dataset, TREE, cfg, clf_lo, clf_hi)
        if art.aborted:
            raise RuntimeError(f"set-up training aborted: {art.abort_reason}")
        self.models, self.table = art.models, art.table

    def _eval(self, i: int):
        return hiergan.metrics.evaluate(
            self.models,
            self.table,
            self.dataset,
            TREE,
            n_per_class=self.size["eval_n_per_class"],
            seed=self.seed * 1_000_000 + i,
        )

    def unit(self):
        return self._eval(self.units_done)

    def check(self, report) -> None:
        self.units_done += 1
        self.attempted += 1
        self.reports.append(report)
        if self.first_json is None:
            self.first_json = report_json(report)
        if not _report_ok(report):
            self.fail(f"evaluate call {self.units_done}: non-finite or out-of-range value")

    def finish(self) -> None:
        self.attempted += 1
        if report_json(self._eval(0)) != self.first_json:
            self.fail("replay: evaluate with the first seed gave a different report")

    def info(self, unit_times):
        images = len(TREE.leaves) * self.size["eval_n_per_class"]
        return {
            "eval_images_per_s": {"value": images / statistics.median(unit_times), "unit": "images/s"},
            "desk_fid": {"value": statistics.median(r.avg_desk_fid for r in self.reports), "unit": "1"},
            "consistency": {"value": statistics.median(r.avg_consistency_rate for r in self.reports), "unit": "1"},
        }


class CliPipeline(Workload):
    """The README sequence through hiergan.cli.main, in one process, into a
    fresh directory per unit. Paths are relative to that directory, so
    every pipeline must write byte-identical artifacts."""

    def __init__(self, *args):
        super().__init__(*args)
        self.setups = self.size["cli_setups"]
        self.work = Path(tempfile.mkdtemp(prefix="cli-", dir=self.out_dir))
        self.config = self.work / "config.json"
        self.reference: dict[str, str] | None = None
        self.command_times: dict[str, list[float]] = {}
        self.artifact_bytes = 0
        self.final_metrics = None

    def setup(self) -> None:
        # the config file, and the package import a user pays on every
        # command, in a fresh interpreter
        self.config.write_text(json.dumps(self.size["cli"], sort_keys=True))
        src = Path(hiergan.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        subprocess.run([sys.executable, "-c", "import hiergan.cli"], env=env, check=True)

    def _commands(self) -> list[tuple[str, list[str]]]:
        c, s = str(self.config), str(self.seed)
        common = ["--config", c, "--seed", s]
        return [
            ("gen_data", ["gen-data", *common, "--out", "data.hgds"]),
            ("train_che", ["train-che", *common, "--out", "che.hgck"]),
            ("train_clf8", ["train-clf", *common, "--data", "data.hgds", "--resolution", "8", "--out", "clf8.hgck"]),
            ("train_clf16", ["train-clf", *common, "--data", "data.hgds", "--resolution", "16", "--out", "clf16.hgck"]),
            ("train_gan", [
                "train-gan", *common, "--mode", "seg", "--data", "data.hgds", "--clf8", "clf8.hgck",
                "--clf16", "clf16.hgck", "--embeddings", "che.hgck", "--out", "run",
            ]),
            ("eval", ["eval", *common, "--run", "run", "--data", "data.hgds", "--out", "metrics.csv"]),
            ("inspect_embeddings", [
                "inspect-embeddings", "--embeddings", "run/embeddings.hgck", "--out", "similarity.csv",
            ]),
        ]

    def unit(self):
        d = Path(tempfile.mkdtemp(prefix="pipeline-", dir=self.work))
        codes = {}
        here = os.getcwd()
        os.chdir(d)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                for name, argv in self._commands():
                    t0 = time.perf_counter()
                    codes[name] = hiergan.cli.main(argv)
                    self.command_times.setdefault(name, []).append(time.perf_counter() - t0)
                    self.owe(self.command_times[name][-1])
        finally:
            os.chdir(here)
        return d, codes

    def check(self, result) -> None:
        d, codes = result
        self.units_done += 1
        self.attempted += len(self._commands())
        for name, code in codes.items():
            if code != 0:
                self.fail(f"{name} exited with {code}")
        files = sorted(p for p in d.rglob("*") if p.is_file())
        artifacts = {str(p.relative_to(d)): hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
        self.artifact_bytes = sum(p.stat().st_size for p in files)
        metrics_json = d / "metrics.json"
        if metrics_json.is_file():
            self.final_metrics = json.loads(metrics_json.read_text())["average"]
        if self.reference is None:
            self.reference = artifacts
        elif artifacts != self.reference:
            changed = sorted(k for k in set(artifacts) | set(self.reference) if artifacts.get(k) != self.reference.get(k))
            self.fail(f"pipeline {self.units_done} artifacts differ from the first: {changed}")
        shutil.rmtree(d)

    def finish(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def info(self, unit_times):
        out = {"artifact_bytes": {"value": self.artifact_bytes, "unit": "bytes"}}
        for name, times in self.command_times.items():
            out[f"{name}_s"] = {"value": statistics.median(times), "unit": "s"}
        if self.final_metrics:
            out["desk_fid"] = {"value": self.final_metrics["desk_fid"], "unit": "1"}
            out["consistency"] = {"value": self.final_metrics["consistency_rate"], "unit": "1"}
        return out


WORKLOADS = {"train-treegan": TrainTreegan, "eval-sweep": EvalSweep, "cli-pipeline": CliPipeline}
