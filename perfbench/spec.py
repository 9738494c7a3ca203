"""What the benchmark measures: workloads, metrics and the wrapped functions.

This module is the single source of `BENCHMARK.json` (see `render`), of the
metric names `run.py` prints and of the wrapper table the traced run
installs. It imports nothing from hiergan.
"""

from __future__ import annotations

import json

RUN_SECONDS = 30

WORKLOADS = [
    {
        "name": "train-treegan",
        "why": "headline mode: run_training in treegan mode, 400+400 steps and one 500-per-class checkpoint; "
        "every step runs the D step, the G step with the classifier penalty and the E step",
    },
    {
        "name": "eval-sweep",
        "why": "forward only: repeated metrics.evaluate at 500 per class with a new seed per call; "
        "no backward, Adam or embed work, so it bypasses every training-side change",
    },
    {
        "name": "cli-pipeline",
        "why": "the README's seven hiergan commands in one process into a fresh directory: dataset and "
        "checkpoint I/O, batch_iter-driven classifier training, seg-mode GAN training, hashing",
    },
]
WORKLOAD_NAMES = [w["name"] for w in WORKLOADS]

# Gated on every workload: a change may not worsen one by more than its bound.
# The workload-specific figures the benchmark also prints (stage step medians,
# eval images/s, artifact bytes) live on `info` lines, because a gated metric
# must exist on every workload.
# setup_s and wall_s are seconds scaled to the reference host (run.probe_host).
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.15},
]

TREEGAN, EVAL, CLI = WORKLOAD_NAMES
ALL = frozenset(WORKLOAD_NAMES)

# Functions the traced run wraps: (module, qualified name, span name, the
# workloads on which the wrapper must fire). A "{field}" in a span name is
# filled per call from the first argument: the trainer's stage, the train-clf
# resolution. Every namespace that bound a wrapped module-level function gets
# the wrapper.
WRAPS = [
    ("hiergan.autodiff", "Tape.backward", "autodiff.backward", {TREEGAN, CLI}),
    ("hiergan.autodiff", "adam_step", "autodiff.adam", {TREEGAN, CLI}),
    ("hiergan.autodiff", "save_checkpoint", "autodiff.checkpoint_save", {CLI}),
    ("hiergan.autodiff", "load_checkpoint", "autodiff.checkpoint_load", {CLI}),
    ("hiergan.models", "GeneratorStage1.forward", "models.g1_forward", ALL),
    ("hiergan.models", "GeneratorStage2.forward", "models.g2_forward", ALL),
    ("hiergan.models", "Discriminator.forward", "models.disc_forward", {TREEGAN, CLI}),
    ("hiergan.models", "HierClassifier.loss", "models.clf_loss", {TREEGAN, CLI}),
    ("hiergan.models", "HierClassifier.features", "models.clf_trunk", ALL),
    ("hiergan.models", "predict_paths", "models.predict_paths", ALL),
    ("hiergan.models", "train_classifier", "models.train_classifier", {CLI}),
    ("hiergan.embed", "sample_negatives", "embed.sample_negatives", {TREEGAN, CLI}),
    ("hiergan.embed", "margin_loss_graph", "embed.margin_graph", {TREEGAN, CLI}),
    ("hiergan.embed", "train_che", "embed.train_che", {CLI}),
    ("hiergan.training", "run_training", "training.run_training", {TREEGAN, CLI}),
    ("hiergan.training", "Trainer.joint_step", "training.joint_step.stage{stage}", {TREEGAN, CLI}),
    ("hiergan.training", "Trainer.real_batch", "training.real_batch", {TREEGAN, CLI}),
    ("hiergan.training", "generate_set", "metrics.generate_set", ALL),
    ("hiergan.metrics", "evaluate", "metrics.evaluate", ALL),
    ("hiergan.metrics", "feature_extract", "metrics.feature_extract", ALL),
    ("hiergan.metrics", "leaf_probabilities", "metrics.leaf_probabilities", ALL),
    ("hiergan.metrics", "consistency_rate", "metrics.consistency", ALL),
    ("hiergan.metrics", "fit_gaussian", "metrics.fit_gaussian", ALL),
    ("hiergan.metrics", "frechet_distance", "metrics.frechet", ALL),
    ("hiergan.synthdata", "generate_dataset", "synthdata.generate", {CLI}),
    ("hiergan.synthdata", "save_dataset", "synthdata.save", {CLI}),
    ("hiergan.synthdata", "load_dataset", "synthdata.load", {CLI}),
    ("hiergan.synthdata", "batch_iter", "synthdata.batch_iter", {CLI}),
    ("hiergan.cli", "cmd_gen_data", "cli.gen_data", {CLI}),
    ("hiergan.cli", "cmd_train_che", "cli.train_che", {CLI}),
    ("hiergan.cli", "cmd_train_clf", "cli.train_clf{resolution}", {CLI}),
    ("hiergan.cli", "cmd_train_gan", "cli.train_gan", {CLI}),
    ("hiergan.cli", "cmd_eval", "cli.eval", {CLI}),
    ("hiergan.cli", "cmd_inspect_embeddings", "cli.inspect_embeddings", {CLI}),
]
# Tape._emit is wrapped too, as a counter only (it sees every primitive op),
# and must fire on every workload.

# spans reported as self time and call count, per unit of work
SELF_TIMED = [
    span
    for _, _, span, _ in WRAPS
    if "{" not in span and not span.startswith("cli.") and span != "training.run_training"
]
CLI_COMMANDS = [
    "gen_data", "train_che", "train_clf8", "train_clf16", "train_gan", "eval", "inspect_embeddings"
]
OPS = [
    "matmul", "add", "concat", "slice", "leaky_relu", "relu", "sigmoid", "tanh",
    "bce_with_logits", "softmax_cross_entropy",
]


def _per_layer() -> list[dict]:
    out = []

    def add(name, unit, better="lower"):
        out.append({"name": name, "unit": unit, "better": better})

    for span in SELF_TIMED:
        add(f"{span}_ms", "ms")
        add(f"{span}_calls", "count")
    add("autodiff.records_emitted", "count")
    add("autodiff.records_backpropagated", "count")
    add("autodiff.record_use_ratio", "ratio", "higher")
    for op in OPS:
        add(f"autodiff.op_calls.{op}", "count")
    add("autodiff.checkpoint_bytes", "bytes")
    for stage in (1, 2):
        for phase in ("d", "g", "e"):
            add(f"training.stage{stage}_{phase}_phase_ms", "ms")
        add(f"training.stage{stage}_step_ms_p99", "ms")
    add("training.checkpoint_eval_ms", "ms")
    add("training.checkpoint_eval_calls", "count")
    for cmd in CLI_COMMANDS:
        add(f"cli.{cmd}_s", "s")
    add("trace_overhead_pct", "%")
    return out


PER_LAYER = _per_layer()


def render() -> str:
    """The text of BENCHMARK.json."""
    doc = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }
    return json.dumps(doc, indent=2) + "\n"
