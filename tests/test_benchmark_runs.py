"""Every workload of the benchmark runs, at tiny size, against src/.

The benchmark (perfbench/) calls into the package by name: a rename in src/
of anything it uses would otherwise show only when the benchmark is run.
This runs each workload that BENCHMARK.json declares, untraced, as

    python3 perfbench/run.py --workload W --seed 3 --seconds 0.2 --trace 0 --size tiny --out DIR

and reads its last line of standard output, one JSON object. The traced
run also wraps hiergan's functions by name (perfbench/spec.py WRAPS); the
checks below resolve every one of those names, except a listed few that src/
no longer has, and keep the calling shape of the CLI handlers and of the
joint step that the untraced run times. The traced run also counts records
by op name (perfbench/spec.py OPS); a check below compares those names with
the op names src/ emits.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

import hiergan.cli as cli

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


def _perfbench_spec():
    """perfbench/spec.py, loaded from its file; it imports nothing from hiergan."""
    loader = importlib.util.spec_from_file_location("perfbench_spec", ROOT / "perfbench" / "spec.py")
    spec = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(spec)
    return spec


def test_benchmark_cli_hooks_resolve_and_see_the_parsed_args(tmp_path, monkeypatch):
    spans = {qualname: span for module, qualname, span, _ in _perfbench_spec().WRAPS if module == "hiergan.cli"}
    assert spans
    for qualname in spans:
        assert callable(inspect.getattr_static(cli, qualname)), qualname
    # a span name is formatted from the fields of the handler's first argument
    args = cli.build_parser().parse_args(["train-clf", "--data", "d", "--resolution", "8", "--out", "c"])
    assert args.handler is cli.cmd_train_clf
    assert spans["cmd_train_clf"].format_map(vars(args)) == "cli.train_clf8"
    # the wrapper replaces the module's name and must see the parsed args first
    monkeypatch.chdir(tmp_path)
    Path("c.json").write_text('{"che": {"epochs": 1}}')
    assert cli.main(["train-che", "--config", "c.json", "--out", "che.hgck"]) == 0
    calls = []
    handler = cli.cmd_inspect_embeddings

    def recording(*args, **kwargs):
        calls.append(args)
        return handler(*args, **kwargs)

    monkeypatch.setattr(cli, "cmd_inspect_embeddings", recording)
    assert cli.main(["inspect-embeddings", "--embeddings", "che.hgck", "--out", "sim.csv"]) == 0
    assert len(calls) == 1
    assert calls[0][0].command == "inspect-embeddings" and calls[0][0].embeddings == "che.hgck"
    assert Path("sim.csv").is_file()


# WRAPS entries naming what src/ renamed, moved or deleted: a traced run
# lists them as absent. A benchmark change that repoints one removes it here.
STALE_WRAPS = {
    ("hiergan.autodiff", "adam_step"),
    ("hiergan.autodiff", "save_checkpoint"),
    ("hiergan.autodiff", "load_checkpoint"),
    ("hiergan.models", "GeneratorStage1.forward"),
    ("hiergan.models", "GeneratorStage2.forward"),
    ("hiergan.models", "Discriminator.forward"),
    ("hiergan.models", "predict_paths"),
    ("hiergan.training", "generate_set"),
    ("hiergan.metrics", "feature_extract"),
    ("hiergan.metrics", "leaf_probabilities"),
}


def _resolve(module: str, qualname: str):
    """The object a WRAPS entry names, found without running descriptors."""
    obj = importlib.import_module(module)
    for part in qualname.split("."):
        obj = inspect.getattr_static(obj, part)
    return obj


def test_benchmark_wraps_resolve_but_the_known_stale_ones():
    wraps = {(module, qualname) for module, qualname, _, _ in _perfbench_spec().WRAPS}
    assert STALE_WRAPS <= wraps
    for module, qualname in sorted(wraps - STALE_WRAPS):
        assert callable(_resolve(module, qualname)), f"{module}.{qualname}"
    for module, qualname in sorted(STALE_WRAPS):
        with pytest.raises(AttributeError):
            _resolve(module, qualname)
    # the untraced train-treegan run times every step through this wrapper
    joint_step = _resolve("hiergan.training", "Trainer.joint_step")
    assert list(inspect.signature(joint_step).parameters) == ["self", "real_images", "y", "z"]


# OPS names that src/ emits no record under: their counters read 0. The
# activations are part of the linear record.
STALE_OPS = {"matmul", "tanh", "concat", "slice", "relu", "leaky_relu", "sigmoid"}
# op names src/ emits that OPS does not count.
UNCOUNTED_OPS = {"linear", "scale", "che_margin", "condition"}


def test_benchmark_op_counters_match_the_ops_src_emits_but_the_known_gaps():
    # an op name that is not a literal would read as None
    emitted = {
        getattr(node.args[0], "value", None)
        for path in (ROOT / "src" / "hiergan").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "_emit"
    }
    assert emitted == {
        "linear", "add", "scale", "bce_with_logits", "softmax_cross_entropy", "che_margin", "condition",
    }
    counted = set(_perfbench_spec().OPS)
    assert counted - emitted == STALE_OPS
    assert emitted - counted == UNCOUNTED_OPS
