"""Command-line pipeline: dataset generation through evaluation.

Subcommands mirror the pipeline stages: gen-data, train-che, train-clf,
train-gan, eval, inspect-embeddings. Every command accepts an optional JSON
config file (--config) with sections hierarchy / dataset / che / classifier /
gan / eval; all fields are optional and unknown keys are rejected so a typo in
a weight name fails loudly instead of silently training the wrong thing.
--seed overrides the relevant section's seed.

Each output location is guarded by a lock file for the duration of the run,
so concurrent invocations must target disjoint output paths, and a command
whose outputs resolve to one of its inputs or to each other is refused
before any work. Alongside every output a manifest records the verbatim
config, the effective settings, and sha256 checksums of all inputs; no
timestamps, so reruns are byte-identical.

Exit codes: 0 success, 1 usage or config error, 2 runtime failure.
HIERGAN_LOG={debug,info,warning,error} controls log verbosity (default
warning); logs go to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import logging
import math
import os
import sys
import typing
from pathlib import Path

import numpy as np

from .autodiff import NonFiniteError
from .embed import (
    CheConfig,
    EmbeddingError,
    load_table,
    ranking_accuracy,
    save_table,
    sibling_similarity_gap,
    similarity_csv,
    train_che,
)
from .files import CheckpointError, write_atomic
from .hierarchy import FIXTURE_TREE, HierarchyError, parse_hierarchy
from .metrics import MetricsError, evaluate, report_csv, report_json
from .models import (
    ClassifierConfig,
    HierClassifier,
    ModelConfig,
    ModelError,
    evaluate_classifier,
    load_classifier,
    load_models,
    save_classifier,
    train_classifier,
)
from .synthdata import (
    DatasetError,
    DatasetSpec,
    default_dataset_spec,
    generate_dataset,
    load_dataset,
    save_dataset,
)
from .training import (
    TrainConfig,
    TrainingError,
    check_run_target,
    run_training,
    save_run,
)

log = logging.getLogger("hiergan")


class CliError(Exception):
    """Usage or configuration problem; maps to exit code 1."""


# ------------------------------------------------------------------- config

def _fields(cls, *drop: str) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)} - set(drop)


_SECTION_KEYS = {
    "hierarchy": {"text", "path"},
    # the hierarchy section sets the dataset's hierarchy
    "dataset": _fields(DatasetSpec, "hierarchy"),
    "che": _fields(CheConfig),
    "classifier": _fields(ClassifierConfig),
    # mode comes from the --mode flag only, never from the file
    "gan": _fields(TrainConfig, "mode"),
    "eval": {"n_per_class", "seed"},
}


def load_config(path: str | None) -> dict:
    """Parse and key-check the JSON config; {} when --config is omitted."""
    if path is None:
        return {}
    try:
        raw = json.loads(_read_text(path))
    except json.JSONDecodeError as err:
        raise CliError(f"config {path} is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise CliError(f"config {path} must be a JSON object")
    unknown = set(raw) - set(_SECTION_KEYS)
    if unknown:
        raise CliError(
            f"config {path} has unknown sections {sorted(unknown)}; "
            f"expected some of {sorted(_SECTION_KEYS)}"
        )
    for name, allowed in _SECTION_KEYS.items():
        section = raw.get(name, {})
        if not isinstance(section, dict):
            raise CliError(f"config section {name!r} must be a JSON object")
        bad = set(section) - allowed
        if bad:
            raise CliError(
                f"config section {name!r} has unknown keys {sorted(bad)}; "
                f"allowed keys are {sorted(allowed)}"
            )
    for key, value in raw.get("hierarchy", {}).items():
        if not isinstance(value, str):
            raise CliError(f"config section 'hierarchy': {key} must be a string, got {value!r}")
    return raw


def _section(config: dict, name: str, seed_override: int | None) -> dict:
    merged = dict(config.get(name, {}))
    if seed_override is not None and "seed" in _SECTION_KEYS[name]:
        merged["seed"] = seed_override
    return merged


def _read_text(path) -> str:
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as err:
        raise CliError(f"{path} is not UTF-8 text: {err}") from err


def resolve_hierarchy(config: dict, hierarchy_file: str | None):
    """Explicit --hierarchy file wins; then the config section; then the
    built-in fixture tree."""
    if hierarchy_file is not None:
        text = _read_text(hierarchy_file)
    else:
        section = config.get("hierarchy", {})
        if "text" in section and "path" in section:
            raise CliError("config section 'hierarchy' sets both 'text' and 'path'")
        if "path" in section:
            text = _read_text(section["path"])
        else:
            text = section.get("text", FIXTURE_TREE)
    return parse_hierarchy(text), text


def _fits(value, want) -> bool:
    """Whether a JSON value fits a config field annotated ``want``: int
    fields take integers, float fields any number with a finite float value,
    tuple fields a list of such numbers; a bool is no number, and NaN,
    Infinity (which JSON parsing accepts) and an integer beyond the float
    range are not finite. Other fields are not checked here."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if want is int:
        return number and isinstance(value, int)
    if want is float:
        try:
            return number and math.isfinite(value)
        except OverflowError:  # an int too large for a float
            return False
    if typing.get_origin(want) is tuple:
        return isinstance(value, list) and all(_fits(v, float) for v in value)
    return True


def _build(cls, kwargs: dict, what: str, base=None):
    """Construct config dataclass ``cls`` from ``kwargs``, as a copy of
    ``base`` when one is given; a wrong-typed value, or one the dataclass
    rejects, becomes a CliError."""
    hints = typing.get_type_hints(cls)
    for key, value in kwargs.items():
        if not _fits(value, hints[key]):
            raise CliError(f"bad {what} config: {key} has the wrong type or is not finite: {value!r}")
    try:
        return cls(**kwargs) if base is None else dataclasses.replace(base, **kwargs)
    except ValueError as err:
        raise CliError(f"bad {what} config: {err}") from err


# ---------------------------------------------------------------- artifacts


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@contextlib.contextmanager
def output_lock(target: Path):
    """Exclusive lock file ``<target>.lock`` beside the output, file or run
    directory, for the run's duration; a live lock means another run targets
    the same path."""
    target.parent.mkdir(parents=True, exist_ok=True)
    lock = Path(str(target) + ".lock")
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise CliError(_locked_message(target, lock)) from None
    try:
        os.write(fd, f"{os.getpid()}\n".encode())
        os.close(fd)
        yield
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(lock)


def _locked_message(target: Path, lock: Path) -> str:
    """Why ``lock`` blocks the run; it is never removed here."""
    pid = None
    try:
        pid = int(lock.read_text())
        if pid > 0:  # 0 and negative PIDs name process groups
            os.kill(pid, 0)
    except ProcessLookupError:
        return f"output {target} is locked by process {pid}, which is no longer running; remove {lock}"
    except (OSError, ValueError, OverflowError):
        pass  # unreadable, not a number, or alive under another user
    owner = "" if pid is None else f", pid {pid}"
    return f"output {target} is locked by another run{owner} (remove stale {lock} if no run is active)"


def _manifest_path(out: Path) -> Path:
    return Path(str(out) + ".manifest.json")


def _write_manifest(config: dict, args, effective: dict, **extra) -> None:
    """Write ``_manifest`` plus ``extra`` beside the single-file output."""
    payload = _manifest(config, args, effective) | extra
    write_atomic(_manifest_path(Path(args.out)), json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _inputs(args) -> dict:
    """The files a command reads, by the names its manifest records them
    under (``--config`` is echoed there instead)."""
    if args.command == "eval":
        run = Path(args.run)
        return {"data": args.data, "models": run / "models.hgck", "embeddings": run / "embeddings.hgck"}
    named = {name: getattr(args, name, None) for name in ("hierarchy", "data", "clf8", "clf16", "embeddings")}
    return {name: path for name, path in named.items() if path}


def _check_outputs(args) -> None:
    """Refuse, before any work, outputs (``--out``, eval's JSON twin, the
    manifest beside a single-file output) that resolve to one file, or to an
    input or (a run directory) around one."""
    out = Path(args.out)
    outputs = [out] if args.command == "train-gan" else [out, _manifest_path(out)]
    if args.command == "eval":
        outputs.append(out.with_suffix(".json"))
    resolved = {p.resolve() for p in outputs}
    if len(resolved) < len(outputs):
        raise CliError(f"--out {out}: two of its outputs would be the same file")
    for path in filter(None, [args.config, *_inputs(args).values()]):
        if resolved & {Path(path).resolve(), *Path(path).resolve().parents}:
            raise CliError(f"--out {out} would overwrite the input {path}")


def _manifest(config: dict, args, effective: dict) -> dict:
    return {
        "command": args.command,
        "config_file": config,  # verbatim echo of the parsed JSON
        "seed_override": args.seed,
        "effective": effective,
        "inputs": {name: {"path": str(p), "sha256": _sha256(p)} for name, p in _inputs(args).items()},
    }


# ------------------------------------------------------------------ handlers


def cmd_gen_data(args) -> int:
    config = load_config(args.config)
    h, h_text = resolve_hierarchy(config, None)
    section = _section(config, "dataset", args.seed)
    spec = _build(DatasetSpec, section, "dataset", base=default_dataset_spec(h))
    out = Path(args.out)
    with output_lock(out):
        dataset = generate_dataset(spec)
        save_dataset(dataset, out)
        digest = _sha256(out)
        effective = {
            "samples_per_leaf": spec.samples_per_leaf,
            "level_noise": list(spec.level_noise),
            "observation_noise": spec.observation_noise,
            "seed": spec.seed,
            "hierarchy_text": h_text,
        }
        _write_manifest(config, args, effective, output_sha256=digest)
    print(f"{digest}  {out}")
    log.info("dataset: %d train / %d test samples", len(dataset.train), len(dataset.test))
    return 0


def cmd_train_che(args) -> int:
    config = load_config(args.config)
    h, h_text = resolve_hierarchy(config, args.hierarchy)
    cfg = _build(CheConfig, _section(config, "che", args.seed), "che")
    out = Path(args.out)
    with output_lock(out):
        table = train_che(h, cfg)
        save_table(out, table)
        acc = ranking_accuracy(table, h, cfg.negatives_per_positive, seed=cfg.seed)
        gap = sibling_similarity_gap(table, h)
        effective = dataclasses.asdict(cfg) | {"hierarchy_text": h_text}
        _write_manifest(
            config, args, effective, ranking_accuracy=acc, sibling_similarity_gap=gap, output_sha256=_sha256(out)
        )
    print(f"ranking_accuracy {acc:.4f}")
    print(f"sibling_similarity_gap {gap:.4f}")
    return 0


def cmd_train_clf(args) -> int:
    config = load_config(args.config)
    cfg = _build(ClassifierConfig, _section(config, "classifier", args.seed), "classifier")
    dataset = load_dataset(args.data)
    h = dataset.spec.hierarchy
    out = Path(args.out)
    with output_lock(out):
        clf = HierClassifier.init(
            h, args.resolution * args.resolution, ModelConfig(), np.random.default_rng(cfg.seed)
        )
        train_classifier(clf, dataset, args.resolution, cfg)
        save_classifier(clf, out)
        scores = evaluate_classifier(clf, dataset.test)
        effective = dataclasses.asdict(cfg) | {"resolution": args.resolution}
        _write_manifest(config, args, effective, held_out=scores, output_sha256=_sha256(out))
    print("level,accuracy")
    for k, acc in enumerate(scores["levels"], start=1):
        print(f"{k},{acc:.4f}")
    print(f"leaf,{scores['leaf']:.4f}")
    print(f"path_consistent,{scores['path_consistent']:.4f}")
    return 0


def cmd_train_gan(args) -> int:
    check_run_target(args.out)  # before any work: save_run would refuse it only at the end
    config = load_config(args.config)
    if args.mode == "seg" and args.embeddings is None:
        raise CliError("--embeddings is required for seg mode (a pre-trained table to freeze)")
    if args.mode != "seg" and args.embeddings is not None:
        raise CliError(f"--embeddings is only valid with seg mode, not {args.mode}")
    cfg = _build(TrainConfig, _section(config, "gan", args.seed) | {"mode": args.mode}, "gan")
    dataset = load_dataset(args.data)
    h = dataset.spec.hierarchy
    clf_lo = load_classifier(args.clf8)
    clf_hi = load_classifier(args.clf16)
    embeddings = load_table(args.embeddings) if args.embeddings else None
    out = Path(args.out)
    with output_lock(out):
        art = run_training(dataset, h, cfg, clf_lo, clf_hi, embeddings)
        # save_run's own manifest fields already record the effective config
        save_run(art, out, extra_manifest=_manifest(config, args, {}))
    if art.aborted:
        print(
            f"error: run aborted at step {art.abort_step}: {art.abort_reason} "
            f"(artifacts as of the last completed step are in {out})",
            file=sys.stderr,
        )
        return 2
    final_step, final = art.reports[-1]
    print(
        f"final step {final_step}: desk_fid {final.avg_desk_fid:.4f} "
        f"desk_is {final.avg_desk_is:.4f} consistency {final.avg_consistency_rate:.4f}"
    )
    return 0


def cmd_eval(args) -> int:
    config = load_config(args.config)
    section = _section(config, "eval", args.seed)
    for key, value in section.items():
        least = 2 if key == "n_per_class" else 0  # a Frechet fit needs two samples per class
        if not _fits(value, int) or value < least:
            raise CliError(f"bad eval config: {key} must be an integer >= {least}, got {value!r}")
    n_per_class = section.get("n_per_class", 500)
    seed = section.get("seed", 0)
    paths = _inputs(args)
    dataset = load_dataset(paths["data"])
    h = dataset.spec.hierarchy
    table = load_table(paths["embeddings"])
    models = load_models(paths["models"])
    out = Path(args.out)
    with output_lock(out):
        report = evaluate(models, table, dataset, h, n_per_class=n_per_class, seed=seed)
        # an old manifest must not vouch for a report that is only half written
        _manifest_path(out).unlink(missing_ok=True)
        write_atomic(out, report_csv(report))
        write_atomic(out.with_suffix(".json"), report_json(report))
        _write_manifest(config, args, {"n_per_class": n_per_class, "seed": seed})
    print(
        f"desk_fid {report.avg_desk_fid:.4f} desk_is {report.avg_desk_is:.4f} "
        f"consistency {report.avg_consistency_rate:.4f}"
    )
    return 0


def cmd_inspect_embeddings(args) -> int:
    table = load_table(args.embeddings)  # rows labelled by the hierarchy stored with the table
    out = Path(args.out)
    with output_lock(out):
        write_atomic(out, similarity_csv(table))
        _write_manifest({}, args, {})
    print(f"wrote {len(table.names)}x{len(table.names)} similarity matrix to {out}")
    return 0


# --------------------------------------------------------------------- main


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        raise CliError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hiergan", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        return p

    p = add("gen-data", cmd_gen_data, "generate the synthetic dataset")
    p.add_argument("--out", required=True, help="output dataset file")

    p = add("train-che", cmd_train_che, "train class-hierarchy embeddings")
    p.add_argument("--hierarchy", help="hierarchy text file (default: config or fixture tree)")
    p.add_argument("--out", required=True, help="output embedding checkpoint")

    p = add("train-clf", cmd_train_clf, "train the frozen hierarchical classifier")
    p.add_argument("--data", required=True, help="dataset file from gen-data")
    p.add_argument("--resolution", type=int, required=True, choices=(8, 16))
    p.add_argument("--out", required=True, help="output classifier checkpoint")

    p = add("train-gan", cmd_train_gan, "adversarial training in one of the four modes")
    p.add_argument("--mode", required=True, choices=("treegan", "npc", "seg", "flat"))
    p.add_argument("--data", required=True, help="dataset file from gen-data")
    p.add_argument("--clf8", required=True, help="8x8 classifier checkpoint")
    p.add_argument("--clf16", required=True, help="16x16 classifier checkpoint")
    p.add_argument("--embeddings", help="pre-trained embedding checkpoint (seg mode only)")
    p.add_argument("--out", required=True, help="output run directory")

    p = add("eval", cmd_eval, "re-evaluate a finished run")
    p.add_argument("--run", required=True, help="run directory from train-gan")
    p.add_argument("--data", required=True, help="dataset file from gen-data")
    p.add_argument("--out", required=True, help="output metrics CSV (JSON written alongside)")

    p = sub.add_parser("inspect-embeddings", help="dump the class similarity matrix")
    p.set_defaults(handler=cmd_inspect_embeddings, config=None, seed=None)
    p.add_argument("--embeddings", required=True, help="embedding checkpoint")
    p.add_argument("--out", required=True, help="output CSV")

    return parser


def _configure_logging() -> None:
    level = os.environ.get("HIERGAN_LOG", "warning").upper()
    if level not in ("DEBUG", "INFO", "WARNING", "ERROR"):
        level = "WARNING"
    logging.basicConfig(stream=sys.stderr, level=getattr(logging, level))


def main(argv=None) -> int:
    _configure_logging()
    try:
        args = build_parser().parse_args(argv)
        _check_outputs(args)
        return args.handler(args)
    except (CliError, HierarchyError, TrainingError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except FileNotFoundError as err:
        print(f"error: input file not found: {err.filename}", file=sys.stderr)
        return 1
    except NonFiniteError as err:
        print(f"error: non-finite loss: {err}", file=sys.stderr)
        return 2
    except (DatasetError, CheckpointError, ModelError, EmbeddingError, MetricsError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:  # after CheckpointError, which is an OSError too
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
