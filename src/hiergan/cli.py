"""Command-line pipeline: dataset generation through evaluation.

Subcommands mirror the pipeline stages: gen-data, train-che, train-clf,
train-gan, eval, inspect-embeddings. All but inspect-embeddings take an
optional JSON config file (--config) with sections hierarchy / dataset / che /
classifier / gan / eval, and --seed, which overrides the relevant section's
seed. All fields are optional and unknown keys are rejected so a typo in a
weight name fails loudly instead of silently training the wrong thing.

Every command goes through one runner, ``run``, in this order: parse the
config; work out the files the command reads and writes; refuse, before any
work, a write whose name is bad or that would replace an input; take the
output's lock; run the handler, which loads only the inputs worked out; drop
the old manifest, write the output, and write the manifest last; print. The
manifest records the verbatim config, the effective settings and the sha256
of every input, with no timestamps, so reruns are byte-identical.

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
from .metrics import EvalConfig, MetricsError, evaluate, report_csv, report_json
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

# the dataclass each section builds; its keys are the fields that declare a
# rule: not the dataset's hierarchy (the hierarchy section) or mode (--mode)
_SECTIONS = {"dataset": DatasetSpec, "che": CheConfig, "classifier": ClassifierConfig, "gan": TrainConfig, "eval": EvalConfig}
_SECTION_KEYS = {"hierarchy": {"text", "path"}} | {
    name: {f.name for f in dataclasses.fields(cls) if "rule" in f.metadata} for name, cls in _SECTIONS.items()
}


def load_config(path: str | None) -> dict:
    """Parse and key-check the JSON config; {} when --config is omitted."""
    if path is None:
        return {}
    try:
        raw = json.loads(_read_text(path))
    except ValueError as err:  # a JSONDecodeError, or an integer longer than int() takes
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
    if {"text", "path"} <= raw.get("hierarchy", {}).keys():
        raise CliError("config section 'hierarchy' sets both 'text' and 'path'")
    return raw


def _read_text(path) -> str:
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as err:
        raise CliError(f"{path} is not UTF-8 text: {err}") from err


def resolve_hierarchy(config: dict, path: str | None):
    """The tree in ``path``, the file ``_reads`` resolved; else the config's
    ``hierarchy.text``; else the built-in fixture tree."""
    text = _read_text(path) if path is not None else config.get("hierarchy", {}).get("text", FIXTURE_TREE)
    return parse_hierarchy(text), text


def _build(config: dict, section: str, seed: int | None, /, **defaults):
    """Construct the dataclass of ``section`` from ``defaults``, then the
    config's section over them, then ``seed`` (``--seed``) when given; a
    value the dataclass rejects becomes a CliError."""
    kwargs = defaults | config.get(section, {}) | ({} if seed is None else {"seed": seed})
    try:
        return _SECTIONS[section](**kwargs)
    except ValueError as err:
        raise CliError(f"bad {section} config: {err}") from err


# ------------------------------------------------------------------- runner


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


def _write_manifest(out: Path, manifest: dict) -> None:
    write_atomic(_manifest_path(out), json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _reads(args, config: dict) -> dict:
    """The files a command reads, by the names its manifest records them
    under (``--config`` is echoed there instead), and the only paths handlers
    load; ``--hierarchy``, else the config's ``hierarchy.path``, is ``hierarchy``.
    An empty path, which would name the working directory, is refused."""
    for name in ("run", "hierarchy", "data", "clf8", "clf16", "embeddings"):
        if getattr(args, name, None) == "":
            raise CliError(f"--{name} is empty; it must name a path")
    if config.get("hierarchy", {}).get("path") == "":
        raise CliError("config section 'hierarchy': path is empty; it must name a file")
    if args.command == "eval":
        run_dir = Path(args.run)
        if not run_dir.is_dir():
            raise CliError(f"--run {args.run} is not a run directory")
        return {"data": args.data, "models": run_dir / "models.hgck", "embeddings": run_dir / "embeddings.hgck"}
    named = {name: getattr(args, name, None) for name in ("hierarchy", "data", "clf8", "clf16", "embeddings")}
    if args.command in ("gen-data", "train-che") and named["hierarchy"] is None:
        named["hierarchy"] = config.get("hierarchy", {}).get("path")
    return {name: path for name, path in named.items() if path is not None}


def _writes(args, reads: dict) -> list[Path]:
    """The paths a command writes, ``--out`` first: a run directory, or a
    single file with (eval) its JSON twin and its manifest. Refused before
    any work: an ``--out`` that names no file (``.``, ``/``, ``..``, empty);
    an output named like the CLI's own ``.lock`` and ``.manifest.json``
    files; a directory where a file goes, or a run directory that
    ``check_run_target`` refuses; outputs that resolve to one file, or to an
    input or (a run directory) around one."""
    out = Path(args.out)
    if out.name in ("", ".."):
        raise CliError(f"--out {args.out!r} names no file")
    writes = [out, out.with_suffix(".json")] if args.command == "eval" else [out]
    for path in writes:
        if path.name.endswith((".lock", ".manifest.json")):
            raise CliError(f"--out {args.out}: {path.name} is named like the CLI's own .lock or .manifest.json files")
    if args.command == "train-gan":
        check_run_target(out)
    else:
        writes.append(_manifest_path(out))
        for path in writes:
            if path.is_dir():
                raise CliError(f"--out {args.out}: {path} is a directory")
    resolved = {p.resolve() for p in writes}
    if len(resolved) < len(writes):
        raise CliError(f"--out {out}: two of its outputs would be the same file")
    for path in filter(None, [args.config, *reads.values()]):
        if resolved & {Path(path).resolve(), *Path(path).resolve().parents}:
            raise CliError(f"--out {out} would overwrite the input {path}")
    return writes


class Outcome(typing.NamedTuple):
    """What a handler hands the runner once its work is done."""

    write: typing.Callable  # puts the result at --out: write(out), or write(out, manifest) for a run directory
    fields: dict  # manifest fields beyond the ones every manifest has
    lines: list[str] | typing.Callable[[str], list[str]]  # printed; a function of output_sha256 if it prints that
    hashed: bool = False  # the manifest records the output's sha256 as output_sha256
    code: int = 0  # nonzero (an aborted train-gan): the lines are errors, for stderr


def run(args) -> int:
    """Run one command in the order the module docstring gives; return its
    exit code; the handler loads only the paths in ``reads``."""
    config = load_config(args.config)
    reads = _reads(args, config)
    out = _writes(args, reads)[0]
    with output_lock(out):
        outcome = args.handler(args, config, reads)
        manifest = {
            "command": args.command,
            "config_file": config,  # verbatim echo of the parsed JSON
            "seed_override": args.seed,
            "effective": {},
            "inputs": {name: {"path": str(p), "sha256": _sha256(p)} for name, p in reads.items()},
        } | outcome.fields
        if args.command == "train-gan":  # the run directory holds its manifest, beside save_run's own fields
            outcome.write(out, manifest)
        else:
            # an old manifest must not vouch for an output that is only half written
            _manifest_path(out).unlink(missing_ok=True)
            outcome.write(out)
            if outcome.hashed:
                manifest["output_sha256"] = _sha256(out)
            _write_manifest(out, manifest)
    lines = outcome.lines(manifest.get("output_sha256")) if callable(outcome.lines) else outcome.lines
    print(*lines, sep="\n", file=sys.stderr if outcome.code else sys.stdout)
    return outcome.code


# ------------------------------------------------------------------ handlers


def cmd_gen_data(args, config: dict, reads: dict) -> Outcome:
    h, h_text = resolve_hierarchy(config, reads.get("hierarchy"))
    spec = _build(config, "dataset", args.seed, **vars(default_dataset_spec(h)))
    dataset = generate_dataset(spec)
    log.info("dataset: %d train / %d test samples", len(dataset.train), len(dataset.test))
    effective = {key: getattr(spec, key) for key in _SECTION_KEYS["dataset"]} | {"hierarchy_text": h_text}
    return Outcome(
        lambda out: save_dataset(dataset, out),
        {"effective": effective},
        lambda digest: [f"{digest}  {Path(args.out)}"],
        hashed=True,
    )


def cmd_train_che(args, config: dict, reads: dict) -> Outcome:
    h, h_text = resolve_hierarchy(config, reads.get("hierarchy"))
    cfg = _build(config, "che", args.seed)
    table = train_che(h, cfg)
    acc = ranking_accuracy(table, h, cfg.negatives_per_positive, seed=cfg.seed)
    gap = sibling_similarity_gap(table, h)
    effective = dataclasses.asdict(cfg) | {"hierarchy_text": h_text}
    fields = {"effective": effective, "ranking_accuracy": acc, "sibling_similarity_gap": gap}
    lines = [f"ranking_accuracy {acc:.4f}", f"sibling_similarity_gap {gap:.4f}"]
    return Outcome(lambda out: save_table(out, table), fields, lines, hashed=True)


def cmd_train_clf(args, config: dict, reads: dict) -> Outcome:
    cfg = _build(config, "classifier", args.seed)
    dataset = load_dataset(reads["data"])
    pixels = args.resolution * args.resolution
    clf = HierClassifier.init(dataset.spec.hierarchy, pixels, ModelConfig(), np.random.default_rng(cfg.seed))
    train_classifier(clf, dataset, args.resolution, cfg)
    scores = evaluate_classifier(clf, dataset.test)
    fields = {"effective": dataclasses.asdict(cfg) | {"resolution": args.resolution}, "held_out": scores}
    lines = ["level,accuracy", *(f"{k},{acc:.4f}" for k, acc in enumerate(scores["levels"], start=1))]
    lines += [f"leaf,{scores['leaf']:.4f}", f"path_consistent,{scores['path_consistent']:.4f}"]
    return Outcome(lambda out: save_classifier(clf, out), fields, lines, hashed=True)


def cmd_train_gan(args, config: dict, reads: dict) -> Outcome:
    if args.mode == "seg" and args.embeddings is None:
        raise CliError("--embeddings is required for seg mode (a pre-trained table to freeze)")
    if args.mode != "seg" and args.embeddings is not None:
        raise CliError(f"--embeddings is only valid with seg mode, not {args.mode}")
    cfg = _build(config, "gan", args.seed, mode=args.mode)
    dataset = load_dataset(reads["data"])
    clf_lo, clf_hi = load_classifier(reads["clf8"]), load_classifier(reads["clf16"])
    embeddings = load_table(reads["embeddings"]) if "embeddings" in reads else None
    art = run_training(dataset, dataset.spec.hierarchy, cfg, clf_lo, clf_hi, embeddings)
    if art.aborted:
        code, line = 2, (
            f"error: run aborted at step {art.abort_step}: {art.abort_reason} "
            f"(artifacts as of the last completed step are in {Path(args.out)})"
        )
    else:
        final_step, final = art.reports[-1]
        code, line = 0, (
            f"final step {final_step}: desk_fid {final.avg_desk_fid:.4f} "
            f"desk_is {final.avg_desk_is:.4f} consistency {final.avg_consistency_rate:.4f}"
        )
    return Outcome(lambda out, manifest: save_run(art, out, extra_manifest=manifest), {}, [line], code=code)


def cmd_eval(args, config: dict, reads: dict) -> Outcome:
    cfg = _build(config, "eval", args.seed)
    dataset = load_dataset(reads["data"])
    table = load_table(reads["embeddings"])
    models = load_models(reads["models"])
    report = evaluate(models, table, dataset, dataset.spec.hierarchy, n_per_class=cfg.n_per_class, seed=cfg.seed)

    def write(out):
        write_atomic(out, report_csv(report))
        write_atomic(out.with_suffix(".json"), report_json(report))

    line = (
        f"desk_fid {report.avg_desk_fid:.4f} desk_is {report.avg_desk_is:.4f} "
        f"consistency {report.avg_consistency_rate:.4f}"
    )
    return Outcome(write, {"effective": dataclasses.asdict(cfg)}, [line])


def cmd_inspect_embeddings(args, config: dict, reads: dict) -> Outcome:
    table = load_table(reads["embeddings"])  # rows labelled by the hierarchy stored with the table
    n = len(table.names)
    line = f"wrote {n}x{n} similarity matrix to {Path(args.out)}"
    return Outcome(lambda out: write_atomic(out, similarity_csv(table)), {}, [line])


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
        return run(build_parser().parse_args(argv))
    except (CliError, HierarchyError, TrainingError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except FileNotFoundError as err:
        print(f"error: input file not found: {err.filename}", file=sys.stderr)
        return 1
    except NonFiniteError as err:
        print(f"error: non-finite loss: {err}", file=sys.stderr)
        return 2
    except MemoryError as err:  # e.g. a config sized past what numpy can allocate
        print(f"error: out of memory: {err}", file=sys.stderr)
        return 2
    except (DatasetError, CheckpointError, ModelError, EmbeddingError, MetricsError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:  # after CheckpointError, which is an OSError too
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
