import dataclasses
import hashlib
import inspect
import json
import math
import os
import shutil
import struct
import subprocess
import sys
import typing
import zlib
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hiergan.cli import _SECTION_KEYS, _SECTIONS, main
from hiergan.embed import CheConfig, EmbeddingError
from hiergan.files import load_checkpoint, save_checkpoint
from hiergan.hierarchy import FIXTURE_TREE, parse_hierarchy
from hiergan.metrics import MetricsError
from hiergan.models import ClassifierConfig, ModelError
from hiergan.synthdata import DatasetError, DatasetSpec, default_dataset_spec
from hiergan.training import TrainConfig, TrainingError


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """One completed pipeline: dataset, embeddings, classifiers, a run."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "dataset": {"samples_per_leaf": 60, "seed": 0},
                "che": {"epochs": 120, "seed": 0},
                "classifier": {"epochs": 30, "seed": 0},
                "gan": {
                    "steps_per_stage": 40,
                    "eval_every": 20,
                    "eval_n_per_class": 30,
                    "seed": 0,
                },
                "eval": {"n_per_class": 30, "seed": 7},
            }
        )
    )
    paths = {
        "cfg": cfg,
        "data": root / "data.hgds",
        "che": root / "che.hgck",
        "clf8": root / "clf8.hgck",
        "clf16": root / "clf16.hgck",
        "run": root / "run",
    }
    c = str(cfg)
    assert main(["gen-data", "--config", c, "--out", str(paths["data"])]) == 0
    assert main(["train-che", "--config", c, "--out", str(paths["che"])]) == 0
    for res, key in ((8, "clf8"), (16, "clf16")):
        assert (
            main(
                [
                    "train-clf",
                    "--config",
                    c,
                    "--data",
                    str(paths["data"]),
                    "--resolution",
                    str(res),
                    "--out",
                    str(paths[key]),
                ]
            )
            == 0
        )
    assert (
        main(
            [
                "train-gan",
                "--config",
                c,
                "--mode",
                "treegan",
                "--data",
                str(paths["data"]),
                "--clf8",
                str(paths["clf8"]),
                "--clf16",
                str(paths["clf16"]),
                "--out",
                str(paths["run"]),
            ]
        )
        == 0
    )
    return paths


def gan_args(ws, mode, out, embeddings=None):
    argv = [
        "train-gan",
        "--config",
        str(ws["cfg"]),
        "--mode",
        mode,
        "--data",
        str(ws["data"]),
        "--clf8",
        str(ws["clf8"]),
        "--clf16",
        str(ws["clf16"]),
        "--out",
        str(out),
    ]
    if embeddings is not None:
        argv += ["--embeddings", str(embeddings)]
    return argv


# ------------------------------------------------------------------ pipeline


def test_gen_data_prints_checksum(ws, tmp_path, capsys):
    out = tmp_path / "d.hgds"
    assert main(["gen-data", "--config", str(ws["cfg"]), "--out", str(out)]) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    digest, path = line.split()
    assert path == str(out)
    assert digest == hashlib.sha256(out.read_bytes()).hexdigest()


def test_gen_data_rerun_is_byte_identical(ws, tmp_path):
    out = tmp_path / "d.hgds"
    assert main(["gen-data", "--config", str(ws["cfg"]), "--out", str(out)]) == 0
    assert out.read_bytes() == ws["data"].read_bytes()


def test_seed_flag_overrides_config(ws, tmp_path):
    out = tmp_path / "d.hgds"
    assert main(["gen-data", "--config", str(ws["cfg"]), "--seed", "5", "--out", str(out)]) == 0
    assert out.read_bytes() != ws["data"].read_bytes()
    manifest = json.loads((tmp_path / "d.hgds.manifest.json").read_text())
    assert manifest["seed_override"] == 5
    assert manifest["effective"]["seed"] == 5
    assert manifest["config_file"]["dataset"]["seed"] == 0  # verbatim echo


def test_train_che_reports_ranking(ws, tmp_path, capsys):
    out = tmp_path / "e.hgck"
    assert main(["train-che", "--config", str(ws["cfg"]), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    acc = float(lines[-2].split()[1])
    assert lines[-2].startswith("ranking_accuracy") and acc >= 0.95
    assert lines[-1].startswith("sibling_similarity_gap")


def test_train_che_hierarchy_file(ws, tmp_path, capsys):
    tree = tmp_path / "tree.txt"
    tree.write_text(FIXTURE_TREE)
    out = tmp_path / "e.hgck"
    assert main(["train-che", "--config", str(ws["cfg"]), "--hierarchy", str(tree), "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "e.hgck.manifest.json").read_text())
    assert manifest["inputs"]["hierarchy"]["sha256"] == hashlib.sha256(FIXTURE_TREE.encode()).hexdigest()
    # same tree as the fixture default, so the table matches the default run
    assert out.read_bytes() == ws["che"].read_bytes()


def test_train_clf_prints_accuracy_table(ws, tmp_path, capsys):
    out = tmp_path / "c.hgck"
    code = main(
        [
            "train-clf",
            "--config",
            str(ws["cfg"]),
            "--data",
            str(ws["data"]),
            "--resolution",
            "8",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "level,accuracy"
    assert lines[-2].startswith("leaf,")
    assert lines[-1].startswith("path_consistent,")
    manifest = json.loads((tmp_path / "c.hgck.manifest.json").read_text())
    assert set(manifest["held_out"]) == {"leaf", "levels", "path_consistent"}


def test_run_directory_layout(ws):
    names = {p.name for p in ws["run"].iterdir()}
    assert {"models.hgck", "embeddings.hgck", "trace.csv", "manifest.json"} <= names
    assert "metrics_step000080.csv" in names  # final stage-2 checkpoint
    manifest = json.loads((ws["run"] / "manifest.json").read_text())
    assert manifest["mode"] == "treegan"
    assert manifest["command"] == "train-gan"
    assert manifest["config"]["steps_per_stage"] == 40
    assert set(manifest["inputs"]) == {"data", "clf8", "clf16"}
    assert manifest["inputs"]["data"]["sha256"] == hashlib.sha256(ws["data"].read_bytes()).hexdigest()
    assert not manifest["aborted"]


def test_train_gan_rerun_identical(ws, tmp_path):
    out = tmp_path / "run2"
    assert main(gan_args(ws, "treegan", out)) == 0
    for name in ("models.hgck", "embeddings.hgck", "trace.csv", "manifest.json"):
        assert (out / name).read_bytes() == (ws["run"] / name).read_bytes(), name


def test_eval_writes_csv_and_json(ws, tmp_path, capsys):
    out = tmp_path / "metrics.csv"
    code = main(
        [
            "eval",
            "--config",
            str(ws["cfg"]),
            "--run",
            str(ws["run"]),
            "--data",
            str(ws["data"]),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert out.read_text().startswith("class,desk_fid,desk_is,consistency_rate")
    payload = json.loads((tmp_path / "metrics.json").read_text())
    assert set(payload["average"]) == {"desk_fid", "desk_is", "consistency_rate"}
    assert "desk_fid" in capsys.readouterr().out


def test_inspect_embeddings_matrix(ws, tmp_path):
    out = tmp_path / "sim.csv"
    code = main(["inspect-embeddings", "--embeddings", str(ws["che"]), "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("class,root,")
    assert len(lines) == 10  # header + 9 classes of the fixture tree


def test_outputs_are_renamed_into_place(ws, tmp_path, monkeypatch):
    import hiergan.files as files

    renamed = []
    replace = files.os.replace

    def spy(src, dst):
        renamed.append(dst)
        replace(src, dst)

    monkeypatch.setattr(files.os, "replace", spy)
    metrics = tmp_path / "metrics.csv"
    argv = ["eval", "--config", str(ws["cfg"]), "--run", str(ws["run"]), "--data", str(ws["data"])]
    assert main(argv + ["--out", str(metrics)]) == 0
    assert main(["inspect-embeddings", "--embeddings", str(ws["che"]), "--out", str(tmp_path / "sim.csv")]) == 0
    assert main(["gen-data", "--config", str(ws["cfg"]), "--out", str(tmp_path / "d.hgds")]) == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == [
        "d.hgds",
        "d.hgds.manifest.json",
        "metrics.csv",
        "metrics.csv.manifest.json",
        "metrics.json",
        "sim.csv",
        "sim.csv.manifest.json",
    ]
    assert sorted(Path(p).name for p in renamed) == written


def test_seg_mode_roundtrip(ws, tmp_path):
    out = tmp_path / "run-seg"
    assert main(gan_args(ws, "seg", out, embeddings=ws["che"])) == 0
    # frozen table passes through to the run directory bit-unchanged
    assert (out / "embeddings.hgck").read_bytes() == ws["che"].read_bytes()


# ----------------------------------------------------------------- failures


def test_seg_requires_embeddings_flag(ws, tmp_path, capsys):
    assert main(gan_args(ws, "seg", tmp_path / "x")) == 1
    assert "--embeddings" in capsys.readouterr().err


def test_non_seg_forbids_embeddings(ws, tmp_path, capsys):
    assert main(gan_args(ws, "flat", tmp_path / "x", embeddings=ws["che"])) == 1
    assert "--embeddings" in capsys.readouterr().err


def test_unknown_config_key_rejected(ws, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"gan": {"lambda_one": 15}}')
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "d.hgds")]) == 1
    assert "lambda_one" in capsys.readouterr().err


def test_unknown_config_section_rejected(ws, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"gans": {}}')
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "d.hgds")]) == 1
    assert "gans" in capsys.readouterr().err


def test_mode_not_allowed_in_config(ws, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"gan": {"mode": "seg"}}')
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "d.hgds")]) == 1
    assert "mode" in capsys.readouterr().err


def test_malformed_json_rejected(ws, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "d.hgds")]) == 1
    assert "JSON" in capsys.readouterr().err


def test_bad_config_value_rejected(ws, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"gan": {"che_margin": 0.4}}')
    argv = gan_args(ws, "treegan", tmp_path / "x")
    argv[argv.index("--config") + 1] = str(cfg)
    assert main(argv) == 1
    assert "che_margin" in capsys.readouterr().err


@pytest.mark.parametrize(
    "dataset",
    [{"samples_per_leaf": 0}, {"samples_per_leaf": 4}, {"observation_noise": -0.1}],
    ids=["no-samples", "no-test-rows", "negative-noise"],
)
def test_bad_dataset_config_exits_one(ws, tmp_path, capsys, dataset):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"dataset": dataset}))
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "d.hgds")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad dataset config") and err.count("\n") == 1, err
    assert not (tmp_path / "d.hgds").exists()


@pytest.mark.parametrize(
    "section, values",
    [
        ("dataset", {"samples_per_leaf": 5.5}),
        ("dataset", {"samples_per_leaf": "10"}),
        ("dataset", {"level_noise": 5}),
        ("dataset", {"seed": -1}),
        ("che", {"epochs": True}),
        ("che", {"seed": -1}),
        ("che", {"lr": "0.01"}),
        ("che", {"margin": 0.3}),
        ("classifier", {"epochs": 2.5}),
        ("classifier", {"seed": -1}),
        ("classifier", {"beta1": 1.0}),  # Adam's decay rates are fixed: no config key sets them
        ("classifier", {"beta2": 0.9}),
        ("gan", {"batch_size": 8.5}),
        ("gan", {"eval_n_per_class": 1}),
        ("gan", {"beta1": -3}),
        ("gan", {"beta2": 1.5}),
        ("eval", {"seed": -1}),
        ("eval", {"n_per_class": "30"}),
        ("eval", {"n_per_class": 1}),
        ("eval", {"n_per_class": 0}),
    ],
    ids=[
        "dataset-float-int",
        "dataset-str-int",
        "dataset-scalar-tuple",
        "dataset-negative-seed",
        "che-bool-int",
        "che-negative-seed",
        "che-str-float",
        "che-margin-beyond-bound",
        "classifier-float-int",
        "classifier-negative-seed",
        "classifier-beta1",
        "classifier-beta2",
        "gan-float-int",
        "gan-one-eval-sample",
        "gan-beta1",
        "gan-beta2",
        "eval-negative-seed",
        "eval-str-int",
        "eval-one-sample",
        "eval-no-samples",
    ],
)
def test_wrong_typed_or_out_of_range_config_exits_one(ws, tmp_path, capsys, section, values):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({section: values}))
    out = tmp_path / "out"
    argv = {
        "dataset": ["gen-data", "--out", str(out)],
        "che": ["train-che", "--out", str(out)],
        "classifier": ["train-clf", "--data", str(ws["data"]), "--resolution", "8", "--out", str(out)],
        "gan": gan_args(ws, "treegan", out),
        "eval": ["eval", "--run", str(ws["run"]), "--data", str(ws["data"]), "--out", str(out)],
    }[section]
    # a repeated --config takes the last value
    assert main(argv + ["--config", str(cfg)]) == 1
    assert_one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize(
    "section, text",
    [
        ("dataset", '{"observation_noise": NaN}'),
        ("dataset", '{"level_noise": [0.5, Infinity, 0.1]}'),
        ("che", '{"lr": NaN}'),
        ("che", '{"margin": Infinity}'),
        ("gan", '{"lambda1": Infinity}'),
        ("che", '{"lr": 1' + "0" * 400 + "}"),
        ("che", '{"seed": 1' + "0" * 5000 + "}"),
    ],
    ids=["dataset-nan", "dataset-inf-in-tuple", "che-nan", "che-inf", "gan-inf", "che-int-beyond-float", "che-int-past-digit-limit"],
)
def test_non_finite_config_value_exits_one(ws, tmp_path, capsys, section, text):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({section: "@"}).replace('"@"', text))
    out = tmp_path / "out"
    argv = {
        "dataset": ["gen-data", "--out", str(out)],
        "che": ["train-che", "--out", str(out)],
        "gan": gan_args(ws, "treegan", out),
    }[section]
    assert main(argv + ["--config", str(cfg)]) == 1
    assert_one_line_error(capsys)
    assert not out.exists()


COMMAND_OF = {"dataset": "gen-data", "che": "train-che", "classifier": "train-clf", "gan": "train-gan", "eval": "eval"}
MODULE_ERROR = {"dataset": DatasetError, "che": EmbeddingError, "classifier": ModelError, "gan": TrainingError, "eval": MetricsError}


def _across(kind, bound, toward):
    """The neighbour of ``bound`` toward ``toward``: the next integer, or the
    next float."""
    return bound + (1 if toward > bound else -1) if kind is int else math.nextafter(bound, toward)


def _boundary_cases():
    """For every CLI-settable field, from the rule it declares: each bound
    and its neighbour across it, with whether the rule admits them, and one
    value of a wrong JSON type that meets the bound as a number."""
    entries = len(default_dataset_spec(parse_hierarchy(FIXTURE_TREE)).level_noise)
    cases = []
    for section, cls in _SECTIONS.items():
        for f in dataclasses.fields(cls):
            rule = f.metadata.get("rule")
            if rule is None:
                continue
            inward = math.inf if rule.strict else -math.inf
            numbers = [(rule.low, not rule.strict), (_across(rule.kind, rule.low, inward), rule.strict)]
            if rule.high < math.inf:
                numbers += [(rule.high, False), (_across(rule.kind, rule.high, -math.inf), True)]
            if rule.kind is tuple:
                numbers = [([x] * entries, admitted) for x, admitted in numbers]
            # the default as a float where an integer belongs, as a string
            # where a number does, and a bare number where a list does
            wrong = rule.low if rule.kind is tuple else (float if rule.kind is int else str)(f.default)
            for value, admitted in numbers + [(wrong, False)]:
                cases.append(pytest.param(section, f.name, value, admitted, id=f"{section}-{f.name}-{value!r}"))
    return cases


@pytest.mark.parametrize("section, key, value, admitted", _boundary_cases())
def test_config_bounds_from_the_declared_rules(ws, tmp_path, capsys, section, key, value, admitted):
    """The dataclass admits a value its rule admits and refuses the others
    with the module's own error naming the field; the CLI refuses those with
    exit 1, one stderr line naming the section, and nothing at --out."""
    base = default_dataset_spec(parse_hierarchy(FIXTURE_TREE)) if section == "dataset" else _SECTIONS[section]()
    if admitted:
        made = dataclasses.replace(base, **{key: value})
        assert getattr(made, key) == (tuple(value) if isinstance(value, list) else value)
        return
    with pytest.raises(MODULE_ERROR[section], match=rf"^{key} must be "):
        dataclasses.replace(base, **{key: value})
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({section: {key: value}}))
    out = tmp_path / "out"
    assert main(_argv_to(ws, COMMAND_OF[section], out) + ["--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad {section} config: {key} must be ") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, section, key, value",
    [
        ("eval", "eval", "n_per_class", 10**12),
        ("train-gan", "gan", "eval_n_per_class", 10**12),
        ("gen-data", "dataset", "samples_per_leaf", 10**11),
        ("train-che", "che", "dim", 10**11),
        # 10**11 already fails to allocate, but only on hosts with under 745 GiB
        ("train-gan", "gan", "batch_size", 10**12),
    ],
    ids=["eval-n_per_class", "gan-eval_n_per_class", "dataset-samples_per_leaf", "che-dim", "gan-batch_size"],
)
def test_config_too_large_to_allocate_exits_two(ws, tmp_path, capsys, command, section, key, value):
    config = json.loads(ws["cfg"].read_text())
    config[section][key] = value
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps(config))
    assert main(_argv_to(ws, command, tmp_path / "out") + ["--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.json"]  # no output, lock or manifest


def test_missing_input_exits_one(ws, tmp_path, capsys):
    code = main(
        [
            "train-clf",
            "--data",
            str(tmp_path / "nope.hgds"),
            "--resolution",
            "8",
            "--out",
            str(tmp_path / "c.hgck"),
        ]
    )
    assert code == 1
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["gen-data", "--config", "{dir}", "--out", "{out}"],
        ["gen-data", "--config", "{binary}", "--out", "{out}"],
        ["train-che", "--hierarchy", "{dir}", "--out", "{out}"],
        ["train-che", "--hierarchy", "{binary}", "--out", "{out}"],
        ["train-clf", "--data", "{dir}", "--resolution", "8", "--out", "{out}"],
        ["eval", "--run", "{binary}", "--data", "{binary}", "--out", "{out}"],
    ],
    ids=[
        "config-directory",
        "config-not-utf8",
        "hierarchy-directory",
        "hierarchy-not-utf8",
        "data-directory",
        "run-not-a-directory",
    ],
)
def test_unreadable_input_exits_one(tmp_path, capsys, argv):
    (tmp_path / "binary").write_bytes(b"\xff\xfe{")
    paths = {"dir": str(tmp_path), "binary": str(tmp_path / "binary"), "out": str(tmp_path / "out")}
    assert main([a.format(**paths) for a in argv]) == 1
    assert_one_line_error(capsys)
    assert not (tmp_path / "out").exists()


def _valid_sections(tree_file) -> dict:
    """Every key of every config section with a value of the right kind;
    the hierarchy section names its tree by ``path`` when ``tree_file`` is
    given, else by ``text`` (it may not set both)."""
    spec = default_dataset_spec(parse_hierarchy(FIXTURE_TREE))
    return {
        "hierarchy": {"path": str(tree_file)} if tree_file else {"text": FIXTURE_TREE},
        "dataset": {f.name: getattr(spec, f.name) for f in dataclasses.fields(spec) if f.name != "hierarchy"},
        "che": dataclasses.asdict(CheConfig()),
        "classifier": dataclasses.asdict(ClassifierConfig()),
        "gan": {f.name: getattr(TrainConfig(), f.name) for f in dataclasses.fields(TrainConfig) if f.name != "mode"},
        "eval": {"n_per_class": 30, "seed": 7},
    }


# values of a JSON kind that a key of the given kind does not take
WRONG_KIND = {
    int: ["7", None, [7], {"v": 7}, True, 7.5],
    float: ["0.5", None, [0.5], {"v": 0.5}, False],
    tuple: ["0.5", None, 0.5, {"v": 0.5}, True, ["0.5"]],
    str: [5, None, ["root"], {"v": "root"}, True],
}


def _kind(section: str, key: str):
    cls = {"dataset": DatasetSpec, "che": CheConfig, "classifier": ClassifierConfig, "gan": TrainConfig}.get(section)
    if cls is None:
        return str if section == "hierarchy" else int
    hint = typing.get_type_hints(cls)[key]
    return tuple if typing.get_origin(hint) is tuple else hint


CONFIG_KEYS = [(name, key) for name, keys in sorted(_SECTION_KEYS.items()) for key in sorted(keys)]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(target=st.sampled_from(CONFIG_KEYS), how=st.sampled_from(["drop", "rename", "retype"]), pick=st.integers(0, 5))
@example(target=("hierarchy", "text"), how="retype", pick=0)  # {"text": 5}
@example(target=("hierarchy", "text"), how="retype", pick=1)  # {"text": null}
@example(target=("hierarchy", "path"), how="retype", pick=0)  # {"path": 5}
def test_malformed_config_exits_one(ws, tmp_path_factory, capsys, target, how, pick):
    """One key of one section made malformed: renamed to an unknown key,
    given a value of the wrong JSON kind, or dropped together with every
    other key name of its section, which leaves a list of the values where an
    object belongs. (Dropping a single key leaves a valid config: every key
    is optional.) The command that reads the section exits 1 with one line
    naming it, and writes nothing."""
    section, key = target
    tmp = tmp_path_factory.mktemp("config")
    tree_file = tmp / "tree.txt"
    tree_file.write_text(FIXTURE_TREE)
    config = _valid_sections(tree_file if key == "path" else None)
    if how == "drop":
        config[section] = list(config[section].values())
    elif how == "rename":
        config[section][key + "_x"] = config[section].pop(key)
    else:
        pool = WRONG_KIND[_kind(section, key)]
        config[section][key] = pool[pick % len(pool)]
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp / "out"
    argv = {
        "hierarchy": ["gen-data", "--out", str(out)],
        "dataset": ["gen-data", "--out", str(out)],
        "che": ["train-che", "--out", str(out)],
        "classifier": ["train-clf", "--data", str(ws["data"]), "--resolution", "8", "--out", str(out)],
        "gan": gan_args(ws, "flat", out),
        "eval": ["eval", "--run", str(ws["run"]), "--data", str(ws["data"]), "--out", str(out)],
    }[section]
    capsys.readouterr()
    assert main(argv + ["--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and section in err, err
    assert not out.exists()


def test_corrupt_input_exits_two(ws, tmp_path, capsys):
    bad = tmp_path / "corrupt.hgds"
    bad.write_bytes(ws["data"].read_bytes()[:100])
    code = main(
        ["train-clf", "--data", str(bad), "--resolution", "8", "--out", str(tmp_path / "c.hgck")]
    )
    assert code == 2
    assert capsys.readouterr().err


def test_usage_error_exits_one(ws, capsys):
    assert main(["train-gan", "--mode", "bogus"]) == 1
    assert "invalid choice" in capsys.readouterr().err


def test_locked_output_rejected(ws, tmp_path, capsys):
    out = tmp_path / "d.hgds"
    (tmp_path / "d.hgds.lock").write_text("12345\n")
    assert main(["gen-data", "--config", str(ws["cfg"]), "--out", str(out)]) == 1
    assert "lock" in capsys.readouterr().err


def test_lock_of_an_exited_process_names_it(ws, tmp_path, capsys):
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    lock = tmp_path / "d.hgds.lock"
    lock.write_text(f"{child.pid}\n")
    assert main(["gen-data", "--config", str(ws["cfg"]), "--out", str(tmp_path / "d.hgds")]) == 1
    assert f"process {child.pid}, which is no longer running; remove {lock}" in capsys.readouterr().err
    assert lock.exists()  # never removed automatically


def test_lock_of_a_live_or_unprobed_pid_keeps_the_message(ws, tmp_path, capsys, monkeypatch):
    lock = tmp_path / "d.hgds.lock"
    for pid in (os.getpid(), 0, -1):
        if pid <= 0:  # 0 and negative PIDs name process groups: never probed
            monkeypatch.setattr(os, "kill", lambda *a: pytest.fail(f"probed {a}"))
        lock.write_text(f"{pid}\n")
        assert main(["gen-data", "--config", str(ws["cfg"]), "--out", str(tmp_path / "d.hgds")]) == 1
        assert f"locked by another run, pid {pid}" in capsys.readouterr().err
    assert lock.exists()


def test_lock_released_after_run(ws, tmp_path):
    out = tmp_path / "d.hgds"
    assert main(["gen-data", "--config", str(ws["cfg"]), "--out", str(out)]) == 0
    assert not (tmp_path / "d.hgds.lock").exists()
    assert main(["gen-data", "--config", str(ws["cfg"]), "--out", str(out)]) == 0  # reusable


# ------------------------------------------------------- malformed artifacts


def assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


def rewrite_manifest(src, dest, manifest_bytes):
    """Copy a checkpoint with its metadata bytes replaced and a valid CRC."""
    body = src.read_bytes()[:-4]
    (meta_len,) = struct.unpack_from("<I", body, 8)
    body = body[:8] + struct.pack("<I", len(manifest_bytes)) + manifest_bytes + body[12 + meta_len :]
    dest.write_bytes(body + struct.pack("<I", zlib.crc32(body)))


def rewrite_dataset_spec(src, dest, edit):
    """Copy a dataset file with its spec JSON edited and a valid CRC."""
    rewrite_manifest(src, dest, json.dumps(edit(load_checkpoint(src)[0])).encode())


def relabel_first_sample(src, dest, leaf):
    """Copy a dataset file with its first sample's label replaced and a valid CRC."""
    meta, arrays = load_checkpoint(src)
    arrays["train.leaf"][0] = leaf
    save_checkpoint(dest, arrays, meta)


def manifest_without(path, key):
    manifest = load_checkpoint(path)[0]
    del manifest[key]
    return json.dumps(manifest).encode()


def test_dataset_spec_missing_key_exits_two(ws, tmp_path, capsys):
    bad = tmp_path / "bad.hgds"
    rewrite_dataset_spec(ws["data"], bad, lambda spec: {k: v for k, v in spec.items() if k != "samples_per_leaf"})
    code = main(["train-clf", "--data", str(bad), "--resolution", "8", "--out", str(tmp_path / "c.hgck")])
    assert code == 2
    assert_one_line_error(capsys)


def test_classifier_manifest_missing_key_exits_two(ws, tmp_path, capsys):
    bad = tmp_path / "clf8.hgck"
    rewrite_manifest(ws["clf8"], bad, manifest_without(ws["clf8"], "pixels"))
    argv = gan_args(ws, "treegan", tmp_path / "run")
    argv[argv.index("--clf8") + 1] = str(bad)
    assert main(argv) == 2
    assert_one_line_error(capsys)


def test_classifier_manifest_huge_width_exits_two(ws, tmp_path, capsys):
    # the manifest's widths are checked against the stored shapes before any
    # network is built, so a CRC-valid 10**6 width allocates nothing
    bad = tmp_path / "clf8.hgck"
    rewrite_manifest(ws["clf8"], bad, json.dumps(load_checkpoint(ws["clf8"])[0] | {"clf_hidden": 10**6}).encode())
    argv = gan_args(ws, "treegan", tmp_path / "run")
    argv[argv.index("--clf8") + 1] = str(bad)
    assert main(argv) == 2
    assert_one_line_error(capsys)


@pytest.mark.parametrize("key", ["gen_hidden", "disc_hidden"])
def test_models_manifest_huge_width_exits_two(ws, tmp_path, capsys, key):
    run = tmp_path / "run"
    shutil.copytree(ws["run"], run)
    models = run / "models.hgck"
    rewrite_manifest(models, models, json.dumps(load_checkpoint(models)[0] | {key: 10**6}).encode())
    code = main(["eval", "--run", str(run), "--data", str(ws["data"]), "--out", str(tmp_path / "m.csv")])
    assert code == 2
    assert_one_line_error(capsys)


def test_classifier_manifest_not_json_exits_two(ws, tmp_path, capsys):
    bad = tmp_path / "clf16.hgck"
    rewrite_manifest(ws["clf16"], bad, b"\x00not json{")
    argv = gan_args(ws, "treegan", tmp_path / "run")
    argv[argv.index("--clf16") + 1] = str(bad)
    assert main(argv) == 2
    assert_one_line_error(capsys)


def test_models_manifest_missing_key_exits_two(ws, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(ws["run"], run)
    models = run / "models.hgck"
    rewrite_manifest(models, models, manifest_without(models, "gen_hidden"))
    code = main(["eval", "--run", str(run), "--data", str(ws["data"]), "--out", str(tmp_path / "m.csv")])
    assert code == 2
    assert_one_line_error(capsys)


def test_dataset_spec_too_few_samples_exits_two(ws, tmp_path, capsys):
    bad = tmp_path / "bad.hgds"
    rewrite_dataset_spec(ws["data"], bad, lambda spec: spec | {"samples_per_leaf": 4})
    code = main(["train-clf", "--data", str(bad), "--resolution", "8", "--out", str(tmp_path / "c.hgck")])
    assert code == 2
    assert_one_line_error(capsys)
    assert not (tmp_path / "c.hgck").exists()


@pytest.mark.parametrize("leaf", [999, 0], ids=["not-a-node", "root"])
def test_dataset_non_leaf_label_exits_two(ws, tmp_path, capsys, leaf):
    bad = tmp_path / "bad.hgds"
    relabel_first_sample(ws["data"], bad, leaf)
    argv = gan_args(ws, "treegan", tmp_path / "run")
    argv[argv.index("--data") + 1] = str(bad)
    assert main(argv) == 2
    assert_one_line_error(capsys)


OTHER_TREE = "root\nroot/a\nroot/a/x\nroot/a/y\nroot/a/z\nroot/b\nroot/b/u\nroot/b/v\nroot/b/w\n"


def test_embeddings_for_another_hierarchy_exit_two(ws, tmp_path, capsys):
    other = tmp_path / "other.txt"
    other.write_text(OTHER_TREE)
    che = tmp_path / "other.hgck"
    assert main(["train-che", "--config", str(ws["cfg"]), "--hierarchy", str(other), "--out", str(che)]) == 0
    # inspect-embeddings labels the rows with the hierarchy stored in the table
    sim = tmp_path / "sim.csv"
    assert main(["inspect-embeddings", "--embeddings", str(che), "--out", str(sim)]) == 0
    assert sim.read_text().splitlines()[0] == "class,root,a,x,y,z,b,u,v,w"
    capsys.readouterr()
    # the commands that pair the table with a dataset refuse it
    assert main(gan_args(ws, "seg", tmp_path / "run", embeddings=che)) == 2
    assert_one_line_error(capsys)
    shutil.copytree(ws["run"], tmp_path / "mixed")
    shutil.copy(che, tmp_path / "mixed" / "embeddings.hgck")
    argv = ["eval", "--run", str(tmp_path / "mixed"), "--data", str(ws["data"]), "--out", str(tmp_path / "m.csv")]
    assert main(argv) == 2
    assert_one_line_error(capsys)


def test_embeddings_of_another_dim_exit_two(ws, tmp_path, capsys):
    cfg = tmp_path / "dim8.json"
    cfg.write_text('{"che": {"dim": 8, "epochs": 1}}')
    run = tmp_path / "run"
    shutil.copytree(ws["run"], run)
    assert main(["train-che", "--config", str(cfg), "--out", str(run / "embeddings.hgck")]) == 0
    capsys.readouterr()
    assert main(["eval", "--run", str(run), "--data", str(ws["data"]), "--out", str(tmp_path / "m.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "dim 8" in err and "dim 16" in err, err
    assert not (tmp_path / "m.csv").exists()


def clf8_of_another_tree(ws, dest):
    """The 8x8 classifier relabelled with OTHER_TREE, whose level widths match."""
    meta, _ = load_checkpoint(ws["clf8"])
    blob = json.dumps(meta | {"hierarchy": OTHER_TREE}, sort_keys=True, separators=(",", ":")).encode()
    rewrite_manifest(ws["clf8"], dest, blob)
    return dest


@pytest.mark.parametrize(
    "flag, kind",
    [
        ("--data", "clf8"),
        ("--clf8", "data"),
        ("--clf16", "che"),
        ("--embeddings", "clf16"),
        ("--clf8", "clf16"),  # a classifier of the other resolution
        ("--clf8", "clf8 of another tree"),
    ],
)
def test_wrong_kind_artifact_exits_two(ws, tmp_path, capsys, flag, kind):
    argv = gan_args(ws, "seg", tmp_path / "run", embeddings=ws["che"])
    path = ws[kind] if kind in ws else clf8_of_another_tree(ws, tmp_path / "other_clf8.hgck")
    argv[argv.index(flag) + 1] = str(path)
    assert main(argv) == 2
    assert_one_line_error(capsys)


def test_failed_train_gan_leaves_no_run_directory_and_no_lock(ws, tmp_path, capsys):
    # the classifiers are swapped, so the trainer refuses them under the lock
    argv = gan_args(ws, "treegan", tmp_path / "run")
    argv[argv.index("--clf8") + 1], argv[argv.index("--clf16") + 1] = str(ws["clf16"]), str(ws["clf8"])
    assert main(argv) == 2
    assert "classifier for 8x8 has 256 inputs" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == []


def _config_with(ws, tmp_path, section: str, key: str, value) -> Path:
    config = json.loads(ws["cfg"].read_text())
    config[section][key] = value
    cfg = tmp_path / "diverge.json"
    cfg.write_text(json.dumps(config))
    return cfg


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_diverged_train_gan_exits_two_and_saves_the_aborted_run(ws, tmp_path, capsys):
    # at this rate the first step overflows: the run ends there, and its
    # directory records the abort
    cfg = _config_with(ws, tmp_path, "gan", "gan_lr", 1e200)
    out = tmp_path / "run"
    assert main(gan_args(ws, "treegan", out) + ["--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("error: run aborted at step 1: "), err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["aborted"] is True and manifest["abort_step"] == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverged_train_che_exits_two_and_leaves_nothing(ws, tmp_path, capsys):
    cfg = _config_with(ws, tmp_path, "che", "lr", 1e300)
    assert main(["train-che", "--config", str(cfg), "--out", str(tmp_path / "che.hgck")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite loss: op 'che_margin' ") and err.count("\n") == 1, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["diverge.json"]  # no output, lock or manifest


def corrupt(blob: bytes, how: str, at, bit: int, tail: bytes) -> bytes:
    """Cut the file at, flip one bit at, or append bytes to it. ``at`` is a
    byte offset (taken modulo the length) or the name of a tensor, which
    points at the byte of its first value that holds the lowest exponent bit."""
    if isinstance(at, str):
        start = blob.index(at.encode()) + len(at)
        (rank,) = struct.unpack_from("<I", blob, start)
        at = start + 4 + 4 * rank + 6
    at %= len(blob)
    if how == "cut":
        return blob[:at]
    if how == "flip":
        return blob[:at] + bytes([blob[at] ^ (1 << bit)]) + blob[at + 1 :]
    return blob + tail


def reader_argv(ws, kind, tmp):
    """Copy the artifact of this kind into ``tmp``; return the copy and the
    argv of the command that reads it."""
    if kind in ("models.hgck", "embeddings.hgck"):
        shutil.copytree(ws["run"], tmp / "run")
        argv = ["eval", "--run", str(tmp / "run"), "--data", str(ws["data"]), "--out", str(tmp / "m.csv")]
        return tmp / "run" / kind, argv
    path = tmp / ws[kind].name
    shutil.copy(ws[kind], path)
    if kind == "data":
        return path, ["train-clf", "--data", str(path), "--resolution", "8", "--out", str(tmp / "c.hgck")]
    argv = gan_args(ws, "treegan", tmp / "run")
    argv[argv.index("--clf8") + 1] = str(path)
    return path, argv


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    kind=st.sampled_from(["data", "clf8", "models.hgck", "embeddings.hgck"]),
    how=st.sampled_from(["cut", "flip", "append"]),
    at=st.integers(0, 2**32),
    bit=st.integers(0, 7),
    tail=st.binary(min_size=1, max_size=16),
)
# a weight halved or doubled: a well-formed file with a wrong number in it
@example(kind="models.hgck", how="flip", at="g2.w1", bit=4, tail=b"x")
def test_corrupt_artifact_exits_two(ws, tmp_path_factory, capsys, kind, how, at, bit, tail):
    path, argv = reader_argv(ws, kind, tmp_path_factory.mktemp("fuzz"))
    path.write_bytes(corrupt(path.read_bytes(), how, at, bit, tail))
    capsys.readouterr()
    assert main(argv) == 2
    assert_one_line_error(capsys)


def test_rerun_into_a_run_directory_leaves_only_its_files(ws, tmp_path):
    # the second run has fewer checkpoints; none of the first run's files outlive it
    run = tmp_path / "run"
    for eval_every in (2, 4):
        cfg = tmp_path / f"every{eval_every}.json"
        gan = {"steps_per_stage": 8, "eval_every": eval_every, "eval_n_per_class": 4, "batch_size": 8, "seed": 0}
        cfg.write_text(json.dumps({"gan": gan}))
        argv = gan_args(ws, "flat", run)
        argv[argv.index("--config") + 1] = str(cfg)
        assert main(argv) == 0
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["checkpoints"] == [12, 16]
    metrics = {f"metrics_step{step:06d}.{ext}" for step in (12, 16) for ext in ("csv", "json")}
    assert {p.name for p in run.iterdir()} == {"models.hgck", "embeddings.hgck", "trace.csv", "manifest.json"} | metrics
    assert sorted(p.name for p in tmp_path.iterdir()) == ["every2.json", "every4.json", "run"]


@pytest.mark.parametrize(
    "what",
    [
        "file",
        "directory without a run",
        "symlink",
        "run with a foreign file",
        "run with a metrics file it does not name",
        "run beside the inputs",
        "working directory",
    ],
)
def test_train_gan_refuses_an_out_it_may_not_replace_before_any_work(ws, tmp_path, capsys, monkeypatch, what):
    import hiergan.cli as cli

    def no_training(*args, **kwargs):
        raise AssertionError("train-gan trained before refusing its --out")

    monkeypatch.setattr(cli, "run_training", no_training)
    out = tmp_path / "out"
    argv_ws = ws
    if what == "file":
        out.write_bytes(b"not a run\n")
    elif what == "directory without a run":
        out.mkdir()
        (out / "notes.txt").write_bytes(b"keep me\n")
    elif what == "symlink":  # even to a run: the swap would put a directory in the link's place
        shutil.copytree(ws["run"], tmp_path / "linked")
        out.symlink_to(tmp_path / "linked")
    elif what == "run with a foreign file":
        shutil.copytree(ws["run"], out)
        (out / "notes.txt").write_bytes(b"keep me\n")
    elif what == "run with a metrics file it does not name":
        shutil.copytree(ws["run"], out)
        (out / "metrics_step999999.csv").write_bytes(b"not this run's\n")
    elif what == "run beside the inputs":  # as left by an earlier `train-gan --out .`
        shutil.copytree(ws["run"], out)
        argv_ws = {key: shutil.copy(ws[key], out) for key in ("cfg", "data", "clf8", "clf16")}
    else:  # an empty working directory: the swap would delete it from under the process
        out.mkdir()
        monkeypatch.chdir(out)
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    assert main(gan_args(argv_ws, "flat", "." if what == "working directory" else out)) == 1
    assert_one_line_error(capsys)
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == (["linked", "out"] if what == "symlink" else ["out"])


# the function each command does its work in; a test that expects a refusal
# before any work makes it fail
WORK = {
    "gen-data": "generate_dataset",
    "train-che": "train_che",
    "train-clf": "train_classifier",
    "train-gan": "run_training",
    "eval": "evaluate",
    "inspect-embeddings": "load_table",
}


def _forbid_work(monkeypatch, command: str) -> None:
    import hiergan.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError(f"{command} worked before refusing its outputs")

    monkeypatch.setattr(cli, WORK[command], no_work)


def _overwriting_argv(ws, tmp: Path, case: str) -> list[str]:
    """A command line whose output resolves to one of its inputs, or to
    another of its outputs; the inputs are copies under ``tmp``."""
    cfg = shutil.copy(ws["cfg"], tmp)
    data = shutil.copy(ws["data"], tmp)
    if case.endswith("config-named tree"):
        tree = tmp / "tree.txt"
        tree.write_text(FIXTURE_TREE)
        (tmp / "named.json").write_text(json.dumps({"hierarchy": {"path": str(tree)}}))
        return [case.split()[0], "--config", str(tmp / "named.json"), "--out", str(tree)]
    if case == "gen-data":
        return ["gen-data", "--config", cfg, "--out", cfg]
    if case == "train-che":
        tree = tmp / "tree.txt"
        tree.write_text(FIXTURE_TREE)
        return ["train-che", "--config", cfg, "--hierarchy", str(tree), "--out", str(tree)]
    if case == "train-clf":
        return ["train-clf", "--config", cfg, "--data", data, "--resolution", "8", "--out", data]
    if case == "inspect-embeddings":
        che = shutil.copy(ws["che"], tmp)
        return ["inspect-embeddings", "--embeddings", che, "--out", che]
    run = shutil.copytree(ws["run"], tmp / "run")
    if case == "train-gan":  # a seg run that would replace the directory it reads its table from
        argv = gan_args(ws | {"cfg": cfg, "data": data}, "seg", run, embeddings=run / "embeddings.hgck")
        return [str(a) for a in argv]
    out = run / "models.hgck" if case == "eval" else tmp / "m.json"  # "eval twin": the CSV is its own JSON twin
    return ["eval", "--config", cfg, "--run", str(run), "--data", data, "--out", str(out)]


@pytest.mark.parametrize(
    "case",
    [
        "gen-data",
        "train-che",
        "train-clf",
        "train-gan",
        "eval",
        "eval twin",
        "inspect-embeddings",
        "gen-data config-named tree",
        "train-che config-named tree",
    ],
)
def test_command_refuses_an_output_that_is_an_input(ws, tmp_path, capsys, monkeypatch, case):
    argv = _overwriting_argv(ws, tmp_path, case)
    _forbid_work(monkeypatch, argv[0])
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    assert main(argv) == 1
    assert_one_line_error(capsys)
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


def test_failed_eval_leaves_no_manifest_beside_a_new_report(ws, tmp_path, capsys, monkeypatch):
    import hiergan.cli as cli

    out = tmp_path / "metrics.csv"
    argv = ["eval", "--config", str(ws["cfg"]), "--run", str(ws["run"]), "--data", str(ws["data"]), "--out", str(out)]
    assert main(argv) == 0
    old_csv = out.read_bytes()
    # a JSON twin that is a directory is refused before any work
    (tmp_path / "metrics.json").unlink()
    (tmp_path / "metrics.json").mkdir()
    assert main(argv + ["--seed", "8"]) == 1
    assert capsys.readouterr().err == f"error: --out {out}: {tmp_path / 'metrics.json'} is a directory\n"
    assert out.read_bytes() == old_csv
    (tmp_path / "metrics.json").rmdir()
    # a later eval whose JSON write fails, after its CSV is written
    write_atomic = cli.write_atomic

    def json_disk_full(path, data):
        if Path(path).suffix == ".json":
            raise OSError("no space left for the JSON report")
        write_atomic(path, data)

    monkeypatch.setattr(cli, "write_atomic", json_disk_full)
    assert main(argv + ["--seed", "8"]) == 1
    assert_one_line_error(capsys)
    assert out.read_bytes() != old_csv  # the new report
    assert not (tmp_path / "metrics.csv.manifest.json").exists()


def _argv_to(ws, command: str, out) -> list[str]:
    cfg, data = str(ws["cfg"]), str(ws["data"])
    head = {
        "gen-data": ["gen-data", "--config", cfg],
        "train-che": ["train-che", "--config", cfg],
        "train-clf": ["train-clf", "--config", cfg, "--data", data, "--resolution", "8"],
        "train-gan": gan_args(ws, "flat", out)[:-2],
        "eval": ["eval", "--config", cfg, "--run", str(ws["run"]), "--data", data],
        "inspect-embeddings": ["inspect-embeddings", "--embeddings", str(ws["che"])],
    }[command]
    return [*head, "--out", str(out)]


def _ws_bytes(ws) -> dict:
    files = [ws[key] for key in ("cfg", "data", "che", "clf8", "clf16")] + sorted(ws["run"].iterdir())
    return {p: p.read_bytes() for p in files}


@pytest.mark.parametrize("out", [".", "/", "", "..", "adir", "x.lock", "x.manifest.json", "x/", "new/x"])
@pytest.mark.parametrize("command", ["gen-data", "train-che", "train-clf", "train-gan", "eval", "inspect-embeddings"])
def test_out_that_names_no_file_exits_one_before_any_work(ws, tmp_path, capsys, monkeypatch, command, out):
    """Every command against each shape of --out. One that names no file,
    an existing directory (here not empty, so no run directory either), or a
    name ending like the CLI's own .lock and .manifest.json files is refused
    with exit 1 and one line, before any work and before any file is made.
    A trailing slash writes the name without it; a missing parent directory
    is created."""
    work = tmp_path / "work"
    (work / "adir").mkdir(parents=True)
    (work / "adir" / "keep.txt").write_bytes(b"keep me\n")
    monkeypatch.chdir(work)
    inputs = _ws_bytes(ws)
    accepted = out in ("x/", "new/x")
    if not accepted:
        _forbid_work(monkeypatch, command)
    code = main(_argv_to(ws, command, out))
    err = capsys.readouterr().err
    assert _ws_bytes(ws) == inputs
    if accepted:
        assert code == 0 and err == "", err
        written = work / out.rstrip("/")
        assert (written / "manifest.json").is_file() if command == "train-gan" else written.is_file()
        return
    assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert "--out" in err or command == "train-gan" and out == "adir", err  # check_run_target names the run
    if out in (".", "/", "", ".."):
        assert err == f"error: --out {out!r} names no file\n"
    assert sorted(p.relative_to(work).as_posix() for p in work.rglob("*")) == ["adir", "adir/keep.txt"]


@pytest.mark.parametrize(
    "command, name",
    [
        ("gen-data", "hierarchy.path"),
        ("train-che", "--hierarchy"),
        ("train-che", "hierarchy.path"),
        ("train-clf", "--data"),
        ("train-gan", "--data"),
        ("train-gan", "--clf8"),
        ("train-gan", "--clf16"),
        ("train-gan", "--embeddings"),
        ("eval", "--run"),
        ("eval", "--data"),
        ("inspect-embeddings", "--embeddings"),
    ],
)
def test_empty_input_path_exits_one_before_any_work(ws, tmp_path, capsys, monkeypatch, command, name):
    """An empty path names the working directory, never a file: an empty
    input flag or config ``hierarchy.path`` is refused with exit 1 and one
    line naming it, before the lock and before any work."""
    argv = _argv_to(ws, command, tmp_path / "out")
    if command == "train-gan" and name == "--embeddings":
        argv = gan_args(ws, "seg", tmp_path / "out", embeddings="")
    elif name == "--hierarchy":
        argv[1:1] = ["--hierarchy", ""]
    elif name == "hierarchy.path":
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"hierarchy": {"path": ""}}))
        argv[argv.index("--config") + 1] = str(empty)
    else:
        argv[argv.index(name) + 1] = ""
    _forbid_work(monkeypatch, command)
    inputs = _ws_bytes(ws)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    assert (name if name.startswith("--") else "'hierarchy': path") in captured.err
    assert "is empty" in captured.err and captured.out == ""
    assert _ws_bytes(ws) == inputs
    assert [p.name for p in tmp_path.iterdir()] == (["empty.json"] if name == "hierarchy.path" else [])


def test_config_hierarchy_path_is_an_input(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("tree.txt").write_text(FIXTURE_TREE)
    config = {"hierarchy": {"path": "tree.txt"}, "dataset": {"samples_per_leaf": 5}, "che": {"epochs": 2}}
    Path("c2.json").write_text(json.dumps(config))
    for command in ("gen-data", "train-che"):
        assert main([command, "--config", "c2.json", "--out", "tree.txt"]) == 1
        assert capsys.readouterr().err == "error: --out tree.txt would overwrite the input tree.txt\n"
    assert Path("tree.txt").read_text() == FIXTURE_TREE
    assert main(["gen-data", "--config", "c2.json", "--out", "d.hgds"]) == 0
    inputs = json.loads(Path("d.hgds.manifest.json").read_text())["inputs"]
    assert inputs == {"hierarchy": {"path": "tree.txt", "sha256": hashlib.sha256(FIXTURE_TREE.encode()).hexdigest()}}


@pytest.mark.parametrize("command", ["gen-data", "train-che", "train-clf", "train-gan", "eval"])
def test_config_hierarchy_with_both_keys_exits_one_before_any_work(ws, tmp_path, capsys, monkeypatch, command):
    """Every command that takes --config refuses a hierarchy section that
    sets both ``text`` and ``path``, also those that never read a tree."""
    tree = tmp_path / "tree.txt"
    tree.write_text(FIXTURE_TREE)
    both = tmp_path / "both.json"
    both.write_text(json.dumps({"hierarchy": {"text": FIXTURE_TREE, "path": str(tree)}}))
    argv = _argv_to(ws, command, tmp_path / "out")
    argv[argv.index("--config") + 1] = str(both)
    _forbid_work(monkeypatch, command)
    inputs = _ws_bytes(ws)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: config section 'hierarchy' sets both 'text' and 'path'\n"
    assert captured.out == ""
    assert _ws_bytes(ws) == inputs
    assert sorted(p.name for p in tmp_path.iterdir()) == ["both.json", "tree.txt"]  # no output, lock or manifest


@pytest.mark.parametrize("section", ["path", "text"])
def test_hierarchy_flag_wins_over_the_config_tree(tmp_path, monkeypatch, section):
    """``--hierarchy A`` beside a config naming tree B, by file or by text:
    the table is A's, and the manifest records A as the only input."""
    monkeypatch.chdir(tmp_path)
    Path("A.txt").write_text(OTHER_TREE)
    Path("B.txt").write_text(FIXTURE_TREE)
    che = {"epochs": 5, "seed": 0}
    Path("a.json").write_text(json.dumps({"che": che}))
    tree_b = "B.txt" if section == "path" else FIXTURE_TREE
    Path("ab.json").write_text(json.dumps({"che": che, "hierarchy": {section: tree_b}}))
    assert main(["train-che", "--config", "a.json", "--hierarchy", "A.txt", "--out", "alone.hgck"]) == 0
    assert main(["train-che", "--config", "ab.json", "--hierarchy", "A.txt", "--out", "both.hgck"]) == 0
    assert Path("both.hgck").read_bytes() == Path("alone.hgck").read_bytes()
    sha = hashlib.sha256(OTHER_TREE.encode()).hexdigest()
    for out in ("alone.hgck", "both.hgck"):
        inputs = json.loads(Path(out + ".manifest.json").read_text())["inputs"]
        assert inputs == {"hierarchy": {"path": "A.txt", "sha256": sha}}


# files opened for reading, appended to by the audit hook below while a test sets a list here
_READS: list[Path] | None = None


def _record_reads(event, args):
    if event != "open" or _READS is None or not isinstance(args[0], (str, bytes, os.PathLike)):
        return
    path, _, flags = args
    if flags & os.O_ACCMODE != os.O_WRONLY and not flags & os.O_CREAT and not os.path.isdir(path):
        _READS.append(Path(os.path.abspath(os.fsdecode(path))))


sys.addaudithook(_record_reads)  # an audit hook cannot be removed; this one is idle while _READS is None


def test_a_command_reads_only_what_its_manifest_records(tmp_path, monkeypatch):
    """Over the golden eight-command pipeline, each command reads every input
    its manifest records and, beside its --config and its own outputs, no
    other file. Handlers get those inputs from the runner as ``reads``."""
    global _READS
    import hiergan.cli as cli
    from test_golden import CLI_CONFIG, CLI_PIPELINE

    handlers = {name: fn for name, fn in vars(cli).items() if name.startswith("cmd_")}
    assert len(handlers) == 6
    for name, fn in handlers.items():
        assert list(inspect.signature(fn).parameters) == ["args", "config", "reads"], name
    root = tmp_path.resolve()
    monkeypatch.chdir(root)
    Path("c.json").write_text(json.dumps(CLI_CONFIG, sort_keys=True))
    for argv in CLI_PIPELINE:
        _READS = []
        try:
            assert main(argv) == 0, argv
        finally:
            read, _READS = set(_READS), None
        args = cli.build_parser().parse_args(argv)
        out = root / args.out
        manifest_path = out / "manifest.json" if args.command == "train-gan" else cli._manifest_path(out)
        vouched = {root / entry["path"] for entry in json.loads(manifest_path.read_text())["inputs"].values()}
        vouched |= {root / args.config} if args.config else set()
        own = {out, out.with_suffix(".json"), cli._manifest_path(out)}
        assert vouched <= read, argv
        strays = {p for p in read if root in p.parents and p not in vouched | own and out not in p.parents}
        assert not strays, (argv, strays)


@pytest.mark.parametrize("command", ["gen-data", "train-che", "train-clf", "inspect-embeddings"])
def test_failed_manifest_write_leaves_no_old_manifest_beside_a_new_output(ws, tmp_path, capsys, monkeypatch, command):
    import hiergan.cli as cli

    out = tmp_path / "out.bin"
    manifest = tmp_path / "out.bin.manifest.json"
    argv = _argv_to(ws, command, out)
    assert main(argv) == 0 and manifest.exists()
    old = out.read_bytes()

    def disk_full(*args, **kwargs):
        raise OSError("no space left for the manifest")

    monkeypatch.setattr(cli, "_write_manifest", disk_full)
    rerun = argv if command == "inspect-embeddings" else argv + ["--seed", "5"]
    assert main(rerun) == 1
    assert_one_line_error(capsys)
    assert not manifest.exists()
    if command != "inspect-embeddings":
        assert out.read_bytes() != old  # the new output is in place
