"""The config rules: each field's rule declared beside it, one checker.

Library callers meet the same type and bound checks as a config file; every
CLI-settable field declares a rule, the CLI's key sets stay as pinned, and
the README's table of keys, defaults and rules is the declared one. The
bounds, through the dataclasses and through the CLI, are tested from the
declared rules in ``test_cli.py``.
"""

import dataclasses
import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from hiergan.cli import _SECTION_KEYS, _SECTIONS
from hiergan.config import Rule
from hiergan.embed import CheConfig, EmbeddingError
from hiergan.hierarchy import FIXTURE_TREE, parse_hierarchy
from hiergan.metrics import EvalConfig
from hiergan.models import ClassifierConfig, ModelError
from hiergan.synthdata import DatasetError, DatasetSpec, default_dataset_spec
from hiergan.training import TrainConfig, TrainingError

TREE = parse_hierarchy(FIXTURE_TREE)

# the config keys when the rules moved beside their fields: none added or lost since
PINNED_KEYS = {
    "hierarchy": {"text", "path"},
    "dataset": {"samples_per_leaf", "level_noise", "observation_noise", "seed"},
    "che": {"dim", "margin", "negatives_per_positive", "lr", "epochs", "seed"},
    "classifier": {"epochs", "batch_size", "lr", "seed"},
    "gan": {
        "lambda1", "lambda2", "batch_size", "gan_lr", "emb_lr", "steps_per_stage", "eval_every",
        "eval_n_per_class", "che_margin", "che_negatives", "embed_dim", "seed",
    },
    "eval": {"n_per_class", "seed"},
}


def _default(cls):
    """A config at its defaults; the dataset's is the CLI's, of the fixture tree."""
    return default_dataset_spec(TREE) if cls is DatasetSpec else cls()


@pytest.mark.parametrize(
    "cls, error, key, value",
    [
        (CheConfig, EmbeddingError, "lr", math.nan),
        (CheConfig, EmbeddingError, "dim", True),
        (TrainConfig, TrainingError, "gan_lr", math.nan),
        (TrainConfig, TrainingError, "batch_size", 8.5),
        (TrainConfig, TrainingError, "lambda1", math.inf),
        (ClassifierConfig, ModelError, "epochs", 2.5),
        (DatasetSpec, DatasetError, "observation_noise", math.nan),
    ],
    ids=["che-lr-nan", "che-dim-bool", "gan-lr-nan", "gan-batch-float", "gan-lambda1-inf", "clf-epochs-float", "dataset-noise-nan"],
)
def test_library_caller_meets_the_config_rules(cls, error, key, value):
    """A value that would fail deep inside a run, or run with a NaN, is
    refused where the config is made, with the module's own error naming
    the field."""
    with pytest.raises(error, match=rf"^{key} must be .+, got {re.escape(repr(value))}$"):
        dataclasses.replace(_default(cls), **{key: value})


@pytest.mark.parametrize(
    "cls, error, key, value",
    [
        (CheConfig, EmbeddingError, "seed", -(10**5000)),
        (TrainConfig, TrainingError, "lambda1", 10**5000),
        (DatasetSpec, DatasetError, "level_noise", [10**5000, 0.0, 0.0]),
    ],
    ids=["che-seed", "gan-lambda1", "dataset-level-noise"],
)
def test_an_integer_too_long_to_print_is_refused_with_the_modules_error(cls, error, key, value):
    """Python will not turn an integer of more than 4,300 digits into text;
    the refusal still names the field and its rule, without the digits."""
    with pytest.raises(error, match=rf"^{key} must be .+, got an integer too long to print"):
        dataclasses.replace(_default(cls), **{key: value})


@pytest.mark.parametrize(
    "rule, value, admitted",
    [
        (Rule(int, 0), np.int64(3), True),
        (Rule(int, 0), 10**400, True),  # an integer has no float range to leave
        (Rule(int, 0), -(10**400), False),
        (Rule(int, 0), 1.0, False),
        (Rule(int, 0), np.bool_(True), False),
        (Rule(float, 0), np.float64(0.5), True),
        (Rule(float, 0), 10**400, False),  # no finite float holds it
        (Rule(float, 0), -math.inf, False),
        (Rule(float, 0), "0.5", False),
        (Rule(tuple, 0), (0.5, 1), True),
        (Rule(tuple, 0), [], True),
        (Rule(tuple, 0), [0.5, math.nan], False),
        (Rule(tuple, 0), [0.5, True], False),
        (Rule(tuple, 0), "05", False),
    ],
)
def test_rule_admits_numbers_of_its_kind_within_its_bound(rule, value, admitted):
    assert rule.admits(value) is admitted


@pytest.mark.parametrize(
    "cls, unruled",
    [(DatasetSpec, {"hierarchy"}), (CheConfig, set()), (ClassifierConfig, set()), (TrainConfig, {"mode"}), (EvalConfig, set())],
)
def test_every_config_field_declares_a_rule(cls, unruled):
    fields = dataclasses.fields(cls)
    assert {f.name for f in fields if not isinstance(f.metadata.get("rule"), Rule)} == unruled


def test_config_keys_are_the_pinned_ones():
    assert _SECTION_KEYS == PINNED_KEYS


def _readme_table() -> dict:
    """The README's config table: (section, key) -> (default, rule) cells."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| section | key | default | rule |")
    assert lines[start + 1] == "|---|---|---|---|"
    rows = {}
    for line in itertools.takewhile(lambda line: line.startswith("|"), lines[start + 2 :]):
        section, key, default, rule = (cell.strip() for cell in line.strip("|").split("|"))
        rows[section.strip("`"), key.strip("`")] = (default.strip("`"), rule)
    return rows


def test_readme_config_table_is_the_declared_rules_and_defaults():
    want = {}
    for section, cls in _SECTIONS.items():
        config = _default(cls)
        for f in dataclasses.fields(cls):
            if "rule" in f.metadata:
                value = getattr(config, f.name)
                default = json.dumps(list(value) if isinstance(value, tuple) else value)
                want[section, f.name] = (default, str(f.metadata["rule"]))
    assert _readme_table() == want
