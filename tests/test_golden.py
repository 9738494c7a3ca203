"""Golden fingerprint: sha256 of a dataset file, of a trained embedding table
and of the artifacts of three short fixed runs.

`test_run_replays_exactly` only shows that a run agrees with itself; these
hashes show that a refactor kept every number and the dataset file format. A change that alters the
numerics on purpose (a new op order, a fused op) updates the hashes here and
says so in CHANGES.md, with criterion 8 passing on unchanged bounds.
"""

import hashlib

import numpy as np
import pytest

from hiergan.embed import CheConfig, save_table, train_che
from hiergan.hierarchy import FIXTURE_TREE, parse_hierarchy
from hiergan.models import ClassifierConfig, HierClassifier, ModelConfig, train_classifier
from hiergan.synthdata import default_dataset_spec, generate_dataset, load_dataset, save_dataset
from hiergan.training import TrainConfig, run_training, save_run

TREE = parse_hierarchy(FIXTURE_TREE)

DATASET_SHA256 = "0942e82e53af4b72ab80acf80abb4f26760738c1dec9f1a4aaadf0a6cfbdfdd2"

# the 50-epoch table is also the frozen table of the seg run below
CHE_SHA256 = "b852f48e00884d179112c0736144fa9f14ac0edc731373d1b40fa867aa248bb5"

GOLDEN = {
    "treegan": {
        "trace.csv": "144c28f6a7d6ff8d1b6ba93763b4d4911e89ccb250a143318aa8e505a65e4431",
        "models.hgck": "86b725513a3470c3c7fe287852630e0931261b67f2ff575c0e6b1d017f34463e",
        "metrics_step000020.json": "3f304352b6dca42c51f27f22586204db9e926663cdc038f65040c8c51d9af465",
    },
    "npc": {
        "trace.csv": "4f8cf101e5815db7f10e5d9e2ca1ae04d446525a85e40d80b367f62409840f54",
        "models.hgck": "7274a289f552de0dc1bc55fc134c5e908f9b92109143d835467005eccfcca687",
        "metrics_step000020.json": "9b329ce6acc5081d7e9cd4b7e1d702b424aa9f314e59b354785a0d41215f7d79",
    },
    "seg": {
        "trace.csv": "f8e4aeb25b95e73c4faf3e93ae50db8dc720ece3d489008df32ee5134550f0f2",
        "models.hgck": "8907ad8bf8a6dad2fd5e523ada936c77a683906d9c36d687063edfd736388e76",
        "embeddings.hgck": CHE_SHA256,
    },
}


@pytest.fixture(scope="module")
def setup():
    dataset = generate_dataset(default_dataset_spec(TREE, samples_per_leaf=30, seed=0))
    cfg = ClassifierConfig(epochs=3, seed=0)
    clfs = []
    for res in (8, 16):
        clf = HierClassifier.init(TREE, res * res, ModelConfig(), np.random.default_rng(cfg.seed))
        clfs.append(train_classifier(clf, dataset, res, cfg))
    return dataset, clfs


@pytest.fixture(scope="module")
def che_table():
    return train_che(TREE, CheConfig(epochs=50, seed=0))


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_golden_dataset_bytes(setup, tmp_path):
    dataset, _ = setup
    save_dataset(dataset, tmp_path / "a.hgds")
    assert _sha256(tmp_path / "a.hgds") == DATASET_SHA256
    save_dataset(load_dataset(tmp_path / "a.hgds"), tmp_path / "b.hgds")
    assert _sha256(tmp_path / "b.hgds") == DATASET_SHA256


def test_golden_che_table(che_table, tmp_path):
    save_table(tmp_path / "che.hgck", che_table)
    assert _sha256(tmp_path / "che.hgck") == CHE_SHA256


@pytest.mark.parametrize("mode", sorted(GOLDEN))
def test_golden_fingerprint(setup, che_table, mode, tmp_path):
    dataset, (clf_lo, clf_hi) = setup
    cfg = TrainConfig(mode=mode, steps_per_stage=10, eval_every=10, eval_n_per_class=50, seed=0)
    art = run_training(dataset, TREE, cfg, clf_lo, clf_hi, che_table if mode == "seg" else None)
    assert not art.aborted, art.abort_reason
    save_run(art, tmp_path)
    got = {name: _sha256(tmp_path / name) for name in GOLDEN[mode]}
    assert got == GOLDEN[mode]
