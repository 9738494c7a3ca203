"""Golden fingerprint: sha256 of a dataset file, of a trained embedding table
and of the artifacts of four short fixed runs, plus a hash of the arrays
each loader returns from those files; and sha256 of every file and of the
standard output of a tiny eight-command CLI pipeline.

`test_run_replays_exactly` only shows that a run agrees with itself; these
hashes show that a refactor kept every number. The file hashes also pin the
artifact format; the contents hashes do not, so a format change re-pins only
the file hashes and keeps `CONTENTS` as it is. A change that alters the
numerics on purpose (a new op order, a fused op) updates the hashes here and
says so in CHANGES.md, with criterion 8 passing on unchanged bounds.
"""

import hashlib
import json

import numpy as np
import pytest

from hiergan.cli import main
from hiergan.embed import CheConfig, load_table, save_table, train_che
from hiergan.hierarchy import FIXTURE_TREE, parse_hierarchy
from hiergan.models import ClassifierConfig, HierClassifier, ModelConfig, load_models, train_classifier
from hiergan.synthdata import default_dataset_spec, generate_dataset, load_dataset, save_dataset
from hiergan.training import TrainConfig, run_training, save_run

TREE = parse_hierarchy(FIXTURE_TREE)

DATASET_SHA256 = "a64e7c5c0499083dbf4c365940303b5757d2f40a5a497b722b28180bf1e0daf8"

# the 50-epoch table is also the frozen table of the seg run below
CHE_SHA256 = "2f312dafef355315f42d3ca5e7dc1980e19a52ffc31c6d78a597bbb1b9f0ede6"

GOLDEN = {
    "flat": {
        "trace.csv": "17a281db2f89657b171eae3a7673755e10483b2918d5cc7dff14defdcf13d9d0",
        "models.hgck": "72b42087a8f38b1784d6716f6683453d1da530089659f907871772f55422f505",
        "embeddings.hgck": "3c644a67d193bf149c33c0051d7a14dbc02a55e7552e25967396fbcff9decdc8",
        "metrics_step000020.json": "6458dfac101370fa71f72fadbda436de0bff360688890d832adddb4161150a13",
    },
    "treegan": {
        "trace.csv": "144c28f6a7d6ff8d1b6ba93763b4d4911e89ccb250a143318aa8e505a65e4431",
        "models.hgck": "c17acf8728f822338dcc046c68c9c13ea746e86f277b693701f25f95a4e42c2e",
        "metrics_step000020.json": "3f304352b6dca42c51f27f22586204db9e926663cdc038f65040c8c51d9af465",
    },
    "npc": {
        "trace.csv": "4f8cf101e5815db7f10e5d9e2ca1ae04d446525a85e40d80b367f62409840f54",
        "models.hgck": "ccb9b888846b38cebfa2e92c67022ce80f68d9933d42abc6c86f61b4d8e83b22",
        "metrics_step000020.json": "9b329ce6acc5081d7e9cd4b7e1d702b424aa9f314e59b354785a0d41215f7d79",
    },
    "seg": {
        "trace.csv": "f8e4aeb25b95e73c4faf3e93ae50db8dc720ece3d489008df32ee5134550f0f2",
        "models.hgck": "707f663a094d4453e6675a645ed3344c3fcc5a1389b5ce0f9dfc8797dc8c90d9",
        "embeddings.hgck": CHE_SHA256,
        "metrics_step000020.json": "69237196e4999668d2defeb84691104cbd38b5c29d426aa8e5b888d9462cc11f",
    },
}


# sha256 over the name, dtype, shape and bytes of every array a loader returns;
# independent of the file format, so a format change keeps these as they are
CONTENTS = {
    "dataset": "50dabc463b04411e7274534a6b6068a2ec4c90acaf0467c054cd863ef73b058f",
    "che.hgck": "d42db74377fef353e501f5f070c4fff93676fec715f8e49619da9fa1bae043b0",
    "flat/embeddings.hgck": "23f8ac16f3709d6805a09b0103ddca94918eca949399a56817142f4cda70d84c",
    "flat/models.hgck": "53f2b1af970748d2831760a5a2e7d59c82a7d5fa67703a0edf8e28c321404af9",
    "npc/embeddings.hgck": "fbe2ed82450a743d6c1bda6031ed4b005240fb0c7264cc4f6ec36761fe8af874",
    "npc/models.hgck": "3df972bdc66f58dd49e24f495f54bf94af08a94fc530621683a7f7b42c4ee579",
    "seg/embeddings.hgck": "d42db74377fef353e501f5f070c4fff93676fec715f8e49619da9fa1bae043b0",
    "seg/models.hgck": "df92991434175310b8fbe6a1cf2da3c3e6fcaecd25d59fa7abaac8b56f8bd517",
    "treegan/embeddings.hgck": "0a016fdfa3bca2c2ba345fd4dee7cd682ba7e5cdffd3c6b4719ee2ade337ac71",
    "treegan/models.hgck": "ace3d697c7ef13df6411f0115ec38f81e0511aa692b2fe178e3831e429a82827",
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


@pytest.fixture(scope="module")
def runs(setup, che_table, tmp_path_factory):
    """The four short runs, each saved once: mode -> run directory."""
    dataset, (clf_lo, clf_hi) = setup
    out = {}
    for mode in sorted(GOLDEN):
        cfg = TrainConfig(mode=mode, steps_per_stage=10, eval_every=10, eval_n_per_class=50, seed=0)
        art = run_training(dataset, TREE, cfg, clf_lo, clf_hi, che_table if mode == "seg" else None)
        assert not art.aborted, art.abort_reason
        out[mode] = tmp_path_factory.mktemp(mode)
        save_run(art, out[mode])
    return out


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _contents(named) -> str:
    digest = hashlib.sha256()
    for name, arr in named:
        digest.update(f"{name} {arr.dtype.str} {arr.shape}\n".encode())
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def _table_arrays(table):
    return [(name, getattr(table, name)) for name in ("class_re", "class_im", "rel_re", "rel_im")]


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
def test_golden_fingerprint(runs, mode):
    got = {name: _sha256(runs[mode] / name) for name in GOLDEN[mode]}
    assert got == GOLDEN[mode]


def test_golden_contents(setup, che_table, runs, tmp_path):
    save_dataset(setup[0], tmp_path / "a.hgds")
    dataset = load_dataset(tmp_path / "a.hgds")
    save_table(tmp_path / "che.hgck", che_table)
    assert load_table(tmp_path / "che.hgck").hierarchy == TREE
    got = {
        "dataset": _contents(
            (f"{split}.{field}", getattr(getattr(dataset, split), field))
            for split in ("train", "test")
            for field in ("hi", "lo", "leaf")
        ),
        "che.hgck": _contents(_table_arrays(load_table(tmp_path / "che.hgck"))),
    }
    for mode, run in runs.items():
        table = load_table(run / "embeddings.hgck")
        assert table.hierarchy == TREE
        models = load_models(run / "models.hgck")
        nets = (models.g1, models.g2, models.d_lo, models.d_hi, models.clf_lo, models.clf_hi)
        got[f"{mode}/embeddings.hgck"] = _contents(_table_arrays(table))
        got[f"{mode}/models.hgck"] = _contents((p.name, p.data) for net in nets for p in net.params())
    assert got == CONTENTS


# A tiny eight-command CLI pipeline, run with relative paths in a fresh
# directory: the sha256 of every file it leaves (manifests included) and of
# everything it prints. This pins the CLI's own bytes (manifest fields,
# stdout lines) across changes to how the commands are run.
CLI_CONFIG = {
    "dataset": {"samples_per_leaf": 10, "seed": 0},
    "che": {"epochs": 20, "seed": 0},
    "classifier": {"epochs": 2, "seed": 0},
    "gan": {"steps_per_stage": 4, "eval_every": 4, "eval_n_per_class": 4, "batch_size": 8, "seed": 0},
    "eval": {"n_per_class": 4, "seed": 3},
}
CLI_PIPELINE = [
    ["gen-data", "--config", "c.json", "--out", "data.hgds"],
    ["train-che", "--config", "c.json", "--out", "che.hgck"],
    ["train-clf", "--config", "c.json", "--data", "data.hgds", "--resolution", "8", "--out", "clf8.hgck"],
    ["train-clf", "--config", "c.json", "--data", "data.hgds", "--resolution", "16", "--out", "clf16.hgck"],
    ["train-gan", "--config", "c.json", "--mode", "treegan", "--data", "data.hgds", "--clf8", "clf8.hgck",
     "--clf16", "clf16.hgck", "--out", "treegan"],
    ["train-gan", "--config", "c.json", "--mode", "seg", "--data", "data.hgds", "--clf8", "clf8.hgck",
     "--clf16", "clf16.hgck", "--embeddings", "che.hgck", "--out", "seg"],
    ["eval", "--config", "c.json", "--run", "treegan", "--data", "data.hgds", "--out", "metrics.csv"],
    ["inspect-embeddings", "--embeddings", "seg/embeddings.hgck", "--out", "similarity.csv"],
]
CLI_GOLDEN = {
    "c.json": "59e4c2ae085cb65b2802692182a77995d701e50ca32bdc77b69299057b8bf853",
    "che.hgck": "47a333c683ffba6570043ac56b420a086213395b1f2e873ef122f4a3fbc85cfa",
    "che.hgck.manifest.json": "08ee91d82a0f1108adcc7fb628f5beb2e693793b131e8f27ae620c374ee53848",
    "clf16.hgck": "92cc4d932739a2bc8b433b36b0c0d49d7885afe42d38ca4a3db542053aeb338b",
    "clf16.hgck.manifest.json": "b193f03159d31dd2135828b410fe5271883dcb2d9b185e0325d88e3dc0490e5e",
    "clf8.hgck": "5d123f439b8c754c54b476207be44d8d1b5237e523c0efee7680d27fe791ce87",
    "clf8.hgck.manifest.json": "f54ab40b7b85e86a9ccbc408537fa00fce30ba46c8058f22153b47f75ce522c8",
    "data.hgds": "f143f55cedceb771095b53853d82a797e2fb1c200f9063ae90f185c28c580c41",
    "data.hgds.manifest.json": "ad3121543e1206bcbf141aa1bf4eaffb7fa4906cc818678690ea6ee6671004e7",
    "metrics.csv": "32c3708df8cb6c8e31fac837c00a70abf7f5a522398280858bb065035f194446",
    "metrics.csv.manifest.json": "3a1a9c443148db5f710571fc40b1660e124d62bf3fe0a81c5d9d54a8b7b917c9",
    "metrics.json": "2ae00f61ec7f87ff531c9252f2d063bad45b74a436ebd3a8502da23ea18c295b",
    "seg/embeddings.hgck": "47a333c683ffba6570043ac56b420a086213395b1f2e873ef122f4a3fbc85cfa",
    "seg/manifest.json": "aa7734858611ce5a0f1125133de4b5ed3bb20a50f585289868f0d403eaa75b1f",
    "seg/metrics_step000008.csv": "590c00a106b20e764f72a52952d5148dc0ac006cf36c73ad788a81791b9029f4",
    "seg/metrics_step000008.json": "89f89f9fb004612eba2a637b901124e6b7cd2854fac1be207030f018173eee7f",
    "seg/models.hgck": "177a4dafe2d7751afaaad5743bb59d59513efeb374d10bafdee054874f98bd79",
    "seg/trace.csv": "31023aeb8ecb5e6e40a1497d41750278eaff20988546ca8274b70405e4478721",
    "similarity.csv": "d938af79bd33e783a8240bcbbecfa6f4f40ec66e94b9eb1238024ae94b745822",
    "similarity.csv.manifest.json": "dcab5e5fbabae94cabcb76ef0e50ffd9f34c96aec59296688e71e15726292562",
    "treegan/embeddings.hgck": "a4be45964fc8ae1b289688d0f7bf4b0a0c0d0e5e374cf6a104e9ff46b2c049dd",
    "treegan/manifest.json": "34850cced9bfff03db9f2bb3ccc9c78856db5f2dc7f33d80c1201b70ac937528",
    "treegan/metrics_step000008.csv": "8edc6318227d0a8cee7744f5f80b5f30de3b2c9e55aa53b39a0a3903c64bff7f",
    "treegan/metrics_step000008.json": "1933cbcd32c067e1a98cc940345f490c086d93d677fee16d14f974d80c9c6726",
    "treegan/models.hgck": "5e176fdc64d4471d772f87fc8437cc98519967326105bff584c20ad28d3037ca",
    "treegan/trace.csv": "e2ff2bda2490ae402d467d6fd4f7cd12bb9b33570b86b71421f1e0a6935030ac",
}
CLI_STDOUT_SHA256 = "693732d464fcb8dfb9a1b746ced19fabfe029c9f63166dc1b1240a34d84892a5"


def test_golden_cli_pipeline(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(json.dumps(CLI_CONFIG, sort_keys=True))
    for argv in CLI_PIPELINE:
        assert main(argv) == 0, argv
    got = {str(p.relative_to(tmp_path)): _sha256(p) for p in sorted(tmp_path.rglob("*")) if p.is_file()}
    stdout = capsys.readouterr().out
    assert got == CLI_GOLDEN
    assert hashlib.sha256(stdout.encode()).hexdigest() == CLI_STDOUT_SHA256
