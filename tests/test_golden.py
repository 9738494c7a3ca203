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
CHE_SHA256 = "d769138f4a85deee8c6db98db7889f09e4780f2ac6e90b2f342d27d70931770d"

GOLDEN = {
    "flat": {
        "trace.csv": "cea20f945a730e891a72152a408d6f4ab4fc5fc2244bb222a064c0e7b26dd0b7",
        "models.hgck": "9eb001e9f2f890e50fd6cf7a7334dfca20893d871f93fc4b3a0f2a4a5d3ae78a",
        "embeddings.hgck": "3c644a67d193bf149c33c0051d7a14dbc02a55e7552e25967396fbcff9decdc8",
        "metrics_step000020.json": "cbc662e75627c2b2c7abfabeb9640db52dfaa4334134facdfd4b5270e66ab5c9",
    },
    "treegan": {
        "trace.csv": "600e9608d39553001f8fdf8f605a0e394d666cc5d9a378fd530b7d27b0b3fbf5",
        "models.hgck": "8fb11f6fa131bb52a6581891a209ceddf83786a817a4d86e442abb24965439ee",
        "metrics_step000020.json": "347a0592ea27a352c08536fdfdd30ff1c0fb2c076f05e247a520359e222aebc3",
    },
    "npc": {
        "trace.csv": "a83119afbbf88afc69b851c25cebc46453278052558bb1d87668e195809c75e8",
        "models.hgck": "c66372aa6c3b63abf0fc0941f9f57ba70c0c75b2f6c271fa65032906c1a4e3d0",
        "metrics_step000020.json": "65d8ad169749787bf7869b1e46bf1ceb9855b24379773037a8c976ab6c4bae0b",
    },
    "seg": {
        "trace.csv": "c987695e33376cfbc603ef72ec4be92c907a32a5966092a9609fc4c0b21caecd",
        "models.hgck": "cbf4164c522bb352052b3ea6c7d5503c9933edd574b21da2e580915cb81ba9d9",
        "embeddings.hgck": CHE_SHA256,
        "metrics_step000020.json": "d130cad47dedc6a1aa988f382c37c7e447ff69cf3d6796deed115131e6e09ad6",
    },
}


# sha256 over the name, dtype, shape and bytes of every array a loader returns;
# independent of the file format, so a format change keeps these as they are
CONTENTS = {
    "dataset": "50dabc463b04411e7274534a6b6068a2ec4c90acaf0467c054cd863ef73b058f",
    "che.hgck": "de34cb3090d1be85aaf95890ac03a8cd6de5fd3e043c8ca82838f1527e17592d",
    "flat/embeddings.hgck": "23f8ac16f3709d6805a09b0103ddca94918eca949399a56817142f4cda70d84c",
    "flat/models.hgck": "4bac48b7f1b726cf02479d0c245624f029813fda3b45fe984be477117df5036e",
    "npc/embeddings.hgck": "25968fad7d6ffd68cc2fed31895708c64eca1efff042f7e446d13734348a653c",
    "npc/models.hgck": "3e6fd72f8fc3f8420c616ffd1acb928e3bcef768106d85534585997a1fbe506f",
    "seg/embeddings.hgck": "de34cb3090d1be85aaf95890ac03a8cd6de5fd3e043c8ca82838f1527e17592d",
    "seg/models.hgck": "1721265bfeac52a48cbc24e2418eedde78e7dfbd0c092a4476f47663a191ce21",
    "treegan/embeddings.hgck": "54b63844d24d484cd8d3ec720522c9be9d2eb9ac4de11eb4013209f838aa56f3",
    "treegan/models.hgck": "ed0fb70ecfde8e91e9f5c3f6ba2bfcc0d520e28b4f95e948782c8665502050a1",
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
    "che.hgck": "8690f43f7dc252099127087a9249998538abb016c81058243af33dce36d12a20",
    "che.hgck.manifest.json": "cad127d99011158564a09c9bc766a65abbfd605a5db32cf9f88c9e22298606f6",
    "clf16.hgck": "63ee3c929d73422b4e4ee37a3619e4461f9e25063b9826f3342e4f73e05badf1",
    "clf16.hgck.manifest.json": "7f343d3cd0e7484872a6fc91fa44e78900b4e13398da61d93248132de125ad0a",
    "clf8.hgck": "a3f2c3fc2e881f497428375dd2186ae7e68bf887e6ed455d199362a6bbcd3649",
    "clf8.hgck.manifest.json": "faf615c866d462ee9e955c7e964c20c44445fbcfc0418bf5bbee31ba604aca82",
    "data.hgds": "f143f55cedceb771095b53853d82a797e2fb1c200f9063ae90f185c28c580c41",
    "data.hgds.manifest.json": "ad3121543e1206bcbf141aa1bf4eaffb7fa4906cc818678690ea6ee6671004e7",
    "metrics.csv": "32c3708df8cb6c8e31fac837c00a70abf7f5a522398280858bb065035f194446",
    "metrics.csv.manifest.json": "1846dffcd3f830bc8a214cdecbfe4d395181ba17271cb2218f714313f9528bd4",
    "metrics.json": "70f40a2ddd3e4039f126273e11c2700d25492e0413ed009e953e922991085478",
    "seg/embeddings.hgck": "8690f43f7dc252099127087a9249998538abb016c81058243af33dce36d12a20",
    "seg/manifest.json": "b770f817c7a2b763dc391d1ae7df63488f77a472bd6e7e6d905abb9092d9fc04",
    "seg/metrics_step000008.csv": "590c00a106b20e764f72a52952d5148dc0ac006cf36c73ad788a81791b9029f4",
    "seg/metrics_step000008.json": "86b42df3a37c89d4884b789df9143897ee981e4a9e1a6c14a8057033bac2ec68",
    "seg/models.hgck": "8e0e16fd0f99b80027f9564f4f48738f44c57d24c4728cc09c8e736a2c949f82",
    "seg/trace.csv": "807f8cc4dfc9cf976ea73571538495c1f777605033400d6fbae418e2a25fa742",
    "similarity.csv": "d938af79bd33e783a8240bcbbecfa6f4f40ec66e94b9eb1238024ae94b745822",
    "similarity.csv.manifest.json": "ebb3e989ca2144aa3008ad07e47acfefc9e9a1994da6a67e8059b44cb91c35eb",
    "treegan/embeddings.hgck": "f580481c60bb711ff315c83e1f8903f2a2cf38d82fa32c8e3a38f94ab0f856ce",
    "treegan/manifest.json": "2c061bdb249087d557f8f8206c64b7f349cbff582b6cd805306dc57a8a6b4a1f",
    "treegan/metrics_step000008.csv": "8edc6318227d0a8cee7744f5f80b5f30de3b2c9e55aa53b39a0a3903c64bff7f",
    "treegan/metrics_step000008.json": "7e38a98a18764cad8f653dfae07deacbad7ebbad770e0aeb8e92150ef10b6d8f",
    "treegan/models.hgck": "c89be5dfce99284661cefa341ff2dcc22a962149a7fccdba814f5472df9c3aca",
    "treegan/trace.csv": "b722da7e5e4ad16bc43c702cb48c8dddb4d5fc39edaa030c94c0495a18d133f4",
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
