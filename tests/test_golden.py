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
import os
import subprocess
import sys
from pathlib import Path

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
        "trace.csv": "d277ac3c4b210f5fd2331c69e233deba399a3739eaeb92921b907703a66f04d5",
        "models.hgck": "2fbffb12b3efeceb1dd4a710683e081e4ba84fcaff8012fd57959dc39f292ff0",
        "embeddings.hgck": "3c644a67d193bf149c33c0051d7a14dbc02a55e7552e25967396fbcff9decdc8",
        "metrics_step000020.json": "f62a59c914758e11eed76fdb11e1d55ecac17eb841a27534fafea8bcc9c58c9b",
    },
    "treegan": {
        "trace.csv": "c7dff6500ddc6473403d910365e6f486d4430c3b39b80c31c7e4876cae508c18",
        "models.hgck": "c4a240ea0a777f9d3b9da584332105c7a52053dc90a71791f01c992d744414fa",
        "metrics_step000020.json": "900c52caa7144225c8f43cac224c0f73fa5864b44ed9078b7b6288989a392218",
    },
    "npc": {
        "trace.csv": "64e84eb53709905f4ea106928b9b69ced9e177e94f41371ab570de79708ba5f8",
        "models.hgck": "682ee5cd3432c08fb52c2920126246e13f81eb8e6967a71b058142da4f0e2f47",
        "metrics_step000020.json": "6520b44f65f14bf66a2730700f17dbc410b61a662af0a7e2898e0ca7971413f5",
    },
    "seg": {
        "trace.csv": "f86f6daf122309eb771210a95426c905c97afd7fd35f0b1e691dea17f1f959d8",
        "models.hgck": "0bd5ec7f851b6f474c87303493a446990bcb5943b850135bb57a0adbc2db1c14",
        "embeddings.hgck": CHE_SHA256,
        "metrics_step000020.json": "fbde9c24f3560c22a718d1b324ded50b74b4a3193f0091f98bd1b8f06e644342",
    },
}


# sha256 over the name, dtype, shape and bytes of every array a loader returns;
# independent of the file format, so a format change keeps these as they are
CONTENTS = {
    "dataset": "50dabc463b04411e7274534a6b6068a2ec4c90acaf0467c054cd863ef73b058f",
    "che.hgck": "de34cb3090d1be85aaf95890ac03a8cd6de5fd3e043c8ca82838f1527e17592d",
    "flat/embeddings.hgck": "23f8ac16f3709d6805a09b0103ddca94918eca949399a56817142f4cda70d84c",
    "flat/models.hgck": "3e60524d916b49c6c612ae3b0238f775a5e6fd3dde8a48e4e14555448e239817",
    "npc/embeddings.hgck": "25968fad7d6ffd68cc2fed31895708c64eca1efff042f7e446d13734348a653c",
    "npc/models.hgck": "b89fbf239a8daf0194001270de37ad5cd15a3819685631b5b54f01f07144ba16",
    "seg/embeddings.hgck": "de34cb3090d1be85aaf95890ac03a8cd6de5fd3e043c8ca82838f1527e17592d",
    "seg/models.hgck": "3681804709f29f68b2ddd32ac887b39b947d27801494bafd8fc33564c83bba3c",
    "treegan/embeddings.hgck": "e5423e2b2853b7956326888de17f59d553c6682a340bce172b2075f301b433cd",
    "treegan/models.hgck": "7b51561437d67613de7d6dabf0e967434d3e56b31a8b405d3b54c09868b04ca6",
}


def golden_setup():
    """The dataset and the two trained classifiers every golden run uses."""
    dataset = generate_dataset(default_dataset_spec(TREE, samples_per_leaf=30, seed=0))
    cfg = ClassifierConfig(epochs=3, seed=0)
    clfs = []
    for res in (8, 16):
        clf = HierClassifier.init(TREE, res * res, ModelConfig(), np.random.default_rng(cfg.seed))
        clfs.append(train_classifier(clf, dataset, res, cfg))
    return dataset, clfs


def save_golden_run(mode, setup, che_table, out) -> None:
    """Run ``mode``'s short fixed run and save it to the directory ``out``."""
    dataset, (clf_lo, clf_hi) = setup
    cfg = TrainConfig(mode=mode, steps_per_stage=10, eval_every=10, eval_n_per_class=50, seed=0)
    art = run_training(dataset, TREE, cfg, clf_lo, clf_hi, che_table if mode == "seg" else None)
    assert not art.aborted, art.abort_reason
    save_run(art, out)


@pytest.fixture(scope="module")
def setup():
    return golden_setup()


@pytest.fixture(scope="module")
def che_table():
    return train_che(TREE, CheConfig(epochs=50, seed=0))


@pytest.fixture(scope="module")
def runs(setup, che_table, tmp_path_factory):
    """The four short runs, each saved once: mode -> run directory."""
    out = {}
    for mode in sorted(GOLDEN):
        out[mode] = tmp_path_factory.mktemp(mode)
        save_golden_run(mode, setup, che_table, out[mode])
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


# the treegan run in a fresh process, its setup included
TREEGAN_RUN = """
import sys
import test_golden as g
g.save_golden_run("treegan", g.golden_setup(), None, sys.argv[1])
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_golden_fingerprint_at_any_blas_thread_count(tmp_path, threads):
    """The treegan fingerprint holds with BLAS pinned to one thread and to
    two; evaluate's leaf pool follows the same setting."""
    here = Path(__file__).resolve().parent
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env |= {"OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)])}
    subprocess.run([sys.executable, "-c", TREEGAN_RUN, str(tmp_path)], env=env, check=True, timeout=300)
    assert {name: _sha256(tmp_path / name) for name in GOLDEN["treegan"]} == GOLDEN["treegan"]


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
    "metrics.csv.manifest.json": "dfa2938e9e75ba27982bbdf0adaa6c5306b952d9aa1d35ac7e00aeef5690422a",
    "metrics.json": "7a4df1f8f06d0dea8d58dbb8f800e5e9c37c49f61133260ef55e1408dc414114",
    "seg/embeddings.hgck": "8690f43f7dc252099127087a9249998538abb016c81058243af33dce36d12a20",
    "seg/manifest.json": "b770f817c7a2b763dc391d1ae7df63488f77a472bd6e7e6d905abb9092d9fc04",
    "seg/metrics_step000008.csv": "590c00a106b20e764f72a52952d5148dc0ac006cf36c73ad788a81791b9029f4",
    "seg/metrics_step000008.json": "ca9021d7b35180904c73232dbaea18beb629975488c7b925fd3dfc28189c1ea3",
    "seg/models.hgck": "8a027a9351c76a01d26af05cf37b31e2de1372bb59c3d40d8a00b3167aff6b5d",
    "seg/trace.csv": "7b22b01667f40a57e32f771b124f9f3bb1e5bcbad12a076ef70cd16109fa857a",
    "similarity.csv": "d938af79bd33e783a8240bcbbecfa6f4f40ec66e94b9eb1238024ae94b745822",
    "similarity.csv.manifest.json": "ebb3e989ca2144aa3008ad07e47acfefc9e9a1994da6a67e8059b44cb91c35eb",
    "treegan/embeddings.hgck": "f580481c60bb711ff315c83e1f8903f2a2cf38d82fa32c8e3a38f94ab0f856ce",
    "treegan/manifest.json": "2c061bdb249087d557f8f8206c64b7f349cbff582b6cd805306dc57a8a6b4a1f",
    "treegan/metrics_step000008.csv": "8edc6318227d0a8cee7744f5f80b5f30de3b2c9e55aa53b39a0a3903c64bff7f",
    "treegan/metrics_step000008.json": "c41eac2158e91d2587d89b3406fc0292a987a0ec5462ca301695b8cc47c16674",
    "treegan/models.hgck": "7f29885e8439df81dcdee7d32280b0a387ea676c1a9f7dbf62cc542e3dc163e0",
    "treegan/trace.csv": "a647f74b6c30989a6dfe4ede1fabc302ad48ba0056db95c940a17d76aade8cba",
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
