import ast
from pathlib import Path

import numpy as np
import pytest

import hiergan.files as files
from hiergan.embed import CheConfig, load_table, save_table, train_che
from hiergan.files import CheckpointError, load_checkpoint, replace_dir, save_checkpoint, write_atomic
from hiergan.hierarchy import FIXTURE_TREE, parse_hierarchy
from hiergan.models import HierClassifier, ModelConfig, build_models, load_classifier, load_models, save_classifier, save_models
from hiergan.synthdata import default_dataset_spec, generate_dataset, load_dataset, save_dataset
from hiergan.training import TrainConfig, run_training, save_run

TREE = parse_hierarchy(FIXTURE_TREE)


class DiskFull(OSError):
    pass


class HalfWriter:
    """A file that takes half of the bytes it is given and then fails, as a
    full disk would."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        raise DiskFull("no space left on device")


@pytest.fixture
def fail_writes(monkeypatch):
    """Call the returned function to make every later ``write_atomic`` fail
    halfway through its write."""
    real_open = open

    def arm():
        monkeypatch.setattr(files, "open", lambda *a, **k: HalfWriter(real_open(*a, **k)), raising=False)

    return arm


def test_write_atomic_writes_bytes_and_text(tmp_path):
    write_atomic(tmp_path / "a.bin", b"\x00\x01payload")
    write_atomic(tmp_path / "b.txt", "line one\nline two\n")
    assert (tmp_path / "a.bin").read_bytes() == b"\x00\x01payload"
    assert (tmp_path / "b.txt").read_bytes() == b"line one\nline two\n"
    write_atomic(tmp_path / "b.txt", "replaced\n")
    assert (tmp_path / "b.txt").read_text() == "replaced\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.bin", "b.txt"]


def test_failed_write_leaves_no_file_and_no_temp(tmp_path, fail_writes):
    fail_writes()
    with pytest.raises(DiskFull):
        write_atomic(tmp_path / "new.csv", "a,b\n1,2\n")
    assert list(tmp_path.iterdir()) == []


def test_failed_write_keeps_the_existing_file(tmp_path, fail_writes):
    target = tmp_path / "keep.csv"
    write_atomic(target, b"old contents\n")
    fail_writes()
    with pytest.raises(DiskFull):
        write_atomic(target, "new contents that never land\n")
    assert target.read_bytes() == b"old contents\n"
    assert list(tmp_path.iterdir()) == [target]


def test_failed_rename_removes_the_temp(tmp_path, monkeypatch):
    def no_replace(src, dst):
        raise DiskFull("rename failed")

    monkeypatch.setattr(files.os, "replace", no_replace)
    with pytest.raises(DiskFull):
        write_atomic(tmp_path / "x.bin", b"abc")
    assert list(tmp_path.iterdir()) == []


def test_interrupted_checkpoint_save_keeps_the_old_checkpoint(tmp_path, fail_writes):
    path = tmp_path / "params.hgck"
    save_checkpoint(path, {"w": np.arange(6.0).reshape(2, 3)})
    before = path.read_bytes()
    fail_writes()
    with pytest.raises(DiskFull):
        save_checkpoint(path, {"w": np.ones((40, 40))})
    assert path.read_bytes() == before
    assert np.array_equal(load_checkpoint(path)[1]["w"], np.arange(6.0).reshape(2, 3))
    assert list(tmp_path.iterdir()) == [path]


def test_interrupted_dataset_save_leaves_nothing(tmp_path, fail_writes):
    spec = default_dataset_spec(parse_hierarchy(FIXTURE_TREE), samples_per_leaf=5, seed=0)
    fail_writes()
    with pytest.raises(DiskFull):
        save_dataset(generate_dataset(spec), tmp_path / "d.hgds")
    assert list(tmp_path.iterdir()) == []


# every artifact kind: how to save a small one, and its loader
KINDS = {
    "dataset": (lambda p: save_dataset(generate_dataset(default_dataset_spec(TREE, samples_per_leaf=5)), p), load_dataset),
    "table": (lambda p: save_table(p, train_che(TREE, CheConfig(epochs=1))), load_table),
    "classifier": (
        lambda p: save_classifier(HierClassifier.init(TREE, 64, ModelConfig(), np.random.default_rng(0)), p),
        load_classifier,
    ),
    "models": (lambda p: save_models(build_models(TREE, ModelConfig()), p), load_models),
}


@pytest.mark.parametrize("edit", ["extra", "missing"])
@pytest.mark.parametrize("kind", KINDS)
def test_every_loader_requires_exactly_its_arrays(tmp_path, kind, edit):
    save, load = KINDS[kind]
    path = tmp_path / "artifact.hgck"
    save(path)
    load(path)
    meta, arrays = load_checkpoint(path)
    if edit == "extra":
        arrays["stray"] = np.ones(2)
    else:
        del arrays[next(iter(arrays))]
    save_checkpoint(path, arrays, meta)
    with pytest.raises(CheckpointError, match="holds arrays") as err:
        load(path)
    assert str(path) in str(err.value)


def test_a_float_width_equal_to_the_stored_one_is_rejected(tmp_path):
    # 16.0 == 16, but a float embed_dim would reach numpy as a shape later
    path = tmp_path / "models.hgck"
    save_models(build_models(TREE, ModelConfig()), path)
    meta, arrays = load_checkpoint(path)
    save_checkpoint(path, arrays, meta | {"embed_dim": 16.0})
    with pytest.raises(CheckpointError, match="shape"):
        load_models(path)


def _calls_load_checkpoint(node) -> bool:
    return isinstance(node, ast.Call) and "load_checkpoint" in (
        getattr(node.func, "id", None),
        getattr(node.func, "attr", None),
    )


def test_load_checkpoint_has_one_caller_in_src():
    # every loader reads through load_artifact; another caller would be a
    # second reader with its own metadata and layout checks
    calls, owners = 0, []
    for path in (Path(__file__).resolve().parent.parent / "src").rglob("*.py"):
        module = ast.parse(path.read_text())
        calls += sum(map(_calls_load_checkpoint, ast.walk(module)))
        owners += [
            f"{path.name}:{fn.name}"
            for fn in ast.walk(module)
            if isinstance(fn, ast.FunctionDef) and any(map(_calls_load_checkpoint, ast.walk(fn)))
        ]
    assert calls == 1 and owners == ["files.py:load_artifact"]


# ---------------------------------------------------------- run directories


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_replace_dir_swaps_a_directory_whole(tmp_path):
    target = tmp_path / "out"
    with replace_dir(target) as stage:
        (stage / "a.txt").write_text("first\n")
    with replace_dir(target) as stage:
        (stage / "b.txt").write_text("second\n")
    assert _tree(target) == {"b.txt": b"second\n"}
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_replace_dir_keeps_the_old_directory_on_error(tmp_path):
    target = tmp_path / "out"
    with replace_dir(target) as stage:
        (stage / "a.txt").write_text("first\n")
    with pytest.raises(DiskFull), replace_dir(target) as stage:
        (stage / "b.txt").write_text("second\n")
        raise DiskFull("no space left on device")
    assert _tree(target) == {"a.txt": b"first\n"}
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_replace_dir_failed_swap_puts_the_old_directory_back(tmp_path, monkeypatch):
    target = tmp_path / "out"
    with replace_dir(target) as stage:
        (stage / "a.txt").write_text("first\n")
    rename = files.os.rename

    def fail_on_the_staged_directory(src, dst):
        if Path(src).name.endswith(".tmp"):
            raise DiskFull("rename failed")
        rename(src, dst)

    monkeypatch.setattr(files.os, "rename", fail_on_the_staged_directory)
    with pytest.raises(DiskFull), replace_dir(target) as stage:
        (stage / "b.txt").write_text("second\n")
    assert _tree(target) == {"a.txt": b"first\n"}
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_failed_run_save_keeps_the_previous_run(tmp_path, fail_writes, monkeypatch):
    import hiergan.training as training

    dataset = generate_dataset(default_dataset_spec(TREE, samples_per_leaf=10, seed=0))
    ms = build_models(TREE, ModelConfig(seed=0))
    cfgs = [TrainConfig(steps_per_stage=4, eval_every=2, eval_n_per_class=2, batch_size=4, seed=seed) for seed in (0, 1)]
    arts = [run_training(dataset, TREE, cfg, ms.clf_lo, ms.clf_hi) for cfg in cfgs]
    run = tmp_path / "run"
    save_run(arts[0], run)
    before = _tree(run)
    trace_csv = training.trace_csv

    def fail_from_the_trace_on(rows):
        fail_writes()  # both checkpoints have landed in the staging directory
        return trace_csv(rows)

    monkeypatch.setattr(training, "trace_csv", fail_from_the_trace_on)
    with pytest.raises(DiskFull):
        save_run(arts[1], run)
    assert _tree(run) == before
    assert [p.name for p in tmp_path.iterdir()] == ["run"]
