import dataclasses
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiergan.files import CheckpointError, load_checkpoint, save_checkpoint
from hiergan.hierarchy import FIXTURE_TREE, parse_hierarchy
from hiergan.synthdata import (
    DatasetError,
    DatasetSpec,
    FIELD_SCALES,
    Images,
    PARAM_HIGH,
    PARAM_LOW,
    batch_iter,
    default_dataset_spec,
    downsample,
    generate_dataset,
    leaf_prototypes,
    load_dataset,
    node_prototypes,
    prototype_distance,
    render_params,
    save_dataset,
)


@pytest.fixture(scope="module")
def tree():
    return parse_hierarchy(FIXTURE_TREE)


@pytest.fixture(scope="module")
def small(tree):
    return generate_dataset(default_dataset_spec(tree, samples_per_leaf=20, seed=7))


# ------------------------------------------------------------------- spec


def test_dataset_errors_are_value_errors():
    # a bad request or a bad dataset is a value problem, like ModelError and
    # EmbeddingError; only the container's CheckpointError concerns files
    assert issubclass(DatasetError, ValueError) and not issubclass(DatasetError, OSError)


def test_spec_level_noise_length(tree):
    with pytest.raises(DatasetError, match="K\\+1"):
        DatasetSpec(hierarchy=tree, level_noise=(1.0, 0.5))


def test_spec_rejects_negative_noise(tree):
    with pytest.raises(DatasetError, match="level_noise must be a list of finite numbers >= 0"):
        DatasetSpec(hierarchy=tree, level_noise=(1.0, -0.5, 0.2))
    with pytest.raises(DatasetError, match="observation_noise must be a finite number >= 0"):
        DatasetSpec(hierarchy=tree, level_noise=(1.0, 0.5, 0.2), observation_noise=-0.1)


def test_spec_rejects_empty_leaf_budget(tree):
    with pytest.raises(DatasetError, match="samples_per_leaf"):
        DatasetSpec(hierarchy=tree, samples_per_leaf=0, level_noise=(1.0, 0.5, 0.2))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_spec_rejects_leaf_budget_without_test_rows(tree, n):
    # a leaf's test split is samples_per_leaf // 5 rows, empty below 5
    with pytest.raises(DatasetError, match="samples_per_leaf must be an integer >= 5"):
        DatasetSpec(hierarchy=tree, samples_per_leaf=n, level_noise=(1.0, 0.5, 0.2))


def test_zero_noise_is_allowed(tree):
    spec = DatasetSpec(hierarchy=tree, level_noise=(0.0, 0.0, 0.0), observation_noise=0.0)
    assert spec.level_noise == (0.0, 0.0, 0.0)


# -------------------------------------------------------------- rendering


def test_render_pixels_in_unit_interval():
    rng = np.random.default_rng(0)
    low = np.where(np.isfinite(PARAM_LOW), PARAM_LOW, -np.pi)
    high = np.where(np.isfinite(PARAM_HIGH), PARAM_HIGH, np.pi)
    for _ in range(50):
        params = low + (high - low) * rng.uniform(size=6)
        img = render_params(params)
        assert img.shape == (16, 16)
        assert np.all(img >= 0.0) and np.all(img <= 1.0)


def test_render_clamps_out_of_range_params():
    wild = np.array([5.0, -3.0, 99.0, 0.0, 1.0, 42.0])
    img = render_params(wild)  # must not raise
    assert np.all(img >= 0.0) and np.all(img <= 1.0)


def test_render_peak_tracks_center():
    img = render_params(np.array([0.25, 0.75, 0.1, 1.0, 0.0, 1.0]))
    row, col = np.unravel_index(np.argmax(img), img.shape)
    # cx is the column coordinate, cy the row coordinate
    assert abs(col / 16 - 0.25) < 0.1
    assert abs(row / 16 - 0.75) < 0.1


def test_render_intensity_scales_linearly():
    base = np.array([0.5, 0.5, 0.2, 1.0, 0.3, 1.0])
    dim = base.copy()
    dim[5] = 0.5
    np.testing.assert_allclose(render_params(dim), 0.5 * render_params(base), atol=1e-15)


# ------------------------------------------------------------- downsample


def test_downsample_constant():
    assert np.all(downsample(np.full((16, 16), 0.7)) == 0.7)


def test_downsample_checkerboard():
    board = (np.indices((16, 16)).sum(axis=0) % 2).astype(np.float64)
    assert np.all(downsample(board) == 0.5)


def test_downsample_matches_loop_oracle():
    rng = np.random.default_rng(1)
    hi = rng.uniform(size=(16, 16))
    lo = downsample(hi)
    for r in range(8):
        for c in range(8):
            block = hi[2 * r : 2 * r + 2, 2 * c : 2 * c + 2]
            assert abs(lo[r, c] - block.mean()) < 1e-15


def test_downsample_rejects_wrong_shape():
    with pytest.raises(DatasetError, match="16x16"):
        downsample(np.zeros((8, 8)))
    with pytest.raises(DatasetError, match="16x16"):
        downsample(np.zeros((3, 16, 8)))


def test_downsample_stack_matches_per_image():
    hi = np.random.default_rng(2).uniform(size=(4, 5, 16, 16))
    lo = downsample(hi)
    assert lo.shape == (4, 5, 8, 8)
    for i in range(4):
        for j in range(5):
            assert np.array_equal(lo[i, j], downsample(hi[i, j]))


# ------------------------------------------------------------- prototypes


def test_prototypes_cover_all_nodes(tree):
    spec = default_dataset_spec(tree, seed=0)
    protos = node_prototypes(spec)
    assert set(protos) == {n.id for n in tree.nodes}
    leaves = leaf_prototypes(spec)
    assert set(leaves) == set(tree.leaves)


def test_prototypes_deterministic(tree):
    spec = default_dataset_spec(tree, seed=5)
    a, b = node_prototypes(spec), node_prototypes(spec)
    for y in a:
        assert np.array_equal(a[y], b[y])


def test_zero_level_noise_collapses_leaves(tree):
    spec = DatasetSpec(hierarchy=tree, level_noise=(0.0, 0.0, 0.0), observation_noise=0.1)
    protos = leaf_prototypes(spec)
    vals = list(protos.values())
    for v in vals[1:]:
        assert np.array_equal(vals[0], v)


def test_prototypes_stay_in_bounds(tree):
    spec = DatasetSpec(hierarchy=tree, level_noise=(10.0, 10.0, 10.0), observation_noise=0.1)
    for proto in node_prototypes(spec).values():
        assert np.all(proto >= PARAM_LOW) and np.all(proto <= PARAM_HIGH)


def test_siblings_closer_than_branches(tree):
    # averaged over 20 seeds, sibling leaves sit closer in parameter space
    # than leaves from different branches
    intra_means, inter_means = [], []
    for seed in range(20):
        protos = leaf_prototypes(default_dataset_spec(tree, seed=seed))
        leaves = sorted(protos)
        intra, inter = [], []
        for i, a in enumerate(leaves):
            for b in leaves[i + 1 :]:
                dist = prototype_distance(protos[a], protos[b])
                same = tree.nodes[a].parent == tree.nodes[b].parent
                (intra if same else inter).append(dist)
        intra_means.append(np.mean(intra))
        inter_means.append(np.mean(inter))
    assert np.mean(intra_means) < np.mean(inter_means)


# ------------------------------------------------------------- generation


def test_split_sizes_and_balance(tree):
    d = generate_dataset(default_dataset_spec(tree, samples_per_leaf=200, seed=0))
    assert len(d.train) == 6 * 160 and len(d.test) == 6 * 40
    for split in (d.train, d.test):
        labels, counts = np.unique(split.leaf, return_counts=True)
        assert len(set(counts.tolist())) == 1  # class-balanced
        assert set(labels.tolist()) == set(tree.leaves)


def test_splits_are_leaf_major(small):
    for split in (small.train, small.test):
        assert split.leaf.dtype == np.int64
        assert np.all(np.diff(split.leaf) >= 0)


def test_sample_shapes_and_range(small):
    for split in (small.train, small.test):
        assert split.hi.shape == (len(split), 16, 16) and split.lo.shape == (len(split), 8, 8)
        assert np.all(split.hi >= 0.0) and np.all(split.hi <= 1.0)


def test_lo_is_exact_downsample(small):
    for split in (small.train, small.test):
        for hi, lo in zip(split.hi, split.lo):
            assert np.array_equal(lo, downsample(hi))


def assert_same_images(a: Images, b: Images):
    assert np.array_equal(a.leaf, b.leaf)
    assert np.array_equal(a.hi, b.hi)
    assert np.array_equal(a.lo, b.lo)


def test_generation_bit_identical(tree):
    spec = default_dataset_spec(tree, samples_per_leaf=10, seed=11)
    a, b = generate_dataset(spec), generate_dataset(spec)
    assert_same_images(a.train, b.train)
    assert_same_images(a.test, b.test)


def test_row_indexing_gives_images(small):
    rows = small.train[np.array([3, 0])]
    assert isinstance(rows, Images) and len(rows) == 2
    assert rows.leaf.tolist() == [small.train.leaf[3], small.train.leaf[0]]
    assert np.array_equal(rows.hi[1], small.train.hi[0])
    assert np.array_equal(rows.lo[0], small.train.lo[3])


def test_zero_observation_noise_repeats_prototype(tree):
    spec = DatasetSpec(
        hierarchy=tree, samples_per_leaf=5, level_noise=(1.0, 0.5, 0.25), observation_noise=0.0
    )
    d = generate_dataset(spec)
    for y in tree.leaves:
        imgs = np.concatenate([d.train.hi[d.train.leaf == y], d.test.hi[d.test.leaf == y]])
        for img in imgs[1:]:
            assert np.array_equal(imgs[0], img)


def test_generation_requires_levels():
    h = parse_hierarchy("root\n")
    with pytest.raises(DatasetError, match="K >= 1"):
        generate_dataset(DatasetSpec(hierarchy=h, level_noise=(1.0,)))


def test_nearest_prototype_classifier_strong(tree):
    # the corpus must be separable: nearest rendered leaf prototype
    # classifies held-out samples almost perfectly
    for seed in (0, 1, 2):
        spec = default_dataset_spec(tree, samples_per_leaf=50, seed=seed)
        d = generate_dataset(spec)
        ys = sorted(tree.leaves)
        stack = np.stack([render_params(leaf_prototypes(spec)[y]) for y in ys])
        flat = stack.reshape(len(ys), -1)
        hits = 0
        for hi, leaf in zip(d.test.hi, d.test.leaf):
            dist = np.linalg.norm(flat - hi.ravel(), axis=1)
            hits += ys[int(np.argmin(dist))] == leaf
        assert hits / len(d.test) >= 0.95


# ------------------------------------------------------------ persistence


def test_save_load_round_trip(tmp_path, small):
    path = tmp_path / "corpus.hgds"
    save_dataset(small, path)
    back = load_dataset(path)
    assert back.spec.samples_per_leaf == small.spec.samples_per_leaf
    assert back.spec.level_noise == small.spec.level_noise
    assert back.spec.observation_noise == small.spec.observation_noise
    assert back.spec.seed == small.spec.seed
    assert back.spec.hierarchy.serialize() == small.spec.hierarchy.serialize()
    assert len(back.train) == len(small.train) and len(back.test) == len(small.test)
    assert_same_images(back.train, small.train)  # lo is recomputed on load, still exact
    assert_same_images(back.test, small.test)


def test_save_bytes_reproducible(tmp_path, small):
    p1, p2 = tmp_path / "a.hgds", tmp_path / "b.hgds"
    save_dataset(small, p1)
    save_dataset(load_dataset(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_matches_regeneration(tmp_path, tree):
    spec = default_dataset_spec(tree, samples_per_leaf=8, seed=4)
    path = tmp_path / "c.hgds"
    save_dataset(generate_dataset(spec), path)
    fresh = generate_dataset(spec)
    back = load_dataset(path)
    assert_same_images(back.train, fresh.train)
    assert_same_images(back.test, fresh.test)


def test_load_rejects_bad_magic(tmp_path, small):
    path = tmp_path / "bad.hgds"
    save_dataset(small, path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    body = bytes(blob[:-4])
    import zlib

    path.write_bytes(body + np.uint32(zlib.crc32(body)).tobytes())
    with pytest.raises(CheckpointError, match="magic"):
        load_dataset(path)


def test_load_rejects_wrong_version(tmp_path, small):
    path = tmp_path / "v9.hgds"
    save_dataset(small, path)
    blob = bytearray(path.read_bytes())
    blob[4] = 9
    body = bytes(blob[:-4])
    import zlib

    path.write_bytes(body + np.uint32(zlib.crc32(body)).tobytes())
    with pytest.raises(CheckpointError, match="version"):
        load_dataset(path)


def test_load_rejects_corruption(tmp_path, small):
    path = tmp_path / "flip.hgds"
    save_dataset(small, path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="checksum"):
        load_dataset(path)


def test_load_rejects_truncation(tmp_path, small):
    path = tmp_path / "cut.hgds"
    save_dataset(small, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CheckpointError):
        load_dataset(path)


def test_load_rejects_trailing_bytes(tmp_path, small):
    path = tmp_path / "tail.hgds"
    save_dataset(small, path)
    blob = path.read_bytes()
    body = blob[:-4] + b"\x00" * 8
    import zlib

    path.write_bytes(body + np.uint32(zlib.crc32(body)).tobytes())
    with pytest.raises(CheckpointError, match="trailing"):
        load_dataset(path)


@pytest.mark.parametrize(
    "edit",
    [
        lambda a: a | {"train.leaf": a["train.leaf"][1:]},
        lambda a: a | {"test.hi": a["test.hi"][:, :8]},
        lambda a: a | {"train.leaf": a["train.leaf"][:, None]},
        lambda a: {k: v for k, v in a.items() if k != "test.leaf"},
        lambda a: a | {"extra": np.ones(2)},
    ],
    ids=["short-leaf", "narrow-hi", "leaf-rank", "missing", "extra"],
)
def test_load_rejects_mismatched_arrays(tmp_path, small, edit):
    path = tmp_path / "bad.hgds"
    save_dataset(small, path)
    meta, arrays = load_checkpoint(path)
    save_checkpoint(path, edit(arrays), meta)
    with pytest.raises(CheckpointError, match="dataset"):
        load_dataset(path)


def test_load_wraps_checkpoint_errors(tmp_path, small):
    path = tmp_path / "cut.hgds"
    save_dataset(small, path)
    path.write_bytes(path.read_bytes()[:-9])
    with pytest.raises(CheckpointError, match="checksum"):
        load_dataset(path)


def with_count_shift(blob: bytes, shift: int) -> bytes:
    """The dataset file with its array count shifted and a valid CRC."""
    body = bytearray(blob[:-4])
    (meta_len,) = struct.unpack_from("<I", body, 8)
    (count,) = struct.unpack_from("<I", body, 12 + meta_len)
    struct.pack_into("<I", body, 12 + meta_len, count + shift)
    return bytes(body) + struct.pack("<I", zlib.crc32(body))


@settings(max_examples=25, deadline=None)
@given(
    samples_per_leaf=st.integers(5, 12),
    seed=st.integers(0, 2**32 - 1),
    level_noise=st.lists(st.floats(0.0, 2.0), min_size=3, max_size=3),
    observation_noise=st.floats(0.0, 0.5),
    count_shift=st.sampled_from([1, -1]),
)
def test_save_load_round_trip_property(
    tmp_path_factory, tree, samples_per_leaf, seed, level_noise, observation_noise, count_shift
):
    spec = DatasetSpec(
        hierarchy=tree,
        samples_per_leaf=samples_per_leaf,
        level_noise=tuple(level_noise),
        observation_noise=observation_noise,
        seed=seed,
    )
    d = generate_dataset(spec)
    tmp = tmp_path_factory.mktemp("prop")
    save_dataset(d, tmp / "a.hgds")
    back = load_dataset(tmp / "a.hgds")
    assert back.spec.hierarchy.serialize() == tree.serialize()
    assert dataclasses.replace(back.spec, hierarchy=tree) == spec
    assert_same_images(back.train, d.train)
    assert_same_images(back.test, d.test)
    save_dataset(back, tmp / "b.hgds")
    blob = (tmp / "a.hgds").read_bytes()
    assert (tmp / "b.hgds").read_bytes() == blob
    # an array count that disagrees with the body length
    (tmp / "c.hgds").write_bytes(with_count_shift(blob, count_shift))
    with pytest.raises(CheckpointError, match="truncated|trailing"):
        load_dataset(tmp / "c.hgds")


# ---------------------------------------------------------------- batches


def test_batch_sizes_include_short_tail(tree):
    spec = default_dataset_spec(tree, samples_per_leaf=5, seed=0)
    d = generate_dataset(spec)
    sizes = [len(b) for b in batch_iter(d.train[:10], batch_size=3, seed=0)]
    assert sizes == [3, 3, 3, 1]


def test_batches_cover_split_exactly(small):
    seen = []
    for b in batch_iter(small.test, batch_size=7, seed=2):
        assert isinstance(b, Images)
        assert b.hi.shape[1:] == (16, 16) and b.lo.shape[1:] == (8, 8)
        for hi, leaf in zip(b.hi, b.leaf):
            seen.append((int(leaf), float(hi.sum())))
    want = sorted((int(leaf), float(hi.sum())) for hi, leaf in zip(small.test.hi, small.test.leaf))
    assert sorted(seen) == want


def test_batches_reshuffle_each_epoch(small):
    batches = list(batch_iter(small.train, batch_size=len(small.train), seed=3, num_epochs=2))
    assert len(batches) == 2
    assert not np.array_equal(batches[0].leaf, batches[1].leaf)
    assert sorted(batches[0].leaf.tolist()) == sorted(batches[1].leaf.tolist())


def test_batches_deterministic(small):
    a = [b.leaf.copy() for b in batch_iter(small.train, batch_size=16, seed=9)]
    b = [b.leaf.copy() for b in batch_iter(small.train, batch_size=16, seed=9)]
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_batch_iter_rejects_bad_args(small, tree):
    with pytest.raises(DatasetError, match="batch_size"):
        list(batch_iter(small.train, batch_size=0, seed=0))
    with pytest.raises(DatasetError, match="empty"):
        list(batch_iter(small.train[:0], batch_size=4, seed=0))


def test_field_scales_positive():
    assert np.all(FIELD_SCALES > 0)
