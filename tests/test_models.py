import numpy as np
import pytest

import reference_ops as ref
from hiergan.autodiff import Tape, Tensor, grad_check
from hiergan.embed import CheConfig, condition, train_che
from hiergan.files import CheckpointError, load_checkpoint, save_checkpoint
from hiergan.hierarchy import FIXTURE_TREE, parse_hierarchy
from hiergan.models import (
    ClassifierConfig,
    HierClassifier,
    ModelConfig,
    ModelError,
    build_models,
    classify,
    discriminator_loss,
    evaluate_classifier,
    generate_set,
    load_classifier,
    load_models,
    save_classifier,
    save_models,
    train_classifier,
)
from hiergan.synthdata import default_dataset_spec, generate_dataset


@pytest.fixture(scope="module")
def tree():
    return parse_hierarchy(FIXTURE_TREE)


@pytest.fixture(scope="module")
def table(tree):
    return train_che(tree, CheConfig(seed=0))


@pytest.fixture(scope="module")
def models(tree):
    return build_models(tree, ModelConfig(seed=0))


def zeroed(net):
    for w, b in net.layers:
        w.data = np.zeros_like(w.data)
        b.data = np.zeros_like(b.data)


# ---------------------------------------------------------------- generator


def leaf_row(table, y):
    """Leaf y's conditioning row (re || im), as ``condition`` gathers it."""
    return condition(Tape(), [Tensor(a) for a in table.arrays], y).data[0]


def generate_images(ms, e, z):
    """Both stages for one condition row and one noise row or a batch of
    them, as images."""
    e2, z2 = Tensor(np.atleast_2d(e)), Tensor(np.atleast_2d(z))
    lo = ms.generate(Tape(), e2, z2, stage=1).data.reshape(-1, 8, 8)
    hi = ms.generate(Tape(), e2, z2, stage=2).data.reshape(-1, 16, 16)
    return (lo[0], hi[0]) if np.ndim(z) == 1 else (lo, hi)


def test_generate_shapes_and_range(models, tree, table):
    e = leaf_row(table, tree.id_of("dog"))
    z = np.random.default_rng(0).standard_normal(32)
    lo, hi = generate_images(models, e, z)
    assert lo.shape == (8, 8) and hi.shape == (16, 16)
    for img in (lo, hi):
        assert np.all(img > 0.0) and np.all(img < 1.0)


def test_generate_batched(models, tree, table):
    # a batch shares its one condition row; each image is the one its noise
    # row makes alone
    rng = np.random.default_rng(1)
    e = leaf_row(table, tree.leaves[2])
    z = rng.standard_normal((3, 32))
    lo, hi = generate_images(models, e, z)
    assert lo.shape == (3, 8, 8) and hi.shape == (3, 16, 16)
    for i in range(3):
        lo_i, hi_i = generate_images(models, e, z[i])
        assert np.max(np.abs(lo[i] - lo_i)) <= 1e-12 and np.max(np.abs(hi[i] - hi_i)) <= 1e-12


def test_generate_deterministic(models, tree, table):
    e = leaf_row(table, tree.id_of("cat"))
    z = np.random.default_rng(2).standard_normal(32)
    a = generate_images(models, e, z)
    b = generate_images(models, e, z)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_generate_zero_weights_gives_half(tree):
    ms = build_models(tree, ModelConfig(seed=3))
    zeroed(ms.g1)
    zeroed(ms.g2)
    lo, hi = generate_images(ms, np.zeros(32), np.zeros(32))
    assert np.all(lo == 0.5) and np.all(hi == 0.5)


def test_generate_dimension_mismatch(models):
    with pytest.raises(ModelError):
        generate_images(models, np.zeros(7), np.zeros(32))
    with pytest.raises(ModelError):
        generate_images(models, np.zeros(32), np.zeros(7))
    with pytest.raises(ModelError, match="one row"):
        generate_images(models, np.zeros((2, 32)), np.zeros((3, 32)))


@pytest.mark.parametrize(
    "net, first", [("g1", True), ("g2", True), ("d_lo", False), ("d_hi", False)], ids=["g1", "g2", "d_lo", "d_hi"]
)
def test_mlp_condition_row_matches_joined_input(models, net, first):
    """A network's condition row is the block of input columns its weights
    give it, first in the generators and last in the discriminators: the
    same values as the row joined to every input row, with no join record."""
    mlp = getattr(models, net)
    rng = np.random.default_rng(4)
    x, e = Tensor(rng.uniform(size=(3, mlp.in_dim - 32))), Tensor(rng.normal(size=(1, 32)))
    rows = np.repeat(e.data, 3, axis=0)
    joined = Tensor(np.concatenate([rows, x.data] if first else [x.data, rows], axis=1))
    cond_tape, joined_tape = Tape([x, e]), Tape([joined])
    a = mlp.forward(cond_tape, x, cond=e)
    b = mlp.forward(joined_tape, joined)
    assert mlp.cond_first is first
    assert np.max(np.abs(a.data - b.data)) <= 1e-12 * np.max(np.abs(b.data))
    assert len(cond_tape) == len(joined_tape)
    with pytest.raises(ModelError):
        mlp.forward(Tape(), Tensor(np.zeros(mlp.in_dim)))
    with pytest.raises(ModelError, match="one row"):
        mlp.forward(Tape(), x, cond=Tensor(rows))


@pytest.mark.parametrize("net", ["g1", "g2", "d_lo", "d_hi", "clf_lo", "clf_hi"])
def test_tracking_mlp_forward_emits_one_record_per_layer(models, net, monkeypatch):
    """A dense layer and its activation are one linear record."""
    mlp = getattr(models, net)
    mlp, cond = (mlp.trunk, None) if net.startswith("clf") else (mlp, Tensor(np.ones((1, 32))))
    ops = []
    emit = Tape._emit

    def counting(tape, op, *args):
        ops.append(op)
        return emit(tape, op, *args)

    monkeypatch.setattr(Tape, "_emit", counting)
    x = Tensor(np.random.default_rng(5).uniform(size=(4, mlp.in_dim - (0 if cond is None else 32))))
    tape = Tape(mlp.params())
    mlp.forward(tape, x, cond=cond)
    assert ops == ["linear"] * len(mlp.layers) and len(tape) == len(mlp.layers)


# -------------------------------------------------------------- generate_set


def test_generate_set_shapes_and_determinism(tree, table):
    ms = build_models(tree, ModelConfig(seed=2))
    y = int(tree.leaves[1])
    a = generate_set(ms, table, y, 5, seed=42)
    b = generate_set(ms, table, y, 5, seed=42)
    assert a.shape == (5, 16, 16)
    assert np.array_equal(a, b)
    c = generate_set(ms, table, y, 5, seed=43)
    assert not np.array_equal(a, c)


def test_generate_set_empty(tree, table):
    ms = build_models(tree, ModelConfig(seed=3))
    assert generate_set(ms, table, int(tree.leaves[0]), 0, seed=0).shape == (0, 16, 16)


def test_generate_set_rejects_non_leaf(tree, table):
    ms = build_models(tree, ModelConfig(seed=4))
    with pytest.raises(ValueError):
        generate_set(ms, table, tree.id_of("canine"), 3, seed=0)


def test_generator_rejects_table_of_another_dim(tree):
    # the models are built for embed_dim 16
    small = train_che(tree, CheConfig(dim=8, seed=0, epochs=1))
    ms = build_models(tree, ModelConfig(seed=0))
    with pytest.raises(ModelError, match="dim 8 but the models were built for dim 16"):
        generate_set(ms, small, int(tree.leaves[0]), 3, seed=0)


def test_generator_pixel_gradcheck(tree, table):
    # gradient of a generated pixel w.r.t. generator parameters
    ms = build_models(tree, ModelConfig(seed=4))
    e = np.atleast_2d(leaf_row(table, tree.id_of("fox")))
    z = np.atleast_2d(np.random.default_rng(5).standard_normal(32))
    params = ms.g1.params() + ms.g2.params()

    def pixel(tape, ps):
        lo = ms.g1.forward(tape, Tensor(z), cond=Tensor(e))
        hi = ms.g2.forward(tape, lo, cond=Tensor(e))
        return tape.scale(ref.sum(tape, hi), 1.0 / hi.data.size)

    report = grad_check(pixel, params, step=1e-6, max_per_param=40)
    assert report.passed, report


# ------------------------------------------------------------ discriminator


def gan_losses(d, real, fake, e):
    """The D step's loss and the G step's adversarial term, as joint_step
    computes them, for image batches and one condition row."""
    n = real.shape[0]
    e_c = Tensor(e[None])
    real_rows, fake_rows = real.reshape(n, -1), fake.reshape(fake.shape[0], -1)
    tape = Tape()
    d_loss = discriminator_loss(tape, d, real_rows, fake_rows, e_c)
    g_loss = tape.binary_cross_entropy_with_logits(d.forward(tape, Tensor(fake_rows), cond=e_c), np.ones((n, 1)))
    return d_loss.item(), g_loss.item()


def test_adversarial_losses_at_logit_zero(tree):
    ms = build_models(tree, ModelConfig(seed=6))
    zeroed(ms.d_lo)
    rng = np.random.default_rng(0)
    real, fake = rng.uniform(size=(4, 8, 8)), rng.uniform(size=(4, 8, 8))
    d_loss, g_loss = gan_losses(ms.d_lo, real, fake, np.zeros(32))
    assert abs(d_loss - 2 * np.log(2)) < 1e-12
    assert abs(g_loss - np.log(2)) < 1e-12


def test_adversarial_losses_saturated_discriminator(tree):
    # a biased discriminator drives d_loss toward 0 and g_loss large but finite
    ms = build_models(tree, ModelConfig(seed=7))
    zeroed(ms.d_lo)
    w_last, b_last = ms.d_lo.layers[-1]
    b_last.data = np.array([1000.0])
    rng = np.random.default_rng(1)
    real, fake = rng.uniform(size=(2, 8, 8)), rng.uniform(size=(2, 8, 8))
    d_real_only, g_fooled = gan_losses(ms.d_lo, real, fake, np.zeros(32))
    assert np.isfinite(d_real_only) and np.isfinite(g_fooled)
    assert g_fooled < 1e-9  # D says "real" for everything, so G's loss vanishes
    b_last.data = np.array([-1000.0])
    _, g_rejected = gan_losses(ms.d_lo, real, fake, np.zeros(32))
    assert np.isfinite(g_rejected) and g_rejected > 20.0  # clamped, large


def test_adversarial_losses_match_loop_oracle(tree):
    ms = build_models(tree, ModelConfig(seed=8))
    rng = np.random.default_rng(2)
    real, fake = rng.uniform(size=(5, 8, 8)), rng.uniform(size=(5, 8, 8))
    e = rng.standard_normal(32)
    d_loss, g_loss = gan_losses(ms.d_lo, real, fake, e)

    def logit(img):
        tape = Tape()
        x = np.concatenate([img.ravel(), e])[None, :]
        return float(ms.d_lo.forward(tape, Tensor(x)).item())

    def bce(z, t):
        s = 1.0 / (1.0 + np.exp(-z))
        return -(t * np.log(s) + (1 - t) * np.log(1 - s))

    d_want = np.mean([bce(logit(r), 1.0) for r in real]) + np.mean([bce(logit(f), 0.0) for f in fake])
    g_want = np.mean([bce(logit(f), 1.0) for f in fake])
    assert abs(d_loss - d_want) < 1e-12
    assert abs(g_loss - g_want) < 1e-12

    # the one stacked forward's weight gradients are those of two forwards,
    # one per batch, summed
    n = real.shape[0]
    real_t, fake_t, e_c = Tensor(real.reshape(n, -1)), Tensor(fake.reshape(n, -1)), Tensor(e[None])
    d = ms.d_lo
    tape = Tape(d.params())
    got = tape.backward(discriminator_loss(tape, d, real_t.data, fake_t.data, e_c))
    tape = Tape(d.params())
    want = tape.backward(tape.add(
        tape.binary_cross_entropy_with_logits(d.forward(tape, real_t, cond=e_c), np.ones((n, 1))),
        tape.binary_cross_entropy_with_logits(d.forward(tape, fake_t, cond=e_c), np.zeros((n, 1))),
    ))
    assert set(got) == set(want) == set(d.params())
    for p in d.params():
        assert np.max(np.abs(got[p] - want[p])) <= 1e-12 * np.max(np.abs(want[p])), p.name


def test_adversarial_losses_shape_mismatch(models):
    rng = np.random.default_rng(3)
    e_c = Tensor(np.zeros((1, 32)))
    with pytest.raises(ModelError):
        discriminator_loss(Tape(), models.d_lo, rng.uniform(size=(4, 64)), rng.uniform(size=(3, 64)), e_c)


# --------------------------------------------------------------- classifier


def loss_of(clf, img, y):
    """Stacked per-level cross-entropy of one image against leaf y's path."""
    return clf.loss(Tape(), Tensor(img.reshape(1, -1)), [y]).item()


def test_classifier_logit_shapes(models, tree):
    img = np.random.default_rng(4).uniform(size=(8, 8))
    logits = classify(models.clf_lo, img).logits
    assert [l.shape for l in logits] == [(1, 2), (1, 6)]
    batch = np.random.default_rng(5).uniform(size=(7, 16, 16))
    out = classify(models.clf_hi, batch)
    assert [l.shape for l in out.logits] == [(7, 2), (7, 6)]
    assert out.features.shape == (7, 32) and out.paths.shape == (7, 2) and out.leaf_probs.shape == (7, 6)


def test_classifier_zero_weights_uniform(tree):
    ms = build_models(tree, ModelConfig(seed=9))
    zeroed(ms.clf_lo.trunk)
    for w, b in ms.clf_lo.heads:
        w.data = np.zeros_like(w.data)
        b.data = np.zeros_like(b.data)
    logits = classify(ms.clf_lo, np.full((8, 8), 0.4)).logits
    assert all(np.all(l == 0.0) for l in logits)


def test_classifier_resolution_mismatch(models):
    with pytest.raises(ModelError):
        classify(models.clf_lo, np.zeros((16, 16)))


def test_trunk_features_shared_across_heads(models):
    # recompute twice: same input, same features feeding every head
    img = np.random.default_rng(6).uniform(size=(1, 64))
    t1, t2 = Tape(), Tape()
    f1, _ = models.clf_lo.forward(t1, Tensor(img))
    f2 = models.clf_lo.features(t2, Tensor(img))
    assert np.array_equal(f1.data, f2.data)
    assert f1.shape == (1, 32)


def test_hier_loss_uniform_logits(tree):
    ms = build_models(tree, ModelConfig(seed=10))
    zeroed(ms.clf_lo.trunk)
    for w, b in ms.clf_lo.heads:
        w.data = np.zeros_like(w.data)
        b.data = np.zeros_like(b.data)
    val = loss_of(ms.clf_lo, np.full((8, 8), 0.2), tree.id_of("dog"))
    assert abs(val - (np.log(2) + np.log(6))) < 1e-12


def test_hier_loss_saturated_correct_logits(tree):
    # force the correct class logits huge via head biases
    ms = build_models(tree, ModelConfig(seed=11))
    zeroed(ms.clf_lo.trunk)
    y = tree.id_of("dog")
    for k, (w, b) in enumerate(ms.clf_lo.heads, start=1):
        w.data = np.zeros_like(w.data)
        b.data = np.zeros_like(b.data)
        pos = tree.level_classes(k).index(tree.ancestor(y, k))
        b.data[pos] = 1000.0
    assert loss_of(ms.clf_lo, np.full((8, 8), 0.6), y) < 1e-9


def test_hier_loss_matches_loop_oracle(models, tree):
    rng = np.random.default_rng(7)
    for _ in range(20):
        img = rng.uniform(size=(8, 8))
        y = int(rng.choice(tree.leaves))
        got = loss_of(models.clf_lo, img, y)
        logits = classify(models.clf_lo, img).logits
        want = 0.0
        for k, l in enumerate(logits, start=1):
            l = l[0]
            probs = np.exp(l - l.max())
            probs /= probs.sum()
            pos = tree.level_classes(k).index(tree.ancestor(y, k))
            want -= np.log(probs[pos])
        assert abs(got - want) < 1e-12


def test_hier_loss_rejects_non_leaf(models, tree):
    with pytest.raises(ModelError):
        loss_of(models.clf_lo, np.zeros((8, 8)), tree.id_of("canine"))


@pytest.mark.parametrize("bad", ["canine", "past the last id", "negative"])
def test_hier_loss_names_the_first_id_that_is_no_leaf(models, tree, bad):
    # -1 must not wrap around to the last node, which is a leaf
    y = {"canine": tree.id_of("canine"), "past the last id": len(tree), "negative": -1}[bad]
    x = Tensor(np.zeros((3, 64)))
    with pytest.raises(ModelError, match=rf"^node id {y} is not a leaf of the classifier's hierarchy$"):
        models.clf_lo.loss(Tape(), x, [tree.leaves[0], y, tree.id_of("feline")])


def test_hier_loss_decreases_when_correct_logit_rises(tree):
    # raising the correct-class bias at one level strictly lowers the loss
    ms = build_models(tree, ModelConfig(seed=12))
    y = tree.id_of("lion")
    img = np.random.default_rng(8).uniform(size=(8, 8))
    base = loss_of(ms.clf_lo, img, y)
    w, b = ms.clf_lo.heads[1]
    pos = tree.level_classes(2).index(y)
    b.data[pos] += 0.5
    assert loss_of(ms.clf_lo, img, y) < base


def test_hier_loss_image_gradient_gradcheck(models, tree):
    # the input-gradient path that trains the generator through the frozen net
    img = Tensor(np.random.default_rng(9).uniform(size=(1, 64)), name="img")
    y = tree.id_of("wolf")

    def f(tape, ps):
        return models.clf_lo.loss(tape, ps[0], [y])

    report = grad_check(f, [img], step=1e-6)
    assert report.passed, report


def test_predict_path_forced_logits(tree):
    ms = build_models(tree, ModelConfig(seed=13))
    zeroed(ms.clf_lo.trunk)
    for w, b in ms.clf_lo.heads:
        w.data = np.zeros_like(w.data)
        b.data = np.zeros_like(b.data)
    ms.clf_lo.heads[0][1].data[:] = [2.0, 1.0]
    ms.clf_lo.heads[1][1].data[:] = [0.0, 0.0, 5.0, 0.0, 0.0, 0.0]
    path = tuple(classify(ms.clf_lo, np.full((8, 8), 0.1)).paths[0])
    assert path == (tree.id_of("canine"), tree.level_classes(2)[2])


def test_predict_path_tie_breaks_low(tree):
    ms = build_models(tree, ModelConfig(seed=14))
    zeroed(ms.clf_lo.trunk)
    for w, b in ms.clf_lo.heads:
        w.data = np.zeros_like(w.data)
        b.data = np.zeros_like(b.data)
    path = tuple(classify(ms.clf_lo, np.full((8, 8), 0.9)).paths[0])
    assert path == (tree.level_classes(1)[0], tree.level_classes(2)[0])


# ---------------------------------------------------- classifier training


@pytest.fixture(scope="module")
def corpus(tree):
    return generate_dataset(default_dataset_spec(tree, samples_per_leaf=200, seed=0))


@pytest.fixture(scope="module")
def trained_lo(tree, corpus):
    ms = build_models(tree, ModelConfig(seed=0))
    return train_classifier(ms.clf_lo, corpus, 8, ClassifierConfig(seed=0))


def test_trained_classifier_accuracy(trained_lo, corpus):
    stats = evaluate_classifier(trained_lo, corpus.test)
    assert stats["leaf"] >= 0.95
    assert all(a >= 0.95 for a in stats["levels"])


def test_trained_classifier_path_consistency(trained_lo, corpus):
    stats = evaluate_classifier(trained_lo, corpus.test)
    assert stats["path_consistent"] >= 0.90


def test_evaluate_classifier_matches_per_sample_oracle(tree, corpus):
    # an untrained classifier makes mistakes and off-tree paths, so every score is exercised
    clf = build_models(tree, ModelConfig(seed=5)).clf_lo
    stats = evaluate_classifier(clf, corpus.test)
    paths = [tuple(int(c) for c in row) for row in classify(clf, corpus.test.lo).paths]
    true = [tree.ancestor_path(int(y)) for y in corpus.test.leaf]
    levels = tuple(float(np.mean([p[k] == t[k] for p, t in zip(paths, true)])) for k in range(tree.K))
    consistent = float(np.mean([tree.nodes[p[-1]].parent == p[-2] for p in paths]))
    assert stats["levels"] == levels and stats["leaf"] == levels[-1]
    assert stats["path_consistent"] == consistent


def test_trained_classifier_is_frozen(trained_lo, tree):
    # the G step's tape tracks the image, not the classifier: it returns no
    # classifier gradient, and the image gradient a tape that also tracks the
    # classifier would compute
    img = Tensor(np.random.default_rng(4).uniform(size=(6, 64)))
    results = []
    for weights in (trained_lo.params(), []):
        tape = Tape([img] + weights)
        results.append(tape.backward(trained_lo.loss(tape, img, tree.leaves)))
    assert set(results[0]) == {img, *trained_lo.params()} and list(results[1]) == [img]
    assert results[1][img].tobytes() == results[0][img].tobytes()


def test_frozen_classifier_still_gives_image_gradient(trained_lo, tree):
    img = Tensor(np.random.default_rng(10).uniform(size=(1, 64)))
    tape = Tape([img])
    loss = trained_lo.loss(tape, img, [tree.leaves[0]])
    grads = tape.backward(loss)
    assert img in grads and np.any(grads[img] != 0.0)
    assert all(p not in grads for p in trained_lo.params())


def test_classifier_training_deterministic(tree, corpus):
    outs = []
    for _ in range(2):
        ms = build_models(tree, ModelConfig(seed=1))
        clf = train_classifier(ms.clf_lo, corpus, 8, ClassifierConfig(epochs=3, seed=1))
        outs.append(np.concatenate([p.data.ravel() for p in clf.params()]))
    assert np.array_equal(outs[0], outs[1])


def test_shuffled_labels_hit_chance(tree, corpus):
    # negative control: uniformly shuffled labels leave nothing to learn
    import dataclasses

    rng = np.random.default_rng(0)
    leaves = list(tree.leaves)
    labels = np.array([rng.choice(leaves) for _ in range(len(corpus.train))])
    shuffled = dataclasses.replace(corpus, train=dataclasses.replace(corpus.train, leaf=labels))
    ms = build_models(tree, ModelConfig(seed=2))
    clf = train_classifier(ms.clf_lo, shuffled, 8, ClassifierConfig(epochs=20, seed=2))
    stats = evaluate_classifier(clf, corpus.test)
    chance = 1.0 / tree.num_classes(tree.K)
    assert abs(stats["leaf"] - chance) <= 0.05


def test_train_classifier_validates_resolution(models, corpus):
    with pytest.raises(ModelError):
        train_classifier(models.clf_lo, corpus, 16, ClassifierConfig())
    with pytest.raises(ModelError):
        train_classifier(models.clf_lo, corpus, 7, ClassifierConfig())


def test_classifier_config_validation():
    with pytest.raises(ModelError):
        ClassifierConfig(epochs=0)
    with pytest.raises(ModelError):
        ClassifierConfig(lr=-1.0)


# ------------------------------------------------------------- persistence


def test_build_models_holds_given_classifiers(tree):
    # the classifiers are drawn last, so holding given ones changes no other weight
    drawn = build_models(tree, ModelConfig(seed=3))
    given = build_models(tree, ModelConfig(seed=4))
    held = build_models(tree, ModelConfig(seed=3), given.clf_lo, given.clf_hi)
    assert held.clf_lo is given.clf_lo and held.clf_hi is given.clf_hi
    for net in ("g1", "g2", "d_lo", "d_hi"):
        for a, b in zip(getattr(drawn, net).params(), getattr(held, net).params()):
            assert a.data.tobytes() == b.data.tobytes()


def test_save_load_round_trip(tmp_path, tree, table):
    ms = build_models(tree, ModelConfig(seed=15))
    path = tmp_path / "models.hgck"
    save_models(ms, path)
    back = load_models(path)
    for a, b in zip(_all_params(ms), _all_params(back)):
        assert a.name == b.name
        assert np.array_equal(a.data, b.data)
    e = leaf_row(table, tree.id_of("tiger"))
    z = np.random.default_rng(11).standard_normal(32)
    lo_a, hi_a = generate_images(ms, e, z)
    lo_b, hi_b = generate_images(back, e, z)
    assert np.array_equal(lo_a, lo_b) and np.array_equal(hi_a, hi_b)
    # a generator tape through the loaded D and classifier differentiates the generator only
    tape = Tape(back.g1.params())
    cond = Tensor(e[None])
    fake = back.generate(tape, cond, Tensor(z[None]), stage=1)
    loss = tape.add(ref.sum(tape, back.d_lo.forward(tape, fake, cond=cond)), back.clf_lo.loss(tape, fake, [tree.id_of("tiger")]))
    assert set(tape.backward(loss)) == set(back.g1.params())


def test_loads_draw_no_weights(tmp_path, tree, monkeypatch):
    # numpy's Generator type is immutable, so its uniform cannot be patched;
    # a load that cannot make a generator at all draws nothing
    ms = build_models(tree, ModelConfig(seed=18))
    save_models(ms, tmp_path / "models.hgck")
    save_classifier(ms.clf_hi, tmp_path / "clf.hgck")

    def no_rng(*args, **kwargs):
        raise AssertionError("a load drew weights from an rng")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    back, clf = load_models(tmp_path / "models.hgck"), load_classifier(tmp_path / "clf.hgck")
    for a, b in zip(_all_params(ms) + ms.clf_hi.params(), _all_params(back) + clf.params(), strict=True):
        assert a.name == b.name and a.data.tobytes() == b.data.tobytes()


def _all_params(ms):
    out = []
    for component in (ms.g1, ms.g2, ms.d_lo, ms.d_hi, ms.clf_lo, ms.clf_hi):
        out.extend(component.params())
    return out


def test_load_rejects_shape_drift(tmp_path, tree):
    ms = build_models(tree, ModelConfig(seed=16))
    path = tmp_path / "m.hgck"
    save_models(ms, path)
    manifest, blobs = load_checkpoint(path)
    blobs["g1.w0"] = blobs["g1.w0"][:, :5]
    save_checkpoint(path, blobs, manifest)
    with pytest.raises(CheckpointError, match="shape"):
        load_models(path)


def test_load_rejects_missing_manifest(tmp_path, tree):
    ms = build_models(tree, ModelConfig(seed=17))
    path = tmp_path / "m2.hgck"
    save_models(ms, path)
    _, blobs = load_checkpoint(path)
    save_checkpoint(path, blobs)
    with pytest.raises(CheckpointError, match="manifest"):
        load_models(path)
