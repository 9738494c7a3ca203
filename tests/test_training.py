import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import reference_ops as ref
from hiergan.autodiff import Adam, NonFiniteError, Tape, Tensor, grad_check
from hiergan.embed import CheConfig, EmbeddingError, condition, margin_loss_graph, sample_negatives, train_che
from hiergan.hierarchy import FIXTURE_TREE, parse_hierarchy
from hiergan.metrics import evaluate
from hiergan.models import (
    HierClassifier,
    Mlp,
    ModelConfig,
    ModelError,
    build_models,
    classify,
    discriminator_loss,
    generate_set,
    load_models,
    save_models,
)
from hiergan.synthdata import default_dataset_spec, generate_dataset
from hiergan.training import (
    TrainConfig,
    TrainMode,
    Trainer,
    TrainingError,
    run_training,
    save_run,
    trace_csv,
)


@pytest.fixture(scope="module")
def tree():
    return parse_hierarchy(FIXTURE_TREE)


@pytest.fixture(scope="module")
def corpus(tree):
    return generate_dataset(default_dataset_spec(tree, samples_per_leaf=30, seed=0))


@pytest.fixture(scope="module")
def frozen_clfs(tree, corpus):
    # GAN training never trains its classifiers; accuracy is irrelevant here
    ms = build_models(tree, ModelConfig(seed=0))
    return ms.clf_lo, ms.clf_hi


@pytest.fixture(scope="module")
def seg_table(tree):
    return train_che(tree, CheConfig(seed=1, epochs=50))


def tiny_cfg(**kw):
    base = dict(
        mode=TrainMode.TREEGAN,
        steps_per_stage=6,
        eval_every=3,
        eval_n_per_class=4,
        batch_size=8,
        seed=0,
    )
    base.update(kw)
    return TrainConfig(**base)


# ------------------------------------------------------------ config / mode


def test_mode_parsing():
    assert TrainMode.from_string("TreeGAN") is TrainMode.TREEGAN
    assert TrainMode.from_string("npc") is TrainMode.NPC
    with pytest.raises(TrainingError, match="unknown mode"):
        TrainMode.from_string("stylegan")


def test_joint_embedding_modes():
    assert TrainMode.TREEGAN.joint_embeddings and TrainMode.NPC.joint_embeddings
    assert not TrainMode.SEG.joint_embeddings and not TrainMode.FLAT.joint_embeddings


def test_config_validation():
    with pytest.raises(TrainingError):
        TrainConfig(lambda1=-1.0)
    with pytest.raises(TrainingError):
        TrainConfig(gan_lr=0.0)
    with pytest.raises(TrainingError):
        TrainConfig(che_margin=0.3)
    with pytest.raises(TrainingError):
        TrainConfig(batch_size=0)
    with pytest.raises(TrainingError):
        TrainConfig(seed=-1)


def test_config_requires_two_eval_samples_per_class():
    # a class's Frechet statistics need two feature rows; with fewer, a run
    # would fail only at its first checkpoint, after every step had run
    for n in (0, 1):
        with pytest.raises(TrainingError, match="eval_n_per_class"):
            TrainConfig(eval_n_per_class=n)
    assert TrainConfig(eval_n_per_class=2).eval_n_per_class == 2


def test_only_full_mode_applies_penalty():
    assert TrainConfig(mode="treegan", lambda1=15.0).effective_lambda1 == 15.0
    for mode in ("npc", "seg", "flat"):
        assert TrainConfig(mode=mode, lambda1=15.0).effective_lambda1 == 0.0


def test_config_accepts_mode_strings():
    cfg = TrainConfig(mode="flat")
    assert cfg.mode is TrainMode.FLAT


# -------------------------------------------------------- hierarchy penalty


def penalty(clf, images, y):
    """The G step's penalty: mean stacked cross-entropy of a batch against leaf y."""
    n = images.shape[0]
    return clf.loss(Tape(), Tensor(images.reshape(n, -1)), [y] * n).item() / n


def test_penalty_single_sample_equals_hier_loss(tree, frozen_clfs):
    clf_lo, _ = frozen_clfs
    img = np.random.default_rng(0).uniform(size=(1, 8, 8))
    y = int(tree.leaves[2])
    assert penalty(clf_lo, img, y) == pytest.approx(
        clf_lo.loss(Tape(), Tensor(img[0].reshape(1, 64)), [y]).item(), abs=1e-12
    )


def test_penalty_matches_loop_average(tree, frozen_clfs):
    clf_lo, _ = frozen_clfs
    imgs = np.random.default_rng(1).uniform(size=(7, 8, 8))
    y = int(tree.leaves[4])
    want = np.mean([penalty(clf_lo, img[None], y) for img in imgs])
    assert penalty(clf_lo, imgs, y) == pytest.approx(want, abs=1e-12)


def test_penalty_rejects_bad_input(tree, frozen_clfs):
    clf_lo, _ = frozen_clfs
    with pytest.raises(TrainingError, match="batch_size"):
        TrainConfig(batch_size=0)  # the G step's batch is never empty
    with pytest.raises(ModelError, match="leaf"):
        penalty(clf_lo, np.zeros((2, 8, 8)), tree.id_of("canine"))
    with pytest.raises(ValueError):
        penalty(clf_lo, np.zeros((2, 16, 16)), int(tree.leaves[0]))


# ------------------------------------------------- composite objective check


def test_composite_generator_objective_gradcheck(tree, corpus):
    # tiny configuration: D=2 embeddings, 2-unit layers everywhere
    cfg = ModelConfig(embed_dim=2, gen_hidden=2, disc_hidden=2, clf_hidden=2, feature_width=2, seed=5)
    tcfg = tiny_cfg(embed_dim=2, batch_size=3, lambda1=15.0)
    ms = build_models(tree, cfg)
    trainer = Trainer(corpus, tree, tcfg, ms.clf_lo, ms.clf_hi)
    # swap the trainer's models for the tiny set so every layer is 2 units
    trainer.models.g1 = ms.g1
    trainer.models.g2 = ms.g2
    trainer.models.d_lo = ms.d_lo
    trainer.models.d_hi = ms.d_hi
    trainer.models.clf_lo = ms.clf_lo
    trainer.models.clf_hi = ms.clf_hi
    trainer._enter_stage(2)
    y = int(tree.leaves[0])
    z = np.random.default_rng(6).standard_normal((3, 4))
    params = ms.g1.params() + ms.g2.params() + trainer.emb

    def objective(tape, ps):
        e_c = condition(tape, trainer.emb, y)
        fake = trainer.models.generate(tape, e_c, Tensor(z), trainer.stage)
        g_adv = tape.binary_cross_entropy_with_logits(
            trainer.disc.forward(tape, fake, cond=e_c), np.ones((3, 1))
        )
        penalty = tape.scale(trainer.clf.loss(tape, fake, [y] * 3), 1.0 / 3)
        return tape.add(g_adv, tape.scale(penalty, 15.0))

    report = grad_check(objective, params, step=1e-6, max_per_param=25)
    assert report.passed, report


# -------------------------------------------------------------- run_training


def test_run_replays_exactly(tree, corpus, frozen_clfs):
    clf_lo, clf_hi = frozen_clfs
    runs = [run_training(corpus, tree, tiny_cfg(), clf_lo, clf_hi) for _ in range(2)]
    assert trace_csv(runs[0].trace) == trace_csv(runs[1].trace)
    for a, b in zip(runs[0].models.g2.params(), runs[1].models.g2.params()):
        assert np.array_equal(a.data, b.data)


@pytest.mark.parametrize("mode", ["treegan", "seg"])
def test_one_generator_forward_per_joint_step(tree, corpus, frozen_clfs, seg_table, mode, monkeypatch):
    calls = {1: 0, 2: 0}
    cfg = tiny_cfg(mode=mode)
    trainer = Trainer(corpus, tree, cfg, *frozen_clfs, seg_table if mode == "seg" else None)
    original = Mlp.forward

    def forward(self, *args, **kwargs):
        calls[1] += self is trainer.models.g1
        calls[2] += self is trainer.models.g2
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Mlp, "forward", forward)
    for stage, expected in ((1, {1: 1, 2: 0}), (2, {1: 1, 2: 1})):
        if stage == 2:
            trainer._enter_stage(2)
        for _ in range(2):
            calls.update({1: 0, 2: 0})
            y = tree.leaves[0]
            z = trainer.rng.standard_normal((cfg.batch_size, trainer.models.config.noise_dim))
            trainer.joint_step(trainer.real_batch(y), y, z)
            assert calls == expected, f"stage {stage}"


def one_joint_step(trainer):
    y = trainer.h.leaves[0]
    z = trainer.rng.standard_normal((trainer.cfg.batch_size, trainer.models.config.noise_dim))
    trainer.joint_step(trainer.real_batch(y), y, z)


def test_generator_step_computes_no_discriminator_gradients(tree, corpus, frozen_clfs, seg_table, monkeypatch):
    """A joint step runs two backwards: the D step's, which holds exactly the
    D parameters, then one for the G and embedding steps, which holds every G
    parameter, the four table tensors exactly when the table trains jointly,
    and no D or classifier parameter."""
    backward = Tape.backward
    calls = []  # the gradients of each backward

    def recording(tape, loss):
        grads = backward(tape, loss)
        calls.append(grads)
        return grads

    monkeypatch.setattr(Tape, "backward", recording)
    for mode in ("treegan", "npc", "seg", "flat"):
        trainer = Trainer(corpus, tree, tiny_cfg(mode=mode), *frozen_clfs, seg_table if mode == "seg" else None)
        for stage in (1, 2):
            if stage == 2:
                trainer._enter_stage(2)
            calls.clear()
            one_joint_step(trainer)
            assert len(calls) == 2, (mode, stage)
            d_grads, g_grads = calls
            table = set(trainer.emb) if mode in ("treegan", "npc") else set()
            assert set(d_grads) == set(trainer.d_opt.params), (mode, stage)
            assert set(g_grads) == set(trainer.g_opt.params) | table, (mode, stage)


@pytest.mark.parametrize("mode", ["treegan", "npc"])
def test_table_gradient_matches_two_tape_reference(tree, corpus, frozen_clfs, mode, monkeypatch):
    """One step's generator and table gradients equal those of separate
    backwards: the generator objective on the generator's tape and lambda2 *
    margin on a tape of its own, the table's summed margin part first."""
    seen = []  # the gradients of each Adam step, in its group's order: D, G, then the table
    step = Adam.step

    def recording(opt, grads):
        seen.append([grads[p] for p in opt.params])
        return step(opt, grads)

    monkeypatch.setattr(Adam, "step", recording)
    cfg = tiny_cfg(mode=mode, lambda2=0.5)  # a weight that a dropped scale would show
    trainer, ref = (Trainer(corpus, tree, cfg, *frozen_clfs) for _ in range(2))
    one_joint_step(trainer)
    assert len(seen) == 3

    # the same draws as one_joint_step, and the D step as the trainer takes it
    y, n = tree.leaves[0], cfg.batch_size
    z = ref.rng.standard_normal((n, ref.models.config.noise_dim))
    real = ref.real_batch(y)
    tape_g = Tape(ref.g_opt.params + ref.emb)
    e_c = condition(tape_g, ref.emb, y)
    fake = ref.models.generate(tape_g, e_c, Tensor(z), ref.stage)
    tape_d = Tape(ref.d_opt.params)
    d_loss = discriminator_loss(tape_d, ref.disc, real.reshape(n, -1), fake.data, Tensor(e_c.data))
    step(ref.d_opt, tape_d.backward(d_loss))
    g_obj = tape_g.binary_cross_entropy_with_logits(ref.disc.forward(tape_g, fake, cond=e_c), np.ones((n, 1)))
    if cfg.effective_lambda1 > 0:
        penalty = tape_g.scale(ref.clf.loss(tape_g, fake, [y] * n), 1.0 / n)
        g_obj = tape_g.add(g_obj, tape_g.scale(penalty, cfg.effective_lambda1))
    g_grads = tape_g.backward(g_obj)
    neg = sample_negatives(tree, ref.pairs, cfg.che_negatives, ref.rng)
    tape_e = Tape(ref.emb)
    margin = margin_loss_graph(tape_e, ref.emb, ref.pairs, neg, cfg.che_margin)
    e_grads = tape_e.backward(tape_e.scale(margin, cfg.lambda2))
    want_table = [e_grads[p] + g_grads.get(p, np.zeros_like(p.data)) for p in ref.emb]
    assert [g.tobytes() for g in seen[1]] == [g_grads[p].tobytes() for p in ref.g_opt.params]
    assert [g.tobytes() for g in seen[2]] == [g.tobytes() for g in want_table]


def test_untracked_discriminator_passes_gradients_to_inputs(tree, corpus, frozen_clfs):
    # the G step's tape does not track D: its inputs get the same gradients
    # as on a tape that also tracks D's weights, and D itself gets none
    trainer = Trainer(corpus, tree, tiny_cfg(), *frozen_clfs)
    disc = trainer.disc
    rng = np.random.default_rng(3)
    x = Tensor(rng.uniform(size=(5, 64)))
    e_c = Tensor(rng.normal(size=(1, disc.in_dim - 64)))
    results = []
    for weights in (disc.params(), []):
        tape = Tape([x, e_c] + weights)
        grads = tape.backward(ref.sum(tape, disc.forward(tape, x, cond=e_c)))
        results.append((grads[x].tobytes(), grads[e_c].tobytes(), set(grads) & set(disc.params())))
    assert results[1][:2] == results[0][:2]
    assert results[0][2] == set(disc.params()) and results[1][2] == set()


def test_forward_only_passes_record_nothing(tree, corpus, frozen_clfs, tmp_path, monkeypatch):
    """classify, generate_set and evaluate run their ops on tapes that track
    nothing, so they record nothing, on a trained set and on a reloaded one."""
    art = run_training(corpus, tree, tiny_cfg(), *frozen_clfs)
    save_models(art.models, tmp_path / "models.hgck")
    emit = Tape._emit
    counts = {"ops": 0, "records": 0}

    def counting(tape, *args):
        before = len(tape)
        out = emit(tape, *args)
        counts["ops"] += 1
        counts["records"] += len(tape) - before
        return out

    monkeypatch.setattr(Tape, "_emit", counting)
    y = tree.leaves[0]
    for ms in (art.models, load_models(tmp_path / "models.hgck")):
        for run in (
            lambda: classify(ms.clf_hi, corpus.test.hi[:5]),
            lambda: generate_set(ms, art.table, y, 4, seed=0),
            lambda: evaluate(ms, art.table, corpus, tree, n_per_class=4, seed=0),
        ):
            counts.update(ops=0, records=0)
            run()
            assert counts["ops"] > 0 and counts["records"] == 0


def test_lambda_zero_matches_npc_bitwise(tree, corpus, frozen_clfs):
    clf_lo, clf_hi = frozen_clfs
    a = run_training(corpus, tree, tiny_cfg(mode="treegan", lambda1=0.0), clf_lo, clf_hi)
    b = run_training(corpus, tree, tiny_cfg(mode="npc", lambda1=15.0), clf_lo, clf_hi)
    assert trace_csv(a.trace) == trace_csv(b.trace)
    for pa, pb in zip(
        a.models.g1.params() + a.models.g2.params(), b.models.g1.params() + b.models.g2.params()
    ):
        assert np.array_equal(pa.data, pb.data)


def test_seg_table_bit_unchanged(tree, corpus, frozen_clfs, seg_table, tmp_path):
    clf_lo, clf_hi = frozen_clfs
    before = {
        "class_re": seg_table.class_re.copy(),
        "class_im": seg_table.class_im.copy(),
        "rel_re": seg_table.rel_re.copy(),
        "rel_im": seg_table.rel_im.copy(),
    }
    art = run_training(corpus, tree, tiny_cfg(mode="seg"), clf_lo, clf_hi, embeddings=seg_table)
    assert np.array_equal(art.table.class_re, before["class_re"])
    assert np.array_equal(art.table.class_im, before["class_im"])
    assert np.array_equal(art.table.rel_re, before["rel_re"])
    assert np.array_equal(art.table.rel_im, before["rel_im"])


def test_classifiers_untouched_by_training(tree, corpus, frozen_clfs):
    clf_lo, clf_hi = frozen_clfs
    before = [p.data.copy() for p in clf_lo.params() + clf_hi.params()]
    run_training(corpus, tree, tiny_cfg(mode="treegan"), clf_lo, clf_hi)
    after = [p.data for p in clf_lo.params() + clf_hi.params()]
    assert all(np.array_equal(x, y) for x, y in zip(before, after))


def test_mode_embedding_requirements(tree, corpus, frozen_clfs, seg_table):
    clf_lo, clf_hi = frozen_clfs
    with pytest.raises(TrainingError, match="SEG mode requires"):
        run_training(corpus, tree, tiny_cfg(mode="seg"), clf_lo, clf_hi)
    with pytest.raises(TrainingError, match="does not accept"):
        run_training(corpus, tree, tiny_cfg(mode="flat"), clf_lo, clf_hi, embeddings=seg_table)
    with pytest.raises(TrainingError, match="does not accept"):
        run_training(corpus, tree, tiny_cfg(mode="treegan"), clf_lo, clf_hi, embeddings=seg_table)


def test_rejects_hierarchy_mismatch(tree, corpus, frozen_clfs):
    clf_lo, clf_hi = frozen_clfs
    other = parse_hierarchy("root\nroot/a\nroot/b\n")
    other_corpus = generate_dataset(default_dataset_spec(other, samples_per_leaf=10, seed=0))
    with pytest.raises(TrainingError, match="different hierarchy"):
        run_training(other_corpus, tree, tiny_cfg(), clf_lo, clf_hi)


def test_seg_rejects_table_of_another_hierarchy(tree, corpus, frozen_clfs, seg_table):
    renamed = parse_hierarchy(FIXTURE_TREE.replace("canine", "bird"))
    other = dataclasses.replace(seg_table, hierarchy=renamed)
    with pytest.raises(EmbeddingError, match="different hierarchy"):
        run_training(corpus, tree, tiny_cfg(mode="seg"), *frozen_clfs, embeddings=other)


def test_trace_structure(tree, corpus, frozen_clfs):
    clf_lo, clf_hi = frozen_clfs
    art = run_training(corpus, tree, tiny_cfg(steps_per_stage=7), clf_lo, clf_hi)
    steps = [r.step for r in art.trace]
    assert steps == list(range(1, 15))  # strictly increasing across stages
    assert [r.stage for r in art.trace] == [1] * 7 + [2] * 7
    # round-robin over leaves in id order
    want = [int(tree.leaves[t % 6]) for t in range(7)]
    assert [r.class_id for r in art.trace[:7]] == want
    header = trace_csv(art.trace).splitlines()[0]
    assert header == "step,stage,class_id,d_loss,g_loss,h_penalty,che_loss"


def test_eval_checkpoints_during_stage_two(tree, corpus, frozen_clfs):
    clf_lo, clf_hi = frozen_clfs
    art = run_training(corpus, tree, tiny_cfg(steps_per_stage=6, eval_every=3), clf_lo, clf_hi)
    # stage 2 spans steps 7..12; evals at its steps 3 and 6 -> global 9 and 12
    assert [s for s, _ in art.reports] == [9, 12]


def test_joint_modes_record_che_loss(tree, corpus, frozen_clfs):
    clf_lo, clf_hi = frozen_clfs
    joint = run_training(corpus, tree, tiny_cfg(mode="npc"), clf_lo, clf_hi)
    frozen = run_training(corpus, tree, tiny_cfg(mode="flat"), clf_lo, clf_hi)
    assert any(r.che_loss != 0.0 for r in joint.trace)
    assert all(r.che_loss == 0.0 for r in frozen.trace)
    assert all(r.h_penalty == 0.0 for r in joint.trace)  # npc skips the penalty


def test_aborts_on_non_finite(tree, corpus, frozen_clfs, monkeypatch):
    clf_lo, clf_hi = frozen_clfs
    calls = {"n": 0}
    original = Trainer.joint_step

    def explode(self, real, y, z):
        calls["n"] += 1
        if calls["n"] == 4:
            raise NonFiniteError("op 'exp' produced non-finite values")
        return original(self, real, y, z)

    monkeypatch.setattr(Trainer, "joint_step", explode)
    art = run_training(corpus, tree, tiny_cfg(), clf_lo, clf_hi)
    assert art.aborted
    assert art.abort_step == 4
    assert len(art.trace) == 3
    assert "non-finite" in art.abort_reason


def test_an_aborted_step_keeps_no_discriminator_update(tree, corpus, frozen_clfs):
    # at this rate the D step's update overflows the G step's D forward, so
    # the run aborts at step 1, and no network keeps an update from it
    cfg = tiny_cfg(gan_lr=1e200)
    with np.errstate(over="ignore"):
        art = run_training(corpus, tree, cfg, *frozen_clfs)
    assert art.aborted and art.abort_step == 1 and art.trace == []
    drawn = build_models(tree, ModelConfig(embed_dim=cfg.embed_dim, seed=cfg.seed), *frozen_clfs)
    for got, want in zip(art.models.d_lo.params() + art.models.g1.params(), drawn.d_lo.params() + drawn.g1.params()):
        assert got.data.tobytes() == want.data.tobytes(), got.name


# ---------------------------------------------------------------- artifacts


def test_save_run_writes_everything(tree, corpus, frozen_clfs, tmp_path):
    clf_lo, clf_hi = frozen_clfs
    art = run_training(corpus, tree, tiny_cfg(), clf_lo, clf_hi)
    out = tmp_path / "run"
    save_run(art, out, extra_manifest={"dataset_checksum": "abc123"})
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "embeddings.hgck",
        "manifest.json",
        "metrics_step000009.csv",
        "metrics_step000009.json",
        "metrics_step000012.csv",
        "metrics_step000012.json",
        "models.hgck",
        "trace.csv",
    ]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["mode"] == "treegan"
    assert manifest["seed"] == 0
    assert manifest["dataset_checksum"] == "abc123"
    assert manifest["config"]["lambda1"] == 15.0
    assert manifest["checkpoints"] == [9, 12]
    assert (out / "trace.csv").read_text() == trace_csv(art.trace)


def test_run_of_narrow_classifiers_reloads(tree, corpus, tmp_path):
    """A run's models.hgck records the widths of the classifiers it holds,
    so a run of classifiers built at other than the default widths reloads
    with them bit for bit."""
    narrow = ModelConfig(clf_hidden=8, feature_width=4)
    rng = np.random.default_rng(0)
    clf_lo, clf_hi = (HierClassifier.init(tree, pixels, narrow, rng) for pixels in (64, 256))
    art = run_training(corpus, tree, tiny_cfg(), clf_lo, clf_hi)
    save_run(art, tmp_path / "run")
    loaded = load_models(tmp_path / "run" / "models.hgck")
    assert (loaded.config.clf_hidden, loaded.config.feature_width) == (8, 4)
    for got, want in ((loaded.clf_lo, clf_lo), (loaded.clf_hi, clf_hi)):
        assert [p.data.tobytes() for p in got.params()] == [p.data.tobytes() for p in want.params()]


def test_build_models_rejects_classifiers_of_different_widths(tree):
    rng = np.random.default_rng(0)
    clf_lo = HierClassifier.init(tree, 64, ModelConfig(clf_hidden=8, feature_width=4), rng)
    clf_hi = HierClassifier.init(tree, 256, ModelConfig(), rng)
    with pytest.raises(ModelError, match="differ in widths"):
        build_models(tree, ModelConfig(), clf_lo, clf_hi)


def test_save_run_renames_every_file_into_place(tree, corpus, frozen_clfs, tmp_path, monkeypatch):
    import hiergan.files as files

    renamed = []
    replace = files.os.replace

    def spy(src, dst):
        renamed.append(Path(dst).name)
        replace(src, dst)

    clf_lo, clf_hi = frozen_clfs
    art = run_training(corpus, tree, tiny_cfg(), clf_lo, clf_hi)
    monkeypatch.setattr(files.os, "replace", spy)
    out = tmp_path / "run"
    save_run(art, out)
    assert sorted(renamed) == sorted(p.name for p in out.iterdir())


def test_save_run_reproducible_bytes(tree, corpus, frozen_clfs, tmp_path):
    clf_lo, clf_hi = frozen_clfs
    blobs = []
    for name in ("a", "b"):
        art = run_training(corpus, tree, tiny_cfg(), clf_lo, clf_hi)
        out = tmp_path / name
        save_run(art, out)
        blobs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert blobs[0] == blobs[1]
