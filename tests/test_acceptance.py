"""End-to-end acceptance checks, one test per criterion.

Each test emits a single PASS/FAIL line; conftest replays the lines after
the run, outside pytest's capture, so they are visible even when every
test passes. The heavy piece is the 4-mode x 5-seed training matrix behind
criterion 8; everything else is oracles and short runs.
"""

import dataclasses
import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from unittest import mock

import conftest

import numpy as np
import pytest

from hiergan.autodiff import Tape, Tensor, grad_check
from hiergan.cli import main as cli_main
from hiergan.embed import (
    CheConfig,
    ClassEmbeddingTable,
    condition,
    pair_scores,
    ranking_accuracy,
    sibling_similarity_gap,
    train_che,
)
from hiergan.hierarchy import FIXTURE_TREE, parse_hierarchy
from hiergan.metrics import (
    GaussianStats,
    fit_gaussian,
    frechet_distance,
    inception_score,
)
from hiergan.models import (
    ClassifierConfig,
    HierClassifier,
    ModelConfig,
    build_models,
    classify,
    evaluate_classifier,
    train_classifier,
)
from hiergan.synthdata import default_dataset_spec, generate_dataset
from hiergan.training import TrainConfig, Trainer, TrainMode, run_training, trace_csv

TREE = parse_hierarchy(FIXTURE_TREE)


def report(num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE CRITERION {num:2d}: {'PASS' if ok else 'FAIL'} ({detail})"
    conftest.criterion_lines.append(line)
    print(line, flush=True)
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(default_dataset_spec(TREE, seed=0))


@pytest.fixture(scope="module")
def classifiers(dataset):
    cfg = ClassifierConfig()
    pair = []
    for res in (8, 16):
        clf = HierClassifier.init(TREE, res * res, ModelConfig(), np.random.default_rng(cfg.seed))
        pair.append(train_classifier(clf, dataset, res, cfg))
    return tuple(pair)


# --------------------------------------------------------------- criterion 1


def test_criterion_01_gradients(dataset):
    from test_autodiff import _fd_cases

    t0 = time.monotonic()
    failures = []
    for sweep_seed in (7, 8, 9):
        for name, (fn, params) in _fd_cases(np.random.default_rng(sweep_seed)).items():
            r = grad_check(fn, params, step=1e-5, tol=1e-4)
            if not r.passed:
                failures.append(f"{name}@{sweep_seed}: {r}")

    # composite generator objective on a tiny configuration
    cfg = ModelConfig(embed_dim=2, gen_hidden=2, disc_hidden=2, clf_hidden=2, feature_width=2, seed=5)
    ms = build_models(TREE, cfg)
    tcfg = TrainConfig(mode="treegan", embed_dim=2, batch_size=3, steps_per_stage=1, seed=0)
    trainer = Trainer(dataset, TREE, tcfg, ms.clf_lo, ms.clf_hi)
    trainer.models.g1, trainer.models.g2 = ms.g1, ms.g2
    trainer.models.d_lo, trainer.models.d_hi = ms.d_lo, ms.d_hi
    trainer.models.clf_lo, trainer.models.clf_hi = ms.clf_lo, ms.clf_hi
    trainer._enter_stage(2)
    y = int(TREE.leaves[0])
    z = np.random.default_rng(6).standard_normal((3, 4))
    params = ms.g1.params() + ms.g2.params() + trainer.emb

    def composite(tape, ps):
        e_c = condition(tape, trainer.emb, y)
        fake = trainer.models.generate(tape, e_c, Tensor(z), trainer.stage)
        g_adv = tape.binary_cross_entropy_with_logits(
            trainer.disc.forward(tape, fake, cond=e_c), np.ones((3, 1))
        )
        penalty = tape.scale(trainer.clf.loss(tape, fake, [y] * 3), 1.0 / 3)
        return tape.add(g_adv, tape.scale(penalty, 15.0))

    r = grad_check(composite, params, step=1e-6, tol=1e-4, max_per_param=25)
    if not r.passed:
        failures.append(f"composite: {r}")
    elapsed = time.monotonic() - t0
    report(
        1,
        not failures and elapsed < 60,
        f"3 primitive sweeps + composite objective, worst composite rel err "
        f"{r.max_rel_error:.2e}, {elapsed:.1f}s" + (f"; failures: {failures}" if failures else ""),
    )


# --------------------------------------------------------------- criterion 2


def test_criterion_02_stacked_loss_oracle():
    tree24 = parse_hierarchy("root\nroot/a\nroot/b\nroot/a/a1\nroot/a/a2\nroot/b/b1\nroot/b/b2\n")
    clf = HierClassifier.init(tree24, 64, ModelConfig(), np.random.default_rng(3))
    rng = np.random.default_rng(4)
    images = rng.uniform(size=(1000, 8, 8))
    leaves = rng.choice(tree24.leaves, size=1000)
    logits = classify(clf, images).logits

    def stacked_loss(clf, image, y):
        return clf.loss(Tape(), Tensor(image.reshape(1, -1)), [y]).item()

    def oracle(rows, y):
        total = 0.0
        for k, row in enumerate(rows):
            z = row - row.max()
            logp = z - np.log(np.exp(z).sum())
            total += -logp[tree24.level_classes(k + 1).index(tree24.ancestor(int(y), k + 1))]
        return total

    worst = max(
        abs(stacked_loss(clf, images[i], int(leaves[i])) - oracle([lv[i] for lv in logits], leaves[i]))
        for i in range(1000)
    )

    zero = HierClassifier.init(tree24, 64, ModelConfig(), np.random.default_rng(0))
    for p in zero.params():
        p.data = np.zeros_like(p.data)
    forced = stacked_loss(zero, images[0], int(tree24.leaves[0]))
    forced_err = abs(forced - (np.log(2) + np.log(4)))
    report(
        2,
        worst < 1e-12 and forced_err < 1e-12,
        f"1000 random cases worst |diff| {worst:.2e}; uniform-logit value "
        f"{forced:.6f} vs ln2+ln4 {np.log(2) + np.log(4):.6f}",
    )


# --------------------------------------------------------------- criterion 3


def test_criterion_03_pair_score_properties():
    rng = np.random.default_rng(5)
    three = parse_hierarchy("root\nroot/a\nroot/b\n")
    worst_sym = worst_scale = worst_ct = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 9))
        p, rel, c = (rng.normal(size=d) + 1j * rng.normal(size=d) for _ in range(3))
        alpha = float(rng.uniform(0.1, 10.0))
        classes = np.stack([p, c, alpha * p])
        table = ClassEmbeddingTable(classes.real, classes.imag, rel.real, rel.imag, three)
        s, flipped, scaled = pair_scores(table, [(0, 1), (1, 0), (2, 1)])
        worst_sym = max(worst_sym, abs(s - flipped))
        worst_scale = max(worst_scale, abs(s - scaled))
        # oracle: rotate and take the cosine in Python complex arithmetic
        tp = [complex(x) * complex(r) for x, r in zip(p, rel)]
        tc = [complex(x) * complex(r) for x, r in zip(c, rel)]
        dot = sum((a * b.conjugate()).real for a, b in zip(tp, tc))
        norms = np.sqrt(sum(abs(a) ** 2 for a in tp)) * np.sqrt(sum(abs(b) ** 2 for b in tc))
        worst_ct = max(worst_ct, abs(s - dot / norms))
    ok = worst_sym < 1e-12 and worst_scale < 1e-12 and worst_ct < 1e-12
    report(
        3,
        ok,
        f"1000 triples: symmetry {worst_sym:.2e}, scale invariance {worst_scale:.2e}, "
        f"complex oracle {worst_ct:.2e}",
    )


# --------------------------------------------------------------- criterion 4


def test_criterion_04_che_ranking():
    wins = []
    details = []
    for seed in range(5):
        table = train_che(TREE, CheConfig(seed=seed))
        acc = ranking_accuracy(table, TREE, seed=seed)
        gap = sibling_similarity_gap(table, TREE)
        wins.append(acc >= 0.95 and gap >= 0.05)
        details.append(f"s{seed} acc {acc:.3f} gap {gap:.3f}")
    report(4, sum(wins) >= 4, f"{sum(wins)}/5 seeds pass: " + ", ".join(details))


# --------------------------------------------------------------- criterion 5


def test_criterion_05_metric_oracles():
    one = lambda mu, var: GaussianStats(np.array([mu]), np.array([[var]]))
    shift = frechet_distance(one(0.0, 2.0), one(1.0, 2.0))
    spread = frechet_distance(one(0.5, 4.0), one(0.5, 1.0))

    rng = np.random.default_rng(6)
    worst = worst_sym = 0.0
    for _ in range(25):
        stats = []
        for _ in range(2):
            m = rng.normal(size=(3, 3))
            sigma = m @ m.T
            stats.append(GaussianStats(rng.normal(size=3), (sigma + sigma.T) / 2))
        a, b = stats

        vals_a, vecs_a = np.linalg.eigh(a.sigma)
        root_a = vecs_a @ np.diag(np.sqrt(np.clip(vals_a, 0, None))) @ vecs_a.T
        inner = root_a @ b.sigma @ root_a
        vals_i = np.linalg.eigvalsh((inner + inner.T) / 2)
        want = float(
            np.sum((a.mu - b.mu) ** 2)
            + np.trace(a.sigma)
            + np.trace(b.sigma)
            - 2.0 * np.sum(np.sqrt(np.clip(vals_i, 0, None)))
        )
        got = frechet_distance(a, b)
        worst = max(worst, abs(got - want))
        worst_sym = max(worst_sym, abs(got - frechet_distance(b, a)))

    probs = np.tile(np.array([[0.2, 0.5, 0.3]]), (8, 1))
    is_marginal = inception_score(probs)
    is_split = inception_score(np.tile(np.eye(4), (5, 1)))
    ok = (
        abs(shift - 1.0) < 1e-12
        and abs(spread - 1.0) < 1e-12
        and worst < 1e-8
        and worst_sym < 1e-8
        and abs(is_marginal - 1.0) < 1e-9
        and abs(is_split - 4.0) < 1e-9
    )
    report(
        5,
        ok,
        f"1-D closed forms {shift:.3f}/{spread:.3f}, eigen oracle worst {worst:.2e}, "
        f"symmetry {worst_sym:.2e}, IS {is_marginal:.6f}/{is_split:.6f}",
    )


# --------------------------------------------------------------- criterion 6


def test_criterion_06_classifier_accuracy(dataset, classifiers):
    clf_lo, clf_hi = classifiers
    scores = {8: evaluate_classifier(clf_lo, dataset.test), 16: evaluate_classifier(clf_hi, dataset.test)}
    min_acc = min(min(s["levels"]) for s in scores.values())

    # The control's held-out accuracy quantizes in 1/6 steps: trained on
    # shuffled labels it predicts each visual cluster's plurality label, and
    # whether that plurality matches the true label is a coin flip per
    # cluster. Averaging over several permutations recovers the chance rate.
    control_accs = []
    for perm_seed in range(5):
        rng = np.random.default_rng(perm_seed)
        shuffled_leaves = rng.permutation(dataset.train.leaf)
        shuffled = dataclasses.replace(dataset, train=dataclasses.replace(dataset.train, leaf=shuffled_leaves))
        control = HierClassifier.init(TREE, 64, ModelConfig(), np.random.default_rng(0))
        train_classifier(control, shuffled, 8, ClassifierConfig())
        control_accs.append(evaluate_classifier(control, dataset.test)["leaf"])
    chance_gap = abs(float(np.mean(control_accs)) - 1.0 / 6.0)
    ok = min_acc >= 0.95 and chance_gap <= 0.05
    report(
        6,
        ok,
        f"held-out per-level accuracy >= {min_acc:.3f} at both resolutions; "
        f"shuffled-label control (5-permutation mean) within {chance_gap:.3f} of chance",
    )


# --------------------------------------------------------------- criterion 7


def test_criterion_07_ablation_identity(dataset, classifiers):
    clf_lo, clf_hi = classifiers
    kw = dict(steps_per_stage=40, eval_every=40, eval_n_per_class=8, seed=11)
    a = run_training(dataset, TREE, TrainConfig(mode="treegan", lambda1=0.0, **kw), clf_lo, clf_hi)
    b = run_training(dataset, TREE, TrainConfig(mode="npc", lambda1=15.0, **kw), clf_lo, clf_hi)
    params_equal = all(
        np.array_equal(pa.data, pb.data)
        for pa, pb in zip(
            a.models.g1.params() + a.models.g2.params(),
            b.models.g1.params() + b.models.g2.params(),
        )
    )
    traces_equal = trace_csv(a.trace) == trace_csv(b.trace)

    table = train_che(TREE, CheConfig(seed=3, epochs=60))
    before = [table.class_re.copy(), table.class_im.copy(), table.rel_re.copy(), table.rel_im.copy()]
    art = run_training(dataset, TREE, TrainConfig(mode="seg", **kw), clf_lo, clf_hi, embeddings=table)
    seg_unchanged = all(
        np.array_equal(x, y)
        for x, y in zip(before, [art.table.class_re, art.table.class_im, art.table.rel_re, art.table.rel_im])
    )
    report(
        7,
        params_equal and traces_equal and seg_unchanged,
        f"lambda1=0 vs NPC params identical: {params_equal}, traces identical: {traces_equal}, "
        f"SEG table bit-unchanged: {seg_unchanged}",
    )


# --------------------------------------------------------------- criterion 8


def _matrix_run(mode: TrainMode, seed: int, dataset, classifiers):
    """One criterion-8 run: (avg desk-FID, avg consistency) and its [matrix]
    line. Everything it trains derives from its seed, so it gives the same
    numbers in the test process and in a worker."""
    emb = train_che(TREE, CheConfig(seed=seed)) if mode is TrainMode.SEG else None
    cfg = TrainConfig(mode=mode, steps_per_stage=1500, eval_every=1500, eval_n_per_class=500, seed=seed)
    art = run_training(dataset, TREE, cfg, *classifiers, embeddings=emb)
    assert not art.aborted, f"{mode.value} seed {seed} aborted: {art.abort_reason}"
    _, final = art.reports[-1]
    line = (
        f"  [matrix] {mode.value:7s} seed {seed}: desk_fid {final.avg_desk_fid:8.2f} "
        f"consistency {final.avg_consistency_rate:.3f}"
    )
    return (final.avg_desk_fid, final.avg_consistency_rate), line


@pytest.fixture(scope="module")
def trend_matrix(dataset, classifiers):
    """The 20 (mode, seed) runs, one per usable CPU at a time (at most four,
    in spawned workers), collected in (seed, mode) order; conftest prints
    their [matrix] lines after the run."""
    jobs = [(mode, seed) for seed in range(5) for mode in TrainMode]
    workers = min(len(os.sched_getaffinity(0)), 4)
    t0 = time.monotonic()
    results = {}

    def collect(job, outcome):
        results[(job[0].value, job[1])], line = outcome
        conftest.matrix_lines.append(line)

    if workers == 1:
        for job in jobs:
            collect(job, _matrix_run(*job, dataset, classifiers))
    else:
        # workers inherit BLAS at one thread: extra threads buy these small
        # matrices nothing and take a CPU from another run
        blas = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        spawn = multiprocessing.get_context("spawn")
        with mock.patch.dict(os.environ, blas), ProcessPoolExecutor(workers, mp_context=spawn) as pool:
            futures = [pool.submit(_matrix_run, *job, dataset, classifiers) for job in jobs]
            for job, future in zip(jobs, futures):
                try:
                    outcome = future.result()
                except Exception as exc:
                    pool.shutdown(wait=False, cancel_futures=True)
                    pytest.fail(f"criterion-8 run {job[0].value} seed {job[1]} failed: {exc!r}")
                collect(job, outcome)
    results["elapsed"] = time.monotonic() - t0
    return results


def test_criterion_08_trend_matrix(trend_matrix):
    fid = {m: [trend_matrix[(m, s)][0] for s in range(5)] for m in ("treegan", "npc", "seg", "flat")}
    cons = {m: [trend_matrix[(m, s)][1] for s in range(5)] for m in ("treegan", "npc", "seg", "flat")}
    mean = lambda xs: float(np.mean(xs))

    cons_gap = mean(cons["treegan"]) - mean(cons["flat"])
    cons_viol = sum(ct < cf + 0.05 for ct, cf in zip(cons["treegan"], cons["flat"]))
    a_ok = cons_gap >= 0.05 and cons_viol <= 1

    tn_ok = mean(fid["treegan"]) <= mean(fid["npc"])
    nf_ok = mean(fid["npc"]) <= mean(fid["flat"])
    tn_viol = sum(t > n for t, n in zip(fid["treegan"], fid["npc"]))
    nf_viol = sum(n > f for n, f in zip(fid["npc"], fid["flat"]))
    b_ok = tn_ok and nf_ok and tn_viol <= 1 and nf_viol <= 1

    elapsed = trend_matrix["elapsed"]
    report(
        8,
        a_ok and b_ok and elapsed < 1800,
        f"mean consistency treegan {mean(cons['treegan']):.3f} vs flat {mean(cons['flat']):.3f} "
        f"(gap {cons_gap:.3f}, {cons_viol} seed violations); mean desk-FID treegan "
        f"{mean(fid['treegan']):.1f} <= npc {mean(fid['npc']):.1f} <= flat {mean(fid['flat']):.1f} "
        f"(seg {mean(fid['seg']):.1f}; violations {tn_viol}/{nf_viol}); {elapsed:.0f}s for 20 runs",
    )


# --------------------------------------------------------------- criterion 9


def test_criterion_09_command_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "dataset": {"samples_per_leaf": 40, "seed": 1},
                "che": {"epochs": 60, "seed": 1},
                "classifier": {"epochs": 10, "seed": 1},
                "gan": {"steps_per_stage": 10, "eval_every": 10, "eval_n_per_class": 8, "seed": 1},
                "eval": {"n_per_class": 8, "seed": 1},
            }
        )
    )
    d = tmp_path / "out"
    d.mkdir()
    c = str(cfg)

    def pipeline():
        assert cli_main(["gen-data", "--config", c, "--out", str(d / "data.hgds")]) == 0
        assert cli_main(["train-che", "--config", c, "--out", str(d / "che.hgck")]) == 0
        for res in (8, 16):
            assert (
                cli_main(
                    [
                        "train-clf", "--config", c, "--data", str(d / "data.hgds"),
                        "--resolution", str(res), "--out", str(d / f"clf{res}.hgck"),
                    ]
                )
                == 0
            )
        assert (
            cli_main(
                [
                    "train-gan", "--config", c, "--mode", "treegan", "--data", str(d / "data.hgds"),
                    "--clf8", str(d / "clf8.hgck"), "--clf16", str(d / "clf16.hgck"),
                    "--out", str(d / "run"),
                ]
            )
            == 0
        )
        assert (
            cli_main(
                [
                    "eval", "--config", c, "--run", str(d / "run"), "--data", str(d / "data.hgds"),
                    "--out", str(d / "metrics.csv"),
                ]
            )
            == 0
        )
        return {p.relative_to(d): p.read_bytes() for p in sorted(d.rglob("*")) if p.is_file()}

    # rerun over the same paths so input checksums and manifests must agree too
    first, second = pipeline(), pipeline()
    same = set(first) == set(second) and all(first[k] == second[k] for k in first)
    report(
        9,
        same,
        f"full pipeline rerun: {len(first)} artifacts byte-identical "
        "(dataset, checkpoints, run directory, metrics, manifests)",
    )


# -------------------------------------------------------------- criterion 10


def test_criterion_10_metric_sanity(dataset, classifiers):
    _, clf_hi = classifiers
    cfg = TrainConfig(mode="flat", steps_per_stage=500, eval_every=500, eval_n_per_class=500, seed=0)
    art = run_training(dataset, TREE, cfg, classifiers[0], clf_hi)
    first_step, first = art.reports[0]
    gen_fid = first.avg_desk_fid

    real_fids = []
    for y in TREE.leaves:
        rows = dataset.test.hi[dataset.test.leaf == y]
        half = len(rows) // 2
        a = fit_gaussian(classify(clf_hi, rows[:half]).features)
        b = fit_gaussian(classify(clf_hi, rows[half:]).features)
        real_fids.append(frechet_distance(a, b))
    real_fid = float(np.mean(real_fids))
    ratio = real_fid / gen_fid
    report(
        10,
        ratio < 0.05,
        f"real-vs-real desk-FID {real_fid:.3f} is {100 * ratio:.2f}% of "
        f"real-vs-FLAT {gen_fid:.1f} at first checkpoint (step {first_step})",
    )
