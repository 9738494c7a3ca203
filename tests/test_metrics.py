import dataclasses
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hiergan
import hiergan.metrics as metrics
from hiergan.embed import CheConfig, train_che
from hiergan.hierarchy import FIXTURE_TREE, parse_hierarchy
from hiergan.metrics import (
    GaussianStats,
    LeafMetrics,
    MetricsError,
    MetricsReport,
    consistency_rate,
    evaluate,
    fit_gaussian,
    frechet_distance,
    inception_score,
    report_csv,
    report_json,
)
from hiergan.models import ClassifierConfig, ModelConfig, build_models, classify, train_classifier
from hiergan.synthdata import default_dataset_spec, generate_dataset


@pytest.fixture(scope="module")
def tree():
    return parse_hierarchy(FIXTURE_TREE)


@pytest.fixture(scope="module")
def table(tree):
    return train_che(tree, CheConfig(seed=0))


@pytest.fixture(scope="module")
def corpus(tree):
    return generate_dataset(default_dataset_spec(tree, samples_per_leaf=60, seed=0))


@pytest.fixture(scope="module")
def trained(tree, corpus):
    ms = build_models(tree, ModelConfig(seed=0))
    train_classifier(ms.clf_lo, corpus, 8, ClassifierConfig(seed=0))
    train_classifier(ms.clf_hi, corpus, 16, ClassifierConfig(seed=0))
    return ms


# ---------------------------------------------------------------- features


def test_feature_extract_shape_and_determinism(trained, corpus):
    imgs = corpus.test.hi[:10]
    f1 = classify(trained.clf_hi, imgs).features
    f2 = classify(trained.clf_hi, imgs).features
    assert f1.shape == (10, 32)
    assert np.array_equal(f1, f2)


def test_feature_extract_identical_images_identical_rows(trained):
    img = np.random.default_rng(0).uniform(size=(16, 16))
    feats = classify(trained.clf_hi, np.stack([img, img, img])).features
    assert np.array_equal(feats[0], feats[1]) and np.array_equal(feats[1], feats[2])


def test_feature_extract_nondegenerate_on_real_data(trained, corpus):
    feats = classify(trained.clf_hi, corpus.test.hi).features
    assert np.trace(np.cov(feats.T)) > 0.0


def test_feature_extract_resolution_mismatch(trained):
    with pytest.raises((MetricsError, ValueError)):
        classify(trained.clf_hi, np.zeros((3, 8, 8)))


# ------------------------------------------------------------ fit_gaussian


def test_fit_gaussian_two_points():
    stats = fit_gaussian(np.array([[0.0], [2.0]]))
    assert stats.mu[0] == pytest.approx(1.0, abs=1e-15)
    assert stats.sigma[0, 0] == pytest.approx(2.0, abs=1e-15)


def test_fit_gaussian_identical_points():
    stats = fit_gaussian(np.full((5, 3), 2.5))
    assert np.all(stats.sigma == 0.0)


def test_fit_gaussian_matches_two_pass_oracle():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(40, 32))
    stats = fit_gaussian(x)
    mu = np.array([x[:, j].mean() for j in range(32)])
    cov = np.zeros((32, 32))
    for i in range(40):
        diff = x[i] - mu
        cov += np.outer(diff, diff)
    cov /= 39
    assert np.max(np.abs(stats.mu - mu)) < 1e-10
    assert np.max(np.abs(stats.sigma - cov)) < 1e-10


def test_fit_gaussian_needs_two_rows():
    with pytest.raises(MetricsError, match="at least 2"):
        fit_gaussian(np.ones((1, 4)))


def test_fit_gaussian_permutation_invariant():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(30, 8))
    a = fit_gaussian(x)
    b = fit_gaussian(x[rng.permutation(30)])
    assert np.max(np.abs(a.mu - b.mu)) < 1e-12
    assert np.max(np.abs(a.sigma - b.sigma)) < 1e-12


def test_gaussian_stats_validation():
    with pytest.raises(MetricsError, match="symmetric"):
        GaussianStats(mu=np.zeros(2), sigma=np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(MetricsError, match="shapes"):
        GaussianStats(mu=np.zeros(3), sigma=np.eye(2))


# ------------------------------------------------------- frechet_distance


def test_frechet_identical_stats_zero():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(50, 4))
    stats = fit_gaussian(x)
    assert frechet_distance(stats, stats) < 1e-8


def test_frechet_one_dim_mean_shift():
    a = GaussianStats(mu=np.array([0.0]), sigma=np.array([[1.0]]))
    b = GaussianStats(mu=np.array([1.0]), sigma=np.array([[1.0]]))
    assert frechet_distance(a, b) == pytest.approx(1.0, abs=1e-12)


def test_frechet_one_dim_variance_shift():
    a = GaussianStats(mu=np.array([0.0]), sigma=np.array([[1.0]]))
    b = GaussianStats(mu=np.array([0.0]), sigma=np.array([[4.0]]))
    assert frechet_distance(a, b) == pytest.approx(1.0, abs=1e-12)


def _random_psd(rng, n):
    m = rng.normal(size=(n, n))
    return m @ m.T + 0.1 * np.eye(n)


def test_frechet_matches_eigen_oracle_and_symmetry():
    rng = np.random.default_rng(4)
    for _ in range(25):
        a = GaussianStats(mu=rng.normal(size=3), sigma=_random_psd(rng, 3))
        b = GaussianStats(mu=rng.normal(size=3), sigma=_random_psd(rng, 3))
        got = frechet_distance(a, b)
        # oracle: sqrtm via eigendecomposition, done from scratch
        va, ua = np.linalg.eigh(a.sigma)
        sqrt_a = ua @ np.diag(np.sqrt(va)) @ ua.T
        inner = sqrt_a @ b.sigma @ sqrt_a
        vi, _ = np.linalg.eigh((inner + inner.T) / 2)
        want = float(
            (a.mu - b.mu) @ (a.mu - b.mu)
            + np.trace(a.sigma)
            + np.trace(b.sigma)
            - 2.0 * np.sum(np.sqrt(np.clip(vi, 0, None)))
        )
        assert abs(got - want) < 1e-8
        assert abs(got - frechet_distance(b, a)) < 1e-8
        assert got >= 0.0


def test_frechet_rejects_indefinite_covariance():
    bad = GaussianStats.__new__(GaussianStats)
    bad.mu = np.zeros(2)
    bad.sigma = np.array([[1.0, 0.0], [0.0, -1.0]])
    good = GaussianStats(mu=np.zeros(2), sigma=np.eye(2))
    with pytest.raises(MetricsError, match="eigenvalue"):
        frechet_distance(bad, good)


def test_frechet_dimension_mismatch():
    a = GaussianStats(mu=np.zeros(2), sigma=np.eye(2))
    b = GaussianStats(mu=np.zeros(3), sigma=np.eye(3))
    with pytest.raises(MetricsError, match="dimensions"):
        frechet_distance(a, b)


# --------------------------------------------------------- inception_score


def test_inception_score_marginal_rows():
    rows = np.tile([0.2, 0.3, 0.5], (7, 1))
    assert inception_score(rows) == pytest.approx(1.0, abs=1e-12)


def test_inception_score_one_hot_split():
    rows = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert inception_score(rows) == pytest.approx(2.0, abs=1e-12)
    rows6 = np.eye(6)
    assert inception_score(rows6) == pytest.approx(6.0, abs=1e-12)


def test_inception_score_matches_loop_oracle():
    rng = np.random.default_rng(5)
    raw = rng.uniform(0.01, 1.0, size=(20, 6))
    rows = raw / raw.sum(axis=1, keepdims=True)
    got = inception_score(rows)
    marginal = rows.mean(axis=0)
    kls = []
    for i in range(20):
        kl = 0.0
        for j in range(6):
            if rows[i, j] > 0:
                kl += rows[i, j] * (np.log(rows[i, j]) - np.log(marginal[j]))
        kls.append(kl)
    assert abs(got - np.exp(np.mean(kls))) < 1e-10


def loop_inception_score(p):
    """Row by row over the nonzero entries: the oracle for the vectorized
    ``inception_score``."""
    marginal = p.mean(axis=0)
    kl = np.zeros(p.shape[0])
    mask = p > 0.0
    for i in range(p.shape[0]):
        row, m = p[i][mask[i]], marginal[mask[i]]
        kl[i] = np.sum(row * (np.log(row) - np.log(m)))
    return float(np.exp(kl.mean()))


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 60),
    num_classes=st.integers(2, 30),
    zero_share=st.sampled_from([0.0, 0.3, 0.8]),
)
def test_inception_score_matches_row_loop(seed, n, num_classes, zero_share):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(size=(n, num_classes))
    raw[rng.uniform(size=raw.shape) < zero_share] = 0.0
    raw[:, rng.integers(num_classes)] += 0.01  # every row keeps some mass
    rows = raw / raw.sum(axis=1, keepdims=True)
    got, want = inception_score(rows), loop_inception_score(rows)
    if num_classes <= 7 or zero_share == 0.0:
        # short rows sum in sequence, so zeros add nothing; rows without
        # zeros sum the same entries in the same order
        assert got == want
    else:
        assert abs(got - want) <= 1e-12 * want


def test_inception_score_at_least_one():
    rng = np.random.default_rng(6)
    for _ in range(20):
        raw = rng.uniform(0.0, 1.0, size=(10, 4)) + 1e-12
        rows = raw / raw.sum(axis=1, keepdims=True)
        assert inception_score(rows) >= 1.0 - 1e-12


def test_inception_score_rejects_bad_rows():
    with pytest.raises(MetricsError, match="probability"):
        inception_score(np.array([[0.5, 0.6]]))
    with pytest.raises(MetricsError, match="probability"):
        inception_score(np.array([[-0.1, 1.1]]))


def test_leaf_probabilities_rows_sum_to_one(trained):
    imgs = np.random.default_rng(7).uniform(size=(5, 16, 16))
    probs = classify(trained.clf_hi, imgs).leaf_probs
    assert probs.shape == (5, 6)
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-12


# -------------------------------------------------------- consistency_rate


def test_consistency_on_real_training_data(trained, corpus, tree):
    # the trained classifier routes real samples of each class correctly
    for y in tree.leaves[:2]:
        imgs = corpus.train.hi[corpus.train.leaf == y]
        assert consistency_rate(classify(trained.clf_hi, imgs).paths, int(y), tree) >= 0.95


def test_consistency_all_levels_rule(tree):
    # classifier forced to predict the right level-1 branch but a wrong leaf
    ms = build_models(tree, ModelConfig(seed=21))
    clf = ms.clf_lo
    for w, b in clf.trunk.layers:
        w.data = np.zeros_like(w.data)
        b.data = np.zeros_like(b.data)
    for w, b in clf.heads:
        w.data = np.zeros_like(w.data)
        b.data = np.zeros_like(b.data)
    y = tree.id_of("wolf")
    clf.heads[0][1].data[:] = [5.0, 0.0]  # canine branch: correct
    clf.heads[1][1].data[:] = [0.0, 0.0, 5.0, 0.0, 0.0, 0.0]  # dog leaf: wrong
    paths = classify(clf, np.random.default_rng(8).uniform(size=(4, 8, 8))).paths
    assert consistency_rate(paths, y, tree) == 0.0


def test_consistency_batch_order_invariant(trained, corpus, tree):
    y = tree.leaves[0]
    imgs = corpus.test.hi[corpus.test.leaf == y]
    fwd = consistency_rate(classify(trained.clf_hi, imgs).paths, int(y), tree)
    rev = consistency_rate(classify(trained.clf_hi, imgs[::-1]).paths, int(y), tree)
    assert fwd == rev


def test_consistency_empty_batch(trained, tree):
    paths = classify(trained.clf_hi, np.zeros((0, 16, 16))).paths
    assert consistency_rate(paths, int(tree.leaves[0]), tree) == 1.0


# ------------------------------------------------------------------ report


def test_report_averages_and_serialization():
    per_leaf = {
        "a": LeafMetrics(desk_fid=1.0, desk_is=1.5, consistency_rate=0.5, n_real=10, n_generated=20),
        "b": LeafMetrics(desk_fid=3.0, desk_is=2.5, consistency_rate=1.0, n_real=10, n_generated=20),
    }
    report = MetricsReport(per_leaf, feature_source="classifier-16x16")
    assert report.avg_desk_fid == pytest.approx(2.0, abs=1e-12)
    assert report.avg_desk_is == pytest.approx(2.0, abs=1e-12)
    assert report.avg_consistency_rate == pytest.approx(0.75, abs=1e-12)
    csv = report_csv(report)
    lines = csv.strip().split("\n")
    assert lines[0] == "class,desk_fid,desk_is,consistency_rate"
    assert lines[-1].startswith("Average,")
    assert len(lines) == 4
    js = report_json(report)
    import json

    payload = json.loads(js)
    assert payload["average"]["desk_fid"] == pytest.approx(2.0)
    assert set(payload["per_leaf"]) == {"a", "b"}
    with pytest.raises(MetricsError, match="at least one leaf"):
        MetricsReport({}, feature_source="classifier-16x16")


# ---------------------------------------------------------------- evaluate


def test_evaluate_end_to_end(trained, corpus, tree, table):
    report = evaluate(trained, table, corpus, tree, n_per_class=20, seed=0)
    assert set(report.per_leaf) == {tree.name_of(y) for y in tree.leaves}
    for row in report.per_leaf.values():
        assert row.desk_fid >= 0.0
        assert row.desk_is >= 1.0 - 1e-12
        assert 0.0 <= row.consistency_rate <= 1.0
        assert row.n_generated == 20
    assert report.feature_source == "classifier-16x16"


def test_evaluate_deterministic(trained, corpus, tree, table):
    a = evaluate(trained, table, corpus, tree, n_per_class=10, seed=3)
    b = evaluate(trained, table, corpus, tree, n_per_class=10, seed=3)
    assert report_json(a) == report_json(b)


@pytest.mark.parametrize("which", ["models", "embeddings", "dataset"])
def test_evaluate_rejects_inputs_of_another_hierarchy(trained, corpus, tree, table, which):
    renamed = parse_hierarchy(FIXTURE_TREE.replace("canine", "bird"))
    args = {"models": trained, "embeddings": table, "dataset": corpus}
    if which == "models":
        args["models"] = dataclasses.replace(trained, hierarchy=renamed)
    elif which == "embeddings":
        args["embeddings"] = dataclasses.replace(table, hierarchy=renamed)
    else:
        args["dataset"] = dataclasses.replace(corpus, spec=dataclasses.replace(corpus.spec, hierarchy=renamed))
    with pytest.raises(MetricsError, match=f"{which} belong to a different hierarchy"):
        evaluate(args["models"], args["embeddings"], args["dataset"], tree, n_per_class=5, seed=0)


EVALUATE_ALONE = """
import sys
from hiergan.embed import CheConfig, train_che
from hiergan.hierarchy import FIXTURE_TREE, parse_hierarchy
from hiergan.metrics import evaluate
from hiergan.models import ModelConfig, build_models
from hiergan.synthdata import default_dataset_spec, generate_dataset
h = parse_hierarchy(FIXTURE_TREE)
data = generate_dataset(default_dataset_spec(h, samples_per_leaf=10))
evaluate(build_models(h, ModelConfig()), train_che(h, CheConfig(epochs=1)), data, h, n_per_class=2)
print("hiergan.training" in sys.modules)
"""


def test_metrics_does_not_import_training():
    # generate_set lives beside classify, so neither importing metrics nor
    # running evaluate needs anything from training
    src = str(Path(hiergan.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", EVALUATE_ALONE], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_evaluate_needs_test_samples(trained, tree, table, corpus):
    import copy

    starved = copy.copy(corpus)
    starved.test = corpus.test[:1]
    with pytest.raises(MetricsError, match="test samples"):
        evaluate(trained, table, starved, tree, n_per_class=5, seed=0)


# ------------------------------------------------------- leaf shares


def _shares(monkeypatch, k: int) -> None:
    """Make ``evaluate`` split its leaves into ``k`` shares, through the BLAS
    variables, on a host that seems to have ``k`` usable CPUs."""
    monkeypatch.setattr(metrics, "_usable_cpus", lambda: k)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    if k == 1:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert metrics._share_count(6) == k


def test_evaluate_report_is_byte_identical_for_any_share_count(trained, corpus, tree, table, monkeypatch):
    reports = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads switch often; more shares than CPUs here
    try:
        for k in (1, 2, 6):
            _shares(monkeypatch, k)
            reports[k] = [report_json(evaluate(trained, table, corpus, tree, n_per_class=25, seed=s)) for s in range(4)]
    finally:
        sys.setswitchinterval(interval)
    assert reports[2] == reports[1]
    assert reports[6] == reports[1]
    assert len(set(reports[1])) == 4


@pytest.mark.parametrize(
    "env, leaves, want",
    [
        ({}, 6, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 6, 4),
        ({"OPENBLAS_NUM_THREADS": "1"}, 3, 3),
        ({"OPENBLAS_NUM_THREADS": "2"}, 6, 2),
        ({"OPENBLAS_NUM_THREADS": "8"}, 6, 1),
        ({"OMP_NUM_THREADS": "1"}, 6, 4),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 6, 2),
        ({"OPENBLAS_NUM_THREADS": "many", "OMP_NUM_THREADS": "2"}, 6, 2),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 6, 4),
        ({"OPENBLAS_NUM_THREADS": "1.5"}, 6, 1),
        ({"OMP_NUM_THREADS": ""}, 6, 1),
    ],
)
def test_share_count_rule(monkeypatch, env, leaves, want):
    monkeypatch.setattr(metrics, "_usable_cpus", lambda: 4)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert metrics._share_count(leaves) == want


def test_usable_cpus_counts_the_affinity_mask():
    assert metrics._usable_cpus() == len(os.sched_getaffinity(0))


def test_one_share_starts_no_thread(trained, corpus, tree, table, monkeypatch):
    _shares(monkeypatch, 1)
    monkeypatch.setattr(metrics, "_shared_pool", None)
    before = set(threading.enumerate())
    evaluate(trained, table, corpus, tree, n_per_class=5, seed=0)
    assert metrics._shared_pool is None
    assert set(threading.enumerate()) == before


def _one_leaf_starved(corpus, leaf: int):
    """The corpus with one test sample left for ``leaf``."""
    import copy

    keep = np.flatnonzero(corpus.test.leaf != leaf).tolist() + [int(np.flatnonzero(corpus.test.leaf == leaf)[0])]
    starved = copy.copy(corpus)
    starved.test = corpus.test[np.sort(keep)]
    return starved


def test_starved_leaf_raises_the_same_message_for_any_share_count(trained, corpus, tree, table, monkeypatch):
    starved = _one_leaf_starved(corpus, tree.leaves[3])
    messages = []
    for k in (1, 2):
        _shares(monkeypatch, k)
        with pytest.raises(MetricsError, match="1 test samples") as err:
            evaluate(trained, table, starved, tree, n_per_class=5, seed=0)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_first_failing_leaf_in_id_order_aborts_training_for_any_share_count(trained, corpus, tree, monkeypatch):
    from hiergan.autodiff import NonFiniteError
    from hiergan.training import TrainConfig, run_training

    real_generate_set = metrics.generate_set
    # leaf 1 falls in share 1 and leaf 2 in share 0, whose earlier leaf 0 succeeds
    failing = {tree.leaves[1], tree.leaves[2]}

    def generate_set(models, table, c, n, seed):
        if c in failing:
            raise NonFiniteError(f"op 'linear' produced non-finite values for leaf {c}")
        return real_generate_set(models, table, c, n, seed)

    monkeypatch.setattr(metrics, "generate_set", generate_set)
    cfg = TrainConfig(mode="treegan", steps_per_stage=2, eval_every=2, eval_n_per_class=4, seed=0)
    reasons = []
    for k in (1, 2):
        _shares(monkeypatch, k)
        art = run_training(corpus, tree, cfg, trained.clf_lo, trained.clf_hi)
        assert art.aborted and art.abort_step == 5
        reasons.append(art.abort_reason)
    assert reasons == [f"op 'linear' produced non-finite values for leaf {tree.leaves[1]}"] * 2


def test_forked_child_evaluates_after_its_parent_did(trained, corpus, tree, table, monkeypatch):
    import multiprocessing

    _shares(monkeypatch, 2)
    want = report_json(evaluate(trained, table, corpus, tree, n_per_class=10, seed=5))
    assert metrics._shared_pool[0] == os.getpid()

    def child():
        same = report_json(evaluate(trained, table, corpus, tree, n_per_class=10, seed=5)) == want
        os._exit(0 if same else 3)

    proc = multiprocessing.get_context("fork").Process(target=child)
    proc.start()
    proc.join(timeout=60)
    if proc.is_alive():
        proc.kill()
        proc.join()
        pytest.fail("the forked child hung in evaluate")
    assert proc.exitcode == 0
