"""Desk-scale image quality and hierarchy-consistency metrics.

The frozen hierarchical classifier stands in for the usual pretrained
feature network. One pass of it over a batch (``models.classify``) yields
everything the metrics read: its penultimate trunk activations feed a
Frechet distance between gaussian fits of real and generated features
(desk-FID), its leaf-head probabilities feed an inception-style score
(desk-IS), and its predicted paths feed the consistency rate, the fraction of
generated images whose path matches the conditioning leaf's ancestor path at
every level.

All computations here are pure functions of their inputs. ``evaluate``
classifies the whole test split once and takes each leaf's real features from
its rows. A leaf's generated images are classified on their own; when BLAS is
pinned to fewer threads than there are usable CPUs, a thread pool made for
the call, and shut down before it returns, maps the leaves, while the caller
computes each leaf's statistics in id order as its readout arrives. Each
leaf's numbers come from its own rng and its own tapes, so the report is the
same byte for byte whatever the pool size.
"""

from __future__ import annotations

import json
import os
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .config import SEED, Rule, check, setting
from .embed import ClassEmbeddingTable
from .hierarchy import ClassHierarchy
from .models import ModelSet, classify, generate_set
from .synthdata import Dataset


class MetricsError(ValueError):
    """Invalid metric input: degenerate stats, bad distributions, mismatch."""


TWO_SAMPLES = Rule(int, 2)  # a class's Frechet statistics need two samples


@dataclass
class EvalConfig:
    n_per_class: int = setting(500, TWO_SAMPLES)
    seed: int = setting(0, SEED)

    def __post_init__(self):
        check(self, MetricsError)


@dataclass
class GaussianStats:
    mu: np.ndarray  # (F,)
    sigma: np.ndarray  # (F, F), symmetric

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=np.float64)
        self.sigma = np.asarray(self.sigma, dtype=np.float64)
        if self.mu.ndim != 1 or self.sigma.shape != (self.mu.size, self.mu.size):
            raise MetricsError(f"stats shapes disagree: mu {self.mu.shape}, sigma {self.sigma.shape}")
        if np.max(np.abs(self.sigma - self.sigma.T)) > 1e-12:
            raise MetricsError("covariance is not symmetric")
        if np.any(np.diag(self.sigma) < -1e-12):
            raise MetricsError("covariance has negative diagonal entries")


def fit_gaussian(features) -> GaussianStats:
    """Sample mean and unbiased covariance, symmetrized."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise MetricsError("fit_gaussian needs at least 2 feature rows")
    mu = x.mean(axis=0)
    centered = x - mu
    sigma = centered.T @ centered / (x.shape[0] - 1)
    return GaussianStats(mu=mu, sigma=(sigma + sigma.T) / 2.0)


def _psd_sqrt(sigma: np.ndarray, what: str) -> np.ndarray:
    vals, vecs = np.linalg.eigh(sigma)
    if np.min(vals) < -1e-8:
        raise MetricsError(f"{what} has eigenvalue {np.min(vals):.3e} below the -1e-8 tolerance")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def frechet_distance(a: GaussianStats, b: GaussianStats) -> float:
    """||mu_a - mu_b||^2 + Tr(Sa) + Tr(Sb) - 2 Tr((Sa^1/2 Sb Sa^1/2)^1/2),
    evaluated with eigendecomposition square roots; clamped to >= 0."""
    if a.mu.shape != b.mu.shape:
        raise MetricsError(f"stats dimensions differ: {a.mu.shape} vs {b.mu.shape}")
    root_a = _psd_sqrt(a.sigma, "first covariance")
    inner = root_a @ b.sigma @ root_a
    inner = (inner + inner.T) / 2.0
    vals = np.linalg.eigvalsh(inner)
    if np.min(vals) < -1e-8:
        raise MetricsError(f"cross term has eigenvalue {np.min(vals):.3e} below the -1e-8 tolerance")
    trace_sqrt = np.sum(np.sqrt(np.clip(vals, 0.0, None)))
    diff = a.mu - b.mu
    value = float(diff @ diff + np.trace(a.sigma) + np.trace(b.sigma) - 2.0 * trace_sqrt)
    return max(value, 0.0)


def inception_score(pred_probs) -> float:
    """exp(mean_x KL(p(y|x) || p(y))) with the marginal as the row mean."""
    p = np.asarray(pred_probs, dtype=np.float64)
    if p.ndim != 2 or p.shape[0] < 1:
        raise MetricsError("inception_score needs an (n, M) probability matrix")
    if np.any(p < 0.0) or np.max(np.abs(p.sum(axis=1) - 1.0)) > 1e-9:
        raise MetricsError("rows must be probability distributions summing to 1 within 1e-9")
    marginal = p.mean(axis=0)
    # wherever p > 0 the marginal is >= p/n > 0, so the log is finite; the
    # zero entries contribute 0 (their 0 * -inf is discarded)
    with np.errstate(divide="ignore", invalid="ignore"):
        kl = np.where(p > 0.0, p * (np.log(p) - np.log(marginal)), 0.0).sum(axis=1)
    return float(np.exp(kl.mean()))


def consistency_rate(paths, leaf: int, h: ClassHierarchy) -> float:
    """Fraction of predicted paths, (n, K), equal to the leaf's full ancestor
    path (every level must match). An empty batch counts as 1.0."""
    paths = np.asarray(paths)
    if paths.shape[0] == 0:
        return 1.0
    want = np.asarray(h.ancestor_path(leaf))
    return float(np.all(paths == want, axis=1).mean())


# ------------------------------------------------------------------ report


@dataclass
class LeafMetrics:
    desk_fid: float
    desk_is: float
    consistency_rate: float
    n_real: int
    n_generated: int


@dataclass
class MetricsReport:
    per_leaf: dict[str, LeafMetrics]  # keyed by leaf class name, id order
    feature_source: str

    def __post_init__(self):
        if not self.per_leaf:
            raise MetricsError("report needs at least one leaf row")

    @property
    def avg_desk_fid(self) -> float:
        return float(np.mean([r.desk_fid for r in self.per_leaf.values()]))

    @property
    def avg_desk_is(self) -> float:
        return float(np.mean([r.desk_is for r in self.per_leaf.values()]))

    @property
    def avg_consistency_rate(self) -> float:
        return float(np.mean([r.consistency_rate for r in self.per_leaf.values()]))


def report_csv(report: MetricsReport) -> str:
    lines = ["class,desk_fid,desk_is,consistency_rate"]
    for name, row in report.per_leaf.items():
        lines.append(f"{name},{row.desk_fid:.6f},{row.desk_is:.6f},{row.consistency_rate:.6f}")
    lines.append(
        f"Average,{report.avg_desk_fid:.6f},{report.avg_desk_is:.6f},{report.avg_consistency_rate:.6f}"
    )
    return "\n".join(lines) + "\n"


def report_json(report: MetricsReport) -> str:
    payload = {
        "per_leaf": {
            name: {
                "desk_fid": row.desk_fid,
                "desk_is": row.desk_is,
                "consistency_rate": row.consistency_rate,
                "n_real": row.n_real,
                "n_generated": row.n_generated,
            }
            for name, row in report.per_leaf.items()
        },
        "average": {
            "desk_fid": report.avg_desk_fid,
            "desk_is": report.avg_desk_is,
            "consistency_rate": report.avg_consistency_rate,
        },
        "feature_source": report.feature_source,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has it
        return os.cpu_count() or 1


def _blas_threads(usable: int) -> int:
    """Threads one BLAS call may use: the first positive integer in
    OPENBLAS_NUM_THREADS or OMP_NUM_THREADS, else every usable CPU."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads
    return usable


def _share_count(n_leaves: int) -> int:
    """How many leaves ``evaluate`` maps at once: one per group of CPUs a
    BLAS call leaves free, so unpinned BLAS maps them one at a time."""
    usable = _usable_cpus()
    return max(1, min(n_leaves, usable // _blas_threads(usable)))


def evaluate(
    models: ModelSet,
    embeddings: ClassEmbeddingTable,
    dataset: Dataset,
    h: ClassHierarchy,
    n_per_class: int = 500,
    seed: int = 0,
) -> MetricsReport:
    """Stage-2 metrics per leaf (images from ``models.generate_set``): desk-FID
    against real test features, desk-IS over generated leaf probabilities, and
    hierarchy consistency. Models, table and dataset must all belong to ``h``.
    One classifier pass covers the test split and one more each leaf's
    generated images; ``_share_count`` decides how many leaves are mapped at
    once, on a pool that lives for this call only. A failing leaf raises what
    it would raise if the leaves were scored one by one in id order."""
    for what, other in (("models", models), ("embeddings", embeddings), ("dataset", dataset.spec)):
        if other.hierarchy != h:
            raise MetricsError(f"{what} belong to a different hierarchy than the one evaluated")
    clf = models.clf_hi
    for y in h.leaves:
        n_real = np.count_nonzero(dataset.test.leaf == y)
        if n_real < 2:
            raise MetricsError(f"leaf {h.name_of(y)!r} has {n_real} test samples; need at least 2")
    real = classify(clf, dataset.test.hi).features

    def readout(y: int):
        return classify(clf, generate_set(models, embeddings, y, n_per_class, seed=[seed, y]))

    def scored(readouts) -> dict[str, LeafMetrics]:
        per_leaf = {}
        for y, gen in zip(h.leaves, readouts):
            real_y = real[dataset.test.leaf == y]
            per_leaf[h.name_of(y)] = LeafMetrics(
                desk_fid=frechet_distance(fit_gaussian(real_y), fit_gaussian(gen.features)),
                desk_is=inception_score(gen.leaf_probs),
                consistency_rate=consistency_rate(gen.paths, y, h),
                n_real=len(real_y),
                n_generated=n_per_class,
            )
        return per_leaf

    k = _share_count(len(h.leaves))
    if k == 1:
        per_leaf = scored(map(readout, h.leaves))
    else:
        # imported here, not at the top: every CLI command imports this module
        from concurrent.futures import ThreadPoolExecutor

        # the map is closed before the pool shuts down, which cancels the
        # leaves not yet started when the caller raises
        with ThreadPoolExecutor(k, thread_name_prefix="hiergan-evaluate") as pool, closing(pool.map(readout, h.leaves)) as readouts:
            per_leaf = scored(readouts)
    side = int(np.sqrt(clf.pixels))
    return MetricsReport(per_leaf, feature_source=f"classifier-{side}x{side}")
