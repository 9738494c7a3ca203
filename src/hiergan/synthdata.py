"""Deterministic synthetic image corpus with a genuinely informative hierarchy.

Images are smooth anisotropic Gaussian blobs rendered from a six-field
parameter vector (center x/y, radius, elongation, orientation, intensity).
Prototypes inherit down the tree: the root prototype is drawn from the seed,
each child perturbs its parent by level_noise[level], and each sample
perturbs its leaf prototype by observation_noise. Siblings therefore share a
recent ancestor prototype and look alike by construction.

Parameter fields have heterogeneous natural ranges, so every perturbation is
a diagonal gaussian scaled per field by ``FIELD_SCALES`` and globally by the
level/observation noise scalar. Out-of-range values are clamped to
``PARAM_LOW``/``PARAM_HIGH`` (orientation is periodic and never clamped), so
generation cannot fail. Pixels land in [0, 1] because the blob value is
intensity * exp(-q/2) with intensity clamped to [0.25, 1].

Resolutions are 16x16 (hi) and 8x8 (lo, exact 2x2 average pooling), the desk
stand-ins for a 256x256/64x64 pair.

A split is one ``Images`` value: parallel arrays ``hi`` (n, 16, 16), ``lo``
(n, 8, 8) and ``leaf`` (n,) int64, where row i is one sample. Rows run
leaf-major, then in sample order. Indexing an ``Images`` with rows gives an
``Images``; ``batch_iter`` yields such slices, so a batch and a split are the
same type. On disk a dataset is one ``files`` checkpoint: the spec as its
metadata and the arrays ``train.leaf``, ``train.hi``, ``test.leaf`` and
``test.hi``, whose row counts the spec fixes; ``lo`` is recomputed on load.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .config import SEED, Rule, check, setting
from .files import load_artifact, save_checkpoint
from .hierarchy import ClassHierarchy

HI_SIZE = 16
LO_SIZE = 8

PARAM_FIELDS = ("cx", "cy", "radius", "elong", "orient", "intensity")
FIELD_SCALES = np.array([0.10, 0.10, 0.06, 0.30, 0.60, 0.15])
PARAM_BASE = np.array([0.5, 0.5, 0.22, 1.0, 0.0, 0.65])
PARAM_LOW = np.array([0.20, 0.20, 0.07, 0.45, -np.inf, 0.25])
PARAM_HIGH = np.array([0.80, 0.80, 0.40, 2.20, np.inf, 1.00])


class DatasetError(ValueError):
    """Malformed dataset files or invalid dataset requests."""


@dataclass
class DatasetSpec:
    hierarchy: ClassHierarchy
    # a fifth of each leaf's samples, rounded down, is its test split
    samples_per_leaf: int = setting(200, Rule(int, 5))
    # zero noise is allowed (degenerate diagnostics); negatives are not
    level_noise: tuple[float, ...] = setting((), Rule(tuple, 0))
    observation_noise: float = setting(0.12, Rule(float, 0))
    seed: int = setting(0, SEED)

    def __post_init__(self):
        check(self, DatasetError)
        self.level_noise = tuple(float(x) for x in self.level_noise)
        if len(self.level_noise) != self.hierarchy.K + 1:
            raise DatasetError(
                f"level_noise needs K+1 = {self.hierarchy.K + 1} entries, got {len(self.level_noise)}"
            )


def default_dataset_spec(h: ClassHierarchy, **given) -> DatasetSpec:
    """The spec of ``h`` with the desk-default noise schedule (large drift at
    the top, halving per level: leaves separable, siblings similar) and the
    ``given`` fields, such as ``samples_per_leaf`` and ``seed``."""
    noise = [1.3] + [0.9 * (0.5**k) for k in range(h.K)]
    return DatasetSpec(hierarchy=h, level_noise=tuple(noise), **given)


@dataclass(frozen=True)
class Images:
    """Labelled images as parallel arrays; row i is one sample."""

    hi: np.ndarray  # (n, 16, 16) in [0, 1]
    lo: np.ndarray  # (n, 8, 8), exact 2x2 mean pool of hi
    leaf: np.ndarray  # (n,) int64

    def __len__(self) -> int:
        return len(self.leaf)

    def __getitem__(self, idx) -> Images:
        return Images(hi=self.hi[idx], lo=self.lo[idx], leaf=self.leaf[idx])


@dataclass
class Dataset:
    spec: DatasetSpec
    train: Images
    test: Images


def clamp_params(params: np.ndarray) -> np.ndarray:
    return np.clip(params, PARAM_LOW, PARAM_HIGH)


def render_params(params: np.ndarray) -> np.ndarray:
    """Render one clamped parameter vector to a 16x16 image in [0, 1]."""
    cx, cy, radius, elong, orient, intensity = clamp_params(np.asarray(params, dtype=np.float64))
    centers = (np.arange(HI_SIZE) + 0.5) / HI_SIZE
    u, v = np.meshgrid(centers, centers)  # u: column position, v: row position
    dx, dy = u - cx, v - cy
    cos_t, sin_t = np.cos(orient), np.sin(orient)
    du = cos_t * dx + sin_t * dy
    dv = -sin_t * dx + cos_t * dy
    # area-preserving elongation: one axis stretched, the other compressed
    sx = radius * np.sqrt(elong)
    sy = radius / np.sqrt(elong)
    return intensity * np.exp(-0.5 * ((du / sx) ** 2 + (dv / sy) ** 2))


def node_prototypes(spec: DatasetSpec) -> dict[int, np.ndarray]:
    """Prototype parameter vector per node, inherited root-to-leaf.

    Nodes perturb in id order, so the stream of gaussian draws (and hence
    every prototype) is a pure function of the spec.
    """
    return _draw_prototypes(spec, np.random.default_rng(spec.seed))


def _draw_prototypes(spec: DatasetSpec, rng) -> dict[int, np.ndarray]:
    protos: dict[int, np.ndarray] = {}
    for node in spec.hierarchy.nodes:
        drift = spec.level_noise[node.level] * FIELD_SCALES * rng.standard_normal(len(PARAM_FIELDS))
        parent = PARAM_BASE if node.parent is None else protos[node.parent]
        protos[node.id] = clamp_params(parent + drift)
    return protos


def leaf_prototypes(spec: DatasetSpec) -> dict[int, np.ndarray]:
    protos = node_prototypes(spec)
    return {y: protos[y] for y in spec.hierarchy.leaves}


def prototype_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Scale-normalized euclidean distance between parameter vectors."""
    return float(np.linalg.norm((a - b) / FIELD_SCALES))


def downsample(hi: np.ndarray) -> np.ndarray:
    """Exact 2x2 average pooling from (..., 16, 16) to (..., 8, 8)."""
    hi = np.asarray(hi, dtype=np.float64)
    if hi.shape[-2:] != (HI_SIZE, HI_SIZE):
        raise DatasetError(f"downsample expects {HI_SIZE}x{HI_SIZE}, got {hi.shape}")
    return hi.reshape(*hi.shape[:-2], LO_SIZE, 2, LO_SIZE, 2).mean(axis=(-3, -1))


def generate_dataset(spec: DatasetSpec) -> Dataset:
    """Render the full corpus and split it 80/20 per leaf, deterministically.

    The per-leaf sample stream continues the prototype rng, leaf by leaf in
    id order; the last fifth of each leaf's samples is the test split.
    """
    if spec.hierarchy.K < 1:
        raise DatasetError("dataset generation needs a hierarchy with K >= 1")
    rng = np.random.default_rng(spec.seed)
    protos = _draw_prototypes(spec, rng)
    n = spec.samples_per_leaf
    leaves = spec.hierarchy.leaves
    leaf = np.repeat(np.asarray(leaves, dtype=np.int64), n)
    hi = np.empty((len(leaf), HI_SIZE, HI_SIZE))
    for row, y in enumerate(leaf):
        noise = spec.observation_noise * FIELD_SCALES * rng.standard_normal(len(PARAM_FIELDS))
        hi[row] = render_params(protos[y] + noise)
    images = Images(hi=hi, lo=downsample(hi), leaf=leaf)
    is_test = np.arange(len(leaf)) % n >= n - n // 5
    return Dataset(spec=spec, train=images[~is_test], test=images[is_test])


# -------------------------------------------------------------- persistence

_SPLITS = ("train", "test")


def save_dataset(d: Dataset, path) -> None:
    meta = vars(d.spec) | {"hierarchy": d.spec.hierarchy.serialize()}
    named = {f"{split}.{field}": getattr(getattr(d, split), field) for split in _SPLITS for field in ("leaf", "hi")}
    save_checkpoint(path, named, meta)


def _layout(meta: dict, h: ClassHierarchy):
    """The spec a dataset file stores and the shapes of its arrays."""
    spec = DatasetSpec(**{f.name: meta[f.name] for f in fields(DatasetSpec)} | {"hierarchy": h})
    n = spec.samples_per_leaf
    rows = {"train": len(h.leaves) * (n - n // 5), "test": len(h.leaves) * (n // 5)}
    return spec, {f"{s}.leaf": (m,) for s, m in rows.items()} | {f"{s}.hi": (m, HI_SIZE, HI_SIZE) for s, m in rows.items()}


def load_dataset(path) -> Dataset:
    spec, h, arrays = load_artifact(path, "dataset", _layout)
    splits = []
    for split in _SPLITS:
        leaf, hi = arrays[f"{split}.leaf"], arrays[f"{split}.hi"]
        not_leaf = leaf[~np.isin(leaf, h.leaves)]
        if len(not_leaf):
            raise DatasetError(f"dataset {path} labels a sample {not_leaf[0]:g}, which is not a leaf class")
        splits.append(Images(hi=hi, lo=downsample(hi), leaf=leaf.astype(np.int64)))
    return Dataset(spec=spec, train=splits[0], test=splits[1])


# ------------------------------------------------------------------ batches


def batch_iter(images: Images, batch_size: int, seed: int, num_epochs: int = 1):
    """Yield shuffled row slices of images; reshuffles each epoch, keeps the
    short tail."""
    if not len(images):
        raise DatasetError("cannot batch an empty split")
    if batch_size < 1:
        raise DatasetError("batch_size must be >= 1")
    rng = np.random.default_rng(seed)
    for _ in range(num_epochs):
        order = rng.permutation(len(images))
        for start in range(0, len(images), batch_size):
            yield images[order[start : start + batch_size]]
