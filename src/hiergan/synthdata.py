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
same type. On disk a sample is one packed record (``leaf`` as little-endian
uint32, then ``hi`` as 256 little-endian float64); ``lo`` is recomputed on load.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .files import write_atomic
from .hierarchy import ClassHierarchy, parse_hierarchy

HI_SIZE = 16
LO_SIZE = 8

PARAM_FIELDS = ("cx", "cy", "radius", "elong", "orient", "intensity")
FIELD_SCALES = np.array([0.10, 0.10, 0.06, 0.30, 0.60, 0.15])
PARAM_BASE = np.array([0.5, 0.5, 0.22, 1.0, 0.0, 0.65])
PARAM_LOW = np.array([0.20, 0.20, 0.07, 0.45, -np.inf, 0.25])
PARAM_HIGH = np.array([0.80, 0.80, 0.40, 2.20, np.inf, 1.00])


class DatasetError(IOError):
    """Malformed dataset files or invalid dataset requests."""


@dataclass
class DatasetSpec:
    hierarchy: ClassHierarchy
    samples_per_leaf: int = 200
    level_noise: tuple[float, ...] = ()
    observation_noise: float = 0.12
    seed: int = 0

    def __post_init__(self):
        self.level_noise = tuple(float(x) for x in self.level_noise)
        # a fifth of each leaf's samples, rounded down, is its test split
        if self.samples_per_leaf < 5:
            raise DatasetError("samples_per_leaf must be at least 5")
        if len(self.level_noise) != self.hierarchy.K + 1:
            raise DatasetError(
                f"level_noise needs K+1 = {self.hierarchy.K + 1} entries, got {len(self.level_noise)}"
            )
        # zero is allowed (degenerate diagnostics); negatives are not
        if any(x < 0 for x in self.level_noise) or self.observation_noise < 0:
            raise DatasetError("noise scales must be non-negative")
        if self.seed < 0:
            raise DatasetError("seed must be non-negative")


def default_dataset_spec(
    h: ClassHierarchy, samples_per_leaf: int = 200, seed: int = 0
) -> DatasetSpec:
    """Desk-default noise schedule: large drift at the top, halving per level,
    small observation noise; keeps leaves separable and siblings similar."""
    noise = [1.3] + [0.9 * (0.5**k) for k in range(h.K)]
    return DatasetSpec(
        hierarchy=h,
        samples_per_leaf=samples_per_leaf,
        level_noise=tuple(noise),
        observation_noise=0.12,
        seed=seed,
    )


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
    rng = np.random.default_rng(spec.seed)
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
    for node in spec.hierarchy.nodes:  # replay the prototype draws
        rng.standard_normal(len(PARAM_FIELDS))
    protos = node_prototypes(spec)
    n = spec.samples_per_leaf
    leaves = spec.hierarchy.leaves
    leaf = np.repeat(np.asarray(leaves, dtype=np.int64), n)
    hi = np.empty((len(leaf), HI_SIZE, HI_SIZE))
    for row, y in enumerate(leaf):
        noise = spec.observation_noise * FIELD_SCALES * rng.standard_normal(len(PARAM_FIELDS))
        hi[row] = render_params(protos[y] + noise)
    images = Images(hi=hi, lo=downsample(hi), leaf=leaf)
    is_test = np.tile(np.arange(n) >= n - n // 5, len(leaves))
    return Dataset(spec=spec, train=images[~is_test], test=images[is_test])


# -------------------------------------------------------------- persistence

_MAGIC = b"HGDS"
_VERSION = 1
_RECORD = np.dtype([("leaf", "<u4"), ("hi", "<f8", (HI_SIZE, HI_SIZE))])


def _spec_json(spec: DatasetSpec) -> bytes:
    payload = {
        "hierarchy": spec.hierarchy.serialize(),
        "samples_per_leaf": spec.samples_per_leaf,
        "level_noise": list(spec.level_noise),
        "observation_noise": spec.observation_noise,
        "seed": spec.seed,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_dataset(d: Dataset, path) -> None:
    chunks = [_MAGIC, struct.pack("<I", _VERSION)]
    blob = _spec_json(d.spec)
    chunks.append(struct.pack("<I", len(blob)))
    chunks.append(blob)
    chunks.append(struct.pack("<II", len(d.train), len(d.test)))
    records = np.empty(len(d.train) + len(d.test), dtype=_RECORD)
    records["leaf"] = np.concatenate([d.train.leaf, d.test.leaf])
    records["hi"] = np.concatenate([d.train.hi, d.test.hi])
    chunks.append(records.tobytes())
    body = b"".join(chunks)
    write_atomic(path, body + struct.pack("<I", zlib.crc32(body)))


def load_dataset(path) -> Dataset:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4:
        raise DatasetError(f"truncated dataset file {path}")
    body, (crc,) = blob[:-4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(body) != crc:
        raise DatasetError(f"dataset checksum mismatch in {path}")
    view = memoryview(body)
    pos = 0

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(view):
            raise DatasetError(f"truncated dataset file {path}")
        out = view[pos : pos + n]
        pos += n
        return out

    if bytes(take(4)) != _MAGIC:
        raise DatasetError(f"{path} is not a dataset file (bad magic)")
    (version,) = struct.unpack("<I", take(4))
    if version != _VERSION:
        raise DatasetError(f"unsupported dataset version {version} (expected {_VERSION})")
    (spec_len,) = struct.unpack("<I", take(4))
    spec_blob = bytes(take(spec_len))
    try:
        payload = json.loads(spec_blob.decode("utf-8"))
        spec = DatasetSpec(
            hierarchy=parse_hierarchy(payload["hierarchy"]),
            samples_per_leaf=payload["samples_per_leaf"],
            level_noise=tuple(payload["level_noise"]),
            observation_noise=payload["observation_noise"],
            seed=payload["seed"],
        )
    except (ValueError, KeyError, TypeError, AttributeError) as err:
        raise DatasetError(f"dataset {path} has a malformed spec: {err!r}") from err
    n_train, n_test = struct.unpack("<II", take(8))
    records = np.frombuffer(take((n_train + n_test) * _RECORD.itemsize), dtype=_RECORD)
    if pos != len(view):
        raise DatasetError(f"{path} has {len(view) - pos} trailing bytes")
    leaf = records["leaf"].astype(np.int64)
    not_leaf = leaf[~np.isin(leaf, spec.hierarchy.leaves)]
    if len(not_leaf):
        raise DatasetError(f"dataset {path} labels a sample {not_leaf[0]}, which is not a leaf class")
    hi = records["hi"].astype(np.float64)
    images = Images(hi=hi, lo=downsample(hi), leaf=leaf)
    return Dataset(spec=spec, train=images[:n_train], test=images[n_train:])


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
