"""Generator stages, discriminators, and hierarchical classifiers.

All networks are small dense MLPs over flattened pixels, sized for the
16x16/8x8 desk resolutions. The generator runs in two conditional stages
(class embedding + noise -> 8x8, then class embedding + 8x8 -> 16x16), each
with its own discriminator that judges an image joined to its class
embedding. Each of these four is a plain ``Mlp`` whose first layer reads
the class's one conditioning row as a bias (``Mlp.forward``, with
``Tape.linear``'s ``cond``), and ``discriminator_loss`` is the D step's
objective, over real and fake rows given as arrays. The hierarchical
classifier shares one trunk and puts a linear head on every level of the
class tree; its loss is the sum of per-level softmax cross-entropies against
the leaf's ancestor path. One forward serves both the loss and
``classify``, the readout the metrics use. Only ``train_classifier`` tracks
the classifier's parameters; every other tape it runs on leaves them
constant, while gradients still flow through it to a tracked *image*, which
is the path the generated-image consistency penalty trains the generator
through.

A ``ModelSet`` holds networks only; ``generate_set`` conditions them on a
given embedding table and is the generator's readout, as ``classify`` is the
classifier's.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .autodiff import Adam, Tape, Tensor, _softmax
from .config import SEED, Rule, check, setting
from .embed import ClassEmbeddingTable, EmbeddingError, condition
from .files import load_artifact, save_checkpoint
from .hierarchy import ClassHierarchy
from .synthdata import Dataset, Images, batch_iter

LO_PIXELS = 64
HI_PIXELS = 256


class ModelError(ValueError):
    """Shape or resolution mismatch in a model forward pass."""


def _shapes(nets: dict[str, list[int]]) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter of ``nets`` (network prefix -> dense
    layer sizes), in parameter order."""
    return {
        f"{prefix}.{kind}{i}": shape
        for prefix, sizes in nets.items()
        for i, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:]))
        for kind, shape in (("w", (fan_in, fan_out)), ("b", (fan_out,)))
    }


def _draw(nets: dict[str, list[int]], rng) -> dict[str, np.ndarray]:
    """The parameters of ``nets`` in parameter order: weights uniform in
    +-1/sqrt(fan_in) drawn from rng, zero biases."""
    out = {}
    for name, shape in _shapes(nets).items():
        bound = 1.0 / np.sqrt(shape[0])
        out[name] = rng.uniform(-bound, bound, size=shape) if len(shape) == 2 else np.zeros(shape)
    return out


def _layers(arrays: dict[str, np.ndarray], prefix: str, sizes: list[int]) -> list[tuple[Tensor, Tensor]]:
    """The dense layers of network ``prefix`` as named tensors over arrays."""
    names = [(f"{prefix}.w{i}", f"{prefix}.b{i}") for i in range(len(sizes) - 1)]
    return [(Tensor(arrays[w], name=w), Tensor(arrays[b], name=b)) for w, b in names]


@dataclass
class Mlp:
    layers: list[tuple[Tensor, Tensor]]
    hidden: str  # "leaky_relu" | "relu"
    out: str  # "sigmoid" | "linear"
    cond_first: bool = False  # a condition row takes the first input columns, else the last

    @property
    def in_dim(self) -> int:
        return self.layers[0][0].shape[0]

    def forward(self, tape: Tape, x: Tensor, *, cond: Tensor | None = None) -> Tensor:
        """Run the layers on x (n, k). A condition row ``cond`` (1, j) is
        part of every input row, in its first j columns when ``cond_first``
        and its last j otherwise; the first layer takes it as a bias
        (``Tape.linear``), so it is never repeated n times."""
        j = 0 if cond is None else cond.data.shape[-1]
        if x.data.ndim != 2 or x.shape[1] + j != self.in_dim:
            got = f"{x.shape}" + ("" if cond is None else f" and condition {cond.shape}")
            raise ModelError(f"expected inputs (n, k) whose widths add up to {self.in_dim}, got {got}")
        if cond is not None and cond.shape != (1, j):
            raise ModelError(f"a condition is one row (1, j), got shape {cond.shape}")
        h = x
        for i, (w, b) in enumerate(self.layers):
            h = tape.linear(h, w, b, cond, self.cond_first) if i == 0 else tape.linear(h, w, b)
            if i < len(self.layers) - 1:
                h = tape.leaky_relu(h) if self.hidden == "leaky_relu" else tape.relu(h)
        if self.out == "sigmoid":
            h = tape.sigmoid(h)
        return h

    def params(self) -> list[Tensor]:
        return [t for pair in self.layers for t in pair]


@dataclass
class ModelConfig:
    embed_dim: int = 16
    gen_hidden: int = 128
    disc_hidden: int = 128
    clf_hidden: int = 64
    feature_width: int = 32
    seed: int = 0

    @property
    def cond_dim(self) -> int:
        # conditioning vector is the leaf embedding flattened as (re || im)
        return 2 * self.embed_dim

    @property
    def noise_dim(self) -> int:
        return 2 * self.embed_dim


def discriminator_loss(tape: Tape, d: Mlp, real: np.ndarray, fake: np.ndarray, e_c: Tensor) -> Tensor:
    """Non-saturating GAN loss of the discriminator d,
    BCE(D(real), 1) + BCE(D(fake), 0) over n rows each, from one forward over
    the real rows stacked on the fake rows, all with the one condition row
    e_c: twice the mean BCE over the 2n targets, ones then zeros. The rows
    are arrays: the D step reads the generator's images as constants."""
    if real.shape != fake.shape:
        raise ModelError(f"real and fake batches differ in shape: {real.shape} vs {fake.shape}")
    logits = d.forward(tape, Tensor(np.concatenate([real, fake])), cond=e_c)
    targets = np.repeat([[1.0], [0.0]], real.shape[0], axis=0)
    return tape.scale(tape.binary_cross_entropy_with_logits(logits, targets), 2.0)


def _classifier_nets(h: ClassHierarchy, pixels: int, cfg: ModelConfig) -> dict[str, list[int]]:
    """Layer sizes of a classifier's trunk, then of each level's head."""
    prefix = "clf_lo" if pixels == LO_PIXELS else "clf_hi"
    width = cfg.feature_width
    return {prefix: [pixels, cfg.clf_hidden, cfg.clf_hidden, width]} | {
        f"{prefix}.head{k}": [width, h.num_classes(k)] for k in range(1, h.K + 1)
    }


@dataclass
class HierClassifier:
    hierarchy: ClassHierarchy
    pixels: int
    trunk: Mlp
    heads: list[tuple[Tensor, Tensor]]
    # (N, K): row y holds the position of a_k(y) within level_classes(k)
    # for a leaf y, and -1 for every other node id
    targets: np.ndarray

    @classmethod
    def init(cls, h: ClassHierarchy, pixels: int, cfg: ModelConfig, rng) -> "HierClassifier":
        return cls._around(h, pixels, cfg, _draw(_classifier_nets(h, pixels, cfg), rng))

    @classmethod
    def _around(cls, h: ClassHierarchy, pixels: int, cfg: ModelConfig, arrays) -> "HierClassifier":
        """The classifier over the arrays ``_classifier_nets`` names."""
        if h.K < 1:
            raise ModelError("classifier needs a hierarchy with at least one level")
        (prefix, sizes), *heads = _classifier_nets(h, pixels, cfg).items()
        position = {c: i for k in range(1, h.K + 1) for i, c in enumerate(h.level_classes(k))}
        targets = np.full((len(h), h.K), -1, dtype=np.int64)
        for y in h.leaves:
            targets[y] = [position[a] for a in h.ancestor_path(y)]
        trunk = Mlp(_layers(arrays, prefix, sizes), "relu", "linear")
        heads = [_layers(arrays, *head)[0] for head in heads]
        return cls(hierarchy=h, pixels=pixels, trunk=trunk, heads=heads, targets=targets)

    def features(self, tape: Tape, x: Tensor) -> Tensor:
        """The shared trunk: penultimate activations, (n, F)."""
        if x.shape[1] != self.pixels:
            raise ModelError(f"classifier expects {self.pixels} pixels, got {x.shape}")
        return tape.relu(self.trunk.forward(tape, x))

    def forward(self, tape: Tape, x: Tensor) -> tuple[Tensor, list[Tensor]]:
        """One pass: trunk features and the logits of every level's head."""
        feat = self.features(tape, x)
        return feat, [tape.linear(feat, w, b) for w, b in self.heads]

    def loss(self, tape: Tape, x: Tensor, leaves) -> Tensor:
        """Sum over the batch of the per-level cross-entropy stack."""
        leaves = np.atleast_1d(np.asarray(leaves, dtype=np.int64))
        known = (leaves >= 0) & (leaves < len(self.targets))
        per_level = self.targets[np.where(known, leaves, 0)]  # (n, K); the root's row is -1
        bad = per_level[:, 0] < 0
        if bad.any():
            raise ModelError(f"node id {int(leaves[bad.argmax()])} is not a leaf of the classifier's hierarchy")
        _, logits = self.forward(tape, x)
        total = None
        for k, head_logits in enumerate(logits):
            term = tape.softmax_cross_entropy(head_logits, per_level[:, k])
            total = term if total is None else tape.add(total, term)
        return total

    def params(self) -> list[Tensor]:
        return self.trunk.params() + [t for pair in self.heads for t in pair]

    @property
    def widths(self) -> dict[str, int]:
        """The ``ModelConfig`` widths it was built at, read from its arrays."""
        return {"clf_hidden": self.trunk.layers[0][0].shape[1], "feature_width": self.trunk.layers[-1][0].shape[1]}


@dataclass
class Readout:
    """Everything one classifier pass yields for a batch of n images."""

    features: np.ndarray  # (n, F) trunk activations
    logits: list[np.ndarray]  # per level k, (n, M_k)
    paths: np.ndarray  # (n, K) argmax class id per level, ties toward the lowest id
    leaf_probs: np.ndarray  # (n, M_K) softmax of the leaf head


def classify(clf: HierClassifier, images) -> Readout:
    """Run a classifier once over an image or an image batch, on a tape that
    records nothing."""
    x = np.asarray(images, dtype=np.float64)
    side = int(np.sqrt(clf.pixels))
    if x.shape == (side, side):
        x = x[None]
    if x.ndim != 3 or x.shape[1:] != (side, side):
        raise ModelError(f"expected {side}x{side} images, got shape {x.shape}")
    feat, logits = clf.forward(Tape(), Tensor(x.reshape(x.shape[0], clf.pixels)))
    logits = [t.data for t in logits]
    levels = [np.asarray(clf.hierarchy.level_classes(k)) for k in range(1, len(logits) + 1)]
    paths = np.stack([level[np.argmax(l, axis=1)] for level, l in zip(levels, logits)], axis=1)
    return Readout(features=feat.data, logits=logits, paths=paths, leaf_probs=_softmax(logits[-1], axis=1))


def generate_set(models: ModelSet, table: ClassEmbeddingTable, c: int, n: int, seed) -> np.ndarray:
    """n stage-2 images of leaf c, (n, 16, 16), from fresh seeded noise."""
    if table.dim != models.config.embed_dim:
        raise ModelError(f"embedding table has dim {table.dim} but the models were built for dim {models.config.embed_dim}")
    if c not in table.leaves:
        raise EmbeddingError(f"id {c} is not a leaf of this table's hierarchy")
    e_c = condition(Tape(), [Tensor(a) for a in table.arrays], c)
    z = np.random.default_rng(seed).standard_normal((n, models.config.noise_dim))
    return models.generate(Tape(), e_c, Tensor(z)).data.reshape(n, 16, 16)


# ----------------------------------------------------------------- training


@dataclass
class ClassifierConfig:
    epochs: int = setting(80, Rule(int, 1))
    batch_size: int = setting(64, Rule(int, 1))
    lr: float = setting(0.003, Rule(float, 0, strict=True))
    seed: int = setting(0, SEED)

    def __post_init__(self):
        check(self, ModelError)


def train_classifier(clf: HierClassifier, dataset: Dataset, resolution: int, cfg: ClassifierConfig) -> HierClassifier:
    """Adam on mean stacked cross-entropy over the train split; returns the
    classifier. Deterministic for a given config."""
    if resolution not in (8, 16):
        raise ModelError(f"resolution must be 8 or 16, got {resolution}")
    if resolution * resolution != clf.pixels:
        raise ModelError(f"classifier expects {clf.pixels} pixels but resolution {resolution} was requested")
    opt = Adam(clf.params(), cfg.lr)
    for b in batch_iter(dataset.train, cfg.batch_size, seed=cfg.seed, num_epochs=cfg.epochs):
        imgs = b.lo if resolution == 8 else b.hi
        tape = Tape(opt.params)
        x = Tensor(imgs.reshape(imgs.shape[0], -1))
        opt.step(tape.backward(tape.scale(clf.loss(tape, x, b.leaf), 1.0 / imgs.shape[0])))
    return clf


def evaluate_classifier(clf: HierClassifier, images: Images) -> dict:
    """Leaf and per-level accuracy over a dataset split."""
    h = clf.hierarchy
    paths = classify(clf, images.lo if clf.pixels == LO_PIXELS else images.hi).paths
    leaf_paths = np.array([h.ancestor_path(y) for y in h.leaves])
    per_level = (paths == leaf_paths[np.searchsorted(h.leaves, images.leaf)]).mean(axis=0)
    parent = np.array([-1 if n.parent is None else n.parent for n in h.nodes])
    return {
        "leaf": float(per_level[-1]),
        "levels": tuple(float(a) for a in per_level),
        "path_consistent": float(np.mean(parent[paths[:, -1]] == paths[:, -2]) if h.K >= 2 else 1.0),
    }


# ------------------------------------------------------------ the model set


@dataclass
class ModelSet:
    config: ModelConfig
    hierarchy: ClassHierarchy
    g1: Mlp  # (cond, noise) -> 8x8
    g2: Mlp  # (cond, 8x8) -> 16x16
    d_lo: Mlp  # (8x8, cond) -> logit
    d_hi: Mlp  # (16x16, cond) -> logit
    clf_lo: HierClassifier
    clf_hi: HierClassifier

    def generate(self, tape: Tape, e_c: Tensor, z: Tensor, stage: int = 2) -> Tensor:
        """The generator graph for the condition row e_c (1, cond_dim) and a
        batch of noise rows: stage 1's 8x8 images, or at stage 2 the 16x16
        images grown from them. Rows are flattened pixels."""
        lo = self.g1.forward(tape, z, cond=e_c)
        return lo if stage == 1 else self.g2.forward(tape, lo, cond=e_c)


def build_models(
    h: ClassHierarchy, cfg: ModelConfig, clf_lo: HierClassifier | None = None, clf_hi: HierClassifier | None = None
) -> ModelSet:
    """Draw the networks from ``cfg.seed``; given classifiers are held as
    they are, widths included. Classifiers are drawn last, so the other
    weights do not depend on whether they were given."""
    given = [clf.widths for clf in (clf_lo, clf_hi) if clf is not None]
    if given:
        if any(w != given[0] for w in given):
            raise ModelError(f"the 8x8 and 16x16 classifiers differ in widths: {given[0]} vs {given[1]}")
        cfg = replace(cfg, **given[0])
    rng = np.random.default_rng(cfg.seed)
    arrays = _draw(_gan_nets(cfg), rng)
    clf_lo = clf_lo if clf_lo is not None else HierClassifier.init(h, LO_PIXELS, cfg, rng)
    clf_hi = clf_hi if clf_hi is not None else HierClassifier.init(h, HI_PIXELS, cfg, rng)
    return _model_set(h, cfg, arrays, clf_lo, clf_hi)


def _gan_nets(cfg: ModelConfig) -> dict[str, list[int]]:
    """Layer sizes of the GAN networks ``ModelSet`` describes, in draw order."""
    cond, gen, disc = cfg.cond_dim, cfg.gen_hidden, cfg.disc_hidden
    return {
        "g1": [cond + cfg.noise_dim, gen, gen, LO_PIXELS],
        "g2": [cond + LO_PIXELS, gen, gen, HI_PIXELS],
        "d_lo": [LO_PIXELS + cond, disc, disc, 1],
        "d_hi": [HI_PIXELS + cond, disc, disc, 1],
    }


def _model_set(h: ClassHierarchy, cfg: ModelConfig, arrays, clf_lo: HierClassifier, clf_hi: HierClassifier) -> ModelSet:
    """The GAN networks of ``cfg``'s shapes over arrays, with the
    classifiers: generators read the condition in their first input columns
    and end in a sigmoid, discriminators read it in their last and end in a
    logit."""
    gan = {
        name: Mlp(_layers(arrays, name, sizes), "leaky_relu", "sigmoid" if gen else "linear", cond_first=gen)
        for name, sizes in _gan_nets(cfg).items()
        for gen in [name[0] == "g"]
    }
    return ModelSet(config=cfg, hierarchy=h, **gan, clf_lo=clf_lo, clf_hi=clf_hi)


def save_models(ms: ModelSet, path) -> None:
    """Checkpoint all network parameters with the architecture config."""
    manifest = asdict(ms.config) | {"hierarchy": ms.hierarchy.serialize()}
    nets = (ms.g1, ms.g2, ms.d_lo, ms.d_hi, ms.clf_lo, ms.clf_hi)
    save_checkpoint(path, {p.name: p for net in nets for p in net.params()}, manifest)


def load_models(path) -> ModelSet:
    """Rebuild a ModelSet around a checkpoint's arrays, whose names and
    shapes the manifest's architecture config fixes."""

    def layout(manifest, h):
        cfg = ModelConfig(**{f.name: manifest[f.name] for f in fields(ModelConfig)})
        return cfg, _shapes(_gan_nets(cfg) | _classifier_nets(h, LO_PIXELS, cfg) | _classifier_nets(h, HI_PIXELS, cfg))

    cfg, h, arrays = load_artifact(path, "model set", layout)
    clf_lo, clf_hi = (HierClassifier._around(h, pixels, cfg, arrays) for pixels in (LO_PIXELS, HI_PIXELS))
    return _model_set(h, cfg, arrays, clf_lo, clf_hi)


def save_classifier(clf: HierClassifier, path) -> None:
    """Checkpoint a single classifier with enough manifest to rebuild it."""
    manifest = {"pixels": clf.pixels, "hierarchy": clf.hierarchy.serialize()} | clf.widths
    save_checkpoint(path, {p.name: p for p in clf.params()}, manifest)


def load_classifier(path) -> HierClassifier:
    """Rebuild a classifier around its checkpoint's arrays."""

    def layout(manifest, h):
        pixels = manifest["pixels"]
        cfg = ModelConfig(clf_hidden=manifest["clf_hidden"], feature_width=manifest["feature_width"])
        return (pixels, cfg), _shapes(_classifier_nets(h, pixels, cfg))

    (pixels, cfg), h, arrays = load_artifact(path, "classifier", layout)
    return HierClassifier._around(h, pixels, cfg, arrays)
