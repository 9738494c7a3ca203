"""Generator stages, discriminators, and hierarchical classifiers.

All networks are small dense MLPs over flattened pixels, sized for the
16x16/8x8 desk resolutions. The generator runs in two conditional stages
(class embedding + noise -> 8x8, then class embedding + 8x8 -> 16x16), each
with its own discriminator that judges an image joined to its class
embedding. Each of these four is a plain ``Mlp``: ``Mlp.forward`` joins its
input parts column by column and runs its layers, and
``discriminator_loss`` is the D step's objective. The hierarchical classifier
shares one trunk and puts a linear head on every level of the class tree; its
loss is the sum of per-level softmax cross-entropies against the leaf's
ancestor path. One forward serves both the loss and ``classify``, the readout
the metrics use. Only ``train_classifier`` tracks the classifier's
parameters; every other tape it runs on leaves them constant, while gradients
still flow through it to a tracked *image*, which is the path the
generated-image consistency penalty trains the generator through.

A ``ModelSet`` holds networks only; ``generate_set`` conditions them on a
given embedding table and is the generator's readout, as ``classify`` is the
classifier's.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .autodiff import AdamState, Tape, Tensor, _softmax, adam_step, load_checkpoint, save_checkpoint
from .embed import ClassEmbeddingTable, leaf_condition_vector
from .hierarchy import ClassHierarchy, parse_hierarchy
from .synthdata import Dataset, Images, batch_iter

LO_PIXELS = 64
HI_PIXELS = 256


class ModelError(ValueError):
    """Shape or resolution mismatch in a model forward pass."""


def _init_layer(rng, fan_in: int, fan_out: int, prefix: str, idx: int):
    """Weights uniform in +-1/sqrt(fan_in) drawn from rng, or zeros when rng
    is None (a network about to be loaded), and a zero bias."""
    if rng is None:
        w = Tensor(np.zeros((fan_in, fan_out)), name=f"{prefix}.w{idx}")
    else:
        bound = 1.0 / np.sqrt(fan_in)
        w = Tensor(rng.uniform(-bound, bound, size=(fan_in, fan_out)), name=f"{prefix}.w{idx}")
    b = Tensor(np.zeros(fan_out), name=f"{prefix}.b{idx}")
    return w, b


@dataclass
class Mlp:
    layers: list[tuple[Tensor, Tensor]]
    hidden: str  # "leaky_relu" | "relu"
    out: str  # "sigmoid" | "linear"

    @classmethod
    def init(cls, sizes: list[int], rng, prefix: str, hidden: str, out: str) -> "Mlp":
        layers = [_init_layer(rng, sizes[i], sizes[i + 1], prefix, i) for i in range(len(sizes) - 1)]
        return cls(layers=layers, hidden=hidden, out=out)

    @property
    def in_dim(self) -> int:
        return self.layers[0][0].shape[0]

    def forward(self, tape: Tape, *parts: Tensor) -> Tensor:
        """Join the input parts column by column (one ``concat`` record, none
        for a single part), then run the layers."""
        shapes = [p.shape for p in parts]
        if any(p.data.ndim != 2 for p in parts) or sum(p.shape[1] for p in parts) != self.in_dim:
            raise ModelError(f"expected inputs (n, k) whose widths add up to {self.in_dim}, got {shapes}")
        if len({p.shape[0] for p in parts}) > 1:
            raise ModelError(f"batch mismatch: input parts {shapes} differ in rows")
        h = parts[0] if len(parts) == 1 else tape.concat(list(parts), axis=1)
        for i, (w, b) in enumerate(self.layers):
            h = tape.linear(h, w, b)
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


def discriminator_loss(tape: Tape, d: Mlp, real: Tensor, fake: Tensor, e_c: Tensor) -> Tensor:
    """Non-saturating GAN loss of the discriminator d:
    BCE(D(real), 1) + BCE(D(fake), 0)."""
    if real.shape != fake.shape:
        raise ModelError(f"real and fake batches differ in shape: {real.shape} vs {fake.shape}")
    real_logit = d.forward(tape, real, e_c)
    fake_logit = d.forward(tape, fake, e_c)
    return tape.add(
        tape.binary_cross_entropy_with_logits(real_logit, np.ones(real_logit.shape)),
        tape.binary_cross_entropy_with_logits(fake_logit, np.zeros(fake_logit.shape)),
    )


@dataclass
class HierClassifier:
    hierarchy: ClassHierarchy
    pixels: int
    trunk: Mlp
    heads: list[tuple[Tensor, Tensor]]
    # position of a_k(y) within level_classes(k), per leaf, precomputed
    targets: dict[int, tuple[int, ...]] = field(default_factory=dict)

    @classmethod
    def init(cls, h: ClassHierarchy, pixels: int, cfg: ModelConfig, rng) -> "HierClassifier":
        if h.K < 1:
            raise ModelError("classifier needs a hierarchy with at least one level")
        prefix = "clf_lo" if pixels == LO_PIXELS else "clf_hi"
        trunk = Mlp.init([pixels, cfg.clf_hidden, cfg.clf_hidden, cfg.feature_width], rng, prefix, "relu", "linear")
        heads = [
            _init_layer(rng, cfg.feature_width, h.num_classes(k), f"{prefix}.head{k}", 0)
            for k in range(1, h.K + 1)
        ]
        targets = {
            y: tuple(h.level_classes(k).index(h.ancestor(y, k)) for k in range(1, h.K + 1))
            for y in h.leaves
        }
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
        for y in leaves:
            if int(y) not in self.targets:
                raise ModelError(f"node id {int(y)} is not a leaf of the classifier's hierarchy")
        per_level = np.array([self.targets[int(y)] for y in leaves])  # (n, K)
        _, logits = self.forward(tape, x)
        total = None
        for k, head_logits in enumerate(logits):
            term = tape.softmax_cross_entropy(head_logits, per_level[:, k])
            total = term if total is None else tape.add(total, term)
        return total

    def params(self) -> list[Tensor]:
        return self.trunk.params() + [t for pair in self.heads for t in pair]


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
    e_c = np.tile(leaf_condition_vector(table, c), (n, 1))
    z = np.random.default_rng(seed).standard_normal((n, models.config.noise_dim))
    return models.generate(Tape(), Tensor(e_c), Tensor(z)).data.reshape(n, 16, 16)


# ----------------------------------------------------------------- training


@dataclass
class ClassifierConfig:
    epochs: int = 80
    batch_size: int = 64
    lr: float = 0.003
    beta1: float = 0.5
    beta2: float = 0.999
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.lr <= 0:
            raise ModelError("classifier config needs epochs >= 1, batch_size >= 1, lr > 0")
        if self.seed < 0:
            raise ModelError("classifier seed must be non-negative")


def train_classifier(clf: HierClassifier, dataset: Dataset, resolution: int, cfg: ClassifierConfig) -> HierClassifier:
    """Adam on mean stacked cross-entropy over the train split; returns the
    classifier. Deterministic for a given config."""
    if resolution not in (8, 16):
        raise ModelError(f"resolution must be 8 or 16, got {resolution}")
    if resolution * resolution != clf.pixels:
        raise ModelError(f"classifier expects {clf.pixels} pixels but resolution {resolution} was requested")
    params = clf.params()
    states = [AdamState.for_param(p) for p in params]
    for b in batch_iter(dataset.train, cfg.batch_size, seed=cfg.seed, num_epochs=cfg.epochs):
        imgs = b.lo if resolution == 8 else b.hi
        tape = Tape(params)
        x = Tensor(imgs.reshape(imgs.shape[0], -1))
        loss = tape.scale(clf.loss(tape, x, b.leaf), 1.0 / imgs.shape[0])
        grads = tape.backward(loss)
        adam_step(params, [grads[p] for p in params], states, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2)
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
        """The generator graph: stage 1's 8x8 images, or at stage 2 the 16x16
        images grown from them. Rows are flattened pixels."""
        lo = self.g1.forward(tape, e_c, z)
        return lo if stage == 1 else self.g2.forward(tape, e_c, lo)


def build_models(
    h: ClassHierarchy, cfg: ModelConfig, clf_lo: HierClassifier | None = None, clf_hi: HierClassifier | None = None
) -> ModelSet:
    """Draw the networks from ``cfg.seed``. Given classifiers are held as
    they are; the classifiers are drawn last, so the other weights do not
    depend on whether they were given."""
    return _model_set(h, cfg, np.random.default_rng(cfg.seed), clf_lo, clf_hi)


def _model_set(h: ClassHierarchy, cfg: ModelConfig, rng, clf_lo=None, clf_hi=None) -> ModelSet:
    """The networks of ``cfg``'s shapes with weights drawn from rng in a
    fixed order, or zero-filled when rng is None."""
    cond, gen, disc = cfg.cond_dim, cfg.gen_hidden, cfg.disc_hidden
    return ModelSet(
        config=cfg,
        hierarchy=h,
        g1=Mlp.init([cond + cfg.noise_dim, gen, gen, LO_PIXELS], rng, "g1", "leaky_relu", "sigmoid"),
        g2=Mlp.init([cond + LO_PIXELS, gen, gen, HI_PIXELS], rng, "g2", "leaky_relu", "sigmoid"),
        d_lo=Mlp.init([LO_PIXELS + cond, disc, disc, 1], rng, "d_lo", "leaky_relu", "linear"),
        d_hi=Mlp.init([HI_PIXELS + cond, disc, disc, 1], rng, "d_hi", "leaky_relu", "linear"),
        clf_lo=clf_lo if clf_lo is not None else HierClassifier.init(h, LO_PIXELS, cfg, rng),
        clf_hi=clf_hi if clf_hi is not None else HierClassifier.init(h, HI_PIXELS, cfg, rng),
    )


def _load_with_manifest(path, build):
    """Read a checkpoint, rebuild its networks with ``build(manifest) ->
    (networks, params)`` from its metadata and copy in the stored values,
    which must match the rebuilt parameters in name and shape, none missing
    and none extra."""
    manifest, blobs = load_checkpoint(path)
    try:
        networks, params = build(manifest)
    except (ValueError, KeyError, TypeError, AttributeError) as err:
        raise ModelError(f"checkpoint {path} has a malformed manifest: {err!r}") from err
    for p in params:
        if p.name not in blobs:
            raise ModelError(f"checkpoint {path} is missing parameter {p.name!r}")
        if blobs[p.name].shape != p.data.shape:
            raise ModelError(
                f"checkpoint {path}: parameter {p.name!r} has shape {blobs[p.name].shape}, expected {p.data.shape}"
            )
        p.data = blobs[p.name]
    extras = set(blobs) - {p.name for p in params}
    if extras:
        raise ModelError(f"checkpoint {path} has unknown parameters {sorted(extras)}")
    return networks


def _model_set_params(ms: ModelSet) -> list[Tensor]:
    return [p for net in (ms.g1, ms.g2, ms.d_lo, ms.d_hi, ms.clf_lo, ms.clf_hi) for p in net.params()]


def save_models(ms: ModelSet, path) -> None:
    """Checkpoint all network parameters with the architecture config."""
    manifest = asdict(ms.config) | {"hierarchy": ms.hierarchy.serialize()}
    save_checkpoint(path, {p.name: p for p in _model_set_params(ms)}, manifest)


def load_models(path) -> ModelSet:
    """Rebuild a ModelSet from a checkpoint; shapes are validated against the
    manifest's architecture config. The networks are built zero-filled, so
    no weights are drawn only to be overwritten."""

    def build(manifest):
        cfg = ModelConfig(**{f.name: manifest[f.name] for f in fields(ModelConfig)})
        ms = _model_set(parse_hierarchy(manifest["hierarchy"]), cfg, None)
        return ms, _model_set_params(ms)

    return _load_with_manifest(path, build)


def save_classifier(clf: HierClassifier, path) -> None:
    """Checkpoint a single classifier with enough manifest to rebuild it."""
    manifest = {
        "pixels": clf.pixels,
        "clf_hidden": clf.trunk.layers[0][0].shape[1],
        "feature_width": clf.trunk.layers[-1][0].shape[1],
        "hierarchy": clf.hierarchy.serialize(),
    }
    save_checkpoint(path, {p.name: p for p in clf.params()}, manifest)


def load_classifier(path) -> HierClassifier:
    """Rebuild a classifier from its checkpoint, into zero-filled weights."""

    def build(manifest):
        h = parse_hierarchy(manifest["hierarchy"])
        cfg = ModelConfig(clf_hidden=manifest["clf_hidden"], feature_width=manifest["feature_width"])
        clf = HierClassifier.init(h, manifest["pixels"], cfg, None)
        return clf, clf.params()

    return _load_with_manifest(path, build)
