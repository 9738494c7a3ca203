"""Joint adversarial training with the hierarchy constraints, in four modes.

The objective couples three parts: a per-stage conditional GAN loss, a
hierarchical-classification penalty on generated images weighted by
``lambda1`` (the post constraint), and the class-embedding margin loss
weighted by ``lambda2`` (the prior control). Modes:

  TREEGAN  embeddings train jointly; lambda1 penalty active
  NPC      embeddings train jointly; lambda1 forced to 0
  SEG      embeddings pre-trained and frozen; lambda1 = 0
  FLAT     random frozen embeddings; lambda1 = 0

In every mode the trainer's table tensors ``emb`` are the run's one copy of
the class embedding; ``embed.condition`` gathers the step's one conditioning
row from them, which every network's first layer takes as a bias for the
whole batch, and the generator's tape tracks them only in the joint modes.

Each step runs strict alternation: a discriminator Adam step, then one
backward of ``g_adv + lambda1 * penalty + lambda2 * margin`` that feeds the
generator Adam step and (joint modes only) the embedding Adam step, whose
gradient is the margin part plus whatever reached the class embedding
through the generator pathway. When lambda1 == 0 the penalty branch is
skipped outright, which makes TREEGAN with lambda1=0 bit-identical to NPC,
not merely close.

The generator graph (conditioning row and fake images, then in joint modes
the margin loss over freshly sampled corruptions) is built once per step,
before the D step: the D step takes the fake images as an array, in one
discriminator forward over the real rows stacked on the fake rows, and the G
step appends the updated discriminator to the same tape. Nothing the graph
depends on changes in between, because the D step updates only
discriminator weights. Each tape tracks the parameters its step updates: the
D tape the discriminator's, the G tape the generator's and, in joint modes,
the table's. So the G step's backward computes adjoints for the generator,
the class embedding and the images, and none for D or the classifier.

Stage 1 trains the 8x8 generator against its discriminator and classifier;
stage 2 tracks only the 16x16 generator and its discriminator, so the
stage-1 weights stay fixed. One rng seeded from the config drives every
step in a fixed order (real-batch indices, then noise, then negative
sampling in joint modes), so runs replay exactly from the seed.
"""

from __future__ import annotations

import contextlib
import enum
import json
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .autodiff import Adam, NonFiniteError, Tape, Tensor
from .config import SEED, Rule, check, setting
from .embed import MARGIN, ClassEmbeddingTable, EmbeddingError, condition, init_table, margin_loss_graph, sample_negatives, save_table
from .files import replace_dir, write_atomic
from .hierarchy import ClassHierarchy
from .metrics import TWO_SAMPLES, MetricsReport, evaluate, report_csv, report_json
from .models import HierClassifier, ModelError, ModelSet, ModelConfig, build_models, discriminator_loss, save_models
from .synthdata import Dataset


class TrainingError(ValueError):
    """Invalid training configuration or inputs."""


class TrainMode(enum.Enum):
    TREEGAN = "treegan"
    NPC = "npc"
    SEG = "seg"
    FLAT = "flat"

    @classmethod
    def from_string(cls, s: str) -> "TrainMode":
        try:
            return cls(s.lower())
        except ValueError:
            raise TrainingError(
                f"unknown mode {s!r}; expected one of {', '.join(m.value for m in cls)}"
            ) from None

    @property
    def joint_embeddings(self) -> bool:
        return self in (TrainMode.TREEGAN, TrainMode.NPC)


@dataclass
class TrainConfig:
    mode: TrainMode = TrainMode.TREEGAN
    lambda1: float = setting(15.0, Rule(float, 0))
    lambda2: float = setting(1.0, Rule(float, 0))
    batch_size: int = setting(64, Rule(int, 1))
    gan_lr: float = setting(0.0002, Rule(float, 0, strict=True))
    emb_lr: float = setting(0.01, Rule(float, 0, strict=True))
    steps_per_stage: int = setting(3000, Rule(int, 1))
    eval_every: int = setting(500, Rule(int, 1))
    eval_n_per_class: int = setting(500, TWO_SAMPLES)
    che_margin: float = setting(0.2, MARGIN)
    che_negatives: int = setting(10, Rule(int, 1))
    embed_dim: int = setting(16, Rule(int, 1))
    seed: int = setting(0, SEED)

    def __post_init__(self):
        if isinstance(self.mode, str):
            self.mode = TrainMode.from_string(self.mode)
        check(self, TrainingError)

    @property
    def effective_lambda1(self) -> float:
        # only the full mode applies the generated-image penalty
        return self.lambda1 if self.mode == TrainMode.TREEGAN else 0.0


@dataclass
class TraceRow:
    step: int
    stage: int
    class_id: int
    d_loss: float
    g_loss: float
    h_penalty: float
    che_loss: float


@dataclass
class RunArtifacts:
    config: TrainConfig
    models: ModelSet
    table: ClassEmbeddingTable
    trace: list[TraceRow] = field(default_factory=list)
    reports: list[tuple[int, MetricsReport]] = field(default_factory=list)
    aborted: bool = False
    abort_step: int | None = None
    abort_reason: str = ""


class Trainer:
    """Owns the per-run mutable state: models, the class embedding, one
    ``Adam`` per parameter group, and the step rng. One instance, one run."""

    def __init__(
        self,
        dataset: Dataset,
        h: ClassHierarchy,
        cfg: TrainConfig,
        clf_lo: HierClassifier,
        clf_hi: HierClassifier,
        embeddings: ClassEmbeddingTable | None = None,
    ):
        if dataset.spec.hierarchy != h:
            raise TrainingError("dataset was generated for a different hierarchy")
        for clf, side in ((clf_lo, 8), (clf_hi, 16)):
            if clf.pixels != side * side:
                raise ModelError(f"classifier for {side}x{side} has {clf.pixels} inputs")
            if clf.hierarchy != h:
                raise ModelError("classifier was trained for a different hierarchy")
        if cfg.mode == TrainMode.SEG:
            if embeddings is None:
                raise TrainingError("SEG mode requires pre-trained embeddings")
            if embeddings.hierarchy != h:
                raise EmbeddingError("embedding table was trained for a different hierarchy")
            if embeddings.dim != cfg.embed_dim:
                raise TrainingError(f"embedding dim {embeddings.dim} != config embed_dim {cfg.embed_dim}")
        elif embeddings is not None:
            raise TrainingError(f"{cfg.mode.value} mode does not accept external embeddings")

        self.h = h
        self.cfg = cfg
        self.dataset = dataset
        self.rng = np.random.default_rng([cfg.seed, 2])

        if embeddings is None:  # drawn at random: trained jointly, or frozen in flat mode
            rng = np.random.default_rng([cfg.seed, 1 if cfg.mode.joint_embeddings else 3])
            embeddings = init_table(h, cfg.embed_dim, rng)
        self.emb = [Tensor(a) for a in embeddings.arrays]
        self.emb_opt = Adam(self.emb, cfg.emb_lr)  # stepped in the joint modes only

        self.models = build_models(h, ModelConfig(embed_dim=cfg.embed_dim, seed=cfg.seed), clf_lo, clf_hi)

        self.by_leaf = {y: np.flatnonzero(dataset.train.leaf == y) for y in h.leaves}
        for y, rows in self.by_leaf.items():
            if not len(rows):
                raise TrainingError(f"leaf {h.name_of(y)!r} has no training samples")

        self.pairs = np.asarray(h.parent_child_pairs())
        self._enter_stage(1)

    # ------------------------------------------------------------- stages

    def _enter_stage(self, stage: int) -> None:
        m = self.models
        self.stage = stage
        gen, self.disc, self.clf = (m.g1, m.d_lo, m.clf_lo) if stage == 1 else (m.g2, m.d_hi, m.clf_hi)
        self.g_opt, self.d_opt = Adam(gen.params(), self.cfg.gan_lr), Adam(self.disc.params(), self.cfg.gan_lr)

    def current_table(self) -> ClassEmbeddingTable:
        return ClassEmbeddingTable(*(p.data.copy() for p in self.emb), hierarchy=self.h)

    # -------------------------------------------------------------- steps

    def joint_step(self, real_images: np.ndarray, y: int, z: np.ndarray) -> tuple[float, float, float, float]:
        """One alternating round for class y: the D step, then one backward
        for the G step and (joint modes) the embedding step. Returns
        (d_loss, g_loss, h_penalty, che_loss)."""
        cfg = self.cfg
        n = real_images.shape[0]
        real_flat = real_images.reshape(n, -1)
        joint = cfg.mode.joint_embeddings
        emb = self.emb if joint else []

        # the generator graph, built once: the D step reads its values, and
        # the G step extends it once D has moved; in joint modes the margin
        # loss joins it, since only the embedding update changes the table
        tape_g = Tape(self.g_opt.params + emb)
        e_c = condition(tape_g, self.emb, y)
        fake = self.models.generate(tape_g, e_c, Tensor(z), self.stage)
        if joint:
            neg = sample_negatives(self.h, self.pairs, cfg.che_negatives, self.rng)
            margin = margin_loss_graph(tape_g, self.emb, self.pairs, neg, cfg.che_margin)

        # --- discriminator step (generator and embeddings held fixed: it
        # reads the fake images as an array)
        tape_d = Tape(self.d_opt.params)
        d_loss = discriminator_loss(tape_d, self.disc, real_flat, fake.data, e_c)
        d_before = [p.data for p in self.d_opt.params]  # Adam.step rebinds, so no copy
        self.d_opt.step(tape_d.backward(d_loss))

        # --- generator and embedding steps (the G tape does not track the
        # discriminator, so its weights get no adjoint): one backward of
        # g_adv + lambda1 * penalty + lambda2 * margin. The reverse sweep
        # reaches the margin record before the condition record, so each
        # table gradient is the margin part plus the generator-path part.
        try:
            g_adv = tape_g.binary_cross_entropy_with_logits(
                self.disc.forward(tape_g, fake, cond=e_c), np.ones((n, 1))
            )
            g_obj, h_penalty, che_loss = g_adv, 0.0, 0.0
            lam1 = cfg.effective_lambda1
            if lam1 > 0:
                penalty = tape_g.scale(self.clf.loss(tape_g, fake, [y] * n), 1.0 / n)
                g_obj = tape_g.add(g_obj, tape_g.scale(penalty, lam1))
                h_penalty = float(penalty.item())
            if joint:
                g_obj = tape_g.add(g_obj, tape_g.scale(margin, cfg.lambda2))
                che_loss = float(margin.item())
        except NonFiniteError:  # the run aborts: D goes back to its last completed step
            for p, data in zip(self.d_opt.params, d_before):
                p.data = data
            raise
        grads = tape_g.backward(g_obj)
        self.g_opt.step(grads)
        if joint:
            self.emb_opt.step(grads)
        return float(d_loss.item()), float(g_adv.item()), h_penalty, che_loss

    def real_batch(self, y: int) -> np.ndarray:
        """batch_size training images of leaf y, drawn with replacement."""
        rows = self.by_leaf[y]
        idx = rows[self.rng.integers(0, len(rows), size=self.cfg.batch_size)]
        train = self.dataset.train
        return train.lo[idx] if self.stage == 1 else train.hi[idx]


def run_training(
    dataset: Dataset,
    h: ClassHierarchy,
    cfg: TrainConfig,
    clf_lo: HierClassifier,
    clf_hi: HierClassifier,
    embeddings: ClassEmbeddingTable | None = None,
) -> RunArtifacts:
    """Stage 1 then stage 2, round-robin over leaves, with stage-2 metric
    checkpoints every ``eval_every`` steps and at the end. Replayable from
    the config seed; a non-finite loss aborts with parameters as of the last
    completed step."""
    trainer = Trainer(dataset, h, cfg, clf_lo, clf_hi, embeddings)
    art = RunArtifacts(config=cfg, models=trainer.models, table=trainer.current_table())
    leaves = h.leaves
    step = 0
    try:
        for stage in (1, 2):
            if stage == 2:
                trainer._enter_stage(2)
            for t in range(cfg.steps_per_stage):
                y = leaves[t % len(leaves)]
                real = trainer.real_batch(y)
                z = trainer.rng.standard_normal((cfg.batch_size, trainer.models.config.noise_dim))
                losses = trainer.joint_step(real, int(y), z)
                step += 1
                art.trace.append(TraceRow(step, stage, int(y), *losses))
                if stage == 2 and ((t + 1) % cfg.eval_every == 0 or t + 1 == cfg.steps_per_stage):
                    report = evaluate(
                        trainer.models,
                        trainer.current_table(),
                        dataset,
                        h,
                        n_per_class=cfg.eval_n_per_class,
                        seed=(cfg.seed << 20) ^ step,
                    )
                    art.reports.append((step, report))
    except NonFiniteError as err:
        art.aborted = True
        art.abort_step = step + 1
        art.abort_reason = str(err)
    art.table = trainer.current_table()
    return art


# ---------------------------------------------------------------- artifacts


def trace_csv(rows: list[TraceRow]) -> str:
    lines = ["step,stage,class_id,d_loss,g_loss,h_penalty,che_loss"]
    for r in rows:
        lines.append(
            f"{r.step},{r.stage},{r.class_id},{r.d_loss!r},{r.g_loss!r},{r.h_penalty!r},{r.che_loss!r}"
        )
    return "\n".join(lines) + "\n"


def check_run_target(out_dir) -> None:
    """Refuse an ``out_dir`` that ``save_run`` may not replace, since the swap
    deletes what it replaces: anything but an empty directory or a run (every
    entry a regular file its ``manifest.json`` names), and any directory that
    holds the working directory."""
    out = Path(out_dir)
    names = set()
    with contextlib.suppress(OSError, ValueError, KeyError, TypeError):  # no run manifest: no run files
        steps = json.loads((out / "manifest.json").read_text())["checkpoints"]
        names = {"models.hgck", "embeddings.hgck", "trace.csv", "manifest.json"}
        names |= {f"metrics_step{step:06d}.{ext}" for step in steps for ext in ("csv", "json")}
    if out.is_symlink() or out.exists() and (
        not out.is_dir()
        or Path.cwd().is_relative_to(out.resolve())
        or any(p.name not in names or p.is_symlink() or not p.is_file() for p in out.iterdir())
    ):
        raise TrainingError(f"output {out} exists and is not an empty directory or a run; not replacing it")


def save_run(art: RunArtifacts, out_dir, extra_manifest: dict | None = None) -> None:
    """Write checkpoints, loss trace, per-checkpoint metric reports, and a
    manifest sufficient to replay the run. The directory is written whole
    (``files.replace_dir``): no file of a previous run there outlives it, and
    a failed write leaves that run as it was."""
    out = Path(out_dir)
    check_run_target(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    cfg_dict = asdict(art.config)
    cfg_dict["mode"] = art.config.mode.value
    manifest = {
        "mode": art.config.mode.value,
        "seed": art.config.seed,
        "config": cfg_dict,
        "aborted": art.aborted,
        "abort_step": art.abort_step,
        "abort_reason": art.abort_reason,
        "checkpoints": sorted(step for step, _ in art.reports),
    }
    if extra_manifest:
        manifest.update(extra_manifest)
    with replace_dir(out) as stage:
        save_models(art.models, stage / "models.hgck")
        save_table(stage / "embeddings.hgck", art.table)
        write_atomic(stage / "trace.csv", trace_csv(art.trace))
        for step, report in art.reports:
            write_atomic(stage / f"metrics_step{step:06d}.csv", report_csv(report))
            write_atomic(stage / f"metrics_step{step:06d}.json", report_json(report))
        write_atomic(stage / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
