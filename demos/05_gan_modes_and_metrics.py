"""
Four ways to condition a generator, measured
============================================

The trainer grows images coarse-to-fine (8x8, then 16x16) and exposes one
dial with four settings. "treegan" trains the class embeddings jointly with
the GAN and adds a penalty from the frozen hierarchical classifier on
generated samples; "npc" keeps the joint embeddings but drops the penalty;
"seg" freezes a separately pre-trained table; "flat" freezes a random one,
erasing the hierarchy from the conditioning. Held-out metrics come from the
frozen 16x16 classifier: a Frechet distance over its trunk features, an
inception-style score over its leaf head, and the rate at which generated
samples land on a self-consistent root-to-leaf path.
"""

import numpy as np

from hiergan.hierarchy import FIXTURE_TREE, parse_hierarchy
from hiergan.models import (
    ClassifierConfig,
    HierClassifier,
    ModelConfig,
    generate_set,
    train_classifier,
)
from hiergan.synthdata import default_dataset_spec, generate_dataset
from hiergan.training import TrainConfig, run_training

h = parse_hierarchy(FIXTURE_TREE)
data = generate_dataset(default_dataset_spec(h, samples_per_leaf=60, seed=0))

# The penalty and the metrics both need frozen critics, one per resolution.
clf_lo = HierClassifier.init(h, 64, ModelConfig(), np.random.default_rng(0))
clf_hi = HierClassifier.init(h, 256, ModelConfig(), np.random.default_rng(1))
train_classifier(clf_lo, data, 8, ClassifierConfig(epochs=30, seed=0))
train_classifier(clf_hi, data, 16, ClassifierConfig(epochs=30, seed=0))

# Short runs, one evaluation at the end. The full dial comparison lives in
# the test suite; here treegan vs flat is enough to see the gap.
runs = {}
for mode in ("treegan", "flat"):
    cfg = TrainConfig(mode=mode, steps_per_stage=500, eval_every=500,
                      eval_n_per_class=60, seed=0)
    print(f"lambda1 in {mode!r} mode: {cfg.effective_lambda1}")
    runs[mode] = run_training(data, h, cfg, clf_lo, clf_hi)

print(f"\n{'mode':8s} {'desk-FID':>10s} {'desk-IS':>8s} {'consistency':>12s}")
for mode, art in runs.items():
    step, rep = art.reports[-1]
    print(f"{mode:8s} {rep.avg_desk_fid:10.2f} {rep.avg_desk_is:8.3f} "
          f"{rep.avg_consistency_rate:12.3f}")

# The trace records every step of both stages, replayable from the seed.
art = runs["treegan"]
print("\nfirst and last trace rows (treegan):")
for row in (art.trace[0], art.trace[-1]):
    print(f"  step {row.step:4d} stage {row.stage}  d {row.d_loss:.3f}  "
          f"g {row.g_loss:.3f}  penalty {row.h_penalty:.3f}  che {row.che_loss:.3f}")


def ascii_image(img: np.ndarray) -> list[str]:
    ramp = " .:-=+*#%@"
    idx = np.clip(img * (len(ramp) - 1), 0, len(ramp) - 1).astype(int)
    return ["".join(ramp[v] for v in row) for row in idx]


# Side by side: a real sample, the treegan render, the flat render.
fox = h.leaves[0]
real = data.test.hi[data.test.leaf == fox][0]
cols = [ascii_image(real)]
for mode in ("treegan", "flat"):
    images = generate_set(runs[mode].models, runs[mode].table, fox, 1, seed=99)
    cols.append(ascii_image(images[0]))
print(f"\n{'real ' + h.name_of(fox):^16s}  {'treegan':^16s}  {'flat':^16s}")
for r in range(16):
    print("  ".join(col[r] for col in cols))
