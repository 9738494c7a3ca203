"""
One trunk, a head per level
===========================

The critic that anchors both the training penalty and the evaluation
metrics is a hierarchical classifier: a shared MLP trunk with one softmax
head per tree level, trained so the level losses sum. Predictions come out
as full root-to-leaf paths, which makes "does the generator respect the
taxonomy" a measurable rate. Once trained the classifier is frozen; the
GAN may pull gradients through it but never update it.
"""

import numpy as np

from hiergan.autodiff import Tape, Tensor
from hiergan.hierarchy import FIXTURE_TREE, parse_hierarchy
from hiergan.models import (
    ClassifierConfig,
    HierClassifier,
    ModelConfig,
    classify,
    evaluate_classifier,
    train_classifier,
)
from hiergan.synthdata import default_dataset_spec, generate_dataset

h = parse_hierarchy(FIXTURE_TREE)
data = generate_dataset(default_dataset_spec(h, samples_per_leaf=120, seed=0))

# One classifier per resolution; the 8x8 one guards stage 1, the 16x16 one
# guards stage 2 and supplies evaluation features.
for res in (8, 16):
    clf = HierClassifier.init(h, res * res, ModelConfig(), np.random.default_rng(0))
    train_classifier(clf, data, res, ClassifierConfig(epochs=40, seed=0))
    scores = evaluate_classifier(clf, data.test)
    levels = ", ".join(f"level {k + 1} {a:.3f}" for k, a in enumerate(scores["levels"]))
    print(f"{res:2d}x{res:<2d}  leaf {scores['leaf']:.3f}  {levels}  "
          f"path-consistent {scores['path_consistent']:.3f}")

# Predictions are ancestor paths, not bare leaves. One pass of the
# classifier also yields the trunk features and leaf probabilities that the
# metrics read.
img, leaf = data.test.hi[0], int(data.test.leaf[0])
readout = classify(clf, img)
path = readout.paths[0]
print(f"\ntrue leaf {h.path_name(leaf)}")
print(f"predicted path {' -> '.join(h.path_name(int(c)) for c in path)}")
print(f"leaf probability {readout.leaf_probs[0].max():.3f}, {readout.features.shape[1]} trunk features")

# The stacked loss is what the GAN pays when its samples stray off-taxonomy:
# low against the true label, steep against a wrong one.
x = Tensor(img.reshape(1, -1))
right = clf.loss(Tape(), x, [leaf]).item()
wrong_leaf = next(y for y in h.leaves if y != leaf)
wrong = clf.loss(Tape(), x, [wrong_leaf]).item()
print(f"\nstacked loss vs {h.name_of(leaf)}: {right:.3f}")
print(f"stacked loss vs {h.name_of(wrong_leaf)}: {wrong:.3f}")

# Frozen means no tape but its own training tracks its weights. The GAN's
# tape tracks the image instead: the gradient flows through to the image,
# and none reaches the classifier.
tape = Tape([x])
grads = tape.backward(clf.loss(tape, x, [wrong_leaf]))
print(f"\nfrozen: image gradient norm {np.linalg.norm(grads[x]):.3f}, "
      f"classifier gradients {sum(p in grads for p in clf.params())}")
