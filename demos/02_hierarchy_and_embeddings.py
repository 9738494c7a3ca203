"""
Teaching embeddings the shape of a label tree
=============================================

Class labels here are not a flat list: every leaf has ancestors, and the
generative side of the package conditions on embeddings that encode that
ancestry. Each class is a complex vector, and a single learned relation
vector rotates a parent toward its children. Training pushes true
parent-child pairs above corrupted ones by a margin; afterwards the
geometry mirrors the tree without ever being told leaf similarities
directly.
"""

import numpy as np

from hiergan.embed import (
    CheConfig,
    pair_scores,
    ranking_accuracy,
    sibling_similarity_gap,
    similarity_matrix,
    train_che,
)
from hiergan.hierarchy import FIXTURE_TREE, parse_hierarchy

# The built-in two-level tree: two families, three species each.
h = parse_hierarchy(FIXTURE_TREE)
print(f"{len(h.nodes)} classes, {h.K} levels below the root")
for k in range(1, h.K + 1):
    names = ", ".join(h.path_name(c) for c in h.level_classes(k))
    print(f"  level {k}: {names}")

# Train the table on parent-child rankings alone.
table = train_che(h, CheConfig(dim=16, seed=0))
print(f"\nranking accuracy {ranking_accuracy(table, h, seed=0):.3f}")

# True pairs now outscore corrupted ones decisively.
canine = h.level_classes(1)[0]
fox, cat = h.leaves[0], h.leaves[3]
true_score, false_score = pair_scores(table, [(canine, fox), (canine, cat)])
print(f"score({h.path_name(canine)} -> {h.name_of(fox)}) = {true_score:+.3f}")
print(f"score({h.path_name(canine)} -> {h.name_of(cat)}) = {false_score:+.3f}")

# Sibling structure is emergent: leaves sharing a parent cluster together.
print(f"\nsibling similarity gap {sibling_similarity_gap(table, h):+.3f}")
sim = similarity_matrix(table)
print("leaf-leaf cosine matrix:")
leaf_names = [h.name_of(y) for y in h.leaves]
print("        " + "".join(f"{n:>7s}" for n in leaf_names))
for y, name in zip(h.leaves, leaf_names):
    row = "".join(f"{sim[y, b]:7.2f}" for b in h.leaves)
    print(f"{name:>7s} {row}")

# The conditioning vector handed to the generator is just the leaf's
# complex embedding flattened to real||imag. `condition` gathers one such
# row per sample from the table's arrays held as tape tensors; a bare tape
# records nothing, which is how generation runs it.
from hiergan.autodiff import Tape, Tensor
from hiergan.embed import condition

vec = condition(Tape(), [Tensor(a) for a in table.arrays], fox).data[0]
print(f"\ncondition vector for {h.name_of(fox)}: shape {vec.shape}, norm {np.linalg.norm(vec):.3f}")
