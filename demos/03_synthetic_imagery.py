"""
A desk-scale image corpus with built-in ancestry
================================================

The benchmark data is synthetic on purpose: every 16x16 image is a rendered
gaussian blob whose shape parameters drift down the label tree, so siblings
look alike and cousins do not, and the whole corpus is a pure function of a
seed. A split is three parallel arrays, row i being one sample: the 16x16
images, their exact 8x8 average-pooled versions, which the coarse training
stage consumes, and the leaf labels.
"""

import numpy as np

from hiergan.hierarchy import FIXTURE_TREE, parse_hierarchy
from hiergan.synthdata import (
    default_dataset_spec,
    downsample,
    generate_dataset,
    leaf_prototypes,
    prototype_distance,
    render_params,
)

h = parse_hierarchy(FIXTURE_TREE)
spec = default_dataset_spec(h, samples_per_leaf=50, seed=0)
data = generate_dataset(spec)
print(f"train {len(data.train)} samples, test {len(data.test)} samples, "
      f"{spec.samples_per_leaf} per leaf before the 80/20 split")

# The low-res channel is exactly the pooled high-res image, not a re-render.
print(f"train arrays: hi {data.train.hi.shape}, lo {data.train.lo.shape}, leaf {data.train.leaf.shape}")
assert np.array_equal(data.train.lo, downsample(data.train.hi))
print("lo == mean-pool(hi) holds exactly")


def ascii_image(img: np.ndarray) -> list[str]:
    ramp = " .:-=+*#%@"
    idx = np.clip(img * (len(ramp) - 1), 0, len(ramp) - 1).astype(int)
    return ["".join(ramp[v] for v in row) for row in idx]


# One prototype render per leaf, side by side: the canine family leans one
# way, the feline family the other, and siblings are near-copies.
protos = leaf_prototypes(spec)
renders = {y: ascii_image(render_params(protos[y])) for y in h.leaves}
names = [h.name_of(y) for y in h.leaves]
print()
print("  ".join(f"{n:^16s}" for n in names))
for r in range(16):
    print("  ".join(renders[y][r] for y in h.leaves))

# The family structure is measurable in parameter space.
print("\nprototype distances (scale-normalized):")
fox, wolf, cat = h.leaves[0], h.leaves[1], h.leaves[3]
print(f"  {h.name_of(fox)} vs {h.name_of(wolf)} (siblings): "
      f"{prototype_distance(protos[fox], protos[wolf]):.2f}")
print(f"  {h.name_of(fox)} vs {h.name_of(cat)} (cousins):  "
      f"{prototype_distance(protos[fox], protos[cat]):.2f}")

# Regenerating from the same spec is bit-identical.
again = generate_dataset(default_dataset_spec(h, samples_per_leaf=50, seed=0))
assert np.array_equal(data.train.hi, again.train.hi)
print("\nregeneration from the same seed is bit-identical")
