"""Walk through structure induction: statistics, affinity, clustering.

Generates a synthetic feature table with a planted two-level grouping,
then rebuilds that grouping from the features alone and checks the two
partitions agree exactly. The table carries the planted subclass names,
so the statistics and the rebuilt structure cover the same id space.
"""

import numpy as np

from hierfusion.features import SyntheticSpec, class_statistics, generate_synthetic
from hierfusion.structure_builder import (
    adjusted_rand_index,
    affinity_matrix,
    build_visual_structure,
    class_distance_matrix,
)

spec = SyntheticSpec(
    superclass_count=3,
    subclasses_per_superclass=4,
    samples_per_subclass=80,
    dim=8,
    superclass_separation=9.0,
    subclass_separation=2.5,
    noise_scale=0.8,
    seed=42,
)
table, planted = generate_synthetic(spec)
print(f"synthetic table: {table.count} samples, {table.dim} dims, "
      f"{len(planted.subclass_names)} subclasses")
grouping = {name: int(parent) for name, parent
            in zip(planted.subclass_names, planted.parent_index)}
print(f"planted grouping: {grouping}")

stats = class_statistics(table)
distances = class_distance_matrix(stats)
print("\nclass distances (same-group pairs should be the small entries):")
with np.printoptions(precision=1, suppress=True):
    print(distances)

affinity = affinity_matrix(stats)
print("\naffinity row for subclass c0 (high = similar):")
with np.printoptions(precision=4, suppress=True):
    print(affinity.values[0])

built = build_visual_structure(table, k=3, seed=0)
print(f"\nrecovered structure {built.name!r}:")
for j, super_name in enumerate(built.superclasses):
    members = [name for name, parent in
               zip(built.subclass_names, built.parent_index) if parent == j]
    print(f"  {built.name}/{super_name}: {members}")

ari = adjusted_rand_index(built.parent_index, planted.parent_index)
print(f"\nadjusted Rand index vs planted grouping: {ari}")
assert ari == 1.0
