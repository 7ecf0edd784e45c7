"""Score predictions against two label structures at once.

Shows the per-structure precision/recall/F numbers, the structure-averaged
aggregates, and the arithmetic ties between them that hold for every
three-level structure: tie_a = 2 * lca_a and f_ha = 1 - tie_a / 6.
"""

import numpy as np

from hierfusion.metrics import PredictionBatch, evaluate
from hierfusion.taxonomy import LabelStructure, StructureSet

NAMES = ("cat", "dog", "car", "bus")

by_kind = LabelStructure(
    name="kind",
    superclasses=("animal", "vehicle"),
    subclass_names=NAMES,
    parent_index=np.array([0, 0, 1, 1]),
)
by_size = LabelStructure(
    name="size",
    superclasses=("small", "large"),
    subclass_names=NAMES,
    parent_index=np.array([0, 0, 0, 1]),
)
structures = StructureSet((by_kind, by_size))

# four test samples: right, wrong-but-same-kind, wrong-kind, right
batch = PredictionBatch(
    predicted=np.array([0, 0, 3, 3]),
    truth=np.array([0, 1, 2, 3]),
    subclass_names=NAMES,
)
report = evaluate(structures, batch)

print(f"top-1 accuracy: {report.accuracy}")
for scores in report.per_structure:
    print(f"structure {scores.name!r}: p_h={scores.p_h:.4f} "
          f"r_h={scores.r_h:.4f} f_h={scores.f_h:.4f} "
          f"tie={scores.tie:.4f} lca={scores.lca:.4f}")
print(f"averaged: f_ha={report.f_ha:.6f} tie_a={report.tie_a:.6f} "
      f"lca_a={report.lca_a:.6f}")

print("\nfixed-depth identities:")
print(f"  tie_a - 2 * lca_a       = {report.tie_a - 2.0 * report.lca_a:.2e}")
print(f"  f_ha - (1 - tie_a / 6)  = {report.f_ha - (1.0 - report.tie_a / 6.0):.2e}")

# an error inside the right superclass costs less than one across groups
near = PredictionBatch(predicted=np.array([1]), truth=np.array([0]),
                       subclass_names=NAMES)
far = PredictionBatch(predicted=np.array([2]), truth=np.array([0]),
                      subclass_names=NAMES)
print("\nerror severity under the 'kind' structure:")
print(f"  dog for cat (same group):  tie = {evaluate(structures, near).per_structure[0].tie}")
print(f"  car for cat (cross group): tie = {evaluate(structures, far).per_structure[0].tie}")
