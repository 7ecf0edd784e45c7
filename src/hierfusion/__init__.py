"""Hierarchical classification with fused label structures.

The toolkit covers the full loop: organize a flat subclass space under
one or more 3-level label structures (given ones, or visual structures
induced from feature statistics by spectral clustering), train a
multi-task classifier whose auxiliary heads predict each structure's
superclass, and score predictions with structure-averaged hierarchical
measures next to flat accuracy.

Everything is deterministic given explicit seeds, and every artifact
(feature files, structure files, checkpoints, reports) round-trips
exactly. The `hierfusion` command drives the same code end to end.

`__all__` is every public name bound in this file, and the trainer's
names, which load `hierfusion.model` when first read.
"""

from types import ModuleType as _ModuleType

from .config import FusionConfig
from .exceptions import *  # every error class; the module defines nothing else
from .features import (
    ClassStats,
    FeatureTable,
    SyntheticSpec,
    class_statistics,
    generate_synthetic,
    load_feature_table,
    save_feature_table,
    select_rows,
    split_rows,
    train_test_split,
)
from .metrics import (
    EvalReport,
    PredictionBatch,
    StructureScores,
    evaluate,
    load_predictions,
    save_predictions,
)
from .rng import derive_seed, rng_from_seed
from .serialization import dump_json, format_float
from .structure_builder import (
    AffinityMatrix,
    SpectralEmbedding,
    adjusted_rand_index,
    affinity_matrix,
    build_visual_structure,
    class_distance_matrix,
    kmeans,
    spectral_embedding,
    symmetric_eigen,
)
from .taxonomy import (
    LabelStructure,
    StructureSet,
    lca_heights,
    load_structure,
    load_structure_set,
    save_structure,
    validate_structure,
)

# The trainer's public names resolve on first access (PEP 562), so that
# importing the package, and every command that never trains, does not
# load model.py.
_MODEL_NAMES = (
    "FusionModel",
    "TrainHistory",
    "forward",
    "gradient_check",
    "init_model",
    "load_checkpoint",
    "predict",
    "save_checkpoint",
    "save_history",
    "train",
    "train_stacked",
)

__version__ = "0.1.0"

__all__ = sorted(
    [name for name, value in globals().items()
     if not name.startswith("_") and not isinstance(value, _ModuleType)]
    + list(_MODEL_NAMES)
)


def __getattr__(name):
    if name in _MODEL_NAMES:
        from . import model

        return getattr(model, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_MODEL_NAMES))
