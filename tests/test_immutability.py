"""Frozen values hold read-only arrays that no caller can change.

Every array a value type stores is its own read-only copy: writing to it
raises, and changing the array the caller passed in afterwards leaves the
stored value as it was.
"""

import dataclasses

import numpy as np
import pytest

from hierfusion.features import FeatureTable, class_statistics
from hierfusion.metrics import PredictionBatch
from hierfusion.model import FusionConfig, train
from hierfusion.structure_builder import affinity_matrix, spectral_embedding
from hierfusion.taxonomy import StructureSet, validate_structure


def _table():
    rng = np.random.default_rng(0)
    labels = np.repeat(np.arange(4), 5)
    features = rng.standard_normal((20, 3)) + 3.0 * labels[:, None]
    return FeatureTable(features=features, labels=labels)


def _structure():
    return validate_structure("s", ["u", "v"], ["a", "b", "c", "d"],
                              {"a": "u", "b": "u", "c": "v", "d": "v"})


def _trained():
    config = FusionConfig(stage_dims=(4, 3), attach_stages=(0,), lambda_total=0.1,
                          epochs=2, batch_size=8)
    return train(config, _table(), StructureSet((_structure(),)))


def _affinity():
    return affinity_matrix(class_statistics(_table()))


VALUES = {
    "FeatureTable": _table,
    "ClassStats": lambda: class_statistics(_table()),
    "PredictionBatch": lambda: PredictionBatch(predicted=np.array([0, 2, 1]),
                                               truth=np.array([0, 1, 1])),
    "AffinityMatrix": _affinity,
    "SpectralEmbedding": lambda: spectral_embedding(_affinity(), 2),
    "FusionModel": lambda: _trained()[0],
    "TrainHistory": lambda: _trained()[1],
    "LabelStructure": _structure,
}


def _arrays(value):
    """The arrays in `value`, a field value that may be a tuple of them."""
    items = value if isinstance(value, tuple) else (value,)
    return [item for item in items if isinstance(item, np.ndarray)]


def _held(obj):
    return [a for f in dataclasses.fields(obj) for a in _arrays(getattr(obj, f.name))]


def _writable(value):
    if isinstance(value, np.ndarray):
        return value.copy()
    if isinstance(value, tuple):
        return tuple(_writable(item) for item in value)
    return value


@pytest.mark.parametrize("make", VALUES.values(), ids=VALUES.keys())
def test_held_arrays_are_read_only(make):
    held = _held(make())
    assert held
    for arr in held:
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr.fill(0)


# LabelStructure is built only through validate_structure, which owns the
# parent_index it passes in.
@pytest.mark.parametrize("name", [name for name in VALUES if name != "LabelStructure"])
def test_changing_the_callers_arrays_leaves_the_value_unchanged(name):
    original = VALUES[name]()
    fields = {f.name: _writable(getattr(original, f.name))
              for f in dataclasses.fields(original)}
    rebuilt = type(original)(**fields)
    for field in fields.values():
        for arr in _arrays(field):
            arr += 1
    held = _held(rebuilt)
    assert len(held) == len(_held(original))
    for arr, before in zip(held, _held(original)):
        assert not arr.flags.writeable
        np.testing.assert_array_equal(arr, before)
