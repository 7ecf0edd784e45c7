"""Frozen values hold read-only arrays that no caller can change.

Every array a value type stores is its own C-ordered, read-only copy with
the number of axes its field declares: writing to it raises, and changing
the array the caller passed in afterwards leaves the stored value as it
was.
"""

import dataclasses

import numpy as np
import pytest

from hierfusion.exceptions import DimensionMismatch
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


def _mapped(value, change):
    """`value` with `change` applied to each array in it."""
    if isinstance(value, np.ndarray):
        return change(value)
    if isinstance(value, tuple):
        return tuple(_mapped(item, change) for item in value)
    return value


def _writable(value):
    return _mapped(value, np.copy)


@pytest.mark.parametrize("make", VALUES.values(), ids=VALUES.keys())
def test_held_arrays_are_read_only(make):
    held = _held(make())
    assert held
    for arr in held:
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr.fill(0)


@pytest.mark.parametrize("name", VALUES)
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


@pytest.mark.parametrize("name", VALUES)
def test_held_arrays_are_c_ordered(name):
    original = VALUES[name]()
    rebuilt = type(original)(**{f.name: _mapped(getattr(original, f.name),
                                                np.asfortranarray)
                                for f in dataclasses.fields(original)})
    for arr, before in zip(_held(rebuilt), _held(original)):
        assert arr.flags.c_contiguous
        np.testing.assert_array_equal(arr, before)


@pytest.mark.parametrize("name", VALUES)
def test_an_array_with_an_extra_axis_is_a_dimension_mismatch(name):
    original = VALUES[name]()
    for field in dataclasses.fields(original):
        value = getattr(original, field.name)
        if not _arrays(value):
            continue
        fields = {f.name: getattr(original, f.name) for f in dataclasses.fields(original)}
        fields[field.name] = _mapped(value, lambda arr: arr[None])
        with pytest.raises(DimensionMismatch, match=f"{field.name}.* got"):
            type(original)(**fields)
