"""Frozen values are typed by their declared fields when they are built.

A config built in Python is typed like one read from a JSON document:
the same converters refuse the same values with InvalidConfig. numpy
scalars and 1-D arrays, which JSON never produces, pass as the Python
numbers and lists they stand for.
"""

import dataclasses

import numpy as np
import pytest

from hierfusion.exceptions import InvalidConfig
from hierfusion.features import SyntheticSpec
from hierfusion.model import (
    FusionConfig,
    config_from_dict,
    init_model,
    save_checkpoint,
)
from hierfusion.taxonomy import StructureSet


@pytest.mark.parametrize("make", [
    lambda: FusionConfig(epochs=2.5),
    lambda: FusionConfig(learning_rate="0.1"),
    lambda: FusionConfig(seed=-1),
    lambda: FusionConfig(epochs=True),
    lambda: FusionConfig(batch_size=np.True_),
    lambda: FusionConfig(stage_dims=np.zeros((2, 2), dtype=np.int64)),
    lambda: FusionConfig(stage_dims=range(3, 5)),
    lambda: SyntheticSpec(dim=2.5),
    lambda: SyntheticSpec(noise_scale=float("nan")),
], ids=["epochs-float", "rate-string", "seed-negative", "epochs-bool",
        "batch-numpy-bool", "stage-dims-matrix", "stage-dims-range", "dim-float",
        "noise-nan"])
def test_python_built_configs_are_typed(make):
    with pytest.raises(InvalidConfig):
        make()


def test_python_and_json_configs_refuse_alike():
    with pytest.raises(InvalidConfig, match=r"^epochs must be an integer, got 2\.5$"):
        FusionConfig(epochs=2.5)
    with pytest.raises(InvalidConfig, match=r"^model epochs must be an integer"):
        config_from_dict({"epochs": 2.5})


def test_numpy_scalars_and_vectors_are_accepted():
    config = FusionConfig(
        stage_dims=np.array([4, 3]),
        attach_stages=np.array([0], dtype=np.int32),
        lambda_total=np.float32(0.25),
        lambda_split=np.array([0.25]),
        learning_rate=np.float64(0.5),
        epochs=np.int64(2),
        batch_size=np.float64(8.0),
        seed=np.uint64(3),
    )
    assert config == FusionConfig(stage_dims=(4, 3), attach_stages=(0,),
                                  lambda_total=0.25, lambda_split=(0.25,),
                                  learning_rate=0.5, epochs=2, batch_size=8, seed=3)
    for value in dataclasses.astuple(config):
        items = value if isinstance(value, tuple) else (value,)
        assert all(type(item) in (int, float) for item in items)
    spec = SyntheticSpec(dim=np.int64(3), noise_scale=np.float32(0.5), seed=np.int8(1))
    assert (spec.dim, spec.noise_scale, spec.seed) == (3, 0.5, 1)
    assert (type(spec.dim), type(spec.noise_scale)) == (int, float)


def test_replace_keeps_the_typed_values():
    config = dataclasses.replace(FusionConfig(), stage_dims=[6, 5], epochs=3.0)
    assert config.stage_dims == (6, 5) and type(config.epochs) is int


def test_checkpoint_refuses_a_config_that_does_not_describe_the_model(tmp_path):
    config = FusionConfig(stage_dims=(4, 3))
    model = init_model(config, 2, StructureSet(()), input_dim=2)
    path = tmp_path / "model.ckpt"
    for other in (FusionConfig(stage_dims=(4, 2)), FusionConfig(stage_dims=(4, 3, 2))):
        with pytest.raises(InvalidConfig, match="does not describe"):
            save_checkpoint(model, other, path)
    assert list(tmp_path.iterdir()) == []
