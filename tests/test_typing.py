"""Frozen values are typed by their declared fields when they are built.

A config built in Python is typed like one read from a JSON document:
the same converters refuse the same values with InvalidConfig. numpy
scalars and 1-D arrays, which JSON never produces, pass as the Python
numbers and lists they stand for.
"""

import dataclasses
import os
import re

import numpy as np
import pytest

from hierfusion.cli import (
    BuilderParams,
    ExperimentConfig,
    SplitParams,
    SweepParams,
    experiment_config_from_dict,
)
from hierfusion.exceptions import DimensionMismatch, InvalidConfig, InvalidValue
from hierfusion.features import (
    ClassStats,
    FeatureTable,
    SyntheticSpec,
    load_feature_table,
    save_feature_table,
    train_test_split,
)
from hierfusion.metrics import PredictionBatch, load_predictions, save_predictions
from hierfusion.model import (
    FusionConfig,
    forward,
    init_model,
    TrainHistory,
    load_checkpoint,
    save_checkpoint,
    save_history,
)
from hierfusion.rng import derive_seed, rng_from_seed
from hierfusion.structure_builder import (
    affinity_matrix,
    kmeans,
    spectral_embedding,
    symmetric_eigen,
)
from hierfusion.taxonomy import (
    LabelStructure,
    StructureSet,
    lca_heights,
    load_structure,
    save_structure,
)


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
    lambda: SplitParams(fraction="abc"),
    lambda: SplitParams(fraction=0.5, seed=-3),
    lambda: BuilderParams(k="x"),
    lambda: BuilderParams(delta=True),
    lambda: SweepParams(axis="lambda", values=(0.1,), seeds=(1.5,)),
    lambda: ExperimentConfig(seed="x"),
    lambda: ExperimentConfig(structures="a.json"),
    lambda: ExperimentConfig(builder={"k": "x"}),
    lambda: ExperimentConfig(model={"epochs": 2.5}),
    lambda: ExperimentConfig(builder={"k": 2}),
    lambda: ExperimentConfig(model=None),
    lambda: ExperimentConfig(split=0.5),
    lambda: ExperimentConfig(sweep=BuilderParams()),
], ids=["epochs-float", "rate-string", "seed-negative", "epochs-bool",
        "batch-numpy-bool", "stage-dims-matrix", "stage-dims-range", "dim-float",
        "noise-nan", "split-fraction-text", "split-seed-negative", "builder-k-text",
        "builder-delta-bool", "sweep-seed-float", "experiment-seed-text",
        "experiment-structures-string", "experiment-builder-dict-text",
        "experiment-model-dict-float", "experiment-builder-dict", "experiment-model-none",
        "experiment-split-number", "experiment-sweep-other-section"])
def test_python_built_configs_are_typed(make):
    with pytest.raises(InvalidConfig):
        make()


def test_python_and_json_configs_refuse_alike():
    with pytest.raises(InvalidConfig, match=r"^epochs must be an integer, got 2\.5$"):
        FusionConfig(epochs=2.5)
    with pytest.raises(InvalidConfig, match=r"^model epochs must be an integer"):
        experiment_config_from_dict({"model": {"epochs": 2.5}})
    with pytest.raises(InvalidConfig, match=r"^seed must be a non-negative integer"):
        SplitParams(fraction=0.5, seed=-3)
    with pytest.raises(InvalidConfig, match=r"^split seed must be a non-negative integer"):
        experiment_config_from_dict({"split": {"fraction": 0.5, "seed": -3}})


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
    model = init_model(config, StructureSet(()), 2, ("c0", "c1"))
    path = tmp_path / "model.ckpt"
    for other in (FusionConfig(stage_dims=(4, 2)), FusionConfig(stage_dims=(4, 3, 2))):
        with pytest.raises(InvalidConfig, match="does not describe"):
            save_checkpoint(model, other, path)
    assert list(tmp_path.iterdir()) == []


_STATS = ClassStats(means=[[0.0], [1.0], [3.0]], variances=[0.0, 0.0, 0.0])
_POINTS = np.array([[0.0], [1.0], [3.0]])
_TABLE = FeatureTable(np.arange(8.0).reshape(4, 2), [0, 0, 1, 1], ("a", "b"))
_STRUCTURE = LabelStructure("a", ("s0", "s1"), ("c0", "c1"), [0, 1])
_CONFIG = FusionConfig(stage_dims=(4, 2))
_MODEL = init_model(_CONFIG, StructureSet(()), 2, ("c0", "c1"))


@pytest.mark.parametrize("call, argument", [
    (lambda: affinity_matrix(_STATS, delta="x"), "delta"),
    (lambda: affinity_matrix(_STATS, delta=float("nan")), "delta"),
    (lambda: spectral_embedding(affinity_matrix(_STATS), k="2"), "k"),
    (lambda: kmeans(_POINTS, k="2"), "k"),
    (lambda: kmeans(_POINTS, 2, seed=-1), "seed"),
    (lambda: kmeans(_POINTS, 2, seed=1.5), "seed"),
    (lambda: train_test_split(_TABLE, fraction="0.5", seed=0), "fraction"),
    (lambda: train_test_split(_TABLE, 0.5, seed=None), "seed"),
    (lambda: derive_seed(1.5, 0), "seed"),
    (lambda: derive_seed(1, -1), "stream index"),
    (lambda: rng_from_seed(-1), "seed"),
    (lambda: rng_from_seed(True), "seed"),
    (lambda: load_feature_table("features.csv", "ab"), "subclass_names"),
    (lambda: load_predictions("predictions.csv", "ab"), "subclass_names"),
    (lambda: init_model(_CONFIG, StructureSet(()), 3.9, ("c0", "c1")), "input_dim"),
    (lambda: init_model(_CONFIG, StructureSet(()), True, ("c0", "c1")), "input_dim"),
    (lambda: init_model(_CONFIG, StructureSet(()), "3", ("c0", "c1")), "input_dim"),
    (lambda: init_model(_CONFIG, StructureSet(()), 3, 5), "subclass_names"),
], ids=["delta-str", "delta-nan", "embedding-k", "kmeans-k", "kmeans-seed-negative",
        "kmeans-seed-fractional", "split-fraction", "split-seed", "derive-seed-fractional",
        "derive-seed-negative-stream", "rng-seed-negative", "rng-seed-bool",
        "feature-loader-names-string", "prediction-loader-names-string",
        "init-input-dim-fractional", "init-input-dim-bool", "init-input-dim-text",
        "init-names-number"])
def test_library_scalar_arguments_are_typed(call, argument):
    with pytest.raises(InvalidConfig, match=f"^{argument} "):
        call()


@pytest.mark.parametrize("call", [
    lambda path: load_structure(path),
    lambda path: load_checkpoint(path),
    lambda path: load_predictions(path, ("a", "b")),
    lambda path: load_feature_table(path),
    lambda path: save_structure(_STRUCTURE, path),
    lambda path: save_checkpoint(_MODEL, _CONFIG, path),
    lambda path: save_feature_table(_TABLE, path),
], ids=["load-structure", "load-checkpoint", "load-predictions", "load-features",
        "save-structure", "save-checkpoint", "save-features"])
def test_library_file_paths_are_typed(tmp_path, call):
    # open() takes an integer as a file descriptor, which a loader would read
    # and close; a path follows the config's path rule instead
    with open(tmp_path / "open.bin", "wb") as fh:
        with pytest.raises(InvalidConfig, match="^'path' must be a file path, got"):
            call(fh.fileno())
        os.fstat(fh.fileno())  # the caller's descriptor is still open
    for other in (b"file.json", None, ""):
        with pytest.raises(InvalidConfig, match="^'path' must be a file path, got"):
            call(other)


@pytest.mark.parametrize("save", [
    lambda path: save_structure(_STRUCTURE, path),
    lambda path: save_feature_table(_TABLE, path),
    lambda path: save_checkpoint(_MODEL, _CONFIG, path),
    lambda path: save_history(TrainHistory(np.zeros((1, 3)), ()), path),
    lambda path: save_predictions(PredictionBatch([0], [1], ("a", "b")), path),
], ids=["structure", "features", "checkpoint", "history", "predictions"])
@pytest.mark.parametrize("path", ["/", ".", "./"])
def test_writers_refuse_a_path_with_no_final_name(tmp_path, monkeypatch, save, path):
    # a file is replaced through a sibling of its name, which such a path lacks
    monkeypatch.chdir(tmp_path)
    message = f"'path' must be a file path, got '{path}'"
    with pytest.raises(InvalidConfig, match=f"^{re.escape(message)}$"):
        save(path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("make, message", [
    (lambda: LabelStructure("a", ("s0", "s1"), ("c0", "c1"), [0, 1.7]),
     r"^parent_index must hold integers, got 1\.7$"),
    (lambda: FeatureTable(np.zeros((2, 1)), [0.5, 1.9], ("a", "b")),
     r"^labels must hold integers, got 0\.5$"),
    (lambda: LabelStructure("a", ("s0",), ("c0",), ["x"]), r"^parent_index must hold"),
    (lambda: LabelStructure("a", ("s0",), ("c0",), ["0"]), r"^parent_index must hold"),
    (lambda: LabelStructure("a", ("s0",), ("c0",), [True]), r"^parent_index must hold"),
    (lambda: FeatureTable(np.zeros((1, 1)), [float("nan")], ("a",)), r"^labels must hold"),
    (lambda: FeatureTable(np.zeros((1, 1)), [2.0 ** 63], ("a",)), r"^labels must hold"),
    (lambda: FeatureTable(np.zeros((1, 1)), np.array([2 ** 64 - 1], dtype=np.uint64),
                          ("a",)), r"^labels must hold"),
    (lambda: FeatureTable([[0.0], [0.0, 1.0]], [0, 0], ("a",)), r"^features must hold"),
    (lambda: FeatureTable([["x"]], [0], ("a",)), r"^features must hold"),
    (lambda: symmetric_eigen([["a"]]), r"^matrix must hold numbers$"),
    (lambda: kmeans([["a"]], 1), r"^k-means points must hold numbers$"),
    (lambda: kmeans([[0.0], [1.0, 2.0]], 1), r"^k-means points must hold numbers$"),
    (lambda: lca_heights(_STRUCTURE, [0.9], [0]), r"^subclass ids must hold integers, got 0\.9$"),
    (lambda: lca_heights(_STRUCTURE, [0], ["1"]), r"^predicted subclass ids must hold"),
    (lambda: FeatureTable([["1.5"]], [0], ("a",)), r"^features must hold numbers, got <U3"),
    (lambda: symmetric_eigen([["2"]]), r"^matrix must hold numbers, got <U1 entries$"),
    (lambda: kmeans(["0", "1"], 2), r"^k-means points must hold numbers, got <U1"),
    # complex entries, even with no imaginary part, are refused before a
    # cast that would warn and drop the imaginary part
    (lambda: FeatureTable([[1 + 0j]], [0], ("a",)),
     r"^features must hold numbers, got complex128 entries$"),
    (lambda: FeatureTable(np.zeros((1, 1)), np.array([0j], np.complex64), ("a",)),
     r"^labels must hold integers, got complex64 entries$"),
    (lambda: LabelStructure("a", ("s0", "s1"), ("c0", "c1"), [0, 1j]),
     r"^parent_index must hold integers, got complex128 entries$"),
    (lambda: symmetric_eigen(np.eye(2, dtype=complex)),
     r"^matrix must hold numbers, got complex128 entries$"),
    (lambda: kmeans(_POINTS + 2j, 1), r"^k-means points must hold numbers, got complex128"),
    (lambda: lca_heights(_STRUCTURE, [0j], [0]),
     r"^subclass ids must hold integers, got complex128 entries$"),
    (lambda: forward(_MODEL, [1 + 2j, 0]), r"^inputs must hold numbers, got complex128"),
], ids=["fraction-parent", "fraction-labels", "text", "digit-text", "bool", "nan",
        "past-int64-float", "past-int64-uint", "ragged", "text-features", "eigen-text",
        "kmeans-text", "kmeans-ragged", "lca-fraction", "lca-text", "numeric-text-features",
        "eigen-numeric-text", "kmeans-numeric-text", "complex-features", "complex-labels",
        "complex-parent", "complex-eigen", "complex-kmeans", "complex-lca",
        "complex-inputs"])
def test_array_fields_refuse_entries_that_are_not_their_numbers(make, message):
    with pytest.raises(InvalidValue, match=message):
        make()


@pytest.mark.parametrize("call, message", [
    (lambda: kmeans(np.zeros((3, 2, 1)), 1), r"^k-means points must be 1-D or 2-D, got 3-D$"),
    (lambda: lca_heights(_STRUCTURE, [0, 1], [0]), r"^subclass ids of shape \(2,\) and \(1,\)$"),
    (lambda: lca_heights(_STRUCTURE, [[0, 1]], [0, 1]), r"^subclass ids of shape"),
], ids=["kmeans-3d", "lca-lengths", "lca-axes"])
def test_array_arguments_of_the_wrong_shape_are_dimension_mismatches(call, message):
    with pytest.raises(DimensionMismatch, match=message):
        call()


def test_integer_array_fields_take_integral_numbers():
    structure = LabelStructure("a", ("s0", "s1"), ("c0", "c1"), [0, 1.0])
    assert structure.parent_index.dtype == np.int64
    assert structure.parent_index.tolist() == [0, 1]
    table = FeatureTable(np.zeros((2, 1)), np.array([1, 0], dtype=np.uint8), ("a", "b"))
    assert table.labels.tolist() == [1, 0]
