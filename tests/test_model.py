"""Fusion model: configuration, initialization, forward/loss/backward,
training, prediction, the finite-difference gradient check, and checkpoints."""

import contextlib
import math
import threading
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest

from hierfusion import model as model_module
from hierfusion.exceptions import (
    CheckpointError,
    ClassTooSmall,
    DimensionMismatch,
    DivergedLoss,
    InvalidConfig,
    InvalidValue,
    NonFiniteValue,
    SubclassSpaceMismatch,
    UnknownLabel,
    UnknownSuperclass,
)
from hierfusion.cli import experiment_config_from_dict
from hierfusion.features import FeatureTable, select_rows
from hierfusion.model import (
    FusionConfig,
    FusionModel,
    TrainHistory,
    forward,
    gradient_check,
    init_model,
    load_checkpoint,
    predict,
    save_checkpoint,
    save_history,
    train,
    train_stacked,
)
from hierfusion.taxonomy import LabelStructure, StructureSet, validate_structure
from oracles import multi_task_loss as oracle_loss
from test_features import counted_forks

N_SUB = 4
SUB_NAMES = ("c0", "c1", "c2", "c3")


def structure_pairwise(name="pairs"):
    return validate_structure(
        name=name,
        superclasses=["s0", "s1"],
        subclass_names=SUB_NAMES,
        parent_of={"c0": "s0", "c1": "s0", "c2": "s1", "c3": "s1"},
    )


def structure_skewed(name="skewed"):
    return validate_structure(
        name=name,
        superclasses=["u0", "u1", "u2"],
        subclass_names=SUB_NAMES,
        parent_of={"c0": "u0", "c1": "u1", "c2": "u1", "c3": "u2"},
    )


ONE = StructureSet((structure_pairwise(),))
TWO = StructureSet((structure_pairwise(), structure_skewed()))
NONE = StructureSet(())


def zero_model(d=3, widths=(4, 3), supers=(2,), attach=(0,)):
    trunk_w = []
    dims = (d,) + widths
    for i in range(len(widths)):
        trunk_w.append(np.zeros((dims[i], dims[i + 1])))
    return FusionModel(
        trunk_weights=tuple(trunk_w),
        trunk_biases=tuple(np.zeros(w) for w in widths),
        subclass_weight=np.zeros((widths[-1], N_SUB)),
        subclass_bias=np.zeros(N_SUB),
        super_weights=tuple(np.zeros((widths[s], c))
                            for s, c in zip(attach, supers)),
        super_biases=tuple(np.zeros(c) for c in supers),
        attach_stages=attach,
        subclass_names=SUB_NAMES,
        structure_names=tuple(f"h{m}" for m in range(len(supers))),
    )


def toy_table(rng, n=48):
    feats = rng.normal(size=(n, 3))
    labels = np.arange(n) % N_SUB
    return FeatureTable(features=feats, labels=labels, subclass_names=SUB_NAMES)


# -- configuration -------------------------------------------------------------

def test_config_defaults_and_lambda_bounds():
    config = FusionConfig()
    assert config.structure_count == 0
    assert config.lambdas == ()
    FusionConfig(attach_stages=(0,), lambda_total=0.999)
    with pytest.raises(InvalidConfig):
        FusionConfig(attach_stages=(0,), lambda_total=1.0)
    with pytest.raises(InvalidConfig):
        FusionConfig(attach_stages=(0,), lambda_total=-0.1)


def test_config_attach_stage_bounds():
    FusionConfig(stage_dims=(8, 8, 8), attach_stages=(0, 2))
    with pytest.raises(InvalidConfig):
        FusionConfig(stage_dims=(8, 8, 8), attach_stages=(5,))
    with pytest.raises(InvalidConfig):
        FusionConfig(stage_dims=(8,))


def test_config_lambda_split_rules():
    config = FusionConfig(attach_stages=(0, 1), lambda_total=0.15)
    assert config.lambdas == (0.075, 0.075)
    explicit = FusionConfig(attach_stages=(0, 1), lambda_total=0.3,
                            lambda_split=(0.2, 0.1))
    assert explicit.lambdas == (0.2, 0.1)
    with pytest.raises(InvalidConfig):
        FusionConfig(attach_stages=(0, 1), lambda_total=0.3,
                     lambda_split=(0.3,))
    with pytest.raises(InvalidConfig):
        FusionConfig(attach_stages=(0, 1), lambda_total=0.3,
                     lambda_split=(0.4, -0.1))
    with pytest.raises(InvalidConfig):
        FusionConfig(attach_stages=(0, 1), lambda_total=0.3,
                     lambda_split=(0.2, 0.2))


def test_config_headless_lambda_and_optimizer_bounds():
    with pytest.raises(InvalidConfig):
        FusionConfig(attach_stages=(), lambda_total=0.1)
    with pytest.raises(InvalidConfig):
        FusionConfig(learning_rate=0.0)
    with pytest.raises(InvalidConfig):
        FusionConfig(epochs=0)
    with pytest.raises(InvalidConfig):
        FusionConfig(batch_size=0)


def test_config_dict_round_trip(tmp_path):
    # through the two routes a config takes as JSON: a checkpoint header
    # (which load_checkpoint compares with the one it rebuilds), and the
    # experiment document's `model` section
    config = FusionConfig(stage_dims=(8, 4), attach_stages=(1,),
                          lambda_total=0.2, learning_rate=0.05,
                          epochs=7, batch_size=16, seed=3)
    path = tmp_path / "model.ckpt"
    save_checkpoint(init_model(config, ONE, 3, SUB_NAMES), config, path)
    assert load_checkpoint(path)[1] == config
    document = {"model": asdict(config)}
    assert experiment_config_from_dict(document).model == config
    assert experiment_config_from_dict({"model": {"epochs": 3, "seed": 0}}).model == (
        FusionConfig(epochs=3)
    )
    with pytest.raises(InvalidConfig, match="unknown model config fields"):
        experiment_config_from_dict({"model": {"momentum": 0.9}})
    with pytest.raises(InvalidConfig):
        experiment_config_from_dict({"model": "not a dict"})


# -- initialization -------------------------------------------------------------

def test_init_deterministic_and_scaled():
    config = FusionConfig(stage_dims=(6, 5), attach_stages=(0, 1),
                          lambda_total=0.2, seed=11)
    a = init_model(config, TWO, 3, SUB_NAMES)
    b = init_model(config, TWO, 3, SUB_NAMES)
    for w1, w2 in zip(a.trunk_weights, b.trunk_weights):
        assert np.array_equal(w1, w2)
    assert np.array_equal(a.subclass_weight, b.subclass_weight)
    for w in a.trunk_weights:
        assert np.abs(w).max() <= 1.0 / math.sqrt(w.shape[0])
    for bias in a.trunk_biases + (a.subclass_bias,) + a.super_biases:
        assert np.all(bias == 0.0)
    assert a.superclass_counts == (2, 3)
    assert a.structure_names == ("pairs", "skewed")


def test_init_without_structures():
    config = FusionConfig(stage_dims=(6, 5), seed=1)
    model = init_model(config, NONE, 3, SUB_NAMES)
    assert model.super_weights == ()
    assert model.subclass_names == SUB_NAMES
    assert model.input_dim == 3
    assert model.subclass_count == N_SUB


def test_init_shares_draws_with_smaller_head_set():
    # adding a superclass head must not disturb the trunk or subclass draws
    base = FusionConfig(stage_dims=(6, 5), seed=4)
    fused = FusionConfig(stage_dims=(6, 5), attach_stages=(0,),
                         lambda_total=0.1, seed=4)
    plain = init_model(base, NONE, 3, SUB_NAMES)
    headed = init_model(fused, ONE, 3, SUB_NAMES)
    for w1, w2 in zip(plain.trunk_weights, headed.trunk_weights):
        assert np.array_equal(w1, w2)
    assert np.array_equal(plain.subclass_weight, headed.subclass_weight)


def test_init_rejects_mismatches():
    config = FusionConfig(attach_stages=(0,), lambda_total=0.1)
    with pytest.raises(InvalidConfig):
        init_model(config, NONE, 3, SUB_NAMES)
    with pytest.raises(InvalidConfig):
        init_model(FusionConfig(), NONE, 3, ("c0",))
    with pytest.raises(SubclassSpaceMismatch):
        init_model(config, ONE, 3, tuple(f"c{i}" for i in range(9)))
    with pytest.raises(SubclassSpaceMismatch):
        init_model(config, ONE, 3, ("w", "x", "y", "z"))


# -- forward --------------------------------------------------------------------

def test_forward_zero_model_gives_zero_logits():
    model = zero_model()
    sub, supers = forward(model, np.ones(3))
    assert np.all(sub == 0.0)
    assert len(supers) == 1
    assert np.all(supers[0] == 0.0)


def test_forward_batch_matches_single():
    rng = np.random.default_rng(2)
    config = FusionConfig(stage_dims=(5, 4), attach_stages=(0, 1),
                          lambda_total=0.2, seed=2)
    model = init_model(config, TWO, 3, SUB_NAMES)
    x = rng.normal(size=(6, 3))
    sub_batch, supers_batch = forward(model, x)
    assert sub_batch.shape == (6, N_SUB)
    for i in range(6):
        sub_i, supers_i = forward(model, x[i])
        # batched and single matmuls may differ in the last ulp
        np.testing.assert_allclose(sub_batch[i], sub_i, rtol=1e-12, atol=1e-15)
        for m in range(2):
            np.testing.assert_allclose(supers_batch[m][i], supers_i[m],
                                       rtol=1e-12, atol=1e-15)


def test_forward_attach_stage_changes_head_input():
    # same trunk and head weights, head moved from stage 0 to stage 1
    rng = np.random.default_rng(3)
    w0 = rng.normal(size=(3, 4))
    w1 = rng.normal(size=(4, 4))
    head = rng.normal(size=(4, 2))
    shared = dict(
        trunk_weights=(w0, w1),
        trunk_biases=(np.zeros(4), np.zeros(4)),
        subclass_weight=rng.normal(size=(4, N_SUB)),
        subclass_bias=np.zeros(N_SUB),
        super_weights=(head,),
        super_biases=(np.zeros(2),),
        subclass_names=SUB_NAMES,
        structure_names=("h",),
    )
    early = FusionModel(attach_stages=(0,), **shared)
    late = FusionModel(attach_stages=(1,), **shared)
    x = rng.normal(size=3)
    _, (sup_early,) = forward(early, x)
    _, (sup_late,) = forward(late, x)
    assert not np.allclose(sup_early, sup_late)


@pytest.mark.parametrize("field, value, name", [
    ("trunk_weights", (np.zeros((3, 4)), np.zeros((5, 3))), "trunk.1.weight"),
    ("trunk_biases", (np.zeros(4), np.zeros(4)), "trunk.1.bias"),
    ("subclass_weight", np.zeros((3, N_SUB + 1)), "subclass_head.weight"),
    ("super_weights", (np.zeros((3, 2)),), "super_head.0.weight"),
    ("super_biases", (np.zeros(3),), "super_head.0.bias"),
])
def test_a_model_names_its_first_tensor_that_does_not_fit(field, value, name):
    model = zero_model()  # input 3, stages (4, 3), a 2-way head at stage 0
    with pytest.raises(DimensionMismatch, match=rf"^{name} has shape"):
        replace(model, **{field: value})


def test_forward_checks_input_dim():
    with pytest.raises(DimensionMismatch):
        forward(zero_model(d=3), np.ones(5))


@pytest.mark.parametrize("x, error", [
    ([[0.5, 1.0, 2.0], [1.0, np.nan, 0.0]], NonFiniteValue),
    (np.array([1.0, -np.inf, 0.0]), NonFiniteValue),
    ([["1.5", "0", "0"]], InvalidValue),
    ([[True, False, True]], InvalidValue),
    ("abc", InvalidValue),
    ([[1.0, 2.0, 3.0], [1.0, 2.0]], InvalidValue),
], ids=["nan-row", "infinity", "numeric-text", "bools", "text", "ragged"])
@pytest.mark.parametrize("apply", [forward, predict], ids=["forward", "predict"])
def test_forward_and_predict_refuse_what_an_array_field_refuses(apply, x, error):
    # a NaN row was predicted as subclass 0, and text such as "1.5" read
    # as a number, where every array field refuses both
    with pytest.raises(error):
        apply(zero_model(d=3), x)


def test_forward_reads_a_float64_c_ordered_input_in_place(monkeypatch):
    seen = []
    logits = model_module._logits
    monkeypatch.setattr(model_module, "_logits",
                        lambda params, x: seen.append(x) or logits(params, x))
    model = zero_model(d=3)
    batch, row = np.ones((4, 3)), np.ones(3)
    forward(model, batch)
    predict(model, row)
    assert seen[0] is batch and np.shares_memory(seen[1], row)
    assert batch.flags.writeable and row.flags.writeable
    # integers are numbers: converted, and predicted like their floats
    assert np.array_equal(predict(model, [[1, 2, 3]]), predict(model, [[1.0, 2.0, 3.0]]))


# -- loss -----------------------------------------------------------------------
#
# The loss is the oracle's row-by-row sum from the paper's definition; the
# oracle is checked here against closed forms, and training's measured
# loss is checked against it.

def test_loss_uniform_logits_closed_form():
    model = zero_model(supers=(2,), attach=(0,))
    x = np.ones((8, 3))
    y = np.arange(8) % N_SUB
    y_super = np.asarray(structure_pairwise().parent_index)[y]
    breakdown = oracle_loss(forward(model, x), y, [y_super], (0.1,))
    expected = 0.9 * math.log(4.0) + 0.1 * math.log(2.0)
    assert abs(breakdown.total - expected) < 1e-12
    assert abs(breakdown.subclass - math.log(4.0)) < 1e-12
    assert abs(breakdown.per_structure[0] - math.log(2.0)) < 1e-12


def test_loss_lambda_zero_reduces_to_subclass_term():
    model = zero_model(supers=(), attach=())
    x = np.ones((4, 3))
    y = np.arange(4) % N_SUB
    breakdown = oracle_loss(forward(model, x), y, [], ())
    assert breakdown.total == breakdown.subclass
    assert breakdown.per_structure == ()


def test_loss_decomposition_identity():
    # every epoch of a training history: total = (1 - lambda) * subclass
    # + sum_m lambda_m * superclass m
    rng = np.random.default_rng(8)
    config = FusionConfig(stage_dims=(5, 4), attach_stages=(0, 1),
                          lambda_total=0.15, lambda_split=(0.1, 0.05),
                          epochs=4, batch_size=8, seed=8)
    _, history = train(config, toy_table(rng), TWO)
    recomposed = (1.0 - config.lambda_total) * history.subclass_loss + (
        history.super_losses @ np.array(config.lambdas)
    )
    np.testing.assert_allclose(history.total_loss, recomposed, rtol=1e-12)


def test_loss_logit_shift_invariance():
    rng = np.random.default_rng(9)
    config = FusionConfig(stage_dims=(4, 3), attach_stages=(0,),
                          lambda_total=0.2, seed=9)
    model = init_model(config, ONE, 3, SUB_NAMES)
    x = rng.normal(size=(6, 3))
    y = rng.integers(0, N_SUB, size=6)
    y_super = np.asarray(ONE[0].parent_index)[y]
    sub, supers = forward(model, x)
    base = oracle_loss((sub, supers), y, [y_super], config.lambdas)
    shifted = oracle_loss(
        (sub + 100.0, tuple(s + 100.0 for s in supers)), y, [y_super],
        config.lambdas,
    )
    assert abs(base.total - shifted.total) < 1e-12


def _stack_of_three():
    lambdas = ((0.0, 0.0), (0.2, 0.1), (0.05, 0.45))
    return [FusionConfig(stage_dims=(5, 4), attach_stages=(0, 1),
                         lambda_total=a + b, lambda_split=(a, b), epochs=2,
                         batch_size=64, seed=70 + r)
            for r, (a, b) in enumerate(lambdas)]


@pytest.mark.parametrize("configs, structures", [
    ([FusionConfig(stage_dims=(5, 4), epochs=2, batch_size=48, seed=71)], NONE),
    ([FusionConfig(stage_dims=(5, 4), attach_stages=(1,), lambda_total=0.3,
                   epochs=2, batch_size=48, seed=72)], ONE),
    ([FusionConfig(stage_dims=(5, 4), attach_stages=(0, 1), lambda_total=0.4,
                   lambda_split=(0.3, 0.1), epochs=2, batch_size=100,
                   seed=73)], TWO),
    (_stack_of_three(), TWO),
], ids=["no-heads", "one-head", "two-heads-unequal", "stack-of-three"])
def test_epoch_zero_loss_matches_the_oracle(configs, structures):
    # With one batch per epoch, epoch 0's loss is the loss of the freshly
    # initialized model over every row, measured before the update.
    table = toy_table(np.random.default_rng(17))
    runs = train_stacked(configs, [table] * len(configs),
                         [structures] * len(configs))
    y = table.labels
    y_supers = [np.asarray(s.parent_index)[y] for s in structures]
    for config, (_, history) in zip(configs, runs):
        model = init_model(config, structures, table.dim, table.subclass_names)
        expected = oracle_loss(forward(model, table.features), y, y_supers,
                               config.lambdas)
        np.testing.assert_allclose(history.total_loss[0], expected.total, rtol=1e-12)
        np.testing.assert_allclose(history.subclass_loss[0], expected.subclass,
                                   rtol=1e-12)
        np.testing.assert_allclose(history.super_losses[0], expected.per_structure,
                                   rtol=1e-12)
        assert history.super_losses.shape == (2, len(structures))


# -- training ---------------------------------------------------------------------

def separable_table():
    # two far-apart clusters in 2-D, margin far wider than the spread
    rng = np.random.default_rng(12)
    a = rng.normal(size=(20, 2)) * 0.1 + np.array([-5.0, 0.0])
    b = rng.normal(size=(20, 2)) * 0.1 + np.array([5.0, 0.0])
    feats = np.vstack([a, b])
    labels = np.array([0] * 20 + [1] * 20, dtype=np.int64)
    return FeatureTable(features=feats, labels=labels, subclass_names=("c0", "c1"))


def test_train_reaches_separable_accuracy():
    config = FusionConfig(stage_dims=(8, 4), learning_rate=0.5,
                          epochs=200, batch_size=8, seed=0)
    _, history = train(config, separable_table(), NONE)
    assert history.train_accuracy.max() == 1.0
    assert history.epochs == 200
    assert np.all(history.total_loss >= 0.0)


def test_train_history_shapes_and_determinism():
    rng = np.random.default_rng(10)
    table = toy_table(rng)
    config = FusionConfig(stage_dims=(6, 4), attach_stages=(0, 1),
                          lambda_total=0.2, learning_rate=0.1,
                          epochs=5, batch_size=16, seed=21)
    model_a, hist_a = train(config, table, TWO)
    model_b, hist_b = train(config, table, TWO)
    assert hist_a.super_losses.shape == (5, 2)
    assert hist_a.structure_names == ("pairs", "skewed")
    assert np.array_equal(hist_a.total_loss, hist_b.total_loss)
    assert np.array_equal(hist_a.train_accuracy, hist_b.train_accuracy)
    for w1, w2 in zip(model_a.trunk_weights, model_b.trunk_weights):
        assert np.array_equal(w1, w2)
    assert np.array_equal(model_a.subclass_weight, model_b.subclass_weight)


def test_history_rows_are_total_subclass_per_structure_and_accuracy_columns():
    rows = np.arange(10.0).reshape(2, 5)
    history = TrainHistory(rows=rows, structure_names=("a", "b"))
    assert history.epochs == 2
    assert np.array_equal(history.total_loss, rows[:, 0])
    assert np.array_equal(history.subclass_loss, rows[:, 1])
    assert np.array_equal(history.super_losses, rows[:, 2:4])
    assert np.array_equal(history.train_accuracy, rows[:, 4])
    for width in (4, 6):
        with pytest.raises(DimensionMismatch, match="need 5 columns"):
            TrainHistory(rows=np.zeros((2, width)), structure_names=("a", "b"))
    for column in ("total_loss", "subclass_loss", "super_losses", "train_accuracy"):
        with pytest.raises(AttributeError):
            setattr(history, column, rows[:, 0])
        with pytest.raises(ValueError, match="read-only"):
            getattr(history, column)[0] = 1.0


def test_train_lambda_zero_matches_headless_run():
    rng = np.random.default_rng(30)
    table = toy_table(rng)
    headless = FusionConfig(stage_dims=(6, 4), learning_rate=0.2,
                            epochs=4, batch_size=12, seed=5)
    idle_head = FusionConfig(stage_dims=(6, 4), attach_stages=(0,),
                             lambda_total=0.0, learning_rate=0.2,
                             epochs=4, batch_size=12, seed=5)
    plain, plain_hist = train(headless, table, NONE)
    fused, fused_hist = train(idle_head, table, ONE)
    for w1, w2 in zip(plain.trunk_weights, fused.trunk_weights):
        assert np.array_equal(w1, w2)
    assert np.array_equal(plain.subclass_weight, fused.subclass_weight)
    assert np.array_equal(plain.subclass_bias, fused.subclass_bias)
    assert np.array_equal(plain_hist.total_loss, fused_hist.subclass_loss)
    # the idle head never moves from its initialization
    init = init_model(idle_head, ONE, 3, SUB_NAMES)
    assert np.array_equal(fused.super_weights[0], init.super_weights[0])
    assert np.array_equal(fused.super_biases[0], init.super_biases[0])


def test_train_diverged_loss_raises():
    rng = np.random.default_rng(44)
    table = toy_table(rng)
    # a step this size overflows the weights within the first epoch
    config = FusionConfig(stage_dims=(6, 4), learning_rate=1e308,
                          epochs=10, batch_size=8, seed=0)
    with np.errstate(all="ignore"):
        with pytest.raises(DivergedLoss):
            train(config, table, NONE)


def test_train_validates_inputs():
    rng = np.random.default_rng(4)
    table = toy_table(rng)
    with pytest.raises(InvalidConfig):
        train(FusionConfig(attach_stages=(0,), lambda_total=0.1), table, NONE)
    three_names = ("c0", "c1", "c2")
    empty = FeatureTable(np.zeros((0, table.dim)), np.zeros(0, dtype=np.int64),
                         three_names)
    with pytest.raises(ClassTooSmall, match="empty table"):
        train(FusionConfig(epochs=1), empty, NONE)


# -- stacked training ---------------------------------------------------------------

def structure_crossed(name="crossed"):
    # as many superclasses as structure_pairwise, another grouping
    return validate_structure(
        name=name,
        superclasses=["x0", "x1"],
        subclass_names=SUB_NAMES,
        parent_of={"c0": "x0", "c1": "x1", "c2": "x1", "c3": "x0"},
    )


def assert_same_run(stacked, alone):
    (model, history), (ref, ref_history) = stacked, alone
    for field in ("trunk_weights", "trunk_biases", "super_weights", "super_biases"):
        assert len(getattr(model, field)) == len(getattr(ref, field))
        for a, b in zip(getattr(model, field), getattr(ref, field)):
            assert np.array_equal(a, b), field
    assert np.array_equal(model.subclass_weight, ref.subclass_weight)
    assert np.array_equal(model.subclass_bias, ref.subclass_bias)
    assert model.structure_names == ref.structure_names
    assert history.structure_names == ref_history.structure_names
    assert np.array_equal(history.rows, ref_history.rows)


def eight_runs(heads=2):
    """Eight runs with `heads` superclass heads (0, 1 or 2) that share a
    stack key and differ in every other input. Runs 1, 2 and 6 change
    lambda_total, the lambda split and the structures; where the heads
    leave no such change, they change the lambda or the learning rate."""
    rng = np.random.default_rng(80)
    table_a, table_b = toy_table(rng, n=45), toy_table(rng, n=45)
    base = dict(stage_dims=(6, 4), attach_stages=(0, 1)[:heads], epochs=4, batch_size=8,
                lambda_total=0.3 if heads else 0.0, seed=1)
    mine = StructureSet((structure_pairwise(), structure_skewed())[:heads])
    other = StructureSet((structure_crossed(), structure_skewed())[:heads])
    no_lambda, split, crossed = {
        2: (dict(lambda_total=0.0), dict(lambda_split=(0.25, 0.05)), {}),
        1: (dict(lambda_total=0.0), dict(lambda_total=0.2), {}),
        0: (dict(learning_rate=0.2), dict(learning_rate=0.3), dict(learning_rate=0.05)),
    }[heads]

    def run(table=table_a, structures=mine, **changes):
        return FusionConfig(**{**base, **changes}), table, structures

    return [
        run(),
        run(**no_lambda),
        run(**split),
        run(learning_rate=0.4),
        run(seed=2),
        run(table_b),
        run(structures=other, **crossed),
        run(table_b, other, lambda_total=0.1 if heads else 0.0, seed=3),
    ]


# Stacks whose loss arrays hold 2, 3 and 4 rows.
HEAD_COUNTS = pytest.mark.parametrize("heads", [0, 1, 2],
                                      ids=["no-heads", "one-head", "two-heads"])


@HEAD_COUNTS
def test_stacked_runs_match_separate_training_bit_for_bit(heads):
    runs = eight_runs(heads)
    stacked = train_stacked(*zip(*runs))
    assert len(stacked) == len(runs)
    for result, run in zip(stacked, runs):
        assert_same_run(result, train(*run))
    # no two runs came out alike, so each really used its own settings
    weights = {model.trunk_weights[0].tobytes() for model, _ in stacked}
    assert len(weights) == len(runs)


def test_train_is_the_one_run_stack():
    rng = np.random.default_rng(81)
    run = (FusionConfig(stage_dims=(5, 4), attach_stages=(1,), lambda_total=0.2,
                        epochs=3, batch_size=10, seed=4), toy_table(rng), ONE)
    (stacked,) = train_stacked(*([part] for part in run))
    assert_same_run(stacked, train(*run))


def test_stacked_runs_keep_their_own_tables_names():
    rng = np.random.default_rng(83)
    table = toy_table(rng)
    renamed = FeatureTable(table.features, table.labels, ("w", "x", "y", "z"))
    config = FusionConfig(stage_dims=(6, 4), epochs=2, batch_size=8)
    runs = [(config, table, NONE), (config, renamed, NONE)]
    stacked = train_stacked(*zip(*runs))
    assert [model.subclass_names for model, _ in stacked] == \
        [SUB_NAMES, ("w", "x", "y", "z")]
    for result, run in zip(stacked, runs):
        assert_same_run(result, train(*run))


def mixed_stacks():
    """Two-run stacks whose second run differs in one shape-setting input."""
    rng = np.random.default_rng(82)
    config = FusionConfig(stage_dims=(6, 4), attach_stages=(0, 1),
                          lambda_total=0.2, epochs=2, batch_size=8)
    table = toy_table(rng)
    headless = replace(config, attach_stages=(), lambda_total=0.0)
    five_labels = FeatureTable(table.features, np.arange(table.count) % 5,
                               SUB_NAMES + ("c4",))
    first = (config, table, TWO)
    return {
        "stage widths": [first, (replace(config, stage_dims=(6, 5)), table, TWO)],
        "attach stages": [first, (replace(config, attach_stages=(1, 0)), table, TWO)],
        "batch size": [first, (replace(config, batch_size=16), table, TWO)],
        "epochs": [first, (replace(config, epochs=3), table, TWO)],
        "rows": [first, (config, toy_table(rng, n=40), TWO)],
        "input width": [first, (config, FeatureTable(
            np.hstack([table.features, table.features]), table.labels,
            table.subclass_names), TWO)],
        "superclass counts": [first, (config, table, StructureSet(
            (structure_skewed(), structure_pairwise())))],
        "subclass count": [(headless, table, NONE), (headless, five_labels, NONE)],
    }


def counted_passes(monkeypatch) -> list:
    """The run count of each stack trained from now on, one entry per
    parameter buffer made."""
    passes = []

    class Counted(model_module._Params):
        def __init__(self, models):
            passes.append(len(models))
            super().__init__(models)

    monkeypatch.setattr(model_module, "_Params", Counted)
    return passes


@pytest.mark.parametrize("change", list(mixed_stacks()))
def test_mixed_shape_runs_train_in_one_pass_per_shape(monkeypatch, change):
    first, other = mixed_stacks()[change]
    reseeded = [(replace(config, seed=7), table, structures)
                for config, table, structures in (first, other)]
    runs = [first, other, *reseeded]  # shapes a, b, a, b
    alone = [train(*run) for run in runs]
    passes = counted_passes(monkeypatch)
    stacked = train_stacked(*zip(*runs))
    assert passes == [2, 2]
    for result, lone in zip(stacked, alone):
        assert_same_run(result, lone)


def test_stack_needs_one_table_and_structure_set_per_config():
    config, table, structures = mixed_stacks()["epochs"][0]
    with pytest.raises(InvalidConfig):
        train_stacked([], [], [])
    with pytest.raises(InvalidConfig):
        train_stacked([config, config], [table, table], [structures])


def diverging_stack_runs():
    """A fine run, one that diverges late (epoch 6) and one that diverges
    at once (epoch 0); lone training names each one's own batch."""
    table = toy_table(np.random.default_rng(44))
    base = dict(stage_dims=(6, 4), epochs=10, batch_size=8)
    fine = FusionConfig(**base, seed=0)
    late = FusionConfig(**base, learning_rate=1e307, seed=0)
    early = FusionConfig(**base, learning_rate=1e308, seed=1)
    return table, fine, late, early


def lone_error(config, table):
    with np.errstate(all="ignore"):
        with pytest.raises(DivergedLoss) as lone:
            train(config, table, NONE)
    return lone.value


DIVERGING_STACKS = pytest.mark.parametrize("order, first", [
    (("fine", "late", "early"), 1),
    (("fine", "early", "late"), 1),
    (("fine", "fine", "early"), 2),
    (("early", "fine", "late"), 0),
])


@DIVERGING_STACKS
def test_stack_names_its_first_diverging_run(capfd, order, first):
    assert_names_first_diverging_run(capfd, order, first)


def assert_names_first_diverging_run(capfd, order, first):
    table, *configs = diverging_stack_runs()
    by_name = dict(zip(("fine", "late", "early"), configs))
    stack = [by_name[name] for name in order]
    alone = lone_error(stack[first], table)
    assert alone.run is None
    assert (alone.epoch, alone.sample) == {"late": (6, 8), "early": (0, 8)}[order[first]]
    capfd.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would fail the call
        with pytest.raises(DivergedLoss) as stacked:
            train_stacked(stack, [table] * 3, [NONE] * 3)
    assert capfd.readouterr().err == ""
    assert stacked.value.run == first
    assert (stacked.value.epoch, stacked.value.sample) == (alone.epoch, alone.sample)
    assert str(stacked.value) == f"run {first}: {alone}"


@pytest.mark.parametrize("order, first", [
    # the batch-8 stack (runs 0, 2) trains first and diverges late, at run
    # 2, though run 1 of the batch-16 stack would diverge at once
    (("fine", "early16", "late", "fine16"), 2),
    # the batch-8 stack trains to the end; the batch-16 stack diverges at run 3
    (("fine", "fine16", "fine", "early16"), 3),
])
def test_a_call_names_the_first_diverging_run_of_the_first_stack_to_diverge(
    capfd, order, first
):
    table, fine, late, early = diverging_stack_runs()
    by_name = {"fine": fine, "late": late, "fine16": replace(fine, batch_size=16),
               "early16": replace(early, batch_size=16)}
    runs = [by_name[name] for name in order]
    alone = lone_error(runs[first], table)
    capfd.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergedLoss) as call:
            train_stacked(runs, [table] * 4, [NONE] * 4)
    assert capfd.readouterr().err == ""
    assert str(call.value) == f"run {first}: {alone}"


# -- a stack in slices ---------------------------------------------------------------

@contextlib.contextmanager
def many_slices(count):
    """Cut every stack into up to `count` slices, however little work
    each holds, and yield the pids of the workers forked meanwhile."""
    with counted_forks(count) as forks, pytest.MonkeyPatch.context() as patch:
        patch.setattr(model_module, "_MIN_SLICE_WORK", 1)
        yield forks


def one_slice(call):
    """call() with every stack in one slice."""
    with many_slices(1) as forks:
        result = call()
    assert forks == []
    return result


@HEAD_COUNTS
@pytest.mark.parametrize("slices", [2, 3, 8])
def test_a_stack_in_slices_is_bit_equal_to_one_slice_and_to_lone_runs(slices, heads):
    runs = eight_runs(heads)
    whole = one_slice(lambda: train_stacked(*zip(*runs)))
    with many_slices(slices) as forks:
        split = train_stacked(*zip(*runs))
        alone = [train(*run) for run in runs]
    assert len(forks) == slices - 1
    for result, unsplit, lone in zip(split, whole, alone):
        assert_same_run(result, unsplit)
        assert_same_run(result, lone)


@pytest.mark.parametrize("slices", [2, 3])
@DIVERGING_STACKS
def test_a_stack_in_slices_names_its_first_diverging_run(capfd, order, first, slices):
    with many_slices(slices) as forks:
        assert_names_first_diverging_run(capfd, order, first)
    # a fork per slice after the first, for the lone runs and the stack
    assert len(forks) == slices - 1


def test_a_stack_stays_in_process_while_a_second_thread_runs():
    runs = eight_runs()[:3]
    whole = one_slice(lambda: train_stacked(*zip(*runs)))
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        with many_slices(3) as forks:
            split = train_stacked(*zip(*runs))
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []
    for result, unsplit in zip(split, whole):
        assert_same_run(result, unsplit)


def test_a_lone_run_never_forks():
    run = eight_runs()[0]
    with many_slices(4) as forks:
        train(*run)
    assert forks == []


# -- runs on row indices ----------------------------------------------------------

def runs_on_rows(tables):
    """eight_runs(2), every run reading 36 rows of its table in an order of
    its own, some rows twice; with tables "one", every run reads one table."""
    rng = np.random.default_rng(84)
    runs = eight_runs()
    if tables == "one":
        runs = [(config, runs[0][1], structures) for config, _, structures in runs]
    rows = [rng.choice(table.count, size=36, replace=r % 2 == 0)
            for r, (_, table, _) in enumerate(runs)]
    return runs, rows


@pytest.mark.parametrize("tables", ["one", "two"])
@pytest.mark.parametrize("slices", [1, 3])
def test_training_on_rows_is_bit_equal_to_training_on_the_gathered_tables(slices, tables):
    runs, rows = runs_on_rows(tables)
    configs, sources, structures = zip(*runs)
    assert len({id(t) for t in sources}) == {"one": 1, "two": 2}[tables]
    gathered = [select_rows(table, index) for table, index in zip(sources, rows)]
    whole = one_slice(lambda: train_stacked(configs, gathered, structures))
    with many_slices(slices) as forks:
        on_rows = train_stacked(configs, sources, structures, rows)
    assert len(forks) == slices - 1
    for result, expected, run, index in zip(on_rows, whole, runs, rows):
        assert_same_run(result, expected)
        assert_same_run(result, train(*run, index))


def test_training_on_every_row_is_training_on_the_table():
    config, table, structures = eight_runs()[0]
    for rows in (None, np.arange(table.count), list(range(table.count))):
        assert_same_run(train(config, table, structures, rows), train(config, table, structures))
    (on_rows,) = train_stacked([config], [table], [structures], [None])
    assert_same_run(on_rows, train(config, table, structures))


@pytest.mark.parametrize("slices", [1, 2])
def test_a_run_on_rows_that_diverges_mid_epoch_keeps_its_epoch_and_sample(capfd, slices):
    table, fine, late, _ = diverging_stack_runs()
    rows = np.arange(table.count)[::-1]
    alone = lone_error(late, select_rows(table, rows))
    assert (alone.epoch, alone.sample) == (6, 8)  # the epoch's second batch
    capfd.readouterr()
    with many_slices(slices), warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergedLoss) as stacked:
            train_stacked([fine, late, fine], [table] * 3, [NONE] * 3, [rows] * 3)
    assert capfd.readouterr().err == ""
    assert (stacked.value.run, stacked.value.epoch, stacked.value.sample) == \
        (1, alone.epoch, alone.sample)


def test_runs_on_one_table_stack_by_their_row_count(monkeypatch):
    config, table, structures = eight_runs()[0]
    rows = [np.arange(40), np.arange(30), np.arange(5, 45), np.arange(15, 45)]
    alone = [train(config, table, structures, index) for index in rows]
    passes = counted_passes(monkeypatch)
    stacked = train_stacked([config] * 4, [table] * 4, [structures] * 4, rows)
    assert passes == [2, 2]
    for result, lone in zip(stacked, alone):
        assert_same_run(result, lone)


def test_a_stack_needs_one_row_index_per_run_inside_its_table():
    config, table, structures = eight_runs()[0]
    with pytest.raises(InvalidConfig, match="row index per run"):
        train_stacked([config] * 2, [table] * 2, [structures] * 2, [None])
    with pytest.raises(InvalidValue, match="rows"):
        train(config, table, structures, [0, table.count])
    with pytest.raises(ClassTooSmall, match="no rows to train on"):
        train(config, table, structures, [])


# -- prediction -------------------------------------------------------------------

def biased_model(bias):
    model = zero_model(supers=(), attach=())
    return FusionModel(
        trunk_weights=model.trunk_weights,
        trunk_biases=model.trunk_biases,
        subclass_weight=model.subclass_weight,
        subclass_bias=np.asarray(bias, dtype=np.float64),
        super_weights=(),
        super_biases=(),
        attach_stages=(),
        subclass_names=SUB_NAMES,
        structure_names=(),
    )


def test_predict_argmax_and_ties():
    # a zero trunk leaves the bias as the logits for any input
    model = biased_model([0.1, 2.0, -1.0, 0.0])
    assert predict(model, np.ones(3)) == 1
    tied = biased_model([1.0, 1.0, 0.0, 0.0])
    assert predict(tied, np.ones(3)) == 0
    shifted = biased_model([5.1, 7.0, 4.0, 5.0])
    assert predict(shifted, np.ones(3)) == 1


def test_predict_batch_form():
    model = biased_model([0.0, 0.5, 0.0, 0.0])
    out = predict(model, np.ones((5, 3)))
    assert out.dtype == np.int64
    assert out.tolist() == [1] * 5


def test_a_parent_past_the_superclasses_never_reaches_training():
    # Superclass id 2 of a 2-superclass head would be gathered by flat
    # index from another sample's logits; the structure is refused first.
    config = FusionConfig(stage_dims=(5, 4), attach_stages=(0,),
                          lambda_total=0.2, epochs=1, batch_size=40, seed=0)
    table = toy_table(np.random.default_rng(0))
    with pytest.raises(UnknownSuperclass):
        structure = LabelStructure("a", ("s0", "s1"), SUB_NAMES, [0, 1, 1, 2])
        train(config, table, StructureSet((structure,)))


# -- gradient check ----------------------------------------------------------------

def test_gradient_check_fresh_models():
    rng = np.random.default_rng(50)
    x = rng.normal(size=(12, 3))
    y = rng.integers(0, N_SUB, size=12)
    config = FusionConfig(stage_dims=(5, 4), attach_stages=(0, 1),
                          lambda_total=0.2, seed=50)
    model = init_model(config, TWO, 3, SUB_NAMES)
    err = gradient_check(model, FeatureTable(x, y, SUB_NAMES), TWO, config)
    assert err < 1e-6


def test_gradient_check_headless_and_zero_input():
    config = FusionConfig(stage_dims=(5, 4), seed=51)
    model = init_model(config, NONE, 3, SUB_NAMES)
    rng = np.random.default_rng(51)
    x = rng.normal(size=(8, 3))
    y = rng.integers(0, N_SUB, size=8)
    assert gradient_check(model, FeatureTable(x, y, SUB_NAMES), NONE, config) < 1e-6
    zeros = FeatureTable(np.zeros((8, 3)), y, SUB_NAMES)
    assert gradient_check(model, zeros, NONE, config) < 1e-6


def test_gradient_check_guards():
    config = FusionConfig(stage_dims=(5, 4), seed=1)
    model = init_model(config, NONE, 3, SUB_NAMES)
    table = FeatureTable(np.zeros((2, 3)), [0, 1], SUB_NAMES)
    with pytest.raises(InvalidConfig):
        gradient_check(model, table, ONE, config)
    with pytest.raises(DimensionMismatch):
        gradient_check(model, FeatureTable(np.zeros((2, 9)), [0, 1], SUB_NAMES),
                       NONE, config)
    with pytest.raises(ClassTooSmall):
        gradient_check(model, FeatureTable(np.zeros((0, 3)), [], SUB_NAMES),
                       NONE, config)
    # A head narrower than the structure it is checked with.
    headed = FusionConfig(stage_dims=(5, 4), attach_stages=(0,), seed=1)
    model = init_model(headed, ONE, 3, SUB_NAMES)
    skewed = StructureSet((structure_skewed(),))
    with pytest.raises(DimensionMismatch):
        gradient_check(model, table, skewed, headed)


def test_gradient_check_fits_the_model_that_init_model_draws():
    square = FusionConfig(stage_dims=(4, 4), attach_stages=(0,), seed=1)
    model = init_model(square, ONE, 4, SUB_NAMES)
    table = FeatureTable(np.zeros((2, 4)), [0, 1], SUB_NAMES)
    # attach stages that differ while every shape agrees
    with pytest.raises(InvalidConfig, match="attach stages"):
        gradient_check(model, table, ONE, replace(square, attach_stages=(1,)))
    with pytest.raises(DimensionMismatch, match=r"^trunk\.0\.weight \(4, 4\) .* \(4, 5\)"):
        gradient_check(model, table, ONE, replace(square, stage_dims=(5, 4)))
    # a stage more whose tensors repeat the model's shapes
    with pytest.raises(DimensionMismatch, match=r"^subclass_head\.weight .* trunk\.2\.weight"):
        gradient_check(model, table, ONE, replace(square, stage_dims=(4, 4, 4)))
    lone = FeatureTable(np.zeros((2, 4)), [0, 0], ("c0",))
    one_class = replace(model, subclass_weight=np.zeros((4, 1)), subclass_bias=np.zeros(1),
                        super_weights=(), super_biases=(), attach_stages=(),
                        structure_names=(), subclass_names=("c0",))
    with pytest.raises(InvalidConfig, match="at least 2 subclasses"):
        gradient_check(one_class, lone, NONE, FusionConfig(stage_dims=(4, 4), seed=1))


@pytest.mark.parametrize("stage_dims, checked", [((5, 4), 91), ((20, 10), 200)],
                         ids=["every-parameter", "sampled"])
def test_gradient_check_differences_the_training_step(monkeypatch, stage_dims, checked):
    # the analytic gradient is one training step, and each of the two losses
    # per checked parameter is another, so the check is of what trains
    calls = []
    step = model_module._loss_and_grads
    monkeypatch.setattr(model_module, "_loss_and_grads",
                        lambda *args: calls.append(args) or step(*args))
    config = FusionConfig(stage_dims=stage_dims, attach_stages=(0, 1),
                          lambda_total=0.2, seed=50)
    model = init_model(config, TWO, 3, SUB_NAMES)
    table = FeatureTable(np.random.default_rng(50).normal(size=(12, 3)),
                         np.arange(12) % N_SUB, SUB_NAMES)
    assert gradient_check(model, table, TWO, config) < 1e-6
    assert len(calls) == 1 + 2 * checked


# -- checkpoints --------------------------------------------------------------------

def test_checkpoint_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(60)
    table = toy_table(rng)
    config = FusionConfig(stage_dims=(6, 4), attach_stages=(0, 1),
                          lambda_total=0.2, epochs=2, batch_size=16, seed=6)
    model, _ = train(config, table, TWO)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, config, path)
    back, back_config = load_checkpoint(path)
    assert back_config == config
    assert back.subclass_names == model.subclass_names
    assert back.structure_names == model.structure_names
    assert back.attach_stages == model.attach_stages
    for w1, w2 in zip(model.trunk_weights, back.trunk_weights):
        assert np.array_equal(w1, w2)
    for b1, b2 in zip(model.trunk_biases, back.trunk_biases):
        assert np.array_equal(b1, b2)
    assert np.array_equal(model.subclass_weight, back.subclass_weight)
    for w1, w2 in zip(model.super_weights, back.super_weights):
        assert np.array_equal(w1, w2)


def test_checkpoint_rejects_corruption(tmp_path):
    config = FusionConfig(stage_dims=(4, 3), seed=0)
    model = init_model(config, NONE, 3, SUB_NAMES)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, config, path)
    blob = path.read_bytes()

    bad_magic = tmp_path / "bad_magic.ckpt"
    bad_magic.write_bytes(b"something-else\n" + blob[15:])
    with pytest.raises(CheckpointError):
        load_checkpoint(bad_magic)

    truncated = tmp_path / "truncated.ckpt"
    truncated.write_bytes(blob[: len(blob) - 10])
    with pytest.raises(CheckpointError):
        load_checkpoint(truncated)

    trailing = tmp_path / "trailing.ckpt"
    trailing.write_bytes(blob + b"x")
    with pytest.raises(CheckpointError):
        load_checkpoint(trailing)


@pytest.mark.parametrize("region", ["header", "tensor", "digest"])
def test_a_checkpoint_with_any_byte_flipped_is_a_checkpoint_error(tmp_path, region):
    # the closing SHA-256 covers every byte, so no flip loads as another model
    config = FusionConfig(stage_dims=(4, 3), attach_stages=(0,), lambda_total=0.1)
    model = init_model(config, ONE, 3, SUB_NAMES)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, config, path)
    blob = path.read_bytes()
    tensors = 8 * sum(arr.size for _, arr in model_module._parameters(model))
    start = len(blob) - 32 - tensors
    where = {"header": range(start), "tensor": range(start, len(blob) - 32),
             "digest": range(len(blob) - 32, len(blob))}[region]
    for at in where:
        path.write_bytes(blob[:at] + bytes([blob[at] ^ 0xFF]) + blob[at + 1:])
        with pytest.raises(CheckpointError, match=r"model\.ckpt: "):
            load_checkpoint(path)


def test_history_csv_format(tmp_path):
    rng = np.random.default_rng(70)
    table = toy_table(rng)
    config = FusionConfig(stage_dims=(5, 4), attach_stages=(0,),
                          lambda_total=0.1, epochs=3, batch_size=16, seed=7)
    _, history = train(config, table, ONE)
    path = tmp_path / "history.csv"
    save_history(history, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,total_loss,subclass_loss,super_loss_pairs,train_accuracy"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == history.total_loss[0]
    assert float(first[4]) == history.train_accuracy[0]


@pytest.mark.parametrize("bad", [N_SUB, -1])
def test_gradient_check_rejects_out_of_range_labels(bad):
    # A label outside the model's subclass range never reaches the flat
    # gather: the table refuses it, and a table whose name table is wider
    # than the model's is refused by gradient_check.
    config = FusionConfig(stage_dims=(5, 4), attach_stages=(0,),
                          lambda_total=0.2, seed=3)
    model = init_model(config, ONE, 3, SUB_NAMES)
    x = np.ones((3, 3))
    with pytest.raises(UnknownLabel):
        FeatureTable(x, [0, bad, 1], SUB_NAMES)
    wider = FeatureTable(x, [0, N_SUB, 1], SUB_NAMES + ("c4",))
    with pytest.raises(SubclassSpaceMismatch):
        gradient_check(model, wider, ONE, config)
    headless = FusionConfig(stage_dims=(5, 4), seed=3)
    model = init_model(headless, NONE, 3, SUB_NAMES)
    with pytest.raises(SubclassSpaceMismatch):
        gradient_check(model, wider, NONE, headless)
