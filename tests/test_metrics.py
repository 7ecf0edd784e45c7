"""Structure-averaged evaluation measures and the prediction file format."""

from dataclasses import asdict

import numpy as np
import pytest

from hierfusion.exceptions import (
    DimensionMismatch,
    EmptyBatch,
    IdOutOfRange,
    MalformedRow,
    SubclassSpaceMismatch,
    UnknownLabel,
)
from hierfusion.metrics import (
    EvalReport,
    PredictionBatch,
    evaluate,
    load_predictions,
    save_predictions,
    structure_scores,
)
from hierfusion.taxonomy import StructureSet, validate_structure
from oracles import random_structure, tree_walk_report


def pair_structure(name="t"):
    # a and b are siblings under s1; c sits alone under s2
    return validate_structure(
        name=name,
        superclasses=["s1", "s2"],
        subclass_names=["a", "b", "c"],
        parent_of={"a": "s1", "b": "s1", "c": "s2"},
    )


NAMES = ("a", "b", "c")


def batch_of(predicted, truth, names=NAMES):
    return PredictionBatch(predicted=np.asarray(predicted, dtype=np.int64),
                           truth=np.asarray(truth, dtype=np.int64),
                           subclass_names=names)


# the worked batch used throughout: right, sibling miss, right, far miss
WORKED = batch_of([0, 1, 2, 0], [0, 0, 2, 2])


def test_top1_accuracy_cases():
    structures = StructureSet((pair_structure(),))
    assert evaluate(structures, batch_of([0, 1], [0, 1])).accuracy == 1.0
    assert evaluate(structures, WORKED).accuracy == 0.5
    assert evaluate(structures, batch_of([1], [0])).accuracy == 0.0


def test_batch_validation():
    with pytest.raises(EmptyBatch):
        batch_of([], [])
    with pytest.raises(DimensionMismatch):
        batch_of([0, 1], [0])
    with pytest.raises(DimensionMismatch):
        PredictionBatch(predicted=np.zeros((2, 2), dtype=np.int64),
                        truth=np.zeros((2, 2), dtype=np.int64),
                        subclass_names=NAMES)
    with pytest.raises(IdOutOfRange):
        batch_of([0, -1], [0, 0])


def test_structure_scores_worked_example():
    scores = structure_scores(pair_structure(), WORKED)
    # per-sample path overlaps: 3, 2, 3, 1 of 12 predicted/true nodes
    assert scores.p_h == 0.75
    assert scores.r_h == 0.75
    assert scores.f_h == 0.75
    assert scores.tie == 1.5
    assert scores.lca == 0.75
    assert scores.name == "t"


def test_two_structure_averaging():
    # same leaves, different groupings: a,b siblings in h1 but not in h2
    h1 = pair_structure(name="h1")
    h2 = validate_structure(
        name="h2",
        superclasses=["u", "v"],
        subclass_names=["a", "b", "c"],
        parent_of={"a": "u", "b": "v", "c": "v"},
    )
    batch = batch_of([1], [0])
    report = evaluate(StructureSet((h1, h2)), batch)
    np.testing.assert_allclose(report.p_ha, 0.5, rtol=1e-15)
    np.testing.assert_allclose(report.r_ha, 0.5, rtol=1e-15)
    np.testing.assert_allclose(report.f_ha, 0.5, rtol=1e-15)


def test_perfect_predictions():
    structures = StructureSet((pair_structure(),))
    batch = batch_of([0, 1, 2], [0, 1, 2])
    report = evaluate(structures, batch)
    assert (report.p_ha, report.r_ha, report.f_ha) == (1.0, 1.0, 1.0)
    assert report.tie_a == 0.0
    assert report.lca_a == 0.0


def test_evaluate_composition():
    report = evaluate(StructureSet((pair_structure(),)), WORKED)
    assert report.accuracy == 0.5
    assert report.f_ha == 0.75
    assert report.tie_a == 1.5
    assert report.lca_a == 0.75
    assert len(report.per_structure) == 1
    assert report.per_structure[0].name == "t"


def test_duplicate_structures_average_to_the_same_report():
    single = evaluate(StructureSet((pair_structure(),)), WORKED)
    triple = evaluate(
        StructureSet(tuple(pair_structure(name="t") for _ in range(3))), WORKED
    )
    assert triple.accuracy == single.accuracy
    np.testing.assert_allclose(triple.f_ha, single.f_ha, rtol=1e-15)
    np.testing.assert_allclose(triple.tie_a, single.tie_a, rtol=1e-15)
    assert len(triple.per_structure) == 3


def test_report_identities_on_random_batches():
    rng = np.random.default_rng(33)
    for _ in range(25):
        n_classes = int(rng.integers(2, 11))
        m = int(rng.integers(1, 4))
        structures = StructureSet(tuple(
            random_structure(rng, n_classes, name=f"h{j}") for j in range(m)
        ))
        n = int(rng.integers(1, 51))
        batch = batch_of(rng.integers(0, n_classes, size=n),
                         rng.integers(0, n_classes, size=n),
                         structures.subclass_names)
        report = evaluate(structures, batch)
        # all augmented sets have three nodes, which pins these relations
        assert report.tie_a == 2.0 * report.lca_a
        assert abs(report.f_ha - (1.0 - report.tie_a / 6.0)) < 1e-12
        harmonic = 2.0 * report.p_ha * report.r_ha / (report.p_ha + report.r_ha)
        assert abs(report.f_ha - harmonic) < 1e-12


def test_agrees_with_tree_walk_oracle():
    rng = np.random.default_rng(63)
    for _ in range(15):
        n_classes = int(rng.integers(2, 11))
        m = int(rng.integers(1, 4))
        structures = StructureSet(tuple(
            random_structure(rng, n_classes, name=f"h{j}") for j in range(m)
        ))
        n = int(rng.integers(1, 51))
        predicted = rng.integers(0, n_classes, size=n)
        truth = rng.integers(0, n_classes, size=n)
        report = evaluate(structures,
                          batch_of(predicted, truth, structures.subclass_names))
        ref = tree_walk_report(structures, predicted, truth)
        assert abs(report.accuracy - ref["accuracy"]) < 1e-12
        assert abs(report.p_ha - ref["p_ha"]) < 1e-12
        assert abs(report.f_ha - ref["f_ha"]) < 1e-12
        assert abs(report.tie_a - ref["tie_a"]) < 1e-12
        assert abs(report.lca_a - ref["lca_a"]) < 1e-12
        for got, want in zip(report.per_structure, ref["per_structure"]):
            assert got.name == want["name"]
            assert abs(got.f_h - want["f_h"]) < 1e-12
            assert abs(got.tie - want["tie"]) < 1e-12


def test_sample_permutation_invariance():
    rng = np.random.default_rng(3)
    structures = StructureSet((pair_structure(),))
    predicted = rng.integers(0, 3, size=40)
    truth = rng.integers(0, 3, size=40)
    base = evaluate(structures, batch_of(predicted, truth))
    perm = rng.permutation(40)
    shuffled = evaluate(structures, batch_of(predicted[perm], truth[perm]))
    # integer-sum reductions make the agreement exact
    assert base.f_ha == shuffled.f_ha
    assert base.tie_a == shuffled.tie_a
    assert base.accuracy == shuffled.accuracy


def test_structure_order_invariance():
    rng = np.random.default_rng(14)
    structures = [random_structure(rng, 6, name=f"h{j}") for j in range(3)]
    batch = batch_of(rng.integers(0, 6, size=30), rng.integers(0, 6, size=30),
                     structures[0].subclass_names)
    fwd = evaluate(StructureSet(tuple(structures)), batch)
    rev = evaluate(StructureSet(tuple(reversed(structures))), batch)
    assert abs(fwd.f_ha - rev.f_ha) < 1e-12
    assert abs(fwd.tie_a - rev.tie_a) < 1e-12
    assert {s.name for s in fwd.per_structure} == \
        {s.name for s in rev.per_structure}


def test_wrong_superclass_strictly_worsens_scores():
    structures = StructureSet((pair_structure(),))
    correct = batch_of([0, 1, 2], [0, 1, 2])
    # sample 0 now predicts c, which lives under the other superclass
    degraded = batch_of([2, 1, 2], [0, 1, 2])
    before = evaluate(structures, correct)
    after = evaluate(structures, degraded)
    assert after.f_ha < before.f_ha
    assert after.tie_a > before.tie_a
    assert after.lca_a > before.lca_a


def test_empty_structure_set_raises():
    empty = StructureSet(())
    with pytest.raises(EmptyBatch):
        evaluate(empty, WORKED)


def test_evaluate_refuses_a_batch_over_other_names():
    renamed = batch_of(WORKED.predicted, WORKED.truth, ("a", "b", "z"))
    with pytest.raises(SubclassSpaceMismatch, match="subclass name table"):
        evaluate(StructureSet((pair_structure(),)), renamed)


def test_out_of_range_ids_raise():
    wide = tuple(f"n{i}" for i in range(8))
    with pytest.raises(IdOutOfRange):
        structure_scores(pair_structure(), batch_of([0, 7], [0, 0], wide))


def test_report_to_dict_shape():
    report = evaluate(StructureSet((pair_structure(),)), WORKED)
    raw = asdict(report)
    assert list(raw) == [
        "accuracy", "p_ha", "r_ha", "f_ha", "tie_a", "lca_a", "per_structure",
    ]
    assert list(raw["per_structure"][0]) == [
        "name", "p_h", "r_h", "f_h", "tie", "lca",
    ]
    assert isinstance(report, EvalReport)


# -- prediction files ----------------------------------------------------------

def test_prediction_round_trip(tmp_path):
    path = tmp_path / "preds.csv"
    save_predictions(WORKED, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "predicted,truth"
    assert lines[1] == "a,a"
    assert lines[2] == "b,a"
    back = load_predictions(path, NAMES)
    assert np.array_equal(back.predicted, WORKED.predicted)
    assert np.array_equal(back.truth, WORKED.truth)
    assert back.subclass_names == NAMES


@pytest.mark.parametrize("predicted, truth", [([0, 3], [0, 1]), ([0, 1], [3, 1])],
                         ids=["predicted", "truth"])
def test_batch_refuses_an_id_with_no_name(predicted, truth):
    with pytest.raises(IdOutOfRange, match="outside the 3-name subclass table"):
        batch_of(predicted, truth)


def test_prediction_load_errors(tmp_path):
    path = tmp_path / "preds.csv"
    path.write_text("wrong,header\na,a\n")
    with pytest.raises(MalformedRow):
        load_predictions(path, NAMES)

    path.write_text("predicted,truth\na,a,a\n")
    with pytest.raises(MalformedRow, match=r":2"):
        load_predictions(path, NAMES)

    path.write_text("predicted,truth\nzebra,a\n")
    with pytest.raises(UnknownLabel, match="zebra"):
        load_predictions(path, NAMES)

    path.write_text("predicted,truth\n")
    with pytest.raises(EmptyBatch):
        load_predictions(path, NAMES)
