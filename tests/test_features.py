"""Feature tables, class statistics, synthetic data, splits, and CSV I/O."""

import contextlib
import hashlib
import json
import math
import os
import struct
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hierfusion import features, serialization, workers
from hierfusion.exceptions import (
    ClassTooSmall,
    DimensionMismatch,
    DuplicateSubclass,
    HierFusionError,
    InvalidSpec,
    MalformedRow,
    NonFiniteValue,
    StructureError,
    UnknownLabel,
)
from hierfusion.features import (
    FeatureTable,
    SyntheticSpec,
    class_statistics,
    generate_synthetic,
    load_feature_table,
    save_feature_table,
    train_test_split,
)
from hierfusion.serialization import (
    CELL_WORDS,
    atomic_text_writer,
    float_cells,
    format_float,
)
from oracles import synthetic_features


def table_of(features, labels, names=None):
    labels = np.asarray(labels, dtype=np.int64)
    if names is None:  # one name per id up to the largest label
        names = [f"c{i}" for i in range(labels.max() + 1 if labels.size else 0)]
    return FeatureTable(features=np.asarray(features, dtype=np.float64),
                        labels=labels, subclass_names=names)


# -- FeatureTable validation --------------------------------------------------

def test_table_copies_and_freezes():
    raw = np.zeros((3, 2))
    t = table_of(raw, [0, 0, 1])
    raw[0, 0] = 99.0
    assert t.features[0, 0] == 0.0
    with pytest.raises(ValueError):
        t.features[0, 0] = 1.0
    assert t.count == 3
    assert t.dim == 2


def test_table_shape_checks():
    with pytest.raises(DimensionMismatch):
        FeatureTable(features=np.zeros(4), labels=np.zeros(4, dtype=np.int64),
                     subclass_names=("c0",))
    with pytest.raises(DimensionMismatch):
        table_of(np.zeros((3, 2)), [0, 1])


def test_table_rejects_nan_and_negative_labels():
    bad = np.zeros((2, 2))
    bad[1, 1] = np.nan
    with pytest.raises(NonFiniteValue):
        table_of(bad, [0, 0])
    with pytest.raises(UnknownLabel):
        table_of(np.zeros((2, 2)), [0, -1])


def test_table_refuses_a_label_outside_its_name_table():
    with pytest.raises(UnknownLabel, match="label id 3"):
        table_of(np.ones((2, 1)), [0, 3], NAMES)


@pytest.mark.parametrize("names, error", [
    (("a", "a"), DuplicateSubclass),
    (("a,b", "c"), StructureError),
    ((" a", "b"), StructureError),
    (("a", "b\n"), StructureError),
    (("a", 1), StructureError),
    (("a", "\ud800"), StructureError),
], ids=["duplicate", "comma", "leading-space", "line-break", "not-a-string",
        "lone-surrogate"])
def test_table_refuses_names_that_do_not_read_back(names, error):
    # ('a', 'a') used to save and load back as ('a',) with labels [0, 0]
    with pytest.raises(error, match="subclass_names"):
        FeatureTable(np.zeros((2, 1)), [0, 1], names)


def test_csv_load_refuses_a_label_that_is_not_a_name(tmp_path):
    path = tmp_path / "features.csv"
    path.write_text("label,f0\na,1.0\n b,2.0\n")
    with pytest.raises(StructureError,
                       match=r"features\.csv:3: label ' b' is not a name"):
        load_feature_table(path)


# -- class statistics ---------------------------------------------------------

def test_class_statistics_hand_values():
    t = table_of([[0.0, 0.0], [2.0, 2.0], [5.0, 5.0], [5.0, 5.0]], [0, 0, 1, 1])
    stats = class_statistics(t)
    assert stats.class_count == 2
    np.testing.assert_array_equal(stats.means[0], [1.0, 1.0])
    # per-dimension population variances are 1 and 1; the trace sums them
    assert stats.variances[0] == 2.0
    np.testing.assert_array_equal(stats.means[1], [5.0, 5.0])
    assert stats.variances[1] == 0.0


def test_class_statistics_one_dim_example():
    t = table_of([[-1.0], [1.0], [1.0], [3.0]], [0, 0, 1, 1])
    stats = class_statistics(t)
    assert stats.means[0, 0] == 0.0
    assert stats.means[1, 0] == 2.0
    assert stats.variances[0] == 1.0
    assert stats.variances[1] == 1.0


def test_class_statistics_sample_order_invariant():
    rng = np.random.default_rng(42)
    feats = rng.normal(size=(60, 5))
    labels = rng.integers(0, 4, size=60)
    labels[:8] = np.arange(8) % 4  # every class gets at least two rows
    t = table_of(feats, labels)
    base = class_statistics(t)
    for _ in range(5):
        perm = rng.permutation(60)
        shuffled = class_statistics(table_of(feats[perm], labels[perm]))
        # canonical reduction order makes this bit-exact, not just close
        assert np.array_equal(base.means, shuffled.means)
        assert np.array_equal(base.variances, shuffled.variances)


def test_class_statistics_scaling():
    rng = np.random.default_rng(3)
    feats = rng.normal(size=(40, 3))
    labels = np.arange(40) % 5
    base = class_statistics(table_of(feats, labels))
    alpha = 2.5
    scaled = class_statistics(table_of(alpha * feats, labels))
    np.testing.assert_allclose(scaled.means, alpha * base.means, rtol=1e-13)
    np.testing.assert_allclose(
        scaled.variances, alpha * alpha * base.variances, rtol=1e-13
    )


def test_class_statistics_pairwise_identity():
    # trace of the population covariance equals the mean squared pairwise
    # distance within the class, halved: an oracle with no mean subtraction
    rng = np.random.default_rng(8)
    feats = rng.normal(size=(30, 4)) * 3.0
    labels = np.arange(30) % 3
    stats = class_statistics(table_of(feats, labels))
    for c in range(3):
        rows = feats[labels == c]
        n = rows.shape[0]
        total = 0.0
        for i in range(n):
            for j in range(n):
                d = rows[i] - rows[j]
                total += float(d @ d)
        np.testing.assert_allclose(stats.variances[c], total / (2 * n * n),
                                   rtol=1e-12)


def test_class_statistics_small_class_errors():
    with pytest.raises(ClassTooSmall):
        class_statistics(table_of([[0.0], [1.0], [2.0]], [0, 0, 1]))
    with pytest.raises(ClassTooSmall):
        class_statistics(table_of(np.zeros((0, 2)), []))
    # a name table larger than the data supports
    with pytest.raises(ClassTooSmall):
        class_statistics(table_of([[0.0], [1.0]], [0, 0], ("c0", "c1")))


def test_class_statistics_needs_a_feature_column():
    with pytest.raises(DimensionMismatch, match="need a feature column"):
        class_statistics(table_of(np.zeros((4, 0)), [0, 0, 1, 1]))


def lexsort_statistics(table):
    """(means, variances) of `table` by a loop that sorts each class's rows
    on every column with np.lexsort, the reference order."""
    means, variances = [], []
    for c in range(len(table.subclass_names)):
        rows = table.features[table.labels == c]
        if rows.shape[0] < 2:
            raise ClassTooSmall(c)
        rows = rows[np.lexsort(rows.T[::-1])]
        mean = rows.mean(axis=0)
        dev = rows - mean
        means.append(mean)
        variances.append((dev * dev).sum(axis=1).mean())
    return np.array(means), np.array(variances)


def order_table(kind, seed):
    """A table whose class sums depend on row order; column 0 per `kind`."""
    rng = np.random.default_rng(seed)
    n, dim = (12, 3) if kind == "two-row" else (80, 1 if kind == "one-dim" else 4)
    feats = rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-3, 4, size=(n, dim))
    if kind in ("ties", "one-dim"):  # few values, zeros of both signs
        feats[:, 0] = rng.integers(-2, 3, size=n) * 0.1
        feats[:, 0] *= rng.choice([-1.0, 1.0], size=n)
    elif kind == "constant":
        feats[:, 0] = 1.5
    labels = np.arange(n) % 6 if kind == "two-row" else rng.integers(0, 6, size=n)
    labels[:12] = np.arange(12) % 6  # every class gets at least two rows
    return table_of(feats, labels)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", ["no-tie", "ties", "constant", "one-dim", "two-row"])
def test_class_statistics_order_is_lexicographic(kind, seed):
    table = order_table(kind, seed)
    first = table.features[:, 0]
    if kind == "ties":
        assert np.signbit(first[first == 0.0]).any() and (first == 0.0).sum() > 1
    means, variances = lexsort_statistics(table)
    stats = class_statistics(table)
    assert stats.means.tobytes() == means.tobytes()
    assert stats.variances.tobytes() == variances.tobytes()


def test_class_statistics_breaks_a_signed_zero_tie_on_the_next_column():
    # 0.0 and -0.0 tie in column 0, so column 1 orders them: -0.0's row,
    # then 0.0's. In table order column 1 would sum 1 + 2**53 + 1 to 2**53
    # (ties round to even); in this order it sums to 2**53 + 2.
    big = 2.0 ** 53
    table = table_of([[0.0, big], [-1.0, 1.0], [-0.0, 1.0], [1.0, 0.5]], [0] * 4)
    stats = class_statistics(table)
    assert stats.means[0, 1] == (big + 2.0) / 4
    means, variances = lexsort_statistics(table)
    assert stats.means.tobytes() == means.tobytes()
    assert stats.variances.tobytes() == variances.tobytes()


@pytest.mark.parametrize("labels, names, small", [
    ([0, 0, 1, 2, 2], ("a", "b", "c"), 1),
    ([0, 0, 2, 2], ("a", "b", "c", "d"), 1),
    ([1, 1, 0], ("a", "b"), 0),
], ids=["one-row", "no-row", "first-class"])
def test_class_statistics_names_the_first_small_class(labels, names, small):
    table = table_of(np.arange(len(labels), dtype=float)[:, None], labels, names)
    for statistics in (class_statistics, lexsort_statistics):
        with pytest.raises(ClassTooSmall) as raised:
            statistics(table)
        assert raised.value.class_id == small


# -- synthetic generation -----------------------------------------------------

def test_synthetic_shapes_and_planted_structure():
    spec = SyntheticSpec(superclass_count=3, subclasses_per_superclass=2,
                         samples_per_subclass=7, dim=5, seed=1)
    table, structure = generate_synthetic(spec)
    assert table.count == 3 * 2 * 7
    assert table.dim == 5
    assert structure.name == "planted"
    assert structure.superclasses == ("s0", "s1", "s2")
    assert structure.subclass_count == 6
    assert list(structure.parent_index) == [0, 0, 1, 1, 2, 2]
    counts = np.bincount(table.labels, minlength=6)
    assert counts.tolist() == [7] * 6


def test_synthetic_deterministic():
    spec = SyntheticSpec(superclass_count=2, subclasses_per_superclass=3,
                         samples_per_subclass=5, dim=4, seed=9)
    t1, s1 = generate_synthetic(spec)
    t2, s2 = generate_synthetic(spec)
    assert np.array_equal(t1.features, t2.features)
    assert np.array_equal(t1.labels, t2.labels)
    assert s1 == s2
    t3, _ = generate_synthetic(SyntheticSpec(
        superclass_count=2, subclasses_per_superclass=3,
        samples_per_subclass=5, dim=4, seed=10))
    assert not np.array_equal(t1.features, t3.features)


@pytest.mark.parametrize("spec", [
    SyntheticSpec(),
    SyntheticSpec(superclass_count=3, subclasses_per_superclass=2,
                  samples_per_subclass=7, dim=5, noise_scale=0.3, seed=1),
    SyntheticSpec(superclass_count=1, subclasses_per_superclass=4, dim=1, seed=2),
    SyntheticSpec(superclass_count=5, subclasses_per_superclass=1,
                  samples_per_subclass=1, dim=3, seed=3),
    SyntheticSpec(superclass_count=2, subclasses_per_superclass=3,
                  samples_per_subclass=40, dim=256, noise_scale=2.5, seed=4),
], ids=["default", "small", "dim-1", "one-sample", "256-d"])
def test_synthetic_features_equal_the_two_temporary_formula(spec):
    table, _ = generate_synthetic(spec)
    assert table.features.tobytes() == synthetic_features(spec).tobytes()


def test_synthetic_low_noise_is_nearest_center_separable():
    spec = SyntheticSpec(superclass_count=3, subclasses_per_superclass=3,
                         samples_per_subclass=20, dim=8,
                         superclass_separation=20.0, subclass_separation=5.0,
                         noise_scale=0.01, seed=4)
    table, _ = generate_synthetic(spec)
    stats = class_statistics(table)
    diff = table.features[:, None, :] - stats.means[None, :, :]
    nearest = np.argmin((diff * diff).sum(axis=2), axis=1)
    assert np.array_equal(nearest, table.labels)


def test_synthetic_spec_validation():
    with pytest.raises(InvalidSpec):
        SyntheticSpec(superclass_count=0)
    with pytest.raises(InvalidSpec):
        SyntheticSpec(superclass_separation=0.0)
    with pytest.raises(InvalidSpec):
        SyntheticSpec(noise_scale=-1.0)


# -- splitting ----------------------------------------------------------------

def test_split_exact_counts():
    t = table_of(np.arange(40, dtype=np.float64).reshape(20, 2),
                 [0] * 10 + [1] * 10)
    train, test = train_test_split(t, 0.8, seed=0)
    assert np.bincount(train.labels).tolist() == [8, 8]
    assert np.bincount(test.labels).tolist() == [2, 2]
    train99, test99 = train_test_split(t, 0.99, seed=0)
    # floor(10 * 0.99) = 9 on the train side
    assert np.bincount(train99.labels).tolist() == [9, 9]
    assert np.bincount(test99.labels).tolist() == [1, 1]


def test_split_is_exact_partition_and_deterministic():
    rng = np.random.default_rng(5)
    feats = rng.normal(size=(50, 3))
    labels = np.arange(50) % 5
    t = table_of(feats, labels)
    a_train, a_test = train_test_split(t, 0.6, seed=11)
    b_train, b_test = train_test_split(t, 0.6, seed=11)
    assert np.array_equal(a_train.features, b_train.features)
    assert np.array_equal(a_test.features, b_test.features)
    # every original row appears on exactly one side
    combined = np.vstack([a_train.features, a_test.features])
    original = {tuple(row) for row in feats}
    assert {tuple(row) for row in combined} == original
    assert a_train.count + a_test.count == 50
    c_train, _ = train_test_split(t, 0.6, seed=12)
    assert not np.array_equal(a_train.features, c_train.features)


def test_split_floor_rule_across_class_sizes():
    for n in range(2, 21):
        t = table_of(np.arange(n, dtype=np.float64)[:, None], [0] * n)
        train, test = train_test_split(t, 0.5, seed=1)
        assert train.count == n // 2
        assert test.count == n - n // 2


def test_split_rejects_empty_sides():
    t = table_of(np.zeros((2, 1)), [0, 0])
    with pytest.raises(ClassTooSmall):
        train_test_split(t, 0.3, seed=0)  # floor(0.6) leaves train empty
    one_each = table_of(np.zeros((3, 1)), [0, 1, 2])
    with pytest.raises(ClassTooSmall):
        train_test_split(one_each, 0.5, seed=0)
    with pytest.raises(InvalidSpec):
        train_test_split(t, 1.0, seed=0)


def test_split_rejects_an_empty_table():
    with pytest.raises(ClassTooSmall, match="empty table"):
        train_test_split(table_of(np.zeros((0, 3)), []), 0.5, seed=0)


# -- CSV round trip -----------------------------------------------------------

NAMES = ("cat", "dog", "car")


def _drop_twin(path):
    """Delete the binary twin of `path`, if there is one."""
    twin = features._twin_path(path)
    if twin.is_dir():
        twin.rmdir()
    twin.unlink(missing_ok=True)


def parsed(path, names=None):
    """load_feature_table(path, names) by the CSV parser: the file's binary
    twin, if save_feature_table wrote one, is deleted first."""
    _drop_twin(path)
    return load_feature_table(path, names)


def test_csv_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(2)
    feats = rng.normal(size=(12, 3)) * np.pi
    t = table_of(feats, np.arange(12) % 3, NAMES)
    path = tmp_path / "feats.csv"
    save_feature_table(t, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "label,f0,f1,f2"
    assert lines[1].startswith("cat,")
    back = parsed(path, NAMES)
    assert np.array_equal(back.features, t.features)
    assert np.array_equal(back.labels, t.labels)


def test_csv_load_without_names_takes_first_appearance_order(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("label,f0\nz,1.0\ny,2.0\nz,3.0\nx,4.0\n")
    table = load_feature_table(path)
    assert table.subclass_names == ("z", "y", "x")
    assert table.labels.tolist() == [0, 1, 0, 2]


def test_csv_load_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,f0,f1\ncat,1.0,2.0\ndog,3.0\n")
    with pytest.raises(DimensionMismatch, match=r"bad\.csv:3"):
        load_feature_table(path, NAMES)

    path.write_text("label,f0\ncat,oops\n")
    with pytest.raises(MalformedRow, match=r":2"):
        load_feature_table(path, NAMES)

    path.write_text("label,f0\ncat,nan\n")
    with pytest.raises(NonFiniteValue, match=r":2"):
        load_feature_table(path, NAMES)

    path.write_text("label,f0\nzebra,1.0\n")
    with pytest.raises(UnknownLabel, match="zebra"):
        load_feature_table(path, NAMES)

    path.write_text("f0,f1\n1.0,2.0\n")
    with pytest.raises(MalformedRow):
        load_feature_table(path, NAMES)


def test_csv_header_only_file_is_an_empty_table(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("label,f0,f1\n\n")
    table = load_feature_table(path, NAMES)
    assert table.features.shape == (0, 2)
    assert table.labels.shape == (0,)


def test_csv_write_leaves_no_partial_file(tmp_path):
    path = tmp_path / "feats.csv"
    save_feature_table(table_of(np.ones((3, 2)), [0, 1, 2], NAMES), path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [".feats.csv.table", "feats.csv"]


def test_atomic_writer_keeps_the_old_file_on_error(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    with pytest.raises(RuntimeError):
        with atomic_text_writer(path) as fh:
            fh.write("half written")
            raise RuntimeError("interrupted")
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
    with atomic_text_writer(path) as fh:
        fh.write("new\n")
    assert path.read_text() == "new\n"


# Every finite float64 bit pattern class: normals, subnormals, +-0.0 and
# +-max finite. Raw 64-bit patterns cover the exponent range evenly; the
# edge values are mixed in because raw bits rarely hit them.
_EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                2.2250738585072014e-308, 1.7976931348623157e308,
                -1.7976931348623157e308, 0.1, 1.0 / 3.0)


@st.composite
def _tables(draw):
    dim = draw(st.integers(1, 300))
    rows = draw(st.integers(1, 4))
    bits = draw(hnp.arrays(np.uint64, (rows, dim)))
    edges = draw(hnp.arrays(np.float64, (rows, dim),
                            elements=st.sampled_from(_EDGE_VALUES)))
    use_edge = draw(hnp.arrays(np.bool_, (rows, dim)))
    values = bits.view(np.float64)
    values = np.where(use_edge | ~np.isfinite(values), edges, values)
    labels = draw(hnp.arrays(np.int64, rows,
                             elements=st.integers(0, len(NAMES) - 1)))
    return table_of(values, labels, NAMES)


@settings(max_examples=60, deadline=None)
@given(_tables())
def test_csv_round_trip_is_bit_exact_for_any_finite_bits(table):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "feats.csv"
        save_feature_table(table, path)
        back = parsed(path, NAMES)
    assert back.features.view(np.uint64).tobytes() == \
        table.features.view(np.uint64).tobytes()
    assert np.array_equal(back.labels, table.labels)


@settings(max_examples=60, deadline=None)
@given(_tables())
def test_csv_row_text_is_format_float_of_every_value(table):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "feats.csv"
        save_feature_table(table, path)
        lines = path.read_bytes().decode("utf-8").split("\n")
    assert lines[-1] == ""
    for line, values, label in zip(lines[1:-1], table.features, table.labels):
        assert line.split(",") == [NAMES[label]] + [format_float(v) for v in values]


@pytest.mark.parametrize("budget", [1, 5, 8, 1 << 16])
def test_csv_bytes_do_not_depend_on_the_write_block(tmp_path, budget):
    table = table_of(np.arange(40.0).reshape(10, 4) / 3, np.arange(10) % 3, NAMES)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(features, "_WRITE_BLOCK_VALUES", budget)
        save_feature_table(table, tmp_path / "f.csv")
    rows = [",".join([NAMES[label]] + [format_float(v) for v in values])
            for values, label in zip(table.features, table.labels)]
    expected = "label,f0,f1,f2,f3\n" + "".join(row + "\n" for row in rows)
    assert (tmp_path / "f.csv").read_bytes() == expected.encode()


# The floats float_cells writes by array arithmetic and the edges of
# that path. %.17g prints fixed notation for a decimal exponent of -4 to
# 16 after rounding, so values are drawn in that window and on both sides
# of it, beside exact ties of the 17th digit (x * 10**k = m * 5**k / 2
# for x = m / 2**(k + 1), m odd), the neighbours of powers of ten, zeros
# and subnormals. The literals that would round up to the next power,
# 9.9999999999999999e-05 and 99999999999999999.0, read as 1e-4 and 1e17:
# from 1e-4 to 1e17 no float64 lies within half a 17th digit below a
# power of ten.
@st.composite
def _ties(draw):
    k = draw(st.integers(1, 22))
    low, high = -(-2 * 10**16 // 5**k), min(2 * 10**17 // 5**k, 2**53)
    half = draw(st.integers(-(-low // 2), (high - 2) // 2))
    return math.ldexp(2 * half + 1, -(k + 1))


@st.composite
def _power_neighbours(draw):
    value = 10.0 ** draw(st.integers(-8, 20))
    steps = draw(st.integers(-3, 3))
    for _ in range(abs(steps)):
        value = float(np.nextafter(value, math.inf if steps > 0 else 0.0))
    return value


_CELL_EDGES = (9.9999999999999999e-05, 99999999999999999.0, 1e-4, 1e16, 1e17,
               0.0, 5e-324, 2.2250738585072009e-308, 0.1, 1.0 / 3.0)


@st.composite
def _cell_values(draw):
    size = draw(st.one_of(
        st.floats(1e-4, 1e17),  # the fixed-notation window
        st.floats(1e-7, 1e-4),
        st.floats(1e17, 1e20),
        st.floats(0.0, 1.7976931348623157e308),
        _ties(),
        _power_neighbours(),
        st.sampled_from(_CELL_EDGES),
    ))
    return -size if draw(st.booleans()) else size


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.data())
def test_float_cells_are_format_float_of_every_value(rows, columns, data):
    values = np.array(data.draw(st.lists(_cell_values(), min_size=rows * columns,
                                         max_size=rows * columns)))
    # cells in rows one word wider than they are, as the writer lays them out
    words = np.zeros((rows, columns * CELL_WORDS + 1), np.uint64)
    float_cells(values.reshape(rows, columns),
                words[:, :-1].reshape(rows, columns, CELL_WORDS))
    cells = [cell.tobytes().translate(None, b"\xff")
             for cell in words[:, :-1].reshape(-1, CELL_WORDS)]
    assert cells == [("," + format_float(v)).encode() for v in values.tolist()]


# Names with NUL, non-ASCII and 8-byte-long text, so a row's name ends on
# every byte of the word that holds it.
_ODD_NAMES = ("\x00", "a\x00b", "\u00e9", "\u4e2d\u6587", "\U0001f600",
              "name_of8", "nine_long", "\u00ff\u00ff\u00ff\u00ff")


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.data())
def test_csv_bytes_are_format_float_rows_for_any_names(dim, data):
    rows = data.draw(st.integers(1, 6))
    values = np.array(data.draw(st.lists(_cell_values(), min_size=rows * dim,
                                         max_size=rows * dim))).reshape(rows, dim)
    labels = data.draw(st.lists(st.integers(0, len(_ODD_NAMES) - 1),
                                min_size=rows, max_size=rows))
    table = table_of(values, labels, _ODD_NAMES)
    expected = "label," + ",".join(f"f{j}" for j in range(dim)) + "\n" + "".join(
        ",".join([_ODD_NAMES[label]] + [format_float(v) for v in row]) + "\n"
        for row, label in zip(values.tolist(), labels))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "feats.csv"
        save_feature_table(table, path)
        assert path.read_bytes() == expected.encode("utf-8")
        back = parsed(path, _ODD_NAMES)
    assert back.features.tobytes() == table.features.tobytes()
    assert back.labels.tolist() == labels


# Rows past numpy's 50 000-row loadtxt chunk, behind blank lines, so a row
# index can never pass for a line number.
_LEAD_ROWS = 50_003


def _long_file(tmp_path, bad_row):
    """Header, 3 blank lines, 50 003 good rows with a blank line every
    10 000, then `bad_row`; returns (path, line number of `bad_row`)."""
    lines = ["label,f0,f1", "", "", ""]
    for i in range(_LEAD_ROWS):
        if i % 10_000 == 0:
            lines.append("")
        lines.append(f"{NAMES[i % 3]},{i}.5,-{i}")
    lines.append(bad_row)
    lines += ["dog,1,2", ""]
    path = tmp_path / "long.csv"
    path.write_text("\n".join(lines))
    return path, lines.index(bad_row) + 1


@pytest.mark.parametrize("bad_row, error", [
    ("cat,1.0", DimensionMismatch),
    ("cat,1.0,2.0,3.0", DimensionMismatch),
    ("zebra,1.0,2.0", UnknownLabel),
    ("cat,1.0,oops", MalformedRow),
    ("cat,,2.0", MalformedRow),
    ("cat,1.0,nan", NonFiniteValue),
    ("cat,-inf,2.0", NonFiniteValue),
    ("cat,1e999,2.0", NonFiniteValue),
])
def test_csv_errors_name_the_exact_line_past_a_loadtxt_chunk(tmp_path, bad_row,
                                                            error):
    path, lineno = _long_file(tmp_path, bad_row)
    assert lineno == 1 + 3 + 6 + _LEAD_ROWS + 1
    with pytest.raises(error, match=rf"long\.csv:{lineno}: "):
        load_feature_table(path, NAMES)


@pytest.mark.parametrize("cell", [
    "1#2",     # '#' is data, never a comment
    "#1",
    "1_0",     # float() accepts digit separators; the format does not
    "١٢",  # Arabic-Indic digits, also accepted by float()
    "１",  # fullwidth digit one
    "0x10",
    "",
])
def test_csv_cells_are_ascii_decimal_floats(tmp_path, cell):
    path = tmp_path / "cells.csv"
    path.write_text(f"label,f0,f1\n\ncat,1.0,2.0\ndog,3.0,{cell}\n")
    with pytest.raises(MalformedRow, match=r"cells\.csv:4: .*column f1"):
        load_feature_table(path, NAMES)


def test_csv_single_column_empty_cell_is_malformed(tmp_path):
    # With one feature the cell text is empty, which loadtxt alone would
    # skip as a blank line and so drop the row.
    path = tmp_path / "one.csv"
    path.write_text("label,f0\ncat,1.0\ndog,\ncat,2.0\n")
    with pytest.raises(MalformedRow, match=r"one\.csv:3: "):
        load_feature_table(path, NAMES)


# -- the writer in row ranges, the loader in one pass -------------------------

@contextlib.contextmanager
def counted_forks(count):
    """Let work split as if the process could run on `count` CPUs, and
    yield the pids of the workers forked meanwhile; none of them is left
    to reap after the block."""
    forks = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(workers, "cpus", lambda: list(range(count)))
        patch.setattr(os, "fork", counting_fork)
        yield forks
    for pid in forks:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@contextlib.contextmanager
def many_ranges():
    """Write every feature file in up to 4 ranges, however small, and
    yield the pids of the workers forked meanwhile."""
    with counted_forks(4) as forks, pytest.MonkeyPatch.context() as patch:
        patch.setattr(features, "_MIN_RANGE_VALUES", 1)
        yield forks


def one_range(call):
    """call() with one range."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(features, "_MIN_RANGE_VALUES", 10**18)
        return call()


def _one_range_bytes(table, path):
    """The bytes of `table` saved to `path` in one range."""
    one_range(lambda: save_feature_table(table, path))
    return path.read_bytes()


@contextlib.contextmanager
def parser_calls():
    """Yield the path of each _parse_rows call made meanwhile."""
    calls = []
    real_parse_rows = features._parse_rows

    def counting(lines, path, *args):
        calls.append(path)
        return real_parse_rows(lines, path, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(features, "_parse_rows", counting)
        yield calls


def test_range_parts_have_no_names_a_kill_could_leave(tmp_path):
    # SIGKILL runs no cleanup, so the writer's scratch must hold no name
    path = tmp_path / "feats.csv"
    listed = []
    real_in_parts = features.in_parts

    def listing(count, run):
        results = real_in_parts(count, run)
        listed.append(sorted(p.name for p in tmp_path.iterdir()))
        return results

    table = table_of(np.arange(24.0).reshape(12, 2), [0, 1, 2] * 4)
    with many_ranges() as forks, pytest.MonkeyPatch.context() as patch:
        patch.setattr(features, "in_parts", listing)
        save_feature_table(table, path)
    assert forks
    assert listed == [[".feats.csv.partial"]]
    assert load_feature_table(path).features.tolist() == table.features.tolist()


@settings(max_examples=30, deadline=None)
@given(_tables())
def test_csv_round_trip_is_bit_exact_in_many_ranges(table):
    # a range per value up to 4, empty ones included; the load parses
    # once and forks none
    ranges = min(4, table.count * table.dim)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "feats.csv"
        with many_ranges() as forks:
            save_feature_table(table, path)
            assert len(forks) == ranges - 1
            with parser_calls() as calls:
                back = parsed(path, NAMES)
            assert len(forks) == ranges - 1
        assert calls == [path]
        assert path.read_bytes() == _one_range_bytes(table, Path(tmp) / "one.csv")
    assert back.features.view(np.uint64).tobytes() == \
        table.features.view(np.uint64).tobytes()
    assert np.array_equal(back.labels, table.labels)


@settings(max_examples=30, deadline=None)
@given(_tables())
def test_csv_row_text_is_format_float_of_every_value_in_many_ranges(table):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "feats.csv"
        with many_ranges():
            save_feature_table(table, path)
        lines = path.read_bytes().decode("utf-8").split("\n")
    assert lines[-1] == ""
    assert len(lines) == table.count + 2
    for line, values, label in zip(lines[1:-1], table.features, table.labels):
        assert line.split(",") == [NAMES[label]] + [format_float(v) for v in values]


_ROW = b"cat,1.00000,2.00000"
_FAULTS = {
    "cell-count": (b"cat,1.0000000000000", DimensionMismatch),
    "unknown-label": (b"cow,1.00000,2.00000", UnknownLabel),
    "name-rule": (b" ca,1.00000,2.00000", StructureError),
    "malformed-cell": (b"cat,1.00000,2.0000x", MalformedRow),
    "non-finite": (b"cat,1.00000,1e99999", NonFiniteValue),
    "not-utf8": (b"cat,1.00000,2.0000\xff", MalformedRow),
}


def _ranged_file(path, bad_line=None, bad_row=b""):
    """Header and 2000 rows (line 2 on), with line `bad_line` replaced.

    At 40 kB the file outruns the text reader's first 8 kB chunk, so a
    fault on a later line is decoded after the first rows are read.
    """
    rows = [b"label,f0,f1"] + [_ROW] * 2000
    if bad_line is not None:
        rows[bad_line - 1] = bad_row
    path.write_bytes(b"\n".join(rows) + b"\n")
    return path


# An early line, a middle one and the last, named by where a 4-range
# write of the 2000 rows cuts: line 3 lies before the first cut, line 1002
# starts the third range, and line 2001 ends the last.
_FAULT_LINES = {"before-cut": 3, "after-cut": 1002, "last-range": 2001}


@pytest.mark.parametrize("where", _FAULT_LINES)
@pytest.mark.parametrize("fault", _FAULTS, ids=_FAULTS.keys())
def test_a_fault_in_any_range_is_the_one_range_error(tmp_path, fault, where):
    bad_row, error = _FAULTS[fault]
    line = _FAULT_LINES[where]
    path = _ranged_file(tmp_path / "bad.csv", line, bad_row)
    names = None if fault == "name-rule" else NAMES
    with many_ranges() as forks, parser_calls() as calls:
        with pytest.raises(error) as raised:
            load_feature_table(path, names)
    # one pass at most: bytes that are not UTF-8 in the reader's first
    # chunk fail while the header is read
    assert forks == []
    assert len(calls) <= 1
    # text is decoded ahead of the line, so not-utf8 names the file alone
    at = "bad.csv: not UTF-8" if fault == "not-utf8" else f"bad.csv:{line}: "
    assert at in str(raised.value)


def test_a_lone_carriage_return_ends_a_line_in_any_range_count(tmp_path):
    # the text reader ends a line at "\r" as at "\n", so a fault after
    # one is a line further on than the "\n" bytes alone would put it
    path = _ranged_file(tmp_path / "bad.csv", 3, _ROW[:-2] + b"\r" + _ROW)
    lines = path.read_bytes().split(b"\n")
    lines[-3] = b"cat,1.00000,2.0000x"
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(MalformedRow) as raised:
        load_feature_table(path, NAMES)
    assert f"bad.csv:{len(lines) - 1}: " in str(raised.value)


def test_a_parse_error_in_a_later_range_wins_over_a_non_finite_value(tmp_path):
    # a non-finite value is reported only once every line has parsed
    path = _ranged_file(tmp_path / "bad.csv", 3, b"cat,1.00000,1e99999")
    lines = path.read_bytes().split(b"\n")
    lines[-3] = b"cat,1.00000,2.0000x"
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(MalformedRow) as raised:
        load_feature_table(path, NAMES)
    assert f"bad.csv:{len(lines) - 2}: " in str(raised.value)


def test_first_appearance_names_stay_in_order_across_cuts(tmp_path):
    # names first met in every range of a 4-range write, in another order
    # than the table's own
    labels = [f"n{i // 7 % 5}" if i % 3 else f"m{i // 11}" for i in range(80)]
    names = tuple(sorted(set(labels)))
    table = table_of(np.arange(80.0)[:, None] + 0.5,
                     [names.index(n) for n in labels], names)
    path = tmp_path / "names.csv"
    with many_ranges() as forks:
        save_feature_table(table, path)
        assert len(forks) == 3
        with parser_calls() as calls:
            back = parsed(path)
        assert len(forks) == 3
    assert calls == [path]
    assert back.subclass_names == tuple(dict.fromkeys(labels))
    assert [back.subclass_names[i] for i in back.labels] == labels
    assert back.features.tobytes() == table.features.tobytes()


class _Unwritable(str):
    """A name that, once `armed`, cannot be encoded into a row."""

    armed = False

    def encode(self, *args, **kwargs):
        if self.armed:
            raise OSError("no space left on device")
        return super().encode(*args, **kwargs)


@pytest.mark.parametrize("row", [0, -1], ids=["first-range", "last-range"])
def test_a_failed_ranged_write_leaves_the_directory_empty(tmp_path, row):
    labels = np.zeros(40, dtype=np.int64)
    labels[row] = 1
    table = FeatureTable(np.ones((40, 2)), labels, ("a", _Unwritable("b")))
    table.subclass_names[1].armed = True  # each range encodes its own rows' names
    with many_ranges() as forks:
        with pytest.raises(OSError, match="no space left on device"):
            save_feature_table(table, tmp_path / "feats.csv")
    assert len(forks) == 3
    assert list(tmp_path.iterdir()) == []


def test_a_worker_that_dies_without_a_result_is_an_os_error(tmp_path, monkeypatch):
    parent = os.getpid()
    real_write_rows = features._write_rows

    def dying_write_rows(*args):
        if os.getpid() != parent:
            os._exit(3)
        real_write_rows(*args)

    monkeypatch.setattr(features, "_write_rows", dying_write_rows)
    with many_ranges() as forks:
        with pytest.raises(ChildProcessError, match="ended without a result"):
            save_feature_table(table_of(np.ones((40, 2)), [0] * 40), tmp_path / "f.csv")
    assert len(forks) == 3
    assert list(tmp_path.iterdir()) == []


def _round_trip_in_one_process(tmp_path):
    """Save and load a table with ranges forced but no fork made."""
    table = table_of(np.arange(80.0).reshape(40, 2), np.arange(40) % 3, NAMES)
    path = tmp_path / "feats.csv"
    with many_ranges() as forks:
        save_feature_table(table, path)
        back = parsed(path, NAMES)
    assert forks == []
    assert path.read_bytes() == _one_range_bytes(table, tmp_path / "one.csv")
    assert np.array_equal(back.features, table.features)
    assert np.array_equal(back.labels, table.labels)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        ".one.csv.table", "feats.csv", "one.csv"]


def test_ranges_stay_in_process_while_a_second_thread_runs(tmp_path):
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        _round_trip_in_one_process(tmp_path)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_ranges_stay_in_process_when_fork_fails(tmp_path, monkeypatch):
    def failing_fork():
        raise OSError("fork: resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", failing_fork)
    _round_trip_in_one_process(tmp_path)


# -- the binary twin ----------------------------------------------------------

def _outcome(path, names=None):
    """What load_feature_table(path, names) gives: the table's feature bits,
    shape, labels and names, or the error's type and text."""
    try:
        table = load_feature_table(path, names)
    except HierFusionError as exc:
        return type(exc), str(exc)
    return (table.features.tobytes(), table.features.shape, table.labels.tolist(),
            table.subclass_names)


def _parsed_outcomes(path, hints):
    """_outcome of each hint once the twin of `path` is gone."""
    _drop_twin(path)
    return [_outcome(path, names) for names in hints]


# Any legal name, and names ending in NUL, which a numpy "U" array cuts off.
_NAME = (st.text(st.characters(exclude_characters=",\n\r", exclude_categories=("Cs",)),
                 max_size=4).map(str.strip)
         | st.sampled_from(["a\x00", "\x00", "b\x00\x00"]))


@st.composite
def _named_tables(draw):
    """A table under any legal name table, some names unused and the rest
    met in any order, with 0 to 6 rows of any finite values."""
    names = tuple(draw(st.lists(_NAME, max_size=5, unique=True)))
    labels = draw(st.lists(st.integers(0, len(names) - 1), max_size=6)) if names else []
    dim = draw(st.integers(1, 3))
    values = draw(hnp.arrays(np.float64, (len(labels), dim),
                             elements=st.floats(allow_nan=False, allow_infinity=False)))
    return table_of(values, labels, names)


def _hints(table):
    """None, the table's names, two permutations of them, a superset and,
    with any rows, the names less the one the last row is labelled by."""
    own = list(table.subclass_names)
    hints = [None, own, own[::-1], own[1:] + own[:1],
             own + [n for n in ("x", "y\x00", "") if n not in own]]
    if table.count:
        hints.append([n for n in own if n != own[table.labels[-1]]])
    return hints


@settings(max_examples=80, deadline=None)
@given(_named_tables())
@example(table_of(np.zeros((0, 2)), [], NAMES))
@example(table_of([[1.0], [-0.0], [5e-324], [2.0]], [2, 0, 2, 1], ("b\x00", "c", "a\x00")))
def test_the_twin_loads_what_the_parser_loads(table):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "feats.csv"
        save_feature_table(table, path)
        with parser_calls() as calls:
            from_twin = [_outcome(path, names) for names in _hints(table)]
        assert calls == []
        assert from_twin == _parsed_outcomes(path, _hints(table))


@pytest.mark.parametrize("ranges", ["one-range", "many-ranges"])
def test_the_twin_is_trusted_right_after_a_save(tmp_path, ranges):
    # the file is hashed as it is written, header, ranges and all; a
    # wrong hash would only show as every load parsing
    table = table_of(np.arange(80.0).reshape(40, 2) / 7, np.arange(40) % 3, NAMES)
    path = tmp_path / "feats.csv"
    if ranges == "one-range":
        one_range(lambda: save_feature_table(table, path))
    else:
        with many_ranges() as forks:
            save_feature_table(table, path)
        assert len(forks) == 3
    twin = features._load_twin(path, None)
    assert twin is not None
    assert twin.features.tobytes() == table.features.tobytes()


_SAVED = table_of([[1.5, 2.0], [3.0, 4.0], [5.0, 6.0]], [0, 1, 0], NAMES)


def _assert_parsed(path):
    """Loading `path` runs the parser and gives what it gives once the
    twin is gone, with the file's names and with NAMES."""
    with parser_calls() as calls:
        got = [_outcome(path, names) for names in (None, NAMES)]
    assert calls == [path, path]
    assert got == _parsed_outcomes(path, (None, NAMES))
    return got


@pytest.mark.parametrize("old, new", [
    (b"dog,3,4", b"dog,7,4"),
    (b"dog,3", b"dot,3"),
    (b"cat,5", b"cat,x"),
    (b"6\n", b"6"),
], ids=["value", "label", "malformed", "last-line-break"])
def test_a_csv_edited_by_one_byte_after_saving_is_parsed(tmp_path, old, new):
    path = tmp_path / "feats.csv"
    save_feature_table(_SAVED, path)
    text = path.read_bytes()
    assert text.count(old) == 1
    path.write_bytes(text.replace(old, new))
    _assert_parsed(path)


def test_a_csv_replaced_by_another_tables_csv_is_parsed(tmp_path):
    path, other = tmp_path / "feats.csv", tmp_path / "other.csv"
    save_feature_table(_SAVED, path)
    save_feature_table(table_of(np.arange(6.0).reshape(3, 2), [2, 2, 1], NAMES), other)
    os.replace(other, path)
    got = _assert_parsed(path)
    assert got[0][2:] == ([0, 0, 1], ("car", "dog"))


def _sealed(damage):
    """`damage` applied to all of the twin but its closing SHA-256, which is
    then that of the damaged bytes: a twin that passes the byte check."""
    def sealed(blob):
        body = damage(blob[:-32])
        return body + hashlib.sha256(body).digest()
    return sealed


def _with_header(**fields):
    """A damage that rewrites the header of the twin body with `fields` set."""
    def damage(body):
        start = len(features.TABLE_MAGIC) + 4
        (size,) = struct.unpack_from("<I", body, len(features.TABLE_MAGIC))
        text = json.dumps(dict(json.loads(body[start:start + size]), **fields)).encode()
        return (features.TABLE_MAGIC + struct.pack("<I", len(text)) + text
                + body[start + size:])
    return damage


def _with_payload(offset, raw):
    """A damage that writes `raw` at byte `offset` of the twin's payload
    (features 6 x 8 bytes, then labels 3 x 8, then the closing 32)."""
    def damage(blob):
        at = len(blob) - 104 + offset
        return blob[:at] + raw + blob[at + len(raw):]
    return damage


_DAMAGES = {
    "zero-length": lambda blob: b"",
    "truncated": lambda blob: blob[:-1],
    "magic-only": lambda blob: blob[:len(features.TABLE_MAGIC)],
    "header-cut": lambda blob: blob[:len(features.TABLE_MAGIC) + 12],
    "garbage": lambda blob: bytes(range(256)) * 3,
    "extra-byte": lambda blob: blob + b"\0",
    "header-length-past-end": lambda blob: (features.TABLE_MAGIC + struct.pack("<I", 10**9)
                                            + blob[len(features.TABLE_MAGIC) + 4:]),
    "header-name": lambda blob: blob.replace(b'"dog"', b'"dot"', 1),
    "header-rows": lambda blob: blob.replace(b'"rows": 3', b'"rows": 2', 1),
    "feature-value": _with_payload(8, struct.pack("<d", 9.0)),
    "label": _with_payload(48, struct.pack("<q", 1)),
    "closing-hash": _with_payload(103, b"\xff"),
    "sealed-stale-source": _sealed(_with_header(source="0" * 64)),
    "sealed-other-version": _sealed(lambda body: body.replace(b"-v1", b"-v9", 1)),
    "sealed-header-not-json": _sealed(lambda body: body.replace(b"{", b"(", 1)),
    "sealed-header-not-an-object": _sealed(
        lambda body: features.TABLE_MAGIC + struct.pack("<I", 2) + b"[]" + body[-72:]),
    "sealed-rows-text": _sealed(_with_header(rows="3")),
    "sealed-rows-bool": _sealed(_with_header(rows=True)),
    "sealed-rows-negative": _sealed(_with_header(rows=-1)),
    "sealed-rows-huge": _sealed(_with_header(rows=10**12)),
    "sealed-dim-zero": _sealed(_with_header(dim=0)),
    "sealed-dim-negative": _sealed(_with_header(dim=-2)),
    "sealed-dim-float": _sealed(_with_header(dim=2.0)),
    "sealed-names-not-text": _sealed(_with_header(names=[1, 2])),
    "sealed-names-text": _sealed(_with_header(names="cd")),
    "sealed-label-past-names": _sealed(_with_header(names=["cat"])),
    "sealed-names-repeated": _sealed(_with_header(names=["cat", "cat"])),
    "a-directory": None,
}


@pytest.mark.parametrize("damage", _DAMAGES.values(), ids=_DAMAGES.keys())
def test_a_damaged_twin_is_a_cache_miss(tmp_path, damage):
    path = tmp_path / "feats.csv"
    save_feature_table(_SAVED, path)
    twin = features._twin_path(path)
    if damage is None:
        twin.unlink()
        twin.mkdir()
    else:
        blob = twin.read_bytes()
        assert damage(blob) != blob
        twin.write_bytes(damage(blob))
    got = _assert_parsed(path)
    assert got[1][2:] == (_SAVED.labels.tolist(), NAMES)


class _FullDisk:
    """A file whose first write lands and whose later writes fail."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def write(self, data):
        self.writes += 1
        if self.writes > 1:
            raise OSError("no space left on device")
        return self.fh.write(data)


@pytest.mark.parametrize("older", [False, True], ids=["no-twin", "older-twin"])
def test_a_twin_write_that_fails_partway_leaves_a_csv_that_is_parsed(tmp_path, older):
    path = tmp_path / "feats.csv"
    if older:
        save_feature_table(table_of(np.arange(6.0).reshape(3, 2), [2, 2, 1], NAMES), path)
    real_writer = serialization.atomic_text_writer

    @contextlib.contextmanager
    def full_disk_for_twin(target, *, binary=False):
        with real_writer(target, binary=binary) as fh:
            yield _FullDisk(fh) if target == features._twin_path(path) else fh

    with pytest.MonkeyPatch.context() as patch:  # save_frame writes the twin
        patch.setattr(serialization, "atomic_text_writer", full_disk_for_twin)
        with pytest.raises(OSError, match="no space left on device"):
            save_feature_table(_SAVED, path)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ([".feats.csv.table"] if older else []) + ["feats.csv"]
    got = _assert_parsed(path)
    assert got[1][2:] == (_SAVED.labels.tolist(), NAMES)


# -- one copy of each array ---------------------------------------------------

# A 256-d table of 2000 rows (4 MB of features), the fit-wide width.
_WIDE = SyntheticSpec(superclass_count=4, subclasses_per_superclass=5,
                      samples_per_subclass=100, dim=256, seed=7)


def _traced_peak(call):
    """(call(), the most bytes traced at once while it ran).

    Everything is run once untraced first, so one-time imports and caches
    are not counted."""
    call()
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _nbytes(table):
    return table.features.nbytes + table.labels.nbytes


def test_generating_a_table_holds_its_features_about_once():
    table, peak = _traced_peak(lambda: generate_synthetic(_WIDE)[0])
    assert peak <= 1.25 * table.features.nbytes


def test_loading_a_table_from_its_twin_holds_its_features_about_once(tmp_path):
    path = tmp_path / "feats.csv"
    save_feature_table(generate_synthetic(_WIDE)[0], path)
    table, peak = _traced_peak(lambda: load_feature_table(path))
    assert peak <= 1.25 * table.features.nbytes


def test_loading_and_splitting_holds_the_table_and_its_sides_once(tmp_path):
    path = tmp_path / "feats.csv"
    save_feature_table(generate_synthetic(_WIDE)[0], path)

    def load_and_split():
        table = load_feature_table(path)
        return table, train_test_split(table, 0.8, seed=1)

    (table, sides), peak = _traced_peak(load_and_split)
    assert peak <= _nbytes(table) + sum(map(_nbytes, sides)) + 0.25 * _nbytes(table)
