"""Structure validation, tree distances, and structure (de)serialization."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierfusion.exceptions import (
    DimensionMismatch,
    DuplicateSubclass,
    EmptySuperclass,
    IdOutOfRange,
    OrphanSubclass,
    StructureError,
    SubclassSpaceMismatch,
    UnknownSubclass,
    UnknownSuperclass,
)
from hierfusion.taxonomy import (
    LabelStructure,
    StructureSet,
    lca_heights,
    load_structure,
    load_structure_set,
    save_structure,
    structure_from_dict,
    structure_to_dict,
    validate_structure,
)
from oracles import (
    ROOT,
    augmented_set,
    lca_height,
    random_structure,
    tie_distance,
)


def small_structure(name="t"):
    return validate_structure(
        name=name,
        superclasses=["animal", "vehicle"],
        subclass_names=["cat", "dog", "car"],
        parent_of={"cat": "animal", "dog": "animal", "car": "vehicle"},
    )


def test_validate_happy_path():
    s = small_structure()
    assert s.subclass_count == 3
    assert s.superclass_count == 2
    assert list(s.parent_index) == [0, 0, 1]
    assert s.subclass_names == ("cat", "dog", "car")
    assert s.superclasses == ("animal", "vehicle")


def test_validate_unknown_superclass():
    with pytest.raises(UnknownSuperclass):
        validate_structure(
            name="t",
            superclasses=["animal"],
            subclass_names=["cat", "car"],
            parent_of={"cat": "animal", "car": "vehicle"},
        )


def test_validate_empty_superclass():
    with pytest.raises(EmptySuperclass):
        validate_structure(
            name="t",
            superclasses=["animal", "vehicle"],
            subclass_names=["cat", "dog"],
            parent_of={"cat": "animal", "dog": "animal"},
        )


def test_validate_orphan_subclass():
    with pytest.raises(OrphanSubclass):
        validate_structure(
            name="t",
            superclasses=["animal"],
            subclass_names=["cat", "dog"],
            parent_of={"cat": "animal"},
        )


def test_validate_unknown_subclass_in_parent_map():
    with pytest.raises(UnknownSubclass):
        validate_structure(
            name="t",
            superclasses=["animal"],
            subclass_names=["cat"],
            parent_of={"cat": "animal", "ghost": "animal"},
        )


def test_validate_duplicate_names():
    with pytest.raises(DuplicateSubclass):
        validate_structure(
            name="t",
            superclasses=["animal"],
            subclass_names=["cat", "cat"],
            parent_of={"cat": "animal"},
        )
    with pytest.raises(StructureError):
        validate_structure(
            name="t",
            superclasses=["animal", "animal"],
            subclass_names=["cat", "dog"],
            parent_of={"cat": "animal", "dog": "animal"},
        )


@pytest.mark.parametrize("bad", ["a,b", "a\nb", "a\rb", " a", "a ", "a\t"])
@pytest.mark.parametrize("role", ["subclass", "superclass", "structure"])
def test_validate_rejects_names_that_break_csv_cells(bad, role):
    # a subclass name is a feature-CSV label cell and a structure name a
    # history-CSV header cell; one that does not read back as itself would
    # make a written file unloadable
    sub = bad if role == "subclass" else "cat"
    sup = bad if role == "superclass" else "animal"
    with pytest.raises(StructureError, match="name"):
        validate_structure(
            name=bad if role == "structure" else "t",
            superclasses=[sup],
            subclass_names=[sub, "dog"],
            parent_of={sub: sup, "dog": sup},
        )


@pytest.mark.parametrize("fields, error", [
    (dict(subclass_names=("a,b", "c")), StructureError),
    (dict(subclass_names=(" a", "c")), StructureError),
    (dict(subclass_names=("a", "a")), DuplicateSubclass),
    (dict(superclasses=("u", "u")), StructureError),
    (dict(superclasses=("u\r",)), StructureError),
    (dict(name="h,1"), StructureError),
], ids=["subclass-comma", "subclass-space", "subclass-twice", "superclass-twice",
        "superclass-break", "name-comma"])
def test_a_structure_built_directly_follows_the_name_rule(fields, error):
    raw = dict(name="t", superclasses=("u",), subclass_names=("a", "c"),
               parent_index=np.zeros(2, dtype=np.int64))
    with pytest.raises(error) as caught:
        LabelStructure(**dict(raw, **fields))
    # a repeated superclass is a structure error, not a repeated subclass
    assert (type(caught.value) is DuplicateSubclass) == (error is DuplicateSubclass)


@pytest.mark.parametrize("parents, error", [
    ([0, 1, 1, 2], UnknownSuperclass),
    ([0, 1, 1, 10**12], UnknownSuperclass),
    ([0, -1, 1, 1], OrphanSubclass),
    ([0, 1, 1], DimensionMismatch),
    ([0, 1, 1, 0, 1], DimensionMismatch),
    ([0, 0, 0, 0], EmptySuperclass),
], ids=["parent-past-superclasses", "parent-huge", "parent-negative",
        "parents-short", "parents-long", "childless-superclass"])
def test_a_structure_built_directly_follows_the_tree_rule(parents, error):
    with pytest.raises(error) as caught:
        LabelStructure("a", ("s0", "s1"), ("c0", "c1", "c2", "c3"), parents)
    assert type(caught.value) is error


def test_an_orphan_is_named_before_a_parent_out_of_range():
    with pytest.raises(OrphanSubclass, match="c1"):
        LabelStructure("a", ("s0", "s1"), ("c0", "c1", "c2"), [0, -1, 5])


@st.composite
def _structure_fields(draw):
    """(superclasses, subclass names, parent index), legal or one fault
    away: parents one entry short or long, or one past either end."""
    names = st.lists(st.text("abcxyz", min_size=1, max_size=3), max_size=6, unique=True)
    superclasses, subclasses = draw(names), draw(names)
    size = len(subclasses) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    parents = draw(st.lists(st.integers(-1, len(superclasses)),
                            min_size=max(size, 0), max_size=max(size, 0)))
    return superclasses, subclasses, parents


@settings(max_examples=300, deadline=None)
@given(_structure_fields())
def test_every_structure_that_builds_round_trips(fields):
    superclasses, subclasses, parents = fields
    try:
        structure = LabelStructure("h", superclasses, subclasses, parents)
    except (StructureError, DimensionMismatch):
        return
    raw = structure_to_dict(structure)
    assert validate_structure(raw["name"], raw["superclasses"], raw["subclasses"],
                              raw["parent_of"]) == structure
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "structure.json"
        save_structure(structure, path)
        assert load_structure(path) == structure


def test_validate_accepts_inner_spaces_and_unicode():
    s = validate_structure(
        name="t",
        superclasses=["big animal"],
        subclass_names=["house cat", "chien"],
        parent_of={"house cat": "big animal", "chien": "big animal"},
    )
    assert s.subclass_names == ("house cat", "chien")


def test_tie_distance_three_cases():
    s = small_structure()
    assert tie_distance(s, 0, 0) == 0
    assert tie_distance(s, 0, 1) == 2
    assert tie_distance(s, 0, 2) == 4
    assert tie_distance(s, 2, 0) == 4


def test_lca_height_three_cases():
    s = small_structure()
    assert lca_height(s, 1, 1) == 0
    assert lca_height(s, 0, 1) == 1
    assert lca_height(s, 1, 2) == 2


def test_distance_id_range_checks():
    s = small_structure()
    with pytest.raises(IdOutOfRange):
        tie_distance(s, 0, 3)
    with pytest.raises(IdOutOfRange):
        lca_height(s, -1, 0)
    with pytest.raises(IdOutOfRange):
        lca_heights(s, np.array([0, 3]), np.array([0, 0]))
    with pytest.raises(IdOutOfRange):
        augmented_set(s, 5)


def test_lca_heights_matches_scalar():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        s = random_structure(rng, n)
        c = rng.integers(0, n, size=30)
        c_hat = rng.integers(0, n, size=30)
        vec = lca_heights(s, c, c_hat)
        ref = [lca_height(s, int(a), int(b)) for a, b in zip(c, c_hat)]
        assert vec.tolist() == ref


def test_augmented_set_contents():
    s = small_structure(name="t")
    assert augmented_set(s, 0) == frozenset({ROOT, "t/animal", 0})
    assert augmented_set(s, 2) == frozenset({ROOT, "t/vehicle", 2})
    # Every augmented set has exactly three nodes: leaf, parent, root.
    for c in range(3):
        assert len(augmented_set(s, c)) == 3


def test_augmented_overlap_tracks_lca_height():
    s = small_structure()
    # identical leaves share all 3 nodes, siblings 2, cross-super 1
    assert len(augmented_set(s, 0) & augmented_set(s, 0)) == 3
    assert len(augmented_set(s, 0) & augmented_set(s, 1)) == 2
    assert len(augmented_set(s, 0) & augmented_set(s, 2)) == 1


def test_path_set_overlap_is_three_minus_library_lca_height():
    # The metrics score a pair by 3 - lca_heights; the path-set oracle
    # counts the shared nodes of the two root-to-leaf paths.
    rng = np.random.default_rng(29)
    for i in range(25):
        n = int(rng.integers(2, 12))
        s = random_structure(rng, n, name=f"h{i}")
        a, b = (grid.ravel() for grid in np.meshgrid(np.arange(n), np.arange(n)))
        heights = lca_heights(s, a, b)
        overlaps = [len(augmented_set(s, x) & augmented_set(s, y))
                    for x, y in zip(a.tolist(), b.tolist())]
        assert (3 - heights).tolist() == overlaps


def test_distance_identities_random_structures():
    rng = np.random.default_rng(123)
    for _ in range(50):
        n = int(rng.integers(2, 15))
        s = random_structure(rng, n)
        a = int(rng.integers(0, n))
        b = int(rng.integers(0, n))
        tie = tie_distance(s, a, b)
        lca = lca_height(s, a, b)
        assert tie == 2 * lca
        assert tie == tie_distance(s, b, a)
        assert (tie == 0) == (a == b)
        overlap = len(augmented_set(s, a) & augmented_set(s, b))
        assert overlap == 3 - lca


def test_structure_set_rejects_mismatched_name_tables():
    a = small_structure(name="a")
    b = validate_structure(
        name="b",
        superclasses=["x"],
        subclass_names=["cat", "dog", "truck"],
        parent_of={"cat": "x", "dog": "x", "truck": "x"},
    )
    with pytest.raises(SubclassSpaceMismatch):
        StructureSet((a, b))


@pytest.mark.parametrize("members", [("a", "b"), (None,), "ab"])
def test_structure_set_refuses_members_that_are_not_structures(members):
    with pytest.raises(StructureError, match="LabelStructure"):
        StructureSet(members)


def test_structure_set_basic_access():
    a = small_structure(name="a")
    b = validate_structure(
        name="b",
        superclasses=["all"],
        subclass_names=["cat", "dog", "car"],
        parent_of={"cat": "all", "dog": "all", "car": "all"},
    )
    pair = StructureSet((a, b))
    assert len(pair) == 2
    assert pair[1] is b
    assert [s.name for s in pair] == ["a", "b"]
    assert pair.subclass_names == ("cat", "dog", "car")


def test_empty_structure_set_has_no_id_space():
    empty = StructureSet(())
    assert len(empty) == 0
    with pytest.raises(SubclassSpaceMismatch):
        empty.subclass_names


def test_dict_round_trip():
    s = small_structure(name="rt")
    raw = structure_to_dict(s)
    assert raw["name"] == "rt"
    assert raw["superclasses"] == ["animal", "vehicle"]
    assert raw["subclasses"] == ["cat", "dog", "car"]
    assert raw["parent_of"] == {"cat": "animal", "dog": "animal", "car": "vehicle"}
    assert structure_from_dict(raw) == s


def test_file_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    for i in range(5):
        s = random_structure(rng, int(rng.integers(2, 10)), name=f"h{i}")
        path = tmp_path / f"h{i}.json"
        save_structure(s, path)
        assert load_structure(path) == s


def test_load_structure_set_checks_shared_space(tmp_path):
    a = small_structure(name="a")
    b = validate_structure(
        name="b",
        superclasses=["x"],
        subclass_names=["cat", "dog"],
        parent_of={"cat": "x", "dog": "x"},
    )
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_structure(a, pa)
    save_structure(b, pb)
    with pytest.raises(SubclassSpaceMismatch):
        load_structure_set([pa, pb])


def test_equality_and_hash():
    s1 = small_structure()
    s2 = small_structure()
    assert s1 == s2
    assert hash(s1) == hash(s2)
    s3 = small_structure(name="other")
    assert s1 != s3
