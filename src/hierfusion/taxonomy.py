"""Three-level label structures and the tree distances defined on them.

A label structure is a tree of depth exactly 3: an implicit root, a layer
of named superclasses, and a shared layer of subclasses. Subclasses are
integer ids; the id space is defined by an ordered name table that every
structure over the same data must share.

Each value here checks itself when built (a LabelStructure its names and
its tree), and is then immutable and safe to share across workers.
"""

from dataclasses import dataclass, field
from typing import Annotated

import numpy as np

from .config import (
    SUBCLASS_NAMES,
    config_name,
    config_names,
    frozen_array,
    type_fields,
)
from .exceptions import (
    DimensionMismatch,
    EmptySuperclass,
    IdOutOfRange,
    OrphanSubclass,
    StructureError,
    SubclassSpaceMismatch,
    UnknownSubclass,
    UnknownSuperclass,
)
from .serialization import atomic_text_writer, dump_json, load_json_file


@dataclass(frozen=True)
class LabelStructure:
    """One validated 3-level tree over a shared subclass id space.

    `parent_index[c]` is the position in `superclasses` of subclass c's
    parent. `subclass_names` is the name table that defines the id space;
    it must be identical across all structures used together. The name,
    the superclasses and the subclass names follow the name rule of
    `config_name`, and neither table repeats a name. The tree: one parent
    per subclass, each a declared superclass, and no childless superclass.
    """

    name: Annotated[str, config_name]
    superclasses: Annotated[tuple[str, ...], config_names(StructureError)]
    subclass_names: Annotated[tuple[str, ...], SUBCLASS_NAMES]
    parent_index: Annotated[np.ndarray, frozen_array(np.int64, 1)] = field(repr=False)

    def __post_init__(self):
        type_fields(self)
        parent, count = self.parent_index, self.superclass_count
        where = f"structure {self.name!r}:"
        if parent.size != self.subclass_count:
            raise DimensionMismatch(f"{where} needs one parent per subclass")
        orphans = [self.subclass_names[i] for i in np.flatnonzero(parent < 0)]
        if orphans:
            raise OrphanSubclass(f"{where} subclasses without a parent: {orphans}")
        # Before bincount: it refuses a negative id and allocates up to the largest.
        past = [self.subclass_names[i] for i in np.flatnonzero(parent >= count)]
        if past:
            raise UnknownSuperclass(f"{where} parent past the superclasses: {past}")
        children = np.bincount(parent, minlength=count)
        empty = [self.superclasses[i] for i in np.flatnonzero(children == 0)]
        if empty:
            raise EmptySuperclass(f"{where} superclasses without children: {empty}")

    @property
    def subclass_count(self) -> int:
        return len(self.subclass_names)

    @property
    def superclass_count(self) -> int:
        return len(self.superclasses)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabelStructure):
            return NotImplemented
        return (
            self.name == other.name
            and self.superclasses == other.superclasses
            and self.subclass_names == other.subclass_names
            and np.array_equal(self.parent_index, other.parent_index)
        )

    def __hash__(self):
        return hash((self.name, self.superclasses, self.subclass_names))


@dataclass(frozen=True)
class StructureSet:
    """An ordered collection of structures over one shared subclass space.

    Metric averaging requires at least one member; an empty set is legal
    only as the degenerate training configuration with no superclass heads.
    """

    structures: tuple[LabelStructure, ...]

    def __post_init__(self):
        structures = tuple(self.structures)
        object.__setattr__(self, "structures", structures)
        if not all(isinstance(s, LabelStructure) for s in structures):
            raise StructureError("a structure set holds LabelStructure members only")
        for s in structures[1:]:
            if s.subclass_names != structures[0].subclass_names:
                raise SubclassSpaceMismatch(f"structures {structures[0].name!r} and "
                                            f"{s.name!r} differ in subclass names")

    def __len__(self) -> int:
        return len(self.structures)

    def __iter__(self):
        return iter(self.structures)

    def __getitem__(self, i) -> LabelStructure:
        return self.structures[i]

    @property
    def subclass_names(self) -> tuple[str, ...]:
        if not self.structures:
            raise SubclassSpaceMismatch("empty structure set has no subclass space")
        return self.structures[0].subclass_names


def validate_structure(
    name: str,
    superclasses,
    subclass_names,
    parent_of: dict,
) -> LabelStructure:
    """Build a LabelStructure from the name-keyed fields of a structure file.

    `parent_of` maps subclass name -> superclass name; a name it uses that
    is not declared is UnknownSubclass or UnknownSuperclass. A subclass it
    leaves out gets no parent, and the LabelStructure checks the tree.
    """
    super_index = {s: i for i, s in enumerate(superclasses)}
    sub_index = {s: i for i, s in enumerate(subclass_names)}
    parent = np.full(len(subclass_names), -1, dtype=np.int64)
    for sub, sup in parent_of.items():
        if sub not in sub_index:
            raise UnknownSubclass(f"parent_of references unknown subclass {sub!r}")
        if sup not in super_index:
            raise UnknownSuperclass(f"subclass {sub!r} has unknown superclass {sup!r}")
        parent[sub_index[sub]] = super_index[sup]
    return LabelStructure(name, superclasses, subclass_names, parent)


_SUBCLASS_IDS = frozen_array(np.int64)


def lca_heights(structure: LabelStructure, c, c_hat) -> np.ndarray:
    """Height of each pair's lowest common ancestor above the leaf level:
    0 for the same leaf, 1 for siblings, 2 otherwise; over id arrays of
    equal shape. Ids that are not integers are InvalidValue, and ids of
    unequal shape DimensionMismatch."""
    c = _SUBCLASS_IDS(c, "subclass ids")
    c_hat = _SUBCLASS_IDS(c_hat, "predicted subclass ids")
    if c.shape != c_hat.shape:
        raise DimensionMismatch(f"subclass ids of shape {c.shape} and {c_hat.shape}")
    for arr in (c, c_hat):
        if arr.size and (arr.min() < 0 or arr.max() >= structure.subclass_count):
            raise IdOutOfRange(
                f"subclass ids outside [0, {structure.subclass_count})"
            )
    parent = structure.parent_index
    return np.where(
        c == c_hat, 0, np.where(parent[c] == parent[c_hat], 1, 2)
    ).astype(np.int64)


# -- structure files -------------------------------------------------------

def structure_to_dict(structure: LabelStructure) -> dict:
    """File-format dict for a structure (see :func:`load_structure`)."""
    return {
        "name": structure.name,
        "superclasses": list(structure.superclasses),
        "subclasses": list(structure.subclass_names),
        "parent_of": {
            sub: structure.superclasses[int(structure.parent_index[i])]
            for i, sub in enumerate(structure.subclass_names)
        },
    }


def structure_from_dict(raw: dict) -> LabelStructure:
    """Inverse of :func:`structure_to_dict`.

    The fields must have their file types: `name` a string,
    `superclasses` and `subclasses` lists of strings, and `parent_of` an
    object of strings; anything else is StructureError.
    """
    if not isinstance(raw, dict):
        raise StructureError("a structure file must hold a JSON object")
    try:
        name, superclasses, subclasses, parent_of = (
            raw["name"], raw["superclasses"], raw["subclasses"], raw["parent_of"]
        )
    except KeyError as exc:
        raise StructureError(f"structure file missing field {exc}") from exc
    if not isinstance(name, str):
        raise StructureError(f"structure name must be a string, got {name!r}")
    for field, names in (("superclasses", superclasses), ("subclasses", subclasses)):
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise StructureError(
                f"structure {name!r}: {field} must be a list of strings"
            )
    if not isinstance(parent_of, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in parent_of.items()
    ):
        raise StructureError(
            f"structure {name!r}: parent_of must map strings to strings"
        )
    return validate_structure(name, superclasses, subclasses, parent_of)


def save_structure(structure: LabelStructure, path) -> None:
    """Write the JSON structure file format.

    Fields: name, superclasses, subclasses (order defines the id space),
    parent_of (subclass name -> superclass name).
    """
    with atomic_text_writer(path) as fh:
        fh.write(dump_json(structure_to_dict(structure)))


def load_structure(path) -> LabelStructure:
    return structure_from_dict(load_json_file(path, StructureError))


def load_structure_set(paths) -> StructureSet:
    """Load several structure files and check they share one id space."""
    return StructureSet(tuple(load_structure(p) for p in paths))
