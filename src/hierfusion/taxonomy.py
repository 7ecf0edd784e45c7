"""Three-level label structures and the tree distances defined on them.

A label structure is a tree of depth exactly 3: an implicit root, a layer
of named superclasses, and a shared layer of subclasses. Subclasses are
integer ids; the id space is defined by an ordered name table that every
structure over the same data must share. Superclass identifiers are
namespaced by structure name so heterogeneous groupings never collide.

All values here are immutable after validation and safe to share across
workers.
"""

import json
from dataclasses import dataclass, field
from typing import Annotated

import numpy as np

from .config import frozen_array, type_fields
from .exceptions import (
    DuplicateSubclass,
    EmptySuperclass,
    IdOutOfRange,
    OrphanSubclass,
    StructureError,
    SubclassSpaceMismatch,
    UnknownSubclass,
    UnknownSuperclass,
)
from .serialization import atomic_text_writer, dump_json

#: Identifier of the (implicit, shared) root node.
ROOT = "<root>"


@dataclass(frozen=True)
class LabelStructure:
    """One validated 3-level tree over a shared subclass id space.

    `parent_index[c]` is the position in `superclasses` of subclass c's
    parent. `subclass_names` is the sidecar name table that defines the id
    space; it must be identical across all structures used together.
    """

    name: str
    superclasses: tuple[str, ...]
    subclass_names: tuple[str, ...]
    parent_index: Annotated[np.ndarray, frozen_array(np.int64, 1)] = field(repr=False)

    def __post_init__(self):
        type_fields(self)

    @property
    def subclass_count(self) -> int:
        return len(self.subclass_names)

    @property
    def superclass_count(self) -> int:
        return len(self.superclasses)

    def superclass_id(self, index: int) -> str:
        """Namespaced identifier of superclass `index`."""
        return f"{self.name}/{self.superclasses[index]}"

    def parent_of(self, subclass: int) -> str:
        """Namespaced identifier of the parent of `subclass`."""
        self._check_id(subclass)
        return self.superclass_id(int(self.parent_index[subclass]))

    def _check_id(self, subclass: int) -> None:
        if not 0 <= int(subclass) < self.subclass_count:
            raise IdOutOfRange(
                f"subclass id {subclass} outside [0, {self.subclass_count})"
            )

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
        if len(structures) > 1:
            names = structures[0].subclass_names
            for s in structures[1:]:
                if s.subclass_names != names:
                    raise SubclassSpaceMismatch(
                        f"structure {s.name!r} disagrees with "
                        f"{structures[0].name!r} on the subclass name table"
                    )

    def __len__(self) -> int:
        return len(self.structures)

    def __iter__(self):
        return iter(self.structures)

    def __getitem__(self, i) -> LabelStructure:
        return self.structures[i]

    @property
    def subclass_count(self) -> int:
        if not self.structures:
            raise SubclassSpaceMismatch("empty structure set has no subclass space")
        return self.structures[0].subclass_count

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
    """Check the raw structure-file fields and build a LabelStructure.

    `parent_of` maps subclass name -> superclass name. Every subclass must
    appear exactly once, every referenced superclass must be declared, and
    every declared superclass must have at least one child. Names must be
    writable as CSV cells that read back unchanged: no ``,``, ``\n`` or
    ``\r``, and no leading or trailing whitespace.
    """
    superclasses = tuple(str(s) for s in superclasses)
    subclass_names = tuple(str(s) for s in subclass_names)
    for n in subclass_names + superclasses:
        if n != n.strip() or any(c in n for c in ",\n\r"):
            raise StructureError(
                f"structure {name!r}: name {n!r} has a ',', a line break, "
                "or leading or trailing whitespace"
            )

    if len(set(subclass_names)) != len(subclass_names):
        seen = set()
        for n in subclass_names:
            if n in seen:
                raise DuplicateSubclass(f"subclass {n!r} listed more than once")
            seen.add(n)
    if len(set(superclasses)) != len(superclasses):
        raise StructureError(f"structure {name!r} declares a duplicate superclass")

    super_index = {s: i for i, s in enumerate(superclasses)}
    sub_index = {s: i for i, s in enumerate(subclass_names)}

    for sub in parent_of:
        if str(sub) not in sub_index:
            raise UnknownSubclass(
                f"parent_of references unknown subclass {sub!r}"
            )

    parent = np.full(len(subclass_names), -1, dtype=np.int64)
    for sub, sup in parent_of.items():
        sup = str(sup)
        if sup not in super_index:
            raise UnknownSuperclass(
                f"subclass {sub!r} references unknown superclass {sup!r}"
            )
        parent[sub_index[str(sub)]] = super_index[sup]

    missing = [subclass_names[i] for i in np.flatnonzero(parent < 0)]
    if missing:
        raise OrphanSubclass(f"subclasses without a parent: {missing}")

    children = np.bincount(parent, minlength=len(superclasses))
    empty = [superclasses[i] for i in np.flatnonzero(children == 0)]
    if empty:
        raise EmptySuperclass(f"superclasses without children: {empty}")

    return LabelStructure(
        name=str(name),
        superclasses=superclasses,
        subclass_names=subclass_names,
        parent_index=parent,
    )


def lca_heights(structure: LabelStructure, c, c_hat) -> np.ndarray:
    """Height of each pair's lowest common ancestor above the leaf level:
    0 for the same leaf, 1 for siblings, 2 otherwise; over id arrays of
    equal shape."""
    c = np.asarray(c, dtype=np.int64)
    c_hat = np.asarray(c_hat, dtype=np.int64)
    for arr in (c, c_hat):
        if arr.size and (arr.min() < 0 or arr.max() >= structure.subclass_count):
            raise IdOutOfRange(
                f"subclass ids outside [0, {structure.subclass_count})"
            )
    parent = structure.parent_index
    return np.where(
        c == c_hat, 0, np.where(parent[c] == parent[c_hat], 1, 2)
    ).astype(np.int64)


def augmented_set(structure: LabelStructure, c: int) -> frozenset:
    """Nodes on the root-to-leaf path: {root, parent superclass, leaf id}.

    The root is included; with it, every path set has exactly 3 members
    and the per-sample hierarchical F equals 1 - TIE/6.
    """
    structure._check_id(c)
    return frozenset({ROOT, structure.parent_of(c), int(c)})


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
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON
            raise StructureError(f"{path}: not valid JSON ({exc})") from exc
    return structure_from_dict(raw)


def load_structure_set(paths) -> StructureSet:
    """Load several structure files and check they share one id space."""
    return StructureSet(tuple(load_structure(p) for p in paths))
