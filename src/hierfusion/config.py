"""Typed fields of config documents and frozen value types.

Each frozen dataclass declares its fields as ``Annotated[type, converter]``
with a converter below: a config dataclass every field (one with no
default is required), a value type its arrays, as `frozen_array`s.
`type_fields`, called first in each ``__post_init__``, applies them when
the value is constructed, so one built in Python is typed like one read
from a file; `typed_section` reads a JSON config object through them,
adding the field-path prefix and the unknown and required field checks.
A config converter returns the typed value or raises InvalidConfig
naming the field; numpy scalars and 1-D arrays pass as numbers and lists.
Names follow one rule, `config_name`, on every value that carries them.

`FusionConfig`, the config document's `model` section, lives here rather
than beside the trainer in model.py, so that parsing a config, which
always types that section, does not load the trainer.
"""

import contextlib
import dataclasses
import functools
import math
import os
import typing
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .exceptions import (
    DimensionMismatch,
    DuplicateSubclass,
    InvalidConfig,
    InvalidValue,
    StructureError,
)

_REALS = (int, float, np.integer, np.floating)


def config_int(value, field: str) -> int:
    """An integer config value; an integral float such as 2.0 also counts."""
    if isinstance(value, (float, np.floating)) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidConfig(f"{field} must be an integer, got {value!r}")
    return int(value)


def config_seed(value, field: str) -> int:
    """A seed: an integer >= 0, the range numpy's SeedSequence accepts."""
    seed = config_int(value, field)
    if seed < 0:
        raise InvalidConfig(f"{field} must be a non-negative integer, got {seed}")
    return seed


def config_real(value, field: str) -> float:
    """A finite real config value; bools, strings, NaN/inf and integers
    beyond the float range are refused."""
    if not isinstance(value, bool) and isinstance(value, _REALS):
        with contextlib.suppress(OverflowError):
            if math.isfinite(value):
                return float(value)
    raise InvalidConfig(f"{field} must be a finite number, got {value!r}")


def config_list(convert):
    """The config type of a list whose entries each pass `convert`."""

    def typed(value, field: str) -> tuple:
        vector = isinstance(value, np.ndarray) and value.ndim == 1
        if not (vector or isinstance(value, (list, tuple))):
            raise InvalidConfig(f"{field} must be a list, got {value!r}")
        return tuple(convert(v, f"{field} entry") for v in value)

    return typed


def config_name(value, field: str) -> str:
    """A name that is written as a CSV cell and reads back as itself: a
    string that encodes as UTF-8 (no lone surrogate), with no comma, no
    line break and no leading or trailing whitespace; anything else is
    StructureError."""
    if not isinstance(value, str) or value != value.strip() or any(
        c in value for c in ",\n\r"
    ) or not _encodes_as_utf8(value):
        raise StructureError(
            f"{field} {value!r} is not a name: UTF-8 text with no ',', line "
            "break, or leading or trailing whitespace"
        )
    return value


def _encodes_as_utf8(text: str) -> bool:
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def config_names(duplicate):
    """The type of a name table: a list of distinct `config_name`s, where a
    name listed twice is the error `duplicate`."""
    entries = config_list(config_name)

    def typed(value, field: str) -> tuple:
        names = entries(value, field)
        seen = set()
        for name in names:
            if name in seen:
                raise duplicate(f"{field}: {name!r} listed more than once")
            seen.add(name)
        return names

    return typed


# The type of a subclass name table, the id space of every value that
# holds subclass ids.
SUBCLASS_NAMES = config_names(DuplicateSubclass)


def config_optional(convert):
    """The config type of a value that is null or passes `convert`."""

    def typed(value, field: str):
        return None if value is None else convert(value, field)

    return typed


def config_path(kind: str):
    """The config type of a `kind` ("file", "directory") path: a string,
    so that an integer is never opened as a file descriptor, that the
    operating system can take as a path (no NUL, no character its file
    system encoding cannot encode, such as a lone surrogate). The empty
    string, which Path reads as the current directory, is none."""

    def typed(value, field: str) -> str:
        if isinstance(value, str) and value and "\0" not in value:
            with contextlib.suppress(UnicodeEncodeError):
                os.fsencode(value)
                return value
        raise InvalidConfig(f"'{field}' must be a {kind} path, got {value!r}")

    return typed


def config_choice(options):
    """The config type of a string that is one of `options`."""

    def typed(value, field: str) -> str:
        if not isinstance(value, str) or value not in options:
            raise InvalidConfig(
                f"{field} must be one of {sorted(options)}, got {value!r}"
            )
        return value

    return typed


def fits_array(*shape: int) -> bool:
    """Whether numpy can index a float64 array of `shape`: no dimension and
    no byte count past np.intp's range, where numpy raises ValueError."""
    limit = np.iinfo(np.intp).max
    return max(shape) <= limit and math.prod(shape) * 8 <= limit


class _Adopted:
    """An array marked by `adopt`: one that library code has just made."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


def adopt(array: np.ndarray) -> _Adopted:
    """Hand `array`, which library code has just made and keeps no other
    use of, to a `frozen_array` field without a copy (see frozen_array)."""
    return _Adopted(array)


def number_array(value, field: str, dtype=np.float64, copy: bool = True) -> np.ndarray:
    """`value` as a C-ordered `dtype` array; with `copy` False, an array that
    already is one is returned as it is, not copied.

    Entries that are not numbers (text, even numeric text such as "1.5",
    bools, other objects), and for an integer `dtype` any number outside
    that integer type's range or not integral (a fraction, NaN), are
    InvalidValue."""
    integral = np.issubdtype(dtype, np.integer)
    kind = "integers" if integral else "numbers"
    try:
        source = np.asarray(value)
        if source.dtype.kind == "c":  # refused before a cast could warn
            raise InvalidValue(f"{field} must hold {kind}, got {source.dtype} entries")
        with np.errstate(invalid="ignore", over="ignore"):
            array = source.astype(dtype, order="C", copy=copy)
    except (TypeError, ValueError, OverflowError):
        raise InvalidValue(f"{field} must hold numbers") from None
    if source.dtype.kind not in "iuf":
        raise InvalidValue(f"{field} must hold {kind}, got {source.dtype} entries")
    if integral:
        wrong = source[array != source]
        if wrong.size:
            raise InvalidValue(f"{field} must hold integers, got {wrong[0].item()!r}")
    return array


def frozen_array(dtype, ndim: int | None = None):
    """The type of an array field: a C-ordered, read-only `dtype` array,
    which must have `ndim` axes if given (else DimensionMismatch), whose
    entries pass `number_array`.

    A caller's array is copied, so changing it later leaves the value as
    it was. An array library code marks with `adopt` is held as it is and
    made read-only when it already has the field's native dtype and is
    C-ordered and aligned; any other is converted as a caller's would be,
    so adopting saves a copy and never changes a value."""

    def typed(value, field: str) -> np.ndarray:
        if isinstance(value, _Adopted):
            value = value.array
            if value.dtype == dtype and value.flags.c_contiguous and value.flags.aligned:
                return frozen(value, field)
        return frozen(number_array(value, field, dtype), field)

    def frozen(array: np.ndarray, field: str) -> np.ndarray:
        if ndim is not None and array.ndim != ndim:
            raise DimensionMismatch(f"{field} must be {ndim}-D, got {array.ndim}-D")
        array.setflags(write=False)
        return array

    return typed


@functools.cache
def _schema(cls) -> tuple[dict, tuple]:
    """(field -> declared converter, required fields) of the dataclass `cls`."""
    hints = typing.get_type_hints(cls, include_extras=True)
    fields = dataclasses.fields(cls)
    types = {f.name: hints[f.name].__metadata__[0] for f in fields
             if hasattr(hints[f.name], "__metadata__")}
    return types, tuple(f.name for f in fields if f.default is dataclasses.MISSING)


def type_fields(obj) -> None:
    """Type each field of the frozen dataclass `obj` that declares a converter."""
    for name, convert in _schema(type(obj))[0].items():
        object.__setattr__(obj, name, convert(getattr(obj, name), name))


def typed_section(section, name: str, cls) -> dict:
    """A copy of the config object `section` with every field typed.

    The fields of the config dataclass `cls` are the fields the section may
    hold, each typed by its annotated converter; any other field, a missing
    field that has no default, or a section that is not an object, is
    InvalidConfig. Field names in messages carry the prefix `name`; the
    empty name types the document's top level.
    """
    if not isinstance(section, dict):
        raise InvalidConfig(f"'{name}' must be an object")
    types, required = _schema(cls)
    prefix = f"{name} " if name else ""
    unknown = set(section) - set(types)
    if unknown:
        raise InvalidConfig(f"unknown {prefix}config fields: {sorted(unknown)}")
    for key in required:
        if key not in section:
            raise InvalidConfig(f"'{name}' is missing its '{key}' field")
    return {key: types[key](value, prefix + key) for key, value in section.items()}


# -- the model section --------------------------------------------------------

@dataclass(frozen=True)
class FusionConfig:
    """Architecture and training hyperparameters.

    `attach_stages` lists, per structure, the 0-based trunk stage whose
    activation feeds that structure's superclass head; its length is the
    number of structures the model expects. `lambda_split` divides
    `lambda_total` across structures; None means an equal split.
    """

    stage_dims: Annotated[tuple[int, ...], config_list(config_int)] = (32, 16)
    attach_stages: Annotated[tuple[int, ...], config_list(config_int)] = ()
    lambda_total: Annotated[float, config_real] = 0.0
    lambda_split: Annotated[
        tuple[float, ...] | None, config_optional(config_list(config_real))
    ] = None
    learning_rate: Annotated[float, config_real] = 0.1
    epochs: Annotated[int, config_int] = 50
    batch_size: Annotated[int, config_int] = 32
    seed: Annotated[int, config_seed] = 0

    def __post_init__(self):
        type_fields(self)
        stage_dims, attach_stages = self.stage_dims, self.attach_stages
        if len(stage_dims) < 2:
            raise InvalidConfig("the trunk needs at least 2 stages")
        if min(stage_dims) < 1:
            raise InvalidConfig("stage widths must be >= 1")
        if not 0.0 <= self.lambda_total < 1.0:
            raise InvalidConfig(
                f"lambda_total must lie in [0, 1), got {self.lambda_total}"
            )
        for s in attach_stages:
            if not 0 <= s < len(stage_dims):
                raise InvalidConfig(
                    f"attach stage {s} outside [0, {len(stage_dims)})"
                )
        split = self.lambda_split
        if split is not None:
            if len(split) != len(attach_stages):
                raise InvalidConfig(
                    f"{len(split)} lambda shares for {len(attach_stages)} heads"
                )
            if split and min(split) < 0.0:
                raise InvalidConfig("lambda shares must be >= 0")
            if abs(sum(split) - self.lambda_total) > 1e-12:
                raise InvalidConfig("lambda shares must sum to lambda_total")
        if not attach_stages and self.lambda_total != 0.0:
            raise InvalidConfig("positive lambda_total needs at least one head")
        if self.learning_rate <= 0.0:
            raise InvalidConfig("learning_rate must be > 0")
        if self.epochs < 1:
            raise InvalidConfig("epochs must be >= 1")
        if self.batch_size < 1:
            raise InvalidConfig("batch_size must be >= 1")

    @property
    def structure_count(self) -> int:
        return len(self.attach_stages)

    @property
    def lambdas(self) -> tuple[float, ...]:
        """Per-structure loss weights; an equal split unless overridden."""
        if self.lambda_split is not None:
            return self.lambda_split
        m = len(self.attach_stages)
        if m == 0:
            return ()
        return (self.lambda_total / m,) * m
