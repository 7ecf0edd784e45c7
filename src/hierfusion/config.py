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
"""

import contextlib
import dataclasses
import functools
import math
import os
import typing

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


def frozen_array(dtype, ndim: int | None = None):
    """The type of an array field: a C-ordered, read-only `dtype` array,
    which must have `ndim` axes if given (else DimensionMismatch).

    A caller's array is copied, so changing it later leaves the value as
    it was. An array library code marks with `adopt` is held as it is and
    made read-only when it already has the field's native dtype and is
    C-ordered and aligned; any other is converted as a caller's would be,
    so adopting saves a copy and never changes a value.
    Entries that are not numbers (text, even numeric text such as "1.5",
    bools, other objects), and in an integer field any number outside that
    integer type's range or not integral (a fraction, NaN), are
    InvalidValue."""
    integral = np.issubdtype(dtype, np.integer)
    kind = "integers" if integral else "numbers"

    def typed(value, field: str) -> np.ndarray:
        if isinstance(value, _Adopted):
            value = value.array
            if value.dtype == dtype and value.flags.c_contiguous and value.flags.aligned:
                return frozen(value, field)
        try:
            source = np.asarray(value)
            with np.errstate(invalid="ignore", over="ignore"):
                array = source.astype(dtype, order="C")
        except (TypeError, ValueError, OverflowError):
            raise InvalidValue(f"{field} must hold numbers") from None
        if source.dtype.kind not in "iuf":
            raise InvalidValue(f"{field} must hold {kind}, got {source.dtype} entries")
        if integral:
            wrong = source[array != source]
            if wrong.size:
                raise InvalidValue(f"{field} must hold integers, got {wrong[0].item()!r}")
        return frozen(array, field)

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
