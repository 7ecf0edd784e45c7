"""Typed values of JSON config documents.

Each config dataclass is its own schema: every field is declared as
``Annotated[type, converter]``, its converter one of those below, and a
field with no default is required. `typed_section` reads a JSON object
through that declaration, so the CLI's config sections and the model
config stored in a checkpoint header are checked the same way wherever
they come from. Each converter returns the typed value or raises
InvalidConfig naming the field.
"""

import contextlib
import dataclasses
import functools
import math
import typing

from .exceptions import InvalidConfig


def config_int(value, field: str) -> int:
    """An integer config value; an integral float such as 2.0 also counts."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or (isinstance(value, float) and not value.is_integer())
    ):
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
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        with contextlib.suppress(OverflowError):
            if math.isfinite(value):
                return float(value)
    raise InvalidConfig(f"{field} must be a finite number, got {value!r}")


def config_list(convert):
    """The config type of a list whose entries each pass `convert`."""

    def typed(value, field: str) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise InvalidConfig(f"{field} must be a list, got {value!r}")
        return tuple(convert(v, f"{field} entry") for v in value)

    return typed


def config_optional(convert):
    """The config type of a value that is null or passes `convert`."""

    def typed(value, field: str):
        return None if value is None else convert(value, field)

    return typed


def config_path(kind: str):
    """The config type of a `kind` ("file", "directory") path: a string,
    so that an integer is never opened as a file descriptor."""

    def typed(value, field: str) -> str:
        if not isinstance(value, str):
            raise InvalidConfig(f"'{field}' must be a {kind} path, got {value!r}")
        return value

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


@functools.cache
def _schema(cls) -> tuple[dict, tuple]:
    """(field -> converter, required fields) of the config dataclass `cls`."""
    hints = typing.get_type_hints(cls, include_extras=True)
    fields = dataclasses.fields(cls)
    types = {f.name: hints[f.name].__metadata__[0] for f in fields}
    return types, tuple(f.name for f in fields if f.default is dataclasses.MISSING)


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
