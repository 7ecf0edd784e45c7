"""Any bytes given to the checkpoint, structure and prediction loaders
either load or raise a HierFusionError; no other exception escapes."""

import copy
import functools
import json
import struct
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from hierfusion.exceptions import HierFusionError
from hierfusion.metrics import load_predictions
from hierfusion.model import (
    CHECKPOINT_MAGIC,
    FusionConfig,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from hierfusion.taxonomy import StructureSet, load_structure, structure_from_dict

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**400) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _positions(value, prefix=()):
    """Every position in a JSON value as a key/index path, the root first."""
    yield prefix
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield from _positions(child, prefix + (key,))


@st.composite
def _edited(draw, document):
    """`document` with the value at one position replaced by any JSON."""
    document = copy.deepcopy(document)
    path = draw(st.sampled_from(list(_positions(document))))
    value = draw(_JSON)
    if not path:
        return value
    node = document
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return document


def _loads_or_raises_typed_error(load, blob: bytes) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(blob)
        try:
            load(path)
        except HierFusionError:
            pass


_STRUCTURE = {"name": "s", "superclasses": ["u", "v"],
              "subclasses": ["a", "b", "c"],
              "parent_of": {"a": "u", "b": "u", "c": "v"}}


@functools.cache
def _checkpoint() -> tuple[dict, bytes]:
    """(header, tensor bytes) of a two-head checkpoint."""
    structure = structure_from_dict(_STRUCTURE)
    config = FusionConfig(stage_dims=(3, 2), attach_stages=(0, 1),
                          lambda_total=0.2, epochs=1)
    model = init_model(config, 3, StructureSet((structure, structure)),
                       input_dim=2)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        save_checkpoint(model, config, path)
        blob = path.read_bytes()
    start = len(CHECKPOINT_MAGIC) + 4
    (length,) = struct.unpack("<I", blob[len(CHECKPOINT_MAGIC):start])
    return json.loads(blob[start:start + length]), blob[start + length:]


def _checkpoint_bytes(header, tensors: bytes) -> bytes:
    text = json.dumps(header).encode("utf-8")
    return CHECKPOINT_MAGIC + struct.pack("<I", len(text)) + text + tensors


@st.composite
def _spliced_checkpoints(draw):
    """A valid checkpoint with one byte range replaced by random bytes."""
    blob = _checkpoint_bytes(*_checkpoint())
    start = draw(st.integers(0, len(blob)))
    stop = draw(st.integers(start, len(blob)))
    return blob[:start] + draw(st.binary(max_size=16)) + blob[stop:]


@st.composite
def _header_edited_checkpoints(draw):
    header, tensors = _checkpoint()
    return _checkpoint_bytes(draw(_edited(header)), tensors)


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.binary(max_size=200),
    st.binary(max_size=200).map(lambda b: CHECKPOINT_MAGIC + b),
    _spliced_checkpoints(),
    _header_edited_checkpoints(),
))
def test_checkpoint_loader_takes_any_bytes(blob):
    _loads_or_raises_typed_error(load_checkpoint, blob)


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.binary(max_size=200),
    _JSON.map(lambda value: json.dumps(value).encode("utf-8")),
    _edited(_STRUCTURE).map(lambda value: json.dumps(value).encode("utf-8")),
))
def test_structure_loader_takes_any_bytes(blob):
    _loads_or_raises_typed_error(load_structure, blob)


_CELLS = st.sampled_from(["a", "b", "c", "", "zebra", " a", "a\r", "é"])


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.binary(max_size=200),
    st.binary(max_size=200).map(lambda b: b"predicted,truth\n" + b),
    st.lists(st.lists(_CELLS, max_size=3).map(",".join) | st.text(max_size=6),
             max_size=6).map(
        lambda lines: "\n".join(["predicted,truth", *lines]).encode("utf-8")),
))
def test_prediction_loader_takes_any_bytes(blob):
    _loads_or_raises_typed_error(
        functools.partial(load_predictions, subclass_names=("a", "b", "c")), blob
    )
