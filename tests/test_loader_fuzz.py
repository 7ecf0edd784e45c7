"""Any bytes given to the checkpoint, structure, prediction and
feature-table loaders either load or raise a HierFusionError; no other
exception escapes. A feature table that loads saves and loads back as
itself.

Every legal name table reads back as itself through each file that
holds one, and an illegal one is refused when a value holding it is
built, and by each loader that takes one."""

import copy
import functools
import hashlib
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hierfusion.exceptions import HierFusionError, StructureError
from hierfusion.features import FeatureTable, load_feature_table, save_feature_table
from hierfusion.metrics import PredictionBatch, load_predictions, save_predictions
from hierfusion.model import (
    CHECKPOINT_MAGIC,
    FusionConfig,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from hierfusion.taxonomy import (
    LabelStructure,
    StructureSet,
    load_structure,
    save_structure,
    structure_from_dict,
)

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
    model = init_model(config, StructureSet((structure, structure)), 2,
                       structure.subclass_names)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        save_checkpoint(model, config, path)
        blob = path.read_bytes()
    start = len(CHECKPOINT_MAGIC) + 4
    (length,) = struct.unpack("<I", blob[len(CHECKPOINT_MAGIC):start])
    return json.loads(blob[start:start + length]), blob[start + length:-32]


def _sealed(body: bytes) -> bytes:
    """`body` closed by its SHA-256, as save_checkpoint closes a checkpoint,
    so that the closing hash does not refuse it before the other checks."""
    return body + hashlib.sha256(body).digest()


def _checkpoint_bytes(header, tensors: bytes) -> bytes:
    text = json.dumps(header).encode("utf-8")
    return _sealed(CHECKPOINT_MAGIC + struct.pack("<I", len(text)) + text + tensors)


@st.composite
def _spliced_checkpoints(draw):
    """A valid checkpoint with one byte range replaced by random bytes,
    resealed or not."""
    blob = _checkpoint_bytes(*_checkpoint())
    start = draw(st.integers(0, len(blob)))
    stop = draw(st.integers(start, len(blob)))
    spliced = blob[:start] + draw(st.binary(max_size=16)) + blob[stop:]
    return _sealed(spliced[:-32]) if draw(st.booleans()) else spliced


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


# Feature files built from pieces the parser must take or refuse: every
# line break the text reader knows, bytes that are not UTF-8, NUL, empty
# cells, digit separators, non-ASCII digits, labels outside the name
# table or the name rule, and headers of any width or none.
_LABELS = st.sampled_from(["a", "b", "c"])
_OTHER_LABELS = st.sampled_from(["zebra", " a", "", "\u00e9", "\x00", "a\x00"])
_GOOD_CELLS = st.sampled_from(["1", "-2.5", "0", "-0", "1e-300", "3 ",
                               "0.10000000000000001"])
_BAD_CELLS = st.sampled_from(["", "1_0", "\u0661\u0662", "nan", "1e999", "0x10",
                              "\x00", "#1"])
_BAD_HEADERS = st.sampled_from(["label", "f0,f1", "", "label,"])
_LINE_BREAKS = st.sampled_from([b"\n", b"\r\n", b"\r"])
_NOT_UTF8 = st.sampled_from([b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80"])


@st.composite
def _feature_files(draw):
    """A header and rows of a label and cells, or blank lines, each line
    ended by any line break; then up to two faults, each a label, a cell,
    a cell count, the header or bytes that are not UTF-8."""
    dim = draw(st.integers(1, 3))
    lines = [["label"] + [f"f{j}" for j in range(dim)]]
    for _ in range(draw(st.integers(0, 6))):
        blank = draw(st.integers(0, 4)) == 0
        lines.append([""] if blank else [draw(_LABELS)] + draw(
            st.lists(_GOOD_CELLS, min_size=dim, max_size=dim)))
    spliced = set()
    for _ in range(draw(st.integers(0, 2))):
        index = draw(st.integers(0, len(lines) - 1))
        line = lines[index]
        at = draw(st.integers(0, len(line)))
        fault = draw(st.sampled_from(["label", "cell", "drop", "add", "header",
                                      "bytes"]))
        if fault == "label":
            line[:1] = [draw(_OTHER_LABELS)]
        elif fault == "cell":
            line[at:at + 1] = [draw(_BAD_CELLS)]
        elif fault == "drop":
            del line[at:at + 1]
        elif fault == "add":
            line.insert(at, draw(_GOOD_CELLS))
        elif fault == "header":
            lines[0] = [draw(_BAD_HEADERS)]
        else:
            spliced.add(index)
    blob = b""
    for index, line in enumerate(lines):
        text = ",".join(line).encode("utf-8")
        if index in spliced:
            at = draw(st.integers(0, len(text)))
            text = text[:at] + draw(_NOT_UTF8) + text[at:]
        blob += text + draw(_LINE_BREAKS)
    return blob


@pytest.mark.parametrize("names", [None, ("a", "b", "c")], ids=["inferred", "names"])
@settings(max_examples=100, deadline=None)
@given(blob=st.one_of(
    st.binary(max_size=200),
    st.binary(max_size=200).map(lambda b: b"label,f0,f1\n" + b),
    _feature_files(),
))
def test_feature_table_loader_takes_any_bytes(names, blob):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "input.csv").write_bytes(blob)
        try:
            table = load_feature_table(tmp / "input.csv", names)
        except HierFusionError:
            return
        save_feature_table(table, tmp / "saved.csv")
        for _ in range(2):  # from the binary twin, then by the parser
            back = load_feature_table(tmp / "saved.csv", names)
            assert back.features.tobytes() == table.features.tobytes()
            assert back.features.shape == table.features.shape
            assert back.labels.tolist() == table.labels.tolist()
            assert back.subclass_names == table.subclass_names
            (tmp / ".saved.csv.table").unlink(missing_ok=True)


# -- name tables -----------------------------------------------------------------

# A legal name: any UTF-8 text (no surrogate) with no comma or line break,
# stripped of edge whitespace (the empty name included).
_NAME = st.text(st.characters(exclude_characters=",\n\r", exclude_categories=("Cs",)),
                max_size=6).map(str.strip)


@st.composite
def _named_values(draw):
    """(name table, labels, superclass table, parent index), all legal: every
    superclass has a child."""
    names = tuple(draw(st.lists(_NAME, min_size=2, max_size=6, unique=True)))
    labels = draw(st.lists(st.integers(0, len(names) - 1), min_size=1, max_size=8))
    supers = tuple(draw(st.lists(_NAME, min_size=1, max_size=len(names), unique=True)))
    rest = draw(st.lists(st.integers(0, len(supers) - 1),
                         min_size=len(names) - len(supers),
                         max_size=len(names) - len(supers)))
    return names, labels, supers, list(range(len(supers))) + rest


@settings(max_examples=60, deadline=None)
@given(_named_values())
def test_every_legal_name_table_reads_back_from_each_file(values):
    names, labels, supers, parents = values
    structure = LabelStructure("s", supers, names, parents)
    config = FusionConfig(stage_dims=(2, 2), attach_stages=(0,), lambda_total=0.1)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        table = FeatureTable(np.ones((len(labels), 1)), labels, names)
        save_feature_table(table, tmp / "features.csv")
        for _ in range(2):  # from the binary twin, then by the parser
            back = load_feature_table(tmp / "features.csv", names)
            assert back.subclass_names == names
            assert back.labels.tolist() == labels
            (tmp / ".features.csv.table").unlink(missing_ok=True)

        batch = PredictionBatch(labels[::-1], labels, names)
        save_predictions(batch, tmp / "predictions.csv")
        back = load_predictions(tmp / "predictions.csv", names)
        assert back.subclass_names == names
        assert back.predicted.tolist() == labels[::-1]
        assert back.truth.tolist() == labels

        save_structure(structure, tmp / "structure.json")
        assert load_structure(tmp / "structure.json") == structure

        model = init_model(config, StructureSet((structure,)), 1, names)
        save_checkpoint(model, config, tmp / "model.ckpt")
        assert load_checkpoint(tmp / "model.ckpt")[0].subclass_names == names


@st.composite
def _illegal_name_tables(draw):
    """A legal name table with one name repeated or broken by a comma, a
    line break, edge whitespace or a lone surrogate (not UTF-8)."""
    names = draw(st.lists(_NAME, min_size=2, max_size=5, unique=True))
    at = draw(st.integers(0, len(names) - 1))
    name = names[at]
    broken = draw(st.sampled_from([
        names[(at + 1) % len(names)],  # a repeat of another name
        name + ",", name[:1] + "\n" + name[1:], "\r" + name,
        " " + name, name + "\t", name + "\ud800",
    ]))
    names[at] = broken
    return tuple(names)


_HOLDERS = {
    "FeatureTable": lambda names: FeatureTable(np.zeros((2, 1)), [0, 1], names),
    "PredictionBatch": lambda names: PredictionBatch([0, 1], [1, 0], names),
    "LabelStructure": lambda names: LabelStructure(
        "s", ("u",), names, np.zeros(len(names), dtype=np.int64)),
    "FusionModel": lambda names: init_model(FusionConfig(stage_dims=(2, 2)),
                                            StructureSet(()), 1, names),
    # refused on entry, before the file is opened
    "load_feature_table": lambda names: load_feature_table("features.csv", names),
    "load_predictions": lambda names: load_predictions("predictions.csv", names),
}


@pytest.mark.parametrize("holder", _HOLDERS.values(), ids=_HOLDERS.keys())
@settings(max_examples=30, deadline=None)
@given(names=_illegal_name_tables())
@example(names=(["a"], "b"))  # an entry that is not even hashable
def test_every_illegal_name_table_is_refused_when_built(holder, names):
    with pytest.raises(StructureError):
        holder(names)
