"""Feature tables, per-class statistics, and synthetic dataset generation.

Feature vectors arrive from any upstream extractor through a plain CSV
format (header ``label,f0,...,f{d-1}``, one sample per row, labelled by
subclass name). A FeatureTable owns the ordered subclass name table that
defines its id space: label id i is `subclass_names[i]`, and every table
the library makes carries one, so no layer passes names beside a table.
The table types its names by the one name rule (config.config_name,
no name twice) when it is built, so every file save_feature_table writes
reads back as the same table.
Per-class statistics feed the affinity construction; the synthetic
generator plants a known 3-level hierarchy for desk-scale experiments.

Rows are written by array arithmetic rather than one Python format per
value: serialization.float_cells lays each value's ``%.17g`` text out in
five words padded with 0xFF bytes, a block of rows is laid out as words
(name, cells, line break), and deleting its 0xFF bytes, which UTF-8 never
uses, leaves the block's text. The few values printed with an exponent
are formatted one by one.

A large feature file is written on every core: its rows are cut into
contiguous ranges, one per CPU the process may run on, while each keeps
at least _MIN_RANGE_VALUES values. The ranges run through the shared
fork helper, workers.in_parts: range 0 in this process and each other
range in a forked worker. With one range, or where workers.worker_count
finds a fork unsafe, nothing is forked. The writer appends the ranges in
order from nameless temporary files, so the split changes no byte written
and no error raised, and a killed write leaves no part behind. The
loader parses a file in one pass.

Beside each feature file it writes, save_feature_table leaves a binary
twin, the hidden ``.<name>.table``: a serialization.save_frame frame of
the SHA-256 of the file's bytes, taken as they are written so the file
is never read back, and its rows as raw float64 features and int64 label
ids, with the names in first-appearance order. load_feature_table builds
the table from the twin while the recorded hash is that of the file and
serialization.load_frame accepts the twin, and parses the text
otherwise, as Python uses a hash-checked ``.pyc`` only while its source
is unchanged. The table adopts the arrays load_frame reads, as every
table made here adopts the arrays it was built from (config.adopt): only
a caller's array is copied. The twin changes no table and no error: a
stale, damaged or missing twin is a cache miss, so deleting it is always
safe, and a file from another extractor, which has none, is parsed.
"""

import contextlib
import hashlib
import itertools
import math
import re
import tempfile
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Annotated

import numpy as np

from .config import (
    SUBCLASS_NAMES,
    adopt,
    config_int,
    config_name,
    config_real,
    config_seed,
    fits_array,
    frozen_array,
    type_fields,
)
from .exceptions import (
    ClassTooSmall,
    DimensionMismatch,
    HierFusionError,
    InvalidSpec,
    InvalidValue,
    MalformedRow,
    NonFiniteValue,
    UnknownLabel,
)
from .rng import rng_from_seed
from .serialization import (
    CELL_WORDS,
    atomic_text_writer,
    float_cells,
    load_frame,
    save_frame,
    text_reader,
)
from .taxonomy import LabelStructure
from .workers import in_parts, worker_count


@dataclass(frozen=True, eq=False)
class FeatureTable:
    """n samples of d-dimensional features with subclass-id labels.

    `subclass_names` is the name table of the id space: every label is an
    id in [0, len(subclass_names)). Immutable after construction; all
    arrays are float64/int64 and finite.
    """

    features: Annotated[np.ndarray, frozen_array(np.float64, 2)]
    labels: Annotated[np.ndarray, frozen_array(np.int64, 1)]
    subclass_names: Annotated[tuple[str, ...], SUBCLASS_NAMES]

    def __post_init__(self):
        type_fields(self)
        if self.labels.shape[0] != self.features.shape[0]:
            raise DimensionMismatch("labels must be a length-n vector")
        if not np.all(np.isfinite(self.features)):
            raise NonFiniteValue("feature table contains NaN or infinity")
        if self.labels.size and self.labels.min() < 0:
            raise UnknownLabel("labels must be non-negative subclass ids")
        if self.labels.size and self.labels.max() >= len(self.subclass_names):
            raise UnknownLabel(
                f"label id {int(self.labels.max())} outside the "
                f"{len(self.subclass_names)}-name subclass table"
            )

    @property
    def count(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True, eq=False)
class ClassStats:
    """Per-class mean vector and scalar variance.

    Row c of `means` is the arithmetic mean of class c's features; entry c
    of `variances` is the trace of class c's population covariance (the
    per-dimension divide-by-n variances, summed). With this convention the
    squared class distance equals the expected squared distance between
    independent samples of the two classes.
    """

    means: Annotated[np.ndarray, frozen_array(np.float64, 2)]
    variances: Annotated[np.ndarray, frozen_array(np.float64, 1)]

    def __post_init__(self):
        type_fields(self)
        if self.means.shape[0] != self.variances.shape[0]:
            raise DimensionMismatch("means and variances disagree on class count")
        if self.variances.size and self.variances.min() < 0:
            raise InvalidValue("variances must be non-negative")

    @property
    def class_count(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def class_statistics(table: FeatureTable) -> ClassStats:
    """Mean vector and trace-of-covariance variance for every class.

    Every class of the table's name table needs at least 2 samples. Rows
    are reduced in a canonical (lexicographically sorted) order, so the
    result is bit-for-bit invariant to sample order in the table. The
    rows are grouped by class once, by a stable sort of the labels, and
    each class's rows are ordered by one stable sort of column 0; only a
    class whose column 0 holds a tie under ``==`` (-0.0 ties 0.0) is
    sorted on every column, so the order is always the lexicographic one.
    A class whose mean or variance overflows to infinity is
    NonFiniteValue.
    """
    class_count = len(table.subclass_names)
    if class_count == 0:
        raise ClassTooSmall(0, "empty table has no classes")
    if table.dim == 0:
        raise DimensionMismatch("class statistics need a feature column")
    counts = np.bincount(table.labels, minlength=class_count)
    if counts.min() < 2:
        raise ClassTooSmall(int(np.argmin(counts >= 2)))
    grouped = np.argsort(table.labels, kind="stable")
    first_column = table.features[grouped, 0]
    bounds = np.concatenate(([0], np.cumsum(counts))).tolist()
    means = np.empty((class_count, table.dim))
    variances = np.empty(class_count)
    with np.errstate(over="ignore", invalid="ignore"):
        for c in range(class_count):
            members = grouped[bounds[c]:bounds[c + 1]]
            key = first_column[bounds[c]:bounds[c + 1]]
            order = np.argsort(key, kind="stable")
            ranked = key[order]
            if np.any(ranked[1:] == ranked[:-1]):
                order = np.lexsort(table.features[members].T[::-1])
            rows = table.features[members[order]]
            mean = rows.mean(axis=0)
            dev = rows - mean
            variances[c] = (dev * dev).sum(axis=1).mean()
            means[c] = mean
    finite = np.isfinite(means).all(axis=1) & np.isfinite(variances)
    if not finite.all():
        c = int(np.argmin(finite))
        raise NonFiniteValue(
            f"class {c} ({table.subclass_names[c]!r}): mean or variance "
            "overflows float64"
        )
    return ClassStats(means=means, variances=variances)


@dataclass(frozen=True)
class SyntheticSpec:
    """Geometry of a planted 3-level dataset.

    Superclass centers are mutually at least `superclass_separation` apart;
    each subclass center sits exactly `subclass_separation` from its
    superclass center in a random direction; samples are isotropic Gaussian
    noise of scale `noise_scale` around subclass centers.
    """

    superclass_count: Annotated[int, config_int] = 4
    subclasses_per_superclass: Annotated[int, config_int] = 5
    samples_per_subclass: Annotated[int, config_int] = 100
    dim: Annotated[int, config_int] = 16
    superclass_separation: Annotated[float, config_real] = 10.0
    subclass_separation: Annotated[float, config_real] = 3.0
    noise_scale: Annotated[float, config_real] = 1.0
    seed: Annotated[int, config_seed] = 0

    def __post_init__(self):
        type_fields(self)
        counts = (self.superclass_count, self.subclasses_per_superclass,
                  self.samples_per_subclass, self.dim)
        if min(counts) < 1:
            raise InvalidSpec("all counts must be >= 1")
        k, d = self.superclass_count, self.dim
        rows = self.subclass_count * self.samples_per_subclass
        if not (fits_array(rows, d) and fits_array(k, k, d)):
            raise InvalidSpec(
                f"{rows} samples of dim {d} over {k} superclasses are too many "
                "for a numpy array"
            )
        if self.superclass_separation <= 0 or self.subclass_separation <= 0:
            raise InvalidSpec("separations must be > 0")
        if self.noise_scale <= 0:
            raise InvalidSpec("noise_scale must be > 0")

    @property
    def subclass_count(self) -> int:
        return self.superclass_count * self.subclasses_per_superclass


def generate_synthetic(spec: SyntheticSpec) -> tuple[FeatureTable, LabelStructure]:
    """Sample a planted hierarchical dataset; deterministic for fixed seed.

    Superclass centers are Gaussian draws rescaled so the closest pair is
    exactly `superclass_separation` apart. The returned structure is the
    planted ground truth (superclasses s0..s{K-1}, subclasses c0..c{N-1}).
    """
    rng = rng_from_seed(spec.seed)
    k, per, d = spec.superclass_count, spec.subclasses_per_superclass, spec.dim
    n_sub = spec.subclass_count

    super_centers = rng.standard_normal((k, d))
    if k > 1:
        diff = super_centers[:, None, :] - super_centers[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=2))
        min_dist = dist[np.triu_indices(k, 1)].min()
        super_centers = super_centers * (spec.superclass_separation / min_dist)

    offsets = rng.standard_normal((n_sub, d))
    offsets = offsets / np.sqrt((offsets * offsets).sum(axis=1, keepdims=True))
    sub_centers = (
        np.repeat(super_centers, per, axis=0) + spec.subclass_separation * offsets
    )

    # Each sample is its subclass centre plus scaled noise, built in the
    # noise's own buffer: scale, then add the centres through a
    # (subclass, sample, d) view.
    features = rng.standard_normal((n_sub * spec.samples_per_subclass, d))
    features *= spec.noise_scale
    grid = features.reshape(n_sub, spec.samples_per_subclass, d)
    np.add(grid, sub_centers[:, None, :], out=grid)
    labels = np.repeat(np.arange(n_sub, dtype=np.int64), spec.samples_per_subclass)

    structure = LabelStructure(
        name="planted",
        superclasses=tuple(f"s{i}" for i in range(k)),
        subclass_names=tuple(f"c{i}" for i in range(n_sub)),
        parent_index=np.arange(n_sub) // per,
    )
    table = FeatureTable(adopt(features), adopt(labels), structure.subclass_names)
    return table, structure


def train_test_split(
    table: FeatureTable, fraction: float, seed: int
) -> tuple[FeatureTable, FeatureTable]:
    """Stratified exact split; `fraction` is the train share per class.

    Each class contributes floor(n_c * fraction) training samples and the
    remainder to test; a class that would land on 0 either side raises
    ClassTooSmall. Deterministic for a fixed seed; row order within each
    side follows the original table, and both sides keep its name table.
    """
    fraction, seed = config_real(fraction, "fraction"), config_seed(seed, "seed")
    if not 0.0 < fraction < 1.0:
        raise InvalidSpec("fraction must lie strictly between 0 and 1")
    if table.count == 0:
        raise ClassTooSmall(0, "empty table has no rows to split")
    rng = rng_from_seed(seed)
    train_idx, test_idx = [], []
    for c in np.flatnonzero(np.bincount(table.labels)):
        idx = np.flatnonzero(table.labels == c)
        n_train = int(math.floor(idx.size * fraction))
        n_test = idx.size - n_train
        if n_train == 0 or n_test == 0:
            raise ClassTooSmall(
                int(c), f"class {c}: split {n_train}/{n_test} leaves a side empty"
            )
        perm = rng.permutation(idx)
        train_idx.append(perm[:n_train])
        test_idx.append(perm[n_train:])
    train_idx = np.sort(np.concatenate(train_idx))
    test_idx = np.sort(np.concatenate(test_idx))
    return tuple(
        FeatureTable(adopt(table.features[idx]), adopt(table.labels[idx]),
                     table.subclass_names)
        for idx in (train_idx, test_idx)
    )


# -- feature files ----------------------------------------------------------

# Rows are written in blocks of about this many values (and at least one
# row; a word of a row's name counts as a value), each laid out as 40
# bytes a value: 127 rows of 64-d features, 31 rows of 256-d. On a 2-core
# x86-64 host (Python 3.11, numpy 2.4) blocks of 4 k to 16 k values wrote
# the 256-d table of the benchmark's fit-wide workload equally fast and
# 64 k values a third slower, as the kernel's temporaries outgrow the
# cache; a small block also keeps the writer's peak memory small.
_WRITE_BLOCK_VALUES = 1 << 13

# The fewest values worth a range, and so a forked worker, of their own.
# On the same host, forking a CLI process of 50 MB RSS, piping a result
# back and reaping the worker took 2.9 ms (median of 30; at most 9 ms),
# while the writer converts about 4.8 M values per second (the 256-d
# table, one range). 200 000 values are then about 42 ms of work, so a
# fork costs about 7% of its range.
_MIN_RANGE_VALUES = 200_000

# The last word of every row a block joins: its line break, then padding.
_NEWLINE_WORD = np.frombuffer(b"\n" + b"\xff" * 7, np.uint64)[0]

# The first line of a feature file's binary twin (see save_feature_table).
TABLE_MAGIC = b"hierfusion-table-v1\n"

# A feature file is hashed, and a range's part appended, in blocks of this
# many bytes, below the C allocator's 128 kB mmap threshold: freeing 1 MB
# blocks raised that threshold and with it the peak RSS of a later sweep
# by about 1 MB.
_HASH_BLOCK_BYTES = 1 << 16


def _range_count(values: int) -> int:
    """How many ranges to convert `values` values in: one per part
    workers.worker_count allows, each of at least _MIN_RANGE_VALUES."""
    return max(1, min(worker_count(), values // _MIN_RANGE_VALUES))


def save_feature_table(table: FeatureTable, path) -> None:
    """Write the CSV feature format: header ``label,f0..``, one row each,
    labelled by the table's own subclass names.

    Floats carry 17 significant digits (the ``%.17g`` text of
    :func:`format_float`, written by serialization.float_cells) so the
    file round-trips bit-exactly. The rows go to a temporary file in the
    target directory that replaces `path` only once complete; on any
    error it is deleted and `path` is left as it was. Contiguous row
    ranges are formatted in parallel (see the module docstring); each
    range after the first goes to a nameless temporary file, appended in
    order, so the bytes are those of one pass.
    Every byte is hashed as it goes into the file, and the binary twin
    ``.<name>.table`` is then written the same way; should that fail, the
    error is raised with the new file in place and any older twin left
    stale, so the next load parses.
    """
    path = Path(path)
    ranges = _range_count(table.count * table.dim)
    bounds = [table.count * i // ranges for i in range(ranges + 1)]

    def convert(index):
        _write_rows(files[index], table, bounds[index], bounds[index + 1])
        if index:
            files[index].flush()  # a worker leaves through os._exit

    with contextlib.ExitStack() as scratch:
        parts = [scratch.enter_context(tempfile.TemporaryFile(dir=path.parent))
                 for _ in range(1, ranges)]
        with atomic_text_writer(path, binary=True) as fh:
            out = _HashedWriter(fh)
            files = [out, *parts]
            out.write(("label," + ",".join(f"f{j}" for j in range(table.dim))
                       + "\n").encode("ascii"))
            in_parts(ranges, convert)
            for part in parts:
                part.seek(0)
                while block := part.read(_HASH_BLOCK_BYTES):
                    out.write(block)
    _save_twin(table, path, out.digest.hexdigest())


class _HashedWriter:
    """A binary file that feeds every byte written to it to a SHA-256, so
    a file is hashed as it is written rather than read back."""

    def __init__(self, fh):
        self.fh = fh
        self.digest = hashlib.sha256()

    def write(self, data) -> None:
        self.digest.update(data)
        self.fh.write(data)


def _twin_path(path) -> Path:
    """The binary twin of the feature file `path`: ``.<name>.table``."""
    path = Path(path)
    return path.with_name(f".{path.name}.table")


def _sha256(path) -> str:
    """The hex SHA-256 of the bytes of `path`, read in blocks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(_HASH_BLOCK_BYTES):
            digest.update(block)
    return digest.hexdigest()


def _save_twin(table: FeatureTable, path: Path, source: str) -> None:
    """Write the twin of the feature file `path`, just written from `table`,
    whose bytes have the hex SHA-256 `source`: the save_frame frame of the
    header `source`; `rows`; `dim`; `names` and the features and labels,
    as load_feature_table(path) with no names returns them (its labels in
    first-appearance order and ids into them).
    """
    used, first = np.unique(table.labels, return_index=True)
    order = used[np.argsort(first)]
    ids = np.empty(len(table.subclass_names), np.int64)
    ids[order] = np.arange(order.size)
    header = {"source": source, "rows": table.count, "dim": table.dim,
              "names": [table.subclass_names[i] for i in order.tolist()]}
    save_frame(_twin_path(path), TABLE_MAGIC, header, (table.features, ids[table.labels]))


def _twin_layout(header) -> list:
    """The (shape, dtype) of the features and labels of a twin."""
    rows, dim = header["rows"], header["dim"]
    if not (type(rows) is type(dim) is int and rows >= 0 and dim >= 1):  # no bools
        raise ValueError("rows and dim must be sizes")
    return [((rows, dim), np.float64), ((rows,), np.int64)]


def _load_twin(path, names):
    """The table load_feature_table(path, names) returns, built from the
    twin of the feature file `path`, or None where there is none to trust:
    no twin, one load_frame refuses, one that records another SHA-256 than
    that of the bytes of `path` now, or one that describes no valid table.
    """
    try:
        header, (features, labels) = load_frame(_twin_path(path), TABLE_MAGIC,
                                                _twin_layout)
        if header["source"] != _sha256(path):
            return None
        table = FeatureTable(adopt(features), adopt(labels), header["names"])
    except (OSError, ValueError, KeyError, HierFusionError):
        return None
    if names is None:
        return table
    name_to_id = {n: i for i, n in enumerate(names)}
    found = table.subclass_names
    ids = np.array([name_to_id.get(n, -1) for n in found], np.int64)[table.labels]
    unknown = np.flatnonzero(ids < 0)
    if unknown.size:  # the writer writes no blank line: row r is line r + 2
        row = int(unknown[0])
        raise UnknownLabel(f"{path}:{row + 2}: unknown label {found[table.labels[row]]!r}")
    return FeatureTable(adopt(table.features), adopt(ids), names)


def _write_rows(fh, table: FeatureTable, start: int, stop: int) -> None:
    """Write rows [start, stop) of `table` to the binary file `fh` as
    feature-file lines.

    A block of rows is laid out as words: each row's name, encoded once
    and padded with 0xFF, its cells from serialization.float_cells and a
    line break; deleting the 0xFF bytes leaves the block's text.
    """
    names, dim = table.subclass_names, table.dim
    labels = table.labels[start:stop]
    used = np.flatnonzero(np.bincount(labels)).tolist()
    encoded = [names[label].encode("utf-8") for label in used]
    width = -(-max(map(len, encoded), default=0) // 8)  # words
    name_words = np.full((len(names), 8 * width), 0xFF, np.uint8)
    for label, name in zip(used, encoded):
        name_words[label, :len(name)] = np.frombuffer(name, np.uint8)
    name_words = name_words.view(np.uint64)
    step = max(1, _WRITE_BLOCK_VALUES // (dim + width))
    for block in range(start, stop, step):
        end = min(block + step, stop)
        rows = np.empty((end - block, width + CELL_WORDS * dim + 1), np.uint64)
        rows[:, :width] = name_words[labels[block - start:end - start]]
        float_cells(table.features[block:end],
                    rows[:, width:-1].reshape(end - block, dim, CELL_WORDS))
        rows[:, -1] = _NEWLINE_WORD
        fh.write(rows.tobytes().translate(None, b"\xff"))


def load_feature_table(path, subclass_names=None) -> FeatureTable:
    """Parse a feature file into a table that owns its name table.

    Labels resolve against `subclass_names` (UnknownLabel for any other
    name); with None, the table's names are the file's labels in
    first-appearance order, and a label that breaks the name rule is
    StructureError. Each non-blank line has its label and cell count
    checked, and its cells go on to ``np.loadtxt``. A cell is an ASCII
    decimal float (``1.5``, ``-2e-3``, ``nan`` and ``inf`` parse, then
    fail the finiteness check); ``#`` is not a comment, and digit
    separators (``1_0``) or non-ASCII digits are MalformedRow. Every
    error names the offending line as ``path:line``; blank lines are
    skipped and do not count as rows, so the line of each row is recorded
    as it is read. A non-finite value is reported only once every line
    has parsed, so an error on a later line wins over it.

    A file save_feature_table wrote is read from its binary twin instead
    while the SHA-256 the twin records is that of the file's bytes (see
    the module docstring). The twin gives the same table and, for a label
    `subclass_names` lacks, the same UnknownLabel on the same line, since
    the writer writes no blank line; a twin that is missing, stale,
    unreadable or not byte for byte as written (its closing SHA-256
    checks every other byte) is ignored and the file is parsed.
    """
    names = None if subclass_names is None else tuple(subclass_names)
    table = _load_twin(path, names)
    if table is not None:
        return table
    with text_reader(path) as fh:
        header = fh.readline()
        if not header.startswith("label,"):
            raise MalformedRow(f"{path}: missing 'label,f0,...' header")
        dim = len(header.rstrip("\n").split(",")) - 1
        if dim < 1:
            raise MalformedRow(f"{path}: header declares no feature columns")
        return _parse_rows(fh, path, dim, names)


def _parse_rows(lines, path, dim: int, names) -> FeatureTable:
    """The table of the rows in `lines`, the lines of `path` after its
    header.

    Label ids index `names`; with None, they index the names met first,
    in order, each checked by the name rule.
    """
    name_to_id = {n: i for i, n in enumerate(names or ())}
    labels = array("q")
    linenos = array("q")

    def cells():
        for lineno, line in enumerate(lines, start=2):
            if line == "\n":
                continue
            label, sep, rest = line.partition(",")
            got = rest.count(",") + 1 if sep else 0
            if got != dim:
                raise DimensionMismatch(
                    f"{path}:{lineno}: expected {dim} features, got {got}"
                )
            if rest in ("", "\n"):  # loadtxt would skip it as a blank line
                raise MalformedRow(f"{path}:{lineno}: empty feature cell")
            label_id = name_to_id.get(label)
            if label_id is None:
                if names is not None:
                    raise UnknownLabel(f"{path}:{lineno}: unknown label {label!r}")
                config_name(label, f"{path}:{lineno}: label")
                label_id = name_to_id[label] = len(name_to_id)
            labels.append(label_id)
            linenos.append(lineno)
            yield rest

    rows = cells()
    first_row = next(rows, None)
    if first_row is None:
        features = np.empty((0, dim))
    else:
        try:
            features = np.loadtxt(
                itertools.chain((first_row,), rows),
                delimiter=",",
                comments=None,
                dtype=np.float64,
                ndmin=2,
            )
        except UnicodeDecodeError:
            raise  # text_reader names the file; a line number would mislead
        except ValueError as exc:
            # loadtxt converts each line as it is pulled from `rows`, so
            # the line that failed is the last one recorded.
            reason = _loadtxt_reason(exc)
            raise MalformedRow(f"{path}:{linenos[-1]}: {reason}") from exc
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise NonFiniteValue(f"{path}:{linenos[row]}: non-finite feature value")
    return FeatureTable(adopt(features), adopt(np.frombuffer(labels, np.int64)),
                        tuple(name_to_id) if names is None else names)


def _loadtxt_reason(exc: ValueError) -> str:
    """loadtxt's message with its position given as the feature column.

    loadtxt counts rows rather than file lines, and counts columns from 1
    after the label, so ``at row 7, column 1`` becomes ``in column f0``.
    """
    return re.sub(
        r" at row \d+, column (\d+)\.?$",
        lambda m: f" in column f{int(m[1]) - 1}",
        str(exc),
    )
