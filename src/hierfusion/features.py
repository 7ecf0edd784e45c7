"""Feature tables, per-class statistics, and synthetic dataset generation.

Feature vectors arrive from any upstream extractor through a plain CSV
format (header ``label,f0,...,f{d-1}``, one sample per row, labels resolved
against a subclass name table). Per-class statistics feed the affinity
construction; the synthetic generator plants a known 3-level hierarchy for
desk-scale experiments.
"""

import itertools
import math
import re
from array import array
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .config import config_int, config_real, config_seed, frozen_array, type_fields
from .exceptions import (
    ClassTooSmall,
    DimensionMismatch,
    InvalidSpec,
    MalformedRow,
    NonFiniteValue,
    UnknownLabel,
)
from .rng import rng_from_seed
from .serialization import atomic_text_writer, text_reader
from .taxonomy import LabelStructure, validate_structure


@dataclass(frozen=True)
class FeatureTable:
    """n samples of d-dimensional features with subclass-id labels.

    Immutable after construction; all arrays are float64/int64 and finite.
    """

    features: Annotated[np.ndarray, frozen_array(np.float64, 2)]
    labels: Annotated[np.ndarray, frozen_array(np.int64, 1)]

    def __post_init__(self):
        type_fields(self)
        if self.labels.shape[0] != self.features.shape[0]:
            raise DimensionMismatch("labels must be a length-n vector")
        if not np.all(np.isfinite(self.features)):
            raise NonFiniteValue("feature table contains NaN or infinity")
        if self.labels.size and self.labels.min() < 0:
            raise UnknownLabel("labels must be non-negative subclass ids")

    @property
    def count(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
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
            raise ValueError("variances must be non-negative")

    @property
    def class_count(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def class_statistics(table: FeatureTable, class_count: int | None = None) -> ClassStats:
    """Mean vector and trace-of-covariance variance for every class.

    Every class in [0, class_count) needs at least 2 samples. Rows are
    reduced in a canonical (lexicographically sorted) order, so the result
    is bit-for-bit invariant to sample order in the table.
    """
    if class_count is None:
        if table.count == 0:
            raise ClassTooSmall(0, "empty table has no classes")
        class_count = int(table.labels.max()) + 1
    means = np.empty((class_count, table.dim))
    variances = np.empty(class_count)
    for c in range(class_count):
        rows = table.features[table.labels == c]
        if rows.shape[0] < 2:
            raise ClassTooSmall(c)
        order = np.lexsort(rows.T[::-1])
        rows = rows[order]
        mean = rows.mean(axis=0)
        dev = rows - mean
        variances[c] = (dev * dev).sum(axis=1).mean()
        means[c] = mean
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

    noise = rng.standard_normal((n_sub * spec.samples_per_subclass, d))
    features = (
        np.repeat(sub_centers, spec.samples_per_subclass, axis=0)
        + spec.noise_scale * noise
    )
    labels = np.repeat(np.arange(n_sub, dtype=np.int64), spec.samples_per_subclass)

    structure = validate_structure(
        name="planted",
        superclasses=[f"s{i}" for i in range(k)],
        subclass_names=[f"c{i}" for i in range(n_sub)],
        parent_of={f"c{i}": f"s{i // per}" for i in range(n_sub)},
    )
    return FeatureTable(features=features, labels=labels), structure


def train_test_split(
    table: FeatureTable, fraction: float, seed: int
) -> tuple[FeatureTable, FeatureTable]:
    """Stratified exact split; `fraction` is the train share per class.

    Each class contributes floor(n_c * fraction) training samples and the
    remainder to test; a class that would land on 0 either side raises
    ClassTooSmall. Deterministic for a fixed seed; row order within each
    side follows the original table.
    """
    if not 0.0 < fraction < 1.0:
        raise InvalidSpec("fraction must lie strictly between 0 and 1")
    if table.count == 0:
        raise ClassTooSmall(0, "empty table has no rows to split")
    rng = rng_from_seed(seed)
    train_idx, test_idx = [], []
    for c in np.unique(table.labels):
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
    return (
        FeatureTable(table.features[train_idx], table.labels[train_idx]),
        FeatureTable(table.features[test_idx], table.labels[test_idx]),
    )


# -- feature files ----------------------------------------------------------

# Rows are converted to Python floats this many at a time when writing, so
# the writer never holds more than one block of them.
_WRITE_BLOCK_ROWS = 1024


def save_feature_table(table: FeatureTable, subclass_names, path) -> None:
    """Write the CSV feature format: header ``label,f0..``, one row each.

    Floats carry 17 significant digits (the ``%.17g`` text of
    :func:`format_float`) so the file round-trips bit-exactly. The rows go
    to a temporary file in the target directory that replaces `path` only
    once complete; on any error it is deleted and `path` is left as it was.
    """
    names = tuple(subclass_names)
    if table.count and int(table.labels.max()) >= len(names):
        raise UnknownLabel(
            f"label id {int(table.labels.max())} outside the "
            f"{len(names)}-name subclass table"
        )
    row_format = "%s" + ",%.17g" * table.dim + "\n"
    with atomic_text_writer(path) as fh:
        fh.write("label," + ",".join(f"f{j}" for j in range(table.dim)) + "\n")
        for start in range(0, table.count, _WRITE_BLOCK_ROWS):
            stop = start + _WRITE_BLOCK_ROWS
            fh.writelines(
                row_format % (names[label], *values)
                for label, values in zip(
                    table.labels[start:stop].tolist(),
                    table.features[start:stop].tolist(),
                )
            )


def load_feature_table(path, subclass_names) -> FeatureTable:
    """Parse a feature file, resolving labels against the name table.

    One streaming pass: each non-blank line has its label and cell count
    checked here, and its cells go on to a single ``np.loadtxt``. A cell
    is an ASCII decimal float (``1.5``, ``-2e-3``, ``nan`` and ``inf``
    parse, then fail the finiteness check); ``#`` is not a comment, and
    digit separators (``1_0``) or non-ASCII digits are MalformedRow. Every
    error names the offending line as ``path:line``; blank lines are
    skipped and do not count as rows, so the line of each row is recorded
    as it is read.
    """
    name_to_id = {str(n): i for i, n in enumerate(subclass_names)}
    labels = array("q")
    linenos = array("q")
    with text_reader(path) as fh:
        header = fh.readline()
        if not header.startswith("label,"):
            raise MalformedRow(f"{path}: missing 'label,f0,...' header")
        dim = len(header.rstrip("\n").split(",")) - 1
        if dim < 1:
            raise MalformedRow(f"{path}: header declares no feature columns")

        def cells():
            for lineno, line in enumerate(fh, start=2):
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
                    raise UnknownLabel(f"{path}:{lineno}: unknown label {label!r}")
                labels.append(label_id)
                linenos.append(lineno)
                yield rest

        rows = cells()
        first = next(rows, None)
        if first is None:
            return FeatureTable(np.empty((0, dim)), np.empty(0, dtype=np.int64))
        try:
            features = np.loadtxt(
                itertools.chain((first,), rows),
                delimiter=",",
                comments=None,
                dtype=np.float64,
                ndmin=2,
            )
        except UnicodeDecodeError:
            raise  # text_reader names the file; a line number would mislead
        except ValueError as exc:
            # loadtxt converts each line as it is pulled from `rows`, so the
            # line that failed is the last one recorded.
            reason = _loadtxt_reason(exc)
            raise MalformedRow(f"{path}:{linenos[-1]}: {reason}") from exc
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise NonFiniteValue(f"{path}:{linenos[row]}: non-finite feature value")
    return FeatureTable(features=features, labels=np.frombuffer(labels, np.int64))


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
