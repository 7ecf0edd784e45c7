"""Structure-averaged hierarchical evaluation measures.

Given predictions over the shared subclass space and a set of label
structures, this module scores each structure separately and averages
across structures: hierarchical precision/recall/F over root-to-leaf
path sets, the mean tree distance between predicted and true leaves
(tie, counted in edges), and the mean lowest-common-ancestor height
(lca, counted in levels).

Every path set in a 3-level structure has exactly PATH_NODES members
(root, superclass, subclass), which ties the measures together: per
report, tie = 2 * lca exactly and f = 1 - tie/6 up to rounding. The
implementations below do not exploit those identities; tests assert
them as cross-checks.

All sample reductions are exact integer sums followed by one division,
so results do not depend on accumulation order.
"""

from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .config import SUBCLASS_NAMES, frozen_array, type_fields
from .exceptions import (
    DimensionMismatch,
    EmptyBatch,
    IdOutOfRange,
    MalformedRow,
    SubclassSpaceMismatch,
    UnknownLabel,
)
from .serialization import atomic_text_writer, text_reader
from .taxonomy import LabelStructure, StructureSet, lca_heights

PATH_NODES = 3


@dataclass(frozen=True, eq=False)
class PredictionBatch:
    """Paired predicted and true subclass ids for n samples, with the
    subclass name table of their id space."""

    predicted: Annotated[np.ndarray, frozen_array(np.int64, 1)]
    truth: Annotated[np.ndarray, frozen_array(np.int64, 1)]
    subclass_names: Annotated[tuple[str, ...], SUBCLASS_NAMES]

    def __post_init__(self):
        type_fields(self)
        if self.predicted.shape != self.truth.shape:
            raise DimensionMismatch(
                f"{self.predicted.size} predictions vs {self.truth.size} truths"
            )
        if self.predicted.size == 0:
            raise EmptyBatch("a prediction batch needs at least one sample")
        ids = np.concatenate((self.predicted, self.truth))
        if ids.min() < 0 or ids.max() >= len(self.subclass_names):
            raise IdOutOfRange(
                f"subclass ids outside the {len(self.subclass_names)}-name "
                "subclass table"
            )

    @property
    def count(self) -> int:
        return self.predicted.size


@dataclass(frozen=True)
class StructureScores:
    """Micro-averaged measures for a single structure."""

    name: str
    p_h: float
    r_h: float
    f_h: float
    tie: float
    lca: float


@dataclass(frozen=True)
class EvalReport:
    """Flat accuracy plus structure-averaged hierarchical measures."""

    accuracy: float
    p_ha: float
    r_ha: float
    f_ha: float
    tie_a: float
    lca_a: float
    per_structure: tuple[StructureScores, ...]


def structure_scores(structure: LabelStructure, batch: PredictionBatch) -> StructureScores:
    """Score one structure: micro P/R/F over path sets, mean tie and lca.

    The path-set overlap of a sample is PATH_NODES minus the height of
    the lowest common ancestor (the root always overlaps; the superclass
    overlaps iff the leaves are siblings; the leaf iff they are equal).
    Precision divides by the total predicted path length, recall by the
    total true path length; both are PATH_NODES per sample here.
    """
    heights = lca_heights(structure, batch.truth, batch.predicted)
    n = batch.count
    overlap = PATH_NODES * n - int(heights.sum())
    predicted_nodes = PATH_NODES * n
    truth_nodes = PATH_NODES * n
    p = overlap / predicted_nodes
    r = overlap / truth_nodes
    f = 2.0 * p * r / (p + r)
    edges = 2 * int(heights.sum())
    return StructureScores(
        name=structure.name,
        p_h=p,
        r_h=r,
        f_h=f,
        tie=edges / n,
        lca=int(heights.sum()) / n,
    )


def evaluate(structures: StructureSet, batch: PredictionBatch) -> EvalReport:
    """Full report: accuracy plus all structure-averaged measures.

    Accuracy is the fraction of samples whose predicted subclass is the
    truth. P_Ha and R_Ha average the per-structure P and R, and F_Ha is
    the F of those averages. An empty structure set raises EmptyBatch,
    and a batch over another subclass name table SubclassSpaceMismatch.
    """
    if len(structures) == 0:
        raise EmptyBatch("metrics need at least one structure to average over")
    if batch.subclass_names != structures.subclass_names:
        raise SubclassSpaceMismatch(
            "predictions and structures disagree on the subclass name table"
        )
    scores = [structure_scores(s, batch) for s in structures]
    m = len(scores)
    p_ha = sum(s.p_h for s in scores) / m
    r_ha = sum(s.r_h for s in scores) / m
    return EvalReport(
        accuracy=int(np.count_nonzero(batch.predicted == batch.truth)) / batch.count,
        p_ha=p_ha,
        r_ha=r_ha,
        f_ha=2.0 * p_ha * r_ha / (p_ha + r_ha),
        tie_a=sum(s.tie for s in scores) / m,
        lca_a=sum(s.lca for s in scores) / m,
        per_structure=tuple(scores),
    )


# -- prediction files --------------------------------------------------------

def save_predictions(batch: PredictionBatch, path) -> None:
    """Write the two-column prediction CSV ``predicted,truth`` by the
    batch's subclass names."""
    names = batch.subclass_names
    with atomic_text_writer(path) as fh:
        fh.write("predicted,truth\n")
        fh.writelines(
            "%s,%s\n" % (names[pred], names[true])
            for pred, true in zip(batch.predicted.tolist(), batch.truth.tolist())
        )


def load_predictions(path, subclass_names) -> PredictionBatch:
    """Parse a prediction CSV into a batch over the name table
    `subclass_names`, typed on entry (config.SUBCLASS_NAMES), resolving
    each name against it."""
    subclass_names = SUBCLASS_NAMES(subclass_names, "subclass_names")
    name_to_id = {n: i for i, n in enumerate(subclass_names)}
    predicted, truth = [], []
    with text_reader(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != "predicted,truth":
            raise MalformedRow(f"{path}: missing 'predicted,truth' header")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != 2:
                raise MalformedRow(f"{path}:{lineno}: expected 2 columns")
            for cell in cells:
                if cell not in name_to_id:
                    raise UnknownLabel(f"{path}:{lineno}: unknown label {cell!r}")
            predicted.append(name_to_id[cells[0]])
            truth.append(name_to_id[cells[1]])
    if not predicted:
        raise EmptyBatch(f"{path}: no prediction rows")
    return PredictionBatch(
        predicted=np.array(predicted, dtype=np.int64),
        truth=np.array(truth, dtype=np.int64),
        subclass_names=subclass_names,
    )
