"""Exception hierarchy for the toolkit.

Every error raised by the library derives from :class:`HierFusionError`,
so callers (including the CLI) can catch one type. The leaf classes mirror
the failure modes of the individual modules. Every class pickles and
unpickles to an equal error (same type, fields and message), so an error
raised in a forked worker (see workers.py) reaches the caller unchanged.
"""


class HierFusionError(Exception):
    """Base class for all toolkit errors."""


# -- taxonomy ------------------------------------------------------------

class StructureError(HierFusionError):
    """A label structure violates its invariants."""


class OrphanSubclass(StructureError):
    """A subclass has no parent superclass."""


class UnknownSubclass(StructureError):
    """parent_of references a subclass that is not in the subclass list."""


class UnknownSuperclass(StructureError):
    """parent_of references a superclass that is not declared."""


class EmptySuperclass(StructureError):
    """A declared superclass has no children."""


class DuplicateSubclass(StructureError):
    """The same subclass appears twice."""


class IdOutOfRange(HierFusionError):
    """A subclass id is outside [0, subclass_count)."""


class SubclassSpaceMismatch(HierFusionError):
    """Inputs disagree on the shared subclass id space."""


# -- features ------------------------------------------------------------

class FeatureFileError(HierFusionError):
    """A feature file violates its format."""


class MalformedRow(FeatureFileError):
    """A row cannot be parsed."""


class DimensionMismatch(HierFusionError):
    """Vector or matrix dimensions disagree."""


class NonFiniteValue(HierFusionError):
    """A NaN or infinity appeared where finite values are required."""


class InvalidValue(HierFusionError):
    """A value breaks an invariant of its type other than finiteness or
    shape: a negative class variance, or an affinity matrix that is not
    symmetric, has an entry outside [0, 1] or a non-zero diagonal."""


class UnknownLabel(FeatureFileError):
    """A sample label does not resolve against the subclass name table."""


class ClassTooSmall(HierFusionError):
    """A class has too few samples for the requested operation."""

    def __init__(self, class_id, message=None):
        self.class_id = class_id
        super().__init__(message or f"class {class_id} has too few samples")

    def __reduce__(self):
        return type(self), (self.class_id, self.args[0])


class InvalidSpec(HierFusionError):
    """A synthetic-data spec violates its invariants."""


# -- structure builder ---------------------------------------------------

class IsolatedClass(HierFusionError):
    """A class has zero affinity degree (or a degenerate embedding row)."""


class EigensolverFailure(HierFusionError):
    """The eigensolver (LAPACK `eigh`) did not converge."""


class DegeneratePoints(HierFusionError):
    """k-means cannot find k distinct points to seed from."""


# -- metrics -------------------------------------------------------------

class EmptyBatch(HierFusionError):
    """A prediction batch (or structure set) is empty where content is required."""


# -- model ---------------------------------------------------------------

class InvalidConfig(HierFusionError):
    """A model or experiment configuration violates its invariants."""


class DivergedLoss(HierFusionError):
    """Training produced a non-finite loss.

    `epoch` and `sample` locate the first batch whose loss was not finite.
    `run` names the run it belongs to (its index among the runs of one
    `train_stacked` call, or a caller's label), or is None for a lone run.
    """

    def __init__(self, epoch: int, sample: int, run=None):
        self.epoch, self.sample, self.run = epoch, sample, run
        where = "" if run is None else f"run {run}: "
        super().__init__(f"{where}non-finite loss at epoch {epoch}, sample {sample}")

    def __reduce__(self):
        return type(self), (self.epoch, self.sample, self.run)


# -- checkpoint / files --------------------------------------------------

class CheckpointError(HierFusionError):
    """A checkpoint file is malformed or truncated."""
