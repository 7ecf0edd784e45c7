"""Multi-task classifier over fused label structures.

A staged fully-connected trunk (tanh nonlinearity) carries one subclass
head at the final stage plus, per label structure, one superclass head
attached at a configurable trunk stage. Training minimizes

    (1 - lambda_total) * CE(subclass) + sum_m lambda_m * CE(superclass m)

with plain mini-batch gradient descent at a constant learning rate.
Superclass labels are derived from the subclass label through each
structure on the fly, never stored, so they can't drift out of sync.
Inference reads the subclass head only.

One forward pass, `_logits`, serves forward(), training and
gradient_check, on a FusionModel or on its mutable training copy with the
same field names. One pair of functions composes the loss above for
training and gradient_check: `_head_losses` gives each head's loss and
`_total_loss` weights and adds them. One canonical parameter
order, `_layout` (trunk stages, the subclass head, then superclass heads),
fixes checkpoint tensors, the flat training buffer and its gradients;
`_shapes` walks it for the shape init_model draws and a model checks,
and gradient_check fits a model by comparing it with a drawn one.

All parameters are float64 arrays; backpropagation is written out by
hand and validated against central finite differences (gradient_check).
Weight init and batch shuffling use independent streams derived from the
config seed, so a model trained with lambda 0 walks the same trunk and
subclass-head trajectory as one trained with no structures at all.

Training steps a stack of R runs at once (train_stacked): the flat buffer
gains a leading run axis, so weights are (R, a, b) views, biases (R, 1, k)
views and a batch is (R, n, d). Each per-run quantity is one array: the
(1 + M, R) loss-weight table (row 0 each run's 1 - lambda, row 1 + m its
lambda for structure m), the (1 + M, R) head losses of a batch
(subclass, per structure) and the (R, 1) learning-rate column. A step
only stores its head losses; the epoch totals them, tests them for
divergence and sums them, in batch order, once. Each stacked matmul,
softmax and bias sum does per run exactly the arithmetic of a lone run,
so every run of a stack is bit-equal to training it alone; `train` is
the R = 1 case. train_stacked takes runs of any shapes and stacks those
that share layout shapes, training row count, batch size and epochs
(_stack_key), a decision made here alone; each run keeps its own init
and shuffle streams. A run trains on rows of its table given as a row
index (features.row_index), so the runs of a split table read its one
copy of the features and a batch of a stack on one table is one gather.

A stack with enough work trains on every core: workers.part_bounds cuts
its run axis into contiguous slices, one per CPU while each holds
_MIN_SLICE_WORK, that descend at the same time through the shared fork
helper (workers.in_parts), slice 0 here and each other slice in a forked
worker. `_descend` trains one slice and returns two plain arrays, its
rows of the (R, P) buffer and its runs' history tables; train_stacked
builds every FusionModel and TrainHistory from them in this process.
Since every run is bit-equal to training it alone, the slicing changes
no byte.

A FusionModel carries the subclass name table of its output columns,
typed by the one name rule like every value holding subclass ids:
training takes it from the table, and checkpoints store it.

The hyperparameters, FusionConfig, are the config document's `model`
section and are defined in config.py, which parses configs without
loading this module; imported here, `hierfusion.model.FusionConfig` is
the same class.
"""

import math
from dataclasses import asdict, dataclass, replace
from types import SimpleNamespace
from typing import Annotated

import numpy as np

from .config import (
    SUBCLASS_NAMES,
    FusionConfig,
    adopt,
    config_int,
    config_list,
    config_name,
    fits_array,
    frozen_array,
    number_array,
    type_fields,
    typed_section,
)
from .exceptions import (
    CheckpointError,
    ClassTooSmall,
    DimensionMismatch,
    DivergedLoss,
    InvalidConfig,
    NonFiniteValue,
    StructureError,
    SubclassSpaceMismatch,
)
from .features import FeatureTable, row_index
from .rng import derive_seed, rng_from_seed
from .serialization import atomic_text_writer, format_float, load_frame, save_frame
from .taxonomy import StructureSet
from .workers import in_parts, part_bounds

CHECKPOINT_MAGIC = b"hierfusion-checkpoint-v2\n"

# Sub-streams under config.seed. Keeping the shuffle stream separate from
# init means adding or removing superclass heads never shifts the batch
# order, which is what makes the lambda=0 trajectory identity testable.
_STREAM_INIT = 0
_STREAM_SHUFFLE = 1

# gradient_check's central-difference step, inside the range [1e-6, 1e-3]
# where float64 rounding and truncation error both stay small; the most
# parameters it checks, and the seed that picks them from a larger model.
_GRADIENT_STEP = 1e-5
_GRADIENT_SAMPLE = 200
_GRADIENT_SEED = 0

# The least work worth a slice of a stack, and so a forked worker, of its
# own, counted as sample-parameter products: epochs x training rows x
# parameters, summed over the slice's runs. On a 2-core x86-64 host
# (Python 3.11, numpy 2.4, one BLAS thread), at sweep-lambda's shapes
# (1600 rows, 64-d input, 3080 parameters, batch 32), two slices broke
# even at about 40 M a slice: a 2-run stack took 122 ms in one slice or
# two at 8 epochs (39 M a run) but 15 against 24 ms at 1 epoch, and a
# 9-run stack took 72 against 66 ms at 2 epochs (44 M a slice) and 313
# against 235 ms at 8. The fork, the pipe and the runs' shared per-batch
# cost paid twice make up the difference.
_MIN_SLICE_WORK = 50_000_000


_VECTOR = frozen_array(np.float64, 1)
_MATRIX = frozen_array(np.float64, 2)


@dataclass(frozen=True, eq=False)
class FusionModel:
    """An immutable parameter snapshot plus the name tables to apply it."""

    trunk_weights: Annotated[tuple[np.ndarray, ...], config_list(_MATRIX)]
    trunk_biases: Annotated[tuple[np.ndarray, ...], config_list(_VECTOR)]
    subclass_weight: Annotated[np.ndarray, _MATRIX]
    subclass_bias: Annotated[np.ndarray, _VECTOR]
    super_weights: Annotated[tuple[np.ndarray, ...], config_list(_MATRIX)]
    super_biases: Annotated[tuple[np.ndarray, ...], config_list(_VECTOR)]
    attach_stages: Annotated[tuple[int, ...], config_list(config_int)]
    subclass_names: Annotated[tuple[str, ...], SUBCLASS_NAMES]
    structure_names: Annotated[tuple[str, ...], config_list(config_name)]

    def __post_init__(self):
        type_fields(self)
        trunk_w, attach = self.trunk_weights, self.attach_stages
        if not trunk_w or len(trunk_w) != len(self.trunk_biases):
            raise DimensionMismatch("trunk weights and biases must pair up")
        heads = (self.super_weights, self.super_biases, attach, self.structure_names)
        if len(set(map(len, heads))) > 1:
            raise DimensionMismatch("one head, stage, and name per structure")
        for m, s in enumerate(attach):
            if not 0 <= s < len(trunk_w):
                raise DimensionMismatch(f"head {m} attach stage {s} out of range")
        shapes = _shapes(trunk_w[0].shape[0], tuple(w.shape[1] for w in trunk_w),
                         len(self.subclass_names), attach, self.superclass_counts)
        for (name, arr), shape in zip(_parameters(self), shapes):
            if arr.shape != shape:
                raise DimensionMismatch(f"{name} has shape {arr.shape}, the layout needs {shape}")
        if not all(np.isfinite(arr).all() for _, arr in _parameters(self)):
            raise NonFiniteValue("model parameters must be finite")

    @property
    def input_dim(self) -> int:
        return self.trunk_weights[0].shape[0]

    @property
    def stage_count(self) -> int:
        return len(self.trunk_weights)

    @property
    def subclass_count(self) -> int:
        return self.subclass_weight.shape[1]

    @property
    def superclass_counts(self) -> tuple[int, ...]:
        return tuple(w.shape[1] for w in self.super_weights)


@dataclass(frozen=True, eq=False)
class TrainHistory:
    """Per-epoch losses and training accuracy: row e of `rows` holds epoch
    e's total loss, subclass loss, one loss per structure and accuracy,
    history.csv's columns after the epoch."""

    rows: Annotated[np.ndarray, _MATRIX]
    structure_names: Annotated[tuple[str, ...], config_list(config_name)]

    def __post_init__(self):
        type_fields(self)
        if self.rows.shape[1] != 3 + len(self.structure_names):
            raise DimensionMismatch(f"history rows need {3 + len(self.structure_names)} "
                                    "columns: total, subclass, per structure, accuracy")

    # Read-only views of single columns; super_losses is (epochs, M).
    epochs = property(lambda self: self.rows.shape[0])
    total_loss = property(lambda self: self.rows[:, 0])
    subclass_loss = property(lambda self: self.rows[:, 1])
    super_losses = property(lambda self: self.rows[:, 2:-1])
    train_accuracy = property(lambda self: self.rows[:, -1])


def init_model(
    config: FusionConfig, structures: StructureSet, input_dim: int, subclass_names
) -> FusionModel:
    """Fresh parameters: weights uniform in +-1/sqrt(fan_in), biases zero.

    The subclass head has one output per entry of `subclass_names`, which
    must be the structures' name table when there are structures.
    Deterministic for a fixed config.seed. The weights are drawn in the
    _layout order (trunk stages, the subclass head, then superclass heads
    in structure order; biases draw nothing), so models that share a
    prefix of that list share those draws.
    """
    if len(structures) != config.structure_count:
        raise InvalidConfig(
            f"config expects {config.structure_count} structures, got {len(structures)}"
        )
    subclass_count = len(subclass_names)
    if subclass_count < 2:
        raise InvalidConfig("need at least 2 subclasses")
    if input_dim < 1:
        raise InvalidConfig("input_dim must be >= 1")

    rng = rng_from_seed(derive_seed(config.seed, _STREAM_INIT))

    def draw(shape):
        if len(shape) == 1:
            return np.zeros(shape)
        if not fits_array(*shape):
            raise InvalidConfig(f"stage_dims: a {shape[0]} x {shape[1]} weight matrix "
                                "is too large for a numpy array")
        scale = 1.0 / math.sqrt(shape[0])
        return rng.uniform(-scale, scale, size=shape)

    shapes = _shapes(int(input_dim), config.stage_dims, subclass_count, config.attach_stages,
                     tuple(s.superclass_count for s in structures))
    model = FusionModel(
        **_parameter_fields(_layout(len(config.stage_dims), len(structures)),
                            map(draw, shapes)),
        attach_stages=config.attach_stages,
        subclass_names=subclass_names,
        structure_names=tuple(s.name for s in structures),
    )
    if len(structures) and model.subclass_names != structures.subclass_names:
        raise SubclassSpaceMismatch("subclass_names disagree with the structures")
    return model


def _layout(stage_count: int, head_count: int) -> list[tuple[str, str, int | None]]:
    """The canonical parameter order, the only place it is spelled out.

    Trunk (weight, bias) pairs by stage, the subclass head, then the
    superclass heads by structure. Each slot is (checkpoint tensor name,
    FusionModel field, index into that field or None for a single tensor);
    _shapes gives each slot's shape.
    """
    slots = []
    for i in range(stage_count):
        slots += [(f"trunk.{i}.weight", "trunk_weights", i),
                  (f"trunk.{i}.bias", "trunk_biases", i)]
    slots += [("subclass_head.weight", "subclass_weight", None),
              ("subclass_head.bias", "subclass_bias", None)]
    for m in range(head_count):
        slots += [(f"super_head.{m}.weight", "super_weights", m),
                  (f"super_head.{m}.bias", "super_biases", m)]
    return slots


def _shapes(input_dim, stage_dims, subclass_count, attach_stages, superclass_counts):
    """Each _layout slot's shape in a model of these widths: (fan_in,
    fan_out) for a weight, (fan_out,) for a bias."""
    dims = (input_dim, *stage_dims)
    shape_of = {
        "trunk_weights": lambda i: (dims[i], dims[i + 1]),
        "trunk_biases": lambda i: (dims[i + 1],),
        "subclass_weight": lambda _: (dims[-1], subclass_count),
        "subclass_bias": lambda _: (subclass_count,),
        "super_weights": lambda m: (dims[attach_stages[m] + 1], superclass_counts[m]),
        "super_biases": lambda m: (superclass_counts[m],),
    }
    return [shape_of[field](i)
            for _, field, i in _layout(len(stage_dims), len(attach_stages))]


def _parameters(model: FusionModel) -> list[tuple[str, np.ndarray]]:
    """(tensor name, array) for every parameter, in the canonical order."""
    return [
        (name, getattr(model, field) if i is None else getattr(model, field)[i])
        for name, field, i in _layout(model.stage_count, len(model.attach_stages))
    ]


def _parameter_fields(layout, arrays) -> dict:
    """The FusionModel parameter fields holding `arrays`, given in `layout` order."""
    fields = {"super_weights": (), "super_biases": ()}  # a model may have no heads
    for (_, field, i), arr in zip(layout, arrays):
        fields[field] = arr if i is None else fields.get(field, ()) + (arr,)
    return fields


class _Params:
    """Mutable parameters of R same-shaped models, in one (R, P) buffer.

    Row r of `values` holds model r's parameters back to back in the
    canonical layout. Its FusionModel parameter fields (`trunk_weights`,
    ..., `super_biases`) are views into it with the run axis first:
    weights (R, a, b), biases (R, 1, k) so they broadcast over a batch's
    rows. `grads` is a namespace of the same fields as views into a
    second buffer, `grad`, so one gradient step for every run is one
    array update and gradient_check indexes both buffers alike.
    """

    def __init__(self, models):
        first = models[0]
        layout = _layout(first.stage_count, len(first.attach_stages))
        self.values = np.array([
            np.concatenate([arr.ravel() for _, arr in _parameters(model)])
            for model in models
        ])
        self.grad = np.empty_like(self.values)
        stacked = [(1,) + arr.shape if arr.ndim == 1 else arr.shape
                   for _, arr in _parameters(first)]
        for field, views in _parameter_fields(layout, _views(self.values, stacked)).items():
            setattr(self, field, views)
        self.grads = SimpleNamespace(**_parameter_fields(layout, _views(self.grad, stacked)))
        self.attach_stages = first.attach_stages


def _with_values(model: FusionModel, row) -> FusionModel:
    """`model` with its parameters read from `row`, one run's row of a
    _Params buffer."""
    layout = _layout(model.stage_count, len(model.attach_stages))
    shapes = [arr.shape for _, arr in _parameters(model)]
    return replace(model, **_parameter_fields(layout, _views(row, shapes)))


def _views(buffer, shapes) -> list[np.ndarray]:
    """Consecutive views of `buffer`'s last axis, each given one of `shapes`
    after the leading axes."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(buffer[..., start : start + size].reshape(buffer.shape[:-1] + shape))
        start += size
    return views


def _logits(params, x):
    """(trunk activations, subclass logits, list of superclass logits) of
    the batch `x`; the one forward pass.

    `params` is a FusionModel with an (n, d) batch, or a _Params with an
    (R, n, d) stack of batches, one per run: both carry the parameter
    fields and `attach_stages`.
    """
    acts = []
    h = x
    for w, b in zip(params.trunk_weights, params.trunk_biases):
        h = h @ w
        h += b
        np.tanh(h, out=h)
        acts.append(h)
    sub = acts[-1] @ params.subclass_weight
    sub += params.subclass_bias
    supers = []
    for stage, w, b in zip(params.attach_stages, params.super_weights,
                           params.super_biases):
        logits = acts[stage] @ w
        logits += b
        supers.append(logits)
    return acts, sub, supers


def _cross_entropy_grad(logits, labels, offsets, loss):
    """Mean cross-entropy of the softmax, written into `loss`, and its
    gradient in the logits, returned.

    `logits` is (R, n, k) with (R, n) labels; the loss is one number per
    run, so `loss` is an (R,) array. `offsets` holds at least R * n
    multiples of k from 0 (see _Step), where each sample's logits start in
    the flat array. Uses the max-shift log-sum-exp form row by row, so
    adding a constant to all logits of a sample changes nothing (up to
    rounding). Labels must lie in [0, k), as the ids of a FeatureTable and
    the parents of a LabelStructure do: they are gathered by flat index,
    so an out-of-range label would silently read a logit of another sample
    instead of failing.
    """
    n = logits.shape[1]
    # max over a class-major copy: k whole-array maxima, not R * n short rows
    shift = logits.transpose(2, 0, 1).copy().max(axis=0)[..., None]
    exp = logits - shift
    np.exp(exp, out=exp)
    denom = exp.sum(axis=-1, keepdims=True)
    picked = offsets[:labels.size] + labels.ravel()
    lse = np.log(denom).reshape(labels.shape)
    lse += shift.reshape(labels.shape)
    lse -= logits.ravel()[picked].reshape(labels.shape)
    lse.sum(axis=-1, out=loss)
    loss /= n
    exp /= denom
    exp.ravel()[picked] -= 1.0
    exp /= n
    return exp


class _Step:
    """What every training step of the runs `configs` shares, worked out
    once per stack slice.

    `weights` is their (1 + M, R) loss-weight table: row 0 holds each
    run's 1 - lambda_total, row 1 + m its lambda for structure m.
    `scales` are its rows as (R, 1, 1) columns that scale an (R, n, k)
    logit gradient. `offsets`
    holds, for the subclass head and then each superclass head, the flat
    index of each sample's first logit in an (R, batch, k) logit array:
    the multiples of that head's k, of which a smaller last batch uses a
    prefix.
    """

    def __init__(self, configs, model: FusionModel, batch: int):
        self.weights = np.array([(1.0 - c.lambda_total, *c.lambdas) for c in configs]).T
        self.scales = [row[:, None, None] for row in self.weights]
        heads = (model.subclass_count, *model.superclass_counts)
        self.offsets = [np.arange(0, len(configs) * batch * k, k) for k in heads]


def _head_losses(sub_logits, super_logits, y_sub, y_supers, step, losses):
    """Each head's loss of a batch, written into `losses`, and the
    unweighted logit gradients.

    Row 0 of the (1 + M, R) array `losses` gets each run's subclass loss
    and row 1 + m its loss for structure m; returns (subclass logit
    gradient, superclass logit gradients). `step` is the slice's _Step.
    Labels must be pre-validated (see _cross_entropy_grad).
    """
    sub_grad = _cross_entropy_grad(sub_logits, y_sub, step.offsets[0], losses[0])
    grads = [_cross_entropy_grad(logits, labels, offsets, loss)
             for logits, labels, offsets, loss
             in zip(super_logits, y_supers, step.offsets[1:], losses[1:])]
    return sub_grad, grads


def _total_loss(weights, losses):
    """The multi-task loss of head losses `losses` (..., 1 + M, R), laid
    out as _head_losses writes them: weights[0] * subclass + sum_m
    weights[1 + m] * per-structure[m], the terms added in that order, with
    `weights` a _Step's table."""
    return weights[0] * losses[..., 0, :] + sum(
        w * losses[..., 1 + m, :] for m, w in enumerate(weights[1:]))


def _loss_and_grads(params, x, y_sub, y_supers, step, losses):
    """One forward/backward pass of a stack of runs; returns the subclass
    logits.

    `params` is a _Params, `x` the (R, n, d) stack of batches, `y_sub`
    (R, n) and each `y_supers[m]` (R, n); `step` is the runs' _Step, and
    each head's loss goes into `losses` as _head_losses writes it. The
    gradient is written into params.grads. Head
    gradients enter the trunk at their attach stage scaled by their loss
    weight, so a zero-weight head contributes exactly zero, and the
    subclass gradient by its weight, 1 - lambda_total. Each stage's
    activation gradient starts from its first contribution and adds the
    rest in the fixed order subclass head, superclass heads, stage above.
    """
    acts, sub_logits, super_logits = _logits(params, x)
    sub_grad, super_grads = _head_losses(
        sub_logits, super_logits, y_sub, y_supers, step, losses
    )

    d_acts = [None] * len(acts)

    def add_back(stage, back):
        if d_acts[stage] is None:
            d_acts[stage] = back
        else:
            d_acts[stage] += back

    g = params.grads
    sub_grad *= step.scales[0]
    np.matmul(acts[-1].swapaxes(-1, -2), sub_grad, out=g.subclass_weight)
    np.add.reduce(sub_grad, axis=-2, keepdims=True, out=g.subclass_bias)
    d_acts[-1] = sub_grad @ params.subclass_weight.swapaxes(-1, -2)
    for m, stage in enumerate(params.attach_stages):
        scaled = super_grads[m]
        scaled *= step.scales[1 + m]
        np.matmul(acts[stage].swapaxes(-1, -2), scaled, out=g.super_weights[m])
        np.add.reduce(scaled, axis=-2, keepdims=True, out=g.super_biases[m])
        add_back(stage, scaled @ params.super_weights[m].swapaxes(-1, -2))

    for s in range(len(acts) - 1, -1, -1):
        d_pre = acts[s] * acts[s]
        np.subtract(1.0, d_pre, out=d_pre)
        d_pre *= d_acts[s]
        below = acts[s - 1] if s > 0 else x
        np.matmul(below.swapaxes(-1, -2), d_pre, out=g.trunk_weights[s])
        np.add.reduce(d_pre, axis=-2, keepdims=True, out=g.trunk_biases[s])
        if s > 0:
            add_back(s - 1, d_pre @ params.trunk_weights[s].swapaxes(-1, -2))
    return sub_logits


def forward(model: FusionModel, x):
    """(subclass logits, per-structure superclass logits).

    Accepts one d-vector or an (n, d) batch; output shapes follow suit.
    Inputs are numbers by the rule of every array field (config.number_array,
    else InvalidValue) and finite (else NonFiniteValue); a float64, C-ordered
    array is read in place, not copied.
    """
    arr = number_array(x, "inputs", copy=False)
    if not np.isfinite(arr).all():
        raise NonFiniteValue("inputs contain NaN or infinity")
    single = arr.ndim == 1
    arr = np.atleast_2d(arr)
    if arr.ndim != 2 or arr.shape[1] != model.input_dim:
        raise DimensionMismatch(
            f"expected inputs of dimension {model.input_dim}"
        )
    _, sub, supers = _logits(model, arr)
    if single:
        return sub[0], tuple(s[0] for s in supers)
    return sub, tuple(supers)


def train(
    config: FusionConfig, table: FeatureTable, structures: StructureSet, rows=None
) -> tuple[FusionModel, TrainHistory]:
    """Mini-batch gradient descent on the multi-task loss.

    Deterministic for a fixed (config, table, structures): batch order
    comes from a dedicated shuffle stream, updates apply in a fixed
    parameter order. History rows are per-epoch sample means of the batch
    losses (measured before each update) and the running train accuracy.
    With `rows` (see features.row_index), only the table's rows `rows`
    train, bit-equal to training on select_rows(table, rows); None trains
    on every row. The model's subclass head covers the table's name
    table. The one-run case of train_stacked, which does the work.
    """
    return train_stacked([config], [table], [structures], [rows])[0]


def _stack_key(config: FusionConfig, table: FeatureTable, structures: StructureSet,
               rows: np.ndarray):
    """What runs must share to train in one stack.

    The input width, subclass count, stage widths, attach stages and
    superclass counts fix the parameter shapes; the training row count,
    batch size and epochs fix the batch grid.
    """
    return (
        len(rows),
        table.dim,
        len(table.subclass_names),
        config.stage_dims,
        config.attach_stages,
        tuple(s.superclass_count for s in structures),
        config.batch_size,
        config.epochs,
    )


def train_stacked(
    configs, tables, structures, rows=None
) -> list[tuple[FusionModel, TrainHistory]]:
    """Train R runs of any shapes; one (model, history) per run, in order.

    Run r is `configs[r]` trained on rows `rows[r]` of `tables[r]` with
    `structures[r]`, and comes out bit-equal to ``train(configs[r],
    tables[r], structures[r], rows[r])``: its own init, its own shuffle
    stream, its own lambda, lambda shares, learning rate and its table's
    subclass names. A run's rows are a features.row_index, None (or no
    `rows` at all) training on every row, so runs that split one table
    read it in place. Runs that share layout shapes, training row count,
    batch size and epochs (_stack_key) form one stack, trained in one
    pass; the stacks train one after another in order of their first run.
    No training rows is ClassTooSmall, and a batch size at or above the
    training row count trains full batch. Each batch gathers its (R, batch,
    d) rows from the stack's distinct tables (by identity) through a
    per-run order of table rows, so neither an epoch copy nor a training
    side of the rows is made, and a stack that reads one table gathers
    its batch in one call. Labels need no check: each table's ids lie
    inside its name table, which init_model matches to the run's
    structures, and each structure's parents lie inside its head's
    columns.

    A run whose loss turns non-finite is DivergedLoss naming its epoch and
    first sample, and its index in the call when R > 1. Losses are tested
    once an epoch ends, and the other runs of its stack keep training
    until no run earlier in the stack can still diverge, so the error
    names the first diverging run of the first stack that diverges;
    floating-point warnings of a diverging run are not printed.

    Each stack's runs are cut into contiguous slices by
    workers.part_bounds, one per CPU where a fork is safe while each holds
    _MIN_SLICE_WORK, and the slices descend at the same time through
    workers.in_parts: slice 0 in this process, each other slice in a
    forked worker that sends back its rows of the parameter buffer and its
    history tables. Every run does the arithmetic it does in any stack,
    so the split changes no byte, and a lone run never forks. A diverging
    slice raises the error of its first diverging run, and the earliest
    failing slice's error wins, so the error is that of one stack.
    """
    runs = len(configs)
    rows = [None] * runs if rows is None else list(rows)
    if runs == 0 or not runs == len(tables) == len(structures) == len(rows):
        raise InvalidConfig("train_stacked needs one config, table, structure set "
                            "and row index per run")
    rows = [np.arange(table.count) if index is None else index
            for table, index in zip(tables, map(row_index, tables, rows))]
    stacks = {}  # stack key -> the indices of its runs, in call order
    for r, run in enumerate(zip(configs, tables, structures, rows)):
        stacks.setdefault(_stack_key(*run), []).append(r)
    results = {}
    for members in stacks.values():
        results.update(zip(members, _train_stack(
            *([seq[r] for r in members] for seq in (configs, tables, structures, rows)),
            members if runs > 1 else [None],
        )))
    return [results[r] for r in range(runs)]


def _train_stack(configs, tables, structures, rows, indices):
    """train_stacked for runs of one _stack_key; `indices` name them in a
    DivergedLoss: their indices in the call, or [None] for a lone run."""
    runs = len(configs)
    if len(rows[0]) == 0:
        raise ClassTooSmall(0, "empty table has no rows to train on")
    epochs = configs[0].epochs
    if not fits_array(runs, epochs, 3 + configs[0].structure_count):
        raise InvalidConfig(
            f"epochs: {epochs} epochs of history are too many for a numpy array"
        )
    models = [init_model(c, s, t.dim, t.subclass_names)
              for c, t, s in zip(configs, tables, structures)]
    size = sum(arr.size for _, arr in _parameters(models[0]))
    bounds = part_bounds(runs, runs * epochs * len(rows[0]) * size, _MIN_SLICE_WORK)

    def descend(index):
        part = slice(bounds[index], bounds[index + 1])
        return _descend(configs[part], tables[part], structures[part], rows[part],
                        models[part], indices[part])

    values, history = (
        np.concatenate(arrays) for arrays in zip(*in_parts(len(bounds) - 1, descend))
    )
    return [
        (_with_values(model, values[r]),
         TrainHistory(rows=history[r], structure_names=model.structure_names))
        for r, model in enumerate(models)
    ]


def _descend(configs, tables, structures, rows, models, indices):
    """Train the runs `models`, a slice of one stack, each on its `rows`
    of its table; (parameter rows, history tables).

    Row r of each array belongs to run r of the slice: its (P,) parameters
    in the canonical layout and its (epochs, 3 + M) TrainHistory rows. A
    run whose loss turns non-finite is DivergedLoss named by its entry in
    `indices` (see _train_stack).

    A batch's steps only store each head's loss (_head_losses); the epoch
    then totals them, tests the totals and sums every column over its
    batches in batch order, as a running sum would.
    """
    runs = len(configs)
    params = _Params(models)
    heads = configs[0].structure_count
    n = len(rows[0])
    batch, epochs = min(configs[0].batch_size, n), configs[0].epochs
    step = _Step(configs, models[0], batch)
    rates = np.array([[c.learning_rate] for c in configs])
    shuffles = [rng_from_seed(derive_seed(c.seed, _STREAM_SHUFFLE)) for c in configs]
    sides = {}  # each distinct table: its rows and the runs that read them
    for r, table in enumerate(tables):
        sides.setdefault(id(table), (table.features, []))[1].append(r)
    sides = [(features, np.array(members)) for features, members in sides.values()]
    starts = range(0, n, batch)
    sizes = np.array([min(batch, n - start) for start in starts], np.float64)

    history = np.zeros((runs, epochs, 3 + heads))
    # Each run's table rows, then its subclass ids and its superclass ids
    # per head, in batch order.
    order = np.empty((runs, n), dtype=np.int64)
    ys = np.empty((1 + heads, runs, n), dtype=np.int64)
    predicted = np.empty((runs, n), dtype=np.int64)
    losses = np.empty((len(starts), 1 + heads, runs))  # per batch, as _head_losses
    diverged = {}  # run -> (epoch, sample) of its first non-finite loss
    with np.errstate(all="ignore"):
        for epoch in range(epochs):
            for r, (shuffle, table) in enumerate(zip(shuffles, tables)):
                order[r] = rows[r][shuffle.permutation(n)]
                ys[0, r] = table.labels[order[r]]
                for m, structure in enumerate(structures[r]):
                    ys[1 + m, r] = structure.parent_index[ys[0, r]]
            for b, start in enumerate(starts):
                by = ys[:, :, start : start + batch]
                sub_logits = _loss_and_grads(
                    params, _gather(sides, order[:, start : start + batch]), by[0],
                    by[1:], step, losses[b],
                )
                sub_logits.argmax(axis=-1, out=predicted[:, start : start + batch])
                params.grad *= rates
                params.values -= params.grad
            total = _total_loss(step.weights, losses)
            failed = ~np.isfinite(total)
            if failed.any():
                for r in np.flatnonzero(failed.any(axis=0)):
                    diverged.setdefault(int(r), (epoch, starts[failed[:, r].argmax()]))
                if 0 in diverged:  # no earlier run is left to diverge
                    raise _diverged(diverged, indices)
            scaled = np.concatenate([total[:, None], losses], axis=1)
            scaled *= sizes[:, None, None]
            history[:, epoch, :-1] = (np.add.accumulate(scaled)[-1] / n).T
            history[:, epoch, -1] = np.count_nonzero(predicted == ys[0], axis=1) / n
    if diverged:
        raise _diverged(diverged, indices)
    return params.values, history


def _gather(sides, rows) -> np.ndarray:
    """The (R, b, d) batch where run r reads rows[r] of its table; `sides`
    pairs each distinct table's features with the runs that read it. Runs
    that all read one table take one gather."""
    if len(sides) == 1:
        return sides[0][0][rows]
    batch = np.empty(rows.shape + sides[0][0].shape[1:])
    for features, members in sides:
        batch[members] = features[rows[members]]
    return batch


def _diverged(diverged: dict, indices) -> DivergedLoss:
    """The error of the first run in stack order among `diverged`, runs
    of a slice named by `indices`."""
    run = min(diverged)
    return DivergedLoss(*diverged[run], indices[run])


def predict(model: FusionModel, x):
    """Subclass id(s) by argmax of the subclass head; ties go to lower id."""
    sub, _ = forward(model, x)
    if sub.ndim == 1:
        return int(sub.argmax())
    return sub.argmax(axis=1).astype(np.int64)


def gradient_check(
    model: FusionModel,
    table: FeatureTable,
    structures: StructureSet,
    config: FusionConfig,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Each difference steps one parameter by +-`_GRADIENT_STEP`. Checks
    every parameter when the model has at most `_GRADIENT_SAMPLE` of
    them, otherwise a random subset of that size drawn from
    `_GRADIENT_SEED`. The relative error is |g_a - g_n| / max(1, |g_a| +
    |g_n|), so parameters with a true zero gradient are compared on an
    absolute scale. The loss is taken on `table` for a model that
    init_model(config, structures, table.dim, table.subclass_names) could
    draw, else the error of init_model or of the first field that differs.
    """
    if table.count == 0:
        raise ClassTooSmall(0, "empty table has no rows to check")
    fitted = init_model(config, structures, table.dim, table.subclass_names)
    if model.attach_stages != fitted.attach_stages:
        raise InvalidConfig("model and config disagree on attach stages")
    if model.subclass_names != fitted.subclass_names:
        raise SubclassSpaceMismatch("the subclass name table is not the model's")
    for (name, arr), (need, fit) in zip(_parameters(model), _parameters(fitted)):
        if (name, arr.shape) != (need, fit.shape):
            raise DimensionMismatch(f"{name} {arr.shape} is not init_model's {need} {fit.shape}")
    x, y_sub = table.features[None], table.labels[None]
    y_supers = [s.parent_index[y_sub] for s in structures]
    params = _Params([model])
    step = _Step([config], model, table.count)
    losses = np.empty((1 + len(structures), 1))
    _loss_and_grads(params, x, y_sub, y_supers, step, losses)
    values, grad = params.values[0], params.grad[0]

    def total_loss() -> float:
        _, sub, supers = _logits(params, x)
        _head_losses(sub, supers, y_sub, y_supers, step, losses)
        return float(_total_loss(step.weights, losses)[0])

    total = values.size
    if total <= _GRADIENT_SAMPLE:
        chosen = np.arange(total)
    else:
        rng = rng_from_seed(_GRADIENT_SEED)
        chosen = np.sort(rng.choice(total, size=_GRADIENT_SAMPLE, replace=False))

    max_err = 0.0
    for i in chosen:
        original = values[i]
        values[i] = original + _GRADIENT_STEP
        above = total_loss()
        values[i] = original - _GRADIENT_STEP
        below = total_loss()
        values[i] = original
        numeric = (above - below) / (2.0 * _GRADIENT_STEP)
        analytic = grad[i]
        err = abs(analytic - numeric) / max(1.0, abs(analytic) + abs(numeric))
        max_err = max(max_err, err)
    return max_err


# -- checkpoint files --------------------------------------------------------

def _checkpoint_header(model: FusionModel, config: FusionConfig) -> dict:
    """The JSON header of a checkpoint of `model` under `config`: the
    config, name tables and tensor manifest. A config whose stage_dims or
    attach_stages do not describe the model is InvalidConfig."""
    stage_dims = tuple(b.shape[0] for b in model.trunk_biases)
    if (config.stage_dims, config.attach_stages) != (stage_dims, model.attach_stages):
        raise InvalidConfig(f"the config does not describe stage_dims {stage_dims} "
                            f"and attach_stages {model.attach_stages} of the model")
    return {
        # Lists, as the JSON read back holds them, for load_checkpoint's
        # comparison of this header with the one in the file.
        "config": {
            field: list(value) if isinstance(value, tuple) else value
            for field, value in asdict(config).items()
        },
        "input_dim": model.input_dim,
        "subclass_count": model.subclass_count,
        "subclass_names": list(model.subclass_names),
        "structure_names": list(model.structure_names),
        "superclass_counts": list(model.superclass_counts),
        "attach_stages": list(model.attach_stages),
        "tensors": [
            {"name": name, "shape": list(arr.shape)} for name, arr in _parameters(model)
        ],
    }


def save_checkpoint(model: FusionModel, config: FusionConfig, path) -> None:
    """Single-file checkpoint: the serialization.save_frame frame of the
    JSON header (config, name tables, tensor manifest) and each tensor in
    manifest order, the canonical parameter order. Parameters round-trip
    bit-exactly.
    """
    save_frame(path, CHECKPOINT_MAGIC, _checkpoint_header(model, config),
               [arr for _, arr in _parameters(model)])


def _tensor_layout(header) -> list:
    """The (shape, float64) of each tensor the checkpoint `header` lists."""
    manifest = header["tensors"]
    if not (isinstance(manifest, list) and all(isinstance(e, dict) for e in manifest)):
        raise ValueError("tensors must be a list of objects")
    shapes = [config_list(config_int)(e["shape"], "tensor shape") for e in manifest]
    if any(len(shape) not in (1, 2) or min(shape) < 0 for shape in shapes):
        raise ValueError("tensor shapes must be 1 or 2 sizes >= 0")
    return [(shape, np.float64) for shape in shapes]


def load_checkpoint(path) -> tuple[FusionModel, FusionConfig]:
    """Read a checkpoint back; inverse of :func:`save_checkpoint`.

    A file save_checkpoint could not have written is a CheckpointError
    naming `path`: bytes serialization.load_frame refuses (any byte changed
    since it was written), or a header holding a field of the wrong type,
    tensors out of the canonical order, or fields that differ from the
    header of the model and config it holds. Tensors that do not fit
    together are the model's own DimensionMismatch.
    """
    try:
        header, arrays = load_frame(path, CHECKPOINT_MAGIC, _tensor_layout)
        config = FusionConfig(**typed_section(header["config"], "model", FusionConfig))
        attach = config_list(config_int)(header["attach_stages"], "attach_stages")
        layout = _layout(len(arrays) // 2 - 1 - len(attach), len(attach))
        if [entry["name"] for entry in header["tensors"]] != [n for n, _, _ in layout]:
            raise CheckpointError(f"{path}: tensors are not in the canonical order")
        model = FusionModel(
            **_parameter_fields(layout, map(adopt, arrays)),
            attach_stages=attach,
            subclass_names=header["subclass_names"],
            structure_names=header["structure_names"],
        )
        rebuilt = _checkpoint_header(model, config)
    except KeyError as exc:
        raise CheckpointError(f"{path}: missing header field {exc}") from exc
    except (ValueError, InvalidConfig, StructureError) as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    wrong = sorted(k for k in {**header, **rebuilt} if header.get(k) != rebuilt.get(k))
    if wrong:
        raise CheckpointError(f"{path}: header fields {wrong} disagree with its tensors")
    return model, config


def save_history(history: TrainHistory, path) -> None:
    """Per-epoch CSV: the epoch, then `history.rows` (losses: total,
    subclass, one column per structure; train accuracy), floats at 17
    significant digits."""
    columns = ["epoch", "total_loss", "subclass_loss"]
    columns += [f"super_loss_{name}" for name in history.structure_names]
    columns += ["train_accuracy"]
    with atomic_text_writer(path) as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(",".join([str(e), *map(format_float, row)]) + "\n"
                      for e, row in enumerate(history.rows.tolist()))
