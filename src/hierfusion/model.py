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
same field names. One function, `_weighted_loss`, composes the loss above
for training and gradient_check. One canonical parameter
order, `_layout` (trunk stages, the subclass head, then superclass heads),
fixes checkpoint tensors, the flat training buffer and its gradients.

All parameters are float64 arrays; backpropagation is written out by
hand and validated against central finite differences (gradient_check).
Weight init and batch shuffling use independent streams derived from the
config seed, so a model trained with lambda 0 walks the same trunk and
subclass-head trajectory as one trained with no structures at all.

Training steps a stack of R runs at once (train_stacked): the flat buffer
gains a leading run axis, so weights are (R, a, b) views, biases (R, 1, k)
views, a batch is (R, n, d), and lambda, the per-head lambda shares and
the learning rate are per-run vectors. Each stacked matmul, softmax and
bias sum does per run exactly the arithmetic of a lone run, so every run
of a stack is bit-equal to training it alone; `train` is the R = 1 case.
Runs stack when they share layout shapes, row count, batch size and
epochs (stack_key); each keeps its own init and shuffle streams.

A stack with enough work trains on every core: its run axis is cut into
contiguous slices, one per CPU while each holds _MIN_SLICE_WORK, that
descend at the same time through the shared fork helper
(workers.in_parts), slice 0 here and each other slice in a forked
worker. `_descend` trains one slice and returns plain arrays, its rows
of the (R, P) buffer and its history; train_stacked builds every
FusionModel and TrainHistory from them in this process. Since every run
is bit-equal to training it alone, the slicing changes no byte.

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
from .features import FeatureTable
from .rng import derive_seed, rng_from_seed
from .serialization import atomic_text_writer, load_frame, save_frame
from .taxonomy import StructureSet
from .workers import in_parts, worker_count

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
        trunk_w, trunk_b = self.trunk_weights, self.trunk_biases
        if not trunk_w or len(trunk_w) != len(trunk_b):
            raise DimensionMismatch("trunk weights and biases must pair up")
        for i, (w, b) in enumerate(zip(trunk_w, trunk_b)):
            if w.shape[1] != b.shape[0]:
                raise DimensionMismatch(f"stage {i} bias width mismatch")
            if i and trunk_w[i - 1].shape[1] != w.shape[0]:
                raise DimensionMismatch(f"stage {i} input width mismatch")
        sub_w, sub_b = self.subclass_weight, self.subclass_bias
        if sub_w.shape[0] != trunk_w[-1].shape[1] or sub_w.shape[1] != sub_b.shape[0]:
            raise DimensionMismatch("subclass head dimensions mismatch")
        sup_w, sup_b, attach = self.super_weights, self.super_biases, self.attach_stages
        if not len(sup_w) == len(sup_b) == len(attach) == len(self.structure_names):
            raise DimensionMismatch("one head, stage, and name per structure")
        for m, (w, b, s) in enumerate(zip(sup_w, sup_b, attach)):
            if not 0 <= s < len(trunk_w):
                raise DimensionMismatch(f"head {m} attach stage {s} out of range")
            if w.shape[0] != trunk_w[s].shape[1] or w.shape[1] != b.shape[0]:
                raise DimensionMismatch(f"head {m} dimensions mismatch")
        if sub_w.shape[1] != len(self.subclass_names):
            raise DimensionMismatch("one subclass name per output column")
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
    """Per-epoch loss components and training accuracy."""

    total_loss: Annotated[np.ndarray, _VECTOR]
    subclass_loss: Annotated[np.ndarray, _VECTOR]
    super_losses: Annotated[np.ndarray, _MATRIX]
    train_accuracy: Annotated[np.ndarray, _VECTOR]
    structure_names: Annotated[tuple[str, ...], config_list(config_name)]

    def __post_init__(self):
        type_fields(self)
        epochs = {len(a) for a in (self.total_loss, self.subclass_loss,
                                   self.super_losses, self.train_accuracy)}
        if len(epochs) != 1:
            raise DimensionMismatch("history arrays must share the epoch count")
        if self.super_losses.shape[1] != len(self.structure_names):
            raise DimensionMismatch("one loss column per structure")

    @property
    def epochs(self) -> int:
        return self.total_loss.shape[0]


def init_model(
    config: FusionConfig, structures: StructureSet, input_dim: int, subclass_names
) -> FusionModel:
    """Fresh parameters: weights uniform in +-1/sqrt(fan_in), biases zero.

    The subclass head has one output per entry of `subclass_names`, which
    must be the structures' name table when there are structures.
    Deterministic for a fixed config.seed. Draw order is trunk stages in
    order, then the subclass head, then superclass heads in structure
    order, so models that share a prefix of that list share those draws.
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

    def draw(fan_in, fan_out):
        if not fits_array(fan_in, fan_out):
            raise InvalidConfig(
                f"stage_dims: a {fan_in} x {fan_out} weight matrix is too large "
                "for a numpy array"
            )
        scale = 1.0 / math.sqrt(fan_in)
        return rng.uniform(-scale, scale, size=(fan_in, fan_out))

    dims = (int(input_dim),) + config.stage_dims
    trunk_w = [draw(dims[i], dims[i + 1]) for i in range(len(config.stage_dims))]
    trunk_b = [np.zeros(d) for d in config.stage_dims]
    sub_w = draw(config.stage_dims[-1], subclass_count)
    sub_b = np.zeros(subclass_count)
    sup_w = [
        draw(config.stage_dims[stage], structures[m].superclass_count)
        for m, stage in enumerate(config.attach_stages)
    ]
    sup_b = [np.zeros(structures[m].superclass_count) for m in range(len(structures))]
    model = FusionModel(
        trunk_weights=tuple(trunk_w),
        trunk_biases=tuple(trunk_b),
        subclass_weight=sub_w,
        subclass_bias=sub_b,
        super_weights=tuple(sup_w),
        super_biases=tuple(sup_b),
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
    FusionModel field, index into that field or None for a single tensor).
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


def _parameters(model: FusionModel) -> list[tuple[str, np.ndarray]]:
    """(tensor name, array) for every parameter, in the canonical order."""
    return [
        (name, getattr(model, field) if i is None else getattr(model, field)[i])
        for name, field, i in _layout(model.stage_count, len(model.attach_stages))
    ]


def _parameter_fields(layout, arrays) -> dict:
    """The FusionModel parameter fields holding `arrays`, given in `layout` order."""
    fields = dict.fromkeys(
        ("trunk_weights", "trunk_biases", "super_weights", "super_biases"), ()
    )
    for (_, field, i), arr in zip(layout, arrays):
        fields[field] = arr if i is None else fields[field] + (arr,)
    return fields


class _Fields:
    """A dict of FusionModel parameter fields as plain attributes.

    They are set one at a time rather than through vars(), which keeps
    CPython's fast attribute reads; the training step makes some twenty
    of them per batch.
    """

    def __init__(self, fields: dict):
        for name, value in fields.items():
            setattr(self, name, value)


class _Params(_Fields):
    """Mutable parameters of R same-shaped models, in one (R, P) buffer.

    Row r of `values` holds model r's parameters back to back in the
    canonical layout. The fields (`trunk_weights`, ..., `super_biases`)
    are views into it with the run axis first: weights (R, a, b), biases
    (R, 1, k) so they broadcast over a batch's rows; `fields` maps their
    names to those views. `grads` carries the same fields as views into a
    second buffer, `grad`, so one gradient step for every run is one array
    update and gradient_check indexes both buffers alike.
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
        self.fields = _parameter_fields(layout, _views(self.values, stacked))
        self.grads = _Fields(_parameter_fields(layout, _views(self.grad, stacked)))
        self.attach_stages = first.attach_stages
        super().__init__(self.fields)


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


def _cross_entropy_grad(logits, labels):
    """Mean cross-entropy of the softmax and its gradient in the logits.

    `logits` is (R, n, k) with (R, n) labels; the loss is one number per
    run. Uses the max-shift log-sum-exp form row by row, so adding a
    constant to all logits of a sample changes nothing (up to rounding).
    Labels must lie in [0, k), as the ids of a FeatureTable and the
    parents of a LabelStructure do: they are gathered by flat index, so an
    out-of-range label would silently read a logit of another sample
    instead of failing.
    """
    _, n, k = logits.shape
    # max over a class-major copy: k whole-array maxima, not R * n short rows
    shift = logits.transpose(2, 0, 1).copy().max(axis=0)[..., None]
    exp = logits - shift
    np.exp(exp, out=exp)
    denom = exp.sum(axis=-1, keepdims=True)
    picked = np.arange(0, logits.size, k) + labels.ravel()
    lse = np.log(denom).reshape(labels.shape)
    lse += shift.reshape(labels.shape)
    lse -= logits.ravel()[picked].reshape(labels.shape)
    loss = lse.sum(axis=-1) / n
    exp /= denom
    exp.ravel()[picked] -= 1.0
    exp /= n
    return loss, exp


def _weighted_loss(sub_logits, super_logits, y_sub, y_supers, lambdas, lam):
    """The multi-task loss of a batch and the unweighted logit gradients.

    Returns ((total, subclass loss, per-structure losses), subclass logit
    gradient, superclass logit gradients), where total is
    (1 - lam) * subclass + sum_m lambdas[m] * per-structure[m]. For a
    stack of R runs, `lam`, each `lambdas[m]` and every loss are (R,)
    vectors. Labels must be pre-validated (see _cross_entropy_grad).
    """
    sub_loss, sub_grad = _cross_entropy_grad(sub_logits, y_sub)
    per, grads = [], []
    for logits, labels in zip(super_logits, y_supers):
        loss_m, grad_m = _cross_entropy_grad(logits, labels)
        per.append(loss_m)
        grads.append(grad_m)
    total = (1.0 - lam) * sub_loss + sum(w * v for w, v in zip(lambdas, per))
    return (total, sub_loss, per), sub_grad, grads


def _gradient_scales(lambdas, lam):
    """(1 - lam, [lambdas[m], ...]) shaped to scale (R, n, k) logit
    gradients run by run, from numbers or (R,) vectors; made once per
    stack rather than once per batch."""
    return [np.reshape(w, np.shape(w) + (1, 1)) for w in (1.0 - lam, *lambdas)]


def _loss_and_grads(params, x, y_sub, y_supers, lambdas, lam, scales):
    """One forward/backward pass of a stack of runs; returns (losses, sub_logits).

    `params` is a _Params, `x` the (R, n, d) stack of batches, `y_sub`
    (R, n) and each `y_supers[m]` (R, n); `lam` and each `lambdas[m]`
    hold one weight per run, and `scales` is their _gradient_scales.
    `losses` is (total, subclass, per-structure list), each an (R,)
    vector; the gradient is written into params.grads. Head gradients
    enter the trunk at their attach stage scaled by their loss weight, so
    a zero-weight head contributes exactly zero. `lam` is the total weight
    taken from the subclass term. Each stage's activation gradient starts
    from its first contribution and adds the rest in the fixed order
    subclass head, superclass heads, stage above.
    """
    acts, sub_logits, super_logits = _logits(params, x)
    losses, sub_grad, super_grads = _weighted_loss(
        sub_logits, super_logits, y_sub, y_supers, lambdas, lam
    )

    d_acts = [None] * len(acts)

    def add_back(stage, back):
        if d_acts[stage] is None:
            d_acts[stage] = back
        else:
            d_acts[stage] += back

    g = params.grads
    sub_grad *= scales[0]
    np.matmul(acts[-1].swapaxes(-1, -2), sub_grad, out=g.subclass_weight)
    np.add.reduce(sub_grad, axis=-2, keepdims=True, out=g.subclass_bias)
    d_acts[-1] = sub_grad @ params.subclass_weight.swapaxes(-1, -2)
    for m, stage in enumerate(params.attach_stages):
        scaled = super_grads[m]
        scaled *= scales[1 + m]
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
    return losses, sub_logits


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
    config: FusionConfig, table: FeatureTable, structures: StructureSet
) -> tuple[FusionModel, TrainHistory]:
    """Mini-batch gradient descent on the multi-task loss.

    Deterministic for a fixed (config, table, structures): batch order
    comes from a dedicated shuffle stream, updates apply in a fixed
    parameter order. History rows are per-epoch sample means of the batch
    losses (measured before each update) and the running train accuracy.
    The model's subclass head covers the table's name table. The one-run
    case of train_stacked, which does the work.
    """
    return train_stacked([config], [table], [structures])[0]


def stack_key(config: FusionConfig, table: FeatureTable, structures: StructureSet):
    """What runs must share to train in one train_stacked pass.

    The input width, subclass count, stage widths, attach stages and
    superclass counts fix the parameter shapes; the row count, batch size
    and epochs fix the batch grid.
    """
    return (
        table.count,
        table.dim,
        len(table.subclass_names),
        config.stage_dims,
        config.attach_stages,
        tuple(s.superclass_count for s in structures),
        config.batch_size,
        config.epochs,
    )


def train_stacked(configs, tables, structures) -> list[tuple[FusionModel, TrainHistory]]:
    """Train R runs in one pass; one (model, history) per run, in order.

    Run r is `configs[r]` trained on `tables[r]` with `structures[r]`, and
    comes out bit-equal to ``train(configs[r], tables[r], structures[r])``:
    its own init, its own shuffle stream, its own lambda, lambda shares,
    learning rate and its table's subclass names. The runs must share
    stack_key, else InvalidConfig; an empty table is ClassTooSmall. Each
    batch gathers its (R, batch, d) rows from the distinct tables (by
    identity) through a per-run row order, so no epoch copy of the rows is
    made. Labels need no check: each table's ids lie inside its name
    table, which init_model matches to the run's structures, and each
    structure's parents lie inside its head's columns.

    A run whose loss turns non-finite is DivergedLoss naming its epoch and
    first sample, and its index when R > 1. The other runs keep training
    until no run earlier in the stack can still diverge, so the error
    names the first diverging run in stack order; floating-point warnings
    of a diverging run are not printed.

    The runs are cut into contiguous slices, one per part that
    workers.worker_count allows (one per CPU where a fork is safe) while
    each holds _MIN_SLICE_WORK, and the slices descend at the same time
    through workers.in_parts: slice 0 in this process, each other slice
    in a forked worker that sends back its rows of the parameter buffer
    and its history arrays. Every run does the arithmetic it does in any
    stack, so the split changes no byte, and a lone run never forks. A
    diverging slice raises the error of its first diverging run by its
    index in the whole stack, and the earliest failing slice's error
    wins, so the error is that of one stack.
    """
    runs = len(configs)
    if runs == 0 or not runs == len(tables) == len(structures):
        raise InvalidConfig("a stack needs one config, table and structure set per run")
    if len({stack_key(c, t, s) for c, t, s in zip(configs, tables, structures)}) > 1:
        raise InvalidConfig(
            "stacked runs must share layout shapes, training rows, batch size and epochs"
        )
    if tables[0].count == 0:
        raise ClassTooSmall(0, "empty table has no rows to train on")
    epochs = configs[0].epochs
    if not fits_array(runs, epochs, max(1, configs[0].structure_count)):
        raise InvalidConfig(
            f"epochs: {epochs} epochs of history are too many for a numpy array"
        )
    models = [init_model(c, s, t.dim, t.subclass_names)
              for c, t, s in zip(configs, tables, structures)]
    size = sum(arr.size for _, arr in _parameters(models[0]))
    work = runs * configs[0].epochs * tables[0].count * size
    slices = max(1, min(runs, worker_count(), work // _MIN_SLICE_WORK))
    bounds = [runs * i // slices for i in range(slices + 1)]

    def descend(index):
        part = slice(bounds[index], bounds[index + 1])
        return _descend(configs[part], tables[part], structures[part], models[part],
                        bounds[index], runs)

    values, hist_total, hist_sub, hist_super, hist_acc = (
        np.concatenate(arrays) for arrays in zip(*in_parts(slices, descend))
    )
    return [
        (
            _with_values(model, values[r]),
            TrainHistory(
                total_loss=hist_total[r],
                subclass_loss=hist_sub[r],
                super_losses=hist_super[r],
                train_accuracy=hist_acc[r],
                structure_names=model.structure_names,
            ),
        )
        for r, model in enumerate(models)
    ]


def _descend(configs, tables, structures, models, offset: int, stack: int):
    """Train the runs `models`, runs offset.. of a stack of `stack` runs;
    (parameter rows, total, subclass, per-structure losses, accuracy).

    Row r of each array belongs to run r of the slice: its (P,) parameters
    in the canonical layout and its per-epoch history. A run whose loss
    turns non-finite is DivergedLoss named by its index in the whole stack.
    """
    runs = len(configs)
    params = _Params(models)
    heads = configs[0].structure_count
    n = tables[0].count
    batch, epochs = configs[0].batch_size, configs[0].epochs
    lam = np.array([c.lambda_total for c in configs])
    lambdas = np.array([c.lambdas for c in configs]).reshape(runs, heads).T
    scales = _gradient_scales(lambdas, lam)
    steps = list(zip(params.grad, [c.learning_rate for c in configs]))
    shuffles = [rng_from_seed(derive_seed(c.seed, _STREAM_SHUFFLE)) for c in configs]
    sides = {}  # each distinct table: its rows and the runs that read them
    for r, table in enumerate(tables):
        sides.setdefault(id(table), (table.features, []))[1].append(r)
    sides = [(features, np.array(members)) for features, members in sides.values()]

    hist_total = np.zeros((runs, epochs))
    hist_sub = np.zeros((runs, epochs))
    hist_super = np.zeros((runs, epochs, heads))
    hist_acc = np.zeros((runs, epochs))
    order = np.empty((runs, n), dtype=np.int64)
    # Each run's subclass ids, then its superclass ids per head, in batch order.
    ys = np.empty((1 + heads, runs, n), dtype=np.int64)
    predicted = np.empty((runs, n), dtype=np.int64)
    diverged = {}  # run -> (epoch, sample) of its first non-finite loss
    with np.errstate(all="ignore"):
        for epoch in range(epochs):
            for r, (shuffle, table) in enumerate(zip(shuffles, tables)):
                order[r] = shuffle.permutation(n)
                ys[0, r] = table.labels[order[r]]
                for m, structure in enumerate(structures[r]):
                    ys[1 + m, r] = structure.parent_index[ys[0, r]]
            total_sum = np.zeros(runs)
            sub_sum = np.zeros(runs)
            super_sums = np.zeros((heads, runs))
            for start in range(0, n, batch):
                rows = order[:, start : start + batch]
                size = rows.shape[1]
                by = ys[:, :, start : start + batch]
                (total, sub_loss, per), sub_logits = _loss_and_grads(
                    params, _gather(sides, rows), by[0], by[1:], lambdas, lam, scales
                )
                if not math.isfinite(total.sum()):  # one test for every run
                    finite = np.isfinite(total)
                    for r in np.flatnonzero(~finite):
                        diverged.setdefault(int(r), (epoch, start))
                    if 0 in diverged:  # no earlier run is left to diverge
                        raise _diverged(diverged, offset, stack)
                sub_logits.argmax(axis=-1, out=predicted[:, start : start + batch])
                total_sum += total * size
                sub_sum += sub_loss * size
                for m, loss_m in enumerate(per):
                    super_sums[m] += loss_m * size
                for grad, rate in steps:
                    grad *= rate
                params.values -= params.grad
            hist_total[:, epoch] = total_sum / n
            hist_sub[:, epoch] = sub_sum / n
            hist_super[:, epoch] = (super_sums / n).T
            hist_acc[:, epoch] = np.count_nonzero(predicted == ys[0], axis=1) / n
    if diverged:
        raise _diverged(diverged, offset, stack)
    return params.values, hist_total, hist_sub, hist_super, hist_acc


def _gather(sides, rows) -> np.ndarray:
    """The (R, b, d) batch where run r reads rows[r] of its table; `sides`
    pairs each distinct table's features with the runs that read it."""
    if len(sides) == 1:
        return sides[0][0][rows]
    batch = np.empty(rows.shape + sides[0][0].shape[1:])
    for features, members in sides:
        batch[members] = features[rows[members]]
    return batch


def _diverged(diverged: dict, offset: int, stack: int) -> DivergedLoss:
    """The error of the first run in stack order among `diverged`, the
    runs of a slice starting at run `offset` of a `stack`-run stack."""
    run = min(diverged)
    return DivergedLoss(*diverged[run], offset + run if stack > 1 else None)


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
    absolute scale. The loss is taken on `table`, which, like the
    structures, must match the model's input width, names and heads.
    """
    if len(structures) != config.structure_count:
        raise InvalidConfig(
            f"config expects {config.structure_count} structures, got {len(structures)}"
        )
    if model.attach_stages != config.attach_stages:
        raise InvalidConfig("model and config disagree on attach stages")
    if table.count == 0:
        raise ClassTooSmall(0, "empty table has no rows to check")
    if table.dim != model.input_dim:
        raise DimensionMismatch(f"table dimension {table.dim}, model {model.input_dim}")
    if {table.subclass_names, *(s.subclass_names for s in structures)} != {
            model.subclass_names}:
        raise SubclassSpaceMismatch("the subclass name table is not the model's")
    if tuple(s.superclass_count for s in structures) != model.superclass_counts:
        raise DimensionMismatch("superclass counts differ from the model's heads")
    x, y_sub = table.features[None], table.labels[None]
    y_supers = [s.parent_index[y_sub] for s in structures]
    lambdas, lam = config.lambdas, config.lambda_total
    params = _Params([model])
    _loss_and_grads(params, x, y_sub, y_supers, lambdas, lam,
                    _gradient_scales(lambdas, lam))
    values, grad = params.values[0], params.grad[0]

    def total_loss() -> float:
        _, sub, supers = _logits(params, x)
        return float(_weighted_loss(sub, supers, y_sub, y_supers, lambdas, lam)[0][0][0])

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
    """Per-epoch CSV: losses (total, subclass, one column per structure)
    and train accuracy, floats at 17 significant digits."""
    columns = ["epoch", "total_loss", "subclass_loss"]
    columns += [f"super_loss_{name}" for name in history.structure_names]
    columns += ["train_accuracy"]
    rows = np.column_stack((history.total_loss, history.subclass_loss,
                            history.super_losses, history.train_accuracy))
    row_format = "%d" + ",%.17g" * rows.shape[1] + "\n"
    with atomic_text_writer(path) as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(row_format % (e, *row) for e, row in enumerate(rows.tolist()))
