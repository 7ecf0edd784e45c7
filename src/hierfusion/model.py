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
for multi_task_loss, training and gradient_check. One canonical parameter
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
"""

import json
import math
import struct
from dataclasses import asdict, dataclass, replace
from typing import Annotated

import numpy as np

from .config import (
    config_int,
    config_list,
    config_optional,
    config_real,
    config_seed,
    config_str,
    frozen_array,
    type_fields,
    typed_section,
)
from .exceptions import (
    CheckpointError,
    ClassTooSmall,
    DimensionMismatch,
    DivergedLoss,
    InvalidConfig,
    LabelOutOfRange,
    NonFiniteValue,
    SubclassSpaceMismatch,
)
from .features import FeatureTable
from .rng import derive_seed, rng_from_seed
from .serialization import atomic_text_writer, dump_json, format_float
from .taxonomy import StructureSet

CHECKPOINT_MAGIC = b"hierfusion-checkpoint-v1\n"

# Sub-streams under config.seed. Keeping the shuffle stream separate from
# init means adding or removing superclass heads never shifts the batch
# order, which is what makes the lambda=0 trajectory identity testable.
_STREAM_INIT = 0
_STREAM_SHUFFLE = 1


@dataclass(frozen=True)
class FusionConfig:
    """Architecture and training hyperparameters.

    `attach_stages` lists, per structure, the 0-based trunk stage whose
    activation feeds that structure's superclass head; its length is the
    number of structures the model expects. `lambda_split` divides
    `lambda_total` across structures; None means an equal split.
    """

    stage_dims: Annotated[tuple[int, ...], config_list(config_int)] = (32, 16)
    attach_stages: Annotated[tuple[int, ...], config_list(config_int)] = ()
    lambda_total: Annotated[float, config_real] = 0.0
    lambda_split: Annotated[
        tuple[float, ...] | None, config_optional(config_list(config_real))
    ] = None
    learning_rate: Annotated[float, config_real] = 0.1
    epochs: Annotated[int, config_int] = 50
    batch_size: Annotated[int, config_int] = 32
    seed: Annotated[int, config_seed] = 0

    def __post_init__(self):
        type_fields(self)
        stage_dims, attach_stages = self.stage_dims, self.attach_stages
        if len(stage_dims) < 2:
            raise InvalidConfig("the trunk needs at least 2 stages")
        if min(stage_dims) < 1:
            raise InvalidConfig("stage widths must be >= 1")
        if not 0.0 <= self.lambda_total < 1.0:
            raise InvalidConfig(
                f"lambda_total must lie in [0, 1), got {self.lambda_total}"
            )
        for s in attach_stages:
            if not 0 <= s < len(stage_dims):
                raise InvalidConfig(
                    f"attach stage {s} outside [0, {len(stage_dims)})"
                )
        split = self.lambda_split
        if split is not None:
            if len(split) != len(attach_stages):
                raise InvalidConfig(
                    f"{len(split)} lambda shares for {len(attach_stages)} heads"
                )
            if split and min(split) < 0.0:
                raise InvalidConfig("lambda shares must be >= 0")
            if abs(sum(split) - self.lambda_total) > 1e-12:
                raise InvalidConfig("lambda shares must sum to lambda_total")
        if not attach_stages and self.lambda_total != 0.0:
            raise InvalidConfig("positive lambda_total needs at least one head")
        if self.learning_rate <= 0.0:
            raise InvalidConfig("learning_rate must be > 0")
        if self.epochs < 1:
            raise InvalidConfig("epochs must be >= 1")
        if self.batch_size < 1:
            raise InvalidConfig("batch_size must be >= 1")

    @property
    def structure_count(self) -> int:
        return len(self.attach_stages)

    @property
    def lambdas(self) -> tuple[float, ...]:
        """Per-structure loss weights; an equal split unless overridden."""
        if self.lambda_split is not None:
            return self.lambda_split
        m = len(self.attach_stages)
        if m == 0:
            return ()
        return (self.lambda_total / m,) * m


_VECTOR = frozen_array(np.float64, 1)
_MATRIX = frozen_array(np.float64, 2)


@dataclass(frozen=True)
class FusionModel:
    """An immutable parameter snapshot plus the name tables to apply it."""

    trunk_weights: Annotated[tuple[np.ndarray, ...], config_list(_MATRIX)]
    trunk_biases: Annotated[tuple[np.ndarray, ...], config_list(_VECTOR)]
    subclass_weight: Annotated[np.ndarray, _MATRIX]
    subclass_bias: Annotated[np.ndarray, _VECTOR]
    super_weights: Annotated[tuple[np.ndarray, ...], config_list(_MATRIX)]
    super_biases: Annotated[tuple[np.ndarray, ...], config_list(_VECTOR)]
    attach_stages: Annotated[tuple[int, ...], config_list(config_int)]
    subclass_names: Annotated[tuple[str, ...], config_list(config_str)]
    structure_names: Annotated[tuple[str, ...], config_list(config_str)]

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


@dataclass(frozen=True)
class TrainHistory:
    """Per-epoch loss components and training accuracy."""

    total_loss: Annotated[np.ndarray, _VECTOR]
    subclass_loss: Annotated[np.ndarray, _VECTOR]
    super_losses: Annotated[np.ndarray, _MATRIX]
    train_accuracy: Annotated[np.ndarray, _VECTOR]
    structure_names: Annotated[tuple[str, ...], config_list(config_str)]

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


@dataclass(frozen=True)
class LossBreakdown:
    """Total training loss and its weighted components."""

    total: float
    subclass: float
    per_structure: tuple[float, ...]


def init_model(
    config: FusionConfig,
    subclass_count: int,
    structures: StructureSet,
    input_dim: int,
    *,
    subclass_names=None,
) -> FusionModel:
    """Fresh parameters: weights uniform in +-1/sqrt(fan_in), biases zero.

    Deterministic for a fixed config.seed. Draw order is trunk stages in
    order, then the subclass head, then superclass heads in structure
    order, so models that share a prefix of that list share those draws.
    """
    if len(structures) != config.structure_count:
        raise InvalidConfig(
            f"config expects {config.structure_count} structures, got {len(structures)}"
        )
    if subclass_count < 2:
        raise InvalidConfig("need at least 2 subclasses")
    if input_dim < 1:
        raise InvalidConfig("input_dim must be >= 1")
    if len(structures) and structures.subclass_count != subclass_count:
        raise SubclassSpaceMismatch(
            f"structures cover {structures.subclass_count} subclasses, "
            f"model head has {subclass_count}"
        )
    if subclass_names is None:
        if len(structures):
            subclass_names = structures.subclass_names
        else:
            subclass_names = tuple(f"c{i}" for i in range(subclass_count))
    subclass_names = tuple(subclass_names)
    if len(structures) and subclass_names != structures.subclass_names:
        raise SubclassSpaceMismatch("subclass_names disagree with the structures")

    rng = rng_from_seed(derive_seed(config.seed, _STREAM_INIT))

    def draw(fan_in, fan_out):
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
    return FusionModel(
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
        self.layout = _layout(first.stage_count, len(first.attach_stages))
        self.shapes = [arr.shape for _, arr in _parameters(first)]
        self.values = np.array([
            np.concatenate([arr.ravel() for _, arr in _parameters(model)])
            for model in models
        ])
        self.grad = np.empty_like(self.values)
        stacked = [(1,) + shape if len(shape) == 1 else shape for shape in self.shapes]
        self.fields = _parameter_fields(self.layout, _views(self.values, stacked))
        self.grads = _Fields(_parameter_fields(self.layout, _views(self.grad, stacked)))
        self.attach_stages = first.attach_stages
        super().__init__(self.fields)

    def run_fields(self, run: int) -> dict:
        """The FusionModel parameter fields of one run, as views of its row."""
        return _parameter_fields(self.layout, _views(self.values[run], self.shapes))


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


def _check_labels(labels, k: int) -> None:
    if labels.min() < 0 or labels.max() >= k:
        raise LabelOutOfRange(f"labels must lie in [0, {k})")


def _cross_entropy_grad(logits, labels):
    """Mean cross-entropy of the softmax and its gradient in the logits.

    `logits` is (n, k) with n labels, or (R, n, k) with (R, n) labels;
    the loss is a number, or one per run. Uses the max-shift log-sum-exp
    form row by row, so adding a constant to all logits of a sample
    changes nothing (up to rounding). Labels must be pre-validated to lie
    in [0, k) (see _check_labels): they are gathered by flat index, so an
    out-of-range label would silently read a logit of another sample
    instead of failing.
    """
    n, k = logits.shape[-2:]
    shift = logits.max(axis=-1, keepdims=True)
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


def _per_run(weight):
    """A per-run weight (a number, or an (R,) vector) shaped to scale
    (n, k) or (R, n, k) logit gradients run by run."""
    return np.reshape(weight, np.shape(weight) + (1, 1))


def _loss_and_grads(params, x, y_sub, y_supers, lambdas, lam):
    """One forward/backward pass of a stack of runs; returns (losses, sub_logits).

    `params` is a _Params, `x` the (R, n, d) stack of batches, `y_sub`
    (R, n) and each `y_supers[m]` (R, n); `lam` and each `lambdas[m]`
    hold one weight per run. `losses` is (total, subclass, per-structure
    list), each an (R,) vector; the gradient is written into params.grads.
    Head gradients enter the trunk at their attach stage scaled by their
    loss weight, so a zero-weight head contributes exactly zero. `lam` is
    the total weight taken from the subclass term. Each stage's activation
    gradient starts from its first contribution and adds the rest in the
    fixed order subclass head, superclass heads, stage above.
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
    sub_grad *= _per_run(1.0 - lam)
    np.matmul(acts[-1].swapaxes(-1, -2), sub_grad, out=g.subclass_weight)
    np.add.reduce(sub_grad, axis=-2, keepdims=True, out=g.subclass_bias)
    d_acts[-1] = sub_grad @ params.subclass_weight.swapaxes(-1, -2)
    for m, stage in enumerate(params.attach_stages):
        scaled = super_grads[m]
        scaled *= _per_run(lambdas[m])
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
    """
    arr = np.asarray(x, dtype=np.float64)
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


def multi_task_loss(outputs, subclass_labels, superclass_labels, config) -> LossBreakdown:
    """Weighted sum of head cross-entropies, averaged over the batch.

    `outputs` is a forward() result in batch form. The breakdown reports
    the unweighted component losses next to the weighted total, so
    total = (1 - lambda_total) * subclass + sum_m lambda_m * per_structure[m].
    """
    sub_logits, super_logits = outputs
    if len(super_logits) != len(config.lambdas):
        raise InvalidConfig(
            f"{len(super_logits)} head outputs for {len(config.lambdas)} loss weights"
        )
    if len(superclass_labels) != len(super_logits):
        raise DimensionMismatch(
            f"{len(superclass_labels)} label vectors for "
            f"{len(super_logits)} head outputs"
        )
    logits = [np.atleast_2d(np.asarray(a, dtype=np.float64))
              for a in (sub_logits, *super_logits)]
    labels = [np.atleast_1d(np.asarray(y, dtype=np.int64))
              for y in (subclass_labels, *superclass_labels)]
    for head_logits, head_labels in zip(logits, labels):
        if head_labels.shape != head_logits.shape[:1]:
            raise DimensionMismatch("one label per row of head logits")
        _check_labels(head_labels, head_logits.shape[1])
    (total, sub_loss, per), _, _ = _weighted_loss(
        logits[0], logits[1:], labels[0], labels[1:], config.lambdas,
        config.lambda_total,
    )
    return LossBreakdown(
        total=float(total),
        subclass=float(sub_loss),
        per_structure=tuple(float(v) for v in per),
    )


def train(
    config: FusionConfig,
    table: FeatureTable,
    structures: StructureSet,
    *,
    subclass_names=None,
) -> tuple[FusionModel, TrainHistory]:
    """Mini-batch gradient descent on the multi-task loss.

    Deterministic for a fixed (config, table, structures): batch order
    comes from a dedicated shuffle stream, updates apply in a fixed
    parameter order. History rows are per-epoch sample means of the batch
    losses (measured before each update) and the running train accuracy.
    The one-run case of train_stacked, which does the work.
    """
    return train_stacked(
        [config], [table], [structures], subclass_names=subclass_names
    )[0]


def stack_key(config: FusionConfig, table: FeatureTable, structures: StructureSet):
    """What runs must share to train in one train_stacked pass.

    The input width, stage widths, attach stages and superclass counts
    fix the parameter shapes; the row count, batch size and epochs fix
    the batch grid. Runs must also agree on the subclass count, which
    train_stacked checks once each run's names are resolved.
    """
    return (
        table.count,
        table.dim,
        config.stage_dims,
        config.attach_stages,
        tuple(s.superclass_count for s in structures),
        config.batch_size,
        config.epochs,
    )


def _init_run(config, table, structures, subclass_names) -> FusionModel:
    """A run's initial model, after checking its table and labels."""
    if table.count == 0:
        raise ClassTooSmall(0, "empty table has no rows to train on")
    if len(structures):
        subclass_count = structures.subclass_count
    elif subclass_names is not None:
        subclass_count = len(tuple(subclass_names))
    else:
        subclass_count = int(table.labels.max()) + 1
    _check_labels(table.labels, subclass_count)
    return init_model(
        config, subclass_count, structures, table.dim, subclass_names=subclass_names
    )


def train_stacked(
    configs, tables, structures, *, subclass_names=None
) -> list[tuple[FusionModel, TrainHistory]]:
    """Train R runs in one pass; one (model, history) per run, in order.

    Run r is `configs[r]` trained on `tables[r]` with `structures[r]`, and
    comes out bit-equal to ``train(configs[r], tables[r], structures[r])``:
    its own init, its own shuffle stream, its own lambda, lambda shares
    and learning rate. The runs must share stack_key and the subclass
    count, else InvalidConfig. Each batch gathers its (R, batch, d) rows
    from the distinct tables (by identity) through a per-run row order,
    so no epoch copy of the rows is made. Labels are range-checked once
    per run, not per batch.

    A run whose loss turns non-finite is DivergedLoss naming its epoch and
    first sample, and its index when R > 1. The other runs keep training
    until no run earlier in the stack can still diverge, so the error
    names the first diverging run in stack order; floating-point warnings
    of a diverging run are not printed.
    """
    runs = len(configs)
    if runs == 0 or not runs == len(tables) == len(structures):
        raise InvalidConfig("a stack needs one config, table and structure set per run")
    models = [
        _init_run(c, t, s, subclass_names)
        for c, t, s in zip(configs, tables, structures)
    ]
    keys = {
        stack_key(c, t, s) + (m.subclass_count,)
        for c, t, s, m in zip(configs, tables, structures, models)
    }
    if len(keys) > 1:
        raise InvalidConfig(
            "stacked runs must share layout shapes, training rows, batch size and epochs"
        )
    params = _Params(models)
    heads = configs[0].structure_count
    n = tables[0].count
    batch, epochs = configs[0].batch_size, configs[0].epochs
    lam = np.array([c.lambda_total for c in configs])
    lambdas = np.array([c.lambdas for c in configs]).reshape(runs, heads).T
    step = np.array([[c.learning_rate] for c in configs])
    shuffles = [rng_from_seed(derive_seed(c.seed, _STREAM_SHUFFLE)) for c in configs]
    parents = [[np.asarray(s.parent_index) for s in structs] for structs in structures]
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
                for m, parent in enumerate(parents[r]):
                    ys[1 + m, r] = parent[ys[0, r]]
            total_sum = np.zeros(runs)
            sub_sum = np.zeros(runs)
            super_sums = np.zeros((heads, runs))
            for start in range(0, n, batch):
                rows = order[:, start : start + batch]
                size = rows.shape[1]
                by = ys[:, :, start : start + batch]
                (total, sub_loss, per), sub_logits = _loss_and_grads(
                    params, _gather(sides, rows), by[0], by[1:], lambdas, lam
                )
                if not math.isfinite(total.sum()):  # one test for every run
                    finite = np.isfinite(total)
                    for r in np.flatnonzero(~finite):
                        diverged.setdefault(int(r), (epoch, start))
                    if 0 in diverged:  # no earlier run is left to diverge
                        raise _diverged(diverged, runs)
                predicted[:, start : start + batch] = sub_logits.argmax(axis=-1)
                total_sum += total * size
                sub_sum += sub_loss * size
                for m, loss_m in enumerate(per):
                    super_sums[m] += loss_m * size
                params.grad *= step
                params.values -= params.grad
            hist_total[:, epoch] = total_sum / n
            hist_sub[:, epoch] = sub_sum / n
            hist_super[:, epoch] = (super_sums / n).T
            hist_acc[:, epoch] = np.count_nonzero(predicted == ys[0], axis=1) / n
    if diverged:
        raise _diverged(diverged, runs)

    return [
        (
            replace(model, **params.run_fields(r)),
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


def _gather(sides, rows) -> np.ndarray:
    """The (R, b, d) batch where run r reads rows[r] of its table; `sides`
    pairs each distinct table's features with the runs that read it."""
    if len(sides) == 1:
        return sides[0][0][rows]
    batch = np.empty(rows.shape + sides[0][0].shape[1:])
    for features, members in sides:
        batch[members] = features[rows[members]]
    return batch


def _diverged(diverged: dict, runs: int) -> DivergedLoss:
    """The error of the first run in stack order among `diverged`."""
    run = min(diverged)
    return DivergedLoss(*diverged[run], run if runs > 1 else None)


def predict(model: FusionModel, x):
    """Subclass id(s) by argmax of the subclass head; ties go to lower id."""
    sub, _ = forward(model, x)
    if sub.ndim == 1:
        return int(sub.argmax())
    return sub.argmax(axis=1).astype(np.int64)


def gradient_check(
    model: FusionModel,
    features,
    labels,
    structures: StructureSet,
    config: FusionConfig,
    epsilon: float = 1e-5,
    *,
    sample_size: int = 200,
    seed: int = 0,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Checks every parameter when the model has at most `sample_size` of
    them, otherwise a seeded random subset of that size. The relative
    error is |g_a - g_n| / max(1, |g_a| + |g_n|), so parameters with a
    true zero gradient are compared on an absolute scale.
    """
    if not 1e-6 <= epsilon <= 1e-3:
        raise ValueError("epsilon outside the trustworthy range [1e-6, 1e-3]")
    if len(structures) != config.structure_count:
        raise InvalidConfig(
            f"config expects {config.structure_count} structures, got {len(structures)}"
        )
    if model.attach_stages != config.attach_stages:
        raise InvalidConfig("model and config disagree on attach stages")
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    y_sub = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    if x.shape[1] != model.input_dim or x.shape[0] != y_sub.size:
        raise DimensionMismatch("features/labels disagree with the model")
    _check_labels(y_sub, model.subclass_count)
    y_supers = [np.asarray(s.parent_index)[y_sub] for s in structures]
    for labels, count in zip(y_supers, model.superclass_counts):
        _check_labels(labels, count)
    # A stack of one run: the batch and its labels gain the run axis.
    x, y_sub, y_supers = x[None], y_sub[None], [y[None] for y in y_supers]
    lambdas, lam = config.lambdas, config.lambda_total
    params = _Params([model])
    _loss_and_grads(params, x, y_sub, y_supers, lambdas, lam)
    values, grad = params.values[0], params.grad[0]

    def total_loss() -> float:
        _, sub, supers = _logits(params, x)
        return float(_weighted_loss(sub, supers, y_sub, y_supers, lambdas, lam)[0][0][0])

    total = values.size
    if total <= sample_size:
        chosen = np.arange(total)
    else:
        rng = rng_from_seed(seed)
        chosen = np.sort(rng.choice(total, size=sample_size, replace=False))

    max_err = 0.0
    for i in chosen:
        original = values[i]
        values[i] = original + epsilon
        above = total_loss()
        values[i] = original - epsilon
        below = total_loss()
        values[i] = original
        numeric = (above - below) / (2.0 * epsilon)
        analytic = grad[i]
        err = abs(analytic - numeric) / max(1.0, abs(analytic) + abs(numeric))
        max_err = max(max_err, err)
    return max_err


# -- checkpoint files --------------------------------------------------------

def config_to_dict(config: FusionConfig) -> dict:
    return {
        field: list(value) if isinstance(value, tuple) else value
        for field, value in asdict(config).items()
    }


def config_from_dict(raw: dict) -> FusionConfig:
    """Build a config from a (possibly partial) JSON dict; defaults fill gaps.

    Every field is typed first, so an unknown field or a value of the
    wrong type is InvalidConfig naming the field (`model epochs`, ...).
    """
    return FusionConfig(**typed_section(raw, "model", FusionConfig))


def _checkpoint_header(model: FusionModel, config: FusionConfig) -> dict:
    """The JSON header of a checkpoint of `model` under `config`: the
    config, name tables and tensor manifest. A config whose stage_dims or
    attach_stages do not describe the model is InvalidConfig."""
    stage_dims = tuple(b.shape[0] for b in model.trunk_biases)
    if (config.stage_dims, config.attach_stages) != (stage_dims, model.attach_stages):
        raise InvalidConfig(f"the config does not describe stage_dims {stage_dims} "
                            f"and attach_stages {model.attach_stages} of the model")
    return {
        "config": config_to_dict(config),
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
    """Single-file checkpoint: JSON header plus raw little-endian float64.

    Layout: magic line, uint32 header length (little-endian), the header
    JSON (config, name tables, tensor manifest), then each tensor's bytes
    in manifest order, which is the canonical parameter order. Parameters
    round-trip bit-exactly.
    """
    blob = dump_json(_checkpoint_header(model, config)).encode("utf-8")
    with atomic_text_writer(path, binary=True) as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for _, arr in _parameters(model):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[FusionModel, FusionConfig]:
    """Read a checkpoint back; inverse of :func:`save_checkpoint`.

    A file save_checkpoint could not have written is a CheckpointError
    naming `path`: a bad magic line or length, a header that is not the
    JSON object it writes, holds a field of the wrong type or differs from
    the header of the model and config it holds, tensors out of the
    canonical order, or too few or too many tensor bytes. Tensors that do
    not fit together are the model's own DimensionMismatch.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(CHECKPOINT_MAGIC):
        raise CheckpointError(f"{path}: not a checkpoint file")
    start = len(CHECKPOINT_MAGIC) + 4
    if len(blob) < start:
        raise CheckpointError(f"{path}: truncated header length")
    (header_len,) = struct.unpack_from("<I", blob, len(CHECKPOINT_MAGIC))
    end = start + header_len
    if len(blob) < end:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(blob[start:end].decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise CheckpointError(f"{path}: malformed header: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: the header is not a JSON object")
    try:
        config = config_from_dict(header["config"])
        attach = config_list(config_int)(header["attach_stages"], "attach_stages")
        manifest = header["tensors"]
        if not isinstance(manifest, list) or not all(
            isinstance(entry, dict) for entry in manifest
        ):
            raise CheckpointError(f"{path}: tensors must be a list of objects")
        layout = _layout(len(manifest) // 2 - 1 - len(attach), len(attach))
        if [entry["name"] for entry in manifest] != [name for name, _, _ in layout]:
            raise CheckpointError(f"{path}: tensors are not in the canonical order")
        shapes = [config_list(config_int)(e["shape"], "tensor shape") for e in manifest]
        if any(len(shape) not in (1, 2) or min(shape) < 0 for shape in shapes):
            raise CheckpointError(f"{path}: tensor shapes must be 1 or 2 sizes >= 0")
        counts = [math.prod(shape) for shape in shapes]
        if len(blob) - end != 8 * sum(counts):
            raise CheckpointError(
                f"{path}: {len(blob) - end} tensor bytes, header needs {8 * sum(counts)}"
            )
        arrays = []
        for shape, count in zip(shapes, counts):
            arrays.append(np.frombuffer(blob, "<f8", count, end).reshape(shape))
            end += 8 * count
        model = FusionModel(
            **_parameter_fields(layout, arrays),
            attach_stages=attach,
            subclass_names=header["subclass_names"],
            structure_names=header["structure_names"],
        )
        rebuilt = _checkpoint_header(model, config)
    except KeyError as exc:
        raise CheckpointError(f"{path}: missing header field {exc}") from exc
    except InvalidConfig as exc:
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
    with atomic_text_writer(path) as fh:
        fh.write(",".join(columns) + "\n")
        for e in range(history.epochs):
            cells = [str(e)]
            cells.append(format_float(history.total_loss[e]))
            cells.append(format_float(history.subclass_loss[e]))
            cells += [format_float(v) for v in history.super_losses[e]]
            cells.append(format_float(history.train_accuracy[e]))
            fh.write(",".join(cells) + "\n")
