"""Multi-task classifier over fused label structures.

A staged fully-connected trunk (tanh nonlinearity) carries one subclass
head at the final stage plus, per label structure, one superclass head
attached at a configurable trunk stage. Training minimizes

    (1 - lambda_total) * CE(subclass) + sum_m lambda_m * CE(superclass m)

with plain mini-batch gradient descent at a constant learning rate.
Superclass labels are derived from the subclass label through each
structure on the fly, never stored, so they can't drift out of sync.
Inference reads the subclass head only.

All parameters are float64 arrays; backpropagation is written out by
hand and validated against central finite differences (gradient_check).
Weight init and batch shuffling use independent streams derived from the
config seed, so a model trained with lambda 0 walks the same trunk and
subclass-head trajectory as one trained with no structures at all.
"""

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

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
from .serialization import dump_json, format_float
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

    stage_dims: tuple[int, ...] = (32, 16)
    attach_stages: tuple[int, ...] = ()
    lambda_total: float = 0.0
    lambda_split: tuple[float, ...] | None = None
    learning_rate: float = 0.1
    epochs: int = 50
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        stage_dims = tuple(int(d) for d in self.stage_dims)
        attach_stages = tuple(int(s) for s in self.attach_stages)
        object.__setattr__(self, "stage_dims", stage_dims)
        object.__setattr__(self, "attach_stages", attach_stages)
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
        if self.lambda_split is not None:
            split = tuple(float(v) for v in self.lambda_split)
            object.__setattr__(self, "lambda_split", split)
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


@dataclass(frozen=True)
class FusionModel:
    """An immutable parameter snapshot plus the name tables to apply it."""

    trunk_weights: tuple[np.ndarray, ...]
    trunk_biases: tuple[np.ndarray, ...]
    subclass_weight: np.ndarray
    subclass_bias: np.ndarray
    super_weights: tuple[np.ndarray, ...]
    super_biases: tuple[np.ndarray, ...]
    attach_stages: tuple[int, ...]
    subclass_names: tuple[str, ...]
    structure_names: tuple[str, ...]

    def __post_init__(self):
        def freeze(arr, dims):
            arr = np.array(arr, dtype=np.float64)
            if arr.ndim != dims:
                raise DimensionMismatch(f"expected a {dims}-D parameter tensor")
            if not np.all(np.isfinite(arr)):
                raise NonFiniteValue("model parameters must be finite")
            arr.setflags(write=False)
            return arr

        trunk_w = tuple(freeze(w, 2) for w in self.trunk_weights)
        trunk_b = tuple(freeze(b, 1) for b in self.trunk_biases)
        if not trunk_w or len(trunk_w) != len(trunk_b):
            raise DimensionMismatch("trunk weights and biases must pair up")
        for i, (w, b) in enumerate(zip(trunk_w, trunk_b)):
            if w.shape[1] != b.shape[0]:
                raise DimensionMismatch(f"stage {i} bias width mismatch")
            if i and trunk_w[i - 1].shape[1] != w.shape[0]:
                raise DimensionMismatch(f"stage {i} input width mismatch")
        sub_w = freeze(self.subclass_weight, 2)
        sub_b = freeze(self.subclass_bias, 1)
        if sub_w.shape[0] != trunk_w[-1].shape[1] or sub_w.shape[1] != sub_b.shape[0]:
            raise DimensionMismatch("subclass head dimensions mismatch")
        sup_w = tuple(freeze(w, 2) for w in self.super_weights)
        sup_b = tuple(freeze(b, 1) for b in self.super_biases)
        attach = tuple(int(s) for s in self.attach_stages)
        names = tuple(str(n) for n in self.subclass_names)
        struct_names = tuple(str(n) for n in self.structure_names)
        if not len(sup_w) == len(sup_b) == len(attach) == len(struct_names):
            raise DimensionMismatch("one head, stage, and name per structure")
        for m, (w, b, s) in enumerate(zip(sup_w, sup_b, attach)):
            if not 0 <= s < len(trunk_w):
                raise DimensionMismatch(f"head {m} attach stage {s} out of range")
            if w.shape[0] != trunk_w[s].shape[1] or w.shape[1] != b.shape[0]:
                raise DimensionMismatch(f"head {m} dimensions mismatch")
        if sub_w.shape[1] != len(names):
            raise DimensionMismatch("one subclass name per output column")
        object.__setattr__(self, "trunk_weights", trunk_w)
        object.__setattr__(self, "trunk_biases", trunk_b)
        object.__setattr__(self, "subclass_weight", sub_w)
        object.__setattr__(self, "subclass_bias", sub_b)
        object.__setattr__(self, "super_weights", sup_w)
        object.__setattr__(self, "super_biases", sup_b)
        object.__setattr__(self, "attach_stages", attach)
        object.__setattr__(self, "subclass_names", names)
        object.__setattr__(self, "structure_names", struct_names)

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

    total_loss: np.ndarray
    subclass_loss: np.ndarray
    super_losses: np.ndarray
    train_accuracy: np.ndarray
    structure_names: tuple[str, ...]

    def __post_init__(self):
        def freeze(arr, dims):
            arr = np.array(arr, dtype=np.float64)
            if arr.ndim != dims:
                raise DimensionMismatch(f"expected a {dims}-D history array")
            arr.setflags(write=False)
            return arr

        total = freeze(self.total_loss, 1)
        sub = freeze(self.subclass_loss, 1)
        supers = freeze(self.super_losses, 2)
        acc = freeze(self.train_accuracy, 1)
        epochs = total.shape[0]
        if sub.shape[0] != epochs or acc.shape[0] != epochs or supers.shape[0] != epochs:
            raise DimensionMismatch("history arrays must share the epoch count")
        if supers.shape[1] != len(self.structure_names):
            raise DimensionMismatch("one loss column per structure")
        object.__setattr__(self, "total_loss", total)
        object.__setattr__(self, "subclass_loss", sub)
        object.__setattr__(self, "super_losses", supers)
        object.__setattr__(self, "train_accuracy", acc)
        object.__setattr__(self, "structure_names", tuple(self.structure_names))

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
    subclass_names = tuple(str(n) for n in subclass_names)
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


class _Params:
    """Mutable copies of the model parameters, in one canonical order.

    Trunk (W, b) pairs, the subclass head, then superclass heads, laid out
    back to back in one flat buffer, `values`; the named attributes are
    views into it. `grads` holds the same views into a second buffer,
    `grad`, so a gradient step is one array update.
    """

    def __init__(self, model: FusionModel):
        source = []
        for w, b in zip(model.trunk_weights, model.trunk_biases):
            source += [w, b]
        source += [model.subclass_weight, model.subclass_bias]
        for w, b in zip(model.super_weights, model.super_biases):
            source += [w, b]
        self.values = np.concatenate([a.ravel() for a in source])
        self.grad = np.empty_like(self.values)
        self.grads = _views(self.grad, source)
        arrays = _views(self.values, source)
        top = 2 * model.stage_count
        self.trunk_w = arrays[0:top:2]
        self.trunk_b = arrays[1:top:2]
        self.sub_w, self.sub_b = arrays[top : top + 2]
        self.sup_w = arrays[top + 2 :: 2]
        self.sup_b = arrays[top + 3 :: 2]


def _views(buffer, shaped) -> list[np.ndarray]:
    """Consecutive views of `buffer` with the shapes of `shaped`."""
    views, start = [], 0
    for a in shaped:
        views.append(buffer[start : start + a.size].reshape(a.shape))
        start += a.size
    return views


def _trunk_acts(trunk_w, trunk_b, x) -> list[np.ndarray]:
    acts = []
    h = x
    for w, b in zip(trunk_w, trunk_b):
        h = h @ w
        h += b
        np.tanh(h, out=h)
        acts.append(h)
    return acts


def _check_labels(labels, k: int) -> None:
    if labels.min() < 0 or labels.max() >= k:
        raise LabelOutOfRange(f"labels must lie in [0, {k})")


def _cross_entropy_grad(logits, labels):
    """Mean cross-entropy of the softmax and its gradient in the logits.

    Uses the max-shift log-sum-exp form, so adding a constant to all
    logits of a sample changes nothing (up to rounding). Labels must be
    pre-validated to lie in [0, k) (see _check_labels): they are gathered
    by flat index, so an out-of-range label would silently read a logit
    of another sample instead of failing.
    """
    n, k = logits.shape
    shift = logits.max(axis=1, keepdims=True)
    exp = logits - shift
    np.exp(exp, out=exp)
    denom = exp.sum(axis=1, keepdims=True)
    picked = np.arange(0, n * k, k) + labels
    lse = np.log(denom).ravel()
    lse += shift.ravel()
    lse -= logits.ravel()[picked]
    loss = float(lse.sum() / n)
    exp /= denom
    exp.ravel()[picked] -= 1.0
    exp /= n
    return loss, exp


def _head_losses(params, attach_stages, acts, y_sub, y_supers, lambdas, lam):
    """(total, subclass, per-structure) losses, the subclass logits, and
    the unweighted logit gradients of every head."""
    sub_logits = acts[-1] @ params.sub_w
    sub_logits += params.sub_b
    sub_loss, sub_grad = _cross_entropy_grad(sub_logits, y_sub)
    per, grads = [], []
    for m, stage in enumerate(attach_stages):
        logits = acts[stage] @ params.sup_w[m]
        logits += params.sup_b[m]
        loss_m, grad_m = _cross_entropy_grad(logits, y_supers[m])
        per.append(loss_m)
        grads.append(grad_m)
    total = (1.0 - lam) * sub_loss + sum(
        w * loss_m for w, loss_m in zip(lambdas, per)
    )
    return (total, sub_loss, per), sub_logits, sub_grad, grads


def _total_loss(params, attach_stages, x, y_sub, y_supers, lambdas, lam) -> float:
    acts = _trunk_acts(params.trunk_w, params.trunk_b, x)
    losses, _, _, _ = _head_losses(
        params, attach_stages, acts, y_sub, y_supers, lambdas, lam
    )
    return losses[0]


def _loss_and_grads(params, attach_stages, x, y_sub, y_supers, lambdas, lam):
    """One forward/backward pass; returns (losses, sub_logits).

    `losses` is (total, subclass, per-structure list); the gradient is
    written into params.grads. Head gradients enter the trunk at their
    attach stage scaled by their loss weight, so a zero-weight head
    contributes exactly zero. `lam` is the total weight taken from the
    subclass term. Each stage's activation gradient starts from its first
    contribution and adds the rest in the fixed order subclass head,
    superclass heads, stage above.
    """
    acts = _trunk_acts(params.trunk_w, params.trunk_b, x)
    losses, sub_logits, sub_grad, super_grads = _head_losses(
        params, attach_stages, acts, y_sub, y_supers, lambdas, lam
    )

    d_acts = [None] * len(acts)

    def add_back(stage, back):
        if d_acts[stage] is None:
            d_acts[stage] = back
        else:
            d_acts[stage] += back

    g = params.grads
    head = 2 * len(acts)  # where the subclass head's gradients start
    sub_grad *= 1.0 - lam
    np.matmul(acts[-1].T, sub_grad, out=g[head])
    np.add.reduce(sub_grad, axis=0, out=g[head + 1])
    d_acts[-1] = sub_grad @ params.sub_w.T
    for m, stage in enumerate(attach_stages):
        scaled = super_grads[m]
        scaled *= lambdas[m]
        np.matmul(acts[stage].T, scaled, out=g[head + 2 + 2 * m])
        np.add.reduce(scaled, axis=0, out=g[head + 3 + 2 * m])
        add_back(stage, scaled @ params.sup_w[m].T)

    for s in range(len(acts) - 1, -1, -1):
        d_pre = acts[s] * acts[s]
        np.subtract(1.0, d_pre, out=d_pre)
        d_pre *= d_acts[s]
        below = acts[s - 1] if s > 0 else x
        np.matmul(below.T, d_pre, out=g[2 * s])
        np.add.reduce(d_pre, axis=0, out=g[2 * s + 1])
        if s > 0:
            add_back(s - 1, d_pre @ params.trunk_w[s].T)
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
    acts = _trunk_acts(model.trunk_weights, model.trunk_biases, arr)
    sub = acts[-1] @ model.subclass_weight + model.subclass_bias
    supers = tuple(
        acts[stage] @ w + b
        for stage, w, b in zip(
            model.attach_stages, model.super_weights, model.super_biases
        )
    )
    if single:
        return sub[0], tuple(s[0] for s in supers)
    return sub, supers


def multi_task_loss(outputs, subclass_labels, superclass_labels, config) -> LossBreakdown:
    """Weighted sum of head cross-entropies, averaged over the batch.

    `outputs` is a forward() result in batch form. The breakdown reports
    the unweighted component losses next to the weighted total, so
    total = (1 - lambda_total) * subclass + sum_m lambda_m * per_structure[m].
    """
    sub_logits, super_logits = outputs
    sub_logits = np.atleast_2d(np.asarray(sub_logits, dtype=np.float64))
    lambdas = config.lambdas
    if len(super_logits) != len(lambdas):
        raise InvalidConfig(
            f"{len(super_logits)} head outputs for {len(lambdas)} loss weights"
        )
    if len(superclass_labels) != len(super_logits):
        raise DimensionMismatch(
            f"{len(superclass_labels)} label vectors for "
            f"{len(super_logits)} head outputs"
        )
    y_sub = np.atleast_1d(np.asarray(subclass_labels, dtype=np.int64))
    _check_labels(y_sub, sub_logits.shape[1])
    sub_loss, _ = _cross_entropy_grad(sub_logits, y_sub)
    per = []
    for logits, labels in zip(super_logits, superclass_labels):
        logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
        labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
        _check_labels(labels, logits.shape[1])
        loss_m, _ = _cross_entropy_grad(logits, labels)
        per.append(loss_m)
    total = (1.0 - config.lambda_total) * sub_loss + sum(
        w * v for w, v in zip(lambdas, per)
    )
    return LossBreakdown(total=total, subclass=sub_loss, per_structure=tuple(per))


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
    Labels are range-checked once here, not per batch; each epoch gathers
    its shuffled rows once and every batch is a slice of that copy.
    """
    if len(structures) != config.structure_count:
        raise InvalidConfig(
            f"config expects {config.structure_count} structures, got {len(structures)}"
        )
    if table.count == 0:
        raise ClassTooSmall(0, "empty table has no rows to train on")
    if len(structures):
        subclass_count = structures.subclass_count
    elif subclass_names is not None:
        subclass_count = len(tuple(subclass_names))
    else:
        subclass_count = int(table.labels.max()) + 1
    if int(table.labels.max()) >= subclass_count:
        raise LabelOutOfRange(
            f"label {int(table.labels.max())} outside [0, {subclass_count})"
        )
    model = init_model(
        config,
        subclass_count,
        structures,
        table.dim,
        subclass_names=subclass_names,
    )
    params = _Params(model)
    y_sub = table.labels
    y_supers = np.array(
        [np.asarray(s.parent_index)[y_sub] for s in structures], dtype=np.int64
    ).reshape(len(structures), table.count)
    lambdas = config.lambdas
    lam = config.lambda_total
    step = config.learning_rate
    batch = config.batch_size
    shuffle = rng_from_seed(derive_seed(config.seed, _STREAM_SHUFFLE))
    n = table.count

    hist_total = np.zeros(config.epochs)
    hist_sub = np.zeros(config.epochs)
    hist_super = np.zeros((config.epochs, len(structures)))
    hist_acc = np.zeros(config.epochs)
    predicted = np.empty(n, dtype=np.int64)
    for epoch in range(config.epochs):
        order = shuffle.permutation(n)
        xs = table.features[order]
        ys = y_sub[order]
        yss = y_supers[:, order]
        total_sum = sub_sum = 0.0
        super_sums = [0.0] * len(structures)
        for start in range(0, n, batch):
            stop = start + batch
            by = ys[start:stop]
            size = by.size
            (total, sub_loss, per), sub_logits = _loss_and_grads(
                params, config.attach_stages, xs[start:stop], by,
                yss[:, start:stop], lambdas, lam,
            )
            if not math.isfinite(total):
                raise DivergedLoss(
                    f"non-finite loss at epoch {epoch}, sample {start}"
                )
            predicted[start:stop] = sub_logits.argmax(axis=1)
            total_sum += total * size
            sub_sum += sub_loss * size
            for m, loss_m in enumerate(per):
                super_sums[m] += loss_m * size
            params.grad *= step
            params.values -= params.grad
        hist_total[epoch] = total_sum / n
        hist_sub[epoch] = sub_sum / n
        hist_super[epoch] = [v / n for v in super_sums]
        hist_acc[epoch] = np.count_nonzero(predicted == ys) / n

    trained = FusionModel(
        trunk_weights=tuple(params.trunk_w),
        trunk_biases=tuple(params.trunk_b),
        subclass_weight=params.sub_w,
        subclass_bias=params.sub_b,
        super_weights=tuple(params.sup_w),
        super_biases=tuple(params.sup_b),
        attach_stages=model.attach_stages,
        subclass_names=model.subclass_names,
        structure_names=model.structure_names,
    )
    history = TrainHistory(
        total_loss=hist_total,
        subclass_loss=hist_sub,
        super_losses=hist_super,
        train_accuracy=hist_acc,
        structure_names=model.structure_names,
    )
    return trained, history


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
    lambdas = config.lambdas
    params = _Params(model)
    _loss_and_grads(
        params, config.attach_stages, x, y_sub, y_supers, lambdas,
        config.lambda_total,
    )

    total = params.values.size
    if total <= sample_size:
        chosen = np.arange(total)
    else:
        rng = rng_from_seed(seed)
        chosen = np.sort(rng.choice(total, size=sample_size, replace=False))

    max_err = 0.0
    for i in chosen:
        original = params.values[i]
        params.values[i] = original + epsilon
        above = _total_loss(
            params, config.attach_stages, x, y_sub, y_supers, lambdas,
            config.lambda_total,
        )
        params.values[i] = original - epsilon
        below = _total_loss(
            params, config.attach_stages, x, y_sub, y_supers, lambdas,
            config.lambda_total,
        )
        params.values[i] = original
        numeric = (above - below) / (2.0 * epsilon)
        analytic = params.grad[i]
        err = abs(analytic - numeric) / max(1.0, abs(analytic) + abs(numeric))
        max_err = max(max_err, err)
    return max_err


# -- checkpoint files --------------------------------------------------------

def config_to_dict(config: FusionConfig) -> dict:
    return {
        "stage_dims": list(config.stage_dims),
        "attach_stages": list(config.attach_stages),
        "lambda_total": config.lambda_total,
        "lambda_split": None
        if config.lambda_split is None
        else list(config.lambda_split),
        "learning_rate": config.learning_rate,
        "epochs": config.epochs,
        "batch_size": config.batch_size,
        "seed": config.seed,
    }


def config_from_dict(raw: dict) -> FusionConfig:
    """Build a config from a (possibly partial) JSON dict; defaults fill gaps."""
    if not isinstance(raw, dict):
        raise InvalidConfig("model config must be a JSON object")
    known = {
        "stage_dims",
        "attach_stages",
        "lambda_total",
        "lambda_split",
        "learning_rate",
        "epochs",
        "batch_size",
        "seed",
    }
    unknown = set(raw) - known
    if unknown:
        raise InvalidConfig(f"unknown model config fields: {sorted(unknown)}")
    kwargs = dict(raw)
    for field in ("stage_dims", "attach_stages"):
        if field in kwargs:
            kwargs[field] = tuple(kwargs[field])
    if kwargs.get("lambda_split") is not None:
        kwargs["lambda_split"] = tuple(kwargs["lambda_split"])
    return FusionConfig(**kwargs)


def _tensor_manifest(model: FusionModel) -> list[tuple[str, np.ndarray]]:
    tensors = []
    for i, (w, b) in enumerate(zip(model.trunk_weights, model.trunk_biases)):
        tensors.append((f"trunk.{i}.weight", w))
        tensors.append((f"trunk.{i}.bias", b))
    tensors.append(("subclass_head.weight", model.subclass_weight))
    tensors.append(("subclass_head.bias", model.subclass_bias))
    for m, (w, b) in enumerate(zip(model.super_weights, model.super_biases)):
        tensors.append((f"super_head.{m}.weight", w))
        tensors.append((f"super_head.{m}.bias", b))
    return tensors


def save_checkpoint(model: FusionModel, config: FusionConfig, path) -> None:
    """Single-file checkpoint: JSON header plus raw little-endian float64.

    Layout: magic line, uint32 header length (little-endian), the header
    JSON (config, name tables, tensor manifest), then each tensor's bytes
    in manifest order. Parameters round-trip bit-exactly.
    """
    tensors = _tensor_manifest(model)
    header = {
        "config": config_to_dict(config),
        "input_dim": model.input_dim,
        "subclass_count": model.subclass_count,
        "subclass_names": list(model.subclass_names),
        "structure_names": list(model.structure_names),
        "superclass_counts": list(model.superclass_counts),
        "attach_stages": list(model.attach_stages),
        "tensors": [
            {"name": name, "shape": list(arr.shape)} for name, arr in tensors
        ],
    }
    blob = dump_json(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for _, arr in tensors:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[FusionModel, FusionConfig]:
    """Read a checkpoint back; inverse of :func:`save_checkpoint`."""
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        raw_len = fh.read(4)
        if len(raw_len) != 4:
            raise CheckpointError(f"{path}: truncated header length")
        (header_len,) = struct.unpack("<I", raw_len)
        blob = fh.read(header_len)
        if len(blob) != header_len:
            raise CheckpointError(f"{path}: truncated header")
        try:
            header = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{path}: malformed header: {exc}") from exc
        try:
            config = config_from_dict(header["config"])
            manifest = header["tensors"]
            names = {}
            for entry in manifest:
                shape = tuple(int(v) for v in entry["shape"])
                count = int(np.prod(shape, dtype=np.int64)) if shape else 1
                data = fh.read(count * 8)
                if len(data) != count * 8:
                    raise CheckpointError(f"{path}: truncated tensor data")
                names[entry["name"]] = np.frombuffer(data, dtype="<f8").reshape(shape)
            if fh.read(1):
                raise CheckpointError(f"{path}: trailing bytes after tensors")
            trunk_w, trunk_b = [], []
            i = 0
            while f"trunk.{i}.weight" in names:
                trunk_w.append(names.pop(f"trunk.{i}.weight"))
                trunk_b.append(names.pop(f"trunk.{i}.bias"))
                i += 1
            sub_w = names.pop("subclass_head.weight")
            sub_b = names.pop("subclass_head.bias")
            sup_w, sup_b = [], []
            m = 0
            while f"super_head.{m}.weight" in names:
                sup_w.append(names.pop(f"super_head.{m}.weight"))
                sup_b.append(names.pop(f"super_head.{m}.bias"))
                m += 1
            if names:
                raise CheckpointError(
                    f"{path}: unexpected tensors {sorted(names)}"
                )
            model = FusionModel(
                trunk_weights=tuple(trunk_w),
                trunk_biases=tuple(trunk_b),
                subclass_weight=sub_w,
                subclass_bias=sub_b,
                super_weights=tuple(sup_w),
                super_biases=tuple(sup_b),
                attach_stages=tuple(header["attach_stages"]),
                subclass_names=tuple(header["subclass_names"]),
                structure_names=tuple(header["structure_names"]),
            )
        except KeyError as exc:
            raise CheckpointError(f"{path}: missing header field {exc}") from exc
    return model, config


def save_history(history: TrainHistory, path) -> None:
    """Per-epoch CSV: losses (total, subclass, one column per structure)
    and train accuracy, floats at 17 significant digits."""
    columns = ["epoch", "total_loss", "subclass_loss"]
    columns += [f"super_loss_{name}" for name in history.structure_names]
    columns += ["train_accuracy"]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for e in range(history.epochs):
            cells = [str(e)]
            cells.append(format_float(history.total_loss[e]))
            cells.append(format_float(history.subclass_loss[e]))
            cells += [format_float(v) for v in history.super_losses[e]]
            cells.append(format_float(history.train_accuracy[e]))
            fh.write(",".join(cells) + "\n")
