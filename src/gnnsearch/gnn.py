"""Child models: layer parameters, message passing, training, metrics.

A layer transforms node features per head, scores every directed edge
with the chosen attention function, normalizes scores over each
in-neighborhood (self-loop included), aggregates the weighted messages,
merges heads (concatenation on hidden layers, average on the last one),
applies an optional residual, then the activation.

A model computes in its features' dtype. Search and derivation train
children in ``CHILD_DTYPE``; everything else defaults to float64.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .arch import ArchDescription
from .autodiff import Tensor
from .errors import ParameterError, ShapeError, TrainingError
from .graphs import Graph, LabeledDataset

# The dtype search and derivation train children in (numerics version 3).
CHILD_DTYPE = np.dtype(np.float32)


@dataclass
class TrainHyperparams:
    lr: float = 0.005
    l2_lambda: float = 0.0005
    dropout: float = 0.6
    max_epochs: int = 200
    patience: int = 100
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ParameterError(f"lr must be finite and positive, got {self.lr}")
        if not (math.isfinite(self.l2_lambda) and self.l2_lambda >= 0):
            raise ParameterError(f"l2_lambda must be finite and non-negative, got {self.l2_lambda}")
        if not 0.0 <= self.dropout < 1.0:
            raise ParameterError("dropout must lie in [0, 1)")
        if self.max_epochs < 1:
            raise ParameterError("max_epochs must be at least 1")
        if not 0 <= self.patience <= self.max_epochs:
            raise ParameterError("patience must lie in [0, max_epochs]")
        if self.seed < 0:
            raise ParameterError("seed must be non-negative")


# What each kind adds to a layer's transform w_t [in_dim, K*D], in draw
# order: per-head vectors [K, D] ("KD") or per-head matrices [K, D, D]
# ("KDD"). The fused edge ops take a kind's tensors in this order.
LAYER_TENSORS = {
    "attention": {
        "const": {}, "gcn": {},
        "gat": {"a_l": "KD", "a_r": "KD"},
        "sym-gat": {"a_l": "KD", "a_r": "KD"},
        "linear": {"a_l": "KD"},
        "cos": {"w_l": "KDD", "w_r": "KDD"},
        "gene-linear": {"w_l": "KDD", "w_r": "KDD", "w_a": "KD"},
    },
    "aggregation": {
        "sum": {}, "mean-pooling": {}, "max-pooling": {},
        "mlp": {"mlp_w1": "KDD", "mlp_w2": "KDD"},
    },
}


def layer_shapes(attention: str, aggregation: str, in_dim: int, heads: int, hidden: int) -> dict:
    """Name -> shape of every tensor a layer of these kinds owns, in draw
    order: w_t, then the attention's, then the aggregation's. A residual
    projection ``w_res`` is not among them."""
    forms = {"KD": (heads, hidden), "KDD": (heads, hidden, hidden)}
    shapes = {"w_t": (in_dim, heads * hidden)}
    for role, kind in (("attention", attention), ("aggregation", aggregation)):
        if kind not in LAYER_TENSORS[role]:
            raise ParameterError(f"unknown {role} kind {kind!r}")
        shapes.update((name, forms[form]) for name, form in LAYER_TENSORS[role][kind].items())
    return shapes


@dataclass
class LayerParams:
    """The tensors one layer owns: those of ``layer_shapes`` in its order,
    then ``w_res`` when the layer has a residual projection."""

    tensors: dict


def init_layer_params(
    rng: np.random.Generator,
    attention: str,
    aggregation: str,
    in_dim: int,
    heads: int,
    hidden: int,
) -> LayerParams:
    """Fresh Glorot-initialized tensors for one layer (no residual);
    per head, a vector's fans are (D, 1) and a matrix's (D, D)."""
    tensors = {}
    for name, shape in layer_shapes(attention, aggregation, in_dim, heads, hidden).items():
        fans = shape if name == "w_t" else (hidden, hidden if len(shape) == 3 else 1)
        tensors[name] = ad.glorot(rng, *fans, shape=shape)
    return LayerParams(tensors)


@dataclass
class ChildModel:
    layers: list  # one LayerParams per layer
    plan: list  # one LayerPlan per layer

    def parameters(self) -> list:
        return [t for layer in self.layers for t in layer.tensors.values()]

    def param_count(self) -> int:
        return sum(p.size for p in self.parameters())

    def snapshot(self) -> list:
        return [{name: t.data.copy() for name, t in layer.tensors.items()} for layer in self.layers]

    def restore(self, snapshot: list) -> None:
        for layer, stored in zip(self.layers, snapshot):
            for name, value in stored.items():
                layer.tensors[name].data = value.copy()

    def detached(self) -> "ChildModel":
        """This model on copies of the parameters that need no gradient,
        so a forward through it records no tape."""
        layers = [LayerParams({name: Tensor(t.data.copy()) for name, t in layer.tensors.items()})
                  for layer in self.layers]
        return replace(self, layers=layers)


@dataclass(frozen=True)
class ShareKey:
    """What must coincide for two layers to share trained weights."""

    layer_index: int
    attention: str
    aggregation: str
    in_dim: int
    heads: int
    hidden: int  # the layer's effective head width


@dataclass(frozen=True)
class LayerPlan:
    """One layer's resolved choices and effective dims."""

    key: ShareKey
    activation: str
    skip_from: int | None
    concat: bool  # the skip source is concatenated rather than added
    base_out: int  # width of the merged heads, before any skip merge
    out_dim: int
    skip_dim: int | None
    last: bool


def _layer_plan(arch: ArchDescription, in_dim: int, out_classes: int) -> list:
    """The LayerPlan of every layer of an architecture."""
    resolved = arch.resolved()
    dims = [in_dim]
    plan = []
    for i, layer in enumerate(resolved):
        last = i == len(resolved) - 1
        width = out_classes if last else layer.hidden
        base_out = width if last else layer.heads * width
        skip_dim = None if layer.skip_from is None else dims[layer.skip_from]
        # concat would change the class-count output, so the last
        # layer always merges additively.
        concat = skip_dim is not None and layer.merge == "concat" and not last
        out_dim = base_out + skip_dim if concat else base_out
        key = ShareKey(i, layer.attention, layer.aggregation, dims[i], layer.heads, width)
        plan.append(LayerPlan(key, layer.activation, layer.skip_from, concat, base_out, out_dim, skip_dim, last))
        dims.append(out_dim)
    return plan


def build_model(
    arch: ArchDescription,
    in_dim: int,
    out_classes: int,
    rng: np.random.Generator,
    store=None,
    dtype=np.float64,
) -> ChildModel:
    """Materialize parameters for an architecture, in ``dtype``.

    With a store, each layer's shareable tensors come from
    ``store.layer_params`` (a copy of the stored entry, or a fresh
    draw on a miss). Residual projections are never shared because the
    share key cannot see the skip source dimension. Fresh tensors are
    drawn in float64 whatever ``dtype`` is, so the rng stream does not
    depend on it, and every tensor is then cast.
    """
    if in_dim < 1 or out_classes < 1:
        raise ParameterError("in_dim and out_classes must be positive")
    plan = _layer_plan(arch, in_dim, out_classes)
    layers = []
    for step in plan:
        key = step.key
        if store is not None:
            params = store.layer_params(key, rng)
        else:
            params = init_layer_params(rng, key.attention, key.aggregation, key.in_dim, key.heads, key.hidden)
        if step.skip_from is not None and not step.concat and step.skip_dim != step.base_out:
            params.tensors["w_res"] = ad.glorot(rng, step.skip_dim, step.base_out)
        for tensor in params.tensors.values():
            tensor.data = tensor.data.astype(dtype, copy=False)
        layers.append(params)
    return ChildModel(layers=layers, plan=plan)


# ---------------------------------------------------------------------------
# message passing


def _edge_scores(kind: str, z: Tensor, graph: Graph, params: LayerParams) -> Tensor:
    """Scores for every directed edge, [E, heads]. The destination is the
    node doing the aggregating (index i in the usual e_ij notation)."""
    return ad.edge_scores(kind, z, graph.plan, *(params.tensors[name] for name in LAYER_TENSORS["attention"][kind]))


def forward(
    model: ChildModel,
    graph: Graph,
    training: bool = False,
    rng: np.random.Generator | None = None,
    dropout_p: float = 0.0,
) -> Tensor:
    """Run the whole model; returns [node_count, out_classes]."""
    in_dim = model.plan[0].key.in_dim
    if graph.feature_dim != in_dim:
        raise ShapeError(f"graph features {graph.feature_dim}-d, model expects {in_dim}")
    outputs = [Tensor(graph.features)]
    n = graph.node_count
    plan = graph.plan
    for step, params in zip(model.plan, model.layers):
        heads, width = step.key.heads, step.key.hidden
        x = ad.dropout(outputs[-1], dropout_p, rng, training)
        z = ad.reshape(ad.matmul(x, params.tensors["w_t"]), (n, heads, width))
        scores = _edge_scores(step.key.attention, z, graph, params)
        alpha = ad.segment_softmax(scores, plan.dst, n)
        alpha = ad.dropout(alpha, dropout_p, rng, training)
        aggregation = step.key.aggregation
        weights = [params.tensors[name] for name in LAYER_TENSORS["aggregation"][aggregation]]
        agg = ad.edge_aggregate(aggregation, alpha, z, plan, *weights)
        if step.last:
            combined = ad.mul(ad.reduce_sum(agg, axis=1), ad.constant(1.0 / heads, agg))
        else:
            combined = ad.reshape(agg, (n, heads * width))
        if step.skip_from is not None:
            source = outputs[step.skip_from]
            if step.concat:
                combined = ad.concat([combined, source], axis=1)
            else:
                if "w_res" in params.tensors:
                    source = ad.matmul(source, params.tensors["w_res"])
                combined = ad.add(combined, source)
        outputs.append(ad.activation(step.activation, combined))
    return outputs[-1]


# ---------------------------------------------------------------------------
# metrics, evaluation, training


def node_metric(task_kind: str, logits: np.ndarray, labels: np.ndarray) -> float:
    """Accuracy for single-label tasks, micro-F1 for multi-label; a row per node.

    Multi-label predictions threshold the sigmoid at 0.5, i.e. logit 0.
    """
    if task_kind == "single":
        return int(np.sum(np.argmax(logits, axis=1) == labels)) / labels.shape[0]
    predicted = logits > 0.0
    actual = labels.astype(bool)
    tp = int(np.sum(predicted & actual))
    fp = int(np.sum(predicted & ~actual))
    fn = int(np.sum(~predicted & actual))
    denom = 2 * tp + fp + fn
    if denom == 0:
        return 1.0  # nothing to find and nothing predicted
    return 2.0 * tp / denom


def pooled_metric(model: ChildModel, dataset: LabeledDataset, nodes: list, logits: dict | None = None) -> float:
    """``node_metric`` over (graph index, node indices) pairs, pooled.

    ``logits``, when given, maps a graph index to the evaluation logits
    at the model's current parameters: an entry is used in place of a
    forward, and each forward run here is added. A forward records a
    tape only when its entry is added for a graph with training nodes,
    because the next training step may take it over (``train_child``);
    every other forward runs on ``model.detached()`` and records none.
    """
    picked, labels = [], []
    frozen = None
    for g, idx in nodes:
        out = None if logits is None else logits.get(g)
        if out is None:
            if logits is not None and dataset.masks[g].train.size:
                out = forward(model, dataset.graphs[g], training=False)
            else:
                if frozen is None:
                    frozen = model.detached()
                out = forward(frozen, dataset.graphs[g], training=False)
            if logits is not None:
                logits[g] = out
        picked.append(out.data[idx])
        labels.append(dataset.labels[g][idx])
    return node_metric(dataset.task_kind, np.concatenate(picked), np.concatenate(labels))


def evaluate(model: ChildModel, dataset: LabeledDataset, mask_kind: str, logits: dict | None = None) -> float:
    """Metric pooled over every graph with nodes in the given split:
    accuracy for single-label tasks, micro-F1 for multi-label. ``logits``
    is a cache as in ``pooled_metric``."""
    nodes = [(g, mask.of(mask_kind)) for g, mask in enumerate(dataset.masks)]
    nodes = [(g, idx) for g, idx in nodes if idx.size]
    if not nodes:
        raise ParameterError(f"no graph has nodes in the {mask_kind!r} split")
    return pooled_metric(model, dataset, nodes, logits)


@dataclass
class TrainedResult:
    best_val_metric: float
    test_metric: float
    epochs_ran: int
    best_epoch: int
    seconds_per_epoch: float
    opt_steps: int
    model: ChildModel
    # Read-only evaluation logits at the restored (best) parameters, by
    # graph index, for every graph with validation nodes; values only.
    best_logits: dict


def median(values) -> float:
    """The median of a non-empty list of floats in np.median's arithmetic
    (the middle value, or (a + b) / 2 of the middle two), without the
    numpy.ma import np.median makes."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return float((ordered[mid - 1] + ordered[mid]) / 2)


def train_child(model: ChildModel, dataset: LabeledDataset, hp: TrainHyperparams) -> TrainedResult:
    """Adam on the training loss with validation-metric early stopping.

    Tracks the best validation epoch, stops after ``patience``
    consecutive non-improving epochs (or at ``max_epochs``), restores
    the best parameters, and reports the test metric with them.

    No forward is run twice at one parameter state. Without dropout a
    training forward is an evaluation forward (dropout at rate 0 is the
    identity and draws nothing), so the validation forward, tape
    included, is the next training forward on its graph. Evaluation
    forwards are deterministic, so the best epoch's validation logits
    score the test split; only graphs without validation nodes are run
    again, with the restored parameters.
    """
    params = model.parameters()
    state = ad.AdamState.init(params, hp.lr)
    rng = np.random.default_rng(hp.seed)
    train_graphs = [
        (g, labels, mask.train)
        for g, (labels, mask) in enumerate(zip(dataset.labels, dataset.masks))
        if mask.train.size
    ]
    if not train_graphs:
        raise ParameterError("no graph has training nodes")
    reuse = hp.dropout == 0.0

    best_metric = -np.inf
    best_snapshot = None
    best_logits = {}
    current = {}  # evaluation logits at the current parameters, by graph index
    best_epoch = -1
    stale = 0
    epochs_ran = 0
    epoch_seconds = []
    for epoch in range(hp.max_epochs):
        started = time.perf_counter()
        for g, labels, train_idx in train_graphs:
            logits = current.pop(g, None) if reuse else None
            current.clear()  # this step moves the parameters
            if logits is None:
                logits = forward(model, dataset.graphs[g], training=True, rng=rng, dropout_p=hp.dropout)
            objective = ad.loss(
                dataset.task_kind, logits, labels, train_idx,
                l2_lambda=hp.l2_lambda, l2_params=params,
            )
            if not np.isfinite(objective.data):
                raise TrainingError(f"non-finite training loss at epoch {epoch}", epoch)
            ad.zero_grads(params)
            objective.backward()
            del logits, objective  # free the tape and its gradients before the next forward
            ad.adam_step(state, params, [p.grad for p in params])
        epochs_ran = epoch + 1
        # With dropout no training step takes a validation forward over, so
        # none needs a tape.
        val_metric = evaluate(model if reuse else model.detached(), dataset, "val", current)
        epoch_seconds.append(time.perf_counter() - started)
        if val_metric > best_metric:
            best_metric = val_metric
            best_snapshot = model.snapshot()
            best_logits = {g: Tensor(out.data) for g, out in current.items()}
            for saved in best_logits.values():  # holds no tape: values only
                saved.data.setflags(write=False)
            best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale > hp.patience:
                break
    current.clear()
    model.restore(best_snapshot)
    test_metric = evaluate(model, dataset, "test", dict(best_logits))
    if len(epoch_seconds) > 1:
        sec = median(epoch_seconds[1:])  # first epoch pays warm-up costs
    else:
        sec = float(epoch_seconds[0])
    return TrainedResult(
        best_val_metric=float(best_metric),
        test_metric=float(test_metric),
        epochs_ran=epochs_ran,
        best_epoch=best_epoch,
        seconds_per_epoch=sec,
        opt_steps=state.step,
        model=model,
        best_logits=best_logits,
    )
