"""Dense tensors with tape-based reverse-mode differentiation.

Everything runs on float64 numpy arrays. A primitive whose inputs need
a gradient stores them and its backward rule on its output tensor, so
every recorded output is a tape node; ``Tensor.backward`` replays the
tape in reverse topological order and accumulates gradients on every
leaf tensor that requires them. A tape is single-use: the backward
frees it as it goes. Each node gives up its inputs and its backward rule
(and so the arrays the rule saved) once it has run, and each
intermediate gradient is dropped once its node has consumed it, so only
the leaves and the root keep a ``.grad``. A second backward through a
consumed tape raises ``ParameterError``. An op computes no gradient for
an operand that needs none.

No operation and no optimizer step writes into an existing array: an
op's output is a new array or a view of its input (``reshape``,
``head_matmul``), and ``adam_step`` assigns new arrays to the
parameters. So values captured by backward closures stay valid, and a
forward's output keeps describing the parameters it was computed from,
which lets ``gnn.train_child`` reuse it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ParameterError, ShapeError


class Tensor:
    """A dense float64 array plus optional gradient bookkeeping.

    An op's output that needs a gradient is its own tape node: ``inputs``
    holds the operands and ``grad_fn`` maps the output's gradient to one
    gradient (or None) per operand. Leaves and constants keep both None.
    A node that a backward has run keeps no inputs and a rule that raises.
    """

    __slots__ = ("data", "requires_grad", "grad", "inputs", "grad_fn", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self.inputs: tuple | None = None
        self.grad_fn = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Accumulate gradients of this tensor w.r.t. every ancestor.

        Without an explicit seed gradient the tensor must be a scalar.
        Consumes the tape: only the leaves and this tensor keep a
        ``.grad``, and everything else is freed during the walk.
        """
        if grad is None:
            if self.data.size != 1:
                raise ParameterError(
                    "backward() without a gradient argument requires a scalar, "
                    f"got shape {self.data.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != self.data.shape:
            raise ShapeError(f"seed gradient shape {grad.shape} != {self.data.shape}")
        nodes = Tape.trace(self).nodes  # raises, changing nothing, on a consumed tape
        self.grad = grad if self.grad is None else self.grad + grad
        while nodes:
            node = nodes.pop()
            out_grad = node.grad
            if node is not self:
                node.grad = None
            inputs, grad_fn = node.inputs, node.grad_fn
            node.inputs, node.grad_fn = None, _consumed
            del node  # do not keep its array alive while the rule runs
            if out_grad is None:
                continue
            for tensor, contribution in zip(inputs, grad_fn(out_grad)):
                if contribution is None or not tensor.requires_grad:
                    continue
                if tensor.grad is None:
                    tensor.grad = contribution
                else:
                    tensor.grad = tensor.grad + contribution

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


def _consumed(_grad=None):
    """The backward rule of a node an earlier backward already ran."""
    raise ParameterError("this tape was consumed by an earlier backward()")


class Tape:
    """Topologically ordered record of the operations behind one tensor."""

    def __init__(self, nodes: list):
        self.nodes = nodes

    @classmethod
    def trace(cls, root: Tensor) -> "Tape":
        # Iterative postorder: inputs always precede their consumer.
        nodes: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(root, False)]
        while stack:
            tensor, expanded = stack.pop()
            if tensor.grad_fn is None:
                continue
            if expanded:
                nodes.append(tensor)
                continue
            if id(tensor) in seen:
                continue
            if tensor.grad_fn is _consumed:
                _consumed()
            seen.add(id(tensor))
            stack.append((tensor, True))
            for parent in tensor.inputs:
                stack.append((parent, False))
        return cls(nodes)

    def __len__(self):
        return len(self.nodes)


def _as_tensor(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _make(data: np.ndarray, inputs: tuple, grad_fn) -> Tensor:
    out = Tensor(data)
    if any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.inputs, out.grad_fn = inputs, grad_fn
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise and linear-algebra primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data
    a_shape, b_shape = a.data.shape, b.data.shape
    need_a, need_b = a.requires_grad, b.requires_grad

    def grad_fn(g):
        return (_unbroadcast(g, a_shape) if need_a else None, _unbroadcast(g, b_shape) if need_b else None)

    return _make(data, (a, b), grad_fn)


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = a.data - b.data
    a_shape, b_shape = a.data.shape, b.data.shape
    need_a, need_b = a.requires_grad, b.requires_grad

    def grad_fn(g):
        return (_unbroadcast(g, a_shape) if need_a else None, _unbroadcast(-g, b_shape) if need_b else None)

    return _make(data, (a, b), grad_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data
    a_val, b_val = a.data, b.data
    need_a, need_b = a.requires_grad, b.requires_grad

    def grad_fn(g):
        return (
            _unbroadcast(g * b_val, a_val.shape) if need_a else None,
            _unbroadcast(g * a_val, b_val.shape) if need_b else None,
        )

    return _make(data, (a, b), grad_fn)


def div(a: Tensor, b: Tensor) -> Tensor:
    data = a.data / b.data
    a_shape, b_val, out_val = a.data.shape, b.data, data
    need_a, need_b = a.requires_grad, b.requires_grad

    def grad_fn(g):
        ga = _unbroadcast(g / b_val, a_shape) if need_a else None
        gb = _unbroadcast(-g * out_val / b_val, b_val.shape) if need_b else None
        return (ga, gb)

    return _make(data, (a, b), grad_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-d operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {a.data.shape} @ {b.data.shape}")
    data = a.data @ b.data
    a_val, b_val = a.data, b.data
    need_a, need_b = a.requires_grad, b.requires_grad

    def grad_fn(g):
        return (g @ b_val.T if need_a else None, a_val.T @ g if need_b else None)

    return _make(data, (a, b), grad_fn)


def head_matmul(x: Tensor, w: Tensor) -> Tensor:
    """Per-head matrix product: [N, K, D] with [K, D, E] -> [N, K, E].

    One batched ``np.matmul`` over the head axis, so each head is a BLAS
    gemm. The output is a transposed view of that product (not
    contiguous). It agrees with the per-head product up to BLAS rounding
    in the last bits; it is the only message-passing kernel whose
    results are not bitwise fixed.
    """
    if x.data.ndim != 3 or w.data.ndim != 3:
        raise ShapeError(f"head_matmul expects 3-d operands, got {x.data.shape} and {w.data.shape}")
    if x.data.shape[1] != w.data.shape[0] or x.data.shape[2] != w.data.shape[1]:
        raise ShapeError(f"head_matmul dims differ: {x.data.shape} with {w.data.shape}")
    x_val, w_val = x.data, w.data
    data = np.matmul(x_val.transpose(1, 0, 2), w_val).transpose(1, 0, 2)
    need_x, need_w = x.requires_grad, w.requires_grad

    def grad_fn(g):
        g_heads = g.transpose(1, 0, 2)
        gx = np.matmul(g_heads, w_val.transpose(0, 2, 1)).transpose(1, 0, 2) if need_x else None
        gw = np.matmul(x_val.transpose(1, 2, 0), g_heads) if need_w else None
        return (gx, gw)

    return _make(data, (x, w), grad_fn)


def _scatter_add(values: np.ndarray, index: np.ndarray, n_rows: int) -> np.ndarray:
    """Sum the rows of ``values`` into ``n_rows`` rows picked by ``index``.

    ``np.bincount`` over the flattened (row, column) cell adds its weights
    in input order, which is the order ``np.add.at`` adds rows in, so the
    result is bitwise equal to ``np.add.at`` into zeros. ``np.add.reduceat``
    over sorted rows is not: it sums in another order.
    """
    rest = values.shape[1:]
    width = math.prod(rest)
    cells = (index[:, None] * width + np.arange(width)).ravel()
    out = np.bincount(cells, weights=values.reshape(-1), minlength=n_rows * width)
    # bincount returns int64 for an empty input, weights or not.
    return out.astype(np.float64, copy=False).reshape((n_rows,) + rest)


class IndexPlan:
    """Row ids into ``n`` rows, range-checked once, when built.

    What the sorted kernels need from the ids (rows per id, a stable row
    order grouped by id, and where each id's rows begin) is worked out on
    first use and kept. A graph builds one plan for its edge sources and
    one for its destinations (``Graph.plan``), so message passing checks,
    counts and sorts them once per graph. Given raw ids, ``gather_rows``
    and the segment ops build a plan for that call.
    """

    def __init__(self, ids, n: int):
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim != 1:
            raise ShapeError(f"index must be 1-d, got shape {ids.shape}")
        if ids.size and (ids.min() < 0 or ids.max() >= n):
            raise ParameterError(f"index out of range for {n} rows")
        self.ids = ids
        self.n = n

    @cached_property
    def counts(self) -> np.ndarray:
        """Rows per id; a mean or max over an id with no rows has no value."""
        counts = np.bincount(self.ids, minlength=self.n)
        if not counts.all():
            raise ParameterError(f"segment {int(np.argmin(counts))} is empty")
        return counts

    @cached_property
    def grouping(self) -> tuple:
        """(order, starts): rows grouped by id, keeping index order inside
        each group, and the position where each id's group begins.

        Sorting a narrow unsigned copy of the ids lets numpy use radix
        sort (up to 65536 ids).
        """
        counts = self.counts
        order = np.argsort(self.ids.astype(np.min_scalar_type(self.n - 1)), kind="stable")
        return order, np.cumsum(counts) - counts


def _plan(index, n: int) -> IndexPlan:
    if isinstance(index, IndexPlan):
        if index.n != n:
            raise ShapeError(f"index plan covers {index.n} rows, expected {n}")
        return index
    return IndexPlan(index, n)


def gather_rows(x: Tensor, index) -> Tensor:
    """Select rows along axis 0; backward scatter-adds into the source.

    ``index`` is an id array or an ``IndexPlan`` over ``x``'s rows. The
    backward adds repeated rows in index order (``_scatter_add``), so it
    is bitwise equal to ``np.add.at``.
    """
    n_rows = x.data.shape[0]
    idx = _plan(index, n_rows).ids
    data = x.data[idx]
    return _make(data, (x,), lambda g: (_scatter_add(g, idx, n_rows),))


def concat(tensors: list, axis: int = 0) -> Tensor:
    if not tensors:
        raise ParameterError("concat of an empty list")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    bounds = np.cumsum(sizes)[:-1]

    def grad_fn(g):
        return tuple(np.split(g, bounds, axis=axis))

    return _make(data, tuple(tensors), grad_fn)


def reshape(x: Tensor, shape: tuple) -> Tensor:
    data = x.data.reshape(shape)
    old = x.data.shape
    return _make(data, (x,), lambda g: (g.reshape(old),))


def reduce_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if isinstance(axis, int) and axis < 0:
        axis = x.data.ndim + axis
    data = x.data.sum(axis=axis, keepdims=keepdims)
    shape = x.data.shape

    def grad_fn(g):
        if axis is None:
            return (np.full(shape, float(g)),)
        g_exp = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g_exp, shape).copy(),)

    return _make(data, (x,), grad_fn)


def exp(x: Tensor) -> Tensor:
    data = np.exp(x.data)
    return _make(data, (x,), lambda g: (g * data,))


def log(x: Tensor) -> Tensor:
    data = np.log(x.data)
    x_val = x.data
    return _make(data, (x,), lambda g: (g / x_val,))


# ---------------------------------------------------------------------------
# activations

_LEAKY_SLOPE = 0.2


def tanh(x: Tensor) -> Tensor:
    data = np.tanh(x.data)
    return _make(data, (x,), lambda g: (g * (1.0 - data * data),))


def sigmoid(x: Tensor) -> Tensor:
    data = _sigmoid_stable(x.data)
    return _make(data, (x,), lambda g: (g * data * (1.0 - data),))


def _sigmoid_stable(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def relu(x: Tensor) -> Tensor:
    data = np.maximum(x.data, 0.0)
    mask = x.data > 0.0
    return _make(data, (x,), lambda g: (g * mask,))


def leaky_relu(x: Tensor, slope: float = _LEAKY_SLOPE) -> Tensor:
    data = np.where(x.data > 0.0, x.data, slope * x.data)
    scale = np.where(x.data > 0.0, 1.0, slope)
    return _make(data, (x,), lambda g: (g * scale,))


def relu6(x: Tensor) -> Tensor:
    data = np.clip(x.data, 0.0, 6.0)
    # Left subgradient at both kinks: 0 at x=0, 1 at x=6.
    mask = (x.data > 0.0) & (x.data <= 6.0)
    return _make(data, (x,), lambda g: (g * mask,))


def elu(x: Tensor) -> Tensor:
    neg = np.minimum(x.data, 0.0)  # keeps exp off the positive tail
    data = np.where(x.data > 0.0, x.data, np.expm1(neg))
    scale = np.where(x.data > 0.0, 1.0, np.exp(neg))
    return _make(data, (x,), lambda g: (g * scale,))


def softplus(x: Tensor) -> Tensor:
    # max(x, 0) + log1p(exp(-|x|)) avoids overflow on both tails.
    data = np.maximum(x.data, 0.0) + np.log1p(np.exp(-np.abs(x.data)))
    x_val = x.data
    return _make(data, (x,), lambda g: (g * _sigmoid_stable(x_val),))


def identity(x: Tensor) -> Tensor:
    return x


ACTIVATIONS = {
    "sigmoid": sigmoid,
    "tanh": tanh,
    "relu": relu,
    "linear": identity,
    "softplus": softplus,
    "leaky_relu": leaky_relu,
    "relu6": relu6,
    "elu": elu,
}


def activation(kind: str, x: Tensor) -> Tensor:
    try:
        fn = ACTIVATIONS[kind]
    except KeyError:
        raise ParameterError(f"unknown activation kind {kind!r}") from None
    return fn(x)


# ---------------------------------------------------------------------------
# segment operations (reductions over groups of rows, axis 0)


def _segments(x: Tensor, segment_ids, n_segments: int) -> IndexPlan:
    if n_segments <= 0:
        raise ParameterError("n_segments must be positive")
    plan = _plan(segment_ids, n_segments)
    if plan.ids.shape[0] != x.data.shape[0]:
        raise ShapeError(f"segment ids shape {plan.ids.shape} does not match rows {x.data.shape[0]}")
    return plan


def segment_sum(x: Tensor, segment_ids, n_segments: int) -> Tensor:
    """Per-segment sum; rows are added in row order, bitwise as ``np.add.at``.

    ``segment_ids`` here and in the other segment ops is an id array or
    an ``IndexPlan`` over ``n_segments`` ids.
    """
    seg = _segments(x, segment_ids, n_segments).ids
    data = _scatter_add(x.data, seg, n_segments)
    return _make(data, (x,), lambda g: (g[seg],))


def segment_mean(x: Tensor, segment_ids, n_segments: int) -> Tensor:
    plan = _segments(x, segment_ids, n_segments)
    inv = (1.0 / plan.counts).reshape((n_segments,) + (1,) * (x.data.ndim - 1))
    return mul(segment_sum(x, plan, n_segments), _as_tensor(inv))


def segment_max(x: Tensor, segment_ids, n_segments: int) -> Tensor:
    """Per-segment elementwise max; gradient routes to the first maximizer.

    ``np.maximum.reduceat`` over the stably sorted rows gives the max
    exactly, so values are bitwise those of ``np.maximum.at``. The
    winner is the lowest row equal to the max, so ties go to the lowest
    row index and results do not depend on edge ordering beyond the
    canonical one. A NaN max equals no row; its gradient goes to the
    segment's first row, and the NaN flows on to the loss check. Each
    (winner, column) pair is distinct, so the backward is a plain
    assignment. Winners are found in the backward, so a forward that is
    only evaluated does not pay for them.
    """
    plan = _segments(x, segment_ids, n_segments)
    rows = x.data.shape[0]
    rest = x.data.shape[1:]
    flat = x.data.reshape(rows, -1)
    width = flat.shape[1]
    order, starts = plan.grouping
    counts = plan.counts
    out = np.maximum.reduceat(flat[order], starts, axis=0)

    def grad_fn(g):
        hits = np.where(flat[order] == np.repeat(out, counts, axis=0), order[:, None], rows)
        winner = np.minimum.reduceat(hits, starts, axis=0)
        winner = np.where(winner == rows, order[starts][:, None], winner)
        gx = np.zeros((rows, width), dtype=np.float64)
        gx[winner, np.arange(width)] = g.reshape(n_segments, width)
        return (gx.reshape((rows,) + rest),)

    return _make(out.reshape((n_segments,) + rest), (x,), grad_fn)


def segment_softmax(scores: Tensor, segment_ids, n_segments: int) -> Tensor:
    """Softmax within each segment of rows, numerically stabilized.

    The per-segment max (as in ``segment_max``, bitwise exact) is
    subtracted as a constant; softmax is shift invariant so the gradient
    is still exact. Non-finite scores give non-finite outputs.
    """
    plan = _segments(scores, segment_ids, n_segments)
    flat = scores.data.reshape(scores.data.shape[0], -1)
    order, starts = plan.grouping
    seg_max = np.maximum.reduceat(flat[order], starts, axis=0)
    shift = _as_tensor(seg_max.reshape((n_segments,) + scores.data.shape[1:])[plan.ids])
    exp_scores = exp(sub(scores, shift))
    denom = segment_sum(exp_scores, plan, n_segments)
    return div(exp_scores, gather_rows(denom, plan))


# ---------------------------------------------------------------------------
# losses


def cross_entropy(logits: Tensor, labels, mask_index, l2_lambda: float = 0.0, l2_params=()) -> Tensor:
    """Mean softmax cross-entropy over the masked rows of ``logits``."""
    idx = np.asarray(mask_index, dtype=np.int64)
    if idx.size == 0:
        raise ParameterError("loss over an empty mask")
    y = np.asarray(labels, dtype=np.int64)[idx]
    n_classes = logits.data.shape[1]
    if y.min() < 0 or y.max() >= n_classes:
        raise ParameterError(f"label out of range for {n_classes} classes")
    rows = gather_rows(logits, idx)
    row_max = _as_tensor(rows.data.max(axis=1, keepdims=True))
    shifted = sub(rows, row_max)
    log_norm = log(reduce_sum(exp(shifted), axis=1, keepdims=True))
    log_probs = sub(shifted, log_norm)
    onehot = np.zeros((idx.size, n_classes))
    onehot[np.arange(idx.size), y] = 1.0
    picked = reduce_sum(mul(log_probs, _as_tensor(onehot)))
    out = mul(picked, _as_tensor(-1.0 / idx.size))
    return _add_l2(out, l2_lambda, l2_params)


def binary_cross_entropy(logits: Tensor, labels, mask_index, l2_lambda: float = 0.0, l2_params=()) -> Tensor:
    """Mean sigmoid cross-entropy over masked rows, all labels pooled."""
    idx = np.asarray(mask_index, dtype=np.int64)
    if idx.size == 0:
        raise ParameterError("loss over an empty mask")
    y = np.asarray(labels, dtype=np.float64)[idx]
    rows = gather_rows(logits, idx)
    if y.shape != rows.data.shape:
        raise ShapeError(f"label shape {y.shape} != logits shape {rows.data.shape}")
    # softplus(z) - z*y is the stable form of -[y log s(z) + (1-y) log(1-s(z))].
    per_entry = sub(softplus(rows), mul(rows, _as_tensor(y)))
    out = mul(reduce_sum(per_entry), _as_tensor(1.0 / y.size))
    return _add_l2(out, l2_lambda, l2_params)


def loss(task_kind: str, logits: Tensor, labels, mask_index, l2_lambda: float = 0.0, l2_params=()) -> Tensor:
    if task_kind == "single":
        return cross_entropy(logits, labels, mask_index, l2_lambda, l2_params)
    if task_kind == "multi":
        return binary_cross_entropy(logits, labels, mask_index, l2_lambda, l2_params)
    raise ParameterError(f"unknown task kind {task_kind!r}")


def _add_l2(base: Tensor, l2_lambda: float, params) -> Tensor:
    if l2_lambda < 0:
        raise ParameterError("l2_lambda must be non-negative")
    if l2_lambda == 0.0 or not params:
        return base
    penalty = None
    for p in params:
        term = reduce_sum(mul(p, p))
        penalty = term if penalty is None else add(penalty, term)
    return add(base, mul(penalty, _as_tensor(l2_lambda)))


# ---------------------------------------------------------------------------
# initialization, dropout, optimizer


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape=None) -> Tensor:
    """Glorot uniform draw: bound sqrt(6 / (fan_in + fan_out))."""
    if fan_in < 1 or fan_out < 1:
        raise ParameterError(f"glorot fans must be positive, got {fan_in}, {fan_out}")
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    if shape is None:
        shape = (fan_in, fan_out)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def uniform_param(rng: np.random.Generator, shape, bound: float = 0.1) -> Tensor:
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def dropout(x: Tensor, p: float, rng: np.random.Generator | None = None, training: bool = True) -> Tensor:
    """Inverted dropout: kept entries scaled by 1/(1-p). Identity at inference."""
    if not 0.0 <= p < 1.0:
        raise ParameterError(f"dropout rate must lie in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    if rng is None:
        raise ParameterError("dropout in training mode needs an rng")
    mask = (rng.random(x.data.shape) >= p) / (1.0 - p)
    return mul(x, _as_tensor(mask))


@dataclass
class AdamState:
    """First/second moment estimates plus the shared step counter."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)

    @classmethod
    def init(cls, params: list, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> "AdamState":
        if lr <= 0:
            raise ParameterError("learning rate must be positive")
        state = cls(lr=lr, beta1=beta1, beta2=beta2, eps=eps)
        state.m = [np.zeros_like(p.data) for p in params]
        state.v = [np.zeros_like(p.data) for p in params]
        return state


def adam_step(state: AdamState, params: list, grads: list) -> list:
    """One Adam update with bias correction. Returns the updated params."""
    if len(params) != len(state.m) or len(grads) != len(params):
        raise ParameterError("adam_step: params/grads length does not match state")
    state.step += 1
    t = state.step
    for i, (p, g) in enumerate(zip(params, grads)):
        g = np.asarray(g, dtype=np.float64)
        if g.shape != p.data.shape:
            raise ShapeError(f"grad shape {g.shape} != param shape {p.data.shape}")
        state.m[i] = state.beta1 * state.m[i] + (1.0 - state.beta1) * g
        state.v[i] = state.beta2 * state.v[i] + (1.0 - state.beta2) * g * g
        m_hat = state.m[i] / (1.0 - state.beta1 ** t)
        v_hat = state.v[i] / (1.0 - state.beta2 ** t)
        # Assign a fresh array: closures from earlier forwards may hold the old one.
        p.data = p.data - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return params


def zero_grads(params) -> None:
    for p in params:
        p.grad = None
