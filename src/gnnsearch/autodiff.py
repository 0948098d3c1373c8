"""Dense tensors with tape-based reverse-mode differentiation.

A tensor holds a float32 or a float64 numpy array, and every op keeps
its inputs' dtype: its output and the gradients it returns have it too.
Child models run in float32 and the controller in float64. Sums and
maxima over rows by id (``IndexPlan.sum`` and ``max``) fold each id's
rows in index order, a sum from 0.0, in the rows' dtype (numerics
version 4), so every path gives the same bits in either dtype; the one
float32 sum whose terms cancel by construction, in ``segment_softmax``'s
backward, adds in float64 and rounds once. A constant that meets a
tensor takes the tensor's dtype (``constant``): under numpy's promotion
rules a float64 array, even a 0-d one, would turn a float32 operand into
float64. Python scalars do not promote.

A primitive whose inputs need a gradient stores them and its backward
rule on its output tensor, so every recorded output is a tape node;
``Tensor.backward`` replays the tape in reverse topological order and
accumulates gradients on every leaf tensor that requires them. A tape
is single-use: the backward frees it as it goes. Each node gives up its
inputs and its backward rule (and so the arrays the rule saved) once it
has run, and the rule is handed the only reference to an intermediate
gradient, so a rule that rebinds it (``g = g * inv``) frees it while it
runs; only the leaves and the root keep a ``.grad``. A second backward
through a consumed tape raises ``ParameterError``. An op computes no
gradient for an operand that needs none.

A rule keeps no more than it needs of a node-sized array: ``relu``,
``leaky_relu`` and ``dropout`` keep bool masks, and a ``Levels`` walk
allocates its output only once its first block's levels are folded and
frees each level's rows before it builds the next.

No op writes into an existing array: an op's output is a new array, a
view of its input (``reshape``, ``head_matmul``) or its input's array
(``gather_rows`` of every row in order), so values captured by
backward closures stay valid. ``adam_step`` is the one writer: it
updates the parameters in place, in the flat buffer ``AdamState.init``
moved them into. So every tape over a parameter set must be consumed or
dropped before its step, and a forward's output describes the
parameters it was computed from only until the next step;
``gnn.train_child`` reuses one only before that step. A snapshot of
parameter values is a copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParameterError, ShapeError


_FLOAT32 = np.dtype(np.float32)


def as_float(data) -> np.ndarray:
    """``data`` as a float array: a float32 array as it is, anything else
    as float64 (no copy when it already is)."""
    data = np.asarray(data)
    return data if data.dtype == _FLOAT32 else data.astype(np.float64, copy=False)


class Tensor:
    """A dense float32 or float64 array plus optional gradient bookkeeping.

    A float32 array is kept as it is; anything else becomes float64.

    An op's output that needs a gradient is its own tape node: ``inputs``
    holds the operands and ``grad_fn`` maps the output's gradient to one
    gradient (or None) per operand. Leaves and constants keep both None.
    A node that a backward has run keeps no inputs and a rule that raises.
    """

    __slots__ = ("data", "requires_grad", "grad", "inputs", "grad_fn", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = as_float(data)
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
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise ShapeError(f"seed gradient shape {grad.shape} != {self.data.shape}")
        nodes = Tape.trace(self).nodes  # raises, changing nothing, on a consumed tape
        self.grad = grad if self.grad is None else self.grad + grad
        while nodes:
            node = nodes.pop()
            out_grad = [node.grad]
            if node is not self:
                node.grad = None
            inputs, grad_fn = node.inputs, node.grad_fn
            node.inputs, node.grad_fn = None, _consumed
            del node  # do not keep its array alive while the rule runs
            if out_grad[0] is not None:
                # The rule gets the only reference to an intermediate
                # gradient, so a rule that rebinds it frees it.
                _add_grads(inputs, grad_fn(out_grad.pop()))

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


def _add_grads(inputs: tuple, grads) -> None:
    """Add a rule's gradients (one or None per input) to its inputs that
    need one."""
    for tensor, grad in zip(inputs, grads):
        if grad is not None and tensor.requires_grad:
            tensor.grad = grad if tensor.grad is None else tensor.grad + grad


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


def constant(value, like: Tensor) -> Tensor:
    """``value`` as a constant tensor in ``like``'s dtype."""
    return Tensor(np.asarray(value, dtype=like.data.dtype))


def record(data: np.ndarray, inputs: tuple, grad_fn) -> Tensor:
    """The output ``data`` of an op on ``inputs``, recorded as a tape node
    with backward rule ``grad_fn`` if any input needs a gradient.

    ``grad_fn`` maps the output's gradient to one gradient (or None) per
    input. Every op in this module records through here, and so does a
    composite op written elsewhere (``Controller``'s walk).
    """
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

    return record(data, (a, b), grad_fn)


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = a.data - b.data
    a_shape, b_shape = a.data.shape, b.data.shape
    need_a, need_b = a.requires_grad, b.requires_grad

    def grad_fn(g):
        return (_unbroadcast(g, a_shape) if need_a else None, _unbroadcast(-g, b_shape) if need_b else None)

    return record(data, (a, b), grad_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data
    a_val, b_val = a.data, b.data
    need_a, need_b = a.requires_grad, b.requires_grad

    def grad_fn(g):
        return (
            _unbroadcast(g * b_val, a_val.shape) if need_a else None,
            _unbroadcast(g * a_val, b_val.shape) if need_b else None,
        )

    return record(data, (a, b), grad_fn)


def div(a: Tensor, b: Tensor) -> Tensor:
    data = a.data / b.data
    a_shape, b_val, out_val = a.data.shape, b.data, data
    need_a, need_b = a.requires_grad, b.requires_grad

    def grad_fn(g):
        ga = _unbroadcast(g / b_val, a_shape) if need_a else None
        gb = _unbroadcast(-g * out_val / b_val, b_val.shape) if need_b else None
        return (ga, gb)

    return record(data, (a, b), grad_fn)


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

    return record(data, (a, b), grad_fn)


def _heads(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """[N, K, D] by [K, D, F] per head: one batched ``np.matmul``, so each
    head is a BLAS gemm, returned as a transposed (not contiguous) view."""
    return np.matmul(x.transpose(1, 0, 2), w).transpose(1, 0, 2)


def _heads_grad(g: np.ndarray, x: np.ndarray, w: np.ndarray, need_x: bool, need_w: bool) -> tuple:
    """The gradients of ``_heads(x, w)`` for an output gradient ``g``."""
    g_heads = g.transpose(1, 0, 2)
    gx = np.matmul(g_heads, w.transpose(0, 2, 1)).transpose(1, 0, 2) if need_x else None
    gw = np.matmul(x.transpose(1, 2, 0), g_heads) if need_w else None
    return gx, gw


def head_matmul(x: Tensor, w: Tensor) -> Tensor:
    """Per-head matrix product: [N, K, D] with [K, D, E] -> [N, K, E].

    The output is a transposed view of one batched BLAS product (not
    contiguous). It agrees with the per-head product up to BLAS rounding
    in the last bits; BLAS products are the only message-passing kernels
    whose results are not bitwise fixed.
    """
    if x.data.ndim != 3 or w.data.ndim != 3:
        raise ShapeError(f"head_matmul expects 3-d operands, got {x.data.shape} and {w.data.shape}")
    if x.data.shape[1] != w.data.shape[0] or x.data.shape[2] != w.data.shape[1]:
        raise ShapeError(f"head_matmul dims differ: {x.data.shape} with {w.data.shape}")
    x_val, w_val = x.data, w.data
    need_x, need_w = x.requires_grad, w.requires_grad
    return record(_heads(x_val, w_val), (x, w), lambda g: _heads_grad(g, x_val, w_val, need_x, need_w))


# Padding cells per level from which a sum or max walks a plan's
# ``Levels`` instead of padding every id's rows to the most rows of any id
# and reducing them at once (``IndexPlan.sum`` and ``max``): below it the
# per-level calls cost more. Measured for maxima on the benchmark's
# 400-node SBM (24 levels) and 60-node multigraph graphs (14-16 levels).
LEVEL_MIN_CELLS = 1000


class Levels:
    """An exact reduction order for rows grouped by id.

    Level k holds the k-th row, in index order, of each id with more than
    k rows. Ids are ranked by row count, most first, so the ids of level k
    are a prefix ``rows[:m]`` of one list and its rows a run
    ``order[lo:lo + m]`` (``spans`` lists (lo, m) per level). A reduction
    takes one level's rows at a time and combines them into the first m
    accumulators with one ufunc call, the accumulator first. So every id
    still combines its rows in index order: a sum is bitwise ``np.add.at``
    into zeros and a max bitwise ``np.maximum.at`` into -inf, signed zeros
    and infinities included, in the rows' dtype; a NaN result is NaN, with
    the sign and payload left to numpy. ``walk`` is the one such
    reduction, for rows that are built level by level, and a max walk can
    note each winning row as it goes; ``sum`` walks rows taken from one
    array. Results are in id order. Building the plan costs about two
    stable sorts of the ids, so an ``IndexPlan`` builds one only where it
    walks (see there).
    """

    def __init__(self, ids: np.ndarray, n: int, order: np.ndarray):
        counts = np.bincount(ids, minlength=n)
        ranked = np.argsort(-counts, kind="stable")
        place = np.empty_like(ranked)
        place[ranked] = np.arange(n)
        grouped = ids.take(order)
        depth = np.arange(ids.size) - (np.cumsum(counts) - counts).take(grouped)  # each row's level
        self.n = n
        self.order = order.take(np.argsort(depth * n + place.take(grouped), kind="stable"))
        sizes = np.cumsum(np.bincount(counts)[::-1])[::-1][1:]  # ids with more than k rows
        self.rows = ranked[:int(sizes[0]) if sizes.size else 0]
        self.spans = list(zip((np.cumsum(sizes) - sizes).tolist(), sizes.tolist()))

    def blocks(self, width: int):
        """The ids in blocks ``rows[block]`` of at most ``EDGE_CHUNK_BYTES``
        of float64 for ``width`` values per id: yields (block, steps), where
        ``steps`` holds one (lo, m) per level that reaches the block, level
        0 first, for the positions ``order[lo:lo + m]`` of its rows. Row j
        of a step belongs to id ``rows[block][j]``, and step 0 spans the
        block."""
        size = max(1, EDGE_CHUNK_BYTES // (8 * width))
        ranked = len(self.rows)
        for b0 in range(0, ranked, size):
            b1 = min(b0 + size, ranked)
            yield slice(b0, b1), self.spans if b1 - b0 == ranked else [
                (lo + b0, min(m, b1) - b0) for lo, m in self.spans if m > b0]

    def walk(self, rest: tuple, dtype, level_rows, fold=np.add, winners: np.ndarray | None = None) -> np.ndarray:
        """Reduce rows by id, level by level, block by block, into a new
        [n, *rest] array of ``dtype``.

        ``level_rows(block, steps)`` yields, for each step of a block (see
        ``blocks``), that step's rows as a new array; the walk drops them
        (and a block's accumulator) once they are folded, before it asks
        for the next step's. ``fold`` is ``np.add``, a sum that starts at
        0.0, or ``np.maximum``, a max; either folds in the rows' dtype,
        ``dtype``. The output is allocated once the first block's levels
        are folded, so it is not alive while they are built; each block's
        result is assigned into it, and ids without rows get 0.0 (all of
        them where there are no rows). For a max,
        ``winners`` ([n, *rest]), if given, gets each (id, column)'s first
        row equal to the max, as a position in the ids the plan was built
        from, or the id's first row where the max is NaN.
        """
        shape = (self.n,) + rest
        out = None
        for block, steps in self.blocks(math.prod(rest)):
            k = 0  # not enumerate: its result tuple keeps the last rows alive
            for rows in level_rows(block, steps):
                if k == 0:
                    acc = rows
                    if fold is np.add:
                        acc += 0.0  # np.add.at's 0.0 + x: turns -0.0 into 0.0
                    if winners is not None:  # each (id, column)'s winning level
                        level = np.zeros(rows.shape, dtype=np.min_scalar_type(len(steps)))
                else:
                    m = len(rows)
                    top = acc[:m]
                    if winners is not None:
                        # the last level to exceed the running max holds the
                        # first row equal to the max
                        np.maximum(level[:m], np.multiply(rows > top, k, dtype=level.dtype), out=level[:m])
                    fold(top, rows, out=top)
                    del top
                del rows  # freed before the next level's rows are built
                k += 1
            ids = self.rows[block]
            if out is None:
                out = (np.zeros if len(self.rows) < self.n else np.empty)(shape, dtype=dtype)
            out[ids] = acc
            if winners is not None:
                level *= acc == acc  # a NaN max: the id's first row, at level 0
                place = np.array([lo for lo, _ in steps]).take(level)
                place += np.arange(block.stop - block.start).reshape((-1,) + (1,) * (level.ndim - 1))
                winners[ids] = self.order.take(place)
            del acc  # freed before the next block's rows are built
        return np.zeros(shape, dtype=dtype) if out is None else out

    def _taken(self, values: np.ndarray):
        """``level_rows`` for ``walk`` that takes each step's rows of ``values``."""
        values = np.ascontiguousarray(values)  # take copies a strided input whole
        return lambda _, steps: (values.take(self.order[lo:lo + m], axis=0) for lo, m in steps)

    def sum(self, values: np.ndarray) -> np.ndarray:
        """The rows of ``values`` summed by id in their dtype, [n, ...]."""
        return self.walk(values.shape[1:], values.dtype, self._taken(values))


def _fold_rows(rows: np.ndarray, fold=np.add, initial: float = 0.0) -> np.ndarray:
    """``fold`` (``np.add`` or ``np.maximum``) over axis 0 of ``rows``,
    [C, ...], one row at a time in order from ``initial``, the accumulator
    first, in their dtype: numpy reduces along an axis that is not the
    fastest in memory row by row, and a single column, which it would
    reduce pairwise or in SIMD lanes, is folded cumulatively instead."""
    cells = rows.reshape(len(rows), math.prod(rows.shape[1:]))
    if cells.shape[1] == 1:
        total = fold.accumulate(np.concatenate((np.full(1, initial, dtype=cells.dtype), cells[:, 0])))[-1:]
    else:
        total = fold.reduce(cells, axis=0, initial=initial)
    return total.reshape(rows.shape[1:])


def _holds_bool(values) -> bool:
    """Whether a (nested) list or tuple holds a bool."""
    return any(_holds_bool(v) if isinstance(v, (list, tuple)) else isinstance(v, (bool, np.bool_)) for v in values)


def _ids(ids, what: str) -> np.ndarray:
    """``ids`` as int64; a bool or float id is refused, not truncated. A
    bool in a list is refused before numpy reads it as 0 or 1 among ints."""
    if isinstance(ids, (list, tuple)) and _holds_bool(ids):
        raise ParameterError(f"{what} must hold integers, got a bool")
    ids = np.asarray(ids)
    if ids.size and ids.dtype.kind not in "iu":
        raise ParameterError(f"{what} must hold integers, got dtype {ids.dtype}")
    return ids.astype(np.int64, copy=False)


class IndexPlan:
    """Row ids into ``n`` rows, range-checked once, when built, and the
    reductions of rows by id: ``sum`` and ``max`` (with its winners).

    What the reductions need from the ids (rows per id, a stable row order
    grouped by id, each id's rows laid out down a column (``slots``), and
    the ``Levels``) is worked out on first use and kept. Both reductions
    pad every id's rows to the most rows of any id, as ``slots`` lays them
    out, and reduce them at once, or walk the ``Levels`` where that padding
    would add ``LEVEL_MIN_CELLS`` cells per level or more (``_padded``).
    Every path gives the same bits. A graph's ``EdgePlan`` keeps one plan
    for its edge sources and one for its destinations; given raw ids,
    ``gather_rows`` and the segment ops build a plan for that call.
    """

    def __init__(self, ids, n: int):
        ids = _ids(ids, "index")
        if ids.ndim != 1:
            raise ShapeError(f"index must be 1-d, got shape {ids.shape}")
        if ids.size and (ids.min() < 0 or ids.max() >= n):
            raise ParameterError(f"index out of range for {n} rows")
        self.ids = ids
        self.n = n

    @cached_property
    def runs(self) -> np.ndarray:
        """Rows per id, 0 for an id without rows."""
        return np.bincount(self.ids, minlength=self.n)

    @cached_property
    def counts(self) -> np.ndarray:
        """Rows per id; a mean or max over an id with no rows has no value."""
        counts = self.runs
        if not counts.all():
            raise ParameterError(f"segment {int(np.argmin(counts))} is empty")
        return counts

    @cached_property
    def order(self) -> np.ndarray:
        """Row positions grouped by id, keeping index order inside each group.

        Sorting a narrow unsigned copy of the ids lets numpy use radix
        sort (up to 65536 ids).
        """
        return np.argsort(self.ids.astype(np.min_scalar_type(self.n - 1)), kind="stable")

    @cached_property
    def depth(self) -> int:
        """The most rows of any id."""
        return int(self.runs.max(initial=0))

    @cached_property
    def slots(self) -> np.ndarray:
        """[depth, n]: at [j, i], the position of id i's j-th row in index
        order, or ``len(ids)`` where id i has j rows or fewer."""
        runs, order = self.runs, self.order
        grouped = self.ids.take(order)
        nth = np.arange(self.ids.size) - (np.cumsum(runs) - runs).take(grouped)
        slots = np.full((self.depth, self.n), self.ids.size)
        slots[nth, grouped] = order
        return slots

    @cached_property
    def levels(self) -> Levels:
        return Levels(self.ids, self.n, self.order)

    def _padded(self, values: np.ndarray, fill: float):
        """The rows of ``values`` laid out as ``slots`` lays them out,
        [depth, n, width], with ``fill`` in the padding; or None where the
        padding would add ``LEVEL_MIN_CELLS`` cells per level or more, and
        the reduction walks the ``Levels`` instead."""
        width = math.prod(values.shape[1:])
        if (self.depth * self.n - self.ids.size) * width >= LEVEL_MIN_CELLS * self.depth:
            return None
        rows = np.empty((self.ids.size + 1, width), dtype=values.dtype)
        rows[:-1] = values.reshape(-1, width)
        rows[-1] = fill
        return rows.take(self.slots, axis=0)

    def sum(self, values: np.ndarray) -> np.ndarray:
        """The rows of ``values`` summed by id, [n, ...], in their dtype.

        Each cell adds its rows in index order, starting from 0.0, in the
        rows' dtype, so the sum is bitwise ``np.add.at`` into zeros of that
        dtype (-0.0 rows give 0.0). The padded rows are zeros, and the sum
        folds them with the rest (``_fold_rows``). ``np.add.reduceat`` over
        grouped rows is not bitwise: it adds each group's first row last.
        (A NaN sum is NaN on every path, but its sign and payload can
        differ: ``np.add.at`` and the walk's folds disagree there.)
        """
        padded = self._padded(values, 0.0)
        if padded is None:
            return self.levels.sum(values)
        return _fold_rows(padded).reshape((self.n,) + values.shape[1:])

    def max(self, values: np.ndarray, winners: bool = False) -> tuple:
        """(max, winners): the elementwise max of each id's rows, [n, ...],
        and with ``winners`` each cell's first row equal to it, [n, ...],
        or the id's first row where the max is NaN and so equals none (else
        None). Each cell folds its rows in index order, the accumulator
        first, in the rows' dtype: bitwise ``np.maximum.at`` into -inf,
        which the padded rows hold.
        """
        self.counts  # raises on an id without rows
        shape = (self.n,) + values.shape[1:]
        padded = self._padded(values, -np.inf)
        if padded is None:
            won = np.empty(shape, dtype=self.order.dtype) if winners else None
            return self.levels.walk(shape[1:], values.dtype, self.levels._taken(values), np.maximum, won), won
        out = _fold_rows(padded, np.maximum, -np.inf)
        if not winners:
            return out.reshape(shape), None
        first = (padded == out).argmax(axis=0)  # a NaN max equals no row: 0, the id's first
        return out.reshape(shape), self.slots[first, np.arange(self.n)[:, None]].reshape(shape)


# Bytes of one float64 block of ids of the fused edge ops' level walks
# (``Levels.blocks``), and of the [C, K, D] blocks of edges that
# gene-linear's w_a gradient adds onto its one running total.
EDGE_CHUNK_BYTES = 8 * 2**20

# Bytes of one [E, K, D] temporary from which the fused edge ops walk
# their reduction's ``Levels`` over node rows instead of making one pass
# over the edges (``EdgePlan.walks``). Below it the one pass is faster;
# above it each [E, K, D] temporary is a fresh mapping that the kernel
# zero-fills page by page on every call. Measured per forward plus
# backward on the benchmark's 400-node SBM (walked from K * D = 64 in
# float32) and 60-node multigraph graphs (never walked).
WALK_MIN_BYTES = 2**20


class EdgePlan:
    """What message passing needs from a graph's edges, worked out once.

    ``src`` and ``dst`` are ``IndexPlan``s over the ``n`` nodes;
    ``dst_far`` and ``src_far`` hold the other end's node of every edge in
    ``dst.levels.order`` and ``src.levels.order``, for the level walks that
    the fused edge ops take where their temporaries are wide (``walks``);
    ``gcn_norm`` is 1/sqrt(deg(dst) deg(src)) per edge, from the given
    in-degrees.
    """

    def __init__(self, src, dst, n: int, degrees):
        self.src = IndexPlan(src, n)
        self.dst = IndexPlan(dst, n)
        if self.src.ids.shape != self.dst.ids.shape:
            raise ShapeError(f"{self.src.ids.shape[0]} sources for {self.dst.ids.shape[0]} destinations")
        self._degrees = degrees

    @property
    def edge_count(self) -> int:
        return self.src.ids.shape[0]

    @cached_property
    def gcn_norm(self) -> np.ndarray:
        deg = np.asarray(self._degrees, dtype=np.float64)
        return 1.0 / np.sqrt(deg[self.dst.ids] * deg[self.src.ids])

    def walks(self, width: int, itemsize: int) -> bool:
        """Whether a fused op with ``width`` floats of ``itemsize`` bytes
        per edge walks levels: from ``WALK_MIN_BYTES`` per [E, width]."""
        return self.edge_count * width * itemsize >= WALK_MIN_BYTES

    @cached_property
    def dst_far(self) -> np.ndarray:
        return self.src.ids.take(self.dst.levels.order)

    @cached_property
    def src_far(self) -> np.ndarray:
        return self.dst.ids.take(self.src.levels.order)


def _plan(index, n: int) -> IndexPlan:
    if isinstance(index, IndexPlan):
        if index.n != n:
            raise ShapeError(f"index plan covers {index.n} rows, expected {n}")
        return index
    return IndexPlan(index, n)


def gather_rows(x: Tensor, index) -> Tensor:
    """Select rows along axis 0; backward scatter-adds into the source.

    ``index`` is an id array or an ``IndexPlan`` over ``x``'s rows. The
    backward adds repeated rows in index order (``IndexPlan.sum``), so it
    is bitwise equal to ``np.add.at``. Ids that are every row in order (a
    loss over a whole graph) return ``x``'s own array, and the backward
    returns ``g + 0.0``: the same bits as ``np.add.at``'s ``0.0 + g``.
    """
    n_rows = x.data.shape[0]
    plan = _plan(index, n_rows)
    idx = plan.ids
    if idx.size == n_rows and (idx == np.arange(n_rows)).all():
        return record(x.data, (x,), lambda g: (g + 0.0,))
    data = x.data.take(idx, axis=0)
    return record(data, (x,), lambda g: (plan.sum(g),))


def concat(tensors: list, axis: int = 0) -> Tensor:
    if not tensors:
        raise ParameterError("concat of an empty list")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    bounds = np.cumsum(sizes)[:-1]

    def grad_fn(g):
        return tuple(np.split(g, bounds, axis=axis))

    return record(data, tuple(tensors), grad_fn)


def reshape(x: Tensor, shape: tuple) -> Tensor:
    data = x.data.reshape(shape)
    old = x.data.shape
    return record(data, (x,), lambda g: (g.reshape(old),))


def reduce_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if isinstance(axis, int) and axis < 0:
        axis = x.data.ndim + axis
    data = x.data.sum(axis=axis, keepdims=keepdims)
    shape, dtype = x.data.shape, x.data.dtype

    def grad_fn(g):
        if axis is None:
            return (np.full(shape, g, dtype=dtype),)
        g_exp = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g_exp, shape).copy(),)

    return record(data, (x,), grad_fn)


def exp(x: Tensor) -> Tensor:
    data = np.exp(x.data)
    return record(data, (x,), lambda g: (g * data,))


def log(x: Tensor) -> Tensor:
    data = np.log(x.data)
    x_val = x.data
    return record(data, (x,), lambda g: (g / x_val,))


# ---------------------------------------------------------------------------
# activations

_LEAKY_SLOPE = 0.2


def tanh(x: Tensor) -> Tensor:
    data = np.tanh(x.data)
    return record(data, (x,), lambda g: (g * (1.0 - data * data),))


def sigmoid(x: Tensor) -> Tensor:
    data = stable_sigmoid(x.data)
    return record(data, (x,), lambda g: (g * data * (1.0 - data),))


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic function of an array, without overflow for large |x|."""
    e = np.exp(np.minimum(x, -x))  # exp(-|x|): never overflows
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def relu(x: Tensor) -> Tensor:
    data = np.maximum(x.data, 0.0)
    mask = x.data > 0.0
    return record(data, (x,), lambda g: (g * mask,))


def _leaky(a: np.ndarray, positive: np.ndarray) -> np.ndarray:
    """``a`` where the bool mask ``positive`` holds, ``_LEAKY_SLOPE * a``
    elsewhere, in ``a``'s dtype: bitwise ``a`` times a float scale of 1.0
    or the slope, rebuilt from the mask by one max (max(True, 0.2) = 1.0,
    max(False, 0.2) = 0.2)."""
    return a * np.maximum(positive, a.dtype.type(_LEAKY_SLOPE))


def leaky_relu(x: Tensor) -> Tensor:
    """``x`` where it is positive, ``_LEAKY_SLOPE * x`` elsewhere (NaN
    included). The node keeps a bool mask, as ``relu`` does."""
    positive = x.data > 0.0
    return record(_leaky(x.data, positive), (x,), lambda g: (_leaky(g, positive),))


def relu6(x: Tensor) -> Tensor:
    data = np.clip(x.data, 0.0, 6.0)
    # Left subgradient at both kinks: 0 at x=0, 1 at x=6.
    mask = (x.data > 0.0) & (x.data <= 6.0)
    return record(data, (x,), lambda g: (g * mask,))


def elu(x: Tensor) -> Tensor:
    neg = np.minimum(x.data, 0.0)  # keeps exp off the positive tail
    data = np.where(x.data > 0.0, x.data, np.expm1(neg))
    scale = np.where(x.data > 0.0, 1.0, np.exp(neg))
    return record(data, (x,), lambda g: (g * scale,))


def softplus(x: Tensor) -> Tensor:
    # max(x, 0) + log1p(exp(-|x|)) avoids overflow on both tails.
    data = np.maximum(x.data, 0.0) + np.log1p(np.exp(-np.abs(x.data)))
    x_val = x.data
    return record(data, (x,), lambda g: (g * stable_sigmoid(x_val),))


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
    plan = _segments(x, segment_ids, n_segments)
    seg = plan.ids
    return record(plan.sum(x.data), (x,), lambda g: (g.take(seg, axis=0),))


def segment_mean(x: Tensor, segment_ids, n_segments: int) -> Tensor:
    plan = _segments(x, segment_ids, n_segments)
    inv = (1.0 / plan.counts).reshape((n_segments,) + (1,) * (x.data.ndim - 1))
    return mul(segment_sum(x, plan, n_segments), constant(inv, x))


def segment_max(x: Tensor, segment_ids, n_segments: int) -> Tensor:
    """Per-segment elementwise max; gradient routes to the first maximizer.

    The max folds each segment's rows in row order, so values are bitwise
    those of ``np.maximum.at``. The winner is the lowest row equal to the
    max, so ties go to the lowest row index and results do not depend on
    edge ordering beyond the canonical one. A NaN max equals no row; its
    gradient goes to the segment's first row, and the NaN flows on to the
    loss check. The max notes the winners as it folds, and only where
    ``x`` needs a gradient. Each (winner, column) pair is distinct, so the
    backward is a plain assignment.
    """
    plan = _segments(x, segment_ids, n_segments)
    rows = x.data.shape[0]
    rest = x.data.shape[1:]
    flat = x.data.reshape(rows, -1)
    width = flat.shape[1]
    out, winners = plan.max(flat, x.requires_grad)

    def grad_fn(g):
        gx = np.zeros((rows, width), dtype=flat.dtype)
        gx[winners, np.arange(width)] = g.reshape(n_segments, width)
        return (gx.reshape((rows,) + rest),)

    return record(out.reshape((n_segments,) + rest), (x,), grad_fn)


def segment_softmax(scores: Tensor, segment_ids, n_segments: int) -> Tensor:
    """Softmax within each segment of rows, numerically stabilized; one
    tape node.

    The per-segment max (as in ``segment_max``, bitwise exact) is
    subtracted as a constant; softmax is shift invariant so the gradient
    is still exact. Values and gradients are those of the chain
    exp(x - max) / gather(segment_sum(exp(x - max))), computed by the same
    numpy calls, except that the backward's sum of float32 rows adds in
    float64 (see ``grad_fn``). Non-finite scores give non-finite outputs.
    """
    plan = _segments(scores, segment_ids, n_segments)
    ids = plan.ids
    seg_max, _ = plan.max(scores.data.reshape(scores.data.shape[0], -1))
    exp_scores = np.exp(scores.data - seg_max.reshape((n_segments,) + scores.data.shape[1:]).take(ids, axis=0))
    denom = plan.sum(exp_scores).take(ids, axis=0)
    data = exp_scores / denom

    def grad_fn(g):
        # This sum is the alpha-weighted mean of g, which every row then
        # subtracts from its own g: the terms cancel by construction, so
        # float32 rows add in float64 here and round once.
        total = plan.sum((-g * data / denom).astype(np.float64, copy=False)).astype(g.dtype, copy=False)
        g_exp = g / denom + total.take(ids, axis=0)
        return (g_exp * exp_scores,)

    return record(data, (scores,), grad_fn)


# ---------------------------------------------------------------------------
# fused message passing: one op scores the edges, one aggregates them
#
# Both take node-side [N, K, D] tensors and an ``EdgePlan``. Where one
# [E, K, D] temporary would be ``WALK_MIN_BYTES`` or more, both ops walk
# the graph's ``Levels`` (``Levels.blocks`` and ``walk``), forward and
# backward: each level's rows are gathered from node rows, scaled and
# folded into an accumulator of at most ``EDGE_CHUNK_BYTES`` per block of
# ids, so no per-edge [E, K, D] array exists. Below that size each op
# makes one pass over the edges in edge order and reduces through the
# graph's ``plan.src`` and ``plan.dst``; the backward gathers the rows
# again. A level walk groups the edges stably, so each node's edges keep
# edge order on either path, and both paths add every sum and take every
# max in the same order: they give the same bits. Scores and the sum, mean
# and max aggregations compute their values in the order of the per-kind
# op chains they replace, so they keep those bits; gradients reduce over D
# with einsum and agree with the chains' to rounding. Temporaries and sums
# hold the inputs' dtype (numerics version 4).


def _accumulate(total: np.ndarray | None, part: np.ndarray) -> np.ndarray:
    """``total + part``, where a None total means nothing yet; adds into
    ``total``, which the caller owns."""
    if total is None:
        return part
    total += part
    return total


def edge_scores(kind: str, z: Tensor, plan: EdgePlan, *weights: Tensor) -> Tensor:
    """The attention score of every edge, [E, K] (a generalized SDDMM).

    ``z`` holds the transformed node features [N, K, D]; the destination
    is the node that aggregates (i in the usual e_ij notation). The
    weights are the kind's own tensors, in this order:

    - ``const`` (1) and ``gcn`` (1/sqrt(deg_i deg_j)): none; constants.
    - ``gat``: a_l, a_r [K, D]; leaky_relu(a_l.z_i + a_r.z_j).
    - ``sym-gat``: a_l, a_r; the gat score of j -> i plus that of i -> j.
    - ``linear``: a_l; tanh(a_l.z_j).
    - ``cos``: w_l, w_r [K, D, D]; (z_i w_l).(z_j w_r).
    - ``gene-linear``: w_l, w_r, w_a [K, D]; w_a.tanh(z_i w_l + z_j w_r).

    Values are bitwise those of the per-kind op chain (gather both ends,
    combine, reduce over D).
    """
    e_count, heads = plan.edge_count, z.data.shape[1]
    if kind == "const":
        return Tensor(np.ones((e_count, heads), dtype=z.data.dtype))
    if kind == "gcn":
        norm = plan.gcn_norm.astype(z.data.dtype, copy=False)
        return Tensor(np.broadcast_to(norm[:, None], (e_count, heads)))
    if kind in ("gat", "sym-gat", "linear"):
        return _projected_scores(kind, z, plan, weights)
    if kind in ("cos", "gene-linear"):
        return _paired_scores(kind, z, plan, weights)
    raise ParameterError(f"unknown attention kind {kind!r}")


def _projected_scores(kind: str, z: Tensor, plan: EdgePlan, weights: tuple) -> Tensor:
    """gat, sym-gat and linear: each end is projected to one number per
    head first, so no per-edge [K, D] value exists and nothing is walked."""
    z_val = z.data
    src, dst = plan.src, plan.dst
    vectors = [w.data for w in weights]
    proj = [(z_val * a).sum(axis=-1) for a in vectors]  # [N, K] per weight
    if kind == "linear":
        data = np.tanh(proj[0].take(src.ids, axis=0))
    else:
        # (aggregating end, neighbour end) of each direction scored
        ends = [(dst, src), (src, dst)] if kind == "sym-gat" else [(dst, src)]
        data, positives = None, []  # a bool mask per direction, as leaky_relu keeps
        for i, j in ends:
            pre = proj[0].take(i.ids, axis=0) + proj[1].take(j.ids, axis=0)
            positives.append(pre > 0.0)
            data = _accumulate(data, _leaky(pre, positives[-1]))
    need_z = z.requires_grad

    def grad_fn(g):
        if kind == "linear":
            g_proj = [src.sum(g * (1.0 - data * data))]
        else:
            g_proj = [None, None]
            for (i, j), positive in zip(ends, positives):
                g_pre = _leaky(g, positive)
                g_proj[0] = _accumulate(g_proj[0], i.sum(g_pre))
                g_proj[1] = _accumulate(g_proj[1], j.sum(g_pre))
        gz, grads = None, []
        for tensor, a, g_p in zip(weights, vectors, g_proj):
            if need_z:
                gz = _accumulate(gz, g_p[:, :, None] * a)
            grads.append(np.einsum("nk,nkd->kd", g_p, z_val) if tensor.requires_grad else None)
        return (gz, *grads)

    return record(data, (z, *weights), grad_fn)


def _paired_scores(kind: str, z: Tensor, plan: EdgePlan, weights: tuple) -> Tensor:
    """cos and gene-linear: per-edge [K, D] pairs of the two ends' head
    products, reduced over D to one score per head.

    Where ``plan.walks`` an [E, K, D] temporary, the scores are built per
    destination level, a block of ids at a time: the block's rows of
    ``z w_l`` are read once and paired with each level's source rows of
    ``z w_r``. A score is a sum over D of one edge's row, so it has the
    same bits however the edges are grouped. The backward walks each
    end's levels too: for cos the destinations sum ``(z w_r).take(sources)
    * g`` and the sources ``(z w_l).take(destinations) * g``. Otherwise
    the pairs are built in one pass and rebuilt once in the backward,
    where gene-linear's w_a gradient reads them too. Either way that
    gradient sums the edges in destination-grouped order (``w_a_grad``).
    """
    z_val, n = z.data, plan.dst.n
    src, dst = plan.src, plan.dst
    w_l, w_r = weights[0].data, weights[1].data
    w_a = weights[2].data if kind == "gene-linear" else None
    # contiguous copies: rows gather faster from them than from the views
    left = np.ascontiguousarray(_heads(z_val, w_l))
    right = np.ascontiguousarray(_heads(z_val, w_r))
    heads, width = left.shape[1:]
    walked = plan.walks(heads * width, left.itemsize)

    def hidden(l_rows, r_rows, out):  # gene-linear's tanh(z_i w_l + z_j w_r), into ``out``
        return np.tanh(np.add(l_rows, r_rows, out=out), out=out)

    def scores(l_rows, r_rows):  # [C, K] from C rows of z_i w_l and z_j w_r; overwrites r_rows
        if w_a is None:
            return np.multiply(l_rows, r_rows, out=r_rows).sum(axis=-1)
        pair = hidden(l_rows, r_rows, out=r_rows)
        pair *= w_a
        return pair.sum(axis=-1)

    if walked:
        levels, far = plan.dst.levels, plan.dst_far
        data = np.empty((plan.edge_count, heads), dtype=left.dtype)
        for block, steps in levels.blocks(heads * width):
            near = left.take(levels.rows[block], axis=0)
            for lo, m in steps:
                data[levels.order[lo:lo + m]] = scores(near[:m], right.take(far[lo:lo + m], axis=0))
    else:
        data = scores(left.take(dst.ids, axis=0), right.take(src.ids, axis=0))
    need_z = z.requires_grad
    need_l, need_r = weights[0].requires_grad, weights[1].requires_grad
    need_a = w_a is not None and weights[2].requires_grad

    # The gradient of z_i w_l sums into the destinations and that of z_j w_r
    # into the sources: cos sums the other end's rows times g, gene-linear
    # g_pre = g w_a (1 - h^2) with h from both ends. Walked, each end walks
    # its own levels; in one pass, cos builds each end's rows in turn, and
    # gene-linear sums one g_pre into both ends.
    def g_pre(g_e, h):  # gene-linear's rows for C edges, from h, which it overwrites
        rows = g_e[:, :, None] * w_a
        h *= h
        rows *= np.subtract(1.0, h, out=h)
        return rows

    def walked_total(name, g):
        levels, far_ids = (plan.dst.levels, plan.dst_far) if name == "dst" else (plan.src.levels, plan.src_far)
        own, other = (left, right) if name == "dst" else (right, left)
        g_walk = g.take(levels.order, axis=0)

        def level_rows(block, steps):
            near = own.take(levels.rows[block], axis=0) if w_a is not None else None
            for lo, m in steps:
                far = other.take(far_ids[lo:lo + m], axis=0)
                if w_a is None:
                    far *= g_walk[lo:lo + m, :, None]
                    yield far
                else:
                    ends = (near[:m], far) if name == "dst" else (far, near[:m])
                    yield g_pre(g_walk[lo:lo + m], hidden(*ends, out=far))

        return levels.walk(left.shape[1:], left.dtype, level_rows)

    def w_a_grad(g, h=None):
        # g h summed over the edges in destination-grouped order, row by
        # row (``_fold_rows``). ``h`` holds the one pass's tanh rows in edge
        # order; a walk rebuilds them a block of at most N edges at a time
        # and carries the total from block to block.
        if h is not None:
            rows = h.take(dst.order, axis=0)
            rows *= g.take(dst.order, axis=0)[:, :, None]
            return _fold_rows(rows)
        size = min(n, max(1, EDGE_CHUNK_BYTES // (8 * heads * width)))
        total = np.zeros((heads, width), dtype=left.dtype)
        for lo in range(0, plan.edge_count, size):
            edges = dst.order[lo:lo + size]
            rows = np.empty((len(edges) + 1, heads, width), dtype=left.dtype)
            rows[0] = total
            right.take(src.ids.take(edges), axis=0, out=rows[1:])
            hidden(left.take(dst.ids.take(edges), axis=0), rows[1:], out=rows[1:])
            rows[1:] *= g.take(edges, axis=0)[:, :, None]
            total = _fold_rows(rows)
        return total

    def totals(g):  # (name, gradient): gene-linear's w_a first, then each end's head product
        if w_a is not None and not walked:  # tanh(z_i w_l + z_j w_r) is built once
            h = right.take(src.ids, axis=0)
            hidden(left.take(dst.ids, axis=0), h, out=h)
            yield "w_a", w_a_grad(g, h) if need_a else None
            rows = g_pre(g, h)
            del h
            yield "dst", dst.sum(rows)
            yield "src", src.sum(rows)
        elif walked:
            if w_a is not None:
                yield "w_a", w_a_grad(g) if need_a else None
            for name in ("dst", "src"):
                yield name, walked_total(name, g)
        else:
            for name, end, other, far in (("dst", dst, right, src), ("src", src, left, dst)):
                rows = other.take(far.ids, axis=0)
                rows *= g[:, :, None]
                yield name, end.sum(rows)

    def grad_fn(g):
        grads = {}
        for name, total in totals(g):
            if name == "w_a":
                grads[name] = total
            else:
                w, need_w = (w_l, need_l) if name == "dst" else (w_r, need_r)
                grads[name] = _heads_grad(total, z_val, w, need_z, need_w)
            del total
        (gz, g_wl), (gz_r, g_wr) = grads["dst"], grads["src"]
        if need_z:
            gz += gz_r
        return (gz, g_wl, g_wr) if w_a is None else (gz, g_wl, g_wr, grads["w_a"])

    return record(data, (z, *weights), grad_fn)


def edge_aggregate(kind: str, alpha: Tensor, z: Tensor, plan: EdgePlan, *weights: Tensor) -> Tensor:
    """Aggregate the messages alpha[e] z[src e] into each destination,
    [N, K, D] (a generalized SpMM).

    ``alpha`` is [E, K] and ``z`` [N, K, D]. ``sum`` adds the messages in
    edge order, bitwise as ``np.add.at``; ``mean-pooling`` scales that sum
    by 1/in-degree; ``max-pooling`` takes the elementwise max, with the
    gradient routed as ``segment_max`` routes it (the lowest edge
    attaining the max; where the max is NaN, the destination's first
    edge). ``mlp`` sums relu(m w1) w2 over the messages m, per head, with
    weights mlp_w1, mlp_w2 [K, D, D]; it is computed as
    (sum of relu(alpha[e] (z w1)[src e])) w2, so both products run on
    node rows, and agrees with the per-message form up to rounding.
    Mean and max need every node to have an in-edge. Where a gradient is
    needed, max-pooling's forward notes each (destination, column)'s
    winning edge, [N, K, D], and keeps it for the backward.

    Where ``plan.walks`` an [E, K, D] temporary, every kind walks the
    graph's levels: the forward folds ``z.take(sources in destination
    level order) * alpha`` into the destinations, and the backward sums
    ``g.take(destinations in source level order) * alpha`` into the
    sources (max-pooling's ``g`` is its value at the winners and 0.0
    elsewhere). Position j of every source level is an edge out of source
    ``rows[j]``, so alpha's gradient and mlp's relu mask read one block
    of node rows per row block, not one row per edge; alpha's gradient is
    filled in level order and put back in edge order once. Below that
    size every kind makes one pass over the edges, reducing by
    destination, and in the backward by source, through the graph's
    ``IndexPlan``s. Every path gives the same bits (a NaN's sign and
    payload aside).
    """
    if kind not in ("sum", "mean-pooling", "max-pooling", "mlp"):
        raise ParameterError(f"unknown aggregation kind {kind!r}")
    n, heads, width = z.data.shape
    if alpha.data.shape != (plan.edge_count, heads):
        raise ShapeError(f"alpha shape {alpha.data.shape} != {(plan.edge_count, heads)}")
    z_val, dtype = z.data, z.data.dtype
    if kind == "mlp":
        w1, w2 = (w.data for w in weights)
        z_val = np.ascontiguousarray(_heads(z.data, w1))  # messages are alpha-scaled rows of it
    inv = None
    if kind == "mean-pooling":
        inv = (1.0 / plan.dst.counts).astype(dtype, copy=False).reshape(n, 1, 1)
    elif kind == "max-pooling":
        plan.dst.counts  # raises on a node without in-edges
    walked = plan.walks(heads * width, z.data.itemsize)
    need_alpha, need_z = alpha.requires_grad, z.requires_grad

    def messages(a, src):  # alpha [C, K] times the rows of ``src``
        m = z_val.take(src, axis=0)
        np.multiply(a[:, :, None], m, out=m)
        return np.maximum(m, 0.0, out=m) if kind == "mlp" else m

    if walked:
        levels, far = plan.dst.levels, plan.dst_far
        a_walk = alpha.data.take(levels.order, axis=0)

        def level_rows(_, steps):
            return (messages(a_walk[lo:lo + m], far[lo:lo + m]) for lo, m in steps)

        if kind == "max-pooling":
            # each (destination, column)'s winning edge, for the backward
            winners = np.empty((n, heads, width), dtype=np.int32) if need_alpha or need_z else None
            data = levels.walk((heads, width), dtype, level_rows, np.maximum, winners)
        else:
            data = levels.walk((heads, width), dtype, level_rows)
    elif kind == "max-pooling":
        data, winners = plan.dst.max(messages(alpha.data, plan.src.ids), need_alpha or need_z)
    else:
        data = plan.dst.sum(messages(alpha.data, plan.src.ids))
    if inv is not None:
        data = data * inv
    if kind == "mlp":
        hidden, data = data, _heads(data, w2)
    need_w = [w.requires_grad for w in weights]
    # only mlp's relu mask needs the neighbour rows beyond alpha's gradient
    need_rows = need_alpha or kind == "mlp"

    def message_grads(g_m, a, z_m):
        """The gradients of C messages alpha z_m [C, K, D] from theirs,
        ``g_m`` (scaled in place): (the rows' [C, K, D], alpha's [C, K])."""
        if kind == "mlp":
            g_m *= a * z_m > 0.0  # relu's gradient
        g_a = np.einsum("ekd,ekd->ek", g_m, z_m) if need_alpha else None
        g_m *= a
        return g_m, g_a

    def grad_fn(g):
        g_w = [None] * len(weights)
        if kind == "mlp":
            g, g_w[1] = _heads_grad(g, hidden, w2, True, need_w[1])
        elif inv is not None:
            g = g * inv
        g = np.ascontiguousarray(g)  # take copies a strided input whole, on every call
        if walked:
            levels, far = plan.src.levels, plan.src_far
            a_walk = alpha.data.take(levels.order, axis=0)
            g_walk = np.empty_like(a_walk) if need_alpha else None

            def level_grads(block, steps):
                # position j of every source level is an edge out of rows[j]
                z_b = z_val.take(levels.rows[block], axis=0) if need_rows else None
                for lo, m in steps:
                    z_m = z_b[:m] if need_rows else None
                    g_m = g.take(far[lo:lo + m], axis=0)
                    if kind == "max-pooling":  # g at the winners and 0.0 elsewhere: its bits times 1 or 0
                        edges = levels.order[lo:lo + m, None, None].astype(winners.dtype)
                        won = winners.take(far[lo:lo + m], axis=0) == edges
                        g_m.view(f"i{g_m.itemsize}")[...] *= won
                    g_m, g_a = message_grads(g_m, a_walk[lo:lo + m, :, None], z_m)
                    if need_alpha:
                        g_walk[lo:lo + m] = g_a
                    yield g_m

            g_rows = levels.walk((heads, width), dtype, level_grads)
            g_alpha = None
            if need_alpha:
                g_alpha = np.empty_like(g_walk)
                g_alpha[levels.order] = g_walk
        else:
            a = alpha.data[:, :, None]
            z_m = z_val.take(plan.src.ids, axis=0) if need_rows else None
            if kind == "max-pooling":
                cols = heads * width
                g_m = np.zeros((plan.edge_count, cols), dtype=dtype)
                g_m[winners.reshape(n, cols), np.arange(cols)] = g.reshape(n, cols)
                g_m = g_m.reshape(-1, heads, width)
            else:
                g_m = g.take(plan.dst.ids, axis=0)
            g_m, g_alpha = message_grads(g_m, a, z_m)
            del z_m  # freed before the sum allocates
            g_rows = plan.src.sum(g_m)
        if kind == "mlp":
            g_rows, g_w[0] = _heads_grad(g_rows, z.data, w1, need_z, need_w[0])
        return (g_alpha, g_rows if need_z else None, *g_w)

    return record(data, (alpha, z, *weights), grad_fn)


# ---------------------------------------------------------------------------
# losses


def cross_entropy(logits: Tensor, labels, mask_index, l2_lambda: float = 0.0, l2_params=()) -> Tensor:
    """Mean softmax cross-entropy over the masked rows of ``logits``."""
    idx = _ids(mask_index, "mask index")
    if idx.size == 0:
        raise ParameterError("loss over an empty mask")
    y = np.asarray(labels, dtype=np.int64)[idx]
    n_classes = logits.data.shape[1]
    if y.min() < 0 or y.max() >= n_classes:
        raise ParameterError(f"label out of range for {n_classes} classes")
    rows = gather_rows(logits, idx)
    row_max = Tensor(rows.data.max(axis=1, keepdims=True))
    shifted = sub(rows, row_max)
    log_norm = log(reduce_sum(exp(shifted), axis=1, keepdims=True))
    log_probs = sub(shifted, log_norm)
    onehot = np.zeros((idx.size, n_classes), dtype=logits.data.dtype)
    onehot[np.arange(idx.size), y] = 1.0
    picked = reduce_sum(mul(log_probs, Tensor(onehot)))
    out = mul(picked, constant(-1.0 / idx.size, logits))
    return _add_l2(out, l2_lambda, l2_params)


def binary_cross_entropy(logits: Tensor, labels, mask_index, l2_lambda: float = 0.0, l2_params=()) -> Tensor:
    """Mean sigmoid cross-entropy over masked rows, all labels pooled."""
    idx = _ids(mask_index, "mask index")
    if idx.size == 0:
        raise ParameterError("loss over an empty mask")
    y = np.asarray(labels, dtype=logits.data.dtype)[idx]
    rows = gather_rows(logits, idx)
    if y.shape != rows.data.shape:
        raise ShapeError(f"label shape {y.shape} != logits shape {rows.data.shape}")
    # softplus(z) - z*y is the stable form of -[y log s(z) + (1-y) log(1-s(z))].
    per_entry = sub(softplus(rows), mul(rows, Tensor(y)))
    out = mul(reduce_sum(per_entry), constant(1.0 / y.size, logits))
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
    return add(base, mul(penalty, constant(l2_lambda, base)))


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
    """Inverted dropout: kept entries scaled by 1/(1-p). Identity at inference.

    Each entry is kept where its draw of one ``rng.random(x.shape)`` is at
    least ``p``; the draws are taken ``ADAM_BLOCK`` at a time, the same
    stream, straight into a bool mask, which is all the node keeps. Values
    and gradients are bitwise ``x * mask`` with ``mask = (draw >= p) /
    (1 - p)`` cast to ``x``'s dtype, a mask rebuilt from the bool one as
    ``keep * scale`` in that dtype: a dropped entry is ``x * 0.0`` (-0.0
    for a negative x, NaN for inf and NaN).
    """
    if not 0.0 <= p < 1.0:
        raise ParameterError(f"dropout rate must lie in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    if rng is None:
        raise ParameterError("dropout in training mode needs an rng")
    keep = np.empty(x.data.size, dtype=bool)
    for lo in range(0, keep.size, ADAM_BLOCK):  # the stream of one rng.random(shape)
        block = keep[lo:lo + ADAM_BLOCK]
        np.greater_equal(rng.random(block.size), p, out=block)
    keep = keep.reshape(x.data.shape)
    scale = x.data.dtype.type(1.0 / (1.0 - p))  # finite: 1 - p >= 2**-53
    return record(x.data * (keep * scale), (x,), lambda g: (g * (keep * scale),))


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

# Values per block of ``adam_step``: each block's ufunc calls run on
# slices that stay in cache, with two block-sized rows that the step
# allocates. Measured on the controller's 93,766 float64 values (2-core
# x86_64, numpy 2.4.6, median step of 500 in each of 3 processes):
# 0.79-1.04 ms per step at 2**14, against 1.04-1.18 ms at 2**12,
# 1.11-1.15 ms at 2**13 and 0.79-0.97 ms at 2**16, whose rows are 4x
# larger. ``dropout`` draws its mask in blocks of as many values, so its
# float64 draws take one such row, not one value per input entry.
ADAM_BLOCK = 2**14


@dataclass
class AdamState:
    """First/second moment estimates plus the shared step counter.

    ``init`` copies the parameters into one flat buffer and points each
    parameter's ``data`` at its slice of it (``views``, reshaped), so a
    step is a few ufunc calls per ``ADAM_BLOCK`` values; ``m`` and ``v``
    are flat arrays of the same length. All three take the parameters'
    dtype: float32 when every parameter is float32, else float64.
    """

    lr: float
    flat: np.ndarray
    views: list
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def init(cls, params: list, lr: float) -> "AdamState":
        if not (math.isfinite(lr) and lr > 0):
            raise ParameterError(f"learning rate must be finite and positive, got {lr}")
        dtype = np.result_type(np.float32, *(p.data.dtype for p in params))
        buffers = np.zeros((3, sum(p.data.size for p in params)), dtype=dtype)
        flat = buffers[0]
        views = []
        start = 0
        for p in params:
            view = flat[start:start + p.data.size].reshape(p.data.shape)
            view[...] = p.data
            p.data = view
            views.append(view)
            start += view.size
        return cls(lr=lr, flat=flat, views=views, m=buffers[1], v=buffers[2])


def _blocks(arrays: list, sizes: list, out: np.ndarray):
    """The values of ``arrays`` (of ``sizes`` values each), raveled end to
    end, copied into ``out`` (rounded to its dtype) one block of
    ``len(out)`` values at a time: yields ``out``, or its prefix for a
    shorter last block. Each block takes one ``np.concatenate`` of whole
    arrays and the parts of those that cross its edges."""
    pieces, filled = [], 0
    for a, size in zip(arrays, sizes):
        start = 0
        if filled + size > out.size:  # raveled once, and cut at each edge it crosses
            a = np.ravel(a)
            while filled + size - start > out.size:
                pieces.append(a[start:start + out.size - filled])
                start += out.size - filled
                yield np.concatenate(pieces, axis=None, out=out)
                pieces, filled = [], 0
            a = a[start:]
        pieces.append(a)
        filled += size - start
    if pieces:
        yield np.concatenate(pieces, axis=None, out=out[:filled])


def adam_step(state: AdamState, params: list, grads: list) -> list:
    """One Adam update with bias correction, written into the parameters'
    arrays in place. Returns the params.

    A parameter whose ``data`` was rebound since ``init`` or the last step
    has its values copied back into its slot and is pointed at it again.
    So does every parameter of a deep-copied or unpickled state, whose
    ``views`` are first cut from its own ``flat`` again. A step refused
    for a length or shape mismatch changes nothing.
    """
    views = state.views
    if views and not np.may_share_memory(views[0], state.flat):
        starts = np.cumsum([0] + [view.size for view in views])
        views = state.views = [state.flat[a:a + view.size].reshape(view.shape) for a, view in zip(starts, views)]
    if len(params) != len(views) or len(grads) != len(params):
        raise ParameterError("adam_step: params/grads length does not match state")
    rebound = []
    for p, g, view in zip(params, grads, views):
        if np.shape(g) != view.shape:
            raise ShapeError(f"grad shape {np.shape(g)} != param shape {view.shape}")
        if p.data is not view:
            if p.data.shape != view.shape:
                raise ShapeError(f"param shape {p.data.shape} != its optimizer slot's {view.shape}")
            rebound.append((p, view))
    for p, view in rebound:
        view[...] = p.data
        p.data = view
    state.step += 1
    t = state.step
    m_scale, v_scale = 1.0 - ADAM_BETA1 ** t, 1.0 - ADAM_BETA2 ** t
    # The per-array expressions m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g
    # and p = p - (lr*(m/(1-b1**t))) / (sqrt(v/(1-b2**t)) + eps), one
    # correctly rounded op at a time in the same order, so values keep
    # their bits. No flat temporary: each block of the gradient is
    # gathered into row 0 of two block-sized rows, and row 1 takes the
    # block's temporaries. The rows are freed with the step: rows kept in
    # the state would stay resident at every child's memory peak.
    size = state.flat.size
    rows = np.empty((2, min(size, ADAM_BLOCK)), dtype=state.flat.dtype)
    if size > ADAM_BLOCK:
        blocks = _blocks(grads, [view.size for view in views], rows[0])
    else:  # one block, as _blocks would cut it, without its bookkeeping
        blocks = [np.concatenate(grads, axis=None, out=rows[0])] if grads else []
    for lo, g in zip(range(0, size, ADAM_BLOCK), blocks):
        hi = lo + ADAM_BLOCK
        m, v, p = state.m[lo:hi], state.v[lo:hi], state.flat[lo:hi]
        scratch = rows[1, :g.size]
        np.multiply(1.0 - ADAM_BETA1, g, out=scratch)
        np.multiply(ADAM_BETA1, m, out=m)
        np.add(m, scratch, out=m)
        np.multiply(1.0 - ADAM_BETA2, g, out=scratch)
        np.multiply(scratch, g, out=scratch)
        np.multiply(ADAM_BETA2, v, out=v)
        np.add(v, scratch, out=v)
        np.divide(v, v_scale, out=scratch)
        np.sqrt(scratch, out=scratch)
        np.add(scratch, ADAM_EPS, out=scratch)
        np.divide(m, m_scale, out=g)
        np.multiply(state.lr, g, out=g)
        np.divide(g, scratch, out=g)
        np.subtract(p, g, out=p)
    return params


def zero_grads(params) -> None:
    for p in params:
        p.grad = None
