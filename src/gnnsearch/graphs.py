"""Graph containers, synthetic generators, and the text dataset format.

Graphs are stored with explicit directed edges. Canonicalization
symmetrizes the edge list, adds one self-loop per node, deduplicates,
and sorts, so message passing code can assume every in-neighborhood is
non-empty and edge order is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .autodiff import EdgePlan, _ids
from .errors import IngestionError, ParameterError

TASK_KINDS = ("single", "multi")
MASK_KINDS = ("train", "val", "test")


@dataclass(frozen=True)
class Graph:
    """One graph: directed edge list, node features, in-degrees."""

    node_count: int
    edges: np.ndarray      # [E, 2] int64 rows (src, dst), canonical order
    features: np.ndarray   # [N, F] float64 (float32 in a cast dataset)
    degrees: np.ndarray    # [N] int64, number of edges with dst = i

    @property
    def edge_count(self) -> int:
        return self.edges.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def src(self) -> np.ndarray:
        return self.edges[:, 0]

    @property
    def dst(self) -> np.ndarray:
        return self.edges[:, 1]

    @cached_property
    def plan(self) -> EdgePlan:
        """The edge plan, built on first use and kept with the graph."""
        return EdgePlan(self.src, self.dst, self.node_count, self.degrees)


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """The distinct values of ``a``, flattened, in ascending order:
    np.unique's result, without the numpy.ma import np.unique makes."""
    a = np.sort(a, axis=None)
    keep = np.empty(a.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def canonical_edges(node_count: int, edges) -> np.ndarray:
    """Add reverse edges and self-loops, dedupe, sort. Endpoints must be
    integers; a bool or float one is refused."""
    arr = _ids(edges, "edge endpoints").reshape(-1, 2)
    if arr.size and (arr.min() < 0 or arr.max() >= node_count):
        raise ParameterError(f"edge endpoint out of range for {node_count} nodes")
    src, dst = arr[:, 0], arr[:, 1]
    loops = np.arange(node_count, dtype=np.int64)
    # A pair's code src * n + dst sorts as the (src, dst) tuple does.
    codes = _sorted_unique(np.concatenate([src * node_count + dst, loops * (node_count + 1), dst * node_count + src]))
    return np.stack([codes // node_count, codes % node_count], axis=1)


def make_graph(node_count: int, edges, features) -> Graph:
    if node_count < 1:
        raise ParameterError("graph needs at least one node")
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] != node_count:
        raise ParameterError(f"features shape {features.shape} does not match {node_count} nodes")
    edge_arr = canonical_edges(node_count, edges)
    degrees = np.bincount(edge_arr[:, 1], minlength=node_count).astype(np.int64)
    for arr in (edge_arr, features, degrees):
        arr.setflags(write=False)
    return Graph(node_count=node_count, edges=edge_arr, features=features, degrees=degrees)


@dataclass(frozen=True)
class SplitMask:
    """Disjoint node-index sets for one graph."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray

    def of(self, kind: str) -> np.ndarray:
        if kind not in MASK_KINDS:
            raise ParameterError(f"unknown mask kind {kind!r}")
        return getattr(self, kind)


def make_mask(node_count: int, train, val, test) -> SplitMask:
    """Sorted, deduped train/val/test ids; they must be integers in range
    and the three sets disjoint."""
    parts = []
    for name, ids in (("train", train), ("val", val), ("test", test)):
        arr = _sorted_unique(_ids(ids, f"{name} mask ids"))
        if arr.size and (arr.min() < 0 or arr.max() >= node_count):
            raise ParameterError(f"{name} mask id out of range for {node_count} nodes")
        parts.append(arr)
    # Each part is deduped, so the three overlap iff joining them repeats an id.
    if _sorted_unique(np.concatenate(parts)).size < sum(part.size for part in parts):
        raise ParameterError("train/val/test masks overlap")
    for arr in parts:
        arr.setflags(write=False)
    return SplitMask(*parts)


@dataclass(frozen=True)
class LabeledDataset:
    """Graphs plus labels, masks, and task kind.

    Transductive data holds a single graph with node-level masks.
    Inductive data holds several graphs; whole graphs belong to one
    split, expressed as all-node masks on that graph.
    """

    graphs: tuple
    labels: tuple          # per graph: [N] int64 or [N, L] int64 in {0, 1}
    masks: tuple
    task_kind: str
    class_count: int

    def __post_init__(self):
        if self.task_kind not in TASK_KINDS:
            raise ParameterError(f"unknown task kind {self.task_kind!r}")
        if not self.graphs or len(self.graphs) != len(self.labels) or len(self.graphs) != len(self.masks):
            raise ParameterError("graphs, labels, and masks must align")

    @property
    def feature_dim(self) -> int:
        return self.graphs[0].feature_dim

    @property
    def feature_dtype(self) -> np.dtype:
        return self.graphs[0].features.dtype

    def with_feature_dtype(self, dtype) -> "LabeledDataset":
        """This dataset with every graph's features in ``dtype``: itself
        when they already are, else a new dataset over new graphs, each
        with the same edges and, if built, the same ``EdgePlan`` (a plan
        reads no feature). This one is never changed. A cast that would
        turn a finite feature into an infinity raises ``ParameterError``
        naming the graph."""
        if all(graph.features.dtype == dtype for graph in self.graphs):
            return self
        graphs = []
        for index, graph in enumerate(self.graphs):
            features = graph.features
            finite = np.isfinite(features)
            largest = max(features.max(where=finite, initial=0.0), -features.min(where=finite, initial=0.0))
            with np.errstate(over="ignore"):
                if np.isinf(np.asarray(largest).astype(dtype)):
                    raise ParameterError(
                        f"graph {index}: largest |feature| {largest:.6g} overflows {np.dtype(dtype).name}")
            cast = replace(graph, features=features.astype(dtype))
            cast.features.setflags(write=False)
            if "plan" in vars(graph):
                vars(cast)["plan"] = graph.plan
            graphs.append(cast)
        return replace(self, graphs=tuple(graphs))


# ---------------------------------------------------------------------------
# synthetic generators


# Values per row block of a generator's n x n edge draw. The uniform
# stream is one sequence, so row blocks draw the same values as one
# n x n draw, in memory that grows with n rather than n * n. The benchmark
# graphs (400 nodes at most) draw in one block.
EDGE_DRAW_VALUES = 2**18


def _drawn_edges(rng: np.random.Generator, n: int, below) -> np.ndarray:
    """The pairs (i, j), i < j, of an n x n uniform draw that fall below
    ``below(r0, r1)`` (a threshold for rows r0..r1, or one for all), as
    [E, 2] int64 rows in row-major order."""
    rows = max(1, EDGE_DRAW_VALUES // n)
    parts = []
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        src, dst = np.nonzero(np.triu(rng.random((r1 - r0, n)) < below(r0, r1), k=1 + r0))
        parts.append(np.stack([src + r0, dst], axis=1))
    return np.concatenate(parts)


def generate_sbm(
    block_count: int,
    nodes_per_block: int,
    p_in: float,
    p_out: float,
    feature_dim: int,
    signal_strength: float,
    seed: int,
    train_per_class: int | None = None,
    val_count: int | None = None,
) -> LabeledDataset:
    """Stochastic block model with block-informative Gaussian features.

    Node labels are block ids. Each block draws a mean feature vector;
    node features are that mean scaled by ``signal_strength`` plus unit
    Gaussian noise. The split takes a fixed per-class train count first,
    then validation, then test, all from one seeded shuffle.
    """
    if block_count < 2:
        raise ParameterError("block_count must be at least 2")
    if nodes_per_block < 1:
        raise ParameterError("nodes_per_block must be at least 1")
    if feature_dim < 1:
        raise ParameterError("feature_dim must be at least 1")
    if not (0.0 <= p_out < p_in <= 1.0):
        raise ParameterError(f"need 0 <= p_out < p_in <= 1, got p_in={p_in}, p_out={p_out}")
    if seed < 0:
        raise ParameterError("seed must be non-negative")
    rng = np.random.default_rng(seed)
    n = block_count * nodes_per_block
    labels = np.repeat(np.arange(block_count), nodes_per_block)

    def prob(r0, r1):  # the edge probability of rows r0..r1
        return np.where(labels[r0:r1, None] == labels, p_in, p_out)

    edges = _drawn_edges(rng, n, prob)  # make_graph adds the reverses

    means = rng.standard_normal((block_count, feature_dim))
    features = signal_strength * means[labels] + rng.standard_normal((n, feature_dim))

    if train_per_class is None:
        train_per_class = min(20, max(1, nodes_per_block // 5))
    if train_per_class >= nodes_per_block:
        raise ParameterError("train_per_class must leave nodes for val and test")
    train_ids = []
    for b in range(block_count):
        members = rng.permutation(np.nonzero(labels == b)[0])
        train_ids.extend(members[:train_per_class])
    train_ids = np.array(sorted(train_ids), dtype=np.int64)
    free = np.ones(n, dtype=bool)
    free[train_ids] = False
    rest = rng.permutation(np.nonzero(free)[0])
    if val_count is None:
        val_count = max(1, n // 4)
    if val_count >= rest.size:
        raise ParameterError("val_count leaves no test nodes")
    val_ids = rest[:val_count]
    test_ids = rest[val_count:]

    graph = make_graph(n, edges, features)
    mask = make_mask(n, train_ids, val_ids, test_ids)
    return LabeledDataset(
        graphs=(graph,),
        labels=(labels.astype(np.int64),),
        masks=(mask,),
        task_kind="single",
        class_count=block_count,
    )


def generate_multigraph(
    graph_count: int,
    nodes_per_graph: int,
    avg_degree: float,
    feature_dim: int,
    label_count: int,
    seed: int,
) -> LabeledDataset:
    """Several random graphs with multi-label targets, split graph-wise.

    Labels come from a shared random linear rule over each node's own
    features averaged with its neighborhood mean, so they correlate with
    both features and structure. The last graphs become validation and
    test sets (one each per ten graphs, at least one each).
    """
    if graph_count < 3:
        raise ParameterError("graph_count must be at least 3 (one graph per split)")
    if nodes_per_graph < 2 or feature_dim < 1 or label_count < 1:
        raise ParameterError("nodes_per_graph, feature_dim, label_count must be positive")
    if avg_degree < 0:
        raise ParameterError("avg_degree must be non-negative")
    if seed < 0:
        raise ParameterError("seed must be non-negative")
    rng = np.random.default_rng(seed)
    rule = rng.standard_normal((feature_dim, label_count))

    graphs, labels, masks = [], [], []
    holdout = max(1, graph_count // 10)
    n = nodes_per_graph
    p = min(1.0, avg_degree / max(1, n - 1))
    for g in range(graph_count):
        edges = _drawn_edges(rng, n, lambda r0, r1: p)  # make_graph adds the reverses
        features = rng.standard_normal((n, feature_dim))
        graph = make_graph(n, edges, features)

        neighbor_sum = graph.plan.dst.sum(features[graph.src])
        context = 0.5 * (features + neighbor_sum / graph.degrees[:, None])
        labels.append((context @ rule > 0.0).astype(np.int64))
        graphs.append(graph)

        all_ids = np.arange(n)
        none: list[int] = []
        if g >= graph_count - holdout:
            masks.append(make_mask(n, none, none, all_ids))
        elif g >= graph_count - 2 * holdout:
            masks.append(make_mask(n, none, all_ids, none))
        else:
            masks.append(make_mask(n, all_ids, none, none))

    return LabeledDataset(
        graphs=tuple(graphs),
        labels=tuple(labels),
        masks=tuple(masks),
        task_kind="multi",
        class_count=label_count,
    )


# ---------------------------------------------------------------------------
# text dataset format


def load_citation(path) -> LabeledDataset:
    """Read the line-oriented node/edge/mask text format.

    Header: ``nodes N features F classes C task single|multi``. Then one
    ``node`` line per node (features, then one class id or C binary
    labels), ``edge src dst`` lines, and ``mask train|val|test id...``
    lines. Edges are symmetrized and self-loops added on load.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as err:
        raise IngestionError(f"cannot read {path}: {err}") from None
    if not lines:
        raise IngestionError("line 1: empty file")

    header = lines[0].split()
    expected = ("nodes", None, "features", None, "classes", None, "task", None)
    if len(header) != 8 or any(h != e for h, e in zip(header, expected) if e is not None):
        raise IngestionError("line 1: header must be 'nodes N features F classes C task KIND'")
    try:
        n_nodes, n_features, n_classes = int(header[1]), int(header[3]), int(header[5])
    except ValueError as err:
        raise IngestionError(f"line 1: {err}") from None
    task = header[7]
    if task not in TASK_KINDS:
        raise IngestionError(f"line 1: task must be one of {TASK_KINDS}, got {task!r}")
    if n_nodes < 1 or n_features < 1 or n_classes < 1:
        raise IngestionError("line 1: counts must be positive")

    label_width = 1 if task == "single" else n_classes
    features = np.zeros((n_nodes, n_features))
    if task == "single":
        labels = np.full(n_nodes, -1, dtype=np.int64)
    else:
        labels = np.zeros((n_nodes, n_classes), dtype=np.int64)
    seen_nodes = np.zeros(n_nodes, dtype=bool)
    edges: list[tuple[int, int]] = []
    mask_ids: dict[str, list[int]] = {k: [] for k in MASK_KINDS}

    for lineno, raw in enumerate(lines[1:], start=2):
        parts = raw.split()
        if not parts:
            continue
        kind = parts[0]
        if kind == "node":
            want = 2 + n_features + label_width
            if len(parts) != want:
                raise IngestionError(f"line {lineno}: node line needs {want} fields, got {len(parts)}")
            try:
                node_id = int(parts[1])
                values = [float(v) for v in parts[2 : 2 + n_features]]
                raw_labels = [int(v) for v in parts[2 + n_features :]]
            except ValueError as err:
                raise IngestionError(f"line {lineno}: {err}") from None
            if not 0 <= node_id < n_nodes:
                raise IngestionError(f"line {lineno}: node id {node_id} out of range")
            if seen_nodes[node_id]:
                raise IngestionError(f"line {lineno}: duplicate node id {node_id}")
            seen_nodes[node_id] = True
            features[node_id] = values
            if task == "single":
                if not 0 <= raw_labels[0] < n_classes:
                    raise IngestionError(
                        f"line {lineno}: label {raw_labels[0]} out of range for {n_classes} classes"
                    )
                labels[node_id] = raw_labels[0]
            else:
                if any(v not in (0, 1) for v in raw_labels):
                    raise IngestionError(f"line {lineno}: multi-task labels must be 0 or 1")
                labels[node_id] = raw_labels
        elif kind == "edge":
            if len(parts) != 3:
                raise IngestionError(f"line {lineno}: edge line needs 'edge src dst'")
            try:
                s, d = int(parts[1]), int(parts[2])
            except ValueError as err:
                raise IngestionError(f"line {lineno}: {err}") from None
            if not (0 <= s < n_nodes and 0 <= d < n_nodes):
                raise IngestionError(f"line {lineno}: edge endpoint out of range")
            edges.append((s, d))
        elif kind == "mask":
            if len(parts) < 2 or parts[1] not in MASK_KINDS:
                raise IngestionError(f"line {lineno}: mask kind must be one of {MASK_KINDS}")
            try:
                ids = [int(v) for v in parts[2:]]
            except ValueError as err:
                raise IngestionError(f"line {lineno}: {err}") from None
            if any(not 0 <= v < n_nodes for v in ids):
                raise IngestionError(f"line {lineno}: mask id out of range")
            mask_ids[parts[1]].extend(ids)
        else:
            raise IngestionError(f"line {lineno}: unknown record kind {kind!r}")

    missing = np.nonzero(~seen_nodes)[0]
    if missing.size:
        raise IngestionError(f"line {len(lines)}: node {missing[0]} never declared")

    graph = make_graph(n_nodes, edges, features)
    try:
        mask = make_mask(n_nodes, mask_ids["train"], mask_ids["val"], mask_ids["test"])
    except ParameterError as err:
        raise IngestionError(f"mask: {err}") from None
    return LabeledDataset(
        graphs=(graph,),
        labels=(labels,),
        masks=(mask,),
        task_kind=task,
        class_count=n_classes,
    )


def save_citation(dataset: LabeledDataset, path) -> None:
    """Write a single-graph dataset in the text format load_citation reads.

    Self-loops are omitted; loading adds them back, so save followed by
    load reproduces the dataset exactly.
    """
    if len(dataset.graphs) != 1:
        raise ParameterError("the text format holds exactly one graph")
    graph = dataset.graphs[0]
    labels = dataset.labels[0]
    mask = dataset.masks[0]
    lines = [
        f"nodes {graph.node_count} features {graph.feature_dim} "
        f"classes {dataset.class_count} task {dataset.task_kind}"
    ]
    for i in range(graph.node_count):
        feats = " ".join(f"{v:.17g}" for v in graph.features[i])
        if dataset.task_kind == "single":
            label_part = str(int(labels[i]))
        else:
            label_part = " ".join(str(int(v)) for v in labels[i])
        lines.append(f"node {i} {feats} {label_part}")
    for s, d in graph.edges:
        if s != d:
            lines.append(f"edge {s} {d}")
    for kind in MASK_KINDS:
        ids = mask.of(kind)
        if ids.size:
            lines.append(f"mask {kind} " + " ".join(str(int(v)) for v in ids))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
