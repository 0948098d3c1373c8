"""Message-passing kernels against inline ``ufunc.at`` references.

The sum and max kernels must reproduce ``np.add.at`` / ``np.maximum.at``
bit for bit (same values, same winner routing), so search rewards do not
move with the kernel implementation. Each kernel is checked with raw ids
and with a precomputed ``IndexPlan``, the form message passing passes.
``head_matmul`` goes through BLAS and is held to the per-head loop at
``allclose``.
"""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnnsearch import autodiff as ad
from gnnsearch.arch import AGGREGATION, ATTENTION, decode
from gnnsearch.autodiff import Tensor
from gnnsearch.errors import ParameterError, ShapeError
from gnnsearch.gnn import CHILD_DTYPE, LAYER_TENSORS, build_model, forward, init_layer_params
from gnnsearch.graphs import generate_multigraph, generate_sbm

from conftest import traced_memory

E, N, K, D = 60, 7, 3, 4
# BLAS may sum a dot product in any order: a few float64 ulps on O(1) values.
TOL = dict(rtol=1e-12, atol=1e-12)


def _bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _interleaved_ids(rng, rows=E, n=N):
    # Every segment non-empty, ids unsorted and interleaved.
    return rng.permutation(np.arange(rows) % n)


def _id_inputs(ids, n=N):
    # Raw ids, and a plan built once and used for every call (as a graph's is).
    return [ids, ad.IndexPlan(ids, n)]


def _strided(rng, shape):
    # The [E, K, D] transposed view that head_matmul returns: not contiguous.
    view = rng.standard_normal((shape[1], shape[0], shape[2])).transpose(1, 0, 2)
    assert not view.flags["C_CONTIGUOUS"]
    return view


def _ref_add_at(values, index, n_rows):
    out = np.zeros((n_rows,) + values.shape[1:])
    np.add.at(out, index, values)
    return out


def _ref_max_at(values, seg, n):
    """Old kernel: values by np.maximum.at, winner = lowest row equal to the max."""
    flat = values.reshape(len(values), -1)
    out = np.full((n, flat.shape[1]), -np.inf)
    np.maximum.at(out, seg, flat)
    winner = np.full(out.shape, len(values))
    hit_rows, hit_cols = np.nonzero(flat == out[seg])
    np.minimum.at(winner, (seg[hit_rows], hit_cols), hit_rows)
    return out.reshape((n,) + values.shape[1:]), winner


@pytest.mark.parametrize("layout", ["contiguous", "strided"])
def test_segment_sum_bitwise_equals_add_at(rng, layout):
    x = rng.standard_normal((E, K, D)) if layout == "contiguous" else _strided(rng, (E, K, D))
    seg = _interleaved_ids(rng)
    for ids in _id_inputs(seg):
        out = ad.segment_sum(Tensor(x), ids, N)
        assert _bitwise(out.data, _ref_add_at(x, seg, N))


def test_segment_sum_leaves_unused_segments_zero(rng):
    x = rng.standard_normal((5, 2))
    seg = np.array([3, 0, 3, 0, 3])
    for ids in _id_inputs(seg, 5):
        out = ad.segment_sum(Tensor(x), ids, 5)
        assert _bitwise(out.data, _ref_add_at(x, seg, 5))


@pytest.mark.parametrize("layout", ["contiguous", "strided"])
def test_gather_rows_gradient_bitwise_equals_add_at(rng, layout):
    idx = _interleaved_ids(rng)
    g = rng.standard_normal((E, K, D)) if layout == "contiguous" else _strided(rng, (E, K, D))
    for ids in _id_inputs(idx):
        x = Tensor(rng.standard_normal((N, K, D)), requires_grad=True)
        out = ad.gather_rows(x, ids)
        assert _bitwise(out.data, x.data[idx])
        out.backward(g)
        assert _bitwise(x.grad, _ref_add_at(g, idx, N))


def test_gather_rows_empty_index_gradient_is_float_zeros():
    x = Tensor(np.ones((3, 2)), requires_grad=True)
    ad.gather_rows(x, np.array([], dtype=np.int64)).backward(np.zeros((0, 2)))
    assert _bitwise(x.grad, np.zeros((3, 2)))


@pytest.mark.parametrize("layout", ["contiguous", "strided"])
def test_segment_max_values_and_routing_bitwise(rng, layout):
    x = rng.standard_normal((E, K, D)) if layout == "contiguous" else _strided(rng, (E, K, D))
    seg = _interleaved_ids(rng)
    ref_out, winner = _ref_max_at(x, seg, N)
    g = rng.standard_normal((N, K, D))
    ref_grad = np.zeros((E, K * D))
    np.add.at(ref_grad, (winner, np.arange(K * D)), g.reshape(N, -1))
    for ids in _id_inputs(seg):
        t = Tensor(x, requires_grad=True)
        out = ad.segment_max(t, ids, N)
        assert _bitwise(out.data, ref_out)
        out.backward(g)
        assert _bitwise(t.grad, ref_grad.reshape(E, K, D))


def test_segment_max_ties_across_distant_rows_go_to_lowest(rng):
    seg = _interleaved_ids(rng)
    x = rng.standard_normal((E, K, D))
    top = x.max() + 1.0
    for s in range(N):
        members = np.flatnonzero(seg == s)
        first, last = members[0], members[-1]
        assert last - first > 1  # not adjacent
        x[[first, last], 0, 0] = top
        x[[last, first], 1, :] = top + np.abs(x[first, 1, :])  # equal head blocks
    ref_out, winner = _ref_max_at(x, seg, N)
    firsts = [np.flatnonzero(seg == s)[0] for s in range(N)]
    assert np.array_equal(winner[:, 0], firsts)
    assert np.array_equal(winner[:, D], firsts)  # column (1, 0)
    ref_grad = np.zeros((E, K * D))
    np.add.at(ref_grad, (winner, np.arange(K * D)), np.ones((N, K * D)))
    for ids in _id_inputs(seg):
        t = Tensor(x, requires_grad=True)
        out = ad.segment_max(t, ids, N)
        out.backward(np.ones((N, K, D)))
        assert _bitwise(out.data, ref_out)
        assert _bitwise(t.grad, ref_grad.reshape(E, K, D))


def test_segment_softmax_shift_matches_max_at_reference(rng):
    scores = rng.standard_normal((E, K))
    seg = _interleaved_ids(rng)
    ref_max, _ = _ref_max_at(scores, seg, N)
    e = np.exp(scores - ref_max[seg])
    expected = e / _ref_add_at(e, seg, N)[seg]
    for ids in _id_inputs(seg):
        assert _bitwise(ad.segment_softmax(Tensor(scores), ids, N).data, expected)


def test_head_matmul_and_gradients_match_per_head_loop(rng):
    x = Tensor(_strided(rng, (E, K, D)), requires_grad=True)
    w = Tensor(rng.standard_normal((K, D, 5)), requires_grad=True)
    g = rng.standard_normal((E, K, 5))
    out = ad.head_matmul(x, w)
    out.backward(g)
    assert np.allclose(out.data, np.stack([x.data[:, k] @ w.data[k] for k in range(K)], axis=1), **TOL)
    gx = np.stack([g[:, k] @ w.data[k].T for k in range(K)], axis=1)
    gw = np.stack([x.data[:, k].T @ g[:, k] for k in range(K)])
    assert np.allclose(x.grad, gx, **TOL)
    assert np.allclose(w.grad, gw, **TOL)


# ---------------------------------------------------------------------------
# empty segments and non-finite values


@pytest.mark.parametrize("op", [ad.segment_mean, ad.segment_max, ad.segment_softmax])
def test_empty_segment_is_a_parameter_error(op):
    for ids in _id_inputs(np.array([0, 2, 0]), 3):
        with pytest.raises(ParameterError, match="segment 1 is empty"):
            op(Tensor(np.ones((3, 2))), ids, 3)


def test_plan_must_cover_the_rows_it_indexes():
    plan = ad.IndexPlan([0, 2, 0], 3)
    with pytest.raises(ShapeError, match="covers 3 rows, expected 4"):
        ad.segment_sum(Tensor(np.ones((3, 2))), plan, 4)
    with pytest.raises(ShapeError, match="covers 3 rows, expected 2"):
        ad.gather_rows(Tensor(np.ones((2, 2))), plan)
    with pytest.raises(ShapeError, match="does not match rows"):
        ad.segment_sum(Tensor(np.ones((4, 2))), plan, 3)
    with pytest.raises(ParameterError, match="out of range"):
        ad.IndexPlan([0, 3], 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_segment_max_lets_non_finite_values_through(bad):
    x = Tensor(np.array([[1.0, 2.0], [bad, 0.5], [3.0, 4.0], [0.0, bad]]), requires_grad=True)
    seg = [0, 0, 1, 1]
    out = ad.segment_max(x, seg, 2)
    ref_out, _ = _ref_max_at(x.data, np.array(seg), 2)
    assert np.array_equal(out.data, ref_out, equal_nan=True)
    out.backward(np.ones((2, 2)))
    # One gradient entry per (segment, column), always inside the segment.
    assert x.grad.sum() == 4.0
    assert np.array_equal(x.grad[:2].sum(axis=0), [1.0, 1.0])
    assert np.array_equal(x.grad[2:].sum(axis=0), [1.0, 1.0])


def test_segment_max_nan_gradient_goes_to_first_row_of_segment():
    x = Tensor(np.array([[5.0], [np.nan], [7.0], [1.0]]), requires_grad=True)
    out = ad.segment_max(x, [1, 0, 0, 1], 2)
    assert np.isnan(out.data[0, 0]) and out.data[1, 0] == 5.0
    out.backward(np.ones((2, 1)))
    assert np.array_equal(x.grad, [[1.0], [1.0], [0.0], [0.0]])


def test_segment_softmax_lets_non_finite_scores_through():
    with np.errstate(invalid="ignore"):
        out = ad.segment_softmax(Tensor(np.array([np.nan, 0.0, np.inf, 1.0])), [0, 0, 1, 1], 2)
    assert np.isnan(out.data).all()


# ---------------------------------------------------------------------------
# level plans: the wide sums and maxima of message passing

SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308, 1e308])


def _values(seed, rows, width, special_rate):
    """Normal draws at mixed scales, with signed zeros, infinities, NaNs
    and subnormals mixed in at ``special_rate``."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-3, 4, (rows, width))
    where = rng.random((rows, width)) < special_rate
    values[where] = rng.choice(SPECIALS, int(where.sum()))
    return values


def _same_bits(a, b):
    """Bitwise equal, except that a NaN may differ in sign and payload:
    numpy's own kernels disagree there (np.add.at and np.bincount do)."""
    a, b = np.asarray(a), np.asarray(b)
    nan = np.isnan(a)
    return a.shape == b.shape and np.array_equal(nan, np.isnan(b)) and _bitwise(a[~nan], b[~nan])


def _id_draws():
    return st.integers(1, 30).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(0, n - 1), max_size=200)))


@settings(max_examples=80, deadline=None)
@given(_id_draws(), st.integers(1, 300), st.sampled_from([0.0, 0.05, 0.5]), st.integers(0, 2**32 - 1))
def test_level_sum_is_bitwise_add_at_into_zeros(id_draw, width, special_rate, seed):
    n, ids = id_draw
    ids = np.array(ids, dtype=np.int64)
    values = _values(seed, ids.size, width, special_rate)
    kept = ad.IndexPlan(ids, n, kept=True)
    with np.errstate(invalid="ignore", over="ignore"):
        ref = _ref_add_at(values, ids, n)
        # the size rule's pick, and each path whatever the rule says
        for got in (kept.sum(values), kept.levels.sum(values), ad.IndexPlan(ids, n).sum(values)):
            assert _same_bits(got, ref)


def test_level_sum_keeps_shape_and_takes_strided_rows(rng):
    seg = _interleaved_ids(rng)
    x = _strided(rng, (E, K, D))
    plan = ad.IndexPlan(seg, N)
    assert _bitwise(plan.levels.sum(x), _ref_add_at(x, seg, N))


def _grouped(ids):
    """Sorted ids, relabelled to the ids that have rows, and their run starts."""
    ids = np.sort(np.asarray(ids, dtype=np.int64))
    starts = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1])))
    return np.searchsorted(ids[starts], ids), starts


def _maxima(ids, n, values):
    """``IndexPlan.max(values, winners=True)`` on a kept plan that walks
    its levels, then on a plan that calls reduceat."""
    kept, unkept = ad.IndexPlan(ids, n, kept=True), ad.IndexPlan(ids, n)
    with mock.patch.object(ad, "LEVEL_MIN_CELLS", 0):
        assert kept._walks(values)
        walked = kept.max(values, winners=True)
    assert not unkept._walks(values)
    return walked, unkept.max(values, winners=True)


@settings(max_examples=80, deadline=None)
@given(_id_draws().filter(lambda d: d[1]), st.integers(1, 300), st.sampled_from([0.0, 0.05, 0.5]),
       st.integers(0, 2**32 - 1))
def test_level_max_and_first_winner_are_bitwise_the_reduceat_forms(id_draw, width, special_rate, seed):
    _, ids = id_draw
    ids, starts = _grouped(ids)
    values = _values(seed, ids.size, width, special_rate)
    values[np.random.default_rng(seed).random(ids.size) < 0.3] = values[0]  # whole-row ties
    ref_top = np.maximum.reduceat(values, starts, axis=0)
    with np.errstate(invalid="ignore"):
        hit = values == ref_top[ids]
    ref = np.minimum.reduceat(np.where(hit, np.arange(ids.size)[:, None], ids.size), starts, axis=0)
    ref = np.where(ref == ids.size, starts[:, None], ref)  # a NaN max: the id's first row
    for top, winners in _maxima(ids, len(starts), values):
        assert _bitwise(top, ref_top)
        assert _bitwise(winners, ref)


def test_level_max_pins_nan_signed_zeros_and_ties():
    # Two rows of one destination: signed zeros in both orders, a NaN
    # first and last, and a tie. The max folds the rows in index order
    # with the accumulator first, as reduceat does; the tie's winner is
    # the first row, and a NaN max sends its gradient to the first row.
    values = np.array([[0.0, -0.0, np.nan, 1.0, 2.0],
                       [-0.0, 0.0, 1.0, np.nan, 2.0]])
    ids, starts = _grouped([0, 0])
    for top, winners in _maxima(ids, 1, values):
        assert _bitwise(top, np.maximum.reduceat(values, starts, axis=0))
        assert _bitwise(top[0], np.maximum(values[0], values[1]))
        assert np.isnan(top[0, 2]) and np.isnan(top[0, 3]) and top[0, 4] == 2.0
        assert winners.tolist() == [[0, 0, 0, 0, 0]]


@pytest.mark.parametrize("min_cells", [0, ad.LEVEL_MIN_CELLS])
def test_segment_max_builds_winners_only_for_a_gradient(monkeypatch, min_cells):
    # Through a level walk and through reduceat: an input that needs no
    # gradient gets its max alone, and one that does gets the winners the
    # backward scatters to.
    monkeypatch.setattr(ad, "LEVEL_MIN_CELLS", min_cells)
    plan = ad.IndexPlan(_interleaved_ids(np.random.default_rng(0)), N, kept=True)
    asked, max_ = [], ad.IndexPlan.max
    monkeypatch.setattr(ad.IndexPlan, "max", lambda self, *args: asked.append(args[1:]) or max_(self, *args))
    x = np.random.default_rng(1).standard_normal((E, K, D))
    assert _bitwise(ad.segment_max(Tensor(x), plan, N).data, _ref_max_at(x, plan.ids, N)[0])
    assert asked == [(False,)]
    ad.segment_max(Tensor(x, requires_grad=True), plan, N).backward(np.ones((N, K, D)))
    assert asked == [(False,), (True,)]


@pytest.mark.parametrize("chunk_edges", [None, 5])
@pytest.mark.parametrize("kind", ["sum", "max-pooling"])
def test_a_layer_gives_the_same_bits_through_levels_and_reduceat(monkeypatch, kind, chunk_edges):
    """gat scores, softmax and aggregation, forward and backward, with every
    reduction walked through levels, then with none; with ``chunk_edges``,
    the levels walk in blocks of that many ids."""
    graph = generate_sbm(block_count=2, nodes_per_block=10, p_in=0.5, p_out=0.1, feature_dim=2,
                         signal_strength=1.0, seed=4).graphs[0]
    rng = np.random.default_rng(5)
    z_rows = rng.standard_normal((graph.node_count, 2, 8))
    z_rows[rng.random(z_rows.shape) < 0.1] = 0.0
    z_rows[rng.random(z_rows.shape) < 0.05] = -0.0
    if kind == "max-pooling":
        z_rows[rng.random(z_rows.shape) < 0.02] = np.nan
    a_rows = rng.standard_normal((2, 2, 8))
    g = rng.standard_normal(z_rows.shape)
    if chunk_edges:
        monkeypatch.setattr(ad, "EDGE_CHUNK_BYTES", 8 * 2 * 8 * chunk_edges)
    runs = []
    for min_cells in (0, 10**9):
        monkeypatch.setattr(ad, "LEVEL_MIN_CELLS", min_cells)
        z = Tensor(z_rows, requires_grad=True)
        a_l, a_r = Tensor(a_rows[0], requires_grad=True), Tensor(a_rows[1], requires_grad=True)
        with np.errstate(invalid="ignore"):
            scores = ad.edge_scores("gat", z, graph.plan, a_l, a_r)
            alpha = ad.segment_softmax(scores, graph.plan.dst, graph.node_count)
            out = ad.edge_aggregate(kind, alpha, z, graph.plan)
            out.backward(g)
        runs.append((alpha.data, out.data, z.grad, a_l.grad, a_r.grad))
    for got, ref in zip(*runs):
        assert _bitwise(got, ref)


@pytest.mark.parametrize("kind", ["sum", "mean-pooling", "mlp", "max-pooling", "cos", "gene-linear"])
def test_both_paths_run_on_the_benchmark_graph_shapes(kind, monkeypatch):
    """Float32 children: on the 400-node SBM of sbm-share, every
    aggregation and the cos and gene-linear scores of K x D >= 64 walk the
    graph's levels, forward and backward (one [E, K, D] temporary is 1 MB
    or more there); narrower messages make one pass over the edges and
    reduce it through the levels of the graph's plans, and scores then
    reduce nothing in the forward. On a 60-node graph of multigraph-share
    no width of its space (up to 4 x 32) walks, and 1 x 4 takes the
    bincount and reduceat. 4-head softmax scores reach no levels, and the
    segment ops given raw ids reach none at any width."""
    sbm = generate_sbm(block_count=4, nodes_per_block=100, p_in=0.06, p_out=0.02, feature_dim=16,
                       signal_strength=0.3, seed=1).graphs[0]
    small = generate_multigraph(graph_count=3, nodes_per_graph=60, avg_degree=8.0, label_count=6,
                                feature_dim=16, seed=1).graphs[0]
    seen, reduced = [], []
    real_blocks, real_taken = ad.Levels.blocks, ad.Levels._taken
    # every level walk runs its blocks; a plan's sum or max takes its rows first
    monkeypatch.setattr(ad.Levels, "blocks", lambda self, width: seen.append(self) or real_blocks(self, width))
    monkeypatch.setattr(ad.Levels, "_taken", lambda self, values: reduced.append(self) or real_taken(self, values))

    def taken(plan):
        assert all(levels is plan.dst.levels or levels is plan.src.levels for levels in seen)
        path = "walk" if len(seen) > len(reduced) else "levels" if seen else "flat"
        seen.clear()
        reduced.clear()
        return path

    scores = kind in ("cos", "gene-linear")
    cases = [(sbm, 1, 8, "levels"), (sbm, 1, 32, "levels"), (sbm, 2, 32, "walk"), (sbm, 4, 16, "walk"),
             (sbm, 4, 32, "walk"), (small, 1, 4, "flat"), (small, 4, 32, "levels")]
    for graph, heads, width, path in cases:
        plan, n = graph.plan, graph.node_count
        assert plan.walks(heads * width, 4) == (path == "walk") == (graph.edge_count * heads * width * 4 >= 2**20)
        rng = np.random.default_rng(0)
        ad.segment_softmax(Tensor(rng.standard_normal((graph.edge_count, 4))), plan.dst, n)
        assert taken(plan) == "flat"
        rows = Tensor(rng.standard_normal((graph.edge_count, heads * width)).astype(np.float32), requires_grad=True)
        for ids, expected in ((graph.dst, "flat"), (plan.dst, "flat" if path == "flat" else "levels")):
            out = ad.add(ad.segment_softmax(rows, ids, n), ad.gather_rows(ad.segment_max(rows, ids, n), ids))
            out.backward(np.ones(out.shape, dtype=np.float32))
            assert taken(plan) == expected, (graph.node_count, heads, width, type(ids))
        z = Tensor(rng.standard_normal((n, heads, width)).astype(np.float32), requires_grad=True)
        weights = [Tensor(rng.standard_normal((heads, width, width)).astype(np.float32), requires_grad=True)
                   for _ in range(2 if kind in ("mlp", "cos", "gene-linear") else 0)]
        if kind == "gene-linear":
            weights.append(Tensor(rng.standard_normal((heads, width)).astype(np.float32), requires_grad=True))
        if scores:
            out = ad.edge_scores(kind, z, plan, *weights)
        else:
            alpha = Tensor(np.ones((graph.edge_count, heads), dtype=np.float32), requires_grad=True)
            out = ad.edge_aggregate(kind, alpha, z, plan, *weights)
        forward = taken(plan)
        out.backward(np.ones(out.shape, dtype=np.float32))
        backward = taken(plan)
        expected = path if path == "walk" or not scores else "flat"
        assert (forward, backward) == (expected, path), (graph.node_count, heads, width)


def _walk_case(attention, aggregation, dtype, seed=21):
    """Scores and aggregation of one layer, forward and backward, on a
    30-node SBM, with signed zeros, infinities, NaNs and subnormals in z
    and alpha: the values, and the gradients of z, alpha and every weight."""
    graph = generate_sbm(block_count=2, nodes_per_block=15, p_in=0.5, p_out=0.1, feature_dim=2,
                         signal_strength=1.0, seed=4).graphs[0]
    n, e_count = graph.node_count, graph.edge_count
    rng = np.random.default_rng(seed)
    params = init_layer_params(rng, attention, aggregation, 4, 2, 3).tensors
    for t in params.values():
        t.data = t.data.astype(dtype)
    g = rng.standard_normal((n, 2, 3)).astype(dtype)
    g_scores = rng.standard_normal((e_count, 2)).astype(dtype)
    tensors = [params[name] for name in (*LAYER_TENSORS["attention"][attention],
                                         *LAYER_TENSORS["aggregation"][aggregation])]
    with np.errstate(all="ignore"):
        z = Tensor(_values(seed, n, 6, 0.05).reshape(n, 2, 3).astype(dtype), requires_grad=True)
        alpha_rows = np.abs(_values(seed + 1, e_count, 2, 0.05)) * np.where(rng.random((e_count, 2)) < 0.3, -1, 1)
        alpha = Tensor(alpha_rows.astype(dtype), requires_grad=True)
        scores = ad.edge_scores(attention, z, graph.plan, *(params[k] for k in LAYER_TENSORS["attention"][attention]))
        out = ad.edge_aggregate(aggregation, alpha, z, graph.plan,
                                *(params[k] for k in LAYER_TENSORS["aggregation"][aggregation]))
        out.backward(g)
        if scores.requires_grad:
            scores.backward(g_scores)
    return [scores.data, out.data, z.grad, alpha.grad, *(t.grad for t in tensors)]


@pytest.mark.parametrize("blocks", ["one", "several"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_the_level_walk_gives_the_chunked_bits_for_every_kind(monkeypatch, dtype, blocks):
    """Every attention x aggregation kind, walked and in one pass over the
    edges, whose reductions go through the graph's levels here: the same
    bits, NaNs included, with one row block or with 4 ids per row block (so
    each level spans several), where gene-linear's w_a sum also restarts
    every 4 (float64) or 8 (float32) edges on both paths."""
    monkeypatch.setattr(ad, "LEVEL_MIN_CELLS", 0)
    if blocks == "several":
        monkeypatch.setattr(ad, "EDGE_CHUNK_BYTES", 8 * 6 * 4)
    for attention, aggregation in itertools.product(ATTENTION, AGGREGATION):
        runs = []
        for walk_min in (0, 2**62):
            monkeypatch.setattr(ad, "WALK_MIN_BYTES", walk_min)
            runs.append(_walk_case(attention, aggregation, dtype))
        walked, one_pass = runs
        assert len(walked) == len(one_pass) and all(x is not None for x in walked), (attention, aggregation)
        for i, (got, ref) in enumerate(zip(walked, one_pass)):
            assert got.dtype == dtype and _bitwise(got, ref), (attention, aggregation, i)


def test_a_level_walk_in_row_blocks_sums_in_index_order(monkeypatch):
    """Levels.walk with 3 ids per row block, so each level spans several
    blocks, is bitwise np.add.at into zeros, rounded once to float32. The
    last id has one row, of -0.0s, which np.add.at turns into 0.0s."""
    monkeypatch.setattr(ad, "EDGE_CHUNK_BYTES", 8 * 5 * 3)
    rng = np.random.default_rng(2)
    n, ids = 12, np.append(rng.integers(0, 11, 90), 11)
    with np.errstate(all="ignore"):
        values = _values(7, ids.size, 5, 0.05).astype(np.float32)
        values[-1] = -0.0
        ref = _ref_add_at(values.astype(np.float64), ids, n)
        got = ad.IndexPlan(ids, n).levels.sum(values, np.float32)
        assert _same_bits(got, ref.astype(np.float32))


@pytest.mark.parametrize("min_cells", [0, 10**9], ids=["chunk-levels", "chunk-reduceat"])
def test_max_pooling_ties_route_to_the_same_edge_walked_and_chunked(monkeypatch, min_cells):
    """Many equal messages into each destination, ties of 0.0 and -0.0,
    NaN maxima and infinite gradients, with 3 ids per row block: the walk
    and the one pass (through the graph's levels, or through reduceat)
    route each (destination, column)'s gradient to its first edge equal to
    the max, or to its first edge where the max is NaN, bitwise as an
    inline reference."""
    graph = generate_sbm(block_count=2, nodes_per_block=15, p_in=0.5, p_out=0.1, feature_dim=2,
                         signal_strength=1.0, seed=4).graphs[0]
    n, e_count = graph.node_count, graph.edge_count
    src, dst = graph.plan.src.ids, graph.plan.dst.ids
    rng = np.random.default_rng(3)
    z_rows = rng.choice([-1.0, 0.5, 2.0], (n, 2, 4))
    z_rows[:, 0, 1] = rng.choice([0.0, -0.0], n)
    z_rows[5, 1, 2] = np.nan
    alpha_rows = rng.choice([0.5, 1.0], (e_count, 2))
    g = rng.standard_normal((n, 2, 4))
    g[::4, 1, 3] = -np.inf  # no edge but the winner may see it
    # the reference: first edge equal to the max, or the first edge for NaN
    messages = (alpha_rows[:, :, None] * z_rows[src]).reshape(e_count, -1)
    top = np.full((n, 8), -np.inf)
    np.maximum.at(top, dst, messages)
    winner = np.empty((n, 8), dtype=np.int64)
    for d in range(n):
        edges = np.flatnonzero(dst == d)
        with np.errstate(invalid="ignore"):
            hit = messages[edges] == top[d]
        winner[d] = np.where(np.isnan(top[d]), edges[0], edges[np.argmax(hit, axis=0)])
    tied = [(messages[dst == d, c] == top[d, c]).sum() for d in range(n) for c in range(8)]
    first_edges = np.array([np.flatnonzero(dst == d)[0] for d in range(n)])
    assert sum(t > 1 for t in tied) > 100 and (winner != first_edges[:, None]).any()
    nan_rows = np.isnan(top[:, 6])
    assert nan_rows.any() and not np.isnan(messages[first_edges[nan_rows], 6]).all()
    g_m = np.zeros((e_count, 8))
    g_m[winner, np.arange(8)] = g.reshape(n, 8)
    g_m = g_m.reshape(e_count, 2, 4)
    ref = [top.reshape(n, 2, 4), _ref_add_at(g_m * alpha_rows[:, :, None], src, n),
           np.einsum("ekd,ekd->ek", g_m, z_rows[src])]

    monkeypatch.setattr(ad, "LEVEL_MIN_CELLS", min_cells)
    monkeypatch.setattr(ad, "EDGE_CHUNK_BYTES", 8 * 8 * 3)
    runs = []
    for walk_min in (0, 2**62):
        monkeypatch.setattr(ad, "WALK_MIN_BYTES", walk_min)
        z, alpha = Tensor(z_rows, requires_grad=True), Tensor(alpha_rows, requires_grad=True)
        with np.errstate(invalid="ignore"):
            out = ad.edge_aggregate("max-pooling", alpha, z, graph.plan)
            out.backward(g)
        runs.append([out.data, z.grad, alpha.grad])
    for walked, one_pass, expected in zip(*runs, ref):
        assert _bitwise(walked, one_pass)
        assert _same_bits(walked, expected)


def _step_peak(arch: str) -> int:
    """tracemalloc's peak over one float32 training step (dropout 0.6) on
    the 400-node SBM, after a first step built the graph's plans and
    levels, which outlive the step."""
    dataset = generate_sbm(block_count=4, nodes_per_block=100, p_in=0.06, p_out=0.02, feature_dim=16,
                           signal_strength=0.3, seed=1).with_feature_dtype(CHILD_DTYPE)
    graph = dataset.graphs[0]
    model = build_model(decode(arch), dataset.feature_dim, dataset.class_count, np.random.default_rng(0),
                        dtype=CHILD_DTYPE)

    def step():
        logits = forward(model, graph, training=True, rng=np.random.default_rng(1), dropout_p=0.6)
        ad.loss(dataset.task_kind, logits, dataset.labels[0], dataset.masks[0].train).backward()

    step()
    with traced_memory() as memory:
        step()
        return memory.peak()


def test_a_walked_training_step_keeps_no_edge_sized_temporaries():
    """One float32 training step of a 4 x 32 gat,sum child on the 400-node
    SBM: its [E, K, D] temporaries are 2.7 MB each, and one pass over the
    edges peaks at 6.7 MB; walked, the step peaks at 2.7 MB."""
    peak = _step_peak("first-order,gat,sum,elu,4,32;first-order,gat,sum,elu,1,32")
    assert peak < 4e6, f"{peak / 1e6:.1f} MB"


@pytest.mark.parametrize("arch", ["first-order,gcn,max-pooling,relu,4,32;first-order,gcn,sum,tanh,1,8",
                                  "first-order,cos,mlp,leaky_relu,4,32;first-order,gcn,max-pooling,tanh,2,32"],
                         ids=["max-pooling", "cos"])
def test_walked_max_pooling_and_cos_steps_keep_no_edge_sized_temporaries(arch):
    """Max-pooling and the cos scores walk too: one pass over the edges
    peaks at 9.5 MB (max-pooling) and 10.9 MB (cos with max-pooling)."""
    peak = _step_peak(arch)
    assert peak < 4e6, f"{peak / 1e6:.1f} MB"


# Step peaks bounded in units of one [N, K, D] float32 array at N = 400,
# K = 4, D = 32 (204,800 bytes), per attention kind, in AGGREGATION's
# order: each is a reading plus about 0.2 units. A backward that kept its
# gradients through a rule, walks that allocated their output before
# folding, and float dropout and leaky_relu scales read 9.2-18.9.
STEP_PEAK_UNITS = {
    "const": (7.4, 7.4, 9.9, 10.6),
    "gcn": (7.4, 7.4, 9.6, 10.6),
    "gat": (10.9, 10.9, 12.5, 13.2),
    "sym-gat": (11.3, 11.3, 13.0, 13.6),
    "cos": (12.5, 12.5, 14.1, 14.8),
    "linear": (10.5, 10.5, 12.1, 12.8),
    "gene-linear": (12.5, 12.5, 14.1, 14.8),
}


@pytest.mark.parametrize("aggregation", AGGREGATION)
@pytest.mark.parametrize("attention", ATTENTION)
def test_a_training_step_holds_few_node_sized_arrays(attention, aggregation):
    """One float32 step (dropout 0.6) of a 4 x 32 leaky_relu first layer
    and a gcn,sum second layer: its tracemalloc peak stays under the
    kind's bound."""
    unit = 400 * 4 * 32 * 4
    bound = STEP_PEAK_UNITS[attention][AGGREGATION.index(aggregation)] * unit
    peak = _step_peak(f"first-order,{attention},{aggregation},leaky_relu,4,32;first-order,gcn,sum,relu,1,8")
    assert peak < bound, f"{peak / unit:.2f} units"


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("width", [2, 3, 4])
def test_narrow_sums_by_column_are_bitwise_add_at(dtype, width):
    """Widths 2-4 sum one bincount per column: np.add.at into float64
    zeros, -0.0 rows turned to 0.0, rounded once; strided and empty
    inputs too."""
    rng = np.random.default_rng(width)
    ids = _interleaved_ids(rng)
    values = _values(width, E, width, 0.0)
    values[rng.random(values.shape) < 0.2] = -0.0
    values[ids == 3] = -0.0  # a row of -0.0 sums only -0.0s
    values = values.astype(dtype)
    ref = _ref_add_at(values.astype(np.float64), ids, N).astype(dtype)
    plan = ad.IndexPlan(ids, N)
    assert _bitwise(plan.sum(values), ref)
    assert _bitwise(plan.sum(np.asfortranarray(values)), ref)
    assert not np.signbit(plan.sum(values)[3]).any()
    assert _bitwise(ad.IndexPlan(ids[:0], N).sum(values[:0]), np.zeros((N, width), dtype=dtype))


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_gathering_every_row_in_order_returns_the_array(dtype):
    """A loss over every node of a graph: the rows are the input's array,
    and the gradient is np.add.at's 0.0 + g, so -0.0 becomes 0.0."""
    x = Tensor(np.arange(12.0).reshape(6, 2).astype(dtype), requires_grad=True)
    out = ad.gather_rows(x, np.arange(6))
    assert out.data is x.data
    g = np.array([[1.5, -0.0], [0.0, -2.0], [np.inf, -0.0], [3.0, 1e-45], [-0.0, -0.0], [7.0, 0.25]], dtype=dtype)
    out.backward(g)
    ref = np.zeros((6, 2), dtype=dtype)
    np.add.at(ref, np.arange(6), g)
    assert _bitwise(x.grad, ref) and not np.signbit(x.grad[4]).any()
    for ids in ([0, 1, 2, 3, 4], [1, 0, 2, 3, 4, 5], [0, 1, 2, 3, 4, 4]):  # not every row in order
        assert not np.shares_memory(ad.gather_rows(x, ids).data, x.data)


# ---------------------------------------------------------------------------
# ids must be integers


@pytest.mark.parametrize("ids", [np.array([False, True, False, True]), [0.9, 2.99], np.array([1.0, 3.0])],
                         ids=["bool", "float-list", "float-array"])
def test_gather_rows_refuses_ids_that_are_not_integers(ids):
    x = Tensor(np.arange(8.0).reshape(4, 2))
    dtype = np.asarray(ids).dtype
    with pytest.raises(ParameterError, match=f"index must hold integers, got dtype {dtype}"):
        ad.gather_rows(x, ids)
    with pytest.raises(ParameterError, match=f"got dtype {dtype}"):
        ad.segment_sum(Tensor(np.ones((len(ids), 2))), ids, 4)


@pytest.mark.parametrize("loss", [ad.cross_entropy, ad.binary_cross_entropy])
@pytest.mark.parametrize("mask", [np.array([True, True, False, False]), [0.0, 1.0]], ids=["bool", "float"])
def test_losses_refuse_masks_that_are_not_integers(loss, mask):
    logits = Tensor(np.zeros((4, 2)), requires_grad=True)
    labels = np.zeros(4, dtype=np.int64) if loss is ad.cross_entropy else np.zeros((4, 2))
    with pytest.raises(ParameterError, match=f"mask index must hold integers, got dtype {np.asarray(mask).dtype}"):
        loss(logits, labels, mask)


def test_integer_and_empty_ids_are_accepted():
    x = Tensor(np.arange(8.0).reshape(4, 2))
    for ids in ([1, 3], np.array([1, 3], dtype=np.int32), np.array([1, 3], dtype=np.uint8)):
        assert _bitwise(ad.gather_rows(x, ids).data, x.data[[1, 3]])
    assert ad.gather_rows(x, []).data.shape == (0, 2)
    assert ad.IndexPlan(np.array([], dtype=bool), 4).ids.dtype == np.int64
    logits = Tensor(np.zeros((4, 2)))
    assert ad.cross_entropy(logits, np.zeros(4, dtype=np.int64), np.array([1, 3], dtype=np.int32)).item() > 0.0
