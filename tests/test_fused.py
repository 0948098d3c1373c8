"""Fused edge ops against per-kind op chains of the elementwise, gather
and segment ops.

``edge_scores`` and ``edge_aggregate`` must give the chains' values bit
for bit (``mlp`` multiplies on node rows and is held to 1e-12), and
gradients within 1e-12; a level walk in many row blocks must give the
values and gradients of a walk in one block bit for bit, gene-linear's
w_a included. ``segment_softmax`` must give its
chain's values and gradients bit for bit.
"""

import numpy as np
import pytest

from gnnsearch import autodiff as ad
from gnnsearch.arch import AGGREGATION, ATTENTION, decode
from gnnsearch.autodiff import Tensor
from gnnsearch.gnn import _edge_scores, build_model, forward, init_layer_params
from gnnsearch.graphs import Graph, generate_sbm

from conftest import rel_err, traced_memory

K, D = 2, 5
TOL = 1e-12


def _bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _chain_scores(kind, z, graph, t):
    plan = graph.plan
    src, dst = plan.src, plan.dst
    e_count, k = graph.edge_count, z.shape[1]
    if kind == "const":
        return Tensor(np.ones((e_count, k)))
    if kind == "gcn":
        return Tensor(np.broadcast_to(plan.gcn_norm[:, None], (e_count, k)))
    if kind in ("gat", "sym-gat"):
        s_l = ad.reduce_sum(ad.mul(z, t["a_l"]), axis=-1)
        s_r = ad.reduce_sum(ad.mul(z, t["a_r"]), axis=-1)
        forward_scores = ad.leaky_relu(ad.add(ad.gather_rows(s_l, dst), ad.gather_rows(s_r, src)))
        if kind == "gat":
            return forward_scores
        reverse_scores = ad.leaky_relu(ad.add(ad.gather_rows(s_l, src), ad.gather_rows(s_r, dst)))
        return ad.add(forward_scores, reverse_scores)
    if kind == "cos":
        left = ad.head_matmul(z, t["w_l"])
        right = ad.head_matmul(z, t["w_r"])
        return ad.reduce_sum(ad.mul(ad.gather_rows(left, dst), ad.gather_rows(right, src)), axis=-1)
    if kind == "linear":
        s = ad.reduce_sum(ad.mul(z, t["a_l"]), axis=-1)
        return ad.tanh(ad.gather_rows(s, src))
    left = ad.head_matmul(z, t["w_l"])
    right = ad.head_matmul(z, t["w_r"])
    hidden = ad.tanh(ad.add(ad.gather_rows(left, dst), ad.gather_rows(right, src)))
    return ad.reduce_sum(ad.mul(hidden, t["w_a"]), axis=-1)


def _chain_aggregate(kind, alpha, z, graph, t):
    plan, n = graph.plan, graph.node_count
    messages = ad.mul(ad.reshape(alpha, (graph.edge_count, z.shape[1], 1)), ad.gather_rows(z, plan.src))
    if kind == "sum":
        return ad.segment_sum(messages, plan.dst, n)
    if kind == "mean-pooling":
        return ad.segment_mean(messages, plan.dst, n)
    if kind == "max-pooling":
        return ad.segment_max(messages, plan.dst, n)
    inner = ad.relu(ad.head_matmul(messages, t["mlp_w1"]))
    return ad.segment_sum(ad.head_matmul(inner, t["mlp_w2"]), plan.dst, n)


def _chain_softmax(scores, ids, n):
    plan = ad.IndexPlan(ids, n)
    flat = scores.data.reshape(scores.data.shape[0], -1)
    seg_max = np.maximum.reduceat(flat[plan.order], np.cumsum(plan.counts) - plan.counts, axis=0)
    shift = Tensor(seg_max.reshape((n,) + scores.data.shape[1:])[plan.ids])
    exp_scores = ad.exp(ad.sub(scores, shift))
    denom = ad.segment_sum(exp_scores, plan, n)
    return ad.div(exp_scores, ad.gather_rows(denom, plan))


@pytest.fixture(scope="module")
def graph():
    # 30 nodes, about 200 edges: every node has a self-loop and a few neighbours.
    return generate_sbm(block_count=3, nodes_per_block=10, p_in=0.4, p_out=0.1, feature_dim=4,
                        signal_strength=1.0, seed=2).graphs[0]


def _layer_inputs(attention, aggregation, graph, seed=0):
    rng = np.random.default_rng(seed)
    params = init_layer_params(rng, attention, aggregation, in_dim=4, heads=K, hidden=D)
    z = Tensor(rng.standard_normal((graph.node_count, K, D)), requires_grad=True)
    keep = Tensor((rng.random((graph.edge_count, K)) >= 0.3) / 0.7)  # a dropout mask on alpha
    weight = Tensor(rng.standard_normal((graph.node_count, K, D)))
    return params, z, keep, weight


def _run_layer(attention, aggregation, graph, params, z, keep, weight, fused):
    """One layer's message passing, scalarized; returns (scores, agg, grads)."""
    t = params.tensors
    ad.zero_grads([z, *t.values()])
    if fused:
        scores = _edge_scores(attention, z, graph, params)
        alpha = ad.mul(ad.segment_softmax(scores, graph.plan.dst, graph.node_count), keep)
        mlp = [t[name] for name in ("mlp_w1", "mlp_w2") if name in t]
        agg = ad.edge_aggregate(aggregation, alpha, z, graph.plan, *mlp)
    else:
        scores = _chain_scores(attention, z, graph, t)
        alpha = ad.mul(_chain_softmax(scores, graph.dst, graph.node_count), keep)
        agg = _chain_aggregate(aggregation, alpha, z, graph, t)
    scores_data, agg_data = scores.data, agg.data
    ad.reduce_sum(ad.mul(agg, weight)).backward()
    grads = {"z": z.grad, **{name: p.grad for name, p in t.items() if name != "w_t"}}
    return scores_data, agg_data, grads


@pytest.mark.parametrize("aggregation", AGGREGATION)
@pytest.mark.parametrize("attention", ATTENTION)
def test_fused_ops_match_the_op_chains(graph, attention, aggregation):
    inputs = _layer_inputs(attention, aggregation, graph)
    scores, agg, grads = _run_layer(attention, aggregation, graph, *inputs, fused=True)
    ref_scores, ref_agg, ref_grads = _run_layer(attention, aggregation, graph, *inputs, fused=False)
    assert _bitwise(scores, ref_scores)
    if aggregation == "mlp":
        assert np.allclose(agg, ref_agg, rtol=TOL, atol=TOL)
    else:
        assert _bitwise(agg, ref_agg)
    assert grads.keys() == ref_grads.keys()
    for name, ref in ref_grads.items():
        assert grads[name] is not None, name
        assert rel_err(grads[name], ref) < TOL, name


@pytest.mark.parametrize("aggregation", AGGREGATION)
@pytest.mark.parametrize("attention", ATTENTION)
def test_many_chunks_give_the_one_chunk_bits(graph, attention, aggregation, monkeypatch):
    """Every kind walked, with EDGE_CHUNK_BYTES at 7 rows of K x D float64:
    the walk takes blocks of 7 ids, and gene-linear's w_a gradient adds
    blocks of 7 grouped edges onto its one total."""
    inputs = _layer_inputs(attention, aggregation, graph, seed=1)
    monkeypatch.setattr(ad, "WALK_MIN_BYTES", 0)
    one = _run_layer(attention, aggregation, graph, *inputs, fused=True)
    monkeypatch.setattr(ad, "EDGE_CHUNK_BYTES", 8 * K * D * 7)
    assert len(list(graph.plan.dst.levels.blocks(K * D))) > 3
    many = _run_layer(attention, aggregation, graph, *inputs, fused=True)
    assert _bitwise(many[0], one[0]) and _bitwise(many[1], one[1])
    for name, ref in one[2].items():
        assert _bitwise(many[2][name], ref), name


def test_a_graph_without_edges_scores_nothing_and_aggregates_zeros():
    graph = Graph(node_count=2, edges=np.zeros((0, 2), dtype=np.int64), features=np.zeros((2, 1)),
                  degrees=np.zeros(2, dtype=np.int64))
    params = init_layer_params(np.random.default_rng(0), "gene-linear", "mlp", in_dim=1, heads=K, hidden=D)
    z = Tensor(np.ones((2, K, D)), requires_grad=True)
    scores = _edge_scores("gene-linear", z, graph, params)
    agg = ad.edge_aggregate("mlp", scores, z, graph.plan, params.tensors["mlp_w1"], params.tensors["mlp_w2"])
    assert scores.shape == (0, K) and not agg.data.any()
    ad.reduce_sum(agg).backward()
    assert not z.grad.any() and not params.tensors["w_l"].grad.any()


def _max_case(z_rows, src_dst, alpha=None):
    """A graph with the given directed edges (self-loops added) and node rows."""
    n = len(z_rows)
    edges = np.array(sorted({*map(tuple, src_dst), *((i, i) for i in range(n))}), dtype=np.int64)
    graph = Graph(node_count=n, edges=edges, features=np.zeros((n, 1)),
                  degrees=np.bincount(edges[:, 1], minlength=n))
    z = Tensor(np.asarray(z_rows, dtype=np.float64).reshape(n, 1, -1), requires_grad=True)
    alpha = Tensor(np.ones((graph.edge_count, 1)) if alpha is None else alpha, requires_grad=True)
    return graph, z, alpha


def _max_grads(graph, z, alpha, fused, g):
    ad.zero_grads([z, alpha])
    if fused:
        out = ad.edge_aggregate("max-pooling", alpha, z, graph.plan)
    else:
        out = _chain_aggregate("max-pooling", alpha, z, graph, {})
    out.backward(g)
    return out.data, z.grad, alpha.grad


@pytest.mark.parametrize("chunk_edges", [None, 2, 3])
def test_max_pooling_ties_go_to_the_lowest_edge(monkeypatch, chunk_edges):
    if chunk_edges:  # walked, in blocks of that many ids
        monkeypatch.setattr(ad, "WALK_MIN_BYTES", 0)
        monkeypatch.setattr(ad, "EDGE_CHUNK_BYTES", 8 * 2 * chunk_edges)
    # Node 0 gets four equal maxima in column 0 (from nodes 1, 2, 3 and 4),
    # and node 1's own row ties with node 4's in column 1.
    rows = [[0.0, -1.0], [5.0, 7.0], [5.0, 1.0], [5.0, 1.0], [5.0, 7.0]]
    graph, z, alpha = _max_case(rows, [[1, 0], [2, 0], [3, 0], [4, 0], [4, 1], [0, 1]])
    g = np.arange(1.0, 1.0 + 5 * 2).reshape(5, 1, 2)
    out, gz, galpha = _max_grads(graph, z, alpha, True, g)
    ref = _max_grads(graph, z, alpha, False, g)
    assert _bitwise(out, ref[0]) and _bitwise(gz, ref[1]) and _bitwise(galpha, ref[2])
    # Node 1 wins both columns of nodes 0 and 1; every other node only
    # its own self-loop. g[i] = (1 + 2i, 2 + 2i).
    assert gz[:, 0, 0].tolist() == [0.0, 1.0 + 3.0, 5.0, 7.0, 9.0]
    assert gz[:, 0, 1].tolist() == [0.0, 2.0 + 4.0, 6.0, 8.0, 10.0]


@pytest.mark.parametrize("chunk_edges", [None, 2])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_max_pooling_lets_non_finite_messages_through(monkeypatch, chunk_edges, bad):
    if chunk_edges:  # walked, in blocks of that many ids
        monkeypatch.setattr(ad, "WALK_MIN_BYTES", 0)
        monkeypatch.setattr(ad, "EDGE_CHUNK_BYTES", 8 * 2 * chunk_edges)
    rows = [[1.0, 2.0], [bad, 0.5], [3.0, bad], [0.0, 4.0]]
    graph, z, alpha = _max_case(rows, [[1, 0], [2, 0], [3, 0], [0, 2], [3, 2]])
    g = np.ones((4, 1, 2))
    with np.errstate(invalid="ignore"):
        out, gz, galpha = _max_grads(graph, z, alpha, True, g)
        ref = _max_grads(graph, z, alpha, False, g)
    assert np.array_equal(out, ref[0], equal_nan=True)
    assert np.array_equal(gz, ref[1], equal_nan=True) and np.array_equal(galpha, ref[2], equal_nan=True)


def test_segment_softmax_is_one_node_with_the_chain_bits(graph):
    rng = np.random.default_rng(3)
    scores = Tensor(rng.standard_normal((graph.edge_count, K)) * 3.0, requires_grad=True)
    g = rng.standard_normal((graph.edge_count, K))
    out = ad.segment_softmax(scores, graph.plan.dst, graph.node_count)
    assert out.inputs == (scores,)
    out.backward(g)
    fused = scores.grad
    scores.grad = None
    ref = _chain_softmax(scores, graph.dst, graph.node_count)
    ref.backward(g)
    assert _bitwise(out.data, ref.data) and _bitwise(fused, scores.grad)


def test_a_layer_records_a_handful_of_tape_nodes(graph):
    arch = decode("first-order,gene-linear,mlp,relu,2,4;first-order,cos,max-pooling,linear,2,4")
    model = build_model(arch, graph.feature_dim, 3, np.random.default_rng(0))
    logits = forward(model, graph, training=True, rng=np.random.default_rng(1), dropout_p=0.5)
    # per layer: dropout, matmul, reshape, scores, softmax, dropout, aggregate, merge, activation
    assert len(ad.Tape.trace(logits)) <= 2 * 9


@pytest.mark.parametrize("first", ["gene-linear,mlp", "cos,max-pooling"])
def test_wide_child_step_memory_does_not_grow_with_edges(first):
    """One training step of an 8 x 128 child on a 400-node SBM, and on one
    with twice the edges. The op chains peaked at 540 and 360 MB (an
    [E, K, D] array is 43 MB here); walked, the peak is about 50 and
    40 MB on both graphs."""
    peaks = []
    for p_in, p_out in ((0.06, 0.02), (0.12, 0.04)):
        dataset = generate_sbm(block_count=4, nodes_per_block=100, p_in=p_in, p_out=p_out,
                               feature_dim=16, signal_strength=0.3, seed=1)
        model = build_model(decode(f"first-order,{first},relu,8,128;first-order,gcn,sum,relu,1,8"),
                            dataset.feature_dim, dataset.class_count, np.random.default_rng(0))
        graph = dataset.graphs[0]
        graph.plan.dst_far, graph.plan.src_far  # built before measuring: they outlive the step
        with traced_memory() as memory:
            logits = forward(model, graph, training=True, rng=np.random.default_rng(1))
            ad.loss(dataset.task_kind, logits, dataset.labels[0], dataset.masks[0].train).backward()
            del logits
            peaks.append(memory.peak())
    assert max(peaks) < 150e6, [f"{p / 1e6:.1f} MB" for p in peaks]
    assert peaks[1] - peaks[0] < ad.EDGE_CHUNK_BYTES, [f"{p / 1e6:.1f} MB" for p in peaks]
