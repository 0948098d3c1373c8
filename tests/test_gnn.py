"""Child models: attention functions, layer wiring, training, metrics."""

import importlib
import itertools

import numpy as np
import pytest

import gnnsearch.gnn as gnn_module
from gnnsearch import autodiff as ad
from gnnsearch.arch import AGGREGATION, ATTENTION, decode, default_space
from gnnsearch.autodiff import Tensor
from gnnsearch.errors import ParameterError, ShapeError, TrainingError
from gnnsearch.gnn import (
    LayerParams,
    ShareKey,
    TrainHyperparams,
    build_model,
    evaluate,
    forward,
    init_layer_params,
    layer_shapes,
    median,
    node_metric,
    param_count,
    train_child,
)
from gnnsearch.gnn import _edge_scores
from gnnsearch.graphs import Graph, LabeledDataset, generate_multigraph, make_graph, make_mask

from conftest import check_grads


def _arch(text):
    return decode(text)


def _layer_dims(model):
    """(in_dim, out_dim) each layer of a built model uses."""
    return [(step.key.in_dim, step.out_dim) for step in model.plan]


def _pair_score(kind, h_i, h_j, d_i, d_j, params=None):
    """Score the edge j -> i of a two-node stub graph whose in-degrees are
    d_i and d_j; returns [heads].

    ``h_i`` is the aggregating node, ``h_j`` the neighbor, both given as
    per-head transformed features [heads, width] (or [width] for one head).
    """
    h_i, h_j = np.atleast_2d(h_i), np.atleast_2d(h_j)
    heads, width = h_i.shape
    stub = Graph(
        node_count=2,
        edges=np.array([[1, 0]], dtype=np.int64),
        features=np.zeros((2, 1)),
        degrees=np.array([d_i, d_j], dtype=np.int64),
    )
    if params is None:  # const and gcn own no scoring tensors
        params = LayerParams({"w_t": Tensor(np.zeros((1, heads * width)))})
    scores = _edge_scores(kind, Tensor(np.stack([h_i, h_j])), stub, params)
    return ad.reshape(scores, (heads,))


# ---------------------------------------------------------------------------
# attention scores


def test_const_score_is_one(rng):
    h = rng.standard_normal((2, 3))
    out = _pair_score("const", h, h + 1.0, 5, 2)
    assert np.allclose(out.data, [1.0, 1.0])


def test_gcn_score_uses_degrees(rng):
    h = rng.standard_normal(4)
    out = _pair_score("gcn", h, h, 4, 1)
    assert np.allclose(out.data, [0.5])  # 1/sqrt(4*1)
    out = _pair_score("gcn", h, h, 3, 12)
    assert np.allclose(out.data, [1.0 / 6.0])


def test_gat_score_matches_hand_formula(rng):
    params = init_layer_params(rng, "gat", "sum", in_dim=1, heads=2, hidden=3)
    h_i = rng.standard_normal((2, 3))
    h_j = rng.standard_normal((2, 3))
    out = _pair_score("gat", h_i, h_j, 2, 2, params).data
    a_l, a_r = params.tensors["a_l"].data, params.tensors["a_r"].data
    pre = (a_l * h_i).sum(axis=1) + (a_r * h_j).sum(axis=1)
    expected = np.where(pre > 0, pre, 0.2 * pre)
    assert np.allclose(out, expected)


def test_sym_gat_is_sum_of_both_directions(rng):
    params = init_layer_params(rng, "sym-gat", "sum", in_dim=1, heads=2, hidden=4)
    h_i = rng.standard_normal((2, 4))
    h_j = rng.standard_normal((2, 4))
    sym = _pair_score("sym-gat", h_i, h_j, 3, 3, params).data
    fwd = _pair_score("gat", h_i, h_j, 3, 3, params).data
    rev = _pair_score("gat", h_j, h_i, 3, 3, params).data
    assert np.allclose(sym, fwd + rev)


def test_cos_score_matches_hand_formula(rng):
    params = init_layer_params(rng, "cos", "sum", in_dim=1, heads=2, hidden=3)
    h_i = rng.standard_normal((2, 3))
    h_j = rng.standard_normal((2, 3))
    out = _pair_score("cos", h_i, h_j, 1, 1, params).data
    w_l, w_r = params.tensors["w_l"].data, params.tensors["w_r"].data
    expected = [
        (h_i[k] @ w_l[k]) @ (h_j[k] @ w_r[k]) for k in range(2)
    ]
    assert np.allclose(out, expected)


def test_linear_score_ignores_the_aggregating_node(rng):
    params = init_layer_params(rng, "linear", "sum", in_dim=1, heads=1, hidden=4)
    h_j = rng.standard_normal((1, 4))
    a = _pair_score("linear", rng.standard_normal((1, 4)), h_j, 2, 2, params).data
    b = _pair_score("linear", rng.standard_normal((1, 4)), h_j, 2, 2, params).data
    assert np.allclose(a, b)
    expected = np.tanh((params.tensors["a_l"].data * h_j).sum(axis=1))
    assert np.allclose(a, expected)


def test_gene_linear_score_matches_hand_formula(rng):
    params = init_layer_params(rng, "gene-linear", "sum", in_dim=1, heads=2, hidden=3)
    h_i = rng.standard_normal((2, 3))
    h_j = rng.standard_normal((2, 3))
    out = _pair_score("gene-linear", h_i, h_j, 1, 1, params).data
    t = params.tensors
    expected = [
        t["w_a"].data[k] @ np.tanh(h_i[k] @ t["w_l"].data[k] + h_j[k] @ t["w_r"].data[k])
        for k in range(2)
    ]
    assert np.allclose(out, expected)


@pytest.mark.parametrize("kind", ["gat", "sym-gat", "cos", "linear", "gene-linear"])
def test_attention_param_gradients(rng, kind):
    params = init_layer_params(rng, kind, "sum", in_dim=1, heads=2, hidden=3)
    h_i = rng.standard_normal((2, 3))
    h_j = rng.standard_normal((2, 3))
    weights = Tensor(rng.standard_normal(2))
    tensors = [t for name, t in params.tensors.items() if name != "w_t"]

    def build():
        return ad.reduce_sum(ad.mul(_pair_score(kind, h_i, h_j, 2, 3, params), weights))

    check_grads(build, tensors)


def test_every_kind_normalizes_to_one_per_neighborhood(tiny_graph, rng):
    z = Tensor(rng.standard_normal((6, 2, 4)))
    for kind in ATTENTION:
        params = init_layer_params(rng, kind, "sum", in_dim=5, heads=2, hidden=4)
        scores = _edge_scores(kind, z, tiny_graph, params)
        alpha = ad.segment_softmax(scores, tiny_graph.dst, 6).data
        sums = np.zeros((6, 2))
        np.add.at(sums, tiny_graph.dst, alpha)
        assert np.allclose(sums, 1.0, atol=1e-9), kind


# ---------------------------------------------------------------------------
# parameter inventories and model construction


def test_const_sum_layer_owns_only_transform(rng):
    params = init_layer_params(rng, "const", "sum", in_dim=7, heads=2, hidden=4)
    assert list(params.tensors) == ["w_t"]
    assert params.tensors["w_t"].shape == (7, 8)


def test_param_inventories_per_kind(rng):
    gat = init_layer_params(rng, "gat", "mean-pooling", 5, 2, 3)
    assert list(gat.tensors) == ["w_t", "a_l", "a_r"]
    cos = init_layer_params(rng, "cos", "sum", 5, 2, 3)
    assert list(cos.tensors) == ["w_t", "w_l", "w_r"]
    assert cos.tensors["w_l"].shape == (2, 3, 3)
    gene = init_layer_params(rng, "gene-linear", "mlp", 5, 2, 3)
    assert list(gene.tensors) == ["w_t", "w_l", "w_r", "w_a", "mlp_w1", "mlp_w2"]
    with pytest.raises(ParameterError, match="attention"):
        init_layer_params(rng, "dot", "sum", 5, 2, 3)
    with pytest.raises(ParameterError, match="aggregation"):
        init_layer_params(rng, "const", "median", 5, 2, 3)


def _if_elif_init(rng, attention, aggregation, in_dim, heads, hidden):
    """The per-kind draws written out one kind at a time: a reference."""
    tensors = {"w_t": ad.glorot(rng, in_dim, heads * hidden)}
    k, d = heads, hidden
    if attention in ("gat", "sym-gat"):
        tensors["a_l"] = ad.glorot(rng, d, 1, shape=(k, d))
        tensors["a_r"] = ad.glorot(rng, d, 1, shape=(k, d))
    elif attention == "cos":
        tensors["w_l"] = ad.glorot(rng, d, d, shape=(k, d, d))
        tensors["w_r"] = ad.glorot(rng, d, d, shape=(k, d, d))
    elif attention == "linear":
        tensors["a_l"] = ad.glorot(rng, d, 1, shape=(k, d))
    elif attention == "gene-linear":
        tensors["w_l"] = ad.glorot(rng, d, d, shape=(k, d, d))
        tensors["w_r"] = ad.glorot(rng, d, d, shape=(k, d, d))
        tensors["w_a"] = ad.glorot(rng, d, 1, shape=(k, d))
    if aggregation == "mlp":
        tensors["mlp_w1"] = ad.glorot(rng, d, d, shape=(k, d, d))
        tensors["mlp_w2"] = ad.glorot(rng, d, d, shape=(k, d, d))
    return tensors


@pytest.mark.parametrize("attention,aggregation", list(itertools.product(ATTENTION, AGGREGATION)))
def test_init_draws_the_table_tensors_in_table_order(attention, aggregation):
    shapes = layer_shapes(attention, aggregation, 5, 3, 4)
    params = init_layer_params(np.random.default_rng(11), attention, aggregation, 5, 3, 4)
    assert [(name, t.shape) for name, t in params.tensors.items()] == list(shapes.items())
    reference = _if_elif_init(np.random.default_rng(11), attention, aggregation, 5, 3, 4)
    assert list(reference) == list(params.tensors)
    for name, tensor in reference.items():
        assert params.tensors[name].data.tobytes() == tensor.data.tobytes(), name


def test_hand_counted_param_total(rng):
    arch = _arch("first-order,const,sum,relu,1,8;first-order,const,sum,relu,1,8")
    model = build_model(arch, in_dim=16, out_classes=3, rng=rng)
    # layer 0: w_t is 16 x (1*8) = 128; layer 1 maps 8 -> 3 classes = 24.
    assert param_count(arch, 16, 3) == sum(p.size for p in model.parameters()) == 152
    assert _layer_dims(model) == [(16, 8), (8, 3)]


@pytest.mark.parametrize("attention,aggregation", list(itertools.product(ATTENTION, AGGREGATION)))
@pytest.mark.parametrize("in_dim,out_classes,projected", [(5, 3, True), (8, 8, False)])
def test_param_count_is_the_count_build_model_draws(attention, aggregation, in_dim, out_classes, projected):
    # Each layer adds a skip source to its 2 x 4 = 8 (last: out_classes)
    # wide output, through a w_res unless the source is as wide.
    layer = f"first-order,{attention},{aggregation},relu,2,4"
    arch = decode(f"{layer},0,add;{layer},1,add", default_space(layer_count=2, skip_enabled=True))
    model = build_model(arch, in_dim, out_classes, np.random.default_rng(0))
    assert ["w_res" in params.tensors for params in model.layers] == [projected, projected]
    assert param_count(arch, in_dim, out_classes) == sum(p.size for p in model.parameters())


def test_output_width_is_class_count(tiny_graph, rng):
    arch = _arch("first-order,gat,sum,tanh,4,8;first-order,gat,sum,linear,4,8")
    model = build_model(arch, in_dim=5, out_classes=3, rng=rng)
    logits = forward(model, tiny_graph)
    assert logits.shape == (6, 3)
    # Hidden layer concatenates 4 heads of width 8; the last layer averages.
    assert _layer_dims(model) == [(5, 32), (32, 3)]


def test_skip_wiring_add_and_concat(rng):
    space = default_space(layer_count=2, skip_enabled=True)
    concat = decode(
        "first-order,const,sum,relu,2,8,0,concat\nfirst-order,const,sum,relu,2,8,1,concat", space
    )
    model = build_model(concat, in_dim=5, out_classes=3, rng=rng)
    # Hidden layer: 2 heads x 8 plus the 5 raw features appended.
    assert _layer_dims(model) == [(5, 21), (21, 3)]
    # Final layer cannot concatenate without changing the class count, so
    # it falls back to additive merge through a projection.
    assert "w_res" in model.layers[1].tensors
    assert model.layers[1].tensors["w_res"].shape == (21, 3)

    add = decode(
        "first-order,const,sum,relu,2,8,0,add\nfirst-order,const,sum,relu,2,8,1,add", space
    )
    model = build_model(add, in_dim=16, out_classes=16, rng=rng)
    assert _layer_dims(model) == [(16, 16), (16, 16)]
    # 2 heads x 8 matches the 16-d skip source exactly on both layers.
    assert "w_res" not in model.layers[0].tensors
    assert "w_res" not in model.layers[1].tensors


def test_skip_add_mismatched_dims_gets_projection(rng):
    space = default_space(layer_count=1, skip_enabled=True)
    arch = decode("first-order,const,sum,linear,1,4,0,add", space)
    same = build_model(arch, in_dim=2, out_classes=2, rng=rng)
    assert "w_res" not in same.layers[0].tensors
    wider = build_model(arch, in_dim=5, out_classes=2, rng=rng)
    assert wider.layers[0].tensors["w_res"].shape == (5, 2)


def test_layer_signatures_follow_effective_dims(rng):
    arch = _arch("first-order,gat,mlp,relu,2,8;first-order,cos,sum,tanh,4,16")
    sigs = [step.key for step in build_model(arch, in_dim=10, out_classes=3, rng=rng).plan]
    assert sigs[0] == ShareKey(
        layer_index=0, attention="gat", aggregation="mlp",
        in_dim=10, heads=2, hidden=8,
    )
    # The last layer's width is the class count, not the hidden token.
    assert sigs[1] == ShareKey(
        layer_index=1, attention="cos", aggregation="sum",
        in_dim=16, heads=4, hidden=3,
    )


def test_build_is_deterministic(tiny_graph):
    arch = _arch("first-order,gat,mlp,elu,2,4;first-order,sym-gat,max-pooling,tanh,2,4")
    a = build_model(arch, 5, 2, np.random.default_rng(11))
    b = build_model(arch, 5, 2, np.random.default_rng(11))
    assert np.array_equal(forward(a, tiny_graph).data, forward(b, tiny_graph).data)


def test_build_validation(rng):
    arch = _arch("first-order,const,sum,relu,1,8")
    with pytest.raises(ParameterError):
        build_model(arch, 0, 2, rng)


# ---------------------------------------------------------------------------
# forward semantics


def test_selfloop_only_graph_is_a_per_node_mlp(rng):
    features = rng.standard_normal((5, 4))
    graph = make_graph(5, [], features)
    arch = _arch("first-order,const,sum,tanh,1,8;first-order,const,sum,linear,1,8")
    model = build_model(arch, 4, 3, rng)
    w1 = model.layers[0].tensors["w_t"].data
    w2 = model.layers[1].tensors["w_t"].data
    expected = np.tanh(features @ w1) @ w2
    assert np.allclose(forward(model, graph).data, expected, atol=1e-12)


def test_forward_feature_dim_mismatch(tiny_graph, rng):
    arch = _arch("first-order,const,sum,relu,1,8")
    model = build_model(arch, 9, 2, rng)
    with pytest.raises(ShapeError):
        forward(model, tiny_graph)


def test_permutation_equivariance(rng):
    n = 8
    features = rng.standard_normal((n, 5))
    edges = [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 7], [0, 4]]
    graph = make_graph(n, edges, features)
    arch = _arch("first-order,gat,max-pooling,elu,2,4;first-order,gcn,mean-pooling,tanh,2,4")
    model = build_model(arch, 5, 3, rng)

    perm = rng.permutation(n)
    p_features = np.empty_like(features)
    p_features[perm] = features
    p_edges = np.stack([perm[graph.src], perm[graph.dst]], axis=1)
    p_graph = make_graph(n, p_edges, p_features)

    base = forward(model, graph).data
    permuted = forward(model, p_graph).data
    assert np.allclose(permuted[perm], base, atol=1e-9)


def test_dropout_only_active_in_training(tiny_graph, rng):
    arch = _arch("first-order,gat,sum,relu,2,4;first-order,gat,sum,linear,2,4")
    model = build_model(arch, 5, 2, rng)
    eval_a = forward(model, tiny_graph).data
    eval_b = forward(model, tiny_graph).data
    assert np.array_equal(eval_a, eval_b)
    train_out = forward(model, tiny_graph, training=True, rng=np.random.default_rng(0), dropout_p=0.5).data
    assert not np.allclose(train_out, eval_a)


@pytest.mark.parametrize(
    "arch_text",
    [
        "first-order,gat,mlp,softplus,2,4;first-order,cos,sum,tanh,2,4",
        "first-order,gene-linear,max-pooling,sigmoid,2,4;first-order,linear,mean-pooling,elu,2,4",
        # concat is honoured only on a hidden layer
        "first-order,gat,sum,relu,2,4,0,concat;first-order,gcn,mean-pooling,tanh,1,4,1,add",
    ],
)
def test_full_model_gradients(tiny_graph, rng, arch_text):
    model = build_model(_arch(arch_text), 5, 2, rng)
    labels = rng.integers(0, 2, size=6)
    mask = np.array([0, 2, 4, 5])
    params = model.parameters()

    def build():
        logits = forward(model, tiny_graph)
        return ad.loss("single", logits, labels, mask, l2_lambda=0.01, l2_params=params)

    check_grads(build, params, tol=1e-3)


# ---------------------------------------------------------------------------
# metrics


def test_micro_f1_against_counting_oracle(rng):
    pred = rng.integers(0, 2, size=(20, 5))
    actual = rng.integers(0, 2, size=(20, 5))
    tp = np.sum((pred == 1) & (actual == 1))
    fp = np.sum((pred == 1) & (actual == 0))
    fn = np.sum((pred == 0) & (actual == 1))
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    expected = 2 * precision * recall / (precision + recall)
    assert node_metric("multi", pred, actual) == pytest.approx(expected, rel=1e-12)


def test_micro_f1_edge_cases():
    assert node_metric("multi", np.zeros((3, 2)), np.eye(3, 2)) == 0.0
    assert node_metric("multi", np.ones((3, 2)), np.ones((3, 2))) == 1.0
    assert node_metric("multi", np.zeros((3, 2)), np.zeros((3, 2))) == 1.0


def test_evaluate_accuracy_matches_argmax_count(easy_sbm, rng):
    arch = _arch("first-order,gcn,sum,relu,1,8;first-order,gcn,sum,linear,1,8")
    model = build_model(arch, easy_sbm.feature_dim, easy_sbm.class_count, rng)
    logits = forward(model, easy_sbm.graphs[0]).data
    idx = easy_sbm.masks[0].test
    expected = np.mean(np.argmax(logits[idx], axis=1) == easy_sbm.labels[0][idx])
    assert evaluate(model, easy_sbm, "test") == pytest.approx(expected)


def test_evaluate_multi_pools_over_graphs(rng):
    ds = generate_multigraph(4, 12, 3.0, 5, 2, seed=3)
    arch = _arch("first-order,const,sum,linear,1,4")
    model = build_model(arch, 5, 2, rng)
    got = evaluate(model, ds, "train")
    tp = fp = fn = 0
    for graph, labels, mask in zip(ds.graphs, ds.labels, ds.masks):
        if mask.train.size == 0:
            continue
        pred = forward(model, graph).data[mask.train] > 0
        actual = labels[mask.train].astype(bool)
        tp += np.sum(pred & actual)
        fp += np.sum(pred & ~actual)
        fn += np.sum(~pred & actual)
    expected = 2 * tp / (2 * tp + fp + fn)
    assert got == pytest.approx(expected, rel=1e-12)


def test_evaluate_requires_nodes_in_split(rng):
    g = make_graph(4, [[0, 1]], rng.standard_normal((4, 3)))
    ds = LabeledDataset(
        graphs=(g,), labels=(np.zeros(4, dtype=np.int64),),
        masks=(make_mask(4, [0, 1], [], [2, 3]),),
        task_kind="single", class_count=2,
    )
    arch = _arch("first-order,const,sum,linear,1,4")
    model = build_model(arch, 3, 2, rng)
    with pytest.raises(ParameterError, match="'val'"):
        evaluate(model, ds, "val")


# ---------------------------------------------------------------------------
# training


def test_training_fits_easy_blocks(easy_sbm):
    arch = _arch("first-order,gcn,sum,relu,1,16;first-order,gcn,sum,linear,1,16")
    model = build_model(arch, easy_sbm.feature_dim, 2, np.random.default_rng(0))
    hp = TrainHyperparams(lr=0.01, dropout=0.3, max_epochs=200, patience=30, seed=0)
    result = train_child(model, easy_sbm, hp)
    assert result.best_val_metric > 0.9
    assert result.test_metric > 0.8
    assert result.seconds_per_epoch > 0
    assert result.opt_steps == result.epochs_ran


def test_median_is_np_median():
    rng = np.random.default_rng(2)
    for n in range(1, 40):
        values = [float(v) for v in rng.exponential(rng.uniform(1e-4, 10.0), size=n)]
        assert median(values) == float(np.median(values))
        assert type(median(values)) is float
    assert median([3.0, 1.0]) == 2.0 and median([0.1, 0.2]) == (0.1 + 0.2) / 2


def test_training_restores_best_snapshot(easy_sbm):
    arch = _arch("first-order,const,sum,tanh,1,8;first-order,const,sum,linear,1,8")
    model = build_model(arch, easy_sbm.feature_dim, 2, np.random.default_rng(1))
    hp = TrainHyperparams(lr=0.02, dropout=0.4, max_epochs=40, patience=10, seed=1)
    result = train_child(model, easy_sbm, hp)
    assert evaluate(result.model, easy_sbm, "val") == pytest.approx(result.best_val_metric)


def test_early_stop_within_patience(easy_sbm):
    arch = _arch("first-order,gcn,sum,relu,1,8;first-order,gcn,sum,linear,1,8")
    for patience in (0, 3):
        model = build_model(arch, easy_sbm.feature_dim, 2, np.random.default_rng(2))
        hp = TrainHyperparams(lr=0.05, dropout=0.0, max_epochs=150, patience=patience, seed=2)
        result = train_child(model, easy_sbm, hp)
        assert result.epochs_ran < hp.max_epochs  # plateau reached, stopped early
        assert result.epochs_ran - (result.best_epoch + 1) == patience + 1


def test_training_is_deterministic(easy_sbm):
    arch = _arch("first-order,gat,sum,relu,2,8;first-order,gat,sum,linear,2,8")

    def run():
        model = build_model(arch, easy_sbm.feature_dim, 2, np.random.default_rng(5))
        return train_child(model, easy_sbm, TrainHyperparams(max_epochs=12, patience=12, seed=5))

    a, b = run(), run()
    assert (a.best_val_metric, a.test_metric, a.epochs_ran, a.best_epoch) == (
        b.best_val_metric, b.test_metric, b.epochs_ran, b.best_epoch,
    )
    for pa, pb in zip(a.model.parameters(), b.model.parameters()):
        assert np.array_equal(pa.data, pb.data)


def test_divergence_raises_training_error(easy_sbm, rng):
    arch = _arch("first-order,const,sum,relu,1,8;first-order,const,sum,linear,1,8")
    model = build_model(arch, easy_sbm.feature_dim, 2, rng)
    model.layers[0].tensors["w_t"].data = np.full(model.layers[0].tensors["w_t"].shape, np.nan)
    with pytest.raises(TrainingError) as err:
        train_child(model, easy_sbm, TrainHyperparams(max_epochs=5, patience=5, seed=0))
    assert err.value.epoch == 0


def test_multigraph_training_only_touches_train_graphs():
    ds = generate_multigraph(4, 12, 3.0, 5, 2, seed=4)
    arch = _arch("first-order,const,sum,linear,1,4")
    model = build_model(arch, 5, 2, np.random.default_rng(0))
    hp = TrainHyperparams(lr=0.01, dropout=0.0, max_epochs=3, patience=3, seed=0)
    result = train_child(model, ds, hp)
    # 2 train graphs x 3 epochs: one optimizer step per graph per epoch.
    assert result.epochs_ran == 3
    assert result.opt_steps == 6


def _reference_train(model, dataset, hp):
    """The training loop with a fresh forward for every step and every
    evaluation: (best val, test, epochs ran, best epoch, optimizer steps)."""
    params = model.parameters()
    state = ad.AdamState.init(params, hp.lr)
    rng = np.random.default_rng(hp.seed)
    best, snapshot, best_epoch, stale, epochs = -np.inf, None, -1, 0, 0
    for epoch in range(hp.max_epochs):
        for graph, labels, mask in zip(dataset.graphs, dataset.labels, dataset.masks):
            if not mask.train.size:
                continue
            logits = forward(model, graph, training=True, rng=rng, dropout_p=hp.dropout)
            objective = ad.loss(dataset.task_kind, logits, labels, mask.train,
                                l2_lambda=hp.l2_lambda, l2_params=params)
            ad.zero_grads(params)
            objective.backward()
            ad.adam_step(state, params, [p.grad for p in params])
        epochs = epoch + 1
        val = evaluate(model, dataset, "val")
        if val > best:
            best, snapshot, best_epoch, stale = val, model.snapshot(), epoch, 0
        else:
            stale += 1
            if stale > hp.patience:
                break
    model.restore(snapshot)
    return best, evaluate(model, dataset, "test"), epochs, best_epoch, state.step


@pytest.mark.parametrize("case", ["sbm-dropout-0", "sbm-dropout-0.5", "multigraph"])
def test_training_equals_the_forward_every_time_loop(easy_sbm, case):
    if case == "multigraph":
        dataset = generate_multigraph(6, 15, 4.0, 5, 3, seed=8)
        text = "first-order,gat,max-pooling,relu,2,4;first-order,gcn,mean-pooling,linear,1,4"
        hp = TrainHyperparams(lr=0.02, l2_lambda=0.0, dropout=0.0, max_epochs=6, patience=6, seed=3)
    else:
        dataset = easy_sbm
        text = "first-order,gat,max-pooling,relu,2,8;first-order,gcn,mean-pooling,linear,1,8"
        dropout = 0.5 if case == "sbm-dropout-0.5" else 0.0
        hp = TrainHyperparams(lr=0.05, l2_lambda=0.0005, dropout=dropout, max_epochs=30, patience=4, seed=3)

    def build():
        return build_model(_arch(text), dataset.feature_dim, dataset.class_count, np.random.default_rng(6))

    ref_model = build()
    expected = _reference_train(ref_model, dataset, hp)
    result = train_child(build(), dataset, hp)
    got = (result.best_val_metric, result.test_metric, result.epochs_ran, result.best_epoch, result.opt_steps)
    assert got == expected
    if case != "multigraph":
        assert result.epochs_ran < hp.max_epochs  # early stopping was exercised
    for mine, theirs in zip(result.model.parameters(), ref_model.parameters()):
        assert mine.data.tobytes() == theirs.data.tobytes()


def test_forwards_for_graphs_without_training_nodes_record_no_tape(monkeypatch):
    dataset = generate_multigraph(6, 15, 4.0, 5, 3, seed=8)
    no_train = [g for g, mask in zip(dataset.graphs, dataset.masks) if not mask.train.size]
    arch = _arch("first-order,gat,max-pooling,relu,2,4;first-order,cos,mlp,linear,1,4")
    hp = TrainHyperparams(lr=0.02, l2_lambda=0.0, dropout=0.0, max_epochs=4, patience=4, seed=3)

    def train(record_everything):
        if record_everything:  # the old evaluation: every forward on the live parameters
            monkeypatch.setattr(gnn_module.ChildModel, "detached", lambda self: self)
        seen = []

        def recorded(model, graph, *args, **kwargs):
            out = forward(model, graph, *args, **kwargs)
            seen.append((model, graph, out))
            return out

        monkeypatch.setattr(gnn_module, "forward", recorded)
        model = build_model(arch, dataset.feature_dim, dataset.class_count, np.random.default_rng(6))
        result = train_child(model, dataset, hp)
        monkeypatch.undo()
        return result, [entry for entry in seen if any(entry[1] is g for g in no_train)]

    result, evals = train(record_everything=False)
    assert evals and all(out.grad_fn is None for _, _, out in evals)
    for model, graph, out in evals:
        live = model.detached()
        for layer in live.layers:
            for t in layer.tensors.values():
                t.requires_grad = True
        taped = forward(live, graph)
        assert taped.grad_fn is not None and taped.data.tobytes() == out.data.tobytes()
    reference, _ = train(record_everything=True)
    fields = ("best_val_metric", "test_metric", "epochs_ran", "best_epoch", "opt_steps")
    assert [getattr(result, f) for f in fields] == [getattr(reference, f) for f in fields]
    for mine, theirs in zip(result.model.parameters(), reference.model.parameters()):
        assert mine.data.tobytes() == theirs.data.tobytes()


def test_validation_forwards_record_no_tape_under_dropout(easy_sbm, monkeypatch):
    taped = []

    def recorded(*args, **kwargs):
        out = forward(*args, **kwargs)
        taped.append((kwargs.get("training", False), out.grad_fn is not None))
        return out

    monkeypatch.setattr(gnn_module, "forward", recorded)
    model = build_model(_arch("first-order,gat,sum,relu,2,8;first-order,gcn,sum,linear,1,8"),
                        easy_sbm.feature_dim, easy_sbm.class_count, np.random.default_rng(0))
    train_child(model, easy_sbm, TrainHyperparams(lr=0.01, dropout=0.5, max_epochs=3, patience=3, seed=0))
    assert taped == [(True, True), (False, False)] * 3


@pytest.mark.parametrize("dropout", [0.0, 0.5])
def test_each_parameter_state_is_forwarded_once(easy_sbm, monkeypatch, dropout):
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("training", False))
        return forward(*args, **kwargs)

    monkeypatch.setattr(gnn_module, "forward", counted)
    arch = _arch("first-order,gcn,sum,relu,1,8;first-order,gcn,sum,linear,1,8")
    model = build_model(arch, easy_sbm.feature_dim, 2, np.random.default_rng(0))
    epochs = 5
    hp = TrainHyperparams(lr=0.01, dropout=dropout, max_epochs=epochs, patience=epochs, seed=0)
    result = train_child(model, easy_sbm, hp)
    assert result.epochs_ran == epochs
    if dropout == 0.0:
        # One training forward, then each validation forward is the next
        # training forward, and the best one scores the test split.
        assert len(calls) == epochs + 1
        assert calls.count(True) == 1
    else:
        assert len(calls) == 2 * epochs  # the test split still needs no forward
        assert calls.count(True) == epochs


def test_forwards_build_the_graph_plan_once(tiny_graph, monkeypatch):
    built = []
    original = ad.IndexPlan.__init__

    def counted(self, ids, n):
        built.append(n)
        original(self, ids, n)

    monkeypatch.setattr(ad.IndexPlan, "__init__", counted)
    arch = _arch("first-order,gcn,max-pooling,relu,2,4;first-order,gat,mean-pooling,linear,1,4")
    model = build_model(arch, 5, 3, np.random.default_rng(0))
    first = forward(model, tiny_graph)
    # the graph's source and destination plans, which every layer reduces through
    assert built == [6, 6]
    plan = tiny_graph.plan
    second = forward(model, tiny_graph)
    assert built == [6, 6] and tiny_graph.plan is plan
    assert first.data.tobytes() == second.data.tobytes()


def test_hyperparam_validation():
    with pytest.raises(ParameterError):
        TrainHyperparams(lr=0.0)
    with pytest.raises(ParameterError):
        TrainHyperparams(dropout=1.0)
    with pytest.raises(ParameterError):
        TrainHyperparams(patience=300, max_epochs=200)


@pytest.mark.parametrize("key", ["lr", "l2_lambda"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_hyperparams_refuse_numbers_that_are_not_finite(key, value):
    with pytest.raises(ParameterError, match=f"^{key} must be finite"):
        TrainHyperparams(**{key: value})


def _overflowing_arch(attention):
    return _arch(f"first-order,{attention},max-pooling,relu,2,8;first-order,{attention},max-pooling,linear,1,8")


def _blown_up(model, scale):
    for p in model.parameters():
        p.data = p.data * scale
    return model


OVERFLOW_HP = TrainHyperparams(lr=1e10, dropout=0.0, max_epochs=3, patience=3, seed=0)


@pytest.mark.parametrize("attention", ["gat", "sym-gat", "cos", "gene-linear"])
def test_overflowing_max_pooling_child_raises_training_error(easy_sbm, attention):
    # Overflow turns messages into inf/NaN; they must reach the loss check
    # instead of tripping a kernel's own check.
    model = build_model(_overflowing_arch(attention), easy_sbm.feature_dim, easy_sbm.class_count,
                        np.random.default_rng(0))
    with pytest.raises(TrainingError):
        train_child(_blown_up(model, 1e200), easy_sbm, OVERFLOW_HP)


@pytest.mark.parametrize("attention", ["gat", "sym-gat", "cos", "gene-linear"])
def test_overflowing_float32_child_raises_training_error_and_scores_zero(easy_sbm, attention, monkeypatch):
    # Float32 overflows near 3.4e38: parameters of 1e30 overflow where
    # float64 ones would not, and must end the same way.
    search_module = importlib.import_module("gnnsearch.search")
    dataset = easy_sbm.with_feature_dtype(np.float32)
    model = build_model(_overflowing_arch(attention), dataset.feature_dim, dataset.class_count,
                        np.random.default_rng(0), dtype=np.float32)
    with pytest.raises(TrainingError):
        train_child(_blown_up(model, 1e30), dataset, OVERFLOW_HP)

    built = []

    def blown_up_build(*args, **kwargs):
        built.append(_blown_up(build_model(*args, **kwargs), 1e30))
        return built[-1]

    monkeypatch.setattr(search_module, "build_model", blown_up_build)
    config = search_module.SearchConfig(strategy="graphnas", episodes=0, child_epochs=3, hp=OVERFLOW_HP)
    log = search_module.search(config, dataset=dataset)
    assert search_module._reward(log, _overflowing_arch(attention)) == (0.0, None)
    assert [p.data.dtype for p in built[0].parameters()] == [np.float32] * len(built[0].parameters())
