"""Numerics version 4: every op keeps its inputs' dtype, sums over rows
add each id's rows in index order in that dtype (one float32 sum in the
softmax backward adds in float64 and rounds once), and search and
derivation train children in float32 while the caller's data, the
controller and the rewards stay float64."""

import importlib
import itertools
from dataclasses import replace

import numpy as np
import pytest

from gnnsearch import autodiff as ad
from gnnsearch.arch import AGGREGATION, ATTENTION, ActionSpace, decode
from gnnsearch.autodiff import Tensor
from gnnsearch.gnn import CHILD_DTYPE, LAYER_TENSORS, TrainHyperparams, build_model, forward, init_layer_params
from gnnsearch.graphs import generate_multigraph, generate_sbm, make_graph
from gnnsearch.search import (
    SearchConfig,
    SharedParamStore,
    derive,
    load_store,
    merge_if_positive,
    save_store,
    search,
)

from conftest import rel_err
from gradient_errors import errors
from test_acceptance import _model_combos  # criterion 1's architecture list

search_module = importlib.import_module("gnnsearch.search")

DTYPES = [np.float32, np.float64]
EDGES = [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [0, 3], [1, 4]]


def _bitwise(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _param(rng, shape, dtype, low=-1.0, high=1.0):
    return Tensor(rng.uniform(low, high, shape).astype(dtype), requires_grad=True)


def _op_cases(rng, dtype):
    """(name, build, operands): every op outside the fused edge ops."""
    p = lambda *shape, **kw: _param(rng, shape, dtype, **kw)  # noqa: E731
    a, b, row, col = p(3, 4), p(3, 4), p(1, 4), p(4, 2)
    z, w = p(5, 2, 3), p(2, 3, 3)
    seg = p(6, 2, 3)
    ids = np.array([0, 0, 1, 2, 2, 2])
    pos = p(3, 4, low=0.5, high=2.0)
    logits = p(5, 3)
    cases = [
        ("add", lambda: ad.add(a, row), [a, row]),
        ("sub", lambda: ad.sub(a, b), [a, b]),
        ("mul", lambda: ad.mul(a, row), [a, row]),
        ("div", lambda: ad.div(a, pos), [a, pos]),
        ("matmul", lambda: ad.matmul(a, col), [a, col]),
        ("head_matmul", lambda: ad.head_matmul(z, w), [z, w]),
        ("gather_rows", lambda: ad.gather_rows(a, [0, 2, 2]), [a]),
        ("concat", lambda: ad.concat([a, b], axis=1), [a, b]),
        ("reshape", lambda: ad.reshape(a, (4, 3)), [a]),
        ("reduce_sum", lambda: ad.reduce_sum(a), [a]),
        ("reduce_sum_axis", lambda: ad.reduce_sum(a, axis=1, keepdims=True), [a]),
        ("exp", lambda: ad.exp(a), [a]),
        ("log", lambda: ad.log(pos), [pos]),
        ("segment_sum", lambda: ad.segment_sum(seg, ids, 3), [seg]),
        ("segment_mean", lambda: ad.segment_mean(seg, ids, 3), [seg]),
        ("segment_max", lambda: ad.segment_max(seg, ids, 3), [seg]),
        ("segment_softmax", lambda: ad.segment_softmax(seg, ids, 3), [seg]),
        ("dropout", lambda: ad.dropout(a, 0.5, np.random.default_rng(0)), [a]),
        ("cross_entropy", lambda: ad.cross_entropy(logits, [0, 2, 1, 0, 2], [0, 1, 3], 0.01, [logits]), [logits]),
        ("binary_cross_entropy",
         lambda: ad.binary_cross_entropy(logits, np.eye(5, 3, dtype=np.int64), [0, 2], 0.01, [logits]), [logits]),
    ]
    for kind in ad.ACTIVATIONS:
        cases.append((kind, lambda k=kind: ad.activation(k, a), [a]))
    return cases


@pytest.mark.parametrize("dtype", DTYPES, ids=["float32", "float64"])
def test_every_op_keeps_its_inputs_dtype(dtype):
    rng = np.random.default_rng(3)
    for name, build, operands in _op_cases(rng, dtype):
        out = build()
        assert out.data.dtype == dtype, name
        ad.zero_grads(operands)
        out.backward(np.ones(out.shape, dtype=dtype))
        for tensor in operands:
            assert tensor.grad.dtype == dtype, name


@pytest.mark.parametrize("chunked", [False, True], ids=["one-chunk", "many-chunks"])
@pytest.mark.parametrize("dtype", DTYPES, ids=["float32", "float64"])
def test_fused_edge_ops_keep_the_dtype_for_every_kind(dtype, chunked, monkeypatch):
    if chunked:
        # a handful of ids per level block and of edges per w_a block
        monkeypatch.setattr(ad, "EDGE_CHUNK_BYTES", 8 * 2 * 3 * 5)
        monkeypatch.setattr(ad, "LEVEL_MIN_CELLS", 1)  # and the level walks, not the padded reduce
    rng = np.random.default_rng(5)
    graph = make_graph(6, EDGES, rng.standard_normal((6, 4)))
    plan = graph.plan
    for attention, aggregation in itertools.product(ATTENTION, AGGREGATION):
        params = init_layer_params(rng, attention, aggregation, 4, 2, 3).tensors
        for t in params.values():
            t.data = t.data.astype(dtype)
        z = _param(rng, (6, 2, 3), dtype)
        scores = ad.edge_scores(attention, z, plan, *(params[n] for n in LAYER_TENSORS["attention"][attention]))
        alpha = ad.segment_softmax(scores, plan.dst, 6)
        out = ad.edge_aggregate(aggregation, alpha, z, plan,
                                *(params[n] for n in LAYER_TENSORS["aggregation"][aggregation]))
        assert (scores.data.dtype, out.data.dtype) == (dtype, dtype), (attention, aggregation)
        out.backward(np.ones(out.shape, dtype=dtype))
        for name, tensor in [("z", z), *params.items()]:
            if name != "w_t":
                assert tensor.grad.dtype == dtype, (attention, aggregation, name)


def test_float32_gradients_of_the_criterion_1_archs_match_float64():
    """Float32 and float64 gradients of the same model agree within 1e-4
    (norm-relative, as criterion 1 measures): criterion 1's archs on a
    6-node graph, and every attention x aggregation kind on the goldens'
    small SBM and multigraph (over all of a child's gradients at once,
    as ``gradient_errors`` reads them). Float32 rounds at 6e-8 per op;
    the worst of these read 2.0e-6 (1.7e-6 under numerics version 3)."""
    worst, worst_arch = 0.0, ""
    for idx, text in enumerate(_model_combos()):
        grads = {}
        for dtype in DTYPES:
            rng = np.random.default_rng(1000 + idx)
            features = rng.standard_normal((6, 5))
            graph = replace(make_graph(6, EDGES, features), features=features.astype(dtype))
            model = build_model(decode(text), 5, 2, rng, dtype=dtype)
            labels = rng.integers(0, 2, size=6)
            params = model.parameters()
            loss = ad.loss("single", forward(model, graph), labels, [0, 2, 4, 5], l2_lambda=0.01, l2_params=params)
            loss.backward()
            grads[dtype] = [p.grad for p in params]
            assert all(g.dtype == dtype for g in grads[dtype]), text
        err = max(rel_err(g32, g64) for g32, g64 in zip(grads[np.float32], grads[np.float64]))
        if err > worst:
            worst, worst_arch = err, text
    for dataset in (generate_sbm(2, 15, 0.3, 0.05, 6, 1.0, seed=3), generate_multigraph(3, 12, 4.0, 6, 3, seed=3)):
        for attention, aggregation in itertools.product(ATTENTION, AGGREGATION):
            text = f"first-order,{attention},{aggregation},relu,2,4;first-order,{attention},{aggregation},linear,1,4"
            err = errors(dataset, text)["norm"]
            if err > worst:
                worst, worst_arch = err, text
    assert worst < 1e-4, (worst, worst_arch)


def test_float32_sums_add_in_float32_in_index_order(monkeypatch):
    """The padded reduce, the level walk and a single cell's cumulative
    sum give the same float32 bits: each adds a cell's rows in index
    order in float32, from 0.0, as np.add.at into float32 zeros does, so
    a cell of -0.0 rows sums to 0.0. That is not numerics version 3's
    float64 sum rounded once: rows 12 decades apart tell the two apart."""
    rng = np.random.default_rng(9)
    n, rows = 7, 300
    ids = np.sort(rng.integers(0, n, rows))
    values = (rng.standard_normal((rows, 2, 3)) * 10.0 ** rng.integers(-6, 6, (rows, 1, 1))).astype(np.float32)
    values[ids == 2] = -0.0
    ref = np.zeros((n, 2, 3), dtype=np.float32)
    np.add.at(ref, ids, values)
    assert not np.signbit(ref[2]).any()
    wide = np.zeros((n, 2, 3))
    np.add.at(wide, ids, values.astype(np.float64))
    assert not _bitwise(wide.astype(np.float32), ref)
    plan = ad.IndexPlan(ids, n)
    padded = plan.sum(values)
    monkeypatch.setattr(ad, "LEVEL_MIN_CELLS", 1)  # the padding adds a zero cell: walk
    assert plan.depth * n > rows
    for got in (padded, plan.sum(values), plan.levels.sum(values)):
        assert _bitwise(got, ref)
    monkeypatch.undo()
    # one column pads too; one id and one column sums cumulatively
    assert _bitwise(ad.IndexPlan(ids, n).sum(values[:, :1, 0]), ref[:, :1, 0])
    one = np.zeros(1, dtype=np.float32)
    np.add.at(one, np.zeros(rows, dtype=np.int64), values[:, 0, 0])
    assert _bitwise(ad.IndexPlan(np.zeros(rows, dtype=np.int64), 1).sum(values[:, :1, 0]), one[:, None])


def test_float32_build_draws_the_float64_stream():
    arch = decode("first-order,gene-linear,mlp,relu,2,4;first-order,gat,sum,linear,1,4")
    rngs = [np.random.default_rng(21), np.random.default_rng(21)]
    wide = build_model(arch, 5, 3, rngs[0])
    narrow = build_model(arch, 5, 3, rngs[1], dtype=np.float32)
    for p64, p32 in zip(wide.parameters(), narrow.parameters()):
        assert p64.data.dtype == np.float64 and p32.data.dtype == np.float32
        assert _bitwise(p32.data, p64.data.astype(np.float32))
    assert rngs[0].random() == rngs[1].random()


SPACE = ActionSpace(
    sampling=("first-order",), attention=("const", "gcn", "gat"), aggregation=("sum", "max-pooling"),
    activation=("relu", "linear"), heads=(1, 2), hidden=(4, 8), layer_count=2,
)


def _config(seed=2):
    return SearchConfig(
        strategy="graphnas", episodes=6, layer_count=2, param_sharing=True, child_epochs=2,
        exploration_epochs=2, derive_samples=3, derive_train_epochs=2, seed=seed, controller_hidden=8,
        hp=TrainHyperparams(lr=0.01, dropout=0.0, max_epochs=4, patience=4, seed=seed),
    )


def test_search_trains_float32_children_and_leaves_the_callers_data(easy_sbm, monkeypatch):
    before = easy_sbm.graphs[0].features.copy()
    built = []

    def recording_build(*args, **kwargs):
        model = build_model(*args, **kwargs)
        built.append({p.data.dtype for p in model.parameters()})
        return model

    monkeypatch.setattr(search_module, "build_model", recording_build)
    log = search(_config(), dataset=easy_sbm, space=SPACE)
    derived = derive(log.controller, log.store, easy_sbm, _config())
    assert built and all(dtypes == {CHILD_DTYPE} for dtypes in built)
    assert {p.data.dtype for p in derived.trained.model.parameters()} == {CHILD_DTYPE}
    assert {p.data.dtype for p in log.controller.parameters()} == {np.dtype(np.float64)}
    assert all(isinstance(r.raw_reward, float) for r in log)
    # merged entries keep the child dtype
    assert log.store.entries
    assert all(v.dtype == CHILD_DTYPE for entry in log.store.entries.values() for v in entry.values())
    features = easy_sbm.graphs[0].features
    assert features.dtype == np.float64 and _bitwise(features, before)
    assert easy_sbm.with_feature_dtype(np.float64) is easy_sbm


def test_a_float64_store_of_version_0_2_loads_and_derives(easy_sbm, tmp_path):
    """Version 0.2 kept every store entry in float64. Such a file loads as
    written; derivation casts what it takes from it to float32."""
    log = search(_config(), dataset=easy_sbm, space=SPACE)
    old = SharedParamStore()
    rng = np.random.default_rng(0)
    for key in log.store.entries:
        params = init_layer_params(rng, key.attention, key.aggregation, key.in_dim, key.heads, key.hidden)
        merge_if_positive(old, key, params, 1.0)
    save_store(old, tmp_path / "store.npz")
    loaded = load_store(tmp_path / "store.npz")
    assert loaded.entries.keys() == old.entries.keys()
    for key, entry in loaded.entries.items():
        for name, value in entry.items():
            assert _bitwise(value, old.entries[key][name])  # float64, as written
    derived = derive(log.controller, loaded, easy_sbm, _config())
    assert loaded.hits > 0
    assert all(np.isfinite(s) for s in derived.candidate_scores)
    assert {p.data.dtype for p in derived.trained.model.parameters()} == {CHILD_DTYPE}
    # a float32 store round-trips as float32
    save_store(log.store, tmp_path / "store32.npz")
    again = load_store(tmp_path / "store32.npz")
    for key, entry in again.entries.items():
        for name, value in entry.items():
            assert _bitwise(value, log.store.entries[key][name])
