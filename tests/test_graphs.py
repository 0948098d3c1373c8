"""Graph containers, generators, and the text dataset format."""

import hashlib

import numpy as np
import pytest

from gnnsearch import graphs
from gnnsearch.errors import IngestionError, ParameterError
from gnnsearch.graphs import (
    LabeledDataset,
    canonical_edges,
    generate_multigraph,
    generate_sbm,
    load_citation,
    make_graph,
    make_mask,
    save_citation,
)

from conftest import traced_memory


# ---------------------------------------------------------------------------
# containers and canonicalization


def test_canonical_edges_symmetrize_dedupe_selfloop():
    out = canonical_edges(3, [[0, 1], [0, 1], [1, 0]])
    expected = [[0, 0], [0, 1], [1, 0], [1, 1], [2, 2]]
    assert out.tolist() == expected


def _tuple_set_edges(node_count, edges):
    """The set-of-tuples form canonical_edges replaced."""
    pairs = {(int(s), int(d)) for s, d in np.asarray(edges, dtype=np.int64).reshape(-1, 2)}
    pairs |= {(d, s) for s, d in pairs}
    pairs |= {(i, i) for i in range(node_count)}
    return np.array(sorted(pairs), dtype=np.int64)


def test_canonical_edges_equal_the_tuple_set_form():
    rng = np.random.default_rng(9)
    for node_count in (1, 2, 7, 300):
        for edge_count in (0, 1, 40, 2000):  # draws repeat pairs and self-loops
            edges = rng.integers(0, node_count, size=(edge_count, 2))
            out = canonical_edges(node_count, edges)
            expected = _tuple_set_edges(node_count, edges)
            assert out.dtype == expected.dtype and out.shape == expected.shape
            assert out.flags.c_contiguous and out.tobytes() == expected.tobytes()


def test_canonical_edges_endpoint_out_of_range():
    with pytest.raises(ParameterError, match="out of range"):
        canonical_edges(3, [[0, 3]])


@pytest.mark.parametrize("edges", [[[0, 1.7], [True, 2]], [[True, False]], np.ones((2, 2), dtype=bool),
                                   [[0, 1], [True, 2]]],
                         ids=["float", "bool-list", "bool-array", "bool-among-ints"])
def test_canonical_edges_refuse_ids_that_are_not_integers(edges):
    # np.asarray(..., dtype=int64) read the first as edges (0, 1) and (1, 2);
    # np.asarray reads the last as int64 and would build the edge (1, 2).
    with pytest.raises(ParameterError, match="edge endpoints must hold integers"):
        canonical_edges(3, edges)
    with pytest.raises(ParameterError, match="edge endpoints must hold integers"):
        make_graph(3, edges, np.zeros((3, 2)))


def test_canonical_edges_accept_empty_and_unsigned_ids():
    loops = [[0, 0], [1, 1], [2, 2]]
    assert canonical_edges(3, []).tolist() == loops
    assert canonical_edges(3, np.zeros((0, 2))).tolist() == loops
    out = canonical_edges(3, np.array([[2, 0]], dtype=np.uint8))
    assert out.dtype == np.int64 and out.tolist() == [[0, 0], [0, 2], [1, 1], [2, 0], [2, 2]]


def test_make_graph_degrees_are_in_degrees(rng):
    g = make_graph(4, [[0, 1], [2, 1]], rng.standard_normal((4, 3)))
    # Each node gets a self-loop; node 1 additionally receives from 0 and 2.
    recount = np.bincount(g.dst, minlength=4)
    assert np.array_equal(g.degrees, recount)
    assert g.degrees.tolist() == [2, 3, 2, 1]
    assert g.degrees.sum() == g.edge_count


def test_make_graph_arrays_are_frozen(rng):
    g = make_graph(3, [[0, 1]], rng.standard_normal((3, 2)))
    with pytest.raises(ValueError):
        g.edges[0, 0] = 5
    with pytest.raises(ValueError):
        g.features[0, 0] = 5.0


def test_make_graph_validation(rng):
    with pytest.raises(ParameterError):
        make_graph(0, [], np.zeros((0, 2)))
    with pytest.raises(ParameterError, match="features shape"):
        make_graph(3, [], np.zeros((2, 2)))


def test_make_mask_disjoint_and_sorted():
    mask = make_mask(10, [3, 1], [5], [7, 9])
    assert mask.train.tolist() == [1, 3]
    assert mask.of("val").tolist() == [5]
    assert mask.of("test").tolist() == [7, 9]


def test_make_mask_rejects_overlap_and_bad_ids():
    with pytest.raises(ParameterError, match="overlap"):
        make_mask(10, [1, 2], [2], [3])
    with pytest.raises(ParameterError, match="out of range"):
        make_mask(10, [1], [11], [3])


@pytest.mark.parametrize("kind, ids", [("train", [0.9]), ("val", [1.2]), ("test", [2.5]), ("val", [True])])
def test_make_mask_refuses_ids_that_are_not_integers(kind, ids):
    parts = {"train": [], "val": [], "test": [], kind: ids}
    with pytest.raises(ParameterError, match=f"{kind} mask ids must hold integers"):
        make_mask(3, parts["train"], parts["val"], parts["test"])


def test_make_mask_matches_the_unique_and_intersect_forms():
    rng = np.random.default_rng(4)
    for n in (1, 5, 40):
        for _ in range(50):
            train, val, test = (rng.integers(0, n, size=rng.integers(0, n + 1)) for _ in range(3))
            disjoint = not (set(train) & set(val) or set(train) & set(test) or set(val) & set(test))
            if not disjoint:
                with pytest.raises(ParameterError, match="overlap"):
                    make_mask(n, train, val, test)
                continue
            mask = make_mask(n, train, val, test)
            for got, ids in zip((mask.train, mask.val, mask.test), (train, val, test)):
                want = np.unique(ids.astype(np.int64))
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert make_mask(4, [], [], []).train.tolist() == []


def test_mask_of_unknown_kind():
    mask = make_mask(5, [0], [1], [2])
    with pytest.raises(ParameterError, match="mask kind"):
        mask.of("holdout")


def test_dataset_alignment_validated(rng):
    g = make_graph(3, [], rng.standard_normal((3, 2)))
    mask = make_mask(3, [0], [1], [2])
    with pytest.raises(ParameterError):
        LabeledDataset(graphs=(g,), labels=(), masks=(mask,), task_kind="single", class_count=2)
    with pytest.raises(ParameterError, match="task kind"):
        LabeledDataset(
            graphs=(g,), labels=(np.zeros(3, dtype=np.int64),), masks=(mask,),
            task_kind="regression", class_count=2,
        )


def test_the_cast_keeps_a_built_plan_and_leaves_an_unbuilt_one_unbuilt():
    built = generate_multigraph(3, 8, 2.0, 3, 2, seed=1)  # its label rule builds every graph's plan
    cast = built.with_feature_dtype(np.float32)
    for raw, graph in zip(built.graphs, cast.graphs):
        assert graph.features.dtype == np.float32 and graph.edges is raw.edges
        assert graph.plan is raw.plan
    unbuilt = generate_sbm(2, 6, 0.5, 0.1, 3, 1.0, seed=1)
    (raw,), (graph,) = unbuilt.graphs, unbuilt.with_feature_dtype(np.float32).graphs
    assert "plan" not in vars(raw) and "plan" not in vars(graph)
    assert graph.plan is not raw.plan


# ---------------------------------------------------------------------------
# generators


def test_sbm_basic_shape_and_split():
    ds = generate_sbm(2, 50, 0.2, 0.02, 16, 1.0, seed=7)
    g = ds.graphs[0]
    assert g.node_count == 100
    assert ds.class_count == 2
    assert np.array_equal(ds.labels[0], np.repeat([0, 1], 50))
    mask = ds.masks[0]
    assert mask.train.size == 20  # min(20, 50 // 5) per class, 2 classes
    assert mask.val.size == 25
    assert mask.train.size + mask.val.size + mask.test.size == 100
    assert np.intersect1d(mask.train, mask.val).size == 0


def test_sbm_degenerate_cliques():
    # p_in=1, p_out=0: two complete blocks. Directed edge count per block
    # is npb*(npb-1), plus one self-loop per node.
    npb = 6
    ds = generate_sbm(2, npb, 1.0, 0.0, 4, 1.0, seed=3)
    g = ds.graphs[0]
    assert g.edge_count == 2 * npb * (npb - 1) + 2 * npb
    labels = ds.labels[0]
    cross = labels[g.src] != labels[g.dst]
    assert not cross.any()


def test_sbm_deterministic_and_seed_sensitive():
    a = generate_sbm(2, 20, 0.3, 0.05, 8, 1.0, seed=7)
    b = generate_sbm(2, 20, 0.3, 0.05, 8, 1.0, seed=7)
    c = generate_sbm(2, 20, 0.3, 0.05, 8, 1.0, seed=8)
    assert np.array_equal(a.graphs[0].edges, b.graphs[0].edges)
    assert np.array_equal(a.graphs[0].features, b.graphs[0].features)
    assert np.array_equal(a.masks[0].train, b.masks[0].train)
    assert not np.array_equal(a.graphs[0].features, c.graphs[0].features)


def test_sbm_signal_separates_blocks():
    ds = generate_sbm(2, 30, 0.2, 0.02, 8, 5.0, seed=1)
    feats, labels = ds.graphs[0].features, ds.labels[0]
    centroids = np.stack([feats[labels == b].mean(axis=0) for b in range(2)])
    assigned = np.argmin(
        np.linalg.norm(feats[:, None, :] - centroids[None], axis=2), axis=1
    )
    assert np.mean(assigned == labels) > 0.95


def test_sbm_validation():
    with pytest.raises(ParameterError):
        generate_sbm(1, 10, 0.3, 0.1, 4, 1.0, seed=0)
    with pytest.raises(ParameterError, match="p_out"):
        generate_sbm(2, 10, 0.1, 0.3, 4, 1.0, seed=0)
    with pytest.raises(ParameterError, match="p_out"):
        generate_sbm(2, 10, 1.1, 0.3, 4, 1.0, seed=0)
    with pytest.raises(ParameterError):
        generate_sbm(2, 10, 0.3, 0.1, 4, 1.0, seed=0, train_per_class=10)


def test_multigraph_split_counts():
    ds = generate_multigraph(4, 20, 4.0, 6, 3, seed=0)
    kinds = []
    for mask, graph in zip(ds.masks, ds.graphs):
        if mask.train.size:
            kinds.append("train")
            assert mask.train.size == graph.node_count
        elif mask.val.size:
            kinds.append("val")
        else:
            kinds.append("test")
    assert kinds == ["train", "train", "val", "test"]
    assert ds.task_kind == "multi"
    for labels in ds.labels:
        assert labels.shape == (20, 3)
        assert set(np.unique(labels)) <= {0, 1}


def test_multigraph_deterministic():
    a = generate_multigraph(3, 15, 3.0, 4, 2, seed=5)
    b = generate_multigraph(3, 15, 3.0, 4, 2, seed=5)
    for ga, gb in zip(a.graphs, b.graphs):
        assert np.array_equal(ga.edges, gb.edges)
        assert np.array_equal(ga.features, gb.features)
    for la, lb in zip(a.labels, b.labels):
        assert np.array_equal(la, lb)


def test_multigraph_validation():
    with pytest.raises(ParameterError, match="at least 3"):
        generate_multigraph(2, 20, 4.0, 6, 3, seed=0)
    with pytest.raises(ParameterError):
        generate_multigraph(3, 20, -1.0, 6, 3, seed=0)


def _dense_edges(rng, n, prob):
    """The n x n edge draw as one dense matrix."""
    src, dst = np.nonzero(np.triu(rng.random((n, n)) < prob, k=1))
    return canonical_edges(n, np.stack([src, dst], axis=1))


@pytest.mark.parametrize("rows_per_block", [1, 3, 7, 40])
def test_generators_draw_their_edges_in_row_blocks(monkeypatch, rows_per_block):
    """Row blocks of the edge draw give the edges of one dense n x n draw,
    and the draws after them are unchanged."""
    monkeypatch.setattr(graphs, "EDGE_DRAW_VALUES", rows_per_block * 40)
    sbm = generate_sbm(4, 10, 0.5, 0.1, 3, 1.0, seed=7)
    rng = np.random.default_rng(7)
    labels = np.repeat(np.arange(4), 10)
    assert np.array_equal(sbm.graphs[0].edges, _dense_edges(rng, 40, np.where(labels[:, None] == labels, 0.5, 0.1)))
    means = rng.standard_normal((4, 3))
    assert np.array_equal(sbm.graphs[0].features, 1.0 * means[labels] + rng.standard_normal((40, 3)))

    multi = generate_multigraph(3, 40, 5.0, 3, 2, seed=7)
    rng = np.random.default_rng(7)
    rng.standard_normal((3, 2))  # the label rule
    for graph in multi.graphs:
        assert np.array_equal(graph.edges, _dense_edges(rng, 40, 5.0 / 39))
        assert np.array_equal(graph.features, rng.standard_normal((40, 3)))


def test_a_paper_scale_sbm_draws_without_a_dense_matrix():
    """2,800 nodes: the dense draw and its masks took 149.7 MB; row
    blocks of EDGE_DRAW_VALUES values take about 5.5 MB in all."""
    with traced_memory() as memory:
        dataset = generate_sbm(4, 700, 0.01, 0.003, 16, 0.3, seed=1)
        peak = memory.peak()
    assert dataset.graphs[0].edge_count == 40116
    assert peak < 12e6, f"{peak / 1e6:.1f} MB"


# ---------------------------------------------------------------------------
# text format


def _write(tmp_path, text):
    path = tmp_path / "data.txt"
    path.write_text(text, encoding="utf-8")
    return path


MINIMAL = """nodes 3 features 2 classes 2 task single
node 0 0.5 -1.5 0
node 1 2.0 0.25 1
node 2 -3.0 1.0 0
edge 0 1
mask train 0
mask val 1
mask test 2
"""


def test_load_minimal_file_canonicalizes(tmp_path):
    ds = load_citation(_write(tmp_path, MINIMAL))
    g = ds.graphs[0]
    # One declared edge becomes both directions plus three self-loops.
    assert g.edges.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1], [2, 2]]
    assert g.degrees.tolist() == [2, 2, 1]
    assert ds.labels[0].tolist() == [0, 1, 0]
    assert ds.masks[0].train.tolist() == [0]
    assert ds.class_count == 2


def test_save_load_round_trip_single(tmp_path):
    ds = generate_sbm(2, 12, 0.4, 0.05, 5, 1.5, seed=9)
    path = tmp_path / "sbm.txt"
    save_citation(ds, path)
    back = load_citation(path)
    assert np.array_equal(back.graphs[0].edges, ds.graphs[0].edges)
    assert np.array_equal(back.graphs[0].features, ds.graphs[0].features)
    assert np.array_equal(back.labels[0], ds.labels[0])
    for kind in ("train", "val", "test"):
        assert np.array_equal(back.masks[0].of(kind), ds.masks[0].of(kind))
    assert back.task_kind == ds.task_kind and back.class_count == ds.class_count
    # Self-loops are left out of the file itself.
    assert "edge 0 0" not in path.read_text(encoding="utf-8")


def test_save_load_round_trip_multi(tmp_path):
    rng = np.random.default_rng(2)
    g = make_graph(4, [[0, 1], [1, 2], [2, 3]], rng.standard_normal((4, 3)))
    ds = LabeledDataset(
        graphs=(g,),
        labels=(rng.integers(0, 2, size=(4, 3)).astype(np.int64),),
        masks=(make_mask(4, [0, 1], [2], [3]),),
        task_kind="multi",
        class_count=3,
    )
    path = tmp_path / "multi.txt"
    save_citation(ds, path)
    back = load_citation(path)
    assert back.task_kind == "multi"
    assert np.array_equal(back.labels[0], ds.labels[0])
    assert np.array_equal(back.graphs[0].features, ds.graphs[0].features)


@pytest.mark.parametrize(
    "mutation,message",
    [
        (("nodes 3 features 2 classes 2", 0), "line 1"),
        (("node 0 0.5 -1.5", 1), "line 2: node line needs"),
        (("node 9 0.5 -1.5 0", 1), "line 2: node id 9 out of range"),
        (("node 0 0.5 -1.5 7", 1), "line 2: label 7 out of range"),
        (("node 0 abc -1.5 0", 1), "line 2"),
        (("edge 0 9", 4), "line 5: edge endpoint out of range"),
        (("edge 0", 4), "line 5: edge line needs"),
        (("blob 0 1", 4), "line 5: unknown record kind"),
        (("mask weird 0", 5), "line 6: mask kind"),
        (("mask train x", 5), "line 6: invalid literal"),
    ],
)
def test_load_errors_name_the_line(tmp_path, mutation, message):
    replacement, lineno = mutation
    lines = MINIMAL.splitlines()
    lines[lineno] = replacement
    # Re-sorting may shift the reported number for mask lines; match loosely.
    with pytest.raises(IngestionError) as err:
        load_citation(_write(tmp_path, "\n".join(lines)))
    assert message.split(":")[0] in str(err.value)


def test_load_duplicate_and_missing_nodes(tmp_path):
    dup = MINIMAL.replace("node 1 2.0 0.25 1", "node 0 2.0 0.25 1")
    with pytest.raises(IngestionError, match="duplicate node id 0"):
        load_citation(_write(tmp_path, dup))
    missing = "\n".join(line for line in MINIMAL.splitlines() if not line.startswith("node 2"))
    with pytest.raises(IngestionError, match="node 2 never declared"):
        load_citation(_write(tmp_path, missing))


def test_load_overlapping_masks(tmp_path):
    bad = MINIMAL.replace("mask val 1", "mask val 0")
    with pytest.raises(IngestionError, match="mask"):
        load_citation(_write(tmp_path, bad))


def test_load_empty_file(tmp_path):
    with pytest.raises(IngestionError, match="line 1"):
        load_citation(_write(tmp_path, ""))


def test_save_rejects_multigraph(tmp_path):
    ds = generate_multigraph(3, 10, 3.0, 4, 2, seed=1)
    with pytest.raises(ParameterError, match="one graph"):
        save_citation(ds, tmp_path / "nope.txt")


def test_multigraph_labels_match_add_at_reference():
    # The neighbour sum behind the labels must add edges in the order
    # np.add.at does, or the generated dataset would change.
    ds = generate_multigraph(5, 30, 6.0, 7, 3, seed=11)
    rule = np.random.default_rng(11).standard_normal((7, 3))  # first draw of the generator
    for graph, labels in zip(ds.graphs, ds.labels):
        neighbor_sum = np.zeros_like(graph.features)
        np.add.at(neighbor_sum, graph.dst, graph.features[graph.src])
        context = 0.5 * (graph.features + neighbor_sum / graph.degrees[:, None])
        assert np.array_equal(labels, (context @ rule > 0.0).astype(np.int64))


def _dataset_digest(dataset):
    h = hashlib.sha256()
    for graph, labels, mask in zip(dataset.graphs, dataset.labels, dataset.masks):
        for arr in (graph.edges, graph.features, graph.degrees, labels, mask.train, mask.val, mask.test):
            h.update(f"{arr.dtype}{arr.shape}".encode())
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


# The dataset settings of the sbm-share and multigraph-share benchmark
# workloads; 1000001 is the first seed of their fixed panel.
@pytest.mark.parametrize(
    "build,seed,digest",
    [
        (lambda s: generate_sbm(4, 100, 0.06, 0.02, 16, 0.3, s), 1,
         "293a8103bab658e32502f1bf50b6793efb42c05e2cd1e33bf36b53f87ec406e0"),
        (lambda s: generate_sbm(4, 100, 0.06, 0.02, 16, 0.3, s), 1000001,
         "3597614f97fb16e9dfb37646c88e40d5c51c350300a72a978e3e76dc2b62afc0"),
        (lambda s: generate_multigraph(20, 60, 8.0, 16, 6, s), 1,
         "5fb53f6544b088f43a06167a48bffc0697c7e5543497ad7a041fe8fde322e0f7"),
        (lambda s: generate_multigraph(20, 60, 8.0, 16, 6, s), 1000001,
         "4cfd9bada389152535ec204ea2063f50c1c06faa12542c3ed58853416c4e627a"),
    ],
    ids=["sbm-1", "sbm-1000001", "multigraph-1", "multigraph-1000001"],
)
def test_benchmark_datasets_keep_their_bytes(build, seed, digest):
    assert _dataset_digest(build(seed)) == digest
