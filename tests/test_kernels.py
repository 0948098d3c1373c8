"""Message-passing kernels against inline ``ufunc.at`` references.

The sum and max kernels must reproduce ``np.add.at`` / ``np.maximum.at``
bit for bit (same values, same winner routing), so search rewards do not
move with the kernel implementation. Each kernel is checked with raw ids
and with a precomputed ``IndexPlan``, the form message passing passes.
``head_matmul`` goes through BLAS and is held to the per-head loop at
``allclose``.
"""

import numpy as np
import pytest

from gnnsearch import autodiff as ad
from gnnsearch.autodiff import Tensor
from gnnsearch.errors import ParameterError, ShapeError

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
