"""Tensor ops: forward values against hand/numpy oracles, gradients against
central finite differences, and the tape's traversal guarantees."""

import functools
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnnsearch import autodiff as ad
from gnnsearch.autodiff import Tensor
from gnnsearch.errors import ParameterError, ShapeError
from gnnsearch.graphs import make_graph

from conftest import check_grads, finite_diff, rel_err


def _weighted_sum(rng, shape):
    """A fixed random linear functional, to scalarize arbitrary outputs."""
    w = Tensor(rng.standard_normal(shape))
    return lambda t: ad.reduce_sum(ad.mul(t, w))


# ---------------------------------------------------------------------------
# elementwise and linear algebra


def test_add_sub_mul_div_forward(rng):
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[10.0, 20.0], [30.0, 40.0]])
    assert np.array_equal(ad.add(a, b).data, [[11, 22], [33, 44]])
    assert np.array_equal(ad.sub(a, b).data, [[-9, -18], [-27, -36]])
    assert np.array_equal(ad.mul(a, b).data, [[10, 40], [90, 160]])
    assert np.allclose(ad.div(b, a).data, [[10, 10], [10, 10]])


@pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul, ad.div])
def test_binary_op_gradients(rng, op):
    a = Tensor(rng.standard_normal((3, 4)) + 2.0, requires_grad=True)
    b = Tensor(rng.standard_normal((3, 4)) + 2.0, requires_grad=True)
    scalarize = _weighted_sum(rng, (3, 4))
    check_grads(lambda: scalarize(op(a, b)), [a, b])


@pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul, ad.div])
def test_binary_op_gradients_broadcast(rng, op):
    # Row vector against a matrix: the gradient must fold back to (1, 4).
    a = Tensor(rng.standard_normal((3, 4)) + 2.0, requires_grad=True)
    b = Tensor(rng.standard_normal((1, 4)) + 2.0, requires_grad=True)
    scalarize = _weighted_sum(rng, (3, 4))
    check_grads(lambda: scalarize(op(a, b)), [a, b])


def test_matmul_hand_values():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[1.0], [1.0]])
    assert np.array_equal(ad.matmul(a, b).data, [[3.0], [7.0]])
    eye = Tensor(np.eye(2))
    assert np.array_equal(ad.matmul(eye, a).data, a.data)


def test_matmul_gradient(rng):
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    scalarize = _weighted_sum(rng, (3, 2))
    check_grads(lambda: scalarize(ad.matmul(a, b)), [a, b])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(3, 4\).*\(3, 2\)"):
        ad.matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 2))))
    with pytest.raises(ShapeError, match="2-d"):
        ad.matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))


def test_head_matmul_matches_per_head_loop(rng):
    x = Tensor(rng.standard_normal((5, 3, 4)), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 4, 2)), requires_grad=True)
    out = ad.head_matmul(x, w)
    expected = np.stack([x.data[:, k, :] @ w.data[k] for k in range(3)], axis=1)
    assert np.allclose(out.data, expected)
    scalarize = _weighted_sum(rng, (5, 3, 2))
    check_grads(lambda: scalarize(ad.head_matmul(x, w)), [x, w])


def test_gather_rows_forward_and_scatter_grad(rng):
    x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    idx = [2, 0, 2, 1]  # row 2 used twice: grads must accumulate
    out = ad.gather_rows(x, idx)
    assert np.array_equal(out.data, x.data[idx])
    scalarize = _weighted_sum(rng, (4, 3))
    check_grads(lambda: scalarize(ad.gather_rows(x, idx)), [x])
    with pytest.raises(ParameterError):
        ad.gather_rows(x, [0, 4])


def test_concat_and_reshape_gradients(rng):
    a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
    out = ad.concat([a, b], axis=1)
    assert out.shape == (2, 5)
    scalarize = _weighted_sum(rng, (2, 5))
    check_grads(lambda: scalarize(ad.concat([a, b], axis=1)), [a, b])

    c = Tensor(rng.standard_normal((2, 6)), requires_grad=True)
    scalarize = _weighted_sum(rng, (4, 3))
    check_grads(lambda: scalarize(ad.reshape(c, (4, 3))), [c])
    with pytest.raises(ParameterError):
        ad.concat([])


@pytest.mark.parametrize("axis,keepdims", [(None, False), (0, False), (1, True), (-1, False)])
def test_reduce_sum_matches_numpy(rng, axis, keepdims):
    x = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
    out = ad.reduce_sum(x, axis=axis, keepdims=keepdims)
    assert np.allclose(out.data, x.data.sum(axis=axis, keepdims=keepdims))
    scalarize = _weighted_sum(rng, out.shape)
    check_grads(lambda: scalarize(ad.reduce_sum(x, axis=axis, keepdims=keepdims)), [x])


def test_exp_log_gradients(rng):
    x = Tensor(rng.random((3, 3)) + 0.5, requires_grad=True)
    scalarize = _weighted_sum(rng, (3, 3))
    check_grads(lambda: scalarize(ad.exp(x)), [x])
    check_grads(lambda: scalarize(ad.log(x)), [x])


# ---------------------------------------------------------------------------
# activations


def test_relu6_clamps():
    x = Tensor([7.0, -1.0, 3.0])
    assert np.array_equal(ad.relu6(x).data, [6.0, 0.0, 3.0])


def test_linear_is_identity(rng):
    x = Tensor(rng.standard_normal(5))
    assert ad.activation("linear", x) is x


@pytest.mark.parametrize("kind", sorted(ad.ACTIVATIONS))
def test_activation_gradients_at_reference_points(rng, kind):
    # Points chosen away from the relu/relu6/elu kinks at 0 and 6.
    x = Tensor(np.array([-2.0, -0.5, 0.3, 2.0]), requires_grad=True)
    scalarize = _weighted_sum(rng, (4,))
    check_grads(lambda: scalarize(ad.activation(kind, x)), [x])


def test_activation_extreme_inputs_stay_finite():
    x = Tensor(np.array([-1e4, 1e4]))
    for kind in ("sigmoid", "softplus", "tanh", "elu"):
        assert np.isfinite(ad.activation(kind, x).data).all(), kind


def test_unknown_activation_rejected():
    with pytest.raises(ParameterError, match="swish"):
        ad.activation("swish", Tensor([1.0]))


# ---------------------------------------------------------------------------
# segment operations


def test_segment_sum_mean_max_hand_values():
    x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    seg = [0, 0]
    assert np.array_equal(ad.segment_sum(x, seg, 1).data, [[4.0, 6.0]])
    assert np.array_equal(ad.segment_mean(x, seg, 1).data, [[2.0, 3.0]])
    assert np.array_equal(ad.segment_max(x, seg, 1).data, [[3.0, 4.0]])


def test_segment_max_routes_gradient_to_maximizer():
    x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
    out = ad.segment_max(x, [0, 0], 1)
    out.backward(np.ones((1, 2)))
    assert np.array_equal(x.grad, [[0.0, 0.0], [1.0, 1.0]])


def test_segment_max_tie_goes_to_lowest_row():
    x = Tensor(np.array([[5.0], [5.0], [2.0]]), requires_grad=True)
    out = ad.segment_max(x, [0, 0, 0], 1)
    out.backward(np.ones((1, 1)))
    assert np.array_equal(x.grad, [[1.0], [0.0], [0.0]])


@pytest.mark.parametrize("op", [ad.segment_sum, ad.segment_mean, ad.segment_max])
def test_segment_op_gradients(rng, op):
    x = Tensor(rng.standard_normal((7, 2, 3)), requires_grad=True)
    seg = [0, 1, 1, 0, 2, 2, 2]
    scalarize = _weighted_sum(rng, (3, 2, 3))
    check_grads(lambda: scalarize(op(x, seg, 3)), [x])


def test_segment_op_validation():
    x = Tensor(np.zeros((3, 2)))
    with pytest.raises(ShapeError):
        ad.segment_sum(x, [0, 1], 2)
    with pytest.raises(ParameterError):
        ad.segment_sum(x, [0, 1, 5], 3)
    with pytest.raises(ParameterError):
        ad.segment_sum(x, [0, 1, 1], 0)


def test_segment_softmax_hand_values():
    single = ad.segment_softmax(Tensor(np.array([3.7])), [0], 1)
    assert np.allclose(single.data, [1.0])
    pair = ad.segment_softmax(Tensor(np.array([0.0, 0.0])), [0, 0], 1)
    assert np.allclose(pair.data, [0.5, 0.5])
    huge = ad.segment_softmax(Tensor(np.array([1000.0, 1000.0])), [0, 0], 1)
    assert np.allclose(huge.data, [0.5, 0.5])
    assert np.isfinite(huge.data).all()


def test_segment_softmax_matches_per_segment_oracle(rng):
    scores = rng.standard_normal(8)
    seg = np.array([0, 0, 1, 1, 1, 2, 2, 2])
    out = ad.segment_softmax(Tensor(scores), seg, 3).data
    for s in range(3):
        rows = seg == s
        e = np.exp(scores[rows] - scores[rows].max())
        assert np.allclose(out[rows], e / e.sum())


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=20), st.data())
def test_segment_softmax_sums_to_one(values, data):
    # Self-loops guarantee non-empty segments in real use, so generate
    # memberships first and compact the ids to leave no segment empty.
    raw = [data.draw(st.integers(0, 3)) for _ in values]
    remap = {v: i for i, v in enumerate(sorted(set(raw)))}
    seg = np.array([remap[v] for v in raw])
    n_seg = len(remap)
    out = ad.segment_softmax(Tensor(np.array(values)), seg, n_seg).data
    sums = np.zeros(n_seg)
    np.add.at(sums, seg, out)
    assert np.all(out > 0)
    assert np.allclose(sums, 1.0, atol=1e-9)


def test_segment_softmax_gradient(rng):
    x = Tensor(rng.standard_normal((6, 2)), requires_grad=True)
    seg = [0, 0, 1, 1, 1, 2]
    scalarize = _weighted_sum(rng, (6, 2))
    check_grads(lambda: scalarize(ad.segment_softmax(x, seg, 3)), [x])


# ---------------------------------------------------------------------------
# losses


def test_cross_entropy_uniform_logits_is_log_class_count():
    logits = Tensor(np.zeros((4, 5)))
    out = ad.cross_entropy(logits, [0, 1, 2, 3], [0, 1, 2, 3])
    assert abs(out.item() - np.log(5)) < 1e-12


def test_cross_entropy_confident_correct_logits_near_zero():
    labels = np.array([0, 2, 1])
    logits = np.full((3, 3), -1e3)
    logits[np.arange(3), labels] = 1e3
    out = ad.cross_entropy(Tensor(logits), labels, [0, 1, 2])
    assert out.item() < 1e-9


def test_cross_entropy_ignores_unmasked_rows(rng):
    logits = rng.standard_normal((5, 3))
    labels = [0, 1, 2, 0, 1]
    mask = [1, 3]
    base = ad.cross_entropy(Tensor(logits), labels, mask).item()
    poked = logits.copy()
    poked[0] += 100.0
    poked[4] -= 50.0
    assert ad.cross_entropy(Tensor(poked), labels, mask).item() == pytest.approx(base, abs=1e-12)


def test_cross_entropy_gradient(rng):
    logits = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
    labels = [0, 2, 1, 1, 0]
    check_grads(lambda: ad.cross_entropy(logits, labels, [0, 2, 3]), [logits])


def test_cross_entropy_validation():
    with pytest.raises(ParameterError, match="empty mask"):
        ad.cross_entropy(Tensor(np.zeros((2, 2))), [0, 1], [])
    with pytest.raises(ParameterError, match="label"):
        ad.cross_entropy(Tensor(np.zeros((2, 2))), [0, 7], [0, 1])


def test_binary_cross_entropy_zero_logits_is_log_two(rng):
    labels = rng.integers(0, 2, size=(4, 3))
    out = ad.binary_cross_entropy(Tensor(np.zeros((4, 3))), labels, [0, 1, 2, 3])
    assert abs(out.item() - np.log(2)) < 1e-12


def test_binary_cross_entropy_gradient(rng):
    logits = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
    labels = rng.integers(0, 2, size=(5, 4))
    check_grads(lambda: ad.binary_cross_entropy(logits, labels, [0, 2, 4]), [logits])


def test_binary_cross_entropy_label_shape_mismatch():
    with pytest.raises(ShapeError):
        ad.binary_cross_entropy(Tensor(np.zeros((3, 2))), np.zeros((3, 3)), [0, 1, 2])


def test_l2_term_adds_weighted_square_norm(rng):
    logits = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
    labels = [0, 1, 0]
    plain = ad.loss("single", logits, labels, [0, 1, 2]).item()
    with_l2 = ad.loss("single", logits, labels, [0, 1, 2], l2_lambda=0.01, l2_params=[w]).item()
    assert with_l2 == pytest.approx(plain + 0.01 * np.sum(w.data**2), rel=1e-12)
    check_grads(
        lambda: ad.loss("single", logits, labels, [0, 1, 2], l2_lambda=0.01, l2_params=[logits, w]),
        [logits, w],
    )


def test_loss_unknown_task_kind():
    with pytest.raises(ParameterError, match="task kind"):
        ad.loss("ranking", Tensor(np.zeros((2, 2))), [0, 1], [0, 1])


# ---------------------------------------------------------------------------
# init, dropout, optimizer


def test_glorot_bound_and_mean(rng):
    t = ad.glorot(rng, 3, 3, shape=(100, 100))
    assert t.requires_grad
    assert np.all(np.abs(t.data) <= 1.0)  # bound = sqrt(6/6) = 1
    draws = ad.glorot(np.random.default_rng(0), 100, 100, shape=(100_000,))
    assert abs(draws.data.mean()) < 0.01
    with pytest.raises(ParameterError):
        ad.glorot(rng, 0, 3)


def test_glorot_same_seed_identical():
    a = ad.glorot(np.random.default_rng(3), 4, 5)
    b = ad.glorot(np.random.default_rng(3), 4, 5)
    assert np.array_equal(a.data, b.data)


def test_uniform_param_bound(rng):
    t = ad.uniform_param(rng, (50, 50), bound=0.1)
    assert np.all(np.abs(t.data) <= 0.1)


def test_dropout_identity_cases(rng):
    x = Tensor(rng.standard_normal((4, 4)))
    assert ad.dropout(x, 0.0, rng, training=True) is x
    assert ad.dropout(x, 0.7, rng, training=False) is x


def test_dropout_rate_and_scaling():
    rng = np.random.default_rng(42)
    p = 0.6
    x = Tensor(np.ones(100_000))
    out = ad.dropout(x, p, rng, training=True).data
    dropped = np.mean(out == 0.0)
    assert abs(dropped - p) < 0.01
    kept = out[out != 0.0]
    assert np.allclose(kept, 1.0 / (1.0 - p))


def _with_specials(values, rng):
    """``values`` with -0.0, 0.0, +-inf and NaN sprinkled in, each at
    several positions."""
    values = values.copy()
    flat = values.reshape(-1)
    for special in (-0.0, 0.0, np.inf, -np.inf, np.nan):
        flat[rng.choice(flat.size, 40, replace=False)] = special
    return values


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_dropout_is_one_draw_and_keeps_every_bit(dtype):
    """Past one draw block, the kept entries are those whose draw of one
    ``rng.random(shape)`` is at least p, and the generator ends where that
    call leaves it. Values and gradients are bitwise ``x * mask``, with
    ``mask = (draw >= p) / (1 - p)`` in float64 cast to x's dtype, so
    -0.0, inf and NaN inputs keep the bits of that product."""
    p, shape = 0.6, (3, ad.ADAM_BLOCK // 2 + 7)
    draw = np.random.default_rng(5).random(shape)
    mask = ((draw >= p) / (1.0 - p)).astype(dtype)
    rng = np.random.default_rng(7)
    x = _with_specials(rng.standard_normal(shape), rng).astype(dtype)
    g = _with_specials(rng.standard_normal(shape), rng).astype(dtype)

    ones = ad.dropout(Tensor(np.ones(shape, dtype=dtype)), p, np.random.default_rng(5))
    assert np.array_equal(ones.data != 0.0, draw >= p)
    t = Tensor(x, requires_grad=True)
    drawn = np.random.default_rng(5)
    with np.errstate(invalid="ignore"):  # inf * 0.0
        out = ad.dropout(t, p, drawn)
        out.backward(g)
        assert _same_bits(out.data, x * mask)
        assert _same_bits(t.grad, g * mask)
    reference = np.random.default_rng(5)
    reference.random(shape)
    assert drawn.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_leaky_relu_keeps_the_bits_of_a_float_scale(dtype):
    """Values are x where it is positive and 0.2 x elsewhere; the gradient
    is g times a float scale of 1.0 or 0.2 in x's dtype, for -0.0, inf and
    NaN in both x and g."""
    rng = np.random.default_rng(3)
    x = _with_specials(rng.standard_normal((50, 40)), rng).astype(dtype)
    g = _with_specials(rng.standard_normal((50, 40)), rng).astype(dtype)
    t = Tensor(x, requires_grad=True)
    out = ad.leaky_relu(t)
    out.backward(g)
    scale = np.where(x > 0.0, 1.0, 0.2).astype(dtype)
    assert _same_bits(out.data, np.where(x > 0.0, x, 0.2 * x))
    assert _same_bits(t.grad, g * scale)
    with pytest.raises(ParameterError, match="slope"):
        ad.leaky_relu(t, 1.5)


@pytest.mark.parametrize("kind", ["gat", "sym-gat"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_attention_scores_keep_the_bits_of_a_float_scale(kind, dtype):
    """gat and sym-gat scores apply leaky_relu's rule to each direction's
    pre-activation: values and gradients are bitwise the old formula,
    ``np.where(pre > 0, pre, 0.2 pre)`` and ``g`` times a float scale of 1.0
    or 0.2, for zero, inf, NaN and subnormal pre-activations (a sum over D
    never gives -0.0; ``leaky_relu``'s test covers it for the shared rule)."""
    rng = np.random.default_rng(8)
    n, heads = 100, 4
    graph = make_graph(n, rng.integers(0, n, (300, 2)), np.zeros((n, 1)))
    z_val = _with_specials(rng.standard_normal((n, heads, 1)), rng).astype(dtype)
    z_val.reshape(-1)[rng.choice(z_val.size, 40, replace=False)] = np.finfo(dtype).smallest_subnormal
    a_vals = [np.ones((heads, 1), dtype=dtype), np.full((heads, 1), -1.0, dtype=dtype)]
    plan = graph.plan
    g = _with_specials(rng.standard_normal((plan.edge_count, heads)), rng).astype(dtype)
    z = Tensor(z_val, requires_grad=True)
    a_l, a_r = (Tensor(a, requires_grad=True) for a in a_vals)
    with np.errstate(invalid="ignore", over="ignore"):
        out = ad.edge_scores(kind, z, plan, a_l, a_r)
        out.backward(g)
        ends = [(plan.dst, plan.src), (plan.src, plan.dst)] if kind == "sym-gat" else [(plan.dst, plan.src)]
        proj = [(z_val * a).sum(axis=-1) for a in a_vals]
        pres = [proj[0].take(i.ids, axis=0) + proj[1].take(j.ids, axis=0) for i, j in ends]
        g_pres = [g * np.where(pre > 0.0, 1.0, 0.2).astype(dtype) for pre in pres]
        g_proj = [functools.reduce(np.add, [ids.sum(g_pre) for ids, g_pre in zip(side, g_pres)]) for side in zip(*ends)]
        assert _same_bits(out.data, functools.reduce(np.add, [np.where(pre > 0.0, pre, 0.2 * pre) for pre in pres]))
        assert _same_bits(z.grad, functools.reduce(np.add, [g_p[:, :, None] * a for g_p, a in zip(g_proj, a_vals)]))
        for tensor, g_p in zip((a_l, a_r), g_proj):
            assert _same_bits(tensor.grad, np.einsum("nk,nkd->kd", g_p, z_val))
    pre = np.concatenate(pres)
    assert (pre == 0.0).any() and np.isnan(pre).any() and np.isinf(pre).any()
    assert (np.abs(pre) == np.finfo(dtype).smallest_subnormal).any()


def test_dropout_validation(rng):
    x = Tensor(np.ones(3))
    with pytest.raises(ParameterError):
        ad.dropout(x, 1.0, rng, training=True)
    with pytest.raises(ParameterError):
        ad.dropout(x, 0.5, None, training=True)


def _masked_sigmoid(x):
    """The logistic function with one mask per sign: a reference."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_stable_sigmoid_is_bitwise_the_masked_form(rng):
    special = [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan, 710.0, -710.0, 1e308, -1e308]
    x = np.concatenate([special, rng.standard_normal(1000) * 0.1, rng.standard_normal(989) * 1000])
    with np.errstate(all="raise", under="ignore"):  # neither form overflows
        fast = ad.stable_sigmoid(x)
        reference = _masked_sigmoid(x)
    assert fast.tobytes() == reference.tobytes()
    assert ad.stable_sigmoid(x.reshape(4, -1)).tobytes() == reference.tobytes()


def test_adam_zero_gradient_leaves_params():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    state = ad.AdamState.init([p], lr=0.1)
    ad.adam_step(state, [p], [np.zeros(2)])
    assert np.all(np.abs(p.data - [1.0, -2.0]) < 1e-12)


def test_adam_first_step_size_is_lr():
    p = Tensor(np.array([5.0]), requires_grad=True)
    state = ad.AdamState.init([p], lr=0.1)
    ad.adam_step(state, [p], [np.array([3.0])])
    # Bias correction makes the first update lr * g/|g| up to eps.
    assert p.data[0] == pytest.approx(5.0 - 0.1, abs=1e-6)


def test_adam_converges_on_quadratic_bowl():
    p = Tensor(np.array([5.0]), requires_grad=True)
    state = ad.AdamState.init([p], lr=0.1)
    for _ in range(200):
        ad.adam_step(state, [p], [2.0 * p.data])
    assert abs(p.data[0]) < 0.1
    assert state.step == 200


def test_adam_shape_mismatch():
    p = Tensor(np.zeros(3), requires_grad=True)
    state = ad.AdamState.init([p], lr=0.1)
    with pytest.raises(ShapeError):
        ad.adam_step(state, [p], [np.zeros(4)])
    with pytest.raises(ParameterError):
        ad.AdamState.init([p], lr=-1.0)


def test_adam_preserves_captured_forward_values(rng):
    # AdamState.init copies the parameters into its buffer, so a tape
    # recorded before it keeps the values it was recorded at. (A tape
    # recorded after it must be consumed first: the step writes in place.)
    p = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
    out = ad.reduce_sum(ad.mul(p, p))
    before = p.data
    state = ad.AdamState.init([p], lr=0.5)
    ad.adam_step(state, [p], [np.ones((2, 2))])
    assert p.data is not before
    ad.zero_grads([p])
    out.backward()
    assert np.allclose(p.grad, 2.0 * before)


# ---------------------------------------------------------------------------
# tape mechanics


def test_backward_accumulates_across_two_consumers():
    x = Tensor(np.array([3.0]), requires_grad=True)
    a = ad.mul(x, Tensor(np.array([2.0])))
    b = ad.mul(x, Tensor(np.array([3.0])))
    y = ad.reduce_sum(ad.mul(a, b))  # y = 6 x^2, dy/dx = 12 x
    y.backward()
    assert np.allclose(x.grad, [36.0])


def test_same_tensor_twice_in_one_op():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    y = ad.reduce_sum(ad.add(x, x))
    y.backward()
    assert np.allclose(x.grad, [2.0, 2.0])


def test_tape_topological_order_and_unique_visits(rng):
    x = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
    a = ad.mul(x, x)
    b = ad.add(a, x)
    c = ad.matmul(a, b)
    y = ad.reduce_sum(ad.tanh(c))
    tape = ad.Tape.trace(y)
    ids = [id(node) for node in tape.nodes]
    assert len(ids) == len(set(ids))
    position = {node_id: i for i, node_id in enumerate(ids)}
    for i, node in enumerate(tape.nodes):
        for parent in node.inputs:
            if parent.grad_fn is not None:
                assert position[id(parent)] < i


def test_backward_requires_scalar_or_seed(rng):
    x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    y = ad.mul(x, x)
    with pytest.raises(ParameterError, match="scalar"):
        y.backward()
    with pytest.raises(ShapeError):
        y.backward(np.ones((3, 2)))
    y.backward(np.ones((2, 3)))
    assert np.allclose(x.grad, 2.0 * x.data)


def test_no_tape_for_constant_inputs(rng):
    a = Tensor(rng.standard_normal(3))
    b = Tensor(rng.standard_normal(3))
    out = ad.add(a, b)
    assert out.grad_fn is None and not out.requires_grad


def test_finite_diff_helper_self_check(rng):
    # The oracle itself: d/dx sum(x^2) = 2x.
    x = Tensor(rng.standard_normal(4), requires_grad=True)
    numeric = finite_diff(lambda: ad.reduce_sum(ad.mul(x, x)).data, x)
    assert rel_err(2.0 * x.data, numeric) < 1e-6


def test_dropped_tape_is_freed_without_cyclic_gc(rng):
    # A tape holds no reference cycle, so reference counting alone frees a
    # tape and its arrays once the root is dropped.
    x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    y = ad.tanh(ad.mul(x, x))
    inner = weakref.ref(y.inputs[0])
    assert inner() is not None
    gc.disable()
    try:
        del y
        assert inner() is None
    finally:
        gc.enable()
