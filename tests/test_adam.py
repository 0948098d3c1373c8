"""The flat, in-place Adam step against the per-array step it replaced.

``_ReferenceAdam`` and ``_reference_adam_step`` are the old optimizer:
one moment array per parameter, a loop over the parameters, and a fresh
array assigned to each ``data``. Adam is elementwise, so the flat step
must match it bit for bit.
"""

import copy
import itertools
import pickle
from dataclasses import dataclass

import numpy as np
import pytest

from gnnsearch import autodiff as ad
from gnnsearch.arch import AGGREGATION, ATTENTION, decode, default_space
from gnnsearch.autodiff import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, Tensor
from gnnsearch.controller import Controller, reinforce_step
from gnnsearch.errors import ParameterError, ShapeError
from gnnsearch.gnn import TrainHyperparams, build_model, init_layer_params, train_child
from gnnsearch.graphs import generate_multigraph

from conftest import traced_memory


@dataclass
class _ReferenceAdam:
    lr: float
    m: list
    v: list
    step: int = 0

    @classmethod
    def init(cls, params, lr):
        return cls(lr, [np.zeros_like(p.data) for p in params], [np.zeros_like(p.data) for p in params])


def _reference_adam_step(state, params, grads):
    if len(params) != len(state.m) or len(grads) != len(params):
        raise ParameterError("adam_step: params/grads length does not match state")
    state.step += 1
    t = state.step
    for i, (p, g) in enumerate(zip(params, grads)):
        g = np.asarray(g, dtype=np.float64)
        if g.shape != p.data.shape:
            raise ShapeError(f"grad shape {g.shape} != param shape {p.data.shape}")
        state.m[i] = ADAM_BETA1 * state.m[i] + (1.0 - ADAM_BETA1) * g
        state.v[i] = ADAM_BETA2 * state.v[i] + (1.0 - ADAM_BETA2) * g * g
        m_hat = state.m[i] / (1.0 - ADAM_BETA1 ** t)
        v_hat = state.v[i] / (1.0 - ADAM_BETA2 ** t)
        p.data = p.data - state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return params


def _reference_adam_step_in(dtype, state, params, grads):
    """``_reference_adam_step`` for a set whose flat state has ``dtype``:
    each gradient is rounded to it first, as the flat step rounds it."""
    state.step += 1
    t = state.step
    for i, (p, g) in enumerate(zip(params, grads)):
        g = np.asarray(g, dtype=dtype)
        state.m[i] = ADAM_BETA1 * state.m[i] + (1.0 - ADAM_BETA1) * g
        state.v[i] = ADAM_BETA2 * state.v[i] + (1.0 - ADAM_BETA2) * g * g
        m_hat = state.m[i] / (1.0 - ADAM_BETA1 ** t)
        v_hat = state.v[i] / (1.0 - ADAM_BETA2 ** t)
        p.data = p.data - state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return params


def _reference_path(monkeypatch):
    monkeypatch.setattr(ad, "AdamState", _ReferenceAdam)
    monkeypatch.setattr(ad, "adam_step", _reference_adam_step)


def _copies(params):
    return [Tensor(p.data.copy(), requires_grad=True) for p in params]


def _bytes(arrays):
    return [a.tobytes() for a in arrays]


def _split(state, flat):
    """A flat moment array cut into one array per parameter."""
    cuts = np.cumsum([view.size for view in state.views])[:-1]
    return [part.reshape(view.shape) for part, view in zip(np.split(flat, cuts), state.views)]


def _assert_twenty_steps_match(params, seed, lr=0.01):
    theirs = _copies(params)
    state = ad.AdamState.init(params, lr)
    reference = _ReferenceAdam.init(theirs, lr)
    rng = np.random.default_rng(seed)
    for _ in range(20):
        # Mixed scales, zeros and signs exercise every rounding path.
        grads = [rng.standard_normal(p.shape) * 10.0 ** rng.integers(-6, 3) for p in params]
        grads[0][..., 0] = 0.0
        ad.adam_step(state, params, grads)
        _reference_adam_step(reference, theirs, grads)
    assert state.step == reference.step == 20
    assert _bytes(p.data for p in params) == _bytes(p.data for p in theirs)
    assert _bytes(_split(state, state.m)) == _bytes(reference.m)
    assert _bytes(_split(state, state.v)) == _bytes(reference.v)


def test_controller_arrays_match_the_per_array_step():
    params = Controller(default_space(2), np.random.default_rng(0), hidden_size=100).parameters()
    assert len(params) == 40 and sum(p.size for p in params) == 93766
    _assert_twenty_steps_match(params, seed=1, lr=0.0035)


@pytest.mark.parametrize("attention,aggregation", list(itertools.product(ATTENTION, AGGREGATION)))
def test_child_arrays_match_the_per_array_step(attention, aggregation):
    rng = np.random.default_rng(2)
    layer = init_layer_params(rng, attention, aggregation, 5, 2, 3)
    layer.tensors["w_res"] = ad.glorot(rng, 5, 6)
    _assert_twenty_steps_match(list(layer.tensors.values()), seed=3)


@pytest.mark.parametrize("size", [ad.ADAM_BLOCK - 1, ad.ADAM_BLOCK, ad.ADAM_BLOCK + 1, 3 * ad.ADAM_BLOCK + 7])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_blocks_match_the_per_array_step(dtype, size):
    # Past one block, the first tensor (or, at ADAM_BLOCK + 1, the last)
    # straddles a block edge; the middle one is rebound before step 2,
    # and its gradient is a column-major array.
    rng = np.random.default_rng(9)
    params = [Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)
              for shape in ((size - 107,), (4, 25), (7,))]
    theirs = _copies(params)
    state, reference = ad.AdamState.init(params, 0.01), _ReferenceAdam.init(theirs, 0.01)
    assert state.flat.dtype == dtype
    for step in range(3):
        grads = [rng.standard_normal(p.shape) * 10.0 ** rng.integers(-6, 3) for p in params]
        if step == 1:
            restored = rng.standard_normal((4, 25)).astype(dtype)
            params[1].data, theirs[1].data = restored.copy(), restored.copy()
            grads[1] = np.asfortranarray(grads[1])
        ad.adam_step(state, params, grads)
        _reference_adam_step_in(dtype, reference, theirs, grads)
    assert all(p.data is view for p, view in zip(params, state.views))
    assert _bytes(p.data for p in params) == _bytes(p.data for p in theirs)
    assert _bytes(_split(state, state.m)) == _bytes(reference.m)
    assert _bytes(_split(state, state.v)) == _bytes(reference.v)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_set_in_one_block_gets_the_bits_of_many_blocks(dtype, monkeypatch):
    """A set that fits one ADAM_BLOCK gathers its gradients with one
    concatenate, not through _blocks; with ADAM_BLOCK at 4 values the
    same set steps block by block through _blocks and gets the same bits."""
    rng = np.random.default_rng(4)
    shapes = ((3, 5), (7,), (2, 2, 3))
    values = [rng.standard_normal(shape).astype(dtype) for shape in shapes]
    steps = [[rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 3) for shape in shapes] for _ in range(3)]
    blocked, real_blocks = [], ad._blocks
    monkeypatch.setattr(ad, "_blocks", lambda *args: blocked.append(args) or real_blocks(*args))
    runs = []
    for block in (ad.ADAM_BLOCK, 4):
        monkeypatch.setattr(ad, "ADAM_BLOCK", block)
        params = [Tensor(value.copy(), requires_grad=True) for value in values]
        state = ad.AdamState.init(params, 0.01)
        for grads in steps:
            ad.adam_step(state, params, grads)
        runs.append(_bytes([state.flat, state.m, state.v]))
        assert len(blocked) == (0 if state.flat.size <= block else len(steps))
    assert runs[0] == runs[1]


def test_init_moves_the_parameters_into_one_buffer_the_step_writes():
    rng = np.random.default_rng(4)
    params = [Tensor(rng.standard_normal(shape), requires_grad=True) for shape in ((2, 3), (4,), (1, 1))]
    values = _bytes(p.data for p in params)
    state = ad.AdamState.init(params, lr=0.1)
    assert _bytes(p.data for p in params) == values
    assert state.flat.size == 11 and state.m.shape == state.v.shape == (11,)
    assert all(p.data is view and np.shares_memory(view, state.flat) for p, view in zip(params, state.views))
    ad.adam_step(state, params, [np.ones(p.shape) for p in params])
    assert all(p.data is view for p, view in zip(params, state.views))
    assert _bytes(p.data for p in params) != values


def test_a_rebound_parameter_is_picked_up():
    rng = np.random.default_rng(5)
    params = [Tensor(rng.standard_normal(shape), requires_grad=True) for shape in ((3, 2), (2,))]
    theirs = _copies(params)
    state, reference = ad.AdamState.init(params, 0.05), _ReferenceAdam.init(theirs, 0.05)
    grads = [rng.standard_normal(p.shape) for p in params]
    ad.adam_step(state, params, grads)
    _reference_adam_step(reference, theirs, grads)
    restored = rng.standard_normal((3, 2))  # as ChildModel.restore and load_controller rebind
    params[0].data, theirs[0].data = restored.copy(), restored.copy()
    ad.adam_step(state, params, grads)
    _reference_adam_step(reference, theirs, grads)
    assert params[0].data is state.views[0]
    assert _bytes(p.data for p in params) == _bytes(p.data for p in theirs)


@pytest.mark.parametrize("copy_of", [copy.deepcopy, lambda pair: pickle.loads(pickle.dumps(pair))],
                         ids=["deepcopy", "pickle"])
def test_a_copy_taken_mid_run_steps_to_the_bits_of_the_uninterrupted_run(copy_of):
    # A copy's views are no views of its flat: the step must cut them again.
    rng = np.random.default_rng(6)
    params = [Tensor(rng.standard_normal(shape), requires_grad=True) for shape in ((3, 2), (2,), (2, 2, 2))]
    steps = [[rng.standard_normal(p.shape) for p in params] for _ in range(6)]
    state = ad.AdamState.init(params, 0.05)
    for grads in steps[:3]:
        ad.adam_step(state, params, grads)
    copied, copied_state = copy_of((params, state))
    for grads in steps[3:]:
        ad.adam_step(state, params, grads)
        ad.adam_step(copied_state, copied, grads)
    assert all(p.data is view and np.shares_memory(view, copied_state.flat)
               for p, view in zip(copied, copied_state.views))
    assert not np.shares_memory(copied_state.flat, state.flat)
    assert _bytes(p.data for p in copied) == _bytes(p.data for p in params)
    assert _bytes([copied_state.flat, copied_state.m, copied_state.v]) == _bytes([state.flat, state.m, state.v])
    assert copied_state.step == state.step == 6


@pytest.mark.parametrize("fault,error", [("grad-shape", ShapeError), ("grad-count", ParameterError),
                                         ("param-count", ParameterError), ("rebound-shape", ShapeError)])
def test_a_refused_step_changes_nothing(fault, error):
    rng = np.random.default_rng(6)
    params = [Tensor(rng.standard_normal(shape), requires_grad=True) for shape in ((3, 2), (4,), (2, 2))]
    state = ad.AdamState.init(params, 0.05)
    ad.adam_step(state, params, [rng.standard_normal(p.shape) for p in params])
    grads = [rng.standard_normal(p.shape) for p in params]
    passed = list(params)
    if fault == "grad-shape":
        grads[2] = np.zeros((2, 3))
    elif fault == "grad-count":
        grads.pop()
    elif fault == "param-count":
        passed.pop()
    else:  # a well-shaped rebound parameter ahead of a misshapen one
        params[0].data = params[0].data.copy()
        params[1].data = np.zeros(5)
    before = [p.data for p in params]
    values = _bytes(before)
    moments = (state.m.tobytes(), state.v.tobytes())
    with pytest.raises(error):
        ad.adam_step(state, passed, grads)
    assert state.step == 1
    assert all(p.data is data for p, data in zip(params, before))
    assert _bytes(p.data for p in params) == values
    assert (state.m.tobytes(), state.v.tobytes()) == moments


def test_a_step_allocates_no_flat_temporary(monkeypatch):
    # The controller's own gradients, those smaller than a block made
    # column-major, so that one (slot1.emb's) crosses a block edge
    # without being contiguous.
    ctrl = Controller(default_space(2), np.random.default_rng(0), hidden_size=100)
    params = ctrl.parameters()
    state = ad.AdamState.init(params, 0.0035)
    step, taken = ad.adam_step, []
    monkeypatch.setattr(ad, "adam_step", lambda *args: taken.append(args))
    episode = ctrl.sample(np.random.default_rng(1))
    episode.shaped_reward = 1.0
    reinforce_step(ctrl, [episode], state)
    [(_, _, grads)] = taken
    grads = [g if g.size > ad.ADAM_BLOCK else np.asfortranarray(g) for g in grads]
    starts = np.cumsum([0] + [g.size for g in grads])
    strided = [(g, lo) for g, lo in zip(grads, starts) if not g.flags.c_contiguous]
    assert any(lo // ad.ADAM_BLOCK != (lo + g.size - 1) // ad.ADAM_BLOCK for g, lo in strided)
    step(state, params, grads)
    with traced_memory() as probe:
        step(state, params, grads)
        peak = probe.peak()
    # the block scratch, and the raveled copies of the two strided
    # gradients that can share a block while each crosses one of its edges
    block = 2 * ad.ADAM_BLOCK * state.flat.itemsize
    assert peak <= block + 2 * max(g.nbytes for g, _ in strided) + 16384 < state.flat.nbytes


@pytest.mark.parametrize("lr", [0.0, -1.0, float("nan"), float("inf")])
def test_init_refuses_a_learning_rate_that_is_not_finite_and_positive(lr):
    with pytest.raises(ParameterError, match="learning rate"):
        ad.AdamState.init([Tensor(np.zeros(2), requires_grad=True)], lr)


def test_controller_checksum_after_500_episodes_matches_the_reference(monkeypatch):
    def run():
        ctrl = Controller(default_space(2), np.random.default_rng(7), hidden_size=100)
        state = ad.AdamState.init(ctrl.parameters(), lr=0.0035)
        rng = np.random.default_rng(8)
        for index in range(500):
            episode = ctrl.sample(rng)
            episode.shaped_reward = float(np.sin(index))
            reinforce_step(ctrl, [episode], state)
        return ctrl.checksum()

    flat = run()
    _reference_path(monkeypatch)
    assert flat == run()


@pytest.mark.parametrize("dropout", [0.0, 0.5])
def test_train_child_matches_the_reference(monkeypatch, dropout):
    # Graphs without training nodes take the detached evaluation path.
    dataset = generate_multigraph(6, 15, 4.0, 5, 3, seed=8)
    arch = decode("first-order,gat,max-pooling,relu,2,4;first-order,cos,mlp,linear,1,4")
    hp = TrainHyperparams(lr=0.02, l2_lambda=0.0005, dropout=dropout, max_epochs=6, patience=6, seed=3)

    def train():
        model = build_model(arch, dataset.feature_dim, dataset.class_count, np.random.default_rng(6))
        return train_child(model, dataset, hp)

    flat = train()
    _reference_path(monkeypatch)
    reference = train()
    fields = ("best_val_metric", "test_metric", "epochs_ran", "best_epoch", "opt_steps")
    assert [getattr(flat, f) for f in fields] == [getattr(reference, f) for f in fields]
    assert flat.opt_steps > 0
    assert _bytes(p.data for p in flat.model.parameters()) == _bytes(p.data for p in reference.model.parameters())


def test_a_detached_model_keeps_its_values_across_a_later_step():
    dataset = generate_multigraph(4, 12, 3.0, 5, 2, seed=3)
    model = build_model(decode("first-order,gat,sum,elu,2,4;first-order,gcn,sum,linear,1,4"),
                        dataset.feature_dim, dataset.class_count, np.random.default_rng(1))
    params = model.parameters()
    state = ad.AdamState.init(params, lr=0.1)
    ad.adam_step(state, params, [np.ones(p.shape) for p in params])
    frozen = model.detached()
    values = _bytes(p.data for p in frozen.parameters())
    assert values == _bytes(p.data for p in params)
    ad.adam_step(state, params, [np.ones(p.shape) for p in params])
    assert _bytes(p.data for p in frozen.parameters()) == values
    assert _bytes(p.data for p in params) != values
