"""Single-use tapes: the backward frees what it has consumed, gradients unchanged."""

import gc
import weakref

import numpy as np
import pytest

import gnnsearch.controller as controller_module
from gnnsearch import autodiff as ad
from gnnsearch.arch import AGGREGATION, ATTENTION, decode, default_space
from gnnsearch.autodiff import Tensor
from gnnsearch.controller import Controller, reinforce_step
from gnnsearch.errors import ParameterError
from gnnsearch.gnn import build_model, forward
from gnnsearch.graphs import generate_sbm

from conftest import traced_memory


def _keep_everything_backward(root: Tensor) -> None:
    """The backward loop before tapes were single-use: every node keeps its
    inputs and rule, and every intermediate keeps its gradient."""
    root.grad = np.ones_like(root.data) if root.grad is None else root.grad + np.ones_like(root.data)
    for node in reversed(ad.Tape.trace(root).nodes):
        out_grad = node.grad
        if out_grad is None:
            continue
        for tensor, contribution in zip(node.inputs, node.grad_fn(out_grad)):
            if contribution is None or not tensor.requires_grad:
                continue
            if tensor.grad is None:
                tensor.grad = contribution
            else:
                tensor.grad = tensor.grad + contribution


@pytest.fixture(scope="module")
def small_sbm():
    return generate_sbm(block_count=3, nodes_per_block=12, p_in=0.3, p_out=0.05,
                        feature_dim=6, signal_strength=1.0, seed=3)


def _child_loss(model, dataset, seed):
    graph = dataset.graphs[0]
    logits = forward(model, graph, training=True, rng=np.random.default_rng(seed), dropout_p=0.5)
    objective = ad.loss(dataset.task_kind, logits, dataset.labels[0], dataset.masks[0].train,
                        l2_lambda=5e-4, l2_params=model.parameters())
    return logits, objective


def _grads_bytes(params):
    return [None if p.grad is None else p.grad.tobytes() for p in params]


@pytest.mark.parametrize("aggregation", AGGREGATION)
@pytest.mark.parametrize("attention", ATTENTION)
def test_child_gradients_are_bitwise_those_of_the_keep_everything_loop(small_sbm, attention, aggregation):
    layer = f"first-order,{attention},{aggregation},elu,2,4"
    model = build_model(decode(f"{layer};{layer}"), small_sbm.feature_dim, small_sbm.class_count,
                        np.random.default_rng(5))
    params = model.parameters()

    _, objective = _child_loss(model, small_sbm, seed=9)
    ad.zero_grads(params)
    _keep_everything_backward(objective)
    expected = _grads_bytes(params)
    del objective

    _, objective = _child_loss(model, small_sbm, seed=9)
    ad.zero_grads(params)
    objective.backward()
    assert all(g is not None for g in expected)
    assert _grads_bytes(params) == expected


def test_reinforce_gradients_are_bitwise_those_of_the_keep_everything_loop(monkeypatch):
    ctrl = Controller(default_space(2), np.random.default_rng(4), hidden_size=16)
    params = ctrl.parameters()
    rewards = (0.7, -0.3)

    episodes = [ctrl.sample(np.random.default_rng(seed)) for seed in (1, 2)]
    objective = None
    for episode, reward in zip(episodes, rewards):
        term = ad.mul(episode.log_prob_node, Tensor(-reward / len(episodes)))
        objective = term if objective is None else ad.add(objective, term)
    ad.zero_grads(params)
    _keep_everything_backward(objective)
    expected = [(np.zeros_like(p.data) if p.grad is None else p.grad).tobytes() for p in params]

    seen = []
    monkeypatch.setattr(controller_module.ad, "adam_step", lambda state, ps, grads: seen.append(grads))
    episodes = [ctrl.sample(np.random.default_rng(seed)) for seed in (1, 2)]
    for episode, reward in zip(episodes, rewards):
        episode.shaped_reward = reward
    reinforce_step(ctrl, episodes, ad.AdamState.init(params, lr=0.01))
    assert [g.tobytes() for g in seen[0]] == expected
    for episode in episodes:  # consumed intermediates keep no gradient
        assert episode.log_prob_node.grad is None
        assert episode.log_prob_node.inputs is None


def test_backward_frees_every_intermediate_while_the_root_lives(small_sbm):
    # Skip connections add nodes: a layer records about ten with the fused edge ops.
    arch = decode("first-order,gat,max-pooling,relu,2,4,0,add;first-order,cos,mlp,linear,2,4,1,add")
    model = build_model(arch, small_sbm.feature_dim, small_sbm.class_count, np.random.default_rng(1))
    params = model.parameters()
    logits, objective = _child_loss(model, small_sbm, seed=2)
    nodes = ad.Tape.trace(objective).nodes
    held = {id(objective), id(logits)}
    intermediates = [weakref.ref(node) for node in nodes if id(node) not in held]
    rules = [weakref.ref(node.grad_fn) for node in nodes]
    assert len(intermediates) > 50
    del nodes
    ad.zero_grads(params)
    gc.disable()  # reference counting alone must free them
    try:
        objective.backward()
        assert all(ref() is None for ref in intermediates)
        assert all(ref() is None for ref in rules)
    finally:
        gc.enable()
    assert objective.grad is not None
    assert logits.grad is None and logits.inputs is None  # held by the caller, consumed
    assert all(p.grad is not None for p in params)  # leaves keep theirs


@pytest.mark.parametrize("consumers", [1, 2], ids=["chain", "two-consumers"])
def test_a_rule_that_drops_its_gradient_frees_it(consumers):
    """The backward keeps no reference to a rule's incoming gradient while
    the rule runs, so a rule that rebinds ``g`` (mean-pooling's ``g *
    inv``, mlp's head product) frees the array it was given. With two
    consumers the gradient is their sum, made when the second adds in."""
    x = Tensor(np.ones(4), requires_grad=True)
    gone = []

    def rule(g):
        ref = weakref.ref(g)
        del g
        gone.append(ref() is None)
        return (np.full(4, 2.0),)

    mid = ad.record(x.data * 2.0, (x,), rule)
    tops = [ad.record(mid.data * 3.0, (mid,), lambda g: (g * 3.0,)) for _ in range(consumers)]
    root = ad.reduce_sum(tops[0] if consumers == 1 else ad.add(*tops))
    del tops
    gc.disable()  # reference counting alone must free it
    try:
        root.backward()
    finally:
        gc.enable()
    assert gone == [True]
    assert np.array_equal(x.grad, np.full(4, 2.0))


def test_second_backward_through_a_consumed_tape_raises(rng):
    x = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    shared = ad.tanh(ad.mul(x, x))
    y = ad.reduce_sum(shared)
    y.backward()
    first = x.grad.copy()
    with pytest.raises(ParameterError, match="consumed by an earlier backward"):
        y.backward()
    assert y.grad == 1.0  # a refused backward changes nothing
    # A new root over a consumed part of the tape raises too.
    z = ad.reduce_sum(ad.mul(shared, Tensor(2.0)))
    with pytest.raises(ParameterError, match="consumed by an earlier backward"):
        z.backward()
    assert np.array_equal(x.grad, first)


def test_reinforce_step_refuses_an_episode_already_used():
    ctrl = Controller(default_space(1), np.random.default_rng(0), hidden_size=8)
    state = ad.AdamState.init(ctrl.parameters(), lr=0.01)
    episode = ctrl.sample(np.random.default_rng(0))
    episode.shaped_reward = 1.0
    reinforce_step(ctrl, [episode], state)
    with pytest.raises(ParameterError, match="consumed by an earlier backward"):
        reinforce_step(ctrl, [episode], state)


def _operands(op, rng):
    if op is ad.matmul:
        return rng.standard_normal((3, 4)), rng.standard_normal((4, 2))
    if op is ad.head_matmul:
        return rng.standard_normal((5, 2, 3)), rng.standard_normal((2, 3, 4))
    # broadcast operands, as segment_mean's [N, 1, 1] inverse counts
    return rng.standard_normal((3, 2, 4)), rng.standard_normal((3, 1, 1)) + 2.0


@pytest.mark.parametrize("constant", [0, 1])
@pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul, ad.div, ad.matmul, ad.head_matmul],
                         ids=["add", "sub", "mul", "div", "matmul", "head_matmul"])
def test_no_gradient_for_a_constant_operand(op, constant, rng):
    values = _operands(op, rng)
    tensors = [Tensor(v, requires_grad=(i != constant)) for i, v in enumerate(values)]
    out = op(*tensors)
    grads = out.grad_fn(np.ones(out.data.shape))
    assert grads[constant] is None
    variable = 1 - constant
    assert grads[variable].shape == values[variable].shape


def test_backward_peak_stays_near_the_tape():
    """One training step of a wide two-layer child on a 400-node SBM: the
    backward's tracemalloc peak is at most 1.3x the memory the forward
    left held (a keep-everything backward reads about 2.0x)."""
    dataset = generate_sbm(block_count=4, nodes_per_block=100, p_in=0.06, p_out=0.02,
                           feature_dim=16, signal_strength=0.3, seed=1)
    arch = decode("first-order,cos,max-pooling,relu,16,256;first-order,gcn,sum,relu,1,8")
    model = build_model(arch, dataset.feature_dim, dataset.class_count, np.random.default_rng(0))
    plan = dataset.graphs[0].plan
    plan.into_dst, plan.into_src  # built before measuring: they outlive the step
    with traced_memory() as memory:
        _, objective = _child_loss(model, dataset, seed=1)
        held = memory.current()
        memory.reset_peak()
        objective.backward()
        peak = memory.peak()
    assert held > 20e6  # the tape is large enough for the ratio to mean something
    assert peak <= 1.3 * held, f"backward peak {peak / 1e6:.1f} MB, tape {held / 1e6:.1f} MB"
