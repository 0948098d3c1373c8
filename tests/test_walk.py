"""The controller's walk as one tape node, against the per-op chain it replaced.

Since numerics version 2 the walk takes each input's product with all four
gates at once and sums the weight gradients with GEMMs, so it agrees with
the chain of per-gate products to rounding: log-
probs, entropies and gradients within 1e-12 norm-relative, and the same
tokens drawn from the same stream.
"""

import numpy as np
import pytest

from gnnsearch import autodiff as ad
from gnnsearch.arch import default_space
from gnnsearch.autodiff import Tensor
from gnnsearch.controller import Controller, Episode, _draw, reinforce_step

from conftest import finite_diff, rel_err

TOL = 1e-12

SPACES = {
    "1-layer": default_space(1),
    "2-layer": default_space(2),
    "2-layer-skip": default_space(2, skip_enabled=True),
}


def _chain_step(p, x, h, c):
    """One LSTM step recorded op by op on the stacked gate tensors: one
    product per input, then each gate's [1, H] block of the [4, H]
    pre-activations, in the stacked order (i, f, o, g)."""
    pre = ad.add(ad.add(ad.matmul(x, p["w_x"]), ad.matmul(h, p["w_h"])), p["b_"])
    blocks = ad.reshape(pre, (4, -1))
    gates = {}
    for k, gate in enumerate("ifog"):
        pre_gate = ad.gather_rows(blocks, [k])
        gates[gate] = ad.tanh(pre_gate) if gate == "g" else ad.sigmoid(pre_gate)
    c_next = ad.add(ad.mul(gates["f"], c), ad.mul(gates["i"], gates["g"]))
    h_next = ad.mul(gates["o"], ad.tanh(c_next))
    return h_next, c_next


def _chain_slot_logits(ctrl, p, h, s):
    raw = ad.add(ad.matmul(h, p[f"slot{s}.proj_w"]), p[f"slot{s}.proj_b"])
    scaled = ad.mul(raw, Tensor(1.0 / ctrl.temperature))
    return ad.mul(ad.tanh(scaled), Tensor(ctrl.logit_clip))


def _chain_walk(ctrl, pick):
    """The per-op walk of one row: about 38 tape nodes per slot.

    Returns (tokens, scalar log-prob node, entropy)."""
    p = ctrl.named_parameters()
    h = Tensor(np.zeros((1, ctrl.hidden_size)))
    c = Tensor(np.zeros((1, ctrl.hidden_size)))
    x = p["start"]
    log_prob = None
    entropy = 0.0
    tokens = []
    for s, slot in enumerate(ctrl.slots):
        h, c = _chain_step(p, x, h, c)
        adjusted = _chain_slot_logits(ctrl, p, h, s)
        weights = np.exp(adjusted.data)
        probs = weights / weights.sum(axis=1, keepdims=True)
        token = int(pick(s, probs)[0])
        tokens.append(token)
        entropy += float(-np.sum(probs * np.log(probs), axis=1)[0])
        onehot = np.zeros((1, len(slot.options)))
        onehot[0, token] = 1.0
        picked = ad.reduce_sum(ad.mul(adjusted, Tensor(onehot)), axis=1)
        log_norm = ad.log(ad.reduce_sum(ad.exp(adjusted), axis=1))
        term = ad.sub(picked, log_norm)
        log_prob = term if log_prob is None else ad.add(log_prob, term)
        x = ad.gather_rows(p[f"slot{s}.emb"], [token])
    return tuple(tokens), ad.reshape(log_prob, ()), entropy


def _gradients(ctrl, node, reward):
    ad.zero_grads(ctrl.parameters())
    ad.mul(node, Tensor(-reward)).backward()
    return {name: t.grad for name, t in ctrl.named_parameters().items()}


def _assert_gradients_agree(got, expected):
    assert got.keys() == expected.keys()
    for name, ref in expected.items():
        if ref is None:
            assert got[name] is None, name
        else:
            assert rel_err(got[name], ref) <= TOL, name


@pytest.mark.parametrize("mode", ["sample", "teacher_force"])
@pytest.mark.parametrize("space", list(SPACES.values()), ids=list(SPACES))
def test_walk_gradients_are_bitwise_those_of_the_per_op_chain(space, mode):
    ctrl = Controller(space, np.random.default_rng(7))
    for seed in range(3):
        if mode == "sample":
            episode = ctrl.sample(np.random.default_rng(seed))
            tokens, node, entropy = episode.tokens, episode.log_prob_node, episode.entropy_sum
        else:
            tokens = tuple(int(t) for t in ctrl.sample_tokens_batch(1, np.random.default_rng(seed))[0])
            node, entropy = ctrl.teacher_force(tokens)
        chain_tokens, chain_node, chain_entropy = _chain_walk(ctrl, lambda s, _p: np.array([tokens[s]]))
        assert chain_tokens == tokens
        assert rel_err(node.data, chain_node.data) <= TOL
        assert rel_err(entropy, chain_entropy) <= TOL
        got = _gradients(ctrl, node, 0.37)
        _assert_gradients_agree(got, _gradients(ctrl, chain_node, 0.37))
        last_emb = f"slot{len(ctrl.slots) - 1}.emb"
        assert [name for name, g in got.items() if g is None] == [last_emb]  # no step reads it


def test_many_episodes_draw_the_per_op_chains_tokens():
    # The chain controller trains on its own gradients, so the two drift
    # apart by rounding (Adam rescales near-cancelling entries); they must
    # still draw the same tokens. A mirror synced to the live parameters
    # before each step checks the walk's log-prob and gradients along the
    # whole trajectory.
    space = default_space(2)
    live = Controller(space, np.random.default_rng(3), hidden_size=32)
    chain = Controller(space, np.random.default_rng(3), hidden_size=32)
    mirror = Controller(space, np.random.default_rng(3), hidden_size=32)
    live_state = ad.AdamState.init(live.parameters(), lr=0.01)
    chain_state = ad.AdamState.init(chain.parameters(), lr=0.01)
    live_rng, chain_rng = np.random.default_rng(5), np.random.default_rng(5)
    for index in range(500):
        reward = float(np.sin(index))
        episode = live.sample(live_rng)
        tokens, node, entropy = _chain_walk(chain, lambda _s, probs: _draw(probs, chain_rng))
        assert tokens == episode.tokens, index
        for name, tensor in mirror.named_parameters().items():
            tensor.data = live.named_parameters()[name].data.copy()
        _, mirror_node, _ = _chain_walk(mirror, lambda s, _p: np.array([tokens[s]]))
        assert rel_err(episode.log_prob_sum, mirror_node.data) <= TOL, index
        expected = _gradients(mirror, mirror_node, reward)
        reference = Episode(arch=episode.arch, tokens=tokens, log_prob_sum=float(node.data),
                            entropy_sum=entropy, log_prob_node=node)
        episode.shaped_reward = reference.shaped_reward = reward
        reinforce_step(live, [episode], live_state)
        reinforce_step(chain, [reference], chain_state)
        _assert_gradients_agree({name: t.grad for name, t in live.named_parameters().items()}, expected)


@pytest.mark.parametrize("mode", ["sample", "teacher_force"])
def test_walk_gradients_match_central_differences(mode):
    ctrl = Controller(default_space(2), np.random.default_rng(11), hidden_size=8)
    rng = np.random.default_rng(12)
    for tensor in ctrl.parameters():  # past the init range, so the gates saturate unevenly
        tensor.data = rng.uniform(-1.0, 1.0, tensor.shape)
    if mode == "sample":
        episode = ctrl.sample(np.random.default_rng(4))
        tokens, node = episode.tokens, episode.log_prob_node
    else:
        tokens = tuple(int(t) for t in ctrl.sample_tokens_batch(1, np.random.default_rng(4))[0])
        node, _ = ctrl.teacher_force(tokens)
    ad.zero_grads(ctrl.parameters())
    node.backward()
    for name, tensor in ctrl.named_parameters().items():
        analytic = np.zeros(tensor.shape) if tensor.grad is None else tensor.grad
        numeric = finite_diff(lambda: ctrl.arch_log_prob(tokens), tensor, h=1e-5)
        assert rel_err(analytic, numeric) <= 1e-6, name


def test_a_live_walk_records_one_tape_node():
    ctrl = Controller(default_space(2), np.random.default_rng(0))
    episode = ctrl.sample(np.random.default_rng(1))
    assert len(ad.Tape.trace(episode.log_prob_node)) == 1
    node, _ = ctrl.teacher_force(episode.tokens)
    assert len(ad.Tape.trace(node)) == 1
    assert set(map(id, node.inputs)) == set(map(id, ctrl.parameters()))


def test_batched_walks_record_nothing():
    ctrl = Controller(default_space(2), np.random.default_rng(0), hidden_size=16)
    rng = np.random.default_rng(2)
    tokens, log_prob, _ = ctrl._walk(lambda _s, probs: _draw(probs, rng), count=4)
    assert isinstance(log_prob, Tensor) and log_prob.shape == (4,)
    assert log_prob.grad_fn is None and log_prob.inputs is None and not log_prob.requires_grad
    assert np.array_equal(ctrl.log_prob_batch(tokens), log_prob.data)


def test_stacked_reduce_is_the_running_sum_bitwise():
    # Numerics version 1 of the walk's backward formed a weight's per-step
    # outer products with einsum and summed them with one np.add.reduce
    # over the stacked [T, H, H] array, where the per-op tape added matmul
    # products one at a time.
    rng = np.random.default_rng(0)
    left = rng.standard_normal((12, 100)) * np.exp(rng.uniform(-20, 20, (12, 1)))
    right = rng.standard_normal((12, 100))
    left[3, :10] = 0.0
    right[5, 10:20] = -0.0
    terms = [left[t][:, None] @ right[t][None, :] for t in range(12)]
    running = terms[0]
    for term in terms[1:]:
        running = running + term
    stacked = np.add.reduce(np.einsum("ti,tj->tij", left, right), axis=0)
    assert stacked.tobytes() == running.tobytes()
