"""The controller's walk as one tape node, against the per-op chain it replaced."""

import numpy as np
import pytest

from gnnsearch import autodiff as ad
from gnnsearch.arch import default_space
from gnnsearch.autodiff import Tensor
from gnnsearch.controller import Controller, Episode, _draw, reinforce_step

SPACES = {
    "1-layer": default_space(1),
    "2-layer": default_space(2),
    "2-layer-skip": default_space(2, skip_enabled=True),
}


def _chain_step(p, x, h, c):
    """One LSTM step as it was recorded before the walk became one node."""
    gates = {}
    for gate in ("i", "f", "g", "o"):
        pre = ad.add(ad.add(ad.matmul(x, p[f"w_x{gate}"]), ad.matmul(h, p[f"w_h{gate}"])), p[f"b_{gate}"])
        gates[gate] = ad.tanh(pre) if gate == "g" else ad.sigmoid(pre)
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
    return {name: None if t.grad is None else t.grad.tobytes() for name, t in ctrl.named_parameters().items()}


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
        assert node.data.tobytes() == chain_node.data.tobytes()
        assert entropy == chain_entropy
        got = _gradients(ctrl, node, 0.37)
        expected = _gradients(ctrl, chain_node, 0.37)
        assert got == expected
        last_emb = f"slot{len(ctrl.slots) - 1}.emb"
        assert [name for name, g in got.items() if g is None] == [last_emb]  # no step reads it


def test_checksum_after_many_episodes_equals_the_per_op_chain():
    space = default_space(2)
    live = Controller(space, np.random.default_rng(3), hidden_size=32)
    chain = Controller(space, np.random.default_rng(3), hidden_size=32)
    live_state = ad.AdamState.init(live.parameters(), lr=0.01)
    chain_state = ad.AdamState.init(chain.parameters(), lr=0.01)
    live_rng, chain_rng = np.random.default_rng(5), np.random.default_rng(5)
    for index in range(500):
        reward = float(np.sin(index))
        episode = live.sample(live_rng)
        tokens, node, entropy = _chain_walk(chain, lambda _s, probs: _draw(probs, chain_rng))
        assert tokens == episode.tokens
        reference = Episode(arch=episode.arch, tokens=tokens, log_prob_sum=float(node.data),
                            entropy_sum=entropy, log_prob_node=node)
        episode.shaped_reward = reference.shaped_reward = reward
        reinforce_step(live, [episode], live_state)
        reinforce_step(chain, [reference], chain_state)
    assert live.checksum() == chain.checksum()


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
    # The walk's backward forms a weight's per-step outer products with
    # einsum and sums them with one np.add.reduce over the stacked
    # [T, H, H] array, where the per-op tape added matmul products one at
    # a time.
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
