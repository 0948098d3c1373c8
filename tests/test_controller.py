"""Sampler policy: recurrence, probabilities, REINFORCE, checkpoints."""

import json
import re

import numpy as np
import pytest

from gnnsearch import autodiff as ad
from gnnsearch.arch import ActionSpace, arch_from_tokens, default_space, enumerate_archs
from gnnsearch.controller import (
    Baseline,
    Controller,
    Episode,
    load_controller,
    reinforce_step,
    save_controller,
    shape_reward,
)
from gnnsearch.errors import ParameterError, ShapeError

from conftest import check_grads

SMALL = ActionSpace(
    sampling=("first-order",),
    attention=("const", "gcn", "gat"),
    aggregation=("sum", "mean-pooling"),
    activation=("relu", "tanh"),
    heads=(8,),
    hidden=(16, 32),
    layer_count=1,
    skip_enabled=False,
)


def small_controller(seed=0, hidden=8):
    return Controller(SMALL, np.random.default_rng(seed), hidden_size=hidden)


# ---------------------------------------------------------------------------
# construction


def test_parameter_inventory_and_bounds():
    ctrl = small_controller(hidden=16)
    names = set(ctrl.named_parameters())
    expected = {f"w_x{g}" for g in "ifgo"} | {f"w_h{g}" for g in "ifgo"} | {f"b_{g}" for g in "ifgo"}
    expected |= {"start"} | {f"slot{s}.{part}" for s in range(6) for part in ("proj_w", "proj_b", "emb")}
    assert names == expected
    for tensor in ctrl.parameters():
        assert np.all(np.abs(tensor.data) <= 0.1)
    assert ctrl.named_parameters()["slot1.proj_w"].shape == (16, 3)
    assert ctrl.named_parameters()["slot1.emb"].shape == (3, 16)


def test_checksum_tracks_seed():
    assert small_controller(0).checksum() == small_controller(0).checksum()
    assert small_controller(0).checksum() != small_controller(1).checksum()


def test_constructor_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ParameterError):
        Controller(SMALL, rng, hidden_size=0)
    with pytest.raises(ParameterError):
        Controller(SMALL, rng, temperature=0.0)
    with pytest.raises(ParameterError):
        Controller(SMALL, rng, logit_clip=-1.0)


# ---------------------------------------------------------------------------
# sampling and scoring


def test_sample_produces_valid_episode():
    ctrl = small_controller()
    rng = np.random.default_rng(3)
    for _ in range(20):
        ep = ctrl.sample(rng)
        for token, slot in zip(ep.tokens, ctrl.slots):
            assert 0 <= token < len(slot.options)
        assert ep.log_prob_sum <= 0.0
        assert ep.entropy_sum >= 0.0
        assert ep.arch == arch_from_tokens(SMALL, list(ep.tokens))
        assert float(ep.log_prob_node.data) == ep.log_prob_sum


def test_teacher_force_matches_sampled_log_prob():
    ctrl = small_controller(seed=4)
    rng = np.random.default_rng(9)
    for _ in range(50):
        ep = ctrl.sample(rng)
        node, entropy = ctrl.teacher_force(ep.tokens)
        assert abs(float(node.data) - ep.log_prob_sum) <= 1e-9
        assert abs(entropy - ep.entropy_sum) <= 1e-9


def test_batch_paths_agree_with_tape_path():
    ctrl = small_controller(seed=5, hidden=16)
    rng = np.random.default_rng(1)
    tokens = ctrl.sample_tokens_batch(40, rng)
    assert tokens.shape == (40, 6)
    joint = ctrl.log_prob_batch(tokens)
    for row, expected in list(zip(tokens, joint))[:8]:
        assert abs(ctrl.arch_log_prob(list(row)) - expected) <= 1e-9


def test_batch_sampling_is_deterministic():
    ctrl = small_controller(seed=6)
    a = ctrl.sample_tokens_batch(32, np.random.default_rng(7))
    b = ctrl.sample_tokens_batch(32, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_enumerated_joint_probabilities_sum_to_one():
    ctrl = small_controller(seed=8)
    archs = list(enumerate_archs(SMALL))
    assert len(archs) == 24
    rows = np.array(
        [
            [l.sampling, l.attention, l.aggregation, l.activation, l.heads, l.hidden]
            for arch in archs
            for l in arch.layers
        ]
    )
    joint = np.exp(ctrl.log_prob_batch(rows))
    assert joint.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(joint > 0.0)


def test_logit_clip_bounds_probability_ratios():
    ctrl = small_controller(seed=2)
    for tensor in ctrl.parameters():
        tensor.data = tensor.data * 1e4  # saturate everything
    seen = []
    ctrl._walk(lambda s, probs: seen.append(probs) or 0)
    assert len(seen) == 6
    for probs in seen:
        assert probs.max() / probs.min() <= np.exp(2 * ctrl.logit_clip) + 1e-9


def test_teacher_force_validation():
    ctrl = small_controller()
    with pytest.raises(ShapeError, match="6 slots"):
        ctrl.teacher_force([0, 0, 0])
    with pytest.raises(ParameterError, match="slot 1: token 7"):
        ctrl.teacher_force([0, 7, 0, 0, 0, 0])


def test_token_range_is_checked_at_both_ends():
    ctrl = small_controller()
    last = len(ctrl.slots[1].options) - 1
    # A fractional token was once truncated to a valid one and scored as it.
    for bad, why in ((-1, "out of range"), (last + 1, "out of range"), (1.7, "is not an integer")):
        tokens = [0, bad, 0, 0, 0, 0]
        message = re.escape(f"slot 1: token {bad} {why}")
        with pytest.raises(ParameterError, match=message):
            ctrl.teacher_force(tokens)
        with pytest.raises(ParameterError, match=message):
            ctrl.log_prob_batch(np.array([[0] * 6, tokens]))
    assert np.isfinite(ctrl.log_prob_batch(np.array([[0, last, 0, 0, 0, 0]]))).all()


@pytest.mark.parametrize("space", [SMALL, default_space(2), default_space(2, skip_enabled=True)])
def test_batch_and_single_sampling_are_one_rule(space):
    ctrl = Controller(space, np.random.default_rng(21), hidden_size=12)
    for seed in range(8):
        episode = ctrl.sample(np.random.default_rng(seed))
        row = ctrl.sample_tokens_batch(1, np.random.default_rng(seed))[0]
        assert tuple(row.tolist()) == episode.tokens
        batch = ctrl.log_prob_batch(row[None, :])[0]
        assert abs(batch - episode.log_prob_sum) <= 1e-12


def test_batch_scoring_records_no_tape():
    ctrl = small_controller()
    _, log_prob, _ = ctrl._walk(lambda s, probs: 0, count=3, params=ctrl._detached())
    assert log_prob.grad_fn is None and not log_prob.requires_grad
    assert all(p.grad is None for p in ctrl.parameters())


def test_episode_validation():
    arch = arch_from_tokens(SMALL, [0, 0, 0, 0, 0, 0])
    with pytest.raises(ParameterError, match="log_prob_sum"):
        Episode(arch=arch, tokens=(0,) * 6, log_prob_sum=0.5, entropy_sum=1.0)
    with pytest.raises(ParameterError, match="entropy_sum"):
        Episode(arch=arch, tokens=(0,) * 6, log_prob_sum=-1.0, entropy_sum=-0.5)


def test_log_prob_gradients_match_finite_differences():
    ctrl = small_controller(seed=11, hidden=4)
    tokens = [0, 2, 1, 0, 0, 1]
    params = ctrl.parameters()

    def build():
        node, _ = ctrl.teacher_force(tokens)
        return node

    check_grads(build, params, tol=1e-3)


# ---------------------------------------------------------------------------
# reward shaping


def test_baseline_seeds_on_first_call():
    baseline = Baseline(decay=0.95)
    shaped = shape_reward(0.8, baseline, 0.0, 0.0)
    assert shaped == 0.8
    assert baseline.value == 0.8
    assert baseline.initialized


def test_baseline_moving_average_hand_values():
    baseline = Baseline(decay=0.95)
    shape_reward(1.0, baseline, 0.0, 0.0)
    shaped = shape_reward(0.5, baseline, 0.0, 0.0)
    assert shaped == pytest.approx(-0.5)
    assert baseline.value == pytest.approx(0.95 * 1.0 + 0.05 * 0.5)


def test_entropy_term_augments_reward():
    baseline = Baseline()
    shaped = shape_reward(0.5, baseline, 2.0, 0.1)
    assert shaped == pytest.approx(0.7)
    assert baseline.value == pytest.approx(0.7)


def test_constant_rewards_shape_to_zero():
    baseline = Baseline(decay=0.9)
    shape_reward(0.6, baseline, 0.0, 0.0)
    for _ in range(10):
        assert abs(shape_reward(0.6, baseline, 0.0, 0.0)) < 1e-12


def test_baseline_decay_validation():
    with pytest.raises(ParameterError):
        Baseline(decay=1.0)
    with pytest.raises(ParameterError):
        Baseline(decay=-0.1)


# ---------------------------------------------------------------------------
# the policy-gradient step


def test_positive_reward_raises_arch_probability():
    ctrl = small_controller(seed=13)
    state = ad.AdamState.init(ctrl.parameters(), lr=0.01)
    ep = ctrl.sample(np.random.default_rng(0))
    before = ctrl.arch_log_prob(ep.tokens)
    ep.shaped_reward = 1.0
    reinforce_step(ctrl, [ep], state)
    assert ctrl.arch_log_prob(ep.tokens) > before


def test_negative_reward_lowers_arch_probability():
    ctrl = small_controller(seed=14)
    state = ad.AdamState.init(ctrl.parameters(), lr=0.01)
    ep = ctrl.sample(np.random.default_rng(0))
    before = ctrl.arch_log_prob(ep.tokens)
    ep.shaped_reward = -1.0
    reinforce_step(ctrl, [ep], state)
    assert ctrl.arch_log_prob(ep.tokens) < before


def test_zero_reward_leaves_parameters_untouched():
    ctrl = small_controller(seed=15)
    state = ad.AdamState.init(ctrl.parameters(), lr=0.01)
    snapshot = [p.data.copy() for p in ctrl.parameters()]
    ep = ctrl.sample(np.random.default_rng(0))
    ep.shaped_reward = 0.0
    reinforce_step(ctrl, [ep], state)
    for before, after in zip(snapshot, ctrl.parameters()):
        assert np.array_equal(before, after.data)


def test_reinforce_step_validation():
    ctrl = small_controller()
    state = ad.AdamState.init(ctrl.parameters(), lr=0.01)
    with pytest.raises(ParameterError, match="at least one"):
        reinforce_step(ctrl, [], state)
    ep = ctrl.sample(np.random.default_rng(0))  # shaped_reward never set
    with pytest.raises(ParameterError, match="shaped_reward"):
        reinforce_step(ctrl, [ep], state)


def test_batch_of_episodes_averages_gradients():
    # Two episodes with opposite rewards on the same tokens cancel exactly.
    ctrl = small_controller(seed=16)
    state = ad.AdamState.init(ctrl.parameters(), lr=0.01)
    snapshot = [p.data.copy() for p in ctrl.parameters()]
    rng = np.random.default_rng(1)
    ep_a = ctrl.sample(rng)
    ep_b = ctrl.sample(np.random.default_rng(1))
    assert ep_a.tokens == ep_b.tokens
    ep_a.shaped_reward = 1.0
    ep_b.shaped_reward = -1.0
    reinforce_step(ctrl, [ep_a, ep_b], state)
    for before, after in zip(snapshot, ctrl.parameters()):
        assert np.allclose(before, after.data, atol=1e-12)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip(tmp_path):
    ctrl = Controller(default_space(layer_count=1), np.random.default_rng(21), hidden_size=12)
    path = tmp_path / "controller.npz"
    save_controller(ctrl, path)
    loaded = load_controller(path)
    assert loaded.checksum() == ctrl.checksum()
    assert loaded.space == ctrl.space
    assert (loaded.hidden_size, loaded.temperature, loaded.logit_clip) == (12, 5.0, 2.5)
    a = ctrl.sample_tokens_batch(16, np.random.default_rng(3))
    b = loaded.sample_tokens_batch(16, np.random.default_rng(3))
    assert np.array_equal(a, b)


def test_checkpoint_version_mismatch(tmp_path):
    ctrl = small_controller()
    path = tmp_path / "controller.npz"
    save_controller(ctrl, path)
    with np.load(path) as bundle:
        arrays = {name: bundle[name] for name in bundle.files}
    meta = json.loads(bytes(arrays["__meta__"]).decode())
    meta["format_version"] = 99
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **arrays)
    with pytest.raises(ParameterError, match="not version 1"):
        load_controller(path)


def test_checkpoint_shape_mismatch(tmp_path):
    ctrl = small_controller()
    path = tmp_path / "controller.npz"
    save_controller(ctrl, path)
    with np.load(path) as bundle:
        arrays = {name: bundle[name] for name in bundle.files}
    arrays["slot0__emb"] = arrays["slot0__emb"][:, :2]
    np.savez(path, **arrays)
    with pytest.raises(ShapeError, match="slot0.emb"):
        load_controller(path)
