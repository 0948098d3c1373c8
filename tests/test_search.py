"""Search loops, the shared store, reward plumbing, and derivation."""

import copy
import dataclasses
import itertools
import warnings

import numpy as np
import pytest

import goldens

import importlib

search_module = importlib.import_module("gnnsearch.search")

from gnnsearch import autodiff as ad
from gnnsearch import cli
from gnnsearch.arch import AGGREGATION, ATTENTION, ActionSpace, decode, default_space, encode, enumerate_archs
from gnnsearch.controller import Controller
from gnnsearch.errors import ConfigError, ParameterError, ShapeError, TrainingError
from gnnsearch.gnn import TrainHyperparams, build_model, init_layer_params
from gnnsearch.graphs import generate_multigraph, generate_sbm, make_graph
from gnnsearch.search import (
    EpisodeRecord,
    SearchConfig,
    SharedParamStore,
    ShareKey,
    derive,
    fetch_copy,
    load_store,
    merge_if_positive,
    run_episode,
    save_store,
    search,
    top_k_report,
    _minibatch_metric,
)

TINY = ActionSpace(
    sampling=("first-order",),
    attention=("const", "gcn"),
    aggregation=("sum",),
    activation=("relu", "linear"),
    heads=(1,),
    hidden=(4, 8),
    layer_count=1,
    skip_enabled=False,
)

FAST_HP = TrainHyperparams(lr=0.01, l2_lambda=0.0005, dropout=0.0, max_epochs=2, patience=2, seed=0)


def tiny_config(**kw):
    base = dict(
        strategy="graphnas", episodes=3, layer_count=1, param_sharing=False,
        child_epochs=2, exploration_epochs=0, derive_samples=4,
        derive_train_epochs=1, top_k=2, seed=3, controller_hidden=16, hp=FAST_HP,
    )
    base.update(kw)
    return SearchConfig(**base)


def log_columns(log):
    """Each record's line without its wall-time column."""
    return [record.to_line().rsplit("\t", 1)[0] for record in log]


def full_table(space, seed=0):
    rng = np.random.default_rng(seed)
    return {encode(a, sep=";"): float(rng.uniform(0.1, 0.9)) for a in enumerate_archs(space)}


# ---------------------------------------------------------------------------
# shared store


def test_fetch_miss_draws_fresh_params(rng):
    store = SharedParamStore()
    key = ShareKey(0, "gat", "sum", 5, 2, 4)
    params = fetch_copy(store, key, rng)
    assert store.misses == 1 and store.hits == 0
    assert list(params.tensors) == ["w_t", "a_l", "a_r"]
    assert params.tensors["w_t"].shape == (5, 8)
    assert len(store) == 0  # lookups never write


def test_fetch_hit_returns_isolated_copy(rng):
    store = SharedParamStore()
    key = ShareKey(0, "gat", "sum", 5, 2, 4)
    params = init_layer_params(rng, "gat", "sum", 5, 2, 4)
    assert merge_if_positive(store, key, params, 0.5)
    copy = fetch_copy(store, key, rng)
    assert store.hits == 1
    assert np.array_equal(copy.tensors["w_t"].data, params.tensors["w_t"].data)
    copy.tensors["w_t"].data += 100.0
    again = fetch_copy(store, key, rng)
    assert np.array_equal(again.tensors["w_t"].data, params.tensors["w_t"].data)


def test_merge_requires_strictly_positive_reward(rng):
    store = SharedParamStore()
    key = ShareKey(1, "const", "sum", 3, 1, 4)
    params = init_layer_params(rng, "const", "sum", 3, 1, 4)
    assert not merge_if_positive(store, key, params, -0.1)
    assert not merge_if_positive(store, key, params, 0.0)
    assert len(store) == 0
    assert merge_if_positive(store, key, params, 1e-9)
    assert len(store) == 1


def test_merge_snapshot_is_detached(rng):
    store = SharedParamStore()
    key = ShareKey(0, "const", "sum", 3, 1, 4)
    params = init_layer_params(rng, "const", "sum", 3, 1, 4)
    merge_if_positive(store, key, params, 1.0)
    frozen = store.entries[key]["w_t"].copy()
    params.tensors["w_t"].data += 5.0
    assert np.array_equal(store.entries[key]["w_t"], frozen)


def test_merge_never_stores_residual_projections(rng):
    store = SharedParamStore()
    key = ShareKey(0, "const", "sum", 3, 1, 4)
    params = init_layer_params(rng, "const", "sum", 3, 1, 4)
    params.tensors["w_res"] = ad.glorot(rng, 3, 4)
    merge_if_positive(store, key, params, 1.0)
    assert "w_res" not in store.entries[key]


def test_merge_rejects_mismatched_keys(rng):
    store = SharedParamStore()
    params = init_layer_params(rng, "gat", "sum", 5, 2, 4)
    with pytest.raises(ParameterError):
        merge_if_positive(store, ShareKey(0, "cos", "sum", 5, 2, 4), params, 1.0)
    with pytest.raises(ShapeError):
        merge_if_positive(store, ShareKey(0, "gat", "sum", 5, 2, 8), params, 1.0)


def test_keys_differing_in_any_field_are_distinct_entries(rng):
    store = SharedParamStore()
    base = ShareKey(0, "gat", "sum", 5, 2, 4)
    variants = [
        ShareKey(1, "gat", "sum", 5, 2, 4),
        ShareKey(0, "cos", "sum", 5, 2, 4),
        ShareKey(0, "gat", "mlp", 5, 2, 4),
        ShareKey(0, "gat", "sum", 6, 2, 4),
        ShareKey(0, "gat", "sum", 5, 1, 4),
        ShareKey(0, "gat", "sum", 5, 2, 8),
    ]
    merge_if_positive(store, base, init_layer_params(rng, "gat", "sum", 5, 2, 4), 1.0)
    for other in variants:
        assert other not in store.entries
        fetch_copy(store, other, rng)
    assert store.misses == len(variants)


PARAMETER_ORDER = ("w_t", "a_l", "a_r", "w_l", "w_r", "w_a", "mlp_w1", "mlp_w2", "w_res")


@pytest.mark.parametrize("attention,aggregation", list(itertools.product(ATTENTION, AGGREGATION)))
@pytest.mark.parametrize("skip", [False, True])
def test_parameters_keep_the_name_order_on_draws_and_store_hits(tmp_path, attention, aggregation, skip):
    # With skip, each layer adds a 4-wide residual to a source of another
    # width, so both layers own a w_res.
    space = default_space(layer_count=2, skip_enabled=skip)
    tail = (",0,add", ",1,add") if skip else ("", "")
    arch = decode(
        f"first-order,{attention},{aggregation},relu,2,4{tail[0]}\n"
        f"first-order,{attention},{aggregation},relu,2,4{tail[1]}",
        space,
    )
    store = SharedParamStore()
    fresh = build_model(arch, 5, 3, np.random.default_rng(0), store=store)
    for step, params in zip(fresh.plan, fresh.layers):
        merge_if_positive(store, step.key, params, 1.0)
    save_store(store, tmp_path / "store.npz")
    hit = build_model(arch, 5, 3, np.random.default_rng(1), store=store)
    loaded = build_model(arch, 5, 3, np.random.default_rng(1), store=load_store(tmp_path / "store.npz"))
    for model in (fresh, hit, loaded):
        assert all(("w_res" in layer.tensors) == skip for layer in model.layers)
        expected = [layer.tensors[name] for layer in model.layers for name in PARAMETER_ORDER if name in layer.tensors]
        assert [id(t) for t in model.parameters()] == [id(t) for t in expected]
    for mine, theirs in zip(hit.parameters(), loaded.parameters()):
        assert mine.data.tobytes() == theirs.data.tobytes()


def test_merge_checks_the_entry_against_the_kind_table(rng):
    store = SharedParamStore()
    key = ShareKey(0, "gene-linear", "mlp", 5, 2, 4)
    params = init_layer_params(rng, "gene-linear", "mlp", 5, 2, 4)
    del params.tensors["w_a"]
    with pytest.raises(ParameterError, match="w_a"):
        merge_if_positive(store, key, params, 1.0)
    params = init_layer_params(rng, "gene-linear", "mlp", 5, 2, 4)
    params.tensors["w_a"] = ad.glorot(rng, 4, 4, shape=(2, 4, 4))
    with pytest.raises(ShapeError, match="w_a"):
        merge_if_positive(store, key, params, 1.0)
    assert len(store) == 0


def test_store_round_trip(tmp_path, rng):
    store = SharedParamStore()
    key_a = ShareKey(0, "gat", "mlp", 5, 2, 4)
    key_b = ShareKey(1, "const", "sum", 8, 1, 3)
    merge_if_positive(store, key_a, init_layer_params(rng, "gat", "mlp", 5, 2, 4), 1.0)
    merge_if_positive(store, key_b, init_layer_params(rng, "const", "sum", 8, 1, 3), 1.0)
    path = tmp_path / "store.npz"
    save_store(store, path)
    loaded = load_store(path)
    assert set(loaded.entries) == {key_a, key_b}
    for key in (key_a, key_b):
        assert set(loaded.entries[key]) == set(store.entries[key])
        for name in store.entries[key]:
            assert np.array_equal(loaded.entries[key][name], store.entries[key][name])


# ---------------------------------------------------------------------------
# configuration


def test_config_validation_messages():
    with pytest.raises(ConfigError, match="strategy"):
        tiny_config(strategy="simulated-annealing")
    with pytest.raises(ConfigError, match="child_epochs"):
        tiny_config(child_epochs=0)
    with pytest.raises(ConfigError, match="episodes"):
        tiny_config(episodes=-1)
    with pytest.raises(ConfigError, match="seed"):
        tiny_config(seed=-1)
    with pytest.raises(ConfigError, match="exploration_epochs"):
        tiny_config(exploration_epochs=-1)
    with pytest.raises(ConfigError, match="baseline_decay"):
        tiny_config(baseline_decay=1.0)
    with pytest.raises(ConfigError, match="entropy_weight"):
        tiny_config(entropy_weight=-0.1)
    # a strategy ignores the keys it does not use, so none of these is refused
    tiny_config(exploration_epochs=5)
    tiny_config(strategy="random", param_sharing=True, exploration_epochs=5)
    tiny_config(param_sharing=True, exploration_epochs=5)


@pytest.mark.parametrize("key", ["controller_lr", "temperature", "logit_clip"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0], ids=["nan", "inf", "zero"])
def test_config_refuses_controller_numbers_that_are_not_finite_and_positive(key, value):
    with pytest.raises(ConfigError, match=f"^{key}: must be finite and positive"):
        tiny_config(**{key: value})


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_config_refuses_an_entropy_weight_that_is_not_finite(value):
    with pytest.raises(ConfigError, match="^entropy_weight: must be finite"):
        tiny_config(entropy_weight=value)


def test_config_reward_source_routing():
    assert tiny_config(strategy="random").uses_controller() is False
    assert tiny_config().uses_controller() is True
    assert tiny_config().uses_store() is False
    assert tiny_config(param_sharing=True).uses_store() is True
    assert tiny_config(strategy="random", param_sharing=True).uses_store() is False


@pytest.mark.parametrize(
    "strategy, equivalent",
    [
        ("nas-like", "strategy 'graphnas' with param_sharing false and child_epochs equal to max_epochs"),
        ("enas-like", "none"),
    ],
    ids=["nas-like", "enas-like"],
)
def test_config_refuses_a_removed_strategy_naming_its_equivalent(strategy, equivalent):
    with pytest.raises(ConfigError) as caught:
        tiny_config(strategy=strategy)
    assert str(caught.value) == f"strategy: {strategy!r} was removed; equivalent config: {equivalent}"


# ---------------------------------------------------------------------------
# records and reports


def test_episode_record_round_trip():
    record = EpisodeRecord(7, "first-order,gcn,sum,relu,1,8", 0.8123456789, -0.25, 0.5, 12.345)
    parsed = EpisodeRecord.from_line(record.to_line())
    assert parsed == record
    assert record.to_line().count("\t") == 5


def test_episode_record_rejects_bad_lines():
    with pytest.raises(ParameterError, match="expected 6"):
        EpisodeRecord.from_line("1\tarch\t0.5")
    with pytest.raises(ParameterError, match=r"column 1 \(episode\) is not a number: '1.0'"):
        EpisodeRecord.from_line("1.0\tarch\t0.5\t0\t0\t0")
    with pytest.raises(ParameterError, match=r"column 3 \(raw_reward\) is not finite: 'nan'"):
        EpisodeRecord.from_line("0\tarch\tnan\t0\t0\t0")
    with pytest.raises(ParameterError, match=r"column 6 \(wall_ms\) is not finite: '-inf'"):
        EpisodeRecord.from_line("0\tarch\t0.5\t0\t0\t-inf")
    with pytest.raises(ParameterError, match=r"column 2 \(arch\) holds no layer text"):
        EpisodeRecord.from_line("0\t\t0.5\t0.5\t0.5\t1.0")


def test_top_k_ties_keep_episode_order():
    records = [
        EpisodeRecord(0, "a", 0.5, 0.0, 0.0, 1.0),
        EpisodeRecord(1, "b", 0.9, 0.0, 0.0, 1.0),
        EpisodeRecord(2, "c", 0.9, 0.0, 0.0, 1.0),
        EpisodeRecord(3, "d", 0.1, 0.0, 0.0, 1.0),
    ]
    assert top_k_report(records, 3) == [("b", 0.9), ("c", 0.9), ("a", 0.5)]
    with pytest.raises(ParameterError):
        top_k_report(records, 0)


# ---------------------------------------------------------------------------
# surrogate-table searches


def test_surrogate_search_is_deterministic_up_to_wall_time():
    table = full_table(TINY)
    runs = []
    for _ in range(2):
        log = search(tiny_config(episodes=25), space=TINY, reward_table=table)
        runs.append(["\t".join(r.to_line().split("\t")[:-1]) for r in log])
    assert runs[0] == runs[1]
    assert len(runs[0]) == 25


def test_surrogate_baseline_recurrence_matches_hand_computation():
    table = full_table(TINY, seed=5)
    config = tiny_config(strategy="random", episodes=12, baseline_decay=0.9)
    log = search(config, space=TINY, reward_table=table)
    value = None
    for record in log:
        if value is None:
            assert record.shaped_reward == pytest.approx(record.raw_reward, abs=1e-12)
            value = record.raw_reward
        else:
            assert record.shaped_reward == pytest.approx(record.raw_reward - value, abs=1e-12)
            value = 0.9 * value + 0.1 * record.raw_reward
        assert record.baseline_value == pytest.approx(value, abs=1e-12)
        assert record.arch in table
        assert record.raw_reward == pytest.approx(table[record.arch])


def test_surrogate_requires_complete_table():
    with pytest.raises(ConfigError, match="no entry"):
        search(tiny_config(episodes=1), space=TINY, reward_table={})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_surrogate_rejects_a_reward_that_is_not_finite(bad):
    table = {key: (bad if "gcn" in key else value) for key, value in full_table(TINY).items()}
    with pytest.raises(ConfigError, match=r"reward_table: the reward of architecture '[^']*gcn[^']*' is not finite"):
        search(tiny_config(episodes=40), space=TINY, reward_table=table)


def test_search_needs_exactly_one_reward_source(easy_sbm):
    with pytest.raises(ConfigError, match="exactly one"):
        search(tiny_config())
    with pytest.raises(ConfigError, match="exactly one"):
        search(tiny_config(), dataset=easy_sbm, reward_table=full_table(TINY))


def test_surrogate_ignores_exploration():
    # Exploration warms a store of trained weights; a surrogate trains none.
    config = tiny_config(param_sharing=True, episodes=6)
    plain = search(config, space=TINY, reward_table=full_table(TINY))
    explored = search(dataclasses.replace(config, exploration_epochs=2), space=TINY, reward_table=full_table(TINY))
    assert log_columns(explored) == log_columns(plain)
    assert explored.controller.checksum() == plain.controller.checksum()
    assert len(explored.store) == len(plain.store) == 0


def test_space_must_agree_with_config():
    with pytest.raises(ConfigError, match="space"):
        search(tiny_config(layer_count=2), space=TINY, reward_table=full_table(TINY))


def test_record_sink_sees_every_record():
    seen = []
    log = search(tiny_config(episodes=9), space=TINY, reward_table=full_table(TINY), record_sink=seen.append)
    assert seen == log.records


def test_zero_episode_search_still_builds_components():
    log = search(tiny_config(episodes=0), space=TINY, reward_table=full_table(TINY))
    assert log.records == []
    assert log.controller is not None
    assert not log.baseline.initialized


def test_batched_updates_accept_leftover_episodes():
    log = search(tiny_config(episodes=5, batch_size=2), space=TINY, reward_table=full_table(TINY))
    assert len(log) == 5


def test_controller_gradients_are_dropped_after_each_update(monkeypatch):
    # Every sample after the first update, and the finished search, sees
    # no controller parameter holding a gradient.
    live_grads, checksums = [], []
    sample = Controller.sample

    def checked_sample(self, rng):
        live_grads.append([name for name, t in self.named_parameters().items() if t.grad is not None])
        checksums.append(self.checksum())
        return sample(self, rng)

    monkeypatch.setattr(Controller, "sample", checked_sample)
    log = search(tiny_config(episodes=6, batch_size=1), space=TINY, reward_table=full_table(TINY))
    assert len(set(checksums)) == 6  # an update ran before every sample but the first
    assert live_grads == [[]] * 6
    assert all(t.grad is None for t in log.controller.parameters())


# ---------------------------------------------------------------------------
# dataset-backed strategies


def test_graphnas_with_sharing_fills_the_store(easy_sbm):
    config = tiny_config(episodes=4, param_sharing=True, exploration_epochs=2, seed=1)
    log = search(config, dataset=easy_sbm, space=TINY)
    assert len(log) == 4
    assert log.store is not None
    assert log.child_opt_steps > 0
    assert log.baseline.initialized
    assert all(0.0 <= r.raw_reward <= 1.0 for r in log)
    assert all(key.layer_index == 0 for key in log.store.entries)
    assert len(top_k_report(log, 2)) == 2


def test_scratch_graphnas_keeps_no_store(easy_sbm):
    log = search(tiny_config(episodes=2), dataset=easy_sbm, space=TINY)
    assert log.store is None
    assert log.controller is not None
    assert log.child_opt_steps > 0


def test_random_strategy_runs_without_controller(easy_sbm):
    log = search(tiny_config(strategy="random", episodes=3), dataset=easy_sbm, space=TINY)
    assert log.controller is None
    assert len({r.arch for r in log}) >= 1
    assert log.child_opt_steps > 0


@pytest.mark.parametrize(
    "strategy, sharing, epochs, dropout",
    [("graphnas", True, 1, 0.0), ("graphnas", False, 1, 0.5), ("random", False, 3, 0.5)],
    ids=["graphnas-shared", "graphnas-scratch", "random"],
)
def test_each_child_trains_under_its_strategys_budget(easy_sbm, monkeypatch, strategy, sharing, epochs, dropout):
    # Shared children train child_epochs without regularization; scratch
    # ones keep the config's hyperparameters, graphnas at child_epochs and
    # random at the full max_epochs.
    hp = dataclasses.replace(FAST_HP, dropout=0.5, max_epochs=3, patience=3)
    config = tiny_config(strategy=strategy, param_sharing=sharing, child_epochs=1, episodes=2, hp=hp)
    seen = []
    train_child = search_module.train_child

    def recorded(model, dataset, hp):
        seen.append(hp)
        return train_child(model, dataset, hp)

    monkeypatch.setattr(search_module, "train_child", recorded)
    log = search(config, dataset=easy_sbm, space=TINY)
    assert (log.store is not None) == sharing
    assert [(hp.max_epochs, hp.dropout) for hp in seen] == [(epochs, dropout)] * 2


def test_dataset_search_is_deterministic(easy_sbm):
    def run():
        log = search(tiny_config(episodes=3, child_epochs=1), dataset=easy_sbm, space=TINY)
        return ["\t".join(r.to_line().split("\t")[:-1]) for r in log]

    assert run() == run()


def test_divergent_children_score_zero(easy_sbm, monkeypatch):
    # A child that diverges or runs out of memory scores 0 in search and
    # -inf among derive's candidates; with none trained, derive retrains none.
    config = tiny_config(episodes=3, derive_samples=4)
    for error in (TrainingError("non-finite training loss at epoch 0", 0), MemoryError()):
        calls = []

        def explode(model, dataset, hp):
            calls.append(hp)
            raise error

        monkeypatch.setattr(search_module, "train_child", explode)
        log = search(config, dataset=easy_sbm, space=TINY)
        assert [r.raw_reward for r in log] == [0.0, 0.0, 0.0]
        calls.clear()
        with pytest.raises(TrainingError, match="^no candidate trained: all 4 derive candidates"):
            derive(log.controller, None, easy_sbm, config)
        assert len(calls) == config.derive_samples


# ---------------------------------------------------------------------------
# exploration


def test_exploration_updates_store_and_baseline_only(easy_sbm, monkeypatch):
    config = tiny_config(param_sharing=True, exploration_epochs=4, child_epochs=1, episodes=0, seed=9)
    unexplored = search(dataclasses.replace(config, exploration_epochs=0), dataset=easy_sbm, space=TINY)
    accepted = []
    merge = search_module.merge_if_positive

    def counted(*args):
        accepted.append(merge(*args))
        return accepted[-1]

    monkeypatch.setattr(search_module, "merge_if_positive", counted)
    log = search(config, dataset=easy_sbm, space=TINY)
    assert log.baseline.initialized and log.records == []
    assert log.controller.checksum() == unexplored.controller.checksum()
    assert 0 <= sum(accepted) <= len(accepted) <= config.exploration_epochs
    # One layer per arch here: a merged round writes at most one key.
    assert len(log.store) <= sum(accepted)


def test_exploration_children_count_in_the_optimizer_steps(easy_sbm, monkeypatch):
    # A run that only explores still trains children: their steps count.
    config = tiny_config(param_sharing=True, exploration_epochs=3, child_epochs=1, episodes=0, seed=7)
    steps = []
    train_child = search_module.train_child

    def counted(model, dataset, hp):
        result = train_child(model, dataset, hp)
        steps.append(result.opt_steps)
        return result

    monkeypatch.setattr(search_module, "train_child", counted)
    log = search(config, dataset=easy_sbm, space=TINY)
    assert len(steps) == 3 and log.child_opt_steps == sum(steps) > 0


# Keys only graphnas reads, each set away from its default.
GRAPHNAS_KEYS = dict(
    param_sharing=True, child_epochs=1, exploration_epochs=3, controller_hidden=4,
    controller_lr=0.1, temperature=1.0, logit_clip=1.0, entropy_weight=0.5, batch_size=2,
)


@pytest.mark.parametrize(
    "strategy, keys",
    [("graphnas", {"exploration_epochs": 3}), ("random", GRAPHNAS_KEYS)],
    ids=["graphnas-exploration-without-sharing", "random-graphnas-keys"],
)
def test_a_strategy_ignores_the_keys_it_does_not_use(easy_sbm, strategy, keys):
    config = tiny_config(strategy=strategy)
    plain = search(config, dataset=easy_sbm, space=TINY)
    keyed = search(dataclasses.replace(config, **keys), dataset=easy_sbm, space=TINY)
    assert log_columns(keyed) == log_columns(plain)
    assert keyed.child_opt_steps == plain.child_opt_steps > 0
    assert keyed.store is None and plain.store is None


def test_exploration_never_disturbs_controller_initialization(easy_sbm):
    # A run that only explores must leave the controller exactly as built.
    config = tiny_config(param_sharing=True, exploration_epochs=3, child_epochs=1, episodes=0, seed=7)
    log = search(config, dataset=easy_sbm, space=TINY)
    fresh = Controller(
        TINY,
        rng=np.random.default_rng(config.seed),
        hidden_size=config.controller_hidden,
        temperature=config.temperature,
        logit_clip=config.logit_clip,
    )
    assert log.controller.checksum() == fresh.checksum()
    assert log.baseline.initialized


# ---------------------------------------------------------------------------
# carried state


def _resume_case(name):
    """(config, search keyword arguments) of cycle 0 of a benchmark workload at seed 1."""
    bench = goldens.workloads()
    if name == "surrogate":
        space, landscape = bench.surrogate_inputs(1)
        return bench.surrogate_config(1, 0), dict(space=space, reward_table=landscape)
    cfg = cli.load_config(None, bench.dataset_config(name, 1, 0))
    return cli.build_search_config(cfg), dict(dataset=cli.make_dataset(cfg), space=cli.build_space(cfg))


def _carried(log):
    """Log columns 1-5, the controller checksum and the store-array digests."""
    entries = {} if log.store is None else log.store.entries
    store = sorted((repr(key), list(entry), goldens.digest(entry.values())) for key, entry in entries.items())
    return log_columns(log), log.controller.checksum(), store


@pytest.mark.parametrize("name", ["surrogate", "sbm-share", "multigraph-share"])
def test_a_copied_log_continues_as_the_uninterrupted_search(name):
    # 8 episodes through search(), against 3, a deep copy, then 5 by run_episode.
    config, source = _resume_case(name)
    whole = search(dataclasses.replace(config, episodes=8), **source)
    head = search(dataclasses.replace(config, episodes=3), **source)
    resumed = copy.deepcopy(head)
    for _ in range(5):
        run_episode(resumed)
    assert _carried(resumed) == _carried(whole)
    assert resumed.child_opt_steps == whole.child_opt_steps
    assert len(head) == 3 and len(resumed) == 8
    assert name == "surrogate" or len(whole.store) > 0  # the store digests compare something


def test_a_copy_taken_mid_batch_continues_after_the_original_steps():
    # With batch_size 2 a copy after 3 episodes holds one pending episode;
    # the original then runs its 5 episodes, and steps, before the copy does.
    config, source = _resume_case("surrogate")
    config = dataclasses.replace(config, batch_size=2)
    whole = search(dataclasses.replace(config, episodes=8), **source)
    head = search(dataclasses.replace(config, episodes=3), **source)
    resumed = copy.deepcopy(head)
    assert len(head.batch) == 1
    for log in (head, resumed):
        for _ in range(5):
            run_episode(log)
    assert _carried(head) == _carried(whole)
    assert _carried(resumed) == _carried(whole)


# ---------------------------------------------------------------------------
# derivation


def test_derive_prefers_earliest_on_ties(easy_sbm, monkeypatch):
    config = tiny_config(derive_samples=4, seed=5)
    controller = Controller(TINY, np.random.default_rng(2), hidden_size=8)
    expected = controller.sample(np.random.default_rng(config.seed + 1)).arch
    monkeypatch.setattr(search_module, "_minibatch_metric", lambda model, dataset, rng, size=64, logits=None: 0.5)
    result = derive(controller, None, easy_sbm, config)
    assert result.arch == expected
    assert result.candidate_scores == [0.5] * 4


def test_derive_retrains_winner_from_scratch(easy_sbm):
    config = tiny_config(derive_samples=3, derive_train_epochs=1)
    controller = Controller(TINY, np.random.default_rng(4), hidden_size=8)
    result = derive(controller, None, easy_sbm, config)
    assert len(result.candidate_scores) == 3
    assert 0.0 <= result.trained.best_val_metric <= 1.0
    assert result.trained.epochs_ran <= config.hp.max_epochs


def test_diverging_children_score_zero_without_warnings_and_derive_retrains_none(monkeypatch):
    # At lr 1e38 every child's loss turns non-finite after its first step.
    dataset = generate_sbm(2, 30, 0.2, 0.02, 8, 1.0, seed=0)
    config = tiny_config(episodes=4, derive_samples=4, derive_train_epochs=2, hp=dataclasses.replace(FAST_HP, lr=1e38))
    trained = []
    train_child = search_module.train_child
    monkeypatch.setattr(search_module, "train_child", lambda *args: trained.append(1) or train_child(*args))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log = search(config, dataset=dataset, space=TINY)
        assert [record.raw_reward for record in log] == [0.0] * 4
        trained.clear()
        with pytest.raises(TrainingError, match="^no candidate trained: all 4 derive candidates"):
            derive(log.controller, log.store, dataset, config)
    assert len(trained) == config.derive_samples


def test_derive_chooses_among_the_rest_when_a_build_runs_out_of_memory(easy_sbm, monkeypatch):
    config = tiny_config(derive_samples=3, derive_train_epochs=1)
    controller = Controller(TINY, np.random.default_rng(4), hidden_size=8)
    expected = derive(controller, None, easy_sbm, config).candidate_scores
    failing = int(np.argmax(expected))  # the winner of the run without a failure
    built = []
    build_model = search_module.build_model

    def build(arch, *args, **kwargs):
        built.append(arch)
        if len(built) == failing + 1:
            raise MemoryError
        return build_model(arch, *args, **kwargs)

    monkeypatch.setattr(search_module, "build_model", build)
    result = derive(controller, None, easy_sbm, config)
    rest = [-np.inf if k == failing else score for k, score in enumerate(expected)]
    assert result.candidate_scores == rest
    assert len(built) == config.derive_samples + 1  # the candidates, then the winner's retrain
    assert result.arch == built[-1] == built[int(np.argmax(rest))]


def test_minibatch_metric_is_seeded(easy_sbm, rng):
    from gnnsearch.arch import decode
    from gnnsearch.gnn import build_model

    model = build_model(decode("first-order,gcn,sum,relu,1,8", TINY), 8, 2, rng)
    a = _minibatch_metric(model, easy_sbm, np.random.default_rng(3), size=8)
    b = _minibatch_metric(model, easy_sbm, np.random.default_rng(3), size=8)
    assert a == b
    with pytest.raises(ParameterError, match="validation"):
        empty = easy_sbm
        masks = tuple(
            type(m)(train=m.train, val=np.array([], dtype=np.int64), test=m.test) for m in empty.masks
        )
        broken = type(empty)(
            graphs=empty.graphs, labels=empty.labels, masks=masks,
            task_kind=empty.task_kind, class_count=empty.class_count,
        )
        _minibatch_metric(model, broken, np.random.default_rng(0))


@pytest.mark.parametrize("kind", ["single", "multi"])
def test_minibatch_metric_over_every_val_node_equals_evaluate(easy_sbm, kind, rng):
    from gnnsearch.arch import decode
    from gnnsearch.gnn import build_model, evaluate
    from gnnsearch.graphs import generate_multigraph

    dataset = easy_sbm if kind == "single" else generate_multigraph(
        graph_count=4, nodes_per_graph=30, avg_degree=5.0, label_count=4, feature_dim=6, seed=2
    )
    arch = decode("first-order,gcn,sum,relu,1,8", TINY)
    model = build_model(arch, dataset.feature_dim, dataset.class_count, rng)
    val_nodes = sum(mask.val.size for mask in dataset.masks)
    for seed in range(3):
        mini = _minibatch_metric(model, dataset, np.random.default_rng(seed), size=val_nodes + seed)
        assert mini == evaluate(model, dataset, "val")


@pytest.mark.parametrize("kind,dropout", [("single", 0.0), ("single", 0.5), ("multi", 0.0)])
def test_minibatch_metric_scores_from_the_best_epoch_logits(easy_sbm, kind, dropout, monkeypatch):
    # derive scores a candidate from train_child's best-epoch logits: they
    # are the restored model's evaluation logits, so no forward is needed.
    import gnnsearch.gnn as gnn_module
    from gnnsearch.arch import decode
    from gnnsearch.gnn import build_model, forward, train_child
    from gnnsearch.graphs import generate_multigraph

    dataset = easy_sbm if kind == "single" else generate_multigraph(
        graph_count=4, nodes_per_graph=30, avg_degree=5.0, label_count=4, feature_dim=6, seed=2
    )
    arch = decode("first-order,gcn,sum,relu,1,8", TINY)
    model = build_model(arch, dataset.feature_dim, dataset.class_count, np.random.default_rng(0))
    trained = train_child(model, dataset, dataclasses.replace(FAST_HP, max_epochs=4, dropout=dropout))
    val_graphs = [g for g, mask in enumerate(dataset.masks) if mask.val.size]
    assert sorted(trained.best_logits) == val_graphs
    for g in val_graphs:
        fresh = forward(model, dataset.graphs[g], training=False)
        assert trained.best_logits[g].data.tobytes() == fresh.data.tobytes()
        assert trained.best_logits[g].grad_fn is None
    cached = dict(trained.best_logits)
    expected = [_minibatch_metric(model, dataset, np.random.default_rng(seed), size=8) for seed in range(3)]

    calls = []
    real_forward = gnn_module.forward
    monkeypatch.setattr(gnn_module, "forward", lambda *a, **k: calls.append(1) or real_forward(*a, **k))
    scores = [
        _minibatch_metric(model, dataset, np.random.default_rng(seed), size=8, logits=trained.best_logits)
        for seed in range(3)
    ]
    assert scores == expected
    assert calls == []
    assert trained.best_logits == cached  # the cache handed in is left as it was


def test_built_child_hits_the_keys_its_merge_wrote(easy_sbm):
    from gnnsearch.arch import decode
    from gnnsearch.gnn import build_model

    space = dataclasses.replace(TINY, layer_count=2)
    arch = decode("first-order,gcn,sum,relu,1,8;first-order,const,sum,linear,1,4", space)
    log = search(tiny_config(layer_count=2, param_sharing=True, episodes=0), dataset=easy_sbm, space=space)
    store = log.store
    _, trained = search_module._reward(log, arch)
    model = trained.model
    for step, params in zip(model.plan, model.layers):
        assert merge_if_positive(store, step.key, params, shaped_reward=1.0)
    assert len(store) == 2
    hits_before = store.hits
    rebuilt = build_model(arch, easy_sbm.feature_dim, easy_sbm.class_count, np.random.default_rng(1), store=store)
    assert store.hits == hits_before + 2
    for merged, again in zip(model.layers, rebuilt.layers):
        assert merged.tensors.keys() == again.tensors.keys()
        for name, tensor in merged.tensors.items():
            assert np.array_equal(again.tensors[name].data, tensor.data)


def _scaled(dataset, scale, index=0):
    """``dataset`` with graph ``index``'s features times ``scale``."""
    graphs = list(dataset.graphs)
    graph = graphs[index]
    graphs[index] = make_graph(graph.node_count, graph.edges, graph.features * scale)
    return dataclasses.replace(dataset, graphs=tuple(graphs))


def test_search_scores_an_overflowing_child_zero(easy_sbm):
    # No monkeypatching: features of 1e30 fit float32 but overflow every
    # cos/max-pooling child, which scores 0 without a warning.
    space = dataclasses.replace(TINY, attention=("cos",), aggregation=("max-pooling",))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log = search(tiny_config(episodes=3), dataset=_scaled(easy_sbm, 1e30), space=space)
    assert [r.raw_reward for r in log] == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("index", [0, 2])
def test_search_and_derive_refuse_features_float32_cannot_hold(easy_sbm, index):
    dataset = easy_sbm if index == 0 else generate_multigraph(4, 10, 3.0, 8, 2, seed=1)
    huge = _scaled(dataset, 1e200, index)
    controller = Controller(TINY, np.random.default_rng(4), hidden_size=8)
    message = rf"^graph {index}: largest \|feature\| \S+e\+20\d overflows float32$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match=message):
            search(tiny_config(), dataset=huge, space=TINY)
        with pytest.raises(ParameterError, match=message):
            derive(controller, None, huge, tiny_config())
