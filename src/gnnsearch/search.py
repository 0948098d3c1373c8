"""Search strategies, the shared-parameter store, and derivation.

Two strategies produce one reward per episode:

- ``graphnas``: controller-sampled architectures. With sharing enabled,
  children start from store copies, train ``child_epochs`` epochs, and
  merge back when the shaped reward is positive; without it, each trains
  from scratch for up to ``child_epochs``.
- ``random``: uniform architectures, each trained from scratch for up to
  the full ``max_epochs``.

Passing a surrogate ``reward_table`` (keyed by the encoded architecture)
bypasses all child training, which makes controller behavior cheap to
study and fully deterministic.

Children train in ``CHILD_DTYPE`` (float32): ``search`` and ``derive``
cast the dataset's features into a new dataset once. The controller,
its REINFORCE step, rewards and metrics stay float64.
"""

from __future__ import annotations

import math
import time
import zipfile
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import autodiff as ad
from .arch import ActionSpace, ArchDescription, default_space, encode, random_arch
from .autodiff import Tensor
from .controller import Baseline, Controller, Episode, open_npz, reinforce_step, shape_reward
from .errors import ConfigError, ParameterError, ShapeError, TrainingError
from .gnn import (
    CHILD_DTYPE,
    ChildModel,
    LayerParams,
    ShareKey,
    TrainHyperparams,
    build_model,
    init_layer_params,
    layer_shapes,
    pooled_metric,
    train_child,
)
from .graphs import LabeledDataset

STRATEGIES = ("graphnas", "random")


class SharedParamStore:
    """Snapshots of trained layer weights, keyed by ShareKey.

    Lookups never mutate the store; only ``merge_if_positive`` writes.
    An entry keeps the dtype it was merged or loaded in; ``build_model``
    casts a copy to the child's. Residual projections are not stored: the
    key cannot see the skip source dimension, so their shapes are not
    reproducible from it.
    """

    def __init__(self):
        self.entries: dict[ShareKey, dict] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self):
        return len(self.entries)

    def layer_params(self, key: ShareKey, rng: np.random.Generator) -> LayerParams:
        """A private copy of the stored entry, or a fresh draw on a miss."""
        stored = self.entries.get(key)
        if stored is None:
            self.misses += 1
            return init_layer_params(rng, key.attention, key.aggregation, key.in_dim, key.heads, key.hidden)
        self.hits += 1
        return LayerParams({name: Tensor(value.copy(), requires_grad=True) for name, value in stored.items()})


fetch_copy = SharedParamStore.layer_params  # fetch_copy(store, key, rng)


def _checked_entry(key: ShareKey, arrays: dict) -> dict:
    """``arrays`` in the order of the key's ``layer_shapes``. Raises
    ``ParameterError`` unless it has exactly their names, ``ShapeError``
    unless it has their shapes."""
    shapes = layer_shapes(key.attention, key.aggregation, key.in_dim, key.heads, key.hidden)
    if arrays.keys() != shapes.keys():
        raise ParameterError(f"entry {key} holds {sorted(arrays)}, its kinds own {sorted(shapes)}")
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            raise ShapeError(f"entry {key} has {name} of shape {arrays[name].shape}, not {shape}")
    return {name: arrays[name] for name in shapes}


def merge_if_positive(store: SharedParamStore, key: ShareKey, params: LayerParams, shaped_reward: float) -> bool:
    """Overwrite the store entry when the shaped reward is strictly positive."""
    entry = _checked_entry(key, {name: t.data for name, t in params.tensors.items() if name != "w_res"})
    if shaped_reward <= 0.0:
        return False
    store.entries[key] = {name: value.copy() for name, value in entry.items()}
    return True


def save_store(store: SharedParamStore, path) -> None:
    arrays = {}
    for key, entry in store.entries.items():
        prefix = "|".join(
            str(part) for part in (key.layer_index, key.attention, key.aggregation, key.in_dim, key.heads, key.hidden)
        )
        for name, value in entry.items():
            arrays[f"{prefix}::{name}"] = value
    np.savez(path, **arrays)


def load_store(path) -> SharedParamStore:
    """Read a ``save_store`` file. Float32 arrays stay float32 and any
    other as float64, so a float64 store of an earlier version loads as
    it was written. One that is unreadable, or whose entry does not
    match its key's ``layer_shapes`` or holds a non-finite value, raises
    ``ParameterError`` naming the path."""
    store = SharedParamStore()
    try:
        with open_npz(path) as bundle:
            for full_name in bundle.files:
                prefix, name = full_name.split("::")
                layer, attention, aggregation, in_dim, heads, hidden = prefix.split("|")
                key = ShareKey(int(layer), attention, aggregation, int(in_dim), int(heads), int(hidden))
                store.entries.setdefault(key, {})[name] = ad.as_float(bundle[full_name])
    except (OSError, ValueError, zipfile.BadZipFile) as err:
        raise ParameterError(f"sharing store {path} is unreadable: {err}") from None
    for key, entry in store.entries.items():
        try:
            store.entries[key] = _checked_entry(key, entry)
            if not all(np.isfinite(value).all() for value in entry.values()):
                raise ParameterError(f"entry {key} holds non-finite values")
        except (ParameterError, ShapeError) as err:
            raise ParameterError(f"sharing store {path}: {err}") from None
    return store


# ---------------------------------------------------------------------------
# configuration


@dataclass
class SearchConfig:
    """Knobs for one search run.

    The defaults follow the single-graph recipe: no parameter sharing,
    every child trained from scratch for up to ``child_epochs``. The
    multi-graph recipe enables sharing with short child runs and an
    exploration warm-up (e.g. child_epochs=5, exploration_epochs=20).
    """

    strategy: str = "graphnas"
    episodes: int = 1000
    layer_count: int = 2
    skip_enabled: bool = False
    param_sharing: bool = False
    child_epochs: int = 200
    exploration_epochs: int = 0
    derive_samples: int = 20
    derive_train_epochs: int = 5
    top_k: int = 5
    seed: int = 0
    batch_size: int = 1
    controller_hidden: int = 100
    controller_lr: float = 0.0035
    temperature: float = 5.0
    logit_clip: float = 2.5
    entropy_weight: float = 0.0001
    baseline_decay: float = 0.95
    hp: TrainHyperparams = field(default_factory=TrainHyperparams)

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            equivalent = {
                "nas-like": "strategy 'graphnas' with param_sharing false and child_epochs equal to max_epochs",
                "enas-like": "none",
            }.get(self.strategy)
            if equivalent is not None:
                raise ConfigError(f"strategy: {self.strategy!r} was removed; equivalent config: {equivalent}")
            raise ConfigError(f"strategy: {self.strategy!r} not in {STRATEGIES}")
        positives = (
            ("layer_count", self.layer_count),
            ("child_epochs", self.child_epochs),
            ("derive_samples", self.derive_samples),
            ("derive_train_epochs", self.derive_train_epochs),
            ("top_k", self.top_k),
            ("batch_size", self.batch_size),
            ("controller_hidden", self.controller_hidden),
        )
        for name, value in positives:
            if value < 1:
                raise ConfigError(f"{name}: must be at least 1, got {value}")
        if self.episodes < 0:
            raise ConfigError(f"episodes: must be non-negative, got {self.episodes}")
        if self.seed < 0:
            raise ConfigError(f"seed: must be non-negative, got {self.seed}")
        if self.exploration_epochs < 0:
            raise ConfigError("exploration_epochs: must be non-negative")
        if self.exploration_epochs > 0 and not (self.strategy == "graphnas" and self.param_sharing):
            raise ConfigError(
                "exploration_epochs: exploration only applies to the graphnas strategy with sharing"
            )
        for name in ("controller_lr", "temperature", "logit_clip"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name}: must be finite and positive, got {value}")
        if not (math.isfinite(self.entropy_weight) and self.entropy_weight >= 0):
            raise ConfigError(f"entropy_weight: must be finite and non-negative, got {self.entropy_weight}")
        if not 0.0 <= self.baseline_decay < 1.0:
            raise ConfigError("baseline_decay: must lie in [0, 1)")

    def uses_controller(self) -> bool:
        return self.strategy != "random"

    def uses_store(self) -> bool:
        return self.strategy == "graphnas" and self.param_sharing


# ---------------------------------------------------------------------------
# episode records


@dataclass(frozen=True)
class EpisodeRecord:
    episode: int
    arch: str           # encoded with ';' between layers
    raw_reward: float
    shaped_reward: float
    baseline_value: float
    wall_ms: float

    def to_line(self) -> str:
        # Wall time sits in its own final column so the rest of the line
        # is byte-reproducible under a fixed seed.
        return (
            f"{self.episode}\t{self.arch}\t{self.raw_reward:.10g}"
            f"\t{self.shaped_reward:.10g}\t{self.baseline_value:.10g}\t{self.wall_ms:.3f}"
        )

    @classmethod
    def from_line(cls, line: str) -> "EpisodeRecord":
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 6:
            raise ParameterError(f"log line has {len(parts)} columns, expected 6")

        def number(column: int, kind):
            where = f"log column {column + 1} ({fields(cls)[column].name})"
            try:
                value = kind(parts[column])
            except ValueError:
                raise ParameterError(f"{where} is not a number: {parts[column]!r}") from None
            # Search never writes nan or inf, so either marks a damaged line.
            if not math.isfinite(value):
                raise ParameterError(f"{where} is not finite: {parts[column]!r}")
            return value

        if not any(parts[1].split(";")):
            raise ParameterError(f"log column 2 (arch) holds no layer text: {parts[1]!r}")
        return cls(
            episode=number(0, int),
            arch=parts[1],
            raw_reward=number(2, float),
            shaped_reward=number(3, float),
            baseline_value=number(4, float),
            wall_ms=number(5, float),
        )


@dataclass
class SearchLog:
    records: list
    config: SearchConfig
    space: ActionSpace
    controller: Controller | None
    store: SharedParamStore | None
    baseline: Baseline
    child_opt_steps: int = 0

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


def top_k_report(log, k: int) -> list:
    """The k best (arch, raw reward) pairs; ties keep episode order."""
    if k < 1:
        raise ParameterError("k must be at least 1")
    records = list(log)
    ranked = sorted(records, key=lambda r: -r.raw_reward)
    return [(r.arch, r.raw_reward) for r in ranked[:k]]


# ---------------------------------------------------------------------------
# child training per strategy


def _shared_hp(config: SearchConfig, epochs: int, seed: int) -> TrainHyperparams:
    # Shared-weight training runs short and regularizer-free; the stored
    # weights see many architectures, dropout and L2 would just fight that.
    return TrainHyperparams(
        lr=config.hp.lr, l2_lambda=0.0, dropout=0.0,
        max_epochs=epochs, patience=epochs, seed=seed,
    )


def _scratch_hp(config: SearchConfig, max_epochs: int, seed: int) -> TrainHyperparams:
    return replace(
        config.hp,
        max_epochs=max_epochs,
        patience=min(config.hp.patience, max_epochs),
        seed=seed,
    )


class _ChildRunner:
    """Builds, trains, and scores children for one search run. The store
    is None exactly when the run does not share weights."""

    def __init__(self, config: SearchConfig, dataset: LabeledDataset, store: SharedParamStore | None):
        self.config = config
        self.dataset = dataset
        self.store = store
        self.opt_steps = 0

    def reward(self, arch: ArchDescription, rng: np.random.Generator):
        """Returns (raw_reward, trained_model_or_None). Divergence or
        running out of memory gives 0."""
        config, dataset = self.config, self.dataset
        seed = int(rng.integers(2**31))
        if self.store is not None:
            hp = _shared_hp(config, config.child_epochs, seed)
        else:  # from scratch: graphnas at child_epochs, random at the full budget
            epochs = config.child_epochs if config.strategy == "graphnas" else config.hp.max_epochs
            hp = _scratch_hp(config, epochs, seed)
        try:
            model = build_model(arch, dataset.feature_dim, dataset.class_count, rng,
                                store=self.store, dtype=dataset.feature_dtype)
            result = train_child(model, dataset, hp)
        except (TrainingError, MemoryError):
            return 0.0, None
        self.opt_steps += result.opt_steps
        return result.best_val_metric, result.model

    def merge(self, model: ChildModel, shaped_reward: float) -> None:
        if self.store is None or model is None:
            return
        for step, params in zip(model.plan, model.layers):
            merge_if_positive(self.store, step.key, params, shaped_reward)


# ---------------------------------------------------------------------------
# the main loops


def exploration_phase(runner: _ChildRunner, space: ActionSpace, rng: np.random.Generator, baseline: Baseline) -> int:
    """Warm the runner's store with uniformly sampled architectures.

    The controller is never consulted, so its parameters stay
    bit-identical. Rewards still feed the shared baseline, and the
    children's optimizer steps count in the runner's. Returns the number
    of merged rounds.
    """
    config = runner.config
    merged = 0
    for _ in range(config.exploration_epochs):
        arch = random_arch(space, rng)
        raw, model = runner.reward(arch, rng)
        shaped = shape_reward(raw, baseline, 0.0, config.entropy_weight)
        if model is not None:
            runner.merge(model, shaped)
            if shaped > 0.0:
                merged += 1
    return merged


def search(
    config: SearchConfig,
    dataset: LabeledDataset | None = None,
    space: ActionSpace | None = None,
    reward_table: dict | None = None,
    record_sink=None,
) -> SearchLog:
    """Run one search; returns the log plus the trained controller/store.

    Exactly one reward source is used: a dataset (real child training)
    or a surrogate ``reward_table`` mapping encoded architectures to
    rewards. ``record_sink``, when given, receives each EpisodeRecord as
    it is produced.
    """
    if (dataset is None) == (reward_table is None):
        raise ConfigError("search needs exactly one of dataset or reward_table")
    if reward_table is not None and config.exploration_epochs > 0:
        raise ConfigError("exploration_epochs: exploration has no effect with a surrogate reward table")
    if space is None:
        space = default_space(config.layer_count, config.skip_enabled)
    if space.layer_count != config.layer_count or space.skip_enabled != config.skip_enabled:
        raise ConfigError("space: layer_count/skip_enabled disagree with the config")

    if dataset is not None:
        dataset = dataset.with_feature_dtype(CHILD_DTYPE)
    rng = np.random.default_rng(config.seed)
    controller = None
    opt_state = None
    if config.uses_controller():
        controller = Controller(
            space,
            rng=rng,
            hidden_size=config.controller_hidden,
            temperature=config.temperature,
            logit_clip=config.logit_clip,
        )
        opt_state = ad.AdamState.init(controller.parameters(), lr=config.controller_lr)
    store = SharedParamStore() if config.uses_store() else None
    baseline = Baseline(decay=config.baseline_decay)
    runner = _ChildRunner(config, dataset, store) if dataset is not None else None

    if config.exploration_epochs > 0:  # only graphnas with sharing on a dataset: the checks above refuse the rest
        exploration_phase(runner, space, rng, baseline)

    records = []
    batch: list[Episode] = []
    for index in range(config.episodes):
        started = time.perf_counter()
        if controller is None:
            episode = None
            arch = random_arch(space, rng)
            entropy = 0.0
        else:
            episode = controller.sample(rng)
            arch = episode.arch
            entropy = episode.entropy_sum

        if reward_table is not None:
            key = encode(arch, sep=";")
            if key not in reward_table:
                raise ConfigError(f"reward_table: no entry for architecture {key!r}")
            raw, model = float(reward_table[key]), None
            if not math.isfinite(raw):
                raise ConfigError(f"reward_table: the reward of architecture {key!r} is not finite: {raw}")
        else:
            raw, model = runner.reward(arch, rng)

        shaped = shape_reward(raw, baseline, entropy, config.entropy_weight)
        if runner is not None and model is not None:
            runner.merge(model, shaped)
        if episode is not None:
            episode.reward = raw
            episode.shaped_reward = shaped
            batch.append(episode)
            if len(batch) == config.batch_size:
                reinforce_step(controller, batch, opt_state)
                # Nothing reads the gradients again: drop them before the next child trains.
                ad.zero_grads(controller.parameters())
                batch = []

        record = EpisodeRecord(
            episode=index,
            arch=encode(arch, sep=";"),
            raw_reward=raw,
            shaped_reward=shaped,
            baseline_value=baseline.value,
            wall_ms=(time.perf_counter() - started) * 1000.0,
        )
        records.append(record)
        if record_sink is not None:
            record_sink(record)

    return SearchLog(
        records=records,
        config=config,
        space=space,
        controller=controller,
        store=store,
        baseline=baseline,
        child_opt_steps=runner.opt_steps if runner is not None else 0,
    )


# ---------------------------------------------------------------------------
# derivation


@dataclass
class DeriveResult:
    arch: ArchDescription
    candidate_scores: list
    trained: object  # TrainedResult of the winner, retrained from scratch


def _minibatch_metric(
    model: ChildModel, dataset: LabeledDataset, rng: np.random.Generator, size: int = 64, logits: dict | None = None,
) -> float:
    """Validation metric on a seeded node minibatch (pooled over graphs).

    ``logits`` is a cache of evaluation logits at the model's current
    parameters, as in ``pooled_metric``; it is not modified.
    """
    pool = []
    for g, mask in enumerate(dataset.masks):
        pool.extend((g, int(node)) for node in mask.val)
    if not pool:
        raise ParameterError("no validation nodes to score against")
    chosen = [pool[i] for i in rng.choice(len(pool), size=min(size, len(pool)), replace=False)]
    by_graph: dict[int, list] = {}
    for g, node in chosen:
        by_graph.setdefault(g, []).append(node)
    nodes = [(g, np.array(sorted(picked), dtype=np.int64)) for g, picked in sorted(by_graph.items())]
    return pooled_metric(model, dataset, nodes, None if logits is None else dict(logits))


def derive(
    controller: Controller,
    store: SharedParamStore | None,
    dataset: LabeledDataset,
    config: SearchConfig,
    rng: np.random.Generator | None = None,
) -> DeriveResult:
    """Sample candidates, cheap-score them, retrain the best from scratch.

    Each candidate starts from store copies (when a store exists), takes
    ``derive_train_epochs`` epochs, and is scored on one seeded
    validation minibatch. Score ties keep the earliest sample. The
    winner retrains from scratch under the full hyperparameters.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed + 1)
    dataset = dataset.with_feature_dtype(CHILD_DTYPE)
    candidates = [controller.sample(rng) for _ in range(config.derive_samples)]
    seeds = [(int(rng.integers(2**31)), rng.integers(2**31)) for _ in candidates]
    scores = []
    for episode, (child_seed, batch_seed) in zip(candidates, seeds):
        model = build_model(episode.arch, dataset.feature_dim, dataset.class_count,
                            np.random.default_rng(child_seed), store=store, dtype=CHILD_DTYPE)
        try:
            trained = train_child(model, dataset, _shared_hp(config, config.derive_train_epochs, child_seed))
        except (TrainingError, MemoryError):
            scores.append(-np.inf)
            continue
        # The best epoch's validation logits are the restored model's.
        scores.append(_minibatch_metric(model, dataset, np.random.default_rng(batch_seed), logits=trained.best_logits))

    winner = int(np.argmax(np.asarray(scores)))  # first index wins ties
    best_arch = candidates[winner].arch
    final_seed = int(rng.integers(2**31))
    model = build_model(best_arch, dataset.feature_dim, dataset.class_count, np.random.default_rng(final_seed),
                        dtype=CHILD_DTYPE)
    trained = train_child(model, dataset, replace(config.hp, seed=final_seed))
    return DeriveResult(arch=best_arch, candidate_scores=scores, trained=trained)
