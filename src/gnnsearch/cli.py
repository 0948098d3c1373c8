"""Command-line harness: search, derive, train, random, report.

Configuration is one flat JSON object; every key has a default, unknown
keys are rejected, and the few flags (--seed, --strategy, --out, ...)
override the file. All commands exit 0 on success and 2 on any
validation, ingestion or allocation error, printing the reason to stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .arch import (
    ACTIVATION,
    AGGREGATION,
    ATTENTION,
    HEADS,
    HIDDEN,
    SLOT_ORDER,
    ActionSpace,
    decode,
    encode,
)
from .controller import load_controller, save_controller
from .errors import ConfigError, GnnSearchError, ParameterError
from .gnn import CHILD_DTYPE, TrainHyperparams, build_model, median, param_count, train_child
from .graphs import LabeledDataset, generate_multigraph, generate_sbm, load_citation
from .search import (
    EpisodeRecord,
    SearchConfig,
    derive,
    load_store,
    save_store,
    search,
    top_k_report,
)


def _field_rows(cls, skip: str) -> dict:
    """Schema rows for a config dataclass: each field's kind is the type of its default."""
    return {f.name: (type(f.default), f.default) for f in fields(cls) if f.name != skip}


# key -> (kind, default); kind is one of int, float, str, bool, list
_SCHEMA = {
    # dataset
    "dataset": (str, "sbm"),
    "path": (str, ""),
    "data_seed": (int, 0),
    "block_count": (int, 2),
    "nodes_per_block": (int, 50),
    "p_in": (float, 0.2),
    "p_out": (float, 0.02),
    "feature_dim": (int, 16),
    "signal_strength": (float, 1.0),
    "graph_count": (int, 6),
    "nodes_per_graph": (int, 60),
    "avg_degree": (float, 8.0),
    "label_count": (int, 6),
    # search, controller and child training: the SearchConfig and
    # TrainHyperparams fields; hp.seed is the "seed" key
    **_field_rows(SearchConfig, skip="hp"),
    **_field_rows(TrainHyperparams, skip="seed"),
    # space restriction (defaults are the full option tables; sampling
    # has a single option, so it has no key)
    "attention_options": (list, list(ATTENTION)),
    "aggregation_options": (list, list(AGGREGATION)),
    "activation_options": (list, list(ACTIVATION)),
    "head_options": (list, list(HEADS)),
    "hidden_options": (list, list(HIDDEN)),
    # reporting
    "threshold": (float, 0.9),
    "repeat": (int, 1),
}


def load_config(path: str | None, overrides: dict | None = None) -> dict:
    """Merge defaults, the config file, and flag overrides; validate keys."""
    merged = {key: default for key, (_kind, default) in _SCHEMA.items()}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as err:
            raise ConfigError(f"config file is not valid JSON: {err}") from None
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold one flat JSON object")
        for key, value in loaded.items():
            if key not in _SCHEMA:
                raise ConfigError(f"unknown config key {key!r}")
            merged[key] = _checked(key, value)
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        merged[key] = _checked(key, value)
    return merged


def _checked(key: str, value):
    kind, _default = _SCHEMA[key]
    if kind is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"config key {key!r} must be a boolean, got {value!r}")
        return value
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"config key {key!r} must be an integer, got {value!r}")
        return value
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"config key {key!r} must be a number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:  # an integer past the float range
            number = math.inf
        if not math.isfinite(number):
            raise ConfigError(f"config key {key!r} must be a finite number, got {value!r}")
        return number
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(f"config key {key!r} must be a string, got {value!r}")
        return value
    if not isinstance(value, list):
        raise ConfigError(f"config key {key!r} must be a list, got {value!r}")
    return value


def build_space(cfg: dict) -> ActionSpace:
    try:
        return ActionSpace(
            attention=tuple(cfg["attention_options"]),
            aggregation=tuple(cfg["aggregation_options"]),
            activation=tuple(cfg["activation_options"]),
            heads=tuple(cfg["head_options"]),
            hidden=tuple(cfg["hidden_options"]),
            layer_count=cfg["layer_count"],
            skip_enabled=cfg["skip_enabled"],
        )
    except GnnSearchError as err:
        raise ConfigError(f"option lists: {err}") from None


def build_search_config(cfg: dict) -> SearchConfig:
    hp = TrainHyperparams(**{f.name: cfg[f.name] for f in fields(TrainHyperparams)})
    return SearchConfig(hp=hp, **{f.name: cfg[f.name] for f in fields(SearchConfig) if f.name != "hp"})


def make_dataset(cfg: dict) -> LabeledDataset:
    kind = cfg["dataset"]
    if kind == "sbm":
        return generate_sbm(
            cfg["block_count"], cfg["nodes_per_block"], cfg["p_in"], cfg["p_out"],
            cfg["feature_dim"], cfg["signal_strength"], cfg["data_seed"],
        )
    if kind == "multigraph":
        return generate_multigraph(
            cfg["graph_count"], cfg["nodes_per_graph"], cfg["avg_degree"],
            cfg["feature_dim"], cfg["label_count"], cfg["data_seed"],
        )
    if kind == "citation":
        if not cfg["path"]:
            raise ConfigError("config key 'path' is required for dataset 'citation'")
        return load_citation(cfg["path"])
    raise ConfigError(f"config key 'dataset' must be sbm, multigraph, or citation, got {kind!r}")


# ---------------------------------------------------------------------------
# commands


def _write_topk(log, k: int, path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rank", "arch", "reward"])
        for rank, (arch, reward) in enumerate(top_k_report(log, k), start=1):
            writer.writerow([rank, arch, f"{reward:.10g}"])


def cmd_search(cfg: dict, out_dir: Path) -> int:
    config = build_search_config(cfg)
    space = build_space(cfg)
    dataset = make_dataset(cfg).with_feature_dtype(CHILD_DTYPE)
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "search.log"
    with open(log_path, "w", encoding="utf-8") as fh:

        def sink(record: EpisodeRecord):
            fh.write(record.to_line() + "\n")
            fh.flush()

        log = search(config, dataset=dataset, space=space, record_sink=sink)
    _write_topk(log, config.top_k, out_dir / "topk.csv")
    if log.controller is not None:
        save_controller(log.controller, out_dir / "controller.npz")
    if log.store is not None:
        save_store(log.store, out_dir / "store.npz")
    best = max(log, key=lambda r: r.raw_reward, default=None)
    if best is not None:
        print(f"episodes={len(log)} best_reward={best.raw_reward:.6g} best_arch={best.arch}")
    else:
        print("episodes=0")
    print(f"wrote {log_path}")
    return 0


def cmd_derive(cfg: dict, out_dir: Path) -> int:
    config = build_search_config(cfg)
    dataset = make_dataset(cfg).with_feature_dtype(CHILD_DTYPE)
    controller_path = out_dir / "controller.npz"
    if not controller_path.exists():
        raise ConfigError(f"no controller checkpoint at {controller_path}; run search first")
    controller = load_controller(controller_path)
    store_path = out_dir / "store.npz"
    store = load_store(store_path) if store_path.exists() else None
    result = derive(controller, store, dataset, config)
    arch_text = encode(result.arch)
    (out_dir / "derived.txt").write_text(arch_text + "\n", encoding="utf-8")
    print(arch_text)
    print(
        f"val={result.trained.best_val_metric:.6g} test={result.trained.test_metric:.6g} "
        f"epochs={result.trained.epochs_ran}"
    )
    return 0


def _decode_as_written(text: str, space: ActionSpace):
    """``text`` decoded with ``space``'s option lists, at the depth and with
    the skip wiring it is written with, so an arch trains or reports
    without a config that repeats its ``layer_count`` and ``skip_enabled``."""
    rows = [line.split(",") for line in text.replace(";", "\n").splitlines() if line.strip()] or [[]]
    return decode(text, replace(space, layer_count=len(rows), skip_enabled=len(rows[0]) == len(SLOT_ORDER) + 2))


def cmd_train(cfg: dict, out_dir: Path, arch_text: str) -> int:
    arch = _decode_as_written(arch_text, build_space(cfg))
    dataset = make_dataset(cfg).with_feature_dtype(CHILD_DTYPE)
    hp = build_search_config(cfg).hp
    repeat = cfg["repeat"]
    if repeat < 1:
        raise ConfigError("config key 'repeat' must be at least 1")
    metrics, seconds = [], []
    for i in range(repeat):
        run_hp = replace(hp, seed=hp.seed + i)
        model = build_model(arch, dataset.feature_dim, dataset.class_count, np.random.default_rng(run_hp.seed),
                            dtype=dataset.feature_dtype)
        result = train_child(model, dataset, run_hp)
        metrics.append(result.test_metric)
        seconds.append(result.seconds_per_epoch)
        print(
            f"run={i} val={result.best_val_metric:.6g} test={result.test_metric:.6g} "
            f"epochs={result.epochs_ran} best_epoch={result.best_epoch} "
            f"sec_per_epoch={result.seconds_per_epoch:.4g}"
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "train.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "depth", "params", "sec_per_epoch", "metric_mean", "metric_std"])
        writer.writerow(_report_row(encode(arch, sep=";"), arch, dataset, seconds, metrics))
    return 0


def _report_row(name: str, arch, dataset: LabeledDataset, seconds: list, metrics: list) -> list:
    std = f"{np.std(metrics):.10g}" if len(metrics) > 1 else ""
    return [
        name,
        arch.depth,
        param_count(arch, dataset.feature_dim, dataset.class_count),
        f"{median(seconds):.10g}",
        f"{float(np.mean(metrics)):.10g}",
        std,
    ]


def cmd_report(cfg: dict, out_dir: Path, log_paths: list) -> int:
    if not log_paths:
        raise ConfigError("report needs at least one search log")
    top_k = build_search_config(cfg).top_k
    dataset = make_dataset(cfg)
    space = build_space(cfg)
    threshold = cfg["threshold"]
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    used_stems: set[str] = set()
    for path in log_paths:
        try:
            lines = Path(path).read_text(encoding="utf-8").splitlines()
        except FileNotFoundError:
            raise ConfigError(f"log file not found: {path}") from None
        records = []
        for lineno, line in enumerate(lines, start=1):
            if line.strip():
                try:
                    records.append(EpisodeRecord.from_line(line))
                except ParameterError as err:
                    raise ConfigError(f"log file {path}, line {lineno}: {err}") from None
        if not records:
            raise ConfigError(f"log file {path} is empty")
        stem = base = Path(path).stem
        suffix = len(used_stems)
        while stem in used_stems:
            stem = f"{base}_{suffix}"
            suffix += 1
        used_stems.add(stem)

        best = max(records, key=lambda r: r.raw_reward)
        arch = _decode_as_written(best.arch, space)
        top = [reward for _arch, reward in top_k_report(records, top_k)]
        wall = [r.wall_ms / 1000.0 for r in records[1:]] or [records[0].wall_ms / 1000.0]
        rows.append(_report_row(stem, arch, dataset, wall, top))

        best_so_far = -np.inf
        above = 0
        with open(out_dir / f"curve_{stem}.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["episode", "best_reward", "above_threshold"])
            for record in records:
                best_so_far = max(best_so_far, record.raw_reward)
                above += record.raw_reward > threshold
                writer.writerow([record.episode, f"{best_so_far:.10g}", above])

    with open(out_dir / "report.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "depth", "params", "sec_per_episode", "metric_mean", "metric_std"])
        writer.writerows(rows)
    print(f"wrote {out_dir / 'report.csv'} and {len(log_paths)} curve file(s)")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gnnsearch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat JSON config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", default="out", help="output directory (default: out)")

    p_search = sub.add_parser("search", help="run an architecture search")
    common(p_search)
    p_search.add_argument("--strategy", help="override the config strategy")

    p_random = sub.add_parser("random", help="random-search baseline: strategy random, which ignores graphnas keys")
    common(p_random)

    p_derive = sub.add_parser("derive", help="derive the best architecture from a finished search")
    common(p_derive)

    p_train = sub.add_parser("train", help="train one architecture from its token string")
    common(p_train)
    p_train.add_argument("--arch", required=True, help="token lines, ';' or newline between layers")

    p_report = sub.add_parser("report", help="summarize one or more search logs")
    common(p_report)
    p_report.add_argument("--threshold", type=float, help="reward threshold for the count curve")
    p_report.add_argument("logs", nargs="*", help="search log files")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    overrides = {key: getattr(args, key, None) for key in ("seed", "strategy", "threshold")}  # None: not given
    try:
        cfg = load_config(args.config, overrides)
        out_dir = Path(args.out)
        if args.command == "search":
            return cmd_search(cfg, out_dir)
        if args.command == "random":
            return cmd_search(dict(cfg, strategy="random"), out_dir)
        if args.command == "derive":
            return cmd_derive(cfg, out_dir)
        if args.command == "train":
            return cmd_train(cfg, out_dir, args.arch)
        if args.command == "report":
            return cmd_report(cfg, out_dir, args.logs)
        raise ConfigError(f"unknown command {args.command!r}")
    except GnnSearchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MemoryError:
        where = f"train --arch {';'.join(args.arch.split())}" if args.command == "train" else args.command
        print(f"error: {where}: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
