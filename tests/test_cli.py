"""End-to-end command tests: exit codes, artifacts, and overrides."""

import csv
import dataclasses
import gc
import importlib
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from gnnsearch import autodiff as ad
from gnnsearch import cli
from gnnsearch.cli import build_search_config, load_config, main
from gnnsearch.graphs import generate_sbm, make_graph, save_citation
from gnnsearch.search import STRATEGIES, EpisodeRecord, SearchConfig
from goldens import workloads

search_module = importlib.import_module("gnnsearch.search")

BASE_CFG = {
    "dataset": "sbm",
    "block_count": 2,
    "nodes_per_block": 12,
    "p_in": 0.3,
    "p_out": 0.02,
    "feature_dim": 6,
    "signal_strength": 3.0,
    "data_seed": 1,
    "strategy": "graphnas",
    "episodes": 4,
    "layer_count": 1,
    "child_epochs": 2,
    "lr": 0.01,
    "dropout": 0.0,
    "max_epochs": 4,
    "patience": 4,
    "controller_hidden": 8,
    "derive_samples": 2,
    "derive_train_epochs": 1,
    "top_k": 3,
    "attention_options": ["const", "gcn"],
    "aggregation_options": ["sum"],
    "activation_options": ["relu", "linear"],
    "head_options": [1],
    "hidden_options": [4, 8],
}


def write_cfg(tmp_path, **extra):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**BASE_CFG, **extra}), encoding="utf-8")
    return path


def stripped_log(path):
    # Drop the wall-clock column; the rest is seed-reproducible.
    return ["\t".join(line.split("\t")[:-1]) for line in path.read_text().splitlines()]


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# search / random


def test_search_writes_all_artifacts(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["search", "--config", str(cfg), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "episodes=4 best_reward=" in stdout
    assert f"wrote {out / 'search.log'}" in stdout

    lines = (out / "search.log").read_text().splitlines()
    assert len(lines) == 4
    assert all(line.count("\t") == 5 for line in lines)

    topk = read_csv(out / "topk.csv")
    assert topk[0] == ["rank", "arch", "reward"]
    assert len(topk) == 1 + 3
    assert (out / "controller.npz").exists()
    assert not (out / "store.npz").exists()  # sharing disabled


def test_search_is_reproducible_per_seed(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out_a, out_b, out_c = (tmp_path / name for name in ("a", "b", "c"))
    for out, seed in ((out_a, "5"), (out_b, "5"), (out_c, "6")):
        assert main(["search", "--config", str(cfg), "--out", str(out), "--seed", seed]) == 0
    capsys.readouterr()
    assert stripped_log(out_a / "search.log") == stripped_log(out_b / "search.log")
    assert stripped_log(out_a / "search.log") != stripped_log(out_c / "search.log")


def test_random_command_has_no_controller(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["random", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert (out / "search.log").exists()
    assert not (out / "controller.npz").exists()


def test_sharing_run_writes_the_store(tmp_path, capsys):
    cfg = write_cfg(tmp_path, param_sharing=True, exploration_epochs=1)
    out = tmp_path / "out"
    assert main(["search", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert (out / "store.npz").exists()


def test_strategy_flag_overrides_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["search", "--config", str(cfg), "--out", str(out), "--strategy", "random"]) == 0
    capsys.readouterr()
    assert not (out / "controller.npz").exists()


def _assert_all_freed(refs):
    gc.collect()
    assert refs and all(ref() is None for ref in refs), "a float64 dataset is still alive"


def test_search_and_derive_free_the_float64_dataset(tmp_path, capsys, monkeypatch):
    # Both work on their float32 cast, so the float64 features must not
    # outlive it: by the first record and the first child they are freed.
    refs = []
    make_dataset = cli.make_dataset

    def watched_make_dataset(cfg):
        dataset = make_dataset(cfg)
        refs.append(weakref.ref(dataset))
        return dataset

    monkeypatch.setattr(cli, "make_dataset", watched_make_dataset)
    checked = []
    to_line = EpisodeRecord.to_line

    def checked_to_line(record):
        _assert_all_freed(refs)
        checked.append("search")
        return to_line(record)

    monkeypatch.setattr(EpisodeRecord, "to_line", checked_to_line)
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["search", "--config", str(cfg), "--out", str(out)]) == 0

    train_child = search_module.train_child

    def checked_train_child(model, dataset, hp):
        _assert_all_freed(refs)
        checked.append("derive")
        return train_child(model, dataset, hp)

    monkeypatch.setattr(search_module, "train_child", checked_train_child)
    assert main(["derive", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(refs) == 2 and checked.count("search") == 4 and "derive" in checked


_COMMANDS_WITHOUT_NUMPY_MA = """
import json, sys
from pathlib import Path
from gnnsearch.cli import main
work = Path(sys.argv[1])
for name, cfg in json.loads(sys.argv[2]).items():
    path = work / f"{name}.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = work / name
    args = ["--config", str(path), "--out", str(out)]
    for command, *extra in (["search"], ["derive"], ["train", "--arch", "first-order,gcn,sum,relu,1,4"],
                            ["report", str(out / "search.log")]):
        assert main([command, *args, *extra]) == 0, (name, command)
print(sorted(m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma.")))
"""


def test_no_command_loads_numpy_ma(tmp_path):
    # np.unique, np.setdiff1d, np.intersect1d and np.median each import
    # numpy.ma, about 0.4 MB of modules that nothing here uses. A fresh
    # interpreter, so that no test or plugin has loaded it already.
    configs = {
        "sbm": {**BASE_CFG, "param_sharing": True},
        "multigraph": {**BASE_CFG, "dataset": "multigraph", "graph_count": 3, "nodes_per_graph": 8,
                       "label_count": 2},
    }
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run(
        [sys.executable, "-c", _COMMANDS_WITHOUT_NUMPY_MA, str(tmp_path), json.dumps(configs)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"


# ---------------------------------------------------------------------------
# config validation


def test_unknown_key_is_rejected(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"episodess": 3}), encoding="utf-8")
    assert main(["search", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "unknown config key 'episodess'" in capsys.readouterr().err


def test_sampling_options_is_not_a_key(tmp_path, capsys):
    # Sampling has one option, so the key could only restate its default.
    cfg = write_cfg(tmp_path, sampling_options=["first-order"])
    assert main(["search", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "unknown config key 'sampling_options'" in capsys.readouterr().err


def test_invalid_json_is_rejected(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("{", encoding="utf-8")
    assert main(["search", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert main(["search", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "out")]) == 2
    assert "config file not found" in capsys.readouterr().err


def test_type_mismatches_are_named(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"param_sharing": 1}), encoding="utf-8")
    assert main(["search", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "config key 'param_sharing' must be a boolean" in capsys.readouterr().err


def test_citation_dataset_requires_path(tmp_path, capsys):
    cfg = write_cfg(tmp_path, dataset="citation")
    assert main(["search", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "'path' is required" in capsys.readouterr().err


def test_citation_dataset_missing_file(tmp_path, capsys):
    cfg = write_cfg(tmp_path, dataset="citation", path=str(tmp_path / "missing.txt"))
    assert main(["search", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"cannot read {tmp_path / 'missing.txt'}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("head_options", [[1]], "'heads' holds non-int values [[1]]"),
        ("head_options", [True, 2], "'heads' holds non-int values [True]"),
        ("head_options", [1.0, 2], "'heads' holds non-int values [1.0]"),
        ("hidden_options", [4, "8"], "'hidden' holds non-int values ['8']"),
        ("attention_options", ["gcn", 1], "'attention' holds non-str values [1]"),
    ],
    ids=["nested-list", "bool", "float", "string-width", "integer-name"],
)
def test_malformed_option_lists_exit_cleanly(tmp_path, capsys, key, value, message):
    cfg = write_cfg(tmp_path, **{key: value})
    assert main(["search", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"option list {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra,flags",
    [({}, ["--seed", "-1"]), ({"data_seed": -3}, []), ({"dataset": "multigraph", "data_seed": -3}, [])],
    ids=["search-seed", "sbm-data-seed", "multigraph-data-seed"],
)
def test_negative_seeds_exit_cleanly(tmp_path, capsys, extra, flags):
    cfg = write_cfg(tmp_path, **extra)
    assert main(["search", "--config", str(cfg), "--out", str(tmp_path / "out"), *flags]) == 2
    assert "seed must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["lr", "controller_lr", "temperature"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), 10**400], ids=["nan", "inf", "huge-int"])
def test_non_finite_numbers_in_the_file_exit_cleanly(tmp_path, capsys, key, value):
    # json reads NaN and Infinity, which pass every "<= 0" check, and an
    # integer too large for a float.
    cfg = write_cfg(tmp_path, **{key: value})
    assert main(["search", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"config key {key!r} must be a finite number" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", ["nan", "inf", "-inf"])
def test_non_finite_number_flags_exit_cleanly(tmp_path, capsys, flag):
    log = tmp_path / "run.log"
    log.write_text("", encoding="utf-8")
    cfg = write_cfg(tmp_path)
    rc = main(["report", "--config", str(cfg), "--out", str(tmp_path / "report"), f"--threshold={flag}", str(log)])
    assert rc == 2
    assert "config key 'threshold' must be a finite number" in capsys.readouterr().err


def test_default_config_is_the_search_config_default():
    assert build_search_config(load_config(None)) == SearchConfig()


def test_readme_config_table_lists_every_key_and_strategy():
    # The key column names each key in backticks; quoted values are not keys.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| group | key (default) |", 1)[1].split("\n\n", 1)[0]
    cells = [line.split("|")[2] for line in table.splitlines()[2:]]
    keys = [key for cell in cells for key in re.findall(r"`([a-z_0-9]+)`", cell)]
    assert sorted(keys) == sorted(cli._SCHEMA)
    strategy_cell = re.search(r"`strategy` \(([^)]*)\)", table).group(1)
    assert tuple(re.findall(r'`"([^"]+)"`', strategy_cell)) == STRATEGIES


@pytest.mark.parametrize(
    "strategy, named", [("nas-like", ("child_epochs", "max_epochs")), ("enas-like", ("none",))], ids=["nas-like", "enas-like"]
)
def test_a_removed_strategy_exits_2_naming_its_equivalent(tmp_path, capsys, strategy, named):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["search", "--config", str(cfg), "--out", str(out), "--strategy", strategy]) == 2
    err = capsys.readouterr().err
    assert f"strategy: {strategy!r} was removed" in err
    assert all(word in err for word in named)
    assert not out.exists()


def test_search_and_random_ignore_exploration_without_sharing(tmp_path, capsys):
    # A strategy ignores the keys it does not use: with no store to warm,
    # exploration_epochs changes nothing.
    for command in ("search", "random"):
        logs = []
        for extra in ({}, {"exploration_epochs": 3}):
            out = tmp_path / f"{command}{len(logs)}"
            assert main([command, "--config", str(write_cfg(tmp_path, **extra)), "--out", str(out)]) == 0
            assert not (out / "store.npz").exists()
            logs.append(stripped_log(out / "search.log"))
        assert logs[0] == logs[1]
    capsys.readouterr()


@pytest.mark.parametrize("name", ["sbm-share", "multigraph-share"])
def test_every_command_runs_a_benchmark_workload_config(tmp_path, capsys, name):
    # The workload's own config, cut short: graphnas keys such as
    # param_sharing and exploration_epochs stay in it for random too.
    cfg = dict(workloads().dataset_config(name, 1, 0), episodes=3, derive_samples=2, max_epochs=3, patience=1)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    searched, randomized = tmp_path / "search", tmp_path / "random"
    common = ["--config", str(path), "--out"]
    assert main(["search", *common, str(searched)]) == 0
    assert main(["random", *common, str(randomized)]) == 0
    assert main(["derive", *common, str(searched)]) == 0
    arch = (searched / "derived.txt").read_text(encoding="utf-8")
    assert main(["train", *common, str(tmp_path / "train"), "--arch", arch]) == 0
    logs = [str(out / "search.log") for out in (searched, randomized)]
    assert main(["report", *common, str(tmp_path / "report"), *logs]) == 0
    assert len(read_csv(tmp_path / "report" / "report.csv")) == 3
    assert capsys.readouterr().err == ""


def test_a_search_builds_the_destination_levels_of_each_graph_once(tmp_path, capsys, monkeypatch):
    # generate_multigraph's label rule builds every graph's EdgePlan, and
    # the float32 cast hands it to the graph that the children train on.
    made, built = [], []
    make_dataset, levels_init = cli.make_dataset, ad.Levels.__init__

    def recorded_make(cfg):
        made.append(make_dataset(cfg))
        return made[-1]

    def recorded_init(self, ids, n, order):
        built.append(ids.ctypes.data)
        levels_init(self, ids, n, order)

    monkeypatch.setattr(cli, "make_dataset", recorded_make)
    monkeypatch.setattr(ad.Levels, "__init__", recorded_init)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(workloads().dataset_config("multigraph-share", 1, 0), episodes=1)), encoding="utf-8")
    assert main(["search", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    (dataset,) = made
    assert [built.count(graph.dst.ctypes.data) for graph in dataset.graphs] == [1] * len(dataset.graphs)
    capsys.readouterr()


@pytest.mark.parametrize("command", ["search", "random", "derive", "train", "report"])
def test_every_command_exits_2_on_memory_error(tmp_path, capsys, monkeypatch, command):
    def no_memory(cfg):
        raise MemoryError

    monkeypatch.setattr(cli, "make_dataset", no_memory)
    extra = {"train": ["--arch", "first-order,gcn,sum,relu,1,4"], "report": ["search.log"]}.get(command, [])
    assert main([command, "--config", str(write_cfg(tmp_path)), "--out", str(tmp_path / "out"), *extra]) == 2
    where = "train --arch first-order,gcn,sum,relu,1,4" if command == "train" else command
    assert capsys.readouterr().err == f"error: {where}: out of memory\n"


@pytest.mark.parametrize("command", ["search", "random", "derive", "train"])
def test_every_training_command_refuses_features_float32_cannot_hold(tmp_path, capsys, command):
    # The refusal comes from the one cast, before numpy can warn and, for
    # derive, before it looks for a controller.
    dataset = generate_sbm(2, 12, 0.3, 0.02, 6, 3.0, seed=1)
    graph = dataset.graphs[0]
    huge = dataclasses.replace(dataset, graphs=(make_graph(graph.node_count, graph.edges, graph.features * 1e200),))
    save_citation(huge, tmp_path / "huge.txt")
    cfg = write_cfg(tmp_path, dataset="citation", path=str(tmp_path / "huge.txt"))
    extra = ["--arch", "first-order,gcn,sum,relu,1,4"] if command == "train" else []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out"), *extra]) == 2
    assert re.fullmatch(r"error: graph 0: largest \|feature\| \S+e\+20\d overflows float32\n", capsys.readouterr().err)


_TRAIN_UNDER_AN_ADDRESS_SPACE_LIMIT = """
import resource, sys
from gnnsearch.cli import main
with open("/proc/self/statm") as fh:
    mapped = int(fh.read().split()[0]) * resource.getpagesize()
limit = mapped + (256 << 20)  # set after the imports, with 256 MB to spare
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
def test_train_exits_2_naming_the_arch_when_its_first_layer_cannot_be_allocated(tmp_path):
    # A real failed allocation: the first layer's w_t is [20000, 16 * 256]
    # float64, 655 MB, in a process allowed 256 MB more than it maps.
    cfg = write_cfg(tmp_path, feature_dim=20000, layer_count=2, head_options=[1, 16], hidden_options=[4, 256])
    arch = "first-order,gcn,sum,relu,16,256;first-order,gcn,sum,linear,1,4"
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run(
        [sys.executable, "-c", _TRAIN_UNDER_AN_ADDRESS_SPACE_LIMIT,
         "train", "--config", str(cfg), "--out", str(tmp_path / "out"), "--arch", arch],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
    )
    assert run.returncode == 2, run.stderr
    assert run.stderr.splitlines() == [f"error: train --arch {arch}: out of memory"]


# ---------------------------------------------------------------------------
# train


def test_train_single_run(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    rc = main(["train", "--config", str(cfg), "--out", str(out), "--arch", "first-order,const,sum,relu,1,4"])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "run=0 val=" in stdout and "sec_per_epoch=" in stdout

    rows = read_csv(out / "train.csv")
    assert rows[0] == ["name", "depth", "params", "sec_per_epoch", "metric_mean", "metric_std"]
    name, depth, params, _sec, _mean, std = rows[1]
    assert name == "first-order,const,sum,relu,1,4"
    assert depth == "1"
    # Single layer, last layer width equals the 2 classes: w_t is 6 x 2.
    assert params == "12"
    assert std == ""


def test_train_builds_float32_children_from_a_float64_dataset(tmp_path, capsys, monkeypatch):
    trained = []
    train_child = cli.train_child

    def recorded(model, dataset, hp):
        trained.append((dataset.feature_dtype, {p.data.dtype for p in model.parameters()}))
        return train_child(model, dataset, hp)

    monkeypatch.setattr(cli, "train_child", recorded)
    cfg = write_cfg(tmp_path, repeat=2)
    assert cli.make_dataset(load_config(str(cfg))).feature_dtype == np.float64
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path), "--arch", "first-order,gcn,sum,relu,1,4"]) == 0
    assert trained == [(np.float32, {np.dtype(np.float32)})] * 2


@pytest.mark.parametrize("arch", [
    "first-order,gcn,sum,relu,1,8",
    "first-order,gat,sum,elu,2,8;first-order,gcn,mean-pooling,relu,2,8;first-order,const,sum,linear,1,4",
    "first-order,gat,sum,elu,2,8,0,add;first-order,gcn,sum,linear,1,4,1,concat",
], ids=["1-layer", "3-layer", "skip"])
def test_train_takes_depth_and_skip_wiring_from_the_arch(tmp_path, capsys, arch):
    # The default space declares 2 layers without skips; report takes both
    # from its log the same way.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"max_epochs": 3, "patience": 3}), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["train", "--config", str(path), "--out", str(out), "--arch", arch]) == 0
    assert read_csv(out / "train.csv")[1][:2] == [arch, str(arch.count(";") + 1)]


def test_train_refuses_a_token_outside_the_config_option_lists(tmp_path, capsys):
    cfg = write_cfg(tmp_path, attention_options=["gcn", "const"])
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--arch", "first-order,gat,sum,relu,1,8"]) == 2
    assert "'gat' not in ('gcn', 'const')" in capsys.readouterr().err


def test_train_repeat_fills_std(tmp_path, capsys):
    cfg = write_cfg(tmp_path, repeat=2)
    out = tmp_path / "out"
    rc = main(["train", "--config", str(cfg), "--out", str(out), "--arch", "first-order,gcn,sum,relu,1,8"])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "run=0" in stdout and "run=1" in stdout
    rows = read_csv(out / "train.csv")
    assert rows[1][5] != ""


def test_train_rejects_malformed_arch(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "out"), "--arch", "first-order,zzz,sum,relu,1,4"])
    assert rc == 2
    assert "'zzz'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# derive


def test_derive_requires_a_checkpoint(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["derive", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "run search first" in capsys.readouterr().err


def test_derive_after_search(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["search", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["derive", "--config", str(cfg), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "val=" in stdout and "test=" in stdout
    derived = (out / "derived.txt").read_text().strip()
    assert derived.split(",")[0] == "first-order"


def _garbage_controller(out):
    (out / "controller.npz").write_bytes(b"not a checkpoint")


def _controller_without_meta(out):
    np.savez(out / "controller.npz", slot0__emb=np.zeros((2, 2)))


def _controller_without_a_parameter(out):
    with np.load(out / "controller.npz") as bundle:
        arrays = {name: bundle[name] for name in bundle.files if name != "slot0__emb"}
    np.savez(out / "controller.npz", **arrays)


def _controller_meta(out, edit):
    with np.load(out / "controller.npz") as bundle:
        arrays = {name: bundle[name] for name in bundle.files}
    meta = json.loads(bytes(arrays["__meta__"]).decode())
    arrays["__meta__"] = np.frombuffer(json.dumps(edit(meta)).encode(), dtype=np.uint8)
    np.savez(out / "controller.npz", **arrays)


def _controller_meta_without_hidden_size(out):
    _controller_meta(out, lambda meta: {k: v for k, v in meta.items() if k != "hidden_size"})


def _controller_meta_not_an_object(out):
    _controller_meta(out, lambda meta: [meta])


def _controller_space_with_unknown_key(out):
    _controller_meta(out, lambda meta: {**meta, "space": {**meta["space"], "depth": 3}})


def _controller_with_a_text_parameter(out):
    with np.load(out / "controller.npz") as bundle:
        arrays = {name: bundle[name] for name in bundle.files}
    arrays["slot0__emb"] = np.full(arrays["slot0__emb"].shape, "x")
    np.savez(out / "controller.npz", **arrays)


def _store_entry_without_separator(out):
    np.savez(out / "store.npz", noseparator=np.zeros(2))


def _single_array(name):
    """A file holding one ``np.save`` array under the archive's name."""
    def corrupt(out):
        with open(out / name, "wb") as fh:
            np.save(fh, np.zeros(2))
    return corrupt


@pytest.mark.parametrize(
    "corrupt,name,reason",
    [
        (_garbage_controller, "controller.npz", "is unreadable"),
        (_controller_without_meta, "controller.npz", "has no __meta__ entry"),
        (_controller_without_a_parameter, "controller.npz", "has no entry slot0.emb"),
        (_single_array("controller.npz"), "controller.npz", "is unreadable: it holds one array"),
        (_controller_meta_without_hidden_size, "controller.npz", "has no __meta__ field 'hidden_size'"),
        (_controller_meta_not_an_object, "controller.npz", "has a __meta__ that is not a JSON object"),
        (_controller_space_with_unknown_key, "controller.npz", "has a bad __meta__"),
        (_controller_with_a_text_parameter, "controller.npz", "entry slot0.emb holds <U1 values, not numbers"),
        (_store_entry_without_separator, "store.npz", "is unreadable"),
        (_single_array("store.npz"), "store.npz", "is unreadable: it holds one array"),
    ],
    ids=[
        "garbage-controller",
        "controller-without-meta",
        "controller-without-a-parameter",
        "single-array-controller",
        "controller-meta-without-hidden-size",
        "controller-meta-not-an-object",
        "controller-space-with-unknown-key",
        "controller-with-a-text-parameter",
        "store-entry-without-separator",
        "single-array-store",
    ],
)
def test_derive_rejects_bad_checkpoints(tmp_path, capsys, corrupt, name, reason):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["search", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    corrupt(out)
    assert main(["derive", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"{out / name} {reason}" in capsys.readouterr().err


def _without_a_r(arrays):
    del arrays[next(name for name in arrays if name.endswith("::a_r"))]


def _square_a_l(arrays):
    arrays[next(name for name in arrays if name.endswith("::a_l"))] = np.zeros((3, 3))


def _nan_w_t(arrays):
    name = next(name for name in arrays if name.endswith("::w_t"))
    arrays[name] = np.full(arrays[name].shape, np.nan)


@pytest.mark.parametrize(
    "edit,reason",
    [
        (_without_a_r, "holds ['a_l', 'w_t'], its kinds own ['a_l', 'a_r', 'w_t']"),
        (_square_a_l, "has a_l of shape (3, 3), not (1, "),
        (_nan_w_t, "holds non-finite values"),
    ],
    ids=["entry-without-a_r", "entry-with-a-square-a_l", "entry-with-a-nan-w_t"],
)
def test_derive_rejects_a_store_entry_unlike_its_kinds(tmp_path, capsys, edit, reason):
    cfg = write_cfg(tmp_path, param_sharing=True, exploration_epochs=2, attention_options=["gat"])
    out = tmp_path / "out"
    assert main(["search", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    with np.load(out / "store.npz") as bundle:
        arrays = {name: bundle[name] for name in bundle.files}
    assert all("|gat|" in name for name in arrays)
    edit(arrays)
    np.savez(out / "store.npz", **arrays)
    assert main(["derive", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: sharing store {out / 'store.npz'}: entry ShareKey(")
    assert reason in err


# ---------------------------------------------------------------------------
# report


def test_report_over_two_logs(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["search", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    log_a = tmp_path / "alpha.log"
    log_b = tmp_path / "beta.log"
    shutil.copy(out / "search.log", log_a)
    shutil.copy(out / "search.log", log_b)

    report_dir = tmp_path / "report"
    rc = main([
        "report", "--config", str(cfg), "--out", str(report_dir),
        "--threshold", "0.5", str(log_a), str(log_b),
    ])
    assert rc == 0
    assert "2 curve file(s)" in capsys.readouterr().out

    rows = read_csv(report_dir / "report.csv")
    assert len(rows) == 3
    assert rows[1][0] == "alpha" and rows[2][0] == "beta"

    curve = read_csv(report_dir / "curve_alpha.csv")
    assert curve[0] == ["episode", "best_reward", "above_threshold"]
    best = [float(row[1]) for row in curve[1:]]
    above = [int(row[2]) for row in curve[1:]]
    assert best == sorted(best)
    assert above == sorted(above)
    assert (report_dir / "curve_beta.csv").exists()


def test_report_counts_params_without_drawing_them(tmp_path, capsys):
    # Over 1,433 features and 7 classes this arch holds 10,096,640
    # parameters: 81 MB in float64, were they drawn to be counted.
    arch = "first-order,gene-linear,mlp,relu,16,256;first-order,gcn,sum,relu,1,8"
    (tmp_path / "one.log").write_text(EpisodeRecord(0, arch, 0.5, 0.1, 0.4, 12.0).to_line() + "\n", encoding="utf-8")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"feature_dim": 1433, "block_count": 7, "nodes_per_block": 10}), encoding="utf-8")
    tracemalloc.start()
    try:
        assert main(["report", "--config", str(cfg), "--out", str(tmp_path / "report"), str(tmp_path / "one.log")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert read_csv(tmp_path / "report" / "report.csv")[1][2] == "10096640"
    assert peak < 10e6


def test_report_gives_seconds_per_episode(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["search", "--config", str(cfg), "--out", str(out)]) == 0
    report_dir = tmp_path / "report"
    assert main(["report", "--config", str(cfg), "--out", str(report_dir), str(out / "search.log")]) == 0
    rows = read_csv(report_dir / "report.csv")
    assert rows[0] == ["name", "depth", "params", "sec_per_episode", "metric_mean", "metric_std"]
    # the first episode pays warm-up costs and is left out
    wall = [float(line.split("\t")[5]) / 1000.0 for line in (out / "search.log").read_text().splitlines()[1:]]
    assert rows[1][3] == f"{float(np.median(wall)):.10g}"


def test_report_without_config_infers_depth_from_log(tmp_path, capsys):
    # The log's arch strings carry their own layer structure, so report
    # must not need the search config (whose default depth differs).
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["search", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()

    report_dir = tmp_path / "report"
    rc = main(["report", "--out", str(report_dir), str(out / "search.log")])
    assert rc == 0
    rows = read_csv(report_dir / "report.csv")
    assert rows[1][0] == "search"
    assert rows[1][1] == "1"
    assert int(rows[1][2]) > 0


def test_report_disambiguates_stem_collisions(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["search", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    other = tmp_path / "other"
    other.mkdir()
    shutil.copy(out / "search.log", other / "search.log")
    report_dir = tmp_path / "report"
    rc = main([
        "report", "--config", str(cfg), "--out", str(report_dir),
        str(out / "search.log"), str(other / "search.log"),
    ])
    assert rc == 0
    capsys.readouterr()
    assert (report_dir / "curve_search.csv").exists()
    assert (report_dir / "curve_search_1.csv").exists()

    # A raised suffix must not land on a stem another log already has.
    paths = []
    for folder, name in (("d1", "x"), ("d2", "x_2"), ("d3", "x")):
        (tmp_path / folder).mkdir()
        paths.append(tmp_path / folder / f"{name}.log")
        shutil.copy(out / "search.log", paths[-1])
    rc = main(["report", "--config", str(cfg), "--out", str(report_dir), *map(str, paths)])
    assert rc == 0
    assert "3 curve file(s)" in capsys.readouterr().out
    names = [row[0] for row in read_csv(report_dir / "report.csv")[1:]]
    assert names == ["x", "x_2", "x_3"]
    assert all((report_dir / f"curve_{name}.csv").exists() for name in names)


def test_report_missing_log(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    rc = main(["report", "--config", str(cfg), "--out", str(tmp_path / "r"), str(tmp_path / "nope.log")])
    assert rc == 2
    assert "log file not found" in capsys.readouterr().err


def test_report_needs_at_least_one_log(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["report", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    assert "at least one" in capsys.readouterr().err


@pytest.mark.parametrize("top_k", [0, -1])
def test_report_rejects_top_k_below_one(tmp_path, capsys, top_k):
    cfg = write_cfg(tmp_path, top_k=top_k)
    log = tmp_path / "one.log"
    log.write_text("0\tfirst-order,gcn,sum,relu,1,4\t0.5\t0.1\t0.4\t1.0\n", encoding="utf-8")
    assert main(["report", "--config", str(cfg), "--out", str(tmp_path / "r"), str(log)]) == 2
    assert f"top_k: must be at least 1, got {top_k}" in capsys.readouterr().err
    assert not (tmp_path / "r" / "report.csv").exists()


def test_report_names_the_bad_log_line(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    log = tmp_path / "bad.log"
    log.write_text(
        "0\tfirst-order,gcn,sum,relu,1,4\t0.5\t0.1\t0.4\t1.0\n"
        "1\tfirst-order,gcn,sum,relu,1,4\tnan?\t0.1\t0.4\t1.0\n",
        encoding="utf-8",
    )
    assert main(["report", "--config", str(cfg), "--out", str(tmp_path / "r"), str(log)]) == 2
    err = capsys.readouterr().err
    assert f"log file {log}, line 2: log column 3 (raw_reward) is not a number: 'nan?'" in err
