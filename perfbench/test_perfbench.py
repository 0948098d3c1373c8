"""Tests of the benchmark itself. Run with: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gnnsearch  # noqa: E402
import gnnsearch.cli  # noqa: E402
from gnnsearch.arch import random_arch, slot_specs  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_seed_gives_the_same_config_and_landscape():
    for name in workloads.DATASET_WORKLOADS:
        for cycle in (0, 1, 5):
            assert workloads.dataset_config(name, 7, cycle) == workloads.dataset_config(name, 7, cycle)
        first = workloads.dataset_config(name, 7, 0)
        assert first["seed"] == first["data_seed"] == 7
        assert workloads.dataset_config(name, 8, 0) != first
        # Later cycles are the panel: the same in every run, different from each other.
        assert workloads.dataset_config(name, 7, 1) == workloads.dataset_config(name, 8, 1)
        assert workloads.dataset_config(name, 7, 1) != workloads.dataset_config(name, 7, 2)
    assert workloads.surrogate_config(7, 2) == workloads.surrogate_config(7, 2)
    _space, a = workloads.surrogate_inputs(7)
    _space, b = workloads.surrogate_inputs(7)
    _space, c = workloads.surrogate_inputs(8)
    assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
    assert not all(np.array_equal(x, y) for x, y in zip(a.weights, c.weights))


def test_landscape_answers_every_arch_of_the_two_layer_space():
    space, landscape = workloads.surrogate_inputs(3)
    slots = slot_specs(space)
    widest = max(len(slot.options) for slot in slots)
    # Every option of every slot, then a random sample of whole architectures.
    tokens = [[i % len(slot.options) for slot in slots] for i in range(widest)]
    archs = [gnnsearch.arch.arch_from_tokens(space, t) for t in tokens]
    rng = np.random.default_rng(0)
    archs += [random_arch(space, rng) for _ in range(2000)]
    for arch in archs:
        key = gnnsearch.encode(arch, sep=";")
        assert key in landscape
        indices = [i for layer in arch.layers for i in (layer.sampling, layer.attention, layer.aggregation,
                                                        layer.activation, layer.heads, layer.hidden)]
        expected = 0.2 + 0.75 * sum(w[i] for w, i in zip(landscape.weights, indices)) / landscape.peak
        assert landscape[key] == pytest.approx(expected, abs=1e-12)
        assert 0.2 <= landscape[key] <= 0.95
    good = gnnsearch.encode(archs[0], sep=";")
    for bad in ("", good.replace(";", ","), good + ";" + good.split(";")[0], good.replace("first-order", "x"), 3):
        assert bad not in landscape


def test_percentile_rule_keeps_ten_samples_beyond():
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(99) == 50.0
    assert run.tail_percentile(1000) == 99.0
    assert run.tail_percentile(999) == 90.0
    assert run.tail_percentile(10_000) == 99.9
    assert run.tail_percentile(19) is None
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 90) == 90
    assert run.percentile([5.0], 99) == 5.0


def test_self_time_on_a_hand_built_span_tree():
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["b", 3.0, 6.0, 0, None],   # overlaps a: together they cover 1..6
        ["a.child", 2.0, 3.0, 1, None],
        ["late", 9.0, 12.0, 0, None],  # ends after its parent: only 9..10 counts
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])
    table = tracing.span_table(spans)
    assert table["root"] == pytest.approx({"calls": 1, "total_ms": 10_000.0, "self_ms": 4_000.0})


def test_output_checks_reject_bad_logs():
    good = ["0\ta\t0.5\t0.5\t0.5\t1.0", "1\tb\t0.25\t-0.1\t0.4\t2.0"]
    rows = run.check_log(good, 2)
    with pytest.raises(run.CheckFailed):
        run.check_log(good, 3)
    with pytest.raises(run.CheckFailed):
        run.check_log(["0\ta\t1.5\t0\t0\t1"], 1)
    with pytest.raises(run.CheckFailed):
        run.check_log(["0\ta\t0.5\t0\t0"], 1)
    run.check_same_columns(rows, [r[:5] + ["9.9"] for r in rows], "timing column may differ")
    with pytest.raises(run.CheckFailed):
        run.check_same_columns(rows, [["0", "a", "0.5", "0.5", "0.49", "1.0"], rows[1]], "reward columns may not")
    with pytest.raises(run.CheckFailed):
        run.check_same_columns(rows, rows[:1], "nor the record count")
    run.check_learning([0.1] * 10 + [0.9] * 10)
    with pytest.raises(run.CheckFailed):
        run.check_learning([0.9] * 10 + [0.1] * 10)


def _small_search(out: Path) -> list:
    cfg = dict(workloads.dataset_config("sbm-share", 2, 0), nodes_per_block=20, p_in=0.2,
               episodes=3, exploration_epochs=2, child_epochs=1, derive_samples=2, max_epochs=2, patience=1)
    out.mkdir()
    (out / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
    args = ["--config", str(out / "config.json"), "--out", str(out)]
    assert gnnsearch.cli.main(["search", *args]) == 0
    assert gnnsearch.cli.main(["derive", *args]) == 0
    return run.check_log((out / "search.log").read_text(encoding="utf-8").splitlines(), 3)


def test_traced_run_writes_the_same_log_as_an_untraced_one(tmp_path):
    plain = _small_search(tmp_path / "plain")
    search_module = tracing.module("gnnsearch.search")
    before = (search_module.train_child, gnnsearch.autodiff.Tape.__dict__["trace"],
              gnnsearch.Controller.__dict__["sample"])
    tracer, gc_probe = tracing.Tracer(), tracing.GcProbe()
    tracing.install_spans(tracer)
    gc_probe.install()
    try:
        traced = _small_search(tmp_path / "traced")
    finally:
        gc_probe.remove()
        tracer.remove()
    run.check_same_columns(plain, traced, "traced run")
    assert (search_module.train_child, gnnsearch.autodiff.Tape.__dict__["trace"],
            gnnsearch.Controller.__dict__["sample"]) == before
    names = {span[0] for span in tracer.spans}
    for name in ("graphs.build", "search.search", "search.derive", "search.exploration", "gnn.train",
                 "gnn.forward_train", "gnn.forward_eval", "autodiff.segment_softmax", "autodiff.backward",
                 "autodiff.adam", "controller.sample", "controller.reinforce", "cli.checkpoint"):
        assert name in names
    metrics = tracing.layer_metrics(tracer.spans, gc_probe)
    assert metrics["gnn.train_calls"][0] == 2 + 3 + 2 + 1  # exploration, episodes, candidates, retrain
    assert metrics["controller.reinforce_calls"][0] == 3
    assert metrics["search.store_lookups"][0] > 0


def test_benchmark_json_names_what_the_run_prints():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    units = {name: unit for name, (_value, unit) in tracing.layer_metrics([], tracing.GcProbe()).items()}
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {**units, **run.TRACED_OUTCOMES}


def test_failure_probe_counts_training_errors_and_reraises(monkeypatch):
    search_module = tracing.module("gnnsearch.search")
    training_error = tracing.module("gnnsearch.errors").TrainingError

    def diverges(*args, **kwargs):
        raise training_error("non-finite training loss at epoch 3", 3)

    monkeypatch.setattr(search_module, "train_child", diverges)
    probe = tracing.FailureProbe()
    probe.install()
    try:
        with pytest.raises(training_error):
            search_module.train_child(None, None, None)
    finally:
        probe.remove()
    assert (probe.calls, probe.failures) == (1, 1)
    assert search_module.train_child is diverges
