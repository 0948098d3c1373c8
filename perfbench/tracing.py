"""Spans and probes taken from outside gnnsearch.

Nothing here edits the package: each probe replaces the attribute that
callers look up (a module global or a class attribute) with a wrapper
and puts the original back afterwards. Spans stay in memory; the caller
writes them out when the run ends.

One trap: ``gnnsearch/__init__.py`` re-exports the ``search`` function
under the submodule's name, so ``import gnnsearch.search as m`` yields
the function. Modules are therefore taken from ``sys.modules``.
"""

from __future__ import annotations

import functools
import gc
import inspect
import os
import sys
import time


def module(name: str):
    """The loaded module object, even where a package attribute shadows it."""
    return sys.modules[name]


def _swap(owner, attr: str, make_wrapper):
    """Replace ``owner.attr`` by ``make_wrapper(target)``; returns an undo."""
    raw = inspect.getattr_static(owner, attr)
    bound = isinstance(raw, (classmethod, staticmethod))
    target = getattr(owner, attr) if bound else raw
    wrapper = functools.wraps(target)(make_wrapper(target))
    setattr(owner, attr, staticmethod(wrapper) if bound else wrapper)
    return lambda: setattr(owner, attr, raw)


class FailureProbe:
    """Counts child trainings and the ``TrainingError``s they raise.

    A pass-through: the error is re-raised, so search behaves as before.
    It stays installed for the whole run, traced or not.
    """

    def __init__(self):
        self.calls = 0
        self.failures = 0
        self._undo = []

    def install(self):
        training_error = module("gnnsearch.errors").TrainingError

        def make(train_child):
            def counted(*args, **kwargs):
                self.calls += 1
                try:
                    return train_child(*args, **kwargs)
                except training_error:
                    self.failures += 1
                    raise

            return counted

        self._undo.append(_swap(module("gnnsearch.search"), "train_child", make))

    def remove(self):
        while self._undo:
            self._undo.pop()()


class GcProbe:
    """Collections and pause time per generation, via ``gc.callbacks``."""

    def __init__(self):
        self.count = [0, 0, 0]
        self.pause_s = [0.0, 0.0, 0.0]
        self.max_s = [0.0, 0.0, 0.0]
        self._started = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._started = time.perf_counter()
            return
        pause = time.perf_counter() - self._started
        generation = info["generation"]
        self.count[generation] += 1
        self.pause_s[generation] += pause
        self.max_s[generation] = max(self.max_s[generation], pause)

    def install(self):
        gc.callbacks.append(self)

    def remove(self):
        if self in gc.callbacks:
            gc.callbacks.remove(self)


class Tracer:
    """Records one span per wrapped call: name, start, end, parent.

    ``spans[i]`` is ``[name, start, end, parent_index, info]``; the parent
    is the span open when the call began (-1 at top level). ``info``
    holds counts read from the call's result.
    """

    def __init__(self):
        self.spans: list = []
        self._open: list = []
        self._undo: list = []

    def wrap(self, owner, attr: str, name, on_result=None):
        """Trace calls to ``owner.attr``.

        ``name`` is a span name or a function of the call's arguments
        returning one; ``on_result(info, args, kwargs, result)`` may add
        counts to the span.
        """
        spans, opened = self.spans, self._open
        clock = time.perf_counter

        def make(target):
            def traced(*args, **kwargs):
                index = len(spans)
                span = [name(args, kwargs) if callable(name) else name, clock(), None,
                        opened[-1] if opened else -1, None]
                spans.append(span)
                opened.append(index)
                try:
                    result = target(*args, **kwargs)
                except BaseException as err:
                    span[4] = {"error": type(err).__name__}
                    raise
                finally:
                    span[2] = clock()
                    opened.pop()
                if on_result is not None:
                    span[4] = {}
                    on_result(span[4], args, kwargs, result)
                return result

            return traced

        self._undo.append(_swap(owner, attr, make))

    def remove(self):
        while self._undo:
            self._undo.pop()()


# ---------------------------------------------------------------------------
# probe points


def _forward_name(args, kwargs):
    training = kwargs.get("training", args[2] if len(args) > 2 else False)
    return "gnn.forward_train" if training else "gnn.forward_eval"


def install_spans(tracer: Tracer) -> None:
    """Wrap every probe point, each where its callers look it up."""
    ad = module("gnnsearch.autodiff")
    gnn = module("gnnsearch.gnn")
    search = module("gnnsearch.search")
    cli = module("gnnsearch.cli")
    controller = module("gnnsearch.controller")

    def tape_nodes(info, args, kwargs, tape):
        info["nodes"] = len(tape.nodes)

    trace = ad.Tape.trace  # taken before it is wrapped, so this probe adds no span

    def sample_nodes(info, args, kwargs, episode):
        info["nodes"] = len(trace(episode.log_prob_node))

    def trained(info, args, kwargs, result):
        info["epochs"] = result.epochs_ran
        info["opt_steps"] = result.opt_steps

    def merged(info, args, kwargs, accepted):
        info["accepted"] = bool(accepted)

    def searched(info, args, kwargs, log):
        store = log.store
        if store is not None:
            info["hits"], info["misses"] = store.hits, store.misses
            info["entries"] = len(store)
            info["bytes"] = sum(a.nbytes for entry in store.entries.values() for a in entry.values())

    def saved_store(info, args, kwargs, _none):
        path = str(args[1])
        info["bytes"] = os.path.getsize(path if path.endswith(".npz") else path + ".npz")

    tracer.wrap(cli, "generate_sbm", "graphs.build")
    tracer.wrap(cli, "generate_multigraph", "graphs.build")
    tracer.wrap(cli, "search", "search.search", searched)
    tracer.wrap(cli, "derive", "search.derive")
    tracer.wrap(cli, "save_controller", "cli.checkpoint")
    tracer.wrap(cli, "load_controller", "cli.checkpoint")
    tracer.wrap(cli, "save_store", "cli.checkpoint", saved_store)
    tracer.wrap(cli, "load_store", "cli.checkpoint")
    # gnnsearch.search() is also called directly by the surrogate workload.
    tracer.wrap(module("gnnsearch"), "search", "search.search", searched)
    tracer.wrap(search, "exploration_phase", "search.exploration")
    tracer.wrap(search, "merge_if_positive", "search.merge", merged)
    tracer.wrap(search, "reinforce_step", "controller.reinforce")
    tracer.wrap(search, "build_model", "gnn.build")
    tracer.wrap(search, "train_child", "gnn.train", trained)
    tracer.wrap(controller.Controller, "sample", "controller.sample", sample_nodes)
    tracer.wrap(gnn, "forward", _forward_name)
    tracer.wrap(gnn, "evaluate", "gnn.evaluate")
    for op in ("head_matmul", "gather_rows", "segment_sum", "segment_max", "segment_softmax"):
        tracer.wrap(ad, op, f"autodiff.{op}")
    tracer.wrap(ad, "adam_step", "autodiff.adam")
    tracer.wrap(ad.Tensor, "backward", "autodiff.backward")
    tracer.wrap(ad.Tape, "trace", "autodiff.tape", tape_nodes)


# ---------------------------------------------------------------------------
# analysis


def self_times(spans: list) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict = {}
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children.setdefault(span[3], []).append(index)
    out = []
    for index, (_name, start, end, _parent, _info) in enumerate(spans):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted((spans[c][1], spans[c][2]) for c in children.get(index, ())):
            child_start, child_end = max(child_start, reach), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        out.append((end - start) - covered)
    return out


def span_table(spans: list) -> dict:
    """Per span name: calls, total ms and self ms."""
    table: dict = {}
    for span, self_s in zip(spans, self_times(spans)):
        row = table.setdefault(span[0], {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["total_ms"] += (span[2] - span[1]) * 1000.0
        row["self_ms"] += self_s * 1000.0
    return table


def _ancestor(spans: list, index: int, names: tuple):
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return spans[parent][0]
        parent = spans[parent][3]
    return None


def layer_metrics(spans: list, gc_probe: GcProbe) -> dict:
    """The per-layer metrics, by name, as (value, unit) pairs."""
    table = span_table(spans)

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def total(name):
        return table.get(name, {}).get("total_ms", 0.0)

    def own(name):
        return table.get(name, {}).get("self_ms", 0.0)

    def info_sum(name, key):
        return sum((s[4] or {}).get(key, 0) for s in spans if s[0] == name)

    m = {}
    m["graphs.build_ms"] = (total("graphs.build"), "ms")
    samples = calls("controller.sample")
    m["controller.sample_calls"] = (samples, "count")
    m["controller.sample_ms"] = (total("controller.sample"), "ms")
    m["controller.tape_nodes_per_sample"] = (info_sum("controller.sample", "nodes") / samples if samples else 0.0, "count")
    m["controller.reinforce_calls"] = (calls("controller.reinforce"), "count")
    m["controller.reinforce_ms"] = (total("controller.reinforce"), "ms")
    for op in ("head_matmul", "gather_rows", "segment_sum", "segment_max", "segment_softmax"):
        m[f"autodiff.{op}_calls"] = (calls(f"autodiff.{op}"), "count")
        m[f"autodiff.{op}_fwd_ms"] = (own(f"autodiff.{op}"), "ms")
    m["autodiff.backward_calls"] = (calls("autodiff.backward"), "count")
    m["autodiff.backward_ms"] = (total("autodiff.backward"), "ms")
    m["autodiff.tape_nodes"] = (info_sum("autodiff.tape", "nodes"), "count")

    adam = {"gnn.train": [0, 0.0], "controller.reinforce": [0, 0.0]}
    for index, span in enumerate(spans):
        if span[0] == "autodiff.adam":
            caller = _ancestor(spans, index, tuple(adam))
            if caller is not None:
                adam[caller][0] += 1
                adam[caller][1] += (span[2] - span[1]) * 1000.0
    m["autodiff.adam_calls"] = (calls("autodiff.adam"), "count")
    m["autodiff.adam_ms"] = (total("autodiff.adam"), "ms")
    m["autodiff.adam_child_calls"] = (adam["gnn.train"][0], "count")
    m["autodiff.adam_child_ms"] = (adam["gnn.train"][1], "ms")
    m["autodiff.adam_controller_calls"] = (adam["controller.reinforce"][0], "count")
    m["autodiff.adam_controller_ms"] = (adam["controller.reinforce"][1], "ms")

    m["gnn.build_calls"] = (calls("gnn.build"), "count")
    m["gnn.build_ms"] = (total("gnn.build"), "ms")
    m["gnn.train_calls"] = (calls("gnn.train"), "count")
    m["gnn.train_ms"] = (total("gnn.train"), "ms")
    m["gnn.epochs"] = (info_sum("gnn.train", "epochs"), "count")
    m["gnn.opt_steps"] = (info_sum("gnn.train", "opt_steps"), "count")
    m["gnn.failed_children"] = (
        sum(1 for s in spans if s[0] == "gnn.train" and (s[4] or {}).get("error") == "TrainingError"), "count")
    m["gnn.forward_train_ms"] = (total("gnn.forward_train"), "ms")
    m["gnn.forward_eval_ms"] = (total("gnn.forward_eval"), "ms")
    m["gnn.evaluate_ms"] = (total("gnn.evaluate"), "ms")

    hits, misses = info_sum("search.search", "hits"), info_sum("search.search", "misses")
    m["search.store_lookups"] = (hits + misses, "count")
    m["search.store_hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    m["search.store_entries"] = (info_sum("search.search", "entries"), "count")
    m["search.store_mb"] = (info_sum("search.search", "bytes") / 2**20, "MB")
    merges = calls("search.merge")
    accepted = info_sum("search.merge", "accepted")
    m["search.merge_calls"] = (merges, "count")
    m["search.merge_accepted"] = (accepted, "count")
    m["search.merge_accept_ratio"] = (accepted / merges if merges else 0.0, "ratio")
    m["search.merge_ms"] = (total("search.merge"), "ms")
    m["search.exploration_ms"] = (total("search.exploration"), "ms")
    retrain = 0.0
    for index, span in enumerate(spans):
        if span[0] == "search.derive":
            trains = [s for s in spans if s[3] == index and s[0] == "gnn.train"]
            if trains:
                retrain += (trains[-1][2] - trains[-1][1]) * 1000.0
    m["search.derive_score_ms"] = (total("search.derive") - retrain, "ms")
    m["search.derive_retrain_ms"] = (retrain, "ms")
    m["search.self_ms"] = (own("search.search"), "ms")
    m["cli.checkpoint_ms"] = (total("cli.checkpoint"), "ms")
    m["cli.store_file_mb"] = (info_sum("cli.checkpoint", "bytes") / 2**20, "MB")

    m["runtime.gc_pause_ms"] = (sum(gc_probe.pause_s) * 1000.0, "ms")
    m["runtime.gc_gen2_collections"] = (gc_probe.count[2], "count")
    m["runtime.gc_gen2_max_ms"] = (gc_probe.max_s[2] * 1000.0, "ms")
    return m
