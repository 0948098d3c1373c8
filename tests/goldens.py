"""Behaviour goldens: sha256 digests of results a version keeps bit for bit.

``tests/golden/<version>.json`` holds, for one package version:

- for cycle 0 of the ``sbm-share`` and ``multigraph-share`` benchmark
  workloads, at three seeds each and with the configs of
  ``perfbench/workloads.py``: ``search.log`` columns 1-5, the controller
  checksum and the store arrays;
- for cycle 0 of the ``surrogate`` workload: ``search.log`` columns 1-5 and
  the controller checksum;
- for each attention x aggregation kind, in float32 and float64, on a small
  SBM and a small multigraph: a 2-layer child's logits, loss and every
  gradient of one training step per graph.

GEMM bits depend on the BLAS build and the CPU, so the file also records
the fingerprint it was written on (``fingerprint``); ``test_goldens.py``
compares only on an equal one. A version bump writes its file with

    PYTHONPATH=src python tests/goldens.py

which refuses to overwrite the file of an existing version.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import platform
import sys
from pathlib import Path

import numpy as np

import gnnsearch
from gnnsearch import autodiff as ad
from gnnsearch import cli
from gnnsearch.arch import AGGREGATION, ATTENTION, decode
from gnnsearch.gnn import build_model, forward
from gnnsearch.graphs import generate_multigraph, generate_sbm
from gnnsearch.search import search

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_PATH = ROOT / "tests" / "golden" / f"{gnnsearch.__version__}.json"
SEARCH_CASES = [(name, seed) for name in ("sbm-share", "multigraph-share") for seed in (1, 2, 3)]
SURROGATE_SEED = 1
CHILD_CASES = [(dataset, dtype) for dataset in ("sbm", "multigraph") for dtype in ("float32", "float64")]


def workloads():
    """``perfbench/workloads.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fingerprint() -> dict:
    """What the bits of a GEMM depend on: numpy, its BLAS build and the CPU."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"numpy": np.__version__, "blas": blas, "cpu": cpu}


def digest(arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        h.update(f"{array.dtype}{array.shape}".encode())
        h.update(array.tobytes())
    return h.hexdigest()


def _log_digest(log) -> str:
    text = "".join(record.to_line().rsplit("\t", 1)[0] + "\n" for record in log)
    return hashlib.sha256(text.encode()).hexdigest()


def search_cycle(name: str, seed: int) -> dict:
    """Cycle 0 of a dataset workload, as ``gnnsearch search`` runs it."""
    cfg = cli.load_config(None, workloads().dataset_config(name, seed, 0))
    log = search(cli.build_search_config(cfg), dataset=cli.make_dataset(cfg), space=cli.build_space(cfg))
    store = hashlib.sha256()
    for key, entry in sorted(log.store.entries.items(), key=lambda item: repr(item[0])):
        store.update(f"{key!r}{list(entry)}{digest(entry.values())}".encode())
    return {"log": _log_digest(log), "controller": log.controller.checksum(), "store": store.hexdigest()}


def surrogate_cycle(seed: int) -> dict:
    """Cycle 0 of the surrogate workload, as ``perfbench/run.py`` runs it."""
    bench = workloads()
    space, landscape = bench.surrogate_inputs(seed)
    log = search(bench.surrogate_config(seed, 0), space=space, reward_table=landscape)
    return {"log": _log_digest(log), "controller": log.controller.checksum()}


def _child_dataset(name: str):
    if name == "sbm":
        return generate_sbm(2, 15, 0.3, 0.05, 6, 1.0, seed=3)
    return generate_multigraph(3, 12, 4.0, 6, 3, seed=3)


def child_steps(dataset_name: str, dtype: str) -> dict:
    """Per "attention,aggregation" kind: the digest of a 2-layer child's
    logits, loss and gradients over one dropout training step per graph."""
    dataset = _child_dataset(dataset_name).with_feature_dtype(np.dtype(dtype))
    out = {}
    for attention in ATTENTION:
        for aggregation in AGGREGATION:
            arch = decode(f"first-order,{attention},{aggregation},relu,2,4;"
                          f"first-order,{attention},{aggregation},linear,1,4")
            model = build_model(arch, dataset.feature_dim, dataset.class_count, np.random.default_rng(0),
                                dtype=dataset.feature_dtype)
            params = model.parameters()
            rng = np.random.default_rng(1)
            arrays = []
            for graph, labels, mask in zip(dataset.graphs, dataset.labels, dataset.masks):
                if not mask.train.size:
                    continue
                logits = forward(model, graph, training=True, rng=rng, dropout_p=0.5)
                loss = ad.loss(dataset.task_kind, logits, labels, mask.train, l2_lambda=5e-4, l2_params=params)
                ad.zero_grads(params)
                loss.backward()
                arrays += [logits.data, loss.data, *(p.grad for p in params)]
            out[f"{attention},{aggregation}"] = digest(arrays)
    return out


def compute() -> dict:
    return {
        "version": gnnsearch.__version__,
        "fingerprint": fingerprint(),
        "search": {f"{name}/seed{seed}": search_cycle(name, seed) for name, seed in SEARCH_CASES},
        "surrogate": {f"seed{SURROGATE_SEED}": surrogate_cycle(SURROGATE_SEED)},
        "children": {f"{dataset}/{dtype}": child_steps(dataset, dtype) for dataset, dtype in CHILD_CASES},
    }


def main() -> int:
    if GOLDEN_PATH.exists():
        print(f"error: {GOLDEN_PATH} exists; goldens are written once per version", file=sys.stderr)
        return 1
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
