"""The error of float32 child gradients against float64, per attention x
aggregation kind.

For each kind a 2-layer child is built twice from one seed, in float64 and
in float32, and one training step without dropout gives each dtype's
gradients. Two errors are read over all of a child's gradients at once,
so a gradient that is 0 by construction (float64 reads it at 1e-17, and
float32 at 1e-9) weighs by its size:

- ``norm``: the norm-relative error of the float32 gradients
  (``conftest.rel_err``);
- ``elementwise``: the largest elementwise error, max |g32 - g64| over
  max |g64|.

Run by hand (tier-1 does not run it); it prints a JSON table for a
PPI-shaped graph (about 2,400 nodes, 50 features, 121 labels):

    PYTHONPATH=src python tests/gradient_errors.py

``tests/test_numerics.py`` reads ``errors`` on small fixtures.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from gnnsearch import autodiff as ad
from gnnsearch.arch import AGGREGATION, ATTENTION, decode
from gnnsearch.gnn import build_model, forward
from gnnsearch.graphs import generate_multigraph

from conftest import rel_err

ARCH = "first-order,{att},{agg},relu,4,16;first-order,{att},{agg},linear,1,8"


def errors(dataset, arch: str, graphs: int | None = None, seed: int = 0) -> dict:
    """(norm, elementwise) of one step per training graph (the first
    ``graphs`` of them), on ``dataset``'s float64 features and their
    float32 cast."""
    grads = {}
    for dtype in (np.float64, np.float32):
        data = dataset.with_feature_dtype(np.dtype(dtype))
        model = build_model(decode(arch), data.feature_dim, data.class_count, np.random.default_rng(seed),
                            dtype=data.feature_dtype)
        params = model.parameters()
        steps = [step for step in zip(data.graphs, data.labels, data.masks) if step[2].train.size][:graphs]
        flat = []
        for graph, labels, mask in steps:
            ad.zero_grads(params)
            ad.loss(data.task_kind, forward(model, graph), labels, mask.train).backward()
            flat += [p.grad.astype(np.float64).ravel() for p in params]
        grads[dtype] = np.concatenate(flat)
    g32, g64 = grads[np.float32], grads[np.float64]
    scale = max(float(np.abs(g64).max()), 1e-30)
    return {"norm": rel_err(g32, g64), "elementwise": float(np.abs(g32 - g64).max()) / scale}


def main() -> int:
    dataset = generate_multigraph(3, 2400, 14.4, 50, 121, seed=7)
    table = {f"{att},{agg}": errors(dataset, ARCH.format(att=att, agg=agg), graphs=1)
             for att in ATTENTION for agg in AGGREGATION}
    print(json.dumps({"fixture": "generate_multigraph(3, 2400, 14.4, 50, 121, seed=7)", "arch": ARCH,
                      "graphs": 1, "errors": table}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
