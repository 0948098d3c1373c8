"""Shared fixtures and numeric oracles for the test suite."""

import contextlib
import tracemalloc

import numpy as np
import pytest

from gnnsearch import autodiff as ad
from gnnsearch.graphs import generate_sbm, make_graph


def finite_diff(fn, tensor, h=1e-4):
    """Central-difference gradient of the scalar ``fn()`` w.r.t. ``tensor``.

    ``fn`` must re-run the forward pass on each call; the tensor's data
    is perturbed one coordinate at a time and restored afterwards.
    """
    base = tensor.data.copy()
    grad = np.zeros(base.shape)
    for idx in np.ndindex(*base.shape):
        plus = base.copy()
        minus = base.copy()
        plus[idx] += h
        minus[idx] -= h
        tensor.data = plus
        f_plus = float(fn())
        tensor.data = minus
        f_minus = float(fn())
        grad[idx] = (f_plus - f_minus) / (2.0 * h)
    tensor.data = base
    return grad


def rel_err(analytic, numeric):
    """Norm-relative disagreement between two gradient arrays."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-10)
    return float(np.linalg.norm(analytic - numeric) / denom)


def check_grads(build, tensors, tol=1e-4, h=1e-4):
    """Assert analytic grads of the scalar ``build()`` match finite differences."""
    out = build()
    ad.zero_grads(tensors)
    out.backward()
    for tensor in tensors:
        analytic = tensor.grad if tensor.grad is not None else np.zeros(tensor.data.shape)
        numeric = finite_diff(lambda: build().data, tensor, h)
        err = rel_err(analytic, numeric)
        assert err < tol, f"gradient mismatch {err:.3g} on tensor of shape {tensor.data.shape}"


class MemoryProbe:
    """tracemalloc readings in bytes above the level where tracing began."""

    def __init__(self):
        self.base = tracemalloc.get_traced_memory()[0]

    def current(self) -> int:
        return tracemalloc.get_traced_memory()[0] - self.base

    def peak(self) -> int:
        """The highest level since tracing began or the last ``reset_peak``."""
        return tracemalloc.get_traced_memory()[1] - self.base

    def reset_peak(self) -> None:
        tracemalloc.reset_peak()


@contextlib.contextmanager
def traced_memory():
    """Trace Python and numpy allocations inside the block; yields a ``MemoryProbe``."""
    tracemalloc.start()
    try:
        yield MemoryProbe()
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_graph(rng):
    # 6 nodes, a few asymmetric edges; canonicalization symmetrizes them.
    edges = [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [0, 3], [1, 4]]
    features = rng.standard_normal((6, 5))
    return make_graph(6, edges, features)


@pytest.fixture(scope="session")
def easy_sbm():
    # Two well-separated blocks; nearly every architecture can fit this.
    return generate_sbm(
        block_count=2,
        nodes_per_block=20,
        p_in=0.3,
        p_out=0.02,
        feature_dim=8,
        signal_strength=3.0,
        seed=7,
    )
