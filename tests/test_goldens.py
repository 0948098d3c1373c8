"""The behaviour contract: this version's goldens, bit for bit (see goldens.py)."""

import json

import pytest

import goldens


def fingerprint_difference(stored: dict) -> dict:
    """(stored, ours) for each part of the fingerprint that differs."""
    return {key: (stored.get(key), value) for key, value in goldens.fingerprint().items() if stored.get(key) != value}


@pytest.fixture(scope="module")
def golden():
    stored = json.loads(goldens.GOLDEN_PATH.read_text(encoding="utf-8"))
    differ = fingerprint_difference(stored["fingerprint"])
    if differ:
        pytest.skip(f"goldens were written on another fingerprint, (theirs, ours): {differ}")
    return stored


def test_another_fingerprint_names_its_difference():
    ours = goldens.fingerprint()
    assert fingerprint_difference(ours) == {}
    assert fingerprint_difference(dict(ours, blas="other 1.0")) == {"blas": ("other 1.0", ours["blas"])}


@pytest.mark.parametrize("name, seed", goldens.SEARCH_CASES)
def test_dataset_cycle_keeps_its_log_controller_and_store(golden, name, seed):
    assert goldens.search_cycle(name, seed) == golden["search"][f"{name}/seed{seed}"]


def test_surrogate_cycle_keeps_its_log_and_controller(golden):
    seed = goldens.SURROGATE_SEED
    assert goldens.surrogate_cycle(seed) == golden["surrogate"][f"seed{seed}"]


@pytest.mark.parametrize("dataset, dtype", goldens.CHILD_CASES)
def test_child_logits_loss_and_gradients_keep_their_bits(golden, dataset, dtype):
    stored = golden["children"][f"{dataset}/{dtype}"]
    got = goldens.child_steps(dataset, dtype)
    assert sorted(got) == sorted(stored)
    assert [kind for kind in stored if got[kind] != stored[kind]] == []
