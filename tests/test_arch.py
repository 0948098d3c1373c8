"""Option tables, token encoding, enumeration, and uniform sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from gnnsearch.arch import (
    ACTIVATION,
    AGGREGATION,
    ATTENTION,
    HEADS,
    HIDDEN,
    MERGE,
    SAMPLING,
    SLOT_ORDER,
    ActionSpace,
    ArchDescription,
    LayerSpec,
    arch_from_tokens,
    decode,
    default_space,
    encode,
    enumerate_archs,
    random_arch,
    slot_specs,
    space_size,
)
from gnnsearch.errors import ParameterError, ValidationError


def test_option_tables_are_pinned():
    # The exact values AND their order are load-bearing: positions define
    # controller logit indices, so any edit here breaks checkpoints.
    assert SAMPLING == ("first-order",)
    assert ATTENTION == ("const", "gcn", "gat", "sym-gat", "cos", "linear", "gene-linear")
    assert AGGREGATION == ("sum", "mean-pooling", "max-pooling", "mlp")
    assert ACTIVATION == ("sigmoid", "tanh", "relu", "linear", "softplus", "leaky_relu", "relu6", "elu")
    assert HEADS == (1, 2, 4, 6, 8, 16)
    assert HIDDEN == (4, 8, 16, 32, 64, 128, 256)
    assert MERGE == ("add", "concat")
    assert ATTENTION.index("gcn") == 1


def test_space_size_known_values():
    assert space_size(default_space(layer_count=1)) == 9408
    assert space_size(default_space(layer_count=2)) == 88_510_464
    singleton = ActionSpace(
        sampling=("first-order",), attention=("gat",), aggregation=("sum",),
        activation=("relu",), heads=(8,), hidden=(64,), layer_count=1,
    )
    assert space_size(singleton) == 1


def test_space_size_with_skips_matches_product_oracle():
    space = default_space(layer_count=3, skip_enabled=True)
    expected = 1
    for layer in range(3):
        expected *= 9408 * (layer + 1) * len(MERGE)
    assert space_size(space) == expected


def test_slot_specs_order_and_skip_options():
    slots = slot_specs(default_space(layer_count=2, skip_enabled=True))
    names = [s.name for s in slots]
    assert names == list(SLOT_ORDER) + ["skip_from", "merge"] + list(SLOT_ORDER) + ["skip_from", "merge"]
    assert slots[6].options == (0,)        # layer 0 can only skip from raw input
    assert slots[14].options == (0, 1)     # layer 1: raw input or layer 0
    assert slots[7].options == MERGE


def test_action_space_validation():
    with pytest.raises(ParameterError, match="empty"):
        ActionSpace(attention=())
    with pytest.raises(ParameterError, match="duplicates"):
        ActionSpace(heads=(1, 1))
    with pytest.raises(ParameterError, match="unknown values"):
        ActionSpace(attention=("const", "bilinear"))
    with pytest.raises(ParameterError, match="layer_count"):
        ActionSpace(layer_count=0)
    # 2.0 equals 2, so it would share the cached slot sequence of a 2-layer space.
    with pytest.raises(ParameterError, match="layer_count must be an integer"):
        ActionSpace(layer_count=2.0)


def test_arch_validation_names_layer_and_slot():
    space = default_space(layer_count=1)
    with pytest.raises(ValidationError, match="layer 0, attention"):
        ArchDescription(space, (LayerSpec(0, 99, 0, 0, 0, 0),))
    with pytest.raises(ValidationError, match="declares 1"):
        ArchDescription(space, ())


def test_skip_from_bounds():
    space = default_space(layer_count=2, skip_enabled=True)
    good = ArchDescription(
        space,
        (LayerSpec(0, 0, 0, 0, 0, 0, skip_from=0, merge=0),
         LayerSpec(0, 0, 0, 0, 0, 0, skip_from=1, merge=1)),
    )
    assert good.resolved()[1].merge == "concat"
    with pytest.raises(ValidationError, match="skip_from"):
        ArchDescription(
            space,
            (LayerSpec(0, 0, 0, 0, 0, 0, skip_from=0, merge=0),
             LayerSpec(0, 0, 0, 0, 0, 0, skip_from=2, merge=0)),
        )
    plain = default_space(layer_count=1)
    with pytest.raises(ValidationError, match="disabled"):
        ArchDescription(plain, (LayerSpec(0, 0, 0, 0, 0, 0, skip_from=0, merge=0),))
    with pytest.raises(ValidationError, match="required"):
        ArchDescription(space, (LayerSpec(0, 0, 0, 0, 0, 0),) * 2)


def test_arch_from_tokens_round_trip():
    space = default_space(layer_count=2)
    tokens = [0, 2, 0, 2, 4, 5, 0, 1, 3, 7, 0, 2]
    arch = arch_from_tokens(space, tokens)
    resolved = arch.resolved()
    assert resolved[0].attention == "gat"
    assert resolved[0].heads == 8
    assert resolved[1].activation == "elu"
    with pytest.raises(ValidationError, match="12 slots"):
        arch_from_tokens(space, tokens[:-1])


def test_encode_decode_examples():
    arch = decode("first-order,gat,sum,relu,8,64\nfirst-order,gat,sum,relu,8,64")
    assert arch.depth == 2
    assert arch.resolved()[0].attention == "gat"
    assert encode(arch) == "first-order,gat,sum,relu,8,64\nfirst-order,gat,sum,relu,8,64"
    # Semicolon separation and surrounding whitespace are accepted.
    again = decode("first-order,gat,sum,relu,8,64 ; first-order,gat,sum,relu,8,64")
    assert again == arch


def test_decode_errors_name_layer_and_slot():
    with pytest.raises(ValidationError, match="layer 0, attention slot: 'gta'"):
        decode("first-order,gta,sum,relu,8,64")
    with pytest.raises(ValidationError, match="layer 0, heads slot"):
        decode("first-order,gat,sum,relu,7,64")
    with pytest.raises(ValidationError, match="expected 6 tokens"):
        decode("first-order,gat,sum,relu,8")
    with pytest.raises(ValidationError, match="empty"):
        decode("   \n  ")
    with pytest.raises(ValidationError, match="layer 1, skip_from slot: '2'"):
        decode("first-order,gat,sum,relu,8,64,0,add\nfirst-order,gat,sum,relu,8,64,2,add")
    with pytest.raises(ValidationError, match="merge slot"):
        decode("first-order,gat,sum,relu,8,64,0,splice")


@pytest.mark.parametrize(
    "text, where",
    [
        ("first-order,gat,sum,relu,08,64", "layer 0, heads slot: '08'"),
        ("first-order,gat,sum,relu,+8,64", r"layer 0, heads slot: '\+8'"),
        ("first-order,gat,sum,relu,8,1_6", "layer 0, hidden slot: '1_6'"),
        ("first-order,gat,sum,relu,8,08", "layer 0, hidden slot: '08'"),
        ("first-order,gat,sum,relu,8,64,00,add", "layer 0, skip_from slot: '00'"),
    ],
)
def test_decode_accepts_only_the_spellings_encode_writes(text, where):
    # int() would read each of these tokens as an option value.
    with pytest.raises(ValidationError, match=where):
        decode(text)


def test_decode_infers_skip_space_from_token_count():
    arch = decode("first-order,cos,mlp,tanh,2,8,0,concat")
    assert arch.space.skip_enabled
    assert arch.resolved()[0].skip_from == 0
    assert arch.resolved()[0].merge == "concat"
    assert decode(encode(arch)) == arch


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.booleans())
def test_encode_decode_round_trip_random(seed, layer_count, skip_enabled):
    space = default_space(layer_count=layer_count, skip_enabled=skip_enabled)
    arch = random_arch(space, np.random.default_rng(seed))
    assert decode(encode(arch), space) == arch
    assert decode(encode(arch, sep=";"), space) == arch
    assert decode(encode(arch)) == arch  # space inferred


def test_enumerate_small_space_exact():
    space = ActionSpace(
        attention=("const", "gcn"), aggregation=("sum", "mlp"),
        activation=("relu",), heads=(1,), hidden=(4,), layer_count=1,
    )
    archs = list(enumerate_archs(space))
    assert len(archs) == 4 == space_size(space)
    assert len(set(archs)) == 4
    assert [a.layers[0].attention for a in archs] == [0, 0, 1, 1]
    assert list(enumerate_archs(space)) == archs  # order is stable


def test_enumerate_refuses_oversized_space():
    with pytest.raises(ParameterError, match="88510464|88,510,464"):
        list(enumerate_archs(default_space(layer_count=2)))
    # An explicit cap makes the same space enumerable.
    n = sum(1 for _ in enumerate_archs(default_space(layer_count=1), cap=10_000))
    assert n == 9408


def test_random_arch_deterministic_and_uniform():
    space = default_space(layer_count=1)
    assert random_arch(space, np.random.default_rng(4)) == random_arch(space, np.random.default_rng(4))

    rng = np.random.default_rng(99)
    draws = 10_000
    counts = {name: np.zeros(len(space.options(name))) for name in SLOT_ORDER}
    for _ in range(draws):
        layer = random_arch(space, rng).layers[0]
        for name in SLOT_ORDER:
            counts[name][getattr(layer, name)] += 1
    for name, observed in counts.items():
        if observed.size == 1:
            assert observed[0] == draws
            continue
        p = stats.chisquare(observed).pvalue
        assert p > 0.001, f"slot {name} deviates from uniform (p={p:.2e})"


def test_random_arch_singleton_space():
    space = ActionSpace(
        attention=("gat",), aggregation=("sum",), activation=("relu",),
        heads=(8,), hidden=(64,), layer_count=1,
    )
    arch = random_arch(space, np.random.default_rng(0))
    assert arch == next(iter(enumerate_archs(space)))
