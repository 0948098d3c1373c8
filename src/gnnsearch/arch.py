"""The architecture description space: option lists, encoding, sampling.

A layer is described by six choices (neighbor sampling, attention
function, aggregation, activation, head count, hidden width) plus, when
skip connections are enabled, a skip source and a merge kind. Indices
into the option lists are the canonical representation; the controller
emits them slot by slot in the order ``slot_specs`` gives, and every
function here walks that same slot sequence.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ValidationError

SAMPLING = ("first-order",)
ATTENTION = ("const", "gcn", "gat", "sym-gat", "cos", "linear", "gene-linear")
AGGREGATION = ("sum", "mean-pooling", "max-pooling", "mlp")
ACTIVATION = ("sigmoid", "tanh", "relu", "linear", "softplus", "leaky_relu", "relu6", "elu")
HEADS = (1, 2, 4, 6, 8, 16)
HIDDEN = (4, 8, 16, 32, 64, 128, 256)
MERGE = ("add", "concat")

SLOT_ORDER = ("sampling", "attention", "aggregation", "activation", "heads", "hidden")
TABLES = dict(zip(SLOT_ORDER, (SAMPLING, ATTENTION, AGGREGATION, ACTIVATION, HEADS, HIDDEN)))


@dataclass(frozen=True)
class ActionSpace:
    """Option lists plus the layer count they apply to; frozen and hashable."""

    sampling: tuple = SAMPLING
    attention: tuple = ATTENTION
    aggregation: tuple = AGGREGATION
    activation: tuple = ACTIVATION
    heads: tuple = HEADS
    hidden: tuple = HIDDEN
    layer_count: int = 2
    skip_enabled: bool = False

    def __post_init__(self):
        for name, table in TABLES.items():
            values = tuple(getattr(self, name))
            object.__setattr__(self, name, values)
            if not values:
                raise ParameterError(f"option list {name!r} is empty")
            # Checked before any hashing or lookup: a list is unhashable,
            # and True and 1.0 compare equal to the option 1.
            kind = type(table[0])
            wrong = [v for v in values if isinstance(v, bool) or not isinstance(v, kind)]
            if wrong:
                raise ParameterError(f"option list {name!r} holds non-{kind.__name__} values {wrong}")
            if len(set(values)) != len(values):
                raise ParameterError(f"option list {name!r} has duplicates")
            bad = [v for v in values if v not in table]
            if bad:
                raise ParameterError(f"option list {name!r} holds unknown values {bad}")
        # An int, for the same reason: 2.0 would share 2's cached slots.
        if isinstance(self.layer_count, bool) or not isinstance(self.layer_count, int) or self.layer_count < 1:
            raise ParameterError(f"layer_count must be an integer of at least 1, got {self.layer_count!r}")

    def options(self, name: str):
        return getattr(self, name)


@functools.cache
def default_space(layer_count: int = 2, skip_enabled: bool = False) -> ActionSpace:
    return ActionSpace(layer_count=layer_count, skip_enabled=skip_enabled)


@dataclass(frozen=True)
class SlotSpec:
    """One controller emission step: which choice it makes, from what."""

    layer: int
    name: str
    options: tuple


@functools.cache
def slot_specs(space: ActionSpace) -> tuple:
    """The full ordered slot sequence the controller walks through."""
    slots = []
    for layer in range(space.layer_count):
        slots += [SlotSpec(layer, name, space.options(name)) for name in SLOT_ORDER]
        if space.skip_enabled:
            slots += [SlotSpec(layer, "skip_from", tuple(range(layer + 1))), SlotSpec(layer, "merge", MERGE)]
    return tuple(slots)


@functools.cache
def _layer_slots(space: ActionSpace) -> tuple:
    """``slot_specs`` cut into one slice per layer."""
    slots = slot_specs(space)
    width = len(slots) // space.layer_count
    return tuple(slots[start : start + width] for start in range(0, len(slots), width))


@dataclass(frozen=True)
class LayerSpec:
    """Indices into the option lists; skip fields only when enabled."""

    sampling: int
    attention: int
    aggregation: int
    activation: int
    heads: int
    hidden: int
    skip_from: int | None = None
    merge: int | None = None


@dataclass(frozen=True)
class ResolvedLayer:
    """A layer spec with indices replaced by option values."""

    sampling: str
    attention: str
    aggregation: str
    activation: str
    heads: int
    hidden: int
    skip_from: int | None = None
    merge: str | None = None


@dataclass(frozen=True)
class ArchDescription:
    """A full architecture: one LayerSpec per layer, tied to its space."""

    space: ActionSpace
    layers: tuple

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if len(self.layers) != self.space.layer_count:
            raise ValidationError(f"{len(self.layers)} layers but the space declares {self.space.layer_count}")
        for i, (layer, slots) in enumerate(zip(self.layers, _layer_slots(self.space))):
            if not self.space.skip_enabled and (layer.skip_from, layer.merge) != (None, None):
                raise ValidationError(f"layer {i}: skip slots present but skips are disabled")
            for slot in slots:
                index = getattr(layer, slot.name)
                if index is None:
                    raise ValidationError(f"layer {i}: skip slots required when skips are enabled")
                if not 0 <= index < len(slot.options):
                    raise ValidationError(
                        f"layer {i}, {slot.name} slot: index {index} out of range {len(slot.options)}"
                    )

    def resolved(self) -> tuple:
        return tuple(
            ResolvedLayer(**{slot.name: slot.options[getattr(layer, slot.name)] for slot in slots})
            for layer, slots in zip(self.layers, _layer_slots(self.space))
        )

    @property
    def depth(self) -> int:
        return len(self.layers)


def arch_from_tokens(space: ActionSpace, token_indices) -> ArchDescription:
    """Build a description from the flat slot-index sequence."""
    slots = slot_specs(space)
    tokens = list(token_indices)
    if len(tokens) != len(slots):
        raise ValidationError(f"{len(tokens)} tokens but the space has {len(slots)} slots")
    indices = iter(tokens)
    layers = [LayerSpec(**{slot.name: int(next(indices)) for slot in layer}) for layer in _layer_slots(space)]
    return ArchDescription(space=space, layers=tuple(layers))


def space_size(space: ActionSpace) -> int:
    total = 1
    for slot in slot_specs(space):
        total *= len(slot.options)
    return total


def random_arch(space: ActionSpace, rng: np.random.Generator) -> ArchDescription:
    """Uniform over the whole space: each slot drawn independently."""
    tokens = [int(rng.integers(len(slot.options))) for slot in slot_specs(space)]
    return arch_from_tokens(space, tokens)


def enumerate_archs(space: ActionSpace, cap: int = 1_000_000):
    """Yield every description in slot-major order. Refuses huge spaces."""
    size = space_size(space)
    if size > cap:
        raise ParameterError(f"space holds {size} architectures, over the cap of {cap}")
    slots = slot_specs(space)
    ranges = [range(len(slot.options)) for slot in slots]

    return (arch_from_tokens(space, combo) for combo in itertools.product(*ranges))


def encode(arch: ArchDescription, sep: str = "\n") -> str:
    """Render as one comma-joined token line per layer."""
    return sep.join(
        ",".join([str(slot.options[getattr(layer, slot.name)]) for slot in slots])
        for layer, slots in zip(arch.layers, _layer_slots(arch.space))
    )


def decode(text: str, space: ActionSpace | None = None) -> ArchDescription:
    """Parse the token format back into a description.

    Accepts newline or semicolon between layers, and whitespace around
    tokens; each token must be spelled as ``encode`` writes it. Without an
    explicit space, a default one matching the line count (and the
    presence of skip tokens) is used.
    """
    lines = [line.strip() for line in text.replace(";", "\n").splitlines() if line.strip()]
    if not lines:
        raise ValidationError("empty architecture string")
    rows = [line.split(",") for line in lines]
    if space is None:
        if len({len(row) for row in rows}) != 1:
            raise ValidationError("layers disagree on token count")
        space = default_space(layer_count=len(rows), skip_enabled=len(rows[0]) == len(SLOT_ORDER) + 2)
    if len(rows) != space.layer_count:
        raise ValidationError(f"{len(rows)} layers but the space declares {space.layer_count}")

    tokens: list[int] = []
    for i, (row, slots) in enumerate(zip(rows, _layer_slots(space))):
        if len(row) != len(slots):
            raise ValidationError(f"layer {i}: expected {len(slots)} tokens, got {len(row)}")
        for slot, token in zip(slots, row):
            token = token.strip()
            spellings = [str(option) for option in slot.options]
            if token not in spellings:
                raise ValidationError(f"layer {i}, {slot.name} slot: {token!r} not in {slot.options}")
            tokens.append(spellings.index(token))
    return arch_from_tokens(space, tokens)
