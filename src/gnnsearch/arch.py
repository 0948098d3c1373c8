"""The architecture description space: option lists, encoding, sampling.

A layer is described by six choices (neighbor sampling, attention
function, aggregation, activation, head count, hidden width) plus, when
skip connections are enabled, a skip source and a merge kind. Indices
into the option lists are the canonical representation; the controller
emits them slot by slot in the fixed order below.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class ActionSpace:
    """Option lists plus the layer count they apply to."""

    sampling: tuple = SAMPLING
    attention: tuple = ATTENTION
    aggregation: tuple = AGGREGATION
    activation: tuple = ACTIVATION
    heads: tuple = HEADS
    hidden: tuple = HIDDEN
    layer_count: int = 2
    skip_enabled: bool = False

    def __post_init__(self):
        for name, table in (
            ("sampling", SAMPLING),
            ("attention", ATTENTION),
            ("aggregation", AGGREGATION),
            ("activation", ACTIVATION),
            ("heads", HEADS),
            ("hidden", HIDDEN),
        ):
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
        if self.layer_count < 1:
            raise ParameterError("layer_count must be at least 1")

    def options(self, name: str):
        return getattr(self, name)


def default_space(layer_count: int = 2, skip_enabled: bool = False) -> ActionSpace:
    return ActionSpace(layer_count=layer_count, skip_enabled=skip_enabled)


@dataclass(frozen=True)
class SlotSpec:
    """One controller emission step: which choice it makes, from what."""

    layer: int
    name: str
    options: tuple


def slot_specs(space: ActionSpace) -> list:
    """The full ordered slot sequence the controller walks through."""
    slots = []
    for layer in range(space.layer_count):
        for name in SLOT_ORDER:
            slots.append(SlotSpec(layer=layer, name=name, options=space.options(name)))
        if space.skip_enabled:
            slots.append(SlotSpec(layer=layer, name="skip_from", options=tuple(range(layer + 1))))
            slots.append(SlotSpec(layer=layer, name="merge", options=MERGE))
    return slots


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
    skip_from: int | None
    merge: str | None


@dataclass(frozen=True)
class ArchDescription:
    """A full architecture: one LayerSpec per layer, tied to its space."""

    space: ActionSpace
    layers: tuple

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if len(self.layers) != self.space.layer_count:
            raise ValidationError(
                f"{len(self.layers)} layers but the space declares {self.space.layer_count}"
            )
        for i, layer in enumerate(self.layers):
            for name in SLOT_ORDER:
                index = getattr(layer, name)
                limit = len(self.space.options(name))
                if not 0 <= index < limit:
                    raise ValidationError(f"layer {i}, {name} slot: index {index} out of range {limit}")
            if self.space.skip_enabled:
                if layer.skip_from is None or layer.merge is None:
                    raise ValidationError(f"layer {i}: skip slots required when skips are enabled")
                if not 0 <= layer.skip_from <= i:
                    raise ValidationError(
                        f"layer {i}, skip_from slot: {layer.skip_from} not in 0..{i}"
                    )
                if not 0 <= layer.merge < len(MERGE):
                    raise ValidationError(f"layer {i}, merge slot: index {layer.merge} out of range")
            elif layer.skip_from is not None or layer.merge is not None:
                raise ValidationError(f"layer {i}: skip slots present but skips are disabled")

    def resolved(self) -> tuple:
        out = []
        for layer in self.layers:
            out.append(
                ResolvedLayer(
                    sampling=self.space.sampling[layer.sampling],
                    attention=self.space.attention[layer.attention],
                    aggregation=self.space.aggregation[layer.aggregation],
                    activation=self.space.activation[layer.activation],
                    heads=self.space.heads[layer.heads],
                    hidden=self.space.hidden[layer.hidden],
                    skip_from=layer.skip_from,
                    merge=None if layer.merge is None else MERGE[layer.merge],
                )
            )
        return tuple(out)

    @property
    def depth(self) -> int:
        return len(self.layers)


def arch_from_tokens(space: ActionSpace, token_indices) -> ArchDescription:
    """Build a description from the flat slot-index sequence."""
    slots = slot_specs(space)
    tokens = list(token_indices)
    if len(tokens) != len(slots):
        raise ValidationError(f"{len(tokens)} tokens but the space has {len(slots)} slots")
    layers = []
    fields: dict = {}
    for slot, token in zip(slots, tokens):
        fields[slot.name] = int(token)
        if slot.name == ("merge" if space.skip_enabled else "hidden"):
            layers.append(LayerSpec(**fields))
            fields = {}
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

    def generate():
        for combo in itertools.product(*ranges):
            yield arch_from_tokens(space, combo)

    return generate()


def encode(arch: ArchDescription, sep: str = "\n") -> str:
    """Render as one comma-joined token line per layer."""
    lines = []
    for layer in arch.resolved():
        tokens = [
            layer.sampling,
            layer.attention,
            layer.aggregation,
            layer.activation,
            str(layer.heads),
            str(layer.hidden),
        ]
        if arch.space.skip_enabled:
            tokens.append(str(layer.skip_from))
            tokens.append(layer.merge)
        lines.append(",".join(tokens))
    return sep.join(lines)


def decode(text: str, space: ActionSpace | None = None) -> ArchDescription:
    """Parse the token format back into a description.

    Accepts newline or semicolon between layers. Without an explicit
    space, a default one matching the line count (and the presence of
    skip tokens) is used.
    """
    lines = [line.strip() for line in text.replace(";", "\n").splitlines() if line.strip()]
    if not lines:
        raise ValidationError("empty architecture string")
    rows = [line.split(",") for line in lines]
    if space is None:
        if len({len(row) for row in rows}) != 1:
            raise ValidationError("layers disagree on token count")
        skip_enabled = len(rows[0]) == 8
        space = default_space(layer_count=len(rows), skip_enabled=skip_enabled)
    if len(rows) != space.layer_count:
        raise ValidationError(f"{len(rows)} layers but the space declares {space.layer_count}")

    want = 8 if space.skip_enabled else 6
    tokens: list[int] = []
    for i, row in enumerate(rows):
        if len(row) != want:
            raise ValidationError(f"layer {i}: expected {want} tokens, got {len(row)}")
        for name, token in zip(SLOT_ORDER, row):
            token = token.strip()
            options = space.options(name)
            if name in ("heads", "hidden"):
                try:
                    value = int(token)
                except ValueError:
                    raise ValidationError(f"layer {i}, {name} slot: {token!r} is not an integer") from None
            else:
                value = token
            if value not in options:
                raise ValidationError(f"layer {i}, {name} slot: {token!r} not in {options}")
            tokens.append(options.index(value))
        if space.skip_enabled:
            skip_token, merge_token = row[6].strip(), row[7].strip()
            try:
                skip_from = int(skip_token)
            except ValueError:
                raise ValidationError(f"layer {i}, skip_from slot: {skip_token!r} is not an integer") from None
            if not 0 <= skip_from <= i:
                raise ValidationError(f"layer {i}, skip_from slot: {skip_from} not in 0..{i}")
            if merge_token not in MERGE:
                raise ValidationError(f"layer {i}, merge slot: {merge_token!r} not in {MERGE}")
            tokens.append(skip_from)
            tokens.append(MERGE.index(merge_token))
    return arch_from_tokens(space, tokens)
