"""Recurrent architecture sampler and its policy-gradient update.

A single-layer LSTM (hidden size 100) emits one token per slot. Each
slot position owns an output projection sized to its option count and
an embedding table that feeds the sampled token back in as the next
input. Logits are softened by a temperature then squashed to
``clip * tanh(logits / temperature)``, which bounds every logit and
caps how deterministic the policy can become.

One walk serves sampling, teacher forcing and batch scoring. It runs in
plain numpy. The four gates' weights are kept stacked, as [H, 4H] matrices
``w_x`` and ``w_h`` and a [1, 4H] bias ``b_``, so each slot's
pre-activations are one product per input.
A live walk (``sample``, ``teacher_force``) records its log-prob as a
single tape node whose backward is hand-written backpropagation through
time over the slots; batched walks record nothing.

Numerics version 2 (package 0.2.0): log-probs and gradients agree to
rounding (within 1e-12 norm-relative) with the same LSTM recorded op by
op on the tape, and same-seed runs are bitwise equal within a version.
"""

from __future__ import annotations

import hashlib
import json
import math
import zipfile
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .arch import ActionSpace, ArchDescription, arch_from_tokens, slot_specs
from .autodiff import Tensor
from .errors import ParameterError, ShapeError

INIT_BOUND = 0.1
CHECKPOINT_VERSION = 1

_GATES = ("i", "f", "g", "o")  # the order their parameters are drawn and saved in
# The column order of the stacked gate weights and bias: the three sigmoid
# gates first, so one sigmoid covers 3H columns and one tanh the rest.
_STACKED = ("i", "f", "o", "g")


class _Step(NamedTuple):
    """What one slot of a live walk keeps for its backward."""

    x: np.ndarray
    h_prev: np.ndarray
    c_prev: np.ndarray
    gates: np.ndarray  # [1, 4H] activations, in _STACKED order
    tanh_c: np.ndarray
    h: np.ndarray
    squashed: np.ndarray
    weights: np.ndarray
    norm: np.ndarray
    token: int


@dataclass
class Episode:
    """One sampled architecture and the bookkeeping REINFORCE needs."""

    arch: ArchDescription
    tokens: tuple
    log_prob_sum: float
    entropy_sum: float
    reward: float | None = None
    shaped_reward: float | None = None
    log_prob_node: Tensor | None = None

    def __post_init__(self):
        for name in ("log_prob_sum", "entropy_sum"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)}")
        if self.log_prob_sum > 1e-12:
            raise ParameterError(f"log_prob_sum must be <= 0, got {self.log_prob_sum}")
        if self.entropy_sum < -1e-12:
            raise ParameterError(f"entropy_sum must be >= 0, got {self.entropy_sum}")


class Controller:
    """LSTM policy over the slot sequence of an action space."""

    def __init__(
        self,
        space: ActionSpace,
        rng: np.random.Generator,
        hidden_size: int = 100,
        temperature: float = 5.0,
        logit_clip: float = 2.5,
    ):
        if hidden_size < 1:
            raise ParameterError("hidden_size must be positive")
        if not all(math.isfinite(x) and x > 0 for x in (temperature, logit_clip)):
            raise ParameterError(f"temperature and logit_clip must be finite and positive, got {temperature}, "
                                 f"{logit_clip}")
        self.space = space
        self.slots = slot_specs(space)
        self.hidden_size = hidden_size
        self.temperature = temperature
        self.logit_clip = logit_clip
        h = hidden_size
        self._params: dict[str, Tensor] = {kind: Tensor(np.empty((rows, 4 * h)), requires_grad=True)
                                           for kind, rows in (("w_x", h), ("w_h", h), ("b_", 1))}
        for _, tensor, cols in _entries(self):  # the gate blocks, in the order they are drawn in
            tensor.data[:, cols] = rng.uniform(-INIT_BOUND, INIT_BOUND, (tensor.shape[0], h))
        self._params["start"] = ad.uniform_param(rng, (1, h), INIT_BOUND)
        for s, slot in enumerate(self.slots):
            n = len(slot.options)
            self._params[f"slot{s}.proj_w"] = ad.uniform_param(rng, (h, n), INIT_BOUND)
            self._params[f"slot{s}.proj_b"] = ad.uniform_param(rng, (1, n), INIT_BOUND)
            self._params[f"slot{s}.emb"] = ad.uniform_param(rng, (n, h), INIT_BOUND)

    def parameters(self) -> list:
        return list(self._params.values())

    def named_parameters(self) -> dict:
        return dict(self._params)

    def checksum(self) -> str:
        digest = hashlib.sha256()
        # over format 1's entries, so equal weights hash alike across layouts
        for name, tensor, cols in sorted(_entries(self), key=lambda entry: entry[0]):
            digest.update(name.encode())
            digest.update(tensor.data[:, cols].tobytes())
        return digest.hexdigest()

    # -- the LSTM walk -----------------------------------------------------

    def _walk(self, pick, count: int | None = None):
        """Run the slot sequence in plain numpy.

        ``pick(slot_index, probs)`` chooses the tokens of one slot from the
        [rows, options] probabilities. With a ``count`` the walk scores
        ``count`` independent rows and records nothing. Without one it is
        live: one row, whose log-prob is a scalar tape node with ``_bptt``
        as its backward. The gate weights are read where they are kept.
        Returns (tokens [rows, slots], log-prob, entropy [rows]).
        """
        rows = 1 if count is None else count
        size = self.hidden_size
        p = {name: t.data for name, t in self._params.items()}
        h = np.zeros((rows, size))
        c = np.zeros((rows, size))
        x = p["start"]
        picked_rows = np.arange(rows)
        log_prob = None
        entropy = np.zeros(rows)
        tokens = np.empty((rows, len(self.slots)), dtype=np.int64)
        steps = []
        for s in range(len(self.slots)):
            pre = x @ p["w_x"] + h @ p["w_h"] + p["b_"]
            gates = np.concatenate([ad.stable_sigmoid(pre[:, :3 * size]), np.tanh(pre[:, 3 * size:])], axis=1)
            i, f, o, g = (gates[:, k * size:(k + 1) * size] for k in range(4))
            h_prev, c_prev = h, c
            c = f * c + i * g
            tanh_c = np.tanh(c)
            h = o * tanh_c
            squashed = np.tanh((h @ p[f"slot{s}.proj_w"] + p[f"slot{s}.proj_b"]) * (1.0 / self.temperature))
            adjusted = squashed * self.logit_clip
            # Logits are bounded by the clip, so plain softmax is safe.
            weights = np.exp(adjusted)
            norm = weights.sum(axis=1)
            probs = weights / norm[:, None]
            tokens[:, s] = pick(s, probs)
            entropy += -np.sum(probs * np.log(probs), axis=1)
            term = adjusted[picked_rows, tokens[:, s]] - np.log(norm)
            log_prob = term if log_prob is None else log_prob + term
            if count is None:
                steps.append(_Step(x, h_prev, c_prev, gates, tanh_c, h, squashed, weights, norm, tokens[0, s]))
            if s + 1 < len(self.slots):
                x = p[f"slot{s}.emb"].take(tokens[:, s], axis=0)
        if count is not None:
            return tokens, Tensor(log_prob), entropy
        node = ad.record(log_prob.reshape(()), tuple(self._params.values()),
                         lambda grad: self._bptt(grad, p, steps))
        return tokens, node, entropy

    def _bptt(self, grad: np.ndarray, p: dict, steps: list) -> tuple:
        """Gradients of a live walk's log-prob, one per parameter.

        Each step, last slot first, forms one [1, 4H] gate gradient and
        takes the gradients of its input and of the previous h from it
        with one product each; ``w_x`` and ``w_h`` then get theirs from
        one [H, T] @ [T, 4H] product each, and ``b_`` from one column sum.
        The last slot's embedding gets None: no step reads it.
        """
        size, scale = self.hidden_size, float(grad)
        d_pres = np.empty((len(steps), 4 * size))
        grads = {}
        dh_next = dc_next = None
        for s in reversed(range(len(steps))):
            st = steps[s]
            d_adjusted = st.weights * (-scale / st.norm)[:, None]
            d_adjusted[0, st.token] += scale
            d_raw = d_adjusted * (1.0 - st.squashed * st.squashed) * (self.logit_clip / self.temperature)
            grads[f"slot{s}.proj_w"] = st.h.T @ d_raw
            grads[f"slot{s}.proj_b"] = d_raw
            dh = d_raw @ p[f"slot{s}.proj_w"].T
            if dh_next is not None:
                dh += dh_next
            i, f, o, g = (st.gates[:, k * size:(k + 1) * size] for k in range(4))
            dc = dh * o * (1.0 - st.tanh_c * st.tanh_c)
            if dc_next is not None:
                dc += dc_next
            d_pre = d_pres[s:s + 1]
            sig = st.gates[:, :3 * size]
            d_pre[:, :3 * size] = np.concatenate([dc * g, dc * st.c_prev, dh * st.tanh_c], axis=1) * sig * (1.0 - sig)
            d_pre[:, 3 * size:] = dc * i * (1.0 - g * g)
            dx = d_pre @ p["w_x"].T
            if s == 0:
                grads["start"] = dx
            else:
                emb = np.zeros_like(p[f"slot{s - 1}.emb"])
                emb[steps[s - 1].token] = dx[0]
                grads[f"slot{s - 1}.emb"] = emb
                dh_next = d_pre @ p["w_h"].T
                dc_next = dc * f
        grads["w_x"] = np.concatenate([st.x for st in steps]).T @ d_pres
        grads["w_h"] = np.concatenate([st.h_prev for st in steps]).T @ d_pres
        grads["b_"] = d_pres.sum(axis=0, keepdims=True)
        return tuple(grads.get(name) for name in self._params)

    def _token_rows(self, tokens) -> np.ndarray:
        given = np.asarray(tokens)
        with np.errstate(invalid="ignore"):
            rows = given.astype(np.int64)
        if rows.ndim != 2 or rows.shape[1] != len(self.slots):
            raise ShapeError(f"tokens shape {rows.shape} does not match {len(self.slots)} slots")
        changed = np.argwhere(rows != given)
        if changed.size:
            r, s = changed[0]
            raise ParameterError(f"slot {s}: token {given[r, s]} is not an integer")
        for s, slot in enumerate(self.slots):
            bad = rows[(rows[:, s] < 0) | (rows[:, s] >= len(slot.options)), s]
            if bad.size:
                raise ParameterError(f"slot {s}: token {bad[0]} out of range")
        return rows

    def sample(self, rng: np.random.Generator) -> Episode:
        """Draw one architecture; records log-prob (with graph) and entropy."""
        tokens, log_prob_node, entropy = self._walk(lambda _s, probs: _draw(probs, rng))
        return Episode(
            arch=arch_from_tokens(self.space, tokens[0]),
            tokens=tuple(tokens[0].tolist()),
            log_prob_sum=float(log_prob_node.data),
            entropy_sum=float(entropy[0]),
            log_prob_node=log_prob_node,
        )

    def teacher_force(self, tokens) -> tuple:
        """Log-prob (with graph) and entropy of a fixed token sequence."""
        rows = self._token_rows([list(tokens)])
        _, log_prob, entropy = self._walk(lambda s, _p: rows[:, s])
        return log_prob, float(entropy[0])

    def arch_log_prob(self, arch_tokens) -> float:
        node, _ = self.teacher_force(arch_tokens)
        return float(node.data)

    def sample_tokens_batch(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Sample many token sequences at once; rows are independent draws."""
        if count < 1:
            raise ParameterError("count must be positive")
        tokens, _, _ = self._walk(lambda _s, probs: _draw(probs, rng), count)
        return tokens

    def log_prob_batch(self, tokens) -> np.ndarray:
        """Joint log-probability of each row of token sequences."""
        rows = self._token_rows(tokens)
        _, log_prob, _ = self._walk(lambda s, _p: rows[:, s], rows.shape[0])
        return log_prob.data


def _draw(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One inverse-CDF draw per row; the guard on the top bin absorbs rounding."""
    cumulative = np.cumsum(probs, axis=1)
    cumulative[:, -1] = 1.1
    return (cumulative > rng.random((probs.shape[0], 1))).argmax(axis=1)


# ---------------------------------------------------------------------------
# reward shaping and the policy-gradient step


@dataclass
class Baseline:
    """Exponential moving average of the augmented reward."""

    decay: float = 0.95
    value: float = 0.0
    initialized: bool = False

    def __post_init__(self):
        if not 0.0 <= self.decay < 1.0:
            raise ParameterError("decay must lie in [0, 1)")


def shape_reward(raw: float, baseline: Baseline, entropy_sum: float, entropy_weight: float = 1e-4) -> float:
    """Entropy-augmented, baseline-centered reward.

    The first call seeds the baseline with the augmented reward and
    subtracts nothing; afterwards the old baseline is subtracted before
    the moving average absorbs the new value.
    """
    augmented = raw + entropy_weight * entropy_sum
    if not baseline.initialized:
        baseline.value = augmented
        baseline.initialized = True
        return augmented
    shaped = augmented - baseline.value
    baseline.value = baseline.decay * baseline.value + (1.0 - baseline.decay) * augmented
    return shaped


def reinforce_step(controller: Controller, episodes: list, state: ad.AdamState) -> None:
    """One ascent step on mean(shaped_reward * log_prob_sum).

    Implemented as Adam descent on the negation. Episodes must carry
    their live log-prob nodes (i.e. come from ``Controller.sample``).
    """
    if not episodes:
        raise ParameterError("reinforce_step needs at least one episode")
    params = controller.parameters()
    objective = None
    for episode in episodes:
        if episode.shaped_reward is None or episode.log_prob_node is None:
            raise ParameterError("episode is missing shaped_reward or its log-prob node")
        if not math.isfinite(episode.shaped_reward):
            raise ParameterError(f"shaped_reward must be finite, got {episode.shaped_reward}")
        term = ad.mul(episode.log_prob_node, Tensor(-episode.shaped_reward / len(episodes)))
        objective = term if objective is None else ad.add(objective, term)
    ad.zero_grads(params)
    objective.backward()
    grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]
    ad.adam_step(state, params, grads)


# ---------------------------------------------------------------------------
# checkpointing


def open_npz(path) -> np.lib.npyio.NpzFile:
    """Open an ``np.savez`` archive; any other file raises ``ValueError``."""
    bundle = np.load(path)
    if not isinstance(bundle, np.lib.npyio.NpzFile):
        raise ValueError("it holds one array, not an .npz archive")
    return bundle


def _entries(controller: Controller):
    """Checkpoint format 1's entries, in its order: (entry name, tensor,
    column slice). A gate's weights and bias (``w_xi`` ... ``b_o``) are
    its column block of ``w_x``, ``w_h`` and ``b_``; every other entry is
    a whole tensor, under its name with "." written "__" in the file."""
    params = controller.named_parameters()
    stacked = {kind: params.pop(kind) for kind in ("w_x", "w_h", "b_")}
    size = controller.hidden_size
    for gate in _GATES:
        k = _STACKED.index(gate)
        for kind, tensor in stacked.items():
            yield f"{kind}{gate}", tensor, slice(k * size, (k + 1) * size)
    for name, tensor in params.items():
        yield name, tensor, slice(None)


def save_controller(controller: Controller, path) -> None:
    """Write parameters plus enough metadata to rebuild the controller."""
    meta = {
        "format_version": CHECKPOINT_VERSION,
        "hidden_size": controller.hidden_size,
        "temperature": controller.temperature,
        "logit_clip": controller.logit_clip,
        "space": asdict(controller.space),
    }
    arrays = {name.replace(".", "__"): tensor.data[:, cols] for name, tensor, cols in _entries(controller)}
    np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)


def load_controller(path) -> Controller:
    """Rebuild a controller from a ``save_controller`` file.

    A file that is not one raises ``ParameterError`` naming the path.
    """
    try:
        with open_npz(path) as bundle:
            stored = {name: bundle[name] for name in bundle.files}
        meta = json.loads(bytes(stored.pop("__meta__")).decode())
    except KeyError:
        raise ParameterError(f"controller checkpoint {path} has no __meta__ entry") from None
    except (OSError, ValueError, zipfile.BadZipFile) as err:
        raise ParameterError(f"controller checkpoint {path} is unreadable: {err}") from None
    if not isinstance(meta, dict):
        raise ParameterError(f"controller checkpoint {path} has a __meta__ that is not a JSON object")
    if meta.get("format_version") != CHECKPOINT_VERSION:
        raise ParameterError(
            f"controller checkpoint {path} has format {meta.get('format_version')!r}, not version {CHECKPOINT_VERSION}"
        )
    try:
        controller = Controller(
            ActionSpace(**meta["space"]),
            rng=np.random.default_rng(0),
            hidden_size=meta["hidden_size"],
            temperature=meta["temperature"],
            logit_clip=meta["logit_clip"],
        )
    except KeyError as err:
        raise ParameterError(f"controller checkpoint {path} has no __meta__ field {err}") from None
    except (TypeError, ParameterError) as err:
        raise ParameterError(f"controller checkpoint {path} has a bad __meta__: {err}") from None
    for name, tensor, cols in _entries(controller):
        entry, target = stored.get(name.replace(".", "__")), tensor.data[:, cols]
        if entry is None:
            raise ParameterError(f"controller checkpoint {path} has no entry {name}")
        if entry.shape != target.shape:
            raise ShapeError(f"controller checkpoint {path} entry {name}: shape {entry.shape} != {target.shape}")
        if entry.dtype.kind not in "biuf":
            raise ParameterError(f"controller checkpoint {path} entry {name} holds {entry.dtype} values, not numbers")
        if not np.isfinite(entry).all():
            raise ParameterError(f"controller checkpoint {path} entry {name} holds a value that is not finite")
        target[...] = entry
    return controller
