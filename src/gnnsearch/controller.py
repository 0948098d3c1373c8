"""Recurrent architecture sampler and its policy-gradient update.

A single-layer LSTM (hidden size 100) emits one token per slot. Each
slot position owns an output projection sized to its option count and
an embedding table that feeds the sampled token back in as the next
input. Logits are softened by a temperature then squashed to
``clip * tanh(logits / temperature)``, which bounds every logit and
caps how deterministic the policy can become.
"""

from __future__ import annotations

import hashlib
import json
import zipfile
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .arch import ActionSpace, ArchDescription, arch_from_tokens, slot_specs
from .autodiff import Tensor
from .errors import ParameterError, ShapeError

INIT_BOUND = 0.1
CHECKPOINT_VERSION = 1

_GATES = ("i", "f", "g", "o")


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
        if temperature <= 0 or logit_clip <= 0:
            raise ParameterError("temperature and logit_clip must be positive")
        self.space = space
        self.slots = slot_specs(space)
        self.hidden_size = hidden_size
        self.temperature = temperature
        self.logit_clip = logit_clip
        h = hidden_size
        self._params: dict[str, Tensor] = {}
        for gate in _GATES:
            self._params[f"w_x{gate}"] = ad.uniform_param(rng, (h, h), INIT_BOUND)
            self._params[f"w_h{gate}"] = ad.uniform_param(rng, (h, h), INIT_BOUND)
            self._params[f"b_{gate}"] = ad.uniform_param(rng, (1, h), INIT_BOUND)
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
        for name in sorted(self._params):
            digest.update(name.encode())
            digest.update(self._params[name].data.tobytes())
        return digest.hexdigest()

    # -- the LSTM walk -----------------------------------------------------

    def _step(self, p: dict, x: Tensor, h: Tensor, c: Tensor):
        gates = {}
        for gate in _GATES:
            pre = ad.add(ad.add(ad.matmul(x, p[f"w_x{gate}"]), ad.matmul(h, p[f"w_h{gate}"])), p[f"b_{gate}"])
            gates[gate] = ad.tanh(pre) if gate == "g" else ad.sigmoid(pre)
        c_next = ad.add(ad.mul(gates["f"], c), ad.mul(gates["i"], gates["g"]))
        h_next = ad.mul(gates["o"], ad.tanh(c_next))
        return h_next, c_next

    def _slot_logits(self, p: dict, h: Tensor, s: int) -> Tensor:
        raw = ad.add(ad.matmul(h, p[f"slot{s}.proj_w"]), p[f"slot{s}.proj_b"])
        scaled = ad.mul(raw, Tensor(1.0 / self.temperature))
        return ad.mul(ad.tanh(scaled), Tensor(self.logit_clip))

    def _walk(self, pick, count: int = 1, params: dict | None = None):
        """Run the slot sequence for ``count`` independent rows.

        ``pick(slot_index, probs)`` chooses the tokens of one slot from the
        [count, options] probabilities. ``params`` defaults to the live
        parameters, which record a tape; detached copies record none.
        Returns (tokens [count, slots], log-prob node [count], entropy [count]).
        """
        p = self._params if params is None else params
        h = Tensor(np.zeros((count, self.hidden_size)))
        c = Tensor(np.zeros((count, self.hidden_size)))
        x = p["start"]
        rows = np.arange(count)
        log_prob_total = None
        entropy_total = np.zeros(count)
        tokens = np.empty((count, len(self.slots)), dtype=np.int64)
        for s, slot in enumerate(self.slots):
            h, c = self._step(p, x, h, c)
            adjusted = self._slot_logits(p, h, s)
            # Logits are bounded by the clip, so plain softmax is safe.
            weights = np.exp(adjusted.data)
            probs = weights / weights.sum(axis=1, keepdims=True)
            tokens[:, s] = pick(s, probs)
            entropy_total += -np.sum(probs * np.log(probs), axis=1)
            onehot = np.zeros((count, len(slot.options)))
            onehot[rows, tokens[:, s]] = 1.0
            picked = ad.reduce_sum(ad.mul(adjusted, Tensor(onehot)), axis=1)
            log_norm = ad.log(ad.reduce_sum(ad.exp(adjusted), axis=1))
            term = ad.sub(picked, log_norm)
            log_prob_total = term if log_prob_total is None else ad.add(log_prob_total, term)
            x = ad.gather_rows(p[f"slot{s}.emb"], tokens[:, s])
        return tokens, log_prob_total, entropy_total

    def _detached(self) -> dict:
        """Copies of the parameters that need no gradient, so a walk on them records no tape."""
        return {name: Tensor(t.data) for name, t in self._params.items()}

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
        tokens, log_prob, entropy = self._walk(lambda _s, probs: _draw(probs, rng))
        log_prob_node = ad.reshape(log_prob, ())
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
        return ad.reshape(log_prob, ()), float(entropy[0])

    def arch_log_prob(self, arch_tokens) -> float:
        node, _ = self.teacher_force(arch_tokens)
        return float(node.data)

    def sample_tokens_batch(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Sample many token sequences at once; rows are independent draws."""
        if count < 1:
            raise ParameterError("count must be positive")
        tokens, _, _ = self._walk(lambda _s, probs: _draw(probs, rng), count, self._detached())
        return tokens

    def log_prob_batch(self, tokens) -> np.ndarray:
        """Joint log-probability of each row of token sequences."""
        rows = self._token_rows(tokens)
        _, log_prob, _ = self._walk(lambda s, _p: rows[:, s], rows.shape[0], self._detached())
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


def save_controller(controller: Controller, path) -> None:
    """Write parameters plus enough metadata to rebuild the controller."""
    meta = {
        "format_version": CHECKPOINT_VERSION,
        "hidden_size": controller.hidden_size,
        "temperature": controller.temperature,
        "logit_clip": controller.logit_clip,
        "space": asdict(controller.space),
    }
    arrays = {name.replace(".", "__"): t.data for name, t in controller.named_parameters().items()}
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
    for name, tensor in controller.named_parameters().items():
        entry = stored.get(name.replace(".", "__"))
        if entry is None:
            raise ParameterError(f"controller checkpoint {path} has no entry {name}")
        if entry.shape != tensor.data.shape:
            raise ShapeError(f"controller checkpoint {path} entry {name}: shape {entry.shape} != {tensor.data.shape}")
        if entry.dtype.kind not in "biuf":
            raise ParameterError(f"controller checkpoint {path} entry {name} holds {entry.dtype} values, not numbers")
        tensor.data = entry.astype(np.float64)
    return controller
