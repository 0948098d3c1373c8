"""Workload definitions: the config of each cycle and the surrogate landscape.

A workload run repeats a fixed unit of work, a *cycle*: one search. Cycle 0
is built from the workload seed: its dataset (or landscape) and its search
seed. Later cycles are a fixed panel, the same in every run: cycle i uses
seed PANEL_SEED + i for both.

Why a panel: the cost and memory of an episode depend on the sampled
architecture (from about 60 ms to over 1 s on sbm-share), and the sampled
architectures follow the rewards, so they change with both the dataset
and the search seed. With every cycle drawn from the workload seed, the
ten-seed spread of the timing and memory metrics reached 0.2 to 0.27.
Two commits run on the same seeds are compared like with like either way;
the panel keeps the seed-to-seed spread down to the machine's own noise
plus cycle 0's share.
"""

from __future__ import annotations

# numpy and gnnsearch are imported inside the functions that need them, so
# that importing this module leaves their import to be timed as set-up.

# The three workloads. Episode counts are the cycle length; everything
# else follows the definitions in README.md.
DATASET_WORKLOADS = {
    "sbm-share": {
        "dataset": "sbm",
        "block_count": 4,
        "nodes_per_block": 100,
        "p_in": 0.06,
        "p_out": 0.02,
        "feature_dim": 16,
        "signal_strength": 0.3,
        "strategy": "graphnas",
        "param_sharing": True,
        "layer_count": 2,
        "head_options": [1, 2, 4],
        "hidden_options": [8, 16, 32],
        "child_epochs": 4,
        "exploration_epochs": 10,
        "episodes": 25,
        "derive_samples": 10,
        "dropout": 0.6,
        "lr": 0.005,
        "max_epochs": 100,
        "patience": 20,
    },
    "multigraph-share": {
        "dataset": "multigraph",
        "graph_count": 20,
        "nodes_per_graph": 60,
        "avg_degree": 8.0,
        "label_count": 6,
        "feature_dim": 16,
        "strategy": "graphnas",
        "param_sharing": True,
        "layer_count": 2,
        "head_options": [1, 2, 4],
        "hidden_options": [4, 8, 16, 32],
        "child_epochs": 3,
        "exploration_epochs": 10,
        "episodes": 25,
        "derive_samples": 10,
        "max_epochs": 60,
        "patience": 15,
    },
}

SURROGATE_EPISODES = 500
PANEL_SEED = 1_000_000
# Seconds one cycle takes on the reference machine (2 vCPUs, OpenBLAS).
# A run of --seconds S does round(S / CYCLE_SECONDS) cycles, so the work
# depends on S alone and a faster commit simply finishes sooner.
CYCLE_SECONDS = {"sbm-share": 10.0, "multigraph-share": 10.0, "surrogate": 12.0}
SURROGATE_LAYERS = 2
WORKLOAD_NAMES = (*DATASET_WORKLOADS, "surrogate")


def cycle_count(name: str, seconds: float) -> int:
    return max(1, round(seconds / CYCLE_SECONDS[name]))


def cycle_seed(seed: int, cycle: int) -> int:
    """Input seed of one cycle: the workload seed, then the fixed panel."""
    return seed if cycle == 0 else PANEL_SEED + cycle


def dataset_config(name: str, seed: int, cycle: int) -> dict:
    """The flat CLI config for one cycle of a dataset workload."""
    cycle_input = cycle_seed(seed, cycle)
    return dict(DATASET_WORKLOADS[name], data_seed=cycle_input, seed=cycle_input)


class Landscape:
    """Additive slot-weight rewards over every architecture of a space.

    Each slot option gets a seeded weight in [0, 1); an architecture
    scores ``0.2 + 0.75 * (sum of its weights) / (best possible sum)``,
    so rewards lie in [0.2, 0.95] and the optimum is unique almost surely.
    Keys are architectures encoded with ';' between layers, as
    ``gnnsearch.search`` looks them up (``in`` and ``[]``). The space has
    too many architectures to enumerate, so values are computed on lookup.
    """

    def __init__(self, space, slot_options: list, seed: int):
        import numpy as np

        self.space = space
        rng = np.random.default_rng(seed)
        self.weights = [rng.uniform(0.0, 1.0, size=len(options)) for options in slot_options]
        self.peak = sum(float(w.max()) for w in self.weights)
        self._index = [{str(option): i for i, option in enumerate(options)} for options in slot_options]
        self._per_layer = len(slot_options) // space.layer_count

    def tokens(self, key):
        """Option indices of an encoded architecture, or None if it is not one."""
        if not isinstance(key, str):
            return None
        layers = [layer.split(",") for layer in key.split(";")]
        if len(layers) != self.space.layer_count or any(len(layer) != self._per_layer for layer in layers):
            return None
        fields = [field for layer in layers for field in layer]
        indices = []
        for field, index in zip(fields, self._index):
            if field not in index:
                return None
            indices.append(index[field])
        return indices

    def __getitem__(self, key):
        indices = self.tokens(key)
        if indices is None:
            raise KeyError(key)
        total = sum(float(w[i]) for w, i in zip(self.weights, indices))
        return 0.2 + 0.75 * total / self.peak

    def __contains__(self, key):
        return self.tokens(key) is not None


def surrogate_inputs(seed: int):
    """The full default 2-layer space and its seeded landscape."""
    import gnnsearch
    from gnnsearch.arch import slot_specs

    space = gnnsearch.default_space(layer_count=SURROGATE_LAYERS)
    landscape = Landscape(space, [slot.options for slot in slot_specs(space)], seed)
    return space, landscape


def surrogate_config(seed: int, cycle: int):
    import gnnsearch

    return gnnsearch.SearchConfig(
        strategy="graphnas",
        episodes=SURROGATE_EPISODES,
        layer_count=SURROGATE_LAYERS,
        seed=cycle_seed(seed, cycle),
        batch_size=1,
    )
