"""Reinforcement-learning search over graph neural network architectures."""

__version__ = "0.4.0"

from .arch import ActionSpace, ArchDescription, decode, default_space, encode, random_arch, space_size
from .controller import Baseline, Controller, reinforce_step, shape_reward
from .gnn import TrainHyperparams, build_model, evaluate, forward, train_child
from .graphs import generate_multigraph, generate_sbm, load_citation, save_citation
from .search import SearchConfig, SharedParamStore, derive, search, top_k_report

__all__ = [
    "ActionSpace",
    "ArchDescription",
    "Baseline",
    "Controller",
    "SearchConfig",
    "SharedParamStore",
    "TrainHyperparams",
    "build_model",
    "decode",
    "default_space",
    "derive",
    "encode",
    "evaluate",
    "forward",
    "generate_multigraph",
    "generate_sbm",
    "load_citation",
    "random_arch",
    "reinforce_step",
    "save_citation",
    "search",
    "shape_reward",
    "space_size",
    "top_k_report",
    "train_child",
]
