"""Training configuration and seeded randomized hyperparameter search."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..errors import TrainingError
from .birnn import birnn_train
from .stumps import train_stumps

# Sampling rules: a list is a uniform choice over its entries; a (lo, hi)
# tuple is uniform over the range, integer-valued when both ends are ints.
DEFAULT_SEARCH_SPACES = {
    "stumps": {
        "learning_rate": (0.05, 0.5),
        "rounds": (50, 300),
        "reg_lambda": [0.5, 1.0, 2.0],
    },
    "birnn": {
        "learning_rate": (0.02, 0.5),
        "hidden_dim": [16, 32, 64],
        "head_dim": [8, 16, 32],
        "batch_size": [16, 32, 64],
    },
}


@dataclass(frozen=True)
class TrainConfig:
    """Knobs shared by every learner plus per-family hyperparameters.

    ``max_epochs``/``patience`` drive recurrent-net early stopping; ``rounds``
    and ``reg_lambda`` drive boosting; the rest are shared. ``search_space``
    maps hyperparameter names to sampling rules (see DEFAULT_SEARCH_SPACES).
    """

    max_epochs: int = 20
    patience: int = 5
    learning_rate: float = 0.1
    batch_size: int = 32
    seed: int = 0
    rounds: int = 200
    reg_lambda: float = 1.0
    hidden_dim: int = 32
    head_dim: int = 16
    search_space: dict | None = None
    search_trials: int = 1

    def __post_init__(self):
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if not 0 <= self.patience <= self.max_epochs:
            raise ValueError("patience must be between 0 and max_epochs")
        if self.search_trials < 1:
            raise ValueError("search_trials must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.hidden_dim < 1 or self.head_dim < 1:
            raise ValueError("hidden_dim and head_dim must be >= 1")
        for name in ("learning_rate", "reg_lambda"):
            if not 0 <= getattr(self, name) < math.inf:  # NaN fails both comparisons
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one sampled configuration."""

    index: int
    params: dict
    val_accuracy: float | None
    error: str | None = None


@dataclass(frozen=True)
class SearchResult:
    model: object
    best_index: int
    best_params: dict
    trials: tuple[TrialRecord, ...]


def _sample_value(rng: np.random.Generator, rule):
    if isinstance(rule, list):
        return rule[int(rng.integers(len(rule)))]
    lo, hi = rule
    if isinstance(lo, int) and isinstance(hi, int):
        return int(rng.integers(lo, hi + 1))
    return float(rng.uniform(lo, hi))


def _train_one(family: str, x_train, y_train, x_val, y_val, config: TrainConfig):
    if family == "stumps":
        model = train_stumps(x_train, y_train, config)
        accuracy = float(np.mean(model.predict(x_val) == np.asarray(y_val)))
    else:
        model, history = birnn_train(x_train, y_train, x_val, y_val, config)
        accuracy = history.best_val_accuracy
    return model, accuracy


def random_search(
    family: str,
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    config: TrainConfig,
) -> SearchResult:
    """Sample configurations uniformly, train each, keep the best.

    The winner is the trial with the highest validation accuracy, ties broken
    by earliest trial index. Failed trials are recorded in the log with their
    error message and do not abort the search. Deterministic in
    ``config.seed``: the same seed yields the same trial sequence and winner.
    """
    if family not in DEFAULT_SEARCH_SPACES:
        raise ValueError(
            f"unknown family {family!r}; expected one of {tuple(DEFAULT_SEARCH_SPACES)}"
        )
    space = config.search_space if config.search_space is not None else DEFAULT_SEARCH_SPACES[family]
    if not space:
        raise ValueError("search space must be nonempty")
    rng = np.random.default_rng(config.seed)
    trials: list[TrialRecord] = []
    best: tuple[float, int] | None = None
    best_model = None
    for index in range(config.search_trials):
        params = {name: _sample_value(rng, rule) for name, rule in sorted(space.items())}
        trial_seed = int(rng.integers(2**31))
        try:
            trial_config = replace(
                config, seed=trial_seed, search_space=None, search_trials=1, **params
            )
            model, accuracy = _train_one(family, x_train, y_train, x_val, y_val, trial_config)
        except Exception as exc:  # record and continue; the search must survive bad draws
            trials.append(TrialRecord(index, params, None, f"{type(exc).__name__}: {exc}"))
            continue
        trials.append(TrialRecord(index, params, accuracy, None))
        if best is None or accuracy > best[0]:
            best = (accuracy, index)
            best_model = model
    if best is None:
        raise TrainingError("every search trial failed; see the trial log")
    return SearchResult(best_model, best[1], trials[best[1]].params, tuple(trials))
