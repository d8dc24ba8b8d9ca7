"""Training configuration shared by every learner."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class TrainConfig:
    """Knobs shared by every learner plus per-family hyperparameters.

    ``max_epochs``/``patience`` drive recurrent-net early stopping; ``rounds``
    and ``reg_lambda`` drive boosting; the rest are shared. ``search_space``
    maps hyperparameter names to sampling rules (see
    ``fairaudit.audit.random_search``).
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
