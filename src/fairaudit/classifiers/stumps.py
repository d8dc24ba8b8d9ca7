"""Gradient-boosted decision stumps for binary classification.

Each round fits the single depth-1 split that minimizes logistic loss on the
current predictions, using second-order (Newton) leaf scores

    w = -sum(g) / (sum(h) + lambda),   g = p - y,   h = p (1 - p)

scaled by the learning rate. Split search is exact: every midpoint between
consecutive distinct sorted feature values is a candidate, and the best
(position, feature) pair wins with ties going to the earliest candidate in
scan order. Training is a pure function of the data and configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._util import typed
from ..errors import TrainingError

_CLAMP = 1e-12


@dataclass(frozen=True)
class Stump:
    """One depth-1 rule: rows with feature < threshold get the left score."""

    feature: int
    threshold: float
    left: float
    right: float


@dataclass
class BoostedStumps:
    """Additive ensemble of stumps in log-odds space.

    Leaf scores are stored post-shrinkage, so the margin of a row is
    ``base_score`` plus the sum of its leaf scores; the predicted label is 1
    when the squashed margin reaches 0.5.
    """

    stumps: list[Stump]
    learning_rate: float
    base_score: float
    train_loss: list[float] = field(default_factory=list, repr=False)

    family = "stumps"

    @property
    def rounds(self) -> int:
        return len(self.stumps)

    def to_dict(self) -> dict:
        return {
            "base_score": self.base_score,
            "learning_rate": self.learning_rate,
            "rounds": self.rounds,
            "stumps": [
                {"feature": s.feature, "threshold": s.threshold, "left": s.left, "right": s.right}
                for s in self.stumps
            ],
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "BoostedStumps":
        def numbers(o, *keys):
            return [float(typed(o, key, (int, float))) for key in keys]

        stumps = [Stump(typed(s, "feature", int), *numbers(s, "threshold", "left", "right"))
                  for s in typed(obj, "stumps", list)]
        if typed(obj, "rounds", int) != len(stumps) or any(s.feature < 0 for s in stumps):
            raise ValueError("stump list does not match its round count or has a negative feature")
        return cls(stumps, *numbers(obj, "learning_rate", "base_score"))

    def predict_margin(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        margin = np.full(x.shape[0], self.base_score)
        for stump in self.stumps:
            margin += np.where(x[:, stump.feature] < stump.threshold, stump.left, stump.right)
        return margin

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return _sigmoid(self.predict_margin(x))

    def predict(self, x: np.ndarray) -> np.ndarray:
        return (self.predict_margin(x) >= 0.0).astype(np.int64)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _logistic_loss(margin: np.ndarray, y: np.ndarray) -> float:
    # -log p for y=1 and -log(1-p) for y=0, numerically stable
    return float(np.mean(np.logaddexp(0.0, margin) - y * margin))


def train_stumps(x: np.ndarray, y: np.ndarray, config) -> BoostedStumps:
    """Fit ``config.rounds`` stumps greedily to logistic-loss residuals."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError(f"x {x.shape} and y {y.shape} are not aligned")
    n, n_features = x.shape
    if n < 2:
        raise TrainingError(f"need at least 2 training rows, got {n}")
    positives = float(y.sum())
    if positives == 0.0 or positives == n:
        raise TrainingError(
            "training labels contain a single class; no stumps can be fit, "
            "use the base score (class prior log-odds) alone"
        )
    lam = config.reg_lambda
    lr = config.learning_rate
    p0 = min(max(positives / n, _CLAMP), 1.0 - _CLAMP)
    base = float(np.log(p0 / (1.0 - p0)))

    order = np.argsort(x, axis=0, kind="stable")
    x_sorted = np.take_along_axis(x, order, axis=0)
    valid = x_sorted[:-1] < x_sorted[1:]

    margin = np.full(n, base)
    stumps: list[Stump] = []
    losses: list[float] = []
    for _ in range(config.rounds):
        p = _sigmoid(margin)
        g = p - y
        h = p * (1.0 - p)
        g_cum = np.cumsum(g[order], axis=0)
        h_cum = np.cumsum(h[order], axis=0)
        g_total = g_cum[-1]
        h_total = h_cum[-1]
        g_left = g_cum[:-1]
        h_left = h_cum[:-1]
        gain = g_left**2 / (h_left + lam) + (g_total - g_left) ** 2 / (h_total - h_left + lam)
        gain = np.where(valid, gain, -np.inf)
        flat = int(np.argmax(gain))
        if not np.isfinite(gain.flat[flat]):
            break  # every feature is constant; nothing left to split
        pos, feat = divmod(flat, n_features)
        threshold = (x_sorted[pos, feat] + x_sorted[pos + 1, feat]) / 2.0
        left = -lr * g_left[pos, feat] / (h_left[pos, feat] + lam)
        right = -lr * (g_total[feat] - g_left[pos, feat]) / (
            h_total[feat] - h_left[pos, feat] + lam
        )
        stumps.append(Stump(int(feat), float(threshold), float(left), float(right)))
        margin = margin + np.where(x[:, feat] < threshold, left, right)
        losses.append(_logistic_loss(margin, y))
    return BoostedStumps(stumps, lr, base, losses)
