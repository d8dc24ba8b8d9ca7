"""Gradient-boosted decision stumps for binary classification.

Each round fits the single depth-1 split that minimizes logistic loss on the
current predictions, using second-order (Newton) leaf scores

    w = -sum(g) / (sum(h) + lambda),   g = p - y,   h = p (1 - p)

scaled by the learning rate. Split search is exact: every midpoint between
consecutive distinct sorted feature values is a candidate, and the best
(position, feature) pair wins with ties going to the earliest candidate in
scan order, the smallest ``pos * D + feature``. Training is a pure function
of the data and configuration.

The search walks the features in blocks of at most ``_BLOCK_ELEMS`` entries.
Each block is sorted once, feature-major, and keeps only the positions where
the sorted value changes, the real split points. Each round gathers g and h
(as the real and imaginary parts of one complex vector) into sort order,
takes their prefix sums along each feature's contiguous row, and scores the
real split points alone. The sums are sequential in sort order, as a dense
column-wise cumsum would be, so every stump and loss is the same to the last
bit. The sort orders (int64, the size of ``x``) and the split index (int32,
at most half that) are kept for the whole fit; beyond them a round needs
memory in proportion to one block, O(max(_BLOCK_ELEMS, N)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._util import typed
from ..errors import TrainingError

_CLAMP = 1e-12
# Entries (features x rows) per block of the split search. It bounds the scratch
# memory of a round: the block's complex prefix sums take 16 bytes an entry, 512 KB.
_BLOCK_ELEMS = 1 << 15


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


def _feature_blocks(x: np.ndarray) -> list[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Per block of features: (first feature, sort order, split index, splits per feature).

    A block holds at most ``_BLOCK_ELEMS`` entries (one feature at least). Its
    sort order is feature-major, shape ``(b, N)``, so the per-round prefix sums
    run along contiguous rows. The split index lists ``f * N + pos`` for every
    position where ``x_sorted[pos, f] < x_sorted[pos + 1, f]``; the others can
    never be a split, so their gains are never computed.
    """
    n, n_features = x.shape
    width = max(1, _BLOCK_ELEMS // n)
    blocks = []
    for start in range(0, n_features, width):
        cols = np.ascontiguousarray(x[:, start : start + width].T)
        order = np.argsort(cols, axis=1, kind="stable")
        x_sorted = np.take_along_axis(cols, order, axis=1)
        valid = np.zeros(cols.shape, dtype=bool)
        np.less(x_sorted[:, :-1], x_sorted[:, 1:], out=valid[:, :-1])
        del cols, x_sorted
        split_at = np.flatnonzero(valid).astype(np.int32)
        blocks.append((start, order, split_at, valid.sum(axis=1)))
    return blocks


def _left_sums(gh: np.ndarray, order: np.ndarray, split_at: np.ndarray, counts: np.ndarray):
    """Prefix sums of ``gh`` in sort order at each split, and each split's feature total.

    The sums are sequential along each row, as a column-wise cumsum of the
    dense ``gh[order]`` would be, so they are the same bits.
    """
    sums = gh[order]
    np.cumsum(sums, axis=1, out=sums)
    return sums.reshape(-1)[split_at], np.repeat(sums[:, -1], counts)


def _best_split(blocks, gh: np.ndarray, lam: float, n_features: int):
    """(feature, the two sorted rows around the split, left g+ih sum, total g+ih sum).

    The winner has the largest gain, ties going to the smallest scan key
    ``pos * D + feature``, as an argmax over the dense (N-1, D) gain array
    would pick. None when no split exists, when any gain is NaN, or when the
    largest gain is not finite: the cases where that argmax lands on a
    non-finite value.
    """
    n = gh.shape[0]
    best = None  # (gain, scan key, rows, left sum, total)
    for start, order, split_at, counts in blocks:
        if not split_at.size:
            continue
        left, total = _left_sums(gh, order, split_at, counts)
        g_left, h_left, g_total, h_total = left.real, left.imag, total.real, total.imag
        # reg_lambda=0 with saturated probabilities divides by zero; the NaN
        # or inf that results stops boosting below, as intended
        with np.errstate(divide="ignore", invalid="ignore"):
            gain = g_left**2 / (h_left + lam) + (g_total - g_left) ** 2 / (h_total - h_left + lam)
        top = gain.max()
        if np.isnan(top):
            return None
        if best is not None and top < best[0]:
            continue
        hits = np.flatnonzero(gain == top)
        feature, pos = np.divmod(split_at[hits].astype(np.int64), n)
        keys = pos * n_features + (start + feature)
        i = int(np.argmin(keys))
        if best is None or top > best[0] or keys[i] < best[1]:
            rows = order[feature[i], pos[i] : pos[i] + 2]
            best = (top, int(keys[i]), rows, left[hits[i]], total[hits[i]])
    if best is None or not np.isfinite(best[0]):
        return None
    _, key, rows, left, total = best
    return key % n_features, rows, left, total


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

    blocks = _feature_blocks(x)
    gh = np.empty(n, dtype=np.complex128)  # gradient and hessian, summed in one pass

    margin = np.full(n, base)
    stumps: list[Stump] = []
    losses: list[float] = []
    for _ in range(config.rounds):
        p = _sigmoid(margin)
        gh.real = p - y
        gh.imag = p * (1.0 - p)
        split = _best_split(blocks, gh, lam, n_features)
        if split is None:
            break  # every feature is constant, or a gain is not finite
        feat, rows, left_sum, total = split
        g_left, h_left, g_total, h_total = left_sum.real, left_sum.imag, total.real, total.imag
        threshold = (x[rows[0], feat] + x[rows[1], feat]) / 2.0
        left = -lr * g_left / (h_left + lam)
        right = -lr * (g_total - g_left) / (h_total - h_left + lam)
        stumps.append(Stump(int(feat), float(threshold), float(left), float(right)))
        margin = margin + np.where(x[:, feat] < threshold, left, right)
        losses.append(_logistic_loss(margin, y))
    return BoostedStumps(stumps, lr, base, losses)
