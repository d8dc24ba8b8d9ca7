"""Individual-fairness consistency and classification metrics.

The consistency score of a decision source over N profiles with k nearest
neighbors each is::

    C = 1 - (1/N) * sum_i | y_i - (1/k) * sum_{j in knn(i)} y_j |

i.e. one minus the mean absolute gap between each profile's decision and the
average decision over its k most similar profiles. C is 1 when every profile
is treated exactly like its neighborhood and decreases toward 0 as similar
profiles receive diverging decisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import DecisionVector
from .errors import AlignmentError, SizeError
from .simindex import NeighborList

AVERAGING_MODES = ("binary", "macro", "weighted")
METRIC_NAMES = ("precision", "recall", "f1", "accuracy")  # ClassificationMetrics' scores


@dataclass(frozen=True, eq=False)
class ConsistencyResult:
    """Consistency score plus the per-profile gaps behind it."""

    score: float
    k: int
    n: int
    per_profile_gap: np.ndarray

    def to_dict(self) -> dict:
        return {
            "score": self.score,
            "k": self.k,
            "n": self.n,
            "per_profile_gap": [float(g) for g in self.per_profile_gap],
        }


@dataclass(frozen=True)
class ClassificationMetrics:
    """Precision/recall/F1/accuracy with the binary confusion counts."""

    precision: float
    recall: float
    f1: float
    accuracy: float
    averaging: str
    confusion: tuple[int, int, int, int]  # tp, fp, fn, tn

    def to_dict(self) -> dict:
        return {
            **{name: getattr(self, name) for name in METRIC_NAMES},
            "averaging": self.averaging,
            "confusion": {k: v for k, v in zip(("tp", "fp", "fn", "tn"), self.confusion)},
        }


def consistency(
    decisions: DecisionVector, neighbors: NeighborList, k: int | None = None
) -> ConsistencyResult:
    """Consistency of one decision source over a neighbor structure.

    ``decisions`` and ``neighbors`` must share the same index order; ``k``,
    when given, must equal the neighbor structure's k (a guard for callers
    wiring the two together from files).
    """
    if tuple(decisions.index_order) != tuple(neighbors.index_order):
        raise AlignmentError(
            f"decisions ({decisions.source}) and neighbors are not aligned on the same ids"
        )
    if k is not None and k != neighbors.k:
        raise AlignmentError(f"requested k={k} but neighbor structure has k={neighbors.k}")
    n = len(decisions)
    if n == 0:
        raise SizeError("cannot compute consistency of an empty decision vector")
    values = decisions.values.astype(np.float64)
    neighbor_mean = values[neighbors.neighbors].sum(axis=1) / neighbors.k
    gaps = np.abs(values - neighbor_mean)
    score = 1.0 - math.fsum(gaps) / n
    return ConsistencyResult(score, neighbors.k, n, gaps)


def consistency_gap(a: ConsistencyResult, b: ConsistencyResult) -> float:
    """Difference of two consistency scores, in percentage points (a - b)."""
    if a.k != b.k:
        raise AlignmentError(f"cannot compare consistency at k={a.k} vs k={b.k}")
    if a.n != b.n:
        raise AlignmentError(f"cannot compare consistency over n={a.n} vs n={b.n} profiles")
    return (a.score - b.score) * 100.0


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def classification_metrics(
    predicted: DecisionVector, truth: DecisionVector, averaging: str = "weighted"
) -> ClassificationMetrics:
    """Precision, recall, F1, and accuracy of predictions against truth.

    ``binary`` treats label 1 as the positive class; ``macro`` averages the
    two per-class scores unweighted; ``weighted`` averages them by class
    support. Confusion counts are always reported from the binary view, and
    any zero-denominator score is defined as 0.
    """
    if averaging not in AVERAGING_MODES:
        raise ValueError(f"unknown averaging {averaging!r}; expected one of {AVERAGING_MODES}")
    if tuple(predicted.index_order) != tuple(truth.index_order):
        raise AlignmentError(
            f"{predicted.source} and {truth.source} are not aligned on the same ids"
        )
    n = len(truth)
    if n == 0:
        raise SizeError("cannot compute metrics over zero profiles")
    p = predicted.values
    t = truth.values
    tp = int(np.sum((p == 1) & (t == 1)))
    fp = int(np.sum((p == 1) & (t == 0)))
    fn = int(np.sum((p == 0) & (t == 1)))
    tn = int(np.sum((p == 0) & (t == 0)))
    accuracy = (tp + tn) / n
    pos = _prf(tp, fp, fn)
    neg = _prf(tn, fn, fp)  # class 0 as the positive class
    if averaging == "binary":
        precision, recall, f1 = pos
    elif averaging == "macro":
        precision, recall, f1 = ((a + b) / 2 for a, b in zip(pos, neg))
    else:
        support_pos = tp + fn
        support_neg = tn + fp
        precision, recall, f1 = (
            (support_pos * a + support_neg * b) / n for a, b in zip(pos, neg)
        )
    return ClassificationMetrics(precision, recall, f1, accuracy, averaging, (tp, fp, fn, tn))
