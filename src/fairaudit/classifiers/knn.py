"""Retrieval classifier: majority vote over the k nearest training rows."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._util import decode_array, stream_array, typed
from ..dataset import DecisionVector
from ..embed import EmbeddingMatrix
from ..errors import AlignmentError, SizeError
from ..simindex import METRICS, Selection, check_k, search


@dataclass
class KnnClassifier:
    """k-NN over a fixed reference embedding matrix with binary labels."""

    k: int = 5
    metric: str = "cosine"
    reference: np.ndarray | None = field(default=None, repr=False)
    labels: np.ndarray | None = field(default=None, repr=False)
    reference_ids: tuple[str, ...] = ()

    family = "knn"

    def __post_init__(self):
        check_k(self.k)
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}; expected one of {METRICS}")

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "metric": self.metric,
            "reference": stream_array(self.reference),
            "labels": [int(v) for v in self.labels],
            "reference_ids": list(self.reference_ids),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "KnnClassifier":
        clf = cls(typed(obj, "k", int), typed(obj, "metric", str))
        ids = tuple(typed(obj, "reference_ids", list))
        labels = DecisionVector("labels", typed(obj, "labels", list), ids)
        reference = decode_array(typed(obj, "reference", dict))
        if reference.ndim != 2 or len(reference) != len(ids):
            raise ValueError(f"reference shape {reference.shape} does not match {len(ids)} ids")
        clf.reference, clf.labels, clf.reference_ids = reference, labels.values, ids
        return clf

    def fit(self, matrix: EmbeddingMatrix, decisions: DecisionVector) -> "KnnClassifier":
        if matrix.index_order != decisions.index_order:
            raise AlignmentError("reference matrix and labels are not aligned on the same ids")
        self.reference = matrix.data
        self.labels = decisions.values
        self.reference_ids = matrix.index_order
        return self


def knn_vote(labels: np.ndarray, neighbors: np.ndarray, k: int) -> np.ndarray:
    """Majority vote of the ``labels`` of each row's ``k`` ``neighbors`` (nearest
    first). A tied vote (possible only for even k) goes to the nearest neighbor's
    label."""
    votes = labels[neighbors]
    ones = votes.sum(axis=1)
    return np.where(ones * 2 == k, votes[:, 0], (ones * 2 > k).astype(np.int64))


def knn_predict(clf: KnnClassifier, queries: EmbeddingMatrix) -> DecisionVector:
    """Majority vote (:func:`knn_vote`) among the k nearest training rows for each
    query. A query identical to a training row retrieves that row itself, so with
    k=1 it returns the row's own label.
    """
    if clf.reference is None or clf.labels is None:
        raise SizeError("classifier has no reference data; call fit first")
    [(neighbors, _)] = search(queries.data, clf.reference, [Selection(clf.k)], clf.metric)
    return DecisionVector("model:knn", knn_vote(clf.labels, neighbors, clf.k),
                          queries.index_order)
