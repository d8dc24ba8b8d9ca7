"""Similarity computation and exact k-nearest-neighbor retrieval.

Scores for each query row are computed by one matrix-vector product against
the full reference matrix, so results are bit-identical no matter how queries
are batched; batching only bounds how many score rows are held in memory at
once. Ranking is by descending score with ties broken by ascending row index,
which makes every downstream number reproducible.

Metrics: ``cosine`` (zero vectors have similarity 0 to everything) and
``euclidean`` (similarity is the negated distance, so larger is closer).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import parsing, read_json, typed, typed_list, write_json
from .embed import EmbeddingMatrix
from .errors import (
    AlignmentError,
    DimensionMismatchError,
    IntegrityError,
    NonFiniteError,
    SizeError,
)

METRICS = ("cosine", "euclidean")


@dataclass(frozen=True, eq=False)
class NeighborList:
    """Top-k neighbor indices and similarity scores per profile row."""

    k: int
    neighbors: np.ndarray
    scores: np.ndarray
    metric: str
    excludes_self: bool
    index_order: tuple[str, ...]

    def __post_init__(self):
        neighbors = np.ascontiguousarray(self.neighbors, dtype=np.int64)
        scores = np.ascontiguousarray(self.scores, dtype=np.float64)
        if neighbors.shape != scores.shape or neighbors.ndim != 2:
            raise AlignmentError(
                f"neighbors {neighbors.shape} and scores {scores.shape} must be equal 2-D shapes"
            )
        if neighbors.shape[1] != self.k:
            raise AlignmentError(f"expected {self.k} columns, got {neighbors.shape[1]}")
        neighbors.setflags(write=False)
        scores.setflags(write=False)
        object.__setattr__(self, "neighbors", neighbors)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "index_order", tuple(self.index_order))

    @property
    def n(self) -> int:
        return self.neighbors.shape[0]


def _check_metric(metric: str) -> None:
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")


def pairwise_similarity(a, b, metric: str = "cosine") -> float:
    """Similarity of two vectors; symmetric, larger means more similar."""
    _check_metric(metric)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise DimensionMismatchError(a.shape, b.shape, "vector length")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise NonFiniteError("similarity inputs must be finite")
    if metric == "cosine":
        na = np.linalg.norm(a)
        nb = np.linalg.norm(b)
        if na == 0.0 or nb == 0.0:
            return 0.0
        return float(np.clip(a @ b / (na * nb), -1.0, 1.0))
    return float(-np.linalg.norm(a - b))


def _normalize_rows(data: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(data, axis=1, keepdims=True)
    out = data.copy()
    np.divide(out, norms, out=out, where=norms > 0)
    return out


class _RowScorer:
    """Scores one query row against a fixed reference matrix.

    The per-row kernel is the unit of reproducibility: every search path uses
    it unchanged, so batch boundaries cannot perturb scores.
    """

    def __init__(self, reference: np.ndarray, metric: str):
        self.metric = metric
        if metric == "cosine":
            self.ref = _normalize_rows(reference)
        else:
            self.ref = reference
            self.ref_sq = np.einsum("ij,ij->i", reference, reference)

    def prepare_queries(self, queries: np.ndarray) -> np.ndarray:
        return _normalize_rows(queries) if self.metric == "cosine" else queries

    def score_row(self, query_row: np.ndarray) -> np.ndarray:
        if self.metric == "cosine":
            return self.ref @ query_row
        sq = self.ref_sq + query_row @ query_row - 2.0 * (self.ref @ query_row)
        return -np.sqrt(np.maximum(sq, 0.0))


def _top_k(scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    # stable sort on negated scores: descending score, ties by ascending index
    order = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    return order, np.take_along_axis(scores, order, axis=1)


def _search(
    queries: np.ndarray,
    reference: np.ndarray,
    k: int,
    metric: str,
    exclude_diagonal: bool,
    batch_size: int | None,
) -> tuple[np.ndarray, np.ndarray]:
    _check_metric(metric)
    n_q, n_ref = queries.shape[0], reference.shape[0]
    if queries.shape[1] != reference.shape[1]:
        raise DimensionMismatchError(reference.shape[1], queries.shape[1], "embedding width")
    limit = n_ref - 1 if exclude_diagonal else n_ref
    if not 1 <= k <= limit:
        raise SizeError(f"k={k} out of range [1, {limit}] for {n_ref} reference rows")
    if batch_size is None:
        batch_size = n_q
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    scorer = _RowScorer(reference, metric)
    queries = scorer.prepare_queries(queries)
    neighbors = np.empty((n_q, k), dtype=np.int64)
    scores = np.empty((n_q, k), dtype=np.float64)
    for start in range(0, n_q, batch_size):
        stop = min(start + batch_size, n_q)
        block = np.empty((stop - start, n_ref))
        for i in range(start, stop):
            block[i - start] = scorer.score_row(queries[i])
            if exclude_diagonal:
                block[i - start, i] = -np.inf
        idx, val = _top_k(block, k)
        neighbors[start:stop] = idx
        scores[start:stop] = val
    return neighbors, scores


def knn_exact(
    matrix: EmbeddingMatrix,
    k: int,
    metric: str = "cosine",
    exclude_self: bool = True,
) -> NeighborList:
    """Exact top-k neighbors of every row against every other row."""
    neighbors, scores = _search(matrix.data, matrix.data, k, metric, exclude_self, None)
    return NeighborList(k, neighbors, scores, metric, exclude_self, matrix.index_order)


def knn_batched(
    matrix: EmbeddingMatrix,
    k: int,
    metric: str = "cosine",
    exclude_self: bool = True,
    batch_size: int = 128,
) -> NeighborList:
    """Memory-bounded exact search: identical output to :func:`knn_exact`.

    Peak working memory for scores is ``batch_size * N`` entries; the result
    is bit-identical for every batch size because scoring is per-row.
    """
    neighbors, scores = _search(matrix.data, matrix.data, k, metric, exclude_self, batch_size)
    return NeighborList(k, neighbors, scores, metric, exclude_self, matrix.index_order)


def search_queries(
    queries: np.ndarray,
    reference: np.ndarray,
    k: int,
    metric: str = "cosine",
    batch_size: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k reference rows for arbitrary query vectors (no self-exclusion)."""
    return _search(
        np.ascontiguousarray(queries, dtype=np.float64),
        np.ascontiguousarray(reference, dtype=np.float64),
        k,
        metric,
        False,
        batch_size,
    )


def knn_feature_reranked(
    matrix: EmbeddingMatrix,
    k: int,
    metric: str = "cosine",
    candidate_pool: int | None = None,
    field_weights=None,
    exclude_self: bool = True,
) -> NeighborList:
    """Two-stage retrieval: combined-row candidates, per-field rescoring.

    Stage 1 retrieves ``candidate_pool`` neighbors by whole-row similarity.
    Stage 2 rescores each candidate as the weighted mean of per-field-block
    similarities and keeps the top k under the usual tie rule. The default
    pool is ``max(4k, 50)``, capped at the number of available rows.
    """
    _check_metric(metric)
    n = matrix.n
    n_fields = len(matrix.field_order)
    if field_weights is None:
        field_weights = np.ones(n_fields)
    weights = np.asarray(field_weights, dtype=np.float64)
    if weights.shape != (n_fields,):
        raise DimensionMismatchError((n_fields,), weights.shape, "field weight count")
    if (weights < 0).any() or not (weights > 0).any():
        raise ValueError("field weights must be nonnegative and not all zero")
    limit = n - 1 if exclude_self else n
    if candidate_pool is None:
        candidate_pool = min(max(4 * k, 50), limit)
    if candidate_pool < k:
        raise SizeError(f"candidate_pool={candidate_pool} must be >= k={k}")
    candidate_pool = min(candidate_pool, limit)

    stage1, _ = _search(matrix.data, matrix.data, candidate_pool, metric, exclude_self, None)
    block_scorers = [
        _RowScorer(np.ascontiguousarray(matrix.field_block(f)), metric)
        for f in range(n_fields)
    ]
    block_queries = [
        scorer.prepare_queries(np.ascontiguousarray(matrix.field_block(f)))
        for f, scorer in enumerate(block_scorers)
    ]
    weight_sum = weights.sum()
    neighbors = np.empty((n, k), dtype=np.int64)
    scores = np.empty((n, k), dtype=np.float64)
    for i in range(n):
        cands = stage1[i]
        rescored = np.zeros(len(cands))
        for f, scorer in enumerate(block_scorers):
            if weights[f] == 0.0:
                continue
            rescored += weights[f] * scorer.score_row(block_queries[f][i])[cands]
        rescored /= weight_sum
        order = np.lexsort((cands, -rescored))[:k]
        neighbors[i] = cands[order]
        scores[i] = rescored[order]
    return NeighborList(k, neighbors, scores, metric, exclude_self, matrix.index_order)


# ---------------------------------------------------------------------------
# persistence


def save_neighbors(nl: NeighborList, path) -> None:
    write_json(path, neighbors_to_dict(nl))


def neighbors_to_dict(nl: NeighborList) -> dict:
    ids = nl.index_order
    return {
        "k": nl.k,
        "metric": nl.metric,
        "excludes_self": nl.excludes_self,
        "rows": [
            {
                "id": ids[i],
                "neighbors": [ids[j] for j in nl.neighbors[i]],
                "scores": [float(s) for s in nl.scores[i]],
            }
            for i in range(nl.n)
        ],
    }


def neighbors_from_dict(obj: dict) -> NeighborList:
    with parsing("neighbors"):
        rows = typed(obj, "rows", list)
        ids = tuple(typed(row, "id", str) for row in rows)
        named = [typed_list(row, "neighbors", str) for row in rows]
        scores = [typed_list(row, "scores", (int, float)) for row in rows]
        k = typed(obj, "k", int)
        metric = typed(obj, "metric", str)
        excludes_self = typed(obj, "excludes_self", bool)
        position = {pid: i for i, pid in enumerate(ids)}
        if len(position) != len(ids):
            raise AlignmentError("duplicate ids in neighbor rows")
        unknown = sorted({pid for names in named for pid in names} - position.keys())
        if unknown:
            raise IntegrityError(f"neighbor ids that name no row: {unknown[:10]}")
        neighbors = np.array([[position[pid] for pid in names] for names in named], dtype=np.int64)
        return NeighborList(
            k,
            neighbors.reshape(len(rows), k),
            np.array(scores, dtype=np.float64).reshape(len(rows), k),
            metric,
            excludes_self,
            ids,
        )


def load_neighbors(path) -> NeighborList:
    return neighbors_from_dict(read_json(path))
