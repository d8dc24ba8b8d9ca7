"""Similarity computation and exact k-nearest-neighbor retrieval.

:func:`search` scores a block of query rows against the whole reference with
one GEMM (unit-row dot products for cosine, negated squared distances for
euclidean, ``-inf`` on a query's own row when self is excluded), finds each
row's k-th largest score ``t`` with ``np.partition``, rescores the columns
scoring at least ``t - 2*delta`` (the band) with the pair kernel of
:func:`_pair_scores`, and ranks them by descending score, ties by row index.

``delta`` bounds |GEMM - pair kernel|: both sum a length-D dot product within
``gamma_D |q| |r| + D tiny/2`` of its exact value (``gamma_D = D u / (1 - D
u)``, ``u = 2**-53``, ``tiny`` the least subnormal; Higham, *Accuracy and
Stability of Numerical Algorithms*, sections 2.1 and 3.1), so they differ by at
most ``gamma_D S + D tiny``, ``S = |q|^2 + max |r|^2``. Euclidean doubles that,
adds ``7 u S`` rounding its sums and ties square roots of values up to ``8 u S``
apart; ``delta = (D + 8) eps S + 2 D tiny`` (``eps = 2 u``) covers it all. As k
columns score at least ``t``, the k-th exact score is at least ``t - delta``,
and each exact top-k column scores at least ``t - 2*delta`` in the GEMM. So
batch size and BLAS threads change memory use, never a result; by default no
buffer grows as N x N. Metrics: ``cosine`` (zero vectors have similarity 0 to
everything) and ``euclidean`` (similarity is the negated distance).
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


# Float64 entries in one query block's GEMM scores and in each gather buffer
# of the pair kernel. They bound working memory; no result depends on them.
_BLOCK_ELEMS = 1 << 18
_GATHER_ELEMS = 1 << 17


def _prepare(data: np.ndarray, metric: str) -> tuple[np.ndarray, np.ndarray]:
    """Rows as scored (unit rows for cosine) and their squared norms."""
    rows = np.array(data) if metric == "cosine" else np.ascontiguousarray(data)
    if metric == "cosine":  # in chunks: norm squares a copy of its input
        for chunk in np.array_split(rows, max(1, rows.size // _GATHER_ELEMS)):
            norms = np.linalg.norm(chunk, axis=1, keepdims=True)
            np.divide(chunk, norms, out=chunk, where=norms > 0)
    return rows, np.einsum("ij,ij->i", rows, rows)


def _pair_scores(q, q_sq, ref, ref_sq, rows, cols, metric: str) -> np.ndarray:
    """Scores of the pairs ``(q[rows[i]], ref[cols[i]])`` by the pair kernel, a
    row-wise einsum: a score depends on its two rows alone, not on how many
    pairs are scored, where they sit in memory or on BLAS."""
    dots = np.empty(len(rows))
    step = max(1, _GATHER_ELEMS // max(1, q.shape[1]))
    a, b = np.empty((2, min(step, len(rows)), q.shape[1]))
    for start in range(0, len(rows), step):
        m = min(step, len(rows) - start)
        # mode="clip" lets take write into the reused buffers without a copy
        np.take(q, rows[start : start + m], axis=0, out=a[:m], mode="clip")
        np.take(ref, cols[start : start + m], axis=0, out=b[:m], mode="clip")
        dots[start : start + m] = np.einsum("ij,ij->i", a[:m], b[:m])
    if metric == "cosine":
        return dots
    return -np.sqrt(np.maximum(ref_sq[cols] + q_sq[rows] - 2.0 * dots, 0.0))


def _rank(rows, cols, scores, n_rows: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """First k ``cols`` of each of ``rows`` (sorted, from 0) by the tie rule."""
    order = np.lexsort((cols, -scores, rows))
    pick = order[np.searchsorted(rows, np.arange(n_rows))[:, None] + np.arange(k)]
    return cols[pick], scores[pick]


def search(
    queries: np.ndarray,
    reference: np.ndarray,
    k: int,
    metric: str,
    exclude_diagonal: bool,
    block: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k reference rows of every query row, ``block`` rows per GEMM
    (by default as many as fit in ``_BLOCK_ELEMS`` scores)."""
    _check_metric(metric)
    queries = np.ascontiguousarray(queries, dtype=np.float64)
    reference = np.ascontiguousarray(reference, dtype=np.float64)
    n_q, n_ref = queries.shape[0], reference.shape[0]
    if queries.shape[1] != reference.shape[1]:
        raise DimensionMismatchError(reference.shape[1], queries.shape[1], "embedding width")
    limit = n_ref - 1 if exclude_diagonal else n_ref
    if not 1 <= k <= limit:
        raise SizeError(f"k={k} out of range [1, {limit}] for {n_ref} reference rows")
    if block is None:
        block = max(1, _BLOCK_ELEMS // n_ref)
    if block < 1:
        raise ValueError(f"batch_size must be >= 1, got {block}")
    if not (np.isfinite(queries).all() and np.isfinite(reference).all()):
        raise NonFiniteError("search inputs must be finite")
    ref, ref_sq = _prepare(reference, metric)
    q, q_sq = (ref, ref_sq) if queries is reference else _prepare(queries, metric)
    d, f64 = q.shape[1], np.finfo(np.float64)
    band = 2.0 * ((d + 8) * f64.eps * (q_sq + ref_sq.max()) + 2 * d * f64.smallest_subnormal)
    neighbors = np.empty((n_q, k), dtype=np.int64)
    scores = np.empty((n_q, k), dtype=np.float64)
    for start in range(0, n_q, block):
        stop = min(start + block, n_q)
        gemm = q[start:stop] @ ref.T
        if metric == "euclidean":
            gemm = 2.0 * gemm - ref_sq - q_sq[start:stop, None]
        if exclude_diagonal:
            gemm[np.arange(stop - start), np.arange(start, stop)] = -np.inf
        kth = np.partition(gemm, n_ref - k, axis=1)[:, n_ref - k].copy()  # frees the rest
        rows, cols = np.nonzero(gemm >= (kth - band[start:stop])[:, None])
        found = _pair_scores(q, q_sq, ref, ref_sq, rows + start, cols, metric)
        neighbors[start:stop], scores[start:stop] = _rank(rows, cols, found, stop - start, k)
    return neighbors, scores


def knn_exact(
    matrix: EmbeddingMatrix,
    k: int,
    metric: str = "cosine",
    exclude_self: bool = True,
) -> NeighborList:
    """Exact top-k neighbors of every row against every other row."""
    neighbors, scores = search(matrix.data, matrix.data, k, metric, exclude_self)
    return NeighborList(k, neighbors, scores, metric, exclude_self, matrix.index_order)


def knn_batched(
    matrix: EmbeddingMatrix,
    k: int,
    metric: str = "cosine",
    exclude_self: bool = True,
    batch_size: int = 128,
) -> NeighborList:
    """:func:`knn_exact` scoring ``batch_size`` query rows (``batch_size * N``
    entries) per GEMM; bit-identical to it for every batch and thread count."""
    neighbors, scores = search(matrix.data, matrix.data, k, metric, exclude_self, batch_size)
    return NeighborList(k, neighbors, scores, metric, exclude_self, matrix.index_order)


def search_queries(
    queries: np.ndarray,
    reference: np.ndarray,
    k: int,
    metric: str = "cosine",
    batch_size: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k reference rows for arbitrary query vectors (no self-exclusion)."""
    return search(queries, reference, k, metric, False, batch_size)


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
    similarities (pair kernel, candidates only) and keeps the top k under the
    usual tie rule. The default pool is ``max(4k, 50)``, capped at the number
    of available rows.
    """
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

    stage1, _ = search(matrix.data, matrix.data, candidate_pool, metric, exclude_self)
    rows = np.repeat(np.arange(n), candidate_pool)
    cols = stage1.ravel()
    rescored = np.zeros(len(cols))
    for f in np.flatnonzero(weights):
        block, sq = _prepare(matrix.field_block(f), metric)
        rescored += weights[f] * _pair_scores(block, sq, block, sq, rows, cols, metric)
    rescored /= weights.sum()
    neighbors, scores = _rank(rows, cols, rescored, n, k)
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


def neighbors_from_dict(obj: dict, what: str = "neighbors") -> NeighborList:
    with parsing(what):
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
    return neighbors_from_dict(read_json(path), f"neighbors {path}")
