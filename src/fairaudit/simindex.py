"""Similarity computation and exact k-nearest-neighbor retrieval.

:func:`search` is the one neighbor search. Rows split into F equal field blocks
weighted ``w_f`` (whole rows: one block, weight 1); a pair scores ``sum_f w_f s_f /
W``, ``W = sum(w)``, added in field order over nonzero weights, with ``s_f`` the
blocks' cosine (0 for a zero block) or negated euclidean distance. Per query block,
one GEMM per field *screens* the whole reference alike (``-sqrt(max(|q|^2 + |r|^2 -
2 q.r, 0))`` for euclidean, ``-inf`` on a query's own row if self is excluded).
Columns screening at least ``t - 2*delta``, ``t`` the row's k-th screen score, are
rescored by the pair kernel of :func:`_pair_scores` and ranked, ties by row index.

``delta`` bounds |screen - kernel|. Per field of width d let ``S = |q|^2 + max
|r|^2``, ``eps = 2u = 2**-52``, ``tiny`` the least subnormal. Any order of a
length-d dot product is within ``d u |q||r| / (1 - d u) + d tiny/2`` of exact
(Higham, *Accuracy and Stability of Numerical Algorithms*, 2.1 and 3.1): GEMM and
kernel cosines differ by ``e = (d + 8) eps S + 2 d tiny`` at most, size ``m = S +
e``. Squared distances (GEMM form; the kernel's ``sum (q - r)^2``) differ by ``2e``;
as ``|sqrt a - sqrt b| <= sqrt |a - b|`` and roots round, distances differ by ``e' =
(1 + eps) sqrt(2e) + 2 eps sqrt(S)``, size ``m = 2 sqrt(S) + 2e'``. Weighting,
adding and dividing by W add ``(F + 2) eps sum_f w_f m_f / W``, so ``delta = sum_f
w_f (e_f + (F + 2) eps m_f) / W`` (the slack in ``e`` covers delta's own rounding).
As k columns screen at least ``t``, the k-th exact score is at least ``t - delta``,
and each exact top-k column screens at least ``t - 2*delta``. So block size, BLAS
threads and k change no score, top-k is a prefix of top-K, and no buffer is N x N.
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


def pairwise_similarity(a, b, metric: str = "cosine") -> float:
    """Similarity of two vectors as :func:`search` scores the pair; symmetric,
    larger means more similar."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise DimensionMismatchError(a.shape, b.shape, "vector length")
    score = float(search(a[None], b[None], 1, metric, False)[1][0, 0])
    return float(np.clip(score, -1.0, 1.0)) if metric == "cosine" else score


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


def _screen(q, q_sq, ref, ref_sq, metric: str, weight: float) -> np.ndarray:
    """One field's weighted GEMM scores of the rows ``q`` against every ``ref`` row."""
    gemm = q @ ref.T
    if metric == "euclidean":
        gemm *= -2.0
        gemm += ref_sq
        gemm += q_sq[:, None]
        np.negative(np.sqrt(np.maximum(gemm, 0.0, out=gemm), out=gemm), out=gemm)
    gemm *= weight
    return gemm


def _pair_scores(q, ref, rows, cols, metric: str) -> np.ndarray:
    """Pair-kernel scores of ``(q[rows[i]], ref[cols[i]])``, a row-wise einsum of ``q * r``
    (cosine) or ``(q - r)**2`` (euclidean): a score depends on its two rows alone, not
    on how many pairs are scored, where they sit in memory or on BLAS."""
    dots = np.empty(len(rows))
    step = max(1, _GATHER_ELEMS // max(1, q.shape[1]))
    a, b = np.empty((2, min(step, len(rows)), q.shape[1]))
    for start in range(0, len(rows), step):
        m = min(step, len(rows) - start)
        # mode="clip" lets take write into the reused buffers without a copy
        np.take(q, rows[start : start + m], axis=0, out=a[:m], mode="clip")
        np.take(ref, cols[start : start + m], axis=0, out=b[:m], mode="clip")
        left = a[:m] if metric == "cosine" else np.subtract(a[:m], b[:m], out=b[:m])
        dots[start : start + m] = np.einsum("ij,ij->i", left, b[:m])
    return dots if metric == "cosine" else -np.sqrt(dots)


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
    weights: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k reference rows of every query row by the field ``weights`` (by
    default one field), ``block`` rows per GEMM (default: ``_BLOCK_ELEMS`` scores)."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
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
    weights = np.ones(1) if weights is None else weights
    used, total, d = weights[weights > 0], weights.sum(), reference.shape[1] // len(weights)
    fields = [slice(f * d, (f + 1) * d) for f in np.flatnonzero(weights)]
    ref = [_prepare(reference[:, f], metric) for f in fields]
    q = ref if queries is reference else [_prepare(queries[:, f], metric) for f in fields]
    eps, tiny = np.finfo(np.float64).eps, np.finfo(np.float64).smallest_subnormal
    delta = 0.0
    for (_, q_sq), (_, ref_sq), w in zip(q, ref, used):
        s = q_sq + ref_sq.max()
        e = (d + 8) * eps * s + 2 * d * tiny
        if metric == "euclidean":
            e = (1 + eps) * np.sqrt(2 * e) + 2 * eps * np.sqrt(s)
        m = s + e if metric == "cosine" else 2 * np.sqrt(s) + 2 * e
        delta = delta + w * (e + (len(used) + 2) * eps * m)
    band = 2.0 * delta / total
    neighbors = np.empty((n_q, k), dtype=np.int64)
    scores = np.empty((n_q, k), dtype=np.float64)
    for start in range(0, n_q, block):
        stop = min(start + block, n_q)
        screen = np.zeros((stop - start, n_ref))
        for (qf, q_sq), (rf, r_sq), w in zip(q, ref, used):
            screen += _screen(qf[start:stop], q_sq[start:stop], rf, r_sq, metric, w)
        screen /= total
        if exclude_diagonal:
            screen[np.arange(stop - start), np.arange(start, stop)] = -np.inf
        kth = np.partition(screen, n_ref - k, axis=1)[:, n_ref - k].copy()  # frees the rest
        rows, cols = np.nonzero(screen >= (kth - band[start:stop])[:, None])
        found = np.zeros(len(rows))
        for (qf, _), (rf, _), w in zip(q, ref, used):
            found += w * _pair_scores(qf, rf, rows + start, cols, metric)
        found /= total
        neighbors[start:stop], scores[start:stop] = _rank(rows, cols, found, stop - start, k)
    return neighbors, scores


def knn_exact(
    matrix: EmbeddingMatrix,
    k: int,
    metric: str = "cosine",
    exclude_self: bool = True,
) -> NeighborList:
    """Exact top-k neighbors of every row against every other row."""
    return knn_batched(matrix, k, metric, exclude_self, batch_size=None)


def knn_batched(
    matrix: EmbeddingMatrix,
    k: int,
    metric: str = "cosine",
    exclude_self: bool = True,
    batch_size: int | None = 128,
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
    """Exact top-k neighbors by the weighted mean of per-field-block similarities
    (equal weights by default; nonnegative, not all zero, finite sum): one
    :func:`search` over the field blocks. ``candidate_pool`` is ignored apart
    from the check that it is at least k: an exact search needs no pool."""
    n_fields = len(matrix.field_order)
    weights = np.ones(n_fields) if field_weights is None else np.asarray(field_weights, float)
    if weights.shape != (n_fields,):
        raise DimensionMismatchError((n_fields,), weights.shape, "field weight count")
    with np.errstate(over="ignore"):  # an overflowing sum is rejected, not warned about
        if not np.isfinite(weights.sum()) or (weights < 0).any() or not (weights > 0).any():
            raise ValueError("field weights must have a finite sum, be nonnegative, not all zero")
    if candidate_pool is not None and candidate_pool < k:
        raise SizeError(f"candidate_pool={candidate_pool} must be >= k={k}")
    neighbors, scores = search(matrix.data, matrix.data, k, metric, exclude_self, weights=weights)
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
