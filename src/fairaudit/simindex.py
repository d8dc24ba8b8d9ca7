"""Similarity computation and exact k-nearest-neighbor retrieval.

:func:`search` is the one neighbor search. Rows split into F equal field blocks
weighted ``w_f`` (whole rows: one block, weight 1); a pair scores ``sum_f w_f s_f /
W``, ``W = sum(w)``, added in field order over nonzero weights, with ``s_f`` the
blocks' cosine (0 for a zero block) or negated euclidean distance. Per query block,
one float32 GEMM per field *screens* the whole reference alike (``-sqrt(max(|q|^2 +
|r|^2 - 2 q.r, 0))`` for euclidean). The float64 pair kernel of :func:`_pair_scores`
rescores every column the screen cannot rule out and decides every score and rank,
ties by row index: the screen's precision changes no result.

Memory. No float64 copy of the rows is made. The kernel gathers the caller's rows
of the pairs it scores and, for cosine, divides them elementwise by their norms
(:func:`~fairaudit._util.row_scales`; a norm of exactly 1 skips the divide), which
gives the bits of unit rows; a block's query rows are scaled once per block. The
float32 screen copies are made from the caller's rows, scaled as the kernel scales
them, ``_GATHER_ELEMS`` entries at a time.

Screen error. The screen reads float32 copies of the rows the kernel scores: unit
rows for cosine, and for euclidean each field's rows times the power of two ``c``
(exact) that brings its largest magnitude into [1/2, 1), so nothing overflows
(cosine: c = 1). Per field of width d < 2**22, let ``S = |q|^2 + max |r|^2`` of the
copies, ``u = 2**-24``, ``eps = 2u``, ``t = 2**-149`` the least float32 subnormal.
Rounding to float32 moves an entry x by at most ``u|x| + t``, so a dot product of
the copies moves by at most about ``u S + (d + S) t``; a float32 dot product of
length d, any order, is within ``d u |q||r| / (1 - d u) + d t / 2`` of exact
(Higham, *Accuracy and Stability of Numerical Algorithms*, 2.1 and 3.1), and the
float64 kernel's own error is 2**29 times smaller. So, with room to spare:

- cosine: ``|screen - kernel| <= e = (d + 8) eps S + 8 d t``, magnitude ``m = S + e``.
- euclidean: the GEMM form is within ``E = (d + 8) eps S + 4 d t`` of ``|q - r|^2`` of
  the copies. As ``|sqrt a - sqrt b| <= |a - b| / (sqrt a + sqrt b)``, a screened
  distance D is within ``r(D) = (1 + u) E / max(D, sqrt E)`` plus ``e = 2 eps sqrt S +
  eps sqrt E + 2 sqrt(d) t + c sqrt(2 d 2**-1074)`` (input and root rounding, the
  kernel's rounding and underflow) of c times the kernel's, ``m = 2 sqrt S + 2 (e +
  sqrt E)``. A row whose ``sqrt(2 S) / c`` reaches 2**500, where the kernel's sum
  may overflow to inf, gets ``e = inf``.

Fields add in units of ``1 / C``, ``C = min_f c_f``, with float32 weights ``fl(w_f C /
(c_f W))``. Weighting and adding in float32 and in the kernel's float64, and the
float32 steps below, add at most ``(F + 2) eps m_f`` per field, and underflow ``2 t
(1 + m_f)`` per field and ``2 F C 2**-1074``: so each query row has ``delta =
sum_f w_f C / (c_f W) (e_f + (F + 2) eps m_f) + ...`` and each euclidean entry a
radius ``R = sum_f fl(w_f C / (c_f W)) r_f(D_f)``, computed in float32 from E raised
by ``(F + 8) eps`` (cosine: R = 0). A bound that cannot be evaluated is infinite.

Selection. Every column's exact score lies within ``screen +- (R + delta)``. With
``s_k`` the k-th largest ``screen - R`` of a row (``-inf`` on its own column if self
is excluded), k columns score at least ``s_k - delta`` exactly, so the k-th exact
score does too, and every exact top-k column has ``screen + R >= s_k - 2 delta``; those
columns are rescored and ranked. So block size, BLAS threads and k change no score,
top-k is a prefix of top-K, and no buffer is N x N.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._util import (
    naming,
    parsing,
    positions,
    read_json,
    row_scales,
    scale_rows,
    typed,
    typed_list,
    write_json,
)
from .embed import EmbeddingMatrix
from .errors import (
    AlignmentError,
    DimensionMismatchError,
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
        if self.k < 1:
            raise SizeError(f"neighbor lists need k >= 1, got {self.k}")
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


# Bytes of one query block's scores, counted in float64 entries (the float32
# screen holds twice as many; the block's query copies may take four times as
# much), and float64 entries in each gather of the pair kernel and of the screen
# copies. They bound working memory; no result depends on them.
_BLOCK_ELEMS = 1 << 18
_GATHER_ELEMS = 1 << 17

# float32's eps and least subnormal, float64's least subnormal (module docstring)
_EPS, _TINY = float(np.finfo(np.float32).eps), float(np.finfo(np.float32).smallest_subnormal)
_TINY64 = float(np.finfo(np.float64).smallest_subnormal)


def _scale(metric: str, *blocks: np.ndarray) -> float:
    """The power of two, at most 2**1000, that brings a euclidean field's largest
    magnitude into [1/2, 1) or below; 1 for cosine, whose rows are unit rows."""
    if metric == "cosine":
        return 1.0
    top = max((max(b.max(), -b.min()) for b in blocks if b.size), default=0.0)
    return float(np.ldexp(1.0, -max(int(np.frexp(top)[1]), -1000)))


class _Rows(NamedTuple):
    """One field's rows as the caller holds them and, for cosine, their
    :func:`row_scales`, which make them the unit rows the pair kernel scores
    (``scales`` None: the kernel scores the rows as they are); their float32
    screen copy and the copy's squared norms, summed in float64."""

    rows: np.ndarray
    scales: tuple[np.ndarray, np.ndarray] | None
    low: np.ndarray
    sq: np.ndarray


def _gather(field: _Rows, index: np.ndarray) -> np.ndarray:
    """Rows ``index`` of ``field`` as the pair kernel scores them, in a new array."""
    rows = field.rows[index]
    if field.scales is not None:
        scale_rows(rows, *(part[index] for part in field.scales))
    return rows


def _field(data: np.ndarray, metric: str, scale: float) -> _Rows:
    """The rows of one field, a view of ``data``; the screen copy times ``scale`` is
    made from the scaled rows ``_GATHER_ELEMS`` entries at a time."""
    scales = row_scales(data, _GATHER_ELEMS) if metric == "cosine" else None
    field = _Rows(data, scales, np.empty(data.shape, np.float32), None)
    step = max(1, _GATHER_ELEMS // max(1, data.shape[1]))
    for at in range(0, len(data), step):
        part = _gather(field, np.arange(at, min(at + step, len(data))))
        np.multiply(part, scale, out=field.low[at : at + step], casting="same_kind")
    return field._replace(sq=np.einsum("ij,ij->i", field.low, field.low, dtype=np.float64))


def _block(field: _Rows, start: int, stop: int) -> _Rows:
    """Rows ``start:stop`` of ``field`` as a block of query rows, scaled once for
    all of their pairs."""
    rows = field.rows[start:stop]
    if field.scales is not None:
        rows = _gather(field, np.arange(start, stop))
    return _Rows(rows, None, field.low[start:stop], field.sq[start:stop])


def _screen(q: _Rows, ref: _Rows, metric: str, coef: np.float32, sq_error):
    """One field's weighted float32 GEMM scores of the rows ``q`` against every ``ref``
    row and, for euclidean, each score's weighted radius ``coef * r(D)`` (module
    docstring) from the squared-distance error ``(E, sqrt(E))`` of each query row."""
    gemm = q.low @ ref.low.T
    if metric == "cosine":
        gemm *= coef
        return gemm, None
    gemm *= -2.0
    gemm += ref.sq.astype(np.float32)
    gemm += q.sq.astype(np.float32)[:, None]
    np.sqrt(np.maximum(gemm, 0.0, out=gemm), out=gemm)
    e_sq, root = sq_error
    radius = np.maximum(gemm, root[:, None])
    np.divide(e_sq[:, None], radius, out=radius)
    radius *= coef
    gemm *= -coef
    return gemm, radius


def _field_error(q_sq, ref_sq_max, metric: str, d: int, scale: float, n_fields: int):
    """Per query row, one field's error terms (module docstring): the constant
    bound ``e``, the magnitude ``m`` and, for euclidean, float32 ``(E, sqrt(E))``
    with E raised and sqrt(E) lowered so that the float32 radius stays a bound."""
    s = q_sq + ref_sq_max
    if metric == "cosine":
        e = (d + 8) * _EPS * s + 8 * d * _TINY
        return e, s + e, None
    e_sq = (d + 8) * _EPS * s + 4 * d * _TINY
    e = 2 * _EPS * np.sqrt(s) + _EPS * np.sqrt(e_sq) + 2 * np.sqrt(d) * _TINY
    e += scale * np.sqrt(2 * d * _TINY64)
    e[np.sqrt(2 * s) / scale >= 2.0**500] = np.inf  # the kernel's sum may overflow
    sq_error = (
        (e_sq * (1 + (n_fields + 8) * _EPS)).astype(np.float32),
        (np.sqrt(e_sq) * (1 - 8 * _EPS)).astype(np.float32),
    )
    return e, 2 * np.sqrt(s) + 2 * (e + np.sqrt(e_sq)), sq_error


def _bounds(q, ref, weights, scales, total, metric: str, d: int):
    """Per query row of a block, delta, and per field the euclidean ``(E, sqrt(E))``
    (module docstring)."""
    common, n_fields = min(scales), len(weights)
    delta, sq_errors = 2 * n_fields * common * _TINY64, []
    with np.errstate(over="ignore", invalid="ignore"):
        for qf, rf, w, c in zip(q, ref, weights, scales):
            e, m, sq_error = _field_error(qf.sq, rf.sq.max(), metric, d, c, n_fields)
            delta = delta + w * (common / c) / total * (e + (n_fields + 2) * _EPS * m)
            delta = delta + 2 * _TINY * (1 + m)
            sq_errors.append(sq_error)
    return np.where(np.isnan(delta), np.inf, delta), sq_errors  # nan: cannot be evaluated


def _block_screen(q, ref, coefs, sq_errors, metric: str):
    """The block's screen, summed over fields, and for euclidean its radii."""
    screen = radius = None
    for qf, rf, coef, sq_error in zip(q, ref, coefs, sq_errors):
        part, part_radius = _screen(qf, rf, metric, coef, sq_error)
        screen = part if screen is None else np.add(screen, part, out=screen)
        if part_radius is not None:
            radius = part_radius if radius is None else np.add(radius, part_radius, out=radius)
        del part, part_radius  # before the next field's GEMM
    return screen, radius


def _candidates(screen, radius, delta, k: int, diagonal) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the block's entries that the screen cannot rule out of
    their row's exact top k (module docstring, "Selection"); ``diagonal`` holds the
    excluded entries, if any. Consumes ``screen`` and ``radius``."""
    n_ref = screen.shape[1]
    if radius is not None:
        screen -= radius  # lower bounds, but for delta
    if diagonal is not None:
        screen[diagonal] = -np.inf
    kth = np.empty(len(screen), np.float32)
    step = max(1, _GATHER_ELEMS // n_ref)
    for at in range(0, len(screen), step):  # partition copies its input: in chunks
        kth[at : at + step] = np.partition(screen[at : at + step], n_ref - k, axis=1)[
            :, n_ref - k
        ]
    if radius is not None:  # upper bounds, but for delta
        screen += np.multiply(radius, 2.0, out=radius)
        del radius
    keep = screen >= (kth - 2.0 * delta)[:, None]
    del screen
    if diagonal is not None:  # an infinite delta reaches the excluded entries too
        keep[diagonal] = False
    return np.nonzero(keep)


def _pair_scores(q: _Rows, ref: _Rows, rows, cols, metric: str) -> np.ndarray:
    """Pair-kernel scores of ``(q[rows[i]], ref[cols[i]])``, a row-wise einsum of ``q * r``
    (cosine) or ``(q - r)**2`` (euclidean): a score depends on its two rows alone, not
    on how many pairs are scored, where they sit in memory or on BLAS."""
    dots = np.empty(len(rows))
    step = max(1, _GATHER_ELEMS // max(1, q.rows.shape[1]))
    for start in range(0, len(rows), step):
        a = _gather(q, rows[start : start + step])
        b = _gather(ref, cols[start : start + step])
        left = a if metric == "cosine" else np.subtract(a, b, out=b)
        dots[start : start + step] = np.einsum("ij,ij->i", left, b)
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
    default one field), ``block`` rows per GEMM (default: as ``_BLOCK_ELEMS`` allows)."""
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
    check_batch_size(block)
    if not (np.isfinite(queries).all() and np.isfinite(reference).all()):
        raise NonFiniteError("search inputs must be finite")
    weights = np.ones(1) if weights is None else weights
    used, total, d = weights[weights > 0], weights.sum(), reference.shape[1] // len(weights)
    if block is None:  # float32 scores alive per query row: the screen, one field's part
        # of it if there are two, and for euclidean the radii of both
        live = min(len(used), 2) * (1 if metric == "cosine" else 2)
        block = max(1, 2 * _BLOCK_ELEMS // (n_ref * live))
        if metric == "cosine" or queries is not reference:  # and the block's query
            # copies: its scaled float64 rows (cosine), its float32 rows (queries)
            block = min(block, max(1, 32 * _BLOCK_ELEMS // (12 * queries.shape[1])))
    fields = [slice(f * d, (f + 1) * d) for f in np.flatnonzero(weights)]
    scales = [_scale(metric, queries[:, f], reference[:, f]) for f in fields]
    ref = [_field(reference[:, f], metric, c) for f, c in zip(fields, scales)]
    # field weights of the screen, which is in units of 1 / min(scales)
    coefs = [np.float32(w * (min(scales) / c) / total) for w, c in zip(used, scales)]
    neighbors = np.empty((n_q, k), dtype=np.int64)
    scores = np.empty((n_q, k), dtype=np.float64)
    for start in range(0, n_q, block):
        stop = min(start + block, n_q)
        if queries is reference:
            q = [_block(field, start, stop) for field in ref]
        else:
            q = [_block(_field(queries[start:stop, f], metric, c), 0, stop - start)
                 for f, c in zip(fields, scales)]
        delta, sq_errors = _bounds(q, ref, used, scales, total, metric, d)
        diagonal = (np.arange(stop - start), np.arange(start, stop)) if exclude_diagonal else None
        rows, cols = _candidates(*_block_screen(q, ref, coefs, sq_errors, metric), delta, k,
                                 diagonal)
        found = np.zeros(len(rows))
        for qf, rf, w in zip(q, ref, used):
            found += w * _pair_scores(qf, rf, rows, cols, metric)
        found /= total
        neighbors[start:stop], scores[start:stop] = _rank(rows, cols, found, stop - start, k)
    return neighbors, scores


def check_k(k: int, candidate_pool: int | None = None) -> None:
    """Reject a neighbor count below 1, or a candidate pool smaller than it."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if candidate_pool is not None and candidate_pool < k:
        raise ValueError(f"candidate_pool={candidate_pool} must be >= k={k}")


def check_batch_size(batch_size: int | None) -> None:
    """Reject a query batch size below 1 (None lets the search choose it)."""
    if batch_size is not None and batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")


def check_field_weights(field_weights, n_fields: int) -> np.ndarray:
    """``field_weights`` as floats (equal weights if None), rejected unless there is
    one per field and they are nonnegative, not all zero, with a finite sum."""
    weights = np.ones(n_fields) if field_weights is None else np.asarray(field_weights, float)
    if weights.shape != (n_fields,):
        raise ValueError(f"expected {n_fields} field weights, got shape {weights.shape}")
    with np.errstate(over="ignore"):  # an overflowing sum is rejected, not warned about
        if not np.isfinite(weights.sum()) or (weights < 0).any() or not (weights > 0).any():
            raise ValueError("field weights must have a finite sum, be nonnegative, not all zero")
    return weights


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
    check_k(k, candidate_pool)
    weights = check_field_weights(field_weights, len(matrix.field_order))
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
        if len(set(ids)) != len(ids):
            raise AlignmentError("duplicate ids in neighbor rows")
        if any(len(names) != k for names in named):
            raise ValueError(f"every row must hold k={k} neighbors")
        neighbors = np.array(positions(ids, [pid for names in named for pid in names]))
        return NeighborList(
            k,
            neighbors.reshape(len(rows), k),
            np.array(scores, dtype=np.float64).reshape(len(rows), k),
            metric,
            excludes_self,
            ids,
        )


def load_neighbors(path) -> NeighborList:
    with naming(path):
        return neighbors_from_dict(read_json(path), f"neighbors {path}")
