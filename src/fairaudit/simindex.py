"""Similarity computation and exact k-nearest-neighbor retrieval.

:func:`search` is the one neighbor search. Rows split into F equal field blocks
weighted ``w_f`` (whole rows: one block, weight 1); a pair scores ``sum_f w_f s_f /
W``, ``W = sum(w)``, added in field order over nonzero weights, with ``s_f`` the
blocks' cosine (0 for a zero block) or negated euclidean distance. Per tile of query
rows by reference rows, one float32 GEMM per field *screens* the pairs
(``-sqrt(max(|q|^2 + |r|^2 - 2 q.r, 0))`` for euclidean). The float64 pair kernel of
:func:`_pair_scores` rescores every pair the screen cannot rule out and decides every
score and rank, ties by row index: the screen's precision changes no result.

Memory. Every search reads float32 rows, checked by the rule an
:class:`~fairaudit.embed.EmbeddingMatrix` applies (:func:`~fairaudit._util.float32_rows`):
a matrix's rows as they are, other rows rounded to float32 once; no float64 copy of
the rows is made. The kernel gathers the rows of the pairs it scores, as float64,
and, for cosine, divides them by the norms that :func:`~fairaudit._util.unit_rows`
returned when it wrote the float32 screen copy, which gives the bits of unit rows; a
query row is divided once per rescore, unless its pairs fill more than one gather.
For euclidean the screen copy is the rows times a power of two, taken in float64.
Beyond the screen copies a search holds tiles of a fixed size and, per row, k floats
and its candidates.

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
  eps sqrt E + 2 sqrt(d) t`` (input, root and kernel rounding) of c times the
  kernel's, ``m = 2 sqrt S + 2 (e + sqrt E)``. The kernel's float64 squares of the
  differences of float32 values neither overflow nor underflow.

Fields add in units of ``1 / C``, ``C = min_f c_f``, with float32 weights ``fl(w_f C /
(c_f W))``. Weighting and adding in float32 and in the kernel's float64, and the
float32 steps below, add at most ``(F + 2) eps m_f`` per field, and underflow ``2 t
(1 + m_f)`` per field and ``2 F C 2**-1074``: so each query row has ``delta =
sum_f w_f C / (c_f W) (e_f + (F + 2) eps m_f) + ...`` and each euclidean entry a
radius ``R = sum_f fl(w_f C / (c_f W)) r_f(D_f)``, computed in float32 from E raised
by ``(F + 8) eps`` (cosine: R = 0).

Selection. Every column's exact score lies within ``screen +- (R + delta)``. With
``s_k`` the k-th largest ``screen - R`` of a row (``-inf`` on its own column if self
is excluded), k columns score at least ``s_k - delta`` exactly, so the k-th exact
score does too, and every column that scores at least the k-th exact score has
``screen + R >= s_k - 2 delta``; those columns are rescored and ranked.

The screen runs in tiles whose live float32 arrays hold ``2 * _BLOCK_ELEMS``
entries together, as square as that allows, so a GEMM's height does not shrink as
the reference grows. Each row keeps a running ``s_k``, the k-th largest ``screen - R`` of the
tiles seen so far, and the entries with ``screen + R >= s_k - 2 delta``, pruned
again as the running ``s_k`` rises. A running ``s_k`` never exceeds the final one,
so the entries kept include every entry the final ``s_k`` keeps, and a last filter
with the final ``s_k`` leaves exactly those.

Self-search (one array as queries and reference) screens only the tiles on and
above the diagonal and uses each entry off the diagonal twice: for its row, and
transposed for its column. Transposed, the entry screens the same pair with the
roles of the two rows swapped. The GEMM bound holds for any summation order, and
``S`` takes the largest norm of all rows, so it bounds the entry for either row;
the transposed radius ``R`` uses the column row's ``(E, sqrt(E))`` and its delta
the column row's own. So tile size, BLAS threads and k change no score, top-k is a
prefix of top-K, and no buffer is N x N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._util import (
    check_unique,
    float32_rows,
    naming,
    parsing,
    positions,
    read_json,
    typed,
    typed_list,
    unit_rows,
    write_json,
)
from .embed import EmbeddingMatrix
from .errors import (
    AlignmentError,
    DimensionMismatchError,
    IntegrityError,
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
        ordered = np.sort(neighbors, axis=1)
        twice = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
        itself = (neighbors == np.arange(len(neighbors))[:, None]).any(axis=1)
        for bad, what in ((twice, "names one neighbor twice"),
                          (itself & self.excludes_self, "names itself, though self is excluded")):
            if bad.any():
                raise IntegrityError(f"neighbor row {int(np.argmax(bad))} {what}")
        neighbors.setflags(write=False)
        scores.setflags(write=False)
        object.__setattr__(self, "neighbors", neighbors)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "index_order", tuple(self.index_order))

    @property
    def n(self) -> int:
        return self.neighbors.shape[0]


def pairwise_similarity(a, b, metric: str = "cosine") -> float:
    """Similarity of two vectors as :func:`search` scores the pair, each rounded to
    float32 first as an EmbeddingMatrix rounds it; symmetric, larger means more
    similar."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise DimensionMismatchError(a.shape, b.shape, "vector length")
    score = float(search(a[None], b[None], 1, metric, False)[1][0, 0])
    return float(np.clip(score, -1.0, 1.0)) if metric == "cosine" else score


# Bytes of one screen tile's scores, counted in float64 entries (its float32
# arrays hold twice as many entries; a query tile's float32 rows may take four
# times as many bytes), and entries in each gather of the pair kernel and each
# chunk of the running selection. They bound working memory; no result depends on them.
_BLOCK_ELEMS = 1 << 18
_GATHER_ELEMS = 1 << 17

# float32's eps and least subnormal, float64's least subnormal (module docstring)
_EPS, _TINY = float(np.finfo(np.float32).eps), float(np.finfo(np.float32).smallest_subnormal)
_TINY64 = float(np.finfo(np.float64).smallest_subnormal)


def _scale(metric: str, *blocks: np.ndarray) -> float:
    """The power of two, at most 2**148 for float32 rows, that brings a euclidean
    field's largest magnitude into [1/2, 1) (a zero field: 1); 1 for cosine, whose
    rows are unit rows."""
    if metric == "cosine":
        return 1.0
    top = max((max(b.max(), -b.min()) for b in blocks if b.size), default=0.0)
    return float(np.ldexp(1.0, -int(np.frexp(top)[1])))


class _Rows(NamedTuple):
    """One field's float32 rows and, for cosine, the norms from :func:`unit_rows`,
    which make them the unit rows the pair kernel scores (``norms`` None: the kernel
    scores the rows as they are); their float32 screen copy, the copy's squared
    norms, summed in float64, and for euclidean query rows the squared-distance
    error ``(E, sqrt(E))`` of each row."""

    rows: np.ndarray
    norms: np.ndarray | None
    low: np.ndarray | None
    sq: np.ndarray | None
    error: tuple[np.ndarray, np.ndarray] | None = None

    def part(self, start: int, stop: int) -> "_Rows":
        """Rows ``start:stop``, a view."""
        def cut(x):
            return None if x is None else x[start:stop]

        def pair(x):
            return None if x is None else (cut(x[0]), cut(x[1]))

        return _Rows(cut(self.rows), cut(self.norms), cut(self.low), cut(self.sq),
                     pair(self.error))


def _gather(field: _Rows, index: np.ndarray) -> np.ndarray:
    """Rows ``index`` of ``field`` as the pair kernel scores them, in a new float64
    array: for cosine, divided by the field's stored norms."""
    rows = field.rows[index].astype(np.float64)
    if field.norms is not None:
        rows /= field.norms[index, None]
    return rows


def _field(data: np.ndarray, metric: str, scale: float) -> _Rows:
    """The rows of one field, a view of ``data``, and their float32 screen copy: for
    cosine the unit rows that :func:`unit_rows` writes, for euclidean the rows times
    ``scale``, multiplied in float64 (``scale`` may exceed float32)."""
    low = np.empty(data.shape, np.float32)
    if metric == "cosine":
        norms = unit_rows(data, low)
    else:
        norms = None
        np.multiply(data, scale, out=low, dtype=np.float64, casting="same_kind")
    return _Rows(data, norms, low, np.einsum("ij,ij->i", low, low, dtype=np.float64))


def _radius(dist, sq_error, coef: np.float32):
    """``coef * r(D)`` of each distance (module docstring) from the squared-distance
    error ``(E, sqrt(E))`` of the row it is in."""
    e_sq, root = sq_error
    radius = np.maximum(dist, root[:, None])
    np.divide(e_sq[:, None], radius, out=radius)
    radius *= coef
    return radius


def _screen(q: _Rows, ref: _Rows, metric: str, coef: np.float32, mirror: bool):
    """One field's weighted float32 GEMM scores of the rows ``q`` against the rows
    ``ref`` and, for euclidean, the weighted radii of the ``q`` rows and, if
    ``mirror``, of the ``ref`` rows (their transpose, in the tile's layout)."""
    gemm = q.low @ ref.low.T
    if metric == "cosine":
        if coef != 1:  # exactly 1: one field
            gemm *= coef
        return gemm, []
    gemm *= -2.0
    gemm += ref.sq.astype(np.float32)
    gemm += q.sq.astype(np.float32)[:, None]
    np.sqrt(np.maximum(gemm, 0.0, out=gemm), out=gemm)
    radii = [_radius(gemm, q.error, coef)]
    if mirror:
        radii.append(_radius(gemm.T, ref.error, coef).T)
    gemm *= -coef
    return gemm, radii


def _tile_screen(q, ref, coefs, metric: str, mirror: bool):
    """One tile's screen, summed over fields, and for euclidean its radii (see
    :func:`_screen`)."""
    screen, radii = None, []
    for qf, rf, coef in zip(q, ref, coefs):
        part, parts = _screen(qf, rf, metric, coef, mirror)
        screen = part if screen is None else np.add(screen, part, out=screen)
        radii = [np.add(r, p, out=r) for r, p in zip(radii, parts)] if radii else parts
        del part, parts  # before the next field's GEMM
    return screen, radii


def _field_error(q_sq, ref_sq_max, metric: str, d: int, n_fields: int):
    """Per query row, one field's error terms (module docstring): the constant
    bound ``e``, the magnitude ``m`` and, for euclidean, float32 ``(E, sqrt(E))``
    with E raised and sqrt(E) lowered so that the float32 radius stays a bound."""
    s = q_sq + ref_sq_max
    if metric == "cosine":
        e = (d + 8) * _EPS * s + 8 * d * _TINY
        return e, s + e, None
    e_sq = (d + 8) * _EPS * s + 4 * d * _TINY
    e = 2 * _EPS * np.sqrt(s) + _EPS * np.sqrt(e_sq) + 2 * np.sqrt(d) * _TINY
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
    for qf, rf, w, c in zip(q, ref, weights, scales):
        e, m, sq_error = _field_error(qf.sq, rf.sq.max(), metric, d, n_fields)
        delta = delta + w * (common / c) / total * (e + (n_fields + 2) * _EPS * m)
        delta = delta + 2 * _TINY * (1 + m)
        sq_errors.append(sq_error)
    return delta, sq_errors


class _Selection:
    """The running selection of rows cut into tiles of ``tile`` rows (module
    docstring, "Selection"): per row the k largest lower bounds ``screen - R`` seen
    so far, the least of which is the running ``s_k``, and per tile the entries
    ``(row, column, screen + R)`` whose upper bound still reaches ``s_k - 2 delta``."""

    def __init__(self, delta: np.ndarray, k: int, tile: int):
        self.best = np.full((len(delta), k), -np.inf, np.float32)
        self.margin = 2.0 * delta
        self.tile = tile
        self.kept: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def _pruned(self, rows, cols, upper):
        keep = upper >= self.best[rows, 0] - self.margin[rows]
        return rows[keep], cols[keep], upper[keep]

    def add(self, row0: int, col0: int, screen, radius=None, diagonal=None) -> None:
        """Fold in the tile ``screen`` of rows ``row0 + i`` and columns ``col0 + j``
        and its radii (consumed); ``diagonal`` holds its excluded entries, if any."""
        n, width = screen.shape
        k = self.best.shape[1]
        best = self.best[row0 : row0 + n]
        step = max(1, _GATHER_ELEMS // (width + k))
        for at in range(0, n, step):  # the k best of the old k and the lower bounds
            part = np.empty((min(step, n - at), k + width), np.float32)
            part[:, :k] = best[at : at + step]
            if radius is None:
                part[:, k:] = screen[at : at + step]
            else:
                np.subtract(screen[at : at + step], radius[at : at + step], out=part[:, k:])
            part.partition(width, axis=1)
            best[at : at + step] = part[:, width:]
            del part
        upper = screen if radius is None else np.add(screen, radius, out=radius)
        keep = upper >= (best[:, 0] - self.margin[row0 : row0 + n])[:, None]
        if diagonal is not None:  # an infinite delta reaches the excluded entries too
            keep[diagonal] = False
        rows, cols = np.nonzero(keep)
        del keep
        values = upper[rows, cols]
        rows = (rows + row0).astype(np.int32)
        cols = (cols + col0).astype(np.int32)
        first, last = row0 // self.tile, (row0 + n - 1) // self.tile
        cuts = [0, *np.searchsorted(rows, np.arange(first + 1, last + 1) * self.tile), len(rows)]
        for t, a, b in zip(range(first, last + 1), cuts, cuts[1:]):  # the rows' tiles
            new = (rows[a:b], cols[a:b], values[a:b])
            old = self.kept.get(t)
            self.kept[t] = new if old is None else self._pruned(
                *(np.concatenate(pair) for pair in zip(old, new)))

    def take(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Rows (from ``start``, sorted) and columns of the entries of the tile of rows
        ``start:stop`` that the final ``s_k`` keeps, as the tile's last use."""
        rows, cols, _ = self._pruned(*self.kept.pop(start // self.tile))
        order = np.argsort(rows, kind="stable")
        return rows[order] - start, cols[order]


def _diagonal(r0: int, r1: int, c0: int, c1: int):
    """The entries of the tile of rows ``r0:r1`` and columns ``c0:c1`` whose row and
    column are equal, in the tile's coordinates, or None."""
    i = np.arange(max(r0, c0), min(r1, c1))
    return (i - r0, i - c0) if len(i) else None


def _tile_shape(width: int, n_fields: int, metric: str, symmetric: bool, block):
    """Rows and columns of a screen tile: ``block`` rows, by default as square as
    ``_BLOCK_ELEMS`` allows and, for a query tile, its float32 rows in ``32 *
    _BLOCK_ELEMS`` bytes; then as many columns as the budget allows, for
    self-search at least as many as rows."""
    # float32 tiles alive at once: the screen, one field's part of it if there are
    # two, and for euclidean the radii of the rows (and of the columns, self-search)
    live = min(n_fields, 2) * (1 if metric == "cosine" else 2) + (symmetric and metric != "cosine")
    elems = max(1, 2 * _BLOCK_ELEMS // live)
    rows = block or math.isqrt(elems)
    if block is None and not symmetric:
        rows = min(rows, max(1, 8 * _BLOCK_ELEMS // width))
    cols = max(1, elems // rows)
    return rows, max(rows, cols) if symmetric else cols


def _pair_scores(q: _Rows, ref: _Rows, rows, cols, metric: str) -> np.ndarray:
    """Pair-kernel scores of ``(q[rows[i]], ref[cols[i]])`` (``rows`` sorted), a row-wise
    einsum of ``q * r`` (cosine) or ``(q - r)**2`` (euclidean): a score depends on its
    two rows alone, not on how many pairs are scored, where they sit in memory or on
    BLAS. The pairs go in chunks of at most ``_GATHER_ELEMS // width`` that end at a
    query row's last pair unless that row's pairs fill a chunk, so a query row is
    gathered and scaled once unless its pairs fill more than one chunk."""
    dots = np.empty(len(rows))
    step = max(1, _GATHER_ELEMS // max(1, q.rows.shape[1]))
    a = np.empty((min(step, len(rows)), q.rows.shape[1]))  # refilled: one buffer per call
    start = 0
    while start < len(rows):
        stop = start + step
        if stop < len(rows):
            first = int(np.searchsorted(rows, rows[stop]))  # of the row at the cut
            if first > start:
                stop = first
        each, at = np.unique(rows[start:stop], return_inverse=True)
        left = np.take(_gather(q, each), at, axis=0, out=a[: len(at)], mode="clip")
        b = _gather(ref, cols[start:stop])
        if metric != "cosine":
            left = np.subtract(left, b, out=b)
        dots[start:stop] = np.einsum("ij,ij->i", left, b)
        del b, left  # before the next gather
        start = stop
    return dots if metric == "cosine" else -np.sqrt(dots)


def _rank(rows, cols, scores, n_rows: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """First k ``cols`` of each of ``rows`` (sorted, from 0) by the tie rule."""
    order = np.lexsort((cols, -scores, rows))
    pick = order[np.searchsorted(rows, np.arange(n_rows))[:, None] + np.arange(k)]
    return cols[pick], scores[pick]


def _rescore(q, ref, weights, total, rows, cols, k: int, metric: str):
    """Exact scores and top k of each row of the fields ``q`` among its candidate
    ``cols`` (``rows`` sorted, from 0)."""
    found = np.zeros(len(rows))
    for qf, rf, w in zip(q, ref, weights):
        found += w * _pair_scores(qf, rf, rows, cols, metric)
    found /= total
    return _rank(rows, cols, found, len(q[0].rows), k)


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
    default one field), screened in tiles of ``block`` rows (default: as
    ``_BLOCK_ELEMS`` allows). Given the same array twice (self-search), it screens
    each pair of rows once."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
    symmetric = queries is reference
    queries = float32_rows(queries, "search input")
    reference = queries if symmetric else float32_rows(reference, "search input")
    n_q, n_ref = queries.shape[0], reference.shape[0]
    if queries.shape[1] != reference.shape[1]:
        raise DimensionMismatchError(reference.shape[1], queries.shape[1], "embedding width")
    if reference.shape[1] == 0:
        raise DimensionMismatchError("at least 1", 0, "embedding width")
    limit = n_ref - 1 if exclude_diagonal else n_ref
    if not 1 <= k <= limit:
        raise SizeError(f"k={k} out of range [1, {limit}] for {n_ref} reference rows")
    if block is not None and block < 1:
        raise ValueError(f"batch_size must be >= 1, got {block}")
    weights = np.ones(1) if weights is None else weights
    used, total, d = weights[weights > 0], weights.sum(), reference.shape[1] // len(weights)
    tile, tile_cols = _tile_shape(queries.shape[1], len(used), metric, symmetric, block)
    fields = [slice(f * d, (f + 1) * d) for f in np.flatnonzero(weights)]
    scales = [_scale(metric, queries[:, f], reference[:, f]) for f in fields]
    ref = [_field(reference[:, f], metric, c) for f, c in zip(fields, scales)]
    # field weights of the screen, which is in units of 1 / min(scales)
    coefs = [np.float32(w * (min(scales) / c) / total) for w, c in zip(used, scales)]
    if symmetric:  # one selection and one delta for every row, from the largest norm
        delta, errors = _bounds(ref, ref, used, scales, total, metric, d)
        ref = [f._replace(error=e) for f, e in zip(ref, errors)]
        selection = _Selection(delta, k, tile)
    neighbors = np.empty((n_q, k), dtype=np.int64)
    scores = np.empty((n_q, k), dtype=np.float64)
    for start in range(0, n_q, tile):
        stop = min(start + tile, n_q)
        if symmetric:  # the tile's rows against the columns from its first row on
            q, at = [f.part(start, stop) for f in ref], start
        else:
            q = [_field(queries[start:stop, f], metric, c) for f, c in zip(fields, scales)]
            delta, errors = _bounds(q, ref, used, scales, total, metric, d)
            q = [f._replace(error=e) for f, e in zip(q, errors)]
            selection, at = _Selection(delta, k, tile), 0
        for left in range(at, n_ref, tile_cols):
            right = min(left + tile_cols, n_ref)
            mirror = symmetric and right > stop  # columns past the rows: used transposed too
            screen, radii = _tile_screen(q, [f.part(left, right) for f in ref], coefs, metric,
                                         mirror)
            diagonal = _diagonal(start, stop, left, right) if exclude_diagonal else None
            if diagonal is not None:
                screen[diagonal] = -np.inf
            selection.add(at, left, screen, radii[0] if radii else None, diagonal)
            if mirror:
                cut = max(left, stop)
                selection.add(cut, start, screen[:, cut - left :].T,
                              *(r[:, cut - left :].T for r in radii[1:]))
            del screen, radii  # before the next tile's GEMM
        q = [f._replace(low=None, sq=None) for f in q]  # the float32 query rows are done
        neighbors[start:stop], scores[start:stop] = _rescore(
            q, ref, used, total, *selection.take(at, at + stop - start), k, metric)
    return neighbors, scores


def check_k(k: int) -> None:
    """Reject a neighbor count below 1."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


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
    return knn_batched(matrix, k, metric, exclude_self)


def knn_batched(
    matrix: EmbeddingMatrix,
    k: int,
    metric: str = "cosine",
    exclude_self: bool = True,
    batch_size: int | None = None,
) -> NeighborList:
    """:func:`knn_exact` screening tiles of ``batch_size`` rows by ``batch_size``
    rows or more (default: the search's own tile shape); bit-identical to it for
    every batch and thread count."""
    neighbors, scores = search(matrix.data, matrix.data, k, metric, exclude_self, batch_size)
    return NeighborList(k, neighbors, scores, metric, exclude_self, matrix.index_order)


def search_queries(
    queries: np.ndarray,
    reference: np.ndarray,
    k: int,
    metric: str = "cosine",
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k reference rows for arbitrary query vectors (no self-exclusion)."""
    return search(queries, reference, k, metric, False)


def knn_feature_reranked(
    matrix: EmbeddingMatrix,
    k: int,
    metric: str = "cosine",
    *,
    field_weights=None,
    exclude_self: bool = True,
) -> NeighborList:
    """Exact top-k neighbors by the weighted mean of per-field-block similarities
    (equal weights by default; nonnegative, not all zero, finite sum): one
    :func:`search` over the field blocks."""
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
        if isinstance(obj, dict) and "rows" not in obj and isinstance(obj.get("stages"), dict):
            raise ValueError(f"holds one structure per stage {list(obj['stages'])}, as a run "
                             "directory's neighbors.json does; expected one structure")
        rows = typed(obj, "rows", list)
        ids = tuple(typed(row, "id", str) for row in rows)
        named = [typed_list(row, "neighbors", str) for row in rows]
        scores = [typed_list(row, "scores", (int, float)) for row in rows]
        k = typed(obj, "k", int)
        metric = typed(obj, "metric", str)
        excludes_self = typed(obj, "excludes_self", bool)
        check_unique(ids, "neighbor rows")
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
