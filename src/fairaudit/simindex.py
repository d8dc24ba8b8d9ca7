"""Similarity computation and exact k-nearest-neighbor retrieval.

:func:`search` is the one neighbor search: one tiled pass of query rows against
reference rows that serves a list of selections (:class:`Selection`). Each takes,
for each of its query rows, the k best of its reference rows by its own score. Rows
split into P equal field blocks, the finest partition any selection needs (one
block when every selection takes whole rows). A *weighted* selection scores a pair
``sum_f w_f s_f / W``, ``W = sum(w)``, added in field order over nonzero weights,
with ``s_f`` the blocks' cosine (0 for a zero block) or negated euclidean distance;
a *whole-row* selection scores the whole rows' cosine or negated euclidean
distance. Per tile of query rows by reference rows, one float32 GEMM per field
*screens* the pairs (``|q|^2 + |r|^2 - 2 q.r`` for euclidean), and each selection
builds its own screen from those parts. The float64 pair kernel of
:func:`_pair_scores` rescores every pair a selection's screen cannot rule out and
decides every score and rank, ties by the reference row's place in the selection:
neither the screen's precision nor the other selections of a pass change a result.

Memory. Every search reads float32 rows, checked by the rule an
:class:`~fairaudit.embed.EmbeddingMatrix` applies (:func:`~fairaudit._util.float32_rows`):
a matrix's rows as they are, other rows rounded to float32 once; no float64 copy of
the rows is made. The kernel gathers the rows of the pairs it scores, as float64,
and, for cosine, divides them by the norms that :func:`~fairaudit._util.unit_rows`
returned (for a field, when it wrote the float32 screen copy), which gives the bits
of unit rows; a query row is divided once per rescore, unless its pairs fill more
than one gather. For euclidean the screen copy is the rows times the pass's one
power of two, taken in float64. Beyond the screen copies a search holds tiles of a
fixed size and, per selection and row, k floats and its candidates.

Screen error. The screen reads float32 copies of the rows the kernel scores: unit
rows for cosine, and for euclidean the rows times one power of two ``c`` (exact)
that brings the largest magnitude of the fields the pass screens, over its query and
reference rows, into [1/2, 1), so nothing overflows (cosine: c = 1). A field far
below that magnitude loses low bits or underflows in its copy, which the terms in
``t`` below cover. Per field of width d < 2**22, let ``S = max |q|^2 + max |r|^2`` of
the copies, each maximum over the rows of the selection (a self-search: its query
rows, and its reference rows; a query search: its rows of the query tile, and its
reference rows), so S bounds ``|q|^2 + |r|^2`` of every pair in either orientation;
``u = 2**-24``, ``eps = 2u``, and ``t = 2**-149`` the least float32 subnormal.
Rounding to float32 moves an entry x by at most ``u|x| + t``, so a dot product of
the copies moves by at most about ``u S + (d + S) t``; a float32 dot product of
length d, any order, is within ``d u |q||r| / (1 - d u) + d t / 2`` of exact (Higham,
*Accuracy and Stability of Numerical Algorithms*, 2.1 and 3.1), and the float64
kernel's own error is 2**29 times smaller. So, with room to spare:

- cosine: ``|screen - kernel| <= e = (d + 8) eps S + 8 d t``, magnitude ``m = S + e``.
- euclidean: the GEMM form is within ``E = (d + 8) eps S + 4 d t`` of ``|q - r|^2`` of
  the copies. As ``|sqrt a - sqrt b| <= |a - b| / (sqrt a + sqrt b)``, a screened
  distance D is within ``r(D) = (1 + u) E / max(D, sqrt E)`` plus ``e = 2 eps sqrt S +
  eps sqrt E + 2 sqrt(d) t`` (input, root and kernel rounding) of c times the
  kernel's, ``m = 2 sqrt S + 2 (e + sqrt E)``. The kernel's float64 squares of the
  differences of float32 values neither overflow nor underflow.

Fields add in units of ``1 / c`` with float32 weights ``fl(w_f / W)``. Weighting and
adding in float32 and in the kernel's float64, and the float32 steps below, add at
most ``(F + 2) eps m_f`` per field, and underflow ``2 t (1 + m_f)`` per field and ``2
F c 2**-1074``: so a selection has one ``delta = sum_f w_f / W (e_f + (F + 2) eps m_f)
+ ...``, and each euclidean entry a radius ``R = sum_f fl(w_f / W) r_f(D_f)``,
computed in float32 from the field's one E, raised by ``(F + 8) eps`` (cosine: R = 0).

Whole rows from field parts. Over P > 1 fields a whole-row selection builds its
screen from the same field GEMMs, so no screen copy of whole rows is made.

- cosine: with ``a_if = |x_if| / |x_i|`` (0 for an empty field), the cosine of whole
  rows is ``sum_f a_if a_jf g_f(i, j)`` exactly, ``g_f`` the field cosine, for any
  rows. As ``sum_f a_if^2 = 1``, ``sum_f a_if a_jf <= 1`` (Cauchy-Schwarz), so the
  field GEMMs' errors add to at most ``max_f e_f``. Rounding each ``a`` to float32,
  the two float32 products per field and the float32 sum of the P terms add at most
  ``(P + 8) eps m`` and underflow ``4 P t (1 + m)``, ``m = max_f m_f``: ``delta =
  max_f e_f + (P + 8) eps m + 4 P t (1 + m) + 2 P 2**-1074``, and R = 0.
- euclidean: the float32 sum ``sum_f Q_f`` of the fields' GEMM forms is within ``E =
  sum_f ((1 + P eps) E_f + (P + 1) eps S_f) + P t`` of the copies' whole squared
  distance, since ``|Q_f| <= 2 S_f + E_f`` bounds each term of the sum and ``P t`` its
  underflow. Its one square root D is then one field of width ``P d`` with that E and
  ``S = sum_f S_f``: e, m and ``r(D)`` as above, with F = 1.

Selection. Every column's exact score lies within ``screen +- (R + delta)``. With
``s_k`` the k-th largest ``screen - R`` of a row (``-inf`` on its own column if self
is excluded), k columns score at least ``s_k - delta`` exactly, so the k-th exact
score does too, and every column that scores at least the k-th exact score has
``screen + R >= s_k - 2 delta``; those columns are rescored and ranked. Each selection
keeps its own delta, running ``s_k``, candidates, kernel and tie rule.

The screen runs in tiles whose live float32 arrays hold ``2 * _BLOCK_ELEMS``
entries together per selection, as square as that allows, so a GEMM's height does
not shrink as the reference grows. Each row keeps a running ``s_k``, the k-th
largest ``screen - R`` of the tiles seen so far, and the entries with ``screen + R >=
s_k - 2 delta``, pruned again as the running ``s_k`` rises. A running ``s_k`` never
exceeds the final one, so the entries kept include every entry the final ``s_k``
keeps, and a last filter with the final ``s_k`` leaves exactly those.

Self-search (one array as queries and reference) runs over the rows some selection
names, screens only the tiles on and above the diagonal and uses each entry off the
diagonal twice: for its row, and transposed for its column. A selection of query
rows Q and reference rows K takes the entry of rows (i, j) if i is in Q and j in K,
and transposed if j is in Q and i in K. Transposed, the entry screens the same pair
with the roles of the two rows swapped. The GEMM bound holds for any summation
order, and ``S`` (a maximum over Q plus one over K) bounds the pair in either
orientation, so the entry's ``R`` and the one delta hold for the column row too:
the transposed radius is the row radius transposed. So tile size, BLAS threads, k
and the other selections of a pass change no score, top-k is a prefix of top-K, and
no buffer is N x N.
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
        index_order = tuple(self.index_order)
        if len(index_order) != len(neighbors):
            raise AlignmentError(f"{len(index_order)} ids for {len(neighbors)} neighbor rows")
        outside = ((neighbors < 0) | (neighbors >= len(neighbors))).any(axis=1)
        ordered = np.sort(neighbors, axis=1)
        twice = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
        itself = (neighbors == np.arange(len(neighbors))[:, None]).any(axis=1)
        for bad, what in ((outside, f"names a row outside [0, {len(neighbors)})"),
                          (twice, "names one neighbor twice"),
                          (itself & self.excludes_self, "names itself, though self is excluded")):
            if bad.any():
                raise IntegrityError(f"neighbor row {int(np.argmax(bad))} {what}")
        neighbors.setflags(write=False)
        scores.setflags(write=False)
        object.__setattr__(self, "neighbors", neighbors)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "index_order", index_order)

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
    score = float(search(a[None], b[None], [Selection(1)], metric)[0][1][0, 0])
    return float(np.clip(score, -1.0, 1.0)) if metric == "cosine" else score


# Bytes of one screen tile's scores, counted in float64 entries (its float32
# arrays hold twice as many entries per selection; a query tile's float32 rows may
# take four times as many bytes), and entries in each gather of the pair kernel and
# each chunk of the running selection. They bound working memory; no result depends
# on them.
_BLOCK_ELEMS = 1 << 18
_GATHER_ELEMS = 1 << 17

# float32's eps and least subnormal, float64's least subnormal (module docstring)
_EPS, _TINY = float(np.finfo(np.float32).eps), float(np.finfo(np.float32).smallest_subnormal)
_TINY64 = float(np.finfo(np.float64).smallest_subnormal)


@dataclass(frozen=True, eq=False)
class Selection:
    """One neighbor selection of a :func:`search` pass: for each query row of
    ``rows`` (indices into the queries, in the order of the result; None: every
    row), the top ``k`` of the reference rows ``cols`` (likewise) by the weighted
    mean of field similarities under ``weights`` (one per field block, as
    :func:`check_field_weights` returns them; None: whole rows), leaving out the
    reference row of the query row's own index if ``exclude_self``. A neighbor is
    named by its place in ``cols``, and ties go to the earlier place."""

    k: int
    weights: np.ndarray | None = None
    rows: np.ndarray | None = None
    cols: np.ndarray | None = None
    exclude_self: bool = False


def _scale(metric: str, *blocks: np.ndarray) -> float:
    """The power of two, at most 2**148 for float32 rows, that brings the largest
    magnitude of the euclidean ``blocks`` into [1/2, 1) (all zero: 1); 1 for cosine,
    whose rows are unit rows."""
    if metric == "cosine":
        return 1.0
    top = max((max(b.max(), -b.min()) for b in blocks if b.size), default=0.0)
    return float(np.ldexp(1.0, -int(np.frexp(top)[1])))


class _Rows(NamedTuple):
    """One field's float32 rows and, for cosine, the norms from :func:`unit_rows`,
    which make them the unit rows the pair kernel scores (``norms`` None: the kernel
    scores the rows as they are); their float32 screen copy and the copy's squared
    norms, summed in float64 (None for the whole rows of a whole-row kernel)."""

    rows: np.ndarray
    norms: np.ndarray | None
    low: np.ndarray | None
    sq: np.ndarray | None

    def part(self, start: int, stop: int) -> "_Rows":
        """Rows ``start:stop``, a view."""
        return _Rows(*(None if x is None else x[start:stop] for x in self))


class _Side(NamedTuple):
    """The rows of one side of a pass: a :class:`_Rows` per field screened and, if a
    whole-row selection uses several fields, the whole rows its kernel scores and, for
    cosine, each field's float32 share ``a_f = |x_f| / |x|`` of the row norm (module
    docstring; fields by rows)."""

    fields: list
    whole: _Rows | None
    shares: np.ndarray | None

    def part(self, start: int, stop: int) -> "_Side":
        """Rows ``start:stop``, views."""
        return _Side([f.part(start, stop) for f in self.fields],
                     None if self.whole is None else self.whole.part(start, stop),
                     None if self.shares is None else self.shares[:, start:stop])


def _gather(field: _Rows, index: np.ndarray) -> np.ndarray:
    """Rows ``index`` of ``field`` as the pair kernel scores them, in a new float64
    array: for cosine, divided by the field's stored norms."""
    if field.norms is None:
        return field.rows[index].astype(np.float64)
    return np.divide(field.rows[index], field.norms[index, None], dtype=np.float64)


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


def _side(data: np.ndarray, metric: str, fields, scale: float, whole: bool) -> _Side:
    """The :class:`_Side` of the rows ``data``: the ``fields`` (column slices) at the
    pass's ``scale``, and if ``whole``, what a whole-row selection over them needs."""
    parts = [_field(data[:, f], metric, scale) for f in fields]
    if not whole:
        return _Side(parts, None, None)
    if metric == "euclidean":
        return _Side(parts, _Rows(data, None, None, None), None)
    norms = unit_rows(data)
    shares = np.zeros((len(parts), len(data)), np.float32)
    for share, part in zip(shares, parts):  # an empty field's stored norm is 1: share 0
        np.divide(part.norms, norms, out=share, where=part.sq > 0)
    return _Side(parts, _Rows(data, norms, None, None), shares)


def _screen(q: _Rows, ref: _Rows, metric: str) -> np.ndarray:
    """One field's float32 GEMM part of the screen of the rows ``q`` against the rows
    ``ref``: the dot products of the unit rows (cosine), or the squared-distance form
    ``|q|^2 + |r|^2 - 2 q.r`` of the scaled rows (euclidean)."""
    gemm = q.low @ ref.low.T
    if metric != "cosine":
        gemm *= -2.0
        gemm += ref.sq.astype(np.float32)
        gemm += q.sq.astype(np.float32)[:, None]
    return gemm


def _times(part: np.ndarray, scale, out: np.ndarray) -> np.ndarray:
    """``part`` times ``scale`` in ``out`` (``part`` itself or another array of its
    shape): a float32 factor, or a pair of float32 row and column factors."""
    if isinstance(scale, tuple):
        np.multiply(part, scale[0][:, None], out=out)
        return np.multiply(out, scale[1], out=out)
    if out is part and scale == 1:
        return part
    return np.multiply(part, scale, out=out)


def _tile_screens(q: _Side, ref: _Side, plans, metric: str) -> list:
    """Each plan's screen of the rows ``q`` against the rows ``ref`` and, for
    euclidean, its radius (None for cosine): one float32 GEMM per field that a plan
    uses (:func:`_screen`), which each such plan folds into its own screen, the last
    one in place (module docstring)."""
    screens, radii = [None] * len(plans), [None] * len(plans)
    scratch = None

    def fold(i: int, part, scale, own: bool) -> None:
        nonlocal scratch
        if screens[i] is None:
            screens[i] = _times(part, scale, part if own else np.empty_like(part))
            return
        if not own and scratch is None:
            scratch = np.empty_like(part)
        np.add(screens[i], _times(part, scale, part if own else scratch), out=screens[i])

    for slot, (qf, rf) in enumerate(zip(q.fields, ref.fields)):
        whole = [i for i, p in enumerate(plans) if p.whole]
        weighted = [i for i, p in enumerate(plans) if slot in p.coef]
        if not whole and not weighted:
            continue
        part = _screen(qf, rf, metric)
        for n, i in enumerate(whole):
            scale = (q.shares[slot], ref.shares[slot]) if metric == "cosine" else 1
            fold(i, part, scale, n == len(whole) - 1 and not weighted)
        if weighted and metric != "cosine":  # the field's distance
            np.sqrt(np.maximum(part, 0.0, out=part), out=part)
        for n, i in enumerate(weighted):
            coef = plans[i].coef[slot]
            if metric != "cosine":
                e_sq, root = plans[i].sq_errors[slot]
                radius = np.maximum(part, root)
                np.divide(e_sq, radius, out=radius)
                radius *= coef
                radii[i] = radius if radii[i] is None else np.add(radii[i], radius, out=radii[i])
                coef = -coef
            fold(i, part, coef, n == len(weighted) - 1)
        del part  # before the next field's GEMM
    for i, p in enumerate(plans):
        if p.whole and metric != "cosine":  # the one root of the summed squares
            distance = np.sqrt(np.maximum(screens[i], 0.0, out=screens[i]), out=screens[i])
            e_sq, root = p.sq_error
            radii[i] = np.divide(e_sq, np.maximum(distance, root))
            screens[i] = np.negative(distance, out=distance)
    return list(zip(screens, radii))


def _field_error(s, metric: str, d: int, n_fields: int, e_sq=None):
    """One field's error terms (module docstring) for the bound ``S`` of a selection:
    the constant bound ``e``, the magnitude ``m`` and, for euclidean, float32 ``(E,
    sqrt(E))`` with E (by default the GEMM form's) raised and sqrt(E) lowered so that
    the float32 radius stays a bound."""
    if metric == "cosine":
        e = (d + 8) * _EPS * s + 8 * d * _TINY
        return e, s + e, None
    if e_sq is None:
        e_sq = (d + 8) * _EPS * s + 4 * d * _TINY
    e = 2 * _EPS * np.sqrt(s) + _EPS * np.sqrt(e_sq) + 2 * np.sqrt(d) * _TINY
    sq_error = (np.float32(e_sq * (1 + (n_fields + 8) * _EPS)),
                np.float32(np.sqrt(e_sq) * (1 - 8 * _EPS)))
    return e, 2 * np.sqrt(s) + 2 * (e + np.sqrt(e_sq)), sq_error


class _Running:
    """The running selection of a plan over rows cut into tiles of ``tile`` rows
    (module docstring, "Selection"): per row the k largest lower bounds ``screen - R``
    seen so far, the least of which is the running ``s_k``, and per tile the entries
    ``(row, column, screen + R)`` whose upper bound still reaches ``s_k - margin``,
    ``margin`` twice the delta of the bound that screened them; a column is a place in
    the selection's reference rows."""

    def __init__(self, n_rows: int, k: int, tile: int):
        self.best = np.full((n_rows, k), -np.inf, np.float32)
        self.tile = tile
        self.kept: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def _pruned(self, rows, cols, upper, margin):
        keep = upper >= np.subtract(self.best[rows, 0], margin, dtype=np.float64)
        return rows[keep], cols[keep], upper[keep]

    def add(self, rows, cols, screen, margin, radius=None, diagonal=None) -> None:
        """Fold in the tile ``screen`` of the rows ``rows`` (ascending) by the columns
        ``cols`` and its radius (consumed); ``diagonal`` holds its excluded entries,
        if any."""
        if diagonal is not None:
            screen[diagonal] = -np.inf
        n, width = screen.shape
        k = self.best.shape[1]
        span = slice(rows[0], rows[-1] + 1) if rows[-1] - rows[0] == n - 1 else rows
        best = self.best[span]
        step = max(1, _GATHER_ELEMS // (width + k))
        for a in range(0, n, step):  # the k best of the old k and the lower bounds
            part = np.empty((min(step, n - a), k + width), np.float32)
            part[:, :k] = best[a : a + step]
            if radius is None:
                part[:, k:] = screen[a : a + step]
            else:
                np.subtract(screen[a : a + step], radius[a : a + step], out=part[:, k:])
            part.partition(width, axis=1)
            best[a : a + step] = part[:, width:]
            del part
        if not isinstance(span, slice):
            self.best[span] = best
        upper = screen if radius is None else np.add(screen, radius, out=radius)
        keep = upper >= np.subtract(best[:, 0], margin, dtype=np.float64)[:, None]
        if diagonal is not None:  # an infinite delta reaches the excluded entries too
            keep[diagonal] = False
        i, j = np.nonzero(keep)
        del keep
        values = upper[i, j]
        i, j = rows[i].astype(np.int32), cols[j].astype(np.int32)
        first, last = rows[0] // self.tile, rows[-1] // self.tile
        cuts = [0, *np.searchsorted(i, np.arange(first + 1, last + 1) * self.tile), len(i)]
        for t, a, b in zip(range(first, last + 1), cuts, cuts[1:]):  # the rows' tiles
            new = (i[a:b], j[a:b], values[a:b])
            old = self.kept.get(t)
            self.kept[t] = new if old is None else self._pruned(
                *(np.concatenate(pair) for pair in zip(old, new)), margin)

    def take(self, start: int, margin) -> tuple[np.ndarray, np.ndarray]:
        """Rows (sorted) and columns of the entries of the tile from row ``start`` that
        the final ``s_k`` keeps, as the tile's last use."""
        rows, cols, _ = self._pruned(*self.kept.pop(start // self.tile), margin)
        order = np.argsort(rows, kind="stable")
        return rows[order], cols[order]


def _positions(index: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Each of ``n`` rows' place in ``index`` (-1 if absent), and the running count of
    rows present, from 0 to ``n``."""
    place = np.full(n, -1, np.int64)
    place[index] = np.arange(len(index))
    return place, np.concatenate([[0], np.cumsum(place >= 0)])


def _members(place, count, start: int, stop: int):
    """The rows ``start:stop`` that a selection holds, within the range (a slice if
    all), and their places; None if none."""
    n = count[stop] - count[start]
    if n == stop - start:
        return slice(None), place[start:stop]
    if n == 0:
        return None
    local = np.flatnonzero(place[start:stop] >= 0)
    return local, place[start + local]


def _global(members, start: int, stop: int) -> np.ndarray:
    """The row indices of ``members`` of the range ``start:stop``."""
    return np.arange(start, stop) if isinstance(members, slice) else start + members


def _sub(arr, rows, cols):
    """``arr`` at the rows and columns ``rows`` and ``cols`` (index arrays or slices),
    a view when both are slices; None for None."""
    if arr is None or isinstance(rows, slice) or isinstance(cols, slice):
        return None if arr is None else arr[rows, cols]
    return arr[np.ix_(rows, cols)]


def _tile_shape(width: int, n_fields: int, metric: str, symmetric: bool, block):
    """Rows and columns of a screen tile: ``block`` rows, by default as square as
    ``_BLOCK_ELEMS`` allows and, for a query tile, its float32 rows in ``32 *
    _BLOCK_ELEMS`` bytes; then as many columns as the budget allows, for
    self-search at least as many as rows."""
    # float32 tiles alive at once per selection: the screen, one field's part of it
    # if there are two, for euclidean their radii, and a self-search's copy of the
    # transposed radius
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


class _Plan:
    """One selection's part of a pass: its rows and columns, the fields (slots of
    the pass) it screens and rescores with their weights, its bound, running
    selection and result."""

    def __init__(self, selection: Selection, rows, cols, n_q: int, n_ref: int, weights,
                 active, scale: float):
        self.k, self.exclude = selection.k, selection.exclude_self
        self.rows, self.cols = rows, cols
        self.row_at, self.col_at = _positions(rows, n_q), _positions(cols, n_ref)
        self.whole = weights is None  # over several fields: whole rows from their parts
        if self.whole:
            self.used, self.weights = list(range(len(active))), np.ones(1)
        else:
            self.used = [s for s, f in enumerate(active) if weights[f] > 0]
            self.weights = weights[weights > 0]
        self.total, self.scale = self.weights.sum(), scale
        self.coef = {} if self.whole else {  # the screen's field weights
            s: np.float32(w / self.total) for s, w in zip(self.used, self.weights)}
        self.sq_errors: dict = {}
        self.sq_error = self.delta = self.running = None
        self.neighbors = np.empty((len(rows), self.k), dtype=np.int64)
        self.scores = np.empty((len(rows), self.k), dtype=np.float64)

    def bound(self, q: _Side, q_rows, ref: _Side, metric: str, d: int) -> None:
        """The delta and euclidean ``(E, sqrt(E))`` (module docstring) of the rows
        ``q_rows`` of ``q`` against the selection's reference rows of ``ref``."""
        s = [q.fields[f].sq[q_rows].max() + ref.fields[f].sq[self.cols].max()
             for f in self.used]
        n = len(self.used)
        if not self.whole:
            delta = 2 * n * self.scale * _TINY64
            for slot, w, sf in zip(self.used, self.weights, s):
                e, m, self.sq_errors[slot] = _field_error(sf, metric, d, n)
                delta = delta + w / self.total * (e + (n + 2) * _EPS * m)
                delta = delta + 2 * _TINY * (1 + m)
        elif metric == "cosine":
            e, m = map(max, zip(*(_field_error(sf, metric, d, n)[:2] for sf in s)))
            delta = e + (n + 8) * _EPS * m + 4 * n * _TINY * (1 + m) + 2 * n * _TINY64
        else:
            e_sq = n * _TINY + sum((1 + n * _EPS) * ((d + 8) * _EPS * sf + 4 * d * _TINY)
                                   + (n + 1) * _EPS * sf for sf in s)
            e, m, self.sq_error = _field_error(sum(s), metric, n * d, 1, e_sq)
            delta = e + 3 * _EPS * m + 2 * _TINY * (1 + m) + 2 * n * self.scale * _TINY64
        self.delta = delta

    def has(self, start: int, stop: int, left: int, right: int) -> bool:
        """Whether the selection pairs a query row of ``start:stop`` with a reference
        row of ``left:right``."""
        return (self.row_at[1][stop] > self.row_at[1][start]
                and self.col_at[1][right] > self.col_at[1][left])

    def add(self, screen, radius, start: int, stop: int, left: int, right: int,
            symmetric: bool) -> None:
        """Fold in the selection's entries of the tile ``screen`` (and its radius) of
        the rows ``start:stop`` by ``left:right``: of a self-search, the entries past
        the rows transposed too (module docstring)."""
        if symmetric and right > stop and self.has(max(left, stop), right, start, stop):
            cut = max(left, stop)  # added first: add consumes the radius it is given
            rows, _ = _members(*self.row_at, cut, right)
            cols, places = _members(*self.col_at, start, stop)
            at = slice(cut - left, None) if isinstance(rows, slice) else rows + (cut - left)
            part = _sub(radius, cols, at)
            self.running.add(_global(rows, cut, right), places, _sub(screen, cols, at).T,
                             2 * self.delta, None if part is None else part.T.copy())
        if not self.has(start, stop, left, right):
            return
        rows, _ = _members(*self.row_at, start, stop)
        cols, places = _members(*self.col_at, left, right)
        rows_at, cols_at = _global(rows, start, stop), _global(cols, left, right)
        diagonal = None
        if self.exclude and max(start, left) < min(stop, right):
            _, i, j = np.intersect1d(rows_at, cols_at, assume_unique=True, return_indices=True)
            diagonal = (i, j) if len(i) else None
        self.running.add(rows_at, places, _sub(screen, rows, cols), 2 * self.delta,
                         _sub(radius, rows, cols), diagonal)

    def finish(self, q: _Side, ref: _Side, start: int, stop: int, metric: str) -> None:
        """Rescore the selection's candidates of the query rows ``start:stop`` (``q``)
        with its kernel and rank them by its tie rule."""
        members = _members(*self.row_at, start, stop)
        if members is None:
            return
        local, places = members
        rows, cols = self.running.take(start, 2 * self.delta)
        rows = rows - start
        found = np.zeros(len(rows))
        kernel = [(q.whole, ref.whole)] if self.whole else \
            [(q.fields[s], ref.fields[s]) for s in self.used]
        for (qf, rf), w in zip(kernel, self.weights):
            found += w * _pair_scores(qf, rf, rows, self.cols[cols], metric)
        found /= self.total
        if not isinstance(local, slice):  # rows from 0 over the selection's rows
            slot = np.empty(stop - start, np.int64)
            slot[local] = np.arange(len(local))
            rows = slot[rows]
        self.neighbors[places], self.scores[places] = _rank(rows, cols, found, len(places),
                                                            self.k)


def _index(index, n: int, what: str) -> np.ndarray:
    """The row indices ``index`` (None: all ``n`` rows), rejected unless distinct and
    below ``n``."""
    if index is None:
        return np.arange(n)
    index = np.asarray(index, dtype=np.int64).reshape(-1)
    if len(index) and (index.min() < 0 or index.max() >= n or len(np.unique(index)) < len(index)):
        raise ValueError(f"selection {what} must be distinct row indices below {n}")
    return index


def search(
    queries: np.ndarray,
    reference: np.ndarray,
    selections: list[Selection],
    metric: str,
    block: int | None = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each selection's exact top-k ``(neighbors, scores)`` of its query rows among its
    reference rows, neighbors as places in its reference rows, from one pass screened
    in tiles of ``block`` rows (default: as ``_BLOCK_ELEMS`` allows). Given the same
    array twice (self-search), it screens each pair of the rows that some selection
    names once."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
    symmetric = queries is reference
    queries = float32_rows(queries, "search input")
    reference = queries if symmetric else float32_rows(reference, "search input")
    if queries.shape[1] != reference.shape[1]:
        raise DimensionMismatchError(reference.shape[1], queries.shape[1], "embedding width")
    if reference.shape[1] == 0:
        raise DimensionMismatchError("at least 1", 0, "embedding width")
    index = [(_index(s.rows, len(queries), "rows"), _index(s.cols, len(reference), "cols"))
             for s in selections]
    for s, (_, cols) in zip(selections, index):
        limit = len(cols) - 1 if s.exclude_self else len(cols)
        if not 1 <= s.k <= limit:
            raise SizeError(f"k={s.k} out of range [1, {limit}] for {len(cols)} reference rows")
    if block is not None and block < 1:
        raise ValueError(f"batch_size must be >= 1, got {block}")
    if not selections:
        return []
    n_fields = {len(s.weights) for s in selections if s.weights is not None}
    if len(n_fields) > 1:
        raise ValueError(f"selections weigh different field blocks: {sorted(n_fields)}")
    n_fields = n_fields.pop() if n_fields else 1
    if symmetric:  # only the rows some selection names
        named = np.unique(np.concatenate([i for pair in index for i in pair]))
        if len(named) < len(queries):
            queries = reference = queries[named]
            index = [tuple(np.searchsorted(named, i) for i in pair) for pair in index]
    weights = [np.ones(1) if s.weights is None and n_fields == 1 else
               None if s.weights is None else np.asarray(s.weights, float) for s in selections]
    whole = any(w is None for w in weights)
    active = range(n_fields) if whole else np.flatnonzero(np.any([w > 0 for w in weights], 0))
    d = reference.shape[1] // n_fields
    fields = [slice(f * d, (f + 1) * d) for f in active]
    sides = (queries,) if symmetric else (queries, reference)
    scale = _scale(metric, *(side[:, f] for side in sides for f in fields))
    n_q, n_ref = len(queries), len(reference)
    plans = [_Plan(s, rows, cols, n_q, n_ref, w, active, scale)
             for s, (rows, cols), w in zip(selections, index, weights)]
    tile, tile_cols = _tile_shape(queries.shape[1], len(fields), metric, symmetric, block)
    ref = _side(reference, metric, fields, scale, whole)
    for plan in plans:  # one running selection each for the pass
        plan.running = _Running(n_q, plan.k, tile)
        if symmetric and len(plan.rows):  # and one bound (a selection of no rows has none)
            plan.bound(ref, plan.rows, ref, metric, d)
    for start in range(0, n_q, tile):
        stop = min(start + tile, n_q)
        if symmetric:  # the tile's rows against the columns from its first row on
            q, at = ref.part(start, stop), start
        else:  # one bound each per row tile
            q, at = _side(queries[start:stop], metric, fields, scale, whole), 0
            for plan in plans:
                members = _members(*plan.row_at, start, stop)
                if members is not None:
                    plan.bound(q, members[0], ref, metric, d)
        for left in range(at, n_ref, tile_cols):
            right = min(left + tile_cols, n_ref)
            users = [p for p in plans if p.has(start, stop, left, right) or symmetric
                     and right > stop and p.has(max(left, stop), right, start, stop)]
            if not users:
                continue
            screens = _tile_screens(q, ref.part(left, right), users, metric)
            for plan, (screen, radius) in zip(users, screens):
                plan.add(screen, radius, start, stop, left, right, symmetric)
            del screens, screen, radius  # before the next tile's GEMM
        if not symmetric:  # the float32 query rows are done
            q = q._replace(fields=[f._replace(low=None, sq=None) for f in q.fields])
        for plan in plans:
            plan.finish(q, ref, start, stop, metric)
    return [(plan.neighbors, plan.scores) for plan in plans]


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
    [(neighbors, scores)] = search(matrix.data, matrix.data,
                                   [Selection(k, exclude_self=exclude_self)], metric, batch_size)
    return NeighborList(k, neighbors, scores, metric, exclude_self, matrix.index_order)


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
    [(neighbors, scores)] = search(matrix.data, matrix.data,
                                   [Selection(k, weights, exclude_self=exclude_self)], metric)
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
                             "directory's neighbors.json does; expected one structure "
                             "(name a stage to read one)")
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


def load_neighbors(path, stage: str | None = None) -> NeighborList:
    """The structure in the file ``path``; with ``stage``, that stage's structure of
    a run directory's neighbors.json."""
    with naming(path):
        obj, what = read_json(path), "neighbors"
        if stage is not None:
            with parsing(what):
                stages = typed(obj, "stages", dict)
                if stage not in stages:
                    raise ValueError(f"no stage {stage!r}; it holds {list(stages)}")
            obj, what = stages[stage], f"{what} stage {stage}"
        return neighbors_from_dict(obj, what)
