"""The blocked-GEMM neighbor engine ranks exactly as a brute-force oracle.

The oracle scores every (query, reference) pair of the float32 rows the search
reads with the pair kernel (a row-wise einsum over unit rows for cosine,
normalized by its own code) and takes a stable argsort, so it shares no norm,
GEMM, band, block or gather code with the engine.
Results must be equal with ``==``, for any block size, gather size and BLAS
thread count.
"""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairaudit import (AuditConfig, RaterConfig, _util, attach_stage_labels, embed_corpus,
                       generate_synthetic_corpus, run_audit, save_corpus, simindex,
                       simulate_raters)
from fairaudit.embed import normalize_field_blocks
from fairaudit.embed import EmbeddingMatrix
from fairaudit.simindex import (Selection, knn_batched, knn_exact, knn_feature_reranked,
                                pairwise_similarity)

SRC = Path(__file__).resolve().parents[1] / "src"


def search_one(queries, reference, k, metric, exclude_self, block=None, weights=None):
    """:func:`simindex.search` with one selection of every row."""
    selection = Selection(k, weights, exclude_self=exclude_self)
    return simindex.search(queries, reference, [selection], metric, block)[0]


def unit_rows(data):
    """Each row of float32 values over its L2 norm, one row at a time, in float64;
    zero rows stay zero."""
    rows = np.array(data, dtype=np.float64)
    for row in rows:
        norm = np.sqrt(np.sum(row * row))
        if norm:
            row /= norm
    return rows


def pair_kernel_scores(queries, reference, metric):
    """Every pair's score by the pair kernel, shape (len(queries), len(reference)),
    of the rows rounded to float32, as the search reads them."""
    prepare = np.asarray if metric == "euclidean" else unit_rows
    q = prepare(np.asarray(queries, dtype=np.float32).astype(np.float64))
    r = prepare(np.asarray(reference, dtype=np.float32).astype(np.float64))
    rows, cols = np.divmod(np.arange(len(q) * len(r)), len(r))
    if metric == "cosine":
        return np.einsum("ij,ij->i", q[rows], r[cols]).reshape(len(q), len(r))
    diff = q[rows] - r[cols]
    return -np.sqrt(np.einsum("ij,ij->i", diff, diff)).reshape(len(q), len(r))


def top_k(scores, k, exclude_diagonal):
    """Stable descending order, the diagonal left out."""
    order = np.argsort(-scores, axis=1, kind="stable")
    if exclude_diagonal:
        n = len(scores)
        order = order[order != np.arange(n)[:, None]].reshape(n, n - 1)
    return order[:, :k], np.take_along_axis(scores, order[:, :k], axis=1)


def oracle(queries, reference, k, metric, exclude_diagonal):
    return top_k(pair_kernel_scores(queries, reference, metric), k, exclude_diagonal)


@st.composite
def tie_heavy(draw, n_fields=1, extreme=False):
    """Small integer rows plus duplicates, zero rows, rows scaled by powers of
    two and rows one float64 ulp from another, which float32 cannot tell apart.
    ``extreme`` adds integer rows scaled up to 2**127 and to float32 subnormals,
    and rows a few float32 ulps from another."""
    n = draw(st.integers(2, 14))
    d = draw(st.integers(1, 4)) * n_fields
    kinds = ["ints", "ints", "copy", "zero", "scaled", "ulp"]
    kinds += ["huge", "tiny", "near", "near"] * extreme
    rows = []
    for i in range(n):
        kind = draw(st.sampled_from(kinds))
        if kind in ("ints", "huge", "tiny") or not rows:
            row = np.array(draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d)), float)
            if kind == "huge":  # at most 2**124
                row *= 2.0 ** draw(st.integers(100, 123))
            elif kind == "tiny":  # 2**-149 is the least float32 subnormal
                row *= 2.0 ** -draw(st.integers(127, 149))
        elif kind == "zero":
            row = np.zeros(d)
        else:
            row = rows[draw(st.integers(0, i - 1))].copy()
            if kind == "scaled":  # up only below 2**124: every row stays below 2**127
                row *= 2.0 ** draw(st.integers(-3, 3 if np.abs(row).max() < 2.0**124 else 0))
            elif kind == "near":
                steps = draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
                row += np.array(steps) * np.spacing(row.astype(np.float32))
            elif kind == "ulp":
                j = draw(st.integers(0, d - 1))
                row[j] = np.nextafter(row[j], draw(st.sampled_from([np.inf, -np.inf])))
        rows.append(row)
    return np.array(rows)


@st.composite
def wide_near_duplicates(draw, n_fields=1):
    """Rows of 16 to 64 random entries a field, most a copy of an earlier row moved
    by a few float32 ulps an entry or by about 1e-4 of it, so that the squared
    distance of such a pair is a small difference of large float32 sums."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 10))
    d = draw(st.sampled_from([16, 64])) * n_fields
    rows = [rng.standard_normal(d)]
    for _ in range(n - 1):
        kind = draw(st.sampled_from(["new", "ulps", "relative", "relative"]))
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if kind == "new":
            row = rng.standard_normal(d)
        elif kind == "ulps":
            row = row + rng.integers(-3, 4, d) * np.spacing(row.astype(np.float32))
        else:
            row = row * (1 + 1e-4 * rng.standard_normal(d))
        rows.append(row)
    return np.array(rows)


def spread_fields(rows, shifts):
    """``rows`` with field block f times ``2**shifts[f]`` in each row where that
    keeps the block below 2**126 (elsewhere as it is), so fields lie far apart in
    magnitude and one scale for a pass leaves a weak field's copies to underflow."""
    rows = np.array(rows, dtype=np.float64)
    d = rows.shape[1] // len(shifts)
    for f, shift in enumerate(shifts):
        block = rows[:, f * d : (f + 1) * d]
        scaled = block * 2.0**shift
        fits = (np.abs(scaled) < 2.0**126).all(axis=1)
        block[fits] = scaled[fits]
    return rows


def field_shifts(n_fields):
    """A power-of-two exponent per field, up to 2**+-120."""
    return st.lists(st.integers(-120, 120), min_size=n_fields, max_size=n_fields)


def matrix_of(data, n_fields=1):
    d = data.shape[1] // n_fields
    return EmbeddingMatrix(data, d, tuple(f"f{i}" for i in range(n_fields)),
                           tuple(f"P{i}" for i in range(len(data))))


@settings(max_examples=300, deadline=None)
@given(
    data=tie_heavy(),
    metric=st.sampled_from(["cosine", "euclidean"]),
    exclude_self=st.booleans(),
    draw=st.data(),
)
def test_every_search_equals_the_oracle(data, metric, exclude_self, draw):
    n = len(data)
    k = draw.draw(st.integers(1, n - 1 if exclude_self else n))
    block = draw.draw(st.integers(1, n + 2))
    matrix = matrix_of(data)
    want = oracle(matrix.data, matrix.data, k, metric, exclude_self)  # its float32 rows
    picks = draw.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8))
    queries = data[picks] * 2.0 ** draw.draw(st.integers(-2, 2))
    want_q = oracle(queries, data, k, metric, False)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simindex, "_BLOCK_ELEMS", draw.draw(st.integers(1, 200)))
        patch.setattr(simindex, "_GATHER_ELEMS", draw.draw(st.integers(1, 40)))
        for got in (knn_exact(matrix, k, metric, exclude_self),
                    knn_batched(matrix, k, metric, exclude_self, batch_size=block)):
            assert np.array_equal(got.neighbors, want[0])
            assert np.array_equal(got.scores, want[1])
        got_q = search_one(queries, data, k, metric, False)
    assert np.array_equal(got_q[0], want_q[0])
    assert np.array_equal(got_q[1], want_q[1])


@settings(max_examples=150, deadline=None)
@given(
    data=tie_heavy(n_fields=3),
    metric=st.sampled_from(["cosine", "euclidean"]),
    weights=st.one_of(st.none(), st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), min_size=3,
                                          max_size=3).filter(any)),
    exclude_self=st.booleans(),
    draw=st.data(),
)
def test_self_search_equals_the_search_of_a_copy(data, metric, weights, exclude_self, draw):
    """Given one array twice, the search screens each pair once and uses the tile
    transposed for the column rows; given a copy as the queries, it screens every
    pair as a query. Both give the same neighbors and scores."""
    n = len(data)
    k = draw.draw(st.integers(1, n - 1 if exclude_self else n))
    block = draw.draw(st.one_of(st.none(), st.integers(1, n + 2)))
    weights = None if weights is None else np.array(weights)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simindex, "_BLOCK_ELEMS", draw.draw(st.integers(1, 200)))
        patch.setattr(simindex, "_GATHER_ELEMS", draw.draw(st.integers(1, 40)))
        mirrored = search_one(data, data, k, metric, exclude_self, block, weights)
        plain = search_one(data.copy(), data, k, metric, exclude_self, block, weights)
    assert np.array_equal(mirrored[0], plain[0])
    assert np.array_equal(mirrored[1], plain[1])


@pytest.mark.parametrize("metric, n_fields, block_elems, batch_size, audit", [
    ("cosine", 1, 50, None, False),  # 10 x 10 tiles
    ("cosine", 3, 49, None, False),  # 7 x 7
    ("euclidean", 1, 54, None, False),  # 6 x 6
    ("euclidean", 3, 90, None, False),  # 6 x 6
    ("cosine", 1, 1, 8, False),  # 8 x 8
    ("cosine", 5, 256, None, True),  # 16 x 16: the rerank and the kNN of run_audit
    ("euclidean", 1, 400, None, True),  # 16 x 16: whole rows, without the rerank
])
def test_self_search_screens_each_tile_pair_once(metric, n_fields, block_elems, batch_size,
                                                 audit, tmp_path, monkeypatch):
    """A self-search of N rows in T x T tiles runs ceil(N/T)(ceil(N/T)+1)/2 float32
    GEMMs per field, not ceil(N/T)**2. In run_audit that one pass serves the stage
    structure and the kNN's predictions, which run no GEMM of their own."""
    n = 47
    shapes = []
    screen = simindex._screen

    def counted(q, ref, *args):
        shapes.append((len(q.low), len(ref.low)))
        return screen(q, ref, *args)

    monkeypatch.setattr(simindex, "_BLOCK_ELEMS", block_elems)
    monkeypatch.setattr(simindex, "_screen", counted)
    data = np.random.default_rng(5).standard_normal((n, 4 * n_fields))
    if audit:
        profiles, latents = generate_synthetic_corpus(n, 60, seed=3)
        labels = simulate_raters(profiles, latents, RaterConfig(noise_sigma=0.25, seed=4))
        save_corpus(attach_stage_labels(profiles, labels), tmp_path / "corpus.jsonl")
        config = AuditConfig(d=4, k=3, metric=metric, rerank=n_fields > 1,
                             sources=("human:AR", "human:OF", "model:knn"))
        report = run_audit(tmp_path / "corpus.jsonl", config)
        assert report.row("model:knn").c_of is not None
    elif n_fields == 1:
        knn_batched(matrix_of(data), 3, metric, batch_size=batch_size)
    else:
        knn_feature_reranked(matrix_of(data, n_fields), 3, metric)
    tile = shapes[0][0]
    assert all(rows <= tile and cols <= tile for rows, cols in shapes)
    tiles = math.ceil(n / tile)
    assert 1 < tiles < n
    assert len(shapes) == n_fields * tiles * (tiles + 1) // 2


def rerank_oracle(data, k, metric, weights, exclude_self):
    """Every pair of rows of ``data``, cut into one field block per weight, scored by
    ``sum_f w_f * kernel_f / sum(w)`` in field order."""
    total = 0.0
    for block, w in zip(np.split(data, len(weights), axis=1), weights):
        if w:
            total = total + w * pair_kernel_scores(block, block, metric)
    return top_k(total / sum(weights), k, exclude_self)


def selection_oracle(queries, reference, selection, metric):
    """Every pair of the selection's query and reference rows scored as
    :func:`rerank_oracle` scores it (whole rows: the pair kernel's score), its own
    index left out if it excludes self, in a stable order over its reference rows."""
    rows = np.arange(len(queries)) if selection.rows is None else np.asarray(selection.rows)
    cols = np.arange(len(reference)) if selection.cols is None else np.asarray(selection.cols)
    q, r = np.asarray(queries)[rows], np.asarray(reference)[cols]
    if selection.weights is None:
        scores = pair_kernel_scores(q, r, metric)
    else:
        weights, scores = selection.weights, 0.0
        for qf, rf, w in zip(np.split(q, len(weights), axis=1), np.split(r, len(weights), axis=1),
                             weights):
            if w:
                scores = scores + w * pair_kernel_scores(qf, rf, metric)
        scores = scores / sum(weights)
    if selection.exclude_self:
        scores[rows[:, None] == cols[None, :]] = -np.inf
    order = np.argsort(-scores, axis=1, kind="stable")[:, : selection.k]
    return order, np.take_along_axis(scores, order, axis=1)


@st.composite
def selections(draw, n_q, n_ref, n_fields):
    """One to four selections: whole rows or field weights, subsets of the query and
    reference rows in any order, self excluded or not, any k they allow."""
    chosen = []
    for _ in range(draw(st.integers(1, 4))):
        exclude = draw(st.booleans()) and n_ref > 1
        rows = draw(st.permutations(range(n_q)))[: draw(st.integers(1, n_q))]
        cols = draw(st.permutations(range(n_ref)))[: draw(st.integers(1 + exclude, n_ref))]
        weights = None if n_fields == 1 or draw(st.booleans()) else simindex.check_field_weights(
            draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), min_size=n_fields,
                          max_size=n_fields).filter(any)), n_fields)
        rows, cols = [None if draw(st.booleans()) else np.array(i)  # None: every row
                      for i in (rows, cols)]
        k = draw(st.integers(1, (n_ref if cols is None else len(cols)) - exclude))
        chosen.append(Selection(k, weights, rows, cols, exclude))
    return chosen


@settings(max_examples=200, deadline=None)
@given(
    data=tie_heavy(n_fields=3),
    n_fields=st.sampled_from([1, 3]),
    metric=st.sampled_from(["cosine", "euclidean"]),
    self_search=st.booleans(),
    draw=st.data(),
)
def test_each_selection_of_a_pass_equals_its_own_search(data, n_fields, metric, self_search,
                                                       draw):
    """Whole-row and weighted selections of one pass, over row subsets and column
    subsets in any order, self excluded or not, each give the neighbors and scores
    of their own one-selection search and of the oracle, with ``==``: sharing the
    field GEMMs of a tile changes no result."""
    queries = data if self_search else data[::-1] * 2.0 ** draw.draw(st.integers(-2, 2))
    chosen = draw.draw(selections(len(queries), len(data), n_fields))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simindex, "_BLOCK_ELEMS", draw.draw(st.integers(1, 200)))
        patch.setattr(simindex, "_GATHER_ELEMS", draw.draw(st.integers(1, 40)))
        together = simindex.search(queries, data, chosen, metric)
        alone = [simindex.search(queries, data, [s], metric)[0] for s in chosen]
    for selection, got, own in zip(chosen, together, alone):
        want = selection_oracle(np.float32(queries), np.float32(data), selection, metric)
        for a, b, c in zip(got, own, want):
            assert np.array_equal(a, b) and np.array_equal(a, c)


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
@pytest.mark.parametrize("weights", [None, np.array([1.0, 0.0, 2.0])])
def test_a_selection_of_no_query_rows_finds_nothing(metric, weights):
    """A selection that names no query row gives (0, k) arrays, alone or beside a
    full selection, which keeps the bits of its own search."""
    data = np.random.default_rng(5).standard_normal((9, 6))
    empty, full = Selection(2, weights, rows=np.array([], int)), Selection(3, weights)
    for queries in (data, data[::-1].copy()):  # a self-search, then a query search
        [alone] = simindex.search(queries, data, [empty], metric)
        [none, got] = simindex.search(queries, data, [empty, full], metric)
        want = simindex.search(queries, data, [full], metric)[0]
        for a in (*alone, *none):
            assert a.shape == (0, 2)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_selections_over_different_field_counts_are_refused():
    data = np.random.default_rng(5).standard_normal((9, 6))
    selections = [Selection(2, np.ones(2)), Selection(2, np.ones(3))]
    with pytest.raises(ValueError, match=r"selections weigh different field blocks: \[2, 3\]"):
        simindex.search(data, data, selections, "cosine")


@settings(max_examples=150, deadline=None)
@given(
    data=tie_heavy(n_fields=3),
    metric=st.sampled_from(["cosine", "euclidean"]),
    weights=st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0, 3.0]), st.floats(1e-3, 1e3)),
                     min_size=3, max_size=3).filter(any),
    exclude_self=st.booleans(),
    draw=st.data(),
)
def test_rerank_equals_a_stage_two_oracle(data, metric, weights, exclude_self, draw):
    """The oracle scores every pair, so no candidate pool can hide a neighbor."""
    n = len(data)
    limit = n - 1 if exclude_self else n
    k = draw.draw(st.integers(1, limit))
    matrix = matrix_of(data, n_fields=3)
    want_ids, want_scores = rerank_oracle(matrix.data, k, metric, weights, exclude_self)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simindex, "_BLOCK_ELEMS", draw.draw(st.integers(1, 200)))
        patch.setattr(simindex, "_GATHER_ELEMS", draw.draw(st.integers(1, 40)))
        got = knn_feature_reranked(matrix, k, metric, field_weights=weights,
                                   exclude_self=exclude_self)
    assert np.array_equal(got.neighbors, want_ids)
    assert np.array_equal(got.scores, want_scores)


@settings(max_examples=300, deadline=None)
@given(
    data=tie_heavy(n_fields=3, extreme=True),
    metric=st.sampled_from(["cosine", "euclidean"]),
    weights=st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(1e-3, 1e3)),
                     min_size=3, max_size=3).filter(any),
    exclude_self=st.booleans(),
    shifts=st.one_of(st.none(), field_shifts(3)),
    draw=st.data(),
)
def test_extreme_rows_equal_the_oracle(data, metric, weights, exclude_self, shifts, draw):
    """Rows near the float32 maximum, float32 subnormal rows and rows a few float32
    ulps apart, whole rows and weighted fields, and fields up to 2**+-120 apart
    (``shifts``): the float32 screen's bound covers rounding, scaling and underflow,
    so the float64 kernel still decides every score. The search reads the float64
    arrays' float32 rounding, as the oracle does."""
    if shifts is not None:
        data = spread_fields(data, shifts)
    n = len(data)
    k = draw.draw(st.integers(1, n - 1 if exclude_self else n))
    picks = draw.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8))
    with pytest.MonkeyPatch.context() as patch:
        want = oracle(data, data, k, metric, exclude_self)
        want_q = oracle(data[picks], data, k, metric, False)
        want_rerank = rerank_oracle(data, k, metric, weights, exclude_self)
        patch.setattr(simindex, "_BLOCK_ELEMS", draw.draw(st.integers(1, 200)))
        got = search_one(data, data, k, metric, exclude_self)
        got_q = search_one(data[picks], data, k, metric, False)
        got_rerank = search_one(data, data, k, metric, exclude_self,
                                weights=simindex.check_field_weights(weights, 3))
    for (ids, scores), (want_ids, want_scores) in zip(
        [got, got_q, got_rerank], [want, want_q, want_rerank]
    ):
        assert np.array_equal(ids, want_ids)
        assert np.array_equal(scores, want_scores)


def scaled_rows(rows, shifts):
    """``rows`` as float32, each times ``2**shift`` unless that would take it to
    2**126 or above, where it stays as it is."""
    scaled = rows * np.ldexp(1.0, shifts)[:, None]
    fits = (np.abs(scaled) < 2.0**126).all(axis=1)
    return np.where(fits[:, None], scaled, rows).astype(np.float32)


@settings(max_examples=300, deadline=None)
@given(
    n_fields=st.sampled_from([1, 3]),
    metric=st.sampled_from(["cosine", "euclidean"]),
    extreme=st.booleans(),
    wide=st.booleans(),
    spread=st.booleans(),
    self_search=st.booleans(),
    draw=st.data(),
)
def test_every_screened_entry_is_within_its_bound(n_fields, metric, extreme, wide, spread,
                                                  self_search, draw):
    """Over one tile that covers every row, each entry of a selection's screen lies
    within ``R + delta`` of its exact score in the screen's units (the pass's one
    scale ``c`` times the weighted mean of the field pair-kernel scores, or the whole
    rows' score), as a self-search also uses it transposed. Over three fields a
    weighted and a whole-row selection build their screens from the tile's field
    GEMMs, alone or together. A bound too tight fails here even where no top-k
    changes. Wide fields of near-duplicate rows (``wide``) make the float32 GEMM's
    rounding matter; fields up to 2**+-120 apart (``spread``) leave the copies of a
    weak field to underflow at the pass's scale."""
    rows = draw.draw(wide_near_duplicates(n_fields) if wide else tie_heavy(n_fields, extreme))
    if spread:
        rows = spread_fields(rows, draw.draw(field_shifts(n_fields)))
    shifts = st.lists(st.integers(-20, 20), min_size=len(rows), max_size=len(rows))
    if wide:  # one shift for every row keeps the near duplicates near
        shifts = st.integers(-20, 20).map(lambda shift: [shift] * len(rows))
    data = scaled_rows(rows, draw.draw(shifts))
    queries = data if self_search else scaled_rows(rows, draw.draw(shifts))
    weights = np.ones(1) if n_fields == 1 else simindex.check_field_weights(draw.draw(
        st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0, 3.0]), st.floats(1e-3, 1e3)),
                 min_size=3, max_size=3).filter(any)), 3)
    kinds = ["weighted"] if n_fields == 1 else draw.draw(
        st.sampled_from([["weighted"], ["whole"], ["weighted", "whole"]]))
    whole = "whole" in kinds
    d = data.shape[1] // n_fields
    active = np.arange(n_fields) if whole else np.flatnonzero(weights)
    fields = [slice(f * d, (f + 1) * d) for f in active]
    scale = simindex._scale(metric, *(side[:, f] for side in (queries, data) for f in fields))
    ref = simindex._side(data, metric, fields, scale, whole)
    q = ref if self_search else simindex._side(queries, metric, fields, scale, whole)
    everyone = np.arange(len(data))
    plans = []
    for kind in kinds:
        w = weights if kind == "weighted" else None
        plans.append(simindex._Plan(Selection(1, w), everyone, everyone, len(data), len(data),
                                    w, active, scale))
        plans[-1].bound(q, slice(None), ref, metric, d)
    for kind, plan, (screen, radius) in zip(kinds, plans,
                                            simindex._tile_screens(q, ref, plans, metric)):
        if kind == "whole":
            score = scale * pair_kernel_scores(queries, data, metric)
        else:
            score = 0.0
            for f in fields:
                if weights[f.start // d] > 0:
                    score = score + weights[f.start // d] * pair_kernel_scores(
                        queries[:, f], data[:, f], metric)
            score = scale * (score / weights.sum())
        radius = np.zeros(screen.shape) if radius is None else radius.astype(np.float64)
        assert (np.abs(screen - score) <= radius + plan.delta).all()
        if self_search:
            assert (np.abs(screen.T - score) <= radius.T + plan.delta).all()


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
def test_float64_rows_score_as_their_float32_rounding(metric):
    """Every search reads float32 rows: float64 rows score bit for bit as their
    float32 rounding, which an EmbeddingMatrix of them holds."""
    x = np.random.default_rng(9).standard_normal((30, 12))
    x32 = matrix_of(x).data
    for got, want in [
        (search_one(x, x, 4, metric, True), search_one(x32, x32, 4, metric, True)),
        (search_one(x[:7], x, 4, metric, False), search_one(x32[:7], x32, 4, metric, False)),
    ]:
        assert np.array_equal(got[0], want[0])
        assert got[1].tobytes() == want[1].tobytes()
    for i in range(1, 30):
        assert pairwise_similarity(x[0], x[i], metric) == pairwise_similarity(x32[0], x32[i], metric)


def demo_matrix():
    """The 400-row matrix of ``demos/02_embeddings_and_neighbors.py``."""
    profiles, _ = generate_synthetic_corpus(n=400, vocab_size=300, seed=1)
    return embed_corpus(profiles, d=96, seed=0)


def astuple(nl):
    return nl.neighbors, nl.scores


def test_top_k_is_a_prefix_of_top_K_on_the_demo_matrix():
    """Leadership weighting moves some true top-5 rows of this matrix out of
    their whole-row top 50, so a search that rescored only those would differ."""
    matrix = demo_matrix()
    small = knn_feature_reranked(matrix, 5, field_weights=[1, 1, 1, 3, 1])
    large = knn_feature_reranked(matrix, 20, field_weights=[1, 1, 1, 3, 1])
    assert np.array_equal(large.neighbors[:, :5], small.neighbors)
    assert np.array_equal(large.scores[:, :5], small.scores)


@settings(max_examples=100, deadline=None)
@given(
    data=tie_heavy(n_fields=3),
    metric=st.sampled_from(["cosine", "euclidean"]),
    weights=st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), min_size=3, max_size=3).filter(any),
    draw=st.data(),
)
def test_top_k_is_a_prefix_of_top_K(data, metric, weights, draw):
    n = len(data)
    big = draw.draw(st.integers(1, n - 1))
    k = draw.draw(st.integers(1, big))
    matrix = matrix_of(data, n_fields=3)
    for search in (
        lambda k: astuple(knn_feature_reranked(matrix, k, metric, field_weights=weights)),
        lambda k: astuple(knn_exact(matrix, k, metric)),
        lambda k: search_one(data[::-1], data, k, metric, False),
    ):
        for first_k, of_large in zip(search(k), search(big)):
            assert np.array_equal(of_large[:, :k], first_k)


def test_euclidean_near_duplicates_rank_by_their_true_distance():
    """Rows one coordinate and a few 2**-20 apart, on a 1/256 grid below 8, so
    float32 holds them: the kernel sums (q - r)**2 exactly, while the GEMM form
    |q|^2 + |r|^2 - 2 q.r cancels to rounding noise."""
    base = np.round(np.random.default_rng(3).standard_normal(60) * 256) / 256
    steps = np.array([3.0, 1.0, 4.0, 2.0, 0.0]) * 2.0**-20
    reference = np.tile(base, (5, 1))
    reference[np.arange(5), np.arange(5)] += steps
    assert np.array_equal(reference.astype(np.float32), reference)
    ids, scores = search_one(base[None], reference, 5, "euclidean", False)
    assert ids[0].tolist() == [4, 1, 3, 0, 2]
    assert scores[0].tolist() == [0.0, -(2.0**-20), -2 * 2.0**-20, -3 * 2.0**-20, -4 * 2.0**-20]
    rows = np.vstack([base, reference])
    _, self_scores = search_one(rows, rows, 5, "euclidean", True)
    assert self_scores[0].tolist() == scores[0].tolist()


def shared_pass(matrix, metric="cosine"):
    """The pass of run_audit: a field-weighted self-search and whole-row neighbors of
    every row among 80% of the rows, in shuffled order."""
    n = matrix.n
    train = np.random.default_rng(1).permutation(n)[: 4 * n // 5]
    weights = simindex.check_field_weights(None, len(matrix.field_order))
    return simindex.search(matrix.data, matrix.data, [
        Selection(5, weights, exclude_self=True), Selection(5, cols=train)], metric)


@pytest.mark.parametrize(
    "call", ["knn_exact", "knn_feature_reranked", "query search", "shared pass"]
)
def test_no_n_by_n_buffer(call):
    n = 2000
    x = np.random.default_rng(0).standard_normal((n, 512))
    matrix = matrix_of(x, n_fields=4)
    run, unit_row_copies = {
        "knn_exact": (lambda: knn_exact(matrix, 5), 1),
        "knn_feature_reranked": (lambda: knn_feature_reranked(matrix, 5), 1),
        "query search": (lambda: search_one(x[: n // 2], x, 5, "cosine", False), 1.5),
        "shared pass": (lambda: shared_pass(matrix), 1),
    }[call]
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Cosine keeps one unit-row copy of each input, O(N*D); on top of that the
    # blocks and gathers must stay far below one N x N float64 buffer.
    working = peak - unit_row_copies * x.nbytes
    assert working < n * n * 8 / 4, f"{working / (n * n * 8):.2f} x N*N*8 beyond the row copies"


@pytest.mark.parametrize(
    "call", ["knn_exact", "knn_feature_reranked", "query search", "euclidean rerank",
             "shared pass", "euclidean shared pass"]
)
def test_no_float64_copy_of_the_reference(call):
    """Pairs are scored from the caller's rows: beyond them a search holds a float32
    copy (half their bytes) and its blocks, and no float64 copy (their bytes again)."""
    n = 2000
    x = np.random.default_rng(0).standard_normal((n, 512))
    matrix = matrix_of(x, n_fields=4)
    run = {
        "knn_exact": lambda: knn_exact(matrix, 5),
        "knn_feature_reranked": lambda: knn_feature_reranked(matrix, 5),
        "query search": lambda: search_one(matrix.data[: n // 2], matrix.data, 5, "cosine",
                                           False),
        "euclidean rerank": lambda: knn_feature_reranked(matrix, 5, "euclidean"),
        "shared pass": lambda: shared_pass(matrix),
        "euclidean shared pass": lambda: shared_pass(matrix, "euclidean"),
    }[call]
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * x.nbytes, f"peak {peak / x.nbytes:.2f} x the reference's bytes"


@pytest.mark.parametrize("gather_elems", [1, 7, 50, 1 << 17])
def test_search_row_scales_give_the_bits_of_normalize_field_blocks(gather_elems, monkeypatch):
    """The pair kernel's gathered rows and the screen copy equal the unit rows of the
    oracle bit for bit, for zero, subnormal, huge and unit float32 rows, whose norms
    are taken in float64; normalize_field_blocks stores those unit rows rounded to
    float32. Chunking changes no bit."""
    monkeypatch.setattr(simindex, "_GATHER_ELEMS", gather_elems)
    monkeypatch.setattr(_util, "_UNIT_ELEMS", gather_elems)
    rng = np.random.default_rng(6)
    d = 16
    data = rng.standard_normal((24, 3 * d))
    data[0] = 0.0
    data[1, :d] = -0.0
    data[2] *= 2.0**-140  # float32 subnormal entries
    data[3] = np.sign(data[3]) * np.finfo(np.float32).max
    data[4, ::2] *= 2.0**120  # huge and plain entries in one row
    data[5, ::3] = np.finfo(np.float32).smallest_subnormal  # subnormal and plain entries
    data[6] = 0.25  # norm exactly 1 in every field
    data[7, :] = 0.0
    data[7, [0, d, 2 * d]] = [1.0, -1.0, 1.0]
    data[8:] = rng.choice([-0.25, 0.25], (16, 3 * d))  # norm exactly 1 in every field
    matrix = matrix_of(data, 3)
    normalized = normalize_field_blocks(matrix)
    index = rng.integers(0, len(data), 60)
    for f in range(3):
        rows = matrix.field_block(f)
        want = unit_rows(rows)
        field = simindex._field(rows, "cosine", 1.0)
        assert (field.norms == 1.0).sum() > 10
        assert simindex._gather(field, index).tobytes() == want[index].tobytes()
        assert field.low.tobytes() == want.astype(np.float32).tobytes()
        assert normalized.field_block(f).tobytes() == want.astype(np.float32).tobytes()


def test_unit_rows_of_float32_extremes_are_the_plain_division():
    """The squares of float32 values neither overflow nor underflow in float64, so
    rows holding the float32 maximum or subnormals become ``x / norm(x)`` in
    float64, row by row, and the norms returned are those norms (a zero row: 1)."""
    big, tiny = np.finfo(np.float32).max, np.finfo(np.float32).smallest_subnormal
    rows = np.array([[big, -big, 1.0, 0.0], [tiny, -3 * tiny, 0.0, 5 * tiny],
                     [big, tiny, -2.0, 0.5], [0.0, 0.0, -0.0, 0.0], [0.5, -0.5, 0.5, 0.5]],
                    np.float32)
    out = np.empty(rows.shape)
    norms = _util.unit_rows(rows, out)
    want_norms = [np.sqrt(np.sum(x * x)) or 1.0 for x in rows.astype(np.float64)]
    want = [x / norm for x, norm in zip(rows.astype(np.float64), want_norms)]
    assert out.tobytes() == np.array(want).tobytes()
    assert norms.tolist() == want_norms


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
def test_pair_kernel_gathers_a_query_row_once(metric, monkeypatch):
    """Each rescore gathers (and scales) a query row once per field and tile when
    its pairs fit in one chunk of ``_GATHER_ELEMS // width`` pairs, and the scores
    equal the oracle's."""
    d, step = 8, 7
    monkeypatch.setattr(simindex, "_GATHER_ELEMS", d * step)  # 7 pairs of field rows
    monkeypatch.setattr(simindex, "_BLOCK_ELEMS", 300)
    data = np.random.default_rng(8).integers(-2, 3, (60, 3 * d)).astype(float)
    gathered, straddling = [], []
    gather, pair_scores = simindex._gather, simindex._pair_scores

    def counted_gather(field, index):
        gathered.append((field, np.array(index)))
        return gather(field, index)

    def counted_pair_scores(q, ref, rows, cols, metric):
        gathered.clear()
        scores = pair_scores(q, ref, rows, cols, metric)
        taken = np.concatenate([index for field, index in gathered if field is q])
        pairs = np.bincount(rows, minlength=len(q.rows))
        fits = (pairs > 0) & (pairs <= step)
        assert (np.bincount(taken, minlength=len(q.rows))[fits] == 1).all()
        first = np.searchsorted(rows, np.flatnonzero(fits))
        last = first + pairs[fits] - 1
        straddling.append(int((first // step != last // step).sum()))
        return scores

    monkeypatch.setattr(simindex, "_gather", counted_gather)
    monkeypatch.setattr(simindex, "_pair_scores", counted_pair_scores)
    matrix = matrix_of(data, n_fields=3)
    got = knn_feature_reranked(matrix, 3, metric)
    want = rerank_oracle(matrix.data, 3, metric, [1.0, 1.0, 1.0], True)
    assert np.array_equal(got.neighbors, want[0]) and np.array_equal(got.scores, want[1])
    got = search_one(data[:25, :d], data[:, :d], 3, metric, False)
    want = oracle(data[:25, :d], data[:, :d], 3, metric, False)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert len(straddling) > 6 and sum(straddling) > 0  # several tiles; fixed-size chunks split rows


AUDIT_CHILD = """
import sys
from pathlib import Path
from fairaudit.audit import AuditConfig, run_audit
from fairaudit.dataset import (RaterConfig, attach_stage_labels, generate_synthetic_corpus,
                               save_corpus, simulate_raters)
out = Path(sys.argv[1])
profiles, latents = generate_synthetic_corpus(300, 100, seed=4)
decisions = simulate_raters(profiles, latents, RaterConfig(noise_sigma=0.25, seed=5))
save_corpus(attach_stage_labels(profiles, decisions), out.parent / "corpus.jsonl")
config = AuditConfig(d=96, k=5, seed=7, max_epochs=2, patience=2, rounds=5, hidden_dim=8,
                     head_dim=8)
run_audit(out.parent / "corpus.jsonl", config, out_dir=out)
"""


def test_run_audit_does_not_depend_on_the_blas_thread_count(tmp_path):
    outputs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        out = tmp_path / threads / "run"
        out.parent.mkdir()
        subprocess.run([sys.executable, "-c", AUDIT_CHILD, str(out)], env=env, check=True,
                       timeout=300)
        report = json.loads((out / "report.json").read_text())
        report["metadata"].pop("timestamp")
        outputs[threads] = (json.dumps(report, sort_keys=True),
                            (out / "neighbors.json").read_bytes())
    assert outputs["1"] == outputs["2"]
