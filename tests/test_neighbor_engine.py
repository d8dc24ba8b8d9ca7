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

from fairaudit import _util, embed_corpus, generate_synthetic_corpus, simindex
from fairaudit.embed import normalize_field_blocks
from fairaudit.embed import EmbeddingMatrix
from fairaudit.simindex import (knn_batched, knn_exact, knn_feature_reranked, pairwise_similarity,
                                search_queries)

SRC = Path(__file__).resolve().parents[1] / "src"


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
        got_q = search_queries(queries, data, k, metric)
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
        mirrored = simindex.search(data, data, k, metric, exclude_self, block, weights)
        plain = simindex.search(data.copy(), data, k, metric, exclude_self, block, weights)
    assert np.array_equal(mirrored[0], plain[0])
    assert np.array_equal(mirrored[1], plain[1])


@pytest.mark.parametrize("metric, n_fields, block_elems, batch_size", [
    ("cosine", 1, 50, None),  # 10 x 10 tiles
    ("cosine", 3, 49, None),  # 7 x 7
    ("euclidean", 1, 54, None),  # 6 x 6
    ("euclidean", 3, 90, None),  # 6 x 6
    ("cosine", 1, 1, 8),  # 8 x 8
])
def test_self_search_screens_each_tile_pair_once(metric, n_fields, block_elems, batch_size,
                                                 monkeypatch):
    """A self-search of N rows in T x T tiles runs ceil(N/T)(ceil(N/T)+1)/2 float32
    GEMMs per field, not ceil(N/T)**2."""
    n = 47
    shapes = []
    screen = simindex._screen

    def counted(q, ref, *args):
        shapes.append((len(q.low), len(ref.low)))
        return screen(q, ref, *args)

    monkeypatch.setattr(simindex, "_BLOCK_ELEMS", block_elems)
    monkeypatch.setattr(simindex, "_screen", counted)
    data = np.random.default_rng(5).standard_normal((n, 4 * n_fields))
    if n_fields == 1:
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
    draw=st.data(),
)
def test_extreme_rows_equal_the_oracle(data, metric, weights, exclude_self, draw):
    """Rows near the float32 maximum, float32 subnormal rows and rows a few float32
    ulps apart, whole rows and weighted fields: the float32 screen's bound covers
    rounding, scaling and underflow, so the float64 kernel still decides every
    score. The search reads the float64 arrays' float32 rounding, as the oracle
    does."""
    n = len(data)
    k = draw.draw(st.integers(1, n - 1 if exclude_self else n))
    picks = draw.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8))
    with pytest.MonkeyPatch.context() as patch:
        want = oracle(data, data, k, metric, exclude_self)
        want_q = oracle(data[picks], data, k, metric, False)
        want_rerank = rerank_oracle(data, k, metric, weights, exclude_self)
        patch.setattr(simindex, "_BLOCK_ELEMS", draw.draw(st.integers(1, 200)))
        got = simindex.search(data, data, k, metric, exclude_self)
        got_q = search_queries(data[picks], data, k, metric)
        got_rerank = simindex.search(data, data, k, metric, exclude_self,
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
    self_search=st.booleans(),
    draw=st.data(),
)
def test_every_screened_entry_is_within_its_bound(n_fields, metric, extreme, self_search, draw):
    """Over one tile that covers every row, each entry of the screen lies within
    ``R + delta`` of its exact score in the screen's units (``C = min_f c_f`` times
    the weighted mean of the pair-kernel scores), as a self-search also uses it
    transposed. A bound too tight fails here even where no top-k changes."""
    rows = draw.draw(tie_heavy(n_fields, extreme))
    shifts = st.lists(st.integers(-20, 20), min_size=len(rows), max_size=len(rows))
    data = scaled_rows(rows, draw.draw(shifts))
    queries = data if self_search else scaled_rows(rows, draw.draw(shifts))
    weights = np.ones(1) if n_fields == 1 else simindex.check_field_weights(draw.draw(
        st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0, 3.0]), st.floats(1e-3, 1e3)),
                 min_size=3, max_size=3).filter(any)), 3)
    d = data.shape[1] // n_fields
    used, total = weights[weights > 0], weights.sum()
    fields = [slice(f * d, (f + 1) * d) for f in np.flatnonzero(weights)]
    scales = [simindex._scale(metric, queries[:, f], data[:, f]) for f in fields]
    ref = [simindex._field(data[:, f], metric, c) for f, c in zip(fields, scales)]
    q = ref if self_search else [simindex._field(queries[:, f], metric, c)
                                 for f, c in zip(fields, scales)]
    coefs = [np.float32(w * (min(scales) / c) / total) for w, c in zip(used, scales)]
    delta, sq_errors = simindex._bounds(q, ref, used, scales, total, metric, d)
    screen, radius = simindex._tile_screen(q, ref, coefs, sq_errors, metric)
    score = 0.0
    for f, w in zip(fields, used):
        score = score + w * pair_kernel_scores(queries[:, f], data[:, f], metric)
    score = min(scales) * (score / total)
    radius = np.zeros(screen.shape) if radius is None else radius.astype(np.float64)
    assert (np.abs(screen - score) <= radius + delta).all()
    if self_search:
        assert (np.abs(screen.T - score) <= radius.T + delta).all()


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
def test_float64_rows_score_as_their_float32_rounding(metric):
    """Every search reads float32 rows: float64 rows score bit for bit as their
    float32 rounding, which an EmbeddingMatrix of them holds."""
    x = np.random.default_rng(9).standard_normal((30, 12))
    x32 = matrix_of(x).data
    for got, want in [
        (simindex.search(x, x, 4, metric, True), simindex.search(x32, x32, 4, metric, True)),
        (search_queries(x[:7], x, 4, metric), search_queries(x32[:7], x32, 4, metric)),
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
        lambda k: search_queries(data[::-1], data, k, metric),
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
    ids, scores = search_queries(base[None], reference, 5, "euclidean")
    assert ids[0].tolist() == [4, 1, 3, 0, 2]
    assert scores[0].tolist() == [0.0, -(2.0**-20), -2 * 2.0**-20, -3 * 2.0**-20, -4 * 2.0**-20]
    rows = np.vstack([base, reference])
    _, self_scores = simindex.search(rows, rows, 5, "euclidean", True)
    assert self_scores[0].tolist() == scores[0].tolist()


@pytest.mark.parametrize("call", ["knn_exact", "knn_feature_reranked", "search_queries"])
def test_no_n_by_n_buffer(call):
    n = 2000
    x = np.random.default_rng(0).standard_normal((n, 512))
    matrix = matrix_of(x, n_fields=4)
    run, unit_row_copies = {
        "knn_exact": (lambda: knn_exact(matrix, 5), 1),
        "knn_feature_reranked": (lambda: knn_feature_reranked(matrix, 5), 1),
        "search_queries": (lambda: search_queries(x[: n // 2], x, 5), 1.5),
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
    "call", ["knn_exact", "knn_feature_reranked", "search_queries", "euclidean rerank"]
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
        "search_queries": lambda: search_queries(matrix.data[: n // 2], matrix.data, 5),
        "euclidean rerank": lambda: knn_feature_reranked(matrix, 5, "euclidean"),
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
    got = search_queries(data[:25, :d], data[:, :d], 3, metric)
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
