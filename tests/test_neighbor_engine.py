"""The blocked-GEMM neighbor engine ranks exactly as a brute-force oracle.

The oracle scores every (query, reference) pair with the pair kernel (a
row-wise einsum over the rows as ``_prepare`` scores them) and takes a stable
argsort, so it shares no GEMM, band, block or gather code with the engine.
Results must be equal with ``==``, for any block size, gather size and BLAS
thread count.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairaudit import simindex
from fairaudit.embed import EmbeddingMatrix
from fairaudit.simindex import knn_batched, knn_exact, knn_feature_reranked, search_queries

SRC = Path(__file__).resolve().parents[1] / "src"


def pair_kernel_scores(queries, reference, metric):
    """Every pair's score by the pair kernel, shape (len(queries), len(reference))."""
    q, q_sq = simindex._prepare(np.asarray(queries, dtype=np.float64), metric)
    r, r_sq = simindex._prepare(np.asarray(reference, dtype=np.float64), metric)
    rows, cols = np.divmod(np.arange(len(q) * len(r)), len(r))
    dots = np.einsum("ij,ij->i", q[rows], r[cols])
    if metric == "euclidean":
        dots = -np.sqrt(np.maximum(r_sq[cols] + q_sq[rows] - 2.0 * dots, 0.0))
    return dots.reshape(len(q), len(r))


def oracle(queries, reference, k, metric, exclude_diagonal):
    scores = pair_kernel_scores(queries, reference, metric)
    if exclude_diagonal:
        np.fill_diagonal(scores, -np.inf)
    order = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    return order, np.take_along_axis(scores, order, axis=1)


@st.composite
def tie_heavy(draw, n_fields=1):
    """Small integer rows plus duplicates, zero rows, rows scaled by powers of
    two and rows one ulp from another."""
    n = draw(st.integers(2, 14))
    d = draw(st.integers(1, 4)) * n_fields
    rows = []
    for i in range(n):
        kind = draw(st.sampled_from(["ints", "ints", "copy", "zero", "scaled", "ulp"]))
        if kind == "ints" or not rows:
            row = np.array(draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d)), float)
        elif kind == "zero":
            row = np.zeros(d)
        else:
            row = rows[draw(st.integers(0, i - 1))].copy()
            if kind == "scaled":
                row *= 2.0 ** draw(st.integers(-3, 3))
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
    want = oracle(data, data, k, metric, exclude_self)
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
        got_q = search_queries(queries, data, k, metric, batch_size=block)
    assert np.array_equal(got_q[0], want_q[0])
    assert np.array_equal(got_q[1], want_q[1])


@settings(max_examples=150, deadline=None)
@given(
    data=tie_heavy(n_fields=3),
    metric=st.sampled_from(["cosine", "euclidean"]),
    weights=st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), min_size=3, max_size=3).filter(any),
    exclude_self=st.booleans(),
    draw=st.data(),
)
def test_rerank_equals_a_stage_two_oracle(data, metric, weights, exclude_self, draw):
    n = len(data)
    limit = n - 1 if exclude_self else n
    pool = draw.draw(st.integers(1, limit))
    k = draw.draw(st.integers(1, pool))
    matrix = matrix_of(data, n_fields=3)
    stage1 = oracle(data, data, pool, metric, exclude_self)[0]
    total = np.zeros(stage1.shape)
    for f, w in enumerate(weights):
        if w:
            block = matrix.field_block(f)
            total += w * np.take_along_axis(pair_kernel_scores(block, block, metric), stage1, 1)
    total /= sum(weights)
    want_ids = np.empty((n, k), dtype=np.int64)
    want_scores = np.empty((n, k))
    for i in range(n):
        order = np.lexsort((stage1[i], -total[i]))[:k]
        want_ids[i], want_scores[i] = stage1[i, order], total[i, order]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simindex, "_GATHER_ELEMS", draw.draw(st.integers(1, 40)))
        got = knn_feature_reranked(matrix, k, metric, pool, weights, exclude_self)
    assert np.array_equal(got.neighbors, want_ids)
    assert np.array_equal(got.scores, want_scores)


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
