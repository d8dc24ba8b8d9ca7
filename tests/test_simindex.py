"""Similarity, exact/batched k-NN, and feature-reranked retrieval."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairaudit.embed import EmbeddingMatrix
from fairaudit.errors import (AlignmentError, DimensionMismatchError, IntegrityError,
                              NonFiniteError, ParseError, SizeError)
from fairaudit.simindex import (
    NeighborList,
    Selection,
    knn_batched,
    knn_exact,
    knn_feature_reranked,
    load_neighbors,
    pairwise_similarity,
    save_neighbors,
    search,
)


def matrix_of(data, d=None, field_names=None):
    data = np.asarray(data, dtype=np.float64)
    if d is None:
        d = data.shape[1]
    if field_names is None:
        field_names = tuple(f"f{i}" for i in range(data.shape[1] // d))
    ids = tuple(f"P{i}" for i in range(data.shape[0]))
    return EmbeddingMatrix(data, d, field_names, ids)


class TestPairwiseSimilarity:
    def test_cosine_self_is_one(self):
        v = np.array([0.3, -2.0, 5.0])
        assert pairwise_similarity(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_cosine_orthogonal_zero(self):
        assert pairwise_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_zero_vector_convention(self):
        assert pairwise_similarity([0.0, 0.0], [1.0, 2.0]) == 0.0
        assert pairwise_similarity([0.0, 0.0], [0.0, 0.0]) == 0.0

    def test_euclidean_three_four_five(self):
        # distance of (0,0) to (3,4) is sqrt(9+16) = 5, similarity -5
        assert pairwise_similarity([0.0, 0.0], [3.0, 4.0], "euclidean") == -5.0

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            pairwise_similarity([1.0], [1.0, 2.0])

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=8),
        st.sampled_from(["cosine", "euclidean"]),
        st.integers(0, 2**31 - 1),
    )
    def test_symmetry(self, a, metric, seed):
        rng = np.random.default_rng(seed)
        b = rng.uniform(-50, 50, len(a))
        assert pairwise_similarity(a, b, metric) == pairwise_similarity(b, a, metric)

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_equals_the_neighbor_search_score(self, metric):
        matrix = matrix_of(np.random.default_rng(4).standard_normal((30, 7)))
        nl = knn_exact(matrix, k=3, metric=metric)
        x = matrix.data  # the float32 rows the search read
        for i in range(30):
            for j, score in zip(nl.neighbors[i], nl.scores[i]):
                assert pairwise_similarity(x[i], x[j], metric) == score

    def test_cosine_bounded(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a, b = rng.standard_normal((2, 6))
            assert -1.0 <= pairwise_similarity(a, b) <= 1.0


class TestKnnExact:
    def test_hand_fixture_euclidean(self):
        # distances from p0: |p1|=1, |p2|=2, |p3|=sqrt(50)
        m = matrix_of([[0, 0], [1, 0], [0, 2], [5, 5]])
        nl = knn_exact(m, k=2, metric="euclidean", exclude_self=True)
        assert list(nl.neighbors[0]) == [1, 2]
        assert nl.scores[0] == pytest.approx([-1.0, -2.0], abs=1e-12)

    def test_tie_broken_by_lower_index(self):
        # p1 and p2 are equidistant from p0
        m = matrix_of([[0, 0], [0, 1], [1, 0]])
        nl = knn_exact(m, k=2, metric="euclidean")
        assert list(nl.neighbors[0]) == [1, 2]

    def test_two_rows_k1(self):
        m = matrix_of([[1.0, 0.0], [0.0, 1.0]])
        nl = knn_exact(m, k=1, metric="cosine")
        assert list(nl.neighbors[:, 0]) == [1, 0]

    def test_k_out_of_range(self):
        m = matrix_of(np.eye(3))
        with pytest.raises(SizeError):
            knn_exact(m, k=3, exclude_self=True)
        with pytest.raises(SizeError):
            knn_exact(m, k=0)
        with pytest.raises(SizeError):
            knn_feature_reranked(m, k=0)

    def test_include_self_returns_self_first(self):
        m = matrix_of(np.eye(4))
        nl = knn_exact(m, k=1, exclude_self=False)
        assert list(nl.neighbors[:, 0]) == [0, 1, 2, 3]

    def test_rows_scores_non_increasing(self):
        rng = np.random.default_rng(3)
        m = matrix_of(rng.standard_normal((40, 12)))
        for metric in ("cosine", "euclidean"):
            nl = knn_exact(m, k=10, metric=metric)
            assert np.all(np.diff(nl.scores, axis=1) <= 0)

    def test_neighbor_indices_valid_and_distinct(self):
        rng = np.random.default_rng(4)
        m = matrix_of(rng.standard_normal((30, 8)))
        nl = knn_exact(m, k=5)
        for i in range(30):
            row = list(nl.neighbors[i])
            assert i not in row
            assert len(set(row)) == 5
            assert all(0 <= j < 30 for j in row)

    def test_cosine_scaling_invariance(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((25, 10))
        base = knn_exact(matrix_of(data), k=4)
        for scale in (2.0, 0.5, 3.7, 0.01):
            scaled = knn_exact(matrix_of(scale * data), k=4)
            assert np.array_equal(scaled.neighbors, base.neighbors)


class TestKnnBatched:
    def test_batch_size_one_vs_n_identical(self):
        rng = np.random.default_rng(0)
        m = matrix_of(rng.standard_normal((37, 9)))
        a = knn_batched(m, k=5, batch_size=1)
        b = knn_batched(m, k=5, batch_size=37)
        assert np.array_equal(a.neighbors, b.neighbors)
        assert np.array_equal(a.scores, b.scores)

    def test_batched_equals_exact_bitwise(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(10, 120))
            m = matrix_of(rng.standard_normal((n, int(rng.integers(2, 32)))))
            exact = knn_exact(m, k=min(6, n - 1))
            for batch_size in (1, 3, 17, n, n + 50):
                batched = knn_batched(m, k=min(6, n - 1), batch_size=batch_size)
                assert np.array_equal(batched.neighbors, exact.neighbors)
                assert np.array_equal(batched.scores, exact.scores)

    def test_batch_larger_than_n(self):
        rng = np.random.default_rng(1)
        m = matrix_of(rng.standard_normal((8, 4)))
        a = knn_batched(m, k=2, batch_size=1000)
        b = knn_exact(m, k=2)
        assert np.array_equal(a.neighbors, b.neighbors)

    def test_bad_batch_size(self):
        m = matrix_of(np.eye(4))
        with pytest.raises(ValueError):
            knn_batched(m, k=1, batch_size=0)


def weighted_per_field_oracle(matrix, k, weights):
    """Brute-force weighted per-field cosine ranking with the tie rule."""
    n = matrix.n
    d = matrix.dim_per_field
    n_fields = len(matrix.field_order)
    weights = np.asarray(weights, dtype=np.float64)
    out = np.empty((n, k), dtype=np.int64)
    for i in range(n):
        scored = []
        for j in range(n):
            if j == i:
                continue
            total = 0.0
            for f in range(n_fields):
                a = matrix.data[i, f * d : (f + 1) * d]
                b = matrix.data[j, f * d : (f + 1) * d]
                na, nb = np.linalg.norm(a), np.linalg.norm(b)
                cos = 0.0 if na == 0 or nb == 0 else float(a @ b) / (na * nb)
                total += weights[f] * cos
            scored.append((-total / weights.sum(), j))
        scored.sort()
        out[i] = [j for _, j in scored[:k]]
    return out


class TestFeatureReranked:
    def _matrix(self, n=40, d=6, n_fields=3, seed=0):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((n, d * n_fields))
        return matrix_of(data, d=d, field_names=tuple(f"f{i}" for i in range(n_fields)))

    def test_equal_weights_full_pool_matches_oracle(self):
        m = self._matrix(n=30)
        nl = knn_feature_reranked(m, k=4)
        expected = weighted_per_field_oracle(m, 4, np.ones(3))
        assert np.array_equal(nl.neighbors, expected)

    def test_nonuniform_weights_match_oracle(self):
        m = self._matrix(n=25, seed=3)
        weights = np.array([2.0, 0.5, 1.0])
        nl = knn_feature_reranked(m, k=3, field_weights=weights)
        expected = weighted_per_field_oracle(m, 3, weights)
        assert np.array_equal(nl.neighbors, expected)

    def test_single_field_weight_equals_block_search(self):
        m = self._matrix(n=35, seed=1)
        nl = knn_feature_reranked(m, k=5, field_weights=[0.0, 1.0, 0.0])
        block = matrix_of(m.field_block(1).copy())
        direct = knn_exact(block, k=5)
        assert np.array_equal(nl.neighbors, direct.neighbors)

    def test_weights_are_keyword_only(self):
        # the call of the removed candidate_pool argument must not run with equal weights
        m = self._matrix()
        with pytest.raises(TypeError):
            knn_feature_reranked(m, 5, "cosine", None, [1, 2, 3])

    def test_all_zero_weights_rejected(self):
        m = self._matrix()
        with pytest.raises(ValueError):
            knn_feature_reranked(m, k=2, field_weights=[0.0, 0.0, 0.0])

    @pytest.mark.parametrize("bad", [[np.nan, 1, 1], [np.inf, 1, 1], [1e308, 1e308, 1]])
    def test_non_finite_weights_rejected(self, bad):
        m = self._matrix()
        with pytest.raises(ValueError):
            knn_feature_reranked(m, k=3, field_weights=bad)

    def test_rescored_rows_non_increasing(self):
        m = self._matrix(n=30, seed=5)
        nl = knn_feature_reranked(m, k=5, field_weights=[1, 1, 2])
        assert np.all(np.diff(nl.scores, axis=1) <= 0)


class TestSearchQueries:
    def test_query_identical_to_reference_row(self):
        rng = np.random.default_rng(0)
        reference = rng.standard_normal((10, 6))
        neighbors, scores = search(reference[3:4], reference, [Selection(1)], "cosine")[0]
        assert neighbors[0, 0] == 3
        assert scores[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_non_finite_input_rejected(self):
        # a damaged knn model file can carry NaN reference rows
        reference = np.eye(3)
        reference[1, 1] = np.nan
        with pytest.raises(NonFiniteError):
            search(np.eye(3), reference, [Selection(1)], "cosine")

    def test_a_value_float32_cannot_hold_is_refused(self):
        # the search reads float32 rows, as an EmbeddingMatrix holds them
        rows = np.eye(3)
        rows[1, 1] = -1e39
        for queries, reference in [(np.eye(3), rows), (rows, np.eye(3))]:
            with pytest.raises(NonFiniteError, match="1e\\+39 overflows float32"):
                search(queries, reference, [Selection(1)], "cosine")
        with pytest.raises(NonFiniteError, match="1e\\+39 overflows float32"):
            pairwise_similarity([1e39, 0.0], [1.0, 0.0], "euclidean")

    def test_zero_width_rows_are_a_dimension_error(self):
        with pytest.raises(DimensionMismatchError, match="embedding width"):
            pairwise_similarity([], [])
        with pytest.raises(DimensionMismatchError, match="embedding width"):
            search(np.zeros((2, 0)), np.zeros((3, 0)), [Selection(1)], "cosine")

    @pytest.mark.parametrize("queries, reference", [
        (np.ones(3), np.ones((4, 3))),
        (np.ones((2, 1, 3)), np.ones((4, 3))),
        (np.ones((2, 3)), np.ones(3)),
    ])
    def test_rows_that_are_not_2d_are_a_dimension_error(self, queries, reference):
        with pytest.raises(DimensionMismatchError, match="axis count mismatch: expected 2"):
            search(queries, reference, [Selection(1)], "cosine")


class TestNeighborListChecks:
    """A structure names each neighbor by a row of its own ``index_order``."""

    @pytest.mark.parametrize("outside", [-1, 3, 5])
    def test_a_neighbor_outside_the_rows_is_an_integrity_error(self, outside):
        with pytest.raises(IntegrityError, match=r"neighbor row 0 names a row outside \[0, 3\)"):
            NeighborList(1, [[outside], [0], [1]], np.zeros((3, 1)), "cosine", True,
                         ("a", "b", "c"))

    @pytest.mark.parametrize("ids", [("a", "b"), ("a", "b", "c", "d")])
    def test_ids_that_are_not_one_per_row_are_an_alignment_error(self, ids):
        with pytest.raises(AlignmentError, match=f"{len(ids)} ids for 3 neighbor rows"):
            NeighborList(1, [[1], [0], [1]], np.zeros((3, 1)), "cosine", True, ids)


class TestNeighborListIO:
    def test_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        m = matrix_of(rng.standard_normal((12, 5)))
        nl = knn_exact(m, k=3)
        save_neighbors(nl, tmp_path / "n.json")
        loaded = load_neighbors(tmp_path / "n.json")
        assert loaded.k == nl.k
        assert loaded.metric == nl.metric
        assert loaded.excludes_self == nl.excludes_self
        assert loaded.index_order == nl.index_order
        assert np.array_equal(loaded.neighbors, nl.neighbors)
        assert np.allclose(loaded.scores, nl.scores, atol=0)

    def test_run_directory_file_is_a_parse_error_naming_its_stages(self, tmp_path):
        # a run directory's neighbors.json holds one structure per stage
        nl = knn_exact(matrix_of(np.eye(4)), k=1)
        save_neighbors(nl, tmp_path / "one.json")
        one = json.loads((tmp_path / "one.json").read_text())
        (tmp_path / "n.json").write_text(json.dumps({"stages": {"AR": one, "OF": one}}))
        with pytest.raises(ParseError, match=r"\['AR', 'OF'\]"):
            load_neighbors(tmp_path / "n.json")
