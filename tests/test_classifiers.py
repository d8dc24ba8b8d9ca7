"""Retrieval kNN and boosted stumps."""

import base64
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from fairaudit import _util
from fairaudit._util import canonical_json
from fairaudit.classifiers import (
    KnnClassifier,
    TrainConfig,
    knn_predict,
    load_model,
    save_model,
    train_stumps,
)
from fairaudit.dataset import DecisionVector
from fairaudit.embed import EmbeddingMatrix
from fairaudit.errors import NonFiniteError, SizeError, TrainingError


def matrix_of(data, ids=None):
    data = np.asarray(data, dtype=np.float64)
    if ids is None:
        ids = tuple(f"T{i}" for i in range(data.shape[0]))
    return EmbeddingMatrix(data, data.shape[1], ("f0",), tuple(ids))


def fit_knn(points, labels, k, metric="euclidean"):
    matrix = matrix_of(points)
    vector = DecisionVector("truth:Type", np.asarray(labels), matrix.index_order)
    return KnnClassifier(k, metric).fit(matrix, vector)


class TestKnnPredict:
    def test_unanimous_vote(self):
        # five identical neighbors labeled 1 around the query
        points = [[1.0, 0.0], [1.1, 0.0], [0.9, 0.0], [1.0, 0.1], [1.0, -0.1], [9.0, 9.0]]
        clf = fit_knn(points, [1, 1, 1, 1, 1, 0], k=5)
        queries = matrix_of([[1.0, 0.0]], ids=("Q0",))
        assert list(knn_predict(clf, queries).values) == [1]

    def test_majority_three_of_five(self):
        # distances from the origin query: 1,2,3,4,5 with labels 1,1,1,0,0
        points = [[1, 0], [2, 0], [3, 0], [4, 0], [5, 0]]
        clf = fit_knn(points, [1, 1, 1, 0, 0], k=5)
        queries = matrix_of([[0.0, 0.0]], ids=("Q0",))
        assert list(knn_predict(clf, queries).values) == [1]

    def test_even_k_tie_breaks_to_nearest(self):
        # top-4 votes are {0,1,1,0}; the single nearest is labeled 0
        points = [[1, 0], [2, 0], [0, 3], [4, 0], [0, 9]]
        labels = [0, 1, 1, 0, 1]
        clf = fit_knn(points, labels, k=4)
        queries = matrix_of([[0.0, 0.0]], ids=("Q0",))
        assert list(knn_predict(clf, queries).values) == [0]

    def test_training_row_query_k1_returns_own_label(self):
        rng = np.random.default_rng(0)
        points = rng.standard_normal((20, 4))
        labels = rng.integers(0, 2, 20)
        clf = fit_knn(points, labels, k=1, metric="cosine")
        predictions = knn_predict(clf, matrix_of(points))
        assert np.array_equal(predictions.values, labels)

    def test_too_few_training_rows(self):
        clf = fit_knn([[0.0, 1.0], [1.0, 0.0]], [0, 1], k=5)
        with pytest.raises(SizeError):
            knn_predict(clf, matrix_of([[1.0, 1.0]], ids=("Q0",)))

    def test_source_name(self):
        clf = fit_knn([[0, 1], [1, 0], [1, 1]], [0, 1, 1], k=1)
        assert knn_predict(clf, matrix_of([[1.0, 1.0]], ids=("Q0",))).source == "model:knn"


class TestTrainStumps:
    def _fixture(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        return x, y

    def test_separable_fixture_perfect_train_accuracy(self):
        x, y = self._fixture()
        model = train_stumps(x, y, TrainConfig(rounds=50, learning_rate=0.3))
        assert np.array_equal(model.predict(x), y)
        assert model.rounds == 50

    def test_single_class_rejected(self):
        x, _ = self._fixture()
        with pytest.raises(TrainingError, match="base"):
            train_stumps(x, np.ones(4, dtype=np.int64), TrainConfig())

    def test_non_finite_leaf_is_a_training_error(self):
        # TrainConfig takes any finite rate; this one takes the first leaves past the float range
        rng = np.random.default_rng(3)
        x = rng.standard_normal((80, 6))
        y = (x[:, 0] > 0).astype(np.int64)
        with np.errstate(all="ignore"), pytest.raises(TrainingError, match="in round 1$"):
            train_stumps(x, y, TrainConfig(rounds=5, learning_rate=1e308))

    def test_diverging_training_prints_no_warning(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((80, 6))
        y = (x[:, 0] > 0).astype(np.int64)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(TrainingError, match="in round 1$"):
                train_stumps(x, y, TrainConfig(rounds=5, learning_rate=1e308))

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((60, 12))
        y = rng.integers(0, 2, 60)
        config = TrainConfig(rounds=30, learning_rate=0.2, seed=7)
        a = train_stumps(x, y, config)
        b = train_stumps(x, y, config)
        assert a.stumps == b.stumps
        assert a.base_score == b.base_score

    def test_training_loss_non_increasing(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((80, 6))
        y = (x[:, 0] + 0.3 * rng.standard_normal(80) > 0).astype(np.int64)
        model = train_stumps(x, y, TrainConfig(rounds=60, learning_rate=0.3))
        losses = model.train_loss
        assert len(losses) == 60
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_margin_is_additive(self):
        x, y = self._fixture()
        model = train_stumps(x, y, TrainConfig(rounds=5, learning_rate=0.3))
        expected = np.full(4, model.base_score)
        for stump in model.stumps:
            expected += np.where(x[:, stump.feature] < stump.threshold, stump.left, stump.right)
        assert np.allclose(model.predict_margin(x), expected, atol=0)

    def test_probabilities_in_unit_interval(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((50, 4))
        y = rng.integers(0, 2, 50)
        model = train_stumps(x, y, TrainConfig(rounds=20))
        proba = model.predict_proba(x)
        assert np.all((proba > 0) & (proba < 1))

    def test_constant_features_stop_early(self):
        x = np.zeros((10, 3))
        y = np.array([0, 1] * 5)
        model = train_stumps(x, y, TrainConfig(rounds=10))
        assert model.rounds == 0
        assert np.all(model.predict(x) == (model.base_score >= 0))

    def test_base_score_is_prior_log_odds(self):
        x = np.arange(8, dtype=np.float64)[:, None]
        y = np.array([1, 1, 1, 1, 1, 1, 0, 0])
        model = train_stumps(x, y, TrainConfig(rounds=1))
        assert model.base_score == pytest.approx(np.log(0.75 / 0.25), abs=1e-12)

    def test_serialization_round_trip(self, tmp_path):
        x, y = self._fixture()
        model = train_stumps(x, y, TrainConfig(rounds=12, learning_rate=0.3))
        save_model(model, tmp_path / "m.json")
        loaded = load_model(tmp_path / "m.json")
        assert loaded.stumps == model.stumps
        assert loaded.base_score == model.base_score
        assert np.array_equal(loaded.predict(x), model.predict(x))


class TestKnnSerialization:
    def test_round_trip_predictions(self, tmp_path):
        rng = np.random.default_rng(5)
        points = rng.standard_normal((30, 6)).astype(np.float32).astype(np.float64)
        labels = rng.integers(0, 2, 30)
        clf = fit_knn(points, labels, k=3, metric="cosine")
        save_model(clf, tmp_path / "knn.json")
        loaded = load_model(tmp_path / "knn.json")
        queries = matrix_of(rng.standard_normal((10, 6)).astype(np.float32).astype(np.float64),
                            ids=tuple(f"Q{i}" for i in range(10)))
        assert np.array_equal(knn_predict(loaded, queries).values,
                              knn_predict(clf, queries).values)
        assert loaded.reference_ids == clf.reference_ids

    def test_reference_float32_cannot_hold_leaves_no_file(self, tmp_path):
        points = np.random.default_rng(5).standard_normal((6, 3))
        points[4, 1] = 1e300
        with pytest.raises(NonFiniteError, match="overflows float32"):
            fit_knn(points, [0, 1, 0, 1, 0, 1], k=1)  # the float32 matrix refuses it
        clf = KnnClassifier(1)  # a reference set by hand, not from a matrix
        clf.reference, clf.labels = points, np.array([0, 1, 0, 1, 0, 1])
        clf.reference_ids = tuple(f"T{i}" for i in range(6))
        with pytest.raises(NonFiniteError, match="overflows float32"):
            save_model(clf, tmp_path / "knn.json")
        assert not (tmp_path / "knn.json").exists()
        with pytest.raises(NonFiniteError):
            clf.to_dict()


class TestStreamedModelFile:
    """``save_model`` writes array data in pieces; the file keeps the bytes of
    the one-shot encoding, and ``canonical_json`` gives the same text."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 12])
    @pytest.mark.parametrize("piece_elems", [3, 6, 3 << 14])
    def test_file_equals_the_canonical_json(self, tmp_path, monkeypatch, n, piece_elems):
        # n rows of width 4 hold 16 n bytes, which is 0, 1 or 2 mod 3 as n is
        monkeypatch.setattr(_util, "_PIECE_ELEMS", piece_elems)
        rng = np.random.default_rng(n)
        clf = fit_knn(rng.standard_normal((n, 4)), rng.integers(0, 2, n), k=1)
        save_model(clf, tmp_path / "knn.json")
        envelope = {"format": "fairaudit-model", "version": 1, "family": "knn"}
        reference = {"shape": [n, 4],
                     "data": base64.b64encode(clf.reference.astype("<f4").tobytes()).decode()}
        body = {"k": clf.k, "metric": clf.metric, "reference": reference,
                "labels": [int(v) for v in clf.labels], "reference_ids": list(clf.reference_ids)}
        want = json.dumps({**envelope, "model": body}, sort_keys=True, separators=(",", ":")) + "\n"
        assert (tmp_path / "knn.json").read_bytes() == want.encode("utf-8")
        assert canonical_json({**envelope, "model": clf.to_dict()}) + "\n" == want
        assert np.array_equal(load_model(tmp_path / "knn.json").reference,
                              clf.reference.astype(np.float32))

    def test_save_model_memory_stays_below_the_blob_size(self, tmp_path):
        rng = np.random.default_rng(0)
        n, d = 1200, 1024
        clf = fit_knn(rng.standard_normal((n, d)), rng.integers(0, 2, n), k=5)
        text_bytes = n * d * 4 * 4 // 3  # base64 of the float32 reference
        tracemalloc.start()
        try:
            save_model(clf, tmp_path / "knn.json")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < text_bytes / 2, f"peak {peak / text_bytes:.2f}x the base64 text"
