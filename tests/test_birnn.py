"""Bidirectional recurrent classifier: forward oracle, gradients, training,
early stopping, and randomized hyperparameter search."""

import tracemalloc
import warnings

import numpy as np
import pytest

from fairaudit.classifiers import (
    BiRnnClassifier,
    EarlyStopper,
    TrainConfig,
    birnn_forward,
    birnn_train,
    gradient_check,
    load_model,
    save_model,
)
from fairaudit import random_search
from fairaudit.audit import LEARNERS
from fairaudit.errors import AlignmentError, DimensionMismatchError, TrainingError


def hand_rolled_forward(params, x):
    """Independent step-by-step transcription of the recurrence."""
    steps, _ = x.shape
    h = np.zeros(params["w_hf"].shape[0])
    for t in range(steps):
        h = np.tanh(x[t] @ params["w_xf"] + h @ params["w_hf"] + params["b_f"])
    hb = np.zeros(params["w_hb"].shape[0])
    for t in range(steps - 1, -1, -1):
        hb = np.tanh(x[t] @ params["w_xb"] + hb @ params["w_hb"] + params["b_b"])
    z = np.concatenate([h, hb])
    a = np.maximum(z @ params["w_1"] + params["b_1"], 0.0)
    logits = a @ params["w_2"] + params["b_2"]
    return logits - np.log(np.exp(logits).sum())


def separable_sequences(n, d, seed, noise=0.3):
    """Class sign is carried by the first embedding coordinate of every field."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n)
    direction = np.zeros(d)
    direction[0] = 1.0
    x = noise * rng.standard_normal((n, 5, d))
    x += np.where(y[:, None, None] == 1, 1.0, -1.0) * direction
    return x, y


class TestForward:
    def test_zero_weights_give_uniform_log_probabilities(self):
        clf = BiRnnClassifier(4, 3, 4, seed=0)
        for param in clf.params.values():
            param[:] = 0.0
        log_prob = birnn_forward(clf, np.ones((5, 4)))
        assert np.allclose(log_prob, np.log(0.5), atol=1e-12)

    def test_log_probabilities_normalized(self):
        rng = np.random.default_rng(1)
        clf = BiRnnClassifier(6, 5, 4, seed=1)
        for _ in range(50):
            log_prob = birnn_forward(clf, rng.standard_normal((5, 6)))
            assert abs(np.exp(log_prob).sum() - 1.0) < 1e-6

    def test_matches_hand_rolled_recurrence(self):
        rng = np.random.default_rng(3)
        clf = BiRnnClassifier(4, 3, 4, seed=3)
        for _ in range(10):
            x = rng.standard_normal((5, 4))
            got = birnn_forward(clf, x)
            expected = hand_rolled_forward(clf.params, x)
            assert np.allclose(got, expected, atol=1e-12)

    def test_wrong_shape_rejected(self):
        clf = BiRnnClassifier(4, 3, 4, seed=0)
        with pytest.raises(DimensionMismatchError):
            birnn_forward(clf, np.zeros((4, 4)))
        with pytest.raises(DimensionMismatchError):
            birnn_forward(clf, np.zeros((5, 3)))

    def test_deterministic_construction(self):
        a = BiRnnClassifier(4, 3, 4, seed=9)
        b = BiRnnClassifier(4, 3, 4, seed=9)
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name])


class TestGradientCheck:
    def test_small_error_across_seeds(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            clf = BiRnnClassifier(4, 3, 4, seed=seed)
            x = rng.standard_normal((5, 4))
            assert gradient_check(clf, x, label=seed % 2) < 1e-4

    def test_perturbed_gradient_detected(self):
        rng = np.random.default_rng(0)
        clf = BiRnnClassifier(4, 3, 4, seed=0)
        x = rng.standard_normal((5, 4))
        assert gradient_check(clf, x, 1, perturb_param="w_1") > 1e-1

    def test_zero_model_head_bias_gradient(self):
        # near-linear regime: analytic and numeric b_2 gradients agree tightly
        clf = BiRnnClassifier(4, 3, 4, seed=0)
        for param in clf.params.values():
            param[:] = 0.0
        x = np.ones((1, 5, 4))
        y = np.array([1])
        _, cache = clf.forward_batch(x)
        analytic = clf.backward_batch(cache, y)["b_2"]
        step = 1e-6
        numeric = np.empty(2)
        for i in range(2):
            clf.params["b_2"][i] = step
            up = clf.loss(x, y)
            clf.params["b_2"][i] = -step
            down = clf.loss(x, y)
            clf.params["b_2"][i] = 0.0
            numeric[i] = (up - down) / (2 * step)
        assert np.allclose(analytic, numeric, atol=1e-6)


class TestEarlyStopper:
    def test_strictly_improving_never_stops(self):
        stopper = EarlyStopper(patience=5)
        assert not any(stopper.update(acc) for acc in np.linspace(0.5, 0.9, 20))
        assert stopper.best_epoch == 20

    def test_frozen_stops_after_one_plus_patience(self):
        stopper = EarlyStopper(patience=5)
        outcomes = [stopper.update(0.7) for _ in range(10)]
        assert outcomes.index(True) + 1 == 6  # stop signal on epoch 1 + patience
        assert stopper.best_epoch == 1

    def test_recovery_resets_patience(self):
        stopper = EarlyStopper(patience=2)
        values = [0.5, 0.5, 0.6, 0.6, 0.6]
        outcomes = [stopper.update(v) for v in values]
        assert outcomes == [False, False, False, False, True]


class TestTraining:
    def _config(self, **kwargs):
        defaults = dict(
            max_epochs=20, patience=5, learning_rate=0.1, batch_size=32,
            seed=0, hidden_dim=8, head_dim=8,
        )
        defaults.update(kwargs)
        return TrainConfig(**defaults)

    def test_frozen_validation_stops_at_one_plus_patience(self):
        # zero learning rate freezes the model, hence validation accuracy
        x, y = separable_sequences(60, 6, seed=0)
        xv, yv = separable_sequences(30, 6, seed=1)
        _, history = birnn_train(x, y, xv, yv, self._config(learning_rate=0.0))
        assert history.epochs_run == 6
        assert history.best_epoch == 1

    def test_always_improving_runs_max_epochs(self):
        # this seeded run strictly improves on epochs 1 and 2 (verified trace)
        x, y = separable_sequences(240, 8, seed=0)
        xv, yv = separable_sequences(80, 8, seed=1)
        _, probe = birnn_train(x, y, xv, yv, self._config(max_epochs=2, patience=1))
        assert probe.val_accuracy[1] > probe.val_accuracy[0]
        assert probe.epochs_run == 2

    def test_patience_never_triggers_with_patience_equal_epochs(self):
        x, y = separable_sequences(60, 6, seed=2)
        xv, yv = separable_sequences(30, 6, seed=3)
        _, history = birnn_train(
            x, y, xv, yv, self._config(max_epochs=4, patience=4, learning_rate=0.0)
        )
        assert history.epochs_run == 4

    def test_separable_reaches_high_validation_accuracy(self):
        x, y = separable_sequences(240, 8, seed=0)
        xv, yv = separable_sequences(80, 8, seed=1)
        model, history = birnn_train(x, y, xv, yv, self._config())
        assert history.best_val_accuracy >= 0.95
        assert np.mean(model.predict(xv) == yv) >= 0.95

    def test_returns_best_snapshot_not_last(self):
        x, y = separable_sequences(100, 6, seed=4)
        xv, yv = separable_sequences(40, 6, seed=5)
        model, history = birnn_train(x, y, xv, yv, self._config(max_epochs=8, patience=3))
        best = history.val_accuracy[history.best_epoch - 1]
        assert best == history.best_val_accuracy
        assert float(np.mean(model.predict(xv) == yv)) == pytest.approx(best, abs=1e-12)

    def test_single_class_training_rejected(self):
        x, _ = separable_sequences(40, 6, seed=0)
        xv, yv = separable_sequences(10, 6, seed=1)
        with pytest.raises(TrainingError):
            birnn_train(x, np.ones(40, dtype=np.int64), xv, yv, self._config())

    def test_non_finite_weights_are_a_training_error(self):
        # TrainConfig takes any finite rate; this one overflows the weights in the first epoch
        x, y = separable_sequences(40, 6, seed=0)
        xv, yv = separable_sequences(10, 6, seed=1)
        with np.errstate(all="ignore"), pytest.raises(TrainingError, match="after epoch 1$"):
            birnn_train(x, y, xv, yv, self._config(learning_rate=1e200))

    def test_diverging_training_prints_no_warning(self):
        x, y = separable_sequences(40, 6, seed=0)
        xv, yv = separable_sequences(10, 6, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(TrainingError, match="after epoch 1$"):
                birnn_train(x, y, xv, yv, self._config(learning_rate=1e200))

    def test_rows_that_are_not_sequences_are_refused(self):
        x, y = separable_sequences(40, 6, seed=0)
        xv, yv = separable_sequences(10, 6, seed=1)
        with pytest.raises(DimensionMismatchError, match="expected 3, got 2"):
            birnn_train(x.reshape(40, -1), y, xv, yv, self._config())
        with pytest.raises(DimensionMismatchError):
            birnn_train(x, y, xv.reshape(10, -1), yv, self._config())

    def test_labels_that_are_not_one_per_row_are_refused(self):
        x, y = separable_sequences(6, 6, seed=0)
        xv, yv = separable_sequences(2, 6, seed=1)
        with pytest.raises(AlignmentError, match="training labels of shape \\(5,\\) for 6 rows"):
            birnn_train(x, y[:5], xv, yv, self._config())
        with pytest.raises(AlignmentError, match="validation labels of shape \\(3,\\) for 2"):
            birnn_train(x, y, xv, np.append(yv, 0), self._config())

    def test_empty_validation_rejected(self):
        x, y = separable_sequences(40, 6, seed=0)
        with pytest.raises(TrainingError):
            birnn_train(x, y, np.zeros((0, 5, 6)), np.zeros(0, dtype=np.int64), self._config())

    def test_training_deterministic(self):
        x, y = separable_sequences(80, 6, seed=6)
        xv, yv = separable_sequences(30, 6, seed=7)
        a, ha = birnn_train(x, y, xv, yv, self._config(max_epochs=5, patience=5))
        b, hb = birnn_train(x, y, xv, yv, self._config(max_epochs=5, patience=5))
        assert ha == hb
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name])

    def test_each_update_reaches_the_next_forward_pass(self):
        # training stores the fused weights once and updates them through views of
        # the per-direction params; a loop that rebuilds them from the params on
        # every forward pass must end with the same bits
        x, y = separable_sequences(70, 6, seed=10)
        xv, yv = separable_sequences(20, 6, seed=11)
        config = self._config(max_epochs=1, patience=1, batch_size=16)
        model, _ = birnn_train(x, y, xv, yv, config)
        ref = BiRnnClassifier(6, config.hidden_dim, config.head_dim, seed=config.seed)
        ref.params = {name: param.astype(np.float32) for name, param in ref.params.items()}
        x32 = x.astype(np.float32)
        perm = np.random.default_rng([config.seed, 1]).permutation(len(x))
        for start in range(0, len(x), config.batch_size):
            batch = perm[start : start + config.batch_size]
            _, cache = ref.forward_batch(x32[batch])
            for name, grad in ref.backward_batch(cache, y[batch]).items():
                ref.params[name] -= config.learning_rate * grad
        for name, param in ref.params.items():
            assert model.params[name].tobytes() == param.tobytes(), name

    def test_serialization_round_trip(self, tmp_path):
        x, y = separable_sequences(60, 6, seed=8)
        xv, yv = separable_sequences(20, 6, seed=9)
        model, _ = birnn_train(x, y, xv, yv, self._config(max_epochs=3, patience=3))
        save_model(model, tmp_path / "m.json")
        loaded = load_model(tmp_path / "m.json")
        # the model trains in float32, the precision of the file: it holds the same weights
        for name, param in model.params.items():
            assert param.dtype == loaded.params[name].dtype == np.float32
            assert np.array_equal(loaded.params[name], param)
        assert np.array_equal(loaded.predict(xv), model.predict(xv))


class TestPrecision:
    def test_float32_gradients_match_float64(self):
        """One kernel: on the same float32-valued params and inputs, float32 gradients
        are float64's within float32 rounding."""
        rng = np.random.default_rng(11)
        wide = BiRnnClassifier(6, 8, 4, seed=11)
        for param in wide.params.values():
            param[:] = rng.uniform(-0.6, 0.6, param.shape).astype(np.float32)
        narrow = BiRnnClassifier(
            6, 8, 4, seed=11, params={n: p.astype(np.float32) for n, p in wide.params.items()}
        )
        x = rng.standard_normal((7, 5, 6)).astype(np.float32)
        y = rng.integers(0, 2, 7)
        want = wide.backward_batch(wide.forward_batch(x.astype(np.float64))[1], y)
        log_prob, cache = narrow.forward_batch(x)
        got = narrow.backward_batch(cache, y)
        assert log_prob.dtype == np.float32
        assert set(got) == set(want) == set(wide.params)
        for name, grad in got.items():
            assert grad.dtype == np.float32 and grad.shape == wide.params[name].shape
            np.testing.assert_allclose(grad, want[name], rtol=1e-4, atol=1e-6, err_msg=name)

    def test_trained_model_passes_the_float64_gradient_check(self):
        x, y = separable_sequences(60, 4, seed=12)
        xv, yv = separable_sequences(20, 4, seed=13)
        config = TrainConfig(max_epochs=3, patience=3, hidden_dim=3, head_dim=4, seed=2)
        model, _ = birnn_train(x, y, xv, yv, config)
        assert all(param.dtype == np.float32 for param in model.params.values())
        wide = BiRnnClassifier(
            4, 3, 4, seed=2, params={n: p.astype(np.float64) for n, p in model.params.items()}
        )
        for i in range(3):
            assert gradient_check(wide, xv[i], int(yv[i])) < 1e-4

    def test_predict_casts_the_rows_a_chunk_at_a_time(self):
        n, d = 1700, 480  # n * 5 * d >= 4M entries
        clf = BiRnnClassifier(d, 8, 4, seed=3)
        clf.params = {name: param.astype(np.float32) for name, param in clf.params.items()}
        x = np.random.default_rng(3).standard_normal((n, 5, d))
        tracemalloc.start()
        try:
            got = clf.predict(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < x.size * 4 / 4, f"peak {peak} bytes"
        assert np.array_equal(got, np.argmax(clf.forward_batch(x)[0], axis=1))  # one chunk

    def test_predict_on_no_rows(self):
        got = BiRnnClassifier(4, 3, 4, seed=0).predict(np.zeros((0, 5, 4)))
        assert got.shape == (0,) and got.dtype.kind == "i"


class TestRandomSearch:
    def _data(self):
        x, y = separable_sequences(120, 6, seed=0)
        xv, yv = separable_sequences(50, 6, seed=1)
        return x, y, xv, yv

    def test_empty_search_space_is_refused(self):
        x, y, xv, yv = self._data()
        config = TrainConfig(search_trials=2, search_space={})
        with pytest.raises(ValueError, match="search space must be nonempty"):
            random_search("birnn", x, y, xv, yv, config)

    def test_single_trial_returns_its_model(self):
        x, y, xv, yv = self._data()
        config = TrainConfig(max_epochs=3, patience=3, seed=5, search_trials=1,
                             search_space={"hidden_dim": [8]}, head_dim=8)
        result = random_search("birnn", x, y, xv, yv, config)
        assert result.best_index == 0
        assert len(result.trials) == 1
        assert result.trials[0].val_accuracy is not None

    def test_same_seed_same_trials_and_winner(self):
        x, y, xv, yv = self._data()
        config = TrainConfig(max_epochs=2, patience=2, seed=3, search_trials=4,
                             search_space={"hidden_dim": [4, 8], "learning_rate": (0.01, 0.3)},
                             head_dim=8)
        a = random_search("birnn", x, y, xv, yv, config)
        b = random_search("birnn", x, y, xv, yv, config)
        assert [t.params for t in a.trials] == [t.params for t in b.trials]
        assert a.best_index == b.best_index
        assert [t.val_accuracy for t in a.trials] == [t.val_accuracy for t in b.trials]

    def test_winner_beats_degenerate_endpoint(self):
        x, y, xv, yv = self._data()
        base = TrainConfig(max_epochs=3, patience=3, hidden_dim=8, head_dim=8)
        # oracle: evaluate both endpoints directly
        from dataclasses import replace

        learner = LEARNERS["birnn"]

        def accuracy(learning_rate):
            model = learner.fit(x, y, xv, yv, replace(base, learning_rate=learning_rate, seed=1))
            return np.mean(learner.predict(model, xv) == yv)

        acc_good, acc_degenerate = accuracy(0.1), accuracy(0.0)
        assert acc_good > acc_degenerate
        config = replace(base, seed=11, search_trials=10,
                         search_space={"learning_rate": [0.1, 0.0]})
        result = random_search("birnn", x, y, xv, yv, config)
        best_acc = result.trials[result.best_index].val_accuracy
        assert best_acc >= acc_degenerate

    def test_winner_has_max_accuracy_in_log(self):
        x, y, xv, yv = self._data()
        config = TrainConfig(max_epochs=2, patience=2, seed=7, search_trials=5,
                             search_space={"hidden_dim": [4, 8, 16]}, head_dim=8)
        result = random_search("birnn", x, y, xv, yv, config)
        accuracies = [t.val_accuracy for t in result.trials if t.val_accuracy is not None]
        assert result.trials[result.best_index].val_accuracy == max(accuracies)
        # earliest trial wins ties
        best = result.trials[result.best_index].val_accuracy
        first_with_best = next(i for i, t in enumerate(result.trials) if t.val_accuracy == best)
        assert result.best_index == first_with_best

    def test_failed_trials_recorded_not_fatal(self):
        x, y, xv, yv = self._data()
        # patience sampled above max_epochs makes the config invalid
        config = TrainConfig(max_epochs=2, patience=2, seed=1, search_trials=6,
                             search_space={"patience": [1, 50], "hidden_dim": [4]}, head_dim=8)
        result = random_search("birnn", x, y, xv, yv, config)
        failed = [t for t in result.trials if t.error is not None]
        succeeded = [t for t in result.trials if t.error is None]
        assert failed and succeeded
        assert len(result.trials) == 6
        assert result.trials[result.best_index].error is None

    def test_stumps_family(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((100, 8))
        y = (x[:, 2] > 0).astype(np.int64)
        xv = rng.standard_normal((40, 8))
        yv = (xv[:, 2] > 0).astype(np.int64)
        config = TrainConfig(seed=4, search_trials=3,
                             search_space={"rounds": [10, 30], "learning_rate": (0.1, 0.4)})
        result = random_search("stumps", x, y, xv, yv, config)
        assert result.trials[result.best_index].val_accuracy >= 0.9

    @pytest.mark.parametrize("family, rate, error", [
        ("stumps", 1e308, "TrainingError: a leaf value is not finite in round 1"),
        ("birnn", 1e200, "TrainingError: a weight is not finite after epoch 1"),
    ])
    def test_non_finite_trial_recorded_not_fatal(self, family, rate, error):
        if family == "stumps":
            rng = np.random.default_rng(3)
            x, xv = rng.standard_normal((80, 6)), rng.standard_normal((40, 6))
            y, yv = (x[:, 0] > 0).astype(np.int64), (xv[:, 0] > 0).astype(np.int64)
        else:
            x, y = separable_sequences(40, 6, seed=0)
            xv, yv = separable_sequences(10, 6, seed=1)
        config = TrainConfig(seed=1, search_trials=4, max_epochs=2, patience=2, rounds=5,
                             hidden_dim=8, head_dim=8,
                             search_space={"learning_rate": [0.1, rate]})
        with np.errstate(all="ignore"):
            result = random_search(family, x, y, xv, yv, config)
        assert [t.error for t in result.trials if t.params["learning_rate"] == rate] == [error] * 2
        assert result.trials[result.best_index].params["learning_rate"] == 0.1

    def test_all_trials_failing_raises(self):
        x, y, xv, yv = self._data()
        config = TrainConfig(max_epochs=2, patience=2, seed=1, search_trials=2,
                             search_space={"patience": [50]})
        # the message names the trials' distinct errors, once each
        message = (
            "every search trial failed: ValueError: patience must be between 0 and max_epochs"
        )
        with pytest.raises(TrainingError, match=f"^{message}$"):
            random_search("birnn", x, y, xv, yv, config)

    def test_unknown_family_rejected(self):
        for family in ("forest", "knn"):  # kNN is a learner, but it is not searched
            with pytest.raises(ValueError, match=f"unknown family '{family}'"):
                random_search(family, None, None, None, None, TrainConfig())
