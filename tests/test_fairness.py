"""Consistency score and classification metrics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairaudit.dataset import DecisionVector
from fairaudit.errors import AlignmentError, SizeError
from fairaudit.fairness import (
    ConsistencyResult,
    classification_metrics,
    consistency,
    consistency_gap,
)
from fairaudit.simindex import NeighborList


def neighbor_list(neighbors, ids, k=None, scores=None):
    neighbors = np.asarray(neighbors, dtype=np.int64)
    if k is None:
        k = neighbors.shape[1]
    if scores is None:
        scores = np.zeros_like(neighbors, dtype=np.float64)
    return NeighborList(k, neighbors, scores, "cosine", True, tuple(ids))


def decisions(values, ids=None, source="test"):
    values = np.asarray(values)
    if ids is None:
        ids = tuple(f"P{i}" for i in range(len(values)))
    return DecisionVector(source, values, tuple(ids))


class TestConsistency:
    def test_constant_vector_is_one(self):
        ids = [f"P{i}" for i in range(6)]
        nl = neighbor_list([[(i + 1) % 6, (i + 2) % 6] for i in range(6)], ids)
        for constant in (0, 1):
            result = consistency(decisions([constant] * 6, ids), nl)
            assert result.score == 1.0
            assert np.array_equal(result.per_profile_gap, np.zeros(6))

    def test_alternating_pairs_is_zero(self):
        # y=[1,0,1,0], k=1, neighbors 0<->1 and 2<->3: every gap is 1
        ids = ["a", "b", "c", "d"]
        nl = neighbor_list([[1], [0], [3], [2]], ids)
        result = consistency(decisions([1, 0, 1, 0], ids), nl)
        assert result.score == 0.0
        assert np.array_equal(result.per_profile_gap, np.ones(4))

    def test_three_ones_one_zero_half(self):
        # y=[1,1,1,0], k=3, everyone's neighbors are the other three:
        # gaps (1/3, 1/3, 1/3, 1), C = 1 - 2/4 = 0.5
        ids = ["a", "b", "c", "d"]
        rows = [[j for j in range(4) if j != i] for i in range(4)]
        result = consistency(decisions([1, 1, 1, 0], ids), neighbor_list(rows, ids))
        assert result.score == pytest.approx(0.5, abs=1e-12)
        assert result.per_profile_gap == pytest.approx([1 / 3, 1 / 3, 1 / 3, 1.0], abs=1e-12)

    def test_score_equals_one_minus_mean_gap(self):
        rng = np.random.default_rng(0)
        ids = [f"P{i}" for i in range(20)]
        rows = [[j for j in rng.permutation(20)[:4] if j != i][:3] for i in range(20)]
        rows = [r if len(r) == 3 else r + [(i + 1) % 20] for i, r in enumerate(rows)]
        result = consistency(decisions(rng.integers(0, 2, 20), ids), neighbor_list(rows, ids))
        assert abs(result.score - (1.0 - result.per_profile_gap.mean())) < 1e-12

    def test_misaligned_ids_rejected(self):
        nl = neighbor_list([[1], [0]], ["a", "b"])
        with pytest.raises(AlignmentError):
            consistency(decisions([1, 0], ["x", "y"]), nl)

    def test_k_guard(self):
        nl = neighbor_list([[1], [0]], ["a", "b"])
        with pytest.raises(AlignmentError):
            consistency(decisions([1, 0], ["a", "b"]), nl, k=5)

    def test_empty_rejected(self):
        nl = neighbor_list(np.zeros((0, 1)), [])
        with pytest.raises(SizeError):
            consistency(decisions([], []), nl)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 40), k=st.integers(1, 11), seed=st.integers(0, 2**31 - 1))
    def test_bounds_and_flip_symmetry(self, n, k, seed):
        rng = np.random.default_rng(seed)
        k = min(k, n - 1)
        ids = [f"P{i}" for i in range(n)]
        rows = np.empty((n, k), dtype=np.int64)
        for i in range(n):
            others = np.delete(np.arange(n), i)
            rows[i] = rng.choice(others, k, replace=False)
        nl = neighbor_list(rows, ids, k=k)
        values = rng.integers(0, 2, n)
        result = consistency(decisions(values, ids), nl)
        flipped = consistency(decisions(1 - values, ids), nl)
        assert 0.0 <= result.score <= 1.0
        assert np.all((result.per_profile_gap >= 0) & (result.per_profile_gap <= 1))
        assert abs(result.score - flipped.score) <= 1e-15

    def test_flipping_every_decision_can_move_c_by_one_rounding(self):
        # fl(1/3) != 1 - fl(2/3): a gap of 1/3 and its flipped gap round apart
        ids = [f"P{i}" for i in range(5)]
        nl = neighbor_list([[j for j in range(5) if j != i][:3] for i in range(5)], ids)
        values = np.array([1, 0, 0, 0, 0])
        result = consistency(decisions(values, ids), nl)
        flipped = consistency(decisions(1 - values, ids), nl)
        assert result.score != flipped.score
        assert abs(result.score - flipped.score) <= 1e-15


class TestConsistencyGap:
    def _result(self, score, k=5, n=100):
        return ConsistencyResult(score, k, n, np.zeros(n))

    def test_identical_zero(self):
        a = self._result(0.75)
        assert consistency_gap(a, a) == 0.0

    def test_published_ar_gap(self):
        # 0.8073 - 0.5632 = 0.2441 -> 24.41 points
        assert consistency_gap(self._result(0.8073), self._result(0.5632)) == pytest.approx(
            24.41, abs=1e-9
        )

    def test_published_of_gap(self):
        # 0.7797 - 0.6023 = 0.1774 -> 17.74 points
        assert consistency_gap(self._result(0.7797), self._result(0.6023)) == pytest.approx(
            17.74, abs=1e-9
        )

    def test_mismatched_k_rejected(self):
        with pytest.raises(AlignmentError):
            consistency_gap(self._result(0.5, k=5), self._result(0.5, k=3))

    def test_mismatched_n_rejected(self):
        with pytest.raises(AlignmentError, match="over n=100 vs n=90 profiles"):
            consistency_gap(self._result(0.5), self._result(0.5, n=90))


def naive_metrics(predicted, truth, averaging):
    """Counting oracle: every quantity from first principles."""
    tp = sum(1 for p, t in zip(predicted, truth) if p == 1 and t == 1)
    fp = sum(1 for p, t in zip(predicted, truth) if p == 1 and t == 0)
    fn = sum(1 for p, t in zip(predicted, truth) if p == 0 and t == 1)
    tn = sum(1 for p, t in zip(predicted, truth) if p == 0 and t == 0)
    n = len(truth)

    def prf(tp_, fp_, fn_):
        precision = tp_ / (tp_ + fp_) if tp_ + fp_ else 0.0
        recall = tp_ / (tp_ + fn_) if tp_ + fn_ else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        return precision, recall, f1

    pos = prf(tp, fp, fn)
    neg = prf(tn, fn, fp)
    if averaging == "binary":
        p, r, f = pos
    elif averaging == "macro":
        p, r, f = ((x + y) / 2 for x, y in zip(pos, neg))
    else:
        s1, s0 = tp + fn, tn + fp
        p, r, f = ((s1 * x + s0 * y) / n for x, y in zip(pos, neg))
    return p, r, f, (tp + tn) / n, (tp, fp, fn, tn)


class TestClassificationMetrics:
    def test_perfect_prediction_all_modes(self):
        truth = decisions([1, 0, 1, 1, 0], source="truth")
        for mode in ("binary", "macro", "weighted"):
            m = classification_metrics(truth, truth, mode)
            assert (m.precision, m.recall, m.f1, m.accuracy) == (1.0, 1.0, 1.0, 1.0)

    def test_hand_confusion_all_half(self):
        # truth=[1,1,0,0], predicted=[1,0,1,0]: tp=fp=fn=tn=1
        truth = decisions([1, 1, 0, 0], source="truth")
        predicted = decisions([1, 0, 1, 0], source="pred")
        m = classification_metrics(predicted, truth, "binary")
        assert m.confusion == (1, 1, 1, 1)
        assert (m.precision, m.recall, m.f1, m.accuracy) == (0.5, 0.5, 0.5, 0.5)

    def test_hand_weighted_example(self):
        # truth=[1,0,0,0], predicted=[1,1,0,0]
        # class 1: P=1/2, R=1; class 0: P=1, R=2/3; supports 1 and 3
        # weighted P=(1*0.5+3*1.0)/4=0.875, R=(1*1+3*(2/3))/4=0.75, A=3/4
        truth = decisions([1, 0, 0, 0], source="truth")
        predicted = decisions([1, 1, 0, 0], source="pred")
        m = classification_metrics(predicted, truth, "weighted")
        assert m.precision == pytest.approx(0.875, abs=1e-12)
        assert m.recall == pytest.approx(0.75, abs=1e-12)
        assert m.accuracy == pytest.approx(0.75, abs=1e-12)
        f1_pos = 2 * 0.5 * 1.0 / 1.5
        f1_neg = 2 * 1.0 * (2 / 3) / (1.0 + 2 / 3)
        assert m.f1 == pytest.approx((1 * f1_pos + 3 * f1_neg) / 4, abs=1e-12)

    def test_zero_denominator_f1_is_zero(self):
        truth = decisions([1, 1], source="truth")
        predicted = decisions([0, 0], source="pred")
        m = classification_metrics(predicted, truth, "binary")
        assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)
        assert m.accuracy == 0.0

    def test_misaligned_rejected(self):
        truth = decisions([1, 0], ["a", "b"], source="truth")
        predicted = decisions([1, 0], ["b", "a"], source="pred")
        with pytest.raises(AlignmentError):
            classification_metrics(predicted, truth)

    def test_oracle_equivalence_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            truth_values = rng.integers(0, 2, n)
            predicted_values = rng.integers(0, 2, n)
            truth = decisions(truth_values, source="truth")
            predicted = decisions(predicted_values, source="pred")
            for mode in ("binary", "macro", "weighted"):
                m = classification_metrics(predicted, truth, mode)
                p, r, f, a, confusion = naive_metrics(predicted_values, truth_values, mode)
                assert abs(m.precision - p) < 1e-12
                assert abs(m.recall - r) < 1e-12
                assert abs(m.f1 - f) < 1e-12
                assert abs(m.accuracy - a) < 1e-12
                assert m.confusion == confusion

    def test_accuracy_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            truth = decisions(rng.integers(0, 2, n), source="truth")
            predicted = decisions(rng.integers(0, 2, n), source="pred")
            m = classification_metrics(predicted, truth)
            tp, fp, fn, tn = m.confusion
            assert m.accuracy == (tp + tn) / (tp + fp + fn + tn)
