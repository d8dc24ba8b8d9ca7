"""The blocked split search of ``train_stumps`` against the dense one it replaced.

``dense_train_stumps`` below is the former trainer, kept verbatim as the
oracle: it sorts every feature column, takes prefix sums down axis 0 and
scores all N-1 positions of every feature each round. The blocked trainer
must produce the same stumps, losses and base score to the last bit.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairaudit.classifiers import TrainConfig, stumps, train_stumps
from fairaudit.classifiers.stumps import (
    _CLAMP,
    BoostedStumps,
    Stump,
    TrainingError,
    _logistic_loss,
    _sigmoid,
)


def dense_train_stumps(x: np.ndarray, y: np.ndarray, config) -> BoostedStumps:
    """Fit ``config.rounds`` stumps greedily to logistic-loss residuals."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError(f"x {x.shape} and y {y.shape} are not aligned")
    n, n_features = x.shape
    if n < 2:
        raise TrainingError(f"need at least 2 training rows, got {n}")
    positives = float(y.sum())
    if positives == 0.0 or positives == n:
        raise TrainingError(
            "training labels contain a single class; no stumps can be fit, "
            "use the base score (class prior log-odds) alone"
        )
    lam = config.reg_lambda
    lr = config.learning_rate
    p0 = min(max(positives / n, _CLAMP), 1.0 - _CLAMP)
    base = float(np.log(p0 / (1.0 - p0)))

    order = np.argsort(x, axis=0, kind="stable")
    x_sorted = np.take_along_axis(x, order, axis=0)
    valid = x_sorted[:-1] < x_sorted[1:]

    margin = np.full(n, base)
    stumps: list[Stump] = []
    losses: list[float] = []
    for _ in range(config.rounds):
        p = _sigmoid(margin)
        g = p - y
        h = p * (1.0 - p)
        g_cum = np.cumsum(g[order], axis=0)
        h_cum = np.cumsum(h[order], axis=0)
        g_total = g_cum[-1]
        h_total = h_cum[-1]
        g_left = g_cum[:-1]
        h_left = h_cum[:-1]
        gain = g_left**2 / (h_left + lam) + (g_total - g_left) ** 2 / (h_total - h_left + lam)
        gain = np.where(valid, gain, -np.inf)
        flat = int(np.argmax(gain))
        if not np.isfinite(gain.flat[flat]):
            break  # every feature is constant; nothing left to split
        pos, feat = divmod(flat, n_features)
        threshold = (x_sorted[pos, feat] + x_sorted[pos + 1, feat]) / 2.0
        left = -lr * g_left[pos, feat] / (h_left[pos, feat] + lam)
        right = -lr * (g_total[feat] - g_left[pos, feat]) / (
            h_total[feat] - h_left[pos, feat] + lam
        )
        stumps.append(Stump(int(feat), float(threshold), float(left), float(right)))
        margin = margin + np.where(x[:, feat] < threshold, left, right)
        losses.append(_logistic_loss(margin, y))
    return BoostedStumps(stumps, lr, base, losses)


def assert_same_model(x, y, config):
    new = train_stumps(x, y, config)
    old = dense_train_stumps(x, y, config)
    assert new.stumps == old.stumps
    assert new.train_loss == old.train_loss
    assert new.base_score == old.base_score
    return new


@st.composite
def tie_heavy_problems(draw):
    """Small integer-valued columns, with constant and all-zero columns mixed in."""
    n = draw(st.integers(2, 24))
    d = draw(st.integers(1, 8))
    columns = []
    for _ in range(d):
        kind = draw(st.sampled_from(["ints", "ints", "ints", "constant", "zero"]))
        if kind == "ints":
            columns.append(draw(st.lists(st.integers(-2, 3), min_size=n, max_size=n)))
        elif kind == "constant":
            columns.append([draw(st.integers(-2, 3))] * n)
        else:
            columns.append([0] * n)
    y = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(lambda v: 0 < sum(v) < n))
    return np.array(columns, dtype=np.float64).T, np.array(y)


@settings(max_examples=300, deadline=None)
@given(
    problem=tie_heavy_problems(),
    block_elems=st.integers(1, 200),
    reg_lambda=st.sampled_from([0.0, 1.0]),
    learning_rate=st.sampled_from([0.1, 0.3, 1.0, 4.0]),
    rounds=st.integers(1, 15),
)
def test_blocked_search_matches_dense_search(problem, block_elems, reg_lambda, learning_rate, rounds):
    x, y = problem
    config = TrainConfig(rounds=rounds, learning_rate=learning_rate, reg_lambda=reg_lambda)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stumps, "_BLOCK_ELEMS", block_elems)
        assert_same_model(x, y, config)


def test_sparse_matrix_at_default_budget():
    rng = np.random.default_rng(7)
    x = rng.integers(1, 6, size=(300, 400)) * (rng.random((300, 400)) < 0.15) / 5.0
    y = (x[:, :40].sum(axis=1) + rng.normal(0.0, 0.3, 300) > 1.2).astype(np.int64)
    model = assert_same_model(x, y, TrainConfig(rounds=40, learning_rate=0.3))
    assert model.rounds == 40


def test_saturated_probabilities_without_regularization_stop_silently():
    # separable rows drive p to 0 or 1 and h to 0, so with reg_lambda=0 a gain
    # divides 0 by 0; boosting stops there, and the library prints no warning
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 0, 1, 1])
    config = TrainConfig(rounds=60, learning_rate=1.0, reg_lambda=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = train_stumps(x, y, config)
    with np.errstate(divide="ignore", invalid="ignore"):
        oracle = dense_train_stumps(x, y, config)
    assert model.stumps == oracle.stumps
    assert model.train_loss == oracle.train_loss
    assert model.rounds < 60


def test_search_memory_stays_near_the_input_size():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2000, 512))
    y = (x[:, 0] + x[:, 1] > 0).astype(np.int64)
    tracemalloc.start()
    try:
        model = train_stumps(x, y, TrainConfig(rounds=3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.rounds == 3
    assert peak < 2.5 * x.nbytes, f"peak {peak / x.nbytes:.2f}x the input"
