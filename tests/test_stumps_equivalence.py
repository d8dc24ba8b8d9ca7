"""The sparsity-aware split search of ``train_stumps`` against dense ones.

``dense_train_stumps`` below is the former trainer, kept verbatim as the
oracle but for the threshold rule: it sorts every feature column, takes
prefix sums down axis 0 and scores all N-1 positions of every feature each
round. On inputs without zero entries the trainer must produce the same
stumps, losses and base score to the last bit. ``lump_train_stumps`` is a
copy of it that sums each feature's zero entries as one lump, ``g.sum()``
minus the nonzero sum, added to the prefix sums from the zero run on, as
the trainer does; it must match that copy to the last bit on any input.
Both take the rule that picks the candidate splits from the sorted columns:
every real split point (``exact_splits``), or at most 255 per feature
(``quantile_splits``, the trainer's rule written one column at a time).
"""

import os
import subprocess
import sys
import tracemalloc
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairaudit.classifiers import TrainConfig, save_model, stumps, train_stumps
from fairaudit.classifiers.stumps import (
    _CLAMP,
    BoostedStumps,
    Stump,
    TrainingError,
    _logistic_loss,
    _sigmoid,
)


def exact_splits(x_sorted: np.ndarray) -> np.ndarray:
    """Every real split point of each sorted column."""
    return x_sorted[:-1] < x_sorted[1:]


def quantile_splits(x_sorted: np.ndarray) -> np.ndarray:
    """``exact_splits`` of each column with more than 255 of them thinned, one
    column at a time, to those nearest its quantiles j * n / 256, j = 1..255,
    where a split's rank is the number of rows at or before it and a tie goes
    to the lower split."""
    valid = exact_splits(x_sorted)
    n = x_sorted.shape[0]
    for feature in range(valid.shape[1]):
        at = np.flatnonzero(valid[:, feature])
        if at.size > 255:
            nearest = [at[np.argmin(np.abs(256 * (at + 1) - j * n))] for j in range(1, 256)]
            valid[:, feature] = False
            valid[nearest, feature] = True
    return valid


def dense_train_stumps(
    x: np.ndarray, y: np.ndarray, config, splits=exact_splits
) -> BoostedStumps:
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
    valid = splits(x_sorted)

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
        if not x_sorted[pos, feat] < threshold <= x_sorted[pos + 1, feat]:
            threshold = x_sorted[pos + 1, feat]
        left = -lr * g_left[pos, feat] / (h_left[pos, feat] + lam)
        right = -lr * (g_total[feat] - g_left[pos, feat]) / (
            h_total[feat] - h_left[pos, feat] + lam
        )
        stumps.append(Stump(int(feat), float(threshold), float(left), float(right)))
        margin = margin + np.where(x[:, feat] < threshold, left, right)
        losses.append(_logistic_loss(margin, y))
    return BoostedStumps(stumps, lr, base, losses)


def lump_train_stumps(
    x: np.ndarray, y: np.ndarray, config, splits=exact_splits
) -> BoostedStumps:
    """``dense_train_stumps`` with each feature's zero entries summed as one lump."""
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
    valid = splits(x_sorted)
    nonzero = x_sorted != 0
    from_zero_run = np.cumsum(~nonzero, axis=0) > 0

    margin = np.full(n, base)
    stumps: list[Stump] = []
    losses: list[float] = []
    for _ in range(config.rounds):
        p = _sigmoid(margin)
        g = p - y
        h = p * (1.0 - p)
        g_cum = np.cumsum(np.where(nonzero, g[order], 0.0), axis=0)
        h_cum = np.cumsum(np.where(nonzero, h[order], 0.0), axis=0)
        g_cum = g_cum + np.where(from_zero_run, g.sum() - g_cum[-1], 0.0)
        h_cum = h_cum + np.where(from_zero_run, h.sum() - h_cum[-1], 0.0)
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
        if not x_sorted[pos, feat] < threshold <= x_sorted[pos + 1, feat]:
            threshold = x_sorted[pos + 1, feat]
        left = -lr * g_left[pos, feat] / (h_left[pos, feat] + lam)
        right = -lr * (g_total[feat] - g_left[pos, feat]) / (
            h_total[feat] - h_left[pos, feat] + lam
        )
        stumps.append(Stump(int(feat), float(threshold), float(left), float(right)))
        margin = margin + np.where(x[:, feat] < threshold, left, right)
        losses.append(_logistic_loss(margin, y))
    return BoostedStumps(stumps, lr, base, losses)


def assert_same_model(x, y, config, oracle=lump_train_stumps):
    new = train_stumps(x, y, config)
    old = oracle(x, y, config)
    assert new.stumps == old.stumps
    assert new.train_loss == old.train_loss
    assert new.base_score == old.base_score
    return new


@st.composite
def tie_heavy_problems(draw, values=st.integers(-2, 3)):
    """Small integer-valued columns, with constant and all-zero columns mixed in."""
    n = draw(st.integers(2, 24))
    d = draw(st.integers(1, 8))
    columns = []
    for _ in range(d):
        kind = draw(st.sampled_from(["ints", "ints", "ints", "constant", "zero"]))
        if kind == "ints":
            columns.append(draw(st.lists(values, min_size=n, max_size=n)))
        elif kind == "constant":
            columns.append([draw(values)] * n)
        else:
            columns.append([0] * n)
    y = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(lambda v: 0 < sum(v) < n))
    return np.array(columns, dtype=np.float64).T, np.array(y)


tie_heavy_knobs = dict(
    block_elems=st.integers(1, 200),
    reg_lambda=st.sampled_from([0.0, 1.0]),
    learning_rate=st.sampled_from([0.1, 0.3, 1.0, 4.0]),
    rounds=st.integers(1, 15),
)


def assert_same_model_at_budget(x, y, block_elems, reg_lambda, learning_rate, rounds, oracle):
    config = TrainConfig(rounds=rounds, learning_rate=learning_rate, reg_lambda=reg_lambda)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stumps, "_BLOCK_ELEMS", block_elems)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            assert_same_model(x, y, config, oracle)


@settings(max_examples=300, deadline=None)
@given(problem=tie_heavy_problems(), **tie_heavy_knobs)
def test_blocked_search_matches_dense_search(problem, **knobs):
    assert_same_model_at_budget(*problem, **knobs, oracle=lump_train_stumps)


@settings(max_examples=100, deadline=None)
@given(problem=tie_heavy_problems(st.sampled_from([-2, -1, 1, 2, 3])), **tie_heavy_knobs)
def test_zero_free_search_matches_the_verbatim_dense_search(problem, **knobs):
    x, y = problem
    x[x == 0] = 1.0  # the strategy's all-zero columns become constant ones
    assert_same_model_at_budget(x, y, **knobs, oracle=dense_train_stumps)


def test_sparse_matrix_at_default_budget():
    rng = np.random.default_rng(7)
    x = rng.integers(1, 6, size=(300, 400)) * (rng.random((300, 400)) < 0.15) / 5.0
    y = (x[:, :40].sum(axis=1) + rng.normal(0.0, 0.3, 300) > 1.2).astype(np.int64)
    model = assert_same_model(x, y, TrainConfig(rounds=40, learning_rate=0.3))
    assert model.rounds == 40


@pytest.mark.parametrize("x, y, config", [
    # separable rows drive p to 0 or 1 and h to 0, so with reg_lambda=0 a gain
    # divides 0 by 0
    ([[0.0], [1.0], [2.0], [3.0]], [0, 0, 1, 1],
     TrainConfig(rounds=60, learning_rate=1.0, reg_lambda=0.0)),
    # a large step leaves h so small that a gain overflows to inf
    ([[-2, -1], [-2, -1], [-2, -1], [-1, -2], [-1, -1], [-2, -1], [-2, 1], [-2, -1], [-2, -1],
      [-2, 1]], [0, 0, 0, 1, 0, 1, 0, 1, 1, 0],
     TrainConfig(reg_lambda=0.0, learning_rate=4.0, rounds=4)),
])
def test_saturated_probabilities_without_regularization_stop_silently(x, y, config):
    # boosting stops at the NaN or infinite gain, and the library prints no warning
    x, y = np.array(x, dtype=np.float64), np.array(y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = train_stumps(x, y, config)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        oracle = lump_train_stumps(x, y, config)
    assert model.stumps == oracle.stumps
    assert model.train_loss == oracle.train_loss
    assert model.rounds < config.rounds


ONE32 = np.float32(1.0)


@pytest.mark.parametrize(
    "low, high",
    [(1.0, np.nextafter(1.0, 2.0)), (1e308, 1.7e308), (-np.nextafter(1.0, 2.0), -1.0),
     # adjacent float32 values whose float64 midpoint rounds, as float32, onto the
     # low one (ties to even): compared in float32, the low rows would not be below it
     (ONE32, np.nextafter(ONE32, np.float32(2.0))),
     (-(ONE32 + np.float32(2.0**-22)), -(ONE32 + np.float32(2.0**-23)))],
)
def test_threshold_splits_rows_as_the_search_did(low, high, tmp_path):
    # the midpoint of adjacent floats rounds onto one of them, and near the
    # float maximum it overflows; either way the threshold must keep the
    # low rows below it and the high rows at or above it
    x = np.array([[low], [low], [high], [high]])
    y = np.array([0, 0, 1, 1])
    config = TrainConfig(rounds=3, learning_rate=0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = train_stumps(x, y, config)
    assert model.rounds == 3
    assert all(float(low) < s.threshold <= float(high) for s in model.stumps)
    assert np.array_equal(model.predict(x), y)
    assert all(b < a for a, b in zip(model.train_loss, model.train_loss[1:]))
    with np.errstate(over="ignore"):
        assert_same_model(x, y, config, dense_train_stumps)
    if x.dtype == np.float32:  # the float32 rows train the model of their float64 values
        assert np.float32(model.stumps[0].threshold) == low  # the hazard is there
        save_model(model, tmp_path / "f32.json")
        save_model(train_stumps(x.astype(np.float64), y, config), tmp_path / "f64.json")
        assert (tmp_path / "f32.json").read_bytes() == (tmp_path / "f64.json").read_bytes()


def test_float32_rows_are_read_without_a_float64_copy():
    # a float64 copy of x would take 2 * x.nbytes; the search's own state follows
    # the nonzero entries, about a quarter of x.nbytes here
    rng = np.random.default_rng(5)
    x = rng.integers(1, 6, size=(2000, 2000)) * (rng.random((2000, 2000)) < 0.05) / 5.0
    x = x.astype(np.float32)
    y = (x[:, :20].sum(axis=1) > 0.3).astype(np.int64)
    tracemalloc.start()
    try:
        model = train_stumps(x, y, TrainConfig(rounds=3))
        _, train_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        margin = model.predict_margin(x)
        _, predict_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.rounds == 3
    assert train_peak < x.nbytes, f"train peak {train_peak / x.nbytes:.2f}x the input"
    assert predict_peak < x.nbytes / 10, f"predict peak {predict_peak / x.nbytes:.2f}x"
    wide = x.astype(np.float64)
    assert train_stumps(wide, y, TrainConfig(rounds=3)).stumps == model.stumps
    assert np.array_equal(model.predict_margin(wide), margin)


def presorted_features(x):
    """Per feature: its kept rows in order (a zero slot reads N) and its zero slot."""
    n = x.shape[0]
    kept = {}
    for features, order, split_at, counts, zero_col, zero_skip in stumps._feature_blocks(x):
        for i, feature in enumerate(features):
            row = order[i]
            slots = np.flatnonzero(row < n)
            if zero_col[i] < row.size:
                slots = np.union1d(slots, [zero_col[i]])
            kept[int(feature)] = (row[slots[0] : slots[-1] + 1], zero_col[i])
    return kept


@st.composite
def presort_columns(draw):
    """Tie-heavy columns: duplicates, -0.0, NaN, all-zero, all-nonzero and constant."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 10))
    values = st.sampled_from([-1.5, -1.0, -0.0, 0.0, 0.0, 0.5, 0.5, 2.0, np.inf, np.nan])
    nonzero = st.sampled_from([-1.5, -1.0, 0.5, 2.0, 2.0])
    columns = []
    for _ in range(d):
        kind = draw(st.sampled_from(["mixed", "mixed", "nonzero", "constant", "zero"]))
        if kind == "mixed":
            columns.append(draw(st.lists(values, min_size=n, max_size=n)))
        elif kind == "nonzero":
            columns.append(draw(st.lists(nonzero, min_size=n, max_size=n)))
        elif kind == "constant":
            columns.append([draw(values)] * n)
        else:
            columns.append([draw(st.sampled_from([0.0, -0.0]))] * n)
    return np.array(columns, dtype=np.float64).T


@settings(max_examples=300, deadline=None)
@given(x=presort_columns(), block_elems=st.integers(1, 200))
def test_presort_keeps_the_stable_order_of_the_nonzero_rows(x, block_elems):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stumps, "_BLOCK_ELEMS", block_elems)
        kept = presorted_features(x)
    n = x.shape[0]
    for feature in range(x.shape[1]):
        column = x[:, feature]
        stable = np.argsort(column, kind="stable")
        nonzero = stable[column[stable] != 0]
        if nonzero.size + (nonzero.size < n) < 2:
            assert feature not in kept  # one row, or all zeros: never a split
            continue
        rows, zero_slot = kept[feature]
        assert np.array_equal(rows[rows < n], nonzero)
        negatives = np.count_nonzero(column < 0)
        if nonzero.size < n:
            assert zero_slot == negatives and rows[zero_slot] == n
        else:
            assert zero_slot == rows.size


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


def test_dense_float32_search_keeps_one_int32_slot_per_entry():
    # intp slot orders alone would take 2 * x.nbytes; int32 ones take x.nbytes
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2000, 512), dtype=np.float32)
    y = (x[:, 0] + x[:, 1] > 0).astype(np.int64)
    tracemalloc.start()
    try:
        model = train_stumps(x, y, TrainConfig(rounds=3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.rounds == 3
    assert peak < 1.6 * x.nbytes, f"peak {peak / x.nbytes:.2f}x the input"


# Two fits of a dense float32 matrix in one fresh process, printing ru_maxrss (KiB on
# Linux) after each. At 4800 x 3840 (cli-ingest's train rows) an N x D bool mask is
# 17.6 MiB: glibc maps the first one and frees it back, which raises its mmap threshold
# above that size, so from the second fit on it comes from the heap and its pages stay.
TWO_FITS_CHILD = """
import resource
import numpy as np
from fairaudit.classifiers import TrainConfig, train_stumps
x = np.random.default_rng(0).standard_normal((4800, 3840), dtype=np.float32)
y = (x[:, 0] > 0).astype(np.int64)
for _ in range(2):
    train_stumps(x, y, TrainConfig(rounds=1))
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


def test_a_second_dense_fit_keeps_the_peak_of_the_first():
    # setup counts nonzeros a tile of rows at a time; a whole-matrix count grew the
    # peak by 16.6 MiB on the second fit
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", TWO_FITS_CHILD], env=env, check=True,
                          capture_output=True, text=True)
    first, second = map(float, done.stdout.split())
    assert second - first < 3.0, f"peak {first:.1f} MiB after one fit, {second:.1f} after two"


def sparse_rows(seed, n, width):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, width)) * (rng.random((n, width)) < 0.5)


# the zero slot's row index is N, so int16 holds N up to 32,767 rows
@pytest.mark.parametrize("n, width, dtype", [
    (300, 40, np.int16), (32_767, 2, np.int16), (32_768, 2, np.int32),
])
def test_every_block_order_is_a_view_of_one_store_of_the_narrowest_int(n, width, dtype):
    x = sparse_rows(4, n, width)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stumps, "_BLOCK_ELEMS", 1000)
        blocks = stumps._feature_blocks(x)
    orders = [block[1] for block in blocks]
    assert len(orders) > 1
    assert all(order.dtype == dtype for order in orders)
    store = orders[0].base
    assert store is not None and all(order.base is store for order in orders)
    assert store.size == sum(order.size for order in orders)
    assert max(int(order.max()) for order in orders) == n  # the zero slot


@pytest.mark.parametrize("n", [32_767, 32_768])
def test_sparse_fit_at_the_edge_of_the_int16_store(n):
    x = sparse_rows(6, n, 2)
    y = (x[:, 0] + 0.5 * x[:, 1] > 0.2).astype(np.int64)
    config = TrainConfig(rounds=4, learning_rate=0.3)
    assert assert_same_model(x, y, config, binned_train_stumps).rounds == 4


def test_search_memory_of_a_sparse_matrix_follows_its_nonzeros():
    # the per-entry state (a row index and a split index) covers the nonzero
    # entries only; 16 bytes an entry would be a complex prefix sum of each
    rng = np.random.default_rng(5)
    x = rng.integers(1, 6, size=(2000, 4000)) * (rng.random((2000, 4000)) < 0.1) / 5.0
    y = (x[:, :20].sum(axis=1) > 0.6).astype(np.int64)
    nonzeros = np.count_nonzero(x)
    tracemalloc.start()
    try:
        model = train_stumps(x, y, TrainConfig(rounds=3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.rounds == 3
    assert peak < 2.5 * 16 * nonzeros, f"peak {peak / (16 * nonzeros):.2f}x 16 bytes a nonzero"


binned_train_stumps = partial(lump_train_stumps, splits=quantile_splits)


@st.composite
def wide_problems(draw):
    """Up to 600 rows, so that columns with many distinct values exceed 255 split
    points: rounded normals (ties), zero runs, negatives, few-valued, constant
    and all-zero columns."""
    n = draw(st.one_of(st.integers(2, 600), st.just(384)))  # 384 / 256 = 1.5: tied quantiles
    d = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in range(d):
        kind = draw(st.sampled_from(["many", "many", "many", "few", "constant", "zero"]))
        if kind == "many":
            column = np.round(rng.standard_normal(n) * draw(st.sampled_from([30, 300, 1e6])))
            column[rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.6]))] = 0.0
        elif kind == "few":
            column = rng.integers(-2, 4, n).astype(np.float64)
        else:
            column = np.full(n, float(kind == "constant") * 1.5)
        columns.append(column)
    y = rng.integers(0, 2, n)
    y[:2] = [0, 1]
    return np.array(columns).T, y


@settings(max_examples=120, deadline=None)
@given(problem=wide_problems(), **tie_heavy_knobs)
def test_binned_search_matches_the_dense_search_on_the_same_candidates(problem, **knobs):
    assert_same_model_at_budget(*problem, **knobs, oracle=binned_train_stumps)


def offered_splits(x):
    """Per feature: its candidate splits, as (value below, value above) pairs."""
    n = x.shape[0]
    offered = {}
    for features, order, split_at, _, _, _ in stumps._feature_blocks(x):
        f, c = np.divmod(split_at.astype(np.int64), order.shape[1])
        for i, feature in enumerate(features):
            rows = order[i, np.stack([c[f == i], c[f == i] + 1])]
            values = np.where(rows < n, x[np.minimum(rows, n - 1), feature], 0.0)
            offered[int(feature)] = sorted(zip(*values.tolist()))
    return offered


def wide_matrix(seed):
    """1920 rows, so that the quantiles j * 1920 / 256 of odd j lie midway
    between two ranks."""
    rng = np.random.default_rng(seed)
    n = 1920
    x = rng.standard_normal((n, 6))
    x[:, 1] = np.round(x[:, 1] * 40)  # about 250 distinct values, some of them zero
    x[rng.random(n) < 0.5, 2] = 0.0
    x[:, 3] = np.round(x[:, 3] * 50)
    y = (x[:, 0] + x[:, 2] + rng.normal(0.0, 1.0, n) > 0).astype(np.int64)
    return x, y


def test_no_feature_offers_more_than_255_splits():
    x, _ = wide_matrix(11)
    offered = offered_splits(x)
    assert set(offered) == set(range(x.shape[1]))
    for feature, splits in offered.items():
        column = np.sort(x[:, feature])
        real = column[:-1] < column[1:]
        kept = quantile_splits(column[:, None])[:, 0]
        assert len(splits) <= 255
        assert splits == list(zip(column[:-1][kept].tolist(), column[1:][kept].tolist()))
        if np.count_nonzero(real) <= 255:
            assert np.array_equal(kept, real)
    # a quantile in a run of equal values shares a split with its neighbors
    assert [len(offered[f]) for f in (0, 2)] == [255, 130]  # 2 is half zeros


def test_candidates_do_not_depend_on_the_block_budget_or_the_row_order():
    x, y = wide_matrix(12)
    config = TrainConfig(rounds=12, learning_rate=0.3)
    want_offered, want_model = offered_splits(x), train_stumps(x, y, config)
    shuffled = np.random.default_rng(0).permutation(x.shape[0])
    assert offered_splits(x[shuffled]) == want_offered
    for block_elems in (1, 1000, 1 << 20):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(stumps, "_BLOCK_ELEMS", block_elems)
            assert offered_splits(x) == want_offered
            model = train_stumps(x, y, config)
        assert model.stumps == want_model.stumps
        assert model.train_loss == want_model.train_loss


def test_at_most_255_distinct_values_train_as_the_exact_search():
    rng = np.random.default_rng(13)
    levels = (np.arange(255) - 127.5) / 40.0  # none of them zero
    x = levels[rng.integers(0, 255, size=(2000, 5))]
    y = (x[:, 0] - x[:, 3] + rng.normal(0.0, 1.0, 2000) > 0).astype(np.int64)
    config = TrainConfig(rounds=20, learning_rate=0.3)
    assert_same_model(x, y, config, dense_train_stumps)
    x[x < -1.0] = 0.0  # zero runs too: still at most 255 distinct values
    assert_same_model(x, y, config, lump_train_stumps)
