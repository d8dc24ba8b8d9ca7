"""Gradient-boosted decision stumps for binary classification.

Each round fits the single depth-1 split that minimizes logistic loss on the
current predictions, using second-order (Newton) leaf scores

    w = -sum(g) / (sum(h) + lambda),   g = p - y,   h = p (1 - p)

scaled by the learning rate. The candidate thresholds are midpoints between
consecutive distinct sorted feature values (the upper value where the
midpoint rounds onto either of them or overflows), at most ``_MAX_SPLITS``
(255) per feature, as in the histogram methods of XGBoost (Chen and
Guestrin, KDD 2016) and LightGBM (Ke et al., NeurIPS 2017). A feature with
more real split points keeps those nearest its 255 equal-count quantiles:
for j = 1..255, the split with the number of rows at or below it nearest
j * N / 256, the lower one on a tie, where the zero run counts all its rows.
The choice is made once at setup from the feature's sorted values alone, so
the row order and the block layout do not change it, and a feature with at
most 256 distinct values keeps every split point. Over the candidates the
search is exact: the best (position, feature) pair wins with ties going to
the earliest candidate in scan order, the smallest ``pos * D + feature``.
Training is a pure function of the data and configuration.

The search is sparsity-aware, as XGBoost's is for missing values, and
visits only the nonzero entries. Setup sorts each feature once, with the
default (unstable) sort followed by putting the rows of each run of equal
nonzero values back in ascending order, which gives the stable order without
a stable sort. It drops the zero entries and keeps, per feature, its nonzero
rows in that order with one slot standing for the whole zero run, and the
candidate split points among its real ones: the slots whose value is below
the next one's, two of them on either side of the zero run. Features go
into blocks of at most ``_BLOCK_ELEMS`` slots, longest first.

Each round gathers g and h (as the real and imaginary parts of one complex
vector) into slot order and takes their prefix sums along each feature's
row; the zero slot adds nothing. A split at or after the zero run then adds
the lump Z = sum(g + ih) - (the feature's nonzero sum) for the zero entries,
and the feature's total is its nonzero sum plus Z. Its scan position is the
slot index plus, at or after the zero run, the zero count less one. For a
feature without zeros the sums are sequential in sort order, as a dense
column-wise cumsum would be, so its stumps and losses are the same to the
last bit as a dense search's over the same candidates; with zeros only the
summation order of the zero entries differs, so leaf values can move in
their last bits while the candidate thresholds and the tie rule stay the
same. The slot orders cover the nonzero entries only and are kept for the
whole fit in one array of the narrowest signed integer type that holds N
(int16 up to 32,767 rows, 2 bytes an entry, half what float32 rows take;
then int32), which each block views; the split index is int32 (at most 255
entries a feature). Beyond them a round needs memory in proportion to one
block, O(max(_BLOCK_ELEMS, N)). Rounds gather through the narrow indices
with ``np.take(..., mode="clip")``, as fast as indexing with intp ones.

Setup holds the slot store, the split index and a few arrays of one entry a
feature, and beyond them scratch of one block or one tile of ``_TILE_ROWS``
rows: at most about 40 bytes a slot of one block (O(max(_BLOCK_ELEMS, N))
slots) while it sorts, and a bool a feature for each row of a tile while it
counts each feature's nonzeros. That is about 1.3 MiB at the default budget
and 3,840 features. It makes no temporary of N x D entries: under glibc's
malloc one, even a bool mask freed at once, comes from the heap from a
process's second fit on, and its pages stay there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._util import typed
from ..errors import AlignmentError, DimensionMismatchError, TrainingError

_CLAMP = 1e-12
# Slots (features x longest feature) per block of the split search. It bounds the
# scratch memory of a round: the block's complex prefix sums take 16 bytes a slot, 512 KB.
_BLOCK_ELEMS = 1 << 15
# Candidate split points per feature at most: 256 quantile bins, as XGBoost's `hist`.
_MAX_SPLITS = 255
# Rows of x read at a time, a cache-sized tile: to count nonzeros and to copy features out.
_TILE_ROWS = 256


@dataclass(frozen=True)
class Stump:
    """One depth-1 rule: rows with feature < threshold get the left score."""

    feature: int
    threshold: float
    left: float
    right: float


@dataclass
class BoostedStumps:
    """Additive ensemble of stumps in log-odds space.

    Leaf scores are stored post-shrinkage, so the margin of a row is
    ``base_score`` plus the sum of its leaf scores; the predicted label is 1
    when the squashed margin reaches 0.5.
    """

    stumps: list[Stump]
    learning_rate: float
    base_score: float
    train_loss: list[float] = field(default_factory=list, repr=False)

    family = "stumps"

    @property
    def rounds(self) -> int:
        return len(self.stumps)

    def to_dict(self) -> dict:
        return {
            "base_score": self.base_score,
            "learning_rate": self.learning_rate,
            "rounds": self.rounds,
            "stumps": [
                {"feature": s.feature, "threshold": s.threshold, "left": s.left, "right": s.right}
                for s in self.stumps
            ],
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "BoostedStumps":
        def numbers(o, *keys):
            return [float(typed(o, key, (int, float))) for key in keys]

        stumps = [Stump(typed(s, "feature", int), *numbers(s, "threshold", "left", "right"))
                  for s in typed(obj, "stumps", list)]
        if typed(obj, "rounds", int) != len(stumps) or any(s.feature < 0 for s in stumps):
            raise ValueError("stump list does not match its round count or has a negative feature")
        return cls(stumps, *numbers(obj, "learning_rate", "base_score"))

    def predict_margin(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim != 2:
            raise DimensionMismatchError(2, x.ndim, "feature matrix axis count")
        width = 1 + max((s.feature for s in self.stumps), default=-1)
        if x.shape[1] < width:
            raise DimensionMismatchError(f"at least {width}", x.shape[1], "feature count")
        margin = np.full(x.shape[0], self.base_score)
        for stump in self.stumps:
            below = x[:, stump.feature] < np.float64(stump.threshold)  # in float64, as fit
            margin += np.where(below, stump.left, stump.right)
        return margin

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return _sigmoid(self.predict_margin(x))

    def predict(self, x: np.ndarray) -> np.ndarray:
        return (self.predict_margin(x) >= 0.0).astype(np.int64)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _logistic_loss(margin: np.ndarray, y: np.ndarray) -> float:
    # -log p for y=1 and -log(1-p) for y=0, numerically stable
    return float(np.mean(np.logaddexp(0.0, margin) - y * margin))


def _stable_argsort(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable sort order of each row of ``cols``, and the sorted rows.

    The default (unstable) sort leaves equal values in any order, so the rows
    of each run of equal nonzero values are put back in ascending order
    afterwards; NaNs, sorted last, count as one run. Zero runs are left as
    they are: their entries are dropped.
    """
    order = np.argsort(cols, axis=1)
    x_sorted = np.take_along_axis(cols, order, axis=1)
    tie = np.zeros(cols.shape, dtype=bool)  # entry equals the one before it
    np.equal(x_sorted[:, 1:], x_sorted[:, :-1], out=tie[:, 1:])
    tie[:, 1:] |= np.isnan(x_sorted[:, :-1])
    tie &= x_sorted != 0
    tie = tie.reshape(-1)
    member = tie.copy()
    member[:-1] |= tie[1:]
    at = np.flatnonzero(member)
    if at.size:
        # runs are contiguous and numbered in position order, so sorting the
        # keys run * N + row puts each run's rows in ascending order in place
        flat = order.reshape(-1)
        run = np.cumsum(~tie[at]) * cols.shape[1]
        keys = run + flat[at]
        keys.sort()
        flat[at] = keys - run
    return order, x_sorted


def _feature_blocks(x: np.ndarray) -> list[tuple]:
    """The split search's blocks of features, as ``(features, order, split_at,
    counts, zero_col, zero_skip)``.

    Each feature keeps its nonzero rows in stable sort order, with one slot
    for its zero run (row index N, whose g and h are 0) where the zeros
    would sit. Features go into blocks longest first; a block's ``order`` is
    ``(w, L)``, padded with N, at most ``_BLOCK_ELEMS`` slots or one
    feature, and a view of one integer array that holds every block's (one
    allocation, sized from the layout, which goes back to the OS when the
    fit ends). ``split_at`` lists ``f * L + c`` for the candidate split points,
    the slots ``c`` whose value is below the next one's that
    ``_quantile_splits`` keeps, and ``counts`` how many of each feature's
    lie before and at or after its zero slot
    ``zero_col`` (L when it has no zeros). A slot ``c`` at or after it
    stands for the dense sort position ``c + zero_skip``.
    """
    n = x.shape[0]
    nonzeros = np.zeros(x.shape[1], np.intp)
    for r in range(0, n, _TILE_ROWS):  # by tiles: a whole-matrix count makes an N x D mask
        nonzeros += np.count_nonzero(x[r : r + _TILE_ROWS], axis=0)
    lengths = nonzeros + (nonzeros < n)
    features = np.argsort(-lengths, kind="stable")
    features = features[lengths[features] > 1]  # all-zero features never split
    layout = []  # (features, length) of each block
    i = 0
    while i < features.size:
        length = int(lengths[features[i]])
        width = max(1, _BLOCK_ELEMS // length)
        layout.append((features[i : i + width], length))
        i += width
    # row indices up to N, the zero slot's, in the narrowest signed type that holds N
    store = np.empty(sum(f.size * length for f, length in layout),
                     next(t for t in (np.int16, np.int32, np.intp) if n <= np.iinfo(t).max))
    blocks = []
    at = 0
    for block, length in layout:
        order = store[at : at + block.size * length].reshape(block.size, length)
        blocks.append(_feature_block(x, block, order, n - nonzeros[block]))
        at += order.size
    return blocks


def _feature_block(x: np.ndarray, features: np.ndarray, order: np.ndarray, zeros: np.ndarray):
    """One block of ``_feature_blocks``, its slot order written into ``order``,
    sorted ``_BLOCK_ELEMS`` entries of ``x`` at a time."""
    n = x.shape[0]
    width, length = order.shape
    step = max(1, _BLOCK_ELEMS // n)
    parts = [_sorted_part(x, features[s : s + step], order[s : s + step], zeros[s : s + step])
             for s in range(0, width, step)]
    values, zero_col = (np.concatenate(a) if len(a) > 1 else a[0] for a in zip(*parts))
    valid = np.zeros((width, length), dtype=bool)
    np.less(values[:, :-1], values[:, 1:], out=valid[:, :-1])
    split_at = _quantile_splits(np.flatnonzero(valid), length, zero_col, zeros - 1, n)
    # where each feature's splits start, reach its zero slot and end
    first = np.arange(width) * length
    start, zero, end = np.searchsorted(split_at, [first, first + zero_col, first + length])
    counts = np.stack([zero - start, end - zero], axis=1)
    return features, order, split_at.astype(np.int32), counts, zero_col, zeros - 1


def _sorted_part(x: np.ndarray, features: np.ndarray, order: np.ndarray, zeros: np.ndarray):
    """``(values, zero_col)`` of some features of a block, whose kept rows are
    written into ``order``: the kept rows of each and their values, padded to the
    block's length with N and NaN (which is never below the next slot), and the
    zero slot. Values are staged in float32 or wider, as ``x`` holds them exactly."""
    n = x.shape[0]
    length = order.shape[1]
    staged = np.result_type(x.dtype, np.float32)
    cols = np.empty((features.size, n), staged)
    for r in range(0, n, _TILE_ROWS):  # each tile of rows is transposed while in cache
        cols[:, r : r + _TILE_ROWS] = x[r : r + _TILE_ROWS, features].T
    sorted_rows, x_sorted = _stable_argsort(cols)
    zero_col = np.full(features.size, length)
    with_zeros = np.flatnonzero(zeros)
    if not with_zeros.size:  # every entry is kept where it is, and length is n
        order[:] = sorted_rows
        return x_sorted, zero_col
    keep = x_sorted != 0
    first_zero = np.count_nonzero(x_sorted[with_zeros] < 0, axis=1)
    keep[with_zeros, first_zero] = True
    sorted_rows[with_zeros, first_zero] = n
    x_sorted[with_zeros, first_zero] = 0.0
    zero_col[with_zeros] = first_zero
    filled = np.arange(length) < np.count_nonzero(keep, axis=1)[:, None]
    order.fill(n)
    values = np.full((features.size, length), np.nan, staged)
    order[filled] = sorted_rows[keep]
    values[filled] = x_sorted[keep]
    return values, zero_col


def _quantile_splits(split_at, length: int, zero_col, zero_skip, n: int) -> np.ndarray:
    """The entries of ``split_at`` (ascending ``f * length + c``) that stay: all of
    a feature with at most ``_MAX_SPLITS``, and of one with more those nearest its
    quantiles.

    A split's rank is the number of rows at or before it in the dense sort
    order, the zero run counting all its rows: slot ``c`` has rank ``c + 1``,
    plus ``zero_skip`` from the zero slot on. For each j in 1.._MAX_SPLITS the
    split whose rank is nearest ``j * n / (_MAX_SPLITS + 1)`` stays, the lower
    one on a tie. Only the two splits around each quantile are looked at, and
    distances are compared in integers scaled by the bin count.
    """
    bounds = np.searchsorted(split_at, np.arange(zero_col.size + 1) * length)
    per_feature = np.diff(bounds)
    wide = np.flatnonzero(per_feature > _MAX_SPLITS)
    if not wide.size:
        return split_at
    bins = _MAX_SPLITS + 1
    scaled = np.arange(1, bins) * n  # bins * quantile
    reach = (scaled + bins - 1) // bins - 1  # the least whole rank >= each quantile, less 1
    # (wide features, quantiles): the first slot whose rank reaches the quantile
    zc, zs, first = zero_col[wide, None], zero_skip[wide, None], wide[:, None] * length
    at = np.searchsorted(split_at, first + np.where(reach < zc, reach, np.maximum(zc, reach - zs)))
    around = np.stack([np.maximum(at - 1, bounds[wide, None]),
                       np.minimum(at, bounds[wide + 1, None] - 1)])
    c = split_at[around] - first
    off = np.abs(bins * (c + 1 + np.where(c >= zc, zs, 0)) - scaled)
    keep = np.repeat(per_feature <= _MAX_SPLITS, per_feature)
    keep[np.where(off[1] < off[0], around[1], around[0])] = True
    return split_at[keep]


def _split_gains(block, gh: np.ndarray, gh_total: complex, lam: float):
    """Gain, left g+ih sum and total g+ih sum of each split of one block."""
    _, order, split_at, counts, zero_col, _ = block
    width, length = order.shape
    sums = np.take(gh, order, mode="clip")  # as fast with int16 or int32 indices as gh[intp]
    np.cumsum(sums, axis=1, out=sums)
    # a feature's splits before its zero slot, then from it on; the latter
    # lack the zero entries' sum, the lump gh_total - (nonzero sum)
    lump_total = np.zeros((width, 2, 2), dtype=np.complex128)  # per side: (lump, total)
    np.subtract(gh_total, sums[:, -1], out=lump_total[:, 1, 0], where=zero_col < length)
    lump_total[:, :, 1] = (sums[:, -1] + lump_total[:, 1, 0])[:, None]
    left = np.take(sums.reshape(-1), split_at, mode="clip")
    del sums  # before the per-split arrays, to keep a round's peak to one block's
    per_split = np.repeat(lump_total.reshape(-1, 2), counts.reshape(-1), axis=0)
    left += per_split[:, 0]
    total = per_split[:, 1]
    # g_left**2 / (h_left + lam) + (g_total - g_left)**2 / (h_total - h_left + lam),
    # op for op, in place
    g_left, h_left, g_total, h_total = left.real, left.imag, total.real, total.imag
    denominator = h_left + lam
    gain = np.square(g_left)
    gain /= denominator
    right = g_total - g_left
    np.square(right, out=right)
    np.subtract(h_total, h_left, out=denominator)
    denominator += lam
    right /= denominator
    gain += right
    return gain, left, total


def _best_split(blocks, gh: np.ndarray, gh_total: complex, lam: float, n_features: int):
    """(feature, the two sorted rows around the split, left g+ih sum, total g+ih sum).

    ``gh`` holds g + ih for the N rows and a 0 at index N, the zero slot, so
    a row of N in the result stands for a zero entry. The winner has the
    largest gain, ties going to the smallest scan key ``pos * D + feature``,
    as an argmax over the dense (N-1, D) gain array would pick. None when no
    split exists, when any gain is NaN, or when the largest gain is not
    finite: the cases where that argmax lands on a non-finite value.
    """
    best = None  # (gain, scan key, rows, left sum, total)
    # reg_lambda=0 with saturated probabilities divides by zero, or by so small an
    # h that a gain overflows; the NaN or inf that results stops boosting, as intended
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for block in blocks:
            features, order, split_at, _, zero_col, zero_skip = block
            if not split_at.size:
                continue
            gain, left, total = _split_gains(block, gh, gh_total, lam)
            top = gain.max()
            if np.isnan(top):
                return None
            if best is None or top >= best[0]:
                hits = np.flatnonzero(gain == top)
                f, c = np.divmod(split_at[hits].astype(np.int64), order.shape[1])
                pos = c + np.where(c >= zero_col[f], zero_skip[f], 0)
                keys = pos * n_features + features[f]
                i = int(np.argmin(keys))
                if best is None or top > best[0] or keys[i] < best[1]:
                    rows = order[f[i], c[i] : c[i] + 2]
                    best = (top, int(keys[i]), rows, left[hits[i]], total[hits[i]])
            del gain, left, total  # before the next block's arrays exist
    if best is None or not np.isfinite(best[0]):
        return None
    _, key, rows, left, total = best
    return key % n_features, rows, left, total


def train_stumps(x: np.ndarray, y: np.ndarray, config) -> BoostedStumps:
    """Fit ``config.rounds`` stumps greedily to logistic-loss residuals. ``x`` is read
    as it is (float32 rows are not copied); its values are compared in float64."""
    x = np.asarray(x)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionMismatchError(2, x.ndim, "feature matrix axis count")
    if y.shape != (len(x),):
        raise AlignmentError(f"labels of shape {y.shape} for {len(x)} rows")
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

    blocks = _feature_blocks(x)
    # gradient and hessian, summed in one pass; index n, the zero slot, stays 0
    gh = np.zeros(n + 1, dtype=np.complex128)

    margin = np.full(n, base)
    stumps: list[Stump] = []
    losses: list[float] = []
    for round_no in range(1, config.rounds + 1):
        p = _sigmoid(margin)
        g = p - y
        h = p * (1.0 - p)
        gh.real[:n] = g
        gh.imag[:n] = h
        split = _best_split(blocks, gh, complex(g.sum(), h.sum()), lam, n_features)
        if split is None:
            break  # every feature is constant, or a gain is not finite
        feat, rows, left_sum, total = split
        g_left, h_left, g_total, h_total = left_sum.real, left_sum.imag, total.real, total.imag
        below, above = (float(x[row, feat]) if row < n else 0.0 for row in rows)
        threshold = (below + above) / 2.0
        if not below < threshold <= above:
            # the midpoint of adjacent floats rounds onto one of them, and
            # near the float maximum it overflows; the upper value still splits
            threshold = above
        with np.errstate(over="ignore", invalid="ignore"):  # the check below is the one message
            left = -lr * g_left / (h_left + lam)
            right = -lr * (g_total - g_left) / (h_total - h_left + lam)
        if not np.isfinite([left, right]).all():
            raise TrainingError(f"a leaf value is not finite in round {round_no}")
        stumps.append(Stump(int(feat), float(threshold), float(left), float(right)))
        # np.float64: a Python float against float32 rows would compare in float32
        margin = margin + np.where(x[:, feat] < np.float64(threshold), left, right)
        losses.append(_logistic_loss(margin, y))
    return BoostedStumps(stumps, lr, base, losses)
