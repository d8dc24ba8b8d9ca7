"""Bidirectional recurrent classifier over per-field embedding sequences.

A tanh recurrent cell reads the field embeddings in canonical order and a
second cell with its own weights reads them in reverse; the two final hidden
states are concatenated and fed to a small head (linear, rectifier, linear,
log-softmax over two classes). Gradients are hand-derived backpropagation
through time, verified by :func:`gradient_check` against central finite
differences. Every routine is a pure function of its inputs and seed.

Precision. A pass computes in the dtype of the model's params. A directly
constructed model holds float64 params, which :func:`gradient_check` needs.
:func:`birnn_train` rounds its initial draws to float32 and trains and
validates in float32, and a loaded model holds its file's float32 weights, so
a trained model and its saved copy hold the same weights and predict alike.

Layout. A minibatch projects every field of both directions with one input
GEMM, and the two directions step together through a block-diagonal recurrent
weight: step t reads field t forward and field ``steps - 1 - t`` backward.
Training stores those two fused weights and holds the per-direction params as
views of them, so an update writes through; ``predict`` builds them once a call.
Rows of another dtype than the params' are cast a minibatch or a
``_CHUNK_ELEMS``-entry predict chunk at a time, never as a copy of the whole input.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .._util import decode_array, stream_array, typed
from ..errors import AlignmentError, DimensionMismatchError, TrainingError

_PARAM_SHAPES = (
    ("w_xf", lambda d, h, m: (d, h)),
    ("w_hf", lambda d, h, m: (h, h)),
    ("b_f", lambda d, h, m: (h,)),
    ("w_xb", lambda d, h, m: (d, h)),
    ("w_hb", lambda d, h, m: (h, h)),
    ("b_b", lambda d, h, m: (h,)),
    ("w_1", lambda d, h, m: (2 * h, m)),
    ("b_1", lambda d, h, m: (m,)),
    ("w_2", lambda d, h, m: (m, 2)),
    ("b_2", lambda d, h, m: (2,)),
)

# Entries of input rows that ``predict`` runs forward (and casts, if their dtype is
# not the params') at a time. It bounds working memory; no result depends on it.
_CHUNK_ELEMS = 1 << 18


@dataclass
class BiRnnClassifier:
    """Two independent recurrent directions plus a two-layer head."""

    input_dim: int
    hidden_dim: int = 32
    head_dim: int = 16
    steps: int = 5
    seed: int = 0
    params: dict[str, np.ndarray] = field(default=None, repr=False)

    family = "birnn"

    def __post_init__(self):
        if self.params is None:
            rng = np.random.default_rng(self.seed)
            params = {}
            for name, shape_of in _PARAM_SHAPES:
                shape = shape_of(self.input_dim, self.hidden_dim, self.head_dim)
                if name.startswith("b_"):
                    params[name] = np.zeros(shape)
                else:
                    bound = 1.0 / np.sqrt(shape[0])
                    params[name] = rng.uniform(-bound, bound, shape)
            self.params = params

    def to_dict(self) -> dict:
        return {
            "input_dim": self.input_dim,
            "hidden_dim": self.hidden_dim,
            "head_dim": self.head_dim,
            "steps": self.steps,
            "seed": self.seed,
            "weights": {name: stream_array(arr) for name, arr in self.params.items()},
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "BiRnnClassifier":
        dims = [typed(obj, key, int) for key in ("input_dim", "hidden_dim", "head_dim", "steps")]
        if min(dims) < 1:
            raise ValueError(f"model dimensions must be positive, got {dims}")
        weights = typed(obj, "weights", dict)
        params = {name: decode_array(typed(weights, name, dict)) for name, _ in _PARAM_SHAPES}
        for name, shape_of in _PARAM_SHAPES:
            if params[name].shape != shape_of(*dims[:3]):
                raise ValueError(f"weight {name!r} has shape {params[name].shape}")
        return cls(*dims, typed(obj, "seed", int), params)

    # forward / backward -----------------------------------------------------

    def _check_batch(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim != 3 or x.shape[1] != self.steps or x.shape[2] != self.input_dim:
            raise DimensionMismatchError(
                (self.steps, self.input_dim), x.shape[1:], "sequence shape"
            )
        return x

    def _fused(self) -> tuple[np.ndarray, np.ndarray]:
        """The fused input weight ``[w_xf | w_xb]`` (d, 2H) and the block-diagonal
        recurrent weight ``diag(w_hf, w_hb)`` (2H, 2H), built from the params."""
        p, h = self.params, self.hidden_dim
        w_x = np.concatenate([p["w_xf"], p["w_xb"]], axis=1)
        w_h = np.zeros((2 * h, 2 * h), w_x.dtype)
        w_h[:h, :h], w_h[h:, h:] = p["w_hf"], p["w_hb"]
        return w_x, w_h

    def forward_batch(self, x: np.ndarray, fused=None) -> tuple[np.ndarray, dict]:
        """Log-probabilities (B, 2) and the cache needed for backprop. ``fused`` is
        :meth:`_fused` of the current params, built here if not given."""
        p = self.params
        dtype = np.result_type(*p.values())
        x = self._check_batch(x).astype(dtype, copy=False)
        batch, h = x.shape[0], self.hidden_dim
        w_x, w_h = fused or self._fused()
        projected = (x.reshape(batch * self.steps, -1) @ w_x).reshape(batch, self.steps, 2 * h)
        pre = _swap_order(projected, seq_axis=1)
        pre += np.concatenate([p["b_f"], p["b_b"]])
        states = np.zeros((self.steps + 1, batch, 2 * h), dtype)  # states[0]: h_0 = 0
        np.tanh(pre[0], out=states[1])
        for step in range(1, self.steps):
            np.add(pre[step], states[step] @ w_h, out=states[step + 1])
            np.tanh(states[step + 1], out=states[step + 1])
        z = states[-1]  # [forward final state, backward final state]
        a_pre = z @ p["w_1"] + p["b_1"]
        a = np.maximum(a_pre, 0.0)
        logits = a @ p["w_2"] + p["b_2"]
        shift = logits - logits.max(axis=1, keepdims=True)
        log_prob = shift - np.log(np.exp(shift).sum(axis=1, keepdims=True))
        cache = {
            "x": x, "w_h": w_h, "states": states, "z": z,
            "a_pre": a_pre, "a": a, "log_prob": log_prob,
        }
        return log_prob, cache

    def backward_batch(self, cache: dict, y: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients of the mean negative log-likelihood over the batch."""
        p = self.params
        x, states = cache["x"], cache["states"]
        batch, h = x.shape[0], self.hidden_dim
        probs = np.exp(cache["log_prob"])
        d_logits = probs.copy()
        d_logits[np.arange(batch), y] -= 1.0
        d_logits /= batch
        grads = {
            "w_2": cache["a"].T @ d_logits,
            "b_2": d_logits.sum(axis=0),
        }
        d_a = d_logits @ p["w_2"].T
        d_a_pre = d_a * (cache["a_pre"] > 0.0)
        grads["w_1"] = cache["z"].T @ d_a_pre
        grads["b_1"] = d_a_pre.sum(axis=0)
        d_h = d_a_pre @ p["w_1"].T
        d_pre = 1.0 - states[1:] ** 2  # times d_h, step by step below
        for step in range(self.steps - 1, -1, -1):
            d_pre[step] *= d_h
            if step:
                d_h = d_pre[step] @ cache["w_h"].T
        flat = d_pre.reshape(self.steps * batch, 2 * h)
        g_h = states[:-1].reshape(self.steps * batch, 2 * h).T @ flat  # off-diagonal blocks unused
        g_b = flat.sum(axis=0)
        by_field = _swap_order(d_pre, seq_axis=0).reshape(batch * self.steps, 2 * h)
        g_x = x.reshape(batch * self.steps, -1).T @ by_field
        grads.update(
            w_xf=g_x[:, :h], w_hf=g_h[:h, :h], b_f=g_b[:h],
            w_xb=g_x[:, h:], w_hb=g_h[h:, h:], b_b=g_b[h:],
        )
        return grads

    def loss(self, x: np.ndarray, y: np.ndarray) -> float:
        log_prob, _ = self.forward_batch(x)
        return float(-log_prob[np.arange(len(y)), y].mean())

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = self._check_batch(x)
        decisions = np.empty(len(x), np.int64)
        fused = self._fused()
        step = max(1, _CHUNK_ELEMS // (self.steps * self.input_dim))
        for start in range(0, len(x), step):
            log_prob, _ = self.forward_batch(x[start : start + step], fused)
            decisions[start : start + step] = np.argmax(log_prob, axis=1)
        return decisions


def _swap_order(a: np.ndarray, seq_axis: int) -> np.ndarray:
    """Field order (B, S, 2H) to step order (S, B, 2H), ``seq_axis=1``, or back,
    ``seq_axis=0``, in a new array: the first two axes swapped and the backward
    half of the last axis reversed along the sequence axis."""
    h = a.shape[2] // 2
    out = np.empty((a.shape[1], a.shape[0], a.shape[2]), a.dtype)
    out[..., :h] = a[..., :h].transpose(1, 0, 2)
    out[..., h:] = np.flip(a[..., h:], axis=seq_axis).transpose(1, 0, 2)
    return out


def birnn_forward(clf: BiRnnClassifier, sequence: np.ndarray) -> np.ndarray:
    """Log-probabilities (length 2) for one field-embedding sequence."""
    log_prob, _ = clf.forward_batch(np.asarray(sequence)[None])
    return log_prob[0]


@dataclass(frozen=True)
class TrainHistory:
    """Epoch trace of one training run."""

    epochs_run: int
    val_accuracy: tuple[float, ...]
    best_epoch: int
    best_val_accuracy: float


class EarlyStopper:
    """Stop once `patience` consecutive epochs bring no strict improvement."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best = -np.inf
        self.best_epoch = 0
        self.stale = 0
        self.epoch = 0

    def update(self, value: float) -> bool:
        """Record one epoch's metric; returns True when training should stop."""
        self.epoch += 1
        if value > self.best:
            self.best = value
            self.best_epoch = self.epoch
            self.stale = 0
            return False
        self.stale += 1
        return self.stale >= self.patience


def birnn_train(
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    config,
) -> tuple[BiRnnClassifier, TrainHistory]:
    """Mini-batch gradient descent with early stopping on validation accuracy.

    Stops once ``config.patience`` consecutive epochs pass without a strict
    improvement in validation accuracy (or at ``config.max_epochs``), and
    returns the snapshot from the best epoch, not the last one. The model starts
    from ``BiRnnClassifier``'s seeded draws rounded to float32 and trains and
    validates in float32, the precision of its saved weights.
    """
    y_train = np.asarray(y_train, dtype=np.int64)
    y_val = np.asarray(y_val, dtype=np.int64)
    if len(x_val) == 0:
        raise TrainingError("validation set is empty; early stopping needs one")
    if len(np.unique(y_train)) < 2:
        raise TrainingError("training labels contain a single class")
    x_train = np.asarray(x_train)
    if x_train.ndim != 3:
        raise DimensionMismatchError(3, x_train.ndim, "sequence batch axis count")
    for x, y, what in ((x_train, y_train, "training"), (x_val, y_val, "validation")):
        if y.shape != (len(x),):
            raise AlignmentError(f"{what} labels of shape {y.shape} for {len(x)} rows")
    steps, d = x_train.shape[1:]
    clf = BiRnnClassifier(
        d, config.hidden_dim, config.head_dim, steps=steps, seed=config.seed
    )
    clf.params = {name: param.astype(np.float32) for name, param in clf.params.items()}
    fused = clf._fused()  # stored once; the per-direction params are views of it
    w_x, w_h = fused
    h = clf.hidden_dim
    clf.params.update(w_xf=w_x[:, :h], w_xb=w_x[:, h:], w_hf=w_h[:h, :h], w_hb=w_h[h:, h:])
    x_val = clf._check_batch(x_val)  # x_train gave the model its shape
    rng = np.random.default_rng([config.seed, 1])
    stopper = EarlyStopper(config.patience)
    best_params = None
    accuracies: list[float] = []
    n = len(x_train)
    for epoch in range(1, config.max_epochs + 1):
        perm = rng.permutation(n)
        # a diverging run overflows silently: the error below is its one message
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, n, config.batch_size):
                batch = perm[start : start + config.batch_size]
                _, cache = clf.forward_batch(x_train[batch], fused)
                grads = clf.backward_batch(cache, y_train[batch])
                for name, grad in grads.items():
                    clf.params[name] -= config.learning_rate * grad  # in place: views too
            if not all(np.isfinite(p).all() for p in clf.params.values()):
                raise TrainingError(f"a weight is not finite after epoch {epoch}")
            acc = float(np.mean(clf.predict(x_val) == y_val))
        accuracies.append(acc)
        should_stop = stopper.update(acc)
        if stopper.best_epoch == stopper.epoch:  # a snapshot: copies, not views
            best_params = copy.deepcopy(clf.params)
        if should_stop:
            break
    clf.params = best_params
    history = TrainHistory(
        len(accuracies), tuple(accuracies), stopper.best_epoch, float(stopper.best)
    )
    return clf, history


def gradient_check(
    clf: BiRnnClassifier,
    sequence: np.ndarray,
    label: int,
    step: float = 1e-5,
    perturb_param: str | None = None,
    perturb_factor: float = 2.0,
) -> float:
    """Max relative error of analytic gradients vs central finite differences.

    Relative error per element is ``|g_a - g_n| / max(|g_a| + |g_n|, 1e-8)``.
    ``perturb_param`` deliberately scales that parameter's analytic gradient,
    a self-test that the checker actually catches broken gradients. Intended
    for tiny models; cost grows with parameter count.
    """
    x = np.asarray(sequence, dtype=np.float64)[None]
    y = np.array([label], dtype=np.int64)
    _, cache = clf.forward_batch(x)
    analytic = clf.backward_batch(cache, y)
    if perturb_param is not None:
        analytic[perturb_param] = analytic[perturb_param] * perturb_factor
    worst = 0.0
    for name, _ in _PARAM_SHAPES:
        param = clf.params[name]
        grad = analytic[name]
        flat = param.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + step
            up = clf.loss(x, y)
            flat[i] = original - step
            down = clf.loss(x, y)
            flat[i] = original
            numeric = (up - down) / (2.0 * step)
            g_a = grad.reshape(-1)[i]
            err = abs(g_a - numeric) / max(abs(g_a) + abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst
