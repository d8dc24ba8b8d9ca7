"""Bidirectional recurrent classifier over per-field embedding sequences.

A tanh recurrent cell reads the field embeddings in canonical order and a
second cell with its own weights reads them in reverse; the two final hidden
states are concatenated and fed to a small head (linear, rectifier, linear,
log-softmax over two classes). Gradients are hand-derived backpropagation
through time, verified by :func:`gradient_check` against central finite
differences. All arithmetic is float64 and every routine is a pure function
of its inputs and seed.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .._util import decode_array, encode_array, typed
from ..errors import DimensionMismatchError, TrainingError

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

    def to_dict(self, encode=encode_array) -> dict:
        return {
            "input_dim": self.input_dim,
            "hidden_dim": self.hidden_dim,
            "head_dim": self.head_dim,
            "steps": self.steps,
            "seed": self.seed,
            "weights": {name: encode(arr) for name, arr in self.params.items()},
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
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[1] != self.steps or x.shape[2] != self.input_dim:
            raise DimensionMismatchError(
                (self.steps, self.input_dim), x.shape[1:], "sequence shape"
            )
        return x

    def forward_batch(self, x: np.ndarray) -> tuple[np.ndarray, dict]:
        """Log-probabilities (B, 2) and the cache needed for backprop."""
        x = self._check_batch(x)
        p = self.params
        batch = x.shape[0]
        states = {}  # xs[:, step] of the reversed view is x[:, steps - 1 - step], the same array
        for direction, xs in (("f", x), ("b", x[:, ::-1])):
            h = [np.zeros((batch, self.hidden_dim))]
            for step in range(self.steps):
                pre = xs[:, step] @ p[f"w_x{direction}"] + h[-1] @ p[f"w_h{direction}"]
                h.append(np.tanh(pre + p[f"b_{direction}"]))
            states[direction] = h
        z = np.concatenate([states["f"][-1], states["b"][-1]], axis=1)
        a_pre = z @ p["w_1"] + p["b_1"]
        a = np.maximum(a_pre, 0.0)
        logits = a @ p["w_2"] + p["b_2"]
        shift = logits - logits.max(axis=1, keepdims=True)
        log_prob = shift - np.log(np.exp(shift).sum(axis=1, keepdims=True))
        cache = {
            "x": x, "states": states, "z": z,
            "a_pre": a_pre, "a": a, "log_prob": log_prob,
        }
        return log_prob, cache

    def backward_batch(self, cache: dict, y: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients of the mean negative log-likelihood over the batch."""
        p = self.params
        x = cache["x"]
        batch = x.shape[0]
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
        d_z = d_a_pre @ p["w_1"].T
        h = self.hidden_dim
        for direction, d_h, xs in (("f", d_z[:, :h], x), ("b", d_z[:, h:], x[:, ::-1])):
            states = cache["states"][direction]
            gw_x = np.zeros_like(p[f"w_x{direction}"])
            gw_h = np.zeros_like(p[f"w_h{direction}"])
            gb = np.zeros_like(p[f"b_{direction}"])
            for step in range(self.steps - 1, -1, -1):
                d_pre = d_h * (1.0 - states[step + 1] ** 2)
                gw_x += xs[:, step].T @ d_pre
                gw_h += states[step].T @ d_pre
                gb += d_pre.sum(axis=0)
                d_h = d_pre @ p[f"w_h{direction}"].T
            grads[f"w_x{direction}"] = gw_x
            grads[f"w_h{direction}"] = gw_h
            grads[f"b_{direction}"] = gb
        return grads

    def loss(self, x: np.ndarray, y: np.ndarray) -> float:
        log_prob, _ = self.forward_batch(x)
        return float(-log_prob[np.arange(len(y)), y].mean())

    def predict(self, x: np.ndarray) -> np.ndarray:
        log_prob, _ = self.forward_batch(x)
        return np.argmax(log_prob, axis=1)


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
    returns the snapshot from the best epoch, not the last one.
    """
    y_train = np.asarray(y_train, dtype=np.int64)
    y_val = np.asarray(y_val, dtype=np.int64)
    if len(x_val) == 0:
        raise TrainingError("validation set is empty; early stopping needs one")
    if len(np.unique(y_train)) < 2:
        raise TrainingError("training labels contain a single class")
    d = np.asarray(x_train).shape[2]
    steps = np.asarray(x_train).shape[1]
    clf = BiRnnClassifier(
        d, config.hidden_dim, config.head_dim, steps=steps, seed=config.seed
    )
    x_train = clf._check_batch(x_train)
    x_val = clf._check_batch(x_val)
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
                _, cache = clf.forward_batch(x_train[batch])
                grads = clf.backward_batch(cache, y_train[batch])
                for name, grad in grads.items():
                    clf.params[name] -= config.learning_rate * grad
            if not all(np.isfinite(p).all() for p in clf.params.values()):
                raise TrainingError(f"a weight is not finite after epoch {epoch}")
            acc = float(np.mean(clf.predict(x_val) == y_val))
        accuracies.append(acc)
        should_stop = stopper.update(acc)
        if stopper.best_epoch == stopper.epoch:
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
