"""Versioned JSON envelope for trained models.

Each model class serializes its own body (``to_dict``/``from_dict``): stump
ensembles as an explicit rule list at full precision, dense weight tensors
(recurrent net, kNN reference) as base64 little-endian float32 blobs with
shape headers, which is lossy in the last bits but keeps audit runs
replayable from the run directory alone. ``to_dict`` holds each tensor as a
``stream_array``, so ``save_model`` writes a blob to the file in pieces and
its text never exists whole; ``canonical_json(model.to_dict())`` is the text
of the file's model body.
"""

from __future__ import annotations

from .._util import naming, parsing, read_json, typed, write_json
from .birnn import BiRnnClassifier
from .knn import KnnClassifier
from .stumps import BoostedStumps

_FORMAT = "fairaudit-model"
_VERSION = 1
_CLASSES = {cls.family: cls for cls in (KnnClassifier, BoostedStumps, BiRnnClassifier)}


def save_model(model, path) -> None:
    envelope = {"format": _FORMAT, "version": _VERSION, "family": model.family}
    write_json(path, {**envelope, "model": model.to_dict()})


def load_model(path):
    with naming(path), parsing("model"):
        obj = read_json(path)
        if typed(obj, "format", str) != _FORMAT or typed(obj, "version", int) != _VERSION:
            raise ValueError(f"not a version-{_VERSION} {_FORMAT} file")
        family = typed(obj, "family", str)
        if family not in _CLASSES:
            raise ValueError(f"unknown model family {family!r}")
        return _CLASSES[family].from_dict(typed(obj, "model", dict))
