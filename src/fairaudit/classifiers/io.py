"""Versioned JSON envelope for trained models.

Each model class serializes its own body (``to_dict``/``from_dict``): stump
ensembles as an explicit rule list at full precision, dense weight tensors
(recurrent net, kNN reference) as base64 little-endian float32 blobs with
shape headers, which is lossy in the last bits but keeps audit runs
replayable from the run directory alone. ``to_dict(encode)`` encodes each
tensor with ``encode``; ``save_model`` passes ``stream_array``, so a blob is
written to the file in pieces and its text never exists whole.
"""

from __future__ import annotations

from .._util import naming, parsing, read_json, stream_array, typed, write_json
from .birnn import BiRnnClassifier
from .knn import KnnClassifier
from .stumps import BoostedStumps

_FORMAT = "fairaudit-model"
_VERSION = 1
_CLASSES = {cls.family: cls for cls in (KnnClassifier, BoostedStumps, BiRnnClassifier)}


def save_model(model, path) -> None:
    envelope = {"format": _FORMAT, "version": _VERSION, "family": model.family}
    write_json(path, {**envelope, "model": model.to_dict(stream_array)})


def load_model(path):
    obj = read_json(path)
    with naming(path), parsing(f"model {path}"):
        if typed(obj, "format", str) != _FORMAT or typed(obj, "version", int) != _VERSION:
            raise ValueError(f"not a version-{_VERSION} {_FORMAT} file")
        family = typed(obj, "family", str)
        if family not in _CLASSES:
            raise ValueError(f"unknown model family {family!r}")
        return _CLASSES[family].from_dict(typed(obj, "model", dict))
