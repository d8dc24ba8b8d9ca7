"""Small shared helpers: canonical JSON files, float32 blobs, seed derivation."""

from __future__ import annotations

import base64
import json

import numpy as np

from .errors import ParseError


def canonical_json(obj) -> str:
    """Stable JSON encoding: sorted keys, compact separators, UTF-8 text."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(obj))
        fh.write("\n")


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # invalid JSON or invalid UTF-8
            raise ParseError(f"{path}: {exc}") from exc


def typed(obj: dict, key: str, kind: type | tuple[type, ...]):
    """``obj[key]``, raising TypeError unless it is a ``kind`` (never a bool)."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise TypeError(f"{key!r} has type {type(value).__name__}")
    return value


def encode_array(arr: np.ndarray) -> dict:
    """Shape header plus base64 little-endian float32 data (lossy in the last bits)."""
    return {
        "shape": list(arr.shape),
        "data": base64.b64encode(np.ascontiguousarray(arr, dtype="<f4").tobytes()).decode(),
    }


def decode_array(obj: dict) -> np.ndarray:
    raw = base64.b64decode(typed(obj, "data", str), validate=True)
    return np.frombuffer(raw, dtype="<f4").reshape(typed(obj, "shape", list)).astype(np.float64)


def derive_seeds(master: int, names: tuple[str, ...]) -> dict[str, int]:
    """Derive one independent child seed per name from a master seed."""
    children = np.random.SeedSequence(master).spawn(len(names))
    return {name: int(child.generate_state(1)[0]) for name, child in zip(names, children)}
