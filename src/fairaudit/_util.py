"""Shared helpers: canonical JSON and JSONL files, float32 blobs, unit rows, seed derivation."""

from __future__ import annotations

import base64
import json
from collections import Counter
from contextlib import contextmanager

import numpy as np

from .errors import (DimensionMismatchError, FairauditError, IntegrityError, NonFiniteError,
                     ParseError)

_FLOAT32_OVERFLOW = 2.0**128 - 2.0**103  # the least magnitude that rounds to inf as float32
# float32 entries base64-encoded at a time by write_json: 4 bytes each and a
# multiple of 3 entries, so a piece encodes without padding
_PIECE_ELEMS = 3 << 14
_UNIT_ELEMS = 1 << 17  # float64 entries made unit vectors at a time by unit_rows
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def canonical_json(obj) -> str:
    """Stable JSON encoding: sorted keys, compact separators, UTF-8 text; the data of
    a ``stream_array`` value is its base64 text."""
    return "".join(_json_pieces(obj))


def write_json(path, obj) -> None:
    """``canonical_json(obj)`` and a newline. The data of a ``stream_array`` value is
    encoded and written in pieces, so its text never exists whole."""
    with open(path, "w", encoding="utf-8") as fh:
        for piece in _json_pieces(obj):
            fh.write(piece)
        fh.write("\n")


def _json_pieces(obj):
    """``canonical_json(obj)`` in pieces: dicts with string keys are walked (in the
    sorted key order of ``sort_keys``) down to their ``stream_array`` data."""
    if isinstance(obj, _Float32Data):
        yield '"'
        yield from obj.pieces()
        yield '"'
    elif isinstance(obj, dict) and all(isinstance(key, str) for key in obj):
        yield "{"
        for i, (key, value) in enumerate(sorted(obj.items())):
            yield f"{',' if i else ''}{_ENCODER.encode(key)}:"
            yield from _json_pieces(value)
        yield "}"
    else:
        yield _ENCODER.encode(obj)


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # invalid JSON or invalid UTF-8
            raise ParseError(f"{path}: {exc}") from exc


def write_jsonl(path, records) -> None:
    """One canonical JSON value per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(canonical_json(record))
            fh.write("\n")


def read_jsonl(path):
    """Yield ``(line number, value)`` for each nonblank line; invalid JSON is a
    ParseError that names the line."""
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                value = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON ({exc.msg})", line_no) from exc
            yield line_no, value


def typed(obj: dict, key: str, kind: type | tuple[type, ...]):
    """``obj[key]``, raising TypeError unless it is a ``kind`` (a bool only if ``kind`` is bool)."""
    value = obj[key]
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise TypeError(f"{key!r} has type {type(value).__name__}")
    return value


def typed_list(obj: dict, key: str, kind: type | tuple[type, ...]) -> list:
    """``obj[key]`` as a list whose every item is a ``kind`` (never a bool)."""
    items = typed(obj, key, list)
    if any(isinstance(item, bool) or not isinstance(item, kind) for item in items):
        raise TypeError(f"{key!r} holds an item that is not {kind}")
    return items


def check_unique(ids, what: str) -> None:
    """IntegrityError naming up to ten ids that occur more than once in ``ids``."""
    if len(set(ids)) != len(ids):
        repeated = [pid for pid, count in Counter(ids).items() if count > 1]
        raise IntegrityError(f"duplicate ids in {what}: {repeated[:10]}")


def positions(index_order, ids) -> list[int]:
    """Where each of ``ids`` sits in ``index_order``; IntegrityError names each
    unknown id once."""
    position = {pid: i for i, pid in enumerate(index_order)}
    unknown = list(dict.fromkeys(pid for pid in ids if pid not in position))
    if unknown:
        raise IntegrityError(f"{len(unknown)} ids not found, e.g. {unknown[:10]}")
    return [position[pid] for pid in ids]


@contextmanager
def parsing(what: str, line: int | None = None):
    """Report a missing or mistyped key of an artifact (at ``line``) as a ParseError."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed {what}: {type(exc).__name__}: {exc}", line) from exc


@contextmanager
def naming(path):
    """Name ``path`` in a data error that its content raises (parse errors name it
    already); the error keeps its type."""
    try:
        yield
    except FairauditError as exc:
        if not isinstance(exc, ParseError):
            exc.args = (f"{path}: {exc}",)
        raise


def unit_rows(rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the unit vector of each vector along the last axis of ``rows`` (float32
    values, in any float dtype) into ``out`` (of the same shape, any float dtype) and
    return the norm that made it one, per vector. ``rows`` is read about
    ``_UNIT_ELEMS`` entries at a time, each chunk copied to float64 once (its exact
    values), normed, divided and stored; no result depends on the chunking.

    The squares of a float32 value neither overflow nor underflow in float64, so
    each vector is the plain division by its float64 norm. A zero vector gets
    norm 1 and stays zero."""
    norms = np.empty(rows.shape[:-1])
    step = max(1, _UNIT_ELEMS // max(1, rows.shape[-1]))
    for at in range(0, len(rows), step):
        chunk = rows[at : at + step].astype(np.float64)  # a copy: it is divided in place
        part = np.linalg.norm(chunk, axis=-1)
        part[part == 0] = 1.0
        norms[at : at + step] = part
        chunk /= part[..., None]
        out[at : at + step] = chunk
    return norms


def check_float32(arr: np.ndarray) -> None:
    """NonFiniteError if a finite entry of ``arr`` overflows to inf as float32. Reductions
    only, so no float32 copy is made; NaN or inf entries are masked out when present."""
    if arr.size == 0 or np.can_cast(arr.dtype, np.float32):  # nothing can overflow
        return
    if -_FLOAT32_OVERFLOW < arr.min() <= arr.max() < _FLOAT32_OVERFLOW:
        return
    finite = np.isfinite(arr)
    top = max(arr.max(where=finite, initial=0.0), -arr.min(where=finite, initial=0.0))
    if top >= _FLOAT32_OVERFLOW:
        raise NonFiniteError(f"a value of magnitude {top:.6g} overflows float32")


def float32_rows(arr, what: str) -> np.ndarray:
    """``arr`` as C-contiguous float32, ``arr`` itself when it is that already. An
    array that is not 2-D is a DimensionMismatchError, and a value that float32
    cannot hold, a NaN or an inf a NonFiniteError, naming ``what``."""
    arr = np.asarray(arr)
    if arr.ndim != 2:
        raise DimensionMismatchError(2, arr.ndim, f"{what} axis count")
    check_float32(arr)  # before the cast, so the value can be named
    rows = np.ascontiguousarray(arr, dtype=np.float32)
    if rows.size and not np.isfinite([rows.min(), rows.max()]).all():  # NaN reaches both
        raise NonFiniteError(f"{what} contains NaN or Inf")
    return rows


class _Float32Data:
    """The base64 text of an array's little-endian float32 bytes, encoded
    ``_PIECE_ELEMS`` entries at a time. Each piece but the last holds a multiple of
    3 bytes, so it encodes without padding and the pieces join to the text of the
    whole."""

    def __init__(self, arr: np.ndarray):
        check_float32(arr)
        self.flat = np.ravel(arr)

    def pieces(self):
        for start in range(0, self.flat.size, _PIECE_ELEMS):
            raw = self.flat[start : start + _PIECE_ELEMS].astype("<f4").tobytes()
            yield base64.b64encode(raw).decode("ascii")


def stream_array(arr: np.ndarray) -> dict:
    """Shape header plus base64 little-endian float32 data (lossy in the last bits),
    which ``write_json`` encodes and writes in pieces. A value that float32 cannot
    hold is a NonFiniteError here, before any file is opened."""
    return {"shape": list(arr.shape), "data": _Float32Data(arr)}


def decode_array(obj: dict) -> np.ndarray:
    """``stream_array``'s inverse: the blob's float32 values, read-only; a NaN or
    infinite value is a ValueError."""
    raw = base64.b64decode(typed(obj, "data", str), validate=True)
    arr = np.frombuffer(raw, dtype="<f4").reshape(typed(obj, "shape", list))
    if not np.isfinite(arr).all():
        raise ValueError("array data holds a NaN or infinite value")
    return arr


def derive_seeds(master: int, names: tuple[str, ...]) -> dict[str, int]:
    """Derive one independent child seed per name from a master seed."""
    children = np.random.SeedSequence(master).spawn(len(names))
    return {name: int(child.generate_state(1)[0]) for name, child in zip(names, children)}
