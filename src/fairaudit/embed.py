"""Per-field text embeddings and the concatenated profile representation.

Two sources are supported: ingestion of externally computed vectors, and a
built-in deterministic hashing embedder (signed feature hashing over word
unigrams and bigrams). Either way every profile row is the concatenation of
one fixed-size block per canonical field, so with the default 768 dimensions
per field a row is 5 * 768 = 3840 wide.

Binary matrix format ("FAEM")
-----------------------------
Little-endian throughout: magic bytes ``FAEM``, version ``u16``, then ``u64 N``
and ``u64 D``, then N ids each as ``u32`` byte length + UTF-8 bytes, then
``N x D`` float32 values row-major. A CSV fallback with columns
``id,v0..v{D-1}`` is accepted on read.
"""

from __future__ import annotations

import csv
import hashlib
import struct
from collections import Counter
from dataclasses import dataclass

import numpy as np

from ._util import positions
from .dataset import FIELD_ORDER, Profile
from .errors import (
    DimensionMismatchError,
    IdMismatchError,
    IntegrityError,
    NonFiniteError,
    ParseError,
)

_MAGIC = b"FAEM"
_VERSION = 1


@dataclass(frozen=True, eq=False)
class EmbeddingMatrix:
    """Dense N x D matrix of profile vectors with field-wise block structure."""

    data: np.ndarray
    dim_per_field: int
    field_order: tuple[str, ...]
    index_order: tuple[str, ...]

    def __post_init__(self):
        data = np.ascontiguousarray(self.data, dtype=np.float64)
        n, d_total = data.shape
        expected = self.dim_per_field * len(self.field_order)
        if d_total != expected:
            raise DimensionMismatchError(expected, d_total, "row width")
        if n != len(self.index_order):
            raise DimensionMismatchError(len(self.index_order), n, "row count")
        if not np.isfinite(data).all():
            raise NonFiniteError("embedding matrix contains NaN or Inf")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "field_order", tuple(self.field_order))
        object.__setattr__(self, "index_order", tuple(self.index_order))

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def field_block(self, field_index: int) -> np.ndarray:
        """Columns of one field's block, as a read-only view."""
        d = self.dim_per_field
        return self.data[:, field_index * d : (field_index + 1) * d]

    def as_field_sequences(self) -> np.ndarray:
        """Rows reshaped to (N, fields, dim_per_field) for sequence models."""
        return self.data.reshape(self.n, len(self.field_order), self.dim_per_field)

    def take(self, ids) -> "EmbeddingMatrix":
        """The rows of ``ids``, in that order."""
        data = self.data[positions(self.index_order, ids)]
        return EmbeddingMatrix(data, self.dim_per_field, self.field_order, tuple(ids))


def _check_sizes(d: int, max_tokens: int | None) -> None:
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if max_tokens is not None and max_tokens < 1:
        raise ValueError(f"max_tokens must be >= 1, got {max_tokens}")


def _hash_key(seed: int) -> bytes:
    return (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")


def _embed_into(out: np.ndarray, text: str, key: bytes, cache: dict, max_tokens) -> None:
    """Hash ``text`` into the zero vector ``out`` and L2-normalize it in place."""
    if max_tokens is not None:
        text = " ".join(text.lower().split()[:max_tokens])
    d = len(out)
    tokens = text.lower().split()
    for gram in tokens + [f"{a} {b}" for a, b in zip(tokens, tokens[1:])]:
        slot = cache.get(gram)
        if slot is None:
            digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8, key=key).digest()
            value = int.from_bytes(digest, "little")
            slot = ((value >> 1) % d, 1.0 if value & 1 else -1.0)
            cache[gram] = slot
        out[slot[0]] += slot[1]
    norm = np.linalg.norm(out)
    if norm > 0:
        out /= norm


def hash_embed_field(
    text: str, d: int, seed: int, max_tokens: int | None = None
) -> np.ndarray:
    """Signed feature hashing of one text to an L2-normalized d-vector.

    Word-level unigrams and bigrams of the lowercased text are hashed into d
    buckets with a +/-1 sign, both derived from a keyed 64-bit blake2b digest
    (bucket from the upper bits, sign from the lowest). Nonzero vectors are
    normalized to unit length; empty or whitespace-only text gives the zero
    vector. Deterministic in (text, d, seed) across processes.

    ``max_tokens`` (at least 1) truncates the token sequence first, for parity
    with embedding pipelines that cap input length.
    """
    _check_sizes(d, max_tokens)
    vec = np.zeros(d)
    _embed_into(vec, text, _hash_key(seed), {}, max_tokens)
    return vec


def embed_corpus(
    profiles: list[Profile],
    d: int = 768,
    seed: int = 0,
    max_tokens: int | None = None,
) -> EmbeddingMatrix:
    """Embed every profile with the hashing embedder, one block per field."""
    _check_sizes(d, max_tokens)
    n_fields = len(FIELD_ORDER)
    data = np.zeros((len(profiles), d * n_fields))
    key = _hash_key(seed)
    cache: dict = {}
    for i, profile in enumerate(profiles):
        for f, name in enumerate(FIELD_ORDER):
            _embed_into(data[i, f * d : (f + 1) * d], profile.fields[name], key, cache, max_tokens)
    return EmbeddingMatrix(data, d, FIELD_ORDER, tuple(p.id for p in profiles))


def normalize_field_blocks(matrix: EmbeddingMatrix) -> EmbeddingMatrix:
    """L2-normalize each field block of each row; zero blocks stay zero."""
    n_fields = len(matrix.field_order)
    blocks = matrix.data.reshape(matrix.n, n_fields, matrix.dim_per_field).copy()
    norms = np.linalg.norm(blocks, axis=2, keepdims=True)
    np.divide(blocks, norms, out=blocks, where=norms > 0)
    return EmbeddingMatrix(
        blocks.reshape(matrix.n, matrix.dim),
        matrix.dim_per_field,
        matrix.field_order,
        matrix.index_order,
    )


# ---------------------------------------------------------------------------
# persistence


def save_embeddings(matrix: EmbeddingMatrix, path) -> None:
    """Write the binary matrix format (float32, little-endian)."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<H", _VERSION))
        fh.write(struct.pack("<QQ", matrix.n, matrix.dim))
        for pid in matrix.index_order:
            raw = pid.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
        fh.write(matrix.data.astype("<f4").tobytes())


def _read_faem(path) -> tuple[list[str], np.ndarray]:
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:4] != _MAGIC:
        raise ParseError(f"bad magic bytes {buf[:4]!r}; expected {_MAGIC!r}")
    try:
        version, n, d_total = struct.unpack_from("<HQQ", buf, 4)
        if version != _VERSION:
            raise ParseError(f"unsupported format version {version}")
        offset, ids = 22, []
        for _ in range(n):
            (length,) = struct.unpack_from("<I", buf, offset)
            offset += 4 + length
            if offset > len(buf):
                raise ParseError("truncated id section")
            ids.append(buf[offset - length : offset].decode("utf-8"))
        data = np.frombuffer(buf, dtype="<f4", count=n * d_total, offset=offset)
        data = data.reshape(n, d_total)
    except (struct.error, UnicodeDecodeError, ValueError, OverflowError) as exc:
        raise ParseError(f"truncated or corrupt matrix file: {exc}") from exc
    return ids, data.astype(np.float64)


def _read_csv_matrix(path) -> tuple[list[str], np.ndarray]:
    ids: list[str] = []
    rows: list[list[float]] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for line_no, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            try:
                rows.append([float(x) for x in row[1:]])
            except ValueError:
                if line_no == 1:
                    continue  # header row
                raise ParseError("non-numeric value in matrix row", line_no)
            ids.append(row[0])
    if not ids or not any(rows):
        raise ParseError("empty matrix file")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ParseError(f"inconsistent row widths {sorted(widths)}")
    return ids, np.asarray(rows, dtype=np.float64)


def load_matrix_file(path) -> tuple[list[str], np.ndarray]:
    """Read a stored matrix, trying the binary format then the CSV fallback."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == _MAGIC:
        return _read_faem(path)
    return _read_csv_matrix(path)


def ingest_embeddings(path, expected_ids, d: int) -> EmbeddingMatrix:
    """Load externally computed embeddings, validated and reordered.

    Rows are permuted to match ``expected_ids``; the stored width must equal
    ``d`` per field times the canonical field count. Values are ingested as-is
    (use :func:`normalize_field_blocks` to normalize afterwards).
    """
    expected_ids = list(expected_ids)
    ids, data = load_matrix_file(path)
    expected_dim = d * len(FIELD_ORDER)
    if data.shape[1] != expected_dim:
        raise DimensionMismatchError(expected_dim, data.shape[1], "embedding width")
    counts = Counter(ids)
    if len(counts) != len(ids):
        dupes = sorted(pid for pid, count in counts.items() if count > 1)
        raise IntegrityError(f"duplicate ids in embedding file: {dupes[:10]}")
    if not np.isfinite(data).all():
        raise NonFiniteError("embedding file contains NaN or Inf")
    position = {pid: i for i, pid in enumerate(ids)}
    expected = set(expected_ids)
    missing = [pid for pid in expected_ids if pid not in position]
    extra = [pid for pid in ids if pid not in expected]
    if missing or extra or len(ids) != len(expected_ids):
        raise IdMismatchError(
            f"embedding ids do not match corpus: missing {missing[:10]}, extra {extra[:10]}"
        )
    order = [position[pid] for pid in expected_ids]
    return EmbeddingMatrix(data[order], d, FIELD_ORDER, tuple(expected_ids))
