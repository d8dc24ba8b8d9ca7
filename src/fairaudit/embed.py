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
import os
import struct
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from ._util import check_float32, check_unique, float32_rows, naming, positions, unit_rows
from .dataset import FIELD_ORDER, Profile
from .errors import DimensionMismatchError, IdMismatchError, ParseError

_MAGIC = b"FAEM"
_VERSION = 1
# entries of the texts hashed and scattered at a time, a text counting its d float64
# bucket entries and its tokens; bounds the working memory
_CHUNK_ENTRIES = 1 << 18
_READ_ELEMS = 1 << 17  # entries read or written at a time through a reordering buffer


@dataclass(frozen=True, eq=False)
class EmbeddingMatrix:
    """Dense N x D matrix of profile vectors with field-wise block structure and unique ids.

    ``data`` is read-only float32, a view of the given array when that is C-contiguous
    float32 and otherwise its values rounded to float32 once; a finite value that
    float32 cannot hold is a NonFiniteError."""

    data: np.ndarray
    dim_per_field: int
    field_order: tuple[str, ...]
    index_order: tuple[str, ...]

    def __post_init__(self):
        if self.dim_per_field < 1:
            raise ValueError(f"dim_per_field must be >= 1, got {self.dim_per_field}")
        # a view: setting it read-only below leaves the caller's array as it was
        data = float32_rows(self.data, "embedding matrix").view()
        n, d_total = data.shape
        expected = self.dim_per_field * len(self.field_order)
        if d_total != expected:
            raise DimensionMismatchError(expected, d_total, "row width")
        if n != len(self.index_order):
            raise DimensionMismatchError(len(self.index_order), n, "row count")
        check_unique(self.index_order, "embedding matrix")
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
        """The rows of ``ids``, in that order: the matrix itself if that is its order
        (it is immutable), a read-only view of its rows if ``ids`` is a contiguous
        ascending run of them, and a copy otherwise. A view keeps the whole of this
        matrix's buffer alive for as long as it lives."""
        ids = tuple(ids)
        if ids == self.index_order:
            return self
        at = positions(self.index_order, ids)
        if at and at == list(range(at[0], at[0] + len(at))):
            data = self.data[at[0] : at[0] + len(at)]
        else:
            data = self.data[at]
        return EmbeddingMatrix(data, self.dim_per_field, self.field_order, ids)


def check_sizes(d: int, max_tokens: int | None) -> None:
    """Reject a hashing-embedder size: ``d`` below 2 or ``max_tokens`` below 1."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if max_tokens is not None and max_tokens < 1:
        raise ValueError(f"max_tokens must be >= 1, got {max_tokens}")


def _hash_key(seed: int) -> bytes:
    return (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")


def _hash_codes(grams: list[str], key: bytes, d: int) -> np.ndarray:
    """``2 * bucket + sign bit`` of each gram, from its keyed 64-bit blake2b digest."""
    keyed = hashlib.blake2b(digest_size=8, key=key)  # the key block, compressed once

    def digest(gram: str) -> bytes:
        h = keyed.copy()
        h.update(gram.encode("utf-8"))
        return h.digest()

    values = np.frombuffer(b"".join(map(digest, grams)), dtype="<u8")
    return ((values >> 1) % d * 2 + (values & 1)).astype(np.int64)


def _token_chunks(texts, d: int, max_tokens: int | None):
    """The lowercased, split and truncated tokens of each text, in lists of at most
    ``_CHUNK_ENTRIES`` entries, a text counting ``d`` and its tokens, an empty text
    one (a larger text makes a list of its own)."""
    chunk, size = [], 0
    for text in texts:
        tokens = text.lower().split()[:max_tokens]
        entries = d + max(1, len(tokens))
        if chunk and size + entries > _CHUNK_ENTRIES:
            yield chunk
            chunk, size = [], 0
        chunk.append(tokens)
        size += entries
    if chunk:
        yield chunk


def _hash_embed(texts, out: np.ndarray, seed: int, max_tokens: int | None) -> np.ndarray:
    """``out`` (n, d), of any float dtype, filled with the hashed, L2-normalized
    vectors of the n ``texts``: each chunk of texts is scattered and normalized in
    float64, then stored in ``out``.

    Each distinct gram is hashed once per call. Tokens map to ids through one
    dict and their codes sit in an array by id; bigrams are keyed by their id
    pair, looked up in a sorted table of the pairs hashed so far. Every bucket
    and every squared norm is a small integer sum, exact in any order, so the
    chunking changes no bit.
    """
    d = out.shape[1]
    key = _hash_key(seed)
    ids: dict[str, int] = {}
    words: list[str] = []
    unigrams = np.empty(0, np.int64)  # code of each token id
    pairs = np.empty(0, np.int64)  # sorted (id << 32 | id) keys of the hashed bigrams
    pair_codes = np.empty(0, np.int64)
    start = 0
    for chunk in _token_chunks(texts, d, max_tokens):
        new = sorted(set().union(*chunk).difference(ids))
        ids.update(zip(new, range(len(words), len(words) + len(new))))
        words += new
        unigrams = np.concatenate([unigrams, _hash_codes(new, key, d)])
        lengths = [len(tokens) for tokens in chunk]
        tokens = np.fromiter(map(ids.__getitem__, chain.from_iterable(chunk)), np.int64,
                             sum(lengths))
        rows = np.repeat(np.arange(len(chunk)), lengths)
        inner = rows[1:] == rows[:-1]  # the bigrams: token pairs within one text
        distinct, inverse = np.unique(tokens[:-1][inner] << 32 | tokens[1:][inner],
                                      return_inverse=True)
        at = np.searchsorted(pairs, distinct)
        known = at < len(pairs)
        known[known] = pairs[at[known]] == distinct[known]
        fresh = distinct[~known]
        grams = [f"{words[pair >> 32]} {words[pair & 0xFFFFFFFF]}" for pair in fresh.tolist()]
        at = np.searchsorted(pairs, fresh)
        pairs = np.insert(pairs, at, fresh)
        pair_codes = np.insert(pair_codes, at, _hash_codes(grams, key, d))
        codes = np.concatenate(
            [unigrams[tokens], pair_codes[np.searchsorted(pairs, distinct)][inverse]]
        )
        where = np.concatenate([rows, rows[1:][inner]])
        block = np.zeros((len(chunk), d))
        np.add.at(block.reshape(-1), where * d + (codes >> 1), (codes & 1) * 2.0 - 1.0)
        unit_rows(block, out[start : start + len(chunk)])
        start += len(chunk)
    return out


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
    check_sizes(d, max_tokens)
    return _hash_embed([text], np.zeros((1, d)), seed, max_tokens)[0]


def embed_corpus(
    profiles: list[Profile],
    d: int = 768,
    seed: int = 0,
    max_tokens: int | None = None,
) -> EmbeddingMatrix:
    """Embed every profile with the hashing embedder, one block per field:
    :func:`hash_embed_field` of each field rounded to float32, with each distinct
    gram hashed once."""
    check_sizes(d, max_tokens)
    texts = (profile.fields[name] for profile in profiles for name in FIELD_ORDER)
    data = _hash_embed(texts, np.zeros((len(profiles) * len(FIELD_ORDER), d), np.float32),
                       seed, max_tokens)
    return EmbeddingMatrix(
        data.reshape(len(profiles), d * len(FIELD_ORDER)), d, FIELD_ORDER,
        tuple(p.id for p in profiles),
    )


def normalize_field_blocks(matrix: EmbeddingMatrix) -> EmbeddingMatrix:
    """L2-normalize each field block of each row (zero blocks stay zero) in float64
    by :func:`~fairaudit._util.unit_rows`, into a new float32 matrix."""
    blocks = matrix.data.reshape(-1, matrix.dim_per_field)
    out = np.empty(blocks.shape, np.float32)
    unit_rows(blocks, out)
    return replace(matrix, data=out.reshape(matrix.data.shape))


# ---------------------------------------------------------------------------
# persistence


def save_embeddings(matrix: EmbeddingMatrix, path, order=None) -> None:
    """Write the binary matrix format (float32, little-endian); the rows go in one
    write of ``matrix.data``, which on a little-endian machine is no copy. With
    ``order``, the file holds ``matrix.take(order)``: the rows of its ids, in that
    order, gathered through a buffer of about ``_READ_ELEMS`` entries, so no second
    matrix is made."""
    ids = matrix.index_order if order is None else tuple(order)
    at = None
    if ids != matrix.index_order:
        check_unique(ids, "the ids asked for")
        at = positions(matrix.index_order, ids)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<H", _VERSION))
        fh.write(struct.pack("<QQ", len(ids), matrix.dim))
        for pid in ids:
            raw = pid.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
        if at is None:
            fh.write(matrix.data.astype("<f4", copy=False))
            return
        step = max(1, _READ_ELEMS // max(1, matrix.dim))
        buffer = np.empty((min(step, len(at)), matrix.dim), "<f4")
        for start in range(0, len(at), step):
            rows = buffer[: len(at) - start]
            np.take(matrix.data, at[start : start + step], axis=0, out=rows)
            fh.write(rows)


def _read_faem(path, order=None) -> tuple[list[str], np.ndarray]:
    """A ``.faem`` file whose magic bytes ``load_matrix_file`` has checked: the ids and
    rows that :func:`_places` picks, read straight into one float32 array (not a memory
    map, which a rewrite of the file in place would pull from under the rows); in
    another order than the file's, through a buffer of about ``_READ_ELEMS`` entries
    that puts each row asked for in its place and drops the others."""
    with open(path, "rb") as fh:
        try:
            version, n, d_total = struct.unpack("<HQQ", fh.read(22)[4:])
            if version != _VERSION:
                raise ParseError(f"unsupported format version {version}")
            ids = []
            for _ in range(n):
                (length,) = struct.unpack("<I", fh.read(4))
                raw = fh.read(length)
                if len(raw) != length:
                    raise ParseError("truncated id section")
                ids.append(raw.decode("utf-8"))
            truncated = ParseError("truncated or corrupt matrix file: too few values")
            if os.fstat(fh.fileno()).st_size - fh.tell() < n * d_total * 4:
                raise truncated  # before the array is made: a corrupt size is not allocated
            ids, place = _places(ids, order)
            data = np.empty((len(ids), d_total), "<f4")
            if place is None:
                if fh.readinto(data) != data.nbytes:  # the file shrank while it was read
                    raise truncated
                return ids, data
            step = max(1, _READ_ELEMS // max(1, d_total))
            buffer = np.empty((min(step, n), d_total), "<f4")
            for at in range(0, n, step):
                rows = buffer[: n - at]
                if fh.readinto(rows) != rows.nbytes:
                    raise truncated
                part = place[at : at + step]
                data[part[part >= 0]] = rows[part >= 0]
        except (struct.error, UnicodeDecodeError, ValueError, OverflowError) as exc:
            raise ParseError(f"truncated or corrupt matrix file: {exc}") from exc
    return ids, data


def _places(ids: list[str], order) -> tuple[list[str], np.ndarray | None]:
    """The ids to return (``order``; None: the file's ``ids``) and, unless they are
    ``ids``, where each file row goes among them (-1: nowhere). A repeated id is an
    IntegrityError, and an id of ``order`` that the file lacks an IdMismatchError."""
    check_unique(ids, "embedding file")
    order = ids if order is None else list(order)
    if order == ids:
        return ids, None
    check_unique(order, "the ids asked for")
    at = dict(zip(order, range(len(order))))
    place = np.array([at.pop(pid, -1) for pid in ids], np.intp)
    if at:  # the asked ids that no file id took
        raise IdMismatchError(f"{len(at)} asked ids not in the file, e.g. {list(at)[:10]}")
    return order, place


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
    data = np.asarray(rows, dtype=np.float64)
    check_float32(data)
    return ids, data.astype(np.float32)


def load_matrix_file(path, order=None) -> tuple[list[str], np.ndarray]:
    """Read a stored matrix as ids and float32 rows, trying the binary format then the
    CSV fallback, whose values are rounded to float32 at read (one that float32
    cannot hold is refused). With ``order``, the rows of its ids alone, in that order
    (the file may hold others); a ``.faem`` file's rows are read into their places, so
    no second copy of them is made. Every data error names the file."""
    with naming(path):
        with open(path, "rb") as fh:
            magic = fh.read(4)
        if magic == _MAGIC:
            return _read_faem(path, order)
        ids, data = _read_csv_matrix(path)
        ids, place = _places(ids, order)
        if place is None:
            return ids, data
        rows = np.empty((len(ids), data.shape[1]), np.float32)
        rows[place[place >= 0]] = data[place >= 0]
        return ids, rows


def ingest_embeddings(path, expected_ids, d: int, normalize: bool = False) -> EmbeddingMatrix:
    """Load externally computed embeddings of ``expected_ids``, in that order, from a
    file that may hold other rows too. EmbeddingMatrix checks the width (``d`` per
    canonical field) and the values. Values are the file's float32 values, each field
    block made a unit vector in place when ``normalize`` is set, with the bits
    :func:`normalize_field_blocks` gives."""
    ids, data = load_matrix_file(path, expected_ids)
    with naming(path):
        matrix = EmbeddingMatrix(data, d, FIELD_ORDER, ids)  # every check, on the file's values
    if not normalize:
        return matrix
    blocks = data.reshape(-1, d)
    unit_rows(blocks, blocks)  # in place: each chunk is copied before it is written
    return replace(matrix, data=data)
