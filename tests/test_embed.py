"""Hashing embedder, corpus embedding, block layout, and matrix persistence."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairaudit import _util, embed
from fairaudit._util import check_float32
from fairaudit.audit import AuditConfig, embed_profiles
from fairaudit.dataset import (
    FIELD_ORDER,
    Profile,
    ProfileLabels,
    generate_synthetic_corpus,
)
from fairaudit.embed import (
    EmbeddingMatrix,
    embed_corpus,
    hash_embed_field,
    ingest_embeddings,
    load_matrix_file,
    normalize_field_blocks,
    save_embeddings,
)
from fairaudit.errors import (
    DimensionMismatchError,
    IdMismatchError,
    IntegrityError,
    NonFiniteError,
    ParseError,
)


def reference_hash_embed(text: str, d: int, seed: int) -> np.ndarray:
    """Straight-line reimplementation of the documented hashing recipe."""
    key = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    tokens = text.lower().split()
    grams = list(tokens)
    for i in range(len(tokens) - 1):
        grams.append(tokens[i] + " " + tokens[i + 1])
    vec = [0.0] * d
    for gram in grams:
        value = int.from_bytes(
            hashlib.blake2b(gram.encode("utf-8"), digest_size=8, key=key).digest(), "little"
        )
        vec[(value >> 1) % d] += 1.0 if value & 1 else -1.0
    norm = math.sqrt(sum(x * x for x in vec))
    if norm > 0:
        vec = [x / norm for x in vec]
    return np.array(vec)


class TestHashEmbedField:
    def test_empty_text_zero_vector(self):
        assert np.array_equal(hash_embed_field("", 16, 0), np.zeros(16))
        assert np.array_equal(hash_embed_field("   \n\t ", 16, 0), np.zeros(16))

    def test_deterministic_and_unit_norm(self):
        a = hash_embed_field("strong leadership record", 64, 3)
        b = hash_embed_field("strong leadership record", 64, 3)
        assert np.array_equal(a, b)
        assert abs(np.linalg.norm(a) - 1.0) < 1e-6

    def test_matches_reference_implementation(self):
        for text in ("", "one", "alpha beta gamma", "Mixed CASE tokens repeated tokens"):
            got = hash_embed_field(text, 128, 42)
            expected = reference_hash_embed(text, 128, 42)
            assert np.array_equal(got, expected)

    def test_disjoint_vocabularies_near_orthogonal(self):
        rng = np.random.default_rng(0)
        text_a = " ".join(rng.choice([f"alpha{i}" for i in range(150)], 250))
        text_b = " ".join(rng.choice([f"beta{i}" for i in range(150)], 250))
        a = hash_embed_field(text_a, 4096, 7)
        b = hash_embed_field(text_b, 4096, 7)
        expected = float(reference_hash_embed(text_a, 4096, 7) @ reference_hash_embed(text_b, 4096, 7))
        assert abs(float(a @ b) - expected) < 1e-12
        assert abs(float(a @ b)) < 0.1

    def test_seed_changes_vector(self):
        a = hash_embed_field("alpha beta", 64, 0)
        b = hash_embed_field("alpha beta", 64, 1)
        assert not np.array_equal(a, b)

    def test_max_tokens_truncation(self):
        full = hash_embed_field("a b c d e f", 32, 0)
        truncated = hash_embed_field("a b c d e f", 32, 0, max_tokens=3)
        assert np.array_equal(truncated, hash_embed_field("a b c", 32, 0))
        assert not np.array_equal(truncated, full)

    def test_d_too_small(self):
        with pytest.raises(ValueError):
            hash_embed_field("x", 1, 0)

    @pytest.mark.parametrize("max_tokens", [0, -1])
    def test_max_tokens_below_one_is_rejected(self, max_tokens):
        # -1 used to slice off each field's last token
        with pytest.raises(ValueError, match="max_tokens"):
            hash_embed_field("a b c d", 16, 0, max_tokens=max_tokens)
        profile = Profile("A", {name: "a b c d" for name in FIELD_ORDER[:4]})
        with pytest.raises(ValueError, match="max_tokens"):
            embed_corpus([profile], 16, 0, max_tokens)

    @settings(max_examples=50, deadline=None)
    @given(st.text(alphabet=st.characters(codec="utf-8"), max_size=80), st.integers(2, 256))
    def test_norm_property(self, text, d):
        vec = hash_embed_field(text, d, 0)
        norm = np.linalg.norm(vec)
        assert norm == 0.0 or abs(norm - 1.0) < 1e-6


class TestEmbedCorpus:
    def _profiles(self):
        return [
            Profile("A", {"GCEA": "alpha one", "GCEO": "beta two", "PIQ": "gamma",
                          "Leadership": "delta club"}),
            Profile("B", {"GCEA": "epsilon", "GCEO": "zeta", "PIQ": "eta", "Leadership": "theta"}),
        ]

    def test_shape_and_block_layout(self):
        profiles = self._profiles()
        matrix = embed_corpus(profiles, d=8, seed=5)
        assert matrix.data.shape == (2, 40)
        combined_block = matrix.field_block(4)
        assert np.array_equal(
            combined_block[0],
            hash_embed_field(profiles[0].fields["Combined"], 8, 5).astype(np.float32),
        )

    def test_default_dimension_gives_3840(self):
        matrix = embed_corpus(self._profiles()[:1])
        assert matrix.data.shape == (1, 3840)
        assert matrix.dim_per_field == 768

    def test_all_empty_fields_zero_row(self):
        profile = Profile("A", {"GCEA": "", "GCEO": "", "PIQ": "", "Leadership": "",
                                "Combined": " "})
        # whitespace-only Combined keeps every block empty
        matrix = embed_corpus([profile], d=8, seed=0)
        assert np.array_equal(matrix.data[0], np.zeros(40))

    def test_block_reconcat_identity(self):
        matrix = embed_corpus(self._profiles(), d=8, seed=1)
        rebuilt = np.hstack([matrix.field_block(f) for f in range(5)])
        assert np.array_equal(rebuilt, matrix.data)

    def test_sequence_view_matches_blocks(self):
        matrix = embed_corpus(self._profiles(), d=8, seed=1)
        seqs = matrix.as_field_sequences()
        assert seqs.shape == (2, 5, 8)
        for f in range(5):
            assert np.array_equal(seqs[:, f], matrix.field_block(f))

    def test_empty_corpus(self):
        assert embed_corpus([], d=8, seed=0).data.shape == (0, 40)

    def test_records_read_without_text_are_refused(self):
        # hashing them as empty text would give zero rows without a word
        records = [*self._profiles(), ProfileLabels("C", {}, "Offered")]
        with pytest.raises(TypeError, match=r"1 records hold no text to hash .*\['C'\]"):
            embed_corpus(records, d=8)
        with pytest.raises(TypeError, match="no text to hash"):
            embed_profiles(records, AuditConfig(d=8), seed=0)

    def test_chunk_size_does_not_change_result(self, monkeypatch):
        # where the texts are cut into chunks is the one thing that could move a bit
        profiles, _ = generate_synthetic_corpus(12, 40, seed=2)
        profiles.append(Profile("empty", {}))
        default = embed_corpus(profiles, d=16, seed=0)
        for size in (1, 100, 1000):
            monkeypatch.setattr(embed, "_CHUNK_ENTRIES", size)
            assert np.array_equal(embed_corpus(profiles, d=16, seed=0).data, default.data)

    def test_working_memory_is_bounded(self):
        # the whole corpus tokenised and scattered at once would take about 60 MB
        profiles, _ = generate_synthetic_corpus(1000, 400, seed=3)
        tracemalloc.start()
        try:
            matrix = embed_corpus(profiles, d=768, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - matrix.data.nbytes < 32 * 2**20

    def test_short_texts_do_not_share_one_large_block(self):
        # a one-word or empty text counts its d float64 bucket entries: counted as
        # one token, 32768 of them shared one block of about 200 MB at d=768
        profiles = [Profile(f"P{i}", {"GCEA": f"word{i % 50}"}) for i in range(8000)]
        tracemalloc.start()
        try:
            matrix = embed_corpus(profiles, d=768, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - matrix.data.nbytes < 32 * 2**20

    @settings(max_examples=100, deadline=None)
    @given(
        st.data(),
        st.integers(2, 256),
        st.none() | st.integers(1, 8),
        st.integers(0, 2**64 + 8),
        st.sampled_from([1, 20, 300, embed._CHUNK_ENTRIES]),
    )
    def test_matches_the_reference_bit_for_bit(self, data, d, max_tokens, seed, chunk):
        text = st.text(st.characters(codec="utf-8"), max_size=12)
        # words shared by every field, so grams repeat within and across profiles
        words = data.draw(st.lists(text, min_size=1, max_size=5))
        field = text | st.lists(st.sampled_from(words), max_size=10).map(" ".join)
        n = data.draw(st.integers(1, 4))
        profiles = [Profile(f"P{i}", dict(zip(FIELD_ORDER[:4], data.draw(st.lists(
            field, min_size=4, max_size=4))))) for i in range(n)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(embed, "_CHUNK_ENTRIES", chunk)
            got = embed_corpus(profiles, d, seed, max_tokens).data
            one = hash_embed_field(profiles[0].fields["GCEA"], d, seed, max_tokens)
        expected = np.array([
            np.concatenate([
                reference_hash_embed(" ".join(p.fields[name].lower().split()[:max_tokens]), d, seed)
                for name in FIELD_ORDER
            ])
            for p in profiles
        ])
        assert got.tobytes() == expected.astype(np.float32).tobytes()
        assert one.tobytes() == expected[0, :d].tobytes()

    def test_take_of_the_whole_order_is_the_matrix_itself(self):
        matrix = embed_corpus(self._profiles(), d=8, seed=1)
        assert matrix.take(list(matrix.index_order)) is matrix
        swapped = matrix.take(["B", "A"])
        assert np.array_equal(swapped.data, matrix.data[::-1])

    @pytest.mark.parametrize("at, view", [
        ([1, 2, 3], True), ([0], True), ([4, 5], True),
        ([1, 3], False), ([3, 2], False), ([2, 3, 1], False), ([], False),
    ])
    def test_take_of_a_contiguous_run_is_a_read_only_view(self, at, view):
        ids = tuple(f"P{i}" for i in range(6))
        data = np.arange(6 * 10, dtype=np.float32).reshape(6, 10)
        matrix = EmbeddingMatrix(data, 2, FIELD_ORDER, ids)
        rows = matrix.take([ids[i] for i in at])
        assert np.shares_memory(rows.data, matrix.data) == view
        assert not rows.data.flags.writeable
        assert np.array_equal(rows.data, matrix.data[at])
        assert rows.index_order == tuple(ids[i] for i in at)


class TestNormalizeFieldBlocks:
    def test_unit_blocks_unchanged(self):
        matrix = embed_corpus([Profile("A", {"GCEA": "a b", "GCEO": "c", "PIQ": "d",
                                             "Leadership": "e"})], d=8, seed=0)
        normalized = normalize_field_blocks(matrix)
        assert np.allclose(normalized.data, matrix.data, atol=1e-12)

    def test_chunked_norms_keep_every_bit(self, monkeypatch):
        column_scales = 10.0 ** np.arange(-6, 6, 0.1)
        data = np.random.default_rng(4).standard_normal((50, 5 * 24)) * column_scales
        data[3, :24] = 0.0
        matrix = EmbeddingMatrix(data, 24, FIELD_ORDER, tuple(f"P{i}" for i in range(50)))
        blocks = matrix.data.astype(np.float64).reshape(50, 5, 24)
        norms = np.linalg.norm(blocks, axis=2, keepdims=True)  # one pass over everything
        want = np.divide(blocks, norms, out=blocks.copy(), where=norms > 0).reshape(50, -1)
        want = want.astype(np.float32)  # normalized in float64, stored as float32
        for elems in (1, 7, 24, 1000, _util._UNIT_ELEMS):
            monkeypatch.setattr(_util, "_UNIT_ELEMS", elems)
            assert normalize_field_blocks(matrix).data.tobytes() == want.tobytes()

    def test_working_memory_is_a_few_chunks(self):
        matrix = EmbeddingMatrix(np.random.default_rng(5).standard_normal((1000, 3840)), 768,
                                 FIELD_ORDER, tuple(f"P{i}" for i in range(1000)))
        tracemalloc.start()
        try:
            normalized = normalize_field_blocks(matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the output, plus chunk temporaries far below it (norm over all rows at
        # once squared a full-size copy: 2.0x the output beyond it)
        assert peak - normalized.data.nbytes < normalized.data.nbytes / 4

    def test_scales_each_block(self):
        data = np.zeros((1, 10))
        data[0, :5] = [3.0, 4.0, 0, 0, 0]  # norm 5
        matrix = EmbeddingMatrix(data, 5, ("X", "Y"), ("A",))
        normalized = normalize_field_blocks(matrix)
        assert np.allclose(normalized.data[0, :5], [0.6, 0.8, 0, 0, 0])
        assert np.array_equal(normalized.data[0, 5:], np.zeros(5))


class TestPersistence:
    def _matrix(self, n=3, d=4):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((n, d * 5))
        return EmbeddingMatrix(data, d, FIELD_ORDER, tuple(f"P{i}" for i in range(n)))

    def test_faem_round_trip(self, tmp_path):
        matrix = self._matrix()
        save_embeddings(matrix, tmp_path / "m.faem")
        ids, data = load_matrix_file(tmp_path / "m.faem")
        assert ids == list(matrix.index_order)
        # float32 storage
        assert np.array_equal(data, matrix.data.astype(np.float32).astype(np.float64))

    def test_saved_rows_keep_the_bytes(self, tmp_path):
        matrix = self._matrix(n=7)
        save_embeddings(matrix, tmp_path / "m.faem")
        raw = (tmp_path / "m.faem").read_bytes()
        assert raw.endswith(matrix.data.astype("<f4").tobytes())
        assert len(raw) == 22 + 7 * (4 + 2) + matrix.data.size * 4  # header, ids "Pi", data

    def test_save_makes_no_copy_of_the_rows(self, tmp_path):
        # the float32 rows are written as they are held, in one write
        matrix = self._matrix(n=1000, d=768)
        tracemalloc.start()
        try:
            save_embeddings(matrix, tmp_path / "m.faem")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"peak {peak / 2**20:.2f} MiB for {matrix.data.nbytes / 2**20:.0f} MiB"

    def test_ingest_identity(self, tmp_path):
        matrix = self._matrix()
        save_embeddings(matrix, tmp_path / "m.faem")
        loaded = ingest_embeddings(tmp_path / "m.faem", matrix.index_order, 4)
        assert loaded.data.shape == matrix.data.shape
        assert loaded.index_order == matrix.index_order

    def test_ingest_reorders_rows(self, tmp_path):
        matrix = self._matrix(n=2)
        save_embeddings(matrix, tmp_path / "m.faem")  # stored order P0, P1
        loaded = ingest_embeddings(tmp_path / "m.faem", ("P1", "P0"), 4)
        stored = matrix.data.astype(np.float32).astype(np.float64)
        assert np.array_equal(loaded.data[0], stored[1])
        assert np.array_equal(loaded.data[1], stored[0])

    def test_dimension_error_names_both(self, tmp_path):
        matrix = self._matrix(d=4)  # width 20
        save_embeddings(matrix, tmp_path / "m.faem")
        with pytest.raises(DimensionMismatchError, match="15.*20|20.*15"):
            ingest_embeddings(tmp_path / "m.faem", matrix.index_order, 3)

    def test_id_mismatch(self, tmp_path):
        matrix = self._matrix()
        save_embeddings(matrix, tmp_path / "m.faem")
        with pytest.raises(IdMismatchError):
            ingest_embeddings(tmp_path / "m.faem", ("P0", "P1", "WRONG"), 4)

    def test_non_finite_rejected(self, tmp_path):
        data = np.zeros((1, 20))
        data[0, 3] = np.nan
        path = tmp_path / "m.csv"
        path.write_text("P0," + ",".join(str(x) for x in data[0]) + "\n")
        with pytest.raises(NonFiniteError):
            ingest_embeddings(path, ("P0",), 4)

    def test_csv_fallback(self, tmp_path):
        path = tmp_path / "m.csv"
        rows = [f"P{i}," + ",".join(str(float(j + i)) for j in range(10)) for i in range(2)]
        path.write_text("\n".join(rows) + "\n")
        loaded = ingest_embeddings(path, ("P0", "P1"), 2)
        assert loaded.data.shape == (2, 10)
        assert loaded.data[1, 0] == 1.0

    def test_matrix_rejects_nan_at_construction(self):
        data = np.zeros((1, 10))
        data[0, 0] = np.inf
        with pytest.raises(NonFiniteError):
            EmbeddingMatrix(data, 2, FIELD_ORDER, ("A",))

    def test_matrix_rejects_duplicate_ids(self):
        with pytest.raises(IntegrityError, match=r"\['A'\]"):
            EmbeddingMatrix(np.zeros((3, 10)), 2, FIELD_ORDER, ("A", "B", "A"))

    @pytest.mark.parametrize("shape", [(3,), (1, 1, 3), ()])
    def test_matrix_refuses_data_that_is_not_2d(self, shape):
        with pytest.raises(DimensionMismatchError, match=f"expected 2, got {len(shape)}"):
            EmbeddingMatrix(np.ones(shape, np.float32), 1, ("a",), ("x", "y", "z"))

    @pytest.mark.parametrize("dim_per_field", [0, -1])
    def test_matrix_refuses_a_field_width_below_one(self, dim_per_field):
        with pytest.raises(ValueError, match=f"dim_per_field must be >= 1, got {dim_per_field}"):
            EmbeddingMatrix(np.zeros((3, 0)), dim_per_field, FIELD_ORDER, ("A", "B", "C"))

    def _shuffled_file(self, path, n, d):
        """A ``.faem`` file of n random rows whose ids are stored in shuffled order,
        its rows in that order, and the corpus order ``P0..P{n-1}``."""
        rng = np.random.default_rng(11)
        ids = tuple(f"P{i}" for i in range(n))
        stored = rng.permutation(n)
        data = rng.standard_normal((n, 5 * d), np.float32) * np.exp(rng.uniform(-3, 3, (n, 1)))
        data[stored[0], :d] = 0.0  # a zero block stays zero
        matrix = EmbeddingMatrix(data, d, FIELD_ORDER, ids)
        save_embeddings(matrix.take([ids[i] for i in stored]), path)
        return matrix

    @pytest.mark.parametrize("read_elems", [1, 7, 40, 1 << 17])
    @pytest.mark.parametrize("normalize", [False, True])
    def test_shuffled_file_is_read_into_corpus_order(self, tmp_path, monkeypatch, read_elems,
                                                     normalize):
        monkeypatch.setattr(embed, "_READ_ELEMS", read_elems)
        path = tmp_path / "m.faem"
        matrix = self._shuffled_file(path, 9, 4)
        want = normalize_field_blocks(matrix) if normalize else matrix
        loaded = ingest_embeddings(path, matrix.index_order, 4, normalize)
        assert loaded.index_order == matrix.index_order
        assert np.array_equal(loaded.data.view(np.uint32), want.data.view(np.uint32))
        assert not loaded.data.flags.writeable
        cut = tmp_path / "cut.faem"
        cut.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(ParseError, match="too few values"):
            ingest_embeddings(cut, matrix.index_order, 4, normalize)

    def test_ingest_of_a_shuffled_file_holds_one_matrix(self, tmp_path):
        # a reordered copy of the file's rows, or a normalized one, would take
        # twice the rows
        path = tmp_path / "m.faem"
        matrix = self._shuffled_file(path, 1000, 1024)
        profiles = [Profile(pid, {"Combined": "x"}) for pid in matrix.index_order]
        config = AuditConfig(d=1024, embedder="ingest", embeddings_path=str(path))
        tracemalloc.start()
        try:
            got = embed_profiles(profiles, config, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * got.data.nbytes, f"peak {peak / got.data.nbytes:.2f}x the rows"
        want = normalize_field_blocks(matrix).data
        assert np.array_equal(got.data.view(np.uint32), want.view(np.uint32))

    def test_ingest_rejects_duplicate_ids(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("".join(f"{pid}," + ",".join(["0.5"] * 10) + "\n" for pid in "ABA"))
        with pytest.raises(IntegrityError, match=r"\['A'\]"):
            ingest_embeddings(path, ("A", "B"), 2)

    def test_ingest_rejects_a_repeated_corpus_id(self, tmp_path):
        save_embeddings(self._matrix(), tmp_path / "m.faem")
        with pytest.raises(IntegrityError, match=r"\['P0'\]"):
            ingest_embeddings(tmp_path / "m.faem", ("P0", "P1", "P2", "P0"), 4)

    @staticmethod
    def _write(matrix, path):
        """``matrix`` as a ``.faem`` file, or as a CSV file whose values read back
        as the same float32 values."""
        if path.suffix == ".faem":
            save_embeddings(matrix, path)
        else:
            path.write_text("".join(",".join([pid, *map(repr, row.tolist())]) + "\n"
                                    for pid, row in zip(matrix.index_order, matrix.data)))

    @pytest.mark.parametrize("read_elems", [1, 7, 40, 1 << 17])
    @pytest.mark.parametrize("suffix", [".faem", ".csv"])
    def test_a_shuffled_superset_gives_the_asked_rows(self, tmp_path, monkeypatch, read_elems,
                                                      suffix):
        monkeypatch.setattr(embed, "_READ_ELEMS", read_elems)
        rng = np.random.default_rng(12)
        stored = EmbeddingMatrix(rng.standard_normal((13, 20), np.float32), 4, FIELD_ORDER,
                                 tuple(f"P{i}" for i in rng.permutation(13)))
        path = tmp_path / f"m{suffix}"
        self._write(stored, path)
        asked = tuple(f"P{i}" for i in rng.permutation(13)[:6])
        want = stored.take(asked).data.view(np.uint32)
        ids, data = load_matrix_file(path, asked)
        assert ids == list(asked) and np.array_equal(data.view(np.uint32), want)
        loaded = ingest_embeddings(path, asked, 4)
        assert loaded.index_order == asked
        assert np.array_equal(loaded.data.view(np.uint32), want)

    @pytest.mark.parametrize("read_elems", [1, 7, 40, 1 << 17])
    def test_a_write_in_another_order_gives_the_bytes_of_the_taken_rows(self, tmp_path,
                                                                        monkeypatch, read_elems):
        monkeypatch.setattr(embed, "_READ_ELEMS", read_elems)
        rng = np.random.default_rng(13)
        matrix = EmbeddingMatrix(rng.standard_normal((13, 20), np.float32), 4, FIELD_ORDER,
                                 tuple(f"P{i}" for i in range(13)))
        want, got = tmp_path / "want.faem", tmp_path / "got.faem"
        for order in (tuple(f"P{i}" for i in rng.permutation(13)), ("P3", "P1"),
                      matrix.index_order, ()):
            save_embeddings(matrix.take(order), want)
            save_embeddings(matrix, got, order)
            assert got.read_bytes() == want.read_bytes(), order
        for order, message in ((("P1", "P1"), r"\['P1'\]"), (("P1", "Q"), "ids not found")):
            with pytest.raises(IntegrityError, match=message):
                save_embeddings(matrix, tmp_path / "refused.faem", order)
        assert not (tmp_path / "refused.faem").exists()

    def test_a_write_in_another_order_holds_no_second_matrix(self, tmp_path):
        data = np.random.default_rng(14).standard_normal((1000, 5 * 768), np.float32)
        matrix = EmbeddingMatrix(data, 768, FIELD_ORDER, tuple(f"P{i}" for i in range(1000)))
        order = matrix.index_order[::-1]
        tracemalloc.start()
        try:
            save_embeddings(matrix, tmp_path / "m.faem", order)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * data.nbytes, f"peak {peak / data.nbytes:.2f}x the matrix"
        ids, rows = load_matrix_file(tmp_path / "m.faem")
        assert ids == list(order) and np.array_equal(rows, data[::-1])

    @pytest.mark.parametrize("suffix", [".faem", ".csv"])
    def test_an_asked_id_the_file_lacks_names_the_file(self, tmp_path, suffix):
        path = tmp_path / f"m{suffix}"
        self._write(self._matrix(), path)
        for read in (lambda: load_matrix_file(path, ("P2", "nobody", "P0")),
                     lambda: ingest_embeddings(path, ("P2", "nobody", "P0"), 4)):
            with pytest.raises(IdMismatchError, match=r"\['nobody'\]") as info:
                read()
            assert str(info.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("suffix", [".faem", ".csv"])
    @pytest.mark.parametrize("asked", [None, ("A", "C"), ("B", "C"), ("C", "B", "A", "D")])
    def test_a_repeated_file_id_is_refused_asked_or_not(self, tmp_path, suffix, asked):
        path = tmp_path / f"m{suffix}"
        self._write(EmbeddingMatrix(np.zeros((4, 5)), 1, FIELD_ORDER, ("A", "B", "D", "C")),
                    path)
        raw = path.read_bytes()
        repeat = (b"\x01\x00\x00\x00D", b"\x01\x00\x00\x00A") if suffix == ".faem" else \
            (b"D,", b"A,")
        path.write_bytes(raw.replace(*repeat, 1))  # ids A, B, A, C
        with pytest.raises(IntegrityError, match=r"\['A'\]$") as info:
            load_matrix_file(path, asked)
        assert str(info.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("suffix", [".faem", ".csv"])
    def test_a_repeated_asked_id_is_refused(self, tmp_path, suffix):
        path = tmp_path / f"m{suffix}"
        self._write(self._matrix(), path)
        with pytest.raises(IntegrityError, match=r"\['P1'\]$"):
            load_matrix_file(path, ("P1", "P0", "P1"))

    # the least magnitude that rounds to inf as float32
    OVERFLOW = 2.0**128 - 2.0**103

    @pytest.mark.parametrize("value", [OVERFLOW, -OVERFLOW, 1e300])
    def test_value_float32_cannot_hold_is_refused_before_the_file(self, tmp_path, value):
        matrix = self._matrix()
        data = matrix.data.astype(np.float64)
        data[1, 2] = value
        with pytest.raises(NonFiniteError, match="overflows float32"):
            save_embeddings(EmbeddingMatrix(data, 4, FIELD_ORDER, matrix.index_order),
                            tmp_path / "m.faem")
        assert not (tmp_path / "m.faem").exists()

    def test_matrix_refuses_a_value_float32_cannot_hold(self):
        data = np.zeros((2, 10))
        data[1, 3] = 1e39
        with pytest.raises(NonFiniteError, match="1e\\+39 overflows float32"):
            EmbeddingMatrix(data, 2, FIELD_ORDER, ("A", "B"))

    def test_load_reads_one_float32_array(self, tmp_path):
        rng = np.random.default_rng(7)
        ids = tuple(f"P{i}" for i in range(1000))
        matrix = EmbeddingMatrix(rng.standard_normal((1000, 3840), np.float32), 768,
                                 FIELD_ORDER, ids)
        save_embeddings(matrix, tmp_path / "m.faem")
        tracemalloc.start()
        try:
            loaded_ids, data = load_matrix_file(tmp_path / "m.faem")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert data.dtype == np.float32 and loaded_ids == list(ids)
        assert peak < 1.25 * data.nbytes, f"peak {peak / data.nbytes:.2f}x the rows"
        assert np.array_equal(data, matrix.data)
        wrapped = EmbeddingMatrix(data, 768, FIELD_ORDER, ids)  # C-contiguous float32
        assert np.shares_memory(wrapped.data, data)
        assert not wrapped.data.flags.writeable and data.flags.writeable

    @pytest.mark.parametrize("others", [[], [np.nan], [np.inf], [-np.inf, np.nan]])
    def test_overflow_is_found_beside_nan_and_inf(self, others):
        check_float32(np.array(others + [1.0]))  # NaN and inf themselves are not refused
        with pytest.raises(NonFiniteError, match="1e\\+300"):
            check_float32(np.array(others + [-1e300, 1.0]))

    @pytest.mark.parametrize("value", [float(np.finfo(np.float32).max),
                                       np.nextafter(OVERFLOW, 0.0)])
    def test_largest_float32_values_are_stored(self, tmp_path, value):
        matrix = self._matrix()
        data = matrix.data.astype(np.float64)
        data[1, 2], data[2, 3] = value, -value
        save_embeddings(EmbeddingMatrix(data, 4, FIELD_ORDER, matrix.index_order),
                        tmp_path / "m.faem")
        _, loaded = load_matrix_file(tmp_path / "m.faem")
        assert (loaded[1, 2], loaded[2, 3]) == (np.finfo(np.float32).max,
                                                -np.finfo(np.float32).max)
        assert np.array_equal(loaded, data.astype(np.float32).astype(np.float64))
