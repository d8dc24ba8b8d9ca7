"""Corpus model, I/O, binarization, splits, and synthetic data."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairaudit.dataset import (
    FIELD_ORDER,
    STAGES,
    DecisionVector,
    LatentRecord,
    Profile,
    RaterConfig,
    attach_stage_labels,
    binarize_labels,
    generate_synthetic_corpus,
    load_corpus,
    load_decisions,
    load_latents,
    load_split,
    save_corpus,
    save_decisions,
    save_latents,
    save_split,
    simulate_raters,
    split_corpus,
)
from fairaudit.errors import (
    IntegrityError,
    MissingLabelError,
    MissingLatentError,
    ParseError,
    SizeError,
)


FIELD_Q = {name: 0.5 for name in FIELD_ORDER[:4]}  # a valid latent field_q


def make_profile(pid, text="some text", labels=None, outcome=None, **fields):
    base = {name: text for name in FIELD_ORDER[:4]}
    base.update(fields)
    return Profile(pid, base, labels or {}, outcome)


def write_jsonl(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")


def simulate_raters_loop(profiles, latents, config) -> np.ndarray:
    """``simulate_raters`` one profile at a time: the reference for its array steps.
    Returns the (profiles x stages) 0/1 decisions."""
    weights = np.array([config.quality_weights.get(name, 0.0) for name in FIELD_ORDER[:4]])
    rng = np.random.default_rng(config.seed)
    n = len(profiles)
    noise = rng.normal(0.0, config.noise_sigma, (n, len(STAGES))) if n else np.zeros((0, 3))
    decisions = np.zeros((n, len(STAGES)), dtype=np.int64)
    for i, p in enumerate(profiles):
        rec = latents[p.id]
        field_q = np.array([rec.field_q[name] for name in FIELD_ORDER[:4]])
        base = np.average(field_q, weights=weights)
        shift = config.bias_shift.get(rec.group, 0.0)
        passing = True
        for s, threshold in enumerate(config.stage_thresholds):
            score = base + noise[i, s]
            passing = passing and (score >= threshold + shift)
            decisions[i, s] = 1 if passing else 0
    return decisions


class TestProfile:
    def test_combined_auto_derived(self):
        p = make_profile("A", GCEA="a", GCEO="b", PIQ="c", Leadership="d")
        assert p.fields["Combined"] == "a\nb\nc\nd"

    def test_explicit_combined_kept_verbatim(self):
        p = Profile("A", {"GCEA": "a", "Combined": "custom"})
        assert p.fields["Combined"] == "custom"

    def test_field_order_is_canonical(self):
        p = make_profile("A")
        assert tuple(p.fields) == FIELD_ORDER

    def test_empty_id_rejected(self):
        with pytest.raises(IntegrityError):
            Profile("", {"GCEA": "x"})


class TestLoadCorpus:
    def test_three_records_in_file_order(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"id": f"A{i}", "gcea": f"text {i}"} for i in range(3)])
        profiles = load_corpus(path)
        assert [p.id for p in profiles] == ["A0", "A1", "A2"]

    def test_missing_combined_derived(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"id": "A", "gcea": "g1", "gceo": "g2", "piq": "p", "leadership": "l"}])
        (profile,) = load_corpus(path)
        assert profile.fields["Combined"] == "g1\ng2\np\nl"

    def test_duplicate_id_cites_offender(self, tmp_path):
        path = tmp_path / "c.jsonl"
        records = [{"id": f"A{i}", "gcea": "t"} for i in range(7)]
        records[1]["id"] = "A1"
        records[6]["id"] = "A1"
        write_jsonl(path, records)
        with pytest.raises(IntegrityError, match="A1"):
            load_corpus(path)

    def test_malformed_record_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "A", "gcea": "t"}\nnot json\n')
        with pytest.raises(ParseError, match="line 2"):
            load_corpus(path)

    def test_unknown_stage_preserved_verbatim(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"id": "A", "gcea": "t", "labels": {"sl": "Shortlisted", "waitlist": "Deferred"}}])
        (profile,) = load_corpus(path)
        assert profile.labels == {"SL": "Shortlisted", "waitlist": "Deferred"}

    def test_csv_round_trip_with_embedded_newlines(self, tmp_path):
        original = [
            make_profile("A", PIQ="line one\nline two", labels={"SL": "Shortlisted"},
                         outcome="Offered"),
            make_profile("B", outcome="Not Offered"),
        ]
        path = tmp_path / "c.csv"
        save_corpus(original, path)
        loaded = load_corpus(path)
        assert [p.fields for p in loaded] == [p.fields for p in original]
        assert loaded[0].labels["SL"] == "Shortlisted"
        assert [p.outcome for p in loaded] == ["Offered", "Not Offered"]

    def test_jsonl_round_trip_identity(self, tmp_path):
        profiles = [
            make_profile("A", labels={"SL": "Shortlisted", "AR": "Not Recommended"},
                         outcome="Offered"),
            make_profile("B", GCEA="unicode éè", outcome="Not Offered"),
        ]
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        save_corpus(profiles, first)
        save_corpus(load_corpus(first), second)
        assert first.read_bytes() == second.read_bytes()
        assert load_corpus(second) == profiles

    @pytest.mark.parametrize("name", ["c.jsonl", "c.csv"])
    def test_labels_saved_under_one_key_are_rejected(self, tmp_path, name):
        """A stage label and an unknown label of the stage's file key would save as
        one key, and the reload would keep one of them."""
        profile = Profile("A", {"GCEA": "x"}, {"SL": "Shortlisted", "sl": "other"})
        with pytest.raises(IntegrityError, match="profile 'A': labels 'SL' and 'sl'"):
            save_corpus([make_profile("B"), profile], tmp_path / name)
        assert not (tmp_path / name).exists()

    @pytest.mark.parametrize("name, text, message", [
        ("c.jsonl", '{"id": "A", "gcea": "t"}\n[1]\n', "line 2: record is not an object"),
        ("c.jsonl", '"A"\n', "line 1: record is not an object"),
        ("c.jsonl", '{"gcea": "t"}\n', "line 1: missing or empty 'id'"),
        ("c.jsonl", '{"id": "", "gcea": "t"}\n', "line 1: missing or empty 'id'"),
        ("c.jsonl", '{"id": 5, "gcea": "t"}\n', "line 1: missing or empty 'id'"),
        ("c.jsonl", '{"id": "A", "gceo": 0}\n', "line 1: field 'gceo' must be a string"),
        ("c.jsonl", '{"id": "A", "piq": false}\n', "line 1: field 'piq' must be a string"),
        ("c.jsonl", '{"id": "A", "gcea": "t", "leadership": ["x"]}\n',
         "line 1: field 'leadership' must be a string"),
        ("c.jsonl", '{"id": "A", "combined": 5}\n', "line 1: field 'combined' must be a string"),
        ("c.jsonl", '{"id": "A", "combined": true}\n', "line 1: field 'combined' must be a string"),
        ("c.jsonl", '{"id": "A"}\n', "line 1: record 'A' carries no text fields"),
        ("c.jsonl", '{"id": "A", "gcea": null, "gceo": "", "combined": 0}\n',
         "line 1: record 'A' carries no text fields"),
        ("c.jsonl", '{"id": "A", "gcea": "t", "labels": []}\n', "line 1: 'labels' must be an object"),
        ("c.jsonl", '{"id": "A", "gcea": "t", "labels": 0}\n', "line 1: 'labels' must be an object"),
        ("c.jsonl", '{"id": "A", "gcea": "t", "labels": ""}\n', "line 1: 'labels' must be an object"),
        ("c.jsonl", '{"id": "A", "gcea": "t", "labels": {"sl": 1}}\n',
         "line 1: label 'sl' must be a string"),
        ("c.jsonl", '{"id": "A", "gcea": "t", "labels": {"waitlist": null}}\n',
         "line 1: label 'waitlist' must be a string"),
        ("c.jsonl", '{"id": "A", "gcea": "t", "type": 1}\n', "line 1: 'type' must be a string"),
        ("c.jsonl", '{"id": "A", "gcea": "t", "type": false}\n', "line 1: 'type' must be a string"),
        ("c.csv", "gcea,type\r\nt,Offered\r\n", "line 1: CSV must have a header row including 'id'"),
        ("c.csv", "", "line 1: CSV must have a header row including 'id'"),
        ("c.csv", "id,gcea\r\nA,t\r\n,u\r\n", "line 3: missing or empty 'id'"),
        ("c.csv", 'id,gcea\r\nA,"one\r\ntwo\r\nthree"\r\n,u\r\n', "line 5: missing or empty 'id'"),
        ("c.csv", "id,gcea\r\nA,t\r\n\r\n,u\r\n", "line 4: missing or empty 'id'"),
        ("c.csv", "id,gcea,combined\r\nA,,\r\n", "line 2: record 'A' carries no text fields"),
    ])
    def test_parse_rule_names_its_message_and_line(self, tmp_path, name, text, message):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8", newline="")
        with pytest.raises(ParseError) as info:
            load_corpus(path)
        assert str(info.value) == f"{path}: {message}"

    def test_null_text_falsy_combined_and_null_labels_read_as_absent(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [
            {"id": "A", "gcea": None, "gceo": "g", "combined": 0, "labels": None},
            {"id": "B", "piq": "p", "combined": False, "labels": {}, "type": None},
        ])
        assert load_corpus(path) == [make_profile("A", "", GCEO="g"), make_profile("B", "", PIQ="p")]

    def test_saved_bytes_are_pinned(self, tmp_path):
        """Non-ASCII text, an embedded newline, an unknown label key (kept only in
        JSONL), a profile without an outcome and an empty Combined field."""
        profiles = [
            Profile("A1", {"GCEA": "Élève naïve, 学生", "GCEO": "b", "PIQ": "c", "Leadership": "d"},
                    {"SL": "Shortlisted", "AR": "Not Recommended", "waitlist": "Deferred"},
                    "Offered"),
            Profile("B2", {"GCEA": "a", "PIQ": "line one\nline two", "Combined": 'own, "quoted"'},
                    {"OF": "Not Offered"}),
            Profile("C3", {"Leadership": "lead", "Combined": ""}, {}, "Not Offered"),
        ]
        golden = {
            "c.jsonl": (
                '{"combined":"Élève naïve, 学生\\nb\\nc\\nd","gcea":"Élève naïve, 学生","gceo":"b",'
                '"id":"A1","labels":{"ar":"Not Recommended","sl":"Shortlisted","waitlist":"Deferred"},'
                '"leadership":"d","piq":"c","type":"Offered"}\n'
                '{"combined":"own, \\"quoted\\"","gcea":"a","gceo":"","id":"B2",'
                '"labels":{"of":"Not Offered"},"leadership":"","piq":"line one\\nline two"}\n'
                '{"combined":"\\n\\n\\nlead","gcea":"","gceo":"","id":"C3","labels":{},'
                '"leadership":"lead","piq":"","type":"Not Offered"}\n'
            ),
            "c.csv": (
                "id,gcea,gceo,piq,leadership,combined,sl,ar,of,type\r\n"
                'A1,"Élève naïve, 学生",b,c,d,"Élève naïve, 学生\nb\nc\nd",'
                "Shortlisted,Not Recommended,,Offered\r\n"
                'B2,a,,"line one\nline two",,"own, ""quoted""",,,Not Offered,\r\n'
                'C3,,,,lead,"\n\n\nlead",,,,Not Offered\r\n'
            ),
        }
        for name, text in golden.items():
            save_corpus(profiles, tmp_path / name)
            assert (tmp_path / name).read_bytes() == text.encode("utf-8"), name


class TestBinarizeLabels:
    def test_offered_maps_to_one(self):
        profiles = [
            make_profile("A", labels={"OF": "Offered"}),
            make_profile("B", labels={"OF": "Not Offered"}),
            make_profile("C", labels={"OF": "Offered"}),
        ]
        vector = binarize_labels(profiles, "OF")
        assert list(vector.values) == [1, 0, 1]
        assert vector.index_order == ("A", "B", "C")

    def test_all_shortlisted_all_ones(self):
        profiles = [make_profile(f"P{i}", labels={"SL": "Shortlisted"}) for i in range(4)]
        assert list(binarize_labels(profiles, "SL").values) == [1, 1, 1, 1]

    def test_unknown_string_maps_to_zero(self):
        profiles = [make_profile("A", labels={"OF": "rejected-late"})]
        assert list(binarize_labels(profiles, "OF").values) == [0]

    def test_strict_mode_rejects_unknown(self):
        profiles = [make_profile("A", labels={"OF": "rejected-late"})]
        with pytest.raises(IntegrityError):
            binarize_labels(profiles, "OF", strict=True)

    def test_positive_token_is_stage_specific(self):
        # "Shortlisted" is not the positive token of the OF stage
        profiles = [make_profile("A", labels={"OF": "Shortlisted"})]
        assert list(binarize_labels(profiles, "OF").values) == [0]

    def test_missing_stage_lists_offenders(self):
        profiles = [make_profile("A", labels={"OF": "Offered"}), make_profile("B")]
        with pytest.raises(MissingLabelError, match="B"):
            binarize_labels(profiles, "OF")

    def test_type_uses_outcome(self):
        profiles = [make_profile("A", outcome="Offered"), make_profile("B", outcome="Not Offered")]
        assert list(binarize_labels(profiles, "Type").values) == [1, 0]

    @given(st.lists(st.sampled_from(["Offered", "Not Offered", "weird"]), min_size=1, max_size=30))
    def test_length_and_range(self, raw):
        profiles = [make_profile(f"P{i}", labels={"OF": label}) for i, label in enumerate(raw)]
        vector = binarize_labels(profiles, "OF")
        assert len(vector.values) == len(profiles)
        assert set(vector.values) <= {0, 1}


class TestSplitCorpus:
    def test_870_gives_696_87_87(self):
        # floor(0.8*870)=696, floor(0.1*870)=87, remainder 87
        assert (math.floor(0.8 * 870), math.floor(0.1 * 870)) == (696, 87)
        profiles = [make_profile(f"P{i}") for i in range(870)]
        split = split_corpus(profiles, seed=3)
        assert (len(split.train), len(split.validation), len(split.test)) == (696, 87, 87)

    def test_same_seed_identical(self):
        profiles = [make_profile(f"P{i}") for i in range(50)]
        assert split_corpus(profiles, seed=9) == split_corpus(profiles, seed=9)

    def test_n10_partition(self):
        profiles = [make_profile(f"P{i}") for i in range(10)]
        split = split_corpus(profiles, (0.8, 0.1, 0.1), seed=0)
        parts = [set(split.train), set(split.validation), set(split.test)]
        assert [len(p) for p in parts] == [8, 1, 1]
        assert set().union(*parts) == {p.id for p in profiles}
        assert parts[0] & parts[1] == parts[0] & parts[2] == parts[1] & parts[2] == set()

    def test_too_small_split_errors(self):
        profiles = [make_profile(f"P{i}") for i in range(5)]
        with pytest.raises(SizeError):
            split_corpus(profiles, (0.8, 0.1, 0.1), seed=0)

    def test_fewer_than_three_errors(self):
        with pytest.raises(SizeError):
            split_corpus([make_profile("A"), make_profile("B")])

    def test_bad_ratios_rejected(self):
        profiles = [make_profile(f"P{i}") for i in range(30)]
        with pytest.raises(ValueError):
            split_corpus(profiles, (0.5, 0.2, 0.2))

    def test_stratified_positive_rate(self):
        rng = np.random.default_rng(4)
        profiles = [
            make_profile(f"P{i}", outcome="Offered" if rng.random() < 0.3 else "Not Offered")
            for i in range(200)
        ]
        corpus_rate = np.mean([p.outcome == "Offered" for p in profiles])
        split = split_corpus(profiles, seed=1, stratify_on="Type")
        outcome = {p.id: p.outcome == "Offered" for p in profiles}
        for part in (split.train, split.validation, split.test):
            rate = np.mean([outcome[pid] for pid in part])
            assert abs(rate - corpus_rate) <= 1.0 / len(part) + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(3, 400), seed=st.integers(0, 2**31 - 1))
    def test_partition_property(self, n, seed):
        profiles = [make_profile(f"P{i}") for i in range(n)]
        sizes = (math.floor(0.8 * n), math.floor(0.1 * n))
        if min(sizes[0], sizes[1], n - sizes[0] - sizes[1]) < 1:
            with pytest.raises(SizeError):
                split_corpus(profiles, seed=seed)
            return
        split = split_corpus(profiles, seed=seed)
        parts = [set(split.train), set(split.validation), set(split.test)]
        assert (len(split.train), len(split.validation)) == sizes
        assert sum(len(p) for p in parts) == n
        assert set().union(*parts) == {p.id for p in profiles}

    def test_save_load_round_trip(self, tmp_path):
        profiles = [make_profile(f"P{i}") for i in range(30)]
        split = split_corpus(profiles, seed=2)
        save_split(split, tmp_path / "s.json")
        assert load_split(tmp_path / "s.json") == split


class TestSyntheticCorpus:
    def test_empty(self):
        profiles, latents = generate_synthetic_corpus(0, 40, seed=0)
        assert profiles == [] and latents == {}

    def test_deterministic(self, tmp_path):
        a_profiles, a_latents = generate_synthetic_corpus(100, 60, seed=11)
        b_profiles, b_latents = generate_synthetic_corpus(100, 60, seed=11)
        save_corpus(a_profiles, tmp_path / "a.jsonl")
        save_corpus(b_profiles, tmp_path / "b.jsonl")
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
        assert a_latents == b_latents

    def test_quality_outcome_correlation(self):
        profiles, latents = generate_synthetic_corpus(1000, 100, seed=5)
        q = np.array([latents[p.id].q for p in profiles])
        outcome = np.array([1.0 if p.outcome == "Offered" else 0.0 for p in profiles])
        assert np.array_equal(outcome, (q >= 0.5).astype(float))
        assert np.corrcoef(q, outcome)[0, 1] > 0.8

    def test_vocab_too_small(self):
        with pytest.raises(ValueError):
            generate_synthetic_corpus(5, 9, seed=0)

    def test_latents_round_trip(self, tmp_path):
        _, latents = generate_synthetic_corpus(20, 40, seed=3)
        save_latents(latents, tmp_path / "l.jsonl")
        assert load_latents(tmp_path / "l.jsonl") == latents

    def test_malformed_latent_record_is_a_parse_error_naming_its_line(self, tmp_path):
        path = tmp_path / "l.jsonl"
        write_jsonl(path, [{"id": "P0", "q": 0.5, "group": 1, "field_q": FIELD_Q},
                           {"id": "P1", "q": 0.5}])
        with pytest.raises(ParseError, match="line 2.*'group'"):
            load_latents(path)

    @pytest.mark.parametrize("key, value", [("q", "0.5"), ("q", None), ("group", 1.7),
                                            ("group", True), ("id", 3), ("field_q", {})])
    def test_mistyped_latent_value_is_a_parse_error_naming_its_line(self, tmp_path, key, value):
        path = tmp_path / "l.jsonl"
        write_jsonl(path, [{"id": "P0", "q": 0.5, "group": 1, "field_q": FIELD_Q},
                           {"id": "P1", "q": 0.5, "group": 1, "field_q": FIELD_Q, key: value}])
        with pytest.raises(ParseError, match=f"line 2.*'{key}'"):
            load_latents(path)

    @pytest.mark.parametrize("content", [b"[1\n", b'{"id": "P0"}\n', b'"\xff"\n'])
    def test_malformed_latents_error_starts_with_the_file(self, tmp_path, content):
        path = tmp_path / "l.jsonl"
        path.write_bytes(content)
        with pytest.raises(ParseError) as info:
            load_latents(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_repeated_latent_id_is_an_integrity_error_naming_the_file(self, tmp_path):
        path = tmp_path / "l.jsonl"
        write_jsonl(path, [{"id": "A", "q": 0.5, "group": 1, "field_q": FIELD_Q},
                           {"id": "A", "q": 0.7, "group": 0, "field_q": FIELD_Q}])
        with pytest.raises(IntegrityError, match=r"l\.jsonl.*\['A'\]"):
            load_latents(path)

    def test_group_absent_from_text(self):
        # flipping only the group draw cannot change the text, by construction:
        # the generator never consults the group when sampling tokens
        profiles, latents = generate_synthetic_corpus(50, 40, seed=7)
        groups = {latents[p.id].group for p in profiles}
        assert groups == {0, 1}


class TestSimulateRaters:
    def _corpus(self, n=200, seed=1):
        return generate_synthetic_corpus(n, 50, seed=seed)

    def test_noise_free_matches_outcome(self):
        profiles, latents = self._corpus()
        config = RaterConfig(noise_sigma=0.0, stage_thresholds=(0.5, 0.5, 0.5), seed=0)
        decisions = simulate_raters(profiles, latents, config)
        outcome = binarize_labels(profiles, "Type")
        assert np.array_equal(decisions["OF"].values, outcome.values)

    def test_positive_bias_shift_lowers_group_rate(self):
        profiles, latents = self._corpus(n=600, seed=2)
        config = RaterConfig(noise_sigma=0.1, bias_shift={1: 0.3}, seed=0)
        decisions = simulate_raters(profiles, latents, config)
        group = np.array([latents[p.id].group for p in profiles])
        for stage in STAGES:
            values = decisions[stage].values
            rate_0 = values[group == 0].mean()
            rate_1 = values[group == 1].mean()
            assert rate_1 < rate_0

    def test_cascade(self):
        profiles, latents = self._corpus(n=300, seed=3)
        config = RaterConfig(noise_sigma=0.4, seed=5)
        decisions = simulate_raters(profiles, latents, config)
        sl, ar, of = (decisions[s].values for s in STAGES)
        assert np.all(ar <= sl)
        assert np.all(of <= ar)

    @settings(max_examples=20, deadline=None)
    @given(sigma=st.floats(0, 1), seed=st.integers(0, 1000))
    def test_cascade_property(self, sigma, seed):
        profiles, latents = generate_synthetic_corpus(60, 40, seed=0)
        config = RaterConfig(noise_sigma=sigma, seed=seed)
        decisions = simulate_raters(profiles, latents, config)
        sl, ar, of = (decisions[s].values for s in STAGES)
        assert np.all(ar <= sl) and np.all(of <= ar)

    def test_missing_latents_precondition(self):
        profiles, latents = self._corpus(n=10)
        del latents[profiles[0].id]
        with pytest.raises(MissingLatentError):
            simulate_raters(profiles, latents, RaterConfig())

    def test_deterministic(self):
        profiles, latents = self._corpus(n=50)
        config = RaterConfig(noise_sigma=0.2, seed=9)
        a = simulate_raters(profiles, latents, config)
        b = simulate_raters(profiles, latents, config)
        for stage in STAGES:
            assert np.array_equal(a[stage].values, b[stage].values)

    def test_threshold_order_enforced(self):
        with pytest.raises(ValueError):
            RaterConfig(stage_thresholds=(0.6, 0.5, 0.4))

    @settings(max_examples=60, deadline=None)
    @given(
        field_q=st.lists(st.lists(st.floats(0, 1), min_size=4, max_size=4), max_size=30),
        groups=st.lists(st.integers(0, 2), min_size=30, max_size=30),
        weights=st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5]), min_size=4, max_size=4)
        .filter(any),
        sigma=st.sampled_from([0.0, 0.1, 0.25, 1.0]),
        shifts=st.dictionaries(st.integers(0, 2), st.floats(-0.5, 0.5), max_size=3),
        thresholds=st.lists(st.sampled_from([0.0, 0.3, 0.4, 0.5, 0.6]), min_size=3, max_size=3),
        seed=st.integers(0, 1000),
    )
    def test_matches_the_per_profile_loop(self, field_q, groups, weights, sigma, shifts,
                                          thresholds, seed):
        profiles = [make_profile(f"P{i}") for i in range(len(field_q))]
        latents = {
            p.id: LatentRecord(float(np.mean(q)), group, dict(zip(FIELD_ORDER[:4], q)))
            for p, q, group in zip(profiles, field_q, groups)
        }
        config = RaterConfig(dict(zip(FIELD_ORDER[:4], weights)), sigma, shifts,
                             tuple(sorted(thresholds)), seed)
        decisions = simulate_raters(profiles, latents, config)
        expected = simulate_raters_loop(profiles, latents, config)
        for s, stage in enumerate(STAGES):
            assert decisions[stage].values.tolist() == expected[:, s].tolist()

    def test_attach_stage_labels_round_trip(self):
        profiles, latents = self._corpus(n=40)
        decisions = simulate_raters(profiles, latents, RaterConfig(seed=2))
        labeled = attach_stage_labels(profiles, decisions)
        for stage in STAGES:
            recovered = binarize_labels(labeled, stage)
            assert np.array_equal(recovered.values, decisions[stage].values)


class TestDecisionVector:
    def test_rejects_non_binary(self):
        with pytest.raises(IntegrityError):
            DecisionVector("x", np.array([0, 2]), ("a", "b"))

    def test_rejects_duplicate_ids(self):
        with pytest.raises(IntegrityError):
            DecisionVector("x", np.array([0, 1]), ("a", "a"))

    def test_take_names_each_unknown_id_once(self):
        vector = DecisionVector("x", np.array([0, 1]), ("a", "b"))
        with pytest.raises(IntegrityError) as info:
            vector.take(["zz", "a", "zz", "yy"])
        assert str(info.value) == "2 ids not found, e.g. ['zz', 'yy']"

    def test_json_round_trip(self, tmp_path):
        vector = DecisionVector("human:SL", np.array([1, 0, 1]), ("a", "b", "c"))
        save_decisions(vector, tmp_path / "d.json")
        loaded = load_decisions(tmp_path / "d.json")
        assert loaded.source == vector.source
        assert loaded.index_order == vector.index_order
        assert np.array_equal(loaded.values, vector.values)
