"""End-to-end audit orchestration, comparison, and report rendering."""

import json
import os
import runpy
import tracemalloc
from dataclasses import asdict, fields, replace
from fnmatch import fnmatchcase
from pathlib import Path

import numpy as np
import pytest

from fairaudit import _util, cli
from fairaudit import audit as audit_module
from fairaudit.audit import (
    ALL_SOURCES,
    HUMAN_SOURCES,
    LEARNERS,
    MODEL_SOURCES,
    AuditConfig,
    AuditReport,
    ReportRow,
    compare_sources,
    embed_profiles,
    neighbor_pass,
    predict_decisions,
    render_report,
    run_audit,
)
from fairaudit.classifiers import KnnClassifier, TrainConfig, io, load_model
from fairaudit.dataset import (
    FIELD_ORDER,
    POSITIVE_LABEL,
    DecisionVector,
    RaterConfig,
    attach_stage_labels,
    generate_synthetic_corpus,
    load_corpus,
    load_decisions,
    load_split,
    save_corpus,
    simulate_raters,
)
from fairaudit.embed import (
    EmbeddingMatrix,
    embed_corpus,
    hash_embed_field,
    ingest_embeddings,
    save_embeddings,
)
from fairaudit.errors import IntegrityError, StageError
from fairaudit.fairness import consistency
from fairaudit.simindex import Selection, neighbors_from_dict, search

rundir_digest_main = runpy.run_path(
    str(Path(__file__).resolve().parents[1] / "scripts" / "rundir_digest.py"))["main"]


def make_corpus(tmp_path, n=120, seed=4, noise_sigma=0.25, bias_shift=None,
                thresholds=(0.4, 0.5, 0.6), rater_seed=5):
    profiles, latents = generate_synthetic_corpus(n, 100, seed=seed)
    config = RaterConfig(
        noise_sigma=noise_sigma,
        bias_shift=bias_shift or {},
        stage_thresholds=thresholds,
        seed=rater_seed,
    )
    decisions = simulate_raters(profiles, latents, config)
    profiles = attach_stage_labels(profiles, decisions)
    path = tmp_path / "corpus.jsonl"
    save_corpus(profiles, path)
    return path


def make_funnel_corpus(tmp_path):
    """``make_corpus``'s profiles, labelled as a funnel: a profile keeps its AR
    label only if it passed SL, and its OF label only if it passed AR."""
    funnel = []
    for p in load_corpus(make_corpus(tmp_path)):
        labels = dict(p.labels)
        if labels.get("SL") != POSITIVE_LABEL["SL"]:
            del labels["AR"]
        if labels.get("AR") != POSITIVE_LABEL["AR"]:
            del labels["OF"]
        funnel.append(replace(p, labels=labels))
    path = tmp_path / "funnel.jsonl"
    save_corpus(funnel, path)
    return path


def recompute_cells(out, report, profiles):
    """Check that each non-null C cell of ``report`` equals ``consistency``
    recomputed from the run directory ``out``: the source's saved decisions over
    the stage's population (the profiles that carry its label), on that stage's
    structure in neighbors.json. Returns the population of each stage that
    neighbors.json holds, and the number of cells checked."""
    stages = json.loads((out / "neighbors.json").read_text())["stages"]
    populations = {stage: [p.id for p in profiles if stage in p.labels] for stage in stages}
    for stage, ids in populations.items():
        assert [row["id"] for row in stages[stage]["rows"]] == ids
    checked = 0
    for row in report.rows:
        for stage in ("AR", "OF"):
            cell = getattr(row, f"c_{stage.lower()}")
            if cell is not None:
                decisions = load_decisions(out / f"decisions_{row.source.replace(':', '_')}.json")
                structure = neighbors_from_dict(stages[stage])
                assert cell == consistency(decisions.take(populations[stage]), structure).score
                checked += 1
    return populations, checked


def tree_bytes(root):
    """Every path under ``root``: a file's bytes, or None for a directory."""
    return {
        p.relative_to(root).as_posix(): p.read_bytes() if p.is_file() else None
        for p in root.rglob("*")
    }


def snapshot(path):
    """``tree_bytes(path)`` of a directory, a file's bytes otherwise."""
    return tree_bytes(path) if path.is_dir() else path.read_bytes()


def small_config(**kwargs):
    defaults = dict(d=16, k=5, seed=7, max_epochs=3, patience=3, rounds=20,
                    hidden_dim=8, head_dim=8)
    defaults.update(kwargs)
    return AuditConfig(**defaults)


def test_every_learner_family_is_a_saved_model_family():
    assert set(LEARNERS) == set(io._CLASSES)


class TestRunAudit:
    def test_six_rows_in_order_and_metadata(self, tmp_path):
        report = run_audit(make_corpus(tmp_path), small_config())
        assert tuple(r.source for r in report.rows) == ALL_SOURCES
        for key in ("k", "metric", "averaging", "d", "embedder", "ratios", "seed",
                    "derived_seeds", "corpus_size", "corpus_sha256", "metrics_split",
                    "consistency_split", "train", "timestamp"):
            assert report.metadata[key] is not None
        assert report.metadata["corpus_size"] == 120
        assert report.metadata["k"] == 5

    def test_metadata_records_every_config_field_but_the_embeddings_path(self, tmp_path):
        corpus = make_corpus(tmp_path)
        config = small_config(sources=("human:AR",))
        report = run_audit(corpus, config)
        metadata = report.metadata
        train = {f.name for f in fields(TrainConfig)} - {"seed"}
        top = {f.name for f in fields(AuditConfig)} - train - {"embeddings_path"}
        assert set(metadata) == top | {"train", "corpus_size", "corpus_sha256",
                                       "derived_seeds", "timestamp"}
        assert set(metadata["train"]) == train
        as_json = json.loads(json.dumps(asdict(config)))
        assert {name: metadata[name] for name in top} == {name: as_json[name] for name in top}
        assert metadata["train"] == {name: as_json[name] for name in train}
        truncated = run_audit(corpus, small_config(sources=("human:AR",), max_tokens=20))
        assert truncated.row("human:AR") != report.row("human:AR")
        assert truncated.metadata["max_tokens"] == 20 and metadata["max_tokens"] is None

    def test_noise_free_raters_score_perfectly(self, tmp_path):
        corpus = make_corpus(tmp_path, noise_sigma=0.0, thresholds=(0.5, 0.5, 0.5))
        report = run_audit(corpus, small_config())
        for source in ("human:SL", "human:AR", "human:OF"):
            assert report.row(source).accuracy == 1.0

    def test_deterministic_given_seeds(self, tmp_path):
        corpus = make_corpus(tmp_path)
        a = run_audit(corpus, small_config()).to_dict()
        b = run_audit(corpus, small_config()).to_dict()
        a["metadata"].pop("timestamp")
        b["metadata"].pop("timestamp")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_cell_layout_default(self, tmp_path):
        report = run_audit(make_corpus(tmp_path), small_config())
        assert report.row("human:SL").c_ar is None
        assert report.row("human:SL").c_of is None
        assert report.row("human:AR").c_ar is not None
        assert report.row("human:AR").c_of is None
        assert report.row("human:OF").c_of is not None
        for model in ("model:knn", "model:gbstumps", "model:birnn"):
            assert report.row(model).c_ar is not None
            assert report.row(model).c_of is not None

    def test_all_cells_mode(self, tmp_path):
        report = run_audit(make_corpus(tmp_path), small_config(consistency_cells="all"))
        assert report.row("human:SL").c_ar is not None
        assert report.row("human:AR").c_of is not None

    def test_every_numeric_cell_in_unit_interval(self, tmp_path):
        report = run_audit(make_corpus(tmp_path), small_config())
        for row in report.rows:
            for column in ("precision", "recall", "f1", "accuracy", "c_ar", "c_of"):
                value = getattr(row, column)
                assert value is None or 0.0 <= value <= 1.0

    def test_stage_tagged_failure(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n")
        with pytest.raises(StageError, match=r"\[load\]"):
            run_audit(bad, small_config())

    def test_corpus_without_human_labels_leaves_rows_absent(self, tmp_path):
        profiles, _ = generate_synthetic_corpus(60, 60, seed=1)
        path = tmp_path / "plain.jsonl"
        save_corpus(profiles, path)
        report = run_audit(path, small_config())
        row = report.row("human:AR")
        assert row.accuracy is None and row.c_ar is None
        assert report.row("model:gbstumps").accuracy is not None

    def test_run_dir_artifacts(self, tmp_path):
        corpus = make_corpus(tmp_path)
        out = tmp_path / "run"
        run_audit(corpus, small_config(), out_dir=out)
        for name in ("config.json", "corpus.sha256", "embeddings.faem", "splits.json",
                     "neighbors.json", "report.json", "report.csv", "report.md"):
            assert (out / name).exists(), name
        for model in ("knn", "gbstumps", "birnn"):
            assert (out / "models" / f"{model}.json").exists()
        neighbors = json.loads((out / "neighbors.json").read_text())
        assert set(neighbors["stages"]) == {"AR", "OF"}

    def test_failed_write_leaves_no_run_dir(self, tmp_path, monkeypatch):
        import fairaudit.audit as audit_module

        corpus = make_corpus(tmp_path)
        saved = []

        def save_then_fail(model, path):
            if saved:
                raise OSError("disk full")
            saved.append(path)
            audit_module.write_json(path, {})

        monkeypatch.setattr(audit_module, "save_model", save_then_fail)
        out = tmp_path / "runs" / "run"
        with pytest.raises(StageError, match=r"\[write\]"):
            run_audit(corpus, small_config(), out_dir=out)
        assert saved  # the failure came partway through the files
        assert not out.exists()
        assert list(out.parent.iterdir()) == []

    def test_value_float32_cannot_hold_fails_the_write(self, tmp_path):
        corpus = make_corpus(tmp_path)
        matrix = embed_corpus(load_corpus(corpus), d=16, seed=123)
        data = matrix.data.astype(np.float64)
        data[3, 5] = 1e300
        vectors = tmp_path / "ext.csv"
        vectors.write_text("".join(
            ",".join([pid, *map(repr, row.tolist())]) + "\n"
            for pid, row in zip(matrix.index_order, data)
        ))
        config = small_config(embedder="ingest", embeddings_path=str(vectors), normalize=False,
                              sources=HUMAN_SOURCES + ("model:knn",))
        out = tmp_path / "runs" / "run"
        with pytest.raises(StageError, match=r"\[embed\].*overflows float32"):
            run_audit(corpus, config, out_dir=out)
        assert not out.parent.exists()  # no run directory, no hidden sibling

    def test_a_rerun_replaces_the_prior_run_whole(self, tmp_path):
        corpus = make_corpus(tmp_path)
        out, fresh = tmp_path / "runs" / "out", tmp_path / "fresh"
        out.mkdir(parents=True)  # an empty directory receives a run
        run_audit(corpus, small_config(seed=1, search_trials=2), out_dir=out)
        assert (out / "models" / "search_log.json").exists()
        second = small_config(seed=2, sources=HUMAN_SOURCES)
        run_audit(corpus, second, out_dir=out)
        run_audit(corpus, second, out_dir=fresh)
        assert sorted(tree_bytes(out)) == sorted(tree_bytes(fresh))
        assert not list(out.rglob("search_log.json"))
        assert not list(out.glob("decisions_model_*.json"))
        assert rundir_digest_main([str(out), str(fresh)]) == 0
        assert [p.name for p in out.parent.iterdir()] == ["out"]

    def test_every_entry_a_run_writes_is_a_run_entry(self, tmp_path):
        out = tmp_path / "run"
        run_audit(make_corpus(tmp_path), small_config(search_trials=2), out_dir=out)
        entries = sorted(p.name for p in out.iterdir())
        assert {"models", "decisions_model_knn.json", "report.md"} <= set(entries)
        for name in entries:
            assert any(fnmatchcase(name, entry) for entry in audit_module._RUN_ENTRIES), name

    @pytest.mark.parametrize("kind", ["not-a-run", "no-report", "stray-file", "regular-file"])
    def test_an_out_dir_that_is_not_a_run_is_refused_and_kept(self, tmp_path, kind):
        corpus = make_corpus(tmp_path)
        out = tmp_path / "runs" / "out"
        if kind == "regular-file":
            out.parent.mkdir()
            out.write_text("mine")
        elif kind == "not-a-run":
            (out / "models").mkdir(parents=True)
            (out / "notes.txt").write_text("mine")
            (out / "report.md").write_text("old")
        else:
            run_audit(corpus, small_config(), out_dir=out)
            if kind == "no-report":
                (out / "report.json").unlink()
            else:
                (out / "notes.txt").write_text("mine")
        before = snapshot(out)
        with pytest.raises(StageError, match=r"\[write\].*neither empty nor a run directory"):
            run_audit(corpus, small_config(seed=8), out_dir=out)
        assert snapshot(out) == before
        assert [p.name for p in out.parent.iterdir()] == ["out"]

    @pytest.mark.parametrize("failing", ["a file", "the rename-in"])
    def test_a_failed_write_puts_the_prior_run_back(self, tmp_path, monkeypatch, failing):
        corpus = make_corpus(tmp_path)
        out = tmp_path / "runs" / "out"
        run_audit(corpus, small_config(), out_dir=out)
        before = snapshot(out)
        moved, real_replace = [], os.replace

        def fail_rename_in(src, dst):
            if Path(dst) == out and Path(src).name == "run":
                raise OSError("rename failed")
            moved.append(Path(src))
            real_replace(src, dst)

        if failing == "a file":
            monkeypatch.setattr(audit_module, "render_report", lambda *a: 1 / 0)
        else:
            monkeypatch.setattr(os, "replace", fail_rename_in)
        with pytest.raises(StageError, match=r"\[write\]"):
            run_audit(corpus, small_config(seed=8), out_dir=out)
        if failing == "the rename-in":
            assert moved[0] == out  # the prior run had been moved aside
        assert snapshot(out) == before
        assert [p.name for p in out.parent.iterdir()] == ["out"]

    def test_human_only_audit_writes_its_neighbor_structures(self, tmp_path):
        corpus = make_corpus(tmp_path)
        stages = {}
        for sources in (("human:AR", "human:OF"), ALL_SOURCES):
            out = tmp_path / str(len(sources))
            run_audit(corpus, small_config(sources=sources), out_dir=out)
            stages[sources] = json.loads((out / "neighbors.json").read_text())["stages"]
        assert set(stages[ALL_SOURCES]) == {"AR", "OF"}
        assert stages[("human:AR", "human:OF")] == stages[ALL_SOURCES]

    def test_funnel_corpus_scores_each_stage_on_its_population(self, tmp_path):
        corpus = make_funnel_corpus(tmp_path)
        profiles = load_corpus(corpus)
        out = tmp_path / "run"
        report = run_audit(corpus, small_config(), out_dir=out)
        populations, checked = recompute_cells(out, report, profiles)
        assert set(populations) == {"AR", "OF"}
        assert len(profiles) > len(populations["AR"]) > len(populations["OF"])
        assert checked == 2 + 2 * len(MODEL_SOURCES)
        assert any(report.row(s).c_ar != report.row(s).c_of for s in MODEL_SOURCES)

    @pytest.mark.parametrize("funnel, change", [
        (False, {}), (True, {}), (False, {"rerank": False}), (False, {"metric": "euclidean"}),
        (False, {"k": 4}),
    ], ids=["default", "funnel", "no-rerank", "euclidean", "even-k"])
    def test_knn_decisions_from_the_shared_pass_equal_the_saved_model_s(self, tmp_path, funnel,
                                                                         change):
        """run_audit takes the kNN's neighbors from the pass that finds the stage
        structures, whole-row from field parts when the stages rerank; its decisions
        equal those of the saved model's own search, ties and tied votes included."""
        corpus = (make_funnel_corpus if funnel else make_corpus)(tmp_path)
        out = tmp_path / "run"
        config = small_config(**change)
        run_audit(corpus, config, out_dir=out)
        model = load_model(out / "models" / "knn.json")
        ids = [p.id for p in load_corpus(corpus)]
        matrix = ingest_embeddings(out / "embeddings.faem", ids, config.d)
        want = predict_decisions(model, matrix)
        assert load_decisions(out / "decisions_model_knn.json").to_dict() == want.to_dict()
        if config.k % 2 == 0:  # some vote is tied, and goes to the nearest neighbor
            [(neighbors, _)] = search(matrix.data, model.reference, [Selection(4)], "cosine")
            votes = model.labels[neighbors]
            assert (votes.sum(axis=1) == 2).any()

    @pytest.mark.parametrize("funnel", [False, True], ids=["default", "funnel"])
    def test_consistency_of_one_stage_of_a_run_directory_gives_its_cell(self, tmp_path, funnel):
        """``fairaudit consistency --stage OF`` reads that stage of neighbors.json and
        the decisions of its ids: each report's C(OF) cell, bit for bit."""
        corpus = (make_funnel_corpus if funnel else make_corpus)(tmp_path)
        out = tmp_path / "run"
        report = run_audit(corpus, small_config(), out_dir=out)
        for source in ("model:knn", "human:OF"):
            name = source.replace(":", "_")
            argv = ["consistency", "--decisions", str(out / f"decisions_{name}.json"),
                    "--neighbors", str(out / "neighbors.json"), "--stage", "OF",
                    "--out", str(tmp_path / f"{name}.json")]
            assert cli.main(argv) == 0
            got = json.loads((tmp_path / f"{name}.json").read_text())["score"]
            assert got == report.row(source).c_of
        argv[argv.index("OF")] = "SL"
        assert cli.main(argv) == 2

    def test_a_source_that_leaves_a_population_undecided_gets_no_cell_there(self, tmp_path):
        profiles = [
            replace(p, labels={s: v for s, v in p.labels.items() if s != "SL" or i % 10})
            for i, p in enumerate(load_corpus(make_corpus(tmp_path)))
        ]
        corpus = tmp_path / "partial.jsonl"
        save_corpus(profiles, corpus)
        out = tmp_path / "run"
        report = run_audit(corpus, small_config(consistency_cells="all"), out_dir=out)
        assert (report.row("human:SL").c_ar, report.row("human:SL").c_of) == (None, None)
        populations, checked = recompute_cells(out, report, profiles)
        assert [len(ids) for ids in populations.values()] == [len(profiles)] * 2
        assert checked == 2 * (len(ALL_SOURCES) - 1)

    def test_metrics_split_scope_recorded_and_applied(self, tmp_path):
        corpus = make_corpus(tmp_path)
        full = run_audit(corpus, small_config(metrics_split="full"))
        test_only = run_audit(corpus, small_config())
        assert full.metadata["metrics_split"] == "full"
        assert test_only.metadata["metrics_split"] == "test"
        # scoring scopes of different sizes generally disagree
        assert full.row("model:knn").accuracy != test_only.row("model:knn").accuracy

    def test_ingest_embedder_path(self, tmp_path):
        from fairaudit.dataset import load_corpus
        from fairaudit.embed import embed_corpus, save_embeddings

        corpus = make_corpus(tmp_path)
        profiles = load_corpus(corpus)
        matrix = embed_corpus(profiles, d=16, seed=123)
        save_embeddings(matrix, tmp_path / "ext.faem")
        report = run_audit(
            corpus,
            small_config(embedder="ingest", embeddings_path=str(tmp_path / "ext.faem")),
        )
        assert report.metadata["embedder"] == "ingest"
        assert len(report.rows) == 6

    def test_an_ingest_audit_reads_no_text(self, tmp_path, monkeypatch):
        # it writes the run directory that reading the whole profiles wrote
        corpus = make_corpus(tmp_path)
        save_embeddings(embed_corpus(load_corpus(corpus), d=16, seed=5), tmp_path / "ext.faem")
        config = small_config(embedder="ingest", embeddings_path=str(tmp_path / "ext.faem"))
        with monkeypatch.context() as patch:
            patch.setattr(audit_module, "load_corpus_labels", load_corpus)
            run_audit(corpus, config, tmp_path / "with-text")

        def refuse(path):
            raise AssertionError("the text of an ingest audit's corpus was read")

        monkeypatch.setattr(audit_module, "load_corpus", refuse)
        run_audit(corpus, config, tmp_path / "no-text")
        assert rundir_digest_main([str(tmp_path / "with-text"), str(tmp_path / "no-text")]) == 0

    def test_no_rerank_option(self, tmp_path):
        corpus = make_corpus(tmp_path)
        report = run_audit(corpus, small_config(rerank=False))
        assert report.metadata["rerank"] is False

    def test_search_trials_path(self, tmp_path, monkeypatch):
        import fairaudit.audit as audit_module

        # every trial trains through the layer calls that the audit module's
        # globals resolve, where a tracer wraps them
        calls = {"train_stumps": 0, "birnn_train": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(audit_module, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(audit_module, name, counted)
        corpus = make_corpus(tmp_path)
        config = small_config(
            search_trials=2,
            search_space={"hidden_dim": [4, 8], "rounds": [10, 20], "learning_rate": (0.05, 0.3)},
        )
        out = tmp_path / "run_search"
        report = run_audit(corpus, config, out_dir=out)
        assert len(report.rows) == 6
        log = json.loads((out / "models" / "search_log.json").read_text())
        assert set(log) == {"model:gbstumps", "model:birnn"}
        assert len(log["model:gbstumps"]) == 2
        assert calls == {"train_stumps": 2, "birnn_train": 2}

    def test_a_knn_k_beyond_the_train_rows_fails_at_train(self, tmp_path):
        # 96 of the 120 profiles are train rows; each stage's 120 rows could serve k=100
        with pytest.raises(StageError, match=r"^\[train\] k=100 out of range \[1, 96\] "
                                             r"for 96 reference rows$"):
            run_audit(make_corpus(tmp_path), small_config(k=100))


class TestOneSplitOrderedMatrix:
    """run_audit embeds the profiles in split order, so every family fits on views of
    its one matrix, and still writes embeddings.faem and the decisions files in corpus
    order."""

    @staticmethod
    def capture(monkeypatch):
        """The matrices that ``embed_profiles`` returns, and ``(train, val, model)`` of
        each ``train_family`` call by family, as the audit module's globals make them."""
        embedded, fits = [], {}
        embed, train = audit_module.embed_profiles, audit_module.train_family

        def embed_profiles(*args):
            embedded.append(embed(*args))
            return embedded[-1]

        def train_family(family, train_rows, y_train, val_rows, y_val, config):
            model, trials = train(family, train_rows, y_train, val_rows, y_val, config)
            fits[family] = (train_rows, val_rows, model)
            return model, trials

        monkeypatch.setattr(audit_module, "embed_profiles", embed_profiles)
        monkeypatch.setattr(audit_module, "train_family", train_family)
        return embedded, fits

    def test_every_family_fits_on_views_of_the_audit_matrix(self, tmp_path, monkeypatch):
        embedded, fits = self.capture(monkeypatch)
        out = tmp_path / "run"
        run_audit(make_corpus(tmp_path), small_config(), out)
        (matrix,), split = embedded, load_split(out / "splits.json")
        assert matrix.index_order == split.train + split.validation + split.test
        assert set(fits) == set(LEARNERS)
        for family, (train_rows, val_rows, _) in fits.items():
            for rows, ids in ((train_rows, split.train), (val_rows, split.validation)):
                assert rows.index_order == ids, family
                assert np.shares_memory(rows.data, matrix.data), family
                assert not rows.data.flags.writeable, family
        knn = fits["knn"][2]
        assert knn.reference_ids == split.train
        assert np.shares_memory(knn.reference, matrix.data)

    def test_run_directory_files_keep_corpus_order(self, tmp_path, monkeypatch):
        embedded, _ = self.capture(monkeypatch)
        corpus, out = make_corpus(tmp_path), tmp_path / "run"
        run_audit(corpus, small_config(), out)
        ids = tuple(p.id for p in load_corpus(corpus))
        (matrix,) = embedded
        assert matrix.index_order != ids
        expected = tmp_path / "expected.faem"
        save_embeddings(matrix.take(ids), expected)
        assert (out / "embeddings.faem").read_bytes() == expected.read_bytes()
        for source in MODEL_SOURCES:
            path = out / f"decisions_{source.replace(':', '_')}.json"
            assert load_decisions(path).index_order == ids, source

    # peak traced memory over the matrix's bytes (N=1000, d=768, every source): with a
    # float32 unit copy of every field for the neighbor pass it read 2.60, the copy
    # 1.0 of that; a screen that reads the hashed (unit) field blocks in place reads
    # about 1.69. Embedding in corpus order, which copied the train rows out of the
    # matrix for the kNN model, read 3.40 before that.
    def test_audit_memory_holds_one_matrix(self, tmp_path, monkeypatch):
        embedded, _ = self.capture(monkeypatch)
        corpus = make_corpus(tmp_path, n=1000, seed=3, rater_seed=4)
        config = small_config(d=768, seed=2, max_epochs=1, patience=1, rounds=3, hidden_dim=4,
                              head_dim=4)
        tracemalloc.start()
        try:
            run_audit(corpus, config, tmp_path / "run")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        (matrix,) = embedded
        assert peak < 2.0 * matrix.data.nbytes, f"peak {peak / matrix.data.nbytes:.2f}x the matrix"


def bits(data):
    """The float64 bit patterns of ``data``."""
    return np.asarray(data, dtype=np.float64).view(np.uint64)


class TestEmbedProfiles:
    """embed_profiles gives the one set of rows every stage reads: float32 values,
    hashed blocks normalized once (by the embedder), chunking changing no bit."""

    @pytest.fixture(params=[5, 100], ids=["norm_elems_5", "norm_elems_100"])
    def profiles(self, request, tmp_path, monkeypatch):
        monkeypatch.setattr(_util, "_UNIT_ELEMS", request.param)
        return load_corpus(make_corpus(tmp_path, n=30))

    @pytest.mark.parametrize("normalize", [True, False])
    def test_hashed_rows_are_rounded_and_not_normalized_again(self, profiles, normalize):
        hashed = np.array([np.concatenate([hash_embed_field(p.fields[name], 8, 9)
                                           for name in FIELD_ORDER]) for p in profiles])
        got = embed_profiles(profiles, AuditConfig(d=8, normalize=normalize), 9).data
        assert got.dtype == np.float32
        assert np.array_equal(bits(got), bits(hashed.astype(np.float32)))
        assert not np.array_equal(got, hashed)  # the rounding moved some entries
        assert np.array_equal(bits(got), bits(embed_corpus(profiles, d=8, seed=9).data))

    @pytest.mark.parametrize("suffix", ["faem", "csv"])
    def test_ingested_rows_are_normalized_then_rounded(self, tmp_path, profiles, suffix):
        ids = [p.id for p in profiles]
        rng = np.random.default_rng(3)
        data = rng.standard_normal((len(ids), 40)) * np.exp(rng.uniform(-5, 5, (len(ids), 1)))
        data[2, :8] = 0.0  # a zero block stays zero
        path = tmp_path / f"ext.{suffix}"
        if suffix == "faem":
            save_embeddings(EmbeddingMatrix(data, 8, FIELD_ORDER, ids), path)
        else:
            path.write_text("".join(",".join([pid, *map(repr, row.tolist())]) + "\n"
                                    for pid, row in zip(ids, data)))
        stored = ingest_embeddings(path, ids, 8).data
        assert np.array_equal(bits(stored), bits(data.astype(np.float32)))  # rounded at read
        config = AuditConfig(d=8, embedder="ingest", embeddings_path=str(path))
        got = embed_profiles(profiles, config, 0).data
        blocks = stored.astype(np.float64).reshape(len(ids), 5, 8)
        norms = np.linalg.norm(blocks, axis=2, keepdims=True)
        normalized = np.divide(blocks, norms, out=blocks.copy(), where=norms > 0)
        normalized = normalized.reshape(len(ids), 40)  # the float64 unit blocks
        assert np.array_equal(bits(got), bits(normalized.astype(np.float32)))
        assert not np.array_equal(got, normalized)
        raw = embed_profiles(profiles, replace(config, normalize=False), 0).data
        assert np.array_equal(bits(raw), bits(stored))  # the file's rows, with no pass


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_default_hashed_rows_have_the_same_neighbors_without_the_rerank(seed):
    """At the default hashed config every field block is a unit vector and the field
    weights are equal, so the rerank, whole-row cosine and whole-row euclidean find
    the same neighbors (an audit's embed seed, N=870); their scores may round apart."""
    profiles, _ = generate_synthetic_corpus(870, 400, seed)
    config = AuditConfig(seed=seed)
    matrix = embed_profiles(profiles, config, _util.derive_seeds(seed, ("embed",))["embed"])
    everyone = [matrix.index_order]
    [want] = neighbor_pass(matrix, config, everyone)[0].values()
    for change in ({"rerank": False}, {"rerank": False, "metric": "euclidean"}):
        [got] = neighbor_pass(matrix, replace(config, **change), everyone)[0].values()
        assert np.array_equal(got.neighbors, want.neighbors), change


def test_neighbor_pass_refuses_a_knn_model_of_another_metric():
    ids = ("A", "B", "C")
    matrix = EmbeddingMatrix(np.eye(3), 3, ("f0",), ids)
    knn = KnnClassifier(1, "euclidean").fit(matrix, DecisionVector("truth", [0, 1, 0], ids))
    with pytest.raises(ValueError, match="the kNN model's metric 'euclidean' is not 'cosine'"):
        neighbor_pass(matrix, AuditConfig(rerank=False), [ids], knn)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_seed_name_draws_the_same_seed_whatever_else_is_asked(seed):
    every = _util.derive_seeds(seed, _util.SEED_NAMES)
    for name in _util.SEED_NAMES:
        assert _util.derive_seeds(seed, (name,)) == {name: every[name]}
    assert len(set(every.values())) == len(every)
    with pytest.raises(ValueError, match="'bootstrap'"):
        _util.derive_seeds(seed, ("split", "bootstrap"))


class TestAuditConfig:
    @pytest.mark.parametrize("values, message", [
        ({"d": 1}, "d must be >= 2"),
        ({"max_tokens": 0}, "max_tokens must be >= 1"),
        ({"k": 0}, "k must be >= 1"),
        ({"ratios": (0.5, 0.6, 0.1)}, "ratios must sum to 1"),
        ({"k": 0, "rerank": False}, "k must be >= 1"),
        ({"field_weights": (1.0, 1.0)}, "expected 5 field weights"),
        ({"field_weights": (1.0, -1.0, 1.0, 1.0, 1.0)}, "field weights must"),
        ({"field_weights": (0.0,) * 5}, "field weights must"),
        ({"field_weights": (1e308, 1e308, 1.0, 1.0, 1.0)}, "field weights must"),
        ({"embedder": "ingest", "embeddings_path": "e.faem", "d": 0}, "d must be >= 1"),
        ({"target_stage": "XX"}, "unknown stage 'XX'"),
        ({"stratify_on": "XX"}, "unknown stage 'XX'"),
        ({"sources": ("model:xgb",)}, "unknown sources \\['model:xgb'\\]"),
        ({"sources": ("human:AR", "human:AR")}, "name a source more than once"),
    ])
    def test_stage_checks_run_at_construction(self, values, message):
        with pytest.raises(ValueError, match=message):
            AuditConfig(**values)

    def test_values_a_stage_ignores_are_not_checked(self):
        # ingested vectors are neither hashed nor truncated, and only the rerank
        # takes field weights
        AuditConfig(embedder="ingest", embeddings_path="e.faem", d=1, max_tokens=0)
        AuditConfig(rerank=False, field_weights=(1.0,))


class TestCompareSources:
    def _fixture_report(self):
        rows = (
            ReportRow("human:AR", 0.8011, 0.8193, 0.8321, 0.8087, 0.5632, None),
            ReportRow("human:OF", None, None, None, None, None, 0.6023),
            ReportRow("model:birnn", 0.8291, 0.8178, 0.8176, 0.8276, 0.8073, 0.7797),
        )
        return AuditReport(rows, {"k": 5})

    def test_self_comparison_all_zero(self):
        report = self._fixture_report()
        deltas = compare_sources(report, "model:birnn", "model:birnn")
        for column in ("precision", "recall", "f1", "accuracy"):
            assert deltas[column] == 0.0
        assert deltas["c_ar_points"] == 0.0
        assert deltas["c_of_points"] == 0.0

    def test_consistency_delta_in_points(self):
        report = self._fixture_report()
        deltas = compare_sources(report, "model:birnn", "human:AR")
        assert deltas["c_ar_points"] == pytest.approx(24.41, abs=1e-9)
        deltas = compare_sources(report, "model:birnn", "human:OF")
        assert deltas["c_of_points"] == pytest.approx(17.74, abs=1e-9)

    def test_absent_cell_propagates_as_none(self):
        report = self._fixture_report()
        deltas = compare_sources(report, "model:birnn", "human:AR")
        assert deltas["c_of_points"] is None  # human:AR has no C(OF)
        deltas = compare_sources(report, "human:OF", "human:AR")
        assert deltas["precision"] is None

    def test_unknown_source_lists_available(self):
        report = self._fixture_report()
        with pytest.raises(IntegrityError, match="human:AR"):
            compare_sources(report, "model:xgb", "human:AR")


class TestRenderReport:
    def test_markdown_rounding(self):
        report = AuditReport((ReportRow("model:birnn", 0.80731, 1.0, 0.5, 0.25, None, None),), {})
        text = render_report(report, "markdown")
        assert "0.8073" in text
        assert "| - |" in text

    def test_empty_rows_header_only(self):
        text = render_report(AuditReport((), {}), "markdown")
        lines = text.strip().splitlines()
        assert lines[0].startswith("| Model | P | R | F1 | A | C(AR) | C(OF) |")
        assert len(lines) == 2  # header + separator, no data rows

    def test_json_round_trip(self):
        rows = (ReportRow("human:SL", 0.8464, 0.8418, 0.8156, 0.8155, None, None),)
        report = AuditReport(rows, {"k": 5, "seed": 3})
        parsed = AuditReport.from_dict(json.loads(render_report(report, "json")))
        assert parsed == report

    def test_csv_one_row_per_source(self):
        rows = (
            ReportRow("a", 0.1, 0.2, 0.3, 0.4, None, 0.5),
            ReportRow("b", None, None, None, None, None, None),
        )
        text = render_report(AuditReport(rows, {}), "csv")
        lines = text.strip().splitlines()
        assert lines[0] == "source,precision,recall,f1,accuracy,c_ar,c_of"
        assert len(lines) == 3
        assert lines[2] == "b,,,,,,"

    def test_json_full_precision(self):
        value = 0.123456789012345678
        report = AuditReport((ReportRow("x", value, None, None, None, None, None),), {})
        parsed = json.loads(render_report(report, "json"))
        assert parsed["rows"][0]["precision"] == value

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render_report(AuditReport((), {}), "xml")
