"""Command-line surface: subcommands, exit codes, artifact chaining."""

import base64
import json
import runpy
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from fairaudit import cli as cli_module
from fairaudit._util import write_json
from fairaudit.audit import (
    AuditConfig,
    embed_profiles,
    run_audit,
    train_family,
    training_rows,
)
from fairaudit.classifiers import BoostedStumps, Stump, TrainConfig, save_model
from fairaudit.cli import SUBCOMMANDS, _config, build_parser, main
from fairaudit.dataset import (
    FIELD_ORDER,
    RaterConfig,
    SplitAssignment,
    binarize_labels,
    load_corpus,
    load_split,
    save_split,
)
from fairaudit.embed import EmbeddingMatrix, load_matrix_file, save_embeddings

rundir_digest_main = runpy.run_path(
    str(Path(__file__).resolve().parents[1] / "scripts" / "rundir_digest.py"))["main"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def corpus(tmp_path, capsys):
    path = tmp_path / "corpus.jsonl"
    code, _, err = run(
        capsys, "synth", "--n", "90", "--seed", "3", "--noise-sigma", "0.2",
        "--bias-shift", "1=0.2", "--out-corpus", str(path),
    )
    assert code == 0, err
    return path


class TestExitCodes:
    def test_help_exits_zero_everywhere(self, capsys):
        assert run(capsys, "--help")[0] == 0
        for sub in SUBCOMMANDS:
            code, out, _ = run(capsys, sub, "--help")
            assert code == 0, sub
            assert "--" in out  # flags documented

    def test_missing_required_flag_is_usage_error(self, capsys):
        code, _, err = run(capsys, "audit", "--out", "somewhere")
        assert code == 1
        assert "usage" in err.lower()
        assert "--corpus" in err

    def test_unknown_flag_suggests(self, capsys):
        code, _, err = run(capsys, "synth", "--n", "5", "--out-corpus", "x.jsonl", "--sed", "7")
        assert code == 1
        assert "--seed" in err

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_no_arguments(self, capsys):
        assert run(capsys, )[0] == 1

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "split", "--corpus", str(tmp_path / "nope.jsonl"),
                           "--out", str(tmp_path / "s.json"))
        assert code == 2

    def test_corrupt_corpus_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json}\n")
        code, _, err = run(capsys, "split", "--corpus", str(bad),
                           "--out", str(tmp_path / "s.json"))
        assert code == 2
        assert "error" in err.lower()


    def test_undecodable_corpus_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b'{"id": "P1", "gcea": "a \xff b"}\n')
        code, _, err = run(capsys, "split", "--corpus", str(bad),
                           "--out", str(tmp_path / "s.json"))
        assert code == 2
        assert len(err.strip().splitlines()) == 1


class TestRejectedValues:
    """A value the library rejects is a one-line usage error on every subcommand."""

    @pytest.mark.parametrize("argv", [
        "synth --n -1 --out-corpus {tmp}/c.jsonl",
        "synth --n 5 --noise-sigma -1 --out-corpus {tmp}/c.jsonl",
        "synth --n 5 --vocab-size 3 --out-corpus {tmp}/c.jsonl",
        "synth --n 5 --thresholds 0.6,0.5,0.4 --out-corpus {tmp}/c.jsonl",
        "synth --n 5 --no-labels --thresholds 0.6,0.5,0.4 --noise-sigma -1"
        " --out-corpus {tmp}/c.jsonl",
        "split --corpus {corpus} --ratios 0.5,0.6,0.1 --out {tmp}/s.json",
        "embed --corpus {corpus} --d 1 --out {tmp}/e.faem",
        "embed --corpus {corpus} --d 8 --max-tokens 0 --out {tmp}/e.faem",
        "embed --corpus {corpus} --d 8 --out {tmp}/e.faem --neighbors-out {tmp}/n.json --k 0",
        "synth --n 5 --noise-sigma nan --out-corpus {tmp}/c.jsonl",
        # --k is a config field on every subcommand that takes it, so it is checked
        # without --neighbors-out and for a family that does not use it
        "embed --corpus {corpus} --d 8 --k 0 --out {tmp}/e.faem",
        "train --family stumps --corpus {corpus} --embeddings {tmp}/e.faem --splits {tmp}/s.json"
        " --k 0 --out {tmp}/m.json",
        "train --family birnn --corpus {corpus} --embeddings {tmp}/e.faem --splits {tmp}/s.json"
        " --lr nan --out {tmp}/m.json",
        "embed --corpus {corpus} --embedder ingest --embeddings {tmp}/x.faem --d 0"
        " --out {tmp}/e.faem",
        "train --family stumps --corpus {corpus} --embeddings {tmp}/e.faem --splits {tmp}/s.json"
        " --d 0 --out {tmp}/m.json",
        # split and predict check their config before they open a file
        "split --corpus {tmp}/missing.jsonl --stratify-on XX --out {tmp}/s.json",
        "predict --model {tmp}/missing.json --embeddings {tmp}/x.faem --d 0 --out {tmp}/p.json",
    ])
    def test_rejected_value_exits_one(self, tmp_path, corpus, capsys, argv):
        code, _, err = run(capsys, *argv.format(tmp=tmp_path, corpus=corpus).split())
        assert code == 1, err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith(f"fairaudit {argv.split()[0]}: error: ")

    def test_trials_out_of_a_family_that_is_not_searched(self, tmp_path, corpus, capsys):
        # the embeddings and splits do not exist: the flag is refused before they are read
        code, _, err = run(capsys, "train", "--family", "knn", "--corpus", str(corpus),
                           "--embeddings", str(tmp_path / "e.faem"), "--splits",
                           str(tmp_path / "s.json"), "--search-trials", "3",
                           "--out", str(tmp_path / "m.json"), "--trials-out",
                           str(tmp_path / "t.json"))
        assert code == 1, err
        assert err == "fairaudit train: error: --trials-out: family 'knn' is not searched\n"
        assert not (tmp_path / "t.json").exists() and not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("family", ["stumps", "birnn"])
    def test_trials_out_without_a_search(self, tmp_path, corpus, capsys, family):
        # at the default --search-trials 1 no search runs, so no trial log would be written
        code, _, err = run(capsys, "train", "--family", family, "--corpus", str(corpus),
                           "--embeddings", str(tmp_path / "e.faem"), "--splits",
                           str(tmp_path / "s.json"), "--out", str(tmp_path / "m.json"),
                           "--trials-out", str(tmp_path / "t.json"))
        assert code == 1, err
        assert err == (f"fairaudit train: error: --trials-out: family {family!r} is not "
                       "searched at --search-trials 1\n")
        assert not (tmp_path / "t.json").exists() and not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--k", "0", "--rerank"], "k must be >= 1"),
        (["--k", "0", "--no-rerank"], "k must be >= 1"),
    ], ids=["--rerank", "--no-rerank"])
    def test_embed_rejects_k_before_writing_the_matrix(self, tmp_path, corpus, capsys, flags,
                                                       message):
        code, _, err = run(capsys, "embed", "--corpus", str(corpus), "--d", "8", "--out",
                           str(tmp_path / "e.faem"), "--neighbors-out", str(tmp_path / "n.json"),
                           *flags)
        assert code == 1, err
        assert message in err
        assert not (tmp_path / "e.faem").exists()

    def test_embed_k_the_corpus_cannot_serve_writes_neither_file(self, tmp_path, capsys):
        corpus, emb, neighbors = tmp_path / "c.jsonl", tmp_path / "e.faem", tmp_path / "n.json"
        code, _, err = run(capsys, "synth", "--n", "60", "--seed", "1",
                           "--out-corpus", str(corpus))
        assert code == 0, err
        code, _, err = run(capsys, "embed", "--corpus", str(corpus), "--d", "8", "--k", "100",
                           "--neighbors-out", str(neighbors), "--out", str(emb))
        assert code == 2, err
        assert err == "error: k=100 out of range [1, 59] for 60 reference rows\n"
        assert not emb.exists() and not neighbors.exists()

    def test_train_refuses_a_knn_k_beyond_its_train_rows(self, tmp_path, corpus, capsys):
        emb, splits, model = tmp_path / "e.faem", tmp_path / "s.json", tmp_path / "m.json"
        assert run(capsys, "embed", "--corpus", str(corpus), "--d", "8", "--out", str(emb))[0] == 0
        assert run(capsys, "split", "--corpus", str(corpus), "--out", str(splits))[0] == 0
        train = ["train", "--family", "knn", "--corpus", str(corpus), "--embeddings", str(emb),
                 "--splits", str(splits), "--d", "8", "--out", str(model)]
        code, _, err = run(capsys, *train, "--k", "73")  # 72 of the 90 profiles are train rows
        assert code == 2, err
        assert err == "error: k=73 out of range [1, 72] for 72 reference rows\n"
        assert not model.exists()
        code, _, err = run(capsys, *train, "--k", "72")
        assert code == 0, err
        assert run(capsys, "predict", "--model", str(model), "--embeddings", str(emb), "--d", "8",
                   "--out", str(tmp_path / "p.json"))[0] == 0

    @pytest.mark.parametrize("flags", [
        ["--epochs", "2", "--patience", "5"], ["--search-trials", "0"], ["--batch-size", "0"],
        # values a pipeline stage checks, by the stage's own check function
        ["--d", "1"], ["--k", "0"], ["--k", "0", "--no-rerank"], ["--max-tokens", "0"],
        ["--ratios", "0.5,0.6,0.1"], ["--ratios", "1.2,-0.1,-0.1"],
        # NaN, infinite or negative learner rates, learner sizes below 1, NaN ratios
        ["--lr", "nan"], ["--lr", "inf"], ["--lr", "-0.1"], ["--reg-lambda", "-1"],
        ["--reg-lambda", "nan"], ["--rounds", "-1"], ["--rounds", "0"], ["--hidden-dim", "0"],
        ["--head-dim", "0"], ["--ratios", "nan,0.5,0.5"],
        # a stage name or an ingest width that no data can satisfy
        ["--target", "XX"], ["--stratify-on", "XX"],
        ["--embedder", "ingest", "--embeddings", "x.faem", "--d", "0"],
    ])
    def test_audit_rejects_its_config_before_reading_the_corpus(self, tmp_path, capsys, flags):
        code, _, err = run(capsys, "audit", "--corpus", str(tmp_path / "missing.jsonl"),
                           "--out", str(tmp_path / "run"), *flags)
        assert code == 1, err
        assert len(err.strip().splitlines()) == 1


class TestPipelineChain:
    def test_full_chain(self, tmp_path, corpus, capsys):
        emb = tmp_path / "emb.faem"
        neighbors = tmp_path / "nn.json"
        code, _, err = run(
            capsys, "embed", "--corpus", str(corpus), "--d", "12", "--seed", "1",
            "--out", str(emb), "--neighbors-out", str(neighbors), "--k", "5",
        )
        assert code == 0, err
        assert emb.exists() and neighbors.exists()

        splits = tmp_path / "splits.json"
        assert run(capsys, "split", "--corpus", str(corpus), "--seed", "2",
                   "--out", str(splits))[0] == 0
        split_obj = json.loads(splits.read_text())
        assert len(split_obj["train"]) == 72  # floor(0.8 * 90)

        models = {}
        for family in ("knn", "stumps", "birnn"):
            out = tmp_path / f"{family}.json"
            code, _, err = run(
                capsys, "train", "--family", family, "--corpus", str(corpus),
                "--embeddings", str(emb), "--splits", str(splits), "--d", "12",
                "--epochs", "3", "--patience", "3", "--rounds", "15",
                "--hidden-dim", "8", "--head-dim", "8", "--seed", "4",
                "--out", str(out),
            )
            assert code == 0, (family, err)
            models[family] = out

        decisions = tmp_path / "pred.json"
        code, _, err = run(capsys, "predict", "--model", str(models["stumps"]),
                           "--embeddings", str(emb), "--d", "12", "--out", str(decisions))
        assert code == 0, err
        pred_obj = json.loads(decisions.read_text())
        assert len(pred_obj["values"]) == 90

        # truth decisions from the corpus outcome, via a tiny JSON fixture
        from fairaudit.dataset import binarize_labels, load_corpus
        truth = binarize_labels(load_corpus(corpus), "Type")
        truth_path = tmp_path / "truth.json"
        write_json(truth_path, truth.to_dict())
        code, out, err = run(capsys, "metrics", "--predicted", str(decisions),
                             "--truth", str(truth_path), "--averaging", "weighted")
        assert code == 0, err
        assert "accuracy=" in out

        code, out, err = run(capsys, "consistency", "--decisions", str(decisions),
                             "--neighbors", str(neighbors))
        assert code == 0, err
        score = float(out.strip())
        assert 0.0 <= score <= 1.0

    def test_predict_with_birnn_model(self, tmp_path, corpus, capsys):
        emb = tmp_path / "e.faem"
        splits = tmp_path / "s.json"
        model = tmp_path / "m.json"
        run(capsys, "embed", "--corpus", str(corpus), "--d", "8", "--out", str(emb))
        run(capsys, "split", "--corpus", str(corpus), "--out", str(splits))
        code, _, err = run(capsys, "train", "--family", "birnn", "--corpus", str(corpus),
                           "--embeddings", str(emb), "--splits", str(splits), "--d", "8",
                           "--epochs", "2", "--patience", "2", "--hidden-dim", "4",
                           "--head-dim", "4", "--out", str(model))
        assert code == 0, err
        out_path = tmp_path / "p.json"
        assert run(capsys, "predict", "--model", str(model), "--embeddings", str(emb),
                   "--d", "8", "--out", str(out_path))[0] == 0

    @pytest.mark.parametrize("family", ["stumps", "birnn"])
    def test_train_fits_on_views_of_one_split_ordered_matrix(self, tmp_path, corpus, capsys,
                                                              monkeypatch, family):
        emb, splits = tmp_path / "e.faem", tmp_path / "s.json"
        run(capsys, "embed", "--corpus", str(corpus), "--d", "8", "--out", str(emb))
        run(capsys, "split", "--corpus", str(corpus), "--out", str(splits))
        embedded, fits = [], []
        embed, train = cli_module.embed_profiles, cli_module.train_family

        def embed_profiles(*args):
            embedded.append(embed(*args))
            return embedded[-1]

        def train_family(family, train_rows, y_train, val_rows, y_val, config):
            fits.append((train_rows, val_rows))
            return train(family, train_rows, y_train, val_rows, y_val, config)

        monkeypatch.setattr(cli_module, "embed_profiles", embed_profiles)
        monkeypatch.setattr(cli_module, "train_family", train_family)
        code, _, err = run(capsys, "train", "--family", family, "--corpus", str(corpus),
                           "--embeddings", str(emb), "--splits", str(splits), "--d", "8",
                           "--rounds", "2", "--epochs", "1", "--patience", "1", "--hidden-dim",
                           "4", "--head-dim", "4", "--out", str(tmp_path / "m.json"))
        assert code == 0, err
        (matrix,), ((train_rows, val_rows),) = embedded, fits
        split = load_split(splits)
        # train ids, then the validation ids if the fit reads them: no other row is read
        validation = split.validation if family == "birnn" else ()
        assert matrix.index_order == split.train + validation
        for rows, ids in ((train_rows, split.train), (val_rows, validation)):
            assert rows.index_order == ids and not rows.data.flags.writeable
            assert np.shares_memory(rows.data, matrix.data) == bool(ids)

    def test_train_with_search_trials(self, tmp_path, corpus, capsys):
        emb = tmp_path / "e.faem"
        splits = tmp_path / "s.json"
        run(capsys, "embed", "--corpus", str(corpus), "--d", "8", "--out", str(emb))
        run(capsys, "split", "--corpus", str(corpus), "--out", str(splits))
        model = tmp_path / "m.json"
        trials = tmp_path / "trials.json"
        code, _, err = run(capsys, "train", "--family", "stumps", "--corpus", str(corpus),
                           "--embeddings", str(emb), "--splits", str(splits), "--d", "8",
                           "--rounds", "10", "--search-trials", "3", "--seed", "1",
                           "--out", str(model), "--trials-out", str(trials))
        assert code == 0, err
        log = json.loads(trials.read_text())
        assert len(log) == 3

    def test_train_search_names_the_errors_when_every_trial_fails(self, tmp_path, corpus,
                                                                  capsys):
        profiles = load_corpus(corpus)
        truth = binarize_labels(profiles, "Type")
        negatives = [pid for pid, v in zip(truth.index_order, truth.values) if v == 0]
        others = [pid for pid in truth.index_order if pid not in negatives[:40]]
        splits = tmp_path / "s.json"
        save_split(SplitAssignment(tuple(negatives[:40]), tuple(others), (), 0, (0.5, 0.5, 0.0)),
                   splits)
        emb = tmp_path / "e.faem"
        run(capsys, "embed", "--corpus", str(corpus), "--d", "8", "--out", str(emb))
        trials = tmp_path / "t.json"
        code, _, err = run(capsys, "train", "--family", "stumps", "--corpus", str(corpus),
                           "--embeddings", str(emb), "--splits", str(splits), "--d", "8",
                           "--search-trials", "3", "--out", str(tmp_path / "m.json"),
                           "--trials-out", str(trials))
        assert code == 2
        assert "every search trial failed" in err and "single class" in err
        assert "trial log" not in err


class TestTrainOnSplitOrder:
    """CLI train reads the matrix in split order and fits on views of its rows."""

    FLAGS = ["--rounds", "3", "--epochs", "1", "--patience", "1", "--hidden-dim", "4",
             "--head-dim", "4"]
    LEARNER_FIELDS = dict(rounds=3, max_epochs=1, patience=1, hidden_dim=4, head_dim=4)

    @staticmethod
    def shuffled_faem(path, ids, data, d):
        """``data``, the rows of ``ids``, stored in a shuffled order."""
        perm = np.random.default_rng(8).permutation(len(ids))
        save_embeddings(EmbeddingMatrix(data[perm], d, FIELD_ORDER, tuple(ids[i] for i in perm)),
                        path)

    @pytest.mark.parametrize("family", ["knn", "stumps", "birnn"])
    def test_model_is_the_one_fit_on_corpus_order_rows(self, tmp_path, corpus, capsys, family):
        emb, shuffled, splits = tmp_path / "e.faem", tmp_path / "x.faem", tmp_path / "s.json"
        run(capsys, "embed", "--corpus", str(corpus), "--d", "8", "--out", str(emb))
        run(capsys, "split", "--corpus", str(corpus), "--seed", "5", "--out", str(splits))
        self.shuffled_faem(shuffled, *load_matrix_file(emb), 8)
        out = tmp_path / "m.json"
        code, _, err = run(capsys, "train", "--family", family, "--corpus", str(corpus),
                           "--embeddings", str(shuffled), "--splits", str(splits), "--d", "8",
                           "--seed", "6", *self.FLAGS, "--out", str(out))
        assert code == 0, err
        config = AuditConfig(d=8, seed=6, embedder="ingest", embeddings_path=str(shuffled),
                             normalize=False, **self.LEARNER_FIELDS)
        profiles = load_corpus(corpus)
        matrix = embed_profiles(profiles, config, config.seed)  # in corpus order
        rows = training_rows(matrix, binarize_labels(profiles, "Type"), load_split(splits))
        assert not np.shares_memory(rows[0].data, matrix.data)  # copies, not views
        expected = tmp_path / "expected.json"
        save_model(train_family(family, *rows, config)[0], expected)
        assert out.read_bytes() == expected.read_bytes()

    # peak traced memory over the matrix's bytes: copies of the train and validation
    # rows out of the full matrix read 2.29 (stumps), 2.12 (birnn) and 2.12 (knn);
    # fits on views of them 1.86, 1.24 and 1.16; reading no text, and no validation
    # rows for the families whose fit does not read them, 1.60, 1.09 and 0.91
    @pytest.mark.parametrize("family, bound", [("stumps", 1.7), ("birnn", 1.15),
                                               ("knn", 1.0)])
    def test_train_memory_stays_near_one_matrix(self, tmp_path, capsys, family, bound):
        corpus, splits, emb = tmp_path / "c.jsonl", tmp_path / "s.json", tmp_path / "e.faem"
        run(capsys, "synth", "--n", "1000", "--seed", "3", "--out-corpus", str(corpus))
        run(capsys, "split", "--corpus", str(corpus), "--out", str(splits))
        ids = [p.id for p in load_corpus(corpus)]
        data = np.random.default_rng(0).standard_normal((1000, 768 * 5), dtype=np.float32)
        self.shuffled_faem(emb, ids, data, 768)
        tracemalloc.start()
        try:
            code, _, err = run(capsys, "train", "--family", family, "--corpus", str(corpus),
                               "--embeddings", str(emb), "--splits", str(splits), "--d", "768",
                               *self.FLAGS, "--out", str(tmp_path / "m.json"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0, err
        assert peak < bound * data.nbytes, f"peak {peak / data.nbytes:.2f}x the matrix"


class TestStageFlags:
    """The synth, embed, split, train, predict and metrics flags that set a config field."""

    TRAIN_FIELDS = {f.name for f in fields(TrainConfig)} - {"search_space"}

    @pytest.mark.parametrize("argv, carried", [
        (["embed", "--corpus", "c", "--out", "e"],
         {"seed", "embedder", "d", "embeddings_path", "max_tokens", "normalize", "k", "metric",
          "rerank"}),
        (["split", "--corpus", "c", "--out", "s"], {"seed", "ratios", "stratify_on"}),
        (["train", "--family", "knn", "--corpus", "c", "--embeddings", "e", "--splits", "s",
          "--out", "m"], {"embeddings_path", "target_stage", "k", "metric", "d", *TRAIN_FIELDS}),
        (["predict", "--model", "m", "--embeddings", "e", "--out", "p"],
         {"embeddings_path", "d"}),
        (["metrics", "--predicted", "p", "--truth", "t"], {"averaging"}),
        (["synth", "--n", "5", "--out-corpus", "c"],
         {"seed", "noise_sigma", "bias_shift", "stage_thresholds"}),
    ], ids=["embed", "split", "train", "predict", "metrics", "synth"])
    def test_defaults_are_config_defaults(self, argv, carried):
        args = build_parser().parse_args(argv)
        if argv[0] == "synth":  # the seed and the GROUP=SHIFT entries are set by synth itself
            assert {f.name for f in fields(RaterConfig) if hasattr(args, f.name)} == carried
            assert _config(RaterConfig, args, bias_shift={}, seed=7) == RaterConfig(seed=7)
            return
        assert {f.name for f in fields(AuditConfig) if hasattr(args, f.name)} == carried
        expected = replace(AuditConfig(), embeddings_path=getattr(args, "embeddings_path", None))
        assert _config(AuditConfig, args) == expected


class TestFrontEndsAgree:
    CONFIG = AuditConfig(d=8, seed=11, max_epochs=2, patience=2, rounds=10, hidden_dim=4,
                         head_dim=4)

    @pytest.mark.parametrize("change, flags", [
        ({}, []),
        ({"metric": "euclidean"}, ["--metric", "euclidean"]),
        ({"rerank": False}, ["--no-rerank"]),
    ], ids=["weighted-cosine", "weighted-euclidean", "whole-rows"])
    def test_cli_stages_reproduce_the_audit(self, tmp_path, corpus, capsys, change, flags):
        """CLI embed and split with the audit's derived seeds write the audit's
        embeddings, split and AR neighbor structure, for each kind of selection."""
        run_dir = tmp_path / "run"
        report = run_audit(corpus, replace(self.CONFIG, **change), run_dir)
        seeds = report.metadata["derived_seeds"]
        emb, neighbors, splits = (tmp_path / n for n in ("e.faem", "n.json", "s.json"))
        code, _, err = run(capsys, "embed", "--corpus", str(corpus), "--d", "8",
                           "--seed", str(seeds["embed"]), "--out", str(emb),
                           "--neighbors-out", str(neighbors), *flags)
        assert code == 0, err
        assert emb.read_bytes() == (run_dir / "embeddings.faem").read_bytes()
        stages = json.loads((run_dir / "neighbors.json").read_text())["stages"]
        assert json.loads(neighbors.read_text()) == stages["AR"]
        code, _, err = run(capsys, "split", "--corpus", str(corpus),
                           "--seed", str(seeds["split"]), "--out", str(splits))
        assert code == 0, err
        assert json.loads(splits.read_text()) == json.loads((run_dir / "splits.json").read_text())

    def test_cli_replays_the_run_directory(self, tmp_path, corpus, capsys):
        """CLI predict from the run's models and embeddings writes the run's model
        decisions; CLI train of each family, with the run's derived seeds and learner
        flags, on the run's embeddings and split writes the run's model file; CLI
        embed over the run's embeddings writes the run's AR neighbor structure."""
        run_dir = tmp_path / "run"
        seeds = run_audit(corpus, self.CONFIG, run_dir).metadata["derived_seeds"]
        emb = run_dir / "embeddings.faem"
        for name in ("knn", "gbstumps", "birnn"):
            model, out = run_dir / "models" / f"{name}.json", tmp_path / f"{name}.json"
            code, _, err = run(capsys, "predict", "--model", str(model), "--embeddings", str(emb),
                               "--d", "8", "--out", str(out))
            assert code == 0, err
            expected = json.loads((run_dir / f"decisions_model_{name}.json").read_text())
            assert json.loads(out.read_text()) == expected, name
        learner_flags = ["--epochs", "2", "--patience", "2", "--rounds", "10",
                         "--hidden-dim", "4", "--head-dim", "4"]
        for family, name, seed in (("knn", "knn", 0), ("stumps", "gbstumps", seeds["stumps"]),
                                   ("birnn", "birnn", seeds["birnn"])):
            model = tmp_path / f"{family}_model.json"
            code, _, err = run(capsys, "train", "--family", family, "--corpus", str(corpus),
                               "--embeddings", str(emb), "--splits", str(run_dir / "splits.json"),
                               "--d", "8", "--seed", str(seed), *learner_flags,
                               "--out", str(model))
            assert code == 0, err
            assert model.read_bytes() == (run_dir / "models" / f"{name}.json").read_bytes(), name
        neighbors = tmp_path / "n.json"
        code, _, err = run(capsys, "embed", "--embedder", "ingest", "--embeddings", str(emb),
                           "--corpus", str(corpus), "--d", "8", "--no-normalize",
                           "--out", str(tmp_path / "e.faem"), "--neighbors-out", str(neighbors))
        assert code == 0, err
        stages = json.loads((run_dir / "neighbors.json").read_text())["stages"]
        assert json.loads(neighbors.read_text()) == stages["AR"]


class TestMalformedArtifacts:
    """Artifacts that pass the loaders' type checks but cannot be used exit 2."""

    def test_stumps_model_wider_than_the_matrix(self, tmp_path, capsys):
        model, emb = tmp_path / "m.json", tmp_path / "e.faem"
        save_model(BoostedStumps([Stump(34, 0.0, -1.0, 1.0)], 0.1, 0.0), model)
        rows = np.random.default_rng(0).standard_normal((3, 20))
        save_embeddings(EmbeddingMatrix(rows, 4, FIELD_ORDER, ("a", "b", "c")), emb)
        code, _, err = run(capsys, "predict", "--model", str(model), "--embeddings", str(emb),
                           "--d", "4", "--out", str(tmp_path / "p.json"))
        assert code == 2, err
        assert err == "error: feature count mismatch: expected at least 35, got 20\n"

    @pytest.mark.parametrize("family, blob, where", [
        ("birnn", "w_2", slice(None)), ("knn", "reference", 7),
    ])
    def test_non_finite_model_blob_names_the_file(self, tmp_path, corpus, capsys, family, blob,
                                                   where):
        emb, splits, model = tmp_path / "e.faem", tmp_path / "s.json", tmp_path / "m.json"
        assert run(capsys, "embed", "--corpus", str(corpus), "--d", "8", "--out", str(emb))[0] == 0
        assert run(capsys, "split", "--corpus", str(corpus), "--out", str(splits))[0] == 0
        code, _, err = run(capsys, "train", "--family", family, "--corpus", str(corpus),
                           "--embeddings", str(emb), "--splits", str(splits), "--d", "8",
                           "--epochs", "1", "--patience", "1", "--out", str(model))
        assert code == 0, err
        obj = json.loads(model.read_text())
        body = obj["model"]["weights"] if family == "birnn" else obj["model"]
        values = np.frombuffer(base64.b64decode(body[blob]["data"]), "<f4").copy()
        values[where] = np.nan
        body[blob]["data"] = base64.b64encode(values.tobytes()).decode()
        model.write_text(json.dumps(obj))
        code, out, err = run(capsys, "predict", "--model", str(model), "--embeddings", str(emb),
                             "--d", "8", "--out", str(tmp_path / "p.json"))
        assert (code, out) == (2, "")
        assert len(err.strip().splitlines()) == 1
        assert str(model) in err and "NaN or infinite" in err
        assert not (tmp_path / "p.json").exists()

    def test_neighbor_file_with_k_zero(self, tmp_path, capsys):
        ids = ["a", "b"]
        write_json(tmp_path / "d.json", {"source": "x", "index_order": ids, "values": [1, 0]})
        write_json(tmp_path / "n.json",
                   {"k": 0, "metric": "cosine", "excludes_self": True,
                    "rows": [{"id": pid, "neighbors": [], "scores": []} for pid in ids]})
        code, out, err = run(capsys, "consistency", "--decisions", str(tmp_path / "d.json"),
                             "--neighbors", str(tmp_path / "n.json"))
        assert (code, out) == (2, "")
        assert err == f"error: {tmp_path / 'n.json'}: neighbor lists need k >= 1, got 0\n"

    def test_unknown_neighbor_id_names_the_file_and_the_id_once(self, tmp_path, capsys):
        ids = ["a", "b"]
        write_json(tmp_path / "d.json", {"source": "x", "index_order": ids, "values": [1, 0]})
        write_json(tmp_path / "n.json",
                   {"k": 1, "metric": "cosine", "excludes_self": True,
                    "rows": [{"id": pid, "neighbors": ["zz"], "scores": [1.0]} for pid in ids]})
        code, out, err = run(capsys, "consistency", "--decisions", str(tmp_path / "d.json"),
                             "--neighbors", str(tmp_path / "n.json"))
        assert (code, out) == (2, "")
        assert err == f"error: {tmp_path / 'n.json'}: 1 ids not found, e.g. ['zz']\n"

    def test_run_directory_neighbors_file_names_its_stages(self, tmp_path, capsys):
        ids = ["a", "b"]
        structure = {"k": 1, "metric": "cosine", "excludes_self": True,
                     "rows": [{"id": "a", "neighbors": ["b"], "scores": [1.0]},
                              {"id": "b", "neighbors": ["a"], "scores": [1.0]}]}
        write_json(tmp_path / "d.json", {"source": "x", "index_order": ids, "values": [1, 0]})
        write_json(tmp_path / "n.json", {"stages": {"AR": structure, "OF": structure}})
        code, out, err = run(capsys, "consistency", "--decisions", str(tmp_path / "d.json"),
                             "--neighbors", str(tmp_path / "n.json"))
        assert (code, out) == (2, "")
        assert len(err.strip().splitlines()) == 1
        assert str(tmp_path / "n.json") in err and "['AR', 'OF']" in err


class TestDataErrorsNameTheFile:
    """Errors that an embedding or split file's content raises name the file."""

    @pytest.fixture
    def files(self, tmp_path, corpus, capsys):
        emb, splits, model = tmp_path / "e.faem", tmp_path / "s.json", tmp_path / "m.json"
        assert run(capsys, "embed", "--corpus", str(corpus), "--d", "4", "--out", str(emb))[0] == 0
        assert run(capsys, "split", "--corpus", str(corpus), "--out", str(splits))[0] == 0
        assert run(capsys, "train", "--family", "knn", "--corpus", str(corpus), "--embeddings",
                   str(emb), "--splits", str(splits), "--d", "4", "--out", str(model))[0] == 0
        ids, data = load_matrix_file(emb)
        dup = tmp_path / "dup.csv"
        dup.write_text("".join(
            ",".join([ids[0] if i == 1 else pid, *map(repr, row.tolist())]) + "\n"
            for i, (pid, row) in enumerate(zip(ids, data))
        ))
        return {"corpus": corpus, "emb": emb, "dup": dup, "splits": splits, "model": model}

    @pytest.mark.parametrize("command, matrix, d", [
        ("embed", "dup", 4), ("train", "dup", 4), ("predict", "dup", 4),
        ("train", "emb", 3), ("predict", "emb", 3),
    ])
    def test_error_names_the_embedding_file(self, files, tmp_path, capsys, command, matrix, d):
        path, out = str(files[matrix]), str(tmp_path / "out")
        argv = {
            "embed": ["embed", "--corpus", str(files["corpus"]), "--embedder", "ingest",
                      "--embeddings", path],
            "train": ["train", "--family", "knn", "--corpus", str(files["corpus"]),
                      "--embeddings", path, "--splits", str(files["splits"])],
            "predict": ["predict", "--model", str(files["model"]), "--embeddings", path],
        }[command]
        code, _, err = run(capsys, *argv, "--d", str(d), "--out", out)
        assert code == 2, err
        assert err.startswith(f"error: {path}: "), err
        assert ("duplicate ids" if matrix == "dup" else "width mismatch") in err

    @pytest.mark.parametrize("family, trials, exit_code", [
        ("knn", 1, 0), ("stumps", 1, 0), ("birnn", 1, 2), ("stumps", 2, 2),
    ])
    def test_train_reads_validation_rows_only_when_it_uses_them(self, files, tmp_path, capsys,
                                                                family, trials, exit_code):
        # a search scores its trials on the validation rows and the BiRNN stops early on
        # them; any other fit trains from a file that lacks them, as from the whole file
        validation = set(load_split(files["splits"]).validation)
        ids, data = load_matrix_file(files["emb"])
        keep = [i for i, pid in enumerate(ids) if pid not in validation]
        path = tmp_path / "no-validation.faem"
        save_embeddings(EmbeddingMatrix(data[keep], 4, FIELD_ORDER, tuple(ids[i] for i in keep)),
                        path)
        results = []
        for emb in (path, files["emb"]):
            out = tmp_path / f"m{len(results)}.json"
            code, _, err = run(capsys, "train", "--family", family,
                               "--corpus", str(files["corpus"]), "--embeddings", str(emb),
                               "--splits", str(files["splits"]), "--d", "4",
                               "--search-trials", str(trials), "--rounds", "2", "--epochs", "1",
                               "--patience", "1", "--hidden-dim", "4", "--head-dim", "4",
                               "--out", str(out))
            results.append((code, err, out))
        (code, err, out), (full_code, full_err, full_out) = results
        assert full_code == 0, full_err
        assert code == exit_code, err
        if exit_code:
            assert err.startswith(f"error: {path}: {len(validation)} asked ids not in the file")
            assert not out.exists()
        else:
            assert out.read_bytes() == full_out.read_bytes()

    def test_value_float32_cannot_hold_names_the_file(self, files, tmp_path, capsys):
        ids, data = load_matrix_file(files["emb"])
        data = data.astype(np.float64)
        data[1, 2] = 1e39
        path, out = tmp_path / "big.csv", tmp_path / "out.faem"
        path.write_text("".join(",".join([pid, *map(repr, row.tolist())]) + "\n"
                                for pid, row in zip(ids, data)))
        code, _, err = run(capsys, "embed", "--corpus", str(files["corpus"]), "--embedder",
                           "ingest", "--embeddings", str(path), "--d", "4", "--out", str(out))
        assert code == 2, err
        assert err.startswith(f"error: {path}: ") and "overflows float32" in err, err
        assert not out.exists()

    @pytest.mark.parametrize("extra", [0, 1])
    def test_embed_reads_the_corpus_rows_of_a_file(self, files, tmp_path, capsys, extra):
        # a file that lacks a corpus id is refused; one that holds other ids too is read
        ids, data = load_matrix_file(files["emb"])
        rows = [(pid, row) for pid, row in zip(ids, data)][1 - extra :]
        rows += [("stranger", data[0])] * extra
        path, out = tmp_path / "part.csv", tmp_path / "out.faem"
        path.write_text("".join(",".join([pid, *map(repr, row.tolist())]) + "\n"
                                for pid, row in reversed(rows)))
        code, _, err = run(capsys, "embed", "--corpus", str(files["corpus"]), "--embedder",
                           "ingest", "--embeddings", str(path), "--d", "4", "--no-normalize",
                           "--out", str(out))
        if extra:
            assert code == 0, err
            assert out.read_bytes() == files["emb"].read_bytes()
        else:
            assert code == 2 and not out.exists()
            assert err == f"error: {path}: 1 asked ids not in the file, e.g. {[ids[0]]}\n"

    def test_embed_can_rewrite_its_own_input(self, files, tmp_path, capsys):
        # the rows are read into memory, not mapped: truncating the file for the
        # write must not pull them from under the matrix
        path = tmp_path / "x.faem"
        path.write_bytes(files["emb"].read_bytes())
        code, _, err = run(capsys, "embed", "--corpus", str(files["corpus"]), "--embedder",
                           "ingest", "--embeddings", str(path), "--d", "4", "--no-normalize",
                           "--out", str(path))
        assert code == 0, err
        assert path.read_bytes() == files["emb"].read_bytes()

    @pytest.mark.parametrize("artifact", ["corpus", "matrix", "decisions", "neighbors",
                                          "splits"])
    def test_repeated_id_names_the_file_and_the_id(self, files, tmp_path, capsys, artifact):
        ids = ["A", "B", "A", "C"]
        path, out = tmp_path / f"repeated-{artifact}", str(tmp_path / "out")
        decisions = tmp_path / "d.json"
        write_json(decisions, {"source": "x", "index_order": ["A", "B", "C"], "values": [1, 0, 1]})
        if artifact == "corpus":
            path = path.with_suffix(".jsonl")
            path.write_text("".join(json.dumps({"id": pid, "gcea": "text"}) + "\n" for pid in ids))
            argv = ["split", "--corpus", path, "--out", out]
        elif artifact == "matrix":
            path = path.with_suffix(".csv")
            path.write_text("".join(f"{pid}," + ",".join(["0.5"] * 20) + "\n" for pid in ids))
            argv = ["embed", "--corpus", files["corpus"], "--embedder", "ingest",
                    "--embeddings", path, "--d", "4", "--out", out]
        elif artifact == "decisions":
            write_json(path, {"source": "x", "index_order": ids, "values": [1, 0, 1, 0]})
            argv = ["metrics", "--predicted", path, "--truth", decisions]
        elif artifact == "neighbors":
            write_json(path, {"k": 1, "metric": "cosine", "excludes_self": True, "rows": [
                {"id": pid, "neighbors": ["B"], "scores": [1.0]} for pid in ids]})
            argv = ["consistency", "--decisions", decisions, "--neighbors", path]
        else:
            write_json(path, {"seed": 0, "ratios": [0.5, 0.25, 0.25], "train": ids[:2],
                              "validation": ids[2:3], "test": ids[3:]})
            argv = ["train", "--family", "knn", "--corpus", files["corpus"], "--embeddings",
                    files["emb"], "--splits", path, "--d", "4", "--out", out]
        code, _, err = run(capsys, *map(str, argv))
        assert code == 2, err
        assert err.startswith(f"error: {path}: duplicate ids in "), err
        assert err.endswith(": ['A']\n") and len(err.splitlines()) == 1, err

    @pytest.mark.parametrize("kind", ["jsonl corpus", "csv corpus", "undecodable corpus",
                                      "faem", "csv matrix", "splits", "decisions", "neighbors",
                                      "model", "report"])
    def test_malformed_file_is_named_first(self, files, tmp_path, capsys, kind):
        """Whatever a loader finds wrong in a file, the one-line error starts with it."""
        emb = files["emb"].read_bytes()
        name, content = {
            "jsonl corpus": ("c.jsonl", b"[1]\n"),
            "csv corpus": ("c.csv", b"gcea,type\r\nt,Offered\r\n"),
            "undecodable corpus": ("c.jsonl", b'{"id": "P1", "gcea": "a \xff b"}\n'),
            "faem": ("e.faem", emb[:4] + b"\x02\x00" + emb[6:]),  # format version 2
            "csv matrix": ("e.csv", b"A,0.5,0.5\nB,0.5,x\n"),
            "model": ("m.json", b'{"format": "fairaudit-model"}\n'),
        }.get(kind, (f"{kind}.json", b'{"seed": 0, "source": "x", "k": 1, "rows": 3}\n'))
        path, out = tmp_path / name, str(tmp_path / "out")
        path.write_bytes(content)
        decisions = tmp_path / "d.json"
        write_json(decisions, {"source": "x", "index_order": ["A"], "values": [1]})
        argv = {
            "splits": ["train", "--family", "knn", "--corpus", files["corpus"], "--embeddings",
                       files["emb"], "--splits", path, "--d", "4", "--out", out],
            "decisions": ["metrics", "--predicted", path, "--truth", decisions],
            "neighbors": ["consistency", "--decisions", decisions, "--neighbors", path],
            "model": ["predict", "--model", path, "--embeddings", files["emb"], "--d", "4",
                      "--out", out],
            "report": ["report", "--report", path],
        }.get(kind)
        if kind.endswith("corpus"):
            argv = ["split", "--corpus", path, "--out", out]
        elif argv is None:  # a matrix file
            argv = ["predict", "--model", files["model"], "--embeddings", path, "--d", "1",
                    "--out", out]
        code, _, err = run(capsys, *map(str, argv))
        assert code == 2, err
        assert err.startswith(f"error: {path}: ") and len(err.splitlines()) == 1, err

    def test_split_id_the_corpus_lacks_names_the_split_file(self, files, tmp_path, capsys):
        split = json.loads(files["splits"].read_text())
        split["train"][0] = "nobody"
        path = tmp_path / "foreign.json"
        write_json(path, split)
        code, _, err = run(capsys, "train", "--family", "knn", "--corpus", str(files["corpus"]),
                           "--embeddings", str(files["emb"]), "--splits", str(path), "--d", "4",
                           "--out", str(tmp_path / "out"))
        assert code == 2, err
        assert err == f"error: {path}: 1 ids not found, e.g. ['nobody']\n"


class TestConsistencyFixture:
    def test_prints_half_to_four_decimals(self, tmp_path, capsys):
        ids = ["a", "b", "c", "d"]
        write_json(tmp_path / "d.json",
                   {"source": "human:OF", "index_order": ids, "values": [1, 1, 1, 0]})
        rows = [
            {"id": pid, "neighbors": [q for q in ids if q != pid], "scores": [0.9, 0.8, 0.7]}
            for pid in ids
        ]
        write_json(tmp_path / "n.json",
                   {"k": 3, "metric": "cosine", "excludes_self": True, "rows": rows})
        code, out, err = run(capsys, "consistency", "--decisions", str(tmp_path / "d.json"),
                             "--neighbors", str(tmp_path / "n.json"))
        assert code == 0, err
        assert out.strip() == "0.5000"

    def test_k_mismatch_is_data_error(self, tmp_path, capsys):
        ids = ["a", "b"]
        write_json(tmp_path / "d.json",
                   {"source": "x", "index_order": ids, "values": [1, 0]})
        write_json(tmp_path / "n.json",
                   {"k": 1, "metric": "cosine", "excludes_self": True,
                    "rows": [{"id": "a", "neighbors": ["b"], "scores": [1.0]},
                             {"id": "b", "neighbors": ["a"], "scores": [1.0]}]})
        code, _, err = run(capsys, "consistency", "--decisions", str(tmp_path / "d.json"),
                           "--neighbors", str(tmp_path / "n.json"), "--k", "5")
        assert code == 2


class TestAuditCommand:
    def test_run_dir_and_determinism(self, tmp_path, corpus, capsys):
        args = ["audit", "--corpus", str(corpus), "--embedder", "hash", "--seed", "7",
                "--d", "10", "--epochs", "2", "--patience", "2", "--rounds", "10",
                "--hidden-dim", "4", "--head-dim", "4"]
        code, out, err = run(capsys, *args, "--out", str(tmp_path / "run1"))
        assert code == 0, err
        assert "| Model |" in out
        code, _, err = run(capsys, *args, "--out", str(tmp_path / "run2"))
        assert code == 0, err
        a = json.loads((tmp_path / "run1" / "report.json").read_text())
        b = json.loads((tmp_path / "run2" / "report.json").read_text())
        a["metadata"].pop("timestamp")
        b["metadata"].pop("timestamp")
        assert a == b
        for name in ("config.json", "embeddings.faem", "splits.json", "neighbors.json",
                     "report.csv", "report.md", "corpus.sha256"):
            assert (tmp_path / "run1" / name).exists()

    def test_a_rerun_replaces_the_prior_run_and_a_stray_file_is_refused(self, tmp_path, corpus,
                                                                        capsys):
        args = ["audit", "--corpus", str(corpus), "--d", "8", "--epochs", "2", "--patience", "2",
                "--rounds", "8", "--hidden-dim", "4", "--head-dim", "4"]
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        code, _, err = run(capsys, *args, "--seed", "1", "--search-trials", "2", "--out", str(out))
        assert code == 0, err
        assert (out / "models" / "search_log.json").exists()
        for run_dir in (out, fresh):
            code, _, err = run(capsys, *args, "--seed", "2", "--out", str(run_dir))
            assert code == 0, err
        assert rundir_digest_main([str(out), str(fresh)]) == 0
        (out / "notes.txt").write_text("mine")
        before = {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")}
        code, _, err = run(capsys, *args, "--seed", "3", "--out", str(out))
        assert code == 2
        assert "[write]" in err and "neither empty nor a run directory" in err
        assert {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")} == before

    def test_report_rendering_from_run(self, tmp_path, corpus, capsys):
        run_dir = tmp_path / "run"
        code, _, err = run(capsys, "audit", "--corpus", str(corpus), "--seed", "1",
                           "--d", "8", "--epochs", "2", "--patience", "2", "--rounds", "8",
                           "--hidden-dim", "4", "--head-dim", "4", "--out", str(run_dir))
        assert code == 0, err
        code, out, _ = run(capsys, "report", "--report", str(run_dir / "report.json"),
                           "--format", "csv")
        assert code == 0
        assert out.startswith("source,precision")
        out_file = tmp_path / "r.md"
        code, _, _ = run(capsys, "report", "--report", str(run_dir / "report.json"),
                         "--format", "markdown", "--out", str(out_file))
        assert code == 0
        assert out_file.read_text().startswith("| Model |")


class TestSynthCommand:
    def test_writes_corpus_and_latents(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        latents = tmp_path / "l.jsonl"
        code, _, err = run(capsys, "synth", "--n", "25", "--seed", "1",
                           "--out-corpus", str(corpus), "--out-latents", str(latents))
        assert code == 0, err
        lines = [json.loads(l) for l in corpus.read_text().splitlines()]
        assert len(lines) == 25
        assert all("sl" in rec["labels"] for rec in lines)
        assert len(latents.read_text().splitlines()) == 25

    def test_deterministic_output_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            assert run(capsys, "synth", "--n", "30", "--seed", "12",
                       "--out-corpus", str(path))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_no_labels_flag(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        assert run(capsys, "synth", "--n", "10", "--no-labels",
                   "--out-corpus", str(corpus))[0] == 0
        lines = [json.loads(l) for l in corpus.read_text().splitlines()]
        assert all(rec["labels"] == {} for rec in lines)

    def test_bad_bias_shift_syntax(self, tmp_path, capsys):
        code, _, err = run(capsys, "synth", "--n", "5", "--bias-shift", "oops",
                           "--out-corpus", str(tmp_path / "c.jsonl"))
        assert code == 1
