"""CLI flags generated from the config dataclasses: same surface, same defaults."""

import argparse
import re
from dataclasses import replace

import pytest

from fairaudit.audit import AuditConfig
from fairaudit.classifiers import TrainConfig
from fairaudit.cli import _config, build_parser, main

# Option strings of every subcommand as they were when the flags were written
# out by hand; generating them must neither add nor drop one.
OPTION_STRINGS = {
    "synth": ["--bias-shift", "--help", "--n", "--no-labels", "--noise-sigma", "--out-corpus",
              "--out-latents", "--rater-seed", "--seed", "--thresholds", "--vocab-size", "-h"],
    "embed": ["--corpus", "--d", "--embedder", "--embeddings", "--help", "--k",
              "--max-tokens", "--metric", "--neighbors-out", "--no-normalize", "--no-rerank",
              "--normalize", "--out", "--rerank", "--seed", "-h"],
    "split": ["--corpus", "--help", "--out", "--ratios", "--seed", "--stratify-on", "-h"],
    "train": ["--batch-size", "--corpus", "--d", "--embeddings", "--epochs", "--family",
              "--head-dim", "--help", "--hidden-dim", "--k", "--lr", "--metric", "--out",
              "--patience", "--reg-lambda", "--rounds", "--search-trials", "--seed", "--splits",
              "--target", "--trials-out", "-h"],
    "predict": ["--d", "--embeddings", "--help", "--model", "--out", "-h"],
    "consistency": ["--decisions", "--help", "--k", "--neighbors", "--out", "--stage", "-h"],
    "metrics": ["--averaging", "--help", "--out", "--predicted", "--truth", "-h"],
    "audit": ["--averaging", "--batch-size", "--consistency-cells",
              "--consistency-split", "--corpus", "--d", "--embedder", "--embeddings", "--epochs",
              "--head-dim", "--help", "--hidden-dim", "--k", "--lr", "--max-tokens", "--metric",
              "--metrics-split", "--no-normalize", "--no-rerank", "--normalize", "--out",
              "--patience", "--ratios", "--reg-lambda", "--rerank", "--rounds",
              "--search-trials", "--seed", "--stratify-on", "--target", "-h"],
    "report": ["--format", "--help", "--out", "--report", "-h"],
}

TRAIN_ARGS = ["train", "--family", "birnn", "--corpus", "c.jsonl", "--embeddings", "e.faem",
              "--splits", "s.json", "--out", "m.json"]


def subparsers():
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_option_strings_unchanged():
    got = {
        name: sorted(o for action in sub._actions for o in action.option_strings)
        for name, sub in subparsers().items()
    }
    assert got == OPTION_STRINGS


def test_each_option_string_has_one_dest():
    # a flag that reaches different fields on different subcommands means different things
    dests = {}
    for name, sub in subparsers().items():
        for action in sub._actions:
            for option in action.option_strings:
                dests.setdefault(option, {}).setdefault(action.dest, []).append(name)
    assert {option: by_dest for option, by_dest in dests.items() if len(by_dest) > 1} == {}


def test_audit_flag_defaults_are_config_defaults():
    args = build_parser().parse_args(["audit", "--corpus", "c", "--out", "o"])
    assert _config(AuditConfig, args) == AuditConfig()


def test_train_flag_defaults_are_config_defaults():
    args = build_parser().parse_args(TRAIN_ARGS)
    assert _config(TrainConfig, args) == replace(TrainConfig(), seed=args.seed)


def test_legacy_flag_names_reach_their_fields():
    args = build_parser().parse_args(
        ["audit", "--corpus", "c", "--out", "o", "--epochs", "7", "--lr", "0.3",
         "--target", "OF", "--embedder", "ingest", "--embeddings", "x.faem", "--no-rerank"]
    )
    config = _config(AuditConfig, args)
    assert (config.max_epochs, config.learning_rate, config.target_stage) == (7, 0.3, "OF")
    assert (config.embeddings_path, config.rerank) == ("x.faem", False)


def test_every_choice_list_rejects_a_bad_value(capsys):
    checked = 0
    for name, sub in subparsers().items():
        for action in sub._actions:
            if action.choices is None or not action.option_strings:
                continue
            assert main([name, action.option_strings[0], "not-a-choice"]) == 1
            assert "invalid choice" in capsys.readouterr().err
            checked += 1
    assert checked == 12


@pytest.mark.parametrize("argv, field", [
    (TRAIN_ARGS + ["--epochs", "2", "--patience", "5"], "patience"),
    (["audit", "--corpus", "c.jsonl", "--out", "run", "--embedder", "ingest"], "embeddings_path"),
])
def test_rejected_config_is_a_one_line_usage_error(capsys, argv, field):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert field in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv, token, hints", [
    ("embed --corpus c --out e --batch-size 3", "--batch-size", []),
    ("embed --corpus c --out e --neighbor-out n", "--neighbor-out", ["--neighbors-out"]),
    ("predict --model m --embeddings e --out p --k 3", "--k", None),
    ("embed --corpus c --out e --bogus 1", "--bogus", None),
    ("synth --n 5 --out-corpus c --sed 7", "--sed", ["--seed"]),
])
def test_unknown_flag_is_reported_by_its_subcommand(capsys, argv, token, hints):
    # the usage and the hint are the subcommand's own; None leaves the hint open
    name = argv.split()[0]
    assert main(argv.split()) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: fairaudit {name} ")
    assert f"unrecognized arguments: {token}" in err
    told = re.findall(r"did you mean '([^']*)'\?", err)
    assert all(hint in OPTION_STRINGS[name] and hint != token for hint in told)
    assert hints is None or told == hints
