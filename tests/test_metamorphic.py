"""Metamorphic tests: transformations of an audit's inputs that must not move its
numbers. Each holds for the code as it stands; a model cell still depends on the
corpus line order, through the split, so no test here asserts one under a shuffle."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairaudit.audit import ALL_SOURCES, HUMAN_SOURCES, AuditConfig, run_audit
from fairaudit.dataset import (
    RaterConfig,
    attach_stage_labels,
    generate_synthetic_corpus,
    load_corpus,
    save_corpus,
    simulate_raters,
)
from fairaudit.embed import embed_corpus, save_embeddings

N, D = 150, 32


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    profiles, latents = generate_synthetic_corpus(N, 100, seed=1)
    decisions = simulate_raters(profiles, latents, RaterConfig(noise_sigma=0.25, seed=1))
    path = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
    save_corpus(attach_stage_labels(profiles, decisions), path)
    return path


def config(**kwargs):
    defaults = dict(d=D, k=5, seed=1, max_epochs=3, patience=3, rounds=20, hidden_dim=8,
                    head_dim=8, sources=HUMAN_SOURCES)
    defaults.update(kwargs)
    return AuditConfig(**defaults)


def neighbor_sets(run_dir):
    """Each stage's neighbor set of each id, from the run's neighbors.json."""
    stages = json.loads((run_dir / "neighbors.json").read_text())["stages"]
    return {stage: {row["id"]: set(row["neighbors"]) for row in structure["rows"]}
            for stage, structure in stages.items()}


def human_c_cells(report):
    return {"AR": report.row("human:AR").c_ar, "OF": report.row("human:OF").c_of}


@pytest.fixture(scope="module")
def human_run(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("human") / "run"
    return run_audit(corpus, config(), out_dir=out), out


@settings(max_examples=8, deadline=None)
@given(order=st.permutations(range(N)))
def test_shuffled_lines_keep_neighbor_sets_and_human_c(corpus, human_run, tmp_path_factory,
                                                        order):
    report, out = human_run
    lines = corpus.read_text().splitlines(keepends=True)
    shuffled = tmp_path_factory.mktemp("shuffled") / "corpus.jsonl"
    shuffled.write_text("".join(lines[i] for i in order))
    moved = run_audit(shuffled, config(), out_dir=shuffled.parent / "run")
    assert neighbor_sets(shuffled.parent / "run") == neighbor_sets(out)
    assert human_c_cells(moved) == human_c_cells(report)


@settings(max_examples=3, deadline=None)
@given(prefix=st.text(alphabet="ab_", min_size=1, max_size=3))
def test_an_order_preserving_id_rename_keeps_every_report_row(corpus, tmp_path_factory, prefix):
    # a common prefix keeps the ids' order, in sorted order and in the file
    renamed = tmp_path_factory.mktemp("renamed") / "corpus.jsonl"
    save_corpus([replace(p, id=prefix + p.id) for p in load_corpus(corpus)], renamed)
    every = config(sources=ALL_SOURCES)
    assert run_audit(renamed, every).rows == run_audit(corpus, every).rows


@pytest.fixture(scope="module")
def hashed(corpus):
    return embed_corpus(load_corpus(corpus), d=D, seed=3)


@settings(max_examples=6, deadline=None)
@given(shift=st.integers(-3, 5), rerank=st.booleans())
@example(shift=-3, rerank=True)
@example(shift=5, rerank=False)
def test_ingested_rows_scaled_by_a_power_of_two_keep_neighbors_under_cosine(
        hashed, corpus, tmp_path_factory, shift, rerank):
    runs = []
    for scale in (1.0, np.ldexp(1.0, shift)):
        root = tmp_path_factory.mktemp("scaled")
        save_embeddings(replace(hashed, data=hashed.data * np.float32(scale)), root / "e.faem")
        run_audit(corpus, config(embedder="ingest", embeddings_path=str(root / "e.faem"),
                                 normalize=False, rerank=rerank), out_dir=root / "run")
        runs.append((root / "run" / "neighbors.json").read_bytes())
    assert runs[0] == runs[1]


@pytest.mark.parametrize("shift", [1, -1])
def test_field_weights_scaled_by_a_power_of_two_keep_neighbors(corpus, tmp_path, shift):
    weights = np.array([1.0, 2.0, 0.5, 3.0, 1.5])
    runs = []
    for scaled in (weights, np.ldexp(weights, shift)):
        out = tmp_path / str(scaled[0]) / "run"
        run_audit(corpus, config(field_weights=tuple(scaled.tolist())), out_dir=out)
        runs.append((out / "neighbors.json").read_bytes())
    assert runs[0] == runs[1]
