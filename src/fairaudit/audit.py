"""End-to-end audit pipeline and the comparison report.

``run_audit`` executes load, embed, split, train, predict, and score, then
assembles one report row per decision source: the three human funnel stages
and the three built-in classifiers. Classification metrics are computed
against the binarized final outcome on the test split by default; consistency
is computed per stage column over the profiles that carry that stage's label
(the population actually evaluated at that stage), using a k-NN structure
built on exactly those rows. A C cell covers its stage's whole population: a
source that leaves any of it undecided gets no cell there, so every cell's
structure is one that neighbors.json holds. Every seed, flag, and scope lands
in the report metadata so any cell can be recomputed.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os
import shutil
import tempfile
from dataclasses import asdict, dataclass, fields, replace
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Callable

import numpy as np

from ._util import canonical_json, derive_seeds, parsing, positions, typed, write_json
from .classifiers import (
    KnnClassifier,
    TrainConfig,
    birnn_train,
    knn_predict,
    knn_vote,
    save_model,
    train_stumps,
)
from .dataset import (
    FIELD_ORDER,
    STAGES,
    DecisionVector,
    Profile,
    SplitAssignment,
    binarize_labels,
    check_ratios,
    check_stage,
    load_corpus,
    load_corpus_labels,
    save_split,
    split_corpus,
)
from .embed import (
    EmbeddingMatrix,
    check_sizes,
    embed_corpus,
    ingest_embeddings,
    save_embeddings,
)
from .errors import IntegrityError, SizeError, StageError, TrainingError
from .fairness import AVERAGING_MODES, METRIC_NAMES, classification_metrics, consistency
from .simindex import (
    METRICS,
    NeighborList,
    Selection,
    check_field_weights,
    check_k,
    neighbors_to_dict,
    search,
)

# The stage functions and the learner table below look up their layer calls
# (embed_corpus, train_stumps, search, ...) in this module's
# globals at call time, so wrapping those names here (as the traced benchmark
# run does) reaches every such call of the audit pipeline, the CLI and each
# search trial.


@dataclass(frozen=True)
class Learner:
    """One classifier family: its report source, how it reads the rows, and how
    it trains, predicts and is searched.

    ``view(matrix)`` is the family's input from EmbeddingMatrix rows.
    ``fit(x, y, x_val, y_val, config)`` trains one model on viewed rows with an
    AuditConfig (kNN reads its ``k`` and ``metric``); ``predict(model, x)``
    returns one decision per viewed row. ``space`` is the family's default
    search space for ``random_search``; None for a family that is not searched.
    ``fit_reads_validation`` says whether ``fit`` reads ``x_val`` and ``y_val``.
    """

    source: str
    view: Callable
    fit: Callable
    predict: Callable
    space: dict | None = None
    fit_reads_validation: bool = False


def _fit_knn(train, y_train, val, y_val, config):
    if config.k > train.n:  # refused here, so no model is kept that every search refuses
        raise SizeError(f"k={config.k} out of range [1, {train.n}] for {train.n} reference rows")
    truth = DecisionVector("truth", y_train, train.index_order)
    return KnnClassifier(config.k, config.metric).fit(train, truth)


# Search-space sampling rules: a list is a uniform choice over its entries; a
# (lo, hi) tuple is uniform over the range, integer-valued when both ends are ints.
LEARNERS = {
    "knn": Learner("model:knn", lambda m: m, _fit_knn,
                   lambda model, m: knn_predict(model, m).values),
    "stumps": Learner(
        "model:gbstumps", lambda m: m.data,
        lambda x, y, x_val, y_val, config: train_stumps(x, y, config),
        lambda model, x: model.predict(x),
        {"learning_rate": (0.05, 0.5), "rounds": (50, 300), "reg_lambda": [0.5, 1.0, 2.0]},
    ),
    "birnn": Learner(
        "model:birnn", EmbeddingMatrix.as_field_sequences,
        lambda *rows: birnn_train(*rows)[0],
        lambda model, x: model.predict(x),
        {"learning_rate": (0.02, 0.5), "hidden_dim": [16, 32, 64], "head_dim": [8, 16, 32],
         "batch_size": [16, 32, 64]},
        fit_reads_validation=True,  # early stopping
    ),
}


def searches(family: str, search_trials: int) -> bool:
    """Whether training ``family`` with ``search_trials`` runs ``random_search``:
    more than one trial, of a family that has a search space."""
    return search_trials > 1 and LEARNERS[family].space is not None


def train_family(family: str, train, y_train, val, y_val, config) -> tuple:
    """``(model, trials)``: a ``family`` model trained on the EmbeddingMatrix rows
    ``train`` and ``val`` (see ``training_rows``) with ``config``. When it
    ``searches``, it is trained by ``random_search`` and ``trials`` is its trial
    log; otherwise ``trials`` is None."""
    learner = LEARNERS[family]
    rows = (learner.view(train), y_train, learner.view(val), y_val, config)
    if searches(family, config.search_trials):
        result = random_search(family, *rows)
        return result.model, [asdict(t) for t in result.trials]
    return learner.fit(*rows), None


def predict_decisions(model, matrix: EmbeddingMatrix) -> DecisionVector:
    """Decisions of a trained model of any family for every row of ``matrix``."""
    learner = LEARNERS[model.family]
    values = learner.predict(model, learner.view(matrix))
    return DecisionVector(learner.source, values, matrix.index_order)


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one sampled configuration."""

    index: int
    params: dict
    val_accuracy: float | None
    error: str | None = None


@dataclass(frozen=True)
class SearchResult:
    model: object
    best_index: int
    best_params: dict
    trials: tuple[TrialRecord, ...]


def _sample_value(rng: np.random.Generator, rule):
    if isinstance(rule, list):
        return rule[int(rng.integers(len(rule)))]
    lo, hi = rule
    if isinstance(lo, int) and isinstance(hi, int):
        return int(rng.integers(lo, hi + 1))
    return float(rng.uniform(lo, hi))


def random_search(
    family: str,
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    config: TrainConfig,
) -> SearchResult:
    """Sample configurations uniformly, train each, keep the best.

    The rows are the family's view of them (``LEARNERS[family].view``), and
    ``config.search_space`` defaults to the family's ``space``. Each trial is
    trained by ``LEARNERS[family].fit`` and scored by its accuracy on the
    validation rows. The winner is the trial with the highest validation
    accuracy, ties broken by earliest trial index. Failed trials are recorded
    in the log with their error message and do not abort the search; when every
    trial fails, the raised TrainingError names their distinct errors.
    Deterministic in ``config.seed``: the same seed yields the same trial
    sequence and winner.
    """
    searched = tuple(name for name, learner in LEARNERS.items() if learner.space is not None)
    if family not in searched:
        raise ValueError(f"unknown family {family!r}; expected one of {searched}")
    learner = LEARNERS[family]
    space = config.search_space if config.search_space is not None else learner.space
    if not space:
        raise ValueError("search space must be nonempty")
    rng = np.random.default_rng(config.seed)
    trials: list[TrialRecord] = []
    best: tuple[float, int] | None = None
    best_model = None
    for index in range(config.search_trials):
        params = {name: _sample_value(rng, rule) for name, rule in sorted(space.items())}
        trial_seed = int(rng.integers(2**31))
        try:
            trial_config = replace(
                config, seed=trial_seed, search_space=None, search_trials=1, **params
            )
            model = learner.fit(x_train, y_train, x_val, y_val, trial_config)
            accuracy = float(np.mean(learner.predict(model, x_val) == np.asarray(y_val)))
        except Exception as exc:  # record and continue; the search must survive bad draws
            trials.append(TrialRecord(index, params, None, f"{type(exc).__name__}: {exc}"))
            continue
        trials.append(TrialRecord(index, params, accuracy, None))
        if best is None or accuracy > best[0]:
            best = (accuracy, index)
            best_model = model
    if best is None:
        errors = "; ".join(dict.fromkeys(t.error for t in trials))
        raise TrainingError(f"every search trial failed: {errors}")
    return SearchResult(best_model, best[1], trials[best[1]].params, tuple(trials))


HUMAN_SOURCES = tuple(f"human:{stage}" for stage in STAGES)
MODEL_SOURCES = tuple(learner.source for learner in LEARNERS.values())
ALL_SOURCES = HUMAN_SOURCES + MODEL_SOURCES
CONSISTENCY_STAGES = ("AR", "OF")

_REPORT_COLUMNS = METRIC_NAMES + tuple(f"c_{stage.lower()}" for stage in CONSISTENCY_STAGES)
_SPLITS = ("train", "validation", "test", "full")

# The closed value lists of AuditConfig fields; the CLI offers them as choices.
CHOICES = {
    "embedder": ("hash", "ingest"),
    "metric": METRICS,
    "averaging": AVERAGING_MODES,
    "metrics_split": _SPLITS,
    "consistency_split": _SPLITS,
    "consistency_cells": ("stage", "all"),
}


@dataclass(frozen=True)
class AuditConfig(TrainConfig):
    """Everything a run needs; defaults follow the documented pipeline.

    The learner fields and their checks come from TrainConfig. ``seed`` is the
    master seed from which every stage's seed is derived.
    """

    d: int = 768
    k: int = 5
    metric: str = "cosine"
    averaging: str = "weighted"
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1)
    stratify_on: str | None = None
    embedder: str = "hash"
    embeddings_path: str | None = None
    max_tokens: int | None = None
    normalize: bool = True
    rerank: bool = True
    field_weights: tuple[float, ...] | None = None
    target_stage: str = "Type"
    metrics_split: str = "test"
    consistency_split: str = "full"
    consistency_cells: str = "stage"  # "stage": human rows get their own stage's C; "all": every cell
    sources: tuple[str, ...] = ALL_SOURCES

    def __post_init__(self):
        super().__post_init__()
        for name, allowed in CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ValueError(f"unknown {name} {getattr(self, name)!r}")
        if self.embedder == "ingest" and not self.embeddings_path:
            raise ValueError("embedder 'ingest' requires embeddings_path")
        unknown = [s for s in self.sources if s not in ALL_SOURCES]
        if unknown:
            raise ValueError(f"unknown sources {unknown}; expected among {ALL_SOURCES}")
        if len(set(self.sources)) < len(self.sources):
            raise ValueError(f"sources {self.sources} name a source more than once")
        # what the pipeline stages check, by their own checks, before any data is read
        if self.embedder == "hash":
            check_sizes(self.d, self.max_tokens)
        elif self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        check_ratios(self.ratios)
        check_stage(self.target_stage)
        if self.stratify_on is not None:
            check_stage(self.stratify_on)
        check_k(self.k)
        if self.rerank:
            check_field_weights(self.field_weights, len(FIELD_ORDER))


@dataclass(frozen=True)
class ReportRow:
    source: str
    precision: float | None = None
    recall: float | None = None
    f1: float | None = None
    accuracy: float | None = None
    c_ar: float | None = None
    c_of: float | None = None

    def to_dict(self) -> dict:
        return {"source": self.source, **{c: getattr(self, c) for c in _REPORT_COLUMNS}}


@dataclass(frozen=True)
class AuditReport:
    rows: tuple[ReportRow, ...]
    metadata: dict

    def row(self, source: str) -> ReportRow:
        for row in self.rows:
            if row.source == source:
                return row
        available = [r.source for r in self.rows]
        raise IntegrityError(f"unknown source {source!r}; available: {available}")

    def to_dict(self) -> dict:
        return {"rows": [r.to_dict() for r in self.rows], "metadata": self.metadata}

    @classmethod
    def from_dict(cls, obj: dict) -> "AuditReport":
        """Cells absent from a row, or null, are missing values."""

        def cell(row: dict, column: str) -> float | None:
            return None if row.get(column) is None else typed(row, column, (int, float))

        with parsing("report"):
            rows = tuple(
                ReportRow(typed(r, "source", str), *[cell(r, c) for c in _REPORT_COLUMNS])
                for r in typed(obj, "rows", list)
            )
            return cls(rows, typed(obj, "metadata", dict))


# ---------------------------------------------------------------------------
# stages shared by run_audit and the CLI


def read_corpus(path, config: AuditConfig) -> list:
    """The corpus at ``path`` as ``embed_profiles`` reads it under ``config``: Profiles
    with their text for the hashing embedder, and for ingest, which hashes nothing,
    ProfileLabels (``load_corpus_labels``: ids, labels and outcomes alone)."""
    return (load_corpus if config.embedder == "hash" else load_corpus_labels)(path)


def embed_profiles(profiles: list[Profile], config: AuditConfig, seed: int) -> EmbeddingMatrix:
    """The rows every stage reads, float32 values as embeddings.faem stores them:
    hashed with the stage seed ``seed`` (each field block a unit vector), or
    ingested from ``config.embeddings_path``, field blocks normalized if asked."""
    if config.embedder == "hash":
        return embed_corpus(profiles, config.d, seed, config.max_tokens)
    return ingest_embeddings(config.embeddings_path, [p.id for p in profiles], config.d,
                             config.normalize)


def split_order(profiles: list[Profile], split: SplitAssignment,
                parts=("train", "validation", "test")) -> list[Profile]:
    """The profiles of ``split``'s ``parts``, part after part, each in the split's
    order: the order to embed them in, so that ``training_rows`` takes views. A
    split id that ``profiles`` lacks is an IntegrityError."""
    subsets = split.subsets()
    at = positions([p.id for p in profiles], [pid for part in parts for pid in subsets[part]])
    return [profiles[i] for i in at]


def training_rows(matrix: EmbeddingMatrix, truth: DecisionVector, split) -> tuple:
    """``(train, y_train, val, y_val)``: the split's train and validation rows of
    ``matrix`` and their ``truth`` values, the rows of ``train_family``.
    Taken once for every family, since the kNN model keeps its train rows: views of
    ``matrix`` when it holds each part as a contiguous run, as it does in
    ``split_order``."""
    return (
        matrix.take(split.train),
        truth.take(split.train).values,
        matrix.take(split.validation),
        truth.take(split.validation).values,
    )


def _stage(name: str, fn):
    try:
        return fn()
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


def run_audit(corpus_path, config: AuditConfig | None = None, out_dir=None) -> AuditReport:
    """Run the full pipeline; optionally persist every artifact to a run dir.

    The run directory holds config.json, corpus.sha256, embeddings.faem,
    splits.json, models/*.json, neighbors.json (each stage's structure that a
    consistency cell used, human-only audits included), and
    report.{json,csv,md}. Nothing is written until the whole pipeline has
    succeeded, so partial reports never appear. A run directory holds one run.
    The files are written into a hidden sibling directory first, which is then
    renamed into place when ``out_dir`` is missing or empty. When ``out_dir`` is
    a prior run directory (``config.json`` and ``report.json`` as regular files,
    and no top-level entry but the names a run writes), the new run replaces it
    whole, so none of the prior run's files remain. Any other ``out_dir`` that
    exists and is not empty is refused with IntegrityError (``[write]``). A
    failed write or a refusal leaves ``out_dir`` as it was and removes the
    sibling.
    """
    config = config or AuditConfig()
    seeds = derive_seeds(config.seed, ("embed", "split", "stumps", "birnn", "search"))
    corpus_sha256, profiles = _stage("load", lambda: (
        hashlib.sha256(Path(corpus_path).read_bytes()).hexdigest(),
        read_corpus(corpus_path, config),
    ))
    ids = tuple(p.id for p in profiles)  # the order of embeddings.faem and each decisions file
    split = _stage(
        "split", lambda: split_corpus(profiles, config.ratios, seeds["split"], config.stratify_on)
    )
    # the one matrix, in split order: every family fits on views of its rows
    matrix = _stage("embed", lambda: embed_profiles(split_order(profiles, split), config,
                                                    seeds["embed"]))
    truth, decisions = _stage("labels", lambda: _labels(profiles, config.target_stage))
    models, search_logs = _stage("train", lambda: _train(config, seeds, matrix, truth, split))
    knn = models.get(LEARNERS["knn"].source)
    decisions.update(_stage("predict", lambda: {  # the kNN's come from the neighbor pass
        source: predict_decisions(model, matrix).take(ids) for source, model in models.items()
        if model is not knn
    }))
    rows, structures, decisions = _stage(
        "score", lambda: score_sources(config, profiles, matrix, split, truth, decisions, knn)
    )
    report = _stage(
        "score", lambda: AuditReport(rows, _metadata(config, profiles, corpus_sha256, seeds))
    )
    if out_dir is not None:
        _stage("write", lambda: _write_run_dir(
            out_dir, report, config, corpus_path, matrix, ids, split, models, search_logs,
            structures, decisions,
        ))
    return report


def _labels(profiles: list[Profile], target_stage: str) -> tuple:
    """``(truth, decisions)``: the binarized ``target_stage`` of every profile,
    and each human stage's decisions over the profiles it labelled."""
    truth = binarize_labels(profiles, target_stage)
    decisions: dict[str, DecisionVector] = {}
    for stage in STAGES:
        labeled = [p for p in profiles if stage in p.labels]
        if labeled:
            decisions[f"human:{stage}"] = binarize_labels(labeled, stage)
    return truth, decisions


def _train(config: AuditConfig, seeds: dict, matrix, truth, split) -> tuple:
    """``(models, search_logs)`` by source, for each family in ``config.sources``."""
    rows = training_rows(matrix, truth, split)
    models, search_logs = {}, {}
    for family, learner in LEARNERS.items():
        if learner.source not in config.sources:
            continue
        seed = seeds["search"] if searches(family, config.search_trials) else seeds.get(family, 0)
        models[learner.source], trials = train_family(family, *rows, replace(config, seed=seed))
        if trials is not None:
            search_logs[learner.source] = trials
    return models, search_logs


def score_sources(
    config: AuditConfig,
    profiles: list[Profile],
    matrix: EmbeddingMatrix,
    split: SplitAssignment,
    truth: DecisionVector,
    decisions: dict[str, DecisionVector],
    knn: KnnClassifier | None = None,
) -> tuple[tuple[ReportRow, ...], dict[str, NeighborList], dict[str, DecisionVector]]:
    """The report rows of ``config.sources``, the neighbor structure of each
    consistency stage, and ``decisions`` with the decisions of the kNN model ``knn``
    (if any) for every profile added, in the order of ``profiles``.

    ``matrix`` holds the rows of ``profiles`` in any order. P/R/F1/A compare a
    source's decisions with ``truth`` over the ids of ``config.metrics_split`` that it
    covers, in the order of ``profiles``. C at a stage is taken over the
    stage's whole population (the profiles that carry its label, within
    ``config.consistency_split``), on a k-NN structure built on exactly those
    rows; a source that leaves any of them undecided gets no cell there. With
    ``consistency_cells="stage"`` a human row gets only its own stage's cell. A
    stage's structure is returned when a cell used it. One :func:`neighbor_pass`
    finds the structures and the kNN's neighbors.
    """

    ids = tuple(p.id for p in profiles)

    def scope(name: str) -> set[str]:
        return set(ids if name == "full" else split.subsets()[name])

    metrics_scope = scope(config.metrics_split)
    consistency_scope = scope(config.consistency_split)
    populations = {
        stage: tuple(p.id for p in profiles if stage in p.labels and p.id in consistency_scope)
        for stage in CONSISTENCY_STAGES
    }
    covered = {source: set(vector.index_order) for source, vector in decisions.items()}
    if knn is not None:
        covered[LEARNERS["knn"].source] = set(ids)
    cells = {
        source: [stage for stage in CONSISTENCY_STAGES
                 if (config.consistency_cells == "all" or source in (f"human:{stage}",
                                                                    *MODEL_SOURCES))
                 and covered[source].issuperset(populations[stage])
                 and len(populations[stage]) >= config.k + 1]
        for source in config.sources if source in covered
    }
    needed = list(dict.fromkeys(populations[stage] for stages in cells.values() for stage in stages))
    structures, knn_decisions = neighbor_pass(matrix, config, needed, knn)
    if knn_decisions is not None:
        decisions = {**decisions, knn_decisions.source: knn_decisions.take(ids)}
    rows = []
    for source in config.sources:
        vector = decisions.get(source)
        if vector is None:
            rows.append(ReportRow(source))
            continue
        row = {}
        covered_ids = covered[source]
        scored = [pid for pid in ids if pid in metrics_scope and pid in covered_ids]
        if scored:
            metrics = classification_metrics(vector.take(scored), truth.take(scored),
                                             config.averaging)
            row.update({name: getattr(metrics, name) for name in METRIC_NAMES})
        for stage in cells[source]:
            stage_ids = populations[stage]
            row[f"c_{stage.lower()}"] = consistency(
                vector.take(stage_ids), structures[stage_ids]
            ).score
        rows.append(ReportRow(source, **row))
    stage_structures = {
        stage: structures[members] for stage, members in populations.items()
        if members in structures
    }
    return tuple(rows), stage_structures, decisions


def neighbor_pass(
    matrix: EmbeddingMatrix,
    config: AuditConfig,
    populations: list[tuple[str, ...]],
    knn: KnnClassifier | None = None,
) -> tuple[dict[tuple[str, ...], NeighborList], DecisionVector | None]:
    """``(structures, decisions)`` from one :func:`search` over ``matrix``: for each of
    ``populations`` (ids), the k-NN structure ``config`` asks for over those rows (each
    row's ``config.k`` others, by the field-weighted similarity under
    ``config.field_weights`` if ``config.rerank``, else by whole rows), and the
    decisions that ``predict_decisions`` gives for every row with the kNN model
    ``knn``, whose reference rows are rows of ``matrix`` (None without a model). The
    model's neighbors are taken among its reference rows in their order, so ties go
    to the earlier one, as in its own search."""
    weights = check_field_weights(config.field_weights, len(matrix.field_order)) \
        if config.rerank else None
    selections = []
    for ids in populations:
        rows = np.array(positions(matrix.index_order, ids))
        selections.append(Selection(config.k, weights, rows, rows, exclude_self=True))
    if knn is not None:
        if knn.metric != config.metric:
            raise ValueError(f"the kNN model's metric {knn.metric!r} is not {config.metric!r}")
        selections.append(Selection(knn.k, cols=positions(matrix.index_order, knn.reference_ids)))
    found = search(matrix.data, matrix.data, selections, config.metric) if selections else []
    structures = {
        ids: NeighborList(config.k, neighbors, scores, config.metric, True, ids)
        for ids, (neighbors, scores) in zip(populations, found)
    }
    if knn is None:
        return structures, None
    values = knn_vote(knn.labels, found[-1][0], knn.k)
    return structures, DecisionVector(LEARNERS["knn"].source, values, matrix.index_order)


def _metadata(
    config: AuditConfig, profiles: list[Profile], corpus_sha256: str, seeds: dict
) -> dict:
    """Every config field as report.json holds it, but the embeddings path: a
    location, like the corpus path. The learner fields but the master seed go
    under "train"."""
    values = json.loads(canonical_json(asdict(config)))
    del values["embeddings_path"]
    train = {f.name: values.pop(f.name) for f in fields(TrainConfig) if f.name != "seed"}
    return {
        **values,
        "train": train,
        "corpus_size": len(profiles),
        "corpus_sha256": corpus_sha256,
        "derived_seeds": seeds,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _write_run_dir(out_dir, *artifacts) -> None:
    """Write ``_write_run_files(tree, *artifacts)`` to ``out_dir`` as ``run_audit``
    describes."""
    out = Path(out_dir)
    out.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(dir=out.parent, prefix=f".{out.name}."))
    try:
        tree = staging / "run"  # made by mkdir, so it gets the usual permissions
        _write_run_files(tree, *artifacts)
        prior = staging / "prior"  # a replaced run, removed with the staging directory
        if out.exists() and (not out.is_dir() or any(out.iterdir())):
            if not _is_run_dir(out):
                raise IntegrityError(f"{out} is neither empty nor a run directory; left as it was")
            os.replace(out, prior)
        try:
            os.replace(tree, out)
        except OSError:
            if prior.exists():
                os.replace(prior, out)
            raise
    finally:
        shutil.rmtree(staging, ignore_errors=True)


# every top-level name a run writes: a directory holding only these is a run that
# a later run may replace whole, and any other name marks data not to delete
_RUN_ENTRIES = ("config.json", "corpus.sha256", "embeddings.faem", "splits.json",
                "neighbors.json", "report.*", "decisions_*.json", "models")


def _is_run_dir(path: Path) -> bool:
    return (
        (path / "config.json").is_file() and (path / "report.json").is_file()
        and all(any(fnmatchcase(entry.name, name) for name in _RUN_ENTRIES)
                for entry in path.iterdir())
    )


def _write_run_files(
    out: Path, report, config, corpus_path, matrix, ids, split, models, search_logs,
    structures, decisions,
) -> None:
    (out / "models").mkdir(parents=True)
    write_json(out / "config.json", {
        **asdict(config), "derived_seeds": report.metadata["derived_seeds"]
    })
    (out / "corpus.sha256").write_text(f"{report.metadata['corpus_sha256']}  {corpus_path}\n")
    save_embeddings(matrix, out / "embeddings.faem", ids)  # in corpus order
    save_split(split, out / "splits.json")
    for source, model in models.items():
        save_model(model, out / "models" / f"{source.split(':', 1)[1]}.json")
    if search_logs:
        write_json(out / "models" / "search_log.json", search_logs)
    write_json(
        out / "neighbors.json",
        {"stages": {stage: neighbors_to_dict(nl) for stage, nl in structures.items()}},
    )
    for source, vector in decisions.items():
        write_json(out / f"decisions_{source.replace(':', '_')}.json", vector.to_dict())
    write_json(out / "report.json", report.to_dict())
    (out / "report.csv").write_text(render_report(report, "csv"))
    (out / "report.md").write_text(render_report(report, "markdown"))


# ---------------------------------------------------------------------------
# comparison and rendering


def compare_sources(report: AuditReport, a: str, b: str) -> dict:
    """Per-column differences (a - b); consistency in percentage points.

    A column missing on either side yields None rather than a zero delta.
    """
    row_a = report.row(a)
    row_b = report.row(b)
    out: dict = {"a": a, "b": b}
    for column in _REPORT_COLUMNS:
        va, vb = getattr(row_a, column), getattr(row_b, column)
        if column in METRIC_NAMES:
            out[column] = None if va is None or vb is None else va - vb
        else:
            out[f"{column}_points"] = None if va is None or vb is None else (va - vb) * 100.0
    return out


def _fmt(value: float | None) -> str:
    return "-" if value is None else f"{value:.4f}"


def render_report(report: AuditReport, format: str = "markdown") -> str:
    """Render as markdown (4-decimal cells), CSV, or full-precision JSON."""
    if format == "json":
        return canonical_json(report.to_dict()) + "\n"
    if format == "csv":
        lines = [",".join(("source",) + _REPORT_COLUMNS)]
        for row in report.rows:
            cells = ["" if getattr(row, c) is None else repr(getattr(row, c))
                     for c in _REPORT_COLUMNS]
            lines.append(",".join([row.source] + cells))
        return "\n".join(lines) + "\n"
    if format == "markdown":
        lines = [
            "| Model | P | R | F1 | A | C(AR) | C(OF) |",
            "|---|---|---|---|---|---|---|",
        ]
        for row in report.rows:
            cells = [_fmt(getattr(row, c)) for c in _REPORT_COLUMNS]
            lines.append("| " + " | ".join([row.source] + cells) + " |")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {format!r}")
