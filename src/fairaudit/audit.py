"""End-to-end audit pipeline and the comparison report.

``run_audit`` executes load, embed, split, train, predict, and score, then
assembles one report row per decision source: the three human funnel stages
and the three built-in classifiers. Classification metrics are computed
against the binarized final outcome on the test split by default; consistency
is computed per stage column over the profiles that carry that stage's label
(the population actually evaluated at that stage), using a k-NN structure
built on exactly those rows. Every seed, flag, and scope lands in the report
metadata so any cell can be recomputed.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os
import shutil
import tempfile
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Callable

from ._util import canonical_json, derive_seeds, parsing, typed, write_json
from .classifiers import (
    KnnClassifier,
    TrainConfig,
    birnn_train,
    knn_predict,
    random_search,
    save_model,
    train_stumps,
)
from .dataset import (
    FIELD_ORDER,
    STAGES,
    DecisionVector,
    Profile,
    binarize_labels,
    check_ratios,
    load_corpus,
    save_split,
    split_corpus,
)
from .embed import (
    EmbeddingMatrix,
    check_sizes,
    embed_corpus,
    ingest_embeddings,
    normalize_field_blocks,
    save_embeddings,
)
from .errors import IntegrityError, StageError
from .fairness import AVERAGING_MODES, classification_metrics, consistency
from .simindex import (
    METRICS,
    NeighborList,
    check_field_weights,
    check_k,
    knn_batched,
    knn_feature_reranked,
    neighbors_to_dict,
)

# The stage functions below look up their layer calls (embed_corpus,
# train_stumps, knn_feature_reranked, ...) in this module's globals at call
# time, so wrapping those names here (as the traced benchmark run does) reaches
# every such call of both the audit pipeline and the CLI.


@dataclass(frozen=True)
class Learner:
    """One classifier family: its report source, trainer and predictor.

    ``train(train, y_train, val, y_val, config)`` takes EmbeddingMatrix rows and
    an AuditConfig (kNN reads its ``k`` and ``metric``) and returns the model and
    the random-search trial log (None without a search). ``predict(model,
    matrix)`` returns one decision per matrix row.
    """

    source: str
    train: Callable
    predict: Callable


def _train_knn(train, y_train, val, y_val, config):
    truth = DecisionVector("truth", y_train, train.index_order)
    return KnnClassifier(config.k, config.metric).fit(train, truth), None


def _searchable(source: str, family: str, view: Callable, fit: Callable) -> Learner:
    """The Learner of a family ``random_search`` can tune. Train and predict read
    the rows through ``view``; ``fit(x_train, y_train, x_val, y_val, config)``
    trains one model, and with ``search_trials > 1`` the search trains them."""

    def train(train, y_train, val, y_val, config):
        rows = (view(train), y_train, view(val), y_val, config)
        if config.search_trials > 1:
            result = random_search(family, *rows)
            return result.model, [asdict(t) for t in result.trials]
        return fit(*rows), None

    return Learner(source, train, lambda model, matrix: model.predict(view(matrix)))


LEARNERS = {
    "knn": Learner("model:knn", _train_knn, lambda model, m: knn_predict(model, m).values),
    "stumps": _searchable("model:gbstumps", "stumps", lambda m: m.data,
                          lambda x, y, x_val, y_val, config: train_stumps(x, y, config)),
    "birnn": _searchable("model:birnn", "birnn", EmbeddingMatrix.as_field_sequences,
                         lambda *rows: birnn_train(*rows)[0]),
}


def predict_decisions(model, matrix: EmbeddingMatrix) -> DecisionVector:
    """Decisions of a trained model of any family for every row of ``matrix``."""
    learner = LEARNERS[model.family]
    return DecisionVector(learner.source, learner.predict(model, matrix), matrix.index_order)


HUMAN_SOURCES = tuple(f"human:{stage}" for stage in STAGES)
MODEL_SOURCES = tuple(learner.source for learner in LEARNERS.values())
ALL_SOURCES = HUMAN_SOURCES + MODEL_SOURCES
CONSISTENCY_STAGES = ("AR", "OF")

_REPORT_COLUMNS = ("precision", "recall", "f1", "accuracy", "c_ar", "c_of")
_SPLITS = ("train", "validation", "test", "full")

# How the CLI exposes AuditConfig and TrainConfig fields: each field is a flag
# named after it (``--reg-lambda``), except the legacy names in FLAG_NAMES and
# the fields in NO_FLAG, with the help text in FLAG_HELP. CHOICES are the
# closed value lists; __post_init__ enforces them too.
FLAG_NAMES = {
    "max_epochs": "epochs",
    "learning_rate": "lr",
    "target_stage": "target",
    "embeddings_path": "embeddings",
}
FLAG_HELP = {
    "d": "dimensions per field",
    "embeddings_path": "source matrix for --embedder ingest",
    "max_tokens": "truncate each field to this many tokens first",
    "normalize": "L2-normalize each field block (default on)",
    "rerank": "feature-reranked neighbor retrieval (default on)",
    "target_stage": "label stage to learn (default Type)",
}
CHOICES = {
    "embedder": ("hash", "ingest"),
    "metric": METRICS,
    "averaging": AVERAGING_MODES,
    "metrics_split": _SPLITS,
    "consistency_split": _SPLITS,
    "consistency_cells": ("stage", "all"),
}
NO_FLAG = ("field_weights", "sources", "search_space")


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
    candidate_pool: int | None = None  # must be >= k if given; the exact rerank ignores it
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
        # what the pipeline stages check, by their own checks, before any data is read
        if self.embedder == "hash":
            check_sizes(self.d, self.max_tokens)
        check_ratios(self.ratios)
        check_k(self.k, self.candidate_pool if self.rerank else None)
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
    def from_dict(cls, obj: dict, what: str = "report") -> "AuditReport":
        """Cells absent from a row, or null, are missing values; ``what`` names
        the artifact in a parse error."""

        def cell(row: dict, column: str) -> float | None:
            return None if row.get(column) is None else typed(row, column, (int, float))

        with parsing(what):
            rows = tuple(
                ReportRow(typed(r, "source", str), *[cell(r, c) for c in _REPORT_COLUMNS])
                for r in typed(obj, "rows", list)
            )
            return cls(rows, typed(obj, "metadata", dict))


# ---------------------------------------------------------------------------
# stages shared by run_audit and the CLI


def embed_profiles(profiles: list[Profile], config: AuditConfig, seed: int) -> EmbeddingMatrix:
    """The matrix ``config`` asks for: hashed with the stage seed ``seed``, or
    ingested from ``config.embeddings_path``; field blocks normalized if asked."""
    if config.embedder == "hash":
        matrix = embed_corpus(profiles, config.d, seed, config.max_tokens)
    else:
        matrix = ingest_embeddings(config.embeddings_path, [p.id for p in profiles], config.d)
    return normalize_field_blocks(matrix) if config.normalize else matrix


def neighbor_structure(
    matrix: EmbeddingMatrix, config: AuditConfig, batch_size: int | None = None
) -> NeighborList:
    """The k-NN structure ``config`` asks for over every row of ``matrix``;
    ``batch_size`` bounds the query rows per block of the whole-row search."""
    if config.rerank:
        return knn_feature_reranked(
            matrix, config.k, config.metric, config.candidate_pool, config.field_weights
        )
    return knn_batched(matrix, config.k, config.metric, batch_size=batch_size)


def training_rows(matrix: EmbeddingMatrix, truth: DecisionVector, split) -> tuple:
    """``(train, y_train, val, y_val)``: the split's train and validation rows of
    ``matrix`` and their ``truth`` values, the first arguments of ``Learner.train``.
    Taken once for every family, since the kNN model keeps its train rows."""
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


class _AuditRun:
    def __init__(self, corpus_path, config: AuditConfig):
        self.corpus_path = str(corpus_path)
        self.config = config
        self.seeds = derive_seeds(config.seed, ("embed", "split", "stumps", "birnn", "search"))
        self.structures: dict[tuple[str, ...], NeighborList] = {}
        self.stage_structures: dict[str, NeighborList] = {}
        self.models: dict[str, object] = {}
        self.search_logs: dict[str, list] = {}

    # pipeline ---------------------------------------------------------------

    def execute(self) -> "AuditReport":
        config = self.config
        self.profiles = _stage("load", self._load)
        self.matrix = _stage(
            "embed", lambda: embed_profiles(self.profiles, config, self.seeds["embed"])
        )
        self.split = _stage(
            "split",
            lambda: split_corpus(
                self.profiles, config.ratios, self.seeds["split"], config.stratify_on
            ),
        )
        self.decisions = _stage("labels", self._collect_decisions)
        _stage("train", self._train_models)
        _stage("predict", self._predict_models)
        return _stage("score", self._score)

    def _load(self) -> list[Profile]:
        with open(self.corpus_path, "rb") as fh:
            self.corpus_sha256 = hashlib.sha256(fh.read()).hexdigest()
        return load_corpus(self.corpus_path)

    def _collect_decisions(self) -> dict[str, DecisionVector]:
        decisions: dict[str, DecisionVector] = {}
        self.truth = binarize_labels(self.profiles, self.config.target_stage)
        for stage in STAGES:
            labeled = [p for p in self.profiles if stage in p.labels]
            if labeled:
                decisions[f"human:{stage}"] = binarize_labels(labeled, stage)
        return decisions

    def _train_models(self) -> None:
        config = self.config
        rows = training_rows(self.matrix, self.truth, self.split)
        for family, learner in LEARNERS.items():
            if learner.source not in config.sources:
                continue
            seed = self.seeds["search"] if config.search_trials > 1 else self.seeds.get(family, 0)
            model, trials = learner.train(*rows, replace(config, seed=seed))
            self.models[learner.source] = model
            if trials is not None:
                self.search_logs[learner.source] = trials

    def _predict_models(self) -> None:
        for source, model in self.models.items():
            self.decisions[source] = predict_decisions(model, self.matrix)

    # scoring ----------------------------------------------------------------

    def _split_ids(self, name: str) -> set[str]:
        if name == "full":
            return set(self.matrix.index_order)
        return set(self.split.subsets()[name])

    def _structure_for(self, ids: list[str]) -> NeighborList | None:
        key = tuple(ids)
        if key in self.structures:
            return self.structures[key]
        if len(ids) < self.config.k + 1:
            return None
        structure = neighbor_structure(self.matrix.take(ids), self.config)
        self.structures[key] = structure
        return structure

    def _consistency_cell(self, source: str, stage: str) -> float | None:
        vector = self.decisions.get(source)
        if vector is None:
            return None
        scope = self._split_ids(self.config.consistency_split)
        covered = set(vector.index_order)
        stage_ids = [
            p.id
            for p in self.profiles
            if stage in p.labels and p.id in scope and p.id in covered
        ]
        structure = self._structure_for(stage_ids)
        if structure is None:
            return None
        if source.startswith("model:"):
            self.stage_structures.setdefault(stage, structure)
        result = consistency(vector.take(stage_ids), structure)
        return result.score

    def _metrics_cells(self, source: str) -> dict[str, float | None]:
        vector = self.decisions.get(source)
        absent = {c: None for c in ("precision", "recall", "f1", "accuracy")}
        if vector is None:
            return absent
        scope = self._split_ids(self.config.metrics_split)
        covered = set(vector.index_order)
        ids = [pid for pid in self.matrix.index_order if pid in scope and pid in covered]
        if not ids:
            return absent
        metrics = classification_metrics(
            vector.take(ids), self.truth.take(ids), self.config.averaging
        )
        return {
            "precision": metrics.precision,
            "recall": metrics.recall,
            "f1": metrics.f1,
            "accuracy": metrics.accuracy,
        }

    def _wants_cell(self, source: str, stage: str) -> bool:
        if self.config.consistency_cells == "all" or source.startswith("model:"):
            return True
        return source == f"human:{stage}"

    def _score(self) -> AuditReport:
        rows = []
        for source in self.config.sources:
            cells = self._metrics_cells(source)
            for stage in CONSISTENCY_STAGES:
                key = f"c_{stage.lower()}"
                cells[key] = (
                    self._consistency_cell(source, stage)
                    if self._wants_cell(source, stage)
                    else None
                )
            rows.append(ReportRow(source, **cells))
        # Every config field as report.json holds it, but the embeddings path: a
        # location, like the corpus path. The learner fields but the master
        # seed go under "train".
        values = json.loads(canonical_json(asdict(self.config)))
        del values["embeddings_path"]
        train = {f.name: values.pop(f.name) for f in fields(TrainConfig) if f.name != "seed"}
        metadata = {
            **values,
            "train": train,
            "corpus_size": len(self.profiles),
            "corpus_sha256": self.corpus_sha256,
            "derived_seeds": self.seeds,
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        }
        return AuditReport(tuple(rows), metadata)


def run_audit(corpus_path, config: AuditConfig | None = None, out_dir=None) -> AuditReport:
    """Run the full pipeline; optionally persist every artifact to a run dir.

    The run directory holds config.json, corpus.sha256, embeddings.faem,
    splits.json, models/*.json, neighbors.json (the per-stage structures used
    for the consistency columns), and report.{json,csv,md}. Nothing is written
    until the whole pipeline has succeeded, so partial reports never appear.
    The files are written into a hidden sibling directory first. When
    ``out_dir`` is missing or empty, that directory then replaces it in one
    rename; an existing non-empty ``out_dir`` has its files of the same names
    overwritten and keeps the others. A failed write leaves ``out_dir`` as it
    was and removes the sibling.
    """
    config = config or AuditConfig()
    run = _AuditRun(corpus_path, config)
    report = run.execute()
    if out_dir is not None:
        _stage("write", lambda: _write_run_dir(run, report, out_dir))
    return report


def _write_run_dir(run: _AuditRun, report: AuditReport, out_dir) -> None:
    out = Path(out_dir)
    out.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(dir=out.parent, prefix=f".{out.name}."))
    try:
        tree = staging / "run"  # made by mkdir, so it gets the usual permissions
        _write_run_files(run, report, tree)
        if out.is_dir() and any(out.iterdir()):
            for path in sorted(tree.rglob("*")):
                if path.is_file():
                    target = out / path.relative_to(tree)
                    target.parent.mkdir(exist_ok=True)
                    os.replace(path, target)
        else:
            os.replace(tree, out)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def _write_run_files(run: _AuditRun, report: AuditReport, out: Path) -> None:
    (out / "models").mkdir(parents=True)
    config_obj = asdict(run.config)
    config_obj["derived_seeds"] = run.seeds
    write_json(out / "config.json", config_obj)
    (out / "corpus.sha256").write_text(f"{run.corpus_sha256}  {run.corpus_path}\n")
    save_embeddings(run.matrix, out / "embeddings.faem")
    save_split(run.split, out / "splits.json")
    for source, model in run.models.items():
        save_model(model, out / "models" / f"{source.split(':', 1)[1]}.json")
    if run.search_logs:
        write_json(out / "models" / "search_log.json", run.search_logs)
    write_json(
        out / "neighbors.json",
        {"stages": {stage: neighbors_to_dict(nl) for stage, nl in run.stage_structures.items()}},
    )
    for source, vector in run.decisions.items():
        name = source.replace(":", "_")
        write_json(out / f"decisions_{name}.json", vector.to_dict())
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
    for column in ("precision", "recall", "f1", "accuracy"):
        va, vb = getattr(row_a, column), getattr(row_b, column)
        out[column] = None if va is None or vb is None else va - vb
    for column in ("c_ar", "c_of"):
        va, vb = getattr(row_a, column), getattr(row_b, column)
        out[f"{column}_points"] = None if va is None or vb is None else (va - vb) * 100.0
    return out


def _fmt(value: float | None) -> str:
    return "-" if value is None else f"{value:.4f}"


def render_report(report: AuditReport, format: str = "markdown") -> str:
    """Render as markdown (4-decimal cells), CSV, or full-precision JSON."""
    if format == "json":
        return canonical_json(report.to_dict()) + "\n"
    if format == "csv":
        lines = ["source,precision,recall,f1,accuracy,c_ar,c_of"]
        for row in report.rows:
            cells = [
                "" if getattr(row, c) is None else repr(getattr(row, c))
                for c in _REPORT_COLUMNS
            ]
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
