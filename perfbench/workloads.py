"""Workload definitions: inputs made from the seed, one operation, output checks.

Every workload builds a synthetic corpus with ``generate_synthetic_corpus``
(vocabulary 400) and labels it with ``simulate_raters`` (noise 0.25, a +0.2
threshold shift against group 1), as ``demos/05_full_audit.py`` does. The
library only ever sees the files written here.

This module needs ``fairaudit`` and numpy only inside the functions that
build inputs or run operations; the orchestrator imports it for the specs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

HUMAN_SOURCES = ("human:SL", "human:AR", "human:OF")
MODEL_SOURCES = ("model:knn", "model:gbstumps", "model:birnn")
REPORT_COLUMNS = ("precision", "recall", "f1", "accuracy", "c_ar", "c_of")
METRIC_COLUMNS = REPORT_COLUMNS[:4]
VOCAB = 400
RATER_NOISE = 0.25
RATER_BIAS = {1: 0.2}
# Noise on the dense precomputed vectors, per entry; the signal part of a
# field block has norm 0.7 to 1, the noise part about 0.55 (0.02 * sqrt(768)).
VECTOR_NOISE = 0.02
CLI_K = 5
MIN_C_GAP_PTS = 5.0  # acceptance criterion 8: models beat human:OF by 5 points


@dataclass(frozen=True)
class Workload:
    """One named workload. ``kind`` is "audit" (one ``run_audit`` call per
    operation) or "cli" (the ingest -> split -> train -> predict -> metrics
    chain through ``fairaudit.cli.main``)."""

    name: str
    kind: str
    n: int
    audit_config: dict = field(default_factory=dict)
    d: int = 768
    train_flags: dict = field(default_factory=dict)

    @classmethod
    def from_json(cls, text: str) -> "Workload":
        return cls(**json.loads(text))


WORKLOADS = {
    "audit-paper": Workload("audit-paper", "audit", 870),
    "audit-scale": Workload(
        "audit-scale",
        "audit",
        3000,
        audit_config={
            "sources": [s for s in HUMAN_SOURCES + MODEL_SOURCES if s != "model:gbstumps"]
        },
    ),
    # The BiRNN runs a fixed 10 epochs (patience = epochs turns early stopping
    # off): with early stopping its epoch count, and so about 10% of wall_s,
    # varied with the seed (7 to 13 epochs).
    "cli-ingest": Workload(
        "cli-ingest",
        "cli",
        6000,
        train_flags={"stumps": ["--rounds", "5"], "birnn": ["--epochs", "10", "--patience", "10"]},
    ),
}


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# inputs


def make_inputs(spec: Workload, seed: int, data_dir: Path) -> dict[str, str]:
    """Write the workload's input files; returns their SHA-256 by name."""
    import fairaudit as fa

    data_dir.mkdir(parents=True, exist_ok=True)
    profiles, latents = fa.generate_synthetic_corpus(spec.n, VOCAB, seed)
    rater = fa.RaterConfig(noise_sigma=RATER_NOISE, bias_shift=RATER_BIAS, seed=seed + 1)
    profiles = fa.attach_stage_labels(profiles, fa.simulate_raters(profiles, latents, rater))
    fa.save_corpus(profiles, data_dir / "corpus.jsonl")
    if spec.kind == "cli":
        _write_vectors(profiles, latents, spec.d, seed, data_dir / "vectors.faem")
        fa.save_decisions(fa.binarize_labels(profiles, "Type"), data_dir / "truth.json")
    return {p.name: sha256_file(p) for p in sorted(data_dir.iterdir())}


def _write_vectors(profiles, latents, d: int, seed: int, path: Path) -> None:
    """Dense stand-in for an external embedder, stored in shuffled row order.

    Each field block mixes two fixed random directions in proportion to the
    profile's latent field quality (the Combined block uses the profile
    quality) and adds Gaussian noise to every entry, so no entry is zero and
    both neighbors and learners can recover the quality.
    """
    import numpy as np

    import fairaudit as fa

    rng = np.random.default_rng([seed, 2])
    n_fields = len(fa.FIELD_ORDER)
    n = len(profiles)
    quality = np.array(
        [
            [latents[p.id].field_q[name] for name in fa.FIELD_ORDER[:-1]] + [latents[p.id].q]
            for p in profiles
        ]
    )[:, :, None]
    directions = rng.normal(0.0, 1.0 / math.sqrt(d), (2, n_fields, d))
    data = quality * directions[0] + (1.0 - quality) * directions[1]
    data += rng.normal(0.0, VECTOR_NOISE, data.shape)
    if np.count_nonzero(data) != data.size:
        raise RuntimeError("generated vectors contain zero entries")
    order = rng.permutation(n)
    ids = tuple(profiles[i].id for i in order)
    matrix = fa.EmbeddingMatrix(data.reshape(n, n_fields * d)[order], d, fa.FIELD_ORDER, ids)
    fa.save_embeddings(matrix, path)


# ---------------------------------------------------------------------------
# operations


@dataclass
class OpResult:
    """Outcome of one operation: an audit, or one pass of the CLI chain."""

    wall_s: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    fingerprint: str | None = None
    cells: dict = field(default_factory=dict)
    model_f1: float | None = None
    c_gap_pts: float | None = None
    run_dir_bytes: int = 0

    @property
    def failed(self) -> int:
        return self.attempted if self.failures else 0


def run_audit_op(spec: Workload, seed: int, data_dir: Path, out_dir: Path, span):
    """One ``run_audit`` call with the workload's config; returns its result."""
    import fairaudit as fa

    overrides = {
        k: tuple(v) if isinstance(v, list) else v for k, v in spec.audit_config.items()
    }
    config = fa.AuditConfig(seed=seed, **overrides)
    result = OpResult(attempted=1)
    start = time.perf_counter()
    try:
        with span("audit.run_audit", "audit"):
            fa.run_audit(data_dir / "corpus.jsonl", config, out_dir=out_dir)
    except Exception as exc:  # any raise is a failed operation, not a crash
        result.wall_s = time.perf_counter() - start
        result.failures.append(f"run_audit raised {type(exc).__name__}: {exc}")
        return result
    result.wall_s = time.perf_counter() - start
    result.run_dir_bytes = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
    report = json.loads((out_dir / "report.json").read_text())
    report["metadata"].pop("timestamp", None)
    result.fingerprint = hashlib.sha256(
        json.dumps(report, sort_keys=True).encode()
    ).hexdigest()
    result.cells = {row["source"]: {c: row.get(c) for c in REPORT_COLUMNS}
                    for row in report["rows"]}
    result.failures += check_report(report, config.sources)
    if not result.failures:
        rows = result.cells
        models = [s for s in MODEL_SOURCES if s in rows]
        result.model_f1 = sum(rows[s]["f1"] for s in models) / len(models)
        human = rows["human:OF"]["c_of"]
        result.c_gap_pts = min(rows[s]["c_of"] - human for s in models) * 100.0
        if result.c_gap_pts < MIN_C_GAP_PTS:
            result.failures.append(
                f"c_gap_pts {result.c_gap_pts:.2f} below {MIN_C_GAP_PTS} (criterion 8)"
            )
    return result


def check_report(report: dict, sources: tuple[str, ...]) -> list[str]:
    """Shape and range checks on one report.json."""
    rows = report.get("rows", [])
    got = tuple(row.get("source") for row in rows)
    if got != sources:
        return [f"report rows {got} != expected {sources}"]
    failures = []
    for row in rows:
        if set(row) != {"source", *REPORT_COLUMNS}:
            failures.append(f"{row['source']}: columns {sorted(row)}")
            continue
        for column in REPORT_COLUMNS:
            value = row[column]
            if value is not None and not 0.0 <= value <= 1.0:
                failures.append(f"{row['source']}.{column}={value} outside [0,1]")
    for source in sources:
        if source.startswith("model:") or source == "human:OF":
            if next(r for r in rows if r["source"] == source)["c_of"] is None:
                failures.append(f"{source}.c_of missing")
    return failures


def cli_steps(spec: Workload, seed: int, data_dir: Path, out_dir: Path) -> list[list[str]]:
    corpus, vectors, truth = (str(data_dir / f) for f in ("corpus.jsonl", "vectors.faem",
                                                          "truth.json"))
    emb, splits = str(out_dir / "embeddings.faem"), str(out_dir / "splits.json")
    d = str(spec.d)
    steps = [
        ["embed", "--corpus", corpus, "--embedder", "ingest", "--embeddings", vectors,
         "--d", d, "--out", emb],
        ["split", "--corpus", corpus, "--seed", str(seed), "--out", splits],
    ]
    for family in ("stumps", "birnn"):
        steps.append(["train", "--family", family, "--corpus", corpus, "--embeddings", emb,
                      "--splits", splits, "--d", d, "--seed", str(seed),
                      "--out", str(out_dir / f"{family}.json"),
                      *spec.train_flags.get(family, [])])
    for family in ("stumps", "birnn"):
        steps.append(["predict", "--model", str(out_dir / f"{family}.json"),
                      "--embeddings", emb, "--d", d,
                      "--out", str(out_dir / f"decisions_{family}.json")])
    for family in ("stumps", "birnn"):
        steps.append(["metrics", "--predicted", str(out_dir / f"decisions_{family}.json"),
                      "--truth", truth, "--out", str(out_dir / f"metrics_{family}.json")])
    return steps


def run_cli_op(spec: Workload, seed: int, data_dir: Path, out_dir: Path, span,
               with_c_gap: bool = False):
    """The CLI chain, in-process; each subcommand is one attempted operation."""
    from fairaudit import cli

    out_dir.mkdir(parents=True, exist_ok=True)
    steps = cli_steps(spec, seed, data_dir, out_dir)
    result = OpResult(attempted=len(steps))
    sink = io.StringIO()
    start = time.perf_counter()
    for argv in steps:
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                with span(f"cli.{argv[0]}", "cli"):
                    code = cli.main(argv)
        except Exception as exc:
            result.failures.append(f"{argv[0]} raised {type(exc).__name__}: {exc}")
            break
        if code != 0:
            result.failures.append(f"{argv[0]} exited {code}: {sink.getvalue()[-300:]!r}")
            break
    result.wall_s = time.perf_counter() - start
    if result.failures:
        return result
    digest = hashlib.sha256()
    for family in ("stumps", "birnn"):
        metrics = json.loads((out_dir / f"metrics_{family}.json").read_text())
        result.cells[family] = {c: metrics.get(c) for c in METRIC_COLUMNS}
        for name in (f"{family}.json", f"metrics_{family}.json"):
            digest.update((out_dir / name).read_bytes())
    result.fingerprint = digest.hexdigest()
    for family, cells in result.cells.items():
        for column, value in cells.items():
            if not isinstance(value, float) or not 0.0 <= value <= 1.0:
                result.failures.append(f"metrics_{family}.{column}={value!r} outside [0,1]")
    if not result.failures:
        result.model_f1 = sum(c["f1"] for c in result.cells.values()) / len(result.cells)
        if with_c_gap:
            result.c_gap_pts = cli_c_gap_pts(data_dir, out_dir)
    return result


def cli_c_gap_pts(data_dir: Path, out_dir: Path) -> float:
    """min over the two CLI models of C(OF) minus human:OF C(OF), in points.

    Neighbors are the exact cosine top-k over the embedded rows, found here
    with one GEMM per block; the library's neighbor search is not timed on
    this workload and is not called.
    """
    import numpy as np

    import fairaudit as fa

    ids, data = fa.embed.load_matrix_file(out_dir / "embeddings.faem")
    x = data.astype(np.float32)
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    neighbors = np.empty((len(ids), CLI_K), dtype=np.int64)
    for start in range(0, len(ids), 1024):
        scores = x[start:start + 1024] @ x.T
        rows = np.arange(scores.shape[0])
        scores[rows, rows + start] = -np.inf
        neighbors[start:start + 1024] = np.argpartition(-scores, CLI_K, axis=1)[:, :CLI_K]

    def c_score(values: np.ndarray) -> float:
        return 1.0 - float(np.mean(np.abs(values - values[neighbors].mean(axis=1))))

    human = fa.binarize_labels(fa.load_corpus(data_dir / "corpus.jsonl"), "OF")
    if human.index_order != tuple(ids):
        raise RuntimeError("embedded rows are not in corpus order")
    models = [fa.load_decisions(out_dir / f"decisions_{f}.json").values
              for f in ("stumps", "birnn")]
    return (min(c_score(v) for v in models) - c_score(human.values)) * 100.0


# ---------------------------------------------------------------------------
# reference values


def check_reference(cells: dict, expected: dict | None, tolerance: dict) -> list[str]:
    """Compare report cells or CLI metrics with stored reference values.

    ``tolerance`` maps a cell class to its absolute tolerance: "labels" for
    cells that depend only on labels and the split (human P/R/F1/A),
    "model" for model P/R/F1/A, "consistency" for every C cell.
    """
    if expected is None:
        return []
    failures = []
    for row, columns in expected.items():
        for column, want in columns.items():
            got = cells.get(row, {}).get(column)
            if want is None or got is None:
                if want != got:
                    failures.append(f"{row}.{column}={got!r}, reference {want!r}")
                continue
            if column in ("c_ar", "c_of"):
                tol = tolerance["consistency"]
            elif row.startswith("human:"):
                tol = tolerance["labels"]
            else:
                tol = tolerance["model"]
            if abs(got - want) > tol:
                failures.append(f"{row}.{column}={got!r}, reference {want!r} (tol {tol})")
    return failures
