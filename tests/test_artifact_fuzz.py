"""Damaged artifacts raise FairauditError and make the CLI exit 2, never crash."""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairaudit.classifiers import (
    KnnClassifier,
    TrainConfig,
    birnn_train,
    load_model,
    save_model,
    train_stumps,
)
from fairaudit._util import naming, read_json, write_json
from fairaudit.audit import AuditConfig, AuditReport, ReportRow
from fairaudit.cli import main
from fairaudit.dataset import (
    FIELD_ORDER,
    DecisionVector,
    binarize_labels,
    load_corpus,
    load_decisions,
    load_split,
    save_decisions,
)
from fairaudit.embed import EmbeddingMatrix, load_matrix_file, save_embeddings
from fairaudit.errors import FairauditError, IntegrityError, ParseError
from fairaudit.fairness import METRIC_NAMES, classification_metrics, consistency
from fairaudit.simindex import load_neighbors

D = 2  # dimensions per field; rows are 5 * D wide


def small_matrix() -> EmbeddingMatrix:
    data = np.random.default_rng(0).standard_normal((12, len(FIELD_ORDER) * D))
    return EmbeddingMatrix(data, D, FIELD_ORDER, tuple(f"p{i}é" for i in range(12)))


def small_model(family: str):
    matrix = small_matrix()
    y = np.array([0, 1] * 6)
    if family == "knn":
        return KnnClassifier(3).fit(matrix, DecisionVector("truth", y, matrix.index_order))
    if family == "stumps":
        return train_stumps(matrix.data, y, TrainConfig(rounds=3))
    seqs = matrix.as_field_sequences()
    config = TrainConfig(max_epochs=1, patience=1, hidden_dim=3, head_dim=2)
    return birnn_train(seqs, y, seqs, y, config)[0]


def predict_exit(model_path, emb_path, out_dir) -> int:
    return main(["predict", "--model", str(model_path), "--embeddings", str(emb_path),
                 "--d", str(D), "--out", str(Path(out_dir) / "pred.json")])


def test_truncated_faem_is_a_parse_error_at_every_offset(tmp_path, capsys):
    full = tmp_path / "full.faem"
    save_embeddings(small_matrix(), full)
    model = tmp_path / "stumps.json"
    save_model(small_model("stumps"), model)
    assert predict_exit(model, full, tmp_path) == 0
    raw = full.read_bytes()
    cut = tmp_path / "cut.faem"
    for offset in range(len(raw)):
        cut.write_bytes(raw[:offset])
        with pytest.raises(FairauditError):
            load_matrix_file(cut)
        assert predict_exit(model, cut, tmp_path) == 2, offset
    capsys.readouterr()


def json_kind(value) -> str:
    if value is None or isinstance(value, (bool, str, list, dict)):
        return type(value).__name__
    return "number"


REPLACEMENTS = (None, True, 7, "x", [], {})


def key_paths(obj, prefix=()):
    """Paths to every dict key, descending into dicts and the first item of lists."""
    if isinstance(obj, list) and obj:
        yield from key_paths(obj[0], prefix + (0,))
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield prefix + (key,)
            yield from key_paths(value, prefix + (key,))


MODEL_JSON = {}


def saved_model(family: str) -> dict:
    if family not in MODEL_JSON:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.json"
            save_model(small_model(family), path)
            MODEL_JSON[family] = json.loads(path.read_text())
    return json.loads(json.dumps(MODEL_JSON[family]))


@pytest.mark.parametrize("family", ["knn", "stumps", "birnn"])
def test_intact_model_loads_and_predicts(tmp_path, family, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(saved_model(family)))
    emb = tmp_path / "emb.faem"
    save_embeddings(small_matrix(), emb)
    assert load_model(path).family == family
    assert predict_exit(path, emb, tmp_path) == 0


@pytest.mark.parametrize("family", ["knn", "stumps", "birnn"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_dropped_or_retyped_key_is_a_parse_error(family, data):
    obj = saved_model(family)
    path = data.draw(st.sampled_from(sorted(key_paths(obj), key=str)))
    parent = obj
    for step in path[:-1]:
        parent = parent[step]
    old = parent[path[-1]]
    if data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(
            st.sampled_from([v for v in REPLACEMENTS if json_kind(v) != json_kind(old)])
        )
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "model.json"
        model.write_text(json.dumps(obj))
        with pytest.raises(FairauditError):
            load_model(model)
        emb = Path(tmp) / "emb.faem"
        save_embeddings(small_matrix(), emb)
        assert predict_exit(model, emb, tmp) == 2


# ---------------------------------------------------------------------------
# splits, decisions, neighbors and reports, through their loaders and the CLI


def load_report(path):
    """The report at ``path``, read as CLI ``report`` reads it."""
    with naming(path):
        return AuditReport.from_dict(read_json(path))


# kind -> (file name, loader, CLI command reading the file at ``path`` from ``root``)
ARTIFACTS = {
    "splits": ("splits.json", load_split, lambda root, path: [
        "train", "--family", "knn", "--corpus", str(root / "corpus.jsonl"),
        "--embeddings", str(root / "emb.faem"), "--splits", str(path), "--d", "4",
        "--out", str(path.parent / "model.json")]),
    "decisions": ("truth.json", load_decisions, lambda root, path: [
        "metrics", "--predicted", str(path), "--truth", str(root / "truth.json")]),
    "neighbors": ("nn.json", load_neighbors, lambda root, path: [
        "consistency", "--decisions", str(root / "truth.json"), "--neighbors", str(path)]),
    "report": ("report.json", load_report, lambda root, path: ["report", "--report", str(path)]),
}
REPORT_COLUMNS = ("precision", "recall", "f1", "accuracy", "c_ar", "c_of")


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """One intact file of each kind in ARTIFACTS, plus the corpus and embeddings beside them."""
    root = tmp_path_factory.mktemp("artifacts")
    corpus = root / "corpus.jsonl"
    assert main(["synth", "--n", "30", "--seed", "3", "--out-corpus", str(corpus)]) == 0
    assert main(["embed", "--corpus", str(corpus), "--d", "4", "--seed", "1",
                 "--out", str(root / "emb.faem"), "--neighbors-out", str(root / "nn.json"),
                 "--k", "3"]) == 0
    assert main(["split", "--corpus", str(corpus), "--seed", "2",
                 "--out", str(root / "splits.json")]) == 0
    save_decisions(binarize_labels(load_corpus(corpus), "Type"), root / "truth.json")
    rows = (ReportRow("human:AR", 0.5, 0.25, 1 / 3, 0.75, 0.9, 0.8), ReportRow("model:knn"))
    write_json(root / "report.json", AuditReport(rows, {"seed": 1, "train": {"rounds": 3}}).to_dict())
    return root


def may_load(kind: str, path: tuple, dropped: bool, value) -> bool:
    """Whether the change keeps the file valid: report metadata is free-form, cells may be absent."""
    if kind != "report":
        return False
    if path[0] == "metadata" and len(path) > 1:
        return True
    return path[0] == "rows" and path[-1] in REPORT_COLUMNS and (dropped or value is None)


@pytest.mark.parametrize("kind", sorted(ARTIFACTS))
def test_intact_artifact_loads_and_its_command_succeeds(artifacts, kind, tmp_path, capsys):
    name, loader, command = ARTIFACTS[kind]
    loader(artifacts / name)
    assert main(command(artifacts, artifacts / name)) == 0
    capsys.readouterr()


@pytest.mark.parametrize("kind", sorted(ARTIFACTS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_dropped_or_retyped_artifact_key_is_an_error(artifacts, kind, data):
    name, loader, command = ARTIFACTS[kind]
    obj = json.loads((artifacts / name).read_text())
    path = data.draw(st.sampled_from(sorted(key_paths(obj), key=str)))
    parent = obj
    for step in path[:-1]:
        parent = parent[step]
    old = parent[path[-1]]
    dropped = data.draw(st.booleans())
    value = None
    if dropped:
        del parent[path[-1]]
    else:
        value = data.draw(
            st.sampled_from([v for v in REPLACEMENTS if json_kind(v) != json_kind(old)])
        )
        parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        damaged = Path(tmp) / name
        damaged.write_text(json.dumps(obj))
        try:
            loader(damaged)
            loaded = True
        except FairauditError:
            loaded = False
        assert loaded == may_load(kind, path, dropped, value), path
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            assert main(command(artifacts, damaged)) == (0 if loaded else 2)
        # the message names the file to fix
        assert loaded or str(damaged) in stderr.getvalue(), stderr.getvalue()


@pytest.mark.parametrize("kind", sorted(ARTIFACTS))
def test_truncated_artifact_is_a_parse_error_naming_the_file(artifacts, kind, tmp_path, capsys):
    name, loader, command = ARTIFACTS[kind]
    raw = (artifacts / name).read_bytes()
    damaged = tmp_path / name
    damaged.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(ParseError, match=re.escape(str(damaged))):
        loader(damaged)
    assert main(command(artifacts, damaged)) == 2
    assert str(damaged) in capsys.readouterr().err


def test_consistency_out_holds_the_printed_score_and_every_gap(artifacts, tmp_path, capsys):
    out = tmp_path / "consistency.json"
    argv = ARTIFACTS["neighbors"][2](artifacts, artifacts / "nn.json") + ["--out", str(out)]
    assert main(argv) == 0
    result = read_json(out)
    assert capsys.readouterr().out == f"{result['score']:.4f}\n"
    assert len(result["per_profile_gap"]) == result["n"] == 30
    truth = load_decisions(artifacts / "truth.json")
    assert result["score"] == consistency(truth, load_neighbors(artifacts / "nn.json")).score


def test_metrics_out_holds_the_printed_metrics(artifacts, tmp_path, capsys):
    truth = load_decisions(artifacts / "truth.json")
    values = truth.values.copy()
    values[:7] = 1 - values[:7]
    predicted, out = tmp_path / "predicted.json", tmp_path / "metrics.json"
    save_decisions(DecisionVector("model:knn", values, truth.index_order), predicted)
    assert main(["metrics", "--predicted", str(predicted), "--truth",
                 str(artifacts / "truth.json"), "--out", str(out)]) == 0
    result = read_json(out)
    want = classification_metrics(load_decisions(predicted), truth, AuditConfig().averaging)
    assert result == want.to_dict() and sum(result["confusion"].values()) == 30
    assert capsys.readouterr().out == " ".join(
        f"{name}={result[name]:.4f}" for name in METRIC_NAMES) + "\n"


def test_unknown_neighbor_id_is_an_integrity_error(artifacts, tmp_path, capsys):
    obj = json.loads((artifacts / "nn.json").read_text())
    obj["rows"][0]["neighbors"][0] = "nobody"
    damaged = tmp_path / "nn.json"
    damaged.write_text(json.dumps(obj))
    with pytest.raises(IntegrityError):
        load_neighbors(damaged)
    assert main(ARTIFACTS["neighbors"][2](artifacts, damaged)) == 2
    assert "nobody" in capsys.readouterr().err


@pytest.mark.parametrize("damage, message", [
    ("itself", "neighbor row 0 names itself"),
    ("twice", "neighbor row 0 names one neighbor twice"),
])
def test_neighbor_row_naming_itself_or_one_neighbor_twice_is_an_integrity_error(
        artifacts, tmp_path, capsys, damage, message):
    obj = json.loads((artifacts / "nn.json").read_text())
    row = obj["rows"][0]
    assert obj["excludes_self"]
    row["neighbors"][-1] = row["id"] if damage == "itself" else row["neighbors"][0]
    damaged = tmp_path / "nn.json"
    damaged.write_text(json.dumps(obj))
    with pytest.raises(IntegrityError, match=message):
        load_neighbors(damaged)
    assert main(ARTIFACTS["neighbors"][2](artifacts, damaged)) == 2
    err = capsys.readouterr().err
    assert str(damaged) in err and message in err


@pytest.mark.parametrize("damage", ["unknown id", "shared id"])
def test_split_naming_a_foreign_or_shared_id_is_an_integrity_error(artifacts, damage, tmp_path):
    obj = json.loads((artifacts / "splits.json").read_text())
    if damage == "unknown id":
        obj["train"][0] = "nobody"
    else:
        obj["test"].append(obj["train"][0])
    damaged = tmp_path / "splits.json"
    damaged.write_text(json.dumps(obj))
    if damage == "shared id":
        with pytest.raises(IntegrityError):
            load_split(damaged)
    assert main(ARTIFACTS["splits"][2](artifacts, damaged)) == 2
