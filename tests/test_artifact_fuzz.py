"""Damaged artifacts raise FairauditError and make the CLI exit 2, never crash."""

import json
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
from fairaudit.cli import main
from fairaudit.dataset import FIELD_ORDER, DecisionVector
from fairaudit.embed import EmbeddingMatrix, load_matrix_file, save_embeddings
from fairaudit.errors import FairauditError

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
