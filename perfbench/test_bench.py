"""Tests of the benchmark itself, on tiny workloads (a few seconds in all).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from workloads import Workload  # noqa: E402

TINY_AUDIT = Workload(
    "tiny-audit", "audit", 200,
    audit_config={"d": 32, "rounds": 10, "max_epochs": 3, "patience": 1,
                  "hidden_dim": 4, "head_dim": 2},
)
# Only the kNN model, which beats human:OF by the 5 points of criterion 8
# already at this size (seed 3), so an untampered run passes every check.
TINY_KNN_AUDIT = Workload(
    "tiny-knn-audit", "audit", 200,
    audit_config={"d": 64, "sources": ["human:SL", "human:AR", "human:OF", "model:knn"]},
)
TINY_CLI = Workload(
    "tiny-cli", "cli", 120, d=8,
    train_flags={"stumps": ["--rounds", "2"],
                 "birnn": ["--epochs", "2", "--patience", "1", "--hidden-dim", "4",
                           "--head-dim", "2"]},
)
TOLERANCE = json.loads((HERE / "reference.json").read_text())["tolerance"]


def _contract(group: str) -> set[str]:
    return {m["name"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())[group]}


@pytest.mark.parametrize("spec", [TINY_AUDIT, TINY_CLI], ids=lambda s: s.name)
@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_every_named_metric_is_emitted(spec, trace):
    result = run.measure(spec, 1, 0.0, trace, HERE.parent)
    assert set(result["values"]) == _contract("per_layer" if trace else "end_to_end")
    assert all(math.isfinite(v) for v in result["values"].values())
    assert result["attempted"] >= 1
    if trace:
        assert result["details"]["spans"]


def _run_ops(spec, tmp_path, reference, seed=3):
    data = tmp_path / "data"
    workloads.make_inputs(spec, seed, data)
    return worker.run(spec, seed, 0.0, False, data, tmp_path / "work", reference)["ops"]


def test_tampered_report_cell_is_a_failed_operation(tmp_path, monkeypatch):
    clean = _run_ops(TINY_KNN_AUDIT, tmp_path, {})
    assert clean[0]["failures"] == []
    cells = clean[0]["cells"]
    reference = {"tolerance": TOLERANCE, "cells": {TINY_KNN_AUDIT.name: {"3": cells}}}
    assert _run_ops(TINY_KNN_AUDIT, tmp_path, reference)[0]["failures"] == []

    import fairaudit

    original = fairaudit.run_audit

    def tampered(corpus, config, out_dir):
        report = original(corpus, config, out_dir=out_dir)
        path = Path(out_dir) / "report.json"
        obj = json.loads(path.read_text())
        obj["rows"][3]["f1"] -= 0.2  # model:knn, still inside [0, 1]
        path.write_text(json.dumps(obj))
        return report

    monkeypatch.setattr(fairaudit, "run_audit", tampered)
    [op] = _run_ops(TINY_KNN_AUDIT, tmp_path, reference)
    assert op["failed"] == op["attempted"] == 1
    assert any("model:knn.f1" in f for f in op["failures"])


def test_nonzero_cli_exit_is_a_failed_operation(tmp_path):
    data = tmp_path / "data"
    workloads.make_inputs(TINY_CLI, 1, data)
    (data / "vectors.faem").unlink()
    result = worker.run(TINY_CLI, 1, 0.0, False, data, tmp_path / "work", {})
    [op] = result["ops"]
    assert op["failed"] == op["attempted"] == 8
    assert op["failures"][0].startswith("embed exited 2")


def test_clean_cli_chain_passes_and_repeats_exactly(tmp_path):
    data = tmp_path / "data"
    workloads.make_inputs(TINY_CLI, 1, data)
    ops = worker.run(TINY_CLI, 1, 0.5, False, data, tmp_path / "work", {})["ops"]
    assert len(ops) >= 2
    assert all(op["failures"] == [] for op in ops)
    assert len({op["fingerprint"] for op in ops}) == 1


def test_no_sources_means_no_result(tmp_path):
    with pytest.raises(run.BenchError):
        run.measure(TINY_AUDIT, 1, 0.0, False, tmp_path)
