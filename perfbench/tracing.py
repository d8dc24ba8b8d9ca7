"""Span recorder for the traced benchmark run.

Spans are recorded from outside the library: ``install`` replaces the public
layer functions that ``fairaudit.audit``, ``fairaudit.cli`` and
``fairaudit.classifiers.knn`` imported into their own namespaces with timing
wrappers, and wraps ``BoostedStumps.predict`` and ``BiRnnClassifier.predict``
on their classes. Nothing under ``src/`` changes. Spans stay in memory until
the run ends.

A span's self time is its duration minus the durations of its direct
children (calls are sequential, so children never overlap). A span's owner
is its outermost ancestor reached through parents of the same layer, so work
nested inside one layer call (a BiRNN ``predict`` inside ``birnn_train``) is
charged to that call, while calls into another layer are charged to that
layer.
"""

from __future__ import annotations

import functools
import inspect
import os
import resource
import statistics
import time
from contextlib import contextmanager

CALLER_MODULES = ("fairaudit.audit", "fairaudit.cli", "fairaudit.classifiers.knn")
LAYER_MODULES = {
    "fairaudit.dataset": "dataset",
    "fairaudit.embed": "embed",
    "fairaudit.simindex": "simindex",
    "fairaudit.fairness": "fairness",
}
PREDICT_CLASSES = ("BoostedStumps", "BiRnnClassifier")

# Counts taken at the span boundary from the call's arguments and result.
_COUNTS = {
    "classifiers.train_stumps": lambda args, result: {"rounds": result.rounds},
    "classifiers.birnn_train": lambda args, result: {"epochs": result[1].epochs_run},
    "embed.save_embeddings": lambda args, result: {"bytes": os.path.getsize(args[1])},
    "classifiers.save_model": lambda args, result: {"bytes": os.path.getsize(args[1])},
}


def _layer_of(module: str) -> str | None:
    if module.startswith("fairaudit.classifiers"):
        return "classifiers"
    return LAYER_MODULES.get(module)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Recorder:
    """Collects spans (name, start, end, parent, run id, CPU, peak RSS)."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.run_id: int | None = None

    @contextmanager
    def span(self, name: str, layer: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "layer": layer,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "maxrss_start_mb": _maxrss_mb(),
            "cpu_start": time.process_time(),
            "start": time.perf_counter(),
            "counts": {},
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            record["cpu_end"] = time.process_time()
            record["maxrss_end_mb"] = _maxrss_mb()
            self._stack.pop()

    def wrap(self, fn, name: str, layer: str):
        count = _COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, layer) as record:
                result = fn(*args, **kwargs)
                if count is not None:
                    record["counts"] = count(args, result)
                return result

        return traced


def span_cost_s(calls: int = 2000, repeats: int = 5) -> float:
    """What one span adds to a call: a wrapped no-op minus a plain one.

    This is all the work tracing adds to an operation, so spans times this
    cost is the tracing overhead. Comparing a traced with an untraced
    operation instead would measure run-to-run noise, which on a shared
    machine is far larger than the spans' cost.
    """

    def noop():
        return None

    wrapped = Recorder().wrap(noop, "calibration", "calibration")
    costs = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        plain = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        costs.append((time.perf_counter() - start - plain) / calls)
    return statistics.median(costs)


def install(recorder: Recorder) -> list[tuple[object, str, object]]:
    """Wrap the layer calls; returns the (owner, attribute, original) list."""
    import importlib

    import fairaudit

    patched = []
    for module_name in CALLER_MODULES:
        module = importlib.import_module(module_name)
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            layer = _layer_of(obj.__module__)
            if layer is None:
                continue
            setattr(module, attr, recorder.wrap(obj, f"{layer}.{attr}", layer))
            patched.append((module, attr, obj))
    for cls_name in PREDICT_CLASSES:
        cls = getattr(fairaudit, cls_name)
        original = cls.predict
        cls.predict = recorder.wrap(original, f"classifiers.{cls_name}.predict", "classifiers")
        patched.append((cls, "predict", original))
    return patched


def uninstall(patched: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(patched):
        setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics


def _owner(span: dict, by_id: dict[int, dict]) -> dict:
    while span["parent"] is not None and by_id[span["parent"]]["layer"] == span["layer"]:
        span = by_id[span["parent"]]
    return span


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer numbers of one operation, from its spans."""
    by_id = {s["id"]: s for s in spans}
    wall = {s["id"]: s["end"] - s["start"] for s in spans}
    cpu = {s["id"]: s["cpu_end"] - s["cpu_start"] for s in spans}
    self_wall = dict(wall)
    self_cpu = dict(cpu)
    for s in spans:
        if s["parent"] is not None:
            self_wall[s["parent"]] -= wall[s["id"]]
            self_cpu[s["parent"]] -= cpu[s["id"]]
    owner = {s["id"]: _owner(s, by_id)["name"] for s in spans}
    tops = [s for s in spans if _owner(s, by_id) is s]

    def owned_s(*names: str) -> float:
        return sum(self_wall[i] for i, name in owner.items() if name in names)

    def layer_s(layer: str) -> float:
        return sum(self_wall[s["id"]] for s in spans if s["layer"] == layer)

    def rss_rise(layer: str, *names: str) -> float:
        return sum(
            s["maxrss_end_mb"] - s["maxrss_start_mb"]
            for s in tops
            if s["layer"] == layer and (not names or s["name"] in names)
        )

    def count(name: str, key: str) -> int:
        return sum(s["counts"].get(key, 0) for s in spans if s["name"] == name)

    def inclusive(name: str) -> float:
        return sum(wall[s["id"]] for s in spans if s["name"] == name)

    simindex_wall = layer_s("simindex")
    simindex_cpu = sum(self_cpu[s["id"]] for s in spans if s["layer"] == "simindex")
    return {
        "classifiers.stumps_train_s": owned_s("classifiers.train_stumps"),
        "classifiers.stumps_rounds": count("classifiers.train_stumps", "rounds"),
        "classifiers.stumps_rss_rise_mb": rss_rise("classifiers", "classifiers.train_stumps"),
        "simindex.rerank_s": owned_s("simindex.knn_feature_reranked"),
        "simindex.query_search_s": owned_s("simindex.search_queries"),
        "simindex.busy_s": simindex_wall,
        "simindex.cpu_ratio": simindex_cpu / simindex_wall if simindex_wall > 0 else 0.0,
        "simindex.rss_rise_mb": rss_rise("simindex"),
        "embed.ingest_s": owned_s("embed.ingest_embeddings"),
        "embed.io_s": owned_s("embed.save_embeddings", "embed.load_matrix_file"),
        "embed.bytes_written": count("embed.save_embeddings", "bytes"),
        "embed.hash_s": owned_s("embed.embed_corpus"),
        "classifiers.birnn_train_s": owned_s("classifiers.birnn_train"),
        "classifiers.birnn_epochs": count("classifiers.birnn_train", "epochs"),
        "classifiers.predict_s": owned_s(
            "classifiers.knn_predict",
            "classifiers.BoostedStumps.predict",
            "classifiers.BiRnnClassifier.predict",
        ),
        "classifiers.model_io_s": owned_s("classifiers.save_model", "classifiers.load_model"),
        "classifiers.model_bytes": count("classifiers.save_model", "bytes"),
        "dataset.busy_s": layer_s("dataset"),
        "fairness.busy_s": layer_s("fairness"),
        "fairness.calls": sum(1 for s in spans if s["layer"] == "fairness"),
        "audit.self_s": layer_s("audit"),
        "cli.embed_s": inclusive("cli.embed"),
        "cli.split_s": inclusive("cli.split"),
        "cli.train_s": inclusive("cli.train"),
        "cli.predict_s": inclusive("cli.predict"),
        "cli.metrics_s": inclusive("cli.metrics"),
    }
