"""Child process of the benchmark: builds inputs, or runs the timed operations.

    python3 perfbench/worker.py setup --spec JSON --seed N --dir DATA
    python3 perfbench/worker.py op --spec JSON --seed N --seconds S --trace 0|1
        --dir DATA --work WORK --results FILE

``setup`` writes the inputs and prints their SHA-256 as JSON. ``op`` is one
closed-loop client: it runs one operation at a time until ``--seconds`` have
passed (at least one), checks every output, and writes a JSON result to
``--results``. Its ``ru_maxrss`` is the peak RSS of the timed region. With
``--trace 1`` every operation is traced.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def environment() -> dict:
    """What a number depends on: machine, interpreter, numpy, BLAS, threads."""
    import numpy as np

    mem_kb = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "mem_total_kb": mem_kb,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "FAIRAUDIT_THREADS": os.environ.get("FAIRAUDIT_THREADS"),
    }


def _blas_threads() -> int | None:
    with contextlib.suppress(OSError):
        for line in Path("/proc/self/maps").read_text().splitlines():
            path = line.split()[-1]
            if "openblas" in path and path.endswith(".so"):
                lib = ctypes.CDLL(path)
                for symbol in ("scipy_openblas_get_num_threads64_",
                               "openblas_get_num_threads64_", "openblas_get_num_threads"):
                    if hasattr(lib, symbol):
                        return int(getattr(lib, symbol)())
    return None


def _no_span(name, layer):
    return contextlib.nullcontext()


def run(spec, seed: int, seconds: float, trace: bool, data_dir: Path, work_dir: Path,
        reference: dict) -> dict:
    """The closed loop; returns per-operation results and per-layer numbers."""
    expected = reference.get("cells", {}).get(spec.name, {}).get(str(seed))
    recorder = tracing.Recorder()
    span = recorder.span if trace else _no_span
    span_cost = tracing.span_cost_s() if trace else 0.0
    ops, layer_rows = [], []
    start = time.perf_counter()
    i = 0
    while True:
        out_dir = work_dir / f"op{i}"
        recorder.run_id = i
        patched = tracing.install(recorder) if trace else []
        try:
            if spec.kind == "audit":
                op = workloads.run_audit_op(spec, seed, data_dir, out_dir, span)
            else:
                op = workloads.run_cli_op(spec, seed, data_dir, out_dir, span,
                                          with_c_gap=trace)
        finally:
            tracing.uninstall(patched)
        if op.fingerprint is not None:
            op.failures += workloads.check_reference(op.cells, expected,
                                                     reference.get("tolerance", {}))
            first = next((o["fingerprint"] for o in ops if o["fingerprint"]), None)
            if first is not None and op.fingerprint != first:
                op.failures.append("output differs from the first operation of this run")
        if trace:
            spans = [s for s in recorder.spans if s["run"] == i]
            row = tracing.layer_metrics(spans)
            row["audit.run_dir_bytes"] = op.run_dir_bytes
            row["quality.c_gap_pts"] = op.c_gap_pts if op.c_gap_pts is not None else 0.0
            added = span_cost * len(spans)
            row["trace.overhead_pct"] = 100.0 * added / (op.wall_s - added)
            layer_rows.append(row)
        ops.append({"wall_s": op.wall_s, "attempted": op.attempted,
                    "failed": op.failed, "failures": op.failures,
                    "fingerprint": op.fingerprint, "cells": op.cells,
                    "model_f1": op.model_f1})
        shutil.rmtree(out_dir, ignore_errors=True)
        i += 1
        if time.perf_counter() - start >= seconds:
            break
    return {
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layer_rows": layer_rows,
        "spans": recorder.spans,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench-worker")
    parser.add_argument("mode", choices=("setup", "op"))
    parser.add_argument("--spec", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path)
    parser.add_argument("--results", type=Path)
    args = parser.parse_args(argv)
    spec = workloads.Workload.from_json(args.spec)
    if args.mode == "setup":
        print(json.dumps(workloads.make_inputs(spec, args.seed, args.dir)))
        return 0
    reference = json.loads((HERE / "reference.json").read_text())
    result = run(spec, args.seed, args.seconds, bool(args.trace), args.dir, args.work,
                 reference)
    result["env"] = environment()
    args.results.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
