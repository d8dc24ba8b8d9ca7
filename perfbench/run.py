"""fairaudit benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload audit-paper --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``. Inputs are built from the seed three times, each in a fresh
process (``setup_s`` is their median, and the three must be byte-identical;
a traced run builds them once).
Then one fresh process runs operations one at a time for ``--seconds``
(at least one), with the library's defaults: ``FAIRAUDIT_THREADS`` unset and
OpenBLAS at its default of one thread per CPU. Every output is checked.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it holds the details: medians, quartiles and sample counts,
every failure, and the environment. Both are also kept under
``.perfbench/results/``. Workloads, metrics and the layer map are described
in ``perfbench/layers.json``; reference report values in
``perfbench/reference.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
TIME_LIMIT_S = 170  # a run must end within 180 s
# Variables that would override the library's and OpenBLAS's defaults.
DEFAULT_ENV_OVERRIDES = ("FAIRAUDIT_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count of one timing."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "p25": q1, "p75": q3, "n": len(values)}


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _child(args: list[str], env: dict, deadline: float) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args[0]} did not finish within {TIME_LIMIT_S} s") from exc
    if done.returncode != 0:
        raise BenchError(f"{args[0]} exited {done.returncode}: {done.stderr[-2000:]}")
    return done


def measure(spec, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """Set up, run the closed loop in a fresh process, and collect the result."""
    if not (root / "src" / "fairaudit" / "__init__.py").is_file():
        raise BenchError(f"no fairaudit sources under {root / 'src'}")
    deadline = time.monotonic() + TIME_LIMIT_S
    env = {k: v for k, v in os.environ.items() if k not in DEFAULT_ENV_OVERRIDES}
    work = root / ".perfbench" / f"{spec.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    data = work / "data"
    spec_json = json.dumps(asdict(spec))
    try:
        setup_s, digests = [], []
        for _ in range(1 if trace else SETUP_REPEATS):
            shutil.rmtree(data, ignore_errors=True)
            start = time.perf_counter()
            done = _child(["setup", "--spec", spec_json, "--seed", str(seed),
                           "--dir", str(data)], env, deadline)
            setup_s.append(time.perf_counter() - start)
            digests.append(json.loads(done.stdout.strip().splitlines()[-1]))
        result_file = work / "result.json"
        _child(["op", "--spec", spec_json, "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(int(trace)), "--dir", str(data), "--work", str(work),
                "--results", str(result_file)], env, deadline)
        worker = json.loads(result_file.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ops = worker["ops"]
    failures = [f for op in ops for f in op["failures"]]
    if any(d != digests[0] for d in digests):
        failures.append("inputs differ between set-ups with the same seed")
    attempted = sum(op["attempted"] for op in ops)
    failed = sum(op["failed"] for op in ops)
    walls = [op["wall_s"] for op in ops]
    f1 = [op["model_f1"] for op in ops if op["model_f1"] is not None]
    details = {
        "workload": spec.name,
        "seed": seed,
        "trace": int(trace),
        "env": {**worker["env"], "git_commit": git_commit(root), "seed": seed},
        "timings": {"setup_s": summary(setup_s), "wall_s": summary(walls)},
        "operations": len(ops),
        "failures": failures,
        "fingerprints": sorted({op["fingerprint"] for op in ops if op["fingerprint"]}),
        "cells": ops[0]["cells"],
        "input_sha256": digests[0],
    }
    if trace:
        values = {name: statistics.median(row[name] for row in worker["layer_rows"])
                  for name in worker["layer_rows"][0]}
        details["spans"] = worker["spans"]
    else:
        wall = statistics.median(walls)
        values = {
            "setup_s": statistics.median(setup_s),
            "wall_s": wall,
            "profiles_per_s": spec.n / wall,
            "peak_rss_mb": worker["peak_rss_mb"],
            "success_rate": 1.0 - failed / attempted,
            "model_f1": statistics.median(f1) if f1 else 0.0,
        }
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "values": values,
        "details": details,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in contract[group]}
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), ROOT)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    missing = sorted(set(units) - set(result["values"]))
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 2
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["values"][name], "unit": unit}
                    for name, unit in units.items()},
    }
    details = result["details"]
    out = ROOT / ".perfbench" / "results"
    out.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps({"result": line, "details": details}, indent=1))
    details.pop("spans", None)
    print(json.dumps(details))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
