#!/usr/bin/env python3
"""Check that two source trees write the same bytes on the benchmark workloads.

For each workload and seed, the inputs are built once under OLD_SRC with
``perfbench.workloads.make_inputs``. Then, under each tree in a fresh process,
an audit workload runs ``run_audit`` and cli-ingest runs the ``cli_steps``
chain. Besides the benchmark's workloads, two variants of audit-paper run the
searches it does not: ``audit-paper-norerank`` (``rerank=False``: one
whole-row field, which the cosine screen copies) and ``audit-paper-euclidean``
(``metric="euclidean"``). Each process runs the operation twice, into two
directories. The output directories are compared with ``rundir_digest``: every
file that differs between the trees' first runs, or exists on one side only, is
printed, and so is every file of a tree's second run that differs from its
first ("old rerun: PATH"). Each summary line also gives the peak resident set
of each tree's process (``ru_maxrss``, in MB of 2^20 bytes) after its first and
after its second run: the first is one operation's peak in a fresh process,
and the rise to the second is what a process that runs operations back to back
(as the benchmark's client does) keeps from the first.

    python scripts/compare_runs.py OLD_SRC NEW_SRC [--workloads W,...] [--seeds 1,2,3]

OLD_SRC and NEW_SRC are the ``src`` directories of the two trees (each holding
the ``fairaudit`` package). Exits 0 if every file is equal, 1 if any differs,
and 2 if an input build or a run fails. Nothing under ``perfbench/`` is written.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import asdict, replace
from pathlib import Path

from rundir_digest import file_digests

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import workloads  # noqa: E402

_PAPER = workloads.WORKLOADS["audit-paper"]
SPECS = {**workloads.WORKLOADS, **{
    name: replace(_PAPER, name=name, audit_config={**_PAPER.audit_config, **change})
    for name, change in (("audit-paper-norerank", {"rerank": False}),
                         ("audit-paper-euclidean", {"metric": "euclidean"}))}}
WORKLOADS = tuple(SPECS)

# One step in a fresh process: build a workload's inputs, or run its operation twice,
# into OUT and OUT-again, printing the process's peak resident set in MB after each.
_CHILD = """
import contextlib, resource, sys
from pathlib import Path
import workloads
action, spec, seed, data, out = sys.argv[1:]
spec, seed, data = workloads.Workload.from_json(spec), int(seed), Path(data)
if action == "inputs":
    workloads.make_inputs(spec, seed, data)
    sys.exit()
run = workloads.run_audit_op if spec.kind == "audit" else workloads.run_cli_op
for out in (Path(out), Path(out + "-again")):
    result = run(spec, seed, data, out, lambda *_: contextlib.nullcontext())
    if result.failures:
        sys.exit("; ".join(result.failures))
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


class StepFailed(Exception):
    pass


def _step(src: Path, action: str, name: str, seed: int, data: Path, out: Path) -> str:
    """Run one step under the tree ``src``: its standard output, or StepFailed with its
    stderr if it fails."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(PERFBENCH)]),
               PYTHONDONTWRITEBYTECODE="1")
    spec = json.dumps(asdict(SPECS[name]))
    done = subprocess.run([sys.executable, "-c", _CHILD, action, spec, str(seed), str(data),
                           str(out)], env=env, cwd=data.parent, capture_output=True, text=True)
    if done.returncode:
        raise StepFailed(f"{action} under {src} failed:\n{done.stderr.strip()}")
    return done.stdout


def _differ(a: dict, b: dict) -> list[str]:
    return sorted(path for path in a.keys() | b.keys() if a.get(path) != b.get(path))


def compare(old_src: Path, new_src: Path, name: str, seed: int, work: Path):
    """The number of files the two trees wrote for one workload and seed, the files
    that differ (a tree's second run against its first, "SIDE rerun: PATH"), and
    each tree's peaks in MB after its first and its second run."""
    data = work / "data"
    data.mkdir(parents=True)
    _step(old_src, "inputs", name, seed, data, data)
    digests, differ, peaks = [], [], []
    for side, src in (("old", old_src), ("new", new_src)):
        peaks.append([float(mb) for mb in _step(src, "run", name, seed, data, work / side).split()])
        first, again = file_digests(work / side), file_digests(work / f"{side}-again")
        differ += [f"{side} rerun: {path}" for path in _differ(first, again)]
        digests.append(first)
    old, new = digests
    return len(old.keys() | new.keys()), _differ(old, new) + differ, peaks


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1,2,3")
    args = parser.parse_args(argv)
    names = args.workloads.split(",")
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workloads {unknown}; expected some of {list(WORKLOADS)}")
    seeds = [int(seed) for seed in args.seeds.split(",")]
    srcs = [src.resolve() for src in (args.old_src, args.new_src)]
    if not all((src / "fairaudit").is_dir() for src in srcs):
        parser.error("OLD_SRC and NEW_SRC must each hold the fairaudit package")
    differ_any = False
    with tempfile.TemporaryDirectory(prefix="compare_runs_") as tmp:
        for name in names:
            for seed in seeds:
                work = Path(tmp) / f"{name}-{seed}"
                try:
                    files, differ, ((old_mb, old_again), (new_mb, new_again)) = compare(
                        *srcs, name, seed, work)
                except StepFailed as exc:
                    print(f"{name} seed {seed}: {exc}", file=sys.stderr)
                    return 2
                print(f"{name} seed {seed}: {len(differ)} of {files} files differ; "
                      f"peak {old_mb:.1f} then {old_again:.1f} MB old, "
                      f"{new_mb:.1f} then {new_again:.1f} MB new")
                print("".join(f"  {path}\n" for path in differ), end="")
                differ_any |= bool(differ)
                shutil.rmtree(work)  # a cli-ingest seed leaves about 500 MB
    return 1 if differ_any else 0


if __name__ == "__main__":
    sys.exit(main())
