#!/usr/bin/env python3
"""Check that two source trees write the same bytes on the benchmark workloads.

For each workload and seed, the inputs are built once under OLD_SRC with
``perfbench.workloads.make_inputs``. Then, under each tree in a fresh process,
an audit workload runs ``run_audit`` and cli-ingest runs the ``cli_steps``
chain. The two output directories are compared with ``rundir_digest``:
every file that differs, or exists on one side only, is printed. Each summary
line also gives both runs' peak resident set (``ru_maxrss`` of the run's own
process, in MB of 2^20 bytes), so one operation's peak is read in a fresh
process.

    python scripts/compare_runs.py OLD_SRC NEW_SRC [--workloads W,...] [--seeds 1,2,3]

OLD_SRC and NEW_SRC are the ``src`` directories of the two trees (each holding
the ``fairaudit`` package). Exits 0 if every file is equal, 1 if any differs,
and 2 if an input build or a run fails. Nothing under ``perfbench/`` is written.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from rundir_digest import file_digests

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = ("audit-paper", "audit-scale", "cli-ingest")

# One step in a fresh process: build a workload's inputs, or run its operation and
# print the process's peak resident set in MB.
_CHILD = """
import contextlib, resource, sys
from pathlib import Path
import workloads
action, name, seed, data, out = sys.argv[1:]
spec, seed, data = workloads.WORKLOADS[name], int(seed), Path(data)
if action == "inputs":
    workloads.make_inputs(spec, seed, data)
    sys.exit()
run = workloads.run_audit_op if spec.kind == "audit" else workloads.run_cli_op
result = run(spec, seed, data, Path(out), lambda *_: contextlib.nullcontext())
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
sys.exit("; ".join(result.failures) or None)
"""


class StepFailed(Exception):
    pass


def _step(src: Path, action: str, name: str, seed: int, data: Path, out: Path) -> str:
    """Run one step under the tree ``src``: its standard output, or StepFailed with its
    stderr if it fails."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(PERFBENCH)]),
               PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", _CHILD, action, name, str(seed), str(data),
                           str(out)], env=env, cwd=data.parent, capture_output=True, text=True)
    if done.returncode:
        raise StepFailed(f"{action} under {src} failed:\n{done.stderr.strip()}")
    return done.stdout


def compare(old_src: Path, new_src: Path, name: str, seed: int, work: Path):
    """The number of files the two trees wrote for one workload and seed, the files
    that differ, and each run's peak resident set in MB."""
    data = work / "data"
    data.mkdir(parents=True)
    _step(old_src, "inputs", name, seed, data, data)
    digests, peaks = [], []
    for side, src in (("old", old_src), ("new", new_src)):
        peaks.append(float(_step(src, "run", name, seed, data, work / side).split()[-1]))
        digests.append(file_digests(work / side))
    old, new = digests
    differ = sorted(path for path in old.keys() | new.keys() if old.get(path) != new.get(path))
    return len(old.keys() | new.keys()), differ, peaks


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
                    files, differ, (old_mb, new_mb) = compare(*srcs, name, seed, work)
                except StepFailed as exc:
                    print(f"{name} seed {seed}: {exc}", file=sys.stderr)
                    return 2
                print(f"{name} seed {seed}: {len(differ)} of {files} files differ; "
                      f"peak {old_mb:.1f} MB old, {new_mb:.1f} MB new")
                print("".join(f"  {path}\n" for path in differ), end="")
                differ_any |= bool(differ)
                shutil.rmtree(work)  # a cli-ingest seed leaves about 300 MB
    return 1 if differ_any else 0


if __name__ == "__main__":
    sys.exit(main())
