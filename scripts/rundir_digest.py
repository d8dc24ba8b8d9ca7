#!/usr/bin/env python3
"""Digest of a run directory, equal for two reruns of the same audit.

Hashes every file under the run directory with SHA-256, with two
exceptions, the parts that differ between reruns with the same seeds:

- ``report.json`` is hashed as ``json.dumps(report, sort_keys=True)``
  without ``metadata.timestamp`` (the fingerprint the benchmark reports);
- ``corpus.sha256`` is hashed by the corpus digest it records, without the
  corpus path.

Prints the sorted ``{relative path: sha256}`` map as JSON and, on the last
line, the SHA-256 of that map. Given two run directories, prints instead each
relative path whose digest differs or that exists on one side only, and exits
1 if there is any (0 if none).

    python scripts/rundir_digest.py RUN_DIR
    python scripts/rundir_digest.py RUN_A RUN_B
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path


def file_digests(run_dir: Path) -> dict[str, str]:
    """SHA-256 of every file under ``run_dir``, by its relative POSIX path. Files
    other than ``report.json`` and ``corpus.sha256`` are read 1 MiB at a time, so
    digesting a large run directory does not raise this process's peak, which a
    child process it starts afterwards inherits as its own ``ru_maxrss``."""
    digests = {}
    for path in sorted(p for p in run_dir.rglob("*") if p.is_file()):
        name = path.relative_to(run_dir).as_posix()
        digest = hashlib.sha256()
        if name == "report.json":
            report = json.loads(path.read_bytes())
            report["metadata"].pop("timestamp", None)
            digest.update(json.dumps(report, sort_keys=True).encode())
        elif name == "corpus.sha256":
            digest.update(path.read_bytes().split()[0])
        else:
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(chunk)
        digests[name] = digest.hexdigest()
    return digests


def map_digest(digests: dict[str, str]) -> str:
    return hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) not in (1, 2) or not all(Path(arg).is_dir() for arg in args):
        print("usage: rundir_digest.py RUN_DIR [OTHER_RUN_DIR]", file=sys.stderr)
        return 2
    if len(args) == 2:
        a, b = (file_digests(Path(arg)) for arg in args)
        differ = sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))
        print("".join(f"{name}\n" for name in differ), end="")
        return 1 if differ else 0
    digests = file_digests(Path(args[0]))
    print(json.dumps(digests, indent=1, sort_keys=True))
    print(map_digest(digests))
    return 0


if __name__ == "__main__":
    sys.exit(main())
