"""Store reference report values from earlier benchmark runs.

    python3 perfbench/record_reference.py

Reads every correct result under ``.perfbench/results/`` and adds its report
cells (audit workloads) or CLI ``metrics`` outputs (cli-ingest) to
``perfbench/reference.json`` under its workload and seed. Seeds already
recorded keep their values; later runs on those seeds are checked against
them within the tolerances stored in the same file. Rerun after a change
that is meant to move the numbers, and say what moved.
"""

from __future__ import annotations

import json
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    path = HERE / "reference.json"
    reference = json.loads(path.read_text())
    cells = reference.setdefault("cells", {})
    added = 0
    for result_file in sorted((HERE.parent / ".perfbench" / "results").glob("*.json")):
        run = json.loads(result_file.read_text())
        if not run["result"]["correct"]:
            continue
        details = run["details"]
        seeds = cells.setdefault(details["workload"], {})
        if str(details["seed"]) not in seeds:
            seeds[str(details["seed"])] = details["cells"]
            added += 1
    for workload in cells:
        cells[workload] = dict(sorted(cells[workload].items(), key=lambda kv: int(kv[0])))
    path.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"added {added} reference entries to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
