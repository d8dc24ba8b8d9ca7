"""scripts/compare_runs.py: a tree compared with itself writes the same bytes, and
each run's peak resident set is printed."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "compare_runs.py"


def compare_runs(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True, text=True)


def test_a_tree_against_itself_writes_the_same_bytes():
    src = str(ROOT / "src")
    done = compare_runs(src, src, "--workloads", "audit-paper", "--seeds", "1")
    assert done.returncode == 0, done.stderr
    same = re.fullmatch(r"audit-paper seed 1: 0 of (\d+) files differ; "
                        r"peak (\d+\.\d) MB old, (\d+\.\d) MB new\n", done.stdout)
    assert same and int(same[1]) > 10, done.stdout
    assert all(10 < float(peak) < 1000 for peak in same.groups()[1:]), done.stdout


def test_an_unknown_workload_is_a_usage_error():
    src = str(ROOT / "src")
    done = compare_runs(src, src, "--workloads", "audit-huge")
    assert done.returncode == 2
    assert "unknown workloads ['audit-huge']" in done.stderr
