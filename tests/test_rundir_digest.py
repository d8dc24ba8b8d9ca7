"""scripts/rundir_digest.py: two runs of one audit with the same seed share a digest,
and the two-directory form lists the files where two runs differ."""

import shutil
import subprocess
import sys
from pathlib import Path

from fairaudit.audit import AuditConfig, run_audit
from fairaudit.dataset import (
    RaterConfig,
    attach_stage_labels,
    generate_synthetic_corpus,
    save_corpus,
    simulate_raters,
)

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "rundir_digest.py"


def audit(corpus, out_dir, seed=7):
    config = AuditConfig(d=16, k=5, seed=seed, max_epochs=3, patience=3, rounds=20,
                         hidden_dim=8, head_dim=8)
    run_audit(corpus, config, out_dir=out_dir)


def digest(run_dir):
    done = subprocess.run([sys.executable, str(SCRIPT), str(run_dir)],
                          capture_output=True, text=True, check=True)
    return done.stdout.splitlines()[-1]


def test_same_seed_same_digest(tmp_path):
    profiles, latents = generate_synthetic_corpus(120, 100, seed=4)
    decisions = simulate_raters(profiles, latents, RaterConfig(noise_sigma=0.25, seed=5))
    corpus = tmp_path / "corpus.jsonl"
    save_corpus(attach_stage_labels(profiles, decisions), corpus)
    moved = tmp_path / "elsewhere" / "corpus.jsonl"
    moved.parent.mkdir()
    shutil.copy(corpus, moved)
    # the reports' timestamps and the recorded corpus paths differ
    audit(corpus, tmp_path / "a")
    audit(moved, tmp_path / "b")
    audit(corpus, tmp_path / "c", seed=8)
    assert (tmp_path / "a" / "corpus.sha256").read_bytes() != (
        tmp_path / "b" / "corpus.sha256").read_bytes()
    first = digest(tmp_path / "a")
    assert len(first) == 64
    assert digest(tmp_path / "b") == first
    assert digest(tmp_path / "c") != first


def test_two_runs_list_the_files_that_differ(tmp_path):
    profiles, latents = generate_synthetic_corpus(120, 100, seed=4)
    decisions = simulate_raters(profiles, latents, RaterConfig(noise_sigma=0.25, seed=5))
    corpus = tmp_path / "corpus.jsonl"
    save_corpus(attach_stage_labels(profiles, decisions), corpus)
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        audit(corpus, tmp_path / name, seed=seed)
    (tmp_path / "c" / "extra.txt").write_text("only here")

    def compare(x, y):
        return subprocess.run([sys.executable, str(SCRIPT), str(tmp_path / x), str(tmp_path / y)],
                              capture_output=True, text=True)

    same = compare("a", "b")
    assert (same.returncode, same.stdout, same.stderr) == (0, "", "")
    other = compare("a", "c")
    assert other.returncode == 1
    listed = other.stdout.splitlines()
    assert listed == sorted(listed)
    assert {"config.json", "splits.json", "report.json", "extra.txt"} <= set(listed)
    assert "corpus.sha256" not in listed  # the same corpus


def test_not_a_directory_exits_2(tmp_path):
    done = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path / "missing")],
                          capture_output=True, text=True)
    assert done.returncode == 2


def test_more_than_two_arguments_exit_2(tmp_path):
    done = subprocess.run([sys.executable, str(SCRIPT), *[str(tmp_path)] * 3],
                          capture_output=True, text=True)
    assert done.returncode == 2
