"""scripts/dimension_table.py and scripts/seminormal_demo.py run at
their defaults, exit 0 and print the rank-4 dimension and the leaf
census of the (3,2) square."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_script(name):
    """stdout of scripts/<name> run with no arguments; exit code 0."""
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()


def test_dimension_table_agrees_through_rank_4():
    lines = run_script("dimension_table.py")
    rows = [line.split() for line in lines if line[:3].strip().isdigit()]
    assert [row[:3] for row in rows] == [
        ["2", "2", "2"],
        ["3", "10", "10"],
        ["4", "89", "89"],
    ]
    assert not any("DISAGREE" in line for line in lines)


def test_seminormal_demo_prints_the_leaf_census():
    lines = run_script("seminormal_demo.py")
    at = lines.index("25 leaves; top-level census:")
    assert lines[at + 1 :] == ["  +3,2: 14", "  -3,2: 10", "  eps+: 1"]
