"""scripts/dimension_table.py and scripts/seminormal_demo.py run at
their defaults, exit 0 and print the rank-4 dimension and the leaf
census of the (3,2) square; given an argument they cannot use, they
exit 2 with a usage error and print nothing."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run(name, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
    )


def run_script(name):
    """stdout of scripts/<name> run with no arguments; exit code 0."""
    done = run(name)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


@pytest.mark.parametrize(
    "name, arg, why",
    [
        ("seminormal_demo.py", "abc", "bad partition 'abc'"),
        ("seminormal_demo.py", "", "need rank >= 2"),
        ("seminormal_demo.py", "3,2,1", "two-row shapes required"),
        ("seminormal_demo.py", "1", "need rank >= 2"),
        ("dimension_table.py", "1", "needs max_r >= 2"),
        ("dimension_table.py", "-3", "needs max_r >= 2"),
    ],
)
def test_a_bad_argument_is_a_usage_error(name, arg, why):
    done = run(name, arg)
    assert (done.returncode, done.stdout) == (2, "")
    assert f"{name}: error: " in done.stderr and why in done.stderr
    assert "Traceback" not in done.stderr


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
