"""Fold benchmark records into one summary file.

    python3 scripts/bench_summary.py --out BENCH_<n>.json \
        [--label COMMIT=NAME ...] [RESULTS_DIR ...]

Reads the untraced records (`perfbench/run.py --trace 0`) in each
RESULTS_DIR (default: .perfbench_results) and writes, per workload and
git commit, the median and quartiles over runs of every end-to-end
metric, with the number of runs, repetitions and failed repetitions and
the Python versions and core counts the runs saw. A run's own value is
already a median over its repetitions (wall_s, peak_rss_mb) or its
set-up probes (setup_s). Groups of fewer than 3 runs are left out and
named on stderr. With --label only the labelled commits are folded, and
each gets its name; a commit is matched by any prefix of its hash.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

METRICS = ("wall_s", "setup_s", "peak_rss_mb")
MIN_RUNS = 3


def load(dirs: list) -> list:
    records = []
    for d in dirs:
        for path in sorted(Path(d).glob("*.json")):
            record = json.loads(path.read_text())
            if record.get("args", {}).get("trace") == 0:
                records.append(record)
    return records


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def label_of(commit: str, labels: dict):
    return next((n for c, n in labels.items() if commit.startswith(c)), None)


def fold(records: list, labels: dict) -> tuple:
    groups: dict = {}
    for record in records:
        commit = record["environment"].get("git_commit") or "unknown"
        if labels and label_of(commit, labels) is None:
            continue
        workload = record["args"]["workload"]
        groups.setdefault((workload, commit), []).append(record)
    out, skipped = {}, []
    for (workload, commit), runs in sorted(groups.items()):
        if len(runs) < MIN_RUNS:
            skipped.append(f"{workload} at {commit}: {len(runs)} runs")
            continue
        env = [r["environment"] for r in runs]
        entry = {
            "runs": len(runs),
            "repetitions": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "all_correct": all(r["result"]["correct"] for r in runs),
            "seconds": sorted({r["args"]["seconds"] for r in runs}),
            "python": sorted({e["python"] for e in env}),
            "nproc": sorted({e["nproc"] for e in env}),
        }
        if labels:
            entry["label"] = label_of(commit, labels)
        for m in METRICS:
            values = [r["result"]["metrics"][m]["value"] for r in runs]
            entry[m] = {**summarize(values), "unit": runs[0]["result"]["metrics"][m]["unit"]}
        out.setdefault(workload, {})[commit] = entry
    return out, skipped


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("dirs", nargs="*", default=[".perfbench_results"])
    parser.add_argument("--out", required=True)
    parser.add_argument("--label", action="append", default=[], metavar="COMMIT=NAME")
    args = parser.parse_args(argv)
    labels = {}
    for item in args.label:
        commit, sep, name = item.partition("=")
        if not (sep and commit and name):
            parser.error(f"--label wants COMMIT=NAME, not {item!r}")
        labels[commit] = name
    workloads, skipped = fold(load(args.dirs), labels)
    for line in skipped:
        print(f"left out, fewer than {MIN_RUNS} runs: {line}", file=sys.stderr)
    if not workloads:
        print("no workload has enough runs", file=sys.stderr)
        return 2
    summary = {
        "source": "perfbench/run.py --trace 0, one record per run",
        "statistic": "median and quartiles over runs of each run's value",
        "workloads": workloads,
    }
    Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
