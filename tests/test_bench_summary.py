import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location(
    "bench_summary", ROOT / "scripts" / "bench_summary.py"
)
bench_summary = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_summary)


def write_run(d, k, workload, commit, wall, trace=0):
    metrics = {
        "wall_s": {"value": wall, "unit": "s"},
        "setup_s": {"value": 0.1, "unit": "s"},
        "peak_rss_mb": {"value": 30.0, "unit": "MB"},
    }
    record = {
        "args": {"workload": workload, "seed": k, "seconds": 15.0, "trace": trace},
        "environment": {"python": "3.11.7", "nproc": 2, "git_commit": commit},
        "result": {"correct": True, "attempted": 4, "failed": 0, "metrics": metrics},
    }
    (d / f"{workload}-{k}-{trace}.json").write_text(json.dumps(record))


def test_folds_runs_per_workload_and_commit(tmp_path):
    for k, wall in enumerate([3.0, 1.0, 2.0, 4.0, 5.0]):
        write_run(tmp_path, k, "transition-r6", "aaaa1111", wall)
    write_run(tmp_path, 9, "transition-r6", "aaaa1111", 99.0, trace=1)
    for k in range(2):
        write_run(tmp_path, 10 + k, "verify-r4", "aaaa1111", 1.0)
    out = tmp_path / "BENCH.json"
    assert bench_summary.main([str(tmp_path), "--out", str(out), "--label", "aaaa=parent"]) == 0
    workloads = json.loads(out.read_text())["workloads"]
    # the traced record is ignored, and two runs are too few to fold
    assert list(workloads) == ["transition-r6"]
    entry = workloads["transition-r6"]["aaaa1111"]
    assert entry["label"] == "parent"
    assert (entry["runs"], entry["repetitions"], entry["failed"]) == (5, 20, 0)
    assert entry["wall_s"] == {"median": 3.0, "q1": 2.0, "q3": 4.0, "unit": "s"}
    assert (entry["python"], entry["nproc"]) == (["3.11.7"], [2])


def test_labels_select_commits(tmp_path):
    for k in range(3):
        write_run(tmp_path, k, "kl-upper-r5", "bbbb2222", 0.2)
    out = tmp_path / "BENCH.json"
    assert bench_summary.main([str(tmp_path), "--out", str(out), "--label", "aaaa=parent"]) == 2
    assert not out.exists()
