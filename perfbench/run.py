"""nstl benchmark: wall time, set-up time and memory of cold CLI runs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every repetition is a fresh interpreter
(perfbench/child.py) with PYTHONPATH=src, a new empty NSTL_CACHE_DIR and
PYTHONHASHSEED set from the seed, because a command-line user pays for
every lru cache on every call. Its output is checked against
perfbench/golden.json and against numbers stated in the paper.

--trace 0 measures, with tracing off:
  wall_s       median time from spawn to exit of one repetition
  setup_s      median time from spawn until `import nstl.cli` returns,
               over several probes
  peak_rss_mb  median ru_maxrss of one repetition
Repetitions continue while another one is expected to fit in --seconds;
there is always at least one.

--trace 1 runs the workload once untraced and twice with every layer
wrapped by perfbench/tracer.py (side by side when it may use two CPUs),
reports the per-layer metrics, and counts the call counts that differ
between the two traced runs.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. The full record, with the run environment, goes to
.perfbench_results/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

from tracer import LAYERS
from workloads import WORKLOADS, fail_ratio, problems

HERE = Path(__file__).resolve().parent

SETUP_PROBES = 7
# children still running this long after the start are killed, so that a
# run always ends within three minutes
RUN_LIMIT_S = 170.0

END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")

PER_LAYER = tuple(
    [f"{layer}.{m}" for layer in LAYERS for m in ("self_s", "calls")]
    + [
        "exact_arith.rational_new",
        "exact_arith.rational_mul_calls",
        "exact_arith.laurent_mul_calls",
        "exact_arith.specialize_calls",
        "linalg.rref_calls",
        "linalg.rref_cells",
        "linalg.mat_mul_calls",
        "linalg.span_add_calls",
        "linalg.span_accept_ratio",
        "hecke_core.kl_table_misses",
        "hecke_core.kl_table_hits",
        "specht_modules.build_specht_misses",
        "seminormal.paths_misses",
        "specht_modules.transition_s",
        "nonstandard.oracle_s",
        "nonstandard.certify_s",
        "nonstandard.p_matrix_calls",
        "seminormal.basis_s",
        "trace.overhead_s",
        "trace.count_mismatches",
    ]
)


def unit_of(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class Bench:
    """One benchmark run in one checkout."""

    def __init__(self, root: Path, workload: str, seed: int, golden: dict):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.golden = golden
        self.work = root / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.reps = []

    # -- processes --------------------------------------------------------

    def env(self, cache_dir: Path) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env["NSTL_CACHE_DIR"] = str(cache_dir)
        env["PYTHONHASHSEED"] = str(self.seed % 2**32)
        return env

    def spawn(self, jobs):
        """Start every (argv, env, stdout path) job, wait for all of them.
        Returns (wall_s, exit code, rusage) per job; jobs still running
        at the run's deadline are killed."""
        procs = {}
        for k, (argv, env, out_path) in enumerate(jobs):
            with open(out_path, "wb") as out:
                t0 = time.monotonic()
                proc = subprocess.Popen(argv, stdout=out, env=env, cwd=self.root)
            procs[proc.pid] = (k, t0, proc)
        timer = threading.Timer(
            max(self.deadline - time.monotonic(), 0.0),
            lambda: [p.kill() for _, _, p in procs.values() if p.returncode is None],
        )
        timer.start()
        results = [None] * len(jobs)
        try:
            while any(r is None for r in results):
                pid, status, usage = os.wait4(-1, 0)
                if pid not in procs:
                    continue
                k, t0, proc = procs[pid]
                wall = time.monotonic() - t0
                proc.returncode = os.waitstatus_to_exitcode(status)
                results[k] = (wall, proc.returncode, usage)
        finally:
            timer.cancel()
        return results

    def setup_probe(self) -> float:
        env = self.env(self.work)
        t0 = time.monotonic()
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py")],
            env=env,
            cwd=self.root,
            capture_output=True,
            check=True,
            timeout=max(self.deadline - t0, 1.0),
        )
        return float(out.stdout.decode().strip()) - t0

    def repetitions(self, count: int, traced: bool):
        """Run `count` repetitions side by side; record and return them."""
        jobs, paths = [], []
        for _ in range(count):
            k = len(self.reps) + len(jobs)
            cache = self.work / f"cache-{k}"
            cache.mkdir()
            argv = [sys.executable, str(HERE / "child.py"), self.workload, str(self.seed)]
            trace_path = self.work / f"trace-{k}.json" if traced else None
            if traced:
                argv += ["--trace-out", str(trace_path)]
            out_path = self.work / f"stdout-{k}"
            jobs.append((argv, self.env(cache), out_path))
            paths.append((out_path, trace_path))
        new = []
        for (wall, code, usage), (out_path, trace_path) in zip(self.spawn(jobs), paths):
            stdout = out_path.read_bytes()
            rep = {
                "traced": traced,
                "wall_s": wall,
                "exit_code": code,
                "peak_rss_mb": usage.ru_maxrss / 1024,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "problems": problems(self.workload, stdout, code, self.golden),
            }
            if traced:
                if trace_path.exists():
                    rep["trace"] = json.loads(trace_path.read_text())
                else:
                    rep["problems"].append("no trace report written")
            new.append(rep)
        self.reps.extend(new)
        return new

    def cleanup(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass  # another run is using it, or it is already gone

    # -- the two kinds of run -------------------------------------------

    def timed_run(self, seconds: float) -> dict:
        self.setup_probe()  # warm-up: byte-compiles src/ on a fresh checkout
        setups = [self.setup_probe() for _ in range(SETUP_PROBES)]
        start = time.monotonic()
        walls = []
        while True:
            (rep,) = self.repetitions(1, traced=False)
            walls.append(rep["wall_s"])
            typical = statistics.median(walls)
            now = time.monotonic()
            if now - start + typical > seconds or now + typical > self.deadline:
                break
        plain = [r for r in self.reps if not r["traced"]]
        return {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }

    def traced_run(self) -> dict:
        self.setup_probe()
        (plain,) = self.repetitions(1, traced=False)
        if len(os.sched_getaffinity(0)) >= 2:
            traced = self.repetitions(2, traced=True)
        else:
            traced = self.repetitions(1, traced=True) + self.repetitions(1, traced=True)
        reports = [r["trace"] for r in traced if "trace" in r]
        if len(reports) != 2:
            return {}
        first, second = reports
        mismatched = sorted(
            k
            for k in set(first["counts"]) | set(second["counts"])
            if first["counts"].get(k) != second["counts"].get(k)
        )
        for k in mismatched:
            print(f"trace count differs between runs: {k}", file=sys.stderr)
        metrics = {}
        for name in PER_LAYER:
            if name.startswith("trace."):
                continue
            a, b = first["metrics"][name], second["metrics"][name]
            metrics[name] = (a + b) / 2 if isinstance(a, float) else a
            if not isinstance(a, float) and a != b:
                mismatched.append(name)
        metrics["trace.overhead_s"] = (
            statistics.mean(r["wall_s"] for r in traced) - plain["wall_s"]
        )
        metrics["trace.count_mismatches"] = len(mismatched)
        for rep, report in zip(traced, reports):
            if report["metrics"]["hecke_core.kl_table_misses"] < 1:
                rep["problems"].append("kl_table was warm: the start was not cold")
        return metrics

    def run(self, seconds: float, trace: bool) -> dict:
        self.work.mkdir(parents=True)
        try:
            values = self.traced_run() if trace else self.timed_run(seconds)
        finally:
            self.cleanup()
        failed = sum(1 for r in self.reps if r["problems"])
        for k, r in enumerate(self.reps):
            for p in r["problems"]:
                print(f"repetition {k}: {p}", file=sys.stderr)
        names = PER_LAYER if trace else END_TO_END
        return {
            "correct": failed == 0 and set(values) == set(names),
            "attempted": len(self.reps),
            "failed": failed,
            "metrics": {
                n: {"value": values[n], "unit": unit_of(n)} for n in names if n in values
            },
        }


# ----------------------------------------------------------------------
# run environment


def git_commit(root: Path):
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ")[0]
    except OSError:
        pass
    return None


def environment(root: Path) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
        "git_commit": git_commit(root),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "nstl" / "cli.py").is_file():
        print(f"no nstl sources under {root / 'src'}: run from a checkout", file=sys.stderr)
        return 2

    env = environment(root)
    golden = json.loads((HERE / "golden.json").read_text())
    bench = Bench(root, args.workload, args.seed, golden)
    result = bench.run(args.seconds, bool(args.trace))
    env["loadavg_after"] = os.getloadavg()
    ratio = fail_ratio([r["problems"] for r in bench.reps])

    record = {
        "args": vars(args),
        "environment": env,
        "fail_ratio": ratio,
        "result": result,
        "reps": bench.reps,
    }
    out_dir = root / ".perfbench_results"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1, default=str))
    print("environment " + json.dumps(env))
    print(f"fail_ratio {ratio}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
