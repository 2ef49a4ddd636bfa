"""Record perfbench/golden.json from the checkout it is run in.

    python3 perfbench/record_golden.py

Runs every workload once (seed 0, tracing off) and stores its exit code,
the sha256 of its stdout and, for transition-r6, the digest of every
transition matrix. Record only from a commit whose output is known to be
right: the benchmark counts any later difference as a failure.
"""

import json
import sys
from pathlib import Path

from run import HERE, Bench
from workloads import WORKLOADS, record


def main() -> int:
    root = Path.cwd()
    golden = {}
    for workload in WORKLOADS:
        bench = Bench(root, workload, 0, golden={})
        bench.work.mkdir(parents=True)
        try:
            cache = bench.work / "cache"
            cache.mkdir()
            out = bench.work / "stdout"
            argv = [sys.executable, str(HERE / "child.py"), workload, "0"]
            ((wall, code, _),) = bench.spawn([(argv, bench.env(cache), out)])
            golden[workload] = record(workload, out.read_bytes(), code)
        finally:
            bench.cleanup()
        print(f"{workload}: exit {code} in {wall:.1f} s", file=sys.stderr)
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
