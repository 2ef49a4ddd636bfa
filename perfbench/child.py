"""One repetition of one benchmark workload, in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED [--trace-out PATH]

run.py spawns this script with PYTHONPATH set to the checkout's `src` and
a fresh NSTL_CACHE_DIR. The workload writes its output to stdout and the
script exits with the workload's exit code. With `--trace-out`, every
nstl layer is wrapped by tracer.py first and the per-layer report is
written to PATH when the workload ends.
"""

import os
import random
import sys

from workloads import CLI_ARGS, TRANSITION_RANK, matrix_digest


def _check_source():
    import nstl

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(nstl.__file__).startswith(src + os.sep):
        sys.exit(f"nstl imported from {nstl.__file__}, not from {src}")


def run_transitions(seed: int) -> int:
    """transition_lower_to_upper for every partition of the rank, in an
    order shuffled by the seed; one line `shape digest` per shape."""
    from nstl.combinatorics import partitions_of
    from nstl.specht_modules import transition_lower_to_upper

    shapes = partitions_of(TRANSITION_RANK)
    random.Random(seed).shuffle(shapes)
    for shape in shapes:
        M = transition_lower_to_upper(shape)
        sys.stdout.write(f"{shape} {matrix_digest(M)}\n")
    return 0


def run(workload: str, seed: int) -> int:
    if workload in CLI_ARGS:
        import nstl.cli

        return nstl.cli.main(list(CLI_ARGS[workload]))
    return run_transitions(seed)


def main(argv) -> int:
    workload, seed = argv[0], int(argv[1])
    trace_out = None
    if argv[2:4] and argv[2] == "--trace-out":
        trace_out = argv[3]
    _check_source()
    if trace_out is None:
        return run(workload, seed)

    import json

    import nstl.cli  # noqa: F401  (every layer must be loaded to be wrapped)
    from tracer import Tracer, instrument

    tracer = instrument(Tracer())
    try:
        code = run(workload, seed)
    finally:
        sys.stdout.flush()
        with open(trace_out, "w") as fh:
            json.dump(tracer.report(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
