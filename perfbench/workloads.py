"""Workloads of the nstl benchmark and the checks on their output.

Every workload is one closed-loop repetition: one fresh interpreter, one
thread, run to completion before the next one starts.

* verify-r4: `nstl verify-all --r 4`, the default check run. It touches
  every layer; most of its time is the exact Fraction span oracle
  (nonstandard + linalg) and the (3,2)x(3,2) seminormal basis
  (seminormal + RationalFn arithmetic).
* transition-r6: `transition_lower_to_upper` for every partition of 6,
  in an order shuffled by the seed. Almost all of its time is RationalFn
  row reduction (specht_modules -> linalg -> exact_arith); it never
  reaches nonstandard or seminormal.
* kl-upper-r5: `nstl kl-basis --r 5 --basis upper`. Hecke-algebra and
  LaurentPoly work (mostly the theta pass) plus JSON emission; it never
  calls linalg and no RationalFn it creates needs a gcd.
"""

from __future__ import annotations

import hashlib
import json

CLI_ARGS = {
    "verify-r4": ("verify-all", "--r", "4"),
    "kl-upper-r5": ("kl-basis", "--r", "5", "--basis", "upper"),
}
TRANSITION_RANK = 6
WORKLOADS = ("verify-r4", "transition-r6", "kl-upper-r5")

# Numbers stated in the paper, not taken from the code under test: the
# dimension of the rank-r nonstandard quotient for r = 2, 3, 4, and the
# number of seminormal leaves of (3,2) (x) (3,2).
PAPER_DIMENSIONS = {"2": 2, "3": 10, "4": 89}
PAPER_SEMINORMAL_LEAVES = 25
# |S_5| = 120 canonical basis elements
KL_ELEMENTS = 120


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def matrix_digest(M) -> str:
    """sha256 of a matrix as the CLI prints it (rows of entry strings)."""
    text = json.dumps([[str(x) for x in row] for row in M], separators=(",", ":"))
    return sha256(text.encode())


def transition_digests(stdout: bytes) -> dict:
    """shape -> matrix digest from the `shape digest` lines of a run."""
    out = {}
    for line in stdout.decode().splitlines():
        shape, digest = line.split(" ")
        if shape in out:
            raise ValueError(f"shape {shape} printed twice")
        out[shape] = digest
    return out


def record(workload: str, stdout: bytes, exit_code: int) -> dict:
    """Golden entry for one repetition's output."""
    entry = {"exit_code": exit_code}
    if workload == "transition-r6":
        matrices = transition_digests(stdout)
        entry["matrices"] = dict(sorted(matrices.items()))
        # the printed order follows the seed; the digest is of sorted lines
        stdout = b"".join(sorted(stdout.splitlines(keepends=True)))
    entry["stdout_sha256"] = sha256(stdout)
    return entry


def problems(workload: str, stdout: bytes, exit_code: int, golden: dict) -> list:
    """Why one repetition's output is wrong; empty when it is right."""
    found = []
    want = golden[workload]
    try:
        got = record(workload, stdout, exit_code)
    except ValueError as exc:
        return [f"unreadable output: {exc}"]
    if got["exit_code"] != want["exit_code"]:
        found.append(f"exit code {got['exit_code']} != {want['exit_code']}")
    if got["stdout_sha256"] != want["stdout_sha256"]:
        found.append("stdout differs from the golden output")
    if workload == "transition-r6":
        for shape in sorted(set(want["matrices"]) | set(got["matrices"])):
            if got["matrices"].get(shape) != want["matrices"].get(shape):
                found.append(f"transition matrix of {shape} differs")
        return found
    lines = stdout.decode(errors="replace").splitlines()
    try:
        payload = json.loads(lines[-1])
    except (IndexError, ValueError):
        return found + ["no JSON payload on the last line"]
    if workload == "verify-r4":
        results = payload.get("results", {})
        if payload.get("ok") is not True:
            found.append('"ok" is not true')
        if results.get("dimension", {}).get("values") != PAPER_DIMENSIONS:
            found.append("dimension values differ from the paper's")
        if results.get("seminormal", {}).get("leaves") != PAPER_SEMINORMAL_LEAVES:
            found.append("seminormal leaf count differs from the paper's")
    elif workload == "kl-upper-r5":
        if len(payload.get("elements", {})) != KL_ELEMENTS:
            found.append(f"expected {KL_ELEMENTS} canonical basis elements")
    return found


def fail_ratio(rep_problems: list) -> float:
    """Share of repetitions with at least one problem."""
    return sum(1 for p in rep_problems if p) / len(rep_problems)
