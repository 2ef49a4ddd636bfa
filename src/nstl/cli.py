"""Command-line front end: exact canonical-basis, cell, module, and
verification computations with deterministic JSON output.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 internal
error (an uncaught exception, reported in one line on stderr; with -v
its traceback comes first), 141 (128 + SIGPIPE) when the reader closes
stdout early, with nothing on stderr.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
import time
from contextlib import nullcontext
from functools import partial
from itertools import chain

from .combinatorics import (
    Partition,
    dkt_edges,
    descent_set,
    syt_count,
    syt_enumerate,
)
from .hecke_core import cells_regular, kl_table


def _lazy(name):
    """The layer `name` of this package, imported as the import system
    would import it but run on first attribute access (the LazyLoader
    recipe of importlib); a layer already imported is reused."""
    fullname = f"{__package__}.{name}"
    if fullname not in sys.modules:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return sys.modules[fullname]


# kl-basis, cells and de-graph never run these five layers; wgraph, specht
# and transition run specht_modules and linalg only. All five are still in
# sys.modules, where perfbench/tracer.py looks for every layer to wrap.
_lazy("linalg")
specht_modules, nonstandard, seminormal, verify = map(
    _lazy, ("specht_modules", "nonstandard", "seminormal", "verify")
)


class RunConfig:
    def __init__(self, r_bound: int, output: str | None, verbosity: int):
        self.r_bound, self.output, self.verbosity = r_bound, output, verbosity

    def check_rank(self, r: int, parser: argparse.ArgumentParser):
        if r < 1:
            parser.error(f"rank {r} must be positive")
        if r > self.r_bound:
            parser.error(
                f"rank {r} exceeds the bound {self.r_bound} (raise with --r-bound)"
            )


def _partition(text: str) -> Partition:
    try:
        return Partition.parse(text)
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(f"bad partition {text!r}: {exc}")


def _label(text: str) -> nonstandard.NsIrredLabel:
    try:
        return nonstandard.NsIrredLabel.parse(text)
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(f"bad label {text!r}: {exc}")


_dumps = partial(json.dumps, sort_keys=True, separators=(",", ":"))


def _write(chunks, cfg: RunConfig):
    with open(cfg.output, "w") if cfg.output else nullcontext(sys.stdout) as fh:
        fh.writelines(chunks)


def _emit(payload, cfg: RunConfig):
    _write([_dumps(payload), "\n"], cfg)


def _matrix_strings(M):
    return [[str(x) for x in row] for row in M]


# -- subcommand handlers ----------------------------------------------


def cmd_kl_basis(args, cfg, parser):
    cfg.check_rank(args.r, parser)
    # the bytes of _emit, written one element at a time (95 MB at r = 7)
    head, tail = _dumps({"basis": args.basis, "elements": {}, "r": args.r}).split("{}")
    parts = (_dumps({w: c})[1:-1] for w, c in kl_table(args.r).printed(args.basis))
    body = chain([next(parts)], ("," + t for t in parts))
    _write(chain([head, "{"], body, ["}", tail, "\n"]), cfg)
    return 0


def cmd_cells(args, cfg, parser):
    cfg.check_rank(args.r, parser)
    cells = cells_regular(args.r)
    blocks = sorted(sorted(str(w) for w in cell) for cell in cells)
    _emit({"r": args.r, "basis": args.basis, "cells": blocks}, cfg)
    return 0


def cmd_wgraph(args, cfg, parser):
    cfg.check_rank(args.shape.size, parser)
    m = specht_modules.build_specht(args.shape)
    vertices = [str(q) for q in m.basis]
    edges = sorted(
        [str(a), str(b), v]
        for (a, b), v in m.mu_table.items()
        if str(a) < str(b)
    )
    _emit(
        {
            "shape": list(args.shape.parts),
            "vertices": vertices,
            "lower_descents": [
                sorted(descent_set(q, "lower")) for q in m.basis
            ],
            "upper_descents": [
                sorted(descent_set(q, "upper")) for q in m.basis
            ],
            "mu_edges": edges,
        },
        cfg,
    )
    return 0


def cmd_de_graph(args, cfg, parser):
    cfg.check_rank(args.shape.size, parser)
    _emit(dkt_edges(args.shape).to_json(), cfg)
    return 0


def cmd_specht(args, cfg, parser):
    cfg.check_rank(args.shape.size, parser)
    m = specht_modules.build_specht(args.shape)
    actions = m.lower_action if args.basis == "lower" else m.upper_action
    _emit(
        {
            "shape": list(args.shape.parts),
            "basis": args.basis,
            "tableaux": [str(q) for q in m.basis],
            "action": {
                str(i): _matrix_strings(A) for i, A in actions.items()
            },
        },
        cfg,
    )
    return 0


def cmd_transition(args, cfg, parser):
    cfg.check_rank(args.shape.size, parser)
    m = specht_modules.build_specht(args.shape)
    _emit(
        {
            "shape": list(args.shape.parts),
            "matrix": _matrix_strings(m.transition),
            "inverse": _matrix_strings(m.transition_inv),
        },
        cfg,
    )
    return 0


def cmd_decompose(args, cfg, parser):
    lam, mu = args.lhs, args.rhs
    if lam.size != mu.size:
        parser.error("--lhs and --rhs must have the same size")
    if not (lam.is_two_row() and mu.is_two_row()):
        parser.error("two-row shapes required")
    r = lam.size
    cfg.check_rank(r, parser)
    if lam == mu:
        labels = [
            lbl
            for lbl in nonstandard.ns_labels(r)
            if (lbl.kind in ("plus", "minus") and lbl.shapes[0] == lam)
            or lbl.kind == "eps_plus"
        ]
    else:
        labels = [nonstandard.NsIrredLabel("pair", (lam, mu))]
    parts = [
        {"label": str(lbl), "dimension": lbl.dimension(r)} for lbl in labels
    ]
    total = sum(p["dimension"] for p in parts)
    ambient = syt_count(lam) * syt_count(mu)
    _emit(
        {
            "lhs": list(lam.parts),
            "rhs": list(mu.parts),
            "constituents": parts,
            "total": total,
            "ambient": ambient,
        },
        cfg,
    )
    return 0 if total == ambient else 1


def cmd_restrict(args, cfg, parser):
    label = args.label
    if label.kind == "eps_plus":
        if args.r is None:
            parser.error("eps+ needs --r to fix the rank")
        r = args.r
    else:
        r = label.shapes[0].size
        if args.r is not None and args.r != r:
            parser.error(f"--r {args.r} conflicts with label rank {r}")
    cfg.check_rank(r, parser)
    if r < 2:
        parser.error(f"restriction from rank {r} needs r >= 2")
    if label not in set(nonstandard.ns_labels(r)):
        parser.error(f"label {label} is not in the rank-{r} index set")
    counts = nonstandard.restriction_decompose(nonstandard.build_irreducible(label, r))
    _emit(
        {
            "label": str(label),
            "r": r,
            "restriction": {
                str(lbl): m
                for lbl, m in sorted(counts.items(), key=lambda kv: str(kv[0]))
            },
        },
        cfg,
    )
    return 0


def cmd_seminormal(args, cfg, parser):
    lam, mu = args.lhs, args.rhs
    if lam.size != mu.size:
        parser.error("--lhs and --rhs must have the same size")
    if not (lam.is_two_row() and mu.is_two_row()):
        parser.error("two-row shapes required")
    if lam.size < 2:
        parser.error("seminormal grids need rank >= 2")
    cfg.check_rank(lam.size, parser)
    if not 2 <= args.level <= lam.size:
        parser.error(f"--level must be in 2..{lam.size}")
    grid = seminormal.seminormal_table(lam, mu, args.level)
    rows = [str(t) for t in syt_enumerate(lam)]
    cols = [str(t) for t in syt_enumerate(mu)]
    _emit(
        {
            "lhs": list(lam.parts),
            "rhs": list(mu.parts),
            "level": args.level,
            "rows": rows,
            "cols": cols,
            "grid": [[str(x) for x in row] for row in grid],
        },
        cfg,
    )
    # aligned text table for reading alongside the JSON
    cells = [[""] + cols] + [
        [rows[a]] + [str(x) for x in grid[a]] for a in range(len(rows))
    ]
    widths = [
        max(len(cells[i][j]) for i in range(len(cells)))
        for j in range(len(cells[0]))
    ]
    for row in cells:
        sys.stdout.write(
            "  ".join(x.ljust(w) for x, w in zip(row, widths)).rstrip()
            + "\n"
        )
    return 0


def cmd_dim_check(args, cfg, parser):
    cfg.check_rank(args.r, parser)
    formula = nonstandard.dimension_formula(args.r)
    # the "oracle" key is the dimension proved from the certified
    # irreducibles; it keeps its name so that the output stays the same
    try:
        oracle = nonstandard.nonstandard_dimension_oracle(args.r)
    except nonstandard.CertificateError as exc:
        print(f"nstl: dim-check: FAIL ({exc})", file=sys.stderr)
        return 1
    agree = formula == oracle
    _emit({"formula": formula, "oracle": oracle, "agree": agree}, cfg)
    return 0 if agree else 1


def cmd_verify_all(args, cfg, parser):
    cfg.check_rank(args.r, parser)
    if args.r < 2:
        parser.error(f"verify-all at rank {args.r} needs r >= 2 (branching restricts)")
    results = {}
    ok = True
    for name, cap, fixed, check in verify.ACCEPTANCE_CHECKS:
        rank = min(args.r, cap)
        t0 = time.perf_counter()
        res = check(rank)
        if cfg.verbosity:
            seconds = time.perf_counter() - t0
            ran = cap if fixed else rank
            print(f"{name}: r={ran} {seconds:.3f}s", file=sys.stderr)
        line = f"{name}: {'PASS' if res['ok'] else 'FAIL'}"
        if rank < args.r:
            res["effective_r"] = rank
            line += f" (at r={rank})"
        results[name] = res
        ok = ok and res["ok"]
        if not res["ok"]:
            line += f" ({res.get('detail', '')})"
        print(line)
    _emit({"r": args.r, "ok": ok, "results": results}, cfg)
    return 0 if ok else 1


# -- parser -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nstl",
        description="Exact canonical bases, Specht modules, and the "
        "rank-2 nonstandard quotient.",
    )
    parser.add_argument(
        "--r-bound", type=int, default=5, help="largest rank accepted"
    )
    parser.add_argument(
        "--output", help="write the JSON payload to this path"
    )
    parser.add_argument("-v", "--verbose", action="count", default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kl-basis", help="canonical basis elements")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--basis", choices=("lower", "upper"), default="lower")
    p.set_defaults(fn=cmd_kl_basis)

    p = sub.add_parser("cells", help="cells of the regular representation")
    p.add_argument("--r", type=int, required=True)
    # both canonical bases have the same cells; the basis only tags the output
    p.add_argument("--basis", choices=("lower", "upper"), default="upper")
    p.set_defaults(fn=cmd_cells)

    p = sub.add_parser("wgraph", help="mu edges and descent rows")
    p.add_argument("--shape", type=_partition, required=True)
    p.set_defaults(fn=cmd_wgraph)

    p = sub.add_parser("de-graph", help="dual-equivalence graph")
    p.add_argument("--shape", type=_partition, required=True)
    p.set_defaults(fn=cmd_de_graph)

    p = sub.add_parser("specht", help="cell module action matrices")
    p.add_argument("--shape", type=_partition, required=True)
    p.add_argument("--basis", choices=("lower", "upper"), default="lower")
    p.set_defaults(fn=cmd_specht)

    p = sub.add_parser("transition", help="lower-to-upper transition matrix")
    p.add_argument("--shape", type=_partition, required=True)
    p.set_defaults(fn=cmd_transition)

    p = sub.add_parser(
        "decompose", help="irreducible constituents of a tensor product"
    )
    p.add_argument("--lhs", type=_partition, required=True)
    p.add_argument("--rhs", type=_partition, required=True)
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("restrict", help="restriction of an irreducible")
    p.add_argument(
        "--label",
        type=_label,
        required=True,
        help='e.g. "3,2:2,2", "+3,1", "-3,1", "eps+"',
    )
    p.add_argument("--r", type=int, help="rank (needed for eps+)")
    p.set_defaults(fn=cmd_restrict)

    p = sub.add_parser("seminormal", help="seminormal chain-label grid")
    p.add_argument("--lhs", type=_partition, required=True)
    p.add_argument("--rhs", type=_partition, required=True)
    p.add_argument("--level", type=int, required=True)
    p.set_defaults(fn=cmd_seminormal)

    p = sub.add_parser(
        "dim-check",
        help="dimension formula against the dimension proved from the "
        "certified irreducibles and the split bound",
    )
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(fn=cmd_dim_check)

    p = sub.add_parser("verify-all", help="run every acceptance check")
    p.add_argument("--r", type=int, default=4)
    p.set_defaults(fn=cmd_verify_all)

    return parser


def _join_minus_labels(argv: list) -> list:
    """argv with `--label -3,1` written as `--label=-3,1`. argparse takes
    an argument that starts with "-", and is not a number, for an option,
    so it would find --label without its value; a minus label is "-" and
    then a digit."""
    out = []
    for arg in argv:
        if out and out[-1] == "--label" and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] = f"--label={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(_join_minus_labels(argv))
    cfg = RunConfig(
        r_bound=args.r_bound,
        output=args.output,
        verbosity=args.verbose,
    )
    if cfg.output:
        try:
            open(cfg.output, "a").close()
        except OSError as exc:
            parser.error(f"cannot write --output {cfg.output}: {exc.strerror}")
    try:
        code = args.fn(args, cfg, parser)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone; stdout goes to devnull so that the flush at
        # shutdown does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except Exception as exc:
        if cfg.verbosity:
            import traceback

            traceback.print_exc()
        message = " ".join(str(exc).split())
        print(
            f"nstl: internal error: {type(exc).__name__}: {message}",
            file=sys.stderr,
        )
        return 3


if __name__ == "__main__":
    sys.exit(main())
