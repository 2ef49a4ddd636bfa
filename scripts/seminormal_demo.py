#!/usr/bin/env python3
"""Print the seminormal chain-label grids for a tensor square at every
level, plus the leaf census of the seminormal basis.

Usage: python3 scripts/seminormal_demo.py [shape]

The shape must be a two-row partition of size at least 2; anything else
is a usage error (exit 2).
"""

import argparse
from collections import Counter

from nstl.combinatorics import Partition, syt_enumerate
from nstl.nonstandard import TensorModule
from nstl.seminormal import seminormal_basis, seminormal_table


def print_grid(lam, level):
    labels = [str(t) for t in syt_enumerate(lam)]
    grid = seminormal_table(lam, lam, level)
    width = max(
        [len(s) for s in labels]
        + [len(str(x)) for row in grid for x in row]
    )
    print(f"level {level}:")
    print("  " + " ".join(s.rjust(width) for s in [""] + labels))
    for name, row in zip(labels, grid):
        print(
            "  "
            + " ".join(
                s.rjust(width) for s in [name] + [str(x) for x in row]
            )
        )
    print()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("shape", nargs="?", default="3,2")
    args = ap.parse_args()
    try:
        lam = Partition.parse(args.shape)
    except ValueError as exc:
        ap.error(f"bad partition {args.shape!r}: {exc}")
    if not lam.is_two_row():
        ap.error("two-row shapes required")
    if lam.size < 2:
        ap.error("seminormal grids need rank >= 2")
    for level in range(lam.size, 1, -1):
        print_grid(lam, level)
    sb = seminormal_basis(TensorModule(lam, lam))
    census = Counter(str(c.level(lam.size)) for c in sb.chains)
    print(f"{sb.dim} leaves; top-level census:")
    for name, count in sorted(census.items()):
        print(f"  {name}: {count}")


if __name__ == "__main__":
    main()
