#!/usr/bin/env python3
"""Tabulate the closed dimension formula against the dimension proved
from the certified irreducibles.

Usage: python3 scripts/dimension_table.py [max_r]

nonstandard_dimension_oracle proves the dimension exactly over Q(u):
the split identities bound it from above by a sum over the two-row
shapes, and the certified, pairwise inequivalent irreducibles bound it
from below by the sum of their squared dimensions (density); it returns
that sum once the two meet. A failed certificate can only give a false
disagreement, never a false agreement, and raises CertificateError.
Each rank is certified once per process, from rank 2 up
(nonstandard.certify_rank), so each row certifies only its own rank:
under a second through rank 6. A max_r below 2 is a usage error
(exit 2).
"""

import argparse
import time

from nstl.nonstandard import (
    dimension_formula,
    dimension_formula_details,
    nonstandard_dimension_oracle,
)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("max_r", type=int, nargs="?", default=4)
    args = ap.parse_args()
    if args.max_r < 2:
        ap.error(f"max_r {args.max_r} leaves the table empty: it needs max_r >= 2")
    print(f"{'r':>3} {'formula':>8} {'oracle':>8} {'time':>8}")
    for r in range(2, args.max_r + 1):
        t0 = time.time()
        oracle = nonstandard_dimension_oracle(r)
        formula = dimension_formula(r)
        flag = "" if formula == oracle else "  DISAGREE"
        print(
            f"{r:>3} {formula:>8} {oracle:>8} {time.time() - t0:>7.1f}s"
            f"{flag}"
        )
        details = dimension_formula_details(r)
        per = ", ".join(
            f"{k}={v}" for k, v in sorted(details.items()) if k != "formula"
        )
        print(f"     {per}")


if __name__ == "__main__":
    main()
