#!/usr/bin/env python3
"""Tabulate the closed dimension formula against the spanning oracle.

Usage: python3 scripts/dimension_table.py [max_r]

The oracle runs its closure over F_p at every rank, in pure Python
through rank 4 and in numpy from rank 5, a few seconds at rank 5 (at
ranks 2-4 its words equal those of an exact Fraction closure, which the
tests check).
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
