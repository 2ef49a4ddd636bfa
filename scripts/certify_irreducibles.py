#!/usr/bin/env python3
"""Sweep the irreducible index set at a given rank: build each module,
check generator closure, certify irreducibility at two specializations,
and print its restriction to the next rank down. Exits 1 if a module
is not generator-closed, a commutant is not 1, or the squared
dimensions do not sum to the dimension formula.

Usage: python3 scripts/certify_irreducibles.py [r]
"""

import argparse
import sys
import time

from nstl.nonstandard import (
    SPECIALIZATION_LADDER,
    build_irreducible,
    certify_irreducible,
    closure_check,
    dimension_formula,
    ns_labels,
    restriction_decompose,
)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("r", type=int, nargs="?", default=4)
    args = ap.parse_args(argv)
    total, ok = 0, True
    for label in ns_labels(args.r):
        t0 = time.time()
        mod = build_irreducible(label, args.r)
        closed = closure_check(mod)
        comm = [
            certify_irreducible(mod, u0)
            for u0 in SPECIALIZATION_LADDER[:2]
        ]
        res = restriction_decompose(mod)
        res_str = " + ".join(
            (f"{m}*" if m > 1 else "") + str(l)
            for l, m in sorted(res.items(), key=lambda kv: str(kv[0]))
        )
        total += mod.dim**2
        ok = ok and closed and comm == [1, 1]
        print(
            f"{str(label):>10}  dim={mod.dim:>3}  closed={closed}  "
            f"commutant={comm}  Res = {res_str}  "
            f"({time.time() - t0:.1f}s)"
        )
    print(f"sum of squared dimensions: {total}")
    return 0 if ok and total == dimension_formula(args.r) else 1


if __name__ == "__main__":
    sys.exit(main())
