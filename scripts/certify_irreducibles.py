#!/usr/bin/env python3
"""Run verify.check_certification at a given rank, then print every
irreducible of that rank with its dimension and its restriction to the
next rank down, and one certification line. Exits 1 unless the
certification passes.

The certification works by induction on the rank, exactly over Q(u).
Each module is closed under the generators, by identities checked
exactly (nonstandard.square_split_identities). Its isotypic split to
the rank below is multiplicity-free, and the digraph on the components
that one generator links is strongly connected, so it is irreducible.
Modules of one rank are told apart by dimension, restriction or the
trace of P_1 ... P_{r-1}, and their squared dimensions sum to the
dimension formula. The restriction printed is the split the
certificate computed; no label is split twice. A rank below 2 is a
usage error (exit 2), as in `nstl verify-all`.

Every identity the certificate checks is read in the Gelfand-Tsetlin
coordinates of the irreducibles (seminormal._gt_basis): the split
identities, the eps line diag(E) and the restriction.

Usage: python3 scripts/certify_irreducibles.py [r]
"""

import argparse
import sys

from nstl.nonstandard import (
    RestrictionError,
    build_irreducible,
    ns_labels,
    restriction_decompose,
)
from nstl.verify import check_certification


def restriction_text(label, r):
    """The restriction as a sum of labels, or '? (why)' when its ranks
    do not fit the module, which fails the certification too."""
    try:
        res = restriction_decompose(build_irreducible(label, r))
    except RestrictionError as exc:
        return f"? ({exc})"
    return " + ".join(
        (f"{m}*" if m > 1 else "") + str(l)
        for l, m in sorted(res.items(), key=lambda kv: str(kv[0]))
    )


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("r", type=int, nargs="?", default=4)
    r = ap.parse_args(argv).r
    if r < 2:
        ap.error(f"certification at rank {r} needs r >= 2 (branching restricts)")
    result = check_certification(r)
    for label in ns_labels(r):
        res_str = restriction_text(label, r)
        print(f"{str(label):>10}  dim={label.dimension(r):>3}  Res = {res_str}")
    detail = f" ({result['detail']})" if not result["ok"] else ""
    print(f"certification: {'PASS' if result['ok'] else 'FAIL'}{detail}")
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
