#!/usr/bin/env python3
"""Print every irreducible at a given rank with its dimension and its
restriction to the next rank down, then run verify.check_certification:
each module is closed under the generators, by identities checked
exactly over Q(u) (nonstandard.square_split_identities), its commutant is
a line at the one specialization u = 7/3, no two modules have a nonzero
Hom there, each tensor square is exactly V+ + V- + eps by exact rank,
and the squared dimensions sum to the dimension formula. Exits 1 unless
that certification passes.

Usage: python3 scripts/certify_irreducibles.py [r]
"""

import argparse
import sys

from nstl.nonstandard import build_irreducible, ns_labels, restriction_decompose
from nstl.verify import check_certification


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("r", type=int, nargs="?", default=4)
    r = ap.parse_args(argv).r
    for label in ns_labels(r):
        res = restriction_decompose(build_irreducible(label, r))
        res_str = " + ".join(
            (f"{m}*" if m > 1 else "") + str(l)
            for l, m in sorted(res.items(), key=lambda kv: str(kv[0]))
        )
        print(f"{str(label):>10}  dim={label.dimension(r):>3}  Res = {res_str}")
    result = check_certification(r)
    detail = f" ({result['detail']})" if not result["ok"] else ""
    print(f"certification: {'PASS' if result['ok'] else 'FAIL'}{detail}")
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
