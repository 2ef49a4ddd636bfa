"""Byte-identical library results across processes and refactors.

The digests in `library_golden.json` are sha256 hashes of the printed
seminormal and hh bases (vectors and chains) of five tensor products
and of every rank-4 irreducible, of the restriction multiset of every
label with r <= 5, of the raw basis of every label with r <= 5 (sparse
GT coordinate vectors), of both canonical bases of H_6, of the cell actions and mu
table of every Specht module of rank 6, and of the branching maps
(child, iota and pi) of every Specht module of rank 2 to 6. The
seminormal vectors are the library's GT leaves in their normalized
lower (x) lower view (isotypic_oracle.lower_leaves). The hh bases,
split along the chain of full tensor-square algebras, come from the
dense oracle, which the library no longer carries a copy of. Each
pytest process runs under its own hash seed, so a match also shows that
these results do not depend on set or dict iteration order. The KL and
Specht digests print every entry in the order of the packed rows and of
the dicts, so they also pin the order in which the tables are built.
After an intended change, re-record them with

    PYTHONPATH=src python tests/test_library_golden.py
"""

import hashlib
import json
import pathlib

import pytest

from nstl.combinatorics import Partition, partitions_of
from nstl.hecke_core import kl_table
from nstl.nonstandard import (
    TensorModule,
    build_irreducible,
    ns_labels,
    restriction_decompose,
)
from nstl.seminormal import seminormal_basis
from nstl.specht_modules import build_specht

from isotypic_oracle import dense_split, hh_pieces, lower_leaves, to_dense

GOLDEN = pathlib.Path(__file__).with_name("library_golden.json")

PRODUCTS = [
    ((3, 2), (3, 2)),
    ((3, 1), (2, 2)),
    ((4, 1), (3, 2)),
    ((4, 2), (3, 3)),
    ((4, 2), (4, 2)),
]


def _matrix(c):
    return "[" + "; ".join(", ".join(map(str, row)) for row in c) + "]"


def _seminormal(space):
    sb = seminormal_basis(space)
    return "\n".join(
        f"{chain} : {_matrix(v)}" for chain, v in zip(sb.chains, lower_leaves(sb))
    )


def _hh(tm):
    return "\n".join(
        " > ".join(f"{nu}:{rho}" for nu, rho in chain) + " : " + _matrix(v)
        for chain, v in dense_split(
            tm, [to_dense(e, tm) for e in tm.unit_vectors()], hh_pieces
        )
    )


def _basis(label, r):
    # sparse GT coordinate vectors, each with its entries in key order
    return "\n".join(
        "{" + ", ".join(f"{a},{b}: {x}" for (a, b), x in sorted(C.items())) + "}"
        for C in build_irreducible(label, r).basis
    )


def _restriction(label, r):
    counts = restriction_decompose(build_irreducible(label, r))
    return ", ".join(
        f"{lbl} x{m}" for lbl, m in sorted(counts.items(), key=lambda kv: str(kv[0]))
    )


def _kl(basis):
    # printed lists the elements by name; the digest takes them in the
    # order of the table, each with its coordinates in row order
    table = kl_table(6)
    printed = dict(table.printed(basis))
    return "\n".join(
        f"{w} {x} {p}" for w in table.perms for x, p in printed[str(w)].items()
    )


def _specht(parts):
    m = build_specht(Partition(parts))
    lines = [
        f"{basis} s_{i} : {_matrix(A)}"
        for basis, actions in (("lower", m.lower_action), ("upper", m.upper_action))
        for i, A in actions.items()
    ]
    lines += [f"mu {q1} {q2} {c}" for (q1, q2), c in m.mu_table.items()]
    return "\n".join(lines)


def _branching(parts):
    return "\n".join(
        f"{child} : {_matrix(iota)} : {_matrix(pi)}"
        for child, iota, pi, _ in build_specht(Partition(parts)).branching
    )


def cases():
    """Name -> zero-argument function returning the printed result."""
    out = {}
    for lam, mu in PRODUCTS:
        tm = TensorModule(Partition(lam), Partition(mu))
        name = f"{tm.lam}x{tm.mu}"
        out[f"seminormal {name}"] = lambda tm=tm: _seminormal(tm)
        out[f"hh {name}"] = lambda tm=tm: _hh(tm)
    for label in ns_labels(4):
        out[f"seminormal {label} r=4"] = lambda label=label: _seminormal(
            build_irreducible(label, 4)
        )
        out[f"hh ambient of {label} r=4"] = lambda label=label: _hh(
            build_irreducible(label, 4).ambient
        )
    for r in range(2, 6):
        for label in ns_labels(r):
            out[f"restrict {label} r={r}"] = lambda label=label, r=r: (
                _restriction(label, r)
            )
    for r in range(1, 6):
        for label in ns_labels(r):
            out[f"basis {label} r={r}"] = lambda label=label, r=r: _basis(label, r)
    for basis in ("lower", "upper"):
        out[f"kl {basis} r=6"] = lambda basis=basis: _kl(basis)
    for shape in partitions_of(6):
        out[f"specht {shape}"] = lambda parts=shape.parts: _specht(parts)
    for r in range(2, 7):
        for shape in partitions_of(r):
            out[f"branching {shape}"] = lambda parts=shape.parts: _branching(parts)
    return out


CASES = cases()


def digest(name):
    return hashlib.sha256(CASES[name]().encode()).hexdigest()


@pytest.mark.parametrize("name", list(CASES))
def test_library_digest(name):
    assert digest(name) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({name: digest(name) for name in CASES}, indent=1) + "\n"
    )
