"""Batch verification checks shared by the test suite and the CLI.

Each check_* function returns a dict with at least {"ok": bool}; extra
keys carry counts or a first-failure description.  The checks mirror
the package's headline guarantees at desk scale.
"""

from __future__ import annotations

from collections import Counter

from . import nonstandard
from .combinatorics import (
    Partition,
    Tableau,
    all_permutations,
    descent_set,
    dkt_edges,
    partitions_of,
    rsk,
    syt_enumerate,
    two_row_partitions,
)
from .exact_arith import FOUR, R_ONE, R_ZERO
from .hecke_core import cells_regular, kl_table
from .nonstandard import (
    CertificateError,
    NsIrredLabel,
    RestrictionError,
    TensorModule,
    antipode_check,
    build_irreducible,
    certify_rank,
    dimension_formula,
    epsilon_minus_vector,
    nonstandard_dimension_oracle,
    ns_labels,
    p_action,
    restriction_decompose,
)
from .seminormal import (
    MultiplicityError,
    alpha,
    chain_membership,
    seminormal_basis,
    seminormal_table,
)
from .specht_modules import build_specht, projected_basis


def _tab(s: str) -> Tableau:
    return Tableau([[int(ch) for ch in part] for part in s.split("/")])


def _fail(msg) -> dict:
    return {"ok": False, "detail": str(msg)}


# -- 1: canonical basis characterization ------------------------------


def check_kl(r: int) -> dict:
    """C'_w and C_w for every w in S_r: diagonal coordinate 1, the other
    coordinates in u^-1 Z[u^-1] (C'_w) and u Z[u] (C_w), and both
    bar-invariant, proved from C'_v C'_s - C'_w for w = v s > v
    (KLTable.canonical_failure; it raises ArithmeticError rather than
    answer where its packed integers might be inexact)."""
    table = kl_table(r)
    failure = table.canonical_failure()
    if failure:
        return _fail(failure)
    return {"ok": True, "elements": 2 * len(table.perms)}


# -- 2: cells against RSK fibers --------------------------------------


def check_cells(r: int) -> dict:
    """The right cells of both canonical bases (one partition,
    hecke_core.cells_regular) are the fibers of the insertion tableau
    P(w). The lower cells are keyed by P(w)^t, which has the same
    fibers, so one comparison covers both bases."""
    fibers = {}
    for w in all_permutations(r):
        P, _ = rsk(w.word)
        fibers.setdefault(P, set()).add(w)
    got = {frozenset(cell) for cell in cells_regular(r)}
    # both partition S_r, so they are equal when every fiber is a cell
    split = [v for v in fibers.values() if frozenset(v) not in got]
    if split:
        w = min((w for v in split for w in v), key=lambda w: w.word)
        return _fail(f"cells disagree with the insertion fiber of {w}")
    return {"ok": True, "cells": len(fibers)}


# -- 3: the (3,2) pictures --------------------------------------------

FIG_VERTICES = ["123/45", "124/35", "134/25", "135/24", "125/34"]
FIG_LOWER = [{1, 2, 4}, {1, 3}, {2, 3}, {2, 4}, {1, 3, 4}]
FIG_UPPER = [{3}, {2, 4}, {1, 4}, {1, 3}, {2}]
FIG_MU_EDGES = {
    frozenset({"123/45", "124/35"}),
    frozenset({"124/35", "134/25"}),
    frozenset({"134/25", "135/24"}),
    frozenset({"135/24", "125/34"}),
    frozenset({"123/45", "135/24"}),
    frozenset({"124/35", "125/34"}),
}
FIG_DE_EDGES = {
    ("123/45", "124/35", 3),
    ("123/45", "124/35", 4),
    ("124/35", "134/25", 2),
    ("134/25", "135/24", 4),
    ("125/34", "135/24", 2),
    ("125/34", "135/24", 3),
}


def check_figures() -> dict:
    lam = Partition([3, 2])
    for s, lo, up in zip(FIG_VERTICES, FIG_LOWER, FIG_UPPER):
        Q = _tab(s)
        if descent_set(Q, "lower") != frozenset(lo):
            return _fail(f"lower descent row differs at {s}")
        if descent_set(Q, "upper") != frozenset(up):
            return _fail(f"upper descent row differs at {s}")
    m = build_specht(lam)
    got_mu = {
        frozenset({str(a), str(b)}): v for (a, b), v in m.mu_table.items()
    }
    diff = sorted(sorted(e) for e in FIG_MU_EDGES ^ set(got_mu))
    if diff:
        a, b = diff[0]
        where = "missing" if frozenset(diff[0]) in FIG_MU_EDGES else "extra"
        return _fail(f"mu edge {a} - {b} {where} in the five-vertex picture")
    if any(v != 1 for v in got_mu.values()):
        return _fail("a mu edge is not 1")
    got_de = {
        tuple(sorted((str(a), str(b)))) + (i,)
        for a, b, i in dkt_edges(lam).edges
    }
    if got_de != FIG_DE_EDGES:
        return _fail("dual-equivalence edges differ")
    return {"ok": True, "mu_edges": len(got_mu), "de_edges": len(got_de)}


# -- 4: dual equivalence forces mu = 1 --------------------------------


def check_dkt_mu(n: int) -> dict:
    checked = 0
    for r in range(2, n + 1):
        for lam in partitions_of(r):
            m = build_specht(lam)
            for (a, b), v in m.mu_table.items():
                if v <= 0:
                    return _fail(f"nonpositive mu at {lam}")
            for a, b, _ in dkt_edges(lam).edges:
                if m.mu(a, b) != 1 or m.mu(b, a) != 1:
                    return _fail(f"DE edge {a} - {b} without mu=1 in {lam}")
                checked += 1
    return {"ok": True, "de_edges": checked}


# -- 5: transition matrices -------------------------------------------


def check_transition(n: int) -> dict:
    shapes = 0
    for r in range(2, n + 1):
        for lam in partitions_of(r):
            m = build_specht(lam)
            for M in (m.transition, m.transition_inv):
                for row in M:
                    for x in row:
                        if x and (x.val0() < 0 or x.val_inf() < 0):
                            return _fail(f"entry outside K0^Kinf for {lam}")
            X = m.transition
            for a in range(m.dim):
                for b in range(m.dim):
                    d = X[a][b] - (R_ONE if a == b else R_ZERO)
                    if d and (d.val0() < 1 or d.val_inf() < 1):
                        return _fail(f"not identity at 0/inf for {lam}")
            shapes += 1
    return {"ok": True, "shapes": shapes}


# -- 6: projected bases -----------------------------------------------


def check_projected(n: int) -> dict:
    shapes = 0
    for r in range(2, n + 1):
        for lam in partitions_of(r):
            m = build_specht(lam)
            children = [c for c, _, _, _ in m.branching]
            for a in range(len(children)):
                for b in range(a + 1, len(children)):
                    if not children[a].dominates(children[b]):
                        return _fail(f"cell order violated for {lam}")
            for which in ("lower", "upper"):
                for q, vec in projected_basis(lam, which):
                    sh_q = m.restriction_shape(q)
                    for qp in m.basis:
                        x, bad = vec[m.index[qp]], ""
                        if qp == q:
                            if x != R_ONE:
                                bad = "diagonal != 1"
                        elif x:
                            sh_qp = m.restriction_shape(qp)
                            good = (
                                sh_qp.dominates(sh_q)
                                if which == "lower"
                                else sh_q.dominates(sh_qp)
                            )
                            if sh_qp == sh_q or not good:
                                bad = "triangularity fails"
                            elif x.val0() < 1 or x.val_inf() < 1:
                                bad = "valuation fails"
                        if bad:
                            return _fail(f"{bad} for {lam} ({which} {q} at {qp})")
            shapes += 1
    return {"ok": True, "shapes": shapes}


# -- 7: closed action formulas ----------------------------------------


def check_action_formula() -> dict:
    shapes = two_row_partitions(4)
    checked = 0
    for lam in shapes:
        for mu in shapes:
            tm = TensorModule(lam, mu)
            units = tm.unit_vectors()
            for pair in ("ll", "ul", "uu"):
                for i in range(1, 4):
                    for c in units:
                        if p_action(tm, c, i, pair) != tm.p_apply(c, i, pair):
                            return _fail(
                                f"case formula differs at "
                                f"{lam},{mu},{pair},s_{i}"
                            )
                        checked += 1
    return {"ok": True, "matrix_columns": checked}


# -- 8: the one-dimensional (co)invariants and the antipode -----------


def check_epsilon_antipode() -> dict:
    for r in range(2, 5):
        for lam in partitions_of(r):
            tm = TensorModule(lam, lam)
            eps = nonstandard.epsilon_plus_vector(lam)
            want = {key: FOUR * x for key, x in eps.items()}
            for i in range(1, r):
                if tm.p_apply(eps, i, "ll") != want:
                    return _fail(f"plus vector not an eigenvector: {lam}")
            tmc = TensorModule(lam.conjugate(), lam)
            em = epsilon_minus_vector(lam)
            for i in range(1, r):
                if tmc.p_apply(em, i, "ll"):
                    return _fail(f"minus vector not annihilated: {lam}")
    words = [[1], [2], [3], [1, 2], [2, 1], [1, 3]]
    for word in words:
        if not antipode_check(word, r=4):
            return _fail(f"antipode identity fails on word {word}")
    return {"ok": True, "antipode_words": len(words)}


# -- 9: irreducibility certificates -----------------------------------


def check_certification(r: int) -> dict:
    """Every label of ranks 2..r is absolutely irreducible and no two of
    a rank are isomorphic (nonstandard.certify_rank(r), which proves the
    ranks below first: each certificate needs the rank below). With the
    split identities the faithful sum is a direct sum of copies of these
    V_i, so by density the algebra has dimension sum_i d_i^2, which must
    be the formula."""
    try:
        certify_rank(r)
    except CertificateError as exc:
        return _fail(exc)
    squares = sum(label.dimension(r) ** 2 for label in ns_labels(r))
    if squares != dimension_formula(r):
        return _fail("sum of squared dimensions misses the formula")
    return {"ok": True, "labels": len(ns_labels(r))}


# -- 10: branching ----------------------------------------------------


def expected_restriction(label: NsIrredLabel, r: int) -> Counter:
    """Restriction multiset predicted by the branching rules: tensor
    pairs restrict factorwise, symmetric/wedge parts restrict to their
    own kind plus cross pairs (plus one eps on the symmetric side when
    the shape has two removable cells), and the eigenline persists."""

    def down(shape):
        return [
            shape.remove_corner(i) for i in range(len(shape.corners()))
        ]

    def signed(kind, shape):
        lab = NsIrredLabel(kind, (shape,))
        return Counter({lab: 1}) if lab.dimension(shape.size) else Counter()

    out = Counter()
    if label.kind == "eps_plus":
        out[NsIrredLabel("eps_plus")] = 1
        return out
    if label.kind == "pair":
        lam, mu = label.shapes
        for nu in down(lam):
            for rho in down(mu):
                if nu != rho:
                    out[NsIrredLabel("pair", (nu, rho))] += 1
                else:
                    out += signed("plus", nu) + signed("minus", nu)
                    out[NsIrredLabel("eps_plus")] += 1
        return out
    lam = label.shapes[0]
    children = down(lam)
    for a in range(len(children)):
        for b in range(a + 1, len(children)):
            out[NsIrredLabel("pair", (children[a], children[b]))] += 1
    for nu in children:
        out += signed(label.kind, nu)
    if label.kind == "plus" and len(children) == 2:
        out[NsIrredLabel("eps_plus")] += 1
    return out


def check_branching(r: int) -> dict:
    """The restriction of every label (the split the certificate reads)
    against the branching rules; ranks that misfit a module FAIL."""
    for label in ns_labels(r):
        try:
            got = restriction_decompose(build_irreducible(label, r))
        except RestrictionError as exc:
            return _fail(f"restriction of {label}: {exc}")
        want = expected_restriction(label, r)
        if got != want:
            return _fail(f"restriction of {label}: {got} != {want}")
    return {"ok": True, "labels": len(ns_labels(r))}


# -- 11: dimension formula vs the proved dimension ---------------------


def check_dimension(rs=(2, 3, 4)) -> dict:
    """The formula against the dimension of the algebra at each rank,
    proved exactly over Q(u) by nonstandard_dimension_oracle: the
    certified irreducibles give sum d^2 as a lower bound (density), the
    split identities the same number as an upper bound
    (nonstandard._split_bound, read off the shapes, never taken from the
    formula). So a PASS proves the dimension equals the formula, and a
    certificate that misses an edge can only give a false FAIL. Each
    rank is certified once per process (nonstandard.certify_rank). A
    split identity or a certificate that fails is a FAIL."""
    values = {}
    for r in rs:
        formula = dimension_formula(r)
        try:
            oracle = nonstandard_dimension_oracle(r)
        except CertificateError as exc:
            return _fail(exc)
        if formula != oracle:
            return _fail(f"r={r}: formula {formula} != oracle {oracle}")
        values[r] = formula
    return {"ok": True, "values": values}


# -- 12: seminormal bases ---------------------------------------------

SEM_ORDER = ["123/45", "124/35", "134/25", "125/34", "135/24"]
SEM_LEVEL5 = [
    ["+3,2", "+3,2", "+3,2", "+3,2", "+3,2"],
    ["-3,2", "+3,2", "+3,2", "+3,2", "+3,2"],
    ["-3,2", "-3,2", "+3,2", "+3,2", "+3,2"],
    ["-3,2", "-3,2", "-3,2", "+3,2", "+3,2"],
    ["-3,2", "-3,2", "-3,2", "-3,2", "eps+"],
]
SEM_LEVEL4 = [
    ["+3,1", "+3,1", "+3,1", "3,1:2,2", "3,1:2,2"],
    ["-3,1", "+3,1", "+3,1", "3,1:2,2", "3,1:2,2"],
    ["-3,1", "-3,1", "eps+", "3,1:2,2", "3,1:2,2"],
    ["3,1:2,2", "3,1:2,2", "3,1:2,2", "+2,2", "+2,2"],
    ["3,1:2,2", "3,1:2,2", "3,1:2,2", "-2,2", "eps+"],
]


def check_seminormal() -> dict:
    lam = Partition([3, 2])
    Ts = syt_enumerate(lam)
    pos = {str(t): i for i, t in enumerate(Ts)}
    for level, frozen in ((5, SEM_LEVEL5), (4, SEM_LEVEL4)):
        table = seminormal_table(lam, lam, level)
        for a, ra in enumerate(SEM_ORDER):
            for b, rb in enumerate(SEM_ORDER):
                want = NsIrredLabel.parse(frozen[a][b])
                if table[pos[ra]][pos[rb]] != want:
                    return _fail(
                        f"level-{level} grid differs at ({ra},{rb})"
                    )
    try:
        sb = seminormal_basis(TensorModule(lam, lam))
    except MultiplicityError as exc:
        return _fail(exc)
    if sb.dim != 25:
        return _fail(f"leaf count {sb.dim} != 25")
    tops = [c.level(5) for c in sb.chains]
    counts = (
        tops.count(NsIrredLabel("plus", (lam,))),
        tops.count(NsIrredLabel("minus", (lam,))),
        tops.count(NsIrredLabel("eps_plus")),
    )
    if counts != (14, 10, 1):
        return _fail(f"top-level split {counts} != (14, 10, 1)")
    chains = {
        alpha(lam, lam, T, U) for T in Ts for U in Ts
    }
    if set(sb.chains) != chains or len(sb.chains) != len(set(sb.chains)):
        return _fail("leaf chains are not the alpha image")
    for idx in range(sb.dim):
        if not chain_membership(sb, idx):
            return _fail(f"membership fails for chain {sb.chains[idx]}")
    return {"ok": True, "leaves": sb.dim}


# -- driver -----------------------------------------------------------


# (name, cap, fixed, check at a rank). A check is run at the requested
# rank or its cap, whichever is smaller, and stdout marks it by that
# rule. A fixed check ignores the rank and always runs at its cap;
# `-v` reports the rank each check really ran at. The lambdas look
# each check up when called, so a wrapper patched into this module
# later (a tracer, a test double) sees every call.
ACCEPTANCE_CHECKS = (
    ("kl-basis", 7, False, lambda r: check_kl(r)),
    ("cells-rsk", 5, False, lambda r: check_cells(r)),
    ("figures", 5, True, lambda r: check_figures()),
    ("de-mu", 5, False, lambda r: check_dkt_mu(r)),
    ("transition", 5, False, lambda r: check_transition(r)),
    ("projected-basis", 5, False, lambda r: check_projected(r)),
    ("action-formula", 4, True, lambda r: check_action_formula()),
    ("eps-antipode", 4, True, lambda r: check_epsilon_antipode()),
    ("certification", 4, False, lambda r: check_certification(r)),
    ("branching", 4, False, lambda r: check_branching(r)),
    ("dimension", 4, False, lambda r: check_dimension(tuple(range(2, r + 1)))),
    ("seminormal", 5, True, lambda r: check_seminormal()),
)
