"""Seminormal bases for the irreducibles of the rank-2 nonstandard
quotient, taken along the chain of parabolic subalgebras on the
generator sets {P_1}, {P_1, P_2}, ..., and the combinatorial bijection
alpha from pairs of standard tableaux to seminormal chain labels.

A seminormal basis of an invariant subspace of M_lambda (x) M_mu is
obtained by iterated isotypic splitting: at each level k = r, r-1, ...,
2 the space is cut by the exact isotypic projectors of the rank-k
parabolic, and multiplicity-freeness of the chain makes every terminal
piece one-dimensional.  Vectors are stored as lower (x) lower
coefficient matrices of the ambient tensor module and normalized so the
lexicographically-first nonzero coordinate (row-major, canonical SYT
order) equals 1; the basis is only canonical up to one scalar per
vector, and this normalization pins the scalars for reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .combinatorics import (
    Partition,
    Tableau,
    syt_enumerate,
    y_tableau,
)
from .exact_arith import R_HALF, R_ONE, R_ZERO, RationalFn
from .linalg import (
    identity,
    mat_add,
    mat_mul,
    mat_scale,
    mat_sub,
    mat_transpose,
    rref,
)
from .nonstandard import NsIrredLabel, NsSubmodule, TensorModule, flatten, unflatten
from .specht_modules import build_specht


class MultiplicityError(RuntimeError):
    """A chain level failed to split the space into lines."""


# ---------------------------------------------------------------------
# the bijection alpha


@dataclass(frozen=True)
class SeminormalChainLabel:
    """Isotypic labels along the chain, from the top rank r down to
    rank 2 (length r - 1)."""

    labels: tuple

    @property
    def r(self) -> int:
        return len(self.labels) + 1

    def level(self, k: int) -> NsIrredLabel:
        if not 2 <= k <= self.r:
            raise ValueError(f"level {k} outside 2..{self.r}")
        return self.labels[self.r - k]

    def __str__(self):
        return " > ".join(str(lbl) for lbl in self.labels)


def _alpha_labels(T: Tableau, U: Tableau) -> list:
    r = T.size
    if r <= 1:
        return []
    lam, mu = T.shape, U.shape
    Tr, Ur = T.restrict(r - 1), U.restrict(r - 1)
    if lam != mu:
        return [NsIrredLabel("pair", (lam, mu))] + _alpha_labels(Tr, Ur)
    if T == U == y_tableau(lam):
        return [NsIrredLabel("eps_plus")] + _alpha_labels(Tr, Ur)
    i, j = T.corner_index_of_max(), U.corner_index_of_max()
    rest = _alpha_labels(Tr, Ur)
    if i < j:
        top = NsIrredLabel("plus", (lam,))
    elif i > j:
        top = NsIrredLabel("minus", (lam,))
    else:
        # same corner: lift the child label, preserving only the sign
        top = NsIrredLabel(
            "minus" if rest[0].kind == "minus" else "plus", (lam,)
        )
    return [top] + rest


def alpha(
    lam: Partition, mu: Partition, T: Tableau, U: Tableau
) -> SeminormalChainLabel:
    """Chain label of the seminormal leaf attached to (T, U)."""
    if T.shape != lam or U.shape != mu:
        raise ValueError("tableau shapes do not match the given shapes")
    if not (lam.is_two_row() and mu.is_two_row()):
        raise ValueError("two-row shapes required")
    return SeminormalChainLabel(tuple(_alpha_labels(T, U)))


def seminormal_table(lam: Partition, mu: Partition, level: int) -> list:
    """|SYT(lam)| x |SYT(mu)| grid of level-k labels, rows indexed by T
    and columns by U in canonical SYT order."""
    Ts, Us = syt_enumerate(lam), syt_enumerate(mu)
    return [
        [alpha(lam, mu, T, U).level(level) for U in Us] for T in Ts
    ]


# ---------------------------------------------------------------------
# multi-level branching paths and isotypic projectors


@lru_cache(maxsize=None)
def _paths(parts: tuple, k: int):
    """All branching paths from the given shape down to size k, as
    (terminal shape, iota, pi) with iota: child coords -> top coords and
    pi its left inverse (both lower coordinates)."""
    lam = Partition(parts)
    m = build_specht(lam)
    if lam.size == k:
        eye = identity(m.dim, R_ONE, R_ZERO)
        return ((lam, eye, eye),)
    out = []
    for child_shape, iota, pi, _ in m.branching:
        for term, ci, cp in _paths(child_shape.parts, k):
            out.append((term, mat_mul(iota, ci), mat_mul(cp, pi)))
    return tuple(out)


def _trace(M):
    t = R_ZERO
    for a in range(len(M)):
        t = t + M[a][a]
    return t


def _level_projectors(tm: TensorModule, k: int) -> dict:
    """Exact isotypic projectors of the rank-k parabolic on the ambient
    tensor module, keyed by rank-k NsIrredLabel; functions on lower (x)
    lower coefficient matrices.  They are idempotent and resolve the
    identity."""
    left = _paths(tm.lam.parts, k)
    right = _paths(tm.mu.parts, k)
    by_l, by_r = {}, {}
    for term, iota, pi in left:
        by_l.setdefault(term, []).append((iota, pi))
    for term, iota, pi in right:
        by_r.setdefault(term, []).append((iota, pi))

    out = {}

    # off-diagonal blocks: full tensor irreducibles, unordered pairs
    pair_blocks = {}
    for nu, lps in by_l.items():
        for rho, rps in by_r.items():
            if nu == rho:
                continue
            key = NsIrredLabel("pair", (nu, rho))
            for li, lp in lps:
                for ri, rp in rps:
                    pair_blocks.setdefault(key, []).append(
                        (mat_mul(li, lp), mat_mul(ri, rp))
                    )
    for key, blocks in pair_blocks.items():
        def proj(c, blocks=blocks):
            acc = None
            for lproj, rproj in blocks:
                term = mat_mul(lproj, mat_mul(c, mat_transpose(rproj)))
                acc = term if acc is None else mat_add(acc, term)
            return acc

        out[key] = proj

    # diagonal blocks: symmetric / wedge / one-dimensional eigenline
    eps_parts = []
    for nu in by_l:
        if nu not in by_r:
            continue
        child = build_specht(nu)
        X, Xi = child.transition, child.transition_inv
        fnu = RationalFn.from_int(child.dim)
        pairs = [
            (li, lp, ri, rp)
            for li, lp in by_l[nu]
            for ri, rp in by_r[nu]
        ]

        def block(c, pairs=pairs):
            acc = None
            for li, lp, ri, rp in pairs:
                d = mat_mul(lp, mat_mul(c, mat_transpose(rp)))
                term = mat_mul(li, mat_mul(d, mat_transpose(ri)))
                acc = term if acc is None else mat_add(acc, term)
            return acc

        def partial_flip(c, pairs=pairs):
            acc = None
            for li, lp, ri, rp in pairs:
                d = mat_mul(lp, mat_mul(c, mat_transpose(rp)))
                term = mat_mul(
                    li, mat_mul(mat_transpose(d), mat_transpose(ri))
                )
                acc = term if acc is None else mat_add(acc, term)
            return acc

        def q_eps(c, pairs=pairs, X=X, Xi=Xi, fnu=fnu):
            acc = None
            for li, lp, ri, rp in pairs:
                d = mat_mul(lp, mat_mul(c, mat_transpose(rp)))
                t = _trace(mat_mul(d, mat_transpose(X))) / fnu
                term = mat_mul(
                    li, mat_mul(mat_scale(Xi, t), mat_transpose(ri))
                )
                acc = term if acc is None else mat_add(acc, term)
            return acc

        if child.dim > 1:
            out[NsIrredLabel("plus", (nu,))] = (
                lambda c, b=block, f=partial_flip, q=q_eps: mat_sub(
                    mat_scale(mat_add(b(c), f(c)), R_HALF), q(c)
                )
            )
            out[NsIrredLabel("minus", (nu,))] = (
                lambda c, b=block, f=partial_flip: mat_scale(
                    mat_sub(b(c), f(c)), R_HALF
                )
            )
        eps_parts.append(q_eps)
    if eps_parts:
        def eps(c, parts=eps_parts):
            acc = None
            for q in parts:
                term = q(c)
                acc = term if acc is None else mat_add(acc, term)
            return acc

        out[NsIrredLabel("eps_plus")] = eps
    return out


# ---------------------------------------------------------------------
# iterated splitting


def _row_basis(vectors, nrows, ncols):
    """Canonical echelon basis of the span of the given coefficient
    matrices; deterministic for fixed input order."""
    flats = [flatten(v) for v in vectors]
    flats = [f for f in flats if any(f)]
    if not flats:
        return []
    rows, _ = rref(flats)
    return [unflatten(row, nrows, ncols) for row in rows]


@dataclass
class SeminormalBasis:
    ambient: TensorModule
    vectors: list  # lower (x) lower coefficient matrices
    chains: list  # SeminormalChainLabel per vector

    @property
    def dim(self):
        return len(self.vectors)

    def chain_index(self, chain: SeminormalChainLabel) -> int:
        return self.chains.index(chain)


def _normalize(c):
    lead = next((x for row in c for x in row if x), None)
    if lead is None:
        raise ValueError("zero vector")
    return [[x / lead for x in row] for row in c]


def seminormal_basis(m) -> SeminormalBasis:
    """Iterated isotypic splitting of an invariant subspace down the
    parabolic chain; every leaf is one-dimensional and is tagged with
    its chain of labels."""
    if isinstance(m, NsSubmodule):
        tm, vectors = m.ambient, [[row[:] for row in c] for c in m.basis]
    elif isinstance(m, TensorModule):
        tm = m
        vectors = []
        for a in range(tm.left.dim):
            for b in range(tm.right.dim):
                c = [[R_ZERO] * tm.right.dim for _ in range(tm.left.dim)]
                c[a][b] = R_ONE
                vectors.append(c)
    else:
        raise TypeError("expected TensorModule or NsSubmodule")
    nrows, ncols = tm.left.dim, tm.right.dim
    start_dim = len(vectors)
    leaves = []

    def descend(space, k, chain):
        if k == 1:
            if len(space) != 1:
                raise MultiplicityError(
                    f"chain {' > '.join(map(str, chain))} ends with "
                    f"dimension {len(space)}"
                )
            leaves.append((SeminormalChainLabel(chain), space[0]))
            return
        projs = _level_projectors(tm, k)
        for label in sorted(projs, key=str):
            images = [projs[label](v) for v in space]
            basis = _row_basis(images, nrows, ncols)
            if basis:
                descend(basis, k - 1, chain + (label,))

    descend(_row_basis(vectors, nrows, ncols), tm.r, ())
    if len(leaves) != start_dim:
        raise MultiplicityError(
            f"{len(leaves)} leaves for a {start_dim}-dimensional space"
        )
    chains = [c for c, _ in leaves]
    vecs = [_normalize(v) for _, v in leaves]
    return SeminormalBasis(tm, vecs, chains)


def chain_membership(basis: SeminormalBasis, idx: int) -> bool:
    """A leaf vector must be fixed by the isotypic projector named by
    its chain at every level."""
    v = basis.vectors[idx]
    chain = basis.chains[idx]
    for k in range(chain.r, 1, -1):
        proj = _level_projectors(basis.ambient, k)[chain.level(k)]
        w = proj(v)
        if any(x != y for rw, rv in zip(w, v) for x, y in zip(rw, rv)):
            return False
    return True


# ---------------------------------------------------------------------
# comparison chain: full tensor square of the Hecke algebra


def hh_chain_basis(tm: TensorModule) -> list:
    """Leaves of the same iterated splitting but along the chain of
    full tensor-square parabolic algebras, whose level-k irreducibles
    are the ordered pairs (nu, rho).  Returns (chain of (nu, rho)
    pairs, normalized vector) per leaf; every leaf vector has a rank-1
    coefficient matrix."""
    nrows, ncols = tm.left.dim, tm.right.dim
    leaves = []

    def projectors(k):
        out = {}
        by_l, by_r = {}, {}
        for term, iota, pi in _paths(tm.lam.parts, k):
            by_l.setdefault(term, []).append(mat_mul(iota, pi))
        for term, iota, pi in _paths(tm.mu.parts, k):
            by_r.setdefault(term, []).append(mat_mul(iota, pi))
        for nu, lprojs in by_l.items():
            for rho, rprojs in by_r.items():
                blocks = [(a, b) for a in lprojs for b in rprojs]

                def proj(c, blocks=blocks):
                    acc = None
                    for a, b in blocks:
                        term = mat_mul(a, mat_mul(c, mat_transpose(b)))
                        acc = term if acc is None else mat_add(acc, term)
                    return acc

                out[(nu, rho)] = proj
        return out

    def descend(space, k, chain):
        if k == 1:
            if len(space) != 1:
                raise MultiplicityError(
                    f"chain {chain} ends in a space of dimension {len(space)}"
                )
            leaves.append((chain, _normalize(space[0])))
            return
        projs = projectors(k)
        for key in sorted(projs, key=str):
            images = [projs[key](v) for v in space]
            basis = _row_basis(images, nrows, ncols)
            if basis:
                descend(basis, k - 1, chain + (key,))

    start = []
    for a in range(nrows):
        for b in range(ncols):
            c = [[R_ZERO] * ncols for _ in range(nrows)]
            c[a][b] = R_ONE
            start.append(c)
    descend(start, tm.r, ())
    return leaves


def matrix_rank_over_field(c) -> int:
    rows, _ = rref([row[:] for row in c])
    return len(rows)
