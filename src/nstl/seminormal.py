"""Seminormal bases for the irreducibles of the rank-2 nonstandard
quotient, taken along the chain of parabolic subalgebras on the
generator sets {P_1}, {P_1, P_2}, ..., the combinatorial bijection
alpha from pairs of standard tableaux to seminormal chain labels, and
the Gelfand-Tsetlin coordinates the irreducibles are certified in.

A seminormal basis of an invariant subspace of M_lambda (x) M_mu is
obtained by iterated isotypic splitting: at each level k = r, r-1, ...,
2 the space is cut into its exact isotypic components under the rank-k
parabolic, and multiplicity-freeness of the chain makes every terminal
piece one-dimensional.

The descent runs in Gelfand-Tsetlin coordinates: each factor's Young
seminormal basis V (the embeddings of its branching paths down to size
1, with inverse Pi), so a vector is a sparse dict {(T, U): entry} over
pairs of paths and c = V_lambda C V_mu^T is its lower (x) lower
coefficient matrix (P_i acts by TensorModule.p_apply on the pair
"gg"). At level k the (T, U) coordinates whose paths share their first
r - k steps form one child block, cut in closed form
(`_nonstandard_pieces`) one level at a time by `_cut`, the one cut of
the library; `_isotypic` splits a span with it, row reducing each
component on its support, for the descent and the certificate alike.
A leaf stays the sparse GT vector the descent ends with, its scalar
pinned by that row reduction; its lower (x) lower matrix
V_lambda C V_mu^T is a view the tests form. A submodule basis enters
as it is.
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
from .linalg import identity, mat_mul, mat_transpose, rref
from .nonstandard import NsIrredLabel, NsSubmodule, TensorModule
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


@lru_cache(maxsize=None)
def _alpha_labels(T: Tableau, U: Tableau) -> tuple:
    """The chain labels of (T, U), top rank first, cached per pair."""
    r = T.size
    if r <= 1:
        return ()
    lam, mu = T.shape, U.shape
    Tr, Ur = T.restrict(r - 1), U.restrict(r - 1)
    if lam != mu:
        return (NsIrredLabel("pair", (lam, mu)),) + _alpha_labels(Tr, Ur)
    if T == U == y_tableau(lam):
        return (NsIrredLabel("eps_plus"),) + _alpha_labels(Tr, Ur)
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
    return (top,) + rest


def alpha(
    lam: Partition, mu: Partition, T: Tableau, U: Tableau
) -> SeminormalChainLabel:
    """Chain label of the seminormal leaf attached to (T, U)."""
    if T.shape != lam or U.shape != mu:
        raise ValueError("tableau shapes do not match the given shapes")
    if not (lam.is_two_row() and mu.is_two_row()):
        raise ValueError("two-row shapes required")
    return SeminormalChainLabel(_alpha_labels(T, U))


def seminormal_table(lam: Partition, mu: Partition, level: int) -> list:
    """|SYT(lam)| x |SYT(mu)| grid of level-k labels, rows indexed by T
    and columns by U in canonical SYT order."""
    Ts, Us = syt_enumerate(lam), syt_enumerate(mu)
    return [
        [alpha(lam, mu, T, U).level(level) for U in Us] for T in Ts
    ]


# ---------------------------------------------------------------------
# Gelfand-Tsetlin coordinates


@dataclass(frozen=True)
class GTBasis:
    """Young's seminormal (Gelfand-Tsetlin) basis of one Specht module.

    Column a of V is the embedding iota of the a-th branching path of
    `_paths(parts)` in lower coordinates and row a of Pi is its pi,
    so Pi V = I; `seqs[a]` lists that path's shapes from the top shape
    down to size 1. With X the lower -> upper transition matrix,
    g = diag(V^T X V), that matrix being diagonal, and E = 1/g. V is
    square, so Pi V = I gives V Pi = I, and then X = Pi^T diag(g) Pi
    has the inverse X^-1 = V diag(E) V^T (SpechtModule.transition_inv).
    No g_a is 0, as X is invertible. Every field is a tuple."""

    V: tuple
    Pi: tuple
    seqs: tuple
    g: tuple
    E: tuple


@lru_cache(maxsize=None)
def _paths(parts: tuple) -> tuple:
    """All branching paths from the given shape down to size 1, as
    (iota, pi, seq) with iota: path coords -> top coords, pi its left
    inverse (both lower coordinates) and seq the path's shapes from the
    given shape down to size 1, in branching order."""
    lam = Partition(parts)
    if lam.size == 1:
        return (([[R_ONE]], [[R_ONE]], (lam,)),)
    return tuple(
        (mat_mul(iota, ci), mat_mul(cp, pi), (lam,) + seq)
        for child, iota, pi, _ in build_specht(lam).branching
        for ci, cp, seq in _paths(child.parts)
    )


@lru_cache(maxsize=None)
def _gt_basis(parts: tuple) -> GTBasis:
    """The GT basis of shape `parts`, checked as it is built: raises
    ArithmeticError unless Pi V = I and V^T X V is diagonal."""
    lam = Partition(parts)
    m = build_specht(lam)
    paths = _paths(parts)
    V = [[iota[i][0] for iota, _, _ in paths] for i in range(m.dim)]
    Pi = [pi[0] for _, pi, _ in paths]
    G = mat_mul(mat_transpose(V), mat_mul(m.transition, V))
    if mat_mul(Pi, V) != identity(m.dim, R_ONE, R_ZERO):
        raise ArithmeticError(f"GT basis of {lam}: Pi V is not the identity")
    if any(x for a, row in enumerate(G) for b, x in enumerate(row) if a != b):
        raise ArithmeticError(f"GT basis of {lam}: the form is not diagonal")
    g = tuple(G[a][a] for a in range(m.dim))
    return GTBasis(
        V=tuple(map(tuple, V)),
        Pi=tuple(map(tuple, Pi)),
        seqs=tuple(seq for _, _, seq in paths),
        g=g,
        E=tuple(R_ONE / x for x in g),
    )


def _nonstandard_pieces(nu: Partition, rho: Partition, D) -> tuple:
    """The cut of a child block D of a (nu, rho) path pair by rank-k
    nonstandard label, D given in GT coordinates as {(s, t): entry}:
    pair{nu, rho} when nu != rho; otherwise the eps+ line
    (sum_s D_ss g_s / f) E on the diagonal, and for f > 1 the symmetric
    rest (D + D^T)/2 - eps+ and the wedge (D - D^T)/2. Zero entries and
    empty pieces are left out."""
    if nu != rho:
        return ((NsIrredLabel("pair", (nu, rho)), D),)
    gt = _gt_basis(nu.parts)
    f = len(gt.g)
    tr = sum(
        (x * gt.g[s] for (s, s2), x in D.items() if s == s2), R_ZERO
    ) / RationalFn.from_int(f)
    eps = {(s, s): tr * e for s, e in enumerate(gt.E)} if tr else {}
    out = [(NsIrredLabel("eps_plus"), eps)]
    if f > 1:
        plus, minus = {}, {}
        for s, t in set(D) | {(t, s) for s, t in D} | set(eps):
            x, y = D.get((s, t), R_ZERO), D.get((t, s), R_ZERO)
            p = (x + y) * R_HALF
            if (s, t) in eps:
                p = p - eps[s, t]
            if p:
                plus[s, t] = p
            if x != y:
                minus[s, t] = (x - y) * R_HALF
        out += [
            (NsIrredLabel("plus", (nu,)), plus),
            (NsIrredLabel("minus", (nu,)), minus),
        ]
    return tuple((label, piece) for label, piece in out if piece)


def _level(tm: TensorModule, k: int) -> tuple:
    """Level k of the chain on both factors of tm: per factor, for each
    GT index a, (the branching path to size k that a's path starts with,
    a's index in the GT basis of its shape at size k), and the GT indices
    of each such path, listed by that index."""
    out = []
    for lam in (tm.lam, tm.mu):
        seqs = _gt_basis(lam.parts).seqs
        cut = len(seqs[0]) - k + 1
        where, members = [], {}
        for a, seq in enumerate(seqs):
            group = members.setdefault(seq[:cut], [])
            where.append((seq[:cut], len(group)))
            group.append(a)
        out.append((where, members))
    return tuple(out)


def _cut(v, level) -> dict:
    """{label: component} of the sparse GT vector v at one level of the
    chain (`_level`): the (a, b) coordinate lies in the child block of
    the pair of branching paths that a and b start with, and
    _nonstandard_pieces cuts each block by label. Empty components are
    left out, and the components sum to v."""
    (lwhere, lmembers), (rwhere, rmembers) = level
    blocks = {}
    for (a, b), x in v.items():
        (p, s), (q, t) = lwhere[a], rwhere[b]
        blocks.setdefault((p, q), {})[s, t] = x
    out = {}
    for (p, q), D in blocks.items():
        la, rb = lmembers[p], rmembers[q]
        for label, piece in _nonstandard_pieces(p[-1], q[-1], D):
            comp = out.setdefault(label, {})
            for (s, t), x in piece.items():
                comp[la[s], rb[t]] = x
    return out


def _echelon(vectors) -> list:
    """Canonical echelon basis of the span of sparse vectors, row
    reduced on the columns where some vector is nonzero."""
    cols = sorted(set().union(*vectors))
    rows, _ = rref([[v.get(c, R_ZERO) for c in cols] for v in vectors])
    return [{c: x for c, x in zip(cols, row) if x} for row in rows]


def _isotypic(vectors, level) -> dict:
    """{label: canonical echelon basis of the label's isotypic
    component} of the span of the sparse GT vectors at one level of the
    chain: the _cut pieces of every vector, grouped by label in the
    order they first appear, each group row reduced by _echelon."""
    images = {}
    for v in vectors:
        for label, comp in _cut(v, level).items():
            images.setdefault(label, []).append(comp)
    return {label: _echelon(comps) for label, comps in images.items()}


@dataclass
class SeminormalBasis:
    """Seminormal leaves as sparse GT vectors C = {(a, b): entry} (lower
    (x) lower matrix V_lambda C V_mu^T), each with its chain."""

    ambient: TensorModule
    leaves: list  # sparse GT coordinate vectors
    chains: list  # SeminormalChainLabel per leaf

    @property
    def dim(self):
        return len(self.leaves)


def _split(tm: TensorModule, space) -> list:
    """Iterated isotypic splitting of the span of `space` (sparse GT
    coordinate vectors {(a, b): entry}) at levels k = r, r-1, ..., 2,
    each level one _isotypic split. Returns (chain of labels, sparse GT vector) per
    leaf and raises MultiplicityError unless every leaf is a line."""
    levels = {k: _level(tm, k) for k in range(2, tm.r + 1)}
    leaves = []

    def descend(space, k, chain):
        if k == 1:
            if len(space) != 1:
                raise MultiplicityError(
                    f"chain {' > '.join(map(str, chain))} ends with "
                    f"dimension {len(space)}"
                )
            leaves.append((chain, space[0]))
            return
        split = _isotypic(space, levels[k])
        for label in sorted(split, key=str):
            descend(split[label], k - 1, chain + (label,))

    descend(_echelon(space), tm.r, ())
    return leaves


def seminormal_basis(m) -> SeminormalBasis:
    """Iterated isotypic splitting of an invariant subspace down the
    parabolic chain; every leaf is one-dimensional and is tagged with
    its chain of labels."""
    if isinstance(m, NsSubmodule):
        tm, space = m.ambient, m.basis
    elif isinstance(m, TensorModule):
        tm, space = m, m.unit_vectors()
    else:
        raise TypeError("expected TensorModule or NsSubmodule")
    leaves = _split(tm, space)
    if len(leaves) != len(space):
        raise MultiplicityError(
            f"{len(leaves)} leaves for a {len(space)}-dimensional space"
        )
    chains = [SeminormalChainLabel(c) for c, _ in leaves]
    return SeminormalBasis(tm, [v for _, v in leaves], chains)


def chain_membership(basis: SeminormalBasis, idx: int) -> bool:
    """A nonzero leaf must be its own isotypic component under the label
    its chain names at every level k: the _cut of level k finds the
    stored GT leaf under that label and no other (the pieces of distinct
    child pairs and labels are independent). _gt_basis proves Pi V = I,
    so Pi (V C V^T / l) Pi^T = C / l exactly, and the cut is linear: a
    leaf has the same labels in lower (x) lower coordinates."""
    tm = basis.ambient
    v, chain = basis.leaves[idx], basis.chains[idx]
    return bool(v) and all(
        set(_cut(v, _level(tm, k))) == {chain.level(k)}
        for k in range(tm.r, 1, -1)
    )
