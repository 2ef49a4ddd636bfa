"""Seminormal bases for the irreducibles of the rank-2 nonstandard
quotient, taken along the chain of parabolic subalgebras on the
generator sets {P_1}, {P_1, P_2}, ..., and the combinatorial bijection
alpha from pairs of standard tableaux to seminormal chain labels.

A seminormal basis of an invariant subspace of M_lambda (x) M_mu is
obtained by iterated isotypic splitting: at each level k = r, r-1, ...,
2 the space is cut into its exact isotypic components under the rank-k
parabolic, and multiplicity-freeness of the chain makes every terminal
piece one-dimensional.  Vectors are stored as lower (x) lower
coefficient matrices of the ambient tensor module and normalized so the
lexicographically-first nonzero coordinate (row-major, canonical SYT
order) equals 1; the basis is only canonical up to one scalar per
vector, and this normalization pins the scalars for reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass

from .combinatorics import (
    Partition,
    Tableau,
    syt_enumerate,
    y_tableau,
)
from .linalg import rref
from .nonstandard import (
    NsIrredLabel,
    NsSubmodule,
    TensorModule,
    _paths,  # noqa: F401 - the benchmark reads seminormal._paths
    flatten,
    hh_pieces,
    isotypic_split,
    nonstandard_pieces,
    unflatten,
)


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


def _split(tm: TensorModule, vectors, pieces) -> list:
    """Iterated isotypic splitting of the span of `vectors` at levels
    k = r, r-1, ..., 2 under the labeling rule `pieces` (see
    nonstandard.isotypic_split). Returns (chain of labels, normalized
    vector) per leaf and raises MultiplicityError unless every leaf is
    a line."""
    nrows, ncols = tm.left.dim, tm.right.dim
    leaves = []

    def descend(space, k, chain):
        if k == 1:
            if len(space) != 1:
                raise MultiplicityError(
                    f"chain {' > '.join(map(str, chain))} ends with "
                    f"dimension {len(space)}"
                )
            leaves.append((chain, _normalize(space[0])))
            return
        images = {}
        for v in space:
            split = isotypic_split(tm.lam, tm.mu, k, v, pieces)
            for label, comp in split.items():
                images.setdefault(label, []).append(comp)
        for label in sorted(images, key=str):
            basis = _row_basis(images[label], nrows, ncols)
            descend(basis, k - 1, chain + (label,))

    descend(_row_basis(vectors, nrows, ncols), tm.r, ())
    return leaves


def seminormal_basis(m) -> SeminormalBasis:
    """Iterated isotypic splitting of an invariant subspace down the
    parabolic chain; every leaf is one-dimensional and is tagged with
    its chain of labels."""
    if isinstance(m, NsSubmodule):
        tm, vectors = m.ambient, m.basis
    elif isinstance(m, TensorModule):
        tm, vectors = m, m.unit_vectors()
    else:
        raise TypeError("expected TensorModule or NsSubmodule")
    leaves = _split(tm, vectors, nonstandard_pieces)
    if len(leaves) != len(vectors):
        raise MultiplicityError(
            f"{len(leaves)} leaves for a {len(vectors)}-dimensional space"
        )
    chains = [SeminormalChainLabel(c) for c, _ in leaves]
    return SeminormalBasis(tm, [v for _, v in leaves], chains)


def chain_membership(basis: SeminormalBasis, idx: int) -> bool:
    """A leaf vector must be its own isotypic component under the
    label its chain names at every level."""
    v = basis.vectors[idx]
    chain = basis.chains[idx]
    tm = basis.ambient
    for k in range(chain.r, 1, -1):
        split = isotypic_split(tm.lam, tm.mu, k, v, nonstandard_pieces)
        if split.get(chain.level(k)) != v:
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
    return _split(tm, tm.unit_vectors(), hh_pieces)
