"""Test oracles for isotypic components.

isotypic_split is the isotypic split of a tensor vector under the
rank-k parabolic, for any k, lifted back to the top module. The library
cuts only one branching step (nonstandard.branching_blocks); this is the
many-step split it is checked against, here and in the seminormal
tests. dense_split iterates it down the chain, as the library's
seminormal descent does in GT coordinates, under nonstandard_pieces or
hh_pieces, the rule of the full tensor-square chain. isotypic_projector
reads one projector of a Specht module's branching."""

from functools import lru_cache

from nstl.combinatorics import Partition
from nstl.exact_arith import R_ONE, R_ZERO
from nstl.linalg import identity, mat_add, mat_mul, mat_transpose, rref, zeros
from nstl.nonstandard import flatten
from nstl.specht_modules import build_specht


@lru_cache(maxsize=None)
def paths_to(parts, k):
    """All branching paths from the given shape down to size k, as
    (terminal shape, iota, pi) with iota: child coords -> top coords and
    pi its left inverse (both lower coordinates)."""
    lam = Partition(parts)
    m = build_specht(lam)
    if lam.size == k:
        eye = identity(m.dim, R_ONE, R_ZERO)
        return ((lam, eye, eye),)
    return tuple(
        (term, mat_mul(iota, ci), mat_mul(cp, pi))
        for child, iota, pi, _ in m.branching
        for term, ci, cp in paths_to(child.parts, k)
    )


def isotypic_projector(shape, child):
    """Projector (lower coordinates) onto the M_child-isotypic component
    of the restriction of M_shape to H_{r-1}; the zero matrix when child
    is not obtained from shape by removing a corner."""
    m = build_specht(shape)
    for child_shape, _, _, proj in m.branching:
        if child_shape == child:
            return proj
    return zeros(m.dim, m.dim, R_ZERO)


def isotypic_split(lam, mu, k, c, pieces) -> dict:
    """Isotypic components {label: component} of the lower (x) lower
    coefficient matrix c of M_lam (x) M_mu under the rank-k parabolic,
    zero ones omitted: each pair of branching paths to (nu, rho) cuts
    its child block d = pi_l c pi_r^T by the rule `pieces`
    (nonstandard_pieces or hh_pieces), and the nonzero pieces are lifted
    back by iota_l piece iota_r^T and summed per label."""
    right = [
        (rho, mat_transpose(ri), mat_transpose(rp))
        for rho, ri, rp in paths_to(mu.parts, k)
    ]
    out = {}
    for nu, li, lp in paths_to(lam.parts, k):
        lc = mat_mul(lp, c)
        for rho, riT, rpT in right:
            for label, piece in pieces(nu, rho, mat_mul(lc, rpT)):
                if any(x for row in piece for x in row):
                    lift = mat_mul(li, mat_mul(piece, riT))
                    out[label] = mat_add(out[label], lift) if label in out else lift
    return out


def hh_pieces(nu, rho, d) -> tuple:
    """The full tensor-square rule: the block is the (nu, rho) part."""
    return (((nu, rho), d),)


def dense_row_basis(vectors, nrows, ncols):
    flats = [f for f in (flatten(v) for v in vectors) if any(f)]
    if not flats:
        return []
    return [
        [row[a * ncols : (a + 1) * ncols] for a in range(nrows)]
        for row in rref(flats)[0]
    ]


def dense_split(tm, vectors, pieces):
    """Oracle for the GT-coordinate descent: the same iterated splitting
    on dense lower (x) lower coefficient matrices, re-echelonning every
    component at every level with isotypic_split."""
    nrows, ncols = tm.left.dim, tm.right.dim
    leaves = []

    def descend(space, k, chain):
        if k == 1:
            assert len(space) == 1, chain
            (v,) = space
            lead = next(x for row in v for x in row if x)
            leaves.append((chain, [[x / lead for x in row] for row in v]))
            return
        images = {}
        for v in space:
            split = isotypic_split(tm.lam, tm.mu, k, v, pieces)
            for label, comp in split.items():
                images.setdefault(label, []).append(comp)
        for label in sorted(images, key=str):
            basis = dense_row_basis(images[label], nrows, ncols)
            descend(basis, k - 1, chain + (label,))

    descend(dense_row_basis(vectors, nrows, ncols), tm.r, ())
    return leaves
