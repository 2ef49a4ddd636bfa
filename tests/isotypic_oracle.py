"""Test oracles for isotypic components, in lower (x) lower coordinates.

The library builds and cuts its irreducibles in Gelfand-Tsetlin
coordinates, one chain level at a time (seminormal._cut). Before that,
it built the +lam and -lam bases in lower coordinates (`lower_basis`)
and cut each vector one branching step down (`branching_blocks`, then
`nonstandard_pieces` on each child block); that cut is kept here as the
reference. isotypic_split is the isotypic split of a tensor vector
under the rank-k parabolic, for any k, lifted back to the top module.
dense_split iterates it down the chain, as the library's seminormal
descent does in GT coordinates, under nonstandard_pieces or hh_pieces,
the rule of the full tensor-square chain. isotypic_projector reads one
projector of a Specht module's branching. The library keeps its
seminormal leaves in GT coordinates; lower_leaves is their lower (x)
lower view, the one the seminormal digests and the dense oracle print,
and to_gt the way back. lower_split_identities checks the split
identities of a tensor square in lower (x) lower coordinates, with
dense products with X, as the library did before it read them in GT
coordinates (nonstandard.square_split_identities). The library keeps
every tensor vector as a sparse dict {(a, b): entry}; to_dense and
to_sparse carry one to its coefficient matrix and back, and dense_ops
reads the factors of P_i as dense matrices."""

from functools import lru_cache, reduce

from nstl.combinatorics import Partition
from nstl.exact_arith import FOUR, R_HALF, R_ONE, R_ZERO, RationalFn
from nstl.linalg import identity, mat_mul, mat_transpose, rref, zeros
from nstl.nonstandard import NsIrredLabel, TensorModule, epsilon_plus_vector
from nstl.seminormal import _gt_basis
from nstl.specht_modules import build_specht


def flatten(c):
    return [x for row in c for x in row]


def to_dense(v, tm):
    """The coefficient matrix of the sparse tensor vector v of the
    tensor module tm."""
    c = zeros(tm.left.dim, tm.right.dim, R_ZERO)
    for (a, b), x in v.items():
        c[a][b] = x
    return c


def to_sparse(c):
    """The sparse tensor vector {(a, b): entry} of the coefficient
    matrix c, zero entries left out."""
    return {(a, b): x for a, row in enumerate(c) for b, x in enumerate(row) if x}


def dense_ops(tm, i, pair):
    """P_{s_i} on the basis pair as [(A, B), ...], acting by
    c -> sum A c B^T: the factors of SpechtModule.p_factors, each read
    from its sparse columns into a dense matrix."""

    def dense(cols):
        cols = [dict(col) for col in cols]
        return [[col.get(a, R_ZERO) for col in cols] for a in range(len(cols))]

    modules = zip((tm.left, tm.right), pair)
    return list(zip(*([dense(F) for F in m.p_factors(i, b)] for m, b in modules)))


def mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_scale(A, c):
    return [[c * a for a in row] for row in A]


def pairing(c, X):
    """sum_ab c_ab X_ab. With X the transition matrix of the shape this
    is f t(c), t the trace functional: the lower (x) upper coefficients
    of c are c X^T."""
    return sum(
        (a * x for ra, rx in zip(c, X) for a, x in zip(ra, rx) if a and x),
        R_ZERO,
    )


def lower_split_identities(lam) -> str:
    """Oracle for nonstandard.square_split_identities, in lower (x) lower
    coordinates: '' when the identities hold on M_lam (x) M_lam, else
    the first that fails.

    - flip: both factors of each (A, B) in P_i are equal;
    - eps = eps^T and t(eps) = 1, eps = X^-1 (epsilon_plus_vector);
    - P_i eps = 4 eps;
    - t o P_i = 4 t, as one covector identity: t(A c B^T) = <A^T X B,
      c> / f with X the transition matrix, so sum A^T X B = 4 X."""
    tm = TensorModule(lam, lam)
    X, eps = tm.left.transition, to_dense(epsilon_plus_vector(lam), tm)
    if eps != mat_transpose(eps):
        return f"eps of {lam} is not symmetric"
    if pairing(eps, X) != RationalFn.from_int(tm.left.dim):
        return f"t(eps) != 1 on {lam}"
    four_eps, four_X = mat_scale(eps, FOUR), mat_scale(X, FOUR)
    for i in range(1, lam.size):
        ops = dense_ops(tm, i, "ll")
        if any(A != B for A, B in ops):
            return f"P_{i} does not commute with the flip on {lam}"
        if tm.p_apply(to_sparse(eps), i, "ll") != to_sparse(four_eps):
            return f"P_{i} eps != 4 eps on {lam}"
        covector = [mat_mul(mat_transpose(A), mat_mul(X, B)) for A, B in ops]
        if reduce(mat_add, covector) != four_X:
            return f"t P_{i} != 4 t on {lam}"
    return ""


def branching_blocks(lam, mu, c):
    """One branching step down from the lower (x) lower coefficient
    matrix c of M_lam (x) M_mu: (nu, iota_l, rho, iota_r,
    pi_l c pi_r^T) for every child nu of lam and rho of mu, in branching
    order, with iota: child coords -> parent coords and pi its left
    inverse."""
    right = [
        (rho, iota, mat_transpose(pi))
        for rho, iota, pi, _ in build_specht(mu).branching
    ]
    for nu, iota, pi, _ in build_specht(lam).branching:
        left = mat_mul(pi, c)
        for rho, iota_r, piT in right:
            yield nu, iota, rho, iota_r, mat_mul(left, piT)


def nonstandard_pieces(nu, rho, d) -> tuple:
    """Cut the child block d of a (nu, rho) path pair by rank-k
    nonstandard label: the whole block is pair{nu, rho} when nu != rho;
    otherwise the eps+ eigenline e = tr(d X^T)/f eps, with eps = X^-1
    from epsilon_plus_vector, and for f > 1 the symmetric rest
    (d + d^T)/2 - e and the wedge (d - d^T)/2."""
    if nu != rho:
        return ((NsIrredLabel("pair", (nu, rho)), d),)
    child = build_specht(nu)
    t = pairing(d, child.transition) / RationalFn.from_int(child.dim)
    e = mat_scale(to_dense(epsilon_plus_vector(nu), TensorModule(nu, nu)), t)
    if child.dim == 1:
        return ((NsIrredLabel("eps_plus"), e),)
    dt = mat_transpose(d)
    plus = mat_sub(mat_scale(mat_add(d, dt), R_HALF), e)
    return (
        (NsIrredLabel("eps_plus"), e),
        (NsIrredLabel("plus", (nu,)), plus),
        (NsIrredLabel("minus", (nu,)), mat_scale(mat_sub(d, dt), R_HALF)),
    )


def restriction_ranks(lam, mu, vectors) -> dict:
    """{rank-(r-1) label: rank} of the isotypic components of the lower
    (x) lower vectors: each vector's pieces under a label, cut from its
    branching_blocks, are laid end to end and row reduced per label."""
    rows = {}
    for c in vectors:
        cut = {}
        for nu, _, rho, _, d in branching_blocks(lam, mu, c):
            for label, piece in nonstandard_pieces(nu, rho, d):
                cut.setdefault(label, []).extend(flatten(piece))
        for label, row in cut.items():
            if any(row):
                rows.setdefault(label, []).append(row)
    return {label: len(rref(r)[0]) for label, r in rows.items()}


def lower_basis(mod):
    """The basis of the module's label in lower (x) lower coordinates,
    as the library built it before it moved to GT coordinates: the unit
    vectors E_ab of a pair; epsilon_plus_vector for eps+; and for a
    signed label the pieces (nonstandard_pieces) of the E_ab of the
    square under that label, over a < b for -lam and over a <= b
    without E_00 for +lam."""
    label, tm = mod.label, mod.ambient
    if label.kind == "eps_plus":
        return [to_dense(epsilon_plus_vector(tm.lam), tm)]
    units = [to_dense(e, tm) for e in tm.unit_vectors()]
    if label.kind == "pair":
        return units
    f = tm.left.dim
    minus = label.kind == "minus"
    pieces = [
        dict(nonstandard_pieces(tm.lam, tm.lam, units[a * f + b]))[label]
        for a in range(f)
        for b in range(a + minus, f)
    ]
    return pieces if minus else pieces[1:]


def to_lower(C, left, right):
    """The lower (x) lower matrix V_left C V_right^T of a sparse GT
    coordinate vector C, for the GT bases left and right."""
    dense = zeros(len(left.V), len(right.V), R_ZERO)
    for (a, b), x in C.items():
        dense[a][b] = x
    return mat_mul(mat_mul(left.V, dense), mat_transpose(right.V))


def to_gt(c, tm):
    """The sparse GT coordinates Pi_lambda c Pi_mu^T of a lower (x)
    lower coefficient matrix c of the tensor module tm."""
    left, right = _gt_basis(tm.lam.parts), _gt_basis(tm.mu.parts)
    C = mat_mul(mat_mul(left.Pi, c), mat_transpose(right.Pi))
    return {
        (a, b): x for a, row in enumerate(C) for b, x in enumerate(row) if x
    }


def in_lower(tm, vectors):
    """Sparse GT coordinate vectors of the tensor module tm as lower (x)
    lower coefficient matrices."""
    left, right = _gt_basis(tm.lam.parts), _gt_basis(tm.mu.parts)
    return [to_lower(C, left, right) for C in vectors]


def normalize(c):
    """c scaled so its lexicographically-first nonzero coordinate
    (row-major, canonical SYT order) is 1."""
    lead = next(x for row in c for x in row if x)
    return [[x / lead for x in row] for row in c]


def lower_leaves(sb):
    """The leaves of a SeminormalBasis as lower (x) lower coefficient
    matrices, each normalized: a leaf is canonical up to one scalar, and
    this pins the scalar in the coordinates the digests print."""
    return [normalize(c) for c in in_lower(sb.ambient, sb.leaves)]


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
            leaves.append((chain, normalize(v)))
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
