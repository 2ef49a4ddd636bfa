"""Test oracles for the branching maps of a Specht module.

The library reads each embedding iota and projection pi off an
isotypic projector, a polynomial in the Jucys-Murphy element. Before
that, it solved for each iota as an intertwiner from a cyclic vector
(`intertwiner`), stacked the iotas and inverted the stack to get the
pis (`stacked_branching`); that route, with the Gauss-Jordan `inverse`,
the `nullspace` and the incremental `SpanBasis` it used, is kept here as
the reference the library is checked against."""

from nstl.exact_arith import R_ONE, R_ZERO
from nstl.linalg import identity, mat_mul, mat_transpose, rref, zeros
from nstl.specht_modules import build_specht


class SpanBasis:
    """Incrementally maintained echelon basis of a span of vectors."""

    def __init__(self):
        self.rows = []  # echelon rows, normalized to leading 1
        self.pivots = []  # pivot column per row, increasing insertion order

    def add(self, v):
        """Reduce v against the basis; absorb if independent. Returns
        True iff the span grew."""
        v = list(v)
        for row, p in zip(self.rows, self.pivots):
            if v[p]:
                f = v[p]
                for j in range(len(v)):
                    if row[j]:
                        v[j] = v[j] - f * row[j]
        p = next((j for j, x in enumerate(v) if x), None)
        if p is None:
            return False
        pv = v[p]
        v = [x / pv for x in v]
        self.rows.append(v)
        self.pivots.append(p)
        return True

    def __len__(self):
        return len(self.rows)


def mat_vec(A, v):
    return [row[0] for row in mat_mul(A, [[x] for x in v])]


def nullspace(M, one, zero):
    """Basis of the right nullspace of M, as column vectors (lists)."""
    if not M:
        return []
    ncols = len(M[0])
    rows, pivots = rref(M)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [zero] * ncols
        v[fc] = one
        for i, pc in enumerate(pivots):
            v[pc] = zero - rows[i][fc]
        basis.append(v)
    return basis


def inverse(A, one, zero):
    n = len(A)
    aug = [list(row) + list(identity(n, one, zero)[i]) for i, row in enumerate(A)]
    rows, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in rows]


def intertwiner(src_actions, dst_actions, gens):
    """The Phi, unique up to a scalar, with dst_i Phi = Phi src_i for
    every generator i in gens; the source module must be irreducible.

    e_0 is then a cyclic vector: breadth-first words
    w_j = src_{i_k} ... src_{i_1} e_0 that grow the span form a basis W,
    and with M_j = dst_{i_k} ... dst_{i_1} an intertwiner satisfies
    Phi w_j = M_j v for v = Phi e_0. Intertwining on that basis is the
    system dst_i M_j v = sum_k (W^-1 src_i w_j)_k M_k v in dim(dst)
    unknowns, whose solutions v correspond one-to-one with intertwiners.
    Raises ArithmeticError unless the solutions form a line, and checks
    Phi = [M_j v] W^-1 exactly against every generator before returning
    it."""
    gens = list(gens)
    n = len(src_actions[gens[0]])
    m = len(dst_actions[gens[0]])
    words = [[R_ONE] + [R_ZERO] * (n - 1)]
    dst_words = [identity(m, R_ONE, R_ZERO)]
    span = SpanBasis()
    span.add(words[0])
    j = 0
    while j < len(words) and len(words) < n:
        for i in gens:
            w = mat_vec(src_actions[i], words[j])
            if span.add(w):
                words.append(w)
                dst_words.append(mat_mul(dst_actions[i], dst_words[j]))
                if len(words) == n:
                    break
        j += 1
    if len(words) != n:
        raise ArithmeticError("e_0 is not cyclic: the source is reducible")
    W_inv = inverse(mat_transpose(words), R_ONE, R_ZERO)

    def equations():
        # word-major order: the equations of one word under all the
        # generators raise the rank much faster than one generator's
        for j, w in enumerate(words):
            for i in gens:
                coords = mat_vec(W_inv, mat_vec(src_actions[i], w))
                block = mat_mul(dst_actions[i], dst_words[j])
                for c, M in zip(coords, dst_words):
                    if c:
                        block = [
                            [x - c * y for x, y in zip(row, row_m)]
                            for row, row_m in zip(block, M)
                        ]
                yield from block

    # The solutions of the whole system lie among those of any prefix,
    # so rows are taken only until the prefix has rank m - 1. Its null
    # line is then the only candidate, and the exact check below accepts
    # it iff the whole system has nullity 1. If the rows run out first,
    # the nullity is at least 2.
    eqs = SpanBasis()
    for row in equations():
        if eqs.add(row) and len(eqs) == m - 1:
            break
    sols = nullspace(eqs.rows or [[R_ZERO] * m], R_ONE, R_ZERO)
    if len(sols) != 1:
        raise ArithmeticError(
            f"intertwiner space has dimension {len(sols)}, not 1"
        )
    images = [mat_vec(M, sols[0]) for M in dst_words]
    phi = mat_mul(mat_transpose(images), W_inv)
    for i in gens:
        if mat_mul(dst_actions[i], phi) != mat_mul(phi, src_actions[i]):
            raise ArithmeticError(f"intertwiner check failed at s_{i}")
    return phi


def stacked_branching(shape):
    """The branching of M_shape by the old route: per corner, west to
    east, iota is the intertwiner from the child over s_1 .. s_{r-2},
    scaled so that its first nonzero entry (row-major) is 1; the iotas
    are stacked side by side and the stack inverted, and pi is the
    child's block of rows. Returns (child shape, iota, pi, iota pi)."""
    m = build_specht(shape)
    n = m.dim
    blocks = []
    for ci in range(len(shape.corners())):
        child_shape = shape.remove_corner(ci)
        child = build_specht(child_shape)
        if m.r <= 2:
            iota = [[R_ONE]]
        else:
            iota = intertwiner(
                child.lower_action, m.lower_action, range(1, m.r - 1)
            )
            lead = next(x for row in iota for x in row if x)
            iota = [[x / lead for x in row] for row in iota]
        blocks.append((child_shape, iota))
    B = zeros(n, n, R_ZERO)
    col = 0
    for _, iota in blocks:
        for a in range(n):
            B[a][col:col + len(iota[0])] = iota[a]
        col += len(iota[0])
    B_inv = inverse(B, R_ONE, R_ZERO)
    out, row = [], 0
    for child_shape, iota in blocks:
        pi = B_inv[row:row + len(iota[0])]
        row += len(pi)
        out.append((child_shape, iota, pi, mat_mul(iota, pi)))
    return out
