"""Specht modules M_lambda with lower and upper canonical bases labeled
by SYT(lambda), exact generator actions, the lower -> upper transition
matrix, branching projectors for the restriction to H_{r-1}, projected
canonical bases, and lattice reduction mod u.

Both bases are realized on right cells of the regular module: the lower
basis on a cell of {C'_w} with labels Q(w)^t, the upper basis on a cell
of {C_w} with labels Q(w). Action matrices act on coordinate columns:
(C_Q * C_s) has coordinates A[:, Q].

The transition matrix and the branching embeddings are intertwiners of
irreducible modules, unique up to a scalar because restriction to
H_{r-1} is multiplicity-free. `_intertwiner` solves for one from a
cyclic vector in dim(target) unknowns and checks it exactly."""

from __future__ import annotations

from functools import lru_cache

from .combinatorics import (
    Partition,
    Tableau,
    descent_set,
    syt_enumerate,
)
from .exact_arith import R_ONE, R_ZERO, TWO, RationalFn
from .hecke_core import HeckeElement, kl_table, right_multiply_canonical
from .linalg import (
    SpanBasis,
    identity,
    inverse,
    mat_add,
    mat_mul,
    mat_scale,
    mat_transpose,
    mat_vec,
    nullspace,
    zeros,
)


class PreconditionError(ValueError):
    """A stated precondition of an operation was violated."""


def _intertwiner(src_actions, dst_actions, gens):
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


class SpechtModule:
    """Shape lambda with canonical bases indexed by SYT(lambda)."""

    def __init__(self, shape: Partition):
        self.shape = shape
        self.r = shape.size
        self.basis = syt_enumerate(shape)
        self.index = {t: k for k, t in enumerate(self.basis)}
        self.dim = len(self.basis)
        (
            self.lower_action,
            self.upper_action,
            self.mu_table,
        ) = self._build_from_cells()
        self._transition = None
        self._transition_inv = None
        self._branching = None

    # -- construction --------------------------------------------------

    def _build_from_cells(self):
        r = self.r
        if r <= 1:
            return {}, {}, {}
        table = kl_table(r)
        # lower cell: {C'_w : P(w) = P0t}, labels Q(w)^t, P0t in SYT(shape^t)
        p0t = syt_enumerate(self.shape.conjugate())[0]
        lower_members = {}
        # upper cell: {C_w : P(w) = P0}, labels Q(w)
        p0 = self.basis[0]
        upper_members = {}
        for w, (P, Q) in table.rsk_pairs.items():
            if P == p0t:
                lower_members[Q.transpose()] = w
            if P == p0:
                upper_members[Q] = w
        if not set(lower_members) == set(upper_members) == set(self.index):
            raise RuntimeError(f"cell labels of {self.shape} are not SYT")

        def cell_action(members, tag):
            mats = {}
            label_of = {w: q for q, w in members.items()}
            for i in range(1, r):
                A = zeros(self.dim, self.dim, R_ZERO)
                for q, w in members.items():
                    el = HeckeElement(r, tag, {w: R_ONE})
                    img = right_multiply_canonical(el, i)
                    col = self.index[q]
                    for x, c in img.coords.items():
                        if x in label_of:
                            A[self.index[label_of[x]]][col] = c
                mats[i] = A
            return mats

        lower = cell_action(lower_members, "lower")
        upper = cell_action(upper_members, "upper")

        # mu-table from the upper cell; checked against the lower cell
        mu_table = {}
        for q1, w1 in upper_members.items():
            for q2, w2 in upper_members.items():
                m = table.mu(w1, w2)
                if m:
                    mu_table[(q1, q2)] = m
        for q1, w1 in lower_members.items():
            for q2, w2 in lower_members.items():
                if table.mu(w1, w2) != mu_table.get((q1, q2), 0):
                    raise ArithmeticError(
                        f"mu({q1}, {q2}) differs between the cells"
                    )
        return lower, upper, mu_table

    # -- actions --------------------------------------------------------

    def mu(self, q1: Tableau, q2: Tableau) -> int:
        return self.mu_table.get((q1, q2), 0)

    def action_matrix(self, i: int, basis: str):
        """Matrix of the canonical generator (C'_{s_i} on the lower
        basis, C_{s_i} on the upper, T_{s_i} on standard coordinates in
        the lower basis)."""
        if basis == "lower":
            return self.lower_action[i]
        if basis == "upper":
            return self.upper_action[i]
        if basis == "standard":
            return self.standard_action(i)
        raise ValueError(f"unknown basis {basis!r}")

    def standard_action(self, i: int):
        """T_{s_i} on lower coordinates: C'_{s_i} action minus u^-1."""
        from .exact_arith import U_INV

        A = [row[:] for row in self.lower_action[i]]
        uinv = RationalFn(U_INV)
        for k in range(self.dim):
            A[k][k] = A[k][k] - uinv
        return A

    def formula_action(self, i: int, basis: str):
        """Action rebuilt from tableau descent sets and the mu-table,
        independent of the cell realization."""
        conv = "lower" if basis == "lower" else "upper"
        sign = TWO if basis == "lower" else (R_ZERO - TWO)
        A = zeros(self.dim, self.dim, R_ZERO)
        for q in self.basis:
            col = self.index[q]
            if i in descent_set(q, conv):
                A[col][col] = sign
            else:
                for qp in self.basis:
                    if i in descent_set(qp, conv):
                        m = self.mu(qp, q)
                        if m:
                            A[self.index[qp]][col] = RationalFn.from_int(m)
        return A

    def act(self, coords, i: int, basis: str):
        """Apply the canonical generator to a coordinate vector."""
        return mat_vec(self.action_matrix(i, basis), list(coords))

    # -- transition lower -> upper --------------------------------------

    @property
    def transition(self):
        """Matrix X with C'_Q = sum_{Q'} X[Q'][Q] C_{Q'}."""
        if self._transition is None:
            self._transition = self._compute_transition()
        return self._transition

    @property
    def transition_inv(self):
        if self._transition_inv is None:
            self._transition_inv = inverse(self.transition, R_ONE, R_ZERO)
        return self._transition_inv

    def _compute_transition(self):
        n = self.dim
        if n == 1 or self.r <= 1:
            return identity(1, R_ONE, R_ZERO)
        # X intertwines: (U_i + [2] I) X = X L_i for every generator,
        # since C'_s = C_s + [2] T_e in H_r; normalized by X[0][0] = 1.
        two = mat_scale(identity(n, R_ONE, R_ZERO), TWO)
        shifted = {i: mat_add(U, two) for i, U in self.upper_action.items()}
        X = _intertwiner(self.lower_action, shifted, range(1, self.r))
        pivot = X[0][0]
        if not pivot:
            raise ArithmeticError("transition matrix has zero leading entry")
        return [[x / pivot for x in row] for row in X]

    # -- restriction / branching ---------------------------------------

    @property
    def branching(self):
        """Per corner i: (child shape, iota, pi, projector), all in
        lower coordinates. iota embeds M_{lambda - a_i} H_{r-1}-
        equivariantly, pi is its left inverse, projector = iota @ pi."""
        if self._branching is None:
            self._branching = self._compute_branching()
        return self._branching

    def _compute_branching(self):
        corners = self.shape.corners()
        out = []
        blocks = []
        for ci in range(len(corners)):
            child_shape = self.shape.remove_corner(ci)
            child = build_specht(child_shape)
            iota = self._solve_embedding(child)
            blocks.append((child_shape, child, iota))
        # stack embeddings and invert to get the projections
        n = self.dim
        B = zeros(n, n, R_ZERO)
        col = 0
        offsets = []
        for child_shape, child, iota in blocks:
            offsets.append(col)
            for j in range(child.dim):
                for a in range(n):
                    B[a][col + j] = iota[a][j]
            col += child.dim
        if col != n:
            raise ArithmeticError(
                f"restriction of {self.shape} has dimension {col}, not {n}"
            )
        Binv = inverse(B, R_ONE, R_ZERO)
        for k, (child_shape, child, iota) in enumerate(blocks):
            off = offsets[k]
            pi = [Binv[off + j][:] for j in range(child.dim)]
            proj = mat_mul(iota, pi)
            out.append((child_shape, iota, pi, proj))
        return out

    def _solve_embedding(self, child: "SpechtModule"):
        """The embedding iota with L_i iota = iota L'_i over the
        parabolic generators s_1 .. s_{r-2}, normalized so that its
        first nonzero entry (row-major) is 1."""
        n, m = self.dim, child.dim
        if self.r - 1 <= 1:
            return [[R_ONE] for _ in range(n)] if m == 1 and n == 1 else None
        iota = _intertwiner(
            child.lower_action, self.lower_action, range(1, self.r - 1)
        )
        lead = next(x for row in iota for x in row if x)
        return [[x / lead for x in row] for row in iota]

    def restriction_shape(self, q: Tableau) -> Partition:
        return q.restrict(self.r - 1).shape


@lru_cache(maxsize=None)
def _build_specht(parts: tuple) -> SpechtModule:
    return SpechtModule(Partition(parts))


def build_specht(shape: Partition) -> SpechtModule:
    return _build_specht(shape.parts)


def act(module: SpechtModule, coords, i: int, basis: str):
    return module.act(coords, i, basis)


def transition_lower_to_upper(shape: Partition):
    return build_specht(shape).transition


def isotypic_projector(shape: Partition, child: Partition):
    """Projector (lower coordinates) onto the M_child-isotypic component
    of the restriction to H_{r-1}; the zero matrix when child is not
    obtained from shape by removing a corner."""
    m = build_specht(shape)
    for child_shape, _, _, proj in m.branching:
        if child_shape == child:
            return proj
    return zeros(m.dim, m.dim, R_ZERO)


def projected_basis(shape: Partition, which: str):
    """Vectors (C~'_Q)^J (lower) or (C~_Q)^J (upper) as coordinate
    columns in the corresponding basis, listed with labels in canonical
    order."""
    m = build_specht(shape)
    if m.r <= 1:
        return [(q, [R_ONE]) for q in m.basis]
    out = []
    for q in m.basis:
        proj = isotypic_projector(shape, m.restriction_shape(q))
        if which == "upper":
            # upper coords = X @ lower coords, so conjugate by X
            proj = mat_mul(m.transition, mat_mul(proj, m.transition_inv))
        elif which != "lower":
            raise ValueError(f"unknown basis {which!r}")
        e = [R_ZERO] * m.dim
        e[m.index[q]] = R_ONE
        out.append((q, mat_vec(proj, e)))
    return out


class Lattice:
    """The K0-lattice L_lambda spanned by either canonical basis."""

    def __init__(self, shape: Partition):
        self.shape = shape
        self.module = build_specht(shape)

    def contains(self, coords, basis: str = "lower") -> bool:
        coords = list(coords)
        if basis == "upper":
            coords = mat_vec(self.module.transition_inv, coords)
        elif basis != "lower":
            raise ValueError(f"unknown basis {basis!r}")
        return all(RationalFn._coerce(c).val0() >= 0 for c in coords)


def lattice_reduce(shape: Partition, coords) -> dict:
    """Coordinates of x mod u L in the projected lower basis, evaluated
    at u = 0. Requires all lower coordinates in K0."""
    m = build_specht(shape)
    coords = [RationalFn._coerce(c) for c in coords]
    if any(c.val0() < 0 for c in coords):
        raise PreconditionError(
            "lattice_reduce requires all lower coordinates in K0"
        )
    cols = projected_basis(shape, "lower")
    M = [[cols[j][1][a] for j in range(m.dim)] for a in range(m.dim)]
    a_vec = mat_vec(inverse(M, R_ONE, R_ZERO), coords)
    out = {}
    for (q, _), val in zip(cols, a_vec):
        if val.val0() < 0:
            raise PreconditionError(
                "projected-basis coordinate escapes K0"
            )
        v = val.specialize(0)
        if v:
            out[q] = v
    return out


def specialize_matrix(M, u0):
    return [[RationalFn._coerce(x).specialize(u0) for x in row] for row in M]
