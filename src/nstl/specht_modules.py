"""Specht modules M_lambda with lower and upper canonical bases labeled
by SYT(lambda), exact generator actions, the lower -> upper transition
matrix and its inverse, branching projectors for the restriction to
H_{r-1}, and projected canonical bases.

The lower action is built from the W-graph of the module: the tableau
descent sets and the mu-table. The mu-table is read from the KL table
on a right cell of each canonical basis: a cell of {C'_w} with labels
Q(w)^t and a cell of {C_w} with labels Q(w), which must agree. Action
matrices act on coordinate columns: (C_Q * C_s) has coordinates A[:, Q].

The lower and upper descent sets of a tableau are complements and mu
is symmetric, so the upper action is derived, U_i = L_i^T - [2] I, and
the transition matrix X is the Gram matrix of the contravariant form,
solved from the W-graph by propagation in `_contravariant_form`. The
branching maps are read off the isotypic projectors of the restriction
to H_{r-1}, polynomials in the Jucys-Murphy element J_r. Both results
are checked exactly against every generator. X^-1 is read off the
Gelfand-Tsetlin basis that the maps give (seminormal.GTBasis)."""

from __future__ import annotations

from functools import cached_property, lru_cache

from .combinatorics import (
    Partition,
    Permutation,
    Tableau,
    descent_set,
    rsk,
    rsk_inverse,
    syt_enumerate,
)
from .exact_arith import (
    L_ZERO,
    R_ONE,
    R_ZERO,
    TWO,
    U_INV,
    RationalFn,
    common_denominator,
)
from .hecke_core import kl_table
from .linalg import (
    identity,
    mat_mul,
    mat_transpose,
    rref,
    sparse_columns,
    zeros,
)


def _contravariant_form(actions):
    """The symmetric X with X[0][0] = 1 and L_i^T X = X L_i for every
    generator i, where L_i = actions[i] acts like C'_{s_i} on a W-graph.

    First the W-graph shape of every L_i is checked exactly: with
    D_i = {p : L_i[p][p] = [2]}, column q is [2] e_q for q in D_i, and
    for q outside D_i its nonzero entries lie in the rows D_i. For X
    symmetric, L_i^T X = X L_i says that X L_i is symmetric. Given that
    shape, its entries (p, q) with p in D_i and q outside it read

        [2] X[p][q] = sum_{p' in D_i} L_i[p'][q] X[p][p'],

    and those with p, q both outside D_i follow from these, by
    substituting them into both sides and using the symmetry of X.

    The equations are solved by propagation: an equation with one
    unknown entry left fixes it. The entries are linear forms in
    parameters; the first parameter is X[0][0], and whenever the
    propagation stalls another is put on an unknown entry, diagonal
    ones first. The equations that fixed nothing then form a
    homogeneous system in the parameters; with X[0][0] = 1 added, one
    rref must give it a unique solution, which proves that the
    symmetric intertwiners form a line that does not vanish at X[0][0].
    Over Q(u) every irreducible H_r-module carries such a form, so a
    module with k irreducible summands has at least k dimensions of
    them. Raises ArithmeticError unless the shape is right and the
    solution is unique."""
    n = len(next(iter(actions.values())))
    # an equation sum c X[entry] = 0 is a list of (entry, c), and an
    # entry (a, b) has a <= b
    eqs = []
    for i, L in actions.items():
        desc = [p for p in range(n) if L[p][p] == TWO]
        inside = set(desc)
        for q in range(n):
            col = [(p, L[p][q]) for p in range(n) if L[p][q]]
            if q in inside:
                shaped = col == [(q, TWO)]
            else:
                shaped = all(p in inside for p, _ in col)
            if not shaped:
                raise ArithmeticError(
                    f"column {q} of s_{i} is not of W-graph shape"
                )
            if q in inside:
                continue
            for p in desc:
                eqs.append(
                    [((p, q) if p < q else (q, p), -TWO)]
                    + [((min(p, a), max(p, a)), c) for a, c in col]
                )

    holders = {}
    for e, eq in enumerate(eqs):
        for entry, _ in eq:
            holders.setdefault(entry, []).append(e)
    unknown = [len(eq) for eq in eqs]
    value = {}  # entry -> {parameter: coefficient}
    queue, used, leftover = [], set(), []

    def assign(entry, form):
        value[entry] = form
        for e in holders.get(entry, ()):
            unknown[e] -= 1
            if unknown[e] == 1:
                queue.append(e)
            elif unknown[e] == 0 and e not in used:
                leftover.append(e)

    def combine(terms):
        # most coefficients are mu = 1
        out = {}
        for c, form in terms:
            for k, x in form.items():
                x = x if c.is_one() else c * x
                out[k] = out[k] + x if k in out else x
        return out

    entries = [(a, a) for a in range(n)] + [
        (a, b) for a in range(n) for b in range(a + 1, n)
    ]
    params = 0
    for entry in entries:
        if entry in value:
            continue
        assign(entry, {params: R_ONE})
        params += 1
        while queue:
            e = queue.pop()
            if unknown[e] != 1:
                continue
            used.add(e)
            (target, c0), = [(x, c) for x, c in eqs[e] if x not in value]
            form = combine((c, value[x]) for x, c in eqs[e] if x in value)
            assign(target, {k: -x / c0 for k, x in form.items()})

    rows = []
    for e in leftover:
        form = combine((c, value[x]) for x, c in eqs[e])
        row = [form.get(k, R_ZERO) for k in range(params)] + [R_ZERO]
        if any(row):
            rows.append(row)
    rows.append([R_ONE] + [R_ZERO] * (params - 1) + [R_ONE])
    red, pivots = rref(rows)
    if pivots != list(range(params)):
        raise ArithmeticError(
            "no contravariant form with X[0][0] = 1"
            if params in pivots
            else "the contravariant form with X[0][0] = 1 is not unique"
        )
    t = [row[params] for row in red]
    X = zeros(n, n, R_ZERO)
    for (a, b), form in value.items():
        x = R_ZERO
        for k, c in form.items():
            x = x + c * t[k]
        X[a][b] = X[b][a] = x
    return X


def _laurent_entries(A):
    """The nonzero entries (a, b, A[a][b]) of a RationalFn matrix, each
    as a LaurentPoly."""
    out = []
    for a, row in enumerate(A):
        for b, x in enumerate(row):
            if x:
                p = x.as_laurent()
                if p is None:
                    raise ArithmeticError("action entry is not a Laurent polynomial")
                out.append((a, b, p))
    return out


class SpechtModule:
    """Shape lambda with canonical bases indexed by SYT(lambda)."""

    def __init__(self, shape: Partition):
        self.shape = shape
        self.r = shape.size
        self.basis = syt_enumerate(shape)
        self.index = {t: k for k, t in enumerate(self.basis)}
        self.dim = len(self.basis)
        self.mu_table = self._cell_mu_table()
        self.lower_action = {i: self._wgraph_action(i) for i in range(1, self.r)}
        self.upper_action = {
            i: _shift_diagonal(mat_transpose(L), -TWO)
            for i, L in self.lower_action.items()
        }
        self._p_factors = {}

    # -- construction --------------------------------------------------

    def _cell_mu_table(self):
        """mu between the members of one right cell of each canonical
        basis, keyed by their SYT labels; the two cells must carry the
        same labels and the same mu."""
        r = self.r
        if r <= 1:
            return {}
        table = kl_table(r)

        def cell(P, recording):
            """label q -> the w with RSK pair (P, recording(q)), in the
            order of table.perms, by inverse RSK and a round trip."""
            members = []
            for q in self.basis:
                Q = recording(q)
                w = Permutation(rsk_inverse(P, Q))
                if rsk(w.word) != (P, Q):
                    raise RuntimeError(f"cell labels of {self.shape} are not SYT")
                members.append((q, w))
            members.sort(key=lambda m: (m[1].length(), m[1].word))
            return dict(members)

        # lower cell: {C'_w : P(w) = P0t}, labels Q(w)^t, P0t in SYT(shape^t)
        lower_members = cell(
            syt_enumerate(self.shape.conjugate())[0], Tableau.transpose
        )
        # upper cell: {C_w : P(w) = P0}, labels Q(w)
        upper_members = cell(self.basis[0], lambda q: q)

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
        return mu_table

    def _wgraph_action(self, i: int):
        """C'_{s_i} on the lower basis from the W-graph: column Q is
        [2] e_Q when i is in the lower descent set of Q, and otherwise
        sum mu(Q', Q) e_Q' over the Q' whose descent set holds i."""
        descends = [i in descent_set(q, "lower") for q in self.basis]
        ints = {}
        A = zeros(self.dim, self.dim, R_ZERO)
        for (qp, q), m in self.mu_table.items():
            row, col = self.index[qp], self.index[q]
            if descends[row] and not descends[col]:
                if m not in ints:
                    ints[m] = RationalFn.from_int(m)
                A[row][col] = ints[m]
        for col, d in enumerate(descends):
            if d:
                A[col][col] = TWO
        return A

    # -- actions --------------------------------------------------------

    def mu(self, q1: Tableau, q2: Tableau) -> int:
        return self.mu_table.get((q1, q2), 0)

    def p_factors(self, i: int, basis: str):
        """(C'_{s_i}, C_{s_i}), the factors of P_{s_i} on a tensor
        product, on the lower ("l"), upper ("u") or GT ("g") basis, each
        as its sparse columns (linalg.sparse_columns). The one not given
        by the W-graph differs from the other by [2] on the diagonal,
        since C'_s = C_s + [2] T_e. On the GT basis of
        seminormal._gt_basis, C'_{s_i}'s is the one dense product
        Pi L_i V, and Pi V = I makes C_{s_i}'s exactly Pi L_i V - [2] I.
        Cached on the module."""
        key = (i, basis)
        if key not in self._p_factors:
            if basis == "u":
                U = self.upper_action[i]
                pair = (_shift_diagonal(U, TWO), U)
            elif basis in ("l", "g"):
                L = self.lower_action[i]
                if basis == "g":
                    from .seminormal import _gt_basis

                    gt = _gt_basis(self.shape.parts)
                    L = mat_mul(gt.Pi, mat_mul(L, gt.V))
                pair = (L, _shift_diagonal(L, -TWO))
            else:
                raise ValueError(f"unknown basis {basis!r}")
            self._p_factors[key] = tuple(map(sparse_columns, pair))
        return self._p_factors[key]

    # -- transition lower -> upper --------------------------------------

    @cached_property
    def transition(self):
        """Matrix X with C'_Q = sum_{Q'} X[Q'][Q] C_{Q'}."""
        return self._compute_transition()

    @cached_property
    def transition_inv(self):
        """X^-1 = V diag(E) V^T, read off the GT basis of the shape,
        which checks what makes it exact (seminormal.GTBasis)."""
        from .seminormal import _gt_basis

        gt = _gt_basis(self.shape.parts)
        VE = [[v * e for v, e in zip(row, gt.E)] for row in gt.V]
        return mat_mul(VE, mat_transpose(gt.V))

    def _compute_transition(self):
        """X intertwines: (U_i + [2] I) X = X L_i for every generator,
        since C'_s = C_s + [2] T_e in H_r; normalized by X[0][0] = 1.
        U_i + [2] I = L_i^T, so X is the Gram matrix of the contravariant
        form; it is solved from L alone. The check on X = Y / d takes
        Laurent products and no gcd: Y = Y^T, U_i + [2] I = L_i^T and
        Y L_i symmetric give (U_i + [2] I) Y = L_i^T Y^T = (Y L_i)^T = Y L_i."""
        n = self.dim
        if n == 1 or self.r <= 1:
            return identity(1, R_ONE, R_ZERO)
        X = _contravariant_form(self.lower_action)
        _, nums = common_denominator([x for row in X for x in row])
        Y = [nums[a * n:(a + 1) * n] for a in range(n)]
        symmetric = Y == mat_transpose(Y)
        for i, U in self.upper_action.items():
            L = self.lower_action[i]
            YL = zeros(n, n, L_ZERO)
            for k, b, s in _laurent_entries(L):
                for a in range(n):
                    YL[a][b] = YL[a][b] + Y[a][k] * s
            ok = symmetric and _shift_diagonal(U, TWO) == mat_transpose(L)
            if not (ok and YL == mat_transpose(YL)):
                raise ArithmeticError(f"transition check failed at s_{i}")
        return X

    # -- restriction / branching ---------------------------------------

    @cached_property
    def branching(self):
        """Per corner, west to east: (child shape, iota, pi, projector),
        all in lower coordinates. iota embeds M_child H_{r-1}-
        equivariantly, pi is its left inverse, projector = iota @ pi.

        The maps are read off the isotypic projectors of the restriction.
        The Jucys-Murphy element J = T_{r-1} ... T_1 T_1 ... T_{r-1},
        with T_i = L_i - u^-1 I since C'_s = T_s + u^-1, acts on the
        M_nu-isotypic component as u^{2 (col - row)}, the content of the
        corner (row, col) that nu lacks; these differ between corners
        (G. E. Murphy, J. Algebra 173, 1995). So
        P_nu = prod_{nu' != nu} (J - c_nu') / (c_nu - c_nu') projects
        onto that component. iota is the columns of P_nu at the tableaux
        whose restriction is the child's basis, in its order, and pi is
        the same rows. The theorem only finds them; two exact checks
        prove them: L_i iota = iota L^nu_i for every i <= r - 2, and the
        stacked pi times the stacked iota is I. Then the iotas are a
        basis, each pi is equivariant and sum iota pi = I. Raises
        ArithmeticError unless both hold, so a wrong eigenvalue or a
        wrong column gives no map."""
        n, r = self.dim, self.r
        u_inv = RationalFn(U_INV)
        J = identity(n, R_ONE, R_ZERO)
        for L in self.lower_action.values():
            T = _shift_diagonal(L, -u_inv)
            J = mat_mul(T, mat_mul(J, T))
        contents = [u_inv ** (2 * (row - col)) for row, col in self.shape.corners()]
        shifted = [_shift_diagonal(J, -c) for c in contents]
        position = {q.restrict(r - 1): k for k, q in enumerate(self.basis)}
        out = []
        for ci, c in enumerate(contents):
            child_shape = self.shape.remove_corner(ci)
            child = build_specht(child_shape)
            P, d = identity(n, R_ONE, R_ZERO), R_ONE
            for cj, other in enumerate(contents):
                if cj != ci:
                    P, d = mat_mul(P, shifted[cj]), d * (c - other)
            cols = [position[t] for t in child.basis]
            iota = [[P[a][k] / d for k in cols] for a in range(n)]
            pi = [[x / d for x in P[k]] for k in cols]
            for i in range(1, r - 1):
                if mat_mul(self.lower_action[i], iota) != mat_mul(
                    iota, child.lower_action[i]
                ):
                    raise ArithmeticError(
                        f"embedding of {child_shape} in {self.shape} fails at s_{i}"
                    )
            out.append((child_shape, iota, pi, mat_mul(iota, pi)))
        pis = [row for _, _, pi, _ in out for row in pi]
        iotas = [[x for _, iota, _, _ in out for x in iota[a]] for a in range(n)]
        if mat_mul(pis, iotas) != identity(n, R_ONE, R_ZERO):
            raise ArithmeticError(
                f"the branching maps of {self.shape} are not inverse to each other"
            )
        return out

    def restriction_shape(self, q: Tableau) -> Partition:
        return q.restrict(self.r - 1).shape


def _shift_diagonal(A, c):
    """A + c I."""
    return [
        [x + c if a == b else x for b, x in enumerate(row)]
        for a, row in enumerate(A)
    ]


@lru_cache(maxsize=None)
def _build_specht(parts: tuple) -> SpechtModule:
    return SpechtModule(Partition(parts))


def build_specht(shape: Partition) -> SpechtModule:
    return _build_specht(shape.parts)


def transition_lower_to_upper(shape: Partition):
    return build_specht(shape).transition


def projected_basis(shape: Partition, which: str):
    """Vectors (C~'_Q)^J (lower) or (C~_Q)^J (upper) as coordinate
    columns in the corresponding basis, listed with labels in canonical
    order: column Q of its child's projector P in lower coordinates, and
    column Q of P^T, row Q of P, in upper ones.

    Upper coordinates are X times lower ones, so the upper projector is
    X P X^-1, and that is P^T. X L_i X^-1 = L_i^T, so the upper matrix
    X A(h) X^-1 of any h in H_r is A(iota h)^T, where iota is the
    anti-involution that fixes each C'_s. P is the image A(e) of a
    central idempotent e of H_{r-1}, and iota(e) = e, because the
    invariant form X_nu makes each child module isomorphic to its
    iota-contragredient."""
    if which not in ("lower", "upper"):
        raise ValueError(f"unknown basis {which!r}")
    m = build_specht(shape)
    if m.r <= 1:
        return [(q, [R_ONE]) for q in m.basis]
    projs = {child: proj for child, _, _, proj in m.branching}
    out = []
    for q in m.basis:
        P, j = projs[m.restriction_shape(q)], m.index[q]
        out.append((q, list(P[j]) if which == "upper" else [row[j] for row in P]))
    return out
