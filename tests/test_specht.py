import os

import pytest

from nstl import combinatorics, seminormal, specht_modules
from nstl.combinatorics import Partition, partitions_of, rsk, syt_count, syt_enumerate
from nstl.exact_arith import R_ONE, R_ZERO, TWO, U_INV, RationalFn
from nstl.hecke_core import kl_table
from nstl.linalg import identity, mat_mul, mat_transpose, zeros
from nstl.specht_modules import (
    SpechtModule,
    _contravariant_form,
    _shift_diagonal,
    build_specht,
    projected_basis,
    transition_lower_to_upper,
)

from hecke_oracle import right_multiply_canonical
from isotypic_oracle import isotypic_projector, mat_add
from specht_oracle import intertwiner, inverse, nullspace, stacked_branching

HEAVY = os.environ.get("NSTL_HEAVY") == "1"


def shapes_up_to(n, lo=2):
    return [lam for r in range(lo, n + 1) for lam in partitions_of(r)]


def wide_shapes_up_to(n):
    """The shapes of rank <= n with more than one tableau."""
    return [lam for lam in shapes_up_to(n) if syt_count(lam) > 1]


def mats_equal(A, B):
    return all(a == b for ra, rb in zip(A, B) for a, b in zip(ra, rb))


def kronecker_intertwiner(src, dst, gens):
    """Oracle for the intertwiner solve: Phi with dst_i Phi = Phi src_i,
    from the dense system in all dim(dst) * dim(src) entries of Phi."""
    n, m = len(src[gens[0]]), len(dst[gens[0]])
    rows = []
    for i in gens:
        for a in range(m):
            for b in range(n):
                row = [R_ZERO] * (m * n)
                for k in range(m):
                    row[k * n + b] = row[k * n + b] + dst[i][a][k]
                for k in range(n):
                    row[a * n + k] = row[a * n + k] - src[i][k][b]
                rows.append(row)
    sols = nullspace(rows, R_ONE, R_ZERO)
    assert len(sols) == 1
    return [[sols[0][a * n + b] for b in range(n)] for a in range(m)]


def shifted_upper(m):
    """U_i + [2] I, the upper action of C'_{s_i}."""
    return {
        i: [
            [x + TWO if a == b else x for b, x in enumerate(row)]
            for a, row in enumerate(U)
        ]
        for i, U in m.upper_action.items()
    }


def cell_realization(lam):
    """Oracle for the W-graph actions: right multiplication in H_r by
    C'_{s_i} on the lower cell {C'_w : P(w) = P0^t} (labels Q(w)^t) and
    by C_{s_i} on the upper cell {C_w : P(w) = P0} (labels Q(w)), as
    (lower, upper) dicts of matrices on coordinate columns."""
    r = lam.size
    table = kl_table(r)
    m = build_specht(lam)
    p0t = syt_enumerate(lam.conjugate())[0]
    members = {"lower": {}, "upper": {}}
    for w in table.perms:
        P, Q = rsk(w.word)
        if P == p0t:
            members["lower"][Q.transpose()] = w
        if P == m.basis[0]:
            members["upper"][Q] = w
    actions = []
    for tag, cell in members.items():
        label_of = {w: q for q, w in cell.items()}
        mats = {}
        for i in range(1, r):
            A = zeros(m.dim, m.dim, R_ZERO)
            for q, w in cell.items():
                img = right_multiply_canonical({w: R_ONE}, i, tag)
                for x, c in img.items():
                    if x in label_of:
                        A[m.index[label_of[x]]][m.index[q]] = c
            mats[i] = A
        actions.append(mats)
    return tuple(actions)


def complementary_wgraph(m):
    """M_i = [2] I - L_i^T, entry by entry."""
    n = m.dim
    return {
        i: [
            [(TWO if a == b else R_ZERO) - L[b][a] for b in range(n)]
            for a in range(n)
        ]
        for i, L in m.lower_action.items()
    }


def block_diagonal(A, B):
    return [row + [R_ZERO] * len(B) for row in A] + [
        [R_ZERO] * len(A) + row for row in B
    ]


class TestConstruction:
    @pytest.mark.parametrize("lam", shapes_up_to(5), ids=str)
    def test_dimension(self, lam):
        m = build_specht(lam)
        assert m.dim == syt_count(lam)
        assert len(m.lower_action) == lam.size - 1

    def test_trivial_shapes(self):
        m = build_specht(Partition([1]))
        assert m.dim == 1 and m.lower_action == {}

    @pytest.mark.parametrize("lam", shapes_up_to(5), ids=str)
    def test_quadratic_relation(self, lam):
        m = build_specht(lam)
        for i, A in m.lower_action.items():
            assert mats_equal(mat_mul(A, A), [[TWO * x for x in r] for r in A])
        for i, A in m.upper_action.items():
            assert mats_equal(
                mat_mul(A, A), [[(R_ZERO - TWO) * x for x in r] for r in A]
            )

    @pytest.mark.parametrize("lam", shapes_up_to(5), ids=str)
    def test_braid_and_commuting_relations(self, lam):
        m = build_specht(lam)
        r = lam.size
        # T_{s_i} = C'_{s_i} - u^-1
        uinv = RationalFn(U_INV)
        T = {i: _shift_diagonal(L, -uinv) for i, L in m.lower_action.items()}
        for i in range(1, r - 1):
            lhs = mat_mul(T[i], mat_mul(T[i + 1], T[i]))
            rhs = mat_mul(T[i + 1], mat_mul(T[i], T[i + 1]))
            assert mats_equal(lhs, rhs)
        for i in range(1, r):
            for j in range(i + 2, r):
                assert mats_equal(
                    mat_mul(T[i], T[j]), mat_mul(T[j], T[i])
                )

    @pytest.mark.parametrize("lam", shapes_up_to(6), ids=str)
    def test_formula_matches_cells(self, lam):
        m = build_specht(lam)
        lower, upper = cell_realization(lam)
        assert lower == m.lower_action
        assert upper == m.upper_action

    @pytest.mark.parametrize("lam", shapes_up_to(5), ids=str)
    def test_mu_table_symmetric_positive(self, lam):
        m = build_specht(lam)
        for (q1, q2), v in m.mu_table.items():
            assert v > 0
            assert m.mu(q2, q1) == v


class TestTemperleyLieb:
    @pytest.mark.parametrize("lam", shapes_up_to(6, lo=3), ids=str)
    @pytest.mark.parametrize("which", ["lower", "upper"])
    def test_relation_holds_exactly_on_two_row_shapes(self, lam, which):
        # C_s C_t C_s - C_s = C_{sts} for adjacent s, t; C_{sts} spans the
        # ideal of the C_w with P(w) of three rows or more, so the upper
        # action factors through the rank-2 quotient TL_r exactly when lam
        # has at most two rows (the lower one: at most two columns)
        m = build_specht(lam)
        act = m.lower_action if which == "lower" else m.upper_action
        holds = all(
            mats_equal(mat_mul(act[i], mat_mul(act[j], act[i])), act[i])
            for i in act
            for j in (i - 1, i + 1)
            if j in act
        )
        rows = lam.conjugate() if which == "lower" else lam
        assert holds == (rows.length <= 2)


@pytest.fixture
def fresh_modules():
    """Fresh Specht modules, GT bases, descent sets and chain labels: a
    test that counts or patches what they compute starts and ends with
    empty caches."""
    caches = (
        specht_modules._build_specht,
        seminormal._gt_basis,
        seminormal._paths,
        seminormal._alpha_labels,
        combinatorics.descent_set,
    )
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


class TestTransition:
    @pytest.mark.parametrize("lam", shapes_up_to(6), ids=str)
    def test_intertwines(self, lam):
        m = build_specht(lam)
        X = m.transition
        for i, Uc in shifted_upper(m).items():
            assert mats_equal(mat_mul(Uc, X), mat_mul(X, m.lower_action[i]))

    @pytest.mark.parametrize("lam", shapes_up_to(6), ids=str)
    def test_identity_at_zero_and_infinity(self, lam):
        m = build_specht(lam)
        X = m.transition
        for a in range(m.dim):
            for b in range(m.dim):
                x = X[a][b] - (R_ONE if a == b else R_ZERO)
                if x:
                    assert x.val0() >= 1
                    assert x.val_inf() >= 1

    @pytest.mark.parametrize("lam", shapes_up_to(5), ids=str)
    def test_inverse_stays_in_both_lattices(self, lam):
        # K0 Gamma' = K0 Gamma needs X and X^-1 with entries in K0
        # (and likewise at infinity)
        m = build_specht(lam)
        for M in (m.transition, m.transition_inv):
            for row in M:
                for x in row:
                    assert x.val0() >= 0 and x.val_inf() >= 0

    def test_21_explicit(self):
        X = transition_lower_to_upper(Partition([2, 1]))
        assert X[0][0] == R_ONE and X[1][1] == R_ONE

    @pytest.mark.parametrize("lam", shapes_up_to(5), ids=str)
    def test_matches_kronecker_solve(self, lam):
        m = build_specht(lam)
        X = kronecker_intertwiner(
            m.lower_action, shifted_upper(m), list(range(1, lam.size))
        )
        assert [[x / X[0][0] for x in row] for row in X] == m.transition

    @pytest.mark.parametrize("shape", [[2, 1], [3, 2], [3, 2, 1]], ids=str)
    def test_perturbed_action_raises(self, shape):
        # a fresh module, so the cached one keeps its true action
        m = SpechtModule(Partition(shape))
        U = m.upper_action[m.r - 1]
        U[0][m.dim - 1] = U[0][m.dim - 1] + R_ONE
        with pytest.raises(ArithmeticError, match=f"check failed at s_{m.r - 1}"):
            m._compute_transition()

    @pytest.mark.parametrize("sides", ["one side", "both sides"])
    @pytest.mark.parametrize("shape", [[2, 1], [3, 2], [3, 2, 1]], ids=str)
    def test_perturbed_form_raises(self, monkeypatch, shape, sides):
        # X[0][1] + 1 alone leaves Y asymmetric; with X[1][0] + 1 too, Y
        # is symmetric but Y L_i is not for some i
        real = specht_modules._contravariant_form

        def perturbed(actions):
            X = real(actions)
            X[0][1] = X[0][1] + R_ONE
            if sides == "both sides":
                X[1][0] = X[1][0] + R_ONE
            return X

        monkeypatch.setattr(specht_modules, "_contravariant_form", perturbed)
        with pytest.raises(ArithmeticError, match="transition check failed at s_"):
            SpechtModule(Partition(shape))._compute_transition()

    @pytest.mark.parametrize("lam", partitions_of(6), ids=str)
    def test_matches_cyclic_vector_solve(self, lam):
        m = build_specht(lam)
        X = intertwiner(m.lower_action, shifted_upper(m), range(1, lam.size))
        assert [[x / X[0][0] for x in row] for row in X] == m.transition

    @pytest.mark.parametrize("lam", shapes_up_to(6), ids=str)
    def test_symmetric(self, lam):
        X = build_specht(lam).transition
        assert X == mat_transpose(X)

    @pytest.mark.parametrize("shape", [[2, 1], [3, 2], [3, 1, 1]], ids=str)
    def test_reducible_module_raises(self, shape):
        # M + M carries a 3-dimensional space of contravariant forms
        m = SpechtModule(Partition(shape))
        for action in (m.lower_action, m.upper_action):
            for i, A in action.items():
                action[i] = block_diagonal(A, A)
        m.dim *= 2
        with pytest.raises(ArithmeticError, match="not unique"):
            m._compute_transition()

    @pytest.mark.parametrize("shape", [[3, 2], [3, 1, 1], [3, 2, 1]], ids=str)
    def test_column_outside_wgraph_shape_raises(self, shape):
        # an entry linking two basis vectors that both lack descent i
        m = SpechtModule(Partition(shape))
        i = m.r - 1
        L = m.lower_action[i]
        outside = [p for p in range(m.dim) if L[p][p] != TWO]
        assert len(outside) >= 2
        L[outside[0]][outside[1]] = R_ONE
        with pytest.raises(ArithmeticError, match="W-graph shape"):
            m._compute_transition()

    @pytest.mark.parametrize(
        "lam",
        shapes_up_to(5, lo=1) + (partitions_of(6) if HEAVY else []),
        ids=str,
    )
    def test_inverse_matches_gauss_jordan(self, lam):
        m = build_specht(lam)
        assert m.transition_inv == inverse(m.transition, R_ONE, R_ZERO)

    @pytest.mark.parametrize("lam", shapes_up_to(5, lo=1), ids=str)
    def test_inverse_calls_no_solver(self, lam, monkeypatch, fresh_modules):
        m = build_specht(lam)
        m.transition
        calls = []
        real = specht_modules._contravariant_form

        def counted(actions):
            calls.append(actions)
            return real(actions)

        monkeypatch.setattr(specht_modules, "_contravariant_form", counted)
        m.transition_inv
        assert calls == []

    def test_gt_basis_reads_no_child_transition(self, fresh_modules):
        lam = Partition([4, 2])
        seminormal._gt_basis(lam.parts)
        for child, _, _, _ in build_specht(lam).branching:
            assert "transition" not in vars(build_specht(child))

    def test_a_perturbed_transition_breaks_the_inverse(
        self, monkeypatch, fresh_modules
    ):
        # X + d with d symmetric is no longer diagonal in the GT basis,
        # so X^-1 is not formed from it
        m = build_specht(Partition([3, 1]))
        d = zeros(m.dim, m.dim, R_ZERO)
        d[0][1] = d[1][0] = R_ONE
        monkeypatch.setattr(m, "transition", mat_add(m.transition, d))
        with pytest.raises(ArithmeticError, match="GT basis of 3,1"):
            m.transition_inv

    @pytest.mark.parametrize("lam", wide_shapes_up_to(5), ids=str)
    def test_complementary_form_needs_its_corner_division(self, lam):
        # Y has corner 1 and X^-1 does not: Y is X^-1 only up to scale
        m = build_specht(lam)
        Y = _contravariant_form(complementary_wgraph(m))
        inv = inverse(m.transition, R_ONE, R_ZERO)
        assert Y != inv
        assert [[inv[0][0] * y for y in row] for row in Y] == inv

    @pytest.mark.parametrize("lam", wide_shapes_up_to(5), ids=str)
    def test_unshifted_transpose_is_rejected(self, lam):
        # L_i^T keeps the descent set of L_i, whose rows carry mu
        m = build_specht(lam)
        actions = {i: mat_transpose(L) for i, L in m.lower_action.items()}
        with pytest.raises(ArithmeticError, match="W-graph shape"):
            _contravariant_form(actions)


class TestBranching:
    @pytest.mark.parametrize("lam", shapes_up_to(5), ids=str)
    def test_resolution_of_identity(self, lam):
        m = build_specht(lam)
        total = [[R_ZERO] * m.dim for _ in range(m.dim)]
        projs = [p for _, _, _, p in m.branching]
        for p in projs:
            for a in range(m.dim):
                for b in range(m.dim):
                    total[a][b] = total[a][b] + p[a][b]
        assert mats_equal(total, identity(m.dim, R_ONE, R_ZERO))
        for i, p in enumerate(projs):
            for j, q in enumerate(projs):
                prod = mat_mul(p, q)
                assert mats_equal(prod, p if i == j else
                                  [[R_ZERO] * m.dim for _ in range(m.dim)])

    @pytest.mark.parametrize("lam", shapes_up_to(5), ids=str)
    def test_equivariance_and_ranks(self, lam):
        m = build_specht(lam)
        for child_shape, iota, pi, _ in m.branching:
            child = build_specht(child_shape)
            assert mats_equal(mat_mul(pi, iota),
                              identity(child.dim, R_ONE, R_ZERO))
            for i in range(1, lam.size - 1):
                assert mats_equal(
                    mat_mul(m.lower_action[i], iota),
                    mat_mul(iota, child.lower_action[i]),
                )
                assert mats_equal(
                    mat_mul(pi, m.lower_action[i]),
                    mat_mul(child.lower_action[i], pi),
                )

    @pytest.mark.parametrize("lam", shapes_up_to(5), ids=str)
    def test_corner_order_refines_dominance(self, lam):
        # children listed west-to-east are strictly decreasing in
        # dominance; this is the total order on restriction cells
        m = build_specht(lam)
        children = [c for c, _, _, _ in m.branching]
        for a in range(len(children)):
            for b in range(a + 1, len(children)):
                assert children[a].dominates(children[b])
                assert children[a] != children[b]

    @pytest.mark.parametrize("lam", shapes_up_to(5, lo=3), ids=str)
    def test_embeddings_match_kronecker_solve(self, lam):
        m = build_specht(lam)
        gens = list(range(1, lam.size - 1))
        for child_shape, iota, _, _ in m.branching:
            child = build_specht(child_shape)
            want = kronecker_intertwiner(
                child.lower_action, m.lower_action, gens
            )
            lead = next(x for row in want for x in row if x)
            assert [[x / lead for x in row] for row in want] == iota

    @pytest.mark.parametrize(
        "lam", shapes_up_to(6) + (partitions_of(7) if HEAVY else []), ids=str
    )
    def test_matches_stack_and_invert(self, lam):
        assert build_specht(lam).branching == stacked_branching(lam)

    @pytest.mark.parametrize("shape", [[2, 1], [3, 2], [3, 2, 1], [4, 2, 1]], ids=str)
    def test_corner_content_off_by_one_raises(self, monkeypatch, shape):
        # a fresh module for each shifted corner, over the cached children
        lam = Partition(shape)
        corners = Partition.corners
        for ci in range(len(corners(lam))):
            build_specht(lam.remove_corner(ci))
        for ci in range(len(corners(lam))):
            m = SpechtModule(lam)

            def shifted(self, ci=ci):
                out = corners(self)
                if self == lam:
                    out[ci] = (out[ci][0], out[ci][1] + 1)
                return out

            monkeypatch.setattr(Partition, "corners", shifted)
            with pytest.raises(ArithmeticError, match="fails at s_|not inverse"):
                m.branching
            monkeypatch.undo()

    @pytest.mark.parametrize("shape", [[3, 1], [3, 2], [3, 2, 1]], ids=str)
    def test_perturbed_child_action_raises(self, monkeypatch, shape):
        lam = Partition(shape)
        m = SpechtModule(lam)
        child = build_specht(lam.remove_corner(0))
        i = m.r - 2
        A = [row[:] for row in child.lower_action[i]]
        A[0][-1] = A[0][-1] + R_ONE
        monkeypatch.setitem(child.lower_action, i, A)
        with pytest.raises(ArithmeticError, match=rf"fails at s_{i}$"):
            m.branching

    def test_non_child_gives_zero(self):
        p = isotypic_projector(Partition([3, 2]), Partition([4]))
        assert all(x == R_ZERO for row in p for x in row)


class TestProjectedBasis:
    @pytest.mark.parametrize("lam", shapes_up_to(5), ids=str)
    @pytest.mark.parametrize("which", ["lower", "upper"])
    def test_unitriangular_with_valuations(self, lam, which):
        m = build_specht(lam)
        cols = projected_basis(lam, which)
        for q, vec in cols:
            sh_q = m.restriction_shape(q)
            for qp in m.basis:
                x = vec[m.index[qp]]
                if qp == q:
                    assert x == R_ONE
                elif x:
                    sh_qp = m.restriction_shape(qp)
                    assert sh_qp != sh_q
                    if which == "lower":
                        assert sh_qp.dominates(sh_q)
                    else:
                        assert sh_q.dominates(sh_qp)
                    assert x.val0() >= 1 and x.val_inf() >= 1

    @pytest.mark.parametrize("shape", [[1], [2, 1]], ids=str)
    def test_unknown_basis_raises_at_every_rank(self, shape):
        with pytest.raises(ValueError, match="unknown basis 'bogus'"):
            projected_basis(Partition(shape), "bogus")

    @pytest.mark.parametrize("lam", shapes_up_to(5), ids=str)
    def test_upper_projectors_are_the_conjugates(self, lam):
        # X P X^-1 = P^T for every child projector P
        m = build_specht(lam)
        X, X_inv = m.transition, inverse(m.transition, R_ONE, R_ZERO)
        conj = {}
        for child, _, _, P in m.branching:
            conj[child] = mat_mul(X, mat_mul(P, X_inv))
            assert conj[child] == mat_transpose(P)
        for q, vec in projected_basis(lam, "upper"):
            col = m.index[q]
            assert vec == [row[col] for row in conj[m.restriction_shape(q)]]
