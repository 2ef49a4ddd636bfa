import functools
import itertools
import os
import pathlib
import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

from nstl import nonstandard, seminormal, specht_modules
from nstl.combinatorics import Partition, partitions_of, two_row_partitions
from nstl.exact_arith import LaurentPoly, R_HALF, R_ONE, R_ZERO, RationalFn
from nstl.hecke_core import HeckeElement, multiply_standard
from nstl.linalg import mat_mul, mat_transpose, rref, zeros
from nstl.nonstandard import (
    FOUR,
    CertificateError,
    NsIrredLabel,
    NsSubmodule,
    RestrictionError,
    TensorModule,
    _generators_with_theta,
    _split_bound,
    _split_failure,
    _tensor_product_terms,
    _unreachable,
    antipode_check,
    build_irreducible,
    certify_irreducible,
    chain_trace,
    dimension_formula,
    dimension_formula_details,
    epsilon_minus_vector,
    epsilon_plus_vector,
    ns_labels,
    nonstandard_dimension_oracle,
    p_action,
    restriction_decompose,
    square_split_identities,
)
from nstl.seminormal import _gt_basis
from nstl.specht_modules import build_specht
from nstl.verify import check_action_formula, check_certification, check_dimension

import dimension_oracle
from dimension_oracle import (
    ORACLE_PRIME,
    U0,
    ListSpanBasisModP,
    ModulusError,
    SpanBasisModP,
    _accepted_words,
    _block_generators,
    _kron_sum,
    block_bound,
    closure_dimension,
    specialize_matrix,
)
from hecke_oracle import first_left_descent, oracle_theta_t, theta_element
from isotypic_oracle import (
    dense_ops,
    flatten,
    hh_pieces,
    in_lower,
    isotypic_split,
    lower_basis,
    lower_split_identities,
    mat_add,
    mat_scale,
    mat_sub,
    nonstandard_pieces,
    pairing,
    restriction_ranks,
    to_dense,
    to_gt,
    to_sparse,
)
import isotypic_oracle
from specht_oracle import SpanBasis, inverse, nullspace

rng = random.Random(23)

P = Partition


def p_dense(tm: TensorModule, c, i: int, pair: str = "ll"):
    """TensorModule.p_apply on a coefficient matrix, through to_sparse
    and to_dense."""
    return to_dense(tm.p_apply(to_sparse(c), i, pair), tm)


def q_element(tm: TensorModule, c, i: int, pair: str = "ll"):
    """Action of Q_{s_i} = [2]^2 - P_{s_i}."""
    return mat_sub(mat_scale(c, FOUR), p_dense(tm, c, i, pair))


def rand_matrix(n, m):
    return [
        [
            RationalFn(LaurentPoly({rng.randint(-1, 1): rng.randint(-2, 2)}))
            for _ in range(m)
        ]
        for _ in range(n)
    ]


def mats_equal(A, B):
    return all(a == b for ra, rb in zip(A, B) for a, b in zip(ra, rb))


def shape_pairs(r):
    shapes = partitions_of(r)
    return [(a, b) for a in shapes for b in shapes]


def closure_check(mod):
    """Oracle for the certificate's closure: every generator image of
    every basis vector stays in the span, by Q(u) elimination, in lower
    (x) lower coordinates."""
    span, basis = SpanBasis(), in_lower(mod.ambient, mod.basis)
    for c in basis:
        if not span.add(flatten(c)):
            return False
    for i in range(1, mod.ambient.r):
        for c in basis:
            if span.add(flatten(p_dense(mod.ambient, c, i, "ll"))):
                return False
    return True


@functools.lru_cache(maxsize=None)
def fraction_closure_words(r, u0):
    """Oracle for the F_p span closure: the same breadth-first
    closure on dense block-diagonal Fraction generators of the whole
    faithful sum, with each product's N^2 entries in a Fraction span.
    Returns the accepted words in order."""
    shapes = two_row_partitions(r)
    blocks = [TensorModule(lam, mu) for lam in shapes for mu in shapes]
    N = sum(b.dim for b in blocks)
    gens = []
    for i in range(1, r):
        G = [[Fraction(0)] * N for _ in range(N)]
        off = 0
        for b in blocks:
            flat = _kron_sum(dense_ops(b, i, "ll"))
            for a in range(b.dim):
                for c in range(b.dim):
                    G[off + a][off + c] = flat[a][c].specialize(u0)
            off += b.dim
        gens.append(G)
    span = SpanBasis()
    ident = [[Fraction(int(a == b)) for b in range(N)] for a in range(N)]
    span.add(flatten(ident))
    words = [()]
    frontier = [((), ident)]
    while frontier:
        new_frontier = []
        for word, M in frontier:
            for i, G in enumerate(gens, start=1):
                prod = mat_mul(M, G)
                if span.add(flatten(prod)):
                    words.append(word + (i,))
                    new_frontier.append((word + (i,), prod))
        frontier = new_frontier
    return words


class TestLabels:
    def test_parse_roundtrip(self):
        for text in ("3,2:2,2", "+3,2", "-3,2", "eps+"):
            assert str(NsIrredLabel.parse(text)) == text

    def test_pair_unordered(self):
        a = NsIrredLabel("pair", (P([2, 2]), P([3, 1])))
        b = NsIrredLabel("pair", (P([3, 1]), P([2, 2])))
        assert a == b and str(a) == "3,1:2,2"

    def test_index_set_r3(self):
        labels = {str(x) for x in ns_labels(3)}
        assert labels == {"3:2,1", "+2,1", "-2,1", "eps+"}

    def test_index_set_r2_no_signed(self):
        labels = {str(x) for x in ns_labels(2)}
        assert labels == {"2:1,1", "eps+"}

    def test_sum_of_squares_matches_formula(self):
        for r in (2, 3, 4, 5):
            total = sum(x.dimension(r) ** 2 for x in ns_labels(r))
            assert total == dimension_formula(r)


class TestPAction:
    @pytest.mark.parametrize("pair", ["ll", "ul", "uu"])
    def test_formula_matches_definition_r4(self, pair):
        for lam, mu in shape_pairs(4):
            tm = TensorModule(lam, mu)
            for i in range(1, 4):
                for e in tm.unit_vectors():
                    assert p_action(tm, e, i, pair) == tm.p_apply(e, i, pair)

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_apply_is_the_matrix_product(self, r):
        # p_apply reads A C B^T off the nonzero entries of C; the oracle
        # is the dense product, on every unit vector (the columns of
        # check_action_formula) and on one dense matrix per pair, in
        # every basis pair the library applies P_i in
        def dense(ops, c):
            terms = [mat_mul(A, mat_mul(c, mat_transpose(B))) for A, B in ops]
            return functools.reduce(mat_add, terms)

        shapes = two_row_partitions(r)
        for lam, mu in itertools.product(shapes, shapes):
            tm = TensorModule(lam, mu)
            cs = [to_dense(e, tm) for e in tm.unit_vectors()]
            cs.append(rand_matrix(tm.left.dim, tm.right.dim))
            for pair in ("ll", "ul", "lu", "uu", "gg"):
                for i in range(1, r):
                    ops = dense_ops(tm, i, pair)
                    for c in cs:
                        got = tm.p_apply(to_sparse(c), i, pair)
                        assert got == to_sparse(dense(ops, c))

    @pytest.mark.parametrize("pair", ["xl", "lx", "gx"])
    def test_an_unknown_basis_raises(self, pair):
        tm = TensorModule(P([2, 1]), P([2, 1]))
        with pytest.raises(ValueError, match="unknown basis 'x'"):
            tm.p_apply({(0, 0): R_ONE}, 1, pair)

    def test_action_formula_multiplies_no_matrix(self, monkeypatch):
        # every unit column of the check is read off the factors
        def refuse(*args):
            raise AssertionError("mat_mul called")

        monkeypatch.setattr(nonstandard, "mat_mul", refuse)
        assert check_action_formula() == {"ok": True, "matrix_columns": 324}

    def test_conversion_consistency(self):
        # upper coordinates are X times lower ones, on either factor
        tm = TensorModule(P([2, 1]), P([3]))
        XL, XRt = tm.left.transition, mat_transpose(tm.right.transition)
        convert = {
            "ul": lambda c: mat_mul(XL, c),
            "lu": lambda c: mat_mul(c, XRt),
            "uu": lambda c: mat_mul(XL, mat_mul(c, XRt)),
        }
        c = rand_matrix(tm.left.dim, tm.right.dim)
        for i in (1, 2):
            for pair, to in convert.items():
                lhs = to(p_dense(tm, c, i, "ll"))
                rhs = p_dense(tm, to(c), i, pair)
                assert mats_equal(lhs, rhs)

    def test_quadratic_relations(self):
        tm = TensorModule(P([2, 1]), P([2, 1]))
        for i in (1, 2):
            c = rand_matrix(2, 2)
            p1 = p_dense(tm, c, i, "ll")
            assert mats_equal(
                p_dense(tm, p1, i, "ll"),
                [[FOUR * x for x in row] for row in p1],
            )
            q1 = q_element(tm, c, i, "ll")
            q2 = q_element(tm, q1, i, "ll")
            assert mats_equal(q2, [[FOUR * x for x in row] for row in q1])

    def test_flip_commutes(self):
        for lam in partitions_of(4):
            tm = TensorModule(lam, lam)
            c = rand_matrix(tm.left.dim, tm.left.dim)
            for i in range(1, 4):
                assert mats_equal(
                    mat_transpose(p_dense(tm, mat_transpose(c), i, "ll")),
                    p_dense(tm, c, i, "ll"),
                )


class TestThetaTwist:
    def _twist(self, lam):
        from nstl.combinatorics import de_distance, syt_enumerate

        m = build_specht(lam)
        mt = build_specht(lam.conjugate())
        S = zeros(mt.dim, m.dim, R_ZERO)
        for Q in m.basis:
            sign = -1 if de_distance(Q) % 2 else 1
            S[mt.index[Q.transpose()]][m.index[Q]] = RationalFn.from_int(sign)
        return m, mt, S

    def test_theta_intertwines_factors(self):
        for r in (2, 3, 4):
            for lam in partitions_of(r):
                m, mt, S = self._twist(lam)
                for i in range(1, r):
                    lhs = mat_mul(S, m.lower_action[i])
                    rhs = mat_mul(mt.upper_action[i], S)
                    assert mats_equal(
                        lhs, [[(R_ZERO - R_ONE) * x for x in row] for row in rhs]
                    )

    def test_theta_fixes_p_generators(self):
        lam, mu = P([2, 1]), P([1, 1, 1])
        m, mt, SL = self._twist(lam)
        n, nt, SR = self._twist(mu)
        tm = TensorModule(lam, mu)
        tmt = TensorModule(lam.conjugate(), mu.conjugate())
        c = rand_matrix(m.dim, n.dim)
        mapped = mat_mul(SL, mat_mul(c, mat_transpose(SR)))
        for i in range(1, lam.size):
            lhs = mat_mul(
                SL, mat_mul(p_dense(tm, c, i, "ll"), mat_transpose(SR))
            )
            rhs = p_dense(tmt, mapped, i, "uu")
            assert mats_equal(lhs, rhs)


class TestEpsilonPlus:
    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_scaled_by_four(self, r):
        for lam in partitions_of(r):
            tm = TensorModule(lam, lam)
            eps = epsilon_plus_vector(lam)
            for i in range(1, r):
                assert tm.p_apply(eps, i, "ll") == {
                    key: FOUR * x for key, x in eps.items()
                }

    def test_symmetric(self):
        for lam in partitions_of(4):
            eps = epsilon_plus_vector(lam)
            assert eps == {(b, a): x for (a, b), x in eps.items()}

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_two_expressions_agree(self, r):
        # sum C_Q (x) C'_Q = identity in ul coords, X^-1 I in ll ones;
        # sum C'_Q (x) C_Q = identity in lu coords, I (X^-1)^T in ll ones;
        # both must land on the same ll matrix
        for lam in partitions_of(r):
            first = build_specht(lam).transition_inv
            second = mat_transpose(first)
            assert mats_equal(first, second)
            assert to_sparse(first) == epsilon_plus_vector(lam)

    def test_single_tableau_shape(self):
        eps = epsilon_plus_vector(P([4]))
        assert eps == {(0, 0): R_ONE}

    def test_killed_by_q(self):
        lam = P([2, 1])
        tm = TensorModule(lam, lam)
        eps = to_dense(epsilon_plus_vector(lam), tm)
        for i in (1, 2):
            img = q_element(tm, eps, i, "ll")
            assert all(not x for row in img for x in row)


class TestEpsilonMinus:
    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_annihilated(self, r):
        for lam in partitions_of(r):
            tm = TensorModule(lam.conjugate(), lam)
            eps = epsilon_minus_vector(lam)
            for i in range(1, r):
                assert tm.p_apply(eps, i, "ll") == {}

    def test_row_shape_explicit(self):
        eps = epsilon_minus_vector(P([2]))
        assert eps == {(0, 0): R_ONE}


class TestSparseVectors:
    """Every tensor vector the library returns is a dict {(a, b): entry}
    with no zero entry, whichever basis pair it is in."""

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_every_returned_vector_is_sparse(self, r):
        shapes = two_row_partitions(r)
        vectors = []
        for lam in partitions_of(r):
            plus, minus = epsilon_plus_vector(lam), epsilon_minus_vector(lam)
            tm = TensorModule(lam.conjugate(), lam)
            # P_i annihilates the minus vector: every entry cancels
            vectors += [plus, minus] + [tm.p_apply(minus, i) for i in range(1, r)]
        for label in ns_labels(r):
            mod = build_irreducible(label, r)
            vectors += mod.basis + seminormal.seminormal_basis(mod).leaves
            vectors += [mod.ambient.p_apply(C, r - 1, "gg") for C in mod.basis]
        for lam, mu in itertools.product(shapes, shapes):
            tm = TensorModule(lam, mu)
            vectors += seminormal.seminormal_basis(tm).leaves
            for C in tm.unit_vectors():
                vectors.append(C)
                for i in range(1, r):
                    for pair in ("ll", "ul", "lu", "uu", "gg"):
                        vectors.append(tm.p_apply(C, i, pair))
                    for pair in ("ll", "ul", "uu"):
                        vectors.append(p_action(tm, C, i, pair))
        assert all(isinstance(v, dict) and all(v.values()) for v in vectors)


def trace_functional(lam: Partition, c):
    """(1/f) sum of the diagonal coefficients of c in lower (x) upper
    coordinates, read off its lower (x) lower ones by pairing, which
    the library reads in GT coordinates as sum_s g_s C_ss / f."""
    X = build_specht(lam).transition
    return pairing(c, X) / RationalFn.from_int(len(X))


class TestTrace:
    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_trace_of_eps_plus_is_one(self, r):
        for lam in partitions_of(r):
            eps = to_dense(epsilon_plus_vector(lam), TensorModule(lam, lam))
            assert trace_functional(lam, eps) == R_ONE

    def test_off_diagonal_zero(self):
        lam = P([2, 1])
        c = zeros(2, 2, R_ZERO)
        c[0][1] = R_ONE  # C'_T (x) C_U with T != U in lu coords
        # in ll coords: X^-1 on the upper factor
        c = mat_mul(c, mat_transpose(build_specht(lam).transition_inv))
        assert trace_functional(lam, c) == R_ZERO

    def test_equivariance(self):
        for lam in (P([2, 1]), P([3, 1])):
            tm = TensorModule(lam, lam)
            c = rand_matrix(tm.left.dim, tm.left.dim)
            for i in range(1, lam.size):
                assert trace_functional(
                    lam, p_dense(tm, c, i, "ll")
                ) == FOUR * trace_functional(lam, c)


ANTIPODE_WORDS = [
    [1], [2], [3], [1, 2], [2, 2], [1, 3], [1, 2, 1], [1, 2, 3], [2, 1, 2]
]


class TestAntipode:
    @pytest.mark.parametrize("word", ANTIPODE_WORDS)
    def test_words_up_to_three(self, word):
        assert antipode_check(word, r=4)

    @pytest.mark.parametrize("word", ANTIPODE_WORDS)
    def test_theta_from_the_generators_is_theta(self, word):
        # theta(a), carried beside each product a of C'_s and C_s, is
        # sum_w c_w theta(T_w) with theta(T_w) from the oracle table
        terms = _tensor_product_terms(4, word)
        assert len(terms) == 2 ** len(word)
        for a, theta_a, _ in terms:
            assert theta_a == theta_element(a)

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_theta_from_the_generators_on_every_t_w(self, r):
        # T_s = C'_s - u^-1 = C_s + u, so theta(T_s) is read off either
        # generator image; theta(T_w) = theta(T_s) theta(T_v) for
        # w = s v > v must be the oracle's theta(T_w) for every w
        unit = HeckeElement.unit(r)
        u, u_inv = LaurentPoly({1: 1}), LaurentPoly({-1: 1})
        theta_ts = {}
        for i in range(1, r):
            (_, theta_cp), (_, theta_cs) = _generators_with_theta(r, i)
            theta_ts[i] = theta_cp - unit.scale(u_inv)
            assert theta_ts[i] == theta_cs + unit.scale(u)
        theta_t = {}
        for w, want in oracle_theta_t(r).items():
            if w.length() == 0:
                theta_t[w] = unit
            else:
                i = first_left_descent(w)
                v = w.times_simple_left(i)
                theta_t[w] = multiply_standard(theta_ts[i], theta_t[v])
            assert theta_t[w] == HeckeElement(r, want)


class TestBuildIrreducible:
    def test_dimensions_r3(self):
        dims = {
            str(lbl): build_irreducible(lbl, 3).dim for lbl in ns_labels(3)
        }
        assert dims == {"3:2,1": 2, "+2,1": 2, "-2,1": 1, "eps+": 1}

    def test_diagonal_bookkeeping(self):
        for r in (3, 4):
            for lam in two_row_partitions(r):
                f = build_specht(lam).dim
                plus = (f + 1) * f // 2 - 1
                minus = f * (f - 1) // 2
                assert plus + minus + 1 == f * f

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_gt_basis_spans_the_lower_basis(self, r):
        # the closed forms in GT coordinates span what the lower cut did
        for label in ns_labels(r):
            mod = build_irreducible(label, r)
            gt = [flatten(c) for c in in_lower(mod.ambient, mod.basis)]
            old = [flatten(c) for c in lower_basis(mod)]
            ranks = [len(rref(rows)[0]) for rows in (gt, old, gt + old)]
            assert ranks == [mod.dim] * 3

    def test_minus_single_row_rejected(self):
        with pytest.raises(ValueError):
            build_irreducible(NsIrredLabel("minus", (P([3]),)), 3)

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_closure(self, r):
        for lbl in ns_labels(r):
            assert closure_check(build_irreducible(lbl, r))


@pytest.fixture
def fresh_split_identities():
    """square_split_identities and build_irreducible are cached: a test
    that patches what they read starts and ends with empty caches."""
    for cached in (square_split_identities, build_irreducible):
        cached.cache_clear()
    yield
    for cached in (square_split_identities, build_irreducible):
        cached.cache_clear()


def v_plus_diagonal(E):
    """The diagonal V+ vector with entries E_0, ..., E_{f-2} and
    -(f - 1) E_{f-1} (sum_s g_s C_ss = 0), as a tuple like E."""
    return E[:-1] + (E[-1] * RationalFn.from_int(1 - len(E)),)


def replaced(basis, k, c):
    return basis[:k] + [c] + basis[k + 1:]


def open_controls():
    """{name: (module, message)}: modules of (3,1) x (3,1) and
    (4) x (3,1) whose basis is not the piece its label names, or not
    independent, with what the certificate says of each; none is
    closed."""
    lam = P([3, 1])
    tm = TensorModule(lam, lam)
    units = tm.unit_vectors()  # GT coordinates, as the bases are
    plus, minus = (build_irreducible(lbl(k + "3,1"), 4).basis for k in "+-")
    pair = build_irreducible(lbl("4:3,1"), 4)
    sym = {(0, 1): R_ONE, (1, 0): R_ONE}  # E_01 + E_10
    outside = "basis vector 0 lies outside the {} piece".format
    return {
        "eps with a unit vector": (
            NsSubmodule(lbl("eps+"), tm, units[:1]),
            outside("eps_plus"),
        ),
        "plus with t != 0": (
            NsSubmodule(lbl("+3,1"), tm, replaced(plus, 0, units[0])),
            outside("plus"),
        ),
        "minus with a symmetric vector": (
            NsSubmodule(lbl("-3,1"), tm, replaced(minus, 0, sym)),
            outside("minus"),
        ),
        "pair missing a unit vector": (
            NsSubmodule(pair.label, pair.ambient, pair.basis[:-1]),
            "2 vectors for a piece of dimension 3",
        ),
        "repeated vector": (
            NsSubmodule(lbl("-3,1"), tm, replaced(minus, 1, minus[0])),
            "basis vector 1 depends on the ones before it",
        ),
    }


OPEN_CONTROLS = [
    "eps with a unit vector",
    "plus with t != 0",
    "minus with a symmetric vector",
    "pair missing a unit vector",
    "repeated vector",
]


class TestSplitClosure:
    """The certificate's closure by the split identities, against the
    elimination oracle closure_check."""

    @pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
    def test_identities_hold(self, r):
        for lam in two_row_partitions(r):
            assert square_split_identities(lam) == ""

    @pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
    def test_agree_with_the_lower_coordinate_identities(self, r):
        for lam in two_row_partitions(r):
            assert square_split_identities(lam) == lower_split_identities(lam) == ""

    @pytest.mark.parametrize("fault", ["v+ for eps", "eps off its line", "trace"])
    def test_agree_with_the_lower_coordinates_on_a_fault(
        self, monkeypatch, gt_fault, fresh_split_identities, fault
    ):
        # one fault in g or E of (3,1), carried to lower coordinates as
        # X = Pi^T diag(g) Pi and eps = V diag(E) V^T, fails both checks
        # with the same message
        lam = P([3, 1])
        gt = _gt_basis(lam.parts)
        g, (E0, E1, E2) = gt.g, gt.E
        E = {
            "v+ for eps": v_plus_diagonal(gt.E),
            "eps off its line": (E0 * R_HALF, E1 * R_HALF * 3, E2),
            "trace": gt.E,
        }[fault]
        if fault == "trace":
            g = (g[0] * R_HALF * 3, g[1] * R_HALF, g[2])
        gt_fault(lam, g=g, E=E)
        Pi, V = [list(row) for row in gt.Pi], [list(row) for row in gt.V]
        X = mat_mul(mat_transpose(Pi), [[x * y for y in row] for x, row in zip(g, Pi)])
        eps = mat_mul([[v * e for v, e in zip(row, E)] for row in V], mat_transpose(V))
        monkeypatch.setattr(build_specht(lam), "transition", X)
        monkeypatch.setattr(
            isotypic_oracle, "epsilon_plus_vector", lambda mu: to_sparse(eps)
        )
        got = square_split_identities(lam)
        assert got and got == lower_split_identities(lam)

    def test_read_only_the_gt_data(self, monkeypatch, fresh_split_identities):
        # with the GT bases and factors warm, the identities and the eps+
        # module form no lower (x) lower vector: no epsilon_plus_vector
        # and no matrix product
        r = 5
        for lam in two_row_partitions(r):
            for i in range(1, r):
                build_specht(lam).p_factors(i, "g")
        calls = []

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(module, name, wrapper)

        counted(nonstandard, "epsilon_plus_vector")
        for module in (nonstandard, seminormal, specht_modules):
            counted(module, "mat_mul")
        for lam in two_row_partitions(r):
            assert square_split_identities(lam) == ""
        assert build_irreducible(NsIrredLabel("eps_plus"), r).dim == 1
        assert calls == []

    @pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
    def test_agrees_with_the_oracle_on_every_label(self, r):
        for label in ns_labels(r):
            mod = build_irreducible(label, r)
            assert _split_failure(mod) == ""
            assert closure_check(mod)

    @pytest.mark.parametrize("name", OPEN_CONTROLS)
    def test_open_controls_fail(self, name):
        mod, why = open_controls()[name]
        assert not closure_check(mod)
        with pytest.raises(CertificateError) as info:
            certify_irreducible(mod)
        assert str(info.value) == f"not generator-closed: {mod.label} ({why})"

    def test_label_must_match_its_ambient(self):
        mod = build_irreducible(lbl("-3,1"), 4)
        wrong = NsSubmodule(lbl("-2,2"), mod.ambient, mod.basis)
        assert "is not the label's square" in _split_failure(wrong)
        pair = build_irreducible(lbl("4:3,1"), 4)
        wrong = NsSubmodule(lbl("4:2,2"), pair.ambient, pair.basis)
        assert "is not the pair" in _split_failure(wrong)

    def test_a_v_plus_vector_for_eps_breaks_the_identities(
        self, gt_fault, fresh_split_identities
    ):
        # E of (3,1) a V+ vector: diag(E) is then no eps line, t = 0
        lam = P([3, 1])
        gt_fault(lam, E=v_plus_diagonal(_gt_basis(lam.parts).E))
        assert square_split_identities(lam) == "t(eps) != 1 on 3,1"
        assert square_split_identities(P([2, 2])) == ""
        with pytest.raises(CertificateError, match=r"^no split bound at r=4: t\(eps\)"):
            nonstandard_dimension_oracle(4)
        assert nonstandard_dimension_oracle(3) == 10

    def test_eps_off_its_eigenline_breaks_the_identities(
        self, gt_fault, fresh_split_identities
    ):
        # eps plus half a V+ vector, diag(E_0/2, 3 E_1/2, E_2): symmetric
        # with t = 1, but P_i moves it
        lam = P([3, 1])
        E0, E1, E2 = _gt_basis(lam.parts).E
        gt_fault(lam, E=(E0 * R_HALF, E1 * R_HALF * 3, E2))
        got = square_split_identities(lam)
        assert re.fullmatch(r"P_[123] eps != 4 eps on 3,1", got)

    def test_a_perturbed_trace_breaks_the_covector_identity(
        self, gt_fault, fresh_split_identities
    ):
        # g of (3,1) as (3 g_0/2, g_1/2, g_2) keeps t(eps) = 1 and the
        # eps line, but t(C) = sum_s g_s C_ss / f is then no multiple of
        # the one invariant functional, and t P_i != 4 t
        lam = P([3, 1])
        g0, g1, g2 = _gt_basis(lam.parts).g
        gt_fault(lam, g=(g0 * R_HALF * 3, g1 * R_HALF, g2))
        assert square_split_identities(lam).startswith("t P_")

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_bound_is_the_sum_of_squares(self, r):
        # read off the shapes, it is the bound of the reference's blocks
        signs, mats = _block_generators(r, U0)
        assert _split_bound(r) == block_bound(signs, mats[0]) == dimension_formula(r)


def basis_matrices(mod, u0=U0):
    """Oracle input for the Hom and commutant verdict: the Fraction
    matrices G_i with P_i V = V G_i of the specialized P_i on the
    module's basis V, read off d rows where V is invertible and checked
    on every row."""
    basis = in_lower(mod.ambient, mod.basis)
    V = mat_transpose([flatten(specialize_matrix(c, u0)) for c in basis])
    _, rows = rref(mat_transpose(V))
    assert len(rows) == mod.dim
    S_inv = inverse([V[j] for j in rows], Fraction(1), Fraction(0))
    gens = []
    for i in range(1, mod.ambient.r):
        images = [flatten(specialize_matrix(p_dense(mod.ambient, c, i), u0)) for c in basis]
        W = mat_transpose(images)
        G = mat_mul(S_inv, [W[j] for j in rows])
        assert mat_mul(V, G) == W
        gens.append(G)
    return gens


def fraction_hom_dimension(gens_a, dim_a, gens_b, dim_b):
    """Oracle for the old Hom and commutant verdict: the nullspace of
    the dim_a*dim_b Fraction equations Z G_a = G_b Z of all generator
    pairs at once."""
    one, zero = Fraction(1), Fraction(0)
    rows = []
    for G, H in zip(gens_a, gens_b):
        for a in range(dim_b):
            for b in range(dim_a):
                row = [zero] * (dim_b * dim_a)
                for k in range(dim_a):
                    row[a * dim_a + k] += G[k][b]
                for k in range(dim_b):
                    row[k * dim_a + b] -= H[a][k]
                rows.append(row)
    return len(nullspace(rows, one, zero)) if rows else dim_a * dim_b


def square_control(kind, lam):
    """A closed, reducible module of lam (x) lam: the eps line plus V-
    ("eps+minus"), or Sym^2 = V+ plus the eps line ("plus+eps"); the
    certificate sees it only with the closure step bypassed."""
    r = lam.size
    tm = TensorModule(lam, lam)
    eps = [to_gt(to_dense(epsilon_plus_vector(lam), tm), tm)]
    if kind == "eps+minus":
        minus = build_irreducible(NsIrredLabel("minus", (lam,)), r)
        return NsSubmodule(minus.label, minus.ambient, eps + minus.basis)
    plus = build_irreducible(NsIrredLabel("plus", (lam,)), r)
    return NsSubmodule(plus.label, plus.ambient, plus.basis + eps)


class TestCertification:
    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_every_label_passes(self, r):
        for label in ns_labels(r):
            mod = build_irreducible(label, r)
            certify_irreducible(mod)
            assert all(m == 1 for m in restriction_decompose(mod).values())

    def test_reducible_square_fails_closure(self):
        # the full tensor square of (2,1) has three summands
        tm = TensorModule(P([2, 1]), P([2, 1]))
        mod = NsSubmodule(NsIrredLabel("eps_plus"), tm, tm.unit_vectors())
        assert fraction_hom_dimension(*[basis_matrices(mod), 4] * 2) == 3
        with pytest.raises(CertificateError, match="not generator-closed"):
            certify_irreducible(mod)

    def test_open_module_fails_closure(self):
        tm = TensorModule(P([2, 1]), P([2, 1]))
        mod = NsSubmodule(NsIrredLabel("eps_plus"), tm, tm.unit_vectors()[:1])
        with pytest.raises(CertificateError, match="not generator-closed"):
            certify_irreducible(mod)

    @pytest.mark.parametrize(
        "kind, why",
        [
            ("eps+minus", r"not strongly connected: -{} \(.+ is not reachable from .+\)"),
            ("plus+eps", r"not multiplicity-free: \+{} \(eps\+ 2 times\)"),
        ],
    )
    @pytest.mark.parametrize("lam", [P([3, 1]), P([3, 2])], ids=str)
    def test_reducible_controls_fail(self, monkeypatch, kind, why, lam):
        # closed and reducible: with the closure step bypassed, the
        # branching steps alone must catch them
        mod = square_control(kind, lam)
        assert closure_check(mod)
        monkeypatch.setattr(nonstandard, "_split_failure", lambda mod: "")
        with pytest.raises(CertificateError, match=why.format(lam)):
            certify_irreducible(mod)

    @pytest.mark.parametrize("kind", ["eps+minus", "plus+eps"])
    def test_reducible_controls_have_a_larger_commutant(self, kind):
        mod = square_control(kind, P([3, 1]))
        gens = basis_matrices(mod)
        assert fraction_hom_dimension(gens, mod.dim, gens, mod.dim) == 2

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_agrees_with_the_hom_and_commutant_verdict(self, r):
        # the old certificate: End = Q for each module and Hom = 0
        # between any two, at U0
        mods = [build_irreducible(label, r) for label in ns_labels(r)]
        gens = [basis_matrices(mod) for mod in mods]
        for (ga, ma), (gb, mb) in itertools.product(zip(gens, mods), repeat=2):
            want = 1 if ma is mb else 0
            assert fraction_hom_dimension(ga, ma.dim, gb, mb.dim) == want
        assert check_certification(r) == {"ok": True, "labels": len(mods)}

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_chain_trace_is_the_trace_on_the_basis(self, r):
        for label in ns_labels(r):
            mod = build_irreducible(label, r)
            product = functools.reduce(mat_mul, basis_matrices(mod))
            trace = sum(product[a][a] for a in range(mod.dim))
            assert chain_trace(label, r).specialize(U0) == trace

    def test_traces_tell_the_equal_restrictions_apart(self):
        for r, a, b in ((2, "2:1,1", "eps+"), (3, "3:2,1", "+2,1")):
            mods = [build_irreducible(lbl(x), r) for x in (a, b)]
            assert mods[0].dim == mods[1].dim
            assert restriction_decompose(mods[0]) == restriction_decompose(mods[1])
            assert chain_trace(lbl(a), r) != chain_trace(lbl(b), r)

    def test_a_rank_rests_on_the_ranks_below(self, monkeypatch):
        # certify_rank(4) proves ranks 2 and 3 first, through its cache
        real = nonstandard.certify_irreducible

        def failing(mod):
            if mod.ambient.r == 3:
                raise CertificateError(f"not strongly connected: {mod.label}")
            return real(mod)

        monkeypatch.setattr(nonstandard, "certify_irreducible", failing)
        with pytest.raises(CertificateError, match="not strongly connected"):
            nonstandard.certify_rank(4)
        assert nonstandard.certify_rank.cache_info().currsize == 1

    def test_the_unreachable_pair_is_unreachable(self):
        rng = random.Random(22)
        for _ in range(1000):
            n = rng.randrange(9)
            p = rng.choice([0.1, 0.3, 0.6])
            edges = {
                j: {k for k in range(n + 1) if k != j and rng.random() < p}
                for j in range(n)
            }
            reach = {}
            for j in edges:
                seen, todo = {j}, [j]
                while todo:
                    for k in edges[todo.pop()] & edges.keys() - seen:
                        seen.add(k)
                        todo.append(k)
                reach[j] = seen
            missing = _unreachable(edges)
            if all(reach[j] == edges.keys() for j in edges):
                assert missing == ()
            else:
                j, k = missing
                assert j in edges and k in edges and k not in reach[j]


def lbl(text):
    return NsIrredLabel.parse(text)


class TestRestriction:
    def test_case_1b_prime_r3(self):
        mod = build_irreducible(lbl("3:2,1"), 3)
        assert restriction_decompose(mod) == Counter(
            {lbl("2:1,1"): 1, lbl("eps+"): 1}
        )

    def test_case_2_prime_r3(self):
        mod = build_irreducible(lbl("+2,1"), 3)
        assert restriction_decompose(mod) == Counter(
            {lbl("2:1,1"): 1, lbl("eps+"): 1}
        )

    def test_case_3_prime_r3(self):
        mod = build_irreducible(lbl("-2,1"), 3)
        assert restriction_decompose(mod) == Counter({lbl("2:1,1"): 1})

    def test_case_1b_prime_r4(self):
        mod = build_irreducible(lbl("4:3,1"), 4)
        assert restriction_decompose(mod) == Counter(
            {lbl("3:2,1"): 1, lbl("eps+"): 1}
        )

    def test_case_2_prime_r4(self):
        mod = build_irreducible(lbl("+3,1"), 4)
        assert restriction_decompose(mod) == Counter(
            {lbl("3:2,1"): 1, lbl("+2,1"): 1, lbl("eps+"): 1}
        )

    def test_case_3_prime_r4(self):
        mod = build_irreducible(lbl("-3,1"), 4)
        assert restriction_decompose(mod) == Counter(
            {lbl("3:2,1"): 1, lbl("-2,1"): 1}
        )

    def test_case_1a_r4(self):
        mod = build_irreducible(lbl("4:2,2"), 4)
        assert restriction_decompose(mod) == Counter({lbl("3:2,1"): 1})

    def test_case_1b_r4(self):
        mod = build_irreducible(lbl("3,1:2,2"), 4)
        assert restriction_decompose(mod) == Counter(
            {lbl("3:2,1"): 1, lbl("+2,1"): 1, lbl("-2,1"): 1, lbl("eps+"): 1}
        )

    @pytest.mark.parametrize("r", [3, 4])
    def test_case_4(self, r):
        mod = build_irreducible(lbl("eps+"), r)
        assert restriction_decompose(mod) == Counter({lbl("eps+"): 1})

    @pytest.mark.parametrize(
        "stub_rank, message",
        [(1, "not a multiple"), (0, "restriction dimensions")],
    )
    def test_inconsistent_ranks_raise(self, monkeypatch, stub_rank, message):
        # 3:2,1 has dimension 2, so rank 1 is not a multiple of it; rank
        # 0 everywhere leaves the restriction short of the module
        real = nonstandard._restriction_split

        def stubbed(mod):
            return {k: (stub_rank, probe) for k, (_, probe) in real(mod).items()}

        monkeypatch.setattr(nonstandard, "_restriction_split", stubbed)
        built = build_irreducible(lbl("3,1:2,2"), 4)
        mod = NsSubmodule(built.label, built.ambient, built.basis)
        with pytest.raises(RestrictionError, match=message):
            restriction_decompose(mod)

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_ranks_and_probes_match_the_lifted_components(self, r):
        # the GT cut against the lower-coordinate one: the ranks of the
        # old one-step cut and of the lifted components, and each probe
        # is its own component
        for label in ns_labels(r):
            mod = build_irreducible(label, r)
            tm = mod.ambient
            basis = in_lower(tm, mod.basis)
            lifted = {}
            for c in basis:
                split = isotypic_split(tm.lam, tm.mu, r - 1, c, nonstandard_pieces)
                for k, comp in split.items():
                    lifted.setdefault(k, []).append(flatten(comp))
            ranks = restriction_ranks(tm.lam, tm.mu, basis)
            assert mod.restriction.keys() == lifted.keys() == ranks.keys()
            for k, (rk, probe) in mod.restriction.items():
                assert rk == len(rref(lifted[k])[0]) == ranks[k]
                (probe,) = in_lower(tm, [probe])
                assert isotypic_split(tm.lam, tm.mu, r - 1, probe, nonstandard_pieces) == {k: probe}


def split_cases(max_r):
    for r in range(2, max_r + 1):
        shapes = two_row_partitions(r)
        for lam, mu in itertools.product(shapes, shapes):
            for k in range(2, r + 1):
                yield lam, mu, k


class TestIsotypicSplit:
    """The defining properties of the split, on every unit vector."""

    @staticmethod
    def total(mats, like):
        return functools.reduce(
            mat_add, mats, zeros(len(like), len(like[0]), R_ZERO)
        )

    @pytest.mark.parametrize("lam,mu,k", list(split_cases(4)), ids=str)
    @pytest.mark.parametrize("pieces", [nonstandard_pieces, hh_pieces])
    def test_resolves_identity_and_is_idempotent(self, lam, mu, k, pieces):
        tm = TensorModule(lam, mu)
        for c in (to_dense(e, tm) for e in tm.unit_vectors()):
            split = isotypic_split(lam, mu, k, c, pieces)
            assert mats_equal(self.total(split.values(), c), c)
            for label, comp in split.items():
                assert isotypic_split(lam, mu, k, comp, pieces) == {
                    label: comp
                }

    @pytest.mark.parametrize("lam,mu,k", list(split_cases(4)), ids=str)
    def test_refines_the_tensor_square_split(self, lam, mu, k):
        tm = TensorModule(lam, mu)
        for c in (to_dense(e, tm) for e in tm.unit_vectors()):
            ns = isotypic_split(lam, mu, k, c, nonstandard_pieces)
            hh = isotypic_split(lam, mu, k, c, hh_pieces)
            diagonal = [hh[nu, rho] for nu, rho in hh if nu == rho]
            signed = [v for label, v in ns.items() if label.kind != "pair"]
            assert mats_equal(
                self.total(signed, c), self.total(diagonal, c)
            )
            pairs = {
                NsIrredLabel("pair", key): [
                    hh[nu, rho] for nu, rho in hh if {nu, rho} == set(key)
                ]
                for key in hh
                if key[0] != key[1]
            }
            assert pairs.keys() == {l for l in ns if l.kind == "pair"}
            for label, parts in pairs.items():
                assert mats_equal(ns[label], self.total(parts, c))


class TestDimension:
    def test_formula_values(self):
        assert [dimension_formula(r) for r in (2, 3, 4, 5)] == [2, 10, 89, 855]

    def test_details_consistent(self):
        for r in (2, 3, 4, 5):
            d = dimension_formula_details(r)
            assert d["total_squares"] == d["formula"]

    def test_oracle_r2(self):
        assert nonstandard_dimension_oracle(2) == 2

    def test_oracle_r3(self):
        assert nonstandard_dimension_oracle(3) == 10

    def test_oracle_r4(self):
        assert nonstandard_dimension_oracle(4) == 89

    @pytest.mark.parametrize(
        "r, u0",
        [
            (r, u0)
            for r in (2, 3)
            for u0 in (Fraction(7, 3), Fraction(2), Fraction(5, 2))
        ]
        + [(3, Fraction(11, 5)), (4, U0), (4, Fraction(5, 2))],
    )
    def test_integer_closure_matches_fraction_closure(self, r, u0):
        words = _accepted_words(r, u0, ORACLE_PRIME)
        assert words == fraction_closure_words(r, u0)
        assert len(words) == nonstandard_dimension_oracle(r)

    def test_oracle_stops_at_the_split_bound(self, monkeypatch):
        # the reference closure: the 191st add takes the span to 89, and
        # none follows it; the closure run to its end makes 268
        sizes = []
        add = ListSpanBasisModP.add

        def counted(self, v):
            sizes.append(len(self))
            return add(self, v)

        monkeypatch.setattr(ListSpanBasisModP, "add", counted)
        assert closure_dimension(4) == 89
        assert len(sizes) == 191
        assert max(sizes) == sizes[-1] == 88

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_mod_p_equals_exact(self, r):
        assert _accepted_words(r, U0, 1000003) == fraction_closure_words(r, U0)

    def test_oracle_r5_mod_p(self, monkeypatch):
        # the numpy span takes whole levels, and none once it holds 855;
        # the pure-Python span would take minutes at rank 5
        pytest.importorskip("numpy")
        sizes = []
        add_level = SpanBasisModP.add_level

        def counted(self, V):
            sizes.append(len(self))
            return add_level(self, V)

        monkeypatch.setattr(SpanBasisModP, "add_level", counted)
        assert closure_dimension(5) == nonstandard_dimension_oracle(5) == 855
        assert max(sizes) < 855

    def test_oracle_never_imports_numpy(self):
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        code = (
            "import sys\n"
            "from nstl.nonstandard import nonstandard_dimension_oracle as oracle\n"
            "print([oracle(r) for r in (2, 3, 4, 5)], 'numpy' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert out == "[2, 10, 89, 855] False\n"

    def test_oracle_certifies_every_rank_once(self, monkeypatch):
        # each label of ranks 2..4 once, bottom up, however the ranks
        # are asked for
        calls = []
        real = nonstandard.certify_irreducible
        monkeypatch.setattr(
            nonstandard,
            "certify_irreducible",
            lambda mod: calls.append(mod.ambient.r) or real(mod),
        )
        bottom_up = [s for s in (2, 3, 4) for _ in ns_labels(s)]
        assert nonstandard_dimension_oracle(4) == 89
        assert nonstandard_dimension_oracle(4) == 89
        assert nonstandard_dimension_oracle(1) == 1
        assert calls == bottom_up
        nonstandard.certify_rank.cache_clear()
        calls.clear()
        assert check_dimension((2, 4, 3)) == {
            "ok": True,
            "values": {2: 2, 4: 89, 3: 10},
        }
        assert calls == bottom_up

    def test_modulus_bound_is_span_vector_length(self):
        # at r = 3 the span vectors have 15 entries: 784150127 is the
        # largest prime p with 15 (p - 1)^2 < 2^63, 784150187 the next
        assert len(_accepted_words(3, U0, 784150127)) == 10
        with pytest.raises(ModulusError, match="int64-safe range"):
            _accepted_words(3, U0, 784150187)

    @pytest.mark.parametrize(
        "r, p, why",
        [
            (3, 3, "u0 = 7/3 is 0 or a pole mod 3"),
            (3, 7, "u0 = 7/3 is 0 or a pole mod 7"),
            (3, 10, "modulus 10 is not prime"),
            (3, 1, "int64-safe range"),
            # 4294967311 is prime, but (p-1)^2 alone exceeds 2^63
            (4, 4294967311, "int64-safe range"),
            # 784150187 is prime, but 15 (p-1)^2 exceeds 2^63, and the
            # span vectors at r = 3 have 15 entries
            (3, 784150187, "int64-safe range"),
        ],
    )
    def test_bad_modulus(self, r, p, why):
        with pytest.raises(ModulusError, match=re.escape(why)):
            _accepted_words(r, U0, p)

    def test_blocks_are_unordered_pairs_and_flip_parts(self):
        # r = 4, f = 1, 3, 2: the antisymmetric parts 3, 1 of the squares
        # (none for f = 1), the pairs 3, 2, 6, the symmetric parts 1, 6, 3
        signs, mats = _block_generators(4, Fraction(7, 3))
        assert signs == [-1, -1, 0, 0, 0, 1, 1, 1]
        assert [len(B) for B in mats[0]] == [3, 1, 3, 2, 6, 1, 6, 3]
        assert len(mats) == 4

    def test_square_block_must_commute_with_flip(self, monkeypatch):
        ops = dimension_oracle.dense_ops

        def lopsided(tm, i, pair):
            # C'_s (x) C_s alone is not symmetric in the two factors
            (lp, _), (_, rc) = ops(tm, i, pair)
            return [(lp, rc)]

        monkeypatch.setattr(dimension_oracle, "dense_ops", lopsided)
        with pytest.raises(ArithmeticError, match="flip"):
            _block_generators(3, Fraction(7, 3))
