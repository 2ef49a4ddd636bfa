import itertools

import pytest

from nstl.combinatorics import (
    Partition,
    Tableau,
    syt_count,
    syt_enumerate,
    two_row_partitions,
    y_tableau,
)
from nstl.exact_arith import R_ONE
from nstl.linalg import rank
from nstl.nonstandard import (
    NsIrredLabel,
    TensorModule,
    build_irreducible,
    epsilon_plus_vector,
)
from nstl.seminormal import (
    MultiplicityError,
    SeminormalChainLabel,
    alpha,
    chain_membership,
    hh_chain_basis,
    seminormal_basis,
    seminormal_table,
)


def tab(s: str) -> Tableau:
    return Tableau([[int(ch) for ch in part] for part in s.split("/")])


def lbl(s: str) -> NsIrredLabel:
    return NsIrredLabel.parse(s)


P32 = Partition([3, 2])

# the worked 5x5 grids for (3,2) x (3,2), rows = T, columns = U, in the
# tableau order used below; "x:y" = pair, "+/-" = signed, "e" = eps+
GRID_ORDER = ["123/45", "124/35", "134/25", "125/34", "135/24"]
GRID_LEVEL5 = [
    ["+3,2", "+3,2", "+3,2", "+3,2", "+3,2"],
    ["-3,2", "+3,2", "+3,2", "+3,2", "+3,2"],
    ["-3,2", "-3,2", "+3,2", "+3,2", "+3,2"],
    ["-3,2", "-3,2", "-3,2", "+3,2", "+3,2"],
    ["-3,2", "-3,2", "-3,2", "-3,2", "eps+"],
]
GRID_LEVEL4 = [
    ["+3,1", "+3,1", "+3,1", "3,1:2,2", "3,1:2,2"],
    ["-3,1", "+3,1", "+3,1", "3,1:2,2", "3,1:2,2"],
    ["-3,1", "-3,1", "eps+", "3,1:2,2", "3,1:2,2"],
    ["3,1:2,2", "3,1:2,2", "3,1:2,2", "+2,2", "+2,2"],
    ["3,1:2,2", "3,1:2,2", "3,1:2,2", "-2,2", "eps+"],
]


def two_row_pairs(max_n):
    for n in range(2, max_n + 1):
        shapes = two_row_partitions(n)
        yield from itertools.product(shapes, shapes)


class TestYTableau:
    def test_two_columns(self):
        assert y_tableau(Partition([2, 2])) == tab("13/24")

    def test_three_two(self):
        assert y_tableau(P32) == tab("135/24")

    def test_single_row(self):
        assert y_tableau(Partition([4])) == tab("1234")

    def test_three_rows_rejected(self):
        with pytest.raises(ValueError):
            y_tableau(Partition([2, 1, 1]))


class TestAlpha:
    def test_worked_chain(self):
        chain = alpha(P32, P32, tab("124/35"), tab("134/25"))
        assert chain.level(5) == lbl("+3,2")
        assert chain.level(4) == lbl("+3,1")
        assert chain.level(3) == lbl("+2,1")
        assert chain.level(2) == NsIrredLabel(
            "pair", (Partition([2]), Partition([1, 1]))
        )

    def test_y_pair_is_eps_at_every_level(self):
        chain = alpha(P32, P32, tab("135/24"), tab("135/24"))
        assert all(l == lbl("eps+") for l in chain.labels)

    def test_pair_labels_exactly_at_distinct_restrictions(self):
        lam, mu = Partition([4, 1]), Partition([3, 2])
        for T in syt_enumerate(lam):
            for U in syt_enumerate(mu):
                chain = alpha(lam, mu, T, U)
                for k in range(2, 6):
                    distinct = T.restrict(k).shape != U.restrict(k).shape
                    assert (chain.level(k).kind == "pair") == distinct

    @pytest.mark.parametrize("pair", list(two_row_pairs(5)), ids=str)
    def test_injective_with_full_count(self, pair):
        lam, mu = pair
        chains = {
            alpha(lam, mu, T, U)
            for T in syt_enumerate(lam)
            for U in syt_enumerate(mu)
        }
        assert len(chains) == syt_count(lam) * syt_count(mu)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            alpha(P32, P32, tab("123/4"), tab("135/24"))


class TestTables:
    def _grid(self, level):
        Ts = syt_enumerate(P32)
        computed = seminormal_table(P32, P32, level)
        pos = {str(t): i for i, t in enumerate(Ts)}
        return [
            [computed[pos[a]][pos[b]] for b in GRID_ORDER]
            for a in GRID_ORDER
        ]

    def test_level5_grid(self):
        grid = self._grid(5)
        for a in range(5):
            for b in range(5):
                assert grid[a][b] == lbl(GRID_LEVEL5[a][b]), (a, b)

    def test_level4_grid(self):
        grid = self._grid(4)
        for a in range(5):
            for b in range(5):
                assert grid[a][b] == lbl(GRID_LEVEL4[a][b]), (a, b)


class TestSeminormalBasis:
    def test_tensor_square_32_counts(self):
        sb = seminormal_basis(TensorModule(P32, P32))
        assert sb.dim == 25
        tops = [c.level(5) for c in sb.chains]
        assert tops.count(lbl("+3,2")) == 14
        assert tops.count(lbl("-3,2")) == 10
        assert tops.count(lbl("eps+")) == 1

    def test_chains_match_alpha_32(self):
        sb = seminormal_basis(TensorModule(P32, P32))
        expected = {
            alpha(P32, P32, T, U)
            for T in syt_enumerate(P32)
            for U in syt_enumerate(P32)
        }
        assert set(sb.chains) == expected

    @pytest.mark.parametrize("pair", list(two_row_pairs(4)), ids=str)
    def test_chains_match_alpha_small(self, pair):
        lam, mu = pair
        sb = seminormal_basis(TensorModule(lam, mu))
        expected = {
            alpha(lam, mu, T, U)
            for T in syt_enumerate(lam)
            for U in syt_enumerate(mu)
        }
        assert set(sb.chains) == expected
        assert len(sb.chains) == len(set(sb.chains))

    def test_membership_32(self):
        sb = seminormal_basis(TensorModule(P32, P32))
        for idx in range(sb.dim):
            assert chain_membership(sb, idx)

    def test_eps_leaf_is_the_eigenline(self):
        sb = seminormal_basis(TensorModule(P32, P32))
        idx = sb.chain_index(
            SeminormalChainLabel(tuple([lbl("eps+")] * 4))
        )
        eps = epsilon_plus_vector(P32)
        lead = next(x for row in eps for x in row if x)
        eps = [[x / lead for x in row] for row in eps]
        assert sb.vectors[idx] == eps

    def test_submodule_input(self):
        mod = build_irreducible(lbl("+2,1"), 3)
        sb = seminormal_basis(mod)
        assert sb.dim == 2
        assert all(c.level(3) == lbl("+2,1") for c in sb.chains)
        for idx in range(sb.dim):
            assert chain_membership(sb, idx)

    def test_eps_module_single_vector(self):
        mod = build_irreducible(lbl("eps+"), 4)
        sb = seminormal_basis(mod)
        assert sb.dim == 1
        assert all(l == lbl("eps+") for l in sb.chains[0].labels)

    def test_deterministic(self):
        a = seminormal_basis(TensorModule(P32, P32))
        b = seminormal_basis(TensorModule(P32, P32))
        assert a.chains == b.chains
        assert a.vectors == b.vectors

    def test_normalization(self):
        sb = seminormal_basis(TensorModule(P32, P32))
        for v in sb.vectors:
            lead = next(x for row in v for x in row if x)
            assert lead == R_ONE


class TestTensorSquareChainDiffers:
    def test_regression_snapshot(self):
        # splitting along the chain of full tensor-square algebras
        # yields only rank-1 leaf matrices, so its leaf lines cannot all
        # agree with the nonstandard chain: the eps+ leaf has full rank
        tm = TensorModule(P32, P32)
        hh = hh_chain_basis(tm)
        assert len(hh) == 25
        for _, v in hh:
            assert rank(v) == 1
        ns = seminormal_basis(tm)
        idx = ns.chain_index(
            SeminormalChainLabel(tuple([lbl("eps+")] * 4))
        )
        eps_vec = ns.vectors[idx]
        assert rank(eps_vec) == 5
        assert all(v != eps_vec for _, v in hh)
        # concrete differing pair: the two chains agree on the ambient
        # but partition it into different sets of lines
        assert {tuple(map(tuple, v)) for _, v in hh} != {
            tuple(map(tuple, v)) for v in ns.vectors
        }
