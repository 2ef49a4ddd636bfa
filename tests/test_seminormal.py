import itertools
import os
import pathlib
import subprocess
import sys

import pytest

from nstl import seminormal, specht_modules
from nstl.combinatorics import (
    Partition,
    Tableau,
    partitions_of,
    syt_count,
    syt_enumerate,
    two_row_partitions,
    y_tableau,
)
from nstl.exact_arith import R_ONE, R_ZERO, RationalFn
from nstl.linalg import identity, mat_mul, mat_transpose, rref
from nstl.nonstandard import (
    NsIrredLabel,
    NsSubmodule,
    TensorModule,
    build_irreducible,
    epsilon_plus_vector,
    ns_labels,
)
from nstl.seminormal import (
    MultiplicityError,
    SeminormalBasis,
    SeminormalChainLabel,
    _gt_basis,
    _paths,
    alpha,
    chain_membership,
    seminormal_basis,
    seminormal_table,
)
from nstl.specht_modules import build_specht
from nstl.verify import check_seminormal

from isotypic_oracle import (
    dense_ops,
    dense_split,
    hh_pieces,
    in_lower,
    isotypic_split,
    lower_leaves,
    mat_add,
    nonstandard_pieces,
    to_dense,
    to_gt,
    to_lower,
    to_sparse,
)

# sha256 of the (3,2) x (3,2) seminormal chains and lower vectors
DIGEST_32 = """
import hashlib
from nstl.combinatorics import Partition
from nstl.nonstandard import TensorModule
from nstl.seminormal import seminormal_basis
from isotypic_oracle import lower_leaves
lam = Partition([3, 2])
sb = seminormal_basis(TensorModule(lam, lam))
text = repr([(str(c), [[str(x) for x in row] for row in v])
             for c, v in zip(sb.chains, lower_leaves(sb))])
print(hashlib.sha256(text.encode()).hexdigest())
"""


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
        idx = sb.chains.index(SeminormalChainLabel(tuple([lbl("eps+")] * 4)))
        eps = to_dense(epsilon_plus_vector(P32), TensorModule(P32, P32))
        lead = next(x for row in eps for x in row if x)
        eps = [[x / lead for x in row] for row in eps]
        assert lower_leaves(sb)[idx] == eps

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
        # two processes under different hash seeds, so set and dict
        # iteration order differ; a rebuild in one process would only
        # read the caches back (see the next test)
        here = pathlib.Path(__file__).resolve().parent
        path = os.pathsep.join(
            filter(None, (str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")))
        )
        digests = {
            subprocess.run(
                [sys.executable, "-c", DIGEST_32],
                env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for seed in ("0", "1")
        }
        assert len(digests) == 1 and len(digests.pop()) == 65

    def test_rebuild_reads_only_the_gt_caches(self):
        """Once the tuple-valued _gt_basis caches are warm, a rebuild in
        the same process reads nothing list-valued: corrupting every
        cached _paths matrix and every Specht action, transition and
        branching matrix in place leaves the basis unchanged. So a
        second build in one process cannot check determinism; the
        golden digests, recorded per process, do that."""
        caches = (_gt_basis, _paths, specht_modules._build_specht)
        junk = RationalFn.from_int(-3)

        def corrupt(M):
            for row in M:
                row[:] = [junk] * len(row)

        for cache in caches:
            cache.cache_clear()
        try:
            sb = seminormal_basis(TensorModule(P32, P32))
            shapes = {s for seq in _gt_basis(P32.parts).seqs for s in seq}
            # X^-1, which the basis does not read, is formed from the
            # GT bases before anything is corrupted
            for lam in shapes:
                build_specht(lam).transition_inv
            for lam in shapes:
                for iota, pi, _ in _paths(lam.parts):
                    corrupt(iota)
                    corrupt(pi)
                m = build_specht(lam)
                corrupt(m.transition)
                corrupt(m.transition_inv)
                for M in (*m.lower_action.values(), *m.upper_action.values()):
                    corrupt(M)
                for _, iota, pi, proj in m.branching:
                    for M in (iota, pi, proj):
                        corrupt(M)
            assert build_specht(P32).lower_action[1][0][0] == junk
            again = seminormal_basis(TensorModule(P32, P32))
            assert again.chains == sb.chains
            assert again.leaves == sb.leaves
        finally:
            for cache in caches:
                cache.cache_clear()

    def test_normalization(self):
        # each leaf is the row the descent's last row reduction leaves:
        # sparse GT coordinates, no zero entry, 1 at its first key
        sb = seminormal_basis(TensorModule(P32, P32))
        for v in sb.leaves:
            assert isinstance(v, dict) and all(v.values())
            assert v[min(v)] == R_ONE

    def test_check_forms_no_lower_leaf(self, monkeypatch):
        # the check cuts the stored GT leaves: with the GT bases warm it
        # multiplies no matrix, so no lower (x) lower leaf is formed (the
        # library has no way back from lower to GT coordinates)
        assert check_seminormal()["ok"]
        calls = []
        real = seminormal.mat_mul

        def counted(*args):
            calls.append("mat_mul")
            return real(*args)

        monkeypatch.setattr(seminormal, "mat_mul", counted)
        assert check_seminormal() == {"ok": True, "leaves": 25}
        assert calls == []


def isotypic_chain_membership(basis, idx):
    """Oracle for chain_membership: at every level the leaf equals its
    isotypic component under the chain's label, split from the top
    module in lower coordinates with isotypic_oracle.isotypic_split."""
    tm = basis.ambient
    (v,) = in_lower(tm, [basis.leaves[idx]])
    chain = basis.chains[idx]
    for k in range(chain.r, 1, -1):
        split = isotypic_split(tm.lam, tm.mu, k, v, nonstandard_pieces)
        if split.get(chain.level(k)) != v:
            return False
    return True


MEMBERSHIP_PAIRS = list(two_row_pairs(4)) + [(P32, P32)]


class TestMembershipOracle:
    """The one-step-at-a-time membership against the isotypic split."""

    @pytest.mark.parametrize("pair", MEMBERSHIP_PAIRS, ids=str)
    def test_every_leaf(self, pair):
        sb = seminormal_basis(TensorModule(*pair))
        for idx in range(sb.dim):
            assert chain_membership(sb, idx)
            assert isotypic_chain_membership(sb, idx)

    @pytest.mark.parametrize("pair", MEMBERSHIP_PAIRS, ids=str)
    def test_perturbed_swapped_and_zero(self, pair):
        """Per leaf: the leaf plus the next leaf, the leaf with one
        entry moved, the leaf under the next leaf's chain, and the zero
        vector under the leaf's chain, perturbed in lower (x) lower
        coordinates and taken to GT coordinates by to_gt, a bijection."""
        tm = TensorModule(*pair)
        sb = seminormal_basis(tm)
        n = sb.dim
        lower = lower_leaves(sb)
        zero = [[R_ZERO] * len(row) for row in lower[0]]
        vectors, chains = [], []
        for idx in range(n):
            v, chain = lower[idx], sb.chains[idx]
            moved = [row[:] for row in v]
            moved[0][0] = moved[0][0] + R_ONE
            vectors += [mat_add(v, lower[(idx + 1) % n]), moved, v, zero]
            chains += [chain, chain, sb.chains[(idx + 1) % n], chain]
        leaves = [to_gt(v, tm) for v in vectors]
        assert in_lower(tm, leaves) == vectors
        probe = SeminormalBasis(tm, leaves, chains)
        got = [chain_membership(probe, j) for j in range(len(vectors))]
        assert got == [
            isotypic_chain_membership(probe, j) for j in range(len(vectors))
        ]
        assert not any(got[3::4])
        if n > 1:
            assert not any(got[0::4]) and not any(got[2::4])


class TestIrreducibleLeaves:
    """The seminormal basis of each irreducible of rank 5, which no
    command builds: one line per dimension, distinct chains, and every
    leaf in its chain's components in both coordinate systems."""

    @pytest.mark.parametrize("label", ns_labels(5), ids=str)
    def test_rank_5(self, label):
        sb = seminormal_basis(build_irreducible(label, 5))
        assert sb.dim == label.dimension(5)
        assert len(set(sb.chains)) == sb.dim
        for idx in range(sb.dim):
            assert chain_membership(sb, idx)
            assert isotypic_chain_membership(sb, idx)


class TestTensorSquareChainDiffers:
    def test_regression_snapshot(self):
        # splitting along the chain of full tensor-square algebras
        # yields only rank-1 leaf matrices, so its leaf lines cannot all
        # agree with the nonstandard chain: the eps+ leaf has full rank
        tm = TensorModule(P32, P32)
        units = [to_dense(e, tm) for e in tm.unit_vectors()]
        hh = dense_split(tm, units, hh_pieces)
        assert len(hh) == 25
        for _, v in hh:
            assert len(rref(v)[0]) == 1
        ns = seminormal_basis(tm)
        idx = ns.chains.index(SeminormalChainLabel(tuple([lbl("eps+")] * 4)))
        ns_vectors = lower_leaves(ns)
        eps_vec = ns_vectors[idx]
        assert len(rref(eps_vec)[0]) == 5
        assert all(v != eps_vec for _, v in hh)
        # concrete differing pair: the two chains agree on the ambient
        # but partition it into different sets of lines
        assert {tuple(map(tuple, v)) for _, v in hh} != {
            tuple(map(tuple, v)) for v in ns_vectors
        }


# ---------------------------------------------------------------------
# Gelfand-Tsetlin coordinates


def two_row_shapes(max_n):
    for n in range(1, max_n + 1):
        yield from two_row_partitions(n)


def is_diagonal(M):
    return all(
        not x for a, row in enumerate(M) for b, x in enumerate(row) if a != b
    )


class TestGTBasis:
    @pytest.mark.parametrize("lam", list(two_row_shapes(6)), ids=str)
    def test_inverse_pair_with_diagonal_forms(self, lam):
        gt = _gt_basis(lam.parts)
        m = build_specht(lam)
        V, Pi = [list(row) for row in gt.V], [list(row) for row in gt.Pi]
        assert mat_mul(Pi, V) == identity(m.dim, R_ONE, R_ZERO)
        G = mat_mul(mat_transpose(V), mat_mul(m.transition, V))
        H = mat_mul(Pi, mat_mul(m.transition_inv, mat_transpose(Pi)))
        assert is_diagonal(G) and is_diagonal(H)
        assert list(gt.g) == [G[a][a] for a in range(m.dim)]
        assert list(gt.E) == [H[a][a] for a in range(m.dim)]
        assert len(set(gt.seqs)) == m.dim
        assert all(seq[0] == lam and seq[-1].size == 1 for seq in gt.seqs)

    def test_fields_are_tuples(self):
        gt = _gt_basis(P32.parts)
        for field in (gt.V, gt.Pi, gt.seqs, gt.g, gt.E):
            assert isinstance(field, tuple)
        assert all(isinstance(row, tuple) for row in gt.V + gt.Pi)

    def _build_with(self, monkeypatch, change):
        """Build the (3,2) GT basis, bypassing the cache, from paths
        whose embeddings and projections `change` rewrites."""
        paths = seminormal._paths(P32.parts)
        _gt_basis(P32.parts)  # the children's bases stay the cached ones
        monkeypatch.setattr(seminormal, "_paths", lambda parts: change(paths))
        return _gt_basis.__wrapped__(P32.parts)

    def test_rejects_pi_not_inverse(self, monkeypatch):
        def scale_first_iota(paths):
            (iota, pi, seq), *rest = paths
            iota = [[x + x for x in row] for row in iota]
            return [(iota, pi, seq)] + rest

        with pytest.raises(ArithmeticError, match="identity"):
            self._build_with(monkeypatch, scale_first_iota)

    def test_rejects_non_diagonal_form(self, monkeypatch):
        def shear(paths):
            # iota_0 + iota_1 and pi_1 - pi_0: still inverse, not GT
            (i0, p0, s0), (i1, p1, s1), *rest = paths
            i0 = [[a + b for a, b in zip(x, y)] for x, y in zip(i0, i1)]
            p1 = [[b - a for a, b in zip(x, y)] for x, y in zip(p0, p1)]
            return [(i0, p0, s0), (i1, p1, s1)] + rest

        with pytest.raises(ArithmeticError, match="not diagonal"):
            self._build_with(monkeypatch, shear)


class TestGTAction:
    @pytest.mark.parametrize("pair", list(two_row_pairs(5)), ids=str)
    def test_matches_the_lower_action(self, pair):
        # P_i applied in GT coordinates, against the round trip through
        # lower (x) lower coordinates
        tm = TensorModule(*pair)
        left, right = _gt_basis(tm.lam.parts), _gt_basis(tm.mu.parts)
        for i in range(1, tm.r):
            for C in tm.unit_vectors():
                lower = tm.p_apply(to_sparse(to_lower(C, left, right)), i)
                assert tm.p_apply(C, i, "gg") == to_gt(to_dense(lower, tm), tm)


class TestGTFactors:
    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_both_factors_are_the_dense_products(self, r):
        # p_factors(i, "g") reads C_{s_i}'s factor off C'_{s_i}'s as
        # Pi L_i V - [2] I: each GT factor must be the dense Pi A V of
        # its lower factor A, for every shape and every i
        for lam in partitions_of(r):
            gt = _gt_basis(lam.parts)
            for i in range(1, r):
                factors = [A for A, _ in dense_ops(TensorModule(lam, lam), i, "ll")]
                gt_factors = build_specht(lam).p_factors(i, "g")
                for A, cols in zip(factors, gt_factors, strict=True):
                    dense = mat_mul(gt.Pi, mat_mul(A, gt.V))
                    assert cols == tuple(
                        tuple((a, x) for a, x in enumerate(col) if x)
                        for col in zip(*dense)
                    )


def printed(leaves):
    return "\n".join(
        " > ".join(map(str, chain))
        + " : "
        + "; ".join(", ".join(map(str, row)) for row in v)
        for chain, v in leaves
    )


class TestDenseOracle:
    """The GT descent prints exactly what the dense one prints."""

    @pytest.mark.parametrize("pair", list(two_row_pairs(5)), ids=str)
    def test_tensor_products(self, pair):
        tm = TensorModule(*pair)
        sb = seminormal_basis(tm)
        assert printed(
            (c.labels, v) for c, v in zip(sb.chains, lower_leaves(sb))
        ) == printed(
            dense_split(
                tm, [to_dense(e, tm) for e in tm.unit_vectors()], nonstandard_pieces
            )
        )

    @pytest.mark.parametrize(
        "label,r", [(l, r) for r in (3, 4) for l in ns_labels(r)], ids=str
    )
    def test_irreducibles(self, label, r):
        mod = build_irreducible(label, r)
        sb = seminormal_basis(mod)
        assert printed(
            (c.labels, v) for c, v in zip(sb.chains, lower_leaves(sb))
        ) == printed(
            dense_split(
                mod.ambient, in_lower(mod.ambient, mod.basis), nonstandard_pieces
            )
        )

    def test_dependent_submodule_basis_is_rejected(self):
        mod = build_irreducible(lbl("+2,1"), 3)
        twice = NsSubmodule(mod.label, mod.ambient, mod.basis + mod.basis[:1])
        with pytest.raises(MultiplicityError):
            seminormal_basis(twice)
