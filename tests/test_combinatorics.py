import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from nstl.combinatorics import (
    DEGraph,
    Partition,
    Permutation,
    Tableau,
    all_permutations,
    de_distance,
    descent_set,
    dkt_edges,
    partitions_of,
    row_superstandard,
    rsk,
    rsk_inverse,
    strong_components,
    syt_count,
    syt_enumerate,
    two_row_partitions,
    y_tableau,
)

T = Tableau


def tab(s):
    return Tableau([[int(c) for c in row] for row in s.split("/")])


perm_st = st.permutations(range(1, 7)).map(Permutation)


class TestPermutation:
    def test_compose_convention(self):
        # (w*v)(i) = w(v(i))
        w = Permutation([2, 3, 1])
        v = Permutation([1, 3, 2])
        assert (w * v).word == (2, 1, 3)

    def test_length_and_descents(self):
        w0 = Permutation((4, 3, 2, 1))
        assert w0.length() == 6
        assert w0.right_descents() == frozenset({1, 2, 3})
        s2 = Permutation.simple(4, 2)
        assert s2.right_descents() == frozenset({2})
        assert Permutation.identity(4).right_descents() == frozenset()

    @given(perm_st, perm_st)
    def test_length_cocycle(self, w, v):
        assert (w * v).length() <= w.length() + v.length()
        inverse = Permutation(sorted(range(1, w.r + 1), key=w))
        assert (w * inverse) == Permutation.identity(w.r)

    @given(st.integers(1, 7).flatmap(lambda r: st.permutations(range(1, r + 1))))
    def test_simple_products_carry_the_length(self, word):
        def fresh_length(v):
            return Permutation(v.word).length()

        measured = Permutation(word)
        measured.length()
        for start in (Permutation(word), measured):
            for i in range(1, len(word)):
                for v in (start.times_simple_left(i), start.times_simple_right(i)):
                    assert v.length() == fresh_length(v)
        # a walk on which every length is handed on from the step before
        v = measured
        for i in range(1, len(word)):
            for step in (Permutation.times_simple_left, Permutation.times_simple_right):
                v = step(v, i)
                assert v.length() == fresh_length(v)

    def test_constructor_validates(self):
        for word in ((1, 1, 2), (0, 1), (2, 3)):
            with pytest.raises(ValueError):
                Permutation(word)
        for i in (0, 3):
            with pytest.raises(ValueError):
                Permutation((1, 2, 3)).times_simple_right(i)
            with pytest.raises(ValueError):
                Permutation((1, 2, 3)).times_simple_left(i)

    def test_reduced_word(self):
        for w in all_permutations(4):
            word = w.reduced_word()
            assert len(word) == w.length()
            prod = Permutation.identity(4)
            for i in word:
                prod = prod * Permutation.simple(4, i)
            assert prod == w


class TestPartition:
    def test_conjugate_involution(self):
        for lam in partitions_of(6):
            assert lam.conjugate().conjugate() == lam
        assert Partition([3, 2]).conjugate() == Partition([2, 2, 1])

    def test_corners_west_to_east(self):
        cs = Partition([3, 2]).corners()
        assert cs == [(1, 1), (0, 2)]
        assert Partition([4, 4, 2]).corners() == [(2, 1), (1, 3)]
        assert Partition([5]).corners() == [(0, 4)]

    def test_remove_corner(self):
        lam = Partition([3, 2])
        assert lam.remove_corner(0) == Partition([3, 1])
        assert lam.remove_corner(1) == Partition([2, 2])

    def test_parse_roundtrip(self):
        assert Partition.parse("3,2") == Partition([3, 2])
        assert str(Partition([3, 2])) == "3,2"
        with pytest.raises(ValueError):
            Partition([2, 3])
        assert Partition.parse("3,2,0,0") == Partition([3, 2])
        for parts in ([3, 0, 2], [0, 1]):
            with pytest.raises(ValueError, match="not a partition"):
                Partition(parts)

    def test_dominance(self):
        assert Partition([3, 1]).dominates(Partition([2, 2]))
        assert not Partition([2, 2]).dominates(Partition([3, 1]))
        assert Partition([2, 2]).dominates(Partition([2, 2]))


class TestRSK:
    def test_increasing_word(self):
        P, Q = rsk([1, 2, 3])
        assert P == Q == tab("123")

    def test_single_descent(self):
        P, Q = rsk([2, 1])
        assert P == Q == tab("1/2")

    def test_roundtrip_s4(self):
        for w in all_permutations(4):
            P, Q = rsk(w.word)
            assert P.shape == Q.shape
            assert P.is_standard() and Q.is_standard()
            assert rsk_inverse(P, Q) == w.word

    def test_bijective_s6(self):
        seen = set()
        for w in all_permutations(6):
            P, Q = rsk(w.word)
            seen.add((P, Q))
        assert len(seen) == 720

    def test_q_of_w0_w_is_transpose(self):
        for r in (3, 4, 5):
            w0 = Permutation(range(r, 0, -1))
            for w in all_permutations(r):
                _, Q = rsk(w.word)
                _, Q2 = rsk((w0 * w).word)
                assert Q2 == Q.transpose()


class TestSYT:
    def test_counts(self):
        assert syt_count(Partition([3, 2])) == 5
        assert syt_count(Partition([5])) == 1
        total = sum(syt_count(lam) for lam in two_row_partitions(4))
        assert total == 6

    def test_enumeration_standard_and_unique(self):
        for lam in partitions_of(5):
            ts = syt_enumerate(lam)
            assert len(set(ts)) == len(ts)
            assert all(t.is_standard() and t.shape == lam for t in ts)

    def test_canonical_order_32(self):
        order = [str(t) for t in syt_enumerate(Partition([3, 2]))]
        assert order == ["135/24", "134/25", "125/34", "124/35", "123/45"]

    def test_y_tableau(self):
        assert y_tableau(Partition([2, 2])) == tab("13/24")
        assert y_tableau(Partition([3, 2])) == tab("135/24")
        assert y_tableau(Partition([4])) == tab("1234")
        with pytest.raises(ValueError):
            y_tableau(Partition([2, 2, 1]))

    def test_row_superstandard(self):
        assert row_superstandard(Partition([3, 2])) == tab("123/45")


FIG1_VERTICES = ["123/45", "124/35", "134/25", "135/24", "125/34"]
FIG1_LOWER = [{1, 2, 4}, {1, 3}, {2, 3}, {2, 4}, {1, 3, 4}]
FIG1_UPPER = [{3}, {2, 4}, {1, 4}, {1, 3}, {2}]


class TestDescents:
    def test_figure_descent_rows(self):
        for s, lo, up in zip(FIG1_VERTICES, FIG1_LOWER, FIG1_UPPER):
            Q = tab(s)
            assert descent_set(Q, "lower") == frozenset(lo)
            assert descent_set(Q, "upper") == frozenset(up)

    def test_row_tableau(self):
        Q = tab("12345")
        assert descent_set(Q, "lower") == frozenset({1, 2, 3, 4})
        assert descent_set(Q, "upper") == frozenset()

    def test_lower_upper_partition(self):
        for lam in partitions_of(5):
            for Q in syt_enumerate(lam):
                lo = descent_set(Q, "lower")
                up = descent_set(Q, "upper")
                assert lo & up == frozenset()
                assert lo | up == frozenset(range(1, 5))

    def test_bad_convention(self):
        with pytest.raises(ValueError):
            descent_set(tab("12"), "standard")


class TestDEGraph:
    def test_figure_32_edges(self):
        g = dkt_edges(Partition([3, 2]))
        expected = {
            ("123/45", "124/35", 3),
            ("123/45", "124/35", 4),
            ("124/35", "134/25", 2),
            ("134/25", "135/24", 4),
            ("135/24", "125/34", 2),
            ("135/24", "125/34", 3),
        }
        got = {
            tuple(sorted((str(a), str(b)))) + (i,) for a, b, i in g.edges
        }
        assert got == {tuple(sorted((a, b))) + (i,) for a, b, i in expected}

    def test_single_row_no_edges(self):
        assert dkt_edges(Partition([4])).edges == frozenset()

    def test_edges_swap_adjacent_and_preserve_shape(self):
        for lam in partitions_of(5):
            for a, b, i in dkt_edges(lam).edges:
                assert a.shape == b.shape == lam
                diff = {
                    x
                    for row_a, row_b in zip(a.rows, b.rows)
                    for x, y in zip(row_a, row_b)
                    if x != y
                }
                assert len(diff) == 2 and max(diff) - min(diff) == 1

    def test_connected_up_to_r6(self):
        for r in range(2, 7):
            for lam in partitions_of(r):
                for Q in syt_enumerate(lam):
                    de_distance(Q)  # raises if disconnected

    def test_corner_edges_exist(self):
        # distinct corners are joined by a DKT_{r-1} edge moving r
        for r in (4, 5, 6):
            for lam in partitions_of(r):
                g = dkt_edges(lam)
                cs = lam.corners()
                for i, j in itertools.permutations(range(len(cs)), 2):
                    found = False
                    for a, b, lab in g.edges:
                        if lab != r - 1:
                            continue
                        for Tt, Tp in ((a, b), (b, a)):
                            if (
                                Tt.position(r) == cs[i]
                                and Tp.position(r) == cs[j]
                                and Tt.position(r - 1) == cs[j]
                                and Tp.position(r - 1) == cs[i]
                            ):
                                found = True
                    assert found, (lam, i, j)


class TestDEDistance:
    def test_superstandard_zero(self):
        for lam in partitions_of(5):
            assert de_distance(row_superstandard(lam)) == 0

    def test_32_distances(self):
        got = [de_distance(tab(s)) for s in FIG1_VERTICES]
        assert got == [0, 1, 2, 3, 4]

    def test_parity_matches_length_difference(self):
        for lam in partitions_of(5):
            zs = row_superstandard(lam)
            for P in syt_enumerate(lam):
                z = Permutation(rsk_inverse(P, zs))
                for Q in syt_enumerate(lam):
                    w = Permutation(rsk_inverse(P, Q))
                    assert de_distance(Q) % 2 == (w.length() - z.length()) % 2


class TestSerialization:
    def test_tableau_json(self):
        t = tab("123/45")
        assert t.to_json() == {"shape": [3, 2], "rows": [[1, 2, 3], [4, 5]]}

    def test_de_graph_json(self):
        g = dkt_edges(Partition([3, 2]))
        data = g.to_json()
        assert data["shape"] == [3, 2]
        assert len(data["vertices"]) == 5
        assert len(data["edges"]) == 6


def random_digraph(rng):
    """{vertex: successors} on up to 12 vertices; some successors are
    not vertices."""
    n = rng.randrange(13)
    p = rng.choice([0.05, 0.15, 0.3, 0.6])
    return {
        v: {w for w in range(n + 2) if rng.random() < p} for v in range(n)
    }


def reachable(edges, v):
    seen, todo = {v}, [v]
    while todo:
        for w in edges[todo.pop()]:
            if w in edges and w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


class TestStrongComponents:
    def test_agrees_with_reachability(self):
        rng = random.Random(20)
        for _ in range(1000):
            edges = random_digraph(rng)
            reach = {v: reachable(edges, v) for v in edges}
            comps = strong_components(edges)
            assert sorted(v for comp in comps for v in comp) == sorted(edges)
            for comp in comps:
                v = comp[0]
                assert set(comp) == {w for w in reach[v] if v in reach[w]}

    def test_components_come_in_topological_order(self):
        # every edge between components runs forward, so the first
        # component is a source: no vertex outside it reaches it
        rng = random.Random(21)
        for _ in range(1000):
            edges = random_digraph(rng)
            comps = strong_components(edges)
            index = {v: k for k, comp in enumerate(comps) for v in comp}
            for v, succ in edges.items():
                for w in succ:
                    assert w not in index or index[v] <= index[w]
