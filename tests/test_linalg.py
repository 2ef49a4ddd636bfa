from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nstl.exact_arith import LaurentPoly
from nstl.linalg import mat_mul

from dimension_oracle import ListSpanBasisModP, SpanBasisModP
from specht_oracle import SpanBasis

# few distinct entries, so that dependent vectors turn up often
int_vectors = st.lists(
    st.lists(st.integers(min_value=-3, max_value=3), min_size=5, max_size=5),
    max_size=12,
)


# a prime above every minor of these vectors (Hadamard: (3 sqrt 5)^5 <
# 13,600), so their ranks over F_p and over Q agree
BIG_PRIME = 1000003


@given(int_vectors)
def test_list_span_accepts_like_fraction_span(vectors):
    modp, fraction = ListSpanBasisModP(BIG_PRIME), SpanBasis()
    for v in vectors:
        assert modp.add(v) == fraction.add([Fraction(x) for x in v])
    assert len(modp) == len(fraction)


@given(int_vectors)
def test_list_span_accepts_like_numpy_span_one_vector_per_level(vectors):
    np = pytest.importorskip("numpy")
    listed, levels = ListSpanBasisModP(BIG_PRIME), SpanBasisModP(5, BIG_PRIME)
    for v in vectors:
        assert [listed.add(v)] == levels.add_level(np.array([v], dtype=np.int64))
    assert len(listed) == len(levels)


@given(int_vectors)
def test_list_span_rows_are_pivoted(vectors):
    span = ListSpanBasisModP(BIG_PRIME)
    for v in vectors:
        span.add([7 * x for x in v])
    # a 1 at each pivot, 0 at the pivots of the rows before it
    for k, (row, p) in enumerate(zip(span.rows, span.pivots)):
        assert all(0 <= x < BIG_PRIME for x in row)
        assert [row[q] for q in span.pivots[: k + 1]] == [0] * k + [1]


@given(int_vectors, st.lists(st.integers(min_value=1, max_value=4)))
def test_mod_p_levels_accept_like_one_at_a_time(vectors, cuts):
    np = pytest.importorskip("numpy")
    listed, modp = ListSpanBasisModP(BIG_PRIME), SpanBasisModP(5, BIG_PRIME)
    want = [listed.add(v) for v in vectors]
    got, start = [], 0
    for size in cuts + [len(vectors)]:
        level = vectors[start : start + size]
        if level:
            got += modp.add_level(np.array(level, dtype=np.int64))
        start += size
    assert got == want
    assert len(modp) == len(listed)
    # reduced echelon: a 1 at each pivot, 0 at the pivots of the others
    for row, p in zip(modp.rows, modp.pivots):
        assert [int(row[q]) for q in modp.pivots] == [int(q == p) for q in modp.pivots]


class _ZeroNoMul(LaurentPoly):
    """A zero LaurentPoly that must never be multiplied."""

    __slots__ = ()

    def __mul__(self, other):
        raise AssertionError("mat_mul multiplied a zero entry")

    __rmul__ = __mul__


def test_mat_mul_skips_laurent_zeros():
    o, u, z = LaurentPoly({0: 1}), LaurentPoly({1: 1}), _ZeroNoMul()
    A = [[z, u], [z, z]]
    B = [[u, z], [o + o, u]]
    C = mat_mul(A, B)
    assert C == [[u + u, u * u], [LaurentPoly(), LaurentPoly()]]
