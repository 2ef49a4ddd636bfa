from fractions import Fraction
from math import gcd

from hypothesis import given, strategies as st

from nstl.linalg import IntSpanBasis, SpanBasis

# few distinct entries, so that dependent vectors turn up often
int_vectors = st.lists(
    st.lists(st.integers(min_value=-3, max_value=3), min_size=5, max_size=5),
    max_size=12,
)


@given(int_vectors)
def test_int_span_accepts_like_fraction_span(vectors):
    exact, fraction = IntSpanBasis(), SpanBasis()
    for v in vectors:
        assert exact.add(v) == fraction.add([Fraction(x) for x in v])
    assert len(exact) == len(fraction)


@given(int_vectors)
def test_int_span_rows_are_primitive_and_pivoted(vectors):
    span = IntSpanBasis()
    for v in vectors:
        span.add([7 * x for x in v])
    for k, (row, p) in enumerate(zip(span.rows, span.pivots)):
        assert row[p] and gcd(*row.values()) == 1
        assert all(other.get(p, 0) == 0 for other in span.rows[k + 1 :])
