import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nstl.exact_arith import (
    L_ONE,
    LaurentPoly,
    _dense_div_exact,
    _poly_of,
    PoleError,
    RationalFn,
    common_denominator,
    quantum_int,
)

lp = st.builds(
    LaurentPoly,
    st.dictionaries(
        st.integers(min_value=-6, max_value=6),
        st.integers(min_value=-50, max_value=50),
        max_size=6,
    ),
)
lp_nonzero = lp.filter(lambda p: not p.is_zero())


def rf(n, d):
    return RationalFn(n, d)


def parts(x):
    """(numerator, denominator) of a RationalFn, LaurentPoly or int as
    LaurentPolys; a RationalFn's are read off its canonical tuples."""
    if isinstance(x, int):
        return LaurentPoly({0: x}), L_ONE
    if isinstance(x, LaurentPoly):
        return x, L_ONE
    top = LaurentPoly({x.shift + i: c for i, c in enumerate(x.top)})
    return top, LaurentPoly(dict(enumerate(x.bot)))


def test_quantum_int_values():
    assert quantum_int(0) == LaurentPoly()
    assert quantum_int(2) == LaurentPoly({1: 1, -1: 1})
    assert quantum_int(3) == LaurentPoly({2: 1, 0: 1, -2: 1})
    with pytest.raises(ValueError):
        quantum_int(-1)


def test_quantum_int_bar_invariant():
    for k in range(8):
        assert quantum_int(k).bar() == quantum_int(k)


def test_bar_examples():
    p = LaurentPoly({2: 1, 1: 3})
    assert p.bar() == LaurentPoly({-2: 1, -1: 3})
    assert LaurentPoly().bar() == LaurentPoly()


@settings(max_examples=1000)
@given(lp, lp, lp)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + LaurentPoly() == a
    assert a * LaurentPoly({0: 1}) == a
    assert a - a == LaurentPoly()


@given(lp)
def test_bar_involution(a):
    assert a.bar().bar() == a


@given(lp, lp)
def test_bar_is_ring_map(a, b):
    assert (a + b).bar() == a.bar() + b.bar()
    assert (a * b).bar() == a.bar() * b.bar()


def test_rational_canonical_form():
    u = LaurentPoly({1: 1})
    one = LaurentPoly({0: 1})
    # u / u^2 = 1 / u, canonicalized with polynomial denominator
    f = rf(u, u * u)
    assert f == rf(LaurentPoly({-1: 1}), one)
    # common factor cancels
    g = rf(u * u - one, u - one)
    assert g == rf(u + one, one)
    # denominator sign normalization
    h = rf(one, LaurentPoly({0: -2}))
    assert (h.shift, h.top, h.bot) == (0, (-1,), (2,))
    assert parts(h) == (-1, 2)


@settings(max_examples=300)
@given(lp, lp_nonzero, lp, lp_nonzero)
def test_rational_equality_is_cross_multiplication(a, b, c, d):
    assert (rf(a, b) == rf(c, d)) == (a * d == c * b)


def test_val_examples():
    u = LaurentPoly({1: 1})
    one = LaurentPoly({0: 1})
    f = rf(u, one + u * u)
    assert f.val0() == 1 and f.val_inf() == 1
    two = RationalFn(quantum_int(2))
    assert two.val0() == -1 and two.val_inf() == -1
    assert RationalFn(one).val0() == 0 and RationalFn(one).val_inf() == 0
    assert RationalFn(LaurentPoly()).val0() == math.inf
    assert RationalFn(LaurentPoly()).val_inf() == math.inf


@settings(max_examples=300)
@given(lp_nonzero, lp_nonzero, lp_nonzero, lp_nonzero)
def test_val_multiplicative_and_bar_swaps(a, b, c, d):
    f, g = rf(a, b), rf(c, d)
    assert (f * g).val0() == f.val0() + g.val0()
    assert (f * g).val_inf() == f.val_inf() + g.val_inf()
    assert f.bar().val0() == f.val_inf()


def test_specialize_examples():
    two = RationalFn(quantum_int(2))
    assert two.specialize(1) == 2
    assert (two * two).specialize(1) == 4
    u = LaurentPoly({1: 1})
    one = LaurentPoly({0: 1})
    with pytest.raises(PoleError):
        rf(u, u - one).specialize(1)
    assert rf(u, u - one).specialize(Fraction(7, 3)) == Fraction(7, 4)


@settings(max_examples=300)
@given(lp, lp_nonzero, lp, lp_nonzero)
def test_specialize_is_a_ring_map(a, b, c, d):
    u0 = Fraction(7, 3)
    f, g = rf(a, b), rf(c, d)
    try:
        fv, gv = f.specialize(u0), g.specialize(u0)
    except PoleError:
        return
    assert (f + g).specialize(u0) == fv + gv
    assert (f * g).specialize(u0) == fv * gv


@settings(max_examples=300)
@given(lp, lp_nonzero, lp_nonzero, lp_nonzero)
def test_field_axioms(a, b, c, d):
    f, g = rf(a, b), rf(c, d)
    if not g.is_zero():
        assert (f / g) * g == f
    assert f - f == RationalFn(LaurentPoly())
    assert f * g == g * f


def test_serialization():
    p = LaurentPoly({2: 1, 0: -1, -2: 3})
    assert str(p) == "u^2 + -1 + 3*u^-2"
    u = LaurentPoly({1: 1})
    one = LaurentPoly({0: 1})
    assert str(rf(u, one + u)) == "(u^1) / (u^1 + 1)"
    assert str(RationalFn(p)) == str(p)


def test_hash_agrees_with_equality():
    five = LaurentPoly.from_int(5)
    u = LaurentPoly({1: 1})
    assert five == 5 and hash(five) == hash(5)
    assert len({five, 5}) == 1
    assert LaurentPoly() == 0 and hash(LaurentPoly()) == hash(0)
    assert RationalFn(u) == u and hash(RationalFn(u)) == hash(u)
    assert len({RationalFn(u), u}) == 1
    assert len({RationalFn.from_int(5), five, 5}) == 1


@given(lp, lp_nonzero)
def test_equal_values_hash_equal(a, b):
    q = RationalFn(a * b, b)
    assert q == a and hash(q) == hash(a)


def fraction_div_exact(a, b):
    """Oracle for _dense_div_exact: long division in Q[x] through
    Fraction, then a check that the quotient is integral."""
    out = [0] * (len(a) - len(b) + 1)
    a = [Fraction(x) for x in a]
    db, lb = len(b) - 1, b[-1]
    for k in range(len(out) - 1, -1, -1):
        q = a[k + db] / lb
        out[k] = q
        for i, y in enumerate(b):
            a[k + i] -= q * y
    if any(a[:db]) or any(q.denominator != 1 for q in out):
        raise ArithmeticError("inexact polynomial division")
    return [int(q) for q in out]


def fraction_gcd(a, b):
    """Monic gcd in Q[x] of two dense integer polynomials, not both 0,
    by Euclid's algorithm on Fraction coefficients."""

    def trim(p):
        while p and not p[-1]:
            p.pop()
        return p

    a, b = trim([Fraction(x) for x in a]), trim([Fraction(x) for x in b])
    while b:
        while len(a) >= len(b):
            q, k = a[-1] / b[-1], len(a) - len(b)
            for i, y in enumerate(b):
                a[k + i] -= q * y
            trim(a)
        a, b = b, a
    return [x / a[-1] for x in a]


def dense_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


coeff = st.integers(min_value=-40, max_value=40)
dense_poly = st.lists(coeff, min_size=1, max_size=6).filter(lambda a: a[-1])
# a leading coefficient other than +-1, so a quotient step can be inexact
dense_divisor = st.lists(coeff, min_size=1, max_size=5).filter(
    lambda b: abs(b[-1]) > 1
)


@given(dense_poly, dense_divisor)
def test_div_exact_recovers_quotient(q, b):
    a = dense_mul(q, b)
    assert _dense_div_exact(a, b) == q == fraction_div_exact(a, b)


@given(dense_poly, dense_divisor)
def test_div_exact_rejects_non_multiples(q, b):
    # q b + 1 leaves remainder 1 when deg b > 0, and a constant term
    # that b does not divide when b is a constant other than +-1
    a = dense_mul(q, b)
    a[0] += 1
    for div in (_dense_div_exact, fraction_div_exact):
        with pytest.raises(ArithmeticError):
            div(a, b)


def test_inexact_division_raises():
    assert _dense_div_exact([1, 2, 1], [1, 1]) == [1, 1]
    for a, b in (([1, 0, 1], [1, 1]), ([1, 2], [2])):
        with pytest.raises(ArithmeticError):
            _dense_div_exact(a, b)


def test_adding_zero_skips_the_gcd(monkeypatch):
    from nstl import exact_arith

    u = LaurentPoly({1: 1})
    q = rf(u, LaurentPoly({0: 1}) + u)
    calls = []
    real_gcd = exact_arith._dense_gcd

    def counting_gcd(a, b):
        calls.append((a, b))
        return real_gcd(a, b)

    monkeypatch.setattr(exact_arith, "_dense_gcd", counting_gcd)
    zero = exact_arith.R_ZERO
    for total in (q + zero, zero + q, q + 0, 0 + q, q - zero):
        assert total == q
    assert zero + zero == zero
    assert calls == []


# Cross-cancelled operations against the full reduction of the product.

# factors that exercise the short cuts: units, u-shifts, integer content
# (2, 3 + 3u^2), a negative leading coefficient, and common factors
FACTORS = [
    LaurentPoly({0: -1}),
    LaurentPoly({0: 2}),
    LaurentPoly({0: 6}),
    LaurentPoly({1: 1}),
    LaurentPoly({-2: -3}),
    LaurentPoly({1: 1, 0: 1}),
    LaurentPoly({1: 1, 0: -1}),
    LaurentPoly({2: 3, 0: 3}),
    LaurentPoly({1: 1, -1: 1}),
    LaurentPoly({2: -2, 1: 1, 0: 4}),
]
factor = st.sampled_from(FACTORS) | lp_nonzero


def _multiply_all(factors):
    out = LaurentPoly({0: 1})
    for f in factors:
        out = out * f
    return out


nonzero_poly = st.lists(factor, min_size=1, max_size=3).map(_multiply_all)
poly = nonzero_poly | st.just(LaurentPoly())
rational = st.builds(RationalFn, poly, nonzero_poly)
operand = rational | poly | st.integers(min_value=-6, max_value=6)


def assert_same(got, want):
    assert got == want
    assert str(got) == str(want)


@settings(max_examples=500, deadline=None)
@given(rational, operand)
def test_cross_cancelled_ops_match_full_reduction(x, y):
    (a, b), (c, d) = parts(x), parts(y)
    assert_same(x * y, RationalFn(a * c, b * d))
    assert_same(x + y, RationalFn(a * d + c * b, b * d))
    assert_same(x - y, RationalFn(a * d - c * b, b * d))
    # LaurentPoly's own operators do not take a RationalFn
    if not isinstance(y, LaurentPoly):
        assert_same(y * x, RationalFn(a * c, b * d))
        assert_same(y + x, RationalFn(a * d + c * b, b * d))
        assert_same(y - x, RationalFn(c * b - a * d, b * d))
    if not c.is_zero():
        assert_same(x / y, RationalFn(a * d, b * c))
    if not a.is_zero():
        assert_same(y / x, RationalFn(c * b, d * a))


@settings(max_examples=200, deadline=None)
@given(st.lists(rational, min_size=2, max_size=4))
def test_cached_dense_forms_stay_fresh(values):
    seen = list(values)
    for x, y in zip(values, values[1:]):
        seen += [x * y, x + y, x - y, y * x * x]
        if not y.is_zero():
            seen.append(x / y)
    d, nums = common_denominator(seen)
    for x, num in zip(seen, nums):
        assert RationalFn(num, d) == x
    laurent = [p for p in map(RationalFn.as_laurent, seen) if p is not None]
    for p in [d, *nums, *laurent]:
        cached = p._dense
        if cached is not None:
            assert isinstance(cached[1], tuple)
            assert cached == _poly_of(LaurentPoly(p.coeffs))


POINTS = [0, 1, -1, 2, Fraction(7, 3), Fraction(-2, 5), Fraction(1, 4)]


def termwise(p, u0):
    """p(u0) summed term by term; a negative power of 0 raises."""
    return sum((c * u0**e for e, c in p.coeffs.items()), Fraction(0))


@settings(max_examples=300)
@given(rational, st.sampled_from(POINTS))
def test_specialize_matches_termwise_evaluation(f, u0):
    u0 = Fraction(u0)
    try:
        num, den = parts(f)
        want = termwise(num, u0) / termwise(den, u0)
    except ZeroDivisionError:  # PoleError is one
        with pytest.raises(PoleError):
            f.specialize(u0)
        return
    got = f.specialize(u0)
    assert isinstance(got, Fraction) and got == want


def test_specialize_poles():
    u = LaurentPoly({1: 1})
    two = LaurentPoly({0: 2})
    with pytest.raises(PoleError):
        RationalFn(LaurentPoly({-1: 1})).specialize(0)
    with pytest.raises(PoleError):
        rf(u, u - two).specialize(2)
    with pytest.raises(PoleError):
        rf(u, LaurentPoly({1: 3, 0: 1})).specialize(Fraction(-1, 3))
    assert RationalFn(LaurentPoly()).specialize(0) == 0
    assert rf(u, u - two).specialize(0) == 0


def test_cheap_operands_take_no_polynomial_gcd(monkeypatch):
    from nstl import exact_arith

    u = LaurentPoly({1: 1})
    one = LaurentPoly({0: 1})
    f = rf(u * u + one, LaurentPoly({0: 3}) * (u + one))
    calls = []
    real_gcd = exact_arith._dense_gcd

    def counting_gcd(a, b):
        calls.append((a, b))
        return real_gcd(a, b)

    monkeypatch.setattr(exact_arith, "_dense_gcd", counting_gcd)
    # a monomial numerator or a constant denominator needs an integer
    # gcd at most, a quotient's inverse none, and a sum with a
    # denominator 1 none
    f * 6, 6 * f, f * u, f / 6, f / u, 2 / f
    f + u, 1 + f, f - 2, rf(one, LaurentPoly({0: 4})) * f
    assert calls == []
    assert f * rf(u + one, u - one) == rf(u * u + one, LaurentPoly({0: 3}) * (u - one))
    assert calls


def test_laurent_truthiness():
    assert not LaurentPoly()
    assert not LaurentPoly({3: 0})
    assert LaurentPoly({-1: 2})
    assert not LaurentPoly({1: 1}) - LaurentPoly({1: 1})


# The field operations against an oracle that shares no code with them:
# canonical form checked on the tuples with a Fraction gcd, and the value
# by cross-multiplying in LaurentPoly arithmetic.


def assert_canonical(x):
    assert type(x.shift) is int
    assert type(x.top) is tuple and type(x.bot) is tuple
    assert all(type(c) is int for c in x.top + x.bot)
    if not x.top:
        assert (x.shift, x.bot) == (0, (1,))
        return
    assert x.top[0] and x.top[-1]
    assert x.bot[0] and x.bot[-1] > 0
    # gcd 1 in Z[u]: no common factor of positive degree, no common content
    assert fraction_gcd(x.top, x.bot) == [1]
    assert math.gcd(*x.top, *x.bot) == 1


@settings(max_examples=500, deadline=None)
@given(poly, nonzero_poly, operand)
def test_ops_are_canonical_and_cross_multiply(n, m, y):
    x = RationalFn(n, m)
    (a, b), (c, d) = parts(x), parts(y)
    cases = [
        (x, n, m),
        (x * y, a * c, b * d),
        (x + y, a * d + c * b, b * d),
        (x - y, a * d - c * b, b * d),
        (-x, -a, b),
        (x.bar(), a.bar(), b.bar()),
    ]
    # LaurentPoly's own operators do not take a RationalFn
    if not isinstance(y, LaurentPoly):
        cases += [
            (y * x, a * c, b * d),
            (y + x, a * d + c * b, b * d),
            (y - x, c * b - a * d, b * d),
        ]
    if c:
        cases.append((x / y, a * d, b * c))
    if a:
        cases.append((y / x, c * b, d * a))
    for got, num, den in cases:
        assert_canonical(got)
        top, bot = parts(got)
        assert top * den == bot * num
