"""Exact arithmetic over Z[u, u^-1] and Q(u).

LaurentPoly is a sparse exponent -> integer map; RationalFn is a reduced
fraction of two LaurentPolys kept in a canonical form that makes the
valuations at u = 0 and u = infinity direct degree computations:

* the denominator is an ordinary polynomial in u with nonzero constant
  term and positive leading coefficient (all u-powers cleared into the
  numerator),
* gcd(num, den) = 1 in Z[u].

The constructor reduces any fraction to this form with one gcd. The
field operations on canonical operands cancel across them instead
(Henrici's rule, Knuth TAOCP vol. 2, 4.5.1): with a/b and c/d canonical,
g1 = gcd(a, d) and g2 = gcd(c, b),

    (a/b)(c/d) = ((a/g1)(c/g2)) / ((b/g2)(d/g1)).

This is canonical without a further gcd. Z[u] has unique factorization,
so a prime that divided both sides would divide one factor of each, and
every such pair is coprime: a/g1 and b/g2 divide a and b, a/g1 and d/g1
are coprime by the choice of g1, and likewise for c. The gcds are taken
with positive leading coefficients, so the denominator keeps its sign,
and no factor of it vanishes at u = 0. Each gcd is of two operand parts,
not of the larger product, and a constant or monomial side makes it an
integer gcd. A quotient multiplies by the inverse, which is canonical
once its sign is fixed; a sum a + c/d with one denominator 1 is
(a d + c)/d, which is reduced because gcd(c, d) = 1.
"""

from __future__ import annotations

import math


class PoleError(ZeroDivisionError):
    """Raised when a rational function is specialized at a pole."""


class LaurentPoly:
    """Element of Z[u, u^-1] with arbitrary-precision coefficients."""

    # _dense caches (shift, dense coefficients) for the gcd helpers; it
    # is a tuple, and nothing mutates coeffs after construction
    __slots__ = ("coeffs", "_hash", "_dense")

    def __init__(self, coeffs=None):
        # normal form: no zero coefficients stored
        if coeffs:
            self.coeffs = {e: c for e, c in coeffs.items() if c}
        else:
            self.coeffs = {}
        self._hash = None
        self._dense = None

    # -- constructors -------------------------------------------------

    @classmethod
    def from_int(cls, n: int) -> "LaurentPoly":
        return cls({0: n})

    # -- predicates / accessors ---------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def is_one(self) -> bool:
        return self.coeffs == {0: 1}

    def min_exp(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no exponents")
        return min(self.coeffs)

    def max_exp(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no exponents")
        return max(self.coeffs)

    def as_int(self):
        """Return the integer value if constant, else None."""
        if not self.coeffs:
            return 0
        if set(self.coeffs) == {0}:
            return self.coeffs[0]
        return None

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            n = out.get(e, 0) + c
            if n:
                out[e] = n
            else:
                out.pop(e, None)
        return _laurent(out)

    def __neg__(self) -> "LaurentPoly":
        return _laurent({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly()
            return _laurent({e: c * other for e, c in self.coeffs.items()})
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                n = out.get(e, 0) + c1 * c2
                if n:
                    out[e] = n
                else:
                    out.pop(e, None)
        return _laurent(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative power of a Laurent polynomial")
        result = LaurentPoly({0: 1})
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def bar(self) -> "LaurentPoly":
        """The involution u -> u^-1."""
        return _laurent({-e: c for e, c in self.coeffs.items()})

    # -- comparison / hashing -----------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.as_int() == other
        return NotImplemented

    def __hash__(self):
        # a constant equals its int, so it must hash like it
        if self._hash is None:
            n = self.as_int()
            self._hash = hash(frozenset(self.coeffs.items()) if n is None else n)
        return self._hash

    # -- serialization -------------------------------------------------

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            if e == 0:
                terms.append(str(c))
            elif c == 1:
                terms.append(f"u^{e}")
            elif c == -1:
                terms.append(f"-u^{e}")
            else:
                terms.append(f"{c}*u^{e}")
        return " + ".join(terms)

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"


def _laurent(coeffs: dict) -> LaurentPoly:
    """A LaurentPoly on a dict that stores no zero coefficient."""
    r = LaurentPoly.__new__(LaurentPoly)
    r.coeffs, r._hash, r._dense = coeffs, None, None
    return r


L_ZERO = LaurentPoly()
L_ONE = LaurentPoly({0: 1})
U = LaurentPoly({1: 1})
U_INV = LaurentPoly({-1: 1})


def quantum_int(k: int) -> LaurentPoly:
    """[k] = u^{k-1} + u^{k-3} + ... + u^{1-k}; bar-invariant."""
    if k < 0:
        raise ValueError("quantum integer of a negative argument")
    return LaurentPoly({k - 1 - 2 * j: 1 for j in range(k)})


# ----------------------------------------------------------------------
# dense Z[x] helpers for gcd / exact division (constant term at index 0)


def _poly_of(p: LaurentPoly) -> tuple[int, tuple[int, ...]]:
    """Split u^shift * (dense polynomial with nonzero constant term),
    cached on p."""
    form = p._dense
    if form is None:
        coeffs = p.coeffs
        if coeffs:
            lo = min(coeffs)
            get = coeffs.get
            form = lo, tuple([get(e, 0) for e in range(lo, max(coeffs) + 1)])
        else:
            form = 0, ()
        p._dense = form
    return form


def _dense_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _dense_content(a: list[int]) -> int:
    g = 0
    for x in a:
        g = math.gcd(g, x)
        if g == 1:
            break
    return g


def _dense_primitive(a: list[int]) -> list[int]:
    g = _dense_content(a)
    if g <= 1:
        return list(a)
    return [x // g for x in a]


def _dense_pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of a by b (b nonzero)."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and a:
        da, la = len(a) - 1, a[-1]
        a = [x * lb for x in a]
        for i, y in enumerate(b):
            a[da - db + i] -= la * y
        a = _dense_trim(a)
    return a


def _dense_gcd(a: list[int], b: list[int]) -> list[int]:
    """gcd in Z[x] via the primitive PRS, primitive part x content gcd."""
    if not a:
        return _dense_primitive(b) if b else []
    if not b:
        return _dense_primitive(a)
    ca, cb = _dense_content(a), _dense_content(b)
    a, b = _dense_primitive(a), _dense_primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _dense_primitive(_dense_pseudo_rem(a, b))
        a, b = b, r
    if a[-1] < 0:
        a = [-x for x in a]
    g = math.gcd(ca, cb)
    return [x * g for x in a] if g > 1 else a


def _dense_div_exact(a: list[int], b: list[int]) -> list[int]:
    """Exact division in Z[x]: the quotient must have integer
    coefficients and leave no remainder. By Gauss's lemma that holds
    whenever b divides a in Z[x], as a gcd does."""
    if not a:
        return []
    out = [0] * (len(a) - len(b) + 1)
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    for k in range(len(out) - 1, -1, -1):
        q, rem = divmod(a[k + db], lb)
        if rem:
            raise ArithmeticError("inexact polynomial division")
        if q:
            out[k] = q
            for i, y in enumerate(b):
                a[k + i] -= q * y
    if any(a[:db]):
        raise ArithmeticError("inexact polynomial division")
    return out


def _dense_to_laurent(shift: int, dense) -> LaurentPoly:
    """u^shift * dense; a dense list with nonzero end terms is cached as
    the dense form of the result."""
    p = _laurent({shift + i: c for i, c in enumerate(dense) if c})
    if dense and dense[0] and dense[-1]:
        p._dense = shift, tuple(dense)
    return p


def _dense_mul(a, b):
    if len(a) == 1:
        k = a[0]
        return b if k == 1 else [k * y for y in b]
    if len(b) == 1:
        k = b[0]
        return a if k == 1 else [k * x for x in a]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b, i):
            out[j] += x * y
    return out


def _cancel(a, b):
    """(a / g, b / g) for g = gcd(a, b) in Z[x], both nonzero with a
    nonzero constant term; g has positive leading coefficient, so b / g
    keeps the sign of b. If either is a constant, g is an integer."""
    if len(b) == 1:
        if b[0] == 1 or b[0] == -1:
            return a, b
        g = math.gcd(_dense_content(a), b[0])
    elif len(a) == 1:
        g = math.gcd(a[0], _dense_content(b))
    else:
        g = _dense_gcd(a, b)
        if len(g) > 1:
            return _dense_div_exact(a, g), _dense_div_exact(b, g)
        g = g[0]
    if g == 1:
        return a, b
    return [x // g for x in a], [y // g for y in b]


def _horner(dense, p: int, q: int) -> int:
    """q^deg * dense(p / q), an integer."""
    acc, qk = 0, 1
    for c in reversed(dense):
        acc = acc * p + c * qk
        qk *= q
    return acc


class RationalFn:
    """Element of K = Q(u) in canonical form (see module docstring)."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: LaurentPoly, den: LaurentPoly = L_ONE):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if den.is_one():
            self.num, self.den = num, den
        else:
            self.num, self.den = self._canonicalize(num, den)
        self._hash = None

    @staticmethod
    def _canonicalize(num: LaurentPoly, den: LaurentPoly):
        if num.is_zero():
            return L_ZERO, L_ONE
        dshift, ddense = _poly_of(den)
        nshift, ndense = _poly_of(num)
        # clear the denominator's u-power into the numerator
        nshift -= dshift
        ndense, ddense = _cancel(ndense, ddense)
        if ddense[-1] < 0:
            ndense = [-x for x in ndense]
            ddense = [-x for x in ddense]
        return _dense_to_laurent(nshift, ndense), _dense_to_laurent(0, ddense)

    # -- constructors --------------------------------------------------

    @classmethod
    def from_int(cls, n: int) -> "RationalFn":
        return cls(LaurentPoly.from_int(n))

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def as_laurent(self):
        """Return the LaurentPoly value if den = 1, else None."""
        return self.num if self.den.is_one() else None

    # -- field operations ----------------------------------------------

    @staticmethod
    def _coerce(x) -> "RationalFn":
        if isinstance(x, RationalFn):
            return x
        if isinstance(x, LaurentPoly):
            return RationalFn(x)
        if isinstance(x, int):
            return RationalFn.from_int(x)
        raise TypeError(f"cannot coerce {x!r} to RationalFn")

    def __add__(self, other) -> "RationalFn":
        other = self._coerce(other)
        if not other.num.coeffs:
            return self
        if not self.num.coeffs:
            return other
        if self.den.is_one():
            if other.den.is_one():
                return _rational(self.num + other.num, L_ONE)
            # (a d + c) / d is reduced: a common factor of it and d
            # would divide c
            return _rational(self.num * other.den + other.num, other.den)
        if other.den.is_one():
            return _rational(other.num * self.den + self.num, self.den)
        if self.den == other.den:
            return RationalFn(self.num + other.num, self.den)
        return RationalFn(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self) -> "RationalFn":
        return _rational(-self.num, self.den)

    def __sub__(self, other) -> "RationalFn":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "RationalFn":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "RationalFn":
        other = self._coerce(other)
        if not self.num.coeffs or not other.num.coeffs:
            return R_ZERO
        if self.den.is_one() and other.den.is_one():
            return _rational(self.num * other.num, L_ONE)
        return _product(self, *_poly_of(other.num), _poly_of(other.den)[1])

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFn":
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        if not self.num.coeffs:
            return R_ZERO
        # other = u^s c / d, so 1 / other = u^-s d / c, with c's sign moved
        s, c = _poly_of(other.num)
        d = _poly_of(other.den)[1]
        if c[-1] < 0:
            c, d = [-x for x in c], [-x for x in d]
        return _product(self, -s, d, c)

    def __rtruediv__(self, other) -> "RationalFn":
        return self._coerce(other) / self

    def __pow__(self, n: int) -> "RationalFn":
        if n < 0:
            return RationalFn.from_int(1) / self ** (-n)
        result = RationalFn.from_int(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def bar(self) -> "RationalFn":
        return RationalFn(self.num.bar(), self.den.bar())

    # -- valuations ----------------------------------------------------

    def val0(self):
        """Order of vanishing at u = 0; +inf sentinel for 0."""
        if self.num.is_zero():
            return math.inf
        # canonical den has nonzero constant term, so val0(den) = 0
        return self.num.min_exp()

    def val_inf(self):
        """Order of vanishing at u = infinity; +inf sentinel for 0."""
        if self.num.is_zero():
            return math.inf
        return self.den.max_exp() - self.num.max_exp()

    # -- specialization ------------------------------------------------

    def specialize(self, u0):
        """The value at u0 = p/q, a Fraction: Horner on integers gives
        q^deg * f(p/q) for the dense parts, and one Fraction divides."""
        from fractions import Fraction

        u0 = Fraction(u0)
        p, q = u0.numerator, u0.denominator
        shift, num = _poly_of(self.num)
        den = _poly_of(self.den)[1]
        top, bottom = _horner(den, p, q), _horner(num, p, q)
        if not top or (shift < 0 and not p):
            raise PoleError(f"pole at u = {u0}")
        if not bottom:
            return Fraction(0)
        # f(p/q) = (p/q)^shift * (bottom / q^deg num) / (top / q^deg den)
        bottom *= q ** (len(den) - 1)
        top *= q ** (len(num) - 1)
        if shift >= 0:
            bottom, top = bottom * p**shift, top * q**shift
        else:
            bottom, top = bottom * q**-shift, top * p**-shift
        return Fraction(bottom, top)

    # -- comparison / hashing ------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (RationalFn, LaurentPoly, int)):
            other = self._coerce(other)
            # canonical form is unique
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self):
        # a RationalFn with denominator 1 equals its numerator
        if self._hash is None:
            self._hash = hash(
                self.num if self.den.is_one() else (self.num, self.den)
            )
        return self._hash

    def __bool__(self):
        return not self.num.is_zero()

    # -- serialization -------------------------------------------------

    def __str__(self) -> str:
        if self.den.is_one():
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self) -> str:
        return f"RationalFn({self})"


def _rational(num: LaurentPoly, den: LaurentPoly) -> RationalFn:
    """A RationalFn on a pair already in canonical form."""
    r = RationalFn.__new__(RationalFn)
    r.num, r.den, r._hash = num, den, None
    return r


def _product(x: RationalFn, shift: int, c, d) -> RationalFn:
    """x * u^shift c / d for the dense parts of a canonical form, by
    cancelling across the two factors (see the module docstring)."""
    xshift, a = _poly_of(x.num)
    b = _poly_of(x.den)[1]
    a, d = _cancel(a, d)
    c, b = _cancel(c, b)
    return _rational(
        _dense_to_laurent(xshift + shift, _dense_mul(a, c)),
        _dense_to_laurent(0, _dense_mul(b, d)),
    )


R_ZERO = RationalFn(L_ZERO)
R_ONE = RationalFn(L_ONE)
TWO = RationalFn(quantum_int(2))  # the quantum integer [2] = u + u^-1
FOUR = TWO * TWO
R_HALF = RationalFn(L_ONE, LaurentPoly({0: 2}))


def common_denominator(values) -> tuple:
    """(d, nums) with values[k] = nums[k] / d for RationalFn values and
    d the least common multiple of their denominators in Z[u]."""
    dens = dict.fromkeys(x.den for x in values)
    d = L_ONE
    for den in dens:
        dd, ld = _poly_of(den)[1], _poly_of(d)[1]
        d = d * _dense_to_laurent(0, _dense_div_exact(dd, _dense_gcd(ld, dd)))
    ld = _poly_of(d)[1]
    cofactor = {
        den: _dense_to_laurent(0, _dense_div_exact(ld, _poly_of(den)[1]))
        for den in dens
    }
    return d, [x.num * cofactor[x.den] for x in values]
