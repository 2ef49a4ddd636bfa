"""Exact arithmetic over Z[u, u^-1] and Q(u).

LaurentPoly is a sparse exponent -> integer map; RationalFn is a reduced
fraction of two LaurentPolys kept in a canonical form that makes the
valuations at u = 0 and u = infinity direct degree computations:

* the denominator is an ordinary polynomial in u with nonzero constant
  term and positive leading coefficient (all u-powers cleared into the
  numerator),
* gcd(num, den) = 1 in Z[u].
"""

from __future__ import annotations

import math
from fractions import Fraction


class PoleError(ZeroDivisionError):
    """Raised when a rational function is specialized at a pole."""


class LaurentPoly:
    """Element of Z[u, u^-1] with arbitrary-precision coefficients."""

    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs=None):
        # normal form: no zero coefficients stored
        if coeffs:
            self.coeffs = {e: c for e, c in coeffs.items() if c}
        else:
            self.coeffs = {}
        self._hash = None

    # -- constructors -------------------------------------------------

    @classmethod
    def from_int(cls, n: int) -> "LaurentPoly":
        return cls({0: n})

    # -- predicates / accessors ---------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

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

    def coeff(self, e: int) -> int:
        return self.coeffs.get(e, 0)

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
        r = LaurentPoly.__new__(LaurentPoly)
        r.coeffs = out
        r._hash = None
        return r

    def __neg__(self) -> "LaurentPoly":
        r = LaurentPoly.__new__(LaurentPoly)
        r.coeffs = {e: -c for e, c in self.coeffs.items()}
        r._hash = None
        return r

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly()
            r = LaurentPoly.__new__(LaurentPoly)
            r.coeffs = {e: c * other for e, c in self.coeffs.items()}
            r._hash = None
            return r
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                n = out.get(e, 0) + c1 * c2
                if n:
                    out[e] = n
                else:
                    out.pop(e, None)
        r = LaurentPoly.__new__(LaurentPoly)
        r.coeffs = out
        r._hash = None
        return r

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

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by u^k."""
        r = LaurentPoly.__new__(LaurentPoly)
        r.coeffs = {e + k: c for e, c in self.coeffs.items()}
        r._hash = None
        return r

    def bar(self) -> "LaurentPoly":
        """The involution u -> u^-1."""
        r = LaurentPoly.__new__(LaurentPoly)
        r.coeffs = {-e: c for e, c in self.coeffs.items()}
        r._hash = None
        return r

    # -- evaluation ----------------------------------------------------

    def evaluate(self, u0: Fraction) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        if u0 == 0:
            if self.min_exp() < 0:
                raise PoleError("evaluation of a Laurent polynomial at u = 0")
            return Fraction(self.coeffs.get(0, 0))
        total = Fraction(0)
        for e, c in self.coeffs.items():
            total += c * u0**e
        return total

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


L_ZERO = LaurentPoly()
L_ONE = LaurentPoly({0: 1})
U = LaurentPoly({1: 1})
U_INV = LaurentPoly({-1: 1})


def quantum_int(k: int) -> LaurentPoly:
    """[k] = u^{k-1} + u^{k-3} + ... + u^{1-k}; bar-invariant."""
    if k < 0:
        raise ValueError("quantum integer of a negative argument")
    return LaurentPoly({k - 1 - 2 * j: 1 for j in range(k)})


def bar(p):
    """Bar involution u -> u^-1 on LaurentPoly or RationalFn."""
    return p.bar()


# ----------------------------------------------------------------------
# dense Z[x] helpers for gcd / exact division (constant term at index 0)


def _poly_of(p: LaurentPoly) -> tuple[int, list[int]]:
    """Split u^shift * (dense polynomial with nonzero constant term)."""
    if p.is_zero():
        return 0, []
    lo, hi = p.min_exp(), p.max_exp()
    dense = [p.coeff(e) for e in range(lo, hi + 1)]
    return lo, dense


def _dense_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _dense_content(a: list[int]) -> int:
    g = 0
    for x in a:
        g = math.gcd(g, x)
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


def _dense_to_laurent(shift: int, dense: list[int]) -> LaurentPoly:
    return LaurentPoly({shift + i: c for i, c in enumerate(dense) if c})


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
        g = _dense_gcd(ndense, ddense)
        if len(g) > 1 or g[0] != 1:
            ndense = _dense_div_exact(ndense, g)
            ddense = _dense_div_exact(ddense, g)
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
        if self.den.is_one() and other.den.is_one():
            r = RationalFn.__new__(RationalFn)
            r.num, r.den, r._hash = self.num + other.num, L_ONE, None
            return r
        if self.den == other.den:
            return RationalFn(self.num + other.num, self.den)
        return RationalFn(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self) -> "RationalFn":
        r = RationalFn.__new__(RationalFn)
        r.num, r.den, r._hash = -self.num, self.den, None
        return r

    def __sub__(self, other) -> "RationalFn":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "RationalFn":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "RationalFn":
        other = self._coerce(other)
        if self.den.is_one() and other.den.is_one():
            r = RationalFn.__new__(RationalFn)
            r.num, r.den, r._hash = self.num * other.num, L_ONE, None
            return r
        return RationalFn(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFn":
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFn(self.num * other.den, self.den * other.num)

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

    def specialize(self, u0) -> Fraction:
        u0 = Fraction(u0)
        d = self.den.evaluate(u0)
        if d == 0:
            raise PoleError(f"pole at u = {u0}")
        return self.num.evaluate(u0) / d

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


def val0(f: RationalFn):
    return RationalFn._coerce(f).val0()


def val_inf(f: RationalFn):
    return RationalFn._coerce(f).val_inf()


def specialize(f: RationalFn, u0) -> Fraction:
    return RationalFn._coerce(f).specialize(u0)
