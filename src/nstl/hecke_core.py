"""The Hecke algebra H_r: standard basis multiplication, the lower
canonical basis via the Kazhdan-Lusztig recursion, each row computed
when it is first read, and the upper one derived from it,
mu-coefficients, and the right cells of the regular module read off
its W-graph.

Conventions: (T_s - u)(T_s + u^-1) = 0, C'_s = T_s + u^-1, C_s = T_s - u,
bar(T_w) = (T_{w^-1})^-1, theta(T_s) = -T_s^-1, C_w = (-1)^{l(w)}
theta(C'_w).

The upper basis is read off the lower one: theta(T_x) = (-1)^{l(x)}
bar(T_x) and C_w is bar-invariant, so
C_w = sum_x (-1)^{l(w)+l(x)} bar(P'_{x,w}) T_x.
Neither bar nor theta is applied to elements here: the antipode check
carries theta beside each product of generators (see
nonstandard._tensor_product_terms), and the tests keep bar(T_w) and
theta(T_w) as oracles.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from itertools import compress
from operator import countOf

from .combinatorics import Permutation, all_permutations, strong_components
from .exact_arith import U_INV, LaurentPoly, RationalFn

U_MINUS_UINV = LaurentPoly({1: 1, -1: -1})
NEG_U = LaurentPoly({1: -1})


def _std_right_mul_s(coords: dict, i: int) -> dict:
    """Right multiplication of a standard-basis coordinate dict (values
    LaurentPoly or RationalFn) by T_{s_i}."""
    out: dict = {}

    def add(w, c):
        if w in out:
            s = out[w] + c
            if s:
                out[w] = s
            else:
                del out[w]
        elif c:
            out[w] = c

    for w, c in coords.items():
        ws = w.times_simple_right(i)
        add(ws, c)
        if ws.length() < w.length():
            add(w, c * U_MINUS_UINV)
    return out


# Packed coordinates. Inside KLTable a coordinate sum_e c_e u^e of the
# lower basis is the integer sum_e c_e 2^(K(1 - e)), a Kronecker
# substitution u^-1 -> 2^K: u^-1 is a left shift by K bits, u a right
# shift, and a coefficient update is one integer operation. Every
# coordinate has degree <= 0, as _compute_lower checks, so the right
# shift is exact, and a coordinate of few terms is a small integer.
# Coefficients are read back as balanced base-2^K digits, which is exact
# while each is below 2^(K-1) in absolute value; the recursion and the
# check carry a bound per row and raise ArithmeticError before it gets
# there. K = 36 fits both bounds at r = 7, 2^26 for the lower basis and
# 66 for the check of KLTable.canonical_failure; a narrower K would
# change the packed integers, whose raw rows the tests pin.
_K = 36
_HALF = 1 << (_K - 1)
_MASK = (1 << _K) - 1


def _mu_digit(n: int) -> int:
    """The coefficient of u^-1 (digit 2) of a packed lower-basis
    coordinate: round away the digits below it, then read the balanced
    low digit."""
    t = (n + (1 << (2 * _K - 1))) >> (2 * _K)
    return ((t + _HALF) & _MASK) - _HALF


def _digits(n: int) -> dict:
    """{j: d} for the nonzero balanced base-2^K digits d of n, where j
    is the place of d; every integer has exactly one such expansion."""
    out = {}
    if n:
        j = ((n & -n).bit_length() - 1) // _K  # the lowest nonzero digit
        n >>= _K * j
        while n:
            d = ((n + _HALF) & _MASK) - _HALF
            if d:
                out[j] = d
            n = (n - d) >> _K
            j += 1
    return out


def _unpack(n: int) -> LaurentPoly:
    """The Laurent polynomial of a packed coordinate."""
    return LaurentPoly({1 - j: d for j, d in _digits(n).items()})


def _check_bound(bound: int, w: Permutation) -> None:
    if bound >= _HALF:
        raise ArithmeticError(
            f"coefficients at {w} may reach 2^{_K - 1}: packed digits would overlap"
        )


def _left_mul_s(coords, row: list) -> dict:
    """Left multiplication by T_{s_i} of packed standard coordinates,
    given as (index, int) pairs over KLTable.perms, where row[k] is the
    index of s_i perms[k]. perms is sorted by length, so s_i x < x
    exactly when s_i x comes first.

    There is no zero test: every P'_{x,w} with x <= w in the Bruhat
    order is nonzero, and a sum that cancels on the way keeps the place
    where its key was first inserted.
    """
    out: dict = {}
    get = out.get
    for x, c in coords:
        sx = row[x]
        n = get(sx)
        out[sx] = c if n is None else n + c
        if sx < x:
            # T_s T_x = T_sx + (u - u^-1) T_x for s x < x
            out[x] = get(x, 0) + (c >> _K) - (c << _K)
    return out


class _Pool(dict):
    """Each packed integer looked up -> the order of its first lookup."""

    def __missing__(self, n: int) -> int:
        self[n] = j = len(self)
        return j


class _PackedRows:
    """Rows {index: int} (the packed rows of the lower basis, or the mu
    rows) in flat arrays, in the order they are stored: cols, the column
    indices of all rows, each row's in its key order; refs, for each
    column the index of its value in values, which holds each distinct
    one once; starts, the offset at which each row starts; and slot[k],
    the place in starts of row k, -1 until it is stored."""

    def __init__(self, n: int, first: dict):
        self.cols, self.refs = array("H"), array("H")
        self.starts = array("L", [0])
        self.slot = array("l", [-1]) * n
        self.values, self._pool = [], _Pool()
        self.append(0, first)

    def append(self, k: int, row: dict) -> None:
        self.slot[k] = len(self.starts) - 1
        self.cols.fromlist(list(row))
        self.refs.fromlist(list(map(self._pool.__getitem__, row.values())))
        self.starts.append(len(self.cols))
        if len(self._pool) > len(self.values):
            self.values = list(self._pool)

    def row(self, k: int, table=None) -> tuple:
        """The columns x of row k in key order, and table[j] for each, j
        the index in values of its coordinate; table defaults to values."""
        p = self.slot[k]
        a, b = self.starts[p], self.starts[p + 1]
        get = (self.values if table is None else table).__getitem__
        return self.cols[a:b].tolist(), list(map(get, self.refs[a:b]))


class KLTable:
    """Both canonical bases of H_r, expanded over the standard basis.

    Row k holds the coordinates P'_{x,w} of C'_w, w = perms[k], over the
    T_x; the coordinates of C_w = (-1)^{l(w)} theta(C'_w) are
    (-1)^{l(w)+l(x)} bar(P'_{x,w}), which printed derives from them.
    mu_pairs[w] lists (w', mu) over all w' with mu(w', w) != 0 (both
    Bruhat directions, symmetric usage).

    Rows are computed on demand (_lower): mu(x, w) computes the row of
    the longer permutation, and printed, canonical_failure and mu_pairs
    fill the whole table first. A row and the order of its keys depend
    only on the recursion, not on the order rows are computed in.

    The recursion runs on packed rows {index: int} over perms, which is
    sorted by length and then by word, stored in one _PackedRows: flat
    arrays of column indices and of indices into the list of its
    distinct packed integers, as du Cloux's Coxeter stores KL rows. mu
    reads the u^-1 digit of each distinct lower coordinate; the mu rows
    keep each row's x with mu != 0 (1% of the entries at r = 7) for the
    recursion, mu and mu_pairs. Only printed decodes the packed integers.
    """

    def __init__(self, r: int):
        self.r = r
        self.perms = sorted(all_permutations(r), key=lambda w: (w.length(), w.word))
        self._index = {w.word: k for k, w in enumerate(self.perms)}
        self._lengths = [w.length() for w in self.perms]
        # _left[i][k] is the index of s_i perms[k]
        self._left = {
            i: [self._index[w.times_simple_left(i).word] for w in self.perms]
            for i in range(1, r)
        }
        n = len(self.perms)
        self._rows = _PackedRows(n, {0: 1 << _K})  # C'_e = T_e
        self._mu_rows = _PackedRows(n, {})
        self._mus, self._checked = [_mu_digit(1 << _K)], 1
        self._bound = [1] * n
        self._mu_pairs = None

    # -- lower canonical basis ----------------------------------------

    def _lower(self, k: int) -> None:
        """Compute row k of the lower basis, its mu row and the u^-1
        digits of its new values, after the rows it reads, unless its mu
        row is stored. Row k is C'_s C'_v less its mu-corrections, for
        w = perms[k] = s v, s = s_i the first left descent of w; _bound[k]
        bounds every |coefficient| of C'_w, as C'_s C'_v has the
        coordinates c_sy + u^(+-1) c_y and each correction is mu(z, v) C'_z."""
        rows, mu_rows, bound = self._rows, self._mu_rows, self._bound
        if mu_rows.slot[k] >= 0:
            return
        row = next(row for row in self._left.values() if row[k] < k)
        v = row[k]
        self._lower(v)
        xs, cs = rows.row(v)
        prod = _left_mul_s(zip(xs, cs), row)
        get = prod.get
        # C'_s C'_v = (T_s + u^-1) C'_v
        for x, c in zip(xs, cs):
            prod[x] = get(x, 0) + (c << _K)
        b = 2 * bound[v]
        # subtract mu-corrections for z with s z < z
        for z, m in zip(*mu_rows.row(v)):
            if row[z] > z:
                continue
            self._lower(z)
            b += abs(m) * bound[z]
            for x, c in zip(*rows.row(z)):
                prod[x] = get(x, 0) - m * c
        _check_bound(b, self.perms[k])
        # P'_{w,w} = 1 and P'_{x,w} in u^-1 Z[u^-1] otherwise: every
        # coordinate has degree <= 0, so the right shift by u is exact.
        # values[0] is 1, row 0's diagonal, and 1 may occur only on a
        # diagonal; any other value is checked after its first row is
        # stored, and stays unchecked if it fails, failing later rows.
        one, low = 1 << _K, (1 << (2 * _K)) - 1  # digits 0 and 1 hold u^1, u^0
        rows.append(k, prod)
        new = rows.values[self._checked :]
        bad = prod[k] != one or countOf(prod.values(), one) > 1
        if bad or any(n & low for n in new):
            raise ArithmeticError(f"C'_{self.perms[k]} has a term of degree >= 0")
        self._checked = len(rows.values)
        self._mus.extend(map(_mu_digit, new))
        xs, ms = rows.row(k, self._mus)
        mu_rows.append(k, dict(compress(zip(xs, ms), ms)))
        bound[k] = b

    def _fill(self) -> None:
        for k in range(len(self.perms)):
            self._lower(k)

    # -- mu -----------------------------------------------------------

    @property
    def mu_pairs(self) -> dict:
        if self._mu_pairs is None:
            self._fill()
            perms = self.perms
            pairs = {w: [] for w in perms}
            for k, w in enumerate(perms):
                for x, m in zip(*self._mu_rows.row(k)):
                    pairs[w].append((perms[x], m))
                    pairs[perms[x]].append((w, m))
            self._mu_pairs = pairs
        return self._mu_pairs

    def mu(self, x: Permutation, w: Permutation) -> int:
        if x.length() > w.length():
            x, w = w, x
        k, j = self._index.get(w.word), self._index.get(x.word)
        if k is None:  # not in the table
            return 0
        self._lower(k)
        xs, ms = self._mu_rows.row(k)
        return ms[xs.index(j)] if j in xs else 0

    # -- readers of the packed rows -----------------------------------

    def printed(self, basis: str):
        """The canonical basis as `nstl kl-basis` prints it, one element
        at a time: (str(w), {str(x): coordinate}) for every w in the
        order of str(w), the coordinates of C'_w (basis "lower") or of
        C_w ("upper"). Each packed value is decoded and printed once per
        sign; an upper coordinate is (-1)^{l(w)+l(x)} bar(P'_{x,w}). No
        coordinate is zero (see _left_mul_s), so all are printed."""
        self._fill()
        upper = basis == "upper"
        names = [str(w) for w in self.perms]
        lengths = self._lengths
        text: dict = {}
        for k in sorted(range(len(names)), key=names.__getitem__):
            coords = {}
            for x, n in zip(*self._rows.row(k)):
                key = (n, upper and (lengths[k] + lengths[x]) % 2)
                s = text.get(key)
                if s is None:
                    p = _unpack(n)
                    if upper:
                        p = -p.bar() if key[1] else p.bar()
                    s = text[key] = str(p)
                coords[names[x]] = s
            yield names[k], coords

    def canonical_failure(self) -> str | None:
        """The first failure of C'_w or C_w, read off the packed rows, to
        be the canonical basis element, as a message naming w; None if
        every w passes.

        In the order of perms: the diagonal coordinate of C'_w must be 1
        and every other one lie in u^-1 Z[u^-1]; and for w = v s > v, s
        the first right descent, D = C'_v C'_s - C'_w must be
        sum_z m_z C'_z with integers m_z, l(z) < l(w) and z s < z, found by
        eliminating the longest z first. By induction on l(w), C'_w is
        then bar-invariant, as C'_s = T_s + u^-1 and every shorter C'_z
        are (Kazhdan-Lusztig 1979, Thm 1.1), hence canonical. So is
        C_w = (-1)^{l(w)} theta(C'_w), whose coordinates
        (-1)^{l(w)+l(x)} bar(P'_{x,w}) printed reads, as theta
        commutes with bar. T_x T_s reads a table of its own, not _left,
        which built the rows; u C'_v is an exact right shift, as row v
        passed the lattice check.

        D's coefficients stay within 2|C'_v| + |C'_w| + sum |m_z| |C'_z|,
        |C'_x| the largest |digit| of row x (at most 19 at r = 6, 66 at
        r = 7). At or past 2^(K-1) this raises ArithmeticError before it
        answers for w; below it the packed integers are exact.
        """
        self._fill()
        perms, lengths, rows = self.perms, self._lengths, self._rows
        right = [
            [self._index[w.times_simple_right(i).word] for w in perms]
            for i in range(1, self.r)
        ]
        top = [max(map(abs, _digits(n).values()), default=0) for n in rows.values]
        size = []  # size[k] is the largest |coefficient| of C'_{perms[k]}
        one, low = 1 << _K, (1 << (2 * _K)) - 1
        for k, w in enumerate(perms):
            row = dict(zip(*rows.row(k)))
            if row.get(k) != one:
                return f"diagonal coefficient != 1 at {w}"
            if any(n & low for x, n in row.items() if x != k):
                return f"lattice congruence fails at {w}"
            size.append(max(rows.row(k, top)[1]))
            if not k:
                continue
            s = next(s for s in right if s[k] < k)
            d = {x: -n for x, n in row.items()}
            get = d.get
            for x, c in zip(*rows.row(s[k])):
                # T_x C'_s = T_xs + u^-1 T_x, or T_xs + u T_x when xs < x
                xs = s[x]
                d[xs] = get(xs, 0) + c
                d[x] = get(x, 0) + (c >> _K if xs < x else c << _K)
            bound = 2 * size[s[k]] + size[k]
            for z in sorted(d, reverse=True):
                m, rest = divmod(d[z], one)
                if not (m or rest):
                    continue
                if rest or abs(m) >= _HALF or lengths[z] >= lengths[k] or s[z] > z:
                    break
                bound += abs(m) * size[z]
                for x, c in zip(*rows.row(z)):
                    d[x] = get(x, 0) - m * c
            # the bound only grows: below 2^(K-1) here, every read was exact
            _check_bound(bound, w)
            if any(d.values()):
                return f"not bar-invariant at {w}"
        return None


@lru_cache(maxsize=None)
def kl_table(r: int) -> KLTable:
    return KLTable(r)


# ----------------------------------------------------------------------
# Hecke elements


class HeckeElement:
    """Sparse H_r element over the standard basis {T_w}."""

    __slots__ = ("r", "coords")

    def __init__(self, r: int, coords: dict):
        self.r = r
        coerced = ((w, RationalFn._coerce(c)) for w, c in coords.items())
        self.coords = {w: c for w, c in coerced if c}

    @classmethod
    def t(cls, w: Permutation) -> "HeckeElement":
        return cls(w.r, {w: RationalFn.from_int(1)})

    @classmethod
    def unit(cls, r: int) -> "HeckeElement":
        return cls.t(Permutation.identity(r))

    @classmethod
    def c_prime_s(cls, r: int, i: int) -> "HeckeElement":
        return cls(
            r,
            {
                Permutation.simple(r, i): RationalFn.from_int(1),
                Permutation.identity(r): RationalFn(U_INV),
            },
        )

    @classmethod
    def c_s(cls, r: int, i: int) -> "HeckeElement":
        return cls(
            r,
            {
                Permutation.simple(r, i): RationalFn.from_int(1),
                Permutation.identity(r): RationalFn(NEG_U),
            },
        )

    def is_zero(self) -> bool:
        return not self.coords

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        if self.r != other.r:
            raise ValueError("size mismatch")
        out = dict(self.coords)
        for w, c in other.coords.items():
            out[w] = out.get(w, RationalFn.from_int(0)) + c
        return HeckeElement(self.r, out)

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        return self + other.scale(RationalFn.from_int(-1))

    def scale(self, c) -> "HeckeElement":
        c = RationalFn._coerce(c)
        return HeckeElement(self.r, {w: c * x for w, x in self.coords.items()})

    def __eq__(self, other):
        return (
            isinstance(other, HeckeElement)
            and self.r == other.r
            and self.coords == other.coords
        )

    def __repr__(self):
        terms = ", ".join(
            f"{w}: {c}" for w, c in sorted(self.coords.items(), key=lambda t: t[0].word)
        )
        return f"HeckeElement({{{terms}}})"


def multiply_standard(a: HeckeElement, b: HeckeElement) -> HeckeElement:
    """Product in H_r."""
    if a.r != b.r:
        raise ValueError("size mismatch")
    total: dict = {}
    for w, c in b.coords.items():
        cur = dict(a.coords)
        for i in w.reduced_word():
            cur = _std_right_mul_s(cur, i)
        for x, d in cur.items():
            cd = c * d
            if x in total:
                total[x] = total[x] + cd
            else:
                total[x] = cd
    return HeckeElement(a.r, total)


# ----------------------------------------------------------------------
# cells


def cells_regular(r: int) -> list:
    """Right cells of the regular module, the same in both canonical
    bases, as lists of permutations, using only the canonical
    generators, read off the W-graph of H_r.

    C'_w C'_s is [2] C'_w and C_w C_s is -[2] C_w when s is in R(w),
    the right descent set of w. Otherwise each is w s plus mu(z, w)
    times z over the z < w with z s < z and mu(z, w) != 0
    (Kazhdan-Lusztig 1979): the w' in mu_pairs[w] with s in R(w'). So
    both bases have the same support, hence the same cells, from the
    edges w -> w' with R(w') not inside R(w); a loop w -> w changes no
    component and is left out."""
    table = kl_table(r)
    desc = {w: w.right_descents() for w in table.perms}
    edges = {
        w: [v for v, _ in table.mu_pairs[w] if not desc[v] <= desc[w]]
        for w in table.perms
    }
    return strong_components(edges)
