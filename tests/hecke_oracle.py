"""Test oracles for the Hecke algebra, keyed by Permutation.

oracle_lower is the Kazhdan-Lusztig recursion of the lower canonical
basis, upper_of derives the upper basis from a lower one, and
oracle_bar_t and oracle_theta_t expand bar(T_w) and theta(T_w) over the
standard basis, each with a left multiplication of its own; the packed
KLTable is checked against them in order. The library applies neither
bar nor theta to elements (the antipode check carries theta beside each
product of generators), so bar_element and theta_element, built on
those tables, live here, as does the Bruhat order that bounds the
support of C'_w.

right_multiply_canonical forms the products C'_w C'_s and C_w C_s in
the canonical bases, and cells_regular_by_products reads the right
cells of the regular module from them, with the generic cells of a
module-with-basis; the library reads the same cells straight off the
W-graph."""

from functools import lru_cache

from nstl.combinatorics import Permutation, all_permutations, strong_components
from nstl.exact_arith import L_ONE, TWO, LaurentPoly, RationalFn
from nstl.hecke_core import HeckeElement, kl_table

U_MINUS_UINV = LaurentPoly({1: 1, -1: -1})
UINV = LaurentPoly({-1: 1})


def _accumulate(out: dict, w, c):
    """out[w] += c. A zero sum stays in place, as it does in the packed
    rows, so that the oracles list their keys in the same order."""
    out[w] = out[w] + c if w in out else c


def _std_left_mul_s(coords: dict, i: int) -> dict:
    """Left multiplication by T_{s_i}."""
    out: dict = {}
    for w, c in coords.items():
        sw = w.times_simple_left(i)
        _accumulate(out, sw, c)
        if sw.length() < w.length():
            _accumulate(out, w, c * U_MINUS_UINV)
    return out


def _oracle_perms(r):
    return sorted(all_permutations(r), key=lambda w: (w.length(), w.word))


def first_left_descent(w) -> int:
    """The least i with s_i w < w."""
    return next(
        i for i in range(1, w.r) if w.times_simple_left(i).length() < w.length()
    )


def oracle_lower(r: int) -> dict:
    e = Permutation.identity(r)
    lower = {e: {e: L_ONE}}
    for w in _oracle_perms(r):
        if w == e:
            continue
        i = first_left_descent(w)
        v = w.times_simple_left(i)
        cv = lower[v]
        prod = _std_left_mul_s(cv, i)
        # C'_s C'_v = (T_s + u^-1) C'_v
        for x, c in cv.items():
            _accumulate(prod, x, c * UINV)
        # subtract mu-corrections for z with s z < z
        for z, pz in cv.items():
            if z == v:
                continue
            m = pz.coeffs.get(-1, 0)
            if not m or z.times_simple_left(i).length() > z.length():
                continue
            for x, c in lower[z].items():
                _accumulate(prod, x, c * (-m))
        lower[w] = prod
    return lower


def upper_of(lower: dict) -> dict:
    """The coordinates (-1)^{l(w)+l(x)} bar(P'_{x,w}) of C_w, in the
    order of a lower table {w: {x: P'_{x,w}}}."""
    return {
        w: {x: p.bar() * (-1) ** (w.length() + x.length()) for x, p in coords.items()}
        for w, coords in lower.items()
    }


def bruhat_leq(x, w) -> bool:
    """x <= w in the Bruhat order, by the sorted-prefix (Ehresmann)
    criterion."""
    return all(
        a <= b
        for k in range(1, x.r)
        for a, b in zip(sorted(x.word[:k]), sorted(w.word[:k]))
    )


def oracle_theta_like(r: int, s_image) -> dict:
    """The images of all T_w under the multiplicative map with
    T_{s_i} -> s_image(i), built as image(T_s) image(T_v) for w = s v."""
    e = Permutation.identity(r)
    out = {e: {e: L_ONE}}
    for w in _oracle_perms(r):
        if w == e:
            continue
        i = first_left_descent(w)
        v = w.times_simple_left(i)
        base = out[v]
        acc: dict = {}
        for x, c in s_image(i).items():
            pieces = base if x == e else _std_left_mul_s(base, i)
            for y, d in pieces.items():
                cd = d if (x != e and c.is_one()) else c * d
                _accumulate(acc, y, cd)
        out[w] = acc
    return out


def oracle_bar_t(r: int) -> dict:
    # bar(T_s) = T_s^-1 = T_s + (u^-1 - u) T_e
    e = Permutation.identity(r)
    return oracle_theta_like(
        r, lambda i: {Permutation.simple(r, i): L_ONE, e: -U_MINUS_UINV}
    )


def oracle_theta_t(r: int) -> dict:
    # theta(T_s) = -T_s^-1 = -T_s + (u - u^-1) T_e
    e = Permutation.identity(r)
    return oracle_theta_like(
        r,
        lambda i: {Permutation.simple(r, i): LaurentPoly({0: -1}), e: U_MINUS_UINV},
    )


@lru_cache(maxsize=None)
def _images(r: int, oracle) -> dict:
    """oracle(r), built once per rank; read, never mutated."""
    return oracle(r)


def _extend(a: HeckeElement, oracle, scalar) -> HeckeElement:
    """sum_w scalar(c_w) image(T_w) for a = sum_w c_w T_w."""
    table = _images(a.r, oracle)
    out: dict = {}
    for w, c in a.coords.items():
        c = scalar(c)
        for x, d in table[w].items():
            _accumulate(out, x, c * d)
    return HeckeElement(a.r, out)


def bar_element(a: HeckeElement) -> HeckeElement:
    """The bar involution, u -> u^-1 on coefficients and
    T_w -> bar(T_w); input and output in the standard basis."""
    return _extend(a, oracle_bar_t, lambda c: c.bar())


def theta_element(a: HeckeElement) -> HeckeElement:
    """The A-algebra involution theta(T_s) = -T_s^-1, standard basis."""
    return _extend(a, oracle_theta_t, lambda c: c)


def right_multiply_canonical(coords: dict, i: int, basis: str) -> dict:
    """Right multiplication of sum_w c_w C'_w (basis "lower") by C'_{s_i},
    or of sum_w c_w C_w ("upper") by C_{s_i}, on coordinates {w: c_w} in
    that basis. The library reads only the support of these products
    (hecke_core.cells_regular)."""
    table = kl_table(next(iter(coords)).r)
    sign = TWO if basis == "lower" else -TWO
    out: dict = {}
    for w, c in coords.items():
        if i in w.right_descents():
            _accumulate(out, w, sign * c)
        else:
            for wp, m in table.mu_pairs[w]:
                if i in wp.right_descents():
                    _accumulate(out, wp, c * m)
    return out


def cells(labels: list, action_matrices: list) -> list:
    """Cells of a module-with-basis: the strongly connected components
    of the digraph j -> i, with i in (label j) * generator g when
    action_matrices[g][j][i] is nonzero; matrices are dicts
    {j: {i: coeff}}. Returns the cells as lists of labels."""
    adj: dict = {j: set() for j in range(len(labels))}
    for mat in action_matrices:
        for j, row in mat.items():
            adj[j].update(i for i, c in row.items() if c)
    comps = strong_components(adj)
    return [[labels[v] for v in comp] for comp in comps]


def cells_regular_by_products(r: int, basis: str) -> list:
    """The right cells of the regular module from the products C'_w C'_s
    (or C_w C_s) themselves: the route hecke_core.cells_regular
    replaced by the support argument."""
    perms = kl_table(r).perms
    idx = {w: k for k, w in enumerate(perms)}
    mats = []
    for i in range(1, r):
        mat = {}
        for w in perms:
            img = right_multiply_canonical({w: RationalFn.from_int(1)}, i, basis)
            mat[idx[w]] = {idx[x]: c for x, c in img.items()}
        mats.append(mat)
    return cells(perms, mats)
