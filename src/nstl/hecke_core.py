"""The Hecke algebra H_r: standard basis multiplication, bar involution,
the lower canonical basis via the Kazhdan-Lusztig recursion and the
upper one derived from it, mu-coefficients,
cell decomposition of modules-with-basis, and the Temperley-Lieb
quotient killing shapes with more than d rows.

Conventions: (T_s - u)(T_s + u^-1) = 0, C'_s = T_s + u^-1, C_s = T_s - u,
bar(T_w) = (T_{w^-1})^-1, theta(T_s) = -T_s^-1, C_w = (-1)^{l(w)}
theta(C'_w).

The upper basis is read off the lower one: theta(T_x) = (-1)^{l(x)}
bar(T_x) and C_w is bar-invariant, so
C_w = sum_x (-1)^{l(w)+l(x)} bar(P'_{x,w}) T_x.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .combinatorics import Permutation, all_permutations, rsk
from .exact_arith import (
    L_ONE,
    LaurentPoly,
    RationalFn,
    quantum_int,
)

U_MINUS_UINV = LaurentPoly({1: 1, -1: -1})
UINV = LaurentPoly({-1: 1})
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
        if ws.length() > w.length():
            add(ws, c)
        else:
            add(ws, c)
            add(w, c * U_MINUS_UINV)
    return out


def _add(out: dict, k: int, c: LaurentPoly) -> None:
    """out[k] += c. There is no zero test: every P'_{x,w} and every
    coordinate of bar(T_w) with x <= w in the Bruhat order is nonzero,
    and a sum that cancels on the way keeps the place where its key was
    first inserted."""
    out[k] = out[k] + c if k in out else c


def _left_mul_s(coords: dict, row: list, lengths: list) -> dict:
    """Left multiplication by T_{s_i} of standard coordinates
    {index: LaurentPoly} over KLTable.perms, where row[k] is the index
    of s_i perms[k] and lengths[k] the length of perms[k]."""
    out: dict = {}
    for x, c in coords.items():
        sx = row[x]
        _add(out, sx, c)
        if lengths[sx] < lengths[x]:
            _add(out, x, c * U_MINUS_UINV)
    return out


class KLTable:
    """Both canonical bases of H_r, expanded over the standard basis.

    lower[w] maps x -> P'_{x,w} (LaurentPoly); upper[w] holds the
    standard-basis coordinates of C_w = (-1)^{l(w)} theta(C'_w), which
    are (-1)^{l(w)+l(x)} bar(P'_{x,w}).
    mu_pairs[w] lists (w', mu) over all w' with mu(w', w) != 0 (both
    Bruhat directions, symmetric usage).

    The recursions run on indices into perms, which is sorted by length
    and then by word, and are keyed by Permutation once at the end.
    """

    def __init__(self, r: int):
        self.r = r
        self.perms = sorted(all_permutations(r), key=lambda w: (w.length(), w.word))
        index = {w.word: k for k, w in enumerate(self.perms)}
        self._lengths = [w.length() for w in self.perms]
        # _left[i][k] is the index of s_i perms[k]
        self._left = {
            i: [index[w.times_simple_left(i).word] for w in self.perms]
            for i in range(1, r)
        }
        self.lower = self._keyed(self._compute_lower())
        self._mu_pairs = None
        self._upper = None
        self._bar_t = None
        self._theta_t = None
        self._rsk_pairs = None
        self._shape_of = None

    def _keyed(self, table: list) -> dict:
        perms = self.perms
        return {
            perms[k]: {perms[x]: p for x, p in coords.items()}
            for k, coords in enumerate(table)
        }

    def _descents(self):
        """(i, v) for k = 1, 2, ...: i is the first left descent of
        perms[k], and v the index of s_i perms[k]."""
        lengths, left = self._lengths, self._left
        for k in range(1, len(self.perms)):
            i = next(i for i in left if lengths[left[i][k]] < lengths[k])
            yield i, left[i][k]

    # -- lower canonical basis ----------------------------------------

    def _compute_lower(self) -> list:
        lengths, left = self._lengths, self._left
        lower = [{0: L_ONE}]
        for i, v in self._descents():
            row = left[i]
            cv = lower[v]
            prod = _left_mul_s(cv, row, lengths)
            # C'_s C'_v = (T_s + u^-1) C'_v
            for x, c in cv.items():
                _add(prod, x, c.shift(-1))
            # subtract mu-corrections for z with s z < z
            for z, pz in cv.items():
                if z == v:
                    continue
                m = pz.coeff(-1)
                if not m or lengths[row[z]] > lengths[z]:
                    continue
                for x, c in lower[z].items():
                    _add(prod, x, c * (-m))
            lower.append(prod)
        return lower

    # -- mu -----------------------------------------------------------

    @property
    def mu_pairs(self) -> dict:
        if self._mu_pairs is None:
            pairs = {w: [] for w in self.perms}
            for w, coords in self.lower.items():
                for x, p in coords.items():
                    if x == w:
                        continue
                    m = p.coeff(-1)
                    if m:
                        pairs[w].append((x, m))
                        pairs[x].append((w, m))
            self._mu_pairs = pairs
        return self._mu_pairs

    def mu(self, x: Permutation, w: Permutation) -> int:
        if x.length() > w.length():
            x, w = w, x
        p = self.lower.get(w, {}).get(x)
        return p.coeff(-1) if p is not None else 0

    # -- theta / bar on the standard basis ----------------------------

    @property
    def bar_t(self) -> dict:
        """bar(T_w) in standard coordinates, for all w."""
        if self._bar_t is None:
            # bar(T_s) = T_s^-1 = T_s - (u - u^-1) T_e, and
            # bar(T_w) = bar(T_s) bar(T_v) for w = s v > v
            lengths, left = self._lengths, self._left
            out = [{0: L_ONE}]
            for i, v in self._descents():
                base = out[v]
                acc = _left_mul_s(base, left[i], lengths)
                for y, d in base.items():
                    _add(acc, y, -(d * U_MINUS_UINV))
                out.append(acc)
            self._bar_t = self._keyed(out)
        return self._bar_t

    @property
    def theta_t(self) -> dict:
        """theta(T_w) = (-1)^{l(w)} bar(T_w) in standard coordinates,
        for all w; used by theta_element only."""
        if self._theta_t is None:
            self._theta_t = {
                w: {x: -p for x, p in coords.items()} if w.length() % 2 else coords
                for w, coords in self.bar_t.items()
            }
        return self._theta_t

    # -- upper canonical basis ----------------------------------------

    @property
    def upper(self) -> dict:
        if self._upper is None:
            self._upper = {
                w: {
                    x: p.bar() * (-1) ** (w.length() + x.length())
                    for x, p in coords.items()
                }
                for w, coords in self.lower.items()
            }
        return self._upper

    # -- RSK -----------------------------------------------------------

    @property
    def rsk_pairs(self) -> dict:
        """w -> (P(w), Q(w)), the RSK insertion and recording tableaux,
        in the order of perms."""
        if self._rsk_pairs is None:
            self._rsk_pairs = {w: rsk(w.word) for w in self.perms}
        return self._rsk_pairs

    @property
    def shape_of(self) -> dict:
        """w -> shape of the RSK insertion tableau P(w)."""
        if self._shape_of is None:
            self._shape_of = {w: P.shape for w, (P, _) in self.rsk_pairs.items()}
        return self._shape_of


@lru_cache(maxsize=None)
def kl_table(r: int) -> KLTable:
    return KLTable(r)


# ----------------------------------------------------------------------
# Hecke elements


class HeckeElement:
    """Sparse H_r element over a tagged basis (standard, lower, upper)."""

    __slots__ = ("r", "basis_tag", "coords")

    def __init__(self, r: int, basis_tag: str, coords: dict):
        if basis_tag not in ("standard", "lower", "upper"):
            raise ValueError(f"unknown basis {basis_tag!r}")
        self.r = r
        self.basis_tag = basis_tag
        self.coords = {
            w: RationalFn._coerce(c)
            for w, c in coords.items()
            if RationalFn._coerce(c)
        }

    @classmethod
    def t(cls, w: Permutation) -> "HeckeElement":
        return cls(w.r, "standard", {w: RationalFn.from_int(1)})

    @classmethod
    def t_simple(cls, r: int, i: int) -> "HeckeElement":
        return cls.t(Permutation.simple(r, i))

    @classmethod
    def unit(cls, r: int) -> "HeckeElement":
        return cls.t(Permutation.identity(r))

    @classmethod
    def c_prime_s(cls, r: int, i: int) -> "HeckeElement":
        return cls(
            r,
            "standard",
            {
                Permutation.simple(r, i): RationalFn.from_int(1),
                Permutation.identity(r): RationalFn(UINV),
            },
        )

    @classmethod
    def c_s(cls, r: int, i: int) -> "HeckeElement":
        return cls(
            r,
            "standard",
            {
                Permutation.simple(r, i): RationalFn.from_int(1),
                Permutation.identity(r): RationalFn(NEG_U),
            },
        )

    def is_zero(self) -> bool:
        return not self.coords

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        if self.basis_tag != other.basis_tag or self.r != other.r:
            raise ValueError("basis or size mismatch")
        out = dict(self.coords)
        for w, c in other.coords.items():
            out[w] = out.get(w, RationalFn.from_int(0)) + c
        return HeckeElement(self.r, self.basis_tag, out)

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        return self + other.scale(RationalFn.from_int(-1))

    def scale(self, c) -> "HeckeElement":
        c = RationalFn._coerce(c)
        return HeckeElement(
            self.r, self.basis_tag, {w: c * x for w, x in self.coords.items()}
        )

    def __eq__(self, other):
        return (
            isinstance(other, HeckeElement)
            and self.r == other.r
            and self.basis_tag == other.basis_tag
            and self.coords == other.coords
        )

    def __repr__(self):
        terms = ", ".join(
            f"{w}: {c}" for w, c in sorted(self.coords.items(), key=lambda t: t[0].word)
        )
        return f"HeckeElement[{self.basis_tag}]({{{terms}}})"


def multiply_standard(a: HeckeElement, b: HeckeElement) -> HeckeElement:
    """Product in H_r; both factors in the standard basis."""
    if a.r != b.r:
        raise ValueError("size mismatch")
    if a.basis_tag != "standard" or b.basis_tag != "standard":
        raise ValueError("multiply_standard requires standard-basis input")
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
    return HeckeElement(a.r, "standard", total)


def bar_element(a: HeckeElement) -> HeckeElement:
    """The bar involution; input and output in the standard basis."""
    if a.basis_tag != "standard":
        raise ValueError("bar_element requires standard-basis input")
    table = kl_table(a.r).bar_t
    out: dict = {}
    for w, c in a.coords.items():
        cb = c.bar()
        for x, d in table[w].items():
            t = cb * d
            if x in out:
                out[x] = out[x] + t
            else:
                out[x] = t
    return HeckeElement(a.r, "standard", out)


def theta_element(a: HeckeElement) -> HeckeElement:
    """The A-algebra involution theta(T_s) = -T_s^-1, standard basis."""
    if a.basis_tag != "standard":
        raise ValueError("theta_element requires standard-basis input")
    table = kl_table(a.r).theta_t
    out: dict = {}
    for w, c in a.coords.items():
        for x, d in table[w].items():
            t = c * d
            if x in out:
                out[x] = out[x] + t
            else:
                out[x] = t
    return HeckeElement(a.r, "standard", out)


def kl_lower(w: Permutation) -> HeckeElement:
    """C'_w in standard coordinates."""
    return HeckeElement(w.r, "standard", dict(kl_table(w.r).lower[w]))


def kl_upper(w: Permutation) -> HeckeElement:
    """C_w in standard coordinates."""
    return HeckeElement(w.r, "standard", dict(kl_table(w.r).upper[w]))


def mu(x: Permutation, w: Permutation) -> int:
    if x.r != w.r:
        raise ValueError("size mismatch")
    return kl_table(x.r).mu(x, w)


def to_standard(a: HeckeElement) -> HeckeElement:
    if a.basis_tag == "standard":
        return a
    table = kl_table(a.r)
    expansions = table.lower if a.basis_tag == "lower" else table.upper
    out: dict = {}
    for w, c in a.coords.items():
        for x, d in expansions[w].items():
            t = c * d
            if x in out:
                out[x] = out[x] + t
            else:
                out[x] = t
    return HeckeElement(a.r, "standard", out)


def from_standard(a: HeckeElement, basis_tag: str) -> HeckeElement:
    """Expand a standard-basis element over a canonical basis by
    triangular elimination (both canonical bases are unitriangular over
    the standard basis in length order)."""
    if basis_tag == "standard":
        return a
    table = kl_table(a.r)
    expansions = table.lower if basis_tag == "lower" else table.upper
    rest = dict(a.coords)
    out: dict = {}
    while rest:
        w = max(rest, key=lambda p: (p.length(), p.word))
        c = rest.pop(w)
        if not c:
            continue
        out[w] = c
        for x, d in expansions[w].items():
            if x == w:
                continue
            t = c * d
            if x in rest:
                rest[x] = rest[x] - t
            else:
                rest[x] = -t
        rest = {x: v for x, v in rest.items() if v}
    return HeckeElement(a.r, basis_tag, out)


def convert(a: HeckeElement, basis_tag: str) -> HeckeElement:
    return from_standard(to_standard(a), basis_tag)


def right_multiply_canonical(a: HeckeElement, i: int) -> HeckeElement:
    """Right multiplication of a canonical-basis element by the
    canonical generator of matching flavor: C'_{s_i} when a is in the
    lower basis, C_{s_i} when upper."""
    if a.basis_tag not in ("lower", "upper"):
        raise ValueError("right_multiply_canonical requires a canonical basis")
    table = kl_table(a.r)
    two = RationalFn(quantum_int(2))
    sign = two if a.basis_tag == "lower" else -two
    out: dict = {}

    def add(w, c):
        if w in out:
            out[w] = out[w] + c
        else:
            out[w] = c

    for w, c in a.coords.items():
        if i in w.right_descents():
            add(w, sign * c)
        else:
            for wp, m in table.mu_pairs[w]:
                if i in wp.right_descents():
                    add(wp, c * m)
    return HeckeElement(a.r, a.basis_tag, out)


# ----------------------------------------------------------------------
# cells


@dataclass
class CellPartition:
    """Partition of a basis into cells plus the induced preorder on
    blocks (block i <= block j iff j reaches i... see `leq`)."""

    labels: list
    blocks: list  # list of lists of labels
    block_leq: set  # pairs (i, j) with block i <= block j in the preorder

    def as_label_sets(self):
        return [frozenset(b) for b in self.blocks]


def cells(labels: list, action_matrices: list) -> CellPartition:
    """Cells of a module-with-basis. action_matrices[g][j][i] nonzero
    means basis label i appears in (label j) * generator g; matrices are
    dicts {j: {i: coeff}} or dense rows indexed [j][i]."""
    n = len(labels)
    adj = [set() for _ in range(n)]  # j -> i edges (i appears in j*h)
    for mat in action_matrices:
        if isinstance(mat, dict):
            for j, row in mat.items():
                for i, c in row.items():
                    if c and i != j:
                        adj[j].add(i)
        else:
            for j in range(n):
                for i in range(n):
                    if mat[j][i] and i != j:
                        adj[j].add(i)

    # iterative Tarjan SCC
    index = [None] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = [0]

    for root in range(n):
        if index[root] is not None:
            continue
        work = [(root, iter(adj[root]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if index[w] is None:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(adj[w])))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)

    comp_of = {}
    for k, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = k
    # reachability on the condensation: j -> i edge means cell(i) <= cell(j)
    succ = [set() for _ in comps]
    for j in range(n):
        for i in adj[j]:
            if comp_of[i] != comp_of[j]:
                succ[comp_of[j]].add(comp_of[i])
    reach = [set() for _ in comps]
    for k in range(len(comps)):
        seen, todo = {k}, [k]
        while todo:
            v = todo.pop()
            for w in succ[v]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        reach[k] = seen
    leq = {(i, j) for j in range(len(comps)) for i in reach[j]}
    blocks = [[labels[v] for v in comp] for comp in comps]
    return CellPartition(labels, blocks, leq)


def cells_regular(r: int, basis_tag: str) -> CellPartition:
    """Right cells of the regular module in the chosen canonical basis,
    using only the canonical generators."""
    perms = kl_table(r).perms
    idx = {w: k for k, w in enumerate(perms)}
    mats = []
    for i in range(1, r):
        mat = {}
        for w in perms:
            el = HeckeElement(r, basis_tag, {w: RationalFn.from_int(1)})
            img = right_multiply_canonical(el, i)
            mat[idx[w]] = {idx[x]: c for x, c in img.coords.items()}
        mats.append(mat)
    return cells(perms, mats)


# ----------------------------------------------------------------------
# Temperley-Lieb quotient


class TLElement:
    """Element of the quotient H_{r,d}, coordinates over the surviving
    upper canonical images {C_w : l(sh(P(w))) <= d}."""

    __slots__ = ("r", "d", "coords")

    def __init__(self, r: int, d: int, coords: dict):
        self.r = r
        self.d = d
        shape_of = kl_table(r).shape_of
        self.coords = {
            w: RationalFn._coerce(c)
            for w, c in coords.items()
            if RationalFn._coerce(c) and shape_of[w].length <= d
        }

    def __eq__(self, other):
        return (
            isinstance(other, TLElement)
            and (self.r, self.d) == (other.r, other.d)
            and self.coords == other.coords
        )

    def __repr__(self):
        terms = ", ".join(
            f"{w}: {c}" for w, c in sorted(self.coords.items(), key=lambda t: t[0].word)
        )
        return f"TLElement(r={self.r}, d={self.d}, {{{terms}}})"

    def multiply(self, other: "TLElement") -> "TLElement":
        a = to_standard(HeckeElement(self.r, "upper", dict(self.coords)))
        b = to_standard(HeckeElement(self.r, "upper", dict(other.coords)))
        prod = from_standard(multiply_standard(a, b), "upper")
        return TLElement(self.r, self.d, prod.coords)


def tl_dimension(r: int, d: int = 2) -> int:
    shape_of = kl_table(r).shape_of
    return sum(1 for w in kl_table(r).perms if shape_of[w].length <= d)


def tl_project(a: HeckeElement, d: int = 2) -> TLElement:
    """Project onto the quotient H_{r,d}; input in the upper basis."""
    if a.basis_tag != "upper":
        raise ValueError("tl_project requires upper-basis input")
    return TLElement(a.r, d, dict(a.coords))
