"""Reference for nonstandard_dimension_oracle: the dimension of the
unital algebra that the P_i generate on the faithful two-row tensor
sum, counted as the breadth-first product-span closure of words in the
P_i specialized at U0, over F_p for p = ORACLE_PRIME.

A span at a point and mod p is only a lower bound on the generic
dimension; the closure stops at the split bound (block_bound, read off
its own blocks). Through rank 4 the span takes one word's value at a
time in pure Python (ListSpanBasisModP); from rank 5 a whole level
enters a numpy int64 span at once (SpanBasisModP), imported only then.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import isqrt, lcm

from nstl.combinatorics import two_row_partitions
from nstl.exact_arith import RationalFn
from nstl.linalg import identity, mat_mul
from nstl.nonstandard import TensorModule

from isotypic_oracle import dense_ops

# The specialization point and its prime.
U0 = Fraction(7, 3)
ORACLE_PRIME = 1000003


class ModulusError(ValueError):
    """A modulus for which the mod-p closure cannot give a sound rank."""


class StabilizationError(RuntimeError):
    """Spanning closure failed to stabilize within the safety bound."""


def specialize_matrix(M, u0):
    return [[RationalFn._coerce(x).specialize(u0) for x in row] for row in M]


class ListSpanBasisModP:
    """Echelon span tracker over F_p on lists of Python ints, one vector
    at a time: each row has a 1 at its pivot and a 0 at the pivots of
    the rows before it. It needs no numpy, which costs more to import
    than a small span takes to build."""

    def __init__(self, p: int):
        self.p = p
        self.rows = []
        self.pivots = []  # pivot column per row, insertion order

    def add(self, v) -> bool:
        """Reduce the integer vector v mod p against the basis; absorb
        it if independent. Returns True iff the span grew. Each row is
        0 at the earlier pivots, so one pass in insertion order clears
        every pivot; entries are reduced mod p only at the pivot read
        and at the end."""
        p = self.p
        for row, q in zip(self.rows, self.pivots):
            x = v[q] % p
            if x:
                v = [a - x * b for a, b in zip(v, row)]
        v = [a % p for a in v]
        q = next((j for j, a in enumerate(v) if a), None)
        if q is None:
            return False
        inv = pow(v[q], -1, p)
        self.rows.append([a * inv % p for a in v])
        self.pivots.append(q)
        return True

    def __len__(self):
        return len(self.rows)


class SpanBasisModP:
    """Reduced echelon span tracker over F_p on numpy int64 vectors
    (length n needs n (p - 1)^2 < 2^63): each row has a 1 at its pivot,
    and every row is 0 at the pivots of the others."""

    def __init__(self, dim: int, p: int):
        import numpy as np

        self.p = p
        self.rows = np.zeros((0, dim), dtype=np.int64)
        self.pivots = []

    def add_level(self, V):
        """Absorb the rows of V in order, each one that is independent
        of the span and of the rows before it; returns a flag per row,
        True iff that row grew the span. The basis is reduced, so one
        product on the columns that are not its pivots reduces all of V
        against it; each row then needs only the rows of V absorbed
        before it."""
        import numpy as np

        p = self.p
        V = np.mod(V.astype(np.int64), p)
        free = np.ones(V.shape[1], bool)
        free[self.pivots] = False
        V[:, free] = (V[:, free] - V[:, self.pivots] @ self.rows[:, free] % p) % p
        V[:, self.pivots] = 0
        new, pivots, flags = V[:0], [], []
        for v in V:
            v = (v - v[pivots] @ new % p) % p
            nz = np.flatnonzero(v)
            flags.append(bool(nz.size))
            if not nz.size:
                continue
            piv = int(nz[0])
            v = v * pow(int(v[piv]), p - 2, p) % p
            new = np.vstack([(new - np.outer(new[:, piv], v)) % p, v])
            pivots.append(piv)
        old = self.rows
        self.rows = np.vstack([(old - old[:, pivots] @ new % p) % p, new])
        self.pivots += pivots
        return flags

    def __len__(self):
        return self.rows.shape[0]


def _kron_sum(ops):
    """The matrix of c -> sum A c B^T on row-major vec(c)."""
    m, n = len(ops[0][0]), len(ops[0][1])
    cols = list(itertools.product(range(m), range(n)))
    return [[sum(A[a][c] * B[b][d] for A, B in ops) for c, d in cols] for a, b in cols]


def _flip_split(K, f):
    """An operator K on vec(c) of M (x) M, f = dim M, cut into its
    symmetric part (coordinates c_ab, a <= b; basis E_aa, E_ab + E_ba)
    and its antisymmetric part (c_ab, a < b; basis E_ab - E_ba), each
    tagged with the sign of the flip c -> c^T on it. Both are K-stable
    only if K commutes with the flip, which is checked exactly."""
    for a, b, c, d in itertools.product(range(f), repeat=4):
        if K[a * f + b][c * f + d] != K[b * f + a][d * f + c]:
            raise ArithmeticError("operator does not commute with the flip")
    sym = [(a * f + b, b * f + a) for a in range(f) for b in range(a, f)]
    alt = [(j, k) for j, k in sym if j != k]
    plus = [[sum(K[i][x] for x in {j, k}) for j, k in sym] for i, _ in sym]
    minus = [[K[i][j] - K[i][k] for j, k in alt] for i, _ in alt]
    return [(1, plus), (-1, minus)]


def _block_generators(r: int, u0: Fraction):
    """The identity and the specialized P_i on a faithful module cut
    small by the flip c -> c^T, which commutes with P_i because
    P_s = C'_s (x) C'_s + C_s (x) C_s is symmetric in its factors: the
    antisymmetric parts of the squares M_lam (x) M_lam, one block
    M_lam (x) M_mu per pair lam < mu of two-row shapes, and the
    symmetric parts, in that order. The ordered sum over all pairs is a
    direct sum of copies of these, so it has the same annihilator and
    word relations. Returns (signs, mats): signs[k] is the flip sign of
    block k (0 for a pair block), mats[0][k] the identity on block k
    and mats[i][k] the Fraction matrix of P_i."""
    mats = [[] for _ in range(r)]
    shapes = two_row_partitions(r)
    for lam, mu in itertools.combinations_with_replacement(shapes, 2):
        tm = TensorModule(lam, mu)
        f = tm.left.dim
        ops = [[(identity(f, 1, 0), identity(tm.right.dim, 1, 0))]] + [
            [tuple(specialize_matrix(A, u0) for A in op) for op in dense_ops(tm, i, "ll")]
            for i in range(1, r)
        ]
        for blocks, op in zip(mats, ops):
            K = _kron_sum(op)
            blocks.extend([(0, K)] if lam != mu else _flip_split(K, f))
    mats = [sorted((t for t in b if t[1]), key=lambda t: t[0]) for b in mats]
    return [s for s, _ in mats[0]], [[K for _, K in b] for b in mats]


def block_bound(signs, blocks) -> int:
    """The split bound on these blocks: n^2 for each pair block and
    each Lambda^2 part of dimension n, (n - 1)^2 for each Sym^2 part,
    which is V+ plus an eps line, and 1 for all the eps lines together."""
    return 1 + sum((len(B) - (s > 0)) ** 2 for s, B in zip(signs, blocks))


def _integer_generators(gens):
    """Each generator times the lcm of its entries' denominators, one
    scalar over all its blocks: a word in these is a nonzero multiple
    of the same word in the Fraction generators, so both span alike."""
    scales = [lcm(*(x.denominator for B in g for row in B for x in row)) for g in gens]
    return [
        [[[x.numerator * (s // x.denominator) for x in row] for row in B] for B in g]
        for g, s in zip(gens, scales)
    ]


def _closure(ident, gens, multiply, accept, bound, safety):
    """Breadth-first product closure from ident, level by level:
    accept(level) takes one level's (word, value) pairs in order and
    returns those whose word grew the span, each with the value to keep.
    The next level holds the products of the kept values with each
    generator, formed only as accept draws them, so an accept that
    stops once the span holds `bound` words forms no more. The closure
    ends when no word is kept or `bound`, an upper bound on the span's
    dimension, is reached. Returns the accepted words in order."""
    words, steps, frontier = [], 0, accept([((), ident)])
    while True:
        words += [word for word, _ in frontier]
        if not frontier or len(words) >= bound:
            return words
        steps += len(frontier) * len(gens)
        if steps > safety:
            raise StabilizationError("span closure exceeded safety bound")
        frontier = accept(
            (word + (i,), multiply(M, G))
            for word, M in frontier
            for i, G in enumerate(gens, start=1)
        )


def _check_modulus(p: int, u0: Fraction, n: int):
    """A sum of n products of residues mod p stays exact in int64 only
    while n (p - 1)^2 < 2^63; the longest the mod-p closure forms is a
    span vector of length n against its basis. F_p needs p prime. The
    generators are Laurent polynomials in u, so their only poles mod p
    are u0 = 0 and u0 = infinity."""
    if p < 2 or n * (p - 1) ** 2 >= 2**63:
        raise ModulusError(
            f"modulus {p} is outside the int64-safe range "
            f"2 <= p, {n}*(p-1)^2 < 2^63"
        )
    if any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        raise ModulusError(f"modulus {p} is not prime")
    if u0.numerator % p == 0 or u0.denominator % p == 0:
        raise ModulusError(f"u0 = {u0} is 0 or a pole mod {p}")


def _accepted_words(r: int, u0: Fraction, p: int):
    """Words in the specialized P_i (tuples of generator indices i),
    from the empty word, that grow the span over F_p of the
    breadth-first product closure, in the order they are accepted. The
    closure stops once the span reaches block_bound, which no span can
    pass. A word's value is its list of integer blocks mod p: through
    rank 4 in a pure-Python span, from rank 5 a level at a time in
    numpy."""
    signs, mats = _block_generators(r, u0)
    bound = block_bound(signs, mats[0])
    ident, *gens = _integer_generators(mats)
    length = sum(len(B) ** 2 for B in ident)
    safety = length * (r - 1) + r
    _check_modulus(p, u0, length)
    ident, *gens = [
        [[[x % p for x in row] for row in B] for B in M] for M in [ident] + gens
    ]
    if r <= 4:
        span = ListSpanBasisModP(p)

        def accept(level):
            kept = []
            for word, M in level:
                if len(span) == bound:
                    break
                if span.add([x for B in M for row in B for x in row]):
                    kept.append((word, M))
            return kept

        def multiply(M, G):
            return [
                [[x % p for x in row] for row in mat_mul(A, B)]
                for A, B in zip(M, G)
            ]

        return _closure(ident, gens, multiply, accept, bound, safety)

    import numpy as np

    span = SpanBasisModP(length, p)
    ident, *gens = [
        [np.array(B, dtype=np.int64) for B in M] for M in [ident] + gens
    ]

    def accept(level):
        level = list(level)
        flat = np.array([np.concatenate([B.ravel() for B in M]) for _, M in level])
        return [pair for pair, ok in zip(level, span.add_level(flat)) if ok]

    def multiply(M, G):
        return [A @ B % p for A, B in zip(M, G)]

    return _closure(ident, gens, multiply, accept, bound, safety)


def closure_dimension(r: int) -> int:
    """The span dimension of the closure at U0 over F_p, ORACLE_PRIME."""
    return len(_accepted_words(r, U0, ORACLE_PRIME))
