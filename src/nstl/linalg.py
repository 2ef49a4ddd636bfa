"""Dense exact linear algebra over any field-like element type.

Works for RationalFn, Fraction, or anything supporting +, -, *, / and
truthiness-as-nonzero. Matrices are lists of lists (rows). The one
elimination is rref: the library solves no system by an inverse or a
nullspace, since every matrix it needs is derived or read off a
projector, and the tests keep those routines as oracles. Two span
trackers work over F_p: ListSpanBasisModP takes one vector of Python
ints at a time, and SpanBasisModP keeps a reduced echelon basis in
numpy int64 arrays and takes a whole level of the mod-p spanning
closure with one matrix product; numpy is imported only when that class
is first used.
"""

from __future__ import annotations


def mat_mul(A, B):
    """A B, summing a_t B[t][j] only where both factors are nonzero,
    in increasing t; an entry with no such term is its row's zero."""
    m = len(B[0]) if B else 0
    out = []
    for row_a in A:
        acc = [None] * m
        for a, row_b in zip(row_a, B):
            if not a:
                continue
            for j, b in enumerate(row_b):
                if b:
                    term = a * b
                    acc[j] = term if acc[j] is None else acc[j] + term
        if any(x is None for x in acc):
            zero = row_a[0] - row_a[0]
            acc = [zero if x is None else x for x in acc]
        out.append(acc)
    return out


def mat_vec(A, v):
    return [row[0] for row in mat_mul(A, [[x] for x in v])]


def mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_scale(A, c):
    return [[c * a for a in row] for row in A]


def mat_transpose(A):
    return [list(col) for col in zip(*A)] if A else []


def zeros(n, m, zero):
    return [[zero] * m for _ in range(n)]


def identity(n, one, zero):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def rref(M):
    """Reduced row echelon form. Returns (rows, pivot column list).
    Zero entries of the pivot row are skipped in the division and the
    row updates; canonical zeros make that exact."""
    if not M:
        return [], []
    rows = [list(r) for r in M]
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv if x else x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [
                    x - f * y if y else x for x, y in zip(rows[i], rows[r])
                ]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


class SpanBasis:
    """Incrementally maintained echelon basis of a span of vectors."""

    def __init__(self):
        self.rows = []  # echelon rows, normalized to leading 1
        self.pivots = []  # pivot column per row, increasing insertion order

    def add(self, v):
        """Reduce v against the basis; absorb if independent. Returns
        True iff the span grew."""
        v = list(v)
        for row, p in zip(self.rows, self.pivots):
            if v[p]:
                f = v[p]
                for j in range(len(v)):
                    if row[j]:
                        v[j] = v[j] - f * row[j]
        p = next((j for j, x in enumerate(v) if x), None)
        if p is None:
            return False
        pv = v[p]
        v = [x / pv for x in v]
        self.rows.append(v)
        self.pivots.append(p)
        return True

    def __len__(self):
        return len(self.rows)


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


# ----------------------------------------------------------------------
# mod-p routines (numpy int64; vectors of length n need n (p - 1)^2 < 2^63)


class SpanBasisModP:
    """Reduced echelon span tracker over F_p on numpy int64 vectors:
    each row has a 1 at its pivot, and every row is 0 at the pivots of
    the others."""

    def __init__(self, dim: int, p: int):
        import numpy as np

        self.p = p
        self.rows = np.zeros((0, dim), dtype=np.int64)
        self.pivots = []

    def add_level(self, V: np.ndarray) -> list:
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
