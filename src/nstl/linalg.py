"""Dense exact linear algebra over any field-like element type.

Works for RationalFn, Fraction, or anything supporting +, -, *, / and
truthiness-as-nonzero. Matrices are lists of lists (rows). The one
elimination is rref: the library solves no system by an inverse or a
nullspace, since every matrix it needs is derived or read off a
projector, and the tests keep those routines as oracles.
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


def mat_transpose(A):
    return [list(col) for col in zip(*A)] if A else []


def sparse_columns(A):
    """The columns of A, each as the tuple of its nonzero (row, entry)
    pairs, in increasing row."""
    return tuple(
        tuple((a, x) for a, x in enumerate(col) if x) for col in zip(*A)
    )


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
