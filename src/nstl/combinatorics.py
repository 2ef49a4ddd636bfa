"""Permutations, partitions, standard Young tableaux, RSK, descent
statistics, dual Knuth transformations, dual equivalence graphs, and
the strongly connected components of a digraph."""

from __future__ import annotations

import itertools
from functools import lru_cache


class Permutation:
    """Permutation of 1..r in one-line notation; (w*v)(i) = w(v(i))."""

    __slots__ = ("word", "_hash", "_length")

    def __init__(self, word):
        word = tuple(word)
        if sorted(word) != list(range(1, len(word) + 1)):
            raise ValueError(f"not a permutation of 1..{len(word)}: {word}")
        self.word = word
        self._hash = None
        self._length = None

    @property
    def r(self) -> int:
        return len(self.word)

    @classmethod
    def identity(cls, r: int) -> "Permutation":
        return cls(range(1, r + 1))

    @classmethod
    def simple(cls, r: int, i: int) -> "Permutation":
        """The adjacent transposition s_i, 1 <= i <= r-1."""
        if not 1 <= i <= r - 1:
            raise ValueError(f"s_{i} out of range for r={r}")
        w = list(range(1, r + 1))
        w[i - 1], w[i] = w[i], w[i - 1]
        return cls(w)

    def __call__(self, i: int) -> int:
        return self.word[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.r != other.r:
            raise ValueError("size mismatch")
        return Permutation(self.word[j - 1] for j in other.word)

    def length(self) -> int:
        if self._length is None:
            w = self.word
            self._length = sum(
                1
                for i in range(len(w))
                for j in range(i + 1, len(w))
                if w[i] > w[j]
            )
        return self._length

    def right_descents(self) -> frozenset:
        """{i : w s_i < w} = {i : w(i) > w(i+1)}."""
        w = self.word
        return frozenset(i + 1 for i in range(len(w) - 1) if w[i] > w[i + 1])

    def _step(self, w: list, up: bool) -> "Permutation":
        """self times a simple reflection, whose word w is not validated
        again; it is one longer than self when up."""
        v = Permutation.__new__(Permutation)
        v.word, v._hash, v._length = tuple(w), None, self._length
        if v._length is not None:
            v._length += 1 if up else -1
        return v

    def times_simple_right(self, i: int) -> "Permutation":
        if not 1 <= i < len(self.word):
            raise ValueError(f"s_{i} out of range for r={len(self.word)}")
        w = list(self.word)
        w[i - 1], w[i] = w[i], w[i - 1]
        return self._step(w, w[i - 1] > w[i])

    def times_simple_left(self, i: int) -> "Permutation":
        w = list(self.word)
        a, b = w.index(i), w.index(i + 1)
        w[a], w[b] = w[b], w[a]
        return self._step(w, a < b)

    def reduced_word(self) -> tuple:
        """One reduced word (indices i of s_i), by descent stripping."""
        out = []
        w = self
        while True:
            ds = w.right_descents()
            if not ds:
                return tuple(reversed(out))
            i = min(ds)
            out.append(i)
            w = w.times_simple_right(i)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.word == other.word

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.word)
        return self._hash

    def __repr__(self):
        return f"Permutation({','.join(map(str, self.word))})"

    def __str__(self):
        return ",".join(map(str, self.word))

def all_permutations(r: int):
    return [Permutation(w) for w in itertools.permutations(range(1, r + 1))]


class Partition:
    """Integer partition; corners stored west-to-east."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        # trailing zeros are dropped; a zero before a positive part is
        # rejected with the other non-partitions
        parts = [int(p) for p in parts]
        while parts and not parts[-1]:
            parts.pop()
        parts = tuple(parts)
        if any(p <= 0 for p in parts) or any(
            parts[i] < parts[i + 1] for i in range(len(parts) - 1)
        ):
            raise ValueError(f"not a partition: {parts}")
        self.parts = parts

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition(())
        return Partition(
            sum(1 for p in self.parts if p > i) for i in range(self.parts[0])
        )

    def corners(self) -> list:
        """Removable cells (row, col), 0-indexed, west-to-east."""
        out = []
        for i in range(len(self.parts) - 1, -1, -1):
            if i == len(self.parts) - 1 or self.parts[i] > self.parts[i + 1]:
                out.append((i, self.parts[i] - 1))
        return out

    def remove_corner(self, idx: int) -> "Partition":
        row, _ = self.corners()[idx]
        parts = list(self.parts)
        parts[row] -= 1
        return Partition(parts)

    def dominates(self, other: "Partition") -> bool:
        """self >= other in dominance order (same size)."""
        a = b = 0
        for i in range(max(len(self.parts), len(other.parts))):
            a += self.parts[i] if i < len(self.parts) else 0
            b += other.parts[i] if i < len(other.parts) else 0
            if a < b:
                return False
        return True

    def is_two_row(self) -> bool:
        return len(self.parts) <= 2

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __lt__(self, other):
        return self.parts < other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition({self})"

    def __str__(self):
        return ",".join(map(str, self.parts))

    @classmethod
    def parse(cls, s: str) -> "Partition":
        s = s.strip()
        if not s:
            return cls(())
        return cls(int(x) for x in s.split(","))


def partitions_of(r: int, max_length: int | None = None):
    """All partitions of r (optionally with bounded length), in
    decreasing dominance-compatible lexicographic order."""
    out = []

    def rec(remaining, maxpart, prefix):
        if remaining == 0:
            out.append(Partition(prefix))
            return
        if max_length is not None and len(prefix) == max_length:
            return
        for p in range(min(maxpart, remaining), 0, -1):
            rec(remaining - p, p, prefix + [p])

    rec(r, r, [])
    return out


def two_row_partitions(r: int):
    return partitions_of(r, max_length=2)


class Tableau:
    """Young tableau with positive integer entries; rows of weakly
    decreasing lengths."""

    __slots__ = ("rows", "_hash")

    def __init__(self, rows):
        rows = tuple(tuple(int(x) for x in row) for row in rows if len(row))
        if any(
            len(rows[i]) < len(rows[i + 1]) for i in range(len(rows) - 1)
        ):
            raise ValueError(f"ragged rows not a partition shape: {rows}")
        self.rows = rows
        self._hash = None

    @property
    def shape(self) -> Partition:
        return Partition(len(row) for row in self.rows)

    @property
    def size(self) -> int:
        return sum(len(row) for row in self.rows)

    def is_standard(self) -> bool:
        entries = sorted(x for row in self.rows for x in row)
        if entries != list(range(1, self.size + 1)):
            return False
        for row in self.rows:
            if any(row[j] >= row[j + 1] for j in range(len(row) - 1)):
                return False
        for i in range(len(self.rows) - 1):
            for j in range(len(self.rows[i + 1])):
                if self.rows[i][j] >= self.rows[i + 1][j]:
                    return False
        return True

    def transpose(self) -> "Tableau":
        if not self.rows:
            return Tableau(())
        cols = []
        for j in range(len(self.rows[0])):
            cols.append([row[j] for row in self.rows if len(row) > j])
        return Tableau(cols)

    def position(self, entry: int):
        for i, row in enumerate(self.rows):
            for j, x in enumerate(row):
                if x == entry:
                    return (i, j)
        raise ValueError(f"entry {entry} not present")

    def restrict(self, k: int) -> "Tableau":
        """Subtableau of entries <= k (standard input assumed)."""
        return Tableau(
            tuple(x for x in row if x <= k) for row in self.rows
        )

    def with_swapped(self, a: int, b: int) -> "Tableau":
        return Tableau(
            tuple(b if x == a else a if x == b else x for x in row)
            for row in self.rows
        )

    def corner_index_of_max(self) -> int:
        """Index i (0-based, west-to-east) of the corner holding the
        largest entry; the entry must sit in a corner."""
        pos = self.position(self.size)
        corners = self.shape.corners()
        return corners.index(pos)

    def column_word(self) -> tuple:
        """Columns left to right, each read top to bottom; the canonical
        SYT sort key."""
        return tuple(x for col in self.transpose().rows for x in col)

    def __eq__(self, other):
        return isinstance(other, Tableau) and self.rows == other.rows

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.rows)
        return self._hash

    def __repr__(self):
        return f"Tableau({self})"

    def __str__(self):
        return "/".join("".join(map(str, row)) for row in self.rows)

    def to_json(self) -> dict:
        return {
            "shape": list(self.shape.parts),
            "rows": [list(row) for row in self.rows],
        }

def row_superstandard(shape: Partition) -> Tableau:
    """Z*: 1..lambda_1 in the first row, continuing row by row."""
    rows, k = [], 1
    for p in shape.parts:
        rows.append(range(k, k + p))
        k += p
    return Tableau(rows)


def y_tableau(shape: Partition) -> Tableau:
    """Entries 2c-1, 2c in each height-2 column c; remaining entries
    fill out the first row in increasing order."""
    if shape.length > 2:
        raise ValueError("Y tableau requires at most two rows")
    lam2 = shape.parts[1] if shape.length == 2 else 0
    row1 = [2 * c + 1 for c in range(lam2)]
    row2 = [2 * c + 2 for c in range(lam2)]
    row1 += list(range(2 * lam2 + 1, shape.size + 1))
    return Tableau([row1, row2] if lam2 else [row1])


@lru_cache(maxsize=None)
def _syt_enumerate(parts: tuple) -> tuple:
    shape = Partition(parts)
    r = shape.size
    if r == 0:
        return (Tableau(()),)
    out = []
    for i in range(len(shape.corners())):
        row, col = shape.corners()[i]
        for sub in _syt_enumerate(shape.remove_corner(i).parts):
            rows = [list(rw) for rw in sub.rows]
            while len(rows) <= row:
                rows.append([])
            rows[row].append(r)
            out.append(Tableau(rows))
    out.sort(key=lambda t: t.column_word())
    return tuple(out)


def syt_enumerate(shape: Partition) -> list:
    """All standard tableaux of the given shape, canonical order."""
    return list(_syt_enumerate(shape.parts))


def syt_count(shape: Partition) -> int:
    return len(_syt_enumerate(shape.parts))


def rsk(word):
    """Row insertion RSK; returns (P, Q)."""
    p_rows: list[list[int]] = []
    q_rows: list[list[int]] = []
    for step, x in enumerate(word, start=1):
        i = 0
        while True:
            if i == len(p_rows):
                p_rows.append([x])
                q_rows.append([step])
                break
            row = p_rows[i]
            j = next((j for j, y in enumerate(row) if y > x), None)
            if j is None:
                row.append(x)
                q_rows[i].append(step)
                break
            row[j], x = x, row[j]
            i += 1
    return Tableau(p_rows), Tableau(q_rows)


def rsk_inverse(P: Tableau, Q: Tableau):
    """Inverse of rsk on pairs of standard tableaux of equal shape."""
    if P.shape != Q.shape:
        raise ValueError("shape mismatch")
    p_rows = [list(row) for row in P.rows]
    word = []
    for step in range(Q.size, 0, -1):
        i, j = Q.position(step)
        x = p_rows[i].pop()
        for k in range(i - 1, -1, -1):
            row = p_rows[k]
            j2 = max(t for t, y in enumerate(row) if y < x)
            row[j2], x = x, row[j2]
        word.append(x)
    return tuple(reversed(word))


@lru_cache(maxsize=None)
def descent_set(Q: Tableau, convention: str) -> frozenset:
    """Tableau descent sets, cached: lower (for C'_Q labels) collects i
    with i+1 strictly east of i; upper (for C_Q labels) collects i with
    i+1 strictly south of i. An unknown convention raises every call."""
    if convention not in ("lower", "upper"):
        raise ValueError(f"unknown convention {convention!r}")
    out = set()
    for i in range(1, Q.size):
        ri, ci = Q.position(i)
        rj, cj = Q.position(i + 1)
        if convention == "lower" and cj > ci:
            out.add(i)
        elif convention == "upper" and rj > ri:
            out.add(i)
    return frozenset(out)


class DEGraph:
    """Dual equivalence graph: vertices SYT(shape), edges (T, T', i), a
    frozenset of (Tableau, Tableau, i) with canonical T < T'."""

    def __init__(self, shape: Partition, vertices: tuple, edges: frozenset):
        self.shape, self.vertices, self.edges = shape, vertices, edges

    def neighbors(self, T: Tableau):
        out = []
        for a, b, i in self.edges:
            if a == T:
                out.append((b, i))
            elif b == T:
                out.append((a, i))
        return out

    def to_json(self) -> dict:
        idx = {t: k for k, t in enumerate(self.vertices)}
        return {
            "shape": list(self.shape.parts),
            "vertices": [t.to_json() for t in self.vertices],
            "edges": sorted(
                [idx[a], idx[b], i] for a, b, i in self.edges
            ),
        }


def _is_dkt_pair(T: Tableau, Tp: Tableau, i: int) -> bool:
    if not Tp.is_standard():
        return False
    for X in (T, Tp):
        d = descent_set(X, "lower")
        if len(d & {i - 1, i}) != 1:
            return False
    return True


@lru_cache(maxsize=None)
def _dkt_edges(parts: tuple) -> DEGraph:
    shape = Partition(parts)
    r = shape.size
    vertices = tuple(syt_enumerate(shape))
    order = {t: k for k, t in enumerate(vertices)}
    edges = set()
    for T in vertices:
        for i in range(2, r):
            for a, b in ((i - 1, i), (i, i + 1)):
                Tp = T.with_swapped(a, b)
                if _is_dkt_pair(T, Tp, i):
                    x, y = sorted((T, Tp), key=order.get)
                    edges.add((x, y, i))
    return DEGraph(shape, vertices, frozenset(edges))


def dkt_edges(shape: Partition) -> DEGraph:
    return _dkt_edges(shape.parts)


@lru_cache(maxsize=None)
def _de_distances(parts: tuple) -> dict:
    shape = Partition(parts)
    graph = _dkt_edges(parts)
    start = row_superstandard(shape)
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for t in frontier:
            for nb, _ in graph.neighbors(t):
                if nb not in dist:
                    dist[nb] = dist[t] + 1
                    nxt.append(nb)
        frontier = nxt
    return dist


def de_distance(Q: Tableau) -> int:
    """Distance from the row-superstandard tableau in the DE graph."""
    dist = _de_distances(Q.shape.parts)
    if Q not in dist:
        raise ValueError(f"{Q} not connected to the superstandard tableau")
    return dist[Q]


def strong_components(edges: dict) -> list:
    """Strongly connected components of the digraph {vertex: successors},
    as lists, in linear time and without recursion (Kosaraju; Sharir
    1981). A depth-first pass lists the vertices by finishing time; a
    second pass over the reversed edges, latest finisher first, collects
    one component per root. The components come in a topological order
    of the condensation, so the first is a source: no other component
    reaches it. Successors that are not vertices are ignored."""
    finished, seen = [], set()
    for root in edges:
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(edges[root]))]
        while stack:
            v, succ = stack[-1]
            for w in succ:
                if w in edges and w not in seen:
                    seen.add(w)
                    stack.append((w, iter(edges[w])))
                    break
            else:
                stack.pop()
                finished.append(v)
    back: dict = {v: [] for v in edges}
    for v, succ in edges.items():
        for w in succ:
            if w in back:
                back[w].append(v)
    comps, done = [], set()
    for root in reversed(finished):
        if root in done:
            continue
        done.add(root)
        comp, todo = [], [root]
        while todo:
            v = todo.pop()
            comp.append(v)
            for w in back[v]:
                if w not in done:
                    done.add(w)
                    todo.append(w)
        comps.append(comp)
    return comps
