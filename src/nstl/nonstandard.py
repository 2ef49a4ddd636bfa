"""Tensor products M_lambda (x) M_mu with the generators
P_s = C'_s (x) C'_s + C_s (x) C_s acting on them, the irreducible
modules they generate, epsilon_+/- embeddings and the trace map,
restriction decompositions, irreducibility certificates read off the
multiplicity-free restriction, and the dimension formula with its
proof: the certified irreducibles give sum d^2 as a lower bound by
density, and the split identities give the same number as an upper
bound, all exactly over Q(u).

Tensor vectors are sparse dicts {(a, b): entry} with no zero entry,
the nonzero entries of a coefficient matrix c of size f_lambda x f_mu
over a basis pair. TensorModule.p_apply is the one loop that applies
P_{s_i}, c -> sum A c B^T over its factor pairs A (x) B, on every
basis-pair tag: "ll" (lower (x) lower), "ul", "lu", "uu", and "gg",
the Gelfand-Tsetlin coordinates of seminormal._gt_basis, in which the
irreducibles' bases are built. Two-row shapes have action matrices
unchanged by the rank-2 quotient of the Hecke algebra, so the same
Specht matrices serve here. In GT coordinates the restriction is a
split of the coordinates: the certificate reads it off the seminormal
cut, and its split identities are read there too.
`seminormal` imports this module, so functions here import it when
they run.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb

from .combinatorics import (
    Partition,
    de_distance,
    descent_set,
    strong_components,
    syt_count,
    two_row_partitions,
)
from .exact_arith import FOUR, R_HALF, R_ONE, R_ZERO, TWO, RationalFn
from .hecke_core import HeckeElement, multiply_standard
from .linalg import identity, mat_mul, rref
from .specht_modules import _shift_diagonal, build_specht


class CertificateError(ValueError):
    """A module fails one of its irreducibility certificates; the
    message names which."""


class RestrictionError(ArithmeticError):
    """Isotypic ranks that do not fit the module: a fault in its data."""


# ---------------------------------------------------------------------
# labels


@dataclass(frozen=True)
class NsIrredLabel:
    """Label of an irreducible: unordered pair {lam, mu}, +lam, -lam,
    or the one-dimensional eps+."""

    kind: str  # "pair" | "plus" | "minus" | "eps_plus"
    shapes: tuple = ()

    def __post_init__(self):
        if self.kind == "pair":
            lam, mu = self.shapes
            if lam == mu:
                raise ValueError("pair label requires distinct shapes")
            # store dominance-descending for a canonical form
            if not lam.dominates(mu):
                object.__setattr__(self, "shapes", (mu, lam))
        elif self.kind in ("plus", "minus"):
            if len(self.shapes) != 1:
                raise ValueError("signed label takes one shape")
        elif self.kind != "eps_plus":
            raise ValueError(f"unknown label kind {self.kind!r}")

    def __str__(self):
        if self.kind == "pair":
            return f"{self.shapes[0]}:{self.shapes[1]}"
        if self.kind == "plus":
            return f"+{self.shapes[0]}"
        if self.kind == "minus":
            return f"-{self.shapes[0]}"
        return "eps+"

    @classmethod
    def parse(cls, text: str) -> "NsIrredLabel":
        text = text.strip()
        if text == "eps+":
            return cls("eps_plus")
        if text.startswith("+"):
            return cls("plus", (Partition.parse(text[1:]),))
        if text.startswith("-"):
            return cls("minus", (Partition.parse(text[1:]),))
        if ":" in text:
            a, b = text.split(":")
            return cls("pair", (Partition.parse(a), Partition.parse(b)))
        raise ValueError(f"cannot parse label {text!r}")

    def dimension(self, r: int) -> int:
        if self.kind == "pair":
            return syt_count(self.shapes[0]) * syt_count(self.shapes[1])
        f = syt_count(self.shapes[0]) if self.shapes else 1
        if self.kind == "plus":
            return comb(f + 1, 2) - 1
        if self.kind == "minus":
            return comb(f, 2)
        return 1


def ns_labels(r: int):
    """The index set of irreducibles at rank r: the pairs of two-row
    shapes, then +lam and -lam for each that is neither a row nor a
    column, then eps+."""
    shapes = two_row_partitions(r)
    out = [NsIrredLabel("pair", pair) for pair in itertools.combinations(shapes, 2)]
    for lam in shapes:
        if lam.length == 2 and lam != Partition([1, 1]):
            out += [NsIrredLabel("plus", (lam,)), NsIrredLabel("minus", (lam,))]
    return out + [NsIrredLabel("eps_plus")]


# ---------------------------------------------------------------------
# tensor modules


class TensorModule:
    """M_lambda (x) M_mu with vectors as sparse dicts {(a, b): entry}
    over a basis pair, with no zero entry."""

    def __init__(self, lam: Partition, mu: Partition):
        if lam.size != mu.size:
            raise ValueError("shapes must have equal size")
        self.lam, self.mu = lam, mu
        self.r = lam.size
        self.left = build_specht(lam)
        self.right = build_specht(mu)
        self.dim = self.left.dim * self.right.dim

    def unit_vectors(self):
        """The unit vectors E_ab of the basis pairs, row-major."""
        return [
            {(a, b): R_ONE}
            for a in range(self.left.dim)
            for b in range(self.right.dim)
        ]

    def p_apply(self, C, i: int, pair: str = "ll") -> dict:
        """P_{s_i} on the sparse vector C over the basis pair: sum A C B^T
        over its factor pairs (SpechtModule.p_factors), as A E_st B^T is
        the outer product of columns s of A and t of B. Zero entries are
        left out."""
        out = {}
        lf, rf = self.left.p_factors(i, pair[0]), self.right.p_factors(i, pair[1])
        for A, B in zip(lf, rf):
            for (s, t), x in C.items():
                for a, y in A[s]:
                    yx = y * x
                    for b, z in B[t]:
                        term = yx * z
                        out[a, b] = out[a, b] + term if (a, b) in out else term
        return {key: x for key, x in out.items() if x}


# ---------------------------------------------------------------------
# recorded case formulas for the action of P_s


# (basis pair, i in D(T), i in D(U)) -> the coefficients that P_{s_i}
# sends T (x) U to on T (x) U, T' (x) U, T (x) U' and T' (x) U', for the
# tableaux T' with i in D(T') times mu(T', T), and likewise U'.
_P_CASES = {
    ("ll", True, True): (FOUR, 0, 0, 0),
    ("ll", True, False): (0, 0, TWO, 0),
    ("ll", False, True): (0, TWO, 0, 0),
    ("ll", False, False): (FOUR, -TWO, -TWO, 2),
    ("ul", True, True): (0, 0, 0, 0),
    ("ul", True, False): (FOUR, 0, -TWO, 0),
    ("ul", False, True): (FOUR, TWO, 0, 0),
    ("ul", False, False): (0, -TWO, TWO, 2),
    ("uu", True, True): (FOUR, 0, 0, 0),
    ("uu", True, False): (0, 0, -TWO, 0),
    ("uu", False, True): (0, -TWO, 0, 0),
    ("uu", False, False): (FOUR, TWO, TWO, 2),
}


def p_action(tm: TensorModule, C, i: int, pair: str = "ll") -> dict:
    """Action of P_{s_i} on a sparse vector {(a, b): entry}, computed
    from the descent-set/mu case formulas (_P_CASES) on the chosen basis
    pair. Zero entries are left out."""
    if pair not in ("ll", "ul", "uu"):
        raise ValueError(f"unsupported basis pair {pair!r}")
    left, right = tm.left, tm.right
    lconv = "lower" if pair[0] == "l" else "upper"
    rconv = "lower" if pair[1] == "l" else "upper"
    out = {}

    def neighbors(module, conv, q):
        return [
            (module.index[qp], module.mu(qp, q))
            for qp in module.basis
            if i in descent_set(qp, conv) and module.mu(qp, q)
        ]

    for (t, u), c in C.items():
        T, U = left.basis[t], right.basis[u]
        case = (pair, i in descent_set(T, lconv), i in descent_set(U, rconv))
        same, lft, rgt, both = _P_CASES[case]
        ln, rn = neighbors(left, lconv, T), neighbors(right, rconv, U)
        terms = (
            [(t, u, same)]
            + [(a, u, lft * m) for a, m in ln]
            + [(t, b, rgt * m) for b, m in rn]
            + [(a, b, both * ma * mb) for a, ma in ln for b, mb in rn]
        )
        for a, b, x in terms:
            if x:
                term = c * x
                out[a, b] = out[a, b] + term if (a, b) in out else term
    return {key: x for key, x in out.items() if x}


# ---------------------------------------------------------------------
# epsilon embeddings and trace


def epsilon_plus_vector(lam: Partition) -> dict:
    """The eps+ line in M_lam (x) M_lam, as a sparse lower (x) lower
    vector: the inverse transition matrix X^-1."""
    X_inv = build_specht(lam).transition_inv
    return {
        (a, b): x for a, row in enumerate(X_inv) for b, x in enumerate(row) if x
    }


def epsilon_minus_vector(lam: Partition) -> dict:
    """sum_Q (-1)^{l(Q)} C'_{Q^t} (x) C'_Q in M_{lam'} (x) M_lam,
    as a sparse lower (x) lower vector."""
    left, right = build_specht(lam.conjugate()), build_specht(lam)
    return {
        (left.index[Q.transpose()], right.index[Q]): RationalFn.from_int(
            -1 if de_distance(Q) % 2 else 1
        )
        for Q in right.basis
    }


def _trace(M):
    t = R_ZERO
    for a in range(len(M)):
        t = t + M[a][a]
    return t


@lru_cache(maxsize=None)
def square_split_identities(lam: Partition) -> str:
    """Check exactly over Q(u), for every generator P_i of the square
    M_lam (x) M_lam, the identities that cut it into P_i-stable pieces,
    in the GT coordinates of seminormal._gt_basis: P_i is
    TensorModule.p_apply on the pair "gg", its factors are
    SpechtModule.p_factors(i, "g"), eps is diag(E) and t(C) =
    sum_s g_s C_ss / f. Returns '' when all hold, else names the first
    that fails.

    - t(eps) = 1, as sum_s g_s E_s = f;
    - P_i eps = 4 eps;
    - t o P_i = 4 t, as sum_F F^T diag(g) F = 4 diag(g), read for
      a <= b as it is symmetric: its (a, b) entry is f t(P_i E_ab),
      read off the diagonal of P_i E_ab alone.

    By construction one factor tuple serves both sides, so P_i commutes
    with the flip C -> C^T and keeps Sym^2 and Lambda^2 = V-, and eps is
    symmetric. Then C -> C - t(C) eps commutes with P_i, so Sym^2 of
    dimension n is V+ = Sym^2 n ker t, of dimension n - 1, plus the line
    of eps, and both are stable; every P_i acts on every eps line by 4.
    _gt_basis checks Pi V = I and V^T X V = diag(g), so c = V C V^T
    carries all of it to lower (x) lower coordinates: P_i to
    c -> sum A c B^T, C^T to c^T, diag(E) to X^-1 and t to <c, X> / f."""
    from .seminormal import _gt_basis

    tm, gt = TensorModule(lam, lam), _gt_basis(lam.parts)
    g, eps = gt.g, {(s, s): e for s, e in enumerate(gt.E)}
    if sum(map(RationalFn.__mul__, g, gt.E), R_ZERO) != RationalFn.from_int(len(g)):
        return f"t(eps) != 1 on {lam}"
    four_eps = {key: FOUR * x for key, x in eps.items()}
    for i in range(1, lam.size):
        if tm.p_apply(eps, i, "gg") != four_eps:
            return f"P_{i} eps != 4 eps on {lam}"
        fs = tm.left.p_factors(i, "g")
        for a, b in itertools.combinations_with_replacement(range(len(g)), 2):
            f_t = sum(  # f t(P_i E_ab) = sum_F sum_c g_c F[c][a] F[c][b]
                (g[c] * x * y for F in fs for c, x in F[a] for d, y in F[b] if c == d),
                R_ZERO,
            )
            if f_t != (FOUR * g[a] if a == b else R_ZERO):
                return f"t P_{i} != 4 t on {lam}"
    return ""


# ---------------------------------------------------------------------
# antipode identities in the Hecke algebra itself


def _generators_with_theta(r: int, i: int) -> list:
    """(f, theta(f)) for f = C'_s and f = C_s, s = s_i. From
    theta(T_s) = -T_s^-1 = -T_s + u - u^-1: theta(C'_s) = -T_s + u = -C_s
    and theta(C_s) = -T_s - u^-1 = -C'_s."""
    cp, cs = HeckeElement.c_prime_s(r, i), HeckeElement.c_s(r, i)
    return [(cp, cs.scale(-1)), (cs, cp.scale(-1))]


def _tensor_product_terms(r, word):
    """Pure-tensor expansion of the product of P_{s_i} over the word,
    as triples (a, theta(a), b) for its terms a (x) b, with the first
    tensor factor multiplied in reversed order (the "op" side of the
    antipode identity). theta is an algebra automorphism, so where a
    gains the factor f on the left, theta(a) gains theta(f)."""
    unit = HeckeElement.unit(r)
    terms = [(unit, unit, unit)]
    for i in word:
        gens = _generators_with_theta(r, i)
        terms = [
            (
                multiply_standard(f, a),
                multiply_standard(tf, ta),
                multiply_standard(b, f),
            )
            for a, ta, b in terms
            for f, tf in gens
        ]
    return terms


def antipode_check(word, r: int = 4) -> bool:
    """mu((1^op (x) 1)(x)) = [2]^{2k} T_e and
    mu((theta^op (x) 1)(x)) = 0 for x the product of P_{s_i} over the
    word. x is a sum of pure tensors a (x) b with a a product of C'_s
    and C_s, so theta(a) is the product of their images, which
    _tensor_product_terms carries beside a: theta(T_s) = -T_s^-1 meets
    the quadratic and braid relations of T_s, so theta extends to an
    algebra automorphism of H_r, determined by the generators."""
    plus = minus = HeckeElement(r, {})
    for a, ta, b in _tensor_product_terms(r, word):
        plus = plus + multiply_standard(a, b)
        minus = minus + multiply_standard(ta, b)
    return plus == HeckeElement.unit(r).scale(FOUR ** len(word)) and minus.is_zero()


# ---------------------------------------------------------------------
# the irreducibles


@dataclass
class NsSubmodule:
    label: NsIrredLabel
    ambient: TensorModule
    basis: list  # sparse GT coordinate vectors {(a, b): entry}

    @property
    def dim(self):
        return len(self.basis)

    @cached_property
    def restriction(self) -> dict:
        """_restriction_split of the basis, computed once per module."""
        return _restriction_split(self)


@lru_cache(maxsize=None)
def build_irreducible(label: NsIrredLabel, r: int) -> NsSubmodule:
    """The module of a label, cached with its restriction: not to be
    mutated. Its basis is in closed form in the GT coordinates of
    seminormal._gt_basis, with E_ab the unit vectors and E the GT
    diagonal of X^-1: a pair's is the E_ab of its product; -lam's the
    (E_ab - E_ba)/2 and +lam's the (E_ab + E_ba)/2, a < b, and for +lam
    also the E_a E_aa - E_0 E_00, a > 0, so sum_s g_s C_ss = 0 on each;
    eps+'s is diag(E), the eps line that square_split_identities checks
    (the GT coordinates of epsilon_plus_vector)."""
    from .seminormal import _gt_basis

    if label not in set(ns_labels(r)):
        raise ValueError(f"label {label} is not in the rank-{r} index set")
    shapes = label.shapes or (max(two_row_partitions(r), key=syt_count),)
    tm = TensorModule(shapes[0], shapes[-1])
    f = tm.left.dim
    pairs = [(a, b) for a in range(f) for b in range(a, f)]
    E = _gt_basis(tm.lam.parts).E
    if label.kind == "pair":
        basis = tm.unit_vectors()
    elif label.kind == "eps_plus":
        basis = [{(s, s): e for s, e in enumerate(E)}]
    elif label.kind == "minus":
        basis = [{(a, b): R_HALF, (b, a): -R_HALF} for a, b in pairs if a < b]
    else:
        basis = [
            {(a, b): R_HALF, (b, a): R_HALF} if a < b
            else {(a, a): E[a], (0, 0): -E[0]}
            for a, b in pairs[1:]
        ]
    return NsSubmodule(label, tm, basis)


def _split_failure(mod: NsSubmodule) -> str:
    """Why the basis is not the piece of the split its label names, or
    '', read in GT coordinates (see certify_irreducible). Each vector
    must lie in the piece: a unit vector of M_lam (x) M_mu for a pair,
    Lambda^2 (C = -C^T) for -lam, V+ (C = C^T with t = 0) for +lam, the
    eps line diag(E) for eps+; there must be as many vectors as the
    piece has dimensions, and they must be independent over Q(u), by an
    exact rref over their support. The pieces of a square are
    P_i-stable by square_split_identities, which is checked here, so
    such a basis spans a closed module."""
    from .seminormal import _gt_basis

    tm, label, basis = mod.ambient, mod.label, mod.basis
    if label.kind == "pair":
        if set(label.shapes) != {tm.lam, tm.mu}:
            return f"ambient {tm.lam} x {tm.mu} is not the pair"

        def inside(C):
            return [x for x in C.values() if x] == [R_ONE]

    else:
        lam = tm.lam
        if tm.mu != lam or label.shapes not in ((), (lam,)):
            return f"ambient {lam} x {tm.mu} is not the label's square"
        broken = square_split_identities(lam)
        if broken:
            return broken
        gt = _gt_basis(lam.parts)
        if label.kind == "eps_plus":
            def inside(C):
                return C == {(s, s): e for s, e in enumerate(gt.E)}

        elif label.kind == "minus":

            def inside(C):
                return all(C.get((b, a), R_ZERO) == -x for (a, b), x in C.items())

        else:

            def inside(C):
                symmetric = all(C.get((b, a), R_ZERO) == x for (a, b), x in C.items())
                t = sum((x * gt.g[a] for (a, b), x in C.items() if a == b), R_ZERO)
                return symmetric and not t

    want = label.dimension(tm.r)
    if len(basis) != want:
        return f"{len(basis)} vectors for a piece of dimension {want}"
    outside = next((k for k, C in enumerate(basis) if not inside(C)), None)
    if outside is not None:
        return f"basis vector {outside} lies outside the {label.kind} piece"
    support = sorted(set().union(*basis))
    _, pivots = rref([[C.get(c, R_ZERO) for C in basis] for c in support])
    if len(pivots) < len(basis):
        k = next(k for k, p in enumerate(pivots + [None]) if p != k)
        return f"basis vector {k} depends on the ones before it"
    return ""


# ---------------------------------------------------------------------
# certification from the multiplicity-free restriction


def certify_irreducible(mod: NsSubmodule) -> None:
    """Certify a module V of rank r absolutely irreducible, exactly over
    Q(u), given that the rank-(r-1) labels are absolutely irreducible
    and pairwise inequivalent (certify_rank runs rank by rank, from
    2 up). Raises CertificateError naming the step that fails:
    closure (_split_failure); multiplicity-free, each label once in the
    restriction to rank r - 1 (restriction_decompose, from the isotypic
    split of the basis); strongly connected, the digraph with j -> k
    when pi_k P_{r-1} probe_j != 0 (_restriction_edges).

    Soundness. (i) Lemma: the projector pi_j onto the pieces labelled j
    lies in the image of H_{r-1,2}. The branching maps iota are
    H_{r-1}-equivariant, so the path pairs cut the ambient into the
    blocks M_nu (x) M_rho of the semisimple H_{r-1} (x) H_{r-1}; the
    flip and c -> t(c) eps commute with the P_i
    (square_split_identities), so the cut by label splits each block
    into rank-(r-1) modules. These are pairwise inequivalent
    irreducibles, so pi_j is a central idempotent of the image, and
    pi_j V lies in V. (ii) V is the direct sum of the pi_j V, each a
    sum of copies of V_j: one copy when its rank is dim V_j. (iii) A
    submodule W is the sum of the pi_j W, each 0 or pi_j V. If W holds
    pi_j V it holds P_{r-1} probe_j, so an edge j -> k puts pi_k V in
    W; strongly connected, W = V. The argument holds over an algebraic
    closure of Q(u) too. A probe that misses an edge can only give a
    false FAIL, never a false PASS.

    The proof runs in GT coordinates (seminormal._gt_basis), which
    checks Pi V = I and V^T X V = diag(g). So c = V C V^T turns the flip
    c -> c^T into C -> C^T, t(c) = <c, X> / f into sum_s g_s C_ss / f,
    and X^-1, the eps line, into diag(E); TensorModule.p_apply on the
    pair "gg" applies each P_i exactly, as Pi V = I, with the factors of
    SpechtModule.p_factors(i, "g"), and square_split_identities checks
    its identities in these terms. The (nu, rho) child block of c is
    the child's GT coordinates of pi_nu c pi_rho^T, since each GT path
    starts with one branching step, so seminormal._nonstandard_pieces,
    with the child's g and E, is the same cut as in lower coordinates;
    one level of it (seminormal._cut) gives the components."""
    broken = _split_failure(mod)
    if broken:
        raise CertificateError(f"not generator-closed: {mod.label} ({broken})")
    try:
        counts = restriction_decompose(mod)
        many = [f"{k} {m} times" for k, m in counts.items() if m > 1]
    except RestrictionError as exc:
        many = [str(exc)]
    if many:
        raise CertificateError(f"not multiplicity-free: {mod.label} ({many[0]})")
    if len(mod.restriction) == 1:
        return
    missing = _unreachable(_restriction_edges(mod))
    if missing:
        raise CertificateError(
            f"not strongly connected: {mod.label} "
            f"({missing[1]} is not reachable from {missing[0]})"
        )


def _restriction_edges(mod: NsSubmodule) -> dict:
    """{j: the labels k != j with pi_k P_{r-1} probe_j != 0}, read off
    one GT cut of P_{r-1} probe_j, applied in GT coordinates."""
    from .seminormal import _cut, _level

    tm = mod.ambient
    level = _level(tm, tm.r - 1)
    return {
        j: set(_cut(tm.p_apply(probe, tm.r - 1, "gg"), level)) - {j}
        for j, (_, probe) in mod.restriction.items()
    }


def _unreachable(edges: dict) -> tuple:
    """(j, k) with k not reachable from j in the digraph, or () when it
    is strongly connected: k in the first, source component of
    strong_components and j the first vertex outside it."""
    comps = strong_components(edges)
    if len(comps) < 2:
        return ()
    return next(j for j in edges if j not in comps[0]), comps[0][0]


def chain_trace(label: NsIrredLabel, r: int) -> RationalFn:
    """The trace of P_1 P_2 ... P_{r-1} on the label's module, exactly
    over Q(u): a sum over the 2^(r-1) choices of one factor pair per P_i
    of X (x) Y, with trace tr X tr Y; on Sym^2 and Lambda^2, where the
    flip commutes with it, (tr X tr Y +- tr XY)/2, less the eps line's
    4^(r-1) for +lam. The factor pairs are dense, (L_i, L_i - [2] I) on
    each factor's lower basis."""
    if label.kind == "eps_plus":
        return FOUR ** (r - 1)
    tm = build_irreducible(label, r).ambient
    modules = (tm.left, tm.right)
    terms = [tuple(identity(m.dim, R_ONE, R_ZERO) for m in modules)]
    for i in range(1, r):
        L, R = (m.lower_action[i] for m in modules)
        ops = ((L, R), (_shift_diagonal(L, -TWO), _shift_diagonal(R, -TWO)))
        terms = [(mat_mul(X, A), mat_mul(Y, B)) for X, Y in terms for A, B in ops]
    product = sum((_trace(X) * _trace(Y) for X, Y in terms), R_ZERO)
    if label.kind == "pair":
        return product
    flipped = sum((_trace(mat_mul(X, Y)) for X, Y in terms), R_ZERO)
    if label.kind == "minus":
        return (product - flipped) * R_HALF
    return (product + flipped) * R_HALF - FOUR ** (r - 1)


@lru_cache(maxsize=None)
def certify_rank(s: int) -> None:
    """Certify every label of rank s >= 2, by induction: first ranks
    2 .. s - 1, through this cache (rank 1 has one label, of dimension
    1), so each rank is proved once per process and bottom up. Then
    each module has its label's dimension and passes
    certify_irreducible, and no two are isomorphic, since they differ
    in dimension, in their restrictions (multisets of pairwise
    inequivalent irreducibles), or else, for 2:1,1 and eps+ at rank 2
    and 3:2,1 and +2,1 at rank 3, in chain_trace. All exact over Q(u),
    at no point. Raises CertificateError naming the first failure; a
    failure is not cached."""
    if s > 2:
        certify_rank(s - 1)
    labels = ns_labels(s)
    for label in labels:
        mod = build_irreducible(label, s)
        if mod.dim != label.dimension(s):
            raise CertificateError(f"dimension mismatch for {label}")
        certify_irreducible(mod)

    def restricted(label):
        return restriction_decompose(build_irreducible(label, s))

    for a, b in itertools.combinations(labels, 2):
        if a.dimension(s) != b.dimension(s) or restricted(a) != restricted(b):
            continue
        if chain_trace(a, s) == chain_trace(b, s):
            why = "not told apart by dimension, restriction or trace"
            raise CertificateError(f"{a} and {b} {why}")


# ---------------------------------------------------------------------
# restriction to rank r-1


def _restriction_split(mod: NsSubmodule) -> dict:
    """{rank-(r-1) label: (rank, probe)}: the rank over Q(u) of the
    label's isotypic component of the basis and the probe, the sum of
    the component's echelon rows: nonzero, since they are independent.
    The components are the isotypic split of the basis at level r - 1
    (seminormal._isotypic), each row reduced on its support."""
    from .seminormal import _isotypic, _level

    tm = mod.ambient
    if tm.r < 2:
        raise ValueError("needs r >= 2")
    out = {}
    for label, rows in _isotypic(mod.basis, _level(tm, tm.r - 1)).items():
        probe = {}
        for row in rows:
            for key, x in row.items():
                probe[key] = probe[key] + x if key in probe else x
        out[label] = (len(rows), {key: x for key, x in probe.items() if x})
    return out


def restriction_decompose(mod: NsSubmodule) -> Counter:
    """Multiset of rank-(r-1) labels in the restriction, read off the
    ranks of the exact isotypic components of the basis
    (NsSubmodule.restriction). Ranks that are not multiples of their
    label's dimension, or that miss the module's dimension, raise
    RestrictionError."""
    r = mod.ambient.r
    result = Counter()
    for label, (rk, _) in mod.restriction.items():
        dim = label.dimension(r - 1)
        if rk % dim:
            raise RestrictionError(
                f"rank {rk} of {label} component not a multiple of {dim}"
            )
        result[label] = rk // dim
    total = sum(lbl.dimension(r - 1) * m for lbl, m in result.items())
    if total != mod.dim:
        raise RestrictionError(
            f"restriction dimensions {total} != module dimension {mod.dim}"
        )
    return result


# ---------------------------------------------------------------------
# the dimension, proved, and its formula


def _split_bound(r: int) -> int:
    """An upper bound on the dimension of the algebra that the P_i
    generate on the two-row tensor sum, read off the shapes: n^2 for
    each pair block M_lam (x) M_mu, lam < mu, of dimension n = f_lam f_mu,
    C(f, 2)^2 for each Lambda^2 and (C(f + 1, 2) - 1)^2 for each V+ of a
    square of dimension f^2, and 1 for all the eps lines together, since
    every P_i scales each of them by 4. It holds once
    square_split_identities holds for every shape of rank r, which makes
    those pieces P_i-stable; nonstandard_dimension_oracle checks that."""
    dims = [syt_count(lam) for lam in two_row_partitions(r)]
    pairs = sum((f * g) ** 2 for f, g in itertools.combinations(dims, 2))
    squares = sum(comb(f, 2) ** 2 + (comb(f + 1, 2) - 1) ** 2 for f in dims)
    return 1 + pairs + squares


def nonstandard_dimension_oracle(r: int) -> int:
    """Dimension of the unital algebra generated by the P_i on the
    two-row tensor sum, proved exactly over Q(u) from the certified
    irreducibles: the split identities of every shape of rank r give
    _split_bound as an upper bound; certify_rank(r), with ranks
    2 .. r - 1 below it, each proved once per process, proves the
    labels of rank r absolutely irreducible and pairwise inequivalent,
    so by density the algebra maps onto the sum of their endomorphism
    rings, and sum d^2 is a lower bound. It returns sum d^2 once that
    meets the bound.

    Soundness: a certificate that misses an edge can only give a false
    FAIL, never a false PASS. A split identity that fails, a certificate
    that fails, or a sum that misses the bound raises CertificateError."""
    for lam in two_row_partitions(r):
        broken = square_split_identities(lam)
        if broken:
            raise CertificateError(f"no split bound at r={r}: {broken}")
    bound = _split_bound(r)
    if r >= 2:
        certify_rank(r)
    squares = sum(label.dimension(r) ** 2 for label in ns_labels(r))
    if squares != bound:
        raise CertificateError(
            f"r={r}: squared dimensions sum to {squares}, not the split bound {bound}"
        )
    return squares


def dimension_formula(r: int) -> int:
    catalan = comb(2 * r, r) // (r + 1)
    return comb(catalan, 2) - comb(r, r // 2) + r // 2 + 2


def dimension_formula_details(r: int) -> dict:
    """The closed form plus the two intermediate sums of squared
    irreducible dimensions."""
    squares = Counter()
    for label in ns_labels(r):
        squares[label.kind == "pair"] += label.dimension(r) ** 2
    return {
        "formula": dimension_formula(r),
        "pair_square_sum": squares[True],
        "signed_square_sum_plus_one": squares[False],
        "total_squares": squares[True] + squares[False],
    }
