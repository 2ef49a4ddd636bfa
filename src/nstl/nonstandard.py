"""Tensor products M_lambda (x) M_mu with the generators
P_s = C'_s (x) C'_s + C_s (x) C_s acting on them, the irreducible
modules they generate, epsilon_+/- embeddings and the trace map,
restriction decompositions, irreducibility certificates, and the
dimension formula with its spanning oracle.

Tensor vectors are stored as coefficient matrices c of size
f_lambda x f_mu over a basis pair; an operator A (x) B sends c to
A c B^T. Basis-pair tags: "ll" (lower (x) lower), "ul", "lu", "uu".
Two-row shapes have action matrices unchanged by the rank-2 quotient of
the Hecke algebra, so the same Specht matrices serve here.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb, gcd, isqrt, lcm

from .combinatorics import (
    Partition,
    de_distance,
    descent_set,
    syt_count,
    two_row_partitions,
)
from .exact_arith import FOUR, R_HALF, R_ONE, R_ZERO, TWO, RationalFn
from .hecke_core import (
    HeckeElement,
    multiply_standard,
    theta_element,
    to_standard,
)
from .linalg import (
    IntSpanBasis,
    SpanBasisModP,
    identity,
    mat_add,
    mat_mul,
    mat_scale,
    mat_sub,
    mat_transpose,
    rank,
    rref,
    zeros,
)
from .specht_modules import build_specht, specialize_matrix


class ModulusError(ValueError):
    """A modulus for which the mod-p oracle cannot give a sound rank."""


class CertificateError(ValueError):
    """A module fails one of its irreducibility certificates; the
    message names which."""


class StabilizationError(RuntimeError):
    """Spanning closure failed to stabilize within the safety bound."""


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


def proper_two_row(r: int):
    """Two-row shapes that are neither a single row nor a single
    column."""
    return [
        lam
        for lam in two_row_partitions(r)
        if lam.length == 2 and lam != Partition([1, 1])
    ]


def ns_labels(r: int):
    """The index set of irreducibles at rank r."""
    out = []
    shapes = two_row_partitions(r)
    for lam, mu in itertools.combinations(shapes, 2):
        out.append(NsIrredLabel("pair", (lam, mu)))
    for lam in proper_two_row(r):
        out.append(NsIrredLabel("plus", (lam,)))
        out.append(NsIrredLabel("minus", (lam,)))
    out.append(NsIrredLabel("eps_plus"))
    return out


# ---------------------------------------------------------------------
# tensor modules


class TensorModule:
    """M_lambda (x) M_mu with vectors as coefficient matrices."""

    def __init__(self, lam: Partition, mu: Partition):
        if lam.size != mu.size:
            raise ValueError("shapes must have equal size")
        self.lam, self.mu = lam, mu
        self.r = lam.size
        self.left = build_specht(lam)
        self.right = build_specht(mu)
        self.dim = self.left.dim * self.right.dim

    # -- coordinates ----------------------------------------------------

    def unit_vectors(self):
        """The coefficient matrices E_ab of the basis pairs, row-major."""
        out = []
        for a in range(self.left.dim):
            for b in range(self.right.dim):
                e = zeros(self.left.dim, self.right.dim, R_ZERO)
                e[a][b] = R_ONE
                out.append(e)
        return out

    def convert(self, c, frm: str, to: str):
        """Change a coefficient matrix between basis pairs; first tag
        letter is the left factor ('l' lower / 'u' upper)."""
        if frm == to:
            return [row[:] for row in c]
        XL, XLi = self.left.transition, self.left.transition_inv
        XR, XRi = self.right.transition, self.right.transition_inv
        if frm[0] != to[0]:
            c = mat_mul(XL if to[0] == "u" else XLi, c)
        if frm[1] != to[1]:
            c = mat_mul(c, mat_transpose(XR if to[1] == "u" else XRi))
        return c

    # -- generator action ----------------------------------------------

    def ops(self, i: int, pair: str):
        """P_{s_i} as a list of (A, B) with action c -> sum A c B^T; the
        matrices are the factors' cached ones, not to be mutated."""
        lp, lc = self.left.p_factors(i, pair[0])
        rp, rc = self.right.p_factors(i, pair[1])
        return [(lp, rp), (lc, rc)]

    @staticmethod
    def apply(ops, c):
        out = None
        for A, B in ops:
            term = mat_mul(A, mat_mul(c, mat_transpose(B)))
            out = term if out is None else mat_add(out, term)
        return out

    def p_apply(self, c, i: int, pair: str = "ll"):
        return self.apply(self.ops(i, pair), c)


def flatten(c):
    return [x for row in c for x in row]


# ---------------------------------------------------------------------
# recorded case formulas for the action of P_s


def p_action(tm: TensorModule, c, i: int, pair: str = "ll"):
    """Action of P_{s_i} on a coefficient matrix, computed from the
    descent-set/mu case formulas on the chosen basis pair."""
    if pair not in ("ll", "ul", "uu"):
        raise ValueError(f"unsupported basis pair {pair!r}")
    left, right = tm.left, tm.right
    lconv = "lower" if pair[0] == "l" else "upper"
    rconv = "lower" if pair[1] == "l" else "upper"
    out = zeros(left.dim, right.dim, R_ZERO)

    def neighbors(module, conv, q):
        return [
            (qp, module.mu(qp, q))
            for qp in module.basis
            if i in descent_set(qp, conv) and module.mu(qp, q)
        ]

    for T in left.basis:
        for U in right.basis:
            coeff = c[left.index[T]][right.index[U]]
            if not coeff:
                continue
            in_t = i in descent_set(T, lconv)
            in_u = i in descent_set(U, rconv)
            t, u = left.index[T], right.index[U]

            def bump(a, b, val):
                out[a][b] = out[a][b] + val

            if pair == "ll":
                if in_t and in_u:
                    bump(t, u, FOUR * coeff)
                elif in_t:
                    for Up, m in neighbors(right, rconv, U):
                        bump(t, right.index[Up], TWO * coeff * m)
                elif in_u:
                    for Tp, m in neighbors(left, lconv, T):
                        bump(left.index[Tp], u, TWO * coeff * m)
                else:
                    bump(t, u, FOUR * coeff)
                    for Tp, m in neighbors(left, lconv, T):
                        bump(left.index[Tp], u, -(TWO * coeff * m))
                    for Up, m in neighbors(right, rconv, U):
                        bump(t, right.index[Up], -(TWO * coeff * m))
                    for Tp, mt in neighbors(left, lconv, T):
                        for Up, mu_ in neighbors(right, rconv, U):
                            bump(
                                left.index[Tp],
                                right.index[Up],
                                coeff * (2 * mt * mu_),
                            )
            elif pair == "ul":
                if in_t and in_u:
                    pass  # zero
                elif in_t:
                    bump(t, u, FOUR * coeff)
                    for Up, m in neighbors(right, rconv, U):
                        bump(t, right.index[Up], -(TWO * coeff * m))
                elif in_u:
                    bump(t, u, FOUR * coeff)
                    for Tp, m in neighbors(left, lconv, T):
                        bump(left.index[Tp], u, TWO * coeff * m)
                else:
                    for Tp, m in neighbors(left, lconv, T):
                        bump(left.index[Tp], u, -(TWO * coeff * m))
                    for Up, m in neighbors(right, rconv, U):
                        bump(t, right.index[Up], TWO * coeff * m)
                    for Tp, mt in neighbors(left, lconv, T):
                        for Up, mu_ in neighbors(right, rconv, U):
                            bump(
                                left.index[Tp],
                                right.index[Up],
                                coeff * (2 * mt * mu_),
                            )
            else:  # uu
                if in_t and in_u:
                    bump(t, u, FOUR * coeff)
                elif in_t:
                    for Up, m in neighbors(right, rconv, U):
                        bump(t, right.index[Up], -(TWO * coeff * m))
                elif in_u:
                    for Tp, m in neighbors(left, lconv, T):
                        bump(left.index[Tp], u, -(TWO * coeff * m))
                else:
                    bump(t, u, FOUR * coeff)
                    for Tp, m in neighbors(left, lconv, T):
                        bump(left.index[Tp], u, TWO * coeff * m)
                    for Up, m in neighbors(right, rconv, U):
                        bump(t, right.index[Up], TWO * coeff * m)
                    for Tp, mt in neighbors(left, lconv, T):
                        for Up, mu_ in neighbors(right, rconv, U):
                            bump(
                                left.index[Tp],
                                right.index[Up],
                                coeff * (2 * mt * mu_),
                            )
    return out


# ---------------------------------------------------------------------
# epsilon embeddings and trace


def q_element(tm: TensorModule, c, i: int, pair: str = "ll"):
    """Action of Q_{s_i} = [2]^2 - P_{s_i}."""
    return mat_sub(mat_scale(c, FOUR), tm.p_apply(c, i, pair))


def epsilon_plus_vector(lam: Partition):
    """The eps+ line in M_lam (x) M_lam, as a lower (x) lower
    coefficient matrix (the inverse transition matrix)."""
    return build_specht(lam).transition_inv


def epsilon_minus_vector(lam: Partition):
    """sum_Q (-1)^{l(Q)} C'_{Q^t} (x) C'_Q in M_{lam'} (x) M_lam,
    as a lower (x) lower coefficient matrix."""
    left = build_specht(lam.conjugate())
    right = build_specht(lam)
    c = zeros(left.dim, right.dim, R_ZERO)
    for Q in right.basis:
        sign = -1 if de_distance(Q) % 2 else 1
        c[left.index[Q.transpose()]][right.index[Q]] = RationalFn.from_int(sign)
    return c


def trace_functional(lam: Partition, c, pair: str = "lu"):
    """(1/f) sum of diagonal coefficients in lower (x) upper
    coordinates."""
    m = build_specht(lam)
    tm = TensorModule(lam, lam)
    c = tm.convert(c, pair, "lu")
    return _trace(c) / RationalFn.from_int(m.dim)


def _trace(M):
    t = R_ZERO
    for a in range(len(M)):
        t = t + M[a][a]
    return t


def _pairing(c, X):
    """sum_ab c_ab X_ab. With X the transition matrix of the shape this
    is f t(c), t the trace functional: the lower (x) upper coefficients
    of c are c X^T."""
    return sum(
        (a * x for ra, rx in zip(c, X) for a, x in zip(ra, rx) if a and x),
        R_ZERO,
    )


@lru_cache(maxsize=None)
def square_split_identities(lam: Partition) -> str:
    """Check exactly over Q(u), for every generator P_i of the square
    M_lam (x) M_lam, the identities that cut it into P_i-stable pieces.
    Returns '' when all hold, else names the first that fails.

    - flip: both factors of each (A, B) in P_i are equal, so P_i
      commutes with c -> c^T and keeps Sym^2 and Lambda^2 = V-;
    - eps = eps^T and t(eps) = 1, so eps lies in Sym^2 outside ker t;
    - P_i eps = 4 eps;
    - t o P_i = 4 t, as one covector identity: t(A c B^T) = <A^T X B,
      c> / f with X the transition matrix, so sum A^T X B = 4 X.

    Then c -> c - t(c) eps commutes with P_i, so Sym^2 of dimension n
    is V+ = Sym^2 n ker t, of dimension n - 1, plus the line of eps, and
    both are stable; every P_i acts on every eps line by 4."""
    tm = TensorModule(lam, lam)
    X, eps = tm.left.transition, epsilon_plus_vector(lam)
    if eps != mat_transpose(eps):
        return f"eps of {lam} is not symmetric"
    if _pairing(eps, X) != RationalFn.from_int(tm.left.dim):
        return f"t(eps) != 1 on {lam}"
    four_eps, four_X = mat_scale(eps, FOUR), mat_scale(X, FOUR)
    for i in range(1, lam.size):
        ops = tm.ops(i, "ll")
        if any(A != B for A, B in ops):
            return f"P_{i} does not commute with the flip on {lam}"
        if tm.apply(ops, eps) != four_eps:
            return f"P_{i} eps != 4 eps on {lam}"
        covector = [mat_mul(mat_transpose(A), mat_mul(X, B)) for A, B in ops]
        if reduce(mat_add, covector) != four_X:
            return f"t P_{i} != 4 t on {lam}"
    return ""


# ---------------------------------------------------------------------
# antipode identities in the Hecke algebra itself


def _tensor_product_terms(r, word):
    """Pure-tensor expansion of the product of P_{s_i} over the word,
    with the first tensor factor multiplied in reversed order (the
    "op" side of the antipode identity)."""
    terms = [(HeckeElement.unit(r), HeckeElement.unit(r), R_ONE)]
    for i in word:
        cp = to_standard(HeckeElement.c_prime_s(r, i))
        cs = to_standard(HeckeElement.c_s(r, i))
        new = []
        for a, b, coeff in terms:
            for fa, fb in ((cp, cp), (cs, cs)):
                new.append(
                    (multiply_standard(fa, a), multiply_standard(b, fb), coeff)
                )
        terms = new
    return terms


def antipode_check(word, r: int = 4) -> bool:
    """mu((1^op (x) 1)(x)) = [2]^{2k} T_e and
    mu((theta^op (x) 1)(x)) = 0 for x the product of P_{s_i} over the
    word."""
    terms = _tensor_product_terms(r, word)
    plus = HeckeElement(r, "standard", {})
    minus = HeckeElement(r, "standard", {})
    for a, b, coeff in terms:
        ab = multiply_standard(a, b)
        plus = plus + ab.scale(coeff)
        minus = minus + multiply_standard(theta_element(a), b).scale(coeff)
    expected = HeckeElement.unit(r).scale(FOUR ** len(word))
    return plus == expected and not minus.coords


# ---------------------------------------------------------------------
# the irreducibles


@dataclass
class NsSubmodule:
    label: NsIrredLabel
    ambient: TensorModule
    basis: list  # lower (x) lower coefficient matrices

    @property
    def dim(self):
        return len(self.basis)


def _sym_projection_basis(lam: Partition):
    """Lemma basis of S'M-hat_lam: projections of C'_A . C'_B for
    A < B together with A = B, A != first canonical tableau."""
    m = build_specht(lam)
    tm = TensorModule(lam, lam)
    eps = epsilon_plus_vector(lam)
    out = []
    half = R_HALF
    for a in range(m.dim):
        for b in range(a, m.dim):
            if a == b == 0:
                continue  # the excluded diagonal tableau
            c = zeros(m.dim, m.dim, R_ZERO)
            if a == b:
                c[a][a] = R_ONE
            else:
                c[a][b] = half
                c[b][a] = half
            t = trace_functional(lam, c, "ll")
            out.append(mat_sub(c, mat_scale(eps, t)))
    return out


def build_irreducible(label: NsIrredLabel, r: int) -> NsSubmodule:
    if label not in set(ns_labels(r)):
        raise ValueError(f"label {label} is not in the rank-{r} index set")
    if label.kind == "pair":
        lam, mu = label.shapes
        tm = TensorModule(lam, mu)
        return NsSubmodule(label, tm, tm.unit_vectors())
    if label.kind == "eps_plus":
        lam = max(two_row_partitions(r), key=syt_count)
        return NsSubmodule(
            label, TensorModule(lam, lam), [epsilon_plus_vector(lam)]
        )
    lam = label.shapes[0]
    tm = TensorModule(lam, lam)
    m = tm.left
    if label.kind == "plus":
        return NsSubmodule(label, tm, _sym_projection_basis(lam))
    basis = []
    half = R_HALF
    for a in range(m.dim):
        for b in range(a + 1, m.dim):
            c = zeros(m.dim, m.dim, R_ZERO)
            c[a][b] = half
            c[b][a] = R_ZERO - half
            basis.append(c)
    return NsSubmodule(label, tm, basis)


def _split_failure(mod: NsSubmodule) -> str:
    """Why the basis is not the piece of the split its label names, or
    ''. Each vector must lie in the piece: a unit vector of
    M_lam (x) M_mu for a pair, Lambda^2 (antisymmetric) for -lam, V+
    (symmetric with t = 0) for +lam, the line of eps for eps+; and there
    must be as many vectors as the piece has dimensions. The pieces of a
    square are P_i-stable by square_split_identities, which is checked
    here, so a basis that is also independent spans a closed module."""
    tm, label, basis = mod.ambient, mod.label, mod.basis
    if label.kind == "pair":
        if set(label.shapes) != {tm.lam, tm.mu}:
            return f"ambient {tm.lam} x {tm.mu} is not the pair"
        want = tm.dim

        def inside(c):
            return [x for row in c for x in row if x] == [R_ONE]

    else:
        lam = tm.lam
        if tm.mu != lam or label.shapes not in ((), (lam,)):
            return f"ambient {lam} x {tm.mu} is not the label's square"
        broken = square_split_identities(lam)
        if broken:
            return broken
        f, X = tm.left.dim, tm.left.transition
        pairs = [(a, b) for a in range(f) for b in range(a, f)]
        if label.kind == "eps_plus":
            eps = epsilon_plus_vector(lam)
            want, inside = 1, lambda c: c == eps
        elif label.kind == "minus":
            want = comb(f, 2)

            def inside(c):
                return all(c[a][b] == -c[b][a] for a, b in pairs)

        else:
            want = comb(f + 1, 2) - 1

            def inside(c):
                symmetric = all(c[a][b] == c[b][a] for a, b in pairs)
                return symmetric and not _pairing(c, X)

    if len(basis) != want:
        return f"{len(basis)} vectors for a piece of dimension {want}"
    outside = next((k for k, c in enumerate(basis) if not inside(c)), None)
    if outside is not None:
        return f"basis vector {outside} lies outside the {label.kind} piece"
    return ""


# ---------------------------------------------------------------------
# certification at a specialization


# The point of the irreducibility certificate and the oracle's default.
U0 = Fraction(7, 3)


def _restricted_generators(mod: NsSubmodule, u0: Fraction):
    """Matrices of the specialized P_i on the submodule's own basis:
    one row reduction of [V | images] per generator, V holding the
    basis vectors as columns. V without full column rank at u0 raises
    CertificateError; an image with a pivot outside V raises
    ArithmeticError."""
    basis = [specialize_matrix(c, u0) for c in mod.basis]
    V = mat_transpose([flatten(c) for c in basis])
    d = len(basis)
    gens = []
    for i in range(1, mod.ambient.r):
        ops = [
            (specialize_matrix(A, u0), specialize_matrix(B, u0))
            for A, B in mod.ambient.ops(i, "ll")
        ]
        images = mat_transpose(
            [flatten(TensorModule.apply(ops, c)) for c in basis]
        )
        rows, pivots = rref([v + w for v, w in zip(V, images)])
        if pivots[:d] != list(range(d)):
            raise CertificateError(
                f"not generator-closed: {mod.label} (basis dependent at {u0})"
            )
        if len(pivots) > d:
            raise ArithmeticError("image escapes submodule span")
        G = zeros(d, d, Fraction(0))
        for row, p in zip(rows, pivots):
            G[p] = row[d:]
        gens.append(G)
    return gens


def commutant_dimension(gens, dim):
    """dim {Z : G Z = Z G for all G} over Q; at least 1, since the
    identity commutes."""
    return _hom_nullity(gens, dim, gens, dim, 1)


def hom_dimension(gens_a, dim_a, gens_b, dim_b):
    """dim {Z : Z G_a = G_b Z for all generators} over Q."""
    return _hom_nullity(gens_a, dim_a, gens_b, dim_b, 0)


def _hom_nullity(gens_a, dim_a, gens_b, dim_b, least):
    """The nullity of the dim_a*dim_b equations per generator pair in
    the entries Z[a][b] (unknown a*dim_a + b), known to be at least
    `least`. Each pair is scaled by the lcm of its denominators and its
    equations are ranked as sparse integer rows in an IntSpanBasis,
    which stops once the rank leaves no more than `least` free. The
    terms of Z G and of H Z meet only at unknown a*dim_a + b; a row
    keeps only its nonzero entries, since IntSpanBasis would take a
    zero for a pivot."""
    n = dim_a * dim_b
    span = IntSpanBasis()
    for G, H in _integer_generators(list(zip(gens_a, gens_b))):
        for a in range(dim_b):
            for b in range(dim_a):
                row = {a * dim_a + k: G[k][b] for k in range(dim_a)}
                row.update((k * dim_a + b, -H[a][k]) for k in range(dim_b))
                row[a * dim_a + b] = G[b][b] - H[a][a]
                row = {j: x for j, x in row.items() if x}
                if span.add(row) and len(span) == n - least:
                    return least
    return n - len(span)


def certify_irreducible(mod: NsSubmodule) -> list:
    """Certify one module: closure under the P_i over Q(u), then at
    u0 = U0 the restricted generators and a commutant that is a line.
    Returns those generators for the pairwise Hom check. Raises
    CertificateError naming the certificate that fails; a pole at U0
    raises PoleError.

    Closure is proved without elimination: the basis lies in the piece
    of the split its label names (_split_failure), which the identities
    of square_split_identities, checked exactly over Q(u), make
    P_i-stable, and it has that piece's dimension. The row reduction at
    U0 that builds the generators also shows the basis independent
    there, so independent over Q(u), and it spans the piece.

    One point is enough, and a bad one can only give a false FAIL: the
    rank of the basis at u0 is at most its generic rank, a commutant of
    1 at u0 gives End = Q at generic u, and Hom = 0 at u0 gives Hom = 0
    there, because the nullity of these equations can only drop away
    from u0. That alone is not irreducibility (the upper-triangular
    2 x 2 matrices acting on Q^2 have commutant Q); irreducibility rests
    on it together with verify.check_dimension, which shows the algebra
    has dimension sum_i d_i^2, the dimension of the product of the
    End(V_i)."""
    broken = _split_failure(mod)
    if broken:
        raise CertificateError(f"not generator-closed: {mod.label} ({broken})")
    gens = _restricted_generators(mod, U0)
    if commutant_dimension(gens, mod.dim) != 1:
        raise CertificateError(f"commutant not a line for {mod.label} at {U0}")
    return gens


# ---------------------------------------------------------------------
# isotypic splitting along the parabolic chain


@lru_cache(maxsize=None)
def _paths(parts: tuple, k: int):
    """All branching paths from the given shape down to size k, as
    (terminal shape, iota, pi) with iota: child coords -> top coords and
    pi its left inverse (both lower coordinates)."""
    lam = Partition(parts)
    m = build_specht(lam)
    if lam.size == k:
        eye = identity(m.dim, R_ONE, R_ZERO)
        return ((lam, eye, eye),)
    out = []
    for child_shape, iota, pi, _ in m.branching:
        for term, ci, cp in _paths(child_shape.parts, k):
            out.append((term, mat_mul(iota, ci), mat_mul(cp, pi)))
    return tuple(out)


def nonstandard_pieces(nu: Partition, rho: Partition, d) -> tuple:
    """Cut the child block d of a (nu, rho) path pair by rank-k
    nonstandard label: the whole block is pair{nu, rho} when nu != rho;
    otherwise the eps+ eigenline e = tr(d X^T)/f X^-1, and for f > 1 the
    symmetric rest (d + d^T)/2 - e and the wedge (d - d^T)/2."""
    if nu != rho:
        return ((NsIrredLabel("pair", (nu, rho)), d),)
    child = build_specht(nu)
    X = child.transition
    t = _pairing(d, X) / RationalFn.from_int(child.dim)
    e = mat_scale(child.transition_inv, t)
    if child.dim == 1:
        return ((NsIrredLabel("eps_plus"), e),)
    dt = mat_transpose(d)
    plus = mat_sub(mat_scale(mat_add(d, dt), R_HALF), e)
    return (
        (NsIrredLabel("eps_plus"), e),
        (NsIrredLabel("plus", (nu,)), plus),
        (NsIrredLabel("minus", (nu,)), mat_scale(mat_sub(d, dt), R_HALF)),
    )


def hh_pieces(nu: Partition, rho: Partition, d) -> tuple:
    """The full tensor-square rule: the block is the (nu, rho) part."""
    return (((nu, rho), d),)


def isotypic_split(lam: Partition, mu: Partition, k: int, c, pieces) -> dict:
    """Isotypic components {label: component} of the lower (x) lower
    coefficient matrix c under the rank-k parabolic, zero ones omitted.
    Each pair of branching paths to (nu, rho) cuts its child block
    d = pi_l c pi_r^T into labelled pieces by the rule `pieces`
    (nonstandard_pieces or hh_pieces); each piece is lifted back as
    iota_l piece iota_r^T and added to its label's component."""
    right = [
        (rho, mat_transpose(ri), mat_transpose(rp))
        for rho, ri, rp in _paths(mu.parts, k)
    ]
    out = {}
    for nu, li, lp in _paths(lam.parts, k):
        lc = mat_mul(lp, c)
        for rho, riT, rpT in right:
            for label, piece in pieces(nu, rho, mat_mul(lc, rpT)):
                if any(x for row in piece for x in row):
                    term = mat_mul(li, mat_mul(piece, riT))
                    acc = out.get(label)
                    out[label] = term if acc is None else mat_add(acc, term)
    return out


# ---------------------------------------------------------------------
# restriction to rank r-1


def restriction_decompose(mod: NsSubmodule) -> Counter:
    """Multiset of rank-(r-1) labels in the restriction, read off the
    ranks of the exact isotypic components of the basis."""
    tm = mod.ambient
    if tm.r < 2:
        raise ValueError("needs r >= 2")
    images = {}
    for c in mod.basis:
        split = isotypic_split(tm.lam, tm.mu, tm.r - 1, c, nonstandard_pieces)
        for label, comp in split.items():
            images.setdefault(label, []).append(flatten(comp))
    result = Counter()
    for label, rows in images.items():
        dim = label.dimension(tm.r - 1)
        rk = rank(rows)
        if rk % dim:
            raise ArithmeticError(
                f"rank {rk} of {label} component not a multiple of {dim}"
            )
        result[label] = rk // dim
    total = sum(lbl.dimension(tm.r - 1) * m for lbl, m in result.items())
    if total != mod.dim:
        raise ArithmeticError(
            f"restriction dimensions {total} != module dimension {mod.dim}"
        )
    return result


# ---------------------------------------------------------------------
# dimension oracle and formula


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
    symmetric parts, in that order (the exact closure at r = 4 runs
    about a third faster than with the blocks in shape order). The
    ordered sum over all pairs is a direct sum of copies of these, so
    it has the same annihilator and word relations. Returns (signs,
    mats): signs[k] is the flip sign of block k (0 for a pair block),
    mats[0][k] the identity on block k and mats[i][k] the Fraction
    matrix of P_i."""
    mats = [[] for _ in range(r)]
    shapes = two_row_partitions(r)
    for lam, mu in itertools.combinations_with_replacement(shapes, 2):
        tm = TensorModule(lam, mu)
        f = tm.left.dim
        ops = [[(identity(f, 1, 0), identity(tm.right.dim, 1, 0))]] + [
            [tuple(specialize_matrix(A, u0) for A in op) for op in tm.ops(i, "ll")]
            for i in range(1, r)
        ]
        for blocks, op in zip(mats, ops):
            K = _kron_sum(op)
            blocks.extend([(0, K)] if lam != mu else _flip_split(K, f))
    mats = [sorted((t for t in b if t[1]), key=lambda t: t[0]) for b in mats]
    return [s for s, _ in mats[0]], [[K for _, K in b] for b in mats]


def _split_bound(r: int, signs, blocks) -> int:
    """An upper bound on the dimension of the algebra that the P_i
    generate on these blocks, at generic u and so at every u0: n^2 for
    each pair block and each Lambda^2 part of dimension n, (n - 1)^2 for
    each Sym^2 part, which is V+ plus an eps line, and 1 for all the eps
    lines together, since every P_i scales each of them by 4. It rests
    on square_split_identities for every shape of rank r, proved over
    Q(u); an identity that fails raises CertificateError."""
    for lam in two_row_partitions(r):
        broken = square_split_identities(lam)
        if broken:
            raise CertificateError(f"no split bound at r={r}: {broken}")
    return 1 + sum((len(B) - (s > 0)) ** 2 for s, B in zip(signs, blocks))


def _integer_generators(gens):
    """Each generator times the lcm of its entries' denominators, one
    scalar over all its blocks: a word in these is a nonzero multiple
    of the same word in the Fraction generators, so both span alike,
    and a pair (G, H) scaled as one keeps the solutions of Z G = H Z."""
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


def _accepted_words(r: int, u0: Fraction, mod_p: int = None):
    """Words in the specialized P_i (tuples of generator indices i),
    from the empty word, that grow the span of the breadth-first
    product closure, in the order they are accepted. The closure stops
    once the span reaches _split_bound, which no span can pass.

    A word's value is its list of integer blocks. Exactly, its flattened
    blocks enter a fraction-free span, and it is kept divided by their
    content; with mod_p, a whole level enters an F_p span at once."""
    signs, mats = _block_generators(r, u0)
    bound = _split_bound(r, signs, mats[0])
    ident, *gens = _integer_generators(mats)
    length = sum(len(B) ** 2 for B in ident)
    safety = length * (r - 1) + r
    if mod_p is None:
        span = IntSpanBasis()

        def accept(level):
            kept = []
            for word, M in level:
                if len(span) == bound:
                    break
                flat = enumerate(x for B in M for row in B for x in row)
                v = {j: x for j, x in flat if x}
                if span.add(v):
                    g = gcd(*v.values())
                    M = [[[x // g for x in row] for row in B] for B in M]
                    kept.append((word, M))
            return kept

        def multiply(M, G):
            return [mat_mul(A, B) for A, B in zip(M, G)]

        return _closure(ident, gens, multiply, accept, bound, safety)

    import numpy as np

    _check_modulus(mod_p, u0, length)
    span = SpanBasisModP(length, mod_p)
    ident, *gens = [
        [np.array([[x % mod_p for x in row] for row in B], dtype=np.int64) for B in M]
        for M in [ident] + gens
    ]

    def accept(level):
        level = list(level)
        flat = np.array([np.concatenate([B.ravel() for B in M]) for _, M in level])
        return [pair for pair, ok in zip(level, span.add_level(flat)) if ok]

    def multiply(M, G):
        return [A @ B % mod_p for A, B in zip(M, G)]

    return _closure(ident, gens, multiply, accept, bound, safety)


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


def nonstandard_dimension_oracle(
    r: int, u0: Fraction = U0, mod_p: int = None
) -> int:
    """Dimension of the unital algebra generated by the specialized
    P_i on the faithful two-row tensor sum, by product-span closure.
    With mod_p the span is over F_p; a modulus that cannot give a sound
    rank raises ModulusError.

    Soundness: the span at u0, and mod p, is a lower bound on the
    algebra's dimension at generic u, and _split_bound, from identities
    proved over Q(u), an upper bound. The closure stops when the span
    reaches the upper bound, and then the generic dimension is exactly
    that. A bad point or prime can only leave the span short of it,
    which gives a false FAIL against the formula, never a false PASS.
    A split identity that fails raises CertificateError."""
    return len(_accepted_words(r, u0, mod_p))


def dimension_formula(r: int) -> int:
    catalan = comb(2 * r, r) // (r + 1)
    return comb(catalan, 2) - comb(r, r // 2) + r // 2 + 2


def dimension_formula_details(r: int) -> dict:
    """The closed form plus the two intermediate sums of squared
    irreducible dimensions."""
    shapes = two_row_partitions(r)
    pair_sum = 0
    for lam, mu in itertools.combinations(shapes, 2):
        pair_sum += (syt_count(lam) * syt_count(mu)) ** 2
    signed_sum = 0
    for lam in shapes:
        if lam == Partition([r]):
            continue
        f = syt_count(lam)
        signed_sum += (comb(f + 1, 2) - 1) ** 2 + comb(f, 2) ** 2
    return {
        "formula": dimension_formula(r),
        "pair_square_sum": pair_sum,
        "signed_square_sum_plus_one": signed_sum + 1,
        "total_squares": pair_sum + signed_sum + 1,
    }
