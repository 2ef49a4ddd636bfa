import hashlib
import os
import pathlib
import random
import subprocess
import sys
from functools import lru_cache

import pytest

from nstl import hecke_core, specht_modules
from nstl.combinatorics import (
    Partition,
    Permutation,
    all_permutations,
    partitions_of,
    rsk,
    syt_count,
)
from nstl.exact_arith import L_ONE, R_ONE, LaurentPoly, RationalFn, quantum_int
from nstl.hecke_core import (
    HeckeElement,
    KLTable,
    cells_regular,
    kl_table,
    multiply_standard,
)

from hecke_oracle import (
    bar_element,
    bruhat_leq,
    cells,
    cells_regular_by_products,
    oracle_bar_t,
    oracle_lower,
    oracle_theta_t,
    right_multiply_canonical,
    theta_element,
    upper_of,
)

rng = random.Random(7)


def decoded(table: KLTable) -> dict:
    """{w: {x: P'_{x,w}}}, the packed rows decoded in their order, with
    every row computed first."""
    table._fill()
    rows, perms = table._rows, table.perms
    poly = [hecke_core._unpack(n) for n in rows.values]
    return {
        w: {perms[x]: p for x, p in zip(*rows.row(k, poly))}
        for k, w in enumerate(perms)
    }


def canonical_elements(r: int) -> dict:
    """w -> (C'_w, C_w) from the packed rows of kl_table(r)."""
    lower = decoded(kl_table(r))
    upper = upper_of(lower)
    return {w: (HeckeElement(r, lower[w]), HeckeElement(r, upper[w])) for w in lower}


def rand_element(r: int, nterms: int = 3) -> HeckeElement:
    perms = all_permutations(r)
    coords = {}
    for _ in range(nterms):
        w = rng.choice(perms)
        coords[w] = RationalFn(
            LaurentPoly({rng.randint(-2, 2): rng.randint(-4, 4)})
        )
    return HeckeElement(r, coords)


class TestStandardMultiplication:
    def test_quadratic_relation(self):
        # T_s T_s = (u - u^-1) T_s + T_e
        r = 3
        ts = HeckeElement.t(Permutation.simple(r, 1))
        prod = multiply_standard(ts, ts)
        e = Permutation.identity(r)
        s = Permutation.simple(r, 1)
        assert prod.coords[s] == RationalFn(LaurentPoly({1: 1, -1: -1}))
        assert prod.coords[e] == RationalFn.from_int(1)

    def test_reduced_product(self):
        r = 3
        t1, t2 = (HeckeElement.t(Permutation.simple(r, i)) for i in (1, 2))
        prod = multiply_standard(t1, t2)
        s1s2 = Permutation.simple(r, 1) * Permutation.simple(r, 2)
        assert prod.coords == {s1s2: RationalFn.from_int(1)}

    def test_associativity_random_h4(self):
        for _ in range(60):
            a, b, c = (rand_element(4) for _ in range(3))
            lhs = multiply_standard(multiply_standard(a, b), c)
            rhs = multiply_standard(a, multiply_standard(b, c))
            assert lhs == rhs


class TestBar:
    def test_bar_ts(self):
        r = 3
        ts = HeckeElement.t(Permutation.simple(r, 1))
        b = bar_element(ts)
        e = Permutation.identity(r)
        s = Permutation.simple(r, 1)
        assert b.coords[s] == RationalFn.from_int(1)
        assert b.coords[e] == RationalFn(LaurentPoly({-1: 1, 1: -1}))

    def test_involution_random_h4(self):
        for _ in range(25):
            a = rand_element(4)
            assert bar_element(bar_element(a)) == a

    def test_bar_fixes_c_prime_s(self):
        cp = HeckeElement.c_prime_s(3, 2)
        assert bar_element(cp) == cp

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_theta_is_the_signed_bar_on_the_standard_basis(self, r):
        # theta(T_w) = (-1)^{l(w)} bar(T_w): the two oracle tables agree
        bar, theta = oracle_bar_t(r), oracle_theta_t(r)
        assert list(theta) == list(bar)
        for w, coords in bar.items():
            sign = (-1) ** w.length()
            assert theta[w] == {x: p * sign for x, p in coords.items()}

    def test_bar_antiautomorphism_on_products(self):
        # bar is a ring homomorphism here (it is u-semilinear but
        # multiplicative): bar(ab) = bar(a) bar(b)
        for _ in range(15):
            a, b = rand_element(3), rand_element(3)
            assert bar_element(multiply_standard(a, b)) == multiply_standard(
                bar_element(a), bar_element(b)
            )


class TestKLBases:
    def test_c_prime_s_and_c_s(self):
        s = Permutation.simple(3, 1)
        assert canonical_elements(3)[s] == (
            HeckeElement.c_prime_s(3, 1),
            HeckeElement.c_s(3, 1),
        )

    def test_longest_s3(self):
        # C'_{w0} = sum over x of u^{l(x)-3} T_x
        got, _ = canonical_elements(3)[Permutation((3, 2, 1))]
        for x, c in got.coords.items():
            assert c == RationalFn(LaurentPoly({x.length() - 3: 1}))
        assert len(got.coords) == 6

    def test_longest_s6(self):
        # C'_{w0} = sum over x of u^{l(x)-15} T_x, as kl-basis prints it
        got = dict(kl_table(6).printed("lower"))["6,5,4,3,2,1"]
        assert len(got) == 720
        assert got["1,2,3,4,5,6"] == "u^-15"

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_bar_invariance_and_congruence(self, r):
        for w, (cw, cu) in canonical_elements(r).items():
            assert bar_element(cw) == cw
            for x, c in cw.coords.items():
                p = c.as_laurent()
                assert p is not None
                if x == w:
                    assert p == L_ONE
                else:
                    assert p.max_exp() <= -1  # in u^-1 Z[u^-1]
            assert bar_element(cu) == cu
            for x, c in cu.coords.items():
                p = c.as_laurent()
                if x == w:
                    assert p == L_ONE
                else:
                    assert p.min_exp() >= 1  # in u Z[u]

    def test_support_bruhat(self):
        for w, coords in decoded(kl_table(4)).items():
            for x in coords:
                assert bruhat_leq(x, w)

    def test_bruhat_oracle_on_s3(self):
        # on S_3, x <= w just when x = w or x is shorter
        for x in all_permutations(3):
            for w in all_permutations(3):
                assert bruhat_leq(x, w) == (x == w or x.length() < w.length())

    def test_theta_maps_lower_to_upper(self):
        for r in range(2, 6):
            for w, (cw, cu) in canonical_elements(r).items():
                sign = -1 if w.length() % 2 else 1
                assert theta_element(cw) == cu.scale(sign)

    def test_upper_is_read_off_lower(self):
        # printed("upper") signs and bars the lower rows, in their order
        table = KLTable(4)
        want = {
            str(w): [(str(x), str(p)) for x, p in coords.items()]
            for w, coords in upper_of(decoded(table)).items()
        }
        got = list(table.printed("upper"))
        assert [w for w, _ in got] == sorted(want)
        for w, coords in got:
            assert list(coords.items()) == want[w]


# ----------------------------------------------------------------------
# The packed table against the Permutation-keyed oracles


def in_order(table: dict) -> list:
    """Every (w, x, coefficient) of a table, in its iteration order."""
    return [(w, x, p) for w, coords in table.items() for x, p in coords.items()]


RAW_ROW_PINS = [
    (5, "1092cf7b3889d85d33dc7ec106d60a780c896dc28faab0e87e89dda6084261d8"),
    (6, "c142170ed4814d094f37f5490a37b4f2ebc1ca133f288577d19d112fe7b882b0"),
]


def raw_rows_digest(table: KLTable) -> str:
    """sha256 of the table's raw rows, every row computed first."""
    table._fill()
    rows = table._rows
    raw = [list(zip(*rows.row(k))) for k in range(len(table.perms))]
    return hashlib.sha256(repr(raw).encode()).hexdigest()


class TestPermutationKeyedOracle:
    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_indexed_tables_match_in_order(self, r):
        got = in_order(decoded(KLTable(r)))
        want = in_order(oracle_lower(r))
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a == b

    def test_order_is_checked(self):
        table = oracle_lower(3)
        w = next(reversed(table))
        table[w] = dict(reversed(table[w].items()))
        assert in_order(table) != in_order(oracle_lower(3))

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_packed_mu_reads_match(self, r):
        # mu and mu_pairs against the u^-1 coefficients of the oracle
        lower = oracle_lower(r)
        table = KLTable(r)
        pairs = {w: [] for w in lower}
        for w, coords in lower.items():
            for x, p in coords.items():
                m = p.coeffs.get(-1)
                if x != w and m:
                    pairs[w].append((x, m))
                    pairs[x].append((w, m))
        assert list(table.mu_pairs.items()) == list(pairs.items())
        for w in lower:
            for x in lower:
                low, high = (x, w) if x.length() <= w.length() else (w, x)
                p = lower[high].get(low)
                assert table.mu(x, w) == (p.coeffs.get(-1, 0) if p is not None else 0)

    @pytest.mark.parametrize("r", [5, 6])
    def test_each_packed_value_is_stored_once(self, r):
        # 121 distinct values among the 98,407 lower coordinates at r = 6
        rows = kl_table(r)._rows
        assert len(set(rows.values)) == len(rows.values)
        assert set(rows.refs) == set(range(len(rows.values)))

    @pytest.mark.parametrize("r, want", RAW_ROW_PINS)
    def test_raw_rows_are_pinned(self, r, want):
        # sha256 of repr([list(row.items()) for row in rows]) with the
        # rows as dicts {index: packed int}: keys, their order and values
        assert raw_rows_digest(kl_table(r)) == want

    @pytest.mark.parametrize("r, want", RAW_ROW_PINS)
    @pytest.mark.parametrize("fill", ["seeded order", "specht first"])
    def test_raw_rows_are_pinned_in_any_order(self, monkeypatch, r, want, fill):
        # the same rows whatever order they are computed in
        table = KLTable(r)
        if fill == "seeded order":
            order = list(range(len(table.perms)))
            random.Random(r).shuffle(order)
            for k in order:
                table._lower(k)
        else:
            build_every_specht(monkeypatch, table)
        assert raw_rows_digest(table) == want


def build_every_specht(monkeypatch, table: KLTable) -> None:
    """Build every Specht module of the table's rank, uncached, reading
    the table."""
    monkeypatch.setattr(specht_modules, "kl_table", lambda r: table)
    for lam in partitions_of(table.r):
        specht_modules.SpechtModule(lam)


def stored(table: KLTable) -> int:
    """How many rows of the lower basis the table holds."""
    return len(table._rows.starts) - 1


class TestOnDemandRows:
    def test_the_specht_modules_reach_a_third_of_the_rows(self, monkeypatch):
        # their cells read mu on 345 of the 720 rows at r = 6
        table = KLTable(6)
        assert stored(table) == 1
        build_every_specht(monkeypatch, table)
        assert stored(table) == 345
        assert in_order(decoded(table)) == in_order(decoded(kl_table(6)))

    def test_mu_computes_the_row_of_the_longer_permutation(self):
        table = KLTable(4)
        w0 = table.perms[-1]
        assert table.mu(w0, table.perms[-2]) == 1
        assert table._rows.slot[len(table.perms) - 1] >= 0
        assert stored(table) < len(table.perms)

    def test_narrow_digits_raise_on_the_first_affected_read(self, monkeypatch):
        # 3-bit digits hold the rows of length <= 1 (bound 2 < 2^2) but
        # not the bound 4 of a row of length 2, which (3,2) reaches
        _narrow_digits(monkeypatch, 3)
        table = KLTable(5)
        monkeypatch.setattr(specht_modules, "kl_table", lambda r: table)
        fresh = lru_cache(maxsize=None)(specht_modules._build_specht.__wrapped__)
        monkeypatch.setattr(specht_modules, "_build_specht", fresh)
        e, s = Permutation.identity(5), Permutation.simple(5, 1)
        assert table.mu(e, s) == 1
        with pytest.raises(ArithmeticError, match="packed digits"):
            specht_modules.build_specht(Partition([3, 2]))
        assert stored(table) < len(table.perms)

    def test_a_failed_row_fails_again(self, monkeypatch):
        # the values of a row that failed its check stay unchecked
        monkeypatch.setattr(hecke_core, "_mu_digit", lambda n: 0)
        table = KLTable(3)
        for _ in range(2):
            with pytest.raises(ArithmeticError, match="degree >= 0"):
                table._fill()


def _narrow_digits(monkeypatch, k: int) -> None:
    monkeypatch.setattr(hecke_core, "_K", k)
    monkeypatch.setattr(hecke_core, "_HALF", 1 << (k - 1))
    monkeypatch.setattr(hecke_core, "_MASK", (1 << k) - 1)


class TestPackedBound:
    def test_lower_guard_raises(self, monkeypatch):
        _narrow_digits(monkeypatch, 2)
        with pytest.raises(ArithmeticError, match="packed digits"):
            KLTable(5)._fill()

    def test_skipped_mu_corrections_raise(self, monkeypatch):
        # without them C'_{s1 s2 s1} would keep the degree-0 term T_{s1}
        monkeypatch.setattr(hecke_core, "_mu_digit", lambda n: 0)
        with pytest.raises(ArithmeticError, match="degree >= 0"):
            KLTable(3)._fill()

    @pytest.mark.parametrize("x, digit", [(0, 1), (5, 2)])
    def test_stored_values_in_the_wrong_place_raise(self, monkeypatch, x, digit):
        # C'_{w0} at r = 3 gets 1 = u^0 at e, or u^-1 on its diagonal:
        # both values are stored already, as a diagonal and as P'_{e,s}
        append = hecke_core._PackedRows.append

        def misplace(rows, k, row):
            if len(row) == 6:
                row[x] = 1 << (digit * hecke_core._K)
            append(rows, k, row)

        monkeypatch.setattr(hecke_core._PackedRows, "append", misplace)
        with pytest.raises(ArithmeticError, match="degree >= 0"):
            KLTable(3)._fill()

    def test_widths_the_guards_reject_give_wrong_digits(self, monkeypatch):
        monkeypatch.setattr(hecke_core, "_check_bound", lambda bound, w: None)
        _narrow_digits(monkeypatch, 2)
        assert in_order(decoded(KLTable(5))) != in_order(oracle_lower(5))

    def test_guard_is_not_an_assert(self):
        src = pathlib.Path(hecke_core.__file__).resolve().parent.parent
        code = (
            "import nstl.hecke_core as h\n"
            "h._K, h._HALF, h._MASK = 2, 2, 3\n"
            "try:\n"
            "    h.KLTable(5)._fill()\n"
            "except ArithmeticError:\n"
            "    print('raised')\n"
        )
        run = subprocess.run(
            [sys.executable, "-O", "-c", code],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        )
        assert run.stdout.strip() == "raised"


# ----------------------------------------------------------------------
# The bar-invariance check on packed rows against its HeckeElement oracle


def oracle_canonical_failure(table: KLTable):
    """What the check did on RationalFn coordinates: the oracle's
    bar_element on the decoded C'_w and C_w, then their diagonal and
    lattice congruence."""
    lower = decoded(table)
    upper = upper_of(lower)
    for w in table.perms:
        for coords, sign in ((lower[w], -1), (upper[w], 1)):
            elem = HeckeElement(table.r, coords)
            if bar_element(elem) != elem:
                return f"not bar-invariant at {w}"
            for x, c in elem.coords.items():
                p = c.as_laurent()
                if x == w:
                    if p != L_ONE:
                        return f"diagonal coefficient != 1 at {w}"
                elif (p.max_exp() > -1) if sign < 0 else (p.min_exp() < 1):
                    return f"lattice congruence fails at {w}"
    return None


def _failing_w(message):
    return None if message is None else message.rsplit(" at ", 1)[1]


def _add_to_coordinate(table: KLTable, k: int, x: int, step: int) -> None:
    """Add step to the packed lower coordinate at column x of row k in
    the flat store; the sum is stored as a value of its own. Every row
    is computed first, so that none is computed from the altered one."""
    table._fill()
    rows = table._rows
    at = rows.cols.index(x, *rows.starts[rows.slot[k] : rows.slot[k] + 2])
    rows.values.append(rows.values[rows.refs[at]] + step)
    rows.refs[at] = len(rows.values) - 1


def _off_diagonal(table: KLTable) -> tuple:
    """(k, x): the longest w, and an x of length l(w) - 1 below it."""
    k = len(table.perms) - 1
    return k, k - 1


class TestPackedCheck:
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_agrees_with_bar_element_oracle(self, r):
        table = KLTable(r)
        assert table.canonical_failure() is None
        assert oracle_canonical_failure(table) is None

    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_agrees_with_oracle_on_altered_digits(self, r):
        # one digit of one packed coordinate moved, in seeded places
        K = hecke_core._K
        pick = random.Random(r)
        for _ in range(12):
            table = KLTable(r)
            table._fill()
            k = pick.randrange(1, len(table.perms))
            x = pick.choice(table._rows.row(k)[0])
            step = pick.choice((-1, 1, 2)) << (K * pick.randrange(0, r + 1))
            _add_to_coordinate(table, k, x, step)
            got = table.canonical_failure()
            assert got is not None
            assert _failing_w(got) == _failing_w(oracle_canonical_failure(table))

    def test_altered_coordinate_is_not_bar_invariant(self):
        table = KLTable(4)
        k, x = _off_diagonal(table)
        _add_to_coordinate(table, k, x, 1 << (2 * hecke_core._K))  # one more u^-1
        assert table.canonical_failure() == f"not bar-invariant at {table.perms[k]}"

    def test_diagonal_other_than_one_fails(self):
        table = KLTable(4)
        k = len(table.perms) - 1
        _add_to_coordinate(table, k, k, 1 << hecke_core._K)  # 2 on the diagonal
        assert table.canonical_failure() == (
            f"diagonal coefficient != 1 at {table.perms[k]}"
        )

    def test_off_diagonal_constant_fails_the_lattice_congruence(self):
        table = KLTable(4)
        k, x = _off_diagonal(table)
        _add_to_coordinate(table, k, x, 1 << hecke_core._K)  # a u^0 term
        assert table.canonical_failure() == (
            f"lattice congruence fails at {table.perms[k]}"
        )

    def test_row_past_the_bound_raises(self):
        # a u^-1 coefficient of 2^35 - 1, the largest digit, in C'_w0:
        # |C'_w0| alone puts the bound of D at 2^35 - 1, and 2 |C'_v| >= 2
        # past it
        table = KLTable(4)
        k, x = _off_diagonal(table)
        _add_to_coordinate(table, k, x, (hecke_core._HALF - 2) << (2 * hecke_core._K))
        with pytest.raises(ArithmeticError, match="packed digits"):
            table.canonical_failure()

    def test_narrow_digits_raise_before_comparing(self, monkeypatch):
        # the r=4 rows repacked in 3-bit digits: every coefficient (at
        # most 1) fits, and so does 2 |C'_v| + |C'_w| (at most 3), but not
        # what eliminating the m_z C'_z adds (up to 5 >= 2^2)
        table = KLTable(4)
        table._fill()
        polys = [hecke_core._unpack(n) for n in table._rows.values]
        _narrow_digits(monkeypatch, 3)
        table._rows.values = [
            sum(c << (3 * (1 - e)) for e, c in p.coeffs.items()) for p in polys
        ]
        assert in_order(decoded(table)) == in_order(oracle_lower(4))
        with pytest.raises(ArithmeticError, match="packed digits"):
            table.canonical_failure()

    def test_check_kl_reports_the_failure(self, monkeypatch):
        from nstl import verify

        assert verify.check_kl(4) == {"ok": True, "elements": 48}
        table = KLTable(3)
        k, x = _off_diagonal(table)
        _add_to_coordinate(table, k, x, -1 << (2 * hecke_core._K))
        monkeypatch.setattr(verify, "kl_table", lambda r: table)
        assert verify.check_kl(3) == {
            "ok": False,
            "detail": f"not bar-invariant at {table.perms[k]}",
        }


class TestMu:
    def test_mu_e_s(self):
        assert kl_table(2).mu(Permutation.identity(2), Permutation.simple(2, 1)) == 1

    def test_parity_vanishing_s4(self):
        table = kl_table(4)
        for w in all_permutations(4):
            for x in all_permutations(4):
                diff = w.length() - x.length()
                if diff > 0 and diff % 2 == 0:
                    assert table.mu(x, w) == 0

    def test_symmetric_usage(self):
        x = Permutation.identity(3)
        w = Permutation.simple(3, 1)
        table = kl_table(3)
        assert table.mu(x, w) == table.mu(w, x) == 1

    def test_nonnegative_s5(self):
        table = kl_table(5)
        for w, pairs in table.mu_pairs.items():
            for _, m in pairs:
                assert m > 0

    @pytest.mark.parametrize("r", [4, 5, 6])
    def test_mu_rows_are_the_nonzero_mu_of_the_packed_rows(self, r):
        # in row order, so that the recursion's corrections run in it
        table = kl_table(r)
        table._fill()
        for k in range(len(table.perms)):
            want = [(x, m) for x, m in zip(*table._rows.row(k, table._mus)) if m]
            assert list(zip(*table._mu_rows.row(k))) == want


class TestRightMultiplyCanonical:
    @pytest.mark.parametrize("r", [3, 4])
    def test_descent_eigenvalue(self, r):
        two = RationalFn(quantum_int(2))
        for w in all_permutations(r):
            for i in w.right_descents():
                assert right_multiply_canonical({w: R_ONE}, i, "lower") == {w: two}
                assert right_multiply_canonical({w: R_ONE}, i, "upper") == {w: -two}

    @pytest.mark.parametrize("r", [3, 4])
    def test_matches_standard_multiplication(self, r):
        # the products, expanded over the standard basis
        elements = canonical_elements(r)
        for w in all_permutations(r):
            for i in range(1, r):
                for k, (basis, gen) in enumerate(
                    (
                        ("lower", HeckeElement.c_prime_s(r, i)),
                        ("upper", HeckeElement.c_s(r, i)),
                    )
                ):
                    fast = HeckeElement(r, {})
                    for x, c in right_multiply_canonical({w: R_ONE}, i, basis).items():
                        fast = fast + elements[x][k].scale(c)
                    assert fast == multiply_standard(elements[w][k], gen)


def label_sets(cells):
    return {frozenset(cell) for cell in cells}


class TestCells:
    def test_diagonal_action_singletons(self):
        labels = ["a", "b", "c"]
        mat = {0: {0: 1}, 1: {1: 1}, 2: {2: 1}}
        assert sorted(map(sorted, cells(labels, [mat]))) == [["a"], ["b"], ["c"]]

    def test_a_long_path_closed_by_one_edge_is_one_cell(self):
        # 5,000 vertices: deeper than Python's recursion limit
        n = 5000
        mat = {j: {(j + 1) % n: 1} for j in range(n)}
        assert [sorted(b) for b in cells(list(range(n)), [mat])] == [list(range(n))]

    def test_a_zero_coefficient_is_no_edge(self):
        mat = {0: {1: 1}, 1: {0: 0}}
        assert sorted(map(sorted, cells(["a", "b"], [mat]))) == [["a"], ["b"]]

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_regular_cells_match_rsk(self, r):
        by_p_upper = {}
        by_p_lower = {}
        for w in all_permutations(r):
            P, _ = rsk(w.word)
            by_p_upper.setdefault(P, set()).add(w)
            by_p_lower.setdefault(P.transpose(), set()).add(w)
        # P and P^t key the same fibers, so both bases have these cells
        assert label_sets(cells_regular(r)) == label_sets(by_p_upper.values())
        assert label_sets(cells_regular(r)) == label_sets(by_p_lower.values())

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    @pytest.mark.parametrize("tag", ["lower", "upper"])
    def test_regular_cells_match_the_products(self, r, tag):
        # the W-graph read against C'_w C'_s and C_w C_s themselves
        want = label_sets(cells_regular_by_products(r, tag))
        assert label_sets(cells_regular(r)) == want

    @pytest.mark.parametrize("r", [3, 4])
    def test_cell_count(self, r):
        from nstl.combinatorics import partitions_of

        expected = sum(syt_count(lam) for lam in partitions_of(r))
        assert len(cells_regular(r)) == expected


class TestTL:
    @pytest.mark.parametrize(
        "r,cat", [(2, 2), (3, 5), (4, 14), (5, 42)]
    )
    def test_dimension_catalan(self, r, cat):
        # the C_w with P(w) of at most two rows span the rank-2 quotient
        two_row = [w for w in all_permutations(r) if rsk(w.word)[0].shape.length <= 2]
        assert len(two_row) == cat
