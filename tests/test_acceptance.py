"""One test per headline acceptance criterion; each prints a single
pass/fail line.  Heavy variants (rank 5 certification and oracle, rank
6 canonical bases) run only with NSTL_HEAVY=1 in the environment."""

import os

import pytest

from nstl import cli, nonstandard, seminormal, verify
from nstl.combinatorics import Partition, dkt_edges
from nstl.exact_arith import R_ONE, PoleError, RationalFn
from nstl.hecke_core import kl_table
from nstl.nonstandard import NsIrredLabel, TensorModule
from nstl.seminormal import SeminormalBasis
from nstl.specht_modules import build_specht
from nstl.verify import (
    check_action_formula,
    check_branching,
    check_cells,
    check_certification,
    check_dimension,
    check_dkt_mu,
    check_epsilon_antipode,
    check_figures,
    check_kl,
    check_projected,
    check_seminormal,
    check_transition,
)

from isotypic_oracle import lower_leaves, mat_add, to_gt

HEAVY = os.environ.get("NSTL_HEAVY") == "1"


def report(num, name, result):
    status = "PASS" if result["ok"] else "FAIL"
    extra = "" if result["ok"] else f" ({result.get('detail', '')})"
    print(f"criterion {num:2d} [{name}]: {status}{extra}")
    assert result["ok"], result


def test_criterion_01_kl_characterization():
    r = 6 if HEAVY else 5
    report(1, "kl-basis", check_kl(r))


def test_criterion_02_cells_match_insertion():
    report(2, "cells-rsk", check_cells(5))


def test_criterion_03_figures():
    report(3, "figures", check_figures())


def test_criterion_04_de_edges_force_mu_one():
    report(4, "de-mu", check_dkt_mu(5))


def test_criterion_05_transition():
    report(5, "transition", check_transition(5))


def test_criterion_06_projected_basis():
    report(6, "projected-basis", check_projected(5))


def test_criterion_07_action_formula():
    report(7, "action-formula", check_action_formula())


def test_criterion_08_epsilon_antipode():
    report(8, "eps-antipode", check_epsilon_antipode())


def test_criterion_09_certification():
    for r in (3, 4) + ((5,) if HEAVY else ()):
        report(9, f"certification r={r}", check_certification(r))


@pytest.fixture
def fresh_modules():
    """build_irreducible and square_split_identities are cached: a test
    that patches what they read starts and ends with empty caches."""
    for cached in (nonstandard.build_irreducible, nonstandard.square_split_identities):
        cached.cache_clear()
    yield
    for cached in (nonstandard.build_irreducible, nonstandard.square_split_identities):
        cached.cache_clear()


def test_certification_and_branching_split_each_label_once(
    monkeypatch, fresh_modules
):
    calls = []
    real = nonstandard._restriction_split

    def counted(mod):
        calls.append((mod.label, mod.ambient.r))
        return real(mod)

    monkeypatch.setattr(nonstandard, "_restriction_split", counted)
    assert check_certification(4)["ok"]
    assert check_branching(4)["ok"]
    want = [(label, s) for s in (2, 3, 4) for label in nonstandard.ns_labels(s)]
    assert len(calls) == len(set(calls)) == len(want)
    assert set(calls) == set(want)


def test_verify_all_certifies_each_module_once(monkeypatch):
    # certification and dimension both rest on ranks 2..4: one proof
    calls = []
    real = nonstandard.certify_irreducible

    def counted(mod):
        calls.append((mod.label, mod.ambient.r))
        return real(mod)

    monkeypatch.setattr(nonstandard, "certify_irreducible", counted)
    assert cli.main(["verify-all", "--r", "4"]) == 0
    want = [(label, s) for s in (2, 3, 4) for label in nonstandard.ns_labels(s)]
    assert calls == want
    assert len(want) == 14


def test_certification_specializes_nothing(monkeypatch, fresh_modules):
    # every step is exact over Q(u): no point, so no pole to meet
    def pole(self, u0):
        raise PoleError(f"pole at u = {u0}")

    monkeypatch.setattr(RationalFn, "specialize", pole)
    assert check_certification(4) == {"ok": True, "labels": 8}


def v_plus_for_eps(gt_fault, bad):
    """Put a V+ vector of the shape `bad` in place of its eps line: E
    becomes the diagonal E_0, ..., E_{f-2}, -(f - 1) E_{f-1}, which has
    sum_s g_s C_ss = 0. The +lam basis reads E too."""
    lam = Partition.parse(bad)
    E = seminormal._gt_basis(lam.parts).E
    gt_fault(lam, E=E[:-1] + (E[-1] * RationalFn.from_int(1 - len(E)),))


@pytest.mark.parametrize("bad", ["3,1", "2,2"])
def test_certification_needs_the_eps_line_outside_v_plus(
    gt_fault, fresh_modules, bad
):
    # the dimensions still tile the square, but t(eps) = 0
    v_plus_for_eps(gt_fault, bad)
    assert check_certification(4) == {
        "ok": False,
        "detail": f"not generator-closed: +{bad} (t(eps) != 1 on {bad})",
    }


@pytest.mark.parametrize(
    "bad, why",
    [
        ("3,1", "restriction dimensions 6 != module dimension 5"),
        ("2,2", "rank 1 of +2,1 component not a multiple of 2"),
    ],
)
def test_a_restriction_that_misses_its_module_fails_branching(
    capsys, gt_fault, fresh_modules, bad, why
):
    # the +lam basis E_a E_aa - E_0 E_00 reads E too, and then spans no
    # V+: the ranks of its restriction misfit the module
    v_plus_for_eps(gt_fault, bad)
    result = check_branching(4)
    assert result == {"ok": False, "detail": f"restriction of +{bad}: {why}"}
    assert cli.main(["verify-all", "--r", "4"]) == 1
    lines = capsys.readouterr().out.splitlines()
    checks = verify.ACCEPTANCE_CHECKS
    assert [line.split(":")[0] for line in lines[: len(checks)]] == [
        name for name, *_ in checks
    ]
    assert f"branching: FAIL ({result['detail']})" in lines


def test_criterion_10_branching():
    for r in (3, 4):
        report(10, f"branching r={r}", check_branching(r))


def test_criterion_11_dimension_formula():
    rs = (2, 3, 4, 5) if HEAVY else (2, 3, 4)
    report(11, "dimension", check_dimension(rs))


@pytest.mark.parametrize("shift", [-1, 1])
@pytest.mark.parametrize("r", [3, 4])
def test_dimension_fails_on_a_formula_off_by_one(monkeypatch, capsys, r, shift):
    # the oracle's bound comes from the split identities: a formula one
    # short must not pull the oracle down to agree with it
    real = nonstandard.dimension_formula

    def off(n):
        return real(n) + shift * (n == r)

    for module in (verify, nonstandard):
        monkeypatch.setattr(module, "dimension_formula", off)
    result = check_dimension(tuple(range(2, r + 1)))
    assert result == {
        "ok": False,
        "detail": f"r={r}: formula {real(r) + shift} != oracle {real(r)}",
    }
    assert cli.main(["verify-all", "--r", str(r)]) == 1
    assert f"dimension: FAIL ({result['detail']})" in capsys.readouterr().out


def test_a_broken_split_identity_fails_dimension_and_certification(
    capsys, gt_fault, fresh_modules
):
    # a V+ vector in place of the eps line of (2,1): t(eps) = 0
    v_plus_for_eps(gt_fault, "2,1")
    dimension = check_dimension((2, 3, 4))
    certification = check_certification(3)
    code = cli.main(["verify-all", "--r", "4"])
    why = "t(eps) != 1 on 2,1"
    assert dimension == {"ok": False, "detail": f"no split bound at r=3: {why}"}
    assert certification == {
        "ok": False,
        "detail": f"not generator-closed: +2,1 ({why})",
    }
    assert code == 1
    assert f"dimension: FAIL ({dimension['detail']})" in capsys.readouterr().out


def test_a_certificate_that_fails_below_fails_dimension(monkeypatch, capsys):
    # the proof at rank 4 rests on the certificates of ranks 2 and 3
    real = nonstandard.certify_irreducible

    def failing(mod):
        if str(mod.label) == "3:2,1":
            raise nonstandard.CertificateError("not strongly connected: 3:2,1")
        return real(mod)

    monkeypatch.setattr(nonstandard, "certify_irreducible", failing)
    assert check_dimension((4,)) == {
        "ok": False,
        "detail": "not strongly connected: 3:2,1",
    }
    assert cli.main(["verify-all", "--r", "4"]) == 1
    out = capsys.readouterr().out
    assert "dimension: FAIL (not strongly connected: 3:2,1)" in out
    assert "certification: FAIL (not strongly connected: 3:2,1)" in out


def test_a_label_missing_from_the_index_set_fails_dimension(monkeypatch, capsys):
    # every label left is certified, but their squares fall short of the
    # split bound; the formula check of certification sees it too
    real = nonstandard.ns_labels

    def short(r):
        return real(r)[:-1] if r == 4 else real(r)

    monkeypatch.setattr(nonstandard, "ns_labels", short)
    monkeypatch.setattr(verify, "ns_labels", short)
    detail = "r=4: squared dimensions sum to 88, not the split bound 89"
    assert check_dimension((2, 3, 4)) == {"ok": False, "detail": detail}
    assert cli.main(["verify-all", "--r", "4"]) == 1
    assert f"dimension: FAIL ({detail})" in capsys.readouterr().out


def test_a_label_dimension_off_the_split_bound_fails_dimension(monkeypatch):
    # -3,1 claims one dimension more than its module has, which would
    # take the squares to 96 against the bound 89; the module's
    # dimension check stops it first
    real = nonstandard.NsIrredLabel.dimension

    def inflated(label, r):
        return real(label, r) + (str(label) == "-3,1")

    monkeypatch.setattr(nonstandard.NsIrredLabel, "dimension", inflated)
    assert check_dimension((2, 3, 4)) == {
        "ok": False,
        "detail": "dimension mismatch for -3,1",
    }


def test_criterion_12_seminormal():
    report(12, "seminormal", check_seminormal())


# -- faults that each check must catch -----------------------------------


def fails_alone(capsys, name, detail):
    """verify-all at r=4 exits 1 and prints `name: FAIL (detail)`; every
    other check still passes."""
    assert cli.main(["verify-all", "--r", "4"]) == 1
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if ": FAIL" in line]
    assert failed == [f"{name}: FAIL ({detail})"]


def test_a_leaf_plus_another_fails_seminormal_membership(monkeypatch, capsys):
    # v_0 + v_1 keeps the chain of v_0, but where the two chains part it
    # has a piece under the label of v_1; the sum is formed in lower (x)
    # lower coordinates and taken to GT coordinates by to_gt
    real = verify.seminormal_basis

    def summed(tm):
        sb = real(tm)
        lower = lower_leaves(sb)
        v = to_gt(mat_add(lower[0], lower[1]), sb.ambient)
        return SeminormalBasis(sb.ambient, [v] + sb.leaves[1:], sb.chains)

    monkeypatch.setattr(verify, "seminormal_basis", summed)
    lam = Partition([3, 2])
    chain = real(TensorModule(lam, lam)).chains[0]
    result = check_seminormal()
    assert result == {"ok": False, "detail": f"membership fails for chain {chain}"}
    fails_alone(capsys, "seminormal", result["detail"])


def test_a_cut_that_keeps_the_eps_line_in_v_plus_fails_seminormal(
    monkeypatch, capsys, fresh_modules
):
    # the +lam piece without its eps subtraction: the eps line is then
    # counted twice, and the descent no longer ends in lines
    real = seminormal._nonstandard_pieces

    def unsubtracted(nu, rho, D):
        pieces = dict(real(nu, rho, D))
        eps = pieces.get(NsIrredLabel("eps_plus"), {})
        plus = NsIrredLabel("plus", (nu,))
        if nu != rho or len(build_specht(nu).basis) == 1 or not eps:
            return tuple(pieces.items())
        piece = dict(pieces.get(plus, {}))
        for key, x in eps.items():
            piece[key] = piece[key] + x if key in piece else x
        pieces[plus] = {key: x for key, x in piece.items() if x}
        return tuple((label, p) for label, p in pieces.items() if p)

    monkeypatch.setattr(seminormal, "_nonstandard_pieces", unsubtracted)
    result = check_seminormal()
    assert not result["ok"]
    assert "ends with dimension" in result["detail"]
    assert cli.main(["verify-all", "--r", "4"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert f"seminormal: FAIL ({result['detail']})" in lines


def test_a_case_coefficient_off_by_one_fails_action_formula(monkeypatch, capsys):
    # P_i sends T (x) U, neither descending, to 2 mu mu' T' (x) U', not 1
    case = ("ll", False, False)
    same, lft, rgt, both = nonstandard._P_CASES[case]
    monkeypatch.setitem(nonstandard._P_CASES, case, (same, lft, rgt, both - 1))
    result = check_action_formula()
    assert result == {"ok": False, "detail": "case formula differs at 3,1,3,1,ll,s_1"}
    fails_alone(capsys, "action-formula", result["detail"])


def test_a_perturbed_transition_entry_fails_transition(monkeypatch, capsys):
    # X - I must vanish at u = 0 and u = infinity; X[0][1] + 1 does not
    real = verify.build_specht

    class Perturbed:
        def __init__(self, module):
            self.module = module

        def __getattr__(self, name):
            return getattr(self.module, name)

        @property
        def transition(self):
            X = [row[:] for row in self.module.transition]
            X[0][1] = X[0][1] + R_ONE
            return X

    monkeypatch.setattr(
        verify,
        "build_specht",
        lambda lam: Perturbed(real(lam)) if lam == Partition([2, 1]) else real(lam),
    )
    result = check_transition(4)
    assert result == {"ok": False, "detail": "not identity at 0/inf for 2,1"}
    fails_alone(capsys, "transition", result["detail"])


def test_a_dropped_mu_pair_fails_cells(monkeypatch, capsys):
    # without the pair 1,4,2,3 in mu_pairs[1,2,4,3], the cell
    # {1,2,4,3, 1,4,2,3, 4,1,2,3} splits off {1,2,4,3}
    table = kl_table(4)
    pairs = dict(table.mu_pairs)
    w = next(w for w in pairs if str(w) == "1,2,4,3")
    pairs[w] = [(x, m) for x, m in pairs[w] if str(x) != "1,4,2,3"]
    assert len(pairs[w]) == len(table.mu_pairs[w]) - 1
    monkeypatch.setattr(table, "_mu_pairs", pairs)
    result = check_cells(4)
    assert result == {
        "ok": False,
        "detail": "cells disagree with the insertion fiber of 1,2,4,3",
    }
    fails_alone(capsys, "cells-rsk", result["detail"])


def test_a_zero_mu_on_a_de_edge_fails_de_mu(monkeypatch, capsys):
    # the dual-equivalence edge 124/3 - 123/4 of (3,1) loses its mu
    lam = Partition([3, 1])
    a, b, _ = next(e for e in dkt_edges(lam).edges if str(e[0]) == "124/3")
    real = verify.build_specht

    class ZeroMu:
        def __init__(self, module):
            self.module = module
            edge = {(a, b), (b, a)}
            self.mu_table = {
                key: m for key, m in module.mu_table.items() if key not in edge
            }

        def __getattr__(self, name):
            return getattr(self.module, name)

        def mu(self, q1, q2):
            return self.mu_table.get((q1, q2), 0)

    monkeypatch.setattr(
        verify,
        "build_specht",
        lambda shape: ZeroMu(real(shape)) if shape == lam else real(shape),
    )
    result = check_dkt_mu(4)
    detail = "DE edge 124/3 - 123/4 without mu=1 in 3,1"
    assert result == {"ok": False, "detail": detail}
    fails_alone(capsys, "de-mu", result["detail"])


def test_a_dropped_mu_edge_fails_figures(monkeypatch, capsys):
    # the (3,2) module without its mu edge 123/45 - 135/24
    lam = Partition([3, 2])
    real = verify.build_specht

    class DroppedMu:
        def __init__(self, module):
            self.module = module
            self.mu_table = {
                (a, b): m
                for (a, b), m in module.mu_table.items()
                if {str(a), str(b)} != {"123/45", "135/24"}
            }

        def __getattr__(self, name):
            return getattr(self.module, name)

    monkeypatch.setattr(
        verify,
        "build_specht",
        lambda shape: DroppedMu(real(shape)) if shape == lam else real(shape),
    )
    result = check_figures()
    detail = "mu edge 123/45 - 135/24 missing in the five-vertex picture"
    assert result == {"ok": False, "detail": detail}
    fails_alone(capsys, "figures", result["detail"])


def test_a_perturbed_projector_entry_fails_projected_basis(monkeypatch, capsys):
    # the lower projected vector of 13/2 is column 13/2 of the (2,1)
    # projector; + 1 at 12/3 takes that coordinate out of u K0
    lam = Partition([2, 1])
    real = verify.projected_basis

    def perturbed(shape, which):
        cols = real(shape, which)
        if shape != lam or which != "lower":
            return cols
        (q, vec), rest = cols[0], cols[1:]
        return [(q, [vec[0], vec[1] + R_ONE] + vec[2:])] + rest

    monkeypatch.setattr(verify, "projected_basis", perturbed)
    result = check_projected(4)
    assert result == {
        "ok": False,
        "detail": "valuation fails for 2,1 (lower 13/2 at 12/3)",
    }
    fails_alone(capsys, "projected-basis", result["detail"])


def test_a_perturbed_upper_projector_entry_fails_projected_basis(monkeypatch, capsys):
    # the upper twin: the upper projected vector of 12/3 is column 12/3
    # of the transposed (2,1) projector, u / [2] at 13/2; + 1 there
    # takes that coordinate out of u K0
    lam = Partition([2, 1])
    real = verify.projected_basis

    def perturbed(shape, which):
        cols = real(shape, which)
        if shape != lam or which != "upper":
            return cols
        first, (q, vec) = cols
        return [first, (q, [vec[0] + R_ONE] + vec[1:])]

    monkeypatch.setattr(verify, "projected_basis", perturbed)
    result = check_projected(4)
    assert result == {
        "ok": False,
        "detail": "valuation fails for 2,1 (upper 12/3 at 13/2)",
    }
    fails_alone(capsys, "projected-basis", result["detail"])


def test_the_untransposed_projector_fails_projected_basis(monkeypatch, capsys):
    # P in place of P^T in upper coordinates: the upper vectors become
    # the columns of P, the lower ones, whose off-diagonal entries sit
    # on the dominating side
    real = verify.projected_basis
    monkeypatch.setattr(
        verify, "projected_basis", lambda shape, which: real(shape, "lower")
    )
    result = check_projected(4)
    assert result == {
        "ok": False,
        "detail": "triangularity fails for 2,1 (upper 13/2 at 12/3)",
    }
    fails_alone(capsys, "projected-basis", result["detail"])


def test_a_flipped_sign_in_the_minus_vector_fails_eps_antipode(monkeypatch, capsys):
    # the minus vector of (2,1) with one sign flipped is symmetric, and
    # P_1 does not annihilate it
    lam = Partition([2, 1])
    real = verify.epsilon_minus_vector

    def flipped(shape):
        em = dict(real(shape))
        if shape == lam:
            em[1, 0] = -em[1, 0]
        return em

    monkeypatch.setattr(verify, "epsilon_minus_vector", flipped)
    result = check_epsilon_antipode()
    assert result == {"ok": False, "detail": "minus vector not annihilated: 2,1"}
    fails_alone(capsys, "eps-antipode", result["detail"])


def test_theta_as_the_identity_fails_eps_antipode(monkeypatch, capsys):
    # with theta(C'_s) = C'_s and theta(C_s) = C_s the minus side is
    # the plus side, [2]^2 T_e for the word [1], not 0
    real = nonstandard._generators_with_theta

    def identity(r, i):
        return [(f, f) for f, _ in real(r, i)]

    monkeypatch.setattr(nonstandard, "_generators_with_theta", identity)
    result = check_epsilon_antipode()
    assert result == {"ok": False, "detail": "antipode identity fails on word [1]"}
    fails_alone(capsys, "eps-antipode", result["detail"])
