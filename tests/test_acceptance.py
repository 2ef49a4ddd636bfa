"""One test per headline acceptance criterion; each prints a single
pass/fail line.  Heavy variants (rank 5 certification and oracle, rank
6 canonical bases) run only with NSTL_HEAVY=1 in the environment."""

import os

import pytest

from nstl import cli, nonstandard, verify
from nstl.combinatorics import Partition
from nstl.exact_arith import PoleError
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


def _counting_generators(monkeypatch):
    calls = []
    real = nonstandard._restricted_generators

    def counted(mod, u0):
        calls.append((mod.label, u0))
        return real(mod, u0)

    monkeypatch.setattr(nonstandard, "_restricted_generators", counted)
    return calls


def test_certification_builds_each_generator_set_once(monkeypatch):
    calls = _counting_generators(monkeypatch)
    assert check_certification(4)["ok"]
    assert len(calls) == len(set(calls)) == len(nonstandard.ns_labels(4))
    assert all(u0 == nonstandard.U0 for _, u0 in calls)


def test_certification_raises_on_a_pole(monkeypatch):
    def pole(mod, u0):
        raise PoleError(f"pole at u = {u0}")

    monkeypatch.setattr(nonstandard, "_restricted_generators", pole)
    with pytest.raises(PoleError):
        check_certification(3)


@pytest.mark.parametrize("bad", ["3,1", "2,2"])
def test_certification_needs_the_eps_line_outside_v_plus(monkeypatch, bad):
    # the dimensions still tile the square, but V+ plus a vector of its
    # own no longer spans it
    real = verify.epsilon_plus_vector

    def eps(lam):
        if str(lam) != bad:
            return real(lam)
        return nonstandard.build_irreducible(
            nonstandard.NsIrredLabel("plus", (lam,)), 4
        ).basis[-1]

    monkeypatch.setattr(verify, "epsilon_plus_vector", eps)
    result = check_certification(4)
    assert not result["ok"]
    assert result["detail"].startswith(f"square of {bad} ")


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
    monkeypatch, capsys
):
    # a V+ vector in place of the eps line of (2,1): t(eps) = 0
    lam = Partition([2, 1])
    vector = nonstandard._sym_projection_basis(lam)[0]
    real = nonstandard.epsilon_plus_vector
    monkeypatch.setattr(
        nonstandard,
        "epsilon_plus_vector",
        lambda mu: vector if mu == lam else real(mu),
    )
    nonstandard.square_split_identities.cache_clear()
    try:
        dimension = check_dimension((2, 3, 4))
        certification = check_certification(3)
        code = cli.main(["verify-all", "--r", "4"])
    finally:
        nonstandard.square_split_identities.cache_clear()
    why = "t(eps) != 1 on 2,1"
    assert dimension == {"ok": False, "detail": f"no split bound at r=3: {why}"}
    assert certification == {
        "ok": False,
        "detail": f"not generator-closed: +2,1 ({why})",
    }
    assert code == 1
    assert f"dimension: FAIL ({dimension['detail']})" in capsys.readouterr().out


def test_criterion_12_seminormal():
    report(12, "seminormal", check_seminormal())
