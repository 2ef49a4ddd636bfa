"""scripts/certify_irreducibles.py takes its verdict from
verify.check_certification, so a failure injected into any certificate
of that one path fails the check, names the certificate, and makes the
script exit 1."""

import importlib.util
import pathlib

import pytest

from nstl import nonstandard, verify

ROOT = pathlib.Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location(
    "certify_irreducibles", ROOT / "scripts" / "certify_irreducibles.py"
)
certify = importlib.util.module_from_spec(spec)
spec.loader.exec_module(certify)


def test_rank_3_passes(capsys):
    assert certify.main(["3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    assert all("dim=" in line and "Res = " in line for line in lines[:4])
    assert lines[-1] == "certification: PASS"


def inside_plus(lam):
    """A vector of V+ in place of the eps line."""
    return nonstandard._sym_projection_basis(lam)[0]


FAILURES = [
    (
        nonstandard,
        "square_split_identities",
        lambda lam: f"P_1 eps != 4 eps on {lam}",
        "not generator-closed: +2,1 (P_1 eps != 4 eps on 2,1)",
    ),
    (nonstandard, "commutant_dimension", lambda gens, d: 2, "commutant"),
    (verify, "hom_dimension", lambda *args: 1, "intertwiner"),
    (verify, "dimension_formula", lambda r: 11, "formula"),
    (verify, "epsilon_plus_vector", inside_plus, "square of 2,1"),
]


@pytest.mark.parametrize(
    "module,name,fake,named", FAILURES, ids=[f[1] for f in FAILURES]
)
def test_a_failed_certificate_fails_the_check_and_exits_1(
    capsys, monkeypatch, module, name, fake, named
):
    monkeypatch.setattr(module, name, fake)
    result = verify.check_certification(3)
    assert not result["ok"]
    assert named in result["detail"]
    assert certify.main(["3"]) == 1
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == f"certification: FAIL ({result['detail']})"
