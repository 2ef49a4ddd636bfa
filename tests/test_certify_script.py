"""scripts/certify_irreducibles.py exits 1 when any of its certificates
fails, so a CI step can run it."""

import importlib.util
import pathlib

import pytest

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
    assert all("closed=True  commutant=[1, 1]" in line for line in lines[:4])
    assert lines[-1] == "sum of squared dimensions: 10"


@pytest.mark.parametrize(
    "name,fake",
    [
        ("closure_check", lambda mod: False),
        ("certify_irreducible", lambda mod, u0: 2),
        ("dimension_formula", lambda r: 11),
    ],
)
def test_a_failed_certificate_exits_1(capsys, monkeypatch, name, fake):
    monkeypatch.setattr(certify, name, fake)
    assert certify.main(["3"]) == 1
