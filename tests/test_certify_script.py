"""scripts/certify_irreducibles.py takes its verdict from
verify.check_certification, so a failure injected into any step of that
one path fails the check, names the step, and makes the script exit 1;
it prints the restrictions the certificate computed."""

import importlib.util
import pathlib

import pytest

from nstl import nonstandard, verify
from nstl.exact_arith import R_ZERO

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


@pytest.mark.parametrize("r", [0, 1])
def test_a_rank_below_2_is_a_usage_error(capsys, r):
    # exit 2 with a message, as verify-all, not a traceback
    with pytest.raises(SystemExit) as exc:
        certify.main([str(r)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"certification at rank {r} needs r >= 2" in captured.err


@pytest.fixture(autouse=True)
def fresh_modules():
    """build_irreducible caches each module with its restriction: a
    fault in what they read must meet an empty cache."""
    nonstandard.build_irreducible.cache_clear()
    yield
    nonstandard.build_irreducible.cache_clear()


real_split = nonstandard._restriction_split
real_trace = nonstandard.chain_trace


def doubled(mod):
    """The restriction with its first component counted twice."""
    split = real_split(mod)
    first = next(iter(split))
    rk, probe = split[first]
    return {**split, first: (2 * rk, probe)}


FAILURES = [
    (
        nonstandard,
        "square_split_identities",
        lambda lam: f"P_1 eps != 4 eps on {lam}",
        "not generator-closed: eps+ (P_1 eps != 4 eps on 2)",
    ),
    (
        nonstandard,
        "_restriction_edges",
        lambda mod: {j: set() for j in mod.restriction},
        "not strongly connected: 3:2,1",
    ),
    (nonstandard, "_restriction_split", doubled, "not multiplicity-free: 2:1,1"),
    (
        nonstandard,
        "chain_trace",
        lambda label, r: R_ZERO if r == 3 else real_trace(label, r),
        "3:2,1 and +2,1 not told apart",
    ),
    (verify, "dimension_formula", lambda r: 11, "formula"),
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


def test_the_script_splits_each_label_once(monkeypatch, capsys):
    splits = []

    def counted(mod):
        splits.append((str(mod.label), mod.ambient.r))
        return real_split(mod)

    monkeypatch.setattr(nonstandard, "_restriction_split", counted)
    assert certify.main(["4"]) == 0
    want = [(str(label), s) for s in (2, 3, 4) for label in nonstandard.ns_labels(s)]
    assert sorted(splits) == sorted(want)
    assert len(capsys.readouterr().out.splitlines()) == 9
