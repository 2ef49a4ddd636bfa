import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import nstl
from nstl.cli import main
from nstl.combinatorics import all_permutations
from nstl.hecke_core import kl_lower, kl_upper
from nstl.verify import ACCEPTANCE_CHECKS
from nstl.nonstandard import StabilizationError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out.splitlines()[0])


class TestDimCheck:
    def test_r3(self, capsys):
        code, data = run_json(capsys, "dim-check", "--r", "3")
        assert code == 0
        assert data == {"formula": 10, "oracle": 10, "agree": True}

    @pytest.mark.parametrize("argv", [["--help"], ["dim-check", "--help"]])
    def test_help_lists_no_route_options(self, capsys, argv):
        # the oracle picks its route by rank, and --r-bound alone bounds it
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--r" in out
        for option in ("--force", "--u0", "--mod-p"):
            assert option not in out


class TestGraphs:
    def test_de_graph_32(self, capsys):
        code, data = run_json(capsys, "de-graph", "--shape", "3,2")
        assert code == 0
        assert len(data["vertices"]) == 5
        assert len(data["edges"]) == 6

    def test_wgraph_32(self, capsys):
        code, data = run_json(capsys, "wgraph", "--shape", "3,2")
        assert code == 0
        assert len(data["mu_edges"]) == 6
        assert all(mu == 1 for _, _, mu in data["mu_edges"])
        assert sorted(map(len, data["lower_descents"])) == [2, 2, 2, 3, 3]


class TestAlgebra:
    def test_kl_basis_r2(self, capsys):
        code, data = run_json(capsys, "kl-basis", "--r", "2")
        assert code == 0
        assert data["elements"]["2,1"] == {"1,2": "u^-1", "2,1": "1"}

    @pytest.mark.parametrize(
        "r,basis",
        [(r, b) for r in range(1, 6) for b in ("lower", "upper")] + [(6, "upper")],
    )
    def test_kl_basis_matches_hecke_elements(self, capsys, r, basis):
        # the packed reader prints what the HeckeElement route printed
        fn = kl_lower if basis == "lower" else kl_upper
        elements = {
            str(w): {str(x): str(c.as_laurent()) for x, c in fn(w).coords.items()}
            for w in all_permutations(r)
        }
        want = {"r": r, "basis": basis, "elements": elements}
        code, out = run(
            capsys, "--r-bound", "6", "kl-basis", "--r", str(r), "--basis", basis
        )
        assert code == 0
        assert out == json.dumps(want, sort_keys=True, separators=(",", ":")) + "\n"

    def test_cells_r3(self, capsys):
        code, data = run_json(capsys, "cells", "--r", "3")
        assert code == 0
        assert sorted(map(len, data["cells"])) == [1, 1, 2, 2]

    def test_transition_21(self, capsys):
        code, data = run_json(capsys, "transition", "--shape", "2,1")
        assert code == 0
        assert data["matrix"][0][0] == "1"

    def test_specht_shape(self, capsys):
        code, data = run_json(capsys, "specht", "--shape", "2,1")
        assert code == 0
        assert len(data["tableaux"]) == 2
        assert set(data["action"]) == {"1", "2"}


class TestNonstandard:
    def test_decompose_equal(self, capsys):
        code, data = run_json(
            capsys, "decompose", "--lhs", "3,2", "--rhs", "3,2"
        )
        assert code == 0
        assert data["total"] == data["ambient"] == 25

    def test_decompose_pair(self, capsys):
        code, data = run_json(
            capsys, "decompose", "--lhs", "4,1", "--rhs", "3,2"
        )
        assert code == 0
        assert data["constituents"] == [
            {"label": "4,1:3,2", "dimension": 20}
        ]

    def test_restrict_signed(self, capsys):
        code, data = run_json(capsys, "restrict", "--label", "+3,1")
        assert code == 0
        assert data["restriction"] == {"3:2,1": 1, "+2,1": 1, "eps+": 1}

    def test_restrict_eps_needs_rank(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["restrict", "--label", "eps+"])
        assert exc.value.code == 2

    def test_restrict_eps(self, capsys):
        code, data = run_json(
            capsys, "restrict", "--label", "eps+", "--r", "3"
        )
        assert code == 0
        assert data["restriction"] == {"eps+": 1}

    def test_seminormal_grid(self, capsys):
        code, out = run(
            capsys,
            "seminormal", "--lhs", "2,1", "--rhs", "2,1", "--level", "3",
        )
        assert code == 0
        data = json.loads(out.splitlines()[0])
        assert data["grid"] == [["eps+", "-2,1"], ["+2,1", "+2,1"]]
        assert "eps+" in out.splitlines()[2]


class TestConfig:
    def test_rank_bound(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["kl-basis", "--r", "6"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("bound", ["3", "7"])
    def test_rank_above_the_bound_exits_2_and_at_it_runs(self, capsys, bound):
        r = int(bound)
        above = ["--r-bound", bound, "de-graph", "--shape", f"{r},1"]
        with pytest.raises(SystemExit) as exc:
            main(above)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert not captured.out
        want = f"rank {r + 1} exceeds the bound {r} (raise with --r-bound)"
        assert want in captured.err
        code, data = run_json(
            capsys, "--r-bound", bound, "de-graph", "--shape", f"{r - 1},1"
        )
        assert code == 0
        assert data["shape"] == [r - 1, 1]

    def test_rank_bound_override(self, capsys):
        code, data = run_json(
            capsys, "--r-bound", "6", "de-graph", "--shape", "3,2,1"
        )
        assert code == 0

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_partition(self):
        with pytest.raises(SystemExit) as exc:
            main(["de-graph", "--shape", "2,x"])
        assert exc.value.code == 2

    def test_output_file_and_determinism(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["--output", str(p1), "wgraph", "--shape", "3,2"])
        main(["--output", str(p2), "wgraph", "--shape", "3,2"])
        assert p1.read_bytes() == p2.read_bytes()

    def test_unwritable_output_is_a_usage_error_before_any_work(
        self, tmp_path, capsys, monkeypatch
    ):
        ran = []
        monkeypatch.setattr(
            "nstl.verify.ACCEPTANCE_CHECKS",
            (("full", 5, False, lambda r: ran.append(r) or {"ok": True}),),
        )
        missing = tmp_path / "missing" / "x.json"
        for path in (missing, tmp_path):
            with pytest.raises(SystemExit) as exc:
                main(["--output", str(path), "verify-all", "--r", "3"])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"cannot write --output {path}: " in captured.err
        assert ran == []
        assert not missing.parent.exists()

    def test_output_check_keeps_an_existing_file(self, tmp_path, capsys):
        # a later usage error leaves the file as it was
        path = tmp_path / "a.json"
        path.write_text("kept\n")
        with pytest.raises(SystemExit) as exc:
            main(["--output", str(path), "kl-basis", "--r", "9"])
        assert exc.value.code == 2
        assert path.read_text() == "kept\n"


class TestVerifyAll:
    def test_r3(self, capsys):
        code, out = run(capsys, "verify-all", "--r", "3")
        assert code == 0
        lines = out.splitlines()
        assert sum(1 for l in lines if l.endswith(": PASS")) == 12

    def test_capped_checks_name_their_rank(self, capsys, monkeypatch):
        ran = []

        def stub(name, ok=True):
            def check(r):
                ran.append((name, r))
                return {"ok": ok} if ok else {"ok": False, "detail": "boom"}

            return check

        monkeypatch.setattr(
            "nstl.verify.ACCEPTANCE_CHECKS",
            (
                ("full", 5, False, stub("full")),
                ("capped", 4, False, stub("capped")),
                ("failed", 3, False, stub("failed", ok=False)),
            ),
        )
        code, out = run(capsys, "verify-all", "--r", "5")
        assert code == 1
        assert ran == [("full", 5), ("capped", 4), ("failed", 3)]
        lines = out.splitlines()
        assert lines[:3] == [
            "full: PASS",
            "capped: PASS (at r=4)",
            "failed: FAIL (at r=3) (boom)",
        ]
        assert json.loads(lines[3]) == {
            "r": 5,
            "ok": False,
            "results": {
                "full": {"ok": True},
                "capped": {"ok": True, "effective_r": 4},
                "failed": {"ok": False, "detail": "boom", "effective_r": 3},
            },
        }
        # at or below every cap nothing is marked
        code, out = run(capsys, "verify-all", "--r", "3")
        assert out.splitlines()[:3] == [
            "full: PASS",
            "capped: PASS",
            "failed: FAIL (boom)",
        ]
        assert "effective_r" not in out


    def test_verbose_times_each_check_on_stderr(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "nstl.verify.ACCEPTANCE_CHECKS",
            (
                ("full", 5, False, lambda r: {"ok": True}),
                ("capped", 4, False, lambda r: {"ok": True}),
            ),
        )
        assert main(["verify-all", "--r", "5"]) == 0
        quiet = capsys.readouterr()
        assert quiet.err == ""
        assert main(["-v", "verify-all", "--r", "5"]) == 0
        loud = capsys.readouterr()
        assert loud.out == quiet.out
        lines = loud.err.splitlines()
        assert [line.rsplit(" ", 1)[0] for line in lines] == [
            "full: r=5",
            "capped: r=4",
        ]
        for line in lines:
            seconds = line.rsplit(" ", 1)[1]
            assert seconds.endswith("s") and float(seconds[:-1]) >= 0

    def test_verbose_leaves_the_real_stdout_alone(self, capsys):
        code, quiet = run(capsys, "verify-all", "--r", "3")
        assert main(["-v", "verify-all", "--r", "3"]) == code == 0
        loud = capsys.readouterr()
        assert loud.out == quiet
        names = [name for name, _, _, _ in ACCEPTANCE_CHECKS]
        assert [line.split(":")[0] for line in loud.err.splitlines()] == names

    def test_verbose_names_the_rank_a_fixed_check_ran_at(self, capsys):
        # figures and seminormal run on (3,2), action-formula and
        # eps-antipode at r=4, whatever --r says
        assert main(["-v", "verify-all", "--r", "4"]) == 0
        captured = capsys.readouterr()
        digest = hashlib.sha256(captured.out.encode()).hexdigest()
        assert digest == (
            "5d515035eb5e002afe095edb48001b7ebfc7e2de361d8927cd5aec8021ce955e"
        )
        ranks = dict(
            line.rsplit(" ", 1)[0].split(": ")
            for line in captured.err.splitlines()
        )
        assert ranks == {
            "kl-basis": "r=4",
            "cells-rsk": "r=4",
            "figures": "r=5",
            "de-mu": "r=4",
            "transition": "r=4",
            "projected-basis": "r=4",
            "action-formula": "r=4",
            "eps-antipode": "r=4",
            "certification": "r=4",
            "branching": "r=4",
            "dimension": "r=4",
            "seminormal": "r=5",
        }


class TestInternalError:
    @pytest.mark.parametrize(
        "exc",
        [
            ArithmeticError("inexact polynomial division"),
            StabilizationError("span closure exceeded\nsafety bound"),
        ],
    )
    def test_uncaught_exception_exits_3(self, capsys, monkeypatch, exc):
        def boom(*args, **kwargs):
            raise exc

        monkeypatch.setattr("nstl.nonstandard.nonstandard_dimension_oracle", boom)
        assert main(["dim-check", "--r", "3"]) == 3
        captured = capsys.readouterr()
        assert not captured.out
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"nstl: internal error: {type(exc).__name__}: ")
        assert " ".join(str(exc).split()) in err[0]

    def test_verbose_prints_the_traceback(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise StabilizationError("span closure exceeded safety bound")

        monkeypatch.setattr("nstl.nonstandard.nonstandard_dimension_oracle", boom)
        assert main(["-v", "dim-check", "--r", "3"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "Traceback (most recent call last):"
        assert err[-1] == (
            "nstl: internal error: StabilizationError: "
            "span closure exceeded safety bound"
        )

    def test_usage_errors_keep_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["dim-check", "--r", "0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [["verify-all", "--r", "1"], ["restrict", "--label", "eps+", "--r", "1"]],
    )
    def test_rank_one_is_a_usage_error(self, capsys, argv):
        # branching restricts to rank r - 1, so both need r >= 2
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "needs r >= 2" in captured.err


def run_fresh(code):
    """Run code in a fresh interpreter on this source tree; return its
    stdout lines."""
    src = pathlib.Path(nstl.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return run.stdout.splitlines()


def run_flag_numpy(code):
    """The last line of run_fresh(code): whether numpy was loaded."""
    return run_fresh(code + "; print('numpy' in sys.modules)")[-1]


def test_cli_import_leaves_numpy_out():
    # only the oracle's F_p route, from rank 5, needs numpy; importing the
    # CLI must not load it
    assert run_flag_numpy("import sys, nstl.cli") == "False"


def test_verify_all_at_rank_4_leaves_numpy_out():
    # the dimension check at rank 4 takes the exact route
    code = "import sys, nstl.cli; nstl.cli.main(['verify-all', '--r', '4'])"
    assert run_flag_numpy(code) == "False"


DEFERRED = ["linalg", "nonstandard", "seminormal", "specht_modules", "verify"]

LAYERS_RUN = """
import contextlib, io, sys, types
import nstl, nstl.cli

def bound(layer):
    module = sys.modules.get("nstl." + layer)
    return module is not None and getattr(nstl, layer, None) is module

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return nstl.cli.main(list(argv))
        except SystemExit as exc:
            return exc.code

def ran():
    return [l for l in %r if type(sys.modules["nstl." + l]) is types.ModuleType]

print(all(map(bound, %r)))
codes = [
    run("kl-basis", "--r", "3"),
    run("cells", "--r", "3"),
    run("de-graph", "--shape", "2,1"),
    run("dim-check", "--r", "0"),
]
print(codes, ran())
print(run("wgraph", "--shape", "2,1"), ran())
print(run("verify-all", "--r", "2"), ran())
"""


def test_cli_runs_a_layer_only_when_a_command_needs_it():
    # perfbench/tracer.py wraps every layer it finds in sys.modules after
    # `import nstl.cli`, so all nine are there and bound on the package,
    # but the five that kl-basis, cells and de-graph never call have not run
    layers = ["exact_arith", "combinatorics", "hecke_core", "cli", *DEFERRED]
    lines = run_fresh(LAYERS_RUN % (DEFERRED, layers))
    assert lines == [
        "True",
        "[0, 0, 0, 2] []",
        "0 ['linalg', 'specht_modules']",
        f"0 {DEFERRED}",
    ]
