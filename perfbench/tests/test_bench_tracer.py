"""Self-time arithmetic of the tracer, on a fake clock."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from tracer import Tracer

ROOT = Path(__file__).resolve().parents[2]


def make_tracer():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def tick(dt):
        now[0] += dt

    return tracer, tick


def test_self_time_of_nested_spans():
    tracer, tick = make_tracer()

    def leaf():  # exact_arith
        tick(1.0)

    def helper():  # linalg, called from linalg: no span of its own
        tick(0.25)

    def inner():  # linalg
        tick(2.0)
        leaf_w()
        tick(0.5)
        helper_w()

    def outer():  # cli
        tick(3.0)
        inner_w()
        leaf_w()
        tick(4.0)

    leaf_w = tracer.wrap("exact_arith", "leaf", leaf)
    helper_w = tracer.wrap("linalg", "helper", helper)
    inner_w = tracer.wrap("linalg", "inner", inner)
    outer_w = tracer.wrap("cli", "outer", outer)
    outer_w()

    # cli span 11.75 s covers linalg 3.75 s and exact_arith 1 s
    assert tracer.self_s["cli"] == pytest.approx(7.0)
    # linalg span 3.75 s covers exact_arith 1 s; helper adds no span
    assert tracer.self_s["linalg"] == pytest.approx(2.75)
    assert tracer.self_s["exact_arith"] == pytest.approx(2.0)
    assert (tracer.spans["cli"], tracer.spans["linalg"], tracer.spans["exact_arith"]) == (1, 1, 2)
    counts = tracer.report()["counts"]
    assert counts == {
        "cli:outer": 1,
        "exact_arith:leaf": 2,
        "linalg:helper": 1,
        "linalg:inner": 1,
    }
    # self times partition the outermost span
    assert sum(tracer.self_s.values()) == pytest.approx(11.75)


def test_span_closes_when_the_call_raises():
    tracer, tick = make_tracer()

    def boom():
        tick(1.5)
        raise ZeroDivisionError

    def caller():
        tick(1.0)
        try:
            boom_w()
        except ZeroDivisionError:
            pass
        tick(1.0)

    boom_w = tracer.wrap("exact_arith", "boom", boom)
    tracer.wrap("specht_modules", "caller", caller)()
    assert tracer.self_s["exact_arith"] == pytest.approx(1.5)
    assert tracer.self_s["specht_modules"] == pytest.approx(2.0)
    assert len(tracer.stack) == 1


def test_inclusive_timer_counts_outermost_call_only():
    tracer, tick = make_tracer()

    def rec(n):
        tick(1.0)
        if n:
            timed(n - 1)

    timed = tracer.timed("seminormal.basis_s", rec)
    timed(2)
    assert tracer.inclusive["seminormal.basis_s"] == pytest.approx(3.0)


SNIPPET = """
import json, sys
import nstl.cli, nstl.linalg, nstl.nonstandard, nstl.specht_modules
from nstl.combinatorics import Partition
from tracer import Tracer, instrument
t = instrument(Tracer())
assert nstl.nonstandard.rref is nstl.linalg.rref
assert nstl.linalg.rref.__wrapped__ is not nstl.linalg.rref
nstl.specht_modules.transition_lower_to_upper(Partition([2, 1]))
print(json.dumps(t.report()["metrics"]))
"""


def test_instrument_patches_every_namespace():
    env = {"PYTHONPATH": f"{ROOT / 'src'}:{ROOT / 'perfbench'}", "PATH": ""}
    out = subprocess.run(
        [sys.executable, "-c", SNIPPET],
        env=env,
        capture_output=True,
        check=True,
        timeout=120,
    )
    m = json.loads(out.stdout.decode().splitlines()[-1])
    # specht_modules -> nullspace -> rref: the linalg-internal call counts
    assert m["linalg.rref_calls"] >= 1 and m["linalg.rref_cells"] > 0
    assert m["specht_modules.calls"] == 1
    assert m["hecke_core.kl_table_misses"] == 1
    assert m["exact_arith.rational_new"] > 0
    assert m["nonstandard.calls"] == 0 and m["seminormal.calls"] == 0
