"""Output checks of the benchmark and the contract of BENCHMARK.json."""

import json
from pathlib import Path

import pytest

import run
from workloads import KL_ELEMENTS, WORKLOADS, fail_ratio, problems, record

ROOT = Path(__file__).resolve().parents[2]


def kl_stdout(n=KL_ELEMENTS):
    payload = {"basis": "upper", "elements": {str(k): {} for k in range(n)}, "r": 5}
    return (json.dumps(payload) + "\n").encode()


def transition_stdout(shapes):
    return "".join(f"{s} {d}\n" for s, d in shapes).encode()


def test_matching_output_has_no_problems():
    out = kl_stdout()
    golden = {"kl-upper-r5": record("kl-upper-r5", out, 0)}
    assert problems("kl-upper-r5", out, 0, golden) == []


def test_tampered_golden_digest_fails_every_repetition():
    out = kl_stdout()
    golden = {"kl-upper-r5": record("kl-upper-r5", out, 0)}
    golden["kl-upper-r5"]["stdout_sha256"] = "0" * 64
    reps = [problems("kl-upper-r5", out, 0, golden) for _ in range(3)]
    assert fail_ratio(reps) == 1


def test_exit_code_and_paper_numbers_are_checked():
    out = kl_stdout(KL_ELEMENTS - 1)
    golden = {"kl-upper-r5": record("kl-upper-r5", out, 0)}
    assert problems("kl-upper-r5", out, 0, golden) == [
        f"expected {KL_ELEMENTS} canonical basis elements"
    ]
    assert "exit code 1 != 0" in problems("kl-upper-r5", out, 1, golden)[0]
    v = b'{"ok":true,"results":{"dimension":{"values":{"2":2,"3":10,"4":88}},"seminormal":{"leaves":25}}}\n'
    golden = {"verify-r4": record("verify-r4", v, 0)}
    assert problems("verify-r4", v, 0, golden) == ["dimension values differ from the paper's"]


def test_transition_order_does_not_matter_but_matrices_do():
    shapes = [("3,2,1", "a" * 64), ("6", "b" * 64), ("4,2", "c" * 64)]
    golden = {"transition-r6": record("transition-r6", transition_stdout(shapes), 0)}
    shuffled = transition_stdout(shapes[::-1])
    assert problems("transition-r6", shuffled, 0, golden) == []
    wrong = transition_stdout([("3,2,1", "d" * 64)] + shapes[1:])
    assert "transition matrix of 3,2,1 differs" in problems("transition-r6", wrong, 0, golden)
    twice = transition_stdout(shapes + shapes[:1])
    assert problems("transition-r6", twice, 0, golden)[0].startswith("unreadable output")


def test_tampered_golden_fails_a_real_run(tmp_path):
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())
    golden["kl-upper-r5"]["stdout_sha256"] = "0" * 64
    bench = run.Bench(ROOT, "kl-upper-r5", 3, golden)
    bench.work = tmp_path / "work"
    result = bench.run(seconds=1.0, trace=False)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False
    assert fail_ratio([r["problems"] for r in bench.reps]) == 1


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_golden_has_every_workload(workload):
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())
    assert golden[workload]["exit_code"] == 0
