"""Smoke test of the benchmark itself: tiny sizes, every metric, failing checks.

Run from the repository root:  python3 -m pytest -q bench/test_smoke.py
"""

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
sys.path.insert(0, str(BENCH))

import arith  # noqa: E402
import run  # noqa: E402


def bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, kind):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    values = {k: v["value"] for k, v in out["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    if kind == "end_to_end":
        assert all(v > 0 for v in values.values())
    elif workload == "arith":
        assert all(v == 0 for k, v in values.items() if k.startswith("bounded."))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("arith", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout


def test_speed_probe_leaves_its_own_time_out():
    probe = run.SpeedProbe()
    probe.start()
    try:
        wall0, work0 = time.perf_counter(), probe.clock()
        while time.perf_counter() - wall0 < 0.35:
            pass
        wall, work = time.perf_counter() - wall0, probe.clock() - work0
    finally:
        probe.stop()
    assert len(probe.samples) >= 2
    assert work == pytest.approx(wall - probe.spent, abs=1e-3)
    assert probe.speed() > 0


def _flip(reference: str, index: int, status: str) -> str:
    data = json.loads(reference)
    data["result"]["reports"][index]["status"] = status
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def test_suite_check_catches_a_flipped_status():
    ref = (BENCH / "reference" / "z4-regular-d2.json").read_text("utf-8")
    assert run.check_identical(ref, ref) == 0
    status = json.loads(ref)["result"]["reports"][0]["status"]
    flipped = "hypothesis_not_met" if status == "confirmed" else "confirmed"
    assert run.check_identical(_flip(ref, 0, flipped), ref) == 1
    assert run.check_identical(ref.replace("\n", "\n ", 1), ref) == 1


def test_frontier_check_keeps_decided_reports():
    ref = (BENCH / "reference" / "z4-regular-d5.json").read_text("utf-8")
    reports = json.loads(ref)["result"]["reports"]
    skipped = [i for i, r in enumerate(reports) if r["status"] == run.SKIPPED]
    decided = [i for i, r in enumerate(reports) if r["status"] != run.SKIPPED]
    assert skipped and decided
    assert run.check_frontier(ref, ref) == 0
    # A newly decided report may be anything but a violation.
    assert run.check_frontier(_flip(ref, skipped[0], "confirmed"), ref) == 0
    assert run.check_frontier(_flip(ref, skipped[0], run.VIOLATION), ref) == 1
    assert run.check_frontier(_flip(ref, decided[0], run.SKIPPED), ref) == 1


def test_arith_check_catches_a_wrong_product():
    spbw = run.load_spbw()
    inst = spbw.cli.parse_instance(arith.WEYL_A1_Z5)
    ops = arith.OpList("weyl-a1-z5", 2, 5, 5, "smoke", random.Random(0))
    calls = ops.calls(spbw, inst)
    out = [fn(a, b) for fn, a, b in calls]
    assert ops.check(spbw, inst, out, out) == 0
    i = next(i for i, op in enumerate(ops.ops) if op[3] is not None)
    wrong = list(out)
    wrong[i] = spbw.add(out[i], inst.presentation.one_poly())
    assert ops.check(spbw, inst, wrong, wrong) == 1
    assert ops.check(spbw, inst, out, wrong) == 1


def test_weyl_closed_form_matches_small_cases():
    # x2 x1 = x1 x2 + 1 and x2^2 x1 = x1 x2^2 + 2 x2, by hand.
    assert arith.closed_form("weyl-a1-z5", 1, 1) == {(1, 1): 1, (0, 0): 1}
    assert arith.closed_form("weyl-a1-z5", 2, 1) == {(1, 2): 1, (0, 1): 2}
    assert arith.closed_form("quantum-plane-z5", 1, 1) == {(1, 1): 2}
