"""Tests of the benchmark itself (not of locind).

    python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run        # noqa: E402
import workloads  # noqa: E402


def _ids(workload, seed):
    return [item["id"] for item in workloads.inputs(workload, seed)]


def _case(family, lam, window, parity=None):
    return {"kind": "case", "id": f"{family}:{lam}", "family": family,
            "lambda": lam, "parity": parity, "window": window,
            "fixture": family == "C" and lam == -1}


# A few seconds of every kind of input, for the worker tests.
SMALL = [_case("A", -2, 10), _case("B", 1, 8, parity=1), _case("C", 3, None),
         _case("C", -1, None), _case("D", [-2, -3], 2),
         {"kind": "oracle", "id": "oracle:A:-4", "family": "A", "lambda": -4,
          "parity": None, "window": 8, "fixture": False}]


def test_seed_zero_is_the_fixed_grid_and_matches_the_golden_ids():
    assert _ids("d-box", 0) == ["D:-2,-3", "D:-4,-2"]
    assert _ids("a-line", 0) == [f"A:{lam}" for lam in range(-2, -9, -1)]
    gate = _ids("bc-gate", 0)
    assert gate[:6] == [f"B:{lam}:p{p}" for lam in (0, 1, 2) for p in (0, 1)]
    assert gate[6:127] == [f"C:{lam}" for lam in range(-60, 61)]
    assert gate[127:] == ["selftest", "oracle:A:-2", "oracle:B:0:p0", "oracle:D:-2,-3"]
    golden = json.loads((BENCH / "golden_seed0.json").read_text())
    for name in workloads.WORKLOADS:
        assert sorted(golden[name]) == sorted(_ids(name, 0))


@pytest.mark.parametrize("seed", [1, 2, 17])
def test_seeded_inputs_repeat_and_stay_in_their_ranges(seed):
    for name in workloads.WORKLOADS:
        assert workloads.inputs(name, seed) == workloads.inputs(name, seed)
        assert workloads.inputs(name, seed) != workloads.inputs(name, seed + 1)
    d = workloads.inputs("d-box", seed)
    assert len(d) == 8 and len({item["id"] for item in d}) == 8
    assert all(-6 <= x <= 2 for item in d for x in item["lambda"])
    a = [item["lambda"] for item in workloads.inputs("a-line", seed)]
    assert len(a) == 7 and all(-40 <= x <= 40 for x in a)
    gate = workloads.inputs("bc-gate", seed)
    b = [item for item in gate if item["kind"] == "case" and item["family"] == "B"]
    c = [item for item in gate if item["kind"] == "case" and item["family"] == "C"]
    assert len(b) == 6 and all(-40 <= item["lambda"] <= 40 for item in b)
    assert len(c) == 121 and len({item["lambda"] for item in c}) == 121
    assert all(-80 <= item["lambda"] <= 80 for item in c)
    assert all(item["fixture"] == (item["lambda"] == -1) for item in c)


def test_check_names_every_kind_of_failure():
    items = [{"id": i} for i in "abcde"]
    ok = {"verdict": "exact-match", "oracle_ok": None, "error": None, "sha256": "x"}
    results = [dict(ok, error="WindowTooSmall: raise the cut"),
               dict(ok, verdict="mismatch"), dict(ok, oracle_ok=False),
               dict(ok, sha256="y"), ok]
    golden = {i: "exact-match x" for i in "abcde"}
    bad = run.check(items, results, golden)
    assert [line.split(":")[0] for line in bad] == ["a", "b", "c", "d"]
    assert run.check(items[3:], results[3:], None) == []


def test_failing_input_is_recorded_and_the_block_goes_on():
    bogus = dict(_case("A", -2, 10), id="bogus", family="Z")
    res = run.spawn("run", [SMALL[0], bogus, SMALL[2]])
    errors = [r["error"] for r in res["results"]]
    assert errors[0] is None and errors[2] is None
    assert errors[1].startswith("ValueError")
    assert "counts" not in res           # an untraced run installs no wrappers


def test_traced_counters_repeat_byte_for_byte_and_cover_the_run(tmp_path):
    first = run.spawn("trace", SMALL, tmp_path / "a.jsonl")
    second = run.spawn("trace", SMALL, tmp_path / "b.jsonl")
    assert run.check(SMALL, first["results"], None) == []
    assert (json.dumps(first["counts"], sort_keys=True)
            == json.dumps(second["counts"], sort_keys=True))
    for res in (first, second):
        assert res["times"]["trace.coverage"] >= 0.95
    counts = first["counts"]
    assert counts["harness.run_case.calls"] == len(SMALL)
    assert counts["hecke.oracle.calls"] == 1
    assert counts["cohind.boundary_nonint"] == 0
    for name in ("locind.cohind.homology_dim", "locind.cohind.rep_of_vec",
                 "locind.harness.delta_module", "locind.harness.run_case",
                 "locind.exactla.SparseMatrix.rref", "locind.pbw.UElt.__mul__",
                 "locind.liealg.LieAlg.bracket_basis"):
        assert name in first["wrapped"]
    spans = [json.loads(line) for line in (tmp_path / "a.jsonl").read_text().splitlines()]
    assert {s[0] for s in spans} >= {"harness.run_case", "cohind.build", "pbw.mul"}
    assert all(s[3] < i for i, s in enumerate(spans))       # parents come first
    assert {s[4] for s in spans} == {item["id"] for item in SMALL}


def test_run_fails_without_a_program_to_measure(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "a-line", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
