"""Verification harness: case validation, report schema, selftest suite,
and the command line driver."""

import json
import random
from types import SimpleNamespace

import pytest

from locind import harness
from locind.cohind import ChainBlock
from locind.exactla import SparseMatrix, kernel_basis, rank
from locind.gkmod import Character, Window
from locind.harness import (LEDGER, Report, VerificationCase, default_cases,
                            main, run_case, selftest)
from locind.harness import _fuse_dashed_values


# ---------------------------------------------------------------------------
# case validation


def test_case_validation():
    with pytest.raises(ValueError, match="unknown family"):
        VerificationCase("E", 0)
    with pytest.raises(ValueError, match="margin"):
        VerificationCase("A", -4, margin=3)
    with pytest.raises(ValueError, match="symmetric"):
        VerificationCase("A", -4, window=Window.segment(-4, 6))
    with pytest.raises(ValueError, match="parity"):
        VerificationCase("A", -4, parity=0)
    with pytest.raises(ValueError, match="parity"):
        VerificationCase("B", 1)
    with pytest.raises(ValueError, match="pair of twists"):
        VerificationCase("D", -2)
    with pytest.raises(ValueError, match="single integer"):
        VerificationCase("A", (-2, -3))
    with pytest.raises(ValueError, match="expectation"):
        VerificationCase("A", -4, expected="maybe")


def test_case_id_formats():
    assert VerificationCase("A", -4).case_id == "A:-4"
    assert VerificationCase("B", 1, parity=0).case_id == "B:1:p0"
    assert VerificationCase("D", (-2, -3)).case_id == "D:-2,-3"


def test_resolved_windows():
    assert VerificationCase("A", -4).resolved_window() == Window.segment(-30, 30)
    assert VerificationCase("C", 2).resolved_window() is None
    assert VerificationCase("D", (-2, -2)).resolved_window() == \
        Window.box((-8, -8), (8, 8))
    custom = Window.segment(-6, 6)
    assert VerificationCase("A", -4, window=custom).resolved_window() == custom


def test_default_cases():
    assert len(default_cases("A")) == 7
    assert len(default_cases("B")) == 6
    cs = default_cases("C")
    assert len(cs) == 7 and cs[-1].expected == "fixture"
    assert len(default_cases("D")) == 2
    with pytest.raises(ValueError):
        default_cases("E")


# ---------------------------------------------------------------------------
# running cases


def test_run_case_closed_orbit():
    r = run_case(VerificationCase("A", -4, window=Window.segment(-10, 10)))
    assert r.verdict == "exact-match"
    assert [(s, j) for s, j, _, _ in r.comparisons] == [(0, 0)]
    assert r.side_a == r.side_b
    assert all(ch.is_zero() for _, ch in r.vanishing)


def test_run_case_open_orbit():
    r = run_case(VerificationCase("B", 0, parity=1,
                                  window=Window.segment(-8, 8)))
    assert r.verdict == "exact-match"
    assert r.side_a == [((w,), 1) for w in range(-7, 9, 2)]


def test_run_case_full_sl2():
    r = run_case(VerificationCase("C", 2))
    assert r.verdict == "exact-match"
    assert [(s, j) for s, j, _, _ in r.comparisons] == [(0, 1), (1, 0)]
    assert r.side_a == [((2,), 1)]


def test_run_case_wall_fixture():
    r = run_case(VerificationCase("C", -1, expected="fixture"))
    assert r.verdict == "exact-match"   # both sides vanish on the wall
    assert r.side_a == [] == r.side_b
    assert r.note == "recorded degenerate fixture"


def test_run_case_product():
    r = run_case(VerificationCase("D", (-2, -2),
                                  window=Window.box((-4, -4), (4, 4))))
    assert r.verdict == "exact-match"
    assert r.side_a == [((a, b), 1) for a in range(0, 5, 2)
                        for b in range(0, 5, 2)]


def test_run_case_off_grid():
    # seeded twists away from the stock grids: every family must still
    # match exactly
    rng = random.Random(20121207)
    cases = [VerificationCase("A", rng.randint(-40, 40)) for _ in range(4)]
    cases += [VerificationCase("B", rng.randint(-40, 40), parity=p)
              for p in (0, 1, 0, 1)]
    cases += [VerificationCase("C", rng.randint(-30, 30)) for _ in range(4)]
    cases += [VerificationCase("D", (rng.randint(-6, 2), rng.randint(-6, 2)),
                               window=Window.box((-4, -4), (4, 4)))
              for _ in range(3)]
    for c in cases:
        assert run_case(c).verdict == "exact-match", c.case_id


# ---------------------------------------------------------------------------
# report schema


def test_report_json_schema():
    r = run_case(VerificationCase("A", -4, window=Window.segment(-10, 10)))
    doc = r.to_json()
    assert set(doc) == {"case", "family", "lambda", "side_a", "side_b",
                        "pairs_compared", "verdict", "ledger"}
    assert doc["ledger"] == LEDGER == \
        {"kl_twist": 0, "canonical_Y": 0, "anticanonical_X": 0}
    assert doc["pairs_compared"] == [{"s": 0, "j": 0}]
    assert doc["side_a"][0] == {"weight": [-2], "mult": 1}


def test_report_json_optional_keys():
    r = Report(case="x", family="A", lambda0=-4, verdict="mismatch",
               counterexample=(3,), note="why")
    doc = r.to_json()
    assert doc["counterexample"] == [3] and doc["note"] == "why"


def test_report_bytes_deterministic():
    c = VerificationCase("D", (-2, -2), window=Window.box((-4, -4), (4, 4)))
    b1 = run_case(c).to_json_bytes()
    b2 = run_case(c).to_json_bytes()
    assert b1 == b2
    assert b1.decode("ascii").startswith('{"case":"D:-2,-2"')


# ---------------------------------------------------------------------------
# selftest


def test_selftest_all_green():
    reports = selftest()
    assert len(reports) == 9
    assert all(r.verdict == "exact-match" for r in reports)
    names = {r.case for r in reports}
    assert names == {"hecke-associativity", "approx-identity",
                     "boundary-squares-zero", "bracket-homomorphism",
                     "jet-conformance", "oracle-equivalence", "duality",
                     "negative-jacobi", "negative-boundary-sign"}
    by_name = {r.case: r for r in reports}
    assert "triples" in by_name["hecke-associativity"].note
    assert by_name["negative-boundary-sign"].note == "corruption detected"
    assert "Jacobi" in by_name["negative-jacobi"].note


def test_boundary_squares_check_compares_inner_boundaries(monkeypatch):
    # 1 -> 1 -> 1 with both maps the identity: d1 . d2 = 1, not 0
    one = SparseMatrix.identity(1)
    bad = SimpleNamespace(blocks={(0,): ChainBlock((1, 1, 1), (one, one))})
    monkeypatch.setattr(harness, "_small_complex", lambda fam: bad)
    rep = harness._check_boundary_squares()
    assert rep.verdict == "mismatch"
    assert rep.counterexample == (0,) and rep.note == "family A, degree 1"


@pytest.mark.parametrize("fam", ["A", "B", "C", "D"])
def test_small_complex_rank_nullity(fam):
    cx = harness._small_complex(fam)
    for blk in cx.blocks.values():
        for b in blk.boundaries:
            assert b.cols - rank(b) == len(kernel_basis(b))


# ---------------------------------------------------------------------------
# command line


def test_fuse_dashed_values():
    assert _fuse_dashed_values(["--window", "-20:20", "--lambda", "-2,-3"]) == \
        ["--window=-20:20", "--lambda=-2,-3"]
    assert _fuse_dashed_values(["--window", "0:20", "--foo", "-1"]) == \
        ["--window", "0:20", "--foo", "-1"]


def test_cli_verify_ok(capsys):
    code = main(["verify", "--family", "A", "--lambda", "-4",
                 "--window", "-10:10"])
    out = capsys.readouterr().out
    assert code == 0
    assert "A:-4: exact-match" in out


def test_cli_verify_mismatch_exit(monkeypatch, capsys):
    fake = Report(case="A:-4", family="A", lambda0=-4, verdict="mismatch",
                  counterexample=(0,))
    monkeypatch.setattr("locind.harness.run_case", lambda c: fake)
    code = main(["verify", "--family", "A", "--lambda", "-4",
                 "--window", "-10:10"])
    out = capsys.readouterr().out
    assert code == 1
    assert "A:-4: mismatch at [0]" in out


def test_cli_bad_usage(capsys):
    assert main(["verify", "--family", "A", "--window", "5:5:5",
                 "--lambda", "-4"]) == 2
    assert main(["verify", "--family", "A", "--lambda", "-4",
                 "--window", "-4:6"]) == 2
    assert main(["verify", "--family", "D", "--lambda", "-2"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert main(["nonsense"]) == 2


def test_cli_induce_localize(capsys):
    assert main(["induce", "--family", "C", "--lambda", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["case"] == "C:1"
    assert set(doc["algebraic"]) == {"j0", "j1"}
    assert doc["algebraic"]["j1"] == [{"weight": [1], "mult": 1}]

    assert main(["localize", "--family", "C", "--lambda", "-3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["geometric"]) == {"s0", "s1"}
    assert doc["geometric"]["s1"] == [{"weight": [1], "mult": 1}]

    assert main(["localize", "--family", "A", "--lambda", "-4",
                 "--window", "-6:6"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["geometric"]["s0"] == \
        [{"weight": [w], "mult": 1} for w in range(-2, 7, 2)]


# one small case per family for the one-sided commands
_SMALL_ARGS = {
    "A": ["--lambda", "-3", "--window", "-6:6"],
    "B": ["--lambda", "1", "--window", "-6:6"],
    "C": ["--lambda", "2"],
    "D": ["--lambda", "-2,-3", "--window", "-3:3"],
}


def _must_not_run(*args, **kwargs):
    raise AssertionError("the other side ran")


@pytest.mark.parametrize("fam", sorted(_SMALL_ARGS))
def test_induce_and_localize_each_run_one_side(fam, monkeypatch, capsys):
    expected = {}
    for cmd in ("induce", "localize"):
        assert main([cmd, "--family", fam] + _SMALL_ARGS[fam]) == 0
        expected[cmd] = capsys.readouterr().out
    for name in ("delta_module", "laurent_module", "cech_cohomology_On"):
        monkeypatch.setattr(harness, name, _must_not_run)
    assert main(["induce", "--family", fam] + _SMALL_ARGS[fam]) == 0
    assert capsys.readouterr().out == expected["induce"]
    monkeypatch.undo()
    monkeypatch.setattr(harness, "build_standard_complex", _must_not_run)
    assert main(["localize", "--family", fam] + _SMALL_ARGS[fam]) == 0
    assert capsys.readouterr().out == expected["localize"]


def test_cli_describe(capsys):
    assert main(["describe", "--family", "B"]) == 0
    out = capsys.readouterr().out
    assert "family B" in out and "B:0:p0" in out


def test_cli_file_outputs(tmp_path, capsys):
    jpath = tmp_path / "out.json"
    cpath = tmp_path / "out.csv"
    code = main(["verify", "--family", "D", "--lambda", "-2,-2",
                 "--window", "-4:4", "--json", str(jpath),
                 "--csv", str(cpath)])
    capsys.readouterr()
    assert code == 0
    docs = json.loads(jpath.read_bytes())
    assert len(docs) == 1 and docs[0]["case"] == "D:-2,-2"
    assert docs[0]["verdict"] == "exact-match"
    rows = cpath.read_text().strip().splitlines()
    assert rows[0] == "case,family,lambda,side,weight,mult"
    assert '"D:-2,-2",D,"-2,-2",a,0 0,1' in rows[1:]
    # the same invocation must reproduce the same bytes
    first = jpath.read_bytes()
    main(["verify", "--family", "D", "--lambda", "-2,-2",
          "--window", "-4:4", "--json", str(jpath)])
    capsys.readouterr()
    assert jpath.read_bytes() == first
