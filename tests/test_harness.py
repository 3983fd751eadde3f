"""Verification harness: case validation, report schema, selftest suite,
and the command line driver."""

import gc
import json
import random
from collections import Counter
from types import SimpleNamespace

import pytest

from locind import harness
from locind.cohind import ChainBlock
from locind.exactla import CompositionNonzero, SparseMatrix, kernel_basis, rank
from locind.gkmod import Character, Window, WindowTooSmall
from locind.harness import (LEDGER, Report, VerificationCase, default_cases,
                            main, run_case, selftest)
from locind.harness import _fuse_dashed_values
from locind.liealg import StructureError, pair_by_name


# ---------------------------------------------------------------------------
# case validation


def test_case_validation():
    with pytest.raises(ValueError, match="unknown family"):
        VerificationCase("E", 0)
    with pytest.raises(ValueError, match="margin"):
        VerificationCase("A", -4, margin=-1)
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
    with pytest.raises(ValueError, match="family C"):
        VerificationCase("C", 3, window=Window.segment(-2, 2))
    with pytest.raises(ValueError, match="family C"):
        VerificationCase("C", 3, margin=9)
    with pytest.raises(ValueError, match="window rank"):
        VerificationCase("D", (-2, -3), window=Window.segment(-4, 4))
    with pytest.raises(ValueError, match="window rank"):
        VerificationCase("A", -4, window=Window.box((-4, -4), (4, 4)))


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


def test_run_case_nonzero_unmatched_degree_is_a_mismatch(monkeypatch):
    # degree 1 of family A has no geometric partner, so it must vanish
    case = VerificationCase("A", -4, window=Window.segment(-10, 10))
    h0 = harness._algebraic(case)[0]
    h1 = Character("torus-weight", {(6,): 1, (-2,): 3, (4,): 2})
    monkeypatch.setattr(harness, "_algebraic", lambda c: (h0, h1))
    r = run_case(case)
    assert r.side_a == r.side_b
    assert r.verdict == "mismatch"
    assert r.counterexample == (-2,)


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


@pytest.mark.parametrize("family, lam, window", [
    ("A", -20, Window.segment(-4, 4)),
    ("A", -40, Window.segment(-4, 4)),
    ("D", (-20, -2), Window.box((-4, -4), (4, 4))),
], ids=["A:-20", "A:-40", "D:-20,-2"])
def test_run_case_twist_far_below_the_window(family, lam, window):
    # the delta ladder starts far below the window and must still be
    # followed all the way up to its far edge
    assert run_case(VerificationCase(family, lam, window=window)).verdict == \
        "exact-match"


def test_family_c_is_a_difference_of_family_a():
    # H_1 - H_0 of C at twist n, spread from K types to weights, equals
    # H_0(A, -n-2) - H_0(A, n) on a window holding every weight of it,
    # with no shift: the type model against the torus-block engine
    win = Window.segment(-12, 12)

    def h0_a(lam):
        return harness._algebraic(VerificationCase("A", lam, window=win))[0].data

    for n in range(-8, 9):
        c0, c1 = harness._algebraic(VerificationCase("C", n))
        spread = {}
        for ch, sign in ((c1, 1), (c0, -1)):
            for m, mult in ch.data.items():
                for k in range(-m, m + 1, 2):
                    spread[(k,)] = spread.get((k,), 0) + sign * mult
        diff = dict(h0_a(-n - 2))
        for w, mult in h0_a(n).items():
            diff[w] = diff.get(w, 0) - mult
        spread = {w: mult for w, mult in spread.items() if mult}
        assert spread == {w: mult for w, mult in diff.items() if mult}, n
        assert bool(spread) == (n != -1), n


def test_family_b_is_the_orbit_stratification_of_a_and_c():
    # the local-cohomology sequence of O(lam) along {0, inf}: Laurent =
    # delta_0 + delta_inf + H^0 - H^1, so H_0(B, lam, p = lam mod 2)
    # equals H_0(A, lam), plus its mirror, plus T(H_1(C)) - T(H_0(C)),
    # T spreading a K type m over the weights -m, -m + 2, ..., m: the
    # parity model against the torus-block and type models
    win = Window.segment(-20, 20)
    for lam in range(-12, 13):
        want = Counter()
        for w, mult in harness._algebraic(VerificationCase("A", lam, window=win))[0].data.items():
            want[w] += mult
            want[(-w[0],)] += mult
        c0, c1 = harness._algebraic(VerificationCase("C", lam))
        for ch, sign in ((c1, 1), (c0, -1)):
            for m, mult in ch.data.items():
                for k in range(-m, m + 1, 2):
                    want[(k,)] += sign * mult
        b = VerificationCase("B", lam, window=win, parity=lam % 2)
        assert harness._algebraic(b)[0].data == {w: m for w, m in want.items() if m}, lam


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


def test_associativity_check_reports_a_non_associative_triple(monkeypatch):
    real, calls = harness.rgk_mul, []

    def counted(a, b):
        calls.append(None)
        return real(a, b)

    monkeypatch.setattr(harness, "rgk_mul", counted)
    assert harness._check_associativity().note == "864 triples"
    # two outer products per triple; each inner x.y and y.z formed once
    last = len(calls)
    assert last == 2 * 864 + 2 * 144
    calls.clear()

    def skewed(a, b):
        # the last product is x.(y.z) of the last triple: only it is off
        out = counted(a, b)
        return out.add(a) if len(calls) == last else out

    monkeypatch.setattr(harness, "rgk_mul", skewed)
    rep = harness._check_associativity()
    assert rep.verdict == "mismatch" and rep.note == "triple #864"


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


@pytest.mark.parametrize("fam", ["A", "B", "C", "D"])
def test_integral_values_are_ints(fam):
    # every structure constant and boundary entry of the four families is
    # an integer, and is carried as an int, not as a Fraction
    cx = harness._small_complex(fam)
    for blk in cx.blocks.values():
        for b in blk.boundaries:
            assert all(type(v) is int for _, _, v in b.entries())
    pair = pair_by_name(fam)
    for lie in (pair.lie, pair.halg):
        assert all(type(c) is int for v in lie._full.values() for c in v)
    for x in pair.l_basis + pair.hl_basis:
        assert all(type(c) is int for c in pair.h.coords(x))


def test_runs_leave_no_reference_cycles():
    # what a cycle holds lives until the collector happens to run, so peak
    # memory would depend on its timing: a run must free all it made
    runs = [(c.case_id, lambda c=c: run_case(c))
            for c in (default_cases(fam)[0] for fam in "ABCD")]
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for name, run in runs + [("selftest", selftest)]:
            run()
            assert gc.collect() == 0, name
    finally:
        if enabled:
            gc.enable()


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


@pytest.mark.parametrize("fam, lam, msg", [
    ("D", "1", "pair of twists"),
    ("D", "1,2,3", "pair of twists"),
    ("A", "1,2", "single integer twist"),
])
def test_cli_twist_count_is_checked_by_the_case(fam, lam, msg, capsys):
    assert main(["verify", "--family", fam, "--lambda", lam]) == 2
    out = capsys.readouterr()
    assert out.out == "" and msg in out.err


@pytest.mark.parametrize("err", [
    CompositionNonzero("d∘d is not zero"), WindowTooSmall("unstable at two depths"),
    StructureError("boundary image left the block basis"),
    ArithmeticError("twist constraints are inconsistent"),
], ids=lambda err: type(err).__name__)
def test_cli_internal_check_failure_exit(err, monkeypatch, capsys):
    # a failed internal check is a defect: exit 3, not the mismatch or usage code
    def fail(case):
        raise err
    monkeypatch.setattr(harness, "run_case", fail)
    assert main(["verify", "--family", "A", "--lambda", "-4"]) == 3
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {err}\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--family", "C", "--lambda", "3", "--window", "-2:2"],
    ["verify", "--family", "C", "--lambda", "3", "--margin", "9"],
    ["verify", "--family", "C", "--window", "-2:2"],
    ["verify", "--family", "C", "--margin", "9"],
    ["induce", "--family", "C", "--lambda", "3", "--window", "-2:2"],
    ["verify", "--family", "A", "--lambda", "-4", "--parity", "1"],
    ["verify", "--family", "A", "--parity", "1"],
    ["verify", "--family", "C", "--lambda", "3", "--parity", "1"],
    ["verify", "--family", "C", "--parity", "1"],
    ["verify", "--family", "D", "--lambda", "-2,-3", "--parity", "1"],
    ["localize", "--family", "D", "--parity", "1"],
])
def test_cli_flag_the_family_does_not_take(argv, capsys):
    assert main(argv) == 2
    out = capsys.readouterr()
    assert "error:" in out.err and out.out == ""


def test_cli_parity_selects_family_b_cases(capsys):
    assert main(["verify", "--family", "B", "--lambda", "1", "--parity", "1",
                 "--window", "-6:6"]) == 0
    assert capsys.readouterr().out == "B:1:p1: exact-match\n"


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


def test_cli_unwritable_output_is_an_error_not_a_mismatch(tmp_path, capsys):
    missing = tmp_path / "missing"
    for flag in ("--json", "--csv"):
        code = main(["verify", "--family", "A", "--lambda", "-3",
                     flag, str(missing / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
    assert not missing.exists()
