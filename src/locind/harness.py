"""Verification harness and command line interface.

For each built-in symmetric pair the harness runs the algebraic side
(homology of the standard complex of the induced module) and the
geometric side (orbit direct images on the projective line), compares
the resulting weight or type characters exactly, and emits
deterministic machine-readable reports.  A selftest drives the
structural invariants of the underlying engines, including two
deliberately corrupted fixtures that must be caught.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, replace
from functools import partial
from typing import Iterable, Sequence

from .cohind import build_standard_complex, derived_i, derived_p
from .exactla import CompositionNonzero, SparseMatrix
from .gkmod import (Character, Weight, Window, WindowTooSmall, dual_module,
                    lambda_top, one_dim_module, tensor_onedim)
from .hecke import (RgKElt, approx_identity, identity_support, p_deg0_oracle,
                    rgk_mul)
from .liealg import LieAlg, StructureError, pair_by_name
from .locp1 import (cech_cohomology_On, delta_module, jet_associated_module,
                    jet_conformance, laurent_module, twisted_rep)
from .pbw import UElt

__all__ = ["VerificationCase", "Report", "run_case", "selftest",
           "default_cases", "main"]

# Normalization constants fixed for the whole artifact: the induced
# side carries the full top twist of the isotropy quotient and the
# geometric side none, which is the convention under which the four
# family fixtures match on the nose.
LEDGER = {"kl_twist": 0, "canonical_Y": 0, "anticanonical_X": 0}

_FAMILIES = ("A", "B", "C", "D")


def _default_window(family: str) -> Window | None:
    if family in ("A", "B"):
        return Window.segment(-30, 30)
    if family == "D":
        return Window.box((-8, -8), (8, 8))
    return None      # family C runs in the type model, no torus window


@dataclass(frozen=True)
class VerificationCase:
    """One comparison: a pair family, a twist, and a truncation window."""

    family: str
    lambda0: int | tuple[int, int]
    window: Window | None = None
    parity: int | None = None
    margin: int = 0             # PBW depth past the proved cut
    expected: str = "match"     # "match" | "fixture" (recorded degenerate case)

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.margin < 0:
            raise ValueError("margin must not be negative")
        if self.family == "D":
            if not (isinstance(self.lambda0, tuple) and len(self.lambda0) == 2):
                raise ValueError("family D takes a pair of twists")
        elif not isinstance(self.lambda0, int):
            raise ValueError("families A, B, C take a single integer twist")
        if (self.parity is None) == (self.family == "B"):
            raise ValueError("parity is required exactly for family B")
        if self.family == "C" and (self.window is not None or self.margin != 0):
            raise ValueError("family C runs by K type and takes no window or margin")
        if self.window is not None:
            if self.window.rank != (2 if self.family == "D" else 1):
                raise ValueError("window rank must equal the number of twists")
            if any(a != -b for a, b in zip(self.window.lo, self.window.hi)):
                raise ValueError("window must be symmetric about the origin")
        if self.expected not in ("match", "fixture"):
            raise ValueError(f"unknown expectation {self.expected!r}")

    @property
    def case_id(self) -> str:
        lam = (",".join(str(x) for x in self.lambda0)
               if isinstance(self.lambda0, tuple) else str(self.lambda0))
        par = f":p{self.parity}" if self.parity is not None else ""
        return f"{self.family}:{lam}{par}"

    def resolved_window(self) -> Window | None:
        return self.window if self.window is not None else _default_window(self.family)


@dataclass(frozen=True)
class Report:
    """Outcome of one comparison (or one selftest item).

    ``comparisons`` pairs the homological degree s of the geometric side
    with the degree j of the algebraic side and carries both characters;
    ``vanishing`` lists algebraic degrees that must come out zero.
    """

    case: str
    family: str
    lambda0: int | tuple[int, int]
    comparisons: tuple[tuple[int, int, Character, Character], ...] = ()
    vanishing: tuple[tuple[int, Character], ...] = ()
    verdict: str = "exact-match"
    counterexample: Weight | tuple | None = None
    note: str = ""

    @property
    def side_a(self) -> list[tuple]:
        return _merge_entries(c for _, _, c, _ in self.comparisons)

    @property
    def side_b(self) -> list[tuple]:
        return _merge_entries(c for _, _, _, c in self.comparisons)

    def to_json(self) -> dict:
        out = {
            "case": self.case,
            "family": self.family,
            "lambda": (list(self.lambda0) if isinstance(self.lambda0, tuple)
                       else self.lambda0),
            "side_a": [{"weight": list(w), "mult": m} for w, m in self.side_a],
            "side_b": [{"weight": list(w), "mult": m} for w, m in self.side_b],
            "pairs_compared": [{"s": s, "j": j} for s, j, _, _ in self.comparisons],
            "verdict": self.verdict,
            "ledger": dict(LEDGER),
        }
        if self.counterexample is not None:
            out["counterexample"] = list(self.counterexample)
        if self.note:
            out["note"] = self.note
        return out

    def to_json_bytes(self) -> bytes:
        return json.dumps(self.to_json(), sort_keys=True,
                          separators=(",", ":")).encode("ascii")


def _entry_key(w) -> tuple:
    return w if isinstance(w, tuple) else (w,)


def _merge_entries(chars: Iterable[Character]) -> list[tuple]:
    acc: dict[tuple, int] = {}
    for ch in chars:
        for w, m in ch.data.items():
            k = _entry_key(w)
            acc[k] = acc.get(k, 0) + m
    return sorted((k, m) for k, m in acc.items() if m)


def _product_character(a: Character, b: Character) -> Character:
    data = {}
    for (wa,), ma in a.data.items():
        for (wb,), mb in b.data.items():
            data[(wa, wb)] = ma * mb
    return Character("torus-weight", data)


# Module values per family as functions of the twist, and the (geometric
# degree s, algebraic degree j) pairs compared: family C matches H^0 of
# the twisted bundle with algebraic degree 1 and H^1 with degree 0.
_VALUES = {
    "A": lambda lam: (lam, 0),
    "B": lambda lam: (-lam, -lam),
    "C": lambda lam: (lam, 0),
    "D": lambda lam: (lam[0], 0, lam[1], 0),
}
_DEGREES = {"C": ((0, 1), (1, 0))}


def _algebraic(c: VerificationCase) -> tuple[Character, ...]:
    """Homology characters of the case's standard complex, by degree."""
    pair = pair_by_name(c.family)
    v = one_dim_module(pair, _VALUES[c.family](c.lambda0), parity=c.parity)
    return build_standard_complex(pair, v, window=c.resolved_window(),
                                  margin=c.margin).characters


def _geometric(c: VerificationCase) -> tuple[Character, ...]:
    """Characters of the case's geometric side, by degree."""
    win = c.resolved_window()
    if c.family == "A":
        return (delta_module(c.lambda0, win).character(),)
    if c.family == "B":
        return (laurent_module(c.lambda0, c.parity, win).character(),)
    if c.family == "C":
        return cech_cohomology_On(c.lambda0)
    return (_product_character(
        delta_module(c.lambda0[0], Window.segment(win.lo[0], win.hi[0])).character(),
        delta_module(c.lambda0[1], Window.segment(win.lo[1], win.hi[1])).character()),)


def run_case(c: VerificationCase) -> Report:
    """Run both engines for one case and compare characters exactly."""
    alg, geo = _algebraic(c), _geometric(c)
    degrees = _DEGREES.get(c.family, ((0, 0),))
    comparisons = tuple((s, j, alg[j], geo[s]) for s, j in degrees)
    matched = {j for _, j in degrees}
    # every algebraic degree without a geometric partner must vanish
    vanishing = tuple((j, ch) for j, ch in enumerate(alg) if j not in matched)
    verdict, ce = "exact-match", None
    for s, j, a, g in comparisons:
        if a != g:
            verdict, ce = "mismatch", _entry_key(a.first_difference(g))
            break
    if verdict == "exact-match":
        for j, ch in vanishing:
            if not ch.is_zero():
                verdict = "mismatch"
                ce = _entry_key(sorted(ch.data)[0])
                break
    return Report(case=c.case_id, family=c.family, lambda0=c.lambda0,
                  comparisons=comparisons, vanishing=vanishing,
                  verdict=verdict, counterexample=ce,
                  note="recorded degenerate fixture" if c.expected == "fixture" else "")


def default_cases(family: str) -> list[VerificationCase]:
    """The stock twist grid for one family."""
    if family == "A":
        return [VerificationCase("A", lam) for lam in range(-2, -9, -1)]
    if family == "B":
        return [VerificationCase("B", lam, parity=p)
                for lam in (0, 1, 2) for p in (0, 1)]
    if family == "C":
        out = [VerificationCase("C", n) for n in range(0, 6)]
        out.append(VerificationCase("C", -1, expected="fixture"))
        return out
    if family == "D":
        return [VerificationCase("D", (-2, -3)), VerificationCase("D", (-4, -2))]
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# selftest: structural invariants plus corrupted negative controls


def _report(name: str, ok: bool, note: str = "",
            counterexample=None) -> Report:
    return Report(case=name, family="*", lambda0=0,
                  verdict="exact-match" if ok else "mismatch",
                  counterexample=counterexample, note=note)


def _check_associativity() -> Report:
    tried = 0
    for fam in ("A", "D"):
        pair = pair_by_name(fam)
        lie = pair.lie
        gens = [UElt.one(lie), UElt.gen(lie, 0), UElt.gen(lie, lie.dim - 1),
                UElt.gen(lie, 0) * UElt.gen(lie, lie.dim - 1)]
        blocks = [(0,) * pair.k.rank, (2,) + (0,) * (pair.k.rank - 1),
                  (-2,) + (0,) * (pair.k.rank - 1)]
        elts = [RgKElt.block(pair, n, u) for n in blocks for u in gens]
        # each inner product x.y and y.z is formed once, for all its triples
        zs = elts[::2]
        yz = [[rgk_mul(y, z) for z in zs] for y in elts]
        for x in elts[:6]:
            for y, y_zs in zip(elts, yz):
                x_y = rgk_mul(x, y)
                for z, y_z in zip(zs, y_zs):
                    lhs = rgk_mul(x_y, z)
                    rhs = rgk_mul(x, y_z)
                    tried += 1
                    if lhs != rhs:
                        return _report("hecke-associativity", False,
                                       note=f"triple #{tried}")
    return _report("hecke-associativity", True, note=f"{tried} triples")


def _check_approx_identity() -> Report:
    pair = pair_by_name("A")
    lie = pair.lie
    x = RgKElt.block(pair, 2, UElt.gen(lie, "f")).add(
        RgKElt.block(pair, -4, UElt.gen(lie, "e") * UElt.gen(lie, "f")))
    ee = approx_identity(pair, identity_support(x))
    ok = rgk_mul(ee, x) == x and rgk_mul(x, ee) == x
    return _report("approx-identity", ok)


_SMALL = {
    "A": dict(v=((-4, 0), None), window=Window.segment(-10, 10)),
    "B": dict(v=((0, 0), 0), window=Window.segment(-8, 8)),
    "C": dict(v=((1, 0), None)),
    "D": dict(v=((-2, 0, -2, 0), None), window=Window.box((-4, -4), (4, 4))),
}


def _small_complex(fam: str):
    pair = pair_by_name(fam)
    cfg = _SMALL[fam]
    values, par = cfg["v"]
    v = one_dim_module(pair, values, parity=par)
    return build_standard_complex(pair, v, window=cfg.get("window"))


def _check_boundary_squares() -> Report:
    for fam in _FAMILIES:
        cx = _small_complex(fam)
        for key in sorted(cx.blocks):
            blk = cx.blocks[key]
            for d in range(1, blk.top):
                comp = blk.boundary(d).mul(blk.boundary(d + 1))
                if not comp.is_zero():
                    return _report("boundary-squares-zero", False,
                                   counterexample=_entry_key(key),
                                   note=f"family {fam}, degree {d}")
    return _report("boundary-squares-zero", True, note="families A-D")


def _check_brackets() -> Report:
    for lam in (-3, 0, 2):
        for chart in ("z", "w"):
            rep = twisted_rep(lam, chart)   # solver re-checks all brackets
            e, h, f = rep["e"], rep["h"], rep["f"]
            if not (h.commutator(e).sub(e.scale(2)).is_zero()
                    and h.commutator(f).sub(f.scale(-2)).is_zero()
                    and e.commutator(f).sub(h).is_zero()):
                return _report("bracket-homomorphism", False,
                               note=f"lambda {lam}, chart {chart}")
    return _report("bracket-homomorphism", True)


def _check_jets() -> Report:
    va = one_dim_module(pair_by_name("A"), (-2, 0))
    vb = one_dim_module(pair_by_name("B"), (1, 1), parity=0)
    for v, p in ((va, 3), (vb, 2)):
        flags = jet_conformance(jet_associated_module(v, p))
        if not all(flags.values()):
            bad = sorted(k for k, val in flags.items() if not val)
            return _report("jet-conformance", False, note=",".join(bad))
    return _report("jet-conformance", True)


def _check_oracle() -> Report:
    pair = pair_by_name("A")
    win = Window.segment(-12, 12)
    v = one_dim_module(pair, (-4, 0))
    got = derived_p(pair, v, 0, window=win)
    want = p_deg0_oracle(pair, tensor_onedim(v, lambda_top(pair)), window=win)
    ok = got == want
    return _report("oracle-equivalence", ok,
                   counterexample=None if ok else _entry_key(got.first_difference(want)))


def _check_duality() -> Report:
    pair = pair_by_name("A")
    win = Window.segment(-12, 12)
    v = one_dim_module(pair, (-4, 0))
    for j in (0, 1):
        left = derived_i(pair, dual_module(v), j, window=win)
        right = derived_p(pair, v, j, window=win).dual()
        if left != right:
            return _report("duality", False, note=f"degree {j}",
                           counterexample=_entry_key(left.first_difference(right)))
    return _report("duality", True)


def _check_negative_jacobi() -> Report:
    # corrupted structure constant: [e, f] polluted with an f component
    try:
        LieAlg(("e", "h", "f"),
               {(0, 1): (-2, 0, 0), (0, 2): (0, 1, 1), (1, 2): (0, 0, -2)})
    except StructureError as err:
        caught = "Jacobi" in str(err)
        return _report("negative-jacobi", caught, note=str(err))
    return _report("negative-jacobi", False, note="corruption went unnoticed")


def _check_negative_boundary() -> Report:
    # flip one sign in a boundary matrix: the square must become nonzero
    cx = _small_complex("B")
    for key in sorted(cx.blocks):
        blk = cx.blocks[key]
        if len(blk.boundaries) < 2:
            continue
        outer, inner = blk.boundaries[0], blk.boundaries[1]
        for r, c, v in sorted(inner.entries()):
            if all(cc != r for _, cc, _ in outer.entries()):
                continue
            bad = SparseMatrix(inner.rows, inner.cols,
                               [(rr, cc, -vv if (rr, cc) == (r, c) else vv)
                                for rr, cc, vv in inner.entries()])
            if not outer.mul(bad).is_zero():
                return _report("negative-boundary-sign", True,
                               counterexample=_entry_key(key),
                               note="corruption detected")
            return _report("negative-boundary-sign", False,
                           counterexample=_entry_key(key),
                           note="flipped sign slipped through")
    return _report("negative-boundary-sign", False, note="no usable block")


def selftest() -> list[Report]:
    """Structural invariant suite with two corrupted negative controls."""
    return [
        _check_associativity(),
        _check_approx_identity(),
        _check_boundary_squares(),
        _check_brackets(),
        _check_jets(),
        _check_oracle(),
        _check_duality(),
        _check_negative_jacobi(),
        _check_negative_boundary(),
    ]


# ---------------------------------------------------------------------------
# command line


_DESCRIPTIONS = {
    "A": "closed point orbit; point-supported direct image against the\n"
         "degree-zero homology of the standard complex; higher degrees vanish.",
    "B": "open dense orbit of the torus; Laurent sections (with two-point\n"
         "parity) against degree-zero homology; higher degrees vanish.",
    "C": "full sl2 symmetry; the two Cech cohomologies of the n-twisted\n"
         "bundle against homology degrees one and zero, by K type.",
    "D": "product of two closed-point factors; the product of two delta\n"
         "characters against degree-zero homology on a rank-2 window.",
}


def _parse_window(text: str, family: str) -> Window:
    try:
        lo, hi = (int(x) for x in text.split(":"))
    except ValueError as exc:
        raise ValueError(f"bad window {text!r}, expected lo:hi") from exc
    if family == "D":
        return Window.box((lo, lo), (hi, hi))
    return Window.segment(lo, hi)


def _parse_lambda(text: str) -> int | tuple[int, ...]:
    """One number as an int, more as a tuple; ``VerificationCase`` checks
    the count against the family."""
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad twist {text!r}") from exc
    return parts[0] if len(parts) == 1 else parts


def _cases_from_args(args) -> list[VerificationCase]:
    fam = args.family
    window = _parse_window(args.window, fam) if args.window else None
    if args.lam is None:
        cases = [replace(c, window=window, margin=args.margin) for c in default_cases(fam)]
        if args.parity is not None:     # keeps B's cases of that parity, rejects the rest
            cases = [replace(c, parity=args.parity) for c in cases
                     if c.parity in (None, args.parity)]
        return cases
    lam = _parse_lambda(args.lam)
    pars = [args.parity] if args.parity is not None else [0, 1] if fam == "B" else [None]
    return [VerificationCase(fam, lam, window=window, parity=p, margin=args.margin)
            for p in pars]


def _character_json(entries: list[tuple]) -> list[dict]:
    return [{"weight": list(w), "mult": m} for w, m in entries]


def _write_outputs(reports: list[Report], args) -> None:
    if getattr(args, "json", None):
        payload = json.dumps([r.to_json() for r in reports], sort_keys=True,
                             separators=(",", ":")).encode("ascii")
        with open(args.json, "wb") as fh:
            fh.write(payload)
    if getattr(args, "csv", None):
        with open(args.csv, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["case", "family", "lambda", "side", "weight", "mult"])
            for r in reports:
                lam = (",".join(map(str, r.lambda0))
                       if isinstance(r.lambda0, tuple) else r.lambda0)
                for side, entries in (("a", r.side_a), ("b", r.side_b)):
                    for w, m in entries:
                        wr.writerow([r.case, r.family, lam, side,
                                     " ".join(map(str, w)), m])


def _cmd_verify(args) -> int:
    reports = sorted((run_case(c) for c in _cases_from_args(args)),
                     key=lambda r: r.case)
    for r in reports:
        print(f"{r.case}: {r.verdict}" + (f" at {list(r.counterexample)}"
                                          if r.counterexample else ""))
    _write_outputs(reports, args)
    return 0 if all(r.verdict == "exact-match" for r in reports) else 1


def _cmd_one_side(args, side: str, prefix: str, characters) -> int:
    """Print one side's characters of each case, keyed by degree."""
    for c in _cases_from_args(args):
        body = {f"{prefix}{d}": _character_json(_merge_entries([ch]))
                for d, ch in enumerate(characters(c))}
        print(json.dumps({"case": c.case_id, side: body},
                         sort_keys=True, separators=(",", ":")))
    return 0


def _cmd_selftest(args) -> int:
    reports = selftest()
    for r in reports:
        extra = f" ({r.note})" if r.note else ""
        print(f"{r.case}: {r.verdict}{extra}")
    _write_outputs(reports, args)
    return 0 if all(r.verdict == "exact-match" for r in reports) else 1


def _cmd_describe(args) -> int:
    print(f"family {args.family}: {_DESCRIPTIONS[args.family]}")
    for c in default_cases(args.family):
        win = c.resolved_window()
        print(f"  default case {c.case_id}" + (f" window {win}" if win else ""))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="locind",
        description="compare induced-module homology with orbit direct images")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, lam_help):
        p.add_argument("--family", required=True, choices=_FAMILIES)
        p.add_argument("--lambda", dest="lam", default=None, help=lam_help)
        p.add_argument("--parity", type=int, choices=(0, 1), default=None,
                       help="two-point character for family B")
        p.add_argument("--window", default=None,
                       help="truncation lo:hi (per axis for family D)")
        p.add_argument("--margin", type=int, default=0,
                       help="PBW depth past the proved cut (default 0)")

    pv = sub.add_parser("verify", help="run both sides and compare")
    common(pv, "twist; a,b for family D; omit for the default grid")
    pv.add_argument("--json", default=None, help="write merged JSON reports")
    pv.add_argument("--csv", default=None, help="write character table CSV")
    pv.set_defaults(fn=_cmd_verify)

    pi = sub.add_parser("induce", help="algebraic side only")
    common(pi, "twist; a,b for family D; omit for the default grid")
    pi.set_defaults(fn=partial(_cmd_one_side, side="algebraic", prefix="j",
                               characters=_algebraic))

    pl = sub.add_parser("localize", help="geometric side only")
    common(pl, "twist; a,b for family D; omit for the default grid")
    pl.set_defaults(fn=partial(_cmd_one_side, side="geometric", prefix="s",
                               characters=_geometric))

    ps = sub.add_parser("selftest", help="invariant suite with negative controls")
    ps.add_argument("--json", default=None, help="write merged JSON reports")
    ps.add_argument("--csv", default=None)
    ps.set_defaults(fn=_cmd_selftest)

    pd = sub.add_parser("describe", help="describe a family and its defaults")
    pd.add_argument("--family", required=True, choices=_FAMILIES)
    pd.set_defaults(fn=_cmd_describe)
    return ap


def _fuse_dashed_values(argv: list[str]) -> list[str]:
    """Join flag values that start with a dash (e.g. --window -20:20)."""
    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        if (tok in ("--window", "--lambda") and i + 1 < len(argv)
                and argv[i + 1].startswith("-")):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: Sequence[str] | None = None) -> int:
    ap = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = ap.parse_args(_fuse_dashed_values(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (CompositionNonzero, WindowTooSmall, StructureError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)     # a failed internal check
        return 3
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
