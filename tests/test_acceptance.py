"""Acceptance gate: ten exact criteria, one pass/fail line each.

Every comparison is exact rational identity; there is no tolerance
anywhere.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines alongside the test outcomes.
"""

import random
import time
from fractions import Fraction

from locind.cohind import build_standard_complex, derived_i, derived_p
from locind.exactla import SparseMatrix
from locind.gkmod import (Character, Window, dual_module, lambda_top,
                          one_dim_module, tensor_onedim)
from locind.hecke import (RgKElt, RKElt, approx_identity, formula_mul_gen,
                          identity_support, p_deg0_oracle, rgk_mul, rk_mul,
                          sl2_embed)
from locind.liealg import pair_by_name
from locind.locp1 import (cech_cohomology_On, delta_module,
                          jet_associated_module, jet_conformance,
                          laurent_module, twisted_rep)
from locind.pbw import UElt

WIN30 = Window.segment(-30, 30)


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_closed_orbit_grid():
    pair = pair_by_name("A")
    ok, slowest = True, 0.0
    for lam in range(-2, -9, -1):
        t0 = time.monotonic()
        v = one_dim_module(pair, (lam, 0))
        cx = build_standard_complex(pair, v, window=WIN30)
        geo = delta_module(lam, WIN30).character()
        ok &= cx.homology_character(0) == geo
        ok &= all(cx.homology_character(s).is_zero()
                  for s in range(1, cx.top_degree + 1))
        slowest = max(slowest, time.monotonic() - t0)
    ok &= slowest < 5.0
    _verdict(1, ok, f"family A grid -2..-8 on [-30,30], "
                    f"slowest case {slowest:.2f}s")


def test_criterion_02_open_orbit_grid():
    pair = pair_by_name("B")
    ok = True
    for lam in (0, 1, 2):
        for par in (0, 1):
            v = one_dim_module(pair, (-lam, -lam), parity=par)
            cx = build_standard_complex(pair, v, window=WIN30)
            geo = laurent_module(lam, par, WIN30).character()
            ok &= cx.homology_character(0) == geo
            ok &= all(cx.homology_character(s).is_zero()
                      for s in range(1, cx.top_degree + 1))
    _verdict(2, ok, "family B grid {0,1,2}x{0,1} with parity on [-30,30]")


def test_criterion_03_twist_cohomology_grid():
    pair = pair_by_name("C")
    ok = True
    for n in range(6):
        h0, h1 = cech_cohomology_On(n)
        cx = build_standard_complex(pair, one_dim_module(pair, (n, 0)))
        ok &= cx.homology_character(1) == h0
        ok &= cx.homology_character(0) == h1
        ok &= h0.total_dim() == n + 1 and h1.is_zero()
        g0, g1 = cech_cohomology_On(-n - 2)
        cxr = build_standard_complex(pair, one_dim_module(pair, (-n - 2, 0)))
        ok &= cxr.homology_character(0) == g1
        ok &= cxr.homology_character(1) == g0
        ok &= g1.total_dim() == n + 1 and g0.is_zero()
    w0, w1 = cech_cohomology_On(-1)
    cxw = build_standard_complex(pair, one_dim_module(pair, (-1, 0)))
    ok &= (w0.is_zero() and w1.is_zero()
           and cxw.homology_character(0).is_zero()
           and cxw.homology_character(1).is_zero())
    _verdict(3, ok, "family C twists 0..5 and mirrors, wall case vanishing")


def test_criterion_04_oracle_equivalence():
    ok = True
    for fam, grid, winof in (
        ("A", [((lam, 0), None) for lam in range(-2, -9, -1)],
         lambda _: WIN30),
        ("B", [((-lam, -lam), p) for lam in (0, 1, 2) for p in (0, 1)],
         lambda _: WIN30),
        ("D", [((-2, 0, -3, 0), None), ((-4, 0, -2, 0), None)],
         lambda _: Window.box((-8, -8), (8, 8))),
    ):
        pair = pair_by_name(fam)
        for values, par in grid:
            v = one_dim_module(pair, values, parity=par)
            w = tensor_onedim(v, lambda_top(pair))
            win = winof(values)
            got = derived_p(pair, v, 0, window=win)
            ok &= got == p_deg0_oracle(pair, w, win)
    pair = pair_by_name("C")
    for n in range(-8, 6):
        v = one_dim_module(pair, (n, 0))
        w = tensor_onedim(v, lambda_top(pair))
        ok &= derived_p(pair, v, 0) == p_deg0_oracle(pair, w)
    _verdict(4, ok, "resolution homology == relation chase, all families, "
                    "full twist grids")


def test_criterion_05_boundary_squares_zero():
    ok, blocks = True, 0
    for fam, values, par, kw in (
        ("A", (-4, 0), None, dict(window=Window.segment(-12, 12))),
        ("B", (0, 0), 0, dict(window=Window.segment(-12, 12))),
        ("C", (1, 0), None, {}),
        ("D", (-2, 0, -3, 0), None, dict(window=Window.box((-6, -6), (6, 6)))),
    ):
        pair = pair_by_name(fam)
        cx = build_standard_complex(pair, one_dim_module(pair, values, parity=par),
                                    **kw)
        for blk in cx.blocks.values():
            blocks += 1
            for d in range(1, blk.top):
                ok &= blk.boundary(d).mul(blk.boundary(d + 1)).is_zero()
    _verdict(5, ok, f"boundary composite vanishes on all {blocks} blocks "
                    "(families A-D, two-step wedges in B and D)")


def _random_rgk(rng, pair, span):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        n = tuple(rng.randint(-span, span) for _ in range(pair.k.rank))
        mono = tuple(rng.randint(0, 2) if rng.random() < 0.6 else 0
                     for _ in range(pair.lie.dim))
        terms[(n, mono)] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return RgKElt(pair, terms)


def test_criterion_06_hecke_suite():
    rng = random.Random(424242)
    ok, triples = True, 0
    for fam, count in (("A", 70), ("D", 35)):
        pair = pair_by_name(fam)
        for _ in range(count):
            x, y, z = (_random_rgk(rng, pair, 5) for _ in range(3))
            ok &= rgk_mul(rgk_mul(x, y), z) == rgk_mul(x, rgk_mul(y, z))
            triples += 1
        for _ in range(10):
            x = _random_rgk(rng, pair, 4)
            ee = approx_identity(pair, identity_support(x))
            ok &= rgk_mul(ee, x) == x and rgk_mul(x, ee) == x
    from locind.liealg import sl2
    g = sl2()
    gens = [UElt.gen(g, lab) for lab in "ehf"]
    bases = (None, ((1, 0, 1), (0, 1, 2), (1, 0, 0)),
             ((0, 0, 1), (0, 1, 0), (1, 0, 0)))
    for m in (1, 2, 3):
        block = SparseMatrix(m + 1, m + 1,
                             [(i, j, Fraction(rng.randint(-2, 2)))
                              for i in range(m + 1) for j in range(m + 1)
                              if rng.random() < 0.7])
        x = RKElt({m: block})
        for i, xi in enumerate(((1, 0, 0), (0, 1, 0), (0, 0, 1))):
            want = rk_mul(sl2_embed(gens[i], [m]), x)
            ok &= all(formula_mul_gen(xi, x, basis=b) == want for b in bases)
    ok &= triples >= 100
    _verdict(6, ok, f"associativity on {triples} random triples, two-sided "
                    "unit, product independent of the spanning basis")


def test_criterion_07_twisted_operator_suite():
    ok = True
    for lam in range(-10, 11):
        for chart in ("z", "w"):
            rep = twisted_rep(lam, chart)
            e, h, f = rep["e"], rep["h"], rep["f"]
            ok &= h.commutator(e).sub(e.scale(2)).is_zero()
            ok &= h.commutator(f).sub(f.scale(-2)).is_zero()
            ok &= e.commutator(f).sub(h).is_zero()
    _verdict(7, ok, "bracket homomorphism for all basis pairs, both charts, "
                    "twists -10..10")


def test_criterion_08_jet_conformance():
    ok = True
    pa, pb = pair_by_name("A"), pair_by_name("B")
    for lam in (-4, -1, 0, 3):
        v = one_dim_module(pa, (lam, 0))
        for p in range(1, 5):
            ok &= all(jet_conformance(jet_associated_module(v, p)).values())
    for values, par in (((0, 0), 0), ((-2, -2), 1), ((3, 3), 0)):
        v = one_dim_module(pb, values, parity=par)
        for p in range(1, 5):
            ok &= all(jet_conformance(jet_associated_module(v, p)).values())
    _verdict(8, ok, "jet module conditions (1)-(5) for p <= 4 on "
                    "families A and B")


def test_criterion_09_duality():
    ok = True
    win = Window.segment(-12, 12)
    pa, pb = pair_by_name("A"), pair_by_name("B")
    for lam in (-4, -6):
        v = one_dim_module(pa, (lam, 0))
        dv = dual_module(v)
        for j in (0, 1):
            ok &= derived_i(pa, dv, j, window=win) == \
                derived_p(pa, v, j, window=win).dual()
    for values, par in (((0, 0), 0), ((-1, -1), 1)):
        v = one_dim_module(pb, values, parity=par)
        dv = dual_module(v)
        for j in (0, 1):
            ok &= derived_i(pb, dv, j, window=win) == \
                derived_p(pb, v, j, window=win).dual()
    _verdict(9, ok, "co-induced duals match weight-negated induced "
                    "characters on A and B, degrees 0 and 1")


def test_criterion_10_stability():
    ok = True
    win12 = Window.segment(-12, 12)
    pa, pb, pd = pair_by_name("A"), pair_by_name("B"), pair_by_name("D")
    # five levels past the proved cut cannot move any character
    va = one_dim_module(pa, (-4, 0))
    ok &= derived_p(pa, va, 0, win12, margin=5) == derived_p(pa, va, 0, win12)
    vb = one_dim_module(pb, (-1, -1), parity=1)
    ok &= derived_p(pb, vb, 0, win12, margin=5) == derived_p(pb, vb, 0, win12)
    vd = one_dim_module(pd, (-2, 0, -2, 0))
    win_d = Window.box((-6, -6), (6, 6))
    ok &= derived_p(pd, vd, 0, win_d, margin=5) == derived_p(pd, vd, 0, win_d)
    # enlarging the window only extends, never rewrites
    big = derived_p(pa, va, 0, Window.segment(-14, 14))
    ok &= big.restrict(win12) == derived_p(pa, va, 0, win12)
    # chart swap is the weight-negated mirror
    for lam in (-4, -7):
        ok &= delta_module(lam, WIN30, chart="w").character() == \
            delta_module(lam, WIN30).character().dual()
    for lam, par in ((0, 0), (2, 1)):
        ok &= laurent_module(lam, par, win12, chart="w").character() == \
            laurent_module(lam, par, win12).character().dual()
    _verdict(10, ok, "depth past the proved cut, window growth, and chart "
                     "swap leave every reported character fixed")
