"""Convolution-algebra models: torus blocks, sl2 blocks, and the
degree-zero relation chase used as an independent oracle."""

import random
from fractions import Fraction

import pytest

from locind.exactla import ONE, SparseMatrix
from locind.gkmod import Character, HModule, Window
from locind.hecke import (RgKElt, RKElt, UnsupportedK, WindowTooSmall,
                          adjoint_matrices, approx_identity, clebsch_gordan,
                          fn_times_dist, formula_mul_gen, identity_support,
                          invariant_form, p_deg0_oracle,
                          rep_of_uelt, rgk_mul, rk_mul, sl2_embed)
from locind import hecke
from locind.cohind import derived_p
from locind.hecke import _quotient_dim
from locind.gkmod import lambda_top, one_dim_module, tensor_onedim
from locind.harness import default_cases
from locind.liealg import StructureError, Subalg, irrep_matrices, pair_by_name
from locind.pbw import UElt


@pytest.fixture(scope="module")
def pa():
    return pair_by_name("A")


@pytest.fixture(scope="module")
def pd():
    return pair_by_name("D")


# ---------------------------------------------------------------------------
# torus model


def test_block_evaluates_cartan_letters(pa):
    lie = pa.lie
    e, h = UElt.gen(lie, "e"), UElt.gen(lie, "h")
    assert RgKElt.block(pa, 4, h) == RgKElt(pa, {((4,), (0, 0, 0)): 4})
    # a Cartan letter sees the block shifted by whatever sits to its left:
    # e*h evaluates to (n-2)e at block n, h*e to n*e
    assert RgKElt.block(pa, 4, e * h) == RgKElt(pa, {((4,), (1, 0, 0)): 2})
    assert RgKElt.block(pa, 4, h * e) == RgKElt(pa, {((4,), (1, 0, 0)): 4})
    assert RgKElt.block(pa, 2, e).terms == {((2,), (1, 0, 0)): ONE}


def test_block_rejects_foreign_uelt(pa):
    from locind.liealg import sl2
    with pytest.raises(ValueError, match="wrong algebra"):
        RgKElt.block(pa, 0, UElt.gen(sl2(), "e"))


def test_mono_weight(pa):
    x = RgKElt(pa)
    assert x.mono_weight((1, 0, 0)) == (2,)
    assert x.mono_weight((0, 0, 1)) == (-2,)
    assert x.mono_weight((2, 0, 1)) == (2,)


def test_rgk_mul_block_matching(pa):
    lie = pa.lie
    e, f = UElt.gen(lie, "e"), UElt.gen(lie, "f")
    one = UElt.one(lie)
    # e carries adjoint weight +2, so e[4](e) eats the idempotent at 2
    assert rgk_mul(RgKElt.block(pa, 4, e), RgKElt.block(pa, 2, one)) == \
        RgKElt.block(pa, 4, e)
    assert rgk_mul(RgKElt.block(pa, 4, one), RgKElt.block(pa, 4, e)) == \
        RgKElt.block(pa, 4, e)
    assert rgk_mul(RgKElt.block(pa, 0, e), RgKElt.block(pa, 2, one)) == RgKElt(pa)
    assert rgk_mul(RgKElt.block(pa, 2, one), RgKElt.block(pa, 4, e)) == RgKElt(pa)


def test_rgk_mul_straightens_into_the_block(pa):
    lie = pa.lie
    e, f = UElt.gen(lie, "e"), UElt.gen(lie, "f")
    assert rgk_mul(RgKElt.block(pa, 4, e), RgKElt.block(pa, 2, f)) == \
        RgKElt.block(pa, 4, e * f)
    # f.e = ef - h, and h evaluates to 2 at block 2
    got = rgk_mul(RgKElt.block(pa, 2, f), RgKElt.block(pa, 4, e))
    want = RgKElt(pa, {((2,), (1, 0, 1)): 1, ((2,), (0, 0, 0)): -2})
    assert got == want


def _random_rgk(rng, pair, span):
    terms = {}
    nfree = pair.lie.dim
    for _ in range(rng.randint(1, 3)):
        n = tuple(rng.randint(-span, span) for _ in range(pair.k.rank))
        mono = tuple(rng.randint(0, 2) if rng.random() < 0.6 else 0
                     for _ in range(nfree))
        terms[(n, mono)] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return RgKElt(pair, terms)


def test_rgk_mul_associative_random(pa, pd):
    rng = random.Random(20240)
    done = 0
    for pair in (pa, pd):
        for _ in range(60):
            x = _random_rgk(rng, pair, 5)
            y = _random_rgk(rng, pair, 5)
            z = _random_rgk(rng, pair, 5)
            assert rgk_mul(rgk_mul(x, y), z) == rgk_mul(x, rgk_mul(y, z))
            done += 1
    assert done == 120


def test_approx_identity_two_sided(pa, pd):
    rng = random.Random(99)
    for pair in (pa, pd):
        for _ in range(20):
            x = _random_rgk(rng, pair, 4)
            ident = approx_identity(pair, identity_support(x))
            assert rgk_mul(ident, x) == x
            assert rgk_mul(x, ident) == x


def test_identity_support(pa):
    lie = pa.lie
    x = RgKElt.block(pa, 4, UElt.gen(lie, "e"))
    assert identity_support(x) == frozenset({(4,), (2,)})
    y = RgKElt.block(pa, 3, UElt.gen(lie, "f"))
    assert identity_support(y) == frozenset({(3,), (5,)})


def test_rgk_elt_rejects_sl2_pair():
    with pytest.raises(UnsupportedK, match="not a torus"):
        RgKElt(pair_by_name("C"))


# ---------------------------------------------------------------------------
# sl2 model


def test_irrep_matrices_frozen():
    e, h, f = irrep_matrices(2)
    assert e == SparseMatrix.from_rows([[0, 2, 0], [0, 0, 2], [0, 0, 0]])
    assert h == SparseMatrix.from_rows([[2, 0, 0], [0, 0, 0], [0, 0, -2]])
    assert f == SparseMatrix.from_rows([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    with pytest.raises(ValueError):
        irrep_matrices(-1)


def test_irrep_matrices_are_representations():
    for n in range(6):
        e, h, f = irrep_matrices(n)
        assert e.mul(f).sub(f.mul(e)) == h
        assert h.mul(e).sub(e.mul(h)) == e.scale(2)
        assert h.mul(f).sub(f.mul(h)) == f.scale(-2)


def test_rep_of_uelt_casimir():
    from locind.liealg import sl2
    g = sl2()
    e, h, f = (UElt.gen(g, x) for x in "ehf")
    omega = e * f + f * e + (h * h).scale(Fraction(1, 2))
    for n in range(5):
        val = Fraction(n * n + 2 * n, 2)
        assert rep_of_uelt(omega, n) == SparseMatrix.identity(n + 1).scale(val)
    bad = Subalg(g, tuple(g.basis_vector(i) for i in (2, 1, 0))).as_lie(("f", "h", "e"))
    with pytest.raises(UnsupportedK):
        rep_of_uelt(UElt.one(bad), 2)


def test_rk_sl2_blockwise_product():
    from locind.liealg import sl2
    g = sl2()
    e, f = UElt.gen(g, "e"), UElt.gen(g, "f")
    assert rk_mul(sl2_embed(e, [2, 3]), sl2_embed(f, [2])) == \
        sl2_embed(e * f, [2])
    with pytest.raises(ValueError, match="3x3"):
        RKElt({2: SparseMatrix.identity(2)})


def test_invariant_form():
    b, binv = invariant_form()
    assert b.mul(binv) == SparseMatrix.identity(3)
    for ad in adjoint_matrices():
        assert ad.transpose().mul(b).add(b.mul(ad)).is_zero()


def test_clebsch_gordan_exact():
    for r in range(5):
        cg = clebsch_gordan(r)
        want_types = {s for s in (r + 2, r, r - 2) if s >= 0 and (s != r or r >= 1)}
        assert set(cg) == want_types
        ade, adh, adf = adjoint_matrices()
        er, hr, fr = irrep_matrices(r)
        from locind.hecke import _tensor_action
        etot = _tensor_action(ade, er, r)
        ftot = _tensor_action(adf, fr, r)
        total = SparseMatrix.zero(3 * (r + 1), 3 * (r + 1))
        for s, (iota, pr) in cg.items():
            assert pr.mul(iota) == SparseMatrix.identity(s + 1)
            es, _, fs = irrep_matrices(s)
            assert etot.mul(iota) == iota.mul(es)
            assert ftot.mul(iota) == iota.mul(fs)
            total = total.add(iota.mul(pr))
        assert total == SparseMatrix.identity(3 * (r + 1))


def test_fn_times_dist_support():
    blk = SparseMatrix.identity(1)
    out = fn_times_dist(0, 2, blk)
    assert set(out) <= {2}
    for mat in out.values():
        assert mat.rows == 3 and mat.cols == 3
    with pytest.raises(ValueError):
        fn_times_dist(0, 0, SparseMatrix.zero(2, 3))


def test_formula_mul_matches_blockwise():
    from locind.liealg import sl2
    g = sl2()
    rng = random.Random(7)
    gens = [UElt.gen(g, x) for x in "ehf"]
    skew = ((1, 0, 1), (0, 1, 2), (1, 0, 0))
    for m in (1, 2, 3):
        block = SparseMatrix(m + 1, m + 1,
                             [(i, j, Fraction(rng.randint(-2, 2)))
                              for i in range(m + 1) for j in range(m + 1)
                              if rng.random() < 0.6])
        x = RKElt({m: block})
        for i, xi in enumerate(((1, 0, 0), (0, 1, 0), (0, 0, 1))):
            want = rk_mul(sl2_embed(gens[i], [m]), x)
            assert formula_mul_gen(xi, x) == want
            # the long-form product cannot depend on the spanning set
            assert formula_mul_gen(xi, x, basis=skew) == want


# ---------------------------------------------------------------------------
# degree-zero oracle


def _twisted(pair, values, parity=None):
    v = one_dim_module(pair, values, parity=parity)
    return tensor_onedim(v, lambda_top(pair))


def test_oracle_closed_orbit(pa):
    w = _twisted(pa, (-4, 0))
    got = p_deg0_oracle(pa, w, Window.segment(-10, 10))
    assert got == Character("torus-weight", {(k,): 1 for k in range(-2, 11, 2)})
    got2 = p_deg0_oracle(pa, _twisted(pa, (-7, 0)), Window.segment(-10, 10))
    assert got2 == Character("torus-weight", {(k,): 1 for k in range(-5, 11, 2)})


def test_oracle_open_orbit():
    pb = pair_by_name("B")
    w0 = _twisted(pb, (0, 0), parity=0)
    got = p_deg0_oracle(pb, w0, Window.segment(-8, 8))
    assert got == Character("torus-weight",
                            {(k,): 1 for k in range(-8, 9, 2)}, parity=0)
    # scalars shift, parity flips: the character only sees the parity
    w1 = _twisted(pb, (3, 3), parity=1)
    got1 = p_deg0_oracle(pb, w1, Window.segment(-8, 8))
    assert got1 == Character("torus-weight",
                             {(k,): 1 for k in range(-7, 9, 2)}, parity=1)


def test_oracle_full_sl2():
    pc = pair_by_name("C")
    assert p_deg0_oracle(pc, _twisted(pc, (-4, 0))) == Character("sl2-type", {2: 1})
    assert p_deg0_oracle(pc, _twisted(pc, (-2, 0))) == Character("sl2-type", {0: 1})
    assert p_deg0_oracle(pc, _twisted(pc, (1, 0))).is_zero()
    assert p_deg0_oracle(pc, _twisted(pc, (-1, 0))).is_zero()


def test_oracle_full_sl2_chases_only_the_reached_types(monkeypatch):
    # a type no l-weight reaches has no coinvariants: far from zero the
    # one-dimensional twist leaves a single type to chase, not |lambda|
    pc, quotient = pair_by_name("C"), hecke._quotient_dim
    calls = []

    def spy(cols, relations):
        calls.append(len(cols))
        return quotient(cols, relations)

    monkeypatch.setattr(hecke, "_quotient_dim", spy)
    for lam, want in ((-200, {198: 1}), (200, {})):
        calls.clear()
        got = p_deg0_oracle(pc, _twisted(pc, (lam, 0)))
        assert len(calls) == 1
        assert got == Character("sl2-type", want)
        assert got == derived_p(pc, one_dim_module(pc, (lam, 0)), 0)
    # l-weights -2 and -7 reach the types 2, 4, 6 and 7 of 0..7, not 3 or 5
    parts = [_twisted(pc, (lam, 0)) for lam in (-4, -9)]
    acts = tuple(SparseMatrix(2, 2, [(i, i, w.action[g].entry(0, 0))
                                     for i, w in enumerate(parts)])
                 for g in range(pc.halg.dim))
    both = HModule(halg=pc.halg, dim=2, action=acts,
                   l_weights=parts[0].l_weights + parts[1].l_weights)
    calls.clear()
    assert p_deg0_oracle(pc, both) == Character("sl2-type", {2: 1, 7: 1})
    assert len(calls) == 4


def test_oracle_product_pair(pd):
    w = _twisted(pd, (-4, 0, -3, 0))
    win = Window.box((-6, -6), (6, 6))
    got = p_deg0_oracle(pd, w, win)
    want = {(a, b): 1 for a in range(-2, 7, 2) for b in range(-1, 7, 2)}
    assert got == Character("torus-weight", want)


def test_oracle_guards(pa, pd, monkeypatch):
    w = _twisted(pa, (-4, 0))
    with pytest.raises(ValueError, match="window"):
        p_deg0_oracle(pa, w)
    # one below the proved cut wherever it is positive, the chase must
    # refuse loudly on every default A and D case: the cut is sharp
    gap = HModule.weight_gap
    monkeypatch.setattr(HModule, "weight_gap", lambda mod, n: max(gap(mod, n) - 1, 0))
    with pytest.raises(WindowTooSmall) as err:
        p_deg0_oracle(pa, w, Window.segment(-10, 10))
    assert str(err.value).startswith(
        "weight (0,): multiplicity 0 at cut 0 but 1 at cut 2")
    values = {"A": lambda lam: (lam, 0), "D": lambda lam: (lam[0], 0, lam[1], 0)}
    for fam, pair in (("A", pa), ("D", pd)):
        for c in default_cases(fam):
            with pytest.raises(WindowTooSmall):
                p_deg0_oracle(pair, _twisted(pair, values[fam](c.lambda0)),
                              c.resolved_window())


def test_oracle_block_cuts_match_the_window_wide_cut(pa, pd, monkeypatch):
    gap, quotient = HModule.weight_gap, hecke._quotient_dim
    columns = []

    def spy(cols, relations):
        columns.append(len(cols))
        return quotient(cols, relations)

    monkeypatch.setattr(hecke, "_quotient_dim", spy)
    cases = [(pa, (-5, 0), Window.segment(-12, 12)),
             (pd, (-4, 0, -2, 0), Window.box((-4, -4), (4, 4)))]
    for pair, values, win in cases:
        w = _twisted(pair, values)
        columns.clear()
        own = p_deg0_oracle(pair, w, win)
        own_cols = sum(columns)
        columns.clear()
        with monkeypatch.context() as m:
            # every block cut at the window's largest proved cut
            m.setattr(HModule, "weight_gap", lambda mod, n, win=win:
                      max(gap(mod, p) for p in win.points()))
            wide = p_deg0_oracle(pair, w, win)
        assert not own.is_zero()
        assert own == wide
        assert own_cols < sum(columns)


def test_quotient_dim_rejects_relations_that_leave_the_cut():
    cols = ["a", "b", "c"]
    assert _quotient_dim(cols, []) == 3
    assert _quotient_dim(cols, [[("a", ONE), ("b", -ONE)], [("b", 2), ("b", -2)]]) == 2
    assert _quotient_dim(cols, (rel for rel in [[("c", ONE)], [("a", ONE), ("c", ONE)]])) == 1
    # "z" is not a generator: the chases never list it, so naming it is a fault
    with pytest.raises(StructureError, match="'z' left the cut"):
        _quotient_dim(cols, [[("a", ONE), ("z", ONE)]])
