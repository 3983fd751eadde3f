"""Localization side: chart operators, the solved twisted action, delta
and Laurent section models, two-chart cohomology of the twists, and the
jet truncations along the closed orbit."""

from fractions import Fraction

import pytest

from locind import locp1
from locind.exactla import ONE, ZERO, SparseMatrix
from locind.gkmod import Character, HModule, Window, one_dim_module
from locind.harness import main
from locind.liealg import pair_by_name
from locind.locp1 import (ChartOp, cech_cohomology_On, delta_module,
                          jet_associated_module, jet_conformance,
                          laurent_module, twisted_rep, vector_field)


def _apply(pm, name, w, c=ONE):
    """(target weight, image scalar) of the named operator on c times the
    power of weight w."""
    shift, scalars = pm.ops[name]
    return w + shift, scalars.get(w, ZERO) * c


# ---------------------------------------------------------------------------
# chart operators


def test_chartop_commutation():
    z = ChartOp.mult((ZERO, ONE), "z")
    d = ChartOp("z", {(1, 0): ONE})
    assert d.mul(z).sub(z.mul(d)).terms == {(0, 0): ONE}  # [d, z] = 1
    assert z.mul(z).terms == {(0, 2): ONE}
    assert d.mul(d).terms == {(2, 0): ONE}
    # d^2 z^2 = z^2 d^2 + 4 z d + 2
    assert d.mul(d).mul(z.mul(z)).terms == {(2, 2): 1, (1, 1): 4, (0, 0): 2}


def _on_power(op, a2):
    """{doubled exponent of the image: coefficient} of op on the power of
    doubled exponent a2, through its per-shift polynomials."""
    return {a2 + s2: v for s2, poly in op.shift_polys().items()
            if (v := locp1.power_scalar(poly, a2))}


def test_chartop_apply_exp():
    # exponents go in and come out doubled: z^3 is 6, z^(1/2) is 1
    d = ChartOp("z", {(1, 0): ONE})
    assert _on_power(d, 6) == {4: 3}
    assert _on_power(d, 1) == {-1: Fraction(1, 2)}
    z = ChartOp.mult((ZERO, ONE), "z")
    assert _on_power(z, -2) == {0: ONE}
    # second order: d^2 z^(-1/2) = 3/4 z^(-5/2), and d^2 z^(3/2) = 3/4 z^(-1/2)
    d2 = ChartOp("z", {(2, 0): ONE})
    assert _on_power(d2, -1) == {-5: Fraction(3, 4)}
    assert _on_power(d2, 3) == {-1: Fraction(3, 4)}
    assert _on_power(d2, 2) == {} and _on_power(d2, 0) == {}
    for out in (_on_power(d, 6), _on_power(z, -2), _on_power(d2, 4)):
        assert all(type(e) is int and type(c) is int for e, c in out.items())


def test_shift_polynomials_are_integral_over_one_denominator():
    # h on the z chart at lambda0 = 3 is 3 - 2 z d: one shift, (6 - 2 a2)/2
    h = twisted_rep(3, "z")["h"]
    assert h.shift_polys() == {0: ((-2, 6), 2)}
    # 1/3 z d^2 - 1/2 d: shift -2, (2 a2^2 - 10 a2)/24, with 24 = 2^2 lcm(3, 2)
    op = ChartOp("z", {(2, 1): Fraction(1, 3), (1, 0): Fraction(-1, 2)})
    assert op.shift_polys() == {-2: ((2, -10, 0), 24)}
    assert _on_power(op, 7) == {5: Fraction(7, 6)}
    assert all(type(c) is int for poly, den in op.shift_polys().values()
               for c in (*poly, den))


def test_chartop_chart_mismatch():
    with pytest.raises(ValueError):
        ChartOp("z", {(1, 0): ONE}).mul(ChartOp("w", {(1, 0): ONE}))


def test_vector_fields_bracket_homomorphism():
    for chart in ("z", "w"):
        e, h, f = (vector_field(x, chart) for x in ("e", "h", "f"))
        assert h.commutator(e).sub(e.scale(2)).is_zero()
        assert h.commutator(f).sub(f.scale(-2)).is_zero()
        assert e.commutator(f).sub(h).is_zero()


# ---------------------------------------------------------------------------
# the twisted action


def test_twisted_rep_closed_forms():
    for lam in range(-10, 11):
        repz = twisted_rep(lam, "z")
        assert repz["e"].terms == {(1, 0): -1}
        assert repz["h"].terms == ({(0, 0): lam, (1, 1): -2} if lam else {(1, 1): -2})
        assert repz["f"].terms == ({(0, 1): -lam, (1, 2): 1} if lam else {(1, 2): 1})
        repw = twisted_rep(lam, "w")
        assert repw["f"].terms == {(1, 0): -1}
        assert repw["e"].terms == ({(0, 1): -lam, (1, 2): 1} if lam else {(1, 2): 1})


def test_twisted_rep_brackets_and_casimir():
    for lam in (-7, -1, 0, 2, 9):
        for chart in ("z", "w"):
            rep = twisted_rep(lam, chart)
            e, h, f = rep["e"], rep["h"], rep["f"]
            assert h.commutator(e).sub(e.scale(2)).is_zero()
            assert h.commutator(f).sub(f.scale(-2)).is_zero()
            assert e.commutator(f).sub(h).is_zero()
            omega = e.mul(f).add(f.mul(e)).add(h.mul(h).scale(Fraction(1, 2)))
            assert omega == ChartOp.mult((Fraction(lam * lam + 2 * lam, 2),), chart)


@pytest.fixture
def fresh_chart_cache():
    """Each chart is solved anew, and nothing a test leaves cached leaks out."""
    locp1._unit_action.cache_clear()
    yield
    locp1._unit_action.cache_clear()


def test_twisted_rep_checks_brackets_on_every_call(fresh_chart_cache, monkeypatch):
    alg, fields, unit = locp1._unit_action("z")
    assert twisted_rep(3, "z")["h"].terms == {(0, 0): 3, (1, 1): -2}
    # h's constant term off by one: [e, f] = h fails for every nonzero twist
    bad = {**unit, "h": unit["h"].add(ChartOp.mult((ONE,), "z"))}
    monkeypatch.setattr(locp1, "_unit_action", lambda chart: (alg, fields, bad))
    with pytest.raises(ArithmeticError, match="bracket check"):
        twisted_rep(3, "z")


def test_each_chart_is_solved_once_per_process(fresh_chart_cache, monkeypatch, capsys):
    calls = []
    solve = locp1.solve

    def counting_solve(mat, rhs):
        calls.append(mat.rows)
        return solve(mat, rhs)

    monkeypatch.setattr(locp1, "solve", counting_solve)
    assert main(["verify", "--family", "D"]) == 0
    assert main(["verify", "--family", "D"]) == 0
    capsys.readouterr()
    assert 1 <= len(calls) == locp1._unit_action.cache_info().currsize <= 2


# ---------------------------------------------------------------------------
# delta sections at the closed point


def test_delta_module_weights_and_relations():
    lam = -4
    win = Window.segment(-30, 30)
    dm = delta_module(lam, win)
    assert tuple(dm.weights) == tuple(range(lam + 2, 31, 2))
    # f kills the lowest weight; f after e acts on the n-th weight space
    # by a scalar, whatever basis vector spans it
    assert lam + 2 not in dm.ops["f"][1]
    for n in range(5):
        w = lam + 2 + 2 * n
        tw, c = _apply(dm, "e", w)
        assert tw == w + 2
        tw, c = _apply(dm, "f", tw, c)
        assert tw == w and c == -(n + 1) * (n + 2 + lam)


def test_delta_is_laurent_modulo_regular():
    win = Window.segment(-12, 12)
    for lam in (-4, -1, 0, 3):
        for chart in ("z", "w"):
            dm = delta_module(lam, win, chart=chart)
            lm = laurent_module(lam, lam % 2, win, chart=chart)
            assert dm.weights and set(dm.weights) < set(lm.weights)
            for name, (shift, scalars) in dm.ops.items():
                want = {w: c for w, c in lm.ops[name][1].items()
                        if w in dm.weights and w + shift in dm.weights}
                assert lm.ops[name][0] == shift and scalars == want, (lam, chart, name)


def test_delta_module_mirror_chart():
    lam = -4
    win = Window.segment(-30, 30)
    mw = delta_module(lam, win, chart="w")
    # the opposite chart supports the weight-negated ladder
    assert tuple(mw.weights) == tuple(range(-30, -lam - 1, 2))


@pytest.mark.parametrize("name, message", [
    ("e", "operator 'e' is not weight-homogeneous"),
    ("h", "Cartan action disagrees with the exponent"),
])
def test_power_module_guards(monkeypatch, name, message):
    # a constant term added to e keeps each power's exponent, off e's
    # shift; added to h, it acts on each power by its weight plus one
    real = locp1.twisted_rep

    def skewed(lambda0, chart="z"):
        rho = real(lambda0, chart)
        return {**rho, name: rho[name].add(ChartOp.mult((ONE,), chart))}

    monkeypatch.setattr(locp1, "twisted_rep", skewed)
    win = Window.segment(-12, 12)
    for build in (lambda: delta_module(-4, win), lambda: laurent_module(-4, 0, win),
                  lambda: laurent_module(3, 0, win, chart="w")):
        with pytest.raises(ArithmeticError, match=message):
            build()


@pytest.mark.parametrize("name, term, message", [
    ("e", (2, 3), "operator 'e' is not weight-homogeneous"),
    ("h", (2, 2), "Cartan action disagrees with the exponent"),
])
def test_power_module_guards_hold_off_the_window(monkeypatch, name, term, message):
    # z^3 d^2 added to e, or z^2 d^2 added to h, acts by zero on the
    # powers 1 and z of the 2-jets, so no scalar there shows it; the
    # guards compare polynomials, which hold at every exponent
    real = locp1.twisted_rep

    def skewed(lambda0, chart="z"):
        rho = real(lambda0, chart)
        return {**rho, name: rho[name].add(ChartOp(chart, {term: ONE}))}

    monkeypatch.setattr(locp1, "twisted_rep", skewed)
    with pytest.raises(ArithmeticError, match=message):
        jet_associated_module(one_dim_module(pair_by_name("A"), (-4, 0)), 2)


def test_delta_module_twist_far_below_the_window():
    # the ladder starts at -18, far below the window, and still fills it
    win = Window.segment(-4, 4)
    z = delta_module(-20, win).character()
    assert z == Character("torus-weight", {(w,): 1 for w in range(-4, 5, 2)})
    assert delta_module(-20, win, chart="w").character() == z.dual()


# ---------------------------------------------------------------------------
# Laurent sections on the open orbit


def _ints_where_integral(values):
    return all(type(c) is int for c in values if Fraction(c).denominator == 1)


def test_laurent_module_weights_and_coefficients():
    # an integral scalar is an int, on the half-integral powers too, and
    # in the delta module and the jets
    win = Window.segment(-12, 12)
    pa = pair_by_name("A")
    for lam in (-3, 0, 2, 5):
        for chart in ("z", "w"):
            for par in (0, 1):
                gm = laurent_module(lam, par, win, chart=chart)
                ws = tuple(gm.weights)
                assert ws == tuple(w for w in range(-12, 13) if w % 2 == par)
                assert gm.parity == par
                for w in ws[1:-1]:
                    tw, c = _apply(gm, "e", w)
                    assert tw == w + 2 and c == Fraction(w - lam, 2)
                    tw, c = _apply(gm, "f", w)
                    assert tw == w - 2 and c == Fraction(-(lam + w), 2)
                    assert _apply(gm, "h", w) == (w, w)
                assert all(_ints_where_integral(sc.values()) for _, sc in gm.ops.values())
            dm = delta_module(lam, win, chart=chart)
            assert all(_ints_where_integral(sc.values()) for _, sc in dm.ops.values())
        for p in (1, 2, 4):
            jm = jet_associated_module(one_dim_module(pa, (lam, 0)), p)
            for mat in (*jm.ops.values(), jm.mult):
                assert _ints_where_integral(v for _, _, v in mat.entries())


def test_laurent_module_interior_casimir():
    win = Window.segment(-12, 12)
    for lam, par in ((-3, 0), (0, 1), (2, 0)):
        gm = laurent_module(lam, par, win)
        for w in gm.weights[2:-2]:
            ef = _apply(gm, "e", *_apply(gm, "f", w))[1]
            fe = _apply(gm, "f", *_apply(gm, "e", w))[1]
            hval = _apply(gm, "h", w)[1]
            assert ef + fe + hval * hval / 2 == Fraction(lam * lam + 2 * lam, 2)


# ---------------------------------------------------------------------------
# two-chart cohomology of the twisting sheaves


def test_cech_cohomology_frozen():
    for n in range(-80, 81):
        h0, h1 = cech_cohomology_On(n)
        assert h0 == Character("sl2-type", {n: 1} if n >= 0 else {})
        assert h1 == Character("sl2-type", {-n - 2: 1} if n <= -2 else {})


def test_cech_dimension_counts():
    # global sections of the n-th twist have dimension n+1; the
    # complementary degree mirrors it at -n-2
    for n in range(5):
        h0, _ = cech_cohomology_On(n)
        assert h0.total_dim() == n + 1
        _, h1 = cech_cohomology_On(-n - 2)
        assert h1.total_dim() == n + 1


# ---------------------------------------------------------------------------
# jets along the closed orbit


def test_jets_closed_family():
    pa = pair_by_name("A")
    for lam in (-4, -1, 0, 3):
        v = one_dim_module(pa, (lam, 0))
        for p in (1, 2, 4):
            jm = jet_associated_module(v, p)
            assert jm.mult.rows == p
            assert jm.slot_weights == tuple(lam - 2 * s for s in range(p))
            rep = jet_conformance(jm)
            assert all(rep.values()), (lam, p, rep)


def test_jets_are_polynomials_modulo_a_power():
    pa = pair_by_name("A")
    win = Window.segment(-12, 12)
    for lam in (-4, -1, 0, 3):
        lm = laurent_module(lam, lam % 2, win)
        for p in (1, 2, 4):
            jm = jet_associated_module(one_dim_module(pa, (lam, 0)), p)
            slot = {lam - 2 * s: s for s in range(p)}
            for name, mat in [*jm.ops.items(), ("z", jm.mult)]:
                shift, scalars = lm.ops[name]
                want = SparseMatrix(p, p, [
                    (slot[w + shift], slot[w], c) for w, c in scalars.items()
                    if w in slot and w + shift in slot])
                assert mat == want, (lam, p, name)


def test_jets_mult_nilpotency():
    v = one_dim_module(pair_by_name("A"), (-4, 0))
    jm = jet_associated_module(v, 4)
    m2 = jm.mult.mul(jm.mult)
    assert not m2.mul(jm.mult).is_zero()
    assert m2.mul(m2).is_zero()


def test_jets_truncate():
    v = one_dim_module(pair_by_name("A"), (2, 0))
    jm = jet_associated_module(v, 4)
    cut = jm.truncate(2)
    assert cut.level == 2 and cut.mult.rows == 2
    assert cut.slot_weights == jm.slot_weights[:2]
    assert all(jet_conformance(cut).values())
    with pytest.raises(ValueError):
        jm.truncate(0)
    with pytest.raises(ValueError):
        jm.truncate(5)


def test_jets_open_orbit_degenerate():
    pb = pair_by_name("B")
    vb = one_dim_module(pb, (-2, -2), parity=1)
    for p in (1, 3):
        jm = jet_associated_module(vb, p)
        assert all(jet_conformance(jm).values())
        assert jm.mult.is_zero() and jm.mult.rows == 1
        assert jm.truncate(1) is jm


def test_open_orbit_jets_report_no_normal_grading():
    # no normal direction: only the quotient and fiber conditions apply
    jm = jet_associated_module(one_dim_module(pair_by_name("B"), (1, 1), parity=0), 2)
    assert jet_conformance(jm) == {"quotient_equivariant": True,
                                   "fiber_isomorphism": True}


def test_jets_reject_bad_fiber():
    pa = pair_by_name("A")
    halg = pa.halg
    h_mat = SparseMatrix(2, 2, [(0, 0, ONE), (1, 1, Fraction(-1))])
    f_mat = SparseMatrix(2, 2, [(1, 0, ONE)])
    two_dim = HModule(halg=halg, dim=2, action=(h_mat, f_mat),
                      l_weights=((1,), (-1,)))
    with pytest.raises(ValueError, match="one-dimensional"):
        jet_associated_module(two_dim, 2)
    with pytest.raises(ValueError, match="jet slot"):
        jet_associated_module(one_dim_module(pa, (0, 0)), 0)
