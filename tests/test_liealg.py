from dataclasses import replace
from fractions import Fraction

import pytest

from locind.gkmod import one_dim_module
from locind.liealg import (LieAlg, StructureError, Subalg, UnsupportedK,
                           direct_sum, pair_by_name, sl2, vec_add, vec_scale)


def test_sl2_table():
    g = sl2()
    assert g.labels == ("e", "h", "f")
    e, h, f = (g.basis_vector(i) for i in range(3))
    assert g.bracket(h, e) == vec_scale(2, e)
    assert g.bracket(h, f) == vec_scale(-2, f)
    assert g.bracket(e, f) == h
    assert g.bracket(e, e) == g.zero()


def test_jacobi_is_enforced():
    with pytest.raises(StructureError, match="Jacobi"):
        LieAlg(("e", "h", "f"),
               {(0, 1): (-2, 0, 0), (0, 2): (0, 1, 1), (1, 2): (0, 0, -2)})
    with pytest.raises(StructureError):
        LieAlg(("a", "a"), {})
    with pytest.raises(StructureError):
        LieAlg(("a", "b"), {(1, 0): (1, 0)})


def test_expand_and_change_of_basis():
    g = sl2()
    e, h, f = (g.basis_vector(i) for i in range(3))
    x1, x2 = vec_add(e, f), vec_add(h, vec_scale(2, f))
    coords = g.expand(vec_add(x1, vec_scale(3, x2)), (x1, x2))
    assert coords == (Fraction(1), Fraction(3))
    assert g.expand(e, (x1, x2)) is None
    sw = Subalg(g, (f, h, e)).as_lie(("F", "H", "E"))
    # slot 0 is the old f, so [H, F] = -2F in the relabelled algebra
    assert sw.bracket(sw.basis_vector(1), sw.basis_vector(0)) == \
        vec_scale(-2, sw.basis_vector(0))


def test_direct_sum_blocks():
    g = direct_sum(sl2(), LieAlg(("t0",), {}))
    assert g.dim == 4
    assert g.bracket(g.basis_vector(0), g.basis_vector(3)) == g.zero()
    assert g.bracket(g.basis_vector(1), g.basis_vector(0)) == \
        vec_scale(2, g.basis_vector(0))


class TestPairs:
    def test_family_names(self):
        names = ("closed-orbit", "open-orbit", "borel-weil-bott", "product")
        for fam, name in zip("ABCD", names):
            assert pair_by_name(fam).name == name
        with pytest.raises(StructureError):
            pair_by_name("E")

    def test_closed_orbit_shape(self):
        a = pair_by_name("A")
        assert a.k.kind == "torus" and a.k.rank == 1
        assert a.h_labels == ("h", "f") and a.hl_dim() == 1
        assert a.h_weight_of(a.hl_basis[0]) == (-2,)
        halg = a.halg
        # [h, f] = -2f inside the isotropy presentation
        assert halg.bracket_basis(0, 1) == (Fraction(0), Fraction(-2))

    def test_open_orbit_shape(self):
        b = pair_by_name("B")
        assert b.two_point and b.l_basis == ()
        assert b.hl_dim() == 2
        halg = b.halg
        # [x1, x2] = -2 x1 + 2 x2
        assert halg.bracket_basis(0, 1) == (Fraction(-2), Fraction(2))

    def test_bwb_shape(self):
        c = pair_by_name("C")
        assert c.k.kind == "sl2"
        assert c.k.cartan_generators() == (c.lie.basis_vector(1),)

    def test_product_shape(self):
        d = pair_by_name("D")
        assert d.k.rank == 2 and d.hl_dim() == 2
        assert d.h_weight_of(d.hl_basis[0]) == (-2, 0)
        assert d.h_weight_of(d.hl_basis[1]) == (0, -2)

    def test_h_weight_rejects_mixed_vectors(self):
        a = pair_by_name("A")
        mixed = vec_add(a.lie.basis_vector(0), a.lie.basis_vector(2))
        with pytest.raises(StructureError):
            a.h_weight_of(mixed)


def test_pair_refuses_legs_that_are_not_a_basis_of_h_modulo_l():
    a, b = pair_by_name("A"), pair_by_name("B")
    e, f = a.lie.basis_vector(0), a.lie.basis_vector(2)
    x1 = b.h.basis[0]
    for pair, legs in ((a, (f, f)), (a, (e,)), (b, (x1, x1))):
        with pytest.raises(StructureError, match="basis of h"):
            replace(pair, hl_basis=legs)
    # an l that is not inside h
    with pytest.raises(StructureError, match="basis of h"):
        replace(a, l_basis=(e,))


def test_subalg_coords_roundtrip():
    g = sl2()
    sub = Subalg(g, (g.basis_vector(1), g.basis_vector(2)))
    v = vec_add(vec_scale(2, g.basis_vector(1)), vec_scale(-3, g.basis_vector(2)))
    assert sub.coords(v) == (Fraction(2), Fraction(-3))
    with pytest.raises(StructureError):
        sub.coords(g.basis_vector(0))


def test_torus_tables_of_a_pair():
    assert pair_by_name("A").cartan_of == (None, 0, None)
    assert pair_by_name("B").cartan_of == (None, 0, None)
    assert pair_by_name("D").cartan_of == (None, 0, None, None, 1, None)
    with pytest.raises(UnsupportedK, match="not a torus"):
        pair_by_name("C").cartan_of


def test_pair_refuses_an_l_basis_that_is_no_stabilizer():
    # L is K's maximal torus (l_basis spans K's Cartan generators) or
    # K's two-point group (l_basis empty, g = k + h), nothing else
    a = pair_by_name("A")
    h, f = a.lie.basis_vector(1), a.lie.basis_vector(2)
    with pytest.raises(UnsupportedK, match="Cartan generators"):
        replace(a, l_basis=(f,), hl_basis=(h,))
    b = pair_by_name("B")
    with pytest.raises(UnsupportedK, match="Cartan generators"):
        replace(b, l_basis=b.hl_basis[:1], hl_basis=b.hl_basis[1:])
    d = pair_by_name("D")
    with pytest.raises(UnsupportedK, match="k and h must together"):
        replace(d, l_basis=(), hl_basis=d.h.basis)
    with pytest.raises(UnsupportedK, match="Cartan generators"):
        replace(d, l_basis=d.l_basis[:1] + d.hl_basis[1:],
                hl_basis=d.hl_basis[:1] + d.l_basis[1:])
    assert not d.two_point and b.two_point


def test_each_family_is_built_once_per_process():
    assert pair_by_name("D") is pair_by_name("D")
    assert len({id(pair_by_name(fam).lie) for fam in "ABCD"}) == 4


def test_isotropy_algebra_is_built_once_per_pair():
    for fam, values, par in (("A", (-4, 0), None), ("B", (1, 1), 0)):
        pair = pair_by_name(fam)
        assert pair.halg is pair.halg
        assert one_dim_module(pair, values, parity=par).halg is pair.halg
