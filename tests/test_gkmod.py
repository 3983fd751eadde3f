from dataclasses import replace
from fractions import Fraction

import pytest

from locind.exactla import ONE, SparseMatrix
from locind.gkmod import (Character, HModule,
                          NonInvariantCharacter, Window, as_weight,
                          check_module_compatible, dual_module, lambda_top,
                          one_dim_module, sl2_types_from_weights, tensor_onedim)
from locind.liealg import StructureError, pair_by_name


# ---------------------------------------------------------------------------
# windows


def test_window_segment_and_box():
    w = Window.segment(-3, 5)
    assert w.rank == 1
    assert w.contains(-3) and w.contains(5) and not w.contains(6)
    assert list(w.points())[0] == (-3,)
    b = Window.box((-1, -2), (1, 0))
    assert b.rank == 2
    assert b.contains((0, -1)) and not b.contains((0, 1))
    assert len(list(b.points())) == 9


def test_window_errors():
    with pytest.raises(ValueError, match="empty"):
        Window.segment(4, 1)
    with pytest.raises(ValueError):
        Window((0, 0), (1,))
    with pytest.raises(ValueError):
        Window.box((0, 0), (3, 3)).contains(1)  # scalar into rank 2


def test_as_weight():
    assert as_weight(4, 1) == (4,)
    assert as_weight((1, 2), 2) == (1, 2)
    with pytest.raises(ValueError):
        as_weight(4, 2)
    with pytest.raises(ValueError):
        as_weight((1, 2, 3), 2)


# ---------------------------------------------------------------------------
# characters


def test_character_cleanup_and_zero():
    c = Character("torus-weight", {2: 1, 4: 0}, parity=1)
    assert c.data == {(2,): 1}
    assert c.parity == 1
    z = Character("torus-weight", {3: 0}, parity=1)
    assert z.is_zero()
    assert z.parity is None  # the zero character forgets its parity


def test_character_equality_sees_parity():
    data = {(2,): 1, (4,): 2}
    even = Character("torus-weight", data, parity=0)
    assert even == Character("torus-weight", data, parity=0)
    assert even != Character("torus-weight", data, parity=1)


def test_character_dual_and_restrict():
    c = Character("torus-weight", {(3,): 1, (-1,): 2})
    assert c.dual().data == {(-3,): 1, (1,): 2}
    assert c.restrict(Window.segment(0, 10)).data == {(3,): 1}
    t = Character("sl2-type", {2: 5})
    assert t.dual() == t  # self-dual types
    with pytest.raises(ValueError):
        t.restrict(Window.segment(-2, 2))


def test_character_kind_guards():
    with pytest.raises(ValueError, match="kind"):
        Character("spin", {0: 1})
    with pytest.raises(ValueError, match="nonnegative"):
        Character("sl2-type", {-2: 1})
    with pytest.raises(ValueError, match="parity"):
        Character("torus-weight", {0: 1}, parity=5)


def test_character_total_dim_and_json():
    c = Character("torus-weight", {(1, 1): 2, (0, 3): 1})
    assert c.total_dim() == 3
    t = Character("sl2-type", {2: 1, 0: 4})
    assert t.total_dim() == 7
    assert c.to_jsonable() == {"kind": "torus-weight",
                               "data": {"0,3": 1, "1,1": 2}}
    assert Character("torus-weight", {5: 1}, parity=1).to_jsonable() == \
        {"kind": "torus-weight", "data": {"5": 1}, "parity": 1}


def test_sl2_types_from_weights():
    # V2 + 2*V0 has weights {-2:1, 0:3, 2:1}
    assert sl2_types_from_weights({-2: 1, 0: 3, 2: 1}) == {2: 1, 0: 2}
    assert sl2_types_from_weights({}) == {}
    with pytest.raises(ValueError):
        sl2_types_from_weights({1: 1})  # no matching -1
    with pytest.raises(ValueError):
        sl2_types_from_weights({2: 1})  # missing interior string
    with pytest.raises(ValueError):
        sl2_types_from_weights({0: -1})


def test_weights_of_types_roundtrip():
    # 2*V4 + V1 + 3*V0, weight by weight
    weights = {-4: 2, -2: 2, -1: 1, 0: 5, 1: 1, 2: 2, 4: 2}
    assert sl2_types_from_weights(weights) == {4: 2, 1: 1, 0: 3}


# ---------------------------------------------------------------------------
# one-dimensional isotropy modules


def test_one_dim_module_closed_orbit():
    pair = pair_by_name("A")
    v = one_dim_module(pair, (-4, 0))
    assert v.dim == 1
    assert v.l_weights == ((-4,),)
    assert v.parity is None
    assert v.value(0) == Fraction(-4)
    assert v.value(1) == 0
    check_module_compatible(pair, v)


def test_one_dim_module_rejects_noncharacter():
    pair = pair_by_name("A")
    # [h, f] = -2f forces the f-scalar to vanish
    with pytest.raises(NonInvariantCharacter, match=r"\[h,f\]"):
        one_dim_module(pair, (-4, 1))


def test_one_dim_module_parity_bookkeeping():
    a = pair_by_name("A")
    with pytest.raises(ValueError, match="connected"):
        one_dim_module(a, (0, 0), parity=0)
    b = pair_by_name("B")
    with pytest.raises(ValueError, match="parity 0 or 1"):
        one_dim_module(b, (1, 1))
    v = one_dim_module(b, (1, 1), parity=1)
    assert v.parity == (1,)
    # the open-orbit stabilizer meets the compact torus trivially
    assert v.l_weights == ((),)


def test_one_dim_module_product_pair():
    d = pair_by_name("D")
    # isotropy basis order is (h1, f1, h2, f2)
    v = one_dim_module(d, (-2, 0, -3, 0))
    assert v.l_weights == ((-2, -3),)
    check_module_compatible(pair_by_name("D"), v)
    with pytest.raises(NonInvariantCharacter, match=r"\[h1,f1\]"):
        one_dim_module(d, (-2, 1, -3, 0))
    with pytest.raises(StructureError, match="scalars"):
        one_dim_module(d, (-2, 0))


def test_lambda_top_values():
    # trace of the isotropy action on the top wedge of the quotient
    assert tuple(lambda_top(pair_by_name("A")).value(i) for i in range(2)) == \
        (Fraction(2), Fraction(0))
    assert tuple(lambda_top(pair_by_name("C")).value(i) for i in range(2)) == \
        (Fraction(2), Fraction(0))
    top_b = lambda_top(pair_by_name("B"))
    assert tuple(top_b.value(i) for i in range(2)) == \
        (Fraction(-2), Fraction(-2))
    assert top_b.parity == (0,)
    assert tuple(lambda_top(pair_by_name("D")).value(i) for i in range(4)) == \
        (Fraction(2), Fraction(0), Fraction(2), Fraction(0))
    # built once per pair; a re-presented pair has the same values
    pa = pair_by_name("A")
    assert lambda_top(pa) is lambda_top(pa)
    fresh = replace(pa)
    assert lambda_top(fresh).value(0) == lambda_top(pa).value(0)


def test_tensor_and_dual():
    pair = pair_by_name("A")
    u = one_dim_module(pair, (-4, 0))
    w = tensor_onedim(u, lambda_top(pair))
    assert w.value(0) == Fraction(-2)
    assert w.l_weights == ((-2,),)
    du = dual_module(u)
    assert du.value(0) == Fraction(4)
    assert du.l_weights == ((4,),)
    b = pair_by_name("B")
    vb = one_dim_module(b, (1, 1), parity=1)
    assert tensor_onedim(vb, lambda_top(b)).parity == (1,)
    assert dual_module(vb).parity == (1,)
    with pytest.raises(StructureError, match="different algebras"):
        tensor_onedim(u, one_dim_module(b, (0, 0), parity=0))


def test_check_module_compatible_catches_bad_grading():
    pair = pair_by_name("A")
    halg = pair.halg
    # valid 2-dim module (h = diag(0,-2), f lowers), but the recorded
    # torus weights ignore that f shifts by its adjoint weight -2
    h_mat = SparseMatrix(2, 2, [(1, 1, Fraction(-2))])
    f_mat = SparseMatrix(2, 2, [(1, 0, ONE)])
    bad = HModule(halg=halg, dim=2, action=(h_mat, f_mat),
                  l_weights=((0,), (0,)))
    with pytest.raises(StructureError, match="torus grading"):
        check_module_compatible(pair, bad)
    with pytest.raises(StructureError, match="isotropy algebra"):
        check_module_compatible(pair_by_name("B"), bad)
    b = pair_by_name("B")
    no_par = HModule(halg=b.halg, dim=1,
                     action=(SparseMatrix.zero(1, 1), SparseMatrix.zero(1, 1)),
                     l_weights=((),))
    with pytest.raises(StructureError, match="component group"):
        check_module_compatible(b, no_par)


def test_hmodule_validates_brackets():
    pair = pair_by_name("A")
    halg = pair.halg
    # h scalar and f nonzero cannot satisfy [h, f] = -2f
    h_mat = SparseMatrix(2, 2, [(0, 0, ONE), (1, 1, ONE)])
    f_mat = SparseMatrix(2, 2, [(0, 1, ONE)])
    with pytest.raises(StructureError, match=r"\[h,f\]"):
        HModule(halg=halg, dim=2, action=(h_mat, f_mat),
                l_weights=((1,), (3,)))
    with pytest.raises(StructureError, match="shape"):
        HModule(halg=halg, dim=2,
                action=(SparseMatrix.zero(1, 1), SparseMatrix.zero(2, 2)),
                l_weights=((0,), (0,)))
