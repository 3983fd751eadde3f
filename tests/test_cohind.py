"""Standard-resolution engine: frozen homology characters for all four
symmetry pairs, agreement with the independent relation-chase oracle,
duality, additivity, and the truncation guard rails."""

from fractions import Fraction

import pytest

from locind.cohind import (ChainBlock, _open_blocks, _restrict, _torus_blocks,
                           build_standard_complex, derived_i, derived_p,
                           euler_characteristic)
from locind.exactla import ONE, SparseMatrix
from locind.gkmod import (Character, HModule, Window, WindowTooSmall,
                          dual_module, lambda_top, one_dim_module,
                          tensor_onedim)
from locind.hecke import p_deg0_oracle
from locind.liealg import StructureError, pair_by_name

WIN = Window.segment(-12, 12)


@pytest.fixture(scope="module")
def pa():
    return pair_by_name("A")


@pytest.fixture(scope="module")
def pb():
    return pair_by_name("B")


@pytest.fixture(scope="module")
def pc():
    return pair_by_name("C")


@pytest.fixture(scope="module")
def pd():
    return pair_by_name("D")


# ---------------------------------------------------------------------------
# chain blocks as plain complexes


def test_chain_block_basics():
    blk = ChainBlock((2, 1), (SparseMatrix.from_rows([[1], [0]]),))
    assert blk.top == 1
    assert blk.homology(0) == 1 and blk.homology(1) == 0
    assert blk.homology(5) == 0 and blk.homology(-1) == 0
    assert blk.euler() == 1
    assert blk.boundary(0).rows == 0 and blk.boundary(2).cols == 0
    with pytest.raises(StructureError, match="shape"):
        ChainBlock((2, 2), (SparseMatrix.zero(1, 2),))
    with pytest.raises(StructureError, match="boundary"):
        ChainBlock((2, 2), ())


def test_restriction_refuses_a_non_subcomplex():
    # the degree-1 key survives depth 1, but its boundary lands on a
    # degree-0 key that depth 1 drops
    cols = [{((2,), (), 0): 0}, {((0,), (0,), 0): 0}]
    blk = ChainBlock((1, 1), (SparseMatrix.from_rows([[1]]),))
    with pytest.raises(StructureError, match=r"block \(3,\).*degree 1"):
        _restrict((3,), cols, blk, 1)
    assert _restrict((3,), cols, blk, 2) == blk
    assert _restrict((3,), cols, blk, 0).dims == (0, 0)


# ---------------------------------------------------------------------------
# truncation: one build at depth+1, a depth per weight block


@pytest.mark.parametrize("fam, values, win, keys", [
    ("A", (-4, 0), WIN, [(-12,), (-3,), (0,), (12,)]),
    ("D", (-2, 0, -3, 0), Window.box((-4, -4), (4, 4)),
     [(-4, -4), (0, 0), (3, -1), (4, 4)]),
    # a one-dimensional B module lives in one parity class, its only block
    ("B", (-1, -1), Window.segment(-8, 8), [1]),
])
def test_restricted_blocks_match_direct_builds(fam, values, win, keys):
    pair = pair_by_name(fam)
    v = one_dim_module(pair, values, parity=keys[0] if fam == "B" else None)
    w = tensor_onedim(v, lambda_top(pair))
    cx = build_standard_complex(pair, v, win)
    for n in keys:
        if fam == "B":      # one parity class serves the whole window
            point, cut = win, cx.cut
            direct = _open_blocks(pair, w, cut)[n][1]
        else:
            point = Window.box(n, n)
            cut = build_standard_complex(pair, v, point).cut
            direct = _torus_blocks(pair, w, {n: cut})[n][1]
        explicit = build_standard_complex(pair, v, point, cut=cut).blocks[n]
        for blk in (cx.blocks[n], explicit):
            assert blk.dims == direct.dims
            assert [blk.homology(d) for d in range(blk.top + 1)] == \
                [direct.homology(d) for d in range(direct.top + 1)]
            assert blk == direct


def test_block_cuts_match_the_window_wide_cut(pa, pd):
    def size(cx):
        return sum(sum(blk.dims) for blk in cx.blocks.values())

    cases = [(pa, (-5, 0), WIN),
             (pd, (-4, 0, -2, 0), Window.box((-4, -4), (4, 4)))]
    for pair, values, win in cases:
        v = one_dim_module(pair, values)
        own = build_standard_complex(pair, v, win)
        wide = build_standard_complex(pair, v, win, cut=own.cut)
        assert own.homology_characters() == wide.homology_characters()
        assert own.cut == wide.cut
        assert size(own) < size(wide)


# ---------------------------------------------------------------------------
# closed orbit (torus blocks)


def test_closed_orbit_characters(pa):
    for lam in (-4, -2, -7):
        v = one_dim_module(pa, (lam, 0))
        h0 = derived_p(pa, v, 0, WIN)
        expect = {(n,): 1 for n in range(lam + 2, 13, 2)}
        assert h0 == Character("torus-weight", expect)
        assert derived_p(pa, v, 1, WIN).is_zero()
        assert derived_p(pa, v, 5, WIN).is_zero()


def test_closed_orbit_matches_oracle(pa):
    v = one_dim_module(pa, (-4, 0))
    w = tensor_onedim(v, lambda_top(pa))
    assert derived_p(pa, v, 0, WIN) == p_deg0_oracle(pa, w, WIN)


def test_closed_orbit_euler(pa):
    v = one_dim_module(pa, (-4, 0))
    c = build_standard_complex(pa, v, WIN)
    assert c.top_degree == 1
    assert euler_characteristic(c) == c.homology_character(0)


def test_closed_orbit_margin_stability(pa):
    v = one_dim_module(pa, (-5, 0))
    assert derived_p(pa, v, 0, WIN, margin=5) == derived_p(pa, v, 0, WIN)


# ---------------------------------------------------------------------------
# open orbit (parity classes)


def test_open_orbit_characters(pb):
    for par in (0, 1):
        for cval in (0, 1):
            v = one_dim_module(pb, (cval, cval), parity=par)
            h0 = derived_p(pb, v, 0, WIN)
            expect = {(n,): 1 for n in range(-12, 13) if n % 2 == par}
            assert h0 == Character("torus-weight", expect, parity=par)
            assert derived_p(pb, v, 1, WIN).is_zero()
            assert derived_p(pb, v, 2, WIN).is_zero()


def test_open_orbit_oracle_and_euler(pb):
    v = one_dim_module(pb, (1, 1), parity=0)
    w = tensor_onedim(v, lambda_top(pb))
    h0 = derived_p(pb, v, 0, WIN)
    assert h0 == p_deg0_oracle(pb, w, WIN)
    c = build_standard_complex(pb, v, WIN)
    assert c.top_degree == 2
    assert euler_characteristic(c) == h0


def test_open_orbit_boundary_squares_to_zero(pb):
    # top degree 2 with a genuine wedge bracket: [x1, x2] = -2x1 + 2x2
    v = one_dim_module(pb, (0, 0), parity=1)
    c = build_standard_complex(pb, v, WIN)
    for blk in c.blocks.values():
        assert blk.boundary(1).mul(blk.boundary(2)).is_zero()


# ---------------------------------------------------------------------------
# full sl2 (matrix types)


def test_full_sl2_characters(pc):
    cases = {3: (None, 3), 0: (None, 0), -5: (3, None), -2: (0, None),
             -1: (None, None)}
    for lam, (t0, t1) in cases.items():
        v = one_dim_module(pc, (lam, 0))
        h0 = derived_p(pc, v, 0, max_type=8)
        h1 = derived_p(pc, v, 1, max_type=8)
        assert h0 == Character("sl2-type", {} if t0 is None else {t0: 1})
        assert h1 == Character("sl2-type", {} if t1 is None else {t1: 1})


def test_full_sl2_oracle_and_euler(pc):
    v = one_dim_module(pc, (-5, 0))
    w = tensor_onedim(v, lambda_top(pc))
    h0 = derived_p(pc, v, 0, max_type=8)
    assert h0 == p_deg0_oracle(pc, w, max_type=8)
    c = build_standard_complex(pc, v, max_type=8)
    assert euler_characteristic(c) == \
        c.homology_character(0).add(c.homology_character(1).negate())


# ---------------------------------------------------------------------------
# product pair


def test_product_pair_characters(pd):
    win = Window.box((-8, -8), (8, 8))
    v = one_dim_module(pd, (-2, 0, -3, 0))
    h0 = derived_p(pd, v, 0, win)
    expect = {(a, b): 1 for a in range(0, 9, 2) for b in range(-1, 9, 2)}
    assert h0 == Character("torus-weight", expect)
    assert derived_p(pd, v, 1, win).is_zero()
    assert derived_p(pd, v, 2, win).is_zero()
    w = tensor_onedim(v, lambda_top(pd))
    assert h0 == p_deg0_oracle(pd, w, win)


def test_product_pair_boundary_squares_to_zero(pd):
    win = Window.box((-4, -4), (4, 4))
    v = one_dim_module(pd, (-2, 0, -2, 0))
    c = build_standard_complex(pd, v, win)
    assert c.top_degree == 2
    assert euler_characteristic(c) == c.homology_character(0)
    for blk in c.blocks.values():
        assert blk.boundary(1).mul(blk.boundary(2)).is_zero()


# ---------------------------------------------------------------------------
# duality, additivity, degenerate input


def test_duality(pa, pb):
    v = one_dim_module(pa, (-4, 0))
    dv = dual_module(v)
    for j in (0, 1):
        assert derived_i(pa, dv, j, WIN) == derived_p(pa, v, j, WIN).dual()
    vb = one_dim_module(pb, (0, 0), parity=1)
    dvb = dual_module(vb)
    for j in (0, 1, 2):
        assert derived_i(pb, dvb, j, WIN) == derived_p(pb, vb, j, WIN).dual()


def test_two_step_module_is_additive(pa):
    # non-split extension of the (mu-2) character by the mu character:
    # homology characters only see the associated graded
    mu = -4
    halg = pa.h_as_lie()
    h_mat = SparseMatrix(2, 2, [(0, 0, Fraction(mu)), (1, 1, Fraction(mu - 2))])
    f_mat = SparseMatrix(2, 2, [(1, 0, ONE)])
    w2 = HModule(halg=halg, dim=2, action=(h_mat, f_mat),
                 l_weights=((mu,), (mu - 2,)))
    win = Window.segment(-10, 10)
    got = derived_p(pa, w2, 0, win)
    parts = derived_p(pa, one_dim_module(pa, (mu, 0)), 0, win).add(
        derived_p(pa, one_dim_module(pa, (mu - 2, 0)), 0, win))
    assert got == parts
    assert derived_p(pa, w2, 1, win).is_zero()


def test_zero_module(pa):
    z = HModule(halg=pa.h_as_lie(), dim=0,
                action=(SparseMatrix.zero(0, 0),) * 2, l_weights=())
    c = build_standard_complex(pa, z, WIN)
    assert all(c.homology_character(d).is_zero() for d in range(2))
    assert euler_characteristic(c).is_zero()


def test_truncation_guards(pa, pc):
    v = one_dim_module(pa, (-4, 0))
    with pytest.raises(ValueError, match="window"):
        build_standard_complex(pa, v)
    with pytest.raises(ValueError, match="max_type"):
        build_standard_complex(pc, one_dim_module(pc, (0, 0)))
    # a depth cut that still truncates live classes must refuse loudly
    with pytest.raises(WindowTooSmall):
        build_standard_complex(pa, v, WIN, cut=6)
