"""Standard-resolution engine: frozen homology characters for all four
symmetry pairs, agreement with the independent relation-chase oracle,
duality, additivity, and the truncation guard rails."""

from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product
from math import prod

import pytest

from locind import cohind, harness
from locind.cohind import (ChainBlock, _open_blocks, _restrict, _torus_blocks,
                           build_standard_complex, derived_i, derived_p)
from locind.exactla import ONE, CompositionNonzero, SparseMatrix
from locind.gkmod import (Character, HModule, Window, WindowTooSmall,
                          dual_module, lambda_top, one_dim_module,
                          tensor_onedim)
from locind.harness import VerificationCase, default_cases, run_case
from locind.hecke import p_deg0_oracle
from locind.liealg import (KDescriptor, LieAlg, PairData, StructureError, Subalg,
                           UnsupportedK, pair_by_name, product_pair, vec_add, vec_scale)
from locind.locp1 import delta_module, laurent_module
from locind.pbw import UElt

WIN = Window.segment(-12, 12)


def _stands_for(pair, v, win):
    """Per window point, the built point whose block and homology it
    takes, read off the runs of ``_torus_chambers``, which cover the
    window, each point once."""
    w = tensor_onedim(v, lambda_top(pair))
    _, runs, _, _ = cohind._torus_chambers(pair, w, win, 0)
    pairs = [(n, b) for b in product(*runs)
             for n in product(*(run[x] for run, x in zip(runs, b)))]
    stands = dict(pairs)
    assert len(stands) == len(pairs) and set(stands) == set(win.points())
    return stands


@pytest.fixture
def cold_blocks():
    """Each torus block is built anew, and no block a patched build leaves
    in the per-process memo leaks into a later test."""
    cohind._torus_block.cache_clear()
    yield
    cohind._torus_block.cache_clear()


def _lower_the_proved_cut(monkeypatch):
    gap = HModule.weight_gap
    monkeypatch.setattr(HModule, "weight_gap", lambda mod, n: max(gap(mod, n) - 1, 0))


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
    assert blk.boundary(0).rows == 0 and blk.boundary(2).cols == 0
    # the caps are 0 x dims[0] below and dims[top] x 0 above, so they
    # compose with the end boundaries
    wide = ChainBlock((2, 3), (SparseMatrix.from_rows([[1, 0, 1], [0, 1, 0]]),))
    cap = wide.boundary(wide.top + 1)
    assert (cap.rows, cap.cols) == (3, 0)
    assert (wide.boundary(0).rows, wide.boundary(0).cols) == (0, 2)
    assert wide.boundary(wide.top).mul(cap).is_zero()
    assert wide.boundary(0).mul(wide.boundary(1)).is_zero()
    assert wide.homology(0) == 0 and wide.homology(1) == 1
    with pytest.raises(StructureError, match="shape"):
        ChainBlock((2, 2), (SparseMatrix.zero(1, 2),))
    with pytest.raises(StructureError, match="boundary"):
        ChainBlock((2, 2), ())


def test_zero_terms_cost_nothing_and_nonzero_terms_keep_the_guard():
    # through a zero term d.d is zero by shape: homology 0, no check needed
    hollow = ChainBlock((1, 0, 1), (SparseMatrix.zero(1, 0), SparseMatrix.zero(0, 1)))
    assert [hollow.homology(d) for d in range(3)] == [1, 0, 1]
    # a nonzero middle term with d.d != 0 still refuses
    one = SparseMatrix.identity(1)
    bad = ChainBlock((1, 1, 1), (one, one))
    with pytest.raises(CompositionNonzero):
        bad.homology(1)


def test_restriction_refuses_a_non_subcomplex():
    # the degree-1 key survives depth 1, but its boundary lands on a
    # degree-0 key that depth 1 drops
    cols = [{((2,), (), 0): 0}, {((0,), (0,), 0): 0}]
    blk = ChainBlock((1, 1), (SparseMatrix.from_rows([[1]]),))
    with pytest.raises(StructureError, match=r"^boundary of degree 1 leaves the truncation at depth 1$"):
        _restrict(cols, blk, 1)
    # a build names the block
    with pytest.raises(StructureError, match=r"^block \(3,\): boundary of degree 1"):
        cohind._in_block((3,), _restrict, cols, blk, 1)
    assert _restrict(cols, blk, 2) == blk
    assert _restrict(cols, blk, 0).dims == (0, 0)


def test_restriction_that_keeps_every_key_is_the_block_itself(pa):
    w = tensor_onedim(one_dim_module(pa, (-4, 0)), lambda_top(pa))
    n = (2,)
    gap = w.weight_gap(n)
    cols, big, blk, _ = dict(_torus_blocks(pa, w, {n: gap}))[n]
    assert _restrict(cols, big, gap) is big is blk
    # one deeper than a margin of 5 adds keys, and the cut drops them
    cols, big, blk, _ = dict(_torus_blocks(pa, w, {n: gap + 5}))[n]
    small = _restrict(cols, big, gap + 5)
    assert small == blk
    assert small is not big
    assert all(a <= b for a, b in zip(small.dims, big.dims))
    assert sum(small.dims) < sum(big.dims)


# ---------------------------------------------------------------------------
# truncation: one build at depth+1, a depth per weight block


@pytest.mark.parametrize("fam, values, win, keys", [
    ("A", (-4, 0), WIN, [(-12,), (-3,), (0,), (12,)]),
    ("D", (-2, 0, -3, 0), Window.box((-4, -4), (4, 4)),
     [(-4, -4), (0, 0), (3, -1), (4, 4), (-4, -3)]),
    # a one-dimensional B module lives in one parity class, its only block
    ("B", (-1, -1), Window.segment(-8, 8), [1]),
    # far from the grades, where a block is its chamber's outermost one
    ("A", (-4, 0), Window.segment(-120, 120), [(-120,), (-118,), (-117,), (118,), (120,)]),
    ("D", (-2, 0, -3, 0), Window.box((-64, -64), (64, 64)),
     [(-64, -64), (-64, 64), (64, -64), (64, 64), (63, -63), (-3, 64), (64, -2)]),
])
def test_restricted_blocks_match_direct_builds(fam, values, win, keys):
    pair = pair_by_name(fam)
    v = one_dim_module(pair, values, parity=keys[0] if fam == "B" else None)
    w = tensor_onedim(v, lambda_top(pair))
    cx = build_standard_complex(pair, v, win)
    stands = {} if fam == "B" else _stands_for(pair, v, win)
    for n in keys:
        # a direct build at the cut: the deep block of a build cut one less
        if fam == "B":      # one parity class serves the whole window
            blk = cx.blocks.get(n)
            direct = dict(_open_blocks(pair, w, cx.cut - 1)).get(n)
        else:
            blk = cx.blocks.get(stands[n])
            cut = build_standard_complex(pair, v, Window.box(n, n)).cut
            direct = dict(_torus_blocks(pair, w, {n: cut - 1})).get(n)
        # a block with no basis is left out by both
        assert (blk is not None) == (direct is not None)
        if direct is None:
            continue
        direct = direct.deep
        assert any(direct.dims)
        assert blk.dims == direct.dims
        assert [blk.homology(d) for d in range(blk.top + 1)] == \
            [direct.homology(d) for d in range(direct.top + 1)]
        assert blk == direct


def test_block_cuts_match_the_window_wide_cut(pa, pd, monkeypatch):
    def size(cx):
        return sum(sum(blk.dims) for blk in cx.blocks.values())

    gap = HModule.weight_gap
    cases = [(pa, (-5, 0), WIN),
             (pd, (-4, 0, -2, 0), Window.box((-4, -4), (4, 4)))]
    for pair, values, win in cases:
        v = one_dim_module(pair, values)
        own = build_standard_complex(pair, v, win)
        with monkeypatch.context() as m:
            # every block cut at the window's largest proved cut
            m.setattr(HModule, "weight_gap", lambda mod, n, win=win:
                      max(gap(mod, p) for p in win.points()))
            wide = build_standard_complex(pair, v, win)
        assert own.characters == wide.characters
        assert own.cut == wide.cut
        assert size(own) < size(wide)


# ---------------------------------------------------------------------------
# chambers: the box and N + 1 translates per ray are built, the rest proved


def _rescale_degree_one(monkeypatch, factor):
    """Scale the degree-1 boundary of each built torus block n by factor(n)."""
    real = cohind._torus_blocks

    def scaled(pair, mod, cuts):
        for n, got in real(pair, mod, cuts):
            blk = got.deep
            b, c = blk.boundaries[0], factor(n)
            b = SparseMatrix(b.rows, b.cols, [(r, k, c * v) for r, k, v in b.entries()])
            yield n, got._replace(deep=ChainBlock(blk.dims, (b,) + blk.boundaries[1:]))

    monkeypatch.setattr(cohind, "_torus_blocks", scaled)


def test_translate_degree_is_read_off_the_pair(pa, pd):
    # ad e takes the leg f to h, then to -2e: nilpotency 2, and h is a
    # Cartan letter for reduce_block to evaluate
    assert cohind._translate_degree(pa) == cohind._translate_degree(pd) == 3


def _opposite_borel(pa):
    """A's pair with isotropy span(h, e) and the leg e, which must pass h."""
    e, h = pa.lie.basis_vector(0), pa.lie.basis_vector(1)
    return replace(pa, h=Subalg(pa.lie, (h, e)), h_labels=("h", "e"), hl_basis=(e,))


def test_translation_invariance_is_checked_per_pair(pa, pd):
    assert cohind._translation_invariant(pa) and cohind._translation_invariant(pd)
    # e . e = e^2, but f . e = e . f - h puts a Cartan letter in the product
    assert not cohind._translation_invariant(_opposite_borel(pa))
    # sl2 plus a central torus letter z, last in PBW order: the leg f + z
    # commutes with every letter after each of its own, but z is a Cartan
    # letter that reduce_block evaluates at the block's weight
    g = LieAlg(("e", "h", "f", "z"), {(0, 1): (-2, 0, 0, 0), (0, 2): (0, 1, 0, 0),
                                      (1, 2): (0, 0, -2, 0)})
    h, f, z = g.basis_vector(1), g.basis_vector(2), g.basis_vector(3)
    k = KDescriptor("torus", 2, (h, z), ((2, 0), (0, 0), (-2, 0), (0, 0)))
    central = PairData(name="central", lie=g, k=k, h=Subalg(g, (h, z, f)),
                       h_labels=("h", "z", "f"), l_basis=(h, z), hl_basis=(f,))
    assert cohind._translation_invariant(central)
    assert not cohind._translation_invariant(replace(central, hl_basis=(vec_add(f, z),)))


def test_twists_share_blocks_only_where_the_pair_proves_it(pa, cold_blocks, monkeypatch):
    # A's twists -5 and -7 place their blocks alike on a wide window, and
    # the second assembles none; the opposite Borel's blocks read their
    # absolute weight, and each twist assembles its own
    calls = []
    real = cohind._assemble
    monkeypatch.setattr(cohind, "_assemble", lambda *args: calls.append(1) or real(*args))
    win = Window.segment(-40, 40)
    for pair, shared in ((pa, True), (_opposite_borel(pa), False)):
        counts = []
        for lam in (-5, -7):
            calls.clear()
            v = one_dim_module(pair, (lam, 0))
            cx = build_standard_complex(pair, v, win)
            counts.append(len(calls))
            want = p_deg0_oracle(pair, tensor_onedim(v, lambda_top(pair)), win)
            assert cx.homology_character(0) == want and not want.is_zero()
        assert counts == [counts[0], 0 if shared else counts[0]] and counts[0]


def test_a_block_read_from_the_memo_names_its_own_weight(pa, cold_blocks, monkeypatch):
    # twists -5 and -7 share their first block; a two-depth mismatch held
    # in the memo and read at the second twist names that twist's block
    win = Window.segment(-40, 40)
    first = {lam: next(iter(build_standard_complex(
        pa, one_dim_module(pa, (lam, 0)), win).blocks)) for lam in (-5, -7)}
    assert first[-7] == (first[-5][0] - 2,)
    cohind._torus_block.cache_clear()
    real, restricted = cohind._restrict, []

    def one_key_more(cols, blk, cut):
        # one more degree-0 key at the cut than one deeper: H_0 grows by one
        restricted.append(cut)
        out = real(cols, blk, cut)
        b = out.boundaries[0]
        return ChainBlock((out.dims[0] + 1,) + out.dims[1:],
                          (SparseMatrix(b.rows + 1, b.cols, b.entries()),) + out.boundaries[1:])

    monkeypatch.setattr(cohind, "_restrict", one_key_more)
    for lam in (-5, -7):
        with pytest.raises(WindowTooSmall, match=rf"^block \({first[lam][0]},\), degree 0: "):
            build_standard_complex(pa, one_dim_module(pa, (lam, 0)), win)
        assert bool(restricted) == (lam == -5)
        restricted.clear()
    # a restriction that fails is not kept, and names each twist's block
    cohind._torus_block.cache_clear()

    def refuse(cols, blk, cut):
        raise StructureError(f"boundary of degree 1 leaves the truncation at depth {cut}")

    monkeypatch.setattr(cohind, "_restrict", refuse)
    for lam in (-5, -7):
        with pytest.raises(StructureError, match=(
                rf"^block \({first[lam][0]},\): boundary of degree 1 leaves the truncation")):
            build_standard_complex(pa, one_dim_module(pa, (lam, 0)), win)


def test_chambers_build_the_box_and_n_plus_one_translates_past_it(pa, monkeypatch):
    built = {}
    real = cohind._torus_blocks

    def spy(pair, mod, cuts):
        built.update(cuts)
        return real(pair, mod, cuts)

    monkeypatch.setattr(cohind, "_torus_blocks", spy)
    v = one_dim_module(pa, (-5, 0))
    w = tensor_onedim(v, lambda_top(pa))
    cx = build_standard_complex(pa, v, Window.segment(-120, 120))
    big = cohind._translate_degree(pa) + 1
    # the grades are the l-weight -3 and -3 - 2 (the leg f): the box is
    # [-5, -3], each odd ray's first translate is one past its wall, and
    # an even ray, with no grade of its residue, is built at its first
    # value alone
    assert sorted(built) == [(n,) for n in sorted(
        [*range(-5, -2), -6, -2, *range(-7, -7 - 2 * big, -2), *range(-1, -1 + 2 * big, 2)])]
    assert all(cut == w.weight_gap(n) for n, cut in built.items())
    # every farther point takes the outermost block of its ray, and only
    # the built blocks are kept
    _, (runs,), _, _ = cohind._torus_chambers(pa, w, Window.segment(-120, 120), 0)
    assert runs[-5 - 2 * big] == range(-5 - 2 * big, -121, -2)
    assert runs[-3 + 2 * big] == range(-3 + 2 * big, 121, 2)
    assert list(runs[-3 - 2 * big]) == [-3 - 2 * big]
    assert set(cx.blocks) <= set(built)


def test_a_translate_with_one_entry_off_fails_the_certificate(pa, monkeypatch):
    # the odd ray below the box runs -7, -9, ... with its outermost built
    # block N steps out
    far = -7 - 2 * cohind._translate_degree(pa)
    _rescale_degree_one(monkeypatch, lambda n: 2 if n == (-9,) else 1)
    with pytest.raises(StructureError, match=(
            rf"^chamber \(<-5\) at \({far},\): translate \(-9,\) differs in degree 1$")):
        build_standard_complex(pa, one_dim_module(pa, (-5, 0)), Window.segment(-120, 120))


def test_the_certificate_reads_n_plus_one_translates(pa, monkeypatch):
    # on that ray, entries times 1 + t(t-1)...(t-N+1) at step t: a
    # polynomial of degree N that agrees on the first N translates and
    # not on the next, so a certificate of N translates would pass it
    bound = cohind._translate_degree(pa)

    def factor(n):
        t = (-7 - n[0]) // 2
        return 1 + prod(t - i for i in range(bound)) if t >= 0 and n[0] % 2 else 1

    _rescale_degree_one(monkeypatch, factor)
    with pytest.raises(StructureError, match=rf"^chamber \(<-5\) at \({-7 - 2 * bound},\)"):
        build_standard_complex(pa, one_dim_module(pa, (-5, 0)), Window.segment(-120, 120))


def test_the_certificate_reads_the_whole_grid(pd, monkeypatch):
    # in the rank-2 cone below both walls, entries times
    # 1 + (t1 - N)(t2 - N): equal on both lines through the outermost
    # block, and not inside the grid
    bound = cohind._translate_degree(pd)

    def factor(n):
        t1, t2 = (-4 - n[0]) // 2, (-5 - n[1]) // 2
        inside = t1 >= 0 and t2 >= 0 and n[0] % 2 == 0 and n[1] % 2
        return 1 + (t1 - bound) * (t2 - bound) if inside else 1

    _rescale_degree_one(monkeypatch, factor)
    far = (-4 - 2 * bound, -5 - 2 * bound)
    with pytest.raises(StructureError, match=(
            rf"^chamber \(<-2, <-3\) at \({far[0]}, {far[1]}\): translate")):
        build_standard_complex(pd, one_dim_module(pd, (-2, 0, -3, 0)),
                               Window.box((-16, -16), (16, 16)))


# ---------------------------------------------------------------------------
# leg products, memoized per process by input

D_WIN = Window.box((-4, -4), (4, 4))


def test_a_second_build_straightens_nothing(pd, cold_blocks, monkeypatch):
    v = one_dim_module(pd, (-4, 0, -2, 0))
    first = build_standard_complex(pd, v, D_WIN)
    # the second build assembles its blocks again, from the kept products
    cohind._torus_block.cache_clear()
    calls = []
    mul = UElt.__mul__

    def spy(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(UElt, "__mul__", spy)
    second = build_standard_complex(pd, v, D_WIN)
    assert calls == []
    assert second.characters == first.characters
    # the spy sees the products over a fresh algebra, which none share
    fresh = product_pair()
    build_standard_complex(fresh, one_dim_module(fresh, (-4, 0, -2, 0)), D_WIN)
    assert calls


def test_leg_products_stay_with_their_pair(pd):
    # a leg index names a leg of one pair: after a build on the shared
    # pair, the same legs in the other order must not reuse its products
    values = (-2, 0, -3, 0)
    build_standard_complex(pd, one_dim_module(pd, values), D_WIN)
    f1, f2 = pd.hl_basis
    swapped = replace(pd, hl_basis=(f2, f1))
    fresh = replace(product_pair(), hl_basis=(f2, f1))
    got = build_standard_complex(swapped, one_dim_module(swapped, values), D_WIN)
    want = build_standard_complex(fresh, one_dim_module(fresh, values), D_WIN)
    assert got.characters == want.characters
    assert not want.homology_character(0).is_zero()


# ---------------------------------------------------------------------------
# monomial listings, memoized per process by input

LISTING_CASES = [("A", -5, Window.segment(-16, 16)), ("A", 3, Window.segment(-16, 16)),
                 ("D", (-2, -3), D_WIN), ("D", (-4, -2), D_WIN)]


def _module(pair, fam, lam):
    return one_dim_module(pair, (lam[0], 0, lam[1], 0) if fam == "D" else (lam, 0))


def _listing_run(fam, lam, win):
    """One case on the shared pair: its report bytes, its blocks, and per
    block one deeper its basis keys per degree, in order, and boundaries."""
    report = run_case(VerificationCase(fam, lam, window=win)).to_json_bytes()
    pair = pair_by_name(fam)
    v = _module(pair, fam, lam)
    w = tensor_onedim(v, lambda_top(pair))
    deep = _torus_blocks(pair, w, {n: w.weight_gap(n) for n in win.points()})
    keys = {n: ([list(cd.items()) for cd in got.cols], got.deep.boundaries)
            for n, got in deep}
    return report, build_standard_complex(pair, v, win).blocks, keys


def test_kept_listings_leak_no_state_between_cases():
    def forget():
        cohind._monos.cache_clear()
        cohind._leg_product.cache_clear()
        cohind._torus_block.cache_clear()

    cold = []
    for case in LISTING_CASES:
        forget()
        cold.append(_listing_run(*case))
    forget()
    assert [_listing_run(*case) for case in LISTING_CASES] == cold
    # a margin build lists deeper than any case, and the cases that
    # follow it give the same bytes
    for fam, lam, win in LISTING_CASES[::2]:
        pair = pair_by_name(fam)
        before = cohind._monos.cache_info().currsize
        build_standard_complex(pair, _module(pair, fam, lam), win, margin=8)
        assert cohind._monos.cache_info().currsize > before
    assert [_listing_run(*case) for case in reversed(LISTING_CASES)] == cold[::-1]


def test_a_shallow_read_of_a_deep_listing_keeps_the_live_blocks(pa):
    # block 12 has a basis at its proved depth, and none at depth 0; after
    # a listing that deep, a read at depth 0 must still leave it out
    w = tensor_onedim(one_dim_module(pa, (-4, 0)), lambda_top(pa))
    n = (12,)
    assert dict(_torus_blocks(pa, w, {n: w.weight_gap(n)}))
    assert dict(_torus_blocks(pa, w, {n: -1})) == {}


def test_the_oracle_keeps_off_the_kept_listings(monkeypatch):
    def tripwire(*args):
        raise AssertionError(f"the oracle used a memo of the algebraic side {args}")

    monkeypatch.setattr(cohind, "_monos", tripwire)
    monkeypatch.setattr(cohind, "_leg_product", tripwire)
    for fam, lam, win in LISTING_CASES[::2]:
        pair = replace(pair_by_name(fam))
        w = tensor_onedim(_module(pair, fam, lam), lambda_top(pair))
        assert not p_deg0_oracle(pair, w, win).is_zero()


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


def test_open_orbit_matches_oracle(pb):
    v = one_dim_module(pb, (1, 1), parity=0)
    w = tensor_onedim(v, lambda_top(pb))
    h0 = derived_p(pb, v, 0, WIN)
    assert h0 == p_deg0_oracle(pb, w, WIN)
    c = build_standard_complex(pb, v, WIN)
    assert c.top_degree == 2


def test_open_orbit_boundary_squares_to_zero(pb):
    # top degree 2 with a genuine wedge bracket: [x1, x2] = -2x1 + 2x2
    v = one_dim_module(pb, (0, 0), parity=1)
    c = build_standard_complex(pb, v, WIN)
    for blk in c.blocks.values():
        assert blk.boundary(1).mul(blk.boundary(2)).is_zero()


@pytest.mark.parametrize("lam", [-3, 0, 1, 2, 4, 7])
@pytest.mark.parametrize("par", [0, 1])
def test_open_orbit_block_reads_the_twist(pb, lam, par):
    # the twist verify feeds family B is read in full, not only its
    # parity: the degree-2 boundary of the parity-class block carries
    # -lam and lam beside the bracket's -1 and 1
    v = one_dim_module(pb, harness._VALUES["B"](lam), parity=par)
    w = tensor_onedim(v, lambda_top(pb))
    (key, got), = _open_blocks(pb, w, pb.hl_dim())
    blk = got.block
    column = {r: x for r, c, x in blk.boundaries[1].entries() if c == 0}
    want = {0: -lam, 1: -1, 3: lam, 5: 1}
    assert key == par
    assert column == {r: x for r, x in want.items() if x}


@pytest.mark.parametrize("lam", [0, 1, -3])
@pytest.mark.parametrize("par", [0, 1])
def test_open_orbit_jordan_module(pb, lam, par):
    # a two-dimensional module on which the module-action term of the
    # boundary matters: for characters a sign slip there is undone by a
    # grading automorphism, here it breaks d o d = 0
    x1 = SparseMatrix.from_rows([[lam + 2, 0], [0, lam]])
    x2 = x1.add(SparseMatrix.from_rows([[0, 1], [0, 0]]))
    v = HModule(halg=pb.halg, dim=2, action=(x1, x2),
                l_weights=((), ()), parity=(par, par))
    win = Window.segment(-8, 8)
    h0, *higher = build_standard_complex(pb, v, win).characters
    expect = {(n,): 2 for n in range(-8, 9) if n % 2 == par}
    assert h0 == Character("torus-weight", expect, parity=par)
    assert all(h.is_zero() for h in higher)
    assert h0 == p_deg0_oracle(pb, tensor_onedim(v, lambda_top(pb)), win)


@pytest.mark.parametrize("legs", [((2, 0), (0, 1)), ((0, 1), (1, 0)),
                                  ((1, 0), (0, -3))])
@pytest.mark.parametrize("lam, par", [(0, 0), (1, 1), (-3, 0)])
def test_open_orbit_accepts_any_basis_of_the_quotient(pb, legs, lam, par):
    # the algebra part is U(h) on the basis of h, whatever basis of h/l
    # the wedge legs use: rescaled, swapped or mixed legs give the same
    # homology, and the oracle agrees with degree 0
    x1, x2 = pb.h.basis
    other = replace(pb, hl_basis=tuple(vec_add(vec_scale(a, x1), vec_scale(b, x2))
                                       for a, b in legs))
    v = one_dim_module(pb, (-lam, -lam), parity=par)
    w = tensor_onedim(v, lambda_top(pb))
    win = Window.segment(-8, 8)
    got = build_standard_complex(other, v, win).characters
    assert got == build_standard_complex(pb, v, win).characters
    oracle = p_deg0_oracle(other, w, win)
    assert oracle == p_deg0_oracle(pb, w, win) == got[0]


def test_open_orbit_needs_k_and_h_to_span(pb):
    # with no stabilizer torus, g = k + h is what makes U(h) the algebra part
    x1 = pb.h.basis[0]
    with pytest.raises(UnsupportedK, match="together be a basis"):
        replace(pb, h=Subalg(pb.lie, (x1,)), h_labels=("x1",), hl_basis=(x1,))


# ---------------------------------------------------------------------------
# full sl2 (matrix types)


def test_full_sl2_characters(pc):
    cases = {3: (None, 3), 0: (None, 0), -5: (3, None), -2: (0, None),
             -1: (None, None)}
    for lam, (t0, t1) in cases.items():
        v = one_dim_module(pc, (lam, 0))
        h0 = derived_p(pc, v, 0)
        h1 = derived_p(pc, v, 1)
        assert h0 == Character("sl2-type", {} if t0 is None else {t0: 1})
        assert h1 == Character("sl2-type", {} if t1 is None else {t1: 1})


def test_the_opposite_borel_mirrors_family_c(pc):
    # isotropy span(h, e) with the leg e: the type model reads the rows of
    # e, not of f, and its characters are C's at the opposite twist; the
    # oracle, which builds the irreducibles' matrices, agrees in degree 0
    e, h = pc.lie.basis_vector(0), pc.lie.basis_vector(1)
    opp = replace(pc, h=Subalg(pc.lie, (h, e)), h_labels=("h", "e"), hl_basis=(e,))
    for lam in range(-6, 7):
        v = one_dim_module(opp, (lam, 0))
        got = build_standard_complex(opp, v).characters
        assert got == build_standard_complex(pc, one_dim_module(pc, (-lam, 0))).characters
        assert got[0] == p_deg0_oracle(opp, tensor_onedim(v, lambda_top(opp)))
        assert not all(ch.is_zero() for ch in got) or lam == 1


def test_full_sl2_keeps_only_the_live_type_blocks(pc):
    # types below the live range, and those of the wrong parity, have no
    # basis and are left out; the range stops at the largest grading
    cx = build_standard_complex(pc, one_dim_module(pc, (-60, 0)))
    assert sorted(cx.blocks) == [58, 60]
    assert all(any(blk.dims) for blk in cx.blocks.values())
    assert cx.characters == (Character("sl2-type", {58: 1}),
                             Character("sl2-type", {}))
    assert cx.cut is None and cx.top_degree == 1
    assert cx.homology_character(2) == Character("sl2-type", {})


@pytest.mark.parametrize("fam, values, win", [
    ("A", (-5, 0), Window.segment(-120, 120)),
    ("D", (-2, 0, -3, 0), Window.box((-6, -6), (6, 6))),
])
def test_blocks_with_no_basis_are_left_out(fam, values, win, cold_blocks, monkeypatch):
    # a window point whose block has no basis has no key and carries no
    # multiplicity in any degree, and every block assembled has a basis
    pair = pair_by_name(fam)
    assembled = []
    real = cohind._assemble

    def spy(*args):
        cols, blk = real(*args)
        assembled.append(any(blk.dims))
        return cols, blk

    monkeypatch.setattr(cohind, "_assemble", spy)
    cx = build_standard_complex(pair, one_dim_module(pair, values), win)
    assert assembled and all(assembled)
    assert all(any(blk.dims) for blk in cx.blocks.values())
    points = set(win.points())
    stands = _stands_for(pair, one_dim_module(pair, values), win)
    out = {n for n, b in stands.items() if b not in cx.blocks}
    assert 0 < len(out) < len(points)
    assert not any(n in ch.data for ch in cx.characters for n in out)


@pytest.mark.parametrize("fam, values, win, wider", [
    ("A", (-5, 0), Window.segment(-120, 120), Window.segment(-1000, 1000)),
    ("D", (-2, 0, -3, 0), Window.box((-16, -16), (16, 16)), Window.box((-32, -32), (32, 32))),
])
def test_a_wider_window_assembles_no_more_blocks(fam, values, win, wider, cold_blocks,
                                                 monkeypatch):
    # past its certificate translates a chamber's blocks are shared, so
    # the blocks assembled stop growing with the window
    pair = pair_by_name(fam)
    calls = []
    real = cohind._assemble
    monkeypatch.setattr(cohind, "_assemble", lambda *args: calls.append(1) or real(*args))
    cx = build_standard_complex(pair, one_dim_module(pair, values), win)
    narrow = len(calls)
    assert 0 < len(cx.blocks) <= narrow < sum(1 for _ in win.points())
    calls.clear()
    cohind._torus_block.cache_clear()
    build_standard_complex(pair, one_dim_module(pair, values), wider)
    assert len(calls) == narrow


@pytest.mark.parametrize("fam, values, win", [
    ("A", (-5, 0), Window.segment(-20, 20)),
    ("D", (-2, 0, -3, 0), Window.box((-5, -5), (5, 5))),
])
def test_torus_blocks_are_exactly_the_live_blocks(fam, values, win):
    # a window point is a key iff some (legs, slot) grade g has a monomial
    # on the free letters of weight n - g and degree at most depth - d
    pair = pair_by_name(fam)
    w = tensor_onedim(one_dim_module(pair, values), lambda_top(pair))
    depths = {n: w.weight_gap(n) + 1 for n in win.points()}
    free = [pair.k.adjoint_weights[i] for i, c in enumerate(pair.cartan_of) if c is None]
    low: dict = {}      # weight -> least degree of a monomial of that weight
    for exps in product(range(max(depths.values()) + 1), repeat=len(free)):
        wt = tuple(sum(a * x[c] for a, x in zip(exps, free)) for c in range(len(free[0])))
        low[wt] = min(low.get(wt, sum(exps)), sum(exps))
    legs_wt = [pair.h_weight_of(xi) for xi in pair.hl_basis]
    grades = [(d, tuple(map(sum, zip(lw, *(legs_wt[i] for i in legs)))))
              for d in range(len(legs_wt) + 1)
              for legs in combinations(range(len(legs_wt)), d)
              for lw in w.l_weights]
    live = [n for n in win.points()
            if any(low.get(tuple(a - b for a, b in zip(n, g)), depths[n] + 1) <= depths[n] - d
                   for d, g in grades)]
    blocks = dict(_torus_blocks(pair, w, {n: depth - 1 for n, depth in depths.items()}))
    assert list(blocks) == live
    assert all(any(got.deep.dims) for got in blocks.values())
    assert 0 < len(live) < len(depths)


def test_full_sl2_checks_its_top_type(pc, monkeypatch):
    # the top type lies in the range proved exact; a range cut 2 short
    # ends on the live type 58, and the build refuses it
    real = cohind._sl2_blocks
    monkeypatch.setattr(cohind, "_sl2_blocks",
                        lambda pair, mod: {m: b for m, b in real(pair, mod).items() if m < 60})
    with pytest.raises(StructureError,
                       match="^type 58, degree 0: homology 1, proved 0$"):
        build_standard_complex(pc, one_dim_module(pc, (-60, 0)))


def test_homology_runs_only_at_nonzero_terms(pa, pc, cold_blocks, monkeypatch):
    calls = []
    real = cohind.homology_dim

    def spy(d_out, d_in):
        calls.append(d_out.cols)
        return real(d_out, d_in)

    monkeypatch.setattr(cohind, "homology_dim", spy)

    def nonzero_terms(blocks):
        return sum(1 for blk in blocks for n in blk.dims if n)

    cx = build_standard_complex(pc, one_dim_module(pc, (-60, 0)))
    assert 0 < len(calls) <= nonzero_terms(cx.blocks.values())
    # a torus build takes homology at two depths: the returned blocks and
    # the same blocks built one deeper
    calls.clear()
    v = one_dim_module(pa, (-4, 0))
    cx = build_standard_complex(pa, v, WIN)
    w = tensor_onedim(v, lambda_top(pa))
    deep = dict(_torus_blocks(pa, w, {n: w.weight_gap(n) for n in WIN.points()}))
    assert 0 < len(calls) <= (nonzero_terms(cx.blocks.values())
                              + nonzero_terms(got.deep for got in deep.values()))
    assert all(calls)


@pytest.mark.parametrize("fam, values, win", [
    ("A", (-4, 0), WIN),
    ("D", (-2, 0, -3, 0), Window.box((-4, -4), (4, 4))),
])
def test_a_block_the_cut_keeps_whole_is_eliminated_once(fam, values, win, cold_blocks,
                                                        monkeypatch):
    pair = pair_by_name(fam)
    calls = []
    real = cohind.homology_dim

    def spy(d_out, d_in):
        calls.append(d_out.cols)
        return real(d_out, d_in)

    monkeypatch.setattr(cohind, "homology_dim", spy)
    cx = build_standard_complex(pair, one_dim_module(pair, values), win)
    terms = sum(1 for blk in cx.blocks.values() for n in blk.dims if n)
    assert 0 < len(calls) <= terms


def test_a_margin_build_still_restricts(pa, cold_blocks, monkeypatch):
    seen = []
    real = cohind._restrict

    def spy(cols, blk, cut):
        out = real(cols, blk, cut)
        seen.append((out is blk, out.dims == blk.dims))
        return out

    monkeypatch.setattr(cohind, "_restrict", spy)
    v = one_dim_module(pa, (-5, 0))
    build_standard_complex(pa, v, WIN)
    assert seen and all(same for same, _ in seen)
    seen.clear()
    build_standard_complex(pa, v, WIN, margin=5)
    assert seen and not any(same or dims for same, dims in seen)


def test_full_sl2_matches_oracle(pc):
    v = one_dim_module(pc, (-5, 0))
    w = tensor_onedim(v, lambda_top(pc))
    h0 = derived_p(pc, v, 0)
    assert h0 == p_deg0_oracle(pc, w)


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


def test_derived_i_matches_the_mirror_chart(pa, pb):
    # on a window that is not symmetric, derived_i must reflect it and
    # twist by the top wedge: compared with the geometric side at the
    # point at infinity (the w chart), not with derived_p of a dual
    win = Window.segment(-6, 10)
    for lam in (-4, -7, 1):
        dv = dual_module(one_dim_module(pa, (lam, 0)))
        assert derived_i(pa, dv, 0, win) == delta_module(lam, win, chart="w").character()
        assert derived_i(pa, dv, 1, win).is_zero()
    for lam, par in ((0, 0), (1, 1), (2, 1)):
        dv = dual_module(one_dim_module(pb, (-lam, -lam), parity=par))
        assert derived_i(pb, dv, 0, win) == laurent_module(lam, par, win, chart="w").character()
        assert derived_i(pb, dv, 1, win).is_zero() and derived_i(pb, dv, 2, win).is_zero()


def test_two_step_module_is_additive(pa):
    # non-split extension of the (mu-2) character by the mu character:
    # homology characters only see the associated graded
    mu = -4
    halg = pa.halg
    h_mat = SparseMatrix(2, 2, [(0, 0, Fraction(mu)), (1, 1, Fraction(mu - 2))])
    f_mat = SparseMatrix(2, 2, [(1, 0, ONE)])
    w2 = HModule(halg=halg, dim=2, action=(h_mat, f_mat),
                 l_weights=((mu,), (mu - 2,)))
    win = Window.segment(-10, 10)
    got = derived_p(pa, w2, 0, win)
    parts = (Counter(derived_p(pa, one_dim_module(pa, (m, 0)), 0, win).data)
             for m in (mu, mu - 2))
    assert got.data == sum(parts, Counter())
    assert derived_p(pa, w2, 1, win).is_zero()


def test_a_module_of_both_parities_adds_up_far_out(pa):
    # l-weights of both parities give both residues a grade, so neither
    # ray past the box is empty, and its proved blocks must still add up
    mu = -4
    h_mat = SparseMatrix(2, 2, [(0, 0, Fraction(mu)), (1, 1, Fraction(mu + 1))])
    w2 = HModule(halg=pa.halg, dim=2, action=(h_mat, SparseMatrix.zero(2, 2)),
                 l_weights=((mu,), (mu + 1,)))
    win = Window.segment(-40, 40)
    for j in (0, 1):
        parts = (Counter(derived_p(pa, one_dim_module(pa, (m, 0)), j, win).data)
                 for m in (mu, mu + 1))
        assert derived_p(pa, w2, j, win).data == sum(parts, Counter())
    assert len(derived_p(pa, w2, 0, win).data) > 40


def test_zero_module(pa):
    z = HModule(halg=pa.halg, dim=0,
                action=(SparseMatrix.zero(0, 0),) * 2, l_weights=())
    c = build_standard_complex(pa, z, WIN)
    assert all(c.homology_character(d).is_zero() for d in range(2))


def test_truncation_guards(pa, monkeypatch):
    v = one_dim_module(pa, (-4, 0))
    with pytest.raises(ValueError, match="window"):
        build_standard_complex(pa, v)
    # one below the proved cut wherever it is positive, every default A
    # and D case must refuse loudly: the cut is sharp
    _lower_the_proved_cut(monkeypatch)
    for c in default_cases("A") + default_cases("D"):
        with pytest.raises(WindowTooSmall):
            run_case(c)


def test_window_too_small_names_its_block_and_degree(pa, monkeypatch):
    _lower_the_proved_cut(monkeypatch)
    v = one_dim_module(pa, (-4, 0))
    with pytest.raises(WindowTooSmall) as err:
        build_standard_complex(pa, v, WIN)
    assert str(err.value).startswith(
        "block (0,), degree 0: homology 0 at depth 0 but 1 at depth 1")


def test_parity_blocks_build_every_boundary(pb):
    # B is exact at every depth; its cut dim(h/l) = 2 is the least at
    # which every wedge degree has a term, so both boundaries are live
    for values, par in (((0, 0), 0), ((-1, -1), 1)):
        cx = build_standard_complex(pb, one_dim_module(pb, values, parity=par),
                                    Window.segment(-8, 8))
        for blk in cx.blocks.values():
            assert len(blk.boundaries) == 2
            assert not any(b.is_zero() for b in blk.boundaries)
