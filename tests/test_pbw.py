"""Straightening and ring structure of the enveloping algebra."""

import random
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest

from locind.liealg import (KDescriptor, LieAlg, PairData, Subalg, UnsupportedK, direct_sum,
                           open_orbit_pair, pair_by_name, sl2)
from locind.pbw import UElt, bounded_exponents, monos_of_weight, root_degree


@pytest.fixture(scope="module")
def g():
    return sl2()


def _gen(g, lab):
    return UElt.gen(g, lab)


def test_straightening_fe(g):
    e, f = _gen(g, "e"), _gen(g, "f")
    # fe reorders to ef - h in the (e, h, f) monomial order
    assert (f * e).terms == {(1, 0, 1): Fraction(1), (0, 1, 0): Fraction(-1)}
    assert (e * f).terms == {(1, 0, 1): Fraction(1)}


def test_straightening_deeper(g):
    e, h, f = (_gen(g, x) for x in "ehf")
    # h e = e h + 2 e
    assert (h * e).terms == {(1, 1, 0): Fraction(1), (1, 0, 0): Fraction(2)}
    # f e^2 = e^2 f - 2 e h - 2 e  (apply fe = ef - h twice)
    lhs = f * e * e
    rhs = e * e * f - (e * h).scale(2) - e.scale(2)
    assert lhs == rhs


def test_unit_and_zero(g):
    one, zero = UElt.one(g), UElt(g)
    x = _gen(g, "e") * _gen(g, "f") + _gen(g, "h").scale(3)
    assert one * x == x == x * one
    assert zero * x == zero
    assert x - x == zero


def _algebras():
    # in the (e, f, h) order [e, f] = h lands past f, so f^a * e has
    # terms with a letter past the last letter of f^a
    sl2_efh = LieAlg(("e", "f", "h"), {(0, 1): (0, 0, 1), (0, 2): (-2, 0, 0),
                                       (1, 2): (0, 2, 0)})
    return {"sl2": sl2(), "sl2-efh": sl2_efh, "B.h": pair_by_name("B").halg,
            "D": pair_by_name("D").lie}


def test_associativity_random():
    rng = random.Random(7)

    def rand_elt(g, gens):
        out = UElt(g)
        for _ in range(rng.randint(1, 3)):
            term = UElt.one(g).scale(rng.randint(-2, 2))
            for _ in range(rng.randint(0, 3)):
                term = term * rng.choice(gens)
            out = out + term
        return out

    for g in _algebras().values():
        gens = [UElt.one(g)] + [_gen(g, i) for i in range(g.dim)]
        for _ in range(40):
            a, b, c = (rand_elt(g, gens) for _ in range(3))
            assert (a * b) * c == a * (b * c)


def _word_rule(lie, word, memo):
    """Reference straightening: swap the first adjacent inversion of a word."""
    if word not in memo:
        p = next((p for p in range(len(word) - 1) if word[p] > word[p + 1]), None)
        if p is None:
            memo[word] = {tuple(word.count(i) for i in range(lie.dim)): 1}
            return memo[word]
        i, j = word[p], word[p + 1]
        out = dict(_word_rule(lie, word[:p] + (j, i) + word[p + 2:], memo))
        for k, gamma in enumerate(lie.bracket_basis(i, j)):
            for m, c in _word_rule(lie, word[:p] + (k,) + word[p + 2:], memo).items():
                out[m] = out.get(m, 0) + gamma * c
        memo[word] = {m: c for m, c in out.items() if c != 0}
    return memo[word]


@pytest.mark.parametrize("name, degree", [("sl2", 8), ("sl2-efh", 8), ("B.h", 8), ("D", 4)])
def test_product_rule_matches_word_rule(name, degree):
    # every monomial up to the degree times every generator, term for term
    g, memo = _algebras()[name], {}
    for mono in _lex_monos(range(g.dim), degree, g.dim):
        word = sum(((i,) * a for i, a in enumerate(mono)), ())
        for j in range(g.dim):
            got = (UElt(g, {mono: 1}) * UElt.gen(g, j)).terms
            assert got == _word_rule(g, word + (j,), memo), (mono, j)


def test_deep_product_does_not_grow_the_stack():
    # x2^1000 * x1 on B's isotropy algebra, from a cold memo, equals the
    # same product reached through steps of degree at most 100
    direct = open_orbit_pair().halg
    got = (UElt(direct, {(0, 1000): 1}) * UElt.gen(direct, 0)).terms
    del direct
    stepped = open_orbit_pair().halg
    for a in range(100, 1001, 100):
        want = (UElt(stepped, {(0, a): 1}) * UElt.gen(stepped, 0)).terms
    assert got == want
    assert len(got) == 2001 and got[(1, 1000)] == 1


def test_deep_product_memo_stays_small():
    # the memo keeps only the products asked for; one that held every
    # x2^b * x1 for b < 1000, about 2b terms each, would take over 150 MB
    lie = open_orbit_pair().halg
    tracemalloc.start()
    try:
        got = (UElt(lie, {(0, 1000): 1}) * UElt.gen(lie, 0)).terms
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(got) == 2001 and held < 8 * 2**20, held


def test_bracket_matches_lie(g):
    e, h, f = (_gen(g, x) for x in "ehf")
    assert e * f - f * e == h
    assert h * e - e * h == e.scale(2)
    assert h * f - f * h == f.scale(-2)


def test_casimir_is_central(g):
    e, h, f = (_gen(g, x) for x in "ehf")
    omega = e * f + f * e + (h * h).scale(Fraction(1, 2))
    for x in (e, h, f):
        assert omega * x == x * omega


def test_product_algebra_commuting_factors():
    gg = direct_sum(sl2(), sl2())
    e1, f2 = UElt.gen(gg, "e1"), UElt.gen(gg, "f2")
    assert e1 * f2 == f2 * e1
    # mono order respects the ambient basis order
    assert (f2 * e1).terms == {(1, 0, 0, 0, 0, 1): Fraction(1)}


def test_monomial_guard(g):
    with pytest.raises(ValueError):
        UElt(g, {(1, 0): Fraction(1)})
    with pytest.raises(ValueError):
        UElt(g, {(0, -1, 0): 1})
    with pytest.raises(ValueError):
        UElt.gen(g, 5)
    with pytest.raises(ValueError):
        UElt.gen(g, -1)
    with pytest.raises(ValueError):
        UElt.from_vec(g, (1, 0))


def _lex_monos(free, cut, dim):
    """Every exponent vector on the free letters up to degree cut, once,
    lexicographic with the letters in the order given."""
    out = []
    for expo in product(range(cut + 1), repeat=len(free)):
        if sum(expo) <= cut:
            mono = [0] * dim
            for i, a in zip(free, expo):
                mono[i] = a
            out.append(tuple(mono))
    return out


@pytest.mark.parametrize("free, cut", [((0, 2, 3, 5), 6), ((3, 1), 9),
                                       ((), 4), ((2,), 0)])
def test_bounded_monos_lex_order(free, cut):
    # on weightless letters, every exponent vector up to the cut, in the
    # letters' order
    want = [tuple(mono[i] for i in free) for mono in _lex_monos(free, cut, 6)]
    assert bounded_exponents(len(free), cut) == want


def _grouped_reference(free, adj, wants):
    """Every monomial up to the largest cap, grouped by weight, kept where wanted."""
    out = {}
    for mono in _lex_monos(free, max(wants.values(), default=0), len(adj)):
        w = tuple(sum(mono[i] * adj[i][c] for i in free) for c in range(len(adj[0])))
        if sum(mono) <= wants.get(w, -1):
            out.setdefault(w, []).append(mono)
    return out


def _letters(roots, dim, rank):
    """The free letters of a root-pair table and every letter's weight."""
    adj = [(0,) * rank] * dim
    for x, y, c, s in roots:
        adj[x] = tuple(s if cc == c else 0 for cc in range(rank))
        adj[y] = tuple(-s if cc == c else 0 for cc in range(rank))
    return sorted(i for x, y, _, _ in roots for i in (x, y)), tuple(adj)


def _sl2_fhe_pair():
    """Family A re-presented on sl2 in the order (f, h, e): the first
    letter of its root pair is the negative root."""
    g = LieAlg(("f", "h", "e"), {(0, 1): (2, 0, 0), (0, 2): (0, -1, 0), (1, 2): (0, 0, 2)})
    f, h = g.basis_vector(0), g.basis_vector(1)
    k = KDescriptor("torus", 1, (h,), ((-2,), (0,), (2,)))
    return PairData(name="closed-orbit-fhe", lie=g, k=k, h=Subalg(g, (h, f)),
                    h_labels=("h", "f"), l_basis=(h,), hl_basis=(f,))


def _diagonal_pair(weights):
    """A torus pair whose torus letters come first and act diagonally on
    root vectors of the given weights, which bracket to zero."""
    rank, dim = len(weights[0]), len(weights[0]) + len(weights)
    labels = [f"t{c}" for c in range(rank)] + [f"x{i}" for i in range(len(weights))]
    brackets = {(c, rank + i): tuple(w[c] if j == rank + i else 0 for j in range(dim))
                for c in range(rank) for i, w in enumerate(weights) if w[c]}
    lie = LieAlg(labels, brackets)
    torus = tuple(lie.basis_vector(c) for c in range(rank))
    k = KDescriptor("torus", rank, torus, ((0,) * rank,) * rank + tuple(weights))
    return PairData(name="diagonal", lie=lie, k=k, h=Subalg(lie, torus),
                    h_labels=tuple(labels[:rank]), l_basis=torus, hl_basis=())


def _tables():
    tables = {fam: (pair_by_name(fam).root_pairs, pair_by_name(fam).lie.dim,
                    pair_by_name(fam).k.rank) for fam in "AD"}
    tables["fhe"] = (_sl2_fhe_pair().root_pairs, 3, 1)
    # two pairs interleaved in the basis order, of mixed signs
    tables["mixed"] = (_diagonal_pair(((0, -2), (2, 0), (0, 2), (-2, 0))).root_pairs, 6, 2)
    return tables


def test_root_pairs_of_the_tables():
    tables = _tables()
    assert tables["A"][0] == ((0, 2, 0, 2),)
    assert tables["D"][0] == ((0, 2, 0, 2), (3, 5, 1, 2))
    assert tables["fhe"][0] == ((0, 2, 0, -2),)
    assert tables["mixed"][0] == ((2, 4, 1, -2), (3, 5, 0, 2))


@pytest.mark.parametrize("table", ["A", "D", "fhe", "mixed"])
@pytest.mark.parametrize("seed", range(4))
def test_monos_by_weight_matches_the_full_grouping(table, seed):
    roots, dim, rank = _tables()[table]
    free, adj = _letters(roots, dim, rank)
    rng = random.Random(seed)

    def weight():
        return tuple(rng.randint(-10, 10) for _ in range(rank))

    cases = [
        {weight(): rng.randint(0, 8)},
        # odd coordinates (every root weight here is even) or too far for the cap
        {(1,) * rank: 6, (24,) * rank: 3, (-3,) + (0,) * (rank - 1): 5},
        {weight(): rng.randint(0, 8) for _ in range(rng.randint(2, 12))},
    ]
    for wants in cases:
        want = _grouped_reference(free, adj, wants)
        for w, cap in wants.items():
            assert monos_of_weight(roots, dim, w, cap) == want.get(w, []), (w, cap)
            # the least degree comes first, at k = 0, and is not kept past the cap
            least = root_degree(roots, w)
            if w in want:
                assert least == sum(want[w][0]), w
            else:
                assert least is None or least > cap, w


@pytest.mark.parametrize("roots, wants", [
    # deep caps, as family A's blocks on a window of +-120 ask
    (((0, 2, 0, 2),), {(w,): 70 + w % 7 for w in range(-80, 81, 6)} | {(-3,): 74, (200,): 80}),
    # a weight reached only by spending the whole cap on one letter
    (((0, 2, 0, 2),), {(-140,): 70}),
    (((0, 2, 0, 2),), {(140,): 70}),
    # weightless letters: every exponent vector up to the cut, or none
    ((), {(): 9}),
    ((), {(): -1}),
], ids=["deep", "edge-down", "edge-up", "weightless", "weightless-none"])
def test_monos_by_weight_deep_weightless_and_zero_weight(roots, wants):
    if not roots:
        (cap,) = wants.values()
        want = _grouped_reference([0, 1, 2], ((),) * 3, wants).get((), [])
        assert bounded_exponents(3, cap) == want
        return
    free, adj = _letters(roots, 3, 1)
    want = _grouped_reference(free, adj, wants)
    for w, cap in wants.items():
        assert monos_of_weight(roots, 3, w, cap) == want.get(w, [])


@pytest.mark.parametrize("weights", [
    ((2,), (-4,)),                  # not opposite
    ((2,), (-2,), (0,)),            # a root vector of weight 0
    ((2,), (2,), (-2,)),            # three on one coordinate
    ((2, 2), (-2, -2)),             # a pair on two coordinates
    ((2, 0), (-2, 0)),              # a coordinate with no pair
], ids=["not-opposite", "weight-zero", "three-on-one", "across-two", "no-pair"])
def test_root_pairs_refuse_letters_that_do_not_pair_up(weights):
    # the closed form needs each torus coordinate to carry one pair of
    # opposite root vectors, each of weight 0 on every other coordinate
    pair = _diagonal_pair(weights)
    with pytest.raises(UnsupportedK):
        pair.root_pairs
