"""Presentation invariance: a pair is a Lie algebra with subalgebras, not
a basis.  Re-presenting the ambient algebra on a permuted and rescaled
basis must leave every homology character and the degree-zero oracle
unchanged.  Cartan letters stay unscaled, because the torus tables
require K's generators to be ambient basis vectors.  In the order
(f, h, e) a leg must be straightened past e, which shows the values of a
torus boundary directly."""

from dataclasses import replace
from fractions import Fraction

import pytest

from locind.cohind import _torus_blocks, build_standard_complex
from locind.gkmod import Window, lambda_top, one_dim_module, tensor_onedim
from locind.hecke import p_deg0_oracle
from locind.liealg import KDescriptor, LieAlg, Subalg, pair_by_name


def represent(pair, perm, scales):
    """The pair on the ambient basis b'_k = scales[k] * b_{perm[k]}."""
    g, n = pair.lie, pair.lie.dim
    s = [Fraction(x) for x in scales]

    def vec(v):
        # v = sum_j v_j b_j, and b_{perm[k]} = b'_k / s_k
        return tuple(Fraction(v[perm[k]]) / s[k] for k in range(n))

    brackets = {(i, j): vec(tuple(s[i] * s[j] * c for c in
                                  g.bracket_basis(perm[i], perm[j])))
                for i in range(n) for j in range(i + 1, n)}
    lie = LieAlg(tuple(g.labels[p] for p in perm), brackets)
    k = KDescriptor(pair.k.kind, pair.k.rank, tuple(vec(x) for x in pair.k.embedding),
                    tuple(pair.k.adjoint_weights[p] for p in perm))
    return replace(pair, lie=lie, k=k, h=Subalg(lie, tuple(vec(x) for x in pair.h.basis)),
                   l_basis=tuple(vec(x) for x in pair.l_basis),
                   hl_basis=tuple(vec(x) for x in pair.hl_basis))


SL2_PRESENTATIONS = (((2, 1, 0), (1, 1, Fraction(1, 3))), ((0, 1, 2), (-5, 1, 2)))
PRESENTATIONS = {
    "A": SL2_PRESENTATIONS,
    "B": SL2_PRESENTATIONS,
    "C": (((0, 2, 1), (1, 2, 1)), ((2, 1, 0), (1, 1, 1))),
    "D": (((3, 4, 5, 0, 1, 2), (2, 1, -1, 1, 1, Fraction(1, 3))),
          ((0, 1, 2, 3, 4, 5), (1, 1, 2, -5, 1, 1))),
}
# (isotropy scalars, parity, window) per family; family C takes no window
TWISTS = {
    "A": [((-4, 0), None, Window.segment(-6, 6)), ((1, 0), None, Window.segment(-6, 6))],
    "B": [((0, 0), 0, Window.segment(-6, 6)), ((-1, -1), 1, Window.segment(-6, 6))],
    "C": [((0, 0), None, None), ((3, 0), None, None)],
    "D": [((-2, 0, -3, 0), None, Window.box((-4, -4), (4, 4))),
          ((0, 0, -1, 0), None, Window.box((-4, -4), (4, 4)))],
}


def _answers(pair, values, parity, window):
    v = one_dim_module(pair, values, parity=parity)
    return (build_standard_complex(pair, v, window).characters,
            p_deg0_oracle(pair, tensor_onedim(v, lambda_top(pair)), window))


@pytest.mark.parametrize("family,perm,scales,values,parity,window", [
    pytest.param(fam, perm, scales, *twist, id=f"{fam}-p{i}-t{j}")
    for fam, presentations in PRESENTATIONS.items()
    for i, (perm, scales) in enumerate(presentations)
    for j, twist in enumerate(TWISTS[fam])])
def test_answers_do_not_depend_on_the_basis(family, perm, scales, values, parity, window):
    pair = pair_by_name(family)
    assert _answers(represent(pair, perm, scales), values, parity, window) == \
        _answers(pair, values, parity, window)


def test_a_leg_past_e_reads_the_block_weight():
    # in the order (f, h, e) the leg f must pass e: e.f = f.e + h, and h
    # is evaluated at the block's weight n = -2.  At the proved cut no A
    # or D block with H_0 != 0 has a live boundary, so only a direct look
    # at the matrix sees this value.
    q = represent(pair_by_name("A"), (2, 1, 0), (1, 1, 1))
    w = tensor_onedim(one_dim_module(q, (-4, 0)), lambda_top(q))
    ((cols, blk, *_),) = dict(_torus_blocks(q, w, {(-2,): 2})).values()
    assert cols == [{((0, 0, 0), (), 0): 0, ((1, 0, 1), (), 0): 1},
                    {((0, 0, 1), (0,), 0): 0}]
    assert blk.dims == (2, 1)
    assert sorted(blk.boundaries[0].entries()) == [(0, 0, -2), (1, 0, 1)]
