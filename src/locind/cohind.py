"""Standard-resolution engine for the derived induction functors.

The complex attached to a coefficient module W has terms

    convolution algebra  (x)_{l-part}  ( wedge^d (isotropy / l-part) (x) W )

and a boundary with three contributions: right multiplication of the
algebra part by a wedge leg, the module action of that leg on W, and the
bracket of two legs reduced modulo the l-part.  Degree-zero homology is
the fully reduced tensor; higher homology gives the derived functors.

Everything is reduced blockwise before any elimination happens: weight
blocks for torus symmetry, parity classes for the two-point stabilizer,
matrix types for full sl2.  Torus and parity blocks are truncated at a
PBW depth; the truncation is a subcomplex (the boundary raises word
length by at most one while the budget drops by one per wedge degree),
so each block is assembled once, at depth+1, and restricted to depth;
homology at the two depths must agree, and disagreement raises
WindowTooSmall instead of returning a guess.  By default each weight
block gets its own depth, from the distance of its weight to the module
weights.  Type blocks are finite and exact as they stand.

``derived_p`` is the homology of this complex after the coefficient
module is twisted by the top exterior power of the quotient;
``derived_i`` is obtained from it through the contragredient module, on
the reflected window, with the resulting weights negated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Mapping, Sequence

from .exactla import ONE, ZERO, SparseMatrix, homology_dim, scalar
from .gkmod import (Character, HModule, Weight, Window, WindowTooSmall,
                    check_module_compatible, dual_module, lambda_top,
                    tensor_onedim, weight_add)
from .hecke import (UnsupportedK, _bounded_monos, _monos_by_weight,
                    _nonreduced_indices, _reduce_block, rep_of_vec,
                    torus_info)
from .liealg import PairData, StructureError, Vec
from .pbw import Mono, UElt

__all__ = [
    "ChainBlock", "StdComplex", "build_standard_complex",
    "derived_p", "derived_i", "euler_characteristic",
]


# ---------------------------------------------------------------------------
# one finite chain complex (a single weight block / parity class / type)


@dataclass(frozen=True)
class ChainBlock:
    """A finite complex X_top -> ... -> X_1 -> X_0 with exact boundaries.

    ``boundaries[d]`` is the matrix of the map X_{d+1} -> X_d; the square
    of the boundary is checked on every homology call, so a sign slip
    anywhere surfaces as CompositionNonzero rather than a wrong number.
    """

    dims: tuple[int, ...]
    boundaries: tuple[SparseMatrix, ...]

    def __post_init__(self) -> None:
        if len(self.boundaries) != max(len(self.dims) - 1, 0):
            raise StructureError("need one boundary per adjacent pair of terms")
        for d, b in enumerate(self.boundaries):
            if b.rows != self.dims[d] or b.cols != self.dims[d + 1]:
                raise StructureError(f"boundary {d + 1} has the wrong shape")

    @property
    def top(self) -> int:
        return len(self.dims) - 1

    def boundary(self, d: int) -> SparseMatrix:
        """Matrix of X_d -> X_{d-1}, with zero caps at both ends."""
        if 1 <= d <= self.top:
            return self.boundaries[d - 1]
        size = self.dims[d] if 0 <= d <= self.top else 0
        return SparseMatrix.zero(0 if d <= 0 else size, size if d <= 0 else 0)

    def homology(self, d: int) -> int:
        if d < 0 or d > self.top:
            return 0
        d_out = self.boundary(d)
        d_in = (self.boundaries[d] if d < self.top
                else SparseMatrix.zero(self.dims[d], 0))
        return homology_dim(d_out, d_in)

    def euler(self) -> int:
        return sum(n if d % 2 == 0 else -n for d, n in enumerate(self.dims))


# ---------------------------------------------------------------------------
# wedge bookkeeping shared by the three block models


@dataclass(frozen=True)
class _WedgeData:
    subsets: tuple[tuple[tuple[int, ...], ...], ...]
    brackets: dict[tuple[int, int], tuple[Fraction, ...]]


def _wedge_data(pair: PairData) -> _WedgeData:
    k = pair.hl_dim()
    subsets = tuple(tuple(combinations(range(k), d)) for d in range(k + 1))
    span = list(pair.hl_basis) + list(pair.l_basis)
    brackets: dict[tuple[int, int], tuple[Fraction, ...]] = {}
    for i in range(k):
        for j in range(i + 1, k):
            b = pair.lie.bracket(pair.hl_basis[i], pair.hl_basis[j])
            if all(x == 0 for x in b):
                continue
            coords = pair.lie.expand(b, span)
            if coords is None:
                raise StructureError("wedge legs do not close into the isotropy algebra")
            cls = tuple(coords[:k])
            if any(c != 0 for c in cls):
                brackets[(i, j)] = cls
    return _WedgeData(subsets, brackets)


def _act_matrix(pair: PairData, mod: HModule, xi: Vec) -> SparseMatrix:
    act = SparseMatrix.zero(mod.dim, mod.dim)
    for i, c in enumerate(pair.h.coords(xi)):
        if c != 0:
            act = act.add(mod.action[i].scale(c))
    return act


def _boundary_matrix(cols_hi: Mapping, cols_lo: Mapping,
                     rmul: Callable, acts: Sequence[SparseMatrix],
                     brackets: Mapping[tuple[int, int], tuple[Fraction, ...]],
                     ) -> SparseMatrix:
    """Assemble one boundary map between two reduced term bases.

    Keys are (algebra part, ascending wedge legs, module slot).  The
    three contributions: move a leg into the algebra by right
    multiplication (sign (-1)^position), act with it on the module slot
    (opposite sign), and contract two legs into their bracket class
    (sign (-1)^(sum of positions), then sorted back in).
    """
    entries: dict[tuple[int, int], Fraction] = {}

    def bump(row: int, col: int, val: Fraction) -> None:
        if val != 0:
            key = (row, col)
            entries[key] = entries.get(key, ZERO) + val

    for (part, legs, t), col in cols_hi.items():
        for pos, leg in enumerate(legs):
            rem = legs[:pos] + legs[pos + 1:]
            sign = -1 if pos % 2 else 1
            for part2, c in rmul(part, leg):
                row = cols_lo.get((part2, rem, t))
                if row is None:
                    if c != 0:
                        raise StructureError("boundary image left the block basis")
                    continue
                bump(row, col, sign * c)
            act = acts[leg]
            for s in range(act.rows):
                v = act.entry(s, t)
                if v != 0:
                    row = cols_lo.get((part, rem, s))
                    if row is None:
                        raise StructureError("module action left the block basis")
                    bump(row, col, -sign * v)
        for p1 in range(len(legs)):
            for p2 in range(p1 + 1, len(legs)):
                cls = brackets.get((legs[p1], legs[p2]))
                if cls is None:
                    continue
                rem2 = tuple(x for q, x in enumerate(legs) if q not in (p1, p2))
                base = -1 if (p1 + p2) % 2 else 1
                for b, cb in enumerate(cls):
                    if cb == 0 or b in rem2:
                        continue
                    smaller = sum(1 for x in rem2 if x < b)
                    target = tuple(sorted(rem2 + (b,)))
                    row = cols_lo.get((part, target, t))
                    if row is None:
                        raise StructureError("bracket term left the block basis")
                    bump(row, col, (base if smaller % 2 == 0 else -base) * cb)
    return SparseMatrix(len(cols_lo), len(cols_hi),
                        [(r, c, v) for (r, c), v in entries.items() if v != 0])


# ---------------------------------------------------------------------------
# the three block models


def _torus_blocks(pair: PairData, mod: HModule,
                  depths: Mapping[Weight, int],
                  ) -> dict[Weight, tuple[list[dict], ChainBlock]]:
    """Weight-block complexes, block n truncated at PBW depth depths[n].

    Returns each block with its basis keys per degree, for ``_restrict``.
    The product of a monomial with a wedge leg does not depend on the
    block, so it is straightened once per (monomial, leg) for the whole
    call; only the evaluation of its Cartan letters is per block.
    """
    info = torus_info(pair)
    if pair.l_group.torus_indices != tuple(range(info.rank)):
        raise UnsupportedK("stabilizer torus must use all K coordinates in order")
    wedge = _wedge_data(pair)
    free = _nonreduced_indices(info)
    buckets = _monos_by_weight(info, free, max(depths.values()), pair.lie.dim)
    leg_u = [UElt.from_vec(pair.lie, xi) for xi in pair.hl_basis]
    leg_w = [pair.h_weight_of(xi) for xi in pair.hl_basis]
    acts = [_act_matrix(pair, mod, xi) for xi in pair.hl_basis]
    top = pair.hl_dim()
    prods: dict[tuple[Mono, int], Mapping[Mono, Fraction]] = {}
    blocks: dict[Weight, tuple[list[dict], ChainBlock]] = {}
    for n, cut in depths.items():
        cols: list[dict] = []
        for d in range(top + 1):
            cd: dict = {}
            for legs in wedge.subsets[d]:
                wi = (0,) * info.rank
                for i in legs:
                    wi = weight_add(wi, leg_w[i])
                for t in range(mod.dim):
                    need = tuple(a - b - c for a, b, c in
                                 zip(n, wi, mod.l_weights[t]))
                    for mono in buckets.get(need, ()):
                        if sum(mono) <= cut - d:
                            cd[(mono, legs, t)] = len(cd)
            cols.append(cd)

        def rmul(mono: Mono, leg: int, _n: Weight = n) -> list:
            terms = prods.get((mono, leg))
            if terms is None:
                terms = (UElt(pair.lie, {mono: ONE}) * leg_u[leg]).terms
                prods[(mono, leg)] = terms
            return list(_reduce_block(info, _n, terms).items())

        bnds = tuple(_boundary_matrix(cols[d + 1], cols[d], rmul, acts,
                                      wedge.brackets) for d in range(top))
        blocks[n] = (cols, ChainBlock(tuple(len(c) for c in cols), bnds))
    return blocks


def _open_blocks(pair: PairData, mod: HModule,
                 cut: int) -> dict[int, tuple[list[dict], ChainBlock]]:
    """Parity-class complexes for the two-point stabilizer.

    Straightening in the adapted order never produces a letter from the
    compact part (checked at runtime), so one complex per parity class
    serves every weight block of that class.  The nontrivial stabilizer
    component is central, hence acts trivially on the wedge legs, and
    the parity bookkeeping reduces to the module slots alone.  Each class
    comes with its basis keys per degree, for ``_restrict``.
    """
    adapted = pair.adapted()
    kp = pair.k_part
    free = list(range(kp, adapted.dim))
    hl_idx = []
    for xi in pair.hl_basis:
        coords = pair.lie.expand(xi, pair.adapted_vectors)
        nz = [i for i, c in enumerate(coords) if c != 0]
        if len(nz) != 1 or coords[nz[0]] != 1 or nz[0] < kp:
            raise UnsupportedK("adapted basis must contain the isotropy complement")
        hl_idx.append(nz[0])
    wedge = _wedge_data(pair)
    leg_u = [UElt.gen(adapted, j) for j in hl_idx]
    acts = [_act_matrix(pair, mod, xi) for xi in pair.hl_basis]
    monos = _bounded_monos(free, cut, adapted.dim)
    top = pair.hl_dim()

    def rmul(mono: Mono, leg: int) -> list:
        prod = UElt(adapted, {mono: ONE}) * leg_u[leg]
        for m2 in prod.terms:
            if any(m2[i] for i in range(kp)):
                raise ArithmeticError("Cartan letter appeared in the adapted boundary")
        return list(prod.terms.items())

    blocks: dict[int, tuple[list[dict], ChainBlock]] = {}
    for p in (0, 1):
        ts = [t for t in range(mod.dim) if mod.parity[t] == p]
        if not ts:
            continue
        cols = []
        for d in range(top + 1):
            cd: dict = {}
            for legs in wedge.subsets[d]:
                for mono in monos:
                    if sum(mono) <= cut - d:
                        for t in ts:
                            cd[(mono, legs, t)] = len(cd)
            cols.append(cd)
        bnds = tuple(_boundary_matrix(cols[d + 1], cols[d], rmul, acts,
                                      wedge.brackets) for d in range(top))
        blocks[p] = (cols, ChainBlock(tuple(len(c) for c in cols), bnds))
    return blocks


def _restrict(key, cols: Sequence[Mapping], blk: ChainBlock,
              cut: int) -> ChainBlock:
    """The truncation at depth cut of a block built at a greater depth.

    ``cols[d]`` maps the basis keys (algebra part, legs, slot) of degree d
    to their indices; the kept keys are those whose algebra part has
    degree at most cut - d.  Because the truncation is a subcomplex, no
    kept column may have an entry in a dropped row; one that does raises
    StructureError naming the block and the degree.
    """
    index = [{i: j for j, i in enumerate(i for (mono, _, _), i in cd.items()
                                         if sum(mono) <= cut - d)}
             for d, cd in enumerate(cols)]
    bnds = []
    for d, b in enumerate(blk.boundaries):
        rows, kept = index[d], index[d + 1]
        entries = []
        for r, c, v in b.entries():
            if c not in kept:
                continue
            if r not in rows:
                raise StructureError(
                    f"block {key}: boundary of degree {d + 1} leaves the "
                    f"truncation at depth {cut}")
            entries.append((rows[r], kept[c], v))
        bnds.append(SparseMatrix(len(rows), len(kept), entries))
    return ChainBlock(tuple(len(ix) for ix in index), tuple(bnds))


def _sl2_blocks(pair: PairData, mod: HModule,
                max_type: int) -> dict[int, ChainBlock]:
    """Per-type complexes for the full-sl2 model.

    Left equivariance cuts each matrix block to a single row slice; the
    slice entry at column b carries grading m - 2b, and only the slots
    balancing the wedge and module gradings survive the l-part tensor,
    so each term is a short explicit list and no depth cut is needed.
    """
    wedge = _wedge_data(pair)
    leg_w = [pair.h_weight_of(xi)[0] for xi in pair.hl_basis]
    acts = [_act_matrix(pair, mod, xi) for xi in pair.hl_basis]
    top = pair.hl_dim()
    blocks: dict[int, ChainBlock] = {}
    for m in range(max_type + 1):
        pms = [rep_of_vec(xi, m) for xi in pair.hl_basis]
        cols = []
        for d in range(top + 1):
            cd: dict = {}
            for legs in wedge.subsets[d]:
                wi = sum(leg_w[i] for i in legs)
                for t in range(mod.dim):
                    mu = mod.l_weights[t][0]
                    for b in range(m + 1):
                        if m - 2 * b == wi + mu:
                            cd[(b, legs, t)] = len(cd)
            cols.append(cd)

        def rmul(b: int, leg: int, _m: int = m, _pms: list = pms) -> list:
            pm = _pms[leg]
            return [(c, pm.entry(b, c)) for c in range(_m + 1)
                    if pm.entry(b, c) != 0]

        bnds = tuple(_boundary_matrix(cols[d + 1], cols[d], rmul, acts,
                                      wedge.brackets) for d in range(top))
        blocks[m] = ChainBlock(tuple(len(c) for c in cols), bnds)
    return blocks


# ---------------------------------------------------------------------------
# the assembled complex


def _spread_parity(per: Mapping[int, int], window: Window) -> Character:
    dims = {n: per[n[0] % 2] for n in window.points() if per.get(n[0] % 2)}
    live = {p for p, v in per.items() if v}
    parity = live.pop() if len(live) == 1 else None
    return Character("torus-weight", dims, parity=parity)


class StdComplex:
    """The reduced standard complex of a pair and a coefficient module.

    ``model`` is "torus" (weight blocks), "open" (parity classes), or
    "sl2" (matrix types); ``blocks`` maps the block key to its
    ChainBlock.  Homology characters are computed once, at two depths
    for the truncated models, and frozen.
    """

    def __init__(self, pair: PairData, coefficients: HModule, model: str,
                 blocks: dict, homology: tuple[Character, ...],
                 window: Window | None = None, max_type: int | None = None,
                 cut: int | None = None):
        self.pair = pair
        self.coefficients = coefficients
        self.model = model
        self.blocks = blocks
        self.window = window
        self.max_type = max_type
        self.cut = cut
        self._homology = homology

    @property
    def top_degree(self) -> int:
        return self.pair.hl_dim()

    @property
    def character_kind(self) -> str:
        return "sl2-type" if self.model == "sl2" else "torus-weight"

    def term_character(self, d: int) -> Character:
        if d < 0 or d > self.top_degree:
            return Character(self.character_kind, {})
        if self.model == "sl2":
            return Character("sl2-type",
                             {m: blk.dims[d] for m, blk in self.blocks.items()})
        if self.model == "open":
            return _spread_parity({p: blk.dims[d] for p, blk in self.blocks.items()},
                                  self.window)
        return Character("torus-weight",
                         {n: blk.dims[d] for n, blk in self.blocks.items()})

    def homology_character(self, d: int) -> Character:
        if d < 0 or d > self.top_degree:
            return Character(self.character_kind, {})
        return self._homology[d]

    def homology_characters(self) -> tuple[Character, ...]:
        return self._homology


def _homology_characters(model: str, blocks: dict, window: Window | None,
                         top: int) -> tuple[Character, ...]:
    out = []
    for d in range(top + 1):
        if model == "sl2":
            out.append(Character("sl2-type",
                                 {m: blk.homology(d) for m, blk in blocks.items()}))
        elif model == "open":
            out.append(_spread_parity(
                {p: blk.homology(d) for p, blk in blocks.items()}, window))
        else:
            out.append(Character("torus-weight",
                                 {n: blk.homology(d) for n, blk in blocks.items()}))
    return tuple(out)


def _block_cut(pair: PairData, mod: HModule, n: Weight, margin: int) -> int:
    gap = max((sum(abs(a - b) for a, b in zip(n, lw)) // 2
               for lw in mod.l_weights), default=0)
    return gap + 2 * pair.hl_dim() + margin


def _depth_cut(pair: PairData, mod: HModule, window: Window, margin: int) -> int:
    return max(_block_cut(pair, mod, n, margin) for n in window.points())


def build_standard_complex(pair: PairData, v: HModule,
                           window: Window | None = None,
                           max_type: int | None = None,
                           cut: int | None = None,
                           margin: int = 4) -> StdComplex:
    """Build the complex for the coefficient module v, twisted internally.

    The twist by the top exterior power of (ambient / isotropy) is part
    of the functor and is applied here; pass the untwisted module.  For
    torus symmetry supply a window (and optionally a depth cut for every
    block; by default each weight block gets its own); for full sl2
    supply max_type.  Truncated models are built once at depth cut+1 and
    restricted to cut; the two must agree on homology, otherwise
    WindowTooSmall is raised.
    """
    w = tensor_onedim(v, lambda_top(pair))
    check_module_compatible(pair, w)
    top = pair.hl_dim()
    if pair.k.kind == "sl2":
        if max_type is None:
            raise ValueError("sl2 symmetry needs max_type")
        blocks = _sl2_blocks(pair, w, max_type)
        hom = _homology_characters("sl2", blocks, None, top)
        return StdComplex(pair, w, "sl2", blocks, hom, max_type=max_type)
    if window is None:
        raise ValueError("torus symmetry needs a window")
    model = "open" if len(pair.l_group.torus_indices) == 0 else "torus"
    c = cut if cut is not None else _depth_cut(pair, w, window, margin)
    if model == "open":
        cuts = {0: c, 1: c}
        deep = _open_blocks(pair, w, c + 1)
    else:
        cuts = {n: c if cut is not None else _block_cut(pair, w, n, margin)
                for n in window.points()}
        deep = _torus_blocks(pair, w, {n: k + 1 for n, k in cuts.items()})
    blocks = {key: _restrict(key, cols, blk, cuts[key])
              for key, (cols, blk) in deep.items()}
    deeper = {key: blk for key, (_, blk) in deep.items()}
    hom = _homology_characters(model, blocks, window, top)
    hom2 = _homology_characters(model, deeper, window, top)
    if hom != hom2:
        raise WindowTooSmall("homology did not stabilize at depth +1; raise the cut")
    return StdComplex(pair, w, model, blocks, hom, window=window, cut=c)


def derived_p(pair: PairData, v: HModule, j: int,
              window: Window | None = None, max_type: int | None = None,
              cut: int | None = None, margin: int = 4) -> Character:
    """Character of the j-th left derived functor of the quotient-side
    induction, computed as degree-j homology of the standard complex.
    Degrees outside [0, dim(isotropy/l)] are zero.
    """
    c = build_standard_complex(pair, v, window=window, max_type=max_type,
                               cut=cut, margin=margin)
    return c.homology_character(j)


def derived_i(pair: PairData, v: HModule, j: int,
              window: Window | None = None, max_type: int | None = None,
              cut: int | None = None, margin: int = 4) -> Character:
    """Character of the j-th right derived functor of the sub-side
    induction, via the contragredient module on the reflected window.
    """
    dv = dual_module(v)
    dw = None
    if window is not None:
        dw = Window.box(tuple(-x for x in window.hi),
                        tuple(-x for x in window.lo))
    return derived_p(pair, dv, j, window=dw, max_type=max_type,
                     cut=cut, margin=margin).dual()


def euler_characteristic(c: StdComplex) -> Character:
    """Alternating sum of term characters; verified against homology.

    The two alternating sums agree block by block by rank counting; the
    equality is still checked exactly so a bookkeeping slip in either
    side cannot pass silently.  Multiplicities in the result may be
    negative (it is a virtual character).
    """
    terms = Character(c.character_kind, {})
    homs = Character(c.character_kind, {})
    for d in range(c.top_degree + 1):
        t = c.term_character(d)
        h = c.homology_character(d)
        if d % 2:
            t, h = t.negate(), h.negate()
        terms = terms.add(t)
        homs = homs.add(h)
    if terms != homs:
        raise ArithmeticError("alternating sums of terms and homology disagree")
    return terms
