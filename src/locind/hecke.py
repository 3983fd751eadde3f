"""Convolution algebras attached to the compact symmetry data.

Two concrete models are implemented.  For a torus, the distribution
algebra has one idempotent per integral weight, and adjoining the
ambient enveloping algebra gives elements ``sum of e_n (x) u`` with the
Cartan letters of u evaluated against the block label; the product
admits a closed form through the adjoint weight of the left factor.
For the full sl2 the algebra is the sum of matrix blocks, one per
irreducible type, with blockwise multiplication; the same product can
also be computed the long way round, by decomposing the adjoint
conjugation through exact Clebsch-Gordan data, which provides an
independent cross-check of both conventions.

The degree-zero oracle at the bottom computes the fully reduced tensor
of the convolution algebra against an isotropy module by a direct
relation chase, independently of the resolution machinery, so the two
can be compared bit for bit.  Each model (torus blocks, parity classes,
K types) only lists its generator keys and the relations
part*leg (x) t - part (x) leg*t; one function turns any such list into
the dimension of the quotient.  The irreducible matrices and a pair's
torus tables come from liealg, below both this module and the
resolution engine; neither of the two imports the other.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .exactla import ONE, ZERO, SparseMatrix, inverse, kernel_basis, rank, scalar
from .gkmod import (Character, HModule, Weight, Window, WindowTooSmall,
                    as_weight, check_module_compatible, weight_add, weight_neg)
from .liealg import PairData, StructureError, UnsupportedK, irrep_matrices, rep_of_vec
from .pbw import Mono, UElt, bounded_exponents, monos_of_weight, reduce_block

__all__ = [
    "UnsupportedK", "RKElt", "rk_mul", "RgKElt", "rgk_mul",
    "approx_identity", "identity_support", "rep_of_uelt",
    "adjoint_matrices", "invariant_form", "clebsch_gordan",
    "fn_times_dist", "formula_mul_gen", "sl2_embed", "p_deg0_oracle",
]


# ---------------------------------------------------------------------------
# torus model


class RgKElt:
    """Torus-block element with enveloping-algebra content.

    Canonical form: coefficients on (block weight, Cartan-free monomial);
    any Cartan content handed to the constructor is evaluated.
    """

    __slots__ = ("pair", "terms")

    def __init__(self, pair: PairData,
                 terms: Mapping[tuple, Fraction] | None = None):
        self.pair = pair
        cartan_of = pair.cartan_of
        clean: dict[tuple[Weight, Mono], Fraction] = {}
        for (n, mono), c in (terms or {}).items():
            n = as_weight(n, pair.k.rank)
            for m2, c2 in reduce_block(cartan_of, pair.k.adjoint_weights, n,
                                        {tuple(mono): scalar(c)}).items():
                key = (n, m2)
                clean[key] = clean.get(key, ZERO) + c2
        self.terms = {k: v for k, v in clean.items() if v != 0}

    @classmethod
    def block(cls, pair: PairData, n, u: UElt) -> "RgKElt":
        """The element (idempotent at n) (x) u."""
        if u.lie is not pair.lie:
            raise ValueError("enveloping element over the wrong algebra")
        nn = as_weight(n, pair.k.rank)
        return cls(pair, {(nn, mono): c for mono, c in u.terms.items()})

    def mono_weight(self, mono: Mono) -> Weight:
        adj = self.pair.k.adjoint_weights
        acc = (0,) * self.pair.k.rank
        for i, a in enumerate(mono):
            if a:
                acc = tuple(x + a * y for x, y in zip(acc, adj[i]))
        return acc

    def add(self, other: "RgKElt") -> "RgKElt":
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, ZERO) + c
        return RgKElt(self.pair, out)

    def _check(self, other: "RgKElt") -> None:
        if self.pair.name != other.pair.name:
            raise ValueError("elements attached to different pairs")

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, RgKElt) and self.pair.name == other.pair.name
                and self.terms == other.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        labels = self.pair.lie.labels
        bits = []
        for (n, mono), c in sorted(self.terms.items()):
            facs = [f"{labels[i]}^{a}" if a > 1 else labels[i]
                    for i, a in enumerate(mono) if a]
            u = "*".join(facs) if facs else "1"
            bits.append(f"{c}*e[{','.join(map(str, n))}]({u})")
        return " + ".join(bits)


def rgk_mul(a: RgKElt, b: RgKElt) -> RgKElt:
    """Block product: the left factor lands on the block whose label is
    the right block shifted by the left monomial's adjoint weight."""
    a._check(b)
    lie = a.pair.lie
    out: dict[tuple[Weight, Mono], Fraction] = {}
    for (n, m1), c1 in a.terms.items():
        w1 = a.mono_weight(m1)
        for (m, m2), c2 in b.terms.items():
            if n != weight_add(m, w1):
                continue
            prod = UElt(lie, {m1: ONE}) * UElt(lie, {m2: ONE})
            for m3, c3 in reduce_block(a.pair.cartan_of, a.pair.k.adjoint_weights,
                                       n, prod.terms).items():
                key = (n, m3)
                out[key] = out.get(key, ZERO) + c1 * c2 * c3
    return RgKElt(a.pair, out)


def approx_identity(pair: PairData, weights: Iterable) -> RgKElt:
    """Sum of bare idempotents over the given block weights."""
    terms: dict[tuple, Fraction] = {}
    for n in weights:
        nn = as_weight(n, pair.k.rank)
        terms[(nn, (0,) * pair.lie.dim)] = ONE
    return RgKElt(pair, terms)


def identity_support(x: RgKElt) -> frozenset[Weight]:
    """Blocks a finite idempotent sum must cover to fix x on both sides."""
    out = set()
    for (n, mono) in x.terms:
        out.add(n)
        out.add(weight_add(n, weight_neg(x.mono_weight(mono))))
    return frozenset(out)


# ---------------------------------------------------------------------------
# sl2 model


class RKElt:
    """Element of the plain convolution algebra of K = sl2: one square
    block per irreducible type.  The torus model is RgKElt.
    """

    __slots__ = ("data",)

    def __init__(self, data: Mapping):
        blocks = {}
        for n, mat in data.items():
            n = int(n)
            if mat.rows != n + 1 or mat.cols != n + 1:
                raise ValueError(f"type-{n} block must be {n+1}x{n+1}")
            if not mat.is_zero():
                blocks[n] = mat
        self.data = blocks

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RKElt) and self.data == other.data

    def __repr__(self) -> str:
        return " + ".join(f"End(V{n}) block" for n in sorted(self.data)) or "0"


def rk_mul(a: RKElt, b: RKElt) -> RKElt:
    """Convolution: blocks multiply as matrices, type by type."""
    return RKElt({n: a.data[n].mul(b.data[n]) for n in a.data if n in b.data})


def rep_of_uelt(u: UElt, n: int) -> SparseMatrix:
    """Image of an enveloping element on the type-n irreducible."""
    if u.lie.labels != ("e", "h", "f"):
        raise UnsupportedK("irreducible matrices assume the (e,h,f) presentation")
    gens = irrep_matrices(n)
    out = SparseMatrix.zero(n + 1, n + 1)
    for mono, c in u.terms.items():
        m = SparseMatrix.identity(n + 1)
        for i, a in enumerate(mono):
            for _ in range(a):
                m = m.mul(gens[i])
        out = out.add(m.scale(c))
    return out


def sl2_embed(u: UElt, types: Iterable[int]) -> RKElt:
    """The element acting as u on each listed block and zero elsewhere."""
    return RKElt({n: rep_of_uelt(u, n) for n in types})


def adjoint_matrices() -> tuple[SparseMatrix, SparseMatrix, SparseMatrix]:
    """Adjoint action of (e, h, f) on the algebra itself, basis (e, h, f)."""
    ade = SparseMatrix.from_rows([[0, -2, 0], [0, 0, 1], [0, 0, 0]])
    adh = SparseMatrix.from_rows([[2, 0, 0], [0, 0, 0], [0, 0, -2]])
    adf = SparseMatrix.from_rows([[0, 0, 0], [-1, 0, 0], [0, 2, 0]])
    return ade, adh, adf


def invariant_form() -> tuple[SparseMatrix, SparseMatrix]:
    """Invariant symmetric form on the adjoint module and its inverse."""
    b = SparseMatrix.from_rows([[0, 0, 1], [0, 2, 0], [1, 0, 0]])
    return b, inverse(b)


def _tensor_action(x2: SparseMatrix, xr: SparseMatrix, r: int) -> SparseMatrix:
    """x2 (x) 1 + 1 (x) xr on the 3(r+1)-dimensional tensor space."""
    ent = []
    for i1, i2, v in x2.entries():
        for b in range(r + 1):
            ent.append((i1 * (r + 1) + b, i2 * (r + 1) + b, v))
    for b1, b2, v in xr.entries():
        for i in range(3):
            ent.append((i * (r + 1) + b1, i * (r + 1) + b2, v))
    return SparseMatrix(3 * (r + 1), 3 * (r + 1), ent)


@lru_cache(maxsize=None)
def clebsch_gordan(r: int) -> dict[int, tuple[SparseMatrix, SparseMatrix]]:
    """Exact splitting of (adjoint) (x) (type r) into irreducible types.

    Returns, per component type s, the pair (embedding, projection) with
    projection . embedding = identity and the embeddings jointly spanning.
    Highest-weight vectors are found as kernels of the raising operator
    on a weight space; lowering powers fill in the rest of each column.
    """
    ade, _, adf = adjoint_matrices()
    er, _, fr = irrep_matrices(r)
    etot = _tensor_action(ade, er, r)
    ftot = _tensor_action(adf, fr, r)
    dim = 3 * (r + 1)

    def wt(t: int) -> int:
        i, b = divmod(t, r + 1)
        return (2 - 2 * i) + (r - 2 * b)

    comps = [s for s in (r + 2, r, r - 2) if s >= 0 and (s != r or r >= 1)]
    iotas: dict[int, SparseMatrix] = {}
    for s in comps:
        space = [t for t in range(dim) if wt(t) == s]
        restr = SparseMatrix(dim, len(space),
                             [(row, j, etot.entry(row, space[j]))
                              for j in range(len(space)) for row in range(dim)
                              if etot.entry(row, space[j]) != 0])
        ker = kernel_basis(restr)
        if len(ker) != 1:
            raise ArithmeticError(f"highest-weight space of type {s} not a line")
        vec = [ZERO] * dim
        for j, c in enumerate(ker[0]):
            vec[space[j]] = c
        lead = next(c for c in vec if c != 0)
        vec = [Fraction(c) / lead for c in vec]
        cols = [tuple(vec)]
        for _ in range(s):
            cols.append(ftot.apply(cols[-1]))
        iotas[s] = SparseMatrix(dim, s + 1,
                                [(t, k, cols[k][t]) for k in range(s + 1)
                                 for t in range(dim) if cols[k][t] != 0])
    stack = SparseMatrix(dim, dim, [
        (t, off + k, v)
        for s, off in zip(comps, _offsets(comps))
        for t, k, v in iotas[s].entries()])
    unstack = inverse(stack)
    out: dict[int, tuple[SparseMatrix, SparseMatrix]] = {}
    for s, off in zip(comps, _offsets(comps)):
        pr = SparseMatrix(s + 1, dim,
                          [(rr - off, cc, v) for rr, cc, v in unstack.entries()
                           if off <= rr <= off + s])
        out[s] = (iotas[s], pr)
    return out


def _offsets(comps: Sequence[int]) -> list[int]:
    offs, acc = [], 0
    for s in comps:
        offs.append(acc)
        acc += s + 1
    return offs


def fn_times_dist(u: int, v: int, block: SparseMatrix) -> dict[int, SparseMatrix]:
    """Multiply the (u,v) adjoint matrix coefficient into a type-m block.

    The result of multiplying a function against a distribution pairs
    through the splitting of (adjoint) (x) (type r), so it spreads over
    the neighbouring types r = m-2, m, m+2.
    """
    m = block.rows - 1
    if block.cols != m + 1:
        raise ValueError("block must be square")
    out: dict[int, SparseMatrix] = {}
    for r in (m - 2, m, m + 2):
        if r < 0:
            continue
        cg = clebsch_gordan(r)
        if m not in cg:
            continue
        iota, pr = cg[m]
        a_u = SparseMatrix(r + 1, m + 1,
                           [(row - u * (r + 1), c, val)
                            for row, c, val in iota.entries()
                            if row // (r + 1) == u])
        b_v = SparseMatrix(m + 1, r + 1,
                           [(d, col - v * (r + 1), val)
                            for d, col, val in pr.entries()
                            if col // (r + 1) == v])
        res = a_u.mul(block).mul(b_v)
        if not res.is_zero():
            out[r] = res
    return out


def formula_mul_gen(xi: Sequence, x: RKElt,
                    basis: Sequence[Sequence] | None = None) -> RKElt:
    """Left-multiply a degree-one element into a block sum the long way.

    Moving the element across a distribution conjugates it by the group
    point, and the conjugation coefficients are inverse-adjoint matrix
    coefficients, which the invariant form converts to plain ones; the
    resulting function-times-distribution products are then pushed back
    down with exact Clebsch-Gordan data and the chosen spanning set acts
    on the right.  Must agree with blockwise left multiplication for any
    choice of ``basis``; the default is (e, h, f).
    """
    xi_c = [scalar(c) for c in xi]
    if basis is None:
        bas = [[ONE, ZERO, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]]
    else:
        bas = [[scalar(c) for c in b] for b in basis]
    t_mat = SparseMatrix(3, 3, [(i, j, bas[j][i]) for j in range(3)
                                for i in range(3) if bas[j][i] != 0])
    t_inv = inverse(t_mat)
    b_form, b_inv = invariant_form()
    acc: dict[int, SparseMatrix] = {}
    for j in range(3):
        right = tuple(bas[j])
        for q in range(3):
            for p in range(3):
                coef = ZERO
                for a in range(3):
                    for c in range(3):
                        coef += (t_inv.entry(j, a) * b_inv.entry(a, p)
                                 * b_form.entry(q, c) * xi_c[c])
                if coef == 0:
                    continue
                for m, block in x.data.items():
                    for r, mat in fn_times_dist(q, p, block).items():
                        piece = mat.mul(rep_of_vec(right, r)).scale(coef)
                        acc[r] = acc[r].add(piece) if r in acc else piece
    return RKElt(acc)


# ---------------------------------------------------------------------------
# degree-zero oracle


def _quotient_dim(cols: Sequence, relations: Iterable[Iterable[tuple]]) -> int:
    """Dimension of the span of the generator keys ``cols`` modulo relations.

    Each relation lists the (key, coefficient) terms of
    part*leg (x) t - part (x) leg*t.  The chases skip every product that
    would reach past the cut, so a key outside ``cols`` is a fault and
    raises StructureError.  This is the only place the oracle builds a
    relation matrix and eliminates it.
    """
    index = {key: i for i, key in enumerate(cols)}
    ent: list[tuple[int, int, Fraction]] = []
    nrows = 0
    for rel in relations:
        row: dict[int, Fraction] = {}
        for key, c in rel:
            i = index.get(key)
            if i is None:
                raise StructureError(f"relation term {key!r} left the cut")
            row[i] = row.get(i, ZERO) + c
        ent += [(nrows, i, v) for i, v in row.items() if v != 0]
        nrows += 1
    return len(index) - rank(SparseMatrix(nrows, len(index), ent))


def _leg_terms(act: SparseMatrix, part, t: int, ts: Iterable[int]) -> list[tuple]:
    """Terms -part (x) leg*t of a relation, leg acting on the module by ``act``."""
    return [((part, s), -act.entry(s, t)) for s in ts if act.entry(s, t) != 0]


def _oracle_torus_l(pair: PairData, mod: HModule,
                    cuts: Mapping[Weight, int]) -> Character:
    """Relation chase for pairs whose stabilizer meets K in the full torus.

    Block n is chased at depth cuts[n].  Each block lists the monomials
    it reads itself, from the closed form ``monos_of_weight``: its
    generators (weight n - l_weight, up to its cut) and the sources of
    its relations (weight n - wt(leg) - l_weight, up to its cut - 1).
    """
    cartan_of, adj = pair.cartan_of, pair.k.adjoint_weights
    roots, dim = pair.root_pairs, pair.lie.dim
    xi_data = [(UElt.from_vec(pair.lie, xi), pair.h_weight_of(xi),
                mod.matrix_of(pair.h.coords(xi))) for xi in pair.hl_basis]

    def relations(n: Weight, cut: int):
        for uxi, wxi, act in xi_data:
            for t in range(mod.dim):
                src = tuple(a - b - c for a, b, c in zip(n, wxi, mod.l_weights[t]))
                for mono in monos_of_weight(roots, dim, src, cut - 1):
                    prod = UElt(pair.lie, {mono: ONE}) * uxi
                    red = reduce_block(cartan_of, adj, n, prod.terms)
                    yield ([((m2, t), c2) for m2, c2 in red.items()]
                           + _leg_terms(act, mono, t, range(mod.dim)))

    dims: dict[Weight, int] = {}
    for n, cut in cuts.items():
        cols = [(mono, t) for t in range(mod.dim) for mono in monos_of_weight(
            roots, dim, tuple(a - b for a, b in zip(n, mod.l_weights[t])), cut)]
        if not cols:
            continue
        d = _quotient_dim(cols, relations(n, cut))
        if d:
            dims[n] = d
    return Character("torus-weight", dims)


def _oracle_open(pair: PairData, mod: HModule, window: Window,
                 cut: int) -> Character:
    """Relation chase when K meets the stabilizer in two points only.

    Every block carries the same copy of U(h), presented on the basis of
    h (g = k + h and a block evaluates U(k)), so one elimination per
    parity class serves all blocks of that parity.
    """
    halg = pair.halg
    monos = bounded_exponents(halg.dim, cut)
    products = []       # (part, straightened part*leg, leg action) below the cut
    for xi in pair.hl_basis:
        coords = pair.h.coords(xi)
        act = mod.matrix_of(coords)
        uxi = UElt.from_vec(halg, coords)
        for mono in monos:
            if sum(mono) + 1 > cut:
                continue
            products.append((mono, (UElt(halg, {mono: ONE}) * uxi).terms, act))
    per_parity: dict[int, int] = {}
    for p in (0, 1):
        ts = [t for t in range(mod.dim) if mod.parity[t] == p]
        if ts:
            per_parity[p] = _quotient_dim(
                [(m, t) for m in monos for t in ts],
                ([((m2, t), c2) for m2, c2 in terms.items()]
                 + _leg_terms(act, mono, t, ts)
                 for mono, terms, act in products for t in ts))
    dims: dict[Weight, int] = {}
    for n in window.points():
        d = per_parity.get(n[0] % 2, 0)
        if d:
            dims[n] = d
    seen = {p for p, d in per_parity.items() if d}
    parity = seen.pop() if len(seen) == 1 else None
    return Character("torus-weight", dims, parity=parity)


def _oracle_sl2(pair: PairData, mod: HModule) -> dict[int, int]:
    """Per-type relation chase for the full-sl2 model.

    Left equivariance lets the chase run on a single row slice of each
    block; the quotient of that slice counts the multiplicity directly.
    Only the types m that some l-weight w reaches (|w| <= m and
    m = w mod 2) are chased: on row slot d the h-relations are m - 2d
    minus h's action on W, invertible unless m - 2d is an l-weight, so
    any other type, those above every |l-weight| included, has no
    coinvariants.
    """
    acts = [mod.matrix_of(pair.h.coords(xi)) for xi in pair.h.basis]
    # the irreducibles act through K's (e, h, f): read each generator in
    # the coordinates of the K embedding, not of the ambient basis
    gens_k = [pair.lie.expand(xi, pair.k.embedding) for xi in pair.h.basis]
    weights = {w for (w,) in mod.l_weights}
    types: dict[int, int] = {}
    for m in range(max(map(abs, weights), default=-1) + 1):
        if not any(abs(w) <= m and (m - w) % 2 == 0 for w in weights):
            continue
        rels = []
        for xk, act in zip(gens_k, acts):
            pm = rep_of_vec(xk, m)
            rels += ([((b, t), v) for b, v in pm.row(d)]
                     + _leg_terms(act, d, t, range(mod.dim))
                     for d in range(m + 1) for t in range(mod.dim))
        types[m] = _quotient_dim([(d, t) for d in range(m + 1) for t in range(mod.dim)], rels)
    return types


def p_deg0_oracle(pair: PairData, mod: HModule, window: Window | None = None,
                  margin: int = 0) -> Character:
    """Character of the fully reduced degree-zero tensor, chased directly.

    Works block by block (or type by type) from the canonical-form basis
    and the right-module relations alone.  The truncated chases are cut
    by the argument that proves the resolution (Knapp-Vogan 1995): below
    depth c a block misses only its piece of S^{>c}(g/h) (x) W.  For
    families A and D g/h is spanned by the e's, so that piece is zero
    once c reaches the block's ``weight_gap``, and each block is chased
    at its own cut.  For the two-point stabilizer the chase presents W
    over U(h) and is right at every depth; it is cut at dim(h/l) so
    that products of two legs are straightened too.  ``margin`` adds
    depth past these cuts.  Each block is chased again at its cut+2 and
    must agree, otherwise WindowTooSmall names the first weight that
    moved.  Full sl2 takes no window; ``_oracle_sl2`` proves its range.
    """
    check_module_compatible(pair, mod)
    if pair.k.kind == "sl2":
        return Character("sl2-type", _oracle_sl2(pair, mod))
    if window is None:
        raise ValueError("torus symmetry needs a window")
    if pair.two_point:
        cut = pair.hl_dim() + margin
        cuts = dict.fromkeys(window.points(), cut)
        got, deeper = (_oracle_open(pair, mod, window, cut + k) for k in (0, 2))
    else:
        cuts = {n: mod.weight_gap(n) + margin for n in window.points()}
        got, deeper = (_oracle_torus_l(pair, mod, {n: c + k for n, c in cuts.items()})
                       for k in (0, 2))
    n = got.first_difference(deeper)
    if n == ("parity",):    # only the two-point chase, at one cut, has a parity
        raise WindowTooSmall(f"parity {got.parity} at cut {cut} but {deeper.parity} "
                             f"at cut {cut + 2}, past the proved cut")
    if n is not None:
        raise WindowTooSmall(
            f"weight {n}: multiplicity {got.data.get(n, 0)} at cut {cuts[n]} but "
            f"{deeper.data.get(n, 0)} at cut {cuts[n] + 2}, past the proved cut")
    return got
