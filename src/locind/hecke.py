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
can be compared bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .exactla import ONE, ZERO, SparseMatrix, inverse, kernel_basis, rank, scalar
from .gkmod import (Character, HModule, Weight, Window, WindowTooSmall,
                    as_weight, check_module_compatible, weight_add, weight_neg)
from .liealg import PairData, UnsupportedK, Vec
from .pbw import (Mono, UElt, bounded_monos, monos_by_weight, nonreduced_indices,
                  reduce_block)

__all__ = [
    "UnsupportedK", "RKElt", "rk_mul", "RgKElt", "rgk_mul",
    "approx_identity", "identity_support", "irrep_matrices", "rep_of_uelt",
    "adjoint_matrices", "invariant_form", "clebsch_gordan",
    "fn_times_dist", "formula_mul_gen", "sl2_embed", "p_deg0_oracle",
]


# ---------------------------------------------------------------------------
# torus model


@dataclass(frozen=True)
class TorusInfo:
    rank: int
    cartan_of: tuple[int | None, ...]   # ambient basis index -> torus coordinate
    adj: tuple[Weight, ...]


def torus_info(pair: PairData) -> TorusInfo:
    if pair.k.kind != "torus":
        raise UnsupportedK(f"not a torus pair: {pair.k.kind!r}")
    cart: list[int | None] = [None] * pair.lie.dim
    for coord, emb in enumerate(pair.k.embedding):
        nz = [i for i, c in enumerate(emb) if c != 0]
        if len(nz) != 1 or emb[nz[0]] != 1:
            raise UnsupportedK("torus generators must be ambient basis vectors")
        cart[nz[0]] = coord
    return TorusInfo(pair.k.rank, tuple(cart), pair.k.adjoint_weights)


class RKElt:
    """Element of the plain convolution algebra of K.

    Torus kind: finite rational combination of weight idempotents.
    sl2 kind: one square block per irreducible type.
    """

    __slots__ = ("kind", "data")

    def __init__(self, kind: str, data: Mapping):
        if kind == "torus":
            clean = {}
            for w, c in data.items():
                w = w if isinstance(w, tuple) else (int(w),)
                c = scalar(c)
                if c != 0:
                    clean[w] = clean.get(w, ZERO) + c
            self.data = {w: c for w, c in clean.items() if c != 0}
        elif kind == "sl2":
            blocks = {}
            for n, mat in data.items():
                n = int(n)
                if mat.rows != n + 1 or mat.cols != n + 1:
                    raise ValueError(f"type-{n} block must be {n+1}x{n+1}")
                if not mat.is_zero():
                    blocks[n] = mat
            self.data = blocks
        else:
            raise UnsupportedK(f"unknown RK kind {kind!r}")
        self.kind = kind

    def add(self, other: "RKElt") -> "RKElt":
        if self.kind != other.kind:
            raise ValueError("mixed kinds")
        if self.kind == "torus":
            out = dict(self.data)
            for w, c in other.data.items():
                out[w] = out.get(w, ZERO) + c
            return RKElt("torus", out)
        out = dict(self.data)
        for n, m in other.data.items():
            out[n] = out[n].add(m) if n in out else m
        return RKElt("sl2", out)

    def scale(self, c) -> "RKElt":
        c = scalar(c)
        if self.kind == "torus":
            return RKElt("torus", {w: c * v for w, v in self.data.items()})
        return RKElt("sl2", {n: m.scale(c) for n, m in self.data.items()})

    def is_zero(self) -> bool:
        return not self.data

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, RKElt) and self.kind == other.kind
                and self.data == other.data)

    def __repr__(self) -> str:
        if self.kind == "torus":
            body = " + ".join(f"{c}*e[{','.join(map(str, w))}]"
                              for w, c in sorted(self.data.items()))
        else:
            body = " + ".join(f"End(V{n}) block" for n in sorted(self.data))
        return body or "0"


def rk_mul(a: RKElt, b: RKElt) -> RKElt:
    """Convolution: idempotents multiply pointwise, blocks multiply as matrices."""
    if a.kind != b.kind:
        raise ValueError("mixed kinds")
    if a.kind == "torus":
        return RKElt("torus", {w: c * b.data[w]
                               for w, c in a.data.items() if w in b.data})
    return RKElt("sl2", {n: a.data[n].mul(b.data[n])
                         for n in a.data if n in b.data})


class RgKElt:
    """Torus-block element with enveloping-algebra content.

    Canonical form: coefficients on (block weight, Cartan-free monomial);
    any Cartan content handed to the constructor is evaluated.
    """

    __slots__ = ("pair", "info", "terms")

    def __init__(self, pair: PairData,
                 terms: Mapping[tuple, Fraction] | None = None):
        self.pair = pair
        self.info = torus_info(pair)
        clean: dict[tuple[Weight, Mono], Fraction] = {}
        for (n, mono), c in (terms or {}).items():
            n = as_weight(n, self.info.rank)
            for m2, c2 in reduce_block(self.info.cartan_of, self.info.adj, n,
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
        acc = (0,) * self.info.rank
        for i, a in enumerate(mono):
            if a:
                acc = tuple(x + a * y for x, y in zip(acc, self.info.adj[i]))
        return acc

    def add(self, other: "RgKElt") -> "RgKElt":
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, ZERO) + c
        return RgKElt(self.pair, out)

    def sub(self, other: "RgKElt") -> "RgKElt":
        return self.add(other.scale(-1))

    def scale(self, c) -> "RgKElt":
        c = scalar(c)
        return RgKElt(self.pair, {k: c * v for k, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

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
            for m3, c3 in reduce_block(a.info.cartan_of, a.info.adj, n, prod.terms).items():
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


@lru_cache(maxsize=None)
def irrep_matrices(n: int) -> tuple[SparseMatrix, SparseMatrix, SparseMatrix]:
    """Matrices of (e, h, f) on the (n+1)-dimensional irreducible.

    Basis u_0..u_n with u_k = f^k u_0: h u_k = (n-2k) u_k,
    f u_k = u_{k+1}, e u_k = k(n-k+1) u_{k-1}; all entries integers.
    """
    if n < 0:
        raise ValueError("negative highest weight")
    e = SparseMatrix(n + 1, n + 1,
                     [(k - 1, k, scalar(k * (n - k + 1))) for k in range(1, n + 1)])
    h = SparseMatrix(n + 1, n + 1,
                     [(k, k, scalar(n - 2 * k)) for k in range(n + 1) if n != 2 * k])
    f = SparseMatrix(n + 1, n + 1,
                     [(k + 1, k, ONE) for k in range(n)])
    return e, h, f


@lru_cache(maxsize=None)
def rep_of_vec(v: Vec, n: int) -> SparseMatrix:
    """Image of a Lie algebra vector on the type-n irreducible (immutable, so cached)."""
    return SparseMatrix.combination(n + 1, n + 1, irrep_matrices(n), v)


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
    return RKElt("sl2", {n: rep_of_uelt(u, n) for n in types})


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
        vec = [c / lead for c in vec]
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
    if x.kind != "sl2":
        raise UnsupportedK("long-form product is for the sl2 model")
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
    return RKElt("sl2", acc)


# ---------------------------------------------------------------------------
# degree-zero oracle


def _oracle_torus_l(pair: PairData, mod: HModule, window: Window,
                    cut: int) -> Character:
    """Relation chase for pairs whose stabilizer meets K in the full torus."""
    info = torus_info(pair)
    if pair.l_group.torus_indices != tuple(range(info.rank)):
        raise UnsupportedK("stabilizer torus must use all K coordinates in order")
    buckets = monos_by_weight(nonreduced_indices(info.cartan_of), cut, info.adj)
    xi_data = []
    for xi in pair.hl_basis:
        ws = {pair.k.adjoint_weights[j] for j, c in enumerate(xi) if c != 0}
        if len(ws) != 1:
            raise UnsupportedK("isotropy complement must consist of weight vectors")
        xi_data.append((UElt.from_vec(pair.lie, xi), ws.pop(),
                        mod.matrix_of(pair.h.coords(xi))))
    dims: dict[Weight, int] = {}
    for n in window.points():
        cols: dict[tuple[Mono, int], int] = {}
        for t in range(mod.dim):
            need = tuple(a - b for a, b in zip(n, mod.l_weights[t]))
            for mono in buckets.get(need, ()):
                cols[(mono, t)] = len(cols)
        if not cols:
            continue
        rows: list[dict[int, Fraction]] = []
        for uxi, wxi, act in xi_data:
            for t in range(mod.dim):
                src = tuple(a - b - c for a, b, c in
                            zip(n, wxi, mod.l_weights[t]))
                for mono in buckets.get(src, ()):
                    if sum(mono) + 1 > cut:
                        continue
                    row: dict[int, Fraction] = {}
                    prod = UElt(pair.lie, {mono: ONE}) * uxi
                    for m2, c2 in reduce_block(info.cartan_of, info.adj, n, prod.terms).items():
                        idx = cols.get((m2, t))
                        if idx is None:
                            # product escaped the cut; drop the relation
                            row = None
                            break
                        row[idx] = row.get(idx, ZERO) + c2
                    if row is None:
                        continue
                    for s in range(mod.dim):
                        v = act.entry(s, t)
                        if v != 0:
                            idx = cols.get((mono, s))
                            if idx is None:
                                row = None
                                break
                            row[idx] = row.get(idx, ZERO) - v
                    if row:
                        rows.append(row)
        mat = SparseMatrix(len(rows), len(cols),
                           [(r, c, v) for r, row in enumerate(rows)
                            for c, v in row.items() if v != 0])
        d = len(cols) - rank(mat)
        if d:
            dims[n] = d
    return Character("torus-weight", dims)


def _oracle_open(pair: PairData, mod: HModule, window: Window,
                 cut: int) -> Character:
    """Relation chase when K meets the stabilizer in two points only.

    Every block carries the same copy of the reduced enveloping algebra
    (straightening in the adapted order never produces a Cartan letter),
    so one elimination per parity class serves all blocks of that parity.
    """
    adapted = pair.adapted()
    kp = pair.k_part
    hl_idx = pair.adapted_legs()
    per_parity: dict[int, int] = {}
    monos = bounded_monos(range(kp, adapted.dim), cut, adapted.dim)
    for p in (0, 1):
        ts = [t for t in range(mod.dim) if mod.parity[t] == p]
        if not ts:
            continue
        cols = {(mono, t): i for i, (mono, t) in
                enumerate((m, t) for m in monos for t in ts)}
        rows = []
        for j, xi in zip(hl_idx, pair.hl_basis):
            act = mod.matrix_of(pair.h.coords(xi))
            uxi = UElt.gen(adapted, j)
            for mono in monos:
                if sum(mono) + 1 > cut:
                    continue
                prod = UElt(adapted, {mono: ONE}) * uxi
                for t in ts:
                    row: dict[int, Fraction] = {}
                    ok = True
                    for m2, c2 in prod.terms.items():
                        if any(m2[i] for i in range(kp)):
                            raise ArithmeticError(
                                "Cartan letter appeared in the adapted chase")
                        idx = cols.get((m2, t))
                        if idx is None:
                            ok = False
                            break
                        row[idx] = row.get(idx, ZERO) + c2
                    if not ok:
                        continue
                    for s in ts:
                        v = act.entry(s, t)
                        if v != 0:
                            row[(cols[(mono, s)])] = row.get(cols[(mono, s)], ZERO) - v
                    if row:
                        rows.append(row)
        mat = SparseMatrix(len(rows), len(cols),
                           [(r, c, v) for r, row in enumerate(rows)
                            for c, v in row.items() if v != 0])
        per_parity[p] = len(cols) - rank(mat)
    dims: dict[Weight, int] = {}
    for n in window.points():
        d = per_parity.get(n[0] % 2, 0)
        if d:
            dims[n] = d
    seen = {p for p, d in per_parity.items() if d}
    parity = seen.pop() if len(seen) == 1 else None
    return Character("torus-weight", dims, parity=parity)


def _oracle_sl2(pair: PairData, mod: HModule, max_type: int) -> dict[int, int]:
    """Per-type relation chase for the full-sl2 model.

    Left equivariance lets the chase run on a single row slice of each
    block; the quotient of that slice counts the multiplicity directly.
    """
    types: dict[int, int] = {}
    for m in range(max_type + 1):
        _, hm, fm = irrep_matrices(m)
        rels = []
        ncols = (m + 1) * mod.dim
        col = lambda d, t: d * mod.dim + t
        for xi in pair.h.basis:
            pm = rep_of_vec(xi, m)
            act = mod.matrix_of(pair.h.coords(xi))
            for d in range(m + 1):
                for t in range(mod.dim):
                    row: dict[int, Fraction] = {}
                    for b in range(m + 1):
                        v = pm.entry(d, b)
                        if v != 0:
                            row[col(b, t)] = row.get(col(b, t), ZERO) + v
                    for s in range(mod.dim):
                        v = act.entry(s, t)
                        if v != 0:
                            row[col(d, s)] = row.get(col(d, s), ZERO) - v
                    if row:
                        rels.append(row)
        mat = SparseMatrix(len(rels), ncols,
                           [(r, c, v) for r, row in enumerate(rels)
                            for c, v in row.items() if v != 0])
        mult = ncols - rank(mat)
        if mult:
            types[m] = mult
    return types


def _default_cut(mod: HModule, window: Window, margin: int) -> int:
    return max((mod.weight_gap(n) for n in window.points()), default=0) + margin


def p_deg0_oracle(pair: PairData, mod: HModule, window: Window | None = None,
                  max_type: int | None = None, cut: int | None = None,
                  margin: int = 4) -> Character:
    """Character of the fully reduced degree-zero tensor, chased directly.

    Works block by block (or type by type) from the canonical-form basis
    and the right-module relations alone.  For the truncated chases the
    computation is repeated with a deeper cut and must agree, otherwise
    WindowTooSmall is raised.
    """
    check_module_compatible(pair, mod)
    if pair.k.kind == "sl2":
        if max_type is None:
            raise ValueError("sl2 symmetry needs max_type")
        return Character("sl2-type", _oracle_sl2(pair, mod, max_type))
    if window is None:
        raise ValueError("torus symmetry needs a window")
    if len(pair.l_group.torus_indices) == 0:
        chase, default = _oracle_open, 4 + margin
    else:
        chase, default = _oracle_torus_l, _default_cut(mod, window, margin)
    c = cut if cut is not None else default
    got = chase(pair, mod, window, c)
    if got != chase(pair, mod, window, c + 2):
        raise WindowTooSmall("chase did not stabilize; raise the cut")
    return got
