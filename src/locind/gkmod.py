"""Weight-graded modules, finite-dimensional isotropy modules, characters.

Everything downstream compares modules through their characters, so this
module fixes the common vocabulary: integer weight lattices for a torus,
highest-weight types for the full sl2 symmetry, inclusive windows for
truncating infinite gradings, finite-dimensional modules over an
isotropy subalgebra (with disconnected-stabilizer parity labels), and
the block-graded module container used by the localization side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as _iproduct
from typing import Iterator, Mapping, Sequence

from .exactla import ZERO, SparseMatrix, scalar
from .liealg import LieAlg, PairData, StructureError, Vec

Weight = tuple[int, ...]


class NonInvariantCharacter(ValueError):
    """The proposed linear functional is not a Lie algebra character."""


class WeightNotIntegral(ValueError):
    """A torus weight came out non-integral, so no group action exists."""


class WindowTooSmall(ValueError):
    """The requested truncation cannot support the requested answer."""


def as_weight(w: int | Sequence[int], rank: int) -> Weight:
    if isinstance(w, int):
        if rank != 1:
            raise ValueError(f"scalar weight for rank-{rank} torus")
        return (w,)
    t = tuple(int(x) for x in w)
    if len(t) != rank:
        raise ValueError(f"weight {t} has wrong rank (expected {rank})")
    return t


def weight_add(a: Weight, b: Weight) -> Weight:
    return tuple(x + y for x, y in zip(a, b))


def weight_neg(a: Weight) -> Weight:
    return tuple(-x for x in a)


@dataclass(frozen=True)
class Window:
    """Inclusive lattice box used to truncate weight gradings."""

    lo: Weight
    hi: Weight

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi):
            raise ValueError("window corners of different rank")
        if any(a > b for a, b in zip(self.lo, self.hi)):
            raise ValueError(f"empty window {self.lo}..{self.hi}")

    @classmethod
    def segment(cls, a: int, b: int) -> "Window":
        return cls((a,), (b,))

    @classmethod
    def box(cls, lo: Sequence[int], hi: Sequence[int]) -> "Window":
        return cls(tuple(int(x) for x in lo), tuple(int(x) for x in hi))

    @property
    def rank(self) -> int:
        return len(self.lo)

    def contains(self, w: int | Sequence[int]) -> bool:
        t = as_weight(w, self.rank)
        return all(a <= x <= b for a, x, b in zip(self.lo, t, self.hi))

    def points(self) -> Iterator[Weight]:
        yield from _iproduct(*(range(a, b + 1) for a, b in zip(self.lo, self.hi)))

    def expand(self, margin: int) -> "Window":
        return Window(tuple(a - margin for a in self.lo),
                      tuple(b + margin for b in self.hi))

    def span(self) -> int:
        return max(b - a for a, b in zip(self.lo, self.hi))

    def __str__(self) -> str:
        if self.rank == 1:
            return f"[{self.lo[0]}..{self.hi[0]}]"
        return "x".join(f"[{a}..{b}]" for a, b in zip(self.lo, self.hi))


# ---------------------------------------------------------------------------
# finite-dimensional isotropy modules


@dataclass(frozen=True)
class HModule:
    """Finite-dimensional module over an isotropy algebra.

    ``action[i]`` is the matrix of the i-th basis generator of ``halg``.
    ``l_weights`` records, per basis vector, the weight under the torus
    part of the stabilizer's compact intersection; ``parity`` records the
    sign character of a two-component stabilizer when there is one.
    """

    halg: LieAlg
    dim: int
    action: tuple[SparseMatrix, ...]
    l_weights: tuple[Weight, ...]
    parity: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if len(self.action) != self.halg.dim:
            raise StructureError("need one action matrix per generator")
        for m in self.action:
            if m.rows != self.dim or m.cols != self.dim:
                raise StructureError("action matrix of wrong shape")
        if len(self.l_weights) != self.dim:
            raise StructureError("need one torus weight per basis vector")
        if self.parity is not None:
            if len(self.parity) != self.dim or any(p not in (0, 1) for p in self.parity):
                raise StructureError("parity labels must be 0/1 per basis vector")
        for i in range(self.halg.dim):
            for j in range(i + 1, self.halg.dim):
                lhs = self.action[i].mul(self.action[j]).sub(
                    self.action[j].mul(self.action[i]))
                if lhs != self.matrix_of(self.halg.bracket_basis(i, j)):
                    raise StructureError(
                        f"action violates [{self.halg.labels[i]},{self.halg.labels[j]}]")

    def matrix_of(self, coords: Sequence[Fraction]) -> SparseMatrix:
        """Matrix of the element with these coordinates in the halg basis."""
        return SparseMatrix.combination(self.dim, self.dim, self.action, coords)

    def value(self, i: int) -> Fraction:
        """Scalar of generator i; only meaningful for one-dimensional modules."""
        if self.dim != 1:
            raise StructureError("scalar value of a higher-dimensional module")
        return self.action[i].entry(0, 0)

    def weight_gap(self, n: Weight) -> int:
        """Half the largest l1 distance from n to a basis weight, rounded down."""
        return max((sum(abs(a - b) for a, b in zip(n, lw)) // 2
                    for lw in self.l_weights), default=0)


def _l_torus_generators(pair: PairData) -> list[Vec]:
    carts = pair.k.cartan_generators()
    return [carts[i] for i in pair.l_group.torus_indices]


def _integral(x: Fraction, what: str) -> int:
    if x.denominator != 1:
        raise WeightNotIntegral(f"{what} evaluates to non-integer {x}")
    return int(x)


def one_dim_module(pair: PairData, values: Sequence[int | str | Fraction],
                   parity: int | None = None) -> HModule:
    """One-dimensional module over the pair's isotropy algebra.

    ``values`` lists the scalars of the isotropy basis (in the pair's
    presentation order).  Scalars that fail to kill brackets are
    rejected; torus weights must come out integral; a two-component
    stabilizer requires an explicit parity in {0, 1}.
    """
    halg = pair.h_as_lie()
    vals = tuple(scalar(v) for v in values)
    if len(vals) != halg.dim:
        raise StructureError(f"need {halg.dim} scalars, got {len(vals)}")
    for i in range(halg.dim):
        for j in range(i + 1, halg.dim):
            br = halg.bracket_basis(i, j)
            got = sum((g * vals[c] for c, g in enumerate(br)), start=ZERO)
            if got != 0:
                raise NonInvariantCharacter(
                    f"scalars do not vanish on [{halg.labels[i]},{halg.labels[j]}]")
    lw = tuple(_integral(
        sum((c * vals[i] for i, c in enumerate(pair.h.coords(g))), start=ZERO),
        "torus weight") for g in _l_torus_generators(pair))
    if pair.l_group.component_order == 2:
        if parity not in (0, 1):
            raise ValueError("two-component stabilizer: parity 0 or 1 required")
        par: tuple[int, ...] | None = (parity,)
    else:
        if parity is not None:
            raise ValueError("parity given but the stabilizer is connected")
        par = None
    action = tuple(SparseMatrix(1, 1, [(0, 0, v)] if v != 0 else [])
                   for v in vals)
    return HModule(halg=halg, dim=1, action=action, l_weights=(lw,), parity=par)


def _ad_trace(lie: LieAlg, x: Vec) -> Fraction:
    t = ZERO
    for j in range(lie.dim):
        t += lie.bracket(x, lie.basis_vector(j))[j]
    return t


def lambda_top(pair: PairData) -> HModule:
    """Top exterior power of (ambient / isotropy) as a one-dim module.

    The isotropy algebra acts on the quotient by its adjoint action; on
    the top wedge this is the trace, i.e. trace on the ambient algebra
    minus trace on the isotropy algebra.
    """
    halg = pair.h_as_lie()
    vals = []
    for i in range(halg.dim):
        x = pair.h.basis[i]
        ambient_tr = _ad_trace(pair.lie, x)
        sub_tr = ZERO
        for j in range(halg.dim):
            sub_tr += halg.bracket(halg.basis_vector(i), halg.basis_vector(j))[j]
        vals.append(ambient_tr - sub_tr)
    parity: int | None
    if pair.l_group.component_order == 2:
        # the nontrivial stabilizer component is central in the matrix
        # group, so its adjoint action on the quotient is trivial
        parity = 0
    else:
        parity = None
    return one_dim_module(pair, vals, parity=parity)


def tensor_onedim(m: HModule, c: HModule) -> HModule:
    """Tensor a module with a one-dimensional module over the same algebra."""
    if c.dim != 1:
        raise StructureError("second factor must be one-dimensional")
    if m.halg.labels != c.halg.labels or m.halg._table != c.halg._table:
        raise StructureError("factors live over different algebras")
    ident = SparseMatrix.identity(m.dim)
    action = tuple(m.action[i].add(ident.scale(c.value(i)))
                   for i in range(m.halg.dim))
    lw = tuple(weight_add(m.l_weights[b], c.l_weights[0]) for b in range(m.dim))
    if (m.parity is None) != (c.parity is None):
        raise StructureError("parity data present on only one factor")
    par = None if m.parity is None else tuple(
        (m.parity[b] + c.parity[0]) % 2 for b in range(m.dim))
    return HModule(halg=m.halg, dim=m.dim, action=action, l_weights=lw, parity=par)


def dual_module(m: HModule) -> HModule:
    """Contragredient module: negated transpose action, negated weights."""
    action = tuple(a.transpose().scale(-1) for a in m.action)
    lw = tuple(weight_neg(w) for w in m.l_weights)
    return HModule(halg=m.halg, dim=m.dim, action=action,
                   l_weights=lw, parity=m.parity)


def check_module_compatible(pair: PairData, m: HModule) -> None:
    """Check a module's grading data against the pair's weight tables.

    Isotropy generators that are weight vectors for the compact torus
    must shift the recorded torus weights by their adjoint weight, the
    parity labels must exist exactly when the stabilizer has two
    components, and generator actions must preserve parity (the identity
    component cannot move between components).
    """
    halg = pair.h_as_lie()
    if m.halg.labels != halg.labels or m.halg._table != halg._table:
        raise StructureError("module is not over this pair's isotropy algebra")
    if (pair.l_group.component_order == 2) != (m.parity is not None):
        raise StructureError("parity labels do not match the component group")
    tor = pair.l_group.torus_indices
    for i in range(halg.dim):
        x = pair.h.basis[i]
        ws = {pair.k.adjoint_weights[j] for j, c in enumerate(x) if c != 0}
        if len(ws) == 1:
            w = ws.pop()
            shift = tuple(w[t] for t in tor)
            for r, c, _ in m.action[i].entries():
                if m.l_weights[r] != weight_add(m.l_weights[c], shift):
                    raise StructureError(
                        f"action of {halg.labels[i]!r} breaks the torus grading")
        if m.parity is not None:
            for r, c, _ in m.action[i].entries():
                if m.parity[r] != m.parity[c]:
                    raise StructureError(
                        f"action of {halg.labels[i]!r} breaks parity")


# ---------------------------------------------------------------------------
# characters


@dataclass
class Character:
    """Multiplicity function, either torus weights or sl2 types.

    ``data`` maps a weight tuple (kind "torus-weight") or a nonnegative
    highest weight (kind "sl2-type") to an integer multiplicity.
    Negative multiplicities are allowed so Euler characteristics can be
    expressed; ``parity`` tags the sign character of a two-component
    stabilizer when one is in play.
    """

    kind: str
    data: dict
    parity: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("torus-weight", "sl2-type"):
            raise ValueError(f"unknown character kind {self.kind!r}")
        clean = {}
        for k, v in self.data.items():
            v = int(v)
            if v == 0:
                continue
            if self.kind == "torus-weight":
                key = (k,) if isinstance(k, int) else tuple(int(x) for x in k)
            else:
                key = int(k)
                if key < 0:
                    raise ValueError("sl2 types are nonnegative highest weights")
            clean[key] = v
        self.data = clean
        if self.parity is not None and self.parity not in (0, 1):
            raise ValueError("parity must be 0 or 1")
        if not clean:
            # the zero character carries no parity tag
            self.parity = None

    def is_zero(self) -> bool:
        return not self.data

    def total_dim(self) -> int:
        if self.kind == "torus-weight":
            return sum(self.data.values())
        return sum(v * (n + 1) for n, v in self.data.items())

    def restrict(self, window: Window) -> "Character":
        if self.kind != "torus-weight":
            raise ValueError("only torus-weight characters restrict to windows")
        return Character(self.kind,
                         {w: v for w, v in self.data.items() if window.contains(w)},
                         parity=self.parity)

    def dual(self) -> "Character":
        if self.kind == "torus-weight":
            return Character(self.kind,
                             {weight_neg(w): v for w, v in self.data.items()},
                             parity=self.parity)
        return Character(self.kind, dict(self.data), parity=self.parity)

    def add(self, other: "Character") -> "Character":
        if self.kind != other.kind:
            raise ValueError("cannot add characters of different kinds")
        if self.is_zero():
            par = other.parity
        elif other.is_zero():
            par = self.parity
        elif self.parity == other.parity:
            par = self.parity
        else:
            raise ValueError("cannot add characters of different parities")
        out = dict(self.data)
        for k, v in other.data.items():
            out[k] = out.get(k, 0) + v
        return Character(self.kind, out, parity=par)

    def negate(self) -> "Character":
        return Character(self.kind, {k: -v for k, v in self.data.items()},
                         parity=self.parity)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Character) and self.kind == other.kind
                and self.data == other.data and self.parity == other.parity)

    def to_jsonable(self) -> dict:
        if self.kind == "torus-weight":
            data = {",".join(map(str, w)): m for w, m in sorted(self.data.items())}
        else:
            data = {str(n): m for n, m in sorted(self.data.items())}
        out: dict = {"kind": self.kind, "data": data}
        if self.parity is not None:
            out["parity"] = self.parity
        return out


def character_of(dims: Mapping[Weight | int, int],
                 parity: int | None = None) -> Character:
    return Character("torus-weight", dict(dims), parity=parity)


def sl2_types_from_weights(weights: Mapping[int, int]) -> dict[int, int]:
    """Recover type multiplicities from an h-weight multiplicity function.

    Peels highest weights from the top; raises ValueError when the input
    is not the weight function of any finite-dimensional representation.
    """
    work = {int(w): int(m) for w, m in weights.items() if m}
    if any(m < 0 for m in work.values()):
        raise ValueError("negative multiplicity in weight data")
    types: dict[int, int] = {}
    while work:
        n = max(work)
        if n < 0:
            raise ValueError("weight data is not symmetric about zero")
        t = work[n]
        types[n] = t
        for w in range(n, -n - 1, -2):
            rem = work.get(w, 0) - t
            if rem < 0:
                raise ValueError("weight data does not peel into sl2 types")
            if rem:
                work[w] = rem
            else:
                work.pop(w, None)
    return types


def weights_of_types(types: Mapping[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for n, m in types.items():
        for w in range(-n, n + 1, 2):
            out[w] = out.get(w, 0) + m
    return {w: m for w, m in out.items() if m}


# ---------------------------------------------------------------------------
# graded modules with named operators


@dataclass
class GradedModule:
    """Weight-graded space with block operators of fixed weight shift.

    ``ops`` maps an operator name to a pair (shift, blocks); the block at
    weight w is the matrix from the w component to the (w+shift)
    component.  Missing blocks are zero.  The container only stores a
    window's worth of an often infinite object, so operator identities
    are meaningful on interior weights only; callers pick those.
    """

    rank: int
    dims: dict[Weight, int]
    ops: dict[str, tuple[Weight, dict[Weight, SparseMatrix]]] = field(default_factory=dict)
    parity: int | None = None
    basis_names: dict[Weight, tuple[str, ...]] | None = None

    def __post_init__(self) -> None:
        self.dims = {as_weight(w, self.rank): int(d)
                     for w, d in self.dims.items() if d}
        fixed: dict[str, tuple[Weight, dict[Weight, SparseMatrix]]] = {}
        for name, (shift, blocks) in self.ops.items():
            sh = as_weight(shift, self.rank)
            bl: dict[Weight, SparseMatrix] = {}
            for w, mat in blocks.items():
                w = as_weight(w, self.rank)
                src = self.dims.get(w, 0)
                dst = self.dims.get(weight_add(w, sh), 0)
                if mat.cols != src or mat.rows != dst:
                    raise ValueError(
                        f"op {name!r} block at {w}: shape {mat.rows}x{mat.cols}, "
                        f"expected {dst}x{src}")
                if not mat.is_zero():
                    bl[w] = mat
            fixed[name] = (sh, bl)
        self.ops = fixed

    def dim_at(self, w: int | Sequence[int]) -> int:
        return self.dims.get(as_weight(w, self.rank), 0)

    def weights(self) -> list[Weight]:
        return sorted(self.dims)

    def shift_of(self, name: str) -> Weight:
        return self.ops[name][0]

    def op_block(self, name: str, w: int | Sequence[int]) -> SparseMatrix:
        shift, blocks = self.ops[name]
        ww = as_weight(w, self.rank)
        hit = blocks.get(ww)
        if hit is not None:
            return hit
        return SparseMatrix.zero(self.dims.get(weight_add(ww, shift), 0),
                                 self.dims.get(ww, 0))

    def apply(self, name: str, w: int | Sequence[int],
              vec: Sequence[Fraction]) -> tuple[Weight, tuple[Fraction, ...]]:
        shift, _ = self.ops[name]
        ww = as_weight(w, self.rank)
        return weight_add(ww, shift), self.op_block(name, ww).apply(tuple(vec))

    def commutator_block(self, a: str, b: str, w: int | Sequence[int]) -> SparseMatrix:
        """Block of [A, B] out of weight w (valid on interior weights)."""
        ww = as_weight(w, self.rank)
        sa, sb = self.shift_of(a), self.shift_of(b)
        first = self.op_block(a, weight_add(ww, sb)).mul(self.op_block(b, ww))
        second = self.op_block(b, weight_add(ww, sa)).mul(self.op_block(a, ww))
        return first.sub(second)

    def character(self) -> Character:
        return Character("torus-weight", dict(self.dims), parity=self.parity)
