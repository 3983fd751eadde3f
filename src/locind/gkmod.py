"""Weights, windows, finite-dimensional isotropy modules and characters.

Everything downstream compares modules through their characters, so this
module fixes the common vocabulary: integer weight lattices for a torus,
highest-weight types for the full sl2 symmetry, inclusive windows for
truncating infinite gradings, and finite-dimensional modules over an
isotropy subalgebra (with disconnected-stabilizer parity labels).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
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
    halg = pair.halg
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
    # the torus weight is the value on each Cartan generator of K, all of
    # which lie in the stabilizer unless it is the two-point group
    carts = () if pair.two_point else pair.k.cartan_generators()
    lw = tuple(_integral(
        sum((c * vals[i] for i, c in enumerate(pair.h.coords(g))), start=ZERO),
        "torus weight") for g in carts)
    if pair.two_point:
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


@lru_cache(maxsize=None)
def lambda_top(pair: PairData) -> HModule:
    """Top exterior power of (ambient / isotropy) as a one-dim module.

    The isotropy algebra acts on the quotient by its adjoint action; on
    the top wedge this is the trace, i.e. trace on the ambient algebra
    minus trace on the isotropy algebra.  It depends on the pair alone,
    so it is built once per process for each pair, and equal pairs
    share it.
    """
    halg = pair.halg
    vals = [_ad_trace(pair.lie, x) - _ad_trace(halg, halg.basis_vector(i))
            for i, x in enumerate(pair.h.basis)]
    parity: int | None
    if pair.two_point:
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
    halg = pair.halg
    if m.halg.labels != halg.labels or m.halg._table != halg._table:
        raise StructureError("module is not over this pair's isotropy algebra")
    if pair.two_point != (m.parity is not None):
        raise StructureError("parity labels do not match the component group")
    for i in range(halg.dim):
        x = pair.h.basis[i]
        ws = {pair.k.adjoint_weights[j] for j, c in enumerate(x) if c != 0}
        if len(ws) == 1:
            w = ws.pop()
            shift = () if pair.two_point else w
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
    Negative multiplicities are allowed (a character may be virtual);
    ``parity`` tags the sign character of a two-component stabilizer
    when one is in play.
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

    @classmethod
    def normal(cls, kind: str, data: dict, parity: int | None) -> "Character":
        """A character from data already in the form ``__post_init__``
        gives it (weight tuples or type ints as keys, no zero
        multiplicity), taken as it is, with no pass over its entries."""
        out = cls.__new__(cls)
        out.kind, out.data, out.parity = kind, data, parity if data else None
        return out

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

    def first_difference(self, other: "Character"):
        """The least key whose multiplicities differ, ("parity",) when only
        the parity tags do, and None when the two characters are equal."""
        for k in sorted(set(self.data) | set(other.data)):
            if self.data.get(k, 0) != other.data.get(k, 0):
                return k
        return ("parity",) if self.parity != other.parity else None

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
