"""Universal enveloping algebras with exact PBW straightening.

Elements are combinations of ordered monomials in the basis of a
LieAlg, with exact coefficients (``exactla.scalar``): straightening
only adds and multiplies, so on integral structure constants, as in the
four families, every coefficient is an ``int``.  The monomial order is
the basis order of the algebra, so the same code serves the ambient
algebra and the isotropy algebra h, whose enveloping algebra is the
open orbit's algebra part.
There is one product rule: an ordered monomial times one generator,
memoized per algebra by (monomial, generator), since boundary assembly
multiplies the same monomials by the same wedge legs constantly; a
product of two elements applies it letter by letter of the right factor.

The module also lists monomials on chosen letters: all of them up to a
total degree, or, grouped by adjoint weight when there is a torus, only
those a window's blocks reach.  It evaluates the Cartan letters of
monomials against a torus weight block; the induction engine and the
degree-zero oracle both use these.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .exactla import ONE, ZERO, scalar
from .liealg import LieAlg, Vec

Mono = tuple[int, ...]   # exponent vector over the algebra basis


def _times_gen(lie: LieAlg, mono: Mono, j: int) -> dict[Mono, Fraction]:
    """The ordered monomial mono times the generator x_j, straightened.

    With x_i the last letter of mono = rest * x_i and i > j,
    mono * x_j = (rest * x_j) * x_i + sum_k [x_i, x_j]_k (rest * x_k);
    every product on the right has a shorter left factor or is already
    ordered, so the rule ends.  The products it needs with the lower
    powers of x_i are filled into the memo bottom-up, so the depth of
    the recursion does not grow with the exponent of x_i.
    """
    memo = lie.__dict__.setdefault("_times_gen_memo", {})
    hit = memo.get((mono, j))
    if hit is not None:
        return hit
    i = max((k for k, a in enumerate(mono) if a), default=-1)
    if i <= j:
        out = {mono[:j] + (mono[j] + 1,) + mono[j + 1:]: ONE}
        memo[(mono, j)] = out
        return out

    def power(b: int) -> Mono:
        return mono[:i] + (b,) + mono[i + 1:]

    # the generators the rule reaches from j: each adds the letters below
    # x_i of its bracket with x_i
    gens = [j]
    for jj in gens:
        gens += [k for k, gamma in enumerate(lie.bracket_basis(i, jj))
                 if gamma != 0 and k < i and k not in gens]
    for b in range(1, mono[i] + 1):
        rest = power(b - 1)
        for jj in gens:
            if (power(b), jj) in memo:
                continue
            out = _times(lie, _times_gen(lie, rest, jj), i)
            for k, gamma in enumerate(lie.bracket_basis(i, jj)):
                if gamma != 0:
                    for m, c in _times_gen(lie, rest, k).items():
                        out[m] = out.get(m, ZERO) + gamma * c
            memo[(power(b), jj)] = {m: c for m, c in out.items() if c != 0}
    return memo[(mono, j)]


def _times(lie: LieAlg, terms: Mapping[Mono, Fraction], j: int) -> dict[Mono, Fraction]:
    """A combination of ordered monomials times the generator x_j."""
    out: dict[Mono, Fraction] = {}
    for mono, c in terms.items():
        for m, co in _times_gen(lie, mono, j).items():
            out[m] = out.get(m, ZERO) + c * co
    return {m: c for m, c in out.items() if c != 0}


class UElt:
    """Element of the enveloping algebra of a fixed LieAlg."""

    __slots__ = ("lie", "terms")

    def __init__(self, lie: LieAlg, terms: dict[Mono, Fraction] | None = None):
        self.lie = lie
        clean: dict[Mono, Fraction] = {}
        for mono, c in (terms or {}).items():
            if len(mono) != lie.dim or any(a < 0 for a in mono):
                raise ValueError(f"bad monomial {mono} for {lie!r}")
            c = scalar(c)
            if c != 0:
                clean[mono] = c
        self.terms = clean

    # -- constructors

    @classmethod
    def one(cls, lie: LieAlg) -> "UElt":
        return cls(lie, {(0,) * lie.dim: ONE})

    @classmethod
    def gen(cls, lie: LieAlg, label_or_index: str | int) -> "UElt":
        i = lie.index(label_or_index) if isinstance(label_or_index, str) else label_or_index
        if i not in range(lie.dim):
            raise ValueError(f"no generator {i} in {lie!r}")
        mono = tuple(1 if j == i else 0 for j in range(lie.dim))
        return cls(lie, {mono: ONE})

    @classmethod
    def from_vec(cls, lie: LieAlg, v: Vec) -> "UElt":
        if len(v) != lie.dim:
            raise ValueError(f"vector of length {len(v)} for {lie!r}")
        terms: dict[Mono, Fraction] = {}
        for i, c in enumerate(v):
            if c != 0:
                terms[tuple(1 if j == i else 0 for j in range(lie.dim))] = scalar(c)
        return cls(lie, terms)

    # -- ring structure

    def _require_same(self, other: "UElt") -> None:
        if self.lie is not other.lie:
            raise ValueError("operands live over different algebras")

    def __add__(self, other: "UElt") -> "UElt":
        self._require_same(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, ZERO) + c
        return UElt(self.lie, out)

    def __sub__(self, other: "UElt") -> "UElt":
        self._require_same(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, ZERO) - c
        return UElt(self.lie, out)

    def __neg__(self) -> "UElt":
        return UElt(self.lie, {m: -c for m, c in self.terms.items()})

    def scale(self, c: Fraction | int | str) -> "UElt":
        c = scalar(c)
        return UElt(self.lie, {m: c * v for m, v in self.terms.items()})

    def __rmul__(self, c: int | Fraction) -> "UElt":
        return self.scale(c)

    def __mul__(self, other: "UElt | int | Fraction") -> "UElt":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._require_same(other)
        acc: dict[Mono, Fraction] = {}
        for m2, c2 in other.terms.items():
            terms = self.terms
            for j, a in enumerate(m2):
                for _ in range(a):
                    terms = _times(self.lie, terms, j)
            for m, c in terms.items():
                acc[m] = acc.get(m, ZERO) + c * c2
        return UElt(self.lie, acc)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, UElt) and self.lie is other.lie
                and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((id(self.lie), frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, c in sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0])):
            facs = [f"{self.lie.labels[i]}^{a}" if a > 1 else self.lie.labels[i]
                    for i, a in enumerate(mono) if a]
            body = "*".join(facs) if facs else "1"
            if c == 1 and facs:
                parts.append(body)
            elif c == -1 and facs:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}" if facs else f"{c}")
        return " + ".join(parts).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# monomial enumeration and Cartan-letter evaluation


def bounded_monos(free: Sequence[int], cut: int, dim: int) -> list[Mono]:
    """All monomials on the given letters with total degree at most cut.

    Lexicographic in the exponents of the letters, in the order given.
    """
    out = [((0,) * dim, cut)]   # (monomial, degree left for later letters)
    for i in free:
        out = [(m[:i] + (a,) + m[i + 1:], left - a)
               for m, left in out for a in range(left + 1)]
    return [m for m, _ in out]


def monos_by_weight(free: Sequence[int], adj: Sequence[tuple[int, ...]],
                    wants: Mapping[tuple[int, ...], int],
                    ) -> dict[tuple[int, ...], list[Mono]]:
    """The monomials on the free letters that a caller will look up.

    ``wants`` maps each adjoint weight a caller reads to the largest
    total degree it reads there; adj[i] is letter i's weight.  Bucket w
    holds every monomial of weight w and degree at most wants[w], in the
    order of ``bounded_monos``: each monomial up to the largest wanted
    degree is listed, its weight tracked letter by letter like its
    degree, and kept where its weight's cap allows.  The listing is
    streamed, so only the kept monomials are held.  Nothing is pruned:
    at the proved cuts a bounding box of the wanted weights saved no
    time on the windows in use.
    """
    if not wants:
        return {}
    top = max(wants.values())

    def place(stage, i):
        # every exponent of letter i on each (monomial, weight, degree left)
        return ((m[:i] + (a,) + m[i + 1:], tuple(x + a * y for x, y in zip(w, adj[i])),
                 left - a)
                for m, w, left in stage for a in range(left + 1))

    out = [((0,) * len(adj), (0,) * len(adj[0]), top)]
    for i in free:
        out = place(out, i)
    buckets: dict[tuple[int, ...], list[Mono]] = {}
    for m, w, left in out:
        if top - left <= wants.get(w, -1):
            buckets.setdefault(w, []).append(m)
    return buckets


def reduce_block(cartan_of: Sequence[int | None], adj: Sequence[tuple[int, ...]],
                 n: tuple[int, ...],
                 terms: Mapping[Mono, Fraction]) -> dict[Mono, Fraction]:
    """Evaluate the Cartan letters of each monomial against block n.

    ``cartan_of[i]`` is the torus coordinate of letter i (None for the
    other letters) and ``adj[i]`` its adjoint weight.  A Cartan letter
    sees the block label shifted by the adjoint weight of everything to
    its left, so walking the exponents in basis order and accumulating
    that weight gives the exact scalar.
    """
    out: dict[Mono, Fraction] = {}
    for mono, c in terms.items():
        coeff = scalar(c)
        acc = (0,) * len(n)
        expo = [0] * len(mono)
        for i, a in enumerate(mono):
            if a == 0:
                continue
            kc = cartan_of[i]
            if kc is None:
                expo[i] = a
                acc = tuple(x + a * y for x, y in zip(acc, adj[i]))
            else:
                coeff *= (scalar(n[kc]) - acc[kc]) ** a
        if coeff != 0:
            key = tuple(expo)
            out[key] = out.get(key, ZERO) + coeff
    return {m: c for m, c in out.items() if c != 0}
