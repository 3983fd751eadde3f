"""Universal enveloping algebras with exact PBW straightening.

Elements are combinations of ordered monomials in the basis of a
LieAlg, with exact coefficients (``exactla.scalar``): straightening
only adds and multiplies, so on integral structure constants, as in the
four families, every coefficient is an ``int``.  The monomial order is
the basis order of the algebra, so the same code serves the ambient
algebra and the isotropy algebra h, whose enveloping algebra is the
open orbit's algebra part.
Straightening rewrites an arbitrary word into the ordered basis using
the structure constants, with a per-algebra memo table since the same
small words recur constantly in boundary assembly.

The module also lists the monomials on chosen letters up to a total
degree (grouped by their adjoint weight when there is a torus), and
evaluates the Cartan letters of monomials against a torus weight block;
the induction engine and the degree-zero oracle both use these.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .exactla import ONE, ZERO, scalar
from .liealg import LieAlg, Vec

Mono = tuple[int, ...]   # exponent vector over the algebra basis


def _word_of(mono: Mono) -> tuple[int, ...]:
    out: list[int] = []
    for i, a in enumerate(mono):
        out.extend([i] * a)
    return tuple(out)


def _mono_of(word: Sequence[int], dim: int) -> Mono:
    expo = [0] * dim
    for i in word:
        expo[i] += 1
    return tuple(expo)


def _memo(lie: LieAlg) -> dict:
    cache = lie.__dict__.get("_straighten_memo")
    if cache is None:
        cache = lie.__dict__["_straighten_memo"] = {}
    return cache


def _straighten(lie: LieAlg, word: tuple[int, ...]) -> dict[Mono, Fraction]:
    """Rewrite a word in basis generators as ordered monomials.

    Terminates because an adjacent swap lowers the inversion count and a
    bracket substitution lowers the word length.
    """
    cache = _memo(lie)
    hit = cache.get(word)
    if hit is not None:
        return hit
    pos = -1
    for p in range(len(word) - 1):
        if word[p] > word[p + 1]:
            pos = p
            break
    if pos < 0:
        out = {_mono_of(word, lie.dim): ONE}
    else:
        i, j = word[pos], word[pos + 1]
        swapped = word[:pos] + (j, i) + word[pos + 2:]
        acc = dict(_straighten(lie, swapped))
        for c, gamma in enumerate(lie.bracket_basis(i, j)):
            if gamma != 0:
                for m, co in _straighten(lie, word[:pos] + (c,) + word[pos + 2:]).items():
                    acc[m] = acc.get(m, ZERO) + gamma * co
        out = {m: co for m, co in acc.items() if co != 0}
    cache[word] = out
    return out


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
                clean[mono] = clean.get(mono, ZERO) + c
        self.terms = {m: c for m, c in clean.items() if c != 0}

    # -- constructors

    @classmethod
    def one(cls, lie: LieAlg) -> "UElt":
        return cls(lie, {(0,) * lie.dim: ONE})

    @classmethod
    def gen(cls, lie: LieAlg, label_or_index: str | int) -> "UElt":
        i = lie.index(label_or_index) if isinstance(label_or_index, str) else label_or_index
        mono = tuple(1 if j == i else 0 for j in range(lie.dim))
        return cls(lie, {mono: ONE})

    @classmethod
    def from_vec(cls, lie: LieAlg, v: Vec) -> "UElt":
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
        for m1, c1 in self.terms.items():
            w1 = _word_of(m1)
            for m2, c2 in other.terms.items():
                c = c1 * c2
                for m, co in _straighten(self.lie, w1 + _word_of(m2)).items():
                    acc[m] = acc.get(m, ZERO) + c * co
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


def monos_by_weight(free: Sequence[int], cut: int,
                    adj: Sequence[tuple[int, ...]],
                    ) -> dict[tuple[int, ...], list[Mono]]:
    """``bounded_monos`` grouped by adjoint weight; adj[i] is letter i's."""
    buckets: dict[tuple[int, ...], list[Mono]] = {}
    for mono in bounded_monos(free, cut, len(adj)):
        w = (0,) * len(adj[0])
        for i in free:
            if mono[i]:
                w = tuple(x + mono[i] * y for x, y in zip(w, adj[i]))
        buckets.setdefault(w, []).append(mono)
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
