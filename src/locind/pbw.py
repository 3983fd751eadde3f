"""Universal enveloping algebras with exact PBW straightening.

Elements are combinations of ordered monomials in the basis of a
LieAlg, with exact coefficients (``exactla.scalar``): straightening
only adds and multiplies, so on integral structure constants, as in the
four families, every coefficient is an ``int``.  The monomial order is
the basis order of the algebra, so the same code serves the ambient
algebra and the isotropy algebra h, whose enveloping algebra is the
open orbit's algebra part.
There is one product rule, an ordered monomial times one generator by
the binomial identity x^a y = sum_k C(a, k) (ad x)^k(y) x^(a-k),
memoized per process by (algebra, monomial, generator), since boundary
assembly multiplies the same monomials by the same wedge legs
constantly; a product of two elements applies it letter by letter of
the right factor.

The module also lists monomials and evaluates the Cartan letters of
monomials against a torus weight block; the induction engine and the
degree-zero oracle both use these.  On a torus pair the root vectors
come in pairs x, y of opposite weight on one torus coordinate, so a
weight fixes exp(x) - exp(y) in each pair and the monomials of one
weight and bounded degree are a closed form, listed one weight at a
time; on weightless letters they are every exponent vector up to a
total degree.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Mapping, Sequence

from .exactla import ONE, ZERO, scalar
from .liealg import LieAlg, RootPair, Vec, vec_is_zero

Mono = tuple[int, ...]   # exponent vector over the algebra basis


@lru_cache(maxsize=None)
def _times_gen(lie: LieAlg, mono: Mono, j: int) -> dict[Mono, Fraction]:
    """The ordered monomial mono times the generator x_j, straightened.

    With x_i the last letter of mono = rest * x_i^a and i > j,
    mono * x_j = sum_k C(a, k) (rest * v_k) x_i^(a-k), v_0 = x_j and
    v_(k+1) = [x_i, v_k], until v_k = 0 or k = a.  A term of rest * v_k
    with a letter past x_i is multiplied by x_i one at a time, any other
    takes x_i^(a-k) as an exponent shift.  Each nested call multiplies
    rest (no x_i) or a monomial whose last letter lies past x_i, never
    rest * x_i^(a-1): x_i^a * x_j nests at most three calls deep on sl2
    in two letter orders and on B and D for a up to 300, and the memo
    holds only the products asked for.  An algebra is keyed by identity,
    and callers only read the product.
    """
    i = max((k for k, a in enumerate(mono) if a), default=-1)
    if i <= j:
        return {mono[:j] + (mono[j] + 1,) + mono[j + 1:]: ONE}
    a, rest = mono[i], mono[:i] + (0,) + mono[i + 1:]
    out, v, binom = {}, lie.basis_vector(j), 1
    for k in range(a + 1):
        for jj, c in enumerate(v):
            for m, co in (_times_gen(lie, rest, jj).items() if c != 0 else ()):
                if any(m[i + 1:]):
                    part = {m: binom * c * co}
                    for _ in range(a - k):
                        part = _times(lie, part, i)
                else:
                    part = {m[:i] + (m[i] + a - k,) + m[i + 1:]: binom * c * co}
                for mm, cc in part.items():
                    out[mm] = out.get(mm, ZERO) + cc
        if k == a:
            break
        v, binom = lie.bracket(lie.basis_vector(i), v), binom * (a - k) // (k + 1)
        if vec_is_zero(v):
            break
    return {m: c for m, c in out.items() if c != 0}


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


def bounded_exponents(r: int, cap: int) -> list[Mono]:
    """Every exponent vector of length r and total degree at most cap,
    lexicographic: the monomials on r weightless letters (B's U(h))."""
    return [e for e in product(range(cap + 1), repeat=r) if sum(e) <= cap]


def _gaps(roots: Sequence[RootPair],
          w: tuple[int, ...]) -> list[int] | None:
    """Per root pair (x, y, c, s), exp(x) - exp(y) = w[c] / s in a
    monomial of weight w, or None when no monomial has weight w."""
    gaps = []
    for _, _, c, s in roots:
        q, r = divmod(w[c], s)
        if r:
            return None
        gaps.append(q)
    return gaps


def root_degree(roots: Sequence[RootPair],
                w: tuple[int, ...]) -> int | None:
    """The least degree of a monomial of weight w on the root pairs
    (``PairData.root_pairs``), or None when none has weight w."""
    gaps = _gaps(roots, w)
    return None if gaps is None else sum(map(abs, gaps))


def monos_of_weight(roots: Sequence[RootPair], dim: int,
                    w: tuple[int, ...], cap: int) -> list[Mono]:
    """Every monomial on the root pairs of weight w and degree at most
    cap, as exponent vectors of length dim, lexicographic.

    A pair (x, y, c, s) with gap q = w[c] / s has exponents
    (k + max(q, 0), k + max(-q, 0)) for some k >= 0, so the degree is
    ``root_degree`` plus twice the sum of the k's, and the k's range
    over ``bounded_exponents`` up to half the spare degree.  With the
    pairs in the order of x, lexicographic order in the k's is
    lexicographic order in the exponents.
    """
    gaps = _gaps(roots, w)
    if gaps is None:
        return []
    least = sum(map(abs, gaps))
    out = []
    for ks in bounded_exponents(len(roots), (cap - least) // 2):
        mono = [0] * dim
        for (x, y, _, _), q, k in zip(roots, gaps, ks):
            mono[x], mono[y] = k + max(q, 0), k + max(-q, 0)
        out.append(tuple(mono))
    return out


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
