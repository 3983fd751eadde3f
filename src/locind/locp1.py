"""The geometric side on the projective line for sl2.

Operators live on one of the two affine charts (coordinate z near the
closed point, w = 1/z near infinity) as differential operators stored
as sparse terms: one exact rational coefficient per (order, power)
pair, for coordinate**power d**order.  The twisted first-order action
is not written down from a table: it is solved for from the two
defining constraints (bracket homomorphism on top of the chart vector
fields, prescribed scalars on the isotropy at the chart origin) and
the solver asserts uniqueness.  The twist enters only the right-hand
side, linearly, so the system is solved once per chart and process, at
twist 1, and scaled; the bracket homomorphism is re-checked on the
operators of every twist asked for.

On top of that sit the orbit direct images used for the comparison.
Three of them are spans of powers coordinate**a, one per torus weight,
on which the chart operators act through one helper, ``_power_module``.
It indexes each power by its doubled exponent 2a, an int even where a is
half-integral, and keeps each operator as one integer polynomial in 2a
(``ChartOp.shift_polys``), whose guards are checked once per module as
identities of polynomials.  Each operator sends a power to a multiple
of one other power, so such a model is a ``PowerModule``: the range of
its weights and one polynomial per operator.  Its character is read off
the range; the scalars are evaluated per weight only where they are
read, by the jets.  The three are:

* the Laurent module of sections on the open torus orbit (every a in
  one coset of the integers, with its two-point parity bookkeeping);
* the delta module supported at the closed point, the local cohomology
  at the chart origin: the powers a <= -1 modulo regular functions;
* the jets of the bundle along the closed point: the powers 0 <= a < p
  modulo coordinate**p.

Beside them sit the classical two-chart Cech cohomology of the
n-twisted line bundle, and conformance checks for the quotient /
flatness / equivariance / fiber conditions that an associated module
must satisfy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from typing import Sequence

from .exactla import ONE, ZERO, SparseMatrix, rank, scalar, solve
from .gkmod import Character, HModule, Window, sl2_types_from_weights
from .liealg import LieAlg, StructureError, sl2

__all__ = [
    "ChartOp", "power_scalar", "vector_field", "twisted_rep", "PowerModule",
    "delta_module", "laurent_module", "cech_cohomology_On",
    "JetModule", "jet_associated_module", "jet_conformance",
]


@dataclass(frozen=True)
class ChartOp:
    """Differential operator sum c coordinate^j d^k on one chart.

    ``terms[(k, j)]`` holds the coefficient c of coordinate^j d^k, the
    function to the left of the derivative; zero coefficients are
    dropped.  All arithmetic is exact.
    """

    chart: str
    terms: dict[tuple[int, int], Fraction]

    def __post_init__(self) -> None:
        if self.chart not in ("z", "w"):
            raise ValueError(f"unknown chart {self.chart!r}")
        object.__setattr__(self, "terms", {kj: scalar(c) for kj, c in self.terms.items()
                                           if c != 0})

    # -- constructors
    @classmethod
    def zero(cls, chart: str) -> "ChartOp":
        return cls(chart, {})

    @classmethod
    def mult(cls, poly: Sequence[Fraction], chart: str) -> "ChartOp":
        return cls(chart, {(0, j): c for j, c in enumerate(poly)})

    # -- ring structure
    def add(self, other: "ChartOp") -> "ChartOp":
        self._check(other)
        out = dict(self.terms)
        for kj, c in other.terms.items():
            out[kj] = out.get(kj, ZERO) + c
        return ChartOp(self.chart, out)

    def scale(self, c) -> "ChartOp":
        c = scalar(c)
        return ChartOp(self.chart, {kj: c * v for kj, v in self.terms.items()})

    def sub(self, other: "ChartOp") -> "ChartOp":
        return self.add(other.scale(-1))

    def mul(self, other: "ChartOp") -> "ChartOp":
        """Operator composition self . other (apply other first)."""
        self._check(other)
        out: dict[tuple[int, int], Fraction] = {}
        for (k, j), a in self.terms.items():
            for (l, m), b in other.terms.items():
                # d^k z^m = sum_i C(k,i) m(m-1)...(m-i+1) z^(m-i) d^(k-i)
                fall = 1
                for i in range(min(k, m) + 1):
                    key = (k - i + l, j + m - i)
                    out[key] = out.get(key, ZERO) + comb(k, i) * fall * a * b
                    fall *= m - i
        return ChartOp(self.chart, out)

    def commutator(self, other: "ChartOp") -> "ChartOp":
        return self.mul(other).sub(other.mul(self))

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "ChartOp") -> None:
        if self.chart != other.chart:
            raise ValueError("operators live on different charts")

    def shift_polys(self) -> dict[int, tuple[tuple[int, ...], int]]:
        """The operator on the formal powers coordinate**(a2/2), one
        polynomial per doubled shift.

        A term c coordinate^j d^k sends the power of doubled exponent a2 to
        c a2(a2 - 2)...(a2 - 2k + 2) / 2^k times the power of doubled
        exponent a2 + 2(j - k).  Summed per shift s2 = 2(j - k), that is
        P(a2) / den: ``shift_polys()[s2]`` is (P's integer coefficients,
        highest degree first, den), with den a power of 2 times the lcm of
        the coefficients' denominators, and ``power_scalar`` evaluates it.
        Exponents go in and come out doubled, so a half-integral power (a
        Laurent section of the square-root twist) is an int like any other.
        """
        by_shift: dict[int, list[tuple[int, int | Fraction]]] = {}
        for (k, j), c in self.terms.items():
            by_shift.setdefault(2 * (j - k), []).append((k, c))
        out = {}
        for s2, terms in by_shift.items():
            top = max(k for k, _ in terms)
            lcd = lcm(*(c.denominator for _, c in terms))
            poly = [0] * (top + 1)      # constant coefficient first
            for k, c in terms:
                # c lcd 2^(top - k) times the product of (a2 - 2i) over i < k
                fall = [int(c * lcd) << (top - k)]
                for i in range(k):
                    fall = [a - 2 * i * b for a, b in zip([0, *fall], [*fall, 0])]
                for m, a in enumerate(fall):
                    poly[m] += a
            out[s2] = (tuple(reversed(poly)), lcd << top)
        return out

    def __repr__(self) -> str:
        by_order: dict[int, list[str]] = {}
        for (k, j), c in sorted(self.terms.items()):
            by_order.setdefault(k, []).append(
                f"{c}{'' if j == 0 else self.chart if j == 1 else f'{self.chart}^{j}'}")
        parts = [f"({'+'.join(ts)})d^{k}" if k else f"({'+'.join(ts)})"
                 for k, ts in by_order.items()]
        return " + ".join(parts) or "0"


# ---------------------------------------------------------------------------
# vector fields and the twisted first-order action

_LABELS = ("e", "h", "f")
# defining matrices [[alpha, beta], [gamma, -alpha]]
_MATS = {"e": (0, 1, 0), "h": (1, 0, 0), "f": (0, 0, 1)}


def vector_field(label: str, chart: str = "z") -> ChartOp:
    """Infinitesimal fractional-linear action of the sl2 basis element
    x named by ``label`` ("e", "h" or "f").

    The coefficient polynomial comes from differentiating the action of
    exp(-t x) on the chart coordinate at t = 0, which makes the map a
    Lie algebra homomorphism (checked in the solver below).
    """
    alpha, beta, gamma = _MATS[label]
    if chart == "z":
        # d/dt|0 of ((1-ta)z - tb)/(-tc z + 1 + ta)
        poly = (-beta, -2 * alpha, gamma)
    else:
        poly = (-gamma, 2 * alpha, beta)
    return ChartOp(chart, {(1, j): c for j, c in enumerate(poly)})


# Normalization pinning the action: the translation transverse to the
# chart origin acts with no multiplication part at all (killing the
# conjugation freedom by invertible functions), and the isotropy of the
# origin acts there by the prescribed scalars.  The w chart sees the
# opposite sign on the Cartan element because the transition function
# of the twist contributes -2 per unit of lambda.
_NORMALIZATION = {
    "z": ("e", (("h", 1), ("f", 0))),
    "w": ("f", (("h", -1), ("e", 0))),
}

_B_DEG = 3  # degree cap for the multiplication parts of the ansatz


@lru_cache(maxsize=None)
def _unit_action(chart: str) -> tuple[LieAlg, dict[str, ChartOp], dict[str, ChartOp]]:
    """The twist-independent part of the twisted action on the chart.

    Returns sl2, the vector field of each basis label and the unique
    multiplication part b_x of the action at lambda0 = 1, kept once per
    process.  Ansatz: rho(x) = vector field of x plus a multiplication
    polynomial b_x.  Constraints: the commutator defect a_x b_y' - a_y b_x'
    must equal b_[x,y] for every basis pair, the transverse translation is
    flat (no multiplication part), and the isotropy of the chart origin
    acts at the origin by the prescribed scalars.  Only the last rows have
    a nonzero right-hand side, linear in the twist, and the matrix does
    not depend on it; so the solution at lambda0 is lambda0 times the one
    solved here.  The linear system has exactly one solution, which is
    asserted.
    """
    alg = sl2()
    fields = {x: vector_field(x, chart) for x in _LABELS}
    avec = {x: {j: c for (_, j), c in fields[x].terms.items()} for x in _LABELS}
    idx = {(x, j): i for i, (x, j) in enumerate(
        (x, j) for x in _LABELS for j in range(_B_DEG + 1))}
    rows: list[dict[int, Fraction]] = []
    rhs: list[Fraction] = []
    for xi in range(3):
        for yi in range(xi + 1, 3):
            x, y = _LABELS[xi], _LABELS[yi]
            br = alg.bracket_basis(xi, yi)
            for m in range(_B_DEG + 2):
                row: dict[int, Fraction] = {}

                def accum(a: dict[int, Fraction], bx: str, sign: int) -> None:
                    # sign * a * b_x' contribution to the ζ^m coefficient
                    for j in range(1, _B_DEG + 1):
                        k = m - j + 1
                        if k in a:
                            col = idx[(bx, j)]
                            row[col] = row.get(col, ZERO) + sign * a[k] * j

                accum(avec[x], y, 1)
                accum(avec[y], x, -1)
                for ci, c in enumerate(br):
                    if c != 0 and m <= _B_DEG:
                        col = idx[(_LABELS[ci], m)]
                        row[col] = row.get(col, ZERO) - c
                if row:
                    rows.append(row)
                    rhs.append(ZERO)
    flat, scalars = _NORMALIZATION[chart]
    for j in range(_B_DEG + 1):
        rows.append({idx[(flat, j)]: ONE})
        rhs.append(ZERO)
    for lab, mult in scalars:
        rows.append({idx[(lab, 0)]: ONE})
        rhs.append(mult)
    mat = SparseMatrix(len(rows), len(idx),
                       [(r, c, v) for r, row in enumerate(rows)
                        for c, v in row.items() if v != 0])
    if rank(mat) != len(idx):
        raise ArithmeticError("twisted action is not determined by the constraints")
    sol = solve(mat, rhs)
    if sol is None:
        raise ArithmeticError("twist constraints are inconsistent")
    unit = {x: ChartOp.mult([sol[idx[(x, j)]] for j in range(_B_DEG + 1)], chart)
            for x in _LABELS}
    return alg, fields, unit


def twisted_rep(lambda0: int, chart: str = "z") -> dict[str, ChartOp]:
    """The unique twisted first-order action on the chart.

    Returns the operator of each sl2 basis label "e", "h" and "f": its
    vector field plus lambda0 times the multiplication part solved once
    per chart and process (``_unit_action``).  The bracket homomorphism
    is re-checked on the operators returned, at this lambda0, on every
    call.
    """
    lam = scalar(lambda0)
    alg, fields, unit = _unit_action(chart)
    rho = {x: fields[x].add(unit[x].scale(lam)) for x in _LABELS}
    for xi in range(3):
        for yi in range(xi + 1, 3):
            want = ChartOp.zero(chart)
            for ci, c in enumerate(alg.bracket_basis(xi, yi)):
                if c != 0:
                    want = want.add(rho[_LABELS[ci]].scale(c))
            got = rho[_LABELS[xi]].commutator(rho[_LABELS[yi]])
            if not got.sub(want).is_zero():
                raise ArithmeticError("solved action fails the bracket check")
    return rho


def power_scalar(poly: tuple[tuple[int, ...], int], a2: int) -> int | Fraction:
    """P(a2) / den for one shift's (P, den) of ``ChartOp.shift_polys``:
    an int where it is integral, a Fraction otherwise."""
    coeffs, den = poly
    v = 0
    for c in coeffs:
        v = v * a2 + c
    return v // den if v % den == 0 else Fraction(v, den)


@dataclass(frozen=True)
class PowerModule:
    """Span of one power coordinate**a per weight, with named operators.

    ``weights`` is the range of weights present; the power of weight wt
    has the doubled exponent a2 = lambda0 - sign * wt.  ``polys[name]`` is
    (shift, poly): the operator sends the power of weight wt to
    ``power_scalar(poly, a2)`` times the power of weight wt + shift, and
    to zero when that weight is not present.  ``ops`` evaluates them per
    weight when read.  The module stores a window's worth of an often
    infinite object, so operator identities hold on interior weights
    only.  ``parity`` tags the sign character of the Laurent module and
    is None otherwise.
    """

    weights: range
    lambda0: int
    sign: int
    polys: dict[str, tuple[int, tuple[tuple[int, ...], int]]]
    parity: int | None = None

    @property
    def ops(self) -> dict[str, tuple[int, dict[int, int | Fraction]]]:
        """Per operator, (shift, the nonzero scalar of each weight whose
        image is present)."""
        return {name: (shift, {wt: v for wt in self.weights if wt + shift in self.weights
                               and (v := power_scalar(poly, self.lambda0 - self.sign * wt))})
                for name, (shift, poly) in self.polys.items()}

    def character(self) -> Character:
        return Character.normal("torus-weight", {(wt,): 1 for wt in self.weights},
                                self.parity)


def _power_module(lambda0: int, chart: str, weights: range,
                  parity: int | None = None) -> PowerModule:
    """Polynomials of e, h, f and z on one power coordinate**a per weight.

    The power of weight wt has the doubled exponent a2 = 2a = lambda0 - wt
    on the z chart and lambda0 + wt on the w chart, so a power of doubled
    exponent a2 has weight +-(lambda0 - a2).  ``weights`` is a range on
    that coset, and images leaving it are dropped: a range that stops
    short of exponent 0 is the quotient by regular functions, one that
    stops short of exponent p the quotient by coordinate**p, and the
    window's whole coset the Laurent sections.  Each operator is kept as
    one polynomial in a2 (``ChartOp.shift_polys``), and both guards are
    identities of polynomials, so they hold at every exponent, not only
    at the window's: the Cartan element has the shift 0 alone, where it
    acts by the weight +-(lambda0 - a2), and every other operator's
    nonzero polynomials move the weight by its own shift; one that does
    not is not weight-homogeneous.
    """
    rho = twisted_rep(lambda0, chart)
    sign = 1 if chart == "z" else -1
    polys = {name: op.shift_polys()
             for name, op in {**rho, "z": ChartOp.mult((ZERO, ONE), chart)}.items()}
    # h at shift 0 alone: sign (lambda0 - a2) over h's own denominator
    den = polys["h"].get(0, ((), 1))[1]
    if polys["h"] != {0: ((-sign * den, sign * lambda0 * den), den)}:
        raise ArithmeticError("Cartan action disagrees with the exponent")
    shifts = {"e": 2, "h": 0, "f": -2, "z": -2 * sign}
    for name, by_shift in polys.items():
        if any(-sign * s2 != shifts[name] for s2, (coeffs, _) in by_shift.items() if any(coeffs)):
            raise ArithmeticError(f"operator {name!r} is not weight-homogeneous")
    # an operator with no term at its shift has the zero polynomial there
    return PowerModule(weights, lambda0, sign,
                       {name: (shifts[name], by_shift.get(-sign * shifts[name], ((), 1)))
                        for name, by_shift in polys.items()}, parity)


# ---------------------------------------------------------------------------
# the delta module at the closed point and the Laurent module on the open orbit


def delta_module(lambda0: int, window: Window, chart: str = "z") -> PowerModule:
    """Direct image of the twisted fiber at the chart origin.

    This is the local cohomology at the origin: Laurent sections modulo
    regular ones, with basis the powers coordinate**a for a <= -1.  The
    n-th derivative delta_n of the point mass is (-1)^n n! coordinate**(-n-1),
    of weight lambda0 + 2 + 2n on the z chart; the origin of the w chart
    is the point at infinity and mirrors all weights.
    """
    if window.rank != 1:
        raise ValueError("the delta module is graded by a rank-1 torus")
    lo, hi = window.lo[0], window.hi[0]
    # the powers a <= -1: weights from lambda0 + 2 up on the z chart, and
    # up to -lambda0 - 2 on the w chart
    if chart == "z":
        weights = range(max(lo + (lo - lambda0) % 2, lambda0 + 2), hi + 1, 2)
    else:
        weights = range(lo + (lo - lambda0) % 2, min(hi, -lambda0 - 2) + 1, 2)
    return _power_module(lambda0, chart, weights)


def laurent_module(lambda0: int, parity: int, window: Window,
                   chart: str = "z") -> PowerModule:
    """Sections on the open torus orbit, one power per weight.

    The two-point stabilizer forces every weight to share the parity of
    the fiber sign character; the section of weight wt is the formal
    power coordinate**a with a = (lambda0 - wt)/2 on the z chart and
    (lambda0 + wt)/2 on the w chart (a is a half-integer when lambda0
    and the parity disagree mod 2 — those are the sections of the
    square-root twist).
    """
    if parity not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    if window.rank != 1:
        raise ValueError("the Laurent module is graded by a rank-1 torus")
    weights = range(window.lo[0] + (window.lo[0] - parity) % 2, window.hi[0] + 1, 2)
    return _power_module(lambda0, chart, weights, parity=parity)


# ---------------------------------------------------------------------------
# two-chart Cech cohomology of the n-twisted bundle


def cech_cohomology_On(n: int) -> tuple[Character, Character]:
    """Cohomology of the n-twist on the projective line, by K types.

    Classical two-chart computation: polynomial sections on each chart
    map into Laurent sections on the overlap (a w-chart monomial w^j
    glues to z^(n-j)).  The map into overlap exponent a is a 1 x k
    matrix of +-1, one column per chart that reaches a, so its rank is
    min(k, 1) and a count replaces the elimination: an a that both
    charts reach gives H^0 at weight n - 2a, one that neither reaches
    H^1.  Both are peeled into irreducible type multiplicities, which
    raises if the weights do not form a genuine representation.

    Chart exponents up to |n| are enough.  For n >= 0, H^0 is spanned by
    z^0 ... z^n (the w chart glues them to w^n ... w^0) and H^1 is zero.
    For n < 0, H^0 is zero and H^1 lives at the overlap exponents a with
    n < a < 0, which neither chart reaches; the band of exponents
    2n ... -n covers them, and every other exponent in it is hit.
    """
    big = abs(n)
    h0: dict[int, int] = {}
    h1: dict[int, int] = {}
    for a in range(min(0, n - big), max(big, n) + 1):
        # z^a is reached by z^a on the z chart and by w^(n-a) on the w chart
        reach = (0 <= a <= big) + (0 <= n - a <= big)
        if reach == 2:
            h0[n - 2 * a] = 1
        elif reach == 0:
            h1[n - 2 * a] = 1
    return (Character("sl2-type", sl2_types_from_weights(h0)),
            Character("sl2-type", sl2_types_from_weights(h1)))


# ---------------------------------------------------------------------------
# truncated jets along an orbit


@dataclass(frozen=True)
class JetModule:
    """Truncation of a module associated with a fiber along an orbit.

    Closed-point case: polynomials in the normal coordinate z modulo
    z**level, slot s holding the power z**s (the fiber in slot 0); the
    chart operators act on the powers and drop what lands at z**level
    or beyond, and ``mult`` is multiplication by z.  Open-orbit case:
    the ideal of the orbit is zero, every truncation equals the fiber
    itself, and the normal multiplication is the zero map.
    """

    level: int
    fiber: HModule
    slot_weights: tuple[int, ...] | None
    ops: dict[str, SparseMatrix]
    mult: SparseMatrix
    parity: tuple[int, ...] | None = None

    def truncate(self, q: int) -> "JetModule":
        """Quotient to q slots (drop the deepest normal derivatives)."""
        if not 1 <= q <= self.level:
            raise ValueError("truncation level out of range")
        if self.slot_weights is None:
            return self
        d = self.fiber.dim * q

        def cut(m: SparseMatrix) -> SparseMatrix:
            return SparseMatrix(d, d, [(r, c, v) for r, c, v in m.entries()
                                       if r < d and c < d])

        return JetModule(level=q, fiber=self.fiber,
                         slot_weights=self.slot_weights[:q],
                         ops={k: cut(m) for k, m in self.ops.items()},
                         mult=cut(self.mult), parity=self.parity)


def jet_associated_module(v: HModule, p: int) -> JetModule:
    """Jets of the bundle with fiber v along the orbit of its family.

    The isotropy presentation of v decides the geometry: a Cartan-plus-
    lowering isotropy is the closed point (one normal direction, the
    powers z**s for s < p), the open-orbit isotropy has no normal direction at
    all and the truncations are all equal to the fiber.
    """
    if p < 1:
        raise ValueError("need at least one jet slot")
    labels = v.halg.labels
    if labels == ("x1", "x2"):
        ops = {lab: v.action[i] for i, lab in enumerate(labels)}
        return JetModule(level=p, fiber=v, slot_weights=None, ops=ops,
                         mult=SparseMatrix.zero(v.dim, v.dim), parity=v.parity)
    if labels != ("h", "f"):
        raise ValueError("fiber is not presented over a supported isotropy")
    if v.dim != 1:
        raise ValueError("jets implemented for one-dimensional fibers")
    lam = v.value(0)
    if lam.denominator != 1:
        raise ValueError("Cartan scalar of the fiber must be an integer")
    if v.value(1) != 0:
        raise StructureError("lowering part of the isotropy must act by zero")
    lam = int(lam)
    weights = range(lam, lam - 2 * p, -2)
    ops = _power_module(lam, "z", weights).ops

    def slots(name: str) -> SparseMatrix:
        # the power z^s of weight lam - 2s sits in slot s
        shift, scalars = ops[name]
        return SparseMatrix(p, p, [((lam - wt - shift) // 2, (lam - wt) // 2, c)
                                   for wt, c in scalars.items()])

    return JetModule(level=p, fiber=v, slot_weights=tuple(weights),
                     ops={lab: slots(lab) for lab in _LABELS}, mult=slots("z"))


def jet_conformance(jm: JetModule) -> dict[str, bool]:
    """The five conditions an associated-module truncation must satisfy.

    1. successive quotients are canonical and compact-equivariant;
    2. each normal-ideal graded piece is free of rank dim(fiber);
    3. the action map respects the compact grading (every operator
       entry shifts the slot weight by the adjoint weight);
    4. the compact generator acts exactly by the recorded grading;
    5. at level one the fiber map is an isomorphism intertwining the
       isotropy (and component) actions.

    The open orbit has no normal direction, hence no normal grading and
    no slot weights, so conditions 2-4 say nothing there: its flags are
    1 (every truncation is the fiber, with zero normal multiplication)
    and 5 (with the parity) alone.
    """
    out: dict[str, bool] = {}
    if jm.slot_weights is None:
        ident = all(jm.truncate(q) == jm for q in range(1, jm.level + 1))
        fib = all(jm.ops[lab] == jm.fiber.action[i]
                  for i, lab in enumerate(jm.fiber.halg.labels))
        out["quotient_equivariant"] = ident and jm.mult.is_zero()
        out["fiber_isomorphism"] = fib and jm.parity == jm.fiber.parity
        return out
    p, dv = jm.level, jm.fiber.dim

    def proj(q: int) -> SparseMatrix:
        return SparseMatrix(dv * (q - 1), dv * q,
                            [(i, i, ONE) for i in range(dv * (q - 1))])

    ok = True
    for q in range(2, p + 1):
        big, small, pr = jm.truncate(q), jm.truncate(q - 1), proj(q)
        ok &= pr.mul(big.mult) == small.mult.mul(pr)
        ok &= small.slot_weights == big.slot_weights[:q - 1]
    out["quotient_equivariant"] = ok

    powers = [SparseMatrix.identity(dv * p)]
    for _ in range(p + 1):
        powers.append(jm.mult.mul(powers[-1]))
    out["graded_free"] = all(
        rank(powers[s]) - rank(powers[s + 1]) == dv for s in range(p))

    shifts = {"e": 2, "h": 0, "f": -2}
    ok = all(jm.slot_weights[r] - jm.slot_weights[c] == shifts[lab]
             for lab, m in jm.ops.items() for r, c, _ in m.entries())
    ok &= all(jm.slot_weights[r] - jm.slot_weights[c] == -2
              for r, c, _ in jm.mult.entries())
    out["action_equivariant"] = ok

    diag = SparseMatrix(p * dv, p * dv,
                        [(i, i, scalar(jm.slot_weights[i // dv]))
                         for i in range(p * dv)])
    out["compact_compatible"] = jm.ops["h"] == diag

    base = jm.truncate(1)
    out["fiber_isomorphism"] = all(base.ops[lab] == jm.fiber.action[i]
                                   for i, lab in enumerate(jm.fiber.halg.labels))
    return out

