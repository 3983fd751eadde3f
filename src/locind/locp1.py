"""The geometric side on the projective line for sl2.

Operators live on one of the two affine charts (coordinate z near the
closed point, w = 1/z near infinity) as polynomial-coefficient
differential operators with exact rational coefficients.  The twisted
first-order action is not written down from a table: it is solved for
from the two defining constraints (bracket homomorphism on top of the
chart vector fields, prescribed scalars on the isotropy at the chart
origin) and the solver asserts uniqueness.

On top of that sit the orbit direct images used for the comparison:
the delta module supported at the closed point (derivatives of the
point mass), the Laurent module of sections on the open torus orbit
(with its two-point parity bookkeeping), the classical two-chart Cech
cohomology of the n-twisted line bundle, and truncated jet modules
along an orbit together with conformance checks for the quotient /
flatness / equivariance / fiber conditions that an associated module
must satisfy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

from .exactla import ONE, ZERO, SparseMatrix, rank, scalar, solve
from .gkmod import (Character, GradedModule, HModule, Weight, Window,
                    sl2_types_from_weights)
from .liealg import StructureError, sl2

__all__ = [
    "ChartOp", "vector_field", "TwistedRep", "twisted_rep",
    "delta_module", "laurent_module", "cech_cohomology_On",
    "JetModule", "jet_associated_module", "jet_conformance",
    "filtration_check",
]


# ---------------------------------------------------------------------------
# dense rational polynomials in the chart coordinate (low degree throughout)


def _ptrim(p: Sequence[Fraction]) -> tuple[Fraction, ...]:
    out = [scalar(c) for c in p]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _padd(p: Sequence[Fraction], q: Sequence[Fraction]) -> tuple[Fraction, ...]:
    n = max(len(p), len(q))
    return _ptrim([(p[i] if i < len(p) else ZERO) + (q[i] if i < len(q) else ZERO)
                   for i in range(n)])


def _pscale(p: Sequence[Fraction], c: Fraction) -> tuple[Fraction, ...]:
    return _ptrim([c * x for x in p])


def _pmul(p: Sequence[Fraction], q: Sequence[Fraction]) -> tuple[Fraction, ...]:
    if not p or not q:
        return ()
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _ptrim(out)


def _pdiff(p: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return _ptrim([i * p[i] for i in range(1, len(p))])


@dataclass(frozen=True)
class ChartOp:
    """Differential operator sum_k p_k(coordinate) d^k on one chart.

    ``coeffs[k]`` holds the polynomial multiplying the k-th derivative,
    lowest degree first.  All arithmetic is exact.
    """

    chart: str
    coeffs: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if self.chart not in ("z", "w"):
            raise ValueError(f"unknown chart {self.chart!r}")
        cleaned = [_ptrim(p) for p in self.coeffs]
        while cleaned and not cleaned[-1]:
            cleaned.pop()
        object.__setattr__(self, "coeffs", tuple(cleaned))

    # -- constructors
    @classmethod
    def zero(cls, chart: str) -> "ChartOp":
        return cls(chart, ())

    @classmethod
    def mult(cls, poly: Sequence[Fraction], chart: str) -> "ChartOp":
        return cls(chart, (tuple(poly),))

    @classmethod
    def d(cls, chart: str) -> "ChartOp":
        return cls(chart, ((), (ONE,)))

    # -- ring structure
    def add(self, other: "ChartOp") -> "ChartOp":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return ChartOp(self.chart, tuple(
            _padd(self.coeffs[k] if k < len(self.coeffs) else (),
                  other.coeffs[k] if k < len(other.coeffs) else ())
            for k in range(n)))

    def scale(self, c) -> "ChartOp":
        c = scalar(c)
        return ChartOp(self.chart, tuple(_pscale(p, c) for p in self.coeffs))

    def sub(self, other: "ChartOp") -> "ChartOp":
        return self.add(other.scale(-1))

    def mul(self, other: "ChartOp") -> "ChartOp":
        """Operator composition self . other (apply other first)."""
        self._check(other)
        acc: dict[int, tuple[Fraction, ...]] = {}
        for k, p in enumerate(self.coeffs):
            if not p:
                continue
            for l, q in enumerate(other.coeffs):
                if not q:
                    continue
                # d^k . q = sum_i C(k,i) q^(i) d^(k-i)
                qq: tuple[Fraction, ...] = q
                for i in range(k + 1):
                    if not qq:
                        break
                    term = _pmul(p, _pscale(qq, scalar(comb(k, i))))
                    key = k - i + l
                    acc[key] = _padd(acc.get(key, ()), term)
                    qq = _pdiff(qq)
        top = max(acc, default=-1)
        return ChartOp(self.chart, tuple(acc.get(k, ()) for k in range(top + 1)))

    def commutator(self, other: "ChartOp") -> "ChartOp":
        return self.mul(other).sub(other.mul(self))

    def is_zero(self) -> bool:
        return not self.coeffs

    def order(self) -> int:
        return len(self.coeffs) - 1

    def _check(self, other: "ChartOp") -> None:
        if self.chart != other.chart:
            raise ValueError("operators live on different charts")

    def apply_exp(self, a) -> dict[Fraction, Fraction]:
        """Apply to the formal power coordinate**a; a may be fractional."""
        a = scalar(a)
        out: dict[Fraction, Fraction] = {}
        for k, p in enumerate(self.coeffs):
            fall = ONE
            for i in range(k):
                fall *= a - i
            if fall == 0 or not p:
                continue
            for j, c in enumerate(p):
                if c != 0:
                    key = a - k + j
                    out[key] = out.get(key, ZERO) + c * fall
        return {e: c for e, c in out.items() if c != 0}

    def __repr__(self) -> str:
        def poly(p: tuple[Fraction, ...]) -> str:
            ts = [f"{c}{'' if j == 0 else self.chart if j == 1 else f'{self.chart}^{j}'}"
                  for j, c in enumerate(p) if c != 0]
            return "+".join(ts) or "0"
        parts = [f"({poly(p)})d^{k}" if k else f"({poly(p)})"
                 for k, p in enumerate(self.coeffs) if p]
        return " + ".join(parts) or "0"


# ---------------------------------------------------------------------------
# vector fields and the twisted first-order action

_LABELS = ("e", "h", "f")
# defining matrices [[alpha, beta], [gamma, -alpha]]
_MATS = {"e": (0, 1, 0), "h": (1, 0, 0), "f": (0, 0, 1)}


def vector_field(xi, chart: str = "z") -> ChartOp:
    """Infinitesimal fractional-linear action of an sl2 element.

    Accepts a basis label or a coefficient triple over (e, h, f).  The
    coefficient polynomial comes from differentiating the action of
    exp(-t xi) on the chart coordinate at t = 0, which makes the map a
    Lie algebra homomorphism (checked in the solver below).
    """
    if isinstance(xi, str):
        coords = {xi: ONE}
    else:
        coords = {lab: scalar(c) for lab, c in zip(_LABELS, xi)}
    alpha = sum((c * _MATS[lab][0] for lab, c in coords.items()), start=ZERO)
    beta = sum((c * _MATS[lab][1] for lab, c in coords.items()), start=ZERO)
    gamma = sum((c * _MATS[lab][2] for lab, c in coords.items()), start=ZERO)
    if chart == "z":
        # d/dt|0 of ((1-ta)z - tb)/(-tc z + 1 + ta)
        poly = (-beta, -2 * alpha, gamma)
    else:
        poly = (-gamma, 2 * alpha, beta)
    return ChartOp(chart, ((), _ptrim(poly)))


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


@dataclass(frozen=True)
class TwistedRep:
    """First-order realization of sl2 on a chart, twisted by lambda0."""

    lambda0: int
    chart: str
    rho: dict[str, ChartOp]

    def casimir(self) -> Fraction:
        """Scalar of e f + f e + h^2 / 2; constancy is asserted."""
        e, h, f = (self.rho[x] for x in _LABELS)
        omega = e.mul(f).add(f.mul(e)).add(h.mul(h).scale(Fraction(1, 2)))
        const = ChartOp.mult(
            (omega.coeffs[0][0] if omega.coeffs and omega.coeffs[0] else ZERO,),
            self.chart)
        if not omega.sub(const).is_zero():
            raise ArithmeticError("quadratic element did not act by a scalar")
        return const.coeffs[0][0] if const.coeffs else ZERO


def twisted_rep(lambda0: int, chart: str = "z") -> TwistedRep:
    """Solve for the unique twisted first-order action on the chart.

    Ansatz: rho(x) = vector field of x plus a multiplication polynomial
    b_x.  Constraints: the commutator defect a_x b_y' - a_y b_x' must
    equal b_[x,y] for every basis pair, the transverse translation is
    flat (no multiplication part), and the isotropy of the chart origin
    acts at the origin by the prescribed scalars.  The linear system
    has exactly one solution, which is asserted, and the bracket
    homomorphism is then re-checked on the operators themselves.
    """
    lam = scalar(lambda0)
    alg = sl2()
    fields = {x: vector_field(x, chart) for x in _LABELS}
    avec = {x: fields[x].coeffs[1] for x in _LABELS}
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

                def accum(a: tuple[Fraction, ...], bx: str, sign: int) -> None:
                    # sign * a * b_x' contribution to the ζ^m coefficient
                    for j in range(1, _B_DEG + 1):
                        k = m - j + 1
                        if 0 <= k < len(a) and a[k] != 0:
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
        rhs.append(mult * lam)
    mat = SparseMatrix(len(rows), len(idx),
                       [(r, c, v) for r, row in enumerate(rows)
                        for c, v in row.items() if v != 0])
    if rank(mat) != len(idx):
        raise ArithmeticError("twisted action is not determined by the constraints")
    sol = solve(mat, rhs)
    if sol is None:
        raise ArithmeticError("twist constraints are inconsistent")
    rho = {}
    for x in _LABELS:
        b = _ptrim([sol[idx[(x, j)]] for j in range(_B_DEG + 1)])
        rho[x] = fields[x].add(ChartOp.mult(b, chart))
    for xi in range(3):
        for yi in range(xi + 1, 3):
            want = ChartOp.zero(chart)
            for ci, c in enumerate(alg.bracket_basis(xi, yi)):
                if c != 0:
                    want = want.add(rho[_LABELS[ci]].scale(c))
            got = rho[_LABELS[xi]].commutator(rho[_LABELS[yi]])
            if not got.sub(want).is_zero():
                raise ArithmeticError("solved action fails the bracket check")
    return TwistedRep(int(lambda0), chart, rho)


# ---------------------------------------------------------------------------
# the delta module at the closed point


def _op_on_delta(op: ChartOp, n: int) -> dict[int, Fraction]:
    """Apply a chart operator to the n-th derivative of the point mass.

    Calculus: d . delta_n = delta_{n+1} and zeta . delta_m = -m
    delta_{m-1}, so a power of the coordinate contributes a falling
    product that vanishes naturally below the bottom.
    """
    out: dict[int, Fraction] = {}
    for k, p in enumerate(op.coeffs):
        m = n + k
        for j, c in enumerate(p):
            if c == 0:
                continue
            val = c
            for i in range(j):
                val *= -(m - i)
            if val != 0:
                key = m - j
                out[key] = out.get(key, ZERO) + val
    return {i: v for i, v in out.items() if v != 0}


def delta_module(lambda0: int, window: Window, chart: str = "z",
                 gauge: int = 0) -> GradedModule:
    """Direct image of the twisted fiber at the chart origin.

    Basis: derivatives delta_n of the point mass, graded by the torus
    weight read off the Cartan action (the origin of the w chart is the
    point at infinity and mirrors all weights).  ``gauge`` shifts the
    twist on the operator side and compensates with the opposite
    equivariant shift, so the reported character is gauge-independent
    while the matrices are not.
    """
    if window.rank != 1:
        raise ValueError("the delta module is graded by a rank-1 torus")
    rep = twisted_rep(lambda0 + gauge, chart)
    comp = gauge if chart == "z" else -gauge

    def weight_of(n: int) -> int:
        img = _op_on_delta(rep.rho["h"], n)
        if set(img) - {n}:
            raise ArithmeticError("Cartan action is not diagonal on the basis")
        val = img.get(n, ZERO) - comp
        if val.denominator != 1:
            raise ArithmeticError("non-integral weight on the delta basis")
        return int(val)

    index_of: dict[int, int] = {}
    weights: dict[int, int] = {}
    for n in range(window.span() + 2):
        wt = weight_of(n)
        if window.contains(wt):
            index_of[wt] = n
            weights[n] = wt
    dims = {(wt,): 1 for wt in index_of}
    step = weight_of(1) - weight_of(0)   # +2 on the z chart, -2 on w
    ops: dict[str, tuple[int, dict]] = {}
    chart_ops = {lab: rep.rho[lab] for lab in _LABELS}
    chart_ops["z"] = ChartOp.mult((ZERO, ONE), chart)
    chart_ops["dz"] = ChartOp.d(chart)
    shifts = {"e": 2, "h": 0, "f": -2, "z": -step, "dz": step}
    for name, op in chart_ops.items():
        blocks = {}
        for wt, n in index_of.items():
            img = _op_on_delta(op, n)
            tgt = wt + shifts[name]
            entry = ZERO
            for m, v in img.items():
                if weights.get(m) == tgt:
                    entry = entry + v
                elif weights.get(m) is not None:
                    raise ArithmeticError(f"operator {name!r} is not weight-homogeneous")
            if entry != 0 and (tgt,) in dims:
                blocks[(wt,)] = SparseMatrix(1, 1, [(0, 0, entry)])
        ops[name] = (shifts[name], blocks)
    names = {(wt,): (f"delta{n}",) for wt, n in index_of.items()}
    return GradedModule(rank=1, dims=dims, ops=ops, basis_names=names)


# ---------------------------------------------------------------------------
# the Laurent module on the open orbit


def laurent_module(lambda0: int, parity: int, window: Window,
                   chart: str = "z", gauge: int = 0) -> GradedModule:
    """Sections on the open torus orbit as a weight-graded module.

    The two-point stabilizer forces every weight to share the parity of
    the fiber sign character; the section of weight wt is the formal
    power coordinate**a with a read off the Cartan action (a is a
    half-integer when lambda0 and the parity disagree mod 2 — those are
    the sections of the square-root twist).
    """
    if parity not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    if window.rank != 1:
        raise ValueError("the Laurent module is graded by a rank-1 torus")
    rep = twisted_rep(lambda0 + gauge, chart)
    comp = gauge if chart == "z" else -gauge
    lam = scalar(lambda0 + gauge)

    def exponent(wt: int) -> Fraction:
        # solve rho(h) zeta^a = (wt + comp) zeta^a
        raw = scalar(wt + comp)
        return (lam - raw) / 2 if chart == "z" else (raw + lam) / 2

    wts = [wt for wt in range(window.lo[0], window.hi[0] + 1)
           if wt % 2 == parity]
    for wt in wts:
        a = exponent(wt)
        img = rep.rho["h"].apply_exp(a)
        if img != {a: scalar(wt + comp)} and not (not img and wt + comp == 0):
            raise ArithmeticError("Cartan action disagrees with the exponent")
    dims = {(wt,): 1 for wt in wts}
    ops: dict[str, tuple[int, dict]] = {}
    chart_ops = {lab: rep.rho[lab] for lab in _LABELS}
    chart_ops["z"] = ChartOp.mult((ZERO, ONE), chart)
    chart_ops["dz"] = ChartOp.d(chart)
    zstep = -2 if chart == "z" else 2
    shifts = {"e": 2, "h": 0, "f": -2, "z": zstep, "dz": -zstep}
    exp_to_wt = {exponent(wt): wt for wt in wts}
    for name, op in chart_ops.items():
        blocks = {}
        for wt in wts:
            img = op.apply_exp(exponent(wt))
            tgt = wt + shifts[name]
            entry = ZERO
            for a2, v in img.items():
                hit = exp_to_wt.get(a2)
                if hit == tgt:
                    entry = entry + v
                elif hit is not None:
                    raise ArithmeticError(f"operator {name!r} is not weight-homogeneous")
            if entry != 0 and (tgt,) in dims:
                blocks[(wt,)] = SparseMatrix(1, 1, [(0, 0, entry)])
        ops[name] = (shifts[name], blocks)
    return GradedModule(rank=1, dims=dims, ops=ops, parity=parity)


# ---------------------------------------------------------------------------
# two-chart Cech cohomology of the n-twisted bundle


def cech_cohomology_On(n: int, cap: int | None = None) -> tuple[Character, Character]:
    """Cohomology of the n-twist on the projective line, by K types.

    Classical two-chart computation: polynomial sections on each chart
    map into Laurent sections on the overlap (a w-chart monomial w^j
    glues to z^(n-j)); kernel and cokernel are assembled weight by
    weight and peeled into irreducible type multiplicities, which
    raises if the weights do not form a genuine representation.
    """
    big = (cap if cap is not None else abs(n) + 2)
    zs = {n - 2 * i: i for i in range(big + 1)}             # z^i, weight n-2i
    ws = {2 * j - n: j for j in range(big + 1)}             # w^j, weight 2j-n
    lo, hi = min(0, n - big), max(big, n)
    band = {n - 2 * a: a for a in range(lo, hi + 1)}        # overlap z^a
    h0: dict[int, int] = {}
    h1: dict[int, int] = {}
    for wt, a in band.items():
        cols = []
        if wt in zs:
            cols.append(ONE)        # z^i restricts to z^i
        if wt in ws:
            cols.append(-ONE)       # w^j restricts to z^(n-j)
        m = SparseMatrix(1, len(cols),
                         [(0, c, v) for c, v in enumerate(cols) if v != 0])
        ker = len(cols) - rank(m)
        cok = 1 - rank(m)
        if ker:
            h0[wt] = ker
        if cok:
            h1[wt] = cok
    return (Character("sl2-type", sl2_types_from_weights(h0)),
            Character("sl2-type", sl2_types_from_weights(h1)))


# ---------------------------------------------------------------------------
# truncated jets along an orbit


@dataclass(frozen=True)
class JetModule:
    """Truncation of a module associated with a fiber along an orbit.

    Closed-point case: ``level`` Taylor slots of sections in the normal
    coordinate, fiber in slot 0, with the first-order action pushed
    through the Leibniz rule.  Open-orbit case: the ideal of the orbit
    is zero, every truncation equals the fiber itself, and the normal
    multiplication is the zero map.
    """

    level: int
    fiber: HModule
    slot_weights: tuple[int, ...] | None
    ops: dict[str, SparseMatrix]
    mult: SparseMatrix
    parity: tuple[int, ...] | None = None

    @property
    def dim(self) -> int:
        return self.mult.rows

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


def _op_on_jets(op: ChartOp, p: int) -> SparseMatrix:
    """Matrix of a first-order chart operator on p Taylor slots.

    Slot s holds the s-th signed derivative at the origin; the i-th
    component of (a d + b) v is the Leibniz sum over Taylor
    coefficients of a and b, with slots beyond the truncation dropped.
    """
    if op.order() > 1:
        raise ValueError("jet action implemented for first-order operators")
    b = op.coeffs[0] if len(op.coeffs) > 0 else ()
    a = op.coeffs[1] if len(op.coeffs) > 1 else ()

    def taylor(poly: tuple[Fraction, ...], t: int) -> Fraction:
        # (-1)^t * t! * coefficient  ==  (-d)^t poly at 0
        if t >= len(poly):
            return ZERO
        val = poly[t]
        for i in range(1, t + 1):
            val *= -i
        return val

    entries = []
    for s in range(p):
        for t in range(s + 1):
            cs = scalar(comb(s, t))
            av = taylor(a, t)
            if av != 0 and s - t + 1 < p:
                entries.append((s, s - t + 1, -cs * av))
            bv = taylor(b, t)
            if bv != 0:
                entries.append((s, s - t, cs * bv))
    acc: dict[tuple[int, int], Fraction] = {}
    for r, c, v in entries:
        acc[(r, c)] = acc.get((r, c), ZERO) + v
    return SparseMatrix(p, p, [(r, c, v) for (r, c), v in acc.items() if v != 0])


def jet_associated_module(v: HModule, p: int) -> JetModule:
    """Jets of the bundle with fiber v along the orbit of its family.

    The isotropy presentation of v decides the geometry: a Cartan-plus-
    lowering isotropy is the closed point (one normal direction, p
    Taylor slots), the open-orbit isotropy has no normal direction at
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
    rep = twisted_rep(int(lam))
    ops = {lab: _op_on_jets(rep.rho[lab], p) for lab in _LABELS}
    mult = _op_on_jets(ChartOp.mult((ZERO, ONE), "z"), p)
    weights = tuple(int(lam) - 2 * s for s in range(p))
    return JetModule(level=p, fiber=v, slot_weights=weights, ops=ops, mult=mult)


def jet_conformance(jm: JetModule) -> dict[str, bool]:
    """The five conditions an associated-module truncation must satisfy.

    1. successive quotients are canonical and compact-equivariant;
    2. each normal-ideal graded piece is free of rank dim(fiber);
    3. the action map respects the compact grading (every operator
       entry shifts the slot weight by the adjoint weight);
    4. the compact generator acts exactly by the recorded grading;
    5. at level one the fiber map is an isomorphism intertwining the
       isotropy (and component) actions.
    """
    out: dict[str, bool] = {}
    if jm.slot_weights is None:
        ident = all(jm.truncate(q) == jm for q in range(1, jm.level + 1))
        fib = all(jm.ops[lab] == jm.fiber.action[i]
                  for i, lab in enumerate(jm.fiber.halg.labels))
        out["quotient_equivariant"] = ident and jm.mult.is_zero()
        out["graded_free"] = True
        out["action_equivariant"] = True
        out["compact_compatible"] = True
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
    iso = True
    halg = jm.fiber.halg
    for i, lab in enumerate(halg.labels):
        want = jm.fiber.action[i]
        got = base.ops[lab] if lab in base.ops else None
        if got is None:
            # isotropy generator expressed through the ambient basis
            got = SparseMatrix.zero(dv, dv)
        iso &= got == want
    out["fiber_isomorphism"] = iso
    return out


# ---------------------------------------------------------------------------
# the order filtration of the delta module


def filtration_check(gm: GradedModule, p: int) -> dict:
    """Verify the order filtration of a point direct image at level p.

    The level-p piece is the kernel of the (p+1)-st power of the
    coordinate multiplication.  Reported: its dimension against the
    expected p+1 (clipped to the window), nesting above level p-1,
    strict growth below exhaustion, and that repeated multiplication
    eventually kills everything stored (the coordinate is nilpotent on
    the truncation).
    """
    if "z" not in gm.ops:
        raise ValueError("module does not carry the coordinate multiplication")

    def steps_to_zero(wt: Weight) -> int | None:
        cur = wt
        for k in range(len(gm.dims) + 2):
            if gm.op_block("z", cur).is_zero():
                return k
            cur = gm.apply("z", cur, (ONE,))[0]
        return None

    depth = {wt: steps_to_zero(wt) for wt in gm.weights()}
    total = len(depth)
    nilpotent = all(d is not None for d in depth.values())
    fp = sum(1 for d in depth.values() if d is not None and d <= p)
    fprev = sum(1 for d in depth.values() if d is not None and d < p)
    expected = min(p + 1, total)
    return {
        "level": p,
        "dimension": fp,
        "expected_dimension": expected,
        "nested": fprev <= fp,
        "strictly_increasing": fp > fprev or fp == total,
        "nilpotent": nilpotent,
        "ok": nilpotent and fp == expected and (fp > fprev or fp == total),
    }
