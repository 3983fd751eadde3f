"""Standard-resolution engine for the derived induction functors.

The complex attached to a coefficient module W has terms

    convolution algebra  (x)_{l-part}  ( wedge^d (isotropy / l-part) (x) W )

and a boundary with three contributions: right multiplication of the
algebra part by a wedge leg, the module action of that leg on W, and the
bracket of two legs reduced modulo the l-part.  Degree-zero homology is
the fully reduced tensor; higher homology gives the derived functors.

Everything is reduced blockwise before any elimination happens: weight
blocks for torus symmetry, parity classes for the two-point stabilizer,
matrix types for full sl2.  Type blocks are finite and stop at the top
grading, past which they are exact; the build checks the top type.
Torus and parity blocks are truncated at a PBW depth, and the
depth is proved, not guessed (Knapp-Vogan 1995; Weibel 1994, 4.5 and
7.7).  Filter the complex by depth: F_c holds the algebra parts of
degree at most c - d in wedge degree d.  It is a subcomplex, since the
boundary raises word length by at most one while the budget drops by one
per wedge degree.  By PBW, F_{c+1}/F_c is a graded piece of the Koszul
complex S(g/l) (x) wedge(h/l) (x) W, whose homology is S^{c+1}(g/h) (x) W
in wedge degree 0 alone.  So by the long exact sequence H_j for j >= 1
is the same at every depth, and H_0 at depth c misses only the block's
piece of S^{>c}(g/h) (x) W.  For families A and D, g/h is spanned by the
e's, each of weight 2 in its own factor, so that piece sits in degrees
at most half the l1 distance from the block's weight to a module weight:
``HModule.weight_gap`` is the block's proved cut, and one less is too
little (the tests lower it).  The parity complex is the
Chevalley-Eilenberg resolution of W over U(h), exact at every depth; it
is cut at dim(h/l), the least depth at which every wedge degree has a
term, so every boundary is built and checked.  ``margin`` adds depth
past these cuts.  The guard stays: each block is assembled once, at
depth+1, and restricted to depth, and homology at the two depths must
agree; disagreement raises WindowTooSmall naming the block and degree.
Where the cut drops no key, the restriction is the deep block itself
and its homology is taken once, for both depths.

One driver, ``_assemble``, lists the basis keys (algebra part, wedge
legs, module slot) of each degree and builds the boundaries of every
block.  Each of the three models gives it only two closures: the
(part, slot) pairs that go with given legs in a degree, and the product
of a part with a leg, reduced in the block.  The torus and type models
grade each (legs, slot) key once per build, in one table ``_grades``.
Torus tables, root pairs and sl2 irreducibles come from liealg,
nothing from the oracle or locp1.  Most blocks have no basis in any
degree.  Such a block is left out: it is not assembled where the model
can tell in advance (the torus model compares its depth with the least
degree of the weights it would read, ``pbw.root_degree``, a closed
form), and not kept where only the restriction to depth shows it.  A
left-out key has homology 0 in every degree, as a Character reads a
missing key.  The torus and parity models yield their blocks one at a
time, and the build restricts and compares each before the next is
assembled; a torus build keeps the keys of those it built for the
certificate.

The torus model builds a few blocks per chamber, not one per window
point.  A block's chamber is its side of every grade in each
coordinate.  Past the grades one root step raises a root pair's gap and
the block's proved cut both by one, so the blocks of a chamber are
translates of each other: the same keys with one exponent raised, and
boundary entries polynomial in the step, of a degree N the pair fixes.
So a build assembles every block of the finite box the grades span, and
N + 1 translates along each ray past it, and checks that the translates
of each chamber agree with its outermost one (``_certify``); every
farther window point then shares that outermost block and its homology
at both depths.  A ray with no more window points than N + 1 is built
point by point, and one on a residue no grade has, where no block has a
basis, at its first point alone.  The argument is in ``_torus_blocks``; the repetition
is checked on every build, not assumed, and a failed check raises
StructureError naming the chamber, the translate and the degree.

The torus model lists the monomials of one weight at a time, from the
closed form ``pbw.monos_of_weight`` on the pair's root pairs (in a
torus pair the root vectors come in opposite pairs, one per torus
coordinate, so a weight fixes each pair's exponent difference).  Two
memos serve every build in the process, since neither depends on the
module, and each is keyed by its inputs: a weight's listing to a degree
(``_monos``), by the root pairs, the weight and the degree, and the
product of a monomial with a wedge leg (``_leg_product``), by the
algebra, the monomial and the leg vector.  A twist sweep reads mostly
the same weights at the same degrees; a weight read at two degrees is
listed once for each.  The oracle lists from the same closed form, per
window point, and shares no memo with this module.

``derived_p`` is the homology of this complex after the coefficient
module is twisted by the top exterior power of the quotient;
``derived_i`` is obtained from it through the contragredient module, on
the reflected window, with the resulting weights negated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations, product
from operator import add, sub
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .exactla import ONE, ZERO, SparseMatrix, homology_dim
from .gkmod import (Character, HModule, Weight, Window, WindowTooSmall,
                    check_module_compatible, dual_module, lambda_top,
                    tensor_onedim)
from .liealg import LieAlg, PairData, RootPair, StructureError, Vec, rep_of_vec
from .pbw import (Mono, UElt, bounded_exponents, monos_of_weight, reduce_block,
                  root_degree)

__all__ = [
    "ChainBlock", "StdComplex", "build_standard_complex",
    "derived_p", "derived_i",
]


# ---------------------------------------------------------------------------
# one finite chain complex (a single weight block / parity class / type)


@dataclass(frozen=True)
class ChainBlock:
    """A finite complex X_top -> ... -> X_1 -> X_0 with exact boundaries.

    ``boundaries[d]`` is the matrix of the map X_{d+1} -> X_d; the square
    of the boundary is checked on every homology call at a nonzero term,
    so a sign slip anywhere surfaces as CompositionNonzero rather than a
    wrong number.  Through a zero term d.d is zero by shape, and its
    homology is 0 with no elimination.
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
        return SparseMatrix.zero(self.dims[-1] if d == self.top + 1 else 0,
                                 self.dims[0] if d == 0 else 0)

    def homology(self, d: int) -> int:
        if d < 0 or d > self.top or not self.dims[d]:
            return 0
        return homology_dim(self.boundary(d), self.boundary(d + 1))


# ---------------------------------------------------------------------------
# wedge bookkeeping shared by the three block models


@dataclass(frozen=True)
class _WedgeData:
    """The wedge legs of one build: ascending leg subsets per degree,
    the bracket classes of leg pairs, and each leg's action matrix on
    the coefficient module."""

    subsets: tuple[tuple[tuple[int, ...], ...], ...]
    brackets: dict[tuple[int, int], tuple[Fraction, ...]]
    acts: tuple[SparseMatrix, ...]


def _wedge_data(pair: PairData, mod: HModule) -> _WedgeData:
    k = pair.hl_dim()
    subsets = tuple(tuple(combinations(range(k), d)) for d in range(k + 1))
    # a basis of h (PairData checks it), which holds every bracket of legs
    span = pair.hl_basis + pair.l_basis
    brackets: dict[tuple[int, int], tuple[Fraction, ...]] = {}
    for i in range(k):
        for j in range(i + 1, k):
            b = pair.lie.bracket(pair.hl_basis[i], pair.hl_basis[j])
            if all(x == 0 for x in b):
                continue
            cls = tuple(pair.lie.expand(b, span)[:k])
            if any(c != 0 for c in cls):
                brackets[(i, j)] = cls
    acts = tuple(mod.matrix_of(pair.h.coords(xi)) for xi in pair.hl_basis)
    return _WedgeData(subsets, brackets, acts)


def _grades(pair: PairData, mod: HModule,
            ) -> dict[tuple[int, ...], list[tuple[int, Weight]]]:
    """Per ascending leg subset, [(slot, the legs' K weights plus the
    slot's l-weight)]: the grading of each (legs, slot) key.  Not a
    ``_WedgeData`` field, since family B's legs are not weight vectors."""
    wts = [pair.h_weight_of(xi) for xi in pair.hl_basis]
    return {legs: [(t, tuple(map(sum, zip(lw, *(wts[i] for i in legs)))))
                   for t, lw in enumerate(mod.l_weights)]
            for d in range(len(wts) + 1) for legs in combinations(range(len(wts)), d)}


def _boundary_matrix(cols_hi: Mapping, cols_lo: Mapping, rmul: Callable,
                     wedge: _WedgeData) -> SparseMatrix:
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
                    raise StructureError("boundary image left the block basis")
                bump(row, col, sign * c)
            act = wedge.acts[leg]
            for s in range(act.rows):
                v = act.entry(s, t)
                if v != 0:
                    row = cols_lo.get((part, rem, s))
                    if row is None:
                        raise StructureError("module action left the block basis")
                    bump(row, col, -sign * v)
        for p1 in range(len(legs)):
            for p2 in range(p1 + 1, len(legs)):
                cls = wedge.brackets.get((legs[p1], legs[p2]))
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
# the driver and the three block models


def _assemble(wedge: _WedgeData, parts: Callable, rmul: Callable,
              ) -> tuple[list[dict], ChainBlock]:
    """One block complex from the two closures of its model.

    ``parts(d, legs)`` lists the (algebra part, module slot) pairs that
    go with the wedge legs in degree d, and ``rmul(part, leg)`` gives the
    (part, coefficient) terms of the part times the leg, reduced in the
    block.  Every model yields only nonzero coefficients there, so a term
    whose part is missing from the degree below is an error, never a
    zero to skip.  Returns the block with its basis keys (part, legs,
    slot) per degree, numbered in the order listed, for ``_restrict``.
    """
    cols: list[dict] = []
    for d, subsets in enumerate(wedge.subsets):
        cd: dict = {}
        for legs in subsets:
            for part, t in parts(d, legs):
                cd[(part, legs, t)] = len(cd)
        cols.append(cd)
    bnds = tuple(_boundary_matrix(cols[d + 1], cols[d], rmul, wedge)
                 for d in range(len(cols) - 1))
    return cols, ChainBlock(tuple(len(c) for c in cols), bnds)


@lru_cache(maxsize=None)
def _monos(roots: tuple[RootPair, ...], dim: int, w: Weight, cap: int) -> tuple[Mono, ...]:
    """``monos_of_weight``, listed once per process for each input."""
    return tuple(monos_of_weight(roots, dim, w, cap))


@lru_cache(maxsize=None)
def _leg_product(lie: LieAlg, mono: Mono, leg: Vec) -> Mapping[Mono, Fraction]:
    """The monomial times the wedge leg, straightened once per process
    for each input; callers only read it."""
    return (UElt(lie, {mono: ONE}) * UElt.from_vec(lie, leg)).terms


def _torus_blocks(pair: PairData, mod: HModule, depths: Mapping[Weight, int],
                  ) -> Iterator[tuple[Weight, tuple[list[dict], ChainBlock]]]:
    """Weight-block complexes, block n truncated at PBW depth depths[n].

    Yields each live block with its basis keys per degree, for
    ``_restrict``, in the order of ``depths``.  In degree d, block n
    reads the monomials of weight n - grade (``_grades``) up to degree
    depth - d, so it is live iff, for some grade and the least degree d
    it comes in, the least degree of that weight (``root_degree``) is at
    most depth - d; a block that is not is left out and not assembled.
    The monomials come from the closed form ``monos_of_weight``,
    lexicographic, through the per-process memo ``_monos``, one listing
    per (weight, degree) read.  The product of a monomial with a wedge
    leg does not depend on the block or the module, so it is
    straightened once per (algebra, monomial, leg vector), in
    ``_leg_product``; only the evaluation of its Cartan letters is per
    block.

    A build asks for a few blocks per chamber, not for every window
    point (``_torus_chambers``), because past the grades the blocks
    repeat.  Take n past every grade in coordinate c (n_c >= g_c for
    each grade g, or <= for each) and a root pair (x, y, c, s).  One
    root step, |s| = 2 outward in c, moves each weight n - g one step
    further from 0 in that pair's gap q = (n_c - g_c) / s, so its
    ``root_degree`` grows by one, and it grows the proved cut
    ``weight_gap`` by one, since every l-weight is a grade (of no legs)
    and each l1 distance grows by 2.  The spare degree of every (grade,
    degree) is unchanged, so raising the exponent of the pair's letter
    of outward weight by one maps the keys of the block onto those of
    the next, degree by degree, in the same order (adding one vector
    keeps lexicographic order).  Then each boundary entry is a
    polynomial in the number t of steps, of degree at most N per
    coordinate (``_translate_degree``): a leg meets the power x^(a+t)
    by the binomial rule x^(a+t) y = sum_k C(a+t, k) (ad x)^k(y)
    x^(a+t-k), whose k stops at the nilpotency of ad on the root letters
    against the legs (2 on sl2: f, h, -2e), and ``reduce_block``
    evaluates the Cartan letter such a term may carry at n minus the
    weight to its left, affine in t, one degree more where some
    (ad x)^k(leg) has a Cartan part.  So N = 3 on A and D, whose entries
    are in fact constant: each leg f comes last among the letters of its
    coordinate, and passes only letters it commutes with.  A polynomial of degree at most N in each of
    r variables that is constant on the grid {0..N}^r is constant: N + 1
    values fix it in one variable, and induction does the rest.  The
    grid is needed, not the axes: t1 * t2 vanishes on both axes.  So
    ``_certify`` compares each translate of a grid with its outermost,
    keys shifted and boundaries entry by entry, and every farther point
    of the chamber shares the outermost block.
    """
    cartan_of, adj = pair.cartan_of, pair.k.adjoint_weights
    lie, roots, legs_of = pair.lie, pair.root_pairs, pair.hl_basis
    wedge = _wedge_data(pair, mod)
    grades = _grades(pair, mod)
    # each grade of a (legs, slot) key, with the least degree it comes in
    least: dict[Weight, int] = {}
    for d, subsets in enumerate(wedge.subsets):
        for legs in subsets:
            for _, g in grades[legs]:
                least.setdefault(g, d)

    def parts(n: Weight, cut: int, d: int,
              legs: tuple[int, ...]) -> Iterable[tuple[Mono, int]]:
        for t, g in grades[legs]:
            for mono in _monos(roots, lie.dim, tuple(map(sub, n, g)), cut - d):
                yield mono, t

    def rmul(n: Weight, mono: Mono, leg: int) -> Iterable:
        return reduce_block(cartan_of, adj, n, _leg_product(lie, mono, legs_of[leg])).items()

    def live(n: Weight, cut: int) -> bool:
        for g, d in least.items():
            r = root_degree(roots, tuple(map(sub, n, g)))
            if r is not None and r <= cut - d:
                return True
        return False

    for n, cut in depths.items():
        if live(n, cut):
            yield n, _assemble(wedge, partial(parts, n, cut), partial(rmul, n))


@lru_cache(maxsize=None)
def _translate_degree(pair: PairData) -> int:
    """N: the degree, per coordinate, of a boundary entry of a torus
    block in the number of steps it is translated by (``_torus_blocks``):
    the largest k with (ad x)^k(leg) nonzero, x a root letter, plus one
    if such a bracket has a Cartan part for ``reduce_block`` to evaluate.
    Worked out once per process for each pair."""
    lie, cartan = pair.lie, pair.cartan_of
    nil = cartan_part = 0
    for x in (lie.basis_vector(i) for i, c in enumerate(cartan) if c is None):
        for leg in pair.hl_basis:
            v, k = lie.bracket(x, leg), 1
            while any(v):
                nil = max(nil, k)
                cartan_part |= any(a for a, c in zip(v, cartan) if c is not None)
                v, k = lie.bracket(x, v), k + 1
    return nil + cartan_part


class _OnRay(NamedTuple):
    """A built value of a proved ray in one coordinate: the side of the
    grades it lies on, the root letter whose exponent grows outward, its
    step t from the ray's first value, and the outermost built value."""

    side: str
    letter: int
    t: int
    first: int
    far: int


def _torus_chambers(pair: PairData, mod: HModule, window: Window, margin: int,
                    ) -> tuple[dict[Weight, int], list[tuple[int, ...]], list[tuple], int]:
    """Which torus blocks a build assembles, and what they prove.

    Per coordinate, a window value inside the grades' span (the box)
    stands for itself.  Beyond it, on each side and in each residue
    modulo the root step, the window's values form a ray outward from
    the grades.  A ray with more than N + 1 values (``_translate_degree``)
    is proved: its first N + 1 values are built, and every farther value
    stands for the outermost of them.  A shorter ray stands for itself,
    so no build assembles more blocks than its window has.  A ray on a
    residue no grade has holds no block with a basis, since no weight
    n - g on it divides by the root step (``root_degree``): its values
    stand for its first, which is built and found empty.  The points
    built are the products of the values that stand for some window
    value.  A point t steps out along its rays is cut at the cut of its
    base (each ray at its first value) plus t, which is its own
    ``weight_gap`` plus the margin (``_torus_blocks``).

    Returns the cut of each point to build, in window order; per
    coordinate, the value each window value stands for; per built point
    short of its chamber's outermost, (the point, the outermost built
    point, the shift of the point's keys onto the outermost's, and per
    coordinate its ``_OnRay`` or None), for ``_certify``; and the
    window's largest proved cut, read at its corners since
    ``weight_gap`` is convex.
    """
    bound = _translate_degree(pair)
    grades = [g for gs in _grades(pair, mod).values() for _, g in gs]
    if not grades:      # the zero module: no block has a basis
        return {}, [tuple(range(lo, hi + 1)) for lo, hi in zip(window.lo, window.hi)], [], margin
    letters = {c: ((x, y) if s > 0 else (y, x), abs(s)) for x, y, c, s in pair.root_pairs}
    reps: list[tuple[int, ...]] = []
    rays: list[dict[int, _OnRay]] = []
    for c, (lo, hi) in enumerate(zip(window.lo, window.hi)):
        stands = {v: v for v in range(lo, hi + 1)}
        ray: dict[int, _OnRay] = {}
        (up, down), step = letters[c]
        for sign, wall, letter in ((1, max(g[c] for g in grades), up),
                                   (-1, min(g[c] for g in grades), down)):
            for first in range(wall + sign, wall + sign * (step + 1), sign):
                line = [v for v in range(first, hi + 1 if sign > 0 else lo - 1, sign * step)
                        if lo <= v <= hi]
                if line and all((first - g[c]) % step for g in grades):
                    stands.update(dict.fromkeys(line, line[0]))
                elif len(line) > bound + 1:
                    stands.update(dict.fromkeys(line[bound + 1:], line[bound]))
                    side = f"{'>' if sign > 0 else '<'}{wall}"
                    for t, v in enumerate(line[:bound + 1]):
                        ray[v] = _OnRay(side, letter, t, line[0], line[bound])
        reps.append(tuple(stands.values()))
        rays.append(ray)
    built = list(product(*(sorted(set(r)) for r in reps)))
    cuts = {n: mod.weight_gap(n) + margin for n in built}
    proofs: list[tuple[Weight, Weight, Mono, list]] = []
    for n in built if any(rays) else ():
        on = list(map(dict.get, rays, n))
        if not any(on):         # in the box or on a ray built point by point
            continue
        base, far, steps, shift = [], [], 0, [0] * pair.lie.dim
        for v, r in zip(n, on):
            base.append(v if r is None else r.first)
            far.append(v if r is None else r.far)
            if r is not None:
                steps += r.t
                shift[r.letter] += bound - r.t
        cuts[n] = cuts[tuple(base)] + steps
        if any(shift):
            proofs.append((n, tuple(far), tuple(shift), on))
    cut = max(map(mod.weight_gap, product(*zip(window.lo, window.hi)))) + margin
    return cuts, reps, proofs, cut


def _certify(kept: Mapping[Weight, tuple[list[dict], ChainBlock]],
             proofs: Iterable[tuple[Weight, Weight, Mono, list]]) -> None:
    """Check that each certificate translate is its chamber's outermost
    block, shifted: the same keys in the same order once shifted, and
    the same boundaries.  A block with no basis is missing from
    ``kept``.  A difference raises StructureError naming the chamber,
    the translate and the first degree that differs."""
    for n, far, shift, on in proofs:
        got, want = kept.get(n), kept.get(far)
        if got is None or want is None:
            bad = None if got is want else \
                min(d for d, cd in enumerate((got or want)[0]) if cd)
        else:
            bad = next((d for d, cd in enumerate(want[0])
                        if [(tuple(map(add, mono, shift)), legs, t)
                            for mono, legs, t in got[0][d]] != list(cd)
                        or d and got[1].boundaries[d - 1] != want[1].boundaries[d - 1]),
                       None)
        if bad is not None:
            chamber = ", ".join(str(v) if r is None else r.side for v, r in zip(n, on))
            raise StructureError(
                f"chamber ({chamber}) at {far}: translate {n} differs in degree {bad}")


def _open_blocks(pair: PairData, mod: HModule,
                 cut: int) -> Iterator[tuple[int, tuple[list[dict], ChainBlock]]]:
    """Parity-class complexes for the two-point stabilizer.

    Here g = k + h, so by PBW U(g) = U(k) (x) U(h), and a block evaluates
    the U(k) factor: the algebra part of every block is U(h), presented
    on the basis of h, and one complex per parity class serves every
    weight block of that class.  The nontrivial stabilizer component is
    central, hence acts trivially on the wedge legs, and the parity
    bookkeeping reduces to the module slots alone.  Yields each class
    with its basis keys per degree, for ``_restrict``.
    """
    halg = pair.halg
    leg_u = [UElt.from_vec(halg, pair.h.coords(xi)) for xi in pair.hl_basis]
    wedge = _wedge_data(pair, mod)
    monos = bounded_exponents(halg.dim, cut)

    def rmul(mono: Mono, leg: int) -> Iterable:
        return (UElt(halg, {mono: ONE}) * leg_u[leg]).terms.items()

    def parts(ts: list[int], d: int,
              legs: tuple[int, ...]) -> list[tuple[Mono, int]]:
        return [(mono, t) for mono in monos if sum(mono) <= cut - d for t in ts]

    for p in (0, 1):
        ts = [t for t in range(mod.dim) if mod.parity[t] == p]
        if ts:
            yield p, _assemble(wedge, partial(parts, ts), rmul)


def _restrict(key, cols: Sequence[Mapping], blk: ChainBlock,
              cut: int) -> ChainBlock:
    """The truncation at depth cut of a block built at a greater depth.

    ``cols[d]`` maps the basis keys (algebra part, legs, slot) of degree d
    to their indices; the kept keys are those whose algebra part has
    degree at most cut - d.  A cut that keeps every key returns ``blk``
    itself, so the caller can tell that the two depths share one complex.
    Because the truncation is a subcomplex, no kept column may have an
    entry in a dropped row; one that does raises StructureError naming
    the block and the degree.
    """
    if all(sum(mono) <= cut - d for d, cd in enumerate(cols) for mono, _, _ in cd):
        return blk
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


def _sl2_blocks(pair: PairData, mod: HModule) -> dict[int, ChainBlock]:
    """Per-type complexes for full sl2, types 0 to the largest grading |w|.

    Left equivariance cuts each matrix block to a single row slice; the
    slice entry at column b carries grading m - 2b, and only the slots
    balancing the wedge and module gradings survive the l-part tensor.
    So in degree d a type-m block has one key per (legs, slot) grading w
    with |w| <= m and m = w (mod 2), and needs no depth cut; a type no
    grading reaches is left out, its irreducible not built.  Once m >=
    every |w|, each slot of m's parity has a key in both degrees and, by
    weight, the boundary is triangular with +-1 on the diagonal (the leg
    f takes row slot b + 1 to b with coefficient 1 and lowers W's
    weight), so the block is exact (Bott 1957; Knapp-Vogan 1995).  The
    build checks this on the top type.
    """
    wedge = _wedge_data(pair, mod)
    grades = _grades(pair, mod)
    # the irreducibles act through K's (e, h, f), so a leg is read in the
    # coordinates of the K embedding, not of the ambient basis
    leg_k = [pair.lie.expand(xi, pair.k.embedding) for xi in pair.hl_basis]

    def reaches(m: int, w: int) -> bool:
        # b = (m - w)/2 is the one row slot of grading w, if 0 <= b <= m
        return abs(w) <= m and (m - w) % 2 == 0

    def parts(m: int, d: int, legs: tuple[int, ...]) -> list[tuple[int, int]]:
        return [((m - w) // 2, t) for t, (w,) in grades[legs] if reaches(m, w)]

    def rmul(pms: list[SparseMatrix], b: int, leg: int) -> list:
        return pms[leg].row(b)

    weights = {w for ws in grades.values() for _, (w,) in ws}
    return {m: _assemble(wedge, partial(parts, m),
                         partial(rmul, [rep_of_vec(xk, m) for xk in leg_k]))[1]
            for m in range(max(map(abs, weights), default=-1) + 1)
            if any(reaches(m, w) for w in weights)}


# ---------------------------------------------------------------------------
# the assembled complex


@dataclass(frozen=True)
class StdComplex:
    """The reduced standard complex of a pair and a coefficient module.

    ``blocks`` maps the key (a weight, a parity class or a matrix type)
    of each block with a basis to its ChainBlock; a left-out key has no
    basis, and the weights past a torus chamber's certificate translates
    share its outermost block, one object.  ``characters`` holds the
    homology character of each degree 0..top, computed once per built
    block, at two depths for the truncated models.  ``cut`` is the
    largest block depth of a truncated model (for a torus window, the
    largest ``weight_gap`` in it plus the margin) and None for the type
    model.
    """

    blocks: dict
    characters: tuple[Character, ...]
    cut: int | None

    @property
    def top_degree(self) -> int:
        return len(self.characters) - 1

    def homology_character(self, d: int) -> Character:
        if 0 <= d <= self.top_degree:
            return self.characters[d]
        return Character(self.characters[0].kind, {})


def build_standard_complex(pair: PairData, v: HModule,
                           window: Window | None = None,
                           margin: int = 0) -> StdComplex:
    """Build the complex for the coefficient module v, twisted internally.

    The twist by the top exterior power of (ambient / isotropy) is part
    of the functor and is applied here; pass the untwisted module.  For
    torus symmetry supply a window: each weight block is cut at its
    proved depth ``weight_gap`` and each parity class at dim(h/l), plus
    ``margin`` (see the module docstring); a torus build assembles a few
    blocks per chamber and proves the rest (``_torus_chambers``,
    ``_certify``).  Truncated models are built once at depth cut+1 and
    restricted to cut; the two must agree on homology, otherwise
    WindowTooSmall names the first block and degree that differ.  Full
    sl2 takes no window; its top type must have no homology, otherwise
    StructureError names type, degree and value.
    """
    w = tensor_onedim(v, lambda_top(pair))
    check_module_compatible(pair, w)
    top = pair.hl_dim()
    if pair.k.kind == "sl2":
        blocks = _sl2_blocks(pair, w)
        hom = [{m: blk.homology(d) for m, blk in blocks.items()} for d in range(top + 1)]
        last = max(blocks, default=None)
        for d, hd in enumerate(hom):
            if hd.get(last):
                raise StructureError(f"type {last}, degree {d}: homology {hd[last]}, proved 0")
        return StdComplex(blocks, tuple(Character("sl2-type", hd) for hd in hom), None)
    if window is None:
        raise ValueError("torus symmetry needs a window")
    if not pair.two_point:
        cuts, reps, proofs, cut = _torus_chambers(pair, w, window, margin)
        deep = _torus_blocks(pair, w, {n: k + 1 for n, k in cuts.items()})
        spread = partial(Character, "torus-weight")
    else:
        cut, proofs = top + margin, []
        cuts = dict.fromkeys((0, 1), cut)
        deep = _open_blocks(pair, w, cut + 1)

        def spread(per: Mapping[int, int]) -> Character:
            dims = {n: per[n[0] % 2] for n in window.points() if per.get(n[0] % 2)}
            live = {p for p, m in per.items() if m}
            return Character("torus-weight", dims,
                             parity=live.pop() if len(live) == 1 else None)
    blocks: dict = {}
    kept: dict = {}             # the keys and blocks the certificate reads
    proved = {key for n, far, _, _ in proofs for key in (n, far)}
    hom: list[dict] = [{} for _ in range(top + 1)]     # per degree, per key
    for key, (cols, big) in deep:
        blk = _restrict(key, cols, big, cuts[key])
        for d, hd in enumerate(hom):
            h = blk.homology(d)
            h_big = h if blk is big else big.homology(d)
            if h != h_big:
                raise WindowTooSmall(
                    f"block {key}, degree {d}: homology {h} at depth {cuts[key]} but "
                    f"{h_big} at depth {cuts[key] + 1}, past the proved cut")
            hd[key] = h
        if key in proved:
            kept[key] = cols, big
        if any(blk.dims):
            blocks[key] = blk
    if proofs:
        # every window point takes the block and homology of the point it
        # stands for, once the certificate holds (with no proof, each
        # point with a basis stands for itself)
        _certify(kept, proofs)
        built, blocks = blocks, {}
        per_point: list[dict] = [{} for _ in hom]
        for n, r in zip(window.points(), product(*reps)):
            if r in built:
                blocks[n] = built[r]
                for hd, out in zip(hom, per_point):
                    if hd[r]:
                        out[n] = hd[r]
        hom = per_point
    return StdComplex(blocks, tuple(spread(hd) for hd in hom), cut)


def derived_p(pair: PairData, v: HModule, j: int,
              window: Window | None = None, margin: int = 0) -> Character:
    """Character of the j-th left derived functor of the quotient-side
    induction, computed as degree-j homology of the standard complex.
    Degrees outside [0, dim(isotropy/l)] are zero.  Tori need a window.
    """
    c = build_standard_complex(pair, v, window=window, margin=margin)
    return c.homology_character(j)


def derived_i(pair: PairData, v: HModule, j: int, window: Window) -> Character:
    """Character of the j-th right derived functor of the sub-side
    induction, via the contragredient module on the reflected window.
    Torus pairs only, at the proved cut.
    """
    dw = Window.box(tuple(-x for x in window.hi), tuple(-x for x in window.lo))
    return derived_p(pair, dual_module(v), j, window=dw).dual()

