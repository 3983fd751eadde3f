"""Finite-dimensional Lie algebras with exact structure constants.

A LieAlg stores its bracket as structure constants over the rationals;
antisymmetry and the Jacobi identity are checked on construction, so a
bad table can never propagate into downstream homology.  The module also
carries the descriptors for the symmetry group data used elsewhere: a
compact-group stand-in K (torus or sl2 kind), the isotropy subalgebra h,
the intersection data L, and the bundled PairData consumed by the
induction and localization engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .exactla import SparseMatrix, kernel_basis, rank, scalar

Vec = tuple[Fraction, ...]
Weight = tuple[int, ...]


class StructureError(ValueError):
    """Invalid structure constants or incompatible descriptor data."""


class UnsupportedK(ValueError):
    """The compact symmetry data falls outside the implemented models."""


def _vec(coords: Sequence[int | str | Fraction], dim: int) -> Vec:
    if len(coords) != dim:
        raise StructureError(f"coordinate vector of length {len(coords)}, expected {dim}")
    return tuple(scalar(c) for c in coords)


def vec_add(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vec_scale(c: Fraction | int, a: Vec) -> Vec:
    c = scalar(c)
    return tuple(c * x for x in a)


def vec_is_zero(a: Vec) -> bool:
    return all(x == 0 for x in a)


class LieAlg:
    """Lie algebra given by labelled basis and structure constants.

    ``brackets`` maps (i, j) with i < j to the coordinates of [x_i, x_j];
    missing pairs bracket to zero.  Antisymmetry is enforced by
    construction and Jacobi is verified over every basis triple.
    """

    def __init__(self, labels: Sequence[str],
                 brackets: dict[tuple[int, int], Sequence[int | str | Fraction]]):
        self.dim = len(labels)
        if len(set(labels)) != self.dim:
            raise StructureError("duplicate basis labels")
        self.labels = tuple(labels)
        table: dict[tuple[int, int], Vec] = {}
        for (i, j), coords in brackets.items():
            if not (0 <= i < self.dim and 0 <= j < self.dim):
                raise StructureError(f"bracket index ({i},{j}) out of range")
            if i == j:
                if not vec_is_zero(_vec(coords, self.dim)):
                    raise StructureError(f"[x_{i}, x_{i}] must vanish")
                continue
            if i > j:
                raise StructureError("brackets must be keyed with i < j")
            v = _vec(coords, self.dim)
            if not vec_is_zero(v):
                table[(i, j)] = v
        self._table = table
        # every ordered pair, antisymmetric and zero on the diagonal, so
        # bracket_basis (the innermost call of PBW straightening) is a lookup
        zero = self.zero()
        self._full = {(i, j): zero for i in range(self.dim) for j in range(self.dim)}
        for (i, j), v in table.items():
            self._full[(i, j)] = v
            self._full[(j, i)] = vec_scale(-1, v)
        self._check_jacobi()

    def basis_vector(self, i: int) -> Vec:
        return tuple(scalar(1) if j == i else scalar(0) for j in range(self.dim))

    def zero(self) -> Vec:
        return tuple(scalar(0) for _ in range(self.dim))

    def bracket_basis(self, i: int, j: int) -> Vec:
        return self._full[(i, j)]

    def bracket(self, a: Vec, b: Vec) -> Vec:
        out = self.zero()
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                if cb == 0:
                    continue
                out = vec_add(out, vec_scale(ca * cb, self.bracket_basis(i, j)))
        return out

    def _check_jacobi(self) -> None:
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                for k in range(j + 1, self.dim):
                    s = self.bracket(self.bracket_basis(i, j), self.basis_vector(k))
                    s = vec_add(s, self.bracket(self.bracket_basis(j, k), self.basis_vector(i)))
                    s = vec_add(s, self.bracket(self.bracket_basis(k, i), self.basis_vector(j)))
                    if not vec_is_zero(s):
                        raise StructureError(
                            f"Jacobi fails on ({self.labels[i]},{self.labels[j]},{self.labels[k]})")

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def expand(self, v: Vec, spanning: Sequence[Vec]) -> tuple[Fraction, ...] | None:
        """Coordinates of v in the given spanning vectors, or None."""
        m = SparseMatrix(self.dim, len(spanning),
                         [(r, c, w[r]) for c, w in enumerate(spanning)
                          for r in range(self.dim) if w[r] != 0])
        aug = SparseMatrix(self.dim, len(spanning) + 1,
                           [(r, c, val) for r, c, val in m.entries()]
                           + [(r, len(spanning), v[r]) for r in range(self.dim) if v[r] != 0])
        if rank(aug) != rank(m):
            return None
        # back-substitute: solve m x = v via kernel of [m | -v]
        for ker in kernel_basis(aug):
            if ker[-1] != 0:
                t = -1 / ker[-1]
                return tuple(t * ker[c] for c in range(len(spanning)))
        return None

    def in_basis(self, vectors: Sequence[Vec], labels: Sequence[str]) -> "LieAlg":
        """The same algebra presented on a different ordered basis."""
        if len(vectors) != self.dim:
            raise StructureError("change of basis needs a full basis")
        brackets: dict[tuple[int, int], Vec] = {}
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                b = self.bracket(vectors[i], vectors[j])
                coords = self.expand(b, vectors)
                if coords is None:
                    raise StructureError("proposed vectors do not span")
                brackets[(i, j)] = coords
        return LieAlg(labels, brackets)

    def __repr__(self) -> str:
        return f"LieAlg({'+'.join(self.labels)})"


def sl2() -> LieAlg:
    """sl2 on basis (e, h, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    return LieAlg(("e", "h", "f"), {
        (0, 1): (-2, 0, 0),   # [e,h] = -2e
        (0, 2): (0, 1, 0),    # [e,f] = h
        (1, 2): (0, 0, -2),   # [h,f] = -2f
    })


def torus(r: int) -> LieAlg:
    """Abelian algebra of rank r."""
    if r < 0:
        raise StructureError("negative rank")
    return LieAlg(tuple(f"t{i}" for i in range(r)), {})


def direct_sum(a: LieAlg, b: LieAlg) -> LieAlg:
    """Direct sum with block structure constants and suffixed labels."""
    labels = tuple(f"{lab}1" for lab in a.labels) + tuple(f"{lab}2" for lab in b.labels)
    brackets: dict[tuple[int, int], Vec] = {}
    zero_b = tuple(scalar(0) for _ in range(b.dim))
    zero_a = tuple(scalar(0) for _ in range(a.dim))
    for (i, j), v in a._table.items():
        brackets[(i, j)] = v + zero_b
    for (i, j), v in b._table.items():
        brackets[(a.dim + i, a.dim + j)] = zero_a + v
    return LieAlg(labels, brackets)


@dataclass(frozen=True)
class Subalg:
    """A bracket-closed subspace of an ambient LieAlg."""

    ambient: LieAlg
    basis: tuple[Vec, ...]

    def __post_init__(self) -> None:
        m = SparseMatrix(self.ambient.dim, len(self.basis),
                         [(r, c, v[r]) for c, v in enumerate(self.basis)
                          for r in range(self.ambient.dim) if v[r] != 0])
        if rank(m) != len(self.basis):
            raise StructureError("subalgebra basis is linearly dependent")
        for i, x in enumerate(self.basis):
            for y in self.basis[i + 1:]:
                if self.ambient.expand(self.ambient.bracket(x, y), self.basis) is None:
                    raise StructureError("subspace is not bracket-closed")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Vec) -> bool:
        return self.ambient.expand(v, self.basis) is not None

    def coords(self, v: Vec) -> tuple[Fraction, ...]:
        c = self.ambient.expand(v, self.basis)
        if c is None:
            raise StructureError("vector lies outside the subalgebra")
        return c

    def as_lie(self, labels: Sequence[str]) -> LieAlg:
        """Present the subalgebra abstractly on its own basis."""
        if len(labels) != self.dim:
            raise StructureError("need one label per basis vector")
        brackets: dict[tuple[int, int], tuple[Fraction, ...]] = {}
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                b = self.ambient.bracket(self.basis[i], self.basis[j])
                brackets[(i, j)] = self.coords(b)
        return LieAlg(labels, brackets)


# -- chart vector fields (coefficient data only; full operators live in locp1)

def _field_coefficient(lie: LieAlg, i: int, point: Fraction, chart: str) -> Fraction:
    """Value at the point of the chart coefficient of basis field i.

    For each sl2 summand, the one-parameter flows of (e, h, f) through the
    Moebius action differentiate to coefficient polynomials (-1, -2z, z^2)
    in the z chart and (w^2, 2w, -1) in the w chart.
    """
    name = lie.labels[i].rstrip("12")
    p = point
    if chart == "z":
        coeff = {"e": scalar(-1), "h": -2 * p, "f": p * p}
    elif chart == "w":
        coeff = {"e": p * p, "h": 2 * p, "f": scalar(-1)}
    else:
        raise StructureError(f"unknown chart {chart!r}")
    if name not in coeff:
        raise StructureError(f"basis label {lie.labels[i]!r} has no chart field")
    return coeff[name]


def stabilizer_subalgebra(lie: LieAlg, point: int | str | Fraction,
                          chart: str = "z") -> Subalg:
    """Isotropy subalgebra of a point of the projective line.

    Solves the exact linear condition 'coefficient of the induced chart
    field vanishes at the point' and returns the kernel as a Subalg.
    Use chart='w' with point 0 for the point at infinity.
    """
    p = scalar(point)
    row = [(0, i, _field_coefficient(lie, i, p, chart)) for i in range(lie.dim)]
    m = SparseMatrix(1, lie.dim, [(r, c, v) for r, c, v in row if v != 0])
    basis = tuple(kernel_basis(m))
    return Subalg(lie, basis)


@dataclass(frozen=True)
class KDescriptor:
    """Compact symmetry data: a torus of given rank, or sl2 itself.

    ``embedding`` lists the images of the K generators inside the ambient
    algebra; ``adjoint_weights`` gives the K weight of every ambient basis
    element (the basis must be a simultaneous eigenbasis).
    """

    kind: str                      # "torus" | "sl2"
    rank: int
    embedding: tuple[Vec, ...]
    adjoint_weights: tuple[Weight, ...]

    def validate(self, lie: LieAlg) -> None:
        if self.kind not in ("torus", "sl2"):
            raise StructureError(f"unsupported K kind {self.kind!r}")
        if self.kind == "torus":
            if len(self.embedding) != self.rank:
                raise StructureError("torus embedding size != rank")
            for x in self.embedding:
                for y in self.embedding:
                    if not vec_is_zero(lie.bracket(x, y)):
                        raise StructureError("torus embedding is not abelian")
        if len(self.adjoint_weights) != lie.dim:
            raise StructureError("adjoint weight table must cover the basis")
        for j in range(lie.dim):
            w = self.adjoint_weights[j]
            if len(w) != self.rank:
                raise StructureError("adjoint weight of wrong rank")
            for i, k in enumerate(self.embedding[:self.rank] if self.kind == "torus"
                                  else self.cartan_generators()):
                got = lie.bracket(k, lie.basis_vector(j))
                want = vec_scale(w[i], lie.basis_vector(j))
                if got != want:
                    raise StructureError(
                        f"basis {lie.labels[j]!r} is not a K weight vector")

    def cartan_generators(self) -> tuple[Vec, ...]:
        # for the sl2 kind the grading torus is spanned by the embedded h
        return (self.embedding[1],) if self.kind == "sl2" else self.embedding


@dataclass(frozen=True)
class LDescriptor:
    """Intersection data L = K meet H: a subtorus plus component count."""

    torus_indices: tuple[int, ...]   # which K coordinates survive in L
    component_order: int = 1         # 1, or 2 for the two-point group

    def parity_of(self, weight: Weight) -> int:
        return sum(weight) % 2 if self.component_order == 2 else 0


@dataclass(frozen=True)
class PairData:
    """Everything the induction/localization engines need about a family.

    zeta_indices: ambient basis indices spanning a complement of k + h.
    hl_basis: vectors spanning h modulo l (ordered; fixes wedge signs).
    adapted_labels/adapted_vectors: the internal presentation basis,
    ordered K-part first, then zeta part, then the h-part, so that
    left reduction of K generators is a plain evaluation.
    """

    name: str
    family: str                  # "A" | "B" | "C" | "D"
    lie: LieAlg
    k: KDescriptor
    h: Subalg
    h_labels: tuple[str, ...]
    l_basis: tuple[Vec, ...]
    l_group: LDescriptor
    u_dim: int
    zeta_indices: tuple[int, ...]
    hl_basis: tuple[Vec, ...]
    adapted_labels: tuple[str, ...]
    adapted_vectors: tuple[Vec, ...]
    k_part: int                  # how many leading adapted vectors lie in k
    base_point: tuple[str, Fraction] = ("z", Fraction(0))

    def __post_init__(self) -> None:
        self.k.validate(self.lie)
        for v in self.l_basis:
            if not self.h.contains(v):
                raise StructureError("l is not inside h")

    def adapted(self) -> LieAlg:
        return self.lie.in_basis(self.adapted_vectors, self.adapted_labels)

    def h_as_lie(self) -> LieAlg:
        return self.h.as_lie(self.h_labels)

    def hl_dim(self) -> int:
        return len(self.hl_basis)

    def h_weight_of(self, v: Vec) -> Weight:
        """K weight of an h-basis vector class (eigen required for A/C/D)."""
        ws = {self.k.adjoint_weights[i] for i, c in enumerate(v) if c != 0}
        if len(ws) != 1:
            raise StructureError("vector is not a K weight vector")
        return ws.pop()

    def adapted_legs(self) -> tuple[int, ...]:
        """Adapted-basis index of each vector of hl_basis.

        Each vector must be a single adapted basis vector outside the K
        part, so a wedge leg is one letter of the adapted presentation.
        """
        out = []
        for xi in self.hl_basis:
            coords = self.lie.expand(xi, self.adapted_vectors)
            nz = [i for i, c in enumerate(coords) if c != 0]
            if len(nz) != 1 or coords[nz[0]] != 1 or nz[0] < self.k_part:
                raise UnsupportedK("adapted basis must contain the isotropy complement")
            out.append(nz[0])
        return tuple(out)


def closed_orbit_pair() -> PairData:
    """Family A: torus K, isotropy the Borel at the origin, u = 0."""
    g = sl2()
    e, h, f = g.basis_vector(0), g.basis_vector(1), g.basis_vector(2)
    k = KDescriptor("torus", 1, (h,), ((2,), (0,), (-2,)))
    hsub = Subalg(g, (h, f))
    return PairData(
        name="closed-orbit", family="A", lie=g, k=k, h=hsub,
        h_labels=("h", "f"),
        l_basis=(h,), l_group=LDescriptor(torus_indices=(0,)),
        u_dim=0, zeta_indices=(0,), hl_basis=(f,),
        adapted_labels=("h", "e", "f"), adapted_vectors=(h, e, f), k_part=1,
        base_point=("z", Fraction(0)))


def open_orbit_pair() -> PairData:
    """Family B: torus K, isotropy the Borel at z = 1, L two points."""
    g = sl2()
    e, h, f = g.basis_vector(0), g.basis_vector(1), g.basis_vector(2)
    x1 = vec_add(e, f)            # e + f
    x2 = vec_add(h, vec_scale(2, f))   # h + 2f
    k = KDescriptor("torus", 1, (h,), ((2,), (0,), (-2,)))
    hsub = Subalg(g, (x1, x2))
    return PairData(
        name="open-orbit", family="B", lie=g, k=k, h=hsub,
        h_labels=("x1", "x2"),
        l_basis=(), l_group=LDescriptor(torus_indices=(), component_order=2),
        u_dim=0, zeta_indices=(), hl_basis=(x1, x2),
        adapted_labels=("h", "x1", "x2"), adapted_vectors=(h, x1, x2), k_part=1,
        base_point=("z", Fraction(1)))


def borel_weil_bott_pair() -> PairData:
    """Family C: K is all of sl2, isotropy the Borel at the origin, u = 1."""
    g = sl2()
    e, h, f = g.basis_vector(0), g.basis_vector(1), g.basis_vector(2)
    k = KDescriptor("sl2", 1, (e, h, f), ((2,), (0,), (-2,)))
    hsub = Subalg(g, (h, f))
    return PairData(
        name="borel-weil-bott", family="C", lie=g, k=k, h=hsub,
        h_labels=("h", "f"),
        l_basis=(h,), l_group=LDescriptor(torus_indices=(0,)),
        u_dim=1, zeta_indices=(0,), hl_basis=(f,),
        adapted_labels=("h", "e", "f"), adapted_vectors=(h, e, f), k_part=1,
        base_point=("z", Fraction(0)))


def product_pair() -> PairData:
    """Family D: two closed-orbit factors; dim(h/l) = 2, three terms."""
    g = direct_sum(sl2(), sl2())
    e1, h1, f1 = g.basis_vector(0), g.basis_vector(1), g.basis_vector(2)
    e2, h2, f2 = g.basis_vector(3), g.basis_vector(4), g.basis_vector(5)
    k = KDescriptor("torus", 2, (h1, h2),
                    ((2, 0), (0, 0), (-2, 0), (0, 2), (0, 0), (0, -2)))
    hsub = Subalg(g, (h1, f1, h2, f2))
    return PairData(
        name="product", family="D", lie=g, k=k, h=hsub,
        h_labels=("h1", "f1", "h2", "f2"),
        l_basis=(h1, h2), l_group=LDescriptor(torus_indices=(0, 1)),
        u_dim=0, zeta_indices=(0, 3), hl_basis=(f1, f2),
        adapted_labels=("h1", "h2", "e1", "e2", "f1", "f2"),
        adapted_vectors=(h1, h2, e1, e2, f1, f2), k_part=2,
        base_point=("z", Fraction(0)))


_FAMILIES: dict[str, Callable[[], PairData]] = {
    "closed-orbit": closed_orbit_pair,
    "open-orbit": open_orbit_pair,
    "borel-weil-bott": borel_weil_bott_pair,
    "product": product_pair,
    "A": closed_orbit_pair,
    "B": open_orbit_pair,
    "C": borel_weil_bott_pair,
    "D": product_pair,
}


def pair_by_name(name: str) -> PairData:
    try:
        return _FAMILIES[name]()
    except KeyError:
        raise StructureError(f"unknown pair family {name!r}") from None
