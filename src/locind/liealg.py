"""Finite-dimensional Lie algebras with exact structure constants.

A LieAlg stores its bracket as structure constants over the rationals;
antisymmetry and the Jacobi identity are checked on construction, so a
bad table can never propagate into downstream homology.  The module also
carries the descriptors for the symmetry group data used elsewhere: a
compact-group stand-in K (torus or sl2 kind), the isotropy subalgebra h,
and the bundled PairData consumed by the induction and localization
engines, with the stabilizer L, the torus tables, the root pairs and
the isotropy algebra a pair implies, and the sl2 irreducibles the
resolution and the oracle share.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Sequence

from .exactla import ONE, SparseMatrix, rank, scalar, solve

Vec = tuple[int | Fraction, ...]
Weight = tuple[int, ...]
RootPair = tuple[int, int, int, int]   # (x, y, torus coordinate c, weight s of x on c)


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


def _columns(dim: int, vecs: Sequence[Vec]) -> SparseMatrix:
    """The matrix whose columns are the given vectors."""
    return SparseMatrix(dim, len(vecs), [(r, c, v[r]) for c, v in enumerate(vecs)
                                         for r in range(dim) if v[r] != 0])


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

    @lru_cache(maxsize=None)
    def expand(self, v: Vec, spanning: tuple[Vec, ...]) -> Vec | None:
        """Coordinates of v in the given spanning vectors, or None.

        Solved once per process for each (algebra, v, spanning): the
        builds of one pair expand the same legs, brackets and module
        generators again and again.
        """
        return solve(_columns(self.dim, spanning), v)

    def __repr__(self) -> str:
        return f"LieAlg({'+'.join(self.labels)})"


def sl2() -> LieAlg:
    """sl2 on basis (e, h, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    return LieAlg(("e", "h", "f"), {
        (0, 1): (-2, 0, 0),   # [e,h] = -2e
        (0, 2): (0, 1, 0),    # [e,f] = h
        (1, 2): (0, 0, -2),   # [h,f] = -2f
    })


def irrep_row(v: Vec, n: int, b: int) -> list[tuple[int, int | Fraction]]:
    """Row b of v = xe + yh + zf on the type-n irreducible, as (column, entry).

    Basis u_0..u_n with u_k = f^k u_0: h u_k = (n-2k) u_k,
    f u_k = u_{k+1}, e u_k = k(n-k+1) u_{k-1}; so row b holds z at
    column b-1, y(n-2b) at b and x(b+1)(n-b) at b+1, zeros left out.
    """
    x, y, z = v
    row = ((b - 1, z if b else 0), (b, y * (n - 2 * b)), (b + 1, x * (b + 1) * (n - b)))
    return [(c, a) for c, a in row if a]


@lru_cache(maxsize=None)
def irrep_matrices(n: int) -> tuple[SparseMatrix, SparseMatrix, SparseMatrix]:
    """Matrices of (e, h, f) on the (n+1)-dimensional irreducible, by ``irrep_row``."""
    if n < 0:
        raise ValueError("negative highest weight")
    return tuple(SparseMatrix(n + 1, n + 1, [(b, c, a) for b in range(n + 1)
                                             for c, a in irrep_row(u, n, b)])
                 for u in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


@lru_cache(maxsize=None)
def rep_of_vec(v: Vec, n: int) -> SparseMatrix:
    """Image of a Lie algebra vector on the type-n irreducible (immutable, so cached)."""
    return SparseMatrix.combination(n + 1, n + 1, irrep_matrices(n), v)


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
        if rank(_columns(self.ambient.dim, self.basis)) != len(self.basis):
            raise StructureError("subalgebra basis is linearly dependent")
        for i, x in enumerate(self.basis):
            for y in self.basis[i + 1:]:
                if self.ambient.expand(self.ambient.bracket(x, y), self.basis) is None:
                    raise StructureError("subspace is not bracket-closed")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coords(self, v: Vec) -> Vec:
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
class PairData:
    """Everything the induction/localization engines need about a family.

    hl_basis: vectors spanning h modulo l (ordered; fixes wedge signs).
    The stabilizer L = K meet H is one of two: K's maximal torus, with
    ``l_basis`` spanning K's Cartan generators, or K's two-point group
    (``two_point``: an empty ``l_basis``), with modules carrying
    parities.  A two-point pair (the open orbit) must have g = k + h as
    vector spaces: by PBW, U(g) = U(k) (x) U(h), and a block evaluates
    U(k), so every block's algebra part is U(h) on the basis of h.
    """

    name: str
    lie: LieAlg
    k: KDescriptor
    h: Subalg
    h_labels: tuple[str, ...]
    l_basis: tuple[Vec, ...]
    hl_basis: tuple[Vec, ...]

    def __post_init__(self) -> None:
        self.k.validate(self.lie)
        # independent, as many as dim h, and inside h (adding h's basis
        # does not raise the rank)
        basis = self.l_basis + self.hl_basis
        if (len(basis) != self.h.dim
                or rank(_columns(self.lie.dim, basis)) != len(basis)
                or rank(_columns(self.lie.dim, self.h.basis + basis)) != len(basis)):
            raise StructureError("l_basis and hl_basis must together be a basis of h")
        if self.two_point:
            span = self.k.embedding + self.h.basis
            if len(span) != self.lie.dim or rank(_columns(self.lie.dim, span)) != len(span):
                raise UnsupportedK("with no stabilizer torus, k and h must together "
                                   "be a basis of the ambient algebra")
        else:
            carts = self.k.cartan_generators()
            if not (rank(_columns(self.lie.dim, carts)) == len(self.l_basis)
                    == rank(_columns(self.lie.dim, carts + self.l_basis))):
                raise UnsupportedK("l_basis must span K's Cartan generators")

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The fields' hash, taken once per pair, since memos key on pairs."""
        return hash((self.name, self.lie, self.k, self.h, self.h_labels,
                     self.l_basis, self.hl_basis))

    @property
    def two_point(self) -> bool:
        """True when L is K's two-point group: no stabilizer torus."""
        return not self.l_basis

    @cached_property
    def cartan_of(self) -> tuple[int | None, ...]:
        """Torus coordinate of each ambient basis vector; torus pairs only."""
        if self.k.kind != "torus":
            raise UnsupportedK(f"not a torus pair: {self.k.kind!r}")
        cart: list[int | None] = [None] * self.lie.dim
        for coord, emb in enumerate(self.k.embedding):
            nz = [i for i, c in enumerate(emb) if c != 0]
            if len(nz) != 1 or emb[nz[0]] != 1:
                raise UnsupportedK("torus generators must be ambient basis vectors")
            cart[nz[0]] = coord
        return tuple(cart)

    @cached_property
    def root_pairs(self) -> tuple[RootPair, ...]:
        """The basis vectors off the torus, the root vectors, as pairs
        (x, y, c, s): x < y of K weights s and -s on torus coordinate c
        alone, one pair per coordinate, in the order of x; torus pairs
        only.  A weight w fixes exp(x) - exp(y) = w[c] / s in a monomial
        on them, so ``pbw.monos_of_weight`` lists them in closed form.
        """
        adj, pairs = self.k.adjoint_weights, []
        free = [i for i, c in enumerate(self.cartan_of) if c is None]
        for c in range(self.k.rank):
            on = [i for i in free if adj[i][c]]
            if (len(on) != 2 or adj[on[0]][c] != -adj[on[1]][c]
                    or any(a for i in on for cc, a in enumerate(adj[i]) if cc != c)):
                raise UnsupportedK(f"the root vectors do not pair up on torus coordinate {c}")
            pairs.append((on[0], on[1], c, adj[on[0]][c]))
        if 2 * len(pairs) != len(free):
            raise UnsupportedK("a root vector has weight 0 on the torus")
        return tuple(sorted(pairs))

    @cached_property
    def halg(self) -> LieAlg:
        """The isotropy algebra h presented on its own basis."""
        return self.h.as_lie(self.h_labels)

    def hl_dim(self) -> int:
        return len(self.hl_basis)

    def h_weight_of(self, v: Vec) -> Weight:
        """K weight of an h-basis vector class (eigen required for A/C/D)."""
        ws = {self.k.adjoint_weights[i] for i, c in enumerate(v) if c != 0}
        if len(ws) != 1:
            raise StructureError("vector is not a K weight vector")
        return ws.pop()


def closed_orbit_pair() -> PairData:
    """Family A: torus K, isotropy the Borel at the origin, u = 0."""
    g = sl2()
    h, f = g.basis_vector(1), g.basis_vector(2)
    k = KDescriptor("torus", 1, (h,), ((2,), (0,), (-2,)))
    hsub = Subalg(g, (h, f))
    return PairData(
        name="closed-orbit", lie=g, k=k, h=hsub,
        h_labels=("h", "f"),
        l_basis=(h,), hl_basis=(f,))


def open_orbit_pair() -> PairData:
    """Family B: torus K, isotropy the Borel at z = 1, L two points."""
    g = sl2()
    e, h, f = g.basis_vector(0), g.basis_vector(1), g.basis_vector(2)
    x1 = vec_add(e, f)            # e + f
    x2 = vec_add(h, vec_scale(2, f))   # h + 2f
    k = KDescriptor("torus", 1, (h,), ((2,), (0,), (-2,)))
    hsub = Subalg(g, (x1, x2))
    return PairData(
        name="open-orbit", lie=g, k=k, h=hsub,
        h_labels=("x1", "x2"),
        l_basis=(), hl_basis=(x1, x2))


def borel_weil_bott_pair() -> PairData:
    """Family C: K is all of sl2, isotropy the Borel at the origin, u = 1."""
    g = sl2()
    e, h, f = g.basis_vector(0), g.basis_vector(1), g.basis_vector(2)
    k = KDescriptor("sl2", 1, (e, h, f), ((2,), (0,), (-2,)))
    hsub = Subalg(g, (h, f))
    return PairData(
        name="borel-weil-bott", lie=g, k=k, h=hsub,
        h_labels=("h", "f"),
        l_basis=(h,), hl_basis=(f,))


def product_pair() -> PairData:
    """Family D: two closed-orbit factors; dim(h/l) = 2, three terms."""
    g = direct_sum(sl2(), sl2())
    h1, f1 = g.basis_vector(1), g.basis_vector(2)
    h2, f2 = g.basis_vector(4), g.basis_vector(5)
    k = KDescriptor("torus", 2, (h1, h2),
                    ((2, 0), (0, 0), (-2, 0), (0, 2), (0, 0), (0, -2)))
    hsub = Subalg(g, (h1, f1, h2, f2))
    return PairData(
        name="product", lie=g, k=k, h=hsub,
        h_labels=("h1", "f1", "h2", "f2"),
        l_basis=(h1, h2), hl_basis=(f1, f2))


_FAMILIES: dict[str, Callable[[], PairData]] = {
    "A": closed_orbit_pair,
    "B": open_orbit_pair,
    "C": borel_weil_bott_pair,
    "D": product_pair,
}


@lru_cache(maxsize=None)
def pair_by_name(name: str) -> PairData:
    """The family's pair, built once per process and then shared.

    Sharing keeps the per-process memos keyed by the pair or its
    algebras (the straightening memo, the torus blocks' leg products)
    warm across cases; a re-presented pair (``dataclasses.replace``)
    is equal to it and shares them, a pair over a fresh algebra does
    not.
    """
    try:
        return _FAMILIES[name]()
    except KeyError:
        raise StructureError(f"unknown pair family {name!r}") from None
